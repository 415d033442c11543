"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; plain ``pytest`` shows them on failure only.
"""
import time

import numpy as np

import helispin as hs
from helispin.cli import bundled_scenarios, execute_scenario, execute_sweep, main, parse_scenario, parse_sweep
from helispin.oracles import mc_density

from conftest import random_state

PI8 = np.pi / 8.0
ORACLE_HELICITY = np.array([[0.5, -PI8], [-PI8, 0.5]], dtype=np.complex128)
#: Independent high-precision (50-digit) evaluation of the binary entropy of
#: the eigenvalue pair 1/2 +- pi/8, frozen before implementation.
INDEPENDENT_ENTROPY = 0.4917206457993146


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:02d} {name}: {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed{suffix}"


def test_criterion_01_theta_independent_reduction_at_default_grid():
    scenario = parse_scenario(bundled_scenarios()["eq10_theta_independent"])
    start = time.perf_counter()
    result = execute_scenario(scenario)
    elapsed = time.perf_counter() - start
    matrix = result["results"]["helicity_density"].entries
    deviation = float(np.max(np.abs(matrix - ORACLE_HELICITY)))
    _report(
        1,
        "theta-independent helicity matrix at default grid",
        deviation <= 1e-8 and elapsed < 1.0,
        f"deviation {deviation:.3e}, runtime {elapsed:.3f}s",
    )


def test_criterion_02_entropy_oracle():
    oracle = hs.oracle_spin_up_helicity_entropy()
    from_matrix = hs.von_neumann_entropy(hs.oracle_helicity_matrix_theta_independent())
    gap_matrix = abs(from_matrix.entropy_bits - oracle)
    gap_reference = abs(oracle - INDEPENDENT_ENTROPY)
    _report(
        2,
        "helicity entropy equals its oracle and the independent evaluation",
        gap_matrix <= 1e-10 and gap_reference <= 1e-6,
        f"matrix-vs-oracle {gap_matrix:.3e}, oracle-vs-independent {gap_reference:.3e}",
    )


def test_criterion_03_profile_independence():
    cases = [
        (lambda p: np.exp(-p * p / 2.0), 8.0),
        (lambda p: p * np.exp(-p), 20.0),
        (lambda p: ((p > 0.5) & (p < 1.5)).astype(float), 12.0),
    ]
    matrices, entropies = [], []
    for profile, r_max in cases:
        grid = hs.build_grid(r_max=r_max)
        state = hs.normalize(hs.theta_independent_spin_up(profile), grid)
        rho = hs.reduced_helicity_density(state, grid)
        matrices.append(rho.entries)
        entropies.append(hs.von_neumann_entropy(rho).entropy_bits)
    worst_matrix = max(
        float(np.max(np.abs(matrices[i] - matrices[j])))
        for i in range(3)
        for j in range(i + 1, 3)
    )
    worst_entropy = max(entropies) - min(entropies)
    _report(
        3,
        "helicity reduction independent of the radial profile",
        worst_matrix <= 1e-8 and worst_entropy <= 1e-8,
        f"pairwise matrix {worst_matrix:.3e}, entropy spread {worst_entropy:.3e}",
    )


def test_criterion_04_width_independence_sweep():
    sweep = parse_sweep(bundled_scenarios()["eq12_tau_sweep"])
    rows = execute_sweep(sweep)
    assert rows[0] == ["state.params.tau", "helicity_entropy", "status"]
    values = [float(row[1]) for row in rows[1:]]
    spread = max(values) - min(values)
    _report(
        4,
        "helicity entropy constant across widths 0.25..4",
        len(values) == 5 and spread <= 1e-8 and all(r[-1] == "ok" for r in rows[1:]),
        f"entropy spread {spread:.3e}",
    )


def test_criterion_05_isotropic_helicity_reduction():
    scenario = parse_scenario(bundled_scenarios()["eq15_isotropic_helicity"])
    result = execute_scenario(scenario)
    spin = result["results"]["spin_density"].entries
    matrix_dev = float(np.max(np.abs(spin - 0.5 * np.eye(2))))
    entropy_dev = abs(result["results"]["spin_entropy"].entropy_bits - 1.0)
    _report(
        5,
        "isotropic helicity packet has maximally mixed spin",
        matrix_dev <= 1e-8 and entropy_dev <= 1e-8,
        f"matrix {matrix_dev:.3e}, entropy gap {entropy_dev:.3e}",
    )


def test_criterion_06_reduction_paths_agree():
    grid = hs.build_grid(24, 48, 16, r_max=8.0)
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(50):
        state = hs.normalize(random_state(rng), grid)
        other = hs.HELICITY if state.basis == hs.SPIN else hs.SPIN
        converted = hs.with_basis(state, other)
        for reduce_fn in (hs.reduced_spin_density, hs.reduced_helicity_density):
            direct = reduce_fn(state, grid).entries
            sandwiched = reduce_fn(converted, grid).entries
            worst = max(worst, float(np.max(np.abs(direct - sandwiched))))
    _report(
        6,
        "direct and transform-then-reduce paths agree on 50 random states",
        worst <= 1e-10,
        f"worst entrywise gap {worst:.3e}",
    )


def test_criterion_07_monte_carlo_agreement():
    start = time.perf_counter()
    checks = []
    grid = hs.build_grid(r_max=8.0)

    spin_up = hs.gaussian_spin_up(1.0)
    quad_h = hs.reduced_helicity_density(hs.normalize(spin_up, grid), grid).entries
    est_h = mc_density(spin_up, hs.HELICITY, 1_000_000, seed=20260808)
    gap = np.abs(quad_h - est_h.value)
    sigma = np.where(est_h.std_error > 0, est_h.std_error, 1.0)
    checks.append(float(np.max(gap / sigma)))

    helicity_up = hs.gaussian_helicity_up(1.0)
    quad_s = hs.reduced_spin_density(hs.normalize(helicity_up, grid), grid).entries
    est_s = mc_density(helicity_up, hs.SPIN, 1_000_000, seed=31415926)
    gap = np.abs(quad_s - est_s.value)
    sigma = np.where(est_s.std_error > 0, est_s.std_error, 1.0)
    checks.append(float(np.max(gap / sigma)))

    elapsed = time.perf_counter() - start
    _report(
        7,
        "quadrature and Monte-Carlo densities agree within 4 standard errors",
        max(checks) <= 4.0 and elapsed < 30.0,
        f"worst sigma distance {max(checks):.2f}, runtime {elapsed:.1f}s",
    )


def test_criterion_08_structural_invariants():
    rng = np.random.default_rng(808)
    ok = True
    details = []

    worst_unitarity = 0.0
    worst_det = 0.0
    for _ in range(1000):
        d = hs.wigner_rotation(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi))
        worst_unitarity = max(worst_unitarity, float(np.max(np.abs(d.conj().T @ d - np.eye(2)))))
        worst_det = max(worst_det, abs(np.linalg.det(d) - 1.0))
    ok &= worst_unitarity <= 1e-12 and worst_det <= 1e-12
    details.append(f"unitarity {worst_unitarity:.2e}")

    worst_round_trip = 0.0
    for _ in range(100):
        pair = hs.AmplitudePair(
            complex(rng.standard_normal(), rng.standard_normal()),
            complex(rng.standard_normal(), rng.standard_normal()),
            hs.SPIN,
        )
        direction = hs.Momentum(1.0, rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi))
        back = hs.helicity_to_spin(hs.spin_to_helicity(pair, direction), direction)
        worst_round_trip = max(
            worst_round_trip, abs(back.up - pair.up), abs(back.down - pair.down)
        )
    ok &= worst_round_trip <= 1e-14
    details.append(f"round trip {worst_round_trip:.2e}")

    grid = hs.build_grid(24, 48, 16, r_max=8.0)
    emitted = [
        hs.reduced_helicity_density(hs.normalize(hs.gaussian_spin_up(1.0), grid), grid),
        hs.reduced_spin_density(hs.normalize(hs.gaussian_helicity_up(1.0), grid), grid),
        hs.reduced_helicity_density(hs.normalize(hs.anisotropic_spin_up(1.0, 1.0), grid), grid),
    ]
    for _ in range(50):
        emitted.append(
            hs.reduced_helicity_density(hs.normalize(random_state(rng), grid), grid)
        )
    worst_herm = worst_trace = 0.0
    worst_eig = 1.0
    for rho in emitted:
        m = rho.entries
        worst_herm = max(worst_herm, float(np.max(np.abs(m - m.conj().T))))
        worst_trace = max(worst_trace, abs(np.trace(m).real - 1.0))
        worst_eig = min(worst_eig, hs.eigenvalues_hermitian2(m)[1])
    ok &= worst_herm <= 1e-10 and worst_trace <= 1e-10 and worst_eig >= -1e-10
    details.append(f"herm {worst_herm:.2e}, trace {worst_trace:.2e}, min eig {worst_eig:.2e}")

    m = hs.oracle_helicity_matrix_theta_independent().entries
    base_entropy = hs.von_neumann_entropy(m).entropy_bits
    worst_invariance = 0.0
    for _ in range(100):
        u = hs.wigner_rotation(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi))
        rotated = u @ m @ u.conj().T
        worst_invariance = max(
            worst_invariance, abs(hs.von_neumann_entropy(rotated).entropy_bits - base_entropy)
        )
    ok &= worst_invariance <= 1e-12
    details.append(f"entropy invariance {worst_invariance:.2e}")

    _report(8, "structural invariant suite", bool(ok), "; ".join(details))


def test_criterion_09_anisotropy_breaks_universality():
    grid = hs.build_grid(r_max=8.0)
    state = hs.normalize(hs.anisotropic_spin_up(1.0, 1.0), grid)
    rho = hs.reduced_helicity_density(state, grid)
    top_left = rho.entries[0, 0].real
    _report(
        9,
        "fully anisotropic packet: top-left helicity entry is 2/3",
        abs(top_left - 2.0 / 3.0) <= 1e-8 and abs(top_left - 0.5) > 0.1,
        f"entry {top_left:.12f}",
    )


def test_criterion_10_determinism(tmp_path):
    report_a = tmp_path / "a.json"
    report_b = tmp_path / "b.json"
    rc_a = main(["run", "eq10_theta_independent", "--out", str(report_a)])
    rc_b = main(["run", "eq10_theta_independent", "--out", str(report_b)])
    reports_identical = rc_a == rc_b == 0 and report_a.read_bytes() == report_b.read_bytes()

    state = hs.gaussian_spin_up(1.0)
    est_1 = mc_density(state, hs.HELICITY, 200_000, seed=5150)
    est_2 = mc_density(state, hs.HELICITY, 200_000, seed=5150)
    est_4 = mc_density(state, hs.HELICITY, 200_000, seed=5150, n_shards=4)
    mc_identical = (
        np.array_equal(est_1.value, est_2.value)
        and np.array_equal(est_1.value, est_4.value)
        and np.array_equal(est_1.std_error, est_4.std_error)
    )
    _report(
        10,
        "byte-identical reports and shard-independent Monte-Carlo bits",
        reports_identical and mc_identical,
        f"reports identical: {reports_identical}, mc identical: {mc_identical}",
    )
