import numpy as np
import pytest

import helispin as hs
from helispin.density import DensityMatrix2, accumulate_outer, density_from_samples
from helispin.errors import ContractViolationError, NumericalDomainError
from helispin.states import OneParticleState

from conftest import random_state

PI8 = np.pi / 8.0
ORACLE_HELICITY = np.array([[0.5, -PI8], [-PI8, 0.5]], dtype=np.complex128)


def test_gaussian_spin_up_reduces_to_projector(default_grid):
    state = hs.normalize(hs.gaussian_spin_up(1.7), default_grid)
    rho = hs.reduced_spin_density(state, default_grid)
    np.testing.assert_allclose(
        rho.entries, np.array([[1.0, 0.0], [0.0, 0.0]]), atol=1e-14
    )
    assert rho.basis == hs.SPIN


def test_equal_superposition_rank_one(default_grid):
    def amp(p, theta, phi):
        a = np.pi ** (-0.75) * np.exp(-(np.asarray(p) ** 2) / 2.0) / np.sqrt(2.0)
        return a + 0.0j * np.asarray(theta) * np.asarray(phi), a + 0j

    state = hs.normalize(
        OneParticleState(basis=hs.SPIN, amplitude=amp, label="equal superposition"),
        default_grid,
    )
    rho = hs.reduced_spin_density(state, default_grid)
    np.testing.assert_allclose(rho.entries, np.full((2, 2), 0.5), atol=1e-10)


def test_helicity_up_spin_density_is_maximally_mixed(default_grid):
    state = hs.normalize(hs.gaussian_helicity_up(1.0), default_grid)
    rho = hs.reduced_spin_density(state, default_grid)
    np.testing.assert_allclose(rho.entries, 0.5 * np.eye(2), atol=1e-8)


def test_helicity_up_helicity_density_is_pure(default_grid):
    state = hs.normalize(hs.gaussian_helicity_up(0.7), default_grid)
    rho = hs.reduced_helicity_density(state, default_grid)
    np.testing.assert_allclose(rho.entries, np.diag([1.0, 0.0]), atol=1e-14)


def test_theta_independent_matches_closed_form(default_grid):
    state = hs.normalize(
        hs.theta_independent_spin_up(lambda p: np.exp(-p * p / 2.0)), default_grid
    )
    rho = hs.reduced_helicity_density(state, default_grid)
    np.testing.assert_allclose(rho.entries, ORACLE_HELICITY, atol=1e-8)


def test_width_independence(default_grid):
    grids = {
        0.5: hs.build_grid(r_max=4.0),
        2.0: hs.build_grid(r_max=16.0),
    }
    matrices = []
    for tau, grid in grids.items():
        state = hs.normalize(hs.gaussian_spin_up(tau), grid)
        matrices.append(hs.reduced_helicity_density(state, grid).entries)
    np.testing.assert_allclose(matrices[0], matrices[1], atol=1e-10)


def test_profile_independence(default_grid):
    profiles = {
        "gaussian": (lambda p: np.exp(-p * p / 2.0), 8.0),
        "linear_exp": (lambda p: p * np.exp(-p), 20.0),
        "shell": (lambda p: ((p > 0.5) & (p < 1.5)).astype(float), 12.0),
    }
    matrices = []
    for profile, r_max in profiles.values():
        grid = hs.build_grid(r_max=r_max)
        state = hs.normalize(hs.theta_independent_spin_up(profile), grid)
        matrices.append(hs.reduced_helicity_density(state, grid).entries)
    for i in range(len(matrices)):
        for j in range(i + 1, len(matrices)):
            np.testing.assert_allclose(matrices[i], matrices[j], atol=1e-8)


def test_winding_phase_does_not_change_reduction(default_grid):
    plain = hs.normalize(
        hs.theta_independent_spin_up(lambda p: np.exp(-p * p / 2.0)), default_grid
    )
    wound = hs.normalize(
        hs.theta_independent_spin_up(lambda p: np.exp(-p * p / 2.0), azimuthal_winding=2),
        default_grid,
    )
    a = hs.reduced_helicity_density(plain, default_grid).entries
    b = hs.reduced_helicity_density(wound, default_grid).entries
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_anisotropic_alpha_one_closed_form(default_grid):
    state = hs.normalize(hs.anisotropic_spin_up(1.0, 1.0), default_grid)
    rho = hs.reduced_helicity_density(state, default_grid)
    expected = np.array([[2.0 / 3.0, -PI8], [-PI8, 1.0 / 3.0]])
    np.testing.assert_allclose(rho.entries, expected, atol=1e-8)
    # isotropy is necessary: far from the universal 1/2
    assert abs(rho.entries[0, 0].real - 0.5) > 0.1


def test_kernel_single_node():
    rho = density_from_samples([1.0], np.array([1.0 + 0j]), np.array([0.0j]), hs.SPIN)
    np.testing.assert_array_equal(rho.entries, np.array([[1, 0], [0, 0]], dtype=complex))


def test_kernel_classical_mixture():
    inv = 1.0 / np.sqrt(2.0)
    rho = density_from_samples(
        [1.0, 1.0],
        np.array([inv, 0.0], dtype=complex),
        np.array([0.0, inv], dtype=complex),
        hs.HELICITY,
    )
    np.testing.assert_allclose(rho.entries, 0.5 * np.eye(2), atol=1e-15)


def test_kernel_matches_brute_force_summation():
    """Independent oracle: plain Python loop over the same nodes."""
    rng = np.random.default_rng(42)
    up = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    down = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    weights = rng.uniform(0.1, 1.0, 5)
    # scale so the ensemble is normalized, as the kernel contract expects
    total = sum(
        w * (abs(u) ** 2 + abs(d) ** 2) for w, u, d in zip(weights, up, down)
    )
    weights = weights / total

    brute = np.zeros((2, 2), dtype=complex)
    for w, u, d in zip(weights, up, down):
        comps = (u, d)
        for a in range(2):
            for b in range(2):
                brute[a, b] += w * comps[a] * np.conj(comps[b])

    rho = density_from_samples(weights, up, down, hs.SPIN)
    np.testing.assert_allclose(rho.entries, brute, atol=1e-14)


def test_accumulation_asymmetry_tiny():
    rng = np.random.default_rng(8)
    n = 4096
    up = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    down = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    weights = rng.uniform(0.0, 1.0, n)
    weights /= np.sum(weights * (np.abs(up) ** 2 + np.abs(down) ** 2))
    raw = accumulate_outer(weights, up, down)
    assert np.max(np.abs(raw - raw.conj().T)) < 1e-11


def test_basis_consistency_random_states(small_grid):
    """Direct reduction equals convert-then-reduce, for both targets."""
    rng = np.random.default_rng(123)
    for _ in range(20):
        state = hs.normalize(random_state(rng), small_grid)
        other = hs.HELICITY if state.basis == hs.SPIN else hs.SPIN
        converted = hs.with_basis(state, other)
        for reduce_fn in (hs.reduced_spin_density, hs.reduced_helicity_density):
            direct = reduce_fn(state, small_grid).entries
            sandwiched = reduce_fn(converted, small_grid).entries
            np.testing.assert_allclose(direct, sandwiched, atol=1e-10)


def test_invariants_families_and_random_states(small_grid, default_grid):
    emitted = []
    for tau in (0.5, 1.0, 2.0):
        grid = hs.build_grid(r_max=8.0 * tau)
        state = hs.normalize(hs.gaussian_spin_up(tau), grid)
        emitted.append(hs.reduced_helicity_density(state, grid))
        emitted.append(hs.reduced_spin_density(state, grid))
    state = hs.normalize(hs.gaussian_helicity_up(1.0), default_grid)
    emitted.append(hs.reduced_spin_density(state, default_grid))

    rng = np.random.default_rng(77)
    for _ in range(200):
        state = hs.normalize(random_state(rng), small_grid)
        emitted.append(hs.reduced_helicity_density(state, small_grid))

    for rho in emitted:
        m = rho.entries
        assert np.max(np.abs(m - m.conj().T)) <= 1e-10
        assert abs(np.trace(m) - 1.0) <= 1e-10
        eig_lo = hs.eigenvalues_hermitian2(m)[1]
        assert eig_lo >= -1e-10


def test_unnormalized_state_rejected(default_grid):
    state = hs.theta_independent_spin_up(lambda p: np.exp(-p * p))  # not normalized
    with pytest.raises(ContractViolationError, match="normalized"):
        hs.reduced_helicity_density(state, default_grid)


def test_kernel_rejects_non_finite():
    with pytest.raises(NumericalDomainError, match="node 1"):
        density_from_samples(
            [0.5, 0.5],
            np.array([1.0, np.nan], dtype=complex),
            np.array([0.0, 0.0], dtype=complex),
            hs.SPIN,
        )


def test_density_matrix_validation():
    with pytest.raises(ContractViolationError):
        DensityMatrix2(np.array([[0.5, 0.2], [0.3, 0.5]]), hs.SPIN)  # not Hermitian
    with pytest.raises(ContractViolationError):
        DensityMatrix2(np.array([[0.8, 0.0], [0.0, 0.8]]), hs.SPIN)  # trace 1.6
    with pytest.raises(ContractViolationError):
        DensityMatrix2(np.array([[1.5, 0.0], [0.0, -0.5]]), hs.SPIN)  # not PSD


def test_convergence_doubling_below_1e10():
    """At a converged polar count, doubling the whole grid moves no entry of
    the Gaussian-family reduction by more than 1e-10."""
    base = hs.build_grid(64, 2048, 32, r_max=8.0)
    doubled = hs.refine(base)
    state = hs.gaussian_spin_up(1.0)
    rho_base = hs.reduced_helicity_density(hs.normalize(state, base), base).entries
    rho_fine = hs.reduced_helicity_density(hs.normalize(state, doubled), doubled).entries
    assert np.max(np.abs(rho_base - rho_fine)) < 1e-10


def test_mesh_and_product_paths_agree(small_grid):
    """The separable fast path and the generic mesh path compute the same
    reduction, on one radial slab and on two; integrating |psi|^2 node by
    node gives the mesh path's norm."""
    two_slabs = hs.build_grid(80, 512, 32)
    assert len(list(two_slabs.radial_slabs())) == 2
    for grid in (small_grid, two_slabs):
        product_state = hs.normalize(hs.anisotropic_spin_up(1.0, 0.8), grid)
        stripped = OneParticleState(
            basis=product_state.basis,
            amplitude=product_state.amplitude,
            label="no product tag",
        )
        fast = hs.reduced_helicity_density(product_state, grid).entries
        generic = hs.reduced_helicity_density(stripped, grid).entries
        np.testing.assert_allclose(fast, generic, atol=1e-13)

        def density(p, theta, phi):
            up, down = stripped.amplitude(p, theta, phi)
            return np.abs(up) ** 2 + np.abs(down) ** 2

        assert abs(hs.integrate(grid, density) - hs.norm_squared(stripped, grid)) <= 1e-14
