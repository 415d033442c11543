import importlib.util
import re
from pathlib import Path

import numpy as np
import pytest

import helispin as hs
from helispin.cli import MC_SIGMA_BOUND
from helispin.errors import ConfigurationError, DegenerateInputError, NumericalDomainError
from helispin.oracles import MAX_MC_SAMPLES, PROPOSAL_WIDTH, McEstimate, mc_density
from helispin.states import OneParticleState

from conftest import random_state

PI8 = np.pi / 8.0


def test_helicity_oracle_matrix():
    rho = hs.oracle_helicity_matrix_theta_independent()
    assert abs(np.trace(rho.entries) - 1.0) <= 1e-15
    hi, lo = hs.eigenvalues_hermitian2(rho)
    assert abs(hi - (0.5 + PI8)) <= 1e-12
    assert abs(lo - (0.5 - PI8)) <= 1e-12
    assert abs(rho.entries[0, 1].real - (-0.3926990817)) <= 1e-10


def test_spin_oracle_matrix():
    rho = hs.oracle_spin_matrix_isotropic_helicity()
    np.testing.assert_array_equal(rho.entries, 0.5 * np.eye(2))
    assert hs.von_neumann_entropy(rho).entropy_bits == 1.0
    assert rho.entries[0, 1] == 0.0 and rho.entries[1, 0] == 0.0


def test_entropy_oracle_value():
    s = hs.oracle_spin_up_helicity_entropy()
    assert 0.0 < s < 1.0
    assert abs(s - 0.4917206457993146) <= 1e-12


def test_oracle_self_consistency():
    s_matrix = hs.von_neumann_entropy(hs.oracle_helicity_matrix_theta_independent())
    assert abs(s_matrix.entropy_bits - hs.oracle_spin_up_helicity_entropy()) <= 1e-12


def test_mc_same_seed_bit_identical():
    state = hs.gaussian_spin_up(1.0)
    a = mc_density(state, hs.HELICITY, 50_000, seed=7)
    b = mc_density(state, hs.HELICITY, 50_000, seed=7)
    assert np.array_equal(a.value, b.value)
    assert np.array_equal(a.std_error, b.std_error)
    c = mc_density(state, hs.HELICITY, 50_000, seed=8)
    assert not np.array_equal(a.value, c.value)


def test_mc_shard_count_does_not_change_bits():
    state = hs.gaussian_spin_up(1.0)
    reference = mc_density(state, hs.HELICITY, 100_000, seed=11, n_shards=1)
    for shards in (3, 8):
        other = mc_density(state, hs.HELICITY, 100_000, seed=11, n_shards=shards)
        assert np.array_equal(reference.value, other.value)
        assert np.array_equal(reference.std_error, other.std_error)


def test_mc_block_rotation_does_not_change_bits(monkeypatch):
    """A tile is rotated into the target basis in blocks of at most MC_BLOCK
    samples; rotating each tile whole gives the same bits, also for partial
    tiles and blocks."""
    import helispin.oracles as oracles

    sizes = []
    rotate = oracles.spin_components_to_helicity

    def recording(up, down, theta, phi):
        sizes.append(len(up))
        return rotate(up, down, theta, phi)

    monkeypatch.setattr(oracles, "spin_components_to_helicity", recording)
    state = hs.anisotropic_spin_up(1.0, 0.7)
    n = 2 * oracles.MC_TILE + oracles.MC_BLOCK + 5
    blocked = mc_density(state, hs.HELICITY, n, seed=9)
    assert max(sizes) == oracles.MC_BLOCK and sum(sizes) == n
    monkeypatch.setattr(oracles, "MC_BLOCK", oracles.MC_TILE)
    whole = mc_density(state, hs.HELICITY, n, seed=9)
    assert np.array_equal(blocked.value, whole.value)
    assert np.array_equal(blocked.std_error, whole.std_error)
    assert blocked.ess == whole.ess


def test_mc_product_form_matches_bare_evaluator():
    """The Monte-Carlo path reads the same amplitude as the quadrature: a
    family state and a bare evaluator over its ProductForm give the same bits."""
    family = hs.anisotropic_spin_up(1.0, 0.7)
    pf = family.product
    bare = OneParticleState(
        basis=family.basis,
        amplitude=lambda p, theta, phi: pf(p, theta, phi),
        family_params=family.family_params,
    )
    assert bare.product is None
    a = mc_density(family, hs.HELICITY, 20_000, seed=5)
    b = mc_density(bare, hs.HELICITY, 20_000, seed=5)
    assert np.array_equal(a.value, b.value)
    assert np.array_equal(a.std_error, b.std_error)
    assert a.ess == b.ess


@pytest.mark.parametrize(
    "state_fn,target,expected",
    [
        (lambda: hs.gaussian_spin_up(1.0), hs.HELICITY, np.array([[0.5, -PI8], [-PI8, 0.5]])),
        (lambda: hs.gaussian_helicity_up(1.0), hs.SPIN, 0.5 * np.eye(2)),
    ],
)
def test_mc_agrees_with_closed_form(state_fn, target, expected):
    estimate = mc_density(state_fn(), target, 1_000_000, seed=20260808)
    gap = np.abs(estimate.value - expected)
    sigma = np.where(estimate.std_error > 0, estimate.std_error, 1.0)
    assert np.all(gap <= 4.0 * sigma)


def test_mc_agrees_with_quadrature_anisotropic():
    """The one proposal serves every family, unnormalized and generic states
    included: each estimate lands within 4 sigma of quadrature at the
    state's own default grid."""
    gaussian, linear_exp, shell = (
        hs.radial_profile(name, **params)
        for name, params in (("gaussian", {"tau": 2.0}), ("linear_exp", {}), ("shell", {}))
    )
    rng = np.random.default_rng(2026)
    cases = [
        (hs.anisotropic_spin_up(1.0, 0.7), hs.HELICITY, 1_000_000),
        *(
            (hs.theta_independent_spin_up(f, k, width), hs.HELICITY, 200_000)
            for (f, width), k in ((gaussian, 0), (linear_exp, 0), (shell, 0), (gaussian, 2))
        ),
        (random_state(rng, hs.SPIN), hs.HELICITY, 200_000),
        (random_state(rng, hs.HELICITY), hs.SPIN, 200_000),
    ]
    for state, target, n_samples in cases:
        grid = hs.build_grid(r_max=8.0 * state.characteristic_width)
        reduce = hs.reduced_helicity_density if target == hs.HELICITY else hs.reduced_spin_density
        quad = reduce(hs.normalize(state, grid), grid).entries
        estimate = mc_density(state, target, n_samples, seed=424242)
        gap = np.abs(estimate.value - quad)
        sigma = np.where(estimate.std_error > 0, estimate.std_error, 1.0)
        assert np.all(gap <= 4.0 * sigma), state.label
        assert 0.0 < estimate.ess <= n_samples, state.label



def _crosscheck_generic_state() -> OneParticleState:
    """The non-separable state of scripts/mc_crosscheck.py."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "mc_crosscheck.py"
    spec = importlib.util.spec_from_file_location("mc_crosscheck", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.generic_state()


def test_mc_weights_match_quadrature_on_generic_state():
    """A product state's reduced matrix does not depend on the radial
    weighting; this non-separable one does, so a wrong importance weight
    (exp(p/(2.2 sigma)) for exp(p/(2 sigma)): 9.2 sigma) fails here."""
    state = _crosscheck_generic_state()
    grid = hs.build_grid(r_max=8.0 * state.characteristic_width)
    quad = hs.reduced_spin_density(hs.normalize(state, grid), grid).entries
    estimate = mc_density(state, hs.SPIN, 1_000_000, seed=15)
    assert estimate.sigma_distance(quad).max() <= MC_SIGMA_BOUND


def test_mc_ess_matches_quadrature():
    """Kong's ESS is n for constant weights, and otherwise tends to
    n (int |psi|^2)^2 / int |psi|^4/q, q the proposal density on d^3p."""
    sigma = PROPOSAL_WIDTH * 1.0  # a bare state's characteristic width
    flat = OneParticleState(
        basis=hs.SPIN, amplitude=lambda p, t, f: (np.exp(-p / (2.0 * sigma)), 0.0 * p)
    )
    estimate = mc_density(flat, hs.HELICITY, 10_000, seed=3)
    assert abs(estimate.ess / 10_000 - 1.0) <= 1e-12

    state = hs.gaussian_spin_up(1.0)
    grid = hs.build_grid(r_max=8.0 * state.characteristic_width)
    sigma = PROPOSAL_WIDTH * state.characteristic_width

    def density(p, theta, phi):
        up, down = state.amplitude(p, theta, phi)
        return np.abs(up) ** 2 + np.abs(down) ** 2

    norm = hs.integrate(grid, density).real
    second = hs.integrate(
        grid, lambda p, t, f: density(p, t, f) ** 2 * 8.0 * np.pi * sigma**3 * np.exp(p / sigma)
    ).real
    estimate = mc_density(state, hs.HELICITY, 1_000_000, seed=20260808)
    # 0.88926 against 0.88943; ESS = n would read 1
    assert abs(estimate.ess / 1_000_000 - norm * norm / second) <= 2e-3


def test_mc_std_errors_match_seed_spread():
    """Over 60 seeds the z-scores of two entries against the closed form
    have variance near 1 (0.90 and 0.70); doubled standard errors would give
    0.22 and 0.18, halved ones 3.6 and 2.8."""
    alpha = 0.7
    state = hs.anisotropic_spin_up(1.0, alpha)
    closed = np.array([[0.5 + alpha / 6.0, -PI8], [-PI8, 0.5 - alpha / 6.0]])
    z = []
    for seed in range(60):
        estimate = mc_density(state, hs.HELICITY, 20_000, seed=seed)
        z.append([(estimate.value[i, j].real - closed[i, j]) / estimate.std_error[i, j]
                  for i, j in ((0, 0), (0, 1))])
    variance = np.var(z, axis=0)
    assert np.all((0.5 <= variance) & (variance <= 2.0)), variance

def test_mc_estimate_fields():
    est = mc_density(hs.gaussian_spin_up(1.0), hs.SPIN, 1000, seed=1)
    assert est.n_samples == 1000
    assert est.seed == 1
    assert est.value.shape == (2, 2)
    assert np.all(est.std_error >= 0.0)
    assert 0.0 < est.ess <= est.n_samples
    # single-component spin state: exact projector with zero variance
    np.testing.assert_array_equal(est.value, np.array([[1, 0], [0, 0]], dtype=complex))


def test_mc_validation():
    state = hs.gaussian_spin_up(1.0)
    with pytest.raises(ConfigurationError):
        mc_density(state, hs.HELICITY, 99, seed=1)
    # the cap is checked before the tile sums are allocated
    with pytest.raises(ConfigurationError, match=f"at most {MAX_MC_SAMPLES}"):
        mc_density(state, hs.HELICITY, MAX_MC_SAMPLES + 1, seed=1)
    with pytest.raises(ConfigurationError):
        mc_density(state, "sideways", 1000, seed=1)
    with pytest.raises(ConfigurationError):
        mc_density(state, hs.HELICITY, 1000, seed=-1)
    with pytest.raises(ConfigurationError):
        mc_density(state, hs.HELICITY, 1000, seed=1, n_shards=0)
    # a vanishing amplitude adds zero; only an everywhere-zero one is degenerate
    zero = OneParticleState(basis=hs.SPIN, amplitude=lambda p, t, f: (0.0 * p, 0.0 * p))
    with pytest.raises(DegenerateInputError):
        mc_density(zero, hs.HELICITY, 1000, seed=1)
    diverging = OneParticleState(
        basis=hs.SPIN, amplitude=lambda p, t, f: (np.where(p < 1.0, np.nan, 1.0), 0.0)
    )
    with pytest.raises(NumericalDomainError):
        mc_density(diverging, hs.HELICITY, 1000, seed=1)


@pytest.mark.parametrize(
    "n_samples, std_error, message",
    [
        (0, np.zeros((2, 2)), "n_samples must be >= 1"),
        (100, np.full((2, 2), -1.0), "standard errors must be non-negative"),
    ],
)
def test_mc_estimate_constructor_checks(n_samples, std_error, message):
    with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
        McEstimate(value=0.5 * np.eye(2), std_error=std_error, n_samples=n_samples, seed=0, ess=1.0)
