import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helispin as hs
from helispin.errors import ConfigurationError, DegenerateInputError
from helispin.states import OneParticleState, ProductForm

from conftest import random_state


def test_gaussian_spin_up_unit_norm(default_grid):
    state = hs.gaussian_spin_up(1.0)
    assert abs(hs.norm_squared(state, default_grid) - 1.0) <= 1e-10


@pytest.mark.parametrize("tau", [0.5, 2.0])
def test_gaussian_norm_scale_covariance(tau):
    grid = hs.build_grid(48, 16, 8, r_max=8.0 * tau)
    assert abs(hs.norm_squared(hs.gaussian_spin_up(tau), grid) - 1.0) <= 1e-10


def test_gaussian_down_component_vanishes(default_grid):
    state = hs.gaussian_spin_up(1.3)
    up, down = state.amplitude(np.array([0.7]), np.array([1.0]), np.array([2.0]))
    assert up[0] != 0.0 and down[0] == 0.0
    assert state.basis == hs.SPIN


def test_unnormalized_gaussian_norm_is_hand_integral(default_grid):
    # prefactor 1: the squared norm is the integral of exp(-p^2), pi^(3/2)
    state = hs.theta_independent_spin_up(lambda p: np.exp(-p * p / 2.0))
    assert abs(hs.norm_squared(state, default_grid) - np.pi**1.5) <= 1e-9


def test_zero_state_norm_and_normalize_error(default_grid):
    state = hs.theta_independent_spin_up(lambda p: np.zeros_like(p))
    assert hs.norm_squared(state, default_grid) == 0.0
    with pytest.raises(DegenerateInputError):
        hs.normalize(state, default_grid)


def test_non_finite_norm_rejected():
    """p^2*w overflows on a grid this wide, so the squared norm is NaN: a
    numerical error of its own, not a zero norm or a later node check."""
    state = hs.gaussian_spin_up(1e150)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(hs.NumericalDomainError, match="squared norm is nan"):
        hs.normalize(state, hs.build_grid(r_max=8e150))


def test_normalize_idempotent(default_grid):
    state = hs.theta_independent_spin_up(lambda p: p * np.exp(-p))
    once = hs.normalize(state, default_grid)
    twice = hs.normalize(once, default_grid)
    p = np.linspace(0.1, 5.0, 50)
    up1, _ = once.amplitude(p, np.full_like(p, 1.0), np.full_like(p, 2.0))
    up2, _ = twice.amplitude(p, np.full_like(p, 1.0), np.full_like(p, 2.0))
    np.testing.assert_allclose(up2, up1, rtol=1e-12)


def test_normalize_projective_invariance(default_grid):
    base = hs.theta_independent_spin_up(lambda p: np.exp(-p * p))
    scaled = hs.theta_independent_spin_up(lambda p: 7.0 * np.exp(-p * p))
    n_base = hs.normalize(base, default_grid)
    n_scaled = hs.normalize(scaled, default_grid)
    p = np.linspace(0.05, 6.0, 80)
    up_a, _ = n_base.amplitude(p, np.full_like(p, 0.3), np.full_like(p, 0.1))
    up_b, _ = n_scaled.amplitude(p, np.full_like(p, 0.3), np.full_like(p, 0.1))
    np.testing.assert_allclose(up_b, up_a, rtol=1e-12)


@settings(max_examples=20, deadline=None)
@given(scale=st.floats(0.1, 50.0, allow_nan=False))
def test_normalize_scale_property(scale):
    grid = hs.build_grid(24, 8, 4, r_max=8.0)
    state = hs.theta_independent_spin_up(lambda p: scale * np.exp(-p * p))
    normalized = hs.normalize(state, grid)
    assert abs(hs.norm_squared(normalized, grid) - 1.0) <= 1e-12


def test_all_families_normalized(default_grid):
    families = [
        hs.gaussian_spin_up(1.0),
        hs.gaussian_helicity_up(1.0),
        hs.anisotropic_spin_up(1.0, 0.0),
        hs.anisotropic_spin_up(1.0, 1.0),
        hs.anisotropic_spin_up(1.0, -0.6),
    ]
    for state in families:
        assert abs(hs.norm_squared(state, default_grid) - 1.0) <= 1e-10, state.label


def test_gaussian_amplitude_depends_only_on_magnitude():
    state = hs.gaussian_spin_up(0.8)
    rng = np.random.default_rng(11)
    p = np.full(100, 1.234)
    theta = rng.uniform(0, np.pi, 100)
    phi = rng.uniform(0, 2 * np.pi, 100)
    up, down = state.amplitude(p, theta, phi)
    up = np.broadcast_to(up, p.shape)
    assert np.all(up == up[0])
    assert np.all(np.broadcast_to(down, p.shape) == 0.0)


def test_anisotropic_alpha_zero_matches_gaussian():
    iso = hs.gaussian_spin_up(1.0)
    an = hs.anisotropic_spin_up(1.0, 0.0)
    p = np.linspace(0.1, 6.0, 40)
    theta = np.linspace(0.01, np.pi - 0.01, 40)
    phi = np.zeros(40)
    up_iso, _ = iso.amplitude(p, theta, phi)
    up_an, _ = an.amplitude(p, theta, phi)
    np.testing.assert_allclose(
        np.broadcast_to(up_an, (40,)), np.broadcast_to(up_iso, (40,)), rtol=1e-15
    )


def test_family_parameter_validation():
    with pytest.raises(ConfigurationError):
        hs.gaussian_spin_up(0.0)
    with pytest.raises(ConfigurationError):
        hs.gaussian_helicity_up(-1.0)
    with pytest.raises(ConfigurationError):
        hs.anisotropic_spin_up(1.0, 1.5)
    with pytest.raises(ConfigurationError):
        hs.theta_independent_spin_up(lambda p: p, characteristic_width=0.0)
    # the width sets r_max and the Monte-Carlo proposal, so every state checks it
    for width in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ConfigurationError, match="characteristic_width"):
            hs.OneParticleState(hs.SPIN, lambda p, t, f: (p, p), characteristic_width=width)


def test_with_basis_round_trip(small_grid):
    rng = np.random.default_rng(3)
    state = random_state(rng, basis=hs.SPIN)
    back = hs.with_basis(hs.with_basis(state, hs.HELICITY), hs.SPIN)
    p = np.linspace(0.2, 4.0, 30)
    theta = np.linspace(0.1, 3.0, 30)
    phi = np.linspace(0.0, 6.0, 30)
    up0, dn0 = state.amplitude(p, theta, phi)
    up1, dn1 = back.amplitude(p, theta, phi)
    np.testing.assert_allclose(up1, up0, atol=1e-14)
    np.testing.assert_allclose(dn1, dn0, atol=1e-14)


def test_with_basis_preserves_norm(default_grid):
    state = hs.gaussian_spin_up(1.0)
    converted = hs.with_basis(state, hs.HELICITY)
    assert converted.basis == hs.HELICITY
    assert abs(hs.norm_squared(converted, default_grid) - 1.0) <= 1e-10


def test_with_basis_rejects_unknown_tag():
    with pytest.raises(ConfigurationError):
        hs.with_basis(hs.gaussian_spin_up(1.0), "chirality")
    # a state's own tag too: a "Spin" state would reduce as a helicity state
    for tag in ("Spin", "chirality"):
        with pytest.raises(ConfigurationError, match="unknown basis tag"):
            hs.OneParticleState(tag, hs.gaussian_spin_up(1.0).amplitude)


def test_winding_phase_preserves_norm(default_grid):
    plain = hs.normalize(
        hs.theta_independent_spin_up(lambda p: np.exp(-p * p / 2.0)), default_grid
    )
    wound = hs.normalize(
        hs.theta_independent_spin_up(lambda p: np.exp(-p * p / 2.0), azimuthal_winding=3),
        default_grid,
    )
    assert abs(hs.norm_squared(wound, default_grid) - 1.0) <= 1e-12
    at = (np.array([1.0]), np.array([1.0]), np.array([0.5]))
    up, _ = wound.amplitude(*at)
    ref, _ = plain.amplitude(*at)
    assert abs(abs(up[0]) - abs(ref[0])) <= 1e-12


def test_radial_profile_registry():
    gaussian, width = hs.radial_profile("gaussian", tau=2.0)
    assert width == 2.0
    assert abs(gaussian(np.array([0.0]))[0] - 1.0) <= 1e-15

    linear, width = hs.radial_profile("linear_exp", scale=1.0)
    assert width == 2.5
    assert linear(np.array([0.0]))[0] == 0.0

    shell, width = hs.radial_profile("shell", p_min=0.5, p_max=1.5)
    assert width == 1.5
    np.testing.assert_array_equal(shell(np.array([0.4, 1.0, 1.6])), [0.0, 1.0, 0.0])

    with pytest.raises(ConfigurationError):
        hs.radial_profile("unknown")
    with pytest.raises(ConfigurationError):
        hs.radial_profile("shell", p_min=2.0, p_max=1.0)
    with pytest.raises(ConfigurationError, match="bad parameters for profile 'gaussian'.*bogus"):
        hs.radial_profile("gaussian", tau=1.0, bogus=3.0)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: hs.anisotropic_spin_up(0.0, 0.5), "tau must be positive, got 0.0"),
        (lambda: hs.radial_profile("gaussian", tau=0.0), "gaussian profile needs tau > 0"),
        (lambda: hs.radial_profile("linear_exp", scale=-1.0), "linear_exp profile needs scale > 0"),
        # the profiles and the winding take numbers, not their text
        (lambda: hs.radial_profile("gaussian", tau="2.0"), "bad parameters for profile 'gaussian'"),
        (lambda: hs.theta_independent_spin_up(np.exp, azimuthal_winding="2"),
         "azimuthal_winding must be an integer, got '2'"),
    ],
)
def test_family_and_profile_checks(build, message):
    with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}"):
        build()


def test_components_cache_reused(small_grid):
    state = hs.gaussian_spin_up(1.0)
    first = state.components_on(small_grid)
    second = state.components_on(small_grid)
    assert first[0] is second[0] and first[1] is second[1]
    # a state without a product form: normalize's norm pass is the only
    # mesh evaluation; the normalized state reuses it
    calls = []

    def amp(p, theta, phi):
        calls.append(1)
        return 2.0 * np.exp(-(p**2) / 2.0) * np.cos(theta / 2.0), np.sin(phi) * np.exp(-p)

    normalized = hs.normalize(OneParticleState(basis=hs.SPIN, amplitude=amp), small_grid)
    assert len(calls) == 1
    up, down = normalized.components_on(small_grid)
    assert len(calls) == 1
    fresh = OneParticleState(basis=hs.SPIN, amplitude=normalized.amplitude)
    np.testing.assert_array_equal(up, fresh.components_on(small_grid)[0])
    np.testing.assert_array_equal(down, fresh.components_on(small_grid)[1])


def test_non_finite_amplitude_reported(small_grid):
    state = OneParticleState(
        basis=hs.SPIN,
        amplitude=lambda p, t, f: (np.where(p > 4.0, np.nan, 1.0), np.zeros_like(p)),
    )
    with pytest.raises(hs.NumericalDomainError, match="not finite"):
        state.components_on(small_grid)


def test_product_form_is_the_amplitude():
    state = hs.anisotropic_spin_up(1.0, 0.5)
    assert state.product is state.amplitude
    p, theta, phi = np.array([0.3, 1.7]), np.array([0.2, 2.9]), np.array([1.0, 5.0])
    radial = state.product.radial(p)
    up, down = state.product.angular(theta, phi)
    np.testing.assert_array_equal(state.amplitude(p, theta, phi)[0], radial * up)
    np.testing.assert_array_equal(state.amplitude(p, theta, phi)[1], radial * down)
    # a state cannot carry a product form beside a disagreeing amplitude
    with pytest.raises(TypeError):
        OneParticleState(basis=hs.SPIN, amplitude=lambda p, t, f: (p, p), product=state.product)


def test_product_factors_pass_the_mesh_check(small_grid):
    """A product state's factors get the grid's one evaluation check: a
    non-finite radial value names its node, and an angular factor that does
    not broadcast to the grid is an input error."""
    k = 3
    bad_p = small_grid.radial_nodes[k]
    radial = lambda p: np.where(p == bad_p, np.nan, np.exp(-p * p))
    angular = hs.gaussian_spin_up(1.0).product.angular
    state = OneParticleState(basis=hs.SPIN, amplitude=ProductForm(radial, angular))
    node = k * small_grid.n_theta * small_grid.n_phi
    with pytest.raises(hs.NumericalDomainError, match=f"radial factor is not finite at node {node} "):
        hs.norm_squared(state, small_grid)
    misshaped = ProductForm(np.exp, lambda theta, phi: (np.ones(3), np.zeros(3)))
    with pytest.raises(ConfigurationError, match="angular up factor .* does not broadcast"):
        hs.norm_squared(OneParticleState(basis=hs.SPIN, amplitude=misshaped), small_grid)
