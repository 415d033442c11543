import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helispin as hs
from helispin.errors import ConfigurationError, NumericalDomainError
from helispin.quadrature import BLOCK_NODES, build_grid, integrate, refine


def test_ball_volume():
    grid = build_grid(8, 8, 8, r_max=1.0)
    assert abs(integrate(grid, lambda p, t, f: 1.0) - 4.0 * np.pi / 3.0) <= 1e-12


def test_cos_theta_averages_to_zero():
    grid = build_grid(8, 8, 8, r_max=1.0)
    assert abs(integrate(grid, lambda p, t, f: np.cos(t))) <= 1e-12


def test_full_period_phase_averages_to_zero():
    grid = build_grid(8, 8, 8, r_max=1.0)
    assert abs(integrate(grid, lambda p, t, f: np.exp(1j * f))) <= 1e-12


def test_corrected_gaussian_has_unit_norm():
    # hand integral: c^2 * integral of exp(-p^2) over momentum space
    # with c = pi^(-3/4) equals 1
    grid = build_grid(64, 32, 32, r_max=8.0)
    c = np.pi ** (-0.75)
    value = integrate(grid, lambda p, t, f: (c * np.exp(-p * p / 2.0)) ** 2)
    assert abs(value - 1.0) <= 1e-10


def test_bare_gaussian_integral():
    # hand integral: exp(-p^2) over momentum space is pi^(3/2)
    grid = build_grid(64, 32, 32, r_max=8.0)
    value = integrate(grid, lambda p, t, f: np.exp(-p * p))
    assert abs(value - np.pi ** 1.5) <= 1e-9


def test_sin_theta_solid_angle_average():
    # hand integral: mean of sin(theta) over the sphere is pi/4; this is the
    # source of the pi/8 off-diagonal in the helicity reduction
    for grid in (build_grid(8, 512, 8, r_max=1.0), build_grid(8, 16, 8, r_max=1.0)):
        ratio = integrate(grid, lambda p, t, f: np.sin(t)) / integrate(grid, lambda p, t, f: 1.0)
        assert abs(ratio - np.pi / 4.0) <= 1e-8


def test_polynomial_exactness():
    # degree 9 in p with a 5-point rule (exact); degree 6 in cos(theta) is at
    # roundoff with 24 polar nodes
    grid = build_grid(5, 24, 4, r_max=2.0)
    value = integrate(grid, lambda p, t, f: p**7 * np.cos(t) ** 6)
    exact = (2.0**10 / 10.0) * (2.0 / 7.0) * 2.0 * np.pi
    assert abs(value - exact) <= 1e-12 * abs(exact)


def test_low_order_spherical_harmonic_patterns():
    grid = build_grid(16, 24, 16, r_max=1.0)
    y00 = 1.0 / np.sqrt(4.0 * np.pi)
    assert abs(integrate(grid, lambda p, t, f: y00) - y00 * 4.0 * np.pi / 3.0) <= 1e-12
    # Y10 pattern ~ cos(theta); odd under reflection
    assert abs(integrate(grid, lambda p, t, f: np.cos(t))) <= 1e-12
    # Y11 pattern ~ sin(theta) e^{i phi}; killed exactly by the phi average
    assert abs(integrate(grid, lambda p, t, f: np.sin(t) * np.exp(1j * f))) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(
    a=st.floats(-5, 5, allow_nan=False),
    b=st.floats(-5, 5, allow_nan=False),
)
def test_linearity(a, b):
    grid = build_grid(6, 6, 6, r_max=1.5)
    f = lambda p, t, ph: np.exp(-p)
    g = lambda p, t, ph: np.cos(t) ** 2
    combined = integrate(grid, lambda p, t, ph: a * f(p, t, ph) + b * g(p, t, ph))
    separate = a * integrate(grid, f) + b * integrate(grid, g)
    assert abs(combined - separate) <= 1e-12 * max(1.0, abs(separate))


def test_weight_sums_and_open_intervals():
    grid = build_grid(16, 16, 16, r_max=3.0)
    assert abs(grid.azimuthal_weights.sum() - 2.0 * np.pi) <= 1e-12
    assert abs(grid.polar_weights.sum() - 2.0) <= 1e-12
    assert np.all(grid.radial_weights > 0)
    assert np.all((grid.radial_nodes > 0) & (grid.radial_nodes < 3.0))
    # poles are never sampled
    assert np.all((grid.polar_angles > 0) & (grid.polar_angles < np.pi))
    assert np.all((grid.azimuthal_nodes >= 0) & (grid.azimuthal_nodes < 2.0 * np.pi))


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_r": 1},
        {"n_theta": 0},
        {"n_phi": 1},
        {"r_max": 0.0},
        {"r_max": -2.0},
        {"r_max": float("inf")},
        {"r_max": 1e-300},  # the radial measure p^2*w underflows to 0
    ],
)
def test_invalid_configuration_rejected(kwargs):
    base = {"n_r": 8, "n_theta": 8, "n_phi": 8, "r_max": 1.0}
    base.update(kwargs)
    # the message names the input at fault, not a symptom further on
    (name,) = kwargs
    with pytest.raises(ConfigurationError, match=f"^{name} must"):
        build_grid(**base)


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda g: {"radial_weights": -g.radial_weights}, "radial weights must be strictly positive"),
        (lambda g: {"polar_weights": -g.polar_weights}, "polar weights must be strictly positive"),
        (lambda g: {"azimuthal_weights": 0.0 * g.azimuthal_weights},
         "azimuthal weights must be strictly positive"),
        (lambda g: {"r_max": g.radial_nodes[-1]}, "radial nodes must lie strictly inside (0, r_max)"),
        (lambda g: {"polar_angles": g.polar_angles + 1.0}, "polar nodes must lie strictly inside (0, pi)"),
        (lambda g: {"azimuthal_weights": 2.0 * g.azimuthal_weights},
         "azimuthal weights must sum to 2*pi"),
        (lambda g: {"polar_weights": 2.0 * g.polar_weights}, "polar weights must sum to 2"),
    ],
)
def test_grid_constructor_checks(change, message):
    grid = build_grid(4, 4, 4, r_max=1.0)
    with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
        replace(grid, **change(grid))


def test_non_finite_integrand_identifies_node():
    """The error names the global flat node index, also past the first
    radial slab of a large grid."""
    first_slab = BLOCK_NODES  # whole radial rows of 512 * 32 nodes
    for grid, node in ((build_grid(4, 4, 4, r_max=1.0), 3),
                       (build_grid(80, 512, 32), first_slab + 3)):
        r, t, k = np.unravel_index(node, grid.mesh_shape)
        at = (grid.radial_nodes[r], grid.theta_mesh[0, t, 0], grid.azimuthal_nodes[k])

        def bad(p, t, f):
            return np.where((p == at[0]) & (t == at[1]) & (f == at[2]), np.nan, 1.0)

        with pytest.raises(NumericalDomainError, match=f"node {node} "):
            integrate(grid, bad)


def test_integrand_shape_mismatch_rejected():
    grid = build_grid(4, 4, 4, r_max=1.0)
    with pytest.raises(ConfigurationError, match="does not broadcast"):
        integrate(grid, lambda p, t, f: np.ones(3))


def test_refine_doubles_counts():
    grid = build_grid(8, 12, 6, r_max=2.5)
    fine = refine(grid)
    assert (fine.n_r, fine.n_theta, fine.n_phi) == (16, 24, 12)
    assert fine.r_max == 2.5


def test_momentum_validation():
    hs.Momentum(1.0, 0.5, 0.5)  # fine
    with pytest.raises(ConfigurationError):
        hs.Momentum(-1.0, 0.5, 0.5)
    with pytest.raises(ConfigurationError):
        hs.Momentum(1.0, 4.0, 0.5)
    with pytest.raises(ConfigurationError):
        hs.Momentum(1.0, 0.5, 7.0)
