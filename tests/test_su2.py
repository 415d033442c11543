import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helispin import (
    AmplitudePair,
    ConfigurationError,
    ContractViolationError,
    HELICITY,
    Momentum,
    SPIN,
    helicity_to_spin,
    spin_to_helicity,
    wigner_rotation,
)

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def test_identity_rotation():
    np.testing.assert_array_equal(wigner_rotation(0.0, 0.0), np.eye(2))


def test_half_turn_rotation():
    expected = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=np.complex128)
    np.testing.assert_allclose(wigner_rotation(np.pi, 0.0), expected, atol=1e-15)


def test_quarter_turn_with_azimuth():
    e_m = np.exp(-1j * np.pi / 4.0)
    e_p = np.exp(1j * np.pi / 4.0)
    expected = np.array(
        [[e_m * INV_SQRT2, -e_m * INV_SQRT2], [e_p * INV_SQRT2, e_p * INV_SQRT2]]
    )
    np.testing.assert_allclose(wigner_rotation(np.pi / 2.0, np.pi / 2.0), expected, atol=1e-15)


def test_unitary_unit_determinant_bulk():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        theta = rng.uniform(0.0, np.pi)
        phi = rng.uniform(0.0, 2.0 * np.pi)
        d = wigner_rotation(theta, phi)
        np.testing.assert_allclose(d.conj().T @ d, np.eye(2), atol=1e-12)
        assert abs(np.linalg.det(d) - 1.0) <= 1e-12


def test_angle_range_enforced():
    with pytest.raises(ConfigurationError):
        wigner_rotation(-0.1, 0.0)
    with pytest.raises(ConfigurationError):
        wigner_rotation(0.5, 2.0 * np.pi)


@pytest.mark.parametrize(
    "up, down, basis, message",
    [
        (1.0, 0.0, "chirality", "unknown basis tag 'chirality'"),
        (1.0, complex(0.0, np.inf), SPIN, "amplitude components must be finite"),
    ],
)
def test_amplitude_pair_constructor_checks(up, down, basis, message):
    with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
        AmplitudePair(up, down, basis)


def test_poles_evaluate_literally():
    # the azimuthal phase at the poles is conventional but well-defined
    top = wigner_rotation(0.0, 1.0)
    assert abs(abs(top[0, 0]) - 1.0) <= 1e-15
    bottom = wigner_rotation(np.pi, 1.0)
    assert abs(top[0, 1]) <= 1e-15 and abs(bottom[0, 0]) <= 1e-12


def test_spin_to_helicity_identity_direction():
    a = AmplitudePair(0.3 + 0.1j, -0.2j, SPIN)
    out = spin_to_helicity(a, Momentum(1.0, 0.0, 0.0))
    assert out.basis == HELICITY
    assert abs(out.up - a.up) <= 1e-15 and abs(out.down - a.down) <= 1e-15


def test_spin_to_helicity_equator_up():
    # hand-inverted rotation at theta=pi/2, phi=0
    out = spin_to_helicity(AmplitudePair(1.0, 0.0, SPIN), Momentum(1.0, np.pi / 2.0, 0.0))
    assert abs(out.up - INV_SQRT2) <= 1e-15
    assert abs(out.down + INV_SQRT2) <= 1e-15


def test_spin_to_helicity_equator_down():
    out = spin_to_helicity(AmplitudePair(0.0, 1.0, SPIN), Momentum(1.0, np.pi / 2.0, 0.0))
    assert abs(out.up - INV_SQRT2) <= 1e-15
    assert abs(out.down - INV_SQRT2) <= 1e-15


def test_helicity_to_spin_equator():
    out = helicity_to_spin(AmplitudePair(1.0, 0.0, HELICITY), Momentum(1.0, np.pi / 2.0, 0.0))
    assert abs(out.up - INV_SQRT2) <= 1e-15
    assert abs(out.down - INV_SQRT2) <= 1e-15


def test_helicity_to_spin_identity_direction():
    out = helicity_to_spin(AmplitudePair(1.0, 0.0, HELICITY), Momentum(1.0, 0.0, 0.0))
    assert out.up == 1.0 and out.down == 0.0


def test_round_trip_bulk():
    rng = np.random.default_rng(99)
    for _ in range(100):
        a = AmplitudePair(
            complex(rng.standard_normal(), rng.standard_normal()),
            complex(rng.standard_normal(), rng.standard_normal()),
            SPIN,
        )
        direction = Momentum(1.0, rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi))
        back = helicity_to_spin(spin_to_helicity(a, direction), direction)
        assert abs(back.up - a.up) <= 1e-14
        assert abs(back.down - a.down) <= 1e-14


def test_wrong_basis_tag_rejected():
    with pytest.raises(ContractViolationError):
        spin_to_helicity(AmplitudePair(1.0, 0.0, HELICITY), Momentum(1.0, 0.1, 0.1))
    with pytest.raises(ContractViolationError):
        helicity_to_spin(AmplitudePair(1.0, 0.0, SPIN), Momentum(1.0, 0.1, 0.1))


def test_rotation_columns_are_helicity_eigenspinors():
    """The rotated basis spinors point along/against the momentum direction."""
    rng = np.random.default_rng(5)
    for _ in range(50):
        theta = rng.uniform(0.0, np.pi)
        phi = rng.uniform(0.0, 2.0 * np.pi)
        direction = Momentum(1.0, theta, phi)
        n = np.array(
            [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)]
        )
        pauli = [
            np.array([[0, 1], [1, 0]], dtype=np.complex128),
            np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
            np.array([[1, 0], [0, -1]], dtype=np.complex128),
        ]
        half_n_dot_sigma = 0.5 * sum(c * s for c, s in zip(n, pauli))
        for helicity_sign, pair in ((0.5, (1.0, 0.0)), (-0.5, (0.0, 1.0))):
            spinor = helicity_to_spin(AmplitudePair(*pair, HELICITY), direction)
            chi = np.array([spinor.up, spinor.down])
            np.testing.assert_allclose(
                half_n_dot_sigma @ chi, helicity_sign * chi, atol=1e-12
            )


@settings(max_examples=100, deadline=None)
@given(
    theta=st.floats(0.0, np.pi, allow_nan=False),
    phi=st.floats(0.0, 2.0 * np.pi, exclude_max=True, allow_nan=False),
    re_up=st.floats(-3, 3),
    im_up=st.floats(-3, 3),
    re_dn=st.floats(-3, 3),
    im_dn=st.floats(-3, 3),
)
def test_round_trip_property(theta, phi, re_up, im_up, re_dn, im_dn):
    a = AmplitudePair(complex(re_up, im_up), complex(re_dn, im_dn), SPIN)
    direction = Momentum(1.0, theta, phi)
    back = helicity_to_spin(spin_to_helicity(a, direction), direction)
    scale = max(1.0, abs(a.up), abs(a.down))
    assert abs(back.up - a.up) <= 1e-14 * scale
    assert abs(back.down - a.down) <= 1e-14 * scale
