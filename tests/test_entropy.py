import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helispin as hs
from helispin.density import eigenvalues_hermitian2, von_neumann_entropy
from helispin.errors import ContractViolationError, NumericalDomainError

from conftest import random_density_matrix

PI8 = np.pi / 8.0
#: Binary entropy of the eigenvalue pair 1/2 +- pi/8, frozen from a 50-digit
#: independent evaluation (mpmath) before implementation.
HALF_PM_PI8_ENTROPY = 0.4917206457993146


def test_eigenvalues_of_offdiagonal_pi8():
    hi, lo = eigenvalues_hermitian2(np.array([[0.5, -PI8], [-PI8, 0.5]]))
    assert abs(hi - (0.5 + PI8)) <= 1e-15
    assert abs(lo - (0.5 - PI8)) <= 1e-15


def test_eigenvalues_diagonal_descending():
    hi, lo = eigenvalues_hermitian2(np.array([[0.25, 0.0], [0.0, 0.75]]))
    assert (hi, lo) == (0.75, 0.25)


def test_eigenvalues_imaginary_offdiagonal():
    # hand characteristic polynomial: 1/2 +- |i/4|
    hi, lo = eigenvalues_hermitian2(np.array([[0.5, 0.25j], [-0.25j, 0.5]]))
    assert abs(hi - 0.75) <= 1e-15
    assert abs(lo - 0.25) <= 1e-15


def test_non_hermitian_rejected():
    with pytest.raises(ContractViolationError):
        eigenvalues_hermitian2(np.array([[0.5, 0.3], [0.1, 0.5]]))


def test_entropy_maximally_mixed_is_one_bit():
    report = von_neumann_entropy(0.5 * np.eye(2))
    assert report.entropy_bits == 1.0
    assert report.eigenvalues == (0.5, 0.5)


def test_entropy_pure_state_is_zero():
    report = von_neumann_entropy(np.diag([1.0, 0.0]))
    assert report.entropy_bits == 0.0


def test_entropy_of_pi8_matrix_matches_high_precision():
    report = von_neumann_entropy(np.array([[0.5, -PI8], [-PI8, 0.5]]))
    assert abs(report.entropy_bits - HALF_PM_PI8_ENTROPY) <= 1e-12
    assert abs(report.entropy_bits - HALF_PM_PI8_ENTROPY) <= 1e-6  # stated tolerance


def test_frozen_constant_against_mpmath():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    l1 = mp.mpf(1) / 2 + mp.pi / 8
    l2 = mp.mpf(1) / 2 - mp.pi / 8
    s = -(l1 * mp.log(l1, 2) + l2 * mp.log(l2, 2))
    assert abs(float(s) - HALF_PM_PI8_ENTROPY) <= 1e-15


def test_small_negative_eigenvalue_clamped():
    eps = 5e-11
    report = von_neumann_entropy(np.diag([1.0 + eps, -eps]))
    assert report.eigenvalues[1] == 0.0
    assert report.entropy_bits >= 0.0


def test_large_negative_eigenvalue_rejected():
    with pytest.raises(NumericalDomainError):
        von_neumann_entropy(np.diag([1.0 + 1e-9, -1e-9]))


def test_eigenvalue_sum_must_be_one():
    with pytest.raises(ContractViolationError):
        von_neumann_entropy(np.diag([0.7, 0.7]))


def test_unitary_invariance():
    rng = np.random.default_rng(314)
    m = np.array([[0.5, -PI8], [-PI8, 0.5]], dtype=np.complex128)
    base = von_neumann_entropy(m).entropy_bits
    for _ in range(100):
        u = hs.wigner_rotation(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi))
        rotated = u @ m @ u.conj().T
        assert abs(von_neumann_entropy(rotated).entropy_bits - base) <= 1e-12


def test_concavity_spot_checks():
    rng = np.random.default_rng(2718)
    for _ in range(25):
        m1 = random_density_matrix(rng)
        m2 = random_density_matrix(rng)
        s1 = von_neumann_entropy(m1).entropy_bits
        s2 = von_neumann_entropy(m2).entropy_bits
        for t in (0.25, 0.5, 0.75):
            mixed = von_neumann_entropy(t * m1 + (1 - t) * m2).entropy_bits
            assert mixed >= t * s1 + (1 - t) * s2 - 1e-12


def test_range_and_maximum_characterization():
    rng = np.random.default_rng(1618)
    for _ in range(200):
        m = random_density_matrix(rng)
        report = von_neumann_entropy(m)
        assert 0.0 <= report.entropy_bits <= 1.0
        if report.entropy_bits == 1.0:
            assert abs(report.eigenvalues[0] - 0.5) <= 1e-10
            assert abs(report.eigenvalues[1] - 0.5) <= 1e-10
        if abs(report.eigenvalues[0] - 0.5) <= 1e-12:
            assert report.entropy_bits >= 1.0 - 1e-10


def test_accepts_density_matrix_wrapper(default_grid):
    state = hs.normalize(hs.gaussian_helicity_up(1.0), default_grid)
    rho = hs.reduced_spin_density(state, default_grid)
    report = von_neumann_entropy(rho)
    assert abs(report.entropy_bits - 1.0) <= 1e-10


@settings(max_examples=100, deadline=None)
@given(
    lam=st.floats(0.0, 1.0, allow_nan=False),
    theta=st.floats(0.0, np.pi, allow_nan=False),
    phi=st.floats(0.0, 2 * np.pi, exclude_max=True, allow_nan=False),
)
def test_entropy_spectral_property(lam, theta, phi):
    u = hs.wigner_rotation(theta, phi)
    m = u @ np.diag([lam, 1.0 - lam]).astype(complex) @ u.conj().T
    report = von_neumann_entropy(m)
    assert abs(sum(report.eigenvalues) - 1.0) <= 1e-10
    assert 0.0 <= report.entropy_bits <= 1.0
    expected = 0.0
    for v in (lam, 1.0 - lam):
        if 0.0 < v < 1.0:
            expected -= v * np.log2(v)
    assert abs(report.entropy_bits - expected) <= 1e-9
