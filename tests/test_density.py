import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helispin as hs
from helispin.density import DensityMatrix2, accumulate_outer
from helispin.errors import ConfigurationError, ContractViolationError, NumericalDomainError
from helispin.states import OneParticleState, ProductForm

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
    w = np.array([1.0])
    rho = accumulate_outer(lambda x: np.sum(w * x), np.array([1.0 + 0j]), np.array([0.0j]))
    np.testing.assert_array_equal(rho, np.array([[1, 0], [0, 0]], dtype=complex))


def test_kernel_classical_mixture():
    inv = 1.0 / np.sqrt(2.0)
    w = np.array([1.0, 1.0])
    rho = accumulate_outer(
        lambda x: np.sum(w * x),
        np.array([inv, 0.0], dtype=complex),
        np.array([0.0, inv], dtype=complex),
    )
    np.testing.assert_allclose(rho, 0.5 * np.eye(2), atol=1e-15)


def test_kernel_matches_brute_force_summation():
    """Independent oracle: plain Python loop over the same nodes."""
    rng = np.random.default_rng(42)
    up = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    down = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    weights = rng.uniform(0.1, 1.0, 5)
    # scale so the ensemble is normalized
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

    rho = accumulate_outer(lambda x: np.sum(weights * x), up, down)
    np.testing.assert_allclose(rho, brute, atol=1e-14)


def test_accumulation_asymmetry_tiny():
    rng = np.random.default_rng(8)
    n = 4096
    up = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    down = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    weights = rng.uniform(0.0, 1.0, n)
    weights /= np.sum(weights * (np.abs(up) ** 2 + np.abs(down) ** 2))
    raw = accumulate_outer(lambda x: np.sum(weights * x), up, down)
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
            np.testing.assert_allclose(direct, sandwiched, atol=1e-14)


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


def test_density_matrix_validation():
    with pytest.raises(ContractViolationError):
        DensityMatrix2(np.array([[0.5, 0.2], [0.3, 0.5]]), hs.SPIN)  # not Hermitian
    with pytest.raises(ContractViolationError):
        DensityMatrix2(np.array([[0.8, 0.0], [0.0, 0.8]]), hs.SPIN)  # trace 1.6
    with pytest.raises(ContractViolationError):
        DensityMatrix2(np.array([[1.5, 0.0], [0.0, -0.5]]), hs.SPIN)  # not PSD


@pytest.mark.parametrize(
    "entries, basis, error, message",
    [
        (np.eye(3) / 3.0, hs.SPIN, ConfigurationError, "expected a 2x2 matrix, got shape (3, 3)"),
        ([[0.5, np.nan], [np.nan, 0.5]], hs.SPIN, NumericalDomainError,
         "density matrix entries must be finite"),
        (np.eye(2) / 2.0, "chirality", ConfigurationError, "unknown basis tag 'chirality'"),
    ],
)
def test_density_matrix_constructor_checks(entries, basis, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        DensityMatrix2(entries, basis)


@pytest.mark.parametrize(
    "matrix, error, message",
    [
        (np.eye(3), ContractViolationError, "expected a 2x2 matrix, got shape (3, 3)"),
        ([[1.0, np.inf], [np.inf, 0.0]], NumericalDomainError, "matrix entries must be finite"),
    ],
)
def test_eigenvalue_input_checks(matrix, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        hs.eigenvalues_hermitian2(matrix)


def test_convergence_doubling_below_1e10(default_grid):
    """At the default grid, doubling the whole grid moves no entry of the
    Gaussian-family reduction by more than 1e-10."""
    base = default_grid
    doubled = hs.refine(base)
    state = hs.gaussian_spin_up(1.0)
    rho_base = hs.reduced_helicity_density(hs.normalize(state, base), base).entries
    rho_fine = hs.reduced_helicity_density(hs.normalize(state, doubled), doubled).entries
    assert np.max(np.abs(rho_base - rho_fine)) < 1e-10


def test_mesh_and_product_paths_agree(small_grid):
    """The product and mesh moments give the same reduction, on one radial
    slab and on many, and both agree with the node-by-node rotation of
    ``with_basis``; the squared norm of the analytically normalized state is
    1, and integrating |psi|^2 node by node gives the mesh path's norm."""
    many_slabs = hs.build_grid(80, 512, 32)
    assert len(list(small_grid.radial_slabs())) == 1
    assert len(list(many_slabs.radial_slabs())) > 1
    for grid in (small_grid, many_slabs):
        bare = hs.anisotropic_spin_up(1.0, 0.8)
        stripped = OneParticleState(
            basis=bare.basis,
            amplitude=lambda p, theta, phi, pf=bare.amplitude: pf(p, theta, phi),
            label="no product form",
        )
        for state in (bare, stripped):
            assert abs(hs.norm_squared(state, grid) - 1.0) <= 1e-12
        product_state = hs.normalize(bare, grid)
        fast = hs.reduced_helicity_density(product_state, grid).entries
        generic = hs.reduced_helicity_density(hs.normalize(stripped, grid), grid).entries
        node_by_node = hs.reduced_helicity_density(
            hs.with_basis(product_state, hs.HELICITY), grid
        ).entries
        np.testing.assert_allclose(fast, generic, atol=1e-14)
        np.testing.assert_allclose(fast, node_by_node, atol=1e-14)

        def density(p, theta, phi):
            up, down = stripped.amplitude(p, theta, phi)
            return np.abs(up) ** 2 + np.abs(down) ** 2

        assert abs(hs.integrate(grid, density) - hs.norm_squared(stripped, grid)) <= 1e-14


# Isotropy as a property: any radial profile, any winding. Profiles are
# Gaussian mixtures or shells on the small grid's (0, 8); a shell is at least
# 0.75 wide, wider than the largest gap between its 24 radial nodes.
_gaussian_mixtures = st.lists(
    st.tuples(st.floats(0.1, 2.0), st.floats(0.0, 4.0), st.floats(0.2, 1.5)),
    min_size=1, max_size=4,
).map(lambda terms: lambda p: sum(
    w * np.exp(-((np.asarray(p) - c) ** 2) / (2.0 * s * s)) for w, c, s in terms
))
_shells = st.tuples(st.floats(0.0, 4.0), st.floats(0.75, 3.0)).map(
    lambda shell: lambda p: ((p > shell[0]) & (p < shell[0] + shell[1])).astype(np.float64)
)
_radial_profiles = st.one_of(_gaussian_mixtures, _shells)
_isotropy = settings(derandomize=True, max_examples=40, deadline=None)


@_isotropy
@given(profile=_radial_profiles, winding=st.integers(-4, 4))
def test_isotropic_spin_up_helicity_density_property(small_grid, profile, winding):
    """Product path: every isotropic spin-up state reduces to the -pi/8
    helicity matrix and 0.4917... bits."""
    state = hs.theta_independent_spin_up(profile, azimuthal_winding=winding)
    assert state.product is not None
    rho = hs.reduced_helicity_density(hs.normalize(state, small_grid), small_grid)
    np.testing.assert_allclose(rho.entries, ORACLE_HELICITY, rtol=0.0, atol=1e-12)
    bits = hs.von_neumann_entropy(rho).entropy_bits
    assert abs(bits - hs.oracle_spin_up_helicity_entropy()) <= 1e-12


@_isotropy
@given(profile=_radial_profiles)
def test_isotropic_helicity_up_spin_density_property(small_grid, profile):
    """Mesh path: a bare helicity-up evaluator with any radial profile
    reduces to I/2 in the spin basis, 1 bit."""

    def amp(p, theta, phi):
        radial = profile(p) * np.ones(np.broadcast_shapes(np.shape(theta), np.shape(phi)))
        return radial, np.zeros_like(radial)

    state = OneParticleState(basis=hs.HELICITY, amplitude=amp, label="helicity up")
    rho = hs.reduced_spin_density(hs.normalize(state, small_grid), small_grid)
    np.testing.assert_allclose(rho.entries, 0.5 * np.eye(2), rtol=0.0, atol=1e-12)
    assert abs(hs.von_neumann_entropy(rho).entropy_bits - 1.0) <= 1e-12


@_isotropy
@given(profile=_radial_profiles, beta=st.floats(0.0, np.pi), gamma=st.floats(0.0, 2.0 * np.pi),
       winding=st.integers(-4, 4))
def test_tilted_spin_density_property(small_grid, profile, beta, gamma, winding):
    """Product path: a spin chi along (beta, gamma) with any isotropic profile
    reduces to chi chi^dagger in the spin basis and, for the helicity basis
    of D = exp(-i phi sigma_z/2) exp(-i theta sigma_y/2), to
    [[1/2, -(pi/8) cos beta], [-(pi/8) cos beta, 1/2]]. The azimuthal average
    removes the sign of D's phi phase, so this does not pin that sign."""
    chi = np.array([np.cos(beta / 2.0), np.exp(1j * gamma) * np.sin(beta / 2.0)])

    def angular(theta, phi):
        wound = np.exp(1j * winding * np.asarray(phi)) * np.ones(np.shape(theta))
        return chi[0] * wound, chi[1] * wound

    state = hs.normalize(OneParticleState(hs.SPIN, ProductForm(profile, angular)), small_grid)
    off = -PI8 * np.cos(beta)
    rho_h = hs.reduced_helicity_density(state, small_grid).entries
    np.testing.assert_allclose(rho_h, [[0.5, off], [off, 0.5]], rtol=0.0, atol=1e-12)
    rho_s = hs.reduced_spin_density(state, small_grid).entries
    np.testing.assert_allclose(rho_s, np.outer(chi, chi.conj()), rtol=0.0, atol=1e-12)


@_isotropy
@given(a=st.tuples(*[st.floats(-0.55, 0.55)] * 3).map(np.array))
def test_helicity_dipole_spin_density_property(small_grid, a):
    """Mesh path: helicity up with |psi|^2 = exp(-p^2) (1 + a.n), n the
    momentum direction and |a| < 1, reduces to (I + (a/3).sigma)/2 in the
    spin basis: helicity up along n is the spin state of projector
    (I + n.sigma)/2, and the average of n (1 + a.n) over the sphere is a/3."""

    def amp(p, theta, phi):
        n_dot_a = (a[0] * np.sin(theta) * np.cos(phi) + a[1] * np.sin(theta) * np.sin(phi)
                   + a[2] * np.cos(theta))
        up = np.sqrt(np.exp(-(np.asarray(p) ** 2)) * (1.0 + n_dot_a))
        return up, np.zeros_like(up)

    state = hs.normalize(OneParticleState(hs.HELICITY, amp, "dipole"), small_grid)
    expected = 0.5 * np.array([[1.0 + a[2] / 3.0, (a[0] - 1j * a[1]) / 3.0],
                               [(a[0] + 1j * a[1]) / 3.0, 1.0 - a[2] / 3.0]])
    rho_s = hs.reduced_spin_density(state, small_grid).entries
    np.testing.assert_allclose(rho_s, expected, rtol=0.0, atol=1e-12)
