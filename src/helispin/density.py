"""Reduction of a pure one-particle state to a 2x2 spin or helicity matrix,
and the matrix's spectrum and binary von Neumann entropy.

Tracing out momentum is the weighted sum over grid nodes of a a^dagger, a the
two-component amplitude. The spin-helicity rotation D depends on the
direction only, so :func:`helispin.states.on_grid` first sums over p into a
2x2 moment matrix M per direction, and a reduction in the other basis
conjugates each M (D^dagger M D into helicity, D M D^dagger into spin) before
the angular sum. Both fill one off-diagonal entry as the conjugate of the
other, so the matrix is Hermitian by construction; dividing by the on-grid
norm makes its trace 1 to machine precision.

The spectrum comes from one closed form, :func:`eigenvalues_hermitian2`, so the
pi/8-type matrices evaluate exactly; entropy is in bits, with 0*log(0) = 0.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ContractViolationError, NumericalDomainError
from .quadrature import QuadratureGrid
from .states import OneParticleState, accumulate_outer, on_grid  # noqa: F401  (re-exported)
from .su2 import (
    SPIN,
    HELICITY,
    Basis,
    check_basis,
    helicity_components_to_spin,
    spin_components_to_helicity,
)

#: Roundoff a 2x2 matrix may carry: in its Hermiticity, its trace, its
#: eigenvalue range and sum, and as a negative eigenvalue the entropy clamps.
MATRIX_TOL = 1e-10
#: Largest gap of the on-grid squared norm from 1: grid accuracy, not roundoff.
NORM_TOL = 1e-6


@dataclass(frozen=True)
class DensityMatrix2:
    """2x2 Hermitian, unit-trace, positive-semidefinite matrix with a basis tag."""

    entries: np.ndarray
    basis: Basis

    def __post_init__(self) -> None:
        m = np.array(self.entries, dtype=np.complex128)  # owned copy
        if m.shape != (2, 2):
            raise ConfigurationError(f"expected a 2x2 matrix, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise NumericalDomainError("density matrix entries must be finite")
        check_basis(self.basis)
        hi, lo = eigenvalues_hermitian2(m)  # checks Hermiticity
        tr = m[0, 0].real + m[1, 1].real
        if abs(tr - 1.0) > MATRIX_TOL or abs(m[0, 0].imag + m[1, 1].imag) > MATRIX_TOL:
            raise ContractViolationError(f"density matrix trace is {tr!r}, not 1")
        if lo < -MATRIX_TOL or hi > 1.0 + MATRIX_TOL:
            raise ContractViolationError(
                f"eigenvalues ({hi}, {lo}) outside [0, 1] beyond tolerance"
            )
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)


def _as_matrix(m) -> np.ndarray:
    if isinstance(m, DensityMatrix2):
        return m.entries
    out = np.asarray(m, dtype=np.complex128)
    if out.shape != (2, 2):
        raise ContractViolationError(f"expected a 2x2 matrix, got shape {out.shape}")
    if not np.all(np.isfinite(out)):
        raise NumericalDomainError("matrix entries must be finite")
    return out


def eigenvalues_hermitian2(m) -> tuple[float, float]:
    """Eigenvalues of a Hermitian 2x2 matrix, descending, via the quadratic
    formula (trace/2 plus-minus the distance of the diagonal midpoint to the
    spectrum edge).

    Accepts a DensityMatrix2 or any 2x2 array Hermitian to 1e-10.
    """
    mat = _as_matrix(m)
    if np.max(np.abs(mat - np.conj(mat.T))) > MATRIX_TOL:
        raise ContractViolationError("matrix is not Hermitian within tolerance")
    mean = 0.5 * (mat[0, 0].real + mat[1, 1].real)
    radius = np.hypot(0.5 * (mat[0, 0].real - mat[1, 1].real), abs(mat[0, 1]))
    return float(mean + radius), float(mean - radius)


@dataclass(frozen=True)
class EntropyReport:
    """Descending eigenvalue pair and the entropy they generate, in bits."""

    eigenvalues: tuple[float, float]
    entropy_bits: float


def von_neumann_entropy(m) -> EntropyReport:
    """Binary von Neumann entropy of a 2x2 density matrix. Eigenvalues in
    [-MATRIX_TOL, 0) are roundoff and clamped to zero; more negative ones
    raise, since they indicate an invalid input."""
    hi, lo = eigenvalues_hermitian2(m)
    if lo < -MATRIX_TOL:
        raise NumericalDomainError(
            f"eigenvalue {lo} is negative beyond tolerance; not a density matrix"
        )
    if abs(hi + lo - 1.0) > MATRIX_TOL:
        raise ContractViolationError(f"eigenvalues sum to {hi + lo}, not 1")
    eigs = (min(max(hi, 0.0), 1.0), min(max(lo, 0.0), 1.0))
    s = -sum(v * np.log2(v) for v in eigs if v > 0.0) + 0.0  # +0.0 avoids -0.0
    return EntropyReport(eigenvalues=eigs, entropy_bits=float(s))


def _reduce(state: OneParticleState, grid: QuadratureGrid, target: Basis) -> DensityMatrix2:
    """The angular sum of the state's moments (:func:`on_grid`), conjugated
    into ``target`` per direction if the state is stored in the other basis,
    over its trace; filled in Hermitian from the diagonal and entry (1, 0)."""
    moments = on_grid(state, grid)
    uu, dd, du = moments[0, 0].real, moments[1, 1].real, moments[1, 0]
    if state.basis != target:
        pair = (spin_components_to_helicity, helicity_components_to_spin)
        to_target, to_source = pair if target == HELICITY else pair[::-1]
        theta, phi = grid.theta_mesh[0], grid.phi_mesh[0]
        # h = D e_0, the target's first basis spinor in the state's basis: column 0
        # of D^dagger M D is D^dagger (M h) (D M D^dagger alike); the trace is M's
        h_up, h_down = to_source(1.0, 0.0, theta, phi)
        z00, du = to_target(moments[0, 0] * h_up + moments[0, 1] * h_down,
                            moments[1, 0] * h_up + moments[1, 1] * h_down, theta, phi)
        uu, dd = z00.real, uu + dd - z00.real
    s_uu, s_dd, s_du = grid.angular_sum(uu), grid.angular_sum(dd), grid.angular_sum(du)
    raw = np.array([[s_uu, np.conj(s_du)], [s_du, s_dd]])
    norm = raw[0, 0].real + raw[1, 1].real
    if abs(norm - 1.0) > NORM_TOL:
        raise ContractViolationError(
            f"state must be normalized on the grid before reduction "
            f"(squared norm {norm:.6g})"
        )
    # re-enforce on-grid normalization so quadrature error never leaks into
    # the trace
    return DensityMatrix2(entries=raw / norm, basis=target)


def reduced_spin_density(state: OneParticleState, grid: QuadratureGrid) -> DensityMatrix2:
    """Trace out momentum, reporting the 2x2 matrix in the spin basis.

    Spin-tagged states reduce directly; the moments of helicity-tagged ones
    are rotated to the spin basis direction by direction first.
    """
    return _reduce(state, grid, SPIN)


def reduced_helicity_density(state: OneParticleState, grid: QuadratureGrid) -> DensityMatrix2:
    """Trace out momentum, reporting the 2x2 matrix in the helicity basis."""
    return _reduce(state, grid, HELICITY)
