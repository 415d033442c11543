"""Reduction of a pure one-particle state to a 2x2 spin or helicity matrix,
and the matrix's spectrum and binary von Neumann entropy.

Tracing out momentum turns the state into the weighted sum over grid nodes
of a a^dagger, a its two-component amplitude. The nodes and the sum come
from :func:`helispin.states.on_grid`, which owns the layout of the state on
the grid. When the state is stored in the other basis, the amplitudes are
first rotated node by node (algebraically identical to conjugating each
a a^dagger with the rotation, at half the per-node work).

One kernel, :func:`accumulate_outer`, serves every reduction: it sums only
the three unique entries |up|^2, |down|^2 and up*conj(down), in the grid's
one summation order, and fills in entry (1, 0) as the conjugate of (0, 1),
so the matrix is Hermitian by construction. Normalization is re-enforced by
dividing by the on-grid norm so the trace is 1 to machine precision.

The spectrum comes from one closed form, :func:`eigenvalues_hermitian2`, so the
pi/8-type matrices evaluate exactly; entropy is in bits, with 0*log(0) = 0.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ContractViolationError, NumericalDomainError
from .quadrature import QuadratureGrid
from .states import OneParticleState, on_grid
from .su2 import (
    SPIN,
    HELICITY,
    Basis,
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
        if self.basis not in (SPIN, HELICITY):
            raise ConfigurationError(f"unknown basis tag {self.basis!r}")
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


def accumulate_outer(measure, up: np.ndarray, down: np.ndarray) -> np.ndarray:
    """Weighted sum of the matrices a a^dagger, a = (up, down), Hermitian by
    construction.

    Only |up|^2, |down|^2 and up*conj(down) are reduced; entry (1, 0) is the
    conjugate of entry (0, 1). ``measure`` is a function that reduces an
    entry array (the measure of :func:`helispin.states.on_grid`, a Monte-Carlo
    tile's moments). Axes of that reduction follow the two matrix axes.
    """
    uu = measure(up.real**2 + up.imag**2)
    dd = measure(down.real**2 + down.imag**2)
    ud = measure(up * np.conj(down))
    out = np.empty((2, 2) + np.shape(ud), dtype=np.complex128)
    out[0, 0], out[1, 1] = uu, dd
    out[0, 1], out[1, 0] = ud, np.conj(ud)
    return out


def _reduce(state: OneParticleState, grid: QuadratureGrid, target: Basis) -> DensityMatrix2:
    """Reduce on the grid in the layout :func:`on_grid` picks for the state."""
    up, down, theta, phi, measure = on_grid(state, grid)
    if state.basis != target:
        transform = (
            spin_components_to_helicity
            if target == HELICITY
            else helicity_components_to_spin
        )
        up, down = transform(up, down, theta, phi)
    raw = accumulate_outer(measure, up, down)
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

    Spin-tagged states reduce directly; helicity-tagged ones are rotated to
    the spin basis at each node first.
    """
    return _reduce(state, grid, SPIN)


def reduced_helicity_density(state: OneParticleState, grid: QuadratureGrid) -> DensityMatrix2:
    """Trace out momentum, reporting the 2x2 matrix in the helicity basis."""
    return _reduce(state, grid, HELICITY)
