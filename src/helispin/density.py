"""Reduction of a pure one-particle state to a 2x2 spin or helicity matrix.

Tracing out momentum turns the state into the weighted sum over grid nodes
of the outer product of its two-component amplitude with itself. When the
state is stored in the other basis, the amplitudes are first rotated node by
node (algebraically identical to conjugating each outer product with the
rotation, at half the per-node work).

One kernel, :func:`accumulate_outer`, serves every reduction: it sums only
the three unique entries |up|^2, |down|^2 and up*conj(down), in the grid's
one summation order, and fills in entry (1, 0) as the conjugate of (0, 1),
so the matrix is Hermitian by construction. Normalization is re-enforced by
dividing by the on-grid norm so the trace is 1 to machine precision.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import states as states_mod
from .errors import ConfigurationError, ContractViolationError, NumericalDomainError
from .quadrature import QuadratureGrid
from .states import OneParticleState
from .su2 import (
    SPIN,
    HELICITY,
    Basis,
    helicity_components_to_spin,
    spin_components_to_helicity,
)

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
EIGENVALUE_TOL = 1e-10
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
        if np.max(np.abs(m - np.conj(m.T))) > HERMITICITY_TOL:
            raise ContractViolationError("density matrix is not Hermitian")
        tr = m[0, 0].real + m[1, 1].real
        if abs(tr - 1.0) > TRACE_TOL or abs(m[0, 0].imag + m[1, 1].imag) > TRACE_TOL:
            raise ContractViolationError(f"density matrix trace is {tr!r}, not 1")
        hi, lo = eigenvalues_hermitian2(m)
        if lo < -EIGENVALUE_TOL or hi > 1.0 + EIGENVALUE_TOL:
            raise ContractViolationError(
                f"eigenvalues ({hi}, {lo}) outside [0, 1] beyond tolerance"
            )
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    def __getitem__(self, idx):
        return self.entries[idx]


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
    if np.max(np.abs(mat - np.conj(mat.T))) > HERMITICITY_TOL:
        raise ContractViolationError("matrix is not Hermitian within tolerance")
    mean = 0.5 * (mat[0, 0].real + mat[1, 1].real)
    radius = np.hypot(0.5 * (mat[0, 0].real - mat[1, 1].real), abs(mat[0, 1]))
    return float(mean + radius), float(mean - radius)


def accumulate_outer(measure, up: np.ndarray, down: np.ndarray) -> np.ndarray:
    """Weighted sum of outer products, Hermitian by construction.

    Only |up|^2, |down|^2 and up*conj(down) are reduced; entry (1, 0) is the
    conjugate of entry (0, 1). ``measure`` is either per-node weights, each
    entry then being one pairwise np.sum in node order, or a function that
    reduces an entry array (a grid's mesh or product sum, a Monte-Carlo
    tile's moments). Axes of that reduction follow the two matrix axes.
    """
    reduce = measure if callable(measure) else (lambda x: np.sum(measure * x))
    uu = reduce(up.real**2 + up.imag**2)
    dd = reduce(down.real**2 + down.imag**2)
    ud = reduce(up * np.conj(down))
    out = np.empty((2, 2) + np.shape(ud), dtype=np.complex128)
    out[0, 0], out[1, 1] = uu, dd
    out[0, 1], out[1, 0] = ud, np.conj(ud)
    return out


def density_from_samples(
    measure: np.ndarray, up: np.ndarray, down: np.ndarray, basis: Basis
) -> DensityMatrix2:
    """Shared accumulation kernel applied to per-node weights and amplitudes.

    The weights are expected to already include the p^2 factor of the measure
    and to describe a normalized ensemble (unit total probability).
    """
    measure = np.asarray(measure, dtype=np.float64)
    for arr, name in ((measure, "weights"), (up, "up"), (down, "down")):
        bad = ~np.isfinite(arr)
        if np.any(bad):
            i = int(np.argmax(bad))
            raise NumericalDomainError(f"non-finite {name} sample at node {i}")
    raw = accumulate_outer(measure, np.asarray(up), np.asarray(down))
    return DensityMatrix2(entries=raw, basis=basis)


def _reduce(state: OneParticleState, grid: QuadratureGrid, target: Basis) -> DensityMatrix2:
    """Reduce on the grid. Radially separable states take the product path:
    the radial sum factors out of every entry, leaving small angular sums.
    Other states are reduced over the full mesh, one radial slab at a time."""
    if state.product is not None:
        radial = np.abs(states_mod.radial_values(state.product, grid)) ** 2
        up, down = states_mod.angular_values(state.product, grid)
        theta, phi = grid.theta_col, grid.phi_row
        measure = partial(grid.product_sum, radial)
    else:
        up, down = state.components_on(grid)
        theta, phi = grid.theta_mesh, grid.phi_mesh
        measure = grid.mesh_sum
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
