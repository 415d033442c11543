"""Deterministic spherical quadrature over momentum space.

Realizes the flat measure d^3p = p^2 dp sin(theta) dtheta dphi as a
tensor-product rule: Gauss-Legendre nodes in p on (0, r_max) and in theta on
(0, pi) with weights scaled by sin(theta), uniform midpoint nodes in phi with
weight 2*pi/n_phi. Gauss-Legendre nodes are strictly interior, so the poles
theta = 0, pi (where the azimuth of the frame rotation is conventional) and
p = 0 are never sampled.

Every weighted sum over the grid has one order, written once here: azimuth
first, then polar, then radial, each axis with numpy's pairwise summation.
Mesh sums run one radial slab (as many radial rows as fit in BLOCK_NODES
nodes, at least one) at a time and add slab partials in slab order, so
temporaries stay bounded and the slab layout, which depends only on the grid
shape, fixes the bits run to run.

Functions of momentum (amplitudes, integrands) are evaluated on the broadcast
mesh axes; each evaluation passes one check, ``QuadratureGrid._checked_mesh``.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator

import numpy as np

from .errors import ConfigurationError, NumericalDomainError

#: Default rule sizes. Every angular integrand in scope is analytic in theta
#: (products of sin and cos), so the polar rule converges geometrically: the
#: helicity off-diagonal -pi/8, the slowest of them, is off by 3e-11 at
#: n_theta=8 and at roundoff from n_theta=12 on; 32 leaves a factor of two.
DEFAULT_N_R = 64
DEFAULT_N_THETA = 32
DEFAULT_N_PHI = 32

#: Truncation radius as a multiple of a state's characteristic momentum
#: width; the Gaussian tail beyond 8*tau carries < 1e-27 of the norm.
R_MAX_WIDTHS = 8.0

#: Node budget of one radial slab in mesh sums and ``integrate``.
BLOCK_NODES = 1 << 20


@dataclass(frozen=True)
class Momentum:
    """A momentum-space point in spherical form."""

    p: float
    theta: float
    phi: float

    def __post_init__(self) -> None:
        if not (self.p >= 0.0):
            raise ConfigurationError(f"momentum magnitude must be >= 0, got {self.p}")
        if not (0.0 <= self.theta <= np.pi):
            raise ConfigurationError(f"theta must lie in [0, pi], got {self.theta}")
        if not (0.0 <= self.phi < 2.0 * np.pi):
            raise ConfigurationError(f"phi must lie in [0, 2*pi), got {self.phi}")


@dataclass(frozen=True, eq=False)
class QuadratureGrid:
    """Tensor-product nodes and weights; immutable and shareable.

    ``eq=False`` keeps identity hashing so grids can key per-state sample
    caches via weak references.
    """

    radial_nodes: np.ndarray
    radial_weights: np.ndarray
    polar_angles: np.ndarray
    polar_weights: np.ndarray
    azimuthal_nodes: np.ndarray
    azimuthal_weights: np.ndarray
    r_max: float

    def __post_init__(self) -> None:
        for w, name in (
            (self.radial_weights, "radial"),
            (self.polar_weights, "polar"),
            (self.azimuthal_weights, "azimuthal"),
        ):
            if not np.all(w > 0.0):
                raise ConfigurationError(f"{name} weights must be strictly positive")
        if not np.all((self.radial_nodes > 0.0) & (self.radial_nodes < self.r_max)):
            raise ConfigurationError("radial nodes must lie strictly inside (0, r_max)")
        if not np.all((self.polar_angles > 0.0) & (self.polar_angles < np.pi)):
            raise ConfigurationError("polar nodes must lie strictly inside (0, pi)")
        if abs(self.azimuthal_weights.sum() - 2.0 * np.pi) > 1e-12:
            raise ConfigurationError("azimuthal weights must sum to 2*pi")
        if abs(self.polar_weights.sum() - 2.0) > 1e-12:
            raise ConfigurationError("polar weights must sum to 2")

    @property
    def n_r(self) -> int:
        return self.radial_nodes.size

    @property
    def n_theta(self) -> int:
        return self.polar_angles.size

    @property
    def n_phi(self) -> int:
        return self.azimuthal_nodes.size

    @property
    def n_nodes(self) -> int:
        return self.n_r * self.n_theta * self.n_phi

    @cached_property
    def mesh_shape(self) -> tuple[int, int, int]:
        return (self.n_r, self.n_theta, self.n_phi)

    @cached_property
    def p_mesh(self) -> np.ndarray:
        """Radial nodes shaped (n_r, 1, 1) for broadcast evaluation."""
        return self.radial_nodes[:, None, None]

    @cached_property
    def theta_mesh(self) -> np.ndarray:
        """Polar angles shaped (1, n_theta, 1)."""
        return self.polar_angles[None, :, None]

    @cached_property
    def phi_mesh(self) -> np.ndarray:
        """Azimuthal nodes shaped (1, 1, n_phi)."""
        return self.azimuthal_nodes[None, None, :]

    @cached_property
    def radial_measure(self) -> np.ndarray:
        """w_r * p^2, the radial factor of the volume measure."""
        return self.radial_weights * self.radial_nodes**2

    def radial_slabs(self) -> Iterator[slice]:
        """Radial index ranges sized so a slab holds <= BLOCK_NODES nodes.

        The slab layout depends only on the grid shape, so reductions that
        sum slab partials in order are reproducible bit for bit.
        """
        per_row = self.n_theta * self.n_phi
        rows = max(1, BLOCK_NODES // per_row)
        for start in range(0, self.n_r, rows):
            yield slice(start, min(start + rows, self.n_r))

    def _checked_mesh(self, values, what: str, rows: slice = slice(None)) -> np.ndarray:
        """``values`` evaluated on the radial ``rows`` of the mesh, as given,
        once they broadcast to those rows and are finite; otherwise an error
        naming the first bad node by global flat index and (p, theta, phi).
        Finiteness is tested on the values as evaluated, at their own size."""
        start, stop, _ = rows.indices(self.n_r)
        shape = (stop - start, self.n_theta, self.n_phi)
        values = np.asarray(values)
        try:
            np.broadcast_to(values, shape)
        except ValueError:
            raise ConfigurationError(
                f"{what} of shape {values.shape} does not broadcast to the mesh {shape}"
            ) from None
        finite = np.isfinite(values)
        if np.all(finite):
            return values
        i = int(np.argmax(np.broadcast_to(~finite, shape)))
        r, t, k = np.unravel_index(i, shape)
        raise NumericalDomainError(
            f"{what} is not finite at node {start * shape[1] * shape[2] + i} (p="
            f"{self.radial_nodes[start + r]:.6g}, theta={self.theta_mesh[0, t, 0]:.6g}, "
            f"phi={self.azimuthal_nodes[k]:.6g})"
        )

    def angular_sum(self, values: np.ndarray) -> np.ndarray:
        """Weighted sum over the trailing (theta, phi) axes, azimuth first.

        ``values`` broadcasts against (n_theta, n_phi); leading axes are kept.
        """
        s_phi = (values * self.azimuthal_weights).sum(axis=-1)
        return (s_phi * self.polar_weights).sum(axis=-1)

    def product_sum(self, radial: np.ndarray, angular: np.ndarray) -> np.ndarray:
        """Weighted sum of a separable integrand radial(p) * angular(theta, phi):
        the radial sum times the angular sum."""
        return (self.radial_measure * radial).sum() * self.angular_sum(angular)

    def mesh_sum(self, values) -> np.ndarray:
        """Weighted sum over the mesh, one radial slab at a time.

        ``values`` is an array broadcastable to ``mesh_shape``, or a function
        of a radial slab (a slice) returning the values on those rows. Each
        slab is summed over the angles, then over its radial rows; slab
        partials are added in slab order.
        """
        total = 0.0
        for slab in self.radial_slabs():
            if callable(values):
                rows = values(slab)
            else:
                rows = np.broadcast_to(values, self.mesh_shape)[slab]
            total += (self.angular_sum(rows) * self.radial_measure[slab]).sum()
        return total


def build_grid(
    n_r: int = DEFAULT_N_R,
    n_theta: int = DEFAULT_N_THETA,
    n_phi: int = DEFAULT_N_PHI,
    r_max: float = 8.0,
) -> QuadratureGrid:
    """Build the tensor-product rule.

    Exact (up to roundoff) for integrands polynomial in p up to degree
    2*n_r-1 and trigonometric in phi up to degree n_phi-1. In theta the
    weights are Gauss-Legendre weights on (0, pi) times sin(theta), rescaled
    to sum to 2, so constants are exact and integrands analytic in theta (any
    polynomial in cos(theta) and sin(theta)) converge geometrically in
    n_theta.
    """
    for n, name in ((n_r, "n_r"), (n_theta, "n_theta"), (n_phi, "n_phi")):
        if not isinstance(n, (int, np.integer)) or n < 2:
            raise ConfigurationError(f"{name} must be an integer >= 2, got {n!r}")
    if not (0.0 < r_max < np.inf):
        raise ConfigurationError(f"r_max must be positive and finite, got {r_max}")

    x, w = np.polynomial.legendre.leggauss(int(n_r))
    radial_nodes = 0.5 * r_max * (x + 1.0)
    radial_weights = 0.5 * r_max * w
    if not np.all(radial_weights * radial_nodes**2 > 0.0):
        raise ConfigurationError(f"r_max must be large enough that p^2*w is nonzero, got {r_max}")

    t, wt = np.polynomial.legendre.leggauss(int(n_theta))
    theta = 0.5 * np.pi * (t + 1.0)
    wtheta = wt * np.sin(theta)
    wtheta *= 2.0 / wtheta.sum()

    phi = (np.arange(n_phi) + 0.5) * (2.0 * np.pi / n_phi)
    wphi = np.full(n_phi, 2.0 * np.pi / n_phi)

    return QuadratureGrid(
        radial_nodes=radial_nodes,
        radial_weights=radial_weights,
        polar_angles=theta,
        polar_weights=wtheta,
        azimuthal_nodes=phi,
        azimuthal_weights=wphi,
        r_max=float(r_max),
    )


def refine(grid: QuadratureGrid) -> QuadratureGrid:
    """Same rule with all three counts doubled."""
    return build_grid(2 * grid.n_r, 2 * grid.n_theta, 2 * grid.n_phi, grid.r_max)


ScalarField = Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]


def integrate(grid: QuadratureGrid, f: ScalarField) -> complex:
    """Integrate f over momentum space: sum of w_r*w_theta*w_phi*p^2*f(node).

    ``f`` is called like an amplitude, on ``grid.p_mesh[slab]``,
    ``grid.theta_mesh`` and ``grid.phi_mesh`` for each radial slab, and returns
    values that broadcast to that slab's mesh (a scalar constant will do).
    Linear in f by construction.
    """

    def on_slab(slab: slice) -> np.ndarray:
        values = f(grid.p_mesh[slab], grid.theta_mesh, grid.phi_mesh)
        return grid._checked_mesh(values, "integrand", slab)

    return complex(grid.mesh_sum(on_slab))
