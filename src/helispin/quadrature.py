"""Deterministic spherical quadrature over momentum space.

Realizes the flat measure d^3p = p^2 dp dcos(theta) dphi as a tensor-product
rule: Gauss-Legendre nodes in p on (0, r_max) and in cos(theta) on (-1, 1),
uniform midpoint nodes in phi with weight 2*pi/n_phi. Gauss-Legendre nodes
are strictly interior, so the poles cos(theta) = +-1 (where the azimuth of
the frame rotation is conventional) and p = 0 are never sampled.

Every weighted sum over the grid has one order, written once here: azimuth
first, then polar, then radial, each axis with numpy's pairwise summation.
Mesh sums run one radial slab (as many radial rows as fit in BLOCK_NODES
nodes, at least one) at a time and add slab partials in slab order, so
temporaries stay bounded and the slab layout, which depends only on the grid
shape, fixes the bits run to run.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator

import numpy as np

from .errors import ConfigurationError, NumericalDomainError

#: Default rule sizes. The polar count is driven by the slowest-converging
#: integrand in scope, sqrt(1-u^2) against Gauss-Legendre in u = cos(theta),
#: whose error scales ~0.77*n^-3: n_theta=512 puts the helicity off-diagonal
#: error at 1.5e-9, comfortably below the 1e-8 tolerances used throughout.
DEFAULT_N_R = 64
DEFAULT_N_THETA = 512
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
    polar_cosines: np.ndarray
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
        if not np.all(np.abs(self.polar_cosines) < 1.0):
            raise ConfigurationError("polar nodes must lie strictly inside (-1, 1)")
        if abs(self.azimuthal_weights.sum() - 2.0 * np.pi) > 1e-12:
            raise ConfigurationError("azimuthal weights must sum to 2*pi")
        if abs(self.polar_weights.sum() - 2.0) > 1e-12:
            raise ConfigurationError("polar weights must sum to 2")

    @property
    def n_r(self) -> int:
        return self.radial_nodes.size

    @property
    def n_theta(self) -> int:
        return self.polar_cosines.size

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
        return np.arccos(self.polar_cosines)[None, :, None]

    @cached_property
    def phi_mesh(self) -> np.ndarray:
        """Azimuthal nodes shaped (1, 1, n_phi)."""
        return self.azimuthal_nodes[None, None, :]

    @cached_property
    def radial_measure(self) -> np.ndarray:
        """w_r * p^2, the radial factor of the volume measure."""
        return self.radial_weights * self.radial_nodes**2

    @cached_property
    def theta_col(self) -> np.ndarray:
        """Polar angles shaped (n_theta, 1), for angular-only evaluation."""
        return np.arccos(self.polar_cosines)[:, None]

    @cached_property
    def phi_row(self) -> np.ndarray:
        """Azimuthal nodes shaped (1, n_phi), for angular-only evaluation."""
        return self.azimuthal_nodes[None, :]

    def radial_slabs(self) -> Iterator[slice]:
        """Radial index ranges sized so a slab holds <= BLOCK_NODES nodes.

        The slab layout depends only on the grid shape, so reductions that
        sum slab partials in order are reproducible bit for bit.
        """
        per_row = self.n_theta * self.n_phi
        rows = max(1, BLOCK_NODES // per_row)
        for start in range(0, self.n_r, rows):
            yield slice(start, min(start + rows, self.n_r))

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
    2*n_r-1, polynomial in cos(theta) up to degree 2*n_theta-1, and
    trigonometric in phi up to degree n_phi-1.
    """
    for n, name in ((n_r, "n_r"), (n_theta, "n_theta"), (n_phi, "n_phi")):
        if not isinstance(n, (int, np.integer)) or n < 2:
            raise ConfigurationError(f"{name} must be an integer >= 2, got {n!r}")
    if not (r_max > 0.0):
        raise ConfigurationError(f"r_max must be positive, got {r_max}")

    x, w = np.polynomial.legendre.leggauss(int(n_r))
    radial_nodes = 0.5 * r_max * (x + 1.0)
    radial_weights = 0.5 * r_max * w

    u, wu = np.polynomial.legendre.leggauss(int(n_theta))
    # ascending cosine order; leggauss already returns interior nodes

    phi = (np.arange(n_phi) + 0.5) * (2.0 * np.pi / n_phi)
    wphi = np.full(n_phi, 2.0 * np.pi / n_phi)

    return QuadratureGrid(
        radial_nodes=radial_nodes,
        radial_weights=radial_weights,
        polar_cosines=u,
        polar_weights=wu,
        azimuthal_nodes=phi,
        azimuthal_weights=wphi,
        r_max=float(r_max),
    )


def refine(grid: QuadratureGrid, factor: int = 2) -> QuadratureGrid:
    """Same rule with all three counts multiplied by ``factor``."""
    return build_grid(
        grid.n_r * factor, grid.n_theta * factor, grid.n_phi * factor, grid.r_max
    )


ScalarField = Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]


def integrate(grid: QuadratureGrid, f: ScalarField) -> complex:
    """Integrate f over momentum space: sum of w_r*w_theta*w_phi*p^2*f(node).

    ``f`` receives flat (p, theta, phi) arrays of one radial slab, in node
    order radial-major, then polar, then azimuthal, and must return a
    same-length array (a scalar constant is broadcast). Linear in f by
    construction.
    """

    def on_slab(slab: slice) -> np.ndarray:
        shape = (slab.stop - slab.start, grid.n_theta, grid.n_phi)
        p, theta, phi = (
            np.broadcast_to(axis, shape).reshape(-1)
            for axis in (grid.p_mesh[slab], grid.theta_mesh, grid.phi_mesh)
        )
        values = np.broadcast_to(np.asarray(f(p, theta, phi)), p.shape)
        bad = ~np.isfinite(values)
        if np.any(bad):
            i = int(np.argmax(bad))
            raise NumericalDomainError(
                f"integrand is not finite at node {slab.start * shape[1] * shape[2] + i} "
                f"(p={p[i]:.6g}, theta={theta[i]:.6g}, phi={phi[i]:.6g})"
            )
        return values.reshape(shape)

    return complex(grid.mesh_sum(on_slab))
