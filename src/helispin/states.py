"""One-particle wave packets: two-component amplitudes over momentum space.

A state is an immutable description: a basis tag plus a pure evaluator from
(p, theta, phi) arrays to the (up, down) component arrays. Evaluators must be
written with elementwise numpy operations so they accept broadcastable
inputs: grids evaluate them on mesh axes shaped (n_r, 1, 1), (1, n_theta, 1)
and (1, 1, n_phi), which keeps separable families (every built-in one) cheap
on large grids. Mesh evaluations are cached per (state, grid) pair through a
weak mapping, capped by array size.

Built-in families:

* ``gaussian_spin_up`` / ``gaussian_helicity_up``: isotropic minimum
  uncertainty packet of width tau, single nonzero component, analytically
  normalized with prefactor pi^(-3/4) * tau^(-3/2).
* ``theta_independent_spin_up``: arbitrary square-integrable radial profile
  (optionally times an azimuthal winding phase exp(i*k*phi)); normalize
  before use.
* ``anisotropic_spin_up``: Gaussian radial profile with angular density
  proportional to 1 + alpha*cos(theta); demonstrates that isotropy is what
  makes the helicity reduction universal.
"""
from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .errors import (
    ConfigurationError,
    ContractViolationError,
    DegenerateInputError,
    NumericalDomainError,
)
from .quadrature import Momentum, QuadratureGrid
from .su2 import (
    SPIN,
    HELICITY,
    AmplitudePair,
    Basis,
    helicity_components_to_spin,
    spin_components_to_helicity,
)

#: Largest evaluated component array (in elements) cached on the state.
SAMPLE_CACHE_MAX_SIZE = 1 << 21

AmplitudeFn = Callable[[np.ndarray, np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class MomentumSampler:
    """Importance-sampling description of a family's momentum density.

    ``tau`` is the Gaussian radial width; the angular density is uniform for
    ``angular='isotropic'`` and proportional to 1 + alpha*cos(theta) for
    ``angular='linear_cos'``.
    """

    tau: float
    angular: str = "isotropic"
    alpha: float = 0.0


@dataclass(frozen=True)
class ProductForm:
    """Radially separable amplitude: one radial factor shared by both
    components times per-component angular factors.

    Reductions and norms of such states factor into a radial sum times small
    angular sums, which keeps large grids cheap. Angular factors may return
    scalars (e.g. 0 for an absent component).
    """

    radial: Callable[[np.ndarray], np.ndarray]
    angular_up: Callable[[np.ndarray, np.ndarray], np.ndarray]
    angular_down: Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True, eq=False)
class OneParticleState:
    basis: Basis
    amplitude: AmplitudeFn
    label: str = ""
    family_params: Mapping[str, float] = field(default_factory=dict)
    sampler: MomentumSampler | None = None
    product: ProductForm | None = None
    _mesh_cache: "weakref.WeakKeyDictionary" = field(
        default_factory=weakref.WeakKeyDictionary, repr=False, compare=False
    )

    @property
    def characteristic_width(self) -> float:
        """Momentum scale used to pick the default truncation radius."""
        return float(self.family_params.get("characteristic_width", 1.0))

    def amplitude_at(self, momentum: Momentum) -> AmplitudePair:
        """Evaluate at a single momentum point."""
        up, down = self.amplitude(
            np.array([momentum.p]), np.array([momentum.theta]), np.array([momentum.phi])
        )
        return AmplitudePair(
            up=complex(np.asarray(up).reshape(-1)[0]),
            down=complex(np.asarray(down).reshape(-1)[0]),
            basis=self.basis,
        )

    def components_on(self, grid: QuadratureGrid) -> tuple[np.ndarray, np.ndarray]:
        """(up, down) evaluated on the grid's broadcast mesh axes.

        The returned arrays broadcast to ``grid.mesh_shape`` but keep
        whatever smaller shape the evaluator produced (for separable
        amplitudes that is tiny). Cached per grid; concurrent fills are
        benign because both writers store identical values and a single
        dict assignment wins.
        """
        cached = self._mesh_cache.get(grid)
        if cached is not None:
            return cached
        up, down = self.amplitude(grid.p_mesh, grid.theta_mesh, grid.phi_mesh)
        up = np.atleast_3d(np.asarray(up, dtype=np.complex128))
        down = np.atleast_3d(np.asarray(down, dtype=np.complex128))
        for arr, name in ((up, "up"), (down, "down")):
            try:
                np.broadcast_shapes(arr.shape, grid.mesh_shape)
            except ValueError:
                raise ConfigurationError(
                    f"{name} amplitude of shape {arr.shape} does not broadcast "
                    f"to the grid mesh {grid.mesh_shape}"
                )
            bad = ~np.isfinite(arr)
            if np.any(bad):
                idx = np.unravel_index(int(np.argmax(bad)), arr.shape)
                raise NumericalDomainError(
                    f"{name} amplitude is not finite at mesh index {idx} "
                    f"(radial, polar, azimuthal)"
                )
        if up.size <= SAMPLE_CACHE_MAX_SIZE and down.size <= SAMPLE_CACHE_MAX_SIZE:
            self._mesh_cache[grid] = (up, down)
        return up, down


def radial_values(product: ProductForm, grid: QuadratureGrid) -> np.ndarray:
    """The radial factor on the grid's radial nodes, validated finite."""
    vals = np.asarray(product.radial(grid.radial_nodes), dtype=np.complex128)
    vals = np.broadcast_to(vals, grid.radial_nodes.shape)
    if not np.all(np.isfinite(vals)):
        raise NumericalDomainError("radial factor is not finite on the grid")
    return vals


def angular_values(
    product: ProductForm, grid: QuadratureGrid
) -> tuple[np.ndarray, np.ndarray]:
    """Both angular factors on the (theta, phi) sub-grid, validated finite."""
    shape = (grid.n_theta, grid.n_phi)
    out = []
    for fn, name in ((product.angular_up, "up"), (product.angular_down, "down")):
        vals = np.asarray(fn(grid.theta_col, grid.phi_row), dtype=np.complex128)
        vals = np.broadcast_to(vals, shape)
        if not np.all(np.isfinite(vals)):
            raise NumericalDomainError(f"angular {name} factor is not finite on the grid")
        out.append(vals)
    return out[0], out[1]


def norm_squared(state: OneParticleState, grid: QuadratureGrid) -> float:
    """Quadrature of |up|^2 + |down|^2 over the grid (the squared norm)."""
    if state.product is not None:
        radial = radial_values(state.product, grid)
        ang_up, ang_down = angular_values(state.product, grid)
        density = np.abs(ang_up) ** 2 + np.abs(ang_down) ** 2
        return float(grid.product_sum(np.abs(radial) ** 2, density))
    up, down = state.components_on(grid)
    return float(grid.mesh_sum(np.abs(up) ** 2 + np.abs(down) ** 2))


def _assemble(
    basis: Basis,
    product: ProductForm,
    label: str,
    family_params: Mapping[str, float],
    sampler: MomentumSampler | None,
) -> OneParticleState:
    """State whose evaluator is built from (and stays consistent with) a
    product form."""

    def amp(p, theta, phi):
        radial = np.asarray(product.radial(p), dtype=np.complex128)
        return (
            radial * product.angular_up(theta, phi),
            radial * product.angular_down(theta, phi),
        )

    return OneParticleState(
        basis=basis,
        amplitude=amp,
        label=label,
        family_params=family_params,
        sampler=sampler,
        product=product,
    )


def normalize(state: OneParticleState, grid: QuadratureGrid) -> OneParticleState:
    """Rescale so the squared norm on this grid is 1 (idempotent)."""
    n2 = norm_squared(state, grid)
    if n2 <= 0.0:
        raise DegenerateInputError("cannot normalize a zero-norm state")
    scale = 1.0 / np.sqrt(n2)
    if state.product is not None:
        inner_radial = state.product.radial
        product = ProductForm(
            radial=lambda p: scale * np.asarray(inner_radial(p), dtype=np.complex128),
            angular_up=state.product.angular_up,
            angular_down=state.product.angular_down,
        )
        return _assemble(state.basis, product, state.label, state.family_params, state.sampler)
    inner = state.amplitude

    def scaled(p, theta, phi):
        up, down = inner(p, theta, phi)
        return scale * np.asarray(up, dtype=np.complex128), scale * np.asarray(
            down, dtype=np.complex128
        )

    return OneParticleState(
        basis=state.basis,
        amplitude=scaled,
        label=state.label,
        family_params=state.family_params,
        sampler=state.sampler,
    )


def with_basis(state: OneParticleState, basis: Basis) -> OneParticleState:
    """The same physical state with amplitudes re-expressed in ``basis``.

    The per-momentum transform is exactly unitary, so norms and reduced
    matrices are unchanged. Product forms stay product forms: the rotation
    mixes only the angular factors.
    """
    if basis not in (SPIN, HELICITY):
        raise ConfigurationError(f"unknown basis tag {basis!r}")
    if basis == state.basis:
        return state
    transform = (
        spin_components_to_helicity if state.basis == SPIN else helicity_components_to_spin
    )
    if state.product is not None:
        pf = state.product

        def ang_up(theta, phi):
            return transform(pf.angular_up(theta, phi), pf.angular_down(theta, phi), theta, phi)[0]

        def ang_down(theta, phi):
            return transform(pf.angular_up(theta, phi), pf.angular_down(theta, phi), theta, phi)[1]

        product = ProductForm(radial=pf.radial, angular_up=ang_up, angular_down=ang_down)
        return _assemble(basis, product, state.label, state.family_params, state.sampler)
    inner = state.amplitude

    def converted(p, theta, phi):
        up, down = inner(p, theta, phi)
        return transform(up, down, theta, phi)

    return OneParticleState(
        basis=basis,
        amplitude=converted,
        label=state.label,
        family_params=state.family_params,
        sampler=state.sampler,
    )


# ---------------------------------------------------------------------------
# Built-in families
# ---------------------------------------------------------------------------

def _unit_angular(theta, phi):
    return np.ones(np.broadcast_shapes(np.shape(theta), np.shape(phi)))


def _zero_angular(theta, phi):
    return np.zeros(np.broadcast_shapes(np.shape(theta), np.shape(phi)))


def _gaussian_radial(tau: float) -> Callable[[np.ndarray], np.ndarray]:
    prefactor = np.pi ** (-0.75) * tau ** (-1.5)
    return lambda p: prefactor * np.exp(-(np.asarray(p) ** 2) / (2.0 * tau * tau))


def gaussian_spin_up(tau: float) -> OneParticleState:
    """Isotropic Gaussian packet, spin-up along z, unit norm."""
    if not (tau > 0.0):
        raise ConfigurationError(f"tau must be positive, got {tau}")
    return _assemble(
        basis=SPIN,
        product=ProductForm(_gaussian_radial(tau), _unit_angular, _zero_angular),
        label=f"gaussian_spin_up(tau={tau:g})",
        family_params={"tau": float(tau), "characteristic_width": float(tau)},
        sampler=MomentumSampler(tau=float(tau)),
    )


def gaussian_helicity_up(tau: float) -> OneParticleState:
    """Isotropic Gaussian packet in the +1/2 helicity eigenstate, unit norm."""
    if not (tau > 0.0):
        raise ConfigurationError(f"tau must be positive, got {tau}")
    return _assemble(
        basis=HELICITY,
        product=ProductForm(_gaussian_radial(tau), _unit_angular, _zero_angular),
        label=f"gaussian_helicity_up(tau={tau:g})",
        family_params={"tau": float(tau), "characteristic_width": float(tau)},
        sampler=MomentumSampler(tau=float(tau)),
    )


def theta_independent_spin_up(
    radial_profile: Callable[[np.ndarray], np.ndarray],
    azimuthal_winding: int = 0,
    characteristic_width: float = 1.0,
) -> OneParticleState:
    """Spin-up state whose amplitude depends on direction only through an
    optional winding phase exp(i*k*phi).

    The profile need not be normalized; call :func:`normalize` before
    reducing. A profile that vanishes on the whole grid surfaces as a
    degenerate-input error at normalization time.
    """
    if not (characteristic_width > 0.0):
        raise ConfigurationError(
            f"characteristic_width must be positive, got {characteristic_width}"
        )
    k = int(azimuthal_winding)
    if k != 0:
        def angular_up(theta, phi):
            return np.exp(1j * k * np.asarray(phi)) * _unit_angular(theta, phi)
    else:
        angular_up = _unit_angular

    return _assemble(
        basis=SPIN,
        product=ProductForm(radial_profile, angular_up, _zero_angular),
        label=f"theta_independent_spin_up(k={k})",
        family_params={
            "azimuthal_winding": float(k),
            "characteristic_width": float(characteristic_width),
        },
        sampler=None,
    )


def anisotropic_spin_up(tau: float, alpha: float) -> OneParticleState:
    """Gaussian radial packet with angular density 1 + alpha*cos(theta).

    alpha = 0 reduces exactly to :func:`gaussian_spin_up`; |alpha| > 1 would
    make the density negative near one pole and is rejected. The angular
    factor averages to one over the sphere, so the Gaussian prefactor already
    normalizes the state.
    """
    if not (tau > 0.0):
        raise ConfigurationError(f"tau must be positive, got {tau}")
    if not (abs(alpha) <= 1.0):
        raise ConfigurationError(f"alpha must lie in [-1, 1], got {alpha}")
    a = float(alpha)

    def angular_up(theta, phi):
        return np.sqrt(1.0 + a * np.cos(theta)) * _unit_angular(theta, phi)

    return _assemble(
        basis=SPIN,
        product=ProductForm(_gaussian_radial(tau), angular_up, _zero_angular),
        label=f"anisotropic_spin_up(tau={tau:g}, alpha={a:g})",
        family_params={
            "tau": float(tau),
            "alpha": a,
            "characteristic_width": float(tau),
        },
        sampler=MomentumSampler(tau=float(tau), angular="linear_cos", alpha=a),
    )


# Named radial profiles usable from scenario files.

def radial_profile(name: str, **params: float) -> tuple[Callable, float]:
    """Look up a named radial profile; returns (callable, characteristic width)."""
    if name == "gaussian":
        tau = float(params.pop("tau", 1.0))
        if tau <= 0.0:
            raise ConfigurationError("gaussian profile needs tau > 0")
        _reject_extra(name, params)
        return (lambda p: np.exp(-(p * p) / (2.0 * tau * tau))), tau
    if name == "linear_exp":
        scale = float(params.pop("scale", 1.0))
        if scale <= 0.0:
            raise ConfigurationError("linear_exp profile needs scale > 0")
        _reject_extra(name, params)
        # density p^4*exp(-2p/scale) peaks at 2*scale; width 2.5*scale puts
        # the default truncation at 20*scale where the tail is < 1e-12
        return (lambda p: p * np.exp(-p / scale)), 2.5 * scale
    if name == "shell":
        p_min = float(params.pop("p_min", 0.5))
        p_max = float(params.pop("p_max", 1.5))
        if not (0.0 <= p_min < p_max):
            raise ConfigurationError("shell profile needs 0 <= p_min < p_max")
        _reject_extra(name, params)
        return (
            lambda p: ((p > p_min) & (p < p_max)).astype(np.float64)
        ), p_max
    raise ConfigurationError(f"unknown radial profile {name!r}")


def _reject_extra(name: str, params: Mapping[str, float]) -> None:
    if params:
        raise ConfigurationError(
            f"unexpected parameters for profile {name!r}: {sorted(params)}"
        )


def require_normalized(
    state: OneParticleState, grid: QuadratureGrid, tol: float = 1e-6
) -> float:
    """Return the grid norm, raising if it is further than ``tol`` from 1."""
    n2 = norm_squared(state, grid)
    if abs(n2 - 1.0) > tol:
        raise ContractViolationError(
            f"state must be normalized on the grid (squared norm {n2:.6g})"
        )
    return n2
