"""One-particle wave packets: two-component amplitudes over momentum space.

A state is an immutable description: a basis tag plus a pure evaluator from
(p, theta, phi) arrays to the (up, down) component arrays. Evaluators must be
written with elementwise numpy operations so they accept broadcastable
inputs: grids evaluate them on mesh axes shaped (n_r, 1, 1), (1, n_theta, 1)
and (1, 1, n_phi). Mesh evaluations are checked by the grid and cached per
(state, grid) pair through a weak mapping, capped by array size;
``normalize`` hands its cached evaluation on to the normalized state.

A radially separable state (every built-in one) has a :class:`ProductForm`
as its amplitude. Momentum enters the spin-helicity rotation only through
its direction, so norms and reductions read one thing, :func:`on_grid`: the
2x2 moments per direction, summed over p by the kernel :func:`accumulate_outer`.

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

Scenario files name these through ``FAMILIES`` and the radial profiles
through ``PROFILES``; :func:`build_state` builds a family from its params.
"""
from __future__ import annotations

import weakref
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Mapping

import numpy as np

from .errors import ConfigurationError, DegenerateInputError, NumericalDomainError
from .quadrature import QuadratureGrid
from .su2 import (
    SPIN,
    HELICITY,
    Basis,
    check_basis,
    helicity_components_to_spin,
    spin_components_to_helicity,
)

#: Largest evaluated component array (in elements) cached on the state.
SAMPLE_CACHE_MAX_SIZE = 1 << 21

AmplitudeFn = Callable[[np.ndarray, np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class ProductForm:
    """Radially separable amplitude: one radial factor shared by both
    components times one angular spinor.

    ``angular(theta, phi)`` returns the (up, down) pair, so a basis change
    rotates the spinor once. The moments of such a state are one radial sum
    times the angular outer products, which keeps large grids cheap.
    """

    radial: Callable[[np.ndarray], np.ndarray]
    angular: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]

    def __call__(self, p, theta, phi):
        """The amplitude: radial factor times each angular component."""
        radial = np.asarray(self.radial(p), dtype=np.complex128)
        up, down = self.angular(theta, phi)
        return radial * up, radial * down


@dataclass(frozen=True, eq=False)
class OneParticleState:
    basis: Basis
    amplitude: AmplitudeFn  # a ProductForm when the state is radially separable
    label: str = ""
    #: Momentum scale that sets the default truncation radius and the radius
    #: of ``mc_density``'s proposal, exp(-p/(0.4 w)) on d^3p; so |psi|^2 must
    #: decay faster than exp(-p/(0.4 w)), or the Monte-Carlo weights are
    #: unbounded.
    characteristic_width: float = 1.0
    family_params: Mapping[str, float] = field(default_factory=dict)
    _mesh_cache: "weakref.WeakKeyDictionary" = field(
        default_factory=weakref.WeakKeyDictionary, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        check_basis(self.basis)
        if not (0.0 < self.characteristic_width < np.inf):
            raise ConfigurationError("characteristic_width must be positive and finite, "
                                     f"got {self.characteristic_width}")

    @property
    def product(self) -> ProductForm | None:
        """The amplitude if it is radially separable, else None."""
        return self.amplitude if isinstance(self.amplitude, ProductForm) else None

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
        return self._store_components(grid, up, down)

    def _store_components(self, grid: QuadratureGrid, up, down):
        """Check (up, down) on the grid's mesh and cache them if small enough."""
        up, down = (
            grid._checked_mesh(np.asarray(arr, dtype=np.complex128), f"{name} amplitude")
            for arr, name in ((up, "up"), (down, "down"))
        )
        if up.size <= SAMPLE_CACHE_MAX_SIZE and down.size <= SAMPLE_CACHE_MAX_SIZE:
            self._mesh_cache[grid] = (up, down)
        return up, down


def accumulate_outer(measure, up: np.ndarray, down: np.ndarray) -> np.ndarray:
    """Weighted sum of the matrices a a^dagger, a = (up, down), Hermitian by
    construction.

    Only |up|^2, |down|^2 and up*conj(down) are reduced; entry (1, 0) is the
    conjugate of entry (0, 1). ``measure`` is a function that reduces an
    entry array (a grid's radial sum, a Monte-Carlo tile's moments). Axes of
    that reduction follow the two matrix axes.
    """
    uu = measure(up.real**2 + up.imag**2)
    dd = measure(down.real**2 + down.imag**2)
    ud = measure(up * np.conj(down))
    out = np.empty((2, 2) + np.shape(ud), dtype=np.complex128)
    out[0, 0], out[1, 1] = uu, dd
    out[0, 1], out[1, 0] = ud, np.conj(ud)
    return out


def on_grid(state: OneParticleState, grid: QuadratureGrid) -> np.ndarray:
    """The moments M(theta, phi), the radial sum of w_r p^2 a a^dagger in the
    state's own basis, shape (2, 2, n_theta, n_phi): R * ang ang^dagger for a
    product state (R the radial sum of |radial|^2, ang its angular pair), the
    radial sum of the cached mesh components for any other. Every evaluated
    factor passes the grid's mesh check."""
    pf = state.product
    if pf is None:
        # full radial rows to slice; the (theta, phi) shape stays as evaluated
        up, down = (np.broadcast_to(a, np.broadcast_shapes(a.shape, grid.p_mesh.shape))
                    for a in state.components_on(grid))
        moments = grid.radial_sum(
            lambda slab, measure: accumulate_outer(measure, up[slab], down[slab])
        )
    else:
        radial = grid._checked_mesh(
            np.asarray(pf.radial(grid.p_mesh), dtype=np.complex128), "radial factor"
        )
        radial_density = np.broadcast_to(np.abs(radial) ** 2, grid.p_mesh.shape)
        r = grid.radial_sum(lambda slab, measure: measure(radial_density[slab]))
        up, down = (
            grid._checked_mesh(np.asarray(vals, dtype=np.complex128), f"angular {name} factor")
            for vals, name in zip(pf.angular(grid.theta_mesh[0], grid.phi_mesh[0]), ("up", "down"))
        )
        moments = accumulate_outer(lambda a: r * a, up, down)
    return np.broadcast_to(moments, (2, 2, grid.n_theta, grid.n_phi))


def norm_squared(state: OneParticleState, grid: QuadratureGrid) -> float:
    """Quadrature of |up|^2 + |down|^2 over the grid (the squared norm)."""
    moments = on_grid(state, grid)
    return float(grid.angular_sum(moments[0, 0].real + moments[1, 1].real))


def normalize(state: OneParticleState, grid: QuadratureGrid) -> OneParticleState:
    """Rescale so the squared norm on this grid is 1 (idempotent)."""
    n2 = norm_squared(state, grid)
    if not np.isfinite(n2):
        raise NumericalDomainError(f"cannot normalize a state whose squared norm is {n2}")
    if n2 <= 0.0:
        raise DegenerateInputError("cannot normalize a zero-norm state")
    scale = 1.0 / np.sqrt(n2)
    pf = state.product
    if pf is not None:
        radial = lambda p: scale * np.asarray(pf.radial(p), dtype=np.complex128)
        return replace(state, amplitude=ProductForm(radial, pf.angular))
    inner = state.amplitude

    def scaled(p, theta, phi):
        return tuple(scale * np.asarray(x, dtype=np.complex128) for x in inner(p, theta, phi))

    normalized = replace(state, amplitude=scaled)  # a fresh mesh cache
    # reuse the norm pass's mesh evaluation instead of evaluating again
    cached = state._mesh_cache.get(grid)
    if cached is not None:
        normalized._store_components(grid, scale * cached[0], scale * cached[1])
    return normalized


def with_basis(state: OneParticleState, basis: Basis) -> OneParticleState:
    """The same physical state with amplitudes re-expressed in ``basis``.

    The per-momentum transform is exactly unitary, so norms and reduced
    matrices are unchanged. Product forms stay product forms: the rotation
    mixes only the angular factors. The new state rejects an unknown tag.
    """
    if basis == state.basis:
        return state
    transform = (
        spin_components_to_helicity if state.basis == SPIN else helicity_components_to_spin
    )
    pf = state.product
    if pf is not None:

        def angular(theta, phi):
            return transform(*pf.angular(theta, phi), theta, phi)

        return replace(state, basis=basis, amplitude=ProductForm(pf.radial, angular))
    inner = state.amplitude

    def converted(p, theta, phi):
        up, down = inner(p, theta, phi)
        return transform(up, down, theta, phi)

    return replace(state, basis=basis, amplitude=converted)


# ---------------------------------------------------------------------------
# Built-in families
# ---------------------------------------------------------------------------

def _up_state(basis: Basis, radial: Callable, factor: Callable | None, label: str,
              width: float, **family_params: float) -> OneParticleState:
    """The state radial(p) * (factor(theta, phi), 0) in ``basis`` with
    characteristic width ``width``; no factor means 1."""

    def angular(theta, phi):
        ones = np.ones(np.broadcast_shapes(np.shape(theta), np.shape(phi)))
        return (ones if factor is None else factor(theta, phi) * ones), np.zeros(ones.shape)

    params = {key: float(value) for key, value in family_params.items()}
    return OneParticleState(basis, ProductForm(radial, angular), label, float(width), params)


def _gaussian_radial(tau: float) -> Callable[[np.ndarray], np.ndarray]:
    """The unit-norm Gaussian radial factor of width tau."""
    if not (tau > 0.0):
        raise ConfigurationError(f"tau must be positive, got {tau}")
    prefactor = np.pi ** (-0.75) * tau ** (-1.5)
    factor, _ = _gaussian_profile(tau)
    return lambda p: prefactor * factor(p)


def gaussian_spin_up(tau: float) -> OneParticleState:
    """Isotropic Gaussian packet, spin-up along z, unit norm."""
    return _up_state(SPIN, _gaussian_radial(tau), None, f"gaussian_spin_up(tau={tau:g})",
                     tau, tau=tau)


def gaussian_helicity_up(tau: float) -> OneParticleState:
    """Isotropic Gaussian packet in the +1/2 helicity eigenstate, unit norm."""
    return _up_state(HELICITY, _gaussian_radial(tau), None, f"gaussian_helicity_up(tau={tau:g})",
                     tau, tau=tau)


def theta_independent_spin_up(
    radial_profile: Callable[[np.ndarray], np.ndarray],
    azimuthal_winding: int = 0,
    characteristic_width: float = 1.0,
) -> OneParticleState:
    """Spin-up state whose amplitude depends on direction only through an
    optional winding phase exp(i*k*phi), k an integer (2 and 2.0 alike).

    The profile need not be normalized; call :func:`normalize` before
    reducing. A profile that vanishes on the whole grid surfaces as a
    degenerate-input error at normalization time.
    """
    if isinstance(azimuthal_winding, str) or not float(azimuthal_winding).is_integer():
        raise ConfigurationError(f"azimuthal_winding must be an integer, got {azimuthal_winding!r}")
    k = int(float(azimuthal_winding))
    winding = None if k == 0 else (lambda theta, phi: np.exp(1j * k * np.asarray(phi)))
    return _up_state(SPIN, radial_profile, winding, f"theta_independent_spin_up(k={k})",
                     characteristic_width, azimuthal_winding=k)


def anisotropic_spin_up(tau: float, alpha: float) -> OneParticleState:
    """Gaussian radial packet with angular density 1 + alpha*cos(theta).

    alpha = 0 reduces exactly to :func:`gaussian_spin_up`; |alpha| > 1 would
    make the density negative near one pole and is rejected. The angular
    factor averages to one over the sphere, so the Gaussian prefactor already
    normalizes the state.
    """
    radial = _gaussian_radial(tau)
    if not (abs(alpha) <= 1.0):
        raise ConfigurationError(f"alpha must lie in [-1, 1], got {alpha}")
    a = float(alpha)
    return _up_state(SPIN, radial, lambda theta, phi: np.sqrt(1.0 + a * np.cos(theta)),
                     f"anisotropic_spin_up(tau={tau:g}, alpha={a:g})", tau, tau=tau, alpha=a)


# Named radial profiles usable from scenario files: keyword functions that
# return (radial factor, characteristic width).

def _gaussian_profile(tau=1.0):
    if not (tau > 0.0):
        raise ConfigurationError("gaussian profile needs tau > 0")
    return (lambda p: np.exp(-(p * p) / (2.0 * tau * tau))), tau


def _linear_exp_profile(scale=1.0):
    if not (scale > 0.0):
        raise ConfigurationError("linear_exp profile needs scale > 0")
    # density p^4*exp(-2p/scale) peaks at 2*scale; width 2.5*scale puts the
    # default truncation at 20*scale where the tail is < 1e-12
    return (lambda p: p * np.exp(-p / scale)), 2.5 * scale


def _shell_profile(p_min=0.5, p_max=1.5):
    if not (0.0 <= p_min < p_max):
        raise ConfigurationError("shell profile needs 0 <= p_min < p_max")
    return (lambda p: ((p > p_min) & (p < p_max)).astype(np.float64)), p_max


PROFILES: dict[str, Callable[..., tuple[Callable, float]]] = {
    "gaussian": _gaussian_profile,
    "linear_exp": _linear_exp_profile,
    "shell": _shell_profile,
}


def radial_profile(name: str, **params: float) -> tuple[Callable, float]:
    """Look up a named radial profile; returns (callable, characteristic width)."""
    if name not in PROFILES:
        raise ConfigurationError(f"unknown radial profile {name!r}")
    try:
        return PROFILES[name](**params)
    except TypeError as exc:  # an unknown keyword, or a value that is not a number
        raise ConfigurationError(f"bad parameters for profile {name!r}: {exc}") from exc


def _theta_independent(profile: str = "gaussian", winding: Any = 0, **params: Any):
    """``theta_independent_spin_up`` with a named radial profile and its params."""
    radial, width = radial_profile(profile, **params)
    return theta_independent_spin_up(radial, azimuthal_winding=winding, characteristic_width=width)


#: Scenario family name -> constructor called with the scenario's params.
FAMILIES: dict[str, Callable[..., OneParticleState]] = {
    "gaussian_spin_up": gaussian_spin_up,
    "gaussian_helicity_up": gaussian_helicity_up,
    "anisotropic_spin_up": anisotropic_spin_up,
    "theta_independent_spin_up": _theta_independent,
}


def build_state(family: str, params: Mapping[str, Any]) -> OneParticleState:
    """Construct a built-in family from its scenario parameters."""
    if family not in FAMILIES:
        raise ConfigurationError(f"unknown state family {family!r}")
    try:
        return FAMILIES[family](**params)
    except ConfigurationError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:  # wrong keywords, type or range
        raise ConfigurationError(f"bad parameters for family {family!r}: {exc}") from exc
