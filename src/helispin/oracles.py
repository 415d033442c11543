"""Independent ground truth: closed-form reference matrices and a seeded
Monte-Carlo estimator for the same reductions the quadrature path computes.

The closed forms are hand results: a z-polarized state with a
direction-independent momentum amplitude reduces in the helicity basis to
[[1/2, -pi/8], [-pi/8, 1/2]], and an isotropic +1/2-helicity state reduces
in the spin basis to the maximally mixed matrix.

The Monte-Carlo path is self-normalized importance sampling from one fixed
proposal for every state: a Gamma(3, sigma) radius, sigma a fixed fraction of
the state's characteristic width, and a uniform direction. Each sample's
spinor is scaled so its outer product carries the weight |psi|^2/q, rotated
into the target basis, and summed; the estimate is that sum over its own
trace, with delta-method standard errors and Kong's effective sample size
(Owen, Monte Carlo theory, methods and examples, 2013, ch. 9). The amplitude
need not be normalized. Randomness is counter-based:
Philox streams keyed by (seed, tile index) with a fixed draw layout, and
each tile's sums are added to one running total in tile order, so the
estimate is bit-identical however tiles would be sharded across workers.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .density import DensityMatrix2, von_neumann_entropy
from .errors import ConfigurationError, DegenerateInputError, NumericalDomainError
from .states import OneParticleState, accumulate_outer
from .su2 import (
    SPIN,
    HELICITY,
    Basis,
    check_basis,
    helicity_components_to_spin,
    spin_components_to_helicity,
)

#: Samples per Philox tile. Part of the determinism contract: changing it
#: changes the stream layout, so it is a constant, not a parameter.
MC_TILE = 4096
#: Samples per basis rotation in a tile; the bits do not depend on it. A whole
#: tile's ~550 KB of temporaries made glibc malloc trim and refault every tile.
MC_BLOCK = 2048
#: Uniform draws per sample: three for the radius, one each for cos(theta)
#: and phi.
_DRAWS_PER_SAMPLE = 5
#: Radial scale of the proposal in units of the state's characteristic
#: width. Gamma(3, sigma) has mean 3*sigma, near the bulk of every family,
#: and its exp(-p/sigma) tail outlasts each family's density (Gaussian,
#: p^2*exp(-2p/s) for linear_exp with sigma = s, compact shells), so the
#: weights stay bounded. At 0.4 the radial ESS/n is 0.89 for a Gaussian,
#: 0.85 for linear_exp and 0.34 for a shell; 0.5 gives less for all three.
PROPOSAL_WIDTH = 0.4
#: Largest gap from a reference that reads as agreement whatever the standard
#: error: the roundoff of a unit-trace entry. Entries of a state pure in the
#: target basis have standard errors of 0, and gaps of 2e-16 (10^4 samples)
#: to 6e-16 (4*10^6); 1e-13 leaves room for 10^9 samples.
ROUNDOFF_GAP = 1e-13
#: Largest sample count ``mc_density`` takes: the run time grows linearly,
#: to minutes at the cap.
MAX_MC_SAMPLES = 10**9


@dataclass(frozen=True)
class McEstimate:
    """Monte-Carlo estimate of a reduced matrix with per-entry errors and
    the effective sample size of its weights."""

    value: np.ndarray
    std_error: np.ndarray
    n_samples: int
    seed: int
    ess: float

    def __post_init__(self) -> None:
        if self.n_samples < 1:
            raise ConfigurationError("n_samples must be >= 1")
        if np.any(self.std_error < 0.0):
            raise ConfigurationError("standard errors must be non-negative")

    def sigma_distance(self, reference: np.ndarray) -> np.ndarray:
        """Per-entry distance of ``reference`` from the estimate in standard
        errors: 0 where the gap is at most ``ROUNDOFF_GAP``, infinite where a
        larger gap meets a zero standard error."""
        gap = np.abs(reference - self.value)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(gap <= ROUNDOFF_GAP, 0.0, gap / self.std_error)


def oracle_helicity_matrix_theta_independent() -> DensityMatrix2:
    """Helicity reduction of any z-polarized, direction-independent packet."""
    off = -np.pi / 8.0
    return DensityMatrix2(
        entries=np.array([[0.5, off], [off, 0.5]], dtype=np.complex128),
        basis=HELICITY,
    )


def oracle_spin_matrix_isotropic_helicity() -> DensityMatrix2:
    """Spin reduction of any isotropic right-handed helicity packet."""
    return DensityMatrix2(
        entries=np.array([[0.5, 0.0], [0.0, 0.5]], dtype=np.complex128), basis=SPIN
    )


def oracle_spin_up_helicity_entropy() -> float:
    """Helicity entropy of the theta-independent z-polarized reduction, in
    bits: the binary entropy of the eigenvalue pair 1/2 +- pi/8."""
    return von_neumann_entropy(oracle_helicity_matrix_theta_independent()).entropy_bits


#: Named references usable in scenario checks: name -> a function of no
#: arguments returning the reference matrix or entropy.
ORACLES: dict[str, Callable[[], Any]] = {
    "theta_independent_helicity_matrix": oracle_helicity_matrix_theta_independent,
    "isotropic_helicity_spin_matrix": oracle_spin_matrix_isotropic_helicity,
    "spin_up_helicity_entropy": oracle_spin_up_helicity_entropy,
    "maximally_mixed_entropy": lambda: 1.0,
    "pure_state_entropy": lambda: 0.0,
}


def _sample_tile(sigma: float, seed: int, tile_index: int, count: int):
    """Draw ``count`` momenta of tile ``tile_index`` from the fixed proposal."""
    rng = np.random.Generator(np.random.Philox(key=[seed, tile_index]))
    u = rng.random((count, _DRAWS_PER_SAMPLE))
    # Gamma(3, sigma) radius; clip away an exact zero so log stays finite
    product = np.clip(u[:, 0] * u[:, 1] * u[:, 2], np.finfo(float).tiny, None)
    p = -sigma * np.log(product)
    theta = np.arccos(2.0 * u[:, 3] - 1.0)
    phi = 2.0 * np.pi * u[:, 4]
    return p, theta, phi


def mc_density(
    state: OneParticleState,
    target_basis: Basis,
    n_samples: int,
    seed: int,
    n_shards: int = 1,
) -> McEstimate:
    """Monte-Carlo estimate of the reduced matrix in ``target_basis``.

    Works for every state; the amplitude need not be normalized, because the
    estimate is divided by its own trace. ``n_shards`` is a worker-count
    stand-in: the tiles run in tile order whatever its value, so it cannot
    change the returned bits.
    """
    check_basis(target_basis)
    if n_samples < 100:
        raise ConfigurationError(f"n_samples must be >= 100, got {n_samples}")
    if n_samples > MAX_MC_SAMPLES:
        raise ConfigurationError(f"n_samples must be at most {MAX_MC_SAMPLES}, got {n_samples}")
    if n_shards < 1:
        raise ConfigurationError(f"n_shards must be >= 1, got {n_shards}")
    if not (0 <= seed < 2**64):
        raise ConfigurationError(f"seed must be a 64-bit unsigned integer, got {seed}")

    sigma = PROPOSAL_WIDTH * state.characteristic_width
    n_tiles = (n_samples + MC_TILE - 1) // MC_TILE
    # per entry, summed tile by tile in tile order: a, |a|^2 and a*b (b the sample's trace)
    total = np.zeros((2, 2, 3), dtype=np.complex128)
    transform = (spin_components_to_helicity if target_basis == HELICITY
                 else helicity_components_to_spin)
    for t in range(n_tiles):
        count = min(MC_TILE, n_samples - t * MC_TILE)
        p, theta, phi = _sample_tile(sigma, seed, t, count)
        up, down = state.amplitude(p, theta, phi)
        # q ~ exp(-p/sigma) on d^3p: this scale makes the outer product
        # carry the weight |psi|^2/q (the constant 8*pi*sigma^3 cancels)
        scale = np.exp(p / (2.0 * sigma))
        up = np.asarray(up, dtype=np.complex128) * scale
        down = np.asarray(down, dtype=np.complex128) * scale
        if state.basis != target_basis:
            for start in range(0, count, MC_BLOCK):
                blk = slice(start, start + MC_BLOCK)
                up[blk], down[blk] = transform(up[blk], down[blk], theta[blk], phi[blk])
        b = up.real**2 + up.imag**2 + down.real**2 + down.imag**2
        if not np.all(np.isfinite(b)):
            raise NumericalDomainError("amplitude is not finite at a sampled momentum")
        total += accumulate_outer(
            lambda a: [np.sum(a), np.sum(a.real**2 + a.imag**2), np.sum(a * b)], up, down
        )

    sum_a, sum_a2, sum_ab = total[..., 0], total[..., 1].real, total[..., 2]
    trace = sum_a[0, 0].real + sum_a[1, 1].real
    if not trace > 0.0:
        raise DegenerateInputError("amplitude vanished at every sampled momentum")
    value = sum_a / trace
    sum_b2 = sum_ab[0, 0].real + sum_ab[1, 1].real
    # delta method for a ratio: the residuals a - value*b, summed in squares
    residual = sum_a2 - 2.0 * (np.conj(value) * sum_ab).real + np.abs(value) ** 2 * sum_b2
    std_error = np.sqrt(np.maximum(residual, 0.0)) / trace
    # Kong's effective sample size; at most n, which equal weights reach and
    # rounding may pass
    ess = float(min(trace * trace / sum_b2, n_samples))
    return McEstimate(
        value=value, std_error=std_error, n_samples=int(n_samples), seed=int(seed), ess=ess
    )
