"""Independent ground truth: closed-form reference matrices and a seeded
Monte-Carlo estimator for the same reductions the quadrature path computes.

The closed forms are hand results: a z-polarized state with a
direction-independent momentum amplitude reduces in the helicity basis to
[[1/2, -pi/8], [-pi/8, 1/2]], and an isotropic +1/2-helicity state reduces
in the spin basis to the maximally mixed matrix.

The Monte-Carlo path importance-samples momenta directly from the state's
probability density (Gaussian radial magnitude via standard-normal triples,
angles via exact inverse CDFs), rotates the per-sample spinor into the
target basis, and averages outer products. Randomness is counter-based:
Philox streams keyed by (seed, tile index) with a fixed draw layout, and
tile partial sums are combined in tile order, so the estimate is
bit-identical regardless of how tiles would be sharded across workers.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .density import DensityMatrix2, accumulate_outer
from .entropy import von_neumann_entropy
from .errors import ConfigurationError, NumericalDomainError
from .states import OneParticleState
from .su2 import (
    SPIN,
    HELICITY,
    Basis,
    helicity_components_to_spin,
    spin_components_to_helicity,
)

#: Samples per Philox tile. Part of the determinism contract: changing it
#: changes the stream layout, so it is a constant, not a parameter.
MC_TILE = 4096
#: Uniform draws consumed per sample: four feed the Box-Muller normal triple
#: (the fourth output is discarded), one feeds cos(theta), one feeds phi.
_DRAWS_PER_SAMPLE = 6


@dataclass(frozen=True)
class McEstimate:
    """Monte-Carlo estimate of a reduced matrix with per-entry errors."""

    value: np.ndarray
    std_error: np.ndarray
    n_samples: int
    seed: int

    def __post_init__(self) -> None:
        if self.n_samples < 1:
            raise ConfigurationError("n_samples must be >= 1")
        if np.any(self.std_error < 0.0):
            raise ConfigurationError("standard errors must be non-negative")


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


def _sample_tile(state: OneParticleState, seed: int, tile_index: int, count: int):
    """Draw ``count`` momenta of tile ``tile_index`` from the state's density."""
    sampler = state.sampler
    rng = np.random.Generator(np.random.Philox(key=[seed, tile_index]))
    u = rng.random((count, _DRAWS_PER_SAMPLE))

    # Box-Muller pairs; clip away exact zeros so log stays finite.
    r1 = np.sqrt(-2.0 * np.log(np.clip(u[:, 0], np.finfo(float).tiny, None)))
    r2 = np.sqrt(-2.0 * np.log(np.clip(u[:, 2], np.finfo(float).tiny, None)))
    n1 = r1 * np.cos(2.0 * np.pi * u[:, 1])
    n2 = r1 * np.sin(2.0 * np.pi * u[:, 1])
    n3 = r2 * np.cos(2.0 * np.pi * u[:, 3])
    # |N(0, tau/sqrt(2)) triple| has density ~ p^2 exp(-p^2/tau^2)
    sigma = sampler.tau / np.sqrt(2.0)
    p = sigma * np.sqrt(n1 * n1 + n2 * n2 + n3 * n3)

    if abs(sampler.alpha) < 1e-12:
        cos_t = 2.0 * u[:, 4] - 1.0
    else:
        # invert CDF((1 + alpha*v)/2 on [-1, 1]) in closed form
        a = sampler.alpha
        cos_t = (-1.0 + np.sqrt(1.0 + a * (4.0 * u[:, 4] - 2.0) + a * a)) / a
        cos_t = np.clip(cos_t, -1.0, 1.0)
    theta = np.arccos(cos_t)
    phi = 2.0 * np.pi * u[:, 5]
    return p, theta, phi


def _tile_moments(values: np.ndarray) -> np.ndarray:
    """Sum and sum of squared moduli of one matrix entry over a tile."""
    return np.array([np.sum(values), np.sum(np.abs(values) ** 2)])


def mc_density(
    state: OneParticleState,
    target_basis: Basis,
    n_samples: int,
    seed: int,
    n_shards: int = 1,
) -> McEstimate:
    """Monte-Carlo estimate of the reduced matrix in ``target_basis``.

    Requires a family with an attached momentum sampler and a normalized
    amplitude. ``n_shards`` only batches tile evaluation (a worker-count
    stand-in); it never changes the returned bits.
    """
    if state.sampler is None:
        raise ConfigurationError(
            "state has no momentum sampler; Monte-Carlo needs an "
            "importance-samplable family"
        )
    if target_basis not in (SPIN, HELICITY):
        raise ConfigurationError(f"unknown basis tag {target_basis!r}")
    if n_samples < 100:
        raise ConfigurationError(f"n_samples must be >= 100, got {n_samples}")
    if n_shards < 1:
        raise ConfigurationError(f"n_shards must be >= 1, got {n_shards}")
    if not (0 <= seed < 2**64):
        raise ConfigurationError(f"seed must be a 64-bit unsigned integer, got {seed}")

    n_tiles = (n_samples + MC_TILE - 1) // MC_TILE
    sums = np.zeros((n_tiles, 2, 2), dtype=np.complex128)
    sq_sums = np.zeros((n_tiles, 2, 2), dtype=np.float64)

    # Shards own contiguous tile ranges; results are combined in tile order
    # below, so the shard layout cannot affect the outcome.
    bounds = np.linspace(0, n_tiles, n_shards + 1).astype(int)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        for t in range(lo, hi):
            count = min(MC_TILE, n_samples - t * MC_TILE)
            p, theta, phi = _sample_tile(state, seed, t, count)
            up, down = state.amplitude(p, theta, phi)
            up = np.asarray(up, dtype=np.complex128)
            down = np.asarray(down, dtype=np.complex128)
            weight = np.abs(up) ** 2 + np.abs(down) ** 2
            if np.any(weight == 0.0) or not np.all(np.isfinite(weight)):
                raise NumericalDomainError(
                    "amplitude vanished or diverged at a sampled momentum"
                )
            # normalize the spinor; its squared norm is the sampling density
            scale = 1.0 / np.sqrt(weight)
            up = up * scale
            down = down * scale
            if state.basis != target_basis:
                transform = (
                    spin_components_to_helicity
                    if target_basis == HELICITY
                    else helicity_components_to_spin
                )
                up, down = transform(up, down, theta, phi)
            moments = accumulate_outer(_tile_moments, up, down)
            sums[t] = moments[..., 0]
            sq_sums[t] = moments[..., 1].real

    total = sums.sum(axis=0)
    total_sq = sq_sums.sum(axis=0)
    mean = total / n_samples
    variance = np.maximum(total_sq / n_samples - np.abs(mean) ** 2, 0.0)
    std_error = np.sqrt(variance / max(n_samples - 1, 1))
    return McEstimate(
        value=mean, std_error=std_error, n_samples=int(n_samples), seed=int(seed)
    )
