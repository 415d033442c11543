"""Shared fixtures and state builders for the test suite."""
from __future__ import annotations

import numpy as np
import pytest

import helispin as hs
from helispin.states import OneParticleState


@pytest.fixture(scope="session")
def small_grid() -> hs.QuadratureGrid:
    """Coarse grid for bulk property tests; its 48 polar nodes put the
    low-order angular integrands in scope at roundoff."""
    return hs.build_grid(24, 48, 16, r_max=8.0)


@pytest.fixture(scope="session")
def default_grid() -> hs.QuadratureGrid:
    return hs.build_grid(r_max=8.0)


def random_state(rng: np.random.Generator, basis: str | None = None) -> OneParticleState:
    """A normalized-enough random packet: Gaussian radial profile times a
    low-order angular modulation with random complex spinor coefficients.

    Deliberately built as a bare evaluator (no product form) so it exercises
    the generic mesh reduction path.
    """
    coeffs = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
    # keep the modulated density strictly positive
    coeffs[:, 1:] *= 0.2
    tau = float(rng.uniform(0.6, 1.6))

    def amp(p, theta, phi):
        radial = np.exp(-(np.asarray(p) ** 2) / (2.0 * tau * tau))
        out = []
        for c in coeffs:
            angular = (
                c[0]
                + c[1] * np.cos(theta)
                + c[2] * np.sin(theta) * np.cos(phi)
                + c[3] * np.sin(theta) * np.sin(phi)
            )
            out.append(radial * angular)
        return out[0], out[1]

    chosen = basis if basis is not None else (hs.SPIN, hs.HELICITY)[int(rng.integers(2))]
    return OneParticleState(basis=chosen, amplitude=amp, label="random test packet")


def random_density_matrix(rng: np.random.Generator) -> np.ndarray:
    """A random valid 2x2 density matrix built from its spectral form."""
    lam = float(rng.uniform(0.0, 1.0))
    theta = float(rng.uniform(0.0, np.pi))
    phi = float(rng.uniform(0.0, 2.0 * np.pi))
    u = hs.wigner_rotation(theta, phi)
    return u @ np.diag([lam, 1.0 - lam]).astype(np.complex128) @ u.conj().T
