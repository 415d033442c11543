"""Spin-1/2 frame rotation and spin <-> helicity amplitude transforms.

The rotation carrying the z axis into the direction (theta, phi) is
represented on two-spinors by

    D(theta, phi) = [[exp(-i*phi/2), 0], [0, exp(i*phi/2)]]
                    @ [[cos(theta/2), -sin(theta/2)], [sin(theta/2), cos(theta/2)]]

Spin-basis amplitudes transform into helicity-basis ones with the inverse
rotation, and back with the rotation itself. The inverse is always taken as
the conjugate transpose (D is exactly unitary), never a generic inverse.
The entries of D are written once, in ``_rotation``; the matrix, both
vectorized transforms and both pointwise converters are built from them.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import ConfigurationError, ContractViolationError
from .quadrature import Momentum

Basis = Literal["spin", "helicity"]
SPIN: Basis = "spin"
HELICITY: Basis = "helicity"


@dataclass(frozen=True)
class AmplitudePair:
    """The two complex amplitudes at one momentum, tagged with their basis."""

    up: complex
    down: complex
    basis: Basis

    def __post_init__(self) -> None:
        if self.basis not in (SPIN, HELICITY):
            raise ConfigurationError(f"unknown basis tag {self.basis!r}")
        if not (np.isfinite(self.up) and np.isfinite(self.down)):
            raise ConfigurationError("amplitude components must be finite")


def _rotation(theta, phi):
    """The entries (d00, d01, d10, d11) of D(theta, phi) for scalar or array
    angles; array entries broadcast against each other."""
    half = 0.5 * np.asarray(theta, dtype=np.float64)
    c, s = np.cos(half), np.sin(half)
    e_minus = np.exp(-0.5j * np.asarray(phi, dtype=np.float64))
    e_plus = np.conj(e_minus)
    return e_minus * c, -e_minus * s, e_plus * s, e_plus * c


def wigner_rotation(theta: float, phi: float) -> np.ndarray:
    """The 2x2 unitary rotating the spin quantization axis into (theta, phi).

    Unitary with determinant 1 by construction. At theta = 0 or pi the matrix
    is still returned as written, but the azimuthal phase there is purely
    conventional (the direction does not single out an azimuth).
    """
    Momentum(0.0, theta, phi)  # validates the angles
    d00, d01, d10, d11 = _rotation(theta, phi)
    return np.array([[d00, d01], [d10, d11]], dtype=np.complex128)


def spin_components_to_helicity(up, down, theta, phi):
    """Vectorized inverse-rotation transform of spin components: applies the
    conjugate transpose of D at each (theta, phi).

    D is in SU(2), so its conjugate transpose [[d11, -d01], [-d10, d00]] is
    read off its entries: d11 = conj(d00) and d10 = -conj(d01) bit for bit.
    """
    d00, d01, d10, d11 = _rotation(theta, phi)
    return d11 * up - d01 * down, d00 * down - d10 * up


def helicity_components_to_spin(up, down, theta, phi):
    """Vectorized rotation transform of helicity components: applies D at
    each (theta, phi), the exact inverse of :func:`spin_components_to_helicity`."""
    d00, d01, d10, d11 = _rotation(theta, phi)
    return d00 * up + d01 * down, d10 * up + d11 * down


def _convert(a: AmplitudePair, direction: Momentum, source: Basis, target: Basis,
             transform) -> AmplitudePair:
    if a.basis != source:
        raise ContractViolationError(f"expected a {source}-tagged pair, got {a.basis!r}")
    up, down = transform(a.up, a.down, direction.theta, direction.phi)
    return AmplitudePair(up=complex(up), down=complex(down), basis=target)


def spin_to_helicity(a: AmplitudePair, direction: Momentum) -> AmplitudePair:
    """Re-express a spin-tagged amplitude pair in the helicity basis along
    the given momentum direction."""
    return _convert(a, direction, SPIN, HELICITY, spin_components_to_helicity)


def helicity_to_spin(a: AmplitudePair, direction: Momentum) -> AmplitudePair:
    """Re-express a helicity-tagged amplitude pair in the spin basis."""
    return _convert(a, direction, HELICITY, SPIN, helicity_components_to_spin)
