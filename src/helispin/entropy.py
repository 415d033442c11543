"""Binary von Neumann entropy of 2x2 density matrices.

The eigenvalues come from the closed-form helper
:func:`helispin.density.eigenvalues_hermitian2` (re-exported here); no
iteration is involved, so the pi/8-type matrices evaluate exactly. Entropy
is always in bits (base-2 logarithm), with the 0*log(0) = 0 convention.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .density import eigenvalues_hermitian2
from .errors import ContractViolationError, NumericalDomainError

#: Eigenvalues in [-CLAMP_TOL, 0) are treated as quadrature roundoff and
#: clamped to 0; anything more negative is a reduction bug and fails loudly.
CLAMP_TOL = 1e-10


@dataclass(frozen=True)
class EntropyReport:
    """Descending eigenvalue pair and the entropy they generate, in bits."""

    eigenvalues: tuple[float, float]
    entropy_bits: float


def von_neumann_entropy(m) -> EntropyReport:
    """Binary von Neumann entropy of a 2x2 density matrix.

    Eigenvalues in [-1e-10, 0) are clamped to zero before the logarithm;
    more negative ones raise, since they indicate an invalid input rather
    than roundoff.
    """
    hi, lo = eigenvalues_hermitian2(m)
    if lo < -CLAMP_TOL:
        raise NumericalDomainError(
            f"eigenvalue {lo} is negative beyond tolerance; not a density matrix"
        )
    if abs(hi + lo - 1.0) > 1e-10:
        raise ContractViolationError(f"eigenvalues sum to {hi + lo}, not 1")
    eigs = (min(max(hi, 0.0), 1.0), min(max(lo, 0.0), 1.0))
    s = -sum(v * np.log2(v) for v in eigs if v > 0.0) + 0.0  # +0.0 avoids -0.0
    return EntropyReport(eigenvalues=eigs, entropy_bits=float(s))
