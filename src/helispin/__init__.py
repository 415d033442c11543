"""Reduced spin and helicity density matrices, and their entanglement
entropies, for massive spin-1/2 one-particle momentum wave packets, all
observed in a single inertial frame.

The quadrature path (deterministic spherical Gauss-Legendre rules) is
cross-checked against closed-form oracles and a seeded Monte-Carlo
estimator; the ``helispin`` CLI runs declarative scenarios and parameter
sweeps with byte-reproducible reports.
"""

__version__ = "0.1.0"

from .density import (
    DensityMatrix2,
    EntropyReport,
    eigenvalues_hermitian2,
    reduced_helicity_density,
    reduced_spin_density,
    von_neumann_entropy,
)
from .errors import (
    ConfigurationError,
    ContractViolationError,
    DegenerateInputError,
    NumericalDomainError,
    ScenarioParseError,
)
from .oracles import (
    McEstimate,
    mc_density,
    oracle_helicity_matrix_theta_independent,
    oracle_spin_matrix_isotropic_helicity,
    oracle_spin_up_helicity_entropy,
)
from .quadrature import Momentum, QuadratureGrid, build_grid, integrate, refine
from .states import (
    OneParticleState,
    anisotropic_spin_up,
    gaussian_helicity_up,
    gaussian_spin_up,
    norm_squared,
    normalize,
    radial_profile,
    theta_independent_spin_up,
    with_basis,
)
from .su2 import (
    HELICITY,
    SPIN,
    AmplitudePair,
    helicity_to_spin,
    spin_to_helicity,
    wigner_rotation,
)

__all__ = [
    "__version__",
    "AmplitudePair",
    "ConfigurationError",
    "ContractViolationError",
    "DegenerateInputError",
    "DensityMatrix2",
    "EntropyReport",
    "HELICITY",
    "McEstimate",
    "Momentum",
    "NumericalDomainError",
    "OneParticleState",
    "QuadratureGrid",
    "SPIN",
    "ScenarioParseError",
    "anisotropic_spin_up",
    "build_grid",
    "eigenvalues_hermitian2",
    "gaussian_helicity_up",
    "gaussian_spin_up",
    "helicity_to_spin",
    "integrate",
    "mc_density",
    "norm_squared",
    "normalize",
    "oracle_helicity_matrix_theta_independent",
    "oracle_spin_matrix_isotropic_helicity",
    "oracle_spin_up_helicity_entropy",
    "radial_profile",
    "reduced_helicity_density",
    "reduced_spin_density",
    "refine",
    "spin_to_helicity",
    "theta_independent_spin_up",
    "von_neumann_entropy",
    "wigner_rotation",
    "with_basis",
]
