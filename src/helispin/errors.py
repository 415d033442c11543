"""Error taxonomy shared by all modules.

Each class holds the CLI's exit code and stderr label for it: configuration
/ parse problems exit 2, numerical-domain problems 3; an ``OSError`` exits 4.
"""


class HelispinError(Exception):
    """Base of helispin's errors: the CLI prints ``label: message``, exits ``exit_code``."""
    exit_code: int
    label: str


class ConfigurationError(HelispinError, ValueError):
    """Invalid construction parameters (counts, widths, sample sizes, ...)."""
    exit_code, label = 2, "input error"


class DegenerateInputError(HelispinError, ValueError):
    """Input that is formally valid but has no usable content (e.g. zero norm)."""
    exit_code, label = 3, "numerical error"


class NumericalDomainError(HelispinError, ArithmeticError):
    """Non-finite values or results outside the mathematically valid domain."""
    exit_code, label = 3, "numerical error"


class ContractViolationError(HelispinError, RuntimeError):
    """A documented precondition was violated (wrong basis tag, unnormalized state, ...)."""
    exit_code, label = 3, "numerical error"


class ScenarioParseError(HelispinError, ValueError):
    """Scenario or sweep file does not conform to the published schema."""
    exit_code, label = 2, "input error"
