"""Exception types shared across the package."""


class InputError(ValueError):
    """An input value is malformed; ``field`` names the argument or file
    field it came in through, when known."""

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field


class DimensionError(InputError):
    """Operands have inconsistent or invalid dimensions."""


class DomainError(ValueError):
    """A point lies outside the domain of an operation (e.g. nonpositive
    fractional denominator)."""


class ConfigurationError(ValueError):
    """A solver or generator configuration is internally inconsistent."""


class ConvergenceError(RuntimeError):
    """A LAPACK eigenvalue or singular-value routine did not converge."""


class InstanceFormatError(InputError):
    """An instance file is malformed; ``field`` names the offending entry."""


class GenerationError(RuntimeError):
    """Random instance generation exceeded its rejection budget."""

    def __init__(self, message, acceptance_rate=None):
        super().__init__(message)
        self.acceptance_rate = acceptance_rate
