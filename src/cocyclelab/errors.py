"""Exception types shared across the package."""


class CocycleLabError(Exception):
    """Base class for all package-specific errors."""


class DomainError(CocycleLabError, ValueError):
    """An argument is outside the mathematical domain of the operation."""


class NotPositiveError(DomainError):
    """A strictly positive matrix was required."""


class UnderflowError_(CocycleLabError, ArithmeticError):
    """A structurally nonzero entry collapsed to float zero.

    Raised instead of silently merging the entry into the zero pattern;
    the boolean support is the single source of truth for zeros.
    """

    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position


class RangeError(CocycleLabError, OverflowError):
    """A value left the representable floating-point range; rescale inputs."""


class CapacityError(CocycleLabError):
    """A sieved source was asked past its declared capacity."""

    def __init__(self, message, required):
        super().__init__(message)
        self.required = required


class InvalidProgramError(CocycleLabError, ValueError):
    """A block program produced an empty block or inconsistent symbols."""


class MarkerNotFoundError(CocycleLabError):
    """No occurrence of the marker word within the scanned horizon."""

    def __init__(self, message, horizon):
        super().__init__(message)
        self.horizon = horizon


class InsufficientContextError(CocycleLabError, ValueError):
    """A prefix was too short for the requested window or product."""

    def __init__(self, message, required=None):
        super().__init__(message)
        self.required = required


class ConditionUnsatisfiedError(CocycleLabError):
    """No positivity witness was found within the search horizon."""


class ConfigError(CocycleLabError, ValueError):
    """Bad scenario name, override, or serialized description."""
