"""Exception types shared across the package."""


class DomainError(ValueError):
    """Input lies outside the mathematical domain of an operation."""


class CapacityError(ValueError):
    """Requested expansion order exceeds the supported cap."""


class ContractError(ValueError):
    """Operation invoked outside its stated precondition."""


class EvaluationError(ArithmeticError):
    """An evaluation lost finiteness or came out a negative probability."""


class AccuracyError(RuntimeError):
    """Adaptive integration stalled before reaching the requested tolerance.

    Carries the best available estimate and its error bound so callers can
    decide whether the partial answer is still usable.
    """

    def __init__(self, message: str, value: float, error: float):
        super().__init__(message)
        self.value = value
        self.error = error


class ConfigError(ValueError):
    """Configuration document rejected (syntax, schema, or value range)."""


#: Every exception type above, for callers that report any package error.
PACKAGE_ERRORS = (
    DomainError, CapacityError, ContractError, EvaluationError, AccuracyError, ConfigError
)
