"""Exception types shared across the package."""


class ReplabError(Exception):
    """Base class for all package errors."""


class ValidationError(ReplabError, ValueError):
    """An input violates a documented invariant (shape, range, monotonicity)."""


class InputError(ValidationError):
    """An input file or command-line value cannot be read, parsed or used as given."""


class PreconditionError(ReplabError, RuntimeError):
    """A named hypothesis of a bound or experiment does not hold.

    `condition` carries a short machine-readable name so callers (notably the
    CLI) can report exactly which hypothesis failed.
    """

    def __init__(self, condition: str, message: str | None = None):
        self.condition = condition
        super().__init__(message or condition)


class SimulationError(ReplabError, RuntimeError):
    """A path became numerically invalid (non-finite state, nonpositive size)."""
