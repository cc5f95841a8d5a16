"""Exception hierarchy shared across the package.

Plain ``ValueError`` is used for local argument mistakes (bad shapes, negative
radii).  The classes below mark failures that callers are expected to branch
on, and the CLI maps them to stable exit codes.
"""

import numbers
from contextlib import contextmanager


class UmtnError(Exception):
    """Base class for package-specific failures."""

    exit_code = 1


class ConfigError(UmtnError):
    """A configuration object or file is inconsistent."""

    exit_code = 2


class DataError(UmtnError):
    """A dataset, checkpoint, or ingested file is invalid or corrupt."""

    exit_code = 3


class NumericalError(UmtnError):
    """A numerical procedure failed in a detectable way."""

    exit_code = 4


class ConditioningError(NumericalError):
    """A linear system is too ill-conditioned to solve reliably."""

    def __init__(self, message, condition_estimate=None):
        super().__init__(message)
        self.condition_estimate = condition_estimate


class DivergenceError(NumericalError):
    """An iteration produced non-finite values."""

    def __init__(self, message, at_time=None):
        super().__init__(message)
        self.at_time = at_time


@contextmanager
def invalid_field(field: str, error: type):
    """Raise `error` naming `field` when turning its value into an object fails.

    Inside the block, a missing key, a value of the wrong JSON type or value,
    or an inconsistent config means the file that held the value is wrong:
    a manifest is corrupt (DataError), a config file is bad (ConfigError).
    """
    try:
        yield
    except (KeyError, TypeError, ValueError, AttributeError, ConfigError) as exc:
        raise error(f"{field} is invalid: {exc!r}") from exc


def require_int(name: str, value, minimum: int) -> None:
    """Raise ConfigError naming `name` unless `value` is an integer (not a
    bool, not a float with an integral value) of at least `minimum`."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ConfigError(f"{name!r} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{name!r} must be at least {minimum}, got {value!r}")
