"""Exception types shared across the package, and the checks for whole counts and seeds."""
from __future__ import annotations

from numbers import Integral


class TopologyError(ValueError):
    """Invalid edge, node index, or topology specification."""


class ShapeError(ValueError):
    """Mismatched array dimensions between model and target quantities."""


class ConfigError(ValueError):
    """Inconsistent or out-of-range configuration values."""


def whole_count(value, what: str) -> int:
    """``value`` as an int if it is an integer (a numpy one too), else ConfigError; a bool is not a count."""
    if type(value) is int:  # the common case, ahead of the ABC check
        return value
    if isinstance(value, Integral) and not isinstance(value, bool):
        return int(value)
    raise ConfigError(f"{what} must be a whole number, got {value!r}")


def seed_value(value) -> int:
    """``value`` as a seed: a whole number >= 0, since NumPy refuses a negative one; else ConfigError."""
    if (seed := whole_count(value, "seed")) < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    return seed
