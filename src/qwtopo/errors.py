"""Exception types shared across the package, and the check for whole counts."""
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
    if isinstance(value, Integral) and not isinstance(value, bool):
        return int(value)
    raise ConfigError(f"{what} must be a whole number, got {value!r}")
