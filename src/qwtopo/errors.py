"""Exception types shared across the package."""
from __future__ import annotations


class TopologyError(ValueError):
    """Invalid edge, node index, or topology specification."""


class ShapeError(ValueError):
    """Mismatched array dimensions between model and target quantities."""


class ConfigError(ValueError):
    """Inconsistent or out-of-range configuration values."""
