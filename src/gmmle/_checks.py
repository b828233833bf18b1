"""Argument checks shared by the public entry points."""

import numbers


def require_int(value, name: str) -> int:
    """``value`` as an int; ValueError naming ``name`` unless it is an integer (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)
