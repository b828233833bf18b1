"""Argument checks shared by the public entry points."""

import math
import numbers

import numpy as np


def require_int(value, name: str, low: int | None = None, high: int | None = None) -> int:
    """``value``, an integer (numpy's too; a float, str or bool is refused,
    never truncated), as an int; else ValueError naming ``name``, as when it
    lies out of range: ``"{name} must be >= {low}, got {value!r}"`` with
    ``low`` alone, ``"{name}={value} outside [{low}, {high}]"`` with both."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if high is not None and not low <= value <= high:
        raise ValueError(f"{name}={value} outside [{low}, {high}]")
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}, got {value!r}")
    return value


def require_positive(value: float, name: str) -> float:
    """``value`` if it is finite and > 0, else ValueError
    ``"{name} must be finite and > 0, got {value!r}"``."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and > 0, got {value!r}")
    return value


def require_integral(values: np.ndarray, name: str) -> None:
    """ValueError naming ``name`` and a value an int64 cast would change:
    the first float that is non-finite, fractional or too large, or the
    largest unsigned integer if it is above 2**63 - 1; signed ints and bools pass."""
    if values.dtype.kind == "u" and values.size and values.max() > np.iinfo(np.int64).max:
        raise ValueError(f"{name} must be at most 2**63 - 1, got {int(values.max())}")
    if values.dtype.kind in "biu":
        return
    exact = (np.abs(values) < 2.0**63) & (np.floor(values) == values)
    if not exact.all():
        bad = float(values[np.argmin(exact)])
        raise ValueError(f"{name} must be finite integers, got {bad!r}")


def require_labels(values) -> np.ndarray:
    """``values`` as a 1-D int64 array of non-negative labels.

    Integer dtypes are taken as they are; floats only when every entry is
    finite and integral, the rule ``CountMatrix`` applies to counts, so the
    cast changes no label.  Anything else raises ValueError.
    """
    labels = np.asarray(values)
    if labels.ndim != 1:
        raise ValueError(f"labels must be 1-D, got shape {labels.shape}")
    if labels.dtype.kind not in "fiu":
        raise ValueError(f"labels must be integers, got dtype {labels.dtype}")
    require_integral(labels, "labels")
    labels = labels.astype(np.int64, copy=False)
    if (labels < 0).any():
        raise ValueError(f"labels must be non-negative, got {int(labels.min())}")
    return labels
