"""Argument checks shared by the public entry points."""

import numbers

import numpy as np


def require_int(value, name: str) -> int:
    """``value`` as an int; ValueError naming ``name`` unless it is an integer (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def require_integral(values: np.ndarray, name: str) -> None:
    """ValueError naming ``name`` and the first float value an int64 cast
    would change (non-finite, fractional or too large); ints and bools pass."""
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
