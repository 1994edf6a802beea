"""The one rule for the numbers the library is given.

A count is an ``int`` or numpy integer, a real parameter any ``numbers.Real``
(numpy scalars included) and an array one of integer or float dtype. Any other
type (a bool, a string; a bool, string, object or complex array) is refused
with ``TypeError``, never coerced; a value not finite or outside its range
raises ``ValueError``. Each check returns the value converted: an ``int``, a
Python ``float`` or a float64 array (a float64 one uncopied). A float32 input
thus computes in float64, where NumPy 2 would keep float32 scalar arithmetic.
This module imports nothing else of the package, so every module can use it.
"""

from __future__ import annotations

import math
import numbers

import numpy as np


def _integer(name: str, value, low: int | None = None) -> int:
    """``value`` as an int, at least ``low`` when one is given."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    value = int(value)
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return value


def _real(name: str, value, low: float = -math.inf, strict: bool = False) -> float:
    """``value`` as a finite float, at least ``low`` (above it when ``strict``)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a real number, got {type(value).__name__}")
    try:
        value = float(value)
    except OverflowError:  # an int or a Fraction beyond float64
        value = math.inf
    if not math.isfinite(value) or value < low or (strict and value == low):
        bound = "" if low == -math.inf else f" {'>' if strict else '>='} {low:g}"
        raise ValueError(f"{name} must be a finite number{bound}, got {value!r}")
    return value


def _real_array(name: str, values, low: float = -math.inf, strict: bool = False) -> np.ndarray:
    """``values`` as a float64 array, all finite and at least ``low`` (above it if ``strict``)."""
    values = np.asarray(values)
    if values.dtype.kind not in "iuf":
        raise TypeError(f"{name} must be real numbers, got dtype {values.dtype}")
    values = values.astype(np.float64, copy=False)
    # only boolean temporaries, all freed before the caller's arithmetic on a large sample
    if not np.all(np.isfinite(values) & (values > low if strict else values >= low)):
        bound = "" if low == -math.inf else f" {'>' if strict else '>='} {low:g}"
        raise ValueError(f"{name} must be finite numbers{bound}")
    return values
