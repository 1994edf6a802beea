"""The one rule for the numbers the library is given.

A count is an ``int`` or numpy integer, a real parameter any ``numbers.Real``
(numpy scalars included) and a sample an array of finite positive values.
A bool, a string or any other type is refused with ``TypeError``, never
coerced; a value outside its range raises ``ValueError``. Each check returns
the value converted: an ``int``, a Python ``float`` or a float64 array. A
float32 parameter thus computes in float64, where NumPy 2 would keep its
scalar arithmetic in float32. This module imports nothing else of the
package, so every module can use it.
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


def _positive_array(name: str, values) -> np.ndarray:
    """``values`` as a float64 array whose values are all finite and strictly positive."""
    values = np.asarray(values, dtype=float)
    if not np.all((values > 0) & (values < np.inf)):
        raise ValueError(f"{name} must be finite and strictly positive")
    return values
