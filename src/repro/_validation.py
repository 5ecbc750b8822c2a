"""Input validation helpers shared across the :mod:`repro` package.

All public API entry points validate their inputs once, at the boundary,
and then operate on trusted ``float64`` numpy arrays internally.  The
helpers here raise ``ValueError``/``TypeError`` with messages that name
the offending argument, so failures surface close to the caller.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "as_float_array",
    "check_positive",
    "check_nonnegative",
    "check_positive_scalar",
    "check_nonnegative_scalar",
    "check_same_length",
    "check_index",
    "check_finite",
]


def as_float_array(values: Iterable[float] | np.ndarray, name: str) -> np.ndarray:
    """Convert ``values`` to a 1-D contiguous ``float64`` array.

    Parameters
    ----------
    values:
        Any sequence or array of numbers.
    name:
        Argument name used in error messages.

    Returns
    -------
    numpy.ndarray
        A 1-D ``float64`` array.  A copy is made only when needed, so
        callers may pass pre-converted arrays without paying for a copy.
    """
    arr = np.ascontiguousarray(values, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must contain only finite values")
    return arr


def check_finite(arr: np.ndarray, name: str) -> None:
    """Raise ``ValueError`` if ``arr`` contains NaN or infinities."""
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must contain only finite values")


def check_positive(arr: np.ndarray, name: str) -> None:
    """Raise ``ValueError`` unless every element of ``arr`` is > 0."""
    if (np.asarray(arr) <= 0.0).any():
        raise ValueError(f"all elements of {name} must be strictly positive")


def check_nonnegative(arr: np.ndarray, name: str) -> None:
    """Raise ``ValueError`` unless every element of ``arr`` is >= 0."""
    if (np.asarray(arr) < 0.0).any():
        raise ValueError(f"all elements of {name} must be non-negative")


def check_positive_scalar(value: float, name: str) -> float:
    """Validate that ``value`` is a finite scalar > 0 and return it as float."""
    value = float(value)
    if not math.isfinite(value) or value <= 0.0:
        raise ValueError(f"{name} must be a finite positive number, got {value!r}")
    return value


def check_nonnegative_scalar(value: float, name: str) -> float:
    """Validate that ``value`` is a finite scalar >= 0 and return it as float."""
    value = float(value)
    if not math.isfinite(value) or value < 0.0:
        raise ValueError(f"{name} must be a finite non-negative number, got {value!r}")
    return value


def check_same_length(name_a: str, a: Sequence | np.ndarray, name_b: str, b: Sequence | np.ndarray) -> None:
    """Raise ``ValueError`` unless ``a`` and ``b`` have equal length."""
    if len(a) != len(b):
        raise ValueError(
            f"{name_a} and {name_b} must have the same length, got {len(a)} and {len(b)}"
        )


def check_index(index: int, size: int, name: str = "index") -> int:
    """Validate an integer index into a collection of length ``size``."""
    index = int(index)
    if not 0 <= index < size:
        raise IndexError(f"{name} must be in [0, {size}), got {index}")
    return index
