"""Semantic exception hierarchy shared by all vblab modules, and the data-array and count checks.

Every library entry point reads its data arrays (samples, observations,
signals, grids, evaluation points, coefficients) through data_array, and
its counts and indices (draws, grid sizes, sites) through count, so a
malformed argument raises InputError the same way wherever it enters.
"""

import numpy as np


class VblabError(Exception):
    """Base class for all vblab errors."""


class InputError(VblabError, ValueError):
    """Malformed or inconsistent inputs (shape mismatch, out-of-range index, ...)."""


class NumericError(VblabError, ArithmeticError):
    """A numerical routine missed its accuracy target, or an optimizer diverged."""


def data_array(value, name: str, ndim: int = 1, scalar: bool = False, empty: bool = False) -> np.ndarray:
    """value as a float array with ndim axes, at least one entry and only finite entries.

    ndim is 1 for a sample, signal or grid and 2 for a stack of samples;
    with scalar, a single number is taken as a one-entry 1-d array, and
    with empty, no entries are allowed (exponential-family coefficients).
    Raises InputError naming the array otherwise, or when value does not
    convert to floats at all (a ragged list, say).
    """
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise InputError(f"{name} must be an array of numbers") from None
    if scalar and arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != ndim or (arr.size == 0 and not empty) or not np.isfinite(arr).all():
        raise InputError(f"{name} must be a {'' if empty else 'non-empty '}{ndim}-d array of finite numbers")
    return arr


def count(value, name: str) -> int:
    """value as a non-negative int; a bool, a float or a negative number raises InputError naming it."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 0:
        raise InputError(f"{name} must be non-negative and an integer, got {value!r}")
    return int(value)
