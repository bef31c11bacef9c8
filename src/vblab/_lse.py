"""The one log-sum-exp of vblab.

scipy.special.logsumexp goes through array-API dispatch that costs more
than the arithmetic on the short vectors and rows used here, and the
iterative fits (the batched CAVI stacks and the CRN normalizer) call it
once per step.
"""

import math

import numpy as np


def _shifted_exp(x: np.ndarray, axis: int):
    """The maximum over axis (0 where it is not finite) and exp(x - maximum)."""
    top = np.maximum.reduce(x, axis=axis, keepdims=True)
    bad = ~np.isfinite(top)
    if bad.any():
        top[bad] = 0.0
    return top, np.exp(x - top)


def _logsumexp(x, axis=None, keepdims=False):
    """log(sum(exp(x))) over ``axis``, shifted by the maximum.

    Where the maximum is not finite the shift is 0, so an all -inf slice
    gives -inf, a +inf entry gives inf and a nan gives nan.  With
    ``axis=None`` the result is a Python float and ``keepdims`` is unused.
    """
    x = np.asarray(x, dtype=float)
    if axis is None:
        top = x.max()
        if not math.isfinite(top):
            return float(top)
        return float(top + math.log(np.exp(x - top).sum()))
    top, shifted = _shifted_exp(x, axis)
    with np.errstate(divide="ignore"):  # an all -inf slice sums to 0
        out = np.log(shifted.sum(axis=axis, keepdims=True))
    out += top
    return out if keepdims else np.squeeze(out, axis=axis)


def _logsumexp_weights(x, axis: int):
    """_logsumexp(x, axis) and the normalized weights exp(x - logsumexp).

    Both come from one set of shifted exponentials: the weights are those
    divided by their sum along axis, so x is exponentiated once.
    """
    x = np.asarray(x, dtype=float)
    top, shifted = _shifted_exp(x, axis)
    total = shifted.sum(axis=axis, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):  # a non-finite slice has nan weights
        out = np.log(total)
        weights = shifted / total
    out += top
    return np.squeeze(out, axis=axis), weights
