"""The one log-sum-exp of vblab.

scipy.special.logsumexp goes through array-API dispatch that costs more
than the arithmetic on the short vectors and rows used here, and the
iterative fits (the batched CAVI stacks and the CRN normalizer) call it
once per step.
"""

import math

import numpy as np


def _shifted_exp(x: np.ndarray, axis: int, out=None):
    """The maximum over axis (0 where it is not finite) and exp(x - maximum), written to out if given."""
    top = np.maximum.reduce(x, axis=axis, keepdims=True)
    bad = ~np.isfinite(top)
    if bad.any():
        top[bad] = 0.0
    shifted = np.subtract(x, top, out=out)
    return top, np.exp(shifted, out=shifted)


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


def _logsumexp_weights(x, axis: int, out=None):
    """_logsumexp(x, axis) and the normalized weights exp(x - logsumexp), written to out if given.

    Both come from one set of shifted exponentials: the weights are those
    divided by their sum along axis, so x is exponentiated once.  out may be
    x itself, which a caller done with x passes to allocate nothing of its size.
    """
    x = np.asarray(x, dtype=float)
    top, weights = _shifted_exp(x, axis, out=out)
    total = weights.sum(axis=axis, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):  # a non-finite slice has nan weights
        lse = np.log(total)
        weights /= total
    lse += top
    return np.squeeze(lse, axis=axis), weights
