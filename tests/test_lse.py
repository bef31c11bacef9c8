"""The shared log-sum-exp helper, against scipy.special.logsumexp as the reference."""

import warnings

import numpy as np
import pytest
from scipy.special import logsumexp, softmax

from vblab._lse import _logsumexp, _logsumexp_weights

RNG = np.random.default_rng(20250810)


def _sample(shape, offset):
    # offsets of +-50 keep every result far from 0, where a relative bound means little
    return offset + 3.0 * RNG.standard_normal(shape)


@pytest.mark.parametrize("offset", [-50.0, 50.0])
@pytest.mark.parametrize("keepdims", [False, True])
@pytest.mark.parametrize("axis", [None, 0, 1, -1])
@pytest.mark.parametrize("shape", [(1, 1), (7, 3), (400, 4), (1600, 7), (90, 8), (64, 512)])
def test_matches_scipy_on_matrices(shape, axis, keepdims, offset):
    x = _sample(shape, offset)
    got = _logsumexp(x, axis=axis, keepdims=keepdims)
    want = logsumexp(x, axis=axis, keepdims=keepdims)
    if axis is None:  # a Python float, whatever keepdims says
        assert type(got) is float
    else:
        assert np.shape(got) == np.shape(want)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)


@pytest.mark.parametrize("offset", [-50.0, 50.0])
@pytest.mark.parametrize("size", [2, 3, 8, 17, 32, 64])
def test_matches_scipy_on_vectors(size, offset):
    x = _sample(size, offset)
    got = _logsumexp(x)
    assert type(got) is float
    assert got == pytest.approx(float(logsumexp(x)), rel=1e-13, abs=0)
    np.testing.assert_allclose(_logsumexp(x, axis=0), logsumexp(x, axis=0), rtol=1e-13, atol=0)


def test_short_rows_add_in_numpy_order():
    # the column-at-a-time reduction for fewer than 8 columns gives numpy's own sums
    for k in range(1, 8):
        x = _sample((500, k), 0.0)
        top = x.max(axis=1, keepdims=True)
        direct = np.log(np.exp(x - top).sum(axis=1, keepdims=True)) + top
        np.testing.assert_array_equal(_logsumexp(x, axis=1, keepdims=True), direct)


EDGE_ROWS = {
    "all -inf": [-np.inf, -np.inf, -np.inf],
    "+inf": [np.inf, 0.0, -np.inf],
    "nan": [np.nan, 0.0, 1.0],
    "mixed": [-np.inf, 0.5, -np.inf],
    "finite": [1.0, 2.0, 3.0],
}


@pytest.mark.parametrize("keepdims", [False, True])
@pytest.mark.parametrize("axis", [1, -1])
def test_edge_rows(axis, keepdims):
    x = np.array(list(EDGE_ROWS.values()))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _logsumexp(x, axis=axis, keepdims=keepdims)
    with np.errstate(all="ignore"):
        want = logsumexp(x, axis=axis, keepdims=keepdims)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)
    flat = np.ravel(got)
    assert flat[0] == -np.inf and flat[1] == np.inf and np.isnan(flat[2])


@pytest.mark.parametrize("name", sorted(EDGE_ROWS))
def test_edge_vectors(name):
    x = np.array(EDGE_ROWS[name])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _logsumexp(x)
    assert type(got) is float
    with np.errstate(all="ignore"):
        want = float(logsumexp(x))
    assert got == pytest.approx(want, rel=1e-13, abs=0, nan_ok=True)


def test_transposed_matrix_axis_zero():
    x = _sample((6, 300), 10.0)
    np.testing.assert_allclose(
        _logsumexp(x.T, axis=0, keepdims=True), logsumexp(x.T, axis=0, keepdims=True), rtol=1e-13
    )


@pytest.mark.parametrize("offset", [-50.0, 50.0])
@pytest.mark.parametrize("axis", [0, 1, -1])
@pytest.mark.parametrize("shape", [(1, 1), (7, 3), (400, 4), (90, 8), (64, 512)])
def test_weights_share_the_logsumexp(shape, axis, offset):
    x = _sample(shape, offset)
    lse, weights = _logsumexp_weights(x, axis=axis)
    np.testing.assert_array_equal(lse, _logsumexp(x, axis=axis))
    assert weights.shape == x.shape
    np.testing.assert_allclose(weights, softmax(x, axis=axis), rtol=1e-13, atol=0)


def test_weights_edge_rows_match_logsumexp():
    x = np.array(list(EDGE_ROWS.values()))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        lse, _ = _logsumexp_weights(x, axis=1)
    np.testing.assert_array_equal(lse, _logsumexp(x, axis=1))
