"""The O(nG) chain smoother against the dense log-space recursion.

The dense forward-backward below is the reference: it builds every
pairwise (G, G) log factor explicitly and costs O(n G^2) time and memory,
so it only runs on small instances here.
"""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import logsumexp

from vblab.changepoint import (
    GaussianDensity,
    MarkovSitePrior,
    UniformDensity,
    UniformPositionsPrior,
    _log_emissions,
    _site_kernel,
    _smooth,
    fit_markov_vb,
    grid_posterior,
    make_grid,
    make_prefix_signal,
    markov_chain_risks,
    risk,
    snap_to_grid,
)
from vblab.errors import InputError

TOL = 1e-12


def dense_forward_backward(log_init: np.ndarray, log_pair: np.ndarray):
    """Exact chain decomposition of a pairwise log score.

    log_pair[i] combines the transition score from site i to i+1 with the
    emission at site i+1; log_init already includes the first emission.
    Messages are renormalized every step, accumulating log Z.
    Returns (log_initial, log_transitions, log_Z, log_marginals).
    """
    n_steps = log_pair.shape[0]
    G = log_init.size
    log_z = 0.0
    la = np.empty((n_steps + 1, G))
    cur = log_init.copy()
    shift = logsumexp(cur)
    cur -= shift
    log_z += shift
    la[0] = cur
    for i in range(n_steps):
        cur = logsumexp(cur[:, None] + log_pair[i], axis=0)
        shift = logsumexp(cur)
        cur -= shift
        log_z += shift
        la[i + 1] = cur
    lb = np.zeros((n_steps + 1, G))
    for i in range(n_steps - 1, -1, -1):
        lb[i] = logsumexp(log_pair[i] + lb[i + 1][None, :], axis=1)
        lb[i] -= np.max(lb[i])
    log_q1 = log_init + lb[0]
    log_q1 -= logsumexp(log_q1)
    log_T = log_pair + lb[1:, None, :]
    log_T -= logsumexp(log_T, axis=2, keepdims=True)
    log_m = la + lb
    log_m -= logsumexp(log_m, axis=1, keepdims=True)
    return log_q1, log_T, log_z, log_m


def log_pmf(density, grid):
    lp = density.log_pdf(grid)
    return lp - logsumexp(lp)


def dense_site_posterior(X, sigma, prior: MarkovSitePrior, grid):
    G = grid.size
    lg = log_pmf(prior.value_density, grid)
    p = prior.change_prob
    with np.errstate(divide="ignore"):
        kernel = np.log((1.0 - p) * np.eye(G) + p * np.exp(lg)[None, :] * np.ones((G, 1)))
    emis = -0.5 * ((grid[None, :] - X[:, None]) / sigma) ** 2
    return dense_forward_backward(lg + emis[0], kernel[None, :, :] + emis[1:, None, :])


def dense_tilted(X, sigma, log_pmfs, grid, lam):
    """Pairwise factor 1 on the diagonal and e^lam g_b off it."""
    n, G = log_pmfs.shape
    emis = -0.5 * ((grid[None, :] - X[:, None]) / sigma) ** 2
    pair = np.empty((n - 1, G, G))
    for i in range(n - 1):
        block = np.tile(lam + log_pmfs[i + 1][None, :], (G, 1))
        np.fill_diagonal(block, 0.0)
        pair[i] = block + emis[i + 1][None, :]
    return dense_forward_backward(log_pmfs[0] + emis[0], pair)


def dense_markov_vb(X, sigma, prior: UniformPositionsPrior, grid, tol=1e-8, max_sweeps=500):
    """The tangent-surrogate sweep of fit_markov_vb on the dense recursion.

    Also returns the largest off-diagonal tilt e^lam g_b it used.
    """
    n = X.size
    w = prior.pattern_weight()
    slopes = np.diff(w)
    counts = np.arange(n, dtype=float)
    log_pmfs = np.stack([log_pmf(g, grid) for g in prior.site_densities])
    c_bar = float(np.dot(np.exp(prior.log_dimension_weights), counts))
    trace, prev, max_tilt = [], math.inf, 0.0
    for _ in range(max_sweeps):
        lam = float(slopes[min(int(c_bar), n - 2)])
        max_tilt = max(max_tilt, float(np.exp(lam + log_pmfs[1:]).max()))
        log_q1, log_T, log_z, log_m = dense_tilted(X, sigma, log_pmfs, grid, lam)
        objective = -log_z + float(np.max(lam * counts - w))
        trace.append(objective)
        if abs(prev - objective) <= tol * max(1.0, abs(objective)):
            break
        prev = objective
        stay = np.exp(log_m[:-1]) * np.exp(np.diagonal(log_T, axis1=1, axis2=2))
        c_bar = float(np.sum(1.0 - stay.sum(axis=1)))
    return log_q1, log_T, log_m, trace, max_tilt


def assert_chain_matches(chain, log_q1, log_T, log_m):
    np.testing.assert_allclose(chain.log_initial, log_q1, rtol=0, atol=TOL)
    np.testing.assert_allclose(chain.log_transitions, log_T, rtol=0, atol=TOL)
    m = np.exp(log_m)
    np.testing.assert_allclose(chain.marginals(), m, rtol=0, atol=TOL)
    T = np.exp(log_T)
    for i in range(chain.n_sites - 1):
        np.testing.assert_allclose(chain.pairwise(i), m[i][:, None] * T[i], rtol=0, atol=TOL)


def random_instance(rng, density_kind):
    n = int(rng.integers(2, 14))
    G = int(rng.integers(5, 21))
    sigma = float(rng.uniform(0.4, 1.5))
    grid = np.linspace(-3.0, 3.0, G)
    if density_kind == "uniform":
        density = UniformDensity(-2.0, 2.0)
    else:
        density = GaussianDensity(float(rng.uniform(-0.5, 0.5)), float(rng.uniform(0.3, 2.0)))
    X = rng.normal(0.0, 1.2, size=n)
    return X, sigma, grid, density


class TestSitePrior:
    @pytest.mark.parametrize("density_kind", ["uniform", "gaussian"])
    def test_matches_dense_recursion(self, density_kind):
        rng = np.random.default_rng(2024 if density_kind == "uniform" else 2025)
        for _ in range(25):
            X, sigma, grid, density = random_instance(rng, density_kind)
            prior = MarkovSitePrior(float(rng.uniform(0.01, 0.6)), density)
            chain = grid_posterior(X, sigma, prior, grid)
            log_q1, log_T, log_z, log_m = dense_site_posterior(X, sigma, prior, grid)
            assert_chain_matches(chain, log_q1, log_T, log_m)
            log_g, stay, move = _site_kernel(prior, grid)
            got = _smooth(log_g, _log_emissions(X[None, :], sigma, grid), stay, move)[2][0]
            assert got == pytest.approx(log_z, rel=TOL)

    def test_batched_risk_matches_chain_risk(self):
        rng = np.random.default_rng(7)
        n, G, sigma = 40, 24, 0.8
        grid = make_grid(1.0, sigma, G)
        signal = snap_to_grid(make_prefix_signal(n, 3, 1.0, seg_len=8), grid)
        prior = MarkovSitePrior(0.05, UniformDensity(-2.0, 2.0))
        X = signal.values + sigma * rng.standard_normal((7, n))
        batch = markov_chain_risks(X, sigma, prior, grid, signal, chunk=3)
        one_by_one = [risk(grid_posterior(x, sigma, prior, grid), signal) for x in X]
        np.testing.assert_allclose(batch, one_by_one, rtol=TOL)

    def test_density_without_mass_on_grid_is_rejected(self):
        grid = np.linspace(-3.0, 3.0, 16)
        prior = MarkovSitePrior(0.1, UniformDensity(10.0, 11.0))
        signal = snap_to_grid(make_prefix_signal(5, 1, 1.0), grid)
        with pytest.raises(InputError):
            grid_posterior(np.zeros(5), 1.0, prior, grid)
        with pytest.raises(InputError):
            markov_chain_risks(np.zeros((2, 5)), 1.0, prior, grid, signal)


class TestTiltedKernel:
    def test_tilt_above_one_matches_dense_recursion(self):
        # alternating data drive the expected change count to n - 1, where
        # the tangent slope makes e^lam g_b exceed 1 for the central values
        n, sigma = 10, 0.1
        grid = np.linspace(-1.0, 1.0, 9)
        prior = UniformPositionsPrior.power(n, GaussianDensity(0.0, 0.05), base=2.0)
        X = 0.25 * (-1.0) ** np.arange(n)
        chain = fit_markov_vb(X, sigma, prior, grid)
        log_q1, log_T, log_m, trace, max_tilt = dense_markov_vb(X, sigma, prior, grid)
        assert max_tilt > 1.0
        assert chain.converged
        np.testing.assert_allclose(chain.objective_trace, trace, rtol=TOL)
        assert_chain_matches(chain, log_q1, log_T, log_m)

    @pytest.mark.parametrize("lam", [-3.0, 0.0, 2.5])
    def test_smoother_matches_dense_recursion(self, lam):
        rng = np.random.default_rng(int(lam * 10) + 100)
        for _ in range(10):
            X, sigma, grid, density = random_instance(rng, "gaussian")
            log_g = log_pmf(density, grid)
            log_pmfs = np.tile(log_g, (X.size, 1))
            _, _, log_z, _ = dense_tilted(X, sigma, log_pmfs, grid, lam)
            got = _smooth(log_g, _log_emissions(X[None, :], sigma, grid), 1.0, np.exp(lam + log_g))
            assert got[2][0] == pytest.approx(log_z, rel=TOL)

    def test_sweeps_match_dense_on_random_instances(self):
        rng = np.random.default_rng(99)
        grid = np.linspace(-3.0, 3.0, 12)
        for _ in range(10):
            n = int(rng.integers(3, 16))
            prior = UniformPositionsPrior.power(n, UniformDensity(-2.0, 2.0), base=float(rng.uniform(1.5, n + 1.0)))
            X = rng.normal(0.0, 1.0, size=n) + np.where(np.arange(n) < n // 2, 1.0, -1.0)
            chain = fit_markov_vb(X, 1.0, prior, grid)
            log_q1, log_T, log_m, trace, _ = dense_markov_vb(X, 1.0, prior, grid)
            np.testing.assert_allclose(chain.objective_trace, trace, rtol=TOL)
            assert_chain_matches(chain, log_q1, log_T, log_m)


class TestLinearMemory:
    """Peak allocations stay O(nG): below 16 arrays of n x G doubles."""

    n, G = 4096, 64

    def setup_data(self):
        sigma, B = 1.0, 1.25
        grid = make_grid(B, sigma, self.G)
        signal = snap_to_grid(make_prefix_signal(self.n, 4, B, seg_len=20, amplitude=0.9), grid)
        X = signal.values + sigma * np.random.default_rng(5).standard_normal(self.n)
        return X, sigma, grid, signal, UniformDensity(-B - 1, B + 1)

    def peak_bytes(self, fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_grid_posterior_and_risk(self):
        X, sigma, grid, signal, density = self.setup_data()
        prior = MarkovSitePrior(1.0 / self.n, density)
        peak = self.peak_bytes(lambda: risk(grid_posterior(X, sigma, prior, grid), signal))
        assert peak < 16 * self.n * self.G * 8

    def test_fit_markov_vb_and_risk(self):
        X, sigma, grid, signal, density = self.setup_data()
        prior = UniformPositionsPrior.power(self.n, density)
        peak = self.peak_bytes(lambda: risk(fit_markov_vb(X, sigma, prior, grid), signal))
        assert peak < 16 * self.n * self.G * 8
