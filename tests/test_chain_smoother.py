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

from vblab import changepoint
from vblab.changepoint import (
    GaussianDensity,
    MarkovSitePrior,
    UniformDensity,
    UniformPositionsPrior,
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
from vblab.errors import InputError, NumericError

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
    log_pmfs = np.stack([log_pmf(g, grid) for g in (prior.value_density,) * n])
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
            log_g, diag, move = _site_kernel(prior, grid)
            assert _smooth(log_g, X, sigma, grid, diag, move)[2] == pytest.approx(log_z, rel=TOL)
            got = _smooth(log_g, [(X.size, changepoint._cut(X[None, :]))], sigma, grid, [diag], move[:, None])
            got = got[2][0, 0]
            assert got == pytest.approx(log_z, rel=TOL)

    def test_batched_risk_matches_chain_risk(self, monkeypatch):
        rng = np.random.default_rng(7)
        n, G, sigma = 40, 24, 0.8
        grid = make_grid(1.0, sigma, G)
        signal = snap_to_grid(make_prefix_signal(n, 3, 1.0, seg_len=8), grid)
        prior = MarkovSitePrior(0.05, UniformDensity(-2.0, 2.0))
        X = signal.values + sigma * rng.standard_normal((7, n))
        one_by_one = [risk(grid_posterior(x, sigma, prior, grid), signal) for x in X]
        live = int(np.isfinite(_site_kernel(prior, grid)[0]).sum())
        emissions = changepoint._log_emissions
        for sites, blocks in [(1, [1] * n), (3, [3] * 13 + [1])]:  # the last block read is ragged
            read = []

            def recording(X_block, *args):
                read.append(X_block.shape[-1])  # sites are the last axis
                return emissions(X_block, *args)

            monkeypatch.setattr(changepoint, "_log_emissions", recording)
            monkeypatch.setattr(changepoint, "_SMOOTH_CELLS", sites * 7 * live)
            batch = markov_chain_risks(X, sigma, prior, grid, signal)
            assert read == blocks
            np.testing.assert_allclose(batch, one_by_one, rtol=TOL)

    def test_batched_risk_with_underflowing_emissions(self):
        # at sigma = 0.05 most emissions underflow to 0, and with them the weight
        # emission * beta of most values; the stacked loss row never divides by beta
        n, R, sigma, B = 1024, 20, 0.05, 1.25
        grid = make_grid(B, sigma, 64)
        signal = snap_to_grid(make_prefix_signal(n, 4, B, seg_len=20, amplitude=0.9), grid)
        prior = MarkovSitePrior(1.0 / n, UniformDensity(-B - 1, B + 1))
        X = signal.values + sigma * np.random.default_rng(11).standard_normal((R, n))
        batch = markov_chain_risks(X, sigma, prior, grid, signal)
        one_by_one = [risk(grid_posterior(x, sigma, prior, grid), signal) for x in X]
        assert np.all(np.isfinite(batch))
        np.testing.assert_allclose(batch, one_by_one, rtol=TOL)

    def test_batched_risks_follow_their_rows(self):
        # each replication sits in its own column of the messages: permuting the
        # rows permutes the risks exactly, and a row run alone differs from its
        # batched risk only by the order of the sums over the grid
        rng = np.random.default_rng(12)
        n, sigma = 200, 1.0
        grid = make_grid(1.25, sigma, 64)
        signal = snap_to_grid(make_prefix_signal(n, 4, 1.25, seg_len=20, amplitude=0.9), grid)
        prior = MarkovSitePrior(1.0 / n, UniformDensity(-2.25, 2.25))
        X = signal.values + sigma * rng.standard_normal((16, n))
        batch = markov_chain_risks(X, sigma, prior, grid, signal)
        perm = rng.permutation(16)
        np.testing.assert_array_equal(markov_chain_risks(X[perm], sigma, prior, grid, signal), batch[perm])
        alone = [markov_chain_risks(x[None, :], sigma, prior, grid, signal)[0] for x in X]
        np.testing.assert_allclose(alone, batch, rtol=TOL)

    @pytest.mark.parametrize("R", [7, 13, 17])
    @pytest.mark.parametrize(
        "density", [UniformDensity(-2.25, 2.25), GaussianDensity(0.0, 1.5)], ids=["uniform", "gaussian"]
    )
    def test_batched_risks_follow_their_rows_at_odd_widths(self, R, density):
        # a reduction that splits the R columns into vector blocks and a remainder
        # (a BLAS product does) treats a row by where it sits; the column sums of
        # the kernel must not, at any width and for a constant or a varying move row
        rng = np.random.default_rng(R)
        n, sigma = 120, 1.0
        grid = make_grid(1.25, sigma, 64)
        signal = snap_to_grid(make_prefix_signal(n, 4, 1.25, seg_len=20, amplitude=0.9), grid)
        prior = MarkovSitePrior(1.0 / n, density)
        X = signal.values + sigma * rng.standard_normal((R, n))
        batch = markov_chain_risks(X, sigma, prior, grid, signal)
        perm = rng.permutation(R)
        np.testing.assert_array_equal(markov_chain_risks(X[perm], sigma, prior, grid, signal), batch[perm])
        alone = [markov_chain_risks(x[None, :], sigma, prior, grid, signal)[0] for x in X]
        np.testing.assert_allclose(alone, batch, rtol=TOL)

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

    @pytest.mark.parametrize("lam", [-3.0, 0.0, 2.5, 6.0, 9.0])
    def test_smoother_matches_dense_recursion(self, lam):
        # from lam = 6 on e^lam g_b runs into the tens or hundreds and the kernel's diag,
        # stay - move = 1 - e^lam g_b, goes negative: the diagonal of diag P +
        # (move . P) then cancels, yet the weights stay non-negative
        rng = np.random.default_rng(int(lam * 10) + 100)
        for _ in range(10):
            X, sigma, grid, density = random_instance(rng, "gaussian")
            log_g = log_pmf(density, grid)
            log_pmfs = np.tile(log_g, (X.size, 1))
            _, _, log_z, _ = dense_tilted(X, sigma, log_pmfs, grid, lam)
            move = np.exp(lam + log_g)
            assert lam < 6.0 or np.min(1.0 - move) < 0.0
            got = _smooth(log_g, X, sigma, grid, 1.0 - move, move)
            assert got[2] == pytest.approx(log_z, rel=TOL)
            assert np.all(got[1] >= 0.0)

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

    def test_markov_chain_risks(self):
        # a value density over the whole grid keeps all G values live, so the
        # emissions of every site for even 25 of the R replications would
        # take 26 MB; the site blocks hold the peak to the same O(nG) bound
        n, R, sigma, B = 2048, 32, 1.0, 1.25
        grid = make_grid(B, sigma, self.G)
        signal = snap_to_grid(make_prefix_signal(n, 4, B, seg_len=20, amplitude=0.9), grid)
        X = signal.values + sigma * np.random.default_rng(5).standard_normal((R, n))
        prior = MarkovSitePrior(1.0 / n, UniformDensity(grid[0], grid[-1]))
        peak = self.peak_bytes(lambda: markov_chain_risks(X, sigma, prior, grid, signal))
        assert peak < 16 * n * self.G * 8


class TestGridPass:
    """The n grid's groups of replications in one backward pass of the smoother."""

    ns, sigma, B = (40, 75, 128), 1.0, 1.25

    def risks(self, X, priors, grid, signals, labels=None):
        draws = [changepoint._cut(x) for x in X]
        return changepoint._grid_chain_risks(draws, self.sigma, priors, grid, signals, labels)

    def groups(self, R, density, seed=8):
        grid = make_grid(self.B, self.sigma, 32)
        rng = np.random.default_rng(seed)
        signals = [snap_to_grid(make_prefix_signal(n, 3, self.B, seg_len=10), grid) for n in self.ns]
        X = [s.values + self.sigma * rng.standard_normal((R, s.values.size)) for s in signals]
        priors = [MarkovSitePrior(1.0 / n, density) for n in self.ns]
        return X, priors, grid, signals

    @pytest.mark.parametrize("R", [1, 5])
    @pytest.mark.parametrize(
        "density", [UniformDensity(-2.25, 2.25), GaussianDensity(0.2, 1.5)], ids=["uniform", "gaussian"]
    )
    def test_each_group_is_its_n_alone(self, monkeypatch, R, density):
        # 7 sites a block while one group is open, 3 while two are and 2 while all three are:
        # block edges fall between the n values, and a lone replication runs as two columns
        X, priors, grid, signals = self.groups(R, density)
        live = int(np.isfinite(_site_kernel(priors[0], grid)[0]).sum())
        default = self.risks(X, priors, grid, signals)
        monkeypatch.setattr(changepoint, "_SMOOTH_CELLS", 7 * max(R, 2) * live)
        full = self.risks(X, priors, grid, signals)
        pair = self.risks(X[::2], priors[::2], grid, signals[::2])
        for k in range(len(self.ns)):
            alone = self.risks([X[k]], [priors[k]], grid, [signals[k]])[0]
            assert alone.tobytes() == full[k].tobytes() == default[k].tobytes()
            for r in range(R):
                row = markov_chain_risks(X[k][r : r + 1], self.sigma, priors[k], grid, signals[k])
                assert row.tobytes() == full[k][r : r + 1].tobytes()
            chains = [risk(grid_posterior(x, self.sigma, priors[k], grid), signals[k]) for x in X[k]]
            np.testing.assert_allclose(full[k], chains, rtol=TOL)
        assert [p.tobytes() for p in pair] == [full[0].tobytes(), full[2].tobytes()]

    def test_observation_beyond_reach_names_its_n(self):
        X, priors, grid, signals = self.groups(3, UniformDensity(-2.25, 2.25))
        X[1][2, 10] = 1e300
        labels = [f"n={n}" for n in self.ns]
        with pytest.raises(NumericError, match=r"^n=75: an observation is beyond reach of every grid value$"):
            self.risks(X, priors, grid, signals, labels)

    def test_priors_share_their_value_density(self):
        X, priors, grid, signals = self.groups(3, UniformDensity(-2.25, 2.25))
        priors[1] = MarkovSitePrior(1.0 / 75, GaussianDensity(0.0, 1.0))
        with pytest.raises(InputError, match="value density"):
            self.risks(X, priors, grid, signals)


@pytest.mark.filterwarnings("error")
class TestImpossibleData:
    """Data no chain of the prior reaches: one NumericError, and no warning before it."""

    sigma, grid = 0.01, make_grid(1.0, 0.01, 16)
    prior = MarkovSitePrior(1e-300, UniformDensity(-2.0, 2.0))  # the two changes weigh 1e-600
    X = np.array([-1.0, 1.0, -1.0])
    underflow = "chain smoother underflowed: the data are impossible under the prior$"

    def test_grid_posterior(self):
        with pytest.raises(NumericError, match="^" + self.underflow):
            grid_posterior(self.X, self.sigma, self.prior, self.grid)

    def test_markov_chain_risks(self):
        signal = changepoint.PiecewiseSignal(values=self.X, k_star=3, B=1.0)
        with pytest.raises(NumericError, match="^" + self.underflow):
            markov_chain_risks(np.stack([self.X, self.X]), self.sigma, self.prior, self.grid, signal)

    def test_grid_pass_names_its_n(self):
        # the n = 2 group alone runs; in the pass, the n = 3 group fails and is named
        X = [np.array([[-1.0, -1.0]]), self.X[None, :]]
        signals = [changepoint.PiecewiseSignal(values=x[0], k_star=k, B=1.0) for x, k in zip(X, (1, 3))]
        draws = [changepoint._cut(x) for x in X]
        alone = changepoint._grid_chain_risks(draws[:1], self.sigma, [self.prior], self.grid, signals[:1])
        assert np.isfinite(alone[0]).all()
        with pytest.raises(NumericError, match="^n=3: " + self.underflow):
            changepoint._grid_chain_risks(draws, self.sigma, [self.prior] * 2, self.grid, signals, ["n=2", "n=3"])


class TestBlockedForward:
    def test_step_blocks_keep_the_marginals(self, monkeypatch):
        # 3 steps a block leaves a ragged last block; every step's factors are its own row's
        n, sigma, grid = 50, 0.8, make_grid(1.0, 0.8, 24)
        X = np.random.default_rng(4).normal(0.0, 1.0, n)
        chains = [
            grid_posterior(X, sigma, MarkovSitePrior(0.05, UniformDensity(-2.0, 2.0)), grid),
            fit_markov_vb(X, sigma, UniformPositionsPrior.power(n, GaussianDensity(0.0, 1.0)), grid),
        ]
        whole = [(c.marginals(), c.expected_change_count()) for c in chains]
        monkeypatch.setattr(changepoint, "_FORWARD_CELLS", 3 * grid.size)
        for chain, (m, count) in zip(chains, whole):
            assert chain.marginals().tobytes() == m.tobytes()
            assert chain.expected_change_count() == count

    def test_risk_holds_no_table_of_step_factors(self):
        # the marginals, the scaled errors and their product: three (n, G) tables, where the
        # whole-chain step factors added three more
        n, G, sigma, B = 4096, 64, 1.0, 1.25
        grid = make_grid(B, sigma, G)
        signal = snap_to_grid(make_prefix_signal(n, 4, B, seg_len=20, amplitude=0.9), grid)
        X = signal.values + sigma * np.random.default_rng(5).standard_normal(n)
        chain = grid_posterior(X, sigma, MarkovSitePrior(1.0 / n, UniformDensity(-B - 1, B + 1)), grid)
        tracemalloc.start()
        try:
            risk(chain, signal)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * n * G * 8
