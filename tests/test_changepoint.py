"""Tests for the piecewise-constant change-point model."""

import itertools
import math

import numpy as np
import pytest
from scipy.special import logsumexp

from vblab.changepoint import (
    CoordinatewisePosterior,
    GridChain,
    MarkovSitePrior,
    UniformDensity,
    UniformPositionsPrior,
    change_count_distribution,
    fit_markov_vb,
    fit_mean_field,
    grid_posterior,
    make_grid,
    make_piecewise_signal,
    make_prefix_signal,
    markov_chain_risks,
    mle_segmentation,
    risk,
    snap_to_grid,
)
from vblab.errors import InputError


def enumerate_joint(X, sigma, prior: MarkovSitePrior, grid):
    """Brute-force joint over all G^n grid configurations."""
    G = grid.size
    n = len(X)
    lg = prior.value_density.log_pdf(grid)
    lg = lg - logsumexp(lg)
    with np.errstate(divide="ignore"):
        kernel = np.log(
            (1 - prior.change_prob) * np.eye(G)
            + prior.change_prob * np.exp(lg)[None, :] * np.ones((G, 1))
        )
    emis = -0.5 * ((grid[None, :] - np.asarray(X)[:, None]) / sigma) ** 2
    log_joint = np.full((G,) * n, 0.0)
    shape_first = [1] * n
    shape_first[0] = G
    log_joint += (lg + emis[0]).reshape(shape_first)
    for i in range(1, n):
        shape = [1] * n
        shape[i - 1] = G
        shape[i] = G
        log_joint = log_joint + (kernel + emis[i][None, :]).reshape(shape)
    log_joint -= logsumexp(log_joint)
    return np.exp(log_joint)


def enum_marginals(joint):
    n = joint.ndim
    return np.stack(
        [joint.sum(axis=tuple(a for a in range(n) if a != i)) for i in range(n)]
    )


class TestMeanField:
    def test_symmetric_truncated_gaussian(self):
        prior = MarkovSitePrior(0.25, UniformDensity(-2.0, 2.0))
        post = fit_mean_field(np.zeros(5), 1.0, prior)
        assert post.kind == "truncated_gaussian"
        np.testing.assert_allclose(post.means, 0.0, atol=1e-14)
        assert np.all(post.variances < 1.0)  # truncation cuts the tails

    def test_moments_match_dense_grid(self):
        prior = MarkovSitePrior(0.1, UniformDensity(-2.0, 2.0))
        X = np.array([-1.3, 0.0, 0.4, 2.9])
        post = fit_mean_field(X, 0.7, prior)
        t = np.linspace(-2.0, 2.0, 100_001)
        trap = np.ones_like(t)
        trap[0] = trap[-1] = 0.5  # trapezoid ends, else the cut edges bias the mean
        for i, x in enumerate(X):
            w = trap * np.exp(-0.5 * ((t - x) / 0.7) ** 2)
            w /= w.sum()
            mean = float(w @ t)
            var = float(w @ (t - mean) ** 2)
            assert post.means[i] == pytest.approx(mean, abs=1e-6)
            assert post.variances[i] == pytest.approx(var, abs=1e-6)

    def test_risk_grows_with_n(self):
        # each site keeps at least its own tilted variance
        prior = MarkovSitePrior(0.1, UniformDensity(-2.0, 2.0))
        n = 512
        rng = np.random.default_rng(21)
        sigma_trunc = fit_mean_field(np.zeros(1), 1.0, prior).variances[0]
        signal = PiecewiseSignalZero(n)
        risks = []
        for _ in range(200):
            X = rng.normal(0.0, 1.0, size=n)
            risks.append(risk(fit_mean_field(X, 1.0, prior), signal))
        assert np.mean(risks) >= 0.5 * n * sigma_trunc

    def test_generic_density_needs_grid(self):
        from vblab.changepoint import GaussianDensity

        prior = MarkovSitePrior(0.1, GaussianDensity(0.0, 1.0))
        with pytest.raises(InputError):
            fit_mean_field(np.zeros(3), 1.0, prior)
        grid = make_grid(1.0, 1.0, G=301)
        post = fit_mean_field(np.zeros(3), 1.0, prior, grid=grid)
        assert post.kind == "grid"
        np.testing.assert_allclose(post.means, 0.0, atol=1e-9)
        # product of two standard normals has variance 1/2
        np.testing.assert_allclose(post.variances, 0.5, atol=1e-3)


def PiecewiseSignalZero(n):
    from vblab.changepoint import PiecewiseSignal

    return PiecewiseSignal(values=np.zeros(n), k_star=1, B=1.0)


class TestGridPosterior:
    def test_single_site(self):
        prior = MarkovSitePrior(0.3, UniformDensity(-2.0, 2.0))
        grid = make_grid(1.0, 1.0, G=32)
        chain = grid_posterior(np.array([0.5]), 1.0, prior, grid)
        lg = prior.value_density.log_pdf(grid)
        expected = lg - 0.5 * (grid - 0.5) ** 2
        expected = np.exp(expected - logsumexp(expected))
        np.testing.assert_allclose(chain.marginals()[0], expected, atol=1e-12)

    def test_tiny_change_probability_couples_sites(self):
        prior = MarkovSitePrior(1e-12, UniformDensity(-2.0, 2.0))
        grid = make_grid(1.0, 1.0, G=24)
        chain = grid_posterior(np.array([0.3, 0.5]), 1.0, prior, grid)
        joint = enumerate_joint([0.3, 0.5], 1.0, prior, grid)
        off_diag = joint.sum() - np.trace(joint)
        assert off_diag < 1e-9
        m = chain.marginals()
        np.testing.assert_allclose(m[0], m[1], atol=1e-6)

    @pytest.mark.parametrize(
        "n,G,sigma", [(3, 8, 1.0), (5, 8, 0.6), (3, 64, 1.2), (2, 100, 0.8)]
    )
    def test_matches_enumeration(self, n, G, sigma):
        # every instance here keeps G^n <= 1e6
        assert G**n <= 10**6
        rng = np.random.default_rng(n * 100 + G)
        prior = MarkovSitePrior(0.2, UniformDensity(-2.0, 2.0))
        half = 1.0 + 1.0 + 4.0 * sigma
        grid = np.linspace(-half, half, G)
        X = rng.normal(0.0, 1.0, size=n)
        chain = grid_posterior(X, sigma, prior, grid)
        joint = enumerate_joint(X, sigma, prior, grid)
        np.testing.assert_allclose(chain.marginals(), enum_marginals(joint), atol=1e-10)
        # pairwise marginals too
        for i in range(n - 1):
            pair = joint.sum(axis=tuple(a for a in range(n) if a not in (i, i + 1)))
            np.testing.assert_allclose(chain.pairwise(i), pair, atol=1e-10)

    def test_chain_reproduces_full_joint(self):
        # zero variational gap: the chain's product form IS the posterior
        n, G, sigma = 3, 8, 1.0
        rng = np.random.default_rng(44)
        prior = MarkovSitePrior(0.2, UniformDensity(-2.0, 2.0))
        grid = np.linspace(-6.0, 6.0, G)
        X = rng.normal(size=n)
        chain = grid_posterior(X, sigma, prior, grid)
        joint = enumerate_joint(X, sigma, prior, grid)
        q1 = np.exp(chain.log_initial)
        T1 = np.exp(chain.log_transitions[0])
        T2 = np.exp(chain.log_transitions[1])
        chain_joint = q1[:, None, None] * T1[:, :, None] * T2[None, :, :]
        np.testing.assert_allclose(chain_joint, joint, atol=1e-12)

    def test_sampling_matches_marginals(self):
        prior = MarkovSitePrior(0.15, UniformDensity(-2.0, 2.0))
        grid = make_grid(1.0, 1.0, G=24)
        rng = np.random.default_rng(17)
        X = rng.normal(size=12)
        chain = grid_posterior(X, 1.0, prior, grid)
        sig = PiecewiseSignalZero(12)
        draws = chain.sample(np.random.default_rng(5), 40_000)
        losses = np.sum(draws**2, axis=1)
        stderr = losses.std(ddof=1) / math.sqrt(losses.size)
        assert risk(chain, sig) == pytest.approx(float(losses.mean()), abs=4 * stderr)

    def test_rows_and_marginals_normalized(self):
        prior = MarkovSitePrior(0.05, UniformDensity(-2.0, 2.0))
        grid = make_grid(1.0, 1.0, G=48)
        rng = np.random.default_rng(6)
        chain = grid_posterior(rng.normal(size=40), 1.0, prior, grid)
        rows = np.exp(chain.log_transitions).sum(axis=2)
        np.testing.assert_allclose(rows, 1.0, atol=1e-10)
        np.testing.assert_allclose(chain.marginals().sum(axis=1), 1.0, atol=1e-10)


class TestFitMarkovVb:
    def test_markov_prior_is_exact_case(self):
        prior = MarkovSitePrior(0.1, UniformDensity(-2.0, 2.0))
        grid = make_grid(1.0, 1.0, G=24)
        rng = np.random.default_rng(12)
        X = rng.normal(size=10)
        a = grid_posterior(X, 1.0, prior, grid)
        b = fit_markov_vb(X, 1.0, prior, grid)
        np.testing.assert_array_equal(a.log_initial, b.log_initial)
        np.testing.assert_array_equal(a.log_transitions, b.log_transitions)

    def test_objective_monotone_on_random_instances(self):
        rng = np.random.default_rng(31415)
        grid = make_grid(1.0, 1.0, G=16)
        for _ in range(50):
            n = int(rng.integers(6, 25))
            prior = UniformPositionsPrior.power(n, UniformDensity(-2.0, 2.0))
            sig = make_piecewise_signal(n, int(rng.integers(1, 4)), 1.0)
            X = sig.values + rng.normal(0.0, 1.0, size=n)
            chain = fit_markov_vb(X, 1.0, prior, grid)
            trace = np.asarray(chain.objective_trace)
            assert np.all(np.diff(trace) <= 1e-9)
            assert chain.converged

    def test_single_site_positions_prior(self):
        prior = UniformPositionsPrior.power(1, UniformDensity(-2.0, 2.0), base=2.0)
        grid = np.linspace(-4.0, 4.0, 16)
        chain = fit_markov_vb(np.array([0.4]), 1.0, prior, grid)
        assert chain.converged
        expected = prior.value_density.log_pdf(grid) - 0.5 * (grid - 0.4) ** 2
        expected = np.exp(expected - logsumexp(expected))
        np.testing.assert_allclose(chain.marginals()[0], expected, atol=1e-12)

    def test_surrogate_objective_bounds_true_free_energy(self):
        # enumerate Phi with the exact pattern weight on a tiny instance
        n, G = 4, 6
        rng = np.random.default_rng(8)
        prior = UniformPositionsPrior.power(n, UniformDensity(-2.0, 2.0))
        grid = np.linspace(-2.0, 2.0, G)
        X = rng.normal(0.0, 1.0, size=n)
        chain = fit_markov_vb(X, 1.0, prior, grid)

        lg = prior.value_density.log_pdf(grid)
        lg = lg - logsumexp(lg)
        w = prior.pattern_weight()
        emis = -0.5 * (grid[None, :] - X[:, None]) ** 2
        f_true = 0.0
        for states in itertools.product(range(G), repeat=n):
            log_q = chain.log_initial[states[0]]
            for i in range(n - 1):
                log_q += chain.log_transitions[i][states[i], states[i + 1]]
            if not np.isfinite(log_q):
                continue
            changes = sum(1 for i in range(1, n) if states[i] != states[i - 1])
            phi = w[changes] + lg[states[0]] + emis[0, states[0]]
            for i in range(1, n):
                phi += emis[i, states[i]]
                if states[i] != states[i - 1]:
                    phi += lg[states[i]]
            f_true += math.exp(log_q) * (log_q - phi)
        assert chain.objective_trace[-1] >= f_true - 1e-9

    def test_count_distribution_against_enumeration(self):
        n, G = 4, 6
        prior = MarkovSitePrior(0.3, UniformDensity(-2.0, 2.0))
        grid = np.linspace(-2.0, 2.0, G)
        rng = np.random.default_rng(77)
        X = rng.normal(size=n)
        chain = grid_posterior(X, 1.0, prior, grid)
        pmf = change_count_distribution(chain)
        assert pmf.sum() == pytest.approx(1.0, abs=1e-10)

        counts = np.zeros(n)
        for states in itertools.product(range(G), repeat=n):
            log_q = chain.log_initial[states[0]]
            for i in range(n - 1):
                log_q += chain.log_transitions[i][states[i], states[i + 1]]
            if not np.isfinite(log_q):
                continue
            c = sum(1 for i in range(1, n) if states[i] != states[i - 1])
            counts[c] += math.exp(log_q)
        np.testing.assert_allclose(pmf, counts, atol=1e-10)
        assert chain.expected_change_count() == pytest.approx(
            float(np.dot(pmf, np.arange(n))), abs=1e-10
        )


class TestRisk:
    def test_point_mass_chain_is_zero(self):
        grid = np.linspace(-1.0, 1.0, 21)
        sig = make_piecewise_signal(6, 2, 1.0)
        snapped = snap_to_grid(sig, grid)
        idx = [int(np.argmin(np.abs(grid - v))) for v in snapped.values]
        G = grid.size
        with np.errstate(divide="ignore"):
            log_init = np.log(np.eye(G)[idx[0]])
        # every step jumps to (or stays at) the next signal value from any state
        weights = np.stack([np.eye(G)[idx[i + 1]] for i in range(5)])
        chain = GridChain(
            grid=grid, log_initial=log_init, stay=np.ones(G), move=np.ones(G), weights=weights
        )
        assert risk(chain, snapped) == 0.0

    def test_product_risk_additive(self):
        prior = MarkovSitePrior(0.1, UniformDensity(-2.0, 2.0))
        X = np.array([0.0, 0.5, -0.3])
        post = fit_mean_field(X, 1.0, prior)
        sig = PiecewiseSignalZero(3)
        total = risk(post, sig)
        per_site = sum(
            post.variances[i] + post.means[i] ** 2 for i in range(3)
        )
        assert total == pytest.approx(per_site, abs=1e-12)

    def test_dimension_mismatch(self):
        prior = MarkovSitePrior(0.1, UniformDensity(-2.0, 2.0))
        post = fit_mean_field(np.zeros(3), 1.0, prior)
        with pytest.raises(InputError):
            risk(post, PiecewiseSignalZero(4))


class TestMleSegmentation:
    def test_exact_two_piece(self):
        theta, sse = mle_segmentation(np.array([1.0, 1.0, 5.0, 5.0]), 2)
        np.testing.assert_allclose(theta, [1, 1, 5, 5])
        assert sse == pytest.approx(0.0, abs=1e-12)

    def test_single_piece_mean_fit(self):
        theta, sse = mle_segmentation(np.array([1.0, 1.0, 5.0, 5.0]), 1)
        np.testing.assert_allclose(theta, 3.0)
        assert sse == pytest.approx(16.0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=12)
        _, sse = mle_segmentation(X, 3)
        best = math.inf
        for b1 in range(1, 12):
            for b2 in range(b1, 12):
                cur = 0.0
                for lo, hi in ((0, b1), (b1, b2), (b2, 12)):
                    if hi > lo:
                        seg = X[lo:hi]
                        cur += float(np.sum((seg - seg.mean()) ** 2))
                best = min(best, cur)
        assert sse == pytest.approx(best, abs=1e-10)

    def test_m_out_of_range(self):
        with pytest.raises(InputError):
            mle_segmentation(np.ones(4), 0)
        with pytest.raises(InputError):
            mle_segmentation(np.ones(4), 5)


class TestRiskScales:
    def test_chain_risk_bounded_by_klogn(self):
        # 100 replications at n=256, k*=4: mean risk below 8 k* log(n) sigma^2
        n, k_star, sigma, B = 256, 4, 1.0, 1.0
        grid = make_grid(B, sigma, G=64)
        prior = MarkovSitePrior(1.0 / n, UniformDensity(-B - 1, B + 1))
        sig = snap_to_grid(make_piecewise_signal(n, k_star, B), grid)
        rng = np.random.default_rng(14)
        X = sig.values + sigma * rng.standard_normal((100, n))
        from vblab.changepoint import markov_chain_risks

        risks = markov_chain_risks(X, sigma, prior, grid, sig)
        assert risks.mean() <= 8.0 * k_star * math.log(n) * sigma**2

    def test_grid_refinement_shrinks_bias(self):
        # risk against an off-grid signal decreases as the grid doubles
        n, sigma, B = 96, 0.35, 1.0
        prior_p = 1.0 / n
        rng = np.random.default_rng(3)
        from vblab.changepoint import PiecewiseSignal

        values = np.where(np.arange(n) < n // 2, 0.437, -0.513)
        sig = PiecewiseSignal(values=values, k_star=2, B=B)
        X = sig.values + sigma * rng.standard_normal(n)
        risks = []
        for G in (16, 32, 64, 128):
            grid = make_grid(B, sigma, G=G)
            prior = MarkovSitePrior(prior_p, UniformDensity(-B - 1, B + 1))
            risks.append(risk(grid_posterior(X, sigma, prior, grid), sig))
        assert risks[0] > risks[1] > risks[2] > risks[3]


class TestSignals:
    def test_make_signal_properties(self):
        sig = make_piecewise_signal(100, 4, 1.0)
        assert sig.k_star == 4
        assert np.max(np.abs(sig.values)) <= 1.0

    def test_declared_pieces_validated(self):
        from vblab.changepoint import PiecewiseSignal

        with pytest.raises(InputError):
            PiecewiseSignal(values=np.array([0.0, 1.0]), k_star=1, B=1.0)

    def test_snap_preserves_structure(self):
        grid = make_grid(1.0, 1.0, G=64)
        sig = make_piecewise_signal(64, 4, 1.0)
        snapped = snap_to_grid(sig, grid)
        assert set(np.unique(snapped.values)) <= set(grid)
        assert snapped.k_star <= 4

    def test_prefix_segment_length_validated(self):
        with pytest.raises(InputError):
            make_prefix_signal(64, 2, 1.0, seg_len=-4)


class TestSigmaValidated:
    """Every posterior route rejects a non-positive noise level, as grid_posterior does."""

    @pytest.mark.parametrize("sigma", [0.0, -1.0])
    def test_mean_field(self, sigma):
        prior = MarkovSitePrior(0.5, UniformDensity(-2.0, 2.0))
        with pytest.raises(InputError, match="sigma"):
            fit_mean_field(np.zeros(8), sigma, prior)

    @pytest.mark.parametrize("sigma", [0.0, -1.0])
    def test_markov_chain_risks(self, sigma):
        prior = MarkovSitePrior(0.1, UniformDensity(-2.0, 2.0))
        grid = make_grid(1.0, 1.0, G=16)
        with pytest.raises(InputError, match="sigma"):
            markov_chain_risks(np.zeros((2, 8)), sigma, prior, grid, PiecewiseSignalZero(8))


class TestPriorSizeChecked:
    """A uniform-positions prior is built for one n; both routes reject other data sizes."""

    @pytest.mark.parametrize("n_data", [5, 7])
    def test_mean_field(self, n_data):
        prior = UniformPositionsPrior.power(6, UniformDensity(-2.0, 2.0))
        with pytest.raises(InputError, match="built for n=6"):
            fit_mean_field(np.zeros(n_data), 1.0, prior)

    @pytest.mark.parametrize("n_data", [5, 7])
    def test_markov_vb(self, n_data):
        prior = UniformPositionsPrior.power(6, UniformDensity(-2.0, 2.0))
        grid = make_grid(1.0, 1.0, G=16)
        with pytest.raises(InputError, match="built for n=6"):
            fit_markov_vb(np.zeros(n_data), 1.0, prior, grid)
