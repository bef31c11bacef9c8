"""Tests for the piecewise-constant change-point model."""

import itertools
import math

import numpy as np
import pytest
from scipy.special import logsumexp

from vblab import changepoint
from vblab.changepoint import (
    CoordinatewisePosterior,
    GaussianDensity,
    GridChain,
    MarkovSitePrior,
    PiecewiseSignal,
    UniformDensity,
    UniformPositionsPrior,
    fit_markov_vb,
    fit_mean_field,
    grid_posterior,
    make_grid,
    make_piecewise_signal,
    make_prefix_signal,
    markov_chain_risks,
    mean_field_risks,
    risk,
    snap_to_grid,
)
from vblab.errors import InputError, NumericError


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

    @pytest.mark.parametrize("mean, variance, sigma", [(0.0, 1.0, 1.0), (0.3, 2.5, 0.7), (-4.0, 0.01, 3.0)])
    def test_gaussian_density_is_the_conjugate_tilt(self, mean, variance, sigma):
        # N(mean, variance) times the likelihood N(X, sigma^2) is Gaussian with precision
        # 1 / variance + 1 / sigma^2 and the precision-weighted mean
        X = np.array([-2.0, 0.0, 0.4, 1.5, 30.0])
        post = fit_mean_field(X, sigma, MarkovSitePrior(0.1, GaussianDensity(mean, variance)))
        var = variance * sigma**2 / (variance + sigma**2)
        np.testing.assert_allclose(post.variances, var, rtol=1e-15, atol=0)
        np.testing.assert_allclose(post.means, (mean * sigma**2 + X * variance) / (variance + sigma**2),
                                   rtol=1e-15, atol=1e-15)


class TestMeanFieldRisks:
    def test_rows_are_their_fits_alone(self, monkeypatch):
        # 3 x 40 cells hold three rows a block; a row far outside the support takes the tail branch
        blocks = []
        moments = changepoint._truncnorm_moments

        def recorded(x, *args):
            blocks.append(x.shape)
            return moments(x, *args)

        monkeypatch.setattr(changepoint, "_truncnorm_moments", recorded)
        monkeypatch.setattr(changepoint, "_MEAN_FIELD_CELLS", 3 * 40)
        prior = MarkovSitePrior(0.5, UniformDensity(-2.0, 2.0))
        signal = make_prefix_signal(40, 2, 1.0, seg_len=20)
        X = signal.values + 0.8 * np.random.default_rng(8).standard_normal((7, 40))
        X[5, 3] = 90.0
        got = mean_field_risks(X, 0.8, prior, signal)
        assert blocks == [(3, 40), (3, 40), (1, 40)]
        monkeypatch.undo()
        np.testing.assert_array_equal(got, [risk(fit_mean_field(x, 0.8, prior), signal) for x in X])

    @pytest.mark.parametrize(
        "density", [UniformDensity(-2.0, 2.0), GaussianDensity(0.3, 2.0)], ids=["uniform", "gaussian"]
    )
    def test_rows_have_the_bits_of_their_fits(self, monkeypatch, density):
        monkeypatch.setattr(changepoint, "_MEAN_FIELD_CELLS", 2 * 12)  # two rows a block
        prior = MarkovSitePrior(0.5, density)
        signal = make_prefix_signal(12, 2, 1.0, seg_len=6)
        X = signal.values + np.random.default_rng(9).standard_normal((5, 12))
        got = mean_field_risks(X, 1.0, prior, signal)
        np.testing.assert_array_equal(got, [risk(fit_mean_field(x, 1.0, prior), signal) for x in X])

    def test_input_checks(self):
        prior = MarkovSitePrior(0.5, UniformDensity(-2.0, 2.0))
        with pytest.raises(InputError, match="signal length"):
            mean_field_risks(np.zeros((2, 8)), 1.0, prior, PiecewiseSignalZero(9))
        with pytest.raises(InputError, match="unsupported value density"):
            mean_field_risks(np.zeros((2, 8)), 1.0, MarkovSitePrior(0.5, object()), PiecewiseSignalZero(8))
        with pytest.raises(InputError, match="built for n=6"):
            mean_field_risks(np.zeros((2, 8)), 1.0, UniformPositionsPrior.power(6, UniformDensity(-2.0, 2.0)),
                             PiecewiseSignalZero(8))


@pytest.mark.parametrize("sigma", [1e-160, 4.6e-261, 1e-310])
def test_mean_field_moments_at_tiny_sigma(sigma):
    # the standardized edges (lo - x) / sigma overflow when squared, and at a
    # subnormal sigma already in the division
    prior = MarkovSitePrior(0.5, UniformDensity(-2.0, 2.0))
    post = fit_mean_field(np.array([0.5, -0.3, 1.0]), sigma, prior)
    assert np.all(np.isfinite(post.means))
    assert np.all((post.means >= -2.0) & (post.means <= 2.0))
    assert np.all(post.variances >= 0.0)

def _tail_moments(x, sigma, lo, hi):
    """Truncated-Gaussian mean and variance by quadrature, for x outside [lo, hi].

    The density at distance u inside the nearer edge, over its value at the
    edge, is exp(-u (2 d + u) / (2 sigma^2)) with d the distance of x to the
    edge; so a far x underflows nothing.
    """
    from scipy.integrate import quad

    edge = hi if x > hi else lo
    d = abs(x - edge)
    width = min(hi - lo, 60 * sigma * sigma / d)  # the density is below e^-60 past that

    def moment(k):
        f = lambda u: u**k * math.exp(-u * (2 * d + u) / (2 * sigma**2))
        return quad(f, 0.0, width, epsabs=0.0, epsrel=1e-13, limit=200)[0]

    m0, m1, m2 = (moment(k) for k in range(3))
    gap = m1 / m0
    return (edge - gap if x > hi else edge + gap), m2 / m0 - gap**2


@pytest.mark.parametrize(
    "X, sigma, lo, hi",
    [
        ([3.0, 2.5], 0.01, -2.0, 2.0),  # 100 and 50 sigmas above hi
        ([2.38, -2.39], 0.01, -2.0, 2.0),  # 38 and 39 sigmas out, where z reached its floor
        ([-7.0, 1e6], 0.1, -2.0, 2.0),
        ([100.0], 1.0, 0.0, 0.01),  # a support narrower than the tail's decay length
    ],
)
def test_mean_field_moments_far_outside_support(X, sigma, lo, hi):
    # past _TAIL sigmas the moments are the nearer edge's tail, taken by quadrature
    post = fit_mean_field(np.array(X), sigma, MarkovSitePrior(0.5, UniformDensity(lo, hi)))
    assert np.all((post.means >= lo) & (post.means <= hi))
    for x, mean, var in zip(X, post.means, post.variances):
        want_mean, want_var = _tail_moments(x, sigma, lo, hi)
        edge = hi if x > hi else lo
        assert abs(mean - edge) == pytest.approx(abs(want_mean - edge), rel=1e-12)
        assert var == pytest.approx(want_var, rel=1e-9)


# (sigma, x, mean, variance) of the tilt of UniformDensity(-2, 2) by N(x, sigma^2), from a
# 40-digit mpmath quadrature: x inside, just outside, 2 sigmas below and 50 sigmas above
WIDE_SIGMA_MOMENTS = [
    (1e3, 0.5, 6.666663111111344e-07, 1.333332622222091),
    (1e3, 3.0, 3.999997866657473e-06, 1.3333326222127577),
    (1e3, -2002.0, -0.0026693290567115498, 1.3333283470354849),
    (1e3, 50002.0, 0.06662489036021414, 1.3306699738336272),
    (1e5, 0.5, 6.666666666311111e-11, 1.3333333332622221),
    (1e5, 3.0, 3.9999999997866666e-10, 1.3333333332622221),
    (1e5, -200002.0, -2.6666933329066568e-05, 1.333333332835547),
    (1e5, 5000002.0, 0.0006666668888532843, 1.3333330665953846),
    (1e8, 0.5, 6.666666666666666e-17, 1.3333333333333333),
    (1e8, 3.0, 4e-16, 1.3333333333333333),
    (1e8, -200000002.0, -2.666666693333333e-08, 1.3333333333333328),
    (1e8, 5000000002.0, 6.666666669332889e-07, 1.3333333333330666),
    (1e200, 0.5, 0.0, 1.3333333333333333),
    (1e200, 3.0, 0.0, 1.3333333333333333),
    (1e200, -2e200, 0.0, 1.3333333333333333),
    (1e200, 5e201, 0.0, 1.3333333333333333),
]


@pytest.mark.parametrize("sigma, x, want_mean, want_var", WIDE_SIGMA_MOMENTS)
def test_mean_field_moments_on_a_support_narrower_than_sigma(sigma, x, want_mean, want_var):
    # the closed-form variance cancels as (hi - lo) / sigma -> 0, and sigma^2 overflows past 1.3e154
    post = fit_mean_field(np.array([x]), sigma, MarkovSitePrior(0.5, UniformDensity(-2.0, 2.0)))
    assert abs(post.means[0] - want_mean) <= 4e-15
    assert post.variances[0] == pytest.approx(want_var, rel=1e-12)


# (x, mean, variance) of the tilt of UniformDensity(-2, 2) by N(x, 1), 2, 3, 5, 8 and 15 sigmas
# below and above the support, from the closed form in 80-digit mpmath, with the truncated
# mass taken from upper tails so that nothing cancels
OFF_SUPPORT_MOMENTS = [
    (-4.0, -1.6267846313299603, 0.11427848296746232),
    (4.0, 1.6267846313299603, 0.11427848296746232),
    (-5.0, -1.716901348723891, 0.07055917274943843),
    (5.0, 1.716901348723891, 0.07055917274943843),
    (-7.0, -1.813496032875702, 0.032696434611064355),
    (7.0, 1.813496032875702, 0.032696434611064355),
    (-10.0, -1.8786318877638872, 0.014324883443340866),
    (10.0, 1.8786318877638872, 0.014324883443340866),
    (-17.0, -1.933913172832178, 0.004330123757559894),
    (17.0, 1.933913172832178, 0.004330123757559894),
]


@pytest.mark.parametrize("x, want_mean, want_var", OFF_SUPPORT_MOMENTS)
def test_mean_field_moments_a_few_sigmas_outside_support(x, want_mean, want_var):
    # below lo the closed form's z = ndtr(b) - ndtr(a) cancels, leaving its variance off by
    # 5e-12 relative at 3 sigmas, 1e-7 at 5 and lost from about 8, so these take the quadrature
    post = fit_mean_field(np.array([x]), 1.0, MarkovSitePrior(0.5, UniformDensity(-2.0, 2.0)))
    assert post.means[0] == pytest.approx(want_mean, rel=1e-15, abs=0)
    assert post.variances[0] == pytest.approx(want_var, rel=1e-15, abs=0)


@pytest.mark.parametrize("sigma, want_var", [(1e3, 2.0 / (1.0 + 2e-6)), (1e200, 2.0)])
def test_gaussian_density_at_wide_sigma(sigma, want_var):
    # past sigma = 1.3e154 the likelihood's precision is 0 and the tilt is the prior itself
    post = fit_mean_field(np.array([0.5, 1e300]), sigma, MarkovSitePrior(0.5, GaussianDensity(0.3, 2.0)))
    np.testing.assert_allclose(post.variances, want_var, rtol=1e-15)
    np.testing.assert_allclose(post.means, want_var * (0.15 + np.array([0.5, 1e300]) / sigma / sigma), rtol=1e-15)


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

    @pytest.mark.parametrize("i", [-1, 2, 3])
    def test_pairwise_index_outside_the_steps(self, i):
        # three sites have the steps 0 and 1; -1 once read the last site's marginal
        prior = MarkovSitePrior(0.2, UniformDensity(-2.0, 2.0))
        chain = grid_posterior(np.zeros(3), 1.0, prior, make_grid(1.0, 1.0, G=16))
        with pytest.raises(InputError, match=r"pairwise needs 0 <= i < 2"):
            chain.pairwise(i)

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

        counts = np.zeros(n)
        for states in itertools.product(range(G), repeat=n):
            log_q = chain.log_initial[states[0]]
            for i in range(n - 1):
                log_q += chain.log_transitions[i][states[i], states[i + 1]]
            if not np.isfinite(log_q):
                continue
            c = sum(1 for i in range(1, n) if states[i] != states[i - 1])
            counts[c] += math.exp(log_q)
        assert counts.sum() == pytest.approx(1.0, abs=1e-10)
        assert chain.expected_change_count() == pytest.approx(
            float(np.dot(counts, np.arange(n))), abs=1e-10
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

    def test_chain_risk_where_squared_grid_errors_overflow(self):
        # grid errors near 1e200 square past float range; the posterior is a point
        # mass at the signal, so the risk is 0 on both paths and not inf * 0
        B, sigma, n = 1e200, 1.0, 60
        grid = make_grid(B, sigma, 16)
        signal = snap_to_grid(make_prefix_signal(n, 2, B, seg_len=20), grid)
        prior = MarkovSitePrior(1.0 / n, UniformDensity(-B - 1, B + 1))
        X = signal.values + sigma * np.random.default_rng(3).standard_normal((3, n))
        batch = markov_chain_risks(X, sigma, prior, grid, signal)
        one_by_one = [risk(grid_posterior(x, sigma, prior, grid), signal) for x in X]
        assert np.all(np.isfinite(batch)) and np.all(batch >= 0.0)
        np.testing.assert_array_equal(batch, one_by_one)

    def test_chain_risk_beyond_float_range_is_a_numeric_error(self):
        # sigma = 1e200 spreads the posterior over a grid 1e201 wide: the risk itself overflows
        B = sigma = 1e200
        grid = make_grid(B, sigma, 16)
        signal = PiecewiseSignal(values=np.zeros(8), k_star=1, B=B)
        prior = MarkovSitePrior(0.1, UniformDensity(-B - 1, B + 1))
        X = sigma * np.random.default_rng(4).standard_normal((2, 8))
        with pytest.raises(NumericError, match="beyond float range"):
            markov_chain_risks(X, sigma, prior, grid, signal)
        with pytest.raises(NumericError, match="beyond float range"):
            risk(grid_posterior(X[0], sigma, prior, grid), signal)

    def test_dimension_mismatch(self):
        prior = MarkovSitePrior(0.1, UniformDensity(-2.0, 2.0))
        post = fit_mean_field(np.zeros(3), 1.0, prior)
        with pytest.raises(InputError):
            risk(post, PiecewiseSignalZero(4))


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
        with pytest.raises(InputError):
            PiecewiseSignal(values=np.array([0.0, 1.0]), k_star=1, B=1.0)

    def test_nan_values_rejected(self):
        with pytest.raises(InputError, match="values"):
            PiecewiseSignal(values=np.array([np.nan, 0.0]), k_star=2, B=1.0)

    def test_snap_preserves_structure(self):
        grid = make_grid(1.0, 1.0, G=64)
        sig = make_piecewise_signal(64, 4, 1.0)
        snapped = snap_to_grid(sig, grid)
        assert set(np.unique(snapped.values)) <= set(grid)
        assert snapped.k_star <= 4

    def test_prefix_segment_length_validated(self):
        with pytest.raises(InputError):
            make_prefix_signal(64, 2, 1.0, seg_len=-4)

    def test_snap_takes_each_site_to_its_nearest_grid_value(self):
        # the distinct levels are snapped once; every site lands where its own argmin puts it,
        # a level halfway between two grid values and a signed zero included
        grid = make_grid(1.25, 1.0, G=64)
        halfway = 0.5 * (grid[33] + grid[34])
        values = np.array([0.9, 0.9, -0.0, 0.0, halfway, -0.9, -0.9, 0.3])
        snapped = snap_to_grid(PiecewiseSignal(values=values, k_star=5, B=1.25), grid)
        want = grid[np.argmin(np.abs(values[:, None] - grid[None, :]), axis=1)]
        assert snapped.values.tobytes() == want.tobytes()
        signal = make_prefix_signal(4096, 4, 1.25, seg_len=20, amplitude=0.9)
        want = grid[np.argmin(np.abs(signal.values[:, None] - grid[None, :]), axis=1)]
        assert snap_to_grid(signal, grid).values.tobytes() == want.tobytes()


@pytest.mark.parametrize("sigma", [1.0, 0.7, 1e-200])
def test_log_emissions_are_the_scaled_squares(sigma):
    # at sigma = 1 the division is skipped, which changes no bit
    grid = make_grid(1.25, 1.0, G=32)
    X = np.random.default_rng(3).normal(0.0, 1.5, (4, 9))
    with np.errstate(over="ignore"):
        want = -0.5 * ((grid[None, :, None] - X.T[:, None, :]) / sigma) ** 2
    assert changepoint._log_emissions(X, sigma, grid).tobytes() == want.tobytes()


class TestSigmaValidated:
    """Every posterior route rejects a non-positive noise level, as grid_posterior does."""

    @pytest.mark.parametrize("sigma", [0.0, -1.0])
    def test_markov_vb_uniform_positions(self, sigma):
        prior = UniformPositionsPrior.power(8, UniformDensity(-2.0, 2.0))
        grid = make_grid(1.0, 1.0, G=16)
        with pytest.raises(InputError, match="sigma"):
            fit_markov_vb(np.zeros(8), sigma, prior, grid)

    @pytest.mark.parametrize("sigma", [0.0, -1.0])
    def test_mean_field(self, sigma):
        prior = MarkovSitePrior(0.5, UniformDensity(-2.0, 2.0))
        with pytest.raises(InputError, match="sigma"):
            fit_mean_field(np.zeros(8), sigma, prior)

    @pytest.mark.parametrize("sigma", [0.0, -1.0])
    def test_mean_field_risks(self, sigma):
        prior = MarkovSitePrior(0.5, UniformDensity(-2.0, 2.0))
        with pytest.raises(InputError, match="sigma"):
            mean_field_risks(np.zeros((2, 8)), sigma, prior, PiecewiseSignalZero(8))

    @pytest.mark.parametrize("sigma", [0.0, -1.0])
    def test_markov_chain_risks(self, sigma):
        prior = MarkovSitePrior(0.1, UniformDensity(-2.0, 2.0))
        grid = make_grid(1.0, 1.0, G=16)
        with pytest.raises(InputError, match="sigma"):
            markov_chain_risks(np.zeros((2, 8)), sigma, prior, grid, PiecewiseSignalZero(8))


class TestGridValidated:
    """The three chain routes take a 1-d grid of at least two points, and nothing else."""

    GRIDS = pytest.mark.parametrize(
        "grid", [np.zeros((2, 8)), np.array([0.5]), np.array(0.5)], ids=["2-d", "1-point", "0-d"]
    )

    @GRIDS
    def test_markov_chain_risks(self, grid):
        prior = MarkovSitePrior(0.1, UniformDensity(-2.0, 2.0))
        with pytest.raises(InputError, match="grid"):
            markov_chain_risks(np.zeros((2, 8)), 1.0, prior, grid, PiecewiseSignalZero(8))

    @GRIDS
    def test_grid_posterior(self, grid):
        prior = MarkovSitePrior(0.1, UniformDensity(-2.0, 2.0))
        with pytest.raises(InputError, match="grid"):
            grid_posterior(np.zeros(8), 1.0, prior, grid)

    @GRIDS
    def test_markov_vb(self, grid):
        prior = UniformPositionsPrior.power(8, UniformDensity(-2.0, 2.0))
        with pytest.raises(InputError, match="grid"):
            fit_markov_vb(np.zeros(8), 1.0, prior, grid)


class TestDataValidated:
    """The posterior routes read X as a data array."""

    BAD_X = pytest.mark.parametrize(
        "X", [np.array([0.0, np.nan, 0.0]), np.zeros((2, 3))], ids=["nan", "2-d"]
    )

    @BAD_X
    def test_mean_field(self, X):
        prior = MarkovSitePrior(0.1, UniformDensity(-2.0, 2.0))
        with pytest.raises(InputError, match="X must be"):
            fit_mean_field(X, 1.0, prior)

    @BAD_X
    def test_grid_posterior(self, X):
        prior = MarkovSitePrior(0.1, UniformDensity(-2.0, 2.0))
        with pytest.raises(InputError, match="X must be"):
            grid_posterior(X, 1.0, prior, make_grid(1.0, 1.0, G=16))

    @pytest.mark.parametrize(
        "X_batch",
        [[[0.0, 1.0, 0.0], [0.0, 1.0]], np.zeros(3), [[0.0, np.nan, 0.0]]],
        ids=["ragged", "1-d", "nan"],
    )
    def test_markov_chain_risks(self, X_batch):
        prior = MarkovSitePrior(0.1, UniformDensity(-2.0, 2.0))
        zero = PiecewiseSignalZero(3)
        with pytest.raises(InputError, match="X_batch must be"):
            markov_chain_risks(X_batch, 1.0, prior, make_grid(1.0, 1.0, G=16), zero)

    @pytest.mark.parametrize(
        "X_batch",
        [[[0.0, 1.0, 0.0], [0.0, 1.0]], np.zeros(3), [[0.0, np.nan, 0.0]]],
        ids=["ragged", "1-d", "nan"],
    )
    def test_mean_field_risks(self, X_batch):
        prior = MarkovSitePrior(0.1, UniformDensity(-2.0, 2.0))
        with pytest.raises(InputError, match="X_batch must be"):
            mean_field_risks(X_batch, 1.0, prior, PiecewiseSignalZero(3))


@pytest.mark.parametrize(
    "mean,variance",
    [(math.nan, 1.0), (math.inf, 1.0), (0.0, math.inf), (0.0, math.nan), (0.0, 0.0)],
)
def test_gaussian_density_must_be_finite(mean, variance):
    with pytest.raises(InputError, match="mean|variance"):
        GaussianDensity(mean, variance)


def test_tiny_sigma_concentrates_without_overflow():
    # (grid - X) / sigma overflows when squared; those values take their -inf limit
    grid = make_grid(1.0, 1.0, G=16)
    signal = snap_to_grid(make_piecewise_signal(8, 2, 1.0), grid)
    prior = MarkovSitePrior(0.1, UniformDensity(-2.0, 2.0))
    X = np.stack([signal.values] * 2)
    np.testing.assert_array_equal(markov_chain_risks(X, 1e-200, prior, grid, signal), 0.0)
    with pytest.raises(NumericError, match="beyond reach"):
        markov_chain_risks(X + 0.01, 1e-200, prior, grid, signal)


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
