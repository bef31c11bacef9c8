"""Tests for the trigonometric exponential family and its Gaussian mean-field fit."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from vblab.changepoint import _unit_rule
from vblab.errors import InputError, NumericError
from vblab.expfamily import (
    FourierDensity,
    GaussMFVariational,
    OptConfig,
    basis_matrix,
    d2_numeric,
    elbo,
    elbo_and_gradient,
    fit_gaussian_mf,
    hellinger_numeric,
    kl_numeric,
    log_normalizer,
    pdf,
    sample,
)
from vblab import expfamily
from vblab._lse import _logsumexp_weights
from vblab.expfamily import (
    _ELBO_CAP,
    _ELBO_MAX_NODES,
    _ELBO_TARGET,
    _elbo_nodes,
    _elbo_rule,
    _exact_nodes,
    _normalizer_stats,
    _rule_error,
    fit_gaussian_mf_batch,
)

S0 = 1.0  # prior variance of each coefficient
# every active length whose ELBO rule meets the target at the cap
ADMITTED = [k for k in range(1, 33) if _rule_error(_elbo_nodes(k), (k + 1) // 2, _ELBO_CAP) <= _ELBO_TARGET]


def cap_draws(k, seed):
    """Coefficient draws on the cap, ||theta||_1 = _ELBO_CAP: all the mass on one
    coefficient (either sign, each coefficient), split over the top-frequency pair,
    and random."""
    norm = _ELBO_CAP
    single = norm * np.concatenate([np.eye(k), -np.eye(k)])
    top = np.zeros((4, k))
    top[:, k - 1] = norm * np.array([1.0, -1.0, 0.5, -0.5])
    if k % 2 == 0:
        top[2:, k - 2] = norm * np.array([0.5, -0.5])
    else:
        top[2:, k - 1] *= 2.0
    rng = np.random.default_rng(seed)
    spread = rng.dirichlet(np.ones(k), size=64) * rng.choice([-1.0, 1.0], size=(64, k))
    return np.concatenate([single, top, norm * spread])


def ref_fit(data, s0, k, cfg, nodes=_ELBO_MAX_NODES):
    """The per-fit gradient ascent the stacked fit replaced, on one fixed trapezoidal rule.

    A rule below _ELBO_MAX_NODES exponentiates the draws without a shift,
    as the ELBO does for draws within the cap; the 512-node rule shifts
    each draw by its maximum.  Returns the best (mu, sigma2) and the
    largest ||theta||_1 of any draw.
    """
    H = _elbo_rule(k, nodes)
    suff, n = basis_matrix(data, k).sum(axis=0), data.size
    eps = np.random.default_rng(cfg.seed).standard_normal((cfg.n_mc, k))
    mu, log_sigma = np.zeros(k), np.full(k, -0.5 * math.log(n))
    best_value, best, widest = -math.inf, (mu, log_sigma), 0.0
    for _ in range(cfg.n_iters):
        sigma = np.exp(log_sigma)
        draws = mu[None, :] + sigma[None, :] * eps
        widest = max(widest, float(np.abs(draws).sum(axis=1).max()))
        g = draws @ H.T
        top = g.max(axis=1) if nodes == _ELBO_MAX_NODES else np.zeros(len(g))
        f = np.exp(g - top[:, None])
        total = f.sum(axis=1)
        c, moments = np.log(total / nodes) + top, (f @ H) / total[:, None]
        kl = 0.5 * np.sum((sigma**2 + mu**2) / s0 - 1.0 - np.log(sigma**2 / s0))
        value = float(mu @ suff - n * float(c.mean()) - kl)
        grad_mu = suff - n * moments.mean(axis=0) - mu / s0
        grad_ls = -n * (moments * eps).mean(axis=0) * sigma - (sigma**2 / s0 - 1.0)
        if value > best_value:
            best_value, best = value, (mu.copy(), log_sigma.copy())
        mu = mu + cfg.step_size * grad_mu / n
        log_sigma = np.maximum(log_sigma + cfg.step_size * grad_ls / n, -13.8)
    return best[0], np.exp(2.0 * best[1]), widest


class TestNormalizer:
    def test_zero_coefficients(self):
        assert log_normalizer(np.zeros(4)) == 0.0
        assert log_normalizer(np.array([])) == 0.0
        assert FourierDensity([]).c == 0.0

    def test_against_dense_trapezoid(self):
        theta = np.array([0.5])
        x = np.linspace(0.0, 1.0, 10**6 + 1)
        vals = np.exp(math.sqrt(2.0) * 0.5 * np.cos(2 * math.pi * x))
        oracle = math.log(np.trapezoid(vals, x))
        assert log_normalizer(theta) == pytest.approx(oracle, abs=1e-9)

    def test_jensen_positivity(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            theta = rng.normal(scale=0.5, size=rng.integers(1, 6))
            assert log_normalizer(theta) > 0.0  # strict unless all h-terms vanish


class TestPdfAndSampling:
    def test_uniform_when_flat(self):
        np.testing.assert_allclose(pdf(np.zeros(3), np.linspace(0, 1, 11)), 1.0, atol=1e-12)

    def test_pdf_normalized_for_random_theta(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            theta = rng.normal(scale=0.6, size=int(rng.integers(1, 7)))
            d = FourierDensity(theta)
            x = np.linspace(0.0, 1.0, 20_001)
            total = np.trapezoid(np.exp(d.log_pdf(x)), x)
            assert total == pytest.approx(1.0, abs=1e-8)

    def test_domain_validated(self):
        with pytest.raises(InputError):
            pdf(np.zeros(2), np.array([1.2]))

    def test_uniform_sampling_ks(self):
        m = 4000
        draws = sample(np.zeros(2), m, seed=11)
        grid = np.sort(draws)
        emp = np.arange(1, m + 1) / m
        ks = np.max(np.abs(emp - grid))
        assert ks < 1.63 / math.sqrt(m)  # 1% critical value

    def test_sampling_ks_against_quadrature_cdf(self):
        rng = np.random.default_rng(9)
        theta = rng.normal(scale=0.5, size=4)
        d = FourierDensity(theta)
        m = 4000
        draws = np.sort(sample(d, m, seed=13))
        xs = np.linspace(0.0, 1.0, 40_001)
        dens = np.exp(d.log_pdf(xs))
        cdf = np.concatenate(([0.0], np.cumsum((dens[1:] + dens[:-1]) / 2 * np.diff(xs))))
        cdf /= cdf[-1]
        F = np.interp(draws, xs, cdf)
        ks = np.max(np.abs(np.arange(1, m + 1) / m - F))
        assert ks < 1.63 / math.sqrt(m)

    def test_sufficient_statistic_matches_normalizer_slope(self):
        theta = np.array([0.4, -0.2])
        m = 60_000
        draws = sample(theta, m, seed=17)
        stat = basis_matrix(draws, 1)[:, 0]
        h = 1e-5
        fd = (log_normalizer([0.4 + h, -0.2]) - log_normalizer([0.4 - h, -0.2])) / (2 * h)
        stderr = stat.std(ddof=1) / math.sqrt(m)
        assert stat.mean() == pytest.approx(fd, abs=4 * stderr)

    def test_deterministic_given_seed(self):
        a = sample(np.array([0.3]), 100, seed=5)
        b = sample(np.array([0.3]), 100, seed=5)
        np.testing.assert_array_equal(a, b)


# (theta_a, theta_b, H^2) at k = 3, H^2 from 40-digit mpmath sums over the 320-node trapezoidal rule,
# which agree with 160 nodes to 30 digits; mpmath is not a test dependency, so the values are written here
SMALL_H2 = [
    (
        [-0.7664963940998645, -0.05172321107387502, -0.8413288963341025],
        [-0.7664943465801143, -0.05172134596112505, -0.8413294699344008],
        9.5004165321577377e-13,
    ),
    (
        [0.21710424148656898, -0.14288900907344423, 0.6835352845889194],
        [0.21709957615697545, -0.14289662271051373, 0.6835347676456367],
        7.9344804341396467e-12,
    ),
    (
        [-0.14210490259702668, 0.0704228255131059, 0.15740608735805423],
        [-0.14207886148338086, 0.07042725509616433, 0.1573959760181819],
        1.1414891161847493e-10,
    ),
    (
        [0.190930190852043, 0.36365438164245, -0.8570091406750668],
        [0.19084820024331103, 0.36361954142098235, -0.8570011595067408],
        5.6820212046191483e-10,
    ),
    (
        [0.10594670500444228, -0.13631651957969848, 0.017435210326437616],
        [0.10617913532589954, -0.13645849911004046, 0.017358934782315358],
        9.7919928430005116e-9,
    ),
    (
        [-0.20801536418068098, 0.6656581094707785, -0.2060737732066937],
        [-0.20770247467861006, 0.6654582252720943, -0.20526004937970438],
        9.3726562828450177e-8,
    ),
    (
        [0.3954058238534249, -0.3192635074782042, 0.02282790400233274],
        [0.397835671126076, -0.31836653050045427, 0.02396424661482981],
        1.1615682613823245e-6,
    ),
    (
        [0.12675847415406893, -0.16316845123428647, 0.2233231919729967],
        [0.12391286603500953, -0.1707436170930807, 0.2195127619914196],
        9.9318508733590049e-6,
    ),
    (
        [0.24169457620236656, -0.12981446229797772, -0.38671936085586894],
        [0.23540090521309787, -0.10780509588170331, -0.40333193126002403],
        0.00010605067448167478,
    ),
]


class TestDivergences:
    @pytest.mark.parametrize("ta, tb, h2", SMALL_H2, ids=[f"{h2:.0e}" for _, _, h2 in SMALL_H2])
    def test_hellinger_at_small_h2(self, ta, tb, h2):
        # from the coefficient difference H^2 cancels nowhere; from c_mid - (c_a + c_b) / 2 it was
        # off by 8e-5 relative at H^2 = 1e-12, so both orders are held to 1e-9
        assert abs(hellinger_numeric(ta, tb) ** 2 - h2) <= 1e-9 * h2
        assert abs(hellinger_numeric(tb, ta) ** 2 - h2) <= 1e-9 * h2

    def test_identical_all_zero(self):
        theta = np.array([0.2, -0.4])
        assert hellinger_numeric(theta, theta) == pytest.approx(0.0, abs=1e-7)
        assert kl_numeric(theta, theta) == pytest.approx(0.0, abs=1e-10)
        assert d2_numeric(theta, theta) == pytest.approx(0.0, abs=1e-10)

    def test_chain_ordering_on_random_pairs(self):
        rng = np.random.default_rng(123)
        for _ in range(200):
            k = int(rng.integers(1, 5))
            ta = rng.normal(scale=0.4, size=k)
            tb = rng.normal(scale=0.4, size=k)
            h2 = hellinger_numeric(ta, tb) ** 2
            kl = kl_numeric(ta, tb)
            d2 = d2_numeric(ta, tb)
            assert 2 * h2 <= kl + 1e-9
            assert kl <= d2 + 1e-9

    def test_l1_bound_on_hellinger(self):
        # H <= 2 sqrt(2) ||theta_a - theta_b||_1 whenever the gap is small
        rng = np.random.default_rng(321)
        checked = 0
        while checked < 200:
            k = int(rng.integers(1, 5))
            ta = rng.normal(scale=0.15, size=k)
            tb = rng.normal(scale=0.15, size=k)
            gap = float(np.abs(ta - tb).sum())
            if gap > 1 / math.sqrt(2):
                continue
            assert hellinger_numeric(ta, tb) <= 2 * math.sqrt(2) * gap + 1e-12
            checked += 1


def quad_log_integral(g):
    """log of the integral over [0, 1] of exp(g(x)), by scipy quad, shifted by g's maximum on a fine grid."""
    top = max(g(x) for x in np.linspace(0.0, 1.0, 2049))
    value, _ = quad(lambda x: math.exp(g(x) - top), 0.0, 1.0, epsabs=0.0, epsrel=1e-13, limit=400)
    return top + math.log(value)


def oracle(ta, tb):
    """c_a, H^2, KL and D_2 of a pair of equal-length coefficient vectors, each by its own quad integral."""
    k = ta.size
    dot = lambda t: lambda x: float(basis_matrix(x, k)[0] @ t)  # noqa: E731
    c_a, c_b = quad_log_integral(dot(ta)), quad_log_integral(dot(tb))
    log_a = lambda x: dot(ta)(x) - c_a  # noqa: E731
    log_b = lambda x: dot(tb)(x) - c_b  # noqa: E731
    h2 = 1.0 - math.exp(quad_log_integral(lambda x: 0.5 * (log_a(x) + log_b(x))))
    kl = quad(lambda x: math.exp(log_a(x)) * (log_a(x) - log_b(x)), 0.0, 1.0, epsabs=1e-15, epsrel=1e-13,
              limit=400)[0]
    d2 = quad_log_integral(lambda x: 2.0 * log_a(x) - log_b(x))
    return c_a, h2, kl, d2


def oracle_pairs():
    rng = np.random.default_rng(2022)
    pairs = []
    for _ in range(6):
        k = int(rng.integers(1, 11))
        pairs.append((rng.normal(scale=0.5, size=k), rng.normal(scale=0.5, size=k)))
    # ||theta_a||_1 = 20 at k = 10: c_a needs 237 nodes, c(2 theta_a - theta_b) more
    big = rng.normal(size=10)
    pairs.append((20.0 * big / np.abs(big).sum(), rng.normal(scale=0.3, size=10)))
    return pairs


class TestExactRule:
    """c(theta) and the divergences on the rule sized for ||theta||_1, against scipy quad."""

    @pytest.mark.parametrize("ta, tb", oracle_pairs())
    def test_against_quad(self, ta, tb):
        c_a, h2, kl, d2 = oracle(ta, tb)
        assert abs(log_normalizer(ta) - c_a) <= 1e-12
        assert abs(hellinger_numeric(ta, tb) ** 2 - h2) <= 1e-12
        assert abs(kl_numeric(ta, tb) - kl) <= 1e-12
        assert abs(d2_numeric(ta, tb) - d2) <= 1e-12

    def test_large_norm_takes_more_than_the_elbo_rule(self):
        assert _exact_nodes(10, 20.0) == 237 and _exact_nodes(10, 50.0) == 361
        assert _exact_nodes(10, 20.0) > _elbo_nodes(10)
        # at the cap, the rule is the ELBO's wherever that one meets the target
        assert all(_exact_nodes(k, _ELBO_CAP) == _elbo_nodes(k) for k in ADMITTED)

    def test_past_32768_nodes_is_a_numeric_error(self):
        assert math.isfinite(log_normalizer([1e6]))  # 10281 nodes
        with pytest.raises(NumericError, match="1e\\+07 needs more than 32768"):
            log_normalizer([1e7])
        with pytest.raises(NumericError, match="needs more than 32768"):
            kl_numeric([1e308, 1e308], [0.0])
        with pytest.raises(NumericError, match="1e\\+308 needs more than 32768"):
            log_normalizer([1e308])  # twice the norm is past float range

    def test_sharp_density_samples(self):
        # exp(800 sqrt(2) cos 2 pi x) peaks at x = 0 with width about 0.005
        draws = sample([800.0], 200, seed=3)
        assert np.all(np.minimum(draws, 1.0 - draws) < 0.05)


class TestCachedRules:
    def test_elbo_rule_built_once_per_k(self):
        H = _elbo_rule(3, 41)
        assert _elbo_rule(3, 41) is H
        np.testing.assert_array_equal(H, basis_matrix(np.arange(41) / 41, 3))

    @pytest.mark.parametrize(
        "x", [math.nan, [0.2, math.inf], np.zeros((2, 2))], ids=["nan", "inf", "2-d"]
    )
    def test_basis_points_checked(self, x):
        with pytest.raises(InputError, match="x must be"):
            basis_matrix(x, 3)

    def test_cached_arrays_are_read_only(self):
        # the ELBO rule and the change-point tail rule are shared by every call
        for arr in (_elbo_rule(2, 21), *_unit_rule()):
            with pytest.raises(ValueError):
                arr[0] = 0.0


class TestElboRule:
    def test_rule_sizes(self):
        # the shipped active length k = 3 (frequencies up to 2) takes 41 nodes
        nodes = [_elbo_nodes(k) for k in range(1, 33)]
        assert nodes[:6] == [21, 21, 41, 41, 62, 62]
        assert nodes == sorted(nodes) and nodes[-1] <= _ELBO_MAX_NODES
        assert ADMITTED == list(range(1, len(ADMITTED) + 1)) and len(ADMITTED) >= 6
        for k in ADMITTED:  # the fewest nodes: one fewer misses the target
            assert _rule_error(_elbo_nodes(k) - 1, (k + 1) // 2, _ELBO_CAP) > _ELBO_TARGET

    @pytest.mark.parametrize("nodes", [3, 8, 41])
    def test_exact_on_trigonometric_polynomials_below_degree_nodes(self, nodes):
        # the basis up to frequency L and its products, up to 2 L < nodes, integrate exactly
        k = 2 * ((nodes - 1) // 2)
        H = _elbo_rule(k, nodes)
        np.testing.assert_allclose(H.mean(axis=0), 0.0, rtol=0, atol=1e-14)
        np.testing.assert_allclose(H.T @ H / nodes, np.eye(k), rtol=0, atol=1e-14)
        # frequency nodes aliases onto the constant: cos(2 pi nodes x) is 1 at every node
        assert _elbo_rule(2 * nodes - 1, nodes)[:, -1].mean() == pytest.approx(math.sqrt(2.0), rel=1e-14)

    @pytest.mark.parametrize("k", ADMITTED)
    def test_rule_within_target_at_the_cap(self, k):
        draws = cap_draws(k, seed=k)
        c, moments = _normalizer_stats(draws, _elbo_nodes(k), capped=True)
        c_ref, moments_ref = _normalizer_stats(draws, _ELBO_MAX_NODES)
        assert np.max(np.abs(c - c_ref)) <= _ELBO_TARGET
        assert np.max(np.abs(moments - moments_ref)) <= _ELBO_TARGET

    @pytest.mark.parametrize("k", [1, 2, 3, 6])
    def test_shift_free_path_is_the_shifted_one_within_the_cap(self, k):
        draws = cap_draws(k, seed=k)
        nodes = _elbo_nodes(k)
        c, moments = _normalizer_stats(draws, nodes, capped=True)
        log_sum, dens = _logsumexp_weights(draws @ _elbo_rule(k, nodes).T, axis=1)
        # relative to the log of the rule's sum, before the weights 1 / nodes fold in
        np.testing.assert_allclose(c + math.log(nodes), log_sum, rtol=1e-15, atol=0)
        # relative to the basis' scale sqrt(2): some moments vanish by symmetry
        moments_ref = dens @ _elbo_rule(k, nodes)
        np.testing.assert_allclose(moments, moments_ref, rtol=0, atol=math.sqrt(2.0) * 1e-15)

    @pytest.mark.parametrize("L", [1, 2, 3])
    def test_bound_holds_on_coarse_rules(self, L):
        # where the bound is large enough to be seen, the actual error stays below it
        draws = cap_draws(2 * L, seed=L)
        c_ref, moments_ref = _normalizer_stats(draws, _ELBO_MAX_NODES)
        checked = 0
        for nodes in range(1, _elbo_nodes(2 * L) + 1):
            bound = _rule_error(nodes, L, _ELBO_CAP)
            if not 1e-13 < bound < 1.0:
                continue
            c, moments = _normalizer_stats(draws, nodes, capped=True)
            worst = max(np.max(np.abs(c - c_ref)), np.max(np.abs(moments - moments_ref)))
            assert worst <= bound
            checked += 1
        assert checked >= 2


class TestElbo:
    def test_point_mass_is_minus_inf(self):
        q = GaussMFVariational(mu=np.array([0.1, 0.0]), sigma2=np.array([0.0, 0.1]))
        assert elbo(q, np.array([0.2, 0.8]), S0) == -math.inf

    def test_deterministic_given_seed(self):
        q = GaussMFVariational(mu=np.array([0.1]), sigma2=np.array([0.05]))
        data = np.array([0.1, 0.5, 0.9])
        assert elbo(q, data, S0, seed=3) == elbo(q, data, S0, seed=3)

    def test_bounded_by_importance_sampled_evidence(self):
        rng = np.random.default_rng(2)
        theta_true = np.array([0.6, -0.3])
        data = sample(theta_true, 20, seed=8)
        cfg = OptConfig(step_size=0.3, n_iters=200, n_mc=32, seed=0)
        q = fit_gaussian_mf(data, S0, k=2, opt_config=cfg)
        # the expected-normalizer noise enters scaled by the sample size, so
        # evaluate the bound with enough draws to make it negligible
        bound = elbo(q, data, S0, n_mc=8192, seed=1)

        # conditional evidence = E_prop[ lik * prior / prop ] with a broadened
        # proposal around the fit; trapezoid normalizers keep the oracle
        # independent of the package quadrature
        S = 100_000
        prop_sd = np.sqrt(4.0 * q.sigma2 + 1e-3)
        thetas = q.mu[None, :] + rng.standard_normal((S, 2)) * prop_sd[None, :]
        xs = np.linspace(0.0, 1.0, 2001)
        Hq = basis_matrix(xs, 2)
        log_norms = np.concatenate(
            [
                np.log(np.trapezoid(np.exp(chunk @ Hq.T), xs, axis=1))
                for chunk in np.array_split(thetas, 20)
            ]
        )
        H = basis_matrix(data, 2)
        loglik = thetas @ H.sum(axis=0) - 20 * log_norms
        log_prior = -0.5 * np.sum(thetas**2, axis=1) - math.log(2 * math.pi)
        log_prop = -0.5 * np.sum(
            ((thetas - q.mu[None, :]) / prop_sd[None, :]) ** 2, axis=1
        ) - math.log(2 * math.pi * float(np.prod(prop_sd)))
        logw = loglik + log_prior - log_prop
        shift = logw.max()
        w = np.exp(logw - shift)
        log_evidence = math.log(w.mean()) + shift
        stderr = w.std(ddof=1) / math.sqrt(w.size) / w.mean()
        assert bound <= log_evidence + 3 * stderr

    @pytest.mark.parametrize("sigma0_sq", [0.0, -1.0, math.nan])
    def test_prior_variance_validated(self, sigma0_sq):
        q = GaussMFVariational(mu=np.zeros(2), sigma2=np.ones(2))
        for call in (elbo, elbo_and_gradient):
            with pytest.raises(InputError):
                call(q, np.array([0.5]), sigma0_sq)
        with pytest.raises(InputError):
            fit_gaussian_mf(np.array([0.5]), sigma0_sq, k=2)

    @pytest.mark.parametrize("n_mc", [0, -1])
    def test_monte_carlo_size_validated(self, n_mc):
        q = GaussMFVariational(mu=np.zeros(2), sigma2=np.ones(2))
        for call in (elbo, elbo_and_gradient):
            with pytest.raises(InputError):
                call(q, np.array([0.5]), S0, n_mc=n_mc)

    @pytest.mark.parametrize("data", [[-3.0, 7.0], [0.2, 1.5], [], [[0.5]], [0.5, math.nan]])
    def test_fit_validates_data(self, data):
        with pytest.raises(InputError):
            fit_gaussian_mf(np.array(data), S0, k=2)
        with pytest.raises(InputError):
            elbo(GaussMFVariational(mu=np.zeros(2), sigma2=np.ones(2)), np.array(data), S0)

    def test_nan_factor_rejected(self):
        with pytest.raises(InputError, match="mu"):
            GaussMFVariational(mu=np.array([math.nan]), sigma2=np.ones(1))

    def test_point_mass_still_validates_data(self):
        q = GaussMFVariational(mu=np.zeros(1), sigma2=np.zeros(1))
        with pytest.raises(InputError):
            elbo(q, np.array([1.5]), S0)


class TestGradient:
    def test_matches_finite_differences(self):
        data = sample(np.array([0.5, 0.2]), 60, seed=21)
        mu = np.array([0.3, -0.1, 0.2])
        s2 = np.array([0.04, 0.09, 0.01])
        q = GaussMFVariational(mu=mu, sigma2=s2)
        _, grad_mu, grad_ls = elbo_and_gradient(q, data, S0, n_mc=32, seed=7)
        h = 1e-6
        for j in range(3):
            up, dn = mu.copy(), mu.copy()
            up[j] += h
            dn[j] -= h
            fd = (
                elbo(GaussMFVariational(up, s2), data, S0, 32, 7)
                - elbo(GaussMFVariational(dn, s2), data, S0, 32, 7)
            ) / (2 * h)
            assert grad_mu[j] == pytest.approx(fd, rel=1e-3, abs=1e-6)
        for j in range(3):
            ls = 0.5 * np.log(s2)
            up, dn = ls.copy(), ls.copy()
            up[j] += h
            dn[j] -= h
            fd = (
                elbo(GaussMFVariational(mu, np.exp(2 * up)), data, S0, 32, 7)
                - elbo(GaussMFVariational(mu, np.exp(2 * dn)), data, S0, 32, 7)
            ) / (2 * h)
            assert grad_ls[j] == pytest.approx(fd, rel=1e-3, abs=1e-6)


class TestFit:
    def test_uniform_data_keeps_small_coefficients(self):
        data = sample(np.zeros(1), 500, seed=42)
        q = fit_gaussian_mf(data, S0, k=3, opt_config=OptConfig(seed=5))
        assert np.all(np.abs(q.mu) <= 0.3)

    @pytest.mark.parametrize(
        "settings", [{"n_mc": 0}, {"n_mc": -4}, {"n_iters": 0}, {"step_size": 0.0}]
    )
    def test_opt_config_validated(self, settings):
        with pytest.raises(InputError):
            OptConfig(**settings)

    def test_final_beats_initial_elbo(self):
        for s in range(20):
            data = sample(np.array([0.5]), 150, seed=100 + s)
            cfg = OptConfig(step_size=0.2, n_iters=120, n_mc=32, seed=s)
            q = fit_gaussian_mf(data, S0, k=2, opt_config=cfg)
            init = GaussMFVariational(np.zeros(2), np.full(2, 1.0 / 150.0))
            assert elbo(q, data, S0, 32, s) >= elbo(init, data, S0, 32, s)

    def test_fit_within_the_cap_is_the_per_fit_loop_on_its_rule(self):
        data = sample(np.array([0.7, -0.4, 0.2]), 400, seed=31)
        cfg = OptConfig(n_iters=80, seed=4)
        mu, sigma2, widest = ref_fit(data, S0, 3, cfg, nodes=_elbo_nodes(3))
        assert widest <= _ELBO_CAP
        q = fit_gaussian_mf(data, S0, k=3, opt_config=cfg)
        np.testing.assert_array_equal(q.mu, mu)
        np.testing.assert_array_equal(q.sigma2, sigma2)

    def test_fit_crossing_the_cap_is_the_512_node_fit(self):
        data = sample(np.array([1.2, -0.8, 0.4]), 200, seed=32)
        cfg = OptConfig(n_iters=80, seed=5)
        mu, sigma2, widest = ref_fit(data, S0, 3, cfg)
        assert widest > _ELBO_CAP
        q = fit_gaussian_mf(data, S0, k=3, opt_config=cfg)
        np.testing.assert_array_equal(q.mu, mu)
        np.testing.assert_array_equal(q.sigma2, sigma2)

    def test_batch_rows_match_their_fits_alone(self, monkeypatch):
        # rows crossing the cap and rows within it, grouped and one row per group
        samples = np.stack([sample(np.array(t), 200, seed=40 + i) for i, t in enumerate(
            [[1.2, -0.8, 0.4], [0.3, 0.1, -0.2], [1.1, -0.9, 0.5], [0.7, -0.4, 0.2]])])
        seeds = [11, 12, 13, 14]
        cfg = OptConfig(n_iters=80)
        alone = [fit_gaussian_mf(x, S0, 3, OptConfig(n_iters=80, seed=s)) for x, s in zip(samples, seeds)]
        grouped = fit_gaussian_mf_batch(samples, S0, 3, cfg, seeds)
        monkeypatch.setattr(expfamily, "_FIT_CELLS", 1)
        single = fit_gaussian_mf_batch(samples, S0, 3, cfg, seeds)
        for a, b, c in zip(alone, grouped, single):
            # same bits where BLAS evaluates a row alike in any stack, as here
            np.testing.assert_allclose(b.mu, a.mu, rtol=1e-12, atol=0)
            np.testing.assert_allclose(b.sigma2, a.sigma2, rtol=1e-12, atol=0)
            np.testing.assert_array_equal(c.mu, a.mu)
            np.testing.assert_array_equal(c.sigma2, a.sigma2)

    def test_batch_rows_of_differing_n_match_their_fits_alone(self, monkeypatch):
        # the n = 200 row's draws cross the cap, so it reruns alone on the 512-node rule,
        # while the n = 400 and n = 100 rows finish on the k = 3 rule
        samples = [sample(np.array(t), n, seed=s) for t, n, s in (
            ([0.7, -0.4, 0.2], 400, 31), ([1.2, -0.8, 0.4], 200, 32), ([0.3, 0.1, -0.2], 100, 33))]
        seeds = [4, 5, 6]
        assert ref_fit(samples[1], S0, 3, OptConfig(n_iters=80, seed=5))[2] > _ELBO_CAP
        runs = []
        ascend = expfamily._ascend

        def recording(suff, n, eps, s0, opt_config, nodes, labels):
            runs.append((list(n), nodes))
            return ascend(suff, n, eps, s0, opt_config, nodes, labels)

        monkeypatch.setattr(expfamily, "_ascend", recording)
        fits = fit_gaussian_mf_batch(samples, S0, 3, OptConfig(n_iters=80), seeds)
        assert runs == [([400, 200, 100], _elbo_nodes(3)), ([200], _ELBO_MAX_NODES)]
        for x, seed, q in zip(samples, seeds, fits):
            alone = fit_gaussian_mf(x, S0, 3, OptConfig(n_iters=80, seed=seed))
            np.testing.assert_array_equal(q.mu, alone.mu)
            np.testing.assert_array_equal(q.sigma2, alone.sigma2)

    def test_batch_groups_stay_within_the_cell_cap(self, monkeypatch):
        # drawn first: the sample's normalizer also goes through _normalizer_stats
        samples = np.stack([sample(np.array([0.7, -0.4, 0.2]), 100, seed=s) for s in range(5)])
        cells = []

        def recording(draws, nodes, capped=False):
            cells.append(draws.shape[0] * draws.shape[1] * nodes)
            return stats(draws, nodes, capped)

        stats = expfamily._normalizer_stats
        monkeypatch.setattr(expfamily, "_normalizer_stats", recording)
        monkeypatch.setattr(expfamily, "_FIT_CELLS", 2 * 32 * 41)  # two rows at 41 nodes
        fits = fit_gaussian_mf_batch(samples, S0, 3, OptConfig(n_iters=5, n_mc=32), range(5))
        assert len(fits) == 5 and max(cells) <= expfamily._FIT_CELLS

    def test_batch_input_checks(self):
        samples = np.stack([sample(np.zeros(1), 50, seed=s) for s in range(2)])
        with pytest.raises(InputError):
            fit_gaussian_mf_batch(samples, S0, 2, OptConfig(), [1])
        with pytest.raises(InputError):
            fit_gaussian_mf_batch(samples[0], S0, 2, OptConfig(), [1])
        with pytest.raises(InputError):
            fit_gaussian_mf_batch(samples, S0, 0, OptConfig(), [1, 2])

    def test_hellinger_to_truth_decreases_with_n(self):
        theta_true = np.array([0.7, -0.4, 0.2])
        med = []
        for n in (200, 800, 3200):
            h2 = []
            for rep in range(5):
                data = sample(theta_true, n, seed=1000 * n + rep)
                q = fit_gaussian_mf(
                    data, S0, k=3, opt_config=OptConfig(step_size=0.25, n_iters=250, seed=rep)
                )
                h2.append(hellinger_numeric(q.mu, theta_true) ** 2)
            med.append(float(np.median(h2)))
        assert med[0] > med[1] > med[2]
