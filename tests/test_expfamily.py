"""Tests for the trigonometric exponential family and its Gaussian mean-field fit."""

import math

import numpy as np
import pytest

from vblab.errors import InputError
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
from vblab.sequence_model import GaussianCoordinates, SievePrior


def gaussian_prior(K_max=8, sigma0_sq=1.0):
    return SievePrior.geometric(1.0, K_max, GaussianCoordinates(sigma0_sq))


class TestNormalizer:
    def test_zero_coefficients(self):
        assert log_normalizer(np.zeros(4)) == 0.0
        assert log_normalizer(np.array([])) == 0.0

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


class TestDivergences:
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


class TestElbo:
    def test_point_mass_is_minus_inf(self):
        prior = gaussian_prior()
        q = GaussMFVariational(mu=np.array([0.1, 0.0]), sigma2=np.array([0.0, 0.1]))
        assert elbo(q, np.array([0.2, 0.8]), prior) == -math.inf

    def test_deterministic_given_seed(self):
        prior = gaussian_prior()
        q = GaussMFVariational(mu=np.array([0.1]), sigma2=np.array([0.05]))
        data = np.array([0.1, 0.5, 0.9])
        assert elbo(q, data, prior, seed=3) == elbo(q, data, prior, seed=3)

    def test_bounded_by_importance_sampled_evidence(self):
        rng = np.random.default_rng(2)
        theta_true = np.array([0.6, -0.3])
        data = sample(theta_true, 20, seed=8)
        prior = gaussian_prior(K_max=2)
        cfg = OptConfig(step_size=0.3, n_iters=200, n_mc=32, seed=0)
        q = fit_gaussian_mf(data, prior, k=2, opt_config=cfg)
        # the expected-normalizer noise enters scaled by the sample size, so
        # evaluate the bound with enough draws to make it negligible
        bound = elbo(q, data, prior, n_mc=8192, seed=1)

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

    def test_active_length_validated(self):
        prior = gaussian_prior(K_max=2)
        q = GaussMFVariational(mu=np.zeros(3), sigma2=np.ones(3))
        with pytest.raises(InputError):
            elbo(q, np.array([0.5]), prior)


class TestGradient:
    def test_matches_finite_differences(self):
        prior = gaussian_prior(K_max=4)
        data = sample(np.array([0.5, 0.2]), 60, seed=21)
        mu = np.array([0.3, -0.1, 0.2])
        s2 = np.array([0.04, 0.09, 0.01])
        q = GaussMFVariational(mu=mu, sigma2=s2)
        _, grad_mu, grad_ls = elbo_and_gradient(q, data, prior, n_mc=32, seed=7)
        h = 1e-6
        for j in range(3):
            up, dn = mu.copy(), mu.copy()
            up[j] += h
            dn[j] -= h
            fd = (
                elbo(GaussMFVariational(up, s2), data, prior, 32, 7)
                - elbo(GaussMFVariational(dn, s2), data, prior, 32, 7)
            ) / (2 * h)
            assert grad_mu[j] == pytest.approx(fd, rel=1e-3, abs=1e-6)
        for j in range(3):
            ls = 0.5 * np.log(s2)
            up, dn = ls.copy(), ls.copy()
            up[j] += h
            dn[j] -= h
            fd = (
                elbo(GaussMFVariational(mu, np.exp(2 * up)), data, prior, 32, 7)
                - elbo(GaussMFVariational(mu, np.exp(2 * dn)), data, prior, 32, 7)
            ) / (2 * h)
            assert grad_ls[j] == pytest.approx(fd, rel=1e-3, abs=1e-6)


class TestFit:
    def test_uniform_data_keeps_small_coefficients(self):
        data = sample(np.zeros(1), 500, seed=42)
        prior = gaussian_prior(K_max=4)
        q = fit_gaussian_mf(data, prior, k=3, opt_config=OptConfig(seed=5))
        assert np.all(np.abs(q.mu) <= 0.3)

    @pytest.mark.parametrize(
        "settings", [{"n_mc": 0}, {"n_mc": -4}, {"n_iters": 0}, {"step_size": 0.0}]
    )
    def test_opt_config_validated(self, settings):
        with pytest.raises(InputError):
            OptConfig(**settings)

    def test_final_beats_initial_elbo(self):
        prior = gaussian_prior(K_max=4)
        for s in range(20):
            data = sample(np.array([0.5]), 150, seed=100 + s)
            cfg = OptConfig(step_size=0.2, n_iters=120, n_mc=32, seed=s)
            q = fit_gaussian_mf(data, prior, k=2, opt_config=cfg)
            init = GaussMFVariational(np.zeros(2), np.full(2, 1.0 / 150.0))
            assert elbo(q, data, prior, 32, s) >= elbo(init, data, prior, 32, s)

    def test_hellinger_to_truth_decreases_with_n(self):
        prior = gaussian_prior(K_max=6)
        theta_true = np.array([0.7, -0.4, 0.2])
        med = []
        for n in (200, 800, 3200):
            h2 = []
            for rep in range(5):
                data = sample(theta_true, n, seed=1000 * n + rep)
                q = fit_gaussian_mf(
                    data, prior, k=3, opt_config=OptConfig(step_size=0.25, n_iters=250, seed=rep)
                )
                h2.append(hellinger_numeric(q.mu, theta_true) ** 2)
            med.append(float(np.median(h2)))
        assert med[0] > med[1] > med[2]
