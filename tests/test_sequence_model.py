"""Tests for the sieve-prior Gaussian sequence model."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from vblab.divergences import ScalarGaussian
from vblab.errors import InputError
from vblab.sequence_model import (
    GaussianCoordinates,
    RescaledCauchyCoordinates,
    RescaledGaussianCoordinates,
    SequenceObservation,
    ShellPosterior,
    SievePrior,
    SobolevSignal,
    expected_risk,
    fit_empirical_bayes,
    fit_mean_field,
    log_coordinate_evidence,
    log_model_weights,
    make_signal,
    posterior_kl_gap,
    sample_observation,
    vb_objective,
)


def gaussian_prior(K_max=1, tau=0.0, sigma0_sq=1.0, weights=None):
    fam = GaussianCoordinates(sigma0_sq)
    if weights is not None:
        return SievePrior(np.asarray(weights, dtype=float), fam, K_max)
    return SievePrior.geometric(tau, K_max, fam)


def quad_log_evidence(y, n, sigma0_sq=1.0):
    """Brute-force numeric integration oracle for log W.

    Finite bounds with a breakpoint at the likelihood peak, otherwise the
    adaptive rule can miss the narrow mass at large n entirely.
    """

    def f(t):
        return (
            math.exp(-0.5 * t * t / sigma0_sq)
            / math.sqrt(2 * math.pi * sigma0_sq)
            * math.exp(-0.5 * n * (t - y) ** 2)
        )

    lo = min(0.0, y) - 10 * math.sqrt(sigma0_sq)
    hi = max(0.0, y) + 10 * math.sqrt(sigma0_sq)
    val, _ = quad(f, lo, hi, points=[y, 0.0], epsabs=1e-300, epsrel=1e-12, limit=200)
    return math.log(val)


class TestCoordinateEvidence:
    def test_standard_normal_at_zero(self):
        # Gaussian convolution identity: integral N(0,1) e^{-t^2/2} = 1/sqrt(2)
        prior = gaussian_prior()
        oracle = quad_log_evidence(0.0, 1.0)
        assert oracle == pytest.approx(math.log(1 / math.sqrt(2)), abs=1e-10)
        assert log_coordinate_evidence(prior, 1, 0.0, 1.0) == pytest.approx(oracle, abs=1e-10)

    def test_laplace_limit_for_wide_prior(self):
        # for a nearly flat prior, W ~ f(y) * sqrt(2 pi / n)
        sigma0_sq, n, y = 1e6, 1e4, 0.3
        prior = gaussian_prior(sigma0_sq=sigma0_sq)
        log_f_y = -0.5 * (y * y / sigma0_sq + math.log(2 * math.pi * sigma0_sq))
        approx = log_f_y + 0.5 * math.log(2 * math.pi / n)
        assert log_coordinate_evidence(prior, 1, y, n) == pytest.approx(approx, abs=1e-3)

    def test_conjugate_matches_quadrature(self):
        rng = np.random.default_rng(31)
        prior = gaussian_prior(sigma0_sq=0.7)
        for _ in range(100):
            y = float(rng.uniform(-3, 3))
            n = float(rng.uniform(0.5, 1000.0))
            assert log_coordinate_evidence(prior, 1, y, n) == pytest.approx(
                quad_log_evidence(y, n, 0.7), abs=1e-7
            )

    def test_index_validated(self):
        prior = gaussian_prior(K_max=3, tau=1.0)
        with pytest.raises(InputError):
            log_coordinate_evidence(prior, 4, 0.0, 1.0)


class TestModelWeights:
    def reference_two_model_weights(self, y, n):
        """Numeric-integration oracle for the K_max = 1 toy."""
        w1 = math.exp(quad_log_evidence(y, n))
        s0 = 0.5 * math.exp(-0.5 * n * y * y)
        s1 = 0.5 * w1
        return np.array([s0, s1]) / (s0 + s1)

    def test_two_model_example(self):
        prior = gaussian_prior(K_max=1, weights=[0.5, 0.5])
        obs = SequenceObservation(np.array([0.0]), 1.0)
        expected = self.reference_two_model_weights(0.0, 1.0)
        np.testing.assert_allclose(expected, [0.5857864376, 0.4142135624], atol=1e-9)
        got = np.exp(log_model_weights(prior, obs))
        np.testing.assert_allclose(got, expected, atol=1e-10)

    def test_degenerate_prior(self):
        prior = gaussian_prior(K_max=2, weights=[1.0, 0.0, 0.0])
        obs = SequenceObservation(np.array([0.3, -0.2]), 2.0)
        w = np.exp(log_model_weights(prior, obs))
        np.testing.assert_allclose(w, [1.0, 0.0, 0.0], atol=1e-300)

    def test_normalization_on_random_observations(self):
        prior = gaussian_prior(K_max=12, tau=1.0)
        rng = np.random.default_rng(99)
        for _ in range(100):
            obs = SequenceObservation(rng.normal(size=12), float(rng.uniform(1, 50)))
            w = np.exp(log_model_weights(prior, obs))
            assert w.sum() == pytest.approx(1.0, abs=1e-12)

    def test_stability_at_large_n_and_k(self):
        prior = gaussian_prior(K_max=10_000, tau=1.0)
        rng = np.random.default_rng(4)
        obs = SequenceObservation(rng.normal(size=10_000) / 1e3, 1e6)
        lw = log_model_weights(prior, obs)
        assert np.all(np.isfinite(np.exp(lw).sum()))
        assert np.exp(lw).sum() == pytest.approx(1.0, abs=1e-9)


class TestFits:
    def test_mean_field_two_model_example(self):
        prior = gaussian_prior(K_max=1, weights=[0.5, 0.5])
        obs = SequenceObservation(np.array([0.0]), 1.0)
        post = fit_mean_field(prior, obs)
        # pi(0|y) + pi(1|y) = 1 beats pi(0|y) alone
        assert post.k == 1
        assert post.p == pytest.approx(0.5857864376, abs=1e-9)

    def test_mean_field_degenerate_prior(self):
        prior = gaussian_prior(K_max=2, weights=[1.0, 0.0, 0.0])
        obs = SequenceObservation(np.array([0.5, 0.5]), 4.0)
        post = fit_mean_field(prior, obs)
        assert post.k == 0
        assert post.p == 0.0
        assert post.tilts == ()

    def test_tilt_symmetry_at_zero(self):
        prior = gaussian_prior(K_max=3, tau=0.5)
        obs = SequenceObservation(np.array([2.0, 1.5, 0.0]), 30.0)
        post = fit_mean_field(prior, obs)
        if post.k == 3:
            assert post.tilts[2].mean == pytest.approx(0.0, abs=1e-12)

    def test_conjugate_tilt_moments_vs_quadrature(self):
        prior = gaussian_prior(sigma0_sq=0.8)
        y, n = 1.3, 7.0
        tilt = prior.coordinate_family.tilt(y, n)
        assert tilt.mean == pytest.approx(n * y / (n + 1 / 0.8), abs=1e-12)

        def density(t):
            return np.exp(
                prior.coordinate_family.log_pdf(t) - 0.5 * n * (t - y) ** 2
            )

        z, _ = quad(density, -10, 10, epsabs=1e-13)
        m, _ = quad(lambda t: t * density(t) / z, -10, 10, epsabs=1e-13)
        v, _ = quad(lambda t: (t - m) ** 2 * density(t) / z, -10, 10, epsabs=1e-13)
        assert tilt.mean == pytest.approx(m, abs=1e-9)
        assert tilt.variance == pytest.approx(v, abs=1e-9)

    def test_empirical_bayes_two_model_example(self):
        prior = gaussian_prior(K_max=1, weights=[0.5, 0.5])
        obs = SequenceObservation(np.array([0.0]), 1.0)
        post = fit_empirical_bayes(prior, obs)
        assert post.k == 0  # 0.58579 > 0.41421

    def test_empirical_bayes_degenerate_top(self):
        prior = gaussian_prior(K_max=2, weights=[0.0, 0.0, 1.0])
        obs = SequenceObservation(np.array([0.1, 0.1]), 1.0)
        assert fit_empirical_bayes(prior, obs).k == 2

    def test_strong_evidence_pulls_k_hat_up(self):
        prior = gaussian_prior(K_max=1, weights=[0.5, 0.5])
        obs = SequenceObservation(np.array([5.0]), 100.0)
        assert fit_empirical_bayes(prior, obs).k >= 1


class TestVbObjective:
    def test_argmin_consistency(self):
        prior = gaussian_prior(K_max=8, tau=1.0)
        rng = np.random.default_rng(17)
        signal = make_signal("sobolev_boundary", alpha=1.0, B=2.0, K_max=8)
        for _ in range(100):
            obs = sample_observation(signal, float(rng.uniform(2, 200)), rng)
            vb_vals = [vb_objective(prior, obs, k, "vb") for k in range(9)]
            eb_vals = [vb_objective(prior, obs, k, "eb") for k in range(9)]
            assert int(np.argmin(vb_vals)) == fit_mean_field(prior, obs).k
            assert int(np.argmin(eb_vals)) == fit_empirical_bayes(prior, obs).k
            # product families over a single dimension are a subset of the
            # two-shell mixtures, so the best vb objective can only be lower
            assert min(vb_vals) <= min(eb_vals) + 1e-12

    def test_kind_validated(self):
        prior = gaussian_prior(K_max=1, weights=[0.5, 0.5])
        obs = SequenceObservation(np.array([0.0]), 1.0)
        with pytest.raises(InputError):
            vb_objective(prior, obs, 0, "map")


class TestExpectedRisk:
    def test_all_zero_posterior(self):
        prior = gaussian_prior(K_max=4, weights=[1.0, 0, 0, 0, 0])
        obs = SequenceObservation(np.zeros(4), 1.0)
        post = fit_mean_field(prior, obs)
        signal = SobolevSignal(np.array([0.5, 0.0, 0.0, 0.0]), alpha=1.0, B=2.0)
        assert expected_risk(post, signal) == pytest.approx(0.25)

    def test_zero_signal_zero_posterior(self):
        prior = gaussian_prior(K_max=3, weights=[1.0, 0, 0, 0])
        obs = SequenceObservation(np.zeros(3), 1.0)
        post = fit_mean_field(prior, obs)
        assert expected_risk(post, make_signal("zero", 1.0, 1.0, 3)) == 0.0

    @pytest.mark.parametrize("family", ["gaussian", "cauchy"])
    def test_closed_form_matches_sampling(self, family):
        n = 25.0
        if family == "gaussian":
            fam = GaussianCoordinates(1.0)
        else:
            fam = RescaledCauchyCoordinates(1.0, n)
        prior = SievePrior.geometric(0.7, 6, fam)
        signal = make_signal("sobolev_boundary", alpha=1.0, B=2.0, K_max=6)
        rng = np.random.default_rng(55)
        obs = sample_observation(signal, n, rng)
        for post in (fit_mean_field(prior, obs), fit_empirical_bayes(prior, obs)):
            closed = expected_risk(post, signal)
            draws = post.sample(rng, 100_000)
            losses = np.sum((draws - signal.theta) ** 2, axis=1)
            stderr = losses.std(ddof=1) / math.sqrt(losses.size)
            assert closed == pytest.approx(losses.mean(), abs=3 * stderr)

    def test_mixture_coordinate_formula(self):
        prior = gaussian_prior(K_max=1, weights=[0.5, 0.5])
        obs = SequenceObservation(np.array([0.4]), 1.0)
        post = fit_mean_field(prior, obs)
        assert post.k == 1
        signal = SobolevSignal(np.array([0.3]), 1.0, 1.0)
        t = post.tilts[0]
        manual = (1 - post.p) * (t.variance + (t.mean - 0.3) ** 2) + (
            post.p * 0.3**2
        )
        assert expected_risk(post, signal) == pytest.approx(manual, abs=1e-14)

    def test_length_mismatch_rejected(self):
        prior = gaussian_prior(K_max=2, tau=1.0)
        obs = SequenceObservation(np.zeros(2), 1.0)
        post = fit_mean_field(prior, obs)
        with pytest.raises(InputError):
            expected_risk(post, make_signal("zero", 1.0, 1.0, 5))


class TestSampling:
    def test_deterministic_given_seed(self):
        signal = make_signal("sobolev_boundary", 1.0, 2.0, 16)
        a = sample_observation(signal, 10.0, 42)
        b = sample_observation(signal, 10.0, 42)
        assert np.array_equal(a.y, b.y)

    def test_law_of_large_numbers(self):
        signal = make_signal("spike", 1.0, 2.0, 4, j0=2)
        n = 9.0
        reps = 10_000
        rng = np.random.default_rng(8)
        ys = np.stack([sample_observation(signal, n, rng).y for _ in range(reps)])
        np.testing.assert_allclose(
            ys.mean(axis=0), signal.theta, atol=4 / math.sqrt(reps * n)
        )
        np.testing.assert_allclose(ys.var(axis=0, ddof=1), 1 / n, rtol=0.1)


class TestMakeSignal:
    def test_zero(self):
        s = make_signal("zero", 1.0, 1.0, 5)
        assert np.all(s.theta == 0.0)

    def test_spike_boundary_case(self):
        s = make_signal("spike", alpha=1.0, B=2.0, K_max=8, j0=4)
        assert s.theta[3] == pytest.approx(0.5)
        assert s.ball_weight() == pytest.approx(4.0)  # exactly B^2

    def test_boundary_ball_weight(self):
        s = make_signal("sobolev_boundary", alpha=1.0, B=2.0, K_max=64)
        assert s.ball_weight() == pytest.approx(0.95 * 4.0, abs=1e-9)

    @pytest.mark.parametrize("alpha", [64.0, 200.0])
    @pytest.mark.parametrize("K_max", [64, 4096])
    def test_boundary_at_large_alpha_matches_log_space_oracle(self, alpha, K_max):
        # j^(2 alpha) overflows here, so the weight sum_j j^(-1.02) is never formed from it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = make_signal("sobolev_boundary", alpha=alpha, B=2.0, K_max=K_max)
        log_j = np.log(np.arange(1, K_max + 1, dtype=float))
        log_theta = -(alpha + 0.51) * log_j + 0.5 * (
            math.log(0.95 * 4.0) - math.log(np.sum(np.exp(-1.02 * log_j)))
        )
        normal = log_theta > math.log(1e-300)
        np.testing.assert_allclose(s.theta[normal], np.exp(log_theta[normal]), rtol=1e-11, atol=0)
        assert np.all((s.theta[~normal] >= 0) & (s.theta[~normal] <= 1e-300))
        assert 0 < s.ball_weight() <= 0.95 * 4.0 * (1 + 1e-12)

    def test_ball_violation_rejected(self):
        with pytest.raises(InputError):
            SobolevSignal(np.array([10.0]), alpha=1.0, B=1.0)


class TestRescaledFamilies:
    def test_cauchy_batched_ratio_matches_adaptive(self):
        n = 64.0
        fam = RescaledCauchyCoordinates(1.0, n)
        rng = np.random.default_rng(3)
        ys = rng.uniform(-1.5, 1.5, size=20)
        ratios = fam.log_evidence_ratio(ys, n)
        for y, r in zip(ys, ratios):
            assert r - 0.5 * n * y * y == pytest.approx(
                fam.log_evidence_adaptive(float(y), n), abs=1e-9
            )

    def test_cauchy_tilt_grid_normalized(self):
        fam = RescaledCauchyCoordinates(1.0, 36.0)
        tilt = fam.tilt(0.7, 36.0)
        assert tilt.probs.sum() == pytest.approx(1.0, abs=1e-12)
        # posterior mean sits between 0 (prior center) and y
        assert 0.0 < tilt.mean < 0.7

    def test_rescaled_gaussian_is_conjugate(self):
        fam = RescaledGaussianCoordinates(4.0, 16.0)
        assert isinstance(fam, GaussianCoordinates)
        assert fam.sigma0_sq == pytest.approx(0.25)


class TestPosteriorKlGap:
    def setup_method(self):
        self.prior = gaussian_prior(K_max=5, tau=0.8)
        signal = make_signal("sobolev_boundary", 1.0, 2.0, 5)
        self.obs = sample_observation(signal, 40.0, 123)
        self.post = fit_mean_field(self.prior, self.obs)

    def test_fit_matches_vb_objective(self):
        gap = posterior_kl_gap(self.prior, self.obs, self.post)
        assert gap == pytest.approx(
            vb_objective(self.prior, self.obs, self.post.k, "vb"), abs=1e-8
        )

    @pytest.mark.parametrize("family", ["gaussian", "cauchy"])
    @pytest.mark.parametrize(
        "fit, kind",
        [(fit_mean_field, "vb"), (fit_empirical_bayes, "eb")],
        ids=["mean_field", "empirical_bayes"],
    )
    def test_gap_of_each_fit_is_its_objective(self, family, fit, kind):
        n = 256.0
        if family == "gaussian":
            fam = GaussianCoordinates(1.0)
        else:
            fam = RescaledCauchyCoordinates(1.0, n)
        prior = SievePrior.geometric(0.8, 5, fam)
        signal = make_signal("sobolev_boundary", 1.0, 2.0, 5)
        for seed in range(5):
            obs = sample_observation(signal, n, seed)
            post = fit(prior, obs)
            assert posterior_kl_gap(prior, obs, post) == pytest.approx(
                vb_objective(prior, obs, post.k, kind), abs=1e-8
            )

    def test_fit_minimal_among_perturbations(self):
        base_gap = posterior_kl_gap(self.prior, self.obs, self.post)
        rng = np.random.default_rng(77)
        for _ in range(50):
            k = int(rng.integers(0, 6))
            p = 0.0 if k == 0 else float(rng.uniform(0, 0.95))
            dens = tuple(
                ScalarGaussian(float(rng.normal(0, 0.5)), float(rng.uniform(0.005, 0.5)))
                for _ in range(k)
            )
            gap = posterior_kl_gap(self.prior, self.obs, ShellPosterior(k, p, dens, 5))
            assert gap >= base_gap - 1e-8

    def test_non_candidate_rejected(self):
        with pytest.raises(InputError):
            posterior_kl_gap(self.prior, self.obs, {"not": "a candidate"})

    def test_degenerate_density_rejected(self):
        with pytest.raises(InputError):
            ShellPosterior(1, 0.2, (ScalarGaussian(0.0, 0.0),), 1)

    def test_k_beyond_k_max_rejected(self):
        with pytest.raises(InputError):
            ShellPosterior(2, 0.0, (ScalarGaussian(0.0, 1.0),) * 2, 1)

    def test_k_max_mismatch_rejected(self):
        post = ShellPosterior(1, 0.0, (ScalarGaussian(0.0, 1.0),), 4)
        with pytest.raises(InputError):
            posterior_kl_gap(self.prior, self.obs, post)
