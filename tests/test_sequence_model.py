"""Tests for the sieve-prior Gaussian sequence model."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erfcx

from vblab import sequence_model
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
    log_model_weights,
    make_signal,
    posterior_kl_gap,
    sample_observation,
    vb_objective,
)


def ball_weight(signal: SobolevSignal) -> float:
    """sum_j j^(2 alpha) theta_j^2, its terms formed in log space, where j^(2 alpha) alone overflows."""
    j = np.flatnonzero(signal.theta)
    log_terms = 2 * (signal.alpha * np.log(j + 1.0) + np.log(np.abs(signal.theta[j])))
    with np.errstate(over="ignore"):
        return float(np.sum(np.exp(log_terms)))


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


def quad_cauchy_tilt(v, s):
    """(log evidence ratio, mean, variance) of the Cauchy tilt of u at v, by brute-force quadrature.

    The integrand is g(u) exp(-(u - v)^2 / 2), g the Cauchy of scale s.  Its
    Gaussian factor is below exp(-800) beyond 40 of v, so at the scales
    tested the window [v - 40, v + 40] holds the whole integral.  When the
    prior's peak lies in that window the quadrature runs in u itself, with
    breakpoints at the peak and at geometric steps s 4^j out from it, which
    resolve a peak far narrower than the window; otherwise it runs in the
    offset u - v, which stays exact at large v.
    """
    c = 0.0 if abs(v) <= 40.0 else v
    lo, hi = v - c - 40.0, v - c + 40.0
    pts = {lo, v - c, hi}
    if c == 0.0:
        pts.update(sg * s * 4.0**j for j in range(-1, 60) for sg in (-1, 1) if s * 4.0**j < 80)
        pts.add(0.0)
    pts = sorted(x for x in pts if lo <= x <= hi)

    def integral(f):
        def dens(x):
            return f(x) * s / (math.pi * (s * s + (c + x) ** 2)) * math.exp(-0.5 * (x + c - v) ** 2)

        return sum(quad(dens, a, b, epsabs=0, epsrel=1.2e-14, limit=500)[0] for a, b in zip(pts[:-1], pts[1:]))

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # quad may call its 1.2e-14 target out of reach on a piece
        Z = integral(lambda x: 1.0)
        m = integral(lambda x: x) / Z
        var = integral(lambda x: (x - m) ** 2) / Z
    return 0.5 * v * v + math.log(Z), c + m, var


def log_evidence(prior: SievePrior, y: float, n: float) -> float:
    """log W = log integral f(t) exp(-n (t - y)^2 / 2) dt, from the coordinate family's evidence ratio."""
    return prior.coordinate_family.log_evidence_ratio(y, n) - 0.5 * n * y**2


class TestCoordinateEvidence:
    def test_standard_normal_at_zero(self):
        # Gaussian convolution identity: integral N(0,1) e^{-t^2/2} = 1/sqrt(2)
        prior = gaussian_prior()
        oracle = quad_log_evidence(0.0, 1.0)
        assert oracle == pytest.approx(math.log(1 / math.sqrt(2)), abs=1e-10)
        assert log_evidence(prior, 0.0, 1.0) == pytest.approx(oracle, abs=1e-10)

    def test_laplace_limit_for_wide_prior(self):
        # for a nearly flat prior, W ~ f(y) * sqrt(2 pi / n)
        sigma0_sq, n, y = 1e6, 1e4, 0.3
        prior = gaussian_prior(sigma0_sq=sigma0_sq)
        log_f_y = -0.5 * (y * y / sigma0_sq + math.log(2 * math.pi * sigma0_sq))
        approx = log_f_y + 0.5 * math.log(2 * math.pi / n)
        assert log_evidence(prior, y, n) == pytest.approx(approx, abs=1e-3)

    def test_conjugate_matches_quadrature(self):
        rng = np.random.default_rng(31)
        prior = gaussian_prior(sigma0_sq=0.7)
        for _ in range(100):
            y = float(rng.uniform(-3, 3))
            n = float(rng.uniform(0.5, 1000.0))
            assert log_evidence(prior, y, n) == pytest.approx(
                quad_log_evidence(y, n, 0.7), abs=1e-7
            )

    @pytest.mark.parametrize(
        "y", [math.nan, [0.1, math.nan], [[0.5]]], ids=["nan", "nan-in-array", "2-d"]
    )
    def test_gaussian_ratio_rejects_bad_y(self, y):
        with pytest.raises(InputError, match="y must be"):
            GaussianCoordinates(1.0).log_evidence_ratio(y, 4.0)

    def test_gaussian_ratio_keeps_the_shape_of_y(self):
        fam = GaussianCoordinates(1.0)
        assert isinstance(fam.log_evidence_ratio(0.1, 4.0), float)
        ratios = fam.log_evidence_ratio([0.1, 0.2], 4.0)
        assert ratios.shape == (2,)
        assert ratios[0] == fam.log_evidence_ratio(0.1, 4.0)


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
        assert post.tilts.shape == (0, 2)

    def test_tilt_symmetry_at_zero(self):
        prior = gaussian_prior(K_max=3, tau=0.5)
        obs = SequenceObservation(np.array([2.0, 1.5, 0.0]), 30.0)
        post = fit_mean_field(prior, obs)
        if post.k == 3:
            assert post.tilts[2, 0] == pytest.approx(0.0, abs=1e-12)

    def test_conjugate_tilt_moments_vs_quadrature(self):
        prior = gaussian_prior(sigma0_sq=0.8)
        y, n = 1.3, 7.0
        (mean,), (variance,) = prior.coordinate_family.tilt_moments(y, n)
        assert mean == pytest.approx(n * y / (n + 1 / 0.8), abs=1e-12)

        def density(t):  # the N(0, 0.8) prior times the likelihood, up to a constant
            return np.exp(-0.5 * t * t / 0.8 - 0.5 * n * (t - y) ** 2)

        z, _ = quad(density, -10, 10, epsabs=1e-13)
        m, _ = quad(lambda t: t * density(t) / z, -10, 10, epsabs=1e-13)
        v, _ = quad(lambda t: (t - m) ** 2 * density(t) / z, -10, 10, epsabs=1e-13)
        assert mean == pytest.approx(m, abs=1e-9)
        assert variance == pytest.approx(v, abs=1e-9)

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
            # the risk reads only each tilt's mean and variance, so Gaussian draws with them check it
            draws = np.zeros((100_000, 6))
            draws[:, : post.k] = rng.normal(post.tilts[:, 0], np.sqrt(post.tilts[:, 1]), (100_000, post.k))
            if post.k:  # the zero/tilt mixture at k
                draws[rng.random(100_000) < post.p, post.k - 1] = 0.0
            losses = np.sum((draws - signal.theta) ** 2, axis=1)
            stderr = losses.std(ddof=1) / math.sqrt(losses.size)
            assert closed == pytest.approx(losses.mean(), abs=3 * stderr)

    def test_mixture_coordinate_formula(self):
        prior = gaussian_prior(K_max=1, weights=[0.5, 0.5])
        obs = SequenceObservation(np.array([0.4]), 1.0)
        post = fit_mean_field(prior, obs)
        assert post.k == 1
        signal = SobolevSignal(np.array([0.3]), 1.0, 1.0)
        mean, variance = post.tilts[0]
        manual = (1 - post.p) * (variance + (mean - 0.3) ** 2) + (
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
        assert ball_weight(s) == pytest.approx(4.0)  # exactly B^2

    def test_boundary_ball_weight(self):
        s = make_signal("sobolev_boundary", alpha=1.0, B=2.0, K_max=64)
        assert ball_weight(s) == pytest.approx(0.95 * 4.0, abs=1e-9)

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
        assert 0 < ball_weight(s) <= 0.95 * 4.0 * (1 + 1e-12)

    def test_ball_violation_rejected(self):
        with pytest.raises(InputError):
            SobolevSignal(np.array([10.0]), alpha=1.0, B=1.0)

    @pytest.mark.parametrize(
        "alpha,K_max,j0", [(200.0, 64, 39), (200.0, 64, 40), (200.0, 64, 41), (100.0, 1502, 1500)]
    )
    def test_subnormal_spike_on_the_ball_builds(self, alpha, K_max, j0):
        # B j0^-alpha is subnormal here, and its rounding, though under half an ulp, is far
        # more than 1e-16 of it: 41^-200 = 2.77e-323 is stored as 6 ulps, 2.96e-323
        s = make_signal("spike", alpha, 1.0, K_max, j0=j0)
        assert 0 < s.theta[j0 - 1] < np.finfo(float).tiny

    def test_normal_spike_past_the_ball_rejected(self):
        # the half-ulp allowance of a normal theta_j is under 1.2e-16 of it, so 1e-6 over still raises
        theta = make_signal("spike", 2.0, 1.0, 64, j0=10).theta * (1 + 1e-6)
        with pytest.raises(InputError, match="signal violates the smoothness ball constraint"):
            SobolevSignal(theta, alpha=2.0, B=1.0)


class TestRescaledFamilies:
    @pytest.mark.parametrize("y", [math.nan, [0.5, math.inf], [[0.5]]], ids=["nan", "inf", "2-d"])
    def test_cauchy_ratio_rejects_bad_y(self, y):
        fam = RescaledCauchyCoordinates(1.0, 16.0)
        with pytest.raises(InputError, match="y must be"):
            fam.log_evidence_ratio(y, 16.0)

    ORACLE_V = [0.0, 0.3, 1.0, 3.0, 7.9, 8.1, 11.0, 15.0, 30.0, 100.0, 1e3]

    @pytest.mark.parametrize("scale", [1e-6, 1e-2, 1.0, 1e2, 1e6])
    def test_cauchy_ratio_is_the_quad_oracle(self, scale):
        fam = RescaledCauchyCoordinates(scale, 1.0)
        v = np.array(self.ORACLE_V + [-x for x in self.ORACLE_V[1:]])
        want = [quad_cauchy_tilt(float(x), scale)[0] for x in v]
        np.testing.assert_allclose(fam.log_evidence_ratio(v, 1.0), want, rtol=0, atol=1e-12)
        # at v = 0 the evidence is erfcx(s / sqrt(2)) in closed form
        assert fam.log_evidence_ratio(0.0, 1.0) == pytest.approx(math.log(erfcx(scale / math.sqrt(2))), abs=1e-15)

    @pytest.mark.parametrize("scale", [1e-100, 1e-20, 1e-8, 1e-6, 1e-4, 1e-2, 0.0475, 1.0, 1e2, 1e4, 1e6, 1e8])
    def test_cauchy_tilt_moments_are_the_quad_oracle(self, scale):
        # from |z| = 8 on the moments come from the continued fraction, except where the
        # scale is so small that exp(-v^2 / 2) still counts beside it (1e-100 up to |v| ~ 21)
        fam = RescaledCauchyCoordinates(scale, 4.0)
        v = np.array(self.ORACLE_V + [1e4] + [-x for x in self.ORACLE_V[1:]])
        means, variances = fam.tilt_moments(v / 2.0, 4.0)
        for x, mean, var in zip(v, 2.0 * means, 4.0 * variances):
            _, want_mean, want_var = quad_cauchy_tilt(float(x), scale)
            assert abs(mean - want_mean) <= 1e-13 * max(abs(want_mean), math.sqrt(want_var))
            assert var == pytest.approx(want_var, rel=5e-12, abs=0)

    @pytest.mark.parametrize("scale", [1e-300, 1e-150, 1e150, 5e307])
    def test_cauchy_closed_forms_at_extreme_scales(self, scale):
        # no square of the scale is formed: a RuntimeWarning would fail this suite
        fam = RescaledCauchyCoordinates(scale, 1.0)
        v = np.array([0.0, 0.5, -3.0, 11.5, 30.0, 50.0, -1e3, 1e6])
        ratios = fam.log_evidence_ratio(v, 1.0)
        means, variances = fam.tilt_moments(v, 1.0)
        assert np.isfinite(ratios).all() and np.isfinite(means).all() and (variances > 0).all()
        if scale > 1.0:  # the prior is flat over the likelihood: the tilt is N(v, 1)
            np.testing.assert_allclose(means, v, rtol=1e-15, atol=0)
            np.testing.assert_allclose(variances, 1.0, rtol=1e-15)
        else:  # a point mass at 0 up to |v| ~ 38, then the likelihood alone
            np.testing.assert_allclose(variances[:2], scale * math.sqrt(2 / math.pi) * np.exp(v[:2] ** 2 / 2))
            np.testing.assert_allclose(means[5:], v[5:] * (1 - 2 / v[5:] ** 2), rtol=1e-3)
            with pytest.raises(InputError, match="leaves a tilt no evidence"):  # Re w underflows to 0
                fam.tilt_moments([1e200], 1.0)

    def test_geometric_weights_at_negative_tau(self):
        # exp(-tau k) overflows at k = 1000 for tau = -1; the weights are shifted first,
        # and tau >= 0 keeps the unshifted bits
        w = SievePrior.geometric(-1.0, 1000, GaussianCoordinates(1.0)).dimension_weights
        assert np.all(np.isfinite(w)) and w[-1] == w.max()
        np.testing.assert_allclose(w[-100:] / w[-101:-1], math.e, rtol=1e-12)
        raw = np.exp(-0.7 * np.arange(41.0))
        got = SievePrior.geometric(0.7, 40, GaussianCoordinates(1.0)).dimension_weights
        np.testing.assert_array_equal(got, sequence_model._normalized(raw / raw.sum()))

    def test_rescaled_gaussian_is_conjugate(self):
        fam = RescaledGaussianCoordinates(4.0, 16.0)
        assert isinstance(fam, GaussianCoordinates)
        assert fam.sigma0_sq == pytest.approx(0.25)


class TestProbabilityVectors:
    """Dimension weights are checked as divergences checks every vector."""

    BAD = [[np.nan, 0.5, 0.5], [-0.5, 1.0, 0.5], [0.5, 0.5, 1e-8], [np.inf, 0.0, 0.0]]

    @pytest.mark.parametrize("weights", BAD)
    def test_sieve_prior_rejects(self, weights):
        with pytest.raises(InputError, match="probabilities"):
            gaussian_prior(K_max=2, weights=weights)

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

    def obs_tilts(self, k):
        return np.column_stack(self.prior.coordinate_family.tilt_moments(self.obs.y, self.obs.n))[:k]

    def test_fit_minimal_among_perturbations(self):
        base_gap = posterior_kl_gap(self.prior, self.obs, self.post)
        rng = np.random.default_rng(77)
        for _ in range(50):
            k = int(rng.integers(0, 6))
            p = 0.0 if k == 0 else float(rng.uniform(0, 0.95))
            gap = posterior_kl_gap(self.prior, self.obs, ShellPosterior(k, p, self.obs_tilts(k), 5))
            assert gap >= base_gap - 1e-8

    def test_shell_on_other_tilts_rejected(self):
        assert self.post.k >= 1
        other = self.obs_tilts(self.post.k)
        other[-1, 1] *= 2.0
        for tilts in (other, self.obs_tilts(self.post.k) + [0.1, 0.0]):
            shell = ShellPosterior(self.post.k, self.post.p, tilts, 5)
            with pytest.raises(InputError, match="tilts are not the tilts of obs"):
                posterior_kl_gap(self.prior, self.obs, shell)

    def test_non_candidate_rejected(self):
        with pytest.raises(InputError):
            posterior_kl_gap(self.prior, self.obs, {"not": "a candidate"})

    def test_degenerate_density_rejected(self):
        with pytest.raises(InputError):
            ShellPosterior(1, 0.2, [[0.0, 0.0]], 1)

    def test_k_beyond_k_max_rejected(self):
        with pytest.raises(InputError):
            ShellPosterior(2, 0.0, [[0.0, 1.0]] * 2, 1)

    def test_k_max_mismatch_rejected(self):
        post = ShellPosterior(1, 0.0, [[0.0, 1.0]], 4)
        with pytest.raises(InputError):
            posterior_kl_gap(self.prior, self.obs, post)
