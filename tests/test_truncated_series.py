"""Tests for the explicit truncated-family variational posterior."""

import math

import numpy as np
import pytest

from vblab.errors import InputError
from vblab.sequence_model import SequenceObservation, SobolevSignal, make_signal
from vblab.truncated_series import (
    exact_risk,
    fit_vb_k,
    rate_exponent_curve,
    theory_exponent,
    worst_case_risk,
)


class TestFitVbK:
    def test_k_zero_is_all_tail(self):
        obs = SequenceObservation(np.array([1.0, -2.0, 0.5]), 3.0)
        post = fit_vb_k(obs, beta=1.0, k=0)
        assert post.coord_means.size == 0
        assert post.log_tail_variance(1) == -3.0
        assert post.log_tail_variance(3) == -9.0

    def test_direct_formula(self):
        obs = SequenceObservation(np.array([2.0]), 1.0)
        post = fit_vb_k(obs, beta=0.0, k=1)
        assert post.coord_means[0] == pytest.approx(1.0)
        assert post.coord_vars[0] == pytest.approx(0.5)

    def test_strong_decay_shrinks_later_coordinates(self):
        obs = SequenceObservation(np.ones(10), 10.0)
        post = fit_vb_k(obs, beta=10.0, k=10)
        assert abs(post.coord_means[0]) > 0.4
        assert np.all(np.abs(post.coord_means[1:]) < 1e-4)

    def test_k_out_of_range(self):
        obs = SequenceObservation(np.ones(4), 4.0)
        with pytest.raises(InputError):
            fit_vb_k(obs, beta=1.0, k=5)

    def test_tail_index_validated(self):
        obs = SequenceObservation(np.ones(4), 4.0)
        post = fit_vb_k(obs, beta=1.0, k=2)
        with pytest.raises(InputError):
            post.log_tail_variance(2)


def term_by_term_risk(theta, n, beta, k):
    """Plain-loop oracle for the five-piece risk decomposition."""
    bias = sum(
        (j ** (2 * beta + 1) / (n + j ** (2 * beta + 1))) ** 2 * theta[j - 1] ** 2
        for j in range(1, min(k, len(theta)) + 1)
    )
    tail_sig = sum(theta[j - 1] ** 2 for j in range(k + 1, len(theta) + 1))
    samp = sum(n / (n + j ** (2 * beta + 1)) ** 2 for j in range(1, k + 1))
    post = sum(1.0 / (n + j ** (2 * beta + 1)) for j in range(1, k + 1))
    tails = sum(math.exp(-j * n) for j in range(k + 1, n + 1))
    return bias + tail_sig + samp + post + tails


class TestExactRisk:
    def test_hand_evaluated_example(self):
        # n=1, beta=0, k=1, zero signal: sampling var 1/4 + posterior var 1/2
        sig = SobolevSignal(np.zeros(1), alpha=1.0, B=1.0)
        assert exact_risk(sig, 1, 0.0, 1) == pytest.approx(0.75)

    def test_single_tail_term(self):
        sig = SobolevSignal(np.zeros(1), alpha=1.0, B=1.0)
        assert exact_risk(sig, 1, 0.0, 0) == pytest.approx(math.exp(-1.0))

    def test_matches_term_by_term_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            n = int(rng.integers(1, 40))
            k = int(rng.integers(0, n + 1))
            beta = float(rng.uniform(0.0, 2.0))
            length = int(rng.integers(1, 12))
            raw = rng.normal(size=length) * 0.2
            sig = SobolevSignal(raw, alpha=0.5, B=float(10 + np.abs(raw).sum() * 20))
            assert exact_risk(sig, n, beta, k) == pytest.approx(
                term_by_term_risk(list(raw), n, beta, k), rel=1e-12
            )

    def test_matches_monte_carlo(self):
        rng = np.random.default_rng(2718)
        reps = 10_000
        for _ in range(20):
            n = int(rng.integers(2, 33))
            k = int(rng.integers(0, min(n, 8) + 1))
            beta = float(rng.uniform(0.0, 2.0))
            length = int(rng.integers(max(1, k), k + 6))
            theta = rng.normal(size=length) * 0.3
            sig = SobolevSignal(theta, alpha=0.5, B=float(5 + 40 * np.abs(theta).sum()))
            closed = exact_risk(sig, n, beta, k)

            j = np.arange(1, k + 1, dtype=float)
            denom = n + j ** (2 * beta + 1)
            y = theta[:k] + rng.standard_normal((reps, k)) / math.sqrt(n)
            means = n * y / denom
            draws = means + rng.standard_normal((reps, k)) / np.sqrt(denom)
            losses = np.sum((draws - theta[:k]) ** 2, axis=1)
            # tail factors: N(0, e^{-j n}) for k < j <= n, delta_0 beyond
            for jj in range(k + 1, n + 1):
                sd = math.exp(-jj * n / 2.0) if jj * n < 1400 else 0.0
                tail_draw = sd * rng.standard_normal(reps) if sd > 0 else 0.0
                target = theta[jj - 1] if jj <= length else 0.0
                losses = losses + (tail_draw - target) ** 2
            if length > n:
                losses = losses + np.sum(theta[n:] ** 2)
            stderr = losses.std(ddof=1) / math.sqrt(reps)
            assert closed == pytest.approx(
                float(losses.mean()), abs=max(3 * stderr, 1e-12)
            )


class TestTheoryExponent:
    def test_balanced_case(self):
        assert theory_exponent(1.0, 1.0, 1.0 / 3.0) == pytest.approx(-2.0 / 3.0)

    def test_minimax_point(self):
        assert theory_exponent(2.0, 1.0, 0.2) == pytest.approx(-0.8)

    def test_full_posterior_branch(self):
        assert theory_exponent(1.0, 2.0, 0.9) == pytest.approx(-2.0 / 5.0)


class TestRateCurve:
    def test_fitted_matches_theory_smoke(self):
        t_grid = [0.1, 0.3, 0.5, 1.0]
        n_grid = [2**m for m in range(10, 17)]
        for t, fitted, theory in rate_exponent_curve(1.0, 1.0, t_grid, n_grid):
            assert abs(fitted - theory) <= 0.07, f"t={t}: {fitted} vs {theory}"

    def test_full_posterior_exponent(self):
        rows = rate_exponent_curve(2.0, 1.0, [1.0], [2**m for m in range(10, 17)])
        t, fitted, theory = rows[0]
        assert theory == pytest.approx(-2.0 / 3.0)
        assert abs(fitted - theory) <= 0.07

    def test_variational_beats_posterior(self):
        for m in range(10, 17):
            n = 2**m
            k = math.ceil(n**0.2 - 1e-9)
            assert worst_case_risk(2.0, 1.0, n, k) < worst_case_risk(2.0, 1.0, n, n)

    def test_unimodal_in_k_for_boundary_signal(self):
        n = 1024
        sig = make_signal("sobolev_boundary", alpha=2.0, B=1.0, K_max=64)
        risks = [exact_risk(sig, n, 1.0, k) for k in range(0, 60)]
        diffs = np.sign(np.diff(risks))
        nonzero = diffs[diffs != 0]
        switches = int(np.sum(nonzero[1:] != nonzero[:-1]))
        assert switches <= 1

    def test_curve_input_validation(self):
        with pytest.raises(InputError):
            rate_exponent_curve(1.0, 1.0, [0.5], [1024, 2048])
        with pytest.raises(InputError):
            rate_exponent_curve(1.0, 1.0, [0.5], [32, 64, 128])
        with pytest.raises(InputError):
            rate_exponent_curve(1.0, 1.0, [], [1024, 2048, 4096])

    def test_powers_validated_before_use(self):
        # t > 1 would overflow n^t and beta = -1/2 would divide by zero
        with pytest.raises(InputError):
            rate_exponent_curve(1.0, 1.0, [64.0], [1024, 2048, 4096])
        with pytest.raises(InputError):
            worst_case_risk(1.0, -0.5, 1024, 8)
