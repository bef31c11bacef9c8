"""Tests for the truncated-family variational posterior's exact risk and rate curve."""

import math

import numpy as np
import pytest

from vblab.errors import InputError
from vblab.sequence_model import SobolevSignal, make_signal
from vblab.truncated_series import (
    _ceil_power,
    exact_risk,
    rate_exponent_curve,
    theory_exponent,
    worst_case_risk,
)


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

    @pytest.mark.parametrize("beta", [60.0, 200.0])
    def test_finite_where_the_decay_overflows(self, beta):
        # j^(2 beta + 1) leaves float range from j = 352 (beta 60) and j = 6 (beta 200)
        n = k = 1024
        sig = make_signal("sobolev_boundary", alpha=1.0, B=1.0, K_max=2 * k)
        log_j = np.log(np.arange(1, k + 1))
        log_denom = np.logaddexp(math.log(n), (2 * beta + 1) * log_j)
        shrink = np.exp((2 * beta + 1) * log_j - log_denom)
        expected = (
            np.sum(shrink**2 * sig.theta[:k] ** 2)
            + np.sum(sig.theta[k:] ** 2)
            + np.sum(np.exp(math.log(n) - 2 * log_denom))
            + np.sum(np.exp(-log_denom))
        )  # the tail variances e^{-j n} underflow to 0 at this n
        risk = exact_risk(sig, n, beta, k)
        assert math.isfinite(risk)
        assert risk == pytest.approx(expected, rel=1e-12)


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

    @pytest.mark.parametrize("beta", [0.0, 1.0, 200.0])
    @pytest.mark.parametrize("n", [1, 2, 7, 64, 1000, 65536])
    def test_vector_k_matches_the_built_candidates(self, n, beta):
        # worst_case_risk builds no signal; each k's value must be the max exact_risk over
        # the three candidates that make_signal builds at that k's length
        ks = sorted({0, 1, min(5, n), _ceil_power(n, 0.5), n - 1, n})
        j_eff = _ceil_power(n, 1.0 / (2 * beta + 1))
        for alpha, B in ((1.0, 1.0), (0.3, 5.0), (4.0, 0.5)):
            risks = worst_case_risk(alpha, beta, n, ks, B)
            assert risks.shape == (len(ks),)
            for k, risk in zip(ks, risks):
                length = max(4 * j_eff, k + 2, 8)
                candidates = [
                    make_signal("spike", alpha, B, length, j0=k + 1),
                    make_signal("spike", alpha, B, length, j0=j_eff),
                    make_signal("sobolev_boundary", alpha, B, length),
                ]
                expected = max(exact_risk(sig, n, beta, k) for sig in candidates)
                assert risk == pytest.approx(expected, rel=1e-12, abs=0)

    def test_each_k_independent_of_the_others(self):
        # the prefix sums are sequential, so a k's entry does not depend on the array's length
        n, ks = 4096, [0, 3, 17, 90, 600, 4095, 4096]
        risks = worst_case_risk(1.0, 1.0, n, ks)
        for k, risk in zip(ks, risks):
            assert worst_case_risk(1.0, 1.0, n, k) == risk
            assert worst_case_risk(1.0, 1.0, n, [k]).tolist() == [risk]

    def test_t_run_alone_gives_its_row(self):
        t_grid = [round(0.1 * i, 1) for i in range(1, 11)]
        n_grid = [2**m for m in range(10, 17)]
        rows = rate_exponent_curve(1.0, 1.0, t_grid, n_grid)
        for t, row in zip(t_grid, rows):
            assert rate_exponent_curve(1.0, 1.0, [t], n_grid) == [row]

    def test_powers_validated_before_use(self):
        # t > 1 would overflow n^t and beta = -1/2 would divide by zero
        with pytest.raises(InputError):
            rate_exponent_curve(1.0, 1.0, [64.0], [1024, 2048, 4096])
        with pytest.raises(InputError):
            worst_case_risk(1.0, -0.5, 1024, 8)

    @pytest.mark.parametrize(
        "alpha, B, k, message",
        [
            (0.0, 1.0, 8, "alpha and B must be positive"),
            (1.0, -1.0, [8], "alpha and B must be positive"),
            (1.0, 1.0, [8, 1025], r"k=1025 outside 0\.\.1024"),
            (1.0, 1.0, [8, 2.5], "k must be non-negative and an integer"),
        ],
    )
    def test_worst_case_inputs_checked(self, alpha, B, k, message):
        with pytest.raises(InputError, match=message):
            worst_case_risk(alpha, 1.0, 1024, k, B)
