"""Tests for the conjugate mixture coordinate ascent."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from vblab.errors import InputError
from vblab.mixture import (
    GMFState,
    MixtureHyper,
    MixtureModel,
    cavi_fixed_k,
    hellinger_to_truth,
    hellinger_to_truth_mc,
    kernel_psi,
    mixture_pdf,
    sample_mixture,
    select_k,
)


class TestKernel:
    def test_gaussian_peak_value(self):
        # Gamma(3/2) = sqrt(pi)/2, so psi_1(0; p=2) = 1/sqrt(pi)
        assert float(kernel_psi(0.0, 1.0, 2)) == pytest.approx(1.0 / math.sqrt(math.pi), abs=1e-12)

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("p", [2, 4])
    def test_normalization(self, sigma, p):
        val, _ = quad(lambda t: float(kernel_psi(t, sigma, p)), -np.inf, np.inf)
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_p2_equals_gaussian_density(self):
        x = np.linspace(-3, 3, 41)
        for sigma in (0.5, 1.3):
            var = sigma**2 / 2.0
            gauss = np.exp(-0.5 * x**2 / var) / math.sqrt(2 * math.pi * var)
            np.testing.assert_allclose(kernel_psi(x, sigma, 2), gauss, atol=1e-12)

    def test_odd_p_rejected(self):
        with pytest.raises(InputError):
            kernel_psi(0.0, 1.0, 3)


class TestMixturePdf:
    def test_single_component(self):
        model = MixtureModel(1, np.array([0.0]), np.array([1.0]), 1.0)
        x = np.linspace(-2, 2, 11)
        np.testing.assert_allclose(mixture_pdf(model, x), kernel_psi(x, 1.0, 2), atol=1e-14)

    def test_symmetric_two_component_even(self):
        model = MixtureModel(2, np.array([-1.0, 1.0]), np.array([0.5, 0.5]), 0.8)
        assert mixture_pdf(model, 0.7)[0] == pytest.approx(mixture_pdf(model, -0.7)[0], abs=1e-14)

    def test_integrates_to_one(self):
        model = MixtureModel(3, np.array([-2.0, 0.3, 1.5]), np.array([0.2, 0.5, 0.3]), 0.7)
        val, _ = quad(lambda t: float(mixture_pdf(model, t)[0]), -12, 12)
        assert val == pytest.approx(1.0, abs=1e-8)


class TestCavi:
    def test_single_component_matches_conjugate_fixed_point(self):
        rng = np.random.default_rng(0)
        x = rng.normal(0.3, 1.0 / math.sqrt(2.0), size=200)
        hyper = MixtureHyper(sigma0_sq=4.0, alpha0=1.0, a0=2.0, b0=1.0)
        state = cavi_fixed_k(x, 1, hyper, seed=1, tol=1e-13, max_sweeps=5000)
        assert state.converged
        # with k=1, the mean factor must equal the exact Gaussian posterior
        # conditioned on the fitted mean precision E[tau]
        e_tau = state.tau_shape / state.tau_rate
        prec = 1.0 / hyper.sigma0_sq + 2.0 * e_tau * x.size
        assert state.mu_var[0] == pytest.approx(1.0 / prec, rel=1e-6)
        assert state.mu_mean[0] == pytest.approx(2.0 * e_tau * x.sum() / prec, rel=1e-6)
        # and the precision factor must sit at its own fixed point
        assert state.tau_shape == pytest.approx(hyper.a0 + x.size / 2)
        expected_rate = hyper.b0 + float(np.sum((x - state.mu_mean[0]) ** 2 + state.mu_var[0]))
        assert state.tau_rate == pytest.approx(expected_rate, rel=1e-6)
        # posterior mean within 3 posterior sd of the sample mean
        assert abs(state.mu_mean[0] - x.mean()) < 3 * math.sqrt(state.mu_var[0])

    def test_elbo_monotone_on_seeded_runs(self):
        rng = np.random.default_rng(42)
        for run in range(50):
            k_true = int(rng.integers(1, 4))
            model = MixtureModel(
                k_true,
                np.linspace(-2, 2, k_true),
                np.full(k_true, 1.0 / k_true),
                0.8,
            )
            x = sample_mixture(model, 120, seed=rng)
            state = cavi_fixed_k(x, int(rng.integers(1, 5)), seed=run)
            diffs = np.diff(state.elbo_trace)
            assert np.all(diffs >= -1e-9), f"run {run}: ELBO decreased by {diffs.min()}"

    def test_responsibilities_row_stochastic(self):
        x = np.concatenate([np.full(30, -3.0), np.full(30, 3.0)])
        state = cavi_fixed_k(x, 2, seed=3)
        np.testing.assert_allclose(state.responsibilities.sum(axis=1), 1.0, atol=1e-10)

    def test_dirichlet_update_identity(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=90)
        state = cavi_fixed_k(x, 3, seed=5)
        np.testing.assert_allclose(
            state.w_concentration,
            state.hyper.alpha0 + state.responsibilities.sum(axis=0),
            atol=1e-10,
        )

    def test_empty_data_rejected(self):
        with pytest.raises(InputError):
            cavi_fixed_k(np.array([]), 1)


class TestSelectK:
    def make_separated_data(self, n=400, seed=123):
        model = MixtureModel(2, np.array([-3.0, 3.0]), np.array([0.5, 0.5]), 0.5)
        return sample_mixture(model, n, seed=seed), model

    def test_recovers_two_components(self):
        x, _ = self.make_separated_data()
        k_sel, state = select_k(x, [1, 2, 3, 4], seed=7)
        assert k_sel == 2
        assert state.k == 2

    def test_single_component_data(self):
        rng = np.random.default_rng(9)
        x = rng.normal(0.0, 0.5, size=300)
        k_sel, _ = select_k(x, [1, 2, 3], seed=7)
        assert k_sel == 1

    def test_selected_score_dominates(self):
        x, _ = self.make_separated_data()
        hyper = MixtureHyper()
        k_sel, best = select_k(x, [1, 2, 3], hyper, seed=7)

        def penalized(k, state):
            from scipy.special import gammaln

            return state.elbo + k * math.log(hyper.xi0) - hyper.xi0 - gammaln(k + 1.0)

        from vblab._rng import derive_seed

        for k in (1, 2, 3):
            state = cavi_fixed_k(x, k, hyper, seed=derive_seed(7, k))
            assert penalized(k_sel, best) >= penalized(k, state) - 1e-9

    def test_permutation_invariance(self):
        x, _ = self.make_separated_data()
        rng = np.random.default_rng(2)
        k_a, _ = select_k(x, [1, 2, 3], seed=7)
        k_b, _ = select_k(rng.permutation(x), [1, 2, 3], seed=7)
        assert k_a == k_b

    def test_empty_candidates_rejected(self):
        with pytest.raises(InputError):
            select_k(np.zeros(10), [])

    @pytest.mark.parametrize("candidates", [[0], [-1, 2]])
    def test_nonpositive_candidates_rejected(self, candidates):
        with pytest.raises(InputError):
            select_k(np.zeros(10), candidates)


class TestHellinger:
    def test_zero_against_own_plugin(self):
        x, _ = self.bimodal_sample()
        state = cavi_fixed_k(x, 2, seed=1)
        grid = np.linspace(-8, 8, 4001)
        f0 = mixture_pdf(state.posterior_mean_model(), grid)
        assert hellinger_to_truth(state, f0, grid) == pytest.approx(0.0, abs=1e-12)

    def bimodal_sample(self, n=400, seed=5):
        model = MixtureModel(2, np.array([-1.5, 1.5]), np.array([0.5, 0.5]), 0.8)
        return sample_mixture(model, n, seed=seed), model

    def test_matches_dense_trapezoid_oracle(self):
        x, model = self.bimodal_sample()
        state = cavi_fixed_k(x, 2, seed=1)
        grid = np.linspace(-10, 10, 8001)
        f0 = mixture_pdf(model, grid)
        got = hellinger_to_truth(state, f0, grid)
        dense = np.linspace(-10, 10, 10**6 + 1)
        fit = mixture_pdf(state.posterior_mean_model(), dense)
        truth = mixture_pdf(model, dense)
        oracle = 0.5 * float(np.trapezoid((np.sqrt(fit) - np.sqrt(truth)) ** 2, dense))
        assert got == pytest.approx(oracle, abs=1e-6)

    def test_median_decreases_with_sample_size(self):
        model = MixtureModel(2, np.array([-1.5, 1.5]), np.array([0.5, 0.5]), 0.8)
        grid = np.linspace(-10, 10, 4001)
        f0 = mixture_pdf(model, grid)
        medians = []
        for n in (200, 1600):
            vals = []
            for rep in range(20):
                x = sample_mixture(model, n, seed=1000 * n + rep)
                state = cavi_fixed_k(x, 2, seed=rep)
                vals.append(hellinger_to_truth(state, f0, grid))
            medians.append(float(np.median(vals)))
        assert medians[1] < medians[0]

    def test_mc_variant_close_to_plugin(self):
        x, model = self.bimodal_sample(n=800)
        state = cavi_fixed_k(x, 2, seed=1)
        grid = np.linspace(-10, 10, 4001)
        f0 = mixture_pdf(model, grid)
        plug = hellinger_to_truth(state, f0, grid)
        mc = hellinger_to_truth_mc(state, f0, grid, draws=64, seed=3)
        assert mc >= plug - 1e-6  # draws average over factor spread
        assert mc < plug + 0.05

    def test_coarse_grid_rejected(self):
        x, model = self.bimodal_sample()
        state = cavi_fixed_k(x, 2, seed=1)
        grid = np.linspace(-0.5, 0.5, 11)  # misses nearly all mass
        f0 = mixture_pdf(model, grid)
        with pytest.raises(InputError):
            hellinger_to_truth(state, f0, grid)

    @pytest.mark.parametrize("distance", [hellinger_to_truth, hellinger_to_truth_mc])
    def test_f0_off_the_grid_rejected(self, distance):
        x, model = self.bimodal_sample()
        state = cavi_fixed_k(x, 2, seed=1)
        grid = np.linspace(-10, 10, 4001)
        f0 = mixture_pdf(model, grid[:-1])
        with pytest.raises(InputError, match="tabulated on the grid"):
            distance(state, f0, grid)
