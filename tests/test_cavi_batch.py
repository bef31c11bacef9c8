"""The batched sufficient-statistics CAVI against the per-fit loop it replaced.

The per-fit coordinate ascent, bound and selection loop below are the
reference: each fit works on its own (n, k) arrays, forms the squared
distances of every point to every mean, and takes the assignment entropy
from log(r).
"""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import digamma, gammaln

from vblab import harness, mixture
from vblab._lse import _logsumexp
from vblab._rng import derive_seed, generator
from vblab.errors import InputError
from vblab.mixture import MixtureHyper, MixtureModel

HYPER = MixtureHyper()
CANDIDATES = [1, 2, 3, 4]


def ref_elbo(delta, r, m, v, alpha, a, b, hyper):
    n, k = r.shape
    e_tau = a / b
    e_logtau = digamma(a) - math.log(b)
    alpha_hat = alpha.sum()
    e_logw = digamma(alpha) - digamma(alpha_hat)

    lik = float(np.sum(r * (0.5 * e_logtau - 0.5 * math.log(math.pi) - e_tau * delta)))
    assign = float(np.sum(r * e_logw[None, :]))
    a0 = hyper.alpha0
    p_w = gammaln(k * a0) - k * gammaln(a0) + (a0 - 1.0) * float(e_logw.sum())
    p_mu = float(
        np.sum(-0.5 * math.log(2 * math.pi * hyper.sigma0_sq) - (m**2 + v) / (2 * hyper.sigma0_sq))
    )
    p_tau = (
        hyper.a0 * math.log(hyper.b0)
        - gammaln(hyper.a0)
        + (hyper.a0 - 1.0) * e_logtau
        - hyper.b0 * e_tau
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        h_assign = -float(np.sum(np.where(r > 0, r * np.log(r), 0.0)))
    h_w = float(
        np.sum(gammaln(alpha))
        - gammaln(alpha_hat)
        + (alpha_hat - k) * digamma(alpha_hat)
        - np.sum((alpha - 1.0) * digamma(alpha))
    )
    h_mu = float(np.sum(0.5 * np.log(2 * math.pi * math.e * v)))
    h_tau = a - math.log(b) + gammaln(a) + (1.0 - a) * digamma(a)
    return lik + assign + p_w + p_mu + p_tau + h_assign + h_w + h_mu + h_tau


def ref_cavi(x, k, hyper, seed, tol=1e-8, max_sweeps=1000):
    """One fit: (m, v, alpha, a, b, r, trace, converged)."""
    x = np.asarray(x, dtype=float)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    n = x.size
    m = np.quantile(x, (np.arange(k) + 0.5) / k) + 0.01 * x.std() * rng.standard_normal(k)
    v = np.full(k, x.var() / max(k, 1) + 1e-6)
    alpha = np.full(k, hyper.alpha0)
    a, b = hyper.a0, hyper.b0
    trace = []
    converged = False
    delta = (x[:, None] - m[None, :]) ** 2 + v[None, :]
    for _ in range(max_sweeps):
        e_tau = a / b
        e_logtau = digamma(a) - math.log(b)
        e_logw = digamma(alpha) - digamma(alpha.sum())
        log_r = e_logw[None, :] + 0.5 * e_logtau - 0.5 * math.log(math.pi) - e_tau * delta
        log_r -= _logsumexp(log_r, axis=1, keepdims=True)
        r = np.exp(log_r)

        counts = r.sum(axis=0)
        alpha = hyper.alpha0 + counts
        prec = 1.0 / hyper.sigma0_sq + 2.0 * e_tau * counts
        v = 1.0 / prec
        m = 2.0 * e_tau * (r * x[:, None]).sum(axis=0) * v
        a = hyper.a0 + 0.5 * n
        delta = (x[:, None] - m[None, :]) ** 2 + v[None, :]
        b = hyper.b0 + float(np.sum(r * delta))

        trace.append(ref_elbo(delta, r, m, v, alpha, a, b, hyper))
        if len(trace) > 1 and abs(trace[-1] - trace[-2]) <= tol * max(1.0, abs(trace[-1])):
            converged = True
            break
    return m, v, alpha, a, b, r, trace, converged


def ref_select_k(x, candidates, hyper, seed):
    """(selected k, its fit, every fit by k)."""
    fits = {k: ref_cavi(x, k, hyper, derive_seed(seed, k)) for k in sorted(set(candidates))}
    best = None
    for k, fit in fits.items():
        score = fit[6][-1] + k * math.log(hyper.xi0) - hyper.xi0 - gammaln(k + 1.0)
        if best is None or score > best[0]:
            best = (score, k, fit)
    return best[1], best[2], fits


def stack(seed, n, reps, truth=None):
    """reps samples of size n from a seeded stream and one fit seed each."""
    truth = truth or MixtureModel(2, np.array([-3.0, 3.0]), np.array([0.5, 0.5]), 0.5)
    rng = np.random.default_rng([seed, n])
    samples = np.stack([mixture.sample_mixture(truth, n, seed=rng) for _ in range(reps)])
    return samples, [int(rng.integers(2**63)) for _ in range(reps)]


def assert_matches(state, fit):
    m, v, alpha, a, b, r, trace, converged = fit
    assert len(state.elbo_trace) == len(trace)
    assert state.converged == converged
    np.testing.assert_allclose(state.elbo_trace, trace, rtol=1e-9, atol=0)
    for got, want in ((state.mu_mean, m), (state.mu_var, v), (state.w_concentration, alpha)):
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)
    assert state.tau_shape == a
    np.testing.assert_allclose(state.tau_rate, b, rtol=1e-9, atol=0)
    np.testing.assert_allclose(state.responsibilities, r, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("seed,n,reps", [(0, 200, 3), (1, 400, 2), (2, 60, 4), (3, 1600, 1)])
def test_batch_matches_per_fit_loop(seed, n, reps):
    samples, seeds = stack(seed, n, reps)
    batch = mixture.select_k_batch(samples, CANDIDATES, HYPER, seeds)
    for x, fit_seed, (k_sel, state) in zip(samples, seeds, batch):
        ref_k, ref_fit, fits = ref_select_k(x, CANDIDATES, HYPER, fit_seed)
        assert k_sel == ref_k == state.k
        assert_matches(state, ref_fit)
        for k, fit in fits.items():
            assert_matches(mixture.cavi_fixed_k(x, k, HYPER, seed=derive_seed(fit_seed, k)), fit)


def test_fixed_k_matches_on_mixed_stacks():
    # three-component truth, uneven weights, and tolerances and sweep caps away from the defaults
    truth = MixtureModel(3, np.array([-2.0, 0.5, 2.5]), np.array([0.2, 0.5, 0.3]), 0.9)
    rng = np.random.default_rng(11)
    for run in range(12):
        x = mixture.sample_mixture(truth, int(rng.integers(20, 300)), seed=rng)
        k = int(rng.integers(1, 6))
        tol, max_sweeps = (1e-8, 1000) if run % 3 else (1e-11, 40)
        hyper = MixtureHyper(sigma0_sq=2.0, alpha0=0.7, a0=1.5, b0=0.5, xi0=3.0)
        state = mixture.cavi_fixed_k(x, k, hyper, seed=run, tol=tol, max_sweeps=max_sweeps)
        assert_matches(state, ref_cavi(x, k, hyper, run, tol, max_sweeps))


@pytest.mark.parametrize("sigma0_sq", [4.0, 1e14])
def test_data_far_from_zero(sigma0_sq):
    # moments about 0 would cancel in about 13 of 16 digits here
    truth = MixtureModel(2, np.array([1e6 - 3.0, 1e6 + 3.0]), np.array([0.5, 0.5]), 0.5)
    hyper = MixtureHyper(sigma0_sq=sigma0_sq)
    samples, seeds = stack(12, 300, 2, truth)
    batch = mixture.select_k_batch(samples, CANDIDATES, hyper, seeds)
    for x, fit_seed, (k_sel, state) in zip(samples, seeds, batch):
        ref_k, ref_fit, _ = ref_select_k(x, CANDIDATES, hyper, fit_seed)
        assert k_sel == ref_k
        assert np.all(np.isfinite(state.elbo_trace))
        assert_matches(state, ref_fit)


def test_unconverged_rows_stop_at_max_sweeps():
    samples, seeds = stack(4, 300, 2)
    for x, seed in zip(samples, seeds):
        state = mixture.cavi_fixed_k(x, 4, HYPER, seed=seed, max_sweeps=7)
        assert len(state.elbo_trace) == 7 and not state.converged
        assert_matches(state, ref_cavi(x, 4, HYPER, seed, max_sweeps=7))


def ref_hellinger_runner(p, n, rng):
    """The per-replication mixture runner the batched one replaced."""
    mu, w = (np.asarray(p["truth"][key], dtype=float) for key in ("mu", "w"))
    truth = MixtureModel(k=mu.size, mu=mu, w=w, sigma=p["truth"]["sigma"])
    hyper = MixtureHyper(**p["hyper"])
    data = mixture.sample_mixture(truth, n, seed=rng)
    k, (m, v, alpha, a, b, *_), _ = ref_select_k(
        data, p["k_candidates"], hyper, int(rng.integers(2**63))
    )
    fit = MixtureModel(k=k, mu=m, w=alpha / alpha.sum(), sigma=1.0 / math.sqrt(a / b))
    span = float(np.max(np.abs(truth.mu)) + 6.0 * max(truth.sigma, 1.0))
    grid = np.linspace(-span, span, p["grid_points"])
    f0 = mixture.mixture_pdf(truth, grid)
    fitted = mixture.mixture_pdf(fit, grid)
    return 0.5 * float(np.trapezoid((np.sqrt(fitted) - np.sqrt(f0)) ** 2, grid))


@pytest.mark.parametrize("n", [100, 400])
def test_harness_hellinger_matches_per_replication_runner(n):
    params = harness.parse_params({}, "mixture_hellinger")
    got = harness.MODELS["mixture_hellinger"].runner(
        params, n, [generator(17, n, rep) for rep in range(3)]
    )
    want = [ref_hellinger_runner(params, n, generator(17, n, rep)) for rep in range(3)]
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=0)


def test_padded_components_are_inert(monkeypatch):
    # a k = 1 or 2 fit padded to four components equals the same fit unpadded,
    # and the two padded components never get any responsibility
    samples, seeds = stack(5, 250, 3)
    rows = [(i, k, derive_seed(s, k)) for i, s in enumerate(seeds) for k in (1, 2)]
    weights = []

    def recording(x, axis):
        lse, r = mixture_lse(x, axis)
        weights.append(r.copy())
        return lse, r

    mixture_lse = mixture._logsumexp_weights
    monkeypatch.setattr(mixture, "_logsumexp_weights", recording)
    padded = list(mixture._cavi_rows(samples, rows, HYPER, 1e-8, 1000, 4))
    monkeypatch.undo()
    assert weights and all(r.shape[1] == 4 and not r[:, 2:].any() for r in weights)
    for (i, k, seed), state in zip(rows, padded):
        alone = next(mixture._cavi_rows(samples, [(i, k, seed)], HYPER, 1e-8, 1000, k))
        assert state.responsibilities.shape == (250, k)
        np.testing.assert_allclose(state.responsibilities.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        assert_same(state, alone, rtol=1e-12, atol=1e-15)


def assert_same(a, b, rtol=0.0, atol=0.0):
    assert (a.k, a.converged, a.tau_shape) == (b.k, b.converged, b.tau_shape)
    assert len(a.elbo_trace) == len(b.elbo_trace)
    np.testing.assert_allclose(a.elbo_trace, b.elbo_trace, rtol=rtol, atol=0)
    np.testing.assert_allclose(a.tau_rate, b.tau_rate, rtol=rtol, atol=0)
    for field in ("mu_mean", "mu_var", "w_concentration"):
        np.testing.assert_allclose(getattr(a, field), getattr(b, field), rtol=rtol, atol=0)
    np.testing.assert_allclose(a.responsibilities, b.responsibilities, rtol=rtol, atol=atol)


def test_grouping_does_not_change_any_bit(monkeypatch):
    samples, seeds = stack(6, 200, 3)
    grouped = mixture.select_k_batch(samples, CANDIDATES, HYPER, seeds)
    monkeypatch.setattr(mixture, "_CAVI_CELLS", 1)  # one row per group
    alone = mixture.select_k_batch(samples, CANDIDATES, HYPER, seeds)
    for (k_a, a), (k_b, b) in zip(grouped, alone):
        assert k_a == k_b
        assert_same(a, b)
    singles = [mixture.select_k(x, CANDIDATES, HYPER, s)[0] for x, s in zip(samples, seeds)]
    assert [k for k, _ in grouped] == singles


def test_batch_input_checks():
    samples, seeds = stack(7, 50, 2)
    with pytest.raises(InputError):
        mixture.select_k_batch(samples, CANDIDATES, HYPER, seeds[:1])
    with pytest.raises(InputError):
        mixture.select_k_batch(samples[0], CANDIDATES, HYPER, seeds[:1])
    with pytest.raises(InputError):
        mixture.select_k_batch(samples, [0, 1], HYPER, seeds)
    bad = samples.copy()
    bad[1, 3] = np.nan
    with pytest.raises(InputError):
        mixture.select_k_batch(bad, CANDIDATES, HYPER, seeds)
    with pytest.raises(InputError):
        mixture.cavi_fixed_k(samples[0], 2, max_sweeps=0)


def _fit_peak(reps):
    truth = MixtureModel(2, np.array([-3.0, 3.0]), np.array([0.5, 0.5]), 0.5)
    samples, seeds = stack(8, 1600, reps, truth)
    tracemalloc.start()
    try:
        fits = mixture.select_k_batch(samples, [1, 2], HYPER, seeds)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(fits) == reps
    return peak - held  # working memory beyond the selected states returned


def test_batch_memory_does_not_grow_with_replications(monkeypatch):
    monkeypatch.setattr(mixture, "_CAVI_CELLS", 2 * 1600 * 2)  # two rows per group
    small, large = _fit_peak(4), _fit_peak(40)
    assert large <= 1.5 * small
