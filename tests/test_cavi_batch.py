"""The batched sufficient-statistics CAVI against the per-fit loop it replaced.

The per-fit coordinate ascent, bound and selection loop below are the
reference: each fit works on its own (n, k) arrays, forms the squared
distances of every point to every mean, and takes the assignment entropy
from log(r).
"""

import math
import tracemalloc
from types import SimpleNamespace

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
    """One fit: (m, v, alpha, a, b, r, trace, converged).

    From sweep mixture._S0 on, a sweep that stood, moving the fit from its
    last accepted point theta to theta_C, sends the next one from
    theta + eta (theta_C - theta): the means linearly and the concentrations in
    log space.  eta grows by _ETA_GROWTH up to _ETA_MAX.  An over-relaxed sweep
    whose bound is not finite or falls is dropped: eta resets to 1 and the next
    sweep starts from the last accepted point.  The last sweep is always plain.
    """
    x = np.asarray(x, dtype=float)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    n = x.size
    m = np.quantile(x, (np.arange(k) + 0.5) / k) + 0.01 * x.std() * rng.standard_normal(k)
    v = np.full(k, x.var() / max(k, 1) + 1e-6)
    alpha = np.full(k, hyper.alpha0)
    a, b = hyper.a0, hyper.b0
    m_s, alpha_s, eta = m, alpha, 1.0  # the start of the next sweep
    trace = []
    converged = False
    for sweep in range(max_sweeps):
        m_prev, alpha_prev = m, alpha
        e_tau = a / b
        e_logtau = digamma(a) - math.log(b)
        e_logw = digamma(alpha_s) - digamma(alpha_s.sum())
        delta = (x[:, None] - m_s[None, :]) ** 2 + v[None, :]
        log_r = e_logw[None, :] + 0.5 * e_logtau - 0.5 * math.log(math.pi) - e_tau * delta
        log_r -= _logsumexp(log_r, axis=1, keepdims=True)
        r_c = np.exp(log_r)

        counts = r_c.sum(axis=0)
        alpha_c = hyper.alpha0 + counts
        prec = 1.0 / hyper.sigma0_sq + 2.0 * e_tau * counts
        v_c = 1.0 / prec
        m_c = 2.0 * e_tau * (r_c * x[:, None]).sum(axis=0) * v_c
        a = hyper.a0 + 0.5 * n
        delta = (x[:, None] - m_c[None, :]) ** 2 + v_c[None, :]
        b_c = hyper.b0 + float(np.sum(r_c * delta))

        value = ref_elbo(delta, r_c, m_c, v_c, alpha_c, a, b_c, hyper)
        if sweep >= mixture._S0 and eta > 1.0 and not (math.isfinite(value) and value >= trace[-1]):
            eta = 1.0
        else:
            if sweep >= mixture._S0:
                eta = min(mixture._ETA_GROWTH * eta, mixture._ETA_MAX)
            m, v, alpha, b, r = m_c, v_c, alpha_c, b_c, r_c
            trace.append(value)
            if len(trace) > 1 and abs(trace[-1] - trace[-2]) <= tol * max(1.0, abs(trace[-1])):
                converged = True
                break
        if sweep >= mixture._S0 and sweep + 2 < max_sweeps and eta > 1.0:  # this sweep stood
            m_s = m_prev + eta * (m - m_prev)
            alpha_s = alpha_prev * (alpha / alpha_prev) ** eta
        else:
            m_s, alpha_s, eta = m, alpha, 1.0
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


def test_fixed_k_matches_on_mixed_stacks(monkeypatch):
    # three-component truth, uneven weights, and tolerances and sweep caps away from the defaults
    truth = MixtureModel(3, np.array([-2.0, 0.5, 2.5]), np.array([0.2, 0.5, 0.3]), 0.9)
    rng = np.random.default_rng(11)
    for run in range(12):
        x = mixture.sample_mixture(truth, int(rng.integers(20, 300)), seed=rng)
        k = int(rng.integers(1, 6))
        tol, max_sweeps = (1e-8, 1000) if run % 3 else (1e-11, 40)
        monkeypatch.setattr(mixture, "_TOL", tol)
        monkeypatch.setattr(mixture, "_MAX_SWEEPS", max_sweeps)
        hyper = MixtureHyper(sigma0_sq=2.0, alpha0=0.7, a0=1.5, b0=0.5, xi0=3.0)
        state = mixture.cavi_fixed_k(x, k, hyper, seed=run)
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


def test_unconverged_rows_stop_at_max_sweeps(monkeypatch):
    samples, seeds = stack(4, 300, 2)
    monkeypatch.setattr(mixture, "_MAX_SWEEPS", 7)
    for x, seed in zip(samples, seeds):
        state = mixture.cavi_fixed_k(x, 4, HYPER, seed=seed)
        assert len(state.elbo_trace) == 7 and not state.converged
        assert_matches(state, ref_cavi(x, 4, HYPER, seed, max_sweeps=7))


def plain(monkeypatch):
    """Turn the over-relaxed step off: every sweep is a plain CAVI sweep."""
    monkeypatch.setattr(mixture, "_S0", mixture._MAX_SWEEPS + 1)


def in_row_order(states):
    """The (row index, state) pairs of _cavi_rows, which come out as rows finish, as a list in row order."""
    states = dict(states)
    return [states[row] for row in range(len(states))]


def fit_rows(samples, seeds, candidates):
    rows = [(i, k, derive_seed(s, k)) for i, s in enumerate(seeds) for k in candidates]
    k_max = max(candidates)
    return in_row_order(mixture._cavi_rows(samples, rows, HYPER, k_max))


@pytest.mark.parametrize("seed,n,reps", [(0, 200, 3), (2, 60, 4), (10, 800, 2)])
def test_rows_stopping_before_s0_are_plain_cavi(monkeypatch, seed, n, reps):
    samples, seeds = stack(seed, n, reps)
    s0 = mixture._S0
    stepped = fit_rows(samples, seeds, CANDIDATES)
    plain(monkeypatch)
    plain_fits = fit_rows(samples, seeds, CANDIDATES)
    short = [(a, b) for a, b in zip(stepped, plain_fits) if len(b.elbo_trace) <= s0]
    assert short and len(short) < len(stepped)  # both kinds of row occur
    for a, b in short:
        assert_same(a, b)
        np.testing.assert_array_equal(a.responsibilities, b.responsibilities)
    assert sum(len(a.elbo_trace) for a in stepped) < sum(len(b.elbo_trace) for b in plain_fits)


def test_long_rows_keep_a_monotone_bound():
    # over-fitted k = 4 rows at n = 1600 run past S0, so their sweeps are over-relaxed
    samples, seeds = stack(9, 1600, 3)
    for state in fit_rows(samples, seeds, [4]):
        trace = np.asarray(state.elbo_trace)
        assert state.converged and trace.size > mixture._S0 + 1
        assert np.all(np.isfinite(trace))
        assert np.diff(trace).min() >= -1e-9


def test_overshooting_step_is_dropped(monkeypatch):
    # with eta at 1000 from the first over-relaxed sweep on, every such sweep
    # overshoots and is dropped, so the accepted sweeps are exactly plain CAVI
    samples, seeds = stack(9, 1600, 3)
    x, seed = samples[1], derive_seed(seeds[1], 4)
    sweeps = []

    def counting(z, axis, out=None):
        sweeps.append(z.shape[0])
        return lse(z, axis, out)

    lse = mixture._logsumexp_weights
    monkeypatch.setattr(mixture, "_logsumexp_weights", counting)
    monkeypatch.setattr(mixture, "_ETA_GROWTH", 1e3)
    monkeypatch.setattr(mixture, "_ETA_MAX", 1e3)
    forced = mixture.cavi_fixed_k(x, 4, HYPER, seed=seed)
    # every other sweep after the plain one at S0 is over-relaxed, and dropped
    assert forced.converged
    assert len(sweeps) - len(forced.elbo_trace) == len(forced.elbo_trace) - mixture._S0 - 1 > 0
    plain(monkeypatch)
    assert_same(forced, mixture.cavi_fixed_k(x, 4, HYPER, seed=seed))


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
        params, [n], [[generator(17, n, rep) for rep in range(3)]]
    )[0]
    want = [ref_hellinger_runner(params, n, generator(17, n, rep)) for rep in range(3)]
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=0)


def test_padded_components_are_inert(monkeypatch):
    # a k = 1 or 2 fit padded to four components equals the same fit unpadded,
    # and the two padded components never get any responsibility
    samples, seeds = stack(5, 250, 3)
    rows = [(i, k, derive_seed(s, k)) for i, s in enumerate(seeds) for k in (1, 2)]
    weights = []

    def recording(x, axis, out=None):
        lse, r = mixture_lse(x, axis, out)
        weights.append(r.copy())
        return lse, r

    mixture_lse = mixture._logsumexp_weights
    monkeypatch.setattr(mixture, "_logsumexp_weights", recording)
    padded = in_row_order(mixture._cavi_rows(samples, rows, HYPER, 4))
    monkeypatch.undo()
    assert weights and all(r.shape[1] == 4 and not r[:, 2:].any() for r in weights)
    for (i, k, seed), state in zip(rows, padded):
        (_, alone), = mixture._cavi_rows(samples, [(i, k, seed)], HYPER, k)
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


def ragged(seed):
    """Two samples at each of n = 150, 333 and 1000, the n interleaved, and a fit seed each."""
    truth = MixtureModel(2, np.array([-3.0, 3.0]), np.array([0.5, 0.5]), 0.5)
    rng = np.random.default_rng([seed, 25])
    samples = [mixture.sample_mixture(truth, n, seed=rng) for n in (333, 1000, 150, 1000, 150, 333)]
    return samples, [int(rng.integers(2**63)) for _ in samples]


@pytest.mark.parametrize("cells", [1, 4096, None], ids=["row-alone", "4096-cells", "default-cells"])
@pytest.mark.parametrize("seed", [21, 22])
def test_stack_over_several_n_is_the_per_n_fits(monkeypatch, seed, cells):
    # rows of three n share one stack and join it as others finish, each counting its
    # own sweeps, yet every state, trace and flag is the one its n's stack gives, bit
    # for bit, and every row is that row fit alone at the same padding
    samples, seeds = ragged(seed)
    want = {}
    for n in (150, 333, 1000):
        at_n = [i for i, x in enumerate(samples) if x.size == n]
        x, n_seeds = np.stack([samples[i] for i in at_n]), [seeds[i] for i in at_n]
        want.update(zip(at_n, mixture.select_k_batch(x, CANDIDATES, HYPER, n_seeds)))
    rows = [(i, k, derive_seed(s, k)) for i, s in enumerate(seeds) for k in CANDIDATES]
    alone = [next(mixture._cavi_rows(samples, [row], HYPER, 4))[1] for row in rows]
    assert max(len(state.elbo_trace) for state in alone) > mixture._S0  # some rows over-relax
    if cells is not None:
        monkeypatch.setattr(mixture, "_CAVI_CELLS", cells)
    for i, (k, state) in enumerate(mixture.select_k_batch(samples, CANDIDATES, HYPER, seeds)):
        assert k == want[i][0]
        assert_same(state, want[i][1])
    for state, single in zip(in_row_order(mixture._cavi_rows(samples, rows, HYPER, 4)), alone):
        assert_same(state, single)


def scan(elbos, hyper):
    """The component count select_k picks by scanning candidates 1, 2, ... in increasing order."""
    best = None
    for k, elbo in enumerate(elbos, start=1):
        score = elbo + k * math.log(hyper.xi0) - hyper.xi0 - gammaln(k + 1.0)
        if best is None or score > best[0]:
            best = (score, k)
    return best[1]


@pytest.mark.parametrize("elbos, want", [
    ((math.inf, math.inf, 0.0), 1),
    ((-math.inf, -math.inf, -math.inf), 1),
    ((math.nan, 5.0, 6.0), 1),
    ((5.0, math.nan, 6.0), 3),
    ((-math.inf, math.nan, -math.inf), 1),
    ((0.0, 1e9, math.nan), 2),
])
@pytest.mark.parametrize("order", ["first-k-first", "last-k-first"])
def test_selection_is_the_increasing_k_scan_in_any_finishing_order(monkeypatch, elbos, want, order):
    def finishing(samples, rows, hyper, k_max):
        rows = list(rows)
        for row in range(len(rows)) if order == "first-k-first" else reversed(range(len(rows))):
            yield row, SimpleNamespace(elbo=elbos[rows[row][1] - 1])

    monkeypatch.setattr(mixture, "_cavi_rows", finishing)
    (k, state), = mixture.select_k_batch([np.zeros(5)], [1, 2, 3], HYPER, [0])
    assert k == scan(elbos, HYPER) == want
    assert state.elbo is elbos[want - 1]


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


def _fit_peak(reps, ns):
    samples, seeds = [], []
    for n in ns:
        at_n, n_seeds = stack(8, n, reps)
        samples += list(at_n)
        seeds += n_seeds
    tracemalloc.start()
    try:
        fits = mixture.select_k_batch(samples, [1, 2], HYPER, seeds)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(fits) == reps * len(ns)
    return peak - held  # working memory beyond the selected states returned


def test_batch_memory_does_not_grow_with_replications(monkeypatch):
    monkeypatch.setattr(mixture, "_CAVI_CELLS", 2 * 1600 * 2)  # two rows of n = 1600 at a time
    for ns in ((1600,), (400, 800, 1600)):
        small, large = _fit_peak(4, ns), _fit_peak(40, ns)
        assert large <= 1.5 * small, ns
