"""Acceptance suite: one test per go/no-go criterion, one PASS line each.

Every tolerance is pinned here, not deferred; experiments run at the
recorded master seed so the whole suite is deterministic.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest
from scipy.special import logsumexp

import vblab
from vblab import changepoint, divergences, expfamily, mixture, sequence_model, truncated_series
from vblab.cli import main as cli_main
from vblab.harness import (
    ExperimentConfig,
    divergence_chain_report,
    fit_rate_exponent,
    run_experiment,
)

MASTER_SEED = 20250810


def report(criterion: int, description: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    line = f"[{status}] criterion {criterion:02d}: {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert passed, line


def test_criterion_01_divergence_chain():
    """10,000 random discrete pairs satisfy the ordering chain and Renyi
    monotonicity with zero violations beyond 1e-10 slack, in under 5 s."""
    start = time.time()
    config = ExperimentConfig(
        model="divergence_chain",
        n_grid=(2, 64),
        replications=10_000,
        master_seed=MASTER_SEED,
        params={"slack": 1e-10, "rho_grid": [0.5, 2.0, 4.0, 8.0]},
    )
    rep = divergence_chain_report(config)
    elapsed = time.time() - start
    ok = (
        rep["ordering_failures"] == 0
        and rep["monotonicity_failures"] == 0
        and elapsed < 5.0
    )
    report(
        1,
        "divergence chain and monotonicity on 10k random pairs",
        ok,
        f"violations={rep['ordering_failures']}+{rep['monotonicity_failures']}, "
        f"max gap={rep['max_ordering_gap']:.2e}, {elapsed:.1f}s",
    )


GSM_GRID = tuple(2**m for m in range(8, 15))


def test_criterion_02_gsm_rate_log_corrected():
    """Gaussian sieve, boundary signal: log-corrected exponent within 0.10
    of -2/3 with a positive log log n coefficient, in under 3 min."""
    start = time.time()
    config = ExperimentConfig(
        model="gsm_risk",
        n_grid=GSM_GRID,
        replications=50,
        master_seed=MASTER_SEED,
        params={
            "alpha": 1.0,
            "B": 2.0,
            "prior": {"family": "gaussian", "tau": 1.0, "sigma0_sq": 1.0},
            "signal": {"kind": "sobolev_boundary"},
        },
    )
    fit = fit_rate_exponent(run_experiment(config), with_loglog=True)
    elapsed = time.time() - start
    ok = abs(fit.slope + 2.0 / 3.0) <= 0.10 and fit.loglog_coefficient > 0 and elapsed < 180
    report(
        2,
        "sequence-model risk exponent (log-corrected) -2/3 +- 0.10, loglog > 0",
        ok,
        f"slope={fit.slope:+.4f}, loglog={fit.loglog_coefficient:+.4f}, {elapsed:.1f}s",
    )


def test_criterion_03_gsm_sharp_rate_cauchy():
    """Rescaled Cauchy coordinates: plain exponent within 0.08 of -2/3."""
    config = ExperimentConfig(
        model="gsm_risk",
        n_grid=GSM_GRID,
        replications=50,
        master_seed=MASTER_SEED,
        params={
            "alpha": 1.0,
            "B": 2.0,
            "prior": {"family": "rescaled_cauchy", "tau": 1.0, "scale": 1.0},
            "signal": {"kind": "sobolev_boundary"},
        },
    )
    fit = fit_rate_exponent(run_experiment(config))
    ok = abs(fit.slope + 2.0 / 3.0) <= 0.08
    report(3, "sharp rate with rescaled Cauchy coordinates", ok, f"slope={fit.slope:+.4f}")


def test_criterion_04_dimension_scaling():
    """Mean effective dimension grows like n^{1/3} within 0.10."""
    config = ExperimentConfig(
        model="gsm_dimension",
        n_grid=GSM_GRID,
        replications=50,
        master_seed=MASTER_SEED,
        params={
            "alpha": 1.0,
            "B": 2.0,
            "prior": {"family": "gaussian", "tau": 1.0, "sigma0_sq": 1.0},
            "signal": {"kind": "sobolev_boundary"},
        },
    )
    fit = fit_rate_exponent(run_experiment(config))
    ok = abs(fit.slope - 1.0 / 3.0) <= 0.10
    report(4, "effective dimension exponent 1/3 +- 0.10", ok, f"slope={fit.slope:+.4f}")


def test_criterion_05_lower_bound_spike():
    """Spike adversary at n = 2^12: mean risk above the minimax-with-log floor."""
    n = 4096
    config = ExperimentConfig(
        model="gsm_spike_risk",
        n_grid=(n,),
        replications=50,
        master_seed=MASTER_SEED,
        params={
            "alpha": 1.0,
            "B": 2.0,
            "prior": {"family": "gaussian", "tau": 1.0, "sigma0_sq": 1.0},
            "signal": {"kind": "spike", "j0": "adversary"},
        },
    )
    table = run_experiment(config)
    floor = 0.25 * n ** (-2.0 / 3.0) * math.log(n) ** (2.0 / 3.0)
    ok = table.mean_risk[0] > floor
    report(
        5,
        "spike-adversary risk exceeds 0.25 n^{-2/3} (log n)^{2/3}",
        ok,
        f"risk={table.mean_risk[0]:.5f} > floor={floor:.5f}",
    )


def test_criterion_06_trunc_exact_risk_and_curve():
    """Exact risk matches Monte Carlo on 20 random instances (3 stderr);
    the rate-exponent curve is within 0.07 of the piecewise theory at
    every t for (alpha, beta) in {(1,1), (2,1), (1,2)}, in under 1 min."""
    start = time.time()
    rng = np.random.default_rng(MASTER_SEED)
    reps = 10_000
    mc_ok = True
    for _ in range(20):
        n = int(rng.integers(2, 33))
        k = int(rng.integers(0, min(n, 8) + 1))
        beta = float(rng.uniform(0.0, 2.0))
        length = int(rng.integers(max(1, k), k + 6))
        theta = rng.normal(size=length) * 0.3
        sig = sequence_model.SobolevSignal(
            theta, alpha=0.5, B=float(5 + 40 * np.abs(theta).sum())
        )
        closed = truncated_series.exact_risk(sig, n, beta, k)
        j = np.arange(1, k + 1, dtype=float)
        denom = n + j ** (2 * beta + 1)
        y = theta[:k] + rng.standard_normal((reps, k)) / math.sqrt(n)
        draws = n * y / denom + rng.standard_normal((reps, k)) / np.sqrt(denom)
        losses = np.sum((draws - theta[:k]) ** 2, axis=1)
        for jj in range(k + 1, n + 1):
            sd = math.exp(-jj * n / 2.0) if jj * n < 1400 else 0.0
            tail_draw = sd * rng.standard_normal(reps) if sd > 0 else 0.0
            target = theta[jj - 1] if jj <= length else 0.0
            losses = losses + (tail_draw - target) ** 2
        if length > n:
            losses = losses + np.sum(theta[n:] ** 2)
        stderr = losses.std(ddof=1) / math.sqrt(reps)
        if abs(closed - losses.mean()) > max(3 * stderr, 1e-12):
            mc_ok = False

    t_grid = [round(0.1 * i, 1) for i in range(1, 11)]
    n_grid = [2**m for m in range(10, 17)]
    worst = 0.0
    for alpha, beta in ((1.0, 1.0), (2.0, 1.0), (1.0, 2.0)):
        rows = truncated_series.rate_exponent_curve(alpha, beta, t_grid, n_grid)
        worst = max(worst, max(abs(f - th) for _, f, th in rows))
    elapsed = time.time() - start
    ok = mc_ok and worst <= 0.07 and elapsed < 60
    report(
        6,
        "exact risk vs MC and rate-exponent curve within 0.07 of theory",
        ok,
        f"MC ok={mc_ok}, worst curve err={worst:.4f}, {elapsed:.1f}s",
    )


def test_criterion_07_variational_beats_posterior():
    """alpha=2, beta=1: truncating at n^{1/5} strictly beats the full posterior."""
    ok = True
    detail = []
    for m in range(10, 17):
        n = 2**m
        k = math.ceil(n**0.2 - 1e-9)
        small = truncated_series.worst_case_risk(2.0, 1.0, n, k)
        full = truncated_series.worst_case_risk(2.0, 1.0, n, n)
        ok = ok and small < full
        detail.append(f"2^{m}:{small:.2e}<{full:.2e}")
    report(7, "truncated family beats the full posterior at every n", ok)


def test_criterion_08_piecewise_mean_field_triviality():
    """Product posterior risk grows linearly: exponent within 0.10 of 1."""
    config = ExperimentConfig(
        model="pc_mean_field",
        n_grid=tuple(2**m for m in range(7, 12)),
        replications=100,
        master_seed=MASTER_SEED,
        params={"sigma": 1.0, "B": 1.0, "signal": {"kind": "zero"}},
    )
    fit = fit_rate_exponent(run_experiment(config))
    ok = abs(fit.slope - 1.0) <= 0.10
    report(8, "mean-field change-point risk exponent 1.0 +- 0.10", ok, f"slope={fit.slope:+.4f}")


def test_criterion_09_piecewise_markov_chain_rate():
    """Chain posterior with p = 1/n: risk/(k* log n) flat within 0.15, < 5 min."""
    start = time.time()
    k_star = 4
    config = ExperimentConfig(
        model="pc_markov_chain",
        n_grid=tuple(2**m for m in range(7, 13)),
        replications=100,
        master_seed=MASTER_SEED,
        params={
            "sigma": 1.0,
            "B": 1.25,
            "G": 64,
            "change_prob": "reciprocal",
            "signal": {"kind": "prefix", "k_star": k_star, "seg_len": 20, "amplitude": 0.9},
        },
    )
    table = run_experiment(config)
    log_n = np.log(table.n.astype(float))
    ratios = table.mean_risk / (k_star * log_n)
    slope = float(np.polyfit(log_n, ratios, 1)[0])
    elapsed = time.time() - start
    ok = abs(slope) <= 0.15 and elapsed < 300
    report(
        9,
        "chain-posterior risk/(k* log n) slope within +-0.15 of 0",
        ok,
        f"slope={slope:+.4f}, ratios={np.round(ratios, 2).tolist()}, {elapsed:.1f}s",
    )


def test_criterion_10_forward_backward_enumeration():
    """Forward-backward equals brute-force enumeration (1e-10) whenever
    the state space G^n stays at or below 1e6."""
    worst = 0.0
    for n, G, sigma in ((3, 8, 1.0), (5, 8, 0.6), (3, 64, 1.2), (2, 100, 0.8), (4, 24, 1.0)):
        assert G**n <= 10**6
        rng = np.random.default_rng(MASTER_SEED + n * 1000 + G)
        prior = changepoint.MarkovSitePrior(0.2, changepoint.UniformDensity(-2.0, 2.0))
        half = 2.0 + 4.0 * sigma
        grid = np.linspace(-half, half, G)
        X = rng.normal(0.0, 1.0, size=n)
        chain = changepoint.grid_posterior(X, sigma, prior, grid)

        lg = prior.value_density.log_pdf(grid)
        lg = lg - logsumexp(lg)
        with np.errstate(divide="ignore"):
            kernel = np.log(
                0.8 * np.eye(G) + 0.2 * np.exp(lg)[None, :] * np.ones((G, 1))
            )
        emis = -0.5 * ((grid[None, :] - X[:, None]) / sigma) ** 2
        log_joint = np.zeros((G,) * n)
        shape = [1] * n
        shape[0] = G
        log_joint = log_joint + (lg + emis[0]).reshape(shape)
        for i in range(1, n):
            shape = [1] * n
            shape[i - 1], shape[i] = G, G
            log_joint = log_joint + (kernel + emis[i][None, :]).reshape(shape)
        log_joint -= logsumexp(log_joint)
        joint = np.exp(log_joint)
        marg = np.stack(
            [joint.sum(axis=tuple(a for a in range(n) if a != i)) for i in range(n)]
        )
        worst = max(worst, float(np.max(np.abs(chain.marginals() - marg))))
    ok = worst <= 1e-10
    report(10, "forward-backward matches enumeration on all G^n <= 1e6 instances", ok,
           f"max |diff|={worst:.2e}")


def test_criterion_11_exponential_family():
    """Normalizer, divergence bounds, gradient check, and the monotone
    Hellinger trend.  The contraction-rate constants themselves are not
    certified here: the trend over n in {200, 800, 3200} is the
    property-based stand-in for the rate statement."""
    ok_c0 = expfamily.log_normalizer(np.zeros(3)) == 0.0

    rng = np.random.default_rng(MASTER_SEED)
    ok_norm = True
    for _ in range(10):
        theta = rng.normal(scale=0.6, size=int(rng.integers(1, 6)))
        d = expfamily.FourierDensity(theta)
        x = np.linspace(0.0, 1.0, 20_001)
        if abs(np.trapezoid(np.exp(d.log_pdf(x)), x) - 1.0) > 1e-8:
            ok_norm = False

    ok_bounds = True
    checked = 0
    while checked < 200:
        k = int(rng.integers(1, 5))
        ta = rng.normal(scale=0.3, size=k)
        tb = rng.normal(scale=0.3, size=k)
        h = expfamily.hellinger_numeric(ta, tb)
        kl = expfamily.kl_numeric(ta, tb)
        d2 = expfamily.d2_numeric(ta, tb)
        if not (2 * h * h <= kl + 1e-9 and kl <= d2 + 1e-9):
            ok_bounds = False
        gap = float(np.abs(ta - tb).sum())
        if gap <= 1 / math.sqrt(2) and h > 2 * math.sqrt(2) * gap + 1e-12:
            ok_bounds = False
        checked += 1

    s0 = 1.0  # prior variance of each coefficient
    data = expfamily.sample(np.array([0.5, 0.2]), 60, seed=MASTER_SEED)
    mu = np.array([0.3, -0.1, 0.2])
    s2 = np.array([0.04, 0.09, 0.01])
    q = expfamily.GaussMFVariational(mu=mu, sigma2=s2)
    _, grad_mu, grad_ls = expfamily.elbo_and_gradient(q, data, s0, n_mc=32, seed=7)
    ok_grad = True
    h = 1e-6
    for j in range(3):
        up, dn = mu.copy(), mu.copy()
        up[j] += h
        dn[j] -= h
        fd = (
            expfamily.elbo(expfamily.GaussMFVariational(up, s2), data, s0, 32, 7)
            - expfamily.elbo(expfamily.GaussMFVariational(dn, s2), data, s0, 32, 7)
        ) / (2 * h)
        if abs(grad_mu[j] - fd) > 1e-3 * max(1.0, abs(fd)):
            ok_grad = False
        ls = 0.5 * np.log(s2)
        up_s, dn_s = ls.copy(), ls.copy()
        up_s[j] += h
        dn_s[j] -= h
        fd = (
            expfamily.elbo(expfamily.GaussMFVariational(mu, np.exp(2 * up_s)), data, s0, 32, 7)
            - expfamily.elbo(expfamily.GaussMFVariational(mu, np.exp(2 * dn_s)), data, s0, 32, 7)
        ) / (2 * h)
        if abs(grad_ls[j] - fd) > 1e-3 * max(1.0, abs(fd)):
            ok_grad = False

    theta_true = np.array([0.7, -0.4, 0.2])
    medians = []
    for n in (200, 800, 3200):
        h2 = []
        for rep in range(5):
            d = expfamily.sample(theta_true, n, seed=MASTER_SEED + 1000 * n + rep)
            q_fit = expfamily.fit_gaussian_mf(
                d, s0, k=3,
                opt_config=expfamily.OptConfig(step_size=0.25, n_iters=250, seed=rep),
            )
            h2.append(expfamily.hellinger_numeric(q_fit.mu, theta_true) ** 2)
        medians.append(float(np.median(h2)))
    ok_trend = medians[0] > medians[1] > medians[2]

    ok = ok_c0 and ok_norm and ok_bounds and ok_grad and ok_trend
    report(
        11,
        "exponential family: normalizer, bounds, gradient, Hellinger trend",
        ok,
        f"c0={ok_c0}, norm={ok_norm}, bounds={ok_bounds}, grad={ok_grad}, "
        f"medians={np.round(medians, 4).tolist()}",
    )


def test_criterion_12_mixture_cavi(monkeypatch):
    """Monotone bound on 50 runs; k=1 conjugate fixed point at 1e-6;
    component recovery at the recorded seed; Hellinger trend 200 -> 1600."""
    rng = np.random.default_rng(MASTER_SEED)
    ok_monotone = True
    for run in range(50):
        k_true = int(rng.integers(1, 4))
        model = mixture.MixtureModel(
            k_true, np.linspace(-2, 2, k_true), np.full(k_true, 1.0 / k_true), 0.8
        )
        x = mixture.sample_mixture(model, 120, seed=rng)
        state = mixture.cavi_fixed_k(x, int(rng.integers(1, 5)), seed=run)
        if np.min(np.diff(state.elbo_trace)) < -1e-9:
            ok_monotone = False

    x1 = np.random.default_rng(0).normal(0.3, 1.0 / math.sqrt(2.0), size=200)
    hyper = mixture.MixtureHyper(sigma0_sq=4.0, alpha0=1.0, a0=2.0, b0=1.0)
    with monkeypatch.context() as patch:
        patch.setattr(mixture, "_TOL", 1e-13)
        patch.setattr(mixture, "_MAX_SWEEPS", 5000)
        state1 = mixture.cavi_fixed_k(x1, 1, hyper, seed=1)
    e_tau = state1.tau_shape / state1.tau_rate
    prec = 1.0 / hyper.sigma0_sq + 2.0 * e_tau * x1.size
    ok_conjugate = (
        abs(state1.mu_var[0] - 1.0 / prec) <= 1e-6 * (1.0 / prec)
        and abs(state1.mu_mean[0] - 2.0 * e_tau * x1.sum() / prec) <= 1e-6
        and state1.tau_shape == hyper.a0 + x1.size / 2
        and abs(
            state1.tau_rate
            - (hyper.b0 + float(np.sum((x1 - state1.mu_mean[0]) ** 2 + state1.mu_var[0])))
        )
        <= 1e-6 * state1.tau_rate
    )

    sep = mixture.MixtureModel(2, np.array([-3.0, 3.0]), np.array([0.5, 0.5]), 0.5)
    data = mixture.sample_mixture(sep, 400, seed=123)
    k_sel, _ = mixture.select_k(data, [1, 2, 3, 4], seed=7)
    ok_select = k_sel == 2

    truth = mixture.MixtureModel(2, np.array([-1.5, 1.5]), np.array([0.5, 0.5]), 0.8)
    grid = np.linspace(-10, 10, 4001)
    f0 = mixture.mixture_pdf(truth, grid)
    medians = []
    for n in (200, 1600):
        vals = []
        for rep in range(20):
            x = mixture.sample_mixture(truth, n, seed=MASTER_SEED + 1000 * n + rep)
            st = mixture.cavi_fixed_k(x, 2, seed=rep)
            vals.append(mixture.hellinger_to_truth(st, f0, grid))
        medians.append(float(np.median(vals)))
    ok_trend = medians[1] < medians[0]

    ok = ok_monotone and ok_conjugate and ok_select and ok_trend
    report(
        12,
        "mixture coordinate ascent: monotone, conjugate at k=1, recovery, trend",
        ok,
        f"monotone={ok_monotone}, conjugate={ok_conjugate}, k_sel={k_sel}, "
        f"H2 medians={np.round(medians, 4).tolist()}",
    )


CLI_CONFIGS = {
    "divcheck": {
        "model": "divergence_chain",
        "n_grid": [2, 16],
        "replications": 200,
        "master_seed": MASTER_SEED,
        "params": {},
    },
    "gsm-rate": {
        "model": "gsm_risk",
        "n_grid": [128, 256, 512],
        "replications": 3,
        "master_seed": MASTER_SEED,
        "params": {"alpha": 1.0, "B": 2.0},
    },
    "gsm-dim": {
        "model": "gsm_dimension",
        "n_grid": [128, 256, 512],
        "replications": 3,
        "master_seed": MASTER_SEED,
        "params": {"alpha": 1.0, "B": 2.0},
    },
    "gsm-lower": {
        "model": "gsm_spike_risk",
        "n_grid": [512],
        "replications": 3,
        "master_seed": MASTER_SEED,
        "params": {"alpha": 1.0, "B": 2.0, "signal": {"kind": "spike", "j0": "adversary"}},
    },
    "trunc-curve": {
        "model": "trunc_exact_risk",
        "n_grid": [1024, 2048, 4096, 8192],
        "replications": 1,
        "master_seed": MASTER_SEED,
        "params": {"alpha": 1.0, "beta": 1.0, "t_grid": [0.3, 1.0]},
    },
    "pc-compare": {
        "model": "pc_markov_chain",
        "n_grid": [64, 128],
        "replications": 3,
        "master_seed": MASTER_SEED,
        "params": {
            "sigma": 1.0,
            "B": 1.25,
            "G": 32,
            "signal": {"kind": "prefix", "k_star": 2, "seg_len": 16},
        },
    },
    "mix-fit": {
        "model": "mixture_hellinger",
        "n_grid": [150],
        "replications": 2,
        "master_seed": MASTER_SEED,
        "params": {"k_candidates": [1, 2]},
    },
    "expfam-fit": {
        "model": "expfamily_hellinger",
        "n_grid": [150],
        "replications": 2,
        "master_seed": MASTER_SEED,
        "params": {"theta_star": [0.6], "k": 1, "opt": {"n_iters": 60, "n_mc": 16}},
    },
}


def test_criterion_13_cli_determinism(tmp_path):
    """Every CLI subcommand is byte-identical across two runs per seed."""
    ok = True
    failing = []
    for command, payload in CLI_CONFIGS.items():
        cfg = tmp_path / f"{command}.json"
        cfg.write_text(json.dumps(payload))
        outs = []
        for tag in ("a", "b"):
            for fmt in ("csv", "json"):
                out = tmp_path / f"{command}.{tag}.{fmt}"
                code = cli_main(
                    [command, "--config", str(cfg), "--out", str(out), "--format", fmt]
                )
                if code != 0:
                    ok = False
                    failing.append(f"{command}:exit{code}")
                outs.append(out)
        if outs[0].read_bytes() != outs[2].read_bytes() or (
            outs[1].read_bytes() != outs[3].read_bytes()
        ):
            ok = False
            failing.append(command)
    report(13, "CLI byte-determinism for all subcommands", ok, ",".join(failing) or "all stable")
