"""Tests for the experiment harness: seeding, fits, emission, runners."""

import dataclasses
import json
import math
import pathlib
import re
import tracemalloc

import numpy as np
import pytest

from vblab import changepoint, expfamily, harness, sequence_model
from vblab._rng import derive_seed, generator, generators
from vblab.errors import InputError, NumericError
from vblab.harness import (
    ExperimentConfig,
    RateFit,
    RateTable,
    divergence_chain_report,
    emit,
    fit_rate_exponent,
    read_table,
    run_experiment,
    parse_params,
    to_text,
    trunc_curve_rows,
)

REPO = pathlib.Path(__file__).resolve().parents[1]


def make_table(n, risks, stderr=None, reps=10):
    n = np.asarray(n)
    return RateTable(
        n=n,
        mean_risk=np.asarray(risks, dtype=float),
        stderr=np.zeros(n.size) if stderr is None else np.asarray(stderr),
        replications=np.full(n.size, reps),
    )


class TestSeedDerivation:
    def test_distinct_streams(self):
        seen = set()
        for n in range(1, 350):
            for rep in range(300):
                seen.add(derive_seed(12345, n, rep))
        assert len(seen) == 349 * 300  # over 1e5 derivations, no collisions

    def test_order_independent_reproducibility(self):
        a = derive_seed(9, 128, 3)
        b = derive_seed(9, 128, 3)
        assert a == b
        assert derive_seed(9, 128, 4) != a
        assert derive_seed(10, 128, 3) != a


class TestConfig:
    def test_unknown_keys_rejected(self):
        text = json.dumps(
            {
                "model": "gsm_risk",
                "n_grid": [64, 128, 256],
                "replications": 2,
                "master_seed": 1,
                "params": {},
                "bogus": 1,
            }
        )
        with pytest.raises(InputError):
            ExperimentConfig.from_json(text)

    def test_missing_keys_rejected(self):
        with pytest.raises(InputError):
            ExperimentConfig.from_json(json.dumps({"model": "gsm_risk"}))

    def test_non_increasing_grid_rejected(self):
        with pytest.raises(InputError):
            ExperimentConfig("gsm_risk", (64, 64), 1, 0, {})

    @pytest.mark.parametrize(
        "fields", [((256.7, 512), 1, 0), ((256, 512), 2.9, 0), ((256,), 1, "7"), ((256,), True, 0)]
    )
    def test_non_integer_sizes_rejected(self, fields):
        with pytest.raises(InputError):
            ExperimentConfig("gsm_risk", *fields, {})


class TestFitRateExponent:
    def test_exact_power_law(self):
        n = np.array([64, 128, 256, 512, 1024])
        fit = fit_rate_exponent(make_table(n, 3.0 * n ** (-0.8)))
        assert fit.slope == pytest.approx(-0.8, abs=1e-12)
        assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_log_corrected_power_law(self):
        n = np.array([2**m for m in range(6, 16)])
        risks = n ** (-2 / 3) * np.log(n) ** (2 / 3)
        fit = fit_rate_exponent(make_table(n, risks), with_loglog=True)
        assert fit.slope == pytest.approx(-2 / 3, abs=1e-6)
        assert fit.loglog_coefficient == pytest.approx(2 / 3, abs=1e-6)

    def test_noisy_power_law(self):
        rng = np.random.default_rng(3)
        n = np.array([2**m for m in range(6, 14)])
        risks = 2.0 * n ** (-0.5) * np.exp(rng.normal(0, 0.05, size=n.size))
        fit = fit_rate_exponent(make_table(n, risks))
        assert fit.slope == pytest.approx(-0.5, abs=0.05)

    def test_non_positive_risk_rejected(self):
        with pytest.raises(InputError):
            fit_rate_exponent(make_table([2, 4, 8], [1.0, 0.0, 1.0]))

    def test_too_few_rows_rejected(self):
        with pytest.raises(InputError):
            fit_rate_exponent(make_table([2, 4], [1.0, 0.5]))


class TestRunExperiment:
    def test_deterministic_tables(self):
        config = ExperimentConfig(
            model="pc_mean_field",
            n_grid=(32, 64),
            replications=3,
            master_seed=77,
            params={"sigma": 1.0, "B": 1.0},
        )
        a = run_experiment(config)
        b = run_experiment(config)
        np.testing.assert_array_equal(a.mean_risk, b.mean_risk)
        np.testing.assert_array_equal(a.stderr, b.stderr)

    def test_gsm_pipeline_risk_decreases(self):
        config = ExperimentConfig(
            model="gsm_risk",
            n_grid=(256, 4096),
            replications=5,
            master_seed=11,
            params={"alpha": 1.0, "B": 2.0, "signal": {"kind": "sobolev_boundary"}},
        )
        table = run_experiment(config)
        assert table.mean_risk[1] < table.mean_risk[0]

    def test_unknown_model_rejected(self):
        config = ExperimentConfig("nope", (8, 16, 32), 1, 0, {})
        with pytest.raises(InputError):
            run_experiment(config)

    def test_batched_markov_chain_runner(self):
        config = ExperimentConfig(
            model="pc_markov_chain",
            n_grid=(64,),
            replications=4,
            master_seed=5,
            params={
                "sigma": 1.0,
                "B": 1.25,
                "G": 32,
                "signal": {"kind": "prefix", "k_star": 2, "seg_len": 16},
            },
        )
        table = run_experiment(config)
        assert table.mean_risk[0] > 0
        assert table.stderr[0] > 0


def ref_expfamily_runner(p, n, rng):
    """The per-replication exponential-family runner the stacked one replaced."""
    theta_star = np.asarray(p["theta_star"], dtype=float)
    k = theta_star.size if p["k"] is None else p["k"]
    cfg = expfamily.OptConfig(**p["opt"], seed=int(rng.integers(2**63)))
    data = expfamily.sample(theta_star, n, seed=rng)
    q = expfamily.fit_gaussian_mf(data, p["sigma0_sq"], k, opt_config=cfg)
    return expfamily.hellinger_numeric(q.mu, theta_star) ** 2


class TestExpfamilyRunner:
    # at this seed and n, replications 0-2 of the second truth cross the cap and rerun
    # on the 64-panel rule, while replication 3 stays on the 16-panel rule
    @pytest.mark.parametrize("theta_star", [[0.7, -0.4, 0.2], [1.2, -0.8, 0.4]], ids=["shipped", "crossing"])
    def test_matches_per_replication_runner(self, theta_star):
        params = parse_params({"theta_star": theta_star, "opt": {"n_iters": 60}}, "expfamily_hellinger")
        got = harness.MODELS["expfamily_hellinger"].runner(
            params, [200], [[generator(17, 200, rep) for rep in range(4)]]
        )[0]
        want = [ref_expfamily_runner(params, 200, generator(17, 200, rep)) for rep in range(4)]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("cells, n_grid", [
        (None, (200,)), (1, (200,)), (None, (100, 200)), (1, (100, 200)),
    ], ids=["one-group", "row-per-group", "one-group-two-n", "row-per-group-two-n"])
    def test_diverging_row_names_its_rep(self, monkeypatch, cells, n_grid):
        # replication 2's ELBO at n = 200 is forced below -1e12 inside the stack of every row
        if cells is not None:
            monkeypatch.setattr(expfamily, "_FIT_CELLS", cells)
        rng = generator(23, 200, 2)
        rng.integers(2**63)
        target = expfamily.basis_matrix(expfamily.sample([0.7, -0.4, 0.2], 200, seed=rng), 3).sum(axis=0)
        terms = expfamily._elbo_terms

        def diverging(draws, mu, sigma, eps, suff, *rest):
            value, grad_mu, grad_ls = terms(draws, mu, sigma, eps, suff, *rest)
            value[np.all(suff == target, axis=1)] = -1e13
            return value, grad_mu, grad_ls

        monkeypatch.setattr(expfamily, "_elbo_terms", diverging)
        config = ExperimentConfig("expfamily_hellinger", n_grid, 4, 23, {"opt": {"n_iters": 20}})
        with pytest.raises(NumericError, match=r"^n=200: rep=2: ELBO diverged below -1e12$"):
            run_experiment(config)


# a small run of every model id with a runner, over a grid of two or more n
GRID_RUNS = {
    "gsm_risk": ((64, 256, 1024), {"alpha": 1.0, "B": 2.0}),
    "gsm_dimension": ((64, 256, 1024), {"alpha": 1.0, "B": 2.0, "prior": {"family": "rescaled_cauchy"}}),
    "gsm_spike_risk": ((128, 512), {"alpha": 1.0, "B": 2.0, "signal": {"kind": "spike", "j0": "adversary"}}),
    "pc_mean_field": ((40, 80), {"G": 16, "signal": {"kind": "prefix", "k_star": 2, "seg_len": 10}}),
    "pc_markov_chain": ((40, 80), {"G": 16, "signal": {"kind": "prefix", "k_star": 2, "seg_len": 10}}),
    "mixture_hellinger": ((100, 200), {"k_candidates": [1, 2, 3]}),
    # eight of its nine rows cross the cap and rerun on the 512-node rule, four rows a group
    "expfamily_hellinger": ((100, 200, 400), {"theta_star": [1.2, -0.8, 0.4], "opt": {"n_iters": 60}}),
}


def assert_rows_reproduce_alone(config):
    table = run_experiment(config)
    for row, n in enumerate(config.n_grid):
        alone = run_experiment(dataclasses.replace(config, n_grid=(n,)))
        assert table.mean_risk[row : row + 1].tobytes() == alone.mean_risk.tobytes(), n
        assert table.stderr[row : row + 1].tobytes() == alone.stderr.tobytes(), n


class TestGridSubsets:
    def test_every_runner_has_a_case(self):
        assert set(GRID_RUNS) == {model for model, spec in harness.MODELS.items() if spec.runner is not None}

    @pytest.mark.parametrize("model", sorted(GRID_RUNS))
    def test_each_n_is_the_run_at_that_n_alone(self, model):
        n_grid, params = GRID_RUNS[model]
        assert_rows_reproduce_alone(ExperimentConfig(model, n_grid, 3, 43, params))

    def test_shipped_expfam_fit(self):
        # 15 rows at three n ascend as one stack
        payload = json.loads((REPO / "configs" / "expfam_fit.json").read_text())
        assert_rows_reproduce_alone(ExperimentConfig.from_json(json.dumps({**payload, "master_seed": 20250810})))


def record_sieve_blocks(monkeypatch, family) -> list:
    """The blocks the sieve runner fits, in order, read off the library calls it makes.

    Each block is a dict: "reps", the rows it fits; "shape", that of its
    evidence ratios; "added", its rows' data drawn for this block (each
    refit draws only the coordinates it adds); "lw", its rows' log model
    weights; and "theta", the signal of its free rows' risks.
    """
    blocks = []
    ratio, log_weights, shell_risks = (
        family.log_evidence_ratio, sequence_model._log_weights, sequence_model._shell_risks
    )

    def recorded_ratio(self, y, n):
        blocks.append({"added": np.array(y)})
        return ratio(self, y, n)

    def recorded_log_weights(prior, ratios, reps=None):
        lw = log_weights(prior, ratios, reps)
        added = blocks[-1]["added"].reshape(len(reps), -1)
        blocks[-1].update(reps=list(reps), shape=ratios.shape, added=added, lw=lw)
        return lw

    def recorded_shell_risks(k, p, means, variances, theta):
        blocks[-1]["theta"] = theta
        return shell_risks(k, p, means, variances, theta)

    monkeypatch.setattr(family, "log_evidence_ratio", recorded_ratio)
    monkeypatch.setattr(sequence_model, "_log_weights", recorded_log_weights)
    monkeypatch.setattr(sequence_model, "_shell_risks", recorded_shell_risks)
    return blocks


class TestSieveRefit:
    def test_binding_truncation_refits_at_twice_k_max(self, monkeypatch):
        # K_max = 16 puts the spike at K_max/2, so the guard fires once; the refit is
        # the direct fit at K_max = 32 on the same spike, from the same stream
        params = parse_params(
            {"alpha": 1.0, "B": 2.0, "k_max_factor": 0.01, "signal": {"kind": "spike", "j0": 8}},
            "gsm_risk",
        )
        with monkeypatch.context() as recording:
            blocks = record_sieve_blocks(recording, sequence_model.GaussianCoordinates)
            risk = harness.MODELS["gsm_risk"].runner(params, [4096], [[generator(0, 4096, 0)]])[0]
        first, refit = blocks
        assert first["reps"] == [0] and np.argmax(first["lw"][0]) >= 16 // 2  # no row is free at 16
        assert refit["reps"] == [0] and refit["theta"].size == 32
        prior = sequence_model.SievePrior.geometric(1.0, 32, sequence_model.GaussianCoordinates(1.0))
        direct_signal = sequence_model.make_signal("spike", 1.0, 2.0, 32, j0=8)
        obs = sequence_model.sample_observation(direct_signal, 4096.0, generator(0, 4096, 0))
        direct = sequence_model.fit_mean_field(prior, obs)
        np.testing.assert_array_equal(refit["theta"], direct_signal.theta)
        np.testing.assert_array_equal(np.concatenate((first["added"][0], refit["added"][0])), obs.y)
        np.testing.assert_array_equal(refit["lw"][0], sequence_model.log_model_weights(prior, obs))
        assert risk[0] == sequence_model.expected_risk(direct, direct_signal)

    def test_refit_keeps_the_signal_and_its_noise(self, monkeypatch):
        # the shipped Cauchy config bound at this replication with K_max = 26
        payload = json.loads((REPO / "configs" / "gsm_rate_cauchy.json").read_text())
        params = parse_params(payload["params"], "gsm_risk")
        seed = 13150348164293828904
        blocks = record_sieve_blocks(monkeypatch, sequence_model.RescaledCauchyCoordinates)
        harness.MODELS["gsm_risk"].runner(params, [256], [[generator(seed, 256, 5)]])
        first, refit = blocks
        assert np.argmax(first["lw"][0]) >= 26 // 2  # no row is free at 26
        theta = refit["theta"]
        assert theta.size == refit["shape"][1] == 52
        original = sequence_model.make_signal("sobolev_boundary", 1.0, 2.0, 26)
        np.testing.assert_array_equal(theta[:26], original.theta)
        assert not theta[26:].any()
        assert int(np.argmax(refit["lw"][0])) < 26

    def test_refit_stops_at_the_k_max_limit(self, monkeypatch):
        monkeypatch.setattr(harness, "_K_MAX_LIMIT", 16)
        params = {"alpha": 1.0, "B": 2.0, "k_max_factor": 0.01, "signal": {"kind": "spike", "j0": 8}}
        with pytest.raises(NumericError, match="^rep=0: .*truncation binds$"):
            harness._run_gsm(parse_params(params, "gsm_risk"), 4096, [generator(0, 4096, 0)])

    def test_refits_keep_the_evidence_ratios_they_have(self, monkeypatch):
        # each doubling computes only the ratios of its K_max added coordinates; the
        # kept ones carry the bits of a fresh evaluation over the whole row
        payload = json.loads((REPO / "configs" / "gsm_rate_cauchy.json").read_text())
        params = parse_params(payload["params"], "gsm_risk")
        seed = 13150348164293828904
        sizes = []
        ratio = sequence_model.RescaledCauchyCoordinates.log_evidence_ratio

        def counted(self, y, n):
            sizes.append(np.size(y))
            return ratio(self, y, n)

        monkeypatch.setattr(sequence_model.RescaledCauchyCoordinates, "log_evidence_ratio", counted)
        with monkeypatch.context() as recording:
            blocks = record_sieve_blocks(recording, sequence_model.RescaledCauchyCoordinates)
            harness.MODELS["gsm_risk"].runner(params, [256], [[generator(seed, 256, rep) for rep in range(8)]])
        first, refit = blocks
        assert sizes == [8 * 26, 26]
        assert refit["reps"] == [5] and refit["shape"] == (1, 52)
        y = np.concatenate((first["added"][5], refit["added"][0]))
        fam = sequence_model.RescaledCauchyCoordinates(payload["params"]["prior"]["scale"], 256)
        prior = sequence_model.SievePrior.geometric(1.0, 52, fam)
        fresh = sequence_model.log_model_weights(prior, sequence_model.SequenceObservation(y, 256.0))
        np.testing.assert_array_equal(refit["lw"][0], fresh)

        # a prior leaning to large k keeps binding: K_max 8 -> 16 -> 32, then the limit
        monkeypatch.setattr(harness, "_K_MAX_LIMIT", 32)
        sizes.clear()
        leaning = {**payload, "n_grid": [256], "replications": 2, "master_seed": 3}
        leaning["params"] = {**payload["params"], "k_max_factor": 0.01,
                             "prior": {"family": "rescaled_cauchy", "tau": -1.0}}
        config = ExperimentConfig.from_json(json.dumps(leaning))
        with pytest.raises(NumericError, match=(
            r"^n=256: rep=0: model weight argmax reached K_max/2 = 16, "
            r"and 2 K_max passes the limit 32; truncation binds$"
        )):
            run_experiment(config)
        assert sizes == [2 * 8, 2 * 8, 2 * 16]  # both rows bind and refit as one stack

        monkeypatch.undo()
        config = ExperimentConfig.from_json(json.dumps({**payload, "n_grid": [256], "master_seed": seed}))
        assert math.isfinite(run_experiment(config).mean_risk[0])


def ref_fit_gsm(p, n, rng):
    """The per-replication sieve fit the stacked runner replaced, through the library fits."""
    alpha, B = p["alpha"], p["B"]
    kind = p["signal"]["kind"]
    j0 = harness._resolve_spike_index(p["signal"]["j0"], alpha, n)
    K_max = p["k_max_factor"] * n ** (1.0 / (2.0 * alpha + 1.0))
    K_max = math.ceil(max(K_max, 8, 8 if j0 is None else j0 + 8))
    spec = p["prior"]
    key, coordinates = harness._GSM_FAMILIES[spec["family"]]
    fam = coordinates(1.0 if spec[key] is None else spec[key], n)
    signal = sequence_model.make_signal(kind, alpha, B, K_max, j0=j0)
    obs = sequence_model.sample_observation(signal, float(n), rng)
    while True:
        prior = sequence_model.SievePrior.geometric(spec["tau"], K_max, fam)
        log_weights = sequence_model.log_model_weights(prior, obs)
        if int(np.argmax(log_weights)) < K_max // 2:
            break
        signal = sequence_model.SobolevSignal(np.pad(signal.theta, (0, K_max)), alpha, B)
        noise = rng.standard_normal(K_max) / math.sqrt(obs.n)
        obs = sequence_model.SequenceObservation(np.concatenate((obs.y, noise)), obs.n)
        K_max *= 2
    if p["posterior"] == "mean_field":
        return sequence_model.fit_mean_field(prior, obs), signal
    return sequence_model.fit_empirical_bayes(prior, obs), signal


def ref_gsm_risk(p, n, rng):
    post, signal = ref_fit_gsm(p, n, rng)
    return sequence_model.expected_risk(post, signal)


def ref_gsm_dimension(p, n, rng):
    return float(ref_fit_gsm(p, n, rng)[0].k)


def ref_pc_mean_field(p, n, rng):
    """The per-replication change-point mean-field runner the stacked one replaced."""
    sigma, B, _, signal = harness._pc_common(p, n)
    prior = changepoint.MarkovSitePrior(0.5, changepoint.UniformDensity(-B - 1, B + 1))
    X = signal.values + sigma * rng.standard_normal(n)
    return changepoint.risk(changepoint.fit_mean_field(X, sigma, prior), signal)


GSM_FAMILIES = [
    {"family": "gaussian", "sigma0_sq": 0.5},
    {"family": "rescaled_cauchy", "scale": 1.5},
    {"family": "rescaled_gaussian", "variance": 2.0},
]
GSM_SIGNALS = [{"kind": "sobolev_boundary"}, {"kind": "spike", "j0": "adversary"}, {"kind": "zero"}]


class TestStackedRunners:
    @pytest.mark.parametrize("prior", GSM_FAMILIES, ids=lambda d: d["family"])
    @pytest.mark.parametrize("posterior", ["mean_field", "empirical_bayes"])
    @pytest.mark.parametrize("signal", GSM_SIGNALS, ids=lambda d: d["kind"])
    def test_gsm_matches_per_replication_runner(self, prior, posterior, signal):
        params = parse_params(
            {"alpha": 1.0, "B": 2.0, "prior": {"tau": 0.5, **prior}, "posterior": posterior, "signal": signal},
            "gsm_risk",
        )
        for n in (64, 1024):
            rngs = lambda: [generator(29, n, rep) for rep in range(6)]  # noqa: E731
            risks = harness.MODELS["gsm_risk"].runner(params, [n], [rngs()])[0]
            np.testing.assert_array_equal(risks, [ref_gsm_risk(params, n, r) for r in rngs()])
            dims = harness.MODELS["gsm_dimension"].runner(params, [n], [rngs()])[0]
            np.testing.assert_array_equal(dims, [ref_gsm_dimension(params, n, r) for r in rngs()])

    def test_gsm_refit_rows_match_per_replication_runner(self):
        # replication 5 of this seed refits at 2 K_max among rows that do not
        payload = json.loads((REPO / "configs" / "gsm_rate_cauchy.json").read_text())
        params = parse_params(payload["params"], "gsm_risk")
        rngs = lambda: [generator(13150348164293828904, 256, rep) for rep in range(8)]  # noqa: E731
        got = harness.MODELS["gsm_risk"].runner(params, [256], [rngs()])[0]
        np.testing.assert_array_equal(got, [ref_gsm_risk(params, 256, r) for r in rngs()])

    @pytest.mark.parametrize("posterior", ["mean_field", "empirical_bayes"])
    def test_gsm_row_in_a_batch_is_the_row_alone(self, monkeypatch, posterior):
        # block edges fall inside the stack: each row's ratios and moments are elementwise wofz calls
        monkeypatch.setattr(sequence_model, "_BLOCK_CELLS", 3 * 2001)
        params = parse_params({"alpha": 1.0, "B": 2.0, "posterior": posterior,
                               "prior": {"family": "rescaled_cauchy"}}, "gsm_risk")
        rngs = [generator(31, 512, rep) for rep in range(7)]
        batch = harness.MODELS["gsm_risk"].runner(params, [512], [rngs])[0]
        for rep in range(7):
            alone = harness.MODELS["gsm_risk"].runner(params, [512], [[generator(31, 512, rep)]])[0]
            assert alone[0] == batch[rep]

    def test_gsm_blocks_stay_within_the_cell_cap(self, monkeypatch):
        # K_max = 4096 * 64^(1/3) = 16384 holds two rows a block at the shipped cap
        params = parse_params({"alpha": 1.0, "B": 2.0, "k_max_factor": 4096.0}, "gsm_risk")
        rngs = lambda: [generator(41, 64, rep) for rep in range(5)]  # noqa: E731
        with monkeypatch.context() as recording:
            blocks = record_sieve_blocks(recording, sequence_model.GaussianCoordinates)
            got = harness.MODELS["gsm_risk"].runner(params, [64], [rngs()])[0]
        assert [(b["reps"], b["shape"]) for b in blocks] == [([0, 1], (2, 16384)), ([2, 3], (2, 16384)),
                                                              ([4], (1, 16384))]
        np.testing.assert_array_equal(got, [ref_gsm_risk(params, 64, r) for r in rngs()])

        # refits block their rows again at 2 K_max: 52 cells hold two rows of 26, one of 52;
        # row 5 binds in its block and refits before the next block
        monkeypatch.setattr(sequence_model, "_BLOCK_CELLS", 52)
        payload = json.loads((REPO / "configs" / "gsm_rate_cauchy.json").read_text())
        params = parse_params(payload["params"], "gsm_risk")
        rngs = lambda: [generator(13150348164293828904, 256, rep) for rep in range(8)]  # noqa: E731
        with monkeypatch.context() as recording:
            blocks = record_sieve_blocks(recording, sequence_model.RescaledCauchyCoordinates)
            got = harness.MODELS["gsm_risk"].runner(params, [256], [rngs()])[0]
        assert [(b["reps"], b["shape"]) for b in blocks] == [([0, 1], (2, 26)), ([2, 3], (2, 26)),
                                                              ([4, 5], (2, 26)), ([5], (1, 52)), ([6, 7], (2, 26))]
        assert (np.argmax(blocks[2]["lw"], axis=1) >= 26 // 2).tolist() == [False, True]
        np.testing.assert_array_equal(got, [ref_gsm_risk(params, 256, r) for r in rngs()])

    @pytest.mark.parametrize("signal", [{"kind": "zero"}, {"kind": "prefix", "k_star": 3}], ids=["zero", "prefix"])
    def test_pc_mean_field_is_the_per_replication_runner(self, monkeypatch, signal):
        blocks = []
        moments = changepoint._truncnorm_moments

        def recorded(x, *args):
            blocks.append(x.shape)
            return moments(x, *args)

        monkeypatch.setattr(changepoint, "_truncnorm_moments", recorded)
        monkeypatch.setattr(changepoint, "_MEAN_FIELD_CELLS", 3 * 200)
        params = parse_params({"sigma": 0.7, "B": 1.0, "signal": signal}, "pc_mean_field")
        rngs = [generator(37, 200, rep) for rep in range(8)]
        got = harness.MODELS["pc_mean_field"].runner(params, [200], [rngs])[0]
        assert blocks == [(3, 200), (3, 200), (2, 200)]
        monkeypatch.undo()
        want = [ref_pc_mean_field(params, 200, generator(37, 200, rep)) for rep in range(8)]
        np.testing.assert_array_equal(got, want)


class TestChangePointRunners:
    @pytest.mark.parametrize("n", [128, 256, 512, 1024, 2048, 4096])
    def test_draws_in_place_are_the_stacked_rows(self, n):
        # signal + sigma * Z drawn row by row into chunks cut at the grid's n values, or into one
        # array, against the stack of a list
        payload = json.loads((REPO / "configs" / "pc_markov_chain.json").read_text())
        params = parse_params(payload["params"], "pc_markov_chain")
        sigma, _, _, signal = harness._pc_common({**params, "sigma": 0.7}, n)
        rngs = lambda: [generator(20250810, n, rep) for rep in range(5)]  # noqa: E731
        stacked = np.stack([signal.values + sigma * rng.standard_normal(n) for rng in rngs()])
        edges = [0] + [m for m in payload["n_grid"] if m <= n]
        chunks = harness._pc_draw(signal, sigma, rngs(), edges)
        assert [c.shape[1] for c in chunks] == np.diff(edges).tolist()
        assert np.concatenate(chunks, axis=1).tobytes() == stacked.tobytes()
        assert harness._pc_draw(signal, sigma, rngs(), (0, n))[0].tobytes() == stacked.tobytes()

    def test_markov_chain_runner_memory(self):
        # each n's data are drawn when it joins the pass and dropped a stretch of sites at a time,
        # so at most (K - j) R n_j values are held at the join of the j-th n (3.3 MB on the shipped
        # grid, where holding every n's data takes 6.45 MB), while one emission block of at most
        # _SMOOTH_CELLS cells (2.1 MB) streams through; the bound allows two blocks
        payload = json.loads((REPO / "configs" / "pc_markov_chain.json").read_text())
        config = ExperimentConfig.from_json(json.dumps(payload))
        params = parse_params(config.params, config.model)
        index = np.arange(config.replications, dtype=np.uint64)
        rngs = [list(generators(derive_seed(config.master_seed, n, index))) for n in config.n_grid]
        tracemalloc.start()
        try:
            harness.MODELS[config.model].runner(params, config.n_grid, rngs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        ns = config.n_grid
        held = max((len(ns) - j) * n for j, n in enumerate(ns)) * config.replications
        bound = 8 * held + 2 * 8 * changepoint._SMOOTH_CELLS
        assert peak < bound


class TestDivergenceReport:
    def test_clean_run(self):
        config = ExperimentConfig(
            model="divergence_chain",
            n_grid=(2, 64),
            replications=500,
            master_seed=3,
            params={},
        )
        report = divergence_chain_report(config)
        assert report["ordering_failures"] == 0
        assert report["monotonicity_failures"] == 0
        assert report["pairs"] == 500


class TestTruncCurve:
    def test_rows_match_direct_call(self):
        config = ExperimentConfig(
            model="trunc_exact_risk",
            n_grid=tuple(2**m for m in range(10, 17)),
            replications=1,
            master_seed=0,
            params={"alpha": 1.0, "beta": 1.0, "t_grid": [0.3, 0.6]},
        )
        rows = trunc_curve_rows(config)
        assert [r["t"] for r in rows] == [0.3, 0.6]
        for row in rows:
            assert abs(row["fitted_exponent"] - row["theory_exponent"]) <= 0.07


class TestEmission:
    def test_csv_round_trip(self, tmp_path):
        table = make_table([64, 128, 256], [0.51, 0.27, 0.133], [0.01, 0.005, 0.002])
        path = tmp_path / "table.csv"
        emit(table, "csv", str(path))
        text = path.read_text()
        assert text.splitlines()[0] == "n,mean_risk,stderr,replications"
        back = read_table(str(path), "csv")
        np.testing.assert_array_equal(back.n, table.n)
        np.testing.assert_array_equal(back.mean_risk, table.mean_risk)
        np.testing.assert_array_equal(back.stderr, table.stderr)

    def test_json_round_trip(self, tmp_path):
        table = make_table([64, 128], [1 / 3, 1 / 7], [0.01, 0.005])
        path = tmp_path / "table.json"
        emit(table, "json", str(path))
        back = read_table(str(path), "json")
        np.testing.assert_array_equal(back.mean_risk, table.mean_risk)

    def test_empty_table_header_only(self, tmp_path):
        table = RateTable(
            n=np.array([], dtype=int),
            mean_risk=np.array([]),
            stderr=np.array([]),
            replications=np.array([], dtype=int),
        )
        path = tmp_path / "empty.csv"
        emit(table, "csv", str(path))
        assert path.read_text() == "n,mean_risk,stderr,replications\n"

    def test_fit_json_keys(self):
        fit = RateFit(slope=-0.8, intercept=1.1, r_squared=0.99)
        payload = json.loads(to_text(fit, "json"))
        assert set(payload) == {"slope", "intercept", "r_squared"}

    @pytest.mark.parametrize(
        "text, message",
        [
            ("n,risk\n64,0.5\n", r"^unexpected CSV header \['n', 'risk'\]$"),
            ("n,mean_risk,stderr,replications\n128,0.5,0.1,3\n64,0.9,0.1,3\n", "^rows must be sorted by strictly"),
            ("n,mean_risk,stderr,replications\n64,0.5,-0.1,3\n", "^standard errors must be non-negative$"),
        ],
        ids=["header", "unsorted-n", "negative-stderr"],
    )
    def test_malformed_table_file_is_an_input_error(self, tmp_path, text, message):
        path = tmp_path / "table.csv"
        path.write_text(text)
        with pytest.raises(InputError, match=message):
            read_table(str(path), "csv")

    @pytest.mark.parametrize(
        "fmt, text, exc_name",
        [
            ("json", '{"n": 64}', "TypeError"),
            ("json", '[{"n": 64, "mean_risk": 0.5', "JSONDecodeError"),
            ("json", '[{"n": 64, "mean_risk": 0.5, "replications": 3}]', "KeyError"),
            ("csv", "n,mean_risk,stderr,replications\n64,half,0.1,3\n", "ValueError"),
            ("csv", "n,mean_risk,stderr,replications\n64,0.5\n", "TypeError"),
            ("csv", f"n,mean_risk,stderr,replications\n{10**25},0.5,0.1,3\n", "OverflowError"),
            # a JSON cell is typed as params are: n and replications integers, not bools, and the
            # mean and stderr finite numbers
            ("json", '[{"n": 1.7, "mean_risk": "0.5", "stderr": true, "replications": 3}]',
             "InputError: row 0 n must be an integer, got 1.7$"),
            ("json", '[{"n": true, "mean_risk": 0.5, "stderr": 0.1, "replications": 2.9}]',
             "InputError: row 0 n must be an integer, got True$"),
            ("json", '[{"n": 64, "mean_risk": 0.5, "stderr": 0.1, "replications": 2.9}]',
             "InputError: row 0 replications must be an integer, got 2.9$"),
            ("json", '[{"n": 64, "mean_risk": "0.5", "stderr": 0.1, "replications": 3}]',
             "InputError: row 0 mean_risk must be a finite number, got '0.5'$"),
            ("json", '[{"n": 64, "mean_risk": 0.5, "stderr": true, "replications": 3}]',
             "InputError: row 0 stderr must be a finite number, got True$"),
            ("json", '[{"n": 64, "mean_risk": NaN, "stderr": 0.1, "replications": 3}]',
             "InputError: row 0 mean_risk must be a finite number, got nan$"),
        ],
        ids=["json-object", "truncated-json", "missing-column", "non-numeric-cell", "short-row", "n-past-int64",
             "json-n-float", "json-n-bool", "json-replications-float", "json-mean-string", "json-stderr-bool",
             "json-mean-nan"],
    )
    def test_unparsable_table_file_is_an_input_error_naming_it(self, tmp_path, fmt, text, exc_name):
        path = tmp_path / f"table.{fmt}"
        path.write_text(text)
        with pytest.raises(InputError, match=f"^{re.escape(str(path))} is not a {fmt} rate table: {exc_name}"):
            read_table(str(path), fmt)

    def test_unknown_format_object_or_file_is_an_input_error(self, tmp_path):
        table = make_table([64], [0.5])
        with pytest.raises(InputError, match="^format must be 'csv' or 'json', got 'xml'$"):
            to_text(table, "xml")
        with pytest.raises(InputError, match="^cannot emit object of type set$"):
            to_text({1}, "csv")
        path = tmp_path / "table.csv"
        emit(table, "csv", str(path))
        with pytest.raises(InputError, match="^format must be 'csv' or 'json', got 'xml'$"):
            read_table(str(path), "xml")
        with pytest.raises(InputError, match="^cannot read .*missing.csv"):
            read_table(str(tmp_path / "missing.csv"))

    def test_unwritable_path_reports_path(self):
        table = make_table([2], [1.0])
        with pytest.raises(InputError, match="no/such/dir"):
            emit(table, "csv", "no/such/dir/out.csv")
