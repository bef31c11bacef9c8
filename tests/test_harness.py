"""Tests for the experiment harness: seeding, fits, emission, runners."""

import json
import math

import numpy as np
import pytest

from vblab._rng import derive_seed
from vblab.errors import InputError
from vblab.harness import (
    ExperimentConfig,
    RateFit,
    RateTable,
    divergence_chain_report,
    emit,
    fit_rate_exponent,
    read_table,
    run_experiment,
    to_text,
    trunc_curve_rows,
)


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

    def test_unwritable_path_reports_path(self):
        table = make_table([2], [1.0])
        with pytest.raises(InputError, match="no/such/dir"):
            emit(table, "csv", "no/such/dir/out.csv")
