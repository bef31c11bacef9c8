"""End-to-end CLI tests: exit codes, output schemas, byte determinism, config parsing."""

import contextlib
import copy
import dataclasses
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import tempfile
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vblab import harness, mixture
from vblab.cli import main
from vblab.harness import MODELS, ExperimentConfig, parse_params


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


SMALL_CONFIGS = {
    "divcheck": {
        "model": "divergence_chain",
        "n_grid": [2, 16],
        "replications": 200,
        "master_seed": 1,
        "params": {},
    },
    "gsm-rate": {
        "model": "gsm_risk",
        "n_grid": [128, 256, 512],
        "replications": 3,
        "master_seed": 2,
        "params": {"alpha": 1.0, "B": 2.0},
    },
    "gsm-dim": {
        "model": "gsm_dimension",
        "n_grid": [128, 256, 512],
        "replications": 3,
        "master_seed": 3,
        "params": {"alpha": 1.0, "B": 2.0},
    },
    "gsm-lower": {
        "model": "gsm_spike_risk",
        "n_grid": [512],
        "replications": 3,
        "master_seed": 4,
        "params": {"alpha": 1.0, "B": 2.0, "signal": {"kind": "spike", "j0": "adversary"}},
    },
    "trunc-curve": {
        "model": "trunc_exact_risk",
        "n_grid": [1024, 2048, 4096, 8192],
        "replications": 1,
        "master_seed": 0,
        "params": {"alpha": 1.0, "beta": 1.0, "t_grid": [0.3, 1.0]},
    },
    "pc-compare": {
        "model": "pc_markov_chain",
        "n_grid": [64, 128],
        "replications": 3,
        "master_seed": 5,
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
        "master_seed": 6,
        "params": {"k_candidates": [1, 2]},
    },
    "expfam-fit": {
        "model": "expfamily_hellinger",
        "n_grid": [150],
        "replications": 2,
        "master_seed": 7,
        "params": {"theta_star": [0.6], "k": 1, "opt": {"n_iters": 60, "n_mc": 16}},
    },
}


@pytest.mark.parametrize("command", sorted(SMALL_CONFIGS))
def test_byte_identical_reruns(command, tmp_path):
    cfg = write_config(tmp_path, f"{command}.json", SMALL_CONFIGS[command])
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main([command, "--config", cfg, "--out", str(out_a), "--format", "csv"]) == 0
    assert main([command, "--config", cfg, "--out", str(out_b), "--format", "csv"]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_json_format(tmp_path):
    cfg = write_config(tmp_path, "d.json", SMALL_CONFIGS["divcheck"])
    out = tmp_path / "report.json"
    assert main(["divcheck", "--config", cfg, "--out", str(out), "--format", "json"]) == 0
    payload = json.loads(out.read_text())
    assert payload["ordering_failures"] == 0


def test_seed_override_changes_output(tmp_path):
    cfg = write_config(tmp_path, "g.json", SMALL_CONFIGS["gsm-rate"])
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(["gsm-rate", "--config", cfg, "--out", str(out_a)]) == 0
    assert main(["gsm-rate", "--config", cfg, "--seed", "999", "--out", str(out_b)]) == 0
    assert out_a.read_bytes() != out_b.read_bytes()


def test_fit_flag_emits_fit(tmp_path):
    cfg = write_config(tmp_path, "g.json", SMALL_CONFIGS["gsm-rate"])
    out = tmp_path / "fit.json"
    code = main(
        ["gsm-rate", "--config", cfg, "--out", str(out), "--format", "json", "--fit", "--loglog"]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert {"slope", "intercept", "r_squared", "loglog_coefficient"} <= set(payload)


def test_loglog_fit_rejects_n_1(tmp_path, capsys):
    # log log 1 = -inf, so the regression has no finite design matrix
    cfg = write_config(tmp_path, "g.json", _config("gsm-rate", n_grid=[1, 2, 3]))
    argv = ["gsm-rate", "--config", cfg, "--out", str(tmp_path / "fit.json"), "--fit", "--loglog"]
    assert main(argv) == 2
    assert capsys.readouterr().err.splitlines()[-1].startswith("error:")


def test_pc_compare_accepts_both_variants(tmp_path):
    payload = {
        "model": "pc_mean_field",
        "n_grid": [48, 96],
        "replications": 3,
        "master_seed": 9,
        "params": {"sigma": 1.0, "B": 1.0, "signal": {"kind": "zero"}},
    }
    cfg = write_config(tmp_path, "pcmf.json", payload)
    out = tmp_path / "mf.csv"
    assert main(["pc-compare", "--config", cfg, "--out", str(out)]) == 0
    assert out.read_text().startswith("n,mean_risk,stderr,replications")


def test_config_out_fallback(tmp_path):
    payload = dict(SMALL_CONFIGS["divcheck"])
    payload["out"] = str(tmp_path / "from_config.csv")
    cfg = write_config(tmp_path, "d.json", payload)
    assert main(["divcheck", "--config", cfg]) == 0
    assert (tmp_path / "from_config.csv").exists()

    no_out = write_config(tmp_path, "noout.json", SMALL_CONFIGS["divcheck"])
    assert main(["divcheck", "--config", no_out]) == 2


def _config(command, params=None, **top):
    """SMALL_CONFIGS[command] with top-level keys and params keys overridden."""
    payload = {**SMALL_CONFIGS[command], **top}
    payload["params"] = {**payload["params"], **(params or {})}
    return payload


PC_MEAN_FIELD = {**SMALL_CONFIGS["pc-compare"], "model": "pc_mean_field"}

# (command, config payload): None is a missing file, a str is written verbatim
INVALID_INPUTS = {
    "missing-file": ("gsm-rate", None),
    "not-json": ("gsm-rate", "{not json"),
    "unknown-config-key": ("gsm-rate", _config("gsm-rate", extra=1)),
    "wrong-model": ("gsm-rate", SMALL_CONFIGS["divcheck"]),
    "replications-str": ("gsm-rate", _config("gsm-rate", replications="abc")),
    "replications-float": ("gsm-rate", _config("gsm-rate", replications=2.9)),
    "master-seed-str": ("gsm-rate", _config("gsm-rate", master_seed="x")),
    "n-grid-int": ("gsm-rate", _config("gsm-rate", n_grid=256)),
    "n-grid-float": ("gsm-rate", _config("gsm-rate", n_grid=[256.7, 512])),
    "signal-int": ("gsm-rate", _config("gsm-rate", {"signal": 5})),
    "hyper-unknown-key": ("mix-fit", _config("mix-fit", {"hyper": {"sigma0": 1}})),
    "change-prob-str": ("pc-compare", _config("pc-compare", {"change_prob": "abc"})),
    "rho-grid-str": ("divcheck", _config("divcheck", {"rho_grid": ["a"]})),
    "slack-str": ("divcheck", _config("divcheck", {"slack": "x"})),
    "divcheck-slack-negative": ("divcheck", _config("divcheck", {"slack": -1.0})),
    "rho-grid-decreasing": ("divcheck", _config("divcheck", {"rho_grid": [2.0, 1.0]})),
    "t-grid-str": ("trunc-curve", _config("trunc-curve", {"t_grid": ["a"]})),
    "trunc-curve-t": ("trunc-curve", _config("trunc-curve", {"t": 0.3})),
    "trunc-curve-k-rule": ("trunc-curve", _config("trunc-curve", {"k_rule": "full"})),
    "theta-star-str": ("expfam-fit", _config("expfam-fit", {"theta_star": "x"})),
    "spike-j0-str": ("gsm-lower", _config("gsm-lower", {"signal": {"kind": "spike", "j0": "x"}})),
    "truth-partial": ("mix-fit", _config("mix-fit", {"truth": {"mu": [0.0]}})),
    "params-typo": ("gsm-rate", _config("gsm-rate", {"alpah": 3.0})),
    "nested-params-typo": ("gsm-rate", _config("gsm-rate", {"prior": {"sigma0sq": 1.0}})),
    "pc-mean-field-sigma-0": ("pc-compare", {**PC_MEAN_FIELD, "params": {"sigma": 0.0}}),
    "pc-mean-field-sigma-neg": ("pc-compare", {**PC_MEAN_FIELD, "params": {"sigma": -1.0}}),
    "pc-mean-field-change-prob": (
        "pc-compare", {**PC_MEAN_FIELD, "params": {"change_prob": 0.3}}
    ),
    "pc-markov-chain-sigma-0": ("pc-compare", _config("pc-compare", {"sigma": 0.0})),
    "gsm-alpha-neg": ("gsm-rate", _config("gsm-rate", {"alpha": -0.5})),
    "gsm-k-max-factor-0": ("gsm-rate", _config("gsm-rate", {"k_max_factor": 0})),
    "gsm-k-max-factor-huge": ("gsm-rate", _config("gsm-rate", {"k_max_factor": 1e300})),
    "gsm-j0-huge": (
        "gsm-lower", _config("gsm-lower", {"signal": {"kind": "spike", "j0": 10**13}})
    ),
    "gsm-j0-adversary-at-n-1": ("gsm-lower", _config("gsm-lower", n_grid=[1, 512])),
    "gsm-j0-without-spike": (
        "gsm-rate", _config("gsm-rate", {"signal": {"kind": "sobolev_boundary", "j0": 4}})
    ),
    "expfam-k-max": ("expfam-fit", _config("expfam-fit", {"K_max": 40})),
    "mix-k-candidate-0": ("mix-fit", _config("mix-fit", {"k_candidates": [0]})),
    "gsm-family-reads-other-key": (
        "gsm-rate", _config("gsm-rate", {"prior": {"family": "gaussian", "scale": 5.0}})
    ),
}


@pytest.mark.parametrize("case", sorted(INVALID_INPUTS))
def test_validation_failures_exit_2(case, tmp_path, capsys):
    command, payload = INVALID_INPUTS[case]
    cfg = str(tmp_path / "cfg.json")
    if payload is not None:
        (tmp_path / "cfg.json").write_text(
            payload if isinstance(payload, str) else json.dumps(payload)
        )
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 2
    assert capsys.readouterr().err.splitlines()[-1].startswith("error:")


def _domains(schema, path=()):
    """(declaring dict, dotted path, domain) for each domain declared in a params schema."""
    for key, default in schema.items():
        if isinstance(default, dict):
            yield from _domains(default, path + (key,))
        elif isinstance(default, tuple):
            yield schema, path + (key,), default


def _value_at(params, path):
    for step in path:
        params = params.get(step, {}) if isinstance(params, dict) else {}
    return params


def _edge_values(domain):
    """(values just inside, values just outside) a declared domain."""
    default, bound = domain[0], domain[-1]
    if isinstance(default, str):
        return list(domain), ["?"]
    if isinstance(bound, float):  # a float bound is strict
        return [math.nextafter(bound, math.inf)], [bound]
    if isinstance(default, float):
        return [float(bound)], [math.nextafter(bound, -math.inf)]
    return [bound], [bound - 1]


def _boundary_cases():
    """(command, config, dotted key, domain, inside) at the edges of every domain MODELS declares.

    A domain shared by several models is tried once, in the first SMALL_CONFIGS entry
    already holding the value if one does, else in the first entry carrying the domain.
    """
    small = [(c, SMALL_CONFIGS[c]) for c in sorted(SMALL_CONFIGS)] + [("pc-compare", PC_MEAN_FIELD)]
    shared = {}
    for model, spec in MODELS.items():
        for owner, path, domain in _domains(spec.defaults):
            entry = shared.setdefault((id(owner), path[-1]), (path, domain, []))
            entry[2].extend((c, cfg) for c, cfg in small if cfg["model"] == model)
    cases = []
    for path, domain, carriers in shared.values():
        key = ".".join(path)
        assert carriers, f"no SMALL_CONFIGS entry carries params.{key}"
        for inside, values in zip((True, False), _edge_values(domain)):
            for value in values:
                held = [(c, cfg) for c, cfg in carriers if _value_at(cfg["params"], path) == value]
                command, config = (held or carriers)[0]
                params = copy.deepcopy(config["params"])
                node = params
                for step in path[:-1]:
                    node = node.setdefault(step, {})
                node[path[-1]] = value
                payload = {**config, "params": params}
                case_id = f"{command}:{key}={value!r}"
                cases.append(pytest.param(command, payload, key, domain, inside, id=case_id))
    return cases


# mix-fit's own check rejects any grid too coarse for the true density to integrate to
# one, which a 2-point grid always is, so the least declared grid_points exits 2 there
INSIDE_BUT_REJECTED = {"grid_points": "f0 integrates to"}


@pytest.mark.parametrize("command, payload, key, domain, inside", _boundary_cases())
def test_declared_domains_hold_at_their_edges(
    command, payload, key, domain, inside, tmp_path, capsys
):
    # a value just inside a declared domain runs; one just outside exits 2 naming its key,
    # and a string outside a choice tuple lists every choice
    cfg = write_config(tmp_path, "cfg.json", payload)
    rc = main([command, "--config", cfg, "--out", str(tmp_path / "o.csv")])
    err = capsys.readouterr().err
    last = err.splitlines()[-1:]
    domain_message = f"error: params.{key} must be"
    if not inside:
        assert rc == 2 and last[0].startswith(domain_message), last
        if isinstance(domain[0], str):
            assert f"one of {list(domain)}" in last[0], last
        return
    assert domain_message not in err, last
    if key in INSIDE_BUT_REJECTED:
        assert rc == 2 and INSIDE_BUT_REJECTED[key] in last[0], last
    else:
        assert rc in (0, 3), last


def test_coarse_mix_fit_grid_exits_before_the_fits(tmp_path, capsys, monkeypatch):
    def no_fit(*args, **kwargs):
        raise AssertionError("select_k_batch ran although the grid was already too coarse")

    monkeypatch.setattr(mixture, "select_k_batch", no_fit)
    cfg = write_config(tmp_path, "cfg.json", _config("mix-fit", {"grid_points": 2}))
    assert main(["mix-fit", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 2
    assert "f0 integrates to" in capsys.readouterr().err.splitlines()[-1]


@pytest.mark.parametrize(
    "truth",
    [{"sigma": 1e-300}, {"mu": [-1e200, 1e200]}, {"mu": [-3.0, 1e200], "sigma": 1e-300}],
    ids=["tiny-sigma", "huge-mu", "both"],
)
def test_truth_past_float_range_exits_2(truth, tmp_path, capsys):
    # the kernel's square overflows to exp(-inf) = 0 and an overflowing integral is inf, with
    # no RuntimeWarning (an error in this suite) on the way to the grid check's one error line
    cfg = write_config(tmp_path, "cfg.json", _config("mix-fit", {"truth": truth}))
    assert main(["mix-fit", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: f0 integrates to"), err


def test_adversary_spike_names_its_key_and_n_at_n_1(tmp_path, capsys):
    # n / log n, the adversary's effective dimension, divides by zero at n = 1
    cfg = write_config(tmp_path, "cfg.json", _config("gsm-lower", n_grid=[1, 512]))
    assert main(["gsm-lower", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 2
    err = "error: n=1: params.signal.j0 'adversary' needs n >= 2, since it scales with n / log n\n"
    assert capsys.readouterr().err == err


def test_subnormal_spike_runs(tmp_path):
    # 2 * 40^-200 is subnormal; its rounding once tripped the ball check
    params = {"alpha": 200, "B": 2, "signal": {"kind": "spike", "j0": 40}}
    cfg = write_config(tmp_path, "cfg.json", _config("gsm-lower", params, replications=2, master_seed=1))
    out = tmp_path / "o.json"
    assert main(["gsm-lower", "--config", cfg, "--out", str(out), "--format", "json"]) == 0
    assert math.isfinite(json.loads(out.read_text())[0]["mean_risk"])


@pytest.mark.parametrize("sigma", [1e154, 1e200])
def test_truth_whose_sample_spread_squares_past_float_range_exits_3(sigma, tmp_path, capsys):
    # the sample variance overflows; no RuntimeWarning (an error in this suite) gets out
    cfg = write_config(tmp_path, "cfg.json", _config("mix-fit", {"truth": {"sigma": sigma}}))
    assert main(["mix-fit", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 3
    err = "numeric failure: a sample's spread squares past the float range\n"
    assert capsys.readouterr().err == err
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("sigma", [1e6, 1e8, 1e200])
def test_pc_mean_field_at_wide_sigma(sigma, tmp_path):
    # each site's tilt is all but uniform on [-2, 2], of variance 4/3, so the risk at n = 128
    # is 128 * 4/3; the closed-form variance cancelled there, and sigma^2 overflowed at 1e200
    params = {"sigma": sigma, "signal": {"kind": "zero"}}
    cfg = write_config(tmp_path, "cfg.json", {**PC_MEAN_FIELD, "n_grid": [128], "replications": 4,
                                              "master_seed": 1, "params": params})
    out = tmp_path / "o.json"
    assert main(["pc-compare", "--config", cfg, "--out", str(out), "--format", "json"]) == 0
    assert json.loads(out.read_text())[0]["mean_risk"] == pytest.approx(128 * 4 / 3, rel=1e-5)


# (command, config payload, the error it exits 2 with): checks that no shipped config reaches
CONFIG_CHECKS = {
    "replications-0": ("gsm-rate", _config("gsm-rate", replications=0), "replications must lie in 1..4294967296, got 0"),
    **{  # past the limit the replication index comes out empty, negative in the table, or past numpy's size limit
        f"replications-{name}": (
            "gsm-rate", _config("gsm-rate", replications=reps), f"replications must lie in 1..4294967296, got {reps}"
        )
        for name, reps in (("2**32+1", 2**32 + 1), ("10**15", 10**15), ("2**63-1", 2**63 - 1), ("2**63", 2**63),
                           ("2**64+5", 2**64 + 5))
    },
    "master-seed-negative": (
        "gsm-rate", _config("gsm-rate", master_seed=-1), "master_seed must be a 64-bit unsigned integer"
    ),
    "master-seed-2**64": (
        "gsm-rate", _config("gsm-rate", master_seed=2**64), "master_seed must be a 64-bit unsigned integer"
    ),
    "config-a-list": ("gsm-rate", "[1]", "config must be a JSON object"),
    "out-a-number": ("gsm-rate", _config("gsm-rate", out=5), "config key 'out' must be a path string"),
    "divcheck-size-1": ("divcheck", _config("divcheck", n_grid=[1, 16]), "distribution sizes start at 2"),
    "change-prob-power-0": (
        "pc-compare", _config("pc-compare", {"change_prob": {"power": 0.0}}),
        "n=64: params.change_prob.power must be positive",
    ),
    "trunc-alpha-0": ("trunc-curve", _config("trunc-curve", {"alpha": 0.0}), "alpha and B must be positive"),
    "trunc-B-negative": ("trunc-curve", _config("trunc-curve", {"B": -1.0}), "alpha and B must be positive"),
    "equal-segments-amplitude-0": (
        "pc-compare", _config("pc-compare", {"signal": {"kind": "equal_segments", "amplitude": 0.0}}),
        "n=64: params.signal.amplitude must lie in (0, B] for equal_segments, got 0.0",
    ),
    "equal-segments-amplitude-above-B": (
        "pc-compare", _config("pc-compare", {"signal": {"kind": "equal_segments", "amplitude": 1.5}}),
        "n=64: params.signal.amplitude must lie in (0, B] for equal_segments, got 1.5",
    ),
    "change-prob-power-bool": (
        "pc-compare", _config("pc-compare", {"change_prob": {"power": True}}),
        "n=64: params.change_prob.power must be a finite number, got True",
    ),
}


@pytest.mark.parametrize("case", sorted(CONFIG_CHECKS))
def test_config_checks_exit_2_with_their_message(case, tmp_path, capsys):
    command, payload, message = CONFIG_CHECKS[case]
    (tmp_path / "cfg.json").write_text(payload if isinstance(payload, str) else json.dumps(payload))
    assert main([command, "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "o.csv")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "exc, line",
    [(MemoryError("Unable to allocate 7.28 PiB"), "error: out of memory: Unable to allocate 7.28 PiB\n"),
     (MemoryError(), "error: out of memory\n")],
    ids=["numpy", "bare"],
)
def test_a_run_out_of_memory_exits_2_with_one_line(exc, line, monkeypatch, tmp_path, capsys):
    def runner(params, n_grid, rngs):
        raise exc

    monkeypatch.setitem(MODELS, "gsm_risk", dataclasses.replace(MODELS["gsm_risk"], runner=runner))
    cfg = write_config(tmp_path, "cfg.json", SMALL_CONFIGS["gsm-rate"])
    assert main(["gsm-rate", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 2
    assert capsys.readouterr().err == line
    assert not (tmp_path / "o.csv").exists()


def test_equal_segments_reads_its_amplitude(tmp_path):
    # the levels are +/- amplitude, so two amplitudes give two tables
    outs = []
    for amplitude in (0.3, 0.9):
        signal = {"kind": "equal_segments", "k_star": 3, "amplitude": amplitude}
        payload = _config("pc-compare", {"signal": signal}, n_grid=[64, 128], replications=3, master_seed=1)
        cfg = write_config(tmp_path, f"{amplitude}.json", payload)
        assert main(["pc-compare", "--config", cfg, "--out", str(tmp_path / f"{amplitude}.csv")]) == 0
        outs.append((tmp_path / f"{amplitude}.csv").read_bytes())
    assert outs[0] != outs[1]


def test_change_prob_power_one_is_the_reciprocal(tmp_path):
    # n^-1.0 and 1 / n are the same float at these n, so the runs agree byte for byte
    outs = []
    for name, prob in (("reciprocal", "reciprocal"), ("power", {"power": 1.0})):
        payload = _config("pc-compare", {"change_prob": prob}, n_grid=[128, 256, 384])
        cfg = write_config(tmp_path, f"{name}.json", payload)
        assert main(["pc-compare", "--config", cfg, "--out", str(tmp_path / f"{name}.csv")]) == 0
        outs.append((tmp_path / f"{name}.csv").read_bytes())
    assert outs[0] == outs[1]


def test_vanished_model_weights_exit_3(tmp_path, capsys):
    # tau = -1e300 leaves prior weight on k = K_max alone, where the spike's evidence ratio under
    # a subnormal Cauchy scale is -inf: no dimension keeps a weight, and no warning gets out
    cfg = write_config(tmp_path, "cfg.json", {
        "model": "gsm_risk", "n_grid": [64, 128], "replications": 3, "master_seed": 1,
        "params": {"B": 100.0, "prior": {"family": "rescaled_cauchy", "tau": -1e300, "scale": 5e-324},
                   "signal": {"kind": "spike", "j0": 1}},
    })
    assert main(["gsm-rate", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 3
    assert capsys.readouterr().err == "numeric failure: n=64: rep=0: all model weights vanished\n"


def test_pc_mean_field_risk_beyond_float_range_exits_3(tmp_path, capsys):
    # at B = sigma = 1e200 the tilts' means square past float range; no RuntimeWarning gets out
    cfg = write_config(tmp_path, "cfg.json", {**PC_MEAN_FIELD, "params": {"sigma": 1e200, "B": 1e200}})
    assert main(["pc-compare", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 3
    assert capsys.readouterr().err == "numeric failure: n=64: the expected squared error is beyond float range\n"


def test_numeric_failures_exit_3(tmp_path, capsys, monkeypatch):
    # a tiny K_max cap makes the truncation-binding guard fire, and a K_max limit
    # equal to that cap leaves it no room to refit
    monkeypatch.setattr(harness, "_K_MAX_LIMIT", 16)
    cfg = write_config(
        tmp_path,
        "bind.json",
        {
            "model": "gsm_risk",
            "n_grid": [4096],
            "replications": 1,
            "master_seed": 0,
            "params": {
                "alpha": 1.0,
                "B": 2.0,
                "k_max_factor": 0.01,
                "signal": {"kind": "spike", "j0": 8},
            },
        },
    )
    assert main(["gsm-rate", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 3
    assert "n=4096: rep=0: model weight argmax reached K_max/2 = 8" in capsys.readouterr().err


@pytest.mark.parametrize("step_size", [1e6, 1e300])
def test_overflowing_ascent_exits_3(tmp_path, capsys, step_size):
    # so long a step overflows sigma, and the ELBO turns nan; no RuntimeWarning gets out
    cfg = write_config(tmp_path, "step.json", {
        "model": "expfamily_hellinger", "n_grid": [10], "replications": 2, "master_seed": 1,
        "params": {"opt": {"step_size": step_size}},
    })
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["expfam-fit", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 3
    assert capsys.readouterr().err == "numeric failure: n=10: rep=0: ELBO is not finite\n"
    assert not (tmp_path / "o.csv").exists()


def test_cauchy_config_runs_where_its_truncation_bound(tmp_path):
    # replication 5 at n = 256 bound at K_max = 26 and exited 3; it now refits at 52
    payload = json.loads((REPO / "configs" / "gsm_rate_cauchy.json").read_text())
    cfg = write_config(tmp_path, "cauchy.json", {**payload, "n_grid": [256]})
    out = tmp_path / "o.json"
    argv = ["gsm-rate", "--config", cfg, "--seed", "13150348164293828904", "--out", str(out)]
    assert main(argv + ["--format", "json"]) == 0
    assert math.isfinite(json.loads(out.read_text())[0]["mean_risk"])


@pytest.mark.parametrize("scale", [1e-300, 1e-150, 1e-100, 1e100, 1e200, 1e300, 5e307])
def test_cauchy_evidence_at_extreme_scales(scale, tmp_path):
    # the Faddeeva closed forms form no square of the scale, so nothing overflows and no
    # RuntimeWarning (an error in this suite) is raised; the fits fall to k = 0 or stay finite
    params = {"prior": {"family": "rescaled_cauchy", "scale": scale}}
    for posterior in ("mean_field", "empirical_bayes"):
        cfg = write_config(tmp_path, "cfg.json", _config("gsm-rate", {**params, "posterior": posterior}))
        out = tmp_path / "o.json"
        assert main(["gsm-rate", "--config", cfg, "--out", str(out), "--format", "json"]) == 0
        assert all(math.isfinite(row["mean_risk"]) for row in json.loads(out.read_text()))


def test_cauchy_config_at_a_narrow_scale(tmp_path):
    # a prior far narrower than the noise runs through the config path; the evidence it
    # uses is checked against a quadrature oracle at this scale in test_sequence_model
    params = {"prior": {"family": "rescaled_cauchy", "scale": 1e-6}}
    cfg = write_config(tmp_path, "cfg.json", _config("gsm-rate", params))
    out = tmp_path / "o.json"
    assert main(["gsm-rate", "--config", cfg, "--out", str(out), "--format", "json"]) == 0
    assert all(0.0 < row["mean_risk"] < math.inf for row in json.loads(out.read_text()))


def test_pc_compare_at_huge_B(tmp_path, capsys):
    # squared grid errors overflow at B = 1e200; the table must stay finite, not nan
    params = {"B": 1e200, "G": 16, "signal": {"kind": "prefix", "k_star": 2, "seg_len": 16}}
    cfg = write_config(tmp_path, "pc.json", _config("pc-compare", params))
    out = tmp_path / "table.json"
    assert main(["pc-compare", "--config", cfg, "--out", str(out), "--format", "json"]) == 0
    rows = json.loads(out.read_text())
    assert rows and all(0.0 <= row["mean_risk"] < math.inf and math.isfinite(row["stderr"]) for row in rows)
    # at sigma = 1e200 the posterior spreads over the whole grid and the risk overflows
    cfg = write_config(tmp_path, "over.json", _config("pc-compare", {**params, "sigma": 1e200}))
    assert main(["pc-compare", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 3
    assert capsys.readouterr().err.splitlines()[-1].startswith("numeric failure:")


def test_pc_compare_names_the_n_of_an_observation_beyond_reach(tmp_path, capsys, monkeypatch):
    # one observation at n = 75 sits where every grid value's squared error overflows; the
    # grid's one backward pass reaches it while n = 128 is open too, and names n = 75
    draw = harness._pc_draw

    def corrupted(signal, sigma, rngs, edges):
        chunks = draw(signal, sigma, rngs, edges)
        if edges[-1] == 75:
            chunks[0][1, 30] = 1e300  # site 30, below n = 40
        return chunks

    monkeypatch.setattr(harness, "_pc_draw", corrupted)
    cfg = write_config(tmp_path, "pc.json", _config("pc-compare", n_grid=[40, 75, 128]))
    assert main(["pc-compare", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 3
    err = "numeric failure: n=75: an observation is beyond reach of every grid value\n"
    assert capsys.readouterr().err == err


@pytest.mark.parametrize(
    "command, params, message",
    [
        ("gsm-rate", {"prior": {"family": "gaussian"}}, "evidence ratio past float range"),
        ("gsm-rate", {"prior": {"family": "rescaled_cauchy"}}, "evidence ratio past float range"),
        ("trunc-curve", {}, "exact risk is beyond float range"),
    ],
    ids=["gaussian", "rescaled_cauchy", "trunc-curve"],
)
def test_huge_B_is_a_numeric_failure(command, params, message, tmp_path, capsys):
    # the signals are inside the ball, but the evidence ratios (v^2 / 2) or the risk's squared
    # signal pass float range; a RuntimeWarning on the way would be an error in this suite
    cfg = write_config(tmp_path, "cfg.json", _config(command, {**params, "B": 1e200}))
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("numeric failure:") and message in err[0]


def test_trunc_curve_exponents_finite_for_large_beta(tmp_path):
    # j^(2 beta + 1) overflows float range here; the risk terms have finite limits
    payload = _config("trunc-curve", {"beta": 200.0}, n_grid=[1024, 2048, 4096])
    cfg = write_config(tmp_path, "trunc.json", payload)
    out = tmp_path / "curve.json"
    assert main(["trunc-curve", "--config", cfg, "--out", str(out), "--format", "json"]) == 0
    rows = json.loads(out.read_text())
    assert rows and all(math.isfinite(row["fitted_exponent"]) for row in rows)


@pytest.mark.parametrize("alpha", [100.0, 200.0])
def test_trunc_curve_runs_at_large_alpha(alpha, tmp_path):
    # the spike B j0^{-alpha} is subnormal from j0 = 40 or so; no candidate is built as a
    # signal, so no ball check can reject one that lies on the ball by construction
    cfg = write_config(tmp_path, "trunc.json", _config("trunc-curve", {"alpha": alpha}))
    out = tmp_path / "curve.json"
    assert main(["trunc-curve", "--config", cfg, "--out", str(out), "--format", "json"]) == 0
    rows = json.loads(out.read_text())
    assert len(rows) == 2 and all(math.isfinite(row["fitted_exponent"]) for row in rows)


def test_gsm_rate_runs_at_large_alpha(tmp_path):
    # j^(2 alpha) overflows at alpha = 200; the boundary signal must not turn it into nan
    cfg = write_config(tmp_path, "gsm.json", _config("gsm-rate", {"alpha": 200}))
    out = tmp_path / "rate.json"
    assert main(["gsm-rate", "--config", cfg, "--out", str(out), "--format", "json"]) == 0
    rows = json.loads(out.read_text())
    assert len(rows) == 3 and all(math.isfinite(row["mean_risk"]) for row in rows)



def test_mix_fit_recovers_the_truth_at_tiny_alpha0(tmp_path):
    # at alpha0 = 1e-30 the prior's E log w is about -1e30; a first sweep started
    # from it would swamp the responsibilities and merge every fit into one component
    payload = json.loads((REPO / "configs" / "mix_fit.json").read_text())
    payload["replications"] = 4
    payload["params"]["hyper"] = {"alpha0": 1e-30}
    cfg = write_config(tmp_path, "mix.json", payload)
    out = tmp_path / "mix.json.out"
    assert main(["mix-fit", "--config", cfg, "--out", str(out), "--format", "json"]) == 0
    rows = json.loads(out.read_text())
    assert [row["n"] for row in rows] == payload["n_grid"]
    assert all(row["mean_risk"] < 0.01 for row in rows), rows

# Keys whose values set an experiment's size: a mutation never draws a larger
# value for them than SMALL_CONFIGS has, so no example allocates more than a few MB.
SIZE_KEYS = {"n_grid", "replications", "G"}


def _locations(node, path=()):
    """(path, kind) below node: kind is "dict" for an object, "key" for an
    object member and "item" for a list element."""
    if isinstance(node, dict):
        yield path, "dict"
        for key, value in node.items():
            yield path + (key,), "key"
            yield from _locations(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield path + (i,), "item"
            yield from _locations(value, path + (i,))


def _at(node, path):
    for step in path:
        node = node[step]
    return node


def _ints_below(node):
    if isinstance(node, (dict, list)):
        values = node.values() if isinstance(node, dict) else node
        return [i for v in values for i in _ints_below(v)]
    return [node] if isinstance(node, int) and not isinstance(node, bool) else []


def _replacements(cap, max_len):
    scalars = st.one_of(
        st.none(),
        st.booleans(),
        st.text(max_size=4),
        st.floats(-4.0, 64.0) | st.sampled_from([math.nan, math.inf, -math.inf]),
        st.integers(-4, cap),
    )
    return st.one_of(
        scalars,
        st.lists(scalars, max_size=max_len),
        st.dictionaries(st.text(max_size=4), scalars, max_size=2),
    )


@st.composite
def mutated_configs(draw):
    """A SMALL_CONFIGS entry with one key dropped, one key added, or one value replaced."""
    command = draw(st.sampled_from(sorted(SMALL_CONFIGS)))
    config = copy.deepcopy(SMALL_CONFIGS[command])
    places = list(_locations(config))
    action = draw(st.sampled_from(["drop", "add", "replace"]))
    if action == "add":
        target = _at(config, draw(st.sampled_from([p for p, kind in places if kind == "dict"])))
        key = draw(st.text(min_size=1, max_size=6).filter(lambda k: k not in target))
        target[key] = draw(_replacements(64, 3))
        return command, config
    kinds = ("key",) if action == "drop" else ("key", "item")
    path = draw(st.sampled_from([p for p, kind in places if kind in kinds]))
    parent, last = _at(config, path[:-1]), path[-1]
    if action == "drop":
        del parent[last]
    else:
        old = parent[last]
        sized = SIZE_KEYS.intersection(step for step in path if isinstance(step, str))
        cap = min(64, max(_ints_below(old), default=64)) if sized else 64
        max_len = len(old) if sized and isinstance(old, list) else 3
        parent[last] = draw(_replacements(cap, max_len))
    return command, config


@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutated_configs())
def test_mutated_configs_exit_cleanly(case):
    command, payload = case
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "cfg.json")
        with open(cfg, "w") as fh:
            json.dump(payload, fh)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main([command, "--config", cfg, "--out", os.path.join(tmp, "o.csv")])
    assert rc in (0, 2, 3)
    if rc:
        assert err.getvalue().splitlines()[-1].startswith(("error:", "numeric failure:"))


REPO = pathlib.Path(__file__).resolve().parent.parent


def test_shipped_configs_parse_under_their_schema():
    readme = (REPO / "README.md").read_text()
    named = dict(
        (path, command)
        for command, path in re.findall(r"vblab (\S+) +--config (configs/\S+\.json)", readme)
    )
    configs = sorted(REPO.glob("configs/*.json"))
    assert configs
    for path in configs:
        config = ExperimentConfig.from_json(path.read_text())
        parse_params(config.params, config.model)
        assert MODELS[config.model].command == named[f"configs/{path.name}"], path.name


def test_cli_import_leaves_scipy_unloaded():
    # the test modules import scipy themselves, so only a fresh interpreter shows what the CLI loads
    code = "import sys, vblab.cli; vblab.cli.build_parser(); print('scipy' in sys.modules)"
    path = [str(REPO / "src")] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120,
        check=True,
    )
    assert done.stdout.strip() == "False"


def _schema_keys(schema: dict) -> set:
    """Every key of a params schema, nested objects included."""
    keys = set(schema)
    for sub in schema.values():
        if isinstance(sub, dict):
            keys |= _schema_keys(sub)
    return keys


def test_readme_params_list_matches_the_registry():
    # each bullet's head, up to its first colon, names the models sharing it;
    # its body documents a key as `key` = default or `key` (default ...), names
    # each declared choice as `"choice"`, and states each declared bound right
    # after its default, as (must be > b) when strict (a float bound) and as
    # (must be ≥ b) otherwise
    readme = (REPO / "README.md").read_text()
    documented = {}
    for bullet in re.findall(r"^- (.*(?:\n  .*)*)", readme, flags=re.M):
        head, _, body = bullet.partition(":")
        models = [m for m in re.findall(r"`(\w+)`", head) if m in MODELS]
        keys = set(re.findall(r"`(\w+)`\s*(?:=|\(default)", body))
        for model in models:
            assert model not in documented, f"{model} has two bullets"
            documented[model] = (keys, models, body)
    assert set(documented) == set(MODELS)
    for model, (keys, models, body) in documented.items():
        missing = _schema_keys(MODELS[model].defaults) - keys
        assert not missing, f"README omits {model} params {sorted(missing)}"
        rejected = keys - set().union(*(_schema_keys(MODELS[m].defaults) for m in models))
        assert not rejected, f"README lists {sorted(rejected)}, which {models} reject"
        for _, path, domain in _domains(MODELS[model].defaults):
            key = ".".join(path)
            if isinstance(domain[0], str):
                absent = [c for c in domain if f'`"{c}"`' not in body]
                assert not absent, f"README omits {model} params.{key} choices {absent}"
            else:
                bound = domain[-1]
                op = ">" if isinstance(bound, float) else "≥"
                stated = rf"`{path[-1]}`\s*=\s*`[^`]*`\s*\(must\s+be\s+{op}\s+{bound:g}(?![\d.])"
                assert re.search(stated, body), f"README omits {model} params.{key} {op} {bound:g}"
