"""End-to-end CLI tests: exit codes, output schemas, byte determinism, config parsing."""

import contextlib
import copy
import io
import json
import math
import os
import pathlib
import re
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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
    "mix-k-candidate-0": ("mix-fit", _config("mix-fit", {"k_candidates": [0]})),
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


def test_numeric_failures_exit_3(tmp_path):
    # a tiny K_max cap forces the truncation-binding guard to fire
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


def test_trunc_curve_exponents_finite_for_large_beta(tmp_path):
    # j^(2 beta + 1) overflows float range here; the risk terms have finite limits
    payload = _config("trunc-curve", {"beta": 200.0}, n_grid=[1024, 2048, 4096])
    cfg = write_config(tmp_path, "trunc.json", payload)
    out = tmp_path / "curve.json"
    assert main(["trunc-curve", "--config", cfg, "--out", str(out), "--format", "json"]) == 0
    rows = json.loads(out.read_text())
    assert rows and all(math.isfinite(row["fitted_exponent"]) for row in rows)


def test_gsm_rate_runs_at_large_alpha(tmp_path):
    # j^(2 alpha) overflows at alpha = 200; the boundary signal must not turn it into nan
    cfg = write_config(tmp_path, "gsm.json", _config("gsm-rate", {"alpha": 200}))
    out = tmp_path / "rate.json"
    assert main(["gsm-rate", "--config", cfg, "--out", str(out), "--format", "json"]) == 0
    rows = json.loads(out.read_text())
    assert len(rows) == 3 and all(math.isfinite(row["mean_risk"]) for row in rows)


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
