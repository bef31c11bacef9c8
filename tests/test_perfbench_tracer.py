"""The benchmark's per-layer tracer still finds every function and field it reads.

perfbench/spans.py wraps vblab functions by name and reads result fields
in its counters; a rename in vblab would otherwise surface only in a
traced benchmark run.
"""

import importlib.util
import json
import pathlib
import sys

import vblab.cli

SPANS_PATH = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

GSM_RATE = {
    "model": "gsm_risk",
    "n_grid": [128, 256, 512],
    "replications": 3,
    "master_seed": 2,
    "params": {"alpha": 1.0, "B": 2.0},
}


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _vblab_namespaces() -> dict:
    return {
        name: dict(vars(m))
        for name, m in list(sys.modules.items())
        if name == "vblab" or name.startswith("vblab.")
    }


def test_tracer_counts_a_gsm_run_and_uninstall_restores(tmp_path):
    spans = _load_spans()
    before = _vblab_namespaces()
    cfg = tmp_path / "gsm.json"
    cfg.write_text(json.dumps(GSM_RATE))

    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.item = 0
        tracer.begin_pass()
        argv = ["gsm-rate", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]
        assert vblab.cli.main(argv) == 0
        metrics = tracer.pass_metrics()
    finally:
        tracer.uninstall()

    assert metrics["cli.main.calls"] == 1
    assert metrics["sequence_model.fit_mean_field.calls"] == 9
    assert metrics["sequence_model.tilts"] > 0
    after = _vblab_namespaces()
    for name, namespace in before.items():
        for attr, value in namespace.items():
            assert after[name][attr] is value, f"{name}.{attr} not restored"
