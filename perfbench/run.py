"""vblab benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload fits --seed 20250810 --seconds 45 --trace 0

Runs from the root of a vblab checkout and imports vblab from its src/.
With --trace 0 the last stdout line is a JSON object holding the gated
end-to-end metrics of BENCHMARK.json; with --trace 1 it holds the
per-layer metrics of a traced run.  The lines before it report every
per-item time, provenance and digest.  A full record of the run and the
traced spans go to perfbench/out/.  See perfbench/README.md.
"""

import os

# BLAS and OpenMP read these once, when numpy loads, so they are set before
# any import below can load it; one thread keeps the closed loop at one core
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import gate  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

# fresh interpreters timed for setup_s, after one that warms the bytecode cache
SETUP_REPEATS = 5
SETUP_CODE = "import sys; sys.path.insert(0, sys.argv[1]); import vblab, vblab.cli; vblab.cli.build_parser()"


def _parse_args(argv):
    parser = argparse.ArgumentParser(description="vblab benchmark (one workload, one seed)")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be a 64-bit unsigned integer")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def measure_setup() -> tuple:
    """Median wall time of a fresh interpreter importing vblab and building the CLI parser."""
    command = [sys.executable, "-c", SETUP_CODE, str(SRC)]
    subprocess.run(command, check=True)
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(command, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times), len(times)


def provenance() -> dict:
    import numpy
    import scipy
    import vblab

    return {
        "vblab": vblab.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
    }


def _item_metrics(result) -> dict:
    """Per-item end-to-end times: median over untraced passes of each metric's summed items."""
    per_pass = {}
    for record in result.items:
        for index, seconds in enumerate(record.untraced_s):
            per_pass.setdefault(record.metric, {}).setdefault(index, 0.0)
            per_pass[record.metric][index] += seconds
    return {f"{metric}_s": (statistics.median(by_pass.values()), len(by_pass)) for metric, by_pass in per_pass.items()}


def _median_traced_pass(result) -> dict:
    """Per-layer metrics of the traced pass with the median (lower) wall time.

    Taking one whole pass keeps its self times summing to within its wall
    time and its counts consistent with each other.
    """
    times = result.traced_pass_s
    index = sorted(range(len(times)), key=times.__getitem__)[(len(times) - 1) // 2]
    return {**result.layer_passes[index], "trace.wall_s": times[index]}


def _module_self_times(layers: dict) -> dict:
    totals = {}
    for key, value in layers.items():
        if key.endswith(".self_s"):
            module = key.split(".")[0]
            totals[module] = totals.get(module, 0.0) + value
    return dict(sorted(totals.items(), key=lambda kv: -kv[1]))


def main(argv=None) -> int:
    args = _parse_args(argv)
    start = time.perf_counter()
    deadline = start + args.seconds
    if not (SRC / "vblab" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"error: {ROOT} is not a vblab checkout (needs src/vblab and configs/)", file=sys.stderr)
        return 2

    setup_s, setup_n = measure_setup()
    sys.path.insert(0, str(SRC))
    import vblab.cli  # noqa: F401  (the tracer patches names in every loaded vblab module)

    OUT_DIR.mkdir(exist_ok=True)
    tracer = spans.Tracer() if args.trace else None
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        items = workloads.build(args.workload, ROOT, Path(tmp))
        if tracer is not None:
            tracer.install()
        try:
            result = gate.run_passes(
                items,
                args.seed,
                deadline,
                tracer=tracer,
                reference=gate.load_reference(),
            )
        finally:
            if tracer is not None:
                tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    wall_s = statistics.median(result.untraced_pass_s)
    # each pass over the mean of the kernel timed just before and after it
    wall_rel = statistics.median(
        seconds / (0.5 * (before + after))
        for seconds, (before, after) in zip(result.untraced_pass_s, result.reference_kernel_s)
    )
    kernel_s = statistics.median(t for pair in result.reference_kernel_s for t in pair)
    item_metrics = _item_metrics(result)
    error_rate = result.failed / result.attempted
    correct = result.failed == 0 and not result.violations
    prov = provenance()
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"

    lines = [
        f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
        f"passes {len(result.untraced_pass_s)} untraced, {len(result.traced_pass_s)} traced",
        "provenance " + "  ".join(f"{k} {v}" for k, v in prov.items()),
    ]
    for r in result.items:
        lines.append(
            f"item {r.name:16s} reps {r.replications:<5d} config {r.config_sha256[:12]}  "
            f"first output {(r.digests or ['-'])[0][:12]}  reference {r.reference}  failed {len(r.failures)}/{r.attempted}"
        )
        lines += [f"  failure: {f}" for f in r.failures]
    lines += [f"violation: {v}" for v in result.violations]
    lines += [
        f"metric setup_s        {setup_s:.4f} s   (median of {setup_n} fresh interpreters)",
        f"metric wall_s         {wall_s:.4f} s   (median of {len(result.untraced_pass_s)} untraced passes)",
        f"metric wall_rel       {wall_rel:.4f} ratio (median of pass / adjacent reference kernel; "
        f"kernel median {kernel_s:.4f} s)",
        f"metric peak_rss_mb    {peak_rss_mb:.1f} MB",
        f"metric error_rate     {error_rate:.4f} ratio ({result.failed} of {result.attempted} operations failed)",
    ]
    lines += [f"metric {name:14s} {value:.4f} s   (median of {n} passes)" for name, (value, n) in item_metrics.items()]

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": prov,
        "items": [vars(r) for r in result.items],
        "untraced_pass_s": result.untraced_pass_s,
        "traced_pass_s": result.traced_pass_s,
        "reference_kernel_s": result.reference_kernel_s,
        "violations": result.violations,
        "metrics": {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "wall_rel": wall_rel,
            "peak_rss_mb": peak_rss_mb,
            "error_rate": error_rate,
            **{name: value for name, (value, _) in item_metrics.items()},
        },
    }
    if args.trace:
        layers = _median_traced_pass(result)
        layers["trace.overhead_s"] = statistics.median(
            t - u for t, u in zip(result.traced_pass_s, result.untraced_pass_s)
        )
        modules = _module_self_times(layers)
        record["layers"] = layers
        record["module_self_s"] = modules
        mismatched = sum(f.startswith("traced pass") for r in result.items for f in r.failures)
        lines.append(
            f"trace overhead {layers['trace.overhead_s']:+.4f} s on a {wall_s:.4f} s pass; "
            f"{mismatched} traced outputs differ from their untraced pass"
        )
        lines.append("module self_s  " + "  ".join(f"{m} {v:.3f}" for m, v in modules.items()))
        tracer.write(OUT_DIR / f"spans_{stem}.jsonl")
        units = spans.layer_metric_specs()
        reported = {k: {"value": layers[k], "unit": units[k][0]} for k in units}
    else:
        e2e = {"setup_s": (setup_s, "s"), "wall_rel": (wall_rel, "ratio"), "peak_rss_mb": (peak_rss_mb, "MB")}
        reported = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    (OUT_DIR / f"run_{stem}.json").write_text(json.dumps(record, indent=2) + "\n")

    print("\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": result.attempted, "failed": result.failed, "metrics": reported}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
