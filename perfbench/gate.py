"""Closed-loop pass runner and correctness gate.

One client runs a workload's items back to back, pass after pass, until
the run's deadline.  Every pass draws its own inputs from the run seed,
and every output is checked against the item's invariants; at the
reference seed the first pass is also compared with the values recorded
in reference.json.  A traced pass repeats the inputs of the untraced
pass before it and must emit byte-identical output, which shows that the
wrappers return the real results unchanged.  An item that raises, exits
nonzero or fails a check counts as one failed operation; it never stops
the run.
"""

import hashlib
import json
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import logsumexp

from workloads import sha256

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def compare(value, expected, rtol: float, where: str = "") -> list:
    """Differences between an emitted JSON value and its reference, leaf by leaf."""
    if isinstance(expected, dict):
        if not isinstance(value, dict) or set(value) != set(expected):
            return [f"{where or 'output'}: keys differ from the reference"]
        return [d for k in sorted(expected) for d in compare(value[k], expected[k], rtol, f"{where}.{k}")]
    if isinstance(expected, list):
        if not isinstance(value, list) or len(value) != len(expected):
            return [f"{where or 'output'}: length differs from the reference"]
        return [d for i, (v, e) in enumerate(zip(value, expected)) for d in compare(v, e, rtol, f"{where}[{i}]")]
    if isinstance(expected, float) and isinstance(value, (int, float)) and not isinstance(value, bool):
        if value == expected or abs(value - expected) <= rtol * max(abs(value), abs(expected)):
            return []
        return [f"{where}: {value!r} differs from reference {expected!r} beyond rtol {rtol:g}"]
    return [] if value == expected else [f"{where}: {value!r} != reference {expected!r}"]


def reference_kernel() -> float:
    """Seconds taken by a fixed numpy/scipy/Python job that shares no code with vblab.

    Timed right before and right after every untraced pass, it tracks
    how fast the shared machine ran during that pass.  Its three parts mirror the workloads:
    scipy logsumexp dispatch on a small (n, k) array (fits), scalar
    log-sum-exp on a 32-vector in a Python loop (sweeps) and elementwise
    exp over a 2 MB array (the dense chains items), written in place so
    the kernel adds little to peak_rss_mb.
    """
    rng = np.random.default_rng(0)
    rows, vec, big = rng.standard_normal((400, 4)), rng.standard_normal(32), rng.standard_normal(1 << 18)
    out = np.empty_like(big)
    start = time.perf_counter()
    for _ in range(500):
        logsumexp(rows, axis=1)
    for _ in range(12000):
        top = vec.max()
        float(top + np.log(np.sum(np.exp(vec - top))))
    for _ in range(96):
        float(np.exp(big, out=out).sum())
    return time.perf_counter() - start


def pass_seed(seed: int, index: int) -> int:
    """The seed of the index-th input set of a run: the run seed first, then hashed offspring.

    Offspring are hashed rather than counted up, so runs on nearby seeds
    share no inputs.
    """
    if index == 0:
        return seed
    return int.from_bytes(hashlib.sha256(f"{seed}:{index}".encode()).digest()[:8], "little")


@dataclass
class ItemRecord:
    """What one item did over the run: per-pass times and digests, failures."""

    name: str
    metric: str
    config_sha256: str
    replications: int
    rtol: float
    seeds: list = field(default_factory=list)
    digests: list = field(default_factory=list)
    reference: str = "not checked"
    untraced_s: list = field(default_factory=list)
    traced_s: list = field(default_factory=list)
    attempted: int = 0
    failures: list = field(default_factory=list)


@dataclass
class RunResult:
    items: list
    untraced_pass_s: list
    traced_pass_s: list
    reference_kernel_s: list  # [before, after] each untraced pass
    layer_passes: list  # per traced pass: per-layer metric dict
    violations: list  # run-level failures outside any single operation

    @property
    def attempted(self) -> int:
        return sum(r.attempted for r in self.items)

    @property
    def failed(self) -> int:
        return sum(len(r.failures) for r in self.items)


def _execute(item, seed, record, tracer, label):
    """Run one item once; returns (emitted text or None, seconds)."""
    record.attempted += 1
    if tracer is not None:
        tracer.item = f"{label}:{item.name}"
    start = time.perf_counter()
    try:
        text = item.run(seed)
    except Exception:  # an operation that raises is a failed operation, not a crashed run
        record.failures.append(f"{label}: raised\n{traceback.format_exc()}")
        return None, time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.item = None
    return text, time.perf_counter() - start


def _verify(item, text, seed, record, reference):
    """Invariant violations, plus reference differences at the reference seed."""
    problems = item.check(text, seed)
    if reference is None or seed != reference["seed"]:
        return problems
    expected = reference["items"].get(item.name)
    if expected is None:
        return problems + ["no recorded reference"]
    diffs = compare(json.loads(text), expected["values"], expected["rtol"])
    if diffs:
        record.reference = "mismatch"
    elif sha256(text.encode()) == expected["digest"]:
        record.reference = "identical"
    else:
        record.reference = f"within rtol {expected['rtol']:g}, digest changed"
    return problems + diffs


def _run_pass(items, records, seed, label, tracer=None):
    outputs = []
    start = time.perf_counter()
    for item in items:
        text, seconds = _execute(item, seed, records[item.name], tracer, label)
        (records[item.name].untraced_s if tracer is None else records[item.name].traced_s).append(seconds)
        outputs.append((item, text))
    return outputs, time.perf_counter() - start


def run_passes(items, seed, deadline, tracer=None, reference=None) -> RunResult:
    """Run passes until the next one would end after ``deadline``; at least one.

    Each untraced pass draws a fresh input set (pass_seed), is checked in
    full, and has the reference kernel timed right before and after it.
    With a tracer, every untraced pass is followed by a traced pass on the
    same inputs, which must emit byte-identical output.
    """
    records = {
        item.name: ItemRecord(item.name, item.metric, item.config_sha256, item.replications, item.rtol)
        for item in items
    }
    untraced, traced_passes, kernel, layer_passes = [], [], [], []
    index = 0
    while True:
        pass_seed_ = pass_seed(seed, index)
        before = reference_kernel()
        outputs, seconds = _run_pass(items, records, pass_seed_, f"pass {index}")
        kernel.append([before, reference_kernel()])
        untraced.append(seconds)
        digests = {}
        for item, text in outputs:
            record = records[item.name]
            if text is None:
                continue
            digests[item.name] = sha256(text.encode())
            record.seeds.append(pass_seed_)
            record.digests.append(digests[item.name])
            problems = _verify(item, text, pass_seed_, record, reference)
            if problems:
                record.failures.append(f"pass {index}: " + "; ".join(problems))
        if tracer is not None:
            tracer.begin_pass()
            outputs, seconds = _run_pass(items, records, pass_seed_, f"traced pass {index}", tracer)
            traced_passes.append(seconds)
            layer_passes.append(tracer.pass_metrics())
            for item, text in outputs:
                if text is not None and item.name in digests and sha256(text.encode()) != digests[item.name]:
                    records[item.name].failures.append(f"traced pass {index}: output differs from the untraced pass")
        index += 1
        longest = max(map(sum, kernel)) + max(untraced) + (max(traced_passes) if traced_passes else 0.0)
        if time.perf_counter() + longest > deadline:
            break
    violations = []
    for i, metrics in enumerate(layer_passes):
        self_total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
        if not self_total <= traced_passes[i]:
            violations.append(f"traced pass {i}: self times sum to {self_total} s > pass wall {traced_passes[i]} s")
    return RunResult(list(records.values()), untraced, traced_passes, kernel, layer_passes, violations)
