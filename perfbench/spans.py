"""Per-layer tracing from outside the program.

Each public function listed in LAYERS is replaced, wherever a vblab module
looks it up by name, by a wrapper that records one span (name, start, end,
parent span, item id) and bumps the layer's work counters.  Spans are kept
in memory and written out once, when the run ends.  Nothing under src/
changes: uninstall() puts every original function back.
"""

import inspect
import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# module -> wrapped public functions
LAYERS = {
    "cli": ("main",),
    "harness": ("run_experiment", "divergence_chain_report", "trunc_curve_rows", "emit"),
    "mixture": ("select_k", "cavi_fixed_k", "sample_mixture", "hellinger_to_truth"),
    "expfamily": ("fit_gaussian_mf", "sample", "hellinger_numeric"),
    "sequence_model": (
        "sample_observation",
        "log_model_weights",
        "fit_mean_field",
        "expected_risk",
    ),
    "truncated_series": ("worst_case_risk", "rate_exponent_curve"),
    "changepoint": ("markov_chain_risks", "grid_posterior", "fit_markov_vb", "risk", "fit_mean_field"),
    "divergences": ("chain_report", "renyi_monotonicity_check"),
}

# counters recorded at layer boundaries: name -> (unit, better)
COUNTERS = {
    "harness.replications": ("count", "higher"),
    "mixture.cavi_sweeps": ("count", "lower"),
    "mixture.cavi_unconverged": ("count", "lower"),
    "mixture.useful_fit_ratio": ("ratio", "higher"),
    "expfamily.elbo_evals": ("count", "lower"),
    "sequence_model.tilts": ("count", "lower"),
    "changepoint.site_updates": ("count", "lower"),
    "changepoint.markov_vb_sweeps": ("count", "lower"),
    # computed from the shapes as 8 (n-1) G^2, not measured from the allocator
    "changepoint.pair_tensor_bytes": ("bytes_computed", "lower"),
    "divergences.pairs": ("count", "higher"),
}

# traced pass wall time and its excess over the untraced pass of the same run
TRACE_METRICS = {"trace.wall_s": ("s", "lower"), "trace.overhead_s": ("s", "lower")}


def layer_metric_specs() -> dict:
    """Every per-layer metric the traced run reports: name -> (unit, better)."""
    specs = {}
    for module, functions in LAYERS.items():
        for fn in functions:
            specs[f"{module}.{fn}.calls"] = ("count", "lower")
            specs[f"{module}.{fn}.busy_s"] = ("s", "lower")
            specs[f"{module}.{fn}.self_s"] = ("s", "lower")
    specs.update(COUNTERS)
    specs.update(TRACE_METRICS)
    return specs


def _pair_tensor_bytes(n: int, G: int) -> int:
    return 8 * (n - 1) * G * G


def _count_run_experiment(counts, a, result):
    config = a["config"]
    counts["harness.replications"] += config.replications * len(config.n_grid)


def _count_cavi(counts, a, result):
    counts["mixture.cavi_sweeps"] += len(result.elbo_trace)
    counts["mixture.cavi_unconverged"] += not result.converged


def _count_expfam_fit(counts, a, result):
    counts["expfamily.elbo_evals"] += a["opt_config"].n_iters


def _count_tilts(counts, a, result):
    counts["sequence_model.tilts"] += len(result.tilts)


def _count_site_updates(counts, a, result):
    counts["changepoint.site_updates"] += np.atleast_2d(a["X_batch"]).size


def _count_grid_posterior(counts, a, result):
    counts["changepoint.pair_tensor_bytes"] += _pair_tensor_bytes(len(a["X"]), a["grid"].size)


def _count_markov_vb(counts, a, result):
    # the per-site prior delegates to grid_posterior (counted there) and
    # returns an empty objective trace, so only tangent sweeps count here
    sweeps = len(result.objective_trace)
    counts["changepoint.markov_vb_sweeps"] += sweeps
    counts["changepoint.pair_tensor_bytes"] += sweeps * _pair_tensor_bytes(len(a["X"]), a["grid"].size)


def _count_pairs(counts, a, result):
    counts["divergences.pairs"] += 1


_COUNT_HOOKS = {
    "harness.run_experiment": _count_run_experiment,
    "mixture.cavi_fixed_k": _count_cavi,
    "expfamily.fit_gaussian_mf": _count_expfam_fit,
    "sequence_model.fit_mean_field": _count_tilts,
    "changepoint.markov_chain_risks": _count_site_updates,
    "changepoint.grid_posterior": _count_grid_posterior,
    "changepoint.fit_markov_vb": _count_markov_vb,
    "divergences.chain_report": _count_pairs,
}


class Tracer:
    """Span recorder for the wrapped vblab layers.

    Spans are recorded only while ``item`` names the running item, so the
    benchmark's own correctness checks, which call the same functions,
    stay out of the per-layer numbers.
    """

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, item id]
        self.counts = Counter()
        self.item = None
        self._first_span = 0
        self._stack = []
        self._patches = []

    def install(self) -> None:
        """Patch every wrapped function under each name vblab looks it up by."""
        modules = [m for name, m in list(sys.modules.items()) if name == "vblab" or name.startswith("vblab.")]
        for module, functions in LAYERS.items():
            owner = sys.modules[f"vblab.{module}"]
            for fn in functions:
                original = getattr(owner, fn)
                wrapper = self._wrap(f"{module}.{fn}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._patches.append((m, attr, original))
                            setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._patches):
            setattr(m, attr, original)
        self._patches.clear()

    def _wrap(self, name, original):
        hook = _COUNT_HOOKS.get(name)
        signature = inspect.signature(original)
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if self.item is None:
                return original(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = [name, start, end, parent, self.item]
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(self.counts, bound.arguments, result)
            return result

        return wrapper

    def begin_pass(self) -> None:
        """Start a traced pass: the next pass_metrics() covers only what follows."""
        self._first_span = len(self.spans)
        self.counts.clear()

    def pass_metrics(self) -> dict:
        """calls, busy_s, self_s per wrapped function and the counters, for this pass."""
        first = self._first_span
        spans = self.spans[first:]
        child_time = defaultdict(float)
        for name, start, end, parent, _ in spans:
            if parent is not None:
                child_time[parent] += end - start
        out = {}
        for module, functions in LAYERS.items():
            for fn in functions:
                out[f"{module}.{fn}.calls"] = 0
                out[f"{module}.{fn}.busy_s"] = 0.0
                out[f"{module}.{fn}.self_s"] = 0.0
        for offset, (name, start, end, parent, _) in enumerate(spans):
            busy = end - start
            out[f"{name}.calls"] += 1
            out[f"{name}.busy_s"] += busy
            out[f"{name}.self_s"] += busy - child_time[first + offset]
        for name in COUNTERS:
            out[name] = self.counts.get(name, 0)
        fits = out["mixture.cavi_fixed_k.calls"]
        out["mixture.useful_fit_ratio"] = out["mixture.select_k.calls"] / fits if fits else 0.0
        return out

    def write(self, path) -> None:
        """Write the recorded spans as JSON lines."""
        with open(path, "w") as fh:
            for index, (name, start, end, parent, item) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": index, "name": name, "start": start, "end": end, "parent": parent, "item": item}
                    )
                    + "\n"
                )
