"""The benchmark's workloads: items, their inputs, and their invariants.

An item is one operation of the closed loop: a shipped config run through
``vblab.cli.main`` in-process, or a direct library call on data drawn from
the benchmark seed.  Every item returns the exact text it emitted; its
invariants are checked on that text outside the timed region.
"""

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# fits runs the two iterative configs with fewer replications than shipped
# (20 and 5) so that an untraced and a traced pass both fit into a 45 s run;
# n_grid, k_candidates and opt stay as shipped, because they set the cost of
# each fit.  Four mixture replications keep mixture the dominant layer even
# on seeds whose CAVI fits all converge early.
FITS_REPLICATIONS = {"mix_fit": 4, "expfam_fit": 3}

# items of the sweeps workload that take under 0.2 s each at shipped size
CLOSED_FORM = ("gsm_rate", "gsm_dim", "gsm_lower", "trunc_curve", "pc_mean_field")

_SUBCOMMAND = {
    "mixture_hellinger": "mix-fit",
    "expfamily_hellinger": "expfam-fit",
    "pc_markov_chain": "pc-compare",
    "pc_mean_field": "pc-compare",
    "divergence_chain": "divcheck",
    "gsm_risk": "gsm-rate",
    "gsm_dimension": "gsm-dim",
    "gsm_spike_risk": "gsm-lower",
    "trunc_exact_risk": "trunc-curve",
}

# pinned relative tolerances against the recorded reference: closed-form and
# exact-recursion outputs are reproducible to roundoff; iterative fits stop
# on a tolerance, so a last-bit change may move their result a little more
RTOL_EXACT = 1e-10
RTOL_ITERATIVE = 1e-8

# grid_posterior and the streaming evaluator compute the same risk
CHAIN_AGREEMENT_RTOL = 1e-10


@dataclass(frozen=True)
class Item:
    """One operation of a workload.

    ``run(seed)`` returns the emitted text; ``check(text, seed)`` returns
    the invariant violations found in it.  ``metric`` names the end-to-end
    per-item metric whose time the item counts toward.
    """

    name: str
    metric: str
    rtol: float
    config_sha256: str
    replications: int
    run: Callable[[int], str]
    check: Callable[[str, int], list]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


def _table_violations(rows, hellinger: bool) -> list:
    out = []
    for row in rows:
        mean = row["mean_risk"]
        if not (math.isfinite(mean) and mean > 0):
            out.append(f"n={row['n']}: mean {mean!r} is not finite and positive")
        elif hellinger and not 0.0 <= mean <= 1.0:
            out.append(f"n={row['n']}: Hellinger value {mean!r} outside [0, 1]")
    return out


def _check_table(hellinger: bool):
    return lambda text, seed: _table_violations(json.loads(text), hellinger)


def _check_divcheck(text, seed):
    report = json.loads(text)
    return [
        f"{key} = {report[key]}"
        for key in ("ordering_failures", "monotonicity_failures")
        if report[key] != 0
    ]


def _check_trunc_curve(text, seed):
    return [
        f"t={row['t']}: non-finite exponent"
        for row in json.loads(text)
        if not (math.isfinite(row["fitted_exponent"]) and math.isfinite(row["theory_exponent"]))
    ]


def _positive_risk(risk) -> list:
    return [] if math.isfinite(risk) and risk > 0 else [f"risk {risk!r} is not finite and positive"]


# ---------------------------------------------------------------------------
# items
# ---------------------------------------------------------------------------


def _cli_item(root: Path, tmp: Path, name: str, metric: str, replications=None) -> Item:
    source = root / "configs" / f"{name}.json"
    config = json.loads(source.read_text())
    path = source
    if replications is not None:
        config["replications"] = replications
        path = tmp / f"{name}.config.json"
        path.write_text(json.dumps(config, indent=2) + "\n")
    model = config["model"]
    out = tmp / f"{name}.out.json"
    argv = [_SUBCOMMAND[model], "--config", str(path), "--out", str(out), "--format", "json"]

    def run(seed: int) -> str:
        from vblab import cli  # looked up per call, so a traced run sees the wrapper

        rc = cli.main(argv + ["--seed", str(seed)])
        if rc != 0:
            raise RuntimeError(f"vblab {argv[0]} exited with code {rc}")
        return out.read_text()

    if model == "divergence_chain":
        check = _check_divcheck
    elif model == "trunc_exact_risk":
        check = _check_trunc_curve
    else:
        check = _check_table(hellinger=model in ("mixture_hellinger", "expfamily_hellinger"))
    iterative = model in ("mixture_hellinger", "expfamily_hellinger")
    return Item(
        name=name,
        metric=metric,
        rtol=RTOL_ITERATIVE if iterative else RTOL_EXACT,
        config_sha256=sha256(path.read_bytes()),
        replications=int(config["replications"]),
        run=run,
        check=check,
    )


class _ChainData:
    """The pc_markov_chain prefix signal on its grid, and data drawn from a seed."""

    def __init__(self, root: Path, n: int, stream: int):
        from vblab import changepoint

        source = root / "configs" / "pc_markov_chain.json"
        params = json.loads(source.read_text())["params"]
        spec = params["signal"]
        self.n, self.stream = n, stream
        self.sigma, self.B = float(params["sigma"]), float(params["B"])
        self.grid = changepoint.make_grid(self.B, self.sigma, int(params["G"]))
        self.signal = changepoint.snap_to_grid(
            changepoint.make_prefix_signal(
                n, int(spec["k_star"]), self.B, seg_len=int(spec["seg_len"]), amplitude=float(spec["amplitude"])
            ),
            self.grid,
        )
        self.density = changepoint.UniformDensity(-self.B - 1, self.B + 1)
        self.config_sha256 = sha256(
            json.dumps({"source_sha256": sha256(source.read_bytes()), "n": n, "G": self.grid.size}).encode()
        )

    def draw(self, seed: int) -> np.ndarray:
        rng = np.random.default_rng([seed, self.stream])
        return self.signal.values + self.sigma * rng.standard_normal(self.n)


def _grid_posterior_item(root: Path) -> Item:
    """Dense log-space forward-backward (O(n G^2) time and memory) plus risk, p = 1/n."""
    from vblab import changepoint

    data = _ChainData(root, n=4096, stream=1)
    prior = changepoint.MarkovSitePrior(1.0 / data.n, data.density)

    def run(seed: int) -> str:
        X = data.draw(seed)
        chain = changepoint.grid_posterior(X, data.sigma, prior, data.grid)
        return json.dumps({"risk": changepoint.risk(chain, data.signal)})

    def check(text: str, seed: int) -> list:
        risk = json.loads(text)["risk"]
        streaming = float(
            changepoint.markov_chain_risks(data.draw(seed)[None, :], data.sigma, prior, data.grid, data.signal)[0]
        )
        out = _positive_risk(risk)
        if abs(risk - streaming) > CHAIN_AGREEMENT_RTOL * abs(streaming):
            out.append(f"grid_posterior risk {risk!r} != markov_chain_risks {streaming!r}")
        return out

    return Item("grid_posterior", "grid_posterior", RTOL_EXACT, data.config_sha256, 1, run, check)


def _markov_vb_item(root: Path) -> Item:
    """Tangent-surrogate coordinate ascent under the uniform-positions power prior."""
    from vblab import changepoint

    data = _ChainData(root, n=1024, stream=2)
    prior = changepoint.UniformPositionsPrior.power(data.n, data.density)

    def run(seed: int) -> str:
        chain = changepoint.fit_markov_vb(data.draw(seed), data.sigma, prior, data.grid)
        return json.dumps(
            {
                "risk": changepoint.risk(chain, data.signal),
                "converged": chain.converged,
                "objective_trace": list(chain.objective_trace),
            }
        )

    def check(text: str, seed: int) -> list:
        result = json.loads(text)
        out = _positive_risk(result["risk"])
        if not result["converged"]:
            out.append("fit_markov_vb did not converge")
        trace = result["objective_trace"]
        out += [f"objective rose at sweep {i + 1}" for i, (a, b) in enumerate(zip(trace, trace[1:])) if b > a]
        return out

    return Item("markov_vb", "markov_vb", RTOL_ITERATIVE, data.config_sha256, 1, run, check)


WORKLOADS = ("fits", "chains", "sweeps")


def build(workload: str, root: Path, tmp: Path) -> list:
    """The items of one workload, in the order a pass runs them."""
    if workload == "fits":
        return [_cli_item(root, tmp, name, name, reps) for name, reps in FITS_REPLICATIONS.items()]
    if workload == "chains":
        return [
            _cli_item(root, tmp, "pc_markov_chain", "pc_markov_chain"),
            _grid_posterior_item(root),
            _markov_vb_item(root),
        ]
    if workload == "sweeps":
        items = [
            _cli_item(root, tmp, "divcheck", "divcheck"),
            _cli_item(root, tmp, "gsm_rate_cauchy", "gsm_rate_cauchy"),
        ]
        return items + [_cli_item(root, tmp, name, "closed_form") for name in CLOSED_FORM]
    raise ValueError(f"unknown workload {workload!r}")
