"""Replicated experiments, the model registry, rate-exponent regression, and emission.

MODELS maps each model id to one ModelSpec: its CLI subcommand, its
replication runner (or the report the subcommand emits instead), and its
params defaults, which are also its params schema.  parse_params checks
an ExperimentConfig's params against that schema once per entry point.
run_experiment replicates a model over the n grid into a RateTable of
per-n means and standard errors; replication (n, rep) pairs draw from
independent streams derived from the master seed, so tables are
bit-reproducible in any execution order.  fit_rate_exponent regresses
log mean metric on log n, optionally with a log log n column.
"""

import csv
import io
import json
import math
from dataclasses import asdict, dataclass
from typing import Callable, Optional

import numpy as np

from . import changepoint, divergences, expfamily, mixture, sequence_model, truncated_series
from ._rng import generator
from .errors import InputError, NumericError, VblabError

__all__ = [
    "ExperimentConfig", "RateTable", "RateFit", "ModelSpec", "MODELS", "parse_params",
    "run_experiment", "fit_rate_exponent", "divergence_chain_report", "trunc_curve_rows",
    "emit", "read_table",
]

_CONFIG_KEYS = {"model", "n_grid", "replications", "master_seed", "params", "out"}


def _number(value, where: str) -> float:
    """value as a float if it is a finite JSON number, else InputError naming where."""
    if (type(value) is int or isinstance(value, float)) and abs(value) < 1e308:  # not bool
        return float(value)
    raise InputError(f"{where} must be a finite number, got {value!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """What to run: a model id, an n grid, replications, and a master seed.

    ``out`` is an optional default output path; the CLI --out flag takes
    precedence over it.
    """

    model: str
    n_grid: tuple
    replications: int
    master_seed: int
    params: dict
    out: Optional[str] = None

    def __post_init__(self):
        if not isinstance(self.model, str):
            raise InputError("model must be a string")
        ns = self.n_grid
        if not isinstance(ns, (list, tuple)) or any(type(n) is not int for n in ns):
            raise InputError(f"n_grid must be a list of integers, got {ns!r}")
        ns = tuple(ns)
        if len(ns) == 0 or any(n <= 0 for n in ns):
            raise InputError("n_grid must contain positive integers")
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise InputError("n_grid must be strictly increasing")
        object.__setattr__(self, "n_grid", ns)
        for key in ("replications", "master_seed"):
            if type(getattr(self, key)) is not int:
                raise InputError(f"{key} must be an integer, got {getattr(self, key)!r}")
        if self.replications < 1:
            raise InputError("replications must be at least 1")
        if not 0 <= self.master_seed < 2**64:
            raise InputError("master_seed must be a 64-bit unsigned integer")
        if not isinstance(self.params, dict):
            raise InputError("params must be a JSON object")

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise InputError("config must be a JSON object")
        unknown = set(raw) - _CONFIG_KEYS
        if unknown:
            raise InputError(f"unknown config keys: {sorted(unknown)}")
        missing = {"model", "n_grid", "replications", "master_seed"} - set(raw)
        if missing:
            raise InputError(f"missing config keys: {sorted(missing)}")
        out = raw.get("out")
        if out is not None and not isinstance(out, str):
            raise InputError("config key 'out' must be a path string")
        return cls(
            model=raw["model"],
            n_grid=raw["n_grid"],
            replications=raw["replications"],
            master_seed=raw["master_seed"],
            params=raw.get("params", {}),
            out=out,
        )


@dataclass(frozen=True)
class RateTable:
    """Per-n summaries: mean metric, standard error, replication count."""

    n: np.ndarray
    mean_risk: np.ndarray
    stderr: np.ndarray
    replications: np.ndarray

    def __post_init__(self):
        n = np.asarray(self.n, dtype=int)
        mean = np.asarray(self.mean_risk, dtype=float)
        se = np.asarray(self.stderr, dtype=float)
        reps = np.asarray(self.replications, dtype=int)
        if not (n.shape == mean.shape == se.shape == reps.shape) or n.ndim != 1:
            raise InputError("table columns must be 1-d and equally long")
        if n.size and np.any(np.diff(n) <= 0):
            raise InputError("rows must be sorted by strictly increasing n")
        if np.any(se < 0):
            raise InputError("standard errors must be non-negative")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "mean_risk", mean)
        object.__setattr__(self, "stderr", se)
        object.__setattr__(self, "replications", reps)

    def __len__(self) -> int:
        return self.n.size


@dataclass(frozen=True)
class RateFit:
    """Least-squares exponent fit of log mean metric on log n."""

    slope: float
    intercept: float
    r_squared: float
    loglog_coefficient: Optional[float] = None

    def __post_init__(self):
        if not 0.0 <= self.r_squared <= 1.0 + 1e-12:
            raise InputError("r_squared must lie in [0, 1]")


def fit_rate_exponent(table: RateTable, with_loglog: bool = False) -> RateFit:
    """Regress log(mean metric) on log n (and optionally log log n).

    The slope is the empirical rate exponent; with_loglog adds a
    log log n regressor for rates with logarithmic corrections.
    """
    if len(table) < 3:
        raise InputError("need at least 3 rows for an exponent fit")
    if np.any(table.mean_risk <= 0):
        raise InputError("exponent fits need strictly positive metrics")
    x = np.log(table.n.astype(float))
    y = np.log(table.mean_risk)
    cols = [np.ones_like(x), x]
    if with_loglog:
        cols.append(np.log(np.log(table.n.astype(float))))
    A = np.stack(cols, axis=1)
    coef, _, _, _ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    ss_res = float(resid @ resid)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else max(0.0, min(1.0, 1.0 - ss_res / ss_tot))
    return RateFit(
        slope=float(coef[1]),
        intercept=float(coef[0]),
        r_squared=r2,
        loglog_coefficient=float(coef[2]) if with_loglog else None,
    )


# ---------------------------------------------------------------------------
# the model registry: params schema, runners, MODELS
# ---------------------------------------------------------------------------

_ABSENT = object()


def _conform(value, default, where: str):
    """value checked against one schema entry; an _ABSENT value takes the default.

    A dict is a nested schema; a list types its elements like its first
    one; a float takes any finite number, an int only integers.  The type
    float or int marks a default derived from other params (None here).
    Strings and None take several forms, so their runners check them.
    """
    if isinstance(default, dict):
        value = {} if value is _ABSENT else value
        if not isinstance(value, dict):
            raise InputError(f"{where} must be a JSON object, got {value!r}")
        unknown = [f"{where}.{key}" for key in value if key not in default]
        if unknown:
            raise InputError(f"unknown keys: {unknown}")
        return {k: _conform(value.get(k, _ABSENT), d, f"{where}.{k}") for k, d in default.items()}
    if value is _ABSENT:
        if isinstance(default, type):
            return None
        value = default  # rebuilt below, so no caller shares the registry's lists
    if isinstance(default, list):
        if not isinstance(value, list):
            raise InputError(f"{where} must be a list, got {value!r}")
        return [_conform(v, default[0], f"{where}[{i}]") for i, v in enumerate(value)]
    kind = default if isinstance(default, type) else type(default)
    if kind is float:
        return _number(value, where)
    if kind is int and type(value) is not int:
        raise InputError(f"{where} must be an integer, got {value!r}")
    return value


def parse_params(params, model: str) -> dict:
    """params checked against MODELS[model].defaults, with every default filled in."""
    return _conform(params, MODELS[model].defaults, "params")


def _positive(p: dict, key: str) -> float:
    if not p[key] > 0:
        raise InputError(f"params.{key} must be positive")
    return p[key]


def _resolve_spike_index(j0, alpha: float, n: int):
    if j0 == "adversary":
        # spike just beyond twice the effective dimension (n / log n)^{1/(2a+1)}
        return math.ceil(2.0 * (n / math.log(n)) ** (1.0 / (2.0 * alpha + 1.0)))
    if j0 is None or type(j0) is int:
        return j0
    raise InputError(f"params.signal.j0 must be an integer or 'adversary', got {j0!r}")


def _fit_gsm(p: dict, n: int, rng: np.random.Generator):
    alpha = _positive(p, "alpha")  # before the K_max exponent divides by 2 alpha + 1
    B = p["B"]
    kind = p["signal"]["kind"]
    j0 = _resolve_spike_index(p["signal"]["j0"], alpha, n)

    K_max = max(8, math.ceil(_positive(p, "k_max_factor") * n ** (1.0 / (2.0 * alpha + 1.0))))
    if j0 is not None:
        K_max = max(K_max, j0 + 8)

    prior_spec = p["prior"]
    family_name = prior_spec["family"]
    if family_name == "gaussian":
        fam = sequence_model.GaussianCoordinates(prior_spec["sigma0_sq"])
    elif family_name == "rescaled_cauchy":
        fam = sequence_model.RescaledCauchyCoordinates(prior_spec["scale"], n)
    elif family_name == "rescaled_gaussian":
        fam = sequence_model.RescaledGaussianCoordinates(prior_spec["variance"], n)
    else:
        raise InputError(f"unknown coordinate family {family_name!r}")
    prior = sequence_model.SievePrior.geometric(prior_spec["tau"], K_max, fam)

    signal = sequence_model.make_signal(kind, alpha, B, K_max, j0=j0)
    obs = sequence_model.sample_observation(signal, float(n), rng)
    if p["posterior"] == "mean_field":
        post = sequence_model.fit_mean_field(prior, obs)
    elif p["posterior"] == "empirical_bayes":
        post = sequence_model.fit_empirical_bayes(prior, obs)
    else:
        raise InputError(f"unknown posterior {p['posterior']!r}")
    if int(np.argmax(post.log_weights)) >= K_max // 2:
        raise NumericError(f"model weight argmax reached K_max/2 = {K_max // 2}; truncation binds")
    return post, signal


def _run_gsm_risk(p, n, rng):
    post, signal = _fit_gsm(p, n, rng)
    return sequence_model.expected_risk(post, signal)


def _run_gsm_dimension(p, n, rng):
    post, _ = _fit_gsm(p, n, rng)
    return float(post.k)


def _run_trunc_exact_risk(p, n, rng):
    alpha = _positive(p, "alpha")
    if p["k_rule"] == "full":
        k = int(n)
    elif p["k_rule"] is None:
        # any t >= 1 gives k = n; capping it keeps n**t finite
        t = 1.0 / (2.0 * alpha + 1.0) if p["t"] is None else min(p["t"], 1.0)
        k = min(truncated_series._ceil_power(n, t), int(n))
    else:
        raise InputError(f"params.k_rule must be 'full' or absent, got {p['k_rule']!r}")
    return truncated_series.worst_case_risk(alpha, p["beta"], int(n), k, p["B"])


def _pc_common(p, n):
    sigma, B = p["sigma"], p["B"]
    grid = changepoint.make_grid(B, sigma, p["G"])
    signal_opts = p["signal"]
    kind = signal_opts["kind"]
    if kind == "zero":
        signal = changepoint.PiecewiseSignal(values=np.zeros(n), k_star=1, B=B)
    elif kind == "prefix":
        signal = changepoint.make_prefix_signal(
            n, signal_opts["k_star"], B, signal_opts["seg_len"], signal_opts["amplitude"]
        )
        signal = changepoint.snap_to_grid(signal, grid)
    elif kind == "equal_segments":
        signal = changepoint.snap_to_grid(
            changepoint.make_piecewise_signal(n, signal_opts["k_star"], B), grid
        )
    else:
        raise InputError(f"unknown piecewise signal kind {kind!r}")
    return sigma, B, grid, signal


def _run_pc_mean_field(p, n, rng):
    sigma, B, grid, signal = _pc_common(p, n)
    prior = changepoint.MarkovSitePrior(0.5, changepoint.UniformDensity(-B - 1, B + 1))
    X = signal.values + sigma * rng.standard_normal(n)
    post = changepoint.fit_mean_field(X, sigma, prior)
    return changepoint.risk(post, signal)


def _change_prob(prob, n: int) -> float:
    if prob == "reciprocal":
        return 1.0 / n
    if isinstance(prob, dict) and list(prob) == ["power"]:
        power = _number(prob["power"], "params.change_prob.power")
        if not power > 0:
            raise InputError("params.change_prob.power must be positive")
        return float(n) ** (-power)  # the n^{-c} family
    return _number(prob, "params.change_prob")


def _run_pc_markov_chain_batch(p, n, rngs):
    sigma, B, grid, signal = _pc_common(p, n)
    prior = changepoint.MarkovSitePrior(
        _change_prob(p["change_prob"], n), changepoint.UniformDensity(-B - 1, B + 1)
    )
    X = np.stack([signal.values + sigma * rng.standard_normal(n) for rng in rngs])
    return changepoint.markov_chain_risks(X, sigma, prior, grid, signal)


def _run_mixture_hellinger_batch(p, n, rngs):
    mu, w = (np.asarray(p["truth"][key], dtype=float) for key in ("mu", "w"))
    truth = mixture.MixtureModel(k=mu.size, mu=mu, w=w, sigma=p["truth"]["sigma"])
    hyper = mixture.MixtureHyper(**p["hyper"])
    if p["grid_points"] < 2:
        raise InputError("params.grid_points must be at least 2")
    samples, seeds = [], []
    for rng in rngs:  # each replication's stream: its sample, then its fit seed
        samples.append(mixture.sample_mixture(truth, n, seed=rng))
        seeds.append(int(rng.integers(2**63)))
    fits = mixture.select_k_batch(np.stack(samples), p["k_candidates"], hyper, seeds)
    span = float(np.max(np.abs(truth.mu)) + 6.0 * max(truth.sigma, 1.0))
    grid = np.linspace(-span, span, p["grid_points"])
    f0 = mixture.mixture_pdf(truth, grid)
    return [mixture.hellinger_to_truth(state, f0, grid) for _, state in fits]


def _run_expfamily_hellinger(p, n, rng):
    theta_star = np.asarray(p["theta_star"], dtype=float)
    k = theta_star.size if p["k"] is None else p["k"]
    K_max = max(k, 6) if p["K_max"] is None else max(k, p["K_max"])
    prior = sequence_model.SievePrior.geometric(
        1.0, K_max, sequence_model.GaussianCoordinates(p["sigma0_sq"])
    )
    cfg = expfamily.OptConfig(**p["opt"], seed=int(rng.integers(2**63)))
    data = expfamily.sample(theta_star, n, seed=rng)
    q = expfamily.fit_gaussian_mf(data, prior, k, opt_config=cfg)
    return expfamily.hellinger_numeric(q.mu, theta_star) ** 2


@dataclass(frozen=True)
class ModelSpec:
    """Everything decided per model id.

    ``runner`` maps (parsed params, n, rng) to one replication's metric,
    or with ``batched`` (params, n, rngs) to the metrics of all of one n's
    replications, each drawn from its own rng only, so the table does not
    depend on the batching; pc_markov_chain and mixture_hellinger stack
    their fits this way.  None means no table.  ``report`` names the
    function of this module that ``command`` emits instead of a table.
    ``defaults`` is the params schema.
    """

    command: str
    runner: Optional[Callable]
    batched: bool
    defaults: dict
    report: Optional[str] = None


_DIV_DEFAULTS = {"slack": 1e-10, "rho_grid": [0.5, 2.0, 4.0, 8.0]}
_GSM_DEFAULTS = {
    "alpha": 1.0, "B": 1.0, "k_max_factor": 4.0, "posterior": "mean_field",
    "prior": {"family": "gaussian", "tau": 1.0, "sigma0_sq": 1.0, "scale": 1.0, "variance": 1.0},
    "signal": {"kind": "sobolev_boundary", "j0": None},
}
_TRUNC_DEFAULTS = {  # t defaults to 1 / (2 alpha + 1)
    "alpha": 1.0, "beta": 1.0, "B": 1.0, "t": float, "k_rule": None,
    "t_grid": [round(0.1 * i, 1) for i in range(1, 11)],
}
_PC_MF_DEFAULTS = {  # the mean-field route has no change probability
    "sigma": 1.0, "B": 1.0, "G": 64,
    "signal": {"kind": "zero", "k_star": 4, "seg_len": 20, "amplitude": 0.9},
}
_PC_CHAIN_DEFAULTS = {**_PC_MF_DEFAULTS, "change_prob": "reciprocal"}
_MIX_DEFAULTS = {
    "truth": {"mu": [-3.0, 3.0], "w": [0.5, 0.5], "sigma": 0.5},
    "hyper": asdict(mixture.MixtureHyper()),
    "k_candidates": [1, 2, 3, 4], "grid_points": 2001,
}
_EXPFAM_DEFAULTS = {
    # k defaults to len(theta_star), K_max to max(k, 6)
    "theta_star": [0.7, -0.4, 0.2], "k": int, "K_max": int, "sigma0_sq": 1.0,
    "opt": {"step_size": 0.25, "n_iters": 250, "n_mc": 64},
}

MODELS = {
    "divergence_chain": ModelSpec(
        "divcheck", None, False, _DIV_DEFAULTS, "divergence_chain_report"
    ),
    "gsm_risk": ModelSpec("gsm-rate", _run_gsm_risk, False, _GSM_DEFAULTS),
    "gsm_dimension": ModelSpec("gsm-dim", _run_gsm_dimension, False, _GSM_DEFAULTS),
    "gsm_spike_risk": ModelSpec("gsm-lower", _run_gsm_risk, False, _GSM_DEFAULTS),
    "trunc_exact_risk": ModelSpec(
        "trunc-curve", _run_trunc_exact_risk, False, _TRUNC_DEFAULTS, "trunc_curve_rows"
    ),
    "pc_mean_field": ModelSpec("pc-compare", _run_pc_mean_field, False, _PC_MF_DEFAULTS),
    "pc_markov_chain": ModelSpec(
        "pc-compare", _run_pc_markov_chain_batch, True, _PC_CHAIN_DEFAULTS
    ),
    "mixture_hellinger": ModelSpec(
        "mix-fit", _run_mixture_hellinger_batch, True, _MIX_DEFAULTS
    ),
    "expfamily_hellinger": ModelSpec(
        "expfam-fit", _run_expfamily_hellinger, False, _EXPFAM_DEFAULTS
    ),
}


def run_experiment(config: ExperimentConfig) -> RateTable:
    """Replicate the configured model over the n grid.

    The stream for replication r at sample size n is derived from
    (master_seed, n, r), so any subset of the table can be reproduced in
    isolation; failures are re-raised with the (n, rep) coordinates.
    """
    spec = MODELS.get(config.model)
    if spec is None or spec.runner is None:
        raise InputError(f"unknown model id {config.model!r}")
    params = parse_params(config.params, config.model)
    means, ses = [], []
    for n in config.n_grid:
        rngs = [generator(config.master_seed, n, rep) for rep in range(config.replications)]
        try:
            if spec.batched:
                vals = np.asarray(spec.runner(params, n, rngs), dtype=float)
            else:
                vals = np.array(
                    [_run_one(spec.runner, params, n, rep, rng) for rep, rng in enumerate(rngs)]
                )
        except VblabError as exc:
            raise type(exc)(f"n={n}: {exc}") from exc
        means.append(float(vals.mean()))
        ses.append(float(vals.std(ddof=1) / math.sqrt(vals.size)) if vals.size > 1 else 0.0)
    reps = np.full(len(config.n_grid), config.replications)
    return RateTable(np.asarray(config.n_grid), np.asarray(means), np.asarray(ses), reps)


def _run_one(runner, params, n, rep, rng):
    try:
        return float(runner(params, n, rng))
    except VblabError as exc:
        raise type(exc)(f"rep={rep}: {exc}") from exc


# ---------------------------------------------------------------------------
# special-purpose reports
# ---------------------------------------------------------------------------


# The audit draws and checks this many pairs at a time, or fewer when they
# hold more than _AUDIT_CELLS cells a side, so its memory grows with
# neither replications nor distribution size.
_AUDIT_PAIRS = 1024
_AUDIT_CELLS = 1 << 16


def _pair_blocks(master_seed: int, pairs: int, lo: int, hi: int):
    """Successive blocks of audit pairs as {size: (p rows, q rows)}.

    Pair i draws its size, then p, then q from the stream (master_seed, 0, i).
    """
    block, held, cells = {}, 0, 0
    for i in range(pairs):
        rng = generator(master_seed, 0, i)
        size = int(rng.integers(lo, hi + 1))
        alpha = np.ones(size)
        ps, qs = block.setdefault(size, ([], []))
        ps.append(rng.dirichlet(alpha))
        qs.append(rng.dirichlet(alpha))
        held, cells = held + 1, cells + size
        if held == _AUDIT_PAIRS or cells >= _AUDIT_CELLS:
            yield block
            block, held, cells = {}, 0, 0
    if block:
        yield block


def divergence_chain_report(config: ExperimentConfig) -> dict:
    """Random-pair audit of the divergence chain and Renyi monotonicity.

    Uses config.replications Dirichlet(1) pairs with sizes drawn from
    [n_grid[0], n_grid[-1]]; returns violation counts and the worst
    observed slack exceedance.  Pair i draws (size, p, q) from its own
    stream; pairs are audited in blocks, one divergences.chain_audit call
    per size in each block.
    """
    lo, hi = int(config.n_grid[0]), int(config.n_grid[-1])
    if lo < 2:
        raise InputError("distribution sizes start at 2")
    params = parse_params(config.params, "divergence_chain")
    slack = params["slack"]
    if slack < 0:
        raise InputError(f"slack must be non-negative, got {slack}")
    rho_grid = divergences.check_rho_grid(params["rho_grid"])
    ordering_failures = monotonicity_failures = 0
    worst = 0.0
    for block in _pair_blocks(config.master_seed, config.replications, lo, hi):
        for ps, qs in block.values():
            bad_order, bad_mono, gap = divergences.chain_audit(ps, qs, rho_grid, slack)
            ordering_failures += bad_order
            monotonicity_failures += bad_mono
            worst = max(worst, gap)
        del block  # free these draws before the next block is drawn
    return {
        "pairs": config.replications,
        "ordering_failures": ordering_failures,
        "monotonicity_failures": monotonicity_failures,
        "max_ordering_gap": worst,
        "slack": slack,
    }


def trunc_curve_rows(config: ExperimentConfig) -> list:
    """Rate-exponent curve rows (t, fitted, theory) for the truncated family."""
    params = parse_params(config.params, "trunc_exact_risk")
    rows = truncated_series.rate_exponent_curve(
        params["alpha"], params["beta"], params["t_grid"], list(config.n_grid), B=params["B"]
    )
    return [{"t": t, "fitted_exponent": f, "theory_exponent": th} for t, f, th in rows]


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------


def _table_rows(table: RateTable) -> list:
    return [
        {
            "n": int(n),
            "mean_risk": float(m),
            "stderr": float(s),
            "replications": int(r),
        }
        for n, m, s, r in zip(table.n, table.mean_risk, table.stderr, table.replications)
    ]


def _fit_row(fit: RateFit) -> dict:
    row = {"slope": fit.slope, "intercept": fit.intercept, "r_squared": fit.r_squared}
    if fit.loglog_coefficient is not None:
        row["loglog_coefficient"] = fit.loglog_coefficient
    return row


def _csv_text(rows: list, header: list) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(row[h]) if isinstance(row[h], float) else row[h] for h in header])
    return buf.getvalue()


def to_text(obj, fmt: str) -> str:
    """Serialize a table, fit, curve row list, or report dict."""
    if fmt not in ("csv", "json"):
        raise InputError(f"format must be 'csv' or 'json', got {fmt!r}")
    if isinstance(obj, RateTable):
        rows, header = _table_rows(obj), ["n", "mean_risk", "stderr", "replications"]
    elif isinstance(obj, RateFit):
        row = _fit_row(obj)
        rows, header = [row], list(row.keys())
    elif isinstance(obj, list):
        rows = obj
        header = list(rows[0].keys()) if rows else []
    elif isinstance(obj, dict):
        rows, header = [obj], list(obj.keys())
    else:
        raise InputError(f"cannot emit object of type {type(obj).__name__}")
    if fmt == "csv":
        return _csv_text(rows, header)
    payload = rows[0] if isinstance(obj, (RateFit, dict)) else rows
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def emit(obj, fmt: str, path: str) -> None:
    """Write a serialized object to path; I/O errors carry the path."""
    text = to_text(obj, fmt)
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def read_table(path: str, fmt: str = "csv") -> RateTable:
    """Parse a RateTable previously written by emit (round-trip exact)."""
    try:
        with open(path, "r", newline="") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    if fmt == "json":
        rows = json.loads(text)
    elif fmt == "csv":
        reader = csv.DictReader(io.StringIO(text))
        if reader.fieldnames != ["n", "mean_risk", "stderr", "replications"]:
            raise InputError(f"unexpected CSV header {reader.fieldnames}")
        rows = list(reader)
    else:
        raise InputError(f"format must be 'csv' or 'json', got {fmt!r}")
    return RateTable(
        n=np.array([int(r["n"]) for r in rows]),
        mean_risk=np.array([float(r["mean_risk"]) for r in rows]),
        stderr=np.array([float(r["stderr"]) for r in rows]),
        replications=np.array([int(r["replications"]) for r in rows]),
    )
