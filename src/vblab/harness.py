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
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Callable, Optional

import numpy as np

from . import changepoint, divergences, expfamily, mixture, sequence_model, truncated_series
from ._rng import derive_seed, generators
from .errors import InputError, NumericError, VblabError

__all__ = [
    "ExperimentConfig", "RateTable", "RateFit", "ModelSpec", "MODELS", "parse_params",
    "run_experiment", "fit_rate_exponent", "divergence_chain_report", "trunc_curve_rows",
    "emit", "read_table",
]

_CONFIG_KEYS = {"model", "n_grid", "replications", "master_seed", "params", "out"}
# far above any run that fits in memory; beyond it the uint64 replication index misbehaves
_REPLICATIONS_LIMIT = 1 << 32


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
        if not 1 <= self.replications <= _REPLICATIONS_LIMIT:
            raise InputError(f"replications must lie in 1..{_REPLICATIONS_LIMIT}, got {self.replications}")
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
    if with_loglog and np.any(table.n < 2):
        raise InputError("a log log n regressor needs every n >= 2")
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
    A tuple declares a domain next to its default: a tuple of strings
    lists the choices, default first; a (default, bound) pair bounds a
    number from below, strictly if the bound is a float.  Other strings
    and None take several forms, so their runners check them.
    """
    if isinstance(default, tuple):
        value = _conform(value, default[0], where)
        if isinstance(default[0], str):
            ok, rule = value in default, f"one of {list(default)}"
        elif isinstance(default[1], float):
            ok, rule = value > default[1], f"greater than {default[1]}"
        else:
            ok, rule = value >= default[1], f"at least {default[1]}"
        if not ok:
            raise InputError(f"{where} must be {rule}, got {value!r}")
        return value
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


@contextmanager
def _at(n: int):
    """Re-raise a VblabError with the sample size n it arose at."""
    try:
        yield
    except VblabError as exc:
        raise type(exc)(f"n={n}: {exc}") from exc


def _per_n(run: Callable) -> Callable:
    """A runner over the n grid from run(params, n, rngs), which takes one n's replications."""

    def runner(p: dict, ns, rngs) -> list:
        out = []
        for n, n_rngs in zip(ns, rngs):
            with _at(n):
                out.append(run(p, n, n_rngs))
        return out

    return runner


def _resolve_spike_index(j0, alpha: float, n: int):
    if j0 == "adversary":
        if n < 2:
            raise InputError("params.signal.j0 'adversary' needs n >= 2, since it scales with n / log n")
        # spike just beyond twice the effective dimension (n / log n)^{1/(2a+1)}
        return math.ceil(2.0 * (n / math.log(n)) ** (1.0 / (2.0 * alpha + 1.0)))
    if j0 is None or type(j0) is int:
        return j0
    raise InputError(f"params.signal.j0 must be an integer or 'adversary', got {j0!r}")


# K_max = ceil(max(k_max_factor * n^(1 / (2 alpha + 1)), 8, j0 + 8)) stays below 64 * 512
# in the shipped configs and the config fuzz; the limit, far above that, turns a runaway
# factor or spike index into an input error before anything is allocated, and ends the
# doubling refits of a sieve whose truncation keeps binding with a numeric error.
_K_MAX_LIMIT = 1 << 20
# each gsm coordinate family: the one params.prior key it reads, and its coordinates at n
_GSM_FAMILIES = {
    "gaussian": ("sigma0_sq", lambda v, n: sequence_model.GaussianCoordinates(v)),
    "rescaled_cauchy": ("scale", lambda v, n: sequence_model.RescaledCauchyCoordinates(v, n)),
    "rescaled_gaussian": ("variance", lambda v, n: sequence_model.RescaledGaussianCoordinates(v, n)),
}


def _run_gsm(p: dict, n: int, rngs, dimension: bool = False) -> np.ndarray:
    """Each replication's shell k, or its risk from tilt moments below its k only.

    Replication r draws from rngs[r].  A block holds at most _BLOCK_CELLS
    coordinates (or one row), whatever the replication count.  Rows whose
    argmax reaches K_max/2 refit right after their block at 2 K_max on the
    zero-padded signal, drawing only the added noise and evidence ratios.
    """
    alpha, B = p["alpha"], p["B"]
    kind = p["signal"]["kind"]
    j0 = _resolve_spike_index(p["signal"]["j0"], alpha, n)
    if j0 is not None and kind != "spike":
        raise InputError(f"params.signal.j0 applies only to kind 'spike', not {kind!r}")

    K_max = p["k_max_factor"] * n ** (1.0 / (2.0 * alpha + 1.0))
    K_max = max(K_max, 8, 8 if j0 is None else j0 + 8)
    if not K_max <= _K_MAX_LIMIT:  # also catches inf, before math.ceil or any allocation
        raise InputError(
            f"params.k_max_factor and params.signal.j0 give K_max = {K_max!r} > {_K_MAX_LIMIT}"
        )
    K_max = math.ceil(K_max)

    spec = p["prior"]
    key, coordinates = _GSM_FAMILIES[spec["family"]]
    stray = [k for k, _ in _GSM_FAMILIES.values() if k != key and spec[k] is not None]
    if stray:
        raise InputError(f"params.prior.{stray[0]} does not apply to family {spec['family']!r}")
    fam = coordinates(1.0 if spec[key] is None else spec[key], n)
    out = np.empty(len(rngs))

    def fit(reps, theta, Y, ratios):
        """Fill out[reps] at K_max = theta.size, given the rows' first Y.shape[1] coordinates."""
        K, have = theta.size, Y.shape[1]
        prior = sequence_model.SievePrior.geometric(spec["tau"], K, fam)
        rows = max(1, sequence_model._BLOCK_CELLS // K)
        for at in range(0, reps.size, rows):
            block = reps[at : at + rows]
            Yb, rb = (np.pad(a[at : at + rows], ((0, 0), (0, K - have))) for a in (Y, ratios))
            for row, r in enumerate(block):  # the added coordinates' noise, next in each stream
                Yb[row, have:] = theta[have:] + rngs[r].standard_normal(K - have) / math.sqrt(n)
            rb[:, have:] = fam.log_evidence_ratio(Yb[:, have:].ravel(), float(n)).reshape(-1, K - have)
            lw = sequence_model._log_weights(prior, rb, block)
            bound = np.argmax(lw, axis=1) >= K // 2
            if bound.any() and 2 * K > _K_MAX_LIMIT:
                raise NumericError(
                    f"rep={block[bound][0]}: model weight argmax reached K_max/2 = {K // 2}, "
                    f"and 2 K_max passes the limit {_K_MAX_LIMIT}; truncation binds"
                )
            k, mix = sequence_model._select_shells(lw[~bound], p["posterior"] == "mean_field")
            active = np.arange(0 if dimension else k.max(initial=0)) < k[:, None]
            moments = np.zeros((2,) + active.shape)
            if active.any():
                moments[:, active] = fam.tilt_moments(Yb[~bound, : active.shape[1]][active], float(n))
            out[block[~bound]] = k if dimension else sequence_model._shell_risks(k, mix, *moments, theta)
            if bound.any():  # the block's arrays go before the binding rows' refit
                refit = block[bound], np.pad(theta, (0, K)), Yb[bound], rb[bound]
                del Yb, rb, lw, active, moments
                fit(*refit)

    theta = sequence_model.make_signal(kind, alpha, B, K_max, j0=j0).theta
    fit(np.arange(len(rngs)), theta, *(np.empty((len(rngs), 0)),) * 2)  # nothing drawn yet
    return out


def _pc_common(p, n):
    sigma, B = p["sigma"], p["B"]
    grid = changepoint.make_grid(B, sigma, p["G"])
    signal_opts = p["signal"]
    kind, k_star, amplitude = signal_opts["kind"], signal_opts["k_star"], signal_opts["amplitude"]
    if kind == "zero":
        return sigma, B, grid, changepoint.PiecewiseSignal(values=np.zeros(n), k_star=1, B=B)
    if kind == "prefix":
        signal = changepoint.make_prefix_signal(n, k_star, B, signal_opts["seg_len"], amplitude)
    else:  # equal_segments, at the levels +/- amplitude as for prefix
        if not 0 < amplitude <= B:
            raise InputError(f"params.signal.amplitude must lie in (0, B] for equal_segments, got {amplitude!r}")
        signal = changepoint.make_piecewise_signal(n, k_star, B, amplitude / B)
    return sigma, B, grid, changepoint.snap_to_grid(signal, grid)


def _pc_draw(signal, sigma: float, rngs, edges) -> list:
    """The (R, n) data signal + sigma Z, row r drawn from rngs[r], in place, cut at the site edges.

    Chunk i holds sites edges[i] to edges[i+1] - 1; a row's normals come
    from its stream in site order, as they would in one draw of n.
    """
    chunks = [np.empty((len(rngs), b - a)) for a, b in zip(edges, edges[1:])]
    for row, rng in enumerate(rngs):
        for chunk in chunks:
            rng.standard_normal(out=chunk[row])
    for a, chunk in zip(edges, chunks):
        chunk *= sigma
        chunk += signal.values[a : a + chunk.shape[1]]
    return chunks


def _run_pc_mean_field_batch(p, n, rngs):
    sigma, B, _, signal = _pc_common(p, n)
    prior = changepoint.MarkovSitePrior(0.5, changepoint.UniformDensity(-B - 1, B + 1))
    return changepoint.mean_field_risks(_pc_draw(signal, sigma, rngs, (0, n))[0], sigma, prior, signal)


def _change_prob(prob, n: int) -> float:
    if prob == "reciprocal":
        return 1.0 / n
    if isinstance(prob, dict) and list(prob) == ["power"]:
        power = _number(prob["power"], "params.change_prob.power")
        if not power > 0:
            raise InputError("params.change_prob.power must be positive")
        return float(n) ** (-power)  # the n^{-c} family
    return _number(prob, "params.change_prob")


def _run_pc_markov_chain_batch(p, ns, rngs):
    """Every replication of every n, smoothed in one backward pass over the n grid.

    Each n's data are drawn when its replications join the pass.
    """
    draws, priors, signals = [], [], []
    for n, n_rngs in zip(ns, rngs):
        with _at(n):
            sigma, B, grid, signal = _pc_common(p, n)
            density = changepoint.UniformDensity(-B - 1, B + 1)
            priors.append(changepoint.MarkovSitePrior(_change_prob(p["change_prob"], n), density))
        draws.append(lambda edges, signal=signal, n_rngs=n_rngs: _pc_draw(signal, sigma, n_rngs, edges))
        signals.append(signal)
    return changepoint._grid_chain_risks(draws, sigma, priors, grid, signals, [f"n={n}" for n in ns])


def _run_mixture_hellinger_batch(p, ns, rngs):
    """Every replication of every n, fitted as one CAVI stack of rows of differing n."""
    mu, w = (np.asarray(p["truth"][key], dtype=float) for key in ("mu", "w"))
    truth = mixture.MixtureModel(k=mu.size, mu=mu, w=w, sigma=p["truth"]["sigma"])
    hyper = mixture.MixtureHyper(**p["hyper"])
    span = float(np.max(np.abs(truth.mu)) + 6.0 * max(truth.sigma, 1.0))
    grid = np.linspace(-span, span, p["grid_points"])
    # a grid too coarse for the truth fails here, before any fit
    f0, grid = mixture._check_grid_density(mixture.mixture_pdf(truth, grid), grid)
    samples, seeds = [], []
    for n, n_rngs in zip(ns, rngs):
        for rng in n_rngs:  # each replication's stream: its sample, then its fit seed
            samples.append(mixture.sample_mixture(truth, n, seed=rng))
            seeds.append(int(rng.integers(2**63)))
    fits = iter(mixture.select_k_batch(samples, p["k_candidates"], hyper, seeds))
    return [[mixture.hellinger_to_truth(next(fits)[1], f0, grid) for _ in n_rngs] for n_rngs in rngs]


def _run_expfamily_hellinger_batch(p, ns, rngs):
    """Every replication of every n, fitted as one stack of rows of differing n."""
    truth = expfamily.FourierDensity(np.asarray(p["theta_star"], dtype=float))
    k = truth.theta.size if p["k"] is None else p["k"]
    samples, seeds, labels = [], [], []
    for n, n_rngs in zip(ns, rngs):
        for rep, rng in enumerate(n_rngs):  # each replication's stream: its fit seed, then its sample
            seeds.append(int(rng.integers(2**63)))
            samples.append(expfamily.sample(truth, n, seed=rng))
            labels.append(f"n={n}: rep={rep}")
    cfg = expfamily.OptConfig(**p["opt"])
    fits = iter(expfamily.fit_gaussian_mf_batch(samples, p["sigma0_sq"], k, cfg, seeds, labels))
    out = []
    for n, n_rngs in zip(ns, rngs):
        with _at(n):
            out.append([expfamily.hellinger_numeric(next(fits).mu, truth) ** 2 for _ in n_rngs])
    return out


@dataclass(frozen=True)
class ModelSpec:
    """Everything decided per model id.

    ``runner`` maps (parsed params, the n grid, one list of rngs per n)
    to one array of metrics per n, with an error naming the n it arose at.
    The replications are fitted as stacks in blocks, each drawn from its
    own rng only, so the table does not depend on batching: the sieve and
    change-point mean-field runners take one n at a time through _per_n,
    while pc_markov_chain smooths every n's replications in one backward
    pass, expfamily stacks the rows of every n in one ascent and the
    mixture every (n, rep, k) row in one CAVI stack.  A smoothed column
    joins the pass at its own last site and is reduced alone, so it has
    the bits of its n run alone; errors of the chain's shared checks
    (sigma, the grid) name no n.  A stacked expfamily row
    ascends with its own n on the ELBO rule of its k, or, once its draws
    cross the ||theta||_1 cap, from its first step again on the 512-node
    rule, as a fit alone would.  A stacked mixture row counts its own
    sweeps and takes its per-point work in its n's block, so it too is the
    fit it would be alone; errors of the mixture config name no n.
    None means no table.
    ``report`` names the function of this module that ``command`` emits
    instead of a table.  ``defaults`` is the params schema, with the
    domains _conform checks declared next to their defaults.
    """

    command: str
    runner: Optional[Callable]
    defaults: dict
    report: Optional[str] = None


_DIV_DEFAULTS = {"slack": (1e-10, 0), "rho_grid": [0.5, 2.0, 4.0, 8.0]}
_GSM_DEFAULTS = {
    "alpha": (1.0, 0.0), "B": 1.0, "k_max_factor": (4.0, 0.0),
    "posterior": ("mean_field", "empirical_bayes"),
    # each family reads its one key of the three, 1.0 when absent, and rejects the other two
    "prior": {"family": tuple(_GSM_FAMILIES), "tau": 1.0,
              **{key: float for key, _ in _GSM_FAMILIES.values()}},
    "signal": {"kind": ("sobolev_boundary", "spike", "zero"), "j0": None},
}
_TRUNC_DEFAULTS = {
    "alpha": 1.0, "beta": 1.0, "B": 1.0, "t_grid": [round(0.1 * i, 1) for i in range(1, 11)],
}
_PC_MF_DEFAULTS = {  # the mean-field route has no change probability
    "sigma": 1.0, "B": 1.0, "G": 64,
    "signal": {"kind": ("zero", "prefix", "equal_segments"),
               "k_star": 4, "seg_len": 20, "amplitude": 0.9},
}
_PC_CHAIN_DEFAULTS = {**_PC_MF_DEFAULTS, "change_prob": "reciprocal"}
_MIX_DEFAULTS = {
    "truth": {"mu": [-3.0, 3.0], "w": [0.5, 0.5], "sigma": 0.5},
    "hyper": asdict(mixture.MixtureHyper()),
    "k_candidates": [1, 2, 3, 4], "grid_points": (2001, 2),
}
_EXPFAM_DEFAULTS = {  # k defaults to len(theta_star)
    "theta_star": [0.7, -0.4, 0.2], "k": int, "sigma0_sq": 1.0,
    "opt": {key: v for key, v in asdict(expfamily.OptConfig()).items() if key != "seed"},
}

MODELS = {
    "divergence_chain": ModelSpec("divcheck", None, _DIV_DEFAULTS, "divergence_chain_report"),
    "gsm_risk": ModelSpec("gsm-rate", _per_n(_run_gsm), _GSM_DEFAULTS),
    "gsm_dimension": ModelSpec(
        "gsm-dim", _per_n(lambda *args: _run_gsm(*args, dimension=True)), _GSM_DEFAULTS
    ),
    "gsm_spike_risk": ModelSpec("gsm-lower", _per_n(_run_gsm), _GSM_DEFAULTS),
    "trunc_exact_risk": ModelSpec("trunc-curve", None, _TRUNC_DEFAULTS, "trunc_curve_rows"),
    "pc_mean_field": ModelSpec("pc-compare", _per_n(_run_pc_mean_field_batch), _PC_MF_DEFAULTS),
    "pc_markov_chain": ModelSpec("pc-compare", _run_pc_markov_chain_batch, _PC_CHAIN_DEFAULTS),
    "mixture_hellinger": ModelSpec("mix-fit", _run_mixture_hellinger_batch, _MIX_DEFAULTS),
    "expfamily_hellinger": ModelSpec("expfam-fit", _run_expfamily_hellinger_batch, _EXPFAM_DEFAULTS),
}


def run_experiment(config: ExperimentConfig) -> RateTable:
    """Replicate the configured model over the n grid.

    The stream for replication r at sample size n is derived from
    (master_seed, n, r), so any subset of the table can be reproduced in
    isolation.  The runner takes the whole grid in one call, and its
    failures name n, and the rep where one replication failed.
    """
    spec = MODELS.get(config.model)
    if spec is None or spec.runner is None:
        raise InputError(f"unknown model id {config.model!r}")
    params = parse_params(config.params, config.model)
    index = np.arange(config.replications, dtype=np.uint64)
    rngs = [list(generators(derive_seed(config.master_seed, n, index))) for n in config.n_grid]
    means, ses = [], []
    for vals in spec.runner(params, config.n_grid, rngs):
        vals = np.asarray(vals, dtype=float)
        means.append(float(vals.mean()))
        ses.append(float(vals.std(ddof=1) / math.sqrt(vals.size)) if vals.size > 1 else 0.0)
    reps = np.full(len(config.n_grid), config.replications)
    return RateTable(np.asarray(config.n_grid), np.asarray(means), np.asarray(ses), reps)


# ---------------------------------------------------------------------------
# special-purpose reports
# ---------------------------------------------------------------------------


# The audit draws and checks this many pairs at a time, or fewer when they
# hold more than _AUDIT_CELLS cells a side, so its memory grows with
# neither replications nor distribution size.
_AUDIT_PAIRS = 1024
_AUDIT_CELLS = 1 << 16


def _pair_blocks(master_seed: int, pairs: int, lo: int, hi: int):
    """Successive blocks of audit pairs as (2, pairs, hi) arrays of p and q rows.

    Pair i draws its size, then p, then q from the stream (master_seed, 0, i);
    each row is zero-padded from its size to hi cells.  A block's streams
    are seeded in one generators call and drawn from one at a time.  A
    Dirichlet(1) draw is standard exponentials times one over their
    sequential sum, which trailing zeros leave unchanged, so p and q carry
    the bits rng.dirichlet(np.ones(size)) gives.
    """
    per_block = max(1, min(_AUDIT_PAIRS, _AUDIT_CELLS // hi))
    for start in range(0, pairs, per_block):
        index = np.arange(start, min(start + per_block, pairs), dtype=np.uint64)
        draws = np.zeros((2, index.size, hi))
        for row, rng in enumerate(generators(derive_seed(master_seed, 0, index))):
            size = int(rng.integers(lo, hi + 1))
            draws[:, row, :size] = rng.standard_exponential((2, size))
        draws *= 1 / np.add.accumulate(draws, axis=-1)[..., -1:]
        yield draws


def divergence_chain_report(config: ExperimentConfig) -> dict:
    """Random-pair audit of the divergence chain and Renyi monotonicity.

    Uses config.replications Dirichlet(1) pairs with sizes drawn from
    [n_grid[0], n_grid[-1]]; returns violation counts and the worst
    observed slack exceedance.  Pair i draws (size, p, q) from its own
    stream; pairs are audited in zero-padded blocks, one
    divergences.chain_audit call per block, since cells where p and q
    both vanish add nothing to any divergence.
    """
    lo, hi = int(config.n_grid[0]), int(config.n_grid[-1])
    if lo < 2:
        raise InputError("distribution sizes start at 2")
    params = parse_params(config.params, "divergence_chain")
    slack = params["slack"]
    rho_grid = divergences.check_rho_grid(params["rho_grid"])
    ordering_failures = monotonicity_failures = 0
    worst = 0.0
    for ps, qs in _pair_blocks(config.master_seed, config.replications, lo, hi):
        bad_order, bad_mono, gap = divergences.chain_audit(ps, qs, rho_grid, slack)
        ordering_failures += bad_order
        monotonicity_failures += bad_mono
        worst = max(worst, gap)
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
    """Parse a RateTable previously written by emit (round-trip exact).

    A file that does not parse as such a table raises InputError naming path.
    """
    try:
        with open(path, "r", newline="") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    if fmt not in ("csv", "json"):
        raise InputError(f"format must be 'csv' or 'json', got {fmt!r}")
    casts = {"n": int, "mean_risk": float, "stderr": float, "replications": int}
    if fmt == "csv":
        reader = csv.DictReader(io.StringIO(text))
        if reader.fieldnames != list(casts):
            raise InputError(f"unexpected CSV header {reader.fieldnames}")
    try:  # a JSON object, truncated JSON, a missing column, a bad, missing or oversized cell
        rows = json.loads(text) if fmt == "json" else list(reader)
        columns = {key: np.array([cast(r[key]) for r in rows], dtype=cast) for key, cast in casts.items()}
    except (TypeError, ValueError, KeyError, OverflowError) as exc:
        raise InputError(f"{path} is not a {fmt} rate table: {type(exc).__name__}: {exc}") from exc
    return RateTable(**columns)
