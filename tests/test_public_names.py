"""Every public name resolves, and every vblab function is reached or named.

perfbench/spans.py wraps the functions in its LAYERS by module and name, so
deleting or renaming one would otherwise surface only in a traced benchmark
run.  The reach tests run every shipped config through cli.main and every
perfbench workload item under a profile hook, and fail on a function under
src/vblab that neither reaches and no entry of REACHED_OTHERWISE names, or
on an entry that names a function that is reached or gone.  perfbench/ is
only read here.
"""

import ast
import importlib
import importlib.util
import json
import pathlib
import pkgutil
import sys

import pytest

import vblab
from vblab import cli, harness

REPO = pathlib.Path(__file__).resolve().parents[1]
SRC = pathlib.Path(vblab.__file__).resolve().parent
MODULES = sorted(m.name for m in pkgutil.iter_modules(vblab.__path__))
SEED = 20250810

_README = "documented library API (README)"
_SCALAR = "the scalar divergence API (README), the one-row case of the row kernels"
_LAYER = "part of a traced layer's result or argument"
# function -> why no shipped config or workload item reaches it; the names in
# perfbench/spans.py's LAYERS are allowed as well, read from there
REACHED_OTHERWISE = {
    "_rng.generator": "the one-stream reference that tests compare generators against",
    "changepoint.CoordinatewisePosterior.__len__": "risk's size check of a fit_mean_field posterior",
    "changepoint.GridChain.pairwise": _README,
    "changepoint.GridChain.sample": _README,
    "changepoint._numeric": "names the n of a numeric failure, which only failing input reaches",
    "changepoint.make_piecewise_signal": "params.signal.kind 'equal_segments', which no shipped config sets",
    "divergences.DiscreteDistribution.__init__": _SCALAR,
    "divergences.DiscreteDistribution.__len__": _SCALAR,
    "divergences.DivergenceReport.chain": _SCALAR,
    "divergences._pair": _SCALAR,
    "divergences.chi2_discrete": _SCALAR,
    "divergences.hellinger_discrete": _SCALAR,
    "divergences.kl_discrete": _SCALAR,
    "divergences.renyi_discrete": _SCALAR,
    "divergences.tv_discrete": _SCALAR,
    "expfamily.GaussMFVariational.k": _LAYER,
    "expfamily.basis_matrix": _README,
    "expfamily.d2_numeric": _README,
    "expfamily.elbo": _README,
    "expfamily.elbo_and_gradient": _README,
    "expfamily.kl_numeric": _README,
    "expfamily.log_normalizer": _README,
    "expfamily.pdf": _README,
    "harness._json_cell": "read_table's type check of a JSON cell",
    "harness._per_n": "runs at import, where it builds the sieve and pc_mean_field runners",
    "harness.read_table": _README,
    "mixture.kernel_psi": _README,
    "sequence_model.RescaledGaussianCoordinates": "params.prior.family 'rescaled_gaussian', which no shipped config sets",
    "sequence_model.SequenceObservation.__post_init__": _LAYER,
    "sequence_model.ShellPosterior.__post_init__": _LAYER,
    "sequence_model._fit_shell": "the one-row sieve fits' shared body",
    "sequence_model._tilts": "the one-row sieve fits' tilts",
    "sequence_model.fit_empirical_bayes": _README,
    "sequence_model.posterior_kl_gap": _README,
    "sequence_model.vb_objective": "the reference that tests compare posterior_kl_gap against",
    "truncated_series.exact_risk": "the closed-form reference that tests compare worst_case_risk against",
}


def _perfbench(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", REPO / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"vblab.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"vblab.{name}.__all__ names what it does not define: {missing}"


def test_traced_layers_are_vblab_callables():
    for module, functions in _perfbench("spans").LAYERS.items():
        namespace = importlib.import_module(f"vblab.{module}")
        for fn in functions:
            assert callable(getattr(namespace, fn, None)), f"perfbench traces vblab.{module}.{fn}"


def _defined() -> dict:
    """(file name, first line) -> "module.Qual.name" of every def under src/vblab, nested ones included.

    A decorated function's code starts at its first decorator; code objects
    carry no qualified name before Python 3.11, so the key is the place.
    """
    out = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = min([d.lineno for d in child.decorator_list] + [child.lineno])
                out[(path.name, line)] = f"{path.stem}.{prefix}{child.name}"
                walk(child, path, f"{prefix}{child.name}.")
            else:
                walk(child, path, f"{prefix}{child.name}." if isinstance(child, ast.ClassDef) else prefix)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text()), path, "")
    return out


@pytest.fixture(scope="module")
def reach(tmp_path_factory):
    """(defined functions, the (file name, first line) of each one the shipped configs and workload items call).

    Every config runs as CSV and JSON, and a table config of at least 3 n
    with --fit too.  Those forms differ only after run_experiment, so they
    share its table.
    """
    tmp = tmp_path_factory.mktemp("reach")
    workloads = _perfbench("workloads")
    tables, run_experiment = {}, harness.run_experiment

    def run_once(config):
        key = repr(config)
        if key not in tables:
            tables[key] = run_experiment(config)
        return tables[key]

    for name in MODULES:  # a call that hits a cache runs no frame, so each vblab cache starts empty
        for value in vars(importlib.import_module(f"vblab.{name}")).values():
            if hasattr(value, "cache_clear") and value.__module__ == f"vblab.{name}":
                value.cache_clear()
    codes = set()

    def hook(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    previous = sys.getprofile()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "run_experiment", run_once)
        sys.setprofile(hook)
        try:
            for path in sorted((REPO / "configs").glob("*.json")):
                config = json.loads(path.read_text())
                spec = harness.MODELS[config["model"]]
                argv = [spec.command, "--config", str(path), "--seed", str(SEED), "--out", str(tmp / "out")]
                forms = [["--format", "json"], ["--format", "csv"]]
                if spec.report is None and len(config["n_grid"]) >= 3:
                    forms.append(["--format", "json", "--fit"])
                for form in forms:
                    assert cli.main(argv + form) == 0, (path.name, form)
            for workload in workloads.WORKLOADS:
                for item in workloads.build(workload, REPO, tmp):
                    assert not item.check(item.run(SEED), SEED), item.name
        finally:
            sys.setprofile(previous)
    reached = set()
    for code in codes:
        path = pathlib.Path(code.co_filename).resolve()
        if path.parent == SRC:
            reached.add((path.name, code.co_firstlineno))
    return _defined(), reached


def test_every_function_is_reached_or_allowlisted(reach):
    defined, reached = reach
    layers = {f"{module}.{fn}" for module, functions in _perfbench("spans").LAYERS.items() for fn in functions}
    stray = sorted(
        name for key, name in defined.items() if key not in reached and name not in layers | set(REACHED_OTHERWISE)
    )
    assert not stray, (
        f"no shipped config or perfbench item reaches {stray}: delete them with the tests that only "
        "exercise them, or name each in REACHED_OTHERWISE with its reason"
    )


def test_allowlist_names_only_unreached_functions(reach):
    defined, reached = reach
    where = {name: key for key, name in defined.items()}
    gone = sorted(name for name in REACHED_OTHERWISE if name not in where)
    assert not gone, f"REACHED_OTHERWISE names functions that no longer exist: {gone}"
    now_reached = sorted(name for name in REACHED_OTHERWISE if where[name] in reached)
    assert not now_reached, f"REACHED_OTHERWISE names functions the shipped runs reach: {now_reached}"
