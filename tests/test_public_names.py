"""Every public name resolves: each module's __all__, and each function the benchmark traces.

perfbench/spans.py wraps the functions in its LAYERS by module and name, so
deleting or renaming one would otherwise surface only in a traced benchmark
run.  perfbench/ is only read here.
"""

import importlib
import importlib.util
import pathlib
import pkgutil

import pytest

import vblab

SPANS_PATH = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
MODULES = sorted(m.name for m in pkgutil.iter_modules(vblab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"vblab.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"vblab.{name}.__all__ names what it does not define: {missing}"


def test_traced_layers_are_vblab_callables():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module, functions in spans.LAYERS.items():
        namespace = importlib.import_module(f"vblab.{module}")
        for fn in functions:
            assert callable(getattr(namespace, fn, None)), f"perfbench traces vblab.{module}.{fn}"
