"""The benchmark's tracer wraps public elastweak functions by name; a
refactor that renames or privatises one of them breaks traced runs."""

import importlib
import inspect
import types
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    # executed from source so that nothing is written under perfbench/
    module = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), vars(module))
    return module


def test_metric_functions_resolve_to_public_functions():
    tracer = _tracer()
    names = sorted(tracer.metric_functions())
    assert names
    for name in names:
        modname, *path = name.split(".")
        module = importlib.import_module(f"{tracer.PACKAGE}.{modname}")
        owner, obj = module, module
        for part in path:
            assert part == "__init__" or not part.startswith("_"), name
            owner, obj = obj, getattr(obj, part, None)
            assert obj is not None, f"{name} does not exist"
        assert inspect.isfunction(getattr(obj, "__wrapped__", obj)), \
            f"{name} is not a function"
        # defined in the named module, as the tracer requires
        home = owner if inspect.isclass(owner) else obj
        assert home.__module__ == module.__name__, name
