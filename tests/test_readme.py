"""The README's code blocks run as written, and the names it cites exist."""

import functools
import importlib
import json
import re
from pathlib import Path

import elastweak

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def _python_block(heading):
    """The first ```python block after a level-2 heading."""
    text = README.read_text()
    section = text[text.index(f"## {heading}\n"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_block_runs(capsys):
    namespace = {}
    exec(compile(_python_block("Library use"), str(README), "exec"),
         namespace)
    printed = capsys.readouterr().out.splitlines()
    assert float(printed[0]) <= 1e-8
    assert printed[1].startswith("ErrorReport(l2_error=")
    assert namespace["data"].exact_u is not None


def test_named_attributes_exist():
    # every backticked `module.name` (or `elastweak.module.name`) of an
    # elastweak module names an attribute; the benchmark's per-layer
    # metrics (`solvers.lu_solves`, `compressible.load_s`, ...) share the
    # form and are skipped
    metrics = {metric["name"] for metric in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    modules = {path.stem for path in
               Path(elastweak.__file__).parent.glob("[!_]*.py")}
    checked, missing = 0, []
    for name in sorted(set(re.findall(r"`(\w+(?:\.\w+)+)`",
                                      README.read_text()))):
        parts = name.removeprefix("elastweak.").split(".")
        if parts[0] not in modules or name in metrics:
            continue
        checked += 1
        try:
            functools.reduce(getattr, parts[1:], importlib.import_module(
                f"elastweak.{parts[0]}"))
        except AttributeError:
            missing.append(name)
    assert checked >= 10
    assert missing == []
