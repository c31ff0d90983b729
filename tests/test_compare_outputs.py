"""tools/compare_outputs.py on synthetic output directories and trees."""

import importlib.util
import math
import os
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"
HEADER = "problem,n,h1_error,l2_error\n"


def _tool():
    spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write(directory, files):
    directory.mkdir()
    for name, text in files.items():
        (directory / name).write_text(text)
    return str(directory)


def test_cell_difference():
    diff = _tool().cell_difference
    assert diff("1.5", "1.5") == 0.0
    assert diff("0.1", "0.10000000000000000001") == 0.0
    assert diff("2.0", "2.5") == 0.2
    assert diff("nan", "nan") == 0.0
    assert diff("weak", "strong") == math.inf
    assert diff("1.0", "nan") == math.inf
    assert diff("inf", "1e308") == math.inf
    assert diff("0.0", "-0.0") == 0.0


def test_identical_directories(tmp_path):
    files = {"a.csv": HEADER + "sq,4,0.5,0.25\n", "a.svg": "<svg/>"}
    out = _tool().compare_dirs(_write(tmp_path / "p", files),
                               _write(tmp_path / "c", files))
    assert out == [("a.csv", "identical", True), ("a.svg", "identical", True)]


def test_largest_cell_difference_with_row_and_column(tmp_path):
    parent = _write(tmp_path / "p", {
        "a.csv": HEADER + "sq,4,0.5,0.25\nsq,8,0.125,0.0625\n",
        "a.svg": "<svg/>"})
    change = _write(tmp_path / "c", {
        "a.csv": HEADER + "sq,4,0.5000001,0.25\nsq,8,0.125,0.0626\n",
        "a.svg": "<svg />"})
    (name, message, ok), svg = _tool().compare_dirs(parent, change)
    assert name == "a.csv" and ok
    assert "at row 2, column l2_error (0.0625 -> 0.0626)" in message
    assert message.startswith("max relative difference 0.0016")
    assert svg == ("a.svg", "differs", True)


def test_missing_file_and_row_count_fail(tmp_path):
    parent = _write(tmp_path / "p", {"a.csv": HEADER + "sq,4,0.5,0.25\n",
                                     "b.svg": "<svg/>"})
    change = _write(tmp_path / "c", {"a.csv": HEADER,
                                     "c.svg": "<svg/>"})
    out = _tool().compare_dirs(parent, change)
    assert out == [("a.csv", "row count 1 -> 0", False),
                   ("b.svg", "missing in change", False),
                   ("c.svg", "missing in parent", False)]


def test_header_change_fails(tmp_path):
    parent = _write(tmp_path / "p", {"a.csv": HEADER})
    change = _write(tmp_path / "c", {"a.csv": "problem,n,h1_error\n"})
    (_, message, ok), = _tool().compare_dirs(parent, change)
    assert not ok and message.startswith("header")


def _fake_tree(root, code, value):
    """A tree whose elastweak writes one CSV cell (none when value is None)
    and exits with code."""
    pkg = root / "src" / "elastweak"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    write = ("" if value is None else
             "with open(os.path.join(out, 'x.csv'), 'w') as fh:\n"
             f"    fh.write('n,err\\n4,{value}\\n')\n")
    (pkg / "__main__.py").write_text(
        "import os, sys\n"
        "out = sys.argv[sys.argv.index('--out') + 1]\n"
        f"{write}sys.exit({code})\n")
    bench = root / "perfbench"
    bench.mkdir()
    (bench / "workloads.py").write_text(
        "WORKLOADS = {'w': [['run', '--k', '1']]}\n")
    return str(root)


def _compare(parent, change, cwd=None):
    return subprocess.run([sys.executable, str(TOOL), parent, change],
                          capture_output=True, text=True, timeout=60,
                          cwd=cwd)


def test_trees_with_equal_exit_codes_pass(tmp_path):
    proc = _compare(_fake_tree(tmp_path / "p", 0, "0.5"),
                    _fake_tree(tmp_path / "c", 0, "0.5000000000000001"))
    assert proc.returncode == 0, proc.stdout
    assert proc.stdout.splitlines() == [
        "run --k 1",
        "  x.csv: max relative difference 2.22e-16 at row 1, column err "
        "(0.5 -> 0.5000000000000001)"]


def test_trees_with_different_exit_codes_fail(tmp_path):
    proc = _compare(_fake_tree(tmp_path / "p", 0, "0.5"),
                    _fake_tree(tmp_path / "c", 2, "0.5"))
    assert proc.returncode == 1
    assert "  exit code 0 -> 2" in proc.stdout.splitlines()
    assert "  x.csv: identical" in proc.stdout.splitlines()


def test_relative_tree_paths_are_resolved(tmp_path):
    _fake_tree(tmp_path / "p", 0, "0.5")
    _fake_tree(tmp_path / "c", 0, "0.25")
    proc = _compare("p", "c", cwd=tmp_path)
    assert proc.returncode == 0, proc.stdout
    assert proc.stdout.splitlines()[1].startswith(
        "  x.csv: max relative difference 0.5 at row 1, column err")


def test_command_writing_no_file_fails(tmp_path):
    proc = _compare(_fake_tree(tmp_path / "p", 0, None),
                    _fake_tree(tmp_path / "c", 0, None))
    assert proc.returncode == 1
    assert proc.stdout.splitlines() == ["run --k 1",
                                        "  no output file in either tree"]
