"""Compare the output files of the benchmark's command lines in two trees.

    python3 tools/compare_outputs.py PARENT_TREE CHANGE_TREE \\
        [--command "run --problem incompressible --k 2" ...]

Every command line of ``perfbench/workloads.py`` (read from CHANGE_TREE),
plus each ``--command``, runs as ``python3 -m elastweak ... --out DIR`` with
each tree's ``src`` on PYTHONPATH, one at a time.  For each output file the
tool prints ``identical`` when the bytes agree; otherwise, for a CSV, the
largest relative cell difference with its row and column, and for other
files ``differs``.  Exit status 1 when a file is missing on one side, a
CSV's row count or header differs, a command line exits differently or
writes no file in either tree; 0 otherwise.  Relative tree paths are
resolved before the commands run.  There is deliberately no tolerance:
judge the printed differences.
"""

import argparse
import csv
import math
import os
import runpy
import shlex
import subprocess
import sys
import tempfile


def cell_difference(a, b):
    """Relative difference of two CSV cells: 0 when equal, inf when they
    differ and either is not a finite number."""
    if a == b:
        return 0.0
    try:
        x, y = float(a), float(b)
    except ValueError:
        return math.inf
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    d = abs(x - y) / max(abs(x), abs(y))
    return d if math.isfinite(d) else math.inf


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def compare_csv(parent_path, change_path):
    """(message, ok) for two CSV files of the same name."""
    old, new = _read_csv(parent_path), _read_csv(change_path)
    if len(old) != len(new):
        return f"row count {len(old) - 1} -> {len(new) - 1}", False
    if old and old[0] != new[0]:
        return f"header {old[0]} -> {new[0]}", False
    worst, where = 0.0, None
    for i, (row_a, row_b) in enumerate(zip(old[1:], new[1:]), start=1):
        if len(row_a) != len(row_b):
            return f"row {i} has {len(row_a)} -> {len(row_b)} cells", False
        for column, a, b in zip(old[0], row_a, row_b):
            d = cell_difference(a, b)
            if d > worst:
                worst, where = d, (i, column, a, b)
    if where is None:
        return "identical cells, different bytes", True
    i, column, a, b = where
    return (f"max relative difference {worst:.3g} at row {i}, column "
            f"{column} ({a} -> {b})"), True


def compare_dirs(parent_dir, change_dir):
    """[(file name, message, ok)] over the files of either directory."""
    names = sorted(set(os.listdir(parent_dir)) | set(os.listdir(change_dir)))
    out = []
    for name in names:
        a, b = os.path.join(parent_dir, name), os.path.join(change_dir, name)
        if not os.path.exists(a) or not os.path.exists(b):
            side = "parent" if not os.path.exists(a) else "change"
            out.append((name, f"missing in {side}", False))
            continue
        with open(a, "rb") as fa, open(b, "rb") as fb:
            if fa.read() == fb.read():
                out.append((name, "identical", True))
                continue
        if name.endswith(".csv"):
            out.append((name, *compare_csv(a, b)))
        else:
            out.append((name, "differs", True))
    return out


def run_command(tree, argv, out_dir):
    """Exit code of ``elastweak argv --out out_dir`` run from tree/src."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"),
               PYTHONHASHSEED="0")
    proc = subprocess.run([sys.executable, "-m", "elastweak", *argv,
                           "--out", out_dir], env=env, cwd=out_dir,
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return proc.returncode


def workload_commands(tree):
    """Every command line of tree/perfbench/workloads.py, in order."""
    workloads = runpy.run_path(os.path.join(tree, "perfbench",
                                            "workloads.py"))["WORKLOADS"]
    return [argv for lines in workloads.values() for argv in lines]


def compare_trees(parent_tree, change_tree, commands):
    """Run each command line in both trees and print the comparison;
    True when nothing is missing, mismatched in rows or exit code."""
    # the commands run in their output directories, so a relative tree
    # path would put nothing importable on PYTHONPATH
    parent_tree, change_tree = map(os.path.abspath, (parent_tree, change_tree))
    ok = True
    with tempfile.TemporaryDirectory() as scratch:
        for i, argv in enumerate(commands):
            print(" ".join(argv))
            dirs = []
            for side, tree in (("parent", parent_tree),
                               ("change", change_tree)):
                out_dir = os.path.join(scratch, f"{i}-{side}")
                os.makedirs(out_dir)
                dirs.append((run_command(tree, argv, out_dir), out_dir))
            (code_a, dir_a), (code_b, dir_b) = dirs
            if code_a != code_b:
                print(f"  exit code {code_a} -> {code_b}")
                ok = False
            compared = compare_dirs(dir_a, dir_b)
            if not compared:
                print("  no output file in either tree")
                ok = False
            for name, message, file_ok in compared:
                print(f"  {name}: {message}")
                ok = ok and file_ok
    return ok


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_tree")
    parser.add_argument("change_tree")
    parser.add_argument("--command", action="append", default=[],
                        help="one more elastweak command line, quoted")
    args = parser.parse_args(argv)
    commands = (workload_commands(args.change_tree)
                + [shlex.split(c) for c in args.command])
    return 0 if compare_trees(args.parent_tree, args.change_tree,
                              commands) else 1


if __name__ == "__main__":
    sys.exit(main())
