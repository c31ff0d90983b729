import csv
import dataclasses
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from elastweak.cli import build_parser, main
from elastweak.compressible import MaterialParams, assemble_weak_system
from elastweak.experiments import (PROBLEMS, RESIDUAL_LIMIT, ExperimentConfig,
                                   manufactured_compressible)
from elastweak.mesh import build_unit_square_mesh
from elastweak.spaces import FESpace

SRC = Path(__file__).resolve().parents[1] / "src"


def test_run_subcommand_writes_csv_and_svg(tmp_path):
    code = main(["run", "--problem", "compressible", "--k", "1",
                 "--mesh-sizes", "2,4", "--mu", "1", "--lambda", "1",
                 "--out", str(tmp_path)])
    assert code == 0
    csv_path = tmp_path / "compressible_k1_weak.csv"
    svg_path = tmp_path / "compressible_k1_weak.svg"
    assert csv_path.exists() and svg_path.exists()
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert float(rows[0]["h_max"]) > float(rows[1]["h_max"])
    assert rows[1]["slope_h1"] != ""


def test_run_check_flags_preasymptotic_slopes(tmp_path):
    # at n = 2, 4 the L2 slope is far from 2: --check must exit 3
    code = main(["run", "--problem", "compressible", "--k", "1",
                 "--mesh-sizes", "2,4", "--mu", "1", "--lambda", "1",
                 "--out", str(tmp_path), "--check"])
    assert code == 3


def test_diagnose_subcommand(tmp_path):
    code = main(["diagnose", "--problem", "compressible", "--k", "1",
                 "--mesh-sizes", "2,4", "--mu", "1", "--lambda", "1",
                 "--out", str(tmp_path)])
    assert code == 0
    path = tmp_path / "stability_compressible_k1.csv"
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert all(float(r["beta_h"]) > 0 for r in rows)


@pytest.mark.parametrize("argv", [
    ["--problem", "cook"],
    ["--problem", "nearly_incompressible"],
    ["--problem", "compressible", "--bc-mode", "strong"],
], ids=["cook", "nearly_incompressible", "strong"])
def test_diagnose_rejects_problems_without_diagnostics(tmp_path, capsys,
                                                       argv):
    # diagnostics exist only for the weak operator on the unit square; no
    # CSV may carry its constants under another problem's or mode's name
    code = main(["diagnose", *argv, "--k", "1", "--mesh-sizes", "2",
                 "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: no stability diagnostics for ")
    assert not list(tmp_path.glob("*.csv"))


def _problem_choices(command):
    subparsers = build_parser()._subparsers._group_actions[0]
    action, = [a for a in subparsers.choices[command]._actions
               if a.dest == "problem"]
    return action.choices


@pytest.mark.parametrize("command", ["run", "diagnose"])
def test_problem_choices_are_the_problem_table(command):
    assert set(_problem_choices(command)) == set(PROBLEMS)


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_diagnose_follows_the_problem_table(tmp_path, capsys, name):
    # diagnose runs exactly the table entries marked diagnose and rejects
    # the others before writing anything
    code = main(["diagnose", "--problem", name, "--k", "1", "--mesh-sizes",
                 "2", "--out", str(tmp_path)])
    csvs = list(tmp_path.glob("*.csv"))
    if PROBLEMS[name].diagnose:
        assert code == 0 and len(csvs) == 1
    else:
        assert code == 2 and not csvs
        assert capsys.readouterr().err.startswith(
            f"error: no stability diagnostics for problem {name!r}")


def test_plot_subcommand(tmp_path):
    main(["run", "--problem", "compressible", "--k", "1",
          "--mesh-sizes", "2,4", "--mu", "1", "--lambda", "1",
          "--out", str(tmp_path)])
    out = tmp_path / "replot.svg"
    code = main(["plot", "--csv", str(tmp_path / "compressible_k1_weak.csv"),
                 "--y", "err_l2", "--y", "err_h1", "--ref-slopes", "2",
                 "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.startswith("<svg") and text.count("<polyline") == 2


def test_cook_run_subcommand(tmp_path):
    code = main(["run", "--problem", "cook", "--k", "1",
                 "--mesh-sizes", "2,4", "--young", "100000",
                 "--poisson", "0.3333", "--out", str(tmp_path)])
    assert code == 0
    path = tmp_path / "cook_k1_weak_compressible.csv"
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert all(r["qoi"] != "" for r in rows)


def test_nearly_incompressible_problem_is_the_cook_membrane(tmp_path):
    code = main(["run", "--problem", "nearly_incompressible", "--k", "1",
                 "--mesh-sizes", "2,4", "--young", "250", "--poisson",
                 "0.4999", "--gamma", "0.1", "--out", str(tmp_path)])
    assert code == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "cook_k1_weak_nearly_incompressible.csv",
        "cook_k1_weak_nearly_incompressible.svg"]
    with open(tmp_path / "cook_k1_weak_nearly_incompressible.csv",
              newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["problem"] for r in rows] == ["cook", "cook"]
    assert all(float(r["qoi"]) > 0 for r in rows)


def test_run_keys_and_flags_name_config_fields():
    # _run_config passes every run/diagnose flag to ExperimentConfig by its
    # dest, so each dest but the parser's own must name a config field
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    for command in ("run", "diagnose"):
        dests = set(vars(build_parser().parse_args([command])))
        # command and func belong to the top-level parser
        assert dests - {"command", "func", "check"} <= fields


@pytest.mark.parametrize("argv,message", [
    (["run", "--formulation", "nearly_incompressible"], "unrecognized arguments"),
    (["run", "--deterministic"], "unrecognized arguments"),
    (["run", "--config", "x.ini"], "unrecognized arguments"),
    (["run", "--stab-h", "global"], "unrecognized arguments"),
    (["run", "--rhs-degree", "8"], "unrecognized arguments"),
    (["mesh", "--shape", "square", "--n", "2"], "invalid choice: 'mesh'"),
], ids=["formulation", "deterministic", "config", "stab-h", "rhs-degree",
        "mesh"])
def test_removed_flags_are_usage_errors(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--problem", "cook", "--out", str(out)])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_solver_failure_exit_code(tmp_path, monkeypatch):
    import elastweak.cli as cli
    from elastweak.experiments import ExperimentError

    def boom(config):
        raise ExperimentError("mesh n=8: factorization failed")

    monkeypatch.setattr(cli, "run_convergence", boom)
    code = main(["run", "--problem", "compressible", "--k", "1",
                 "--mesh-sizes", "2", "--out", str(tmp_path)])
    assert code == 2


def test_run_cook_check_accepts_corner_limited_rate(tmp_path, capsys):
    # the clamped corner caps the tip rate below O(h^2); a correct strong
    # sweep must not be flagged
    code = main(["run", "--problem", "cook", "--k", "1", "--young", "1e5",
                 "--poisson", "0.3333", "--bc-mode", "strong", "--check",
                 "--out", str(tmp_path)])
    assert code == 0
    assert "CHECK FAILED" not in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["--young", "1e5", "--poisson", "0.7"], "nu in (-1, 0.5)"),
    (["--poisson", "0.7"], "both"),
    (["--mesh-sizes", ""], "at least one mesh"),
    (["--k", "3"], "unknown order 3"),
    (["--mu", "-1"], "mu must be positive"),
    (["--lambda", "nan"], "lam must be finite"),
    (["--mesh-sizes", "0"], "positive and strictly increasing"),
    (["--mesh-sizes", "16,8"], "positive and strictly increasing"),
    (["--mesh-sizes", "8,8"], "positive and strictly increasing"),
    (["--problem", "incompressible", "--gamma", "0"], "gamma must be positive"),
    (["--mesh-sizes", "4,x"], "'x'"),
    # div u = -p/lambda has no lambda = 0 form
    (["--problem", "nearly_incompressible", "--lambda", "0"],
     "needs a positive lambda, got 0.0"),
    (["--problem", "nearly_incompressible", "--young", "250", "--poisson",
      "0"], "needs a positive lambda, got 0.0"),
], ids=["poisson-range", "poisson-alone", "empty-mesh-sizes",
        "order-3", "negative-mu", "nan-lambda", "zero-mesh-size",
        "decreasing-mesh-sizes", "repeated-mesh-size", "zero-gamma",
        "non-integer-mesh-size", "nearly-zero-lambda", "nearly-zero-poisson"])
@pytest.mark.parametrize("command", ["run", "diagnose"])
def test_config_error_exit_code(tmp_path, capsys, command, argv, message):
    code = main([command, "--problem", "compressible", *argv,
                 "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid configuration: ")
    assert message in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("lame", [["--mu", "7"], ["--lambda", "3"]],
                         ids=["mu", "lambda"])
def test_lame_parameter_with_young_poisson_is_rejected(tmp_path, capsys,
                                                       lame):
    # --young/--poisson set mu and lam; a Lame flag given beside them would
    # be dropped without a word
    code = main(["run", "--problem", "cook", "--k", "1", "--mesh-sizes",
                 "2,4", "--young", "1e5", "--poisson", "0.3333", *lame,
                 "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid configuration: ")
    assert "not both" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("gamma", ["-1", "0"])
@pytest.mark.parametrize("problem", ["compressible", "cook"])
def test_gamma_is_checked_where_no_problem_uses_it(tmp_path, capsys,
                                                   problem, gamma):
    # the compressible problems ignore gamma; a non-positive one is still
    # an error, not a value dropped without a word
    code = main(["run", "--problem", problem, "--gamma", gamma,
                 "--mesh-sizes", "2", "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid configuration: ")
    assert "gamma must be positive" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv,need", [
    (["--problem", "compressible", "--mesh-sizes", "4"], 2),
    (["--problem", "incompressible", "--mesh-sizes", "4"], 2),
    (["--problem", "cook", "--mesh-sizes", "2,4"], 3),
], ids=["compressible-one-mesh", "incompressible-one-mesh", "cook-two-meshes"])
def test_check_with_too_few_meshes_exit_code(tmp_path, capsys, argv, need):
    # a slope needs two meshes and a ratio of tip increments three; a check
    # that cannot be made fails before the sweep runs
    code = main(["run", *argv, "--check", "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert f"needs at least {need} meshes" in err
    assert not list(tmp_path.glob("*"))


@pytest.mark.parametrize("command,name", [
    ("run", None), ("run", "compressible_k1_weak.csv"),
    ("run", "compressible_k1_weak.svg"),
    ("diagnose", None), ("diagnose", "stability_compressible_k1.csv"),
], ids=["run-out", "run-csv", "run-svg", "diagnose-out", "diagnose-csv"])
def test_unwritable_output_exit_code(tmp_path, capsys, command, name):
    # an --out that names a file cannot become the output directory, and an
    # output path that names a directory cannot be written: one error line
    # and exit 2, not a traceback
    if name is None:
        out = path = tmp_path / "taken"
        path.write_text("keep")
        reason = "File exists"
    else:
        out, path = tmp_path, tmp_path / name
        path.mkdir()
        reason = "Is a directory"
    code = main([command, "--problem", "compressible", "--mesh-sizes", "2",
                 "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == f"error: cannot write {path}: {reason}\n"
    assert name is not None or path.read_text() == "keep"


def test_value_error_outside_config_escapes(tmp_path, monkeypatch):
    # only configuration and plotting errors become exit 2; a ValueError
    # raised anywhere else in a sweep still propagates
    import elastweak.cli as cli

    def boom(config):
        raise ValueError("unexpected")

    monkeypatch.setattr(cli, "run_convergence", boom)
    with pytest.raises(ValueError, match="unexpected"):
        main(["run", "--problem", "compressible", "--k", "1",
              "--mesh-sizes", "2", "--out", str(tmp_path)])


def test_diverged_cook_sweep_exit_code(tmp_path, monkeypatch, capsys):
    # a negative tip has no log-log plot: exit 2 with an error line that
    # names the column, and the CSV stays on disk
    import elastweak.cli as cli
    from elastweak.experiments import ConvergenceRow, ConvergenceTable

    def diverged(config):
        table = ConvergenceTable(problem="cook", order=2,
                                 bc_mode=config.bc_mode)
        for h, tip in ((0.5, 138.8), (0.25, -139.9)):
            table.add(ConvergenceRow(h_max=h, dofs=10, qoi=tip))
        return table

    monkeypatch.setattr(cli, "run_cook", diverged)
    code = main(["run", "--problem", "nearly_incompressible", "--k", "2",
                 "--mesh-sizes", "2,4", "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot plot column qoi of ")
    assert "log-log plot needs positive data" in err
    csv_path = tmp_path / "cook_k2_weak_nearly_incompressible.csv"
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["qoi"]) for r in rows] == [138.8, -139.9]
    assert not (tmp_path / "cook_k2_weak_nearly_incompressible.svg").exists()


def test_nan_residual_fails_the_solve(tmp_path, capsys):
    # at lambda = 1e200 and 1e300 the squares of the residual and rhs entries
    # overflow a double; the residual ratio is still a finite number, too
    # large, so the sweep stops at the first solve and writes no CSV.  The
    # ratio's value depends on the factor: the meaningless solution differs
    # with the elimination order.
    for lam in ("1e200", "1e300"):
        params = MaterialParams(1.0, float(lam))
        data = manufactured_compressible(params)
        rhs = assemble_weak_system(FESpace(build_unit_square_mesh(2), 1, 2),
                                   params, data.f, data.g).rhs
        with np.errstate(over="ignore"):
            assert np.isinf(np.square(rhs).max())
        out = tmp_path / lam
        out.mkdir()
        code = main(["run", "--problem", "compressible", "--lambda", lam,
                     "--mesh-sizes", "2,4", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        found = re.match(r"error: mesh n=2: relative residual (\S+) is not at "
                         r"most 1.0e-08 for weak compressible solve$",
                         err.strip().splitlines()[-1])
        assert found, err
        ratio = float(found[1])
        assert math.isfinite(ratio) and ratio > RESIDUAL_LIMIT
        assert not list(out.iterdir())
    # from the command line, too, the failed solve prints its error alone:
    # a residual beyond the double range ends the refinement without an
    # overflow warning
    out = tmp_path / "command"
    out.mkdir()
    proc = subprocess.run(
        [sys.executable, "-m", "elastweak", "run", "--problem",
         "compressible", "--lambda", "1e300", "--mesh-sizes", "4", "--out",
         str(out)], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 2
    assert "RuntimeWarning" not in proc.stderr
    assert proc.stderr.startswith("error: mesh n=4: relative residual"), \
        proc.stderr


@pytest.mark.parametrize("argv", [["--lambda", "1e300"], ["--mu", "1e-300"]])
def test_indefinite_norm_gram_fails_the_diagnostics(tmp_path, argv):
    # parameters that leave the triple-norm Gram indefinite are an invalid
    # configuration: one error line, exit 2 and no CSV
    proc = subprocess.run(
        [sys.executable, "-m", "elastweak", "diagnose", "--problem",
         "compressible", *argv, "--mesh-sizes", "4", "--out",
         str(tmp_path)], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 2
    assert proc.stderr == ("error: mesh n=4: norm Gram matrix is not "
                           "positive definite\n"), proc.stderr
    assert not list(tmp_path.iterdir())


def test_failed_eigensolve_fails_the_diagnostics(tmp_path):
    # at mu=1e-300 the norm Gram passes the definiteness check, but its
    # diagonal spans 1.5e-300 to 5e299, where ARPACK cannot build an Arnoldi
    # factorization and LAPACK prints to stdout: it is rejected before the
    # eigensolve, with one error line, exit 2, no CSV and nothing on stdout
    proc = subprocess.run(
        [sys.executable, "-m", "elastweak", "diagnose", "--problem",
         "incompressible", "--mu", "1e-300", "--mesh-sizes", "4", "--out",
         str(tmp_path)], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 2
    assert proc.stderr == ("error: mesh n=4: norm Gram matrix diagonal spans "
                           "beyond the double range\n"), proc.stderr
    assert proc.stdout == "", proc.stdout
    assert not list(tmp_path.iterdir())


def _sweep_csv(tmp_path):
    main(["run", "--problem", "compressible", "--k", "1",
          "--mesh-sizes", "2,4", "--mu", "1", "--lambda", "1",
          "--out", str(tmp_path)])
    return str(tmp_path / "compressible_k1_weak.csv")


@pytest.mark.parametrize("argv,message", [
    (["--y", "err_p_l2"], "cannot plot err_p_l2 of {csv}: nothing to plot"),
    (["--y", "err_l3"], "no column err_l3 in {csv}"),
    (["--y", "err_l2", "--y", "err_l3"], "no column err_l3 in {csv}"),
    (["--x", "h", "--y", "err_l2"], "no column h in {csv}"),
    (["--x", "problem", "--y", "err_l2"],
     "cannot plot err_l2 of {csv}: could not convert string to float"),
    (["--y", "problem"], "cannot plot problem of {csv}: could not convert"),
    (["--y", "slope_h1", "--x", "slope_l2", "--csv", "{nowhere}"],
     "cannot read {nowhere}: No such file or directory"),
    (["--y", "err_l2", "--out", "{nodir}"],
     "cannot write {nodir}: No such file or directory"),
    (["--y", "err_l2", "--ref-slopes", "nan"],
     "cannot plot err_l2 of {csv}: reference slope nan has no finite"),
    (["--y", "err_l2", "--ref-slopes", "1", "--ref-slopes", "inf"],
     "cannot plot err_l2 of {csv}: reference slope inf has no finite"),
    (["--y", "err_l2", "--ref-slopes", "2000"],
     "cannot plot err_l2 of {csv}: reference slope 2000 has no finite"),
], ids=["empty-column", "absent-y", "one-absent-y", "absent-x",
        "non-numeric-x", "non-numeric-y", "missing-csv", "unwritable-out",
        "nan-ref-slope", "inf-ref-slope", "overflowing-ref-slope"])
def test_plot_bad_input_exit_code(tmp_path, capsys, argv, message):
    names = {"csv": _sweep_csv(tmp_path),
             "nowhere": str(tmp_path / "nowhere.csv"),
             "nodir": str(tmp_path / "no" / "plot.svg")}
    argv = ["plot", "--csv", "{csv}", "--out", str(tmp_path / "p.svg"), *argv]
    capsys.readouterr()
    code = main([a.format(**names) for a in argv])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: " + message.format(**names))
    assert not (tmp_path / "p.svg").exists()


def test_plot_skips_empty_columns_beside_data(tmp_path):
    # a column without values is left out when another has data
    out = tmp_path / "p.svg"
    assert main(["plot", "--csv", _sweep_csv(tmp_path), "--y", "err_l2",
                 "--y", "err_p_l2", "--out", str(out)]) == 0
    assert out.read_text().count("<polyline") == 1

