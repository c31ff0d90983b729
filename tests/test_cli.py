import csv
import dataclasses
import math
import re

import pytest

from elastweak.cli import build_parser, main
from elastweak.experiments import PROBLEMS, RUN_KEYS, ExperimentConfig
from elastweak.mesh import load_mesh


def test_mesh_subcommand(tmp_path):
    out = tmp_path / "square.txt"
    assert main(["mesh", "--shape", "square", "--n", "3", "--out",
                 str(out)]) == 0
    mesh = load_mesh(out)
    assert mesh.num_triangles == 18
    cook = tmp_path / "cook.txt"
    assert main(["mesh", "--shape", "cook", "--n", "2", "--out",
                 str(cook)]) == 0
    assert load_mesh(cook).side_tags == ("CB", "AB", "DA", "CD")


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


def test_run_subcommand_config_file(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[run]\nproblem = compressible\nk = 1\n"
                   "mesh_sizes = 2 4\nmu = 1.0\nlambda = 1.0\n")
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 0
    first = (tmp_path / "compressible_k1_weak.csv").read_bytes()
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "compressible_k1_weak.csv").read_bytes() == first


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
    # no [run] key is accepted and then ignored, and no run/diagnose flag is
    # dropped by _run_config for want of a [run] key
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    assert {name for name, _ in RUN_KEYS.values()} <= fields
    for command in ("run", "diagnose"):
        dests = set(vars(build_parser().parse_args([command])))
        # command and func belong to the top-level parser
        assert dests - {"command", "func", "config", "check"} <= set(RUN_KEYS)


@pytest.mark.parametrize("argv", [
    ["--formulation", "nearly_incompressible"],
    ["--deterministic"],
], ids=["formulation", "deterministic"])
def test_removed_flags_are_usage_errors(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--problem", "cook", *argv, "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["formulation = nearly_incompressible",
                                  "deterministic = true", "stab_h = global",
                                  "rhs_degree = 8"],
                         ids=["formulation", "deterministic", "stab_h",
                              "rhs_degree"])
def test_removed_run_keys_are_config_errors(tmp_path, capsys, line):
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[run]\nproblem = cook\n{line}\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid configuration: unknown [run] keys: ")
    assert not list(tmp_path.glob("*.csv"))


def test_solver_failure_exit_code(monkeypatch):
    import elastweak.cli as cli
    from elastweak.experiments import ExperimentError

    def boom(config):
        raise ExperimentError("mesh n=8: factorization failed")

    monkeypatch.setattr(cli, "run_convergence", boom)
    code = main(["run", "--problem", "compressible", "--k", "1",
                 "--mesh-sizes", "2", "--out", "/tmp/ew-exit2"])
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
    (["--config", "{cfg}"], "unknown [run] keys: lamda"),
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
], ids=["unknown-key", "poisson-range", "poisson-alone", "empty-mesh-sizes",
        "order-3", "negative-mu", "nan-lambda", "zero-mesh-size",
        "decreasing-mesh-sizes", "repeated-mesh-size", "zero-gamma"])
@pytest.mark.parametrize("command", ["run", "diagnose"])
def test_config_error_exit_code(tmp_path, capsys, command, argv, message):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[run]\nproblem = compressible\nlamda = 5\n")
    argv = [a.replace("{cfg}", str(cfg)) for a in argv]
    code = main([command, "--problem", "compressible", *argv,
                 "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid configuration: ")
    assert message in err


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


@pytest.mark.parametrize("text,message", [
    ("problem = compressible\n", "no section headers"),
    ("[run]\nk = 1\nk = 2\n", "option 'k' in section 'run' already exists"),
], ids=["no-section-header", "duplicate-key"])
def test_malformed_config_file_exit_code(tmp_path, capsys, text, message):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(text)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid configuration: cannot parse")
    assert message in err


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
    # large, so the sweep stops at the first solve and writes no CSV
    for lam in ("1e200", "1e300"):
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
        assert math.isfinite(float(found[1])) and float(found[1]) > 1e10
        assert not list(out.iterdir())


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


@pytest.mark.parametrize("argv,message", [
    (["--n", "0"], "invalid mesh: subdivision count must be >= 1"),
    (["--n", "-3"], "invalid mesh: subdivision count must be >= 1"),
    (["--n", "2", "--out", "{nodir}"],
     "cannot write {nodir}: No such file or directory"),
], ids=["zero-n", "negative-n", "unwritable-out"])
@pytest.mark.parametrize("shape", ["square", "cook"])
def test_mesh_bad_input_exit_code(tmp_path, capsys, shape, argv, message):
    nodir = str(tmp_path / "no" / "mesh.txt")
    argv = ["mesh", "--shape", shape, "--out", str(tmp_path / "m.txt"), *argv]
    code = main([a.format(nodir=nodir) for a in argv])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: " + message.format(nodir=nodir) + "\n")
    assert not list(tmp_path.glob("**/*.txt"))
