import csv

import pytest

from elastweak.cli import main
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
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path),
                 "--deterministic"])
    assert code == 0
    first = (tmp_path / "compressible_k1_weak.csv").read_bytes()
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path),
                 "--deterministic"]) == 0
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
    # only configuration errors become exit 2; a ValueError raised later
    # (the plotter's, on diverging Cook P2 tips) still propagates
    import elastweak.cli as cli

    def no_plot(series, spec, path):
        raise ValueError("log-log plot needs positive data")

    monkeypatch.setattr(cli, "emit_plot", no_plot)
    with pytest.raises(ValueError, match="positive data"):
        main(["run", "--problem", "compressible", "--k", "1",
              "--mesh-sizes", "2", "--out", str(tmp_path)])
