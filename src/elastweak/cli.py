"""Command-line entry points: mesh generation, experiment sweeps, stability
diagnostics and convergence plots.

Exit codes: 0 success, 2 solver failure, invalid configuration, --check
with fewer meshes than the check needs, or a sweep column that a log-log
plot cannot show (the CSV is written first), 3 threshold violation with
--check.
"""

import argparse
import csv
import os
import sys

from .experiments import (PROBLEMS, RUN_KEYS, ExperimentConfig,
                          ExperimentError, check_convergence,
                          require_check_meshes, run_convergence, run_cook,
                          run_stability_diagnostics, write_csv)
from .mesh import build_cook_mesh, build_unit_square_mesh, dump_mesh
from .plotting import PlotSpec, Series, emit_plot, table_series
from .solvers import SingularSystemError


def _add_run_overrides(parser):
    parser.add_argument("--config", help="key=value config file with a [run] section")
    parser.add_argument("--problem", choices=list(PROBLEMS),
                        help="an entry of experiments.PROBLEMS: its mesh, "
                             "Dirichlet sides, formulation, data and check")
    parser.add_argument("--k", type=int, dest="k")
    parser.add_argument("--mesh-sizes", dest="mesh_sizes",
                        help="space or comma separated subdivision counts")
    parser.add_argument("--mu", type=float)
    parser.add_argument("--lambda", type=float, dest="lam")
    parser.add_argument("--gamma", type=float)
    parser.add_argument("--young", type=float)
    parser.add_argument("--poisson", type=float)
    parser.add_argument("--bc-mode", dest="bc_mode", choices=["weak", "strong"])
    parser.add_argument("--out", dest="out_dir", help="output directory")


def _run_config(args):
    """Config from --config (if given) with the [run] flags set on the
    command line taking precedence."""
    flags = {key: val for key, val in vars(args).items()
             if key in RUN_KEYS and val is not None}
    try:
        if args.config:
            return ExperimentConfig.from_file(args.config, flags)
        return ExperimentConfig.from_mapping(flags)
    except ValueError as exc:
        raise ExperimentError(f"invalid configuration: {exc}") from exc


def cmd_mesh(args):
    builder = build_unit_square_mesh if args.shape == "square" else build_cook_mesh
    dump_mesh(builder(args.n), args.out)
    print(f"wrote {args.shape} mesh (n={args.n}) to {args.out}")
    return 0


def cmd_run(args):
    config = _run_config(args)
    problem = PROBLEMS[config.problem]
    if args.check:
        require_check_meshes(config, len(config.mesh_sizes))
    os.makedirs(config.out_dir, exist_ok=True)
    table = (run_cook(config) if problem.rows == "tip"
             else run_convergence(config))
    stem = problem.stem.format(k=config.order, bc_mode=config.bc_mode)
    csv_path = os.path.join(config.out_dir, stem + ".csv")
    write_csv(table.to_csv(), csv_path)
    svg_path = os.path.join(config.out_dir, stem + ".svg")
    series = [table_series(table, c) for c in problem.columns]
    try:
        emit_plot(series, PlotSpec(
            title=stem, ref_slopes=problem.ref_slopes.get(config.order, ())),
            svg_path)
    except ValueError as exc:
        # a diverged sweep (say a negative Cook tip) has no log-log plot
        bad = ([s.label for s in series if any(v <= 0 for v in s.y)]
               or problem.columns)
        raise ExperimentError(
            f"cannot plot column {', '.join(bad)} of {csv_path}: {exc}") from exc
    print(f"wrote {csv_path} and {svg_path}")
    for row in table.rows:
        bits = [f"h_max={row.h_max:.6g}", f"dofs={row.dofs}"]
        if row.report is not None:
            bits.append(f"err_l2={row.report.l2_error:.6g}")
            bits.append(f"err_h1={row.report.h1_semi_error:.6g}")
            if row.slope_h1 is not None:
                bits.append(f"slope_h1={row.slope_h1:.3f}")
        if row.qoi is not None:
            bits.append(f"tip={row.qoi:.8g}")
        print("  " + " ".join(bits))
    if args.check:
        violations = check_convergence(table, config)
        for v in violations:
            print(f"CHECK FAILED: {v}", file=sys.stderr)
        if violations:
            return 3
    return 0


def cmd_diagnose(args):
    config = _run_config(args)
    os.makedirs(config.out_dir, exist_ok=True)
    table = run_stability_diagnostics(config)
    path = os.path.join(config.out_dir,
                        f"stability_{config.problem}_k{config.order}.csv")
    write_csv(table.to_csv(), path)
    print(f"wrote {path}")
    for row in table.rows:
        print(f"  h_max={row.h_max:.6g} beta_h={row.beta_h:.6g} "
              f"korn_h={row.korn_h:.6g}")
    return 0


def cmd_plot(args):
    with open(args.csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    series = []
    for column in args.y:
        pts = [(float(r[args.x]), float(r[column]))
               for r in rows if r.get(column)]
        if pts:
            series.append(Series(label=column, x=tuple(p[0] for p in pts),
                                 y=tuple(p[1] for p in pts)))
    emit_plot(series, PlotSpec(title=os.path.basename(args.csv),
                               xlabel=args.x,
                               ref_slopes=tuple(args.ref_slopes or ())),
              args.out)
    print(f"wrote {args.out}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="elastweak",
        description="2D elasticity solver with weakly imposed boundary "
                    "conditions: meshes, convergence studies, diagnostics")
    sub = parser.add_subparsers(dest="command", required=True)

    p_mesh = sub.add_parser("mesh", help="generate a mesh and dump it as text")
    p_mesh.add_argument("--shape", choices=["square", "cook"], required=True)
    p_mesh.add_argument("--n", type=int, required=True)
    p_mesh.add_argument("--out", required=True)
    p_mesh.set_defaults(func=cmd_mesh)

    p_run = sub.add_parser("run", help="run a convergence or benchmark sweep")
    _add_run_overrides(p_run)
    p_run.add_argument("--check", action="store_true",
                       help="exit 3 when slope thresholds are violated")
    p_run.set_defaults(func=cmd_run)

    p_diag = sub.add_parser("diagnose", help="inf-sup and Korn diagnostics")
    _add_run_overrides(p_diag)
    p_diag.set_defaults(func=cmd_diagnose)

    p_plot = sub.add_parser("plot", help="log-log SVG plot from a sweep CSV")
    p_plot.add_argument("--csv", required=True)
    p_plot.add_argument("--x", default="h_max")
    p_plot.add_argument("--y", action="append", required=True,
                        help="column to plot (repeatable)")
    p_plot.add_argument("--ref-slopes", type=float, action="append")
    p_plot.add_argument("--out", required=True)
    p_plot.set_defaults(func=cmd_plot)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ExperimentError, SingularSystemError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
