"""The benchmark's tracer wraps public elastweak functions by name; a
refactor that renames or privatises one of them breaks traced runs."""

import importlib
import inspect
import types
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"
WORKLOADS = PERFBENCH / "workloads.py"


def _load(path, name):
    # executed from source so that nothing is written under perfbench/
    module = types.ModuleType(name)
    exec(compile(path.read_text(), str(path), "exec"), vars(module))
    return module


def _tracer():
    return _load(TRACER, "perfbench_tracer")


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


def test_counts_read_real_results():
    # each COUNTS extractor applied to a real P1 n=4 result reads the value
    # of the object it comes from
    from elastweak.compressible import (MaterialParams, assemble_strong_system,
                                        assemble_weak_system)
    from elastweak.experiments import (PROBLEMS, RESIDUAL_LIMIT,
                                       manufactured_compressible,
                                       manufactured_incompressible)
    from elastweak.incompressible import assemble_incompressible_system
    from elastweak.mesh import build_cook_mesh, build_unit_square_mesh
    from elastweak.solvers import lu_solve
    from elastweak.spaces import FESpace

    counts = _tracer().COUNTS
    square = build_unit_square_mesh(4)
    V, Q = FESpace(square, 1, 2), FESpace(square, 1, 1)
    params = MaterialParams(1.0, 1.0, gamma=0.1)
    data = manufactured_compressible(params)
    systems = {
        "compressible.assemble_weak_system":
            assemble_weak_system(V, params, data.f, data.g),
        "compressible.assemble_strong_system":
            assemble_strong_system(V, params, data.f, data.g),
    }
    for name, system in systems.items():
        assert counts[name](system) == {"nnz": system.matrix.nnz,
                                        "dofs": system.matrix.shape[0]}

    mixed = counts["incompressible.assemble_incompressible_system"]
    data = manufactured_incompressible(params)
    square_mixed = assemble_incompressible_system(V, Q, params, data.f,
                                                  data.g)
    cook = build_cook_mesh(4)
    near = MaterialParams.from_young_poisson(250.0, 0.4999, gamma=0.1)
    data = PROBLEMS["nearly_incompressible"].data(near)
    cook_mixed = assemble_incompressible_system(
        FESpace(cook, 1, 2), FESpace(cook, 1, 1), near, data.f, data.g,
        nearly_lambda=near.lam, dirichlet_sides=("CD",),
        neumann=data.neumann)
    for result, bordered in ((square_mixed, 1), (cook_mixed, 0)):
        A = result.system.matrix
        assert mixed(result) == {"nnz": A.nnz, "dofs": A.shape[0],
                                 "bordered": bordered}

    weak = systems["compressible.assemble_weak_system"]
    residual = counts["solvers.lu_solve"](lu_solve(weak.matrix,
                                                   weak.rhs))["residual"]
    assert 0.0 <= residual <= RESIDUAL_LIMIT
    # the degree-16 error rule has 55 points per triangle
    assert counts["spaces.FESpace.interior_tables"](
        V.interior_tables(16)) == {"points": square.num_triangles * 55}
    assert set(counts) == {*systems, "solvers.lu_solve",
                           "incompressible.assemble_incompressible_system",
                           "spaces.FESpace.interior_tables"}


def test_workload_command_lines_parse_to_valid_configs(tmp_path):
    # every benchmark command line, with the --out the worker adds, parses
    # and gives a valid configuration; nothing is run
    from elastweak.cli import _run_config, build_parser, cmd_diagnose, cmd_run
    from elastweak.experiments import PROBLEMS, ExperimentConfig

    workloads = _load(WORKLOADS, "perfbench_workloads").WORKLOADS
    assert workloads
    for name, invocations in workloads.items():
        assert invocations, name
        for argv in invocations:
            args = build_parser().parse_args(argv + ["--out", str(tmp_path)])
            assert args.func in (cmd_run, cmd_diagnose), argv
            config = _run_config(args)
            assert isinstance(config, ExperimentConfig), argv
            assert config.out_dir == str(tmp_path)
            assert config.problem == argv[argv.index("--problem") + 1]
            if args.func is cmd_diagnose:
                assert PROBLEMS[config.problem].diagnose, argv
