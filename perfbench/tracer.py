"""Spans around the public functions of every ``elastweak`` module.

The tracer patches the package from outside: it replaces each public
function (and each public method or ``__init__`` of a class written in the
package) with a wrapper that records one span per call, and restores the
originals afterwards.  Several modules import functions by name, so the
wrapper is installed in every ``elastweak.*`` namespace that binds the
original function object, not only in the defining module.

A span is ``(name, start, end, parent, invocation, n, attrs)``.  ``name`` is
``<module>.<qualname>`` without the package prefix, ``parent`` is the index of
the enclosing span (-1 at top level), ``invocation`` and ``n`` identify the
case (one mesh size of one command line) and ``attrs`` holds counts read from
the return value.  Spans stay in memory until the pass ends.
"""

import functools
import inspect
import sys
import time

PACKAGE = "elastweak"
MARK = "_perfbench_original"

MODULES = ("mesh", "quadrature", "spaces", "compressible", "incompressible",
           "solvers", "norms", "experiments", "plotting", "cli")

MESH_BUILDERS = ("mesh.build_unit_square_mesh", "mesh.build_cook_mesh")


def _system_counts(system):
    return {"nnz": int(system.matrix.nnz), "dofs": int(system.dof_count)}


# Counts a span records from its function's return value.
COUNTS = {
    "spaces.FESpace.interior_tables": lambda r: {"points": int(r.wdet.size)},
    "compressible.assemble_weak_system": _system_counts,
    "compressible.assemble_strong_system": _system_counts,
    "incompressible.assemble_incompressible_system": lambda r: {
        **_system_counts(r.system), "bordered": int(r.constraint_index is not None)},
    "solvers.lu_solve": lambda r: {"residual": float(r[1].residual_norm)},
}


def _package_modules():
    return sorted((name, mod) for name, mod in list(sys.modules.items())
                  if mod is not None
                  and (name == PACKAGE or name.startswith(PACKAGE + ".")))


def _traceable(func):
    """A plain or lru_cache-wrapped Python function that is not a generator."""
    inner = getattr(func, "__wrapped__", func)
    return inspect.isfunction(inner) and not inspect.isgeneratorfunction(inner)


class Tracer:
    """Installs span-recording wrappers and collects the spans of one pass."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []
        self.invocation = -1
        self.n = None
        self.wrapped = set()

    # -- installation -------------------------------------------------------

    def install(self):
        wrappers = {}   # id(original) -> (original, wrapper)
        for modname, module in _package_modules():
            short = modname[len(PACKAGE) + 1:] or PACKAGE
            for attr, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != modname or attr.startswith("_"):
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(short, obj, module.__file__)
                elif _traceable(obj):
                    wrappers[id(obj)] = (obj, self._wrapper(f"{short}.{attr}", obj))
        for _, module in _package_modules():
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(module, attr, obj, hit[1])
        missing = sorted(metric_functions() - self.wrapped)
        if missing:
            self.uninstall()
            raise RuntimeError(f"functions the metrics need were not found: {missing}")

    def _wrap_class(self, short, cls, filename):
        for attr, obj in list(vars(cls).items()):
            if (inspect.isfunction(obj) and _traceable(obj)
                    and obj.__code__.co_filename == filename
                    and (attr == "__init__" or not attr.startswith("_"))):
                name = f"{short}.{cls.__name__}.{attr}"
                self._patch(cls, attr, obj, self._wrapper(name, obj))

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrapper(self, name, func):
        spans, stack = self.spans, self._stack
        builder = name in MESH_BUILDERS
        counts = COUNTS.get(name)
        self.wrapped.add(name)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if builder:
                self.n = int(args[0] if args else kwargs["n"])
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            result = None
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.invocation, self.n,
                                counts(result) if counts and result is not None else None)

        setattr(wrapper, MARK, func)
        return wrapper


def installed_wrappers():
    """Names of ``elastweak`` attributes that currently hold a wrapper."""
    found = []
    for modname, module in _package_modules():
        for attr, obj in vars(module).items():
            if hasattr(obj, MARK):
                found.append(f"{modname}.{attr}")
            if inspect.isclass(obj) and obj.__module__ == modname:
                found += [f"{modname}.{obj.__name__}.{a}"
                          for a, m in vars(obj).items() if hasattr(m, MARK)]
    return found


# -- per-layer metrics ------------------------------------------------------

# Busy seconds of the outermost calls to these functions (a call nested in
# another call of the same group is not counted twice).
BUSY = {
    "mesh.build_s": ("mesh.build_unit_square_mesh", "mesh.build_cook_mesh",
                     "mesh.mesh_quality"),
    "spaces.fespace_s": ("spaces.FESpace.__init__",),
    "spaces.tables_s": ("spaces.FESpace.interior_tables",
                        "spaces.FESpace.boundary_tables"),
    "compressible.stiffness_s": ("compressible.assemble_elasticity_stiffness",),
    "compressible.flux_s": ("compressible.assemble_boundary_flux",),
    "compressible.load_s": ("compressible.assemble_load",),
    "compressible.flux_load_s": ("compressible.assemble_flux_load",),
    "compressible.neumann_s": ("compressible.assemble_neumann_load",),
    "incompressible.divergence_s": ("incompressible.assemble_divergence",),
    "incompressible.stabilization_s": (
        "incompressible.assemble_pressure_stabilization",),
    "incompressible.boundary_s": ("incompressible.assemble_mixed_boundary_flux",),
    "incompressible.pressure_mass_s": ("incompressible.assemble_pressure_mass",),
    "solvers.lu_solve_s": ("solvers.lu_solve",),
    "solvers.dense_sv_s": ("solvers.smallest_generalized_singular_value",),
    "norms.error_norms_s": ("norms.error_norms",),
    "norms.gram_s": ("norms.triple_norm_gram_compressible",
                     "norms.triple_norm_gram_incompressible",
                     "norms.side_mean_gram"),
    "cli.output_s": ("experiments.write_csv", "plotting.emit_plot"),
}

# Self seconds of these functions: the span minus its traced children,
# except that the children listed second count as part of the self time.
SYSTEM_PARTS = ("compressible.eliminate_dofs",
                "compressible.dirichlet_dofs_and_values",
                "incompressible.pressure_integral_vector")
SELF = {
    "compressible.system_self_s": (("compressible.assemble_weak_system",
                                    "compressible.assemble_strong_system"),
                                   SYSTEM_PARTS),
    "incompressible.system_self_s": (
        ("incompressible.assemble_incompressible_system",), SYSTEM_PARTS),
    "norms.infsup_self_s": (("norms.compressible_infsup",
                             "norms.incompressible_infsup",
                             "norms.discrete_infsup_constant"), ()),
    "norms.korn_self_s": (("norms.discrete_korn_constant",), ()),
    "experiments.driver_self_s": (("experiments.run_convergence",
                                   "experiments.run_cook",
                                   "experiments.run_stability_diagnostics"), ()),
}

# Counts that must repeat exactly from pass to pass.
EXACT_COUNTS = ("quadrature.point_evals", "compressible.nnz",
                "incompressible.nnz", "incompressible.bordered_systems",
                "solvers.lu_solves")


def metric_functions():
    """Every function name the per-layer metrics read spans of."""
    names = set(MESH_BUILDERS) | set(COUNTS) | set(SYSTEM_PARTS)
    for group in BUSY.values():
        names.update(group)
    for group, _ in SELF.values():
        names.update(group)
    return names


def _self_times(spans, folded):
    """Self seconds per span; children named in ``folded`` count as self."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    if folded:
        # children end before their parents, so a reverse scan sees each
        # folded child's final self time before adding it to its parent
        for i in range(len(spans) - 1, -1, -1):
            name, parent = spans[i][0], spans[i][3]
            if parent >= 0 and name in folded:
                own[parent] += own[i]
    return own


def layer_metrics(spans):
    """Per-layer metrics of one traced pass, keyed by metric name."""
    names = [s[0] for s in spans]
    metrics = {}
    for metric, group in BUSY.items():
        group = set(group)
        total = 0.0
        for i, s in enumerate(spans):
            if names[i] not in group:
                continue
            p = s[3]
            while p >= 0 and names[p] not in group:
                p = spans[p][3]
            if p < 0:
                total += s[2] - s[1]
        metrics[metric] = total
    plain = _self_times(spans, ())
    for metric, (group, folded) in SELF.items():
        own = _self_times(spans, set(folded)) if folded else plain
        metrics[metric] = sum(own[i] for i, n in enumerate(names) if n in group)
    for module in MODULES:
        metrics[f"{module}.self_s"] = sum(
            own for n, own in zip(names, plain) if n.split(".", 1)[0] == module)

    def attrs(*wanted):
        return [s[6] for s in spans if s[0] in wanted and s[6]]

    metrics["quadrature.point_evals"] = sum(
        a["points"] for a in attrs("spaces.FESpace.interior_tables"))
    metrics["compressible.nnz"] = sum(
        a["nnz"] for a in attrs("compressible.assemble_weak_system",
                                "compressible.assemble_strong_system"))
    mixed = attrs("incompressible.assemble_incompressible_system")
    metrics["incompressible.nnz"] = sum(a["nnz"] for a in mixed)
    metrics["incompressible.bordered_systems"] = sum(a["bordered"] for a in mixed)
    solves = [s for s in spans if s[0] == "solvers.lu_solve"]
    metrics["solvers.lu_solves"] = len(solves)
    metrics["solvers.residual_max"] = max(
        [s[6]["residual"] for s in solves if s[6]], default=0.0)
    return metrics


def span_records(spans, workload, k_of_invocation):
    """Spans as dicts for the trace file, with workload and case attributes."""
    # a case's dofs are known once its system is assembled; give them to
    # every span of the case
    dofs = {(s[4], s[5]): s[6]["dofs"] for s in spans if s[6] and "dofs" in s[6]}
    return [{"name": s[0], "start": s[1], "end": s[2], "parent": s[3],
             "workload": workload, "invocation": s[4], "n": s[5],
             "k": k_of_invocation.get(s[4]), "dofs": dofs.get((s[4], s[5])),
             **(s[6] or {})}
            for s in spans]
