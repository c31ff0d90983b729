"""Experiment drivers: manufactured solutions, the PROBLEMS table of the
paper's four settings, convergence sweeps, the Cook membrane bending
benchmark and stability diagnostics, with CSV output.
"""

import csv
import io
import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from .compressible import (MaterialParams, assemble_strong_system,
                           assemble_weak_system)
from .incompressible import (assemble_incompressible_system,
                             pressure_integral_vector)
from .mesh import (_COOK_A, _COOK_C, _COOK_D, build_cook_mesh,
                   build_unit_square_mesh)
from .norms import (ErrorReport, compressible_infsup, discrete_korn_constant,
                    error_norms, incompressible_infsup)
from .solvers import (SingularSystemError, _norm_ratio, _residual_extended,
                      lu_solve)
from .spaces import AnalyticField, DiscreteField, FESpace

CSV_HEADER = ("problem", "k", "bc_mode", "h_max", "dofs", "err_l2", "err_h1",
              "err_triple", "err_p_l2", "slope_l2", "slope_h1", "beta_h",
              "korn_h", "qoi")

RESIDUAL_LIMIT = 1e-8


class ExperimentError(RuntimeError):
    """A solver failure, an invalid configuration or input that a command
    cannot use; the command line reports it and exits 2."""


# -- problem data and manufactured solutions -------------------------------------


@dataclass(frozen=True)
class ProblemData:
    """Body force, Dirichlet data, Neumann tractions by side tag and, for a
    manufactured solution, the exact velocity and pressure."""

    f: AnalyticField
    g: AnalyticField
    neumann: dict = None
    exact_u: AnalyticField = None
    exact_p: AnalyticField = None


def _affine_times(out, t, a, b, *factors):
    """out = (a t - b) times each of factors in turn, computed in place in
    the array out."""
    np.multiply(t, a, out=out)
    out -= b
    for factor in factors:
        out *= factor
    return out


def manufactured_compressible(params):
    """Polynomial displacement field vanishing on the unit-square boundary.

    u = ((x^5 - x^4)(y^3 - y^2), (x^4 - x^3)(y^6 - y^5)); the body force is
    the negative divergence of 2 mu eps(u) + lam (div u) I, and the
    Dirichlet data g is identically zero.
    """
    mu, lam = params.mu, params.lam

    # u_0 = A(x) B(y) and u_1 = C(x) D(y) with A = x^4 (x - 1),
    # B = y^2 (y - 1), C = x^3 (x - 1) and D = y^5 (y - 1).  Each derivative
    # of a factor is a power times a linear factor.  The jet and the force
    # multiply them out from one set of powers per call, without np.power,
    # and write each component in place into its own contiguous plane
    # (indexed with [..., ], a view also of a 0-d plane), returned as
    # component-last views.
    def powers(x, y):
        x2 = x * x
        x3 = x2 * x
        y2 = y * y
        y3 = y2 * y
        xm1, ym1 = x - 1, y - 1
        return x2, x3, y2, y3, y3 * y, xm1, ym1

    def jet(x, y):
        x2, x3, y2, _, y4, xm1, ym1 = powers(x, y)
        A, C = x3 * x * xm1, x3 * xm1
        B, D = y2 * ym1, y4 * y * ym1
        v = np.empty((2,) + np.shape(x))
        np.multiply(A, B, out=v[0, ...])
        np.multiply(C, D, out=v[1, ...])
        g = np.empty((2, 2) + np.shape(x))
        _affine_times(g[0, 0, ...], x, 5, 4, x3, B)     # A' B
        _affine_times(g[0, 1, ...], y, 3, 2, y, A)      # A B'
        _affine_times(g[1, 0, ...], x, 4, 3, x2, D)     # C' D
        _affine_times(g[1, 1, ...], y, 6, 5, y4, C)     # C D'
        return np.moveaxis(v, 0, -1), np.moveaxis(g, (0, 1), (-2, -1))

    # f = -div(2 mu eps(u) + lam div(u) I), regrouped by factor:
    # f_0 = -(2 mu + lam) A'' B - mu A B'' - (mu + lam) C' D',
    # f_1 = -mu C'' D - (2 mu + lam) C D'' - (mu + lam) A' B',
    # each coefficient folded into the linear factor of one derivative
    a, b, c = -(2 * mu + lam), -mu, -(mu + lam)

    def force(x, y):
        x2, x3, y2, y3, y4, xm1, ym1 = powers(x, y)
        # the two component planes, then two for intermediate factors
        f = np.empty((4,) + np.shape(x))
        f0, f1, t, s = (f[i, ...] for i in range(4))
        _affine_times(f0, x, 20 * a, 12 * a, x2, y2 * ym1)
        f0 += _affine_times(t, y, 6 * b, 2 * b, x3 * x * xm1)
        f0 += _affine_times(t, x, 4 * c, 3 * c, x2,
                            _affine_times(s, y, 6, 5, y4))
        _affine_times(f1, x, 12 * b, 6 * b, x, y4 * y * ym1)
        f1 += _affine_times(t, y, 30 * a, 20 * a, y3, x3 * xm1)
        f1 += _affine_times(t, x, 5, 4, x3,
                            _affine_times(s, y, 3 * c, 2 * c, y))
        return np.moveaxis(f[:2], 0, -1)

    return ProblemData(
        f=AnalyticField.vector(force),
        g=AnalyticField.constant_vector(0.0, 0.0),
        exact_u=AnalyticField.vector(lambda x, y: jet(x, y)[0], jet))


def manufactured_incompressible(params):
    """Divergence-free trigonometric velocity with zero-mean pressure.

    u = (sin(4 pi x) cos(4 pi y), -cos(4 pi x) sin(4 pi y)),
    p = pi cos(4 pi x) cos(4 pi y); f = -2 mu div eps(u) + grad p, and the
    Dirichlet data g is u itself.  exact_u and exact_p are the parts of one
    field (u, p), whose jet evaluates the sines and cosines once for both.
    """
    mu = params.mu
    w = 4.0 * math.pi

    # the velocity, the pressure and their gradients share these four values,
    # computed once per call
    def trig(x, y):
        return np.sin(w * x), np.cos(w * x), np.sin(w * y), np.cos(w * y)

    def velocity(sx, cx, sy, cy):
        v = np.empty(np.shape(sx) + (2,))
        v[..., 0] = sx * cy
        v[..., 1] = -cx * sy
        return v

    def pressure_gradient(sx, cx, sy, cy):
        g = np.empty(np.shape(sx) + (2,))
        g[..., 0] = -math.pi * w * sx * cy
        g[..., 1] = -math.pi * w * cx * sy
        return g

    def jet(x, y):
        # (u, p) and its gradient rows (grad u_0, grad u_1, grad p), written
        # component by component into contiguous planes and returned as
        # component-last views, so that each component stays contiguous
        sx, cx, sy, cy = trig(x, y)
        v = np.empty((3,) + np.shape(x))
        v[0] = sx * cy
        v[1] = -cx * sy
        v[2] = math.pi * cx * cy
        g = np.empty((3, 2) + np.shape(x))
        g[0, 0] = w * cx * cy
        g[0, 1] = -w * sx * sy
        g[1, 0] = w * sx * sy
        g[1, 1] = -w * cx * cy
        g[2, 0] = -math.pi * w * sx * cy
        g[2, 1] = -math.pi * w * cx * sy
        return np.moveaxis(v, 0, -1), np.moveaxis(g, (0, 1), (-2, -1))

    def force(x, y):
        # -mu lap u + grad p (u is divergence free)
        t = trig(x, y)
        return 2.0 * mu * w ** 2 * velocity(*t) + pressure_gradient(*t)

    solution = AnalyticField(lambda x, y: jet(x, y)[0], jet, components=3)
    exact_u = solution.part(0, 2, lambda x, y: velocity(*trig(x, y)))
    return ProblemData(f=AnalyticField.vector(force), g=exact_u,
                       exact_u=exact_u, exact_p=solution.part(2, 1))


# -- problems --------------------------------------------------------------------


def _cook_data(params):
    zero = AnalyticField.constant_vector(0.0, 0.0)
    return ProblemData(zero, zero, neumann={
        "AB": AnalyticField.constant_vector(0.0, 100.0)})


# order -> band of the last refinement step's slope
H1_SLOPE_BANDS = {1: (0.85, 1.15), 2: (1.8, 2.2)}
L2_SLOPE_BANDS = {1: (1.8, 2.2), 2: (2.7, 3.3)}


def _check_slopes(table, config):
    """The last step's H1 slope in its band for the order, and the L2 slope
    in its band, or on a mixed problem the pressure L2 slope at least 1.3."""
    last, k = table.rows[-1], config.order
    if PROBLEMS[config.problem].formulation == "compressible":
        slopes = [("H1", last.slope_h1, H1_SLOPE_BANDS[k]),
                  ("L2", last.slope_l2, L2_SLOPE_BANDS[k])]
    else:
        slopes = [("velocity H1", last.slope_h1, H1_SLOPE_BANDS[k]),
                  ("pressure L2", table.pressure_slope_last(),
                   (1.3, math.inf))]
    return [f"{name} slope {slope:.3f} outside [{lo}, {hi}]"
            for name, slope, (lo, hi) in slopes if not lo <= slope <= hi]


def _check_tip(table, config):
    """The last tip increment at most 2^-alpha_D times the one before it,
    with nu from config.poisson or from the Lame parameters."""
    nu = config.poisson
    if nu is None:
        nu = config.lam / (2.0 * (config.lam + config.mu))
    bound = cook_tip_ratio_bound(nu)
    q = [r.qoi for r in table.rows]
    inc = [abs(b - a) for a, b in zip(q, q[1:])]
    if inc[-1] <= bound * inc[-2]:
        return []
    return ["tip displacement sequence is not settling: last increment "
            f"{inc[-1]:.3g} exceeds 2^-alpha_D = {bound:.3f} times the "
            f"previous {inc[-2]:.3g}"]


@dataclass(frozen=True)
class Problem:
    """One experiment setting of the paper; see PROBLEMS."""

    mesh: object            # n -> Mesh
    dirichlet_sides: tuple  # side tags with Dirichlet data; None: every side
    formulation: str        # compressible, mixed or nearly_incompressible
    data: object            # MaterialParams -> ProblemData
    rows: str               # "errors" (run_convergence) or "tip" (run_cook)
    csv_name: str           # the CSV problem cell
    stem: str               # output file stem, formatted with k and bc_mode
    columns: tuple          # plotted against h_max
    ref_slopes: dict        # order -> slopes of the plot's reference lines
    check: object           # (table, config) -> violations, for --check
    check_meshes: int       # the fewest meshes check can judge
    diagnose: bool          # whether `diagnose` computes beta_h and korn_h


# The four settings of the paper: the unit square with a manufactured
# solution, compressible or stabilized mixed (div u = 0), and the Cook
# membrane clamped on CD and loaded on AB, compressible or mixed with
# div u = -p/lambda.  Each second entry is the first one of its geometry
# with the fields that differ replaced.  The mesh builders are called
# through this module's names, not held as objects, so that a wrapper
# installed on those names sees every call.
_SQUARE = Problem(
    mesh=lambda n: build_unit_square_mesh(n), dirichlet_sides=None,
    formulation="compressible", data=manufactured_compressible, rows="errors",
    csv_name="compressible", stem="compressible_k{k}_{bc_mode}",
    columns=("err_l2", "err_h1", "err_triple"),
    ref_slopes={1: (1.0, 2.0), 2: (2.0, 3.0)}, check=_check_slopes,
    check_meshes=2, diagnose=True)
_COOK = Problem(
    mesh=lambda n: build_cook_mesh(n), dirichlet_sides=("CD",),
    formulation="compressible", data=_cook_data, rows="tip",
    csv_name="cook", stem="cook_k{k}_{bc_mode}_compressible",
    columns=("qoi",), ref_slopes={}, check=_check_tip, check_meshes=3,
    diagnose=False)
PROBLEMS = {
    "compressible": _SQUARE,
    "incompressible": replace(
        _SQUARE, formulation="mixed", data=manufactured_incompressible,
        csv_name="incompressible", stem="incompressible_k{k}_{bc_mode}",
        columns=_SQUARE.columns + ("err_p_l2",)),
    "cook": _COOK,
    "nearly_incompressible": replace(
        _COOK, formulation="nearly_incompressible",
        stem="cook_k{k}_{bc_mode}_nearly_incompressible"),
}


# -- configuration ---------------------------------------------------------------


_CHOICES = {
    "problem": tuple(PROBLEMS),
    "order": (1, 2),
    "bc_mode": ("weak", "strong"),
}


@dataclass
class ExperimentConfig:
    """One sweep's settings.  The material is given either by the Lame
    parameters mu and lam (each 1.0 when not given) or by young and
    poisson, from which mu and lam are then set; giving both is an error."""

    problem: str = "compressible"
    order: int = 1
    mesh_sizes: tuple = None
    mu: float = None
    lam: float = None
    gamma: float = 0.1
    young: float = None
    poisson: float = None
    bc_mode: str = "weak"
    out_dir: str = "."

    def __post_init__(self):
        if (isinstance(self.order, bool)
                or not isinstance(self.order, numbers.Integral)):
            raise ValueError(f"order {self.order!r} is not an integer")
        self.order = int(self.order)
        for name, known in _CHOICES.items():
            if getattr(self, name) not in known:
                raise ValueError(f"unknown {name} {getattr(self, name)!r}; "
                                 f"expected one of {known}")
        if self.young is not None or self.poisson is not None:
            if self.mu is not None or self.lam is not None:
                raise ValueError("mu or lam given with young and poisson; "
                                 "give the Lame parameters or young and "
                                 "poisson, not both")
            pars = MaterialParams.from_young_poisson(self.young, self.poisson,
                                                     gamma=self.gamma)
            self.mu, self.lam = pars.mu, pars.lam
        else:
            self.mu = 1.0 if self.mu is None else self.mu
            self.lam = 1.0 if self.lam is None else self.lam
        if self.mesh_sizes is None:
            self.mesh_sizes = (8, 16, 32, 64) if self.order == 1 else (4, 8, 16, 32)
        for n in self.mesh_sizes:
            if not isinstance(n, numbers.Integral):
                raise ValueError(f"mesh size {n!r} is not an integer")
        self.mesh_sizes = tuple(int(n) for n in self.mesh_sizes)
        if not self.mesh_sizes:
            raise ValueError("mesh_sizes must name at least one mesh")
        if self.mesh_sizes[0] < 1 or any(
                a >= b for a, b in zip(self.mesh_sizes, self.mesh_sizes[1:])):
            raise ValueError(f"mesh_sizes must be positive and strictly "
                             f"increasing, got {self.mesh_sizes}")
        # MaterialParams rejects bad mu, lam, gamma; a gamma that only the
        # mixed problems use is checked for every problem all the same
        gamma = self.params.gamma
        if not (gamma is not None and gamma > 0.0):
            raise ValueError(f"stabilization parameter gamma must be "
                             f"positive, got {gamma!r}")
        # div u = -p/lambda needs lambda > 0; MaterialParams allows 0
        if (PROBLEMS[self.problem].formulation == "nearly_incompressible"
                and not self.lam > 0.0):
            raise ValueError(f"problem {self.problem!r} needs a positive "
                             f"lambda, got {self.lam!r}")

    @property
    def params(self):
        return MaterialParams(mu=self.mu, lam=self.lam, gamma=self.gamma)


# -- tables ----------------------------------------------------------------------


@dataclass
class ConvergenceRow:
    h_max: float
    dofs: int
    report: ErrorReport = None
    slope_l2: float = None
    slope_h1: float = None
    beta_h: float = None
    korn_h: float = None
    qoi: float = None

    def cell(self, column):
        """Value of a CSV column after bc_mode; None leaves the cell empty."""
        if column in _REPORT_CELLS:
            return getattr(self.report, _REPORT_CELLS[column], None)
        return getattr(self, column)


# CSV column -> ErrorReport field
_REPORT_CELLS = {"err_l2": "l2_error", "err_h1": "h1_semi_error",
                 "err_triple": "triple_norm_error",
                 "err_p_l2": "pressure_l2_error"}


@dataclass
class ConvergenceTable:
    problem: str
    order: int
    bc_mode: str
    rows: list = field(default_factory=list)

    def add(self, row):
        if self.rows and row.h_max >= self.rows[-1].h_max:
            raise ValueError("mesh sizes must be strictly decreasing")
        self.rows.append(row)
        self._update_slopes()

    def _update_slopes(self):
        for prev, cur in zip(self.rows, self.rows[1:]):
            if prev.report is None or cur.report is None:
                continue
            ratio = math.log(prev.h_max / cur.h_max)
            cur.slope_l2 = math.log(prev.report.l2_error
                                    / cur.report.l2_error) / ratio
            cur.slope_h1 = math.log(prev.report.h1_semi_error
                                    / cur.report.h1_semi_error) / ratio

    def pressure_slope_last(self):
        a, b = self.rows[-2], self.rows[-1]
        return (math.log(a.report.pressure_l2_error
                         / b.report.pressure_l2_error)
                / math.log(a.h_max / b.h_max))

    def to_csv(self):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        writer.writerows([self.problem, self.order, self.bc_mode,
                          *(_fmt(r.cell(c)) for c in CSV_HEADER[3:])]
                         for r in self.rows)
        return buf.getvalue()


def _fmt(value):
    return "" if value is None else f"{value:.17g}"


def write_csv(text, path):
    with open(path, "w", newline="") as fh:
        fh.write(text)


# -- solvers ---------------------------------------------------------------------


def _lu_solve(matrix, rhs, points, context):
    try:
        return lu_solve(matrix, rhs, points)
    except SingularSystemError as exc:
        raise ExperimentError(f"solver failed for {context}: {exc}") from exc


def _check_residual(residual, context):
    # a NaN residual fails too
    if not residual <= RESIDUAL_LIMIT:
        raise ExperimentError(
            f"relative residual {residual:.3e} is not at most "
            f"{RESIDUAL_LIMIT:.1e} for {context}")


def _checked_solve(system, context):
    """Solution of an AssembledSystem, factored in its point order."""
    x, report = _lu_solve(system.matrix, system.rhs, system.points, context)
    _check_residual(report.residual_norm, context)
    return x


def _pinned_mean_solve(mixed, mean, rhs, context):
    """Mean-zero solution of a mixed system whose left and right kernels
    are the constant pressure (0, 1).

    mean holds int psi_i per pressure DOF, m the same functional on the
    whole unknown vector (zero at the velocities).  The load is made
    consistent, b = rhs - (sum rhs_p / sum m_p) m, so that its pressure
    rows sum to zero; C x = b is then solved with the last pressure DOF
    pinned to 0, in the point order of the other unknowns, and the
    pressure is shifted to m . x = 0 (Bochev & Lehoucq, SIAM Rev. 47,
    2005).  The residual limit applies to C x = b on every unknown, the
    pinned row's included.
    """
    A, points = mixed.system.matrix, mixed.system.points
    pressure = slice(mixed.n_velocity, None)
    m = np.zeros(A.shape[0])
    m[pressure] = mean
    total = mean.sum()
    b = rhs - rhs[pressure].sum() / total * m
    x = np.zeros(A.shape[0])
    x[:-1], _ = _lu_solve(A[:-1, :-1], b[:-1],
                          None if points is None else points[:-1], context)
    # m . x over the whole vector: a dot over the pressures alone rounds
    # differently (P1 n=32 err_p_l2 moves by one ulp)
    x[pressure] -= m @ x / total
    _check_residual(_norm_ratio(_residual_extended(A, x, b), b), context)
    return x


def solve_compressible(mesh, order, params, f, g, bc_mode="weak",
                       dirichlet_sides=None, neumann=None):
    space = FESpace(mesh, order, 2)
    assemble = (assemble_weak_system if bc_mode == "weak"
                else assemble_strong_system)
    system = assemble(space, params, f, g, dirichlet_sides, neumann=neumann)
    x = _checked_solve(system, f"{bc_mode} compressible solve")
    return DiscreteField(space, x), system


def solve_incompressible(mesh, order, params, f, g, nearly_lambda=None,
                         bc_mode="weak", dirichlet_sides=None, neumann=None):
    vspace = FESpace(mesh, order, 2)
    pspace = FESpace(mesh, order, 1)
    mixed = assemble_incompressible_system(
        vspace, pspace, params, f, g, nearly_lambda=nearly_lambda,
        dirichlet_sides=dirichlet_sides, bc_mode=bc_mode, neumann=neumann)
    context = f"{bc_mode} incompressible solve"
    if mixed.constraint_index is None:
        x = _checked_solve(mixed.system, context)
    else:
        x = _pinned_mean_solve(mixed, pressure_integral_vector(pspace),
                               mixed.system.rhs, context)
    uc, pc = mixed.split(x)
    return DiscreteField(vspace, uc), DiscreteField(pspace, pc), mixed


# -- drivers ---------------------------------------------------------------------


def _sweep(config, row):
    """ConvergenceTable of config.problem with one row per mesh: h_max and
    the ConvergenceRow fields that row(mesh) returns."""
    problem = PROBLEMS[config.problem]
    table = ConvergenceTable(problem=problem.csv_name, order=config.order,
                             bc_mode=config.bc_mode)
    for n in config.mesh_sizes:
        mesh = problem.mesh(n)
        try:
            fields = row(mesh)
        except ExperimentError as exc:
            raise ExperimentError(f"mesh n={n}: {exc}") from exc
        table.add(ConvergenceRow(
            h_max=float(mesh.triangle_diameters().max()), **fields))
    return table


def _solution_sweep(config, rows):
    """Solve config.problem, whose rows must be `rows`, on each mesh; a row
    holds the error norms ("errors") or the Cook tip displacement ("tip")."""
    problem = PROBLEMS[config.problem]
    if problem.rows != rows:
        raise ValueError(f"problem {config.problem!r} has {problem.rows} "
                         f"rows, not {rows} rows")
    params = config.params
    data = problem.data(params)
    nearly_lambda = (params.lam if problem.formulation
                     == "nearly_incompressible" else None)

    def row(mesh):
        if problem.formulation == "compressible":
            u_h, system = solve_compressible(
                mesh, config.order, params, data.f, data.g, config.bc_mode,
                problem.dirichlet_sides, data.neumann)
            p_h, dofs = None, system.dof_count
        else:
            u_h, p_h, mixed = solve_incompressible(
                mesh, config.order, params, data.f, data.g, nearly_lambda,
                config.bc_mode, problem.dirichlet_sides, data.neumann)
            # where the pressure mean is fixed, the dofs column counts a
            # pressure-mean multiplier too: perfbench/reference.json pins
            # the counts with it
            dofs = (mixed.system.dof_count
                    + (mixed.constraint_index is not None))
        if rows == "tip":
            return {"dofs": dofs, "qoi": cook_tip_displacement(u_h)}
        return {"dofs": dofs, "report": error_norms(
            u_h, data.exact_u, params, p_h, data.exact_p)}

    return _sweep(config, row)


def run_convergence(config):
    """Manufactured-solution sweep: a ConvergenceTable of error norms."""
    return _solution_sweep(config, "errors")


def cook_tip_displacement(solution_field):
    """Vertical displacement at the mesh vertex on the corner A = (48, 60)."""
    dist = np.hypot(*(solution_field.space.mesh.vertices - _COOK_A).T)
    tip = int(np.argmin(dist))
    if dist[tip] > 1e-9 * math.hypot(*_COOK_A):
        raise ValueError("no mesh vertex at the Cook corner A = (48, 60)")
    return float(solution_field.coefficients[2 * tip + 1])


def run_cook(config):
    """Cook membrane sweep: clamped on CD, traction (0, 100) on AB.

    Returns a ConvergenceTable whose rows carry the tip displacement as qoi.
    """
    return _solution_sweep(config, "tip")


def run_stability_diagnostics(config):
    """Inf-sup and Korn constants per mesh, as a ConvergenceTable whose rows
    carry beta_h and korn_h.  Only the problems marked diagnose in PROBLEMS
    have them, and only of the weak operator."""
    problem = PROBLEMS[config.problem]
    if not problem.diagnose:
        known = " or ".join(name for name, p in PROBLEMS.items() if p.diagnose)
        raise ExperimentError(
            f"no stability diagnostics for problem {config.problem!r}: "
            f"use {known}")
    if config.bc_mode != "weak":
        raise ExperimentError(
            f"no stability diagnostics for bc_mode {config.bc_mode!r}: "
            "the constants are those of the weak operator; use weak")

    def row(mesh):
        vspace = FESpace(mesh, config.order, 2)
        try:   # ValueError: an indefinite norm Gram or a failed eigensolve
            if problem.formulation == "compressible":
                beta = compressible_infsup(vspace, config.params)
            else:
                beta = incompressible_infsup(
                    vspace, FESpace(mesh, config.order, 1), config.params)
            return {"dofs": None, "beta_h": beta,
                    "korn_h": discrete_korn_constant(vspace)}
        except ValueError as exc:
            raise ExperimentError(str(exc)) from exc

    return _sweep(config, row)


# -- acceptance-style threshold checks ---------------------------------------


def _interior_angle(vertex, prev, nxt):
    a = np.subtract(prev, vertex)
    b = np.subtract(nxt, vertex)
    return math.acos(float(a @ b) / math.hypot(*a) / math.hypot(*b))


# interior angle of the clamped-free Cook corner D, between CD and DA
COOK_CORNER_D_ANGLE = _interior_angle(_COOK_D, _COOK_C, _COOK_A)


def clamped_free_exponent(angle, poisson):
    """Leading displacement exponent alpha (u ~ r^alpha) at a clamped-free
    plane-strain corner of interior angle `angle` (radians).

    alpha is the smallest positive root of Williams' eigenvalue equation
    (J. Appl. Mech. 1952), kappa sin^2(alpha w) = 4 (1 - nu)^2
    - alpha^2 sin^2 w with kappa = 3 - 4 nu.  Raises ValueError when the
    leading root is not real (reentrant corners near a crack) or the
    inputs are out of range.
    """
    if not (0.0 < angle < 2.0 * math.pi and -1.0 < poisson <= 0.5):
        raise ValueError(f"need 0 < angle < 2 pi and -1 < nu <= 0.5, got "
                         f"angle={angle!r}, nu={poisson!r}")
    kappa = 3.0 - 4.0 * poisson

    def residual(a):
        return (kappa * math.sin(a * angle) ** 2
                + (a * math.sin(angle)) ** 2 - 4.0 * (1.0 - poisson) ** 2)

    # residual(0) < 0: march to the first sign change, then bisect
    lo, step = 0.0, 1e-2
    while residual(lo + step) < 0.0:
        lo += step
        if lo > 10.0:
            raise ValueError(f"no real corner exponent for angle={angle!r}, "
                             f"nu={poisson!r}")
    hi = lo + step
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if residual(mid) < 0.0 else (lo, mid)
    return 0.5 * (lo + hi)


def cook_tip_ratio_bound(poisson):
    """Largest admissible ratio of successive Cook tip increments when h
    halves: 2^-alpha_D, the energy-norm rate h^alpha_D that the clamped-free
    corner D allows on uniformly refined meshes.
    """
    return 2.0 ** -clamped_free_exponent(COOK_CORNER_D_ANGLE, poisson)


def require_check_meshes(config, count):
    """Raise ExperimentError when count meshes are too few for the check of
    config.problem: a slope needs two, a ratio of tip increments three."""
    need = PROBLEMS[config.problem].check_meshes
    if count < need:
        raise ExperimentError(f"checking problem {config.problem} needs at "
                              f"least {need} meshes, got {count}")


def check_convergence(table, config):
    """Threshold violations of a finished sweep (empty list if clean)."""
    require_check_meshes(config, len(table.rows))
    return PROBLEMS[config.problem].check(table, config)
