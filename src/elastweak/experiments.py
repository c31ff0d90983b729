"""Experiment drivers: manufactured solutions, the PROBLEMS table of the
paper's four settings, convergence sweeps, the Cook membrane bending
benchmark and stability diagnostics, with CSV output.
"""

import configparser
import csv
import io
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .compressible import (MaterialParams, assemble_strong_system,
                           assemble_weak_system)
from .incompressible import assemble_incompressible_system
from .mesh import (_COOK_A, _COOK_C, _COOK_D, build_cook_mesh,
                   build_unit_square_mesh, mesh_quality)
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


def manufactured_compressible(params):
    """Polynomial displacement field vanishing on the unit-square boundary.

    u = ((x^5 - x^4)(y^3 - y^2), (x^4 - x^3)(y^6 - y^5)); the body force is
    the negative divergence of 2 mu eps(u) + lam (div u) I, and the
    Dirichlet data g is identically zero.
    """
    mu, lam = params.mu, params.lam

    # factor names mirror the product structure of the solution; each is a
    # monomial times a linear factor, multiplied out without np.power
    A = lambda x: x * x * x * x * (x - 1)
    dA = lambda x: x * x * x * (5 * x - 4)
    d2A = lambda x: x * x * (20 * x - 12)
    B = lambda y: y * y * (y - 1)
    dB = lambda y: y * (3 * y - 2)
    d2B = lambda y: 6 * y - 2
    C = lambda x: x * x * x * (x - 1)
    dC = lambda x: x * x * (4 * x - 3)
    d2C = lambda x: x * (12 * x - 6)
    D = lambda y: y * y * y * y * y * (y - 1)
    dD = lambda y: y * y * y * y * (6 * y - 5)
    d2D = lambda y: y * y * y * (30 * y - 20)

    def jet(x, y):
        # the factors above and their first derivatives from one set of
        # powers
        x2 = x * x
        x3 = x2 * x
        xm1, ym1 = x - 1, y - 1
        y4 = y * y * y * y
        Ax, Cx = x3 * x * xm1, x3 * xm1
        By, Dy = y * y * ym1, y4 * y * ym1
        v = np.empty(np.shape(x) + (2,))
        v[..., 0] = Ax * By
        v[..., 1] = Cx * Dy
        g = np.empty(np.shape(x) + (2, 2))
        g[..., 0, 0] = x3 * (5 * x - 4) * By
        g[..., 0, 1] = Ax * (y * (3 * y - 2))
        g[..., 1, 0] = x2 * (4 * x - 3) * Dy
        g[..., 1, 1] = Cx * (y4 * (6 * y - 5))
        return v, g

    def force(x, y):
        lap1 = d2A(x) * B(y) + A(x) * d2B(y)
        lap2 = d2C(x) * D(y) + C(x) * d2D(y)
        ddiv_dx = d2A(x) * B(y) + dC(x) * dD(y)
        ddiv_dy = dA(x) * dB(y) + C(x) * d2D(y)
        f1 = -mu * lap1 - (mu + lam) * ddiv_dx
        f2 = -mu * lap2 - (mu + lam) * ddiv_dy
        return np.stack([f1, f2], axis=-1)

    return ProblemData(
        f=AnalyticField.vector(force),
        g=AnalyticField.constant_vector(0.0, 0.0),
        exact_u=AnalyticField.vector(lambda x, y: jet(x, y)[0], jet))


def manufactured_incompressible(params):
    """Divergence-free trigonometric velocity with zero-mean pressure.

    u = (sin(4 pi x) cos(4 pi y), -cos(4 pi x) sin(4 pi y)),
    p = pi cos(4 pi x) cos(4 pi y); f = -2 mu div eps(u) + grad p, and the
    Dirichlet data g is u itself.
    """
    mu = params.mu
    w = 4.0 * math.pi

    # the velocity fields and the pressure share these four values, computed
    # once per call
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

    def u_jet(x, y):
        t = sx, cx, sy, cy = trig(x, y)
        g = np.empty(np.shape(x) + (2, 2))
        g[..., 0, 0] = w * cx * cy
        g[..., 0, 1] = -w * sx * sy
        g[..., 1, 0] = w * sx * sy
        g[..., 1, 1] = -w * cx * cy
        return velocity(*t), g

    def p_jet(x, y):
        t = _, cx, _, cy = trig(x, y)
        return math.pi * cx * cy, pressure_gradient(*t)

    def force(x, y):
        # -mu lap u + grad p (u is divergence free)
        t = trig(x, y)
        return 2.0 * mu * w ** 2 * velocity(*t) + pressure_gradient(*t)

    exact_u = AnalyticField.vector(lambda x, y: velocity(*trig(x, y)), u_jet)
    return ProblemData(
        f=AnalyticField.vector(force), g=exact_u, exact_u=exact_u,
        exact_p=AnalyticField.scalar(lambda x, y: p_jet(x, y)[0], p_jet))


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
    problem: str = "compressible"
    order: int = 1
    mesh_sizes: tuple = None
    mu: float = 1.0
    lam: float = 1.0
    gamma: float = 0.1
    young: float = None
    poisson: float = None
    bc_mode: str = "weak"
    out_dir: str = "."

    def __post_init__(self):
        for name, known in _CHOICES.items():
            if getattr(self, name) not in known:
                raise ValueError(f"unknown {name} {getattr(self, name)!r}; "
                                 f"expected one of {known}")
        if self.young is not None or self.poisson is not None:
            pars = MaterialParams.from_young_poisson(self.young, self.poisson,
                                                     gamma=self.gamma)
            self.mu, self.lam = pars.mu, pars.lam
        if self.mesh_sizes is None:
            self.mesh_sizes = (8, 16, 32, 64) if self.order == 1 else (4, 8, 16, 32)
        self.mesh_sizes = tuple(int(n) for n in self.mesh_sizes)
        if not self.mesh_sizes:
            raise ValueError("mesh_sizes must name at least one mesh")
        if self.mesh_sizes[0] < 1 or any(
                a >= b for a, b in zip(self.mesh_sizes, self.mesh_sizes[1:])):
            raise ValueError(f"mesh_sizes must be positive and strictly "
                             f"increasing, got {self.mesh_sizes}")
        gamma = self.params.gamma   # MaterialParams rejects bad mu, lam, gamma
        if (PROBLEMS[self.problem].formulation != "compressible"
                and not (gamma is not None and gamma > 0.0)):
            raise ValueError(f"stabilization parameter gamma must be "
                             f"positive, got {gamma!r}")

    @property
    def params(self):
        return MaterialParams(mu=self.mu, lam=self.lam, gamma=self.gamma)

    @classmethod
    def from_mapping(cls, section):
        """Config from [run] keys; values are strings or already cast.

        Raises ValueError naming any key that is not a [run] key.
        """
        unknown = sorted(set(section) - set(RUN_KEYS))
        if unknown:
            raise ValueError(f"unknown [run] keys: {', '.join(unknown)}; "
                             f"known keys: {', '.join(RUN_KEYS)}")
        kwargs = {}
        # table order sets precedence: k over order, lam over lambda
        for key, (name, cast) in RUN_KEYS.items():
            if key in section:
                kwargs[name] = cast(section[key])
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path, overrides=None):
        """Config from the [run] section of a file, updated by overrides."""
        parser = configparser.ConfigParser()
        try:
            read = parser.read(path)
        except configparser.Error as exc:
            raise ValueError(f"cannot parse config file {path}: {exc}") from exc
        if not read:
            raise ValueError(f"cannot read config file {path}")
        if "run" not in parser:
            raise ValueError("config file needs a [run] section")
        sec = dict(parser["run"])
        if overrides:
            sec.update({k: v for k, v in overrides.items() if v is not None})
        return cls.from_mapping(sec)


def _mesh_sizes(text):
    return tuple(int(tok) for tok in text.replace(",", " ").split())


# [run] key -> (ExperimentConfig field, cast)
RUN_KEYS = {
    "problem": ("problem", str), "order": ("order", int), "k": ("order", int),
    "mesh_sizes": ("mesh_sizes", _mesh_sizes), "mu": ("mu", float),
    "lambda": ("lam", float), "lam": ("lam", float), "gamma": ("gamma", float),
    "young": ("young", float), "poisson": ("poisson", float),
    "bc_mode": ("bc_mode", str), "out_dir": ("out_dir", str),
}


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


def _lu_solve(matrix, rhs, context):
    try:
        return lu_solve(matrix, rhs)
    except SingularSystemError as exc:
        raise ExperimentError(f"solver failed for {context}: {exc}") from exc


def _check_residual(residual, context):
    # a NaN residual fails too
    if not residual <= RESIDUAL_LIMIT:
        raise ExperimentError(
            f"relative residual {residual:.3e} is not at most "
            f"{RESIDUAL_LIMIT:.1e} for {context}")


def _checked_solve(matrix, rhs, context):
    x, report = _lu_solve(matrix, rhs, context)
    _check_residual(report.residual_norm, context)
    return x


def _pinned_mean_solve(mixed, rhs, context):
    """Solve the pressure-mean bordered system [[C, m], [m^T, 0]] [x; lam] = b
    without factoring its dense border.

    The constant pressure (0, 1) spans both the right and the left kernel of
    the core C: summing the pressure rows gives lam exactly, C x = b - lam m
    is then consistent and is solved with the last pressure DOF pinned to 0,
    and the border row m . x = b[nc] fixes the pressure constant.  The
    residual limit applies to the full bordered system.
    """
    A = mixed.system.matrix
    nc = mixed.constraint_index
    pressure = slice(mixed.n_velocity, nc)
    m = A[nc, :nc].toarray().ravel()
    x = np.zeros(nc + 1)
    x[nc] = rhs[pressure].sum() / m[pressure].sum()
    x[:nc - 1], _ = _lu_solve(A[:nc - 1, :nc - 1],
                              (rhs[:nc] - x[nc] * m)[:nc - 1], context)
    x[pressure] += (rhs[nc] - m @ x[:nc]) / m[pressure].sum()
    _check_residual(_norm_ratio(_residual_extended(A, x, rhs), rhs), context)
    return x


def solve_compressible(mesh, order, params, f, g, bc_mode="weak",
                       dirichlet_sides=None, neumann=None):
    space = FESpace(mesh, order, 2)
    assemble = (assemble_weak_system if bc_mode == "weak"
                else assemble_strong_system)
    system = assemble(space, params, f, g, dirichlet_sides, neumann=neumann)
    x = _checked_solve(system.matrix, system.rhs,
                       f"{bc_mode} compressible solve")
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
        x = _checked_solve(mixed.system.matrix, mixed.system.rhs, context)
    else:
        x = _pinned_mean_solve(mixed, mixed.system.rhs, context)
    uc, pc, mult = mixed.split(x)
    return DiscreteField(vspace, uc), DiscreteField(pspace, pc), mult, mixed


# -- drivers ---------------------------------------------------------------------


def _sweep(config, row):
    """ConvergenceTable of config.problem with one row per mesh: h_max and
    the ConvergenceRow fields that row(mesh) returns."""
    problem = PROBLEMS[config.problem]
    table = ConvergenceTable(problem=problem.csv_name, order=config.order,
                             bc_mode=config.bc_mode)
    for n in config.mesh_sizes:
        mesh = problem.mesh(n)
        quality = mesh_quality(mesh)
        try:
            fields = row(mesh)
        except ExperimentError as exc:
            raise ExperimentError(f"mesh n={n}: {exc}") from exc
        table.add(ConvergenceRow(h_max=quality.h_max, **fields))
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
            p_h = None
        else:
            u_h, p_h, _, mixed = solve_incompressible(
                mesh, config.order, params, data.f, data.g, nearly_lambda,
                config.bc_mode, problem.dirichlet_sides, data.neumann)
            system = mixed.system
        if rows == "tip":
            return {"dofs": system.dof_count,
                    "qoi": cook_tip_displacement(u_h)}
        return {"dofs": system.dof_count, "report": error_norms(
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
