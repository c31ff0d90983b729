"""Experiment drivers: manufactured solutions, convergence sweeps, the Cook
membrane bending benchmark and stability diagnostics, with CSV output.
"""

import configparser
import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np

from .compressible import (MaterialParams, assemble_strong_system,
                           assemble_neumann_load, assemble_weak_system)
from .incompressible import assemble_incompressible_system
from .mesh import (_COOK_A, _COOK_C, _COOK_D, build_cook_mesh,
                   build_unit_square_mesh, mesh_quality)
from .norms import (ErrorReport, StabilityReport, compressible_infsup,
                    discrete_korn_constant, error_norms,
                    incompressible_infsup)
from .solvers import SingularSystemError, _residual_extended, lu_solve
from .spaces import AnalyticField, DiscreteField, FESpace

CSV_HEADER = ("problem", "k", "bc_mode", "h_max", "dofs", "err_l2", "err_h1",
              "err_triple", "err_p_l2", "slope_l2", "slope_h1", "beta_h",
              "korn_h", "qoi")

RESIDUAL_LIMIT = 1e-8


class ExperimentError(RuntimeError):
    """A solver failure or invalid configuration inside a sweep."""


# -- manufactured solutions ----------------------------------------------------


def manufactured_compressible(params):
    """Polynomial displacement field vanishing on the unit-square boundary.

    u = ((x^5 - x^4)(y^3 - y^2), (x^4 - x^3)(y^6 - y^5)); the body force is
    the negative divergence of 2 mu eps(u) + lam (div u) I.  Returns
    (exact u, f, g) with g identically zero.
    """
    mu, lam = params.mu, params.lam

    # factor names mirror the product structure of the solution
    A = lambda x: x ** 5 - x ** 4
    dA = lambda x: 5 * x ** 4 - 4 * x ** 3
    d2A = lambda x: 20 * x ** 3 - 12 * x ** 2
    B = lambda y: y ** 3 - y ** 2
    dB = lambda y: 3 * y ** 2 - 2 * y
    d2B = lambda y: 6 * y - 2
    C = lambda x: x ** 4 - x ** 3
    dC = lambda x: 4 * x ** 3 - 3 * x ** 2
    d2C = lambda x: 12 * x ** 2 - 6 * x
    D = lambda y: y ** 6 - y ** 5
    dD = lambda y: 6 * y ** 5 - 5 * y ** 4
    d2D = lambda y: 30 * y ** 4 - 20 * y ** 3

    def value(x, y):
        return np.stack([A(x) * B(y), C(x) * D(y)], axis=-1)

    def gradient(x, y):
        g = np.empty(np.shape(x) + (2, 2))
        g[..., 0, 0] = dA(x) * B(y)
        g[..., 0, 1] = A(x) * dB(y)
        g[..., 1, 0] = dC(x) * D(y)
        g[..., 1, 1] = C(x) * dD(y)
        return g

    def force(x, y):
        lap1 = d2A(x) * B(y) + A(x) * d2B(y)
        lap2 = d2C(x) * D(y) + C(x) * d2D(y)
        ddiv_dx = d2A(x) * B(y) + dC(x) * dD(y)
        ddiv_dy = dA(x) * dB(y) + C(x) * d2D(y)
        f1 = -mu * lap1 - (mu + lam) * ddiv_dx
        f2 = -mu * lap2 - (mu + lam) * ddiv_dy
        return np.stack([f1, f2], axis=-1)

    exact = AnalyticField.vector(value, gradient)
    f = AnalyticField.vector(force)
    g = AnalyticField.constant_vector(0.0, 0.0)
    return exact, f, g


def manufactured_incompressible(params):
    """Divergence-free trigonometric velocity with zero-mean pressure.

    u = (sin(4 pi x) cos(4 pi y), -cos(4 pi x) sin(4 pi y)),
    p = pi cos(4 pi x) cos(4 pi y); f = -2 mu div eps(u) + grad p.
    Returns (exact u, exact p, f, g).
    """
    mu = params.mu
    w = 4.0 * math.pi

    def value(x, y):
        return np.stack([np.sin(w * x) * np.cos(w * y),
                         -np.cos(w * x) * np.sin(w * y)], axis=-1)

    def gradient(x, y):
        g = np.empty(np.shape(x) + (2, 2))
        g[..., 0, 0] = w * np.cos(w * x) * np.cos(w * y)
        g[..., 0, 1] = -w * np.sin(w * x) * np.sin(w * y)
        g[..., 1, 0] = w * np.sin(w * x) * np.sin(w * y)
        g[..., 1, 1] = -w * np.cos(w * x) * np.cos(w * y)
        return g

    def p_value(x, y):
        return math.pi * np.cos(w * x) * np.cos(w * y)

    def p_gradient(x, y):
        return np.stack([-math.pi * w * np.sin(w * x) * np.cos(w * y),
                         -math.pi * w * np.cos(w * x) * np.sin(w * y)],
                        axis=-1)

    def force(x, y):
        # -mu lap u + grad p (u is divergence free)
        f = 2.0 * mu * w ** 2 * value(x, y)
        return f + p_gradient(x, y)

    exact_u = AnalyticField.vector(value, gradient)
    exact_p = AnalyticField.scalar(p_value, p_gradient)
    f = AnalyticField.vector(force)
    return exact_u, exact_p, f, exact_u


# -- configuration ---------------------------------------------------------------


_CHOICES = {
    "problem": ("compressible", "incompressible", "nearly_incompressible",
                "cook"),
    "order": (1, 2),
    "bc_mode": ("weak", "strong"),
    "formulation": ("compressible", "nearly_incompressible"),
    "stab_h": ("element", "global"),
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
    formulation: str = "compressible"   # cook runs: compressible | nearly_incompressible
    stab_h: str = "element"
    rhs_degree: int = 10
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
        stabilized = (self.problem in ("incompressible", "nearly_incompressible")
                      or (self.problem == "cook"
                          and self.formulation == "nearly_incompressible"))
        if stabilized and not (gamma is not None and gamma > 0.0):
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
            if key in section and name is not None:
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


# [run] key -> (ExperimentConfig field, cast).  "deterministic" is accepted
# and ignored: output is always byte-stable.
RUN_KEYS = {
    "problem": ("problem", str), "order": ("order", int), "k": ("order", int),
    "mesh_sizes": ("mesh_sizes", _mesh_sizes), "mu": ("mu", float),
    "lambda": ("lam", float), "lam": ("lam", float), "gamma": ("gamma", float),
    "young": ("young", float), "poisson": ("poisson", float),
    "bc_mode": ("bc_mode", str), "formulation": ("formulation", str),
    "stab_h": ("stab_h", str), "rhs_degree": ("rhs_degree", int),
    "out_dir": ("out_dir", str), "deterministic": (None, None),
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

    def last_slopes(self):
        return self.rows[-1].slope_l2, self.rows[-1].slope_h1

    def pressure_slope_last(self):
        a, b = self.rows[-2], self.rows[-1]
        return (math.log(a.report.pressure_l2_error
                         / b.report.pressure_l2_error)
                / math.log(a.h_max / b.h_max))

    def to_csv(self):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for r in self.rows:
            rep = r.report
            writer.writerow([
                self.problem, self.order, self.bc_mode,
                _fmt(r.h_max), r.dofs,
                _fmt(rep.l2_error if rep else None),
                _fmt(rep.h1_semi_error if rep else None),
                _fmt(rep.triple_norm_error if rep else None),
                _fmt(rep.pressure_l2_error if rep else None),
                _fmt(r.slope_l2), _fmt(r.slope_h1),
                _fmt(r.beta_h), _fmt(r.korn_h), _fmt(r.qoi),
            ])
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
    if residual > RESIDUAL_LIMIT:
        raise ExperimentError(
            f"relative residual {residual:.3e} exceeds "
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
    r = _residual_extended(A, x, rhs).astype(float)
    _check_residual(np.linalg.norm(r) / (np.linalg.norm(rhs) or 1.0), context)
    return x


def solve_compressible(mesh, order, params, f, g, bc_mode="weak",
                       dirichlet_sides=None, rhs_degree=10):
    space = FESpace(mesh, order, 2)
    if bc_mode == "weak":
        system = assemble_weak_system(mesh, space, params, f, g,
                                      dirichlet_sides, rhs_degree)
    else:
        system = assemble_strong_system(mesh, space, params, f, g,
                                        dirichlet_sides, rhs_degree)
    x = _checked_solve(system.matrix, system.rhs,
                       f"{bc_mode} compressible solve")
    return DiscreteField(space, x), system


def solve_incompressible(mesh, order, params, f, g, nearly_lambda=None,
                         bc_mode="weak", dirichlet_sides=None, rhs_degree=10,
                         stab_h="element"):
    vspace = FESpace(mesh, order, 2)
    pspace = FESpace(mesh, order, 1)
    mixed = assemble_incompressible_system(
        mesh, vspace, pspace, params, f, g, nearly_lambda=nearly_lambda,
        dirichlet_sides=dirichlet_sides, bc_mode=bc_mode,
        rhs_degree=rhs_degree, stab_h=stab_h)
    context = f"{bc_mode} incompressible solve"
    if mixed.constraint_index is None:
        x = _checked_solve(mixed.system.matrix, mixed.system.rhs, context)
    else:
        x = _pinned_mean_solve(mixed, mixed.system.rhs, context)
    uc, pc, mult = mixed.split(x)
    return DiscreteField(vspace, uc), DiscreteField(pspace, pc), mult, mixed


# -- drivers ---------------------------------------------------------------------


def run_convergence(config):
    """Manufactured-solution sweep; returns a ConvergenceTable."""
    params = config.params
    table = ConvergenceTable(problem=config.problem, order=config.order,
                             bc_mode=config.bc_mode)
    if config.problem not in ("compressible", "incompressible"):
        raise ValueError(
            "run_convergence handles compressible/incompressible only")
    for n in config.mesh_sizes:
        mesh = build_unit_square_mesh(n)
        quality = mesh_quality(mesh)
        try:
            if config.problem == "compressible":
                exact, f, g = manufactured_compressible(params)
                u_h, system = solve_compressible(
                    mesh, config.order, params, f, g, config.bc_mode,
                    rhs_degree=config.rhs_degree)
                report = error_norms(u_h, exact, params)
            else:
                exact_u, exact_p, f, g = manufactured_incompressible(params)
                u_h, p_h, _, mixed = solve_incompressible(
                    mesh, config.order, params, f, g, bc_mode=config.bc_mode,
                    rhs_degree=config.rhs_degree, stab_h=config.stab_h)
                report = error_norms(u_h, exact_u, params, p_h, exact_p)
                system = mixed.system
        except ExperimentError as exc:
            raise ExperimentError(f"mesh n={n}: {exc}") from exc
        table.add(ConvergenceRow(h_max=quality.h_max, dofs=system.dof_count,
                                 report=report))
    return table


def cook_tip_displacement(mesh, solution_field):
    """Vertical displacement at the mesh vertex on the corner A = (48, 60)."""
    dist = np.hypot(*(mesh.vertices - _COOK_A).T)
    tip = int(np.argmin(dist))
    if dist[tip] > 1e-9 * math.hypot(*_COOK_A):
        raise ValueError("no mesh vertex at the Cook corner A = (48, 60)")
    return float(solution_field.coefficients[2 * tip + 1])


def run_cook(config):
    """Cook membrane sweep: clamped on CD, traction (0, 100) on AB.

    Returns a ConvergenceTable whose rows carry the tip displacement as qoi.
    """
    params = config.params
    fzero = AnalyticField.constant_vector(0.0, 0.0)
    gzero = AnalyticField.constant_vector(0.0, 0.0)
    traction = AnalyticField.constant_vector(0.0, 100.0)
    table = ConvergenceTable(problem="cook", order=config.order,
                             bc_mode=config.bc_mode)
    for n in config.mesh_sizes:
        mesh = build_cook_mesh(n)
        quality = mesh_quality(mesh)
        space = FESpace(mesh, config.order, 2)
        if config.formulation == "compressible":
            assemble = (assemble_weak_system if config.bc_mode == "weak"
                        else assemble_strong_system)
            system = assemble(mesh, space, params, fzero, gzero,
                              dirichlet_sides=("CD",))
        else:
            system = assemble_incompressible_system(
                mesh, space, FESpace(mesh, config.order, 1), params, fzero,
                gzero, nearly_lambda=params.lam, dirichlet_sides=("CD",),
                bc_mode=config.bc_mode, stab_h=config.stab_h).system
        rhs = system.rhs.copy()
        rhs[:space.dof_count] += assemble_neumann_load(space, "AB", traction)
        if config.bc_mode == "strong":
            # the clamped rows hold the Dirichlet value g = 0
            rhs[space.expand_dofs(space.scalar_side_dofs("CD"))] = 0.0
        x = _checked_solve(system.matrix, rhs, f"cook {config.formulation} "
                           f"{config.bc_mode} n={n}")
        u_h = DiscreteField(space, x[:space.dof_count])
        table.add(ConvergenceRow(h_max=quality.h_max, dofs=system.dof_count,
                                 qoi=cook_tip_displacement(mesh, u_h)))
    return table


def run_stability_diagnostics(config):
    """Inf-sup and Korn constants per mesh; returns StabilityReport list."""
    params = config.params
    reports = []
    for n in config.mesh_sizes:
        mesh = build_unit_square_mesh(n)
        quality = mesh_quality(mesh)
        vspace = FESpace(mesh, config.order, 2)
        if config.problem == "incompressible":
            pspace = FESpace(mesh, config.order, 1)
            beta = incompressible_infsup(mesh, vspace, pspace, params)
        else:
            beta = compressible_infsup(mesh, vspace, params)
        korn = discrete_korn_constant(mesh, vspace)
        reports.append(StabilityReport(
            beta_h=beta, korn_const_h=korn, h_max=quality.h_max,
            parameters={"mu": params.mu, "lambda": params.lam,
                        "gamma": params.gamma, "k": config.order, "n": n}))
    return reports


def stability_csv(config, reports):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for rep in reports:
        writer.writerow([config.problem, config.order, config.bc_mode,
                         _fmt(rep.h_max), "", "", "", "", "", "", "",
                         _fmt(rep.beta_h), _fmt(rep.korn_const_h), ""])
    return buf.getvalue()


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


def check_convergence(table, config):
    """Slope-band violations for a finished sweep (empty list if clean)."""
    violations = []
    slope_l2, slope_h1 = table.last_slopes()
    if config.problem == "compressible":
        lo, hi = (0.85, 1.15) if config.order == 1 else (1.8, 2.2)
        if not lo <= slope_h1 <= hi:
            violations.append(f"H1 slope {slope_h1:.3f} outside [{lo}, {hi}]")
        lo2, hi2 = (1.8, 2.2) if config.order == 1 else (2.7, 3.3)
        if not lo2 <= slope_l2 <= hi2:
            violations.append(f"L2 slope {slope_l2:.3f} outside [{lo2}, {hi2}]")
    elif config.problem == "incompressible":
        if not 0.85 <= slope_h1 <= 1.15:
            violations.append(f"velocity H1 slope {slope_h1:.3f} "
                              "outside [0.85, 1.15]")
        ps = table.pressure_slope_last()
        if ps < 1.3:
            violations.append(f"pressure L2 slope {ps:.3f} below 1.3")
    elif config.problem == "cook":
        q = [r.qoi for r in table.rows]
        if len(q) >= 3:
            nu = config.poisson
            if nu is None:
                nu = config.lam / (2.0 * (config.lam + config.mu))
            bound = cook_tip_ratio_bound(nu)
            inc = [abs(b - a) for a, b in zip(q, q[1:])]
            if not inc[-1] <= bound * inc[-2]:
                violations.append(
                    "tip displacement sequence is not settling: last "
                    f"increment {inc[-1]:.3g} exceeds 2^-alpha_D = "
                    f"{bound:.3f} times the previous {inc[-2]:.3g}")
    return violations
