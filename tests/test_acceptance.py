"""Acceptance suite: every top-level criterion at its stated tolerance.

Each test evaluates all sub-checks of one criterion, prints one PASS/FAIL
line, and fails if any sub-check missed its tolerance.  Criteria are
asserted exactly as stated; known desk-scale transients are NOT loosened
(see the test output for the measured values).
"""

import math

import numpy as np
from fem_helpers import field_with_gradient
from oracles import galerkin_orthogonality_residual, rigid_motion_gram

from elastweak.compressible import MaterialParams
from elastweak.experiments import (ExperimentConfig, cook_tip_ratio_bound,
                                   manufactured_compressible,
                                   manufactured_incompressible,
                                   run_convergence, run_cook,
                                   solve_compressible)
from elastweak.mesh import build_cook_mesh, build_unit_square_mesh
from elastweak.norms import (compressible_infsup, discrete_korn_constant,
                             error_norms, incompressible_infsup)
from elastweak.solvers import smallest_generalized_singular_value
from elastweak.spaces import AnalyticField, FESpace, interpolate

_cache = {}


def _table(problem, order, mesh_sizes, **kw):
    key = (problem, order, mesh_sizes, tuple(sorted(kw.items())))
    if key not in _cache:
        cfg = ExperimentConfig(problem=problem, order=order,
                               mesh_sizes=mesh_sizes, **kw)
        _cache[key] = run_convergence(cfg)
    return _cache[key]


def _report(name, checks):
    """Print one line for the criterion and assert every sub-check."""
    ok = all(passed for _, passed in checks)
    detail = "; ".join(f"{label} [{'ok' if passed else 'FAIL'}]"
                       for label, passed in checks)
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} -- {detail}")
    failed = [label for label, passed in checks if not passed]
    assert ok, f"{name}: failed sub-checks: {failed}"


def test_criterion_1_compressible_convergence():
    t1 = _table("compressible", 1, (8, 16, 32, 64), mu=1.0, lam=1.0)
    sl2_1, sh1_1 = t1.rows[-1].slope_l2, t1.rows[-1].slope_h1
    t2 = _table("compressible", 2, (4, 8, 16, 32), mu=1.0, lam=1.0)
    sl2_2, sh1_2 = t2.rows[-1].slope_l2, t2.rows[-1].slope_h1
    _report("criterion 1 (compressible rates)", [
        (f"k=1 H1 slope {sh1_1:.3f} in [0.85,1.15]", 0.85 <= sh1_1 <= 1.15),
        (f"k=1 L2 slope {sl2_1:.3f} in [1.8,2.2]", 1.8 <= sl2_1 <= 2.2),
        (f"k=2 H1 slope {sh1_2:.3f} in [1.8,2.2]", 1.8 <= sh1_2 <= 2.2),
        (f"k=2 L2 slope {sl2_2:.3f} in [2.7,3.3]", 2.7 <= sl2_2 <= 3.3),
    ])


def test_criterion_2_locking_reproduction():
    mesh = build_unit_square_mesh(8)
    errs = {}
    for lam in (1.0, 1e5):
        pars = MaterialParams(1.0, lam)
        data = manufactured_compressible(pars)
        exact, f, g = data.exact_u, data.f, data.g
        u_h, _ = solve_compressible(mesh, 1, pars, f, g)
        errs[lam] = error_norms(u_h, exact, pars).l2_error
    ratio = errs[1e5] / errs[1.0]
    t2 = _table("compressible", 2, (4, 8, 16, 32), mu=1.0, lam=1e5)
    sl2, sh1 = t2.rows[-1].slope_l2, t2.rows[-1].slope_h1
    _report("criterion 2 (locking)", [
        (f"k=1 L2(lam=1e5)/L2(lam=1) = {ratio:.1f} >= 10", ratio >= 10.0),
        (f"k=2 lam=1e5 H1 slope {sh1:.3f} in [1.8,2.2]", 1.8 <= sh1 <= 2.2),
        (f"k=2 lam=1e5 L2 slope {sl2:.3f} in [2.7,3.3]", 2.7 <= sl2 <= 3.3),
    ])


def test_criterion_3_incompressible_convergence():
    checks = []
    for gamma in (0.01, 0.1, 1.0):
        t = _table("incompressible", 1, (8, 16, 32, 64), mu=1.0, lam=0.0,
                   gamma=gamma)
        sh1 = t.rows[-1].slope_h1
        ps = t.pressure_slope_last()
        checks.append((f"gamma={gamma} H1 slope {sh1:.3f} in [0.85,1.15]",
                       0.85 <= sh1 <= 1.15))
        checks.append((f"gamma={gamma} pressure slope {ps:.3f} >= 1.3",
                       ps >= 1.3))
    _report("criterion 3 (incompressible rates)", checks)


def test_criterion_4_galerkin_orthogonality():
    pars = MaterialParams(1.0, 1.0)
    data = manufactured_compressible(pars)
    exact, f, g = data.exact_u, data.f, data.g
    mesh = build_unit_square_mesh(4)
    u_h, _ = solve_compressible(mesh, 2, pars, f, g)
    res = galerkin_orthogonality_residual(mesh, u_h.space, pars, exact, u_h,
                                          degree=16)
    _report("criterion 4 (Galerkin orthogonality)", [
        (f"scaled residual {res:.2e} <= 1e-8", res <= 1e-8),
    ])


def test_criterion_5_stability_diagnostics():
    checks = []
    betas = []
    for n in (2, 4, 8, 16):
        mesh = build_unit_square_mesh(n)
        betas.append(compressible_infsup(FESpace(mesh, 1, 2),
                                         MaterialParams(1.0, 1.0)))
    checks.append((f"(a) min beta {min(betas):.3f} >= 0.5*beta(n=2)"
                   f" = {0.5 * betas[0]:.3f}", min(betas) >= 0.5 * betas[0]))
    mesh8 = build_unit_square_mesh(8)
    V8 = FESpace(mesh8, 1, 2)
    b1 = compressible_infsup(V8, MaterialParams(1.0, 1.0))
    b1000 = compressible_infsup(V8, MaterialParams(1.0, 1000.0))
    checks.append((f"(b) beta(lam=1e3) {b1000:.4f} < beta(lam=1) {b1:.4f}",
                   b1000 < b1))
    ibetas = []
    for n in (2, 4, 8, 16):
        mesh = build_unit_square_mesh(n)
        ibetas.append(incompressible_infsup(
            FESpace(mesh, 1, 2), FESpace(mesh, 1, 1),
            MaterialParams(1.0, 0.0, gamma=0.1)))
    ratio = max(ibetas) / min(ibetas)
    checks.append((f"(c) incompressible beta max/min {ratio:.3f} <= 2",
                   ratio <= 2.0))
    korns = []
    for n in (4, 8, 16, 32):
        mesh = build_unit_square_mesh(n)
        korns.append(discrete_korn_constant(FESpace(mesh, 1, 2)))
    checks.append((f"(d) min Korn {min(korns):.3f} >= 0.5*Korn(n=4)"
                   f" = {0.5 * korns[0]:.3f}", min(korns) >= 0.5 * korns[0]))
    G, ev_sq = rigid_motion_gram(build_unit_square_mesh(4))
    _, ev_cook = rigid_motion_gram(build_cook_mesh(4))
    diag_ok = np.allclose(np.diag(G), [4.0, 4.0, 1.0], atol=1e-10)
    checks.append((f"(e) RM Gram diag {np.diag(G).round(12).tolist()}"
                   " == [4,4,1]", diag_ok))
    checks.append((f"(e) smallest eigenvalues square {ev_sq:.3f}, "
                   f"cook {ev_cook:.1f} > 0", ev_sq > 0 and ev_cook > 0))
    _report("criterion 5 (stability diagnostics)", checks)


def _cook_series(problem, order, bc_mode, young, poisson, mesh_sizes):
    key = (problem, order, bc_mode, young, poisson, mesh_sizes)
    if key not in _cache:
        cfg = ExperimentConfig(problem=problem, order=order, bc_mode=bc_mode,
                               young=young, poisson=poisson, gamma=0.1,
                               mesh_sizes=mesh_sizes)
        _cache[key] = [r.qoi for r in run_cook(cfg).rows]
    return _cache[key]


def test_criterion_6_cook_membrane():
    # The clamped-free corner D caps the tip rate on uniform meshes at the
    # energy-norm rate h^alpha_D, so each halving of h must shrink the tip
    # increment by at least 2^-alpha_D (not the smooth-case 1/4).
    checks = []
    bound = cook_tip_ratio_bound(0.3333)
    for order in (1, 2):
        meshes = (8, 16, 32, 64) if order == 1 else (4, 8, 16, 32)
        tips = {}
        for bc in ("weak", "strong"):
            q = _cook_series("cook", order, bc, 1e5, 0.3333, meshes)
            tips[bc] = q
            inc = [abs(b - a) for a, b in zip(q, q[1:])]
            checks.append(
                (f"E=1e5 k={order} {bc} increment ratio "
                 f"{inc[-1] / inc[-2]:.3f} <= 2^-alpha_D = {bound:.3f}",
                 inc[-1] <= bound * inc[-2]))
        rel = abs(tips["weak"][-1] - tips["strong"][-1]) / abs(tips["strong"][-1])
        checks.append((f"E=1e5 k={order} |weak-strong| {rel:.2e} <= 1e-2",
                       rel <= 1e-2))
    near = _cook_series("nearly_incompressible", 1, "weak", 250.0, 0.4999,
                        (8, 16, 32, 64))
    comp = _cook_series("cook", 1, "weak", 250.0, 0.4999, (8, 16, 32, 64))
    inc_near = [abs(b - a) for a, b in zip(near, near[1:])]
    inc_comp = [abs(b - a) for a, b in zip(comp, comp[1:])]
    bound_near = cook_tip_ratio_bound(0.4999)
    checks.append((f"E=250 nearly-incompressible ratio "
                   f"{inc_near[-1] / inc_near[-2]:.3f} <= 2^-alpha_D = "
                   f"{bound_near:.3f}",
                   inc_near[-1] <= bound_near * inc_near[-2]))
    checks.append((f"E=250 locking ordering: compressible increment "
                   f"{inc_comp[-1]:.3f} >= 2x nearly {inc_near[-1]:.3f}",
                   inc_comp[-1] >= 2.0 * inc_near[-1]))
    _report("criterion 6 (Cook membrane)", checks)


def test_criterion_7_oracle_equivalence():
    rng = np.random.default_rng(77)
    pts = rng.uniform(0.05, 0.95, size=(20, 2))
    x, y = pts[:, 0], pts[:, 1]
    step = 1e-5
    checks = []

    pars = MaterialParams(1.0, 1.0)
    data = manufactured_compressible(pars)
    exact, f = data.exact_u, data.f

    def fd_second(u, c):
        return (u(x + step, y)[..., c] + u(x - step, y)[..., c]
                + u(x, y + step)[..., c] + u(x, y - step)[..., c]
                - 4 * u(x, y)[..., c]) / step ** 2

    def fd_div_grad(field):
        def div(a, b):
            _, g = field.jet(a, b)
            return g[..., 0, 0] + g[..., 1, 1]
        return (np.stack([(div(x + step, y) - div(x - step, y)),
                          (div(x, y + step) - div(x, y - step))],
                         axis=-1) / (2 * step))

    fd = (-pars.mu * np.stack([fd_second(exact.value, 0),
                               fd_second(exact.value, 1)], axis=-1)
          - (pars.mu + pars.lam) * fd_div_grad(exact))
    an = f.value(x, y)
    err_c = np.abs(fd - an).max() / np.abs(an).max()
    checks.append((f"compressible forcing FD error {err_c:.2e} <= 1e-6",
                   err_c <= 1e-6))

    ipars = MaterialParams(1.0, gamma=0.1)
    data = manufactured_incompressible(ipars)
    eu, ep, fi = data.exact_u, data.exact_p, data.f
    dpx = (ep.value(x + step, y) - ep.value(x - step, y)) / (2 * step)
    dpy = (ep.value(x, y + step) - ep.value(x, y - step)) / (2 * step)
    fd_i = np.stack([-ipars.mu * fd_second(eu.value, 0) + dpx,
                     -ipars.mu * fd_second(eu.value, 1) + dpy], axis=-1)
    an_i = fi.value(x, y)
    err_i = np.abs(fd_i - an_i).max() / np.abs(an_i).max()
    checks.append((f"incompressible forcing FD error {err_i:.2e} <= 1e-6",
                   err_i <= 1e-6))

    worst = 0.0
    for trial in range(5):
        B = rng.standard_normal((20, 20))
        N = B @ B.T + 20 * np.eye(20)
        A = rng.standard_normal((20, 20))
        got = smallest_generalized_singular_value(A, N)
        w, Q = np.linalg.eigh(N)
        Nmh = Q @ np.diag(w ** -0.5) @ Q.T
        ref = np.linalg.svd(Nmh @ A @ Nmh, compute_uv=False).min()
        worst = max(worst, abs(got - ref))
    checks.append((f"generalized singular value vs dense oracle "
                   f"{worst:.2e} <= 1e-8", worst <= 1e-8))
    _report("criterion 7 (oracle equivalence)", checks)


def test_criterion_8_exactness_suite():
    from elastweak.compressible import (assemble_elasticity_stiffness,
                                        assemble_strong_system,
                                        assemble_weak_system)
    from elastweak.solvers import lu_solve
    from elastweak.quadrature import triangle_rule
    checks = []

    G = np.array([[0.7, -0.2], [0.4, 0.9]])
    lin = field_with_gradient(
        lambda x, y: np.stack([0.3 + 0.7 * x - 0.2 * y,
                               -0.1 + 0.4 * x + 0.9 * y], axis=-1),
        lambda x, y: np.broadcast_to(G, np.shape(x) + (2, 2)).copy())
    zero = AnalyticField.constant_vector(0.0, 0.0)
    mesh = build_unit_square_mesh(3)
    pars = MaterialParams(mu=2.1, lam=3.7)
    worst = 0.0
    for assembler in (assemble_strong_system, assemble_weak_system):
        V = FESpace(mesh, 1, 2)
        system = assembler(V, pars, zero, lin)
        sol, _ = lu_solve(system.matrix, system.rhs)
        exact = interpolate(V, lin).coefficients
        worst = max(worst, np.abs(sol - exact).max())
    checks.append((f"patch test error {worst:.2e} <= 1e-10", worst <= 1e-10))

    V = FESpace(mesh, 1, 2)
    K = assemble_elasticity_stiffness(V, MaterialParams(1.0, 2.0))
    scale = np.abs(K.data).max()
    worst_r = 0.0
    for field in (AnalyticField.constant_vector(1.0, 0.0),
                  AnalyticField.constant_vector(0.0, 1.0),
                  AnalyticField.vector(
                      lambda x, y: np.stack([y, -x], axis=-1))):
        r = interpolate(V, field).coefficients
        worst_r = max(worst_r, abs(r @ (K @ r)))
    checks.append((f"rigid-motion energy {worst_r:.2e} <= 1e-10*scale",
                   worst_r <= 1e-10 * scale))

    rng = np.random.default_rng(8)
    worst_q = 0.0
    for degree in (4, 6, 10, 16):
        rule = triangle_rule(degree)
        exact_val = 0.0
        approx = np.zeros(rule.num_points)
        for a in range(degree + 1):
            for b in range(degree + 1 - a):
                c = rng.uniform(-1, 1)
                exact_val += c * (math.factorial(a) * math.factorial(b)
                                  / math.factorial(a + b + 2))
                approx += c * rule.points[:, 0] ** a * rule.points[:, 1] ** b
        got = float(np.sum(rule.weights * approx))
        worst_q = max(worst_q, abs(got - exact_val) / max(abs(exact_val),
                                                          1e-30))
    checks.append((f"quadrature exactness rel error {worst_q:.2e} <= 1e-12",
                   worst_q <= 1e-12))
    _report("criterion 8 (exactness suite)", checks)
