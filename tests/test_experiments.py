import math
import re

import numpy as np
import pytest

from oracles import compressible_field_reference

from elastweak.compressible import MaterialParams
from elastweak.experiments import (COOK_CORNER_D_ANGLE, CSV_HEADER, PROBLEMS,
                                   ConvergenceRow, ConvergenceTable,
                                   ExperimentConfig, ProblemData,
                                   check_convergence,
                                   clamped_free_exponent,
                                   cook_tip_displacement,
                                   cook_tip_ratio_bound,
                                   manufactured_compressible,
                                   manufactured_incompressible,
                                   run_convergence, run_cook,
                                   run_stability_diagnostics)
from elastweak.norms import ErrorReport
from elastweak.spaces import AnalyticField


def test_compressible_solution_vanishes_on_boundary():
    data = manufactured_compressible(MaterialParams(1.0, 1.0))
    exact, g = data.exact_u, data.g
    t = np.linspace(0.0, 1.0, 33)
    zero = np.zeros_like(t)
    one = np.ones_like(t)
    for xs, ys in ((t, zero), (t, one), (zero, t), (one, t)):
        assert np.abs(exact.value(xs, ys)).max() < 1e-15
        assert np.abs(g.value(xs, ys)).max() == 0.0


def test_compressible_point_value():
    exact = manufactured_compressible(MaterialParams(1.0, 1.0)).exact_u
    val = exact.value(np.array(0.5), np.array(0.5))
    assert val[0] == pytest.approx(0.00390625, abs=1e-15)
    assert val[1] == pytest.approx(0.0009765625, abs=1e-15)


def _points_with_boundary(seed, count=200):
    """Random points of the unit square plus points on each of its sides."""
    rng = np.random.default_rng(seed)
    t = rng.uniform(0.0, 1.0, size=8)
    zero, one = np.zeros_like(t), np.ones_like(t)
    sides = [np.stack(xy, axis=1)
             for xy in ((t, zero), (t, one), (zero, t), (one, t))]
    return np.vstack([rng.uniform(0.0, 1.0, size=(count, 2)), *sides,
                      [[0.0, 0.0], [1.0, 1.0]]])


@pytest.mark.parametrize("shape", [(), (236,), (4, 59)],
                         ids=["0-d", "1-d", "2-d"])
@pytest.mark.parametrize("mu,lam", [(1.0, 1.0), (2.0, 10.0)])
def test_compressible_field_matches_product_of_factors(shape, mu, lam):
    # the force and the jet from one set of powers are the oracle's
    # products of univariate factors, component planes returned
    # component-last
    pars = MaterialParams(mu, lam)
    data = manufactured_compressible(pars)
    force, jet = compressible_field_reference(pars)
    # 236 points: the four corners with the other two added
    pts = np.vstack([_points_with_boundary(29), [[1.0, 0.0], [0.0, 1.0]]])
    if shape:
        inputs = [(pts[:, 0].reshape(shape), pts[:, 1].reshape(shape))]
    else:
        inputs = [(np.array(a), np.array(b)) for a, b in pts]
    for x, y in inputs:
        got = (*data.exact_u.jet(x, y), data.f.value(x, y))
        want = (*jet(x, y), force(x, y))
        assert np.array_equal(got[0], data.exact_u.value(x, y))
        for a, b, axes in zip(got, want, (1, 2, 1)):
            assert a.shape == b.shape == shape + (2,) * axes
            assert np.abs(a - b).max() <= 1e-13 * np.abs(b).max()
            planes = np.moveaxis(a, tuple(range(-axes, 0)), tuple(range(axes)))
            assert planes.flags.c_contiguous


def test_compressible_value_is_the_expanded_polynomial():
    exact = manufactured_compressible(MaterialParams(1.0, 1.0)).exact_u
    pts = _points_with_boundary(5)
    x, y = pts[:, 0], pts[:, 1]
    expected = np.stack([(x ** 5 - x ** 4) * (y ** 3 - y ** 2),
                         (x ** 4 - x ** 3) * (y ** 6 - y ** 5)], axis=-1)
    val = exact.value(x, y)
    assert val.shape == expected.shape
    assert np.abs(val - expected).max() <= 1e-15


@pytest.mark.parametrize("name,make,has_pressure", [
    ("compressible", manufactured_compressible, False),
    ("incompressible", manufactured_incompressible, True)],
    ids=["compressible", "incompressible"])
def test_manufactured_solutions_are_the_problem_data(name, make, has_pressure):
    assert PROBLEMS[name].data is make
    data = make(MaterialParams(1.0, 1.0, gamma=0.1))
    assert isinstance(data, ProblemData) and data.neumann is None
    assert data.exact_u is not None
    assert (data.exact_p is not None) == has_pressure


def _central_gradient(fn, x, y, step=1e-6):
    """Central differences of fn in x and y, stacked on a new last axis."""
    return np.stack([(fn(x + step, y) - fn(x - step, y)) / (2 * step),
                     (fn(x, y + step) - fn(x, y - step)) / (2 * step)],
                    axis=-1)


def _exact_fields():
    pars = MaterialParams(2.0, 10.0, gamma=0.1)
    mixed = manufactured_incompressible(pars)
    return {"compressible u": manufactured_compressible(pars).exact_u,
            "incompressible u": mixed.exact_u,
            "incompressible p": mixed.exact_p}


@pytest.mark.parametrize("name", ["compressible u", "incompressible u",
                                  "incompressible p"])
def test_gradients_match_central_differences(name):
    field = _exact_fields()[name]
    pts = _points_with_boundary(11)
    x, y = pts[:, 0], pts[:, 1]
    _, an = field.jet(x, y)
    fd = _central_gradient(field.value, x, y)
    assert an.shape == fd.shape
    assert np.abs(fd - an).max() / np.abs(an).max() <= 1e-7


def _finite_difference_force(exact, mu, lam, pts, step):
    x, y = pts[:, 0], pts[:, 1]
    u = exact.value

    def lap(component):
        return (u(x + step, y)[..., component] + u(x - step, y)[..., component]
                + u(x, y + step)[..., component] + u(x, y - step)[..., component]
                - 4 * u(x, y)[..., component]) / step ** 2

    def div(a, b):
        _, g = exact.jet(a, b)
        return g[..., 0, 0] + g[..., 1, 1]

    ddiv_dx = (div(x + step, y) - div(x - step, y)) / (2 * step)
    ddiv_dy = (div(x, y + step) - div(x, y - step)) / (2 * step)
    f1 = -mu * lap(0) - (mu + lam) * ddiv_dx
    f2 = -mu * lap(1) - (mu + lam) * ddiv_dy
    return np.stack([f1, f2], axis=-1)


@pytest.mark.parametrize("mu,lam", [(1.0, 1.0), (2.0, 10.0)])
def test_compressible_force_matches_finite_differences(mu, lam):
    pars = MaterialParams(mu, lam)
    data = manufactured_compressible(pars)
    exact, f = data.exact_u, data.f
    rng = np.random.default_rng(17)
    pts = rng.uniform(0.05, 0.95, size=(20, 2))
    fd = _finite_difference_force(exact, mu, lam, pts, step=1e-5)
    an = f.value(pts[:, 0], pts[:, 1])
    assert np.abs(fd - an).max() / np.abs(an).max() <= 1e-6


def test_incompressible_fields():
    pars = MaterialParams(1.0, gamma=0.1)
    data = manufactured_incompressible(pars)
    rng = np.random.default_rng(23)
    pts = rng.uniform(0, 1, size=(20, 2))
    x, y = pts[:, 0], pts[:, 1]
    _, grad = data.exact_u.jet(x, y)
    assert np.abs(grad[..., 0, 0] + grad[..., 1, 1]).max() < 1e-12
    expected = np.stack([
        28 * math.pi ** 2 * np.sin(4 * math.pi * x) * np.cos(4 * math.pi * y),
        -36 * math.pi ** 2 * np.cos(4 * math.pi * x) * np.sin(4 * math.pi * y),
    ], axis=-1)
    assert np.abs(data.f.value(x, y) - expected).max() < 1e-10
    assert data.g is data.exact_u


def test_incompressible_pressure_zero_mean():
    from elastweak.mesh import build_unit_square_mesh
    from fem_helpers import integrate_field
    pars = MaterialParams(1.0, gamma=0.1)
    exact_p = manufactured_incompressible(pars).exact_p
    mesh = build_unit_square_mesh(8)
    val = integrate_field(mesh, exact_p.value, quadrature_degree=20)
    assert abs(val) < 1e-10


def test_incompressible_force_matches_finite_differences():
    pars = MaterialParams(3.0, gamma=0.1)
    data = manufactured_incompressible(pars)
    exact_u, exact_p, f = data.exact_u, data.exact_p, data.f
    rng = np.random.default_rng(31)
    pts = rng.uniform(0.05, 0.95, size=(20, 2))
    x, y = pts[:, 0], pts[:, 1]
    step = 1e-5
    u = exact_u.value

    def lap(c):
        return (u(x + step, y)[..., c] + u(x - step, y)[..., c]
                + u(x, y + step)[..., c] + u(x, y - step)[..., c]
                - 4 * u(x, y)[..., c]) / step ** 2

    dpx = (exact_p.value(x + step, y) - exact_p.value(x - step, y)) / (2 * step)
    dpy = (exact_p.value(x, y + step) - exact_p.value(x, y - step)) / (2 * step)
    fd = np.stack([-pars.mu * lap(0) + dpx, -pars.mu * lap(1) + dpy], axis=-1)
    an = f.value(x, y)
    assert np.abs(fd - an).max() / np.abs(an).max() <= 1e-6


def test_young_poisson_conversions():
    pars = MaterialParams.from_young_poisson(1e5, 0.3333)
    assert round(pars.mu) == 37501
    assert round(pars.lam) == 74979
    pars2 = MaterialParams.from_young_poisson(250.0, 0.4999)
    assert round(pars2.mu) == 83
    # exact arithmetic puts lambda at 416611.1; the quoted benchmark value
    # is 416610, one unit below the exactly converted figure
    assert abs(pars2.lam - 416610.0) < 1.2


@pytest.mark.parametrize("kwargs", [
    dict(young=1e5), dict(poisson=0.3), dict(young=1e5, poisson=0.5),
])
def test_config_rejects_incomplete_young_poisson(kwargs):
    with pytest.raises(ValueError):
        ExperimentConfig(problem="cook", **kwargs)


@pytest.mark.parametrize("lame", [dict(mu=7.0), dict(lam=3.0),
                                  dict(mu=7.0, lam=3.0), dict(mu=1.0)],
                         ids=["mu", "lam", "both", "default-value"])
def test_config_rejects_lame_parameters_with_young_poisson(lame):
    # an explicit value, the default's included, is not silently replaced
    with pytest.raises(ValueError, match="not both"):
        ExperimentConfig(problem="cook", young=1e5, poisson=0.3333, **lame)


@pytest.mark.parametrize("order", [1, 2])
def test_cook_tip_found_by_position(order):
    import dataclasses
    from elastweak.mesh import build_cook_mesh, build_unit_square_mesh
    from elastweak.spaces import AnalyticField, FESpace, interpolate
    # the vertical component x*y peaks only at A = (48, 60)
    field = AnalyticField.vector(
        lambda x, y: np.stack([0 * x, x * y], axis=-1))
    mesh = build_cook_mesh(2)
    u = interpolate(FESpace(mesh, order, 2), field)
    assert cook_tip_displacement(u) == 2880.0
    assert u.coefficients[2 * mesh.num_vertices - 1] == 2880.0

    # reversed numbering puts A first
    new_to_old = np.arange(mesh.num_vertices)[::-1]
    old_to_new = np.argsort(new_to_old)
    permuted = dataclasses.replace(
        mesh, vertices=mesh.vertices[new_to_old],
        triangles=old_to_new[mesh.triangles],
        edge_vertices=old_to_new[mesh.edge_vertices])
    u = interpolate(FESpace(permuted, order, 2), field)
    assert cook_tip_displacement(u) == 2880.0

    square = build_unit_square_mesh(2)
    with pytest.raises(ValueError):
        cook_tip_displacement(interpolate(FESpace(square, order, 2), field))


def test_config_young_poisson_and_defaults():
    cfg = ExperimentConfig(problem="cook", order=1, young=1e5, poisson=0.3333)
    assert round(cfg.mu) == 37501
    assert cfg.mesh_sizes == (8, 16, 32, 64)
    cfg2 = ExperimentConfig(problem="compressible", order=2)
    assert cfg2.mesh_sizes == (4, 8, 16, 32)
    with pytest.raises(ValueError):
        ExperimentConfig(problem="bogus")


@pytest.mark.parametrize("sizes,message", [
    ((2.5, 4.9), "mesh size 2.5 is not an integer"),
    ((2, 4.0), "mesh size 4.0 is not an integer"),
    (("4", "8"), "mesh size '4' is not an integer"),
], ids=["fractions", "float", "strings"])
def test_config_rejects_non_integer_mesh_sizes(sizes, message):
    # a size is not rounded or parsed: (2.5, 4.9) would run meshes (2, 4)
    with pytest.raises(ValueError, match=re.escape(message)):
        ExperimentConfig(mesh_sizes=sizes)


@pytest.mark.parametrize("order,message", [
    (1.0, "order 1.0 is not an integer"),
    (2.0, "order 2.0 is not an integer"),
    (True, "order True is not an integer"),
    (np.bool_(True), "is not an integer"),
    ("1", "order '1' is not an integer"),
], ids=["float-1", "float-2", "bool", "numpy-bool", "string"])
def test_config_rejects_non_integer_order(order, message):
    # 1.0 and True pass `in (1, 2)`: 1.0 named its outputs k1.0 and failed
    # in the quadrature, True ran as order 1
    with pytest.raises(ValueError, match=re.escape(message)):
        ExperimentConfig(order=order)


@pytest.mark.parametrize("order", [np.int64(2), np.int32(1)])
def test_config_keeps_numpy_integer_order(order):
    cfg = ExperimentConfig(order=order)
    assert cfg.order == order and type(cfg.order) is int
    assert cfg.mesh_sizes == ((8, 16, 32, 64) if order == 1 else (4, 8, 16, 32))


def test_config_keeps_numpy_integer_mesh_sizes():
    cfg = ExperimentConfig(mesh_sizes=np.array([2, 4]))
    assert cfg.mesh_sizes == (2, 4)
    assert all(type(n) is int for n in cfg.mesh_sizes)


def test_convergence_table_schema_and_slopes():
    table = ConvergenceTable(problem="compressible", order=1, bc_mode="weak")
    rep1 = ErrorReport(l2_error=1.0, h1_semi_error=2.0, triple_norm_error=3.0)
    rep2 = ErrorReport(l2_error=0.25, h1_semi_error=1.0, triple_norm_error=1.5)
    table.add(ConvergenceRow(h_max=0.5, dofs=10, report=rep1))
    table.add(ConvergenceRow(h_max=0.25, dofs=34, report=rep2))
    text = table.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(CSV_HEADER)
    assert len(lines) == 3
    assert table.rows[1].slope_l2 == pytest.approx(2.0)
    assert table.rows[1].slope_h1 == pytest.approx(1.0)
    with pytest.raises(ValueError):
        table.add(ConvergenceRow(h_max=0.5, dofs=99))


def test_row_cells_are_the_csv_columns():
    # cell() reads every column after bc_mode; to_csv and table_series
    # both go through it
    from elastweak.plotting import table_series
    rep = ErrorReport(l2_error=0.1, h1_semi_error=0.2, triple_norm_error=0.3,
                      pressure_l2_error=0.4)
    row = ConvergenceRow(h_max=0.5, dofs=12, report=rep, slope_l2=1.9,
                         slope_h1=0.9, beta_h=0.7, korn_h=0.6, qoi=5.5)
    assert [row.cell(c) for c in CSV_HEADER[3:]] == [
        0.5, 12, 0.1, 0.2, 0.3, 0.4, 1.9, 0.9, 0.7, 0.6, 5.5]
    bare = ConvergenceRow(h_max=0.25, dofs=None, beta_h=0.5)
    assert [bare.cell(c) for c in CSV_HEADER[3:]] == [
        0.25, None, None, None, None, None, None, None, 0.5, None, None]
    table = ConvergenceTable(problem="cook", order=2, bc_mode="strong",
                             rows=[row, bare])
    assert table.to_csv().splitlines()[1:] == [
        "cook,2,strong,0.5,12,0.10000000000000001,0.20000000000000001,"
        "0.29999999999999999,0.40000000000000002,1.8999999999999999,"
        "0.90000000000000002,0.69999999999999996,0.59999999999999998,5.5",
        "cook,2,strong,0.25,,,,,,,,0.5,,"]
    assert table_series(table, "qoi").x == (0.5,)
    assert table_series(table, "beta_h").y == (0.7, 0.5)


def test_run_convergence_deterministic_rerun():
    cfg = ExperimentConfig(problem="compressible", order=1, mesh_sizes=(2, 4),
                           mu=1.0, lam=1.0)
    a = run_convergence(cfg).to_csv()
    b = run_convergence(cfg).to_csv()
    assert a == b
    assert a.startswith(",".join(CSV_HEADER))


@pytest.mark.parametrize("problem,bc_mode,dofs", [
    ("incompressible", "weak", 2 * 9 + 9 + 1),
    ("incompressible", "strong", 2 * 9 + 9 + 1),
    ("nearly_incompressible", "weak", 2 * 9 + 9),
    ("compressible", "weak", 2 * 9)])
def test_dofs_column_counts_the_pressure_mean_multiplier(problem, bc_mode,
                                                          dofs):
    # P1 at n=2 has 9 points; where the pressure mean is fixed, the column
    # also counts the multiplier of the pressure-mean border, which the
    # recorded benchmark tables count
    run = run_cook if PROBLEMS[problem].rows == "tip" else run_convergence
    config = ExperimentConfig(problem=problem, mesh_sizes=(2,),
                              bc_mode=bc_mode)
    assert [row.dofs for row in run(config).rows] == [dofs]


def test_run_cook_smoke():
    cfg = ExperimentConfig(problem="cook", order=1, mesh_sizes=(2, 4),
                           young=1e5, poisson=0.3333)
    table = run_cook(cfg)
    assert len(table.rows) == 2
    assert all(r.qoi > 0 for r in table.rows)
    assert table.rows[1].qoi > table.rows[0].qoi


def test_run_stability_diagnostics_csv():
    cfg = ExperimentConfig(problem="compressible", order=1, mesh_sizes=(2, 4),
                           mu=1.0, lam=1.0)
    table = run_stability_diagnostics(cfg)
    assert len(table.rows) == 2
    assert all(r.beta_h > 0 and r.korn_h > 0 for r in table.rows)
    text = table.to_csv()
    assert text.startswith(",".join(CSV_HEADER))
    assert len(text.strip().split("\n")) == 3


def test_check_convergence_flags_bad_slopes():
    cfg = ExperimentConfig(problem="compressible", order=1,
                           mesh_sizes=(2, 4), mu=1.0, lam=1.0)
    table = ConvergenceTable(problem="compressible", order=1, bc_mode="weak")
    r1 = ErrorReport(l2_error=1.0, h1_semi_error=1.0, triple_norm_error=1.0)
    r2 = ErrorReport(l2_error=0.25, h1_semi_error=0.5, triple_norm_error=0.5)
    table.add(ConvergenceRow(h_max=0.5, dofs=10, report=r1))
    table.add(ConvergenceRow(h_max=0.25, dofs=34, report=r2))
    assert check_convergence(table, cfg) == []
    bad = ConvergenceTable(problem="compressible", order=1, bc_mode="weak")
    bad.add(ConvergenceRow(h_max=0.5, dofs=10, report=r1))
    bad.add(ConvergenceRow(h_max=0.25, dofs=34, report=ErrorReport(
        l2_error=0.9, h1_semi_error=0.9, triple_norm_error=0.9)))
    assert len(check_convergence(bad, cfg)) == 2
    # a converging P2 incompressible sweep: velocity H1 slope 2 lies in the
    # k=2 band, pressure L2 slope 3 above 1.3
    p2 = ExperimentConfig(problem="incompressible", order=2,
                          mesh_sizes=(2, 4))
    assert check_convergence(_incompressible_table(2, 0.25, 0.125), p2) == []


def _incompressible_table(order, h1_ratio, p_ratio):
    """Two rows whose velocity H1 and pressure L2 errors shrink by the
    given factors while h halves."""
    table = ConvergenceTable(problem="incompressible", order=order,
                             bc_mode="weak")
    for h, h1, p in ((0.5, 1.0, 1.0), (0.25, h1_ratio, p_ratio)):
        table.add(ConvergenceRow(h_max=h, dofs=10, report=ErrorReport(
            l2_error=1.0, h1_semi_error=h1, triple_norm_error=1.0,
            pressure_l2_error=p)))
    return table


@pytest.mark.parametrize("order,h1_ratio,p_ratio,count", [
    (1, 0.5, 0.25, 0),      # slopes 1 and 2
    (1, 0.25, 0.25, 1),     # H1 slope 2 is too steep at k=1
    (1, 0.5, 0.5, 1),       # pressure slope 1 is below 1.3
    (2, 0.5, 0.125, 1),     # H1 slope 1 is too shallow at k=2
])
def test_check_convergence_incompressible_bands(order, h1_ratio, p_ratio,
                                                count):
    cfg = ExperimentConfig(problem="incompressible", order=order,
                           mesh_sizes=(2, 4))
    table = _incompressible_table(order, h1_ratio, p_ratio)
    assert len(check_convergence(table, cfg)) == count


def test_clamped_free_exponent_matches_williams():
    # Williams (J. Appl. Mech. 1952): right-angled clamped-free corner
    assert clamped_free_exponent(math.pi / 2, 0.3) == pytest.approx(
        0.7112, abs=1e-4)
    # the Cook corner D=(0,44) between CD and DA
    assert math.degrees(COOK_CORNER_D_ANGLE) == pytest.approx(108.435,
                                                              abs=1e-3)
    assert clamped_free_exponent(COOK_CORNER_D_ANGLE, 0.3333) == \
        pytest.approx(0.624, abs=1e-3)
    assert clamped_free_exponent(COOK_CORNER_D_ANGLE, 0.4999) == \
        pytest.approx(0.544, abs=1e-3)
    assert cook_tip_ratio_bound(0.3333) == pytest.approx(0.649, abs=1e-3)
    assert cook_tip_ratio_bound(0.4999) == pytest.approx(0.686, abs=1e-3)
    with pytest.raises(ValueError):
        clamped_free_exponent(math.pi / 2, 0.6)


def _cook_table(tips):
    table = ConvergenceTable(problem="cook", order=1, bc_mode="weak")
    for i, tip in enumerate(tips):
        table.add(ConvergenceRow(h_max=12.0 / 2 ** i, dofs=10 * 4 ** i,
                                 qoi=tip))
    return table


def _contracting(ratio, count=4):
    tips, inc = [1.0], 1.0
    for _ in range(count - 1):
        tips.append(tips[-1] + inc)
        inc *= ratio
    return tips


def test_check_convergence_cook_tip_bound():
    cfg = ExperimentConfig(problem="cook", order=1, young=1e5,
                           poisson=0.3333)
    assert check_convergence(_cook_table(_contracting(0.45)), cfg) == []
    # stalled increments
    assert len(check_convergence(_cook_table(_contracting(1.0)), cfg)) == 1
    # locking compressible P1 at E=250, nu=0.4999
    locking = ExperimentConfig(problem="cook", order=1, young=250.0,
                               poisson=0.4999)
    assert len(check_convergence(
        _cook_table([43.07, 43.68, 45.05, 49.82]), locking)) == 1
    # diverging nearly-incompressible P2
    assert len(check_convergence(
        _cook_table([141.8, 138.8, -139.95]), locking)) == 1


def test_check_convergence_cook_poisson_from_lame():
    # ratio 0.66 lies between 2^-alpha_D at nu=1/3 (0.649) and nu=0.4999
    tips = _cook_table(_contracting(0.66))
    soft = ExperimentConfig(problem="cook", mu=1.0, lam=2.0)
    near = ExperimentConfig(problem="cook", mu=1.0, lam=4999.0)
    assert soft.poisson is None and near.poisson is None
    assert len(check_convergence(tips, soft)) == 1
    assert check_convergence(tips, near) == []


def test_run_cook_strong_nearly_incompressible():
    weak = ExperimentConfig(problem="nearly_incompressible", order=1,
                            mesh_sizes=(4, 8), young=250.0, poisson=0.4999,
                            gamma=0.1, bc_mode="weak")
    strong = ExperimentConfig(problem="nearly_incompressible", order=1,
                              mesh_sizes=(4, 8), young=250.0, poisson=0.4999,
                              gamma=0.1, bc_mode="strong")
    qw = [r.qoi for r in run_cook(weak).rows]
    qs = [r.qoi for r in run_cook(strong).rows]
    assert all(q > 0 for q in qw + qs)
    # same physics: both approximations land in the same range
    assert abs(qw[-1] - qs[-1]) / abs(qs[-1]) < 0.25


def _jet_fields():
    return {**_exact_fields(),
            "constant": AnalyticField.constant_vector(0.5, -2.0)}


@pytest.mark.parametrize("name", ["compressible u", "incompressible u",
                                  "incompressible p", "constant"])
def test_jet_is_value_and_gradient(name):
    # the jet's value is the field's value to the bit, and its gradient has
    # one more axis of length 2 (central differences check its entries)
    field = _jet_fields()[name]
    pts = np.random.default_rng(3).uniform(0, 1, size=(5, 7, 2))
    x, y = pts[..., 0], pts[..., 1]
    value, gradient = field.jet(x, y)
    assert np.array_equal(value, field.value(x, y))
    assert gradient.shape == value.shape + (2,)
    if name == "constant":
        assert not gradient.any()

