import itertools
import math

import numpy as np
import pytest

from elastweak.quadrature import edge_rule, triangle_rule


def tri_monomial_integral(a, b):
    # int over reference triangle of x^a y^b
    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)


@pytest.mark.parametrize("degree", [2, 4, 6, 10, 16])
def test_triangle_rule_monomial_exactness(degree):
    rule = triangle_rule(degree)
    assert abs(rule.weights.sum() - 0.5) < 1e-14
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            q = float(np.sum(rule.weights * rule.points[:, 0] ** a
                             * rule.points[:, 1] ** b))
            assert q == pytest.approx(tri_monomial_integral(a, b), abs=1e-12)


@pytest.mark.parametrize("degree", [2, 4, 6, 10, 16])
def test_triangle_rule_random_polynomial(degree):
    # a full random polynomial of the rule's exact degree integrates to 1e-12
    rng = np.random.default_rng(degree)
    rule = triangle_rule(degree)
    exact = 0.0
    approx = np.zeros(rule.num_points)
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            c = rng.uniform(-1, 1)
            exact += c * tri_monomial_integral(a, b)
            approx += c * rule.points[:, 0] ** a * rule.points[:, 1] ** b
    val = float(np.sum(rule.weights * approx))
    assert val == pytest.approx(exact, rel=1e-12, abs=1e-13)


def test_triangle_points_inside_weights_positive():
    for degree in (2, 6, 16):
        rule = triangle_rule(degree)
        x, y = rule.points[:, 0], rule.points[:, 1]
        assert np.all(rule.weights > 0)
        assert np.all(x > 0) and np.all(y > 0) and np.all(x + y < 1)


def _check_symmetric_rule(degree, num_points):
    rule = triangle_rule(degree)
    assert rule.num_points == num_points and rule.exact_degree == degree
    x, y = rule.points[:, 0], rule.points[:, 1]
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            exact = tri_monomial_integral(a, b)
            q = float(np.sum(rule.weights * x ** a * y ** b))
            assert abs(q - exact) <= 1e-15 * exact, (a, b)
    assert np.all(rule.weights > 0)
    assert np.all(x > 0) and np.all(y > 0) and np.all(1 - x - y > 0)
    # a vertex permutation permutes the barycentric coordinates
    # (1 - x - y, x, y); it must map each weighted point onto its own one
    bary = np.column_stack([1 - x - y, x, y])
    reference = np.column_stack([x, y, rule.weights])
    for perm in itertools.permutations(range(3)):
        moved = np.column_stack([bary[:, perm[1]], bary[:, perm[2]],
                                 rule.weights])
        gap = np.abs(moved[:, None, :] - reference[None, :, :]).max(axis=2)
        image = gap.argmin(axis=1)
        assert sorted(image) == list(range(rule.num_points)), perm
        assert gap.min(axis=1).max() <= 1e-15, perm


def test_degree_10_rule_is_symmetric_interior_and_exact():
    _check_symmetric_rule(10, 25)


def test_degree_16_rule_is_symmetric_interior_and_exact():
    _check_symmetric_rule(16, 55)


def test_rules_other_than_degrees_10_and_16_stay_collapsed():
    # ceil((d+1)/2) * ceil((d+2)/2) points
    for degree, points in ((2, 4), (9, 30), (11, 42), (15, 72), (17, 90)):
        assert triangle_rule(degree).num_points == points


@pytest.mark.parametrize("degree", [2, 4, 10, 16])
def test_edge_rule_exactness(degree):
    rule = edge_rule(degree)
    assert abs(rule.weights.sum() - 1.0) < 1e-14
    for p in range(rule.exact_degree + 1):
        q = float(np.sum(rule.weights * rule.points[:, 0] ** p))
        assert q == pytest.approx(1.0 / (p + 1), abs=1e-13)



def test_symmetrized_rule_is_permutation_invariant():
    # The collapsed rule is not symmetric point by point, but it is exact to
    # degree 6, so a quartic and its mirror image across x = y must still
    # integrate to the same value within roundoff.
    rule = triangle_rule(6)
    x, y = rule.points[:, 0], rule.points[:, 1]
    f = x ** 3 * y - 2 * x * y ** 2
    val = float(np.sum(rule.weights * f))
    g = y ** 3 * x - 2 * y * x ** 2
    swapped = float(np.sum(rule.weights * g))
    assert val == pytest.approx(swapped, abs=1e-15)


def _derivation_tool():
    import importlib.util
    import pathlib
    path = (pathlib.Path(__file__).resolve().parents[1] / "tools"
            / "derive_triangle_rule.py")
    spec = importlib.util.spec_from_file_location("derive_triangle_rule",
                                                  path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_derivation_residual_vanishes_on_the_symmetric_tables():
    # the tool's polynomials are orthonormal on the triangle, and the
    # committed tables solve its moment equations
    from elastweak.quadrature import (_DEGREE10_ORBITS, _DEGREE16_ORBITS,
                                      _collapsed_rule)
    tool = _derivation_tool()
    rule = _collapsed_rule(34)
    phi = np.array(tool.orthonormal(rule.points[:, 0], rule.points[:, 1],
                                    16))
    assert np.abs((phi * rule.weights) @ phi.T - np.eye(len(phi))).max() \
        <= 1e-12
    for degree, s21, s111, orbits in ((10, 2, 3, _DEGREE10_ORBITS),
                                      (16, 6, 6, _DEGREE16_ORBITS)):
        structure = tool.Structure(degree, s21, s111)
        p = [orbits[0][0]]
        for w, gen in orbits[1:]:
            p += [*gen, w]
        assert len(p) == structure.size
        assert np.abs(structure.residual(np.array(p))).max() <= 1e-15
