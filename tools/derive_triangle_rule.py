"""Derive the symmetric 25-point degree-10 rule on the reference triangle.

The rule has the centroid, two orbits of barycentric points (a, a, 1 - 2a)
and three orbits (a, b, 1 - a - b): 1 + 2 * 3 + 3 * 6 = 25 points and 14
parameters (one weight per orbit plus the orbit coordinates).  A seeded
random-start search fits the parameters by Levenberg-Marquardt least
squares to every monomial moment int x^i y^j, i + j <= 10, over
{x, y >= 0, x + y <= 1};
the first start that lands on an exact rule with positive weights, points
strictly inside and distinct orbits is then refined by Gauss-Newton steps
at 50 digits, and printed at 17 significant digits as
``elastweak.quadrature`` commits it::

    python3 tools/derive_triangle_rule.py [--seed N] [--starts N]

The weights sum to 1/2, the area of the reference triangle.
"""

import argparse
import math
import sys

import mpmath
import numpy as np
from scipy.optimize import least_squares

DEGREE = 10
N_S21 = 2
N_S111 = 3
MONOMIALS = [(i, j) for i in range(DEGREE + 1) for j in range(DEGREE + 1 - i)]


def _moments():
    """Exact integrals i! j! / (i + j + 2)! of the monomials."""
    return [math.factorial(i) * math.factorial(j) / math.factorial(i + j + 2)
            for i, j in MONOMIALS]


def unpack(p, one=1.0):
    """Barycentric points (l0, l1, l2) and weights of a parameter vector
    p = [w0, (a, w) per (a, a, 1 - 2a) orbit, (a, b, w) per (a, b, c)
    orbit]."""
    pts, wts = [(one / 3, one / 3, one / 3)], [p[0]]
    k = 1
    for _ in range(N_S21):
        a, w = p[k], p[k + 1]
        k += 2
        c = one - 2 * a
        pts += [(a, a, c), (a, c, a), (c, a, a)]
        wts += [w] * 3
    for _ in range(N_S111):
        a, b, w = p[k], p[k + 1], p[k + 2]
        k += 3
        c = one - a - b
        pts += [(a, b, c), (a, c, b), (b, a, c), (b, c, a), (c, a, b),
                (c, b, a)]
        wts += [w] * 6
    return pts, wts


_I = np.array([i for i, _ in MONOMIALS])[:, None]
_J = np.array([j for _, j in MONOMIALS])[:, None]


def residual(p, exact):
    """Relative moment errors of the rule with parameters p (real or
    complex: the Jacobian is taken by complex steps)."""
    pts, wts = unpack(p)
    x = np.array([q[1] for q in pts])
    y = np.array([q[2] for q in pts])
    return (x ** _I * y ** _J) @ np.array(wts) / exact - 1.0


def jacobian(p, exact, h=1e-30):
    """Complex-step derivative of residual: exact to roundoff."""
    cols = []
    for k in range(len(p)):
        q = np.array(p, dtype=complex)
        q[k] += 1j * h
        cols.append(residual(q, exact).imag / h)
    return np.column_stack(cols)


def search(seed, starts):
    """First Levenberg-Marquardt fit from seeded random starts that is an
    exact interior rule with positive weights and five distinct orbits."""
    exact = np.array(_moments())
    rng = np.random.default_rng(seed)
    for start in range(starts):
        p0 = [rng.uniform(0.0, 0.1)]
        for _ in range(N_S21):
            p0 += [rng.uniform(0.0, 0.5), rng.uniform(0.0, 0.1)]
        for _ in range(N_S111):
            a, b = np.sort(rng.uniform(size=2))
            p0 += [a, b - a, rng.uniform(0.0, 0.05)]
        fit = least_squares(residual, p0, jac=jacobian, args=(exact,),
                            method="lm", xtol=1e-15, ftol=1e-15, gtol=1e-15)
        if np.abs(fit.fun).max() > 1e-12:
            continue
        pts, wts = unpack(fit.x)
        bary = np.array(pts)
        if min(wts) <= 0 or bary.min() <= 1e-8:
            continue
        if len(np.unique(np.round(bary, 8), axis=0)) != len(pts):
            continue            # two orbits coincide, or an orbit degenerates
        return fit.x, start
    raise RuntimeError(f"no exact interior rule in {starts} starts")


def refine(p, digits=50, steps=8):
    """Gauss-Newton on the moment equations at `digits` digits."""
    mpmath.mp.dps = digits
    exact = [mpmath.factorial(i) * mpmath.factorial(j)
             / mpmath.factorial(i + j + 2) for i, j in MONOMIALS]
    one = mpmath.mpf(1)

    def res(q):
        pts, wts = unpack(q, one)
        return mpmath.matrix([
            mpmath.fsum(w * l[1] ** i * l[2] ** j for l, w in zip(pts, wts))
            - e for (i, j), e in zip(MONOMIALS, exact)])

    q = [mpmath.mpf(float(v)) for v in p]
    h = mpmath.mpf(10) ** (-digits // 2)
    for _ in range(steps):
        r = res(q)
        J = mpmath.matrix(len(MONOMIALS), len(q))
        for k in range(len(q)):
            up, dn = list(q), list(q)
            up[k] += h
            dn[k] -= h
            col = (res(up) - res(dn)) / (2 * h)
            for m in range(len(MONOMIALS)):
                J[m, k] = col[m]
        step = mpmath.lu_solve(J.T * J, -(J.T * r))
        q = [v + s for v, s in zip(q, step)]
    return q, max(abs(v) for v in res(q))


def orbits(q):
    """(weight, generator) per orbit as ``elastweak.quadrature`` lists
    them: () for the centroid, (a,) for (a, a, 1 - 2a) and (a, b), a < b,
    for (a, b, c) with c the largest coordinate; each kind sorted by its
    generator."""
    pts, wts = unpack(q, mpmath.mpf(1))
    s21, s111 = [], []
    k = 1
    for _ in range(N_S21):
        s21.append((wts[k], pts[k][:1]))
        k += 3
    for _ in range(N_S111):
        s111.append((wts[k], tuple(sorted(pts[k])[:2])))
        k += 6
    return [(wts[0], ())] + sorted(s21, key=lambda o: o[1]) \
        + sorted(s111, key=lambda o: o[1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--starts", type=int, default=2000)
    args = parser.parse_args(argv)
    try:
        p, start = search(args.seed, args.starts)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    q, worst = refine(p)
    print(f"# seed {args.seed}, start {start}: largest moment residual "
          f"{mpmath.nstr(worst, 3)} at 50 digits")
    for w, gen in orbits(q):
        coords = ", ".join(mpmath.nstr(c, 17, strip_zeros=False)
                           for c in gen) + ("," if len(gen) == 1 else "")
        print(f"    ({mpmath.nstr(w, 17, strip_zeros=False)}, ({coords})),")
    return 0


if __name__ == "__main__":
    sys.exit(main())
