"""Derive a fully symmetric quadrature rule on the reference triangle.

A rule has the centroid, `s21` orbits of barycentric points (a, a, 1 - 2a)
and `s111` orbits (a, b, 1 - a - b): 1 + 3 s21 + 6 s111 points and
1 + 2 s21 + 3 s111 parameters (one weight per orbit plus the orbit
coordinates).  A seeded random-start search fits the parameters by
Levenberg-Marquardt least squares to the moments of the orthonormal
(Dubiner) polynomials of total degree <= `degree` on {x, y >= 0,
x + y <= 1}: their integrals are 0 except the constant's, and unlike the
monomial moments int x^i y^j they stay well conditioned as the degree
grows.  A start's weights are scaled to sum to 1/2, and a start stops
after MAX_NFEV evaluations.  The first start that lands on an exact rule
with positive weights, points strictly inside and distinct orbits is
refined by Gauss-Newton steps on the same equations at 50 digits, and
printed at 17 significant digits, one (weight, generator) line per orbit,
as ``elastweak.quadrature`` commits it.

The degree-16 rule of 55 points (``quadrature._DEGREE16_ORBITS``)::

    python3 tools/derive_triangle_rule.py --degree 16 --s21 6 --s111 6 --seed 1

It lands on the rule at start 13, in about 3 minutes on one core with the
refinement.

The degree-10 rule of 25 points (``quadrature._DEGREE10_ORBITS``) came from
the defaults, ``--degree 10 --s21 2 --s111 3 --seed 0``, at start 3, when
the search fit the monomial moments from starts whose weights were not
scaled.  From seed 0 the present search lands on another 25-point rule
with positive weights and interior points, also at start 3; the committed
degree-10 table stays as it was derived.

The weights sum to 1/2, the area of the reference triangle.
"""

import argparse
import sys

import mpmath
import numpy as np
from scipy.optimize import least_squares

# Residual evaluations per start.  At degree 16 the starts that reached an
# exact rule took 98 to 254; the others stall and would run to the default
# 3,100, about 40 s each.
MAX_NFEV = 300


def orthonormal(x, y, degree, one=1.0):
    """Values of the orthonormal polynomials phi_pq, p + q <= degree, at
    (x, y), listed by p and then q, with arithmetic only, so that x and y
    may be float or complex arrays or mpmath numbers.

    phi_pq = sqrt((2p + 1)(2p + 2q + 2)) P_p(a) s^p P_q^(2p+1,0)(b) in the
    collapsed coordinates a = t / s, b = 2y - 1 with s = 1 - y and
    t = 2x + y - 1; P_p(a) s^p comes from the Legendre recurrence scaled by
    s, which has no division by s."""
    s, t, b = one - y, 2 * x + y - one, 2 * y - one
    scaled = [one + 0 * x, t]             # P_p(a) s^p
    for n in range(1, degree):
        scaled.append(((2 * n + 1) * t * scaled[n]
                       - n * s * s * scaled[n - 1]) / (n + 1))
    out = []
    for p in range(degree + 1):
        al = 2 * p + 1
        jac = [one + 0 * b, (al + 1) + (al + 2) * (b - one) / 2]
        for n in range(2, degree - p + 1):
            c = 2 * n + al
            jac.append(((c - 1) * (c * (c - 2) * b + al * al) * jac[n - 1]
                        - 2 * (n + al - 1) * (n - 1) * c * jac[n - 2])
                       / (2 * n * (n + al) * (c - 2)))
        for q in range(degree - p + 1):
            norm = (one * ((2 * p + 1) * (2 * p + 2 * q + 2))) ** 0.5
            out.append(norm * scaled[p] * jac[q])
    return out


class Structure:
    """Degree and orbit counts of a symmetric rule."""

    def __init__(self, degree, s21, s111):
        self.degree, self.s21, self.s111 = degree, s21, s111
        self.size = 1 + 2 * s21 + 3 * s111

    def unpack(self, p, one=1.0):
        """Barycentric points (l0, l1, l2) and weights of a parameter vector
        p = [w0, (a, w) per (a, a, 1 - 2a) orbit, (a, b, w) per (a, b, c)
        orbit], whose entries may be numbers or arrays of equal shape."""
        third = one / 3 + 0 * p[0]
        pts, wts = [(third, third, third)], [p[0]]
        k = 1
        for _ in range(self.s21):
            a, w = p[k], p[k + 1]
            k += 2
            c = one - 2 * a
            pts += [(a, a, c), (a, c, a), (c, a, a)]
            wts += [w] * 3
        for _ in range(self.s111):
            a, b, w = p[k], p[k + 1], p[k + 2]
            k += 3
            c = one - a - b
            pts += [(a, b, c), (a, c, b), (b, a, c), (b, c, a), (c, a, b),
                    (c, b, a)]
            wts += [w] * 6
        return pts, wts

    def target(self, one=1.0):
        """Integrals of the orthonormal polynomials: 1/sqrt(2) for the
        constant sqrt(2), else 0."""
        n = (self.degree + 1) * (self.degree + 2) // 2
        return [(one / 2) ** 0.5] + [0 * one] * (n - 1)

    def residual(self, p):
        """Orthonormal moment errors of the rule with parameters p, real or
        complex (the Jacobian is taken by complex steps), shape (size,) or
        (size, k) for k parameter vectors at once."""
        pts, wts = self.unpack(p)
        x = np.array([q[1] for q in pts])
        y = np.array([q[2] for q in pts])
        phi = np.array(orthonormal(x, y, self.degree))   # (m, q, ...)
        target = np.array(self.target()).reshape((-1,) + (1,) * (x.ndim - 1))
        return np.einsum("mq...,q...->m...", phi, np.array(wts)) - target

    def jacobian(self, p, h=1e-30):
        """Complex-step derivative of residual, exact to roundoff: one
        residual of the columns p + i h e_k."""
        q = np.asarray(p, dtype=complex)[:, None] + 1j * h * np.eye(len(p))
        return self.residual(q).imag / h

    def start(self, rng):
        """Random parameters: orbit coordinates inside the triangle and
        positive weights scaled to sum to 1/2."""
        p0 = [rng.uniform(0.0, 0.1)]
        for _ in range(self.s21):
            p0 += [rng.uniform(0.0, 0.5), rng.uniform(0.0, 0.1)]
        for _ in range(self.s111):
            a, b = np.sort(rng.uniform(size=2))
            p0 += [a, b - a, rng.uniform(0.0, 0.05)]
        p0 = np.array(p0)
        weights = np.r_[0, 2:1 + 2 * self.s21:2,
                        3 + 2 * self.s21:self.size:3]
        p0[weights] *= 0.5 / sum(self.unpack(p0)[1])
        return p0

    def search(self, seed, starts):
        """First Levenberg-Marquardt fit from seeded random starts that is
        an exact interior rule with positive weights and distinct orbits."""
        rng = np.random.default_rng(seed)
        for start in range(starts):
            fit = least_squares(self.residual, self.start(rng),
                                jac=self.jacobian, method="lm", xtol=1e-15,
                                ftol=1e-15, gtol=1e-15, max_nfev=MAX_NFEV)
            if np.abs(fit.fun).max() > 1e-12:
                continue
            pts, wts = self.unpack(fit.x)
            bary = np.array(pts)
            if min(wts) <= 0 or bary.min() <= 1e-8:
                continue
            if len(np.unique(np.round(bary, 8), axis=0)) != len(pts):
                continue        # two orbits coincide, or an orbit degenerates
            return fit.x, start
        raise RuntimeError(f"no exact interior rule in {starts} starts")

    def refine(self, p, digits=50, steps=8):
        """Gauss-Newton on the orthonormal moment equations at `digits`
        digits; returns the parameters and the largest monomial moment
        error."""
        mpmath.mp.dps = digits
        one = mpmath.mpf(1)
        target = mpmath.matrix(self.target(one))

        def res(q):
            pts, wts = self.unpack(q, one)
            total = [0 * one] * len(target)
            for l, w in zip(pts, wts):
                for k, v in enumerate(orthonormal(l[1], l[2], self.degree,
                                                  one)):
                    total[k] += w * v
            return mpmath.matrix(total) - target

        q = [mpmath.mpf(float(v)) for v in p]
        h = mpmath.mpf(10) ** (-digits // 2)
        for _ in range(steps):
            r = res(q)
            J = mpmath.matrix(len(target), len(q))
            for k in range(len(q)):
                up, dn = list(q), list(q)
                up[k] += h
                dn[k] -= h
                col = (res(up) - res(dn)) / (2 * h)
                for m in range(len(target)):
                    J[m, k] = col[m]
            step = mpmath.lu_solve(J.T * J, -(J.T * r))
            q = [v + s for v, s in zip(q, step)]
        pts, wts = self.unpack(q, one)
        worst = max(abs(mpmath.fsum(w * l[1] ** i * l[2] ** j
                                    for l, w in zip(pts, wts))
                        - mpmath.factorial(i) * mpmath.factorial(j)
                        / mpmath.factorial(i + j + 2))
                    for i in range(self.degree + 1)
                    for j in range(self.degree + 1 - i))
        return q, worst

    def orbits(self, q):
        """(weight, generator) per orbit as ``elastweak.quadrature`` lists
        them: () for the centroid, (a,) for (a, a, 1 - 2a) and (a, b),
        a < b, for (a, b, c) with c the largest coordinate; each kind
        sorted by its generator."""
        pts, wts = self.unpack(q, mpmath.mpf(1))
        s21, s111 = [], []
        k = 1
        for _ in range(self.s21):
            s21.append((wts[k], pts[k][:1]))
            k += 3
        for _ in range(self.s111):
            s111.append((wts[k], tuple(sorted(pts[k])[:2])))
            k += 6
        return [(wts[0], ())] + sorted(s21, key=lambda o: o[1]) \
            + sorted(s111, key=lambda o: o[1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--degree", type=int, default=10)
    parser.add_argument("--s21", type=int, default=2,
                        help="number of (a, a, 1 - 2a) orbits")
    parser.add_argument("--s111", type=int, default=3,
                        help="number of (a, b, 1 - a - b) orbits")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--starts", type=int, default=2000)
    args = parser.parse_args(argv)
    rule = Structure(args.degree, args.s21, args.s111)
    try:
        p, start = rule.search(args.seed, args.starts)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    q, worst = rule.refine(p)
    print(f"# degree {args.degree}, {1 + 3 * args.s21 + 6 * args.s111} "
          f"points, seed {args.seed}, start {start}: largest monomial "
          f"moment error {mpmath.nstr(worst, 3)} at 50 digits")
    for w, gen in rule.orbits(q):
        coords = ", ".join(mpmath.nstr(c, 17, strip_zeros=False)
                           for c in gen) + ("," if len(gen) == 1 else "")
        print(f"    ({mpmath.nstr(w, 17, strip_zeros=False)}, ({coords})),")
    return 0


if __name__ == "__main__":
    sys.exit(main())
