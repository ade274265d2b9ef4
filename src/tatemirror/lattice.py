"""Counting perturbed lattice points in product triangles.

A perturbed lattice point is a point congruent to (eps, eps) mod Z^2 for an
infinitesimal eps > 0.  The infinitesimal is handled symbolically: quantities
are pairs (value, eps-coefficient) ordered lexicographically, so no boundary
case ever depends on a numeric epsilon.  These counts are the independent
oracle for the q-exponents of the section ring and the Floer products.

``count_perturbed`` is the production kernel: it clears denominators once and
works on integer vertices only.  ``row_formula_count`` is an independent
oracle, a closed formula on the same cleared integers that shares no code with
it.  ``PerturbedTriangle``, ``EpsRational`` and ``count_perturbed_reference``
are the Fraction oracles, and share no vertex code with either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering


@total_ordering
@dataclass(frozen=True, slots=True)
class EpsRational:
    """value + eps * coeff for an infinitesimal eps > 0."""

    value: Fraction
    eps: Fraction

    @staticmethod
    def of(value, eps=0) -> "EpsRational":
        return EpsRational(Fraction(value), Fraction(eps))

    def __add__(self, other):
        other = _as_eps(other)
        return EpsRational(self.value + other.value, self.eps + other.eps)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_eps(other)
        return EpsRational(self.value - other.value, self.eps - other.eps)

    def __rsub__(self, other):
        return _as_eps(other) - self

    def __neg__(self):
        return EpsRational(-self.value, -self.eps)

    def __mul__(self, other):
        """Scaling by an exact rational (eps^2 never arises here)."""
        other = Fraction(other)
        return EpsRational(self.value * other, self.eps * other)

    __rmul__ = __mul__

    def __lt__(self, other):
        other = _as_eps(other)
        return (self.value, self.eps) < (other.value, other.eps)

    def sign(self) -> int:
        if self.value:
            return 1 if self.value > 0 else -1
        if self.eps:
            return 1 if self.eps > 0 else -1
        return 0


def _as_eps(x) -> EpsRational:
    if isinstance(x, EpsRational):
        return x
    return EpsRational(Fraction(x), Fraction(0))


def perturbed(a: int, b: int):
    """The perturbed lattice point (a + eps, b + eps)."""
    return (EpsRational.of(a, 1), EpsRational.of(b, 1))


@dataclass(frozen=True)
class PerturbedTriangle:
    """The triangle with vertices (p1, 0), (p2, -n1*(p2-p1)), (mean, 0)."""

    n1: int
    p1: Fraction
    n2: int
    p2: Fraction

    @property
    def vertices(self):
        p1, p2 = Fraction(self.p1), Fraction(self.p2)
        mean = (p1 * self.n1 + p2 * self.n2) / (self.n1 + self.n2)
        return ((p1, Fraction(0)),
                (p2, -self.n1 * (p2 - p1)),
                (mean, Fraction(0)))

    def signed_area2(self) -> Fraction:
        (x0, y0), (x1, y1), (x2, y2) = self.vertices
        return (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)

    def contains(self, point) -> bool:
        """Strict interior test for a point with EpsRational coordinates."""
        area2 = self.signed_area2()
        if area2 == 0:
            return False
        orient = 1 if area2 > 0 else -1
        px, py = (_as_eps(point[0]), _as_eps(point[1]))
        verts = self.vertices
        for i in range(3):
            (xa, ya), (xb, yb) = verts[i], verts[(i + 1) % 3]
            cross = (py - ya) * (xb - xa) - (px - xa) * (yb - ya)
            if cross.sign() != orient:
                return False
        return True


def count_perturbed(n1: int, p1, n2: int, p2) -> int:
    """Number of perturbed lattice points strictly inside the triangle.

    Exact integer arithmetic: with p1 = a1/d1, p2 = a2/d2 and
    den = lcm(d1, d2)*(n1 + n2), the vertices scaled by den are integers
    (u1, 0), (u2, -n1*(u2 - u1)), ((n1*u1 + n2*u2)/(n1 + n2), 0).  Any common
    multiple of the denominators gives the same count: each half-plane slope
    and offset scales by den^2 and its eps coefficient by den, so neither the
    integer bounds nor the tie-breaking signs move.  Each column of
    candidate points is resolved by solving the three half-plane constraints
    for an exact integer interval.  Degenerate triangles count zero.
    """
    if n1 < 1 or n2 < 1:
        raise ValueError("degrees must be positive")
    a1, d1, a2, d2 = p1.numerator, p1.denominator, p2.numerator, p2.denominator
    n3 = n1 + n2
    den = math.lcm(d1, d2) * n3
    u1, u2 = a1 * (den // d1), a2 * (den // d2)
    pts = ((u1, 0), (u2, -n1 * (u2 - u1)), ((n1 * u1 + n2 * u2) // n3, 0))
    (x0, y0), (x1, y1), (x2, y2) = pts
    area2 = (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)
    if area2 == 0:
        return 0
    orient = 1 if area2 > 0 else -1

    # edge value at the scaled point (X, Y) = (den*a + den*eps, den*b + den*eps)
    # is slope*b + offset(a) + eps_coef*(den*eps) with slope = den*(xb - xa)
    edges = []
    for (xa, ya), (xb, yb) in ((pts[0], pts[1]), (pts[1], pts[2]), (pts[2], pts[0])):
        dx, dy = xb - xa, yb - ya
        edges.append((dx * orient, dy * orient,
                      (dx * ya - dy * xa) * orient, (dx - dy) * orient))

    xs = (x0, x1, x2)
    count = 0
    for a in range(min(xs) // den, -(-max(xs) // den) + 1):
        px = a * den
        lo = None
        hi = None
        empty = False
        for dxo, dyo, co, ec in edges:
            slope = dxo * den
            offset = -dyo * px - co
            if slope == 0:
                if not (offset > 0 or (offset == 0 and ec > 0)):
                    empty = True
                    break
                continue
            if slope > 0:
                # smallest b with slope*b + offset > 0 (ties broken by eps)
                q, r = divmod(-offset, slope)
                bound = q if (r == 0 and ec > 0) else q + 1
                lo = bound if lo is None else max(lo, bound)
            else:
                # largest b with slope*b + offset > 0 (ties broken by eps)
                q, r = divmod(offset, -slope)
                bound = q if (r != 0 or ec > 0) else q - 1
                hi = bound if hi is None else min(hi, bound)
        if empty or lo is None or hi is None:
            continue
        if hi >= lo:
            count += hi - lo + 1
    return count


def count_perturbed_reference(n1: int, p1, n2: int, p2) -> int:
    """Point-by-point interior scan; slow cross-check for count_perturbed."""
    tri = PerturbedTriangle(n1, Fraction(p1), n2, Fraction(p2))
    if tri.signed_area2() == 0:
        return 0
    xs = [v[0] for v in tri.vertices]
    ys = [v[1] for v in tri.vertices]
    count = 0
    for a in range(math.floor(min(xs)), math.ceil(max(xs)) + 1):
        for b in range(math.floor(min(ys)), math.ceil(max(ys)) + 1):
            if tri.contains(perturbed(a, b)):
                count += 1
    return count


def _row_count(n: int, q: int, R: int, P: int, q2: int, D: int) -> int:
    """2*D times the perturbed points in the right triangle over [p, p2]
    under slope -n, for p = P/D = q + R/(n*D) and q2 = floor(p2).

    Closed form from counting rows, with the trapezium to the right of
    x = q2 shaved off and its strip count n*(q2 - p) added back.
    """
    return (D * n * q * q + D * n * q2 * q2 + 2 * R * q
            - 2 * D * n * q * q2 - 2 * R * q2 - D * n * q2
            + D * n * q + 2 * R + 2 * (D * n * q2 - n * P))


def row_formula_count(n1: int, p1, n2: int, p2) -> int:
    """The row-by-row closed-form count for the triangle of count_perturbed.

    Splits each point as p = q + r/n with q integral and 0 <= r < n, applies
    the closed formula to the outer right triangle and to the inner one cut
    off by the steeper slope, and returns the difference.  On integers: with
    p1 = a1/d1, p2 = a2/d2 and D = lcm(d1, d2)*(n1 + n2), each point scaled by
    D is an integer P, q = P // D and R = n*(P - q*D) = D*r, so 2*D times each
    closed form is an integer polynomial and the count is one exact division
    by 2*D.  Takes ints or Fractions.
    """
    if n1 < 1 or n2 < 1:
        raise ValueError("degrees must be positive")
    a1, d1, a2, d2 = p1.numerator, p1.denominator, p2.numerator, p2.denominator
    n3 = n1 + n2
    D = math.lcm(d1, d2) * n3
    P1, P2 = a1 * (D // d1), a2 * (D // d2)
    P3 = (n1 * P1 + n2 * P2) // n3
    q1, q2, q3 = P1 // D, P2 // D, P3 // D

    total = (_row_count(n1, q1, n1 * (P1 - q1 * D), P1, q2, D)
             - _row_count(n3, q3, n3 * (P3 - q3 * D), P3, q2, D))
    count, rem = divmod(total, 2 * D)
    if rem:
        raise ValueError(f"non-integral count {Fraction(total, 2 * D)}; "
                         "inputs not in (1/n)Z")
    return count
