"""Slow reference oracles that the tests hold the package's kernels against.

Each oracle computes the same quantity as a kernel under ``src/tatemirror``
by a separate, more literal route, and shares no code with it:

- ``psi``, ``phi``, ``lambda_exp_reference`` and ``area``: the Fraction
  formulas behind ``theta.lambda_exp``, the section ring's q-exponent;
- ``EpsRational``, ``PerturbedTriangle`` and ``count_perturbed_reference``:
  a point-by-point scan with a symbolic infinitesimal, behind
  ``lattice.count_perturbed``, the Floer ring's q-exponent;
- ``singular_points_mod_p``: a scan of F_p^2, behind
  ``weierstrass.classify_fiber``;
- ``echelon_reference``: dense Gauss-Jordan elimination, column by column
  over list rows, behind ``_linalg.echelon``'s sparse rows.

No module of the package imports this one, and no report or benchmark runs it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering
from math import gcd, lcm

from tatemirror.theta import weighted_mean
from tatemirror.weierstrass import WeierstrassCoeffs


# -- the section ring's exponent as a Fraction formula -----------------------

def psi(x: Fraction) -> Fraction:
    """The normalized square x*(x-1)/2."""
    return Fraction(x) * (Fraction(x) - 1) / 2


def phi(p) -> Fraction:
    """Piecewise-linear interpolation of psi between consecutive integers.

    phi agrees with psi on Z and is affine on each [n, n+1]; it is convex,
    so the excess in ``lambda_exp`` is nonnegative.
    """
    p = Fraction(p)
    n = math.floor(p)
    return psi(n) + (p - n) * n


def lambda_exp_reference(n1: int, p1, n2: int, p2) -> Fraction:
    """The Fraction formula through phi; slow cross-check for lambda_exp."""
    if n1 < 1 or n2 < 1:
        raise ValueError("degrees must be positive")
    e = weighted_mean(n1, p1, n2, p2)
    return n1 * phi(p1) + n2 * phi(p2) - (n1 + n2) * phi(e)


def area(n1: int, p1, n2: int, p2) -> Fraction:
    """Same excess formed with psi; equals the area of the product triangle."""
    if n1 < 1 or n2 < 1:
        raise ValueError("degrees must be positive")
    e = weighted_mean(n1, p1, n2, p2)
    return n1 * psi(p1) + n2 * psi(p2) - (n1 + n2) * psi(e)


# -- perturbed lattice points, scanned one by one ----------------------------

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


# -- singular points of a fiber, scanned over F_p ----------------------------

def singular_points_mod_p(w: WeierstrassCoeffs):
    """All singular points of the affine curve over F_p, with the nodal test.

    The point-scan oracle that tests hold ``classify_fiber`` against.
    Reads the constant terms, so a series curve is scanned at q = 0.
    Returns a list of ((x0, y0), hessian_nonzero) pairs, scanning all of
    F_p^2; the hessian condition is a1^2 + 2*(6*x0 + 2*a2) != 0.
    """
    ring = w.ring
    if ring.kind != "GF":
        raise ValueError("point scan needs a prime field")
    p = ring.p
    a1, a2, a3, a4, a6 = (v.coeffs[0] for v in w.as_tuple())
    out = []
    for x0 in range(p):
        for y0 in range(p):
            on_curve = (y0 * y0 + a1 * x0 * y0 + a3 * y0
                        - x0 ** 3 - a2 * x0 * x0 - a4 * x0 - a6) % p == 0
            if not on_curve:
                continue
            wy = (2 * y0 + a1 * x0 + a3) % p
            wx = (a1 * y0 - 3 * x0 * x0 - 2 * a2 * x0 - a4) % p
            if wy or wx:
                continue
            hess = (a1 * a1 + 2 * (6 * x0 + 2 * a2)) % p
            out.append(((x0, y0), hess != 0))
    return out


# -- dense elimination, column by column -------------------------------------

def _primitive(row):
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _lead(row):
    return next(c for c, x in enumerate(row) if x)


def echelon_reference(rows, ring):
    """Reduced echelon form of list rows with unscaled pivots, by the dense
    loop: (nonzero_rows, pivot_columns), QQ rows primitive lists of ``int``.

    Rows are cleared to primitive ints (QQ) or reduced mod p, zero rows are
    dropped and the rest stable-sorted by first nonzero column; then every
    pivot column is cleared from every other row, each step setting a row to
    a*row - b*pivot over the integers and dividing it by its gcd (QQ) or
    reducing it mod p.
    """
    p = ring.characteristic

    def integral(row):
        if all(type(x) is int for x in row):
            return _primitive(row)
        d = lcm(*[x.denominator for x in row])
        return _primitive([x.numerator * (d // x.denominator) for x in row])

    m = [[x % p for x in row] if p else integral(row) for row in rows]
    m = sorted((row for row in m if any(row)), key=_lead)
    pivots = []
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        prow = m[r]
        for i, row in enumerate(m):
            if i != r and row[c]:
                g = gcd(prow[c], row[c])
                a, b = prow[c] // g, row[c] // g
                m[i] = ([(a * x - b * y) % p for x, y in zip(row, prow)] if p
                        else _primitive([a * x - b * y for x, y in zip(row, prow)]))
        pivots.append(c)
    return m[: len(pivots)], pivots
