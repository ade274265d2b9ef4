"""Combinatorial Floer products between lines on the torus.

Degree-n generators are indexed by (1/n)Z mod Z, matching the intersections
of the horizontal line with a line of slope -n.  Products are sums over
immersed triangles: one per integer shift j, weighted by q to the number of
perturbed lattice points inside the planar lift; a triangle is a light
``NamedTuple`` record.  Every sign is +1: the sign is the parity of boundary
stars, which is always even, so the products never count stars;
``star_count`` derives them from a triangle's Fraction vertices for the
parity check only.  Elements share the section ring's slot-row type
(``FloerElement`` is ``theta.ThetaElement``), its (j, exponent) basis-product
contract and its table (``theta._kept_shifts``); only the exponent differs.
The q-exponents come from lattice counting only, and nothing here reads
the section-ring product: the two rings are compared only in ``cli``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from . import lattice, weierstrass
from .errors import VerificationFailure
from .exactnum import QQ, ZZ, QSeries
from ._linalg import det, nullspace, solve_right, transpose
from .theta import ThetaElement as FloerElement
from .theta import _kept_shifts, _slot_point, j_range, weighted_mean


class ImmersedTriangle(NamedTuple):
    """One product contribution: the triangle of p1 (degree n1) and p2j = p2 + j
    (degree n2); its Fraction vertices, stars and sign are derived on demand.

    A light immutable record: being a tuple, a triangle also equals (and
    hashes like) the plain tuple (n1, p1, n2, p2, j, q_exponent)."""

    n1: int
    p1: Fraction
    n2: int
    p2: Fraction
    j: int
    q_exponent: int

    @property
    def p2j(self) -> Fraction:
        return self.p2 + self.j

    @property
    def vertices(self):
        return ((self.p1, Fraction(0)), (self.p2j, -self.n1 * (self.p2j - self.p1)),
                (weighted_mean(self.n1, self.p1, self.n2, self.p2j), Fraction(0)))

    @property
    def sign(self) -> int:
        return (-1) ** star_count(self)


def star_count(tri: ImmersedTriangle) -> int:
    """Boundary stars from the Fraction vertices; the triangle's sign is (-1)**stars.

    Each arc crosses one star per unit step of its endpoints' x-ceilings;
    traversal direction does not change the count, so each difference enters
    by absolute value.
    """
    (p1, _), (p2j, _), (mean, _) = tri.vertices
    return (abs(math.ceil(mean) - math.ceil(p1)) + abs(math.ceil(p2j) - math.ceil(p1))
            + abs(math.ceil(p2j) - math.ceil(mean)))


# (n1, p1 numerator, p1 denominator, n2, p2 numerator, p2 denominator) ->
# (K, lo, e_lo, ..., e_hi), see ``theta._kept_shifts``
_FLOER_TABLE: dict = {}


def enumerate_triangles(n1: int, p1, n2: int, p2, order: int):
    """All immersed triangles contributing below the truncation order.

    One triangle per shift j of ``j_range``, with its perturbed-lattice-point
    count as q-exponent; triangles whose exponent reaches the order are
    dropped.  No star is counted here.  The count of every shift of the
    window is tabled in ``_FLOER_TABLE`` by the integers of (n1, p1, n2, p2),
    an int or a Fraction point alike, so a higher order counts only the shifts
    its wider window adds (see ``theta._kept_shifts``); the shifted points
    p2 + j that ``count_perturbed`` reads come from ``_slot_point``.  The
    triangles are built fresh on every call, with the points as given.
    """
    if n1 < 1 or n2 < 1:
        raise ValueError("degrees must be positive")
    a2, d2 = p2.as_integer_ratio()

    def exponent(j):
        return lattice.count_perturbed(n1, p1, n2, _slot_point(a2 + j * d2, d2))  # p2 + j

    key = (n1, *p1.as_integer_ratio(), n2, a2, d2)
    return [ImmersedTriangle(n1, p1, n2, p2, j, e)
            for j, e in _kept_shifts(_FLOER_TABLE, key, order,
                                     lambda k: j_range(n1, p1, n2, p2, k), exponent)]


def _floer_terms(n1: int, m1: int, n2: int, m2: int, order: int):
    """Floer basis product of the slots m1/n1 and m2/n2: one q-power per
    immersed triangle (every sign is +1), as (j, exponent) ints."""
    return [(tri.j, tri.q_exponent)
            for tri in enumerate_triangles(n1, _slot_point(m1, n1), n2, _slot_point(m2, n2),
                                           order)]


def floer_mul(x: FloerElement, y: FloerElement) -> FloerElement:
    """Bilinear extension of the triangle-counting product."""
    return x.bilinear(y, _floer_terms)


def floer_product(n1: int, p1, n2: int, p2, order: int) -> FloerElement:
    """Product of the generators at p1 (degree n1) and p2 (degree n2)."""
    return floer_mul(FloerElement.basis(n1, p1, order),
                     FloerElement.basis(n2, p2, order))


def _power(x: FloerElement, n: int) -> FloerElement:
    out = x
    for _ in range(n - 1):
        out = floer_mul(out, x)
    return out


# -- the exact (q = 0) multiplication table ----------------------------------

def dehn_table_q0():
    """Check the seven exact products of the twisted-line ring at q = 0.

    Returns one record {id, status, expected, actual} per check, each with
    status "pass" exactly when actual equals expected; a wrong product is a
    failed record, and the records after it are still computed.  The
    degree-6 relation is the last record.
    """
    order = 1
    zp = FloerElement.basis(1, 0, order)
    zeta0 = FloerElement.basis(2, 0, order)
    zeta1 = FloerElement.basis(2, Fraction(1, 2), order)
    eta1 = FloerElement.basis(3, Fraction(1, 3), order)
    eta2 = FloerElement.basis(3, Fraction(2, 3), order)

    z2 = floer_mul(zp, zp)
    z_zeta0 = floer_mul(zp, zeta0)
    z_zeta1 = floer_mul(zp, zeta1)
    z3 = floer_mul(zp, z2)
    eta12 = floer_mul(eta1, eta2)
    eta2_sq, zeta1_cubed, xyz = _degree_six_monomials(order)[:3]  # y'^2, x'^3, x'y'z'

    checks = [  # (id, expected, actual) as q = 0 slot maps
        ("z'^2 = zeta0 + 2*zeta1", {0: 1, 1: 2}, z2.q0_map()),
        ("z'*zeta0 = eta0 + eta1 + eta2", {0: 1, 1: 1, 2: 1}, z_zeta0.q0_map()),
        ("z'*zeta1 = eta1 + eta2", {1: 1, 2: 1}, z_zeta1.q0_map()),
        ("z'^3 = eta0 + 3*eta1 + 3*eta2", {0: 1, 1: 3, 2: 3}, z3.q0_map()),
        ("eta2^2 = theta4", {4: 1}, eta2_sq.q0_map()),
        ("eta1*eta2 = theta3", {3: 1}, eta12.q0_map()),
        ("zeta1^3 = theta3", {3: 1}, zeta1_cubed.q0_map()),
        # associativity spot check: z'*(z'*z') against the assembled table rows
        ("z'^3 two ways", (z_zeta0 + z_zeta1.scale(2)).q0_map(), z3.q0_map()),
        # the degree-6 relation at q = 0
        ("y'^2 + x'^3 = x'*y'*z'", {}, (eta2_sq + zeta1_cubed - xyz).q0_map()),
    ]
    return [{"id": label, "status": "pass" if actual == expected else "fail",
             "expected": expected, "actual": actual}
            for label, expected, actual in checks]


# -- the degree-6 relation and the mirror curve ------------------------------

MONOMIAL_LABELS = ("y'^2", "x'^3", "x'y'z'", "x'^2z'^2", "y'z'^3", "x'z'^4", "z'^6")


def _degree_six_monomials(order: int):
    zp = FloerElement.basis(1, 0, order)
    xp = FloerElement.basis(2, Fraction(1, 2), order)
    yp = FloerElement.basis(3, Fraction(2, 3), order)
    z2 = floer_mul(zp, zp)
    z3 = floer_mul(zp, z2)
    z4 = floer_mul(zp, z3)
    return [
        floer_mul(yp, yp),
        _power(xp, 3),
        floer_mul(floer_mul(xp, yp), zp),
        floer_mul(_power(xp, 2), z2),
        floer_mul(yp, z3),
        floer_mul(xp, z4),
        floer_mul(zp, floer_mul(zp, z4)),
    ]


def _q0_matrix(monos):
    """The 6x7 integer matrix of q^0 coefficients: degree-6 slots x monomials."""
    return transpose([[row.coeffs[0] for row in m.rows] for m in monos])


def relation_certificate():
    """(|det| of the q=0 block without y'^2, gcd of the q=0 matrix's maximal
    minors).  (1, 1) makes the relation integral, and its q=0 space a line
    over every F_p as well as over Q."""
    m0t = _q0_matrix(_degree_six_monomials(1))
    minors = [det([row[:k] + row[k + 1:] for row in m0t]) for k in range(7)]
    return abs(minors[0]), math.gcd(*minors)


def relation_kernel(order: int):
    """Coefficients (c1..c7) of the unique relation among the seven
    degree-6 monomials, normalized so the y'^2 coefficient is 1.

    At q = 0 the relation space must be one-dimensional and involve y'^2.
    The 6x6 block of the q = 0 matrix without the y'^2 column is then
    inverted once over QQ; its inverse must be integral (determinant +-1),
    so every q-order is one integer matrix-vector product and the relation
    is integral by construction.  Returns a list of seven integer q-series.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    monos = _degree_six_monomials(order)
    # backwards[row][col]: the q-coefficients of monomial row in slot col, reversed
    backwards = [[slot.coeffs[::-1] for slot in m.rows] for m in monos]

    m0t = _q0_matrix(monos)
    kernel = nullspace(m0t, QQ)
    if len(kernel) != 1:
        raise VerificationFailure(
            f"relation space at q=0 has dimension {len(kernel)}, expected 1")
    if kernel[0][0] == 0:
        raise VerificationFailure("relation does not involve y'^2")
    block = [row[1:] for row in m0t]
    inverse = transpose([solve_right(block, [int(i == k) for i in range(6)], QQ)
                         for k in range(6)])
    if any(v.denominator != 1 for row in inverse for v in row):
        raise VerificationFailure(
            "q=0 block without y'^2 is not unimodular; the relation is not integral")
    inverse = [[int(v) for v in row] for row in inverse]

    # found[row]: the relation's q-coefficients at monomial row, q^0 up; the
    # q^m coefficient of found[row] times a slot series is one dot product of
    # found[row] with that series' q^m, ..., q^0 coefficients
    found = [[] for _ in range(7)]
    for m in range(order):
        found[0].append(int(m == 0))  # y'^2 fixed at 1; the rest still unknown
        start = order - 1 - m
        rhs = [-sum(sum(map(operator.mul, found[row], backwards[row][col][start:]))
                    for row in range(7))
               for col in range(6)]
        for row, brow in enumerate(inverse, 1):
            found[row].append(sum(map(operator.mul, brow, rhs)))

    series = [QSeries.make(ZZ, order, coeffs) for coeffs in found]

    # residual must vanish identically below the truncation order
    for m in range(6):
        total = QSeries.zero(ZZ, order)
        for i in range(7):
            total = total + series[i] * monos[i].rows[m]
        if not total.is_zero():
            raise VerificationFailure(f"relation residual nonzero in slot [{m}/6]")
    return series


@dataclass(frozen=True)
class MirrorResult:
    """Everything extracted on the way to the mirror curve."""

    relation: list
    unit: QSeries
    raw: weierstrass.WeierstrassCoeffs
    reparam: weierstrass.Reparam
    curve: weierstrass.WeierstrassCoeffs


def mirror_weierstrass(order: int) -> MirrorResult:
    """Dehomogenize the degree-6 relation and normalize to Tate form.

    Setting z' = 1 and rescaling x = f*x', y = f*y' with f = -c(x'^3) turns
    the relation into an integral Weierstrass equation, which is then brought
    to the shape (1, 0, 0, a4, a6) by an integral reparametrization.  The
    normal form over Z[[q]] retains one integer of gauge per q-order (the
    substitutions with u = 1 + 2s, 3r = s + s^2, 2t = -r); that freedom is
    sliced by pinning a4 to the divisor-power-sum expansion -5*sum s3(n)q^n,
    after which a6 is forced and is the substantive output of the map.
    """
    c = relation_kernel(order)
    f = -c[1]
    if not f.is_unit:
        raise VerificationFailure(f"x'^3 coefficient {c[1]!r} is not a unit")
    raw = weierstrass.WeierstrassCoeffs(
        c[2], -c[3], c[4] * f, -c[5] * f, -c[6] * f * f)
    g1, normal = weierstrass.tate_normalize(raw)
    a4_slice, _ = weierstrass.tate_coeffs(order)
    g2, curve = weierstrass.match_quartic_gauge(normal, a4_slice)
    g = weierstrass.reparam_compose(g2, g1)
    if weierstrass.reparam_apply(g, raw) != curve:
        raise VerificationFailure("composed normalization disagrees")
    return MirrorResult(c, f, raw, g, curve)


def seidel_mirror(order: int) -> weierstrass.WeierstrassCoeffs:
    """The mirror Weierstrass coefficients over Z[[q]], normalized."""
    return mirror_weierstrass(order).curve
