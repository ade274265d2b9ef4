"""Weierstrass cubics, their reparametrization group, and the Tate curve.

A curve is the projective closure of

    y^2 + a1*x*y + a3*y = x^3 + a2*x^2 + a4*x + a6

with coefficients truncated q-series over a common ring; a curve over the
ring itself, such as the q = 0 fiber, is the order-1 case.
The group G of coordinate changes x = u^2 x' + r, y = u^3 y' + u^2 s x' + t
acts on coefficient vectors; its Lie algebra acts on the coefficient space
and both actions are realized here exactly: the Lie layer reads its vector
fields off ``reparam_apply`` and its bracket off ``reparam_compose``.
"""

from __future__ import annotations

import enum
import functools
import operator
from dataclasses import dataclass

from . import _linalg
from .errors import InvariantError, NonUnitError, NormalizationFailure, RingMismatchError
from .exactnum import QQ, ZZ, QSeries, Ring, divisor_power_sum

COEFF_NAMES = ("a1", "a2", "a3", "a4", "a6")
LIE_NAMES = ("ds", "dr", "dt", "du")


class _SeriesRecord:
    """A record whose fields are q-series, built from coefficient lists."""

    @classmethod
    def from_ints(cls, ring: Ring, values):
        """One order-1 series per field, from its constant term."""
        return cls.from_series(ring, 1, [[v] for v in values])

    @classmethod
    def from_series(cls, ring: Ring, order: int, coeff_lists):
        """One series per field, coerced into ``ring`` and padded to ``order``."""
        return cls(*(QSeries.make(ring, order, c) for c in coeff_lists))


@dataclass(frozen=True)
class WeierstrassCoeffs(_SeriesRecord):
    """The five coefficients (a1, a2, a3, a4, a6), q-series of one order over one ring.

    A curve over the ring itself is the order-1 case.
    """

    a1: QSeries
    a2: QSeries
    a3: QSeries
    a4: QSeries
    a6: QSeries

    def __post_init__(self):
        if len({v.ring for v in self.as_tuple()}) != 1:
            raise RingMismatchError("coefficients over different rings")
        if len({v.order for v in self.as_tuple()}) != 1:
            raise RingMismatchError("coefficients with different orders")

    def as_tuple(self):
        return (self.a1, self.a2, self.a3, self.a4, self.a6)

    @property
    def ring(self) -> Ring:
        return self.a1.ring

    def to_ring(self, ring: Ring) -> "WeierstrassCoeffs":
        """Reduce or lift the coefficients into another ring."""
        return WeierstrassCoeffs(*(v.to_ring(ring) for v in self.as_tuple()))

    def truncate(self, order: int) -> "WeierstrassCoeffs":
        return WeierstrassCoeffs(*(v.truncate(order) for v in self.as_tuple()))


@dataclass(frozen=True)
class Reparam(_SeriesRecord):
    """A coordinate change (u, s, r, t); u must be invertible."""

    u: QSeries
    s: QSeries
    r: QSeries
    t: QSeries

    @staticmethod
    def identity_like(sample: QSeries) -> "Reparam":
        """The identity element over ``sample``'s ring, at its order."""
        zero = QSeries.zero(sample.ring, sample.order)
        return Reparam(QSeries.one(sample.ring, sample.order), zero, zero, zero)

    def as_tuple(self):
        return (self.u, self.s, self.r, self.t)


def reparam_apply(g: Reparam, w: WeierstrassCoeffs) -> WeierstrassCoeffs:
    """Transform coefficients by g; divides by the needed powers of u.

    The substitution formulas in nested form, r*a1 and a1 + 2s each formed
    once: 17 series products, an identity over any commutative ring.
    """
    u, s, r, t = g.as_tuple()
    a1, a2, a3, a4, a6 = w.as_tuple()
    try:
        ui = u.invert()
    except NonUnitError as e:
        raise NonUnitError(f"reparametrization with non-invertible u: {e}") from e
    ui2 = ui * ui
    ui3 = ui2 * ui
    ra1 = r * a1
    e1 = a1 + s * 2
    b1 = e1 * ui
    b2 = (a2 - s * (a1 + s) + r * 3) * ui2
    b3 = (a3 + ra1 + t * 2) * ui3
    b4 = (a4 - s * (a3 + ra1) + r * (a2 * 2 + r * 3) - t * e1) * (ui2 * ui2)
    b6 = (a6 + r * (a4 + r * (a2 + r)) - t * (a3 + t + ra1)) * (ui3 * ui3)
    return WeierstrassCoeffs(b1, b2, b3, b4, b6)


def reparam_compose(g2: Reparam, g1: Reparam) -> Reparam:
    """The element acting as g1 then g2: apply(compose(g2,g1), w) = apply(g2, apply(g1, w))."""
    u1, s1, r1, t1 = g1.as_tuple()
    u2, s2, r2, t2 = g2.as_tuple()
    u1sq = u1 * u1
    return Reparam(
        u1 * u2,
        s1 + u1 * s2,
        r1 + u1sq * r2,
        t1 + u1sq * (s1 * r2 + u1 * t2),
    )


def discriminant(w: WeierstrassCoeffs):
    """(Delta, c4) in the standard b2/b4/b6/b8 conventions."""
    a1, a2, a3, a4, a6 = w.as_tuple()
    b2 = a1 * a1 + a2 * 4
    b4 = a4 * 2 + a1 * a3
    b6 = a3 * a3 + a6 * 4
    b8 = a1 * a1 * a6 + a2 * a6 * 4 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    delta = -(b2 * b2 * b8) - (b4 * b4 * b4) * 8 - (b6 * b6) * 27 + (b2 * b4 * b6) * 9
    c4 = b2 * b2 - b4 * 24
    return delta, c4


class Fiber(enum.Enum):
    SMOOTH = "smooth"
    NODE = "node"
    CUSP = "cusp"


def classify_fiber(w: WeierstrassCoeffs) -> Fiber:
    """Smooth / Node / Cusp of an order-1 curve over a field, from (Delta, c4)."""
    if w.a1.order != 1:
        raise ValueError("specialize the series before classifying")
    if not w.ring.is_field:
        raise ValueError("classification needs field scalars")
    delta, c4 = discriminant(w)
    if not delta.is_zero():
        return Fiber.SMOOTH
    return Fiber.NODE if not c4.is_zero() else Fiber.CUSP


def tate_coeffs(order: int):
    """The Tate curve coefficients (a4, a6) over Z, truncated at q^order.

    a4 = -5 * sum sigma_3(n) q^n and a6 has n-th coefficient
    -(5*sigma_3(n) + 7*sigma_5(n)) / 12, which is always an integer.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    a4 = [0]
    a6 = [0]
    for n in range(1, order):
        s3 = divisor_power_sum(3, n)
        s5 = divisor_power_sum(5, n)
        a4.append(-5 * s3)
        num = 5 * s3 + 7 * s5
        if num % 12:
            raise InvariantError(f"12 does not divide 5*sigma3+7*sigma5 at n={n}")
        a6.append(-(num // 12))
    return QSeries.make(ZZ, order, a4), QSeries.make(ZZ, order, a6)


def tate_curve(order: int) -> WeierstrassCoeffs:
    """The Tate curve (1, 0, 0, a4(q), a6(q)) over Z[[q]] mod q^order."""
    a4, a6 = tate_coeffs(order)
    one = QSeries.one(ZZ, order)
    zero = QSeries.zero(ZZ, order)
    return WeierstrassCoeffs(one, zero, zero, a4, a6)


# -- normalization to Tate form ---------------------------------------------

def _hensel_normalizer(w: WeierstrassCoeffs):
    """Order-by-order integral solve of a1'=1, a2'=0, a3'=0, with a balanced lift.

    u(0) takes the sign of the odd a1(0); the other sign fails exactly when
    this one does, since s0*(s0 + a1(0)) = (1 - a1(0)^2)/4 for either, so
    r(0), t(0) and both divisibility tests are the same.

    At order m >= 1 the equations are linear in the new unknowns:
    3r[m] - u0*s[m] = -f2 and a1(0)*r[m] + 2t[m] = -f3, with f2, f3 the
    residuals of the lower orders.  Their integral solutions are one member
    plus k*(2, 6*u0, -a1(0)) in (r, s, t)[m], for every integer k, which
    moves u[m] = a1[m] + 2s[m] by 12*u0*k; the lift takes the k that puts
    u[m] in [-6, 5]:
    - every k solves both order-m equations, so each k gives a normal form;
    - on a normal form f2 = f3 = 0 and a1[m] = 0, so the member with
      r[m] = 0 has u[m] = 0 and k = 0: normal forms still map to the identity;
    - two members differ by a normal-form stabilizer, which the a4 slice of
      ``match_quartic_gauge`` undoes: the sliced curve and the composed
      reparametrization are the same for every choice of k.
    The choice keeps the integers small: under members chosen otherwise,
    such as r[m] in {0, 1} or s[m] in [-3, 2], u follows a1, and u's
    inverse, with the normal form's a4 and a6, grows several bits per order.
    """
    order = w.a1.order
    a1, a2, a3 = (list(v.coeffs) for v in (w.a1, w.a2, w.a3))
    a10 = a1[0]
    u0 = 1 if a10 > 0 else -1
    s0 = (u0 - a10) // 2
    num = s0 * s0 + s0 * a10 - a2[0]
    r0 = num // 3
    tnum = -(a3[0] + r0 * a10)
    if num % 3 or tnum % 2:
        raise NormalizationFailure(0)
    t0 = tnum // 2

    s = [s0] + [0] * (order - 1)
    r = [r0] + [0] * (order - 1)
    t = [t0] + [0] * (order - 1)

    def conv(x, y, m):
        return sum(map(operator.mul, x[:m + 1], y[m::-1]))

    for m in range(1, order):
        # residuals of a2 - s*a1 + 3r - s^2 and a3 + r*a1 + 2t at order m, where
        # the order-m unknowns are still zero, so 3r and 2t add nothing
        f2 = a2[m] - conv(s, a1, m) - conv(s, s, m)
        f3 = a3[m] + conv(r, a1, m)
        rm = f3 % 2
        sm = u0 * (f2 + 3 * rm)
        k = -u0 * ((a1[m] + 2 * sm + 6) // 12)  # balanced: u[m] in [-6, 5]
        s[m] = sm + 6 * u0 * k
        r[m] = rm + 2 * k
        t[m] = (-f3 - a10 * r[m]) // 2
    u = QSeries.make(ZZ, order, a1) + QSeries.make(ZZ, order, s) * 2
    return Reparam(u, QSeries.make(ZZ, order, s),
                   QSeries.make(ZZ, order, r), QSeries.make(ZZ, order, t))


def tate_normalize(w: WeierstrassCoeffs):
    """Integral change of variable bringing w to the form (1, 0, 0, *, *).

    Requires a q-series curve over Z whose q = 0 fiber is a node with odd a1.
    Returns (g, w') with w' = reparam_apply(g, w), a1' = 1 and a2' = a3' = 0
    exactly mod q^K, lifted order by order from its q = 0 term; u(0) takes the
    sign of a1 at q = 0.
    """
    if w.ring is not ZZ:
        raise ValueError("normalization expects q-series coefficients over Z")
    a10 = w.a1.coeffs[0]
    if a10 % 2 == 0:
        raise NormalizationFailure(0, "a1 is even at q=0")
    fiber = classify_fiber(w.truncate(1).to_ring(QQ))
    if fiber is not Fiber.NODE:
        raise NormalizationFailure(0, f"q=0 fiber is {fiber.value}, not a node")

    g = _hensel_normalizer(w)
    out = reparam_apply(g, w)
    one = QSeries.one(ZZ, w.a1.order)
    zero = QSeries.zero(ZZ, w.a1.order)
    if out.a1 != one or out.a2 != zero or out.a3 != zero:
        raise InvariantError("normalization produced a non-normal form")
    return g, out


def normal_form_stabilizer(s: QSeries) -> Reparam:
    """The integral reparametrization with parameter series s preserving (1, 0, 0, *, *).

    These are all the elements fixing that shape: u = 1 + 2s, 3r = s + s^2 and
    2t = -r; the divisions by 3 and 2 must be exact (s in 6*q*Z[[q]] suffices).
    """
    r = (s + s * s).exact_div(3)
    t = (-r).exact_div(2)
    return Reparam(s * 2 + 1, s, r, t)


def _lift_quadratic(d: QSeries, c: int) -> QSeries:
    """The unique x with x(0) = 0 and x + c*x^2 = d, for d(0) = 0, order by order over Z."""
    x = [0] * d.order
    for m in range(1, d.order):
        x[m] = d.coeffs[m] - c * sum(map(operator.mul, x[1:m], x[m - 1:0:-1]))
    return QSeries.make(ZZ, d.order, x)


def match_quartic_gauge(w: WeierstrassCoeffs, a4_target: QSeries):
    """Slice the residual gauge of a normal form by pinning its a4 series.

    A curve in the shape (1, 0, 0, a4, a6) is preserved exactly by the
    stabilizers above, and c4 = 1 - 48*a4 scales by u^-4 under them.  With
    v = s + s^2 and target T the slice is the single equation
    (1 - 48T)(v + 2v^2) = 6(T - a4), solved for v and then s by two integral
    lifts when a4(0) = 0; the normal form with a prescribed a4 is then unique.
    Returns (g, w') with w'.a4 equal to the target.
    """
    order = w.a1.order
    one = QSeries.one(ZZ, order)
    zero = QSeries.zero(ZZ, order)
    if w.a1 != one or w.a2 != zero or w.a3 != zero:
        raise ValueError("gauge matching expects a curve in normal form")
    if a4_target.coeffs[0] != w.a4.coeffs[0]:
        raise NormalizationFailure(0, "constant quartic coefficients differ")
    if w.a4 == a4_target:
        return Reparam.identity_like(w.a1), w
    # s = 6k*q^m fixes lower orders and moves a4 at q^m by k*(1 - 48*a4(0))
    step = 1 - 48 * w.a4.coeffs[0]
    if step != 1:
        m = next(m for m in range(order) if a4_target.coeffs[m] != w.a4.coeffs[m])
        raise InvariantError(f"stabilizer step {step} at order {m}")
    d = ((a4_target - w.a4) * 6) * (one - a4_target * 48).invert()
    g = normal_form_stabilizer(_lift_quadratic(_lift_quadratic(d, 2), 1))
    current = reparam_apply(g, w)
    if current.a4 != a4_target:
        raise InvariantError("gauge matching failed to reach the target")
    return g, current


# -- Lie algebra of the reparametrization group ------------------------------

@dataclass(frozen=True)
class LieElement:
    """Coefficients on the basis (ds, dr, dt, du) over a field."""

    ring: Ring
    ds: object
    dr: object
    dt: object
    du: object

    @staticmethod
    def of(ring: Ring, ds=0, dr=0, dt=0, du=0) -> "LieElement":
        return LieElement(ring, *(ring.coerce(v) for v in (ds, dr, dt, du)))

    def as_vector(self):
        return [self.ds, self.dr, self.dt, self.du]


def _group_element(xi: LieElement, order: int) -> Reparam:
    """The element (1 + q*du, q*ds, q*dr, q*dt) of G over series of the given order."""
    return Reparam.from_series(xi.ring, order,
                               [[1, xi.du], [0, xi.ds], [0, xi.dr], [0, xi.dt]])


def lie_bracket(xi: LieElement, eta: LieElement) -> LieElement:
    """[xi, eta] read off the group law: for the order-3 elements g of xi and
    h of eta, the q^2 terms of compose(h, g) - compose(g, h) are (du, ds, dr, dt)
    of the bracket, integer polynomials in the coordinates over every field."""
    ring = xi.ring
    if eta.ring is not ring:
        raise RingMismatchError("bracket of elements over different fields")
    g, h = _group_element(xi, 3), _group_element(eta, 3)
    du, ds, dr, dt = ((a - b).coeffs[2] for a, b in
                      zip(reparam_compose(h, g).as_tuple(), reparam_compose(g, h).as_tuple()))
    return LieElement(ring, ds, dr, dt, du)


def lie_vector_field(xi: LieElement, point) -> list:
    """The induced vector field of xi at a coefficient-space point.

    ``point`` is a length-5 sequence over xi's field.  Computed by applying
    the substitution formulas over dual numbers (order-2 series), so this is
    the exact derivative of the group action at the identity.
    """
    ring = xi.ring
    if not ring.is_field:
        raise ValueError("Lie computations need a field")
    w = WeierstrassCoeffs.from_series(ring, 2, [[v] for v in point])
    moved = reparam_apply(_group_element(xi, 2), w)
    return [v.coeffs[1] for v in moved.as_tuple()]


def lie_d_matrix(ring: Ring):
    """The 5x4 matrix of xi -> rho(xi)(0) over the field, with coker/ker ranks.

    Rows are the coefficient directions (a1, a2, a3, a4, a6); columns are
    (ds, dr, dt, du).  Returns (matrix, coker_rank, ker_rank).
    """
    origin = [0, 0, 0, 0, 0]
    cols = [lie_vector_field(LieElement.of(ring, **{name: 1}), origin)
            for name in LIE_NAMES]
    matrix = _linalg.transpose(cols)
    rk = _linalg.rank(matrix, ring)
    return matrix, 5 - rk, 4 - rk


@functools.cache
def _coker_projection(ring: Ring):
    """Row-reduced image of d, used to cut im d out of coefficient vectors;
    cached per ring (rings are interned), so callers must not mutate it."""
    matrix, _, _ = lie_d_matrix(ring)
    image_rows = _linalg.transpose(matrix)
    return _linalg.rref(image_rows, ring)


def coeff_direction(ring: Ring, name: str):
    """The unit vector along one of the coefficient directions a1..a6."""
    vec = [ring.zero()] * 5
    vec[COEFF_NAMES.index(name)] = ring.one()
    return vec


def adjoint_bracket(xi: LieElement, w) -> list:
    """Directional derivative of rho(xi) along the constant field w, at 0,
    projected to coker d.

    Requires d(xi) = 0.  The group action is affine in the coefficients, so
    the derivative is rho(xi)(w) - rho(xi)(0) = rho(xi)(w).
    """
    ring = xi.ring
    if any(v != ring.zero() for v in lie_vector_field(xi, [0, 0, 0, 0, 0])):
        raise ValueError("adjoint_bracket requires an element of ker d")
    span, pivots = _coker_projection(ring)
    return _linalg.reduce_mod_span(span, pivots, lie_vector_field(xi, w), ring)
