"""The rings Z, Q and F_p, and truncated q-series over them.

``QSeries`` is the one exact value type: an element of the ring itself is a
series of order 1.  Everything here is exact: integers are arbitrary
precision, rationals are ``fractions.Fraction``, prime-field elements are
reduced residues.  No floats appear anywhere in the package.

Every series that ``QSeries`` arithmetic returns is built by ``_series``,
which stores the three slots without the frozen dataclass's ``__init__``;
``_unchecked`` makes that builder, and ``theta._element`` for its element type.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, fields
from fractions import Fraction

from .errors import NonUnitError, RingMismatchError

_QQ_ZERO, _QQ_ONE = Fraction(0), Fraction(1)  # QQ.zero(), QQ.one(): a Fraction is immutable


_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3317044064679887385961981  # the least strong pseudoprime to them all


def _is_prime(p: int) -> bool:
    """Miller-Rabin with the prime bases 2..41: exact for p < _PRIME_BOUND."""
    if p < 2 or any(p % a == 0 for a in _PRIME_BASES):
        return p in _PRIME_BASES
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d * 2**s with d odd
    d = (p - 1) >> s
    for a in _PRIME_BASES:
        x = pow(a, d, p)
        if x != 1 and p - 1 not in (pow(x, 1 << i, p) for i in range(s)):
            return False
    return True


class Ring:
    """One of Z, Q or F_p, with arithmetic on raw representatives.

    Raw representatives are ``int`` for Z and F_p (residues in [0, p)) and
    ``Fraction`` for Q.  Rings come only from ``ZZ``, ``QQ`` and the cached
    ``GF(p)``, one instance each, so ring equality is identity; pickling and
    copying return that instance.
    """

    __slots__ = ("kind", "p")

    def __init__(self, kind: str, p: int | None = None):
        self.kind, self.p = kind, p

    def __repr__(self):
        return {"ZZ": "ZZ", "QQ": "QQ"}.get(self.kind) or f"GF({self.p})"

    def __reduce__(self):
        return (GF, (self.p,)) if self.kind == "GF" else self.kind

    @property
    def characteristic(self) -> int:
        return self.p if self.kind == "GF" else 0

    @property
    def is_field(self) -> bool:
        return self.kind != "ZZ"

    def coerce(self, x):
        """Raw representative of ``x`` (an int, Fraction or raw value)."""
        if isinstance(x, bool):
            raise TypeError("bool is not a ring element")
        if self.kind == "ZZ":
            if isinstance(x, int):
                return x
            if isinstance(x, Fraction):
                if x.denominator != 1:
                    raise ValueError(f"{x} is not an integer")
                return x.numerator
            raise TypeError(f"cannot coerce {x!r} into ZZ")
        if self.kind == "QQ":
            if isinstance(x, (int, Fraction)):
                return Fraction(x)
            raise TypeError(f"cannot coerce {x!r} into QQ")
        if isinstance(x, int):
            return x % self.p
        if isinstance(x, Fraction):
            return (x.numerator * pow(x.denominator, -1, self.p)) % self.p
        raise TypeError(f"cannot coerce {x!r} into {self!r}")

    # arithmetic on raw representatives
    def add(self, a, b):
        return (a + b) % self.p if self.kind == "GF" else a + b

    def sub(self, a, b):
        return (a - b) % self.p if self.kind == "GF" else a - b

    def mul(self, a, b):
        return (a * b) % self.p if self.kind == "GF" else a * b

    def zero(self):
        return _QQ_ZERO if self.kind == "QQ" else 0

    def one(self):
        return _QQ_ONE if self.kind == "QQ" else 1

    def is_unit(self, a) -> bool:
        if self.kind == "ZZ":
            return a in (1, -1)
        return a != self.zero()

    def invert(self, a):
        if not self.is_unit(a):
            raise NonUnitError(f"{a} is not a unit of {self!r}")
        if self.kind == "ZZ":
            return a
        return Fraction(1) / a if self.kind == "QQ" else pow(a, -1, self.p)


ZZ = Ring("ZZ")
QQ = Ring("QQ")


@functools.cache
def GF(p: int, /) -> Ring:
    if p >= _PRIME_BOUND:
        raise ValueError(f"{p} is past the primality bound {_PRIME_BOUND}")
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    return Ring("GF", p)


def ring_of_characteristic(char: int) -> Ring:
    """QQ for characteristic 0, GF(p) for characteristic p."""
    return QQ if char == 0 else GF(char)


@dataclass(frozen=True, slots=True)
class QSeries:
    """A power series in q over ``ring``, truncated at order ``order``.

    ``coeffs`` is a tuple of exactly ``order`` raw coefficients c0..c_{K-1};
    all operations truncate at q^order.  Mismatched rings or orders are hard
    errors, never silent re-truncation.  ``make`` coerces and pads; the
    dataclass ``__init__`` validates nothing (there is no ``__post_init__``),
    so arithmetic, whose results are reduced tuples of length ``order``
    already, builds them with ``_series`` and skips no check.
    """

    ring: Ring
    order: int
    coeffs: tuple

    @staticmethod
    def make(ring: Ring, order: int, coeffs=()) -> "QSeries":
        if order < 1:
            raise ValueError("truncation order must be >= 1")
        raw = [ring.coerce(c) for c in coeffs]
        if len(raw) > order:
            raise ValueError(f"{len(raw)} coefficients exceed order {order}")
        raw.extend(ring.zero() for _ in range(order - len(raw)))
        return QSeries(ring, order, tuple(raw))

    # a series is immutable, so zero and one are built once per (ring, order)
    @staticmethod
    @functools.cache
    def zero(ring: Ring, order: int) -> "QSeries":
        return QSeries.make(ring, order, [])

    @staticmethod
    @functools.cache
    def one(ring: Ring, order: int) -> "QSeries":
        return QSeries.make(ring, order, [1])

    def _check(self, other: "QSeries"):
        if not isinstance(other, QSeries):
            raise TypeError(f"expected QSeries, got {other!r}")
        if other.ring is not self.ring:
            raise RingMismatchError(f"{self.ring!r} vs {other.ring!r}")
        if other.order != self.order:
            raise RingMismatchError(
                f"truncation orders differ: {self.order} vs {other.order}")

    def _termwise(self, coeffs) -> "QSeries":
        """A series of this ring and order from termwise sums, differences or
        negatives of representatives, reduced once over GF(p)."""
        if self.ring.kind == "GF":
            p = self.ring.p
            return _series(self.ring, self.order, tuple(c % p for c in coeffs))
        return _series(self.ring, self.order, tuple(coeffs))

    def __add__(self, other):
        if isinstance(other, int) and not isinstance(other, bool):
            other = QSeries.make(self.ring, self.order, [other])
        self._check(other)
        return self._termwise(map(operator.add, self.coeffs, other.coeffs))

    __radd__ = __add__

    def __sub__(self, other):
        self._check(other)
        return self._termwise(map(operator.sub, self.coeffs, other.coeffs))

    def __neg__(self):
        return self._termwise(map(operator.neg, self.coeffs))

    def __mul__(self, other):
        if isinstance(other, int) and not isinstance(other, bool):
            c = self.ring.coerce(other)
            mul = self.ring.mul
            return _series(self.ring, self.order, tuple(mul(a, c) for a in self.coeffs))
        self._check(other)
        k = self.order
        a, b = self.coeffs, other.coeffs
        if a.count(0) < b.count(0):  # the loop skips the zeros of a
            a, b = b, a
        out = [self.ring.zero()] * k
        for i, ai in enumerate(a):
            if ai:
                for j in range(k - i):
                    out[i + j] += ai * b[j]
        if self.ring.kind == "GF":  # residues accumulate as integers, reduced once
            out = [c % self.ring.p for c in out]
        return _series(self.ring, self.order, tuple(out))

    __rmul__ = __mul__

    def shift(self, m: int) -> "QSeries":
        """Multiply by q^m (m >= 0), truncating."""
        if m < 0:
            raise ValueError("negative shifts leave the ring")
        if m == 0:
            return self
        z = self.ring.zero()
        coeffs = (z,) * min(m, self.order) + self.coeffs[: max(self.order - m, 0)]
        return _series(self.ring, self.order, coeffs)

    def invert(self) -> "QSeries":
        """Multiplicative inverse mod q^order; the constant term must be a unit."""
        c0 = self.coeffs[0]
        if not self.ring.is_unit(c0):
            raise NonUnitError(f"constant term {c0} is not a unit of {self.ring!r}")
        ring, c = self.ring, self.coeffs
        inv0 = ring.invert(c0)
        out = [inv0]
        for n in range(1, self.order):  # c[1]*out[n-1] + ... + c[n]*out[0]
            out.append(ring.coerce(-inv0 * sum(map(operator.mul, c[n:0:-1], out))))
        return _series(self.ring, self.order, tuple(out))

    def exact_div(self, d: int) -> "QSeries":
        """Divide every coefficient by the integer d, exactly."""
        if d == 0:
            raise ZeroDivisionError
        if self.ring.kind == "ZZ":
            for c in self.coeffs:
                if c % d:
                    raise NonUnitError(f"coefficient {c} is not divisible by {d}")
            return _series(self.ring, self.order, tuple(c // d for c in self.coeffs))
        dinv = self.ring.invert(self.ring.coerce(d))
        mul = self.ring.mul
        return _series(self.ring, self.order, tuple(mul(c, dinv) for c in self.coeffs))

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    @property
    def is_unit(self) -> bool:
        return self.ring.is_unit(self.coeffs[0])

    def truncate(self, order: int) -> "QSeries":
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return _series(self.ring, order, self.coeffs[:order])

    def to_ring(self, ring: Ring) -> "QSeries":
        """Re-tag coefficients into another ring (reducing or lifting exactly)."""
        return QSeries.make(ring, self.order, list(self.coeffs))

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == self.ring.zero():
                continue
            if i == 0:
                terms.append(f"{c}")
            elif i == 1:
                terms.append(f"{c}*q")
            else:
                terms.append(f"{c}*q^{i}")
        body = " + ".join(terms) if terms else "0"
        return f"({body} + O(q^{self.order}))"


def _unchecked(cls):
    """The builder of ``cls``, a frozen slotted dataclass of three fields.

    The builder takes the three field values in order and stores them through
    the slot descriptors, unchecked.  The frozen dataclass ``__init__`` assigns
    each field through ``object.__setattr__`` (and runs any ``__post_init__``);
    the slot descriptors do the same stores at a fraction of the cost.  Its
    callers pass values that hold the class's invariants by construction.
    """
    new = functools.partial(object.__new__, cls)
    set_a, set_b, set_c = (getattr(cls, field.name).__set__ for field in fields(cls))

    def build(a, b, c):
        obj = new()
        set_a(obj, a)
        set_b(obj, b)
        set_c(obj, c)
        return obj

    return build


# ``_series(ring, order, coeffs)`` is ``QSeries(ring, order, coeffs)``, its slots
# stored directly.  ``coeffs`` must be a tuple of exactly ``order`` raw
# coefficients of ``ring``, reduced, as every caller already builds.
_series = _unchecked(QSeries)


def divisor_power_sum(k: int, n: int) -> int:
    """sigma_k(n), the sum of k-th powers of the positive divisors of n."""
    if n <= 0:
        raise ValueError("n must be positive")
    if k < 0:
        raise ValueError("k must be nonnegative")
    total = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            total += d ** k
            e = n // d
            if e != d:
                total += e ** k
        d += 1
    return total
