import copy
import dataclasses
import itertools
import pickle
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tatemirror import exactnum
from tatemirror.errors import NonUnitError, RingMismatchError
from tatemirror.exactnum import GF, QQ, ZZ, QSeries, _is_prime, divisor_power_sum


def zser(coeffs, order=None):
    return QSeries.make(ZZ, order or len(coeffs), coeffs)


def scalar(ring, x):
    """An element of the ring itself: a series of order 1."""
    return QSeries.make(ring, 1, [x])


class TestScalar:
    def test_ring_identity_is_cached(self):
        assert GF(7) is GF(7)
        assert ZZ is not QQ

    @pytest.mark.parametrize("ring", [ZZ, QQ, GF(7), GF(2305843009213693951)], ids=repr)
    def test_pickle_and_copies_return_the_same_ring(self, ring):
        assert pickle.loads(pickle.dumps(ring)) is ring
        assert copy.deepcopy(ring) is ring and copy.copy(ring) is ring
        assert ring.characteristic == 0 or GF(ring.p) is ring

    def test_each_prime_is_tested_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(exactnum, "_is_prime", lambda p: calls.append(p) or _is_prime(p))
        assert GF(2147483647) is GF(2147483647)
        assert calls == [2147483647]
        with pytest.raises(TypeError):
            GF(p=7)  # a keyword call would be a second cache key, so a second ring

    def test_arithmetic_tags(self):
        a = scalar(ZZ, 5)
        b = scalar(ZZ, -3)
        assert (a + b).coeffs[0] == 2
        assert (a * b).coeffs[0] == -15
        assert (-a).coeffs[0] == -5

    def test_mixed_rings_rejected(self):
        with pytest.raises(RingMismatchError):
            scalar(ZZ, 1) + scalar(QQ, 1)
        with pytest.raises(RingMismatchError):
            scalar(GF(5), 1) * scalar(GF(7), 1)

    def test_prime_field_reduction(self):
        a = scalar(GF(7), 10)
        assert a.coeffs[0] == 3
        assert (a * a).coeffs[0] == 2
        assert a.invert().coeffs[0] == 5  # 3*5 = 15 = 1 mod 7

    def test_integer_units(self):
        assert scalar(ZZ, -1).invert().coeffs[0] == -1
        with pytest.raises(NonUnitError):
            scalar(ZZ, 2).invert()

    def test_rational_coercion(self):
        assert scalar(QQ, Fraction(2, 4)).coeffs[0] == Fraction(1, 2)
        with pytest.raises(ValueError):
            scalar(ZZ, Fraction(1, 2))

    def test_qq_zero_and_one_are_shared_fractions(self):
        assert QQ.zero() is QQ.zero() and QQ.one() is QQ.one()
        assert type(QQ.zero()) is Fraction and type(QQ.one()) is Fraction
        assert (QQ.zero(), QQ.one()) == (0, 1)

    def test_gf_requires_prime(self):
        with pytest.raises(ValueError):
            GF(6)

    def test_primality_agrees_with_trial_division(self):
        primes = []  # trial division by the primes found so far, up to sqrt(n)
        for n in range(2, 10 ** 5):
            if all(n % d for d in itertools.takewhile(lambda d: d * d <= n, primes)):
                primes.append(n)
        assert [n for n in range(-5, 10 ** 5) if _is_prime(n)] == primes

    def test_primality_rejects_pseudoprimes_and_takes_large_primes(self):
        # Carmichael numbers, and the least strong pseudoprime to bases 2, 3, 5, 7
        for n in (561, 41041, 3215031751):
            assert not _is_prime(n)
            with pytest.raises(ValueError):
                GF(n)
        assert GF(2 ** 61 - 1).characteristic == 2 ** 61 - 1
        assert GF(10 ** 14 + 31).characteristic == 10 ** 14 + 31
        with pytest.raises(ValueError, match="bound"):
            GF(2 ** 89 - 1)

    @pytest.mark.parametrize("ring", [ZZ, QQ, GF(5)])
    def test_bool_rejected_in_every_ring(self, ring):
        for flag in (True, False):
            with pytest.raises(TypeError, match="bool"):
                ring.coerce(flag)
        with pytest.raises(TypeError, match="bool"):
            QSeries.make(ring, 2, [True, False])
        with pytest.raises(TypeError, match="bool"):
            QSeries.make(ring, 2, [1, False])


class TestQSeries:
    def test_difference_of_squares(self):
        one_plus = zser([1, 1, 0])
        one_minus = zser([1, -1, 0])
        assert one_plus * one_minus == zser([1, 0, -1])

    def test_truncation_kills_top(self):
        k = 5
        qtop = QSeries.make(ZZ, k, [0] * (k - 1) + [1])
        q = QSeries.make(ZZ, k, [0, 1])
        assert (qtop * q).is_zero()

    def test_square_of_geometric_prefix(self):
        s = zser([1, 1, 1])
        assert s * s == zser([1, 2, 3])

    def test_invert_identity(self):
        assert QSeries.one(ZZ, 4).invert() == QSeries.one(ZZ, 4)

    def test_invert_geometric(self):
        assert zser([1, -1, 0, 0]).invert() == zser([1, 1, 1, 1])

    def test_invert_negative_unit(self):
        assert zser([-1, 1, 0]).invert() == zser([-1, -1, -1])

    def test_invert_nonunit_fails(self):
        with pytest.raises(NonUnitError):
            zser([2, 1]).invert()

    def test_order_mismatch_is_hard_error(self):
        with pytest.raises(RingMismatchError):
            zser([1], 3) + zser([1], 4)
        with pytest.raises(RingMismatchError):
            zser([1], 3) * zser([1], 4)

    def test_shift(self):
        assert zser([1, 2, 3]).shift(1) == zser([0, 1, 2])
        assert zser([1, 2, 3]).shift(5).is_zero()

    def test_exact_div(self):
        assert zser([2, 4, 6]).exact_div(2) == zser([1, 2, 3])
        with pytest.raises(NonUnitError):
            zser([2, 3]).exact_div(2)

    def test_to_ring_roundtrip(self):
        s = zser([3, -5, 7])
        assert s.to_ring(QQ).to_ring(ZZ) == s
        assert s.to_ring(GF(5)) == QSeries.make(GF(5), 3, [3, 0, 2])

    def test_repr_of_a_constant_term_and_a_skipped_zero(self):
        assert repr(QSeries.make(ZZ, 3, [2, 0, -1])) == "(2 + -1*q^2 + O(q^3))"


short_ints = st.integers(min_value=-40, max_value=40)


@st.composite
def z_series(draw, order=6):
    return zser(draw(st.lists(short_ints, min_size=order, max_size=order)))


@settings(max_examples=150, deadline=None)
@given(z_series(), z_series(), z_series())
def test_ring_axioms_mod_qk(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert a + b == b + a


@settings(max_examples=100, deadline=None)
@given(z_series(), st.sampled_from([1, -1]))
def test_invert_is_two_sided(tail, unit):
    s = QSeries.make(ZZ, 6, [unit] + list(tail.coeffs[1:]))
    inv = s.invert()
    assert s * inv == QSeries.one(ZZ, 6)
    assert inv * s == QSeries.one(ZZ, 6)


@settings(max_examples=150, deadline=None)
@given(st.integers(-1000, 1000), st.integers(-1000, 1000),
       st.sampled_from([2, 3, 5, 7, 11]))
@example(2, 3, 5)
def test_reduction_commutes_with_arithmetic(a, b, p):
    fp = GF(p)
    for op in ("add", "mul", "sub"):
        direct = getattr(fp, op)(fp.coerce(a), fp.coerce(b))
        via_z = getattr(ZZ, op)(ZZ.coerce(a), ZZ.coerce(b)) % p
        assert direct == via_z


@settings(max_examples=150, deadline=None)
@given(z_series(), z_series(), st.sampled_from([2, 3, 5, 7, 11]))
def test_product_commutes_with_reduction(s, t, p):
    fp = GF(p)
    assert (s * t).to_ring(fp) == s.to_ring(fp) * t.to_ring(fp)


@settings(max_examples=150, deadline=None)
@given(z_series(), z_series(), st.sampled_from([2, 3, 5, 7, 11]))
def test_sum_commutes_with_reduction(s, t, p):
    fp = GF(p)
    sp, tp = s.to_ring(fp), t.to_ring(fp)
    for got, want in ((sp + tp, s + t), (sp - tp, s - t), (-sp, -s)):
        assert got == want.to_ring(fp)
        assert all(0 <= c < p for c in got.coeffs)


SERIES_RINGS = (ZZ, QQ, GF(2), GF(3), GF(7))


@st.composite
def ring_series(draw, ring, order, unit=False):
    """A series over ring: dense, or sparse with at most two nonzero terms;
    with ``unit`` its constant term is a unit of the ring."""
    if ring is QQ:
        value = st.fractions(min_value=-20, max_value=20, max_denominator=12)
    else:
        value = short_ints
    if draw(st.booleans()):
        coeffs = draw(st.lists(value, min_size=order, max_size=order))
    else:
        coeffs = [0] * order
        for i in draw(st.lists(st.integers(0, order - 1), max_size=2)):
            coeffs[i] = draw(value)
    if unit:
        coeffs[0] = draw(st.sampled_from([1, -1]) if ring is ZZ
                         else value.filter(lambda c: ring.coerce(c) != 0))
    return QSeries.make(ring, order, coeffs)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_products_commute_and_inverses_invert_over_every_ring(data):
    ring = data.draw(st.sampled_from(SERIES_RINGS))
    order = data.draw(st.integers(1, 8))
    a, b = data.draw(ring_series(ring, order)), data.draw(ring_series(ring, order))
    product = QSeries.make(ring, order, [sum(a.coeffs[i] * b.coeffs[n - i]
                                             for i in range(n + 1)) for n in range(order)])
    assert a * b == b * a == product
    x = data.draw(ring_series(ring, order, unit=True))
    assert x.invert() * x == x * x.invert() == QSeries.one(ring, order)


def _oracle_inverse(coeffs):
    """The inverse of a series with unit constant term over Q, by long division."""
    out = []
    for n in range(len(coeffs)):
        rest = sum(Fraction(coeffs[i]) * out[n - i] for i in range(1, n + 1))
        out.append((int(n == 0) - rest) / Fraction(coeffs[0]))
    return out


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_arithmetic_results_equal_their_made_series(data):
    # every result that arithmetic builds with _series must be the series that
    # make builds from the oracle coefficients: equal, hashing alike, with the
    # same coefficient types, and frozen
    ring = data.draw(st.sampled_from(SERIES_RINGS))
    order = data.draw(st.integers(1, 8))
    a, b = data.draw(ring_series(ring, order)), data.draw(ring_series(ring, order))
    u = data.draw(ring_series(ring, order, unit=True))
    c = data.draw(short_ints)
    m = data.draw(st.integers(0, order + 1))
    k = data.draw(st.integers(1, order))
    d = data.draw(st.integers(-9, 9).filter(lambda d: d and ring.coerce(d)))
    x, y = a.coeffs, b.coeffs
    raw = (lambda v: Fraction(v)) if ring is QQ else (lambda v: v)
    cases = [
        (a + b, order, [raw(p) + raw(q) for p, q in zip(x, y)]),
        (a - b, order, [raw(p) - raw(q) for p, q in zip(x, y)]),
        (-a, order, [-raw(p) for p in x]),
        (a * b, order, [sum(raw(x[i]) * raw(y[n - i]) for i in range(n + 1))
                        for n in range(order)]),
        (a * c, order, [raw(p) * c for p in x]),
        (c * a, order, [raw(p) * c for p in x]),
        (a.shift(m), order, ([0] * m + list(x))[:order]),
        (a.truncate(k), k, list(x[:k])),
        (u.invert(), order, _oracle_inverse(u.coeffs)),
        ((a * d).exact_div(d), order, list(x)),
        (a.exact_div(d) if ring.is_field else a * d, order,
         [Fraction(p) / d if ring.is_field else p * d for p in x]),
    ]
    for got, got_order, coeffs in cases:
        want = QSeries.make(ring, got_order, coeffs)
        assert got == want and hash(got) == hash(want)
        assert type(got.coeffs) is tuple
        assert [type(v) for v in got.coeffs] == [type(v) for v in want.coeffs]
        for name in ("ring", "order", "coeffs"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(got, name, getattr(want, name))


class TestDivisorPowerSum:
    def test_small_values(self):
        assert divisor_power_sum(3, 1) == 1
        assert divisor_power_sum(3, 2) == 9
        assert divisor_power_sum(0, 4) == 3
        assert divisor_power_sum(1, 6) == 12

    def test_sigma5_of_3(self):
        # divisors of 3 are 1 and 3
        assert divisor_power_sum(5, 3) == 1 + 3 ** 5 == 244

    def test_against_enumeration(self):
        for n in range(1, 60):
            for k in (0, 1, 3, 5):
                brute = sum(d ** k for d in range(1, n + 1) if n % d == 0)
                assert divisor_power_sum(k, n) == brute

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            divisor_power_sum(3, 0)
