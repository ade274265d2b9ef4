"""The structure-constant tables behind both basis products.

Each ring keeps one table entry per slot pair, built at the largest order
asked for so far; a lower order filters it and a higher one extends it by the
shifts its wider window adds.
"""

import random
from fractions import Fraction

import pytest

from tatemirror import fukaya, lattice, theta
from tatemirror.errors import InvariantError

MAX_ORDER = 12
SLOT_PAIRS = [(n1, m1, n2, m2)
              for n1 in range(1, 8) for n2 in range(1, 9 - n1)
              for m1 in range(n1) for m2 in range(n2)]
RINGS = {"section": theta._section_terms, "floer": fukaya._floer_terms}


def _cold(terms, clear):
    """Every slot pair's terms at every order, each from an empty table."""
    out = {}
    for pair in SLOT_PAIRS:
        for order in range(1, MAX_ORDER + 1):
            clear()
            out[pair, order] = list(terms(*pair, order))
    return out


def _forbid(monkeypatch, *names):
    def forbidden(*args):
        raise AssertionError("exponent kernel called")

    for module, name in names:
        monkeypatch.setattr(module, name, forbidden)


SECTION_KERNELS = ((theta, "lambda_exp"), (theta, "j_range"))
FLOER_KERNELS = ((lattice, "count_perturbed"), (fukaya, "j_range"))


@pytest.mark.parametrize("ring", RINGS)
def test_any_visiting_order_gives_the_cold_products(ring, cold_tables):
    terms = RINGS[ring]
    cold = _cold(terms, cold_tables)
    orders = list(range(1, MAX_ORDER + 1))
    shuffled = orders[:]
    random.Random(15).shuffle(shuffled)
    for visit in (orders, orders[::-1], shuffled):
        cold_tables()
        for order in visit:
            for pair in SLOT_PAIRS:
                assert list(terms(*pair, order)) == cold[pair, order], (ring, pair, order)


@pytest.mark.parametrize("ring", RINGS)
def test_a_lower_order_after_a_higher_one_calls_no_kernel(ring, monkeypatch, cold_tables):
    terms = RINGS[ring]
    pairs = [(1, 0, 1, 0), (2, 1, 3, 2), (5, 3, 2, 0), (4, 1, 4, 3)]
    cold = {}
    for pair in pairs:
        for order in (1, 4, 9):
            cold_tables()
            cold[pair, order] = list(terms(*pair, order))
    cold_tables()
    for pair in pairs:
        terms(*pair, 9)
    _forbid(monkeypatch, *SECTION_KERNELS, *FLOER_KERNELS)
    for pair in pairs:
        for order in (9, 1, 4):
            assert list(terms(*pair, order)) == cold[pair, order]
    with pytest.raises(AssertionError, match="kernel"):
        terms(1, 0, 1, 0, 10)


def test_a_higher_order_rebuilds(monkeypatch, cold_tables):
    cold = (list(theta._section_terms(2, 1, 3, 2, 8)), list(fukaya._floer_terms(2, 1, 3, 2, 8)))
    cold_tables()
    theta._section_terms(2, 1, 3, 2, 3)
    fukaya._floer_terms(2, 1, 3, 2, 3)
    low = (theta._SECTION_TABLE[2, 1, 3, 2], fukaya._FLOER_TABLE[2, 1, 2, 3, 2, 3])
    calls = []

    def counted(name, kernel):
        def call(*args):
            calls.append(name)
            return kernel(*args)
        return call

    monkeypatch.setattr(theta, "lambda_exp", counted("lambda_exp", theta.lambda_exp))
    monkeypatch.setattr(lattice, "count_perturbed",
                        counted("count_perturbed", lattice.count_perturbed))
    assert (list(theta._section_terms(2, 1, 3, 2, 8)),
            list(fukaya._floer_terms(2, 1, 3, 2, 8))) == cold
    assert {"lambda_exp", "count_perturbed"} == set(calls)
    high = (theta._SECTION_TABLE[2, 1, 3, 2], fukaya._FLOER_TABLE[2, 1, 2, 3, 2, 3])
    for before, after in zip(low, high):
        assert (before[0], after[0]) == (3, 8)
        assert len(before) < len(after)
        assert all(type(v) is int for v in after)


def test_each_table_is_built_from_its_own_kernel_only(monkeypatch, cold_tables):
    # the section table never reaches a lattice count, and the Floer table
    # never reaches the section-ring exponent
    section = {pair: list(theta._section_terms(*pair, MAX_ORDER)) for pair in SLOT_PAIRS}
    floer = {pair: list(fukaya._floer_terms(*pair, MAX_ORDER)) for pair in SLOT_PAIRS}
    assert section == floer
    cold_tables()
    with monkeypatch.context() as patch:
        _forbid(patch, (lattice, "count_perturbed"), (lattice, "row_formula_count"))
        assert {pair: list(theta._section_terms(*pair, MAX_ORDER))
                for pair in SLOT_PAIRS} == section
    cold_tables()
    with monkeypatch.context() as patch:
        _forbid(patch, (theta, "lambda_exp"))
        assert {pair: list(fukaya._floer_terms(*pair, MAX_ORDER))
                for pair in SLOT_PAIRS} == floer
        with pytest.raises(AssertionError, match="kernel"):
            theta._section_terms(1, 0, 1, 0, 1)


def test_off_grid_points_have_their_own_entries(cold_tables):
    # enumerate_triangles takes any rational points; two points with one
    # slot but different values are different keys
    a = fukaya.enumerate_triangles(2, Fraction(1, 2), 3, Fraction(1, 3), 6)
    b = fukaya.enumerate_triangles(2, Fraction(5, 2), 3, Fraction(1, 3), 6)
    assert [t.j for t in a] != [t.j for t in b]
    assert [t.q_exponent for t in a] == [t.q_exponent for t in b]
    assert all(t.p1 == Fraction(5, 2) for t in b)
    assert len(fukaya._FLOER_TABLE) == 2


def test_int_and_fraction_points_share_one_entry(monkeypatch, cold_tables):
    # a point is read through its numerator and denominator: an int and the
    # equal Fraction give equal triangles, the second from the first's entry
    ints = fukaya.enumerate_triangles(2, 1, 3, -2, 8)
    with monkeypatch.context() as patch:
        _forbid(patch, (lattice, "count_perturbed"))
        fractions = fukaya.enumerate_triangles(2, Fraction(1), 3, Fraction(-2), 8)
        mixed = fukaya.enumerate_triangles(2, 1, 3, Fraction(-2), 5)
    assert ints and ints == fractions
    assert mixed == [t for t in ints if t.q_exponent < 5]
    assert len(fukaya._FLOER_TABLE) == 1


@pytest.mark.parametrize("ring", RINGS)
def test_ascending_orders_evaluate_each_shift_once(ring, monkeypatch, cold_tables):
    # visiting orders 1..12 in turn extends each entry by the new shifts only:
    # the kernel runs once per shift of the order-12 window, never twice
    terms = RINGS[ring]
    pairs = [(1, 0, 1, 0), (2, 1, 3, 2), (5, 3, 2, 0), (4, 1, 4, 3), (7, 6, 1, 0)]
    cold = {}
    for pair in pairs:
        for order in range(1, MAX_ORDER + 1):
            cold_tables()
            cold[pair, order] = list(terms(*pair, order))
    cold_tables()
    module, name = {"section": (theta, "lambda_exp"),
                    "floer": (lattice, "count_perturbed")}[ring]
    kernel, shifts = getattr(module, name), []

    def counted(n1, p1, n2, p2j):
        shifts.append(p2j)
        return kernel(n1, p1, n2, p2j)

    monkeypatch.setattr(module, name, counted)
    for n1, m1, n2, m2 in pairs:
        shifts.clear()
        for order in range(1, MAX_ORDER + 1):
            assert list(terms(n1, m1, n2, m2, order)) == cold[(n1, m1, n2, m2), order]
        p1, p2 = Fraction(m1, n1), Fraction(m2, n2)
        window = theta.j_range(n1, p1, n2, p2, MAX_ORDER)
        assert len(shifts) == len(window), (ring, n1, m1, n2, m2)
        assert sorted(p2j - p2 for p2j in shifts) == list(window)


@pytest.mark.parametrize("ring", RINGS)
def test_kernels_receive_fractions_equal_and_hash_equal_to_the_points(
        ring, monkeypatch, cold_tables):
    # the benchmark counts a kernel call as a repeat by its arguments, so each
    # point a product path passes must be the Fraction p1, or p2 + j, with the
    # same value and hash however it was built
    module, name = {"section": (theta, "lambda_exp"),
                    "floer": (lattice, "count_perturbed")}[ring]
    kernel, seen = getattr(module, name), []

    def recorded(n1, p1, n2, p2j):
        seen.append((p1, p2j))
        return kernel(n1, p1, n2, p2j)

    monkeypatch.setattr(module, name, recorded)
    for n1, m1, n2, m2 in [(1, 0, 1, 0), (2, 1, 3, 2), (5, 3, 2, 0), (4, 2, 4, 3), (7, 6, 1, 0)]:
        seen.clear()
        RINGS[ring](n1, m1, n2, m2, MAX_ORDER)
        p1, p2 = Fraction(m1, n1), Fraction(m2, n2)
        window = theta.j_range(n1, p1, n2, p2, MAX_ORDER)
        assert len(seen) == len(window), (ring, n1, m1, n2, m2)
        for (q1, p2j), j in zip(seen, window):
            assert type(q1) is Fraction and q1 == p1 and hash(q1) == hash(p1)
            assert type(p2j) is Fraction and p2j == p2 + j and hash(p2j) == hash(p2 + j)


def test_a_window_that_is_not_nested_is_an_invariant_error():
    # an entry is only extended, so a wider order's window must contain the old one
    for shifts in (lambda k: range(k, k + 3), lambda k: range(-k, 5 - k)):
        table = {}
        assert theta._kept_shifts(table, "pair", 2, shifts, lambda j: 0) == [
            (j, 0) for j in shifts(2)]
        with pytest.raises(InvariantError, match="does not contain"):
            theta._kept_shifts(table, "pair", 3, shifts, lambda j: 0)
