import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from oracles import PerturbedTriangle
from tatemirror import fukaya, theta
from tatemirror.errors import InvariantError, RingMismatchError
from tatemirror.exactnum import GF, QQ, ZZ, QSeries


rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)
degrees = st.integers(min_value=1, max_value=8)


class TestPhi:
    def test_integer_values(self):
        assert oracles.phi(0) == 0
        assert oracles.phi(1) == 0
        assert oracles.phi(-1) == 1
        assert oracles.phi(2) == 1
        assert oracles.phi(-2) == 3

    def test_interpolation(self):
        assert oracles.phi(Fraction(3, 2)) == Fraction(1, 2)
        assert oracles.phi(Fraction(-1, 2)) == Fraction(1, 2)

    @settings(max_examples=200, deadline=None)
    @given(rationals)
    def test_affine_between_integers(self, p):
        import math
        n = math.floor(p)
        lam = p - n
        assert oracles.phi(p) == (1 - lam) * oracles.psi(n) + lam * oracles.psi(n + 1)

    @settings(max_examples=200, deadline=None)
    @given(rationals)
    def test_dominates_psi(self, p):
        assert 0 <= oracles.phi(p) - oracles.psi(p) <= Fraction(1, 8)


class TestLambdaExp:
    def test_degenerate(self):
        assert theta.lambda_exp(1, 0, 1, 0) == 0

    def test_shifted_values(self):
        assert theta.lambda_exp(1, 0, 1, 2) == 1
        assert theta.lambda_exp(1, 0, 1, 3) == 2

    def test_integral_on_basis_points(self):
        for n1 in range(1, 7):
            for n2 in range(1, 7):
                for m1 in range(n1):
                    for m2 in range(n2):
                        for j in range(-4, 5):
                            lam = theta.lambda_exp(
                                n1, Fraction(m1, n1), n2, Fraction(m2, n2) + j)
                            assert lam.denominator == 1 and lam >= 0


class TestArea:
    def test_degenerate(self):
        assert oracles.area(1, 0, 1, 0) == 0

    def test_unit_pair(self):
        assert oracles.area(1, 0, 1, 1) == Fraction(1, 4)

    @settings(max_examples=200, deadline=None)
    @given(degrees, rationals, degrees, rationals)
    def test_nonnegative(self, n1, p1, n2, p2):
        assert oracles.area(n1, p1, n2, p2) >= 0

    @settings(max_examples=200, deadline=None)
    @given(degrees, rationals, degrees, rationals)
    def test_equals_shoelace_area(self, n1, p1, n2, p2):
        tri = PerturbedTriangle(n1, p1, n2, p2)
        assert oracles.area(n1, p1, n2, p2) == abs(tri.signed_area2()) / 2


class TestJWindow:
    def test_omitted_shifts_have_large_exponent(self):
        for n1, n2, order in ((1, 1, 8), (2, 3, 6), (5, 1, 10)):
            jmax = theta.j_window(n1, n2, order)
            for m1 in range(n1):
                for m2 in range(n2):
                    p1, p2 = Fraction(m1, n1), Fraction(m2, n2)
                    for j in range(-2 * jmax - 3, 2 * jmax + 4):
                        if abs(j - (p1 - p2)) > jmax:
                            assert theta.lambda_exp(n1, p1, n2, p2 + j) >= order

    def test_doubled_window_changes_nothing(self):
        rng = random.Random(11)
        for _ in range(50):
            n1, n2 = rng.randint(1, 5), rng.randint(1, 5)
            p1 = Fraction(rng.randrange(n1), n1)
            p2 = Fraction(rng.randrange(n2), n2)
            order = rng.randint(1, 8)
            jmax = theta.j_window(n1, n2, order)
            inside = {j for j in theta.j_range(n1, p1, n2, p2, order)
                      if theta.lambda_exp(n1, p1, n2, p2 + j) < order}
            import math
            center = p1 - p2
            wide = {j for j in range(math.ceil(center - 2 * jmax),
                                     math.floor(center + 2 * jmax) + 1)
                    if theta.lambda_exp(n1, p1, n2, p2 + j) < order}
            assert inside == wide


class TestIntegerKernels:
    """lambda_exp and j_range on cleared integers against their Fraction forms."""

    @settings(max_examples=400, deadline=None)
    @given(degrees, rationals | st.integers(-20, 20), degrees, rationals | st.integers(-20, 20))
    def test_lambda_exp_equals_its_oracle(self, n1, p1, n2, p2):
        lam = theta.lambda_exp(n1, p1, n2, p2)
        expected = oracles.lambda_exp_reference(n1, p1, n2, p2)
        assert type(lam) is (int if expected.denominator == 1 else Fraction)
        assert lam == expected

    @settings(max_examples=300, deadline=None)
    @given(degrees, rationals, degrees, rationals, st.integers(0, 40))
    @example(1, Fraction(0), 1, Fraction(0), 0)
    def test_j_range_equals_fraction_bounds(self, n1, p1, n2, p2, order):
        import math
        jmax = theta.j_window(n1, n2, order)
        center = p1 - p2
        assert theta.j_range(n1, p1, n2, p2, order) == range(
            math.ceil(center - jmax), math.floor(center + jmax) + 1)

    def test_j_window_equals_the_search_loop(self):
        def searched(n1, n2, order):
            j = 1
            while n1 * n2 * (j - 1) ** 2 <= 2 * (n1 + n2) * (order + n1 + n2):
                j += 1
            return j

        for n1 in range(1, 31):
            for n2 in range(1, 31):
                for order in range(101):
                    assert theta.j_window(n1, n2, order) == searched(n1, n2, order)

    @pytest.mark.parametrize("n1, n2", [(0, 1), (1, 0), (-1, 2), (2, -1), (0, 0)])
    def test_nonpositive_degree_is_the_kernels_value_error(self, n1, n2):
        # j_range reaches its degrees through j_window; both raise as lambda_exp does
        for call in (lambda: theta.j_window(n1, n2, 5),
                     lambda: theta.j_range(n1, Fraction(0), n2, Fraction(0), 5),
                     lambda: theta.lambda_exp(n1, Fraction(0), n2, Fraction(0))):
            with pytest.raises(ValueError, match="degrees must be positive"):
                call()

    def test_kernels_share_no_code_with_the_oracle(self):
        cases = [(3, Fraction(1, 3), 5, Fraction(-7, 5)), (2, Fraction(1, 7), 3, Fraction(5, 4)),
                 (1, 0, 1, 3), (4, Fraction(-9, 4), 1, Fraction(2, 3))]
        expected = [oracles.lambda_exp_reference(*case) for case in cases]
        assert [theta.lambda_exp(*case) for case in cases] == expected
        assert theta.j_range(3, Fraction(-5, 3), 2, Fraction(1, 2), 10) == range(-9, 5)
        assert theta.j_range(2, Fraction(1, 7), 3, Fraction(5, 4), 4) == range(-6, 4)
        prod = theta.theta_mul(theta.ThetaElement.basis(2, Fraction(1, 2), 9),
                               theta.ThetaElement.basis(3, Fraction(1, 3), 9))
        assert {m: list(c.coeffs) for m, c in prod.coeffs.items()} == {
            0: [0, 1, 0, 0, 0, 0, 0, 0, 0], 1: [0, 0, 0, 1, 0, 1, 0, 0, 0],
            2: [1, 0, 0, 0, 0, 0, 0, 0, 0], 3: [0, 0, 1, 0, 0, 0, 1, 0, 0],
            4: [0, 1, 0, 0, 0, 0, 0, 0, 0]}


class TestIntegerResults:
    """lambda_exp returns an int at every basis point, and the products build
    their results without the constructor's checks, so each must equal itself
    rebuilt through that constructor."""

    def test_lambda_exp_is_an_int_on_the_acceptance_grid(self):
        cap, kept = 12, 0
        for n1 in range(1, cap):
            for n2 in range(1, cap + 1 - n1):
                for m1 in range(n1):
                    for m2 in range(n2):
                        p1, p2 = Fraction(m1, n1), Fraction(m2, n2)
                        for j in theta.j_range(n1, p1, n2, p2, cap + 1):
                            lam = theta.lambda_exp(n1, p1, n2, p2 + j)
                            assert type(lam) is int, (n1, p1, n2, p2 + j)
                            kept += lam <= cap
        assert kept == 7435  # the shifts that verify-lattice checks

    @pytest.mark.parametrize("bad", [Fraction(1, 2), -1])
    def test_section_terms_reject_a_fractional_or_negative_exponent(self, bad, monkeypatch):
        monkeypatch.setattr(theta, "lambda_exp", lambda *args: bad)
        x = theta.ThetaElement.basis(1, 0, 3)
        with pytest.raises(InvariantError, match=f"exponent {bad} at"):
            theta.theta_mul(x, x)

    @pytest.mark.parametrize("ring", [ZZ, QQ, GF(5)], ids=repr)
    @pytest.mark.parametrize("mul", [theta.theta_mul, fukaya.floer_mul],
                             ids=["theta_mul", "floer_mul"])
    def test_products_equal_their_checked_rebuild(self, mul, ring):
        rng = random.Random(31)

        def general(n, order):
            return theta.ThetaElement(n, order, [
                QSeries.make(ring, order, [rng.randint(-3, 3) for _ in range(order)])
                for _ in range(n)])

        for _ in range(30):
            n1, n2, order = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 8)
            basis = [theta.ThetaElement.basis(n, Fraction(rng.randrange(n), n), order, ring)
                     for n in (n1, n2)]
            for x, y in (basis, (general(n1, order), general(n2, order))):
                assert x == theta.ThetaElement(x.degree, x.order, x.rows)
                prod = mul(x, y)
                assert prod == theta.ThetaElement(prod.degree, prod.order, prod.rows)
                assert (prod.degree, prod.order, prod.ring) == (n1 + n2, order, ring)


class TestCyclicPoint:
    """A point of the cyclic set (1/n)Z mod Z is its slot numerator 0 <= m < n."""

    def test_reduction(self):
        slot2 = theta.ThetaElement.basis(3, Fraction(2, 3), 4)
        assert theta.ThetaElement.basis(3, Fraction(5, 3), 4) == slot2
        assert theta.ThetaElement.basis(3, Fraction(-1, 3), 4) == slot2
        assert slot2.q0_map() == {2: 1}

    def test_rejects_wrong_denominator(self):
        with pytest.raises(ValueError):
            theta.ThetaElement.basis(3, Fraction(1, 2), 4)

    def test_graded_basis(self):
        # the degree-n basis is indexed by the slots range(n); m/n sits on slot m
        for n in (1, 3, 6):
            assert list(theta.ThetaElement.zero(n, 2).coeffs) == list(range(n))
        assert [theta.ThetaElement.basis(3, Fraction(m, 3), 2).q0_map() for m in range(3)] == [
            {0: 1}, {1: 1}, {2: 1}]


class TestSlotValidation:
    def test_missing_extra_and_foreign_slots_rejected(self):
        z = QSeries.zero(ZZ, 3)
        with pytest.raises(ValueError):
            theta.ThetaElement(3, 3, (z, z))
        with pytest.raises(ValueError):
            theta.ThetaElement(3, 3, (z, z, z, z))
        with pytest.raises(ValueError):
            theta.ThetaElement(3, 3, (z, QSeries.zero(ZZ, 4), z))
        with pytest.raises(RingMismatchError):
            theta.ThetaElement(3, 3, (z, z, QSeries.zero(QQ, 3)))
        with pytest.raises(ValueError):
            theta.ThetaElement(2, 5, (QSeries.one(ZZ, 3), QSeries.zero(QQ, 7)))
        assert theta.ThetaElement(3, 3, (z, z, z)) == theta.ThetaElement.zero(3, 3)

    def test_degree_must_be_positive(self):
        with pytest.raises(ValueError):
            theta.ThetaElement.basis(0, 0, 3)
        with pytest.raises(ValueError):
            theta.ThetaElement.zero(0, 3)

    def test_coeffs_returns_a_fresh_dict(self):
        x = theta.ThetaElement.basis(3, Fraction(1, 3), 3)
        first = x.coeffs
        first[3] = QSeries.one(ZZ, 3)
        first[0] = QSeries.one(ZZ, 3)
        assert x.coeffs == {m: row for m, row in enumerate(x.rows)}
        assert x == theta.ThetaElement.basis(3, Fraction(1, 3), 3)


class TestBilinearContract:
    def test_each_term_lands_on_the_slot_of_the_weighted_mean(self):
        # a terms callback yields (j, exponent); bilinear puts q^exponent on
        # the slot (m1 + m2 + n2*j) % (n1 + n2) of the mean of m1/n1 and m2/n2 + j
        calls = []

        def terms(n1, m1, n2, m2, order):
            calls.append((n1, m1, n2, m2, order))
            return [(2, 1), (-1, 3)]

        x = theta.ThetaElement.basis(2, Fraction(1, 2), 5)
        y = theta.ThetaElement.basis(3, Fraction(2, 3), 5)
        prod = x.bilinear(y, terms)
        assert calls == [(2, 1, 3, 2, 5)]
        assert [list(r.coeffs) for r in prod.rows] == [
            [0, 0, 0, 1, 0], [0] * 5, [0] * 5, [0] * 5, [0, 1, 0, 0, 0]]

    def test_target_is_the_slot_of_the_fraction_mean(self):
        rng = random.Random(17)
        for _ in range(200):
            n1, n2, j = rng.randint(1, 6), rng.randint(1, 6), rng.randint(-9, 9)
            m1, m2 = rng.randrange(n1), rng.randrange(n2)
            prod = theta.ThetaElement.basis(n1, Fraction(m1, n1), 2).bilinear(
                theta.ThetaElement.basis(n2, Fraction(m2, n2), 2),
                lambda *args: [(j, 0)])
            mean = theta.weighted_mean(n1, Fraction(m1, n1), n2, Fraction(m2, n2) + j)
            assert prod == theta.ThetaElement.basis(n1 + n2, mean, 2), (n1, m1, n2, m2, j)


def bilinear_oracle(x, y, terms):
    """The bilinear product the slow way: every slot starts at its own zero
    series and every term is added to it with +."""
    n1, n2, order = x.degree, y.degree, x.order
    n3 = n1 + n2
    out = [QSeries.make(x.ring, order) for _ in range(n3)]
    for m1, c1 in enumerate(x.rows):
        for m2, c2 in enumerate(y.rows):
            for j, exponent in terms(n1, m1, n2, m2, order):
                target = (m1 + m2 + n2 * j) % n3
                out[target] = out[target] + (c1 * c2).shift(exponent)
    return theta.ThetaElement(n3, order, out)


class TestBilinearAgainstOracle:
    def test_one_term_several_terms_and_a_slot_that_cancels(self):
        # over GF(2), x = e[0/1] and y = e[0/2] + e[1/2]; a term of the slot pair
        # (0, m2) lands on slot (m2 + 2j) % 3.  Slot 0 takes one term, slot 1
        # two, and slot 2 takes q^3 twice, which cancels to zero, before q arrives
        ring = GF(2)
        x = theta.ThetaElement.basis(1, 0, 4, ring)
        y = theta.ThetaElement.basis(2, 0, 4, ring) + theta.ThetaElement.basis(
            2, Fraction(1, 2), 4, ring)
        table = {(0, 0): [(0, 0), (2, 1), (1, 3), (1, 3)],  # slots 0, 1, 2, 2
                 (0, 1): [(0, 2), (2, 1)]}                  # slots 1, 2

        def terms(n1, m1, n2, m2, order):
            return table[(m1, m2)]

        got = x.bilinear(y, terms)
        assert got == bilinear_oracle(x, y, terms)
        assert [list(r.coeffs) for r in got.rows] == [
            [1, 0, 0, 0], [0, 1, 1, 0], [0, 1, 0, 0]]

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_random_terms_over_every_ring(self, data):
        ring = data.draw(st.sampled_from((ZZ, QQ, GF(2), GF(3), GF(7))))
        order = data.draw(st.integers(1, 5))
        n1, n2 = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
        coeff = st.integers(-3, 3)

        def element(n):
            return theta.ThetaElement(n, order, [QSeries.make(
                ring, order, data.draw(st.lists(coeff, min_size=order, max_size=order)))
                for _ in range(n)])

        x, y = element(n1), element(n2)
        term = st.tuples(st.integers(-3, 3), st.integers(0, order - 1))
        table = {(m1, m2): data.draw(st.lists(term, max_size=6))
                 for m1 in range(n1) for m2 in range(n2)}

        def terms(n1, m1, n2, m2, order):
            return table[(m1, m2)]

        assert x.bilinear(y, terms) == bilinear_oracle(x, y, terms)


class TestThetaMul:
    def test_degree_one_square(self):
        x = theta.ThetaElement.basis(1, 0, 6)
        sq = theta.theta_mul(x, x)
        assert sq.degree == 2
        assert list(sq.rows[0].coeffs) == [1, 2, 0, 0, 2, 0]
        assert list(sq.rows[1].coeffs) == [2, 0, 2, 0, 0, 0]

    def test_mixed_product_at_q0(self):
        prod = theta.theta_mul(theta.ThetaElement.basis(1, 0, 1),
                               theta.ThetaElement.basis(2, Fraction(1, 2), 1))
        support = {Fraction(m, prod.degree): c.coeffs[0]
                   for m, c in prod.coeffs.items() if not c.is_zero()}
        assert support == {Fraction(1, 3): 1, Fraction(2, 3): 1}

    def test_commutative_on_random_basis_pairs(self):
        rng = random.Random(12)
        for _ in range(60):
            n1, n2 = rng.randint(1, 6), rng.randint(1, 6)
            a = theta.ThetaElement.basis(n1, Fraction(rng.randrange(n1), n1), 6)
            b = theta.ThetaElement.basis(n2, Fraction(rng.randrange(n2), n2), 6)
            assert theta.theta_mul(a, b) == theta.theta_mul(b, a)

    def test_associative_on_random_triples(self):
        rng = random.Random(13)
        for _ in range(40):
            degs = [rng.randint(1, 3) for _ in range(3)]
            order = rng.randint(2, 8)
            a, b, c = (theta.ThetaElement.basis(
                n, Fraction(rng.randrange(n), n), order) for n in degs)
            left = theta.theta_mul(theta.theta_mul(a, b), c)
            right = theta.theta_mul(a, theta.theta_mul(b, c))
            assert left == right

    def test_degree_additivity_and_slot_count(self):
        a = theta.ThetaElement.basis(2, Fraction(1, 2), 4)
        b = theta.ThetaElement.basis(3, Fraction(1, 3), 4)
        prod = theta.theta_mul(a, b)
        assert prod.degree == 5
        assert len(prod.coeffs) == 5

    def test_order_mismatch_rejected(self):
        with pytest.raises(RingMismatchError):
            theta.theta_mul(theta.ThetaElement.basis(1, 0, 3),
                            theta.ThetaElement.basis(1, 0, 4))

    def test_bilinearity(self):
        x = theta.ThetaElement.basis(1, 0, 5)
        y = theta.ThetaElement.basis(2, 0, 5)
        z = theta.ThetaElement.basis(2, Fraction(1, 2), 5)
        combo = y + z.scale(3)
        assert theta.theta_mul(x, combo) == \
            theta.theta_mul(x, y) + theta.theta_mul(x, z).scale(3)

    def test_scale_by_series(self):
        x = theta.ThetaElement.basis(1, 0, 4)
        q = QSeries.make(ZZ, 4, [0, 1])
        assert theta.theta_mul(x.scale(q), x) == theta.theta_mul(x, x).scale(q)
