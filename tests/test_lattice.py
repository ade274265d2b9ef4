import math
import random
from fractions import Fraction

import pytest

import oracles
from oracles import EpsRational, PerturbedTriangle, perturbed
from tatemirror import fukaya, lattice, theta


class TestEpsRational:
    def test_lexicographic_order(self):
        assert EpsRational.of(0, 1) > EpsRational.of(0, 0)
        assert EpsRational.of(0, -1) < EpsRational.of(0, 0)
        assert EpsRational.of(1, -100) > EpsRational.of(0, 100)
        assert EpsRational.of(Fraction(1, 3), 0) < EpsRational.of(Fraction(1, 2), -5)

    def test_arithmetic(self):
        a = EpsRational.of(Fraction(1, 2), 1)
        b = EpsRational.of(Fraction(1, 2), -1)
        assert a + b == EpsRational.of(1, 0)
        assert a - b == EpsRational.of(0, 2)
        assert a * 2 == EpsRational.of(1, 2)
        assert (-a).sign() == -1

    def test_sign(self):
        assert EpsRational.of(0, 0).sign() == 0
        assert EpsRational.of(0, 3).sign() == 1
        assert EpsRational.of(-1, 3).sign() == -1


class TestTriangle:
    def test_vertices(self):
        tri = PerturbedTriangle(1, Fraction(0), 1, Fraction(2))
        assert tri.vertices == ((Fraction(0), Fraction(0)),
                                (Fraction(2), Fraction(-2)),
                                (Fraction(1), Fraction(0)))

    def test_degenerate_contains_nothing(self):
        tri = PerturbedTriangle(1, Fraction(0), 1, Fraction(0))
        assert not tri.contains(perturbed(0, 0))

    def test_interior_point(self):
        tri = PerturbedTriangle(1, Fraction(0), 1, Fraction(2))
        assert tri.contains(perturbed(1, -1))
        assert not tri.contains(perturbed(0, 0))
        assert not tri.contains(perturbed(2, -2))


class TestCountPerturbed:
    def test_small_triangles(self):
        assert lattice.count_perturbed(1, 0, 1, 0) == 0
        assert lattice.count_perturbed(1, 0, 1, 2) == 1
        assert lattice.count_perturbed(1, 0, 1, 3) == 2

    def test_flipped_orientation(self):
        assert lattice.count_perturbed(1, 0, 1, -2) == 1
        assert lattice.count_perturbed(1, 0, 1, -3) == 2

    def test_matches_point_scan(self):
        for n1 in range(1, 4):
            for n2 in range(1, 4):
                for m1 in range(n1):
                    for m2 in range(n2):
                        p1, p2 = Fraction(m1, n1), Fraction(m2, n2)
                        for j in range(-5, 6):
                            fast = lattice.count_perturbed(n1, p1, n2, p2 + j)
                            slow = oracles.count_perturbed_reference(n1, p1, n2, p2 + j)
                            assert fast == slow, (n1, p1, n2, p2 + j)

    def test_translation_invariance(self):
        rng = random.Random(21)
        for _ in range(60):
            n1, n2 = rng.randint(1, 6), rng.randint(1, 6)
            p1 = Fraction(rng.randrange(n1), n1)
            p2 = Fraction(rng.randrange(n2), n2) + rng.randint(-4, 4)
            shift = rng.randint(-3, 3)
            assert lattice.count_perturbed(n1, p1 + shift, n2, p2 + shift) == \
                lattice.count_perturbed(n1, p1, n2, p2)

    def test_monotone_in_area_on_collinear_family(self):
        for n1, n2 in ((1, 1), (2, 3), (3, 2)):
            counts = [lattice.count_perturbed(n1, 0, n2, Fraction(j, 1))
                      for j in range(0, 9)]
            assert counts == sorted(counts)

    def test_rejects_bad_degrees(self):
        with pytest.raises(ValueError):
            lattice.count_perturbed(0, 0, 1, 1)

    def test_arbitrary_rational_inputs(self):
        # points need not lie in (1/n)Z for the count itself to make sense
        rng = random.Random(22)
        for _ in range(40):
            n1, n2 = rng.randint(1, 4), rng.randint(1, 4)
            p1 = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
            p2 = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
            fast = lattice.count_perturbed(n1, p1, n2, p2)
            assert fast == oracles.count_perturbed_reference(n1, p1, n2, p2)
            assert fast >= 0


    def test_matches_point_scan_off_the_basis_grid(self):
        # denominators unrelated to the degrees, so the cleared scale is not
        # the minimal one; every tenth case has coincident points
        rng = random.Random(23)
        for case in range(200):
            n1, n2 = rng.randint(1, 8), rng.randint(1, 8)
            p1 = Fraction(rng.randint(-12, 12), rng.randint(1, 12))
            p2 = p1 if case % 10 == 0 else Fraction(rng.randint(-12, 12), rng.randint(1, 12))
            assert lattice.count_perturbed(n1, p1, n2, p2) == \
                oracles.count_perturbed_reference(n1, p1, n2, p2), (n1, p1, n2, p2)

    def test_kernel_shares_no_code_with_the_fraction_oracle(self):
        cases = [((1, 0, 1, 3), 2), ((2, Fraction(1, 2), 3, Fraction(7, 3)), 2),
                 ((3, Fraction(1, 3), 4, Fraction(-11, 4)), 8),
                 ((5, Fraction(-7, 4), 2, Fraction(5, 6)), 4)]
        for args, count in cases:
            assert lattice.count_perturbed(*args) == count
        product = fukaya.floer_product(3, Fraction(1, 3), 4, Fraction(1, 4), 6)
        assert {m: [k for k, c in enumerate(s.coeffs) if c]
                for m, s in product.coeffs.items() if not s.is_zero()} == \
            {1: [4], 2: [0], 3: [3], 5: [1], 6: [1]}
        assert all(c in (0, 1) for s in product.coeffs.values() for c in s.coeffs)


def _fraction_row_count(n1, q1, r1, p1, q2):
    base = (Fraction(n1 * q1 * q1, 2) + Fraction(n1 * q2 * q2, 2) + r1 * q1
            - n1 * q1 * q2 - r1 * q2 - Fraction(n1 * q2, 2)
            + Fraction(n1 * q1, 2) + r1)
    return base + n1 * (q2 - p1)


def fraction_row_formula_count(n1, p1, n2, p2):
    """The Fraction closed form that row_formula_count clears to integers."""
    p1, p2 = Fraction(p1), Fraction(p2)
    n3 = n1 + n2
    p3 = (n1 * p1 + n2 * p2) / n3
    q1, q2, q3 = math.floor(p1), math.floor(p2), math.floor(p3)
    diff = (_fraction_row_count(n1, q1, n1 * (p1 - q1), p1, q2)
            - _fraction_row_count(n3, q3, n3 * (p3 - q3), p3, q2))
    if diff.denominator != 1:
        raise ValueError(f"non-integral count {diff}")
    return int(diff)


def _count_or_raise(count, *args):
    try:
        return count(*args)
    except ValueError:
        return ValueError


class TestRowFormula:
    def test_small_triangle(self):
        assert lattice.row_formula_count(1, 0, 1, 2) == 1

    def test_agrees_with_count_on_grid(self):
        for n1 in range(1, 6):
            for n2 in range(1, 6 - n1 + 5):
                if n1 + n2 > 10:
                    continue
                for m1 in range(n1):
                    for m2 in range(n2):
                        p1, p2 = Fraction(m1, n1), Fraction(m2, n2)
                        for j in range(-8, 9):
                            assert lattice.row_formula_count(n1, p1, n2, p2 + j) == \
                                lattice.count_perturbed(n1, p1, n2, p2 + j)

    def test_agrees_with_exponent_on_grid(self):
        for n1 in range(1, 6):
            for n2 in range(1, 6):
                for m1 in range(n1):
                    for m2 in range(n2):
                        p1, p2 = Fraction(m1, n1), Fraction(m2, n2)
                        for j in range(-6, 7):
                            assert lattice.row_formula_count(n1, p1, n2, p2 + j) == \
                                theta.lambda_exp(n1, p1, n2, p2 + j)

    def test_integral_case_branch(self):
        # p2 integral exercises the direct closed formula
        assert lattice.row_formula_count(3, Fraction(1, 3), 2, 4) == \
            lattice.count_perturbed(3, Fraction(1, 3), 2, 4)

    def test_matches_the_fraction_closed_form_off_the_grid(self):
        # most of these points are off (1/n)Z: both forms must then raise
        rng = random.Random(24)
        raised = 0
        for _ in range(2000):
            n1, n2 = rng.randint(1, 8), rng.randint(1, 8)
            p1 = Fraction(rng.randint(-20, 20), rng.randint(1, 16))
            p2 = Fraction(rng.randint(-20, 20), rng.randint(1, 16))
            want = _count_or_raise(fraction_row_formula_count, n1, p1, n2, p2)
            assert _count_or_raise(lattice.row_formula_count, n1, p1, n2, p2) == want, \
                (n1, p1, n2, p2)
            raised += want is ValueError
        assert 1000 < raised < 1600

    def test_rejects_points_off_the_grid(self):
        with pytest.raises(ValueError, match="non-integral count"):
            lattice.row_formula_count(7, -9, 7, Fraction(15, 8))
        with pytest.raises(ValueError):
            fraction_row_formula_count(7, -9, 7, Fraction(15, 8))

    def test_shares_no_code_with_the_other_kernels(self, monkeypatch):
        cases = [(n1, Fraction(m1, n1), n2, Fraction(m2, n2) + j)
                 for n1 in range(1, 5) for n2 in range(1, 5)
                 for m1 in range(n1) for m2 in range(n2) for j in range(-4, 5)]
        counts = [lattice.count_perturbed(*case) for case in cases]

        def forbidden(*args, **kwargs):
            raise AssertionError("row_formula_count reached another kernel")

        monkeypatch.setattr(lattice, "count_perturbed", forbidden)
        monkeypatch.setattr(theta, "lambda_exp", forbidden)
        with pytest.raises(AssertionError):
            theta.lambda_exp(1, 0, 1, 3)
        assert [lattice.row_formula_count(*case) for case in cases] == counts
