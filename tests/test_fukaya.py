import math
import random
from fractions import Fraction

import pytest

from tatemirror import cli, fukaya, lattice, theta, weierstrass
from tatemirror.errors import VerificationFailure
from tatemirror.exactnum import ZZ, QSeries, divisor_power_sum


class TestEnumerateTriangles:
    def test_unit_square_contributions(self):
        tris = fukaya.enumerate_triangles(1, 0, 1, 0, 1)
        assert [t.j for t in tris] == [-1, 0, 1]
        assert all(t.q_exponent == 0 for t in tris)
        assert all(t.sign == 1 for t in tris)

    def test_zero_order_is_empty(self):
        assert fukaya.enumerate_triangles(1, 0, 1, 0, 0) == []

    def test_exponent_is_lattice_count(self):
        rng = random.Random(31)
        for _ in range(50):
            n1, n2 = rng.randint(1, 5), rng.randint(1, 5)
            p1 = Fraction(rng.randrange(n1), n1)
            p2 = Fraction(rng.randrange(n2), n2)
            for tri in fukaya.enumerate_triangles(n1, p1, n2, p2, 8):
                assert tri.q_exponent == lattice.count_perturbed(n1, p1, n2, p2 + tri.j)
                assert tri.q_exponent == theta.lambda_exp(n1, p1, n2, p2 + tri.j)

    def test_vertices_follow_construction(self):
        (v0, v1, v2), = [t.vertices for t in fukaya.enumerate_triangles(1, 0, 1, 2, 2)
                         if t.j == 0]
        assert v0 == (Fraction(0), Fraction(0))
        assert v1 == (Fraction(2), Fraction(-2))
        assert v2 == (Fraction(1), Fraction(0))


class TestTriangleRecord:
    def test_fields_properties_and_immutability(self):
        tri = fukaya.ImmersedTriangle(2, Fraction(1, 2), 3, Fraction(2, 3), -1, 4)
        assert tri._fields == ("n1", "p1", "n2", "p2", "j", "q_exponent")
        assert (tri.n1, tri.p1, tri.n2, tri.p2, tri.j, tri.q_exponent) == (
            2, Fraction(1, 2), 3, Fraction(2, 3), -1, 4)
        assert tri == fukaya.ImmersedTriangle(
            n1=2, p1=Fraction(1, 2), n2=3, p2=Fraction(2, 3), j=-1, q_exponent=4)
        assert tri.p2j == Fraction(-1, 3)
        assert tri.vertices == ((Fraction(1, 2), 0), (Fraction(-1, 3), Fraction(5, 3)),
                                (Fraction(0), 0))
        assert tri.sign == (-1) ** fukaya.star_count(tri) == 1
        # a light record: a triangle is the tuple of its fields
        assert tri == (2, Fraction(1, 2), 3, Fraction(2, 3), -1, 4)
        assert hash(tri) == hash((2, Fraction(1, 2), 3, Fraction(2, 3), -1, 4))
        with pytest.raises(AttributeError):
            tri.j = 0


class TestStarCount:
    def test_degenerate_triangle_has_no_stars(self):
        tri, = [t for t in fukaya.enumerate_triangles(1, 0, 1, 0, 1) if t.j == 0]
        assert fukaya.star_count(tri) == 0

    def test_displayed_formula_value(self):
        tri, = [t for t in fukaya.enumerate_triangles(1, 0, 1, 2, 2) if t.j == 0]
        s = fukaya.star_count(tri)
        assert s == 4
        assert s % 2 == 0

    def test_parity_always_even(self):
        rng = random.Random(32)
        for _ in range(80):
            n1, n2 = rng.randint(1, 6), rng.randint(1, 6)
            p1 = Fraction(rng.randrange(n1), n1)
            p2 = Fraction(rng.randrange(n2), n2)
            for tri in fukaya.enumerate_triangles(n1, p1, n2, p2, 6):
                assert fukaya.star_count(tri) % 2 == 0
                assert tri.sign == 1
                # the mean lies between p1 and p2 + j: the short arcs add up to the long one
                assert fukaya.star_count(tri) == 2 * abs(math.ceil(p2 + tri.j) - math.ceil(p1))

    def test_integer_stars_match_the_fraction_vertices(self):
        # points off the basis grid too: the derived Fraction vertices describe
        # the triangle, and its stars still satisfy the betweenness identity
        rng = random.Random(34)
        for case in range(200):
            n1, n2 = rng.randint(1, 6), rng.randint(1, 6)
            if case % 2:
                p1 = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
                p2 = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
            else:
                p1 = Fraction(rng.randrange(n1), n1)
                p2 = Fraction(rng.randrange(n2), n2)
            for tri in fukaya.enumerate_triangles(n1, p1, n2, p2, rng.randint(1, 8)):
                assert fukaya.star_count(tri) == 2 * abs(math.ceil(tri.p2j) - math.ceil(p1))
                assert tri.p2j == p2 + tri.j
                assert tri.vertices[2] == ((n1 * p1 + n2 * (p2 + tri.j)) / (n1 + n2), 0)


class TestFloerProduct:
    def test_square_of_degree_one(self):
        prod = fukaya.floer_product(1, 0, 1, 0, 1)
        assert prod.q0_map() == {0: 1, 1: 2}

    def test_mixed_degree_at_q0(self):
        prod = fukaya.floer_product(1, 0, 2, Fraction(1, 2), 1)
        assert prod.q0_map() == {1: 1, 2: 1}

    def test_squared_cubic_generator(self):
        prod = fukaya.floer_product(3, Fraction(2, 3), 3, Fraction(2, 3), 1)
        assert prod.q0_map() == {4: 1}

    def test_deeper_coefficients_match_section_ring(self):
        flo = fukaya.floer_product(2, Fraction(1, 2), 3, Fraction(1, 3), 9)
        the = theta.theta_mul(theta.ThetaElement.basis(2, Fraction(1, 2), 9),
                              theta.ThetaElement.basis(3, Fraction(1, 3), 9))
        assert {m: list(c.coeffs) for m, c in flo.coeffs.items()} == \
            {m: list(c.coeffs) for m, c in the.coeffs.items()}

    def test_floer_mul_commutes_and_associates(self):
        rng = random.Random(33)
        for _ in range(25):
            degs = [rng.randint(1, 3) for _ in range(3)]
            order = rng.randint(2, 7)
            a, b, c = (fukaya.FloerElement.basis(
                n, Fraction(rng.randrange(n), n), order) for n in degs)
            ab = fukaya.floer_mul(a, b)
            assert ab == fukaya.floer_mul(b, a)
            assert fukaya.floer_mul(ab, c) == fukaya.floer_mul(a, fukaya.floer_mul(b, c))


class TestFloerIndependence:
    PAIRS = [(1, 0, 1, 0), (2, Fraction(1, 2), 3, Fraction(1, 3)),
             (3, Fraction(2, 3), 4, Fraction(1, 4)), (5, Fraction(3, 5), 2, 0)]
    TRIPLES = [((1, 0), (2, Fraction(1, 2)), (3, Fraction(2, 3))),
               ((2, 0), (2, Fraction(1, 2)), (1, 0)),
               ((3, Fraction(1, 3)), (1, 0), (4, Fraction(3, 4)))]

    def _products(self, order):
        pairs = [fukaya.floer_product(n1, p1, n2, p2, order)
                 for n1, p1, n2, p2 in self.PAIRS]
        triples = []
        for triple in self.TRIPLES:
            a, b, c = (fukaya.FloerElement.basis(n, p, order) for n, p in triple)
            triples.append(fukaya.floer_mul(fukaya.floer_mul(a, b), c))
        return pairs, triples

    def test_floer_side_never_uses_the_section_exponent(self, monkeypatch, cold_tables):
        # Floer exponents come only from lattice counts, even though both
        # rings share one element type and one bilinear loop
        expected = self._products(6)
        cold_tables()

        def forbidden(*args):
            raise AssertionError("section-ring exponent used on the Floer side")

        monkeypatch.setattr(theta, "lambda_exp", forbidden)
        with pytest.raises(AssertionError):
            theta.theta_mul(theta.ThetaElement.basis(1, 0, 2),
                            theta.ThetaElement.basis(1, 0, 2))
        assert self._products(6) == expected

    def test_whole_floer_side_runs_with_the_section_kernels_forbidden(
            self, monkeypatch, cold_tables):
        # the q = 0 table, the relation and the mirror curve read nothing of
        # the section ring: its exponent, its product and its terms all raise
        def floer_side():
            return fukaya.dehn_table_q0(), fukaya.relation_kernel(4), fukaya.seidel_mirror(4)

        expected = floer_side()
        cold_tables()

        def forbidden(*args):
            raise AssertionError("section ring used on the Floer side")

        for name in ("lambda_exp", "theta_mul", "_section_terms"):
            monkeypatch.setattr(theta, name, forbidden)
        assert floer_side() == expected


class TestSlotRows:
    def test_products_never_build_the_coeffs_view(self, monkeypatch, cold_tables):
        # elements are rows by slot numerator: the coeffs dict is a view for
        # callers, so no product path may build one
        pairs, triples = TestFloerIndependence.PAIRS, TestFloerIndependence.TRIPLES
        order = 4
        bases = [[theta.ThetaElement.basis(n, p, order) for n, p in t] for t in triples]
        expected = [fukaya.floer_product(*pair, order) for pair in pairs]
        cold_tables()

        def forbidden(*args):
            raise AssertionError("coeffs view built on a product path")

        monkeypatch.setattr(theta.ThetaElement, "coeffs", property(forbidden))
        for (n1, p1, n2, p2), want in zip(pairs, expected):
            assert fukaya.floer_product(n1, p1, n2, p2, order) == want
            assert theta.theta_mul(theta.ThetaElement.basis(n1, p1, order),
                                   theta.ThetaElement.basis(n2, p2, order)) == want
        for a, b, c in bases:
            left = fukaya.floer_mul(fukaya.floer_mul(a, b), c)
            assert left == fukaya.floer_mul(a, fukaya.floer_mul(b, c))
            assert left == theta.theta_mul(theta.theta_mul(a, b), c)
        assert [list(r.coeffs) for r in expected[2].rows] == [
            [0, 1, 0, 0], [0] * 4, [0] * 4, [1, 0, 0, 0], [0, 0, 1, 0], [0] * 4, [0, 0, 1, 0]]
        a, b, c = bases[1]
        assert [list(r.coeffs) for r in fukaya.floer_mul(fukaya.floer_mul(a, b), c).rows] == [
            [0, 2, 2, 0], [1, 1, 1, 3], [1, 2, 1, 1], [1, 2, 1, 1], [1, 1, 1, 3]]
        with pytest.raises(AssertionError):
            a.coeffs


class TestDehnTable:
    def test_full_table_passes(self):
        records = fukaya.dehn_table_q0()
        assert all(r["status"] == "pass" for r in records)
        labels = [r["id"] for r in records]
        assert "z'^2 = zeta0 + 2*zeta1" in labels
        assert "y'^2 + x'^3 = x'*y'*z'" in labels


class TestRelationKernel:
    def test_q0_relation(self):
        series = fukaya.relation_kernel(1)
        assert [int(s.coeffs[0]) for s in series] == [1, 1, -1, 0, 0, 0, 0]

    def test_normalization_constant(self):
        for order in (1, 3, 5):
            series = fukaya.relation_kernel(order)
            assert series[0] == QSeries.one(series[0].ring, order)

    def test_integrality(self):
        assert all(type(c) is int for s in fukaya.relation_kernel(6) for c in s.coeffs)

    def test_non_unimodular_block_is_rejected(self, monkeypatch):
        # doubling x'^3 leaves a one-dimensional relation space whose
        # x'^3 coefficient is 1/2: the q=0 block has determinant -2
        monomials = fukaya._degree_six_monomials

        def doubled(order):
            monos = monomials(order)
            monos[1] = monos[1].scale(2)
            return monos

        monkeypatch.setattr(fukaya, "_degree_six_monomials", doubled)
        with pytest.raises(VerificationFailure, match="not unimodular"):
            fukaya.relation_kernel(4)
        report = cli.run_mirror_suite(4)
        assert [(c.id, c.status) for c in report.checks] == [("mirror-construction", "fail")]

    def test_relation_certificate(self, monkeypatch):
        # (|det| of the block without y'^2, gcd of the maximal minors)
        assert fukaya.relation_certificate() == (1, 1)
        monomials = fukaya._degree_six_monomials

        def doubled(order):
            monos = monomials(order)
            monos[1] = monos[1].scale(2)
            return monos

        monkeypatch.setattr(fukaya, "_degree_six_monomials", doubled)
        assert fukaya.relation_certificate() == (2, 1)
        # every monomial doubled: each 6x6 minor gains a factor 2^6
        monkeypatch.setattr(fukaya, "_degree_six_monomials",
                            lambda order: [m.scale(2) for m in monomials(order)])
        assert fukaya.relation_certificate() == (64, 64)

    def test_residual_vanishes(self):
        # recompute the residual directly from the monomials
        order = 5
        series = fukaya.relation_kernel(order)
        monos = fukaya._degree_six_monomials(order)
        for pt in range(6):
            total = QSeries.zero(series[0].ring, order)
            for s, m in zip(series, monos):
                total = total + s * m.coeffs[pt].to_ring(series[0].ring)
            assert total.is_zero()


class TestRelationCrossRoute:
    def test_relation_annihilates_section_ring_monomials(self):
        # the relation extracted from triangle counting must also hold among
        # the section-ring products of the corresponding basis elements
        order = 6
        series = fukaya.relation_kernel(order)
        ring = series[0].ring
        zp = theta.ThetaElement.basis(1, 0, order)
        xp = theta.ThetaElement.basis(2, Fraction(1, 2), order)
        yp = theta.ThetaElement.basis(3, Fraction(2, 3), order)
        mul = theta.theta_mul
        z2 = mul(zp, zp)
        z3 = mul(zp, z2)
        z4 = mul(zp, z3)
        monos = [mul(yp, yp), mul(xp, mul(xp, xp)), mul(mul(xp, yp), zp),
                 mul(mul(xp, xp), z2), mul(yp, z3), mul(xp, z4),
                 mul(zp, mul(zp, z4))]
        for pt in range(6):
            total = QSeries.zero(ring, order)
            for coeff, mono in zip(series, monos):
                total = total + coeff * mono.coeffs[pt].to_ring(ring)
            assert total.is_zero()


class TestSeidelMirror:
    def test_order_one_is_nodal_cubic(self):
        w = fukaya.seidel_mirror(1)
        assert [v.coeffs[0] for v in w.as_tuple()] == [1, 0, 0, 0, 0]

    def test_matches_tate_curve(self):
        assert fukaya.seidel_mirror(5) == weierstrass.tate_curve(5)

    def test_normal_form_postcondition(self):
        w = fukaya.seidel_mirror(4)
        assert w.a1 == QSeries.one(ZZ, 4)
        assert w.a2.is_zero() and w.a3.is_zero()

    def test_truncation_coherence(self):
        full = fukaya.seidel_mirror(6)
        for smaller in (1, 2, 4):
            assert full.truncate(smaller) == fukaya.seidel_mirror(smaller)

    def test_reparam_witness(self):
        res = fukaya.mirror_weierstrass(4)
        assert weierstrass.reparam_apply(res.reparam, res.raw) == res.curve
        assert res.unit.coeffs[0] == -1

    @pytest.mark.parametrize("order", [64, 128])
    def test_normalizer_gauge_is_no_wider_than_the_raw_curve(self, order):
        # the order-by-order lift keeps its integers near the raw curve's, and
        # not growing with the order: at most 8 bits above raw's widest
        raw = fukaya.mirror_weierstrass(order).raw
        g, _ = weierstrass.tate_normalize(raw)

        def width(series):
            return max(abs(c).bit_length() for v in series for c in v.coeffs)

        assert width(g.as_tuple()) <= width(raw.as_tuple()) + 8


class TestGaugeFreeMirrorInvariants:
    # a4 is pinned by the gauge slice, so these invariants are the evidence
    # that does not depend on how the gauge was fixed
    order = 12

    @pytest.fixture(scope="class")
    def mirror(self):
        return fukaya.mirror_weierstrass(self.order)

    def test_discriminant_is_q_times_eta_product(self, mirror):
        one = QSeries.one(ZZ, self.order)
        expected = QSeries.make(ZZ, self.order, [0, 1])
        for n in range(1, self.order):
            factor = one - one.shift(n)
            for _ in range(24):
                expected = expected * factor
        delta, _ = weierstrass.discriminant(mirror.curve)
        assert delta == expected

    def test_c4_is_eisenstein_e4(self, mirror):
        e4 = QSeries.make(ZZ, self.order, [1] + [
            240 * divisor_power_sum(3, n) for n in range(1, self.order)])
        _, c4 = weierstrass.discriminant(mirror.curve)
        assert c4 == e4

    def test_j_invariant_preserved_from_raw_curve(self, mirror):
        # j = c4^3 / Delta, compared by cross-multiplying
        delta_raw, c4_raw = weierstrass.discriminant(mirror.raw)
        delta, c4 = weierstrass.discriminant(mirror.curve)
        assert c4_raw * c4_raw * c4_raw * delta == c4 * c4 * c4 * delta_raw
