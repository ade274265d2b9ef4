import math
import random
from fractions import Fraction

import pytest

from tatemirror import _linalg
from tatemirror import hochschild as hh
from tatemirror.errors import VerificationFailure
from tatemirror.exactnum import GF, QQ, ring_of_characteristic

CHARS = (0, 2, 3, 5)


def rings(char):
    fld = ring_of_characteristic(char)
    return hh.PlaneCurveRing(fld, 0), hh.PlaneCurveRing(fld, 1)


class TestNormalForm:
    def test_defining_relation_cusp(self):
        cusp, _ = rings(0)
        assert cusp.normal_form(cusp.poly({(0, 2): 1})) == {(3, 0): QQ.coerce(1)}

    def test_y_cubed_in_node_ring(self):
        _, node = rings(0)
        got = node.normal_form(node.poly({(0, 3): 1}))
        assert got == {(3, 1): QQ.coerce(1), (4, 0): QQ.coerce(-1),
                       (2, 1): QQ.coerce(1)}

    def test_idempotent_on_random_inputs(self):
        rng = random.Random(41)
        for char in CHARS:
            cusp, node = rings(char)
            for ring in (cusp, node):
                for _ in range(25):
                    poly = ring.poly({(rng.randint(0, 4), rng.randint(0, 4)):
                                      rng.randint(-6, 6) for _ in range(5)})
                    once = ring.normal_form(poly)
                    assert ring.normal_form(once) == once
                    assert all(b <= 1 for (_, b) in once)

    def test_mul_respects_relation(self):
        cusp, _ = rings(0)
        y = {(0, 1): QQ.coerce(1)}
        assert cusp.mul(y, y) == {(3, 0): QQ.coerce(1)}

    @pytest.mark.parametrize("c", [0, 1])
    def test_bool_coefficient_rejected(self, c):
        with pytest.raises(TypeError):
            hh.PlaneCurveRing(QQ, c).poly({(0, 0): True})

    def test_fraction_coefficients_keep_their_values(self):
        cusp, node = rings(0)
        half = Fraction(1, 2)
        assert cusp.normal_form({(0, 2): half}) == {(3, 0): half}
        assert node.normal_form({(0, 2): half}) == {(3, 0): half, (1, 1): -half}
        for ring, xy in ((cusp, 3), (node, Fraction(11, 4))):
            p = ring.poly({(0, 1): half, (1, 0): 3, (2, 0): 0})
            assert p == {(0, 1): half, (1, 0): 3}
            assert type(p[(0, 1)]) is Fraction and type(p[(1, 0)]) is int
            # (y/2 + 3x)^2 = y^2/4 + 3xy + 9x^2, with y^2 = x^3 - c*xy
            assert ring.mul(p, p) == {(3, 0): Fraction(1, 4), (1, 1): xy, (2, 0): 9}

    def test_defining_polynomial_reduces_to_zero(self):
        for char in CHARS:
            for ring in rings(char):
                assert ring.normal_form(ring.poly({(0, 2): 1, (1, 1): ring.c, (3, 0): -1})) == {}



class TestSumsAgainstAnOracle:
    # add and mul hand every pair to one reduction loop, repeated monomials
    # included; the oracle sums into a dict first, then rewrites
    # y^2 = x^3 - c*x*y from the top y-degree down
    @staticmethod
    def oracle(ring, pairs):
        fld, acc = ring.field, {}

        def put(mono, coeff):
            acc[mono] = fld.add(acc.get(mono, 0), coeff)

        for mono, coeff in pairs:
            put(mono, coeff)
        for b in range(max((b for _, b in acc), default=0), 1, -1):
            for a in sorted(a for a, bb in acc if bb == b):
                coeff = acc.pop((a, b))
                put((a + 3, b - 2), coeff)
                put((a + 1, b - 1), fld.sub(0, fld.mul(ring.c, coeff)))
        return {m: v for m, v in acc.items() if v}

    @pytest.mark.parametrize("char", CHARS)
    def test_add_and_mul_match_the_oracle(self, char):
        rng = random.Random(97 + char)
        for ring in rings(char):
            fld = ring.field

            def coeff():
                # over QQ, int and Fraction coefficients mix
                k = rng.randint(-3, 3)
                return k if char or rng.random() < 0.5 else Fraction(k, 2)

            def draw():
                return ring.poly({(rng.randint(0, 3), rng.randint(0, 1)): coeff()
                                  for _ in range(rng.randint(0, 6))})

            for _ in range(150):
                p, q = draw(), draw()
                for mono in rng.sample(sorted(p), len(p) // 2):  # cancelling terms
                    q[mono] = fld.sub(0, p[mono])
                assert ring.add(p, q) == self.oracle(ring, [*p.items(), *q.items()])
                products = [((a1 + a2, b1 + b2), fld.mul(c1, c2))
                            for (a1, b1), c1 in p.items() for (a2, b2), c2 in q.items()]
                assert ring.mul(p, q) == self.oracle(ring, products)


class TestMonomials:
    def test_one_per_weight_equals_the_sorted_candidates(self):
        for ring in rings(0):
            for max_weight in range(-1, 41):
                candidates = [(a, b) for b in (0, 1) for a in range(max_weight // 2 + 1)]
                want = sorted((m for m in candidates if hh.weight(m) <= max_weight),
                              key=lambda m: (hh.weight(m), m[1]))
                assert ring.monomials(max_weight) == want, max_weight


class TestTjurina:
    @pytest.mark.parametrize("char,dim", [(0, 2), (2, 4), (3, 3), (5, 2)])
    def test_cusp_dimension(self, char, dim):
        cusp, _ = rings(char)
        got, basis = hh.tjurina_dim(cusp)
        assert got == dim
        assert (0, 0) in basis and len(basis) == dim

    def test_cusp_basis_char0(self):
        cusp, _ = rings(0)
        _, basis = hh.tjurina_dim(cusp)
        assert basis == [(0, 0), (1, 0)]

    @pytest.mark.parametrize("char", CHARS)
    def test_node_dimension_is_one(self, char):
        _, node = rings(char)
        dim, basis = hh.tjurina_dim(node)
        assert dim == 1 and basis == [(0, 0)]

    def test_undersized_window_raises(self):
        from tatemirror.errors import StabilizationError
        cusp, _ = rings(0)
        with pytest.raises(StabilizationError):
            hh.tjurina_dim(cusp, bound=0)
        with pytest.raises(StabilizationError, match="moved from 0 to 1"):
            hh.koszul_h1_dim(cusp, bound=0)


class TestStabilizationRule:
    # the dimensions of T and of the middle homology, per characteristic:
    # (cusp, node)
    DIMS = {0: (2, 1), 2: (4, 1), 3: (3, 1), 5: (2, 1)}

    @pytest.mark.parametrize("char", CHARS)
    def test_small_windows_answer_right_or_raise(self, char):
        # at bounds -3 to 2 a window may be too small, empty or not yet stable:
        # every call that returns gives the true dimension, and the rest raise
        from tatemirror.errors import StabilizationError
        for ring, want in zip(rings(char), self.DIMS[char]):
            for find in (hh.tjurina_dim, hh.koszul_h1_dim):
                for bound in range(-3, 3):
                    try:
                        got, answer = find(ring, bound)
                    except StabilizationError:
                        continue
                    assert (got, len(answer)) == (want, want), (find.__name__, ring, bound)

    @pytest.mark.parametrize("char", (0, 2, 5, 7))
    def test_empty_answer_raises(self, char):
        # the node's windows 0 and 4 hold no generator of the middle homology:
        # both counts are 0, and equal
        from tatemirror.errors import StabilizationError
        _, node = rings(char)
        with pytest.raises(StabilizationError, match="middle homology is empty"):
            hh.koszul_h1_dim(node, bound=0)
        with pytest.raises(StabilizationError, match="is empty in the window -6"):
            hh.tjurina_dim(node, bound=-3)


class TestKoszulMiddle:
    @pytest.mark.parametrize("char", CHARS)
    def test_matches_tjurina_dimension(self, char):
        cusp, node = rings(char)
        for ring in (cusp, node):
            tdim, _ = hh.tjurina_dim(ring)
            kdim, _ = hh.koszul_h1_dim(ring)
            assert kdim == tdim

    @pytest.mark.parametrize("char", CHARS)
    def test_generator_count_equals_dimension(self, char):
        for ring in rings(char):
            kdim, pairs = hh.koszul_h1_dim(ring)
            assert len(pairs) == kdim

    def test_generator_pairs_are_syzygies(self):
        for char in CHARS:
            cusp, node = rings(char)
            for ring in (cusp, node):
                fx, fy = ring.f_x(), ring.f_y()
                for a1, a2 in hh.koszul_h1_dim(ring)[1]:
                    combo = ring.add(ring.mul(a1, fx), ring.mul(a2, fy))
                    assert combo == {}

    def test_pairs_over_qq_are_primitive_integer_syzygies(self):
        for ring in rings(0):
            fx, fy = ring.f_x(), ring.f_y()
            for a1, a2 in hh.koszul_h1_dim(ring)[1]:
                coeffs = list(a1.values()) + list(a2.values())
                assert coeffs and all(type(v) is int for v in coeffs)
                assert math.gcd(*coeffs) == 1
                assert ring.add(ring.mul(a1, fx), ring.mul(a2, fy)) == {}


class TestSingleKoszulPass:
    def test_suite_builds_each_window_once(self, monkeypatch):
        from tatemirror import cli
        calls = []
        original = hh._koszul_at

        def recording(ring, report_weight):
            calls.append(("cusp" if ring.is_cusp else "node", report_weight))
            return original(ring, report_weight)

        monkeypatch.setattr(hh, "_koszul_at", recording)
        assert cli.run_hochschild_suite(5).passed
        assert calls == [("cusp", 20), ("cusp", 24), ("node", 20), ("node", 24)]



class TestKoszulStack:
    # the count the boundary stack gives, against dim ker - dim(B in window)
    # computed from ranks alone: B in window is rank B minus the rank of B
    # restricted to the weights above the window
    @pytest.mark.parametrize("char", (0, 2, 3, 5, 7))
    def test_count_is_kernel_minus_boundary_in_window(self, char):
        for ring in rings(char):
            fld = ring.field
            fx, fy = ring.f_x(), ring.f_y()
            neg_fx = {m: fld.sub(0, v) for m, v in fx.items()}
            for w in range(29):
                source, target = ring.monomials(w), ring.monomials(w + 4)

                def vector(m, comps):
                    products = [ring.mul({m: 1}, comp) for comp in comps]
                    return [prod.get(t, 0) for prod in products for t in target]

                image = [vector(m, [g]) for g in (fx, fy) for m in source]
                boundary = [vector(m, [fy, neg_fx]) for m in source]
                high = [i for i, t in enumerate(target * 2) if hh.weight(t) > w]
                kernel_dim = 2 * len(source) - _linalg.rank(image, fld)
                in_window = (_linalg.rank(boundary, fld)
                             - _linalg.rank([[r[i] for i in high] for r in boundary], fld))
                assert len(hh._koszul_at(ring, w)) == kernel_dim - in_window, (char, ring, w)

    def test_one_window_takes_two_eliminations(self, monkeypatch):
        calls = []
        original = _linalg.echelon

        def counting(rows, ring):
            calls.append(ring)
            return original(rows, ring)

        monkeypatch.setattr(_linalg, "echelon", counting)
        for ring in rings(0):
            calls.clear()
            hh._koszul_at(ring, 20)
            assert len(calls) == 2

    @pytest.mark.parametrize("w", (0, 20, 28))
    def test_one_window_forms_each_ring_product_once(self, monkeypatch, w):
        # m*f_x and m*f_y for each multiplier m: the kernel matrix and the
        # boundary m*(f_y, -f_x) share them
        calls = []
        original = hh.PlaneCurveRing.mul

        def counting(ring, p, q):
            calls.append((p, q))
            return original(ring, p, q)

        monkeypatch.setattr(hh.PlaneCurveRing, "mul", counting)
        for ring in rings(0):
            calls.clear()
            hh._koszul_at(ring, w)
            assert len(calls) == 2 * len(ring.monomials(w))

    # row normalizations of the node's eliminations at weight 28 over QQ: 165 and
    # 311 with rows taken by leading column, 975 and 1006 in the order built
    @pytest.mark.parametrize("build, bound", [(hh._Span, 165), (hh._koszul_at, 311)])
    def test_node_eliminations_fill_few_rows(self, monkeypatch, build, bound):
        calls = []
        original = _linalg._primitive

        def counting(row):
            calls.append(row)
            return original(row)

        monkeypatch.setattr(_linalg, "_primitive", counting)
        build(rings(0)[1], 28)
        assert len(calls) <= bound

    @pytest.mark.parametrize("char", (0, 2, 3, 5, 7, 2**61 - 1))
    def test_suite_passes_at_bound_18(self, char):
        from tatemirror import cli
        report = cli.run_hochschild_suite(char, bound=18)
        assert report.passed, [c for c in report.checks if c.status != "pass"]


class TestOmegaPairing:
    @pytest.mark.parametrize("char", CHARS)
    def test_vanishes_for_both_curves(self, char):
        cusp, node = rings(char)
        for ring in (cusp, node):
            _, gens = hh.koszul_h1_dim(ring)
            matrix = hh.omega_pairing(ring, gens)
            assert all(entry == {} for row in matrix for entry in row)

    def test_detects_fabricated_nonzero_pair(self):
        cusp, _ = rings(0)
        fake = [({(0, 0): QQ.coerce(1)}, {}), ({}, {(0, 0): QQ.coerce(1)})]
        with pytest.raises(VerificationFailure):
            hh.omega_pairing(cusp, fake)

    def test_window_fits_high_weight_values(self):
        # the value x^23 (weight 46) lies in (f_x, f_y); the window must reach it
        cusp, _ = rings(0)
        pairs = [({(0, 0): QQ.coerce(1)}, {}), ({}, {(23, 0): QQ.coerce(1)})]
        matrix = hh.omega_pairing(cusp, pairs)
        assert all(entry == {} for row in matrix for entry in row)

    def test_detects_high_weight_nonzero_pair(self):
        cusp, _ = rings(0)
        fake = [({(0, 0): QQ.coerce(1)}, {}),
                ({}, {(0, 0): QQ.coerce(1), (23, 0): QQ.coerce(1)})]
        with pytest.raises(VerificationFailure):
            hh.omega_pairing(cusp, fake)

    def test_diagonal_always_zero(self):
        cusp, _ = rings(0)
        _, gens = hh.koszul_h1_dim(cusp)
        matrix = hh.omega_pairing(cusp, gens)
        for i in range(len(gens)):
            assert matrix[i][i] == {}


class TestGradedRanks:
    def test_beta_bucket(self):
        cusp, _ = rings(0)
        table = hh.cusp_graded_ranks(cusp, 2, -6)
        assert table.rank(2, -6) == 1

    def test_degree_two_row_char0(self):
        cusp, _ = rings(0)
        assert hh.cusp_graded_ranks(cusp, 2, -8).row(2) == {-6: 1, -4: 1}

    def test_degree_two_row_char2(self):
        cusp, _ = rings(2)
        assert hh.cusp_graded_ranks(cusp, 2, -8).row(2) == \
            {-6: 1, -4: 1, -3: 1, -1: 1}

    @pytest.mark.parametrize("char", CHARS)
    def test_full_window_matches_prediction(self, char):
        cusp, _ = rings(char)
        got = hh.cusp_graded_ranks(cusp, 8, -12)
        want = hh.predicted_cusp_table(char, 8, -12)
        assert [got.row(n) for n in range(2, 9)] == [want.row(n) for n in range(2, 9)]

    @pytest.mark.parametrize("char", CHARS)
    def test_window_with_no_negative_weight(self, char):
        # s_min = 0 is a window, the top weight only, not an empty one
        cusp, _ = rings(char)
        assert hh.cusp_graded_ranks(cusp, 8, 0) == hh.predicted_cusp_table(char, 8, 0)

    def test_node_rejected(self):
        _, node = rings(0)
        with pytest.raises(ValueError):
            hh.cusp_graded_ranks(node, 4, -6)

    def test_window_guard(self):
        table = hh.predicted_cusp_table(0, 4, -8)
        with pytest.raises(KeyError):
            table.rank(5, -2)
        with pytest.raises(KeyError):
            table.rank(2, -9)


class TestDgaDifferential:
    @pytest.mark.parametrize("char", (0, 2, 3, 5, 7))
    def test_differential_squares_to_zero(self, char):
        # a sign slip in the image table leaves every bucket's rank plausible
        # but breaks d*d = 0, so the composite is checked entry by entry
        cusp, _ = rings(char)
        fld = cusp.field
        images = hh._dga_images(cusp)
        entries = 0
        for n in range(8):
            for s in range(-12, 1):
                d_in, src_dim = hh._dga_matrix(cusp, images, n, s)
                d_out, _ = hh._dga_matrix(cusp, images, n + 1, s)
                for row in d_out:
                    for k in range(src_dim):
                        entry = fld.zero()
                        for a, row_in in zip(row, d_in):
                            entry = fld.add(entry, fld.mul(a, row_in[k]))
                        assert not entry, (n, s)
                        entries += 1
        assert entries == 270


class TestLowDegreeRows:
    # below the comparison window the dga still computes honest values:
    # degree 0 is the constants, degree 1 the nonpositively graded syzygy
    # pairs, whose dimensions per characteristic are dim T - 1 with the
    # internal degrees of the curve's global vector fields
    @pytest.mark.parametrize("char,row1", [
        (0, {0: 1}),
        (2, {-3: 1, -1: 1, 0: 1}),
        (3, {-2: 1, 0: 1}),
        (5, {0: 1}),
    ])
    def test_rows_zero_and_one(self, char, row1):
        cusp, _ = rings(char)
        table = hh.cusp_graded_ranks(cusp, 1, -12)
        assert table.row(0) == {0: 1}
        assert table.row(1) == row1


class TestPredictedTable:
    def test_degree_one_buckets(self):
        assert hh.predicted_cusp_table(0, 2, -6).rank(1, 0) == 1
        assert hh.predicted_cusp_table(2, 2, -6).rank(1, -3) == 1
        assert hh.predicted_cusp_table(3, 2, -6).rank(1, -2) == 1

    def test_beta_gamma_bucket_char0(self):
        assert hh.predicted_cusp_table(0, 4, -8).rank(3, -6) == 1

    def test_zero_buckets_absent(self):
        table = hh.predicted_cusp_table(0, 6, -12)
        assert (2, -5) not in table.ranks
        assert table.rank(2, -5) == 0
