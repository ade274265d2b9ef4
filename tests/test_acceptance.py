"""End-to-end acceptance criteria.

Every equality below is exact integer or rational equality, tolerance zero.
Each test prints one line on success (run pytest with -s to see them all).
"""

import random
import time
from fractions import Fraction

import oracles
from tatemirror import fukaya, hochschild, lattice, theta, weierstrass
from tatemirror.exactnum import GF, QQ, ZZ, QSeries, divisor_power_sum
from tatemirror.theta import ThetaElement, theta_mul


def _report(name, detail, start):
    print(f"criterion {name}: PASS ({detail}, {time.time() - start:.1f}s)")


def test_criterion_1_lattice_point_counts():
    start = time.time()
    checked = 0
    for n1 in range(1, 12):
        for n2 in range(1, 13 - n1):
            for m1 in range(n1):
                for m2 in range(n2):
                    p1, p2 = Fraction(m1, n1), Fraction(m2, n2)
                    for j in theta.j_range(n1, p1, n2, p2, 13):
                        lam = theta.lambda_exp(n1, p1, n2, p2 + j)
                        if lam > 12:
                            continue
                        count = lattice.count_perturbed(n1, p1, n2, p2 + j)
                        row = lattice.row_formula_count(n1, p1, n2, p2 + j)
                        assert count == row == lam, (n1, p1, n2, p2 + j)
                        checked += 1
    assert checked > 7000
    _report("1 lattice-point counts", f"{checked} triangles, 3-way equality", start)


def test_criterion_2_mirror_product_identity():
    start = time.time()
    order = 10
    pairs = 0
    for n1 in range(1, 12):
        for n2 in range(1, 13 - n1):
            for m1 in range(n1):
                for m2 in range(n2):
                    p1, p2 = Fraction(m1, n1), Fraction(m2, n2)
                    flo = fukaya.floer_product(n1, p1, n2, p2, order)
                    sec = theta_mul(ThetaElement.basis(n1, p1, order),
                                    ThetaElement.basis(n2, p2, order))
                    assert flo.degree == sec.degree
                    for pt, coeff in flo.coeffs.items():
                        assert coeff == sec.coeffs[pt], (n1, p1, n2, p2, pt)
                    pairs += 1
    _report("2 mirror product identity", f"{pairs} basis pairs mod q^{order}", start)


def test_criterion_3_dehn_twist_table():
    start = time.time()
    records = fukaya.dehn_table_q0()
    assert all(r["status"] == "pass" for r in records)
    product_ids = [r["id"] for r in records]
    for expected in ("z'^2 = zeta0 + 2*zeta1", "z'*zeta0 = eta0 + eta1 + eta2",
                     "z'*zeta1 = eta1 + eta2", "z'^3 = eta0 + 3*eta1 + 3*eta2",
                     "eta2^2 = theta4", "eta1*eta2 = theta3", "zeta1^3 = theta3",
                     "y'^2 + x'^3 = x'*y'*z'"):
        assert expected in product_ids
    _report("3 exact twist-ring table", f"{len(records)} checks", start)


def test_criterion_4_seidel_mirror_map():
    start = time.time()
    order = 8
    got = fukaya.seidel_mirror(order)
    a4, a6 = weierstrass.tate_coeffs(order)
    assert got.a1 == QSeries.one(ZZ, order)
    assert got.a2.is_zero()
    assert got.a3.is_zero()
    assert got.a4 == a4
    assert list(a4.coeffs[:5]) == [0, -5, -45, -140, -365]
    assert got.a6 == a6
    assert list(a6.coeffs[:4]) == [0, -1, -23, -154]
    _report("4 Seidel mirror map", f"equals Tate coefficients mod q^{order}", start)


def test_criterion_5_tate_integrality_and_nodal_fibers():
    start = time.time()
    _, a6 = weierstrass.tate_coeffs(201)
    for n in range(1, 201):
        num = 5 * divisor_power_sum(3, n) + 7 * divisor_power_sum(5, n)
        assert num % 12 == 0
        assert a6.coeffs[n] == -num // 12
    primes = [p for p in range(2, 51) if all(p % d for d in range(2, p))]
    q0 = weierstrass.tate_curve(2).truncate(1)
    for p in primes:
        fiber = q0.to_ring(GF(p))
        assert weierstrass.classify_fiber(fiber) is weierstrass.Fiber.NODE
        assert oracles.singular_points_mod_p(fiber) == [((0, 0), True)]
    _report("5 Tate integrality", f"n <= 200 and node mod p for {len(primes)} primes",
            start)


def test_criterion_6_hochschild_tables():
    start = time.time()
    expected_tjurina = {0: 2, 2: 4, 3: 3, 5: 2}
    for char in (0, 2, 3, 5):
        fld = QQ if char == 0 else GF(char)
        cusp = hochschild.PlaneCurveRing(fld, 0)
        node = hochschild.PlaneCurveRing(fld, 1)

        got = hochschild.cusp_graded_ranks(cusp, 8, -12)
        want = hochschild.predicted_cusp_table(char, 8, -12)
        assert [got.row(n) for n in range(2, 9)] == [want.row(n) for n in range(2, 9)], \
            f"char {char}"

        tdim, _ = hochschild.tjurina_dim(cusp)
        assert tdim == expected_tjurina[char]
        kdim, _ = hochschild.koszul_h1_dim(cusp)
        assert kdim == tdim

        ntdim, _ = hochschild.tjurina_dim(node)
        assert ntdim == 1
        nkdim, _ = hochschild.koszul_h1_dim(node)
        assert nkdim == 1
        for ring in (cusp, node):
            _, gens = hochschild.koszul_h1_dim(ring)
            matrix = hochschild.omega_pairing(ring, gens)
            assert all(entry == {} for row in matrix for entry in row)
    _report("6 Hochschild tables", "chars 0,2,3,5 on n in [2,8], s in [-12,0]", start)


def test_criterion_7_lie_bracket_layer():
    start = time.time()
    from tatemirror.cli import run_lie_suite
    expected_ranks = {0: 2, 2: 4, 3: 3}
    for char in (0, 2, 3):
        fld = QQ if char == 0 else GF(char)
        _, coker, _ = weierstrass.lie_d_matrix(fld)
        assert coker == expected_ranks[char]
        cusp = hochschild.PlaneCurveRing(fld, 0)
        row2 = hochschild.cusp_graded_ranks(cusp, 2, -6).row(2)
        assert sum(row2.values()) == coker

    du = weierstrass.LieElement.of(QQ, du=1)
    a4 = weierstrass.coeff_direction(QQ, "a4")
    a6 = weierstrass.coeff_direction(QQ, "a6")
    assert weierstrass.adjoint_bracket(du, a4) == [Fraction(c) for c in (0, 0, 0, -4, 0)]
    assert weierstrass.adjoint_bracket(du, a6) == [Fraction(c) for c in (0, 0, 0, 0, -6)]

    signs = {}
    for char in (2, 3):
        report = run_lie_suite(char)
        assert report.passed
        adj = next(c for c in report.checks if c.id == "adjoint-table")
        signs[char] = adj.actual
    assert signs == {2: "global sign 1", 3: "global sign 1"}
    _report("7 Lie bracket layer", f"ranks + eigenvalues + tables ({signs})", start)


def _random_series(rng, order):
    return QSeries.make(ZZ, order, [rng.randint(-9, 9) for _ in range(order)])


def test_criterion_8a_ring_axioms():
    start = time.time()
    rng = random.Random(80)
    for _ in range(1000):
        order = rng.randint(1, 8)
        a, b, c = (_random_series(rng, order) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
    _report("8a ring axioms", "1000 random series triples", start)


def test_criterion_8b_group_action_law():
    start = time.time()
    rng = random.Random(81)
    for _ in range(1000):
        g1 = weierstrass.Reparam.from_ints(
            ZZ, [rng.choice([1, -1])] + [rng.randint(-4, 4) for _ in range(3)])
        g2 = weierstrass.Reparam.from_ints(
            ZZ, [rng.choice([1, -1])] + [rng.randint(-4, 4) for _ in range(3)])
        w = weierstrass.WeierstrassCoeffs.from_ints(
            ZZ, [rng.randint(-5, 5) for _ in range(5)])
        composed = weierstrass.reparam_apply(weierstrass.reparam_compose(g2, g1), w)
        stepwise = weierstrass.reparam_apply(g2, weierstrass.reparam_apply(g1, w))
        assert composed == stepwise
    _report("8b group action law", "1000 random (g2, g1, w)", start)


def test_criterion_8c_discriminant_covariance():
    start = time.time()
    rng = random.Random(82)
    for _ in range(1000):
        g = weierstrass.Reparam.from_ints(
            ZZ, [rng.choice([1, -1])] + [rng.randint(-4, 4) for _ in range(3)])
        w = weierstrass.WeierstrassCoeffs.from_ints(
            ZZ, [rng.randint(-5, 5) for _ in range(5)])
        d0, c0 = weierstrass.discriminant(w)
        d1, c1 = weierstrass.discriminant(weierstrass.reparam_apply(g, w))
        u = g.u.coeffs[0]
        assert d1.coeffs[0] * u ** 12 == d0.coeffs[0]
        assert c1.coeffs[0] * u ** 4 == c0.coeffs[0]
    _report("8c discriminant covariance", "1000 random (g, w)", start)


def test_criterion_8d_product_associativity():
    start = time.time()
    rng = random.Random(83)
    for _ in range(1000):
        while True:
            degs = [rng.randint(1, 5) for _ in range(3)]
            if sum(degs) <= 9:
                break
        order = rng.randint(1, 10)
        points = [Fraction(rng.randrange(n), n) for n in degs]
        fa, fb, fc = (fukaya.FloerElement.basis(n, p, order)
                      for n, p in zip(degs, points))
        assert fukaya.floer_mul(fukaya.floer_mul(fa, fb), fc) == \
            fukaya.floer_mul(fa, fukaya.floer_mul(fb, fc))
        ta, tb, tc = (ThetaElement.basis(n, p, order)
                      for n, p in zip(degs, points))
        assert theta_mul(theta_mul(ta, tb), tc) == theta_mul(ta, theta_mul(tb, tc))
    _report("8d product associativity", "1000 random triples, both sides", start)


def test_criterion_8e_mirror_truncation_coherence():
    start = time.time()
    curves = {k: fukaya.seidel_mirror(k) for k in range(1, 9)}
    rng = random.Random(84)
    for _ in range(1000):
        hi = rng.randint(2, 8)
        lo = rng.randint(1, hi - 1)
        assert curves[hi].truncate(lo) == curves[lo]
    _report("8e mirror truncation coherence", "1000 random order pairs", start)
