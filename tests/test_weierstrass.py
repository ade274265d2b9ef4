import random
from fractions import Fraction

import pytest

import oracles
from tatemirror import _linalg
from tatemirror import weierstrass as ws
from tatemirror.errors import (InvariantError, NonUnitError, NormalizationFailure,
                               RingMismatchError)
from tatemirror.exactnum import GF, QQ, ZZ, QSeries


def zcurve(values):
    return ws.WeierstrassCoeffs.from_ints(ZZ, values)


def qcurve(values):
    return ws.WeierstrassCoeffs.from_ints(QQ, values)


def series_curve(lists, order):
    return ws.WeierstrassCoeffs.from_series(ZZ, order, lists)


class TestCoeffsValidation:
    def test_mixed_rings_and_orders_rejected(self):
        z, q = QSeries.one(ZZ, 2), QSeries.one(QQ, 2)
        with pytest.raises(RingMismatchError):
            ws.WeierstrassCoeffs(z, z, q, z, z)
        short, long = QSeries.one(ZZ, 1), QSeries.one(ZZ, 3)
        with pytest.raises(RingMismatchError):
            ws.WeierstrassCoeffs(short, short, short, short, long)

    def test_curve_over_the_base_ring_is_the_order_one_truncation(self):
        nodal = ws.WeierstrassCoeffs.from_ints(ZZ, [1, 0, 0, 0, 0])
        assert nodal == ws.tate_curve(1) == ws.tate_curve(6).truncate(1)
        identity = ws.Reparam.identity_like(ws.tate_curve(1).a1)
        assert ws.Reparam.from_ints(ZZ, [1, 0, 0, 0]) == identity


class TestReparamApply:
    def test_identity(self):
        w = zcurve([1, 2, 3, 4, 6])
        g = ws.Reparam.identity_like(w.a1)
        assert ws.reparam_apply(g, w) == w

    def test_unit_flip(self):
        w = zcurve([-1, 0, 0, 0, 0])
        g = ws.Reparam.from_ints(ZZ, [-1, 0, 0, 0])
        assert ws.reparam_apply(g, w) == zcurve([1, 0, 0, 0, 0])

    def test_x_translation_on_zero_curve(self):
        r = 4
        g = ws.Reparam.from_ints(ZZ, [1, 0, r, 0])
        moved = ws.reparam_apply(g, zcurve([0, 0, 0, 0, 0]))
        assert moved == zcurve([0, 3 * r, 0, 3 * r * r, r ** 3])

    def test_noninvertible_u_rejected(self):
        g = ws.Reparam.from_ints(ZZ, [2, 0, 0, 0])
        with pytest.raises(NonUnitError):
            ws.reparam_apply(g, zcurve([1, 0, 0, 0, 0]))


def random_reparam(rng, bound=4):
    u = rng.choice([1, -1])
    s, r, t = (rng.randint(-bound, bound) for _ in range(3))
    return ws.Reparam.from_ints(ZZ, [u, s, r, t])


def random_curve(rng, bound=5):
    return zcurve([rng.randint(-bound, bound) for _ in range(5)])


class TestReparamCompose:
    def test_identity_neutral(self):
        rng = random.Random(1)
        for _ in range(10):
            g = random_reparam(rng)
            e = ws.Reparam.identity_like(g.u)
            assert ws.reparam_compose(e, g) == g
            assert ws.reparam_compose(g, e) == g

    def test_translations_add(self):
        g1 = ws.Reparam.from_ints(ZZ, [1, 0, 2, 0])
        g2 = ws.Reparam.from_ints(ZZ, [1, 0, 5, 0])
        assert ws.reparam_compose(g2, g1) == ws.Reparam.from_ints(ZZ, [1, 0, 7, 0])

    def test_action_law(self):
        rng = random.Random(2)
        for _ in range(200):
            g1, g2 = random_reparam(rng), random_reparam(rng)
            w = random_curve(rng)
            lhs = ws.reparam_apply(ws.reparam_compose(g2, g1), w)
            rhs = ws.reparam_apply(g2, ws.reparam_apply(g1, w))
            assert lhs == rhs


def substituted_cubic(g, w):
    """The cubic y^2 + a1*x*y + a3*y - x^3 - a2*x^2 - a4*x - a6 of w after
    x = u^2*x' + r and y = u^3*y' + u^2*s*x' + t, expanded by plain polynomial
    arithmetic into {(i, j): series coefficient of x'^i y'^j}."""
    def add(*polys):
        out = {}
        for poly in polys:
            for mono, c in poly.items():
                out[mono] = out[mono] + c if mono in out else c
        return out

    def mul(p1, p2):
        return add(*({(i1 + i2, j1 + j2): c1 * c2}
                     for (i1, j1), c1 in p1.items() for (i2, j2), c2 in p2.items()))

    def neg(poly):
        return {mono: -c for mono, c in poly.items()}

    u, s, r, t = g.as_tuple()
    a1, a2, a3, a4, a6 = ({(0, 0): v} for v in w.as_tuple())
    u2 = u * u
    x = {(1, 0): u2, (0, 0): r}
    y = {(0, 1): u2 * u, (1, 0): u2 * s, (0, 0): t}
    xx = mul(x, x)
    return add(mul(y, y), mul(a1, mul(x, y)), mul(a3, y), neg(mul(xx, x)),
               neg(mul(a2, xx)), neg(mul(a4, x)), neg(a6))


def oracle_apply(g, w):
    """Read b1..b6 off the substituted cubic, which must be u^6 times
    y'^2 + b1*x'*y' + b3*y' - x'^3 - b2*x'^2 - b4*x' - b6."""
    poly = substituted_cubic(g, w)
    zero = QSeries.zero(w.ring, w.a1.order)
    u6 = g.u * g.u * g.u * g.u * g.u * g.u
    assert poly.pop((0, 2)) == u6 and poly.pop((3, 0)) == -u6
    scale = u6.invert()
    signs = {(1, 1): 1, (2, 0): -1, (0, 1): 1, (1, 0): -1, (0, 0): -1}
    b1, b2, b3, b4, b6 = (poly.pop(mono, zero) * (scale * sign)
                          for mono, sign in signs.items())
    assert all(c.is_zero() for c in poly.values())
    return ws.WeierstrassCoeffs(b1, b2, b3, b4, b6)


class TestReparamApplyOracle:
    # the substitution itself, expanded, against reparam_apply's closed formulas
    @pytest.mark.parametrize("order", range(1, 9))
    def test_integral_series(self, order):
        rng = random.Random(700 + order)

        def series(head=None):
            tail = [rng.randint(-9, 9) for _ in range(order)]
            return QSeries.make(ZZ, order, tail if head is None else [head] + tail[1:])

        for _ in range(12):
            g = ws.Reparam(series(rng.choice([1, -1])), series(), series(), series())
            w = ws.WeierstrassCoeffs(*(series() for _ in range(5)))
            assert ws.reparam_apply(g, w) == oracle_apply(g, w)

    @pytest.mark.parametrize("fld", [QQ, GF(2), GF(3), GF(5)], ids=repr)
    def test_order_two_over_fields(self, fld):
        rng = random.Random(710 + fld.characteristic)

        def value():
            if fld is QQ:
                return Fraction(rng.randint(-20, 20), rng.randint(1, 6))
            return rng.randint(-20, 20)

        def series(unit=False):
            head = value()
            while unit and fld.coerce(head) == fld.zero():
                head = value()
            return QSeries.make(fld, 2, [head, value()])

        for _ in range(40):
            g = ws.Reparam(series(unit=True), series(), series(), series())
            w = ws.WeierstrassCoeffs(*(series() for _ in range(5)))
            assert ws.reparam_apply(g, w) == oracle_apply(g, w)


class TestDiscriminant:
    def test_nodal_cubic(self):
        delta, c4 = ws.discriminant(zcurve([1, 0, 0, 0, 0]))
        assert delta.coeffs[0] == 0 and c4.coeffs[0] == 1

    def test_cuspidal_cubic(self):
        delta, c4 = ws.discriminant(zcurve([0, 0, 0, 0, 0]))
        assert delta.coeffs[0] == 0 and c4.coeffs[0] == 0

    def test_smooth_example(self):
        delta, c4 = ws.discriminant(zcurve([0, 0, 0, -1, 0]))
        assert delta.coeffs[0] == 64 and c4.coeffs[0] == 48

    def test_covariance(self):
        rng = random.Random(3)
        for _ in range(200):
            g = random_reparam(rng)
            w = random_curve(rng)
            d0, c0 = ws.discriminant(w)
            d1, c1 = ws.discriminant(ws.reparam_apply(g, w))
            u = g.u.coeffs[0]
            assert d1.coeffs[0] * u ** 12 == d0.coeffs[0]
            assert c1.coeffs[0] * u ** 4 == c0.coeffs[0]


class TestClassifyFiber:
    def test_node_over_every_prime(self):
        for p in (2, 3, 5, 7, 11):
            w = ws.WeierstrassCoeffs.from_ints(GF(p), [1, 0, 0, 0, 0])
            assert ws.classify_fiber(w) is ws.Fiber.NODE

    def test_cusp_over_q(self):
        assert ws.classify_fiber(qcurve([0, 0, 0, 0, 0])) is ws.Fiber.CUSP

    def test_smooth_over_q(self):
        assert ws.classify_fiber(qcurve([0, 0, 0, -1, 0])) is ws.Fiber.SMOOTH

    def test_series_input_rejected(self):
        w = series_curve([[1], [0], [0], [0], [0]], 2)
        with pytest.raises(ValueError):
            ws.classify_fiber(w)

    def test_integer_scalars_rejected(self):
        with pytest.raises(ValueError):
            ws.classify_fiber(zcurve([1, 0, 0, 0, 0]))

    def test_hessian_crosscheck(self):
        # the (delta, c4) classification agrees with the singular-point scan
        w = ws.WeierstrassCoeffs.from_ints(GF(13), [1, 0, 0, 0, 0])
        points = oracles.singular_points_mod_p(w)
        assert points == [((0, 0), True)]


class TestTateCoeffs:
    def test_order_one_specializes_to_nodal_cubic(self):
        a4, a6 = ws.tate_coeffs(1)
        assert a4.is_zero() and a6.is_zero()

    def test_quartic_expansion(self):
        a4, _ = ws.tate_coeffs(5)
        assert list(a4.coeffs) == [0, -5, -45, -140, -365]

    def test_sextic_expansion(self):
        _, a6 = ws.tate_coeffs(5)
        assert list(a6.coeffs) == [0, -1, -23, -154, -647]

    def test_sextic_against_divisor_enumeration(self):
        _, a6 = ws.tate_coeffs(30)
        for n in range(1, 30):
            s3 = sum(d ** 3 for d in range(1, n + 1) if n % d == 0)
            s5 = sum(d ** 5 for d in range(1, n + 1) if n % d == 0)
            num = 5 * s3 + 7 * s5
            assert num % 12 == 0
            assert a6.coeffs[n] == -num // 12


class TestTateNormalize:
    def test_normal_form_is_fixed(self):
        w = ws.tate_curve(6)
        g, out = ws.tate_normalize(w)
        assert out == w
        assert g == ws.Reparam.identity_like(w.a1)

    def test_constant_unit_flip(self):
        w = series_curve([[-1], [0], [0], [0], [0]], 3)
        g, out = ws.tate_normalize(w)
        assert out == series_curve([[1], [0], [0], [0], [0]], 3)
        assert g.u.coeffs[0] == -1

    def test_idempotent(self):
        rng = random.Random(4)
        for _ in range(20):
            g = random_reparam(rng)
            moved = ws.reparam_apply(
                ws.Reparam.from_series(
                    ZZ, 5, [[g.u.coeffs[0]], [g.s.coeffs[0]], [g.r.coeffs[0]], [g.t.coeffs[0]]]),
                ws.tate_curve(5))
            _, once = ws.tate_normalize(moved)
            g2, twice = ws.tate_normalize(once)
            assert twice == once
            assert g2 == ws.Reparam.identity_like(once.a1)

    def test_postconditions_on_scrambled_tate(self):
        rng = random.Random(5)
        order = 6
        for _ in range(20):
            lists = [[rng.choice([1, -1])] + [2 * rng.randint(-3, 3) for _ in range(order - 1)],
                     [rng.randint(-5, 5) for _ in range(order)],
                     [rng.randint(-5, 5) for _ in range(order)],
                     [rng.randint(-5, 5) for _ in range(order)]]
            g = ws.Reparam.from_series(ZZ, order, lists)
            w = ws.reparam_apply(g, ws.tate_curve(order))
            gn, out = ws.tate_normalize(w)
            assert out.a1 == QSeries.one(ZZ, order)
            assert out.a2.is_zero() and out.a3.is_zero()
            assert ws.reparam_apply(gn, w) == out

    def test_order_by_order_branch(self):
        # a non-constant u leaves odd higher a1 coefficients, which the
        # order-by-order lift clears with a non-constant u of its own
        order = 6
        u = QSeries.make(ZZ, order, [1, 1])
        g = ws.Reparam(u, QSeries.zero(ZZ, order), QSeries.zero(ZZ, order),
                       QSeries.zero(ZZ, order))
        w = ws.reparam_apply(g, ws.tate_curve(order))
        assert any(c % 2 for c in w.a1.coeffs[1:])
        gn, out = ws.tate_normalize(w)
        assert out.a1 == QSeries.one(ZZ, order)
        assert out.a2.is_zero() and out.a3.is_zero()
        assert gn.u.coeffs[1:] != (0,) * (order - 1)
        assert ws.reparam_apply(gn, w) == out

    def test_even_a1_rejected(self):
        w = series_curve([[2], [0], [0], [0], [0]], 2)
        with pytest.raises(NormalizationFailure):
            ws.tate_normalize(w)

    def test_smooth_fiber_rejected(self):
        # a1(0) is odd, so only the node check stands between this curve,
        # y^2 + xy = x^3 + 1 with Delta = -433, and a silent normalization
        w = series_curve([[1], [0], [0], [0], [1]], 2)
        with pytest.raises(NormalizationFailure, match="smooth"):
            ws.tate_normalize(w)

    @pytest.mark.parametrize("values", [
        [1, 1, 0, 0, 0],   # 3 does not divide a2(0) = 1
        [1, -1, 0, 0, 0],  # nor a2(0) = -1, though the t(0) numerator is even
    ])
    def test_nodal_fiber_without_integral_lift(self, values):
        w = series_curve([[v] for v in values], 2)
        assert ws.classify_fiber(w.truncate(1).to_ring(QQ)) is ws.Fiber.NODE
        with pytest.raises(NormalizationFailure) as exc:
            ws.tate_normalize(w)
        assert exc.value.order == 0


class TestQuarticGauge:
    def test_pins_and_is_idempotent(self):
        order = 6
        w = ws.tate_curve(order)
        moved = ws.reparam_apply(ws.normal_form_stabilizer(QSeries.make(ZZ, order, [0, 18])), w)
        moved = ws.reparam_apply(ws.normal_form_stabilizer(QSeries.make(ZZ, order, [0, 0, -12])),
                                 moved)
        assert moved.a1 == w.a1 and moved.a2 == w.a2 and moved.a3 == w.a3
        assert moved.a4 != w.a4
        g, back = ws.match_quartic_gauge(moved, w.a4)
        assert back == w
        g2, again = ws.match_quartic_gauge(back, w.a4)
        assert again == back
        assert g2 == ws.Reparam.identity_like(w.a1)

    def test_undoes_any_stabilizer(self):
        # a stabilizer built from a whole series s moves a4 at every order at once
        order = 12
        tate = ws.tate_curve(order)
        identity = ws.Reparam.identity_like(tate.a1)
        rng = random.Random(41)
        for _ in range(30):
            s = QSeries.make(ZZ, order, [0] + [6 * rng.randint(-4, 4) for _ in range(order - 1)])
            h = ws.normal_form_stabilizer(s)
            g, back = ws.match_quartic_gauge(ws.reparam_apply(h, tate), tate.a4)
            assert back == tate
            assert ws.reparam_compose(g, h) == identity

    def test_requires_normal_form(self):
        order = 3
        with pytest.raises(ValueError):
            ws.match_quartic_gauge(series_curve([[-1], [0], [0], [0], [0]], order),
                                   QSeries.zero(ZZ, order))

    def test_nonunit_stabilizer_step_rejected(self):
        # with a4(0) = 1 every stabilizer moves a4 at q^m by 1 - 48 = -47 per unit
        order = 4
        w = series_curve([[1], [0], [0], [1], [0]], order)
        with pytest.raises(InvariantError, match="^stabilizer step -47 at order 1$"):
            ws.match_quartic_gauge(w, QSeries.make(ZZ, order, [1, 1]))
        g, same = ws.match_quartic_gauge(w, w.a4)
        assert same == w
        assert g == ws.Reparam.identity_like(w.a1)


class TestLieLayer:
    def test_d_matrix_values_over_q(self):
        mat, coker, ker = ws.lie_d_matrix(QQ)
        expected = [[2, 0, 0, 0], [0, 3, 0, 0], [0, 0, 2, 0],
                    [0, 0, 0, 0], [0, 0, 0, 0]]
        assert [[int(v) for v in row] for row in mat] == expected
        assert (coker, ker) == (2, 1)

    @pytest.mark.parametrize("char,coker,ker", [(0, 2, 1), (2, 4, 3), (3, 3, 2)])
    def test_ranks_by_characteristic(self, char, coker, ker):
        fld = QQ if char == 0 else GF(char)
        matrix, got_coker, got_ker = ws.lie_d_matrix(fld)
        assert (got_coker, got_ker) == (coker, ker)
        assert len(_linalg.nullspace(matrix, fld)) == ker

    def test_vector_field_matches_hand_derivative(self):
        # the x-translation direction at the origin moves (a2, a4, a6)
        # like (3r, 3r^2, r^3); its derivative at r = 0 is (0, 3, 0, 0, 0)
        dr = ws.LieElement.of(QQ, dr=1)
        assert [int(v) for v in ws.lie_vector_field(dr, [0] * 5)] == [0, 3, 0, 0, 0]

    def test_vector_field_at_general_point(self):
        du = ws.LieElement.of(QQ, du=1)
        vec = ws.lie_vector_field(du, [1, 1, 1, 1, 1])
        assert [int(v) for v in vec] == [-1, -2, -3, -4, -6]

    def test_adjoint_eigenvalues_char0(self):
        du = ws.LieElement.of(QQ, du=1)
        a4 = ws.coeff_direction(QQ, "a4")
        a6 = ws.coeff_direction(QQ, "a6")
        assert ws.adjoint_bracket(du, a4) == [Fraction(v) for v in (0, 0, 0, -4, 0)]
        assert ws.adjoint_bracket(du, a6) == [Fraction(v) for v in (0, 0, 0, 0, -6)]

    def test_adjoint_kills_image_directions(self):
        du = ws.LieElement.of(QQ, du=1)
        mat, _, _ = ws.lie_d_matrix(QQ)
        image_of_ds = [row[0] for row in mat]
        assert ws.adjoint_bracket(du, image_of_ds) == [QQ.zero()] * 5

    def test_adjoint_requires_kernel_element(self):
        ds = ws.LieElement.of(QQ, ds=1)
        with pytest.raises(ValueError):
            ws.adjoint_bracket(ds, ws.coeff_direction(QQ, "a4"))

    @pytest.mark.parametrize("fld", [QQ, GF(2), GF(3), GF(5)], ids=repr)
    def test_bracket_is_the_matrix_commutator(self, fld):
        # oracle: xi acts on the group's defining shape as the matrix
        # [[3du, ds, dt], [0, 2du, dr], [0, 0, 0]], and [xi, eta] is the
        # commutator, decomposed back onto (ds, dr, dt, du)
        rng = random.Random(41 + fld.characteristic)

        def element():
            coords = [Fraction(rng.randint(-20, 20), rng.randint(1, 6)) if fld is QQ
                      else rng.randint(-20, 20) for _ in range(4)]
            return ws.LieElement.of(fld, *coords)

        def matrix(xi):
            z = fld.zero()
            return [[fld.mul(fld.coerce(3), xi.du), xi.ds, xi.dt],
                    [z, fld.mul(fld.coerce(2), xi.du), xi.dr], [z, z, z]]

        def commutator(xi, eta):
            a, b = matrix(xi), matrix(eta)
            c = [[fld.sub(sum(a[i][k] * b[k][j] for k in range(3)),
                          sum(b[i][k] * a[k][j] for k in range(3))) for j in range(3)]
                 for i in range(3)]
            return [c[0][1], c[1][2], c[0][2], fld.zero()]

        for _ in range(40):
            x, y, z = element(), element(), element()
            xy = ws.lie_bracket(x, y)
            assert xy.as_vector() == commutator(x, y)
            assert ws.lie_bracket(y, x).as_vector() == [fld.coerce(-v) for v in xy.as_vector()]
            jacobi = [ws.lie_bracket(x, ws.lie_bracket(y, z)),
                      ws.lie_bracket(y, ws.lie_bracket(z, x)),
                      ws.lie_bracket(z, xy)]
            assert [fld.coerce(sum(c)) for c in zip(*(e.as_vector() for e in jacobi))] \
                == [fld.zero()] * 4

    def test_matrix_brackets(self):
        ds = ws.LieElement.of(QQ, ds=1)
        dr = ws.LieElement.of(QQ, dr=1)
        dt = ws.LieElement.of(QQ, dt=1)
        du = ws.LieElement.of(QQ, du=1)
        assert ws.lie_bracket(ds, dr).as_vector() == [0, 0, Fraction(1), 0]
        assert ws.lie_bracket(dt, du).as_vector() == [0, 0, Fraction(-3), 0]
        assert ws.lie_bracket(ds, du).as_vector() == [Fraction(-1), 0, 0, 0]
        assert ws.lie_bracket(dr, du).as_vector() == [0, Fraction(-2), 0, 0]
