"""Hochschild cohomology of the affine cuspidal and nodal plane cubics.

The coordinate rings are K[x,y]/(f) with f = y^2 + c*x*y - x^3, c = 0 for
the cusp and c = 1 for the node.  Reducing y^2 -> x^3 - c*x*y gives every
polynomial a unique normal form with y-degree at most 1, so ideal membership
and quotient dimensions reduce to bounded-degree linear algebra on the
monomial basis {x^a y^b : b <= 1}; one loop, ``PlaneCurveRing._reduce``,
brings every sum and product to that form.  Degrees are weighted with x of
weight 2 and y of weight 3; for the cusp f is homogeneous of weight 6 and
everything is graded.

Over QQ a coefficient is an ``int`` wherever it is integral, so the spans and
kernels below run on ``_linalg``'s integer elimination, with every row a dict
{column: coefficient} of its few nonzero entries.

Even cohomology of the curve ring is carried by the Tjurina algebra
T = R/(f_x, f_y), odd cohomology by the middle homology of the two-step
complex built from (f_x, f_y); both are computed here, together with the
graded ranks of the cusp's resolution dga, its differential one image table.
The middle homology's generators come from one elimination of the boundary
multiples stacked ahead of the kernel pairs, and their number is its
dimension.  Each window forms its ring products m*f_x and m*f_y once.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import chain

from . import _linalg
from .errors import StabilizationError, VerificationFailure
from .exactnum import Ring

Mono = tuple  # (a, b) for x^a y^b


def weight(mono: Mono) -> int:
    a, b = mono
    return 2 * a + 3 * b


class PlaneCurveRing:
    """K[x,y]/(y^2 + c*x*y - x^3) with its y-degree <= 1 normal form."""

    def __init__(self, field: Ring, c: int):
        if not field.is_field:
            raise ValueError("coefficient ring must be a field")
        if c not in (0, 1):
            raise ValueError("curve parameter c must be 0 (cusp) or 1 (node)")
        self.field = field
        self.c = c

    def __repr__(self):
        kind = "cusp" if self.c == 0 else "node"
        return f"PlaneCurveRing({self.field!r}, {kind})"

    @property
    def is_cusp(self) -> bool:
        return self.c == 0

    def _raw(self, coeff):
        """Raw value of a coefficient; over QQ an int stays an int."""
        keep = type(coeff) is int and self.field.kind == "QQ"
        return coeff if keep else self.field.coerce(coeff)

    def poly(self, terms: dict) -> dict:
        """Coerce {(a, b): coefficient} into a clean raw-valued dict."""
        out = {}
        for mono, coeff in terms.items():
            raw = self._raw(coeff)
            if raw:
                out[tuple(mono)] = raw
        return out

    def f_x(self) -> dict:
        return self.poly({(0, 1): self.c, (2, 0): -3})

    def f_y(self) -> dict:
        return self.poly({(0, 1): 2, (1, 0): self.c})

    def _reduce(self, pairs) -> dict:
        """Sum (monomial, coefficient) pairs, a monomial possibly repeated, into
        the normal form: y^2 = x^3 - c*x*y is rewritten until y-degree <= 1."""
        add, c = self.field.add, self.c
        out, stack = {}, list(pairs)
        while stack:
            (a, b), coeff = stack.pop()
            if b > 1:  # -coeff is taken mod p where it is added
                stack.append(((a + 3, b - 2), coeff))
                if c:
                    stack.append(((a + 1, b - 1), -coeff))
            elif acc := add(out.get((a, b), 0), coeff):
                out[(a, b)] = acc
            else:
                out.pop((a, b), None)
        return out

    def normal_form(self, terms: dict) -> dict:
        """Unique representative with y-degree <= 1; idempotent."""
        return self._reduce(terms.items())

    def add(self, p: dict, q: dict) -> dict:
        return self._reduce(chain(p.items(), q.items()))

    def scale(self, p: dict, coeff) -> dict:
        raw = self._raw(coeff)
        if not raw:
            return {}
        return {m: self.field.mul(v, raw) for m, v in p.items()}

    def mul(self, p: dict, q: dict) -> dict:
        mul = self.field.mul
        return self._reduce(((a1 + a2, b1 + b2), mul(c1, c2))
                            for (a1, b1), c1 in p.items() for (a2, b2), c2 in q.items())

    def monomials(self, max_weight: int):
        """Basis monomials x^a y^b, b <= 1, of weight <= max_weight, by ascending
        weight: there is one of each weight other than 1."""
        return [m for w in range(max_weight + 1) if (m := _weight_monomial(w))]


# -- bounded-degree quotient machinery ---------------------------------------

def _vector(index: dict, element) -> dict:
    """Coordinates {column: coefficient} of an element of R^k; column (side, mono)
    holds one coefficient."""
    vec = {}
    for side, comp in enumerate(element):
        for mono, coeff in comp.items():
            if (side, mono) not in index:
                raise ValueError(f"monomial {mono} exceeds the weight window")
            vec[index[(side, mono)]] = coeff
    return vec


def _columns(ring: PlaneCurveRing, report_weight: int, k: int) -> list:
    """Columns (side, mono) of R^k in the padded window, by descending weight."""
    return [(side, m) for m in reversed(ring.monomials(report_weight + 4))
            for side in range(k)]


def _multiples(ring: PlaneCurveRing, source) -> tuple:
    """[m*f_x for m in source] and [m*f_y for m in source]: a window's ring products."""
    fx, fy = ring.f_x(), ring.f_y()
    return [ring.mul({m: 1}, fx) for m in source], [ring.mul({m: 1}, fy) for m in source]


class _Span:
    """Row-reduced span of the multiples of f_x and f_y in a weight window.

    Multipliers run up to report_weight and products are tracked in the window
    padded by the generator weight 4; with columns ordered by descending weight,
    an echelon row whose pivot lies in the reporting window is supported
    entirely inside it, so the non-pivot reporting columns span the quotient.
    """

    def __init__(self, ring: PlaneCurveRing, report_weight: int):
        self.ring = ring
        self.report_weight = report_weight
        self.columns = _columns(ring, report_weight, 1)
        self.index = {c: i for i, c in enumerate(self.columns)}
        mx, my = _multiples(ring, ring.monomials(report_weight))
        rows = [_vector(self.index, [prod]) for prod in mx + my]
        self.rows, self.pivots = _linalg.echelon(rows, ring.field)

    def basis(self) -> list:
        """Monomials of the non-pivot reporting columns, ascending weight: the
        columns reversed."""
        pivots = set(self.pivots)
        return [m for i, (_, m) in enumerate(self.columns)
                if i not in pivots and weight(m) <= self.report_weight][::-1]

    def reduce(self, p: dict) -> dict:
        """Residue of the polynomial p modulo the span."""
        vec = _vector(self.index, [self.ring.normal_form(p)])
        red = _linalg.reduce_mod_span(self.rows, self.pivots, vec, self.ring.field)
        return {self.columns[i][1]: red[i] for i in sorted(red)}


def tjurina_dim(ring: PlaneCurveRing, bound: int = 10):
    """Dimension and monomial basis of T = R/(f_x, f_y).

    Uses linear algebra on monomials up to weight 2*bound, checking that the
    answer is unchanged at 2*bound + 4 (the bound-vs-bound+2 stabilization).
    """
    lo = _Span(ring, 2 * bound).basis()
    hi = _Span(ring, 2 * bound + 4).basis()
    if len(lo) != len(hi):
        raise StabilizationError(
            f"Tjurina dimension moved from {len(lo)} to {len(hi)}; increase the bound")
    return len(lo), lo


def _koszul_at(ring: PlaneCurveRing, report_weight: int) -> list:
    """Generating pairs of the middle homology from the window report_weight.

    The kernel pairs K of (a1, a2) -> a1*f_x + a2*f_y, supported in weights
    <= report_weight, are stacked behind the boundary multiples m*(f_y, -f_x),
    m of weight <= report_weight; one echelon of the transposed stack keeps
    the pairs independent of the boundary and of the pairs before them.

    Lemma: their number is dim K - dim(B ∩ K), B the span of the boundary
    multiples, and every boundary multiple is a syzygy, so B ∩ K is the part
    of B supported in the window: the count is the dimension of the middle
    homology in the window, with nothing left to subtract.
    """
    source = ring.monomials(report_weight)
    mx, my = _multiples(ring, source)
    # kernel of (alpha1, alpha2) -> alpha1*f_x + alpha2*f_y on the window
    half = len(source)
    index = {c: i for i, c in enumerate(_columns(ring, report_weight, 1))}
    matrix = _linalg.transpose([_vector(index, [prod]) for prod in mx + my])
    kernel = [({source[i]: v for i, v in sorted(vec.items()) if i < half},
               {source[i - half]: v for i, v in sorted(vec.items()) if i >= half})
              for vec in _linalg.kernel(matrix, ring.field, 2 * half)]
    index = {c: i for i, c in enumerate(_columns(ring, report_weight, 2))}
    boundary = [_vector(index, [py, ring.scale(px, -1)]) for px, py in zip(mx, my)]
    stack = boundary + [_vector(index, pair) for pair in kernel]
    _, pivots = _linalg.echelon(_linalg.transpose(stack), ring.field)
    return [kernel[c - half] for c in pivots if c >= half]


def koszul_h1_dim(ring: PlaneCurveRing, bound: int = 10):
    """Dimension and generating pairs of ker[(a1,a2) -> a1*f_x + a2*f_y]
    modulo R*(f_y, -f_x).

    The pairs come from the window 2*bound, and their number is checked to be
    unchanged at 2*bound + 4 (the same stabilization as tjurina_dim).
    """
    pairs = _koszul_at(ring, 2 * bound)
    lo, hi = len(pairs), len(_koszul_at(ring, 2 * bound + 4))
    if lo != hi:
        raise StabilizationError(
            f"middle homology moved from {lo} to {hi}; increase the bound")
    return lo, pairs


def omega_pairing(ring: PlaneCurveRing, generators):
    """The skew pairing (a1,a2),(g1,g2) -> [a1*g2 - a2*g1] in T.

    Returns the matrix of values over the given middle-homology generators
    and raises VerificationFailure unless every entry vanishes.
    """
    values = [[ring.add(ring.mul(a1, g2), ring.scale(ring.mul(a2, g1), -1))
               for (g1, g2) in generators] for (a1, a2) in generators]
    # the window only has to hold the values themselves
    tslice = _Span(ring, max((weight(m) for row in values for val in row
                              for m in val), default=0))
    matrix = [[tslice.reduce(val) for val in row] for row in values]
    for i, row in enumerate(matrix):
        for j, entry in enumerate(row):
            if entry:
                raise VerificationFailure(
                    f"skew pairing is nonzero at generator pair ({i}, {j}): {entry}")
    return matrix


# -- graded ranks of the resolution dga for the cusp --------------------------

@dataclass(frozen=True)
class GradedRankTable:
    """Ranks indexed by (cohomological degree n, internal degree s).

    ``square_defects`` counts the nonzero entries of d(n, s)*d(n-1, s) over
    the window: 0 exactly when the differential squares to zero there.
    """

    n_max: int
    s_min: int
    ranks: dict  # (n, s) -> positive rank; zeros inside the window are absent
    square_defects: int = 0

    def rank(self, n: int, s: int) -> int:
        if not (0 <= n <= self.n_max and self.s_min <= s <= 0):
            raise KeyError(f"bucket ({n}, {s}) outside the window")
        return self.ranks.get((n, s), 0)

    def row(self, n: int) -> dict:
        return {s: r for (m, s), r in sorted(self.ranks.items()) if m == n}


def _weight_monomial(w: int):
    """The unique basis monomial of the given weight, if any: y carries the odd part."""
    b = w % 2
    return ((w - 3 * b) // 2, b) if w >= 3 * b else None


def _dga_bucket(n: int, s: int):
    """Component monomials of the resolution dga in bidegree (n, s).

    Even pieces are R*beta^k + R*beta^(k-1)*x*y*, odd pieces
    R*beta^k*x* + R*beta^k*y*; the generators x*, y*, beta carry internal
    degrees -2, -3, -6.
    """
    k, parity = divmod(n, 2)
    if parity == 0:
        comps = [("beta", _weight_monomial(s + 6 * k))]
        if k >= 1:
            comps.append(("xy", _weight_monomial(s + 6 * k - 1)))
    else:
        comps = [("x*", _weight_monomial(s + 6 * k + 2)),
                 ("y*", _weight_monomial(s + 6 * k + 3))]
    return [(tag, m) for tag, m in comps if m is not None]


def _dga_images(ring: PlaneCurveRing) -> dict:
    """The dga differential as data: component tag -> ((target tag, factor), ...).

    d(b*beta^k) = 0, d(b*x*) = b*f_x*beta, d(b*y*) = b*f_y*beta and
    d(b*x*y*) = b*f_x*y* - b*f_y*x*; no tag has two images under one target tag.
    """
    fx, fy = ring.f_x(), ring.f_y()
    return {"beta": (), "x*": (("beta", fx),), "y*": (("beta", fy),),
            "xy": (("y*", fx), ("x*", ring.scale(fy, -1)))}


def _dga_matrix(ring: PlaneCurveRing, images: dict, n: int, s: int):
    """Matrix of the dga differential from (n, s) to (n+1, s), read off ``images``."""
    src = _dga_bucket(n, s)
    dst_index = {tm: i for i, tm in enumerate(_dga_bucket(n + 1, s))}
    rows = [[0] * len(src) for _ in dst_index]
    for j, (tag, mono) in enumerate(src):
        for dtag, factor in images[tag]:
            for m, v in ring.mul({mono: 1}, factor).items():
                i = dst_index.get((dtag, m))
                if i is None:
                    raise VerificationFailure(
                        f"differential leaves the graded bucket at {(dtag, m)}")
                rows[i][j] = v
    return rows, len(src)


def cusp_graded_ranks(ring: PlaneCurveRing, n_max: int, s_min: int) -> GradedRankTable:
    """Cohomology ranks of the resolution dga of the cusp, per bidegree.

    Each d(n, s) is multiplied by the d(n-1, s) carried from the row before,
    and the table counts the nonzero entries of these composites as its
    ``square_defects``.  Only the cusp carries an internal grading; node
    input is rejected.
    """
    if not ring.is_cusp:
        raise ValueError("graded ranks are only defined for the cusp")
    if n_max < 0 or s_min > 0:
        raise ValueError("empty window")
    field = ring.field
    images = _dga_images(ring)
    ranks = {}
    # s -> the differential into row n and its rank, carried from row n - 1
    d_in, rank_in = {}, {}
    defects = 0
    for n in range(n_max + 1):
        for s in range(s_min, 1):
            d_out, src_dim = _dga_matrix(ring, images, n, s)
            rank_out = _linalg.rank(d_out, field)
            h = src_dim - rank_out - rank_in.get(s, 0)
            defects += sum(1 for row in d_out for col in zip(*d_in.get(s, ()))
                           if field.coerce(sum(map(operator.mul, row, col))))
            d_in[s], rank_in[s] = d_out, rank_out
            if h < 0:
                raise VerificationFailure(f"negative rank at bucket ({n}, {s})")
            if h:
                ranks[(n, s)] = h
    return GradedRankTable(n_max, s_min, ranks, defects)


def predicted_cusp_table(char: int, n_max: int, s_min: int) -> GradedRankTable:
    """Ranks of T[beta, gamma] in the window, from the closed-form answer.

    T is spanned by 1, x (any characteristic away from 2 and 3), by
    1, x, x^2 in characteristic 3, and by 1, x, y, xy in characteristic 2;
    beta has bidegree (2, -6) and gamma bidegree (1, s_gamma) with s_gamma
    equal to 0, -2, -3 in the respective cases.
    """
    if char == 2:
        t_weights = [0, 2, 3, 5]
        s_gamma = -3
    elif char == 3:
        t_weights = [0, 2, 4]
        s_gamma = -2
    else:
        t_weights = [0, 2]
        s_gamma = 0
    ranks = {}
    for k in range(n_max // 2 + 1):
        for e in (0, 1):
            n = 2 * k + e
            if n > n_max:
                continue
            for wt in t_weights:
                s = wt - 6 * k + e * s_gamma
                if s_min <= s <= 0:
                    ranks[(n, s)] = ranks.get((n, s), 0) + 1
    return GradedRankTable(n_max, s_min, ranks)
