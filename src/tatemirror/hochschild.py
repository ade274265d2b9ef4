"""Hochschild cohomology of the affine cuspidal and nodal plane cubics.

The coordinate rings are K[x,y]/(f) with f = y^2 + c*x*y - x^3, c = 0 for
the cusp and c = 1 for the node.  Reducing y^2 -> x^3 - c*x*y gives every
polynomial a unique normal form with y-degree at most 1, so ideal membership
and quotient dimensions reduce to bounded-degree linear algebra on the
monomial basis {x^a y^b : b <= 1}.  Degrees are weighted with x of weight 2
and y of weight 3; for the cusp f is homogeneous of weight 6 and everything
is graded.

Even cohomology of the curve ring is carried by the Tjurina algebra
T = R/(f_x, f_y), odd cohomology by the middle homology of the two-step
complex built from (f_x, f_y); both are computed here, together with the
graded ranks of the resolution dga for the cusp.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    def poly(self, terms: dict) -> dict:
        """Coerce {(a, b): coefficient} into a clean raw-valued dict."""
        out = {}
        for mono, coeff in terms.items():
            raw = self.field.coerce(coeff)
            if raw != self.field.zero():
                out[tuple(mono)] = raw
        return out

    def f_polynomial(self) -> dict:
        return self.poly({(0, 2): 1, (1, 1): self.c, (3, 0): -1})

    def f_x(self) -> dict:
        return self.poly({(0, 1): self.c, (2, 0): -3})

    def f_y(self) -> dict:
        return self.poly({(0, 1): 2, (1, 0): self.c})

    def normal_form(self, terms: dict) -> dict:
        """Unique representative with y-degree <= 1; idempotent."""
        field = self.field
        work = dict(terms)
        out = {}
        while work:
            (a, b), coeff = work.popitem()
            if coeff == field.zero():
                continue
            if b <= 1:
                acc = field.add(out.get((a, b), field.zero()), coeff)
                if acc == field.zero():
                    out.pop((a, b), None)
                else:
                    out[(a, b)] = acc
                continue
            # y^2 = x^3 - c*x*y
            hi = (a + 3, b - 2)
            work[hi] = field.add(work.get(hi, field.zero()), coeff)
            if self.c:
                lo = (a + 1, b - 1)
                work[lo] = field.sub(work.get(lo, field.zero()), coeff)
        return out

    def add(self, p: dict, q: dict) -> dict:
        field = self.field
        out = dict(p)
        for mono, coeff in q.items():
            acc = field.add(out.get(mono, field.zero()), coeff)
            if acc == field.zero():
                out.pop(mono, None)
            else:
                out[mono] = acc
        return out

    def scale(self, p: dict, coeff) -> dict:
        raw = self.field.coerce(coeff)
        if raw == self.field.zero():
            return {}
        return {m: self.field.mul(v, raw) for m, v in p.items()}

    def mul(self, p: dict, q: dict) -> dict:
        field = self.field
        out = {}
        for (a1, b1), c1 in p.items():
            for (a2, b2), c2 in q.items():
                mono = (a1 + a2, b1 + b2)
                out[mono] = field.add(out.get(mono, field.zero()), field.mul(c1, c2))
        return self.normal_form(out)

    def monomials(self, max_weight: int):
        """Basis monomials x^a y^b, b <= 1, of weight <= max_weight."""
        out = []
        for b in (0, 1):
            a = 0
            while 2 * a + 3 * b <= max_weight:
                out.append((a, b))
                a += 1
        out.sort(key=lambda m: (weight(m), m[1]))
        return out


# -- bounded-degree quotient machinery ---------------------------------------

@dataclass
class _QuotientSlice:
    """Row-reduced span of an ideal, reported inside a weight window.

    Products are tracked in a padded window (multiplier weight bound plus the
    generator weight); with columns ordered by descending weight, an echelon
    row whose pivot lies in the reporting window is supported entirely inside
    it, so counting low pivots measures the quotient there exactly.
    """

    ring: PlaneCurveRing
    report_weight: int
    columns: list
    col_index: dict
    rref_rows: list
    pivots: list
    basis: list  # quotient monomial basis in the window, ascending weight

    @property
    def dim(self) -> int:
        return len(self.basis)

    def vectorize(self, p: dict):
        vec = [self.ring.field.zero()] * len(self.columns)
        for mono, coeff in p.items():
            if mono not in self.col_index:
                raise ValueError(f"monomial {mono} exceeds the weight window")
            vec[self.col_index[mono]] = coeff
        return vec

    def reduce(self, p: dict) -> dict:
        """Residue of p modulo the ideal span, as a monomial combination."""
        vec = self.vectorize(self.ring.normal_form(p))
        red = _linalg.reduce_mod_span(self.rref_rows, self.pivots, vec, self.ring.field)
        return {self.columns[i]: v for i, v in enumerate(red)
                if v != self.ring.field.zero()}


def _ideal_slice(ring: PlaneCurveRing, report_weight: int) -> _QuotientSlice:
    columns = list(reversed(ring.monomials(report_weight + 4)))
    col_index = {m: i for i, m in enumerate(columns)}
    gens = []
    for g in (ring.f_x(), ring.f_y()):
        if not g:
            continue
        for mono in ring.monomials(report_weight):
            prod = ring.mul({mono: ring.field.one()}, g)
            vec = [ring.field.zero()] * len(columns)
            for m, v in prod.items():
                vec[col_index[m]] = v
            gens.append(vec)
    rows, pivots = _linalg.rref(gens, ring.field)
    rows = rows[: len(pivots)]
    pivot_set = set(pivots)
    basis = [columns[i] for i in range(len(columns))
             if i not in pivot_set and weight(columns[i]) <= report_weight]
    basis.sort(key=lambda m: (weight(m), m[1]))
    return _QuotientSlice(ring, report_weight, columns, col_index, rows, pivots, basis)


def tjurina_dim(ring: PlaneCurveRing, bound: int = 10):
    """Dimension and monomial basis of T = R/(f_x, f_y).

    Uses linear algebra on monomials up to weight 2*bound, checking that the
    answer is unchanged at 2*bound + 4 (the bound-vs-bound+2 stabilization).
    """
    lo = _ideal_slice(ring, 2 * bound)
    hi = _ideal_slice(ring, 2 * bound + 4)
    if lo.dim != hi.dim:
        raise StabilizationError(
            f"Tjurina dimension moved from {lo.dim} to {hi.dim}; increase the bound")
    return lo.dim, lo.basis


def _koszul_at(ring: PlaneCurveRing, report_weight: int):
    field = ring.field
    fx, fy = ring.f_x(), ring.f_y()
    source = ring.monomials(report_weight)
    target = ring.monomials(report_weight + 4)
    tindex = {m: i for i, m in enumerate(target)}
    ncols = 2 * len(source)

    # kernel of (alpha1, alpha2) -> alpha1*f_x + alpha2*f_y on the window
    rows = [[field.zero()] * ncols for _ in target]
    for side, g in ((0, fx), (1, fy)):
        for j, mono in enumerate(source):
            prod = ring.mul({mono: field.one()}, g)
            col = side * len(source) + j
            for m, v in prod.items():
                rows[tindex[m]][col] = v
    kernel = _linalg.nullspace(rows, field)

    # span of the multiples of (f_y, -f_x), tracked in a padded pair window
    # ordered by descending weight so low pivots certify low support
    bigcols = [(side, mono) for mono in reversed(target) for side in (0, 1)]
    bigindex = {c: i for i, c in enumerate(bigcols)}
    nvecs = []
    for mono in source:
        vec = [field.zero()] * len(bigcols)
        for m, v in ring.mul({mono: field.one()}, fy).items():
            vec[bigindex[(0, m)]] = v
        for m, v in ring.scale(ring.mul({mono: field.one()}, fx), -1).items():
            vec[bigindex[(1, m)]] = v
        nvecs.append(vec)
    nrref, npivots = _linalg.rref(nvecs, field)
    nrref = nrref[: len(npivots)]
    low_pivots = sum(1 for p in npivots if weight(bigcols[p][1]) <= report_weight)
    dim = len(kernel) - low_pivots

    def embed(vec):
        big = [field.zero()] * len(bigcols)
        for i, v in enumerate(vec):
            if v != field.zero():
                side, mono = divmod(i, len(source))
                big[bigindex[(side, source[mono])]] = v
        return big

    gens = []
    span = [row[:] for row in nrref]
    span_pivots = list(npivots)
    for vec in kernel:
        red = _linalg.reduce_mod_span(span, span_pivots, embed(vec), field)
        if all(v == field.zero() for v in red):
            continue
        gens.append(vec)
        red_rows, red_pivots = _linalg.rref(span + [red], field)
        span = red_rows[: len(red_pivots)]
        span_pivots = red_pivots
    pairs = []
    for vec in gens:
        p1 = {source[i]: v for i, v in enumerate(vec[: len(source)])
              if v != field.zero()}
        p2 = {source[i]: v for i, v in enumerate(vec[len(source):])
              if v != field.zero()}
        pairs.append((p1, p2))
    return dim, pairs


def koszul_h1_dim(ring: PlaneCurveRing, bound: int = 10) -> int:
    """Dimension of ker[(a1,a2) -> a1*f_x + a2*f_y] modulo R*(f_y, -f_x)."""
    lo, _ = _koszul_at(ring, 2 * bound)
    hi, _ = _koszul_at(ring, 2 * bound + 4)
    if lo != hi:
        raise StabilizationError(
            f"middle homology moved from {lo} to {hi}; increase the bound")
    return lo


def koszul_middle_generators(ring: PlaneCurveRing, bound: int = 10):
    """Representative pairs spanning the middle homology."""
    _, pairs = _koszul_at(ring, 2 * bound)
    return pairs


def omega_pairing(ring: PlaneCurveRing, generators, bound: int = 10):
    """The skew pairing (a1,a2),(g1,g2) -> [a1*g2 - a2*g1] in T.

    Returns the matrix of values over the given middle-homology generators
    and raises VerificationFailure unless every entry vanishes.
    """
    # products of generator components can reach twice their weight bound
    tslice = _ideal_slice(ring, 4 * bound)
    field = ring.field
    matrix = []
    for (a1, a2) in generators:
        row = []
        for (g1, g2) in generators:
            val = ring.add(ring.mul(a1, g2), ring.scale(ring.mul(a2, g1), -1))
            row.append(tslice.reduce(val))
        matrix.append(row)
    for i, row in enumerate(matrix):
        for j, entry in enumerate(row):
            if entry:
                raise VerificationFailure(
                    f"skew pairing is nonzero at generator pair ({i}, {j}): {entry}")
    return matrix


# -- graded ranks of the resolution dga for the cusp --------------------------

@dataclass(frozen=True)
class GradedRankTable:
    """Ranks indexed by (cohomological degree n, internal degree s)."""

    n_max: int
    s_min: int
    ranks: dict  # (n, s) -> positive rank; zeros inside the window are absent

    def rank(self, n: int, s: int) -> int:
        if not (0 <= n <= self.n_max and self.s_min <= s <= 0):
            raise KeyError(f"bucket ({n}, {s}) outside the window")
        return self.ranks.get((n, s), 0)

    def row(self, n: int) -> dict:
        return {s: r for (m, s), r in sorted(self.ranks.items()) if m == n}

    def restrict(self, n_lo: int) -> dict:
        return {k: v for k, v in self.ranks.items() if k[0] >= n_lo}


def _weight_monomial(w: int):
    """The unique basis monomial of the given weight, if any."""
    if w == 0:
        return (0, 0)
    if w >= 2 and w % 2 == 0:
        return (w // 2, 0)
    if w >= 3 and w % 2 == 1:
        return ((w - 3) // 2, 1)
    return None


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


def _dga_matrix(ring: PlaneCurveRing, n: int, s: int):
    """Matrix of the dga differential from bidegree (n, s) to (n+1, s)."""
    field = ring.field
    src = _dga_bucket(n, s)
    dst = _dga_bucket(n + 1, s)
    dst_index = {tm: i for i, tm in enumerate(dst)}
    rows = [[field.zero()] * len(src) for _ in dst]
    fx, fy = ring.f_x(), ring.f_y()
    for j, (tag, mono) in enumerate(src):
        if tag == "beta":
            continue  # d(R*beta^k) = 0
        if tag == "xy":
            # d(b x*y*) = b f_x y* - b f_y x*
            images = [("y*", ring.mul({mono: field.one()}, fx), 1),
                      ("x*", ring.mul({mono: field.one()}, fy), -1)]
        elif tag == "x*":
            images = [("beta", ring.mul({mono: field.one()}, fx), 1)]
        else:
            images = [("beta", ring.mul({mono: field.one()}, fy), 1)]
        for dtag, poly, sgn in images:
            for m, v in poly.items():
                key = (dtag, m)
                if key in dst_index:
                    val = v if sgn == 1 else field.neg(v)
                    rows[dst_index[key]][j] = field.add(
                        rows[dst_index[key]][j], val)
                elif v != field.zero():
                    raise VerificationFailure(
                        f"differential leaves the graded bucket at {key}")
    return rows, len(src)


def cusp_graded_ranks(ring: PlaneCurveRing, n_max: int, s_min: int) -> GradedRankTable:
    """Cohomology ranks of the resolution dga of the cusp, per bidegree.

    Only the cusp carries an internal grading; node input is rejected.
    """
    if not ring.is_cusp:
        raise ValueError("graded ranks are only defined for the cusp")
    if n_max < 0 or s_min > 0:
        raise ValueError("empty window")
    field = ring.field
    ranks = {}
    for n in range(n_max + 1):
        for s in range(s_min, 1):
            d_out, src_dim = _dga_matrix(ring, n, s)
            rank_out = _linalg.rank(d_out, field)
            if n == 0:
                rank_in = 0
            else:
                d_in, _ = _dga_matrix(ring, n - 1, s)
                rank_in = _linalg.rank(d_in, field)
            h = src_dim - rank_out - rank_in
            if h < 0:
                raise VerificationFailure(f"negative rank at bucket ({n}, {s})")
            if h:
                ranks[(n, s)] = h
    return GradedRankTable(n_max, s_min, ranks)


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
