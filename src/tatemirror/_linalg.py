"""Dense exact linear algebra over a field Ring (QQ or GF(p)).

Matrices are lists of row lists of raw field values.  QQ and GF(p) share one
integer elimination; only its finished pivot rows become field values again.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .exactnum import Ring


def rref(rows, ring: Ring):
    """Reduced row echelon form.  Returns (nonzero_rows, pivot_columns).

    Each step sets a row to a*row - b*pivot over the integers, then divides it
    by its gcd (QQ, after clearing denominators) or reduces it mod p (GF(p)).
    """
    p = ring.p if ring.kind == "GF" else 0

    def primitive(row):
        g = gcd(*row)
        return [x // g for x in row] if g > 1 else row

    def integral(row):
        d = lcm(*[x.denominator for x in row])
        return primitive([x.numerator * (d // x.denominator) for x in row])

    m = [[x % p for x in row] if p else integral(row) for row in rows]
    pivots = []
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        prow = m[r]
        for i, row in enumerate(m):
            if i != r and row[c]:
                g = gcd(prow[c], row[c])
                a, b = prow[c] // g, row[c] // g
                m[i] = ([(a * x - b * y) % p for x, y in zip(row, prow)] if p
                        else primitive([a * x - b * y for x, y in zip(row, prow)]))
        pivots.append(c)
    for r, c in enumerate(pivots):  # GF(p): times the inverse; QQ: over the pivot
        a = pow(m[r][c], -1, p) if p else m[r][c]
        m[r] = [x * a % p for x in m[r]] if p else [Fraction(x, a) for x in m[r]]
    return m[: len(pivots)], pivots


def rank(rows, ring: Ring) -> int:
    return len(rref(rows, ring)[1])


def nullspace(rows, ring: Ring):
    """Basis of the right null space {x : rows . x = 0}."""
    if not rows:
        return []
    ncols = len(rows[0])
    red, pivots = rref(rows, ring)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [ring.zero()] * ncols
        v[fc] = ring.one()
        for i, pc in enumerate(pivots):
            v[pc] = ring.neg(red[i][fc])
        basis.append(v)
    return basis


def solve_right(rows, rhs, ring: Ring):
    """One solution x of rows . x = rhs, or None if inconsistent."""
    if not rows:
        return None if any(b != ring.zero() for b in rhs) else []
    ncols = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = rref(aug, ring)
    if ncols in pivots:
        return None
    x = [ring.zero()] * ncols
    for i, pc in enumerate(pivots):
        x[pc] = red[i][ncols]
    return x


def det(rows) -> int:
    """Integer determinant by fraction-free (Bareiss) elimination; `//` is exact."""
    m = [list(row) for row in rows]
    n, sign, prev = len(m), 1, 1
    for k in range(n - 1):
        if not m[k][k]:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap], sign = m[swap], m[k], -sign
        for i in range(k + 1, n):
            m[i] = m[i][:k + 1] + [(m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
                                   for j in range(k + 1, n)]
        prev = m[k][k]
    return sign * m[-1][-1] if n else 1


def transpose(rows):
    return [list(col) for col in zip(*rows)] if rows else []


def reduce_mod_span(span_rref, pivots, vec, ring: Ring):
    """Residue of vec modulo the row span (given in rref form)."""
    v = list(vec)
    for row, pc in zip(span_rref, pivots):
        f = v[pc]
        if f != ring.zero():
            v = [ring.sub(x, ring.mul(f, y)) for x, y in zip(v, row)]
    return v
