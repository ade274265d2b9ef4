"""Dense exact linear algebra over a field Ring (QQ or GF(p)).

Matrices are lists of row lists of raw field values.  QQ and GF(p) share one
integer elimination, ``echelon``, which never scales a pivot: its QQ rows are
primitive lists of ``int``.  ``rank`` and ``kernel`` stay integral; only
``rref``, ``nullspace`` and ``solve_right`` divide, returning QQ ``Fraction``s.

``echelon`` decides the elimination order alone: it drops zero rows and takes
the rest by first nonzero column, so a pivot row meets only rows that start at
or after its column and fills few of them.  Lemma: the order changes nothing a
caller reads.  Column c is a pivot iff it is outside the span of the columns
before it, which no row permutation changes; and the reduced rows are the
unique reduced echelon basis of the row space, each times a nonzero scalar
(+-1 over QQ, the rows being primitive).  So ``rref``, ``nullspace``,
``reduce_mod_span`` residues and the QQ ``kernel`` vectors (its formula is
invariant under a row's sign) do not depend on the order of the input rows;
over GF(p) a ``kernel`` vector may change by a nonzero scalar.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .exactnum import Ring


def _primitive(row):
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _over(row, a, ring: Ring):
    """row / a: times the inverse of a (GF(p)), or Fractions sharing one zero (QQ)."""
    p, zero = ring.characteristic, ring.zero()
    if p:
        a = pow(a, -1, p)
        return [x * a % p for x in row]
    return [Fraction(x, a) if x else zero for x in row]


def _lead(row):
    return next(c for c, x in enumerate(row) if x)


def echelon(rows, ring: Ring):
    """Reduced echelon form with unscaled pivots.  Returns (nonzero_rows, pivot_columns).

    Rows are cleared to primitive ints (QQ) or reduced mod p, zero rows are
    dropped and the rest stable-sorted by first nonzero column.  Each step then
    sets a row to a*row - b*pivot over the integers, then divides it by its gcd
    (QQ, denominators cleared unless all ``int``) or reduces it mod p.

    The sort changes no output up to a scalar per row: the pivots are the
    columns outside the span of the columns before them, and the rows are the
    unique reduced echelon basis, each times a nonzero scalar (+-1 over QQ).
    """
    p = ring.characteristic

    def integral(row):
        if all(type(x) is int for x in row):
            return _primitive(row)
        d = lcm(*[x.denominator for x in row])
        return _primitive([x.numerator * (d // x.denominator) for x in row])

    m = [[x % p for x in row] if p else integral(row) for row in rows]
    m = sorted((row for row in m if any(row)), key=_lead)
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
                        else _primitive([a * x - b * y for x, y in zip(row, prow)]))
        pivots.append(c)
    return m[: len(pivots)], pivots


def rref(rows, ring: Ring):
    """Reduced row echelon form: ``echelon`` with every pivot scaled to 1."""
    m, pivots = echelon(rows, ring)
    return [_over(row, row[c], ring) for row, c in zip(m, pivots)], pivots


def rank(rows, ring: Ring) -> int:
    return len(echelon(rows, ring)[1])


def kernel(rows, ring: Ring):
    """Basis of the right null space in integers (QQ, primitive) or residues.

    Free column f gives L at f and -row[f] * L / row[c] at each echelon pivot
    c < f, L the lcm of those row[c]: f is the vector's last nonzero entry.
    """
    red, pivots = echelon(rows, ring)
    p, ncols = ring.characteristic, len(rows[0]) if rows else 0
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[f] = lcm(*[row[c] for row, c in zip(red, pivots) if row[f]])
        for row, c in zip(red, pivots):
            v[c] = -row[f] * (v[f] // row[c])
        basis.append([x % p for x in v] if p else _primitive(v))
    return basis


def nullspace(rows, ring: Ring):
    """Basis of {x : rows . x = 0}: each ``kernel`` vector over its free coordinate."""
    return [_over(v, next(x for x in reversed(v) if x), ring) for v in kernel(rows, ring)]


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


def reduce_mod_span(span, pivots, vec, ring: Ring):
    """Residue of vec modulo the row span (given in rref or echelon form)."""
    v = list(vec)
    for row, pc in zip(span, pivots):
        if v[pc]:
            f = ring.mul(v[pc], ring.invert(row[pc]))
            v = [ring.sub(x, ring.mul(f, y)) for x, y in zip(v, row)]
    return v
