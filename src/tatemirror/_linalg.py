"""Exact linear algebra over a field Ring (QQ or GF(p)) on sparse rows.

A row is a dict {column: value} of its nonzero raw field values, or a list of
raw field values.  List rows are converted on entry and the results come back
as lists, so dense callers keep their calls.  QQ and GF(p) share one integer
elimination, ``echelon``, which never scales a pivot: its QQ rows are
primitive rows of ``int``.  ``rank`` and ``kernel`` stay integral; only
``rref``, ``nullspace`` and ``solve_right`` divide, returning QQ ``Fraction``s.

``echelon`` takes the rows by leading column and adds them one at a time
(incremental Gauss-Jordan): a row is reduced by the pivot rows whose columns
it holds, becomes a pivot row at its leading column, and that column is
cleared from the earlier pivot rows.  Lemma: a set of rows with distinct
leading columns, each leading column zero in every other row, is the reduced
echelon basis of its span up to one nonzero scalar per row (+-1 over QQ, the
rows being primitive), because the reduced echelon basis is unique.  So the
pivots, ``rref``, ``nullspace``, ``reduce_mod_span`` residues and the QQ
``kernel`` vectors (its formula is invariant under a row's sign) do not
depend on the order of the steps; over GF(p) a ``kernel`` vector may change
by a nonzero scalar.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress, count
from math import gcd, lcm

from .exactnum import Ring


def _sparse(row) -> dict:
    """{column: value} of a list row's nonzero entries."""
    return dict(zip(compress(count(), row), filter(None, row)))


def _dense(row: dict, ncols: int, zero=0) -> list:
    return [row.get(c, zero) for c in range(ncols)]


def _primitive(row: dict) -> dict:
    g = gcd(*row.values())
    return {c: x // g for c, x in row.items()} if g > 1 else row


def _mod(row: dict, p: int) -> dict:
    return {c: r for c, x in row.items() if (r := x % p)}


def _integral(row: dict) -> dict:
    """The primitive integer row on the line of a QQ row."""
    if all(type(x) is int for x in row.values()):
        return _primitive(row)
    d = lcm(*[x.denominator for x in row.values()])
    return _primitive({c: x.numerator * (d // x.denominator) for c, x in row.items()})


def _over(row, a, ring: Ring):
    """row / a: times the inverse of a (GF(p)), or Fractions sharing one zero (QQ)."""
    p, zero = ring.characteristic, ring.zero()
    if p:
        a = pow(a, -1, p)
        return [x * a % p for x in row]
    return [Fraction(x, a) if x else zero for x in row]


def _clear(row: dict, prow: dict, c: int, p: int) -> dict:
    """a*row - b*prow with column c cleared: zeros dropped, then reduced mod p
    or divided by its gcd (QQ)."""
    g = gcd(prow[c], row[c])
    a, b = prow[c] // g, row[c] // g
    out = {k: a * x for k, x in row.items()}
    for k, y in prow.items():
        out[k] = out.get(k, 0) - b * y
    return _mod(out, p) if p else _primitive({k: x for k, x in out.items() if x})


def echelon(rows, ring: Ring):
    """Reduced echelon form with unscaled pivots.  Returns (nonzero_rows, pivot_columns).

    Rows are dicts {column: value} or lists; list rows come back as lists.
    Each row is cleared to a primitive int row (QQ, denominators cleared
    unless all ``int``) or reduced mod p, zero rows are dropped and the rest
    are taken by leading column.  A row is reduced by the pivot rows whose
    columns it holds, and its leading column is then cleared from the earlier
    pivot rows; each step sets a row to a*row - b*pivot_row over the integers
    and divides it by its gcd (QQ) or reduces it mod p.
    """
    p = ring.characteristic
    ncols = None if not rows or isinstance(rows[0], dict) else len(rows[0])
    if ncols is not None:
        rows = map(_sparse, rows)
    rows = (_mod(row, p) for row in rows) if p else map(_integral, rows)
    pivot_rows = {}  # pivot column -> its row
    for row in sorted(filter(None, rows), key=min):
        # a pivot row holds no other pivot column, so no step brings one back
        for c in [c for c in row if c in pivot_rows]:
            row = _clear(row, pivot_rows[c], c, p)
        if row:
            lead = min(row)
            for c, prow in pivot_rows.items():
                if lead in prow:
                    pivot_rows[c] = _clear(prow, row, lead, p)
            pivot_rows[lead] = row
    pivots = sorted(pivot_rows)
    red = [pivot_rows[c] for c in pivots]
    return ([_dense(row, ncols) for row in red] if ncols is not None else red), pivots


def rref(rows, ring: Ring):
    """Reduced row echelon form: ``echelon`` with every pivot scaled to 1."""
    m, pivots = echelon(rows, ring)
    return [_over(row, row[c], ring) for row, c in zip(m, pivots)], pivots


def rank(rows, ring: Ring) -> int:
    return len(echelon(rows, ring)[1])


def kernel(rows, ring: Ring, ncols=None):
    """Basis of the right null space in integers (QQ, primitive) or residues.

    Rows are lists, or dicts {column: value} over ``ncols`` columns; the
    vectors come back in the same form.  Free column f gives L at f and
    -row[f] * L / row[c] at each echelon pivot c < f, L the lcm of those
    row[c]: f is the vector's last nonzero entry.
    """
    dense = ncols is None
    if dense:
        ncols = len(rows[0]) if rows else 0
        rows = [_sparse(row) for row in rows]
    red, pivots = echelon(rows, ring)
    p, taken = ring.characteristic, set(pivots)
    basis = []
    for f in (c for c in range(ncols) if c not in taken):
        held = [(row, c) for row, c in zip(red, pivots) if f in row]
        v = {f: lcm(*[row[c] for row, c in held])}
        for row, c in held:
            v[c] = -row[f] * (v[f] // row[c])
        v = {c: x % p for c, x in v.items()} if p else _primitive(v)
        basis.append(_dense(v, ncols) if dense else v)
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
    """Residue of vec modulo the row span (given in rref or echelon form).

    ``span`` and ``vec`` are dicts {column: value}, or lists; a list vec
    comes back as a list.
    """
    dense = isinstance(vec, list)
    if dense:
        span = map(_sparse, span)
    v = _sparse(vec) if dense else dict(vec)
    for row, pc in zip(span, pivots):
        if pc in v:
            f = ring.mul(v[pc], ring.invert(row[pc]))
            for c, y in row.items():
                if x := ring.sub(v.get(c, 0), ring.mul(f, y)):
                    v[c] = x
                else:
                    v.pop(c, None)
    return _dense(v, len(vec), ring.zero()) if dense else v
