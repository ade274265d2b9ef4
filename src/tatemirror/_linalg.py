"""Exact linear algebra over a field Ring (QQ or GF(p)) on sparse rows.

A row is a dict {column: value} of its nonzero raw field values, or a list of
raw field values.  One helper, ``_dict_rows``, reads the form and converts
list rows; every function computes on dict rows and returns lists only when
given lists.  Dict rows carry no column count: ``kernel`` takes ``ncols`` for
them, and ``nullspace`` and ``solve_right`` raise.  QQ and GF(p) share one
integer elimination, ``echelon``, which never scales a pivot: its QQ rows are
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


def _dict_rows(rows) -> tuple:
    """(dict rows, width): list rows as dicts of their nonzero entries and their
    length (0 for no rows), or dict rows as they are and None."""
    if rows and isinstance(rows[0], dict):
        return rows, None
    return ([dict(zip(compress(count(), row), filter(None, row))) for row in rows],
            len(rows[0]) if rows else 0)


def _list_rows(rows: list, width, zero=0) -> list:
    """The dict rows as lists of the given width, or as they are if width is None."""
    if width is None:
        return rows
    return [[row.get(c, zero) for c in range(width)] for row in rows]


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


def _over(row: dict, a, ring: Ring) -> dict:
    """row / a: times the inverse of a (GF(p)), or Fractions (QQ)."""
    p = ring.characteristic
    if p:
        a = pow(a, -1, p)
        return {c: x * a % p for c, x in row.items()}
    return {c: Fraction(x, a) for c, x in row.items()}


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

    Each row is cleared to a primitive int row (QQ, denominators cleared
    unless all ``int``) or reduced mod p, zero rows are dropped and the rest
    are taken by leading column.  A row is reduced by the pivot rows whose
    columns it holds, and its leading column is then cleared from the earlier
    pivot rows; each step sets a row to a*row - b*pivot_row over the integers
    and divides it by its gcd (QQ) or reduces it mod p.
    """
    rows, width = _dict_rows(rows)
    p = ring.characteristic
    # a zero row needs no gcd: it is dropped below either way
    rows = (_mod(row, p) for row in rows) if p else map(_integral, filter(None, rows))
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
    return _list_rows([pivot_rows[c] for c in pivots], width), pivots


def rref(rows, ring: Ring):
    """Reduced row echelon form: ``echelon`` with every pivot scaled to 1."""
    rows, width = _dict_rows(rows)
    m, pivots = echelon(rows, ring)
    return _list_rows([_over(row, row[c], ring) for row, c in zip(m, pivots)], width,
                      ring.zero()), pivots


def rank(rows, ring: Ring) -> int:
    return len(echelon(_dict_rows(rows)[0], ring)[1])


def kernel(rows, ring: Ring, ncols=None):
    """Basis of the right null space in integers (QQ, primitive) or residues.

    Dict rows need ``ncols``, their column count; the vectors come back in
    the form of the rows.  Free column f gives L at f and
    -row[f] * L / row[c] at each echelon pivot c < f, L the lcm of those
    row[c]: f is the vector's last nonzero entry.
    """
    rows, width = _dict_rows(rows)
    ncols = width if ncols is None else ncols
    if ncols is None:
        raise ValueError("dict rows carry no column count")
    red, pivots = echelon(rows, ring)
    p, taken = ring.characteristic, set(pivots)
    basis = []
    for f in (c for c in range(ncols) if c not in taken):
        held = [(row, c) for row, c in zip(red, pivots) if f in row]
        v = {f: lcm(*[row[c] for row, c in held])}
        for row, c in held:
            v[c] = -row[f] * (v[f] // row[c])
        basis.append({c: x % p for c, x in v.items()} if p else _primitive(v))
    return _list_rows(basis, None if width is None else ncols)


def nullspace(rows, ring: Ring):
    """Basis of {x : rows . x = 0}: each ``kernel`` vector over its free
    coordinate, its last nonzero entry.  List rows only (``kernel`` raises)."""
    rows, width = _dict_rows(rows)
    return _list_rows([_over(v, v[max(v)], ring) for v in kernel(rows, ring, width)],
                      width, ring.zero())


def solve_right(rows, rhs, ring: Ring):
    """One solution x of rows . x = rhs (list rows), or None if inconsistent."""
    rows, ncols = _dict_rows(rows)
    if ncols is None:
        raise ValueError("dict rows carry no column count")
    red, pivots = rref([row | ({ncols: b} if b else {}) for row, b in zip(rows, rhs)], ring)
    if ncols in pivots:
        return None
    return _list_rows([{c: row[ncols] for row, c in zip(red, pivots) if ncols in row}],
                      ncols, ring.zero())[0]


def det(rows) -> int:
    """Integer determinant by fraction-free (Bareiss) elimination; `//` is exact."""
    m = _list_rows(_dict_rows(rows)[0], len(rows))
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
    """The columns as rows; for dict rows, up to the last column held."""
    rows, width = _dict_rows(rows)
    ncols = 1 + max(map(max, filter(None, rows)), default=-1) if width is None else width
    cols = [{} for _ in range(ncols)]
    for i, row in enumerate(rows):
        for c, x in row.items():
            cols[c][i] = x
    return _list_rows(cols, None if width is None else len(rows))


def reduce_mod_span(span, pivots, vec, ring: Ring):
    """Residue of vec modulo the row span (given in rref or echelon form),
    in the form of vec."""
    (v,), width = _dict_rows([vec])
    v = dict(v)
    for row, pc in zip(_dict_rows(span)[0], pivots):
        if pc in v:
            f = ring.mul(v[pc], ring.invert(row[pc]))
            for c, y in row.items():
                if x := ring.sub(v.get(c, 0), ring.mul(f, y)):
                    v[c] = x
                else:
                    v.pop(c, None)
    return _list_rows([v], width, ring.zero())[0]
