"""Counting perturbed lattice points in product triangles.

A perturbed lattice point is a point congruent to (eps, eps) mod Z^2 for an
infinitesimal eps > 0.  Every edge has integer slope, so which side of it a
perturbed point lies on is decided on integers (see ``count_perturbed``), and
no boundary case ever depends on a numeric epsilon.  These counts are the
independent oracle for the q-exponents of the section ring and the Floer
products.

``count_perturbed`` is the production kernel: it reads each point once, by
``as_integer_ratio()`` (an int or a Fraction), clears denominators once and
sums the columns in closed form on integer vertices only.
``row_formula_count`` is an independent oracle, a closed formula over the rows
on the same cleared integers, read the same way, that shares no code with it.
The point-by-point Fraction scan with a symbolic eps lives beside the tests,
in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from fractions import Fraction


def _column_sum(slope: int, offset: int, first: int, stop: int) -> int:
    """Sum of slope*a + offset over the columns first <= a < stop."""
    return slope * (first + stop - 1) * (stop - first) // 2 + offset * (stop - first)


def count_perturbed(n1: int, p1, n2: int, p2) -> int:
    """Number of perturbed lattice points strictly inside the triangle.

    The edges lie on y = 0, on y = -n1*(x - p1) and on y = -n3*(x - mean)
    with n3 = n1 + n2, all of integer slope.  The column through a + eps
    meets the triangle when a + eps lies strictly between p1 and p2; a point
    (a + eps, b + eps) on a sloped line y = -n*(x - c) moves to the side
    y > -n*(x - c) by (1 + n)*eps, so that edge's tie is decided without
    any eps arithmetic: b >= ceil(n*c) - n*a is above it, b <= ceil(n*c) -
    1 - n*a below it.  Each column therefore holds an integer interval
    whose length is linear in a on either side of the mean, and the count
    is two arithmetic sums, one column range each.  With p1 = a1/d1,
    p2 = a2/d2 and den = lcm(d1, d2)*(n1 + n2), the points scaled by den
    are integers u1, u2 and w = (n1*u1 + n2*u2)/n3, so every ceiling is one
    integer division.  Degenerate triangles count zero.
    """
    if n1 < 1 or n2 < 1:
        raise ValueError("degrees must be positive")
    a1, d1 = p1.as_integer_ratio()
    a2, d2 = p2.as_integer_ratio()
    n3 = n1 + n2
    den = math.lcm(d1, d2) * n3
    u1, u2 = a1 * (den // d1), a2 * (den // d2)
    if u1 == u2:
        return 0
    v = n1 * u1 + n2 * u2  # den * n3 * mean
    c1 = -(-n1 * u1 // den)  # ceil(n1 * p1)
    c3 = -(-v // den)  # ceil(n3 * mean)
    mid = -(-(v // n3) // den)  # ceil(mean): the first column with a + eps > mean
    if u1 < u2:
        # apex below: above the p1 edge; under y = 0 left of the mean, under
        # the mean edge right of it
        first, stop = -(-u1 // den), -(-u2 // den)
        return (_column_sum(n1, -c1, first, mid)
                + _column_sum(-n2, c3 - c1, mid, stop))
    # apex above: under the p1 edge; over the mean edge left of the mean,
    # over y = 0 right of it
    first, stop = -(-u2 // den), -(-u1 // den)
    return (_column_sum(n2, c1 - c3, first, mid)
            + _column_sum(-n1, c1, mid, stop))


def _row_count(n: int, q: int, R: int, P: int, q2: int, D: int) -> int:
    """2*D times the perturbed points in the right triangle over [p, p2]
    under slope -n, for p = P/D = q + R/(n*D) and q2 = floor(p2).

    Closed form from counting rows, with the trapezium to the right of
    x = q2 shaved off and its strip count n*(q2 - p) added back.
    """
    return (D * n * q * q + D * n * q2 * q2 + 2 * R * q
            - 2 * D * n * q * q2 - 2 * R * q2 - D * n * q2
            + D * n * q + 2 * R + 2 * (D * n * q2 - n * P))


def row_formula_count(n1: int, p1, n2: int, p2) -> int:
    """The row-by-row closed-form count for the triangle of count_perturbed.

    Splits each point as p = q + r/n with q integral and 0 <= r < n, applies
    the closed formula to the outer right triangle and to the inner one cut
    off by the steeper slope, and returns the difference.  On integers: with
    p1 = a1/d1, p2 = a2/d2 and D = lcm(d1, d2)*(n1 + n2), each point scaled by
    D is an integer P, q = P // D and R = n*(P - q*D) = D*r, so 2*D times each
    closed form is an integer polynomial and the count is one exact division
    by 2*D.  Takes ints or Fractions.
    """
    if n1 < 1 or n2 < 1:
        raise ValueError("degrees must be positive")
    a1, d1 = p1.as_integer_ratio()
    a2, d2 = p2.as_integer_ratio()
    n3 = n1 + n2
    D = math.lcm(d1, d2) * n3
    P1, P2 = a1 * (D // d1), a2 * (D // d2)
    P3 = (n1 * P1 + n2 * P2) // n3
    q1, q2, q3 = P1 // D, P2 // D, P3 // D

    total = (_row_count(n1, q1, n1 * (P1 - q1 * D), P1, q2, D)
             - _row_count(n3, q3, n3 * (P3 - q3 * D), P3, q2, D))
    count, rem = divmod(total, 2 * D)
    if rem:
        raise ValueError(f"non-integral count {Fraction(total, 2 * D)}; "
                         "inputs not in (1/n)Z")
    return count
