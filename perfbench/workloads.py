"""Inputs and verified operations of the four benchmark workloads.

Every workload turns a seed into a list of ``(key, args)`` ops in visiting
order; ``key`` is the op's index in the workload's canonical (unshuffled)
input list, so the same op can be matched across runs.  ``run_op`` computes
one op through the package's public functions, checks its output exactly and
returns the work it did; a wrong value raises ``WrongOutput``.

The work is the same at every seed: the seed only shuffles the visiting
order and, on ``assoc``, draws the basis points.  ``EXPECTED_WORK`` is the
full work of one pass; a pass that did less fails the benchmark, so speed
can never come from a smaller grid, a lower order or fewer cases.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from tatemirror import cli, fukaya, lattice, theta, weierstrass
from tatemirror.theta import ThetaElement

# grid: criteria 1 and 2 of the acceptance tests
GRID_MAX_DEGREE = 12
GRID_EXPONENT_CAP = 12
GRID_ORDER = 10

# assoc: criterion 8d's distribution (degrees 1..5 summing to at most 9,
# orders 1..10, uniform basis points), stratified so that every degree
# triple appears at five orders and every order equally often
ASSOC_MAX_DEGREE = 5
ASSOC_DEGREE_SUM = 9
ASSOC_ORDERS = 10
ASSOC_ORDERS_PER_TRIPLE = 5

MIRROR_LADDER = (8, 16, 32, 48, 64)

HOCHSCHILD_CHARS = (0, 2, 3, 5)
HOCHSCHILD_BOUNDS = (10, 14)  # the default bound and a larger one
LIE_CHARS = (0, 2, 3)
# checks per suite at the time the benchmark was defined; fewer is a vacuous pass
HOCHSCHILD_MIN_CHECKS = 13
LIE_MIN_CHECKS = 5

EXPECTED_WORK = {
    "grid": {"pairs": 1001, "triangles": 7435},
    "assoc": {"triples": 360},
    "mirror": {"orders": len(MIRROR_LADDER)},
    "hochschild": {"suites": len(HOCHSCHILD_CHARS) * len(HOCHSCHILD_BOUNDS)
                   + len(LIE_CHARS)},
}


class WrongOutput(Exception):
    """An op computed a value that differs from its exact expectation."""


def _grid_inputs(rng):
    return [(n1, m1, n2, m2)
            for n1 in range(1, GRID_MAX_DEGREE)
            for n2 in range(1, GRID_MAX_DEGREE + 1 - n1)
            for m1 in range(n1) for m2 in range(n2)]


def _grid_op(n1, m1, n2, m2):
    """Three-way count equality on every shift, then the product identity."""
    p1, p2 = Fraction(m1, n1), Fraction(m2, n2)
    triangles = 0
    for j in theta.j_range(n1, p1, n2, p2, GRID_EXPONENT_CAP + 1):
        lam = theta.lambda_exp(n1, p1, n2, p2 + j)
        if lam > GRID_EXPONENT_CAP:
            continue
        count = lattice.count_perturbed(n1, p1, n2, p2 + j)
        row = lattice.row_formula_count(n1, p1, n2, p2 + j)
        if not count == row == lam:
            raise WrongOutput(f"counts {count}, {row}, {lam} at ({n1},{p1};{n2},{p2 + j})")
        triangles += 1
    flo = fukaya.floer_product(n1, p1, n2, p2, GRID_ORDER)
    sec = theta.theta_mul(ThetaElement.basis(n1, p1, GRID_ORDER),
                          ThetaElement.basis(n2, p2, GRID_ORDER))
    if flo.degree != sec.degree or flo.coeffs != sec.coeffs:
        raise WrongOutput(f"floer_product != theta_mul at ({n1},{p1};{n2},{p2})")
    return {"pairs": 1, "triangles": triangles}


def _assoc_inputs(rng):
    triples = [d for d in itertools.product(range(1, ASSOC_MAX_DEGREE + 1), repeat=3)
               if sum(d) <= ASSOC_DEGREE_SUM]
    stride = ASSOC_ORDERS // ASSOC_ORDERS_PER_TRIPLE
    return [(degs, tuple(Fraction(rng.randrange(n), n) for n in degs),
             1 + (i + stride * k) % ASSOC_ORDERS)
            for i, degs in enumerate(triples) for k in range(ASSOC_ORDERS_PER_TRIPLE)]


def _assoc_op(degs, points, order):
    """(ab)c == a(bc) on the Floer side and on the section side."""
    fa, fb, fc = (fukaya.FloerElement.basis(n, p, order) for n, p in zip(degs, points))
    if fukaya.floer_mul(fukaya.floer_mul(fa, fb), fc) != \
            fukaya.floer_mul(fa, fukaya.floer_mul(fb, fc)):
        raise WrongOutput(f"floer_mul not associative at {degs} {points} order {order}")
    ta, tb, tc = (ThetaElement.basis(n, p, order) for n, p in zip(degs, points))
    if theta.theta_mul(theta.theta_mul(ta, tb), tc) != \
            theta.theta_mul(ta, theta.theta_mul(tb, tc)):
        raise WrongOutput(f"theta_mul not associative at {degs} {points} order {order}")
    return {"triples": 1}


def _mirror_inputs(rng):
    return [(order,) for order in MIRROR_LADDER]


def _mirror_op(order):
    if fukaya.seidel_mirror(order) != weierstrass.tate_curve(order):
        raise WrongOutput(f"seidel_mirror({order}) != tate_curve({order})")
    return {"orders": 1}


def _hochschild_inputs(rng):
    return ([("hochschild", char, bound)
             for bound in HOCHSCHILD_BOUNDS for char in HOCHSCHILD_CHARS]
            + [("lie", char, None) for char in LIE_CHARS])


def _hochschild_op(suite, char, bound):
    if suite == "hochschild":
        report = cli.run_hochschild_suite(char, bound=bound)
        min_checks = HOCHSCHILD_MIN_CHECKS
    else:
        report = cli.run_lie_suite(char)
        min_checks = LIE_MIN_CHECKS
    failed = [c.id for c in report.checks if c.status != "pass"]
    if failed or len(report.checks) < min_checks:
        raise WrongOutput(f"{suite} char {char} bound {bound}: {len(report.checks)} "
                          f"checks, failed {failed}")
    return {"suites": 1}


WORKLOADS = {
    "grid": (_grid_inputs, _grid_op),
    "assoc": (_assoc_inputs, _assoc_op),
    "mirror": (_mirror_inputs, _mirror_op),
    "hochschild": (_hochschild_inputs, _hochschild_op),
}


def make_ops(workload: str, seed: int):
    """The workload's ops as (key, args) pairs, in seed-shuffled order."""
    rng = random.Random(seed)
    ops = list(enumerate(WORKLOADS[workload][0](rng)))
    rng.shuffle(ops)
    return ops


def run_op(workload: str, args):
    """Compute and verify one op; returns its work counts."""
    return WORKLOADS[workload][1](*args)
