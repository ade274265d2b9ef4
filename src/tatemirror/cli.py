"""Batch verification commands producing machine-readable reports.

Each subcommand runs one verification suite and writes a single JSON
document: one object per check with fields {id, anchor, status, expected,
actual}, plus the suite name, parameters and wall-clock duration.  The
process exits 0 only if every check passed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import fukaya, hochschild, lattice, theta, weierstrass
from .errors import VerificationFailure
from .exactnum import QSeries, ring_of_characteristic


def _ser(value):
    """Serialize exact values as decimal strings, recursively."""
    if isinstance(value, QSeries):
        return [_ser(c) for c in value.coeffs]
    if isinstance(value, (int, Fraction)):
        return str(value)
    if isinstance(value, str):
        return value
    if isinstance(value, dict):
        return [[_ser(k), _ser(v)] for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))]
    if isinstance(value, (list, tuple)):
        return [_ser(v) for v in value]
    return str(value)


@dataclass
class CheckRecord:
    id: str
    anchor: str
    status: str
    expected: object = None
    actual: object = None

    def to_dict(self):
        return {"id": self.id, "anchor": self.anchor, "status": self.status,
                "expected": _ser(self.expected), "actual": _ser(self.actual)}


@dataclass
class VerificationReport:
    suite: str
    params: dict
    checks: list = field(default_factory=list)
    duration_seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.status == "pass" for c in self.checks)

    def add(self, id: str, anchor: str, ok: bool, expected=None, actual=None):
        self.checks.append(CheckRecord(
            id, anchor, "pass" if ok else "fail", expected, actual))

    def to_dict(self):
        return {"suite": self.suite, "params": self.params,
                "passed": self.passed,
                "checks": [c.to_dict() for c in self.checks],
                "duration_seconds": self.duration_seconds}


def run_lattice_suite(max_degree: int = 12, exponent_cap: int = 12) -> VerificationReport:
    """Three-way equality of triangle counts on the basis grid.

    For every pair of degrees summing to at most max_degree, every basis
    point pair and every shift whose exponent stays below the cap, the
    perturbed-point count, the row-by-row closed formula and the
    piecewise-linear exponent must agree exactly.
    """
    report = VerificationReport("verify-lattice", {
        "max_degree": max_degree, "exponent_cap": exponent_cap})
    for n1 in range(1, max_degree):
        for n2 in range(1, max_degree + 1 - n1):
            triangles = 0
            mismatches = []
            for m1 in range(n1):
                for m2 in range(n2):
                    p1 = Fraction(m1, n1)
                    p2 = Fraction(m2, n2)
                    for j in theta.j_range(n1, p1, n2, p2, exponent_cap + 1):
                        lam = theta.lambda_exp(n1, p1, n2, p2 + j)
                        if lam > exponent_cap:
                            continue
                        triangles += 1
                        count = lattice.count_perturbed(n1, p1, n2, p2 + j)
                        row = lattice.row_formula_count(n1, p1, n2, p2 + j)
                        if not (count == row == lam):
                            mismatches.append((str(p1), str(p2 + j), count, row, str(lam)))
            report.add(f"counts-{n1}-{n2}", "lattice-points-equal-exponent",
                       not mismatches,
                       expected=f"3-way agreement on {triangles} triangles",
                       actual=mismatches or f"agree on {triangles} triangles")
    if max_degree >= 2:
        # translation invariance on a small diagonal family
        shifts_ok = all(
            lattice.count_perturbed(n1, Fraction(1, n1) + 1, n2, Fraction(1, n2) + j + 1)
            == lattice.count_perturbed(n1, Fraction(1, n1), n2, Fraction(1, n2) + j)
            for n1 in range(1, 5) for n2 in range(1, 5) for j in range(-3, 4))
        report.add("translation-invariance", "counts-shift-invariant", shifts_ok)
    return report


def run_theta_suite(order: int = 10, max_degree: int = 12) -> VerificationReport:
    """Floer products equal section-ring products on the whole basis grid."""
    report = VerificationReport("verify-theta", {
        "order": order, "max_degree": max_degree})
    for n1 in range(1, max_degree):
        for n2 in range(1, max_degree + 1 - n1):
            pairs = 0
            mismatches = []
            for m1 in range(n1):
                for m2 in range(n2):
                    p1, p2 = Fraction(m1, n1), Fraction(m2, n2)
                    pairs += 1
                    flo = fukaya.floer_product(n1, p1, n2, p2, order)
                    the = theta.theta_mul(theta.ThetaElement.basis(n1, p1, order),
                                          theta.ThetaElement.basis(n2, p2, order))
                    if flo != the:
                        mismatches.append((str(p1), str(p2)))
            report.add(f"mirror-product-{n1}-{n2}", "floer-equals-section-product",
                       not mismatches,
                       expected=f"coefficient maps equal on {pairs} pairs",
                       actual=mismatches or f"equal on {pairs} pairs")
    return report


def run_dehn_suite() -> VerificationReport:
    """The seven exact products and the degree-6 relation at q = 0."""
    report = VerificationReport("dehn-table", {})
    try:
        for rec in fukaya.dehn_table_q0():
            report.add(rec["id"], "exact-twist-ring-table", rec["status"] == "pass",
                       expected=rec["expected"], actual=rec["actual"])
    except VerificationFailure as e:
        report.add("dehn-table", "exact-twist-ring-table", False, actual=str(e))
    return report


def run_mirror_suite(order: int = 8, emit_relation: bool = False) -> VerificationReport:
    """The mirror map lands exactly on the Tate curve coefficients."""
    report = VerificationReport("mirror-map", {
        "order": order, "emit_relation": emit_relation})
    try:
        res = fukaya.mirror_weierstrass(order)
    except VerificationFailure as e:
        report.add("mirror-construction", "mirror-equals-tate", False, actual=str(e))
        return report
    tate = weierstrass.tate_curve(order)
    q0 = [v.coeffs[0] for v in res.curve.as_tuple()]
    report.add("central-fiber", "mirror-q0-nodal-cubic", q0 == [1, 0, 0, 0, 0],
               expected=[1, 0, 0, 0, 0], actual=q0)
    for name in ("a1", "a2", "a3", "a4", "a6"):
        got = getattr(res.curve, name)
        want = getattr(tate, name)
        report.add(f"coefficient-{name}", "mirror-equals-tate", got == want,
                   expected=want, actual=got)
    report.add("relation-integral", "relation-coefficients-integral",
               fukaya.relation_is_integral(res.relation))
    if emit_relation:
        for label, series in zip(fukaya.MONOMIAL_LABELS, res.relation):
            report.add(f"relation-{label}", "degree-six-relation", True,
                       actual=series)
        report.add("rescaling-unit", "relation-unit-series", True, actual=res.unit)
    return report


def _predicted_tjurina_dim(char: int) -> int:
    """dim T from the closed form: the degree-2 row of the cusp table is T*beta."""
    return sum(hochschild.predicted_cusp_table(char, 2, -6).row(2).values())


def run_hochschild_suite(char: int = 0, n_max: int = 8, s_min: int = -12,
                         bound: int = 10) -> VerificationReport:
    """Graded cusp cohomology against the closed form; nodal dimensions."""
    report = VerificationReport("hochschild", {
        "char": char, "n_max": n_max, "s_min": s_min, "bound": bound})
    fld = ring_of_characteristic(char)
    cusp = hochschild.PlaneCurveRing(fld, 0)
    node = hochschild.PlaneCurveRing(fld, 1)

    got = hochschild.cusp_graded_ranks(cusp, n_max, s_min)
    want = hochschild.predicted_cusp_table(char, n_max, s_min)
    for n in range(2, n_max + 1):
        report.add(f"cusp-ranks-row-{n}", "cusp-cohomology-table",
                   got.row(n) == want.row(n),
                   expected=want.row(n), actual=got.row(n))

    expected_t = _predicted_tjurina_dim(char)
    tdim, _ = hochschild.tjurina_dim(cusp, bound)
    report.add("cusp-tjurina-dim", "milnor-ring-dimension", tdim == expected_t,
               expected=expected_t, actual=tdim)
    kdim, cusp_pairs = hochschild.koszul_h1_dim(cusp, bound)
    report.add("cusp-middle-homology-dim", "middle-homology-equals-tjurina",
               kdim == tdim, expected=tdim, actual=kdim)

    ntdim, _ = hochschild.tjurina_dim(node, bound)
    nkdim, node_pairs = hochschild.koszul_h1_dim(node, bound)
    report.add("node-tjurina-dim", "nodal-tjurina-trivial", ntdim == 1,
               expected=1, actual=ntdim)
    report.add("node-middle-homology-dim", "nodal-middle-homology-trivial",
               nkdim == 1, expected=1, actual=nkdim)
    for label, ring, pairs in (("cusp", cusp, cusp_pairs), ("node", node, node_pairs)):
        try:
            hochschild.omega_pairing(ring, pairs)
            report.add(f"{label}-skew-pairing", "skew-pairing-vanishes", True,
                       expected="zero matrix", actual="zero matrix")
        except VerificationFailure as e:
            report.add(f"{label}-skew-pairing", "skew-pairing-vanishes", False,
                       actual=str(e))
    return report


# dictionaries translating group-theoretic data into the cohomology labels:
# the degree-1 generators restrict to curve vector fields matching gamma up
# to the recorded signs, and a coefficient direction a_i deforms the cubic
# by the monomial dw/da_i
_LIE_TABLES = {
    3: {
        "L": [("g", "dr", -1), ("xg", "du", 1)],
        "Q2": [("x2b", "a2", -1), ("xb", "a4", -1), ("b", "a6", -1)],
        "adjoint": {
            ("g", "x2b"): {"xb": 1}, ("g", "xb"): {"b": -1}, ("g", "b"): {},
            ("xg", "x2b"): {"x2b": 1}, ("xg", "xb"): {"xb": -1}, ("xg", "b"): {},
        },
        "LL": {("g", "xg"): {"g": -1}},
    },
    2: {
        "L": [("g", "dt", 1), ("xg", "ds", 1), ("yg", "du", 1)],
        "Q2": [("xyb", "a1", 1), ("yb", "a3", 1), ("xb", "a4", 1), ("b", "a6", 1)],
        "adjoint": {
            ("yg", "xyb"): {"xyb": 1}, ("yg", "yb"): {"yb": 1},
            ("yg", "xb"): {}, ("yg", "b"): {},
            ("xg", "xyb"): {}, ("xg", "yb"): {"xb": 1},
            ("xg", "xb"): {}, ("xg", "b"): {},
            ("g", "xyb"): {"xb": 1}, ("g", "yb"): {"b": 1},
            ("g", "xb"): {}, ("g", "b"): {},
        },
        "LL": {("g", "xg"): {}, ("g", "yg"): {"g": 1}, ("xg", "yg"): {"xg": 1}},
    },
}


def _coordinates(combination: dict, labels, names, fld):
    """Coordinate vector over names of a combination {label: coeff}; each
    (label, name, sign) in labels puts sign * coeff at name."""
    vec = [fld.zero()] * len(names)
    for label, name, sgn in labels:
        vec[names.index(name)] = fld.coerce(sgn * combination.get(label, 0))
    return vec


def _global_sign(computed: dict, expected: dict, fld):
    """The s in {1, -1} with computed = s * expected over the whole table, or None."""
    for s in (1, -1):
        if all(computed[key] == [fld.coerce(s * v) for v in want]
               for key, want in expected.items()):
            return s
    return None


def run_lie_suite(char: int = 0) -> VerificationReport:
    """Ranks of the differentiated group action and its adjoint brackets."""
    report = VerificationReport("lie-brackets", {"char": char})
    fld = ring_of_characteristic(char)
    _, coker, ker = weierstrass.lie_d_matrix(fld)
    # d maps 4 directions to 5 with cokernel T, so its kernel has rank dim T - 1
    want_coker = _predicted_tjurina_dim(char)
    want_ker = want_coker - 1
    report.add("coker-rank", "action-cokernel-rank", coker == want_coker,
               expected=want_coker, actual=coker)
    report.add("ker-rank", "action-kernel-rank", ker == want_ker,
               expected=want_ker, actual=ker)

    cusp = hochschild.PlaneCurveRing(fld, 0)
    row2 = hochschild.cusp_graded_ranks(cusp, 2, -6).row(2)
    report.add("coker-matches-degree-2-row", "cokernel-matches-deformations",
               sum(row2.values()) == coker, expected=coker, actual=sum(row2.values()))

    table = _LIE_TABLES.get(char)
    if table is None:  # characteristic 0 or p >= 5: only the scaling eigenvalues
        du = weierstrass.LieElement.of(fld, du=1)
        for name, scale in (("a4", -4), ("a6", -6)):
            got = weierstrass.adjoint_bracket(du, weierstrass.coeff_direction(fld, name))
            want = [fld.mul(fld.coerce(scale), v)
                    for v in weierstrass.coeff_direction(fld, name)]
            report.add(f"adjoint-du-{name}", "scaling-field-eigenvalues",
                       got == want, expected=want, actual=got)
        return report

    l_side = (table["L"], weierstrass.LIE_NAMES, fld)
    q_side = (table["Q2"], weierstrass.COEFF_NAMES, fld)
    lie = {label: weierstrass.LieElement(fld, *_coordinates({label: 1}, *l_side))
           for label, _, _ in table["L"]}
    adjoint = {(l, q): weierstrass.adjoint_bracket(lie[l], _coordinates({q: 1}, *q_side))
               for l, q in table["adjoint"]}
    brackets = {(l1, l2): weierstrass.lie_bracket(lie[l1], lie[l2]).as_vector()
                for l1, l2 in table["LL"]}
    for check, anchor, computed, entries, side in (
            ("adjoint-table", "adjoint-bracket-table", adjoint, table["adjoint"], q_side),
            ("degree-one-bracket-table", "vector-field-bracket-table", brackets,
             table["LL"], l_side)):
        expected = {key: _coordinates(want, *side) for key, want in entries.items()}
        sign = _global_sign(computed, expected, fld)
        report.add(check, anchor, sign is not None,
                   expected="match up to one global sign",
                   actual=f"global sign {sign}" if sign is not None else computed)
    return report


def _timed(suite, *args) -> VerificationReport:
    """Run one suite and record its own wall-clock duration in the report."""
    start = time.perf_counter()
    report = suite(*args)
    report.duration_seconds = round(time.perf_counter() - start, 3)
    return report


def run_all(order: int = 8) -> list:
    return [
        _timed(run_lattice_suite),
        _timed(run_theta_suite),
        _timed(run_dehn_suite),
        _timed(run_mirror_suite, order),
        *(_timed(run_hochschild_suite, c) for c in (0, 2, 3, 5)),
        *(_timed(run_lie_suite, c) for c in (0, 2, 3)),
    ]


def _emit(reports, out_path):
    doc = reports[0].to_dict() if len(reports) == 1 else {
        "suites": [r.to_dict() for r in reports],
        "passed": all(r.passed for r in reports)}
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if all(r.passed for r in reports) else 1


def _parse_window(text: str):
    n_max, s_min = (int(x) for x in text.split(","))
    if n_max < 0 or s_min > 0:
        raise argparse.ArgumentTypeError(
            f"window {text!r} needs N_MAX >= 0 and S_MIN <= 0")
    return n_max, s_min


def _characteristic(text: str) -> int:
    char = int(text)
    try:
        ring_of_characteristic(char)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is neither 0 nor a prime") from None
    return char


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{text!r} is a negative integer")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="tatemirror",
        description="exact verification suites for the torus mirror correspondence")
    parser.add_argument("--out", help="write the JSON report here instead of stdout")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=argparse.SUPPRESS,
                        help="write the JSON report here instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-lattice", parents=[common],
                       help="triangle-count identities")
    p.add_argument("--max-degree", type=_nonnegative_int, default=12)

    p = sub.add_parser("verify-theta", parents=[common],
                       help="Floer versus section-ring products")
    p.add_argument("--order", type=_positive_int, default=10)
    p.add_argument("--max-degree", type=_nonnegative_int, default=12)

    p = sub.add_parser("mirror-map", parents=[common],
                       help="recover the Tate curve coefficients")
    p.add_argument("--order", type=_positive_int, default=8)
    p.add_argument("--emit-relation", action="store_true")

    sub.add_parser("dehn-table", parents=[common],
                   help="the seven exact q=0 products")

    p = sub.add_parser("hochschild", parents=[common],
                       help="graded cohomology tables")
    p.add_argument("--char", type=_characteristic, default=0, help="0 or a prime")
    p.add_argument("--window", type=_parse_window, default=(8, -12),
                   metavar="N_MAX,S_MIN")

    p = sub.add_parser("lie-brackets", parents=[common],
                       help="group action ranks and brackets")
    p.add_argument("--char", type=_characteristic, default=0, help="0 or a prime")

    p = sub.add_parser("all", parents=[common],
                       help="every suite at default parameters")
    p.add_argument("--order", type=_positive_int, default=8,
                   help="order of the mirror-map suite only")

    args = parser.parse_args(argv)
    if args.command == "verify-lattice":
        reports = [_timed(run_lattice_suite, args.max_degree)]
    elif args.command == "verify-theta":
        reports = [_timed(run_theta_suite, args.order, args.max_degree)]
    elif args.command == "mirror-map":
        reports = [_timed(run_mirror_suite, args.order, args.emit_relation)]
    elif args.command == "dehn-table":
        reports = [_timed(run_dehn_suite)]
    elif args.command == "hochschild":
        reports = [_timed(run_hochschild_suite, args.char, *args.window)]
    elif args.command == "lie-brackets":
        reports = [_timed(run_lie_suite, args.char)]
    else:
        reports = run_all(args.order)
    return _emit(reports, args.out)


if __name__ == "__main__":
    sys.exit(main())
