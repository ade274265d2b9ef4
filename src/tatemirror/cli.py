"""Batch verification commands producing machine-readable reports.

Each subcommand runs one verification suite and writes a single JSON
document: one object per check with fields {id, anchor, status, expected,
actual}, plus the suite name, parameters, number of checks and wall-clock
duration.  The process exits 0 only if every check passed.

Each suite is a generator of (id, anchor, ok, expected, actual) checks whose
signature alone holds its defaults; ``_suite`` makes it a report function,
and turns an exception escaping it into one failed check named after it.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import inspect
import json
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import fukaya, hochschild, lattice, theta, weierstrass
from .errors import VerificationFailure
from .exactnum import ZZ, QSeries, divisor_power_sum, ring_of_characteristic


def _ser(value):
    """Serialize exact values as decimal strings, recursively; None is null."""
    if value is None:
        return None
    if isinstance(value, QSeries):
        return [_ser(c) for c in value.coeffs]
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

    def to_dict(self):
        return {"suite": self.suite, "params": self.params,
                "passed": self.passed, "n_checks": len(self.checks),
                "checks": [c.to_dict() for c in self.checks],
                "duration_seconds": self.duration_seconds}


def _suite(name: str):
    """Make a check generator into a suite returning a VerificationReport whose
    params are the call's arguments with defaults applied and whose duration is
    the call's own wall-clock time.  An exception that escapes the generator is
    one failed check, after those already yielded."""
    def decorate(checks):
        @functools.wraps(checks)
        def suite(*args, **kwargs):
            start = time.perf_counter()
            call = inspect.signature(checks).bind(*args, **kwargs)
            call.apply_defaults()
            report = VerificationReport(name, dict(call.arguments))
            try:
                for id, anchor, ok, expected, actual in checks(*call.args, **call.kwargs):
                    report.checks.append(CheckRecord(
                        id, anchor, "pass" if ok else "fail", expected, actual))
            except Exception as e:
                sys.excepthook(*sys.exc_info())  # the traceback, to stderr
                report.checks.append(CheckRecord(
                    name, "suite-completes", "fail", actual=f"{type(e).__name__}: {e}"))
            report.duration_seconds = round(time.perf_counter() - start, 3)
            return report
        return suite
    return decorate


def _basis_grid(max_degree: int):
    """Each degree pair with n1 + n2 <= max_degree, with its basis point pairs."""
    for n1 in range(1, max_degree):
        for n2 in range(1, max_degree + 1 - n1):
            yield n1, n2, [(Fraction(m1, n1), Fraction(m2, n2))
                           for m1 in range(n1) for m2 in range(n2)]


@_suite("verify-lattice")
def run_lattice_suite(max_degree: int = 12, exponent_cap: int = 12):
    """Three-way equality of triangle counts on the basis grid.

    For every pair of degrees summing to at most max_degree, every basis
    point pair and every shift whose exponent stays below the cap, the
    perturbed-point count, the row-by-row closed formula and the
    piecewise-linear exponent must agree exactly.
    """
    for n1, n2, points in _basis_grid(max_degree):
        triangles, mismatches = 0, []
        for p1, p2 in points:
            for j in theta.j_range(n1, p1, n2, p2, exponent_cap + 1):
                lam = theta.lambda_exp(n1, p1, n2, p2 + j)
                if lam > exponent_cap:
                    continue
                triangles += 1
                count = lattice.count_perturbed(n1, p1, n2, p2 + j)
                row = lattice.row_formula_count(n1, p1, n2, p2 + j)
                if not (count == row == lam):
                    mismatches.append((str(p1), str(p2 + j), count, row, str(lam)))
        yield (f"counts-{n1}-{n2}", "lattice-points-equal-exponent", not mismatches,
               f"3-way agreement on {triangles} triangles",
               mismatches or f"agree on {triangles} triangles")
    if max_degree >= 2:
        # translation invariance on a small diagonal family
        shifts_ok = all(
            lattice.count_perturbed(n1, Fraction(1, n1) + 1, n2, Fraction(1, n2) + j + 1)
            == lattice.count_perturbed(n1, Fraction(1, n1), n2, Fraction(1, n2) + j)
            for n1 in range(1, 5) for n2 in range(1, 5) for j in range(-3, 4))
        yield "translation-invariance", "counts-shift-invariant", shifts_ok, None, None


@_suite("verify-theta")
def run_theta_suite(order: int = 10, max_degree: int = 12):
    """Floer products equal section-ring products on the whole basis grid."""
    basis = theta.ThetaElement.basis
    for n1, n2, points in _basis_grid(max_degree):
        mismatches = [(str(p1), str(p2)) for p1, p2 in points
                      if fukaya.floer_product(n1, p1, n2, p2, order)
                      != theta.theta_mul(basis(n1, p1, order), basis(n2, p2, order))]
        yield (f"mirror-product-{n1}-{n2}", "floer-equals-section-product", not mismatches,
               f"coefficient maps equal on {len(points)} pairs",
               mismatches or f"equal on {len(points)} pairs")


@_suite("dehn-table")
def run_dehn_suite():
    """The seven exact products and the degree-6 relation at q = 0."""
    for rec in fukaya.dehn_table_q0():
        yield (rec["id"], "exact-twist-ring-table", rec["status"] == "pass",
               rec["expected"], rec["actual"])


@_suite("mirror-map")
def run_mirror_suite(order: int = 8, emit_relation: bool = False):
    """The mirror map lands exactly on the Tate curve coefficients."""
    try:
        res = fukaya.mirror_weierstrass(order)
    except VerificationFailure as e:
        yield "mirror-construction", "mirror-equals-tate", False, None, str(e)
        return
    tate = weierstrass.tate_curve(order)
    q0 = [v.coeffs[0] for v in res.curve.as_tuple()]
    yield "central-fiber", "mirror-q0-nodal-cubic", q0 == [1, 0, 0, 0, 0], [1, 0, 0, 0, 0], q0
    for name in ("a1", "a2", "a3", "a4", "a6"):
        got, want = getattr(res.curve, name), getattr(tate, name)
        yield f"coefficient-{name}", "mirror-equals-tate", got == want, want, got
    # j(raw) = j(Tate), cross-multiplied: c4(raw)^3 * Delta_Tate = E4^3 * Delta(raw),
    # where c4 = E4 and Delta = (E4^3 - E6^2) / 1728 on the Tate curve; no gauge enters
    e4, e6 = (QSeries.make(ZZ, order, [1] + [c * divisor_power_sum(k, n)
                                            for n in range(1, order)])
              for c, k in ((240, 3), (-504, 5)))
    e4_cubed, (delta, c4) = e4 * e4 * e4, weierstrass.discriminant(res.raw)
    got, want = c4 * c4 * c4 * (e4_cubed - e6 * e6).exact_div(1728), e4_cubed * delta
    yield "j-invariant", "mirror-j-equals-tate-j", got == want, want, got
    certificate = list(fukaya.relation_certificate())
    yield ("relation-unimodular", "relation-coefficients-integral", certificate == [1, 1],
           [1, 1], certificate)
    if emit_relation:
        for label, series in zip(fukaya.MONOMIAL_LABELS, res.relation):
            yield f"relation-{label}", "degree-six-relation", True, None, series
        yield "rescaling-unit", "relation-unit-series", True, None, res.unit


def _predicted_tjurina_dim(char: int) -> int:
    """dim T from the closed form: the degree-2 row of the cusp table is T*beta."""
    return sum(hochschild.predicted_cusp_table(char, 2, -6).row(2).values())


@_suite("hochschild")
def run_hochschild_suite(char: int = 0, n_max: int = 8, s_min: int = -12,
                         bound: int = 10):
    """Graded cusp cohomology against the closed form; nodal dimensions."""
    fld = ring_of_characteristic(char)
    cusp, node = hochschild.PlaneCurveRing(fld, 0), hochschild.PlaneCurveRing(fld, 1)
    got = hochschild.cusp_graded_ranks(cusp, n_max, s_min)
    want = hochschild.predicted_cusp_table(char, n_max, s_min)
    for n in range(2, n_max + 1):
        yield (f"cusp-ranks-row-{n}", "cusp-cohomology-table", got.row(n) == want.row(n),
               want.row(n), got.row(n))

    expected_t = _predicted_tjurina_dim(char)
    tdim, _ = hochschild.tjurina_dim(cusp, bound)
    yield "cusp-tjurina-dim", "milnor-ring-dimension", tdim == expected_t, expected_t, tdim
    kdim, cusp_pairs = hochschild.koszul_h1_dim(cusp, bound)
    yield "cusp-middle-homology-dim", "middle-homology-equals-tjurina", kdim == tdim, tdim, kdim

    ntdim, _ = hochschild.tjurina_dim(node, bound)
    nkdim, node_pairs = hochschild.koszul_h1_dim(node, bound)
    yield "node-tjurina-dim", "nodal-tjurina-trivial", ntdim == 1, 1, ntdim
    yield "node-middle-homology-dim", "nodal-middle-homology-trivial", nkdim == 1, 1, nkdim
    for label, ring, pairs in (("cusp", cusp, cusp_pairs), ("node", node, node_pairs)):
        try:
            hochschild.omega_pairing(ring, pairs)
        except VerificationFailure as e:
            yield f"{label}-skew-pairing", "skew-pairing-vanishes", False, None, str(e)
        else:
            yield (f"{label}-skew-pairing", "skew-pairing-vanishes", True,
                   "zero matrix", "zero matrix")
    yield ("dga-is-a-complex", "dga-differential-squares-to-zero",
           got.square_defects == 0, 0, got.square_defects)


# dictionaries translating group-theoretic data into the cohomology labels:
# the degree-1 generators restrict to curve vector fields matching gamma up
# to the recorded signs, and a coefficient direction a_i deforms the cubic
# by the monomial dw/da_i.  "sign" is the global sign each computed table
# must match, and it comes from the compose order.  reparam_compose(g2, g1)
# acts on the coefficients as g1 then g2; the coefficients change by pulling
# the cubic back along the substitution x = u^2x' + r, ..., so on the curve
# the same maps compose the other way round.  lie_bracket, read off
# compose(h, g) - compose(g, h), is therefore the bracket of the curve's
# vector fields with the order reversed: the degree-one table, written in
# those fields, matches at -1.  The adjoint table evaluates one field at a
# point, has no compose order, and matches at +1.  In characteristic 2,
# -1 = +1.
_LIE_TABLES = {
    3: {
        "sign": {"adjoint": 1, "LL": -1},
        "L": [("g", "dr", -1), ("xg", "du", 1)],
        "Q2": [("x2b", "a2", -1), ("xb", "a4", -1), ("b", "a6", -1)],
        "adjoint": {
            ("g", "x2b"): {"xb": 1}, ("g", "xb"): {"b": -1}, ("g", "b"): {},
            ("xg", "x2b"): {"x2b": 1}, ("xg", "xb"): {"xb": -1}, ("xg", "b"): {},
        },
        "LL": {("g", "xg"): {"g": -1}},
    },
    2: {
        "sign": {"adjoint": 1, "LL": 1},
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


@_suite("lie-brackets")
def run_lie_suite(char: int = 0):
    """Ranks of the differentiated group action and its adjoint brackets; at
    characteristics 2 and 3 each bracket table must match its recorded one at
    the global sign recorded beside it in ``_LIE_TABLES``."""
    fld = ring_of_characteristic(char)
    _, coker, ker = weierstrass.lie_d_matrix(fld)
    # d maps 4 directions to 5 with cokernel T, so its kernel has rank dim T - 1
    want_coker = _predicted_tjurina_dim(char)
    want_ker = want_coker - 1
    yield "coker-rank", "action-cokernel-rank", coker == want_coker, want_coker, coker
    yield "ker-rank", "action-kernel-rank", ker == want_ker, want_ker, ker

    cusp = hochschild.PlaneCurveRing(fld, 0)
    row2 = sum(hochschild.cusp_graded_ranks(cusp, 2, -6).row(2).values())
    yield "coker-matches-degree-2-row", "cokernel-matches-deformations", row2 == coker, coker, row2

    table = _LIE_TABLES.get(char)
    if table is None:  # characteristic 0 or p >= 5: only the scaling eigenvalues
        du = weierstrass.LieElement.of(fld, du=1)
        for name, scale in (("a4", -4), ("a6", -6)):
            got = weierstrass.adjoint_bracket(du, weierstrass.coeff_direction(fld, name))
            want = [fld.mul(fld.coerce(scale), v)
                    for v in weierstrass.coeff_direction(fld, name)]
            yield f"adjoint-du-{name}", "scaling-field-eigenvalues", got == want, want, got
        return

    l_side = (table["L"], weierstrass.LIE_NAMES, fld)
    q_side = (table["Q2"], weierstrass.COEFF_NAMES, fld)
    lie = {label: weierstrass.LieElement(fld, *_coordinates({label: 1}, *l_side))
           for label, _, _ in table["L"]}
    adjoint = {(l, q): weierstrass.adjoint_bracket(lie[l], _coordinates({q: 1}, *q_side))
               for l, q in table["adjoint"]}
    brackets = {(l1, l2): weierstrass.lie_bracket(lie[l1], lie[l2]).as_vector()
                for l1, l2 in table["LL"]}
    for check, anchor, computed, name, side in (
            ("adjoint-table", "adjoint-bracket-table", adjoint, "adjoint", q_side),
            ("degree-one-bracket-table", "vector-field-bracket-table", brackets,
             "LL", l_side)):
        expected = {key: _coordinates(want, *side) for key, want in table[name].items()}
        sign, recorded = _global_sign(computed, expected, fld), table["sign"][name]
        yield (check, anchor, sign == recorded, f"global sign {recorded}",
               f"global sign {sign}" if sign is not None else computed)


def run_all(order: int = 8) -> list:
    return [run_lattice_suite(), run_theta_suite(), run_dehn_suite(), run_mirror_suite(order),
            *(run_hochschild_suite(c) for c in (0, 2, 3, 5)),
            *(run_lie_suite(c) for c in (0, 2, 3))]


def _emit(reports, fh):
    doc = reports[0].to_dict() if len(reports) == 1 else {
        "suites": [r.to_dict() for r in reports],
        "passed": all(r.passed for r in reports)}
    fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
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
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"{err}; --char takes 0 or a prime") from None
    return char


def _int_at_least(low: int):
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer >= {low}")
        return value
    return integer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="tatemirror",
        description="exact verification suites for the torus mirror correspondence")
    out_help = "write the JSON report here instead of stdout"
    parser.add_argument("--out", help=out_help)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, suite, help):
        # options left out stay out of the call, so the suite's defaults apply
        p = sub.add_parser(name, help=help, argument_default=argparse.SUPPRESS)
        p.add_argument("--out", help=out_help)
        p.set_defaults(suite=suite)
        return p

    p = command("verify-lattice", run_lattice_suite, "triangle-count identities")
    p.add_argument("--max-degree", type=_int_at_least(0))
    p = command("verify-theta", run_theta_suite, "Floer versus section-ring products")
    p.add_argument("--order", type=_int_at_least(1))
    p.add_argument("--max-degree", type=_int_at_least(0))
    p = command("mirror-map", run_mirror_suite, "recover the Tate curve coefficients")
    p.add_argument("--order", type=_int_at_least(1))
    p.add_argument("--emit-relation", action="store_true")
    command("dehn-table", run_dehn_suite, "the seven exact q=0 products")
    p = command("hochschild", run_hochschild_suite, "graded cohomology tables")
    p.add_argument("--char", type=_characteristic, help="0 or a prime")
    p.add_argument("--window", type=_parse_window, metavar="N_MAX,S_MIN")
    p = command("lie-brackets", run_lie_suite, "group action ranks and brackets")
    p.add_argument("--char", type=_characteristic, help="0 or a prime")
    p = command("all", run_all, "every suite at default parameters")
    p.add_argument("--order", type=_int_at_least(1),
                   help="order of the mirror-map suite only")

    args = vars(parser.parse_args(argv))
    suite, out, _ = (args.pop(key) for key in ("suite", "out", "command"))
    if "window" in args:
        args["n_max"], args["s_min"] = args.pop("window")
    try:
        # opened before any suite runs, so an unwritable path costs no work
        sink = open(out, "w") if out else contextlib.nullcontext(sys.stdout)
    except OSError as err:
        parser.error(f"cannot write --out {out}: {err.strerror}")
    with sink as fh:
        return _emit(run_all(**args) if suite is run_all else [suite(**args)], fh)


if __name__ == "__main__":
    sys.exit(main())
