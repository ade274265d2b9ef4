"""Planted-fault census: which deliberate faults do tier-1 and the reports catch?

    python3 tools/faults.py

Each fault is one exact text edit to a file under ``src/tatemirror``, planted
once: ``src/``, ``tests/`` and ``pyproject.toml`` are copied to a temporary
directory and the edit is applied there.  On that copy the tier-1 tests run
with ``-x`` and without Hypothesis's shrink phase
(``--hypothesis-profile=no-shrink``, a profile that ``tests/conftest.py``
registers); the fault is killed when the run fails, and the first failing
test is printed.  Each fault names the test that killed it
in the last census, and that test runs first: when it fails, it is the
printed failure and the full run is skipped; when it passes or is no longer
found, the full ``-x`` run decides as before.  Then ``tatemirror all`` and
``tatemirror all --order 64`` run on the same copy, and the check records
(``suite[char=p]/id``) that fail in either report are printed; the fault is
silent when both reports pass.  A fault may carry a one-line reason why no
report should see it.

The census first runs both reports on the working tree and prints any record
that fails there; it ends with the records that no fault fails and, on its
last line, its own wall time.  The exit status is 1 if a fault survives
tier-1, an edit no longer applies, or a fault is silent without a reason or
fails a record despite one; else 0.  Standard library only; the working tree
is never modified.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIMEOUT_S = 900
REPORT_RUNS = (["all"], ["all", "--order", "64"])

# (name, file under src/tatemirror, exact old text, new text, the test that killed
#  it in the last census[, why no report sees it])
FAULTS = [
    ("eps tie-break flipped on the p1 edge in count_perturbed", "lattice.py",
     "c1 = -(-n1 * u1 // den)", "c1 = n1 * u1 // den + 1",
     "tests/test_acceptance.py::test_criterion_1_lattice_point_counts"),
    ("one term of _row_count", "lattice.py",
     "D * n * q2 * q2 + 2 * R * q", "D * n * q2 * q2 - 2 * R * q",
     "tests/test_acceptance.py::test_criterion_1_lattice_point_counts"),
    ("sigma5 -> sigma3 in tate_coeffs", "weierstrass.py",
     "s5 = divisor_power_sum(5, n)", "s5 = divisor_power_sum(3, n)",
     "tests/test_acceptance.py::test_criterion_4_seidel_mirror_map"),
    ("one sign in reparam_apply's b4", "weierstrass.py",
     "- t * e1) * (ui2 * ui2)", "+ t * e1) * (ui2 * ui2)",
     "tests/test_acceptance.py::test_criterion_4_seidel_mirror_map"),
    ("% p dropped from Ring.mul", "exactnum.py",
     "return (a * b) % self.p if self.kind == \"GF\" else a * b", "return a * b",
     "tests/test_exactnum.py::test_reduction_commutes_with_arithmetic",
     "equivalent on every report path: a later add, sub or product reduces each result,"
     " and lie-brackets' bare fld.mul scales a residue by 0 or 1"),
    ("_global_sign accepts any s", "cli.py",
     "if all(computed[key] == [fld.coerce(s * v) for v in want]",
     "if s or all(computed[key] == [fld.coerce(s * v) for v in want]",
     "tests/test_acceptance.py::test_criterion_7_lie_bracket_layer"),
    ("j_window shrunk to a third", "theta.py",
     "return math.isqrt(2 * n3 * (order + n3) // (n1 * n2)) + 2",
     "return (math.isqrt(2 * n3 * (order + n3) // (n1 * n2)) + 2) // 3",
     "tests/test_acceptance.py::test_criterion_1_lattice_point_counts"),
    ("Koszul boundary multiples left out of the stack", "hochschild.py",
     "boundary = [_vector(index, [py, ring.scale(px, -1)]) for px, py in zip(mx, my)]",
     "boundary = []",
     "tests/test_acceptance.py::test_criterion_6_hochschild_tables"),
    ("f*(f-1) -> f*(f+1) in lambda_exp", "theta.py",
     "n2 * f2 * (f2 - 1)", "n2 * f2 * (f2 + 1)",
     "tests/test_acceptance.py::test_criterion_1_lattice_point_counts"),
    ("+ 1 dropped from j_range's upper bound", "theta.py",
     "num // den + jmax + 1)", "num // den + jmax)",
     "tests/test_theta.py::TestIntegerKernels::test_j_range_equals_fraction_bounds",
     "equivalent: with j_window's + 2 margin the top shift it drops never has an"
     " exponent below the order"),
    ("floor instead of ceil for the mean in star_count", "fukaya.py",
     "abs(math.ceil(mean) - math.ceil(p1))", "abs(math.floor(mean) - math.ceil(p1))",
     "tests/test_fukaya.py::TestEnumerateTriangles::test_unit_square_contributions",
     "star_count is on no product path"),
    ("abs dropped from one star term", "fukaya.py",
     "abs(math.ceil(mean) - math.ceil(p1)) +", "(math.ceil(mean) - math.ceil(p1)) +",
     "tests/test_fukaya.py::TestStarCount::test_parity_always_even",
     "star_count is on no product path"),
    ("coefficient product dropped in bilinear", "theta.py",
     "c12 = c1 * c2", "c12 = c1",
     "tests/test_acceptance.py::test_criterion_3_dehn_twist_table"),
    ("du dropped from the dual-number u in lie_vector_field", "weierstrass.py",
     "[[1, xi.du], [0, xi.ds]", "[[1, 0], [0, xi.ds]",
     "tests/test_acceptance.py::test_criterion_7_lie_bracket_layer"),
    ("bool check dropped from Ring.coerce", "exactnum.py",
     "if isinstance(x, bool):\n            raise TypeError(\"bool is not a ring element\")\n"
     "        if self.kind == \"ZZ\":", "if self.kind == \"ZZ\":",
     "tests/test_exactnum.py::TestScalar::test_bool_rejected_in_every_ring[ring0]",
     "input validation that no report feeds"),
    ("stale shift table read above its order", "theta.py",
     "if row is None or row[0] < order:", "if row is None:",
     "tests/test_tables.py::test_any_visiting_order_gives_the_cold_products[section]"),
    ("extension window off by one", "theta.py",
     "row[1] + len(row) - 3", "row[1] + len(row) - 2",
     "tests/test_acceptance.py::test_criterion_8d_product_associativity"),
    ("old window re-read one place late", "theta.py",
     "+ row[2:]", "+ row[3:]",
     "tests/test_acceptance.py::test_criterion_8d_product_associativity"),
    ("right side of the nested-window guard dropped", "theta.py",
     "if window.start > lo or window.stop <= hi:", "if window.start > lo:",
     "tests/test_tables.py::test_a_window_that_is_not_nested_is_an_invariant_error",
     "unreachable while windows nest, as every j_range window does"),
    ("n1 for n2 in bilinear's target slot", "theta.py",
     "(m1 + m2 + n2 * j)", "(m1 + m2 + n1 * j)",
     "tests/test_acceptance.py::test_criterion_3_dehn_twist_table"),
    ("% p dropped from the GF series add", "exactnum.py",
     "tuple(c % p for c in coeffs)", "tuple(coeffs)",
     "tests/test_acceptance.py::test_criterion_7_lie_bracket_layer"),
    ("minus sign dropped on the pivot entries of an integer kernel vector", "_linalg.py",
     "v[c] = -row[f] * (v[f] // row[c])", "v[c] = row[f] * (v[f] // row[c])",
     "tests/test_acceptance.py::test_criterion_6_hochschild_tables"),
    ("rows taken in the order given: the leading-column sort dropped from echelon",
     "_linalg.py",
     "for row in sorted(filter(None, rows), key=min):", "for row in filter(None, rows):",
     "tests/test_hochschild.py::TestKoszulStack::test_node_eliminations_fill_few_rows[_Span-165]",
     "equivalent: pivots, residues and kernel vectors up to a scalar do not depend on"
     " the row order; only the work count sees it"),
    ("the zero-row filter drops rows that do not hold column 0", "_linalg.py",
     "sorted(filter(None, rows), key=min)", "sorted(filter(lambda row: 0 in row, rows), key=min)",
     "tests/test_linalg.py::TestRref::test_rows_span_the_input"),
    ("a new pivot is not cleared from the earlier pivot rows", "_linalg.py",
     "            for c, prow in pivot_rows.items():\n                if lead in prow:\n"
     "                    pivot_rows[c] = _clear(prow, row, lead, p)\n", "",
     "tests/test_linalg.py::TestRref::test_output_is_reduced_echelon"),
    ("bool let through PlaneCurveRing's int fast path", "hochschild.py",
     "keep = type(coeff) is int and", "keep = isinstance(coeff, int) and",
     "tests/test_hochschild.py::TestNormalForm::test_bool_coefficient_rejected[0]",
     "input validation that no report feeds"),
    ("compose orders swapped in lie_bracket", "weierstrass.py",
     "zip(reparam_compose(h, g).as_tuple(), reparam_compose(g, h).as_tuple())",
     "zip(reparam_compose(g, h).as_tuple(), reparam_compose(h, g).as_tuple())",
     "tests/test_acceptance.py::test_criterion_7_lie_bracket_layer"),
    ("sign of the x* image of x*y* flipped in the dga table", "hochschild.py",
     "(\"x*\", ring.scale(fy, -1))", "(\"x*\", fy)",
     "tests/test_cli.py::TestReports::test_all_matches_the_golden_report"),
    ("first-term test dropped in bilinear, so a term overwrites its slot", "theta.py",
     "out[target] = term if held is zero else held + term", "out[target] = term",
     "tests/test_acceptance.py::test_criterion_3_dehn_twist_table"),
    ("shift truncates one coefficient late through _series", "exactnum.py",
     "self.coeffs[: max(self.order - m, 0)]", "self.coeffs[: max(self.order - m + 1, 0)]",
     "tests/test_acceptance.py::test_criterion_4_seidel_mirror_map"),
    ("j and q_exponent swapped in ImmersedTriangle", "fukaya.py",
     "    j: int\n    q_exponent: int\n", "    q_exponent: int\n    j: int\n",
     "tests/test_acceptance.py::test_criterion_2_mirror_product_identity"),
    ("node check dropped from tate_normalize", "weierstrass.py",
     "if fiber is not Fiber.NODE:", "if False:",
     "tests/test_weierstrass.py::TestTateNormalize::test_smooth_fiber_rejected",
     "the mirror's raw curve always satisfies it"),
    ("divisibility by 3 dropped from the normalizer's q = 0 step", "weierstrass.py",
     "if num % 3 or tnum % 2:", "if tnum % 2:",
     "tests/test_weierstrass.py::TestTateNormalize::test_nodal_fiber_without_integral_lift[values1]",
     "the mirror's raw curve always satisfies it"),
    ("Koszul stabilization check dropped", "hochschild.py",
     "if lo != hi:", "if False:",
     "tests/test_hochschild.py::TestTjurina::test_undersized_window_raises",
     "it never fires at the reports' bounds"),
    ("top weight dropped from monomials", "hochschild.py",
     "range(max_weight + 1)", "range(max_weight)",
     "tests/test_hochschild.py::TestMonomials::test_one_per_weight_equals_the_sorted_candidates",
     "every window shrinks by one weight, and the answers are stable"),
    ("a4 target off by one at every positive order, absorbed by the gauge", "weierstrass.py",
     "a4.append(-5 * s3)", "a4.append(-5 * s3 + 1)",
     "tests/test_acceptance.py::test_criterion_4_seidel_mirror_map"),
    ("one c4 factor dropped from the j check", "cli.py",
     "c4 * c4 * c4 * (e4_cubed", "c4 * c4 * (e4_cubed",
     "tests/test_cli.py::TestReports::test_all_matches_the_golden_report"),
    ("sign of the c*x*y term flipped in the curve ring's reduction", "hochschild.py",
     "stack.append(((a + 1, b - 1), -coeff))", "stack.append(((a + 1, b - 1), coeff))",
     "tests/test_cli.py::TestReports::test_all_matches_the_golden_report"),
    ("balanced rounding dropped in _hensel_normalizer", "weierstrass.py",
     "k = -u0 * ((a1[m] + 2 * sm + 6) // 12)", "k = 0",
     "tests/test_fukaya.py::TestSeidelMirror::test_normalizer_gauge_is_no_wider_than_the_raw_curve[64]",
     "the a4 slice is unique, so no report sees the lift"),
    ("sign of the x^3 term flipped in the curve ring's y^2 rewrite", "hochschild.py",
     "stack.append(((a + 3, b - 2), coeff))", "stack.append(((a + 3, b - 2), -coeff))",
     "tests/test_acceptance.py::test_criterion_6_hochschild_tables"),
    ("Floer exponent read from lambda_exp", "fukaya.py",
     "return lattice.count_perturbed(n1, p1, n2, _slot_point(a2 + j * d2, d2))  # p2 + j",
     "from .theta import lambda_exp; return int(lambda_exp(n1, p1, n2, _slot_point(a2 + j * d2, d2)))",
     "tests/test_layers.py::test_fukaya_takes_only_the_shared_element_machinery_from_theta",
     "λ equals the count on every shift the reports reach, so both rings still agree;"
     " only the independence tests see it"),
    ("the Floer shift builds p2 + j/d2: j * d2 -> j in the _slot_point key", "fukaya.py",
     "count_perturbed(n1, p1, n2, _slot_point(a2 + j * d2, d2))",
     "count_perturbed(n1, p1, n2, _slot_point(a2 + j, d2))",
     "tests/test_acceptance.py::test_criterion_2_mirror_product_identity"),
    ("quotient dropped from lambda_exp's integral branch", "theta.py",
     "return whole + quot", "return whole",
     "tests/test_acceptance.py::test_criterion_1_lattice_point_counts"),
    ("f*(f-1) -> f*(f+1) in lambda_exp's p1 term", "theta.py",
     "n1 * f1 * (f1 - 1)", "n1 * f1 * (f1 + 1)",
     "tests/test_cli.py::TestReports::test_all_matches_the_golden_report"),
    ("list rows converted one column wide", "_linalg.py",
     "len(rows[0]) if rows else 0", "len(rows[0]) + 1 if rows else 0",
     "tests/test_linalg.py::TestRref::test_output_is_reduced_echelon"),
    ("rows returned as lists lose the ring's zero", "_linalg.py",
     "row.get(c, zero)", "row.get(c, 0)",
     "tests/test_linalg.py::TestRref::test_output_is_reduced_echelon",
     "equivalent on every report: an int 0 equals QQ's Fraction zero and prints alike"),
    ("row and column swapped in transpose", "_linalg.py",
     "cols[c][i] = x", "cols[i][c] = x",
     "tests/test_linalg.py::TestDictRows::test_transpose_keeps_each_column_in_its_place"),
    ("last column held dropped from the transpose of dict rows", "_linalg.py",
     "1 + max(map(max, filter(None, rows)), default=-1)",
     "max(map(max, filter(None, rows)), default=0)",
     "tests/test_linalg.py::TestDictRows::test_transpose_keeps_each_column_in_its_place"),
    ("a zero right-hand side kept as an entry in solve_right", "_linalg.py",
     "row | ({ncols: b} if b else {})", "row | {ncols: b}",
     "tests/test_linalg.py::TestNullspaceAndSolve::test_solve_right_solves_when_it_returns",
     "equivalent on every report: relation_kernel's block is unimodular, so no row is"
     " left holding only its zero right-hand side, and a kept zero divides to zero"),
    ("sign of f_x*m dropped from the Koszul boundary", "hochschild.py",
     "[py, ring.scale(px, -1)]", "[py, px]",
     "tests/test_acceptance.py::test_criterion_6_hochschild_tables"),
    ("product degree n3 -> n1 + n1 in bilinear's unchecked result", "theta.py",
     "return _element(n3, order, tuple(out))", "return _element(n1 + n1, order, tuple(out))",
     "tests/test_theta.py::TestIntegerResults::test_products_equal_their_checked_rebuild"),
    ("i == 0 -> i != 0 in QSeries.__repr__", "exactnum.py",
     "if i == 0:", "if i != 0:",
     "tests/test_exactnum.py::TestQSeries::test_repr_of_a_constant_term_and_a_skipped_zero",
     "off every report path: a report writes a series as its coefficient list"
     " (cli._ser), never as its repr"),
    ("s_min = 0 rejected as an empty window by cusp_graded_ranks", "hochschild.py",
     "n_max < 0 or s_min > 0", "n_max < 0 or s_min >= 0",
     "tests/test_hochschild.py::TestGradedRanks::test_window_with_no_negative_weight",
     "never reached at the reports' parameters: both run the hochschild suite at s_min = -12"),
    ("fields stored in reverse order by the unchecked builder", "exactnum.py",
     "for field in fields(cls))", "for field in reversed(fields(cls)))",
     "tests/test_acceptance.py::test_criterion_2_mirror_product_identity"),
    ("from_series keeps only each field's constant term", "weierstrass.py",
     "QSeries.make(ring, order, c) for c in coeff_lists",
     "QSeries.make(ring, order, c[:1]) for c in coeff_lists",
     "tests/test_acceptance.py::test_criterion_7_lie_bracket_layer"),
    ("the Tjurina quotient basis read four weights past the reporting window", "hochschild.py",
     "weight(m) <= self.report_weight", "weight(m) <= self.report_weight + 4",
     "tests/test_acceptance.py::test_criterion_6_hochschild_tables"),
]


def _first_failure(output: str) -> str:
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" ", 1)[1].split(" - ", 1)[0]
    return output.strip().splitlines()[-1] if output.strip() else "(no output)"


def _env(tree: str) -> dict:
    """The copy's source on the path."""
    return dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))


def run_fault(filename: str, old: str, new: str, killer: str):
    """Plant one fault in a temporary copy and return (tier1, reports) of that
    copy, or None when the edit does not match exactly once."""
    with tempfile.TemporaryDirectory(prefix="tatemirror-fault-") as tmp:
        for part in ("src", "tests"):
            shutil.copytree(os.path.join(ROOT, part), os.path.join(tmp, part),
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "pyproject.toml"), tmp)
        path = os.path.join(tmp, "src", "tatemirror", filename)
        with open(path) as fh:
            text = fh.read()
        if text.count(old) != 1:
            return None
        with open(path, "w") as fh:
            fh.write(text.replace(old, new))
        return tier1(tmp, killer), reports(tmp)


def tier1(tree: str, killer: str) -> tuple:
    """Tier-1 with -x on the tree: ("killed", first failing test) or
    ("survived", ...).  ``killer`` runs alone first and settles the verdict
    only when it fails (exit status 1); otherwise the full run decides.
    Hypothesis runs without its shrink phase, since only the verdict and the
    first failing test are read."""
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           "--hypothesis-profile=no-shrink"]
    for args, decides in (([killer], False), (["--continue-on-collection-errors"], True)):
        try:
            proc = subprocess.run(cmd + args, cwd=tree, env=_env(tree), capture_output=True,
                                  text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "killed", f"timed out after {TIMEOUT_S} s"
        if proc.returncode == 1 or decides and proc.returncode:
            return "killed", _first_failure(proc.stdout + proc.stderr)
    return "survived", "every tier-1 test passed"


def reports(tree: str) -> dict:
    """Check record -> passed, over the REPORT_RUNS on the tree; a record
    passes only if it passes in every run.  A run without a report is one
    failed record named after the run."""
    records = {}
    for args in REPORT_RUNS:
        run = "tatemirror " + " ".join(args)
        try:
            proc = subprocess.run([sys.executable, "-m", "tatemirror.cli", *args], cwd=tree,
                                  env=_env(tree), capture_output=True, text=True,
                                  timeout=TIMEOUT_S)
            suites = json.loads(proc.stdout)["suites"]
        except (subprocess.TimeoutExpired, ValueError, KeyError):
            records[f"{run}: no report"] = False
            continue
        for suite in suites:
            char = suite["params"].get("char")
            label = suite["suite"] + (f"[char={char}]" if char is not None else "")
            for check in suite["checks"]:
                key = f"{label}/{check['id']}"
                records[key] = records.get(key, True) and check["status"] == "pass"
    return records


def census() -> int:
    start_all = time.perf_counter()
    clean = reports(ROOT)
    for record in (r for r, ok in clean.items() if not ok):
        print(f"fails without a fault: {record}")
    failed, killed, loud, bad = set(), 0, 0, 0
    for name, filename, old, new, killer, *reason in FAULTS:
        start = time.perf_counter()
        judged = run_fault(filename, old, new, killer)
        if judged is None:
            bad += 1
            print(f"stale     {name}: edit does not match once in {filename}", flush=True)
            continue
        (status, detail), records = judged
        failing = [r for r, ok in records.items() if not ok]
        failed.update(failing)
        killed += status == "killed"
        loud += bool(failing)
        bad += status != "killed" or bool(failing) == bool(reason)
        heard = ", ".join(failing) or "silent"
        if reason or not failing:
            heard += f" (reason: {reason[0] if reason else 'none'})"
        print(f"{status:8}  {name}  ({time.perf_counter() - start:.1f} s): {detail}"
              f"; reports: {heard}", flush=True)
    print(f"{killed} of {len(FAULTS)} faults killed")
    print(f"{loud} of {len(FAULTS)} faults fail a report check")
    unfailed = [r for r in clean if r not in failed]
    print(f"{len(unfailed)} of {len(clean)} records are failed by no fault:")
    for record in unfailed:
        print(f"  {record}")
    print(f"census took {time.perf_counter() - start_all:.0f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args()
    sys.exit(census())
