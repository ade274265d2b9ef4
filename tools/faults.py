"""Planted-fault census: which deliberate faults do tier-1 and the reports catch?

    python3 tools/faults.py

Each fault is one exact text edit to a file under ``src/tatemirror``, planted
once: ``src/``, ``tests/`` and ``pyproject.toml`` are copied to a temporary
directory and the edit is applied there.  On that copy the tier-1 tests run
with ``-x``; the fault is killed when the run fails, and the first failing
test is printed.  Then ``tatemirror all`` and ``tatemirror all --order 64``
run on the same copy, and the check records (``suite[char=p]/id``) that fail
in either report are printed; the fault is silent when both reports pass.  A
fault may carry a one-line reason why no report should see it.

The census first runs both reports on the working tree and prints any record
that fails there; it ends with the records that no fault fails.  The exit
status is 1 if a fault survives tier-1, an edit no longer applies, or a fault
is silent without a reason or fails a record despite one; else 0.  Standard
library only; the working tree is never modified.
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

# (name, file under src/tatemirror, exact old text, new text[, why no report sees it])
FAULTS = [
    ("eps tie-break flipped on the p1 edge in count_perturbed", "lattice.py",
     "c1 = -(-n1 * u1 // den)", "c1 = n1 * u1 // den + 1"),
    ("one term of _row_count", "lattice.py",
     "D * n * q2 * q2 + 2 * R * q", "D * n * q2 * q2 - 2 * R * q"),
    ("sigma5 -> sigma3 in tate_coeffs", "weierstrass.py",
     "s5 = divisor_power_sum(5, n)", "s5 = divisor_power_sum(3, n)"),
    ("one sign in reparam_apply's b4", "weierstrass.py",
     "r * r * 3 - s * t * 2) * ui4", "r * r * 3 + s * t * 2) * ui4"),
    ("% p dropped from Ring.mul", "exactnum.py",
     "return (a * b) % self.p if self.kind == \"GF\" else a * b", "return a * b",
     "equivalent on every report path: a later add, sub or product reduces each result,"
     " and lie-brackets' bare fld.mul scales a residue by 0 or 1"),
    ("_global_sign accepts any s", "cli.py",
     "if all(computed[key] == [fld.coerce(s * v) for v in want]",
     "if s or all(computed[key] == [fld.coerce(s * v) for v in want]"),
    ("j_window shrunk to a third", "theta.py",
     "return math.isqrt(2 * n3 * (order + n3) // (n1 * n2)) + 2",
     "return (math.isqrt(2 * n3 * (order + n3) // (n1 * n2)) + 2) // 3"),
    ("Koszul boundary multiples left out of the stack", "hochschild.py",
     "boundary = _multiple_rows(ring, [(fy, ring.scale(fx, -1))], source, columns)",
     "boundary = []"),
    ("f*(f-1) -> f*(f+1) in lambda_exp", "theta.py",
     "whole += n * f * (f - 1) // 2", "whole += n * f * (f + 1) // 2"),
    ("+ 1 dropped from j_range's upper bound", "theta.py",
     "num // den + jmax + 1)", "num // den + jmax)",
     "equivalent: with j_window's + 2 margin the top shift it drops never has an"
     " exponent below the order"),
    ("floor instead of ceil for the mean in star_count", "fukaya.py",
     "abs(math.ceil(mean) - math.ceil(p1))", "abs(math.floor(mean) - math.ceil(p1))",
     "star_count is on no product path"),
    ("abs dropped from one star term", "fukaya.py",
     "abs(math.ceil(mean) - math.ceil(p1)) +", "(math.ceil(mean) - math.ceil(p1)) +",
     "star_count is on no product path"),
    ("coefficient product dropped in bilinear", "theta.py",
     "c12 = c1 * c2", "c12 = c1"),
    ("du dropped from the dual-number u in lie_vector_field", "weierstrass.py",
     "[[1, xi.du], [0, xi.ds]", "[[1, 0], [0, xi.ds]"),
    ("bool check dropped from Ring.coerce", "exactnum.py",
     "if isinstance(x, bool):\n            raise TypeError(\"bool is not a ring element\")\n"
     "        if self.kind == \"ZZ\":", "if self.kind == \"ZZ\":",
     "input validation that no report feeds"),
    ("stale shift table read above its order", "theta.py",
     "if row is None or row[0] < order:", "if row is None:"),
    ("extension window off by one", "theta.py",
     "row[1] + len(row) - 3", "row[1] + len(row) - 2"),
    ("old window re-read one place late", "theta.py",
     "+ row[2:]", "+ row[3:]"),
    ("right side of the nested-window guard dropped", "theta.py",
     "if window.start > lo or window.stop <= hi:", "if window.start > lo:",
     "unreachable while windows nest, as every j_range window does"),
    ("n1 for n2 in bilinear's target slot", "theta.py",
     "(m1 + m2 + n2 * j)", "(m1 + m2 + n1 * j)"),
    ("% p dropped from the GF series add", "exactnum.py",
     "tuple(c % p for c in coeffs)", "tuple(coeffs)"),
    ("minus sign dropped on the pivot entries of an integer kernel vector", "_linalg.py",
     "v[c] = -row[f] * (v[f] // row[c])", "v[c] = row[f] * (v[f] // row[c])"),
    ("bool let through PlaneCurveRing's int fast path", "hochschild.py",
     "keep = type(coeff) is int and", "keep = isinstance(coeff, int) and",
     "input validation that no report feeds"),
    ("compose orders swapped in lie_bracket", "weierstrass.py",
     "zip(reparam_compose(h, g).as_tuple(), reparam_compose(g, h).as_tuple())",
     "zip(reparam_compose(g, h).as_tuple(), reparam_compose(h, g).as_tuple())"),
    ("sign of the x* image of x*y* flipped in the dga table", "hochschild.py",
     "(\"x*\", ring.scale(fy, -1))", "(\"x*\", fy)"),
    ("first-term test dropped in bilinear, so a term overwrites its slot", "theta.py",
     "out[target] = term if held is zero else held + term", "out[target] = term"),
    ("shift truncates one coefficient late through _series", "exactnum.py",
     "self.coeffs[: max(self.order - m, 0)]", "self.coeffs[: max(self.order - m + 1, 0)]"),
    ("j and q_exponent swapped in ImmersedTriangle", "fukaya.py",
     "    j: int\n    q_exponent: int\n", "    q_exponent: int\n    j: int\n"),
    ("node check dropped from tate_normalize", "weierstrass.py",
     "if fiber is not Fiber.NODE:", "if False:",
     "the mirror's raw curve always satisfies it"),
    ("divisibility by 3 dropped from the normalizer's q = 0 step", "weierstrass.py",
     "if num % 3 or tnum % 2:", "if tnum % 2:",
     "the mirror's raw curve always satisfies it"),
    ("Koszul stabilization check dropped", "hochschild.py",
     "if lo != hi:", "if False:",
     "it never fires at the reports' bounds"),
    ("top weight dropped from monomials", "hochschild.py",
     "range(max_weight + 1)", "range(max_weight)",
     "every window shrinks by one weight, and the answers are stable"),
    ("a4 target off by one at every positive order, absorbed by the gauge", "weierstrass.py",
     "a4.append(-5 * s3)", "a4.append(-5 * s3 + 1)"),
    ("one c4 factor dropped from the j check", "cli.py",
     "c4 * c4 * c4 * (e4_cubed", "c4 * c4 * (e4_cubed"),
    ("sign of the c*x*y term flipped in the curve ring's reduction", "hochschild.py",
     "stack.append(((a + 1, b - 1), -coeff))", "stack.append(((a + 1, b - 1), coeff))"),
]


def _first_failure(output: str) -> str:
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" ", 1)[1].split(" - ", 1)[0]
    return output.strip().splitlines()[-1] if output.strip() else "(no output)"


def _env(tree: str) -> dict:
    return dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))


def run_fault(filename: str, old: str, new: str):
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
        return tier1(tmp), reports(tmp)


def tier1(tree: str) -> tuple:
    """Tier-1 with -x on the tree: ("killed", first failing test) or
    ("survived", ...)."""
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           "--continue-on-collection-errors"]
    try:
        proc = subprocess.run(cmd, cwd=tree, env=_env(tree), capture_output=True,
                              text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "killed", f"timed out after {TIMEOUT_S} s"
    if proc.returncode == 0:
        return "survived", "every tier-1 test passed"
    return "killed", _first_failure(proc.stdout + proc.stderr)


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
    clean = reports(ROOT)
    for record in (r for r, ok in clean.items() if not ok):
        print(f"fails without a fault: {record}")
    failed, killed, loud, bad = set(), 0, 0, 0
    for name, filename, old, new, *reason in FAULTS:
        start = time.perf_counter()
        judged = run_fault(filename, old, new)
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
    return 1 if bad else 0


if __name__ == "__main__":
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args()
    sys.exit(census())
