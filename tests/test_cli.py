import dataclasses
import functools
import json
import pathlib
import types

import pytest

from tatemirror import cli, fukaya, hochschild, weierstrass
from tatemirror.errors import InvariantError, StabilizationError
from tatemirror.exactnum import ZZ, QSeries


def run(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr().out
    return code, json.loads(out)


def strip_durations(doc):
    doc = dict(doc)
    doc.pop("duration_seconds", None)
    for suite in doc.get("suites", []):
        suite.pop("duration_seconds", None)
    return doc


class TestExitCodes:
    def test_dehn_table_passes(self, capsys):
        code, doc = run(["dehn-table"], capsys)
        assert code == 0
        assert doc["passed"] is True

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["dehn-table", "--frobnicate"])
        assert exc.value.code == 2

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["no-such-suite"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["mirror-map", "--order", "0"],
        ["verify-theta", "--order", "0"],
        ["all", "--order", "0"],
        ["hochschild", "--window", "3,5"],
        ["hochschild", "--char", "4"],
        ["lie-brackets", "--char", "1"],
        ["verify-lattice", "--max-degree", "-3"],
        ["verify-theta", "--max-degree", "-3"],
    ], ids=" ".join)
    def test_bad_parameter_exits_2_with_usage(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def test_empty_lattice_suite_passes(self, capsys):
        code, doc = run(["verify-lattice", "--max-degree", "0"], capsys)
        assert code == 0
        assert doc["checks"] == []
        assert doc["passed"] is True



class TestUnwritableOut:
    @pytest.mark.parametrize("place", ["before-command", "after-command"])
    @pytest.mark.parametrize("target", ["missing-directory", "a-directory"])
    def test_exits_2_before_any_suite_runs(self, place, target, tmp_path, monkeypatch,
                                           capsys):
        path = str(tmp_path / "missing" / "x.json" if target == "missing-directory"
                   else tmp_path)
        ran = []
        monkeypatch.setattr(cli, "run_dehn_suite", lambda: ran.append("dehn-table"))
        argv = (["--out", path, "dehn-table"] if place == "before-command"
                else ["dehn-table", "--out", path])
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and f"cannot write --out {path}" in err
        assert "Traceback" not in err
        assert ran == []


class TestReports:
    def test_mirror_map_order_one(self, capsys):
        code, doc = run(["mirror-map", "--order", "1"], capsys)
        assert code == 0
        coeffs = {c["id"]: c["actual"] for c in doc["checks"]
                  if c["id"].startswith("coefficient-")}
        assert coeffs == {"coefficient-a1": ["1"], "coefficient-a2": ["0"],
                          "coefficient-a3": ["0"], "coefficient-a4": ["0"],
                          "coefficient-a6": ["0"]}

    def test_emit_relation(self, capsys):
        code, doc = run(["mirror-map", "--order", "2", "--emit-relation"], capsys)
        assert code == 0
        ids = [c["id"] for c in doc["checks"]]
        assert "relation-y'^2" in ids and "rescaling-unit" in ids

    def test_report_shape(self, capsys):
        _, doc = run(["lie-brackets", "--char", "3"], capsys)
        assert set(doc) == {"suite", "params", "passed", "n_checks", "checks",
                            "duration_seconds"}
        for check in doc["checks"]:
            assert set(check) == {"id", "anchor", "status", "expected", "actual"}

    def test_deterministic_output(self, capsys):
        _, first = run(["verify-lattice", "--max-degree", "5"], capsys)
        _, second = run(["verify-lattice", "--max-degree", "5"], capsys)
        assert strip_durations(first) == strip_durations(second)

    def test_all_records_each_suites_own_duration(self, capsys, monkeypatch):
        clock = [0.0]

        def stub(name, seconds):
            @cli._suite(name)
            def suite(*args):
                clock[0] += seconds
                yield from ()
            return suite

        for seconds, name in enumerate(
                ("lattice", "theta", "dehn", "mirror", "hochschild", "lie"), 1):
            monkeypatch.setattr(cli, f"run_{name}_suite", stub(name, seconds))
        fake_time = types.SimpleNamespace(perf_counter=lambda: clock[0])
        monkeypatch.setattr(cli, "time", fake_time)
        code, doc = run(["all"], capsys)
        assert code == 0
        assert [(s["suite"], s["duration_seconds"]) for s in doc["suites"]] == [
            ("lattice", 1), ("theta", 2), ("dehn", 3), ("mirror", 4),
            *[("hochschild", 5)] * 4, *[("lie", 6)] * 3]

    # the report of `tatemirror all` at its defaults, every duration_seconds
    # removed; after a deliberate change to a report, rewrite it with
    #   PYTHONPATH=src python3 -m tatemirror.cli all | python3 -c 'import json, sys;
    #   d = json.load(sys.stdin); [s.pop("duration_seconds") for s in d["suites"]];
    #   print(json.dumps(d, indent=2, sort_keys=True))' > tests/golden_all_report.json
    GOLDEN = pathlib.Path(__file__).with_name("golden_all_report.json")

    def test_all_matches_the_golden_report(self, capsys):
        code, doc = run(["all"], capsys)
        assert code == 0
        assert strip_durations(doc) == json.loads(self.GOLDEN.read_text())

    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        code = cli.main(["--out", str(path), "dehn-table"])
        capsys.readouterr()
        assert code == 0
        doc = json.loads(path.read_text())
        assert doc["suite"] == "dehn-table"

    def test_hochschild_window_flag(self, capsys):
        code, doc = run(["hochschild", "--char", "2", "--window", "4,-8"], capsys)
        assert code == 0
        assert doc["params"]["n_max"] == 4 and doc["params"]["s_min"] == -8

    def test_failing_check_gives_exit_1(self, capsys, monkeypatch):
        import tatemirror.fukaya as fukaya
        from tatemirror.errors import VerificationFailure

        def broken():
            raise VerificationFailure("product z'^2: fabricated mismatch")

        monkeypatch.setattr(fukaya, "dehn_table_q0", broken)
        code, doc = run(["dehn-table"], capsys)
        assert code == 1
        assert doc["passed"] is False

    def test_wrong_dehn_product_fails_only_its_own_checks(self, capsys, monkeypatch):
        import tatemirror.fukaya as fukaya

        power = fukaya._power
        monkeypatch.setattr(fukaya, "_power", lambda x, n: power(x, n).scale(2))
        code, doc = run(["dehn-table"], capsys)
        assert code == 1
        assert len(doc["checks"]) == 12
        assert [c["id"] for c in doc["checks"] if c["status"] != "pass"] == [
            "zeta1^3 = theta3", "y'^2 + x'^3 = x'*y'*z'"]

    def test_lattice_mismatches_are_listed(self, monkeypatch):
        import tatemirror.lattice as lattice

        row_count = lattice.row_formula_count
        monkeypatch.setattr(lattice, "row_formula_count", lambda *a: row_count(*a) + 1)
        counts, shifts = cli.run_lattice_suite(2).checks
        assert (counts.id, counts.status, shifts.status) == ("counts-1-1", "fail", "pass")
        assert counts.expected == "3-way agreement on 15 triangles"
        # (p1, p2 + j, count, row, exponent) for each of the 15 shifts j
        assert [m[:2] for m in counts.actual] == [("0", str(j)) for j in range(-7, 8)]
        assert all(row == count + 1 and str(count) == lam
                   for _, _, count, row, lam in counts.actual)

    def test_failed_skew_pairing_is_a_record_and_the_suite_goes_on(self, capsys,
                                                                  monkeypatch):
        from tatemirror.errors import VerificationFailure

        def broken(ring, generators):
            raise VerificationFailure("fabricated nonzero pairing")

        monkeypatch.setattr(hochschild, "omega_pairing", broken)
        code, doc = run(["hochschild"], capsys)
        assert code == 1
        assert [(c["id"], c["actual"]) for c in doc["checks"] if c["status"] != "pass"] == [
            ("cusp-skew-pairing", "fabricated nonzero pairing"),
            ("node-skew-pairing", "fabricated nonzero pairing")]
        assert doc["checks"][-1]["id"] == "dga-is-a-complex"

    def test_absent_values_are_null(self, capsys):
        code, doc = run(["verify-lattice", "--max-degree", "2"], capsys)
        assert code == 0
        check = next(c for c in doc["checks"] if c["id"] == "translation-invariance")
        assert check["expected"] is None and check["actual"] is None


class TestLieSuites:
    @pytest.mark.parametrize("char", [0, 2, 3])
    def test_pass_and_record_sign(self, char, capsys):
        code, doc = run(["lie-brackets", "--char", str(char)], capsys)
        assert code == 0
        if char in (2, 3):
            adj = next(c for c in doc["checks"] if c["id"] == "adjoint-table")
            assert adj["actual"] == "global sign 1"

    @staticmethod
    def check(report, check_id):
        return next(c for c in report.checks if c.id == check_id)

    def test_extra_ds_component_fails_degree_one_table(self, monkeypatch):
        # characteristic 3 labels no generator by ds, so only a whole-vector
        # comparison sees the extra component
        original = weierstrass.lie_bracket

        def skewed(xi, eta):
            br = original(xi, eta)
            return dataclasses.replace(br, ds=xi.ring.add(br.ds, xi.ring.one()))

        monkeypatch.setattr(weierstrass, "lie_bracket", skewed)
        report = cli.run_lie_suite(3)
        assert self.check(report, "degree-one-bracket-table").status == "fail"

    def test_negated_bracket_fails_the_degree_one_table(self, monkeypatch):
        # the negated table still matches up to a global sign, but not at the
        # recorded one
        original = weierstrass.lie_bracket

        def negated(xi, eta):
            br = original(xi, eta)
            return weierstrass.LieElement(xi.ring, *(xi.ring.coerce(-v) for v in br.as_vector()))

        monkeypatch.setattr(weierstrass, "lie_bracket", negated)
        report = cli.run_lie_suite(3)
        check = self.check(report, "degree-one-bracket-table")
        assert (check.status, check.expected, check.actual) == (
            "fail", "global sign -1", "global sign 1")
        assert self.check(report, "adjoint-table").status == "pass"

    def test_adjoint_component_outside_labels_is_a_failed_check(self, monkeypatch):
        original = weierstrass.adjoint_bracket

        def skewed(xi, w):
            vec = original(xi, w)
            return [xi.ring.add(vec[0], xi.ring.one())] + vec[1:]  # along a1

        monkeypatch.setattr(weierstrass, "adjoint_bracket", skewed)
        report = cli.run_lie_suite(3)
        assert self.check(report, "adjoint-table").status == "fail"

    def test_one_d_matrix_for_the_suite_and_one_for_the_projection(self, monkeypatch):
        original = weierstrass.lie_d_matrix
        calls = []
        monkeypatch.setattr(weierstrass, "lie_d_matrix",
                            lambda ring: calls.append(ring) or original(ring))
        weierstrass._coker_projection.cache_clear()
        for char in (0, 2, 3, 5, 7):
            assert cli.run_lie_suite(char).passed
        assert len(calls) == 10


class TestDgaComplexCheck:
    def test_flipped_image_sign_fails_the_check_and_exits_1(self, capsys, monkeypatch):
        # the ranks stay plausible with this sign slip; only d*d sees it
        original = hochschild._dga_images

        def flipped(ring):
            images = dict(original(ring))
            images["xy"] = (images["xy"][0], ("x*", ring.f_y()))
            return images

        monkeypatch.setattr(hochschild, "_dga_images", flipped)
        code, doc = run(["hochschild", "--char", "0"], capsys)
        assert code == 1
        assert [c["id"] for c in doc["checks"] if c["status"] != "pass"] == [
            "dga-is-a-complex"]
        check = doc["checks"][-1]
        assert check["id"] == "dga-is-a-complex" and check["expected"] == "0"
        assert int(check["actual"]) > 0


def unstable_koszul(ring, bound=10):
    raise StabilizationError("fabricated: raise the bound")


def broken_lie_d_matrix(ring):
    raise InvariantError("fabricated rank defect")


class TestSuiteContract:
    """Each suite's defaults live in its signature, and an exception escaping
    a suite is one failed check named after it, after the checks before it."""

    @staticmethod
    def split_last(doc):
        *earlier, last = doc["checks"]
        assert all(c["status"] == "pass" for c in earlier)
        return len(earlier), last

    def test_hochschild_exception_is_a_failed_check(self, capsys, monkeypatch):
        monkeypatch.setattr(hochschild, "koszul_h1_dim", unstable_koszul)
        code, doc = run(["hochschild"], capsys)
        assert code == 1 and doc["passed"] is False
        # seven cusp rows and the Tjurina dimension come before the Koszul pass
        assert self.split_last(doc) == (8, {
            "id": "hochschild", "anchor": "suite-completes", "status": "fail",
            "expected": None, "actual": "StabilizationError: fabricated: raise the bound"})

    def test_lie_exception_is_a_failed_check(self, capsys, monkeypatch):
        original = weierstrass.lie_d_matrix
        calls = []

        def fails_on_reuse(ring):
            calls.append(ring)
            if len(calls) > 1:
                raise InvariantError("fabricated rank defect")
            return original(ring)

        monkeypatch.setattr(weierstrass, "lie_d_matrix", fails_on_reuse)
        weierstrass._coker_projection.cache_clear()  # so the adjoint tables rebuild d
        code, doc = run(["lie-brackets", "--char", "3"], capsys)
        assert code == 1 and doc["passed"] is False
        count, last = self.split_last(doc)
        assert count == 3
        assert (last["id"], last["status"], last["actual"]) == (
            "lie-brackets", "fail", "InvariantError: fabricated rank defect")

    def test_all_still_runs_every_other_suite(self, capsys, monkeypatch):
        monkeypatch.setattr(hochschild, "koszul_h1_dim", unstable_koszul)
        monkeypatch.setattr(weierstrass, "lie_d_matrix", broken_lie_d_matrix)
        # the real lattice and theta suites on a smaller grid, to keep this fast
        for name in ("lattice", "theta"):
            suite = getattr(cli, f"run_{name}_suite")
            monkeypatch.setattr(cli, f"run_{name}_suite",
                                functools.partial(suite, max_degree=4))
        code, doc = run(["all"], capsys)
        assert code == 1
        assert all(s["checks"] for s in doc["suites"])
        assert [(s["suite"], [c["id"] for c in s["checks"] if c["status"] != "pass"])
                for s in doc["suites"]] == [
            ("verify-lattice", []), ("verify-theta", []), ("dehn-table", []),
            ("mirror-map", []), *[("hochschild", ["hochschild"])] * 4,
            *[("lie-brackets", ["lie-brackets"])] * 3]

    DEFAULTS = [
        (["mirror-map"], {"order": 8, "emit_relation": False}),
        (["hochschild"], {"char": 0, "n_max": 8, "s_min": -12, "bound": 10}),
        (["lie-brackets"], {"char": 0}),
        (["dehn-table"], {}),
        (["verify-lattice", "--max-degree", "3"], {"max_degree": 3, "exponent_cap": 12}),
        (["verify-theta", "--max-degree", "3"], {"order": 10, "max_degree": 3}),
    ]

    @pytest.mark.parametrize("argv, params", DEFAULTS,
                             ids=[" ".join(argv) for argv, _ in DEFAULTS])
    def test_omitted_options_report_signature_defaults(self, argv, params, capsys):
        code, doc = run(argv, capsys)
        assert code == 0
        assert doc["params"] == params

    def test_mirror_map_reports_the_relation_certificate(self, capsys):
        _, doc = run(["mirror-map", "--order", "2"], capsys)
        cert = next(c for c in doc["checks"] if c["id"] == "relation-unimodular")
        assert cert["status"] == "pass"
        assert cert["expected"] == cert["actual"] == ["1", "1"]


class TestEveryPrime:
    # the characteristic rule is stated once: every prime from 7 on behaves
    # like characteristic 0, with dim T = 2 and the scaling eigenvalues
    PRIMES = [p for p in range(7, 48) if all(p % d for d in range(2, p))]

    @pytest.mark.parametrize("char", PRIMES)
    def test_suites_pass(self, char):
        hoch = cli.run_hochschild_suite(char)
        lie = cli.run_lie_suite(char)
        assert hoch.passed and len(hoch.checks) >= 13
        assert lie.passed and len(lie.checks) >= 5


class TestSuiteClockAndCount:
    def test_a_directly_called_suite_records_its_own_duration(self, monkeypatch):
        ticks = iter([10.0, 12.25])
        monkeypatch.setattr(cli, "time", types.SimpleNamespace(perf_counter=lambda: next(ticks)))
        assert cli.run_dehn_suite().duration_seconds == 2.25

    def test_the_clock_stops_after_the_suite_completes_record(self, monkeypatch):
        clock = [0.0]
        monkeypatch.setattr(cli, "time", types.SimpleNamespace(perf_counter=lambda: clock[0]))
        monkeypatch.setattr(cli.sys, "excepthook", lambda *exc_info: None)

        @cli._suite("halts")
        def halts():
            clock[0] += 1.5
            yield "first", "anchor", True, None, None
            clock[0] += 2
            raise ValueError("fabricated")

        report = halts()
        assert [c.anchor for c in report.checks] == ["anchor", "suite-completes"]
        assert report.duration_seconds == 3.5

    @pytest.mark.parametrize("argv, n_checks", [
        (["verify-lattice", "--max-degree", "0"], 0),
        (["verify-lattice", "--max-degree", "1"], 0),
        (["verify-theta", "--max-degree", "1"], 0),
        (["dehn-table"], 12),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
    def test_every_report_counts_its_checks(self, argv, n_checks, capsys):
        code, doc = run(argv, capsys)
        assert code == 0
        assert doc["n_checks"] == len(doc["checks"]) == n_checks


class TestJInvariant:
    """The j record compares the raw mirror curve with the Tate curve through
    c4^3 / Delta, which no reparametrization changes."""

    @staticmethod
    def statuses(doc):
        return {c["id"]: c["status"] for c in doc["checks"]}

    @pytest.mark.parametrize("order", [1, 2, 8, 16])
    def test_passes_on_the_mirror(self, order, capsys):
        code, doc = run(["mirror-map", "--order", str(order)], capsys)
        assert code == 0
        ids = [c["id"] for c in doc["checks"]]
        assert ids.index("j-invariant") == ids.index("relation-unimodular") - 1
        assert self.statuses(doc)["j-invariant"] == "pass"

    def test_fails_on_a_perturbed_raw_curve(self, capsys, monkeypatch):
        mirror = fukaya.mirror_weierstrass

        def perturbed(order):
            res = mirror(order)
            a6 = res.raw.a6 + QSeries.make(ZZ, order, [0, 0, 1])
            return dataclasses.replace(res, raw=dataclasses.replace(res.raw, a6=a6))

        monkeypatch.setattr(fukaya, "mirror_weierstrass", perturbed)
        code, doc = run(["mirror-map"], capsys)
        assert code == 1
        assert [i for i, s in self.statuses(doc).items() if s != "pass"] == ["j-invariant"]

    def test_a_wrong_a4_target_fails_a6_but_not_j(self, capsys, monkeypatch):
        # the gauge slice absorbs a wrong a4 target; j shows the mirror is
        # still the Tate curve, so the fault is on the Tate side
        tate_coeffs = weierstrass.tate_coeffs

        def wrong_a4(order):
            a4, a6 = tate_coeffs(order)
            return a4 + QSeries.make(ZZ, order, [0, 1]), a6

        monkeypatch.setattr(weierstrass, "tate_coeffs", wrong_a4)
        code, doc = run(["mirror-map"], capsys)
        assert code == 1
        assert [i for i, s in self.statuses(doc).items() if s != "pass"] == ["coefficient-a6"]
