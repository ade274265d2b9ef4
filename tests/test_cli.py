import dataclasses
import json
import types

import pytest

from tatemirror import cli, weierstrass


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
        assert set(doc) == {"suite", "params", "passed", "checks", "duration_seconds"}
        for check in doc["checks"]:
            assert set(check) == {"id", "anchor", "status", "expected", "actual"}

    def test_deterministic_output(self, capsys):
        _, first = run(["verify-lattice", "--max-degree", "5"], capsys)
        _, second = run(["verify-lattice", "--max-degree", "5"], capsys)
        assert strip_durations(first) == strip_durations(second)

    def test_all_records_each_suites_own_duration(self, capsys, monkeypatch):
        clock = [0.0]

        def stub(name, seconds):
            def suite(*args):
                clock[0] += seconds
                return cli.VerificationReport(name, {})
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

    def test_adjoint_component_outside_labels_is_a_failed_check(self, monkeypatch):
        original = weierstrass.adjoint_bracket

        def skewed(xi, w):
            vec = original(xi, w)
            return [xi.ring.add(vec[0], xi.ring.one())] + vec[1:]  # along a1

        monkeypatch.setattr(weierstrass, "adjoint_bracket", skewed)
        report = cli.run_lie_suite(3)
        assert self.check(report, "adjoint-table").status == "fail"


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
