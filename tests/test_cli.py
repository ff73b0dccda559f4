"""Command-line front end: golden outputs, exit codes, determinism."""

import json

import pytest

from commvar.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPoincare:
    def test_torus_rank_two_golden(self, capsys):
        code, out, _ = run(capsys, "poincare", "--space", "cn", "--variety", "torus", "-n", "2")
        assert code == 0
        assert out == "1 - u - u^3 + u^4\n"

    def test_flag_needs_no_variety(self, capsys):
        code, out, _ = run(capsys, "poincare", "--space", "flag", "-n", "3")
        assert code == 0
        assert out == "1 + 2*u^2 + 2*u^4 + u^6\n"

    def test_coh_is_rational(self, capsys):
        code, out, _ = run(capsys, "poincare", "--space", "coh", "--variety", "point", "-n", "2")
        assert code == 0
        assert out == "1/(1 - u^2 - u^4 + u^6)\n"

    def test_absolute_flag_warns(self, capsys):
        code, out, err = run(
            capsys, "poincare", "--variety", "torus", "-n", "2", "--absolute"
        )
        assert code == 0
        assert out == "1 + u + u^3 + u^4\n"
        assert "signs" in err

    def test_missing_variety(self, capsys):
        code, _, err = run(capsys, "poincare", "-n", "2")
        assert code == 2
        assert "--variety" in err

    def test_descriptor_file_input(self, capsys, tmp_path):
        path = tmp_path / "v.json"
        path.write_text(
            json.dumps({"strata": [{"deg": 0, "dim": 1}, {"deg": 1, "dim": 1}]})
        )
        code, out, _ = run(capsys, "poincare", "--variety", str(path), "-n", "2")
        assert code == 0
        assert out == "1 - u - u^3 + u^4\n"


class TestChar:
    def test_flag_two_golden(self, capsys):
        code, out, _ = run(capsys, "char", "--flag", "2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "schur: s[2] + u^2*s[1,1]"
        assert lines[1].startswith("p: ")

    def test_variety_character_with_trace(self, capsys):
        code, out, _ = run(
            capsys, "char", "--variety", "torus", "-n", "2", "--cycle-type", "1^2"
        )
        assert code == 0
        assert "trace (1,1): 1 - 2*u + u^2" in out

    def test_cycle_type_size_mismatch(self, capsys):
        code, _, err = run(
            capsys, "char", "--variety", "torus", "-n", "2", "--cycle-type", "(3)"
        )
        assert code == 2
        assert "not a partition of 2" in err

    @pytest.mark.parametrize("cycle", ["(a,1)", "2^", "(0,2)"])
    def test_bad_cycle_type_names_the_option(self, capsys, cycle):
        code, out, err = run(
            capsys, "char", "--variety", "torus", "-n", "2", "--cycle-type", cycle
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: --cycle-type")
        assert "invalid literal" not in err
        assert len(err.splitlines()) == 1

    def test_needs_flag_or_variety(self, capsys):
        code, _, err = run(capsys, "char")
        assert code == 2
        assert "--flag" in err


class TestSeries:
    def test_betti_table(self, capsys):
        code, out, _ = run(capsys, "series", "betti", "--variety", "p1", "--t-order", "2")
        assert code == 0
        assert out == "t^0: 1\nt^1: 1 + u^2\nt^2: 1 + u^2 + u^4\n"

    def test_coh_verdict(self, capsys):
        code, out, _ = run(
            capsys, "series", "coh", "--variety", "torus", "--t-order", "3", "--u-order", "10"
        )
        assert code == 0
        assert out.splitlines()[-1] == "verdict: equal"

    def test_groupoid_table(self, capsys):
        code, out, _ = run(
            capsys, "series", "groupoid", "--variety", "punctured", "-q", "3", "--t-order", "2"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[1].startswith("t^1: 1/2")
        assert lines[-1] == "verdict: equal"

    def test_groupoid_warns_for_non_curves(self, capsys):
        code, out, err = run(
            capsys, "series", "groupoid", "--variety", "point", "-q", "2", "--t-order", "1"
        )
        assert code == 0
        assert "not a smooth curve" in err
        assert out.splitlines()[-1] == "verdict: equal"

    def test_zeta(self, capsys):
        code, out, _ = run(capsys, "series", "zeta", "--variety", "torus", "-q", "2")
        assert code == 0
        assert out == "(1 - t)/(1 - 2*t)\n"

    def test_stable(self, capsys):
        code, out, _ = run(
            capsys, "series", "stable", "--variety", "p1", "--u-order", "6"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "stable: 1 + u^2 + 2*u^4 + 3*u^6"
        assert lines[-1] == "verdict: equal"

    def test_groupoid_requires_q(self, capsys):
        code, _, err = run(capsys, "series", "groupoid", "--variety", "torus")
        assert code == 2
        assert "-q is required" in err


class TestCount:
    def test_torus(self, capsys):
        code, out, _ = run(
            capsys, "count", "--family", "torus", "--dim", "1", "--n", "2", "--q", "2"
        )
        assert code == 0
        assert out == "6\n"

    def test_punctured_avoid_list(self, capsys):
        code, out, _ = run(
            capsys,
            "count", "--family", "punctured", "--n", "1", "--q", "5", "--avoid", "0,1,2",
        )
        assert code == 0
        assert out == "2\n"

    def test_budget_exceeded_exit_code(self, capsys):
        code, _, err = run(
            capsys,
            "count", "--family", "affine", "--dim", "2", "--n", "2", "--q", "3",
            "--budget", "10",
        )
        assert code == 3
        assert "budget" in err


    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_nonpositive_budget_rejected(self, capsys, budget):
        code, out, err = run(
            capsys,
            "count", "--family", "torus", "--n", "2", "--q", "2", "--budget", budget,
        )
        assert code == 2
        assert out == ""
        assert err == f"error: --budget must be a positive integer, got {budget}\n"

    def test_bad_budget_env_is_an_error_for_count_only(self, capsys, monkeypatch):
        monkeypatch.setenv("COMMVAR_BUDGET", "abc")
        code, _, err = run(capsys, "count", "--family", "torus", "--n", "1", "--q", "2")
        assert code == 2
        assert err.startswith("error: COMMVAR_BUDGET")
        code, out, _ = run(capsys, "poincare", "--variety", "torus", "-n", "2")
        assert code == 0
        assert out == "1 - u - u^3 + u^4\n"

    @pytest.mark.parametrize("argv", [["--help"], ["count", "--help"]])
    def test_help_does_not_read_budget_env(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COMMVAR_BUDGET", "abc")
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage: commvar" in capsys.readouterr().out


class TestVerify:
    def test_pointcounts_at_two(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "pointcounts", "-q", "2")
        assert code == 0
        assert out == "point-counts: PASS (8 cross-checks)\n"

    def test_unknown_suite(self, capsys):
        code, _, err = run(capsys, "verify", "--suite", "zebra")
        assert code == 2
        assert "unknown suite" in err

    def test_single_fast_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "macdonald")
        assert code == 0
        assert out.startswith("macdonald-zeta: PASS")


class TestFailureExitCodes:
    def test_series_mismatch_exits_one(self, capsys, monkeypatch):
        import commvar.cli as cli
        from commvar.arith import TSeries
        from commvar.series import SeriesReport

        fake = SeriesReport(TSeries([1, 2]), TSeries([1, 3]), 1, None, False, 1)
        monkeypatch.setattr(cli, "coh_series", lambda *a, **k: fake)
        code, out, _ = run(capsys, "series", "coh", "--variety", "point")
        assert code == 1
        assert out.splitlines()[-1] == "verdict: mismatch at t^1"

    def test_verify_failure_exits_one(self, capsys, monkeypatch):
        import commvar.cli as cli
        from commvar.verify import CheckResult

        monkeypatch.setattr(
            cli, "run_suite", lambda *a, **k: [CheckResult("fake", False, "boom")]
        )
        code, out, _ = run(capsys, "verify")
        assert code == 1
        assert "fake: FAIL (boom)" in out
        assert "1 of 1 checks failed" in out


class TestErrorsAndDeterminism:
    def test_unknown_variety(self, capsys):
        code, _, err = run(capsys, "poincare", "--variety", "zebra", "-n", "2")
        assert code == 2
        assert "zebra" in err

    def test_malformed_descriptor(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"strata": [{"dim": 1}]}')
        code, _, err = run(capsys, "poincare", "--variety", str(path), "-n", "1")
        assert code == 2
        assert "deg" in err

    def test_byte_identical_reruns(self, capsys):
        outputs = []
        for _ in range(2):
            _, out, _ = run(
                capsys, "series", "coh", "--variety", "p1", "--t-order", "3", "--u-order", "8"
            )
            outputs.append(out)
        assert outputs[0] == outputs[1]
