"""Command-line front end: golden outputs, exit codes, determinism."""

import argparse
import hashlib
import json
import os
import random
import re
import shlex
import signal
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from commvar import arith, charmodel, oracle, varieties
from commvar.arith import Poly, RatFunc
from commvar.cli import COMMANDS, _fast_parse, _int, build_parser, main
from commvar.symfunc import q_pochhammer
from replay import GOLDEN, MORE_COMMANDS, child_record, readme_examples
from test_charmodel import fermionic_side

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_within_a_second(capsys, *argv):
    """``run``, raising TimeoutError if the command takes over 1 s."""

    def too_slow(signum, frame):
        raise TimeoutError(f"{' '.join(argv)} took over 1 s")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        return run(capsys, *argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def child_env() -> dict:
    """The environment of a fresh interpreter that writes no bytecode and
    imports ``commvar`` from ``src``."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(*argv, timeout, **kwargs):
    """Run the CLI in a fresh interpreter that writes no bytecode."""
    return subprocess.run(
        [sys.executable, "-m", "commvar.cli", *argv],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=timeout,
        **kwargs,
    )


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

    @pytest.mark.parametrize(
        "argv, den",
        [
            (
                ["--space", "coh", "--variety", "p1"],
                "-1 + 2*u^2 - u^4 + u^6 - 2*u^8 + u^10",
            ),
            (["--space", "bgln"], "-1 + u^2 + u^4 - u^8 - u^10 + u^12"),
        ],
    )
    def test_absolute_needs_a_polynomial(self, capsys, argv, den):
        # the message names the option and the denominator made monic
        code, out, err = run(capsys, "poincare", *argv, "-n", "3", "--absolute")
        assert (code, out) == (2, "")
        assert err == f"error: --absolute: not a polynomial: denominator {den} remains\n"

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

    # an empty --cycle-type was once ignored (no trace line, exit 0); a blank
    # one was already read as the empty partition, and "( )" was rejected
    @pytest.mark.parametrize("cycle", ["", "  ", "( )"])
    def test_empty_cycle_type_is_the_empty_partition(self, capsys, cycle):
        code, out, err = run(
            capsys, "char", "--variety", "p1", "-n", "3", "--cycle-type", cycle
        )
        assert (code, out) == (2, "")
        assert err == "error: --cycle-type () is not a partition of 3\n"

    # the empty partition is the one partition of 0, so there it is traced
    @pytest.mark.parametrize("cycle", ["", "  ", "()", "( )"])
    def test_empty_cycle_type_is_traced_at_n_zero(self, capsys, cycle):
        code, out, err = run(
            capsys, "char", "--variety", "p1", "-n", "0", "--cycle-type", cycle
        )
        assert (code, out, err) == (0, "trace (): 1\nschur: s[]\np: p[]\n", "")

    # without -q a q^k token reads as 1 and a rational eigenvalue is kept;
    # one token once set every eigenvalue to 1, the 1/2 included
    @pytest.mark.parametrize("n", [1, 2])
    def test_token_without_q_keeps_rational_eigenvalues(self, capsys, tmp_path, n):
        texts = {}
        for name, eig in (("mixed", "q^-1"), ("plain", "1")):
            path = tmp_path / f"{name}.json"
            strata = [{"deg": 0, "eigenvalue": "1/2"}, {"deg": 1, "eigenvalue": eig}]
            path.write_text(json.dumps({"strata": strata}))
            code, texts[name], err = run(capsys, "char", "--variety", str(path), "-n", str(n))
            assert (code, err) == (0, "")
        assert texts["mixed"] == texts["plain"]
        if n == 1:
            assert texts["mixed"] == "schur: (1/2 - u)*s[1]\np: (1/2 - u)*p[1]\n"
        else:
            assert "p: (1/8 - 1/2*u^2)*p[2] + (1/8 - 1/2*u + 1/2*u^2)*p[1,1]\n" in texts["mixed"]

    # (3,0) without its zero part, and the last four, were once read as
    # partitions of 3
    @pytest.mark.parametrize(
        "cycle", ["(a,1)", "2^", "(3,0)", "((2,1]", ")2,1(", "[2,1)", "(+2,1)"]
    )
    def test_bad_cycle_type_names_the_option(self, capsys, cycle):
        code, out, err = run(
            capsys, "char", "--variety", "torus", "-n", "3", "--cycle-type", cycle
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: --cycle-type")
        assert "invalid literal" not in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("variety", ["torus", "p1"])
    @pytest.mark.parametrize("q", ["6", "1", "0"])
    def test_q_must_be_a_prime_power(self, capsys, variety, q):
        code, out, err = run(capsys, "char", "--variety", variety, "-n", "2", "-q", q)
        assert code == 2
        assert out == ""
        assert err == f"error: -q must be a prime power, got {q}\n"

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

    def test_groupoid_high_order_is_fast(self):
        # one pass of the rank recurrence; the partition sum per rank took
        # about 13 s on a 2-vCPU VM
        argv = ["series", "groupoid", "--variety", "p1", "-q", "5", "--t-order", "30"]
        proc = run_child(*argv, timeout=5)
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[-1] == "verdict: equal"

    def test_betti_of_a_high_dimensional_torus_is_fast(self, capsys):
        # the factor (1 - u^10 t)^-C(20, 10) is one binomial pass, not
        # 184,756 passes (3.9 s on a 2-vCPU VM); the digest is the output
        # of those repeated passes
        argv = ["series", "betti", "--variety", "torus", "--dim", "20", "--t-order", "2"]
        code, out, err = run_within_a_second(capsys, *argv)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
            "7bc7e0eceb23ed3efd2be6f756cbea76ff81e1b89f142695eae0c533de6f18bf"
        )

    def test_stable_betti_of_a_high_dimensional_torus_is_fast(self, capsys):
        # the factor (1 - u)^C(20, 1) and its like take at most
        # u_order // a binomial passes each, not C(20, i) passes (about
        # 3 s on a 2-vCPU VM); the digest is the output of those passes
        argv = ["series", "stable", "--variety", "torus", "--dim", "20", "--u-order", "4"]
        code, out, err = run_within_a_second(capsys, *argv)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
            "c6dfd90d0b781d0714a50d2d2e576d1d9ec93af563386140ceb62ca15fdbb304"
        )

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

    def test_zeta_over_a_ten_digit_prime(self):
        # q = 10^9 + 7 is prime: factoring it must not try every p <= q
        proc = run_child("series", "zeta", "--variety", "torus", "-q", "1000000007", timeout=20)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == "(1 - t)/(1 - 1000000007*t)\n"

    @pytest.mark.parametrize(
        "q", ["1000000014000000049", "1000000000000000003"], ids=["prime-squared", "prime"]
    )
    def test_zeta_over_a_large_prime_power(self, q):
        # (10^9 + 7)^2 and the prime 10^18 + 3: trial division would take
        # about 10^9 steps to reach the prime
        proc = run_child("series", "zeta", "--variety", "torus", "-q", q, timeout=10)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == f"(1 - t)/(1 - {q}*t)\n"

    def test_rejects_a_prime_beyond_the_primality_bound(self):
        q = str(2**89 - 1)
        proc = run_child("series", "zeta", "--variety", "torus", "-q", q, timeout=10)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == (
            f"error: cannot decide whether {q} is prime: Miller-Rabin on the "
            "prime bases up to 41 is exact only below 3317044064679887385961981\n"
        )

    def test_groupoid_requires_q(self, capsys):
        code, _, err = run(capsys, "series", "groupoid", "--variety", "torus")
        assert code == 2
        assert "-q is required" in err

    @pytest.mark.parametrize(
        "kind, option, value",
        [
            ("zeta", "--t-order", "3"),
            ("stable", "--t-order", "3"),
            ("betti", "--u-order", "5"),
            ("groupoid", "--u-order", "5"),
            ("zeta", "--u-order", "5"),
            ("betti", "-q", "2"),
            ("coh", "-q", "2"),
            ("stable", "-q", "2"),
        ],
    )
    def test_option_that_does_not_apply_is_rejected(self, capsys, kind, option, value):
        argv = ["series", kind, "--variety", "torus", option, value]
        if kind in ("groupoid", "zeta") and option != "-q":
            argv += ["-q", "2"]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: {option} does not apply to series {kind}\n"

    def test_explicit_default_t_order_is_still_accepted(self, capsys):
        _, plain, _ = run(capsys, "series", "betti", "--variety", "p1")
        code, explicit, _ = run(capsys, "series", "betti", "--variety", "p1", "--t-order", "5")
        assert code == 0 and plain == explicit and plain.count("\n") == 6

    @pytest.mark.parametrize(
        "argv",
        [
            ("series", "groupoid", "--variety", "punctured", "--avoid", "0,1,2", "-q", "2"),
            ("series", "zeta", "--variety", "punctured", "--avoid", "0,1,2", "-q", "2"),
            ("char", "--variety", "punctured", "--avoid", "0,1,2", "-n", "2", "-q", "2"),
            ("count", "--family", "punctured", "--avoid", "0,1,2", "--n", "2", "--q", "2"),
        ],
    )
    def test_punctured_collision_modulo_p(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == "error: --avoid values 0,1,2 collide modulo 2\n"

    def test_punctured_collision_uses_the_prime_of_q(self, capsys):
        code, _, err = run(
            capsys, "char", "--variety", "punctured", "--avoid", "0,3", "-n", "2", "-q", "9"
        )
        assert code == 2
        assert err == "error: --avoid values 0,3 collide modulo 3\n"
        code, out, _ = run(
            capsys, "series", "groupoid", "--variety", "punctured", "--avoid", "0,1,2",
            "-q", "3", "--t-order", "1",
        )
        assert code == 0
        assert out.splitlines()[-1] == "verdict: equal"


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

    def test_punctured_defaults_to_avoiding_zero_and_one(self, capsys):
        code, out, _ = run(capsys, "count", "--family", "punctured", "--n", "2", "--q", "3")
        assert code == 0
        assert out == "27\n"

    @pytest.mark.parametrize("dim", ["1", "2"])
    def test_dim_rejected_for_punctured(self, capsys, dim):
        code, out, err = run(
            capsys,
            "count", "--family", "punctured", "--avoid", "0,1", "--dim", dim,
            "--n", "2", "--q", "3",
        )
        assert code == 2
        assert out == ""
        assert err == "error: --dim does not apply to --family punctured\n"

    @pytest.mark.parametrize("family", ["affine", "torus"])
    @pytest.mark.parametrize("avoid", ["0,1", "2", ""])
    def test_avoid_rejected_for_affine_and_torus(self, capsys, family, avoid):
        code, out, err = run(
            capsys, "count", "--family", family, "--avoid", avoid, "--n", "2", "--q", "2"
        )
        assert code == 2
        assert out == ""
        assert err == f"error: --avoid does not apply to --family {family}\n"

    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_nonpositive_budget_rejected(self, capsys, budget):
        code, out, err = run(
            capsys,
            "count", "--family", "torus", "--n", "2", "--q", "2", "--budget", budget,
        )
        assert code == 2
        assert out == ""
        assert err == f"error: --budget must be a positive integer, got {budget}\n"

    # int() reads all but "abc"; COMMVAR_BUDGET takes decimal digits only, as --budget
    @pytest.mark.parametrize("raw", ["abc", "1_000", "+100", " 100"])
    def test_bad_budget_env_is_an_error_for_count_only(self, capsys, monkeypatch, raw):
        monkeypatch.setenv("COMMVAR_BUDGET", raw)
        code, out, err = run(capsys, "count", "--family", "torus", "--n", "2", "--q", "2")
        assert code == 2
        assert out == ""
        assert err == f"error: COMMVAR_BUDGET must be an integer, got {raw!r}\n"
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

    @pytest.mark.parametrize("suite", ["pointcounts", "all"])
    @pytest.mark.parametrize("q", ["4", "5", "1"])
    def test_q_outside_the_grid_is_rejected(self, capsys, suite, q):
        code, out, err = run(capsys, "verify", "--suite", suite, "-q", q)
        assert code == 2
        assert out == ""
        assert err.startswith("error: -q ") and err.count("\n") == 1

    @pytest.mark.parametrize("suite", ["coh", "macdonald", "flag", "stabilization"])
    def test_q_with_another_suite_is_rejected(self, capsys, suite):
        code, out, err = run(capsys, "verify", "--suite", suite, "-q", "2")
        assert code == 2
        assert out == ""
        assert err.startswith("error: -q ") and err.count("\n") == 1

    def test_pointcounts_at_three(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "pointcounts", "-q", "3")
        assert code == 0
        assert out == "point-counts: PASS (7 cross-checks)\n"


def independent_output(argv):
    """What ``argv``, one of ``MORE_COMMANDS``, prints, by routes that do not
    run the rank recurrence or the series code; oracle only."""
    if argv[0] == "series" and argv[1] == "zeta":
        # #X(F_(4^m)) = 4^m - 2 on the line without 0 and 1
        return RatFunc(Poly([1, -1]) ** 2, Poly([1, -4])).render("t") + "\n"
    if argv[0] == "series":
        # C_k(torus)(F_3) / GL_k(F_3), and 1 at k = 0, on both sides of
        # the groupoid report
        family = oracle.family_for("torus")
        counts = [oracle.count_points(family, k, 3) for k in (1, 2, 3)]
        values = [1] + [F(c, arith.gl_order(k, 3)) for k, c in enumerate(counts, 1)]
        return "".join(f"t^{k}: {v} | {v}\n" for k, v in enumerate(values)) + "verdict: equal\n"
    space, n = argv[argv.index("--space") + 1], int(argv[-1])
    qpoch = q_pochhammer(n, power=2)
    if space == "flag":  # the q-factorial [n]! at q = u^2
        qfact = Poly([1])
        for i in range(1, n + 1):
            qfact = qfact * Poly([1] * i).subst_power(2)
        return RatFunc(qfact).render() + "\n"
    if space == "bgln":
        return RatFunc(1, qpoch).render() + "\n"
    fermionic = fermionic_side(varieties.builtin_space(argv[argv.index("--variety") + 1]), n)
    if space in ("cn", "sn"):
        return RatFunc(fermionic).render() + "\n"
    # coh: the cn polynomial over (u^2; u^2)_n in lowest terms
    gcd = arith.poly_gcd(fermionic, qpoch)
    (num, rem), (den, rem2) = divmod(fermionic, gcd), divmod(qpoch, gcd)
    assert not rem and not rem2
    return RatFunc(num / den.coeffs[0], den / den.coeffs[0]).render() + "\n"


class TestMoreCommands:
    """The commands that the replay runs beside the goldens and the README,
    and whose bytes no digest pins, print the values of independent
    routes: the flag pairing for cn and sn, its quotient by (u^2; u^2)_n
    for coh, the q-factorial, the closed zeta function and brute-force
    point counts."""

    @pytest.mark.parametrize("argv", MORE_COMMANDS, ids=" ".join)
    def test_prints_the_independent_value(self, argv):
        entry = child_record()["commands"][shlex.join(argv)]
        assert (entry["exit"], entry["stdout"], entry.get("stderr", "")) == (0, independent_output(argv), "")


class TestFailureExitCodes:
    def test_series_mismatch_exits_one(self, capsys, monkeypatch):
        import commvar.cli as cli
        from commvar.arith import Poly
        from commvar.series import SeriesReport

        fake = SeriesReport(
            (Poly.constant(1), Poly.constant(2)), (Poly.constant(1), Poly.constant(3))
        )
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


    def test_a_closed_pipe_ends_quietly(self):
        # 93 kB of output, more than a pipe holds, so the writer is still
        # writing when the reader closes its end after 20 bytes
        argv = [sys.executable, "-m", "commvar.cli", "char", "--variety", "p1", "-n", "18"]
        pipes = dict(stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        proc = subprocess.Popen(argv, env=child_env(), **pipes)
        try:
            assert len(proc.stdout.read(20)) == 20
            proc.stdout.close()
            _, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
        assert (proc.returncode, err) == (141, b"")


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

    @pytest.mark.parametrize(
        "stratum, message",
        [
            ({"deg": 0, "eigenvalue": True}, "field 'eigenvalue': cannot parse eigenvalue True"),
            ({"deg": 0, "eigenvalue": "1 / 2"}, "field 'eigenvalue': cannot parse eigenvalue '1 / 2'"),
            (
                {"deg": 0, "eigenvalues": "1/2"},
                "unknown field 'eigenvalues'; expected one of ['deg', 'dim', 'eigenvalue']",
            ),
        ],
        ids=["boolean", "spaced-slash", "unknown-field"],
    )
    def test_malformed_stratum_exits_two(self, capsys, tmp_path, stratum, message):
        path = tmp_path / "F.json"
        path.write_text(json.dumps({"strata": [stratum]}))
        code, out, err = run(capsys, "series", "zeta", "--variety", str(path), "-q", "3")
        assert (code, out, err) == (2, "", f"error: {path}: strata[0]: {message}\n")

    def test_a_directory_is_not_a_descriptor(self, capsys, tmp_path):
        code, out, err = run(capsys, "poincare", "--variety", str(tmp_path), "-n", "2")
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {tmp_path}: cannot read: ") and err.count("\n") == 1

    def test_a_descriptor_that_is_not_utf8_names_the_file(self, capsys, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"strata": [{"deg": 0}], "name": "\xff"}')
        code, out, err = run(capsys, "poincare", "--variety", str(path), "-n", "2")
        assert (code, out) == (2, "")
        assert err == f"error: {path}: not UTF-8 text: invalid start byte at byte 34\n"

    @pytest.mark.parametrize("field", ["deg", "dim", "eigenvalue"])
    def test_an_integer_past_the_digit_limit_names_the_file(self, capsys, tmp_path, field):
        # json.loads stops at int()'s digit limit, before any field is read
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            pytest.skip("needs an int-to-str digit limit")
        stratum = {"deg": 0, field: "BIG"}
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"strata": [stratum]}).replace('"BIG"', "1" + "0" * limit))
        code, out, err = run(capsys, "poincare", "--variety", str(path), "-n", "2")
        assert (code, out) == (2, "")
        assert err == (
            f"error: {path}: Exceeds the limit ({limit} digits) for integer string "
            f"conversion: value has {limit + 1} digits\n"
        )

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"strata": [{"deg": 0}, {"deg": 1, "deg": 2}]}', "strata[1]: repeated field 'deg'"),
            ('{"strata": [{"deg": 0}], "strata": [{"deg": 1}]}', "repeated field 'strata'"),
        ],
        ids=["stratum", "top-level"],
    )
    def test_a_repeated_key_is_rejected(self, capsys, tmp_path, text, message):
        # json.loads would keep the last value, and poincare would print it
        path = tmp_path / "twice.json"
        path.write_text(text)
        code, out, err = run(capsys, "poincare", "--variety", str(path), "-n", "2")
        assert (code, out, err) == (2, "", f"error: {path}: {message}\n")

    def test_byte_identical_reruns(self, capsys):
        outputs = []
        for _ in range(2):
            _, out, _ = run(
                capsys, "series", "coh", "--variety", "p1", "--t-order", "3", "--u-order", "8"
            )
            outputs.append(out)
        assert outputs[0] == outputs[1]


class TestDescriptorBounds:
    """Descriptor degrees and exponents and builtin dimensions are bounded
    before anything is allocated."""

    def test_huge_degree_exits_two_under_memory_limit(self, tmp_path):
        # The command runs in a child limited to 1.5 GB of address space;
        # with no cap, eigen_power_sum would allocate a list of about
        # 2 * 10^9 coefficients and the child would die in a MemoryError.
        resource = pytest.importorskip("resource")
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"strata": [{"deg": 0}, {"deg": 10**9}]}))
        limit = 3 << 29

        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        argv = ["poincare", "--space", "cn", "--variety", str(path), "-n", "2"]
        proc = run_child(*argv, timeout=120, preexec_fn=limit_memory)
        assert "Traceback" not in proc.stderr
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == f"error: {path}: strata[1]: field 'deg' must be <= {charmodel.MAX_DEG}\n"


    @pytest.mark.parametrize(
        "argv",
        [
            ["char", "-n", "2", "-q", "3"],
            ["series", "zeta", "-q", "3"],
            ["series", "groupoid", "-q", "3", "--t-order", "2"],
        ],
        ids=["char", "zeta", "groupoid"],
    )
    def test_huge_eigenvalue_exponent_exits_two(self, tmp_path, argv):
        # Resolved at q = 3, q^-50000000 has a denominator of about 2.4 * 10^7
        # digits; with no cap on the exponent each command ran past 20 s.
        path = tmp_path / "F.json"
        path.write_text(json.dumps({"strata": [{"deg": 0, "eigenvalue": "q^-50000000"}]}))
        proc = run_child(*argv, "--variety", str(path), timeout=10)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == (
            f"error: {path}: strata[0]: field 'eigenvalue': the exponent of 'q^-50000000' "
            f"must be at most {charmodel.MAX_DEG} in absolute value\n"
        )

    def test_huge_decimal_exponent_exits_two(self, tmp_path):
        # Fraction("1e100000000") builds 10^100000000: with no cap on the
        # decimal exponent the command ran past 20 s
        path = tmp_path / "F.json"
        path.write_text(json.dumps({"strata": [{"deg": 0, "eigenvalue": "1e100000000"}]}))
        proc = run_child("char", "--variety", str(path), "-n", "2", "-q", "3", timeout=10)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == (
            f"error: {path}: strata[0]: field 'eigenvalue': the exponent of '1e100000000' "
            f"must be at most {charmodel.MAX_DEG} in absolute value\n"
        )

    def test_zeta_past_the_digit_limit_exits_two(self, capsys):
        # q^1000 at q = 1000003 has about 6000 digits, more than str(int)
        # prints by default; the bound rejects it before the zeta is built
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit or limit >= 6000:
            pytest.skip("needs an int-to-str digit limit below 6000")
        argv = ["series", "zeta", "--variety", "affine", "--dim", "1000", "-q", "1000003"]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == (
            "error: series zeta: -q 1000003 and --dim 1000 give numbers of up to 6001 digits; "
            f"at most {limit} can be printed\n"
        )

    @pytest.mark.parametrize(
        "argv, given, digits",
        [
            (["char", "-n", "1", "-q", "1000003"], "char: -q 1000003, -n 1", 5995),
            (
                ["series", "groupoid", "-q", "1000003", "--t-order", "1"],
                "series groupoid: -q 1000003, --t-order 1",
                6001,
            ),
        ],
        ids=["char", "groupoid"],
    )
    def test_past_the_digit_limit_exits_two(self, capsys, argv, given, digits):
        # the ints hold q^999 or q^1000 at q = 1000003, about 6000 digits;
        # without the bound each command stopped at Python's own message
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit or limit >= digits:
            pytest.skip(f"needs an int-to-str digit limit below {digits}")
        code, out, err = run(capsys, *argv, "--variety", "affine", "--dim", "1000")
        assert (code, out) == (2, "")
        assert err == (
            f"error: {given} and --dim 1000 give numbers of up to {digits} digits; "
            f"at most {limit} can be printed\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [["char", "-n", "1", "-q", "1000003"], ["series", "groupoid", "-q", "1000003", "--t-order", "1"]],
        ids=["char", "groupoid"],
    )
    def test_below_the_digit_limit_prints(self, capsys, argv):
        # q^700 at q = 1000003 has about 4200 digits: printable, and the
        # bound lets it through
        code, out, err = run(capsys, *argv, "--variety", "affine", "--dim", "700")
        assert code == 0
        assert 4000 < max(len(m) for m in re.findall(r"\d+", out)) < 4300

    def test_descriptor_char_past_the_digit_limit_names_the_file(self, capsys, tmp_path):
        # 10^1000 to the fifth power: -q plays no part, -n and the file do
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit or limit >= 5000:
            pytest.skip("needs an int-to-str digit limit below 5000")
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"strata": [{"deg": 0, "eigenvalue": "1e1000"}]}))
        code, out, err = run(capsys, "char", "--variety", str(path), "-n", "5")
        assert (code, out) == (2, "")
        assert err.startswith(f"error: char: -n 5 and --variety {path} give numbers of up to ")

    @pytest.mark.parametrize(
        "argv, strata",
        [
            (["series", "betti", "--t-order", "2"], [{"deg": 0, "dim": 10**3000}]),
            (["series", "stable", "--u-order", "3"], [{"deg": 0}, {"deg": 1, "dim": 10**1450}]),
        ],
        ids=["betti", "stable"],
    )
    def test_a_row_past_the_digit_limit_prints_no_row(self, capsys, tmp_path, argv, strata):
        # betti: the t^2 row holds (10^3000)^2, 6001 digits, and the t^0
        # and t^1 rows used to be written before the error.  stable: each
        # of its three polynomials reaches about 4350 digits
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit or limit >= 4350:
            pytest.skip("needs an int-to-str digit limit below 4350")
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"strata": strata}))
        code, out, err = run(capsys, *argv, "--variety", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: Exceeds the limit") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "dims, got",
        [
            (["2"], "b_0 = 2"),
            (["1" + "0" * 3000], "b_0 of about 3001 digits"),
            (["9" * 4300] * 2, "b_0 of about 4301 digits"),
        ],
        ids=["two", "3001-digits", "4301-digits"],
    )
    def test_a_disconnected_stable_error_is_one_short_line(self, capsys, tmp_path, dims, got):
        # b_0 used to be printed whole: 3066 bytes, and past the digit
        # limit Python's own message, naming neither b_0 nor the variety
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if 0 < limit < 4300:
            pytest.skip("needs an int-to-str digit limit of at least 4300")
        path = tmp_path / "apart.json"
        strata = ", ".join(f'{{"deg": 0, "dim": {d}, "eigenvalue": {i}}}' for i, d in enumerate(dims, 1))
        path.write_text(f'{{"strata": [{strata}]}}')
        code, out, err = run(capsys, "series", "stable", "--variety", str(path), "--u-order", "4")
        assert (code, out) == (2, "")
        assert err == f"error: stabilization needs connected input (b_0 = 1), got {got}\n"
        assert len(err.encode()) < 200

    def test_torus_zeta_below_the_digit_limit_prints(self, capsys):
        # Numerator and denominator each reach about q^512 at q = 1000003,
        # some 3070 digits: the bound takes the larger side, not the sum
        argv = ["series", "zeta", "--variety", "torus", "--dim", "8", "-q", "1000003"]
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        num, den = out.rstrip("\n").split(")/(")
        assert num.startswith("(1 - ") and den.startswith("1 - ")
        assert 3000 < max(len(c) for c in den.replace("*", " ").split() if c.isdigit()) < 4300

    @pytest.mark.parametrize(
        "argv, family",
        [
            (["poincare", "--variety", "torus", "--dim", "3000", "-n", "2"], "torus"),
            (["char", "--variety", "affine", "--dim", "300000000", "-n", "2", "-q", "2"], "affine"),
        ],
        ids=["torus", "affine"],
    )
    def test_builtin_dimension_above_the_cap_exits_two(self, argv, family):
        # The torus strata reach degree dim and the affine eigenvalue is
        # q^(dim - 1); with no cap these ran past 15 s or ended in Python's
        # int-to-str digit limit.
        proc = run_child(*argv, timeout=10)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == f"error: {family} dimension must be <= {charmodel.MAX_DEG}\n"


# Each command that takes a variety, with the arguments it needs besides.
VARIETY_COMMANDS = {
    "poincare": ["poincare", "-n", "2"],
    "char": ["char", "-n", "2"],
    "series": ["series", "zeta", "-q", "2"],
}


class TestVarietyOptions:
    """--dim belongs to affine/torus and --avoid to punctured, as for count."""

    def test_reproduced_dim_case(self, capsys):
        code, out, err = run(capsys, "poincare", "--variety", "p1", "--dim", "3", "-n", "2")
        assert (code, out) == (2, "")
        assert err == "error: --dim does not apply to --variety p1\n"

    def test_reproduced_avoid_case(self, capsys):
        code, out, err = run(
            capsys, "series", "zeta", "--variety", "torus", "--avoid", "5", "-q", "2"
        )
        assert (code, out) == (2, "")
        assert err == "error: --avoid does not apply to --variety torus\n"

    @pytest.mark.parametrize("command", sorted(VARIETY_COMMANDS))
    @pytest.mark.parametrize("variety", ["point", "punctured", "p1"])
    @pytest.mark.parametrize("dim", ["1", "3"])
    def test_dim_rejected(self, capsys, command, variety, dim):
        argv = VARIETY_COMMANDS[command] + ["--variety", variety, "--dim", dim]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: --dim does not apply to --variety {variety}\n"

    @pytest.mark.parametrize("command", sorted(VARIETY_COMMANDS))
    @pytest.mark.parametrize("variety", ["point", "affine", "torus", "p1"])
    @pytest.mark.parametrize("avoid", ["0,1", "5", ""])
    def test_avoid_rejected(self, capsys, command, variety, avoid):
        argv = VARIETY_COMMANDS[command] + ["--variety", variety, "--avoid", avoid]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: --avoid does not apply to --variety {variety}\n"

    @pytest.mark.parametrize("command", sorted(VARIETY_COMMANDS))
    @pytest.mark.parametrize("option", [["--dim", "2"], ["--avoid", "0,1"]])
    def test_descriptor_takes_neither(self, capsys, tmp_path, command, option):
        path = tmp_path / "x.json"
        path.write_text(json.dumps({"strata": [{"deg": 0}]}))
        argv = VARIETY_COMMANDS[command] + ["--variety", str(path)] + option
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: {option[0]} does not apply to --variety {path}\n"

    @pytest.mark.parametrize("command", sorted(VARIETY_COMMANDS))
    @pytest.mark.parametrize(
        "option, message",
        [
            (["--variety", "affine", "--dim", "0"], "--dim must be >= 1, got 0"),
            (["--variety", "torus", "--dim", "-1"], "--dim must be >= 1, got -1"),
            (
                ["--variety", "punctured", "--avoid", "2,0,2"],
                "--avoid values must be distinct, got 2,0,2",
            ),
        ],
    )
    def test_family_parameters_are_checked(self, capsys, command, option, message):
        code, out, err = run(capsys, *VARIETY_COMMANDS[command], *option)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_dim_without_variety_rejected(self, capsys):
        code, out, err = run(capsys, "poincare", "--space", "flag", "--dim", "2", "-n", "2")
        assert (code, out) == (2, "")
        assert err == "error: --dim does not apply without --variety\n"

    @pytest.mark.parametrize("command", sorted(VARIETY_COMMANDS))
    def test_options_still_apply_where_they_belong(self, capsys, command):
        base = VARIETY_COMMANDS[command]
        for extra in (
            ["--variety", "affine", "--dim", "2"],
            ["--variety", "torus", "--dim", "1"],
            ["--variety", "punctured", "--avoid", "0,1"],
        ):
            code, _, err = run(capsys, *base, *extra)
            assert (code, err) == (0, ""), extra

    @pytest.mark.parametrize(
        "argv",
        [
            ["poincare", "--variety", "punctured", "-n", "2"],
            ["char", "--variety", "punctured", "-n", "2"],
            ["series", "zeta", "--variety", "punctured", "-q", "2"],
            ["count", "--family", "punctured", "--n", "2", "--q", "2"],
        ],
    )
    @pytest.mark.parametrize(
        "avoid", ["0,,1", "0,x", "1.5", ",", "1_0", "+1,2", "0,+1", "0,1 2", "0,--1", "0,-"]
    )
    def test_malformed_avoid_names_the_format(self, capsys, argv, avoid):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--avoid", avoid])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        last = captured.err.splitlines()[-1]
        assert last.endswith(
            f"error: argument --avoid: expected comma-separated integers, got {avoid!r}"
        )
        assert "_parse_avoid" not in captured.err

    def test_negative_avoided_values_are_read_modulo_p(self, capsys):
        argv = ["count", "--family", "punctured", "--n", "2", "--q", "5", "--avoid"]
        assert run(capsys, *argv, "0,-1") == run(capsys, *argv, "0,4")
        assert run(capsys, *argv, "0,-1")[0] == 0

    def test_a_negative_first_value_is_joined_to_the_option(self, capsys):
        # argparse reads a separate "-1,2" as an option, so --avoid has no value
        argv = ["count", "--family", "punctured", "--n", "2", "--q", "5"]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--avoid", "-1,2"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1].endswith("error: argument --avoid: expected one argument")
        expected = (0, "365\n", "")
        assert run(capsys, *argv, "--avoid=-1,2") == expected
        assert run(capsys, *argv, "--avoid", "2,-1") == expected
        assert run(capsys, *argv, "--avoid", "4,2") == expected

    def test_explicit_defaults_change_nothing(self, capsys):
        _, plain, _ = run(capsys, "poincare", "--variety", "punctured", "-n", "3")
        _, explicit, _ = run(
            capsys, "poincare", "--variety", "punctured", "--avoid", "0,1", "-n", "3"
        )
        assert plain == explicit
        _, plain, _ = run(capsys, "series", "betti", "--variety", "torus")
        _, explicit, _ = run(capsys, "series", "betti", "--variety", "torus", "--dim", "1")
        assert plain == explicit


# every int option: command, option string, the name argparse gives it
INT_OPTIONS = [
    ("poincare", "-n", "-n"),
    ("poincare", "--dim", "--dim"),
    ("char", "--flag", "--flag"),
    ("char", "--dim", "--dim"),
    ("char", "-n", "-n"),
    ("char", "-q", "-q"),
    ("series", "--dim", "--dim"),
    ("series", "--t-order", "--t-order"),
    ("series", "--u-order", "--u-order"),
    ("series", "-q", "-q"),
    ("count", "--dim", "--dim"),
    ("count", "--n", "--n/-n"),
    ("count", "-n", "--n/-n"),
    ("count", "--q", "--q/-q"),
    ("count", "-q", "--q/-q"),
    ("count", "--budget", "--budget"),
    ("verify", "-q", "-q"),
]


class TestIntOptions:
    """An int option takes decimal digits with an optional '-' only:
    int() would also read '_' separators, a '+' and blanks."""

    @pytest.mark.parametrize(
        "command, option, name", INT_OPTIONS, ids=[f"{c} {o}" for c, o, _ in INT_OPTIONS]
    )
    def test_a_malformed_int_names_the_option(self, capsys, command, option, name):
        for value in ("1_0", "+2", " 2", "2 ", "1_000", "x", ""):
            with pytest.raises(SystemExit) as exc:
                main([command, option, value])
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            last = captured.err.splitlines()[-1]
            assert last == f"commvar {command}: error: argument {name}: invalid int value: {value!r}"


RANGE_ERRORS = [
    (["char", "--flag", "0"], "--flag must be >= 1, got 0"),
    (["char", "--variety", "p1", "-n", "-1"], "-n must be >= 0, got -1"),
    (["poincare", "--variety", "p1", "-n", "-1"], "-n must be >= 0, got -1"),
    (["poincare", "--space", "flag", "-n", "0"], "-n must be >= 1, got 0"),
    (["poincare", "--space", "bgln", "-n", "0"], "-n must be >= 1, got 0"),
    (["series", "coh", "--variety", "p1", "--t-order", "-1"], "--t-order must be >= 0, got -1"),
    (["series", "coh", "--variety", "p1", "--u-order", "-1"], "--u-order must be >= 0, got -1"),
    (["count", "--family", "torus", "--n", "0", "--q", "2"], "--n must be >= 1, got 0"),
    (["series", "zeta", "--variety", "p1", "-q", "0"], "-q must be a prime power, got 0"),
    (["count", "--family", "torus", "--n", "2", "--q", "4"], "--q must be a prime, got 4"),
    (["count", "--family", "affine", "--dim", "0", "--n", "2", "--q", "2"], "--dim must be >= 1, got 0"),
]


class TestRangeErrors:
    """An int option out of range is rejected by the handler, naming the
    option; the library's own message names no option."""

    @pytest.mark.parametrize("argv, message", RANGE_ERRORS, ids=[" ".join(a) for a, _ in RANGE_ERRORS])
    def test_names_the_option(self, capsys, argv, message):
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("command", [["char"], ["poincare"], ["series", "stable"]])
    def test_checked_before_the_variety_is_read(self, capsys, tmp_path, command):
        option = "--u-order" if command[0] == "series" else "-n"
        argv = [*command, "--variety", str(tmp_path / "missing.json"), option, "-1"]
        assert run(capsys, *argv) == (2, "", f"error: {option} must be >= 0, got -1\n")


class TestCharFlagOptions:
    """char --flag N prints the flag character and takes no variety options."""

    @pytest.mark.parametrize(
        "extra",
        [
            ["--variety", "p1"],
            ["--variety", "p1", "-n", "3"],
            ["-n", "3"],
            ["-q", "6"],
            ["-q", "4"],
            ["--cycle-type", "(2)"],
        ],
    )
    def test_rejected(self, capsys, extra):
        code, out, err = run(capsys, "char", "--flag", "2", *extra)
        assert (code, out) == (2, "")
        assert err == f"error: {extra[0]} does not apply to char --flag\n"

    @pytest.mark.parametrize("extra", [["--dim", "2"], ["--avoid", "0,1"]])
    def test_variety_options_rejected(self, capsys, extra):
        code, out, err = run(capsys, "char", "--flag", "2", *extra)
        assert (code, out) == (2, "")
        assert err == f"error: {extra[0]} does not apply to char --flag\n"


class TestPoincareSpaceOptions:
    """poincare --space flag|bgln takes no variety, as char --flag does not."""

    def test_reproduced_case(self, capsys):
        code, out, err = run(capsys, "poincare", "--space", "flag", "--variety", "zebra", "-n", "2")
        assert (code, out) == (2, "")
        assert err == "error: --variety does not apply to --space flag\n"

    @pytest.mark.parametrize("space", ["flag", "bgln"])
    @pytest.mark.parametrize(
        "extra",
        [
            ["--variety", "p1"],
            ["--variety", "zebra"],
            ["--variety", "affine", "--dim", "2"],
            ["--variety", "punctured", "--avoid", "0,1"],
        ],
    )
    def test_variety_rejected(self, capsys, space, extra):
        code, out, err = run(capsys, "poincare", "--space", space, "-n", "2", *extra)
        assert (code, out) == (2, "")
        assert err == f"error: --variety does not apply to --space {space}\n"

    def test_descriptor_rejected(self, capsys, tmp_path):
        path = tmp_path / "x.json"
        path.write_text(json.dumps({"strata": [{"deg": 0}]}))
        code, out, err = run(capsys, "poincare", "--space", "bgln", "--variety", str(path), "-n", "2")
        assert (code, out) == (2, "")
        assert err == "error: --variety does not apply to --space bgln\n"

    @pytest.mark.parametrize("space", ["flag", "bgln"])
    def test_no_variety_still_works(self, capsys, space):
        code, out, err = run(capsys, "poincare", "--space", space, "-n", "2")
        assert (code, err) == (0, "")
        assert out


HELP = {
    (): """\
usage: commvar [-h] {poincare,char,series,count,verify} ...

Exact invariants of commuting-matrix moduli spaces from graded Betti/Frobenius
data.

positional arguments:
  {poincare,char,series,count,verify}
    poincare            signed Poincare polynomial of a moduli space
    char                graded character in Schur and power-sum expansions
    series              zeta-type generating series and product formulas
    count               brute-force point count over a prime field
    verify              run the exact cross-check suites

options:
  -h, --help            show this help message and exit
""",
    ("poincare",): """\
usage: commvar poincare [-h] [--space {cn,sn,coh,flag,bgln}]
                        [--variety VARIETY] [--dim DIM] [--avoid AVOID] -n N
                        [--absolute]

options:
  -h, --help            show this help message and exit
  --space {cn,sn,coh,flag,bgln}
  --variety VARIETY     builtin name ('point', 'affine', 'torus', 'punctured',
                        'p1') or path to a JSON descriptor file
  --dim DIM             affine/torus builtins only (default 1)
  --avoid AVOID         comma-separated values avoided by the punctured
                        builtin only (default 0,1)
  -n N                  rank (matrix size)
  --absolute            display-only: print absolute values of the
                        coefficients
""",
    ("char",): """\
usage: commvar char [-h] [--flag FLAG] [--variety VARIETY] [--dim DIM]
                    [--avoid AVOID] [-n N] [-q Q] [--cycle-type CYCLE_TYPE]

options:
  -h, --help            show this help message and exit
  --flag FLAG           rank of the complete flag variety
  --variety VARIETY     builtin name ('point', 'affine', 'torus', 'punctured',
                        'p1') or path to a JSON descriptor file
  --dim DIM             affine/torus builtins only (default 1)
  --avoid AVOID         comma-separated values avoided by the punctured
                        builtin only (default 0,1)
  -n N                  tensor power for a variety character
  -q Q                  resolve q^k eigenvalue tokens at this prime power
  --cycle-type CYCLE_TYPE
                        also print the graded trace at this cycle type, e.g.
                        '(2,1)' or '1^1 2^1'
""",
    ("series",): """\
usage: commvar series [-h] --variety VARIETY [--dim DIM] [--avoid AVOID]
                      [--t-order T_ORDER] [--u-order U_ORDER] [-q Q]
                      {betti,coh,groupoid,zeta,stable}

positional arguments:
  {betti,coh,groupoid,zeta,stable}
                        which series or report to compute

options:
  -h, --help            show this help message and exit
  --variety VARIETY     builtin name ('point', 'affine', 'torus', 'punctured',
                        'p1') or path to a JSON descriptor file
  --dim DIM             affine/torus builtins only (default 1)
  --avoid AVOID         comma-separated values avoided by the punctured
                        builtin only (default 0,1)
  --t-order T_ORDER
  --u-order U_ORDER
  -q Q                  prime power for groupoid/zeta
""",
    ("count",): """\
usage: commvar count [-h] --family {affine,torus,punctured} [--dim DIM] --n N
                     --q Q [--avoid AVOID] [--budget BUDGET]

options:
  -h, --help            show this help message and exit
  --family {affine,torus,punctured}
  --dim DIM             affine/torus only (default 1)
  --n N, -n N
  --q Q, -q Q
  --avoid AVOID         punctured only (default 0,1)
  --budget BUDGET       candidate limit (default 268435456, env
                        COMMVAR_BUDGET)
""",
    ("verify",): """\
usage: commvar verify [-h] [--suite SUITE] [-q Q]

options:
  -h, --help     show this help message and exit
  --suite SUITE  one of 'all' or ['coh', 'degenerate', 'flag', 'gln',
                 'macdonald', 'pointcounts', 'series-agreement',
                 'stabilization', 'substrate']
  -q Q           restrict point-count checks to this field size
""",
}


class TestHelpText:
    """``commvar --help`` and each command's ``--help`` at COLUMNS=80, as
    literal text, so a change to the parser shows in the printed help.

    The text is the same on Python 3.10.13, 3.11.7 and 3.12.1; CI runs
    3.10 to 3.13.  From 3.13 argparse prints an option with several
    flags as ``--n, -n N`` instead of ``--n N, -n N``, which changes two
    lines of ``count --help``.
    """

    @pytest.mark.parametrize("command", HELP, ids=lambda c: " ".join(c) or "commvar")
    def test_help_text(self, capsys, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main([*command, "--help"])
        assert exc.value.code == 0
        expected = HELP[command]
        if sys.version_info >= (3, 13):
            expected = expected.replace("--n N, -n N", "--n, -n N")
            expected = expected.replace("--q Q, -q Q", "--q, -q Q")
        assert capsys.readouterr() == (expected, "")


USAGE = "usage: commvar [-h] {poincare,char,series,count,verify} ...\n"
CHOICES = "(choose from 'poincare', 'char', 'series', 'count', 'verify')"

# argv -> (exit, stdout, stderr) at COLUMNS=80; the same on Python
# 3.10.13, 3.11.7 and 3.12.1
PARSER_PATHS = {
    ("verify", "coh"): (2, "", USAGE + "commvar: error: unrecognized arguments: coh\n"),
    ("poincare", "--space", "flag", "-n", "3", "extra"): (
        2,
        "",
        USAGE + "commvar: error: unrecognized arguments: extra\n",
    ),
    (): (2, "", USAGE + "commvar: error: the following arguments are required: command\n"),
    ("bogus",): (
        2,
        "",
        USAGE + f"commvar: error: argument command: invalid choice: 'bogus' {CHOICES}\n",
    ),
    ("-h", "poincare"): (0, HELP[()], ""),
    ("--", "poincare", "--space", "flag", "-n", "3"): (
        2,
        "",
        USAGE + f"commvar: error: argument command: invalid choice: '--' {CHOICES}\n",
    ),
}

# tokens of every subparser's options and values, valid and not; an int
# option reads "\u0663", an Arabic-Indic digit, as 3 and rejects " 4",
# "+2" and "1_0", which int() reads
ARGV_TOKENS = (
    *COMMANDS, "-h", "--help", "--", "bogus", "extra", "--space", "flag", "cn", "coh",
    "-n", "--n", "3", "-n3", "--variety", "--variety=p1", "p1", "torus", "--dim", "2",
    "--avoid", "0,1", "0,x", "--absolute", "--flag", "-q", "--q", "5", "--cycle-type",
    "(2,1)", "betti", "zeta", "--t-order", "--u-order", "--family", "affine", "punctured",
    "--budget", "--suite", "all", "-x", "--sp", "--fl", "-3", "", " 4", "+2", "1_0", "\u0663",
)


class TestParserPaths:
    """What argparse prints for argv that ``_fast_parse`` declines, and how
    many parsers each route builds."""

    @pytest.mark.parametrize("argv", PARSER_PATHS, ids=lambda a: " ".join(a) or "commvar")
    def test_literal_output(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert (exc.value.code, *capsys.readouterr()) == PARSER_PATHS[argv]

    @pytest.mark.parametrize(
        "argv, parsers",
        [
            (["poincare", "--space", "flag", "-n", "3"], []),
            (["poincare", "--space=flag", "-n", "3"], ["commvar"] + [f"commvar {c}" for c in COMMANDS]),
        ],
        ids=["fast", "fallback"],
    )
    def test_parsers_built(self, capsys, monkeypatch, argv, parsers):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        code, out, _ = run(capsys, *argv)
        assert (code, out) == (0, "1 + 2*u^2 + 2*u^4 + u^6\n")
        assert built == parsers


GOLDEN_ARGV = [shlex.split(command) for command in GOLDEN]
README_ARGV = [shlex.split(command)[1:] for command, _, _ in readme_examples()]


def declared_argv(rng, command):
    """``command`` with its required options, some of its others and its
    positional, in random order, each value most often of its option's
    type and choices and otherwise any of ``ARGV_TOKENS``."""

    def value(keywords):
        if rng.random() < 0.2:
            return rng.choice(ARGV_TOKENS)
        if "choices" in keywords:
            return rng.choice(keywords["choices"])
        if keywords.get("type") is _int:
            return rng.choice(("2", "3", "4", "\u0663"))
        return rng.choice(("p1", "torus", "0,1", "(2,1)", "all"))

    groups = []
    for names, keywords in COMMANDS[command][1]:
        if not names[0].startswith("-"):
            groups.append([value(keywords)])
        elif keywords.get("required") or rng.random() < 0.3:
            flag = keywords.get("action") == "store_true"
            groups.append([rng.choice(names)] + ([] if flag else [value(keywords)]))
    rng.shuffle(groups)
    return [command] + [token for group in groups for token in group]


class TestFastParse:
    """``_fast_parse`` gives argparse's namespace wherever it accepts an
    argv, and accepts every argv the benchmark and the README run."""

    @pytest.fixture(scope="class")
    def parser(self):
        return build_parser()

    def test_accepts_every_golden_and_readme_argv(self, parser):
        assert len(GOLDEN_ARGV) == 275 and len(README_ARGV) >= 10
        for argv in GOLDEN_ARGV + README_ARGV:
            fast = _fast_parse(argv)
            assert fast is not None, argv
            assert vars(fast) == vars(parser.parse_args(argv)), argv

    def test_agrees_with_argparse_on_seeded_argv(self, parser):
        rng = random.Random(21)
        accepted = dict.fromkeys(COMMANDS, 0)
        for i in range(10000):
            command = rng.choice(list(COMMANDS))
            if i % 2:
                argv = declared_argv(rng, command)
            else:
                argv = [command] + [rng.choice(ARGV_TOKENS) for _ in range(rng.randint(0, 6))]
            fast = _fast_parse(argv)
            if fast is not None:
                accepted[command] += 1
                assert vars(fast) == vars(parser.parse_args(argv)), argv
        assert min(accepted.values()) > 200, accepted

    @pytest.mark.parametrize(
        "argv",
        [
            ["poincare", "-h"],
            ["poincare", "--space", "flag", "-n", "3", "--"],
            ["poincare", "--spa", "flag", "-n", "3"],
            ["poincare", "--space=flag", "-n", "3"],
            ["poincare", "--space", "flag", "-n3"],
            ["poincare", "--space", "flag", "-n", "3", "-n", "3"],
            ["poincare", "--space", "flag", "-n", "-3"],
            ["poincare", "--space", "flag", "-n", "x"],
            ["poincare", "--space", "pt", "-n", "3"],
            ["poincare", "--space", "flag"],
            ["poincare", "--space", "flag", "-n"],
            ["poincare", "--space", "flag", "-n", "3", "extra"],
            ["count", "--family", "torus", "--n", "2", "-n", "2", "--q", "2"],
            ["count", "--family", "punctured", "--avoid", "0,x", "--n", "2", "--q", "2"],
            ["series", "betti", "zeta", "--variety", "p1"],
            ["series", "--variety", "p1"],
            ["-h", "poincare"],
            ["--", "poincare", "--space", "flag", "-n", "3"],
            [],
        ],
    )
    def test_declines_what_argparse_must_answer(self, argv):
        assert _fast_parse(argv) is None

    @pytest.mark.parametrize("command", COMMANDS)
    def test_the_table_uses_only_what_fast_parse_models(self, command):
        # a keyword or action outside these, or a str default that argparse
        # would convert through ``type``, would make the two parsers differ
        modelled = {"type", "choices", "default", "required", "help", "dest", "action"}
        for names, keywords in COMMANDS[command][1]:
            assert set(keywords) <= modelled, names
            assert keywords.get("action", "store_true") == "store_true", names
            str_default = isinstance(keywords.get("default"), str)
            assert not ("type" in keywords and str_default), names
