"""CLI surface: dispatch, formats, exit codes, determinism."""

import json
import subprocess
import sys

import pytest

from hrw.cli import run


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValues:
    def test_diff(self, capsys):
        code, out, _ = invoke(capsys, "diff", "x^3", "--at", "2")
        assert code == 0 and out == "12\n"

    def test_limit_seq_format(self, capsys):
        code, out, _ = invoke(capsys, "limit-seq", "(1/n)^3")
        assert code == 0 and out == "0 (method: field-evaluation)\n"

    def test_limit_seq_fallback(self, capsys):
        code, out, _ = invoke(capsys, "limit-seq", "root(n,n)")
        assert code == 0 and "numeric-fallback" in out

    def test_limit_fn(self, capsys):
        code, out, _ = invoke(capsys, "limit-fn", "1/x", "--at", "0")
        assert code == 0 and "left: -inf" in out and "right: +inf" in out

    def test_eval(self, capsys):
        code, out, _ = invoke(capsys, "eval", "x^2+1", "--at", "x=2")
        assert code == 0 and out == "5\n"

    def test_st_and_classify(self, capsys):
        code, out, _ = invoke(capsys, "st", "3 + 1*eps^1")
        assert code == 0 and out == "3\n"
        code, out, _ = invoke(capsys, "classify", "1*eps^-1")
        assert code == 0 and out == "infinite-positive\n"
        code, out, _ = invoke(capsys, "st", "1*eps^-1")
        assert out == "+inf\n"

    def test_jet(self, capsys):
        code, out, _ = invoke(capsys, "jet", "exp(x)", "--at", "0", "--order", "3")
        assert code == 0 and out == "[1, 1, 1/2, 1/6]\n"

    def test_increment(self, capsys):
        code, out, _ = invoke(capsys, "increment", "x^3", "--at", "1", "--order", "2")
        assert code == 0 and "st(/eps^2) = 6" in out

    def test_tangent_curvature(self, capsys):
        code, out, _ = invoke(capsys, "tangent", "--curve", "cos(t); sin(t)", "--at", "0")
        assert code == 0 and "certificate = 1" in out
        code, out, _ = invoke(capsys, "curvature", "--curve", "t; t^2", "--at", "0")
        assert code == 0 and "kappa = 2" in out and "center = (0, 1/2)" in out

    def test_jacobian(self, capsys):
        code, out, _ = invoke(capsys, "jacobian", "--map", "x^2*y; x+y", "--at", "1,2")
        assert code == 0
        assert "[4, 1]" in out and "residual_order_ok = True" in out

    def test_kinematics(self, capsys):
        code, out, _ = invoke(capsys, "kinematics", "16*t^2", "--at", "1")
        assert code == 0 and out == "v = 32  a = 32\n"

    def test_integrate_riemann(self, capsys):
        code, out, _ = invoke(capsys, "integrate", "x", "--on", "0,1", "--mesh", "1/4")
        assert code == 0 and out == "3/8\n"

    def test_integrate_darboux(self, capsys):
        code, out, _ = invoke(
            capsys, "integrate", "x", "--on", "0,1", "--method", "darboux", "--mesh", "1/4"
        )
        assert code == 0 and out == "L = 3/8  U = 5/8\n"

    def test_integrate_stieltjes(self, capsys):
        code, out, _ = invoke(
            capsys, "integrate", "1", "--on", "0,1", "--method", "stieltjes",
            "--phi", "x^2", "--mesh", "1/8",
        )
        assert code == 0 and out == "1\n"

    def test_integrate_gauge(self, capsys):
        code, out, _ = invoke(
            capsys, "integrate", "1", "--on", "0,1", "--method", "gauge", "--gauge", "1"
        )
        assert code == 0 and out == "1\n"

    def test_measure_morley(self, capsys):
        code, out, _ = invoke(capsys, "measure", "morley", "--radius", "1", "--n", "10")
        assert code == 0 and "(~ 1.9" in out


class TestJson:
    def test_envelope(self, capsys):
        code, out, _ = invoke(capsys, "--format", "json", "diff", "x^3", "--at", "2")
        doc = json.loads(out)
        assert doc["operation"] == "diff"
        assert doc["result"]["value"] == "12"

    def test_flag_position_after_subcommand(self, capsys):
        code, out, _ = invoke(capsys, "diff", "x^3", "--at", "2", "--format", "json")
        assert code == 0 and json.loads(out)["result"]["value"] == "12"

    def test_convergence_schema(self, capsys):
        code, out, _ = invoke(
            capsys, "converge", "riemann", "--expr", "x^2", "--on", "0,1",
            "--meshes", "1/8,1/16,1/32", "--oracle", "1/3", "--format", "json",
        )
        doc = json.loads(out)
        assert set(doc) == {"operation", "params", "rows", "estimate", "oracle", "error"}
        assert doc["oracle"] == "1/3"
        assert all(set(row) == {"mesh", "value"} for row in doc["rows"])

    def test_simpson_oracle(self, capsys):
        code, out, _ = invoke(
            capsys, "converge", "riemann", "--expr", "x^2", "--on", "0,1",
            "--meshes", "1/8,1/16", "--format", "json",
        )
        assert code == 0 and json.loads(out)["oracle"] == "1/3"

    def test_measure_moment_report(self, capsys):
        code, out, _ = invoke(
            capsys, "measure", "moment", "--rho", "1", "--region", "x^2+y^2-1",
            "--integrand", "x^2+y^2", "--meshes", "1/8,1/16", "--format", "json",
        )
        doc = json.loads(out)
        assert doc["operation"] == "measure moment"
        assert len(doc["rows"]) == 2

    def test_disc_inertia_report_converges(self, capsys):
        # rows must close in on pi/2 as the meshes shrink
        from fractions import Fraction as F

        from hrw.approx import pi_approx

        code, out, _ = invoke(
            capsys, "measure", "moment", "--rho", "1", "--region", "x^2+y^2-1",
            "--integrand", "x^2+y^2", "--meshes", "1/32,1/64,1/128",
            "--format", "json",
        )
        doc = json.loads(out)
        target = pi_approx(40) / 2
        errors = []
        for row in doc["rows"]:
            num, _, den = row["value"].partition("/")
            errors.append(abs(F(int(num), int(den or 1)) - target))
        assert errors[0] > errors[1] > errors[2]
        assert errors[-1] / target < F(5, 100)

    def test_probe_supernear(self, capsys):
        code, out, _ = invoke(
            capsys, "probe-supernear", "--generator", "x^2", "--target", "x^2",
            "--on", "0,1", "--meshes", "1/4,1/8,1/16", "--format", "json",
        )
        doc = json.loads(out)
        assert doc["result"]["decreasing"] is True


class TestExitCodes:
    def test_math_error_is_one(self, capsys):
        code, _, err = invoke(capsys, "eval", "1/0")
        assert code == 1
        assert err.startswith("error: DivisionByZero:")

    def test_huge_power_is_one(self, capsys):
        code, _, err = invoke(capsys, "eval", "3^200000")
        assert code == 1
        assert err.startswith("error: ApproxOverflow:")

    def test_parse_error_is_two(self, capsys):
        code, _, err = invoke(capsys, "eval", "2*")
        assert code == 2
        assert err.startswith("parse-error:")

    def test_domain_error_named(self, capsys):
        code, _, err = invoke(capsys, "eval", "ln(-1)")
        assert code == 1 and "DomainError" in err

    def test_zero_velocity_named(self, capsys):
        code, _, err = invoke(capsys, "tangent", "--curve", "t^2; t^2", "--at", "0")
        assert code == 1 and "ZeroVelocity" in err

    def test_unknown_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["diff", "x", "--at", "0", "--bogus"])
        assert exc.value.code == 2

    def test_mixed_curve_parameters_usage_error(self, capsys):
        code, _, err = invoke(capsys, "tangent", "--curve", "cos(t); sin(u)", "--at", "0")
        assert code == 2 and err.startswith("usage-error:")

    def test_dimension_mismatch_usage_error(self, capsys):
        code, _, err = invoke(capsys, "jacobian", "--map", "x*y*z", "--at", "1,2")
        assert code == 2 and err.startswith("usage-error:")


class TestDeterminism:
    INVOCATIONS = [
        ("--format", "json", "diff", "sin(x)", "--at", "1/3"),
        ("--format", "json", "limit-seq", "root(n,n)"),
        ("--format", "json", "curvature", "--curve", "2*cos(t); 2*sin(t)", "--at", "1/5"),
        ("--format", "json", "integrate", "x^2", "--on", "0,1", "--mesh", "1/64",
         "--tags", "seeded-random", "--seed", "9"),
        ("--format", "json", "converge", "riemann", "--expr", "x^2", "--on", "0,1",
         "--meshes", "1/8,1/16,1/32"),
        ("--format", "json", "measure", "length", "--curve", "t; t^2", "--on", "0,1",
         "--mesh", "1/128"),
    ]

    def test_byte_identical_repeats(self, capsys):
        for argv in self.INVOCATIONS:
            first = invoke(capsys, *argv)
            second = invoke(capsys, *argv)
            assert first == second and first[0] == 0

    def test_subprocess_matches_in_process(self, capsys):
        argv = ["--format", "json", "diff", "x^3", "--at", "2"]
        _, out, _ = invoke(capsys, *argv)
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from hrw.cli import run; sys.exit(run(sys.argv[1:]))", *argv],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == out


class TestEnvPrecision:
    def test_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("HRW_PRECISION", "6")
        _, out, _ = invoke(capsys, "eval", "pi")
        value = out.strip()
        # a 6-digit approximation has a small denominator
        num, _, den = value.partition("/")
        assert int(den) <= 10**6

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("HRW_PRECISION", "6")
        _, out, _ = invoke(capsys, "--precision", "12", "eval", "pi")
        _, _, den = out.strip().partition("/")
        assert int(den) > 10**6
