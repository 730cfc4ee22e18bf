"""CLI surface: dispatch, formats, exit codes, determinism."""

import json
import re
import shlex
import subprocess
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import pytest
from conftest import decimal_sin_cos

from hrw.cli import run


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def readme_examples() -> list[tuple[str, str]]:
    """(command, expected start of stdout) for each README line ``hrw ...  # text``;
    a trailing ``...`` in the text stands for the rest of the line."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    examples = []
    for line in readme.read_text().splitlines():
        command, sep, expected = line.partition("  # ")
        if line.startswith("hrw ") and sep:
            examples.append((command.strip(), expected.strip().removesuffix("...").rstrip()))
    return examples


@pytest.mark.parametrize("command, expected", readme_examples())
def test_readme_example(capsys, command, expected):
    code, out, err = invoke(capsys, *shlex.split(command)[1:])
    assert code == 0, err
    assert out.startswith(expected), out


def test_readme_examples_found():
    assert len(readme_examples()) >= 8


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

    def test_limit_fn_past_the_exact_power_guard(self, capsys):
        # the series takes a^n past the guard from int_pow, as eval does
        assert invoke(capsys, "eval", "(1/2)^300000") == (0, "0\n", "")
        code, out, _ = invoke(capsys, "limit-fn", "(x/2)^300000", "--at", "1")
        assert (code, out) == (0, "0 (method: field-evaluation)\n")

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

    def test_integrate_darboux_names_nonmonotone_cells(self, capsys):
        # the one cell of [0, 3] holds the peak of sin: its bounds come from
        # the samples alone, and the text says so as the JSON does
        args = ("integrate", "sin(x)", "--on", "0,3", "--method", "darboux", "--mesh", "3")
        code, out, _ = invoke(capsys, *args)
        assert code == 0 and out.startswith("L = 0  U = 29924849598121632928251701134")
        assert out.endswith("  (1 nonmonotone cell: inner estimate)\n")
        code, out, _ = invoke(capsys, *args, "--format", "json")
        assert code == 0 and json.loads(out)["result"]["nonmonotone_cells"] == 1

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

    @pytest.mark.parametrize("method", ["gauge", "mcshane"])
    def test_integrate_gauge_ignores_mesh(self, capsys, method):
        # gauge methods take their cells from the gauge: a mesh is not read
        code, out, err = invoke(capsys, "integrate", "1", "--on", "0,1", f"--method={method}",
                                "--gauge=1", "--mesh=0")
        assert (code, out, err) == (0, "1\n", "")

    def test_area_reads_the_seed(self, capsys):
        area = ("--f=0", "--g=x", "--on=0,1", "--tags=seeded-random", "--format=json")

        def read(*argv):
            return [json.loads(invoke(capsys, *argv, *area, f"--seed={seed}")[1])
                    for seed in (3, 4)]

        measured = read("measure", "area", "--mesh=1/4")
        assert measured[0]["result"] != measured[1]["result"]
        studied = read("converge", "area", "--meshes=1/2,1/4", "--oracle=1/2")
        assert studied[0]["rows"] != studied[1]["rows"]

    def test_measure_morley(self, capsys):
        code, out, _ = invoke(capsys, "measure", "morley", "--radius", "1", "--n", "10")
        assert code == 0 and "(~ 1.9" in out

    @pytest.mark.parametrize("mesh", ["0", "-1", "q"])
    def test_measure_morley_ignores_mesh(self, capsys, mesh):
        # the strip sum reads no mesh, so a malformed one is not an error
        plain = invoke(capsys, "measure", "morley", "--n", "4")
        assert invoke(capsys, "measure", "morley", "--n", "4", f"--mesh={mesh}") == plain


class TestJson:
    def test_envelope(self, capsys):
        code, out, _ = invoke(capsys, "--format", "json", "diff", "x^3", "--at", "2")
        doc = json.loads(out)
        assert doc["operation"] == "diff"
        assert doc["result"]["value"] == "12"

    def test_flag_position_after_subcommand(self, capsys):
        code, out, _ = invoke(capsys, "diff", "x^3", "--at", "2", "--format", "json")
        assert code == 0 and json.loads(out)["result"]["value"] == "12"

    def test_gauge_params_leave_out_mesh(self, capsys):
        code, out, _ = invoke(capsys, "--format", "json", "integrate", "x", "--on", "0,1",
                              "--method", "mcshane", "--gauge", "1/4")
        doc = json.loads(out)
        assert code == 0 and set(doc["result"]) == {"value"}
        assert doc["params"] == {"expr": "x", "method": "mcshane", "on": "0,1", "gauge": "1/4"}

    @pytest.mark.parametrize("argv, params", [
        # work sums at cell centers and reads no tag rule or morley option
        (("measure", "work", "--field=y;x", "--curve=t;t^2", "--on=0,1", "--mesh=1/4",
          "--tags=seeded-random"),
         {"kind": "work", "field": "y;x", "curve": "t;t^2", "on": "0,1", "mesh": "1/4"}),
        # volume-rev sums at min-vertex whatever --tags says
        (("measure", "volume-rev", "--f=x", "--on=0,1", "--mesh=1/4", "--tags=center"),
         {"kind": "volume-rev", "f": "x", "on": "0,1", "mesh": "1/4"}),
        (("measure", "area", "--f=0", "--g=1", "--on=0,1", "--tags=center"),
         {"kind": "area", "f": "0", "g": "1", "on": "0,1", "mesh": "1/64", "tags": "center"}),
        (("measure", "moment", "--region=x^2+y^2-1", "--integrand=x^2", "--mesh=1/4"),
         {"kind": "moment", "region": "x^2+y^2-1", "integrand": "x^2", "mesh": "1/4"}),
        # the strip sum reads no mesh
        (("measure", "morley", "--n=4"),
         {"kind": "morley", "radius": "1", "n": "4", "edge": "outer"}),
        (("measure", "area", "--f=0", "--g=x", "--on=0,1", "--tags=seeded-random"),
         {"kind": "area", "f": "0", "g": "x", "on": "0,1", "mesh": "1/64",
          "tags": "seeded-random", "seed": "0"}),
    ], ids=["work", "volume-rev", "area", "moment", "morley", "area-seed"])
    def test_measure_params_are_the_options_read(self, capsys, argv, params):
        code, out, err = invoke(capsys, "--format", "json", *argv)
        assert (code, err) == (0, "")
        assert json.loads(out)["params"] == params

    @pytest.mark.parametrize("argv, params", [
        (("measure", "area", "--f=0", "--g=1", "--on=0,1", "--meshes=1/2,1/4"),
         {"kind": "area", "f": "0", "g": "1", "on": "0,1", "meshes": "1/2,1/4",
          "tags": "min-vertex"}),
        (("converge", "riemann", "--expr=x", "--on=0,1", "--meshes=1/2,1/4"),
         {"op": "riemann", "expr": "x", "on": "0,1", "meshes": "1/2,1/4", "oracle": "simpson",
          "tags": "min-vertex"}),
        (("converge", "length", "--curve=t;t", "--on=0,1", "--meshes=1/2,1/4", "--oracle=1"),
         {"op": "length", "curve": "t;t", "on": "0,1", "meshes": "1/2,1/4", "oracle": "1",
          "path": "integral"}),
    ], ids=["measure-area", "converge-riemann", "converge-length"])
    def test_study_params_are_the_options_read(self, capsys, argv, params):
        code, out, err = invoke(capsys, "--format", "json", *argv)
        assert (code, err) == (0, "")
        assert json.loads(out)["params"] == params

    @pytest.mark.parametrize("argv, params", [
        (("integrate", "x", "--on=0,1", "--tags=center"),
         {"expr": "x", "method": "riemann", "on": "0,1", "mesh": "1/64", "tags": "center"}),
        # a box is read instead of --on
        (("integrate", "x*y", "--rect=0,1;0,1", "--on=0,2", "--mesh=1/2"),
         {"expr": "x*y", "method": "riemann", "rect": "0,1;0,1", "mesh": "1/2",
          "tags": "min-vertex"}),
        (("integrate", "x", "--on=0,1", "--tags=seeded-random", "--seed=3"),
         {"expr": "x", "method": "riemann", "on": "0,1", "mesh": "1/64",
          "tags": "seeded-random", "seed": "3"}),
        (("integrate", "x", "--on=0,1", "--method=darboux", "--tags=center"),
         {"expr": "x", "method": "darboux", "on": "0,1", "mesh": "1/64", "samples": "5"}),
        (("integrate", "x", "--on=0,1", "--method=stieltjes", "--phi=x^2", "--gauge=1"),
         {"expr": "x", "method": "stieltjes", "on": "0,1", "phi": "x^2", "mesh": "1/64",
          "tags": "min-vertex"}),
        (("eval", "1/2"), {"expr": "1/2"}),
        (("probe-supernear", "--generator=x", "--target=x", "--on=0,1", "--meshes=1/2,1/4"),
         {"generator": "x", "target": "x", "on": "0,1", "meshes": "1/2,1/4"}),
    ], ids=["integrate", "integrate-rect", "integrate-seed", "darboux", "stieltjes", "eval",
            "probe-supernear"])
    def test_request_params_are_the_options_read(self, capsys, argv, params):
        code, out, err = invoke(capsys, "--format", "json", *argv)
        assert (code, err) == (0, "")
        assert json.loads(out)["params"] == params

    def test_study_text_lists_params_in_option_order(self, capsys):
        code, out, _ = invoke(capsys, "converge", "area", "--tags=seeded-random", "--g=x",
                              "--f=0", "--oracle=1/2", "--on=0,1", "--meshes=1/2,1/4")
        assert code == 0
        assert out.split("\n")[1:9] == [
            "  op = area", "  f = 0", "  g = x", "  on = 0,1", "  meshes = 1/2,1/4",
            "  oracle = 1/2", "  tags = seeded-random", "  seed = 0"]

    def test_converge_riemann_reads_rect(self, capsys):
        code, out, err = invoke(capsys, "--format=json", "converge", "riemann", "--expr=x",
                                "--rect=0,2", "--on=0,1", "--meshes=1/2,1/4", "--oracle=2")
        assert (code, err) == (0, "")
        assert [row["value"] for row in json.loads(out)["rows"]] == ["3/2", "7/4"]
        # the Simpson oracle integrates over an interval, not a box
        code, out, err = invoke(capsys, "converge", "riemann", "--expr=x", "--rect=0,2",
                                "--meshes=1/2,1/4")
        assert (code, out) == (2, "")
        assert err == "parse-error: expected a rational --oracle for this op at offset 0, found 'simpson'\n"

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
        assert err == "error: ApproxOverflow: power 3^200000 exceeds magnitude cap (at offset 1)\n"

    def test_oversized_value_in_error_text(self, capsys):
        # (7/3)^40000 is exact with a 33 804-digit numerator, past the
        # int-to-str limit; the overflow text shows its size instead
        code, _, err = invoke(capsys, "eval", "((7/3)^40000)^5")
        assert code == 1
        assert err == ("error: ApproxOverflow: power (<rational of 112295/63399 bits>)^5 "
                       "exceeds magnitude cap (at offset 13)\n")

    def test_result_past_the_int_to_str_limit(self, capsys):
        # the exact value is printed in full; Decimal writes the digits here
        # without going through int's str, which refuses past 4 300 digits
        limit = sys.get_int_max_str_digits()
        code, out, err = invoke(capsys, "eval", "(7/3)^40000")
        assert (code, err) == (0, "")
        assert out == f"{Decimal(7**40000)}/{Decimal(3**40000)}\n"
        assert sys.get_int_max_str_digits() == limit  # the process-wide limit is kept

    @pytest.mark.parametrize("source", ["sin(10^5000)", "tan(10^5000)", "cos(-10^6000)",
                                        "sqrt(10^10000/7)"])
    def test_arguments_past_the_int_to_str_limit(self, capsys, source):
        # the kernels count an argument's integer digits from its bit length;
        # str of an int past 4 300 digits raises ValueError, which the CLI
        # reported as a usage error
        code, out, err = invoke(capsys, "eval", source)
        assert (code, err) == (0, "")
        num, _, den = out.strip().partition("/")
        with localcontext() as ctx:
            ctx.prec = len(num) + 60
            got = Decimal(num) / Decimal(den or 1)
            if source.startswith("sqrt"):
                want = (Decimal(10) ** 10000 / 7).sqrt()
            else:
                x = -Fraction(10**6000) if "6000" in source else Fraction(10**5000)
                s, c = decimal_sin_cos(x, 40)
                want = {"sin": s, "cos": c, "tan": s / c}[source[:3]]
            assert abs(got - want) < Decimal(10) ** -40

    def test_gauge_cap_with_a_large_radius_is_one(self, capsys):
        # the radius in the cap's text is past the int-to-str digit limit
        code, _, err = invoke(capsys, "integrate", "x", "--on", "0,1", "--method", "gauge",
                              "--gauge", "(1/10)^5000")
        assert code == 1
        assert err.startswith("error: DepthExceeded: no gauge-fine cell after 64 bisections")

    def test_solid_at_the_default_mesh_is_one(self, capsys):
        # 128^3 cells at the default mesh 1/64: past the 2^20 cells of one grid
        code, out, err = invoke(capsys, "measure", "mass", "--region", "x^2+y^2+z^2-1")
        assert (code, out) == (1, "")
        assert err == ("error: DepthExceeded: grid of 2097152 cells exceeds the cap of "
                       "1048576 cells\n")

    def test_simpson_oracle_at_a_jump_is_one(self, capsys):
        code, out, err = invoke(capsys, "converge", "riemann", "--expr", "abs(x-1/3)/(x-1/3)",
                                "--on", "0,1", "--meshes", "1/4,1/8", "--oracle", "simpson")
        assert (code, out) == (1, "")
        assert err == ("error: OracleFailure: quadrature exceeded 1000 halvings "
                       "near 0.333333333333\n")

    def test_precision_exhausted_is_one(self, capsys):
        code, _, err = invoke(capsys, "limit-fn", "(sin(x^8)-x^8)/x^24", "--at", "0")
        assert code == 1 and err.startswith("error: PrecisionExhausted:")
        assert "window 16 is the ceiling" in err
        code, out, _ = invoke(capsys, "limit-fn", "(sin(x^8)-x^8)/x^24", "--at", "0",
                              "--window", "32")
        assert code == 0 and out == "-1/6 (method: field-evaluation)\n"

    def test_parse_error_is_two(self, capsys):
        code, _, err = invoke(capsys, "eval", "2*")
        assert code == 2
        assert err.startswith("parse-error:")

    def test_number_past_the_digit_limit_is_a_parse_error(self, capsys):
        code, out, err = invoke(capsys, "eval", "1" * 5000)
        assert (code, out) == (2, "")
        assert err == (f"parse-error: expected number of at most {sys.get_int_max_str_digits()} "
                       f"digits at offset 0, found 5000 characters\n")

    def test_non_decimal_digit_is_a_parse_error(self, capsys):
        # '²' is a digit to str.isdigit but not a decimal digit to Fraction
        code, _, err = invoke(capsys, "eval", "2²")
        assert code == 2
        assert err == "parse-error: expected token at offset 1, found '²'\n"

    def test_domain_error_named(self, capsys):
        code, _, err = invoke(capsys, "eval", "ln(-1)")
        assert code == 1 and "DomainError" in err

    def test_zero_velocity_named(self, capsys):
        code, _, err = invoke(capsys, "tangent", "--curve", "t^2; t^2", "--at", "0")
        assert code == 1 and "ZeroVelocity" in err

    def test_unknown_flag(self, capsys):
        code, out, err = invoke(capsys, "diff", "x", "--at", "0", "--bogus")
        assert (code, out, err) == (2, "", "usage-error: unrecognized arguments: --bogus\n")

    def test_argparse_usage_error_returns_two(self, capsys):
        code, out, err = invoke(capsys, "eval")
        assert (code, out) == (2, "")
        assert err == "usage-error: the following arguments are required: expr\n"

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["--help"])
        assert exc.value.code == 0 and "hyperreal workbench" in capsys.readouterr().out

    def test_mixed_curve_parameters_usage_error(self, capsys):
        code, _, err = invoke(capsys, "tangent", "--curve", "cos(t); sin(u)", "--at", "0")
        assert code == 2 and err.startswith("usage-error:")

    def test_dimension_mismatch_usage_error(self, capsys):
        code, _, err = invoke(capsys, "jacobian", "--map", "x*y*z", "--at", "1,2")
        assert code == 2 and err.startswith("usage-error:")

    @pytest.mark.parametrize("argv", [
        ("measure", "area", "--f=0", "--g=1", "--on=0,1", "--mesh=0"),
        ("measure", "mass", "--region=x^2+y^2-1", "--mesh=-1/4"),
        ("measure", "impulse", "--force=t", "--on=0,1", "--meshes=1/2,0"),
        ("converge", "moment", "--region=x^2+y^2-1", "--meshes=-1/2,1/4", "--oracle=1"),
        ("converge", "riemann", "--expr=x", "--on=0,1", "--meshes=1/2,0", "--oracle=1/2"),
        ("integrate", "x", "--on=0,1", "--mesh=0"),
        ("integrate", "x", "--on=0,1", "--method=darboux", "--mesh=-1/8"),
        ("probe-supernear", "--generator=x", "--target=x", "--on=0,1", "--meshes=1/2,0"),
        ("probe-supernear", "--generator=x", "--target=x", "--on=0,1", "--meshes=-1/2,1/4"),
    ])
    def test_non_positive_mesh_is_a_parse_error(self, capsys, argv):
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("parse-error: expected positive mesh") and err.count("\n") == 1

    def test_probe_mesh_wider_than_the_interval(self, capsys):
        # the cell count is rounded up, as for every other command: one cell
        # here, in a row at the requested mesh
        code, out, _ = invoke(capsys, "probe-supernear", "--generator=x", "--target=x",
                              "--on=0,1", "--meshes=2", "--format=json")
        assert code == 0
        assert [row["mesh"] for row in json.loads(out)["result"]["rows"]] == ["2"]

    def test_probe_rounds_cells_up(self, capsys):
        # 2/3 on [0, 1] takes two cells of 1/2, and its row reads the
        # requested 2/3, as in measure and converge
        code, out, _ = invoke(capsys, "probe-supernear", "--generator=x", "--target=x",
                              "--on=0,1", "--meshes=2/3,1/3", "--format=json")
        assert code == 0
        rows = json.loads(out)["result"]["rows"]
        assert [row["mesh"] for row in rows] == ["2/3", "1/3"]
        assert [row["max_deviation"] for row in rows] == ["1/4", "1/6"]


@pytest.mark.xfail(strict=True, reason="a rounded constant that cancels to a tiny value "
                                       "is read as exact (ROADMAP, Known defects)")
@pytest.mark.parametrize("command, true_value", [  # None: no value is right, only a refusal
    ("limit-seq 'n*(sqrt(2)^2-2)'", "0"),
    ("limit-seq '(exp(1)^2 - exp(2))*n'", "0"),
    ("limit-fn '(sqrt(2)^2-2)/x^2' --at 0", "0"),
    ("limit-fn 'x/(sin(x)^2+cos(x)^2-1)' --at 1", None),
    ("eval '1/(sqrt(2)^2-2)'", None),
])
def test_cancelled_rounded_constant_is_refused_or_exact(capsys, command, true_value):
    code, out, err = invoke(capsys, *shlex.split(command))
    refused = code == 1 and re.match(r"error: [A-Za-z]+: ", err) is not None
    exact = true_value is not None and code == 0 and out.split()[0] == true_value
    assert refused or exact, (code, out, err)


class TestDeepExpressions:
    """Too deep for the recursive walks: one parse error at the offset where
    the parser's bound is passed (100 nested levels, 800 levels of operations)."""

    @pytest.mark.parametrize("expr, offset, found", [
        ("(" * 200 + "x" + ")" * 200, 100, "("),
        ("sin(" * 150 + "x" + ")" * 150, 400, "sin"),
    ], ids=["parentheses", "calls"])
    def test_nesting_is_a_parse_error(self, capsys, expr, offset, found):
        code, out, err = invoke(capsys, "eval", expr, "--at", "x=1")
        assert (code, out) == (2, "")
        assert err == (f"parse-error: expected at most 100 nested levels "
                       f"at offset {offset}, found {found}\n")

    def test_long_sum_is_a_parse_error(self, capsys):
        # the 800th '+' makes the tree 801 levels high
        code, out, err = invoke(capsys, "eval", " + ".join(["x"] * 3000), "--at", "x=1")
        assert (code, out) == (2, "")
        assert err == ("parse-error: expected at most 800 levels of operations "
                       "at offset 3198, found +\n")

    def test_long_sum_compiles(self, capsys):
        # 500 terms: past what two frames a level in the code generator allowed
        expr = " + ".join(f"{k}*x" for k in range(1, 501))
        integrated = invoke(capsys, "integrate", expr, "--on", "0,1", "--mesh", "1/4")
        assert integrated == (0, "187875/4\n", "")
        assert invoke(capsys, "eval", expr, "--at", "x=1") == (0, "125250\n", "")
        assert invoke(capsys, "diff", expr, "--at", "0") == (0, "125250\n", "")

    def test_sum_at_the_bound(self, capsys):
        expr = "x" + " + x" * 799
        assert invoke(capsys, "integrate", expr, "--on", "0,1", "--mesh", "1/2") == (0, "200\n", "")
        assert invoke(capsys, "diff", expr, "--at", "1") == (0, "800\n", "")


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


@pytest.mark.parametrize("module", ["hrw", "hrw.cli"])
def test_module_entry_points(module):
    proc = subprocess.run([sys.executable, "-m", module, "eval", "1/3 + 1/6"],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "1/2\n", "")


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


class TestOneProcess:
    def test_requests_share_one_parser(self, capsys):
        requests = [["--precision", "60", "eval", "pi"], ["eval", "pi"], ["eval", "pi", "--bogus"]]
        for argv in requests:
            code = run(argv)
            captured = capsys.readouterr()
            fresh = subprocess.run(
                [sys.executable, "-c",
                 "import sys; from hrw.cli import run; sys.exit(run(sys.argv[1:]))", *argv],
                capture_output=True, text=True,
            )
            assert (code, captured.out, captured.err) == (fresh.returncode, fresh.stdout, fresh.stderr)
        assert code == 2 and captured.err.startswith("usage-error:")


# every measure kind and converge op: the options it needs, and a full request
_DISC = {"--region": "x^2+y^2-1"}
_CURVE = {"--curve": "t; t^2", "--on": "0,1"}
REQUESTS = {
    ("measure", "area"): ({"--f": "0", "--g": "x^2", "--on": "0,1"}, ["--mesh", "1/4"]),
    ("measure", "volume-rev"): ({"--f": "x", "--on": "0,1"}, ["--mesh", "1/4"]),
    ("measure", "surface-rev"): ({"--f": "x", "--on": "0,1"}, ["--mesh", "1/4"]),
    ("measure", "length"): (_CURVE, ["--mesh", "1/4"]),
    ("measure", "mass"): (_DISC, ["--mesh", "1/4"]),
    ("measure", "com"): (_DISC, ["--mesh", "1/4"]),
    ("measure", "moment"): ({**_DISC, "--integrand": "x^2+y^2"}, ["--mesh", "1/4"]),
    ("measure", "work"): ({"--field": "y; x", **_CURVE}, ["--mesh", "1/4"]),
    ("measure", "impulse"): ({"--force": "t", "--on": "0,1"}, ["--mesh", "1/4"]),
    ("measure", "morley"): ({}, ["--n", "4"]),
    ("converge", "riemann"): ({"--expr": "x^2", "--on": "0,1"}, ["--meshes", "1/4,1/8"]),
    ("converge", "area"): ({"--f": "0", "--g": "x^2", "--on": "0,1"}, ["--meshes", "1/4,1/8"]),
    ("converge", "length"): (_CURVE, ["--meshes", "1/4,1/8", "--oracle", "1"]),
    ("converge", "work"): ({"--field": "y; x", **_CURVE}, ["--meshes", "1/4,1/8", "--oracle", "1"]),
    ("converge", "moment"): (_DISC, ["--meshes", "1/4,1/8", "--oracle", "1"]),
    ("converge", "impulse"): ({"--force": "t", "--on": "0,1"}, ["--meshes", "1/4,1/8"]),
}


def _request(command, kind, drop=None):
    needs, extra = REQUESTS[command, kind]
    argv = [command, kind, *extra]
    for flag, value in needs.items():
        if flag != drop:
            argv += [flag, value]
    return argv


class TestRequiredOptions:
    def test_every_kind_listed(self):
        from hrw.cli import build_parser

        sub = build_parser()._subparsers._group_actions[0].choices
        for command, positional in (("measure", "kind"), ("converge", "op")):
            action = next(a for a in sub[command]._actions if a.dest == positional)
            assert {k for c, k in REQUESTS if c == command} == set(action.choices)

    @pytest.mark.parametrize("command,kind", sorted(REQUESTS))
    def test_full_request_succeeds(self, capsys, command, kind):
        code, out, err = invoke(capsys, *_request(command, kind))
        assert code == 0 and out and not err

    @pytest.mark.parametrize(
        "command,kind,flag",
        [(c, k, flag) for (c, k), (needs, _) in sorted(REQUESTS.items()) for flag in needs],
    )
    def test_missing_option_is_one_parse_error(self, capsys, command, kind, flag):
        code, out, err = invoke(capsys, *_request(command, kind, drop=flag))
        assert (code, out) == (2, "")
        assert err.startswith("parse-error: ") and err.count("\n") == 1
        assert flag in err and f"{command} {kind}" in err


class TestMeasureMeshes:
    def test_repeated_mesh_rejected_like_converge(self, capsys):
        area = ["--f", "0", "--g", "x^2", "--on", "0,1", "--meshes", "1/4,1/4,1/8"]
        measured = invoke(capsys, "measure", "area", *area)
        converged = invoke(capsys, "converge", "area", *area)
        probed = invoke(capsys, "probe-supernear", "--generator", "x", "--target", "x",
                        *area[-4:])
        assert measured == converged == probed
        assert measured == (2, "", "usage-error: meshes must be strictly decreasing\n")

    def test_report_lists_meshes_in_decreasing_order(self, capsys):
        code, out, _ = invoke(capsys, "--format", "json", "measure", "impulse", "--force", "t",
                              "--on", "0,1", "--meshes", "1/8,1/2,1/4")
        doc = json.loads(out)
        assert code == 0 and [row["mesh"] for row in doc["rows"]] == ["1/2", "1/4", "1/8"]
        assert doc["oracle"] == doc["estimate"]

    @pytest.mark.parametrize("kind", ["volume-rev", "surface-rev", "length", "com", "work", "morley"])
    @pytest.mark.parametrize("option", [["--meshes", "1/3,1/5,1/7"], ["--oracle", "1/3"]])
    def test_study_options_refused_for_single_value_kinds(self, capsys, kind, option):
        code, out, err = invoke(capsys, *_request("measure", kind), *option)
        assert (code, out) == (2, "")
        assert err == (f"usage-error: --meshes and --oracle apply to measure "
                       f"area/moment/mass/impulse, not {kind}\n")

    @pytest.mark.parametrize("kind", ["area", "moment", "mass", "impulse"])
    def test_oracle_without_meshes_refused(self, capsys, kind):
        # one value at --mesh reads no oracle, so a given one is refused, not ignored
        code, out, err = invoke(capsys, *_request("measure", kind), "--oracle", "7")
        assert (code, out, err) == (2, "", "usage-error: --oracle needs --meshes\n")
