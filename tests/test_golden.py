"""Kept outputs: the requests of ``tests/golden/cli.jsonl`` must give the
exit code, stdout and stderr stored there, and the measure calls of
``tests/golden/measures.jsonl`` the values or errors stored there.

The file holds 2 000 requests drawn once by ``test_fuzz.RequestGen`` at fixed
seeds, over all sixteen subcommands, each run in-process through
``hrw.cli.run`` with ``HRW_PRECISION`` unset.  An output over 4 KB is stored
as its sha256.  argparse's own usage texts change between Python versions,
so a request that argparse refuses is stored by its exit code and the
``usage-error: `` prefix only; every other text is stored verbatim.

The measure file holds surface of revolution, curve length and line work
calls at precisions 12, 20 and 40: the benchmark's curve, force and surface
families, seeded random trees, and the points where a jet and a point
evaluation part ways (removable singularities, ``abs`` and ``sqrt`` at 0,
poles, ``root`` of zero and of negative values, ``tan`` at a pole, real
powers, a negative radius whose slope fails too).  Each value is stored as
hex numerator and denominator, so values past Python's int-to-str limit
compare too; each error as its type, text and offset.

The compiled-code file holds seeded random trees (``test_fuzz.ExprGen``)
at precisions 12 and 40, each with its integer arguments and outcomes:
``compile_real``'s function at a reduced point and at the same point
unreduced; ``compile_rows``' ``values`` and ``sum`` over a row at loop 1
and at loop = all; and for a tree in x alone the tangent code's value and
slope at two points, or its error there, or "declined" where the tree has
no tangent code.  Values are stored as reduced hex numerator and
denominator, a value over 4 KB as the sha256 of that text.

The sums file holds the partition sums and the Simpson oracle: Darboux
bounds in one to three dimensions at 2, 3 and 5 samples per axis on
simple and uneven explicit axes, Riemann sums under every tag rule,
Riemann-Stieltjes sums, area between curves, volume of revolution,
impulse, inner sums, mass and moments in two and three dimensions, gauge
sums and Cousin partitions in both modes, and adaptive Simpson on smooth
integrands and on a pole with the interval cap lowered to the case's
``cap``.  The integrands are seeded random trees and chosen poles on
sample points, so errors occur too.  Values are stored as
``compiled.jsonl``'s are, counts as integers, a Cousin partition as its
breakpoints and then its tags, and a value list over 4 KB as the sha256 of
its JSON text.

The pin file holds the CLI requests whose outputs were pinned one by one:
seeded sums, row kernels, integer kernels, correctly rounded sin, cos and
tan, and their error texts.  They are stored as cli.jsonl's requests are,
and replayed the same way, on every Python that runs the tests.

The kernel file holds calls of the integer kernels of ``hrw.approx`` at
12, 40 and 80 digits: ``exp_grid``, ``ln_grid``, ``sin_cos_grid`` and
``tan_grid`` at seeded arguments of the benchmark's kind (dyadic 64-bit
tags of a cell mapped into [1, 5]) and of ``test_fuzz.kernel_argument``'s
ranges, and at the edges: exp at its underflow edge and past its magnitude
cap, ln of 0 and of negative values, sin and cos past 4 and at 10^5000, tan
next to a pole; ``sqrt_pair`` at seeded arguments with and without square
parts; and ``pi_approx``.  Arguments and values are stored in hex; a
refusal as its error's type, text and offset.

The compiled-code and sums files are also replayed through both paths of
the template cache: with the cache cleared before every entry, so that
each shape's code comes from a walk of that entry's tree, and then twice
more, the second time with every compile a hit.

An intended change of output rewrites every file with
``python tests/golden/regen.py``; the files' diffs then show each changed
entry.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest

from hrw import approx, exprs, integration
from hrw.calculus import CurveDef
from hrw.cli import _parser, _UsageError, run
from hrw.errors import MathError
from hrw.exprs import _compile_tangent, _no_tangent, compile_real, compile_rows, parse
from hrw.integration import (
    Gauge,
    PartitionSpec,
    Rect,
    Region,
    adaptive_simpson,
    cousin_partition,
    darboux_bounds,
    gauge_sum,
    impulse,
    inner_sum,
    line_integral_work,
    measure_area_between,
    measure_curve_length,
    measure_mass_moment_com,
    measure_moment,
    measure_surface_revolution,
    measure_volume_revolution,
    riemann_stieltjes_sum,
    riemann_sum,
)

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli.jsonl"
MEASURES = GOLDEN.with_name("measures.jsonl")
COMPILED = GOLDEN.with_name("compiled.jsonl")
PINS = GOLDEN.with_name("pins.jsonl")
SUMS = GOLDEN.with_name("sums.jsonl")
KERNELS = GOLDEN.with_name("kernels.jsonl")
_KEPT_BYTES = 4096
_USAGE = "usage-error: "


def _kept(text: str) -> str | dict:
    data = text.encode()
    return text if len(data) <= _KEPT_BYTES else {"sha256": hashlib.sha256(data).hexdigest()}


def record(argv: list[str]) -> dict:
    """The stored form of one request's outcome."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    stderr = _kept(err.getvalue())
    if code == 2 and err.getvalue().startswith(_USAGE):
        try:
            _parser().parse_args(argv)
        except _UsageError:
            stderr = {"prefix": _USAGE}
    return {"argv": argv, "exit": code, "stdout": _kept(out.getvalue()), "stderr": stderr}


def test_cli_outputs_are_kept(monkeypatch):
    monkeypatch.delenv("HRW_PRECISION", raising=False)
    lines = GOLDEN.read_text().splitlines()
    assert len(lines) == 2000
    for number, line in enumerate(lines, 1):
        want = json.loads(line)
        assert record(want["argv"]) == want, f"{GOLDEN.name} line {number}"


def test_pinned_outputs_are_kept(monkeypatch):
    monkeypatch.delenv("HRW_PRECISION", raising=False)
    for number, line in enumerate(PINS.read_text().splitlines(), 1):
        want = json.loads(line)
        assert record(want["argv"]) == want, f"{PINS.name} line {number}"


def _measure(case: dict) -> tuple[Fraction, ...]:
    a, b = (Fraction(v) for v in case["on"])
    m, precision = case["m"], case["precision"]
    if case["measure"] == "surface":
        return (measure_surface_revolution(parse(case["f"]), a, b, m, precision),)
    curve = CurveDef(tuple(map(parse, case["curve"])), case["param"])
    if case["measure"] == "length":
        return tuple(measure_curve_length(curve, a, b, m, precision))
    return tuple(line_integral_work(list(map(parse, case["field"])), curve, a, b, m, precision))


def measure_record(case: dict) -> dict:
    """One measure call (case) and its outcome: its values as hex
    numerator/denominator pairs, or its error's type, text and offset."""
    try:
        out = {"values": [[hex(v.numerator), hex(v.denominator)] for v in _measure(case)]}
    except MathError as ex:
        out = {"error": type(ex).__name__, "text": str(ex), "offset": ex.pos}
    return {**case, **out}


def test_measure_outputs_are_kept():
    lines = MEASURES.read_text().splitlines()
    for number, line in enumerate(lines, 1):
        want = json.loads(line)
        case = {k: v for k, v in want.items() if k not in ("values", "error", "text", "offset")}
        assert measure_record(case) == want, f"{MEASURES.name} line {number}"


_NAMES = ("x", "y", "z")


def _pair(n: int, d: int) -> list[str] | dict:
    """A (numerator, denominator) pair as the reduced hex pair, or the sha256
    of that pair's text when it is over 4 KB."""
    v = Fraction(n, d)
    pair = [hex(v.numerator), hex(v.denominator)]
    text = "/".join(pair).encode()
    return pair if len(text) <= _KEPT_BYTES else {"sha256": hashlib.sha256(text).hexdigest()}


def _outcome(thunk, kept) -> dict:
    try:
        return {"value": kept(thunk())}
    except MathError as ex:
        return {"error": type(ex).__name__, "text": str(ex), "offset": ex.pos}


def compiled_record(case: dict) -> dict:
    """One tree's compiled calls (case) and their outcomes, under "out"."""
    e, precision = parse(case["expr"]), case["precision"]
    fn = compile_real(e, _NAMES, precision)
    out = {"real": [_outcome(lambda: fn(*args), lambda v: _pair(*v))
                    for args in (case["point"], case["scaled"])]}
    rows = []
    for row in case["rows"]:
        kernel = compile_rows(e, _NAMES, precision, row["loop"])
        cells = [tuple(v) if isinstance(v, list) else v for v in row["row"]]
        rows.append({
            "values": _outcome(lambda: kernel.values(*row["head"], cells),
                               lambda vs: [_pair(*v) for v in vs]),
            "sum": _outcome(lambda: kernel.sum(*row["head"], cells, row["weights"]),
                            lambda v: _pair(*v)),
        })
    out["rows"] = rows
    if "slope_at" in case:
        tangent = _compile_tangent(e, "x", precision)
        out["tangent"] = "declined" if tangent is _no_tangent else [
            _outcome(lambda: tangent(*args), lambda v: [_pair(*v[0]), _pair(*v[1])])
            for args in case["slope_at"]]
    return {**case, "out": out}


def test_compiled_outputs_are_kept():
    for number, line in enumerate(COMPILED.read_text().splitlines(), 1):
        want = json.loads(line)
        case = {k: v for k, v in want.items() if k != "out"}
        assert compiled_record(case) == want, f"{COMPILED.name} line {number}"


def _spec(case: dict) -> PartitionSpec:
    if "counts" in case:
        return PartitionSpec.simple(*case["counts"])
    return PartitionSpec.explicit(*([Fraction(v) for v in axis] for axis in case["points"]))


def _sum(case: dict) -> tuple:
    """The values and counts of one sum call (case), in its result's order."""
    kind, p = case["sum"], case["precision"]
    e = {k: parse(case[k]) for k in ("f", "g", "phi", "rho", "integrand", "region", "gauge")
         if k in case}
    if "rect" in case:
        rect = Rect(tuple((Fraction(a), Fraction(b)) for a, b in case["rect"]))
        region = Region(rect, e["region"]) if "region" in e else None
    else:
        a, b = (Fraction(v) for v in case["on"])
    if kind == "darboux":
        return tuple(darboux_bounds(e["f"], rect, _spec(case), case["samples"], p))
    if kind == "riemann":
        return (riemann_sum(e["f"], rect, _spec(case), case["rule"], case["seed"], p),)
    if kind == "stieltjes":
        return (riemann_stieltjes_sum(e["f"], e["phi"], a, b, _spec(case), case["rule"],
                                      case["seed"], p),)
    if kind == "area":
        return (measure_area_between(e["f"], e["g"], a, b, case["m"], case["rule"], p,
                                     case["seed"]),)
    if kind == "volume":
        return (measure_volume_revolution(e["f"], a, b, case["m"], p),)
    if kind == "impulse":
        return (impulse(e["f"], a, b, case["m"], p),)
    if kind == "inner":
        return tuple(inner_sum(e["f"], region, _spec(case), p))
    if kind == "mass":
        props = measure_mass_moment_com(e["rho"], region, _spec(case), p)
        return (props.mass, *props.moments, *props.counts[1:])
    if kind == "moment":
        return (measure_moment(e["rho"], e["integrand"], region, _spec(case), p),)
    if kind == "gauge":
        return (gauge_sum(e["f"], a, b, Gauge(e["gauge"]), case["mode"], p),)
    if kind == "cousin":
        part = cousin_partition(Gauge(e["gauge"]), a, b, case["mode"], p)
        return (*(lo for (lo, _), in part.cells), part.cells[-1][0][1], *(t for t, in part.tags))
    with mock.patch.object(integration, "_SIMPSON_CAP", case.get("cap", integration._SIMPSON_CAP)):
        return (adaptive_simpson(compile_real(e["f"], ("x",), p), a, b),)


def sum_record(case: dict) -> dict:
    """One sum call (case) and its outcome, under "out": its values as
    reduced hex pairs and its counts as integers, or its error."""
    def kept(values: tuple) -> list | dict:
        out = [v if isinstance(v, int) else _pair(v.numerator, v.denominator) for v in values]
        text = json.dumps(out)
        if len(text) > _KEPT_BYTES:
            return {"sha256": hashlib.sha256(text.encode()).hexdigest()}
        return out

    return {**case, "out": _outcome(lambda: _sum(case), kept)}


def test_sum_outputs_are_kept():
    for number, line in enumerate(SUMS.read_text().splitlines(), 1):
        want = json.loads(line)
        case = {k: v for k, v in want.items() if k != "out"}
        assert sum_record(case) == want, f"{SUMS.name} line {number}"


# each kernel of a kernel entry and its arguments' call; a grid value is an
# int, sin_cos_grid's and sqrt_pair's are pairs
_KERNEL_CALLS = {
    "exp": approx.exp_grid,
    "ln": approx.ln_grid,
    "sin_cos": approx.sin_cos_grid,
    "tan": approx.tan_grid,
    "sqrt": approx.sqrt_pair,
}


def kernel_record(case: dict) -> dict:
    """One kernel call (case) and its outcome, under "out": an int value in
    hex, a pair as two hex ints, pi as its grid numerator in hex."""
    digits = case["digits"]
    if case["kernel"] == "pi":
        grid = approx.pi_approx(digits) * 10**digits
        return {**case, "out": {"value": hex(grid.numerator)}}
    n, d = (int(v, 16) for v in case["arg"])
    call = _KERNEL_CALLS[case["kernel"]]
    return {**case, "out": _outcome(lambda: call(n, d, digits),
                                    lambda v: hex(v) if isinstance(v, int) else list(map(hex, v)))}


def test_kernel_outputs_are_kept():
    for number, line in enumerate(KERNELS.read_text().splitlines(), 1):
        want = json.loads(line)
        case = {k: v for k, v in want.items() if k != "out"}
        assert kernel_record(case) == want, f"{KERNELS.name} line {number}"


@pytest.mark.parametrize("path,record", [(COMPILED, compiled_record), (SUMS, sum_record)],
                         ids=["compiled", "sums"])
def test_kept_outputs_by_walk_and_by_template(path, record):
    cache = exprs._template
    entries = [json.loads(line) for line in path.read_text().splitlines()]
    cases = [{k: v for k, v in want.items() if k != "out"} for want in entries]
    for number, (case, want) in enumerate(zip(cases, entries), 1):
        cache.cache_clear()
        assert record(case) == want, f"{path.name} line {number}, by walk"
        assert cache.cache_info().misses > 0
    # each file's shapes (912 and 425) fit in the cache, so the second run hits
    for run in ("warm", "hit"):
        before = cache.cache_info()
        for number, (case, want) in enumerate(zip(cases, entries), 1):
            assert record(case) == want, f"{path.name} line {number}, {run}"
        after = cache.cache_info()
    assert after.misses == before.misses and after.hits > before.hits
