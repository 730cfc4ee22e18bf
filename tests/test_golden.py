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

An intended change of output rewrites both files with
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

from hrw.calculus import CurveDef
from hrw.cli import _parser, _UsageError, run
from hrw.errors import MathError
from hrw.exprs import parse
from hrw.integration import line_integral_work, measure_curve_length, measure_surface_revolution

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli.jsonl"
MEASURES = GOLDEN.with_name("measures.jsonl")
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
