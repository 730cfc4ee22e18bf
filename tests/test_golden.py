"""Kept CLI outputs: the requests of ``tests/golden/cli.jsonl`` must give
the exit code, stdout and stderr stored there.

The file holds 2 000 requests drawn once by ``test_fuzz.RequestGen`` at fixed
seeds, over all sixteen subcommands, each run in-process through
``hrw.cli.run`` with ``HRW_PRECISION`` unset.  An output over 4 KB is stored
as its sha256.  argparse's own usage texts change between Python versions,
so a request that argparse refuses is stored by its exit code and the
``usage-error: `` prefix only; every other text is stored verbatim.

An intended change of output rewrites the file with
``python tests/golden/regen.py``; the file's diff then shows each changed
entry.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

from hrw.cli import _parser, _UsageError, run

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli.jsonl"
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
