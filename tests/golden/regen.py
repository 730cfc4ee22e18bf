"""Rewrite cli.jsonl, the kept CLI outputs that ``tests/test_golden.py``
replays: 250 requests from each of eight seeds of ``test_fuzz.RequestGen``,
one JSON entry a line.

Run from the repository root, after an intended change of output:

    PYTHONPATH=src python tests/golden/regen.py

and read the file's diff: each changed line is a changed entry.
"""

from __future__ import annotations

import json
import os
import random
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(TESTS))

from test_fuzz import RequestGen  # noqa: E402
from test_golden import GOLDEN, record  # noqa: E402

SEEDS = range(8)
PER_SEED = 250


def main() -> None:
    os.environ.pop("HRW_PRECISION", None)
    lines = []
    for seed in SEEDS:
        gen = RequestGen(random.Random(2600 + seed))
        lines += [json.dumps(record(gen.request())) for _ in range(PER_SEED)]
    GOLDEN.write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
