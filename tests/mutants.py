"""Kept mutants of the rules that guard exactness, and their runner.

Some guards fail silently when they break: the program still answers, with
a wrong value.  Each entry below breaks one such rule by a one-text edit of
``src/`` and names the tests that must notice it.  The runner copies
``src/`` to a temporary directory, applies one mutant there and runs
``pytest -x`` on the entry's tests against that copy.  It fails when a
mutant survives (its tests pass), and when an entry's old text no longer
occurs exactly once, so the list cannot fall behind the code.  Standard
library only::

    python tests/mutants.py            # every entry
    python tests/mutants.py NAME ...   # the named entries
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/
    old: str  # must occur exactly once
    new: str
    tests: tuple[str, ...]  # pytest node ids (or options such as -k)
    why: str


DILATED = "tests/test_calculus.py::TestDilatedProbes"
SHAPES = "tests/test_fuzz.py::test_siblings_bind_their_own_constants"

MUTANTS = (
    Mutant(
        "dilation-power-guard", "hrw/exprs.py",
        "if abs(k) * (bits + abs(lam / step) * reach_bits + 1) <= approx.POWER_BITS:",
        "if True:",
        (f"{DILATED}::test_power_guard_at_the_largest_dilation",),
        "an exact power at c + h can pass the exact-power guard at c + n*h",
    ),
    Mutant(
        "dilation-sqrt-head", "hrw/exprs.py",
        "keep(v)\n                return v.nth_root(2)",
        "return v.nth_root(2)",
        (f"{DILATED}::test_rounded_heads",),
        "the rounded root of j^2*a is not j times the rounded root of a",
    ),
    Mutant(
        "dilation-root-head", "hrw/exprs.py",
        "keep(v)\n                return v.nth_root(n)",
        "return v.nth_root(n)",
        (f"{DILATED}::test_rounded_heads",),
        "the rounded n-th root of j^n*a is not j times the rounded root of a",
    ),
    Mutant(
        "dilation-real-power-head", "hrw/exprs.py",
        "keep(base, k)\n",
        "keep(base, k) if k is not None else None\n",
        (f"{DILATED}::test_rounded_heads",),
        "a real power's head a^r is rounded, so it does not commute with the dilation",
    ),
    Mutant(
        "dilation-abs", "hrw/exprs.py",
        "keep(v)\n                return abs(v)",
        "return abs(v)",
        (f"{DILATED}::test_sides_a_sign_change_tells_apart",),
        "abs of a dilated base by a negative j is not the dilated abs",
    ),
    Mutant(
        "dilation-denominator-sign", "hrw/field.py",
        "sign = -1 if den < 0 else 1",
        "sign = 1",
        ("tests/test_field.py::TestDilation",),
        "a negative shared denominator breaks the canonical form, so equal values compare unequal",
    ),
    Mutant(
        "shape-unit-divisor", "hrw/exprs.py",
        'key.append("/1" if abs(n) == 1 else "/q")',
        'key.append("/q")',
        (SHAPES,),
        "x/3 bound to the template of x/(1/3), a product by an integer, loses the 1/3",
    ),
    Mutant(
        "shape-negative-exponent", "hrw/exprs.py",
        'key.append("^0" if n == 0 else "^+" if n > 0 else "^-")',
        'key.append("^0" if n == 0 else "^+")',
        (SHAPES,),
        "x^-2 bound to the template of x^3 would not be inverted",
    ),
    Mutant(
        "shape-integer-literal", "hrw/exprs.py",
        "key.append(0 if node.value.denominator == 1 else 1)",
        "key.append(0)",
        (SHAPES,),
        "1/3 bound to the template of 3, which has no denominator slot, reads as 1",
    ),
)


def run(mutant: Mutant) -> str:
    """'killed', or what went wrong: the mutant survived, its old text is
    stale, or its tests did not run."""
    with tempfile.TemporaryDirectory(prefix="hrw-mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src,
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        path = src / mutant.file
        text = path.read_text()
        if text.count(mutant.old) != 1:
            return f"stale: the old text occurs {text.count(mutant.old)} times in {mutant.file}"
        path.write_text(text.replace(mutant.old, mutant.new))
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
        where = subprocess.run(
            [sys.executable, "-c", "import hrw; print(hrw.__file__)"],
            env=env, cwd=ROOT, capture_output=True, text=True,
        ).stdout.strip()
        if not where.startswith(str(src)):
            return f"error: the tests would import hrw from {where or 'nowhere'}"
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant.tests],
            env=env, cwd=ROOT, capture_output=True, text=True,
        )
    if done.returncode == 1:  # a test failed
        return "killed"
    if done.returncode == 0:
        return "survived"
    tail = (done.stdout + done.stderr).strip().splitlines()[-3:]
    return f"error: pytest exited {done.returncode}: {' | '.join(tail)}"


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"no such mutant: {', '.join(sorted(unknown))}")
        return 2
    failed = 0
    for mutant in chosen:
        start = time.perf_counter()
        verdict = run(mutant)
        failed += verdict != "killed"
        took = time.perf_counter() - start
        print(f"{mutant.name}: {verdict} ({took:.1f} s) - {mutant.why}", flush=True)
    print(f"{len(chosen) - failed} of {len(chosen)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
