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
ZIV = "tests/test_approx.py::test_ziv_retry_fires_and_rounds_correctly"
FALLBACK = "tests/test_integration.py::TestTangentFallback"

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
    Mutant(
        "ziv-sin-cos-bound", "hrw/approx.py",
        "p, 4 * terms + abs(k) + 3",
        "p, 0",
        (ZIV,),
        "sin, cos and tan round a value whose error bound holds a grid midpoint",
    ),
    Mutant(
        "ziv-tan-bound", "hrw/approx.py",
        "et = (e * (c + abs(s)) << q) // (c * (c - e)) + 2",
        "et = 0",
        (ZIV,),
        "tan = s/c rounds a quotient whose error bound holds a grid midpoint",
    ),
    Mutant(
        "ziv-exp-bound", "hrw/approx.py",
        "(4 * terms + 2 * abs(m) + 3) * unit",
        "0",
        (ZIV,),
        "exp rounds a value whose error bound holds a grid midpoint",
    ),
    Mutant(
        "ziv-ln-bound", "hrw/approx.py",
        "(4 * terms + abs(e2) + 5) * unit",
        "0",
        (ZIV,),
        "ln rounds a value whose error bound holds a grid midpoint",
    ),
    Mutant(
        "reduction-k-error", "hrw/approx.py",
        "4 * terms + abs(k) + 3",
        "4 * terms + 3",
        ("tests/test_approx.py::test_sin_far_out_next_to_a_midpoint",),
        "each of the k 2pi taken off sin's argument carries the rounding error of 2pi",
    ),
    Mutant(
        "exp-nearest-node", "hrw/approx.py",
        "j = (r + (1 << (p - 6))) >> (p - 5)  # the node nearest r",
        "j = r >> (p - 5)  # the node nearest r",
        ("tests/test_approx.py::test_series_run_on_short_arguments",),
        "a node below r leaves delta up to 1/32, outside the range exp's series is sized for",
    ),
    Mutant(
        "ln-u-sign", "hrw/approx.py",
        "v = 2 * (a0 + a1) if a >= 0 else -2 * (a0 + a1)",
        "v = 2 * (a0 + a1)",
        ("tests/test_approx.py::test_ln_matches_decimal",),
        "t below its node c_j has ln t = ln c_j - 2 artanh|u|, not plus",
    ),
    Mutant(
        "table-entry-rounding", "hrw/approx.py",
        "tuple((v + (1 << 31)) >> 32 for v in node(j, p + 32))",
        "tuple(v >> 32 for v in node(j, p + 32))",
        ("tests/test_approx.py::test_table_entries_are_within_half_a_unit",),
        "a truncated table entry is off by up to 1 + 2^-20 units, more than the one unit the bounds count",
    ),
    Mutant(
        "reader-slope-first", "hrw/integration.py",
        "return partial(point, n, d), partial(jet, n, d)",
        "return partial(point, n, d), (lambda slope=jet(n, d): slope)",
        (f"{FALLBACK}::test_errors_are_the_jet_paths",),
        "a jet taken before the radius check or the force raises the jet's error in their place",
    ),
    Mutant(
        "reader-value-from-jet", "hrw/integration.py",
        "return fn(n, d)",
        "return taylor_jet(e, Fraction(n, d), 1, cfg, var).coeffs[0].as_integer_ratio()",
        (f"{FALLBACK}::test_errors_are_the_jet_paths",),
        "the jet's constant term has a value where compile_real refuses, as at 0 of t^2/t",
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
