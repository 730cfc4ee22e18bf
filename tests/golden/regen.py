"""Rewrite the kept outputs that ``tests/test_golden.py`` replays, one JSON
entry a line:

* cli.jsonl: 250 requests from each of eight seeds of ``test_fuzz.RequestGen``;
* measures.jsonl: surface of revolution, curve length and line work calls
  (``measure_cases`` below), each with its outcome;
* compiled.jsonl: seeded random trees with the arguments and outcomes of
  their compiled point, row and tangent functions (``compiled_cases``);
* sums.jsonl: partition sums, measures, gauge sums and partitions and the
  Simpson oracle (``sum_cases``), each with its outcome;
* pins.jsonl: the requests of ``PINS_ARGV``, stored as cli.jsonl's are;
* kernels.jsonl: integer kernel calls at 12, 40 and 80 digits, seeded and
  at the edges of their reductions and refusals (``kernel_cases``).

Run from the repository root, after an intended change of output:

    PYTHONPATH=src python tests/golden/regen.py

and read the files' diffs: each changed line is a changed entry.
"""

from __future__ import annotations

import json
import os
import random
import sys
from fractions import Fraction as F
from pathlib import Path

TESTS = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(TESTS))

from hrw import approx  # noqa: E402
from hrw.exprs import Call, free_vars, render  # noqa: E402
from hrw.integration import TAG_RULES, Rect  # noqa: E402
from test_fuzz import (  # noqa: E402
    NAMES, POOL, ExprGen, RequestGen, kernel_argument, rand_ball, rand_explicit, rand_gauge,
    rand_integrand, rand_rational, rand_rect)
from test_golden import (  # noqa: E402
    COMPILED, GOLDEN, KERNELS, MEASURES, PINS, SUMS, compiled_record, kernel_record,
    measure_record, record, sum_record)

SEEDS = range(8)
PER_SEED = 250
PRECISIONS = (12, 20, 40)


def _dec(rng: random.Random, lo: float, hi: float) -> F:
    """A decimal coefficient in [lo, hi] with two digits, as the benchmark draws them."""
    return F(rng.randint(round(lo * 100), round(hi * 100)), 100)


def _interval(rng: random.Random, lo=-1000, hi=0, len_lo=500, len_hi=1500) -> tuple[F, F]:
    a = F(rng.randint(lo, hi), 1000)
    return a, a + F(rng.randint(len_lo, len_hi), 1000)


def _case(kind: str, p: int, a: F, b: F, m: int, **exprs) -> dict:
    return {"measure": kind, "precision": p, "on": [str(a), str(b)], "m": m, **exprs}


def _families(rng: random.Random, p: int) -> list[dict]:
    """The benchmark's curve, force and surface families
    (``bench/wl_trans.py``): circle arcs, catenaries and cycloids for the
    curve length, cos and exp gradient fields along a circle for the work,
    sphere zones and exp surfaces for the surface of revolution."""
    out = []
    for _ in range(2):
        r, w = _dec(rng, 0.5, 2), _dec(rng, 0.5, 2)
        arc = [f"{r}*cos({w}*t)", f"{r}*sin({w}*t)"]
        out.append(_case("length", p, *_interval(rng), rng.randint(6, 10), curve=arc, param="t"))
        catenary = ["t", "0.5*exp(t) + 0.5*exp(-t)"]
        out.append(_case("length", p, *_interval(rng), rng.randint(6, 10), curve=catenary,
                         param="t"))
        r = _dec(rng, 0.5, 2)
        cycloid = [f"{r}*(t - sin(t))", f"{r}*(1 - cos(t))"]
        out.append(_case("length", p, *_interval(rng, 200, 1000, 1000, 3000), rng.randint(6, 10),
                         curve=cycloid, param="t"))
        k, r = _dec(rng, 0.5, 2), _dec(rng, 0.5, 1.5)
        circle = [f"{r}*cos(t)", f"{r}*sin(t)"]
        for fn in ("cos", "exp"):
            out.append(_case("work", p, *_interval(rng), rng.randint(6, 10), curve=circle,
                             param="t", field=[f"{k}*{fn}(x)", f"{k}*{fn}(y)"]))
        R = _dec(rng, 1, 2)
        a = F(rng.randint(-500, 0), 1000) * R
        b = a + F(rng.randint(200, 500), 1000) * R
        out.append(_case("surface", p, a, b, rng.randint(6, 10), f=f"sqrt({R * R} - x^2)"))
        c, kk = _dec(rng, 0.5, 1), _dec(rng, 0.25, 1)
        out.append(_case("surface", p, *_interval(rng), rng.randint(6, 10), f=f"{c}*exp({kk}*x)"))
    return out


def _trees(rng: random.Random, p: int) -> list[dict]:
    """Seeded ``ExprGen`` trees in x (abs, tan, real powers and root among
    their nodes), on intervals with endpoints from the fuzz pool."""
    gen = ExprGen(rng, ("x",))
    out = []
    for _ in range(4):
        (a, b), = rand_rect(rng, 1).intervals
        if rng.random() < 0.5:  # a pool point as an endpoint, so tags meet zero divisors
            a = rng.choice(POOL)
            b = a + F(rng.randint(1, 4), rng.choice([1, 2, 3]))
        m = rng.randint(1, 6)
        radius = gen.tree(3, big=False)
        radius = Call("abs", (radius,)) if rng.random() < 0.3 else radius
        out.append(_case("surface", p, a, b, m, f=render(radius)))
        curve = [render(gen.tree(2, big=False)) for _ in range(2)]
        out.append(_case("length", p, a, b, m, curve=curve, param="x"))
        force = [render(ExprGen(rng, ("x", "y")).tree(2, big=False)) for _ in range(2)]
        out.append(_case("work", p, a, b, m, curve=curve, param="x", field=force))
    return out


def _edges(p: int) -> list[dict]:
    """Points where a jet and a point evaluation part ways: removable
    singularities, abs and sqrt at 0, poles, root of zero and of negative
    values, tan at and near a pole, real powers, and a negative radius whose
    slope also fails there."""
    half_pi = approx.pi_approx(40) / 2  # within 10^-40 of pi/2: tan refuses it
    near = F(355, 226)  # 1.3e-7 past pi/2: tan is about -7.5e6
    one = ["t", "t"]
    out = [
        # m = 3 on [-1/2, 1/2] puts a centre tag at 0, m = 2 on [-1, 1] a min-vertex
        _case("length", p, F(-1, 2), F(1, 2), 3, curve=["t", "sin(t)/t"], param="t"),
        _case("length", p, F(-1, 2), F(1, 2), 3, curve=["(t^2)/t", "t"], param="t"),
        _case("work", p, F(-1, 2), F(1, 2), 3, curve=["t", "sin(t)/t"], param="t",
              field=["y", "x"]),
        _case("work", p, F(-1, 2), F(1, 2), 3, curve=one, param="t", field=["sin(x)/x", "1"]),
        _case("surface", p, F(-1), F(1), 2, f="sin(x)/x"),
        _case("surface", p, F(-1), F(1), 2, f="(x^2)/x + 2"),
        _case("length", p, F(-1, 2), F(1, 2), 3, curve=["t", "abs(t)"], param="t"),
        _case("surface", p, F(-1), F(1), 2, f="abs(x) + 1"),
        _case("length", p, F(-1, 2), F(1, 2), 3, curve=["t", "sqrt(t^2)"], param="t"),
        _case("surface", p, F(-1), F(1), 2, f="sqrt(x^2) + 1"),
        _case("surface", p, F(0), F(1), 2, f="sqrt(x) + 1"),
        _case("length", p, F(0), F(1), 1, curve=["t", "1/(t - 1/2)"], param="t"),
        _case("work", p, F(0), F(1), 1, curve=one, param="t", field=["1/(x - 1/2)", "1"]),
        _case("surface", p, F(1, 2), F(1), 2, f="1/(x - 1/2)"),
        _case("length", p, F(-1, 2), F(1, 2), 3, curve=["t", "root(3, t)"], param="t"),
        _case("length", p, F(-1, 2), F(1, 2), 3, curve=["t", "root(2, t - 1/6)"], param="t"),
        _case("surface", p, F(0), F(1), 3, f="root(2, x)"),
        _case("surface", p, F(-1), F(1), 2, f="root(3, x - 1/2) + 2"),
        _case("surface", p, half_pi, half_pi + F(1, 10), 1, f="tan(x)"),
        _case("surface", p, near, near + F(1, 10), 1, f="-tan(x)"),
        _case("length", p, half_pi - F(1, 20), half_pi + F(1, 20), 1, curve=["t", "tan(t)"],
              param="t"),
        _case("length", p, near - F(1, 20), near + F(1, 20), 1, curve=["t", "tan(t)"], param="t"),
        _case("length", p, F(1), F(2), 4, curve=["t^(3/2)", "t^t"], param="t"),
        _case("surface", p, F(0), F(1), 2, f="(1 + x^2)^(1/2)"),
        _case("surface", p, F(0), F(1), 2, f="x^(3/2) + 1"),
        _case("surface", p, F(0), F(1), 2, f="abs(x) - 1"),
        _case("surface", p, F(0), F(1), 2, f="sqrt(x) - 1"),
        _case("surface", p, F(0), F(1), 2, f="x^(1/2) - 1"),
    ]
    return out


def measure_cases() -> list[dict]:
    cases = []
    for p in PRECISIONS:
        rng = random.Random(2700 + p)
        cases += _families(rng, p) + _edges(p)
        for seed in range(10):
            cases += _trees(random.Random(2800 + 10 * p + seed), p)
    return cases


def _args(rng: random.Random, count: int) -> tuple[list[int], list[int]]:
    """count rational arguments as reduced (numerator, denominator) pairs,
    and the same values with each pair times a factor from 2 to 6."""
    point, scaled = [], []
    for _ in range(count):
        v, k = rand_rational(rng), rng.randint(2, 6)
        point += [v.numerator, v.denominator]
        scaled += [k * v.numerator, k * v.denominator]
    return point, scaled


def _row(rng: random.Random, loop: int) -> dict:
    """A row of 1 to 5 points over three variables, the last loop of them
    running over the row with one denominator each, and weights half the time."""
    head, _ = _args(rng, 3 - loop)
    dens = [rng.randint(1, 12) for _ in range(loop)]
    size = rng.randint(1, 5)
    nums = [[rng.randint(-3 * q, 3 * q) for q in dens] for _ in range(size)]
    weights = [rng.randint(-3, 3) for _ in range(size)] if rng.random() < 0.5 else None
    return {"loop": loop, "head": head + dens, "row": [n[0] if loop == 1 else n for n in nums],
            "weights": weights}


def compiled_cases() -> list[dict]:
    """Trees of ``ExprGen`` at precisions 12 and 40, half of them in x
    alone (those also at two points of their tangent code), powers at the
    exact-power guard, real powers, roots and every call included."""
    cases = []
    for p in (12, 40):
        rng = random.Random(2900 + p)
        for i in range(150):
            names = ("x",) if i % 2 else ("x", "y", "z")
            e = ExprGen(rng, names).tree(rng.randint(1, 4))
            point, scaled = _args(rng, 3)
            case = {"expr": render(e), "precision": p, "point": point, "scaled": scaled,
                    "rows": [_row(rng, 1), _row(rng, 3)]}
            if free_vars(e) <= {"x"}:
                case["slope_at"] = [point[:2], scaled[:2]]
            cases.append(case)
    return cases


def _box(rng: random.Random, dim: int, most: int) -> dict:
    """A box of rand_rect, half the time with an endpoint from the fuzz
    pool, and equal counts of at most most cells per axis or uneven
    explicit breakpoints (``rand_explicit``)."""
    rect = rand_rect(rng, dim)
    if rng.random() < 0.5:
        a = rng.choice(POOL)
        rect = Rect(((a, a + F(rng.randint(1, 4), rng.choice([1, 2, 3]))), *rect.intervals[1:]))
    box = {"rect": [[str(a), str(b)] for a, b in rect.intervals]}
    if rng.random() < 0.5:
        box["counts"] = [rng.randint(1, most) for _ in range(dim)]
    else:
        box["points"] = [list(map(str, axis)) for axis in rand_explicit(rng, rect, most)]
    return box


def _lattice_pole(rng: random.Random, box: dict, s: int) -> str:
    """A term with a pole or a refused ln at a Darboux sample of the box:
    sample j of cell k on an axis, s samples a cell."""
    k = rng.randrange(len(box["rect"]))
    if "counts" in box:
        a, b = (F(v) for v in box["rect"][k])
        m = box["counts"][k]
        breaks = [a + (b - a) * i / m for i in range(m + 1)]
    else:
        breaks = [F(v) for v in box["points"][k]]
    i = rng.randrange(len(breaks) - 1)
    at = breaks[i] + (breaks[i + 1] - breaks[i]) * rng.randrange(s) / (s - 1)
    name = NAMES[k]
    return rng.choice([f"1/({name} - ({at}))", f"ln({name} - ({at}))",
                       f"ln(({name} - ({at}))^2)", f"sqrt(({at}) - {name})"])


def _family(rng: random.Random, dim: int) -> str:
    """A rational or a transcendental integrand in the first dim names."""
    c, m = F(rng.randint(-40, 40), rng.choice([3, 4, 10])), F(rng.randint(-9, 9), 7)
    k = rng.randint(3, 12)
    square = " + ".join(f"({name} - {m})^2" for name in NAMES[:dim])
    linear = " + ".join(f"{rng.randint(-5, 5)}*{name}" for name in NAMES[:dim])
    return rng.choice([
        f"({c}*{NAMES[dim - 1]} + 1)/({k}/10 + {square})",
        f"{c}*{rng.choice(['sin', 'cos'])}({linear} + {m}) + x/5",
        f"exp({linear}/{k}) - {c}*ln({k}/10 + {square})",
        f"sqrt({k}/10 + {square}) - {c}/(1 + {square})",
    ])


def _darboux(rng: random.Random, p: int) -> list[dict]:
    """Darboux bounds in one to three dimensions at 2, 3 and 5 samples, on
    seeded trees, rational and transcendental integrands, and both plus a
    pole on a sample point."""
    out = []
    for dim, most in ((1, 8), (2, 4), (3, 3)):
        gen = ExprGen(rng, NAMES[:dim])
        for s in (2, 3, 5):
            for i in range(12):
                box = _box(rng, dim, most)
                text = render(gen.tree(3, big=False)) if i % 2 else _family(rng, dim)
                if i >= 8:
                    text = f"{text} + {_lattice_pole(rng, box, s)}"
                out.append({"sum": "darboux", "precision": p, "f": text, **box, "samples": s})
    return out


def _first_errors(p: int) -> list[dict]:
    """Darboux calls whose samples fail in more than one line of the
    sample lattice, so the first error shows the order of the rows: a pole
    on an outer sample head of the first cell beside one on the last axis
    of a later cell."""
    out = []
    for s in (2, 3, 5):
        for f in ("1/(x - 1/4) + ln(7/8 - y)", "ln(x - 1/4) + 1/(y - 3/4)",
                  "1/(x - 1/2) + 1/(y - 1/2)"):
            out.append({"sum": "darboux", "precision": p, "f": f, "rect": [["0", "1"], ["0", "1"]],
                        "counts": [2, 2], "samples": s})
        out.append({"sum": "darboux", "precision": p, "f": "1/(y - 1/4) + ln(7/8 - z) + x",
                    "rect": [["0", "1"], ["0", "1"], ["0", "1"]], "counts": [2, 2, 2],
                    "samples": s})
    return out


def _riemann(rng: random.Random, p: int) -> list[dict]:
    """Riemann sums under every tag rule in one to three dimensions, and
    one-dimensional Stieltjes sums, areas, volumes and impulses."""
    out = []
    for dim, most in ((1, 8), (2, 4), (3, 2)):
        gen = ExprGen(rng, NAMES[:dim])
        for rule in TAG_RULES:
            for _ in range(2):
                out.append({"sum": "riemann", "precision": p, "f": render(gen.tree(3, big=False)),
                            **_box(rng, dim, most), "rule": rule, "seed": rng.getrandbits(32)})
    gen = ExprGen(rng, ("x",))
    for rule in TAG_RULES:
        for _ in range(2):
            box = _box(rng, 1, 8)
            case = {"sum": "stieltjes", "precision": p, "f": render(gen.tree(3, big=False)),
                    "phi": render(gen.tree(2, big=False)), "on": box.pop("rect")[0], **box,
                    "rule": rule, "seed": rng.getrandbits(32)}
            out.append(case)
            f, g = render(gen.tree(2, big=False)), render(gen.tree(2, big=False))
            out.append({"sum": "area", "precision": p, "f": f"({f}) - 2", "g": f"({g})^2 + 2",
                        "on": case["on"], "m": rng.randint(1, 8), "rule": rule,
                        "seed": rng.getrandbits(32)})
    for _ in range(6):
        (a, b), = rand_rect(rng, 1).intervals
        on, m = [str(a), str(b)], rng.randint(1, 8)
        out.append({"sum": "volume", "precision": p, "f": render(gen.tree(3, big=False)),
                    "on": on, "m": m})
        force = render(ExprGen(rng, ("t",)).tree(3, big=False))
        out.append({"sum": "impulse", "precision": p, "f": force, "on": on, "m": m})
    return out


def _regions(rng: random.Random, p: int) -> list[dict]:
    """Inner sums, mass and moments over balls in two and three dimensions."""
    out = []
    for dim, most in ((2, 6), (3, 3)):
        gen = ExprGen(rng, NAMES[:dim])
        for kind in ("inner", "mass", "moment"):
            for _ in range(3):
                box = _box(rng, dim, most)
                rect = Rect(tuple((F(a), F(b)) for a, b in box["rect"]))
                case = {"sum": kind, "precision": p, "region": render(rand_ball(rng, rect)), **box}
                if kind == "inner":
                    case["f"] = render(gen.tree(3, big=False))
                else:
                    case["rho"] = render(gen.tree(2, big=False))
                if kind == "moment":
                    case["integrand"] = render(gen.tree(2, big=False))
                out.append(case)
    return out


def _gauges(rng: random.Random, p: int) -> list[dict]:
    """Gauge sums and Cousin partitions in both modes: seeded positive
    gauges, a gauge that reaches 0, and one past the bisection cap."""
    out = []
    gen = ExprGen(rng, ("x",))
    for mode in ("tag-in-cell", "mcshane"):
        for kind in ("gauge", "cousin"):
            for i in range(4):
                a = F(rng.randint(-20, 20), rng.choice([1, 3, 7, 10]))
                b = a + F(rng.randint(1, 20), rng.choice([1, 3, 7, 10]))
                gauge = [rand_gauge(rng), rand_gauge(rng), f"{(a + b) / 2} - x",
                         "1/10^21"][i]
                case = {"sum": kind, "precision": p, "gauge": gauge, "on": [str(a), str(b)],
                        "mode": mode}
                if kind == "gauge":
                    case["f"] = render(gen.tree(3, big=False))
                out.append(case)
    return out


def _simpson(rng: random.Random, p: int) -> list[dict]:
    """Adaptive Simpson on the smooth families of the fuzz test, and on a
    pole with the interval cap lowered."""
    out = []
    for family in ("polynomial", "rational", "trigonometric"):
        a = F(rng.randint(-20, 20), rng.choice([1, 3, 7, 10]))
        b = a + F(rng.randint(1, 10), rng.choice([1, 3, 7, 10]))
        out.append({"sum": "simpson", "precision": p, "f": rand_integrand(rng, family, a, b),
                    "on": [str(a), str(b)]})
    out.append({"sum": "simpson", "precision": p, "f": "-(x/x) - x^(-3)", "on": ["-1/3", "2"],
                "cap": 2000})
    return out


def sum_cases() -> list[dict]:
    cases = []
    for p in (12, 40):
        rng = random.Random(3000 + p)
        cases += _darboux(rng, p) + _first_errors(p) + _riemann(rng, p) + _regions(rng, p)
        cases += _gauges(rng, p) + _simpson(rng, p)
    return cases


def _tag_argument(rng: random.Random) -> F:
    """beta + alpha*t as the benchmark's integrands take it (alpha in [1/4, 1],
    beta in [2, 3]), t a dyadic 64-bit tag of one of 48 cells of a fresh
    interval in [-1, 3/2]: a value in [1, 5]."""
    alpha, beta = _dec(rng, 0.25, 1), _dec(rng, 2, 3)
    a, b = _interval(rng)
    width = (b - a) / 48
    t = a + width * rng.randrange(48) + width * F(rng.getrandbits(64), 1 << 64)
    return beta + alpha * t


def _kernel_case(kernel: str, digits: int, x: F, k: int = 1) -> dict:
    """A call of kernel at x, its numerator and denominator both times k."""
    return {"kernel": kernel, "digits": digits, "arg": [hex(k * x.numerator), hex(k * x.denominator)]}


def kernel_cases() -> list[dict]:
    """Each integer kernel at 12, 40 and 80 digits: at seeded benchmark tags
    and ``kernel_argument``'s arguments (half of them unreduced), and at the
    edges of its reductions and refusals (sin and cos at 10^5000 at 12
    digits, at 10^1000 at the others); and pi."""
    nudge = F(1, 10**6)
    cases = []
    for digits in (12, 40, 80):
        rng = random.Random(3200 + digits)
        unit = F(1, 10**digits)
        half_pi = approx.pi_approx(digits + 40) / 2
        edge = F(-3 * (digits + 2))
        edges = {
            "exp": [edge - nudge, edge, edge + nudge, F(-1, 2) - nudge, F(1, 2) + nudge,
                    F(300) - nudge, F(300), F(300) + nudge, F(601, 2), F(-10**6)],
            "ln": [F(0), F(-3, 2), F(-10**40), F(3, 4), F(3, 2), F(1, 10**30), F(10**40 + 1)]
                  + [3 * F(2) ** j * (1 + s * nudge) for j in (-9, -1, 0, 1, 9) for s in (1, -1)],
            # 2pi to 5 000 digits takes 0.4 s, so 10^5000 at one precision only
            "sin_cos": [F(4) - nudge, F(4), F(4) + nudge, F(9, 2), F(-100),
                        F(10**5000 if digits == 12 else 10**1000),
                        F(355 * 10**6, 113), F(10**7) + F(1, 7), F(1, 32), F(63, 64)],
            "tan": [half_pi, -half_pi, 3 * half_pi, F(355, 226), F(157, 100), F(11, 7)]
                   + [half_pi + s * f * unit for s in (1, -1) for f in (F(9, 10), F(11, 10))],
            "sqrt": [F(0), F(-3, 2), F(9, 16), F(5, 64), F(64, 5), F(10**8 + 3, 4),
                     F(4, 10**6 + 3), F(2), F(10**16, 7), F(7, 10**16)],
        }
        for kernel, xs in edges.items():
            fuzz = "sin" if kernel == "sin_cos" else kernel
            xs = xs + [_tag_argument(rng) for _ in range(20)]
            xs += [kernel_argument(rng, fuzz, digits) for _ in range(20)]
            cases += [_kernel_case(kernel, digits, x, rng.choice([1, rng.randint(2, 6)]))
                      for x in xs]
        cases.append({"kernel": "pi", "digits": digits})
    return cases


# the outputs CI pinned one by one: a gauge sum; a seeded sum (the SplitMix64
# tag stream); row kernels (a hoisted x-part over y-rows, a per-denominator
# sum, an inner-rectangle mass, and the division error of the first point,
# not of the hoisted 1/x); integer kernels (grid values and sqrt pairs, a
# seeded exp sum, the ln refusal naming the reduced value at the first
# centre tag); correctly rounded tan and cos (a seeded cos sum whose
# arguments pass 4) and sin of a 5 001-digit argument; one kernel call per
# sin or cos; and the row kernel's one fallback (x^15000 passes the
# exact-power guard mid-row)
PINS_ARGV = [
    ["integrate", "x", "--on", "0,1", "--method", "gauge", "--gauge", "1/100"],
    ["integrate", "x", "--on", "0,1", "--mesh", "1/4", "--tags", "seeded-random", "--seed", "3"],
    ["integrate", "x*y^2 + 3/(x+2)", "--rect", "0,1;-1,2", "--mesh", "1/4"],
    ["integrate", "2.5/(x + 1.75)", "--on", "0,1", "--mesh", "1/16", "--tags", "center"],
    ["measure", "mass", "--rho=1 + x^2", "--region=x^2 + y^2 - 9/16", "--rect=-1,1;-1,1",
     "--mesh", "1/8"],
    ["integrate", "1/y + 1/x", "--rect", "0,1;0,1", "--mesh", "1/2"],
    ["integrate", "sin(x) + sqrt(x)", "--on", "0,1", "--mesh", "1/8", "--tags", "center"],
    ["integrate", "exp(x)", "--on", "0,1", "--mesh", "1/8", "--tags", "seeded-random",
     "--seed", "5"],
    ["integrate", "x + ln(x - 1/3)", "--on", "0,1", "--mesh", "1/4", "--tags", "center"],
    ["integrate", "tan(x)", "--on", "0,1", "--mesh", "1/8", "--tags", "center"],
    ["integrate", "cos(4.5 + x)", "--on", "0,1", "--mesh", "1/8", "--tags", "seeded-random",
     "--seed", "7"],
    ["eval", "sin(10^5000)"],
    ["integrate", "sin(x)*cos(x) + cos(x)", "--on", "0,1", "--mesh", "1/8", "--tags",
     "seeded-random", "--seed", "31"],
    ["integrate", "x^15000", "--on", "7/10,9/10", "--mesh", "1/20", "--tags", "center"],
]


def _write(path: Path, entries) -> None:
    path.write_text("".join(json.dumps(entry) + "\n" for entry in entries))


def main() -> None:
    os.environ.pop("HRW_PRECISION", None)
    gens = [RequestGen(random.Random(2600 + seed)) for seed in SEEDS]
    _write(GOLDEN, (record(gen.request()) for gen in gens for _ in range(PER_SEED)))
    _write(MEASURES, map(measure_record, measure_cases()))
    _write(COMPILED, map(compiled_record, compiled_cases()))
    _write(SUMS, map(sum_record, sum_cases()))
    _write(PINS, map(record, PINS_ARGV))
    _write(KERNELS, map(kernel_record, kernel_cases()))


if __name__ == "__main__":
    main()
