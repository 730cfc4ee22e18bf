"""Seeded differential tests: the compiled evaluator and the partition sums
against the tree-walking evaluator ``eval_real``.

Expressions are random trees over ``+ - * /``, unary minus, ``pi`` and ``e``,
integer powers (negative ones, and ones on either side of the 200 000-bit
exact-power guard), fractional and variable powers, ``abs``, ``sqrt``,
``root`` and the transcendental calls.  They are rendered to text and parsed
back, so every node carries a real source offset (and the text of a parsed
tree must render back to itself), and evaluated at random
rationals drawn partly from the constants of the trees, so zero divisors,
zero bases and negative radicands occur.  The functions ``compile_real``
returns, called on arguments given as unreduced numerator/denominator pairs,
must give the value of ``eval_real`` exactly, or raise the same exception
with the same text (offset included).

Each partition sum and measure is checked against a naive sum of
``eval_real(tag) * volume`` whose cells, tags and classification are
written out here, on equal-width and on explicit uneven partitions with
mixed denominators; ``tagged_partition`` must return those cells and tags.
``cousin_partition`` must return the cells and tags of a recursive bisection
on Fractions written out here, or raise the same exception with the same
text, for seeded gauges over odd and decimal denominators in both modes,
non-positive gauges and both caps included.  Every sum that runs on row
kernels must give the value, or the first error, of a point loop:
``compile_real``'s function called once per point, over the sum's rows in
the order its code runs them, trees with variable divisors, calls and powers
past the exact-power guard included; the plane's sweep must classify as the
general classifier does.  Surface of revolution, both
paths of curve length and of line work, and the supernearness probe must
equal cell loops on Fractions written out here, slopes and velocities taken
from ``taylor_jet``, or raise the same exception with the same text, for
random trees and for the benchmark's curve, force and surface families.
The tangent code of every tree in x alone must give compile_real's value
pair and the jet's derivative at each point, or raise a MathError there.
A tree and its sibling, the tree with every literal redrawn so that both
have one shape key, must each bind the code and constants of a fresh
``_Codegen`` walk in point, row and tangent modes, the sibling from the
tree's template.

The standard part of a series evaluation at a rational point must equal
``eval_real`` there exactly, or both must refuse at the same offset; real
powers included, since both evaluators take a^r from ``pow_approx``, and
integer powers past the exact-power guard, whose a^n both take from
``int_pow``.  At an
infinitesimal or unlimited base the order of a power must not depend on the
precision: a rounded exponent is refused there.  The series evaluation,
whose constants meet series as plain rationals, must give the value,
certified order and ``abs`` flag of a walk written out here that lifts every
constant into a series first, or the same refusal at the same offset.

``measure K --meshes`` and ``converge K --meshes`` must tabulate the same
study for seeded area, moment and impulse requests with a rational oracle.

Random CLI requests over all sixteen subcommands and the expression
grammar, in text and JSON, with options left out or malformed at random,
must exit 0 with nothing on stderr, or exit 1 or 2 with nothing on stdout
and one stderr line naming the error; no exception may leave ``run``, and
a second run must give the same bytes.

``exp``, ``ln``, ``sin``, ``cos``, ``tan`` and ``sqrt`` at seeded rationals
and 12, 20 and 40 digits must return the point of the 10^-digits grid
nearest to a 200-digit ``decimal`` value (ties to even), whatever method the
kernels use.

Jets of random expressions (division, ``sqrt``/``root``, rational powers,
the transcendental calls, and the cancellation shape f(x^k) minus its Taylor
polynomial) must equal the coefficients of one direct evaluation at window
64 wherever the jet is returned; otherwise the jet must raise
``PrecisionExhausted``.  Wherever an order-0 jet is returned, its
coefficient must equal ``eval_real`` at the point, unless that divides by
zero there.  Jets of rational expressions must equal ``eval_real`` of the
n-fold ``symbolic_derivative`` divided by n!.

``nth_increment``, ``fn_limit`` and ``continuity_check``, which read the
points c + j*h of one step (and both sides of a limit) off one dilated
series walk, must give the value, certified order and refusal of one walk
per point, for random trees under seven steps (monomials in eps, its
square, root and cube, with signs and factors, and a sum of two powers).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import operator
import random
import re
import time
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import pointwise_increment
from hrw import approx
from hrw.calculus import (
    CurveDef,
    _widen,
    continuity_check,
    fn_limit,
    nth_increment,
    taylor_jet,
)
from hrw.cli import run
from hrw.errors import (
    DepthExceeded,
    DomainError,
    MathError,
    NegativeRadius,
    NonPositiveLeading,
    OrderViolation,
    OracleFailure,
    PrecisionExhausted,
)
from hrw.exprs import (
    Binary,
    Call,
    Const,
    EvalTrace,
    Expr,
    Unary,
    Var,
    _at,
    _compile_tangent,
    _exact,
    _named_constant,
    _no_tangent,
    _require_root_index,
    compile_real,
    compile_rows,
    eval_hyper,
    eval_hyper_traced,
    eval_real,
    free_vars,
    int_exponent,
    parse,
    render,
    symbolic_derivative,
)
from hrw.field import Field, apply_analytic, hr_exp, hr_ln, hr_pow
from hrw import exprs, integration
from hrw.integration import (
    SIMPSON_DIGITS,
    TAG_RULES,
    Gauge,
    PartitionSpec,
    Rect,
    Region,
    SupernearReport,
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
    measure_surface_revolution,
    measure_volume_revolution,
    polynomial_antiderivative,
    riemann_stieltjes_sum,
    riemann_sum,
    supernearness_probe,
    tagged_partition,
)
from hrw.rationals import decimal_str, show_rational

PRECISION = 12
NAMES = ("x", "y", "z")
POOL = [F(0), F(1), F(-1), F(2), F(1, 2), F(-1, 3), F(3, 7), F(-5, 4), F(5, 2)]
SEEDS = range(8)
JET_FIELD = Field(precision=PRECISION)


def rand_rational(rng: random.Random) -> F:
    if rng.random() < 0.6:
        return rng.choice(POOL)
    return F(rng.randint(-40, 40), rng.randint(1, 12))


class ExprGen:
    """Random expression trees; ``big`` allows powers at the size guard."""

    def __init__(self, rng: random.Random, names=NAMES[:2]):
        self.rng = rng
        self.names = names

    def leaf(self) -> Expr:
        r = self.rng.random()
        if r < 0.5:
            return Var(self.rng.choice(self.names))
        if r < 0.9:
            return Const(rand_rational(self.rng))
        return Var(self.rng.choice(("pi", "e")))

    def tree(self, depth: int, big: bool = True) -> Expr:
        rng = self.rng
        if depth == 0 or rng.random() < 0.2:
            return self.leaf()
        kind = rng.choices(
            ["+", "-", "*", "/", "neg", "abs", "ipow", "guard", "rpow", "call"],
            [4, 3, 4, 4, 1, 2, 3, 1 if big else 0, 1, 3],
        )[0]
        sub = lambda: self.tree(depth - 1, big)  # noqa: E731
        if kind in "+-*/":
            return Binary(kind, sub(), sub())
        if kind == "neg":
            return Unary("-", sub())
        if kind == "abs":
            return Call("abs", (sub(),))
        if kind == "ipow":
            exponent = Const(F(rng.choice([0, 1, 2, 3, 5, -1, -2, -3])))
            return Binary("^", self.tree(depth - 1, big=False), exponent)
        if kind == "guard":
            # a constant base or a variable at a pool point: an exponent at
            # the bit guard of the reduced value, or just past it
            base = self.leaf()
            if isinstance(base, Var):
                bits = rng.choice([2, 3, 5, 6])
            else:
                bits = base.value.numerator.bit_length() + base.value.denominator.bit_length()
            k = approx.POWER_BITS // bits + rng.choice([0, 1])
            return Binary("^", base, Const(F(k * rng.choice([1, -1]))))
        if kind == "rpow":
            if rng.random() < 0.7:
                exponent = Const(rng.choice([F(1, 2), F(-1, 2), F(3, 2), F(2, 3), F(-1, 3)]))
            else:
                exponent = self.tree(depth - 1, big=False)
            return Binary("^", self.tree(depth - 1, big=False), exponent)
        fn = rng.choice(["sqrt", "root", "sin", "cos", "tan", "exp", "ln"])
        if fn == "root":
            index = Const(F(rng.choice([2, 3, 4]))) if rng.random() < 0.8 else self.leaf()
            return Call("root", (index, self.tree(depth - 1, big=False)))
        return Call(fn, (self.tree(depth - 1, big=False),))


def outcome(fn, *args):
    """The value, or the exception's type and text."""
    try:
        return fn(*args)
    except Exception as ex:  # noqa: BLE001 - any difference counts
        return type(ex).__name__, str(ex)


def parsed(e: Expr) -> Expr:
    """Round trip through text, so every node has its source offset."""
    return parse(render(e))


def test_render_parse_fixpoint():
    # render(parse(t)) == t for the text of every parsed tree: the parser's
    # productions and the renderer's parentheses agree on random trees
    rng = random.Random(2000)
    gen = ExprGen(rng, NAMES)
    for _ in range(2000):
        e = parsed(gen.tree(rng.randint(1, 5)))
        t = render(e)
        assert parse(t) == e and render(parse(t)) == t, t


def test_compiled_error_offsets():
    cases = {
        "1/x": "DivisionByZero: division by zero (at offset 1)",
        "2 + sqrt(x - 1)": "DomainError: sqrt of negative value -1 (at offset 4)",
        "root(3, x - 1)": "DomainError: root of negative value -1 (at offset 0)",
        "root(x, 2)": "DomainError: root index must be an integer >= 2, got 0 (at offset 5)",
        "x^-2": "DivisionByZero: 0 raised to a negative power (at offset 1)",
        "(x - 1)^0.5": "DomainError: non-integer power of negative value -1 (at offset 7)",
        "ln(x)": "DomainError: ln of non-positive value 0 (at offset 0)",
    }
    for text, want in cases.items():
        e = parse(text)
        got = outcome(compile_real(e, ("x",)), 0, 1)
        assert f"{got[0]}: {got[1]}" == want
        assert got == outcome(eval_real, e, {"x": F(0)})


def refusal_or_value(fn, *args):
    """The value, or the MathError raised."""
    try:
        return fn(*args)
    except MathError as ex:
        return ex


@pytest.mark.parametrize("seed", SEEDS)
def test_series_standard_part_equals_eval_real(seed):
    rng = random.Random(300 + seed)
    gen = ExprGen(rng, ("x",))
    fld = Field(precision=PRECISION)
    for _ in range(200):
        e = parsed(gen.tree(rng.randint(1, 4)))  # powers at the exact-power guard too
        for _ in range(5):
            q = rand_rational(rng)
            want = refusal_or_value(eval_real, e, {"x": q}, PRECISION)
            got = refusal_or_value(
                lambda: eval_hyper(e, {"x": fld.rational(q)}, fld).st_fraction())
            where = (render(e), q, want, got)
            if isinstance(want, F) or isinstance(got, F):
                assert got == want, where
                continue
            assert got.pos == want.pos, where
            if type(got) is not type(want):  # a negative radicand or base, refused by kind
                assert (type(want), type(got)) == (DomainError, NonPositiveLeading), where
                assert str(want).startswith(
                    ("sqrt of negative", "root of negative", "non-integer power of negative")
                ), where


@pytest.mark.parametrize("seed", SEEDS)
def test_power_order_does_not_depend_on_precision(seed):
    # at c*eps^k an exponent r rounded to the precision would move the order
    # k*r: an exponent computed exactly leads at the same order at any
    # precision, and any other is refused at both
    rng = random.Random(1500 + seed)
    gen = ExprGen(rng, ("y",))
    for _ in range(100):
        e = parsed(Binary("^", Var("x"), gen.tree(rng.randint(1, 3), big=False)))
        c, k = rng.choice([F(1), F(2), F(1, 3)]), rng.choice([1, -1, F(1, 2)])
        y = rand_rational(rng)
        leads = set()
        for fld in (Field(precision=PRECISION), Field(precision=2 * PRECISION)):
            env = {"x": fld.monomial(c, k), "y": fld.rational(y)}
            got = refusal_or_value(eval_hyper, e, env, fld)
            leads.add(None if isinstance(got, MathError) else got.leading_exponent())
        assert len(leads) == 1, (render(e), c, k, y, leads)


ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def lifting_walk(e: Expr, env: dict, cfg: Field):
    """The series walk as it was before constants stayed rationals: every
    literal, ``pi`` and ``e`` is lifted by ``cfg.rational`` where it is read.
    The reference of ``eval_hyper_traced``."""
    trace = EvalTrace()

    def go(node: Expr):
        if isinstance(node, Const):
            return cfg.rational(node.value)
        if isinstance(node, Var):
            if node.name in env:
                return env[node.name]
            return cfg.rational(_named_constant(node.name, cfg.precision, node.pos))
        if isinstance(node, Unary):
            return -go(node.operand)
        if isinstance(node, Binary):
            try:
                if node.op == "^":
                    base = go(node.left)
                    k = int_exponent(node)
                    if k is not None:
                        return base**k
                    r = go(node.right)
                    standard = not r.saturated and all(ex == 0 for ex in r.exponents())
                    lam = base.leading_exponent() or 0
                    if standard and (lam == 0 or _exact(node.right, env)):
                        return hr_pow(base, r.coefficient(0))
                    return hr_exp(hr_ln(base) * r)
                a, b = go(node.left), go(node.right)
                return ARITH[node.op](a, b)
            except MathError as ex:
                raise _at(ex, node.pos) from None
        try:
            if node.fn == "abs":
                v = go(node.args[0])
                if not v.is_zero and v.coefficient(0) == 0 and v.is_limited:
                    trace.abs_nonsmooth = True
                return abs(v)
            if node.fn == "sqrt":
                return go(node.args[0]).nth_root(2)
            if node.fn == "root":
                idx = go(node.args[0])
                if idx.exponents() != (0,):
                    raise DomainError("root index must be a standard integer >= 2", node.args[0].pos)
                return go(node.args[1]).nth_root(_require_root_index(idx.coefficient(0), node.args[0].pos))
            return apply_analytic(node.fn, go(node.args[0]))
        except MathError as ex:
            raise _at(ex, node.pos) from None

    return go(e), trace


def walk_outcome(fn, *args):
    """A series walk's value (numerators, denominator, order) and abs flag,
    or the exception's type, text and offset."""
    try:
        value, trace = fn(*args)
    except Exception as ex:  # noqa: BLE001 - any difference counts
        return type(ex).__name__, str(ex), getattr(ex, "pos", None)
    return value._nums, value._den, value.window, value.order, trace.abs_nonsmooth


@pytest.mark.parametrize("seed", SEEDS)
def test_series_walk_equals_lifting_walk(seed):
    # constants meet series as plain rationals; the value, the certified
    # order, the abs flag and every refusal must be those of lifting them
    rng = random.Random(1700 + seed)
    gen = ExprGen(rng, ("x", "y"))
    for _ in range(60):
        e = parsed(gen.tree(rng.randint(1, 4)))
        for window, precision in product((4, 16, F(5, 2)), (12, 40)):
            if rng.random() < 0.5:
                continue
            fld = Field(window, precision)
            x0, y0 = rng.choice([F(0), F(1, 2), F(-1, 2), F(3, 4)]), rand_rational(rng)
            env = {"x": fld.rational(x0) + fld.epsilon(), "y": fld.rational(y0)}
            got = walk_outcome(eval_hyper_traced, e, env, fld)
            assert got == walk_outcome(lifting_walk, e, env, fld), (render(e), window, precision, x0, y0)


def pair_outcome(fn, *args):
    """The compiled-pair result as a Fraction, its denominator checked
    positive, or the exception's type and text."""
    try:
        n, d = fn(*args)
    except Exception as ex:  # noqa: BLE001 - any difference counts
        return type(ex).__name__, str(ex)
    assert type(n) is int and type(d) is int and d > 0, (n, d)
    return F(n, d)


def unreduced(q: F, k: int) -> tuple[int, int]:
    return k * q.numerator, k * q.denominator


def check_tangent(tangent, fn, e: Expr, x: F, args) -> None:
    """The tangent code of e at x, passed as the pair args[:2], must give
    the pair of compile_real's fn and the jet's derivative, or raise a
    MathError: the measures then take that point's jet path."""
    try:
        value, (dn, dd) = tangent(*args[:2])
    except MathError:
        return
    assert value == fn(*args) and dd > 0, (render(e), x)
    assert F(dn, dd) == taylor_jet(e, x, 1, JET_FIELD, "x").derivative(1), (render(e), x)


@pytest.mark.parametrize("seed", SEEDS)
def test_compiled_equals_tree_walk(seed):
    # arguments as reduced pairs (n, d); trees in x alone also by tangent code
    rng = random.Random(seed)
    gen = ExprGen(rng)
    for _ in range(100):
        e = parsed(gen.tree(rng.randint(1, 4)))
        fn = compile_real(e, ("x", "y"), PRECISION)
        tangent = _compile_tangent(e, "x", PRECISION) if free_vars(e) <= {"x"} else None
        for _ in range(5):
            x, y = rand_rational(rng), rand_rational(rng)
            args = (*unreduced(x, 1), *unreduced(y, 1))
            want = outcome(eval_real, e, {"x": x, "y": y}, PRECISION)
            assert pair_outcome(fn, *args) == want, (render(e), x, y)
            if tangent is not None:
                check_tangent(tangent, fn, e, x, args)


@pytest.mark.parametrize("seed", SEEDS)
def test_pair_convention_equals_tree_walk(seed):
    # arguments (k n, k d): a common factor must change no value, error or offset
    rng = random.Random(1200 + seed)
    gen = ExprGen(rng)
    for _ in range(100):
        e = parsed(gen.tree(rng.randint(1, 4)))
        fn = compile_real(e, ("x", "y"), PRECISION)
        for _ in range(5):
            x, y = rand_rational(rng), rand_rational(rng)
            args = (*unreduced(x, rng.randint(1, 6)), *unreduced(y, rng.randint(1, 6)))
            want = outcome(eval_real, e, {"x": x, "y": y}, PRECISION)
            assert pair_outcome(fn, *args) == want, (render(e), args)


def test_power_guard_reads_the_reduced_value():
    # x*2/2 at 3/7 is 6/14 unreduced (7 bits) and 3/7 reduced (5 bits): the
    # guard at 200 000 bits passes 40 000 * 5 and refuses 40 001 * 5
    for k in (40000, 40001, -40000, -40001):
        e = parse(f"(x*2/2)^{k}")
        assert pair_outcome(compile_real(e, ("x",)), 3, 7) == outcome(eval_real, e, {"x": F(3, 7)})
    assert F(*compile_real(parse("(x*2/2)^40000"), ("x",))(3, 7)) == F(3, 7) ** 40000


def test_pair_power_guard_reads_the_reduced_value():
    # 3/7 has 5 bits reduced: the guard at 200 000 bits passes 40 000 * 5 and
    # refuses 40 001 * 5, however large the unreduced operand the code sees
    # (x^k at (3, 7) takes the unreduced power, every other case int_pow)
    for k, base in product((40000, 40001, -40000, -40001), ("x", "(x*2/2)")):
        e = parse(f"{base}^{k}")
        fn = compile_real(e, ("x",))
        want = outcome(eval_real, e, {"x": F(3, 7)})
        for args in ((3, 7), (6, 14), (3 << 20, 7 << 20)):
            assert pair_outcome(fn, *args) == want, (k, base, args)
    assert compile_real(parse("x^2"), ("x",))(2, 4) == (4, 16)


def sibling(rng: random.Random, e: Expr) -> Expr:
    """e with every literal redrawn and every offset kept.  A literal keeps
    its sign, whether it is an integer, and whether its numerator is +-1;
    an integer from -1 to 1 is kept.  So the sibling has e's shape key."""
    def redraw(v: F) -> F:
        sign = 1 if v > 0 else -1
        if v.denominator == 1:
            return v if abs(v) < 2 else sign * F(rng.randint(2, 9))
        q = rng.randint(2, 12)
        if abs(v.numerator) == 1:
            return F(sign, q)
        return sign * rng.choice([F(p, q) for p in range(2, 16) if math.gcd(p, q) == 1])

    def go(node: Expr) -> Expr:
        if isinstance(node, Const):
            return Const(redraw(node.value), node.pos)
        if isinstance(node, Unary):
            return Unary(node.op, go(node.operand), node.pos)
        if isinstance(node, Binary):
            return Binary(node.op, go(node.left), go(node.right), node.pos)
        if isinstance(node, Call):
            return Call(node.fn, tuple(map(go, node.args)), node.pos)
        return node

    return go(e)


TEMPLATE_MODES = [("point", ("x", "y"), 0), ("rows", ("x", "y"), 1), ("rows", ("x", "y"), 2),
                  ("tangent", ("x",), 0)]


def compiled_shape(e: Expr, names, mode: str, loop: int, bind) -> tuple:
    """The (params, body) of each function compiled for e in mode and e's
    closure constants, by bind (``_bound`` or ``_walk``), or its error."""
    try:
        template, consts = bind(e, names, PRECISION, mode, loop)
    except (exprs._Decline, MathError) as ex:
        return type(ex).__name__, str(ex)
    entries = ("values", "sum") if mode == "rows" else (None,)
    return [template.source(entry) for entry in entries], consts


@pytest.mark.parametrize("seed", range(4))
def test_siblings_bind_their_own_constants(seed):
    # a tree, then its sibling, the sibling a hit of the tree's template:
    # both bind what a fresh walk of each gives, in every mode
    rng = random.Random(3100 + seed)
    gen = ExprGen(rng)
    cache = exprs._template
    for _ in range(60):
        e = parsed(gen.tree(rng.randint(1, 4)))
        twin = sibling(rng, e)
        for mode, names, loop in TEMPLATE_MODES:
            want = compiled_shape(e, names, mode, loop, exprs._walk)
            assert compiled_shape(e, names, mode, loop, exprs._bound) == want, render(e)
            hits = cache.cache_info().hits
            got = compiled_shape(twin, names, mode, loop, exprs._bound)
            assert got == compiled_shape(twin, names, mode, loop, exprs._walk), render(twin)
            assert cache.cache_info().hits == hits + (want[0] != "DomainError"), render(twin)
        fn = compile_real(twin, ("x", "y"), PRECISION)
        for _ in range(3):
            x, y = rand_rational(rng), rand_rational(rng)
            want = outcome(eval_real, twin, {"x": x, "y": y}, PRECISION)
            assert pair_outcome(fn, *unreduced(x, 1), *unreduced(y, 1)) == want, render(twin)


# -- partition sums against naive sums written here -------------------------------------------


def naive_breaks(a: F, b: F, m: int) -> list[F]:
    return [a + (b - a) * k / m for k in range(m + 1)]


def naive_tag(cell, rule: str, seed: int, index: int) -> tuple[F, ...]:
    if rule == "min-vertex":
        return tuple(lo for lo, _ in cell)
    if rule == "center":
        return tuple((lo + hi) / 2 for lo, hi in cell)
    if rule == "corner-nearest-origin":
        return tuple(lo if abs(lo) <= abs(hi) else hi for lo, hi in cell)
    stream = SplitMix64(seed)
    for _ in range(index * len(cell)):
        stream.next()
    return tuple(lo + F(stream.next() >> 34, 1 << 30) * (hi - lo) for lo, hi in cell)


class SplitMix64:
    """Vigna's splitmix64.c: the state steps by the golden gamma on each
    ``next()``, which returns the state's mix."""

    MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self.x = seed & self.MASK

    def next(self) -> int:
        self.x = (self.x + 0x9E3779B97F4A7C15) & self.MASK
        z = self.x
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self.MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self.MASK
        return z ^ (z >> 31)


def test_splitmix64_check_values():
    assert SplitMix64(0).next() == 0xE220A8397B1DCDAF
    stream = SplitMix64(1234567)
    assert [stream.next() for _ in range(3)] == [
        6457827717110365317, 3203168211198807973, 9817491932198370423]


def naive_cells(rect: Rect, counts) -> list:
    return cells_of([naive_breaks(a, b, m) for (a, b), m in zip(rect.intervals, counts)])


def cells_of(axes) -> list:
    """Row-major cells of per-axis breakpoint lists, first axis outermost."""
    return list(product(*(list(zip(ax, ax[1:])) for ax in axes)))


def volume(cell) -> F:
    v = F(1)
    for lo, hi in cell:
        v *= hi - lo
    return v


def at(e: Expr, point) -> F:
    return eval_real(e, dict(zip(NAMES, point)), PRECISION)


def rand_rect(rng: random.Random, dim: int) -> Rect:
    intervals = []
    for _ in range(dim):
        a = F(rng.randint(-8, 4), rng.choice([1, 2, 4, 3]))
        intervals.append((a, a + F(rng.randint(1, 8), rng.choice([1, 2, 3, 5]))))
    return Rect(tuple(intervals))


@pytest.mark.parametrize("seed", SEEDS)
def test_riemann_sum_all_rules(seed):
    rng = random.Random(100 + seed)
    for dim in (1, 2, 3):
        gen = ExprGen(rng, NAMES[:dim])
        for rule in ("min-vertex", "center", "corner-nearest-origin", "seeded-random"):
            f = parsed(gen.tree(3, big=False))
            rect = rand_rect(rng, dim)
            counts = [rng.randint(1, (12, 5, 3)[dim - 1]) for _ in range(dim)]
            tag_seed = rng.getrandbits(32)

            def naive():
                return sum(
                    (at(f, naive_tag(cell, rule, tag_seed, i)) * volume(cell)
                     for i, cell in enumerate(naive_cells(rect, counts))),
                    F(0),
                )

            got = outcome(riemann_sum, f, rect, PartitionSpec.simple(*counts), rule, tag_seed,
                          PRECISION)
            assert got == outcome(naive), (render(f), rect, counts, rule)


def naive_monotone(values: dict, dim: int, s: int) -> bool:
    for axis in range(dim):
        for rest in product(range(s), repeat=dim - 1):
            seq = [values[rest[:axis] + (j,) + rest[axis:]] for j in range(s)]
            pairs = list(zip(seq, seq[1:]))
            if not (all(a <= b for a, b in pairs) or all(a >= b for a, b in pairs)):
                return False
    return True


def naive_darboux(f: Expr, cells, dim: int, s: int):
    lower = upper = F(0)
    flagged = 0
    for cell in cells:
        grid = [[lo + (hi - lo) * j / (s - 1) for j in range(s)] for lo, hi in cell]
        values = {idx: at(f, [grid[k][j] for k, j in enumerate(idx)])
                  for idx in product(range(s), repeat=dim)}
        lower += min(values.values()) * volume(cell)
        upper += max(values.values()) * volume(cell)
        flagged += not naive_monotone(values, dim, s)
    return lower, upper, flagged


@pytest.mark.parametrize("seed", SEEDS)
def test_darboux_bounds(seed):
    rng = random.Random(200 + seed)
    for dim in (1, 2):
        f = parsed(ExprGen(rng, NAMES[:dim]).tree(3, big=False))
        rect = rand_rect(rng, dim)
        counts = [rng.randint(1, 4) for _ in range(dim)]
        s = rng.randint(2, 4)
        got = outcome(darboux_bounds, f, rect, PartitionSpec.simple(*counts), s, PRECISION)
        assert got == outcome(naive_darboux, f, naive_cells(rect, counts), dim, s), render(f)


@pytest.mark.parametrize("seed", SEEDS)
def test_riemann_stieltjes_and_gauge_sums(seed):
    rng = random.Random(300 + seed)
    gen = ExprGen(rng, ("x",))
    for rule in ("min-vertex", "center", "corner-nearest-origin", "seeded-random"):
        f, phi = parsed(gen.tree(3, big=False)), parsed(gen.tree(2, big=False))
        (a, b), = rand_rect(rng, 1).intervals
        m = rng.randint(1, 10)
        tag_seed = rng.getrandbits(32)

        got = outcome(riemann_stieltjes_sum, f, phi, a, b, PartitionSpec.simple(m), rule,
                      tag_seed, PRECISION)
        want = outcome(naive_stieltjes, f, phi, naive_breaks(a, b, m), rule, tag_seed)
        assert got == want, (render(f), render(phi))

    for mode in ("tag-in-cell", "mcshane"):
        f = parsed(gen.tree(3, big=False))
        (a, b), = rand_rect(rng, 1).intervals
        gauge = Gauge(parse(f"{F(rng.randint(1, 9), 16)} + x^2/{rng.randint(2, 9)}"))

        def naive_gauge():
            cells, tags, _ = naive_cousin(gauge, a, b, mode)
            return sum((at(f, tag) * (hi - lo) for ((lo, hi),), tag in zip(cells, tags)), F(0))

        got = outcome(gauge_sum, f, a, b, gauge, mode, PRECISION)
        assert got == outcome(naive_gauge), render(f)


def naive_stieltjes(f: Expr, phi: Expr, breaks, rule: str, tag_seed: int) -> F:
    # phi at every breakpoint, then f at every tag
    phis = [at(phi, (t,)) for t in breaks]
    values = [at(f, naive_tag((cell,), rule, tag_seed, i))
              for i, cell in enumerate(zip(breaks, breaks[1:]))]
    return sum((v * (hi - lo) for v, lo, hi in zip(values, phis, phis[1:])), F(0))


def naive_cousin(gauge: Gauge, a: F, b: F, mode: str):
    """cousin_partition by recursive bisection on Fractions, as cells, tags
    and tags_in_cells: a cell is taken with the first fitting tag among the
    last accepted one (McShane mode), its left end and its midpoint; past 64
    bisections, or past 2048 cells, DepthExceeded."""
    def delta(x: F) -> F:
        value = at(gauge.radius, (x,))
        if value <= 0:
            raise DomainError(
                f"gauge must be positive, delta({show_rational(x)}) = {show_rational(value)}")
        return value

    cells, tags, stack = [], [], [(a, b, 0)]
    while stack:
        u, v, depth = stack.pop()
        mid = (u + v) / 2
        for x in ([tags[-1][0]] if mode == "mcshane" and tags else []) + [u, mid]:
            d = delta(x)
            if x - d <= u and v <= x + d:
                cells.append(((u, v),))
                tags.append((x,))
                if len(cells) > 2048:
                    raise DepthExceeded(f"more than 2048 gauge-fine cells, the last [{u}, {v}]"
                                        f" at depth {depth}, delta({u}) = {show_rational(delta(u))}")
                break
        else:
            if depth >= 64:
                raise DepthExceeded(f"no gauge-fine cell after 64 bisections near [{u}, {v}], "
                                    f"delta({u}) = {show_rational(delta(u))}")
            stack += [(mid, v, depth + 1), (u, mid, depth + 1)]
    return tuple(cells), tuple(tags), mode == "tag-in-cell"


def partition_outcome(gauge: Gauge, a: F, b: F, mode: str):
    part = cousin_partition(gauge, a, b, mode, PRECISION)
    return part.cells, part.tags, part.tags_in_cells


def rand_gauge(rng: random.Random) -> str:
    """A positive gauge: a polynomial, an exp bump or a rational function."""
    c0 = F(rng.randint(1, 6), rng.choice([64, 96, 100, 150]))
    c1 = F(rng.randint(1, 9), rng.choice([8, 16, 30]))
    m = F(rng.randint(-12, 12), rng.choice([3, 4, 10]))
    return rng.choice([
        f"{c0} + {c1}*x^2",
        f"{c0} + {c1}*(x - {m})^2*(x + 1)^2",
        f"{c0} + {c1}*exp(-{rng.randint(5, 200)}*(x - {m})^2)",
        f"{c0} + {c1}/(1 + (x - {m})^2)",
        f"1/({rng.randint(20, 90)} + {c1}*x^2)",
    ])


@pytest.mark.parametrize("seed", SEEDS)
def test_gauge_partitions_equal_fraction_bisection(seed):
    # odd and decimal denominators, so no endpoint sits on a dyadic grid of 1
    rng = random.Random(1100 + seed)
    dens = [1, 3, 7, 10, 25, 4, 9]
    for mode in ("tag-in-cell", "mcshane"):
        cases = []
        for _ in range(4):
            a = F(rng.randint(-30, 20), rng.choice(dens))
            cases.append((rand_gauge(rng), a, a + F(rng.randint(1, 30), rng.choice(dens))))
        a = F(rng.randint(-8, 0), rng.choice(dens))
        cases += [
            (f"{a + F(rng.randint(1, 20), 10)} - x", a, a + 2),  # reaches 0 inside
            (f"1/10^{rng.randint(19, 25)}", a, a + F(1, 3)),  # the bisection cap
        ]
        if (seed + (mode == "mcshane")) % 2:  # the cell cap, one mode per seed
            third = F(rng.randint(1, 20), 3)
            below = F(rng.choice([1, 2, 3, 4, 5, 7, 8, 9]), 10)  # 6/16 would be dyadic
            cases.append((f"(x - {third})^2", third - below, third + 1))
        else:  # exactly 2048 cells, in the other mode
            cases.append(("1/2500", a, a + 1))
        for text, a, b in cases:
            gauge = Gauge(parse(text))
            want = outcome(naive_cousin, gauge, a, b, mode)
            assert outcome(partition_outcome, gauge, a, b, mode) == want, (text, a, b, mode)


def rand_ball(rng: random.Random, rect: Rect) -> Expr:
    """A ball about the box's center, of radius 0.2 to 0.7 times its widest side."""
    center = [(lo + hi) / 2 for lo, hi in rect.intervals]
    radius = max(hi - lo for lo, hi in rect.intervals) * F(rng.randint(2, 7), 10)
    return parse(" + ".join(f"({n} - ({c}))^2" for n, c in zip(NAMES, center))
                 + f" - ({radius})^2")


def naive_classify(membership: Expr, cells):
    """Inner cells (every vertex and the center inside), and the boundary and
    exterior counts and the boundary volume."""
    inner, boundary, exterior, boundary_volume = [], 0, 0, F(0)
    for cell in cells:
        points = [*product(*cell), tuple((lo + hi) / 2 for lo, hi in cell)]
        flags = [at(membership, p) <= 0 for p in points]
        if all(flags):
            inner.append(cell)
        elif any(flags):
            boundary += 1
            boundary_volume += volume(cell)
        else:
            exterior += 1
    return inner, boundary, exterior, boundary_volume


def naive_inner_sum(f: Expr, membership: Expr, cells):
    inner, boundary, exterior, boundary_volume = naive_classify(membership, cells)
    value = sum((at(f, [lo for lo, _ in c]) * volume(c) for c in inner), F(0))
    return value, len(inner), boundary, exterior, boundary_volume


@pytest.mark.parametrize("seed", SEEDS)
def test_inner_sum(seed):
    rng = random.Random(400 + seed)
    for dim in (1, 2, 3):
        f = parsed(ExprGen(rng, NAMES[:dim]).tree(3, big=False))
        rect = rand_rect(rng, dim)
        membership = rand_ball(rng, rect)
        counts = [rng.randint(1, (12, 6, 3)[dim - 1]) for _ in range(dim)]
        got = outcome(inner_sum, f, Region(rect, membership), PartitionSpec.simple(*counts),
                      PRECISION)
        assert got == outcome(naive_inner_sum, f, membership, naive_cells(rect, counts)), render(f)


def rand_explicit(rng: random.Random, rect: Rect, most: int) -> list[list[F]]:
    """Breakpoints of uneven widths and mixed denominators: the endpoints and
    up to most - 1 interior points a + (b - a) k / den."""
    axes = []
    for a, b in rect.intervals:
        dens = rng.choices([2, 3, 5, 7, 12], k=rng.randint(0, most - 1))
        inner = {a + (b - a) * F(rng.randint(1, den - 1), den) for den in dens}
        axes.append([a, *sorted(inner), b])
    return axes


@pytest.mark.parametrize("seed", SEEDS)
def test_explicit_partitions(seed):
    rng = random.Random(800 + seed)
    for dim in (1, 2, 3):
        gen = ExprGen(rng, NAMES[:dim])
        rect = rand_rect(rng, dim)
        axes = rand_explicit(rng, rect, (10, 5, 3)[dim - 1])
        spec, cells = PartitionSpec.explicit(*axes), cells_of(axes)
        for rule in TAG_RULES:
            f = parsed(gen.tree(3, big=False))
            tag_seed = rng.getrandbits(32)

            def naive():
                return sum((at(f, naive_tag(cell, rule, tag_seed, i)) * volume(cell)
                            for i, cell in enumerate(cells)), F(0))

            got = outcome(riemann_sum, f, rect, spec, rule, tag_seed, PRECISION)
            assert got == outcome(naive), (render(f), axes, rule)
            if dim == 1:
                phi = parsed(gen.tree(2, big=False))
                (a, b), = rect.intervals
                got = outcome(riemann_stieltjes_sum, f, phi, a, b, spec, rule, tag_seed,
                              PRECISION)
                assert got == outcome(naive_stieltjes, f, phi, axes[0], rule, tag_seed), (
                    render(f), render(phi), axes, rule)
        f, s = parsed(gen.tree(3, big=False)), rng.randint(2, 3)
        got = outcome(darboux_bounds, f, rect, spec, s, PRECISION)
        assert got == outcome(naive_darboux, f, cells, dim, s), (render(f), axes)
        f, membership = parsed(gen.tree(3, big=False)), rand_ball(rng, rect)
        got = outcome(inner_sum, f, Region(rect, membership), spec, PRECISION)
        assert got == outcome(naive_inner_sum, f, membership, cells), (render(f), axes)


def mass_properties(rho: Expr, region: Region, spec: PartitionSpec):
    props = measure_mass_moment_com(rho, region, spec, PRECISION)
    return props.mass, props.moments, tuple(props.counts)


def naive_mass_properties(rho: Expr, membership: Expr, cells, dim: int):
    inner, boundary, exterior, boundary_volume = naive_classify(membership, cells)
    mass, moments = F(0), [F(0)] * dim
    for cell in inner:
        corner = [lo for lo, _ in cell]
        w = at(rho, corner) * volume(cell)
        mass += w
        moments = [mu + x * w for mu, x in zip(moments, corner)]
    return mass, tuple(moments), (mass, len(inner), boundary, exterior, boundary_volume)


@pytest.mark.parametrize("seed", SEEDS)
def test_mass_moments(seed):
    rng = random.Random(900 + seed)
    for dim in (1, 2, 3):
        rho = parsed(ExprGen(rng, NAMES[:dim]).tree(3, big=False))
        rect = rand_rect(rng, dim)
        membership = rand_ball(rng, rect)
        if rng.random() < 0.5:
            counts = [rng.randint(1, (12, 6, 3)[dim - 1]) for _ in range(dim)]
            spec, cells = PartitionSpec.simple(*counts), naive_cells(rect, counts)
        else:
            axes = rand_explicit(rng, rect, (12, 6, 3)[dim - 1])
            spec, cells = PartitionSpec.explicit(*axes), cells_of(axes)
        got = outcome(mass_properties, rho, Region(rect, membership), spec)
        assert got == outcome(naive_mass_properties, rho, membership, cells, dim), render(rho)


def bench_families(rng: random.Random, a: F, b: F):
    """A radius, a curve in x and a force field from the benchmark's
    families (``bench/wl_trans.py``): a sphere zone over [a, b] or an exp
    surface; a circle arc, a catenary or a cycloid; a cos or an exp
    gradient field."""
    def coeff(lo: int, hi: int) -> str:
        return str(F(rng.randint(lo, hi), 100))

    R = max(abs(a), abs(b)) + F(rng.randint(1, 100), 100)
    radius = rng.choice([f"sqrt({R * R} - x^2)", f"{coeff(50, 100)}*exp({coeff(25, 100)}*x)"])
    r, w = coeff(50, 200), coeff(50, 200)
    curve = rng.choice([[f"{r}*cos({w}*x)", f"{r}*sin({w}*x)"],
                        ["x", "0.5*exp(x) + 0.5*exp(-x)"],
                        [f"{r}*(x - sin(x))", f"{r}*(1 - cos(x))"]])
    fn, k = rng.choice(["cos", "exp"]), coeff(50, 200)
    return (parse(radius), CurveDef(tuple(map(parse, curve)), "x"),
            [parse(f"{k}*{fn}(x)"), parse(f"{k}*{fn}(y)")])


def holds_real_power_or_root(e: Expr) -> bool:
    if isinstance(e, Unary):
        return holds_real_power_or_root(e.operand)
    if isinstance(e, Binary):
        real = e.op == "^" and int_exponent(e) is None
        return real or holds_real_power_or_root(e.left) or holds_real_power_or_root(e.right)
    if isinstance(e, Call):
        return e.fn == "root" or any(map(holds_real_power_or_root, e.args))
    return False


@pytest.mark.parametrize("seed", SEEDS)
def test_tangent_code_declines_only_what_it_must(seed):
    # a tree has no tangent code exactly when it holds a real power or a
    # root; and the benchmark's families take no point's slope from a jet:
    # their tangent code answers at every breakpoint and centre of their
    # benchmark ranges (``bench/wl_trans.py``) at 40 digits, the curves also
    # over the cycloid's
    rng = random.Random(2900 + seed)
    gen = ExprGen(rng, ("x",))
    for _ in range(100):
        e = parsed(gen.tree(rng.randint(1, 4)))
        declined = _compile_tangent(e, "x", PRECISION) is _no_tangent
        assert declined == holds_real_power_or_root(e), render(e)
    for _ in range(10):
        a = F(rng.randint(-1000, 0), 1000)
        b = a + F(rng.randint(500, 1500), 1000)
        start = F(rng.randint(200, 1000), 1000)
        cycloid = start, start + F(rng.randint(1000, 3000), 1000)
        radius, curve, _ = bench_families(rng, a, b)
        m = rng.randint(6, 10)
        cases = [(radius, [(a, b)]), *((c, [(a, b), cycloid]) for c in curve.components)]
        for e, ranges in cases:
            tangent = _compile_tangent(e, "x", 40)
            for lo, hi in ranges:
                for i in range(2 * m + 1):
                    t = lo + (hi - lo) * F(i, 2 * m)
                    tangent(t.numerator, t.denominator)  # a MathError fails the test


@pytest.mark.parametrize("seed", SEEDS)
def test_one_dimensional_measures(seed):
    rng = random.Random(1000 + seed)
    families = random.Random(f"families {seed}")  # leaves rng's draws as they were
    gen = ExprGen(rng, ("x",))
    pi = approx.pi_approx(PRECISION)
    for rule in TAG_RULES:
        (a, b), = rand_rect(rng, 1).intervals
        m = rng.randint(1, 12)
        breaks = naive_breaks(a, b, m)
        f = parsed(gen.tree(3, big=False))
        # g - f is a square plus a constant half the time, crossing 0 when it is negative
        if rng.random() < 0.5:
            gap = parse(f"(x - ({rand_rational(rng)}))^2 + ({rand_rational(rng)})")
        else:
            gap = gen.tree(2, big=False)
        g = parsed(Binary("+", f, gap))

        def naive_area():
            # f and g at every breakpoint, their order, then g and f at every tag
            lowers, uppers = [at(f, (t,)) for t in breaks], [at(g, (t,)) for t in breaks]
            for t, lower, upper in zip(breaks, lowers, uppers):
                if lower > upper:
                    raise OrderViolation(f"lower curve exceeds upper curve at {t}")
            cells = list(zip(breaks, breaks[1:]))
            tags = [naive_tag((cell,), rule, 0, i) for i, cell in enumerate(cells)]
            uppers, lowers = [at(g, tag) for tag in tags], [at(f, tag) for tag in tags]
            return sum(((upper - lower) * (hi - lo)
                        for upper, lower, (lo, hi) in zip(uppers, lowers, cells)), F(0))

        got = outcome(measure_area_between, f, g, a, b, m, rule, PRECISION)
        assert got == outcome(naive_area), (render(f), render(g), rule)

        force = parsed(gen.tree(3, big=False))

        def naive_impulse():
            return sum((at(force, (lo,)) * (hi - lo) for lo, hi in zip(breaks, breaks[1:])), F(0))

        got = outcome(impulse, force, a, b, m, PRECISION)
        assert got == outcome(naive_impulse), render(force)

        radius = gen.tree(3, big=False)
        radius = parsed(Call("abs", (radius,)) if rng.random() < 0.5 else radius)

        def naive_volume():
            total = F(0)
            for lo, hi in zip(breaks, breaks[1:]):
                r = at(radius, (lo,))
                if r < 0:
                    raise NegativeRadius(f"f({lo}) = {show_rational(r)} < 0")
                total += pi * r * r * (hi - lo)
            return total

        got = outcome(measure_volume_revolution, radius, a, b, m, PRECISION)
        assert got == outcome(naive_volume), render(radius)

        def naive_surface(radius):
            total = F(0)
            for lo, hi in zip(breaks, breaks[1:]):
                r = at(radius, (lo,))
                if r < 0:
                    raise NegativeRadius(f"f({lo}) = {show_rational(r)} < 0")
                slope = taylor_jet(radius, lo, 1, JET_FIELD, "x").derivative(1)
                total += 2 * pi * r * approx.sqrt_approx(1 + slope * slope, PRECISION) * (hi - lo)
            return total

        def points(curve):
            return [tuple(at(c, (t,)) for c in curve.components) for t in breaks]

        def speed(curve, t):
            return [taylor_jet(c, t, 1, JET_FIELD, "x").derivative(1) for c in curve.components]

        def naive_length(curve):
            ends = points(curve)
            polygonal = F(0)
            for p, q in zip(ends, ends[1:]):
                polygonal += approx.sqrt_approx(
                    sum(((x - y) ** 2 for x, y in zip(p, q)), F(0)), PRECISION)
            integral = F(0)
            for lo, hi in zip(breaks, breaks[1:]):
                integral += approx.sqrt_approx(
                    sum((v * v for v in speed(curve, (lo + hi) / 2)), F(0)), PRECISION) * (hi - lo)
            return polygonal, integral

        def naive_work(force, curve):
            ends = points(curve)
            chord = integrand = F(0)
            for (lo, hi), p, q in zip(zip(breaks, breaks[1:]), ends, ends[1:]):
                tag = (lo + hi) / 2
                pos = tuple(at(c, (tag,)) for c in curve.components)
                pull = [at(fc, pos) for fc in force]
                chord += sum((fi * (x1 - x0) for fi, x0, x1 in zip(pull, p, q)), F(0))
                slopes = speed(curve, tag)
                integrand += sum((fi * vi for fi, vi in zip(pull, slopes)), F(0)) * (hi - lo)
            return chord, integrand

        # random trees, then the benchmark's families (their slopes are the
        # tangent code's at every point)
        curve = CurveDef(tuple(parsed(gen.tree(2, big=False)) for _ in range(2)), "x")
        force = [parsed(ExprGen(rng, NAMES[:2]).tree(2, big=False)) for _ in range(2)]
        for radius, curve, force in ((radius, curve, force), bench_families(families, a, b)):
            got = outcome(measure_surface_revolution, radius, a, b, m, PRECISION)
            assert got == outcome(naive_surface, radius), render(radius)
            got = outcome(measure_curve_length, curve, a, b, m, PRECISION)
            assert got == outcome(naive_length, curve), tuple(map(render, curve.components))
            got = outcome(lambda: line_integral_work(force, curve, a, b, m, precision=PRECISION))
            shown = tuple(map(render, [*force, *curve.components]))
            assert got == outcome(naive_work, force, curve), shown

        generator, target = parse(rand_poly(rng, "x")), parsed(gen.tree(2, big=False))
        meshes = [rng.randint(1, 6) for _ in range(2)]

        def naive_supernear():
            anti = polynomial_antiderivative(generator, "x")
            rows = []
            for k in meshes:
                cuts = naive_breaks(a, b, k)
                worst = F(0)
                for lo, hi in zip(cuts, cuts[1:]):
                    avg = (at(anti, (hi,)) - at(anti, (lo,))) / (hi - lo)
                    for p in (lo, hi, (lo + hi) / 2):
                        worst = max(worst, abs(avg - at(target, (p,))))
                rows.append(((b - a) / k, worst))
            return tuple(rows)

        got = outcome(supernearness_probe, generator, target, a, b, meshes, PRECISION)
        got = got.rows if isinstance(got, SupernearReport) else got
        assert got == outcome(naive_supernear), (render(generator), render(target))


@pytest.mark.parametrize("seed", SEEDS)
def test_tagged_partition_tags(seed):
    rng = random.Random(1100 + seed)
    for dim in (1, 2, 3):
        rect = rand_rect(rng, dim)
        if rng.random() < 0.5:
            counts = [rng.randint(1, (12, 5, 3)[dim - 1]) for _ in range(dim)]
            spec, cells = PartitionSpec.simple(*counts), naive_cells(rect, counts)
        else:
            axes = rand_explicit(rng, rect, (12, 5, 3)[dim - 1])
            spec, cells = PartitionSpec.explicit(*axes), cells_of(axes)
        for rule in TAG_RULES:
            tag_seed = rng.getrandbits(32)
            part = tagged_partition(rect, spec, rule, tag_seed)
            assert part.cells == tuple(cells)
            assert part.tags == tuple(naive_tag(cell, rule, tag_seed, i)
                                      for i, cell in enumerate(cells)), (rect, rule)


def naive_simpson(integrand, a: F, b: F) -> F:
    """adaptive_simpson on Fractions: Simpson's rule S on [lo, hi] and on its
    halves, split while |S(half) - S(whole)| > 15 tol, tol = 10^-SIMPSON_DIGITS
    halved with each split, else S(half) + (S(half) - S(whole)) / 15 added to
    the total; intervals depth first, left before right, the integrand called
    on reduced points, and the caps of hrw.integration read at call time."""
    def fn(x: F) -> F:
        return F(*integrand(x.numerator, x.denominator))

    def simpson(lo: F, hi: F, flo: F, fhi: F, fmid: F) -> F:
        return (hi - lo) / 6 * (flo + 4 * fmid + fhi)

    a, b = F(a), F(b)
    fa, fb = fn(a), fn(b)
    fm = fn((a + b) / 2)
    total, used = F(0), 0
    stack = [(a, b, fa, fb, fm, simpson(a, b, fa, fb, fm), F(1, 10**SIMPSON_DIGITS), 0)]
    while stack:
        used += 1
        if used > integration._SIMPSON_CAP:
            raise OracleFailure(f"quadrature exceeded {integration._SIMPSON_CAP} intervals")
        lo, hi, flo, fhi, fmid, whole, tol, depth = stack.pop()
        mid = (lo + hi) / 2
        flmid, frmid = fn((lo + mid) / 2), fn((mid + hi) / 2)
        left, right = simpson(lo, mid, flo, fmid, flmid), simpson(mid, hi, fmid, fhi, frmid)
        if abs(left + right - whole) <= 15 * tol:
            total += left + right + (left + right - whole) / 15
        elif depth == integration._SIMPSON_DEPTH:
            raise OracleFailure(
                f"quadrature exceeded {depth} halvings near {decimal_str(lo)}")
        else:
            stack.append((mid, hi, fmid, fhi, frmid, right, tol / 2, depth + 1))
            stack.append((lo, mid, flo, fmid, flmid, left, tol / 2, depth + 1))
    return total


def rand_integrand(rng: random.Random, family: str, a: F, b: F) -> str:
    """A seeded integrand of one family on [a, b]: a steep root sits at a, a
    jump or a kink at a point k/7 of the way (never on the dyadic grid) or
    k/8 (on it)."""
    c, m = F(rng.randint(-40, 40), rng.choice([3, 4, 10])), F(rng.randint(-9, 9), 7)
    k = rng.randint(3, 12)
    inner = a + (b - a) * F(rng.randint(1, 6), rng.choice([7, 8]))
    return {
        "polynomial": f"{c}*x^3 - {m}*x^2 + {k}*x - 1/3",
        "rational": f"({c}*x + 1)/({k}/10 + (x - {m})^2)",
        "trigonometric": f"{c}*{rng.choice(['sin', 'cos'])}({k}*x/3 + {m}) + x/5",
        "steep root": f"abs(x - {a})^(1/{k // 2})",
        "jump": f"abs(x - {inner})/(x - {inner})",
        "kink": f"{c}*abs(x - {inner})",
    }[family]


@pytest.mark.parametrize("seed", SEEDS)
def test_simpson_equals_fraction_loop(seed):
    # odd and decimal denominators; forward, reversed and empty intervals
    rng = random.Random(1200 + seed)
    dens = [1, 3, 7, 10, 25, 4, 9]
    for family in ("polynomial", "rational", "trigonometric", "steep root", "jump", "kink"):
        a = F(rng.randint(-20, 20), rng.choice(dens))
        b = a + F(rng.randint(1, 20), rng.choice(dens))
        fn = compile_real(parse(rand_integrand(rng, family, a, b)), ("x",), PRECISION)
        for lo, hi in ((a, b), (b, a), (a, a)):
            for integrand in (fn, lambda n, d: tuple(6 * v for v in fn(n, d))):
                want = outcome(naive_simpson, integrand, lo, hi)
                assert outcome(adaptive_simpson, integrand, lo, hi) == want, (family, lo, hi)


def test_simpson_pole_reaches_the_interval_cap(monkeypatch):
    # without the cap, the Fraction loop takes minutes to reach 10^6 intervals
    monkeypatch.setattr(integration, "_SIMPSON_CAP", 5000)
    fn = compile_real(parse("-(x/x) - x^(-3)"), ("x",))
    want = ("OracleFailure", "quadrature exceeded 5000 intervals")
    assert outcome(naive_simpson, fn, F(-1, 3), F(2)) == want
    assert outcome(adaptive_simpson, fn, F(-1, 3), F(2)) == want


# -- row kernels against the point loops they replaced -----------------------------------------


def point_at(e: Expr, names):
    """e's compile_real function, called once per point: the point loop."""
    fn = compile_real(e, names, PRECISION)
    return lambda point: F(*fn(*(v for c in point for v in (c.numerator, c.denominator))))


def point_riemann(f: Expr, rect: Rect, spec: PartitionSpec, rule: str, seed: int) -> F:
    value = point_at(f, NAMES[:rect.dimension])
    part = tagged_partition(rect, spec, rule, seed)
    return sum((value(tag) * v for tag, v in zip(part.tags, part.volumes())), F(0))


def point_darboux(f: Expr, rect: Rect, spec: PartitionSpec, s: int):
    value, dim = point_at(f, NAMES[:rect.dimension]), rect.dimension
    lower = upper = F(0)
    flagged = 0
    for cell in cells_of(spec.breakpoints(rect)):
        grid = [[lo + (hi - lo) * j / (s - 1) for j in range(s)] for lo, hi in cell]
        values = dict(zip(product(range(s), repeat=dim), map(value, product(*grid))))
        lower += min(values.values()) * volume(cell)
        upper += max(values.values()) * volume(cell)
        flagged += not naive_monotone(values, dim, s)
    return lower, upper, flagged


def point_stieltjes(f: Expr, phi: Expr, a: F, b: F, spec: PartitionSpec, rule: str, seed: int):
    # phi at every breakpoint, then f at every tag
    value_f, value_phi = point_at(f, ("x",)), point_at(phi, ("x",))
    rect = Rect.interval(a, b)
    phis = [value_phi((t,)) for t in spec.breakpoints(rect)[0]]
    values = [value_f(tag) for tag in tagged_partition(rect, spec, rule, seed).tags]
    return sum((v * (hi - lo) for v, lo, hi in zip(values, phis, phis[1:])), F(0))


def point_area(f: Expr, g: Expr, a: F, b: F, m: int, rule: str) -> F:
    # f and then g at every breakpoint, their order at each breakpoint from
    # the left, then g and then f at every tag
    value_f, value_g = point_at(f, ("x",)), point_at(g, ("x",))
    breaks = naive_breaks(a, b, m)
    lowers, uppers = [value_f((t,)) for t in breaks], [value_g((t,)) for t in breaks]
    for t, lower, upper in zip(breaks, lowers, uppers):
        if upper < lower:
            raise OrderViolation(f"lower curve exceeds upper curve at {show_rational(t)}")
    part = tagged_partition(Rect.interval(a, b), PartitionSpec.simple(m), rule, 0)
    uppers = [value_g(tag) for tag in part.tags]
    lowers = [value_f(tag) for tag in part.tags]
    return sum(((hi - lo) * v for hi, lo, v in zip(uppers, lowers, part.volumes())), F(0))


def point_inner(f: Expr, region: Region, spec: PartitionSpec, moments: bool = False):
    """Classify line by line along the last axis, each point once: for each
    line of cells in row-major order, the vertex lines at its corners and
    then its center line; then sum f at the inner cells' min-vertices."""
    names = NAMES[:region.bounding.dimension]
    member, value = point_at(region.membership, names), point_at(f, names)
    breaks = spec.breakpoints(region.bounding)
    cells = cells_of(breaks)
    *outer, zs = breaks
    z_mids = [(lo + hi) / 2 for lo, hi in zip(zs, zs[1:])]
    inside = {}
    for cell in cells_of(outer):
        lines = [(corner, zs) for corner in product(*cell)]
        lines.append((tuple((lo + hi) / 2 for lo, hi in cell), z_mids))
        for head, row in lines:
            for p in ((*head, z) for z in row):
                if p not in inside:
                    inside[p] = member(p) <= 0
    counts = [0, 0, 0]  # inner, boundary, exterior
    total, edge, firsts = F(0), F(0), [F(0)] * len(names)
    for cell in cells:
        center = tuple((lo + hi) / 2 for lo, hi in cell)
        flags = [inside[p] for p in product(*cell)] + [inside[center]]
        if all(flags):
            counts[0] += 1
            corner = [lo for lo, _ in cell]
            w = value(corner) * volume(cell)
            total += w
            firsts = [mu + x * w for mu, x in zip(firsts, corner)]
        elif any(flags):
            counts[1] += 1
            edge += volume(cell)
        else:
            counts[2] += 1
    result = (total, *counts, edge)
    return (total, tuple(firsts), result) if moments else result


@pytest.mark.parametrize("seed", SEEDS)
def test_row_kernels_equal_point_loop(seed):
    # trees with variable divisors, calls and powers past the 200 000-bit
    # guard, on simple and explicit uneven grids in 1 to 3 dimensions: every
    # row-kernel sum gives the value or the first error of its point loop
    rng = random.Random(1300 + seed)
    for dim in (1, 2, 3):
        gen, names = ExprGen(rng, NAMES[:dim]), NAMES[:dim]
        rect = rand_rect(rng, dim)
        counts = [rng.randint(1, (8, 4, 2)[dim - 1]) for _ in range(dim)]
        specs = (PartitionSpec.simple(*counts),
                 PartitionSpec.explicit(*rand_explicit(rng, rect, (8, 4, 2)[dim - 1])))
        for spec in specs:
            for rule in TAG_RULES:
                f, tag_seed = parsed(gen.tree(3)), rng.getrandbits(32)
                got = outcome(riemann_sum, f, rect, spec, rule, tag_seed, PRECISION)
                assert got == outcome(point_riemann, f, rect, spec, rule, tag_seed), (
                    render(f), spec, rule)
            f, s = parsed(gen.tree(3)), rng.randint(2, 4)
            got = outcome(lambda: tuple(darboux_bounds(f, rect, spec, s, PRECISION)))
            assert got == outcome(point_darboux, f, rect, spec, s), (render(f), spec, s)
            membership = rand_ball(rng, rect) if rng.random() < 0.6 else parsed(gen.tree(2))
            region, f = Region(rect, membership), parsed(gen.tree(3))
            got = outcome(lambda: tuple(inner_sum(f, region, spec, PRECISION)))
            assert got == outcome(point_inner, f, region, spec), (render(f), render(membership))
            got = outcome(mass_properties, f, region, spec)
            assert got == outcome(point_inner, f, region, spec, True), (
                render(f), render(membership))
    gen = ExprGen(rng, ("x",))
    for rule in TAG_RULES:
        (a, b), = rand_rect(rng, 1).intervals
        m, tag_seed = rng.randint(1, 8), rng.getrandbits(32)
        f, phi = parsed(gen.tree(3)), parsed(gen.tree(2))
        spec = PartitionSpec.simple(m)
        got = outcome(riemann_stieltjes_sum, f, phi, a, b, spec, rule, tag_seed, PRECISION)
        assert got == outcome(point_stieltjes, f, phi, a, b, spec, rule, tag_seed), (
            render(f), render(phi), rule)
        g = parsed(Binary("+", parsed(gen.tree(2)), parse(f"x^2 + {rand_rational(rng)}")))
        f = parsed(gen.tree(2))
        got = outcome(measure_area_between, f, g, a, b, m, rule, PRECISION)
        assert got == outcome(point_area, f, g, a, b, m, rule), (render(f), render(g), rule)
        got = outcome(impulse, f, a, b, m, PRECISION)
        assert got == outcome(point_riemann, f, Rect.interval(a, b), spec, "min-vertex", 0)
        gauge = Gauge(parse(f"{F(rng.randint(1, 9), 16)} + x^2/{rng.randint(2, 9)}"))
        mode = rng.choice(["tag-in-cell", "mcshane"])

        def point_gauge():
            part = cousin_partition(gauge, a, b, mode, PRECISION)
            value = point_at(f, ("x",))
            return sum((value(tag) * v for tag, v in zip(part.tags, part.volumes())), F(0))

        assert outcome(gauge_sum, f, a, b, gauge, mode, PRECISION) == outcome(point_gauge)


@pytest.mark.parametrize("seed", SEEDS)
def test_plane_sweep_equals_general_classifier(seed):
    # _sweep_2d is the plane's fast path of _classify_cells: on one grid and
    # one row kernel it must give the same counts, or the same first error,
    # for memberships that raise at no point, at one or at several
    rng = random.Random(1700 + seed)
    gen = ExprGen(rng, NAMES[:2])
    unit = Rect.box((0, 1), (0, 1))
    cases = [(unit, PartitionSpec.simple(1, 2), parse("1/(4*y - 1) + 1/(x + y - 2)"))]
    for _ in range(6):
        rect = rand_rect(rng, 2)
        spec = (PartitionSpec.simple(rng.randint(1, 5), rng.randint(1, 5)) if rng.random() < 0.5
                else PartitionSpec.explicit(*rand_explicit(rng, rect, 5)))
        xs, ys = spec.breakpoints(rect)
        y0 = rng.choice(ys + [(lo + hi) / 2 for lo, hi in zip(ys, ys[1:])])
        poles = parse(f"1/(y - ({y0})) + 1/(x + y - ({rng.choice(xs) + rng.choice(ys)}))")
        cases += [(rect, spec, m) for m in (rand_ball(rng, rect), parsed(gen.tree(2)), poles)]
    for rect, spec, membership in cases:
        grid = spec.grid(rect)
        member = compile_rows(membership, NAMES[:2], PRECISION)
        got = outcome(lambda: list(integration._sweep_2d(member, grid)))
        want = outcome(lambda: list(integration._classify_cells(member, grid)))
        assert got == want, (render(membership), spec)


def test_row_kernels_keep_the_first_error():
    # the hoisted 1/x of a y-row must not pre-empt 1/y at the first point
    unit = Rect.box((0, 1), (0, 1))
    got = outcome(riemann_sum, parse("1/y + 1/x"), unit, PartitionSpec.simple(2, 2))
    assert got == ("DivisionByZero", "division by zero (at offset 1)")
    assert got == outcome(point_riemann, parse("1/y + 1/x"), unit, PartitionSpec.simple(2, 2),
                          "min-vertex", 0)
    # f and phi both raise: phi's row runs first, so phi's error at the
    # last breakpoint comes before f's at the first tag, phi's at the first
    # cell's end before f's at the second tag, and phi's at the first cell's
    # start before f's later
    spec = PartitionSpec.simple(2)
    for f, phi, want in [
        ("2 + 1/x", "1/(x - 1)", "division by zero (at offset 1)"),
        ("2 + 1/(x - 1/2)", "1/(x - 1/2)", "division by zero (at offset 1)"),
        ("3 + 4 + 1/(x - 1/2)", "1 + 1/x", "division by zero (at offset 5)"),
    ]:
        args = (parse(f), parse(phi), F(0), F(1), spec)
        got = outcome(riemann_stieltjes_sum, *args, "min-vertex", 0, PRECISION)
        assert got == ("DivisionByZero", want) == outcome(point_stieltjes, *args, "min-vertex", 0)
    # both curves raise at one point: f's error first at the breakpoints, g's
    # first at the tags; and g's at the second tag before f's at the first
    for f, g, rule, want in [
        ("1/x", "4 + 1/x", "min-vertex", "division by zero (at offset 1)"),
        ("1/(x - 1/4)", "4 + 1/(x - 1/4)", "center", "division by zero (at offset 5)"),
        ("1/(x - 1/4)", "9 + 1/(x - 3/4)", "center", "division by zero (at offset 5)"),
    ]:
        args = (parse(f), parse(g), F(0), F(1), 2, rule)
        got = outcome(measure_area_between, *args, PRECISION)
        assert got == ("DivisionByZero", want) == outcome(point_area, *args)
    # a membership that raises at the first cell's center and at a vertex of
    # the second: the vertex line runs before the center line
    region = Region(Rect.box((0, 1), (0, 1), (0, 1)), parse("1/(4*z - 1) + 1/(z - 1)"))
    spec = PartitionSpec.simple(1, 1, 2)
    got = outcome(inner_sum, parse("1"), region, spec, PRECISION)
    assert got == ("DivisionByZero", "division by zero (at offset 15)")
    assert got == outcome(point_inner, parse("1"), region, spec)
    # so in the plane: the vertex (1, 1) raises before the first cell's center
    region = Region(Rect.box((0, 1), (0, 1)), parse("1/(4*y - 1) + 1/(x + y - 2)"))
    spec = PartitionSpec.simple(1, 2)
    got = outcome(inner_sum, parse("1"), region, spec, PRECISION)
    assert got == ("DivisionByZero", "division by zero (at offset 15)")
    assert got == outcome(point_inner, parse("1"), region, spec)


def test_row_kernels_resume_past_the_power_guard():
    # x^20000 has a 10-bit guard: at tags n/32 the numerators up to 15 pass
    # it inside the loop and 16 to 31 need int_pow, so the row goes on point
    # by point from 16, with the sum or the values so far
    f, unit = parse("x^20000"), Rect.interval(0, 1)
    spec = PartitionSpec.simple(32)
    assert riemann_sum(f, unit, spec, "min-vertex", 0, PRECISION) == point_riemann(
        f, unit, spec, "min-vertex", 0)
    got = tuple(darboux_bounds(f, unit, PartitionSpec.simple(16), 3, PRECISION))
    assert got == point_darboux(f, unit, PartitionSpec.simple(16), 3)


def test_row_kernels_keep_the_power_guard_for_the_denominator():
    # x^30000000 has no room under the guard for a row denominator of 2 or
    # more bits, so every point takes int_pow (exp/ln here); the row's
    # denominator to that power (tens of millions of bits, half a minute of
    # int arithmetic) must not be computed before the loop either
    f, unit = parse("x^30000000"), Rect.interval(0, 1)
    spec = PartitionSpec.simple(3)
    start = time.perf_counter()
    got = riemann_sum(f, unit, spec, "min-vertex", 0, PRECISION)
    assert time.perf_counter() - start < 2
    assert got == point_riemann(f, unit, spec, "min-vertex", 0)
    start = time.perf_counter()
    bounds = tuple(darboux_bounds(f, unit, spec, 5, PRECISION))
    assert time.perf_counter() - start < 2
    assert bounds == point_darboux(f, unit, spec, 5)

# -- jets: certified orders against one wide evaluation and the symbolic derivative ----------

NARROW = Field(precision=PRECISION)  # the default ceiling, window 16
WIDE = Field(window=64, precision=PRECISION)

# f(u) and its Taylor polynomial at 0 to the given number of terms
TAYLOR = {
    "sin": ["u", "-u^3/6", "u^5/120"],
    "cos": ["1", "-u^2/2", "u^4/24"],
    "exp": ["1", "u", "u^2/2"],
    "ln": ["u", "-u^2/2", "u^3/3"],  # of ln(1 + u)
}


def cancellation(rng: random.Random) -> str:
    """f(c x^k) minus m terms of its Taylor polynomial, over x^j: the leading
    terms cancel, and the division moves the remainder down to low order."""
    fn = rng.choice(sorted(TAYLOR))
    k, m = rng.randint(1, 9), rng.randint(1, 3)
    u = f"({rng.choice(['1', '2', '-1/2'])}*x^{k})"
    call = f"ln(1 + {u})" if fn == "ln" else f"{fn}({u})"
    poly = " - ".join(f"({t.replace('u', u)})" for t in TAYLOR[fn][:m])
    return f"({call} - {poly})/x^{rng.randint(0, 3 * k)}"


class JetGen:
    """Random expressions in x: rational ones over + - * / and integer powers,
    or with sqrt/root, rational powers, the transcendental calls and
    cancellation shapes."""

    def __init__(self, rng: random.Random, rational: bool):
        self.rng, self.rational = rng, rational

    def tree(self, depth: int) -> str:
        rng = self.rng
        if depth == 0 or rng.random() < 0.25:
            return "x" if rng.random() < 0.6 else f"({rand_rational(rng)})"
        kinds = ["+-*/", "ipow"] if self.rational else [
            "+-*/", "ipow", "root", "rpow", "call", "cancel"]
        kind = rng.choice(kinds)
        sub = lambda: self.tree(depth - 1)  # noqa: E731
        if kind == "+-*/":
            return f"({sub()} {rng.choice('+-*/')} {sub()})"
        if kind == "ipow":
            return f"({sub()})^{rng.choice([2, 3, -1, -2])}"
        if kind == "root":
            return rng.choice([f"sqrt({sub()})", f"root({rng.randint(3, 4)}, {sub()})"])
        if kind == "rpow":
            return f"({sub()})^({rng.choice(['1/2', '-1/2', '3/2', '2/3', '-1/3'])})"
        if kind == "call":
            return f"{rng.choice(['sin', 'cos', 'exp', 'ln'])}({sub()})"
        return cancellation(rng)


def wide_jet(e: Expr, x0: F, order: int):
    """Coefficients 0..order of one evaluation at window 64, if it certifies
    them, else None."""
    value = eval_hyper(e, {"x": WIDE.rational(x0) + WIDE.epsilon()}, WIDE)
    if value.order <= order or (value.terms and value.terms[0][0] < 0):
        return None
    table = {ex: c for ex, c in value.terms if ex <= order}
    if any(type(ex) is not int for ex in table):
        return None
    return tuple(table.get(k, F(0)) for k in range(order + 1))


def check_jet(e: Expr, x0: F, order: int) -> str:
    """'jet' or 'refused' when the narrow jet passes the check, else fails."""
    got = outcome(taylor_jet, e, x0, order, NARROW)
    if isinstance(got, tuple):
        if got[0] == "PrecisionExhausted":
            return "refused"
        # any other refusal is certified: the window-64 ceiling repeats it
        assert outcome(taylor_jet, e, x0, order, WIDE)[0] == got[0], (render(e), x0, order)
        return got[0]
    assert got.coeffs == wide_jet(e, x0, order), (render(e), x0, order)
    return "jet"


@pytest.mark.parametrize("seed", SEEDS)
def test_jets_equal_the_wide_window(seed):
    rng = random.Random(500 + seed)
    seen = []
    for _ in range(40):
        e = parse(JetGen(rng, rational=False).tree(rng.randint(1, 3)))
        x0 = F(0) if rng.random() < 0.5 else rand_rational(rng)
        seen.append(check_jet(e, x0, rng.randint(0, 6)))
    assert seen.count("jet") >= 10


def test_cancellation_jets_refused_or_exact():
    rng = random.Random(600)
    seen = [check_jet(parse(cancellation(rng)), F(0), rng.randint(0, 6)) for _ in range(60)]
    assert seen.count("jet") >= 10 and seen.count("refused") >= 5


@pytest.mark.parametrize("seed", SEEDS)
def test_jet_constant_equals_eval_real(seed):
    # jacobian, tangent_certificate and continuity_check compare eval_real at
    # a point with the constant term of the series there
    rng = random.Random(1300 + seed)
    returned = 0
    for _ in range(40):
        e = parse(JetGen(rng, rational=False).tree(rng.randint(1, 3)))
        p = rand_rational(rng)
        got = outcome(taylor_jet, e, p, 0, NARROW)
        if isinstance(got, tuple):
            continue
        want = outcome(eval_real, e, {"x": p}, PRECISION)
        if isinstance(want, tuple):  # a removable singularity at p
            assert want[0] == "DivisionByZero", (render(e), p, want)
            continue
        returned += 1
        assert got.coeffs[0] == want, (render(e), p)
    assert returned >= 10


@pytest.mark.parametrize("seed", SEEDS)
def test_rational_jets_equal_symbolic_derivatives(seed):
    rng = random.Random(700 + seed)
    returned = 0
    for _ in range(25):
        e = parse(JetGen(rng, rational=True).tree(rng.randint(1, 3)))
        x0, order = rand_rational(rng), rng.randint(0, 6)
        got = outcome(taylor_jet, e, x0, order, NARROW)
        if isinstance(got, tuple):
            assert got[0] in ("DomainError", "DivisionByZero", "PrecisionExhausted"), (render(e), x0, got)
            continue
        returned += 1
        d, fact = e, 1
        for k in range(order + 1):
            if k:
                d, fact = symbolic_derivative(d, "x"), fact * k
            assert got.coeffs[k] == eval_real(d, {"x": x0}) / fact, (render(e), x0, k)
    assert returned >= 10


def separate_side(e: Expr, p: F, sign: int, fld: Field):
    """st(eval_hyper) at p + sign*eps, widened as the limit probes widen;
    None where that side is not evaluable."""

    def probe(w: Field):
        return eval_hyper(e, {"x": w.rational(p) + w.epsilon() * sign}, w).st()

    try:
        return _widen(fld, 2 if p else 1, probe)
    except PrecisionExhausted:
        raise
    except MathError:
        return None


def separate_continuity(e: Expr, p: F, fld: Field) -> bool:
    """continuity_check's rule with each side evaluated on its own."""
    at_p = eval_real(e, {"x": p}, fld.precision)
    for sign in (-1, 1):
        s = separate_side(e, p, sign, fld)
        if s is None or not s.is_finite or s.as_fraction() != at_p:
            return False
    return True


def series_outcome(fn, *args):
    """A series' numerators, denominator, window, precision and order, any
    other value as it is, or the exception's type and text."""
    got = outcome(fn, *args)
    if hasattr(got, "_nums"):
        return got._nums, got._den, got.window, got.precision, got.order
    return got


DILATION_FIELDS = (Field(4, PRECISION), Field(F(5, 2), PRECISION), Field(8, 20))


@pytest.mark.parametrize("seed", SEEDS)
def test_dilated_probes_equal_pointwise_walks(seed):
    # one walk at c + h serves the points c + j*h of an increment, and the
    # left side of a limit serves the right: values, certified orders and
    # refusals must be those of one walk per point
    rng = random.Random(3100 + seed)
    gen = ExprGen(rng, ("x",))
    for _ in range(12):
        e = parsed(gen.tree(rng.randint(1, 3), big=rng.random() < 0.3))
        fld = rng.choice(DILATION_FIELDS)
        eps = fld.epsilon()
        c = rng.choice(POOL)
        for h in (eps, -eps, eps * 2, fld.epsilon(2), fld.epsilon(F(1, 2)) / 3,
                  -fld.epsilon(3) / 7, eps + fld.epsilon(2)):
            if rng.random() < 0.5:
                n = rng.randint(1, 5)
                got = series_outcome(nth_increment, e, c, h, n, fld, "x")
                want = series_outcome(pointwise_increment, e, c, h, n, fld)
                assert got == want, (render(e), c, h, n)
        res = outcome(fn_limit, e, c, fld, "x")
        sides = outcome(lambda: (separate_side(e, c, -1, fld), separate_side(e, c, 1, fld)))
        assert (res if isinstance(res, tuple) else (res.left, res.right)) == sides, (render(e), c)
        want = outcome(separate_continuity, e, c, fld)
        if isinstance(want, tuple):  # undefined at c: refused by name
            want = ("DomainError", f"function undefined at {show_rational(c)}: {want[0]}")
        assert outcome(continuity_check, e, c, fld, "x") == want, (render(e), c)


jet_exprs = st.recursive(
    st.sampled_from(["x", "(1/2)", "(-3)", "(2/3)"]),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from("+-*/"), inner).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
        st.tuples(st.sampled_from(["sin", "cos", "exp", "sqrt"]), inner).map(
            lambda t: f"{t[0]}({t[1]})"),
        st.tuples(inner, st.sampled_from([2, 3, -1])).map(lambda t: f"({t[0]})^{t[1]}"),
        st.integers(0, 2**32).map(lambda s: cancellation(random.Random(s))),
    ),
    max_leaves=6,
)


@settings(max_examples=100, deadline=None)
@given(jet_exprs, st.sampled_from([F(0), F(1, 2), F(-1), F(3, 2)]), st.integers(0, 6))
def test_returned_jet_coefficients_equal_window_64(text, x0, order):
    e = parse(text)
    got = outcome(taylor_jet, e, x0, order, NARROW)
    if not isinstance(got, tuple):
        assert got.coeffs == wide_jet(e, x0, order)


# -- measure --meshes against converge ---------------------------------------------------------


def rand_poly(rng: random.Random, var: str) -> str:
    return " + ".join(f"({rand_rational(rng)})*{var}^{k}" for k in range(rng.randint(1, 3)))


def study(capsys, *argv: str) -> dict:
    assert run(["--format", "json", *argv]) == 0, argv
    doc = json.loads(capsys.readouterr().out)
    return {key: doc[key] for key in ("rows", "estimate", "oracle", "error")}


@pytest.mark.parametrize("seed", SEEDS)
def test_measure_meshes_equals_converge(seed, capsys):
    rng = random.Random(400 + seed)
    for _ in range(3):
        a = rand_rational(rng)
        on = f"--on={a},{a + rng.choice([F(1), F(1, 2), F(3, 2)])}"
        f = rand_poly(rng, "x")
        requests = [
            ("area", f"--f={f}", f"--g={f} + 1 + x^2", on),
            ("impulse", f"--force={rand_poly(rng, 't')}", on),
            ("moment", "--region=x^2+y^2-1", f"--rho=1 + {rand_poly(rng, 'x')}^2",
             f"--integrand={rand_poly(rng, 'y')}"),
        ]
        meshes = rng.choice(["1/2,1/4", "1/2,1/3,1/4", "1/3,1/6,1/12", "1/4"])
        for kind, *options in requests:
            tail = [*options, f"--meshes={meshes}", f"--oracle={rand_rational(rng)}",
                    f"--tags={rng.choice(TAG_RULES)}"]
            assert study(capsys, "measure", kind, *tail) == study(capsys, "converge", kind, *tail)


# -- correct rounding of the approx kernels -------------------------------------------------

REF_PREC = 200


def decimal_value(name: str, x: F) -> Decimal:
    """name(x) from ``decimal`` at REF_PREC digits: exp, ln and sqrt directly;
    sin, cos and tan from the Taylor series at x, unreduced (|x| <= 100 loses
    at most 44 of the digits to cancellation)."""
    with localcontext() as ctx:
        ctx.prec = REF_PREC
        y = Decimal(x.numerator) / Decimal(x.denominator)
        if name in ("exp", "ln", "sqrt"):
            return getattr(y, name)()
        parts = [Decimal(0)] * 4  # Taylor terms grouped by k mod 4
        term, k = Decimal(1), 0
        while k < 8 or abs(term) > Decimal(10) ** (10 - REF_PREC):
            parts[k % 4] += term
            k += 1
            term = term * y / k
        s, c = parts[1] - parts[3], parts[0] - parts[2]
        return {"sin": s, "cos": c, "tan": s / c}[name]


def nearest_grid_point(v: Decimal, digits: int) -> F:
    """v rounded to the 10^-digits grid, ties to even."""
    with localcontext() as ctx:
        ctx.prec = REF_PREC
        return F(int(v.scaleb(digits).to_integral_value(ROUND_HALF_EVEN)), 10**digits)


def kernel_argument(rng: random.Random, name: str, digits: int) -> F:
    d = rng.randint(1, 10 ** rng.randint(0, 9))
    if name == "exp":  # down past the underflow edge -3(digits+2), up to e^50
        return F(rng.randint(-3 * (digits + 3) * d, 50 * d), d)
    if name in ("sin", "cos", "tan"):
        bound = rng.choice([4, 100])
        return F(rng.randint(-bound * d, bound * d), d)
    if name == "sqrt" and rng.random() < 0.3:  # only the numerator a square, up to 10^16
        m = rng.randint(1, 10 ** rng.randint(1, 8))
        while math.isqrt(d) ** 2 == d:
            d += 1
        return F(m * m, d)
    while True:  # ln and sqrt: from 10^-12 to 10^12
        x = F(rng.randint(1, 10 ** rng.randint(1, 12)), rng.randint(1, 10 ** rng.randint(0, 12)))
        # sqrt(v/m^2) is sqrt(v)/m by design, off the grid; a perfect square is exact
        if name == "ln" or math.isqrt(x.denominator) ** 2 != x.denominator:
            return x


KERNELS = {"exp": approx.exp_approx, "ln": approx.ln_approx, "sin": approx.sin_approx,
           "cos": approx.cos_approx, "tan": approx.tan_approx, "sqrt": approx.sqrt_approx}


@pytest.mark.parametrize("seed", SEEDS)
def test_kernels_round_correctly(seed):
    rng = random.Random(900 + seed)
    for digits in (12, 20, 40):
        for name, kernel in KERNELS.items():
            for _ in range(8):
                x = kernel_argument(rng, name, digits)
                got = kernel(x, digits)
                assert (got * 10**digits).denominator == 1, (name, x, digits)
                assert got == nearest_grid_point(decimal_value(name, x), digits), (name, x, digits)


# -- random CLI requests ------------------------------------------------------------------------

CLI_COMMANDS = ("eval", "st", "classify", "limit-seq", "limit-fn", "diff", "jet", "increment",
                "tangent", "curvature", "jacobian", "kinematics", "integrate", "measure",
                "converge", "probe-supernear")
MESHES = ("1", "1/2", "2/3", "1/3", "1/4", "3/8", "1/5", "1/8", "1/16")
REGIONS = ("x^2+y^2-1", "x^2+y^2-1/4", "abs(x)+abs(y)-1", "x^2+y^2+z^2-1", "x-y")
GAUGES = ("1/4", "1/8", "1/16", "x/8+1/16", "abs(x)/4+1/32", "(x-1/3)^2", "0", "x", "1/(x-1)")
REGION_KINDS = ("mass", "com", "moment")
CLI_ERROR = re.compile(r"(error: [A-Z][A-Za-z]*: |parse-error: |usage-error: )[^\n]*\n")


class RequestGen:
    """Random argv lists over every subcommand.  Options are drawn, left
    out or malformed at random, so parse, usage and math errors all occur;
    a drawn mesh is 1/16 or wider, orders stay at 5 or less, and intervals
    inside the rationals of POOL.  A left-out mesh is the command's default,
    1/64 for integrate, so a box sum in the plane without one has tens of
    thousands of cells and can take about a second; most requests take
    milliseconds."""

    def __init__(self, rng: random.Random):
        self.rng = rng

    def chance(self, p: float) -> bool:
        return self.rng.random() < p

    def expr(self, *names: str) -> str:
        rng = self.rng
        text = render(ExprGen(rng, names).tree(rng.randint(0, 3), big=False))
        if self.chance(0.05):
            cut = rng.randint(0, len(text))
            text = text[:cut] + rng.choice(["*", ")", "(", ",", "^^", "$", "9" * 4400]) + text[cut:]
        return text

    def exprs(self, *names: str) -> str:
        count = self.rng.randint(2, 3) if self.chance(0.9) else 1
        return "; ".join(self.expr(*names) for _ in range(count))

    def rational(self) -> str:
        if self.chance(0.04):
            return self.rng.choice(["", "1/0", "x", "0.5.5", "9" * 4400])
        return str(rand_rational(self.rng))

    def interval(self) -> str:
        if self.chance(0.05):
            return self.rng.choice(["1", "1,0", "0,0", "a,b", "0,1,2"])
        a, b = sorted(self.rng.sample(sorted(set(POOL)), 2))
        return f"{a},{b}"

    def mesh(self, coarse: bool = False) -> str:
        if self.chance(0.05):
            return self.rng.choice(["0", "-1/4", "q"])
        return self.rng.choice(MESHES[:5] if coarse else MESHES)

    def meshes(self, coarse: bool = False) -> str:
        rng = self.rng
        drawn = rng.sample(MESHES[:5] if coarse else MESHES, rng.randint(1, 3))
        drawn.sort(key=F, reverse=not self.chance(0.05))
        if self.chance(0.05):
            drawn.append(rng.choice(["0", drawn[-1]]))
        return ",".join(drawn)

    def series(self) -> str:
        rng = self.rng
        terms = [f"{rand_rational(rng)}*eps^{rng.choice(['-1', '0', '1/2', '1', '2'])}"
                 for _ in range(rng.randint(1, 3))]
        return " + ".join(terms) if self.chance(0.9) else rng.choice(["", "0", "1*eps^", "3 +"])

    def options(self, **drawn) -> list[str]:
        """--name=value for each (probability, draw) pair that comes up."""
        return [f"--{name}={draw()}" for name, (p, draw) in drawn.items()
                if self.chance(p)]

    def request(self) -> list[str]:
        rng = self.rng
        command = rng.choice(CLI_COMMANDS)
        positional, options = getattr(self, "r_" + command.replace("-", "_"))()
        common = self.options(precision=(0.2, lambda: rng.choice([12, 20])),
                              window=(0.1, lambda: rng.choice([8, 32])))
        if self.chance(0.5):
            common.append("--format=json")
        argv = [command, *options, *common]
        if positional is not None:
            argv += ["--", positional] if self.chance(0.5) else [positional]
        return argv

    def r_eval(self):
        at = lambda: f"x={self.rational()},y={self.rational()}"  # noqa: E731
        return self.expr("x", "y"), self.options(at=(0.8, at))

    def r_st(self):
        return self.series(), []

    r_classify = r_st

    def r_limit_seq(self):
        return self.expr("n"), self.options(method=(0.3, lambda: self.rng.choice(
            ["auto", "field", "numeric"])))

    def r_limit_fn(self):
        return self.expr("x"), self.options(at=(0.97, self.rational))

    def r_diff(self):
        order = lambda: self.rng.randint(-1 if self.chance(0.05) else 0, 5)  # noqa: E731
        return self.expr("x"), self.options(at=(0.97, self.rational), order=(0.7, order))

    r_jet = r_increment = r_diff

    def r_tangent(self):
        return None, self.options(curve=(0.97, lambda: self.exprs("t")),
                                  at=(0.97, self.rational))

    r_curvature = r_tangent

    def r_jacobian(self):
        at = lambda: ",".join(self.rational() for _ in range(self.rng.randint(1, 3)))  # noqa: E731
        return None, self.options(map=(0.97, lambda: self.exprs("x", "y")), at=(0.97, at))

    def r_kinematics(self):
        return self.expr("t"), self.options(at=(0.97, self.rational))

    def sum_options(self, kind: str, study: bool, poly: bool = False) -> list[str]:
        """The options of a partition sum: likely those of its kind, rarely
        others; polynomial integrands where the Simpson oracle integrates them
        (near a pole its 1000 halvings take minutes)."""
        rng = self.rng
        wanted = lambda *names: 0.85 if kind in names else 0.05  # noqa: E731
        one = (lambda var: rand_poly(rng, var)) if poly else self.expr
        return self.options(
            expr=(wanted("riemann"), lambda: one("x")),
            f=(wanted("area", "volume-rev", "surface-rev"), lambda: one("x")),
            g=(wanted("area"), lambda: one("x")),
            rho=(wanted("mass", "com", "moment") / 2, lambda: self.expr("x", "y")),
            integrand=(wanted("moment"), lambda: self.expr("x", "y")),
            region=(wanted("mass", "com", "moment"), lambda: rng.choice(REGIONS)),
            rect=(wanted("mass", "com", "moment", "riemann") / 4,
                  lambda: ";".join(self.interval() for _ in range(rng.randint(1, 2)))),
            curve=(wanted("length", "work"), lambda: self.exprs("t")),
            field=(wanted("work"), lambda: self.exprs("x", "y")),
            force=(wanted("impulse"), lambda: one("t")),
            on=(wanted("riemann", "area", "volume-rev", "surface-rev", "length", "work",
                       "impulse"), self.interval),
            meshes=(0.97 if study else 0.05, lambda: self.meshes(kind in REGION_KINDS)),
            tags=(0.4, lambda: rng.choice(TAG_RULES)),
            seed=(0.3, lambda: rng.randint(0, 9)),
        )

    def r_integrate(self):
        rng = self.rng
        method = rng.choice(["riemann", "darboux", "stieltjes", "gauge", "mcshane"])
        box = method in ("riemann", "darboux") and self.chance(0.2)
        rect = lambda: ";".join(self.interval() for _ in range(rng.randint(1, 2)))  # noqa: E731
        options = self.options(
            method=(0.9, lambda: method), on=(0.05 if box else 0.9, self.interval),
            rect=(0.9 if box else 0.02, rect), mesh=(0.7, self.mesh),
            tags=(0.4, lambda: rng.choice(TAG_RULES)), seed=(0.3, lambda: rng.randint(0, 9)),
            phi=(0.85 if method == "stieltjes" else 0.05, lambda: self.expr("x")),
            gauge=(0.85 if "a" in method[1:] else 0.05, lambda: rng.choice(GAUGES)),
            samples=(0.2, lambda: rng.randint(1, 5)))
        return self.expr("x", "y") if box else self.expr("x"), options

    def r_measure(self):
        rng = self.rng
        kind = rng.choice(["area", "volume-rev", "surface-rev", "length", "mass", "com",
                           "moment", "work", "impulse", "morley"])
        study = kind in ("area", "moment", "mass", "impulse") and self.chance(0.3)
        options = self.sum_options(kind, study)
        # the default mesh 1/64 is left to one-dimensional sums; a solid
        # region always gets a coarse one
        solid = "--region=x^2+y^2+z^2-1" in options
        options += self.options(
            mesh=(1 if solid else 0.97 if kind in REGION_KINDS else 0.6,
                  lambda: self.mesh(kind in REGION_KINDS)),
            oracle=(0.5 if study else 0.03, self.rational),
            radius=(0.5 if kind == "morley" else 0.03, self.rational),
            n=(0.7 if kind == "morley" else 0.03, lambda: rng.randint(-1, 50)),
            edge=(0.4, lambda: rng.choice(["outer", "inner"])))
        return kind, options

    def r_converge(self):
        rng = self.rng
        op = rng.choice(["riemann", "area", "length", "work", "moment", "impulse"])
        oracle = rng.choice([None, "simpson", self.rational()])
        options = self.sum_options(op, True, oracle in (None, "simpson")) + self.options(
            oracle=(oracle is not None, lambda: oracle),
            path=(0.3, lambda: rng.choice(["integral", "polygonal", "chord", "integrand"])))
        return op, options

    def r_probe_supernear(self):
        generator = lambda: rand_poly(self.rng, "x") if self.chance(0.6) else self.expr("x")  # noqa: E731
        return None, self.options(generator=(0.97, generator),
                                  target=(0.97, lambda: self.expr("x")),
                                  on=(0.97, self.interval), meshes=(0.97, self.meshes))



def cli_outcome(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("seed", SEEDS)
def test_cli_requests(seed):
    # every request ends in one of the three exits: a value on stdout, or
    # nothing on stdout and one named line on stderr; and it repeats exactly
    gen = RequestGen(random.Random(1500 + seed))
    for _ in range(150):
        argv = gen.request()
        code, out, err = outcome = cli_outcome(argv)
        assert code in (0, 1, 2), argv
        if code:
            assert out == "" and CLI_ERROR.fullmatch(err), (argv, err)
        else:
            assert err == "" and out.endswith("\n"), argv
            if "--format=json" in argv:
                json.loads(out)
        assert cli_outcome(argv) == outcome, argv
