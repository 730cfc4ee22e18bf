"""Small mathematical expression language: tokens, parser, dual evaluators.

Grammar (precedence low to high, ``^`` right-associative and binding tighter
than unary minus)::

    expr    := mul (('+' | '-') mul)*
    mul     := unary (('*' | '/') unary)*
    unary   := '-' unary | power
    power   := primary ['^' unary]
    primary := number | name | name '(' expr (',' expr)* ')' | '(' expr ')'

The parser refuses more than ``MAX_NESTING`` nested levels and trees more
than ``MAX_HEIGHT`` levels high, so every recursive walk below fits in
Python's default recursion limit.

Decimal literals become exact rationals (0.25 -> 1/4).  ``pi`` and ``e`` are
named constants resolved to rational approximations at evaluation time.
Expressions evaluate both over exact rationals (:func:`eval_real`) and over
the truncated series field (:func:`eval_hyper`); a rule-based symbolic
derivative for +,-,*,/ and integer powers serves as an independent oracle.

For the hot loops, :func:`compile_real` generates straight-line Python
that takes each variable as an integer numerator/denominator pair and returns
one unreduced pair: ``+ - *`` cross-multiply without a gcd, and denominators
stay positive (a division moves the divisor's sign up).  An integer power is
taken on the unreduced parts only while they cannot trip the 200 000-bit
exact-power guard (``approx.POWER_BITS``); otherwise ``approx.int_pow`` sees
the reduced value, so guarded powers come out as in :func:`eval_real`.
The one-argument calls other than ``root`` and ``abs`` call approx's
integer kernels on the unreduced pair, with no Fraction and no cache; their
grid values share the denominator 10^precision.  :func:`compile_rows` puts
the same statements in a loop over a row of points that share their
denominators, with the statements that do not read the row before the loop;
the partition sums call it once per row.  When those statements raise, or a
power of a row value needs ``int_pow``, the row kernel runs the row again
from its first point through compile_real's function, its one fallback.
Every MathError from compiled code carries the offset of the node that
raised it, exactly as from :func:`eval_real`, which stays the independent
tree-walking oracle.  All three functions come from one code-generator
walk.  For the measures that read slopes, ``_compile_tangent`` runs it in
tangent mode, which carries beside each value part the part of its first
derivative in the one variable, by the series field's rules; its value
statements are compile_real's.

That walk runs once per expression shape.  A light walk of each tree
(``_shape``) gives its key, which holds what the generator branches on
(node kinds, operators, calls, names, which literals are integers, the
signs of integer exponents, the precision and the mode), and its nodes in
pre-order.  A tree whose key is cached binds its own literals and offsets
to that shape's template and calls the template's compiled maker: no walk,
no source text.  The cache keeps the templates of the 1 024 shapes used
last (``_template.cache_info()``).
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass, field as dfield
from fractions import Fraction
from functools import lru_cache, partial
from typing import Callable, Iterable, Union

from . import approx
from .errors import DivisionByZero, DomainError, MathError, ParseError, UnsupportedNode
from .field import Field, HyperReal, apply_analytic, hr_exp, hr_ln, hr_pow
from .rationals import show_rational

# -- tokens ------------------------------------------------------------------------


@dataclass(frozen=True)
class Token:
    kind: str  # number | identifier | operator | paren | comma | end
    text: str
    pos: int


_OPERATORS = set("+-*/^")


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        start = i
        # decimal digits only: Fraction refuses other digits, such as '²'
        if ch.isdecimal() or (ch == "." and i + 1 < n and source[i + 1].isdecimal()):
            i += 1
            seen_dot = ch == "."
            while i < n and (source[i].isdecimal() or (source[i] == "." and not seen_dot)):
                seen_dot = seen_dot or source[i] == "."
                i += 1
            tokens.append(Token("number", source[start:i], start))
        elif ch.isalpha() or ch == "_":
            i += 1
            while i < n and (source[i].isalnum() or source[i] == "_"):
                i += 1
            tokens.append(Token("identifier", source[start:i], start))
        elif ch in _OPERATORS:
            tokens.append(Token("operator", ch, start))
            i += 1
        elif ch in "()":
            tokens.append(Token("paren", ch, start))
            i += 1
        elif ch == ",":
            tokens.append(Token("comma", ch, start))
            i += 1
        else:
            raise ParseError(start, "token", repr(ch))
    tokens.append(Token("end", "", n))
    return tokens


# -- AST ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Const:
    value: Fraction
    pos: int = dfield(default=-1, compare=False)


@dataclass(frozen=True)
class Var:
    name: str
    pos: int = dfield(default=-1, compare=False)


@dataclass(frozen=True)
class Unary:
    op: str  # only '-'
    operand: "Expr"
    pos: int = dfield(default=-1, compare=False)


@dataclass(frozen=True)
class Binary:
    op: str  # + - * / ^
    left: "Expr"
    right: "Expr"
    pos: int = dfield(default=-1, compare=False)


@dataclass(frozen=True)
class Call:
    fn: str
    args: tuple["Expr", ...]
    pos: int = dfield(default=-1, compare=False)


Expr = Union[Const, Var, Unary, Binary, Call]

FUNCTIONS = {
    "sin": 1,
    "cos": 1,
    "tan": 1,
    "exp": 1,
    "ln": 1,
    "sqrt": 1,
    "root": 2,
    "abs": 1,
}

CONSTANTS = ("pi", "e")

# Recursion bounds, refused by the parser.  The parser takes up to 7 Python
# frames per nesting level (a parenthesis, call, minus sign or ``^``); every
# tree walk (``render``, ``free_vars``, ``eval_real``, ``eval_hyper``,
# ``compile_real``, ``symbolic_derivative``) takes one per level of the tree.
# At these bounds the deepest request (``measure length``, which walks a
# curve component under its jets) leaves room for 174 caller frames on
# Python 3.10-3.13, against 34 under pytest (49 in a Hypothesis test); the
# parser leaves room for 289.
MAX_NESTING = 100
MAX_HEIGHT = 800


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0
        self.nesting = 0  # levels open at the current token
        self.height = 0  # of the tree last parsed

    def enter(self, t: Token) -> None:
        """Open a nesting level at t."""
        self.nesting += 1
        if self.nesting > MAX_NESTING:
            raise ParseError(t.pos, f"at most {MAX_NESTING} nested levels", t.text)

    def node(self, node: Expr, height: int, t: Token) -> Expr:
        """node, of the given height, built at t."""
        if height > MAX_HEIGHT:
            raise ParseError(t.pos, f"at most {MAX_HEIGHT} levels of operations", t.text)
        self.height = height
        return node

    def peek(self) -> Token:
        return self.tokens[self.i]

    def next(self) -> Token:
        t = self.tokens[self.i]
        self.i += 1
        return t

    def expect(self, kind: str, text: str | None = None) -> Token:
        t = self.peek()
        if t.kind != kind or (text is not None and t.text != text):
            raise ParseError(t.pos, text or kind, t.text or "end of input")
        return self.next()

    def fold(self, ops: str, operand: Callable[[], Expr]) -> Expr:
        """operand ((op in ops) operand)*, folded to the left."""
        node = operand()
        while self.peek().kind == "operator" and self.peek().text in ops:
            op = self.next()
            height = self.height
            right = operand()
            node = self.node(Binary(op.text, node, right, op.pos), max(height, self.height) + 1, op)
        return node

    def parse_expr(self) -> Expr:
        return self.fold("+-", self.parse_mul)

    def parse_mul(self) -> Expr:
        return self.fold("*/", self.parse_unary)

    def parse_unary(self) -> Expr:
        t = self.peek()
        if t.kind == "operator" and t.text == "-":
            self.next()
            self.enter(t)
            operand = self.parse_unary()
            self.nesting -= 1
            if isinstance(operand, Const):  # fold so "-3" round-trips structurally
                return Const(-operand.value, t.pos)
            return self.node(Unary("-", operand, t.pos), self.height + 1, t)
        return self.parse_power()

    def parse_power(self) -> Expr:
        base = self.parse_primary()
        t = self.peek()
        if t.kind == "operator" and t.text == "^":
            self.next()
            self.enter(t)
            height = self.height
            exponent = self.parse_unary()
            self.nesting -= 1
            return self.node(Binary("^", base, exponent, t.pos), max(height, self.height) + 1, t)
        return base

    def parse_primary(self) -> Expr:
        t = self.peek()
        if t.kind == "number":
            self.next()
            self.height = 1
            try:
                return Const(Fraction(t.text), t.pos)
            except ValueError:  # past Python's int-to-str digit limit
                limit = sys.get_int_max_str_digits()
                raise ParseError(t.pos, f"number of at most {limit} digits",
                                 f"{len(t.text)} characters") from None
        if t.kind == "identifier":
            self.next()
            if self.peek().kind == "paren" and self.peek().text == "(":
                if t.text not in FUNCTIONS:
                    raise ParseError(t.pos, "function name", t.text)
                self.next()
                self.enter(t)
                args = [self.parse_expr()]
                height = self.height
                while self.peek().kind == "comma":
                    self.next()
                    args.append(self.parse_expr())
                    height = max(height, self.height)
                self.expect("paren", ")")
                self.nesting -= 1
                if len(args) != FUNCTIONS[t.text]:
                    raise ParseError(
                        t.pos, f"{FUNCTIONS[t.text]} argument(s) to {t.text}", f"{len(args)}"
                    )
                return self.node(Call(t.text, tuple(args), t.pos), height + 1, t)
            self.height = 1
            return Var(t.text, t.pos)
        if t.kind == "paren" and t.text == "(":
            self.next()
            self.enter(t)
            node = self.parse_expr()
            self.expect("paren", ")")
            self.nesting -= 1
            return node
        raise ParseError(t.pos, "expression", t.text or "end of input")


def parse(source: str) -> Expr:
    parser = _Parser(tokenize(source))
    node = parser.parse_expr()
    end = parser.peek()
    if end.kind != "end":
        raise ParseError(end.pos, "end of input", end.text)
    return node


# -- rendering -----------------------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "u-": 3, "^": 4}


def _prec(e: Expr) -> int:
    if isinstance(e, Binary):
        return _PREC[e.op]
    if isinstance(e, Unary):
        return _PREC["u-"]
    return 5


def _render_const(value: Fraction) -> str:
    if value < 0:
        return f"(-{_render_const(-value)})"
    den = value.denominator
    if den == 1:
        return str(value.numerator)
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den == 1:  # exact decimal exists
        digits = max(twos, fives)
        scaled = value.numerator * 10**digits // value.denominator
        text = str(scaled).rjust(digits + 1, "0")
        return f"{text[:-digits]}.{text[-digits:]}"
    return f"({value.numerator}/{value.denominator})"


def render(e: Expr) -> str:
    """Minimal-parenthesis text that reparses to a structurally equal AST."""
    if isinstance(e, Const):
        return _render_const(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Unary):
        inner = render(e.operand)
        if _prec(e.operand) < _PREC["u-"]:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(e, Call):
        return f"{e.fn}({', '.join(render(a) for a in e.args)})"
    op = e.op
    left, right = render(e.left), render(e.right)
    if op == "^":  # right-associative
        if _prec(e.left) <= _PREC["^"]:
            left = f"({left})"
        if _prec(e.right) < _PREC["^"]:
            right = f"({right})"
        return f"{left}^{right}"
    if _prec(e.left) < _PREC[op]:
        left = f"({left})"
    if _prec(e.right) <= _PREC[op]:
        right = f"({right})"
    pad = " " if op in "+-" else ""
    return f"{left}{pad}{op}{pad}{right}"


def free_vars(e: Expr) -> set[str]:
    if isinstance(e, Var):
        return {e.name} if e.name not in CONSTANTS else set()
    if isinstance(e, Unary):
        return free_vars(e.operand)
    if isinstance(e, Binary):
        return free_vars(e.left) | free_vars(e.right)
    if isinstance(e, Call):
        out: set[str] = set()
        for a in e.args:
            out |= free_vars(a)
        return out
    return set()


def int_exponent(e: Binary) -> int | None:
    """The exponent of a ``^`` node when it is an integer literal, else None.
    Every evaluator takes such a power exactly (``int_pow``, ``**``), and the
    symbolic rules treat it as a polynomial power; any other is a real power."""
    r = e.right
    return int(r.value) if isinstance(r, Const) and r.value.denominator == 1 else None


def _exact(e: Expr, env: dict) -> bool:
    """Whether e is computed without rounding: no call, named constant or real power."""
    if isinstance(e, Unary):
        return _exact(e.operand, env)
    if isinstance(e, Binary):
        whole = e.op != "^" or int_exponent(e) is not None
        return whole and _exact(e.left, env) and _exact(e.right, env)
    return isinstance(e, Const) or (isinstance(e, Var) and e.name in env)


# -- evaluation over exact rationals ---------------------------------------------------


def _require_root_index(value: Fraction, pos: int) -> int:
    if value.denominator != 1 or value < 2:
        raise DomainError(f"root index must be an integer >= 2, got {show_rational(value)}", pos)
    return int(value)


def _named_constant(name: str, precision: int, pos: int) -> Fraction:
    """``pi`` or ``e`` to 10^-precision; any other name is an unbound variable."""
    if name == "pi":
        return approx.pi_approx(precision)
    if name == "e":
        return approx.exp_approx(Fraction(1), precision)
    raise DomainError(f"unbound variable {name!r}", pos)


def _real_root(n: int, v: Fraction, digits: int) -> Fraction:
    """The real n-th root of v to 10^-digits: 0 at 0, refused below."""
    if v <= 0:
        if v == 0:
            return Fraction(0)
        raise DomainError(f"root of negative value {show_rational(v)}")
    return approx.nth_root_approx(v, n, digits)


def _at(ex: MathError, pos: int) -> MathError:
    """ex located at pos, the offset of the node whose rule raised it, or ex
    itself when an inner node has located it already."""
    return ex if ex.pos is not None else type(ex)(str(ex), pos)


# the four arithmetic operators, in both tree walks; eval_real refuses a zero
# divisor before the table sees it
_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}

# the one-argument calls over the rationals, read by eval_real; dict values,
# so a wrapper installed here reaches eval_real only: compiled code calls the
# integer kernels of ``_KERNELS`` directly
_REAL_CALLS = {
    "sqrt": approx.sqrt_approx,
    "sin": approx.sin_approx,
    "cos": approx.cos_approx,
    "tan": approx.tan_approx,
    "exp": approx.exp_approx,
    "ln": approx.ln_approx,
}

# the same calls in compiled code, as integer kernels of a (numerator,
# denominator) pair: a grid numerator over 10^precision, or for sqrt a pair
_KERNELS = {
    "sqrt": approx.sqrt_pair,
    "sin": approx.sin_grid,
    "cos": approx.cos_grid,
    "tan": approx.tan_grid,
    "exp": approx.exp_grid,
    "ln": approx.ln_grid,
    "sin_cos": approx.sin_cos_grid,  # both halves, for the tangent code
}


def eval_real(e: Expr, env: dict[str, Fraction], precision: int = 40) -> Fraction:
    """Exact rational evaluation; transcendental calls approximated to 10^-precision."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        if e.name in env:
            return Fraction(env[e.name])
        return _named_constant(e.name, precision, e.pos)
    if isinstance(e, Unary):
        return -eval_real(e.operand, env, precision)
    if isinstance(e, Binary):
        a = eval_real(e.left, env, precision)
        if e.op == "^":
            k = int_exponent(e)
            try:  # an error of the exponent's own nodes is located already
                if k is not None:
                    return approx.int_pow(a, k, precision)
                return approx.pow_approx(a, eval_real(e.right, env, precision), precision)
            except MathError as ex:
                raise _at(ex, e.pos) from None
        b = eval_real(e.right, env, precision)
        if e.op == "/" and b == 0:
            raise DivisionByZero("division by zero", e.pos)
        return _ARITH[e.op](a, b)
    # Call
    args = e.args
    try:
        if e.fn == "abs":
            return abs(eval_real(args[0], env, precision))
        if e.fn == "root":
            n = _require_root_index(eval_real(args[0], env, precision), args[0].pos)
            return _real_root(n, eval_real(args[1], env, precision), precision)
        return _REAL_CALLS[e.fn](eval_real(args[0], env, precision), precision)
    except MathError as ex:
        raise _at(ex, e.pos) from None


# -- evaluation over the series field ---------------------------------------------------


class EvalTrace:
    """Side observations from a series evaluation.

    ``abs_nonsmooth``: an ``abs`` argument was a nonzero infinitesimal.

    ``dilatable``: with ``dilation=(q, reach)`` given to the walk of a point
    c + h, h = a*eps^q, whose values all lie on the lattice qZ, the walk's
    value v gives the walk at c + j*h as ``v._dilated(j, q)`` for every
    integer 0 < |j| <= reach.  The map keeps every exponent, so only a rule
    that reads a leading coefficient at a nonzero exponent lambda can tell
    the two apart, and the walk clears the flag at each of them, applied to
    a base with lambda != 0: a rounded head (``sqrt``, ``root``, a ``^``
    whose exponent is not an integer literal); an integer power k whose
    exact-power guard could trip at the largest dilation, where the leading
    coefficient a has grown to at most bits(a) + |lambda/q|*bits(reach)
    bits; and ``abs``, whose sign a negative j turns.  Without a dilation
    the flag stays False."""

    __slots__ = ("abs_nonsmooth", "dilatable")

    def __init__(self):
        self.abs_nonsmooth = False
        self.dilatable = False


def eval_hyper_traced(
    e: Expr,
    env: dict[str, HyperReal],
    cfg: Field,
    dilation: tuple[Fraction | int, int] | None = None,
) -> tuple[HyperReal, EvalTrace]:
    trace = EvalTrace()
    if dilation is not None:
        step, reach_bits = Fraction(dilation[0]), dilation[1].bit_length()
        trace.dilatable = True

    def keep(base: HyperReal, k: int | None = None) -> None:
        """Clear ``trace.dilatable`` where the rule applied to base, an
        integer power k or (k None) a rounded head or abs, could tell the
        dilated base's result from the dilated result."""
        lam = base.leading_exponent() if trace.dilatable else 0
        if not lam:
            return
        if k is not None:
            a = base.coefficient(lam)
            bits = a.numerator.bit_length() + a.denominator.bit_length()
            if abs(k) * (bits + abs(lam / step) * reach_bits + 1) <= approx.POWER_BITS:
                return
        trace.dilatable = False

    def series(node: Expr) -> HyperReal:
        v = go(node)
        return v if isinstance(v, HyperReal) else cfg.rational(v)

    def go(node: Expr) -> HyperReal | Fraction:
        if isinstance(node, Const):
            return node.value
        if isinstance(node, Var):
            if node.name in env:
                return env[node.name]
            return _named_constant(node.name, cfg.precision, node.pos)
        if isinstance(node, Unary):
            return -go(node.operand)
        if isinstance(node, Binary):
            try:
                if node.op == "^":
                    base = series(node.left)
                    k = int_exponent(node)
                    keep(base, k)
                    if k is not None:
                        return base**k
                    r = series(node.right)
                    standard = not r.saturated and all(ex == 0 for ex in r.exponents())
                    lam = base.leading_exponent() or 0  # a rounded r would move lam*r
                    if standard and (lam == 0 or _exact(node.right, env)):
                        return hr_pow(base, r.coefficient(0))
                    return hr_exp(hr_ln(base) * r)
                a, b = go(node.left), go(node.right)
                if not isinstance(a, HyperReal) and not isinstance(b, HyperReal):
                    a, b = cfg.rational(a), cfg.rational(b)
                return _ARITH[node.op](a, b)
            except MathError as ex:
                raise _at(ex, node.pos) from None
        try:
            if node.fn == "abs":
                v = series(node.args[0])
                if not v.is_zero and v.coefficient(0) == 0 and v.is_limited:
                    trace.abs_nonsmooth = True
                keep(v)
                return abs(v)
            if node.fn == "sqrt":
                v = series(node.args[0])
                keep(v)
                return v.nth_root(2)
            if node.fn == "root":
                idx = series(node.args[0])
                if idx.exponents() != (0,):
                    raise DomainError("root index must be a standard integer >= 2", node.args[0].pos)
                n = _require_root_index(idx.coefficient(0), node.args[0].pos)
                v = series(node.args[1])
                keep(v)
                return v.nth_root(n)
            return apply_analytic(node.fn, series(node.args[0]))
        except MathError as ex:
            raise _at(ex, node.pos) from None

    return series(e), trace


def eval_hyper(e: Expr, env: dict[str, HyperReal], cfg: Field) -> HyperReal:
    """Series evaluation.  ``^`` takes an integer literal exponent exactly, a
    certified standard one r by ``hr_pow`` where the base leads at eps^0 or r
    is computed without rounding (a rounded r would move the order lam*r of
    a base a*eps^lam), any other as exp(r ln x).  At a
    rational point the standard part equals ``eval_real`` there (constants
    come from the same ``approx`` kernels), or both refuse at the same
    offset.  A literal, ``pi`` or ``e`` stays a ``Fraction``, a plain operand
    of the series arithmetic; ``cfg.rational`` lifts it only as the base or
    exponent of ``^``, as a call argument, where both operands of ``+ - * /``
    are rational (constant subtrees keep the series rules and error texts),
    and as the result."""
    value, _ = eval_hyper_traced(e, env, cfg)
    return value


# -- symbolic derivative oracle ----------------------------------------------------------


def _const(v) -> Const:
    return Const(Fraction(v))


def _mul(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const):
        if a.value == 0:
            return _const(0)
        if a.value == 1:
            return b
    if isinstance(b, Const):
        if b.value == 0:
            return _const(0)
        if b.value == 1:
            return a
        if isinstance(a, Const):
            return _const(a.value * b.value)
    return Binary("*", a, b)


def _add(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and a.value == 0:
        return b
    if isinstance(b, Const) and b.value == 0:
        return a
    return Binary("+", a, b)


def _sub(a: Expr, b: Expr) -> Expr:
    if isinstance(b, Const) and b.value == 0:
        return a
    return Binary("-", a, b)


def symbolic_derivative(e: Expr, var: str) -> Expr:
    """Rule-based derivative for +,-,*,/ and integer powers only.

    Cross-checks the series-extracted derivatives on the polynomial corpus;
    transcendental calls raise UnsupportedNode.
    """
    if isinstance(e, Const):
        return _const(0)
    if isinstance(e, Var):
        if e.name == var:
            return _const(1)
        return _const(0)
    if isinstance(e, Unary):
        return Unary("-", symbolic_derivative(e.operand, var))
    if isinstance(e, Binary) and e.op != "^":
        dl, dr = symbolic_derivative(e.left, var), symbolic_derivative(e.right, var)
        if e.op == "+":
            return _add(dl, dr)
        if e.op == "-":
            return _sub(dl, dr)
        terms = (_mul(dl, e.right), _mul(e.left, dr))  # f'g, fg': product and quotient rules
        if e.op == "*":
            return _add(*terms)
        return Binary("/", _sub(*terms), Binary("^", e.right, _const(2)))
    if isinstance(e, Binary):
        n = int_exponent(e)
        if n is None:
            raise UnsupportedNode("derivative rule for ^ with non-integer exponent", e.pos)
        if n == 0:
            return _const(0)
        return _mul(
            _mul(_const(n), Binary("^", e.left, _const(n - 1))), symbolic_derivative(e.left, var)
        )
    raise UnsupportedNode(f"derivative rule for call {e.fn!r}", e.pos)


# -- compiled evaluation (hot loops) -------------------------------------------------------


def compile_real(
    e: Expr, names: tuple[str, ...], precision: int = 40
) -> Callable[..., tuple[int, int]]:
    """Compile to a function of integer pairs with eval_real's values and errors.

    The i-th variable ``names[i]`` is passed as two ints, a numerator and a
    positive denominator that need not be reduced (``f(n0, d0, n1, d1,
    ...)``), and the function returns its unreduced ``(numerator,
    denominator)``, the denominator positive.  The generated code is
    straight-line arithmetic on Python ints: ``+ - *`` cross-multiply without
    taking a gcd (a denominator known to be 1 is left out when the code is
    generated), and ``/`` raises on a zero divisor and moves the divisor's
    sign into the numerator, so every denominator stays positive.  An integer
    power n raises both parts while the unreduced operand has at most
    ``POWER_BITS // |n|`` bits; past that it calls ``approx.int_pow`` on the
    reduced value, whose own size guard then decides as in eval_real, so
    common factors can only send a power the slower way.  ``sin``, ``cos``,
    ``tan``, ``exp``, ``ln`` and ``sqrt`` call approx's integer kernels on
    the unreduced pair, uncached: the first five give a numerator over the
    closure constant 10^precision, sqrt a pair.  ``root`` and real powers
    take ``Fraction`` operands.  Values and errors are those of eval_real at
    n_i / d_i.

    A MathError carries the offset of the node that raised it, as in
    eval_real; an unbound variable is refused here, at compile time.

    Constants, offsets and the precision enter the code as closure
    variables, so expressions of one shape share one compiled code object,
    and the code generator walks one tree per shape: another tree of that
    shape only binds its own constants to the shape's cached template.

    This is the point entry: one call per point.  The partition sums of
    ``hrw.integration`` take whole rows of points through
    :func:`compile_rows`; the callers that work point by point keep this
    one: the gauge of a gauge partition, the radius of the volume and
    surface of revolution, the curves and fields of curve length and line
    work, the supernearness probe and the Simpson oracle.  Surface of
    revolution, curve length and line work take each point's value and
    slope from ``_compile_tangent``'s function, and this one where that
    raises.
    """
    return _compile_point(e, names, precision)


def _compile_point(
    e: Expr, names: tuple[str, ...], precision: int, tangent: bool = False
) -> Callable:
    """compile_real's function, or with ``tangent`` (one name) the tangent
    code's.  Row kernels build their ``_point`` here, so that a wrapper of
    the public name sees its callers only."""
    template, consts = _bound(e, names, precision, "tangent" if tangent else "point")
    return template.maker(None)(*consts)


def _compile_tangent(e: Expr, name: str, precision: int) -> Callable[[int, int], tuple]:
    """The tangent code of e in the variable ``name``: a function of that
    variable's (numerator, positive denominator) pair returning
    ``((n, d), (dn, dd))``, e's value pair from compile_real's statements
    and the pair of its derivative, the eps^1 coefficient of e(x + eps)
    that ``taylor_jet`` reads from the series field.  It is compile_real's
    walk in tangent mode, which carries beside each value the derivative of
    that value (Wengert's forward mode), so the value part is compile_real's
    by construction.

    Each rule follows the field's own rounding, so the rationals are the
    jet's: d sin u = cos~(u) u' and d cos u = -sin~(u) u', both from the one
    ``sin_cos_grid`` call that gives the value; d exp u = exp~(u) u';
    d ln u = u'/u; d sqrt u = sqrt~(u) u' / (2u); d tan u = (1 + tan~(u)^2)
    u'; d |u| = sign(u) u'; and the exact sum, product, quotient and integer
    power rules.  The function raises a MathError wherever compile_real's
    does, and where the field's rule differs from these: abs or sqrt of
    0, a power of 0 (``_dpow``), a power past the exact-power guard.  The
    caller then evaluates that point the field's way.  An expression with a
    real power or a root has no tangent code; its function raises at every
    point.
    """
    try:
        return _compile_point(e, (name,), precision, tangent=True)
    except _Decline:
        return _no_tangent


def _no_tangent(n: int, d: int):
    raise _NoTangent()


def compile_rows(
    e: Expr, names: tuple[str, ...], precision: int = 40, loop: int = 1
) -> "RowKernel":
    """Compile to a row kernel: e at every point of a row, with the values
    and the first error of :func:`compile_real`'s function called point by
    point, in row order.

    The last ``loop`` variables run over the row; the others are fixed.
    Each entry point of the kernel takes every fixed variable as a
    (numerator, positive denominator) pair, then the one denominator shared
    by each row variable, then ``row``, the non-empty list of the row
    variables' numerators (ints when ``loop`` is 1, else tuples):
    ``k.values(n0, d0, ..., dj, ..., row)`` returns the list of unreduced
    (numerator, denominator) pairs, and ``k.sum(..., row, weights=None)``
    the unreduced pair of sum_j value_j * weights[j] for integer weights,
    each weight 1 when weights is None.

    The loop runs inside generated code, one function per entry point, made
    on its first use.  Statements that do not read a row numerator run once,
    before the loop.  When the result's denominator is then row-invariant
    (no division by a row-dependent value, no call, and every power of a
    row value takes the exact path), a sum adds the numerators into one
    int; otherwise it adds them per distinct denominator, as ``pair_sum``
    does.  When the statements run before the loop raise, or a power of a
    row value needs the ``int_pow`` fallback, the row is evaluated again
    from its first point, point by point, by compile_real's function of e,
    so that the first error is the one of the point loop.  An error raised
    inside the loop is that first error already, and propagates as it is.
    That fallback is the one use of the kernel's ``_point``; a caller that
    wants single points calls :func:`compile_real`.
    """
    template, consts = _bound(e, names, precision, "rows", loop)
    return RowKernel(e, template, consts)


class RowKernel:
    """An expression compiled for rows (see :func:`compile_rows`): its
    shape's template, whose ``sum`` and ``values`` makers bind the
    expression's constants on first use, and ``_point``, compile_real's
    function of the same expression, made on its first use.  ``_point``
    takes every variable's pair; only the entry points' fallback calls it,
    on each point of the row."""

    def __init__(self, e: Expr, template: "_Template", consts: list):
        self._e, self._template, self._consts = e, template, consts

    def __getattr__(self, mode: str):
        template = self._template
        if mode == "_point":
            self._point = _compile_point(self._e, template.names, template.precision)
            return self._point
        if mode not in ("sum", "values"):
            raise AttributeError(mode)
        fn = template.maker(mode)(*self._consts, partial(self._point_by_point, mode))
        setattr(self, mode, fn)
        return fn

    def _point_by_point(self, mode: str, *args):
        """An entry point's result for its arguments, from ``_point`` called
        at each point of the row, in order."""
        first = self._template.first
        *head, row, weights = args if mode == "sum" else (*args, None)
        fixed, dens = head[:2 * first], head[2 * first:]
        if len(dens) == 1:
            values = [self._point(*fixed, n, dens[0]) for n in row]
        else:
            values = [self._point(*fixed, *(v for pair in zip(nums, dens) for v in pair))
                      for nums in row]
        return values if mode == "values" else pair_sum(values, weights)


@lru_cache(maxsize=None)
def _row_params(count: int, loop: int) -> tuple[str, str, str]:
    """A row function's leading parameters (the fixed variables' pairs and
    the row variables' denominators), its loop target, and the target in
    parentheses when it is a tuple."""
    first = count - loop
    params = ", ".join([*(f"n{i}, d{i}" for i in range(first)),
                        *(f"d{i}" for i in range(first, count))])
    var = ", ".join(f"Vn{i}" for i in range(first, count))
    return params, var, f"({var})" if loop > 1 else var


def _indent(code: str, depth: int) -> str:
    """Lines of code, each indented by depth levels and ended by a newline."""
    pad = "    " * depth
    return pad + code.replace("\n", "\n" + pad) + "\n" if code else ""


class _Slow(Exception):
    """A power of a row value needs the int_pow fallback: the row kernel
    evaluates the row again point by point, from its first point."""


def _sum_of(sums: dict[int, int]) -> tuple[int, int]:
    """Numerators keyed by their positive denominators, added over the lcm
    of the denominators: an unreduced pair."""
    den = math.lcm(*sums)
    return sum(n * (den // d) for d, n in sums.items()), den


def pair_sum(
    values: Iterable[tuple[int, int]], weights: Iterable[int] | None = None
) -> tuple[int, int]:
    """The sum of (numerator, positive denominator) pairs, each numerator
    times its weight if weights are given, as an unreduced pair: numerators
    are added per distinct denominator, then over the lcm of those."""
    sums: dict[int, int] = {}
    if weights is None:
        for n, d in values:
            sums[d] = sums.get(d, 0) + n
    else:
        for (n, d), w in zip(values, weights):
            sums[d] = sums.get(d, 0) + n * w
    return _sum_of(sums)


Part = tuple[str, Union[str, None]]  # code for (numerator, denominator); None means 1
Where = tuple[Expr, int]  # a node and its place in the walk's pre-order

# what a closure constant reads from its node (``_Codegen.read``): a
# literal's parts, |k| and the power guard's bit limit for an integer
# exponent k, the parts of a divisor's reciprocal (its sign goes to the
# numerator), an offset
_num = operator.attrgetter("value.numerator")
_den = operator.attrgetter("value.denominator")
_pos = operator.attrgetter("pos")


def _abs_num(c: Const) -> int:
    return abs(c.value.numerator)


def _signed_den(c: Const) -> int:
    v = c.value
    return v.denominator if v.numerator > 0 else -v.denominator


def _power_limit(c: Const) -> int:
    return approx.POWER_BITS // abs(c.value.numerator)


class _Codegen:
    """Statements and (numerator, denominator) code for one expression, by
    one walk of its tree (``part``), for compile_real, compile_rows and the
    tangent code: the template of the tree's shape.  A closure constant
    that depends on more than the shape key is made by ``read``, which
    records the node it comes from, by the node's place in the walk's
    pre-order, and the projection (a literal's part, an exponent's |k|,
    an offset, ...) that gives it, so that other trees of the shape bind
    theirs.

    Built with ``tangent`` (one variable, no row), the walk carries beside
    each node's value part the part of its derivative in that variable, by
    the rules of :func:`_compile_tangent`; otherwise every derivative is
    None, and no statement or constant is made for one.

    Part code is pure int arithmetic on names and closure constants, so it
    may be evaluated later than it is generated; whatever can raise becomes
    a statement in evaluation order.  A statement of one or more lines is
    kept once, in order: in ``hoisted`` if it does not read the row and in
    ``body`` if it does, so with ``loop`` 0 ``hoisted`` holds them all.  The
    numerators of the last ``loop`` variables are the row variables
    ``Vn<i>``, temporaries computed from them are ``V<k>``, and no other
    code holds a ``V``: a statement reads the row exactly when it contains
    one.  A positive power of a row value over a row-invariant denominator
    hoists its denominator and raises ``_Slow`` in the loop where
    compile_real's function would call int_pow.
    """

    def __init__(self, names: tuple[str, ...], precision: int, loop: int = 0,
                 tangent: bool = False):
        self.names, self.tangent = names, tangent
        first = len(names) - loop
        self.vars = [(f"Vn{i}" if i >= first else f"n{i}", f"d{i}") for i in range(len(names))]
        self.first, self.loop = first, loop
        self.hoisted: list[str] = []
        self.body: list[str] = []
        self.consts: list = []
        # (constant, node, projection): the constants read from a node, the
        # node given by its place in the walk's pre-order (see ``_shape``)
        self.reads: list[tuple[int, int, Callable]] = []
        self.nodes = 0  # nodes met so far: the next node's place
        self.temps = 0
        self.precision = precision
        self.digits = self.const(precision)  # its name in the code
        self.unit: str | None = None  # the name of 10^precision, once a call needs it

    def const(self, value) -> str:
        self.consts.append(value)
        return f"c{len(self.consts) - 1}"

    def read(self, where: Where, proj: Callable) -> str:
        """The constant proj(node) of where's node: another tree of the shape
        binds its own node's."""
        node, at = where
        self.reads.append((len(self.consts), at, proj))
        return self.const(proj(node))

    def const_part(self, value: Fraction) -> Part:
        den = self.const(value.denominator) if value.denominator != 1 else None
        return self.const(value.numerator), den

    def read_part(self, where: Where, num: Callable, den: Callable) -> Part:
        """const_part of the fraction whose parts where's node gives by num and den."""
        den = self.read(where, den) if den(where[0]) != 1 else None
        return self.read(where, num), den

    def place(self, node: Expr) -> Where:
        """node and the next place in the walk's pre-order.  Every node
        walked takes one, and so does every folded exponent, divisor or root
        index, which is read but not walked."""
        self.nodes += 1
        return node, self.nodes - 1

    def temp(self, varying: bool) -> str:
        self.temps += 1
        return f"{'V' if varying else 't'}{self.temps - 1}"

    def line(self, text: str) -> None:
        """A statement: in body if it reads the row, else in hoisted."""
        (self.body if "V" in text else self.hoisted).append(text)

    def atom(self, text: str | None) -> str | None:
        """The text itself if it is a name (or None), else a new temporary."""
        if text is None or text.isidentifier():
            return text
        name = self.temp("V" in text)
        self.line(f"{name} = {text}")
        return name

    def fixed(self, text: str) -> str:
        """An operand of row-dependent code: a temporary, computed before
        the loop, if it is row-invariant and not a name."""
        return text if "V" in text or text.isidentifier() else self.atom(text)

    def times(self, a: str | None, b: str | None) -> str | None:
        """Product code; a factor that is None (1) is left out."""
        if a is None or b is None:
            return b if a is None else a
        if self.loop and "V" in a + b:
            a, b = self.fixed(a), self.fixed(b)
        return f"({a} * {b})"

    def shallow(self, text: str | None) -> str | None:
        """Bound the nesting of generated expressions (Python's parser
        refuses 200 levels): deep code goes to a temporary."""
        return self.atom(text) if text and text.count("(") > 40 else text

    def call(self, where: Where, head: str) -> Part:
        """Finish a helper call with the node's offset; the helper's
        (numerator, denominator) result goes to two temporaries."""
        n, d = self.temp("V" in head), self.temp("V" in head)
        self.line(f"{n}, {d} = {head}, {self.read(where, _pos)})")
        return n, d

    def part(self, node: Expr) -> tuple[Part, Part | None]:
        """node's value part and the part of its derivative in the variable,
        None where that is 0, so always None but in tangent mode.  In tangent
        mode a real power or a root raises _Decline."""
        where = self.place(node)
        if isinstance(node, Const):
            return self.read_part(where, _num, _den), None
        if isinstance(node, Var):
            if node.name in self.names:
                return self.vars[self.names.index(node.name)], _ONE if self.tangent else None
            return self.const_part(_named_constant(node.name, self.precision, node.pos)), None
        if isinstance(node, Unary):
            (n, d), du = self.part(node.operand)
            return (self.shallow(f"(-{n})"), d), du and self.shallow_part(self.negated(du))
        if isinstance(node, Binary):
            # both operands are generated here, so a level takes one frame; an
            # integer exponent or a nonzero constant divisor is folded instead
            (left, dl), r = self.part(node.left), node.right
            if node.op == "^":
                if int_exponent(node) is not None:
                    return self.power(where, self.place(r), left, dl)
                if self.tangent:
                    raise _Decline
                args = f"{_fraction(left)}, {_fraction(self.part(r)[0])}, {self.digits}"
                return self.call(where, f"_approx(_A.pow_approx, {args}"), None
            if node.op == "/" and isinstance(r, Const) and r.value != 0:
                # the sign is in the reciprocal's numerator
                factor = self.read_part(self.place(r), _signed_den, _abs_num)
                value, deriv = self.product(left, factor), self.dmul(factor, dl)
            else:
                right, dr = self.part(r)
                if node.op in "+-":
                    value, deriv = self.sum_part(node.op, left, right), self.dsum(node.op, dl, dr)
                else:  # the product and quotient rules
                    if dl or dr:  # the operands are read again
                        left, right = self.atoms(left), self.atoms(right)
                    if node.op == "*":
                        value = self.product(left, right)
                    else:
                        value = self.quotient(where, left, right)
                    deriv = self.dsum("+" if node.op == "*" else "-",
                                      self.dmul(right, dl), self.dmul(left, dr))
                    if deriv and node.op == "/":  # (a'b - ab') / b^2, b^2 > 0
                        bn, bd = right
                        deriv = self.product(deriv, (self.times(bd, bd), self.times(bn, bn)))
            return self.shallow_part(value), deriv and self.shallow_part(deriv)
        if node.fn == "root":
            if self.tangent:
                raise _Decline
            index = node.args[0]
            if isinstance(index, Const) and index.value.denominator == 1 and index.value >= 2:
                k = self.read(self.place(index), _num)
            else:
                placed = index, self.nodes  # the place its walk takes
                arg = _fraction(self.part(index)[0])
                k = self.temp("V" in arg)
                self.line(f"{k} = _index({arg}, {self.read(placed, _pos)})")
            radicand = _fraction(self.part(node.args[1])[0])
            return self.call(where, f"_approx(_real_root, {k}, {radicand}, {self.digits}"), None
        value, deriv = self.function(where, *self.part(node.args[0]))
        return value, deriv and self.shallow_part(deriv)

    def function(self, where: Where, arg: Part, du: Part | None) -> tuple[Part, Part | None]:
        """A one-argument call, where's node, on arg, whose derivative is du,
        and its derivative.  Each rule follows the series field's rounding
        (see :func:`_compile_tangent`)."""
        node = where[0]
        arg = self.atoms(arg) if du else arg  # read again by the derivative
        n, d = arg
        if node.fn == "abs":
            if du:  # |u| has no derivative where u = 0; u' is read twice
                self.line(f"if {n} == 0: raise _NT()")
                du = du if du is _ONE else (self.atom(du[0]), du[1])
            return (f"abs({n})", d), du and (f"({du[0]} if {n} > 0 else -{du[0]})", du[1])
        if node.fn == "sqrt":
            root = self.kernel("sqrt", where, arg, 2)
            if du:  # sqrt~(u) u' / (2u), the series' rule, refused at u = 0
                self.line(f"if {n} == 0: raise _NT()")
            return root, du and self.product(self.dmul(root, du), (d, f"(2 * {n})"))
        if du and node.fn in ("sin", "cos"):  # both from one series
            sin, cos = self.kernel("sin_cos", where, arg, 2)
            value, slope = (sin, cos) if node.fn == "sin" else (cos, f"(-{sin})")
            return (value, self.unit), self.dmul((slope, self.unit), du)
        t = self.kernel(node.fn, where, arg)[0]
        value = t, self.unit
        if node.fn == "exp" or du is None:
            return value, self.dmul(value, du)
        if node.fn == "ln":
            return value, self.product(du, (d, n))
        square = self.const(10 ** (2 * self.precision))  # tan: (1 + tan~(u)^2) u'
        return value, self.dmul((f"({square} + {t} * {t})", square), du)

    def kernel(self, fn: str, where: Where, arg: Part, outputs: int = 1) -> tuple[str, ...]:
        """The names of the outputs of a direct call of the integer kernel
        ``_KERNELS[fn]`` on arg, its MathError located at where's node.  Every kernel
        but sqrt's gives numerators over ``unit``, the name of 10^precision."""
        kernel = self.const(_KERNELS[fn])
        args = f"{arg[0]}, {arg[1] or 1}, {self.digits}"
        names = tuple(self.temp("V" in args) for _ in range(outputs))
        if fn != "sqrt" and self.unit is None:
            self.unit = self.const(10**self.precision)
        self.line(f"try: {', '.join(names)} = {kernel}({args})\n"
                  f"except _ME as _e: raise _at(_e, {self.read(where, _pos)}) from None")
        return names

    def quotient(self, where: Where, left: Part, right: Part) -> Part:
        """left / right, numerator and denominator apart, so a row-invariant
        divisor leaves a row-invariant denominator."""
        (an, ad), (bn, bd) = left, right
        bn = self.atom(bn)
        num, den = self.times(an, bd), self.times(ad, bn)
        n, d = self.temp("V" in num + bn), self.temp("V" in den)
        self.line(f"if {bn} == 0: raise _DZ('division by zero', {self.read(where, _pos)})")
        self.line(f"{n} = {num} if {bn} > 0 else -{num}")
        self.line(f"{d} = {den} if {bn} > 0 else -{den}")
        return n, d

    def product(self, a: Part, b: Part) -> Part:
        return self.times(a[0], b[0]), self.times(a[1], b[1])

    def sum_part(self, op: str, left: Part, right: Part) -> Part:
        """left op right for op + or -."""
        (an, ad), (bn, bd) = left, right
        if ad != bd:  # else both 1, or one shared denominator
            ad, bd = self.atom(ad), self.atom(bd)
            an, bn = self.times(an, bd), self.times(bn, ad)
        if self.loop and "V" in an + bn:
            an, bn = self.fixed(an), self.fixed(bn)
        return f"({an} {op} {bn})", self.times(ad, bd) if ad != bd else ad

    def power(self, where: Where, exponent: Where, base: Part,
              db: Part | None) -> tuple[Part, Part | None]:
        """An integer power of base, where's node, whose derivative is db,
        and the power's derivative k u^(k-1) u' from ``_dpow``, which
        refuses where the power took int_pow."""
        k = int_exponent(where[0])
        if k == 0:
            return self.const_part(Fraction(1)), None
        an, ad = self.atom(base[0]), self.atom(base[1])
        # closure constants, so powers of any degree share one code object
        m, limit = self.read(exponent, _abs_num), self.read(exponent, _power_limit)
        d_pow = f"{ad} ** {m}" if ad else "1"
        if k > 0 and "V" in an and "V" not in (ad or ""):  # a row value over a fixed denominator
            n, d, bits = self.temp(True), self.temp(False), self.temp(False)
            fits, d_row = f"{an}.bit_length() < {limit}", "1"
            if ad:  # past the guard no numerator fits, so the power is not taken
                fits, d_row = f"{an}.bit_length() <= {bits}", f"{d_pow} if {bits} >= 0 else 1"
                self.line(f"{bits} = {limit} - {ad}.bit_length()")
            self.line(f"{d} = {d_row}")
            self.line(f"if {fits}: {n} = {an} ** {m}\nelse: raise _Slow")
            return (n, d), None  # no row in tangent mode
        if ad:
            small = f"{an}.bit_length() + {ad}.bit_length() <= {limit}"
        else:
            small = f"{an}.bit_length() < {limit}"  # a reduced denominator 1 has 1 bit
        fallback = (f"_approx(_A.int_pow, {_fraction((an, ad))}, {self.read(exponent, _num)}, "
                    f"{self.digits}, {self.read(where, _pos)})")
        varying = "V" in an + (ad or "")
        n, d = self.temp(varying), self.temp(varying)
        if k > 0:
            head = f"if {small}: {n} = {an} ** {m}; {d} = {d_pow}"
        else:  # a zero base takes the int_pow path, which raises DivisionByZero
            head = (f"if {an} and {small}:\n    {n} = {d_pow}; {d} = {an} ** {m}\n"
                    f"    if {d} < 0: {n} = -{n}; {d} = -{d}")
        self.line(f"{head}\nelse: {n}, {d} = {fallback}")
        if db is None:
            return (n, d), None
        dn, dd = self.temp(False), self.temp(False)
        self.line(f"{dn}, {dd} = _dpow({an}, {ad or 1}, {db[0]}, {db[1] or 1}, "
                  f"{self.read(exponent, _num)})")
        return (n, d), (dn, dd)

    def atoms(self, part: Part) -> Part:
        return self.atom(part[0]), self.atom(part[1])

    def shallow_part(self, part: Part) -> Part:
        return self.shallow(part[0]), self.shallow(part[1])

    @staticmethod
    def negated(part: Part) -> Part:
        return f"(-{part[0]})", part[1]

    def dmul(self, factor: Part, deriv: Part | None) -> Part | None:
        """factor times a derivative part (None is 0)."""
        if deriv is None or deriv is _ONE:
            return deriv and factor
        return self.product(factor, deriv)

    def dsum(self, op: str, a: Part | None, b: Part | None) -> Part | None:
        """a op b for op + or -, for derivative parts (None is 0)."""
        if b is None:
            return a
        if a is None:
            return b if op == "+" else self.negated(b)
        return self.sum_part(op, a, b)


_ONE: Part = ("1", None)  # the derivative of the variable


class _Decline(Exception):
    """An expression the tangent mode has no rule for: a real power or a root."""


class _NoTangent(MathError):
    """A point where the tangent code's rule and the series field's part
    ways; the caller evaluates the point the field's way."""

    def __init__(self):
        super().__init__("no first-order rule at this point")


def _dpow(n: int, d: int, dn: int, dd: int, k: int) -> tuple[int, int]:
    """The derivative pair of u^k, u = n/d with derivative dn/dd, k != 0, where
    compiled code took the power exactly; where it took ``int_pow`` (past
    the unreduced guard) it raises _NoTangent.  At u = 0 the series' power
    guard reads the leading coefficient, u' when that is not 0, so a 0
    derivative or a guard the field would trip raises _NoTangent too."""
    if (n.bit_length() + d.bit_length()) * abs(k) > approx.POWER_BITS:
        raise _NoTangent()
    if not n:  # k > 0, since compiled code refuses 0^k for k < 0
        lead = Fraction(dn, dd)
        if not dn or (abs(lead) != 1 and approx.power_too_large(lead, k)):
            raise _NoTangent()
        return (dn, dd) if k == 1 else (0, 1)
    if k > 0:
        return k * n ** (k - 1) * dn, d ** (k - 1) * dd
    num, den = k * d ** (1 - k) * dn, n ** (1 - k) * dd
    return (num, den) if den > 0 else (-num, -den)


def _fraction(part: Part) -> str:
    n, d = part
    return f"_F({n}, {d})" if d is not None else f"_F({n})"


# -- one walk per shape -----------------------------------------------------------------


def _shape(node: Expr, key: list, nodes: list) -> None:
    """Append to key what ``_Codegen.part`` branches on at node and below,
    and to nodes the nodes, both in the walk's pre-order, where a folded
    exponent, divisor or root index follows its parent's walked operands.
    Such a child adds no token of its own: its parent's token holds what
    the walk branches on (the exponent's sign; whether the divisor's
    reciprocal, or the index, is an integer).  A variable's token is its
    name; no other token is an identifier, and each fixes how many subtrees
    follow it, so a key is the shape of one tree."""
    nodes.append(node)
    if isinstance(node, Binary):
        op, right = node.op, node.right
        if isinstance(right, Const) and op in "^/":
            v = right.value
            n = v.numerator
            if op == "^" and v.denominator == 1:
                key.append("^0" if n == 0 else "^+" if n > 0 else "^-")
                _shape(node.left, key, nodes)
                nodes.append(right)
                return
            if op == "/" and n != 0:
                key.append("/1" if abs(n) == 1 else "/q")
                _shape(node.left, key, nodes)
                nodes.append(right)
                return
        key.append(op)
        _shape(node.left, key, nodes)
        _shape(right, key, nodes)
    elif isinstance(node, Const):
        key.append(0 if node.value.denominator == 1 else 1)
    elif isinstance(node, Var):
        key.append(node.name)
    elif isinstance(node, Unary):
        key.append("u-")
        _shape(node.operand, key, nodes)
    else:
        args = node.args
        index = args[0]
        if (node.fn == "root" and isinstance(index, Const)
                and index.value.denominator == 1 and index.value.numerator >= 2):
            key.append("root#")
            nodes.append(index)
            _shape(args[1], key, nodes)
            return
        key.append(_CALL_TOKENS[node.fn])
        for arg in args:
            _shape(arg, key, nodes)


_CALL_TOKENS = {fn: f"{fn}(" for fn in FUNCTIONS}


class _Template:
    """The code of one expression shape, from one ``_Codegen`` walk of a
    tree of that shape (``_walk``): the statements, and for each closure
    constant its value where the key fixes it, or else the node it is read
    from and how (``reads``), so that another tree of the shape binds its
    own constants (``bind``) without a walk.  ``maker`` compiles a
    function maker per entry on first use: None for the point or tangent
    function, ``sum`` and ``values`` for a row kernel, whose makers take
    one more constant, the kernel's point-by-point fallback."""

    def __init__(self, gen: "_Codegen", value: Part, deriv: Part | None):
        self.names, self.precision, self.loop, self.first = (
            gen.names, gen.precision, gen.loop, gen.first)
        self.reads = gen.reads
        self.consts = list(gen.consts)  # the read ones are bound per tree
        for j, _, _ in self.reads:
            self.consts[j] = None
        self.makers: dict = {}
        n, d = value
        if gen.loop:
            self.n, self.d = n, d or "1"
            self.hoisted, self.body = "\n".join(gen.hoisted), "\n".join(gen.body)
            return
        result = f"{n}, {d or 1}"
        if gen.tangent:
            dn, dd = deriv or ("0", None)
            result = f"({result}), ({dn}, {dd or 1})"
        self.params = ", ".join(f"{vn}, {vd}" for vn, vd in gen.vars)
        self.code = "\n".join([*gen.hoisted, f"return {result}"])

    def bind(self, nodes: list) -> list:
        """The closure constants of the tree whose ``_shape`` nodes are nodes."""
        consts = self.consts.copy()
        for j, at, proj in self.reads:
            consts[j] = proj(nodes[at])
        return consts

    def maker(self, entry: str | None):
        """The function maker of an entry, compiled on its first use."""
        maker = self.makers.get(entry)
        if maker is None:
            params, code = self.source(entry)
            maker = _function_maker(len(self.consts) + (entry is not None), params, code)
            self.makers[entry] = maker
        return maker

    def source(self, entry: str | None) -> tuple[str, str]:
        """The parameters and body of an entry's function."""
        if entry is None:
            return self.params, self.code
        n, d = self.n, self.d
        head, var, pair = _row_params(len(self.names), self.loop)
        if entry == "values":
            params, start, result = f"{head}, row", "_out = []\n_app = _out.append", "_out"
            if "V" not in d and not d.isidentifier():  # one denominator, computed once
                start, d = f"{start}\n_d = {d}", "_d"
            loop = f"for {var} in row:\n{_indent(self.body, 1)}    _app(({n}, {d}))"
        else:
            params = f"{head}, row, weights=None"
            if "V" in d:  # the denominator depends on the row: one sum per distinct one
                start, result = "_s = {}", "_sum_of(_s)"
                add = f"_t = {d}; _s[_t] = _s.get(_t, 0) + {n}"
            else:
                start, add, result = f"_acc = 0\n_d = {d}", f"_acc += {n}", "_acc, _d"
            body = _indent(self.body, 2)
            loop = (f"if weights is None:\n    for {var} in row:\n{body}        {add}\n"
                    f"else:\n    for {pair}, _w in zip(row, weights):\n{body}        {add} * _w")
        # point by point, from the row's first point, after an error before
        # the loop or an int_pow fallback in it
        again = f"return c{len(self.consts)}({params.replace('=None', '')})"
        code = f"{start}\ntry:\n{_indent(loop, 1)}except _Slow:\n    {again}\nreturn {result}"
        if self.hoisted:
            code = f"try:\n{_indent(self.hoisted, 1)}except _ME:\n    {again}\n{code}"
        return params, code


def _walk(e: Expr, names: tuple[str, ...], precision: int, mode: str,
          loop: int) -> tuple[_Template, list]:
    """One ``_Codegen`` walk of e: its shape's template and e's constants."""
    gen = _Codegen(names, precision, loop, mode == "tangent")
    value, deriv = gen.part(e)
    return _Template(gen, value, deriv), gen.consts


class _Shape(tuple):
    """A shape key, and on a miss its ``tree`` to walk: ``_template``'s
    argument, hashed and compared as the key alone."""


# 1 024 shapes: a 1 400-round partition-poly run meets about 235, the kept
# compiled-code file 912
@lru_cache(maxsize=1024)
def _template(shape: _Shape) -> _Template | None:
    """The template of a shape, from one walk of its tree; None where the
    tangent mode declines it.  An unbound variable is refused by the walk,
    and nothing is kept."""
    mode, names, precision, loop = shape[:4]
    try:
        template = _walk(shape.tree, names, precision, mode, loop)[0]
    except _Decline:
        template = None
    shape.tree = None  # the cache keeps the key, not the tree
    return template


def _bound(e: Expr, names: tuple[str, ...], precision: int, mode: str = "point",
           loop: int = 0) -> tuple[_Template, list]:
    """The template of e's shape in mode (point, tangent or rows, over the
    last ``loop`` names) and e's closure constants.  Only a miss walks e;
    a tree that the tangent mode declines raises _Decline."""
    key, nodes = [mode, names, precision, loop], []
    _shape(e, key, nodes)
    shape = _Shape(key)
    shape.tree = e
    template = _template(shape)
    if template is None:
        raise _Decline
    return template, template.bind(nodes)


def _function_maker(n_consts: int, params: str, body: str):
    """Compile ``body`` once: the returned function binds the constants and
    returns the compiled function of ``params``."""
    consts = ", ".join(f"c{i}" for i in range(n_consts))
    indented = "".join(f"        {line}\n" for line in body.split("\n"))
    source = f"def _make({consts}):\n    def _f({params}):\n{indented}    return _f\n"
    scope = dict(_COMPILED_SCOPE)
    exec(source, scope)  # noqa: S102 - generated from a validated AST
    return scope["_make"]


def _approx(fn, *args) -> tuple[int, int]:
    """fn(*args[:-1]) as (numerator, denominator); a MathError is located at
    the offset args[-1]."""
    try:
        v = fn(*args[:-1])
    except MathError as ex:
        raise _at(ex, args[-1]) from None
    return v.numerator, v.denominator


_COMPILED_SCOPE = {
    "_F": Fraction,
    "_DZ": DivisionByZero,
    "_ME": MathError,
    "_Slow": _Slow,
    "_A": approx,
    "_at": _at,
    "_approx": _approx,
    "_real_root": _real_root,
    "_index": _require_root_index,
    "_sum_of": _sum_of,
    "_NT": _NoTangent,
    "_dpow": _dpow,
}
