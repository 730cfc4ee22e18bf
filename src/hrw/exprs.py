"""Small mathematical expression language: tokens, parser, dual evaluators.

Grammar (precedence low to high, ``^`` right-associative and binding tighter
than unary minus)::

    expr    := mul (('+' | '-') mul)*
    mul     := unary (('*' | '/') unary)*
    unary   := '-' unary | power
    power   := primary ['^' powrhs]
    powrhs  := '-' powrhs | power
    primary := number | name | name '(' expr (',' expr)* ')' | '(' expr ')'

Decimal literals become exact rationals (0.25 -> 1/4).  ``pi`` and ``e`` are
named constants resolved to rational approximations at evaluation time.
Expressions evaluate both over exact rationals (:func:`eval_real`) and over
the truncated series field (:func:`eval_hyper`); a rule-based symbolic
derivative for +,-,*,/ and integer powers serves as an independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield
from fractions import Fraction
from typing import Callable, Union

from . import approx
from .errors import DivisionByZero, DomainError, MathError, ParseError, UnsupportedNode
from .field import Field, HyperReal, hr_cos, hr_exp, hr_ln, hr_sin, hr_tan

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
        if ch.isdigit() or (ch == "." and i + 1 < n and source[i + 1].isdigit()):
            i += 1
            seen_dot = ch == "."
            while i < n and (source[i].isdigit() or (source[i] == "." and not seen_dot)):
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


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0

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

    def parse_expr(self) -> Expr:
        node = self.parse_mul()
        while self.peek().kind == "operator" and self.peek().text in "+-":
            op = self.next()
            rhs = self.parse_mul()
            node = Binary(op.text, node, rhs, op.pos)
        return node

    def parse_mul(self) -> Expr:
        node = self.parse_unary()
        while self.peek().kind == "operator" and self.peek().text in "*/":
            op = self.next()
            rhs = self.parse_unary()
            node = Binary(op.text, node, rhs, op.pos)
        return node

    def parse_unary(self) -> Expr:
        t = self.peek()
        if t.kind == "operator" and t.text == "-":
            self.next()
            operand = self.parse_unary()
            if isinstance(operand, Const):  # fold so "-3" round-trips structurally
                return Const(-operand.value, t.pos)
            return Unary("-", operand, t.pos)
        return self.parse_power()

    def parse_power(self) -> Expr:
        base = self.parse_primary()
        t = self.peek()
        if t.kind == "operator" and t.text == "^":
            self.next()
            return Binary("^", base, self.parse_powrhs(), t.pos)
        return base

    def parse_powrhs(self) -> Expr:
        t = self.peek()
        if t.kind == "operator" and t.text == "-":
            self.next()
            operand = self.parse_powrhs()
            if isinstance(operand, Const):
                return Const(-operand.value, t.pos)
            return Unary("-", operand, t.pos)
        return self.parse_power()

    def parse_primary(self) -> Expr:
        t = self.peek()
        if t.kind == "number":
            self.next()
            return Const(Fraction(t.text), t.pos)
        if t.kind == "identifier":
            self.next()
            if self.peek().kind == "paren" and self.peek().text == "(":
                if t.text not in FUNCTIONS:
                    raise ParseError(t.pos, "function name", t.text)
                self.next()
                args = [self.parse_expr()]
                while self.peek().kind == "comma":
                    self.next()
                    args.append(self.parse_expr())
                self.expect("paren", ")")
                if len(args) != FUNCTIONS[t.text]:
                    raise ParseError(
                        t.pos, f"{FUNCTIONS[t.text]} argument(s) to {t.text}", f"{len(args)}"
                    )
                return Call(t.text, tuple(args), t.pos)
            return Var(t.text, t.pos)
        if t.kind == "paren" and t.text == "(":
            self.next()
            node = self.parse_expr()
            self.expect("paren", ")")
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


def contains_division(e: Expr) -> bool:
    """Division or negative integer power anywhere in the tree."""
    if isinstance(e, Binary):
        if e.op == "/":
            return True
        if e.op == "^" and isinstance(e.right, Const) and e.right.value < 0:
            return True
        return contains_division(e.left) or contains_division(e.right)
    if isinstance(e, Unary):
        return contains_division(e.operand)
    if isinstance(e, Call):
        return any(contains_division(a) for a in e.args)
    return False


# -- evaluation over exact rationals ---------------------------------------------------


def _require_root_index(value: Fraction, pos: int) -> int:
    if value.denominator != 1 or value < 2:
        raise DomainError(f"root index must be an integer >= 2, got {value}", pos)
    return int(value)


def eval_real(e: Expr, env: dict[str, Fraction], precision: int = 40) -> Fraction:
    """Exact rational evaluation; transcendental calls approximated to 10^-precision."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        if e.name in env:
            return Fraction(env[e.name])
        if e.name == "pi":
            return approx.pi_approx(precision)
        if e.name == "e":
            return approx.exp_approx(Fraction(1), precision)
        raise DomainError(f"unbound variable {e.name!r}", e.pos)
    if isinstance(e, Unary):
        return -eval_real(e.operand, env, precision)
    if isinstance(e, Binary):
        if e.op == "^":
            base = eval_real(e.left, env, precision)
            integer = isinstance(e.right, Const) and e.right.value.denominator == 1
            r = e.right.value if integer else eval_real(e.right, env, precision)
            try:
                if integer:
                    return approx.int_pow(base, int(r), precision)
                return approx.pow_approx(base, r, precision)
            except MathError as ex:
                raise type(ex)(str(ex), e.pos) from None
        a = eval_real(e.left, env, precision)
        b = eval_real(e.right, env, precision)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if b == 0:
            raise DivisionByZero("division by zero", e.pos)
        return a / b
    # Call
    args = e.args
    try:
        if e.fn == "abs":
            return abs(eval_real(args[0], env, precision))
        if e.fn == "sqrt":
            v = eval_real(args[0], env, precision)
            if v < 0:
                raise DomainError(f"sqrt of negative value {v}")
            return approx.sqrt_approx(v, precision)
        if e.fn == "root":
            n = _require_root_index(eval_real(args[0], env, precision), args[0].pos)
            v = eval_real(args[1], env, precision)
            if v <= 0:
                if v == 0:
                    return Fraction(0)
                raise DomainError(f"root of negative value {v}")
            return approx.nth_root_approx(v, n, precision)
        v = eval_real(args[0], env, precision)
        fn = {
            "sin": approx.sin_approx,
            "cos": approx.cos_approx,
            "tan": approx.tan_approx,
            "exp": approx.exp_approx,
            "ln": approx.ln_approx,
        }[e.fn]
        return fn(v, precision)
    except MathError as ex:
        if ex.pos is None:
            raise type(ex)(str(ex), e.pos) from None
        raise


# -- evaluation over the series field ---------------------------------------------------


class EvalTrace:
    """Side observations from a series evaluation."""

    __slots__ = ("abs_nonsmooth",)

    def __init__(self):
        self.abs_nonsmooth = False


def eval_hyper_traced(
    e: Expr, env: dict[str, HyperReal], cfg: Field
) -> tuple[HyperReal, EvalTrace]:
    trace = EvalTrace()

    def go(node: Expr) -> HyperReal:
        if isinstance(node, Const):
            return cfg.rational(node.value)
        if isinstance(node, Var):
            if node.name in env:
                return env[node.name]
            if node.name == "pi":
                return cfg.rational(approx.pi_approx(cfg.precision))
            if node.name == "e":
                return cfg.rational(approx.exp_approx(Fraction(1), cfg.precision))
            raise DomainError(f"unbound variable {node.name!r}", node.pos)
        if isinstance(node, Unary):
            return -go(node.operand)
        if isinstance(node, Binary):
            try:
                if node.op == "^":
                    base = go(node.left)
                    if isinstance(node.right, Const) and node.right.value.denominator == 1:
                        return base ** int(node.right.value)
                    r = go(node.right)
                    if r.is_zero:
                        return cfg.one()
                    if (
                        len(r.terms) == 1
                        and r.terms[0][0] == 0
                        and r.terms[0][1].denominator == 1
                    ):  # standard integer exponent: stay exact
                        return base ** int(r.terms[0][1])
                    return hr_exp(hr_ln(base) * r)
                a = go(node.left)
                b = go(node.right)
                if node.op == "+":
                    return a + b
                if node.op == "-":
                    return a - b
                if node.op == "*":
                    return a * b
                return a / b
            except MathError as ex:
                if ex.pos is None:
                    raise type(ex)(str(ex), node.pos) from None
                raise
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
                if len(idx.terms) != 1 or idx.terms[0][0] != 0:
                    raise DomainError("root index must be a standard integer >= 2", node.args[0].pos)
                n = _require_root_index(idx.terms[0][1], node.args[0].pos)
                return go(node.args[1]).nth_root(n)
            v = go(node.args[0])
            fn = {"sin": hr_sin, "cos": hr_cos, "tan": hr_tan, "exp": hr_exp, "ln": hr_ln}[
                node.fn
            ]
            return fn(v)
        except MathError as ex:
            if ex.pos is None:
                raise type(ex)(str(ex), node.pos) from None
            raise

    return go(e), trace


def eval_hyper(e: Expr, env: dict[str, HyperReal], cfg: Field) -> HyperReal:
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
    if isinstance(e, Binary):
        if e.op == "+":
            return _add(symbolic_derivative(e.left, var), symbolic_derivative(e.right, var))
        if e.op == "-":
            return _sub(symbolic_derivative(e.left, var), symbolic_derivative(e.right, var))
        if e.op == "*":
            return _add(
                _mul(symbolic_derivative(e.left, var), e.right),
                _mul(e.left, symbolic_derivative(e.right, var)),
            )
        if e.op == "/":
            num = _sub(
                _mul(symbolic_derivative(e.left, var), e.right),
                _mul(e.left, symbolic_derivative(e.right, var)),
            )
            return Binary("/", num, Binary("^", e.right, _const(2)))
        if e.op == "^" and isinstance(e.right, Const) and e.right.value.denominator == 1:
            n = e.right.value
            if n == 0:
                return _const(0)
            return _mul(
                _mul(_const(n), Binary("^", e.left, _const(n - 1))),
                symbolic_derivative(e.left, var),
            )
        raise UnsupportedNode(f"derivative rule for ^ with non-integer exponent", e.pos)
    raise UnsupportedNode(f"derivative rule for call {e.fn!r}", e.pos)


# -- compiled evaluation (hot loops) -------------------------------------------------------


def compile_real(e: Expr, names: tuple[str, ...], precision: int = 40) -> Callable[..., Fraction]:
    """Compile to a plain function of Fractions; same semantics as eval_real.

    Used by the partition sums where tree-walking per tag would dominate.
    Error positions are not attached on this path.
    """
    ctx: dict[str, object] = {}
    counter = iter(range(10**6))

    def bind(value) -> str:
        name = f"_k{next(counter)}"
        ctx[name] = value
        return name

    def gen(node: Expr) -> str:
        if isinstance(node, Const):
            return bind(node.value)
        if isinstance(node, Var):
            if node.name in names:
                return node.name
            if node.name == "pi":
                return bind(approx.pi_approx(precision))
            if node.name == "e":
                return bind(approx.exp_approx(Fraction(1), precision))
            raise DomainError(f"unbound variable {node.name!r}", node.pos)
        if isinstance(node, Unary):
            return f"(-{gen(node.operand)})"
        if isinstance(node, Binary):
            if node.op == "^":
                if isinstance(node.right, Const) and node.right.value.denominator == 1:
                    return f"_ipow({gen(node.left)}, {int(node.right.value)}, {precision})"
                return f"_powr({gen(node.left)}, {gen(node.right)})"
            a, b = gen(node.left), gen(node.right)
            if node.op == "/":
                return f"_div({a}, {b})"
            return f"({a} {node.op} {b})"
        args = [gen(a) for a in node.args]
        return f"_{node.fn}({', '.join(args)})"

    body = gen(e)
    d = precision
    ctx.update(
        _div=_compiled_div,
        _ipow=approx.int_pow,
        _powr=lambda a, b: approx.pow_approx(a, b, d),
        _abs=abs,
        _sin=lambda v: approx.sin_approx(v, d),
        _cos=lambda v: approx.cos_approx(v, d),
        _tan=lambda v: approx.tan_approx(v, d),
        _exp=lambda v: approx.exp_approx(v, d),
        _ln=lambda v: approx.ln_approx(v, d),
        _sqrt=lambda v: _compiled_sqrt(v, d),
        _root=lambda n, v: _compiled_root(n, v, d),
    )
    src = f"def _f({', '.join(names)}):\n    return {body}\n"
    scope: dict[str, object] = dict(ctx)
    exec(src, scope)  # noqa: S102 - generated from a validated AST
    return scope["_f"]  # type: ignore[return-value]


def _compiled_div(a: Fraction, b: Fraction) -> Fraction:
    if b == 0:
        raise DivisionByZero("division by zero")
    return a / b


def _compiled_sqrt(v: Fraction, d: int) -> Fraction:
    if v < 0:
        raise DomainError(f"sqrt of negative value {v}")
    return approx.sqrt_approx(v, d)


def _compiled_root(n: Fraction, v: Fraction, d: int) -> Fraction:
    idx = _require_root_index(n, -1)
    if v == 0:
        return Fraction(0)
    if v < 0:
        raise DomainError(f"root of negative value {v}")
    return approx.nth_root_approx(v, idx, d)


# -- function definition files ----------------------------------------------------------------


@dataclass(frozen=True)
class FunctionDef:
    """A named function ``name(params) = body`` from a definition file."""

    name: str
    params: tuple[str, ...]
    body: Expr

    def inline(self, args: dict[str, Expr]) -> Expr:
        missing = set(self.params) - set(args)
        if missing:
            raise DomainError(f"missing arguments {sorted(missing)} for {self.name}")
        return substitute(self.body, args)


def substitute(e: Expr, mapping: dict[str, Expr]) -> Expr:
    if isinstance(e, Var) and e.name in mapping:
        return mapping[e.name]
    if isinstance(e, Unary):
        return Unary(e.op, substitute(e.operand, mapping), e.pos)
    if isinstance(e, Binary):
        return Binary(e.op, substitute(e.left, mapping), substitute(e.right, mapping), e.pos)
    if isinstance(e, Call):
        return Call(e.fn, tuple(substitute(a, mapping) for a in e.args), e.pos)
    return e


def parse_definitions(text: str) -> dict[str, FunctionDef]:
    """Parse a definition file: one ``name(params) = body`` per line, # comments."""
    defs: dict[str, FunctionDef] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, sep, body_text = line.partition("=")
        if not sep:
            raise ParseError(0, f"name(params) = body on line {lineno}", repr(raw))
        head = head.strip()
        if "(" not in head or not head.endswith(")"):
            raise ParseError(0, f"name(params) on line {lineno}", repr(head))
        name, _, params_text = head[:-1].partition("(")
        name = name.strip()
        params = tuple(p.strip() for p in params_text.split(",") if p.strip())
        body = parse(body_text.strip())
        stray = free_vars(body) - set(params)
        if stray:
            raise ParseError(
                0, f"body of {name} restricted to its parameters", f"free {sorted(stray)}"
            )
        defs[name] = FunctionDef(name, params, body)
    return defs
