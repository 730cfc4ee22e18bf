"""Seeded input generation: expression trees that render to ``hrw`` syntax and
carry their own oracle values (exact jets or ``decimal`` series).

Coefficients are short decimals (denominators 2, 4, 5, 8, 10) rendered as
decimal literals, so an expression contains a division only where the tree
says so; the program chooses its probe window by that property.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Union

import oracle

Q = Fraction


def rng_for(seed: int, *tags) -> random.Random:
    """Independent stream per (seed, tags); string seeding is stable across runs."""
    return random.Random("/".join(str(t) for t in (seed,) + tags))


def dec_coeff(rng: random.Random, lo: float, hi: float, nonzero: bool = True) -> Fraction:
    """A short decimal in [lo, hi], a multiple of 1/8 or 1/10."""
    den = rng.choice((2, 4, 8, 5, 10))
    while True:
        q = Fraction(rng.randint(int(lo * den), int(hi * den)), den)
        if q or not nonzero:
            return q


def lit(q: Fraction) -> str:
    """Decimal literal when the denominator allows one, else ``(p/q)``;
    parenthesised when negative."""
    q = Fraction(q)
    num, den = abs(q.numerator), q.denominator
    d, twos, fives = den, 0, 0
    while d % 2 == 0:
        d //= 2
        twos += 1
    while d % 5 == 0:
        d //= 5
        fives += 1
    digits = max(twos, fives)
    if d != 1:
        body = f"{num}/{den}"
    elif digits == 0:
        body = str(num)
    else:
        scaled = num * 10**digits // den
        body = f"{scaled // 10**digits}.{str(scaled % 10**digits).zfill(digits)}"
    if q < 0 or d != 1:
        return f"({'-' if q < 0 else ''}{body})"
    return body


# -- expression trees --------------------------------------------------------------------


@dataclass(frozen=True)
class Poly:
    c: tuple  # coefficients, lowest degree first
    var: str = "x"


@dataclass(frozen=True)
class Fn:
    name: str  # sin cos exp ln sqrt
    arg: "Node"


@dataclass(frozen=True)
class Mul:
    a: "Node"
    b: "Node"


@dataclass(frozen=True)
class Add:
    a: "Node"
    b: "Node"


@dataclass(frozen=True)
class Div:
    a: "Node"
    b: "Node"


Node = Union[Poly, Fn, Mul, Add, Div]


def text(n: Node) -> str:
    if isinstance(n, Poly):
        parts = []
        for k, c in enumerate(n.c):
            if c == 0:
                continue
            if k == 0:
                parts.append(lit(c))
            elif k == 1:
                parts.append(f"{lit(c)}*{n.var}")
            else:
                parts.append(f"{lit(c)}*{n.var}^{k}")
        return "(" + (" + ".join(parts) or "0") + ")"
    if isinstance(n, Fn):
        return f"{n.name}{text(n.arg)}"  # every text() is parenthesised
    op = {Mul: "*", Add: " + ", Div: "/"}[type(n)]
    return f"({text(n.a)}{op}{text(n.b)})"


def _unify(a, b):
    if any(isinstance(x, Decimal) for x in a) or any(isinstance(x, Decimal) for x in b):
        return oracle.decimal_series(a), oracle.decimal_series(b)
    return a, b


def series(n: Node, x0, order: int) -> list:
    """Taylor coefficients of n at x0 up to ``order``: Fractions while the tree
    is algebraic, Decimals once a transcendental function enters."""
    if isinstance(n, Poly):
        s = oracle.taylor_shift([Q(c) for c in n.c], x0)
        return (s + [Q(0)] * (order + 1))[: order + 1]
    if isinstance(n, Fn):
        return oracle.ser_apply(n.name, series(n.arg, x0, order))
    a, b = _unify(series(n.a, x0, order), series(n.b, x0, order))
    if isinstance(n, Mul):
        return oracle.ser_mul(a, b)
    if isinstance(n, Add):
        return [x + y for x, y in zip(a, b)]
    return oracle.ser_div(a, b)


def exact(n: Node) -> bool:
    if isinstance(n, Poly):
        return True
    if isinstance(n, Fn):
        return False
    return exact(n.a) and exact(n.b)


# -- random trees --------------------------------------------------------------------------


def rand_poly(rng, degree: int, lo=-2.0, hi=2.0, var="x") -> Poly:
    c = [dec_coeff(rng, lo, hi, nonzero=False) for _ in range(degree)]
    c.append(dec_coeff(rng, lo, hi))
    return Poly(tuple(c), var)


def positive_inner(rng, var="x") -> Poly:
    """a x + b with a in [1/4, 1] and b in [2, 3]: positive on [-1.5, 2.5]."""
    return Poly((dec_coeff(rng, 2, 3), dec_coeff(rng, 0.25, 1)), var)


FUNCTIONS = ("sin", "cos", "exp", "ln", "sqrt")


def rand_transcendental(rng, slot: int, var="x") -> Node:
    """Shape and functions fixed by ``slot``, coefficients seeded: one of
    c*F(inner), F(inner)*G(inner'), poly + F(inner)."""
    shape = slot % 3
    f = Fn(FUNCTIONS[slot % 5], positive_inner(rng, var))
    if shape == 0:
        return Mul(Poly((dec_coeff(rng, -2, 2),), var), f)
    if shape == 1:
        return Mul(f, Fn(FUNCTIONS[(slot // 3) % 5], positive_inner(rng, var)))
    return Add(rand_poly(rng, 2, var=var), f)


def rand_rational(rng, degree: int, var="x") -> Div:
    """p(x) / (x^2 + c) with c in [1/2, 2]: defined everywhere."""
    den = Poly((dec_coeff(rng, 0.5, 2), Q(0), Q(1)), var)
    return Div(rand_poly(rng, degree, var=var), den)


def increasing_poly(rng, lo: Fraction, var="x") -> Poly:
    """c0 + c1 x + c3 x^3 with c1, c3 > 0: strictly increasing on R; c0 makes
    it positive on [lo, inf)."""
    c1, c3 = dec_coeff(rng, 0.25, 2), dec_coeff(rng, 0.25, 2)
    coeffs = [Q(0), c1, Q(0), c3]
    base = -oracle.poly_eval(coeffs, Q(lo))
    coeffs[0] = max(base, Q(0)) + dec_coeff(rng, 0.25, 1)
    return Poly(tuple(coeffs), var)
