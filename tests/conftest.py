"""Shared generators for randomized algebra tests, and reference oracles.

A deterministic series generator (seeded random.Random) backs both the
hypothesis strategies and the large seeded loops in the acceptance suite.
Hypothesis runs under its built-in ``ci`` profile everywhere: derandomized
and without an example database, so every run draws the same examples.
"""

from __future__ import annotations

import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import settings

from hrw.errors import NonSmoothAtPoint
from hrw.exprs import Expr, eval_hyper_traced
from hrw.field import DEFAULT_FIELD, Field, HyperReal
from hrw.rationals import show_rational

settings.load_profile("ci")

EXPONENT_GRID = [Fraction(k, d) for d in (1, 2, 3) for k in range(-6, 13)]


def rand_fraction(rng: random.Random, lo: int = -50, hi: int = 50) -> Fraction:
    num = rng.randint(lo, hi)
    if num == 0:
        num = 1
    return Fraction(num, rng.randint(1, 20))


def rand_hyper(
    rng: random.Random,
    field: Field = DEFAULT_FIELD,
    max_terms: int = 4,
    limited: bool = False,
    infinitesimal: bool = False,
    nonzero: bool = False,
) -> HyperReal:
    grid = [e for e in EXPONENT_GRID if (not limited or e >= 0) and (not infinitesimal or e > 0)]
    count = rng.randint(1 if nonzero else 0, max_terms)
    exps = rng.sample(grid, count) if count else []
    return HyperReal(
        [(e, rand_fraction(rng)) for e in exps], field.window, field.precision
    )


def pointwise_increment(
    e: Expr, c: Fraction, h: HyperReal, n: int, fld: Field = DEFAULT_FIELD
) -> HyperReal:
    """The n-th increment of e at c + h as one series walk per point
    c + j*h, j = n, ..., 0: the reference of ``nth_increment``."""
    total = fld.zero()
    for k in range(n + 1):
        value, trace = eval_hyper_traced(e, {"x": fld.rational(c) + h * (n - k)}, fld)
        if trace.abs_nonsmooth:
            raise NonSmoothAtPoint(f"abs argument vanishes near {show_rational(c)}")
        total = total + value * Fraction((-1) ** k * math.comb(n, k))
    total.certify(n * (h.leading_exponent() or 0), f"increment of order {n}")
    return total


def decimal_pi(prec: int) -> Decimal:
    """pi to about prec digits by the Gauss-Legendre iteration, independent of
    hrw.approx, which sums Machin's series."""
    with localcontext() as ctx:
        ctx.prec = prec + 10
        a, b, t, p = Decimal(1), 1 / Decimal(2).sqrt(), Decimal(1) / 4, 1
        while abs(a - b) > Decimal(10) ** -prec:
            a, b, t, p = (a + b) / 2, (a * b).sqrt(), t - p * ((a - b) / 2) ** 2, 2 * p
        return (a + b) ** 2 / (4 * t)


def decimal_sin_cos(x: Fraction, digits: int) -> tuple[Decimal, Decimal]:
    """(sin x, cos x) within 10^-(digits+30), from ``decimal``: x less the
    nearest multiple of 2 pi, taken with as many more digits as x has
    integer digits, then the Taylor series."""
    size = Decimal(abs(x.numerator)).adjusted() - Decimal(x.denominator).adjusted()
    wide = digits + 40 + max(0, size)
    with localcontext() as ctx:
        ctx.prec = wide
        y = Decimal(x.numerator) / Decimal(x.denominator)
        two_pi = 2 * decimal_pi(wide)
        y -= (y / two_pi).to_integral_value() * two_pi
        ctx.prec = digits + 40
        y = +y
        parts = [Decimal(0)] * 4  # Taylor terms grouped by k mod 4
        term, k = Decimal(1), 0
        while k < 8 or abs(term) > Decimal(10) ** -(digits + 40):
            parts[k % 4] += term
            k += 1
            term = term * y / k
        return parts[1] - parts[3], parts[0] - parts[2]


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260808)


@pytest.fixture
def field() -> Field:
    return DEFAULT_FIELD
