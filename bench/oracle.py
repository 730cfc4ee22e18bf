"""Independent oracle for the benchmark's correctness checks.

Nothing here imports ``hrw``.  Transcendental values come from the standard
library ``decimal`` module at ``DIGITS`` significant digits; polynomial work
is exact over ``fractions.Fraction``:

* Faulhaber sums give closed forms of Riemann sums of polynomials;
* an exact Taylor shift of coefficient lists gives polynomial jets;
* power-series recurrences over ``Decimal`` give jets of sin/cos/exp/ln/sqrt
  compositions.

Polynomials are coefficient lists, lowest degree first.
"""

from __future__ import annotations

import decimal
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from math import comb

DIGITS = 70
# Plain Decimal operators in the checks use the thread's context, so it is set
# here once; the program under test does not use decimal.
decimal.getcontext().prec = DIGITS
CTX = decimal.getcontext()


# -- decimal constants and elementary functions --------------------------------------


def dec(q) -> Decimal:
    """Exact rational to Decimal, rounded to the oracle's precision."""
    q = Fraction(q)
    return CTX.divide(Decimal(q.numerator), Decimal(q.denominator))


@lru_cache(maxsize=None)
def pi() -> Decimal:
    """pi by Machin's formula 16 atan(1/5) - 4 atan(1/239)."""
    with decimal.localcontext(decimal.Context(prec=DIGITS + 10)):
        value = 16 * _atan_inv(5) - 4 * _atan_inv(239)
    return CTX.plus(value)


def _atan_inv(m: int) -> Decimal:
    x = Decimal(1) / m
    x2 = x * x
    term, total, k = x, x, 1
    tiny = Decimal(10) ** -(DIGITS + 8)
    while abs(term) > tiny:
        term *= -x2
        k += 2
        total += term / k
    return total


def exp(x) -> Decimal:
    return CTX.exp(dec(x)) if not isinstance(x, Decimal) else CTX.exp(x)


def ln(x) -> Decimal:
    return CTX.ln(dec(x)) if not isinstance(x, Decimal) else CTX.ln(x)


def sqrt(x) -> Decimal:
    return CTX.sqrt(dec(x)) if not isinstance(x, Decimal) else CTX.sqrt(x)


def sin_cos(x) -> tuple[Decimal, Decimal]:
    """Taylor series after reduction modulo 2 pi, with ten guard digits."""
    x = x if isinstance(x, Decimal) else dec(x)
    with decimal.localcontext(decimal.Context(prec=DIGITS + 10)):
        two_pi = 2 * pi()
        x = x - two_pi * (x / two_pi).to_integral_value()
        s = term = x
        c = Decimal(1)
        cterm = Decimal(1)
        x2 = x * x
        k = 1
        tiny = Decimal(10) ** -(DIGITS + 8)
        while abs(term) > tiny or abs(cterm) > tiny:
            cterm = -cterm * x2 / ((k) * (k + 1))
            term = -term * x2 / ((k + 1) * (k + 2))
            k += 2
            s += term
            c += cterm
    return CTX.plus(s), CTX.plus(c)


def sin(x) -> Decimal:
    return sin_cos(x)[0]


def cos(x) -> Decimal:
    return sin_cos(x)[1]


def asinh(x: Decimal) -> Decimal:
    return CTX.ln(x + CTX.sqrt(x * x + 1))


# -- exact polynomials over Fraction ---------------------------------------------------


def poly_eval(p, x):
    acc = Fraction(0) if not isinstance(x, Decimal) else Decimal(0)
    for c in reversed(p):
        acc = acc * x + (c if not isinstance(x, Decimal) else dec(c))
    return acc


def poly_deriv(p):
    return [k * p[k] for k in range(1, len(p))] or [Fraction(0)]


def poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def poly_antideriv(p):
    return [Fraction(0)] + [Fraction(c) / (k + 1) for k, c in enumerate(p)]


def taylor_shift(p, x0) -> list[Fraction]:
    """Coefficients of p(x0 + t) in t: the exact jet of p at x0."""
    x0 = Fraction(x0)
    out = [Fraction(0)] * len(p)
    for k, c in enumerate(p):
        for j in range(k + 1):
            out[j] += c * comb(k, j) * x0 ** (k - j)
    return out


@lru_cache(maxsize=None)
def bernoulli(n: int) -> Fraction:
    """B_n with B_1 = -1/2."""
    if n == 0:
        return Fraction(1)
    return -sum(comb(n + 1, k) * bernoulli(k) for k in range(n)) / (n + 1)


@lru_cache(maxsize=None)
def power_sum(j: int, n: int) -> Fraction:
    """Faulhaber: sum_{k=0}^{n-1} k^j in closed form."""
    if j == 0:
        return Fraction(n)
    return sum(
        comb(j + 1, i) * bernoulli(i) * Fraction(n) ** (j + 1 - i) for i in range(j + 1)
    ) / (j + 1)


def riemann_closed_form(p, a, b, m: int, theta) -> Fraction:
    """sum_{k<m} p(a + (k + theta) h) h with h = (b - a)/m, via Faulhaber.

    theta = 0 is the min-vertex (left) rule, 1/2 the center rule, 1 the
    right-endpoint rule.
    """
    a, b = Fraction(a), Fraction(b)
    h = (b - a) / m
    base = taylor_shift(p, a + Fraction(theta) * h)  # polynomial in s = k h
    return h * sum(c * h**j * power_sum(j, m) for j, c in enumerate(base))


def integral(p, a, b) -> Fraction:
    anti = poly_antideriv(p)
    return poly_eval(anti, Fraction(b)) - poly_eval(anti, Fraction(a))


# -- truncated power series ----------------------------------------------------------------
#
# A series is a list s[0..n] of coefficients of t^k; all operations truncate
# at the length of their inputs.  Coefficients are Fraction for exact work and
# Decimal once a transcendental constant enters.


def ser_mul(a, b):
    n = len(a)
    return [sum((a[j] * b[k - j] for j in range(k + 1)), type(a[0])(0)) for k in range(n)]


def ser_div(a, b):
    """a / b for b[0] != 0 (rational-function jets)."""
    n = len(a)
    q = []
    for k in range(n):
        acc = a[k] - sum((q[j] * b[k - j] for j in range(k)), type(a[0])(0))
        q.append(acc / b[0])
    return q


def decimal_series(s):
    return [c if isinstance(c, Decimal) else dec(c) for c in s]


def ser_exp(s):
    s = decimal_series(s)
    e = [exp(s[0])]
    for k in range(1, len(s)):
        e.append(CTX.divide(sum(j * s[j] * e[k - j] for j in range(1, k + 1)), k))
    return e


def ser_ln(s):
    s = decimal_series(s)
    out = [ln(s[0])]
    for k in range(1, len(s)):
        acc = s[k] - CTX.divide(sum(j * out[j] * s[k - j] for j in range(1, k)), k)
        out.append(CTX.divide(acc, s[0]))
    return out


def ser_sin_cos(s):
    s = decimal_series(s)
    s0, c0 = sin_cos(s[0])
    S, C = [s0], [c0]
    for k in range(1, len(s)):
        S.append(CTX.divide(sum(j * s[j] * C[k - j] for j in range(1, k + 1)), k))
        C.append(-CTX.divide(sum(j * s[j] * S[k - j] for j in range(1, k + 1)), k))
    return S, C


def ser_sqrt(s):
    s = decimal_series(s)
    P = [sqrt(s[0])]
    for k in range(1, len(s)):
        acc = s[k] - sum(P[j] * P[k - j] for j in range(1, k))
        P.append(CTX.divide(acc, 2 * P[0]))
    return P


def ser_apply(fn: str, s):
    if fn == "exp":
        return ser_exp(s)
    if fn == "ln":
        return ser_ln(s)
    if fn == "sqrt":
        return ser_sqrt(s)
    if fn == "sin":
        return ser_sin_cos(s)[0]
    if fn == "cos":
        return ser_sin_cos(s)[1]
    raise ValueError(fn)


def close(x, y, tol=Decimal("1e-30")) -> bool:
    """|x - y| <= tol, with Fractions converted at the oracle's precision."""
    xd = x if isinstance(x, Decimal) else dec(x)
    yd = y if isinstance(y, Decimal) else dec(y)
    return abs(xd - yd) <= tol
