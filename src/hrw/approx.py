"""Rational approximations of elementary constants.

Every function returns an exact :class:`Fraction` within 10^-digits of the
true real value, produced by rational Taylor/Machin series with explicit tail
bounds and a final round to the 10^-digits grid (nearest, ties to even).  No
floating point is involved anywhere, so results are identical across runs and
platforms and can be cached by value.

Exact cases short-circuit: integer powers, perfect roots, sin(0), ln(1).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt

from .errors import ApproxOverflow, DivisionByZero, DomainError
from .rationals import round_to_digits

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)

_GUARD = 12  # guard digits on top of the requested precision
_EXP_ARG_CAP = 300  # e^300 ~ 10^130; enough to witness any divergence bound


def _digits_of(n: int) -> int:
    return len(str(abs(int(n)))) if n else 1


def _tiny(g: int) -> Fraction:
    return Fraction(1, 10**g)


@lru_cache(maxsize=None)
def _atan_inv(m: int, g: int) -> Fraction:
    """arctan(1/m) for integer m >= 2, alternating series, error < 10^-g."""
    term = Fraction(1, m)
    total = term
    k = 1
    m2 = m * m
    eps = _tiny(g + 1)
    while True:
        term /= m2
        k += 2
        piece = term / k
        total += -piece if (k // 2) % 2 else piece
        if piece < eps:  # alternating: tail bounded by the next term
            break
    return total


@lru_cache(maxsize=None)
def pi_approx(digits: int) -> Fraction:
    """pi via Machin: 16*arctan(1/5) - 4*arctan(1/239)."""
    g = digits + _GUARD
    value = 16 * _atan_inv(5, g + 2) - 4 * _atan_inv(239, g + 2)
    return round_to_digits(value, digits)


@lru_cache(maxsize=None)
def _ln2(g: int) -> Fraction:
    """ln 2 = 2*atanh(1/3), error < 10^-g."""
    u = Fraction(1, 3)
    u2 = u * u
    term = u
    total = term
    k = 1
    eps = _tiny(g + 1)
    while True:
        term *= u2
        k += 2
        piece = term / k
        total += piece
        if piece < eps:  # ratio <= 1/9, tail < piece/8
            break
    return 2 * total


@lru_cache(maxsize=None)
def exp_approx(x: Fraction, digits: int) -> Fraction:
    """e^x with absolute error < 10^-digits.

    Underflows to exact 0 once e^x < 10^-(digits+1); arguments past the
    magnitude cap raise ApproxOverflow rather than materializing an enormous
    numerator (callers probing divergence treat that as an oversize sample).
    """
    if x == 0:
        return ONE
    if x <= -3 * (digits + 2):  # e^{-3k} < 10^{-1.3k}
        return ZERO
    if x > _EXP_ARG_CAP:
        raise ApproxOverflow(f"exp argument {x} exceeds magnitude cap")
    halvings = 0
    y = x
    while abs(y) > HALF:
        y /= 2
        halvings += 1
    extra = (abs(int(x)) * 4343) // 10000 + 2  # digits of e^|x|
    g = digits + _GUARD + halvings + extra
    scale = 10**g
    sgn = -1 if y < 0 else 1
    yn, yd = abs(y.numerator), y.denominator
    m = scale
    total = scale
    k = 0
    cur = 1
    while m:  # |y| <= 1/2 so magnitudes decay to zero
        k += 1
        m = (m * yn) // (yd * k)
        cur *= sgn
        total += cur * m
    result = Fraction(total, scale)
    for _ in range(halvings):
        result = round_to_digits(result * result, g)
    return round_to_digits(result, digits)


@lru_cache(maxsize=None)
def ln_approx(x: Fraction, digits: int) -> Fraction:
    """ln x for x > 0, absolute error < 10^-digits."""
    if x <= 0:
        raise DomainError(f"ln of non-positive value {x}")
    if x == 1:
        return ZERO
    e2 = 0
    t = x
    while t > Fraction(3, 2):
        t /= 2
        e2 += 1
    while t < Fraction(3, 4):
        t *= 2
        e2 -= 1
    g = digits + _GUARD + _digits_of(e2)
    u = (t - 1) / (t + 1)  # |u| <= 1/5
    u2 = u * u
    term = u
    total = term
    k = 1
    eps = _tiny(g + 1)
    while abs(term) >= eps:
        term *= u2
        k += 2
        total += term / k
    value = 2 * total
    if e2:
        value += e2 * _ln2(g)
    return round_to_digits(value, digits)


def _sin_cos_reduced(r: Fraction, g: int) -> tuple[Fraction, Fraction]:
    """Taylor sin and cos for |r| <= 4 with error < 10^-g each.

    Runs on integers scaled by 10^g (term magnitudes with explicit alternating
    signs); the floor division costs at most one grid unit per step, covered
    by the guard digits.
    """
    sign_r = -1 if r < 0 else 1
    r = abs(r)
    scale = 10**g
    num2 = r.numerator * r.numerator
    den2 = r.denominator * r.denominator
    # sin: magnitudes m_i = r^(2i+1)/(2i+1)!
    m = (r.numerator * scale) // r.denominator
    total_s = m
    k = 1
    sign = 1
    while m:
        m = (m * num2) // (den2 * (k + 1) * (k + 2))
        k += 2
        sign = -sign
        total_s += sign * m
    # cos: magnitudes m_i = r^(2i)/(2i)!
    m = scale
    total_c = m
    k = 0
    sign = 1
    while m:
        m = (m * num2) // (den2 * (k + 1) * (k + 2))
        k += 2
        sign = -sign
        total_c += sign * m
    return Fraction(sign_r * total_s, scale), Fraction(total_c, scale)


def _reduce_angle(x: Fraction, g: int) -> tuple[Fraction, int]:
    """Return (r, extra_digits) with r = x - k*2pi, |r| <= 4."""
    if abs(x) <= 4:
        return x, 0
    extra = _digits_of(int(abs(x))) + 2
    two_pi = 2 * pi_approx(g + extra)
    k = round(x / two_pi)
    return x - k * two_pi, extra


@lru_cache(maxsize=None)
def sin_approx(x: Fraction, digits: int) -> Fraction:
    if x == 0:
        return ZERO
    g = digits + _GUARD
    r, extra = _reduce_angle(x, g)
    s, _ = _sin_cos_reduced(r, g + extra)
    return round_to_digits(s, digits)


@lru_cache(maxsize=None)
def cos_approx(x: Fraction, digits: int) -> Fraction:
    if x == 0:
        return ONE
    g = digits + _GUARD
    r, extra = _reduce_angle(x, g)
    _, c = _sin_cos_reduced(r, g + extra)
    return round_to_digits(c, digits)


@lru_cache(maxsize=None)
def tan_approx(x: Fraction, digits: int) -> Fraction:
    """tan x; refuses arguments whose cosine is 0 at working precision."""
    if x == 0:
        return ZERO
    g = digits + _GUARD + 4
    c = cos_approx(x, g)
    if abs(c) < _tiny(max(2, digits // 2)):
        raise DomainError(f"tan undefined near {x}: cos too close to 0")
    s = sin_approx(x, g)
    return round_to_digits(s / c, digits)


def _raise_zero_pow():
    raise DivisionByZero("0 raised to a negative power")


def _int_nthroot(a: int, n: int) -> int:
    """Floor of the integer n-th root of a >= 0."""
    if a < 0:
        raise ValueError("negative radicand")
    if a == 0:
        return 0
    if n == 1:
        return a
    if n == 2:
        return isqrt(a)
    if n >= a.bit_length():  # 2^n > a, so the floor root is 1
        return 1
    x = 1 << ((a.bit_length() + n - 1) // n + 1)
    while True:
        y = ((n - 1) * x + a // x ** (n - 1)) // n
        if y >= x:
            return x
        x = y


def exact_nth_root(x: Fraction, n: int) -> Fraction | None:
    """The exact rational n-th root of x >= 0, or None if irrational."""
    if x < 0:
        return None
    rn = _int_nthroot(x.numerator, n)
    if rn**n != x.numerator:
        return None
    rd = _int_nthroot(x.denominator, n)
    if rd**n != x.denominator:
        return None
    return Fraction(rn, rd)


@lru_cache(maxsize=None)
def sqrt_approx(x: Fraction, digits: int) -> Fraction:
    """sqrt(x) for x >= 0, error < 10^-digits.

    Perfect-square parts of the numerator and denominator are factored out
    before approximating, so sqrt(v/m^2) = sqrt~(v)/m exactly; polygonal sums
    of scaled copies of one segment then agree exactly across mesh sizes.
    """
    if x < 0:
        raise DomainError(f"sqrt of negative value {x}")
    if x == 0:
        return ZERO
    exact = exact_nth_root(x, 2)
    if exact is not None:
        return exact
    num, den = x.numerator, x.denominator
    sd = isqrt(den)
    if den > 1 and sd * sd == den:
        return sqrt_approx(Fraction(num), digits) / sd
    sn = isqrt(num)
    if den > 1 and sn * sn == num:
        return round_to_digits(sn / sqrt_approx(Fraction(den), digits + 6), digits)
    g = digits + 6
    approx = Fraction(isqrt(num * den * 10 ** (2 * g)), den * 10**g)
    return round_to_digits(approx, digits)


def power_too_large(x: Fraction, n: int) -> bool:
    """True when the exact x^n would exceed 200 000 bits (|n| times the size of x)."""
    return abs(n) * (x.numerator.bit_length() + x.denominator.bit_length()) > 200_000


def int_pow(x: Fraction, n: int, digits: int) -> Fraction:
    """x^n for integer n: exact, or exp(n ln x) to 10^-digits when the exact
    power is too large to build (which overflows for a base above 1)."""
    if power_too_large(x, n):
        if x == 0:
            return ZERO if n > 0 else _raise_zero_pow()
        if x < 0:
            raise ApproxOverflow(f"huge power of negative base {x}")
        g = digits + _GUARD + _digits_of(n)
        return round_to_digits(exp_approx(n * ln_approx(x, g), g - 4), digits)
    if n >= 0:
        return x**n
    if x == 0:
        raise DivisionByZero("0 raised to a negative power")
    return ONE / x ** (-n)


@lru_cache(maxsize=None)
def pow_approx(x: Fraction, r: Fraction, digits: int) -> Fraction:
    """x^r with error < 10^-digits; exact for integer r and perfect roots."""
    if r.denominator == 1:
        return int_pow(x, r.numerator, digits)
    if x == 0:
        if r > 0:
            return ZERO
        raise DivisionByZero("0 raised to a negative power")
    if x < 0:
        raise DomainError(f"non-integer power of negative value {x}")
    root = exact_nth_root(x, r.denominator)
    if root is not None:
        return pow_approx(root, Fraction(r.numerator), digits)
    g = digits + _GUARD + _digits_of(r.numerator) + _digits_of(r.denominator)
    y = r * ln_approx(x, g)
    return round_to_digits(exp_approx(y, g - 4), digits)


@lru_cache(maxsize=None)
def nth_root_approx(x: Fraction, n: int, digits: int) -> Fraction:
    """x^(1/n) for x > 0 and integer n >= 1; exact when x is a perfect power."""
    if n < 1:
        raise ValueError("root index must be a positive integer")
    if x <= 0:
        raise DomainError(f"nth root of non-positive value {x}")
    if n == 1:
        return x
    if n == 2:
        return sqrt_approx(x, digits)
    exact = exact_nth_root(x, n)
    if exact is not None:
        return exact
    return pow_approx(x, Fraction(1, n), digits)
