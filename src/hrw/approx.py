"""Rational approximations of elementary constants.

Every function returns an exact :class:`Fraction` within 10^-digits of the
true real value and finishes with a round to the 10^-digits grid (nearest,
ties to even).  No floating point is involved anywhere, so results are
identical across runs and platforms and can be cached by value.

Every series runs on integers scaled by 10^g, g = digits + guard digits, in
one of two kernels:

* ``_taylor_sums(y, scale)`` sums ``floor(|y|^k/k! * scale)`` grouped by
  ``k mod 4``, so ``exp = S0+S2 ± (S1+S3)``, ``cos = S0-S2`` and
  ``sin = ±(S1-S3)`` (arguments reduced to |y| <= 1/2 for exp, |y| <= 4
  for sin and cos);
* ``_atan_sums(u, scale)`` sums ``floor(|u|^(2k+1)/(2k+1) * scale)`` over
  even and odd k, so ``arctan = A0-A1`` (pi by Machin) and ``artanh = A0+A1``
  (``ln``, with ``ln 2 = 2 artanh(1/3)``), for |u| <= 1/3.

Each term is computed from the previous one by one floor division, which
loses less than one grid unit; the error carried from earlier terms is
multiplied by the term ratio (|y|/k <= 4/k, or u^2 <= 1/9), so it stays
below ten units per term.  A series has at most a few hundred terms, so the
floors cost less than 10^4 units of 10^-g, and the guard digits (at least
12) keep that below 10^-(digits+8): far under the final rounding.  A series
stops when its scaled term reaches 0, after which the tail is below one unit.

Exact cases short-circuit: integer powers, perfect roots, sin(0), ln(1).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt

from .errors import ApproxOverflow, DivisionByZero, DomainError
from .rationals import round_to_digits, show_rational

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)

_GUARD = 12  # guard digits on top of the requested precision
_EXP_ARG_CAP = 300  # e^300 ~ 10^130; enough to witness any divergence bound
CACHE_SIZE = 4096  # entries kept per cached function (least recently used evicted)
POWER_BITS = 200_000  # largest exact power built, in bits


def _digits_of(n: int) -> int:
    return len(str(abs(int(n)))) if n else 1


def _taylor_sums(y: Fraction, scale: int) -> list[int]:
    """[S0, S1, S2, S3]: S_j sums floor(|y|^k/k! * scale) over k = j mod 4."""
    n, d = abs(y.numerator), y.denominator
    sums = [0, 0, 0, 0]
    m, k = scale, 0
    while m:
        sums[k & 3] += m
        k += 1
        m = (m * n) // (d * k)
    return sums


def _atan_sums(u: Fraction, scale: int) -> list[int]:
    """[A0, A1]: A_j sums floor(|u|^(2k+1)/(2k+1) * scale) over k = j mod 2."""
    n, d = abs(u.numerator), u.denominator
    n2, d2 = n * n, d * d
    sums = [0, 0]
    p, k = (n * scale) // d, 0  # p = floor(|u|^(2k+1) * scale)
    while p:
        sums[k & 1] += p // (2 * k + 1)
        k += 1
        p = (p * n2) // d2
    return sums


@lru_cache(maxsize=CACHE_SIZE)
def pi_approx(digits: int) -> Fraction:
    """pi via Machin: 16*arctan(1/5) - 4*arctan(1/239)."""
    scale = 10 ** (digits + _GUARD + 2)
    a0, a1 = _atan_sums(Fraction(1, 5), scale)
    b0, b1 = _atan_sums(Fraction(1, 239), scale)
    return round_to_digits(Fraction(16 * (a0 - a1) - 4 * (b0 - b1), scale), digits)


@lru_cache(maxsize=CACHE_SIZE)
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
        raise ApproxOverflow(f"exp argument {show_rational(x)} exceeds magnitude cap")
    halvings = 0
    y = x
    while abs(y) > HALF:
        y /= 2
        halvings += 1
    extra = (abs(int(x)) * 4343) // 10000 + 2  # digits of e^|x|
    g = digits + _GUARD + halvings + extra
    scale = 10**g
    s0, s1, s2, s3 = _taylor_sums(y, scale)
    odd = s1 + s3 if y > 0 else -(s1 + s3)
    result = Fraction(s0 + s2 + odd, scale)
    for _ in range(halvings):
        result = round_to_digits(result * result, g)
    return round_to_digits(result, digits)


@lru_cache(maxsize=CACHE_SIZE)
def ln_approx(x: Fraction, digits: int) -> Fraction:
    """ln x for x > 0, absolute error < 10^-digits.

    x = 2^e2 * t with t in [3/4, 3/2], and ln t = 2 artanh((t-1)/(t+1)).
    """
    if x <= 0:
        raise DomainError(f"ln of non-positive value {show_rational(x)}")
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
    scale = 10 ** (digits + _GUARD + _digits_of(e2))
    u = (t - 1) / (t + 1)  # |u| <= 1/5
    total = sum(_atan_sums(u, scale))
    if u < 0:
        total = -total
    if e2:
        total += e2 * sum(_atan_sums(Fraction(1, 3), scale))
    return round_to_digits(Fraction(2 * total, scale), digits)


def _sin_cos(x: Fraction, g: int) -> tuple[Fraction, Fraction]:
    """(sin x, cos x), each within 10^-(g-4).

    Arguments past 4 are first reduced by the nearest multiple of 2pi, with
    pi and the series carrying extra digits for the size of x.
    """
    if abs(x) > 4:
        g += _digits_of(int(abs(x))) + 2
        two_pi = 2 * pi_approx(g)
        x -= round(x / two_pi) * two_pi
    scale = 10**g
    s0, s1, s2, s3 = _taylor_sums(x, scale)
    odd = s1 - s3 if x >= 0 else s3 - s1
    return Fraction(odd, scale), Fraction(s0 - s2, scale)


@lru_cache(maxsize=CACHE_SIZE)
def sin_cos_approx(x: Fraction, digits: int) -> tuple[Fraction, Fraction]:
    """(sin x, cos x), each within 10^-digits, from one pass."""
    if x == 0:
        return ZERO, ONE
    s, c = _sin_cos(x, digits + _GUARD)
    return round_to_digits(s, digits), round_to_digits(c, digits)


def sin_approx(x: Fraction, digits: int) -> Fraction:
    return sin_cos_approx(x, digits)[0]


def cos_approx(x: Fraction, digits: int) -> Fraction:
    return sin_cos_approx(x, digits)[1]


@lru_cache(maxsize=CACHE_SIZE)
def tan_approx(x: Fraction, digits: int) -> Fraction:
    """tan x; refuses arguments with |cos x| < 10^-max(2, digits).

    The error of s/c grows as 1/cos^2, so when |cos x| < 10^-k (k leading
    zero digits) sin and cos are recomputed with 2k more guard digits.
    """
    if x == 0:
        return ZERO
    g = digits + _GUARD + 4
    s, c = _sin_cos(x, g + _GUARD)
    c = round_to_digits(c, g)
    if abs(c) * 10 ** max(2, digits) < 1:
        raise DomainError(f"tan undefined near {show_rational(x)}: cos too close to 0")
    k = g - _digits_of(int(abs(c) * 10**g))
    if k > 0:
        g += 2 * k
        s, c = _sin_cos(x, g + _GUARD)
        c = round_to_digits(c, g)
    return round_to_digits(round_to_digits(s, g) / c, digits)


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


@lru_cache(maxsize=CACHE_SIZE)
def sqrt_approx(x: Fraction, digits: int) -> Fraction:
    """sqrt(x) for x >= 0, error < 10^-digits.

    Perfect-square parts of the numerator and denominator are factored out
    before approximating, so sqrt(v/m^2) = sqrt~(v)/m exactly; polygonal sums
    of scaled copies of one segment then agree exactly across mesh sizes.
    """
    if x < 0:
        raise DomainError(f"sqrt of negative value {show_rational(x)}")
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
    """True when the exact x^n would exceed POWER_BITS (|n| times the size of x)."""
    return abs(n) * (x.numerator.bit_length() + x.denominator.bit_length()) > POWER_BITS


def _exp_ln(x: Fraction, r: Fraction, g: int, digits: int) -> Fraction:
    """x^r = exp(r ln x) for x > 0 to 10^-digits, ln taken to g digits; an
    overflow names the power rather than the exponent of exp."""
    try:
        return round_to_digits(exp_approx(r * ln_approx(x, g), g - 4), digits)
    except ApproxOverflow:
        base = show_rational(x) if x.denominator == 1 else f"({show_rational(x)})"
        power = show_rational(r) if r.denominator == 1 else f"({show_rational(r)})"
        raise ApproxOverflow(f"power {base}^{power} exceeds magnitude cap") from None


def int_pow(x: Fraction, n: int, digits: int) -> Fraction:
    """x^n for integer n: exact, or exp(n ln x) to 10^-digits when the exact
    power is too large to build (which overflows for a base above 1); powers
    of 0, 1 and -1 are trivial and always exact."""
    if abs(x) not in (ZERO, ONE) and power_too_large(x, n):
        if x < 0:
            raise ApproxOverflow(f"huge power of negative base {show_rational(x)}")
        return _exp_ln(x, Fraction(n), digits + _GUARD + _digits_of(n), digits)
    if n >= 0:
        return x**n
    if x == 0:
        raise DivisionByZero("0 raised to a negative power")
    return ONE / x ** (-n)


@lru_cache(maxsize=CACHE_SIZE)
def pow_approx(x: Fraction, r: Fraction, digits: int) -> Fraction:
    """x^r with error < 10^-digits; exact for integer r and perfect roots."""
    if r.denominator == 1:
        return int_pow(x, r.numerator, digits)
    if x == 0:
        if r > 0:
            return ZERO
        raise DivisionByZero("0 raised to a negative power")
    if x < 0:
        raise DomainError(f"non-integer power of negative value {show_rational(x)}")
    root = exact_nth_root(x, r.denominator)
    if root is not None:
        return pow_approx(root, Fraction(r.numerator), digits)
    g = digits + _GUARD + _digits_of(r.numerator) + _digits_of(r.denominator)
    return _exp_ln(x, r, g, digits)


@lru_cache(maxsize=CACHE_SIZE)
def nth_root_approx(x: Fraction, n: int, digits: int) -> Fraction:
    """x^(1/n) for x > 0 and integer n >= 1; exact when x is a perfect power."""
    if n < 1:
        raise ValueError("root index must be a positive integer")
    if x <= 0:
        raise DomainError(f"nth root of non-positive value {show_rational(x)}")
    if n == 1:
        return x
    if n == 2:
        return sqrt_approx(x, digits)
    exact = exact_nth_root(x, n)
    if exact is not None:
        return exact
    return pow_approx(x, Fraction(1, n), digits)
