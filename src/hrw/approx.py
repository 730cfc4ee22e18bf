"""Rational approximations of elementary constants.

Every value is exact and within 10^-digits of the true real value: an exact
value, a point of the 10^-digits grid (a guarded approximation rounded to
nearest, ties to even), or for sqrt(v/m^2) that point for sqrt(v) divided by
m.  sin, cos and tan are correctly rounded: their grid point is the one
nearest the true value, whatever method computed it (Ziv's test, below).
No floating point is involved anywhere, so results are identical across
runs and platforms.

Each kernel is an integer function of its argument's numerator n and
positive denominator d, which need not be reduced: it reduces the pair by
one gcd, so its series runs on the same operands whatever common factor the
pair carries, and its errors name the reduced value.  ``exp_grid``,
``ln_grid``, ``sin_grid``, ``cos_grid``, ``sin_cos_grid`` and ``tan_grid``
return grid numerators, integers N standing for N/10^digits (exact cases
too: exp 0 is 10^digits); ``sqrt_pair`` returns a (numerator, denominator)
pair, since exact roots and sqrt(v/m^2) keep denominators of their own.
Compiled code (``hrw.exprs``) calls the kernels once per point, with no
:class:`Fraction` and no cache, and a sum over its grid values adds
numerators over the one denominator 10^digits.

The public :class:`Fraction` functions ``pi_approx``, ``exp_approx``,
``ln_approx``, ``sin_cos_approx`` (with ``sin_approx`` and ``cos_approx``),
``tan_approx`` and ``sqrt_approx`` are thin wrappers over the same kernels,
cached by value, for ``eval_real``, the series field and the measures.
``int_pow``, ``pow_approx`` and ``nth_root_approx`` stay :class:`Fraction`
functions, their real powers taken as exp(r ln x) through the wrappers.

Inside a kernel, a series value is an integer S that stands for S/10^g, g =
digits + guard digits; the result is S rounded once to the 10^-digits grid
by one ``divmod`` (``rationals.round_half_even``).  Two series kernels do
the work:

* ``_taylor_sums(n, d, scale)`` sums ``floor((n/d)^k/k! * scale)`` grouped by
  ``k mod 4``, so ``exp = S0+S2 ± (S1+S3)``, ``cos = S0-S2`` and
  ``sin = ±(S1-S3)`` (arguments reduced to |y| <= 1/2 for exp, |y| <= 1/64
  for sin and cos);
* ``_atan_sums(n, d, scale)`` sums ``floor((n/d)^(2k+1)/(2k+1) * scale)``
  over even and odd k, so ``arctan = A0-A1`` (pi by Machin, kept per
  precision) and ``artanh = A0+A1`` (``ln``, with ``ln 2 = 2
  artanh(1/3)``, summed once per scale), for n/d <= 1/3.

A floor of ``m*n // (d*k)`` depends only on the ratio n/d, so no fraction is
reduced past the kernel's first gcd.  The range reductions are integer operations too:

* exp halves its argument h times, to |x|/2^h <= 1/2, by shifting d, then
  squares the series value h times, each square rounded back to the grid:
  ``R = round_half_even(R*R, 10^g)``;
* ln writes x = 2^e2 * t with t in [3/4, 3/2], e2 taken from bit lengths,
  and sums ln t = 2 artanh((t-1)/(t+1)), |(t-1)/(t+1)| <= 1/5;
* sin and cos past |x| = 4 subtract k*2pi, k = round(x/2pi), as
  ``(n*Q - k*P*d) / (d*Q)`` with 2pi = P/Q, Q = 10^g', pi and the series
  carrying extra digits for the size of x;
* then they split |y| = j/32 + delta, j the nearest integer to 32|y| and
  |delta| <= 1/64, and combine the series of delta with sin and cos of j/32
  by angle addition: four integer products, each sum floored back to
  10^-g'.  sin and cos of j/32 come from a table kept per precision g',
  each entry summed by ``_taylor_sums`` at g' + 4 digits on first use and
  rounded; like pi and ln 2, it is a plain dict cleared at ``CACHE_SIZE``
  entries (j <= 128, so at most 129 entries per precision).

Error budget.  Each term is computed from the previous one by one floor
division, which loses less than one grid unit; the error carried from
earlier terms is multiplied by the term ratio (|y|/k <= 4/k, or u^2 <= 1/9),
so it stays below ten units per term.  A series has at most a few hundred
terms, so the floors cost less than 10^4 units of 10^-g, and the guard
digits (at least 12) keep that below 10^-(digits+8): far under the final
rounding.  A series stops when its scaled term reaches 0, after which the
tail is below one unit.  Each of exp's h squarings doubles the relative
error of R and adds half a unit, so they multiply the series error by at
most 2^h < 10^h, and the value e^x has at most (|x| log10 e) + 1 integer
digits: exp carries h plus that many more guard digits.

sin and cos, in units of 10^-g': the delta series has ratios |delta|/k <=
1/64, so each term is off by under 1.02 units, and it has at most g'/1.8 + 1
terms (64^k k! > 10^g' past that); a table entry is off by under 0.6 +
g'/1000 units (ten units a term at g' + 4 digits, then rounded); angle
addition weighs the series error by |sin| + |cos| <= 1.42 and floors once.
That is under g' + 5 units.  The 2pi reduction adds |k| times the error of
2pi, under two units, to the argument.  So ``_sin_cos`` returns each value
with the bound e = 2(g' + |k|) + 8 units.  Ziv's test then rounds: when
[v - e, v + e] holds no midpoint of the 10^-digits grid, every value in it,
the true one too, rounds to the same point; otherwise the sums run again
with _GUARD more digits.  For tan = s/c the bound is e(c + |s|)/(c(c - e))
for c > 0.  The retries end, because sin, cos and tan of a nonzero rational
are transcendental (Lindemann), so never a midpoint.

Exact cases short-circuit: integer powers, perfect roots, sin(0), ln(1).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

from .errors import ApproxOverflow, DivisionByZero, DomainError
from .rationals import round_half_even, show_rational

ZERO = Fraction(0)
ONE = Fraction(1)

_GUARD = 12  # guard digits on top of the requested precision
_EXP_ARG_CAP = 300  # e^300 ~ 10^130; enough to witness any divergence bound
CACHE_SIZE = 4096  # entries kept per cached function (least recently used evicted)
POWER_BITS = 200_000  # largest exact power built, in bits


_LOG10_2 = 30102999566398119521373889472449302676  # floor(log10(2) * 10^38)


def _digits_of(n: int) -> int:
    """The decimal digits of |n| (1 for 0), exact at any size: the bit length
    b gives t = floor((b-1) log10 2) + 1 <= digits <= t + 1, and one
    comparison with 10^t settles which."""
    n = abs(n)
    t = (max(n.bit_length(), 1) - 1) * _LOG10_2 // 10**38 + 1
    return t + 1 if n >= 10**t else t


def _taylor_sums(n: int, d: int, scale: int) -> list[int]:
    """[S0, S1, S2, S3]: S_j sums floor((n/d)^k/k! * scale) over k = j mod 4, n >= 0."""
    sums = [0, 0, 0, 0]
    m, k = scale, 0
    while m:
        sums[k & 3] += m
        k += 1
        m = (m * n) // (d * k)
    return sums


def _atan_sums(n: int, d: int, scale: int) -> list[int]:
    """[A0, A1]: A_j sums floor((n/d)^(2k+1)/(2k+1) * scale) over k = j mod 2, n >= 0."""
    n2, d2 = n * n, d * d
    sums = [0, 0]
    p, k = (n * scale) // d, 0  # p = floor((n/d)^(2k+1) * scale)
    while p:
        sums[k & 1] += p // (2 * k + 1)
        k += 1
        p = (p * n2) // d2
    return sums


def _lowest(n: int, d: int) -> tuple[int, int]:
    """n/d in lowest terms, for d > 0: a kernel's one gcd."""
    g = gcd(n, d)
    return (n // g, d // g) if g > 1 else (n, d)


_PI: dict[int, int] = {}  # digits -> pi's grid numerator over 10^digits


def _pi_grid(digits: int) -> int:
    """pi via Machin, 16*arctan(1/5) - 4*arctan(1/239), as a grid numerator."""
    pi = _PI.get(digits)
    if pi is None:
        if len(_PI) >= CACHE_SIZE:
            _PI.clear()
        g = digits + _GUARD + 2
        scale = 10**g
        a0, a1 = _atan_sums(1, 5, scale)
        b0, b1 = _atan_sums(1, 239, scale)
        pi = _PI[digits] = round_half_even(16 * (a0 - a1) - 4 * (b0 - b1), 10 ** (g - digits))
    return pi


def exp_grid(n: int, d: int, digits: int) -> int:
    """e^(n/d) for d > 0 as a numerator over 10^digits, error < 10^-digits.

    Underflows to exact 0 once e^x < 10^-(digits+1); arguments past the
    magnitude cap raise ApproxOverflow rather than materializing an enormous
    numerator (callers probing divergence treat that as an oversize sample).
    """
    if not n:
        return 10**digits
    if n <= -3 * (digits + 2) * d:  # e^{-3k} < 10^{-1.3k}
        return 0
    n, d = _lowest(n, d)
    if n > _EXP_ARG_CAP * d:
        raise ApproxOverflow(f"exp argument {show_rational(Fraction(n, d))} exceeds magnitude cap")
    a = abs(n)
    halvings = 0  # the least h with a/(d*2^h) <= 1/2
    if 2 * a > d:
        halvings = (2 * a).bit_length() - d.bit_length()
        if d << halvings < 2 * a:
            halvings += 1
    extra = (a // d * 4343) // 10000 + 2  # digits of e^|x|
    g = digits + _GUARD + halvings + extra
    scale = 10**g
    s0, s1, s2, s3 = _taylor_sums(a, d << halvings, scale)
    r = s0 + s2 + (s1 + s3 if n > 0 else -(s1 + s3))
    for _ in range(halvings):
        r = round_half_even(r * r, scale)
    return round_half_even(r, 10 ** (g - digits))


_ARTANH_THIRD: dict[int, int] = {}  # g -> A0+A1 of artanh(1/3) over 10^g (ln 2 = 2 artanh(1/3))


def ln_grid(n: int, d: int, digits: int) -> int:
    """ln(n/d) for n/d > 0, d > 0, as a numerator over 10^digits, error < 10^-digits.

    x = 2^e2 * t with t in [3/4, 3/2], and ln t = 2 artanh((t-1)/(t+1)).
    """
    n, d = _lowest(n, d)
    if n <= 0:
        raise DomainError(f"ln of non-positive value {show_rational(Fraction(n, d))}")
    if n == d:
        return 0
    e2 = 0
    if 2 * n > 3 * d:  # the least e2 with t = n/(d*2^e2) <= 3/2
        e2 = (2 * n).bit_length() - (3 * d).bit_length()
        if (3 * d) << e2 < 2 * n:
            e2 += 1
        d <<= e2
    elif 4 * n < 3 * d:  # the least -e2 with t = n*2^-e2/d >= 3/4
        e2 = (4 * n).bit_length() - (3 * d).bit_length()
        if (4 * n) << -e2 < 3 * d:
            e2 -= 1
        n <<= -e2
    g = digits + _GUARD + _digits_of(e2)
    scale = 10**g
    total = sum(_atan_sums(abs(n - d), n + d, scale))  # artanh |t-1|/(t+1)
    if n < d:
        total = -total
    if e2:
        third = _ARTANH_THIRD.get(g)
        if third is None:
            if len(_ARTANH_THIRD) >= CACHE_SIZE:
                _ARTANH_THIRD.clear()
            third = _ARTANH_THIRD[g] = sum(_atan_sums(1, 3, scale))
        total += e2 * third
    return round_half_even(2 * total, 10 ** (g - digits))


_STEP = 32  # sin and cos split |y| = j/_STEP + delta, |delta| <= 1/(2 _STEP)
_TABLE: dict[tuple[int, int], tuple[int, int]] = {}  # (g, j) -> sin, cos of j/_STEP over 10^g


def _node(j: int, g: int) -> tuple[int, int]:
    """sin and cos of j/_STEP (0 <= j <= 4 _STEP) over 10^g, each summed at
    g + 4 digits and rounded: within 0.6 + g/1000 units."""
    entry = _TABLE.get((g, j))
    if entry is None:
        if len(_TABLE) >= CACHE_SIZE:
            _TABLE.clear()
        s0, s1, s2, s3 = _taylor_sums(j, _STEP, 10 ** (g + 4))
        entry = _TABLE[g, j] = round_half_even(s1 - s3, 10**4), round_half_even(s0 - s2, 10**4)
    return entry


def _sin_cos(n: int, d: int, g: int) -> tuple[int, int, int, int]:
    """(S, C, g', e): sin and cos of n/d (d > 0) as S/10^g' and C/10^g', each
    within e/10^g'.

    Arguments past 4 are first reduced by the nearest multiple k of 2pi, with
    pi and the series carrying g' - g extra digits for the size of x.  Then
    |y| = j/_STEP + delta, and the table's sin and cos of j/_STEP meet the
    series of delta by angle addition.
    """
    k = 0
    if abs(n) > 4 * d:
        g += _digits_of(abs(n) // d) + 2
        p, q = 2 * _pi_grid(g), 10**g  # 2pi = p/q
        k = round_half_even(n * q, p * d)
        n, d = n * q - k * p * d, d * q
    a, scale = abs(n), 10**g
    j = (2 * _STEP * a + d) // (2 * d)  # the node nearest |y|
    sj, cj = _node(j, g)
    t = _STEP * a - j * d  # delta = t/(_STEP d)
    s0, s1, s2, s3 = _taylor_sums(abs(t), _STEP * d, scale)
    sd, cd = (s1 - s3 if t >= 0 else s3 - s1), s0 - s2
    s = (sj * cd + cj * sd) // scale
    return (s if n >= 0 else -s), (cj * cd - sj * sd) // scale, g, 2 * (g + abs(k)) + 8


def _nearest(v: int, e: int, unit: int) -> int | None:
    """Ziv's test: the integer nearest w/unit, the same for every w within e
    of v, or None when [v - e, v + e] holds a midpoint (unit even)."""
    q, r = divmod(v + (unit >> 1), unit)
    return q if e <= r < unit - e else None


def sin_cos_grid(n: int, d: int, digits: int) -> tuple[int, int]:
    """(sin, cos) of n/d for d > 0 as numerators over 10^digits, each
    correctly rounded, from one pass."""
    if not n:
        return 0, 10**digits
    n, d = _lowest(n, d)
    g = digits + _GUARD
    while True:  # ends: sin and cos of a nonzero rational are transcendental
        s, c, gs, e = _sin_cos(n, d, g)
        unit = 10 ** (gs - digits)
        s, c = _nearest(s, e, unit), _nearest(c, e, unit)
        if s is not None and c is not None:
            return s, c
        g += _GUARD


def sin_grid(n: int, d: int, digits: int) -> int:
    return sin_cos_grid(n, d, digits)[0]


def cos_grid(n: int, d: int, digits: int) -> int:
    return sin_cos_grid(n, d, digits)[1]


def tan_grid(n: int, d: int, digits: int) -> int:
    """tan(n/d) for d > 0 as a correctly rounded numerator over 10^digits;
    refuses arguments with |cos x| < 10^-max(2, digits).

    The error of s/c grows as 1/cos^2, so when |cos x| < 10^-k (k leading
    zero digits) sin and cos are recomputed with 2k more guard digits.
    """
    if not n:
        return 0
    n, d = _lowest(n, d)
    g = digits + _GUARD + 4
    s, c, gs, e = _sin_cos(n, d, g + _GUARD)
    c_g = round_half_even(c, 10 ** (gs - g))  # cos x over 10^g
    if abs(c_g) < 10 ** (g - max(2, digits)):
        raise DomainError(f"tan undefined near {show_rational(Fraction(n, d))}: cos too close to 0")
    more, unit = 2 * max(0, g - _digits_of(c_g)), 10**digits
    while True:  # ends: tan of a nonzero rational is transcendental
        if more:
            g += more
            s, c, gs, e = _sin_cos(n, d, g + _GUARD)
        if c < 0:
            s, c = -s, -c
        # |s/c - tan x| <= e(c + |s|)/(c(c - e)); in grid units over 2c(c - e)
        t = _nearest(2 * s * unit * (c - e), 2 * e * unit * (c + abs(s)), 2 * c * (c - e))
        if t is not None:
            return t
        more = _GUARD


def _sqrt_grid(n: int, d: int, digits: int) -> int:
    """sqrt(n/d) for n, d > 0 as a numerator over 10^digits, from the integer
    square root at 6 more digits."""
    g = digits + 6
    return round_half_even(isqrt(n * d * 10 ** (2 * g)), d * 10 ** (g - digits))


def sqrt_pair(n: int, d: int, digits: int) -> tuple[int, int]:
    """sqrt(n/d) for n/d >= 0, d > 0, as a (numerator, denominator) pair,
    error < 10^-digits.

    Perfect-square parts of the reduced numerator and denominator are
    factored out before approximating, so sqrt(v/m^2) = sqrt~(v)/m exactly;
    polygonal sums of scaled copies of one segment then agree exactly across
    mesh sizes.  sqrt(m^2/v) is m/sqrt~(v) rounded, sqrt~(v) taken to 6 more
    digits and to as many more as m/v has integer digits.  Every other value
    is a grid numerator over 10^digits.
    """
    n, d = _lowest(n, d)
    if n <= 0:
        if n == 0:
            return 0, 1
        raise DomainError(f"sqrt of negative value {show_rational(Fraction(n, d))}")
    sn, sd = isqrt(n), isqrt(d)
    num_square, den_square = sn * sn == n, sd * sd == d
    if num_square and den_square:
        return sn, sd
    unit = 10**digits
    if d > 1 and den_square:
        return _sqrt_grid(n, 1, digits), unit * sd
    if num_square:  # d > 1, as d is not a square
        wide = digits + 6 + (_digits_of(sn // d) if sn > d else 0)
        return round_half_even(sn * 10**wide * unit, _sqrt_grid(d, 1, wide)), unit
    return _sqrt_grid(n, d, digits), unit


# -- the cached Fraction functions: eval_real, the series field and the measures ----------


@lru_cache(maxsize=CACHE_SIZE)
def pi_approx(digits: int) -> Fraction:
    """pi within 10^-digits."""
    return Fraction(_pi_grid(digits), 10**digits)


@lru_cache(maxsize=CACHE_SIZE)
def exp_approx(x: Fraction, digits: int) -> Fraction:
    """e^x within 10^-digits: ``exp_grid``."""
    return Fraction(exp_grid(x.numerator, x.denominator, digits), 10**digits)


@lru_cache(maxsize=CACHE_SIZE)
def ln_approx(x: Fraction, digits: int) -> Fraction:
    """ln x for x > 0 within 10^-digits: ``ln_grid``."""
    return Fraction(ln_grid(x.numerator, x.denominator, digits), 10**digits)


@lru_cache(maxsize=CACHE_SIZE)
def sin_cos_approx(x: Fraction, digits: int) -> tuple[Fraction, Fraction]:
    """(sin x, cos x), each within 10^-digits, from one pass: ``sin_cos_grid``."""
    s, c = sin_cos_grid(x.numerator, x.denominator, digits)
    unit = 10**digits
    return Fraction(s, unit), Fraction(c, unit)


def sin_approx(x: Fraction, digits: int) -> Fraction:
    return sin_cos_approx(x, digits)[0]


def cos_approx(x: Fraction, digits: int) -> Fraction:
    return sin_cos_approx(x, digits)[1]


@lru_cache(maxsize=CACHE_SIZE)
def tan_approx(x: Fraction, digits: int) -> Fraction:
    """tan x within 10^-digits, refused near a pole: ``tan_grid``."""
    return Fraction(tan_grid(x.numerator, x.denominator, digits), 10**digits)


@lru_cache(maxsize=CACHE_SIZE)
def sqrt_approx(x: Fraction, digits: int) -> Fraction:
    """sqrt(x) for x >= 0 within 10^-digits: ``sqrt_pair``."""
    return Fraction(*sqrt_pair(x.numerator, x.denominator, digits))


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


def power_too_large(x: Fraction, n: int) -> bool:
    """True when the exact x^n would exceed POWER_BITS (|n| times the size of x)."""
    return abs(n) * (x.numerator.bit_length() + x.denominator.bit_length()) > POWER_BITS


def _exp_ln(x: Fraction, r: Fraction, g: int, digits: int) -> Fraction:
    """x^r = exp(r ln x) for x > 0 to 10^-digits, ln taken to g digits; an
    overflow names the power rather than the exponent of exp."""
    try:
        v = exp_approx(r * ln_approx(x, g), g - 4)
    except ApproxOverflow:
        base = show_rational(x) if x.denominator == 1 else f"({show_rational(x)})"
        power = show_rational(r) if r.denominator == 1 else f"({show_rational(r)})"
        raise ApproxOverflow(f"power {base}^{power} exceeds magnitude cap") from None
    return Fraction(round_half_even(v.numerator * 10**digits, v.denominator), 10**digits)


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
