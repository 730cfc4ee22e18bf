"""Rational approximations of elementary constants.

Every value is exact and within 10^-digits of the true real value: an exact
value, the point of the 10^-digits grid nearest the true value, or for
sqrt(v/m^2) that point for sqrt(v) divided by m.  exp, ln, sin, cos, tan,
sqrt and pi are correctly rounded: their grid point is the one nearest the
true value, whatever method computed it (Ziv's test, below).  No floating
point is involved anywhere, so results are identical across runs and
platforms.

Each kernel is an integer function of its argument's numerator n and
positive denominator d, which need not be reduced: it reduces the pair by
one gcd, so its series runs on the same operands whatever common factor the
pair carries, and its errors name the reduced value.  ``exp_grid``,
``ln_grid``, ``sin_cos_grid`` (sin and cos from one pass) and ``tan_grid``
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

Binary fixed point.  Inside a kernel a value is an integer V standing for
V/2^p, p bits past the point; p starts at the bits of digits + _GUARD
decimal digits.  The argument enters once, as the integer nearest n 2^p/d
(one division), and two series run on it, each term from the previous by
one product, one shift and one division by a small integer:

* ``_taylor(x, p)`` sums the terms x^k/k!, T_k = (T_{k-1} x >> p) // k,
  grouped by k mod 4, so exp = S0+S1+S2+S3 (S0-S1+S2-S3 for -x),
  cos = S0-S2 and sin = S1-S3;
* ``_odd(x, p)`` sums the terms x^(2k+1)/(2k+1) over even and odd k, so
  arctan = A0-A1 and artanh = A0+A1.

The range reductions leave those series short arguments, and each takes
what it removes from a table kept per precision p: a plain dict cleared at
``CACHE_SIZE`` entries, filled on first use, each entry summed once at p +
32 bits and rounded to p (``_entry``):

* sin and cos: |y| = j/32 + delta, j the nearest integer to 32|y| and
  |delta| <= 1/64, then angle addition with sin and cos of j/32 (j <= 128);
  past |x| = 4 they first take off k 2pi, k the nearest integer to x/2pi,
  at as many more bits as x has integer bits;
* exp: x = m ln 2 + j/32 + delta, m the nearest integer to x log2 e (from a
  64-bit log2 e, so |x log2 e - m| <= 1/2 + 2^-55 for |x| <= 300) and j
  to 32(x - m ln 2), |delta| <= 1/64, and e^x = 2^m e^(j/32) e^delta; the
  table holds e^(j/32), |j| <= 11, and the value is read with m fewer bits
  past the point;
* ln: x = 2^e2 t with t in [3/4, 3/2], e2 from bit lengths, then t = c_j
  (1 + w) with c_j = 1 + j/64 the nearest node, -16 <= j <= 32, and ln t =
  ln c_j + 2 artanh(u), u = (t - c_j)/(t + c_j), |u| <= 1/190; the table
  holds ln c_j = 2 artanh(j/(128 + j)), and ln 2 is its node c_64 = 2;
* pi = 16 arctan(1/5) - 4 arctan(1/239) (Machin), kept per p; its value at
  p + 1 bits is 2pi at p bits.

Error budget, in units of 2^-p (ulps).  A table entry or constant is within
1 (1/2 for its rounding, under 2^-20 for its sum at p + 32 bits).  A floor
loses under 1.  The argument x is within 1/2.

* ``_taylor`` at |x| <= 1/64 + 2^-p: T_k is off by e_k <= e_{k-1} |x|/k + 1
  < 1.02, and once T_n = 0 the exact tail is under 1.02 (1 + 1/64 + ...) <
  1.04, so n terms are within 2n.  At |x| <= 4 (the table's sin and cos of
  j/32) e_k stays under 6 and the tail under 11: within 8n + 16.
* ``_odd`` at |x| <= 1/3: the power p_k = p_{k-1} x^2 >> p, with x^2 >> p
  itself floored, is off by e_k <= e_{k-1}/9 + 4/3 < 1.5; term k >= 1 is
  then off by under 1.5, term 0 is exact, and the tail once p_n = 0 is
  under 0.6: n terms are within 2n + 1.
* sin and cos: the reduced y is within 1/2 + |k|, since 2pi is within 1;
  the series of delta are within 2n each; angle addition weighs them by
  |sin| + |cos| <= 1.42 and the table's 1 by |sin delta| + |cos delta| <=
  1.02, and floors once: 2.84n + |k| + 2.52, within e = 4n + |k| + 3.
* exp: r = x - m ln 2 is within 1/2 + |m|, weighed by e^|r| <= 1.42;
  e^delta is within 2n, weighed by e^(j/32) <= 1.42; the table's 1 is
  weighed by e^delta <= 1.02, and the product floored once: 2.84n + 1.42|m|
  + 2.73, within e = 4n + 2|m| + 3 units of e^r, that is of 2^-(p-m) for
  e^x.
* ln: u is within 1/2, so 2 artanh(u) is within 2(2n + 1 + 0.51); ln c_j
  adds 1 and e2 ln 2 adds |e2|: within e = 4n + |e2| + 5.
* pi: 16 and 4 times the arctan series at 1/5 and 1/239, each within 2n +
  1 plus 1/2 for its argument.

Ziv's test then rounds: when [V - e, V + e] holds no midpoint of the
10^-digits grid, every value in it, the true one too, rounds to the same
point; otherwise the kernel runs again at _GUARD more digits.  For tan = s/c
the bound is e(c + |s|)/(c(c - e)) for c > 0, and the refusal |cos x| <
10^-max(2, digits) is decided the same way.  The retries end, because exp,
ln, sin, cos and tan of a nonzero rational other than ln 1 are
transcendental (Lindemann), so never a midpoint, and |cos x| is never a
power of 10.  sqrt needs no retry: the grid point nearest sqrt(n/d) is
(isqrt(4 n d 10^(2 digits)) // d + 1) // 2 when n/d is not a square.

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
_LOG2_E = 0x171547652B82FE177  # floor(log2(e) * 2^64)


def _digits_of(n: int) -> int:
    """The decimal digits of |n| (1 for 0), exact at any size: the bit length
    b gives t = floor((b-1) log10 2) + 1 <= digits <= t + 1, and one
    comparison with 10^t settles which."""
    n = abs(n)
    t = (max(n.bit_length(), 1) - 1) * _LOG10_2 // 10**38 + 1
    return t + 1 if n >= 10**t else t


def _bits(digits: int) -> int:
    """A number of bits b with 2^b > 10^digits (3402/1024 > log2 10)."""
    return (digits * 3402 >> 10) + 1


def _taylor(x: int, p: int) -> tuple[int, int, int, int, int]:
    """(S0, S1, S2, S3, n): S_j sums the terms x^k/k! over k = j mod 4, for
    x >= 0, all over 2^p, and n counts the terms."""
    s0 = s1 = s2 = s3 = 0
    t, k = 1 << p, 0
    while t:
        s0 += t
        t = (t * x >> p) // (k + 1)
        if not t:
            return s0, s1, s2, s3, k + 1
        s1 += t
        t = (t * x >> p) // (k + 2)
        if not t:
            return s0, s1, s2, s3, k + 2
        s2 += t
        t = (t * x >> p) // (k + 3)
        if not t:
            return s0, s1, s2, s3, k + 3
        s3 += t
        k += 4
        t = (t * x >> p) // k
    return s0, s1, s2, s3, k


def _odd(x: int, p: int) -> tuple[int, int, int]:
    """(A0, A1, n): A_j sums the terms x^(2k+1)/(2k+1) over k = j mod 2, for
    0 <= x <= 2^p/3, all over 2^p, and n counts the terms."""
    x2 = x * x >> p
    a0 = a1 = 0
    k = 1
    while x:
        a0 += x // k
        x = x * x2 >> p
        if not x:
            return a0, a1, (k + 1) // 2
        a1 += x // (k + 2)
        x = x * x2 >> p
        k += 4
    return a0, a1, (k - 1) // 2


def _nearest(v: int, e: int, bits: int) -> int | None:
    """Ziv's test: the integer nearest w/2^bits, the same for every w within
    e of v, or None when [v - e, v + e] holds a midpoint."""
    unit = 1 << bits
    v += unit >> 1
    r = v & (unit - 1)
    return v >> bits if e <= r < unit - e else None


def _lowest(n: int, d: int) -> tuple[int, int]:
    """n/d in lowest terms, for d > 0: a kernel's one gcd."""
    g = gcd(n, d)
    return (n // g, d // g) if g > 1 else (n, d)


def _fixed(n: int, d: int, p: int) -> int:
    """The integer nearest n 2^p/d, for d > 0: n/d over 2^p, within 1/2."""
    return ((n << (p + 1)) // d + 1) >> 1


def _entry(table: dict, node, j: int, p: int) -> tuple[int, ...]:
    """table[p, j]: the values of node j over 2^p, each within one unit,
    filled on first use and cleared at CACHE_SIZE entries.

    node(j, q) returns values over 2^q, each within the bound e its
    docstring states; they are summed once at q = p + 32 bits and rounded
    to p, so an entry is within 1/2 + e 2^-32 units, under 1 while e <
    2^31 (every node's e is under 8q + 200, so for any p below 2^27 bits).
    """
    entry = table.get((p, j))
    if entry is None:
        if len(table) >= CACHE_SIZE:
            table.clear()
        entry = table[p, j] = tuple((v + (1 << 31)) >> 32 for v in node(j, p + 32))
    return entry


_PI: dict[tuple[int, int], tuple[int]] = {}  # (p, 0) -> (pi over 2^p,)


def _machin(_: int, q: int) -> tuple[int]:
    """(pi,) = 16 arctan(1/5) - 4 arctan(1/239) over 2^q, within 16(2n + 2)
    + 4(2m + 2) units for n and m terms."""
    a0, a1, _ = _odd(_fixed(1, 5, q), q)
    b0, b1, _ = _odd(_fixed(1, 239, q), q)
    return (16 * (a0 - a1) - 4 * (b0 - b1),)


_SIN_COS: dict[tuple[int, int], tuple[int, int]] = {}  # (p, j) -> sin, cos of j/32 over 2^p


def _sin_cos_node(j: int, q: int) -> tuple[int, int]:
    """sin and cos of j/32 (0 <= j <= 128) over 2^q, each within 8n + 16
    units for n terms."""
    s0, s1, s2, s3, _ = _taylor(j << (q - 5), q)
    return s1 - s3, s0 - s2


def _sin_cos(n: int, d: int, p: int) -> tuple[int, int, int, int]:
    """(S, C, q, e): sin and cos of n/d (d > 0) as S/2^q and C/2^q, each
    within e units.

    Arguments past 4 first lose the nearest multiple k of 2pi, at q = p plus
    the integer bits of |x|.  Then |y| = j/32 + delta, and the table's sin
    and cos of j/32 meet the series of delta by angle addition.
    """
    k = 0
    if abs(n) > 4 * d:
        p += (abs(n) // d).bit_length()
        two_pi = _entry(_PI, _machin, 0, p + 1)[0]  # 2pi over 2^p
        y = _fixed(n, d, p)
        k = (2 * y + two_pi) // (2 * two_pi)
        y -= k * two_pi
    else:
        y = _fixed(n, d, p)
    a = abs(y)
    j = (a + (1 << (p - 6))) >> (p - 5)  # the node nearest |y|
    t = a - (j << (p - 5))  # delta over 2^p
    sj, cj = _entry(_SIN_COS, _sin_cos_node, j, p)
    s0, s1, s2, s3, terms = _taylor(abs(t), p)
    sd, cd = (s1 - s3 if t >= 0 else s3 - s1), s0 - s2
    s = (sj * cd + cj * sd) >> p
    return (s if y >= 0 else -s), (cj * cd - sj * sd) >> p, p, 4 * terms + abs(k) + 3


def sin_cos_grid(n: int, d: int, digits: int) -> tuple[int, int]:
    """(sin, cos) of n/d for d > 0 as numerators over 10^digits, each
    correctly rounded, from one pass."""
    if not n:
        return 0, 10**digits
    n, d = _lowest(n, d)
    p, unit = _bits(digits + _GUARD), 10**digits
    while True:  # ends: sin and cos of a nonzero rational are transcendental
        s, c, q, e = _sin_cos(n, d, p)
        s, c = _nearest(s * unit, e * unit, q), _nearest(c * unit, e * unit, q)
        if s is not None and c is not None:
            return s, c
        p += _bits(_GUARD)


def tan_grid(n: int, d: int, digits: int) -> int:
    """tan(n/d) for d > 0 as a correctly rounded numerator over 10^digits;
    refuses arguments with |cos x| < 10^-max(2, digits).

    The error of s/c grows as 1/cos^2, so when |cos x| < 2^-z, z > 4, sin
    and cos are summed again with 2z more bits.
    """
    if not n:
        return 0
    n, d = _lowest(n, d)
    limit, unit = 10 ** max(2, digits), 10**digits
    p, widened = _bits(digits + _GUARD), False
    while True:  # ends: tan of a nonzero rational is transcendental, |cos x| no power of 10
        s, c, q, e = _sin_cos(n, d, p)
        if c < 0:
            s, c = -s, -c
        if (c + e) * limit < 1 << q:
            raise DomainError(f"tan undefined near {show_rational(Fraction(n, d))}: cos too close to 0")
        if (c - e) * limit >= 1 << q:  # else too close to the refusal's edge to tell
            zeros = q - c.bit_length()
            if not widened and zeros > 4:
                p += 2 * zeros
                widened = True
                continue
            # |s/c - tan x| <= e(c + |s|)/(c(c - e)), and the quotient floors once
            t = (s << q) // c
            et = (e * (c + abs(s)) << q) // (c * (c - e)) + 2
            t = _nearest(t * unit, et * unit, q)
            if t is not None:
                return t
        p += _bits(_GUARD)


_EXP: dict[tuple[int, int], tuple[int]] = {}  # (p, j) -> (e^(j/32) over 2^p,)


def _exp_node(j: int, q: int) -> tuple[int]:
    """(e^(j/32),) (|j| <= 11) over 2^q, within 8n + 16 units for n terms."""
    s0, s1, s2, s3, _ = _taylor(abs(j) << (q - 5), q)
    return (s0 + s2 + (s1 + s3 if j >= 0 else -(s1 + s3)),)


def exp_grid(n: int, d: int, digits: int) -> int:
    """e^(n/d) for d > 0 as a correctly rounded numerator over 10^digits.

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
    m = (n * _LOG2_E // d + (1 << 63)) >> 64  # x log2 e, rounded
    g, unit = _bits(digits + _GUARD), 10**digits
    while True:  # ends: e^x of a nonzero rational is transcendental
        p = g + max(m, 0)
        r = _fixed(n, d, p)
        if m:
            r -= m * _entry(_LN, _ln_node, 64, p)[0]  # x - m ln 2
        j = (r + (1 << (p - 6))) >> (p - 5)  # the node nearest r
        t = r - (j << (p - 5))  # delta over 2^p
        s0, s1, s2, s3, terms = _taylor(abs(t), p)
        ej, = _entry(_EXP, _exp_node, j, p)
        v = ej * (s0 + s2 + (s1 + s3 if t >= 0 else -(s1 + s3))) >> p
        # v is e^r over 2^p, so e^x = 2^m e^r over 2^(p - m)
        v = _nearest(v * unit, (4 * terms + 2 * abs(m) + 3) * unit, p - m)
        if v is not None:
            return v
        g += _bits(_GUARD)


_LN: dict[tuple[int, int], tuple[int]] = {}  # (p, j) -> (ln(1 + j/64) over 2^p,)


def _ln_node(j: int, q: int) -> tuple[int]:
    """(ln c_j,) = 2 artanh(j/(128 + j)), c_j = 1 + j/64 (j >= -16; c_64 =
    2), over 2^q, within 4n + 4 units for n terms."""
    a0, a1, _ = _odd(_fixed(abs(j), 128 + j, q), q)
    return (2 * (a0 + a1) if j >= 0 else -2 * (a0 + a1),)


def ln_grid(n: int, d: int, digits: int) -> int:
    """ln(n/d) for n/d > 0, d > 0, as a correctly rounded numerator over
    10^digits.

    x = 2^e2 t with t in [3/4, 3/2], t = c_j (1 + w), and ln t = ln c_j +
    2 artanh((t - c_j)/(t + c_j)).
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
    j = (128 * n + d) // (2 * d) - 64  # the node c_j = 1 + j/64 nearest t
    a, b = 64 * n - (64 + j) * d, 64 * n + (64 + j) * d  # u = a/b
    p, unit = _bits(digits + _GUARD), 10**digits
    while True:  # ends: ln of a rational other than 1 is transcendental
        a0, a1, terms = _odd(_fixed(abs(a), b, p), p)
        v = 2 * (a0 + a1) if a >= 0 else -2 * (a0 + a1)
        v += _entry(_LN, _ln_node, j, p)[0]
        if e2:
            v += e2 * _entry(_LN, _ln_node, 64, p)[0]
        v = _nearest(v * unit, (4 * terms + abs(e2) + 5) * unit, p)
        if v is not None:
            return v
        p += _bits(_GUARD)


def _sqrt_grid(n: int, d: int, digits: int) -> int:
    """sqrt(n/d) for n, d > 0, n/d not a square, as the nearest numerator
    over 10^digits: isqrt gives floor(2 sqrt(n/d) 10^digits), never a tie."""
    return (isqrt(4 * n * d * 10 ** (2 * digits)) // d + 1) // 2


def sqrt_pair(n: int, d: int, digits: int) -> tuple[int, int]:
    """sqrt(n/d) for n/d >= 0, d > 0, as a (numerator, denominator) pair,
    error < 10^-digits.

    Perfect-square parts of the reduced denominator are factored out before
    approximating, so sqrt(v/m^2) = sqrt~(v)/m exactly; polygonal sums of
    scaled copies of one segment then agree exactly across mesh sizes.
    Every other value that is not exact is the nearest grid numerator over
    10^digits.
    """
    n, d = _lowest(n, d)
    if n <= 0:
        if n == 0:
            return 0, 1
        raise DomainError(f"sqrt of negative value {show_rational(Fraction(n, d))}")
    sn, sd = isqrt(n), isqrt(d)
    den_square = sd * sd == d
    if den_square and sn * sn == n:
        return sn, sd
    unit = 10**digits
    if d > 1 and den_square:
        return _sqrt_grid(n, 1, digits), unit * sd
    return _sqrt_grid(n, d, digits), unit


# -- the cached Fraction functions: eval_real, the series field and the measures ----------


@lru_cache(maxsize=CACHE_SIZE)
def pi_approx(digits: int) -> Fraction:
    """pi correctly rounded to 10^-digits."""
    p, unit = _bits(digits + _GUARD), 10**digits
    while True:  # ends: pi is irrational
        v = _nearest(_entry(_PI, _machin, 0, p)[0] * unit, unit, p)  # pi over 2^p is within 1
        if v is not None:
            return Fraction(v, unit)
        p += _bits(_GUARD)


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
    if root is not None:  # root^1 needs no power built, so no size guard either
        return root if r.numerator == 1 else pow_approx(root, Fraction(r.numerator), digits)
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
    return pow_approx(x, Fraction(1, n), digits)
