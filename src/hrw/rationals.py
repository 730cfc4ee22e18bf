"""Exact rational helpers: parsing, formatting, grid rounding.

Scalars throughout the package are :class:`fractions.Fraction`; this module
holds the conversions shared by the CLI, the renderer and the approximation
kernel.
"""

from __future__ import annotations

import sys
from fractions import Fraction

from .errors import ParseError


def parse_rational(text: str) -> Fraction:
    """Parse ``p/q``, an integer, or a finite decimal, exactly.

    ``0.25`` becomes 1/4, never a binary float.
    """
    s = text.strip()
    if not s:
        raise ParseError(0, "rational number", "empty string")
    try:
        if "/" in s:
            num, den = s.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(s)  # Fraction('0.25') is exact
    except (ValueError, ZeroDivisionError):
        raise ParseError(0, "rational number", repr(text)) from None


def _int_str(n: int) -> str:
    """``str(n)`` for an int of any size.

    Python refuses ``str`` past ``sys.get_int_max_str_digits()`` digits; a
    larger int is split by a power of ten into halves written separately, so
    the process-wide limit stays as it is.
    """
    limit = sys.get_int_max_str_digits()
    if not limit or n.bit_length() <= 3 * limit:  # over 3 bits a digit: below the limit
        return str(n)
    if n < 0:
        return "-" + _int_str(-n)
    half = n.bit_length() * 3 // 20  # about half the digits (log10 2 > 3/10)
    high, low = divmod(n, 10**half)
    return _int_str(high) + _int_str(low).zfill(half)


def format_rational(q: Fraction) -> str:
    """Lowest-terms ``p/q``; bare integer when the denominator is 1."""
    if q.denominator == 1:
        return _int_str(q.numerator)
    return f"{_int_str(q.numerator)}/{_int_str(q.denominator)}"


def show_rational(q) -> str:
    """q for an error text: ``str(q)``, or the bit sizes of its numerator and
    denominator once either nears Python's int-to-str digit limit (more than
    3 bits a digit), past which ``str`` raises."""
    q = q if isinstance(q, Fraction) else Fraction(q)
    num_bits, den_bits = q.numerator.bit_length(), q.denominator.bit_length()
    limit = sys.get_int_max_str_digits()
    if limit and max(num_bits, den_bits) > 3 * limit:
        return f"<rational of {num_bits}/{den_bits} bits>"
    return str(q)


def round_half_even(n: int, d: int) -> int:
    """The integer nearest n/d for d > 0, ties to even: one ``divmod``."""
    q, r = divmod(n, d)
    if 2 * r > d or (2 * r == d and q & 1):
        q += 1
    return q


def round_to_digits(x: Fraction, digits: int) -> Fraction:
    """Round to the nearest multiple of 10^-digits (ties to even), in integers."""
    scale = 10**digits
    return Fraction(round_half_even(x.numerator * scale, x.denominator), scale)


def decimal_str(q: Fraction, digits: int = 12) -> str:
    """Fixed-point decimal rendering, for human-facing report columns."""
    sign = "-" if q < 0 else ""
    q = abs(q)
    scaled = round(q * 10**digits)
    whole, frac = divmod(scaled, 10**digits)
    return f"{sign}{_int_str(whole)}.{_int_str(frac).zfill(digits)}"
