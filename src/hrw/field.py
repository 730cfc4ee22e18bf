"""A computable non-Archimedean ordered field of truncated formal series.

Values are finite sums  sum_q  a_q * eps^q  with exact rational coefficients
a_q and exact rational exponents q, sorted by increasing exponent.  ``eps`` is
a fixed positive infinitesimal generator: smaller than every positive real,
with 1/eps larger than every real.  Each value keeps only exponents below
``lambda + window`` where ``lambda`` is its least exponent (the *relative
window*); operations that drop nonzero terms mark their result ``saturated``
so truncation stays observable.

Every series map shares one kernel, ``_power_series``: factor x into a
monomial head times (const + u) with u of positive leading exponent mu, then
sum c_k*u^k from a per-map coefficient rule (geometric for the reciprocal,
binomial for roots and real powers, exp, ln, and a sin/cos mix).  If c_k0 is
the first nonzero coefficient, the result leads at k0*mu, and the kernel
keeps exactly the exponents below k0*mu + window, the relative window of the
result's own leading term; such results are always marked saturated.

The classification trichotomy is read off the leading exponent:

* empty series            -> zero (a member of the infinitesimals)
* leading exponent > 0    -> nonzero infinitesimal
* leading exponent = 0    -> appreciable (limited, not infinitesimal)
* leading exponent < 0    -> infinite, signed by the leading coefficient

The standard part of a limited value is its exponent-0 coefficient; infinite
values map to +inf/-inf.  Only the computable trace of the ideal field is
represented: the full monads and the ring of limited numbers are proper
classes and live here only through these finitely supported series.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import count
from typing import Iterable, Iterator, Union

from . import approx
from .errors import (
    ApproxOverflow,
    DivisionByZero,
    DomainError,
    NonPositiveLeading,
    NotInfinitesimal,
    ParseError,
    TranscendentalOnUnlimited,
)
from .rationals import format_rational, parse_rational

Rational = Union[Fraction, int]

DEFAULT_WINDOW = Fraction(16)
DEFAULT_PRECISION = 40


class Classification(Enum):
    ZERO = "zero"
    INFINITESIMAL = "infinitesimal-nonzero"
    APPRECIABLE = "appreciable"
    INFINITE_POSITIVE = "infinite-positive"
    INFINITE_NEGATIVE = "infinite-negative"

    @property
    def is_infinitesimal(self) -> bool:
        """Zero belongs to the infinitesimals."""
        return self in (Classification.ZERO, Classification.INFINITESIMAL)

    @property
    def is_limited(self) -> bool:
        return self not in (
            Classification.INFINITE_POSITIVE,
            Classification.INFINITE_NEGATIVE,
        )


@dataclass(frozen=True)
class ExtendedReal:
    """An exact rational or a signed infinity (the range of the standard part)."""

    finite: Fraction | None
    sign: int = 0  # +1 / -1 only when infinite

    @staticmethod
    def of(q: Rational) -> "ExtendedReal":
        return ExtendedReal(Fraction(q))

    POS_INF: "ExtendedReal" = None  # type: ignore[assignment]
    NEG_INF: "ExtendedReal" = None  # type: ignore[assignment]

    @property
    def is_finite(self) -> bool:
        return self.finite is not None

    def as_fraction(self) -> Fraction:
        if self.finite is None:
            raise DomainError("infinite value has no finite standard part")
        return self.finite

    def __str__(self) -> str:
        if self.finite is not None:
            return format_rational(self.finite)
        return "+inf" if self.sign > 0 else "-inf"


ExtendedReal.POS_INF = ExtendedReal(None, 1)
ExtendedReal.NEG_INF = ExtendedReal(None, -1)

Term = tuple[Fraction, Fraction]  # (exponent, coefficient), coefficient != 0


class HyperReal:
    """One element of the truncated series field.  Immutable."""

    __slots__ = ("terms", "window", "precision", "saturated")

    def __init__(
        self,
        terms: Iterable[Term],
        window: Fraction = DEFAULT_WINDOW,
        precision: int = DEFAULT_PRECISION,
        saturated: bool = False,
    ):
        merged: dict[Fraction, Fraction] = {}
        for e, c in terms:
            if c:
                merged[e] = merged.get(e, Fraction(0)) + c
        ordered = sorted((e, c) for e, c in merged.items() if c)
        if ordered:
            cap = ordered[0][0] + window
            kept = [t for t in ordered if t[0] < cap]
            if len(kept) < len(ordered):
                saturated = True
            ordered = kept
        object.__setattr__(self, "terms", tuple(ordered))
        object.__setattr__(self, "window", Fraction(window))
        object.__setattr__(self, "precision", int(precision))
        object.__setattr__(self, "saturated", bool(saturated))

    def __setattr__(self, name, value):  # immutability
        raise AttributeError("HyperReal is immutable")

    # -- construction helpers -------------------------------------------------

    def _lift(self, terms: Iterable[Term], saturated: bool = False) -> "HyperReal":
        return HyperReal(terms, self.window, self.precision, saturated)

    def _coerce(self, other) -> "HyperReal":
        if isinstance(other, HyperReal):
            if other.window != self.window or other.precision != self.precision:
                raise ValueError("operands carry different field configurations")
            return other
        if isinstance(other, (int, Fraction)):
            return self._lift([(Fraction(0), Fraction(other))])
        return NotImplemented  # type: ignore[return-value]

    # -- structure inspection --------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def leading(self) -> Term | None:
        """(least exponent, its coefficient), or None for the zero element."""
        return self.terms[0] if self.terms else None

    def leading_exponent(self) -> Fraction | None:
        return self.terms[0][0] if self.terms else None

    def coefficient(self, exponent: Rational) -> Fraction:
        e = Fraction(exponent)
        for te, tc in self.terms:
            if te == e:
                return tc
            if te > e:
                break
        return Fraction(0)

    # -- ring operations -------------------------------------------------------

    def __add__(self, other) -> "HyperReal":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self._lift(
            list(self.terms) + list(o.terms), self.saturated or o.saturated
        )

    __radd__ = __add__

    def __neg__(self) -> "HyperReal":
        return self._lift([(e, -c) for e, c in self.terms], self.saturated)

    def __sub__(self, other) -> "HyperReal":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "HyperReal":
        return (-self) + other

    def __mul__(self, other) -> "HyperReal":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if self.is_zero or o.is_zero:
            return self._lift([], self.saturated or o.saturated)
        cap = self.terms[0][0] + o.terms[0][0] + self.window
        acc: dict[Fraction, Fraction] = {}
        dropped = False
        for e1, c1 in self.terms:
            for e2, c2 in o.terms:
                e = e1 + e2
                if e >= cap:
                    dropped = True
                    continue
                acc[e] = acc.get(e, Fraction(0)) + c1 * c2
        return self._lift(
            acc.items(), self.saturated or o.saturated or dropped
        )

    __rmul__ = __mul__

    def inv(self) -> "HyperReal":
        """Reciprocal: factor the leading monomial a*eps^lam, geometric series
        (1 + u/a)^-1 on the shifted tail u."""
        if self.is_zero:
            raise DivisionByZero("reciprocal of the zero element")
        lam, a = self.terms[0]
        if len(self.terms) == 1:
            return self._lift([(-lam, 1 / a)], self.saturated)
        return _power_series(
            self._shifted_tail(), _binomial(Fraction(-1), a), (-lam, 1 / a)
        )

    def __truediv__(self, other) -> "HyperReal":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inv()

    def __rtruediv__(self, other) -> "HyperReal":
        return self._coerce(other) / self

    def __pow__(self, n: int) -> "HyperReal":
        if not isinstance(n, int):
            raise TypeError("series power requires an integer exponent")
        if self.terms and approx.power_too_large(self.terms[0][1], n):
            raise ApproxOverflow(
                f"power {n} of a series with leading coefficient {self.terms[0][1]}"
            )
        if n < 0:
            return self.inv() ** (-n)
        result = self._lift([(Fraction(0), Fraction(1))])
        base = self
        k = n
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def nth_root(self, n: int) -> "HyperReal":
        """n-th root; leading exponent divides by n, binomial series
        (1 + u/a)^(1/n) on the shifted tail u.

        The leading coefficient's root is exact for perfect powers and a
        rational approximation at the configured precision otherwise.
        """
        if not isinstance(n, int) or n < 1:
            raise ValueError("root index must be a positive integer")
        if self.is_zero:
            return self._lift([], self.saturated)
        lam, a = self.terms[0]
        if a <= 0:
            raise NonPositiveLeading(
                f"nth root with non-positive leading coefficient {a}"
            )
        root_a = approx.nth_root_approx(a, n, self.precision)
        if len(self.terms) == 1:
            return self._lift([(lam / n, root_a)], self.saturated)
        return _power_series(
            self._shifted_tail(), _binomial(Fraction(1, n), a), (lam / n, root_a)
        )

    def _shifted_tail(self) -> "HyperReal":
        """The terms after the leading one, shifted down by the leading exponent."""
        lam = self.terms[0][0]
        return self._lift([(e - lam, c) for e, c in self.terms[1:]])

    def sqrt(self) -> "HyperReal":
        return self.nth_root(2)

    # -- order -----------------------------------------------------------------

    def compare(self, other) -> int:
        """-1, 0, +1 by the sign of the leading coefficient of other - self."""
        if isinstance(other, (int, Fraction)):
            return self._compare_scalar(
                other if type(other) is Fraction else Fraction(other)
            )
        o = self._coerce(other)
        i = j = 0
        a, b = self.terms, o.terms
        while i < len(a) and j < len(b):
            ea, ca = a[i]
            eb, cb = b[j]
            if ea < eb:
                return 1 if ca > 0 else -1
            if eb < ea:
                return -1 if cb > 0 else 1
            if ca != cb:
                return -1 if ca < cb else 1
            i += 1
            j += 1
        if i < len(a):
            return 1 if a[i][1] > 0 else -1
        if j < len(b):
            return -1 if b[j][1] > 0 else 1
        return 0

    def _compare_scalar(self, q: Fraction) -> int:
        """Sign of self - q without building a series for q."""
        # signs are read from the integer numerators: comparing a Fraction
        # with 0 costs several times more
        q_sign = q.numerator
        matched_zero = False
        for e, c in self.terms:
            if e.numerator < 0:
                return 1 if c.numerator > 0 else -1
            if e.numerator == 0:
                if c != q:
                    return 1 if c > q else -1
                matched_zero = True
                continue
            if not matched_zero and q_sign:
                return -1 if q_sign > 0 else 1
            return 1 if c.numerator > 0 else -1
        if not matched_zero and q_sign:
            return -1 if q_sign > 0 else 1
        return 0

    def __lt__(self, other):
        return self.compare(other) < 0

    def __le__(self, other):
        return self.compare(other) <= 0

    def __gt__(self, other):
        return self.compare(other) > 0

    def __ge__(self, other):
        return self.compare(other) >= 0

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self._coerce(other)
        if not isinstance(other, HyperReal):
            return NotImplemented
        return self.terms == other.terms and self.window == other.window

    def __hash__(self):
        return hash((self.terms, self.window))

    def __abs__(self) -> "HyperReal":
        return -self if self.compare(0) < 0 else self

    # -- classification and standard part ---------------------------------------

    def classify(self) -> Classification:
        if not self.terms:
            return Classification.ZERO
        lam, a = self.terms[0]
        if lam > 0:
            return Classification.INFINITESIMAL
        if lam == 0:
            return Classification.APPRECIABLE
        return (
            Classification.INFINITE_POSITIVE
            if a > 0
            else Classification.INFINITE_NEGATIVE
        )

    @property
    def is_limited(self) -> bool:
        return self.classify().is_limited

    @property
    def is_infinitesimal(self) -> bool:
        return self.classify().is_infinitesimal

    def st(self) -> ExtendedReal:
        """Standard part: the exponent-0 coefficient, or a signed infinity."""
        c = self.classify()
        if c is Classification.INFINITE_POSITIVE:
            return ExtendedReal.POS_INF
        if c is Classification.INFINITE_NEGATIVE:
            return ExtendedReal.NEG_INF
        return ExtendedReal(self.coefficient(0))

    def st_fraction(self) -> Fraction:
        return self.st().as_fraction()

    def infinitely_close(self, other) -> bool:
        return (self - self._coerce(other)).is_infinitesimal

    # -- rendering ---------------------------------------------------------------

    def render(self) -> str:
        """Canonical text: terms joined by " + ", exponent-0 terms printed bare."""
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.terms:
            if e == 0:
                parts.append(format_rational(c))
            else:
                parts.append(f"{format_rational(c)}*eps^{format_rational(e)}")
        return " + ".join(parts)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"HyperReal({self.render()!r})"


@dataclass(frozen=True)
class Field:
    """Field configuration and value factory.

    ``window`` is the relative truncation width; ``precision`` the number of
    decimal digits to which transcendental constants are approximated.
    """

    window: Fraction = DEFAULT_WINDOW
    precision: int = DEFAULT_PRECISION

    def __post_init__(self):
        if self.window <= 0:
            raise ValueError("window must be positive")
        if self.precision < 1:
            raise ValueError("precision must be at least 1")
        object.__setattr__(self, "window", Fraction(self.window))

    def rational(self, q: Rational) -> HyperReal:
        return HyperReal([(Fraction(0), Fraction(q))], self.window, self.precision)

    def zero(self) -> HyperReal:
        return HyperReal([], self.window, self.precision)

    def one(self) -> HyperReal:
        return self.rational(1)

    def epsilon(self, q: Rational = 1) -> HyperReal:
        """The monomial eps^q; epsilon(1) is the canonical infinitesimal,
        epsilon(-1) the canonical infinite element."""
        return HyperReal([(Fraction(q), Fraction(1))], self.window, self.precision)

    def gamma(self) -> HyperReal:
        return self.epsilon(-1)

    def monomial(self, coeff: Rational, exponent: Rational) -> HyperReal:
        return HyperReal(
            [(Fraction(exponent), Fraction(coeff))], self.window, self.precision
        )

    def parse(self, text: str) -> HyperReal:
        return parse_hyperreal(text, self.window, self.precision)


DEFAULT_FIELD = Field()


# -- module-level operation surface (mirrors the library contract) -------------


def epsilon(q: Rational = 1, field: Field = DEFAULT_FIELD) -> HyperReal:
    return field.epsilon(q)


_ORDER_SYMBOL = {-1: "<", 0: "=", 1: ">"}


def compare(x: HyperReal, y) -> str:
    """Total order against another series or a plain rational."""
    return _ORDER_SYMBOL[x.compare(y)]


def classify(x: HyperReal) -> Classification:
    return x.classify()


def st(x: HyperReal) -> ExtendedReal:
    return x.st()


def infinitely_close(x: HyperReal, y) -> bool:
    return x.infinitely_close(y)


def in_monad(x: HyperReal, r: Rational) -> bool:
    """Membership in the monad of the real number r."""
    return x.infinitely_close(r)


def in_order_ideal(x: HyperReal, e: HyperReal) -> bool:
    """True iff x lies in o(e) = {e*h : h infinitesimal}.

    Requires e to be a nonzero infinitesimal; membership depends only on the
    leading exponent of e.
    """
    if e.classify() is not Classification.INFINITESIMAL:
        raise NotInfinitesimal(f"order-ideal generator must be a nonzero infinitesimal, got {e}")
    if x.is_zero:
        return True
    return x.terms[0][0] > e.terms[0][0]


def close_of_order(a: HyperReal, b: HyperReal, e: HyperReal, n: int) -> bool:
    """a and b agree modulo o(e^n)."""
    return in_order_ideal(a - b, e**n)


# -- analytic maps ---------------------------------------------------------------


def _split_limited(x: HyperReal, what: str) -> tuple[Fraction, HyperReal]:
    """Split a limited x into (standard part, infinitesimal tail)."""
    c = x.classify()
    if not c.is_limited:
        raise TranscendentalOnUnlimited(f"{what} of an unlimited argument")
    s = x.coefficient(0)
    return s, x - s


def _power_series(
    u: HyperReal, coeffs: Iterator[Fraction], head: Term = (Fraction(0), Fraction(1))
) -> HyperReal:
    """head * sum_k c_k u^k for u with positive leading exponent mu.

    ``coeffs`` yields c_0, c_1, ... and must not be all zero; ``head`` is the
    monomial (exponent, coefficient) the sum is multiplied by.  If c_k0 is
    the first nonzero coefficient, the result's leading exponent is k0*mu, so
    the sum keeps exactly the exponents below k0*mu + window: the relative
    window of the result's own leading term.  Each power u^k is truncated
    below the same cap (below k*mu + window until k0 is found), which drops
    nothing that could fall under the cap in a later power.  The result is
    always marked saturated.
    """
    shift, scale = head
    acc: dict[Fraction, Fraction] = {}
    if scale:
        mu = u.terms[0][0]
        cap = None
        upow: list[Term] = [(Fraction(0), Fraction(1))]
        for k, c in enumerate(coeffs):
            if c:
                if cap is None:
                    cap = k * mu + u.window
                c *= scale
                for e, a in upow:
                    acc[e] = acc.get(e, 0) + c * a
            limit = (k + 1) * mu + u.window if cap is None else cap
            nxt: dict[Fraction, Fraction] = {}
            for e1, a1 in upow:
                for e2, a2 in u.terms:
                    e = e1 + e2
                    if e >= limit:
                        break
                    nxt[e] = nxt.get(e, 0) + a1 * a2
            upow = [t for t in nxt.items() if t[1]]
            if not upow:
                break
    return HyperReal(
        [(e + shift, c) for e, c in acc.items()], u.window, u.precision, True
    )


# Coefficient rules c_0, c_1, ... for _power_series.


def _binomial(alpha: Fraction, s: Fraction) -> Iterator[Fraction]:
    """(1 + u/s)^alpha."""
    c = Fraction(1)
    for k in count(1):
        yield c
        c = c * (alpha - k + 1) / (k * s)


def _exp_coeffs() -> Iterator[Fraction]:
    """exp(u)."""
    c = Fraction(1)
    for k in count(1):
        yield c
        c /= k


def _trig(a: Fraction, b: Fraction) -> Iterator[Fraction]:
    """a*cos(u) + b*sin(u)."""
    f = Fraction(1)  # 1/k!
    for k in count():
        yield (a if k % 2 == 0 else b) * (f if k % 4 < 2 else -f)
        f /= k + 1


def _ln_coeffs(ln_s: Fraction, s: Fraction) -> Iterator[Fraction]:
    """ln(s + u), given ln_s = ln(s)."""
    yield ln_s
    p = Fraction(1)
    for k in count(1):
        p /= -s  # (-1/s)^k
        yield -p / k


def hr_exp(x: HyperReal) -> HyperReal:
    s, h = _split_limited(x, "exp")
    const = approx.exp_approx(s, x.precision)
    if h.is_zero:
        return x._lift([(Fraction(0), const)] if const else [], x.saturated)
    return _power_series(h, _exp_coeffs(), (Fraction(0), const))


def hr_ln(x: HyperReal) -> HyperReal:
    s, h = _split_limited(x, "ln")
    if s <= 0:
        raise DomainError(f"ln requires a positive standard part, got {s}")
    const = approx.ln_approx(s, x.precision)
    if h.is_zero:
        return x._lift([(Fraction(0), const)] if const else [], x.saturated)
    return _power_series(h, _ln_coeffs(const, s))


def hr_sin(x: HyperReal) -> HyperReal:
    s, h = _split_limited(x, "sin")
    sin_s = approx.sin_approx(s, x.precision)
    cos_s = approx.cos_approx(s, x.precision)
    if h.is_zero:
        return x._lift([(Fraction(0), sin_s)] if sin_s else [], x.saturated)
    return _power_series(h, _trig(sin_s, cos_s))


def hr_cos(x: HyperReal) -> HyperReal:
    s, h = _split_limited(x, "cos")
    sin_s = approx.sin_approx(s, x.precision)
    cos_s = approx.cos_approx(s, x.precision)
    if h.is_zero:
        return x._lift([(Fraction(0), cos_s)] if cos_s else [], x.saturated)
    return _power_series(h, _trig(cos_s, -sin_s))


def hr_tan(x: HyperReal) -> HyperReal:
    s, h = _split_limited(x, "tan")
    cos_s = approx.cos_approx(s, x.precision)
    if abs(cos_s) < Fraction(1, 10 ** max(2, x.precision // 2)):
        raise DomainError(f"tan undefined near {s}: cos too close to 0")
    if h.is_zero:  # the exact ratio the series path's constant term carries
        const = approx.sin_approx(s, x.precision) / cos_s
        return x._lift([(Fraction(0), const)] if const else [], x.saturated)
    return hr_sin(x) / hr_cos(x)


def hr_pow(x: HyperReal, r: Fraction) -> HyperReal:
    """Real power x^r; exact for integer r, binomial series otherwise."""
    r = Fraction(r)
    if r.denominator == 1:
        return x ** r.numerator
    s, h = _split_limited(x, "real power")
    if s <= 0:
        raise DomainError(
            f"non-integer power requires a positive standard part, got {s}"
        )
    const = approx.pow_approx(s, r, x.precision)
    if h.is_zero:
        return x._lift([(Fraction(0), const)], x.saturated)
    return _power_series(h, _binomial(r, s), (Fraction(0), const))


_ANALYTIC = {
    "exp": hr_exp,
    "ln": hr_ln,
    "sin": hr_sin,
    "cos": hr_cos,
    "tan": hr_tan,
}


def apply_analytic(fn: str, x: HyperReal, exponent: Rational | None = None) -> HyperReal:
    """Apply an analytic map at a limited argument.

    ``fn`` is one of exp, ln, sin, cos, tan, pow_real; pow_real takes the
    real exponent as ``exponent``.
    """
    if fn == "pow_real":
        if exponent is None:
            raise ValueError("pow_real requires an exponent")
        return hr_pow(x, Fraction(exponent))
    try:
        return _ANALYTIC[fn](x)
    except KeyError:
        raise ValueError(f"unknown analytic function {fn!r}") from None


# -- canonical text round trip ----------------------------------------------------


def parse_hyperreal(
    text: str,
    window: Fraction = DEFAULT_WINDOW,
    precision: int = DEFAULT_PRECISION,
) -> HyperReal:
    """Parse the canonical rendering: ``3 + 1*eps^1 + -1/4*eps^2``."""
    s = text.strip()
    if not s:
        raise ParseError(0, "series", "empty string")
    if s == "0":
        return HyperReal([], window, precision)
    terms: list[Term] = []
    for chunk in s.split(" + "):
        chunk = chunk.strip()
        if "eps^" in chunk:
            coeff_txt, _, exp_txt = chunk.partition("*eps^")
            if not coeff_txt or not exp_txt:
                raise ParseError(text.find(chunk), "coeff*eps^exponent", repr(chunk))
            terms.append((parse_rational(exp_txt), parse_rational(coeff_txt)))
        else:
            terms.append((Fraction(0), parse_rational(chunk)))
    return HyperReal(terms, window, precision)
