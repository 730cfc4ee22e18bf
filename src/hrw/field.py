"""A computable non-Archimedean ordered field of truncated formal series.

Values are finite sums  sum_q  a_q * eps^q  with exact rational coefficients
a_q and exact rational exponents q.  ``eps`` is a fixed positive infinitesimal
generator: smaller than every positive real, with 1/eps larger than every
real.  Each value keeps only exponents below ``lambda + window`` where
``lambda`` is its least exponent (the *relative window*).

Every value also carries its certified absolute order ``N`` (``order``): it
stands for ``terms + O(eps^N)``, every exponent below ``N`` is exact and no
stored term lies at or above ``N``.  ``N`` is infinite (``math.inf``) for an
untruncated value.  It follows the rules of absolute-precision power series:

* a sum takes the smaller ``N`` of its operands;
* a product takes ``min(N_a + v_b, N_b + v_a)``, ``v`` being the leading
  exponent (``N`` itself for a value without terms);
* the reciprocal, roots and every analytic map keep the argument's relative
  precision: a result leading at ``lambda`` gets ``N = lambda + (N_u - mu)``
  from an argument tail leading at ``mu`` (sharper where the first-order
  coefficient vanishes);
* wherever the window cap drops a term, ``N`` falls to that cap.

``saturated`` is the read-only flag "``N`` is finite".  Equality, hashing and
``render`` look at the terms and the window only, never at ``N``.  Reads that
depend on uncertain terms raise :class:`PrecisionExhausted` instead of
guessing: the standard part needs ``N > 0`` (or a certified negative leading
term), the reciprocal needs a leading term, and so do classification, order
ideals and the analytic maps.  ``coefficient`` and ``compare`` read the
stored terms only.

A value holds its coefficients as integer numerators over one positive
denominator shared by all its terms (the layout of FLINT's ``fmpq_poly``): a
tuple of (exponent, numerator) pairs sorted by increasing exponent, with no
zero numerator, and the denominator, reduced so that it and the numerators
have no common factor.  Sums rescale only when the two denominators differ,
products multiply numerators over the product of the denominators, and each
result is reduced once, by one gcd, instead of per coefficient as
``Fraction`` does.  An integral exponent (and an integral window or order) is
held as an ``int``, any other as a ``Fraction``; the two compare and hash
alike, so this only spares the hot loops ``Fraction`` arithmetic on exponent
keys.  ``terms``, the (exponent, ``Fraction``) pairs, is built from the
numerators on each read; ``coefficient``, ``leading_exponent`` and
``exponents`` read one piece without building it.  The public
``HyperReal(...)`` constructor merges, sorts and normalises any terms it is
given; every internal result is built by ``_series``, which takes numerators
already in that form and applies only the order and window caps and the one
reduction.

A plain rational operand of ``+``, ``-``, ``*`` or ``/`` is applied to the
numerators and never lifted into a series: a product scales them, a sum adds
at exponent 0 over the lcm of the denominators, a quotient multiplies by the
reciprocal.  Each result still takes the order and window caps, so it equals
the operation on the lifted constant; a zero divisor and ``q / x`` lift it.

Every series map shares one kernel, ``_power_series``: factor x into a
monomial head times (const + u) with u of positive leading exponent mu, then
sum c_k*u^k from a per-map coefficient rule (geometric for the reciprocal,
binomial for roots and real powers, exp, ln, and a sin/cos mix).  If c_k0 is
the first nonzero coefficient, the result leads at k0*mu, and the kernel
keeps exactly the exponents below k0*mu + window, the relative window of the
result's own leading term, or below the order u's own truncation allows.

Roots and non-integer rational powers x^r take one rule at any x with a
positive leading coefficient: a*eps^lam goes to a^r*eps^(lam*r), a^r from
the ``approx`` kernel of the rational evaluator, times (1 + u/a)^r.

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

from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import count
from math import gcd, inf, lcm
from typing import Callable, Iterable, Iterator, Union

from . import approx
from .errors import (
    ApproxOverflow,
    DivisionByZero,
    DomainError,
    NonPositiveLeading,
    NotInfinitesimal,
    ParseError,
    PrecisionExhausted,
    TranscendentalOnUnlimited,
)
from .rationals import format_rational, parse_rational, show_rational

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

Term = tuple[Fraction | int, Fraction]  # (exponent, coefficient), coefficient != 0
Num = tuple[Fraction | int, int]  # (exponent, numerator over the shared denominator), != 0
# the exact types of a plain rational operand of + - * /; a subclass (or bool)
# is lifted by _coerce instead, to the same value
_PLAIN = (int, Fraction)


def _exponent(q) -> Fraction | int:
    """q as an int when integral, else as a Fraction."""
    if type(q) is int:
        return q
    if type(q) is not Fraction:
        q = Fraction(q)
    return q.numerator if q.denominator == 1 else q


def _order(q):
    """A certified order in canonical form: ``inf``, an int or a Fraction."""
    return q if q == inf else _exponent(q)


def _plus(n, v):
    """Order n moved by the exponent v (inf stays inf without converting v,
    which may be too large for a float)."""
    return n if n == inf else n + v


class HyperReal:
    """One element of the truncated series field.  Immutable."""

    __slots__ = ("_nums", "_den", "window", "precision", "order")

    def __init__(
        self,
        terms: Iterable[Term],
        window: Fraction = DEFAULT_WINDOW,
        precision: int = DEFAULT_PRECISION,
        order=inf,
    ):
        if isinstance(order, bool):
            raise TypeError("order is an exponent (math.inf when exact), not a flag")
        merged: dict[Fraction | int, Fraction] = {}
        for e, c in terms:
            if c:
                e = _exponent(e)
                merged[e] = merged[e] + c if e in merged else Fraction(c)
        den = lcm(*(c.denominator for c in merged.values()))
        nums = {e: c.numerator * (den // c.denominator) for e, c in merged.items()}
        _fill(self, _canonical(nums), den, _exponent(window), int(precision), _order(order))

    def __setattr__(self, name, value):  # immutability
        raise AttributeError("HyperReal is immutable")

    @property
    def terms(self) -> tuple[Term, ...]:
        """The (exponent, coefficient) pairs by increasing exponent, built
        from the numerators on each read."""
        d = self._den
        return tuple((e, Fraction(n, d)) for e, n in self._nums)

    @property
    def saturated(self) -> bool:
        """True when the value is truncated: its certified order is finite."""
        return self.order != inf

    # -- construction helpers -------------------------------------------------

    def _lift(self, nums: list[Num], den: int = 1, order=inf) -> "HyperReal":
        """A value of this configuration from numerators in canonical form."""
        return _series(nums, den, self.window, self.precision, order)

    def _uncertain(self, what: str) -> PrecisionExhausted:
        return PrecisionExhausted(
            f"{what} not certified: the value is known only below eps^{format_rational(self.order)}"
        )

    def certify(self, through, what: str) -> None:
        """Raise PrecisionExhausted, naming the read ``what``, unless every
        exponent up to ``through`` is certified (``order > through``)."""
        if self.order <= through:
            raise self._uncertain(what)

    def _coerce(self, other) -> "HyperReal":
        if isinstance(other, HyperReal):
            if other.window != self.window or other.precision != self.precision:
                raise ValueError("operands carry different field configurations")
            return other
        if isinstance(other, (int, Fraction)):
            return self._lift([(0, other.numerator)] if other else [], other.denominator)
        return NotImplemented  # type: ignore[return-value]

    # -- structure inspection --------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._nums

    def leading_exponent(self) -> Fraction | int | None:
        return self._nums[0][0] if self._nums else None

    def _leading(self) -> Term:
        e, n = self._nums[0]
        return e, Fraction(n, self._den)

    def exponents(self) -> tuple[Fraction | int, ...]:
        """The exponents of the stored terms, increasing."""
        return tuple(e for e, _ in self._nums)

    def coefficient(self, exponent: Rational) -> Fraction:
        """The stored coefficient of eps^exponent; certified below ``order``."""
        e = _exponent(exponent)
        for te, tn in self._nums:
            if te == e:
                return Fraction(tn, self._den)
            if te > e:
                break
        return Fraction(0)

    # -- ring operations -------------------------------------------------------

    def _sum(self, o: "HyperReal", sign: int) -> "HyperReal":
        """self + sign*o: numerators are added over the lcm of the two
        denominators, rescaled only where they differ."""
        den, db = self._den, o._den
        ma, mb = 1, sign
        if den != db:  # to the lcm of the two
            g = gcd(den, db)
            ma, mb = db // g, den // g * sign
            den *= ma
        acc = dict(self._nums) if ma == 1 else {e: n * ma for e, n in self._nums}
        for e, n in o._nums:
            n *= mb
            acc[e] = acc[e] + n if e in acc else n
        return self._lift(_canonical(acc), den, min(self.order, o.order))

    def _shift(self, p: int, d: int) -> "HyperReal":
        """self + p/d (d > 0): rescaled to the lcm of the denominators as
        ``_sum`` does, p/d added at exponent 0."""
        den = self._den
        g = gcd(den, d)
        m = d // g
        c = p * (den // g)
        nums = self._nums if m == 1 else [(e, n * m) for e, n in self._nums]
        i = j = bisect_left(nums, (0,))  # the first exponent >= 0
        if i < len(nums) and nums[i][0] == 0:
            c += nums[i][1]
            j += 1
        return self._lift([*nums[:i], *([(0, c)] if c else ()), *nums[j:]], den * m, self.order)

    def _scaled(self, p: int, d: int) -> "HyperReal":
        """self * p/d (d > 0); a zero factor gives the exact 0."""
        if not p:
            return self._lift([])
        return self._lift([(e, n * p) for e, n in self._nums], self._den * d, self.order)

    def _dilated(self, j: int, q) -> "HyperReal":
        """The dilation eps^q -> j*eps^q: each term c*eps^e becomes
        j^(e/q)*c*eps^e, for an integer j != 0 and an exponent q != 0.

        Precondition: every exponent lies on the lattice qZ (e/q is an
        integer, of either sign); ValueError otherwise.  On that lattice the
        map is a ring automorphism that keeps every exponent, so the window
        cap and the order are kept too: a walk that gives self at c + h for
        h = a*eps^q gives self._dilated(j, q) at c + j*h, unless it reads
        a leading coefficient at a nonzero exponent (see ``EvalTrace``)."""
        if j == 1:
            return self
        qn, qd = q.numerator, q.denominator
        steps = []
        for e, _ in self._nums:
            m, r = divmod(e.numerator * qd, e.denominator * qn)
            if r:
                raise ValueError(
                    f"exponent {format_rational(e)} is off the lattice of {format_rational(q)}"
                )
            steps.append(m)
        low = min([0, *steps])  # j^low goes to the denominator
        den = self._den * j**-low
        sign = -1 if den < 0 else 1  # the shared denominator stays positive
        nums = [(e, sign * n * j ** (m - low)) for (e, n), m in zip(self._nums, steps)]
        return self._lift(nums, sign * den, self.order)

    def __add__(self, other) -> "HyperReal":
        if type(other) in _PLAIN:
            return self._shift(other.numerator, other.denominator)
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self._sum(o, 1)

    __radd__ = __add__

    def __neg__(self) -> "HyperReal":
        return self._lift([(e, -n) for e, n in self._nums], self._den, self.order)

    def __sub__(self, other) -> "HyperReal":
        if type(other) in _PLAIN:
            return self._shift(-other.numerator, other.denominator)
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self._sum(o, -1)

    def __rsub__(self, other) -> "HyperReal":
        return (-self) + other

    def __mul__(self, other) -> "HyperReal":
        if type(other) in _PLAIN:
            return self._scaled(other.numerator, other.denominator)
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        a, b = self._nums, o._nums
        na, nb = self.order, o.order
        va = a[0][0] if a else na
        vb = b[0][0] if b else nb
        order = inf if na == nb == inf else min(_plus(na, vb), _plus(nb, va))
        if not a or not b:
            return self._lift([], 1, order)
        # the leading product cannot cancel, so the window cap is the result's
        # own; products at or above the order are uncertain and left out too
        cap = va + vb + self.window
        if cap >= order:
            cap = order
        elif a[-1][0] + b[-1][0] >= cap:
            order = cap
        # b is sorted, so a row ends at its first exponent past the cap
        acc: dict[Fraction | int, int] = {}
        for e1, n1 in a:
            for e2, n2 in b:
                e = e1 + e2
                if e >= cap:
                    break
                if e in acc:
                    acc[e] += n1 * n2
                else:
                    acc[e] = n1 * n2
        return self._lift(_canonical(acc), self._den * o._den, order)

    __rmul__ = __mul__

    def inv(self) -> "HyperReal":
        """Reciprocal: factor the leading monomial a*eps^lam, geometric series
        (1 + u/a)^-1 on the shifted tail u."""
        if self.is_zero:
            if self.saturated:
                raise self._uncertain("reciprocal")
            raise DivisionByZero("reciprocal of the zero element")
        lam, a = self._leading()
        return _power_series(
            self._shifted_tail(), _binomial(Fraction(-1), a), (-lam, 1 / a)
        )

    def __truediv__(self, other) -> "HyperReal":
        if type(other) in _PLAIN and other:
            p, d = other.numerator, other.denominator
            return self._scaled(d, p) if p > 0 else self._scaled(-d, -p)
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inv()

    def __rtruediv__(self, other) -> "HyperReal":
        return self._coerce(other) / self

    def __pow__(self, n: int) -> "HyperReal":
        """self^n for an integer n.  Past the exact-power guard of the leading
        coefficient a (``approx.power_too_large``) a < 0 is refused, and a > 0
        takes the real-power rule with the head a^n from ``int_pow``, exp(n ln a)
        to the precision, as in ``eval_real``.  With more than one term the
        binomial coefficients of the window's ~window terms reach about
        window * bit_length(n) bits and take bit_length(n) squarings; their
        product is held to approx.POWER_BITS, so a huge exponent is refused
        even when a = +-1."""
        if not isinstance(n, int):
            raise TypeError("series power requires an integer exponent")
        if self._nums:
            lead = self._leading()[1]
            guarded = abs(lead) != 1 and approx.power_too_large(lead, n)
            wide = len(self._nums) > 1 and self.window * n.bit_length() ** 2 > approx.POWER_BITS
            if wide or (guarded and lead < 0):
                raise ApproxOverflow(
                    f"power {n} of a series with leading coefficient {show_rational(lead)}"
                )
            if guarded:
                return self._real_power(
                    Fraction(n), lambda a: approx.int_pow(a, n, self.precision), "power"
                )
        if n < 0:
            return self.inv() ** (-n)
        if n == 0:
            return self._lift([(0, 1)])
        result, base, k = None, self, n  # start from the first factor, not from 1
        while k:
            if k & 1:
                result = base if result is None else result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def nth_root(self, n: int) -> "HyperReal":
        """n-th root: the real power 1/n, its head from ``nth_root_approx``
        (exact for perfect powers)."""
        if not isinstance(n, int) or n < 1:
            raise ValueError("root index must be a positive integer")
        return self._real_power(
            Fraction(1, n), lambda a: approx.nth_root_approx(a, n, self.precision), "nth root"
        )

    def _real_power(
        self, r: Fraction, head: Callable[[Fraction], Fraction], what: str
    ) -> "HyperReal":
        """self^r for a rational r: the leading monomial a*eps^lam (a > 0)
        goes to head(a)*eps^(lam*r), head(a) = a^r to the configured
        precision, times (1 + u/a)^r on the shifted tail u.  An exact zero
        gives 0 for r > 0 and is refused for r < 0."""
        if self.is_zero:
            if self.saturated:  # its sign, and so the power's domain, is unknown
                raise self._uncertain(what)
            if r < 0:
                raise DivisionByZero("0 raised to a negative power")
            return self
        lam, a = self._leading()
        if a <= 0:
            raise NonPositiveLeading(
                f"{what} with non-positive leading coefficient {show_rational(a)}"
            )
        return _power_series(self._shifted_tail(), _binomial(r, a), (_exponent(lam * r), head(a)))

    def _shifted_tail(self) -> "HyperReal":
        """The terms after the leading one, shifted down by the leading exponent."""
        lam = self._nums[0][0]
        return self._lift(
            [(_exponent(e - lam), n) for e, n in self._nums[1:]],
            self._den,
            _order(_plus(self.order, -lam)),
        )

    def sqrt(self) -> "HyperReal":
        return self.nth_root(2)

    # -- order -----------------------------------------------------------------

    def compare(self, other) -> int:
        """-1, 0, +1 by the sign of the leading coefficient of other - self."""
        if isinstance(other, (int, Fraction)):
            return self._compare_scalar(other)
        o = self._coerce(other)
        i = j = 0
        a, b = self._nums, o._nums
        da, db = self._den, o._den
        while i < len(a) and j < len(b):
            ea, na = a[i]
            eb, nb = b[j]
            if ea < eb:
                return 1 if na > 0 else -1
            if eb < ea:
                return -1 if nb > 0 else 1
            na *= db
            nb *= da
            if na != nb:
                return -1 if na < nb else 1
            i += 1
            j += 1
        if i < len(a):
            return 1 if a[i][1] > 0 else -1
        if j < len(b):
            return -1 if b[j][1] > 0 else 1
        return 0

    def _compare_scalar(self, q: Rational) -> int:
        """Sign of self - q without building a series for q: signs come from
        the numerators, the exponent-0 coefficient is compared with q
        crosswise."""
        nums = self._nums
        i = 0  # the index of the first term past exponent 0
        if nums:
            e, n = nums[0]
            if e.numerator < 0:
                return 1 if n > 0 else -1
            if e.numerator == 0:
                i = 1
        lhs, rhs = (nums[0][1] * q.denominator if i else 0), q.numerator * self._den
        if lhs != rhs:
            return 1 if lhs > rhs else -1
        if i < len(nums):
            return 1 if nums[i][1] > 0 else -1
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
        return (self._nums, self._den, self.window) == (other._nums, other._den, other.window)

    def __hash__(self):
        return hash((self.terms, self.window))

    def __abs__(self) -> "HyperReal":
        return -self if self.compare(0) < 0 else self

    # -- classification and standard part ---------------------------------------

    def classify(self) -> Classification:
        if not self._nums:
            if self.saturated:
                raise self._uncertain("classification")
            return Classification.ZERO
        lam, n = self._nums[0]
        if lam > 0:
            return Classification.INFINITESIMAL
        if lam == 0:
            return Classification.APPRECIABLE
        return (
            Classification.INFINITE_POSITIVE
            if n > 0
            else Classification.INFINITE_NEGATIVE
        )

    @property
    def is_limited(self) -> bool:
        if not self._nums and self.order >= 0:
            return True
        return self.classify().is_limited

    @property
    def is_infinitesimal(self) -> bool:
        if not self._nums and self.order > 0:
            return True
        return self.classify().is_infinitesimal

    def st(self) -> ExtendedReal:
        """Standard part: the exponent-0 coefficient, or a signed infinity."""
        if self._nums and self._nums[0][0] < 0:
            return ExtendedReal.POS_INF if self._nums[0][1] > 0 else ExtendedReal.NEG_INF
        self.certify(0, "standard part")
        return ExtendedReal(self.coefficient(0))

    def st_fraction(self) -> Fraction:
        return self.st().as_fraction()

    def infinitely_close(self, other) -> bool:
        return (self - self._coerce(other)).is_infinitesimal

    # -- rendering ---------------------------------------------------------------

    def render(self) -> str:
        """Canonical text: terms joined by " + ", exponent-0 terms printed bare."""
        if not self._nums:
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


def _fill(x: HyperReal, nums: list[Num], den: int, window, precision: int, order) -> None:
    """Set x's slots from sorted, merged, nonzero numerators over ``den``:
    drop the terms at or above the order, then apply the window cap, which
    lowers the order to the cap when it drops a term; then divide out the
    gcd of ``den`` and the numerators kept."""
    if nums and nums[-1][0] >= order:
        nums = [t for t in nums if t[0] < order]
    if nums:
        cap = nums[0][0] + window
        if nums[-1][0] >= cap:
            nums = [t for t in nums if t[0] < cap]
            order = cap
    if not nums:
        den = 1
    elif den != 1:
        g = gcd(den, *[n for _, n in nums])
        if g != 1:
            nums = [(e, n // g) for e, n in nums]
            den //= g
    object.__setattr__(x, "_nums", tuple(nums))
    object.__setattr__(x, "_den", den)
    object.__setattr__(x, "window", window)
    object.__setattr__(x, "precision", precision)
    object.__setattr__(x, "order", order)


def _series(nums: list[Num], den: int, window, precision: int, order=inf) -> HyperReal:
    """The canonical constructor of internal results.

    ``nums`` must already be merged, sorted by exponent, free of zero
    numerators and hold integral exponents as ints; ``den`` is positive;
    ``window`` and a finite ``order`` are normalised the same way.  Only the
    order and window caps and the one gcd reduction are applied.
    """
    x = object.__new__(HyperReal)
    _fill(x, nums, den, window, precision, order)
    return x


def _canonical(acc: dict) -> list[Num]:
    """Accumulated exponent -> numerator sums as canonical numerators."""
    return [
        (e if type(e) is int else _exponent(e), n)
        for e, n in sorted(acc.items())
        if n
    ]


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
        return self.monomial(q, 0)

    def zero(self) -> HyperReal:
        return self.rational(0)

    def one(self) -> HyperReal:
        return self.rational(1)

    def epsilon(self, q: Rational = 1) -> HyperReal:
        """The monomial eps^q; epsilon(1) is the canonical infinitesimal,
        epsilon(-1) the canonical infinite element."""
        return self.monomial(1, q)

    def gamma(self) -> HyperReal:
        return self.epsilon(-1)

    def monomial(self, coeff: Rational, exponent: Rational) -> HyperReal:
        c = Fraction(coeff)
        return _series(
            [(_exponent(exponent), c.numerator)] if c else [],
            c.denominator,
            _exponent(self.window),
            int(self.precision),
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
    if isinstance(y, (int, Fraction)):
        return _ORDER_SYMBOL[x._compare_scalar(y)]
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
    leading exponent of e, and on x's leading exponent or certified order.
    """
    if e.classify() is not Classification.INFINITESIMAL:
        raise NotInfinitesimal(f"order-ideal generator must be a nonzero infinitesimal, got {e}")
    lam = e.leading_exponent()
    if not x.is_zero:
        return x.leading_exponent() > lam
    x.certify(lam, "order-ideal membership")
    return True


def close_of_order(a: HyperReal, b: HyperReal, e: HyperReal, n: int) -> bool:
    """a and b agree modulo o(e^n)."""
    return in_order_ideal(a - b, e**n)


# -- analytic maps ---------------------------------------------------------------


def _split_limited(x: HyperReal, what: str) -> tuple[Fraction, HyperReal]:
    """Split a limited x into (standard part, infinitesimal tail)."""
    if not x.is_zero and x.leading_exponent() < 0:
        raise TranscendentalOnUnlimited(f"{what} of an unlimited argument")
    x.certify(0, f"standard part of the {what} argument")
    s = x.coefficient(0)
    return s, x - s


def _power_series(
    u: HyperReal, coeffs: Iterator[Fraction], head: Term = (0, Fraction(1))
) -> HyperReal:
    """head * sum_k c_k u^k for an infinitesimal u (leading exponent mu > 0,
    or no terms and a positive order).

    ``coeffs`` yields c_0, c_1, ... and must not be all zero; ``head`` is the
    monomial (exponent, coefficient) the sum is multiplied by.  If c_k0 is
    the first nonzero coefficient, the result's leading exponent is k0*mu, so
    the sum keeps the exponents below k0*mu + window: the relative window of
    the result's own leading term.  u's truncation, O(eps^N) with N its
    order, reaches the sum first in c_k1 u^k1 (k1 the first k >= 1 with
    c_k nonzero), as O(eps^(N + (k1-1)*mu)); the kept exponents stop there
    when that comes first, and the result's order is where they stop.  Each
    power u^k is truncated below the same cap (below k*mu + window until k0
    is found), which drops nothing that could fall under the cap later.
    """
    shift, scale = head
    window, trunc = u.window, u.order
    if not u._nums:  # u = O(eps^N): c_0 is the whole known part
        c0 = next(coeffs)
        if trunc != inf:
            trunc = _exponent(shift + next(k for k, c in enumerate(coeffs, 1) if c) * trunc)
        c0 *= scale
        return _series([(shift, c0.numerator)] if c0 else [], c0.denominator, window,
                       u.precision, trunc)
    mu = u._nums[0][0]
    if not scale:
        return _series([], 1, window, u.precision, _exponent(shift + min(window, trunc)))
    # c_k u^k is kept unreduced as (numerator, denominator, u^k numerators);
    # the blocks meet over the lcm of their denominators once, at the end
    blocks: list[tuple[int, int, list[Num]]] = []
    cap = None
    upow: list[Num] = [(0, 1)]
    pden = 1  # the denominator of u^k's numerators: u's to the k-th power
    for k, c in enumerate(coeffs):
        if c:
            if cap is None:
                cap = k * mu + window
            if k and trunc != inf:  # k is k1: u's truncation enters here
                cap = min(cap, trunc + (k - 1) * mu)
                trunc = inf
            c *= scale
            blocks.append((c.numerator, c.denominator * pden, upow))
        limit = (k + 1) * mu + window if cap is None else cap
        nxt: dict[Fraction | int, int] = {}
        for e1, a1 in upow:
            for e2, a2 in u._nums:
                e = e1 + e2
                if e >= limit:
                    break
                if e in nxt:
                    nxt[e] += a1 * a2
                else:
                    nxt[e] = a1 * a2
        upow = [t for t in nxt.items() if t[1]]
        if not upow:
            break
        pden *= u._den
    den = lcm(*[d for _, d, _ in blocks])
    acc: dict[Fraction | int, int] = {}
    for n, d, power in blocks:
        n *= den // d
        for e, a in power:
            if e in acc:
                acc[e] += n * a
            else:
                acc[e] = n * a
    if shift:
        acc = {e + shift: n for e, n in acc.items()}
    return _series(_canonical(acc), den, window, u.precision, _exponent(shift + limit))


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
    return _power_series(h, _exp_coeffs(), (0, approx.exp_approx(s, x.precision)))


def hr_ln(x: HyperReal) -> HyperReal:
    s, h = _split_limited(x, "ln")
    if s <= 0:
        raise DomainError(f"ln requires a positive standard part, got {show_rational(s)}")
    return _power_series(h, _ln_coeffs(approx.ln_approx(s, x.precision), s))


def hr_sin(x: HyperReal) -> HyperReal:
    s, h = _split_limited(x, "sin")
    sin_s, cos_s = approx.sin_cos_approx(s, x.precision)
    return _power_series(h, _trig(sin_s, cos_s))


def hr_cos(x: HyperReal) -> HyperReal:
    s, h = _split_limited(x, "cos")
    sin_s, cos_s = approx.sin_cos_approx(s, x.precision)
    return _power_series(h, _trig(cos_s, -sin_s))


def hr_tan(x: HyperReal) -> HyperReal:
    """tan(s + u) = (t cos u + sin u) / (cos u - t sin u) with t = tan(s)
    from ``tan_approx``, so the constant term is tan_approx(s) itself and the
    pole bound is tan_approx's."""
    s, h = _split_limited(x, "tan")
    t = approx.tan_approx(s, x.precision)
    return _power_series(h, _trig(t, Fraction(1))) / _power_series(h, _trig(Fraction(1), -t))


def hr_pow(x: HyperReal, r: Fraction) -> HyperReal:
    """x^r for a rational r: exact for integer r; otherwise the real-power
    rule of ``nth_root``, its head from ``pow_approx``, the kernel
    ``eval_real`` takes for ``^``."""
    r = Fraction(r)
    if r.denominator == 1:
        return x ** r.numerator
    return x._real_power(r, lambda a: approx.pow_approx(a, r, x.precision), "real power")


_ANALYTIC = {
    "exp": hr_exp,
    "ln": hr_ln,
    "sin": hr_sin,
    "cos": hr_cos,
    "tan": hr_tan,
}


def apply_analytic(fn: str, x: HyperReal) -> HyperReal:
    """Apply an analytic map, one of exp, ln, sin, cos, tan, at a limited
    argument; ``hr_pow`` takes real powers."""
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
