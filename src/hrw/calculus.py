"""Limits, derivatives, jets, increments, tangents, curvature, Jacobians.

Everything here is computed the same way: evaluate the expression at a point
displaced by the canonical infinitesimal, read coefficients off the resulting
series, and take standard parts.  Monad quantifiers are realized by a fixed
probe set (the canonical infinitesimal, its negation and square, and rational
multiples); for the expression grammar this is sound for jets of analytic
compositions and is documented rather than claimed complete.

Probes widen on demand.  Each one first evaluates at the narrowest window
that can hold what it reads (order+1 for a jet; for a standard part 1, or 2
when the probe point p +- eps needs it; 2 for a chord read to first order; 3
for a Jacobian's residual along eps^2) and doubles the window while the
certified order of a value it reads (see :mod:`hrw.field`) does not cover
that read.  ``cfg.window`` is the ceiling: past it the probe raises
:class:`~hrw.errors.PrecisionExhausted` rather than return a coefficient the
field cannot vouch for.  A coefficient read at any window is the exact one,
so results do not depend on the window they were certified at.
``nth_increment`` returns its whole series, so it evaluates in the caller's
field and only checks that the order it is read at is certified.

The points of one probe family differ only by a dilation.  For a monomial
step h = a*eps^q, one evaluation at c + h serves every point c + j*h of an
increment (``HyperReal._dilated``), and the left side of a limit serves the
right, j = -1, unless the walk read a leading coefficient that the dilation
moves (``EvalTrace.dilatable``); then each point is evaluated on its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Sequence, TypeVar

from . import approx
from .errors import (
    DomainError,
    MathError,
    NonSmoothAtPoint,
    PrecisionExhausted,
    ZeroVelocity,
)
from .exprs import Expr, eval_hyper_traced, eval_real, free_vars
from .field import DEFAULT_FIELD, ExtendedReal, Field, HyperReal, in_order_ideal
from .rationals import format_rational, show_rational

T = TypeVar("T")


# -- widening -----------------------------------------------------------------------


def _widen(cfg: Field, start: int, probe: Callable[[Field], T]) -> T:
    """probe(field) at windows start, 2*start, 4*start, ... up to cfg.window.

    The probe raises PrecisionExhausted when a value it reads is not
    certified far enough; the first window where it does not is the answer.
    At the ceiling cfg.window the error propagates.
    """
    window = min(Fraction(start), cfg.window)
    while True:
        try:
            return probe(Field(window, cfg.precision))
        except PrecisionExhausted as ex:
            if window >= cfg.window:
                raise PrecisionExhausted(
                    f"{ex}; window {format_rational(cfg.window)} is the ceiling"
                ) from None
            window = min(2 * window, cfg.window)

# -- jets --------------------------------------------------------------------------


@dataclass(frozen=True)
class Jet:
    """Taylor data at a point: coeffs[k] = f^(k)(base)/k!."""

    base: Fraction
    coeffs: tuple[Fraction, ...]

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def derivative(self, n: int) -> Fraction:
        if not 0 <= n <= self.order:
            raise ValueError(f"jet holds orders 0..{self.order}")
        fact = 1
        for k in range(2, n + 1):
            fact *= k
        return self.coeffs[n] * fact


def infer_variable(f: Expr, var: str | None = None) -> str:
    if var is not None:
        return var
    names = sorted(free_vars(f))
    if len(names) > 1:
        raise DomainError(f"expression has several variables {names}; name one")
    return names[0] if names else "x"


def _smooth(f: Expr, env: dict[str, HyperReal], fld: Field, where: str) -> HyperReal:
    """f over the series field, refused when an abs argument vanishes ``where``
    (the probe point): |x| has no jet there."""
    value, trace = eval_hyper_traced(f, env, fld)
    if trace.abs_nonsmooth:
        raise NonSmoothAtPoint(f"abs argument vanishes {where}")
    return value


def taylor_jet(
    f: Expr,
    x0: Fraction,
    order: int,
    cfg: Field = DEFAULT_FIELD,
    var: str | None = None,
) -> Jet:
    """Coefficients of eps^0..eps^order of f(x0 + eps).

    Exact for algebraic expressions; constants of transcendental calls are
    rational approximations at the configured precision.  Evaluated from
    window order+1 up, until every order read is certified.
    """
    x0 = Fraction(x0)
    if order < 0:
        raise ValueError("jet order must be >= 0")
    if order >= cfg.window:
        raise ValueError(f"jet order {order} does not fit the window {show_rational(cfg.window)}")
    name = infer_variable(f, var)
    shown = show_rational(x0)

    def probe(fld: Field) -> Jet:
        value = _smooth(f, {name: fld.rational(x0) + fld.epsilon()}, fld, f"at {shown}")
        lead = value.leading_exponent()
        if lead is not None and lead < 0:
            raise DomainError(f"expression unbounded on the monad of {shown}")
        value.certify(order, f"jet of order {order}")
        for e in value.exponents():
            if e > order:
                break
            if e.denominator != 1:
                raise NonSmoothAtPoint(f"fractional order eps^{e} at {shown}")
        return Jet(x0, tuple(value.coefficient(k) for k in range(order + 1)))

    return _widen(cfg, order + 1, probe)


def derivative(
    f: Expr,
    x0: Fraction,
    n: int = 1,
    cfg: Field = DEFAULT_FIELD,
    var: str | None = None,
) -> Fraction:
    """n-th derivative at x0, read from the jet."""
    if n < 1:
        raise ValueError("derivative order must be >= 1")
    return taylor_jet(f, x0, n, cfg, var).derivative(n)


def nth_increment(
    f: Expr,
    c: Fraction,
    h: HyperReal,
    n: int,
    cfg: Field = DEFAULT_FIELD,
    var: str | None = None,
) -> HyperReal:
    """Alternating binomial difference sum_k (-1)^k C(n,k) f(c + (n-k) h).

    The whole series is returned, so it is evaluated in the caller's field;
    it must be certified up to h^n, the order the increment is read at.

    For n >= 2 and a monomial h = a*eps^q, one evaluation at c + h serves
    every point c + j*h, j >= 1, as its dilation (``HyperReal._dilated``),
    and f(c) is evaluated on its own.  The points are evaluated one by one,
    from c + n*h down, when that walk clears ``EvalTrace.dilatable`` or
    meets an ``abs`` argument that vanishes, or when either evaluation
    raises, so every value and refusal is that of the pointwise sum.
    """
    if n < 1:
        raise ValueError("increment order must be >= 1")
    c = Fraction(c)
    name = infer_variable(f, var)
    where = f"near {show_rational(c)}"
    values = _dilated_points(f, name, c, h, n, cfg, where) if n >= 2 else None
    if values is None:
        points = (cfg.rational(c) + h * j for j in range(n, -1, -1))
        values = [_smooth(f, {name: point}, cfg, where) for point in points]
    total = cfg.zero()
    binom = 1
    for k, value in enumerate(values):
        if k:
            binom = binom * (n - k + 1) // k
        total = total + value * Fraction((-1) ** k * binom)
    total.certify(n * (h.leading_exponent() or 0), f"increment of order {n}")
    return total


def _dilated_points(
    f: Expr, name: str, c: Fraction, h: HyperReal, n: int, cfg: Field, where: str
) -> list[HyperReal] | None:
    """f(c + j*h) for j = n, ..., 0 from one walk at c + h, or None where
    the points must be evaluated one by one."""
    exponents = h.exponents()
    if len(exponents) != 1 or not exponents[0]:
        return None
    q = exponents[0]
    try:
        value, trace = eval_hyper_traced(f, {name: cfg.rational(c) + h}, cfg, (q, n))
        if not trace.dilatable or trace.abs_nonsmooth:
            return None
        at_c = _smooth(f, {name: cfg.rational(c)}, cfg, where)
    except MathError:
        return None
    return [value._dilated(j, q) for j in range(n, 0, -1)] + [at_c]


# -- limits -------------------------------------------------------------------------


@dataclass(frozen=True)
class LimitResult:
    """Outcome of a limit computation; method is always recorded."""

    value: ExtendedReal | None
    method: str  # "field-evaluation" | "numeric-fallback"
    left: ExtendedReal | None = None
    right: ExtendedReal | None = None
    note: str = ""

    @property
    def exists(self) -> bool:
        return self.value is not None

    def __str__(self) -> str:
        if self.value is not None:
            return f"{self.value} (method: {self.method})"
        if self.left is None and self.right is None:
            tail = f"; {self.note}" if self.note else ""
            return f"NoLimit (method: {self.method}{tail})"
        sides = f"left: {self.left if self.left is not None else 'undefined'}, " \
                f"right: {self.right if self.right is not None else 'undefined'}"
        return f"NoLimit{{{sides}}} (method: {self.method})"


_FALLBACK_K = range(10, 41)  # samples at n = 2^k
_CAUCHY_TOL = Fraction(1, 10**8)
_DIVERGE_BOUND = Fraction(10**12)
_CAUCHY_RUN = 3  # consecutive small gaps required


def _field_seq_limit(S: Expr, cfg: Field, name: str) -> LimitResult:
    def probe(fld: Field) -> ExtendedReal:
        return eval_hyper_traced(S, {name: fld.gamma()}, fld)[0].st()

    return LimitResult(_widen(cfg, 1, probe), "field-evaluation")


def _numeric_seq_limit(S: Expr, cfg: Field, name: str) -> LimitResult:
    samples: list[tuple[int, Fraction | None, int]] = []  # (k, value | None, overflow sign)
    failures = []
    for k in _FALLBACK_K:
        n = Fraction(2**k)
        try:
            v = eval_real(S, {name: n}, cfg.precision)
            samples.append((k, v, 0))
        except MathError as ex:
            if ex.case == "ApproxOverflow":
                samples.append((k, None, 1))
            else:
                failures.append(f"n=2^{k}: {ex.case}")
    if failures:
        return LimitResult(None, "numeric-fallback", note="; ".join(failures[:3]))
    finite = [(k, v) for k, v, o in samples if o == 0]
    # Cauchy tail: the last _CAUCHY_RUN successive gaps all below tolerance
    if len(finite) == len(samples) and len(finite) > _CAUCHY_RUN:
        gaps = [abs(finite[i + 1][1] - finite[i][1]) for i in range(len(finite) - 1)]
        if all(g < _CAUCHY_TOL for g in gaps[-_CAUCHY_RUN:]):
            return LimitResult(ExtendedReal(finite[-1][1]), "numeric-fallback")
    # divergence: monotone growth beyond the bound, stable sign (overflow counts)
    tail = samples[-(_CAUCHY_RUN + 1):]
    magnitudes = [abs(v) if v is not None else None for _, v, _ in tail]
    signs = {(1 if v > 0 else -1) if v is not None else o for _, v, o in tail}
    if len(signs) == 1:
        big = all(m is None or m > _DIVERGE_BOUND for m in magnitudes)
        finite_mags = [m for m in magnitudes if m is not None]
        growing = all(a < b for a, b in zip(finite_mags, finite_mags[1:]))
        if big and growing:
            sign = signs.pop()
            return LimitResult(
                ExtendedReal.POS_INF if sign > 0 else ExtendedReal.NEG_INF,
                "numeric-fallback",
            )
    return LimitResult(None, "numeric-fallback", note="no Cauchy tail, no monotone divergence")


def seq_limit(
    S: Expr,
    cfg: Field = DEFAULT_FIELD,
    var: str | None = None,
    method: str = "auto",
) -> LimitResult:
    """Limit of the sequence S(n): substitute the canonical infinite element
    and take the standard part; fall back to sampling at n = 2^10..2^40 when
    the field path raises (e.g. a transcendental applied to an unlimited
    argument, or a root index that is not standard).  A standard part that
    no window up to the ceiling certifies raises PrecisionExhausted: the
    samples would meet the same cancellation."""
    name = infer_variable(S, var) if free_vars(S) else "n"
    if method == "field":
        return _field_seq_limit(S, cfg, name)
    if method == "numeric":
        return _numeric_seq_limit(S, cfg, name)
    try:
        return _field_seq_limit(S, cfg, name)
    except PrecisionExhausted:
        raise
    except MathError:
        return _numeric_seq_limit(S, cfg, name)


def fn_limit(
    f: Expr, p: Fraction, cfg: Field = DEFAULT_FIELD, var: str | None = None
) -> LimitResult:
    """Two-sided limit at p from the deleted-monad probes p - eps and p + eps.

    When only one side is evaluable the limit is taken along the domain and
    that side's standard part is returned.  A side whose standard part no
    window up to the ceiling certifies raises PrecisionExhausted.
    """
    p = Fraction(p)
    name = infer_variable(f, var)

    left, right = _sides(f, name, p, cfg)
    if left is None and right is None:
        return LimitResult(None, "field-evaluation", left, right, note="neither side evaluable")
    if left is None or right is None:
        only = left if left is not None else right
        return LimitResult(only, "field-evaluation", left, right, note="one-sided")
    if left == right:
        return LimitResult(left, "field-evaluation", left, right)
    return LimitResult(None, "field-evaluation", left, right)


def continuity_check(
    f: Expr, p: Fraction, cfg: Field = DEFAULT_FIELD, var: str | None = None
) -> bool:
    """st(f(p +- eps)) == f(p) on both monomial probes.

    Necessary and sufficient for the expression grammar on these probes; the
    probe set is fixed, not a quantifier over the whole monad.
    """
    p = Fraction(p)
    name = infer_variable(f, var)
    try:
        at_p = eval_real(f, {name: p}, cfg.precision)
    except MathError as ex:
        raise DomainError(f"function undefined at {show_rational(p)}: {ex.case}") from ex
    for s in _sides(f, name, p, cfg):
        if s is None or not s.is_finite or s.as_fraction() != at_p:
            return False
    return True


def _sides(f: Expr, name: str, p: Fraction, cfg: Field) -> Iterator[ExtendedReal | None]:
    """st(f(p - eps)), then st(f(p + eps)); None for a side that is not
    evaluable.  The right side is the left side's series under the dilation
    eps -> -eps (``HyperReal._dilated(-1, 1)``) when the left walk keeps
    ``EvalTrace.dilatable``: the two walks then take the same branches and
    certify at the same windows.  Otherwise it is evaluated on its own."""
    left = _side(f, name, p, -1, cfg)
    yield None if left is None else left[0]
    if left is not None and left[1] is not None:
        yield left[1]._dilated(-1, 1).st()
    else:
        right = _side(f, name, p, 1, cfg)
        yield None if right is None else right[0]


def _side(
    f: Expr, name: str, p: Fraction, sign: int, cfg: Field
) -> tuple[ExtendedReal, HyperReal | None] | None:
    """st(f(p + sign*eps)), widened from the narrowest window that holds the
    probe point itself, and the series it was read from, or None in its
    place when the walk cleared ``EvalTrace.dilatable``; None when the side
    is not evaluable.  PrecisionExhausted propagates: the side is evaluable
    but no window certifies it."""

    def probe(fld: Field) -> tuple[ExtendedReal, HyperReal | None]:
        point = fld.rational(p) + fld.epsilon() * sign
        value, trace = eval_hyper_traced(f, {name: point}, fld, (1, 1))
        return value.st(), value if trace.dilatable else None

    try:
        return _widen(cfg, 2 if p else 1, probe)
    except PrecisionExhausted:
        raise
    except MathError:
        return None


# -- curves: tangents and curvature ----------------------------------------------------


@dataclass(frozen=True)
class CurveDef:
    """Parametric curve: one expression per coordinate, a single parameter."""

    components: tuple[Expr, ...]
    param: str

    def __post_init__(self):
        if len(self.components) < 2:
            raise ValueError("a curve needs dimension >= 2")
        for comp in self.components:
            stray = free_vars(comp) - {self.param}
            if stray:
                raise ValueError(f"component uses {sorted(stray)}, parameter is {self.param!r}")

    @property
    def dimension(self) -> int:
        return len(self.components)

    @staticmethod
    def from_exprs(components: Sequence[Expr], param: str | None = None) -> "CurveDef":
        if param is None:
            names: set[str] = set()
            for comp in components:
                names |= free_vars(comp)
            if len(names) > 1:
                raise ValueError(f"components mix parameters {sorted(names)}")
            param = names.pop() if names else "t"
        return CurveDef(tuple(components), param)

    def point(self, t: Fraction, precision: int) -> tuple[Fraction, ...]:
        return tuple(eval_real(c, {self.param: t}, precision) for c in self.components)

    def jets(self, t0: Fraction, order: int, cfg: Field) -> list[Jet]:
        return [taylor_jet(c, t0, order, cfg, self.param) for c in self.components]


def _norm_sq(v: Sequence[Fraction]) -> Fraction:
    return sum((c * c for c in v), Fraction(0))


def velocity(c: CurveDef, t0: Fraction, cfg: Field = DEFAULT_FIELD) -> tuple[Fraction, ...]:
    jets = c.jets(Fraction(t0), 1, cfg)
    v = tuple(j.coeffs[1] for j in jets)
    if all(x == 0 for x in v):
        raise ZeroVelocity(f"velocity vanishes at {show_rational(t0)}")
    return v


def unit_tangent(
    c: CurveDef, t0: Fraction, cfg: Field = DEFAULT_FIELD
) -> tuple[Fraction, ...]:
    """Velocity normalized by its Euclidean norm (rational approximation)."""
    v = velocity(c, t0, cfg)
    norm = approx.sqrt_approx(_norm_sq(v), cfg.precision)
    return tuple(x / norm for x in v)


def tangent_certificate(
    c: CurveDef,
    t0: Fraction,
    cfg: Field = DEFAULT_FIELD,
    vector: Sequence[Fraction] | None = None,
) -> Fraction:
    """st( T . (c(t0+eps) - c(t0)) / ||c(t0+eps) - c(t0)|| ), computed in the
    series field; +-1 for a genuine tangent direction."""
    t0 = Fraction(t0)
    T = tuple(vector) if vector is not None else unit_tangent(c, t0, cfg)
    at_t0 = c.point(t0, cfg.precision)

    def probe(fld: Field) -> Fraction:
        chord = []
        for comp, base in zip(c.components, at_t0):
            at = eval_hyper_traced(comp, {c.param: fld.rational(t0) + fld.epsilon()}, fld)[0]
            chord.append(at - base)
        norm_sq = chord[0] * chord[0]
        for ch in chord[1:]:
            norm_sq = norm_sq + ch * ch
        if norm_sq.is_zero and not norm_sq.saturated:
            raise ZeroVelocity(f"chord vanishes at {show_rational(t0)}")
        dot = fld.zero()
        for ti, ch in zip(T, chord):
            dot = dot + ch * ti
        return (dot / norm_sq.nth_root(2)).st_fraction()

    return _widen(cfg, 2, probe)  # the chord is read to its first order


@dataclass(frozen=True)
class CurvatureResult:
    kappa: Fraction
    straight: bool
    unit_normal: tuple[Fraction, ...] | None
    center: tuple[Fraction, ...] | None

    @property
    def radius(self) -> Fraction | None:
        return None if self.straight else 1 / self.kappa


def curvature(c: CurveDef, t0: Fraction, cfg: Field = DEFAULT_FIELD) -> CurvatureResult:
    """kappa = |c' x c''| / |c'|^3 in dimension 2 or 3; the osculating center
    c(t0) + (1/kappa) N sits along the unit normal N."""
    if c.dimension not in (2, 3):
        raise ValueError("curvature implemented for plane and space curves")
    t0 = Fraction(t0)
    jets = c.jets(t0, 2, cfg)
    d1 = tuple(j.coeffs[1] for j in jets)
    d2 = tuple(2 * j.coeffs[2] for j in jets)
    if all(x == 0 for x in d1):
        raise ZeroVelocity(f"velocity vanishes at {show_rational(t0)}")
    speed_sq = _norm_sq(d1)
    if c.dimension == 2:
        cross_sq = (d1[0] * d2[1] - d1[1] * d2[0]) ** 2
    else:
        cx = d1[1] * d2[2] - d1[2] * d2[1]
        cy = d1[2] * d2[0] - d1[0] * d2[2]
        cz = d1[0] * d2[1] - d1[1] * d2[0]
        cross_sq = cx * cx + cy * cy + cz * cz
    if cross_sq == 0:
        return CurvatureResult(Fraction(0), True, None, None)
    d = cfg.precision
    kappa = approx.sqrt_approx(cross_sq, d) / (speed_sq * approx.sqrt_approx(speed_sq, d))
    # normal: component of c'' orthogonal to c', normalized
    proj = sum(a * b for a, b in zip(d2, d1)) / speed_sq
    w = tuple(b - proj * a for a, b in zip(d1, d2))
    wn = approx.sqrt_approx(_norm_sq(w), d)
    normal = tuple(x / wn for x in w)
    point = c.point(t0, d)
    center = tuple(p + n / kappa for p, n in zip(point, normal))
    return CurvatureResult(kappa, False, normal, center)


# -- Jacobians ----------------------------------------------------------------------------


@dataclass(frozen=True)
class JacobianResult:
    matrix: tuple[tuple[Fraction, ...], ...]
    residual_order_ok: bool


def jacobian(
    F: Sequence[Expr],
    point: Sequence[Fraction],
    cfg: Field = DEFAULT_FIELD,
    varnames: Sequence[str] | None = None,
) -> JacobianResult:
    """Matrix of first partials by coordinate eps-probes, plus a check that the
    increment residual against the linear map lies in o(||b||) on a fixed set
    of infinitesimal probe directions (coordinate and diagonal only)."""
    point = [Fraction(p) for p in point]
    if varnames is None:
        names: set[str] = set()
        for comp in F:
            names |= free_vars(comp)
        varnames = sorted(names)
        default_names = ("x", "y", "z")
        if not varnames:
            varnames = list(default_names[: len(point)])
        if len(varnames) < len(point) and set(varnames) <= set(default_names):
            varnames = list(default_names[: len(point)])
    if len(varnames) != len(point):
        raise ValueError(f"{len(point)} coordinates but variables {varnames}")
    n = len(point)
    d = cfg.precision

    base_env = {name: Fraction(v) for name, v in zip(varnames, point)}
    f_at_c = [eval_real(comp, base_env, d) for comp in F]
    where = f"at ({', '.join(map(show_rational, point))})"

    def probe(fld: Field) -> JacobianResult:
        def eval_at(offsets: Sequence[HyperReal]) -> list[HyperReal]:
            env = {
                name: fld.rational(v) + off
                for name, v, off in zip(varnames, point, offsets)
            }
            return [_smooth(comp, env, fld, where) for comp in F]

        eps = fld.epsilon()
        zero = fld.zero()
        matrix = [[Fraction(0)] * n for _ in F]
        for j in range(n):
            offsets = [eps if k == j else zero for k in range(n)]
            for i, value in enumerate(eval_at(offsets)):
                matrix[i][j] = ((value - f_at_c[i]) / eps).st_fraction()

        probes = [
            [eps for _ in range(n)],
            [eps if k % 2 == 0 else -eps for k in range(n)],
            [eps * eps if k == 0 else zero for k in range(n)],
        ]
        ok = True
        for b in probes:
            values = eval_at(b)
            norm_b_sq = b[0] * b[0]
            for extra in b[1:]:
                norm_b_sq = norm_b_sq + extra * extra
            residual_sq = zero
            for i, value in enumerate(values):
                linear = zero
                for j in range(n):
                    linear = linear + b[j] * matrix[i][j]
                r = value - f_at_c[i] - linear
                residual_sq = residual_sq + r * r
            # r in o(||b||) exactly when ||r||^2 is in o(||b||^2)
            ok = ok and in_order_ideal(residual_sq, norm_b_sq)
        return JacobianResult(tuple(tuple(row) for row in matrix), ok)

    return _widen(cfg, 3, probe)  # the eps^2 probe reads the residual past order 2


# -- kinematics -----------------------------------------------------------------------------


def kinematics(
    d_expr: Expr, t0: Fraction, cfg: Field = DEFAULT_FIELD, var: str | None = None
) -> tuple[Fraction, Fraction]:
    """(velocity, acceleration) of a distance expression at t0: the first and
    second derivatives read from one order-2 jet."""
    jet = taylor_jet(d_expr, Fraction(t0), 2, cfg, var)
    return jet.derivative(1), jet.derivative(2)
