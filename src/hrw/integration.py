"""Finite-scale integration lab: partition sums, measures, gauges, convergence.

Infinite-mesh statements are emulated by sequences of finite partitions with
shrinking mesh; every sum is an exact rational, so results are identical
across runs and across any evaluation order.  A rational adaptive-Simpson
quadrature serves as the independent oracle for convergence studies.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple, Sequence

from . import approx
from .calculus import CurveDef, taylor_jet
from .errors import (
    DepthExceeded,
    DomainError,
    NegativeRadius,
    OracleFailure,
    OrderViolation,
    UnknownFunctional,
    ZeroMass,
)
from .exprs import Binary, Const, Expr, Unary, Var, compile_real, free_vars
from .field import DEFAULT_PRECISION, Field
from .rationals import decimal_str, format_rational

TAG_RULES = ("min-vertex", "center", "corner-nearest-origin", "seeded-random")


def axis_names(dimension: int) -> tuple[str, ...]:
    base = ("x", "y", "z")
    if dimension <= 3:
        return base[:dimension]
    return base + tuple(f"x{i}" for i in range(4, dimension + 1))


# -- geometry ---------------------------------------------------------------------


@dataclass(frozen=True)
class Rect:
    """Axis-aligned box with rational endpoints and positive volume."""

    intervals: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        if not self.intervals:
            raise ValueError("rectangle needs at least one axis")
        fixed = tuple((Fraction(a), Fraction(b)) for a, b in self.intervals)
        for a, b in fixed:
            if a >= b:
                raise ValueError(f"degenerate interval [{a}, {b}]")
        object.__setattr__(self, "intervals", fixed)

    @staticmethod
    def interval(a, b) -> "Rect":
        return Rect(((Fraction(a), Fraction(b)),))

    @staticmethod
    def box(*intervals) -> "Rect":
        return Rect(tuple((Fraction(a), Fraction(b)) for a, b in intervals))

    @property
    def dimension(self) -> int:
        return len(self.intervals)

    def volume(self) -> Fraction:
        v = Fraction(1)
        for a, b in self.intervals:
            v *= b - a
        return v


@dataclass(frozen=True)
class PartitionSpec:
    """Equal-width counts per axis, or explicit per-axis breakpoints."""

    kind: str  # "simple" | "explicit"
    counts: tuple[int, ...] | None = None
    points: tuple[tuple[Fraction, ...], ...] | None = None

    @staticmethod
    def simple(*counts: int) -> "PartitionSpec":
        if not counts or any(m < 1 for m in counts):
            raise ValueError("simple partition needs counts >= 1")
        return PartitionSpec("simple", tuple(int(m) for m in counts))

    @staticmethod
    def explicit(*axes: Sequence) -> "PartitionSpec":
        fixed = tuple(tuple(Fraction(p) for p in axis) for axis in axes)
        for axis in fixed:
            if len(axis) < 2 or any(a >= b for a, b in zip(axis, axis[1:])):
                raise ValueError("explicit breakpoints must be strictly increasing")
        return PartitionSpec("explicit", None, fixed)

    def breakpoints(self, rect: Rect) -> list[list[Fraction]]:
        if self.kind == "simple":
            counts = self.counts
            if len(counts) == 1 and rect.dimension > 1:
                counts = counts * rect.dimension
            if len(counts) != rect.dimension:
                raise ValueError("one count per axis required")
            out = []
            for (a, b), m in zip(rect.intervals, counts):
                step = (b - a) / m
                out.append([a + k * step for k in range(m)] + [b])
            return out
        if len(self.points) != rect.dimension:
            raise ValueError("one breakpoint list per axis required")
        for axis, (a, b) in zip(self.points, rect.intervals):
            if axis[0] != a or axis[-1] != b:
                raise ValueError("breakpoints must include the endpoints")
        return [list(axis) for axis in self.points]

    def max_width(self, rect: Rect) -> Fraction:
        return max(
            max(b - a for a, b in zip(axis, axis[1:]))
            for axis in self.breakpoints(rect)
        )


def _mix_seed(seed: int, index: int) -> int:
    return ((seed + 1) * 2654435761 + index * 40503) % (1 << 63)


def _tag_for(
    cell: tuple[tuple[Fraction, Fraction], ...], rule: str, seed: int, index: int
) -> tuple[Fraction, ...]:
    if rule == "min-vertex":
        return tuple(lo for lo, _ in cell)
    if rule == "center":
        return tuple((lo + hi) / 2 for lo, hi in cell)
    if rule == "corner-nearest-origin":
        return tuple(lo if abs(lo) <= abs(hi) else hi for lo, hi in cell)
    if rule == "seeded-random":
        rng = random.Random(_mix_seed(seed, index))
        return tuple(
            lo + Fraction(rng.getrandbits(30), 1 << 30) * (hi - lo) for lo, hi in cell
        )
    raise ValueError(f"unknown tag rule {rule!r}; choose from {TAG_RULES}")


@dataclass(frozen=True)
class TaggedPartition:
    """Ordered cells covering a rectangle plus one evaluation point per cell.

    Tags lie inside their cells unless ``tags_in_cells`` is False (the McShane
    mode, where gauge tags may sit anywhere in the rectangle).
    """

    rect: Rect
    cells: tuple[tuple[tuple[Fraction, Fraction], ...], ...]
    tags: tuple[tuple[Fraction, ...], ...]
    tag_rule: str
    tags_in_cells: bool = True

    def __post_init__(self):
        if len(self.cells) != len(self.tags):
            raise ValueError("one tag per cell required")
        if self.tags_in_cells:
            for cell, tag in zip(self.cells, self.tags):
                for (lo, hi), coord in zip(cell, tag):
                    if not lo <= coord <= hi:
                        raise ValueError(f"tag {tag} outside its cell {cell}")

    def volumes(self) -> list[Fraction]:
        out = []
        for cell in self.cells:
            v = Fraction(1)
            for lo, hi in cell:
                v *= hi - lo
            out.append(v)
        return out


def _iter_cells(
    breaks: list[list[Fraction]],
) -> Iterable[tuple[tuple[Fraction, Fraction], ...]]:
    """Row-major cell enumeration (first axis outermost)."""
    dims = [len(axis) - 1 for axis in breaks]
    idx = [0] * len(dims)
    total = 1
    for m in dims:
        total *= m
    for _ in range(total):
        yield tuple(
            (breaks[k][idx[k]], breaks[k][idx[k] + 1]) for k in range(len(dims))
        )
        for k in reversed(range(len(dims))):
            idx[k] += 1
            if idx[k] < dims[k]:
                break
            idx[k] = 0


def tagged_partition(
    rect: Rect, spec: PartitionSpec, tag_rule: str = "min-vertex", seed: int = 0
) -> TaggedPartition:
    breaks = spec.breakpoints(rect)
    cells = tuple(_iter_cells(breaks))
    tags = tuple(_tag_for(cell, tag_rule, seed, i) for i, cell in enumerate(cells))
    return TaggedPartition(rect, cells, tags, tag_rule)


# -- Riemann and Darboux sums --------------------------------------------------------


def riemann_sum(
    f: Expr,
    rect: Rect,
    spec: PartitionSpec,
    tag_rule: str = "min-vertex",
    seed: int = 0,
    precision: int = DEFAULT_PRECISION,
) -> Fraction:
    """sum f(tag) * volume(cell) over the tagged partition; exact rational."""
    names = axis_names(rect.dimension)
    fn = compile_real(f, names, precision)
    total = Fraction(0)
    for i, cell in enumerate(_iter_cells(spec.breakpoints(rect))):
        tag = _tag_for(cell, tag_rule, seed, i)
        v = Fraction(1)
        for lo, hi in cell:
            v *= hi - lo
        total += fn(*tag) * v
    return total


class DarbouxBounds(NamedTuple):
    lower: Fraction
    upper: Fraction
    nonmonotone_cells: int  # cells whose sampled grid is not per-axis monotone


def darboux_bounds(
    f: Expr,
    rect: Rect,
    spec: PartitionSpec,
    samples_per_axis: int = 5,
    precision: int = DEFAULT_PRECISION,
) -> DarbouxBounds:
    """Per-cell inf/sup estimated on a sample grid that includes every vertex.

    Exact whenever f is monotone along each axis inside each cell (extrema at
    vertices); an inner estimate otherwise, with such cells counted.
    """
    if samples_per_axis < 2:
        raise ValueError("need at least the two endpoint samples per axis")
    names = axis_names(rect.dimension)
    fn = compile_real(f, names, precision)
    s = samples_per_axis
    lower = Fraction(0)
    upper = Fraction(0)
    flagged = 0
    for cell in _iter_cells(spec.breakpoints(rect)):
        axes = [
            [lo + Fraction(j, s - 1) * (hi - lo) for j in range(s)] for lo, hi in cell
        ]
        grid: dict[tuple[int, ...], Fraction] = {}
        idx = [0] * len(axes)
        while True:
            grid[tuple(idx)] = fn(*(axes[k][idx[k]] for k in range(len(axes))))
            for k in reversed(range(len(axes))):
                idx[k] += 1
                if idx[k] < s:
                    break
                idx[k] = 0
            else:
                break
            if all(i == 0 for i in idx):
                break
        values = list(grid.values())
        v = Fraction(1)
        for lo, hi in cell:
            v *= hi - lo
        lower += min(values) * v
        upper += max(values) * v
        if not _grid_monotone(grid, len(axes), s):
            flagged += 1
    return DarbouxBounds(lower, upper, flagged)


def _grid_monotone(grid: dict[tuple[int, ...], Fraction], dim: int, s: int) -> bool:
    for axis in range(dim):
        lines: dict[tuple[int, ...], list[Fraction]] = {}
        for idx, val in grid.items():
            key = idx[:axis] + idx[axis + 1 :]
            lines.setdefault(key, [None] * s)[idx[axis]] = val
        for seq in lines.values():
            up = all(a <= b for a, b in zip(seq, seq[1:]))
            down = all(a >= b for a, b in zip(seq, seq[1:]))
            if not (up or down):
                return False
    return True


# -- Jordan regions ---------------------------------------------------------------------


@dataclass(frozen=True)
class Region:
    """Bounded region: membership expression <= 0 inside a bounding rectangle."""

    bounding: Rect
    membership: Expr
    exact_content: Fraction | None = None

    @staticmethod
    def whole(rect: Rect) -> "Region":
        return Region(rect, Const(Fraction(-1)), rect.volume())


class InnerSumResult(NamedTuple):
    value: Fraction
    inner: int
    boundary: int
    exterior: int
    boundary_volume: Fraction


def inner_sum(
    f: Expr,
    region: Region,
    spec: PartitionSpec,
    precision: int = DEFAULT_PRECISION,
) -> InnerSumResult:
    """Sum of f(min-vertex)*volume over cells that lie entirely inside.

    A cell counts inner when all its vertices and its center satisfy the
    membership predicate, exterior when none do, boundary otherwise.  The
    vertex+center sampling is exact for convex and smooth-boundary regions
    at fine meshes and heuristic in general.
    """
    rect = region.bounding
    names = axis_names(rect.dimension)
    member = compile_real(region.membership, names, precision)
    fn = compile_real(f, names, precision)
    if rect.dimension == 2:
        return _inner_sum_2d(member, fn, spec.breakpoints(rect))
    dim = rect.dimension
    inside_cache: dict[tuple[Fraction, ...], bool] = {}

    def inside(point: tuple[Fraction, ...]) -> bool:
        got = inside_cache.get(point)
        if got is None:
            got = member(*point) <= 0
            inside_cache[point] = got
        return got

    inner = boundary = exterior = 0
    value = Fraction(0)
    boundary_volume = Fraction(0)
    for cell in _iter_cells(spec.breakpoints(rect)):
        flags = []
        for mask in range(1 << dim):
            vertex = tuple(
                cell[k][1] if (mask >> k) & 1 else cell[k][0] for k in range(dim)
            )
            flags.append(inside(vertex))
        flags.append(member(*(((lo + hi) / 2) for lo, hi in cell)) <= 0)
        v = Fraction(1)
        for lo, hi in cell:
            v *= hi - lo
        if all(flags):
            inner += 1
            value += fn(*(lo for lo, _ in cell)) * v
        elif not any(flags):
            exterior += 1
        else:
            boundary += 1
            boundary_volume += v
    return InnerSumResult(value, inner, boundary, exterior, boundary_volume)


def _inner_sum_2d(member, fn, breaks) -> InnerSumResult:
    """Plane case of inner_sum: vertex rows shared between adjacent cells."""
    xs, ys = breaks
    x_mids = [(lo + hi) / 2 for lo, hi in zip(xs, xs[1:])]
    inner = boundary = exterior = 0
    value = Fraction(0)
    boundary_volume = Fraction(0)
    row_below = [member(x, ys[0]) <= 0 for x in xs]
    for j in range(len(ys) - 1):
        y_lo, y_hi = ys[j], ys[j + 1]
        y_mid = (y_lo + y_hi) / 2
        row_above = [member(x, y_hi) <= 0 for x in xs]
        dy = y_hi - y_lo
        for i in range(len(xs) - 1):
            f00 = row_below[i]
            f10 = row_below[i + 1]
            f01 = row_above[i]
            f11 = row_above[i + 1]
            fc = member(x_mids[i], y_mid) <= 0
            v = (xs[i + 1] - xs[i]) * dy
            if f00 and f10 and f01 and f11 and fc:
                inner += 1
                value += fn(xs[i], y_lo) * v
            elif not (f00 or f10 or f01 or f11 or fc):
                exterior += 1
            else:
                boundary += 1
                boundary_volume += v
        row_below = row_above
    return InnerSumResult(value, inner, boundary, exterior, boundary_volume)


# -- one-dimensional measures --------------------------------------------------------------


def _interval_breaks(a: Fraction, b: Fraction, m: int) -> list[Fraction]:
    step = (Fraction(b) - Fraction(a)) / m
    return [Fraction(a) + k * step for k in range(m)] + [Fraction(b)]


def measure_area_between(
    f: Expr,
    g: Expr,
    a: Fraction,
    b: Fraction,
    m: int,
    tag_rule: str = "min-vertex",
    precision: int = DEFAULT_PRECISION,
) -> Fraction:
    """Riemann sum of (g - f) on [a, b]; f <= g checked at partition points."""
    name = axis_names(1)[0]
    var = sorted(free_vars(f) | free_vars(g)) or [name]
    fn_f = compile_real(f, (var[0],), precision)
    fn_g = compile_real(g, (var[0],), precision)
    breaks = _interval_breaks(a, b, m)
    for t in breaks:
        if fn_f(t) > fn_g(t):
            raise OrderViolation(f"lower curve exceeds upper curve at {t}")
    total = Fraction(0)
    for i, (lo, hi) in enumerate(zip(breaks, breaks[1:])):
        (tag,) = _tag_for(((lo, hi),), tag_rule, 0, i)
        total += (fn_g(tag) - fn_f(tag)) * (hi - lo)
    return total


def measure_volume_revolution(
    f: Expr, a: Fraction, b: Fraction, m: int, precision: int = DEFAULT_PRECISION
) -> Fraction:
    """Solid of revolution about the axis: Riemann sum of pi * f(x)^2."""
    var = sorted(free_vars(f)) or ["x"]
    fn = compile_real(f, (var[0],), precision)
    pi = approx.pi_approx(precision)
    breaks = _interval_breaks(a, b, m)
    total = Fraction(0)
    for lo, hi in zip(breaks, breaks[1:]):
        r = fn(lo)
        if r < 0:
            raise NegativeRadius(f"f({lo}) = {r} < 0")
        total += pi * r * r * (hi - lo)
    return total


def measure_surface_revolution(
    f: Expr, a: Fraction, b: Fraction, m: int, precision: int = DEFAULT_PRECISION
) -> Fraction:
    """Surface of revolution: Riemann sum of 2 pi f(x) sqrt(1 + f'(x)^2)."""
    var = sorted(free_vars(f)) or ["x"]
    fn = compile_real(f, (var[0],), precision)
    pi = approx.pi_approx(precision)
    cfg = Field(precision=precision)
    breaks = _interval_breaks(a, b, m)
    total = Fraction(0)
    for lo, hi in zip(breaks, breaks[1:]):
        r = fn(lo)
        if r < 0:
            raise NegativeRadius(f"f({lo}) = {r} < 0")
        slope = taylor_jet(f, lo, 1, cfg, var[0]).derivative(1)
        total += 2 * pi * r * approx.sqrt_approx(1 + slope * slope, precision) * (hi - lo)
    return total


class LengthResult(NamedTuple):
    polygonal: Fraction
    integral: Fraction


def measure_curve_length(
    curve: CurveDef,
    a: Fraction,
    b: Fraction,
    m: int,
    precision: int = DEFAULT_PRECISION,
) -> LengthResult:
    """Chord-sum length and speed-integral length over the same partition.

    The speed integral evaluates at cell centers, matching the chord sum's
    second-order accuracy so the two paths track each other at fine meshes.
    """
    fns = [compile_real(c, (curve.param,), precision) for c in curve.components]
    breaks = _interval_breaks(a, b, m)
    points = [tuple(fn(t) for fn in fns) for t in breaks]
    polygonal = Fraction(0)
    for p, q in zip(points, points[1:]):
        polygonal += approx.sqrt_approx(
            sum(((x - y) ** 2 for x, y in zip(p, q)), Fraction(0)), precision
        )
    cfg = Field(precision=precision)
    integral = Fraction(0)
    for lo, hi in zip(breaks, breaks[1:]):
        mid = (lo + hi) / 2
        speed_sq = Fraction(0)
        for comp in curve.components:
            d = taylor_jet(comp, mid, 1, cfg, curve.param).derivative(1)
            speed_sq += d * d
        integral += approx.sqrt_approx(speed_sq, precision) * (hi - lo)
    return LengthResult(polygonal, integral)


# -- mass, moments, centroid ------------------------------------------------------------------


@dataclass(frozen=True)
class MassProperties:
    mass: Fraction
    moments: tuple[Fraction, ...]  # first moment of each coordinate
    counts: InnerSumResult

    @property
    def centroid(self) -> tuple[Fraction, ...]:
        if self.mass == 0:
            raise ZeroMass("centroid undefined: mass sum is zero")
        return tuple(mu / self.mass for mu in self.moments)


def measure_mass_moment_com(
    rho: Expr,
    region: Region,
    spec: PartitionSpec,
    precision: int = DEFAULT_PRECISION,
) -> MassProperties:
    """Mass and first moments by inner-rectangle sums of rho and coord*rho."""
    names = axis_names(region.bounding.dimension)
    mass = inner_sum(rho, region, spec, precision)
    moments = []
    for name in names:
        integrand = Binary("*", Var(name), rho)
        moments.append(inner_sum(integrand, region, spec, precision).value)
    return MassProperties(mass.value, tuple(moments), mass)


def measure_moment(
    rho: Expr,
    integrand: Expr,
    region: Region,
    spec: PartitionSpec,
    precision: int = DEFAULT_PRECISION,
) -> Fraction:
    """Inner-rectangle sum of rho * integrand (e.g. moment of inertia)."""
    return inner_sum(Binary("*", rho, integrand), region, spec, precision).value


# -- the flywheel strips ------------------------------------------------------------------------


def morley_strip_sum(
    a: Fraction, n: int, edge: str = "outer", precision: int = DEFAULT_PRECISION
) -> Fraction:
    """Moment of inertia of a unit-density disc of radius a from n rings.

    Each ring of width a/n is flattened to a rectangle; its area uses the
    chosen edge radius and its moment arm is that same edge.  The outer rule
    sums 2 pi a^4 p^3 / n^4 over p = 1..n, the inner rule uses p-1; the two
    bracket pi a^4 / 2 and collapse to it as n grows.
    """
    if n < 1:
        raise ValueError("need at least one strip")
    a = Fraction(a)
    pi = approx.pi_approx(precision)
    if edge == "outer":
        cubes = sum(p**3 for p in range(1, n + 1))
    elif edge == "inner":
        cubes = sum(p**3 for p in range(n))
    else:
        raise ValueError("edge must be 'outer' or 'inner'")
    return 2 * pi * a**4 * Fraction(cubes, n**4)


# -- line and Stieltjes integrals ------------------------------------------------------------------


class WorkResult(NamedTuple):
    chord: Fraction
    integrand: Fraction


def line_integral_work(
    field_components: Sequence[Expr],
    curve: CurveDef,
    a: Fraction,
    b: Fraction,
    m: int,
    tag_rule: str = "center",
    precision: int = DEFAULT_PRECISION,
) -> WorkResult:
    """Work along a curve, two ways over the same partition: the chord sum
    F(c(tag_j)) . (c(t_j) - c(t_{j-1})) and the Riemann sum of the pulled-back
    integrand sum_i F_i(c(t)) c_i'(t).

    Tags are any intermediate point of each parameter cell; the default uses
    cell centers, whose second-order accuracy both paths share.
    """
    if len(field_components) != curve.dimension:
        raise ValueError("field dimension must match the curve")
    names = axis_names(curve.dimension)
    field_fns = [compile_real(comp, names, precision) for comp in field_components]
    comp_fns = [compile_real(c, (curve.param,), precision) for c in curve.components]
    breaks = _interval_breaks(a, b, m)
    points = [tuple(fn(t) for fn in comp_fns) for t in breaks]
    cfg = Field(precision=precision)
    chord = Fraction(0)
    integrand = Fraction(0)
    for j, (lo, hi) in enumerate(zip(breaks, breaks[1:])):
        (tag,) = _tag_for(((lo, hi),), tag_rule, 0, j)
        pos = tuple(fn(tag) for fn in comp_fns)
        force = [fn(*pos) for fn in field_fns]
        prev, here = points[j], points[j + 1]
        chord += sum(
            (fi * (x1 - x0) for fi, x0, x1 in zip(force, prev, here)), Fraction(0)
        )
        speed = [
            taylor_jet(c, tag, 1, cfg, curve.param).derivative(1)
            for c in curve.components
        ]
        integrand += sum(
            (fi * vi for fi, vi in zip(force, speed)), Fraction(0)
        ) * (hi - lo)
    return WorkResult(chord, integrand)


def riemann_stieltjes_sum(
    f: Expr,
    phi: Expr,
    a: Fraction,
    b: Fraction,
    spec: PartitionSpec,
    tag_rule: str = "min-vertex",
    seed: int = 0,
    precision: int = DEFAULT_PRECISION,
) -> Fraction:
    """sum f(tag_i) (phi(t_i) - phi(t_{i-1})) over a partition of [a, b]."""
    rect = Rect.interval(a, b)
    fvar = sorted(free_vars(f)) or ["x"]
    pvar = sorted(free_vars(phi)) or fvar
    fn = compile_real(f, (fvar[0],), precision)
    fphi = compile_real(phi, (pvar[0],), precision)
    breaks = spec.breakpoints(rect)[0]
    total = Fraction(0)
    for i, (lo, hi) in enumerate(zip(breaks, breaks[1:])):
        (tag,) = _tag_for(((lo, hi),), tag_rule, seed, i)
        total += fn(tag) * (fphi(hi) - fphi(lo))
    return total


def impulse(
    force: Expr, a: Fraction, b: Fraction, m: int, precision: int = DEFAULT_PRECISION
) -> Fraction:
    """Impulse of a time-dependent force: plain Riemann sum of F over [a, b]."""
    var = sorted(free_vars(force)) or ["t"]
    fn = compile_real(force, (var[0],), precision)
    breaks = _interval_breaks(a, b, m)
    return sum(
        (fn(lo) * (hi - lo) for lo, hi in zip(breaks, breaks[1:])), Fraction(0)
    )


# -- gauge partitions -----------------------------------------------------------------------------


@dataclass(frozen=True)
class Gauge:
    """Strictly positive radius function delta(x) over an interval."""

    radius: Expr

    def compiled(self, precision: int) -> Callable[[Fraction], Fraction]:
        var = sorted(free_vars(self.radius)) or ["x"]
        fn = compile_real(self.radius, (var[0],), precision)

        def delta(x: Fraction) -> Fraction:
            value = fn(x)
            if value <= 0:
                raise DomainError(f"gauge must be positive, delta({x}) = {value}")
            return value

        return delta


_BISECT_CAP = 64


def cousin_partition(
    gauge: Gauge,
    a: Fraction,
    b: Fraction,
    mode: str = "tag-in-cell",
    precision: int = DEFAULT_PRECISION,
) -> TaggedPartition:
    """A partition of [a, b] fine for the gauge: every cell fits inside the
    open ball (tag - delta(tag), tag + delta(tag)) of its tag.

    Cells are found by recursive bisection, trying the left endpoint and then
    the midpoint as in-cell tags; McShane mode first tries the nearest
    already-accepted tag, which may lie outside the cell.  Positivity of the
    gauge makes every bisection chain terminate; a depth cap of 64 guards
    against gauges that vanish at machine scale.
    """
    if mode not in ("tag-in-cell", "mcshane"):
        raise ValueError("mode must be 'tag-in-cell' or 'mcshane'")
    a, b = Fraction(a), Fraction(b)
    if a >= b:
        raise ValueError("empty interval")
    delta = gauge.compiled(precision)
    cells: list[tuple[Fraction, Fraction]] = []
    tags: list[Fraction] = []

    def fits(u: Fraction, v: Fraction, x: Fraction) -> bool:
        d = delta(x)
        return x - d <= u and v <= x + d

    def accept(u: Fraction, v: Fraction) -> bool:
        if mode == "mcshane" and tags:
            center = (u + v) / 2
            anchor = min(tags, key=lambda t: (abs(t - center), t))
            if fits(u, v, anchor):
                cells.append((u, v))
                tags.append(anchor)
                return True
        for candidate in (u, (u + v) / 2):
            if fits(u, v, candidate):
                cells.append((u, v))
                tags.append(candidate)
                return True
        return False

    stack = [(a, b, 0)]
    while stack:
        u, v, depth = stack.pop()
        if accept(u, v):
            continue
        if depth >= _BISECT_CAP:
            raise DepthExceeded(
                f"no gauge-fine cell after {_BISECT_CAP} bisections near "
                f"[{u}, {v}], delta({u}) = {delta(u)}"
            )
        mid = (u + v) / 2
        stack.append((mid, v, depth + 1))  # left half processed first
        stack.append((u, mid, depth + 1))

    # post-condition, asserted on every construction
    for (u, v), x in zip(cells, tags):
        d = delta(x)
        if not (x - d <= u and v <= x + d):
            raise AssertionError(f"cell [{u}, {v}] escapes the ball of tag {x}")
    return TaggedPartition(
        Rect.interval(a, b),
        tuple(((u, v),) for u, v in cells),
        tuple((t,) for t in tags),
        "gauge",
        tags_in_cells=(mode == "tag-in-cell"),
    )


def gauge_sum(
    f: Expr,
    a: Fraction,
    b: Fraction,
    gauge: Gauge,
    mode: str = "tag-in-cell",
    precision: int = DEFAULT_PRECISION,
) -> Fraction:
    """Tagged Riemann sum over a gauge-fine partition of [a, b]."""
    part = cousin_partition(gauge, a, b, mode, precision)
    var = sorted(free_vars(f)) or ["x"]
    fn = compile_real(f, (var[0],), precision)
    total = Fraction(0)
    for ((lo, hi),), (tag,) in zip(part.cells, part.tags):
        total += fn(tag) * (hi - lo)
    return total


# -- supernearness probes ------------------------------------------------------------------------


def polynomial_antiderivative(e: Expr, var: str) -> Expr:
    """Antiderivative of a polynomial expression; raises UnknownFunctional
    for anything whose exact cell integral is not closed-form here."""
    zero = Fraction(0)
    if isinstance(e, Const):
        return Binary("*", e, Var(var))
    if isinstance(e, Var):
        if e.name == var:
            return Binary("/", Binary("^", Var(var), Const(Fraction(2))), Const(Fraction(2)))
        return Binary("*", e, Var(var))  # a named constant
    if isinstance(e, Unary):
        return Unary("-", polynomial_antiderivative(e.operand, var))
    if isinstance(e, Binary):
        if e.op in "+-":
            return Binary(
                e.op,
                polynomial_antiderivative(e.left, var),
                polynomial_antiderivative(e.right, var),
            )
        if e.op == "*":
            if var not in free_vars(e.left):
                return Binary("*", e.left, polynomial_antiderivative(e.right, var))
            if var not in free_vars(e.right):
                return Binary("*", e.right, polynomial_antiderivative(e.left, var))
        if e.op == "/" and var not in free_vars(e.right):
            return Binary("/", polynomial_antiderivative(e.left, var), e.right)
        if (
            e.op == "^"
            and isinstance(e.left, Var)
            and e.left.name == var
            and isinstance(e.right, Const)
            and e.right.value.denominator == 1
            and e.right.value >= zero
        ):
            n = e.right.value
            return Binary(
                "/", Binary("^", Var(var), Const(n + 1)), Const(n + 1)
            )
    raise UnknownFunctional(f"no closed-form cell integral for this generator")


class SupernearReport(NamedTuple):
    rows: tuple[tuple[Fraction, Fraction], ...]  # (mesh, max deviation)

    def decreasing(self) -> bool:
        devs = [d for _, d in self.rows]
        return all(x > y for x, y in zip(devs, devs[1:]))


def supernearness_probe(
    generator: Expr,
    target: Expr,
    a: Fraction,
    b: Fraction,
    meshes: Sequence[int],
    precision: int = DEFAULT_PRECISION,
) -> SupernearReport:
    """Max over cells and probe points of |B(cell)/width - target(p)| where
    B is the exact integral of the generator over the cell and the probes
    are the cell endpoints and center.  The trend detects whether the
    generator's cell averages cling to the target at every infinitesimal
    scale, or fail to."""
    var = sorted(free_vars(generator) | free_vars(target)) or ["x"]
    anti = polynomial_antiderivative(generator, var[0])
    fn_anti = compile_real(anti, (var[0],), precision)
    fn_target = compile_real(target, (var[0],), precision)
    rows = []
    for m in meshes:
        breaks = _interval_breaks(a, b, m)
        worst = Fraction(0)
        for lo, hi in zip(breaks, breaks[1:]):
            avg = (fn_anti(hi) - fn_anti(lo)) / (hi - lo)
            for p in (lo, hi, (lo + hi) / 2):
                dev = abs(avg - fn_target(p))
                if dev > worst:
                    worst = dev
        rows.append(((Fraction(b) - Fraction(a)) / m, worst))
    return SupernearReport(tuple(rows))


# -- quadrature oracle and convergence studies -----------------------------------------------------


def adaptive_simpson(
    fn: Callable[[Fraction], Fraction],
    a: Fraction,
    b: Fraction,
    tol: Fraction = Fraction(1, 10**10),
    max_intervals: int = 10**6,
) -> Fraction:
    """Adaptive Simpson quadrature in exact rational arithmetic.

    Interval splits stop once |S(half) - S(whole)| <= 15 * local tolerance;
    exceeding the interval cap raises OracleFailure rather than returning a
    silently degraded value.
    """
    a, b = Fraction(a), Fraction(b)

    def simpson(lo: Fraction, hi: Fraction, flo, fhi, fmid) -> Fraction:
        return (hi - lo) / 6 * (flo + 4 * fmid + fhi)

    used = 0

    def recurse(lo, hi, flo, fhi, fmid, whole, budget) -> Fraction:
        nonlocal used
        used += 1
        if used > max_intervals:
            raise OracleFailure(f"quadrature exceeded {max_intervals} intervals")
        mid = (lo + hi) / 2
        lmid = (lo + mid) / 2
        rmid = (mid + hi) / 2
        flmid = fn(lmid)
        frmid = fn(rmid)
        left = simpson(lo, mid, flo, fmid, flmid)
        right = simpson(mid, hi, fmid, fhi, frmid)
        if abs(left + right - whole) <= 15 * budget:
            return left + right + (left + right - whole) / 15
        half = budget / 2
        return recurse(lo, mid, flo, fmid, flmid, left, half) + recurse(
            mid, hi, fmid, fhi, frmid, right, half
        )

    fa, fb = fn(a), fn(b)
    fm = fn((a + b) / 2)
    whole = simpson(a, b, fa, fb, fm)
    return recurse(a, b, fa, fb, fm, whole, Fraction(tol))


@dataclass(frozen=True)
class ConvergenceReport:
    """Mesh-indexed sum values against an oracle, with extrapolation."""

    operation: str
    params: dict
    rows: tuple[tuple[Fraction, Fraction], ...]  # (mesh, value)
    estimate: Fraction
    oracle: Fraction
    notes: tuple[str, ...] = ()

    @property
    def errors(self) -> tuple[Fraction, ...]:
        return tuple(abs(v - self.oracle) for _, v in self.rows)

    @property
    def final_error(self) -> Fraction:
        return self.errors[-1]

    @property
    def monotone(self) -> bool:
        errs = self.errors
        return all(x > y for x, y in zip(errs, errs[1:]))

    def to_json_dict(self) -> dict:
        return {
            "operation": self.operation,
            "params": {k: str(v) for k, v in self.params.items()},
            "rows": [
                {"mesh": format_rational(m), "value": format_rational(v)}
                for m, v in self.rows
            ],
            "estimate": format_rational(self.estimate),
            "oracle": format_rational(self.oracle),
            "error": format_rational(self.final_error),
        }

    def to_text(self) -> str:
        lines = [f"convergence study: {self.operation} (finite-scale emulation)"]
        for k, v in self.params.items():
            lines.append(f"  {k} = {v}")
        lines.append(f"  {'mesh':>12}  {'value':>22}  {'|value - oracle|':>22}")
        for (m, v), err in zip(self.rows, self.errors):
            lines.append(
                f"  {format_rational(m):>12}  {decimal_str(v):>22}  {decimal_str(err):>22}"
            )
        lines.append(f"  extrapolated: {decimal_str(self.estimate)}")
        lines.append(f"  oracle:       {decimal_str(self.oracle)}")
        lines.append(f"  final error:  {decimal_str(self.final_error)}")
        lines.append(f"  errors strictly decreasing: {self.monotone}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


def extrapolate(values: Sequence[Fraction]) -> Fraction:
    """Richardson-style estimate from the last three values (Aitken form,
    with the geometric ratio inferred from the data; exact rational)."""
    if len(values) < 3:
        return Fraction(values[-1])
    v0, v1, v2 = values[-3], values[-2], values[-1]
    denom = v2 - 2 * v1 + v0
    if denom == 0:
        return Fraction(v2)
    return v2 - (v2 - v1) ** 2 / denom


def converge_study(
    operation: str,
    target: Callable[[Fraction], Fraction],
    meshes: Sequence[Fraction],
    oracle: Fraction,
    params: dict | None = None,
    notes: Sequence[str] = (),
) -> ConvergenceReport:
    """Run a sum operation at each mesh width (strictly decreasing) and
    tabulate the values against the oracle."""
    meshes = [Fraction(m) for m in meshes]
    if any(x <= y for x, y in zip(meshes, meshes[1:])):
        raise ValueError("meshes must be strictly decreasing")
    rows = tuple((m, target(m)) for m in meshes)
    estimate = extrapolate([v for _, v in rows])
    return ConvergenceReport(
        operation, dict(params or {}), rows, estimate, Fraction(oracle), tuple(notes)
    )
