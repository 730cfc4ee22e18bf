"""Finite-scale integration lab: partition sums, measures, gauges, convergence.

Infinite-mesh statements are emulated by sequences of finite partitions with
shrinking mesh; every sum is an exact rational, so results are identical
across runs and across any evaluation order.  An adaptive-Simpson quadrature
on the gauge grid serves as the independent oracle for convergence studies.

Every box sum runs on one integer grid.  An axis (``_Axis``) is a list of
integer breakpoint numerators over one positive denominator q: m equal
widths of [A/D, B/D] put breakpoint k at (A m + k (B - A)) / (D m), and
explicit breakpoints are written over the lcm of their denominators.  Cells
run in row-major order (first axis outermost).  ``_tag_rows`` writes each
tag as integers over the axis denominator: the min-vertex lo / q, the center
(lo + hi) / 2q, the corner nearest the origin, or seeded-random
((lo << 30) + r (hi - lo)) / (q << 30), r the top 30 bits of the next
output of SplitMix64 from seed mod 2^64; a deterministic rule is applied
once per axis interval, not per cell.

Sums compile their integrands into row kernels (``compile_rows``): a row is
a line of points whose varying coordinates share one denominator, and the
kernel loops over it in generated code, returning the row's values or their
weighted sum as unreduced (numerator, denominator) pairs.  Rows are the
lines along the last axis of the tags (under seeded-random, whose tags vary
in every coordinate, all coordinates run), of Darboux's sample lattice, of
the inner cells' min-vertices and of the vertices and centers of a region's
classification (``_sweep_2d`` in the plane, ``_classify_cells`` otherwise,
reading only the sign of each membership numerator), and Stieltjes'
breakpoints and tags and the gauge tags.  ``_total`` adds the rows' pairs
per distinct denominator and reduces once; the sum is then scaled by the one
cell volume, with integer widths per cell on uneven explicit axes
(``_volumes``).  A sum raises the first MathError its own evaluation meets:
its row kernels run in the order the code calls them, each over its rows in
order, and inside a row the kernel's rule holds, the first point and at that
point the first node.  Volume of revolution, the chords of curve length and
line work, the supernearness probe, gauge partitions and the Simpson oracle
keep ``compile_real``'s point functions.  Surface of revolution, curve
length and line work read an expression at a point through ``_reader``:
value and slope from one call of its tangent code (``exprs._compile_tangent``),
or where that raises, compile_real's value and ``taylor_jet``'s slope.  A
measure reads the values, checks the radius or takes the force, then reads
the slopes (curve length only slopes), so its value or error is the jet path's.

``PartitionSpec.breakpoints`` and ``tagged_partition`` are ``Fraction``
views of the same grid.  A grid holds at most 2^20 cells; a larger one is
refused with ``DepthExceeded`` before any cell is built.

Gauge partitions and the Simpson oracle bisect on a dyadic integer grid:
with [a, b] = [A/D, B/D], a point of depth j is an integer N over D 2^j, so
cell k of depth j is [A 2^j + k (B - A), A 2^j + (k + 1)(B - A)] / (D 2^j),
where the compiled gauge or integrand is called on (N, D 2^j).  The accepted
gauge cells are one more explicit axis of the grid (``_gauge_grid``), over
Q = D 2^J with J the deepest cell or tag depth, and each tag is a pair
(x, Q); every cell [u, v] is checked to lie in the ball of radius n/d of a
fresh gauge value at its tag, (x - u) d <= n Q and (v - x) d <= n Q.
``cousin_partition`` is the ``Fraction`` view of that axis, as
``tagged_partition`` is of a box grid, and ``gauge_sum`` sums the integers
like the box sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import product, repeat, starmap
from operator import add
from typing import Callable, Iterable, NamedTuple, Sequence

from . import approx
from .calculus import CurveDef, taylor_jet
from .errors import (
    DepthExceeded,
    DomainError,
    MathError,
    NegativeRadius,
    OracleFailure,
    OrderViolation,
    UnknownFunctional,
    ZeroMass,
)
from .exprs import (
    Binary,
    Const,
    Expr,
    Unary,
    Var,
    _compile_tangent,
    compile_real,
    compile_rows,
    free_vars,
    int_exponent,
    pair_sum,
)
from .field import DEFAULT_PRECISION, Field
from .rationals import decimal_str, format_rational, show_rational

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
                raise ValueError(f"degenerate interval [{show_rational(a)}, {show_rational(b)}]")
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


class _Axis(NamedTuple):
    """Breakpoint k is nums[k] / q; q > 0, and the pairs are not reduced."""

    nums: list[int]
    q: int


# the most cells of one grid: 1024 x 1024, the finest partition the examples use
_GRID_CAP = 1 << 20


def _check_grid_cells(cells: int) -> None:
    if cells > _GRID_CAP:
        raise DepthExceeded(f"grid of {cells} cells exceeds the cap of {_GRID_CAP} cells")


def _ends(a, b) -> tuple[int, int, int]:
    """[a, b] as [A/D, B/D], D the lcm of the two denominators: (A, B, D)."""
    a, b = Fraction(a), Fraction(b)
    den = math.lcm(a.denominator, b.denominator)
    return a.numerator * (den // a.denominator), b.numerator * (den // b.denominator), den


def _axis(a, b, m: int) -> _Axis:
    """m equal-width cells of [a, b] = [A/D, B/D]: breakpoint k is
    (A m + k (B - A)) / (D m)."""
    if m < 1:
        raise ValueError("need at least one cell")
    _check_grid_cells(m)
    lo, hi, den = _ends(a, b)
    return _Axis([lo * m + k * (hi - lo) for k in range(m + 1)], den * m)


def _explicit_axis(points: Sequence[Fraction]) -> _Axis:
    den = math.lcm(*(p.denominator for p in points))
    return _Axis([p.numerator * (den // p.denominator) for p in points], den)


def _fractions(axis: _Axis) -> list[Fraction]:
    return [Fraction(n, axis.q) for n in axis.nums]


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

    def grid(self, rect: Rect) -> list[_Axis]:
        """The integer grid of this partition of the rectangle, one axis each."""
        if self.kind == "simple":
            counts = self.counts
            if len(counts) == 1 and rect.dimension > 1:
                counts = counts * rect.dimension
            if len(counts) != rect.dimension:
                raise ValueError("one count per axis required")
            _check_grid_cells(math.prod(counts))
            return [_axis(a, b, m) for (a, b), m in zip(rect.intervals, counts)]
        if len(self.points) != rect.dimension:
            raise ValueError("one breakpoint list per axis required")
        for axis, (a, b) in zip(self.points, rect.intervals):
            if axis[0] != a or axis[-1] != b:
                raise ValueError("breakpoints must include the endpoints")
        _check_grid_cells(math.prod(len(axis) - 1 for axis in self.points))
        return [_explicit_axis(axis) for axis in self.points]

    def breakpoints(self, rect: Rect) -> list[list[Fraction]]:
        return [_fractions(axis) for axis in self.grid(rect)]


Cell = tuple[tuple[Fraction, Fraction], ...]


def _cells(breaks: list[list[Fraction]]) -> Iterable[Cell]:
    """Row-major cell enumeration (first axis outermost)."""
    return product(*(list(zip(axis, axis[1:])) for axis in breaks))


def _volume(cell: Cell) -> Fraction:
    return math.prod(hi - lo for lo, hi in cell)


def first_variable(default: str, *exprs: Expr) -> str:
    """The alphabetically first free variable of the expressions, else default."""
    return min(set().union(*map(free_vars, exprs)), default=default)


# -- sums on the grid -------------------------------------------------------------------


def _row_major(axes: Sequence[Sequence[tuple]]) -> Iterable[tuple]:
    """One tuple per cell, the concatenation of its entries on each axis, in
    row-major order; an entry is (numerator, denominator), so a cell's tuple
    is the pair-convention argument list (n0, d0, n1, d1, ...); no axes give ()."""
    cells: Iterable[tuple] = [()]
    for axis in axes:
        cells = starmap(add, product(cells, axis))
    return cells


def _tag_rows(grid: list[_Axis], rule: str, seed: int) -> Iterable[tuple[tuple[int, ...], list]]:
    """The tags in row-major order, as rows for a row kernel: (args, row),
    args the pairs of the fixed variables and then the denominators of the
    row variables, row their numerators; a row is one line of cells along
    the last axis.

    A deterministic rule takes each coordinate from that axis's interval
    alone, so it is computed once per interval, and only the last coordinate
    runs over the row; seeded-random takes one SplitMix64 output per
    coordinate, from seed mod 2^64 (``_seeded_rows``), and every coordinate
    runs.
    """
    if rule == "seeded-random":
        dens = tuple(q << 30 for _, q in grid)
        return ((dens, row) for row in _seeded_rows(grid, seed))
    per_axis = []
    for nums, q in grid:
        cells = zip(nums, nums[1:])
        if rule == "min-vertex":
            per_axis.append((nums[:-1], q))
        elif rule == "center":
            per_axis.append(([lo + hi for lo, hi in cells], 2 * q))
        elif rule == "corner-nearest-origin":
            per_axis.append(([lo if abs(lo) <= abs(hi) else hi for lo, hi in cells], q))
        else:
            raise ValueError(f"unknown tag rule {rule!r}; choose from {TAG_RULES}")
    *outer, (row, den) = per_axis
    heads = _row_major([[(n, q) for n in nums] for nums, q in outer])
    return ((head + (den,), row) for head in heads)


def _seeded_rows(grid: list[_Axis], seed: int) -> Iterable[list]:
    """The seeded-random tag numerators over q << 30, one line of cells
    along the last axis at a time: an int per cell in one dimension, else a
    tuple.  Coordinate a of row-major cell i takes r from output i d + a + 1
    of SplitMix64 (``_splitmix_tops``)."""
    spans = [[(lo << 30, hi - lo) for lo, hi in zip(nums, nums[1:])] for nums, _ in grid]
    draw = _splitmix_tops(seed).__next__
    *outer, last = spans
    for head in product(*outer):
        if outer:
            yield [tuple(lo + draw() * width for lo, width in (*head, tail)) for tail in last]
        else:
            yield [lo + draw() * width for lo, width in last]


def _splitmix_tops(seed: int) -> Iterable[int]:
    """SplitMix64 from seed mod 2^64: the top 30 bits of each output, which
    the final z ^ z >> 31 leaves as they are."""
    x = seed % (1 << 64)
    while True:
        x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        z = ((x ^ x >> 30) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        z = ((z ^ z >> 27) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
        yield z >> 34


def _tag_args(grid: list[_Axis], rule: str, seed: int) -> Iterable[tuple[int, ...]]:
    """The tag of every cell as pair-convention arguments, in row-major order."""
    for args, row in _tag_rows(grid, rule, seed):
        if rule != "seeded-random":
            yield from (args[:-1] + (n, args[-1]) for n in row)
        else:
            for nums in row:
                yield tuple(v for pair in zip(nums if len(grid) > 1 else (nums,), args)
                            for v in pair)


def _volumes(grid: list[_Axis]) -> tuple[Fraction, list[int] | None]:
    """Every cell's volume as scale * weight: the integer weights in
    row-major order, or None when all cells have the one volume ``scale``."""
    num, den, widths, uneven = 1, 1, [], False
    for nums, q in grid:
        w = [hi - lo for lo, hi in zip(nums, nums[1:])]
        if w.count(w[0]) == len(w):
            num *= w[0]
            w = [1] * len(w)
        else:
            uneven = True
        den *= q
        widths.append(w)
    return Fraction(num, den), list(map(math.prod, product(*widths))) if uneven else None


def _total(values: Iterable[tuple[int, int]], weights: Iterable[int] | None = None) -> Fraction:
    """``pair_sum`` reduced once."""
    return Fraction(*pair_sum(values, weights))


def _minus(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """a - b for (numerator, positive denominator) pairs, not reduced."""
    (an, ad), (bn, bd) = a, b
    return (an - bn, ad) if ad == bd else (an * bd - bn * ad, ad * bd)


def _times(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """a * b for (numerator, positive denominator) pairs, not reduced."""
    return a[0] * b[0], a[1] * b[1]


def _row_sum(kernel, grid: list[_Axis], rule: str, seed: int) -> Fraction:
    """sum of kernel(tag) * volume(cell) over the grid, one kernel call per
    row of ``_tag_rows``."""
    scale, weights = _volumes(grid)
    m = len(grid[-1].nums) - 1
    return scale * _total(kernel.sum(*args, row, weights and weights[k * m:(k + 1) * m])
                          for k, (args, row) in enumerate(_tag_rows(grid, rule, seed)))


@dataclass(frozen=True)
class TaggedPartition:
    """Ordered cells covering a rectangle plus one evaluation point per cell.

    Tags lie inside their cells unless ``tags_in_cells`` is False (the McShane
    mode, where gauge tags may sit anywhere in the rectangle).
    """

    rect: Rect
    cells: tuple[Cell, ...]
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
        return [_volume(cell) for cell in self.cells]


def _partition(
    rect: Rect, grid: list[_Axis], tags: Iterable[tuple[int, ...]], tag_rule: str,
    tags_in_cells: bool = True,
) -> TaggedPartition:
    """The ``Fraction`` view of a grid and its pair-convention tags."""
    cells = tuple(_cells([_fractions(axis) for axis in grid]))
    points = (tuple(map(Fraction, args[::2], args[1::2])) for args in tags)
    return TaggedPartition(rect, cells, tuple(points), tag_rule, tags_in_cells)


def tagged_partition(
    rect: Rect, spec: PartitionSpec, tag_rule: str = "min-vertex", seed: int = 0
) -> TaggedPartition:
    grid = spec.grid(rect)
    return _partition(rect, grid, _tag_args(grid, tag_rule, seed), tag_rule)


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
    # seeded-random tags vary in every coordinate of a row of _tag_rows
    kernel = compile_rows(f, names, precision, len(names) if tag_rule == "seeded-random" else 1)
    return _row_sum(kernel, spec.grid(rect), tag_rule, seed)


class DarbouxBounds(NamedTuple):
    lower: Fraction
    upper: Fraction
    # cells whose samples are not monotone along some axis line; a cell whose
    # samples are monotone while f is not between them goes uncounted
    nonmonotone_cells: int


def darboux_bounds(
    f: Expr,
    rect: Rect,
    spec: PartitionSpec,
    samples_per_axis: int = 5,
    precision: int = DEFAULT_PRECISION,
) -> DarbouxBounds:
    """Per-cell inf/sup estimated on a sample grid that includes every vertex.

    Exact whenever f is monotone along each axis inside each cell (extrema at
    vertices); an inner estimate otherwise.  ``nonmonotone_cells`` counts the
    cells whose samples are not monotone along some axis line; an extremum
    that falls between two samples of a monotone-looking line is not seen,
    and its cell is not counted.

    An axis's samples are one lattice, a cell's last sample the next one's
    first; each cell of the outer axes runs one row along the last axis's
    lattice per outer sample, and each cell reads its samples from them.
    """
    if samples_per_axis < 2:
        raise ValueError("need at least the two endpoint samples per axis")
    kernel = compile_rows(f, axis_names(rect.dimension), precision)
    s = samples_per_axis
    grid = spec.grid(rect)
    *outer, (last, q) = [  # per axis, the lattice numerators over q (s - 1)
        ([lo * (s - 1) + j * (hi - lo) for lo, hi in zip(nums, nums[1:]) for j in range(s - 1)]
         + [nums[-1] * (s - 1)], q * (s - 1))
        for nums, q in grid
    ]
    heads = [[[(n, q) for n in nums[k:k + s]] for k in range(0, len(nums) - 1, s - 1)]
             for nums, q in outer]
    rows = ([kernel.values(*head, q, last) for head in _row_major(cell)] for cell in product(*heads))
    cells = ([v for row in lines for v in row[k:k + s]]
             for lines in rows for k in range(0, len(last) - 1, s - 1))
    lows: list[tuple[int, int]] = []
    highs: list[tuple[int, int]] = []
    flagged = 0
    for values in cells:
        den = values[0][1]
        if all(d == den for _, d in values):  # compare numerators
            keys = [n for n, _ in values]
            lows.append((min(keys), den))
            highs.append((max(keys), den))
        else:
            keys = list(starmap(Fraction, values))
            lows.append(min(keys).as_integer_ratio())
            highs.append(max(keys).as_integer_ratio())
        flagged += not _grid_monotone(keys, len(grid), s)
    scale, weights = _volumes(grid)
    return DarbouxBounds(scale * _total(lows, weights), scale * _total(highs, weights), flagged)


def _grid_monotone(values: list, dim: int, s: int) -> bool:
    """Is every axis-parallel line of the row-major s^dim sample grid monotone?"""
    for axis in range(dim):
        stride = s ** (dim - 1 - axis)
        for start in range(len(values)):
            if start // stride % s == 0:  # first sample of a line along this axis
                seq = values[start : start + s * stride : stride]
                up = all(a <= b for a, b in zip(seq, seq[1:]))
                if not (up or all(a >= b for a, b in zip(seq, seq[1:]))):
                    return False
    return True


# -- Jordan regions ---------------------------------------------------------------------


@dataclass(frozen=True)
class Region:
    """Bounded region: membership expression <= 0 inside a bounding rectangle."""

    bounding: Rect
    membership: Expr

    @staticmethod
    def whole(rect: Rect) -> "Region":
        return Region(rect, Const(Fraction(-1)))


class InnerSumResult(NamedTuple):
    value: Fraction
    inner: int
    boundary: int
    exterior: int
    boundary_volume: Fraction


class _InnerCells(NamedTuple):
    # the inner cells' min-vertices, as rows along the last axis: (args,
    # numerators, weights), args the pairs of the other axes and then the
    # last axis's denominator, weights the integer volume weights (see
    # ``_volumes``) or None
    rows: list[tuple[tuple[int, ...], list[int], list[int] | None]]
    inner: int
    scale: Fraction
    boundary: int
    exterior: int
    boundary_volume: Fraction


def _inner_cells(region: Region, spec: PartitionSpec, precision: int) -> _InnerCells:
    """Classify every cell of the bounding box's grid (see ``inner_sum``)."""
    rect = region.bounding
    member = compile_rows(region.membership, axis_names(rect.dimension), precision)
    grid = spec.grid(rect)
    scale, weights = _volumes(grid)
    *outer, (zs, q) = grid
    heads = _row_major([[(n, axis.q) for n in axis.nums[:-1]] for axis in outer])
    full = 2 ** len(grid) + 1  # every vertex and the center inside
    m = len(zs) - 1
    rows: list[tuple[tuple[int, ...], list[int], list[int] | None]] = []
    inner = boundary = exterior = boundary_weight = 0
    classify = _sweep_2d if rect.dimension == 2 else _classify_cells
    for k, (head, counts) in enumerate(zip(heads, classify(member, grid))):
        ws = weights[k * m:(k + 1) * m] if weights else repeat(1, m)
        row = [z for z, c in zip(zs, counts) if c == full]
        if row:
            kept = [w for w, c in zip(ws, counts) if c == full] if weights else None
            rows.append((head + (q,), row, kept))
        inner += len(row)
        exterior += counts.count(0)
        edge = [w for w, c in zip(ws, counts) if 0 < c < full]
        boundary += len(edge)
        boundary_weight += sum(edge)
    return _InnerCells(rows, inner, scale, boundary, exterior, scale * boundary_weight)


def _classify_cells(member, grid: list[_Axis]) -> Iterable[list[int]]:
    """Yields, for each line of cells along the last axis in row-major
    order, how many of each cell's vertices and center lie in the region.
    Each line of vertex or center verdicts along the last axis is one row,
    made when a line of cells first needs it: the vertex rows at the line's
    corners, in row-major order, and then its center row."""
    *outer, (zs, qz) = grid
    z_mids = [lo + hi for lo, hi in zip(zs, zs[1:])]
    lines: dict[tuple, list[bool]] = {}

    def line(head: tuple[int, ...], den: int, row: list[int]) -> list[bool]:
        if (head, den) not in lines:
            lines[head, den] = [n <= 0 for n, _ in member.values(*head, den, row)]
        return lines[head, den]

    for index in product(*(range(len(nums) - 1) for nums, _ in outer)):
        ends = [[(nums[i], q), (nums[i + 1], q)] for i, (nums, q) in zip(index, outer)]
        vertices = [line(head, qz, zs) for head in _row_major(ends)]
        center = sum(((nums[i] + nums[i + 1], 2 * q) for i, (nums, q) in zip(index, outer)), ())
        flags = [w for v in vertices for w in (v, v[1:])]  # each cell's low and high vertex
        yield list(map(sum, zip(*flags, line(center, 2 * qz, z_mids))))


def _sweep_2d(member, grid: list[_Axis]) -> Iterable[list[int]]:
    """Plane case of ``_classify_cells``, with the same rows in the same
    order: each column of vertex verdicts is made once and shared between
    the two columns of cells beside it."""
    (xs, qx), (ys, qy) = grid
    y_mids = [lo + hi for lo, hi in zip(ys, ys[1:])]
    left = [n <= 0 for n, _ in member.values(xs[0], qx, qy, ys)]
    for x_lo, x_hi in zip(xs, xs[1:]):
        right = [n <= 0 for n, _ in member.values(x_hi, qx, qy, ys)]
        centers = member.values(x_lo + x_hi, 2 * qx, 2 * qy, y_mids)
        yield [a + b + c + d + (e <= 0)
               for a, b, c, d, (e, _) in zip(left, left[1:], right, right[1:], centers)]
        left = right


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
    kernel = compile_rows(f, axis_names(region.bounding.dimension), precision)
    cells = _inner_cells(region, spec, precision)
    value = cells.scale * _total(kernel.sum(*args, row, ws) for args, row, ws in cells.rows)
    return InnerSumResult(value, cells.inner, cells.boundary, cells.exterior, cells.boundary_volume)


# -- one-dimensional measures --------------------------------------------------------------


def measure_area_between(
    f: Expr,
    g: Expr,
    a: Fraction,
    b: Fraction,
    m: int,
    tag_rule: str = "min-vertex",
    precision: int = DEFAULT_PRECISION,
    seed: int = 0,
) -> Fraction:
    """Riemann sum of (g - f) on [a, b]; f <= g checked at partition points.

    Each curve has its own row kernel, and the rows run in this order: f
    and then g over the breakpoints, the check of f <= g at each breakpoint
    from the left, and then g and f over the tags.
    """
    var = (first_variable("x", f, g),)
    fn_f = compile_rows(f, var, precision)
    fn_g = compile_rows(g, var, precision)
    axis = _axis(a, b, m)
    nums, q = axis
    for t, lower, upper in zip(nums, fn_f.values(q, nums), fn_g.values(q, nums)):
        if _minus(upper, lower)[0] < 0:
            at = show_rational(Fraction(t, q))
            raise OrderViolation(f"lower curve exceeds upper curve at {at}")
    ((den,), tags), = _tag_rows([axis], tag_rule, seed)
    upper, lower = fn_g.sum(den, tags), fn_f.sum(den, tags)
    return _volumes([axis])[0] * Fraction(*_minus(upper, lower))


def _nonnegative(lo: int, q: int, radius: tuple[int, int]) -> tuple[int, int]:
    """The radius f(lo/q), refused where negative."""
    if radius[0] < 0:
        x, r = show_rational(Fraction(lo, q)), show_rational(Fraction(*radius))
        raise NegativeRadius(f"f({x}) = {r} < 0")
    return radius


def measure_volume_revolution(
    f: Expr, a: Fraction, b: Fraction, m: int, precision: int = DEFAULT_PRECISION
) -> Fraction:
    """Solid of revolution about the axis: Riemann sum of pi * f(x)^2."""
    fn = compile_real(f, (first_variable("x", f),), precision)
    nums, q = _axis(a, b, m)
    radii = [_nonnegative(lo, q, fn(lo, q)) for lo in nums[:-1]]
    return approx.pi_approx(precision) * Fraction(nums[1] - nums[0], q) * _total(
        _times(r, r) for r in radii)


def _reader(e: Expr, var: str, precision: int, fn: Callable | None = None):
    """e's value and slope at a point as integer pairs: ``read(n, d)``
    returns two functions of no arguments, the value's and the slope's.
    Both come from one call of e's tangent code; where that raises, the
    value from compile_real's function (fn, else compiled on first use) and
    the slope from ``taylor_jet``, each computed only when the measure calls
    for it, so the measure chooses what is read and in what order."""
    tangent = _compile_tangent(e, var, precision)
    cfg = Field(precision=precision)

    def point(n: int, d: int) -> tuple[int, int]:
        nonlocal fn
        fn = fn or compile_real(e, (var,), precision)
        return fn(n, d)

    def jet(n: int, d: int) -> tuple[int, int]:
        return taylor_jet(e, Fraction(n, d), 1, cfg, var).derivative(1).as_integer_ratio()

    def read(n: int, d: int) -> tuple[Callable, Callable]:
        try:
            value, slope = tangent(n, d)
        except MathError:
            return partial(point, n, d), partial(jet, n, d)
        return (lambda: value), (lambda: slope)

    return read


def measure_surface_revolution(
    f: Expr, a: Fraction, b: Fraction, m: int, precision: int = DEFAULT_PRECISION
) -> Fraction:
    """Surface of revolution: Riemann sum of 2 pi f(x) sqrt(1 + f'(x)^2).

    Each cell reads f at its min-vertex, refuses it where negative, then
    reads f' (``_reader``).
    """
    read = _reader(f, first_variable("x", f), precision)
    nums, q = _axis(a, b, m)

    def band(lo: int) -> tuple[int, int]:
        value, slope = read(lo, q)
        radius = _nonnegative(lo, q, value())
        return _times(radius, _norm([(1, 1), slope()], precision))

    return 2 * approx.pi_approx(precision) * Fraction(nums[1] - nums[0], q) * _total(
        map(band, nums[:-1]))


class LengthResult(NamedTuple):
    polygonal: Fraction
    integral: Fraction


def _norm(v: Iterable[tuple[int, int]], precision: int) -> tuple[int, int]:
    """The Euclidean norm of a vector of pairs, as ``sqrt_pair`` gives it."""
    return approx.sqrt_pair(*pair_sum((n * n, d * d) for n, d in v), precision)


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
    It reads only c'(t) (``_reader``), so a center where a component has a
    removable singularity still has a speed.
    """
    fns = [compile_real(c, (curve.param,), precision) for c in curve.components]
    readers = [_reader(c, curve.param, precision) for c in curve.components]
    nums, q = _axis(a, b, m)
    points = [[fn(t, q) for fn in fns] for t in nums]
    polygonal = _total(_norm(map(_minus, here, prev), precision)
                       for prev, here in zip(points, points[1:]))

    def speed(lo: int, hi: int) -> tuple[int, int]:
        return _norm((read(lo + hi, 2 * q)[1]() for read in readers), precision)

    return LengthResult(polygonal, Fraction(nums[1] - nums[0], q) * _total(
        starmap(speed, zip(nums, nums[1:]))))


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
    """Mass and first moments: inner-rectangle sums of rho and coord*rho,
    accumulated in one pass over one classification of the region."""
    dim = region.bounding.dimension
    kernel = compile_rows(rho, axis_names(dim), precision)
    cells = _inner_cells(region, spec, precision)
    masses: list[tuple[int, int]] = []
    moments: list[list[tuple[int, int]]] = [[] for _ in range(dim)]
    for args, row, ws in cells.rows:
        for z, (n, d), w in zip(row, kernel.values(*args, row), ws or repeat(1)):
            corner = (*args[:-1], z, args[-1])
            masses.append((n * w, d))
            for k, terms in enumerate(moments):
                terms.append((corner[2 * k] * n * w, corner[2 * k + 1] * d))
    mass = cells.scale * _total(masses)
    counts = InnerSumResult(
        mass, cells.inner, cells.boundary, cells.exterior, cells.boundary_volume
    )
    return MassProperties(mass, tuple(cells.scale * _total(t) for t in moments), counts)


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
    bracket pi a^4 / 2 and collapse to it as n grows.  The cubes are summed
    in closed form: 1^3 + ... + k^3 = (k (k + 1) / 2)^2.
    """
    if n < 1:
        raise ValueError("need at least one strip")
    a = Fraction(a)
    pi = approx.pi_approx(precision)
    if edge == "outer":
        cubes = (n * (n + 1) // 2) ** 2
    elif edge == "inner":
        cubes = ((n - 1) * n // 2) ** 2
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
    precision: int = DEFAULT_PRECISION,
) -> WorkResult:
    """Work along a curve, two ways over the same partition: the chord sum
    F(c(tag_j)) . (c(t_j) - c(t_{j-1})) and the Riemann sum of the pulled-back
    integrand sum_i F_i(c(t)) c_i'(t).

    The tags are the cell centers, whose second-order accuracy both paths
    share.  A center reads every component's c(t), then the force there,
    then every c'(t) (``_reader``).
    """
    if len(field_components) != curve.dimension:
        raise ValueError("field dimension must match the curve")
    names = axis_names(curve.dimension)
    field_fns = [compile_real(comp, names, precision) for comp in field_components]
    comp_fns = [compile_real(c, (curve.param,), precision) for c in curve.components]
    readers = [_reader(c, curve.param, precision, fn)
               for c, fn in zip(curve.components, comp_fns)]
    nums, q = _axis(a, b, m)
    points = [[fn(t, q) for fn in comp_fns] for t in nums]
    chord, integrand = [], []
    for lo, hi, prev, here in zip(nums, nums[1:], points, points[1:]):
        center = [read(lo + hi, 2 * q) for read in readers]
        pos = [v for value, _ in center for v in value()]
        force = [fn(*pos) for fn in field_fns]
        chord += map(_times, force, map(_minus, here, prev))
        integrand += (_times(f, slope()) for f, (_, slope) in zip(force, center))
    return WorkResult(_total(chord), _total(integrand) * Fraction(nums[1] - nums[0], q))


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
    """sum f(tag_i) (phi(t_i) - phi(t_{i-1})) over a partition of [a, b].

    phi is taken once per breakpoint and f once per tag, by row kernels,
    in this order: phi over the breakpoints, and then f over the tags.
    """
    rect = Rect.interval(a, b)
    fvar = first_variable("x", f)
    fn = compile_rows(f, (fvar,), precision)
    fphi = compile_rows(phi, (first_variable(fvar, phi),), precision)
    axis = spec.grid(rect)[0]
    nums, q = axis
    ((den,), tags), = _tag_rows([axis], tag_rule, seed)
    phis = fphi.values(q, nums)
    steps = map(_minus, phis[1:], phis)
    return _total((n * dn, d * dd) for (n, d), (dn, dd) in zip(fn.values(den, tags), steps))


def impulse(
    force: Expr, a: Fraction, b: Fraction, m: int, precision: int = DEFAULT_PRECISION
) -> Fraction:
    """Impulse of a time-dependent force: plain Riemann sum of F over [a, b]."""
    kernel = compile_rows(force, (first_variable("t", force),), precision)
    return _row_sum(kernel, [_axis(a, b, m)], "min-vertex", 0)


# -- gauge partitions -----------------------------------------------------------------------------


@dataclass(frozen=True)
class Gauge:
    """Strictly positive radius function delta(x) over an interval."""

    radius: Expr


_BISECT_CAP = 64
# bounds the work, not the depth: a gauge that vanishes to second order at a
# point bisection never samples (1/3, -pi/2) needs about 2^k cells in the
# k-th dyadic shell around it
_CELL_CAP = 2048


def _gauge_grid(
    gauge: Gauge, a: Fraction, b: Fraction, mode: str, precision: int
) -> tuple[_Axis, list[tuple[int, int]]]:
    """The gauge-fine cells of [a, b] (see ``cousin_partition``) as one axis
    over Q = D 2^J, J the deepest cell or tag depth, and each cell's tag as
    a pair (x, Q)."""
    if mode not in ("tag-in-cell", "mcshane"):
        raise ValueError("mode must be 'tag-in-cell' or 'mcshane'")
    base, end, den = _ends(a, b)
    if base >= end:
        raise ValueError("empty interval")
    fn = compile_real(gauge.radius, (first_variable("x", gauge.radius),), precision)
    width = end - base

    def radius(x: int, j: int) -> tuple[int, int]:
        """delta at x / (D 2^j) as an unreduced pair, refused unless positive."""
        n, d = fn(x, den << j)
        if n <= 0:
            at, value = show_rational(Fraction(x, den << j)), show_rational(Fraction(n, d))
            raise DomainError(f"gauge must be positive, delta({at}) = {value}")
        return n, d

    def fits(u: int, j: int, tag: tuple[int, int, int, int]) -> bool:
        """Cell [u, u + W] of depth j lies in the ball of radius n/d about
        the tag x of depth jx, (x, jx, n, d), compared at the finer depth."""
        x, jx, n, d = tag
        if jx > j:
            u, w, r = u << (jx - j), width << (jx - j), n * (den << jx)
        else:
            x, w, r = x << (j - jx), width, n * (den << j)
        return (x - u) * d <= r and (u + w - x) * d <= r

    def shown(u: int, j: int) -> tuple[str, str]:
        """[u, v] and delta(u) of a cell, for a cap's error text."""
        lo, hi = show_rational(Fraction(u, den << j)), show_rational(Fraction(u + width, den << j))
        return f"[{lo}, {hi}]", f"delta({lo}) = {show_rational(Fraction(*radius(u, j)))}"

    mcshane = mode == "mcshane"
    cells: list[tuple[int, int]] = []  # (u, j): each accepted cell's left end, left to right
    tags: list[tuple[int, int, int, int]] = []  # (x, jx, n, d): tag x / (D 2^jx), radius n/d
    stack = [(0, 0)]  # (k, j): cell k of depth j
    while stack:
        k, j = stack.pop()
        u = (base << j) + k * width
        # cells are accepted left to right and every tag is at most its
        # cell's right end, so tags never decrease and the last one is the
        # accepted tag nearest to this cell; its radius is kept with it
        if mcshane and tags and fits(u, j, tags[-1]):
            tags.append(tags[-1])
        else:
            # the left end u and the midpoint 2u + W of depth j + 1 are both
            # W from the far side of the cell at their own depth
            for x, jx in ((u, j), (2 * u + width, j + 1)):
                n, d = radius(x, jx)
                if width * d <= n * (den << jx):
                    tags.append((x, jx, n, d))
                    break
            else:
                if j >= _BISECT_CAP:
                    near, delta = shown(u, j)
                    raise DepthExceeded(
                        f"no gauge-fine cell after {_BISECT_CAP} bisections near {near}, {delta}"
                    )
                stack.append((2 * k + 1, j + 1))  # left half processed first
                stack.append((2 * k, j + 1))
                continue
        cells.append((u, j))
        if len(cells) > _CELL_CAP:
            last, delta = shown(u, j)
            raise DepthExceeded(
                f"more than {_CELL_CAP} gauge-fine cells, the last {last} at depth {j}, {delta}"
            )

    deepest = max(max(j for _, j in cells), max(jx for _, jx, _, _ in tags))
    q = den << deepest
    nums = [u << (deepest - j) for u, j in cells] + [end << deepest]
    points = [(x << (deepest - jx), q) for x, jx, _, _ in tags]
    # post-condition, asserted on every construction: each cell [u, v] lies
    # in the ball of a fresh gauge value n/d at its tag x, all over Q
    for u, v, (x, _) in zip(nums, nums[1:], points):
        n, d = fn(x, q)
        if (x - u) * d > n * q or (v - x) * d > n * q:
            u, v, x = (show_rational(Fraction(p, q)) for p in (u, v, x))
            raise AssertionError(f"cell [{u}, {v}] escapes the ball of tag {x}")
    return _Axis(nums, q), points


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
    gauge makes every bisection chain terminate, but not the partition: a
    gauge that tends to 0 at a point needs ever more cells near it.  So a
    depth cap of 64 guards against gauges that vanish at machine scale, and a
    cap of 2048 accepted cells (a constant gauge of 1/2500 on a unit interval
    still fits) against gauges that vanish at a point; passing either raises
    DepthExceeded naming the cell reached.  The bisection runs on the dyadic
    integer grid of the module docstring; this is its ``Fraction`` view.
    """
    axis, tags = _gauge_grid(gauge, a, b, mode, precision)
    return _partition(Rect.interval(a, b), [axis], tags, "gauge", mode == "tag-in-cell")


def gauge_sum(
    f: Expr,
    a: Fraction,
    b: Fraction,
    gauge: Gauge,
    mode: str = "tag-in-cell",
    precision: int = DEFAULT_PRECISION,
) -> Fraction:
    """Tagged Riemann sum over a gauge-fine partition of [a, b]."""
    axis, tags = _gauge_grid(gauge, a, b, mode, precision)
    kernel = compile_rows(f, (first_variable("x", f),), precision)
    scale, weights = _volumes([axis])
    return scale * Fraction(*kernel.sum(axis.q, [x for x, _ in tags], weights))


# -- supernearness probes ------------------------------------------------------------------------


def polynomial_antiderivative(e: Expr, var: str) -> Expr:
    """Antiderivative of a polynomial expression; raises UnknownFunctional
    for anything whose exact cell integral is not closed-form here."""
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
        n = int_exponent(e) if e.op == "^" else None
        if n is not None and n >= 0 and isinstance(e.left, Var) and e.left.name == var:
            n1 = Const(Fraction(n + 1))
            return Binary("/", Binary("^", Var(var), n1), n1)
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
    var = first_variable("x", generator, target)
    anti = polynomial_antiderivative(generator, var)
    fn_anti = compile_real(anti, (var,), precision)
    fn_target = compile_real(target, (var,), precision)
    rows = []
    for m in meshes:
        nums, q = _axis(a, b, m)
        worst = Fraction(0)
        for lo, hi in zip(nums, nums[1:]):
            avg = (Fraction(*fn_anti(hi, q)) - Fraction(*fn_anti(lo, q))) / Fraction(hi - lo, q)
            for p in ((lo, q), (hi, q), (lo + hi, 2 * q)):
                dev = abs(avg - Fraction(*fn_target(*p)))
                if dev > worst:
                    worst = dev
        rows.append(((Fraction(b) - Fraction(a)) / m, worst))
    return SupernearReport(tuple(rows))


# -- quadrature oracle and convergence studies -----------------------------------------------------


SIMPSON_DIGITS = 10  # adaptive_simpson's tolerance is 10^-SIMPSON_DIGITS
_SIMPSON_CAP = 10**6  # intervals
_SIMPSON_DEPTH = 1000  # halvings of [a, b]


def adaptive_simpson(
    integrand: Callable[[int, int], tuple[int, int]], a: Fraction, b: Fraction
) -> Fraction:
    """Adaptive Simpson quadrature in exact rational arithmetic.

    The integrand maps a point's (numerator, positive denominator) to its
    value as such a pair, as compiled code does; neither pair need be reduced.
    With [a, b] = [A/D, B/D] (``_ends``) and W = B - A, the intervals are the
    cells [u, u + W] / (D 2^j) of the gauge grid, sampled (f0 ... f4) at the
    points (4u + kW) / (D 2^(j+2)), passed unreduced: for [1/2, 1/3], D = 6
    and a arrives as (3, 6); compiled code returns eval_real's value at n/d.

    A cell is halved while |S(half) - S(whole)| > 15 * 10^-SIMPSON_DIGITS *
    2^-j, the tolerance halved with each split.  S(half) - S(whole) is
    W E / (12 D 2^j), E = -f0 + 4 f1 - 6 f2 + 4 f3 - f4 the fourth difference
    of the samples, so the test |E| |W| 10^SIMPSON_DIGITS <= 180 D is free of
    the depth.  An accepted cell adds S(half) + (S(half) - S(whole)) / 15,
    which is Boole's rule W / (90 D 2^j) (7 f0 + 32 f1 + 12 f2 + 32 f3 + 7 f4);
    these are added per denominator and reduced once (``pair_sum``).

    A cell that would need more than 1000 halvings of [a, b] (a jump no dyadic
    point hits, a root steeper than x^(1/40) at 0), or more than 10^6 cells in
    all, raises OracleFailure rather than returning a silently degraded value.
    Cells are visited depth first, left before right, from an explicit stack,
    so no caller's stack limits the depth.
    """
    base, end, den = _ends(a, b)
    width = end - base
    limit = abs(width) * 10**SIMPSON_DIGITS
    fa, fb = integrand(base, den), integrand(end, den)
    stack = [(base, 0, fa, integrand(base + end, 2 * den), fb)]  # (u, j, f0, f2, f4)
    parts: list[tuple[int, int]] = []  # each accepted cell's Boole sum, over d 2^j
    used = 0
    while stack:
        used += 1
        if used > _SIMPSON_CAP:
            raise OracleFailure(f"quadrature exceeded {_SIMPSON_CAP} intervals")
        u, j, f0, f2, f4 = stack.pop()
        q = den << (j + 2)
        f1, f3 = integrand(4 * u + width, q), integrand(4 * u + 3 * width, q)
        samples = (f0, f1, f2, f3, f4)
        n, d = pair_sum(samples, (-1, 4, -6, 4, -1))
        if abs(n) * limit <= 180 * den * d:
            n, d = pair_sum(samples, (7, 32, 12, 32, 7))
            parts.append((n, d << j))
        elif j == _SIMPSON_DEPTH:
            near = decimal_str(Fraction(u, den << j))
            raise OracleFailure(f"quadrature exceeded {_SIMPSON_DEPTH} halvings near {near}")
        else:
            stack.append((2 * u + width, j + 1, f2, f3, f4))
            stack.append((2 * u, j + 1, f0, f1, f2))
    return Fraction(width, 90 * den) * _total(parts)


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
