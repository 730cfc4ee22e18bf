"""Partition sums, measures, gauges, supernearness, convergence."""

import itertools
import json
import random
import time
from decimal import Decimal, localcontext
from fractions import Fraction as F

import pytest

from conftest import decimal_pi
from hrw import approx, calculus, integration
from hrw.approx import pi_approx, sqrt_approx
from hrw.calculus import CurveDef, taylor_jet
from hrw.cli import run
from hrw.errors import (
    ApproxOverflow,
    DepthExceeded,
    DivisionByZero,
    DomainError,
    NegativeRadius,
    NonSmoothAtPoint,
    OracleFailure,
    OrderViolation,
    UnknownFunctional,
)
from hrw.exprs import compile_real, compile_rows, eval_real, parse
from hrw.field import Field
from hrw.integration import (
    ConvergenceReport,
    DarbouxBounds,
    Gauge,
    PartitionSpec,
    Rect,
    Region,
    TAG_RULES,
    adaptive_simpson,
    converge_study,
    cousin_partition,
    darboux_bounds,
    gauge_sum,
    impulse,
    inner_sum,
    line_integral_work,
    measure_area_between,
    measure_curve_length,
    measure_mass_moment_com,
    measure_moment,
    measure_surface_revolution,
    measure_volume_revolution,
    morley_strip_sum,
    riemann_stieltjes_sum,
    riemann_sum,
    supernearness_probe,
    tagged_partition,
)

PI = pi_approx(40)

DARBOUX_CORPUS = [
    ("x", Rect.interval(0, 1)),
    ("x^2", Rect.interval(-1, 1)),
    ("x^3 - x", Rect.interval(0, 2)),
    ("sin(x)", Rect.interval(0, 3)),
    ("x*y", Rect.box((0, 1), (0, 1))),
    ("x^2 - y", Rect.box((-1, 1), (0, 2))),
]


class TestPartitions:
    def test_simple_breakpoints(self):
        spec = PartitionSpec.simple(4)
        assert spec.breakpoints(Rect.interval(0, 1))[0] == [F(k, 4) for k in range(5)]

    def test_explicit_requires_endpoints(self):
        spec = PartitionSpec.explicit([F(0), F(1, 3), F(1)])
        assert spec.breakpoints(Rect.interval(0, 1))[0] == [F(0), F(1, 3), F(1)]
        with pytest.raises(ValueError):
            PartitionSpec.explicit([F(0), F(1, 3)]).breakpoints(Rect.interval(0, 1))

    def test_cells_reconstruct_rectangle(self):
        part = tagged_partition(Rect.box((0, 1), (0, 2)), PartitionSpec.simple(2, 3))
        assert sum(part.volumes()) == 2
        assert len(part.cells) == 6

    def test_tags_inside_cells_for_every_rule(self):
        rect = Rect.box((-1, 1), (0, 3))
        for rule in TAG_RULES:
            part = tagged_partition(rect, PartitionSpec.simple(3, 3), rule, seed=7)
            for cell, tag in zip(part.cells, part.tags):
                for (lo, hi), coord in zip(cell, tag):
                    assert lo <= coord <= hi

    @pytest.mark.parametrize("m", [0, -1])
    def test_no_cells_refused(self, m):
        # a count below one cell: a ZeroDivisionError at 0 and an empty sum
        # of 0 below it before every 1-D grid refused it
        one = parse("1")
        calls = [
            lambda: impulse(one, F(0), F(1), m),
            lambda: measure_area_between(one, one, F(0), F(1), m),
            lambda: measure_volume_revolution(one, F(0), F(1), m),
            lambda: measure_curve_length(CurveDef.from_exprs([parse("t"), one]), F(0), F(1), m),
            lambda: supernearness_probe(one, one, F(0), F(1), [m]),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="need at least one cell"):
                call()

    @pytest.mark.parametrize("make", [
        lambda: impulse(parse("t"), F(0), F(1), 2**20 + 1),
        lambda: riemann_sum(parse("x"), Rect.interval(0, 1), PartitionSpec.simple(2**20 + 1)),
        lambda: riemann_sum(parse("x*y*z"), Rect.box((0, 1), (0, 1), (0, 1)),
                            PartitionSpec.simple(128)),
        lambda: darboux_bounds(parse("x*y"), Rect.box((0, 1), (0, 1)),
                               PartitionSpec.simple(1025, 1024)),
        lambda: tagged_partition(Rect.box((0, 1), (0, 1)), PartitionSpec.explicit(
            [F(k, 1100) for k in range(1101)], [F(k, 1000) for k in range(1001)])),
    ], ids=["1-d", "1-d spec", "3-d", "2-d", "explicit"])
    def test_grid_cell_cap(self, make):
        # one grid holds at most 2^20 cells, a 1024 x 1024 square; larger
        # ones are refused before any cell is built
        t0 = time.time()
        with pytest.raises(DepthExceeded, match=r"grid of (\d+) cells exceeds the cap of "
                                                r"1048576 cells") as err:
            make()
        assert int(err.value.args[0].split()[2]) > 2**20
        assert time.time() - t0 < 1

    def test_seeded_tags_reproducible(self):
        rect = Rect.interval(0, 1)
        a = tagged_partition(rect, PartitionSpec.simple(8), "seeded-random", seed=3)
        b = tagged_partition(rect, PartitionSpec.simple(8), "seeded-random", seed=3)
        c = tagged_partition(rect, PartitionSpec.simple(8), "seeded-random", seed=4)
        assert a.tags == b.tags
        assert a.tags != c.tags

    def test_seeded_tags_pinned(self):
        # SplitMix64 from seed 7: the tag of coordinate a of cell i reads
        # output i*2 + a + 1
        rect = Rect.box((0, 1), (F(-1, 2), F(1, 3)))
        part = tagged_partition(rect, PartitionSpec.simple(2, 2), "seeded-random", seed=7)
        assert part.tags == (
            (F(418576505, 2147483648), F(-6352319479, 12884901888)),
            (F(30224513, 67108864), F(171320113, 1073741824)),
            (F(1559547609, 2147483648), F(-1701108553, 4294967296)),
            (F(197025317, 268435456), F(57300563, 1073741824)),
        )

    def test_seed_is_taken_mod_2_64(self, capsys):
        values = []
        for seed in ("-1", str(2**64 - 1)):
            assert run(["--format=json", "integrate", "x^2", "--on=0,1", "--mesh=1/8",
                        "--tags=seeded-random", f"--seed={seed}"]) == 0
            values.append(json.loads(capsys.readouterr().out)["result"])
        assert values[0] == values[1]

    def test_seeded_draws_are_not_reused(self):
        # no two axes of a cell and no two adjacent seeds share an output:
        # neither the same one nor one shifted by a draw
        rect = Rect.box((0, 1), (0, 1))
        r = {}
        for s in (5, 6):
            tags = tagged_partition(rect, PartitionSpec.simple(64, 64), "seeded-random", s).tags
            # a tag on a 1/64 grid is its cell's corner plus r / 2^30 / 64
            r[s] = [[t[a] * 64 % 1 for t in tags] for a in (0, 1)]
        assert len(r[5][0]) == 4096
        assert all(x != y for x, y in zip(r[5][0], r[5][1]))
        assert sum(x != y for x, y in zip(r[5][0], r[6][0])) >= 0.99 * 4096
        assert sum(x != y for x, y in zip(r[5][1], r[6][0])) >= 0.99 * 4096

    def test_seeded_tags_lie_in_their_cells(self):
        rect = Rect.box((F(-3, 2), F(5, 7)), (0, F(1, 3)))
        for seed in (0, 1, 2**64 - 1, -12345):
            part = tagged_partition(rect, PartitionSpec.simple(40, 30), "seeded-random", seed)
            for cell, tag in zip(part.cells, part.tags):
                assert all(lo <= t < hi for (lo, hi), t in zip(cell, tag))


class TestRiemann:
    def test_linear_hand_enumeration(self):
        assert riemann_sum(parse("x"), Rect.interval(0, 1), PartitionSpec.simple(4)) == F(3, 8)

    def test_constant_gives_volume(self):
        rect = Rect.box((0, 2), (1, 3), (0, 1))
        for rule in TAG_RULES:
            assert riemann_sum(parse("1"), rect, PartitionSpec.simple(2, 2, 2), rule) == 4

    def test_product_center_tags(self):
        value = riemann_sum(
            parse("x*y"), Rect.box((0, 1), (0, 1)), PartitionSpec.simple(2, 2), "center"
        )
        assert value == F(1, 4)

    def test_tag_rule_gap_shrinks(self):
        rect = Rect.interval(0, 1)
        expr = parse("x^2")
        gaps = []
        for m in (4, 16, 64):
            values = [
                riemann_sum(expr, rect, PartitionSpec.simple(m), rule, seed=11)
                for rule in TAG_RULES
            ]
            gaps.append(max(values) - min(values))
        assert gaps[0] > gaps[1] > gaps[2]


class TestDarboux:
    def test_linear_bounds(self):
        db = darboux_bounds(parse("x"), Rect.interval(0, 1), PartitionSpec.simple(4))
        assert (db.lower, db.upper) == (F(3, 8), F(5, 8))

    def test_constant_collapses(self):
        db = darboux_bounds(parse("7"), Rect.interval(0, 1), PartitionSpec.simple(3))
        assert db.lower == db.upper == 7

    def test_parabola_coarse(self):
        db = darboux_bounds(
            parse("x^2"), Rect.interval(-1, 1), PartitionSpec.simple(2), samples_per_axis=3
        )
        assert (db.lower, db.upper) == (F(0), F(2))

    def test_nonmonotone_cells_flagged(self):
        db = darboux_bounds(parse("x^2"), Rect.interval(-1, 1), PartitionSpec.simple(1))
        assert db.nonmonotone_cells == 1

    @pytest.mark.xfail(strict=True, reason="cells are counted by their samples: the peak of "
                       "sin at pi/2 lies between the first two samples of [3/2, 9/4], which "
                       "decrease, so the cell reads monotone and its U = 2.59103 < 2.59291")
    def test_extremum_between_samples_is_counted(self):
        db = darboux_bounds(parse("sin(x)"), Rect.interval(0, 3), PartitionSpec.simple(4))
        assert db.nonmonotone_cells >= 1

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("s", [2, 3, 5])
    def test_one_kernel_row_per_outer_sample(self, monkeypatch, dim, s):
        # an axis of m cells is one lattice of m (s - 1) + 1 samples, and the
        # kernel runs one row along the last axis's lattice for each sample
        # of each cell of the outer axes
        rows = []

        class Counted:
            def __init__(self, kernel):
                self.kernel = kernel

            def values(self, *args):
                rows.append(len(args[-1]))
                return self.kernel.values(*args)

        monkeypatch.setattr(integration, "compile_rows",
                            lambda *args: Counted(compile_rows(*args)))
        m, names = 3, ("x", "y", "z")[:dim]
        rect = Rect.box(*[(0, 1)] * dim)
        darboux_bounds(parse(" + ".join(names)), rect, PartitionSpec.simple(m), s)
        assert rows == [m * (s - 1) + 1] * (m * s) ** (dim - 1)

    @pytest.mark.parametrize("source,rect", DARBOUX_CORPUS)
    def test_sandwich(self, source, rect):
        expr = parse(source)
        counts = (3,) * rect.dimension
        spec = PartitionSpec.simple(*counts)
        db = darboux_bounds(expr, rect, spec)
        for rule in TAG_RULES:
            s = riemann_sum(expr, rect, spec, rule, seed=5)
            assert db.lower <= s <= db.upper, (source, rule)

    @pytest.mark.parametrize("source,rect", DARBOUX_CORPUS)
    def test_refinement_monotonicity(self, source, rect):
        expr = parse(source)
        coarse = darboux_bounds(expr, rect, PartitionSpec.simple(*(2,) * rect.dimension))
        fine = darboux_bounds(expr, rect, PartitionSpec.simple(*(4,) * rect.dimension))
        assert fine.lower >= coarse.lower
        assert fine.upper <= coarse.upper


class TestCompiledKernels:
    """Compiled sums call approx's integer kernels directly: no cached
    Fraction function sees their points, and their values are eval_real's."""

    CASES = [
        ("sin(3*x) + cos(x/2) - tan(x/3) + exp(-x)*ln(1 + x) + sqrt(x + 1/3)",
         Rect.interval(0, 1), [[0, F(1, 7), F(1, 3), F(2, 5), F(3, 4), 1]]),
        ("sin(x*y) + cos(x - y) + tan(y/3) + exp(x - y) - ln(1 + x*y) + sqrt(x + y)",
         Rect.box((0, 1), (0, 2)), [[0, F(1, 3), F(5, 6), 1], [0, F(1, 4), F(3, 5), 2]]),
        ("sin(x)*cos(x) + cos(x)", Rect.interval(0, 1), [[0, F(1, 8), F(1, 2), F(5, 7), 1]]),
    ]

    @staticmethod
    def caches():
        return {name: fn.cache_info() for name, fn in vars(approx).items()
                if hasattr(fn, "cache_info")}

    @pytest.mark.parametrize("source,rect,axes", CASES)
    def test_compiled_sums_keep_no_cache(self, source, rect, axes):
        expr, spec = parse(source), PartitionSpec.explicit(*axes)
        names = integration.axis_names(rect.dimension)
        before = self.caches()
        total = riemann_sum(expr, rect, spec, "seeded-random", seed=29)
        bounds = darboux_bounds(expr, rect, spec)
        assert self.caches() == before
        # the same sums as Fraction loops over eval_real
        part = tagged_partition(rect, spec, "seeded-random", seed=29)
        assert total == sum(eval_real(expr, dict(zip(names, tag))) * v
                            for tag, v in zip(part.tags, part.volumes()))
        lower = upper = F(0)
        for cell in tagged_partition(rect, spec).cells:
            axes_samples = [[lo + j * (hi - lo) / 4 for j in range(5)] for lo, hi in cell]
            values = [eval_real(expr, dict(zip(names, point)))
                      for point in itertools.product(*axes_samples)]
            volume = integration._volume(cell)
            lower += min(values) * volume
            upper += max(values) * volume
        assert (bounds.lower, bounds.upper) == (lower, upper)


class TestInnerSum:
    DISC = Region(Rect.box((-1, 1), (-1, 1)), parse("x^2+y^2-1"))

    def test_disc_m4(self):
        res = inner_sum(parse("1"), self.DISC, PartitionSpec.simple(4, 4))
        assert res.inner == 4
        assert res.value == 1
        assert res.inner + res.boundary + res.exterior == 16

    def test_whole_rect_matches_riemann(self):
        region = Region.whole(Rect.box((0, 1), (0, 1)))
        res = inner_sum(parse("x*y"), region, PartitionSpec.simple(2, 2))
        assert res.value == riemann_sum(
            parse("x*y"), region.bounding, PartitionSpec.simple(2, 2)
        )
        assert res.exterior == 0 and res.boundary == 0

    def test_empty_region(self):
        region = Region(Rect.box((0, 1), (0, 1)), parse("1"))
        res = inner_sum(parse("1"), region, PartitionSpec.simple(2, 2))
        assert res.value == 0 and res.exterior == 4

    def test_boundary_volume_shrinks(self):
        volumes = []
        for m in (8, 16, 32, 64):
            res = inner_sum(parse("1"), self.DISC, PartitionSpec.simple(m, m))
            volumes.append(res.boundary_volume)
        assert volumes[0] > volumes[1] > volumes[2] > volumes[3]

    @pytest.mark.parametrize("membership", ["x^2+y^2-1", "(x^2+y^2-1)*(16*x^2+16*y^2-1)"])
    def test_general_classifier_matches_2d_sweep(self, membership):
        # a unit-height cylinder cut into one z cell is the plane region,
        # classified by the general (any-dimension) path instead of the sweep;
        # at m = 3 the annulus's centre cell has every vertex inside, its
        # centre in the hole
        plane = Region(Rect.box((-1, 1), (-1, 1)), parse(membership))
        cylinder = Region(Rect.box((-1, 1), (-1, 1), (0, 1)), parse(membership))
        f = parse("1 + x - x*y^2")
        for m in (3, 4, 7, 16):
            flat = inner_sum(f, plane, PartitionSpec.simple(m, m))
            solid = inner_sum(f, cylinder, PartitionSpec.simple(m, m, 1))
            assert solid == flat
        assert flat.inner > 0 and flat.boundary > 0 and flat.exterior > 0

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="a cell counts inner when its vertices and its centre are "
                       "inside: the excluded disc misses all five points of its one cell, "
                       "and the strip runs between the points of four cells")
    @pytest.mark.parametrize("membership, rect, m, inner, boundary", [
        ("1/1024 - ((x-1/16)^2 + (y-1/16)^2)", Rect.box((0, F(1, 4)), (0, F(1, 4))), 1, 0, 1),
        ("(y-1/10)^2 - 1/1000000", Rect.box((0, 1), (0, 1)), 4, 0, 4),
    ])
    def test_cells_meeting_the_outside_are_not_inner(self, membership, rect, m, inner, boundary):
        res = inner_sum(parse("1"), Region(rect, parse(membership)), PartitionSpec.simple(m, m))
        assert (res.inner, res.boundary) == (inner, boundary)

    def test_ball_inner_cells(self):
        ball = Region(
            Rect.box((-1, 1), (-1, 1), (-1, 1)), parse("x^2+y^2+z^2-1")
        )
        res = inner_sum(parse("1"), ball, PartitionSpec.simple(4, 4, 4))
        assert res.inner + res.boundary + res.exterior == 64
        assert res.value == 8 * F(1, 8)  # the eight cells around the origin


class TestMeasures:
    def test_area_between(self):
        area = measure_area_between(parse("0"), parse("x^2"), F(0), F(1), 512)
        assert abs(area - F(1, 3)) < F(1, 100)
        assert measure_area_between(parse("x"), parse("x"), F(0), F(1), 16) == 0

    def test_area_seeded_tags_follow_the_seed(self):
        # the seeded-random tags of the area sum are riemann_sum's for the same seed
        f, g, on = parse("0"), parse("x"), Rect.interval(0, 1)
        for seed in (0, 3, 4):
            want = riemann_sum(g, on, PartitionSpec.simple(4), "seeded-random", seed)
            assert measure_area_between(f, g, F(0), F(1), 4, "seeded-random", seed=seed) == want
        assert measure_area_between(f, g, F(0), F(1), 4, "seeded-random", 40, 4) == want

    def test_area_order_violation(self):
        with pytest.raises(OrderViolation):
            measure_area_between(parse("x"), parse("0"), F(0), F(1), 4)

    def test_cylinder(self):
        assert measure_volume_revolution(parse("3"), F(0), F(2), 7) == PI * 9 * 2
        assert measure_surface_revolution(parse("3"), F(0), F(2), 7) == 2 * PI * 3 * 2

    def test_cone(self):
        vol = measure_volume_revolution(parse("x"), F(0), F(1), 2048)
        assert abs(vol - PI / 3) < F(1, 100)
        surf = measure_surface_revolution(parse("x"), F(0), F(1), 2048)
        assert abs(surf - sqrt_approx(F(2), 40) * PI) < F(1, 100)

    def test_straight_segment_exact_all_meshes(self):
        seg = CurveDef.from_exprs([parse("t"), parse("2*t")])
        root5 = sqrt_approx(F(5), 40)
        for m in (3, 7, 64):
            res = measure_curve_length(seg, F(0), F(1), m)
            assert res.polygonal == root5
            assert res.integral == root5

    def test_parabola_length_against_oracle(self):
        par = CurveDef.from_exprs([parse("t"), parse("t^2")])
        oracle = adaptive_simpson(compile_real(parse("sqrt(1+4*t^2)"), ("t",)), F(0), F(1))
        res = measure_curve_length(par, F(0), F(1), 2048)
        assert abs(res.integral - oracle) < F(1, 1000)
        assert abs(res.polygonal - oracle) < F(1, 1000)

    def test_smooth_corpus_paths_agree_finely(self):
        # at 4096 cells the chord sum and the speed integral coincide to 1e-6
        par = CurveDef.from_exprs([parse("t"), parse("t^2")])
        res = measure_curve_length(par, F(0), F(1), 4096)
        assert abs(res.polygonal - res.integral) < F(1, 10**6)

    def test_curve_length_integral_honours_precision(self):
        # the same midpoint sum of sqrt(1 + cos(t)^2) / 8, recomputed in 100-digit decimal
        curve = CurveDef.from_exprs([parse("t"), parse("sin(t)")])
        res = measure_curve_length(curve, F(0), F(1), 8, precision=80)
        with localcontext() as ctx:
            ctx.prec = 100

            def cos(x: Decimal) -> Decimal:
                term = total = Decimal(1)
                k = 0
                while abs(term) > Decimal(10) ** -110:
                    k += 2
                    term = -term * x * x / ((k - 1) * k)
                    total += term
                return total

            expected = sum(
                (1 + cos(Decimal(2 * j + 1) / 16) ** 2).sqrt() for j in range(8)
            ) / 8
        assert abs(res.integral - F(expected)) < F(1, 10**78)

    def test_mass_centroid_unit_square(self):
        props = measure_mass_moment_com(
            parse("1"), Region.whole(Rect.box((0, 1), (0, 1))), PartitionSpec.simple(64, 64)
        )
        assert props.mass == 1
        cx, cy = props.centroid
        assert abs(cx - F(1, 2)) < F(1, 50)
        assert abs(cy - F(1, 2)) < F(1, 50)

    def test_mass_linear_density(self):
        props = measure_mass_moment_com(
            parse("x"), Region.whole(Rect.box((0, 1), (0, 1))), PartitionSpec.simple(128, 128)
        )
        assert abs(props.mass - F(1, 2)) < F(1, 50)
        assert abs(props.centroid[0] - F(2, 3)) < F(1, 50)

    def test_unit_cube_mass_and_centroid(self):
        cube = Region.whole(Rect.box((0, 1), (0, 1), (0, 1)))
        props = measure_mass_moment_com(parse("1"), cube, PartitionSpec.simple(8, 8, 8))
        assert props.mass == 1
        assert len(props.moments) == 3
        for coord in props.centroid:
            assert abs(coord - F(1, 2)) < F(1, 10)

    @pytest.mark.parametrize(
        "region,counts",
        [
            (Region(Rect.box((-1, 1), (-1, 1)), parse("x^2+y^2-1")), (9, 9)),
            (Region(Rect.box((F(-1, 2), 2), (-1, 1)), parse("(x-1)^2+y^2-1")), (5, 8)),
            (Region(Rect.box((-1, 1), (-1, 1), (0, 2)), parse("x^2+y^2+(z-1)^2-1")), (4, 5, 3)),
        ],
    )
    def test_mass_com_matches_separate_inner_sums(self, region, counts):
        rho = "2 + x*y - z/3" if region.bounding.dimension == 3 else "2 + x*y"
        spec = PartitionSpec.simple(*counts)
        props = measure_mass_moment_com(parse(rho), region, spec)
        mass = inner_sum(parse(rho), region, spec)
        assert props.counts == mass and props.mass == mass.value and mass.inner > 0
        names = ("x", "y", "z")[: region.bounding.dimension]
        assert props.moments == tuple(
            inner_sum(parse(f"{name}*({rho})"), region, spec).value for name in names
        )

    @pytest.mark.parametrize(
        "box,counts,calls",
        [
            (((-1, 1), (-1, 1)), (4, 6), 5 * 7 + 4 * 6),
            (((-1, 1), (-1, 1), (-1, 1)), (3, 3, 2), 4 * 4 * 3 + 3 * 3 * 2),
        ],
    )
    def test_mass_com_tests_each_vertex_and_centre_once(self, monkeypatch, box, counts, calls):
        # every point of every membership row, as (n0, d0, ..., n, d)
        region = Region(Rect.box(*box), parse("x^2+y^2-1"))
        seen = []
        compile_rows = integration.compile_rows

        def counting(e, names, precision, loop=1):
            kernel = compile_rows(e, names, precision, loop)
            if e is not region.membership:
                return kernel

            values = kernel.values

            def rows(*args):
                *head, den, row = args
                seen.extend((*head, n, den) for n in row)
                return values(*args)

            kernel.values = rows
            return kernel

        monkeypatch.setattr(integration, "compile_rows", counting)
        measure_mass_moment_com(parse("1 + x"), region, PartitionSpec.simple(*counts))
        assert len(seen) == len(set(seen)) == calls

    def test_zero_mass_centroid_raises(self):
        from hrw.errors import ZeroMass

        region = Region(Rect.box((0, 1), (0, 1)), parse("1"))  # empty
        props = measure_mass_moment_com(parse("1"), region, PartitionSpec.simple(2, 2))
        assert props.mass == 0
        with pytest.raises(ZeroMass):
            props.centroid


class TestMorley:
    def test_closed_forms(self):
        for n in (1, 10, 137):
            assert morley_strip_sum(F(1), n, "outer") == (PI / 2) * (1 + F(2, n) + F(1, n**2))
            assert morley_strip_sum(F(1), n, "inner") == (PI / 2) * (1 - F(2, n) + F(1, n**2))

    def test_equals_the_strip_loop(self):
        a = F(3, 2)
        for n in range(1, 201):
            for edge, strips in (("outer", range(1, n + 1)), ("inner", range(n))):
                want = 2 * PI * a**4 * F(sum(p**3 for p in strips), n**4)
                assert morley_strip_sum(a, n, edge) == want

    def test_a_billion_strips(self):
        n = 10**9
        assert morley_strip_sum(F(1), n, "outer") == (PI / 2) * (1 + F(2, n) + F(1, n**2))
        assert morley_strip_sum(F(1), n, "inner") == (PI / 2) * (1 - F(2, n) + F(1, n**2))

    def test_radius_scaling(self):
        assert morley_strip_sum(F(2), 10, "outer") == 16 * morley_strip_sum(F(1), 10, "outer")

    def test_both_edges_collapse(self):
        n = 10**4
        target = PI / 2
        for edge in ("outer", "inner"):
            rel = abs(morley_strip_sum(F(1), n, edge) - target) / target
            assert rel < F(3, n)


class TestLineIntegrals:
    def test_work_spec_example(self):
        res = line_integral_work(
            [parse("y"), parse("x")],
            CurveDef.from_exprs([parse("t"), parse("t^2")]),
            F(0), F(1), 512,
        )
        assert abs(res.chord - 1) < F(1, 10**4)
        assert abs(res.integrand - 1) < F(1, 10**4)

    def test_zero_field(self):
        res = line_integral_work(
            [parse("0"), parse("0")],
            CurveDef.from_exprs([parse("t"), parse("t^2")]),
            F(0), F(1), 8,
        )
        assert res.chord == 0 and res.integrand == 0

    def test_constant_field_straight_path(self):
        res = line_integral_work(
            [parse("1"), parse("0")],
            CurveDef.from_exprs([parse("t"), parse("0*t")]),
            F(0), F(1), 8,
        )
        assert res.chord == 1 and res.integrand == 1

    def test_gradient_field_path_independence(self):
        # F = grad(x*y) = (y, x); endpoints (0,0) -> (1,1) along two curves
        field = [parse("y"), parse("x")]
        parabola = CurveDef.from_exprs([parse("t"), parse("t^2")])
        straight = CurveDef.from_exprs([parse("t"), parse("t")])
        w1 = line_integral_work(field, parabola, F(0), F(1), 2048)
        w2 = line_integral_work(field, straight, F(0), F(1), 2048)
        assert abs(w1.chord - w2.chord) < F(1, 10**4)
        assert abs(w1.integrand - w2.integrand) < F(1, 10**4)


class TestStieltjes:
    def test_telescoping(self):
        for m in (1, 5, 32):
            assert riemann_stieltjes_sum(
                parse("1"), parse("x^2"), F(0), F(1), PartitionSpec.simple(m)
            ) == 1

    def test_linear_integrand(self):
        value = riemann_stieltjes_sum(
            parse("x"), parse("x^2"), F(0), F(1), PartitionSpec.simple(1024)
        )
        assert abs(value - F(2, 3)) < F(1, 100)

    def test_constant_integrator(self):
        assert riemann_stieltjes_sum(
            parse("x"), parse("5"), F(0), F(1), PartitionSpec.simple(16)
        ) == 0


class TestImpulse:
    def test_constant_force_exact(self):
        assert impulse(parse("4"), F(1), F(3), 13) == 8

    def test_linear_force(self):
        assert abs(impulse(parse("t"), F(0), F(2), 1024) - 2) < F(1, 100)

    def test_sine_force(self):
        value = impulse(parse("sin(t)"), F(0), PI, 2048)
        assert abs(value - 2) < F(1, 100)

    def test_momentum_identity(self):
        # impulse of F = p' recovers p(b) - p(a); here p = t^2, F = 2t
        a, b = F(1), F(3)
        value = impulse(parse("2*t"), a, b, 4096)
        assert abs(value - (b**2 - a**2)) < F(1, 100)


class TestGauges:
    def test_unit_gauge_single_cell(self):
        part = cousin_partition(Gauge(parse("1")), F(0), F(1))
        assert part.cells == (((F(0), F(1)),),)

    def test_growing_gauge_post_condition(self):
        gauge = Gauge(parse("x/2 + 1/100"))
        part = cousin_partition(gauge, F(0), F(1))
        for ((u, v),), (x,) in zip(part.cells, part.tags):
            delta = eval_real(gauge.radius, {"x": x}, 40)
            assert x - delta <= u and v <= x + delta
        assert sum(part.volumes()) == 1

    def test_vanishing_gauge_depth_cap(self):
        with pytest.raises(DepthExceeded):
            cousin_partition(Gauge(parse("0.000000000000000000000000000001")), F(0), F(1))

    @pytest.mark.parametrize("text,a,b", [("(x - 1/3)^2", 0, 1), ("1/40*(1 + sin(x))", -2, -1)])
    def test_gauge_vanishing_off_the_dyadic_grid_hits_cell_cap(self, text, a, b):
        # positive at every dyadic point but 0 at 1/3 (resp. -pi/2): each
        # dyadic shell towards the zero needs twice the cells of the last
        for mode in ("tag-in-cell", "mcshane"):
            start = time.perf_counter()
            with pytest.raises(DepthExceeded, match="more than 2048 gauge-fine cells"):
                cousin_partition(Gauge(parse(text)), F(a), F(b), mode)
            assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("text,cap", [
        ("(1/10)^5000", "no gauge-fine cell after 64 bisections near [0, 1/18446744073709551616]"),
        ("1/5000 + (1/10)^5000", "more than 2048 gauge-fine cells, the last [1/2, 2049/4096]"),
    ])
    def test_cap_texts_show_a_large_radius_by_size(self, text, cap):
        # str of 10^-5000 would pass the int-to-str digit limit
        for mode in ("tag-in-cell", "mcshane"):
            with pytest.raises(DepthExceeded) as exc:
                cousin_partition(Gauge(parse(text)), F(0), F(1), mode)
            assert str(exc.value).startswith(cap), str(exc.value)
            assert str(exc.value).endswith("bits>")

    def test_gauge_bounded_away_from_zero_fits_under_cell_cap(self):
        gauge = Gauge(parse("1/40*(2 + sin(x))"))
        assert len(cousin_partition(gauge, F(-2), F(-1)).cells) == 32
        assert len(cousin_partition(Gauge(parse("1/2500")), F(0), F(1)).cells) == 2048

    def test_nonpositive_gauge_rejected(self):
        with pytest.raises(DomainError):
            cousin_partition(Gauge(parse("x - 1")), F(0), F(1))

    def test_gauge_sum_linear(self):
        value = gauge_sum(parse("x"), F(0), F(1), Gauge(parse("1/100")))
        assert abs(value - F(1, 2)) <= F(1, 100)

    def test_mcshane_tags_can_leave_cells(self):
        # a sharp bump at 1/8 makes that anchor's ball swallow [1/4, 1/2]
        bump = Gauge(parse("1/100 + (3/8)*exp(-100*(x-1/8)^2)"))
        part = cousin_partition(bump, F(0), F(1), mode="mcshane")
        assert not part.tags_in_cells
        outside = sum(
            1 for ((u, v),), (x,) in zip(part.cells, part.tags) if not u <= x <= v
        )
        assert outside > 0
        # the same gauge keeps tags inside when the mode demands it
        strict = cousin_partition(bump, F(0), F(1), mode="tag-in-cell")
        for ((u, v),), (x,) in zip(strict.cells, strict.tags):
            assert u <= x <= v

    def test_mcshane_square(self):
        value = gauge_sum(parse("x^2"), F(0), F(1), Gauge(parse("1/1000")), mode="mcshane")
        assert abs(value - F(1, 3)) <= F(1, 100)

    def test_mcshane_nearest_tag_matches_full_scan(self):
        # reference: the nearest accepted tag by a scan over every tag, ties to the smaller
        def by_scan(gauge):
            delta = lambda x: eval_real(gauge.radius, {"x": x}, 40)  # noqa: E731
            cells, tags, stack = [], [], [(F(0), F(1))]
            while stack:
                u, v = stack.pop()
                mid = (u + v) / 2
                near = [min(tags, key=lambda t: (abs(t - mid), t))] if tags else []
                for x in near + [u, mid]:
                    if x - delta(x) <= u and v <= x + delta(x):
                        cells.append(((u, v),))
                        tags.append(x)
                        break
                else:
                    stack += [(mid, v), (u, mid)]
            return tuple(cells), tuple((t,) for t in tags)

        rng = random.Random(11)
        outside = 0
        for _ in range(12):
            c0, c1 = F(rng.randint(5, 60), 1000), F(rng.randint(0, 40), 100)
            m, k = F(rng.randint(0, 32), 32), rng.randint(10, 400)
            gauge = Gauge(parse(f"{c0} + {c1}*exp(-{k}*(x-{m})^2)"))
            part = cousin_partition(gauge, F(0), F(1), mode="mcshane")
            assert (part.cells, part.tags) == by_scan(gauge)
            outside += sum(not u <= t <= v for ((u, v),), (t,) in zip(part.cells, part.tags))
        assert outside > 0  # the nearest-tag rule was exercised


def jet_surface(f: str, a: F, b: F, m: int) -> F:
    """The surface sum with every slope from taylor_jet."""
    e, h, total = parse(f), (b - a) / m, F(0)
    for k in range(m):
        x = a + k * h
        slope = taylor_jet(e, x, 1, var="x").derivative(1)
        total += eval_real(e, {"x": x}) * sqrt_approx(1 + slope * slope, 40) * h
    return 2 * PI * total


def jet_speed_integral(curve: CurveDef, a: F, b: F, m: int) -> F:
    """The speed integral with every velocity from the curve's jets."""
    h, total = (b - a) / m, F(0)
    for k in range(m):
        velocity = [j.derivative(1) for j in curve.jets(a + (2 * k + 1) * h / 2, 1, Field())]
        total += sqrt_approx(sum(v * v for v in velocity), 40) * h
    return total


def chain(fns: list[str], inner: str) -> str:
    """fns[-1](...fns[0](inner)...)."""
    for fn in fns:
        inner = f"{fn}({inner})"
    return inner


class TestDeepTangentCode:
    """A level of a function chain adds a bounded amount of tangent code
    and of nesting to it, so chains near the parser's nesting limit compile
    and give the jet path's values."""

    @pytest.mark.parametrize("f", [
        chain(["abs"] * 30, "x + 2"),
        chain(["abs"] * 99, "x + 2"),
        chain(["sqrt"] * 99, "x + 2"),
        chain(["sin"] * 99, "x + 2"),
        chain(["sqrt", "abs", "sin", "abs"] * 24, "x + 2"),
        chain(["sqrt", "sin", "abs", "ln"] * 12, "x + 2").replace(")", ") + 2"),
    ], ids=["abs30", "abs99", "sqrt99", "sin99", "sqrt-abs-sin", "sqrt-sin-abs-ln"])
    def test_chains(self, f):
        assert measure_surface_revolution(parse(f), F(0), F(1), 2) == jet_surface(f, F(0), F(1), 2)
        curve = CurveDef.from_exprs([parse("t"), parse(f.replace("x", "t"))])
        res = measure_curve_length(curve, F(0), F(1), 2)
        assert res.integral == jet_speed_integral(curve, F(0), F(1), 2)


class TestTangentFallback:
    """Where a component's tangent code raises, its value comes from
    compile_real and its slope from its jet; a measure reads the values,
    then checks the radius or takes the force, then reads the slopes, so a
    point's value or error is the jet path's."""

    @pytest.mark.parametrize("measure", [
        lambda curve: measure_curve_length(curve, F(1), F(2), 4),
        lambda curve: line_integral_work([parse("y"), parse("x")], curve, F(1), F(2), 4),
    ], ids=["length", "work"])
    def test_only_the_declining_component_takes_jets(self, monkeypatch, measure):
        # t^(3/2) has no tangent code, sin(t) has: one jet per centre, all of t^(3/2)
        jets = []
        jet = taylor_jet

        def counted(e, *args):
            jets.append(e)
            return jet(e, *args)

        monkeypatch.setattr(calculus, "taylor_jet", counted)
        monkeypatch.setattr(integration, "taylor_jet", counted)
        curve = CurveDef.from_exprs([parse("t^(3/2)"), parse("sin(t)")])
        measure(curve)
        assert jets == [curve.components[0]] * 4

    @pytest.mark.parametrize("comp", ["sin(t)/t", "(t^2)/t", "sqrt(t^2)", "t^3/t"])
    def test_centre_at_a_removable_singularity(self, comp):
        # m = 3 on [-1/2, 1/2] puts a centre at 0
        curve = CurveDef.from_exprs([parse("t"), parse(comp)])
        res = measure_curve_length(curve, F(-1, 2), F(1, 2), 3)
        assert res.integral == jet_speed_integral(curve, F(-1, 2), F(1, 2), 3)

    @pytest.mark.parametrize("f", ["sqrt(x^2) + 1", "x^(3/2) + 1", "root(3, x + 2)", "(x^2)^2 + 1"])
    def test_min_vertex_where_tangent_code_has_no_rule(self, f):
        # sqrt and a power of a base at 0, a real power and a root: the jet
        assert measure_surface_revolution(parse(f), F(0), F(1), 2) == jet_surface(f, F(0), F(1), 2)

    @pytest.mark.parametrize("call, error, text", [
        (lambda: measure_surface_revolution(parse("abs(x) + 1"), F(-1), F(1), 2),
         NonSmoothAtPoint, "abs argument vanishes at 0"),
        (lambda: measure_curve_length(CurveDef.from_exprs([parse("t"), parse("1/(t - 1/2)")]),
                                      F(0), F(1), 1),
         DomainError, "expression unbounded on the monad of 1/2"),
        (lambda: measure_surface_revolution(parse("2 + 1/(x - 1/2)"), F(1, 2), F(1), 2),
         DivisionByZero, "division by zero (at offset 5)"),
        (lambda: line_integral_work([parse("1/(x - 1/2)"), parse("1")],
                                    CurveDef.from_exprs([parse("t"), parse("t")]), F(0), F(1), 1),
         DivisionByZero, "division by zero (at offset 1)"),
        (lambda: measure_surface_revolution(parse("tan(x)"), PI / 2, PI / 2 + 1, 1),
         DomainError, f"tan undefined near {PI / 2}: cos too close to 0 (at offset 0)"),
        # a power of a base at 0: the series refuses by the base's leading coefficient
        (lambda: measure_surface_revolution(parse("(-1000*x^2)^30000 + 1"), F(0), F(1), 2),
         ApproxOverflow, "power 30000 of a series with leading coefficient -1000 (at offset 11)"),
        (lambda: measure_surface_revolution(parse("(-1000*x)^30000 + 1"), F(0), F(1), 2),
         ApproxOverflow, "power 30000 of a series with leading coefficient -1000 (at offset 9)"),
        (lambda: measure_surface_revolution(parse("(1000*x)^30000 + 1"), F(0), F(1), 2),
         ApproxOverflow, "power 1000^30000 exceeds magnitude cap (at offset 8)"),
        # the radius is refused before the slope, which fails at the same point
        (lambda: measure_surface_revolution(parse("abs(x) - 1"), F(0), F(1), 2),
         NegativeRadius, "f(0) = -1 < 0"),
        (lambda: measure_surface_revolution(parse("sqrt(x) - 1"), F(0), F(1), 2),
         NegativeRadius, "f(0) = -1 < 0"),
        (lambda: measure_surface_revolution(parse("x^(1/2) - 1"), F(0), F(1), 2),
         NegativeRadius, "f(0) = -1 < 0"),
        # the force is taken before the slope, whose jet fails at the same point
        (lambda: line_integral_work([parse("1/x"), parse("1")],
                                    CurveDef.from_exprs([parse("t"), parse("abs(t)^(1/2)")]),
                                    F(-1), F(1), 1),
         DivisionByZero, "division by zero (at offset 1)"),
        # the value is compile_real's, which fails where the jet has a value
        (lambda: line_integral_work([parse("x"), parse("y")],
                                    CurveDef.from_exprs([parse("t"), parse("(t^2)/t")]),
                                    F(-1), F(1), 1),
         DivisionByZero, "division by zero (at offset 5)"),
        (lambda: measure_surface_revolution(parse("(x^2)/x + 1"), F(0), F(1), 2),
         DivisionByZero, "division by zero (at offset 5)"),
    ])
    def test_errors_are_the_jet_paths(self, call, error, text):
        with pytest.raises(error) as err:
            call()
        assert str(err.value) == text


class TestHugeRationalsInErrorTexts:
    """An endpoint past Python's int-to-str digit limit is shown by its bit
    sizes in an error text, which keeps its type."""

    TINY = F(1, 10**5000)
    SHOWN = "<rational of 1/16610 bits>"

    def test_gauge_not_positive(self):
        with pytest.raises(DomainError) as err:
            cousin_partition(Gauge(parse("x - 1")), self.TINY, F(1))
        assert str(err.value).startswith(f"gauge must be positive, delta({self.SHOWN}) = <rational")

    def test_gauge_cap(self):
        with pytest.raises(DepthExceeded) as err:
            cousin_partition(Gauge(parse("1/10^30")), self.TINY, F(1))
        assert str(err.value).startswith(
            f"no gauge-fine cell after 64 bisections near [{self.SHOWN}, <rational")

    def test_negative_radius(self):
        with pytest.raises(NegativeRadius) as err:
            measure_volume_revolution(parse("x - 1"), self.TINY, F(1), 2)
        assert str(err.value).startswith(f"f({self.SHOWN}) = <rational")

    def test_order_violation(self):
        with pytest.raises(OrderViolation) as err:
            measure_area_between(parse("x"), parse("x - 1"), self.TINY, F(1), 2)
        assert str(err.value) == f"lower curve exceeds upper curve at {self.SHOWN}"


class TestSupernearness:
    def test_matching_generator(self):
        rep = supernearness_probe(parse("x^2"), parse("x^2"), F(0), F(1), [4, 8, 16, 32])
        assert rep.decreasing()
        for (mesh, dev), m in zip(rep.rows, (4, 8, 16, 32)):
            assert dev <= F(2, m)

    def test_constant_exact(self):
        rep = supernearness_probe(parse("3"), parse("3"), F(0), F(1), [4, 8])
        assert all(dev == 0 for _, dev in rep.rows)

    def test_mismatch_detected(self):
        rep = supernearness_probe(parse("x^2"), parse("x"), F(0), F(1), [4, 8, 16])
        assert rep.rows[-1][1] > F(1, 10)

    def test_unknown_generator(self):
        with pytest.raises(UnknownFunctional):
            supernearness_probe(parse("sin(x)"), parse("sin(x)"), F(0), F(1), [4])


def scaled(fn, k=6):
    """The pair integrand fn with both parts of every value multiplied by k."""
    return lambda n, d: tuple(k * v for v in fn(n, d))


def simpson_both_ways(fn, a, b):
    """adaptive_simpson of fn, which must equal that of ``scaled(fn)``."""
    value = adaptive_simpson(fn, a, b)
    assert adaptive_simpson(scaled(fn), a, b) == value
    return value


class TestOracleAndConvergence:
    def test_simpson_polynomial_exact(self):
        assert simpson_both_ways(compile_real(parse("x^2"), ("x",)), F(0), F(1)) == F(1, 3)

    def test_simpson_sine(self):
        fn = compile_real(parse("sin(x)"), ("x",), 30)
        value = simpson_both_ways(fn, F(0), pi_approx(30))
        assert abs(value - 2) < F(1, 10**9)

    def test_simpson_steep_root(self):
        # halvings near 0 go 511 deep
        value = simpson_both_ways(compile_real(parse("x^(1/20)"), ("x",)), F(0), F(1))
        assert abs(value - F(20, 21)) < F(1, 10**9)

    @pytest.mark.parametrize("text, near", [
        ("x^(1/40)", "0.000000000000"),  # converges only at 1026 halvings
        ("sqrt(abs(x-1/3))^(1/8)", "0.333333333333"),
        ("abs(x-1/3)/(x-1/3)", "0.333333333333"),  # a jump no dyadic point hits
    ])
    def test_simpson_halving_cap(self, text, near):
        fn = compile_real(parse(text), ("x",))
        for integrand in (fn, scaled(fn)):
            with pytest.raises(OracleFailure) as err:
                adaptive_simpson(integrand, F(0), F(1))
            assert str(err.value) == f"quadrature exceeded 1000 halvings near {near}"

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="the oracle is adaptive Simpson, whose acceptance test is a "
                       "heuristic: it accepts 5.9e-11 for a spike whose integral is 3.1e-6")
    def test_spike_oracle_within_its_tolerance_or_refused(self, capsys):
        code = run(["converge", "riemann", "--expr", "1/(1 + 10^12*(x - 1/3)^2)",
                    "--on=0,1", "--meshes=1/4,1/8,1/16", "--tags=center", "--format=json"])
        out, err = capsys.readouterr()
        if code == 1:  # a typed refusal
            assert err.startswith("error: ") and not out
            return
        assert code == 0
        oracle = F(json.loads(out)["oracle"])
        # 10^-6 (atan(2*10^6/3) + atan(10^6/3)), atan(y) = pi/2 - atan(1/y)
        with localcontext() as ctx:
            ctx.prec = 100
            want = decimal_pi(100)
            for y in (Decimal(2 * 10**6) / 3, Decimal(10**6) / 3):
                t, k, term = 1 / y, 0, 1 / y
                while abs(term) > Decimal(10) ** -110:
                    k += 1
                    term = -term / (y * y)
                    t += term / (2 * k + 1)
                want -= t
            want /= 10**6
            got = Decimal(oracle.numerator) / Decimal(oracle.denominator)
        assert abs(got - want) <= Decimal(10) ** -integration.SIMPSON_DIGITS, (got, want)

    def test_riemann_square_study(self):
        expr = parse("x^2")

        def target(mesh):
            m = int(1 / mesh)
            return riemann_sum(expr, Rect.interval(0, 1), PartitionSpec.simple(m))

        report = converge_study(
            "riemann x^2", target, [F(1, 2**k) for k in range(3, 13)], F(1, 3)
        )
        assert report.monotone
        assert report.final_error < F(1, 1000)
        assert abs(report.estimate - F(1, 3)) < F(1, 10**6)

    def test_constant_zero_error(self):
        report = converge_study(
            "constant", lambda mesh: F(5), [F(1, 4), F(1, 8)], F(5)
        )
        assert all(err == 0 for err in report.errors)

    def test_meshes_must_decrease(self):
        with pytest.raises(ValueError):
            converge_study("bad", lambda mesh: F(0), [F(1, 8), F(1, 4)], F(0))

    def test_json_schema_fields(self):
        report = converge_study(
            "demo", lambda mesh: F(1) + mesh, [F(1, 2), F(1, 4), F(1, 8)], F(1)
        )
        doc = report.to_json_dict()
        assert set(doc) == {"operation", "params", "rows", "estimate", "oracle", "error"}
        assert doc["rows"][0] == {"mesh": "1/2", "value": "3/2"}

    def test_determinism_across_runs(self):
        expr = parse("x^2")
        rect = Rect.interval(0, 1)
        spec = PartitionSpec.simple(64)
        first = riemann_sum(expr, rect, spec, "seeded-random", seed=42)
        second = riemann_sum(expr, rect, spec, "seeded-random", seed=42)
        assert first == second
