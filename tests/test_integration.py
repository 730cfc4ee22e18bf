"""Partition sums, measures, gauges, supernearness, convergence."""

from decimal import Decimal, localcontext
from fractions import Fraction as F

import pytest

from hrw.approx import pi_approx, sqrt_approx
from hrw.calculus import CurveDef
from hrw.errors import (
    DepthExceeded,
    DomainError,
    OrderViolation,
    UnknownFunctional,
)
from hrw.exprs import compile_real, parse
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

    def test_seeded_tags_reproducible(self):
        rect = Rect.interval(0, 1)
        a = tagged_partition(rect, PartitionSpec.simple(8), "seeded-random", seed=3)
        b = tagged_partition(rect, PartitionSpec.simple(8), "seeded-random", seed=3)
        c = tagged_partition(rect, PartitionSpec.simple(8), "seeded-random", seed=4)
        assert a.tags == b.tags
        assert a.tags != c.tags


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

    def test_generic_path_agrees_with_2d_fast_path(self):
        # 3-D region exercises the generic classifier
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
        delta = gauge.compiled(40)
        for ((u, v),), (x,) in zip(part.cells, part.tags):
            assert x - delta(x) <= u and v <= x + delta(x)
        assert sum(part.volumes()) == 1

    def test_vanishing_gauge_depth_cap(self):
        with pytest.raises(DepthExceeded):
            cousin_partition(Gauge(parse("0.000000000000000000000000000001")), F(0), F(1))

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


class TestOracleAndConvergence:
    def test_simpson_polynomial_exact(self):
        assert adaptive_simpson(compile_real(parse("x^2"), ("x",)), F(0), F(1)) == F(1, 3)

    def test_simpson_sine(self):
        fn = compile_real(parse("sin(x)"), ("x",), 30)
        value = adaptive_simpson(fn, F(0), pi_approx(30))
        assert abs(value - 2) < F(1, 10**9)

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
