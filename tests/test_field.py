"""Field arithmetic, order, classification, standard part, order ideals."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

from conftest import EXPONENT_GRID, rand_fraction, rand_hyper
from hrw.errors import (
    DivisionByZero,
    NonPositiveLeading,
    NotInfinitesimal,
    TranscendentalOnUnlimited,
)
from hrw.field import (
    Classification,
    DEFAULT_FIELD as FLD,
    ExtendedReal,
    HyperReal,
    apply_analytic,
    classify,
    close_of_order,
    compare,
    hr_cos,
    hr_exp,
    hr_ln,
    hr_pow,
    hr_sin,
    hr_tan,
    in_monad,
    in_order_ideal,
    infinitely_close,
    parse_hyperreal,
)

EPS = FLD.epsilon()
GAMMA = FLD.gamma()
ONE = FLD.one()


coeffs = st_.fractions(min_value=-50, max_value=50, max_denominator=20)
exponents = st_.sampled_from(EXPONENT_GRID)


def series(limited=False, infinitesimal=False):
    grid = [e for e in EXPONENT_GRID if (not limited or e >= 0) and (not infinitesimal or e > 0)]
    return st_.lists(
        st_.tuples(st_.sampled_from(grid), coeffs), max_size=4
    ).map(lambda terms: HyperReal(terms, FLD.window, FLD.precision))


class TestGenerators:
    def test_epsilon_is_the_canonical_monomial(self):
        assert FLD.epsilon(1).terms == ((F(1), F(1)),)

    def test_gamma_is_infinite(self):
        assert classify(FLD.epsilon(-1)) is Classification.INFINITE_POSITIVE

    def test_fractional_exponents_multiply(self):
        half = FLD.epsilon(F(1, 2))
        assert half * half == EPS

    def test_window_invariant_enforced(self):
        x = HyperReal([(F(0), F(1)), (F(20), F(1))])
        assert x.terms == ((F(0), F(1)),)
        assert x.saturated


class TestRingOps:
    def test_cancellation(self):
        assert (FLD.rational(3) + EPS) + (FLD.rational(2) - EPS) == FLD.rational(5)

    def test_term_merge(self):
        assert (EPS + EPS * EPS).terms == ((F(1), F(1)), (F(2), F(1)))

    def test_additive_inverse(self):
        x = FLD.rational(3) + EPS**2
        assert (x + (-x)).is_zero

    def test_product_difference_of_squares(self):
        assert (ONE + EPS) * (ONE - EPS) == ONE - EPS**2

    def test_eps_times_gamma(self):
        assert EPS * GAMMA == ONE

    def test_infinitesimal_absorption(self):
        assert classify(EPS * (FLD.rational(3) + EPS)) is Classification.INFINITESIMAL

    def test_mixed_rational_coercion(self):
        assert 2 * EPS + 1 == FLD.rational(1) + EPS * 2

    def test_window_mismatch_rejected(self):
        from hrw.field import Field

        other = Field(window=8).epsilon()
        with pytest.raises(ValueError):
            EPS + other


class TestInverse:
    def test_geometric_series(self):
        inv = (ONE - EPS).inv()
        assert inv.terms == tuple((F(k), F(1)) for k in range(16))
        assert inv.saturated

    def test_inv_of_eps(self):
        assert EPS.inv() == FLD.epsilon(-1)

    def test_inv_of_rational(self):
        assert FLD.rational(2).inv() == FLD.rational(F(1, 2))

    def test_zero_rejected(self):
        with pytest.raises(DivisionByZero):
            FLD.zero().inv()

    def test_inverse_exact_within_window(self):
        x = ONE + EPS + 3 * EPS**2
        assert x * x.inv() == ONE


class TestRoots:
    def test_sqrt_of_perturbed_square(self):
        r = (FLD.rational(4) + 4 * EPS).sqrt()
        assert r.coefficient(0) == 2
        assert r.coefficient(1) == 1
        assert r.coefficient(2) == F(-1, 4)

    def test_sqrt_round_trip_by_squaring(self):
        x = FLD.rational(4) + 4 * EPS
        square = x.sqrt() ** 2
        for e, c in square.terms:
            if e < FLD.window - 1:  # one-term slack at the window edge
                assert c == x.coefficient(e), (e, c)

    def test_sqrt_eps(self):
        assert EPS.sqrt() == FLD.epsilon(F(1, 2))

    def test_cbrt(self):
        assert FLD.rational(8).nth_root(3) == FLD.rational(2)

    def test_zero_root_is_zero(self):
        assert FLD.zero().nth_root(2).is_zero

    def test_nonpositive_leading_rejected(self):
        with pytest.raises(NonPositiveLeading):
            (-EPS).nth_root(2)

    @settings(max_examples=60, deadline=None)
    @given(series(limited=True), st_.integers(min_value=2, max_value=4))
    def test_standard_part_commutes_with_roots(self, x, n):
        # st(root(x, n)) is the n-th root of st(x) for appreciable x > 0
        from hrw.approx import nth_root_approx

        if x.is_zero or x.leading_exponent() != 0 or x.terms[0][1] <= 0:
            return
        assert x.nth_root(n).st_fraction() == nth_root_approx(x.st_fraction(), n, FLD.precision)

    @settings(max_examples=60, deadline=None)
    @given(series(), st_.integers(min_value=2, max_value=4))
    def test_root_round_trip_randomized(self, x, n):
        if x.is_zero or x.terms[0][1] <= 0:
            return
        from hrw.approx import exact_nth_root

        if exact_nth_root(x.terms[0][1], n) is None:
            return  # exactness only promised for perfect-power leading terms
        r = x.nth_root(n) ** n
        cap = x.terms[0][0] + FLD.window - 1
        for e, c in r.terms:
            if e < cap:
                assert c == x.coefficient(e)


class TestOrder:
    def test_eps_below_every_real_probe(self):
        assert compare(EPS, FLD.rational(F(1, 10**6))) == "<"

    def test_gamma_above_every_real_probe(self):
        assert compare(GAMMA, FLD.rational(10**9)) == ">"

    def test_perturbation_order(self):
        assert compare(FLD.rational(3) + EPS, FLD.rational(3)) == ">"

    @settings(max_examples=100, deadline=None)
    @given(series(), series())
    def test_total_order_antisymmetry(self, x, y):
        assert x.compare(y) == -y.compare(x)

    @settings(max_examples=200, deadline=None)
    @given(series(), coeffs)
    def test_scalar_compare_matches_series_compare(self, x, q):
        for r in (q, F(0), x.coefficient(0)):
            assert x.compare(r) == x.compare(FLD.rational(r))

    @settings(max_examples=100, deadline=None)
    @given(series(limited=True), series(limited=True))
    def test_order_monotone_under_st(self, x, y):
        if x.compare(y) < 0:
            a, b = x.st_fraction(), y.st_fraction()
            assert a <= b


class TestClassification:
    def test_examples(self):
        assert classify(EPS**2) is Classification.INFINITESIMAL
        assert classify(FLD.rational(5) + EPS) is Classification.APPRECIABLE
        assert classify(-GAMMA + FLD.rational(7)) is Classification.INFINITE_NEGATIVE
        assert classify(FLD.zero()) is Classification.ZERO

    def test_zero_counts_as_infinitesimal(self):
        assert classify(FLD.zero()).is_infinitesimal

    @settings(max_examples=100, deadline=None)
    @given(series())
    def test_reciprocal_duality(self, x):
        if x.is_zero:
            return
        inv_class = classify(x.inv())
        if classify(x) in (
            Classification.INFINITE_POSITIVE,
            Classification.INFINITE_NEGATIVE,
        ):
            assert inv_class is Classification.INFINITESIMAL
        elif classify(x) is Classification.INFINITESIMAL:
            assert inv_class in (
                Classification.INFINITE_POSITIVE,
                Classification.INFINITE_NEGATIVE,
            )


class TestStandardPart:
    def test_product_example(self):
        x = (FLD.rational(3) + EPS) * (FLD.rational(2) - EPS)
        assert x.st_fraction() == 6

    def test_infinite_maps_to_signed_infinity(self):
        assert GAMMA.st() is ExtendedReal.POS_INF
        assert str(GAMMA.st()) == "+inf"
        assert (-GAMMA).st() is ExtendedReal.NEG_INF

    def test_pure_infinitesimal_tail(self):
        assert (FLD.epsilon(5) - EPS).st_fraction() == 0

    @settings(max_examples=150, deadline=None)
    @given(series(limited=True), series(limited=True))
    def test_homomorphism(self, x, y):
        assert (x + y).st_fraction() == x.st_fraction() + y.st_fraction()
        assert (x - y).st_fraction() == x.st_fraction() - y.st_fraction()
        assert (x * y).st_fraction() == x.st_fraction() * y.st_fraction()
        if y.st_fraction() != 0:
            assert (x / y).st_fraction() == x.st_fraction() / y.st_fraction()


class TestInfinitelyClose:
    def test_examples(self):
        three = FLD.rational(3)
        assert infinitely_close(three + EPS, three - EPS**2)
        assert not infinitely_close(three, FLD.rational(F(30001, 10000)))

    def test_limited_close_to_st(self):
        x = FLD.rational(3) + EPS
        assert infinitely_close(x, FLD.rational(x.st_fraction()))

    @settings(max_examples=100, deadline=None)
    @given(series(), series(), series())
    def test_equivalence_relation(self, x, y, z):
        assert infinitely_close(x, x)
        if infinitely_close(x, y):
            assert infinitely_close(y, x)
            if infinitely_close(y, z):
                assert infinitely_close(x, z)

    @settings(max_examples=100, deadline=None)
    @given(series(), st_.fractions(max_denominator=30), st_.fractions(max_denominator=30))
    def test_monad_disjointness(self, z, r, s):
        if r != s:
            assert not (in_monad(z, r) and in_monad(z, s))

    def test_monad_order_separation(self, rng):
        for _ in range(200):
            r = rand_fraction(rng)
            s = rand_fraction(rng)
            if r == s:
                continue
            r, s = min(r, s), max(r, s)
            z = FLD.rational(r) + rand_hyper(rng, infinitesimal=True)
            w = FLD.rational(s) + rand_hyper(rng, infinitesimal=True)
            assert z < w


class TestOrderIdeals:
    def test_examples(self):
        assert in_order_ideal(EPS**2, EPS)
        assert not in_order_ideal(EPS / 2, EPS)
        c = FLD.rational(7)
        assert close_of_order(c + EPS**3, c, EPS, 2)

    def test_zero_belongs(self):
        assert in_order_ideal(FLD.zero(), EPS)

    def test_generator_must_be_nonzero_infinitesimal(self):
        with pytest.raises(NotInfinitesimal):
            in_order_ideal(EPS, FLD.rational(1))
        with pytest.raises(NotInfinitesimal):
            in_order_ideal(EPS, FLD.zero())

    def test_strict_nesting(self):
        # o(eps^2) strictly inside o(eps): eps^2/2 separates them
        witness = EPS**2 / 2
        assert in_order_ideal(witness, EPS)
        assert not in_order_ideal(witness, EPS**2)

    def test_membership_invariant_across_generators(self, rng):
        for _ in range(300):
            gens = [rand_hyper(rng, infinitesimal=True, nonzero=True) for _ in range(3)]
            x = rand_hyper(rng)
            e_max = max((abs(g) for g in gens), key=lambda g: g)  # field order max
            sum_sq = gens[0] * gens[0]
            for g in gens[1:]:
                sum_sq = sum_sq + g * g
            e_norm = sum_sq.nth_root(2)
            picks = [in_order_ideal(x, g) for g in (gens[0], e_max, e_norm)]
            lam = x.leading_exponent()
            lams = [g.leading_exponent() for g in (gens[0], e_max, e_norm)]
            expected = [x.is_zero or lam > g_lam for g_lam in lams]
            assert picks == expected
            # the max and norm generators share a leading exponent, so agree
            assert picks[1] == picks[2]


class TestAnalytic:
    def test_exp_series(self):
        e = hr_exp(EPS)
        assert e.coefficient(0) == 1
        assert e.coefficient(1) == 1
        assert e.coefficient(2) == F(1, 2)
        assert e.coefficient(3) == F(1, 6)

    def test_exact_taylor_coefficients(self):
        fact = [1]
        for k in range(1, 16):
            fact.append(fact[-1] * k)
        cos_e = hr_cos(EPS)
        tan_e = hr_tan(EPS)
        ln_e = hr_ln(ONE + EPS)
        tan_odd = [F(1), F(1, 3), F(2, 15), F(17, 315), F(62, 2835), F(1382, 155925),
                   F(21844, 6081075), F(929569, 638512875)]
        for k in range(16):
            assert cos_e.coefficient(k) == (F((-1) ** (k // 2), fact[k]) if k % 2 == 0 else 0)
            assert tan_e.coefficient(k) == (tan_odd[k // 2] if k % 2 else 0)
            assert ln_e.coefficient(k) == (F((-1) ** (k + 1), k) if k else 0)

    def test_ln_keeps_window_above_its_leading_term(self):
        # ln(1) is exactly 0, so the result leads with eps^(3/2) and keeps
        # every term below 3/2 + 16, not only those below 16
        v = hr_ln(ONE + FLD.epsilon(F(3, 2)))
        assert [e for e, _ in v.terms] == [F(3 * k, 2) for k in range(1, 12)]
        assert [c for _, c in v.terms] == [F((-1) ** (k + 1), k) for k in range(1, 12)]

    def test_identities_exact_on_fractional_infinitesimals(self, rng):
        exps = [F(k, d) for d in (2, 3) for k in range(1, 13)]
        for _ in range(25):
            h = HyperReal(
                [(e, rand_fraction(rng)) for e in rng.sample(exps, rng.randint(1, 4))],
                FLD.window, FLD.precision,
            )
            ep, em, s, c = hr_exp(h), hr_exp(-h), hr_sin(h), hr_cos(h)
            assert all(v.saturated for v in (ep, em, s, c))
            assert ep * em == ONE
            assert s * s + c * c == ONE

    def test_sin_ratio(self):
        assert (hr_sin(EPS) / EPS).st_fraction() == 1

    def test_unlimited_rejected(self):
        with pytest.raises(TranscendentalOnUnlimited):
            hr_exp(GAMMA)

    def test_ln_inverts_exp(self):
        x = FLD.rational(2) + EPS
        back = hr_exp(hr_ln(x))
        assert abs(back.coefficient(0) - 2) < F(1, 10**38)
        assert abs(back.coefficient(1) - 1) < F(1, 10**38)

    def test_pow_real_binomial(self):
        x = FLD.rational(4) + EPS
        r = hr_pow(x, F(1, 2))
        assert r.coefficient(0) == 2
        assert r.coefficient(1) == F(1, 4)

    def test_dispatcher(self):
        assert apply_analytic("exp", FLD.zero()) == ONE
        assert apply_analytic("pow_real", FLD.rational(9), exponent=F(1, 2)) == FLD.rational(3)
        with pytest.raises(ValueError):
            apply_analytic("sinh", EPS)


class TestFieldLaws:
    def test_laws_hold_without_truncation(self, rng):
        # small exponent spread keeps every product inside the window
        for _ in range(1000):
            x = rand_hyper(rng, max_terms=3)
            y = rand_hyper(rng, max_terms=3)
            z = rand_hyper(rng, max_terms=3)
            assert x + y == y + x
            assert (x + y) + z == x + (y + z)
            assert x * y == y * x
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z

    def test_distributivity_on_surviving_range_under_truncation(self, rng):
        # wide exponent spreads force truncation events; both association
        # orders must still agree below the shared sound bound
        wide = [F(k, 2) for k in range(0, 30)]
        saturated_seen = 0
        for _ in range(300):
            def wide_series():
                exps = rng.sample(wide, rng.randint(1, 5))
                return HyperReal(
                    [(e, rand_fraction(rng)) for e in exps],
                    FLD.window, FLD.precision,
                )

            x, y, z = wide_series(), wide_series(), wide_series()
            if x.is_zero or (y.is_zero and z.is_zero):
                continue
            lhs = x * (y + z)
            rhs = x * y + x * z
            lams = [v.leading_exponent() for v in (y, z) if not v.is_zero]
            bound = x.leading_exponent() + min(lams) + FLD.window
            for e in {e for e, _ in lhs.terms} | {e for e, _ in rhs.terms}:
                if e < bound:
                    assert lhs.coefficient(e) == rhs.coefficient(e)
            saturated_seen += lhs.saturated or rhs.saturated
        assert saturated_seen > 0  # truncation actually occurred


class TestRendering:
    def test_canonical_form(self):
        v = FLD.rational(3) + EPS - EPS**2 / 4
        assert v.render() == "3 + 1*eps^1 + -1/4*eps^2"

    def test_round_trip(self):
        v = FLD.rational(3) + EPS - EPS**2 / 4
        assert FLD.parse(v.render()) == v
        assert FLD.parse("0") == FLD.zero()

    def test_fractional_exponent_round_trip(self):
        v = FLD.epsilon(F(1, 2)) * 3 - FLD.epsilon(F(-2, 3))
        assert parse_hyperreal(v.render()) == v

    @settings(max_examples=100, deadline=None)
    @given(series())
    def test_round_trip_randomized(self, x):
        assert parse_hyperreal(x.render()) == x


class TestSaturation:
    def test_exact_ops_not_flagged(self):
        assert not ((ONE + EPS) * (ONE - EPS)).saturated

    def test_truncating_series_flagged(self):
        assert (ONE - EPS).inv().saturated
        assert hr_exp(EPS).saturated

    def test_flag_propagates(self):
        assert ((ONE - EPS).inv() + ONE).saturated
