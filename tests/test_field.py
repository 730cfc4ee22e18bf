"""Field arithmetic, order, classification, standard part, order ideals."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

from conftest import EXPONENT_GRID, rand_fraction, rand_hyper
from hrw import approx
from hrw.errors import (
    DivisionByZero,
    NonPositiveLeading,
    NotInfinitesimal,
    PrecisionExhausted,
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

    def test_pow_real_takes_the_root_rule(self):
        # the leading monomial a*eps^lam goes to a^r*eps^(lam*r) at any value
        assert hr_pow(GAMMA, F(1, 2)) == FLD.epsilon(F(-1, 2))
        assert hr_pow(4 * EPS, F(3, 2)) == FLD.monomial(8, F(3, 2))
        assert hr_pow(EPS, F(1, 2)) == EPS.nth_root(2)
        x = FLD.rational(2) + EPS
        assert hr_pow(x, F(1, 3)) == x.nth_root(3)
        assert hr_pow(x, F(5, 2)).coefficient(0) == approx.pow_approx(F(2), F(5, 2), FLD.precision)

    def test_pow_real_at_zero_and_negative_bases(self):
        assert hr_pow(FLD.zero(), F(1, 2)) == FLD.zero()
        with pytest.raises(DivisionByZero, match="0 raised to a negative power"):
            hr_pow(FLD.zero(), F(-1, 2))
        with pytest.raises(PrecisionExhausted):
            hr_pow(HyperReal([], FLD.window, FLD.precision, order=3), F(1, 2))
        with pytest.raises(NonPositiveLeading, match="real power with non-positive leading"):
            hr_pow(-EPS, F(1, 2))

    def test_dispatcher(self):
        assert apply_analytic("exp", FLD.zero()) == ONE
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


# -- the term representation against a naive reference --------------------------
#
# Each reference builds its result only through the public HyperReal(...)
# constructor: all pairwise products, then merge, sort and window-truncate.
# The certified order is derived independently, from the absolute-precision
# rules spelled out case by case.

WINDOWS = [F(16), F(7), F(5, 2)]
INF = float("inf")


def _binom(alpha, k):
    c = F(1)
    for j in range(k):
        c = c * (alpha - j) / (j + 1)
    return c


def _val(x):
    """Leading exponent, or the order of a value without terms."""
    return x.terms[0][0] if x.terms else x.order


def _ref_mul(x, y):
    # (X + O(eps^Nx)) (Y + O(eps^Ny)) = XY + O(eps^min(Nx + vy, Ny + vx))
    order = min(INF if x.order == INF else x.order + _val(y),
                INF if y.order == INF else y.order + _val(x))
    if x.is_zero or y.is_zero:
        return HyperReal([], x.window, x.precision, order)
    cap = x.terms[0][0] + y.terms[0][0] + x.window
    pairs = [(e1 + e2, c1 * c2) for e1, c1 in x.terms for e2, c2 in y.terms]
    kept = [t for t in pairs if t[0] < cap]
    if len(kept) < len(pairs):
        order = min(order, cap)
    return HyperReal(kept, x.window, x.precision, order)


def _ref_add(x, y):
    return HyperReal(list(x.terms) + list(y.terms), x.window, x.precision,
                     min(x.order, y.order))


def _ref_pow(x, n):
    """Square and multiply, in the order HyperReal.__pow__ uses: the first
    factor starts the product, and n = 0 gives the exact 1."""
    if not n:
        return HyperReal([(0, 1)], x.window, x.precision)
    result, base = None, x
    while n:
        if n & 1:
            result = base if result is None else _ref_mul(result, base)
        base = _ref_mul(base, base) if n > 1 else base
        n >>= 1
    return result


def _ref_series(u, coeff, head):
    """head * sum_k coeff(k) u^k, keeping exponents below k0*mu + window and
    below u's truncation as it enters c_k1 u^k1 (k1 the first k >= 1 with a
    nonzero coefficient)."""
    shift, scale = head
    w, p = u.window, u.precision
    k1 = next(k for k in range(1, 10**6) if coeff(k))
    if u.is_zero:  # u = O(eps^N): head * (c_0 + O(eps^(k1 N)))
        order = INF if u.order == INF else shift + k1 * u.order
        return HyperReal([(shift, scale * coeff(0))], w, p, order)
    mu = u.terms[0][0]
    k0 = next(k for k in range(10**6) if coeff(k))
    cap = k0 * mu + w
    if u.order != INF:
        cap = min(cap, u.order + (k1 - 1) * mu)
    if not scale:
        return HyperReal([], w, p, shift + min(w, u.order))
    terms, power, k = [], HyperReal([(0, 1)], w, p), 0
    while k * mu < cap:
        terms += [(e + shift, scale * coeff(k) * a) for e, a in power.terms]
        power = HyperReal([(e1 + e2, a1 * a2) for e1, a1 in power.terms
                           for e2, a2 in u.terms if e1 + e2 < cap], w, p)
        k += 1
    return HyperReal([t for t in terms if t[0] < cap + shift], w, p, cap + shift)


def _ref_tail(x):
    lam, a = x.terms[0]
    order = INF if x.order == INF else x.order - lam
    return HyperReal([(e - lam, c) for e, c in x.terms[1:]], x.window, x.precision, order), lam, a


def _ref_inv(x):
    u, lam, a = _ref_tail(x)
    return _ref_series(u, lambda k: F(-1, 1) ** k / a**k, (-lam, 1 / a))


def _ref_root(x, n):
    from hrw.approx import nth_root_approx

    u, lam, a = _ref_tail(x)
    head = (F(lam) / n, nth_root_approx(a, n, x.precision))
    return _ref_series(u, lambda k: _binom(F(1, n), k) / a**k, head)


def _ref_exp(x):
    from hrw.approx import exp_approx

    s = x.coefficient(0)
    h = _ref_add(x, HyperReal([(0, -s)], x.window, x.precision))
    const = exp_approx(s, x.precision)
    fact = [1]
    for k in range(1, 200):
        fact.append(fact[-1] * k)
    return _ref_series(h, lambda k: F(1, fact[k]), (0, const))


def _ref_ln(x):
    from hrw.approx import ln_approx

    s = x.coefficient(0)
    h = _ref_add(x, HyperReal([(0, -s)], x.window, x.precision))
    const = ln_approx(s, x.precision)
    return _ref_series(h, lambda k: const if k == 0 else F((-1) ** (k + 1), k) / s**k, (0, 1))


def _ref_trig(x, a, b):
    """a*cos(h) + b*sin(h) on the infinitesimal tail h of x."""
    s = x.coefficient(0)
    h = _ref_add(x, HyperReal([(0, -s)], x.window, x.precision))
    fact = [1]
    for k in range(1, 200):
        fact.append(fact[-1] * k)
    return _ref_series(
        h, lambda k: (a if k % 2 == 0 else b) * F(1 if k % 4 < 2 else -1, fact[k]), (0, 1))


def _ref_sin(x):
    sin_s, cos_s = approx.sin_cos_approx(x.coefficient(0), x.precision)
    return _ref_trig(x, sin_s, cos_s)


def _ref_cos(x):
    sin_s, cos_s = approx.sin_cos_approx(x.coefficient(0), x.precision)
    return _ref_trig(x, cos_s, -sin_s)


def _ref_tan(x):
    t = approx.tan_approx(x.coefficient(0), x.precision)
    return _ref_mul(_ref_trig(x, t, F(1)), _ref_inv(_ref_trig(x, F(1), -t)))


def _ref_real_power(x, r):
    u, lam, a = _ref_tail(x)
    head = (F(lam) * r, approx.pow_approx(a, r, x.precision))
    return _ref_series(u, lambda k: _binom(r, k) / a**k, head)


def _grid_series(limited=False, coefficients=coeffs):
    exps = [F(k, d) for d in (1, 2, 3) for k in range(0 if limited else -4, 10)]
    # integral exponents are given as Fraction or int at random
    exponent = st_.sampled_from(exps).flatmap(
        lambda e: st_.sampled_from([e, int(e)] if e.denominator == 1 else [e]))
    return st_.lists(st_.tuples(exponent, coefficients), max_size=4)


# coefficients whose denominators are large and pairwise coprime, so that the
# denominator one series shares over its terms grows with every operation:
# primes near 10^6, and 40-digit kernel constants, alone or over such a prime
PRIMES = [999953, 999959, 999961, 999979, 999983, 1000003, 1000033, 1000037, 1000039]
GRID_CONSTANTS = [approx.pi_approx(40), approx.exp_approx(F(1, 3), 40),
                  approx.ln_approx(F(2), 40), approx.sin_approx(F(1), 40)]
wide_coeffs = st_.one_of(
    coeffs,
    st_.builds(F, st_.integers(-10**6, 10**6).filter(bool), st_.sampled_from(PRIMES)),
    st_.builds(lambda c, p, sign: sign * c / p, st_.sampled_from(GRID_CONSTANTS),
               st_.sampled_from([1] + PRIMES), st_.sampled_from([1, -1])),
)
REAL_POWERS = st_.sampled_from([F(1, 2), F(-1, 3), F(5, 2), F(-7, 4)])


# certified orders: exact, or a truncation inside or past the exponent grid
ORDERS = st_.sampled_from([INF, F(-2), 0, F(1, 2), 1, F(7, 3), 4, 9, 12])


def _assert_canonical(v):
    assert all(type(c) is F and c for _, c in v.terms)
    assert all(type(e) is int or (type(e) is F and e.denominator != 1) for e, _ in v.terms)
    assert [e for e, _ in v.terms] == sorted({e for e, _ in v.terms})
    assert type(v.window) is int or v.window.denominator != 1
    assert parse_hyperreal(v.render(), v.window, v.precision) == v


def _same(got, want):
    _assert_canonical(got)
    assert got.terms == want.terms
    assert got.order == want.order
    assert got.saturated == want.saturated
    assert hash(got) == hash(want)


def _check_ring_ops(x, y):
    w = x.window
    _same(x + y, _ref_add(x, y))
    _same(x - y, _ref_add(x, HyperReal([(e, -c) for e, c in y.terms], w, 40, y.order)))
    _same(-x, HyperReal([(e, -c) for e, c in x.terms], w, 40, x.order))
    _same(x * y, _ref_mul(x, y))
    _same(x * 3 + 1, _ref_add(_ref_mul(x, HyperReal([(0, 3)], w, 40)), HyperReal([(0, 1)], w, 40)))
    _same(x**3, _ref_pow(x, 3))
    if not x.is_zero:
        _same(x.inv(), _ref_inv(x))
        _same(x**-2, _ref_pow(_ref_inv(x), 2))
        if x.terms[0][1] > 0:
            _same(x.nth_root(2), _ref_root(x, 2))
            _same(x.nth_root(3), _ref_root(x, 3))


def _check_trig_and_real_powers(x, r):
    if x.terms and x.terms[0][1] > 0:
        _same(hr_pow(x, r), _ref_real_power(x, r))
    if x.order <= 0:  # the standard part is not certified
        for fn in (hr_sin, hr_cos, hr_tan):
            with pytest.raises(PrecisionExhausted):
                fn(x)
        return
    _same(hr_sin(x), _ref_sin(x))
    _same(hr_cos(x), _ref_cos(x))
    _same(hr_tan(x), _ref_tan(x))


class TestRepresentation:
    def test_integral_exponents_are_ints(self):
        x = HyperReal([(F(2), F(3)), (F(1, 2), 1), (0, F(1))])
        assert [type(e) for e, _ in x.terms] == [int, F, int]
        assert all(type(c) is F for _, c in x.terms)
        half = FLD.epsilon(F(1, 2))
        assert type((half * half).terms[0][0]) is int
        assert type((FLD.epsilon(F(3, 2)) + EPS).inv().terms[1][0]) is F

    def test_fraction_and_int_exponents_build_one_value(self):
        a = HyperReal([(F(2), F(3)), (F(-1), F(1, 7))])
        b = HyperReal([(2, 3), (-1, F(1, 7))])
        assert a == b and hash(a) == hash(b) and a.terms == b.terms
        assert HyperReal([(F(2), 1), (2, 1)]).terms == ((2, F(2)),)

    @settings(max_examples=150, deadline=None)
    @given(st_.sampled_from(WINDOWS), _grid_series(), _grid_series(), ORDERS, ORDERS)
    def test_ring_ops_match_naive_reference(self, w, xs, ys, nx, ny):
        _check_ring_ops(HyperReal(xs, w, 40, nx), HyperReal(ys, w, 40, ny))

    @settings(max_examples=100, deadline=None)
    @given(st_.sampled_from(WINDOWS), _grid_series(coefficients=wide_coeffs),
           _grid_series(coefficients=wide_coeffs), ORDERS, ORDERS)
    def test_ring_ops_on_wide_denominators(self, w, xs, ys, nx, ny):
        _check_ring_ops(HyperReal(xs, w, 40, nx), HyperReal(ys, w, 40, ny))

    @settings(max_examples=60, deadline=None)
    @given(st_.sampled_from(WINDOWS), _grid_series(limited=True), coeffs, ORDERS)
    def test_series_maps_match_naive_reference(self, w, xs, s, n):
        x = HyperReal(xs + [(0, s)], w, 40, n)
        if n <= 0:  # the standard part is not certified
            for fn in (hr_exp, hr_ln):
                with pytest.raises(PrecisionExhausted):
                    fn(x)
            return
        _same(hr_exp(x), _ref_exp(x))
        if x.coefficient(0) > 0:
            _same(hr_ln(x), _ref_ln(x))

    @settings(max_examples=60, deadline=None)
    @given(st_.sampled_from(WINDOWS), _grid_series(limited=True), coeffs, ORDERS, REAL_POWERS)
    def test_trig_and_real_powers_match_naive_reference(self, w, xs, s, n, r):
        _check_trig_and_real_powers(HyperReal(xs + [(0, s)], w, 40, n), r)

    @settings(max_examples=60, deadline=None)
    @given(st_.sampled_from(WINDOWS), _grid_series(limited=True, coefficients=wide_coeffs),
           wide_coeffs, ORDERS, REAL_POWERS)
    def test_series_maps_on_wide_denominators(self, w, xs, s, n, r):
        x = HyperReal(xs + [(0, s)], w, 40, n)
        _check_trig_and_real_powers(x, r)
        if n > 0:
            _same(hr_exp(x), _ref_exp(x))
            if x.coefficient(0) > 0:
                _same(hr_ln(x), _ref_ln(x))


# -- plain rational operands ------------------------------------------------------
#
# + - * / with an int or a Fraction act on the numerators without lifting the
# rational into a series; each result must be the one the lifted rational
# gives, value, configuration and certified order alike, or the same error.

SCALARS = [0, 1, -1, F(0), F(1), F(-1), 7, -12, F(-3, 7), F(22, 5), 10**30 + 1,
           *GRID_CONSTANTS, -GRID_CONSTANTS[0], F(GRID_CONSTANTS[1].numerator, PRIMES[0])]
SCALAR_OPS = {
    "x+q": lambda x, q: x + q, "q+x": lambda x, q: q + x,
    "x-q": lambda x, q: x - q, "q-x": lambda x, q: q - x,
    "x*q": lambda x, q: x * q, "q*x": lambda x, q: q * x,
    "x/q": lambda x, q: x / q, "q/x": lambda x, q: q / x,
}


def _scalar_outcome(op, x, q):
    try:
        v = op(x, q)
    except Exception as ex:  # noqa: BLE001 - any difference counts
        return type(ex), str(ex)
    assert type(v) is HyperReal
    return v._nums, v._den, v.window, v.precision, v.order


def _check_scalar_ops(x):
    for q in SCALARS:
        lifted = HyperReal([(0, q)], x.window, x.precision)
        for name, op in SCALAR_OPS.items():
            got, want = _scalar_outcome(op, x, q), _scalar_outcome(op, x, lifted)
            assert got == want, (name, x, x.order, q)


class TestDilation:
    """x._dilated(j, q) sends each term c*eps^e to j^(e/q)*c*eps^e."""

    @staticmethod
    def parts(x: HyperReal):
        return x._nums, x._den, x.window, x.precision, x.order

    @pytest.mark.parametrize("q", [1, -1, F(1, 2), F(-3, 2)])
    @pytest.mark.parametrize("j", [-3, -1, 2, 5])
    def test_terms_scale_by_powers_of_j(self, j, q):
        # exponents -3q .. q: an odd negative power of a negative j would
        # leave the shared denominator negative
        terms = [(k * q, F(k + 5, 7 - k)) for k in range(-3, 2)]
        order = max(e for e, _ in terms) + F(1, 3)
        x = HyperReal(terms, F(17, 2), 12, order)
        got = x._dilated(j, q)
        want = HyperReal([(e, c * F(j) ** int(e / F(q))) for e, c in terms], F(17, 2), 12, order)
        assert self.parts(got) == self.parts(want)
        assert got._den > 0

    def test_is_a_ring_map(self):
        x = HyperReal([(-1, F(2, 3)), (0, 1), (2, F(-5, 4))], 6, 12)
        y = HyperReal([(1, F(3)), (3, F(1, 9))], 6, 12)
        for j in (-2, 3):
            xj, yj = x._dilated(j, 1), y._dilated(j, 1)
            assert self.parts((x * y)._dilated(j, 1)) == self.parts(xj * yj)
            assert self.parts((x - y)._dilated(j, 1)) == self.parts(xj - yj)
            assert self.parts(x.inv()._dilated(j, 1)) == self.parts(xj.inv())

    def test_off_the_lattice(self):
        with pytest.raises(ValueError, match="off the lattice"):
            (FLD.one() + FLD.epsilon(F(1, 2)))._dilated(2, 1)


class TestScalarOperands:
    def test_named_series(self):
        for w in WINDOWS + [F(1), 2]:
            for terms, order in [
                ([], INF),  # exact 0
                ([], F(3, 2)),  # empty saturated: O(eps^(3/2))
                ([], F(-1)),
                ([(0, F(5, 3)), (1, -2), (3, F(1, 7))], INF),
                ([(0, F(5, 3)), (1, -2)], 2),  # saturated
                ([(F(1, 2), 3), (F(4, 3), F(-1, 9))], INF),  # fractional exponents
                ([(-2, F(7, 4)), (-1, 1), (0, F(-1, 2))], INF),  # infinite lead
                ([(-1, 1), (F(1, 3), -4)], F(5, 2)),
                ([(0, -1), (2, approx.pi_approx(40))], 4),
            ]:
                _check_scalar_ops(HyperReal(terms, w, 40, order))

    @settings(max_examples=150, deadline=None)
    @given(st_.sampled_from(WINDOWS), _grid_series(coefficients=wide_coeffs), ORDERS,
           st_.sampled_from([12, 40]))
    def test_seeded_series(self, w, xs, n, precision):
        _check_scalar_ops(HyperReal(xs, w, precision, n))

    def test_window_cap_of_a_sum(self):
        # 1 + (eps + eps^2) at window 2 leads at 0, so eps^2 falls at the cap
        x = HyperReal([(1, 1), (2, 1)], 2)
        for got in (x + 1, 1 + x, x - F(-1), x + F(1)):
            assert got.terms == ((0, F(1)), (1, F(1)))
            assert got.order == 2

    def test_zero_factor_and_divisor(self):
        x = HyperReal([(0, 1)], 16, 40, F(1, 2))
        assert (x * 0).order == INF and (x * 0).is_zero and (0 * x).order == INF
        with pytest.raises(DivisionByZero, match="reciprocal of the zero element"):
            x / F(0)


# -- integer powers ----------------------------------------------------------------
#
# square and multiply starts from the first factor, not from the exact 1; each
# power must be the left-folded product of its factors, numerators, shared
# denominator, configuration and certified order alike.

def _layout(x):
    return x._nums, x._den, x.window, x.precision, x.order


class TestIntegerPowers:
    def test_power_equals_left_folded_product(self, rng):
        grid = [F(k, d) for d in (1, 2, 3) for k in range(-2, 7)]
        orders = [INF, INF, 0, F(1, 2), 1, F(7, 3), 4, 9]
        kinds = set()
        for _ in range(250):
            exps = rng.sample(grid, rng.randint(0, 4))
            order = rng.choice(orders)
            x = HyperReal([(e, rand_fraction(rng, -9, 9)) for e in exps],
                          rng.choice(WINDOWS), rng.choice([12, 40]), order)
            kinds.add((x.saturated, any(type(e) is F for e in x.exponents())))
            folded = HyperReal([(0, 1)], x.window, x.precision)
            for n in range(12):
                assert _layout(x**n) == _layout(folded), (x, x.order, n)
                folded = x if n == 0 else folded * x
        assert kinds == {(s, f) for s in (False, True) for f in (False, True)}
