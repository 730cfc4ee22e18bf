"""Constant approximation kernel: accuracy, exactness, determinism."""

import random
from decimal import ROUND_FLOOR, ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction as F
from math import isqrt

import pytest
from conftest import decimal_pi, decimal_sin_cos
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hrw import approx
from hrw.errors import ApproxOverflow, DivisionByZero, DomainError
from hrw.rationals import round_to_digits

# 50-digit references, checked far beyond the 40-digit working precision
PI = F("3.14159265358979323846264338327950288419716939937511")
E = F("2.71828182845904523536028747135266249775724709369996")
LN2 = F("0.69314718055994530941723212145817656807550013436026")
SIN1 = F("0.84147098480789650665250232163029899962256306079837")
COS1 = F("0.54030230586813971740093660744297660373231042061792")
SQRT2 = F("1.41421356237309504880168872420969807856967187537694")

TOL = F(1, 10**40)


def test_pi():
    assert abs(approx.pi_approx(40) - PI) < TOL


def test_exp_one():
    assert abs(approx.exp_approx(F(1), 40) - E) < TOL


def test_ln_two():
    assert abs(approx.ln_approx(F(2), 40) - LN2) < TOL


def test_sin_cos_one():
    assert abs(approx.sin_approx(F(1), 40) - SIN1) < TOL
    assert abs(approx.cos_approx(F(1), 40) - COS1) < TOL


def test_sqrt_two():
    assert abs(approx.sqrt_approx(F(2), 40) - SQRT2) < TOL


def test_pythagorean_identity_residual():
    s = approx.sin_approx(F(7, 3), 40)
    c = approx.cos_approx(F(7, 3), 40)
    assert abs(s * s + c * c - 1) < 4 * TOL


def test_angle_reduction():
    # sin stays accurate for arguments far beyond one period
    sin100 = F("-0.50636564110975879365655761045978543206503272129066")
    assert abs(approx.sin_approx(F(100), 40) - sin100) < 10 * TOL


def test_tan_agrees_with_ratio():
    t = approx.tan_approx(F(1), 40)
    assert abs(t - SIN1 / COS1) < 4 * TOL


def test_tan_near_pole_rejected():
    half_pi = approx.pi_approx(60) / 2
    with pytest.raises(DomainError):
        approx.tan_approx(half_pi, 40)


def test_sin_cos_one_pass_is_bit_identical():
    rng = random.Random(31)
    args = [F(0), F(1), F(-7, 3), F(100), F(355, 113)]
    args += [F(rng.randint(-10**6, 10**6), rng.randint(1, 10**4)) for _ in range(60)]
    for x in args:
        for digits in (5, 12, 40):
            assert approx.sin_cos_approx(x, digits) == (
                approx.sin_approx(x, digits), approx.cos_approx(x, digits))


def test_exact_shortcuts():
    assert approx.sqrt_approx(F(4), 40) == 2
    assert approx.sqrt_approx(F(9, 16), 40) == F(3, 4)
    assert approx.nth_root_approx(F(8), 3, 40) == 2
    assert approx.pow_approx(F(9, 4), F(3, 2), 40) == F(27, 8)
    assert approx.sin_approx(F(0), 40) == 0
    assert approx.cos_approx(F(0), 40) == 1
    assert approx.ln_approx(F(1), 40) == 0
    assert approx.exp_approx(F(0), 40) == 1


def test_perfect_roots_past_the_power_guard_are_exact():
    # the root of a perfect power exists already: nothing past POWER_BITS is built
    big = F(2**100001 + 1, 3**63100)  # 200 010 bits, past the guard's 200 000
    assert approx.nth_root_approx(big**3, 3, 40) == big
    assert approx.pow_approx(big**3, F(1, 3), 40) == big


def test_sqrt_scale_coherence():
    # perfect-square denominators factor out, so scaled sums telescope exactly
    root5 = approx.sqrt_approx(F(5), 40)
    for m in (4, 64, 4096):
        assert approx.sqrt_approx(F(5, m * m), 40) == root5 / m


def test_exp_underflow_to_zero():
    assert approx.exp_approx(F(-1000), 40) == 0


def test_exp_overflow_guard():
    with pytest.raises(ApproxOverflow):
        approx.exp_approx(F(10**6), 40)
    with pytest.raises(ApproxOverflow, match=r"^power \(3/2\)\^\(2001/2\) exceeds magnitude cap$"):
        approx.pow_approx(F(3, 2), F(2001, 2), 40)


def test_huge_integer_power_reroutes():
    v = approx.pow_approx(F(1, 2), F(2**40), 40)
    assert v == 0  # underflows cleanly instead of materializing 2^-2^40


def test_integer_power_size_cap():
    # 3 takes 3 bits (numerator and denominator), so 3^66666 is just under the cap
    assert approx.int_pow(F(3), 66666, 40) == F(3) ** 66666
    with pytest.raises(ApproxOverflow, match=r"^power 3\^66667 exceeds magnitude cap$"):
        approx.int_pow(F(3), 66667, 40)
    assert approx.int_pow(F(3), -66667, 40) == 0
    assert approx.int_pow(F(0), 66667, 40) == 0
    with pytest.raises(DivisionByZero):
        approx.int_pow(F(0), -66667, 40)
    # powers of 0, 1 and -1 are trivial, so the cap never applies to them
    assert approx.int_pow(F(0), 10**12, 40) == 0
    assert approx.int_pow(F(-1), 10**12 + 1, 40) == -1
    assert approx.int_pow(F(1), -(10**12), 40) == 1


def test_pow_domain_errors():
    with pytest.raises(DivisionByZero):
        approx.pow_approx(F(0), F(-1), 40)
    with pytest.raises(DomainError):
        approx.pow_approx(F(-2), F(1, 2), 40)


def test_precision_parameter_scales():
    coarse = approx.pi_approx(5)
    assert abs(coarse - PI) < F(1, 10**5)
    assert coarse.denominator <= 10**5


def test_determinism_same_object():
    a = approx.sin_approx(F(7, 11), 40)
    b = approx.sin_approx(F(7, 11), 40)
    assert a == b


def test_caches_are_bounded():
    cached = [v for k, v in vars(approx).items() if not k.startswith("_") and hasattr(v, "cache_info")]
    assert {f.__name__ for f in cached} >= {"pi_approx", "exp_approx", "ln_approx",
                                            "sin_cos_approx", "tan_approx", "sqrt_approx",
                                            "pow_approx", "nth_root_approx"}
    assert all(f.cache_info().maxsize == approx.CACHE_SIZE for f in cached)
    approx.sin_cos_approx.cache_clear()
    for k in range(1, 10_001):
        approx.sin_cos_approx(F(k, 10_007), 5)
    assert approx.sin_cos_approx.cache_info().currsize <= approx.CACHE_SIZE
    approx.sin_cos_approx.cache_clear()


# -- agreement with stdlib decimal at 80 digits ------------------------------------------

D80 = 80
D80_TOL = F(1, 10**D80)


def _dec(q: F) -> Decimal:
    return Decimal(q.numerator) / Decimal(q.denominator)


def _args(seed: int, lo: int, hi: int, count: int = 40) -> list[F]:
    """Seeded rationals in [lo, hi] with denominators up to 10^6."""
    rng = random.Random(seed)
    dens = [rng.randint(1, 10**6) for _ in range(count)]
    return [F(rng.randint(lo * d, hi * d), d) for d in dens]


def _decimal_taylor(x: F, prec: int = 140) -> tuple[Decimal, Decimal]:
    """(sin x, cos x) from the unreduced Taylor series, at prec significant digits."""
    with localcontext() as ctx:
        ctx.prec = prec
        y = _dec(x)
        term, k, s, c = Decimal(1), 0, Decimal(0), Decimal(0)
        while k < 40 or abs(term) > Decimal(10) ** (10 - prec):
            if k % 4 == 0:
                c += term
            elif k % 4 == 1:
                s += term
            elif k % 4 == 2:
                c -= term
            else:
                s -= term
            k += 1
            term = term * y / k
        return s, c


def test_exp_matches_decimal():
    xs = _args(1, -30, 30)
    assert any(x < 0 for x in xs) and any(abs(x) > 4 for x in xs)  # halvings, both signs
    xs += [F(1, 3), F(-1, 7), F(1, 2)]
    for x in xs:
        with localcontext() as ctx:
            ctx.prec = 120
            ref = F(_dec(x).exp())
        assert abs(approx.exp_approx(x, D80) - ref) < D80_TOL, x


def test_ln_matches_decimal():
    xs = [q for q in _args(2, 0, 2) + _args(6, 0, 1000) if q > 0] + [F(1, 10**30), F(10**40 + 1)]
    assert any(q < F(3, 4) for q in xs) and any(q > F(3, 2) for q in xs)  # e2 < 0 and e2 > 0
    assert any(F(3, 4) <= q <= F(3, 2) for q in xs)  # e2 = 0
    for x in xs:
        with localcontext() as ctx:
            ctx.prec = 120
            ref = F(_dec(x).ln())
        assert abs(approx.ln_approx(x, D80) - ref) < D80_TOL, x


def test_pow_and_root_match_decimal():
    rng = random.Random(3)
    for _ in range(30):
        x = F(rng.randint(1, 50 * 10**4), rng.randint(1, 10**4))
        r = F(rng.randint(-25, 25), rng.randint(2, 7))
        n = rng.randint(3, 9)
        with localcontext() as ctx:
            ctx.prec = 130
            ln_x = _dec(x).ln()
            ref_pow = F((_dec(r) * ln_x).exp())
            ref_root = F((ln_x / n).exp())
        assert abs(approx.pow_approx(x, r, D80) - ref_pow) < D80_TOL, (x, r)
        assert abs(approx.nth_root_approx(x, n, D80) - ref_root) < D80_TOL, (x, n)


def test_sin_cos_match_decimal_taylor():
    xs = _args(4, -40, 40)
    assert any(x < 0 for x in xs) and any(abs(x) > 4 for x in xs)  # reduced, both signs
    assert any(abs(x) <= 4 for x in _args(5, -4, 4))
    for x in xs + _args(5, -4, 4):
        s, c = _decimal_taylor(x)
        assert abs(approx.sin_approx(x, D80) - F(s)) < D80_TOL, x
        assert abs(approx.cos_approx(x, D80) - F(c)) < D80_TOL, x


def test_tan_near_poles_matches_decimal():
    # the error of s/c grows as 1/cos^2: both sides of pi/2, and 3pi/2
    half_pi = approx.pi_approx(150) / 2
    xs = [half_pi - F(1, 10**9), half_pi - F(1, 10**19), half_pi + F(1, 10**30),
          3 * half_pi + F(1, 10**12), F(157, 100), F(-157, 100), F(11, 7)]
    computed = refused = 0
    for digits in (4, 20, 40, 80):
        for x in xs:
            s, c = _decimal_taylor(x, 260)
            if abs(c) < Decimal(10) ** -digits:
                refused += 1
                with pytest.raises(DomainError):
                    approx.tan_approx(x, digits)
            else:
                computed += 1
                assert abs(approx.tan_approx(x, digits) - F(s) / F(c)) < F(1, 10**digits), (x, digits)
    assert (computed, refused) == (23, 5)
    assert approx.tan_approx(F(157, 100), 4) == F("1255.7656")


# -- the edges of the range reductions, against decimal ----------------------------------

EDGE_DIGITS = (12, 40)
NUDGE = F(1, 10**6)


def _decimal(method: str, x: F, prec: int = 200) -> F:
    with localcontext() as ctx:
        ctx.prec = prec
        return F(getattr(_dec(x), method)())


@pytest.mark.parametrize("digits", EDGE_DIGITS)
def test_ln_at_the_reduction_edges(digits):
    # x = 2^e2 * t reaches t = 3/2 from above and t = 3/4 from below; a power
    # of 2 read off bit lengths can land on the other end of [3/4, 3/2]
    xs = [3 * F(2) ** j for j in range(-12, 13)] + [F(3, 4), F(3, 2)]
    xs += [x * (1 + s * NUDGE) for x in xs for s in (1, -1)]
    for x in xs:
        assert abs(approx.ln_approx(x, digits) - _decimal("ln", x)) < F(1, 10**digits), x


@pytest.mark.parametrize("digits", EDGE_DIGITS)
def test_exp_at_the_underflow_edge_and_the_cap(digits):
    edge = F(-3 * (digits + 2))  # at and below it exp returns exact 0
    for x in (edge - NUDGE, edge, edge + NUDGE, F(-1, 2) - NUDGE, F(1, 2) + NUDGE,
              F(300) - NUDGE, F(300)):
        assert abs(approx.exp_approx(x, digits) - _decimal("exp", x)) < F(1, 10**digits), x
    assert approx.exp_approx(edge, digits) == 0
    with pytest.raises(ApproxOverflow, match=r"^exp argument 300000001/1000000 exceeds magnitude cap$"):
        approx.exp_approx(F(300) + NUDGE, digits)


def _grid_point(v: Decimal, digits: int) -> F:
    """v rounded to the 10^-digits grid, ties to even."""
    with localcontext() as ctx:
        ctx.prec = digits + 60
        return F(int(v.scaleb(digits).to_integral_value(ROUND_HALF_EVEN)), 10**digits)


def _sin_cos_tan(x: F, digits: int) -> tuple[F, F, F]:
    """sin, cos and tan of x correctly rounded to 10^-digits, from decimal."""
    s, c = decimal_sin_cos(x, digits)
    with localcontext() as ctx:
        ctx.prec = digits + 40
        t = s / c
    return _grid_point(s, digits), _grid_point(c, digits), _grid_point(t, digits)


@pytest.mark.parametrize("digits", (12, 40, 80))
def test_sin_cos_where_the_reduction_starts(digits):
    # correctly rounded where a reduction starts or turns: at 4, past which
    # 2pi is taken off; at the table's nodes j/32; halfway between two nodes,
    # where the nearest node changes; and far out, where 2pi is taken off
    # up to 10^8/(2pi) times
    xs = [F(4) + s * NUDGE for s in (0, 1, -1)]
    xs += [F(j, 32) for j in range(1, 129)]
    xs += [F(2 * j + 1, 64) + s * F(1, 10**9) for j in range(128) for s in (1, -1)]
    xs += [F(10**k) + F(1, 7) for k in range(1, 8)] + [F(10**8), F(355 * 10**6, 113)]
    for x in xs + [-x for x in xs]:
        s, c, t = _sin_cos_tan(x, digits)
        assert approx.sin_cos_approx(x, digits) == (s, c), x
        assert approx.tan_approx(x, digits) == t, x


def test_sin_cos_table_is_bounded(monkeypatch):
    # each table and constant is cleared once it holds CACHE_SIZE entries,
    # like the other kernel caches, and filled with what a call needs only
    tables = {name: {(-1, j): (0,) for j in range(approx.CACHE_SIZE)}
              for name in ("_SIN_COS", "_EXP", "_LN", "_PI")}
    for name, full in tables.items():
        monkeypatch.setattr(approx, name, full)
    p = approx._bits(40 + approx._GUARD)
    assert approx.sin_cos_grid(1, 3, 40) == approx.sin_cos_grid(2, 6, 40)
    assert list(tables["_SIN_COS"]) == [(p, 11)]  # 1/3 is nearest 11/32
    approx.sin_cos_grid(9, 2, 40)  # 9/2 - 2pi = -1.78..., nearest 57/32, at 3 more bits
    assert list(tables["_PI"]) == [(p + 4, 0)]  # pi at p + 4 bits is 2pi at p + 3
    assert list(tables["_SIN_COS"]) == [(p, 11), (p + 3, 57)]
    approx.exp_grid(2, 1, 40)  # 2 = 3 ln 2 - 3/32 - 0.017..., at 3 more bits
    assert list(tables["_EXP"]) == [(p + 3, -3)]
    assert list(tables["_LN"]) == [(p + 3, 64)]  # ln 2 is ln c_64
    approx.ln_grid(5, 4, 40)  # 5/4 is c_16
    assert list(tables["_LN"]) == [(p + 3, 64), (p, 16)]
    assert approx.pi_approx(60) == approx.pi_approx.__wrapped__(60)
    assert len(tables["_PI"]) == 2 and len(tables["_EXP"]) == 1


@pytest.mark.parametrize("p", (40, 173, 400))
def test_table_entries_are_within_half_a_unit(p):
    # every table entry and constant, summed at p + 32 bits and rounded
    # once, is within 1/2 + 2^-20 units of its value times 2^p, against
    # decimal: sin and cos of j/32, e^(j/32), ln(1 + j/64) and pi
    def check(entry: int, v: Decimal, j: int) -> None:
        assert abs(entry - v * 2**p) <= Decimal(1) / 2 + Decimal(2) ** -20, (j, entry, v)

    with localcontext() as ctx:
        ctx.prec = 200
        for j in range(129):
            s, c = decimal_sin_cos(F(j, 32), 140)
            entry = approx._entry({}, approx._sin_cos_node, j, p)
            check(entry[0], s, j)
            check(entry[1], c, j)
        for j in range(-11, 12):
            check(*approx._entry({}, approx._exp_node, j, p), (Decimal(j) / 32).exp(), j)
        for j in list(range(-16, 33)) + [64]:
            check(*approx._entry({}, approx._ln_node, j, p), (1 + Decimal(j) / 64).ln(), j)
        check(*approx._entry({}, approx._machin, 0, p), decimal_pi(150), 0)


def test_series_run_on_short_arguments(monkeypatch):
    # the reductions leave exp's and sin's delta within 1/64 of a node j/32
    # and ln's u within 1/190: the series' terms shrink by 2^6 and 190^2
    rng = random.Random(64)
    args = {
        "exp": [F(rng.randint(-60 * d, 60 * d), d) for d in (rng.randint(1, 10**9) for _ in range(300))],
        "sin_cos": [F(rng.randint(-100 * d, 100 * d), d) for d in (rng.randint(1, 10**9) for _ in range(300))],
        "ln": [F(rng.randint(1, 10**12), rng.randint(1, 10**12)) for _ in range(300)],
    }
    args["exp"] += [F(j, 64) for j in range(-64, 65)]
    args["ln"] += [F(64 + j, 64) + F(k, 128 * 64) for j in range(-16, 33) for k in (-1, 1)]
    kernels = {"exp": approx.exp_grid, "sin_cos": approx.sin_cos_grid, "ln": approx.ln_grid}
    for name, xs in args.items():  # fill the tables, whose entries sum at longer arguments
        for x in xs:
            kernels[name](x.numerator, x.denominator, 40)
    seen = []
    for series in ("_taylor", "_odd"):
        fn = getattr(approx, series)
        monkeypatch.setattr(approx, series, lambda x, p, fn=fn: seen.append((x, p)) or fn(x, p))
    for name, xs in args.items():
        seen.clear()
        for x in xs:
            kernels[name](x.numerator, x.denominator, 40)
        if name == "ln":
            assert all(190 * x <= 1 << p for x, p in seen)
        else:
            assert all(x <= 1 << (p - 6) for x, p in seen)
        assert max(F(x, 1 << p) for x, p in seen) > F(1, 80 if name != "ln" else 210)


def _next_to_a_midpoint(x: F, digits: int) -> F:
    """A point a near x where sin a is a midpoint of the 10^-digits grid,
    within 10^-60: the midpoint nearest sin x, by Newton's method in decimal."""
    s, _ = decimal_sin_cos(x, 60)
    with localcontext() as ctx:
        ctx.prec = 100
        m = F(int(s.scaleb(digits).to_integral_value(ROUND_FLOOR)) * 2 + 1, 2 * 10**digits)
        for _ in range(3):
            s, c = decimal_sin_cos(x, 60)
            x -= (F(s) - m) / F(c)
            x = F(round(x * 2**260), 2**260)
    return x


def test_sin_far_out_next_to_a_midpoint():
    # 2pi is taken off k times, and each time its rounding error too: at
    # sin x = midpoint + 2^-90, 10^5 to 10^8 turns out, that error crosses
    # the midpoint unless the Ziv bound counts it
    digits = 12
    for turns in (10**5 + 3, 10**6 + 7, 10**7 + 1, 10**8 + 9):
        two_pi = F(2 * decimal_pi(60))
        a = _next_to_a_midpoint(turns * two_pi + F(1, 3), digits)
        c = F(decimal_sin_cos(a, 60)[1])
        for side in (1, -1):
            x = a + side * F(1, 2**90) / c  # sin x = midpoint + side 2^-90
            s, _ = decimal_sin_cos(x, digits)
            want = _grid_point(s, digits)
            assert approx.sin_cos_grid(x.numerator, x.denominator, digits)[0] == want * 10**digits, x


def test_pi_is_correctly_rounded():
    # at every precision to 300 digits and at 500, 1 000 and 2 000, against
    # the Gauss-Legendre iteration in decimal
    ref = decimal_pi(2100)
    for digits in list(range(1, 301)) + [500, 1000, 2000]:
        assert approx.pi_approx(digits) == _grid_point(ref, digits), digits


def _exp_ln(name: str, x: F, digits: int) -> F:
    """exp or ln of x correctly rounded to 10^-digits, from decimal."""
    with localcontext() as ctx:
        ctx.prec = 3 * digits + 200
        return _grid_point(getattr(_dec(x), name)(), digits)


@pytest.mark.parametrize("digits", (12, 40, 80))
def test_ziv_retry_fires_and_rounds_correctly(monkeypatch, digits):
    # with 3 guard digits the error bound of a value often holds a grid
    # midpoint: the kernel sums again with more bits, and every result is
    # still the nearest grid point
    failed, nearest = [], approx._nearest
    monkeypatch.setattr(approx, "_nearest",
                        lambda v, e, bits: failed.append(v) if (out := nearest(v, e, bits)) is None
                        else out)
    monkeypatch.setattr(approx, "_GUARD", 3)
    rng = random.Random(digits)
    xs = []
    for _ in range(120):
        d, bound = rng.randint(1, 10**9), rng.choice([4, 100])
        xs.append(F(rng.randint(-bound * d, bound * d), d))
    positive = [F(rng.randint(1, 10 ** rng.randint(1, 12)), rng.randint(1, 10 ** rng.randint(0, 12)))
                for _ in range(120)]
    retried = dict.fromkeys(("sin", "cos", "tan", "exp", "ln"), 0)
    approx.sin_cos_approx.cache_clear()
    approx.tan_approx.cache_clear()
    approx.exp_approx.cache_clear()
    approx.ln_approx.cache_clear()
    try:
        for x, y in zip(xs, positive):
            s, c, t = _sin_cos_tan(x, digits)
            z = x / 4  # up to e^25
            for name, fn, arg, want in (
                ("sin", approx.sin_approx, x, s), ("cos", approx.cos_approx, x + 1, None),
                ("tan", approx.tan_approx, x, t), ("exp", approx.exp_approx, z, None),
                ("ln", approx.ln_approx, y, None),
            ):
                if want is None:
                    want = (_sin_cos_tan(arg, digits)[1] if name == "cos"
                            else _exp_ln(name, arg, digits))
                failed.clear()
                assert fn(arg, digits) == want, (name, arg)
                retried[name] += bool(failed)
    finally:
        for cached in (approx.sin_cos_approx, approx.tan_approx, approx.exp_approx, approx.ln_approx):
            cached.cache_clear()
    # each kernel retried, and not on every call: its first pass's rounding counts too
    assert all(0 < r < len(xs) for r in retried.values()), retried


def test_digits_of_is_exact_past_the_int_to_str_limit():
    # counted from the bit length, not str, which refuses past 4 300 digits
    for k in (1, 2, 3, 9, 10, 99, 100, 4299, 4300, 4301, 10**4, 3 * 10**4):
        assert approx._digits_of(10**k) == k + 1
        assert approx._digits_of(10**k - 1) == k
        assert approx._digits_of(-(10**k) - 1) == k + 1
    rng = random.Random(7)
    for n in [0, 1, -1, 7, -9] + [rng.randint(-(2**b), 2**b) for b in range(1, 4000, 7)]:
        assert approx._digits_of(n) == len(str(abs(n))), n


@pytest.mark.parametrize("digits", EDGE_DIGITS)
def test_sqrt_with_one_square_part(digits):
    # only the numerator a square (a large one too), or only the denominator
    for m in (2, 150, 10**4, 10**8):
        for v in (3, 7, 149, 10**6 + 3):
            for x in (F(m * m, v), F(v, m * m)):
                assert abs(approx.sqrt_approx(x, digits) - _decimal("sqrt", x)) < F(1, 10**digits), x


@pytest.mark.parametrize("digits", (4, 12, 40))
def test_tan_next_to_the_pole_refusal(digits):
    # refused where |cos x| < 10^-max(2, digits): 9/10 of that refuses, 11/10 computes
    half_pi = approx.pi_approx(200) / 2
    limit = F(1, 10 ** max(2, digits))
    refused = 0
    for pole in (half_pi, -half_pi, 3 * half_pi):
        for side in (1, -1):
            for f in (F(9, 10), F(11, 10)):
                x = pole + side * f * limit
                s, c = _decimal_taylor(x, 260)
                if abs(F(c)) < limit:
                    refused += 1
                    with pytest.raises(DomainError, match=r"^tan undefined near .*: cos too close to 0$"):
                        approx.tan_approx(x, digits)
                else:
                    assert abs(approx.tan_approx(x, digits) - F(s) / F(c)) < F(1, 10**digits), x
    assert refused == 6


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.fractions(max_denominator=10**50),
        # exact ties at the rounding grid, of both signs
        st.builds(lambda k, d: F(2 * k + 1, 2 * 10**d), st.integers(-10**6, 10**6),
                  st.integers(0, 44)),
    ),
    st.integers(0, 60),
)
@example(F(5, 2), 0)
@example(F(-5, 2), 0)
@example(F(-7, 2), 0)
@example(F(1, 20), 1)
@example(F(-3, 20), 1)
def test_round_to_digits_matches_fraction_round(x, digits):
    assert round_to_digits(x, digits) == F(round(x * 10**digits), 10**digits)


# -- the integer kernels under the cached Fraction functions ---------------------------

KERNEL_DIGITS = (12, 20, 40)


def sin_half(n: int, d: int, digits: int) -> int:
    return approx.sin_cos_grid(n, d, digits)[0]


def cos_half(n: int, d: int, digits: int) -> int:
    return approx.sin_cos_grid(n, d, digits)[1]


# each grid kernel, or half of sin_cos_grid's pair, and its cached Fraction function
GRID_KERNELS = [
    (sin_half, approx.sin_approx),
    (cos_half, approx.cos_approx),
    (approx.tan_grid, approx.tan_approx),
    (approx.exp_grid, approx.exp_approx),
    (approx.ln_grid, approx.ln_approx),
]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as ex:  # noqa: BLE001 - the type and text are compared
        return type(ex), str(ex)


def _kernel_args(seed: int) -> list[F]:
    """Seeded arguments of both signs, past 4 and past the exp cap too."""
    rng = random.Random(seed)
    xs = [F(0), F(1), F(-1), F(1, 2), F(-7, 3), F(100), F(355, 113), F(300), F(301)]
    xs += [F(rng.randint(-10**6, 10**6), rng.randint(1, 10**4)) for _ in range(12)]
    xs += [F(rng.randint(1, 10**9), rng.randint(1, 10**6)) for _ in range(8)]
    return xs


@pytest.mark.parametrize("digits", KERNEL_DIGITS)
def test_grid_kernels_equal_the_cached_functions(digits):
    # (k n, k d) for k = 1..6: one grid numerator over 10^digits, the cached
    # Fraction function's value, and the same error where that refuses
    unit = 10**digits
    for x in _kernel_args(digits):
        for kernel, cached in GRID_KERNELS:
            want = _outcome(cached, x, digits)
            got = {_outcome(kernel, k * x.numerator, k * x.denominator, digits) for k in range(1, 7)}
            assert len(got) == 1, (kernel.__name__, x)
            got = got.pop()
            if isinstance(want, F):
                assert isinstance(got, int) and F(got, unit) == want, (kernel.__name__, x)
            else:
                assert got == want, (kernel.__name__, x)
        pairs = {approx.sin_cos_grid(k * x.numerator, k * x.denominator, digits) for k in range(1, 7)}
        assert len(pairs) == 1, x
        s, c = pairs.pop()
        assert (F(s, unit), F(c, unit)) == approx.sin_cos_approx(x, digits), x


@pytest.mark.parametrize("digits", KERNEL_DIGITS)
def test_sqrt_pair_equals_the_cached_function(digits):
    # the pair itself does not depend on k: its exact roots and sqrt(v/m^2)
    # keep their own denominators, every other value is over 10^digits
    xs = [abs(x) for x in _kernel_args(100 + digits)]
    xs += [F(9, 16), F(5, 64), F(64, 5), F(10**8 + 3, 4), F(4, 10**6 + 3), F(2)]
    for x in xs:
        got = {approx.sqrt_pair(k * x.numerator, k * x.denominator, digits) for k in range(1, 7)}
        assert len(got) == 1, x
        n, d = got.pop()
        assert F(n, d) == approx.sqrt_approx(x, digits), x
        root, den_root = approx.exact_nth_root(x, 2), isqrt(x.denominator)
        if root is not None:
            assert (n, d) == (root.numerator, root.denominator), x
        elif den_root**2 == x.denominator:
            assert d == 10**digits * den_root, x
        else:
            assert d == 10**digits, x


@pytest.mark.parametrize("digits", KERNEL_DIGITS)
def test_kernel_exact_cases(digits):
    unit = 10**digits
    for k in range(1, 7):
        assert approx.sin_cos_grid(0, k, digits) == (0, unit)
        assert approx.tan_grid(0, k, digits) == 0
        assert approx.exp_grid(0, k, digits) == unit
        assert approx.ln_grid(k, k, digits) == 0
        assert approx.sqrt_pair(0, k, digits) == (0, 1)
        assert approx.sqrt_pair(9 * k, 16 * k, digits) == (3, 4)
        # sqrt(v/m^2) = sqrt~(v)/m, and sqrt(m^2/v) = m/sqrt~(v) rounded
        root5 = approx.sqrt_pair(5, 1, digits)
        assert root5[1] == unit
        assert approx.sqrt_pair(5 * k, 64 * k, digits) == (root5[0], 8 * unit)
        n, d = approx.sqrt_pair(64 * k, 5 * k, digits)
        assert d == unit and abs(F(n, d) - 8 / F(root5[0], unit)) < F(1, unit)


def test_kernel_errors_name_the_reduced_value():
    with pytest.raises(DomainError, match=r"^ln of non-positive value -3/2$"):
        approx.ln_grid(-6, 4, 40)
    with pytest.raises(DomainError, match=r"^ln of non-positive value 0$"):
        approx.ln_grid(0, 4, 40)
    with pytest.raises(DomainError, match=r"^sqrt of negative value -3/2$"):
        approx.sqrt_pair(-6, 4, 40)
    with pytest.raises(ApproxOverflow, match=r"^exp argument 601/2 exceeds magnitude cap$"):
        approx.exp_grid(1803, 6, 40)
    assert approx.exp_grid(1800, 6, 12) == approx.exp_grid(300, 1, 12)  # the cap itself passes
    half_pi = approx.pi_approx(60) / 2
    n, d = half_pi.numerator, half_pi.denominator
    for digits in KERNEL_DIGITS:
        with pytest.raises(DomainError, match=rf"^tan undefined near {n}/{d}: cos too close to 0$"):
            approx.tan_grid(3 * n, 3 * d, digits)
