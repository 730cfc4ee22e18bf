"""partition-poly: partition sums of polynomial and rational integrands.

Riemann sums under all four tag rules (1-D and 2-D), Darboux bounds,
Riemann-Stieltjes sums, gauge-fine partitions and gauge sums in both modes,
and inner sums, mass/first moments and moments over disc, ellipse and annulus
regions.  No integrand or region calls a transcendental function, so the
work is compiled rational evaluation (``hrw.exprs``) and the partition loops
(``hrw.integration``); ``hrw.field`` and ``hrw.approx`` are bypassed.

Every round draws fresh intervals, coefficients and sizes from
``(seed, round)``; the round's make-up (kinds, counts, size ranges) is fixed.
"""

from __future__ import annotations

from fractions import Fraction

import gen
import oracle
from common import Op, mismatch

NAME = "partition-poly"

MIX = (
    ("riemann-1d", 16),  # four per tag rule
    ("riemann-rational", 8),
    ("riemann-2d", 8),
    ("darboux", 6),
    ("stieltjes", 6),
    ("gauge-partition", 4),  # two per mode
    ("gauge-sum", 4),
    ("inner-sum", 4),
    ("mass-com", 2),
    ("moment", 2),
)
RULES = ("min-vertex", "center", "corner-nearest-origin", "seeded-random")
MODES = ("tag-in-cell", "mcshane")


def _interval(rng):
    """[a, b] with a in [-1, 0] and b in [1/2, 2]: it holds the origin, so the
    corner-nearest-origin rule picks different corners on each side."""
    return gen.dec_coeff(rng, -1, 0, nonzero=False), gen.dec_coeff(rng, 0.5, 2)


def _left_right(p, a, b, m):
    return (oracle.riemann_closed_form(p, a, b, m, 0), oracle.riemann_closed_form(p, a, b, m, 1))


def _bracket(kind, got, lo, hi):
    return None if lo <= got <= hi else f"{kind}: {got} outside [{lo}, {hi}]"


def _riemann_1d(h, rng, i):
    """Increasing polynomial: min-vertex and center sums equal their Faulhaber
    closed forms; every rule lies between the left and right sums."""
    rule = RULES[i % 4]
    p = gen.increasing_poly(rng, Fraction(-1))
    a, b = _interval(rng)
    m = rng.randint(64, 160)
    f, rect, spec = h.parse(gen.text(p)), h.integration.Rect.interval(a, b), h.integration.PartitionSpec.simple(m)
    tag_seed = rng.getrandbits(32)
    c = list(p.c)

    def check(s):
        if rule in ("min-vertex", "center"):
            want = oracle.riemann_closed_form(c, a, b, m, 0 if rule == "min-vertex" else Fraction(1, 2))
            return None if s == want else mismatch(f"riemann {rule} {gen.text(p)} m={m}", s, want)
        return _bracket(f"riemann {rule}", s, *_left_right(c, a, b, m))

    return Op("riemann-1d", lambda: h.integration.riemann_sum(f, rect, spec, rule, tag_seed), check)


def _riemann_rational(h, rng, i):
    """k / (x + c), decreasing on [a, b]: the sum lies between the exact right
    and left sums, and equals the left sum under min-vertex."""
    rule = RULES[i % 4]
    a, b = _interval(rng)
    k, c = gen.dec_coeff(rng, 0.5, 3), gen.dec_coeff(rng, 1.5, 3)
    m = rng.randint(48, 96)
    text = f"{gen.lit(k)}/(x + {gen.lit(c)})"
    f, rect, spec = h.parse(text), h.integration.Rect.interval(a, b), h.integration.PartitionSpec.simple(m)
    tag_seed = rng.getrandbits(32)

    def check(s):
        step = (b - a) / m
        pts = [a + j * step for j in range(m + 1)]
        vals = [k / (x + c) for x in pts]
        upper = sum(vals[:-1]) * step
        lower = sum(vals[1:]) * step
        if rule == "min-vertex" and s != upper:
            return mismatch(f"riemann min-vertex {text}", s, upper)
        return _bracket(f"riemann {rule} {text}", s, lower, upper)

    return Op("riemann-rational", lambda: h.integration.riemann_sum(f, rect, spec, rule, tag_seed), check)


def _riemann_2d(h, rng, i):
    """p(x) q(y), both positive and increasing: the sum factorises, so
    min-vertex and center sums are products of Faulhaber forms."""
    rule = RULES[i % 4]
    (ax, bx), (ay, by) = _interval(rng), _interval(rng)
    p, q = gen.increasing_poly(rng, ax), gen.increasing_poly(rng, ay, var="y")
    mx, my = rng.randint(8, 14), rng.randint(8, 14)
    I = h.integration
    f = h.parse(f"{gen.text(p)}*{gen.text(q)}")
    rect, spec = I.Rect.box((ax, bx), (ay, by)), I.PartitionSpec.simple(mx, my)
    tag_seed = rng.getrandbits(32)
    cp, cq = list(p.c), list(q.c)

    def check(s):
        if rule in ("min-vertex", "center"):
            th = 0 if rule == "min-vertex" else Fraction(1, 2)
            want = (oracle.riemann_closed_form(cp, ax, bx, mx, th)
                    * oracle.riemann_closed_form(cq, ay, by, my, th))
            return None if s == want else mismatch(f"riemann-2d {rule}", s, want)
        (lp, up), (lq, uq) = _left_right(cp, ax, bx, mx), _left_right(cq, ay, by, my)
        return _bracket(f"riemann-2d {rule}", s, lp * lq, up * uq)

    return Op("riemann-2d", lambda: I.riemann_sum(f, rect, spec, rule, tag_seed), check)


def _darboux(h, rng, i):
    """Increasing polynomial: exact bounds are the left and right sums."""
    p = gen.increasing_poly(rng, Fraction(-1))
    a, b = _interval(rng)
    m = rng.randint(16, 32)
    f, rect, spec = h.parse(gen.text(p)), h.integration.Rect.interval(a, b), h.integration.PartitionSpec.simple(m)
    c = list(p.c)

    def check(res):
        lo, hi = _left_right(c, a, b, m)
        if (res.lower, res.upper, res.nonmonotone_cells) != (lo, hi, 0):
            return mismatch(f"darboux {gen.text(p)} m={m}", tuple(res), (lo, hi, 0))
        return None

    return Op("darboux", lambda: h.integration.darboux_bounds(f, rect, spec), check)


def _stieltjes(h, rng, i):
    """Increasing f and phi: sum f(tag) dphi lies between the sums at the
    left and right endpoints, and equals the left one under min-vertex."""
    rule = RULES[i % 4]
    a, b = _interval(rng)
    p, phi = gen.increasing_poly(rng, a), gen.increasing_poly(rng, a)
    m = rng.randint(48, 96)
    f, g, spec = h.parse(gen.text(p)), h.parse(gen.text(phi)), h.integration.PartitionSpec.simple(m)
    tag_seed = rng.getrandbits(32)
    cp, cphi = list(p.c), list(phi.c)

    def check(s):
        step = (b - a) / m
        pts = [a + j * step for j in range(m + 1)]
        fv = [oracle.poly_eval(cp, x) for x in pts]
        gv = [oracle.poly_eval(cphi, x) for x in pts]
        dphi = [gv[j + 1] - gv[j] for j in range(m)]
        lower = sum(fv[j] * dphi[j] for j in range(m))
        upper = sum(fv[j + 1] * dphi[j] for j in range(m))
        if rule == "min-vertex" and s != lower:
            return mismatch("stieltjes min-vertex", s, lower)
        return _bracket(f"stieltjes {rule}", s, lower, upper)

    return Op("stieltjes", lambda: h.integration.riemann_stieltjes_sum(f, g, a, b, spec, rule, tag_seed),
              check)


def _gauge(rng):
    """delta(x) = c0 + c1 x^2 with c0 in [1/48, 1/32]: positive everywhere."""
    c0 = Fraction(1, rng.randint(32, 48))
    c1 = Fraction(rng.randint(1, 8), 256)
    return (c0, Fraction(0), c1), f"{gen.lit(c0)} + {gen.lit(c1)}*x^2"


def _gauge_partition(h, rng, i):
    """Every cell sits in the delta-ball of its tag; the cells tile [a, b]."""
    mode = MODES[i % 2]
    a, b = _interval(rng)
    d, text = _gauge(rng)
    gauge = h.integration.Gauge(h.parse(text))

    def check(part):
        cells = [cell[0] for cell in part.cells]
        if cells[0][0] != a or cells[-1][1] != b or any(
                u1 != v0 for (_, v0), (u1, _) in zip(cells, cells[1:])):
            return f"gauge {mode}: cells do not tile [{a}, {b}]"
        if sum(v - u for u, v in cells) != b - a:
            return f"gauge {mode}: widths do not sum to b - a"
        for (u, v), (x,) in zip(cells, part.tags):
            r = oracle.poly_eval(list(d), x)
            if not (x - r <= u and v <= x + r):
                return f"gauge {mode}: cell [{u}, {v}] escapes the ball of tag {x}"
        return None

    return Op("gauge-partition", lambda: h.integration.cousin_partition(gauge, a, b, mode), check)


def _gauge_sum(h, rng, i):
    """|S - integral| <= M * delta_max * (b - a): each tag is within
    delta(tag) of every point of its cell, and M bounds |f'| there."""
    mode = MODES[i % 2]
    a, b = _interval(rng)
    d, text = _gauge(rng)
    p = gen.rand_poly(rng, rng.randint(2, 4))
    f, gauge = h.parse(gen.text(p)), h.integration.Gauge(h.parse(text))
    c = list(p.c)

    def check(s):
        R0 = max(abs(a), abs(b))
        dmax = oracle.poly_eval(list(d), R0)
        R = R0 + dmax
        M = sum(abs(k * ck) * R ** (k - 1) for k, ck in enumerate(c) if k)
        want = oracle.integral(c, a, b)
        return None if abs(s - want) <= M * dmax * (b - a) else mismatch(f"gauge_sum {mode}", s, want)

    return Op("gauge-sum", lambda: h.integration.gauge_sum(f, a, b, gauge, mode), check)


def _region(h, rng):
    """Disc, ellipse or annulus centred at the origin, in a bounding square of
    half-width w.  Returns (Region, area of its convex hull, w)."""
    I = h.integration
    kind = rng.randrange(3)
    if kind == 0:
        r = gen.dec_coeff(rng, 0.5, 1)
        text, hull = f"x^2 + y^2 - {gen.lit(r * r)}", oracle.pi() * oracle.dec(r * r)
        w = r
    elif kind == 1:  # b^2 x^2 + a^2 y^2 <= a^2 b^2
        ea, eb = gen.dec_coeff(rng, 0.5, 1), gen.dec_coeff(rng, 0.25, 0.5)
        text = f"{gen.lit(eb * eb)}*x^2 + {gen.lit(ea * ea)}*y^2 - {gen.lit(ea * ea * eb * eb)}"
        hull, w = oracle.pi() * oracle.dec(ea * eb), ea
    else:  # r^2 <= x^2 + y^2 <= R^2; inner cells lie in the outer disc
        R, r = gen.dec_coeff(rng, 0.75, 1), gen.dec_coeff(rng, 0.25, 0.5)
        text = f"(x^2 + y^2 - {gen.lit(R * R)})*(x^2 + y^2 - {gen.lit(r * r)})"
        hull, w = oracle.pi() * oracle.dec(R * R), R
    w = w + Fraction(1, 8)
    return I.Region(I.Rect.box((-w, w), (-w, w)), h.parse(text)), hull, w


def _positive_poly2(rng):
    """1 + c1 x^2 + c2 y^2 with c1, c2 in [0, 2]: between 1 and 1 + 4 w^2 on
    the square of half-width w <= 1 + 1/8."""
    c1, c2 = gen.dec_coeff(rng, 0, 2, nonzero=False), gen.dec_coeff(rng, 0, 2, nonzero=False)
    return f"1 + {gen.lit(c1)}*x^2 + {gen.lit(c2)}*y^2", max(c1, c2)


def _counts_ok(res, m, hull, w):
    if res.inner + res.boundary + res.exterior != m * m:
        return f"cell counts {res.inner}+{res.boundary}+{res.exterior} != {m * m}"
    if oracle.dec(res.inner * (2 * w / m) ** 2) > hull:
        return f"inner cells cover more than the region's hull ({res.inner} cells)"
    return None


def _inner_sum(h, rng, i):
    region, hull, w = _region(h, rng)
    m = rng.randint(12, 20)
    text, cmax = _positive_poly2(rng)
    f, spec = h.parse(text), h.integration.PartitionSpec.simple(m)

    def check(res):
        err = _counts_ok(res, m, hull, w)
        area = res.inner * (2 * w / m) ** 2
        if err is None and not area <= res.value <= (1 + 2 * cmax * w * w) * area:
            err = f"inner sum {res.value} outside [{area}, {(1 + 2 * cmax * w * w) * area}]"
        return err

    return Op("inner-sum", lambda: h.integration.inner_sum(f, region, spec), check)


def _mass_com(h, rng, i):
    region, hull, w = _region(h, rng)
    m = rng.randint(10, 14)
    text, cmax = _positive_poly2(rng)
    rho, spec = h.parse(text), h.integration.PartitionSpec.simple(m)

    def check(props):
        err = _counts_ok(props.counts, m, hull, w)
        area = props.counts.inner * (2 * w / m) ** 2
        if err is None and not area <= props.mass <= (1 + 2 * cmax * w * w) * area:
            err = f"mass {props.mass} outside its density bounds"
        if err is None and any(abs(mu) > w * props.mass for mu in props.moments):
            err = f"first moments {props.moments} exceed w * mass"
        return err

    return Op("mass-com", lambda: h.integration.measure_mass_moment_com(rho, region, spec), check)


def _moment(h, rng, i):
    region, hull, w = _region(h, rng)
    m = rng.randint(12, 18)
    rho_c = gen.dec_coeff(rng, 0.5, 2)
    rho, integrand, spec = (h.parse(gen.lit(rho_c)), h.parse("x^2 + y^2"),
                            h.integration.PartitionSpec.simple(m))

    def check(v):  # 0 <= rho (x^2 + y^2) <= rho 2 w^2 on the inner cells
        if v < 0 or oracle.dec(v) > oracle.dec(rho_c * 2 * w * w) * hull:
            return f"moment {v} outside [0, rho * 2w^2 * hull]"
        return None

    return Op("moment", lambda: h.integration.measure_moment(rho, integrand, region, spec), check)


_MAKERS = {
    "riemann-1d": _riemann_1d,
    "riemann-rational": _riemann_rational,
    "riemann-2d": _riemann_2d,
    "darboux": _darboux,
    "stieltjes": _stieltjes,
    "gauge-partition": _gauge_partition,
    "gauge-sum": _gauge_sum,
    "inner-sum": _inner_sum,
    "mass-com": _mass_com,
    "moment": _moment,
}


def setup(h, seed: int):
    return {"h": h, "seed": seed}


def round_ops(state, r: int) -> list:
    h, seed = state["h"], state["seed"]
    ops = []
    for kind, count in MIX:
        rng = gen.rng_for(seed, NAME, kind, r)
        ops += [_MAKERS[kind](h, rng, i) for i in range(count)]
    gen.rng_for(seed, NAME, "order", r).shuffle(ops)
    return ops


def warmup_ops(state):
    """One round drawn from a stream the timed rounds never use."""
    return round_ops(state, -1)
