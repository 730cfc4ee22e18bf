"""calculus-probe: jets, derivatives, increments, limits, tangents, curvature
and Jacobians over seeded polynomials, rational functions and sin/cos/exp/
ln/sqrt compositions, at points from a small pool of simple rationals.

The catalogue is fixed per seed and replayed every round, so after warm-up
the constant approximations in ``hrw.approx`` are cache hits and the series
arithmetic in ``hrw.field`` does the work.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from math import factorial

import gen
import oracle
from common import Op, agree, mismatch

NAME = "calculus-probe"

POINTS = tuple(Fraction(p) for p in ("0", "1/2", "1", "-1/2", "1/4", "3/4", "3/2", "-1/4"))

# operations of each kind in one round
MIX = (
    ("jet-poly", 20),
    ("diff-rational", 14),
    ("jet-trans", 20),
    ("increment-poly", 8),
    ("increment-rational", 3),
    ("increment-trans", 3),
    ("fn-limit", 8),
    ("continuity", 6),
    ("seq-limit", 8),
    ("tangent", 2),
    ("curvature", 6),
    ("jacobian", 2),
)


def _once(fn):
    """Memoise a zero-argument oracle computation inside one check closure."""
    box = []

    def get():
        if not box:
            box.append(fn())
        return box[0]

    return get


def _jet_op(h, kind, node, x0, order) -> Op:
    f = h.parse(gen.text(node))
    want = _once(lambda: gen.series(node, x0, order))

    def check(coeffs):
        for k, (got, w) in enumerate(zip(coeffs, want())):
            if not agree(got, w):
                return mismatch(f"{kind} {gen.text(node)} at {x0} coeff {k}", got, w)
        return None

    return Op(kind, lambda: h.calculus.taylor_jet(f, x0, order).coeffs, check)


def _diff_op(h, node, x0, n) -> Op:
    f = h.parse(gen.text(node))
    want = _once(lambda: gen.series(node, x0, n)[n] * factorial(n))

    def check(got):
        return None if agree(got, want()) else mismatch(f"diff {gen.text(node)} at {x0}", got, want())

    return Op("diff-rational", lambda: h.calculus.derivative(f, x0, n), check)


def _increment_op(h, kind, node, c, n) -> Op:
    f = h.parse(gen.text(node))
    eps = h.field.DEFAULT_FIELD.epsilon()
    want = _once(lambda: gen.series(node, c, n)[n] * factorial(n))
    exact = gen.exact(node)

    def check(inc):
        for e, coeff in inc.terms:  # orders below n cancel in the alternating sum
            if e < n and (exact or not agree(coeff, Fraction(0))):
                return f"{kind} {gen.text(node)}: eps^{e} term {coeff} survives"
        got = inc.coefficient(n)
        return None if agree(got, want()) else mismatch(f"{kind} {gen.text(node)} order {n}", got, want())

    return Op(kind, lambda: h.calculus.nth_increment(f, c, eps, n), check)


def _limit_op(h, rng, i) -> Op:
    p = POINTS[i % len(POINTS)]
    lin = gen.Poly((-p, Fraction(1)))
    variant = i % 3
    if variant == 0:  # removable: (x - p) g(x) / (x - p)  ->  g(p)
        g = gen.rand_poly(rng, 2)
        text = gen.text(gen.Div(gen.Mul(lin, g), lin))
        want = _once(lambda: (oracle.poly_eval(list(g.c), p),) * 3)
    elif variant == 1:  # sin(k (x - p)) / (x - p)  ->  k
        k = gen.dec_coeff(rng, 0.5, 3)
        text = gen.text(gen.Div(gen.Fn("sin", gen.Poly((-k * p, k))), lin))
        want = _once(lambda: (k,) * 3)
    else:  # jump: |x - p| / (x - p) has sides -1 and +1 and no limit
        text = f"abs{gen.text(lin)}/{gen.text(lin)}"
        want = _once(lambda: (None, Fraction(-1), Fraction(1)))
    f = h.parse(text)

    def check(res):
        got = tuple(None if v is None else v.as_fraction() for v in (res.value, res.left, res.right))
        for g_, w in zip(got, want()):
            if (g_ is None) != (w is None) or (w is not None and not agree(g_, w)):
                return mismatch(f"fn-limit {text} at {p}", got, want())
        return None

    return Op("fn-limit", lambda: h.calculus.fn_limit(f, p), check)


def _continuity_op(h, rng, i) -> Op:
    p = POINTS[i % len(POINTS)]
    variant = i % 3
    if variant == 0:
        text = gen.text(gen.rand_transcendental(rng, i // 3))
    elif variant == 1:
        text = gen.text(gen.rand_rational(rng, 2))
    else:  # continuous but not smooth at p
        text = f"abs{gen.text(gen.Poly((-p, Fraction(1))))} + {gen.text(gen.rand_poly(rng, 2))}"
    f = h.parse(text)
    return Op(
        "continuity",
        lambda: h.calculus.continuity_check(f, p),
        lambda got: None if got is True else f"continuity {text} at {p}: got {got}",
    )


def _seq_limit_op(h, rng, i) -> Op:
    dp, dq = ((2, 2), (1, 2), (3, 2), (2, 3), (3, 3), (1, 1))[i % 6]
    P = gen.rand_poly(rng, dp, var="n")
    Qp = gen.Poly(gen.rand_poly(rng, dq - 1, var="n").c + (gen.dec_coeff(rng, 0.5, 3),), "n")
    text = gen.text(gen.Div(P, Qp))
    ratio = P.c[-1] / Qp.c[-1]
    if dp < dq:
        want = "0"
    elif dp == dq:
        want = str(ratio.numerator) if ratio.denominator == 1 else f"{ratio.numerator}/{ratio.denominator}"
    else:
        want = "+inf" if ratio > 0 else "-inf"
    f = h.parse(text)
    return Op(
        "seq-limit",
        lambda: h.calculus.seq_limit(f),
        lambda res: None if str(res.value) == want else mismatch(f"seq-limit {text}", res.value, want),
    )


def _curve(rng, i):
    """A plane curve with nonzero velocity everywhere: a polynomial curve with
    x' > 0, or a circle."""
    if i % 2 == 0:
        return [gen.increasing_poly(rng, Fraction(-2), var="t"), gen.rand_poly(rng, 2, var="t")]
    return _circle(rng)[0]


def _tangent_op(h, rng, i) -> Op:
    comps = _curve(rng, i)
    t0 = POINTS[i % len(POINTS)]
    curve = h.calculus.CurveDef.from_exprs([h.parse(gen.text(c)) for c in comps])
    one = Decimal(1)  # the unit tangent carries an approximated norm
    return Op(
        "tangent",
        lambda: h.calculus.tangent_certificate(curve, t0),
        lambda cert: None if agree(cert, one) else mismatch(f"tangent at {t0}", cert, one),
    )


def _curvature_op(h, rng, i) -> Op:
    t0 = POINTS[i % len(POINTS)]
    if i % 2 == 0:  # graph (t, p(t)): exact derivatives, closed-form kappa
        p = gen.rand_poly(rng, 2 + i % 3, var="t")
        comps = [gen.Poly((Fraction(0), Fraction(1)), "t"), p]

        def want():
            d1 = oracle.poly_eval(oracle.poly_deriv(list(p.c)), t0)
            d2 = oracle.poly_eval(oracle.poly_deriv(oracle.poly_deriv(list(p.c))), t0)
            if d2 == 0:
                return None
            s = 1 + d1 * d1
            kappa = abs(oracle.dec(d2)) / (oracle.dec(s) * oracle.sqrt(s))
            center = (t0 - d1 * s / d2, oracle.poly_eval(list(p.c), t0) + s / d2)
            return kappa, tuple(oracle.dec(c) for c in center)  # program path is approximate
    else:
        comps, r = _circle(rng)

        def want():
            return Decimal(1) / oracle.dec(r), (Decimal(0), Decimal(0))

    want = _once(want)
    curve = h.calculus.CurveDef.from_exprs([h.parse(gen.text(c)) for c in comps])

    def check(res):
        w = want()
        if w is None:
            return None if res.straight else f"curvature at {t0}: expected a straight point"
        kappa, center = w
        if res.straight or not agree(res.kappa, kappa):
            return mismatch(f"curvature at {t0}", res.kappa, kappa)
        if not all(agree(g, c) for g, c in zip(res.center, center)):
            return mismatch(f"osculating center at {t0}", res.center, center)
        return None

    return Op("curvature", lambda: h.calculus.curvature(curve, t0), check)


def _circle(rng):
    """(r cos(w t), r sin(w t)) and its radius r."""
    r, w = gen.dec_coeff(rng, 0.5, 3), gen.dec_coeff(rng, 0.5, 2)
    arg = gen.Poly((Fraction(0), w), "t")
    return [gen.Mul(gen.Poly((r,), "t"), gen.Fn(fn, arg)) for fn in ("cos", "sin")], r


def _jacobian_op(h, rng, i) -> Op:
    """Two components, each a sum of two products px(x) * qy(y)."""
    comps = [[(gen.rand_poly(rng, 1 + (i + j) % 2), gen.rand_poly(rng, 1 + j % 2, var="y"))
              for j in range(2)] for _ in range(2)]
    x0, y0 = POINTS[i % len(POINTS)], POINTS[(i + 3) % len(POINTS)]
    texts = [" + ".join(f"{gen.text(px)}*{gen.text(qy)}" for px, qy in comp) for comp in comps]
    F = [h.parse(t) for t in texts]

    def want():
        rows = []
        for comp in comps:
            dx = sum(oracle.poly_eval(oracle.poly_deriv(list(px.c)), x0) * oracle.poly_eval(list(qy.c), y0)
                     for px, qy in comp)
            dy = sum(oracle.poly_eval(list(px.c), x0) * oracle.poly_eval(oracle.poly_deriv(list(qy.c)), y0)
                     for px, qy in comp)
            rows.append((dx, dy))
        return tuple(rows)

    want = _once(want)

    def check(res):
        if tuple(tuple(r) for r in res.matrix) != want():
            return mismatch(f"jacobian {texts} at {(x0, y0)}", res.matrix, want())
        return None if res.residual_order_ok else f"jacobian {texts}: residual_order_ok is false"

    return Op("jacobian", lambda: h.calculus.jacobian(F, [x0, y0]), check)


def _make(h, kind: str, rng, i: int) -> Op:
    """The i-th operation of a kind: structure (degree, order, shape, point)
    follows from i, coefficients from the seed."""
    x0 = POINTS[i % len(POINTS)]
    if kind == "jet-poly":
        return _jet_op(h, kind, gen.rand_poly(rng, 3 + i % 4), x0, 1 + i % 6)
    if kind == "jet-trans":
        return _jet_op(h, kind, gen.rand_transcendental(rng, i), x0, 1 + i % 6)
    if kind == "diff-rational":
        return _diff_op(h, gen.rand_rational(rng, 1 + i % 3), x0, 1 + i % 4)
    if kind == "increment-poly":
        return _increment_op(h, kind, gen.rand_poly(rng, 2 + i % 4), x0, 1 + i % 4)
    if kind == "increment-rational":
        return _increment_op(h, kind, gen.rand_rational(rng, 1 + i % 3), x0, 1 + i % 3)
    if kind == "increment-trans":
        return _increment_op(h, kind, gen.rand_transcendental(rng, i), x0, 1 + i % 2)
    return {"fn-limit": _limit_op, "continuity": _continuity_op, "seq-limit": _seq_limit_op,
            "tangent": _tangent_op, "curvature": _curvature_op, "jacobian": _jacobian_op}[kind](h, rng, i)


def setup(h, seed: int):
    ops = []
    for kind, count in MIX:
        rng = gen.rng_for(seed, NAME, kind)
        ops += [_make(h, kind, rng, i) for i in range(count)]
    gen.rng_for(seed, NAME, "order").shuffle(ops)
    return ops


def warmup_ops(state):
    """The whole catalogue once: fills the constant caches the timed rounds reuse."""
    return state


def round_ops(state, r: int):
    return state
