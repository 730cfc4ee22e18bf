"""partition-transcendental: partition sums over sin/cos/exp/ln/sqrt
compositions, where the rational approximation kernels of ``hrw.approx`` do
most of the work and the per-cell jets of ``hrw.field`` come second.

Seeded-random-tag Riemann sums, curve lengths, work along a curve, surfaces
of revolution, and convergence studies against the adaptive-Simpson oracle.
Every round draws fresh intervals and tag seeds from ``(seed, round)``, so the
timed arguments are never seen during warm-up (which uses its own stream) and
the argument caches of ``hrw.approx`` cannot hide the kernels' cost.  Those
caches grow without bound; the benchmark clears them every
``CACHE_EPOCH_OPS`` operations (between rounds, outside the timed region), so
``peak_rss_mb`` shows their growth over a fixed amount of work rather than
over however many operations the run completes.

Checks compare against closed forms evaluated with ``decimal`` and accept
the method's first-order error bound, (b - a) * h * M, with M bounding the
derivative named at each operation, plus 1e-30 for constant rounding.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction

import gen
import oracle
from common import Op

NAME = "partition-transcendental"
CACHE_EPOCH_OPS = 1000

MIX = (
    ("riemann-sin", 5),
    ("riemann-cos", 5),
    ("riemann-exp", 5),
    ("riemann-ln", 5),
    ("riemann-sqrt", 5),
    ("curve-length", 2),
    ("work", 2),
    ("surface", 2),
    ("converge", 3),
)
CELLS = {"sin": 48, "cos": 48, "exp": 32, "ln": 10, "sqrt": 96}  # about equal cost per sum
SLACK = Decimal("1e-30")
D = oracle.dec


def _fresh_interval(rng, lo=-1000, hi=0, len_lo=500, len_hi=1500):
    """a = k/1000 and b = a + L: new breakpoints every round."""
    a = Fraction(rng.randint(lo, hi), 1000)
    return a, a + Fraction(rng.randint(len_lo, len_hi), 1000)


class Integrand:
    """c * T(alpha x + beta) + d x with alpha in [1/4, 1] and beta in [2, 3],
    so the inner argument stays in [1, 5] on [-1, 2]."""

    def __init__(self, rng, fn: str):
        self.fn = fn
        self.c = gen.dec_coeff(rng, -2, 2)
        self.alpha, self.beta = gen.dec_coeff(rng, 0.25, 1), gen.dec_coeff(rng, 2, 3)
        self.d = gen.dec_coeff(rng, -1, 1, nonzero=False)
        self.text = (f"{gen.lit(self.c)}*{fn}({gen.lit(self.beta)} + {gen.lit(self.alpha)}*x)"
                     f" + {gen.lit(self.d)}*x")

    def _anti(self, x: Fraction) -> Decimal:
        u = D(self.beta + self.alpha * x)
        F = {
            "sin": lambda: -oracle.cos(u),
            "cos": lambda: oracle.sin(u),
            "exp": lambda: oracle.exp(u),
            "ln": lambda: u * oracle.ln(u) - u,
            "sqrt": lambda: 2 * u * oracle.sqrt(u) / 3,
        }[self.fn]()
        return D(self.c) * F / D(self.alpha) + D(self.d * x * x / 2)

    def integral(self, a, b) -> Decimal:
        return self._anti(b) - self._anti(a)

    def slope_bound(self, a, b) -> Decimal:
        """M >= |f'| on [a, b]."""
        u_lo, u_hi = D(self.beta + self.alpha * a), D(self.beta + self.alpha * b)
        deriv = {"sin": Decimal(1), "cos": Decimal(1), "exp": oracle.exp(u_hi),
                 "ln": 1 / u_lo, "sqrt": 1 / (2 * oracle.sqrt(u_lo))}[self.fn]
        return D(abs(self.c) * self.alpha) * deriv + D(abs(self.d))


def _within(what, got, want: Decimal, bound: Decimal):
    err = abs(D(got) - want)
    return None if err <= bound + SLACK else f"{what}: |{D(got)} - {want}| = {err} > {bound}"


def _riemann(h, rng, fn: str) -> Op:
    g = Integrand(rng, fn)
    a, b = _fresh_interval(rng)
    m = CELLS[fn]
    I = h.integration
    f, rect, spec = h.parse(g.text), I.Rect.interval(a, b), I.PartitionSpec.simple(m)
    tag_seed = rng.getrandbits(32)

    def check(s):
        return _within(f"riemann {g.text} on [{a}, {b}]", s, g.integral(a, b),
                       D(b - a) * D((b - a) / m) * g.slope_bound(a, b))

    return Op(f"riemann-{fn}", lambda: I.riemann_sum(f, rect, spec, "seeded-random", tag_seed), check)


def _curve_length(h, rng) -> Op:
    """Both paths within (b - a) h sup|c''| / 2 of the exact length; the
    polygonal one never longer than it.  On a circle the speed is constant,
    so the speed integral is exact up to constant rounding."""
    kind = rng.randrange(3)
    if kind == 0:  # circle arc: length r w (b - a), |c''| = r w^2
        r, w = gen.dec_coeff(rng, 0.5, 2), gen.dec_coeff(rng, 0.5, 2)
        comps = [f"{gen.lit(r)}*{fn}({gen.lit(w)}*t)" for fn in ("cos", "sin")]
        a, b = _fresh_interval(rng)
        exact = lambda: D(r * w * (b - a))  # noqa: E731
        curv = lambda: D(r * w * w)  # noqa: E731
        speed_varies = False
    elif kind == 1:  # catenary (t, cosh t): length sinh b - sinh a, |c''| = cosh t
        comps = ["t", "0.5*exp(t) + 0.5*exp(-t)"]
        a, b = _fresh_interval(rng)
        sinh = lambda x: (oracle.exp(x) - oracle.exp(-x)) / 2  # noqa: E731
        exact = lambda: sinh(b) - sinh(a)  # noqa: E731
        curv = lambda: oracle.exp(max(abs(a), abs(b)))  # noqa: E731
        speed_varies = True
    else:  # cycloid on (0, 2 pi): length 4 r (cos(a/2) - cos(b/2)), |c''| = r
        r = gen.dec_coeff(rng, 0.5, 2)
        comps = [f"{gen.lit(r)}*(t - sin(t))", f"{gen.lit(r)}*(1 - cos(t))"]
        a, b = _fresh_interval(rng, 200, 1000, 1000, 3000)
        exact = lambda: 4 * D(r) * (oracle.cos(a / 2) - oracle.cos(b / 2))  # noqa: E731
        curv = lambda: D(r)  # noqa: E731
        speed_varies = True
    m = rng.randint(6, 10)
    curve = h.calculus.CurveDef.from_exprs([h.parse(c) for c in comps])

    def check(res):
        L, bound = exact(), D(b - a) * D((b - a) / m) * curv() / 2
        if D(res.polygonal) > L + SLACK:
            return f"curve length {comps}: polygonal {D(res.polygonal)} exceeds {L}"
        return (_within(f"curve length {comps} polygonal", res.polygonal, L, bound)
                or _within(f"curve length {comps} integral", res.integral, L,
                           bound if speed_varies else Decimal(0)))

    return Op("curve-length", lambda: h.integration.measure_curve_length(curve, a, b, m), check)


def _work(h, rng) -> Op:
    """Gradient field F = grad k(G(x) + G(y)) along a circle of radius r:
    work is the potential difference; both paths are within
    (b - a) h K (r^2 + 2 r) / 4 with K bounding |F| and |DF|."""
    k, r = gen.dec_coeff(rng, 0.5, 2), gen.dec_coeff(rng, 0.5, 1.5)
    if rng.random() < 0.5:
        field = [f"{gen.lit(k)}*cos(x)", f"{gen.lit(k)}*cos(y)"]
        G, K = oracle.sin, lambda: D(k)  # noqa: E731
    else:
        field = [f"{gen.lit(k)}*exp(x)", f"{gen.lit(k)}*exp(y)"]
        G, K = oracle.exp, lambda: D(k) * oracle.exp(r)  # noqa: E731
    a, b = _fresh_interval(rng)
    m = rng.randint(6, 10)
    curve = h.calculus.CurveDef.from_exprs([h.parse(f"{gen.lit(r)}*cos(t)"), h.parse(f"{gen.lit(r)}*sin(t)")])
    F = [h.parse(c) for c in field]

    def check(res):
        def potential(t):
            s, c = oracle.sin_cos(t)
            return D(k) * (G(D(r) * c) + G(D(r) * s))

        W = potential(b) - potential(a)
        bound = D(b - a) * D((b - a) / m) * K() * D(r * r + 2 * r) / 4
        return (_within(f"work {field} chord", res.chord, W, bound)
                or _within(f"work {field} integrand", res.integrand, W, bound))

    return Op("work", lambda: h.integration.line_integral_work(F, curve, a, b, m), check)


def _surface(h, rng) -> Op:
    m = rng.randint(6, 10)
    if rng.random() < 0.5:  # sphere zone: 2 pi f sqrt(1 + f'^2) = 2 pi R exactly
        R = gen.dec_coeff(rng, 1, 2)
        a = Fraction(rng.randint(-500, 0), 1000) * R
        b = a + Fraction(rng.randint(200, 500), 1000) * R
        text = f"sqrt({gen.lit(R * R)} - x^2)"
        exact = lambda: 2 * oracle.pi() * D(R * (b - a))  # noqa: E731
        slope = lambda: Decimal(0)  # noqa: E731
    else:  # u = c exp(k x): S = (2 pi / k) [u/2 sqrt(1 + k^2 u^2) + asinh(k u)/(2k)]
        c, kk = gen.dec_coeff(rng, 0.5, 1), gen.dec_coeff(rng, 0.25, 1)
        a, b = _fresh_interval(rng)
        text = f"{gen.lit(c)}*exp({gen.lit(kk)}*x)"
        Dk = D(kk)

        def G(x):
            u = D(c) * oracle.exp(D(kk * x))
            return u / 2 * oracle.sqrt(1 + Dk * Dk * u * u) + oracle.asinh(Dk * u) / (2 * Dk)

        exact = lambda: 2 * oracle.pi() / Dk * (G(b) - G(a))  # noqa: E731

        def slope():  # |g'| <= 2 pi k u (1 + 2 k^2 u^2) at the largest u
            u = D(c) * oracle.exp(D(kk * b))
            return 2 * oracle.pi() * Dk * u * (1 + 2 * Dk * Dk * u * u)

    f = h.parse(text)

    def check(s):  # left-endpoint rule: (b - a) h sup|g'| / 2
        return _within(f"surface {text} on [{a}, {b}]", s, exact(), D(b - a) * D((b - a) / m) * slope() / 2)

    return Op("surface", lambda: h.integration.measure_surface_revolution(f, a, b, m), check)


def _converge(h, rng) -> Op:
    """Riemann sums at three meshes against the adaptive-Simpson oracle.  The
    oracle must land within 1e-8 of the closed form (100 times the
    quadrature's tolerance), each row within the Riemann bound.  sin and cos
    over intervals of length about 1 keep the quadrature's effort, and so the
    operation's cost, about the same from one draw to the next."""
    g = Integrand(rng, rng.choice(("sin", "cos")))
    a, b = _fresh_interval(rng, len_lo=900, len_hi=1100)
    L = b - a
    meshes = [L / 8, L / 16, L / 32]
    I = h.integration
    f, rect = h.parse(g.text), I.Rect.interval(a, b)
    tag_seed = rng.getrandbits(32)

    def run():
        oracle_value = I.adaptive_simpson(h.exprs.compile_real(f, ("x",)), a, b)
        target = lambda mesh: I.riemann_sum(  # noqa: E731
            f, rect, I.PartitionSpec.simple(int(L / mesh)), "seeded-random", tag_seed)
        return I.converge_study("riemann", target, meshes, oracle_value)

    def check(report):
        want = g.integral(a, b)
        err = _within(f"simpson {g.text} on [{a}, {b}]", report.oracle, want, Decimal("1e-8"))
        for (mesh, v), expect in zip(report.rows, meshes):
            if mesh != expect:
                return f"converge rows out of order: {mesh} != {expect}"
            err = err or _within(f"converge row {mesh}", v, want, D(L * mesh) * g.slope_bound(a, b))
        return err

    return Op("converge", run, check)


def _make(h, kind: str, rng) -> Op:
    if kind.startswith("riemann-"):
        return _riemann(h, rng, kind.split("-", 1)[1])
    return {"curve-length": _curve_length, "work": _work, "surface": _surface,
            "converge": _converge}[kind](h, rng)


def setup(h, seed: int):
    return {"h": h, "seed": seed}


def round_ops(state, r: int) -> list:
    h, seed = state["h"], state["seed"]
    ops = []
    for kind, count in MIX:
        rng = gen.rng_for(seed, NAME, kind, r)
        ops += [_make(h, kind, rng) for _ in range(count)]
    gen.rng_for(seed, NAME, "order", r).shuffle(ops)
    return ops


def warmup_ops(state):
    """One round from a stream the timed rounds never use."""
    return round_ops(state, -1)
