"""Acceptance suite: one test per exit criterion, tolerances pinned.

Each test prints a PASS line with its measured runtime (visible with
``pytest tests/test_acceptance.py -v -s``) and asserts the criterion's stated
time bound alongside its numeric tolerances.
"""

import json
import random
import time
from fractions import Fraction as F

import pytest

from hrw.approx import pi_approx
from hrw.calculus import (
    CurveDef,
    curvature,
    derivative,
    jacobian,
    nth_increment,
    seq_limit,
    tangent_certificate,
)
from hrw.cli import run as cli_run
from hrw.exprs import Call, eval_real, parse, symbolic_derivative
from hrw.field import (
    Classification,
    DEFAULT_FIELD as FLD,
    ExtendedReal,
    compare,
    in_order_ideal,
)
from hrw.integration import (
    Gauge,
    PartitionSpec,
    Rect,
    Region,
    TAG_RULES,
    converge_study,
    cousin_partition,
    darboux_bounds,
    gauge_sum,
    line_integral_work,
    measure_curve_length,
    measure_moment,
    morley_strip_sum,
    riemann_sum,
)

from conftest import rand_fraction, rand_hyper

EPS = FLD.epsilon()
PI = pi_approx(40)
TIGHT = F(1, 10**30)


def report(label: str, detail: str, t0: float, bound: float):
    elapsed = time.time() - t0
    print(f"PASS {label}: {detail} ({elapsed:.1f}s)")
    assert elapsed < bound, f"{label} exceeded its {bound}s budget: {elapsed:.1f}s"


def test_criterion_01_field_and_st_algebra():
    t0 = time.time()
    rng = random.Random(110)
    for case in range(1000):
        x = rand_hyper(rng, limited=True)
        y = rand_hyper(rng, limited=True)
        # subring closure of the limited numbers
        assert (x + y).is_limited and (x - y).is_limited and (x * y).is_limited
        if x.classify() is Classification.APPRECIABLE:
            assert x.inv().is_limited
        # ideal absorption: infinitesimal times limited stays infinitesimal
        h = rand_hyper(rng, infinitesimal=True)
        assert (h * x).is_infinitesimal
        # closeness is an equivalence (spot transitivity through midpoint)
        mid = x + rand_hyper(rng, infinitesimal=True)
        far = mid + rand_hyper(rng, infinitesimal=True)
        assert x.infinitely_close(x)
        assert mid.infinitely_close(x)
        assert x.infinitely_close(far)
        # monads of distinct rationals are disjoint
        r = rand_fraction(rng)
        s = rand_fraction(rng)
        if r != s:
            z = FLD.rational(r) + rand_hyper(rng, infinitesimal=True)
            assert z.infinitely_close(r) and not z.infinitely_close(s)
        # the standard part is an exact ring homomorphism
        sx, sy = x.st_fraction(), y.st_fraction()
        assert (x + y).st_fraction() == sx + sy
        assert (x - y).st_fraction() == sx - sy
        assert (x * y).st_fraction() == sx * sy
        if sy != 0:
            assert (x / y).st_fraction() == sx / sy
    report("criterion 1", "field/st algebra on 1000 randomized pairs, exact", t0, 10)


def test_criterion_02_non_archimedean_order():
    t0 = time.time()
    eps = FLD.epsilon()
    gamma = FLD.gamma()
    assert all(compare(eps, F(1, n)) == "<" for n in range(1, 10**6 + 1))
    assert all(compare(gamma, F(n)) == ">" for n in range(1, 10**6 + 1))
    report("criterion 2", "eps below 1/n and 1/eps above n for every n <= 10^6", t0, 5)


def test_criterion_03_sequence_limits():
    t0 = time.time()
    tol = F(1, 10**6)
    for p in range(1, 6):
        res = seq_limit(parse(f"(1/n)^{p}"))
        assert res.method == "field-evaluation" and res.value.as_fraction() == 0
    for a in (2, 10):
        res = seq_limit(parse(f"{a}^(1/n)"))
        assert res.method == "field-evaluation" and res.value.as_fraction() == 1
    res = seq_limit(parse("(1/2)^n"))
    assert res.method == "numeric-fallback" and abs(res.value.as_fraction()) < tol
    res = seq_limit(parse("root(n,n)"))
    assert res.method == "numeric-fallback" and abs(res.value.as_fraction() - 1) < tol
    res = seq_limit(parse("(1/n)^10*root(n,n)"))
    assert res.method == "numeric-fallback" and abs(res.value.as_fraction()) < tol
    res = seq_limit(parse("n^2"))
    assert res.value is ExtendedReal.POS_INF
    report("criterion 3", "named sequence limits via both evaluation paths", t0, 5)


DERIVATIVE_CORPUS = [
    # polynomials
    ("x^2", F(3)), ("x^3", F(2)), ("x^4", F(1)), ("x^5", F(-1)), ("x^6", F(1, 2)),
    ("2*x^3 - x", F(2)), ("x^5 - 3*x^2 + 7", F(1)), ("(x+1)^4", F(0)),
    ("(x^2-1)*(x+2)", F(1)), ("x^7/8 + x", F(2)), ("3*x^4 - 2*x^3 + x^2 - x + 1", F(-2)),
    ("(2*x-1)^3", F(1)), ("x^8", F(1)), ("x^2*(x-1)^2", F(3)), ("5*x^5 + 4*x^4", F(-1)),
    ("(x^3+1)^2", F(1)), ("x^9 - x^6", F(1)), ("7 - x^3", F(4)), ("0.5*x^4 + 0.25*x", F(2)),
    ("x^6 - x^5 + x^4", F(-1)),
    # rational functions (still algebraic, still exact)
    ("1/(1+x)", F(0)), ("x/(x^2+1)", F(1)), ("(x^2+1)/(x+2)", F(1)),
    ("1/(x-3)^2", F(1)), ("(x^3-1)/(x^2+2)", F(2)), ("1/x", F(1, 2)),
    ("x^-2", F(3, 4)), ("(x+1)/(x-1)", F(3)), ("1/(x^2+x+1)", F(1)),
    ("x^2/(1-x)", F(1, 3)),
    # transcendental members
    ("sin(x)", F(1, 3)), ("cos(x)", F(1, 2)), ("tan(x)", F(1, 3)), ("exp(x)", F(1)),
    ("ln(1+x)", F(1, 2)), ("exp(2*x) + sin(x)", F(0)), ("sin(x)*cos(x)", F(1)),
    ("exp(x^2)", F(1, 4)), ("ln(2+x^2)", F(1)), ("sqrt(1+x^2)", F(1)),
    ("sqrt(4+x)", F(0)), ("sin(x)/(2+cos(x))", F(1)), ("exp(x)*ln(1+x)", F(1, 2)),
    ("cos(x^2)", F(1, 2)), ("sin(2*x+1)", F(0)), ("x*exp(-x)", F(1)),
    ("2^x", F(1, 2)), ("x^2.5", F(4)), ("exp(sin(x))", F(1, 5)), ("ln(1+x^2)*x", F(1)),
]


def _is_algebraic(expr) -> bool:
    if isinstance(expr, Call):
        return False
    return all(
        _is_algebraic(child)
        for child in getattr(expr, "args", ())
    ) and not _has_call(expr)


def _has_call(expr) -> bool:
    if isinstance(expr, Call):
        return True
    for attr in ("operand", "left", "right"):
        child = getattr(expr, attr, None)
        if child is not None and _has_call(child):
            return True
    return False


def _has_real_power(expr) -> bool:
    from hrw.exprs import Binary, Const

    if isinstance(expr, Binary):
        if expr.op == "^" and not (
            isinstance(expr.right, Const) and expr.right.value.denominator == 1
        ):
            return True
        return _has_real_power(expr.left) or _has_real_power(expr.right)
    child = getattr(expr, "operand", None)
    if child is not None:
        return _has_real_power(child)
    return any(_has_real_power(a) for a in getattr(expr, "args", ()))


def test_criterion_04_two_path_derivatives():
    t0 = time.time()
    assert len(DERIVATIVE_CORPUS) == 50
    for source, point in DERIVATIVE_CORPUS:
        expr = parse(source)
        algebraic = not _has_call(expr) and not _has_real_power(expr)
        for n in range(1, 6):
            via_jet = derivative(expr, point, n)
            ratio = (nth_increment(expr, point, EPS, n) / EPS**n).st_fraction()
            if algebraic:
                assert ratio == via_jet, (source, n)
            else:
                assert abs(ratio - via_jet) < TIGHT, (source, n)
        if algebraic and "/" not in source and "-2" not in source:
            sym = expr
            for n in range(1, 4):
                sym = symbolic_derivative(sym, "x")
                assert derivative(expr, point, n) == eval_real(sym, {"x": point}), (
                    source, n,
                )
    report("criterion 4", "50-expression two-path derivatives to order 5", t0, 30)


def test_criterion_05_order_ideal_laws():
    t0 = time.time()
    rng = random.Random(220)
    # membership depends only on leading exponents, so a narrow window keeps
    # the sqrt-of-sum-of-squares generator cheap without weakening the law
    from hrw.field import Field, HyperReal

    fld = Field(window=F(6))
    grid = [F(k, d) for d in (1, 2) for k in range(1, 9)]

    def small(infinitesimal=False, nonzero=True):
        pool = grid if infinitesimal else [F(k, d) for d in (1, 2) for k in range(-4, 9)]
        count = rng.randint(1 if nonzero else 0, 3)
        exps = rng.sample(pool, count) if count else []
        return HyperReal(
            [(e, rand_fraction(rng)) for e in exps], fld.window, fld.precision
        )

    for _ in range(1000):
        gens = [small(infinitesimal=True) for _ in range(3)]
        x = small(nonzero=False)
        e1 = gens[0]
        e_max = max((abs(g) for g in gens), key=lambda g: g)
        sum_sq = gens[0] * gens[0]
        for g in gens[1:]:
            sum_sq = sum_sq + g * g
        e_norm = sum_sq.nth_root(2)
        lam = x.leading_exponent()
        for gen in (e1, e_max, e_norm):
            expected = x.is_zero or lam > gen.leading_exponent()
            assert in_order_ideal(x, gen) == expected
        assert in_order_ideal(x, e_max) == in_order_ideal(x, e_norm)
    # strict nesting witnessed: eps^2/2 separates o(eps^2) from o(eps)
    witness = EPS**2 / 2
    assert in_order_ideal(witness, EPS)
    assert not in_order_ideal(witness, EPS**2)
    report("criterion 5", "order-ideal membership invariance on 1000 cases", t0, 5)


SMOOTH_CURVES = [
    ("cos(t); sin(t)", F(0)),
    ("cos(t); sin(t)", F(2, 7)),
    ("t; t^2", F(1)),
    ("t; t^3 + t", F(1, 2)),
    ("exp(t); t^2 + 1", F(0)),
    ("cos(t); sin(t); t", F(1, 5)),
    ("t; ln(1+t); t^2", F(1)),
]


def test_criterion_06_tangent_and_curvature():
    t0 = time.time()
    for text, point in SMOOTH_CURVES:
        curve = CurveDef.from_exprs([parse(p) for p in text.split(";")])
        cert = tangent_certificate(curve, point)
        assert abs(abs(cert) - 1) < TIGHT, text
    for r in (F(1, 2), F(1), F(2), F(5)):
        curve = CurveDef.from_exprs([parse(f"({r})*cos(t)"), parse(f"({r})*sin(t)")])
        res = curvature(curve, F(1, 3))
        assert abs(res.kappa - 1 / r) < TIGHT, r
        assert abs(res.center[0]) < TIGHT and abs(res.center[1]) < TIGHT, r
    parabola = curvature(CurveDef.from_exprs([parse("t"), parse("t^2")]), F(0))
    assert parabola.kappa == 2 and parabola.center == (F(0), F(1, 2))
    report("criterion 6", "tangent certificates and osculating circles", t0, 10)


JACOBIAN_CORPUS = [
    (("x^2*y", "x+y"), (F(1), F(2))),
    (("x+y", "x-y"), (F(0), F(0))),
    (("x*y",), (F(2), F(-1))),
    (("x^3", "y^3"), (F(1), F(1))),
    (("x^2+y^2", "x*y"), (F(1), F(-1))),
    (("2*x+3*y", "5*x-y"), (F(7), F(11))),
    (("x*y^2", "x^2*y"), (F(2), F(3))),
    (("x^2-y^2", "2*x*y"), (F(1), F(1))),
    (("x+y+z", "x*y*z", "z^2"), (F(1), F(2), F(3))),
    (("x^2*z", "y+z", "x*y"), (F(1), F(0), F(2))),
    (("x^4", "x^2*y^2"), (F(1), F(2))),
    (("y", "x"), (F(3), F(4))),
    (("x^2;y^2".replace(";", ","),), None),  # placeholder replaced below
]
JACOBIAN_CORPUS = JACOBIAN_CORPUS[:-1] + [
    (("x^2", "y^2"), (F(3), F(1))),
    (("x*y + y^2", "x^2 - y"), (F(1), F(1))),
    (("x^3*y - y^2", "2*x + y^4"), (F(2), F(1))),
    (("x - y^3", "x^2*y^2"), (F(1), F(2))),
    (("sin(x)*y", "exp(y)"), (F(0), F(1))),
    (("exp(x+y)", "ln(2+x)"), (F(0), F(0))),
    (("cos(x)", "sin(y)"), (F(1, 3), F(1, 5))),
    (("sqrt(1+x^2+y^2)",), (F(1), F(1))),
]


def test_criterion_07_jacobian_residuals():
    t0 = time.time()
    assert len(JACOBIAN_CORPUS) == 20
    for comps, point in JACOBIAN_CORPUS:
        exprs = [parse(c) for c in comps]
        res = jacobian(exprs, list(point))
        assert res.residual_order_ok, comps
        if not any(_has_call(e) or _has_real_power(e) for e in exprs):
            names = ("x", "y", "z")[: len(point)]
            env = dict(zip(names, point))
            for i, comp in enumerate(exprs):
                for j, name in enumerate(names):
                    expected = eval_real(symbolic_derivative(comp, name), env)
                    assert res.matrix[i][j] == expected, (comps, i, j)
    report("criterion 7", "residual order and exact entries on 20 maps", t0, 10)


def test_criterion_08_morley_strips():
    t0 = time.time()
    a = F(1)
    for n in range(1, 1001):
        outer = morley_strip_sum(a, n, "outer")
        inner = morley_strip_sum(a, n, "inner")
        assert outer == (PI / 2) * (1 + F(2, n) + F(1, n * n))
        assert inner == (PI / 2) * (1 - F(2, n) + F(1, n * n))
    n = 10**6
    target = PI / 2
    for edge in ("outer", "inner"):
        rel = abs(morley_strip_sum(a, n, edge) - target) / target
        assert rel < F(1, 10**5)
    report("criterion 8", "strip sums equal both closed forms exactly", t0, 10)


def test_criterion_09_integration_convergence():
    t0 = time.time()
    # Riemann study for the square function
    expr = parse("x^2")

    def rie(mesh):
        return riemann_sum(expr, Rect.interval(0, 1), PartitionSpec.simple(int(1 / mesh)))

    study = converge_study("riemann", rie, [F(1, 2**k) for k in range(3, 13)], F(1, 3))
    assert study.monotone
    assert study.final_error < F(1, 1000)
    assert abs(study.estimate - F(1, 3)) < F(1, 10**6)

    # disc moment of inertia against pi/2
    disc = Region(Rect.box((-1, 1), (-1, 1)), parse("x^2+y^2-1"))
    moment = parse("x^2+y^2")
    values = []
    for k in range(4, 10):
        m = 2 ** (k + 1)
        values.append(measure_moment(parse("1"), moment, disc, PartitionSpec.simple(m, m)))
    errors = [abs(v - PI / 2) for v in values]
    assert all(a > b for a, b in zip(errors, errors[1:]))
    assert errors[-1] / (PI / 2) <= F(2, 100)

    # quarter circle arc length, both paths
    circle = CurveDef.from_exprs([parse("cos(t)"), parse("sin(t)")])
    length = measure_curve_length(circle, F(0), PI / 2, 4096)
    assert abs(length.polygonal - PI / 2) < F(1, 10**6)
    assert abs(length.integral - PI / 2) < F(1, 10**6)

    # work integral, chord and integrand paths
    work = line_integral_work(
        [parse("y"), parse("x")],
        CurveDef.from_exprs([parse("t"), parse("t^2")]),
        F(0), F(1), 2048,
    )
    assert abs(work.chord - 1) < F(1, 10**4)
    assert abs(work.integrand - 1) < F(1, 10**4)
    assert abs(work.chord - work.integrand) < F(1, 10**4)
    report("criterion 9", "riemann/disc/length/work convergence targets", t0, 120)


# (source, rect, a bound on the operator norm of the Hessian of f over rect)
DARBOUX_ACCEPTANCE = [
    ("x", Rect.interval(0, 1), 0),
    ("x^2", Rect.interval(-1, 1), 2),
    ("x^3 - x", Rect.interval(0, 2), 12),
    ("sin(x)", Rect.interval(0, 3), 1),
    ("exp(x)", Rect.interval(-1, 1), 3),
    ("x*y", Rect.box((0, 1), (0, 1)), 1),
    ("x^2 - y", Rect.box((-1, 1), (0, 2)), 2),
    ("x + sin(y)", Rect.box((0, 2), (0, 3)), 1),
]
DARBOUX_SAMPLES = 5  # darboux_bounds' default samples per axis


def darboux_sample_miss(rect, m, hessian_bound):
    """Most the sampled inf/sup of one m^d-grid cell can miss the true one, times its volume.

    An interior extremum x* has zero gradient, and one on a face has zero
    gradient along the face, whose normal coordinate is sampled exactly; the
    nearest sample p lies within half a sample step on every other axis, so
    |f(x*) - f(p)| <= hessian_bound * |x* - p|^2 / 2
    <= hessian_bound * sum_a (h_a / (DARBOUX_SAMPLES - 1))^2 / 8.
    """
    widths = [(hi - lo) / m for lo, hi in rect.intervals]
    volume = F(1)
    for h in widths:
        volume *= h
    step2 = sum(h * h for h in widths) / (DARBOUX_SAMPLES - 1) ** 2
    return F(hessian_bound) * step2 / 8 * volume


def test_criterion_10_darboux_sandwich():
    t0 = time.time()
    for source, rect, hessian_bound in DARBOUX_ACCEPTANCE:
        expr = parse(source)
        dim = rect.dimension
        meshes = (1, 2, 4, 8)
        specs = [PartitionSpec.simple(*(m,) * dim) for m in meshes]
        bounds = [darboux_bounds(expr, rect, spec) for spec in specs]
        for m, spec, db in zip(meshes, specs, bounds):
            for rule in TAG_RULES:
                s = riemann_sum(expr, rect, spec, rule, seed=17)
                # the deterministic tags are sample points, so L <= S <= U
                # holds exactly; a seeded tag may pass the sampled extremum of
                # a cell counted as nonmonotone, where darboux_bounds gives an
                # inner estimate, by at most the sampling miss of that cell
                slack = 0
                if rule == "seeded-random":
                    slack = db.nonmonotone_cells * darboux_sample_miss(rect, m, hessian_bound)
                assert db.lower - slack <= s <= db.upper + slack, (source, m, rule)
        for coarse, fine in zip(bounds, bounds[1:]):
            assert fine.lower >= coarse.lower, source
            assert fine.upper <= coarse.upper, source
    report("criterion 10", "L <= S <= U with refinement monotonicity", t0, 30)


def test_criterion_11_gauge_machinery():
    t0 = time.time()
    rng = random.Random(330)
    for _ in range(100):
        c0 = F(rng.randint(1, 50), 100)
        c1 = F(rng.randint(-25, 100), 100)
        if c0 + c1 <= 0:  # keep the linear gauge positive on [0, 1]
            c1 = -c0 / 2
        gauge = Gauge(parse(f"{c0} + ({c1})*x"))
        part = cousin_partition(gauge, F(0), F(1))
        for ((u, v),), (x,) in zip(part.cells, part.tags):
            delta = eval_real(gauge.radius, {"x": x}, 40)
            assert x - delta <= u and v <= x + delta
        assert sum(part.volumes()) == 1
    value = gauge_sum(parse("x"), F(0), F(1), Gauge(parse("1/100")))
    assert abs(value - F(1, 2)) <= F(1, 100)
    value = gauge_sum(parse("x^2"), F(0), F(1), Gauge(parse("1/1000")), mode="mcshane")
    assert abs(value - F(1, 3)) <= F(1, 100)
    report("criterion 11", "cousin post-condition on 100 gauges, gauge sums", t0, 15)


DETERMINISM_INVOCATIONS = [
    ["--format", "json", "diff", "sin(x)", "--at", "1/3"],
    ["--format", "json", "limit-seq", "root(n,n)"],
    ["--format", "json", "limit-fn", "sin(x)/x", "--at", "0"],
    ["--format", "json", "jet", "exp(x)", "--at", "0", "--order", "5"],
    ["--format", "json", "tangent", "--curve", "cos(t); sin(t)", "--at", "1/7"],
    ["--format", "json", "curvature", "--curve", "2*cos(t); 2*sin(t)", "--at", "1/5"],
    ["--format", "json", "jacobian", "--map", "x^2*y; x+y", "--at", "1,2"],
    ["--format", "json", "integrate", "x^2", "--on", "0,1", "--mesh", "1/64",
     "--tags", "seeded-random", "--seed", "9"],
    ["--format", "json", "integrate", "x", "--on", "0,1", "--method", "mcshane",
     "--gauge", "1/50 + x/10"],
    ["--format", "json", "measure", "length", "--curve", "t; t^2", "--on", "0,1",
     "--mesh", "1/128"],
    ["--format", "json", "measure", "morley", "--radius", "1", "--n", "100"],
    ["--format", "json", "measure", "moment", "--rho", "1", "--region", "x^2+y^2-1",
     "--integrand", "x^2+y^2", "--meshes", "1/8,1/16,1/32"],
    ["--format", "json", "converge", "riemann", "--expr", "x^2", "--on", "0,1",
     "--meshes", "1/8,1/16,1/32,1/64"],
    ["--format", "json", "probe-supernear", "--generator", "x^2", "--target", "x^2",
     "--on", "0,1", "--meshes", "1/4,1/8,1/16"],
]


def test_criterion_12_byte_identical_reports(capsys):
    t0 = time.time()

    def full_suite() -> bytes:
        chunks = []
        for argv in DETERMINISM_INVOCATIONS:
            code = cli_run(list(argv))
            captured = capsys.readouterr()
            assert code == 0, (argv, captured.err)
            json.loads(captured.out)  # every report is valid JSON
            chunks.append(captured.out.encode())
        return b"".join(chunks)

    first = full_suite()
    second = full_suite()
    assert first == second
    report("criterion 12", f"two runs, {len(first)} bytes each, identical", t0, 120)
