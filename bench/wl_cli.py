"""cli-mix: small requests sent in-process through ``hrw.cli.run(argv)`` with
``--format json`` and stdout captured.

A catalogue holds ``PER_COMMAND`` requests for each of the sixteen
subcommands.  A request's slot in the catalogue fixes its shape (degree,
order, point, variant) and the seed its coefficients, so cost and popularity
line up the same way for every seed.  Each round sends a fixed number of
requests per subcommand (``MIX``); within a subcommand the slot is drawn with
Zipf popularity (exponent ``ZIPF_S``, slot 0 most popular), so identical
requests repeat often.  This is the only workload that pays per-request
costs (parser construction, argument and expression parsing, JSON emission)
and the only one where identical requests repeat.

Every reply must be one line of minified, key-sorted JSON matching
``docs/json_schema.md``; its values are checked against the oracle the first
time a request is seen, and every repeat must be byte-identical to it.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
from decimal import Decimal
from fractions import Fraction
from itertools import accumulate
from math import factorial

import gen
import oracle
from common import Op, agree

NAME = "cli-mix"
PER_COMMAND = 100
ZIPF_S = 1.1

# requests of each subcommand in one round
MIX = (
    ("eval", 4), ("st", 4), ("classify", 4), ("limit-seq", 3), ("limit-fn", 3),
    ("diff", 4), ("jet", 3), ("increment", 3), ("tangent", 1), ("curvature", 2),
    ("jacobian", 1), ("kinematics", 3), ("integrate", 4), ("measure", 3),
    ("converge", 2), ("probe-supernear", 2),
)

POINTS = tuple(Fraction(p) for p in ("0", "1/2", "1", "-1/2", "1/4", "3/4", "3/2", "2"))

# -- the reply schema of docs/json_schema.md ---------------------------------------------

VALUE_KEYS = {"operation", "params", "result"}
REPORT_KEYS = {"operation", "params", "rows", "estimate", "oracle", "error"}
RESULT_FIELDS = {
    "eval": {"value"}, "diff": {"value"}, "st": {"value"}, "classify": {"classification"},
    "jet": {"base", "coefficients"}, "increment": {"series", "ratio_st"},
    "limit-seq": {"value", "left", "right", "method", "note"},
    "limit-fn": {"value", "left", "right", "method", "note"},
    "tangent": {"vector", "certificate"},
    "curvature": {"kappa", "straight", "radius", "normal", "center"},
    "jacobian": {"matrix", "residual_order_ok"}, "kinematics": {"velocity", "acceleration"},
    "integrate": {"value"}, "integrate darboux": {"lower", "upper", "nonmonotone_cells"},
    "measure area": {"value"}, "measure volume-rev": {"value"}, "measure impulse": {"value"},
    "measure morley": {"value"}, "measure mass": {"mass", "moments"},
    "probe-supernear": {"rows", "decreasing"},
}
RATIONAL = re.compile(r"^-?\d+(/\d+)?$")


def _q(text: str) -> Fraction:
    if not RATIONAL.match(text):
        raise ValueError(f"not a lowest-terms rational: {text!r}")
    q = Fraction(text)
    if text != (str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"):
        raise ValueError(f"not in lowest terms: {text!r}")
    return q


def _schema_error(doc: dict, key: str) -> str | None:
    if key == "converge":
        if set(doc) != REPORT_KEYS or any(set(r) != {"mesh", "value"} for r in doc["rows"]):
            return f"report keys {sorted(doc)}"
        return None
    if set(doc) != VALUE_KEYS or not isinstance(doc["params"], dict):
        return f"document keys {sorted(doc)}"
    if any(not isinstance(v, str) for v in doc["params"].values()):
        return "params values must be strings"
    if set(doc["result"]) != RESULT_FIELDS[key]:
        return f"{key} result fields {sorted(doc['result'])}"
    return None


# -- request generators: (argv tail, value check[, schema key]) -----------------------------


def _poly(rng, i, lo=1, hi=4, var="x"):
    """Degree lo + (i mod span): the slot fixes the degree, the seed the coefficients."""
    return gen.rand_poly(rng, lo + i % (hi - lo + 1), var=var)


def _at(p):
    return f"--at={p.numerator}/{p.denominator}" if p.denominator != 1 else f"--at={p.numerator}"


def _fmt(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _eq(got: str, want: Fraction) -> bool:
    return _q(got) == want


def _req_eval(rng, i):
    p, x = _poly(rng, i), POINTS[i % len(POINTS)]
    want = oracle.poly_eval(list(p.c), x)
    return ["eval", f"--at=x={_fmt(x)}", gen.text(p)], lambda r: _eq(r["value"], want)


def _series_literal(rng, i):
    """Canonical series text with two or three terms, and its terms."""
    exps = sorted(rng.sample([Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)],
                             2 + i % 2))
    terms = [(e, gen.dec_coeff(rng, -3, 3)) for e in exps]
    text = " + ".join(_fmt(c) if e == 0 else f"{_fmt(c)}*eps^{_fmt(e)}" for e, c in terms)
    return text, terms


def _req_st(rng, i):
    text, terms = _series_literal(rng, i)
    e0, c0 = terms[0]
    if e0 < 0:
        want = "+inf" if c0 > 0 else "-inf"
    else:
        want = _fmt(dict(terms).get(Fraction(0), Fraction(0)))
    return ["st", "--", text], lambda r: r["value"] == want


def _req_classify(rng, i):
    text, terms = _series_literal(rng, i)
    e0, c0 = terms[0]
    want = ("infinite-positive" if c0 > 0 else "infinite-negative") if e0 < 0 else (
        "appreciable" if e0 == 0 else "infinitesimal-nonzero")
    return ["classify", "--", text], lambda r: r["classification"] == want


def _req_limit_seq(rng, i):
    dp, dq = ((1, 1), (1, 2), (2, 1), (2, 2))[i % 4]
    P = gen.rand_poly(rng, dp, var="n")
    Qp = gen.Poly(gen.rand_poly(rng, dq - 1, var="n").c + (gen.dec_coeff(rng, 0.5, 3),), "n")
    ratio = P.c[-1] / Qp.c[-1]
    want = "0" if dp < dq else _fmt(ratio) if dp == dq else ("+inf" if ratio > 0 else "-inf")
    return ["limit-seq", gen.text(gen.Div(P, Qp))], lambda r: r["value"] == want


def _req_limit_fn(rng, i):
    p, g = POINTS[i % len(POINTS)], _poly(rng, i, 1, 2)
    lin = gen.Poly((-p, Fraction(1)))
    want = oracle.poly_eval(list(g.c), p)
    return (["limit-fn", _at(p), gen.text(gen.Div(gen.Mul(lin, g), lin))],
            lambda r: all(_eq(r[k], want) for k in ("value", "left", "right")))


def _req_diff(rng, i):
    p, x, n = _poly(rng, i, 2, 5), POINTS[i % len(POINTS)], 1 + i % 3
    want = oracle.taylor_shift(list(p.c), x)[n] * factorial(n) if n < len(p.c) else Fraction(0)
    return ["diff", _at(x), f"--order={n}", gen.text(p)], lambda r: _eq(r["value"], want)


def _req_jet(rng, i):
    p, x, n = _poly(rng, i, 2, 5), POINTS[i % len(POINTS)], 2 + i % 3
    want = (oracle.taylor_shift(list(p.c), x) + [Fraction(0)] * (n + 1))[: n + 1]
    return (["jet", _at(x), f"--order={n}", gen.text(p)],
            lambda r: _eq(r["base"], x) and [_q(c) for c in r["coefficients"]] == want)


def _req_increment(rng, i):
    p, x, n = _poly(rng, i, 2, 4), POINTS[i % len(POINTS)], 1 + i % 3
    jet = oracle.taylor_shift(list(p.c), x) + [Fraction(0)] * 4
    want = jet[n] * factorial(n)
    return (["increment", _at(x), f"--order={n}", gen.text(p)],
            lambda r: _eq(r["ratio_st"], want) and isinstance(r["series"], str))


def _req_tangent(rng, i):
    x = gen.Poly((gen.dec_coeff(rng, -1, 1, nonzero=False), gen.dec_coeff(rng, 0.5, 2)), "t")
    y, t0 = _poly(rng, i, 1, 2, var="t"), POINTS[i % len(POINTS)]

    def check(r):
        norm = sum(_q(c) ** 2 for c in r["vector"])
        return agree(_q(r["certificate"]), Decimal(1)) and agree(norm, Decimal(1))

    return ["tangent", f"--curve={gen.text(x)}; {gen.text(y)}", _at(t0)], check


def _req_curvature(rng, i):
    p, t0 = _poly(rng, i, 2, 4, var="t"), POINTS[i % len(POINTS)]
    d1 = oracle.poly_eval(oracle.poly_deriv(list(p.c)), t0)
    d2 = oracle.poly_eval(oracle.poly_deriv(oracle.poly_deriv(list(p.c))), t0)

    def check(r):
        if d2 == 0:
            return r["straight"] is True and r["kappa"] == "0"
        s = 1 + d1 * d1
        return r["straight"] is False and agree(_q(r["kappa"]), abs(oracle.dec(d2)) / (oracle.dec(s) * oracle.sqrt(s)))

    return ["curvature", f"--curve=t; {gen.text(p)}", _at(t0)], check


def _req_jacobian(rng, i):
    parts = [(_poly(rng, i, 1, 1), _poly(rng, i, 1, 1, var="y")) for _ in range(2)]
    x0, y0 = POINTS[i % len(POINTS)], POINTS[(i + 3) % len(POINTS)]
    texts = [f"{gen.text(px)}*{gen.text(qy)}" for px, qy in parts]
    want = [[_fmt(oracle.poly_eval(oracle.poly_deriv(list(px.c)), x0) * oracle.poly_eval(list(qy.c), y0)),
             _fmt(oracle.poly_eval(list(px.c), x0) * oracle.poly_eval(oracle.poly_deriv(list(qy.c)), y0))]
            for px, qy in parts]
    return (["jacobian", f"--map={'; '.join(texts)}", f"--at={_fmt(x0)},{_fmt(y0)}"],
            lambda r: r["matrix"] == want and r["residual_order_ok"] is True)


def _req_kinematics(rng, i):
    p, t0 = _poly(rng, i, 2, 4, var="t"), POINTS[i % len(POINTS)]
    jet = oracle.taylor_shift(list(p.c), t0) + [Fraction(0)] * 3
    return (["kinematics", _at(t0), gen.text(p)],
            lambda r: _eq(r["velocity"], jet[1]) and _eq(r["acceleration"], 2 * jet[2]))


def _req_integrate(rng, i):
    m = (8, 16, 32)[i % 3]
    a, b = ((0, 1), (-1, 1), (0, 2))[(i // 3) % 3]
    on, mesh = f"--on={a},{b}", f"--mesh={_fmt(Fraction(b - a, m))}"
    variant, k = i % 4, i // 4
    if variant == 0:  # min-vertex or center: Faulhaber closed form
        p, rule = _poly(rng, k), ("min-vertex", "center")[k % 2]
        want = oracle.riemann_closed_form(list(p.c), a, b, m, 0 if rule == "min-vertex" else Fraction(1, 2))
        return ["integrate", on, mesh, f"--tags={rule}", gen.text(p)], lambda r: _eq(r["value"], want)
    if variant == 1:  # Darboux of an increasing polynomial: left and right sums
        p = gen.increasing_poly(rng, Fraction(a))
        lo = oracle.riemann_closed_form(list(p.c), a, b, m, 0)
        hi = oracle.riemann_closed_form(list(p.c), a, b, m, 1)
        return (["integrate", on, mesh, "--method=darboux", gen.text(p)],
                lambda r: (_q(r["lower"]), _q(r["upper"]), r["nonmonotone_cells"]) == (lo, hi, 0),
                "integrate darboux")
    if variant == 2:  # gauge sums in both modes: within M * delta * (b - a)
        p, delta = _poly(rng, k, 1, 3), Fraction(1, (16, 24, 32)[k % 3])
        method = ("gauge", "mcshane")[k % 2]
        R = max(abs(a), abs(b))
        M = sum(abs(k * c) * R ** (k - 1) for k, c in enumerate(p.c) if k)
        want = oracle.integral(list(p.c), a, b)
        return (["integrate", on, mesh, f"--method={method}", f"--gauge={_fmt(delta)}", gen.text(p)],
                lambda r: abs(_q(r["value"]) - want) <= M * delta * (b - a))
    p, phi = gen.increasing_poly(rng, Fraction(a)), gen.increasing_poly(rng, Fraction(a))  # Stieltjes
    h = Fraction(b - a, m)
    pts = [a + j * h for j in range(m + 1)]
    fv, gv = [oracle.poly_eval(list(p.c), x) for x in pts], [oracle.poly_eval(list(phi.c), x) for x in pts]
    want = sum(fv[j] * (gv[j + 1] - gv[j]) for j in range(m))
    return (["integrate", on, mesh, "--method=stieltjes", f"--phi={gen.text(phi)}", gen.text(p)],
            lambda r: _eq(r["value"], want))


def _req_measure(rng, i):
    variant, k = i % 5, i // 5
    if variant == 0:  # morley strips: 2 pi a^4 (n(n+1)/2)^2 / n^4
        a, n = gen.dec_coeff(rng, 0.5, 2), 4 + (7 * k) % 37
        want = 2 * oracle.pi() * oracle.dec(a**4 * Fraction((n * (n + 1) // 2) ** 2, n**4))
        return (["measure", "morley", f"--radius={_fmt(a)}", f"--n={n}"],
                lambda r: agree(_q(r["value"]), want), "measure morley")
    m = (8, 16)[k % 2]
    on, mesh = "--on=0,1", f"--mesh=1/{m}"
    p = _poly(rng, k, 1, 3)
    if variant == 1:  # area between p and p + 1 + x^2: min-vertex sum of 1 + x^2
        gap = [Fraction(1), Fraction(0), Fraction(1)]
        want = oracle.riemann_closed_form(gap, 0, 1, m, 0)
        return (["measure", "area", f"--f={gen.text(p)}", f"--g={gen.text(p)} + 1 + x^2", on, mesh],
                lambda r: _eq(r["value"], want), "measure area")
    if variant == 2:  # impulse: min-vertex sum
        force = gen.Poly(p.c, "t")
        want = oracle.riemann_closed_form(list(p.c), 0, 1, m, 0)
        return (["measure", "impulse", f"--force={gen.text(force)}", on, mesh],
                lambda r: _eq(r["value"], want), "measure impulse")
    if variant == 3:  # volume of revolution: pi * min-vertex sum of f^2
        q = gen.increasing_poly(rng, Fraction(0))
        want = oracle.pi() * oracle.dec(oracle.riemann_closed_form(oracle.poly_mul(list(q.c), list(q.c)), 0, 1, m, 0))
        return (["measure", "volume-rev", f"--f={gen.text(q)}", on, mesh],
                lambda r: agree(_q(r["value"]), want), "measure volume-rev")
    r0 = gen.dec_coeff(rng, 0.5, 1)  # unit density disc: inner cells inside it
    region = f"--region=x^2 + y^2 - {gen.lit(r0 * r0)}"

    def mass_ok(r):
        mass = _q(r["mass"])
        return 0 < mass and oracle.dec(mass) <= oracle.pi() * oracle.dec(r0 * r0) and len(r["moments"]) == 2

    return ["measure", "mass", region, f"--mesh=1/{m}"], mass_ok, "measure mass"


def _req_converge(rng, i):
    p = _poly(rng, i, 1, 3)
    meshes = (Fraction(1, 4), Fraction(1, 8), Fraction(1, 16))
    rows = [oracle.riemann_closed_form(list(p.c), 0, 1, int(1 / h), 0) for h in meshes]
    exact = oracle.integral(list(p.c), 0, 1)

    def check(r):
        got = [(_q(row["mesh"]), _q(row["value"])) for row in r["rows"]]
        return (got == list(zip(meshes, rows)) and abs(_q(r["oracle"]) - exact) <= Fraction(1, 10**9)
                and _q(r["error"]) == abs(rows[-1] - _q(r["oracle"])))

    return ["converge", "riemann", f"--expr={gen.text(p)}", "--on=0,1",
            "--meshes=1/4,1/8,1/16", "--oracle=simpson"], check, "converge"


def _req_supernear(rng, i):
    gen_p, tgt = _poly(rng, i, 1, 3), _poly(rng, i + 1, 1, 3)
    meshes = (Fraction(1, 4), Fraction(1, 8))
    anti = oracle.poly_antideriv(list(gen_p.c))
    rows = []
    for h in meshes:
        pts = [k * h for k in range(int(1 / h) + 1)]
        worst = Fraction(0)
        for lo, hi in zip(pts, pts[1:]):
            avg = (oracle.poly_eval(anti, hi) - oracle.poly_eval(anti, lo)) / h
            for x in (lo, hi, (lo + hi) / 2):
                worst = max(worst, abs(avg - oracle.poly_eval(list(tgt.c), x)))
        rows.append((h, worst))
    return (["probe-supernear", f"--generator={gen.text(gen_p)}", f"--target={gen.text(tgt)}",
             "--on=0,1", "--meshes=1/4,1/8"],
            lambda r: [(_q(x["mesh"]), _q(x["max_deviation"])) for x in r["rows"]] == rows
            and r["decreasing"] == (rows[0][1] > rows[1][1]))


GENERATORS = {
    "eval": _req_eval, "st": _req_st, "classify": _req_classify, "limit-seq": _req_limit_seq,
    "limit-fn": _req_limit_fn, "diff": _req_diff, "jet": _req_jet, "increment": _req_increment,
    "tangent": _req_tangent, "curvature": _req_curvature, "jacobian": _req_jacobian,
    "kinematics": _req_kinematics, "integrate": _req_integrate, "measure": _req_measure,
    "converge": _req_converge, "probe-supernear": _req_supernear,
}


class Request:
    """One catalogue entry.  ``key`` names its schema row; ``operation`` is
    the reply's expected ``operation`` field."""

    def __init__(self, command: str, made):
        tail, self.value_ok = made[0], made[1]
        self.key = made[2] if len(made) > 2 else command
        self.operation = {"converge": "converge riemann"}.get(
            self.key, self.key if self.key.startswith("measure") else command)
        # options go before positionals; a "--" in the tail ends them, for
        # series literals that start with a minus sign
        self.argv = [tail[0], "--format=json"] + tail[1:]
        self.seen: str | None = None  # first reply, for the byte-identity check


class State:
    def __init__(self, h, seed: int):
        self.h = h
        self.seed = seed
        self.catalogue = {}
        for command, _ in MIX:
            rng = gen.rng_for(seed, NAME, command)
            self.catalogue[command] = [Request(command, GENERATORS[command](rng, i))
                                       for i in range(PER_COMMAND)]
        weights = [1 / k**ZIPF_S for k in range(1, PER_COMMAND + 1)]
        self.cum_weights = list(accumulate(weights))
        self.sent = 0
        self.repeats = 0


def _op(state: State, req: Request) -> Op:
    def run():
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = state.h.cli.run(req.argv)
        except SystemExit as ex:  # argparse rejects usage errors by exiting
            code = ex.code
        if code != 0:
            raise RuntimeError(f"exit {code}: {err.getvalue().strip()}")
        return out.getvalue()

    def check(reply: str):
        state.sent += 1
        if req.seen is not None:
            state.repeats += 1
            return None if reply == req.seen else f"{req.argv}: reply differs from the first one"
        req.seen = reply
        try:
            doc = json.loads(reply)
            if reply != json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n":
                return f"{req.argv}: reply is not one line of minified sorted JSON"
            err = _schema_error(doc, req.key)
            if err is None and doc["operation"] != req.operation:
                err = f"operation {doc['operation']!r} != {req.operation!r}"
            if err is None and not req.value_ok(doc if req.key == "converge" else doc["result"]):
                err = f"value check failed: {reply.strip()}"
        except (ValueError, KeyError, TypeError) as ex:
            err = f"{type(ex).__name__}: {ex}"
        return None if err is None else f"{req.argv}: {err}"

    return Op(req.argv[0], run, check)


def setup(h, seed: int) -> State:
    return State(h, seed)


def round_ops(state: State, r: int) -> list:
    ops = []
    for command, count in MIX:
        rng = gen.rng_for(state.seed, NAME, "draw", command, r)
        for req in rng.choices(state.catalogue[command], cum_weights=state.cum_weights, k=count):
            ops.append(_op(state, req))
    gen.rng_for(state.seed, NAME, "order", r).shuffle(ops)
    return ops


def warmup_ops(state: State) -> list:
    """One request per subcommand from outside the catalogue."""
    ops = []
    for command, _ in MIX:
        req = Request(command, GENERATORS[command](gen.rng_for(state.seed, NAME, "warmup", command), 0))
        ops.append(_op(state, req))
    return ops


def report(state: State) -> list[str]:
    share = state.repeats / state.sent if state.sent else 0.0
    return [f"repeated requests: {state.repeats} of {state.sent} ({share:.1%})"]
