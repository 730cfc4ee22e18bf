"""Command-line front end.

Every subcommand prints either plain text or a JSON document (--format json)
and exits 0 on success, 1 on a mathematical domain error (one machine-
parseable line on stderr naming the error case), 2 on malformed input.
Output is byte-identical across runs for identical invocations and seeds.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from fractions import Fraction
from functools import cache
from typing import NamedTuple

from . import calculus, integration
from .calculus import CurveDef
from .errors import MathError, ParseError
from .exprs import Expr, compile_real, eval_real, free_vars, parse
from .field import Field, parse_hyperreal
from .integration import (
    Gauge,
    PartitionSpec,
    Rect,
    Region,
    TAG_RULES,
    adaptive_simpson,
    converge_study,
    first_variable,
)
from .rationals import decimal_str, format_rational as _fmt, parse_rational


class _UsageError(ValueError):
    """An argparse usage error; ``run`` reports it as one line with exit code 2."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _pretty(q: Fraction) -> str:
    """Exact rational, with a decimal hint once the digits stop being readable."""
    text = _fmt(q)
    if q.denominator > 10**6:
        return f"{text} (~ {decimal_str(q)})"
    return text


def _field_from(args) -> Field:
    precision = args.precision
    if precision is None:
        precision = int(os.environ.get("HRW_PRECISION", "40"))
    return Field(parse_rational(args.window), precision)


def _parse_env(text: str | None) -> dict[str, Fraction]:
    env: dict[str, Fraction] = {}
    if not text:
        return env
    for item in text.split(","):
        name, sep, value = item.partition("=")
        if not sep:
            raise ParseError(0, "name=value binding", repr(item))
        env[name.strip()] = parse_rational(value)
    return env


def _parse_interval(text: str) -> tuple[Fraction, Fraction]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ParseError(0, "interval a,b", repr(text))
    a, b = parse_rational(parts[0]), parse_rational(parts[1])
    if a >= b:
        raise ParseError(0, "interval with a < b", repr(text))
    return a, b


def _parse_rect(text: str) -> Rect:
    return Rect(tuple(_parse_interval(axis) for axis in text.split(";")))


def _parse_curve(text: str) -> CurveDef:
    return CurveDef.from_exprs(_parse_exprs(text))


def _parse_exprs(text: str) -> list[Expr]:
    return [parse(part.strip()) for part in text.split(";")]


def _parse_rationals(text: str) -> list[Fraction]:
    return [parse_rational(part) for part in text.split(",")]


def _parse_mesh(text: str) -> Fraction:
    mesh = parse_rational(text)
    if mesh <= 0:
        raise ParseError(0, "positive mesh", repr(text))
    return mesh


def _parse_meshes(text: str) -> list[Fraction]:
    """The meshes of a study, widest first; a repeated mesh is refused."""
    meshes = sorted(map(_parse_mesh, text.split(",")), reverse=True)
    if len(set(meshes)) < len(meshes):
        raise ValueError("meshes must be strictly decreasing")
    return meshes


def _cells_for(a: Fraction, b: Fraction, mesh: Fraction) -> int:
    """The fewest cells of width at most ``mesh`` (positive) covering [a, b]."""
    m = int((b - a) / mesh)
    return m + 1 if m * mesh < b - a else m


def _emit(args, operation: str, result: dict, text: str) -> None:
    if args.format == "json":
        doc = {
            "operation": operation,
            "params": {k: str(v) for k, v in _params(args).items()},
            "result": result,
        }
        print(json.dumps(doc, sort_keys=True, separators=(",", ":")))
    else:
        print(text)


def _limit_json(res: calculus.LimitResult) -> dict:
    return {
        "value": str(res.value) if res.value is not None else None,
        "left": str(res.left) if res.left is not None else None,
        "right": str(res.right) if res.right is not None else None,
        "method": res.method,
        "note": res.note,
    }


def build_parser() -> _Parser:
    def make_common(defaults: bool) -> _Parser:
        # subparser copies must not re-apply defaults over values the top
        # parser already set (argparse clobbers the namespace before 3.13)
        d = (lambda v: v) if defaults else (lambda v: argparse.SUPPRESS)
        common = _Parser(add_help=False)
        common.add_argument("--window", default=d("16"),
                            help="ceiling of the window calculus probes widen to; relative "
                                 "truncation width of series literals (default 16)")
        common.add_argument("--precision", type=int, default=d(None),
                            help="decimal digits for constants (default 40 or HRW_PRECISION)")
        common.add_argument("--format", choices=("text", "json"), default=d("text"))
        common.add_argument("--seed", type=int, default=d(0),
                            help="seeded-random tags: SplitMix64 seed, taken mod 2^64")
        return common

    top = _Parser(prog="hrw", description="hyperreal workbench", parents=[make_common(True)])
    subparsers = top.add_subparsers(dest="command", required=True)
    sub_common = make_common(False)

    class sub:  # noqa: N801 - local shorthand for subparser registration
        @staticmethod
        def add_parser(name, *parents, **kw):
            return subparsers.add_parser(name, parents=[sub_common, *parents], **kw)

    sums = _Parser(add_help=False)  # the options measure and converge share
    helps = {"region": "membership expression <= 0",
             "rect": "box a,b;c,d: riemann's domain, or a region's (default [-1,1] per axis)",
             "field": "force components separated by ';'"}
    for name in ("f", "g", "rho", "integrand", "region", "rect", "curve", "field", "force", "on"):
        sums.add_argument(f"--{name}", default=None, help=helps.get(name))
    sums.add_argument("--tags", default="min-vertex", choices=TAG_RULES)

    p = sub.add_parser("eval", help="evaluate an expression at rational points")
    p.add_argument("expr")
    p.add_argument("--at", default=None, help="bindings like x=2,y=1/3")

    p = sub.add_parser("st", help="standard part of a series literal")
    p.add_argument("series", help="canonical form, e.g. '3 + 1*eps^1'")

    p = sub.add_parser("classify", help="classify a series literal")
    p.add_argument("series")

    p = sub.add_parser("limit-seq", help="limit of a sequence expression in n")
    p.add_argument("expr")
    p.add_argument("--method", choices=("auto", "field", "numeric"), default="auto")

    p = sub.add_parser("limit-fn", help="two-sided function limit")
    p.add_argument("expr")
    p.add_argument("--at", required=True)

    p = sub.add_parser("diff", help="n-th derivative at a point")
    p.add_argument("expr")
    p.add_argument("--at", required=True)
    p.add_argument("--order", type=int, default=1)

    p = sub.add_parser("jet", help="Taylor coefficients at a point")
    p.add_argument("expr")
    p.add_argument("--at", required=True)
    p.add_argument("--order", type=int, default=4)

    p = sub.add_parser("increment", help="n-th alternating difference with step eps")
    p.add_argument("expr")
    p.add_argument("--at", required=True)
    p.add_argument("--order", type=int, default=1)

    p = sub.add_parser("tangent", help="unit tangent and its certificate")
    p.add_argument("--curve", required=True, help="components separated by ';'")
    p.add_argument("--at", required=True)

    p = sub.add_parser("curvature", help="curvature and osculating circle")
    p.add_argument("--curve", required=True)
    p.add_argument("--at", required=True)

    p = sub.add_parser("jacobian", help="matrix of partials with residual check")
    p.add_argument("--map", required=True, help="components separated by ';'")
    p.add_argument("--at", required=True, help="point like 1,2")

    p = sub.add_parser("kinematics", help="velocity and acceleration of a distance law")
    p.add_argument("expr")
    p.add_argument("--at", required=True)

    p = sub.add_parser("integrate", help="partition sums over an interval or box")
    p.add_argument("expr")
    p.add_argument("--method", default="riemann",
                   choices=("riemann", "darboux", "stieltjes", "gauge", "mcshane"))
    p.add_argument("--on", default=None, help="interval a,b")
    p.add_argument("--rect", default=None, help="box a,b;c,d (riemann/darboux)")
    p.add_argument("--mesh", default="1/64", help="cell width; the gauge methods do not read it")
    p.add_argument("--tags", default="min-vertex", choices=TAG_RULES)
    p.add_argument("--phi", default=None, help="integrator for stieltjes")
    p.add_argument("--gauge", default=None, help="gauge radius expression")
    p.add_argument("--samples", type=int, default=5, help="darboux grid per axis")

    p = sub.add_parser("measure", sums, help="named geometric and physical measures")
    p.add_argument("kind", choices=("area", "volume-rev", "surface-rev", "length",
                                    "mass", "com", "moment", "work", "impulse",
                                    "morley"))
    p.add_argument("--mesh", default="1/64", help="cell width; morley does not read it")
    p.add_argument("--meshes", default=None, help="run a convergence study instead")
    p.add_argument("--oracle", default=None, help="closed-form value for reports")
    p.add_argument("--radius", default="1", help="disc radius for morley")
    p.add_argument("--n", type=int, default=10, help="strip count for morley")
    p.add_argument("--edge", default="outer", choices=("outer", "inner"))

    p = sub.add_parser("converge", sums, help="mesh-indexed study of a sum operation")
    p.add_argument("op", choices=("riemann", "area", "length", "work", "moment", "impulse"))
    p.add_argument("--expr", default=None)
    p.add_argument("--meshes", required=True)
    p.add_argument("--oracle", default="simpson",
                   help="rational value, or 'simpson' for the quadrature oracle")
    p.add_argument("--path", default="integral",
                   choices=("integral", "polygonal", "chord", "integrand"))

    p = sub.add_parser("probe-supernear", help="cell-average vs. generator deviation trend")
    p.add_argument("--generator", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--on", required=True)
    p.add_argument("--meshes", required=True)

    return top


# -- subcommand bodies ------------------------------------------------------------------


def _cmd_eval(args, cfg: Field) -> None:
    expr = parse(args.expr)
    env = _parse_env(args.at)
    value = eval_real(expr, env, cfg.precision)
    _emit(args, "eval", {"value": _fmt(value)}, _fmt(value))


def _cmd_st(args, cfg: Field) -> None:
    x = parse_hyperreal(args.series, cfg.window, cfg.precision)
    value = x.st()
    _emit(args, "st", {"value": str(value)}, str(value))


def _cmd_classify(args, cfg: Field) -> None:
    x = parse_hyperreal(args.series, cfg.window, cfg.precision)
    tag = x.classify().value
    _emit(args, "classify", {"classification": tag}, tag)


def _cmd_limit_seq(args, cfg: Field) -> None:
    res = calculus.seq_limit(parse(args.expr), cfg, method=args.method)
    _emit(args, "limit-seq", _limit_json(res), str(res))


def _cmd_limit_fn(args, cfg: Field) -> None:
    res = calculus.fn_limit(parse(args.expr), parse_rational(args.at), cfg)
    _emit(args, "limit-fn", _limit_json(res), str(res))


def _cmd_diff(args, cfg: Field) -> None:
    value = calculus.derivative(parse(args.expr), parse_rational(args.at), args.order, cfg)
    _emit(args, "diff", {"value": _fmt(value)}, _fmt(value))


def _cmd_jet(args, cfg: Field) -> None:
    jet = calculus.taylor_jet(parse(args.expr), parse_rational(args.at), args.order, cfg)
    coeffs = [_fmt(c) for c in jet.coeffs]
    _emit(args, "jet", {"base": _fmt(jet.base), "coefficients": coeffs},
          "[" + ", ".join(coeffs) + "]")


def _cmd_increment(args, cfg: Field) -> None:
    n = args.order
    c = parse_rational(args.at)
    inc = calculus.nth_increment(parse(args.expr), c, cfg.epsilon(), n, cfg)
    ratio = (inc / cfg.epsilon() ** n).st()
    text = f"{inc.render()}  st(/eps^{n}) = {ratio}"
    _emit(args, "increment", {"series": inc.render(), "ratio_st": str(ratio)}, text)


def _cmd_tangent(args, cfg: Field) -> None:
    curve = _parse_curve(args.curve)
    t0 = parse_rational(args.at)
    T = calculus.unit_tangent(curve, t0, cfg)
    cert = calculus.tangent_certificate(curve, t0, cfg, vector=T)
    text = "T = (" + ", ".join(_fmt(x) for x in T) + f")  certificate = {_fmt(cert)}"
    _emit(args, "tangent", {"vector": [_fmt(x) for x in T], "certificate": _fmt(cert)}, text)


def _cmd_curvature(args, cfg: Field) -> None:
    curve = _parse_curve(args.curve)
    res = calculus.curvature(curve, parse_rational(args.at), cfg)
    if res.straight:
        result = {"kappa": "0", "straight": True, "normal": None, "center": None,
                  "radius": None}
        text = "kappa = 0 (straight line)"
    else:
        result = {
            "kappa": _fmt(res.kappa),
            "straight": False,
            "radius": _fmt(res.radius),
            "normal": [_fmt(x) for x in res.unit_normal],
            "center": [_fmt(x) for x in res.center],
        }
        text = (f"kappa = {_fmt(res.kappa)}  radius = {_fmt(res.radius)}  "
                f"center = (" + ", ".join(_fmt(x) for x in res.center) + ")")
    _emit(args, "curvature", result, text)


def _cmd_jacobian(args, cfg: Field) -> None:
    comps = _parse_exprs(args.map)
    point = _parse_rationals(args.at)
    res = calculus.jacobian(comps, point, cfg)
    rows = [[_fmt(x) for x in row] for row in res.matrix]
    text = "\n".join("[" + ", ".join(row) + "]" for row in rows)
    text += f"\nresidual_order_ok = {res.residual_order_ok}"
    _emit(args, "jacobian", {"matrix": rows, "residual_order_ok": res.residual_order_ok}, text)


def _cmd_kinematics(args, cfg: Field) -> None:
    v, a = calculus.kinematics(parse(args.expr), parse_rational(args.at), cfg)
    _emit(args, "kinematics", {"velocity": _fmt(v), "acceleration": _fmt(a)},
          f"v = {_fmt(v)}  a = {_fmt(a)}")


# -- the sums of integrate, measure and converge ------------------------------------------


class _Sum(NamedTuple):
    """A sum kind: the options it must be given ("on|rect": either), every
    option it reads in the order params list them ("mesh" where it reads a
    mesh), and the result a study follows unless --path names another."""

    needs: tuple[str, ...]
    reads: tuple[str, ...]
    study: str = "value"


_SUMS = {
    "riemann": _Sum(("on|rect", "expr"), ("expr", "rect", "on", "mesh", "tags")),
    "darboux": _Sum(("on|rect",), ("expr", "rect", "on", "mesh", "samples")),
    "stieltjes": _Sum(("on", "phi"), ("expr", "on", "phi", "mesh", "tags")),
    "gauge": _Sum(("on", "gauge"), ("expr", "on", "gauge")),
    "mcshane": _Sum(("on", "gauge"), ("expr", "on", "gauge")),
    "area": _Sum(("on", "f", "g"), ("f", "g", "on", "mesh", "tags")),
    "volume-rev": _Sum(("on", "f"), ("f", "on", "mesh")),
    "surface-rev": _Sum(("on", "f"), ("f", "on", "mesh")),
    "length": _Sum(("on", "curve"), ("curve", "on", "mesh", "path"), "integral"),
    "mass": _Sum(("region",), ("rho", "region", "rect", "mesh"), "mass"),
    "com": _Sum(("region",), ("rho", "region", "rect", "mesh"), "mass"),
    "moment": _Sum(("region",), ("rho", "integrand", "region", "rect", "mesh")),
    "work": _Sum(("on", "field", "curve"), ("curve", "field", "on", "mesh", "path"), "integrand"),
    "impulse": _Sum(("on", "force"), ("force", "on", "mesh")),
    "morley": _Sum((), ("radius", "n", "edge")),
}
# the option of each sum command that names its kind
_KIND = {"integrate": "method", "measure": "kind", "converge": "op"}
# measure kinds that run a convergence study for --meshes (and report --oracle)
_MESH_KINDS = ("area", "moment", "mass", "impulse")
# the common options and the subcommand's name, which no params list
_COMMON = ("window", "precision", "format", "seed", "command")


@cache
def _reads(dest: str, kind: str, study: bool) -> tuple[str, ...]:
    """The options a request of the sum kind reads: the kind, its own options,
    and --meshes and --oracle in a study, else the --mesh it sums at."""
    meshes = ("meshes", "oracle") if study else ("mesh",)
    return (dest, *(read for name in _SUMS[kind].reads
                    for read in (meshes if name == "mesh" else (name,))))


def _params(args) -> dict:
    """The options the request reads: the subcommand's own options that are set;
    for a sum, those its kind reads, and --seed for seeded-random tags."""
    dest = _KIND.get(args.command)
    if dest is None:
        return {k: v for k, v in vars(args).items() if k not in _COMMON and v is not None}
    names = _reads(dest, getattr(args, dest), bool(getattr(args, "meshes", None)))
    params = {k: v for k in names if (v := getattr(args, k, None)) is not None}
    if "rect" in params:  # riemann and darboux read a box instead of --on
        params.pop("on", None)
    if params.get("tags") == "seeded-random":
        params["seed"] = args.seed
    return params


def _require(args, needs: tuple[str, ...], what: str) -> None:
    missing = [" or ".join(f"--{name}" for name in need.split("|")) for need in needs
               if not any(getattr(args, name) for name in need.split("|"))]
    if missing:
        raise ParseError(0, f"{' and '.join(missing)} for {what}", "missing")


def _spec(rect: Rect, mesh: Fraction) -> PartitionSpec:
    return PartitionSpec.simple(*(_cells_for(a, b, mesh) for a, b in rect.intervals))


def _parse_sum(args, kind: str, d: int):
    """Parse the options of a sum kind once. Return the function of the mesh
    (given None for a kind that reads none) that yields the kind's named exact
    results, and a thunk for the integrand of converge's Simpson oracle (None
    where the kind has no single integrand over --on)."""
    if kind == "morley":
        radius = parse_rational(args.radius)
        return (lambda mesh: {"value": integration.morley_strip_sum(
            radius, args.n, args.edge, d)}), None
    if kind in ("mass", "com", "moment"):
        membership = parse(args.region)
        if args.rect:
            rect = _parse_rect(args.rect)
        else:
            dim = max(len(free_vars(membership) & {"x", "y", "z"}), 1)
            rect = Rect.box(*(((-1, 1),) * dim))
        region, rho = Region(rect, membership), parse(args.rho or "1")
        if kind == "moment":
            integrand = parse(args.integrand or "1")
            return (lambda mesh: {"value": integration.measure_moment(
                rho, integrand, region, _spec(rect, mesh), d)}), None

        def mass(mesh):
            props = integration.measure_mass_moment_com(rho, region, _spec(rect, mesh), d)
            result = {"mass": props.mass, "moments": props.moments}
            return result | {"centroid": props.centroid} if kind == "com" else result

        return mass, None
    if kind in ("riemann", "darboux"):
        rect = _parse_rect(args.rect) if args.rect else Rect.interval(*_parse_interval(args.on))
        expr = parse(args.expr)
        if kind == "darboux":
            return (lambda mesh: integration.darboux_bounds(
                expr, rect, _spec(rect, mesh), args.samples, d)._asdict()), None
        return ((lambda mesh: {"value": integration.riemann_sum(
            expr, rect, _spec(rect, mesh), args.tags, args.seed, d)}),
                None if args.rect else lambda: expr)
    a, b = _parse_interval(args.on)
    if kind in ("gauge", "mcshane"):
        expr, gauge = parse(args.expr), Gauge(parse(args.gauge))
        mode = "mcshane" if kind == "mcshane" else "tag-in-cell"
        return (lambda mesh: {"value": integration.gauge_sum(expr, a, b, gauge, mode, d)}), None
    if kind == "stieltjes":
        expr, phi = parse(args.expr), parse(args.phi)
        return (lambda mesh: {"value": integration.riemann_stieltjes_sum(
            expr, phi, a, b, PartitionSpec.simple(_cells_for(a, b, mesh)), args.tags,
            args.seed, d)}), None
    if kind == "area":
        f, g = parse(args.f), parse(args.g)
        return ((lambda mesh: {"value": integration.measure_area_between(
            f, g, a, b, _cells_for(a, b, mesh), args.tags, d, args.seed)}),
                lambda: parse(f"({args.g})-({args.f})"))
    if kind == "length":
        curve = _parse_curve(args.curve)
        return (lambda mesh: integration.measure_curve_length(
            curve, a, b, _cells_for(a, b, mesh), d)._asdict()), None
    if kind == "work":
        curve, field = _parse_curve(args.curve), _parse_exprs(args.field)
        return (lambda mesh: integration.line_integral_work(
            field, curve, a, b, _cells_for(a, b, mesh), d)._asdict()), None
    # volume-rev, surface-rev and impulse sum one expression
    expr = parse(args.force if kind == "impulse" else args.f)
    total = {"volume-rev": integration.measure_volume_revolution,
             "surface-rev": integration.measure_surface_revolution,
             "impulse": integration.impulse}[kind]
    return (lambda mesh: {"value": total(expr, a, b, _cells_for(a, b, mesh), d)},
            (lambda: expr) if kind == "impulse" else None)


def _study(args, kind: str, values, study: str, meshes: list[Fraction],
           oracle: Fraction | None, notes: tuple[str, ...]) -> None:
    """Tabulate the result --path names, else ``study``, of values(mesh) over the
    meshes against the oracle (None: the study's extrapolated estimate); print it."""
    operation = f"{args.command} {kind}"
    path = getattr(args, "path", None)

    def target(mesh: Fraction) -> Fraction:
        result = values(mesh)
        return result.get(path, result[study])

    report = converge_study(operation, target, meshes, oracle or 0, _params(args), notes)
    if oracle is None:
        report = dataclasses.replace(report, oracle=report.estimate)
    if args.format == "json":
        print(json.dumps(report.to_json_dict(), sort_keys=True, separators=(",", ":")))
    else:
        print(report.to_text())


def _measure_text(result: dict) -> str:
    if "centroid" in result:
        return "centroid = (" + ", ".join(map(_fmt, result["centroid"])) + ")"
    if "mass" in result:
        return f"mass = {_fmt(result['mass'])}"
    if "value" in result:
        return _pretty(result["value"])
    if "lower" in result:
        text = f"L = {_fmt(result['lower'])}  U = {_fmt(result['upper'])}"
        flagged = result["nonmonotone_cells"]
        if flagged:  # such a cell's bounds come from its samples alone
            text += f"  ({flagged} nonmonotone cell{'s' * (flagged > 1)}: inner estimate)"
        return text
    return "  ".join(f"{k} = {_pretty(v)}" for k, v in result.items())


def _cmd_measure(args, cfg: Field) -> None:
    """integrate, and measure: the kind's results at one mesh, or measure's study
    over --meshes."""
    kind = getattr(args, _KIND[args.command])
    needs, reads, study = _SUMS[kind]
    what = f"{args.command} {kind}"
    # measure moment has no default --integrand; converge moment integrates rho alone
    _require(args, needs + ("integrand",) * (what == "measure moment"), what)
    meshes, oracle = getattr(args, "meshes", None), getattr(args, "oracle", None)
    if (meshes or oracle) and kind not in _MESH_KINDS:
        raise _UsageError(
            f"--meshes and --oracle apply to measure {'/'.join(_MESH_KINDS)}, not {kind}"
        )
    if oracle and not meshes:
        raise _UsageError("--oracle needs --meshes")
    if meshes:
        meshes = _parse_meshes(meshes)
        oracle = parse_rational(oracle) if oracle else None
        notes = () if oracle is not None else ("oracle: extrapolated (no closed form supplied)",)
        # the options are read at the first mesh, after converge_study has checked the meshes
        values = cache(lambda: _parse_sum(args, kind, cfg.precision)[0])
        _study(args, kind, lambda mesh: values()(mesh), study, meshes, oracle, notes)
        return
    mesh = _parse_mesh(args.mesh) if "mesh" in reads else None
    result = _parse_sum(args, kind, cfg.precision)[0](mesh)
    shown = {k: [_fmt(x) for x in v] if isinstance(v, tuple) else v if isinstance(v, int)
             else _fmt(v) for k, v in result.items()}  # darboux's cell count stays an int
    _emit(args, what if args.command == "measure" else args.command, shown, _measure_text(result))


def _cmd_converge(args, cfg: Field) -> None:
    needs, _, study = _SUMS[args.op]
    _require(args, needs, f"converge {args.op}")
    meshes = _parse_meshes(args.meshes)
    values, integrand = _parse_sum(args, args.op, cfg.precision)
    if args.oracle != "simpson":
        oracle, notes = parse_rational(args.oracle), ()
    elif integrand is None:
        raise ParseError(0, "a rational --oracle for this op", "'simpson'")
    else:
        quad = integrand()
        fn = compile_real(quad, (first_variable("x", quad),), cfg.precision)
        oracle = adaptive_simpson(fn, *_parse_interval(args.on))
        notes = (f"oracle: adaptive Simpson, tolerance 1e-{integration.SIMPSON_DIGITS}",)
    _study(args, args.op, values, study, meshes, oracle, notes)


def _cmd_probe_supernear(args, cfg: Field) -> None:
    a, b = _parse_interval(args.on)
    meshes = _parse_meshes(args.meshes)
    rep = integration.supernearness_probe(parse(args.generator), parse(args.target), a, b,
                                          [_cells_for(a, b, m) for m in meshes], cfg.precision)
    # each row at its requested mesh, as in measure and converge
    devs = [(m, dev) for m, (_, dev) in zip(meshes, rep.rows)]
    rows = [{"mesh": _fmt(m), "max_deviation": _fmt(dev)} for m, dev in devs]
    text_lines = ["supernearness probe (finite-scale emulation)"]
    text_lines += [f"  mesh {_fmt(m):>10}  max deviation {_fmt(dev)}" for m, dev in devs]
    text_lines.append(f"  decreasing: {rep.decreasing()}")
    _emit(args, "probe-supernear", {"rows": rows, "decreasing": rep.decreasing()},
          "\n".join(text_lines))


_COMMANDS = {
    "eval": _cmd_eval,
    "st": _cmd_st,
    "classify": _cmd_classify,
    "limit-seq": _cmd_limit_seq,
    "limit-fn": _cmd_limit_fn,
    "diff": _cmd_diff,
    "jet": _cmd_jet,
    "increment": _cmd_increment,
    "tangent": _cmd_tangent,
    "curvature": _cmd_curvature,
    "jacobian": _cmd_jacobian,
    "kinematics": _cmd_kinematics,
    "integrate": _cmd_measure,
    "measure": _cmd_measure,
    "converge": _cmd_converge,
    "probe-supernear": _cmd_probe_supernear,
}


@cache
def _parser() -> _Parser:
    """The process-wide parser; parse_args leaves it unchanged, so requests share it."""
    return build_parser()


def run(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        cfg = _field_from(args)
        _COMMANDS[args.command](args, cfg)
        return 0
    except ParseError as ex:
        sys.stderr.write(f"parse-error: {ex}\n")
        return 2
    except MathError as ex:
        sys.stderr.write(f"error: {ex.case}: {ex}\n")
        return 1
    except ValueError as ex:  # usage errors, invalid geometry/argument combinations
        sys.stderr.write(f"usage-error: {ex}\n")
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
