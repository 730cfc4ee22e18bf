"""Command-line front end.

Every subcommand prints either plain text or a JSON document (--format json)
and exits 0 on success, 1 on a mathematical domain error (one machine-
parseable line on stderr naming the error case), 2 on malformed input.
Output is byte-identical across runs for identical invocations and seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

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
)
from .rationals import decimal_str, format_rational, parse_rational


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # single-line usage errors, exit code 2
        sys.stderr.write(f"usage-error: {message}\n")
        sys.exit(2)


def _fmt(q: Fraction) -> str:
    return format_rational(q)


def _pretty(q: Fraction) -> str:
    """Exact rational, with a decimal hint once the digits stop being readable."""
    text = format_rational(q)
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
    return CurveDef.from_exprs([parse(part.strip()) for part in text.split(";")])


def _parse_exprs(text: str) -> list[Expr]:
    return [parse(part.strip()) for part in text.split(";")]


def _parse_rationals(text: str) -> list[Fraction]:
    return [parse_rational(part) for part in text.split(",")]


def _cells_for(a: Fraction, b: Fraction, mesh: Fraction) -> int:
    m = int((b - a) / mesh)
    if m * mesh < b - a:
        m += 1
    return max(m, 1)


def _emit(args, operation: str, params: dict, result: dict, text: str) -> None:
    if args.format == "json":
        doc = {
            "operation": operation,
            "params": {k: str(v) for k, v in params.items()},
            "result": result,
        }
        print(json.dumps(doc, sort_keys=True, separators=(",", ":")))
    else:
        print(text)


def _emit_report(args, report) -> None:
    if args.format == "json":
        print(json.dumps(report.to_json_dict(), sort_keys=True, separators=(",", ":")))
    else:
        print(report.to_text())


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
        common.add_argument("--window", default=d("16"), help="relative truncation width")
        common.add_argument("--precision", type=int, default=d(None),
                            help="decimal digits for constants (default 40 or HRW_PRECISION)")
        common.add_argument("--format", choices=("text", "json"), default=d("text"))
        common.add_argument("--seed", type=int, default=d(0), help="seed for random tag rules")
        return common

    top = _Parser(prog="hrw", description="hyperreal workbench", parents=[make_common(True)])
    subparsers = top.add_subparsers(dest="command", required=True)
    sub_common = make_common(False)

    class sub:  # noqa: N801 - local shorthand for subparser registration
        @staticmethod
        def add_parser(name, **kw):
            return subparsers.add_parser(name, parents=[sub_common], **kw)

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
    p.add_argument("--mesh", default="1/64", help="cell width")
    p.add_argument("--tags", default="min-vertex", choices=TAG_RULES)
    p.add_argument("--phi", default=None, help="integrator for stieltjes")
    p.add_argument("--gauge", default=None, help="gauge radius expression")
    p.add_argument("--samples", type=int, default=5, help="darboux grid per axis")

    p = sub.add_parser("measure", help="named geometric and physical measures")
    p.add_argument("kind", choices=("area", "volume-rev", "surface-rev", "length",
                                    "mass", "com", "moment", "work", "impulse",
                                    "morley"))
    p.add_argument("--f", default=None)
    p.add_argument("--g", default=None)
    p.add_argument("--rho", default=None)
    p.add_argument("--integrand", default=None)
    p.add_argument("--region", default=None, help="membership expression <= 0")
    p.add_argument("--rect", default=None, help="bounding box, default [-1,1] per axis")
    p.add_argument("--curve", default=None)
    p.add_argument("--field", default=None, help="force components separated by ';'")
    p.add_argument("--force", default=None)
    p.add_argument("--on", default=None)
    p.add_argument("--mesh", default="1/64")
    p.add_argument("--meshes", default=None, help="run a convergence study instead")
    p.add_argument("--oracle", default=None, help="closed-form value for reports")
    p.add_argument("--radius", default="1", help="disc radius for morley")
    p.add_argument("--n", type=int, default=10, help="strip count for morley")
    p.add_argument("--edge", default="outer", choices=("outer", "inner"))
    p.add_argument("--tags", default="min-vertex", choices=TAG_RULES)

    p = sub.add_parser("converge", help="mesh-indexed study of a sum operation")
    p.add_argument("op", choices=("riemann", "area", "length", "work", "moment", "impulse"))
    p.add_argument("--expr", default=None)
    p.add_argument("--f", default=None)
    p.add_argument("--g", default=None)
    p.add_argument("--rho", default=None)
    p.add_argument("--integrand", default=None)
    p.add_argument("--region", default=None)
    p.add_argument("--rect", default=None)
    p.add_argument("--curve", default=None)
    p.add_argument("--field", default=None)
    p.add_argument("--force", default=None)
    p.add_argument("--on", default=None)
    p.add_argument("--meshes", required=True)
    p.add_argument("--oracle", default="simpson",
                   help="rational value, or 'simpson' for the quadrature oracle")
    p.add_argument("--tags", default="min-vertex", choices=TAG_RULES)
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
    _emit(args, "eval", {"expr": args.expr, "at": args.at or ""},
          {"value": _fmt(value)}, _fmt(value))


def _cmd_st(args, cfg: Field) -> None:
    x = parse_hyperreal(args.series, cfg.window, cfg.precision)
    value = x.st()
    _emit(args, "st", {"series": args.series}, {"value": str(value)}, str(value))


def _cmd_classify(args, cfg: Field) -> None:
    x = parse_hyperreal(args.series, cfg.window, cfg.precision)
    tag = x.classify().value
    _emit(args, "classify", {"series": args.series}, {"classification": tag}, tag)


def _cmd_limit_seq(args, cfg: Field) -> None:
    res = calculus.seq_limit(parse(args.expr), cfg, method=args.method)
    _emit(args, "limit-seq", {"expr": args.expr, "method": args.method},
          _limit_json(res), str(res))


def _cmd_limit_fn(args, cfg: Field) -> None:
    res = calculus.fn_limit(parse(args.expr), parse_rational(args.at), cfg)
    _emit(args, "limit-fn", {"expr": args.expr, "at": args.at},
          _limit_json(res), str(res))


def _cmd_diff(args, cfg: Field) -> None:
    value = calculus.derivative(parse(args.expr), parse_rational(args.at), args.order, cfg)
    _emit(args, "diff", {"expr": args.expr, "at": args.at, "order": args.order},
          {"value": _fmt(value)}, _fmt(value))


def _cmd_jet(args, cfg: Field) -> None:
    jet = calculus.taylor_jet(parse(args.expr), parse_rational(args.at), args.order, cfg)
    coeffs = [_fmt(c) for c in jet.coeffs]
    _emit(args, "jet", {"expr": args.expr, "at": args.at, "order": args.order},
          {"base": _fmt(jet.base), "coefficients": coeffs}, "[" + ", ".join(coeffs) + "]")


def _cmd_increment(args, cfg: Field) -> None:
    n = args.order
    c = parse_rational(args.at)
    inc = calculus.nth_increment(parse(args.expr), c, cfg.epsilon(), n, cfg)
    ratio = (inc / cfg.epsilon() ** n).st()
    text = f"{inc.render()}  st(/eps^{n}) = {ratio}"
    _emit(args, "increment", {"expr": args.expr, "at": args.at, "order": n},
          {"series": inc.render(), "ratio_st": str(ratio)}, text)


def _cmd_tangent(args, cfg: Field) -> None:
    curve = _parse_curve(args.curve)
    t0 = parse_rational(args.at)
    T = calculus.unit_tangent(curve, t0, cfg)
    cert = calculus.tangent_certificate(curve, t0, cfg)
    text = "T = (" + ", ".join(_fmt(x) for x in T) + f")  certificate = {_fmt(cert)}"
    _emit(args, "tangent", {"curve": args.curve, "at": args.at},
          {"vector": [_fmt(x) for x in T], "certificate": _fmt(cert)}, text)


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
    _emit(args, "curvature", {"curve": args.curve, "at": args.at}, result, text)


def _cmd_jacobian(args, cfg: Field) -> None:
    comps = _parse_exprs(args.map)
    point = _parse_rationals(args.at)
    res = calculus.jacobian(comps, point, cfg)
    rows = [[_fmt(x) for x in row] for row in res.matrix]
    text = "\n".join("[" + ", ".join(row) + "]" for row in rows)
    text += f"\nresidual_order_ok = {res.residual_order_ok}"
    _emit(args, "jacobian", {"map": args.map, "at": args.at},
          {"matrix": rows, "residual_order_ok": res.residual_order_ok}, text)


def _cmd_kinematics(args, cfg: Field) -> None:
    v, a = calculus.kinematics(parse(args.expr), parse_rational(args.at), cfg)
    _emit(args, "kinematics", {"expr": args.expr, "at": args.at},
          {"velocity": _fmt(v), "acceleration": _fmt(a)},
          f"v = {_fmt(v)}  a = {_fmt(a)}")


def _cmd_integrate(args, cfg: Field) -> None:
    expr = parse(args.expr)
    mesh = parse_rational(args.mesh)
    params = {"expr": args.expr, "method": args.method, "mesh": args.mesh}
    if args.method in ("gauge", "mcshane"):
        if not args.on or not args.gauge:
            raise ParseError(0, "--on and --gauge for gauge methods", "missing")
        a, b = _parse_interval(args.on)
        mode = "mcshane" if args.method == "mcshane" else "tag-in-cell"
        value = integration.gauge_sum(expr, a, b, Gauge(parse(args.gauge)), mode, cfg.precision)
        params["gauge"] = args.gauge
        _emit(args, "integrate", params, {"value": _fmt(value)}, _pretty(value))
        return
    if args.method == "stieltjes":
        if not args.on or not args.phi:
            raise ParseError(0, "--on and --phi for stieltjes", "missing")
        a, b = _parse_interval(args.on)
        m = _cells_for(a, b, mesh)
        value = integration.riemann_stieltjes_sum(
            expr, parse(args.phi), a, b, PartitionSpec.simple(m), args.tags,
            args.seed, cfg.precision)
        params["phi"] = args.phi
        _emit(args, "integrate", params, {"value": _fmt(value)}, _pretty(value))
        return
    if args.rect:
        rect = _parse_rect(args.rect)
    elif args.on:
        rect = Rect.interval(*_parse_interval(args.on))
    else:
        raise ParseError(0, "--on or --rect", "missing")
    counts = tuple(_cells_for(a, b, mesh) for a, b in rect.intervals)
    spec = PartitionSpec.simple(*counts)
    if args.method == "darboux":
        res = integration.darboux_bounds(expr, rect, spec, args.samples, cfg.precision)
        _emit(args, "integrate", params,
              {"lower": _fmt(res.lower), "upper": _fmt(res.upper),
               "nonmonotone_cells": res.nonmonotone_cells},
              f"L = {_fmt(res.lower)}  U = {_fmt(res.upper)}")
        return
    value = integration.riemann_sum(expr, rect, spec, args.tags, args.seed, cfg.precision)
    _emit(args, "integrate", params, {"value": _fmt(value)}, _pretty(value))


def _region_from(args) -> Region:
    if not args.region:
        raise ParseError(0, "--region", "missing")
    membership = parse(args.region)
    if args.rect:
        rect = _parse_rect(args.rect)
    else:
        dim = max(len(free_vars(membership) & {"x", "y", "z"}), 1)
        rect = Rect.box(*(((-1, 1),) * dim))
    return Region(rect, membership)


def _measure_single(args, cfg: Field, mesh: Fraction) -> tuple[dict, str]:
    kind = args.kind
    d = cfg.precision
    if kind == "area":
        a, b = _parse_interval(args.on)
        m = _cells_for(a, b, mesh)
        v = integration.measure_area_between(parse(args.f), parse(args.g), a, b, m,
                                             args.tags, d)
        return {"value": _fmt(v)}, _pretty(v)
    if kind == "volume-rev":
        a, b = _parse_interval(args.on)
        v = integration.measure_volume_revolution(parse(args.f), a, b,
                                                  _cells_for(a, b, mesh), d)
        return {"value": _fmt(v)}, _pretty(v)
    if kind == "surface-rev":
        a, b = _parse_interval(args.on)
        v = integration.measure_surface_revolution(parse(args.f), a, b,
                                                   _cells_for(a, b, mesh), d)
        return {"value": _fmt(v)}, _pretty(v)
    if kind == "length":
        a, b = _parse_interval(args.on)
        res = integration.measure_curve_length(_parse_curve(args.curve), a, b,
                                               _cells_for(a, b, mesh), d)
        return ({"polygonal": _fmt(res.polygonal), "integral": _fmt(res.integral)},
                f"polygonal = {_pretty(res.polygonal)}  integral = {_pretty(res.integral)}")
    if kind in ("mass", "com"):
        region = _region_from(args)
        counts = tuple(_cells_for(a, b, mesh) for a, b in region.bounding.intervals)
        props = integration.measure_mass_moment_com(
            parse(args.rho or "1"), region, PartitionSpec.simple(*counts), d)
        result = {"mass": _fmt(props.mass),
                  "moments": [_fmt(x) for x in props.moments]}
        if kind == "com":
            result["centroid"] = [_fmt(x) for x in props.centroid]
            text = "centroid = (" + ", ".join(result["centroid"]) + ")"
        else:
            text = f"mass = {result['mass']}"
        return result, text
    if kind == "moment":
        region = _region_from(args)
        counts = tuple(_cells_for(a, b, mesh) for a, b in region.bounding.intervals)
        v = integration.measure_moment(parse(args.rho or "1"), parse(args.integrand),
                                       region, PartitionSpec.simple(*counts), d)
        return {"value": _fmt(v)}, _pretty(v)
    if kind == "work":
        a, b = _parse_interval(args.on)
        res = integration.line_integral_work(_parse_exprs(args.field),
                                             _parse_curve(args.curve), a, b,
                                             _cells_for(a, b, mesh), "center", d)
        return ({"chord": _fmt(res.chord), "integrand": _fmt(res.integrand)},
                f"chord = {_pretty(res.chord)}  integrand = {_pretty(res.integrand)}")
    if kind == "impulse":
        a, b = _parse_interval(args.on)
        v = integration.impulse(parse(args.force), a, b, _cells_for(a, b, mesh), d)
        return {"value": _fmt(v)}, _pretty(v)
    if kind == "morley":
        v = integration.morley_strip_sum(parse_rational(args.radius), args.n,
                                         args.edge, d)
        return {"value": _fmt(v)}, _pretty(v)
    raise ParseError(0, "measure kind", kind)


def _cmd_measure(args, cfg: Field) -> None:
    params = {k: v for k, v in vars(args).items()
              if k not in ("command", "format", "precision", "window", "seed")
              and v is not None}
    if args.meshes and args.kind in ("area", "moment", "mass", "impulse"):
        meshes = _parse_rationals(args.meshes)
        values = {}

        def target(mesh: Fraction) -> Fraction:
            args_mesh = argparse.Namespace(**{**vars(args), "mesh": str(mesh)})
            result, _ = _measure_single(args_mesh, cfg, mesh)
            return parse_rational(result["value"] if "value" in result else result["mass"])

        rows = [(m, target(m)) for m in sorted(meshes, reverse=True)]
        estimate = integration.extrapolate([v for _, v in rows])
        notes = []
        if args.oracle:
            oracle = parse_rational(args.oracle)
        else:
            oracle = estimate
            notes.append("oracle: extrapolated (no closed form supplied)")
        report = integration.ConvergenceReport(
            f"measure {args.kind}", params, tuple(rows), estimate, oracle, tuple(notes))
        _emit_report(args, report)
        return
    result, text = _measure_single(args, cfg, parse_rational(args.mesh))
    _emit(args, f"measure {args.kind}", params, result, text)


def _cmd_converge(args, cfg: Field) -> None:
    d = cfg.precision
    meshes = sorted(_parse_rationals(args.meshes), reverse=True)
    params = {k: v for k, v in vars(args).items()
              if k not in ("command", "format", "precision", "window", "seed")
              and v is not None}

    if args.op == "riemann":
        a, b = _parse_interval(args.on)
        expr = parse(args.expr)

        def target(mesh):
            m = _cells_for(a, b, mesh)
            return integration.riemann_sum(expr, Rect.interval(a, b),
                                           PartitionSpec.simple(m), args.tags, args.seed, d)

        quad = expr
    elif args.op == "area":
        a, b = _parse_interval(args.on)
        f, g = parse(args.f), parse(args.g)

        def target(mesh):
            return integration.measure_area_between(f, g, a, b, _cells_for(a, b, mesh),
                                                    args.tags, d)

        quad = parse(f"({args.g})-({args.f})")
    elif args.op == "impulse":
        a, b = _parse_interval(args.on)
        force = parse(args.force)

        def target(mesh):
            return integration.impulse(force, a, b, _cells_for(a, b, mesh), d)

        quad = force
    elif args.op == "length":
        a, b = _parse_interval(args.on)
        curve = _parse_curve(args.curve)
        which = "polygonal" if args.path == "polygonal" else "integral"

        def target(mesh):
            res = integration.measure_curve_length(curve, a, b, _cells_for(a, b, mesh), d)
            return getattr(res, which)

        quad = None  # oracle must be rational or computed below
    elif args.op == "work":
        a, b = _parse_interval(args.on)
        curve = _parse_curve(args.curve)
        comps = _parse_exprs(args.field)
        which = "chord" if args.path == "chord" else "integrand"

        def target(mesh):
            res = integration.line_integral_work(comps, curve, a, b,
                                                 _cells_for(a, b, mesh), "center", d)
            return getattr(res, which)

        quad = None
    elif args.op == "moment":
        region = _region_from(args)
        rho = parse(args.rho or "1")
        integrand = parse(args.integrand or "1")

        def target(mesh):
            counts = tuple(_cells_for(a, b, mesh) for a, b in region.bounding.intervals)
            return integration.measure_moment(rho, integrand, region,
                                              PartitionSpec.simple(*counts), d)

        quad = None
    else:
        raise ParseError(0, "converge op", args.op)

    notes = []
    if args.oracle == "simpson":
        if quad is None:
            raise ParseError(0, "a rational --oracle for this op", "'simpson'")
        names = sorted(free_vars(quad)) or ["x"]
        fn = compile_real(quad, (names[0],), d)
        oracle = adaptive_simpson(fn, a, b)
        notes.append("oracle: adaptive Simpson, tolerance 1e-10")
    else:
        oracle = parse_rational(args.oracle)
    report = converge_study(f"converge {args.op}", target, meshes, oracle, params, notes)
    _emit_report(args, report)


def _cmd_probe_supernear(args, cfg: Field) -> None:
    a, b = _parse_interval(args.on)
    meshes = [int((b - a) / m) for m in sorted(_parse_rationals(args.meshes), reverse=True)]
    rep = integration.supernearness_probe(parse(args.generator), parse(args.target),
                                          a, b, meshes, cfg.precision)
    rows = [{"mesh": _fmt(m), "max_deviation": _fmt(dev)} for m, dev in rep.rows]
    text_lines = ["supernearness probe (finite-scale emulation)"]
    text_lines += [f"  mesh {_fmt(m):>10}  max deviation {_fmt(dev)}" for m, dev in rep.rows]
    text_lines.append(f"  decreasing: {rep.decreasing()}")
    _emit(args, "probe-supernear",
          {"generator": args.generator, "target": args.target, "on": args.on},
          {"rows": rows, "decreasing": rep.decreasing()}, "\n".join(text_lines))


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
    "integrate": _cmd_integrate,
    "measure": _cmd_measure,
    "converge": _cmd_converge,
    "probe-supernear": _cmd_probe_supernear,
}


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _field_from(args)
        _COMMANDS[args.command](args, cfg)
        return 0
    except ParseError as ex:
        sys.stderr.write(f"parse-error: {ex}\n")
        return 2
    except MathError as ex:
        sys.stderr.write(f"error: {ex.case}: {ex}\n")
        return 1
    except ValueError as ex:  # invalid geometry/argument combinations
        sys.stderr.write(f"usage-error: {ex}\n")
        return 2


def main() -> None:
    sys.exit(run())
