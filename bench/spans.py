"""Tracing for the per-layer metrics, installed from outside the program.

The tracer replaces public functions of ``hrw.*`` (and every module-level
name bound to them, so names that one module imported from another are
covered) with wrappers that record a span: name, start, end, parent span and
operation id.  Self time is a span's duration minus the time its child spans
cover, accumulated per span name as the spans close.  A call made while the
innermost open span has the same name (recursion, or one wrapped function
calling a sibling of the same layer name) is not a new span.

Every operation's spans feed the counters; the full span records are kept in
memory for every ``SAMPLE_EVERY``-th operation only, up to ``MAX_SPANS``, and
written out when the run ends.
"""

from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

SAMPLE_EVERY = 20
MAX_SPANS = 200_000

ROOT = "op"  # the benchmark's own span around one operation


def _spec_cells(spec, dim: int) -> int:
    if spec.kind == "simple":
        counts = spec.counts * dim if len(spec.counts) == 1 else spec.counts
    else:
        counts = [len(axis) - 1 for axis in spec.points]
    total = 1
    for m in counts:
        total *= m
    return total


def _cells_arg(position: int, keyword: str = "m"):
    def count(counts, args, kw, out):
        counts["integration.cells"] += kw[keyword] if keyword in kw else args[position]
    return count


def _count_spec(dim_of):
    def count(counts, args, kw, out):
        spec = kw.get("spec", args[2] if len(args) > 2 else None)
        counts["integration.cells"] += _spec_cells(spec, dim_of(args))
    return count


def _count_stieltjes(counts, args, kw, out):
    spec = kw.get("spec", args[4] if len(args) > 4 else None)
    counts["integration.cells"] += _spec_cells(spec, 1)


def _count_cousin(counts, args, kw, out):
    counts["integration.cells"] += len(out.cells)
    counts["integration.cousin_partition.cells"] += len(out.cells)


def _count_terms(counts, args, kw, out):
    if out is not NotImplemented:
        counts["field.terms_out"] += len(out.terms)


def _count_fallback(counts, args, kw, out):
    if out.method == "numeric-fallback":
        counts["calculus.seq_limit.fallbacks"] += 1


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # [name, start, child_time, span_id]
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.spans: list[tuple] = []
        self.op_id = -1
        self.op_total = 0.0
        self._next_id = 0
        self._record = False

    # -- operation boundaries -------------------------------------------------------

    def begin(self, op_id: int) -> None:
        self.op_id = op_id
        self._record = op_id % SAMPLE_EVERY == 0 and len(self.spans) < MAX_SPANS
        self._next_id += 1
        self.stack.append([ROOT, perf_counter(), 0.0, self._next_id])

    def end(self) -> None:
        name, start, child, sid = self.stack.pop()
        end = perf_counter()
        self.op_total += end - start
        self.self_time[ROOT] += end - start - child
        if self._record:
            self.spans.append((sid, 0, ROOT, start, end, self.op_id))

    # -- wrappers ---------------------------------------------------------------------

    def wrap(self, name: str, fn, count=None, on_result=None):
        stack = self.stack
        self_time, calls, counts = self.self_time, self.calls, self.counts

        def traced(*args, **kw):
            if not stack or stack[-1][0] == name:
                return fn(*args, **kw)
            self._next_id += 1
            frame = [name, perf_counter(), 0.0, self._next_id]
            parent = stack[-1]
            stack.append(frame)
            try:
                out = fn(*args, **kw)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - frame[1]
                self_time[name] += dur - frame[2]
                calls[name] += 1
                parent[2] += dur
                if self._record:
                    self.spans.append((frame[3], parent[3], name, frame[1], end, self.op_id))
            if count is not None:
                count(counts, args, kw, out)
            return on_result(out) if on_result is not None else out

        traced.__wrapped__ = fn
        return traced

    def install(self, h) -> None:
        """Wrap the layer boundaries of one imported copy of ``hrw``."""
        field, exprs, calculus, integration, cli, approx = (
            h.field, h.exprs, h.calculus, h.integration, h.cli, h.approx)
        rationals = h.rationals
        compiled = lambda fn: self.wrap("exprs.compiled", fn)  # noqa: E731
        targets = [
            ("cli.run", cli.run, None, None),
            ("cli.build_parser", cli.build_parser, None, None),
            ("exprs.parse", exprs.parse, None, None),
            ("exprs.compile_real", exprs.compile_real, None, compiled),
            ("exprs.eval_hyper", exprs.eval_hyper_traced, None, None),
            ("exprs.eval_hyper", exprs.eval_hyper, None, None),
            ("exprs.eval_real", exprs.eval_real, None, None),
            ("rationals.round_to_digits", rationals.round_to_digits, None, None),
            ("calculus.seq_limit", calculus.seq_limit, _count_fallback, None),
            ("integration.riemann_sum", integration.riemann_sum, _count_spec(lambda a: a[1].dimension), None),
            ("integration.darboux_bounds", integration.darboux_bounds, _count_spec(lambda a: a[1].dimension), None),
            ("integration.inner_sum", integration.inner_sum, _count_spec(lambda a: a[1].bounding.dimension), None),
            ("integration.riemann_stieltjes_sum", integration.riemann_stieltjes_sum, _count_stieltjes, None),
            ("integration.cousin_partition", integration.cousin_partition, _count_cousin, None),
            ("integration.measure", integration.measure_curve_length, _cells_arg(3), None),
            ("integration.measure", integration.line_integral_work, _cells_arg(4), None),
            ("integration.measure", integration.measure_surface_revolution, _cells_arg(3), None),
        ]
        for fn_name in ("hr_exp", "hr_ln", "hr_sin", "hr_cos", "hr_tan", "hr_pow"):
            targets.append(("field.analytic", getattr(field, fn_name), None, None))
        for fn_name in ("taylor_jet", "derivative", "nth_increment", "fn_limit", "continuity_check",
                        "tangent_certificate", "unit_tangent", "curvature", "jacobian"):
            targets.append((f"calculus.{fn_name}", getattr(calculus, fn_name), None, None))
        for fn_name in ("gauge_sum", "adaptive_simpson", "converge_study", "measure_mass_moment_com",
                        "measure_moment"):
            targets.append((f"integration.{fn_name}", getattr(integration, fn_name), None, None))
        for fn_name in self.approx_functions(approx):
            targets.append(("approx", getattr(approx, fn_name), None, None))

        replace = {id(fn): self.wrap(name, fn, count, res) for name, fn, count, res in targets}
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "hrw" and not mod_name.startswith("hrw."):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in replace:
                    setattr(mod, attr, replace[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in replace:
                            value[key] = replace[id(item)]

        hyper = field.HyperReal
        mul = self.wrap("field.mul", hyper.__mul__, _count_terms)
        hyper.__mul__ = hyper.__rmul__ = mul
        hyper.inv = self.wrap("field.inv", hyper.inv)
        hyper.nth_root = self.wrap("field.nth_root", hyper.nth_root)
        for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__"):
            setattr(hyper, op, self.wrap("field.add", getattr(hyper, op)))

    @staticmethod
    def approx_functions(approx) -> list[str]:
        """The public cached kernels of ``hrw.approx``."""
        return [name for name, value in vars(approx).items()
                if not name.startswith("_") and hasattr(value, "cache_info")]

    # -- results ------------------------------------------------------------------------

    def dump(self, path: str) -> None:
        with open(path, "w") as out:
            for sid, parent, name, start, end, op_id in self.spans:
                out.write(json.dumps({"id": sid, "parent": parent, "name": name, "start": start,
                                      "end": end, "op": op_id}) + "\n")


def layer_metrics(tracer: Tracer, caches: "ApproxCaches") -> dict:
    """Per-layer metrics of a traced run."""
    st, calls, counts = tracer.self_time, tracer.calls, tracer.counts

    def layer(prefix: str) -> float:
        return sum(v for k, v in st.items() if k == prefix or k.startswith(prefix + "."))

    hits, misses, entries = caches.totals()
    m = {
        "trace.op_s": (tracer.op_total, "s"),
        "unattributed.self_s": (st[ROOT], "s"),
        "cli.self_s": (layer("cli"), "s"),
        "cli.run.self_s": (st["cli.run"], "s"),
        "cli.build_parser.calls": (calls["cli.build_parser"], "count"),
        "cli.build_parser.self_s": (st["cli.build_parser"], "s"),
        "exprs.self_s": (layer("exprs"), "s"),
        "field.self_s": (layer("field"), "s"),
        "field.terms_out": (counts["field.terms_out"], "count"),
        "approx.calls": (hits + misses, "count"),
        "approx.misses": (misses, "count"),
        "approx.hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "approx.self_s": (st["approx"], "s"),
        "approx.cache_entries": (entries, "count"),
        "rationals.round_to_digits.calls": (calls["rationals.round_to_digits"], "count"),
        "rationals.round_to_digits.self_s": (st["rationals.round_to_digits"], "s"),
        "calculus.self_s": (layer("calculus"), "s"),
        "calculus.seq_limit.calls": (calls["calculus.seq_limit"], "count"),
        "calculus.seq_limit.fallbacks": (counts["calculus.seq_limit.fallbacks"], "count"),
        "integration.self_s": (layer("integration"), "s"),
        "integration.cells": (counts["integration.cells"], "count"),
        "integration.cousin_partition.cells": (counts["integration.cousin_partition.cells"], "count"),
    }
    for name in ("exprs.parse", "exprs.compile_real", "exprs.compiled", "exprs.eval_hyper",
                 "exprs.eval_real", "field.mul", "field.add", "field.inv", "field.nth_root",
                 "field.analytic", "calculus.taylor_jet", "calculus.nth_increment",
                 "calculus.jacobian"):
        m[f"{name}.calls"] = (calls[name], "count")
        m[f"{name}.self_s"] = (st[name], "s")
    for name in ("riemann_sum", "darboux_bounds", "inner_sum", "cousin_partition",
                 "adaptive_simpson", "measure"):
        m[f"integration.{name}.self_s"] = (st[f"integration.{name}"], "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


class ApproxCaches:
    """Hits, misses and peak size of every lru_cache in ``hrw.approx`` since
    construction, across clears.  Built before the tracer wraps anything."""

    def __init__(self, approx):
        self.fns = [v for v in vars(approx).values() if hasattr(v, "cache_info")]
        self.hits = self.misses = self.peak = 0
        self._base = self._snapshot()

    def _snapshot(self) -> tuple[int, int, int]:
        infos = [f.cache_info() for f in self.fns]
        return (sum(i.hits for i in infos), sum(i.misses for i in infos),
                sum(i.currsize for i in infos))

    def _fold(self) -> None:
        hits, misses, size = self._snapshot()
        self.hits += hits - self._base[0]
        self.misses += misses - self._base[1]
        self.peak = max(self.peak, size)
        self._base = (hits, misses, size)

    def clear(self) -> None:
        self._fold()
        for f in self.fns:
            f.cache_clear()
        self._base = self._snapshot()

    def totals(self) -> tuple[int, int, int]:
        """(hits, misses, peak number of entries)."""
        self._fold()
        return self.hits, self.misses, self.peak
