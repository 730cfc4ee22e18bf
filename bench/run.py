#!/usr/bin/env python3
"""hrw benchmark: closed-loop workloads over the ``hrw`` library and CLI.

Usage (from the repository root)::

    python3 bench/run.py --workload calculus-probe --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

One client, one thread: each operation starts when the previous one returns.
The program is imported from ``src/`` of the checkout the script sits in.
Set-up (import of ``hrw``, input generation, warm-up) is repeated
``SETUPS`` times from a fresh import and its median reported.  The timed phase
then runs whole rounds of operations until ``--seconds`` have passed and at
least ``MIN_OPS`` operations completed; every output is checked against the
oracle outside the timed region.  Times are scaled by a machine-speed
reference measured next to them (see ``speed.py``); the unscaled figures go
to standard error and the result file.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics.  With ``--trace 1`` the run installs span wrappers,
runs a fixed number of whole rounds (the fewest that reach ``MIN_OPS``), so
that its counts repeat exactly for a given seed and program, reports the
per-layer metrics instead, and writes its spans to ``bench/results``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
sys.path.insert(0, HERE)

import spans  # noqa: E402
import speed  # noqa: E402
import wl_calculus  # noqa: E402
import wl_cli  # noqa: E402
import wl_poly  # noqa: E402
import wl_trans  # noqa: E402
from common import Hrw  # noqa: E402

WORKLOADS = {w.NAME: w for w in (wl_calculus, wl_poly, wl_trans, wl_cli)}
SETUPS = 5
MIN_OPS = 1000
MAX_REPORTED_ERRORS = 5


def import_hrw() -> Hrw:
    """A fresh import of ``hrw`` from this checkout's ``src``: cold caches."""
    for name in [n for n in sys.modules if n == "hrw" or n.startswith("hrw.")]:
        del sys.modules[name]
    if not os.path.isfile(os.path.join(SRC, "hrw", "__init__.py")):
        raise SystemExit(f"error: no hrw package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    h = Hrw()
    if not os.path.abspath(h.hrw.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported hrw from {h.hrw.__file__}, not from {SRC}")
    return h


def timing_metrics(rounds: list[list[float]], setup_times: list[float]) -> dict:
    """End-to-end timing metrics from per-round operation times.  Throughput
    and median are medians over rounds; p99 needs the pooled samples (at
    least ten beyond it)."""
    pooled = [dt for lat in rounds for dt in lat]
    done = [lat for lat in rounds if lat]
    return {
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "ops_per_s": {"value": statistics.median(len(lat) / sum(lat) for lat in done), "unit": "ops/s"},
        "latency_p50_ms": {"value": statistics.median(statistics.median(lat) for lat in done) * 1e3,
                           "unit": "ms"},
        "latency_p99_ms": {"value": statistics.quantiles(pooled, n=100, method="inclusive")[98] * 1e3,
                           "unit": "ms"},
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[name]
    os.environ.pop("HRW_PRECISION", None)
    setup_raw, setup_scaled = [], []
    h = state = None
    for _ in range(SETUPS):
        h = state = None
        gc.collect()
        ref_before = speed.reference()
        t0 = perf_counter()
        h = import_hrw()
        state = wl.setup(h, seed)
        for op in wl.warmup_ops(state):
            op.run()
        dt = perf_counter() - t0
        setup_raw.append(dt)
        setup_scaled.append(dt * speed.NOMINAL_S / ((ref_before + speed.reference()) / 2))

    caches = spans.ApproxCaches(h.approx)
    tracer = None
    if trace:
        tracer = spans.Tracer()
        tracer.install(h)
    epoch = getattr(wl, "CACHE_EPOCH_OPS", 0)

    raw: list[list[float]] = []  # times of the completed operations, per round
    scaled: list[list[float]] = []  # the same, scaled to the nominal machine speed
    attempted = failed = 0
    errors: list[str] = []
    gc.collect()
    scaler = speed.Scaler()
    deadline = perf_counter() + seconds
    cleared_at = 0
    while True:
        raw.append([])
        scaled.append([])
        for op in wl.round_ops(state, len(raw) - 1):
            if tracer:
                tracer.begin(attempted)
            attempted += 1
            t = perf_counter()
            try:
                out = op.run()
            except Exception as ex:  # counted, reported, and the run goes on
                dt = None
                failed += 1
                errors.append(f"{op.kind} raised {type(ex).__name__}: {ex}")
            else:
                dt = perf_counter() - t
            if tracer:
                tracer.end()
            if dt is not None:
                for r, s in scaler.add(dt):
                    raw[-1].append(r)
                    scaled[-1].append(s)
                msg = op.check(out)
                if msg:
                    errors.append(f"{op.kind} wrong: {msg}")
        for r, s in scaler.flush():
            raw[-1].append(r)
            scaled[-1].append(s)
        if attempted >= MIN_OPS and (tracer or perf_counter() >= deadline):
            break
        if epoch and attempted - cleared_at >= epoch:
            caches.clear()
            cleared_at = attempted

    wrong = [e for e in errors if " wrong: " in e]
    for e in errors[:MAX_REPORTED_ERRORS]:
        print(f"{name}: {e}", file=sys.stderr)
    result = {"correct": not wrong, "attempted": attempted, "failed": failed}
    if tracer:
        os.makedirs(RESULTS, exist_ok=True)
        tracer.dump(os.path.join(RESULTS, f"spans-{name}-seed{seed}.jsonl"))
        result["metrics"] = spans.layer_metrics(tracer, caches)
    else:
        rss = {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"}
        result["metrics"] = {**timing_metrics(scaled, setup_scaled), "peak_rss_mb": rss}
        result["unscaled"] = timing_metrics(raw, setup_raw)
    extra = getattr(wl, "report", None)
    if extra:
        for line in extra(state):
            print(f"{name}: {line}", file=sys.stderr)
    # mean operation time, traced or not: the two give the tracing overhead
    result["mean_op_ms"] = {k: 1e3 * sum(map(sum, v)) / max(1, sum(map(len, v)))
                            for k, v in (("scaled", scaled), ("unscaled", raw))}
    print(f"{name}: {attempted} ops in {len(raw)} rounds, {failed} failed, {len(wrong)} wrong, "
          f"mean op {result['mean_op_ms']['scaled']:.3f} ms scaled", file=sys.stderr)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        res = run_workload(name, args.seed, args.seconds, bool(args.trace))
        results[name] = res
        for metric, v in res["metrics"].items():
            print(f"{name:26s} {metric:40s} {v['value']:>16.6g} {v['unit']}", file=sys.stderr)
        for metric, v in res.get("unscaled", {}).items():
            print(f"{name:26s} {metric + ' (unscaled)':40s} {v['value']:>16.6g} {v['unit']}",
                  file=sys.stderr)
        os.makedirs(RESULTS, exist_ok=True)
        path = os.path.join(RESULTS, f"{name}-seed{args.seed}-trace{args.trace}.json")
        with open(path, "w") as out:
            json.dump(res, out, indent=1)
    if len(names) == 1:
        final = {k: results[names[0]][k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
