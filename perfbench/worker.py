"""One benchmark process: set up a workload, then time it or trace it.

run.py starts this script in a fresh interpreter and passes the
``time.monotonic()`` reading taken just before the start (CLOCK_MONOTONIC is
one clock for every process of the machine), so the set-up time printed here
runs from the fresh interpreter to the first timed operation: interpreter
start, the corrspace import, the seeded inputs and the warm-up operations.

Roles:
  probe  set up, print {"setup_s": ...} and exit;
  main   set up, then with --trace 0 run whole cycles until --seconds have
         passed, or with --trace 1 run trace_cycles cycles untraced and the
         same cycles again traced; check every result; print one JSON line.

Times are reported at reference speed (reference.py says why): after every
few timed operations, and once after set-up, a burst of a fixed reference
kernel measures how much the host is slowed at that moment, and the times
measured just before it are divided by that slowdown.  The unscaled figures
are reported beside the scaled ones.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import reference

ROOT = Path(__file__).resolve().parent.parent
SETUP_KERNELS = 25  # the burst after set-up: 10 to 25 ms


def run_ops(workload, state, ops, stats) -> None:
    """Run ops one at a time; record each latency and failure in stats."""
    for op in ops:
        t0 = time.perf_counter()
        try:
            out = workload.run(op, state)
        except Exception:  # counted and reported; the loop keeps going
            stats["latency"].append(time.perf_counter() - t0)
            stats["failed"] += 1
            stats.setdefault("first_error", traceback.format_exc(limit=3))
        else:
            stats["latency"].append(time.perf_counter() - t0)
            stats["failed"] += not workload.check(op, out, state)
        stats["attempted"] += 1


def new_stats() -> dict:
    return {"attempted": 0, "failed": 0, "latency": []}


def close_pass(workload, state, stats) -> dict:
    extra, details = workload.finish(state)
    stats["failed"] = min(stats["attempted"], stats["failed"] + extra)
    stats["checks"] = details
    return stats


def timed(workload, seconds: float) -> dict:
    """Whole cycles until seconds have passed, with a reference burst after
    every workload.reference_every operations."""
    state, stats = workload.new_pass(), new_stats()
    kernel, every, kernels = (workload.reference_kernel, workload.reference_every,
                              workload.reference_kernels)
    lat, scaled, slowdowns = stats["latency"], [], []
    start = time.perf_counter()
    while True:
        for i in range(0, len(workload.cycle), every):
            done = len(lat)
            run_ops(workload, state, workload.cycle[i:i + every], stats)
            slowdowns.append(reference.slowdown(kernel, kernels))
            scaled += [t / slowdowns[-1] for t in lat[done:]]
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            break
    stats["ops_per_s"] = len(scaled) / sum(scaled)
    stats["op_p50_ms"] = 1e3 * statistics.median(scaled)
    # The 90th percentile needs ten samples beyond it.
    stats["op_p90_ms"] = (1e3 * statistics.quantiles(scaled, n=10)[-1]
                          if len(scaled) >= 100 else None)
    stats["samples"] = len(scaled)
    stats["unscaled"] = {"ops_per_s": len(lat) / sum(lat),
                         "op_p50_ms": 1e3 * statistics.median(lat),
                         "slowdown_p50": statistics.median(slowdowns),
                         "slowdown_range": [min(slowdowns), max(slowdowns)],
                         "bursts": len(slowdowns)}
    stats["elapsed_s"] = elapsed
    close_pass(workload, state, stats)
    del stats["latency"]
    return stats


def run_pass(workload, ops, tracer=None) -> tuple:
    """One pass over ops; the checks run after the tracer is removed."""
    state, stats = workload.new_pass(), new_stats()
    start = time.perf_counter()
    with tracer or contextlib.nullcontext():
        run_ops(workload, state, ops, stats)
    stats["elapsed_s"] = time.perf_counter() - start
    return state, close_pass(workload, state, stats)


def traced(workload) -> dict:
    from spans import METRICS, Tracer

    ops = workload.cycle * workload.trace_cycles
    _, plain = run_pass(workload, ops)
    tracer = Tracer()
    state, stats = run_pass(workload, ops, tracer)
    metrics = tracer.metrics()
    metrics.update(workload.counters(state))
    metrics["trace.overhead_pct"] = 100.0 * (stats["elapsed_s"] / plain["elapsed_s"] - 1.0)
    names = [name for name, _, _ in METRICS]
    unknown = set(metrics) - set(names)
    if unknown:
        raise ValueError(f"metrics missing from spans.METRICS: {sorted(unknown)}")
    return {
        "attempted": plain["attempted"] + stats["attempted"],
        "failed": plain["failed"] + stats["failed"],
        "first_error": plain.get("first_error") or stats.get("first_error"),
        "checks": stats["checks"],
        "untraced_ops_per_s": plain["attempted"] / plain["elapsed_s"],
        "traced_ops_per_s": stats["attempted"] / stats["elapsed_s"],
        "missing_functions": tracer.missing,
        "per_layer": {name: metrics.get(name, 0) for name in names},
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--role", choices=("probe", "main"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--scratch", type=Path, required=True)
    parser.add_argument("--t0", type=float, required=True)
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import corrspace

    source = Path(corrspace.__file__).resolve()
    if ROOT / "src" not in source.parents:
        print(f"perfbench: imported corrspace from {source}, not from this checkout",
              file=sys.stderr)
        return 3
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.scratch, args.smoke)
    run_ops(workload, workload.new_pass(), workload.warm_up(), new_stats())
    setup = {"setup_unscaled_s": time.monotonic() - args.t0}
    setup["setup_s"] = (setup["setup_unscaled_s"]
                        / reference.slowdown(workload.reference_kernel, SETUP_KERNELS))
    if args.role == "probe":
        print(json.dumps(setup))
        return 0
    result = traced(workload) if args.trace else timed(workload, args.seconds)
    result.update(setup)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
