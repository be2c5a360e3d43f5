#!/usr/bin/env python3
"""Benchmark of corrspace: one closed-loop caller drives one workload.

Run from the repository root:

    python3 perfbench/run.py --workload shots --seed 1 --seconds 25 --trace 0

Workloads (see README.md in this directory): shots, witness, tomo, cli.

With --trace 0 the run starts the workload in SETUP_SAMPLES fresh
interpreters, one after the other.  Each reports its set-up time; the last
one then runs whole cycles of the workload until --seconds have passed and
checks every result.  The metrics are the end-to-end ones: setup_s (median
of the samples), ops_per_s, op_p50_ms and peak_rss_mb.  Times are at
reference speed: each is divided by the host's slowdown, measured by a burst
of a fixed reference kernel right after it (reference.py says why).

With --trace 1 one interpreter runs a fixed number of cycles untraced, then
the same cycles again with every public function of the measured modules
wrapped (spans.py).  The metrics are the per-layer ones, including the
tracing overhead.  Counts (calls, ML iterations, ...) are exact for a seed.

Before the result, one line {"perfbench": {...}} records the seed, the
environment (Python, numpy, BLAS and its thread cap, nproc), the failure
fraction, the 90th-percentile latency where a run holds at least 100
operations, the unscaled throughput and median with the measured slowdowns,
and the details of the correctness checks.  The last line is
{"correct", "attempted", "failed", "metrics"}.

Exit codes: 0 with a result; 1 when a worker fails or times out; 2 when the
corrspace sources are not under src/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from spans import METRICS, UNMEASURED

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
DEADLINE_S = 170.0  # every run ends within 180 s
WORKLOADS = ("shots", "witness", "tomo", "cli")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def worker_env(nproc: int) -> dict[str, str]:
    """The environment of the workers: BLAS threads capped at nproc."""
    env = dict(os.environ)
    for var in BLAS_THREAD_VARS:
        current = env.get(var, "")
        if not current.isdigit() or not 0 < int(current) <= nproc:
            env[var] = str(nproc)
    return env


def run_worker(role: str, args, env, deadline: float, scratch: str) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--scratch", scratch]
    if args.smoke:
        cmd.append("--smoke")
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd + ["--t0", repr(t0)], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"{role} worker exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def environment(nproc: int, env: dict[str, str]) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(env["OPENBLAS_NUM_THREADS"]),
        "nproc": nproc,
        "machine": platform.machine(),
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny cycles and one set-up sample, to check the harness")
    args = parser.parse_args()
    if not (ROOT / "src" / "corrspace" / "__init__.py").is_file():
        print(f"perfbench: no corrspace sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # On SIGTERM, unwind through run_worker's cleanup, which stops the worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    deadline = time.monotonic() + DEADLINE_S
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    env = worker_env(nproc)
    samples = []
    try:
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as scratch:
            if not args.trace:
                for _ in range(0 if args.smoke else SETUP_SAMPLES - 1):
                    samples.append(run_worker("probe", args, env, deadline, scratch))
            result = run_worker("main", args, env, deadline, scratch)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    samples.append(result)
    setup = [s["setup_s"] for s in samples]

    attempted, failed = result["attempted"], result["failed"]
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": environment(nproc, env),
        "failed_frac": failed / attempted if attempted else None,
        "first_error": result.get("first_error"),
        "checks": result["checks"],
        "unmeasured_layers": UNMEASURED,
    }
    if args.trace:
        values = result["per_layer"]
        metrics = {name: metric(values[name], unit) for name, unit, _ in METRICS}
        info.update({k: result[k] for k in ("untraced_ops_per_s", "traced_ops_per_s",
                                            "missing_functions")})
    else:
        metrics = {
            "setup_s": metric(statistics.median(setup), "s"),
            "ops_per_s": metric(result["ops_per_s"], "1/s"),
            "op_p50_ms": metric(result["op_p50_ms"], "ms"),
            "peak_rss_mb": metric(result["peak_rss_mb"], "MB"),
        }
        info.update({
            "setup_samples_s": setup,
            "setup_unscaled_samples_s": [s["setup_unscaled_s"] for s in samples],
            "op_p90_ms": result["op_p90_ms"],
            "latency_samples": result["samples"],
            "unscaled": result["unscaled"],
            "elapsed_s": result["elapsed_s"],
        })
    print(json.dumps({"perfbench": info}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
