"""Smoke check of the benchmark harness at a tiny size.

    python3 perfbench/smoke.py

For every workload, runs ``run.py --smoke`` untraced and traced, and checks
that each run exits 0 with correct results and prints exactly the metrics
BENCHMARK.json names, each with its unit.  Then hides a traced function, as a
refactor that removes it would, and checks that the tracer warns and still
reports every per-layer metric, the affected ones as 0.  Exits 0 when every
check holds; takes about 15 s.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check_runs(spec: dict) -> list[str]:
    problems = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in spec[key]}
        for workload in (w["name"] for w in spec["workloads"]):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            where = f"{workload} --trace {trace}"
            before = len(problems)
            if proc.returncode != 0:
                problems.append(f"{where}: exit code {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: correct={result['correct']} "
                                f"attempted={result['attempted']} failed={result['failed']}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected:
                problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(got.items()) ^ set(expected.items()))}")
            print(f"{'ok' if len(problems) == before else 'FAIL'}: {where}", flush=True)
    return problems


def check_missing_function(spec: dict) -> list[str]:
    """A traced function that no longer exists reads 0, with a warning."""
    sys.path.insert(0, str(ROOT / "src"))
    import corrspace.cli
    from spans import METRICS, Tracer

    target = corrspace.wires.build_psi4
    owners = [m for name, m in sys.modules.items()
              if name.startswith("corrspace.") and vars(m).get("build_psi4") is target]
    for module in owners:
        delattr(module, "build_psi4")
    stderr = io.StringIO()
    try:
        with contextlib.redirect_stderr(stderr), Tracer() as tracer:
            corrspace.wires.lambda34()
        values = tracer.metrics()
    finally:
        for module in owners:
            module.build_psi4 = target
    problems = []
    if tracer.missing != ["wires.build_psi4"] or "wires.build_psi4" not in stderr.getvalue():
        problems.append(f"hidden build_psi4: missing={tracer.missing}, "
                        f"stderr={stderr.getvalue()!r}")
    if values.get("wires.build_psi4.mean_us") != 0.0:
        problems.append("hidden build_psi4: wires.build_psi4.mean_us is not 0")
    if values.get("wires.calls", 0) < 1:
        problems.append("tracer recorded no wires span for lambda34()")
    names = [(n, u, b) for n, u, b in METRICS]
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    if names != declared:
        problems.append("spans.METRICS and BENCHMARK.json per_layer differ")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_missing_function(spec) + check_runs(spec)
    for p in problems:
        print(f"FAIL: {p}")
    print("smoke check passed" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
