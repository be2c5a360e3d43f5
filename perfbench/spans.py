"""Per-layer spans recorded from outside the library.

A :class:`Tracer` replaces, for the time it is installed, every public
function of the measured corrspace modules, the public methods of the
classes they define, and every name a module rebinds with ``from ... import``
(``protocols.build_psi6``, ``analysis.setting_kets``, ...) by a wrapper that
times the call.  A span belongs to the layer of the module that *defines* the
function, so ``protocols.build_psi6`` counts as ``wires`` work.  Self time is
a span's duration minus the spans it caused.  Spans are aggregated as they
close, so a traced run keeps counters, not span lists, in memory.

``prep`` is not measured: it is a one-shot closed-form model of the optical
preparation that no workload calls and no planned optimisation touches.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter
from types import FunctionType

LAYERS = ("wires", "qmath", "measurement", "protocols", "analysis", "noise_tomo", "cli")
UNMEASURED = {"prep": "closed-form preparation model, called by no workload"}

# Functions that named per-layer metrics depend on.  If a refactor removes
# one, the metric reads 0 and install() prints a warning naming it.
NAMED = (
    "wires.build_psi6", "wires.build_psi4",
    "qmath.StateVector.project", "qmath.DensityMatrix.project", "qmath.embed",
    "measurement.measure", "measurement.basis_B", "measurement.pauli_basis",
    "protocols.enumerate_compensation",
    "analysis.assemble_witness", "analysis.fidelity_from_settings",
    "analysis.exact_setting_cells", "analysis.witness_terms",
    "noise_tomo.setting_kets", "noise_tomo.simulate_counts",
    "noise_tomo.ml_reconstruct", "noise_tomo.monte_carlo_error",
    "cli.main",
)

# (name, unit, better) of every per-layer metric, in report order.  The
# workload supplies the protocols.*_ratio and cli.output_bytes values.
PROTOCOL_KINDS = (
    "compensate_4q", "compensate_2q", "rotate_sequence",
    "cz_gate", "deutsch_constant", "deutsch_balanced",
)
METRICS = (
    *((f"{layer}.{m}", unit, "lower") for layer in LAYERS
      for m, unit in (("calls", "count"), ("self_ms", "ms"))),
    ("wires.build_psi6.calls", "count", "lower"),
    ("wires.build_psi6.mean_us", "us", "lower"),
    ("wires.build_psi4.mean_us", "us", "lower"),
    ("qmath.sv_project.calls", "count", "lower"),
    ("qmath.sv_project.mean_us", "us", "lower"),
    ("qmath.dm_project.calls", "count", "lower"),
    ("qmath.dm_project.mean_us", "us", "lower"),
    ("qmath.embed.calls", "count", "lower"),
    ("measurement.measure.calls", "count", "lower"),
    ("measurement.measure.mean_us", "us", "lower"),
    ("measurement.basis.calls", "count", "lower"),
    ("measurement.basis.mean_us", "us", "lower"),
    ("protocols.branches", "count", "lower"),
    *((f"protocols.{kind}.success_ratio", "ratio", "higher") for kind in PROTOCOL_KINDS),
    ("protocols.deutsch_balanced.abort_ratio", "ratio", "lower"),
    ("analysis.assemble_witness.mean_ms", "ms", "lower"),
    ("analysis.fidelity_from_settings.mean_ms", "ms", "lower"),
    ("analysis.exact_setting_cells.mean_ms", "ms", "lower"),
    ("analysis.witness_terms.calls", "count", "lower"),
    ("noise_tomo.setting_kets.calls", "count", "lower"),
    ("noise_tomo.simulate_counts.mean_ms", "ms", "lower"),
    ("noise_tomo.ml.calls", "count", "lower"),
    ("noise_tomo.ml.iters", "count", "lower"),
    ("noise_tomo.ml.us_per_iter", "us", "lower"),
    ("noise_tomo.ml.capped", "count", "lower"),
    ("noise_tomo.mc.self_ms", "ms", "lower"),
    ("cli.output_bytes", "bytes", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)


class Tracer:
    """Wraps the measured modules while installed; aggregates their spans."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)  # inclusive seconds
        self.self_time: dict[str, float] = defaultdict(float)
        self.ml_iters = 0
        self.ml_capped = 0
        self.branches = 0
        self.missing: list[str] = []
        self._stack: list[float] = []  # child time of each open span
        self._patches: list[tuple[object, str, object]] = []
        self._hooks = {
            "noise_tomo.ml_reconstruct": self._on_ml,
            "protocols.enumerate_compensation": self._on_enumerate,
        }

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        wrappers: dict[int, FunctionType] = {}
        keys: set[str] = set()
        for layer in LAYERS:
            module = importlib.import_module(f"corrspace.{layer}")
            for name, obj in list(vars(module).items()):
                if name.startswith("_"):
                    continue
                if isinstance(obj, FunctionType):
                    key = self._key(obj)
                    if key is None:
                        continue
                    if id(obj) not in wrappers:
                        wrappers[id(obj)] = self._wrap(obj, key)
                    self._patch(module, name, wrappers[id(obj)])
                    keys.add(key)
                elif isinstance(obj, type) and obj.__module__ == module.__name__:
                    for attr, fn in list(vars(obj).items()):
                        if not attr.startswith("_") and isinstance(fn, FunctionType):
                            key = f"{layer}.{obj.__name__}.{attr}"
                            self._patch(obj, attr, self._wrap(fn, key))
                            keys.add(key)
        for key in NAMED:
            if key not in keys:
                self.missing.append(key)
                print(f"perfbench: warning: traced function {key} no longer exists; "
                      "metrics built on it read 0", file=sys.stderr)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    @staticmethod
    def _key(fn: FunctionType) -> str | None:
        package, _, layer = fn.__module__.rpartition(".")
        if package != "corrspace" or layer not in LAYERS:
            return None
        return f"{layer}.{fn.__name__}"

    def _patch(self, owner, name: str, wrapper) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, wrapper)

    def _wrap(self, fn: FunctionType, key: str):
        hook = self._hooks.get(key)
        signature = inspect.signature(fn) if hook is not None else None
        stack = self._stack
        calls, total, self_time = self.calls, self.total, self.self_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                calls[key] += 1
                total[key] += dt
                self_time[key] += dt - child
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(result, bound.arguments)
            return result

        return wrapper

    # -- hooks on return values --------------------------------------------

    def _on_ml(self, result, arguments) -> None:
        self.ml_iters += result.iterations
        if result.iterations >= arguments["max_iters"]:
            self.ml_capped += 1

    def _on_enumerate(self, result, arguments) -> None:
        self.branches += len(result[1])

    # -- report --------------------------------------------------------------

    def _sum(self, table: dict[str, float], *keys: str) -> float:
        return sum(table.get(k, 0) for k in keys)

    def _mean(self, scale: float, *keys: str) -> float:
        n = self._sum(self.calls, *keys)
        return scale * self._sum(self.total, *keys) / n if n else 0.0

    def metrics(self) -> dict[str, float]:
        """Per-layer values of every METRICS name this tracer measures."""
        out: dict[str, float] = {}
        for layer in LAYERS:
            keys = [k for k in self.calls if k.split(".", 1)[0] == layer]
            out[f"{layer}.calls"] = self._sum(self.calls, *keys)
            out[f"{layer}.self_ms"] = 1e3 * self._sum(self.self_time, *keys)
        c, us, ms = self.calls, 1e6, 1e3
        basis = ("measurement.basis_B", "measurement.pauli_basis")
        out.update({
            "wires.build_psi6.calls": c.get("wires.build_psi6", 0),
            "wires.build_psi6.mean_us": self._mean(us, "wires.build_psi6"),
            "wires.build_psi4.mean_us": self._mean(us, "wires.build_psi4"),
            "qmath.sv_project.calls": c.get("qmath.StateVector.project", 0),
            "qmath.sv_project.mean_us": self._mean(us, "qmath.StateVector.project"),
            "qmath.dm_project.calls": c.get("qmath.DensityMatrix.project", 0),
            "qmath.dm_project.mean_us": self._mean(us, "qmath.DensityMatrix.project"),
            "qmath.embed.calls": c.get("qmath.embed", 0),
            "measurement.measure.calls": c.get("measurement.measure", 0),
            "measurement.measure.mean_us": self._mean(us, "measurement.measure"),
            "measurement.basis.calls": self._sum(c, *basis),
            "measurement.basis.mean_us": self._mean(us, *basis),
            "protocols.branches": self.branches,
            "analysis.assemble_witness.mean_ms": self._mean(ms, "analysis.assemble_witness"),
            "analysis.fidelity_from_settings.mean_ms": self._mean(
                ms, "analysis.fidelity_from_settings"),
            "analysis.exact_setting_cells.mean_ms": self._mean(
                ms, "analysis.exact_setting_cells"),
            "analysis.witness_terms.calls": c.get("analysis.witness_terms", 0),
            "noise_tomo.setting_kets.calls": c.get("noise_tomo.setting_kets", 0),
            "noise_tomo.simulate_counts.mean_ms": self._mean(
                ms, "noise_tomo.simulate_counts"),
            "noise_tomo.ml.calls": c.get("noise_tomo.ml_reconstruct", 0),
            "noise_tomo.ml.iters": self.ml_iters,
            "noise_tomo.ml.us_per_iter": (
                us * self.total.get("noise_tomo.ml_reconstruct", 0.0) / self.ml_iters
                if self.ml_iters else 0.0),
            "noise_tomo.ml.capped": self.ml_capped,
            "noise_tomo.mc.self_ms": ms * self.self_time.get("noise_tomo.monte_carlo_error", 0.0),
        })
        return out
