"""Command-line front end.

Builds and analyzes the resource states, runs the measurement protocols,
generates and reconstructs tomography data, and emits tables/curves as JSON
or CSV.  All output is deterministic for a fixed argument list and seed:
field order is fixed, floats are printed with 15 significant digits, and
every randomized command either takes ``--seed`` or generates one and
records it in the output.

This module alone defines the JSON and CSV output and the counts-file
format: the library's results are plain data, and the payload functions
below read their fields.  Each command returns its payload body (or CSV
text); ``main`` puts the ``schema``/``command`` header in front of a body.

``main`` parses a command line that starts with a known (group, action)
pair, such as ``curve fig2``, with that command's own parser alone, and any
other line with the whole parser (``_parse_argv``).  Either way it gets the
namespace, and prints the usage, help and error messages, of a full parse.
``build_parser`` builds both kinds of parser once per process.

Output goes to stdout, or with ``--out FILE`` to FILE, which is
overwritten in place and cut to the new length (``_write_output``).

Exit codes: 0 success, 1 numeric failure (zero-probability post-selection,
annihilated filters, ...) or a file that cannot be read or written, 2
usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import re
import stat
import sys
from math import isfinite, pi
from typing import Any, Sequence

import numpy as np

from . import analysis, noise_tomo, protocols, qmath as qm
from .wires import build_psi4, build_psi6, lambda34

SCHEMA = "corrspace/1"

_STATE_BUILDERS = {
    "psi4": lambda th: build_psi4(th),
    "psi6": lambda th: build_psi6(th),
    "lambda34": lambda th: lambda34(th),
}


class CliError(Exception):
    """Semantic usage error (maps to exit code 2)."""


# ---------------------------------------------------------------------------
# Argument parsing helpers
# ---------------------------------------------------------------------------

_PI_RE = re.compile(
    r"^([+-]?)(\d+(?:\.\d+)?)?\s*\*?\s*pi(?:\s*/\s*(\d+(?:\.\d+)?))?$",
    re.IGNORECASE,
)


def parse_angle(text: str) -> float:
    """Angle as decimal radians or a rational multiple of pi ('pi/3', '-2pi/3').

    Non-finite angles ('nan', 'inf', or a literal that overflows) are rejected.
    """
    t = text.strip()
    m = _PI_RE.match(t)
    if m:
        sign = -1.0 if m.group(1) == "-" else 1.0
        num = float(m.group(2)) if m.group(2) else 1.0
        den = float(m.group(3)) if m.group(3) else 1.0
        if den == 0:
            raise argparse.ArgumentTypeError(f"zero denominator in angle {text!r}")
        angle = sign * num * pi / den
    else:
        try:
            angle = float(t)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"cannot parse angle {text!r} (use decimal radians or 'pi/3' forms)"
            ) from None
    if not isfinite(angle):
        raise argparse.ArgumentTypeError(f"angle {text!r} is not finite")
    return angle


def parse_bits(text: str) -> tuple[int, ...]:
    """Comma-separated measurement outcomes, e.g. '0,1,0'; each must parse
    as an integer and pass ``qmath._bit``."""
    try:
        return tuple(qm._bit(int(p), "outcome") for p in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid outcomes {text!r}: {exc}") from None


def _int_at_least(low: int):
    """Argument type: an integer no smaller than ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"cannot parse integer {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {value}")
        return value

    return parse


def _fresh_seed() -> int:
    return random.SystemRandom().getrandbits(63)


# ---------------------------------------------------------------------------
# Deterministic serialization
# ---------------------------------------------------------------------------

def format_float(x: float) -> str:
    """15-significant-digit representation used for all numeric output."""
    f = float(x)
    if not isfinite(f):
        raise ValueError("non-finite number in output")
    if f == 0.0:
        f = 0.0  # normalize -0.0
    return format(f, ".15g")


# What ``json.dumps(text)`` calls for a str; keys and strings skip its dispatch.
_encode_str = json.encoder.encode_basestring_ascii


def _emit(obj: Any, out: list[str], indent: int, inline: bool) -> None:
    # the common payload types come first; bool before int, its superclass
    if isinstance(obj, (float, np.floating)):
        out.append(format_float(obj))
    elif isinstance(obj, str):
        out.append(_encode_str(obj))
    elif isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif obj is None:
        out.append("null")
    elif isinstance(obj, (complex, np.complexfloating)):
        _emit([obj.real, obj.imag], out, indent, True)
    elif isinstance(obj, np.ndarray):
        _emit(obj.tolist(), out, indent, inline)
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        pad = "  " * indent
        out.append("{\n")
        last = len(obj) - 1
        for i, (k, v) in enumerate(obj.items()):
            if not isinstance(k, str):
                raise TypeError(f"non-string JSON key {k!r}")
            out.append(pad + "  " + _encode_str(k) + ": ")
            _emit(v, out, indent + 1, False)
            out.append(",\n" if i < last else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        # lists render inline (amplitude vectors and matrices stay compact)
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(", ")
            _emit(v, out, indent, True)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps15(payload: dict) -> str:
    """Render a payload as deterministic pretty JSON with 15-digit floats."""
    out: list[str] = []
    _emit(payload, out, 0, False)
    return "".join(out) + "\n"


def render_csv(header: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    """Comma-separated rows under ``header``: floats as in JSON, the rest by ``str``."""
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for v in row:
            if isinstance(v, (float, np.floating)):
                cells.append(format_float(v))
            else:
                cells.append(str(v))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _write_output(text: str, path: str | None) -> None:
    """Write ``text`` to stdout, or over ``path`` in place.

    The file is never truncated to zero: on ext4 that makes the close start
    writeback, so every rewrite would wait for a flush.  A regular file is
    cut at the end of what was written, also when a write fails, so no old
    bytes trail the new ones; devices and FIFOs are only written.  A new
    file gets the mode ``open(path, "w")`` gives it.  Nothing is fsynced.
    """
    if path is None:
        sys.stdout.write(text)
        return
    view = memoryview(text.encode("ascii"))
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        regular = stat.S_ISREG(os.fstat(fd).st_mode)
        try:
            while view:
                view = view[os.write(fd, view):]
        finally:
            if regular:
                os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))
    finally:
        os.close(fd)


# ---------------------------------------------------------------------------
# Payloads of the library's results
# ---------------------------------------------------------------------------

def _state_payload(state: qm.StateVector) -> dict:
    return {"labels": state.labels, "amplitudes": state.amps}


def transcript_payload(tr: protocols.ProtocolTranscript) -> dict:
    """One protocol branch.  The CLI protocols run on pure resources, so the
    physical output is a state vector."""
    return {
        "outcomes": [
            {"qubit": r.qubit, "basis": r.basis.name, "outcome": r.outcome,
             "probability": r.probability}
            for r in tr.outcomes
        ],
        "frame": {"wires": tr.frame.wires, "x": tr.frame.x, "z": tr.frame.z},
        "logical_out": tr.logical_out,
        "physical_out": None if tr.physical_out is None else _state_payload(tr.physical_out),
        "success": bool(tr.success),
        "total_probability": tr.total_probability,
        "notes": tr.notes,
    }


_COUNTS_FIELDS = ("labels", "settings", "counts", "shots")


def counts_payload(counts: noise_tomo.CountsTable) -> dict:
    return {name: getattr(counts, name) for name in (*_COUNTS_FIELDS, "mode")}


def counts_rows(counts: noise_tomo.CountsTable) -> list[tuple[str, int, int]]:
    """(setting, outcome-cell index, count) triples."""
    return [
        (setting, cell, n)
        for setting, row in zip(counts.settings, counts.counts.tolist())
        for cell, n in enumerate(row)
    ]


def counts_table(data: dict) -> noise_tomo.CountsTable:
    """Inverse of :func:`counts_payload` (missing and unknown keys rejected;
    ``mode`` may be left out)."""
    missing = set(_COUNTS_FIELDS) - set(data)
    if missing:
        raise ValueError(f"missing counts fields {sorted(missing)}")
    extra = set(data) - set(_COUNTS_FIELDS) - {"mode"}
    if extra:
        raise ValueError(f"unknown counts fields {sorted(extra)}")
    return noise_tomo.CountsTable(**data)


def fit_payload(result: noise_tomo.ReconstructionResult, full_matrix: bool) -> dict:
    payload = {"labels": result.rho.labels}
    if full_matrix:
        payload["rho"] = result.rho.mat
    for name in ("log_likelihood", "iterations", "likelihood_gap_bound", "stop",
                 "fidelity_to_target", "informationally_complete"):
        payload[name] = getattr(result, name)
    return payload


def report_payload(report: analysis.WitnessReport) -> dict:
    return {
        "corrected": report.corrected,
        "residual_maxabs": report.residual_maxabs,
        "residual_opnorm": report.residual_opnorm,
        "best_scale": report.best_scale,
        "term_expectations": report.term_expectations,
        "derived_settings": report.derived_settings,
        "unmatched_tabulated_settings": report.unmatched_tabulated,
        "terms_without_tabulated_setting": report.unmatched_terms,
    }


def _resolve_mode(args, n_steps: int):
    """Map (--outcomes | --postselect-zeros | --seed) to (outcomes, rng, seed, mode)."""
    given = [
        name
        for name, val in (
            ("--outcomes", args.outcomes),
            ("--postselect-zeros", args.postselect_zeros or None),
            ("--seed", args.seed),
        )
        if val is not None
    ]
    if len(given) > 1:
        raise CliError(f"options {given} are mutually exclusive")
    if args.outcomes is not None:
        if len(args.outcomes) != n_steps:
            raise CliError(
                f"--outcomes needs {n_steps} bits for this program, got {len(args.outcomes)}"
            )
        return tuple(args.outcomes), None, None, "postselect"
    if args.postselect_zeros:
        return (0,) * n_steps, None, None, "postselect"
    seed = args.seed if args.seed is not None else _fresh_seed()
    return None, np.random.default_rng(seed), seed, "sampled"


def _check_fidelity(fidelity: float, n_qubits: int) -> None:
    """``--fidelity`` must lie in (1/2^n, 1], the range ``white_noise`` mixes
    an n-qubit state to; any other value, NaN included, is a usage error."""
    floor = 1.0 / 2**n_qubits
    if not floor < fidelity <= 1.0:
        raise CliError(
            f"--fidelity must lie in ({floor:.6g}, 1] for the {n_qubits}-qubit state, "
            f"got {fidelity!r}"
        )


def _noisy_state(pure: qm.StateVector, fidelity: float):
    _check_fidelity(fidelity, pure.n_qubits)
    if fidelity == 1.0:
        return pure
    return noise_tomo.white_noise(pure, fidelity)


# ---------------------------------------------------------------------------
# Command implementations
# ---------------------------------------------------------------------------

def _cmd_state_build(args) -> dict:
    state = _STATE_BUILDERS[args.state](args.theta)
    return {"state": args.state, "theta": args.theta, **_state_payload(state)}


def _cmd_state_analyze(args) -> dict:
    state = _STATE_BUILDERS[args.state](args.theta)
    if args.state == "psi4":
        correlations = {
            "Q_XX_13": analysis.two_point_correlation(state, "1", "3", "X", "X"),
            "q_max_13": analysis.q_max(state, "1", "3"),
        }
    elif args.state == "psi6":
        correlations = {
            "Q_XZ_24": analysis.two_point_correlation(state, "2", "4", "X", "Z"),
            "Q_ZX_34": analysis.two_point_correlation(state, "3", "4", "Z", "X"),
        }
    else:
        correlations = {}
    entropies = analysis.linear_entropies(state)
    return {
        "state": args.state,
        "theta": args.theta,
        "correlations": correlations,
        "entropies": {label: entropies[label] for label in state.labels},
    }


def _cmd_protocol_rotate(args) -> dict:
    outcomes, rng, seed, mode = _resolve_mode(args, 3)
    tr = protocols.rotate_sequence(
        args.alpha, args.beta, args.gamma, theta=args.theta,
        outcomes=outcomes, rng=rng,
    )
    return {
        "theta": args.theta,
        "alpha": args.alpha,
        "beta": args.beta,
        "gamma": args.gamma,
        "mode": mode,
        "seed": seed,
        "transcript": transcript_payload(tr),
    }


def _cmd_protocol_compensate(args) -> dict:
    resource = f"{args.resource}-qubit"
    p_s, p_theta = protocols.success_probability(args.alpha, args.theta)
    alpha_wrong = protocols.wrong_angle(args.alpha, args.theta)
    p_retry, _ = protocols.success_probability(args.alpha - alpha_wrong, args.theta)
    total = p_s if args.resource == 2 else p_s + (1.0 - p_s) * p_retry
    analytic = {
        "p_success_single": p_s,
        "p_theta": p_theta,
        "wrong_angle": alpha_wrong,
        "p_success_total": total,
    }
    payload = {
        "resource": resource,
        "theta": args.theta,
        "alpha": args.alpha,
        "analytic": analytic,
    }
    if args.enumerate:
        if args.outcomes is not None or args.postselect_zeros or args.seed is not None:
            raise CliError("--enumerate excludes --outcomes/--postselect-zeros/--seed")
        p_total, branches = protocols.enumerate_compensation(
            args.alpha, resource, theta=args.theta
        )
        branches = [
            {"outcomes": tr.outcome_bits, "probability": tr.total_probability,
             "success": tr.success}
            for tr in branches
        ]
        payload.update(mode="enumerate", seed=None, total_success_probability=p_total,
                       branches=branches)
        return payload
    outcomes, rng, seed, mode = _resolve_mode(args, 1 if args.resource == 2 else 3)
    tr = protocols.compensate(
        args.alpha, resource, theta=args.theta, outcomes=outcomes, rng=rng
    )
    payload.update(mode=mode, seed=seed, transcript=transcript_payload(tr))
    return payload


def _cmd_protocol_cz(args) -> dict:
    outcomes, rng, seed, mode = _resolve_mode(args, 4)
    tr = protocols.cz_gate_protocol(
        args.alpha, outcomes=outcomes, rng=rng, theta=args.theta
    )
    return {
        "theta": args.theta,
        "alpha": args.alpha,
        "mode": mode,
        "seed": seed,
        "transcript": transcript_payload(tr),
    }


def _cmd_protocol_deutsch(args) -> dict:
    outcomes, rng, seed, mode = _resolve_mode(args, 4)
    query, ancilla, tr = protocols.deutsch(
        args.function, outcomes=outcomes, rng=rng, theta=args.theta
    )
    return {
        "function": args.function,
        "theta": args.theta,
        "mode": mode,
        "seed": seed,
        "query_bit": query,
        "ancilla_bit": ancilla,
        "success": tr.success,
        "transcript": transcript_payload(tr),
    }


def _cmd_tomo_simulate(args) -> dict | str:
    pure = _STATE_BUILDERS[args.state](args.theta)
    rho = _noisy_state(pure, args.fidelity)
    seed = args.seed if args.seed is not None else _fresh_seed()
    counts = noise_tomo.simulate_counts(
        rho, shots=args.shots, seed=seed, mode=args.sampling
    )
    if args.format == "csv":
        return render_csv(("setting", "cell", "count"), counts_rows(counts))
    return {
        "state": args.state,
        "theta": args.theta,
        "fidelity": args.fidelity,
        "shots": args.shots,
        "sampling": args.sampling,
        "seed": seed,
        "counts": counts_payload(counts),
    }


def _load_counts(path: str) -> noise_tomo.CountsTable:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if isinstance(data, dict) and isinstance(data.get("counts"), dict):
        data = data["counts"]  # wrapped `tomo simulate` payload
    if not isinstance(data, dict):
        raise ValueError("counts file must hold a JSON object")
    return counts_table(data)


def _cmd_tomo_reconstruct(args) -> dict:
    if args.max_iters < 1:
        raise CliError("--max-iters must be at least 1")
    if not (isfinite(args.tol) and args.tol >= 0):
        raise CliError("--tol must be finite and >= 0")
    if not (args.mc_runs == 0 or args.mc_runs >= 2):
        raise CliError("--mc-runs must be 0 (no error bar) or at least 2")
    if args.seed is not None and not args.mc_runs:
        raise CliError("--seed needs --mc-runs (it seeds the bootstrap)")
    if args.mc_runs and args.target is None:
        raise CliError("--mc-runs requires --target")
    counts = _load_counts(args.counts)
    target = None
    if args.target is not None:
        target = _STATE_BUILDERS[args.target](args.theta)
        if tuple(target.labels) != tuple(counts.labels):
            target = target.reorder(counts.labels)
    result = noise_tomo.ml_reconstruct(
        counts, target, max_iters=args.max_iters, tol=args.tol
    )
    monte_carlo = None
    seed = None
    if args.mc_runs:
        seed = args.seed if args.seed is not None else _fresh_seed()
        mean, sigma = noise_tomo.monte_carlo_error(
            counts, target, runs=args.mc_runs, seed=seed,
            max_iters=args.max_iters, tol=args.tol,
        )
        monte_carlo = {
            "runs": args.mc_runs,
            "fidelity_mean": mean,
            "fidelity_sigma": sigma,
        }
    return {
        "target": args.target,
        "theta": args.theta,
        "max_iters": args.max_iters,
        "tol": args.tol,
        "seed": seed,
        "result": fit_payload(result, args.full_matrix),
        "monte_carlo": monte_carlo,
    }


def _cmd_witness_fidelity(args) -> dict:
    if args.seed is not None and not args.shots:
        raise CliError("--seed needs --shots of at least 1 (it seeds the counts)")
    pure = build_psi6(args.theta).reorder(analysis.WITNESS_ORDER)
    rho = _noisy_state(pure, args.fidelity)
    report = analysis.assemble_witness(args.theta, corrected=args.corrected)
    settings = tuple(sorted(set(report.derived_settings)))
    seed = None
    if args.shots:
        seed = args.seed if args.seed is not None else _fresh_seed()
        counts = noise_tomo.simulate_counts(
            rho, settings=settings, shots=args.shots, seed=seed
        )
        cells = analysis.counts_to_cells(counts)
        mode = "sampled"
    else:
        cells = analysis.exact_setting_cells(rho, settings)
        mode = "exact"
    value = analysis.fidelity_from_settings(
        cells, theta=args.theta, corrected=args.corrected
    )
    return {
        "state": "psi6",
        "theta": args.theta,
        "fidelity": args.fidelity,
        "corrected": args.corrected,
        "mode": mode,
        "shots": args.shots,
        "seed": seed,
        "fidelity_estimate": value,
        "report": report_payload(report),
    }


def _cmd_curve_fig2(args) -> dict | str:
    if args.grid < 2:
        raise CliError("--grid must be at least 2")
    _check_fidelity(args.fidelity, args.resource)
    resource = f"{args.resource}-qubit"
    alphas = np.linspace(0.0, pi, args.grid)
    points = protocols.noisy_success_curve(
        alphas, resource, args.fidelity, theta=args.theta
    )
    if args.format == "csv":
        return render_csv(("alpha", "p_success"), points)
    return {
        "resource": resource,
        "fidelity": args.fidelity,
        "theta": args.theta,
        "grid": args.grid,
        "points": points,
    }


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--theta", type=parse_angle, default=pi / 6,
                   help="wire weighting angle (default pi/6)")
    p.add_argument("--out", metavar="FILE", default=None,
                   help="write output to FILE instead of stdout")


def _add_branch_options(p: argparse.ArgumentParser, n: int | str) -> None:
    p.add_argument("--outcomes", type=parse_bits, default=None,
                   help=f"post-select {n} comma-separated outcome bits")
    p.add_argument("--postselect-zeros", action="store_true",
                   help="post-select the all-zero outcome branch")
    p.add_argument("--seed", type=_int_at_least(0), default=None,
                   help="sample outcomes with this RNG seed")


#: Each command's own parser, under its (group, action) pair.
_CommandParsers = dict[tuple[str, str], argparse.ArgumentParser]


@functools.lru_cache(maxsize=1)
def build_parser() -> tuple[argparse.ArgumentParser, _CommandParsers]:
    """The ``corrspace`` parser, and each (group, action) command's own
    parser within it, built once per process.

    ``main`` parses a line that starts with a known (group, action) pair
    with that command's parser alone, and every other line with the whole
    parser (``_parse_argv``); a usage, help or error message is always
    printed by one of them, as a full parse would print it.  Parsing reads
    the parsers and writes only the namespace it returns, so they serve
    every call.
    """
    leaves: _CommandParsers = {}
    parser = argparse.ArgumentParser(
        prog="corrspace",
        description="Correlation-space MBQC simulator and analysis toolkit.",
    )
    groups = parser.add_subparsers(dest="group", required=True)

    def group(name: str, help: str):
        actions = groups.add_parser(name, help=help).add_subparsers(
            dest="action", required=True
        )

        def command(action: str, help: str, func) -> argparse.ArgumentParser:
            p = actions.add_parser(action, help=help)
            p.set_defaults(func=func)
            leaves[name, action] = p
            return p

        return command

    # state ----------------------------------------------------------------
    state = group("state", "build or analyze resource states")

    p = state("build", "emit a resource state's amplitudes", _cmd_state_build)
    p.add_argument("--state", choices=sorted(_STATE_BUILDERS), required=True)
    _add_common(p)

    p = state("analyze", "correlations and entropies", _cmd_state_analyze)
    p.add_argument("--state", choices=sorted(_STATE_BUILDERS), required=True)
    _add_common(p)

    # protocol -------------------------------------------------------------
    proto = group("protocol", "run measurement protocols")

    p = proto("rotate", "three-angle rotation sequence", _cmd_protocol_rotate)
    p.add_argument("--alpha", type=parse_angle, required=True)
    p.add_argument("--beta", type=parse_angle, required=True)
    p.add_argument("--gamma", type=parse_angle, required=True)
    _add_branch_options(p, 3)
    _add_common(p)

    p = proto("compensate", "trial-until-success rotation", _cmd_protocol_compensate)
    p.add_argument("--alpha", type=parse_angle, required=True)
    p.add_argument("--resource", type=int, choices=(2, 4), default=4)
    p.add_argument("--enumerate", action="store_true",
                   help="enumerate all branches instead of running one")
    _add_branch_options(p, "1 (--resource 2) or 3 (--resource 4)")
    _add_common(p)

    p = proto("cz", "two-wire entangling gate", _cmd_protocol_cz)
    p.add_argument("--alpha", type=parse_angle, required=True)
    _add_branch_options(p, 4)
    _add_common(p)

    p = proto("deutsch", "constant/balanced discrimination", _cmd_protocol_deutsch)
    p.add_argument("--function", choices=("constant", "balanced"), required=True)
    _add_branch_options(p, 4)
    _add_common(p)

    # tomo -----------------------------------------------------------------
    tomo = group("tomo", "tomography data and reconstruction")

    p = tomo("simulate", "sample synthetic counts", _cmd_tomo_simulate)
    p.add_argument("--state", choices=sorted(_STATE_BUILDERS), required=True)
    p.add_argument("--fidelity", type=float, default=1.0,
                   help="white-noise fidelity of the prepared state")
    p.add_argument("--shots", type=_int_at_least(1), default=1000)
    p.add_argument("--sampling", choices=("multinomial", "poisson"),
                   default="multinomial")
    p.add_argument("--seed", type=_int_at_least(0), default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    _add_common(p)

    p = tomo("reconstruct", "maximum-likelihood state fit", _cmd_tomo_reconstruct)
    p.add_argument("--counts", metavar="FILE", required=True,
                   help="counts JSON from 'tomo simulate'")
    p.add_argument("--target", choices=sorted(_STATE_BUILDERS), default=None,
                   help="report fidelity against this builder state")
    p.add_argument("--max-iters", type=int, default=10_000)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--mc-runs", type=int, default=0,
                   help="bootstrap runs for the fidelity error bar")
    p.add_argument("--seed", type=_int_at_least(0), default=None)
    p.add_argument("--full-matrix", action="store_true",
                   help="include the reconstructed density matrix")
    _add_common(p)

    # witness --------------------------------------------------------------
    wit = group("witness", "local-setting fidelity estimation")

    p = wit("fidelity", "36-setting fidelity of psi6", _cmd_witness_fidelity)
    p.add_argument("--fidelity", type=float, default=1.0,
                   help="white-noise fidelity of the measured state")
    p.add_argument("--corrected", action="store_true",
                   help="use the repaired decomposition (exact projector)")
    p.add_argument("--shots", type=_int_at_least(0), default=0,
                   help="shots per setting (0 = exact expectations)")
    p.add_argument("--seed", type=_int_at_least(0), default=None)
    _add_common(p)

    # curve ----------------------------------------------------------------
    curve = group("curve", "theory curves")

    p = curve("fig2", "compensated success vs alpha", _cmd_curve_fig2)
    p.add_argument("--resource", type=int, choices=(2, 4), required=True)
    p.add_argument("--fidelity", type=float, default=1.0)
    p.add_argument("--grid", type=int, default=25)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_common(p)

    return parser, leaves


def _parse_argv(argv: list[str]) -> argparse.Namespace:
    """``build_parser()[0].parse_args(argv)``, mostly without its top two levels.

    A full parse hands everything after a known (group, action) pair to
    that command's parser unchanged and only adds ``group`` and ``action``
    to what it returns, so such a line is parsed by the command's parser
    alone.  A line that does not start with such a pair, or that leaves
    arguments over, goes through the whole parser, which reports them.
    """
    parser, leaves = build_parser()
    leaf = leaves.get(tuple(argv[:2]))
    if leaf is not None:
        args, extras = leaf.parse_known_args(argv[2:])
        if not extras:
            args.group, args.action = argv[0], argv[1]
            return args
    return parser.parse_args(argv)


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command; ``argv`` defaults to ``sys.argv[1:]``.  Returns the exit code."""
    try:
        args = _parse_argv(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        body = args.func(args)
        if isinstance(body, dict):
            command = f"{args.group} {args.action}"
            body = dumps15({"schema": SCHEMA, "command": command, **body})
        _write_output(body, args.out)
    except CliError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OverflowError, MemoryError, AssertionError,
            protocols.ProtocolAbort, OSError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
