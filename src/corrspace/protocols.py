"""Measurement programs executed on the wire resources.

The single-qubit rotation sequence, the trial-until-success rotation with
one compensation round, the probabilistic entangling gate and the
two-program function-distinguishing algorithm are each a ``Program``:
single-qubit measurements on a resource state whose bases depend on earlier
outcomes.  One interpreter runs them all, post-selected or Born-sampled
(``Program.run``) or over the whole outcome tree (``Program.branches``).
Analytic success probabilities and byproduct (Pauli-frame) bookkeeping sit
beside them.  Everything is driven by literal Born-rule contraction of the
resource states; closed-form results are used only as oracles in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import atan2, cos, pi, sin
from typing import Any, Callable, Sequence, Union

import numpy as np

from . import qmath as qm
from .measurement import (
    MeasurementBasis, OutcomeRecord, ZeroProbabilityBranch, basis_B, measure, pauli_basis,
)
from .noise_tomo import white_noise
from .wires import _check_theta, build_psi4, build_psi6, lambda34

State = Union[qm.StateVector, qm.DensityMatrix]
Step = tuple[str, MeasurementBasis]

# Basis-family angle for the coupling qubit: it carries an unweighted |+>
# site, so its basis family is the balanced one.  B(0) is then the
# computational basis and B(pi/2) the circular one, matching the bases the
# entangling-gate program uses on that qubit.
COUPLER_THETA = pi / 4


class ProtocolAbort(RuntimeError):
    """A branch on which the program cannot proceed (not a silent failure)."""


@dataclass(frozen=True)
class PauliFrame:
    """Byproduct X^x Z^z exponents per logical wire."""

    wires: tuple[str, ...]
    x: tuple[int, ...]
    z: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "wires", tuple(self.wires))
        object.__setattr__(self, "x", tuple(int(v) for v in self.x))
        object.__setattr__(self, "z", tuple(int(v) for v in self.z))
        if not (len(self.wires) == len(self.x) == len(self.z)):
            raise ValueError("frame fields must have equal lengths")
        if any(v not in (0, 1) for v in self.x + self.z):
            raise ValueError("frame exponents must be 0 or 1")

    def operator(self, wire: str) -> np.ndarray:
        i = self.wires.index(wire)
        return np.linalg.matrix_power(qm.X, self.x[i]) @ np.linalg.matrix_power(
            qm.Z, self.z[i]
        )

    def to_json_dict(self) -> dict:
        return {
            "wires": list(self.wires),
            "x": list(self.x),
            "z": list(self.z),
        }


def _single_frame(x: int = 0, z: int = 0, wire: str = "out") -> PauliFrame:
    return PauliFrame((wire,), (x,), (z,))


@dataclass(frozen=True)
class ProtocolTranscript:
    """Full record of one protocol branch."""

    outcomes: tuple[OutcomeRecord, ...]
    frame: PauliFrame
    logical_out: np.ndarray | None
    physical_out: State | None
    success: bool
    total_probability: float
    notes: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "outcomes", tuple(self.outcomes))
        object.__setattr__(self, "notes", tuple((k, v) for k, v in self.notes))
        if self.logical_out is not None:
            object.__setattr__(
                self, "logical_out", np.asarray(self.logical_out, dtype=complex)
            )
        prod = 1.0
        for rec in self.outcomes:
            prod *= rec.probability
        if abs(prod - self.total_probability) > 1e-12:
            raise ValueError("total_probability must equal the product of step probabilities")

    @property
    def outcome_bits(self) -> tuple[int, ...]:
        return tuple(rec.outcome for rec in self.outcomes)

    def to_json_dict(self) -> dict:
        phys = None
        if isinstance(self.physical_out, qm.StateVector):
            phys = {
                "labels": list(self.physical_out.labels),
                "amplitudes": [
                    [float(a.real), float(a.imag)] for a in self.physical_out.amps
                ],
            }
        elif isinstance(self.physical_out, qm.DensityMatrix):
            phys = {
                "labels": list(self.physical_out.labels),
                "matrix": [
                    [[float(v.real), float(v.imag)] for v in row]
                    for row in self.physical_out.mat
                ],
            }
        return {
            "outcomes": [rec.to_json_dict() for rec in self.outcomes],
            "frame": self.frame.to_json_dict(),
            "logical_out": None
            if self.logical_out is None
            else [[float(a.real), float(a.imag)] for a in self.logical_out],
            "physical_out": phys,
            "success": bool(self.success),
            "total_probability": float(self.total_probability),
            "notes": [list(kv) for kv in self.notes],
        }


# ---------------------------------------------------------------------------
# Analytic quantities
# ---------------------------------------------------------------------------

def success_probability(alpha: float, theta: float = pi / 6) -> tuple[float, float]:
    """Per-trial success probability p_s(alpha) and its uniform bound p_theta.

    p_s(alpha) = sin^2(2 theta) / (2 (1 - cos(2 theta) cos(alpha)))
    p_theta    = sin^2(2 theta) / (2 (1 + |cos(2 theta)|))
    """
    _check_theta(theta)
    s2 = sin(2 * theta) ** 2
    p_s = s2 / (2.0 * (1.0 - cos(2 * theta) * cos(alpha)))
    p_theta = s2 / (2.0 * (1.0 + abs(cos(2 * theta))))
    return p_s, p_theta


def wrong_angle(alpha: float, theta: float = pi / 6) -> float:
    """Angle realized by the unwanted outcome: tan(a'/2) = -tan^2(theta) cot(a/2).

    The branch is folded into (-pi, pi]; alpha = 0 maps to pi (the cot limit).
    """
    _check_theta(theta)
    a = 2.0 * atan2(
        -(sin(theta) ** 2) * cos(alpha / 2.0), (cos(theta) ** 2) * sin(alpha / 2.0)
    )
    if a <= -pi:
        a += 2.0 * pi
    elif a > pi:
        a -= 2.0 * pi
    return a


def compensation_bound(alpha: float, theta: float = pi / 6, n_blocks: int = 1) -> float:
    """Lower bound p_s + (1-p_s)(1-(1-p_theta)^n) with n compensation blocks."""
    if n_blocks < 0:
        raise ValueError("n_blocks must be nonnegative")
    p_s, p_theta = success_probability(alpha, theta)
    return p_s + (1.0 - p_s) * (1.0 - (1.0 - p_theta) ** n_blocks)


# ---------------------------------------------------------------------------
# The interpreter
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Program:
    """An adaptive single-qubit measurement program on a resource state.

    ``next_step(bits)`` names the (qubit, basis) measured after the outcome
    bits seen so far, or None once the program is done; it may raise
    ``ProtocolAbort``.  ``finish(records, state)`` builds the result from
    the outcome records and the collapsed state.  Every branch makes
    ``n_steps`` measurements.
    """

    state: State
    n_steps: int
    next_step: Callable[[tuple[int, ...]], Step | None]
    finish: Callable[[tuple[OutcomeRecord, ...], State], Any]

    def run(self, *, outcomes: Sequence[int] | None = None,
            rng: np.random.Generator | None = None) -> Any:
        """One branch: post-select ``outcomes`` or sample every step with ``rng``."""
        if (outcomes is None) == (rng is None):
            raise ValueError("provide exactly one of outcomes= or rng=")
        if outcomes is not None:
            outcomes = tuple(outcomes)
            if len(outcomes) != self.n_steps:
                raise ValueError(f"expected {self.n_steps} outcomes, got {len(outcomes)}")
        state, records, bits = self.state, [], ()
        while (step := self.next_step(bits)) is not None:
            want = None if outcomes is None else outcomes[len(bits)]
            rec, state = measure(state, *step, outcome=want, rng=rng)
            records.append(rec)
            bits += (rec.outcome,)
        return self.finish(tuple(records), state)

    def branches(self) -> tuple[Any, ...]:
        """``finish`` of every branch, depth first with outcome 0 before 1.

        Each collapsed state is passed down the tree, so a shared prefix is
        measured once.  Only zero-probability children are skipped.
        """
        out = []

        def walk(state: State, records: tuple[OutcomeRecord, ...]) -> None:
            step = self.next_step(tuple(rec.outcome for rec in records))
            if step is None:
                out.append(self.finish(records, state))
                return
            for outcome in (0, 1):
                try:
                    rec, rest = measure(state, *step, outcome=outcome)
                except ZeroProbabilityBranch:
                    continue
                walk(rest, records + (rec,))

        walk(self.state, ())
        return tuple(out)


def _transcript(
    records: tuple[OutcomeRecord, ...], frame: PauliFrame, logical: np.ndarray | None,
    state: State, success: bool, notes: Sequence[tuple[str, str]] = (),
) -> ProtocolTranscript:
    """A branch's transcript; its probability is the product of its steps'."""
    total = float(np.prod([r.probability for r in records]))
    return ProtocolTranscript(records, frame, logical, state, success, total, notes)


def _rotation_target(alpha: float) -> np.ndarray:
    """H Rz(alpha) |+> — the correlation-space output of one rotation."""
    return qm.HAD @ qm.rz(alpha) @ qm.ket("+")


def _is_pure(state: State) -> bool:
    return isinstance(state, qm.StateVector)


# ---------------------------------------------------------------------------
# Single-qubit rotation sequence
# ---------------------------------------------------------------------------

def rotate_sequence(
    alpha: float,
    beta: float,
    gamma: float,
    *,
    theta: float = pi / 6,
    outcomes: Sequence[int] | None = (0, 0, 0),
    rng: np.random.Generator | None = None,
) -> ProtocolTranscript:
    """Three consecutive basis-B measurements on the four-qubit resource.

    With all outcomes 0 the readout qubit carries
    Rz(gamma) Rx(beta) Rz(alpha) |+>  (computational encoding 0->H, 1->V),
    and the correlation-space output is the same vector with an extra
    Hadamard in front.
    """
    if rng is not None:
        outcomes = None  # an explicit generator overrides the default zeros
    angles = (alpha, beta, gamma)

    def next_step(bits):
        k = len(bits)
        return None if k == 3 else (str(k + 1), basis_B(angles[k], theta))

    def finish(records, state):
        logical = qm.HAD @ state.amps if _is_pure(state) else None
        success = all(r.outcome == 0 for r in records)
        return _transcript(records, _single_frame(), logical, state, success)

    return Program(build_psi4(theta), 3, next_step, finish).run(outcomes=outcomes, rng=rng)


# ---------------------------------------------------------------------------
# Compensated rotation
# ---------------------------------------------------------------------------

_RESOURCES = ("2-qubit", "4-qubit")


def _resource_state(resource: str, theta: float) -> qm.StateVector:
    if resource == "2-qubit":
        return lambda34(theta)
    if resource == "4-qubit":
        return build_psi4(theta)
    raise ValueError(f"unknown resource {resource!r}; expected one of {_RESOURCES}")


def _compensation_program(
    alpha: float, resource: str, theta: float, state: State | None
) -> Program:
    """The compensated rotation (see ``compensate``) as a program."""
    if state is None:
        state = _resource_state(resource, theta)
    elif resource not in _RESOURCES:
        raise ValueError(f"unknown resource {resource!r}; expected one of {_RESOURCES}")
    two_qubit = resource == "2-qubit"
    z_basis = pauli_basis("Z")

    def comp_angle(r2):
        return (-1.0 if r2 else 1.0) * (alpha - wrong_angle(alpha, theta))

    def next_step(bits):
        k = len(bits)
        if two_qubit:
            return None if k else ("3", basis_B(alpha, theta))
        if k == 0:
            return "1", basis_B(alpha, theta)
        if k == 1:
            return "2", z_basis
        if k == 2:
            return "3", z_basis if bits[0] == 0 else basis_B(comp_angle(bits[1]), theta)
        return None

    def finish(records, state):
        bits = tuple(r.outcome for r in records)
        notes = ()
        if two_qubit:
            frame, success = _single_frame(), bits[0] == 0
        elif bits[0] == 0:
            frame, success = _single_frame(x=bits[2], z=bits[1]), True
        else:
            frame, success = _single_frame(z=bits[1]), bits[2] == 0
            notes = (("compensation_angle", f"{comp_angle(bits[1]):.15g}"),)
        logical = qm.HAD @ state.amps if _is_pure(state) else None
        if logical is not None and success:
            expected_phys = qm.HAD @ frame.operator("out") @ _rotation_target(alpha)
            if not qm.vec_equal_up_to_phase(state.amps, expected_phys, 1e-10):
                raise AssertionError(
                    "compensation branch output does not match its Pauli frame"
                )
        return _transcript(records, frame, logical, state, success, notes)

    return Program(state, 1 if two_qubit else 3, next_step, finish)


def compensate(
    alpha: float,
    resource: str = "4-qubit",
    *,
    theta: float = pi / 6,
    outcomes: Sequence[int] | None = None,
    rng: np.random.Generator | None = None,
    state: State | None = None,
) -> ProtocolTranscript:
    """Trial-until-success rotation with one compensation round.

    On the 4-qubit resource: measure qubit 1 in basis B(alpha).  Outcome 0:
    finish with computational measurements on qubits 2 and 3 (byproduct
    X^{r3} Z^{r2}).  Outcome 1: measure qubit 2 computationally, then qubit
    3 in B((-1)^{r2}(alpha - alpha')) — outcome 0 recovers the rotation
    with byproduct Z^{r2}, outcome 1 fails.  The 2-qubit resource admits a
    single trial with success probability p_s(alpha).
    """
    program = _compensation_program(alpha, resource, theta, state)
    return program.run(outcomes=outcomes, rng=rng)


def enumerate_compensation(
    alpha: float,
    resource: str = "4-qubit",
    *,
    theta: float = pi / 6,
    state: State | None = None,
) -> tuple[float, tuple[ProtocolTranscript, ...]]:
    """All outcome branches of the compensated rotation, with total success.

    Branch probabilities sum to 1; the returned success probability is the
    sum over branches flagged successful.
    """
    branches = _compensation_program(alpha, resource, theta, state).branches()
    total = sum(b.total_probability for b in branches)
    if abs(total - 1.0) > 1e-11:
        raise AssertionError("branch probabilities do not sum to 1")
    p_success = sum(b.total_probability for b in branches if b.success)
    return float(p_success), branches


def noisy_success_curve(
    alpha_grid: Sequence[float],
    resource: str = "4-qubit",
    fidelity: float = 1.0,
    *,
    theta: float = pi / 6,
) -> list[tuple[float, float]]:
    """Success probability of the compensated rotation on a white-noise state.

    The resource is mixed as w |psi><psi| + (1-w) I/2^n with w chosen so the
    state's fidelity with the pure resource equals ``fidelity``; the curve
    is produced by exhaustive branch enumeration on the density matrix.
    """
    pure = _resource_state(resource, theta)
    n = pure.n_qubits
    dim = 2**n
    f_min = 1.0 / dim
    if not f_min < fidelity <= 1.0:
        raise ValueError(
            f"fidelity for the {resource} resource must lie in ({f_min:.6g}, 1]"
        )
    state: State = pure if fidelity == 1.0 else white_noise(pure, fidelity)
    out = []
    for alpha in alpha_grid:
        p, _ = enumerate_compensation(float(alpha), resource, theta=theta, state=state)
        out.append((float(alpha), float(p)))
    return out


# ---------------------------------------------------------------------------
# Entangling-gate program
# ---------------------------------------------------------------------------

def cz_gate_protocol(
    alpha: float,
    *,
    outcomes: Sequence[int] | None = None,
    rng: np.random.Generator | None = None,
    theta: float = pi / 6,
) -> ProtocolTranscript:
    """Entangling gate on the six-qubit resource.

    Qubit 1 is measured in B(alpha) (preparing the rotated logical input),
    qubits 2 and 3 in B(pi/2).  When r2 = r3 = 0 the coupling qubit 4 is
    measured in the circular basis and the logical map on the two wires is
    (H (x) H) (Z (x) Z)^{r4} CZ up to global phase; otherwise qubit 4 is
    measured computationally and the wires decouple into a product state.
    The surviving register is (1p, 3p).
    """
    angles = (alpha, pi / 2, pi / 2)

    def next_step(bits):
        k = len(bits)
        if k < 3:
            return str(k + 1), basis_B(angles[k], theta)
        if k == 3:
            return "4", pauli_basis("Y" if bits[1:] == (0, 0) else "Z")
        return None

    def finish(records, state):
        r1, r2, r3, r4 = (r.outcome for r in records)
        entangling = r2 == r3 == 0
        state = state.reorder(("1p", "3p"))
        notes = []
        if r1 == 1:
            notes.append(("effective_alpha", f"{wrong_angle(alpha, theta):.15g}"))
        if not entangling:
            notes.append(("decoupled", "qubit 4 measured computationally"))
        z = r4 if entangling else 0
        frame = PauliFrame(("1p", "3p"), (0, 0), (z, z))
        # Invert the readout maps: site 1p reads H*v, site 3p reads v.
        logical = qm.kron(qm.HAD, qm.I2) @ state.amps if _is_pure(state) else None
        return _transcript(records, frame, logical, state, entangling, notes)

    return Program(build_psi6(theta), 4, next_step, finish).run(outcomes=outcomes, rng=rng)


# ---------------------------------------------------------------------------
# Function-distinguishing program
# ---------------------------------------------------------------------------

_FUNCTIONS = ("constant", "balanced")
_TARGET_BITS = {"constant": (0, 1), "balanced": (1, 1)}


def deutsch_relabel(
    raw_bits: tuple[int, int], r1: int, r4: int, function: str
) -> tuple[int, int]:
    """Classical correction of the (query, ancilla) readout bits.

    constant: (q, a) -> (q, a xor r1)
    balanced: (q, a) -> (q xor r1 xor r4, a xor r1)

    The map is conditioned on which measurement program ran because the two
    programs' byproduct structures differ; on the branches (r1, r4) = (0, 1)
    and (1, 0) the raw outputs of the two programs coincide, so no
    program-independent deterministic map exists.
    """
    if function not in _FUNCTIONS:
        raise ValueError(f"unknown function {function!r}; expected one of {_FUNCTIONS}")
    q, a = (int(b) for b in raw_bits)
    if q not in (0, 1) or a not in (0, 1):
        raise ValueError("bits must be 0 or 1")
    r1, r4 = int(r1), int(r4)
    if function == "constant":
        return q, a ^ r1
    return q ^ r1 ^ r4, a ^ r1


def deutsch(
    function: str,
    *,
    outcomes: Sequence[int] | None = None,
    rng: np.random.Generator | None = None,
    theta: float = pi / 6,
) -> tuple[int, int, ProtocolTranscript]:
    """Distinguish the two function classes on the six-qubit resource.

    The query logical qubit rides the (3, 3p) wire and the ancilla the
    (1, 2, 1p) wire.  Qubit 1 is measured in B(pi); qubits 2 and 3 in
    B(zeta) with zeta = 0 (constant) or pi/2 (balanced); the coupling
    qubit 4 in the same-family basis at the coupler angle (computational /
    circular respectively).  Returns the relabeled (query, ancilla) bits —
    0 is the H class, 1 the V class — and the transcript (raw bits in the
    notes).  The balanced program aborts when r2 or r3 is nonzero (the
    entangling step is unavailable).
    """
    if function not in _FUNCTIONS:
        raise ValueError(f"unknown function {function!r}; expected one of {_FUNCTIONS}")
    zeta = 0.0 if function == "constant" else pi / 2

    def next_step(bits):
        k = len(bits)
        if k < 3:
            return str(k + 1), basis_B(pi if k == 0 else zeta, theta)
        if k == 4:
            return None
        if function == "balanced" and (bits[1] or bits[2]):
            raise ProtocolAbort(
                "balanced program aborted: r2 or r3 nonzero, entangling step unavailable"
            )
        return "4", basis_B(zeta, COUPLER_THETA)

    def finish(records, state):
        r1, r2, r3, r4 = (r.outcome for r in records)
        state = state.reorder(("1p", "3p"))
        if not _is_pure(state):
            raise ValueError("function distinguishing requires a pure resource")
        probs = np.abs(state.amps) ** 2
        idx = int(np.argmax(probs))
        if abs(probs[idx] - 1.0) > 1e-9:
            raise ProtocolAbort("readout is not a deterministic computational product")
        ancilla_raw, query_raw = (idx >> 1) & 1, idx & 1
        query, ancilla = deutsch_relabel((query_raw, ancilla_raw), r1, r4, function)
        notes = [
            ("function", function),
            ("raw_bits", f"query={query_raw},ancilla={ancilla_raw}"),
        ]
        in_scope = (r2, r3) == (0, 0)
        if not in_scope:
            notes.append(("relabel_scope", "r2/r3 nonzero: outside the relabeling map"))
        success = in_scope and (query, ancilla) == _TARGET_BITS[function]
        frame = PauliFrame(("1p", "3p"), (0, 0), (0, 0))
        return query, ancilla, _transcript(records, frame, None, state, success, notes)

    return Program(build_psi6(theta), 4, next_step, finish).run(outcomes=outcomes, rng=rng)
