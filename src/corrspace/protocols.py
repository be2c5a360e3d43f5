"""Measurement programs executed on the wire resources.

The single-qubit rotation sequence, the trial-until-success rotation with
one compensation round, the probabilistic entangling gate and the
two-program function-distinguishing algorithm are each a ``Program``:
single-qubit measurements on a resource state whose bases depend on earlier
outcomes.  One interpreter runs them all, post-selected or Born-sampled
(``Program.run``); one walker enumerates the whole outcome tree of a stack
of programs that measure the same qubits (``walk_branches``) one level at a
time, asking one schedule per tree node for the kets of every program and
taking one stacked Born step per tree level.  ``Program.branches`` is its
stack of one; ``noisy_success_curve`` walks a whole alpha grid.
Analytic success probabilities and byproduct (Pauli-frame) bookkeeping sit
beside them.  Everything is driven by literal Born-rule contraction of the
resource states; closed-form results are used only as oracles in the tests.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from math import atan2, cos, hypot, pi, prod, sin
from typing import Any, Callable, NamedTuple, Sequence

import numpy as np

from . import qmath as qm
from .qmath import State
from .measurement import (
    ZERO_PROBABILITY, MeasurementBasis, OutcomeRecord, _measured_step, basis_B, basis_B_stack,
    pauli_basis,
)
from .noise_tomo import white_noise
from .wires import _check_theta, _read_only, build_psi4, build_psi6, lambda34

Step = tuple[str, MeasurementBasis]

# Basis-family angle for the coupling qubit: it carries an unweighted |+>
# site, so its basis family is the balanced one.  B(0) is then the
# computational basis and B(pi/2) the circular one, matching the bases the
# entangling-gate program uses on that qubit.
COUPLER_THETA = pi / 4


class ProtocolAbort(RuntimeError):
    """A branch on which the program cannot proceed (not a silent failure)."""


#: (wires, x, z) triples whose shared ``PauliFrame`` is kept (least recently
#: used go); the protocols here use 6.
_SHARED_FRAMES = 64


@dataclass(frozen=True)
class PauliFrame:
    """Byproduct X^x Z^z exponents (``int`` 0 or 1) per logical wire.

    The protocols' frames are shared frozen objects: ``_shared_frame``
    builds and checks each (wires, x, z) triple once and returns the same
    frame for it after that, so equal frames are one object.
    """

    wires: tuple[str, ...]
    x: tuple[int, ...]
    z: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "wires", tuple(self.wires))
        object.__setattr__(self, "x", tuple(qm._bit(v, "frame exponent") for v in self.x))
        object.__setattr__(self, "z", tuple(qm._bit(v, "frame exponent") for v in self.z))
        if not (len(self.wires) == len(self.x) == len(self.z)):
            raise ValueError("frame fields must have equal lengths")


_FRAME_OPERATORS = {
    (x, z): _read_only(np.linalg.matrix_power(qm.X, x) @ np.linalg.matrix_power(qm.Z, z))
    for x in (0, 1)
    for z in (0, 1)
}

# [x, z] is H X^x Z^z H / sqrt2: applied to (e^{-i alpha/2}, e^{i alpha/2}) it
# gives the compensation output H Rz(alpha)|+> seen through frame (x, z).
_FRAME_OUTPUTS = _read_only(
    np.array([[qm.HAD @ _FRAME_OPERATORS[x, z] @ qm.HAD for z in (0, 1)] for x in (0, 1)])
    / qm.SQRT2
)


@functools.lru_cache(maxsize=_SHARED_FRAMES)
def _shared_frame(wires: tuple[str, ...], x: tuple[int, ...], z: tuple[int, ...]) -> PauliFrame:
    return PauliFrame(wires, x, z)


def _single_frame(x: int = 0, z: int = 0) -> PauliFrame:
    return _shared_frame(("out",), (x,), (z,))


@dataclass(frozen=True)
class ProtocolTranscript:
    """Full record of one protocol branch.

    ``total_probability`` is the product of the steps' probabilities,
    multiplied left to right in step order (``math.prod``).  ``frame`` is a
    shared frozen ``PauliFrame``.
    """

    outcomes: tuple[OutcomeRecord, ...]
    frame: PauliFrame
    logical_out: np.ndarray | None
    physical_out: State | None
    success: bool
    total_probability: float = field(init=False)
    notes: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "outcomes", tuple(self.outcomes))
        object.__setattr__(self, "notes", tuple((k, v) for k, v in self.notes))
        if self.logical_out is not None:
            object.__setattr__(
                self, "logical_out", np.asarray(self.logical_out, dtype=complex)
            )
        object.__setattr__(
            self, "total_probability", float(prod([r.probability for r in self.outcomes]))
        )

    @property
    def outcome_bits(self) -> tuple[int, ...]:
        return tuple(rec.outcome for rec in self.outcomes)


# ---------------------------------------------------------------------------
# Analytic quantities
# ---------------------------------------------------------------------------

def success_probability(alpha: float, theta: float = pi / 6) -> tuple[float, float]:
    """Per-trial success probability p_s(alpha) and its uniform bound p_theta.

    p_s(alpha) = sin^2(2 theta) / (2 (1 - cos(2 theta) cos(alpha)))
    p_theta    = sin^2(2 theta) / (2 (1 + |cos(2 theta)|))

    Near theta = 0 the denominator of p_s rounds to 0 (or p_s past 1), so
    such angles raise the degenerate-angle ``ValueError``.
    """
    _check_theta(theta)
    qm._angle(alpha, "alpha")
    s2 = sin(2 * theta) ** 2
    denominator = 2.0 * (1.0 - cos(2 * theta) * cos(alpha))
    p_s = s2 / denominator if denominator > 0.0 else float("inf")
    if not 0.0 <= p_s <= 1.0:
        raise ValueError(
            "degenerate wire angle: p_s(alpha) is not a probability in floating point"
        )
    p_theta = s2 / (2.0 * (1.0 + abs(cos(2 * theta))))
    return p_s, p_theta


def wrong_angle(alpha: float, theta: float = pi / 6) -> float:
    """Angle realized by the unwanted outcome: tan(a'/2) = -tan^2(theta) cot(a/2).

    The branch is folded into (-pi, pi]; alpha = 0 maps to pi (the cot limit).
    """
    _check_theta(theta)
    qm._angle(alpha, "alpha")
    a = 2.0 * atan2(
        -(sin(theta) ** 2) * cos(alpha / 2.0), (cos(theta) ** 2) * sin(alpha / 2.0)
    )
    if a <= -pi:
        a += 2.0 * pi
    elif a > pi:
        a -= 2.0 * pi
    return a


# ---------------------------------------------------------------------------
# The interpreter
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Program:
    """An adaptive single-qubit measurement program on a resource state.

    ``next_step(bits)`` names the (qubit, basis) measured after the outcome
    bits seen so far, or None once the branch is done; it may raise
    ``ProtocolAbort``.  ``finish(records, state)`` builds the result from
    the outcome records and the collapsed state.
    """

    state: State
    next_step: Callable[[tuple[int, ...]], Step | None]
    finish: Callable[[tuple[OutcomeRecord, ...], State], Any]

    def run(self, *, outcomes: Sequence[int] | None = None,
            rng: np.random.Generator | None = None) -> Any:
        """One branch: post-select exactly its ``outcomes``, or sample every step with ``rng``.

        Each step is one ``measurement._measured_step`` on the branch's raw
        labels and array, so it has the bits of one ``measure`` call and
        draws from ``rng`` as that call does.  ``finish`` gets one
        ``StateVector`` or ``DensityMatrix`` built at the end of the branch,
        or the program's own state object when no step runs.  Each outcome
        must be a Python or NumPy integer equal to 0 or 1.
        """
        if (outcomes is None) == (rng is None):
            raise ValueError("provide exactly one of outcomes= or rng=")
        state, records, bits = self.state, [], ()
        pure = isinstance(state, qm.StateVector)
        labels, data = state.labels, state.amps if pure else state.mat
        while (step := self.next_step(bits)) is not None:
            if outcomes is not None and len(bits) == len(outcomes):
                raise ValueError(f"branch {bits} needs more than the {len(outcomes)} outcomes given")
            want = None if outcomes is None else outcomes[len(bits)]
            rec, labels, data = _measured_step(labels, data, *step, want, rng)
            records.append(rec)
            bits += (rec.outcome,)
        if outcomes is not None and len(bits) < len(outcomes):
            raise ValueError(f"branch {bits} ends before the {len(outcomes)} outcomes given")
        if records:
            state = (qm.StateVector if pure else qm.DensityMatrix)(labels, data)
        return self.finish(tuple(records), state)

    def branches(self) -> tuple[Any, ...]:
        """``finish`` of every branch, depth first with outcome 0 before 1.

        The stack of one of ``walk_branches``: ``next_step`` is called once
        per tree node, a shared prefix is collapsed once, each tree level
        costs one ``qmath.collapse``, and only children below
        ``ZERO_PROBABILITY`` are skipped.  The records and states equal
        those of ``run`` post-selecting the same outcomes.  ``finish`` runs
        after the whole tree is walked; a ``ProtocolAbort`` from
        ``next_step`` propagates.
        """
        steps = {}

        def schedule(bits, active):
            step = steps[bits] = self.next_step(bits)
            if step is None:
                return None
            qubit, basis = step
            return qubit, basis.kets[None]

        return tuple(
            self.finish(tuple(
                OutcomeRecord(q, steps[leaf.bits[:k]][1], bit, float(p[0]))
                for k, (q, bit, p) in enumerate(zip(leaf.qubits, leaf.bits, leaf.probs))
            ), leaf.state(0))
            for leaf in walk_branches((self.state,), schedule)
        )


# A stacked measurement program: ``schedule(bits, active)`` names the qubit
# that the programs in ``active`` measure after the outcome ``bits`` and
# returns their read-only (len(active), 2, 2) kets, or None once they are done.
Schedule = Callable[[tuple[int, ...], np.ndarray], "tuple[str, np.ndarray] | None"]


class Leaf(NamedTuple):
    """One leaf of the outcome tree shared by a stack of programs.

    ``active`` holds the indices of the programs that reach the leaf; the
    per-step Born ``probs`` and the collapsed ``states`` (amplitude vectors
    or density matrices on ``labels``) are aligned with it.
    """

    bits: tuple[int, ...]
    qubits: tuple[str, ...]
    active: np.ndarray
    probs: tuple[np.ndarray, ...]
    labels: tuple[str, ...]
    states: np.ndarray

    def state(self, j: int) -> State:
        """Collapsed state of the ``j``-th active program."""
        if self.states.ndim == 2:
            return qm.StateVector(self.labels, self.states[j])
        return qm.DensityMatrix(self.labels, self.states[j])


def walk_branches(states: Sequence[State], schedule: Schedule) -> list[Leaf]:
    """Every leaf of a stack of programs' shared outcome tree, depth first,
    0 before 1.

    Program g starts from ``states[g]``; the states are of one kind on one
    register.  The tree is walked one level at a time.  ``schedule`` is
    called once per tree node with the outcome bits and the indices of the
    programs still active; row j of its kets holds ket0 and ket1 of program
    ``active[j]``.  The nodes of a level that measure one qubit of one
    register are one group: the states of every node in it, once for
    outcome 0 and once for outcome 1, are one ``qmath.collapse``, so a tree
    whose nodes at each depth measure one qubit makes one call per tree
    level.  Within a level the schedule is called in the order of the bits.
    A child whose probability is below ``ZERO_PROBABILITY`` is skipped for
    that program only, so the schedule below it sees fewer rows.  The leaves
    come back after the whole walk.  An empty stack of states or a ket stack
    whose shape is not (len(active), 2, 2) raises ``ValueError``;
    ``ProtocolAbort`` propagates.
    """
    if len(states) == 0:
        raise ValueError("walk_branches needs at least one program; the stack of states is empty")
    first = states[0]
    pure = _is_pure(first)
    if any(_is_pure(s) != pure or s.labels != first.labels for s in states):
        raise ValueError("programs must start from states of one kind on one register")
    stack = np.stack([s.amps if pure else s.mat for s in states])
    # every node is held as a Leaf record; one whose schedule returns None is kept
    level = [Leaf((), (), np.arange(len(states)), (), first.labels, stack)]
    leaves = []
    while level:
        groups: dict[tuple[tuple[str, ...], str], list[tuple[Leaf, np.ndarray]]] = {}
        for node in level:
            step = schedule(node.bits, node.active)
            if step is None:
                leaves.append(node)
                continue
            qubit, kets = step
            if np.shape(kets) != (len(node.active), 2, 2):
                raise ValueError(
                    f"schedule gave kets of shape {np.shape(kets)} for {len(node.active)} "
                    f"programs after outcomes {node.bits}; expected ({len(node.active)}, 2, 2)"
                )
            groups.setdefault((node.labels, qubit), []).append((node, kets))
        level = [child for (labels, qubit), members in groups.items()
                 for child in _children(labels, qubit, members)]
        level.sort(key=lambda node: node.bits)
    leaves.sort(key=lambda leaf: leaf.bits)
    return leaves


def _children(
    labels: tuple[str, ...], qubit: str, members: list[tuple[Leaf, np.ndarray]],
) -> list[Leaf]:
    """Both children of every (node, kets) in ``members`` from one
    ``qmath.collapse`` of their stacked states.

    Outcomes are stacked along the program axis, never contracted together,
    so each item is the (1, 2) by (2, rest) product of a per-child collapse.
    """
    axis = qm._index_of(labels, qubit)
    rest_labels = labels[:axis] + labels[axis + 1:]
    states = np.concatenate([node.states for node, _ in members] * 2)
    kets = np.concatenate([kets[:, outcome] for outcome in (0, 1) for _, kets in members],
                          dtype=complex)
    p_all, collapsed_all = qm.collapse(states, axis, kets, normalize=True)
    children, stop = [], 0
    for outcome in (0, 1):
        for node, _ in members:
            start, stop = stop, stop + len(node.active)
            p, collapsed = p_all[start:stop], collapsed_all[start:stop]
            active, probs = node.active, node.probs + (p,)
            rows = np.flatnonzero(~(p < ZERO_PROBABILITY))
            if len(rows) == 0:
                continue
            if len(rows) < len(p):  # skip this child for the programs that cannot reach it
                active, collapsed = active[rows], collapsed[rows]
                probs = tuple(q[rows] for q in probs)
            children.append(Leaf(node.bits + (outcome,), node.qubits + (qubit,), active,
                                 probs, rest_labels, collapsed))
    return children


def _frame_targets(alphas: Sequence[float]) -> np.ndarray:
    """(G, 2, 2, 2) array: [g, x, z] is H X^x Z^z H Rz(alpha_g)|+>, the output
    a successful compensation branch with frame (x, z) must have up to phase."""
    phases = np.exp(np.multiply.outer(alphas, (-0.5j, 0.5j)))
    return (_FRAME_OUTPUTS @ phases[:, None, None, :, None])[..., 0]


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
    outcomes: Sequence[int] | None = None,
    rng: np.random.Generator | None = None,
) -> ProtocolTranscript:
    """Three consecutive basis-B measurements on the four-qubit resource.

    With all outcomes 0 the readout qubit carries
    Rz(gamma) Rx(beta) Rz(alpha) |+>  (computational encoding 0->H, 1->V),
    and the correlation-space output is the same vector with an extra
    Hadamard in front.  Without ``outcomes`` or ``rng`` the all-zero
    branch is post-selected.
    """
    if outcomes is None and rng is None:
        outcomes = (0, 0, 0)
    angles = (alpha, beta, gamma)

    def next_step(bits):
        k = len(bits)
        return None if k == 3 else (str(k + 1), basis_B(angles[k], theta))

    def finish(records, state):
        logical = qm.HAD @ state.amps if _is_pure(state) else None
        success = all(r.outcome == 0 for r in records)
        return ProtocolTranscript(records, _single_frame(), logical, state, success)

    return Program(build_psi4(theta), next_step, finish).run(outcomes=outcomes, rng=rng)


# ---------------------------------------------------------------------------
# Compensated rotation
# ---------------------------------------------------------------------------

_RESOURCES = {"2-qubit": lambda34, "4-qubit": build_psi4}
_Z_BASIS = pauli_basis("Z")


def _resource_builder(resource: str) -> Callable[[float], qm.StateVector]:
    if resource not in _RESOURCES:
        raise ValueError(f"unknown resource {resource!r}; expected one of {tuple(_RESOURCES)}")
    return _RESOURCES[resource]


def _compensation_step(bits: tuple[int, ...], two_qubit: bool) -> tuple[str, float | None] | None:
    """The compensated rotation's rule (see ``compensate``): the qubit and
    setting measured after ``bits``, or None once the branch is done.

    The setting is None for the computational basis, 0 for B(alpha), and
    +1.0 or -1.0 for B(+-(alpha - alpha')), alpha' = ``wrong_angle(alpha)``.
    """
    k = len(bits)
    if two_qubit:
        return None if k else ("3", 0)
    if k == 0:
        return "1", 0
    if k == 1:
        return "2", None
    if k == 2:
        return "3", None if bits[0] == 0 else (-1.0 if bits[1] else 1.0)
    return None


def _compensation_zeta(alphas: Sequence[float], theta: float) -> Callable[[float, int], float]:
    """``zeta(setting, g)``: the basis-B angle of a B setting of
    ``_compensation_step`` for ``alphas[g]``.  alpha - alpha' is computed
    once per angle, when a branch first needs it."""
    deltas = {}

    def zeta(setting, g):
        if setting == 0:
            return alphas[g]
        if g not in deltas:
            deltas[g] = alphas[g] - wrong_angle(alphas[g], theta)
        return setting * deltas[g]

    return zeta


def _compensation_program(
    alpha: float, resource: str, theta: float, state: State | None,
) -> Program:
    """The compensated rotation (see ``compensate``) as a program.

    On a pure state every successful branch is checked against its frame's
    expected output; the first such branch builds the frame targets, once
    per program.
    """
    build = _resource_builder(resource)
    if state is None:
        state = build(theta)
    two_qubit = resource == "2-qubit"
    zeta = _compensation_zeta((alpha,), theta)
    outputs = None

    def next_step(bits):
        step = _compensation_step(bits, two_qubit)
        if step is None:
            return None
        qubit, setting = step
        return qubit, _Z_BASIS if setting is None else basis_B(zeta(setting, 0), theta)

    def finish(records, state):
        nonlocal outputs
        bits = tuple(r.outcome for r in records)
        frame, success = _compensation_frame(bits, two_qubit)
        notes = ()
        if not two_qubit and bits[0] == 1:
            setting = _compensation_step(bits[:2], two_qubit)[1]  # qubit 3's B setting
            notes = (("compensation_angle", f"{zeta(setting, 0):.15g}"),)
        logical = qm.HAD @ state.amps if _is_pure(state) else None
        if logical is not None and success:
            if outputs is None:
                outputs = _frame_targets((alpha,))[0]
            _check_frames(state.amps[None], outputs[None, frame.x[0], frame.z[0]])
        return ProtocolTranscript(records, frame, logical, state, success, notes)

    return Program(state, next_step, finish)


def _compensation_schedule(alphas: Sequence[float], two_qubit: bool, theta: float) -> Schedule:
    """The compensated rotation at every angle of ``alphas`` as one stacked
    schedule for ``walk_branches``: the rule of ``_compensation_step`` with
    each node's B kets built by one ``basis_B_stack``."""
    zeta = _compensation_zeta(alphas, theta)

    def schedule(bits, active):
        step = _compensation_step(bits, two_qubit)
        if step is None:
            return None
        qubit, setting = step
        if setting is None:
            return qubit, np.broadcast_to(_Z_BASIS.kets, (len(active), 2, 2))
        return qubit, basis_B_stack([zeta(setting, g) for g in active], theta)

    return schedule


def _compensation_frame(bits: tuple[int, ...], two_qubit: bool) -> tuple[PauliFrame, bool]:
    """Byproduct frame and success flag of a compensation branch's outcome bits."""
    if two_qubit:
        return _single_frame(), bits[0] == 0
    if bits[0] == 0:
        return _single_frame(x=bits[2], z=bits[1]), True
    return _single_frame(z=bits[1]), bits[2] == 0


# ``_check_frames`` passes a residual below 1e-10 alone: the largest float under it.
_FRAME_BOUND = float(np.nextafter(1e-10, 0.0))


def _check_frames(amps: np.ndarray, expected: np.ndarray) -> None:
    """Successful branch outputs (G, 2) must equal ``expected`` (G, 2) up to
    phase: | |<a|e>| / (|a| |e|) - 1 | < 1e-10 for every row.

    One row, as a sampled or post-selected shot checks, is computed in
    Python complex scalars; a stack of rows, as the curve checks, in NumPy.
    """
    if len(amps) == 1:
        (a0, a1), (e0, e1) = amps[0].tolist(), expected[0].tolist()
        overlap = abs(a0.conjugate() * e0 + a1.conjugate() * e1)
        residual = abs(overlap / (hypot(abs(a0), abs(a1)) * hypot(abs(e0), abs(e1))) - 1.0)
    else:
        overlap = np.abs((amps.conj() * expected).sum(axis=1))
        norms = np.sqrt((np.abs(amps) ** 2).sum(axis=1) * (np.abs(expected) ** 2).sum(axis=1))
        residual = np.abs(overlap / norms - 1.0)
    qm.require("compensation frame", residual, _FRAME_BOUND,
               "compensation branch output does not match its Pauli frame")


def _check_branch_sum(total) -> None:
    """Branch probabilities (one total or an array of them) must sum to 1
    within 1e-11; a NaN total fails."""
    qm.require("branch sum", abs(total - 1.0), 1e-11, "branch probabilities do not sum to 1")


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
    _check_branch_sum(sum(b.total_probability for b in branches))
    p_success = sum(b.total_probability for b in branches if b.success)
    return float(p_success), branches


# Grid angles walked together by ``noisy_success_curve``: memory stays bounded
# for any grid size.
_CURVE_CHUNK = 64


def noisy_success_curve(
    alpha_grid: Sequence[float],
    resource: str = "4-qubit",
    fidelity: float = 1.0,
    *,
    theta: float = pi / 6,
) -> list[tuple[float, float]]:
    """Success probability of the compensated rotation on a white-noise state.

    The resource is mixed as w |psi><psi| + (1-w) I/2^n with w chosen so the
    state's fidelity with the pure resource equals ``fidelity``, which
    ``white_noise`` requires to lie in (1/2^n, 1].  The grid
    is walked ``_CURVE_CHUNK`` angles at a time: one ``walk_branches`` per
    chunk asks one ``_compensation_schedule`` for each tree node's kets of
    every angle and collapses every angle's state, for every node and
    outcome of a tree level, in one ``qmath.collapse`` per tree level.  Each
    angle's value has the bits of ``enumerate_compensation``: successful
    leaves are summed depth first, each the product of its step
    probabilities in step order.  Every angle's branches must sum to 1, and
    on a pure resource every successful leaf must match its Pauli frame.
    """
    pure = _resource_builder(resource)(theta)
    state: State = pure if fidelity == 1.0 else white_noise(pure, fidelity)
    alphas = [float(a) for a in alpha_grid]
    two_qubit = resource == "2-qubit"
    out = []
    for start in range(0, len(alphas), _CURVE_CHUNK):
        chunk = alphas[start:start + _CURVE_CHUNK]
        schedule = _compensation_schedule(chunk, two_qubit, theta)
        outputs = _frame_targets(chunk) if fidelity == 1.0 else None
        total, success = np.zeros(len(chunk)), np.zeros(len(chunk))
        for leaf in walk_branches([state] * len(chunk), schedule):
            p = leaf.probs[0]
            for step in leaf.probs[1:]:
                p = p * step
            total[leaf.active] += p
            frame, ok = _compensation_frame(leaf.bits, two_qubit)
            if ok:
                success[leaf.active] += p
                if fidelity == 1.0:
                    _check_frames(leaf.states, outputs[leaf.active, frame.x[0], frame.z[0]])
        _check_branch_sum(total)
        out.extend(zip(chunk, success.tolist()))
    return out


# ---------------------------------------------------------------------------
# Entangling-gate program
# ---------------------------------------------------------------------------

# Inverts the entangling gate's readout maps: site 1p reads H v, site 3p reads v.
_CZ_READOUT_INVERSE = _read_only(qm.kron(qm.HAD, qm.I2))


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
        frame = _shared_frame(("1p", "3p"), (0, 0), (z, z))
        logical = _CZ_READOUT_INVERSE @ state.amps if _is_pure(state) else None
        return ProtocolTranscript(records, frame, logical, state, entangling, notes)

    return Program(build_psi6(theta), next_step, finish).run(outcomes=outcomes, rng=rng)


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
    if len(raw_bits) != 2:
        raise ValueError(f"raw_bits must hold 2 bits (query, ancilla), got {raw_bits!r}")
    q, a, r1, r4 = (qm._bit(b, "bit") for b in (*raw_bits, r1, r4))
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
        frame = _shared_frame(("1p", "3p"), (0, 0), (0, 0))
        return query, ancilla, ProtocolTranscript(records, frame, None, state, success, notes)

    return Program(build_psi6(theta), next_step, finish).run(outcomes=outcomes, rng=rng)
