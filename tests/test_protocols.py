"""Measurement protocols: rotations, compensation, entangling gate, programs."""

import dataclasses
import json
import re
from math import atan, cos, pi, sin, sqrt

import numpy as np
import pytest

from corrspace import protocols
from corrspace import qmath as qm
from corrspace.cli import dumps15, transcript_payload
from corrspace.measurement import OutcomeRecord, ZeroProbabilityBranch, measure, pauli_basis
from corrspace.noise_tomo import white_noise
from corrspace.protocols import (
    COUPLER_THETA,
    PauliFrame,
    Program,
    ProtocolAbort,
    ProtocolTranscript,
    compensate,
    cz_gate_protocol,
    deutsch,
    deutsch_relabel,
    enumerate_compensation,
    noisy_success_curve,
    rotate_sequence,
    success_probability,
    wrong_angle,
)
from corrspace.wires import build_psi4, lambda34
from helpers import (
    assert_same_transcript, compensation_bound, frame_operator, overlap2, rand_state, rx, rz,
    vec_equal_up_to_phase,
)
from reference_tables import (
    ANOMALOUS_GATE_ROW_VECTOR,
    ANOMALOUS_ROTATION_ROWS,
    GATE_REFERENCE_ROWS,
    ROTATION_REFERENCE_ROWS,
    S3,
)

TOL = 1e-12


def _closed_form_rotation(alpha, beta, gamma):
    """Rz(gamma) Rx(beta) Rz(alpha) |+> — the advertised physical output."""
    return rz(gamma) @ rx(beta) @ rz(alpha) @ qm.ket("+")


# ---------------------------------------------------------------------------
# The program interpreter
# ---------------------------------------------------------------------------

def _two_step_program():
    """Z on 'a' of |0>|+>, then X on 'b' if a read 0 else Z (never reached)."""
    state = qm.StateVector(("a", "b"), np.kron(qm.ket("0"), qm.ket("+")))

    def next_step(bits):
        if len(bits) == 2:
            return None
        if not bits:
            return "a", pauli_basis("Z")
        return "b", pauli_basis("X" if bits[0] == 0 else "Z")

    return Program(state, next_step, lambda records, state: records)


def test_program_run_modes_and_validation(single_collapses):
    prog = _two_step_program()
    records = prog.run(outcomes=(0, 0))
    assert [(r.qubit, r.basis.name, r.outcome) for r in records] == [
        ("a", "Z", 0), ("b", "X", 0)
    ]
    assert abs(records[1].probability - 1) < TOL
    single_collapses.clear()
    sampled = prog.run(rng=np.random.default_rng(1))
    assert tuple(r.outcome for r in sampled) == (0, 0)
    assert single_collapses == [1, 1]  # one collapse per step: both drew outcome 0
    # a sampled step collapses again only when it draws outcome 1
    gen, seen = np.random.default_rng(7), set()
    for _ in range(20):
        single_collapses.clear()
        bits = compensate(0.8, "2-qubit", rng=gen).outcome_bits
        seen.update(bits)
        assert single_collapses == [1] * (len(bits) + sum(bits))
    assert seen == {0, 1}
    with pytest.raises(ValueError, match="exactly one"):
        prog.run()
    with pytest.raises(ValueError, match="exactly one"):
        prog.run(outcomes=(0, 0), rng=np.random.default_rng(1))
    # the outcomes must be exactly one branch: a step past them collapses
    # nothing, and a branch that ends early never reaches finish
    single_collapses.clear()
    with pytest.raises(ValueError, match=r"^branch \(0,\) needs more than the 1 outcomes given$"):
        prog.run(outcomes=(0,))
    assert single_collapses == [1]
    single_collapses.clear()
    with pytest.raises(ValueError, match=r"^branch \(1, 0\) needs more than the 2 outcomes given$"):
        compensate(0.8, outcomes=(1, 0))
    assert single_collapses == [1, 1]
    finished = []
    prog = Program(prog.state, prog.next_step, lambda records, state: finished.append(records))
    with pytest.raises(ValueError, match=r"^branch \(0, 0\) ends before the 3 outcomes given$"):
        prog.run(outcomes=(0, 0, 1))
    with pytest.raises(ValueError, match=r"^branch \(0,\) ends before the 2 outcomes given$"):
        compensate(0.8, "2-qubit", outcomes=(0, 1))
    assert finished == []


@pytest.mark.parametrize("bad", [0.5, 1.7, -0.3, 1.0, np.float64(1.0), 2, "0", "1", "011"])
def test_outcomes_must_be_integers_0_or_1(bad):
    # neither truncated (0.5 -> 0, 1.7 -> 1) nor read one character at a time
    got = re.escape(repr(bad))
    message = rf"^outcome must be 0 or 1, got {got}$"
    state = build_psi4()
    for st in (state, state.to_density()):
        with pytest.raises(ValueError, match=message):
            measure(st, "1", pauli_basis("Z"), outcome=bad)
    prog = _two_step_program()
    with pytest.raises(ValueError, match=message):
        prog.run(outcomes=(bad, 0))
    with pytest.raises(ValueError, match=message):
        compensate(0.3, "4-qubit", outcomes=(bad, 0, 1))
    with pytest.raises(ValueError, match=message):
        prog.run(outcomes=(0, bad))
    if isinstance(bad, str):  # a string of bits is not a sequence of outcomes
        with pytest.raises(ValueError, match=rf"^outcome must be 0 or 1, got {bad[0]!r}$"):
            compensate(0.3, "4-qubit", outcomes=bad)
    # records, frames and the relabeling map hold bits by the same rule
    with pytest.raises(ValueError, match=message):
        OutcomeRecord("1", pauli_basis("Z"), bad, 0.5)
    for x, z in (((bad,), (0,)), ((0,), (bad,))):
        with pytest.raises(ValueError, match=rf"^frame exponent must be 0 or 1, got {got}$"):
            PauliFrame(("out",), x, z)
    for args in (((bad, 0), 0, 1), ((0, bad), 0, 1), ((0, 0), bad, 1), ((0, 0), 0, bad)):
        with pytest.raises(ValueError, match=rf"^bit must be 0 or 1, got {got}$"):
            deutsch_relabel(*args, "balanced")


@pytest.mark.parametrize("raw_bits", ((), (0,), (0, 1, 1), (1, 0, 0, 1)))
def test_relabel_names_raw_bits_of_the_wrong_length(raw_bits):
    # unpacking them with r1 and r4 would raise "not enough values to unpack"
    message = rf"^raw_bits must hold 2 bits \(query, ancilla\), got {re.escape(repr(raw_bits))}$"
    for function in ("constant", "balanced"):
        with pytest.raises(ValueError, match=message):
            deutsch_relabel(raw_bits, 0, 1, function)


def test_relabel_refuses_fractional_bits_before_truncating_them():
    # int() would read (0.5, 1.9) and 0.7 as (0, 1) and 0, giving (1, 1)
    with pytest.raises(ValueError, match=r"^bit must be 0 or 1, got 0\.5$"):
        deutsch_relabel((0.5, 1.9), 0.7, 1, "balanced")


def test_outcomes_may_be_any_integer_type():
    want = compensate(0.3, "4-qubit", outcomes=(1, 0, 1))
    for outcomes in ((True, False, True), np.array([1, 0, 1]), (np.uint8(1), np.int32(0), 1)):
        got = compensate(0.3, "4-qubit", outcomes=outcomes)
        assert_same_transcript(got, want)
        assert all(type(r.outcome) is int for r in got.outcomes)
    # bools and NumPy integers are stored as int wherever a bit is held
    for one, zero in ((True, False), (np.int64(1), np.int64(0)), (np.True_, np.uint8(0))):
        rec = OutcomeRecord("1", pauli_basis("Z"), one, 0.5)
        frame = PauliFrame(("out",), (one,), (zero,))
        relabeled = deutsch_relabel((one, zero), zero, one, "balanced")
        assert (rec.outcome, frame.x, frame.z, relabeled) == (1, (1,), (0,), (0, 0))
        assert all(type(b) is int for b in (rec.outcome, *frame.x, *frame.z, *relabeled))


def _recording(program):
    """``program`` with a ``finish`` that returns its arguments."""
    return Program(program.state, program.next_step, lambda records, state: (records, state))


def _run_by_measure(program, outcomes=None, rng=None):
    """The branch of ``program.run`` as a chain of ``measure`` calls."""
    state, records, bits = program.state, [], ()
    while (step := program.next_step(bits)) is not None:
        want = None if outcomes is None else outcomes[len(bits)]
        rec, state = measure(state, *step, outcome=want, rng=rng)
        records.append(rec)
        bits += (rec.outcome,)
    return tuple(records), state


def _ended(branch):
    """(records, state, None) of ``branch()``, or ((), None, the error) when
    an abort or a zero-probability outcome ends it."""
    try:
        records, state = branch()
    except (ProtocolAbort, ZeroProbabilityBranch) as exc:
        return (), None, (type(exc), str(exc))
    return records, state, None


def _assert_same_bits(got, want):
    (got_records, got_state, got_error), (records, state, error) = got, want
    assert got_error == error and len(got_records) == len(records)
    for a, b in zip(got_records, records):
        assert (a.qubit, a.outcome) == (b.qubit, b.outcome) and a.basis is b.basis
        assert type(a.probability) is float and type(b.probability) is float
        assert np.float64(a.probability).tobytes() == np.float64(b.probability).tobytes()
    if error is None:
        assert type(got_state) is type(state) and got_state.labels == state.labels
        data = lambda st: st.amps if isinstance(st, qm.StateVector) else st.mat
        assert data(got_state).tobytes() == data(state).tobytes()


def _leaves(program, bits=()):
    """Every leaf of the program's outcome tree, a ``ProtocolAbort`` from
    ``next_step`` ending its branch; zero-probability leaves included."""
    try:
        step = program.next_step(bits)
    except ProtocolAbort:
        step = None
    if step is None:
        yield bits
        return
    for bit in (0, 1):
        yield from _leaves(program, bits + (bit,))


def _captured_program(run, monkeypatch):
    """The ``Program`` that ``run`` (a protocol call) runs."""
    captured = []
    real = Program.run

    def spy(self, **kwargs):
        captured.append(self)
        return real(self, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(Program, "run", spy)
        try:
            run()
        except ProtocolAbort:
            pass
    (program,) = captured
    return program


def test_program_run_has_the_bits_of_a_chain_of_measure_calls(monkeypatch):
    noisy = white_noise(build_psi4(), 0.8)
    runs = {
        "compensate 2-qubit": lambda: compensate(0.8, "2-qubit", outcomes=(0,)),
        "compensate 4-qubit": lambda: compensate(0.8, outcomes=(0, 0, 0)),
        "compensate noisy": lambda: compensate(0.8, state=noisy, outcomes=(0, 0, 0)),
        "rotate_sequence": lambda: rotate_sequence(0.3, -1.2, 2.5, outcomes=(0, 0, 0)),
        "cz_gate": lambda: cz_gate_protocol(0.7, outcomes=(0, 0, 0, 0)),
        "deutsch constant": lambda: deutsch("constant", outcomes=(0, 0, 0, 0)),
        "deutsch balanced": lambda: deutsch("balanced", outcomes=(0, 0, 0, 0)),
    }
    aborted = set()
    for name, run in runs.items():
        program = _captured_program(run, monkeypatch)
        seen = set()
        for seed in range(50):
            gen, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
            got = _ended(lambda: _recording(program).run(rng=gen))
            _assert_same_bits(got, _ended(lambda: _run_by_measure(program, rng=oracle)))
            assert gen.random() == oracle.random()  # the generators stay in step
            records, _, error = got
            seen.update(r.outcome for r in records)
            if error is not None:
                aborted.add(name)
        assert seen == {0, 1}, name
        leaves = list(_leaves(program))
        if name != "deutsch balanced":  # its branches() propagates the abort
            branch_bits = {tuple(r.outcome for r in records)
                           for records, _ in _recording(program).branches()}
            assert branch_bits <= set(leaves), name
        for bits in leaves:
            _assert_same_bits(_ended(lambda: _recording(program).run(outcomes=bits)),
                              _ended(lambda: _run_by_measure(program, outcomes=bits)))
    assert aborted == {"deutsch balanced"}


def test_program_run_builds_one_state_per_branch(monkeypatch):
    built = []
    for cls in (qm.StateVector, qm.DensityMatrix):
        def counted(self, _real=cls.__post_init__):
            built.append(type(self))
            return _real(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    noisy = white_noise(build_psi4(), 0.8)
    for state in (build_psi4(), noisy):
        program = _captured_program(lambda: compensate(0.8, state=state, outcomes=(1, 0, 1)),
                                    monkeypatch)
        for kwargs in ({"outcomes": (1, 0, 1)}, {"rng": np.random.default_rng(3)}):
            built.clear()
            records, final = _recording(program).run(**kwargs)
            assert len(records) == 3 and built == [type(state)]
            assert type(final) is type(state) and final.n_qubits == state.n_qubits - 3
    # a program with no step hands finish its own state object
    for state in (build_psi4(), noisy):
        program = Program(state, lambda bits: None, lambda records, st: (records, st))
        for kwargs in ({"outcomes": ()}, {"rng": np.random.default_rng(3)}):
            built.clear()
            records, final = program.run(**kwargs)
            assert records == () and final is state and built == []


def test_program_branches_skip_only_zero_probability_children():
    # a = 1 has probability 0 and b is an X eigenstate: one branch survives
    (only,) = _two_step_program().branches()
    assert tuple(r.outcome for r in only) == (0, 0)


def test_program_branches_propagate_aborts():
    def next_step(bits):
        raise ProtocolAbort("no step")

    prog = Program(build_psi4(), next_step, lambda records, state: records)
    with pytest.raises(ProtocolAbort):
        prog.branches()


def test_measured_steps_never_reach_the_stacked_collapse(monkeypatch):
    # a sampled or post-selected step collapses a stack of one with np.dot
    # and np.vdot; only stacks of two or more take the matmul machinery
    def stacked(*args):
        raise AssertionError("stacked collapse machinery reached")

    monkeypatch.setattr(qm, "_contract_front", stacked)
    monkeypatch.setattr(qm, "_row_dots", stacked)
    with pytest.raises(AssertionError, match="stacked collapse"):
        enumerate_compensation(0.8, "4-qubit")
    noisy = white_noise(build_psi4(pi / 6), 0.9)
    runs = (
        (lambda **kw: compensate(0.8, "2-qubit", **kw), (0,)),
        (lambda **kw: compensate(0.8, **kw), (0, 0, 0)),
        (lambda **kw: compensate(0.8, state=noisy, **kw), (0, 0, 0)),
        (lambda **kw: rotate_sequence(0.3, 0.4, 0.5, **kw), (0, 0, 0)),
        (lambda **kw: cz_gate_protocol(0.7, **kw), (0, 0, 0, 0)),
        (lambda **kw: deutsch("constant", **kw)[2], (0, 0, 0, 0)),
        (lambda **kw: deutsch("balanced", **kw)[2], (0, 0, 0, 0)),
    )
    rng = np.random.default_rng(5)
    for run, zeros in runs:
        assert run(outcomes=zeros).outcome_bits == zeros
        for _ in range(8):
            try:
                bits = run(rng=rng).outcome_bits
            except ProtocolAbort:  # balanced deutsch with r2 or r3 set
                continue
            assert run(outcomes=bits).outcome_bits == bits


def test_enumeration_shares_prefixes(collapse_stacks, monkeypatch):
    _, branches = enumerate_compensation(0.8, "4-qubit")
    assert len(branches) == 8
    # one call per tree level, holding both outcomes of every node on it
    assert collapse_stacks == [2, 4, 8]
    collapse_stacks.clear()
    # a whole grid walks the same 14 children once, every angle of every node
    # of a level in one call, and asks one schedule for each node's kets of
    # all the angles
    nodes, stacks, scalar = [], [], []
    make_schedule, stack_of = protocols._compensation_schedule, protocols.basis_B_stack

    def counted_schedule(*args):
        schedule = make_schedule(*args)
        return lambda bits, active: nodes.append(bits) or schedule(bits, active)

    monkeypatch.setattr(protocols, "_compensation_schedule", counted_schedule)
    monkeypatch.setattr(protocols, "basis_B_stack",
                        lambda zetas, theta: stacks.append(len(zetas)) or stack_of(zetas, theta))
    monkeypatch.setattr(protocols, "basis_B", lambda *args: scalar.append(args))
    noisy_success_curve(np.linspace(0, pi, 25), "4-qubit", 1.0)
    assert collapse_stacks == [50, 100, 200]
    assert sorted(nodes) == sorted(set(nodes)) and len(nodes) == 1 + 2 + 4 + 8
    assert stacks == [25] * 3  # B(alpha) at the root, B(+-(alpha - alpha')) below r1 = 1
    assert scalar == []


def test_wrong_angle_is_computed_once_per_compensation_angle(monkeypatch):
    calls = []
    real = protocols.wrong_angle
    monkeypatch.setattr(protocols, "wrong_angle",
                        lambda alpha, theta: calls.append(alpha) or real(alpha, theta))
    grid = np.linspace(0.1, pi, 25)
    noisy_success_curve(grid, "4-qubit", 0.9)
    assert calls == grid.tolist()
    calls.clear()
    _, branches = enumerate_compensation(0.8, "4-qubit")
    assert calls == [0.8]  # two level-2 bases and two notes share it
    assert [dict(b.notes).get("compensation_angle") for b in branches[4:]] == [
        f"{0.8 - real(0.8, pi / 6):.15g}"] * 2 + [f"{-(0.8 - real(0.8, pi / 6)):.15g}"] * 2
    calls.clear()
    compensate(0.8, outcomes=(0, 1, 1))
    assert calls == []  # a branch that never reaches the compensation computes nothing


def _pauli_schedule(letters, calls):
    """Measure qubit 'a' of state g in the Pauli basis ``letters[g]``; log each call."""
    kets = np.array([[pauli_basis(k).ket0, pauli_basis(k).ket1] for k in letters])

    def schedule(bits, active):
        calls.append((bits, active.tolist()))
        return None if bits else ("a", kets[active])

    return schedule


def _one_qubit_program(letter):
    """Measure the single qubit of |0> in a Pauli basis."""
    state = qm.StateVector(("a",), qm.ket("0"))

    def next_step(bits):
        return None if bits else ("a", pauli_basis(letter))

    return Program(state, next_step, lambda records, state: records)


def test_walker_skips_a_zero_probability_child_per_program():
    # Z on |0> never reads 1; X reads both outcomes
    zero, calls = qm.StateVector(("a",), qm.ket("0")), []
    leaves = list(protocols.walk_branches([zero, zero], _pauli_schedule("ZX", calls)))
    assert [leaf.bits for leaf in leaves] == [(0,), (1,)]
    assert [leaf.active.tolist() for leaf in leaves] == [[0, 1], [1]]
    # one schedule call per node; below outcome 1 only the X program is asked
    assert calls == [((), [0, 1]), ((0,), [0, 1]), ((1,), [1])]
    x_program = _one_qubit_program("X")
    half = [x_program.run(outcomes=(o,))[0].probability for o in (0, 1)]
    assert leaves[0].probs[0].tolist() == [1.0, half[0]]
    assert leaves[1].probs[0].tolist() == [half[1]]
    assert leaves[1].state(0).labels == ()  # the measured qubit is gone


def test_walker_checks_the_ket_stack_and_the_register():
    zero, plus = qm.StateVector(("a",), qm.ket("0")), qm.StateVector(("a",), qm.ket("+"))
    z_kets = np.array([[qm.ket("0"), qm.ket("1")]])

    def one_row(bits, active):
        return None if bits else ("a", z_kets)

    with pytest.raises(ValueError, match=r"kets of shape \(1, 2, 2\) for 2 programs"):
        list(protocols.walk_branches([zero, plus], one_row))
    pair = qm.StateVector(("a", "b"), np.kron(qm.ket("0"), qm.ket("+")))
    with pytest.raises(ValueError, match="one register"):
        list(protocols.walk_branches([pair, zero], _pauli_schedule("ZZ", [])))


def test_walker_refuses_an_empty_stack():
    with pytest.raises(ValueError, match="stack of states is empty"):
        protocols.walk_branches([], lambda bits, active: None)


def test_walker_walks_one_level_at_a_time(collapse_stacks, rng):
    # After a = 0 the programs measure b and after a = 1 they measure c: two
    # collapse groups at depth 1.  Only the (1, 0) node goes a level deeper,
    # so the leaves sit at depths 2 and 3.  Program 0 holds b in |0> and
    # measures it in Z, so the (0, 1) child is skipped for program 0 alone.
    qubits = {(): "a", (0,): "b", (1,): "c", (1, 0): "b"}
    letters = ({(): "X", (0,): "Z", (1,): "Y", (1, 0): "X"},
               {(): "Y", (0,): "X", (1,): "Z", (1, 0): "Y"})
    product = np.kron(np.kron(rand_state(("a",), rng).amps, qm.ket("0")),
                      rand_state(("c",), rng).amps)
    pure = (qm.StateVector(("a", "b", "c"), product), rand_state(("a", "b", "c"), rng))

    def next_step(g):
        def step(bits):
            return (qubits[bits], pauli_basis(letters[g][bits])) if bits in qubits else None
        return step

    for states in (pure, tuple(s.to_density() for s in pure)):
        programs = [Program(s, next_step(g), lambda records, state: (records, state))
                    for g, s in enumerate(states)]
        calls = []

        def schedule(bits, active):
            calls.append(bits)
            steps = [programs[g].next_step(bits) for g in active]
            if steps[0] is None:
                return None
            return steps[0][0], np.array([[basis.ket0, basis.ket1] for _, basis in steps])

        collapse_stacks.clear()
        leaves = protocols.walk_branches(states, schedule)
        assert collapse_stacks == [4, 4, 4, 4]  # a; then b and c at depth 1; then b
        assert [leaf.bits for leaf in leaves] == [(0, 0), (0, 1), (1, 0, 0), (1, 0, 1), (1, 1)]
        assert [leaf.active.tolist() for leaf in leaves] == [[0, 1], [1], [0, 1], [0, 1], [0, 1]]
        # one schedule call per node, level by level, in the order of the bits
        assert calls == [(), (0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1), (1, 0, 0), (1, 0, 1)]
        for leaf in leaves:
            for g, program in enumerate(programs):
                if g not in leaf.active:
                    with pytest.raises(ZeroProbabilityBranch):
                        program.run(outcomes=leaf.bits)
                    continue
                j = leaf.active.tolist().index(g)
                records, state = program.run(outcomes=leaf.bits)
                assert leaf.qubits == tuple(r.qubit for r in records)
                assert [p[j] for p in leaf.probs] == [r.probability for r in records]
                got = leaf.state(j)
                assert type(got) is type(state) and got.labels == state.labels
                if isinstance(state, qm.StateVector):
                    assert got.amps.tobytes() == state.amps.tobytes()
                else:
                    assert got.mat.tobytes() == state.mat.tobytes()
        # Program.branches is the stack of one: each program's leaves end at
        # their own depths, and run replays every one of them above
        for g, program in enumerate(programs):
            assert [tuple(r.outcome for r in records) for records, _ in program.branches()] == [
                leaf.bits for leaf in leaves if g in leaf.active]


def test_grid_curve_has_the_bits_of_per_angle_enumeration():
    grids = (np.linspace(0, pi, 25), np.linspace(-pi, pi, 100))
    for theta in (pi / 8, pi / 6, pi / 5):
        for resource, pure in (("2-qubit", lambda34(theta)), ("4-qubit", build_psi4(theta))):
            for fid in (1.0, 0.9, 0.73):
                state = pure if fid == 1.0 else white_noise(pure, fid)
                for grid in grids:
                    curve = noisy_success_curve(grid, resource, fid, theta=theta)
                    for a, (alpha, p) in zip(grid, curve):
                        want, _ = enumerate_compensation(a, resource, theta=theta, state=state)
                        assert alpha == a and p == want  # exact floats


def test_grid_curve_checks_frames_and_branch_sums(monkeypatch):
    grid = np.linspace(0, pi, 7)
    real_frame = protocols._compensation_frame

    def wrong_frame(bits, two_qubit):
        frame, success = real_frame(bits, two_qubit)
        return PauliFrame(frame.wires, (1 - frame.x[0],), frame.z), success

    with monkeypatch.context() as m:
        m.setattr(protocols, "_compensation_frame", wrong_frame)
        with pytest.raises(AssertionError, match="Pauli frame"):
            noisy_success_curve(grid, "4-qubit", 1.0)
        noisy_success_curve(grid, "4-qubit", 0.9)  # no frame on a mixed state

    real_collapse = qm.collapse

    def leaky(states, axis, kets, **kwargs):
        probs, rest = real_collapse(states, axis, kets, **kwargs)
        probs[-1] *= 1 + 2e-11  # the last angle's branches no longer sum to 1
        return probs, rest

    monkeypatch.setattr(qm, "collapse", leaky)
    for fid in (1.0, 0.9):
        with pytest.raises(AssertionError, match="do not sum to 1"):
            noisy_success_curve(grid, "4-qubit", fid)


def test_branch_sum_check_fails_closed(monkeypatch):
    protocols._check_branch_sum(1.0)
    protocols._check_branch_sum(np.array([1.0, 1.0 + 5e-12]))
    for total in (float("nan"), np.array([1.0, np.nan]), 1.0 + 2e-11):
        with pytest.raises(AssertionError, match="do not sum to 1"):
            protocols._check_branch_sum(total)
    real_collapse = qm.collapse

    def nan_collapse(states, axis, kets, **kwargs):
        probs, rest = real_collapse(states, axis, kets, **kwargs)
        probs[-1] = np.nan  # neither kept below ZERO_PROBABILITY nor summed to 1
        return probs, rest

    monkeypatch.setattr(qm, "collapse", nan_collapse)
    with pytest.raises(AssertionError, match="do not sum to 1"):
        noisy_success_curve(np.linspace(0, pi, 7), "4-qubit", 0.9)


def test_enumerated_branches_equal_postselected_runs():
    for resource in ("2-qubit", "4-qubit"):
        _, branches = enumerate_compensation(1.3, resource)
        for b in branches:
            tr = compensate(1.3, resource, outcomes=b.outcome_bits)
            assert_same_transcript(tr, b)


# ---------------------------------------------------------------------------
# Rotation sequence
# ---------------------------------------------------------------------------

def test_rotation_rows_match_reference_and_closed_form():
    for (alpha, beta, gamma), expect in ROTATION_REFERENCE_ROWS:
        tr = rotate_sequence(alpha, beta, gamma)
        amps = tr.physical_out.amps
        assert overlap2(amps, expect) > 1 - 1e-9
        assert overlap2(amps, _closed_form_rotation(alpha, beta, gamma)) > 1 - TOL
        assert tr.success and tr.outcome_bits == (0, 0, 0)
        assert vec_equal_up_to_phase(tr.logical_out, qm.HAD @ amps, TOL)


def test_anomalous_rotation_rows_pinned():
    for (alpha, beta, gamma), recorded in ANOMALOUS_ROTATION_ROWS:
        tr = rotate_sequence(alpha, beta, gamma)
        amps = tr.physical_out.amps
        # implementation agrees with the closed form at the stated angles...
        assert overlap2(amps, _closed_form_rotation(alpha, beta, gamma)) > 1 - TOL
        # ...while the recorded vector is the closed form at beta - pi/2 and
        # sits at squared overlap exactly 1/2 from the true output
        shifted = _closed_form_rotation(alpha, beta - pi / 2, gamma)
        assert overlap2(recorded, shifted) > 1 - TOL
        assert abs(overlap2(recorded, amps) - 0.5) < 1e-9


def test_rotation_generic_angles_match_closed_form(rng):
    for _ in range(6):
        alpha, beta, gamma = rng.uniform(-pi, pi, size=3)
        theta = float(rng.uniform(0.2, 1.3))
        tr = rotate_sequence(alpha, beta, gamma, theta=theta)
        want = _closed_form_rotation(alpha, beta, gamma)
        assert overlap2(tr.physical_out.amps, want) > 1 - 1e-10


def test_rotation_nonzero_outcomes_recorded():
    tr = rotate_sequence(pi / 3, 0.4, -0.2, outcomes=(1, 0, 1))
    assert tr.outcome_bits == (1, 0, 1)
    assert not tr.success
    assert abs(tr.total_probability - np.prod([r.probability for r in tr.outcomes])) < TOL


def test_rotation_sampled_mode_is_deterministic():
    outs = []
    for _ in range(2):
        tr = rotate_sequence(0.9, 1.1, -0.3, rng=np.random.default_rng(42))
        outs.append((tr.outcome_bits, tr.physical_out.amps.copy()))
    assert outs[0][0] == outs[1][0]
    assert np.array_equal(outs[0][1], outs[1][1])
    # rng= alone samples; replaying the sampled bits gives the same transcript
    sampled = rotate_sequence(0.3, 0.4, 0.5, rng=np.random.default_rng(0))
    assert sampled.outcome_bits == (0, 0, 0)
    replay = rotate_sequence(0.3, 0.4, 0.5, outcomes=sampled.outcome_bits)
    assert_same_transcript(sampled, replay)


def test_rotation_rejects_outcomes_together_with_rng():
    with pytest.raises(ValueError, match="exactly one of"):
        rotate_sequence(0.3, 0.4, 0.5, outcomes=(1, 1, 1), rng=np.random.default_rng(0))


# ---------------------------------------------------------------------------
# Analytic success probabilities
# ---------------------------------------------------------------------------

def test_success_probability_named_values():
    p0, p_min = success_probability(0.0)
    assert abs(p0 - 0.75) < TOL
    assert abs(p_min - 0.25) < TOL
    assert abs(success_probability(pi / 2)[0] - 0.375) < TOL
    assert abs(success_probability(pi)[0] - 0.25) < TOL


def test_success_probability_formula(rng):
    for _ in range(8):
        alpha = float(rng.uniform(-pi, pi))
        theta = float(rng.uniform(0.2, 1.3))
        p_s, p_t = success_probability(alpha, theta)
        want = sin(2 * theta) ** 2 / (2 * (1 - cos(2 * theta) * cos(alpha)))
        assert abs(p_s - want) < TOL
        assert p_t <= p_s + TOL  # uniform lower bound


@pytest.mark.parametrize("alpha", [float("nan"), float("inf"), float("-inf")])
def test_analytic_formulas_name_a_non_finite_alpha(alpha):
    # theta is fine here: the error names alpha, not a degenerate wire angle
    for formula in (success_probability, wrong_angle):
        with pytest.raises(ValueError, match=rf"^alpha must be finite, got {alpha}$"):
            formula(alpha)


def test_wrong_angle_identities():
    assert abs(wrong_angle(pi / 2) + 2 * atan(1 / 3)) < TOL
    assert abs(wrong_angle(pi)) < TOL
    assert abs(wrong_angle(0.0) - pi) < TOL
    # defining relation tan(a'/2) = -tan(theta)^2 / tan(a/2)
    for alpha, theta in ((0.7, 0.5), (2.1, 1.0), (-1.3, 0.4)):
        a_p = wrong_angle(alpha, theta)
        lhs = np.tan(a_p / 2)
        rhs = -np.tan(theta) ** 2 / np.tan(alpha / 2)
        assert abs(lhs - rhs) < 1e-10
        assert -pi < a_p <= pi


def test_compensation_bound_monotone():
    p_s, p_t = success_probability(0.9)
    assert abs(compensation_bound(0.9, n_blocks=0) - p_s) < TOL
    assert abs(compensation_bound(0.9, n_blocks=1) - (p_s + (1 - p_s) * p_t)) < TOL
    values = [compensation_bound(0.9, n_blocks=n) for n in range(5)]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert values[-1] < 1.0
    with pytest.raises(ValueError):
        compensation_bound(0.9, n_blocks=-1)


# ---------------------------------------------------------------------------
# Compensated rotation
# ---------------------------------------------------------------------------

def test_first_step_probability_equals_formula():
    for alpha in np.linspace(-pi, pi, 13):
        tr = compensate(float(alpha), "4-qubit", outcomes=(0, 0, 0))
        assert abs(tr.outcomes[0].probability - success_probability(float(alpha))[0]) < TOL


def test_enumeration_matches_retry_formula():
    for alpha in np.linspace(-pi, pi, 15):
        a = float(alpha)
        p_total, branches = enumerate_compensation(a, "4-qubit")
        p_s = success_probability(a)[0]
        p_retry = success_probability(a - wrong_angle(a))[0]
        assert abs(p_total - (p_s + (1 - p_s) * p_retry)) < TOL
        assert abs(sum(b.total_probability for b in branches) - 1) < TOL


def test_enumeration_two_qubit_single_trial():
    p_total, branches = enumerate_compensation(pi / 2, "2-qubit")
    assert abs(p_total - 0.375) < TOL
    assert sorted(b.outcome_bits for b in branches) == [(0,), (1,)]
    assert [b.success for b in sorted(branches, key=lambda b: b.outcome_bits)] == [True, False]


def test_compensated_total_frozen_value():
    p_total, _ = enumerate_compensation(pi / 2, "4-qubit")
    assert abs(p_total - 0.5552884615384615) < 1e-12


def test_branch_success_pattern_and_frames():
    _, branches = enumerate_compensation(0.8, "4-qubit")
    for b in branches:
        r1, r2, r3 = b.outcome_bits
        if r1 == 0:
            assert b.success
            assert b.frame.x == (r3,) and b.frame.z == (r2,)
        else:
            assert b.success == (r3 == 0)
            assert b.frame.x == (0,) and b.frame.z == (r2,)
            assert any(k == "compensation_angle" for k, _ in b.notes)


def test_successful_branches_realize_target_rotation():
    alpha = 1.1
    target = qm.HAD @ rz(alpha) @ qm.ket("+")
    _, branches = enumerate_compensation(alpha, "4-qubit")
    assert any(b.success for b in branches)
    for b in branches:
        if not b.success:
            continue
        # undoing the recorded byproduct on the logical output recovers the
        # target rotation in every successful branch
        fixed = frame_operator(b.frame, "out") @ b.logical_out
        assert vec_equal_up_to_phase(fixed, target, 1e-10)


def test_compensate_resource_handling():
    tr = compensate(0.5, "2-qubit", outcomes=(0,))
    assert len(tr.outcomes) == 1 and tr.success
    message = r"^unknown resource '3-qubit'; expected one of \('2-qubit', '4-qubit'\)$"
    with pytest.raises(ValueError, match=message):
        compensate(0.5, "3-qubit", outcomes=(0,))
    with pytest.raises(ValueError, match=message):
        compensate(0.5, "3-qubit", outcomes=(0,), state=lambda34())
    with pytest.raises(ValueError, match=message):
        noisy_success_curve([0.5], "3-qubit")
    with pytest.raises(ValueError):
        compensate(0.5, "4-qubit", outcomes=(0, 0))  # wrong outcome count
    with pytest.raises(ValueError):
        compensate(0.5, "4-qubit")  # neither outcomes nor rng


def test_compensate_sampled_statistics():
    rng = np.random.default_rng(11)
    psi4 = build_psi4()
    n = 3000
    wins = sum(
        compensate(pi / 2, "4-qubit", rng=rng, state=psi4).success for _ in range(n)
    )
    p = 0.5552884615384615
    assert abs(wins / n - p) < 4 * sqrt(p * (1 - p) / n)


def test_compensate_on_mixed_state():
    rho = white_noise(build_psi4(), 0.9)
    tr = compensate(0.7, "4-qubit", outcomes=(0, 0, 0), state=rho)
    assert isinstance(tr.physical_out, qm.DensityMatrix)
    assert tr.logical_out is None
    assert tr.success


# ---------------------------------------------------------------------------
# Mixed-state success curves
# ---------------------------------------------------------------------------

def test_noisy_curve_is_linear_in_the_mixing_weight():
    grid = np.linspace(0, pi, 7)
    for resource, floor, fid in (("2-qubit", 0.5, 0.90), ("4-qubit", 0.75, 0.73)):
        n = 2 if resource == "2-qubit" else 4
        weight = (2**n * fid - 1) / (2**n - 1)
        pure = dict(noisy_success_curve(grid, resource, 1.0))
        noisy = dict(noisy_success_curve(grid, resource, fid))
        for a in pure:
            want = weight * pure[a] + (1 - weight) * floor
            assert abs(noisy[a] - want) < TOL


def test_noisy_curve_fidelity_floor_validation():
    with pytest.raises(ValueError):
        noisy_success_curve([0.0], "2-qubit", 0.25)
    with pytest.raises(ValueError):
        noisy_success_curve([0.0], "4-qubit", 1.0625 / 17)
    with pytest.raises(ValueError):
        noisy_success_curve([0.0], "4-qubit", 1.2)


# ---------------------------------------------------------------------------
# Entangling gate
# ---------------------------------------------------------------------------


def test_gate_all_zero_outcomes_product_and_entangled_cases():
    tr = cz_gate_protocol(0.0, outcomes=(0, 0, 0, 0))
    assert tr.physical_out.labels == ("1p", "3p")
    assert vec_equal_up_to_phase(
        tr.physical_out.amps, np.array([1, 0, 0, 0], dtype=complex), 1e-10
    )
    tr = cz_gate_protocol(pi / 3, outcomes=(0, 0, 0, 0))
    want = np.array([S3 / 2, 0, 0, -0.5j])
    assert vec_equal_up_to_phase(tr.physical_out.amps, want, 1e-10)
    assert tr.success


def test_gate_reference_rows():
    for alpha, r2, r3, r4, f1, f3 in GATE_REFERENCE_ROWS:
        tr = cz_gate_protocol(alpha, outcomes=(0, r2, r3, r4))
        expect = np.kron(f1, f3)
        assert overlap2(tr.physical_out.amps, expect) > 1 - 1e-9
        assert not tr.success
        assert ("decoupled", "qubit 4 measured computationally") in tr.notes


def test_anomalous_gate_row_pinned():
    tr = cz_gate_protocol(pi / 2, outcomes=(0, 1, 1, 0))
    got = overlap2(tr.physical_out.amps, ANOMALOUS_GATE_ROW_VECTOR)
    assert abs(got - (2 + S3) / 4) < 1e-9


def test_gate_branch_probabilities_sum_to_one():
    for alpha in (0.0, pi / 3, pi / 2):
        total = sum(
            cz_gate_protocol(alpha, outcomes=(r1, r2, r3, r4)).total_probability
            for r1 in (0, 1)
            for r2 in (0, 1)
            for r3 in (0, 1)
            for r4 in (0, 1)
        )
        assert abs(total - 1.0) < 1e-11


def test_gate_logical_identity_on_entangling_branches():
    cz = np.diag([1, 1, 1, -1.0])
    for alpha in (0.0, pi / 3, pi / 2, 1.234):
        for r1 in (0, 1):
            for r4 in (0, 1):
                tr = cz_gate_protocol(alpha, outcomes=(r1, 0, 0, r4))
                a_eff = alpha if r1 == 0 else wrong_angle(alpha)
                vin = np.kron(qm.HAD @ rz(a_eff) @ qm.ket("+"), qm.ket("+"))
                zz = qm.kron(
                    np.linalg.matrix_power(qm.Z, r4), np.linalg.matrix_power(qm.Z, r4)
                )
                want = qm.kron(qm.HAD, qm.HAD) @ zz @ cz @ vin
                assert vec_equal_up_to_phase(tr.logical_out, want, 1e-10)
                assert tr.success
                if r1 == 1:
                    assert any(k == "effective_alpha" for k, _ in tr.notes)


def test_gate_frame_tracks_coupler_outcome():
    tr = cz_gate_protocol(0.7, outcomes=(0, 0, 0, 1))
    assert tr.frame.z == (1, 1) and tr.frame.x == (0, 0)
    tr = cz_gate_protocol(0.7, outcomes=(0, 0, 0, 0))
    assert tr.frame.z == (0, 0)


def test_gate_sampled_mode_is_deterministic():
    runs = [
        cz_gate_protocol(pi / 3, rng=np.random.default_rng(5)).outcome_bits
        for _ in range(2)
    ]
    assert runs[0] == runs[1]


# ---------------------------------------------------------------------------
# Function-distinguishing program
# ---------------------------------------------------------------------------

def test_program_separates_both_function_classes_on_all_relabeled_branches():
    for function, target in (("constant", (0, 1)), ("balanced", (1, 1))):
        for r1 in (0, 1):
            for r4 in (0, 1):
                query, ancilla, tr = deutsch(function, outcomes=(r1, 0, 0, r4))
                assert (query, ancilla) == target
                assert tr.success


def test_program_relabel_map():
    assert deutsch_relabel((0, 0), 1, 0, "constant") == (0, 1)
    assert deutsch_relabel((1, 1), 0, 1, "balanced") == (0, 1)
    assert deutsch_relabel((1, 1), 1, 1, "balanced") == (1, 0)
    with pytest.raises(ValueError):
        deutsch_relabel((0, 0), 0, 0, "mystery")
    with pytest.raises(ValueError):
        deutsch_relabel((0, 2), 0, 0, "constant")
    with pytest.raises(ValueError):
        deutsch_relabel((0, 0), 2, 0, "constant")
    with pytest.raises(ValueError):
        deutsch_relabel((0, 0), 1, 3, "balanced")


def test_balanced_program_aborts_when_entangling_step_unavailable():
    with pytest.raises(ProtocolAbort):
        deutsch("balanced", outcomes=(0, 1, 0, 0))
    with pytest.raises(ProtocolAbort):
        deutsch("balanced", outcomes=(0, 0, 1, 0))


def test_constant_program_out_of_scope_branch_flagged():
    query, ancilla, tr = deutsch("constant", outcomes=(0, 0, 1, 0))
    assert not tr.success
    assert any(k == "relabel_scope" for k, _ in tr.notes)


def test_unknown_function_rejected():
    with pytest.raises(ValueError):
        deutsch("zigzag", outcomes=(0, 0, 0, 0))


def test_program_in_scope_branch_mass():
    # exact probability of landing in the relabelable r2=r3=0 sector
    mass = {}
    for function in ("constant", "balanced"):
        mass[function] = sum(
            deutsch(function, outcomes=(r1, 0, 0, r4))[2].total_probability
            for r1 in (0, 1)
            for r4 in (0, 1)
        )
    assert abs(mass["constant"] - 9 / 16) < TOL
    assert abs(mass["balanced"] - 9 / 64) < TOL


def test_program_sampled_statistics():
    rng = np.random.default_rng(3)
    n = 400
    wins = aborts = 0
    for _ in range(n):
        try:
            wins += deutsch("balanced", rng=rng)[2].success
        except ProtocolAbort:
            aborts += 1
    p_scope = 9 / 64
    sigma = sqrt(p_scope * (1 - p_scope) / n)
    assert abs(wins / n - p_scope) < 4 * sigma
    assert wins + aborts == n  # every non-aborted run succeeds


def test_coupler_angle_constant():
    assert abs(COUPLER_THETA - pi / 4) < TOL


# ---------------------------------------------------------------------------
# Transcript / frame plumbing
# ---------------------------------------------------------------------------

def test_pauli_frame_operator_and_validation():
    frame = PauliFrame(("w",), (1,), (1,))
    assert np.allclose(frame_operator(frame, "w"), qm.X @ qm.Z, atol=TOL)
    with pytest.raises(ValueError):
        PauliFrame(("w",), (1, 0), (0,))
    with pytest.raises(ValueError):
        PauliFrame(("w",), (2,), (0,))


def test_frame_operators_are_shared_read_only_products():
    for x in (0, 1):
        for z in (0, 1):
            op = frame_operator(PauliFrame(("w",), (x,), (z,)), "w")
            want = np.linalg.matrix_power(qm.X, x) @ np.linalg.matrix_power(qm.Z, z)
            assert op.tobytes() == want.tobytes()
            assert not op.flags.writeable
            assert op is frame_operator(PauliFrame(("v", "w"), (1 - x, x), (0, z)), "w")


def test_frame_check_tolerance():
    alphas = np.linspace(-3.0, 3.0, 8)  # a Z flip is invisible at 0 and +-pi
    outputs = protocols._frame_targets(alphas)
    for x in (0, 1):
        for z in (0, 1):
            want = outputs[:, x, z]
            frame_op = frame_operator(PauliFrame(("out",), (x,), (z,)), "out")
            for g, a in enumerate(alphas):  # H X^x Z^z H Rz(a)|+>, as a product
                direct = qm.HAD @ frame_op @ qm.HAD @ rz(a) @ qm.ket("+")
                assert abs(abs(np.vdot(direct, want[g])) - 1.0) < TOL
            protocols._check_frames(np.exp(0.7j) * 3.0 * want, want)  # phase and scale
            off = want.copy()
            off[4] += 1e-4 * np.array([1.0, -1.0])
            with pytest.raises(AssertionError, match="Pauli frame"):
                protocols._check_frames(off, want)
            with pytest.raises(AssertionError, match="Pauli frame"):
                protocols._check_frames(want, outputs[:, 1 - x, z])


def _assert_violation(exc, check, bound, message):
    assert isinstance(exc, qm.InvariantViolation)
    assert (exc.check, exc.bound, str(exc)) == (check, bound, message)
    assert np.isfinite(exc.residual) and exc.residual > exc.bound


FRAME_MESSAGE = "compensation branch output does not match its Pauli frame"
SUM_MESSAGE = "branch probabilities do not sum to 1"


def test_wrong_frame_raises_invariant_violation(monkeypatch):
    outputs = protocols._frame_targets([1.1])
    with pytest.raises(qm.InvariantViolation) as err:
        protocols._check_frames(outputs[:, 0, 0], outputs[:, 1, 0])
    _assert_violation(err.value, "compensation frame", np.nextafter(1e-10, 0.0), FRAME_MESSAGE)
    real_frame = protocols._compensation_frame

    def wrong_frame(bits, two_qubit):
        frame, success = real_frame(bits, two_qubit)
        return PauliFrame(frame.wires, (1 - frame.x[0],), frame.z), success

    monkeypatch.setattr(protocols, "_compensation_frame", wrong_frame)
    for run in (lambda: compensate(1.1, outcomes=(0, 0, 0)),  # a successful shot
                lambda: noisy_success_curve([0.4, 1.1], "4-qubit", 1.0)):
        with pytest.raises(qm.InvariantViolation) as err:
            run()
        _assert_violation(err.value, "compensation frame", np.nextafter(1e-10, 0.0), FRAME_MESSAGE)


def test_branch_total_off_by_1e_9_raises_invariant_violation(monkeypatch):
    with pytest.raises(qm.InvariantViolation) as err:
        protocols._check_branch_sum(1.0 + 1e-9)
    _assert_violation(err.value, "branch sum", 1e-11, SUM_MESSAGE)
    real_collapse = qm.collapse
    calls = []

    def leaky_root(states, axis, kets, **kwargs):
        probs, rest = real_collapse(states, axis, kets, **kwargs)
        if not calls:
            probs *= 1 + 1e-9  # every leaf below the root, so every total
        calls.append(axis)
        return probs, rest

    monkeypatch.setattr(qm, "collapse", leaky_root)
    for run in (lambda: enumerate_compensation(1.1),
                lambda: noisy_success_curve([0.4, 1.1], "4-qubit", 0.9)):
        calls.clear()
        with pytest.raises(qm.InvariantViolation) as err:
            run()
        _assert_violation(err.value, "branch sum", 1e-11, SUM_MESSAGE)
        assert abs(err.value.residual - 1e-9) < 1e-12


def test_frame_check_stays_strict(monkeypatch):
    # residuals of exactly 1e-10 fail at the bound this site hands to require
    seen = []
    monkeypatch.setattr(qm, "require", lambda *args: seen.append(args))
    want = protocols._frame_targets([1.1])[:, 0, 0]
    protocols._check_frames(want, want)
    monkeypatch.undo()
    ((check, _, bound, message),) = seen
    with pytest.raises(qm.InvariantViolation):
        qm.require(check, np.array([0.0, 1e-10]), bound, message)
    qm.require(check, np.array([0.0, np.nextafter(1e-10, 0.0)]), bound, message)


def _frame_passes(amps, expected) -> bool:
    try:
        protocols._check_frames(amps, expected)
    except qm.InvariantViolation:
        return False
    return True


def test_one_row_frame_check_decides_as_the_array_path():
    # one row takes the scalar branch; the same row twice takes the array path
    alphas = np.linspace(-pi, pi, 201)
    targets = protocols._frame_targets(alphas)
    verdicts = []
    for resource in ("2-qubit", "4-qubit"):
        for g, alpha in enumerate(alphas):
            for tr in enumerate_compensation(alpha, resource)[1]:
                if not tr.success:
                    continue
                amps = tr.physical_out.amps
                for x in (0, 1):
                    for z in (0, 1):
                        want = targets[g, x, z]
                        one = _frame_passes(amps[None], want[None])
                        assert one == _frame_passes(np.stack([amps, amps]), np.stack([want, want]))
                        if (x, z) == (tr.frame.x[0], tr.frame.z[0]):
                            assert one
                        verdicts.append(one)
    assert set(verdicts) == {True, False}


def test_enumeration_checks_every_successful_frame(monkeypatch):
    real_frame = protocols._compensation_frame

    def wrong_frame(bits, two_qubit):
        frame, success = real_frame(bits, two_qubit)
        return PauliFrame(frame.wires, frame.x, (1 - frame.z[0],)), success

    monkeypatch.setattr(protocols, "_compensation_frame", wrong_frame)
    for resource in ("2-qubit", "4-qubit"):
        with pytest.raises(AssertionError, match="Pauli frame"):
            enumerate_compensation(1.1, resource)
        enumerate_compensation(1.1, resource, state=white_noise(_pure(resource), 0.9))


def _pure(resource):
    return lambda34(pi / 6) if resource == "2-qubit" else build_psi4(pi / 6)


def test_transcript_probability_consistency_enforced():
    # the total is computed from the steps, so a differing one cannot be passed in
    tr = rotate_sequence(0.3, 0.4, 0.5, outcomes=(0, 1, 0))
    assert tr.total_probability == float(np.prod([r.probability for r in tr.outcomes]))
    with pytest.raises(TypeError):
        ProtocolTranscript(tr.outcomes, tr.frame, None, None, True, total_probability=0.5)


def _sampled_transcripts(seeds=range(40)):
    """Transcripts of Born-sampled shots of every protocol, both Deutsch kinds
    and a mixed resource included; aborted Deutsch shots give none."""
    noisy = white_noise(build_psi4(pi / 6), 0.8)
    out = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        alpha = float(rng.uniform(-pi, pi))
        out += [compensate(alpha, "4-qubit", rng=rng), compensate(alpha, "2-qubit", rng=rng),
                compensate(alpha, rng=rng, state=noisy),
                rotate_sequence(alpha, 0.4, -1.2, rng=rng), cz_gate_protocol(alpha, rng=rng)]
        for function in ("constant", "balanced"):
            try:
                out.append(deutsch(function, rng=rng)[2])
            except ProtocolAbort:
                pass
    return out


def test_total_probability_is_the_step_order_product():
    transcripts = _sampled_transcripts()
    for resource in ("2-qubit", "4-qubit"):
        for alpha in (0.0, 1.1, 2 * pi / 3, -2.5):
            transcripts += enumerate_compensation(alpha, resource)[1]
            transcripts += enumerate_compensation(
                alpha, resource, state=white_noise(_pure(resource), 0.9))[1]
    for tr in transcripts:
        product = 1.0
        for rec in tr.outcomes:
            product *= rec.probability
        assert type(tr.total_probability) is float
        assert tr.total_probability == product
        assert tr.total_probability == float(np.prod([r.probability for r in tr.outcomes]))
    empty = ProtocolTranscript((), PauliFrame((), (), ()), None, None, False)
    assert type(empty.total_probability) is float and empty.total_probability == 1.0


def test_protocol_frames_are_shared_frozen_objects():
    transcripts = _sampled_transcripts(range(20))
    for resource in ("2-qubit", "4-qubit"):
        transcripts += enumerate_compensation(1.1, resource)[1]
    transcripts += [cz_gate_protocol(0.7, outcomes=(0, 0, 0, r4)) for r4 in (0, 1)]
    shared = {}
    for tr in transcripts:
        key = (tr.frame.wires, tr.frame.x, tr.frame.z)
        assert shared.setdefault(key, tr.frame) is tr.frame, key
    assert len(shared) == 6  # four single-wire frames, two on (1p, 3p)
    assert protocols._single_frame() is protocols._single_frame(0, 0)
    assert protocols._single_frame(z=1) is protocols._single_frame(0, 1)
    frame = protocols._single_frame(1, 1)
    assert frame == PauliFrame(("out",), (1,), (1,))
    for name, value in (("x", (0,)), ("z", (0,)), ("wires", ("w",))):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(frame, name, value)
    assert (frame.wires, frame.x, frame.z) == (("out",), (1,), (1,))


@pytest.fixture
def frame_work(monkeypatch):
    """Calls of ``_frame_targets`` and ``_check_frames``, by name."""
    calls = {"targets": 0, "checks": 0}
    targets, checks = protocols._frame_targets, protocols._check_frames

    def counted_targets(alphas):
        calls["targets"] += 1
        return targets(alphas)

    def counted_checks(amps, expected):
        calls["checks"] += 1
        return checks(amps, expected)

    monkeypatch.setattr(protocols, "_frame_targets", counted_targets)
    monkeypatch.setattr(protocols, "_check_frames", counted_checks)
    return calls


def test_frame_targets_are_built_once_per_program_and_only_when_checked(frame_work):
    program = protocols._compensation_program(1.1, "4-qubit", pi / 6, None)
    assert frame_work == {"targets": 0, "checks": 0}  # nothing before a branch ends
    leaves = program.branches()
    wins = sum(tr.success for tr in leaves)
    assert wins == 6 and frame_work == {"targets": 1, "checks": wins}
    for bits in ((0, 0, 0), (0, 1, 1), (1, 0, 0)):
        assert program.run(outcomes=bits).success
    assert frame_work == {"targets": 1, "checks": wins + 3}
    seen = set()
    for seed in range(60):
        for resource in ("2-qubit", "4-qubit"):
            frame_work.update(targets=0, checks=0)
            tr = compensate(1.1, resource, rng=np.random.default_rng(seed))
            seen.add(tr.success)
            assert frame_work == ({"targets": 1, "checks": 1} if tr.success
                                  else {"targets": 0, "checks": 0}), (seed, resource)
    assert seen == {True, False}
    frame_work.update(targets=0, checks=0)
    for bits in ((0, 0, 0), (0, 1, 1), (1, 1, 1)):  # a mixed resource checks no frame
        compensate(1.1, outcomes=bits, state=white_noise(build_psi4(pi / 6), 0.9))
    assert frame_work == {"targets": 0, "checks": 0}


def test_transcript_json_shape():
    tr = rotate_sequence(0.3, 0.4, 0.5, outcomes=(0, 1, 0))
    d = json.loads(dumps15(transcript_payload(tr)))
    assert [rec["outcome"] for rec in d["outcomes"]] == [0, 1, 0]
    assert d["frame"] == {"wires": ["out"], "x": [0], "z": [0]}
    assert d["success"] is False
    assert d["physical_out"]["labels"] == ["4"]
    assert len(d["logical_out"]) == 2


def test_analytic_formulas_reject_degenerate_angles():
    for theta in (0.0, pi / 2):
        with pytest.raises(ValueError, match="degenerate wire angle"):
            success_probability(0.0, theta)
        with pytest.raises(ValueError, match="degenerate wire angle"):
            wrong_angle(0.0, theta)
        with pytest.raises(ValueError, match="degenerate wire angle"):
            compensation_bound(0.0, theta)


@pytest.mark.parametrize("theta", (5e-9, 3e-8, -3e-8))
def test_success_probability_rejects_near_zero_angles(theta):
    # 1 - cos(2 theta) cos(alpha) rounds to 0 (ZeroDivisionError) or to a
    # value that puts p_s above 1; both are the degenerate-angle error
    with pytest.raises(ValueError, match="degenerate wire angle"):
        success_probability(0.0, theta)
    with pytest.raises(ValueError, match="degenerate wire angle"):
        compensation_bound(0.0, theta)

