"""Core linear-algebra layer: kets, gates, labeled registers, reductions."""

import numpy as np
import pytest

from corrspace import qmath as qm
from corrspace.measurement import basis_B
from helpers import (
    canonical_phase, density_expectation, manual_embed, mat_proportional, rand_density, rand_state, rand_unitary,
    rx, rz, states_equal, vec_equal_up_to_phase,
)

TOL = 1e-12


# ---------------------------------------------------------------------------
# Constants and single-qubit building blocks
# ---------------------------------------------------------------------------

def test_named_kets():
    s = 1 / np.sqrt(2)
    assert np.allclose(qm.ket("0"), [1, 0])
    assert np.allclose(qm.ket("1"), [0, 1])
    assert np.allclose(qm.ket("+"), [s, s])
    assert np.allclose(qm.ket("-"), [s, -s])
    assert np.allclose(qm.ket("H"), qm.ket("0"))
    assert np.allclose(qm.ket("V"), qm.ket("1"))
    assert np.allclose(qm.ket("P"), qm.ket("+"))
    assert np.allclose(qm.ket("M"), qm.ket("-"))
    assert np.allclose(qm.ket("R"), [s, 1j * s])
    assert np.allclose(qm.ket("L"), [s, -1j * s])
    for name in qm._KETS:
        assert abs(np.linalg.norm(qm.ket(name)) - 1) < TOL


def test_named_ket_copies_are_independent():
    a = qm.ket("0")
    a[0] = 99
    assert np.allclose(qm.ket("0"), [1, 0])


def test_unknown_ket_name_rejected():
    with pytest.raises(ValueError):
        qm.ket("Q")


def test_pauli_algebra():
    for m in (qm.X, qm.Y, qm.Z, qm.HAD):
        assert np.allclose(m @ m, np.eye(2), atol=TOL)
    assert np.allclose(qm.X @ qm.Y, 1j * qm.Z, atol=TOL)
    assert np.allclose(qm.HAD @ qm.X @ qm.HAD, qm.Z, atol=TOL)
    assert np.allclose(qm.HAD @ qm.Z @ qm.HAD, qm.X, atol=TOL)


def test_rotations_closed_form_and_composition(rng):
    for a in rng.uniform(-7, 7, size=5):
        z_rot = rz(a)
        assert np.allclose(z_rot, np.diag([np.exp(-0.5j * a), np.exp(0.5j * a)]))
        # exp(-i a X/2) = H exp(-i a Z/2) H because X = H Z H
        assert np.allclose(rx(a), qm.HAD @ z_rot @ qm.HAD, atol=TOL)
        b = float(rng.uniform(-7, 7))
        assert np.allclose(rz(a) @ rz(b), rz(a + b), atol=1e-10)
        assert np.allclose(rx(a) @ rx(b), rx(a + b), atol=1e-10)
    assert np.allclose(rz(2 * np.pi), -np.eye(2), atol=TOL)
    assert np.allclose(rx(np.pi), -1j * qm.X, atol=TOL)


def test_kron_msb_first():
    assert np.allclose(qm.kron(qm.Z, qm.I2), np.diag([1, 1, -1, -1]))
    assert np.allclose(qm.kron(qm.I2, qm.Z), np.diag([1, -1, 1, -1]))
    a, b, c = qm.X, qm.Y, qm.Z
    assert np.allclose(qm.kron(a, b, c), np.kron(np.kron(a, b), c))


# ---------------------------------------------------------------------------
# Operator embedding
# ---------------------------------------------------------------------------

def test_embed_single_qubit_matches_manual(rng):
    labels = ("a", "b", "c")
    op = rand_unitary(rng)
    for t in labels:
        assert np.allclose(
            qm.embed(op, labels, (t,)), manual_embed(op, labels, (t,)), atol=TOL
        )


def test_embed_two_qubit_any_order(rng):
    labels = ("a", "b", "c", "d")
    op = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    for targets in (("a", "b"), ("b", "a"), ("a", "d"), ("d", "b"), ("c", "a")):
        assert np.allclose(
            qm.embed(op, labels, targets), manual_embed(op, labels, targets), atol=TOL
        )


def test_embed_errors():
    with pytest.raises(ValueError):
        qm.embed(np.eye(4), ("a", "b"), ("a", "a"))
    with pytest.raises(KeyError):
        qm.embed(np.eye(2), ("a", "b"), ("z",))


# ---------------------------------------------------------------------------
# StateVector
# ---------------------------------------------------------------------------

def test_state_vector_validation():
    with pytest.raises(ValueError):
        qm.StateVector(("a", "a"), np.zeros(4))
    with pytest.raises(ValueError):
        qm.StateVector(("a", "b"), np.zeros(3))


def test_from_kets_product_state():
    st = qm.StateVector.from_kets([("a", "0"), ("b", "+")])
    assert st.labels == ("a", "b")
    assert np.allclose(st.amps, np.kron([1, 0], np.array([1, 1]) / np.sqrt(2)))
    st2 = qm.StateVector.from_kets([("a", np.array([0, 1j]))])
    assert np.allclose(st2.amps, [0, 1j])


def test_normalized_and_zero_state():
    st = qm.StateVector(("a",), np.array([3.0, 4.0]))
    unit, raw = st.normalized()
    assert abs(raw - 5.0) < TOL and abs(unit.norm - 1.0) < TOL
    with pytest.raises(ValueError):
        qm.StateVector(("a",), np.zeros(2)).normalized()


def test_tensor_rejects_label_collision(rng):
    a = rand_state(("x", "y"), rng)
    b = rand_state(("y", "z"), rng)
    with pytest.raises(ValueError):
        a.tensor(b)


def test_reorder_roundtrip_and_amplitude_permutation(rng):
    st = rand_state(("a", "b", "c"), rng)
    back = st.reorder(("c", "a", "b")).reorder(("a", "b", "c"))
    assert np.allclose(back.amps, st.amps, atol=0)
    # amplitude <b1 b2 b3| is invariant under register permutation
    re = st.reorder(("c", "a", "b"))
    for idx in range(8):
        ba = (idx >> 2) & 1
        bb = (idx >> 1) & 1
        bc = idx & 1
        assert re.amps[(bc << 2) | (ba << 1) | bb] == st.amps[idx]
    for state in (st, st.to_density()):
        for labels in (("a", "b"), ("a", "b", "z"), ("a", "b", "c", "c")):
            with pytest.raises(ValueError, match="^reorder must use exactly the existing labels$"):
                state.reorder(labels)


def test_apply_matches_embedding(rng):
    st = rand_state(("a", "b", "c"), rng)
    op = rand_unitary(rng)
    got = st.apply(op, "b")
    want = qm.embed(op, st.labels, ("b",)) @ st.amps
    assert np.allclose(got.amps, want, atol=TOL)


REGISTER4 = ("a", "b", "c", "d")
ORDERED_PAIRS = [(p, q) for p in REGISTER4 for q in REGISTER4 if p != q]
# The operators the library applies: each output amplitude has one nonzero
# term, so the axis contraction has the bits of the dense product.
MONOMIAL_OPS = {
    "CZ4": np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex),
    "CX4": np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex),
    # the overlap filter cube at t_h = 1, t_v = 1/3
    "filter": np.diag([1.0, np.sqrt(1 / 3), np.sqrt(1 / 3), -1 / 3]).astype(complex),
}


@pytest.mark.parametrize("pair", ORDERED_PAIRS)
@pytest.mark.parametrize("name", sorted(MONOMIAL_OPS))
def test_apply_two_qubits_has_the_dense_bits(rng, name, pair):
    st = rand_state(REGISTER4, rng)
    op = MONOMIAL_OPS[name]
    got = st.apply(op, *pair)
    assert got.labels == REGISTER4
    assert np.array_equal(got.amps, qm.embed(op, REGISTER4, pair) @ st.amps)


@pytest.mark.parametrize("pair", ORDERED_PAIRS)
def test_apply_two_matches_embedding(rng, pair):
    st = rand_state(REGISTER4, rng)
    op = rand_unitary(rng, 4)
    got = st.apply(op, *pair)
    assert np.allclose(got.amps, qm.embed(op, REGISTER4, pair) @ st.amps, atol=TOL)


def test_apply_rejects_repeated_or_unknown_qubits():
    st = rand_state(("a", "b"), np.random.default_rng(1))
    with pytest.raises(ValueError, match="^apply needs one or more distinct qubits$"):
        st.apply(np.eye(4), "a", "a")
    with pytest.raises(ValueError, match="^apply needs one or more distinct qubits$"):
        st.apply(np.eye(1))
    with pytest.raises(KeyError):
        st.apply(np.eye(2), "z")


def test_overlap_aligns_registers(rng):
    st = rand_state(("a", "b", "c"), rng)
    re = st.reorder(("b", "c", "a"))
    assert abs(st.overlap(re) - 1.0) < TOL
    other = rand_state(("a", "b", "c"), rng)
    assert abs(st.overlap(other) - np.conj(other.overlap(st))) < TOL
    with pytest.raises(ValueError):
        st.overlap(rand_state(("x", "y", "z"), rng))


def test_project_born_rule(rng):
    st = rand_state(("a", "b"), rng)
    basis0 = rand_unitary(rng)[:, 0]
    basis1 = np.array([-np.conj(basis0[1]), np.conj(basis0[0])])
    p0, rest0 = st.project("a", basis0)
    p1, rest1 = st.project("a", basis1)
    assert abs(p0 + p1 - 1.0) < TOL
    assert abs(p0 - rest0.norm**2) < TOL
    assert rest0.labels == ("b",)
    # string kets are accepted
    ph, _ = st.project("b", "0")
    proj = qm.embed(np.diag([1.0, 0.0]), st.labels, ("b",))
    assert abs(ph - st.expectation(proj)) < TOL


def test_expectation_real_part(rng):
    st = rand_state(("a", "b"), rng)
    op = qm.kron(qm.Z, qm.X)
    want = np.vdot(st.amps, op @ st.amps)
    assert abs(st.expectation(op) - np.real(want)) < TOL


# ---------------------------------------------------------------------------
# DensityMatrix and reductions
# ---------------------------------------------------------------------------

def test_density_validation():
    with pytest.raises(ValueError):
        qm.DensityMatrix(("a",), np.eye(4))


def test_density_matches_pure_operations(rng):
    st = rand_state(("a", "b"), rng)
    rho = st.to_density()
    assert abs(rho.trace - 1.0) < TOL
    assert np.allclose(
        rho.reorder(("b", "a")).mat, st.reorder(("b", "a")).to_density().mat, atol=TOL
    )
    onto = rand_unitary(rng)[:, 0]
    p_pure, rest_pure = st.project("a", onto)
    p_mix, rest_mix = rho.project("a", onto)
    assert abs(p_pure - p_mix) < TOL
    assert np.allclose(rest_mix.mat, rest_pure.to_density().mat, atol=TOL)
    herm = qm.kron(qm.X, qm.Y)
    assert abs(density_expectation(rho, herm) - st.expectation(herm)) < TOL


def test_density_project_has_tensordot_bits(rng):
    kets = [qm.ket(name) for name in "01+-RL"] + [basis_B(0.7, 0.5).ket0]
    for n in range(1, 6):
        labels = tuple("abcde"[:n])
        rho = rand_density(labels, rng)
        for ax, q in enumerate(labels):
            for vec in kets:
                t = rho.mat.reshape([2] * (2 * n))
                t = np.tensordot(np.conj(vec), t, axes=(0, ax))
                t = np.tensordot(vec, t, axes=(0, n - 1 + ax))
                want = t.reshape(2 ** (n - 1), 2 ** (n - 1))
                prob, rest = rho.project(q, vec)
                assert prob == float(np.real(np.trace(want)))
                assert np.array_equal(rest.mat, want)
                assert rest.labels == labels[:ax] + labels[ax + 1:]


def _data(state):
    return state.amps if isinstance(state, qm.StateVector) else state.mat


def test_collapse_of_a_stack_has_each_items_bits(rng):
    for n in (1, 2, 4):
        labels = tuple("abcd"[:n])
        kets = np.array([rand_unitary(rng)[:, 0] for _ in range(5)])
        for make in (rand_state, rand_density):
            states = [make(labels, rng) for _ in range(5)]
            stack = np.stack([_data(s) for s in states])
            for ax, q in enumerate(labels):
                probs, rest = qm.collapse(stack, ax, kets)
                probs_n, unit = qm.collapse(stack, ax, kets, normalize=True)
                assert np.array_equal(probs, probs_n)
                for i, state in enumerate(states):
                    prob, one = state.project(q, kets[i])
                    assert probs[i] == prob
                    assert np.array_equal(rest[i], _data(one))
                    assert np.array_equal(unit[i], _data(one.normalized()[0]))


def test_pure_collapse_has_the_bits_of_per_item_vdot_and_norm(rng):
    for n in (1, 2, 3, 5):
        labels = tuple("abcde"[:n])
        for g in (1, 3, 25, 70):
            stack = np.stack([rand_state(labels, rng).amps for _ in range(g)])
            stack[0] = stack[0].real  # signed zeros in the imaginary parts
            kets = np.array([rand_unitary(rng)[:, 0] for _ in range(g)])
            for ax in range(n):
                probs, rest = qm.collapse(stack, ax, kets)
                _, unit = qm.collapse(stack, ax, kets, normalize=True)
                for i, r in enumerate(rest):
                    assert probs[i] == np.vdot(r, r).real
                    assert np.array_equal(unit[i], r / np.linalg.norm(r))


def test_collapse_of_one_has_the_bits_of_its_item_in_a_stack_of_three(rng):
    # the stack of one takes np.dot, np.vdot and a 2-D trace, a larger stack
    # np.matmul and _row_dots: both must give the same bytes
    for n in range(1, 7):
        labels = tuple("abcdef"[:n])
        for make in (rand_state, rand_density):
            for rep in range(6):
                stack = np.stack([_data(make(labels, rng)) for _ in range(3)])
                if rep == 0:
                    stack[1] = stack[1].real  # signed zeros in the imaginary parts
                kets = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
                for ax in range(n):
                    for normalize in (False, True):
                        probs, rest = qm.collapse(stack, ax, kets, normalize=normalize)
                        for i in range(3):
                            one = qm.collapse(stack[i:i + 1], ax, kets[i:i + 1], normalize=normalize)
                            for got, want in zip(one, (probs[i:i + 1], rest[i:i + 1])):
                                assert got.shape == want.shape and got.dtype == want.dtype
                                assert got.tobytes() == want.tobytes()


def test_norm_has_the_bits_of_np_linalg_norm(rng):
    for n in range(1, 7):
        labels = tuple("abcdef"[:n])
        for k in range(40):
            amps = rand_state(labels, rng).amps * rng.uniform(0.01, 100.0)
            if k == 0:
                amps = amps.real + 0j  # signed zeros in the imaginary parts
            elif k == 1:
                amps[::2] = 0.0
            state = qm.StateVector(labels, amps)
            assert type(state.norm) is float
            assert state.norm == float(np.linalg.norm(state.amps))
            unit, norm = state.normalized()
            assert norm == state.norm
            assert np.array_equal(unit.amps, state.amps / np.linalg.norm(state.amps))


def test_collapse_leaves_a_zero_state_undivided():
    stack = np.stack([qm.ket("0"), qm.ket("+")])
    probs, unit = qm.collapse(stack, 0, np.stack([qm.ket("1"), qm.ket("1")]), normalize=True)
    assert probs[0] == 0.0 and np.array_equal(unit[0], [0])
    assert abs(probs[1] - 0.5) < TOL and np.allclose(unit[1], [1])
    for data in (qm.ket("0"), np.diag([1.0 + 0j, 0.0])):  # stacks of one
        probs, unit = qm.collapse(data[np.newaxis], 0, qm.ket("1")[np.newaxis], normalize=True)
        assert probs.tolist() == [0.0] and not np.any(unit)


@pytest.mark.parametrize("g", [1, 3])
def test_collapse_rejects_kets_that_are_not_one_per_state(g):
    states = np.ones((g, 4), dtype=complex)
    for kets in (np.ones(2), np.ones((g + 1, 2)), np.ones((g, 3)), np.ones((g, 2, 1))):
        with pytest.raises(ValueError, match=rf"^kets must be \({g}, 2\) for {g} states, got"):
            qm.collapse(states, 0, kets.astype(complex))


@pytest.mark.parametrize("g", [1, 3])
def test_collapse_rejects_an_axis_outside_the_register(g):
    kets = np.ones((g, 2), dtype=complex)
    for states in (np.ones((g, 8), dtype=complex), np.ones((g, 8, 8), dtype=complex)):
        for axis in (-1, 3, 7):
            with pytest.raises(ValueError, match=rf"^axis must lie in \[0, 3\) for 3-qubit states, got {axis}$"):
                qm.collapse(states, axis, kets)


@pytest.mark.parametrize("g", [1, 3])
def test_collapse_rejects_states_that_are_not_qubit_registers(g):
    kets = np.ones((g, 2), dtype=complex)
    for shape in ((g,), (g, 1), (g, 3), (g, 6), (g, 4, 2), (g, 4, 8), (g, 2, 2, 2)):
        with pytest.raises(ValueError, match=r"^states must be \(G, 2\^n\) or \(G, 2\^n, 2\^n\) with n >= 1"):
            qm.collapse(np.ones(shape, dtype=complex), 0, kets)


def test_project_rejects_an_onto_that_is_not_one_ket(rng):
    st = rand_state(("a", "b"), rng)
    for state in (st, st.to_density()):
        for onto in (np.ones((2, 1)), np.ones((1, 2)), np.ones(3), np.ones(1), np.array(1.0)):
            with pytest.raises(ValueError, match=r"^onto must be a ket name or of shape \(2,\), got ") as err:
                state.project("a", onto)
            assert str(err.value).endswith(f"got {onto.shape}")
        with pytest.raises(ValueError, match="unknown ket name"):
            state.project("a", "Q")
        p, _ = state.project("a", [1, 0])  # a plain sequence of two amplitudes is a ket
        assert p == state.project("a", "0")[0]


def test_density_normalized():
    rho = qm.DensityMatrix(("a",), 2 * np.eye(2))
    unit, tr = rho.normalized()
    assert abs(tr - 4.0) < TOL and abs(unit.trace - 1.0) < TOL
    with pytest.raises(ValueError):
        qm.DensityMatrix(("a",), np.zeros((2, 2))).normalized()


def test_partial_trace_bell_pair():
    bell = qm.StateVector(("a", "b"), np.array([1, 0, 0, 1]) / np.sqrt(2))
    for q in ("a", "b"):
        red = qm.partial_trace(bell, (q,))
        assert red.labels == (q,)
        assert np.allclose(red.mat, np.eye(2) / 2, atol=TOL)


def test_partial_trace_product_and_order(rng):
    a = rand_state(("a",), rng)
    b = rand_state(("b",), rng)
    st = a.tensor(b)
    red = qm.partial_trace(st, ("b",))
    assert np.allclose(red.mat, b.to_density().mat, atol=TOL)
    # kept labels stay in register order regardless of the keep order
    st3 = rand_state(("a", "b", "c"), rng)
    red2 = qm.partial_trace(st3, ("c", "a"))
    assert red2.labels == ("a", "c")
    with pytest.raises(ValueError):
        qm.partial_trace(st3, ())
    with pytest.raises(KeyError):
        qm.partial_trace(st3, ("z",))


def test_partial_trace_general_consistency(rng):
    rho = rand_density(("a", "b", "c"), rng)
    red = qm.partial_trace(rho, ("a", "b"))
    # trace preserved and reduction of an embedded observable agrees
    assert abs(red.trace - 1.0) < TOL
    obs = rng.normal(size=(4, 4))
    obs = obs + obs.T
    lifted = qm.embed(obs, ("a", "b", "c"), ("a", "b"))
    assert abs(density_expectation(red, obs) - density_expectation(rho, lifted)) < 1e-10


def test_fidelity_pure_and_mixed(rng):
    a = rand_state(("x", "y"), rng)
    b = rand_state(("x", "y"), rng)
    assert abs(qm.fidelity(a.to_density(), b) - abs(a.overlap(b)) ** 2) < TOL
    w = 0.61
    mix = qm.DensityMatrix(
        ("x", "y"), w * a.to_density().mat + (1 - w) * np.eye(4) / 4
    )
    assert abs(qm.fidelity(mix, a) - (w + (1 - w) / 4)) < TOL
    with pytest.raises(ValueError):
        qm.fidelity(a.to_density(), rand_state(("p", "q"), rng))


def test_linear_entropy_limits():
    pure = qm.StateVector(("q",), qm.ket("+")).to_density()
    assert abs(qm.linear_entropy(pure)) < TOL
    mixed = qm.DensityMatrix(("q",), np.eye(2) / 2)
    assert abs(qm.linear_entropy(mixed) - 1.0) < TOL
    p = 0.3
    diag = qm.DensityMatrix(("q",), np.diag([p, 1 - p]))
    assert abs(qm.linear_entropy(diag) - 4 * p * (1 - p)) < TOL
    with pytest.raises(ValueError):
        qm.linear_entropy(qm.DensityMatrix(("a", "b"), np.eye(4) / 4))


# ---------------------------------------------------------------------------
# Phase-insensitive comparisons
# ---------------------------------------------------------------------------

def test_states_equal_up_to_phase(rng):
    st = rand_state(("a", "b"), rng)
    rotated = qm.StateVector(st.labels, np.exp(0.77j) * st.amps)
    assert states_equal(st, rotated)
    assert abs(qm.overlap_modulus(st, rotated) - 1.0) < TOL
    other = rand_state(("a", "b"), rng)
    assert not states_equal(st, other)


def test_vec_equal_up_to_phase():
    v = np.array([1.0, 1j])
    assert vec_equal_up_to_phase(v, np.exp(-1.3j) * v)
    assert vec_equal_up_to_phase(3 * v, v)  # scale-insensitive
    assert not vec_equal_up_to_phase(v, np.array([1.0, -1j]))
    assert vec_equal_up_to_phase(np.zeros(2), np.zeros(2))
    assert not vec_equal_up_to_phase(np.zeros(2), v)


def test_canonical_phase():
    # the rephasing step of the numpy reference that basis_B's bits are pinned to
    v = np.array([0.0, -1j * 0.6, 0.8])
    fixed = canonical_phase(v)
    assert fixed[1].real > 0 and abs(fixed[1].imag) < TOL
    assert abs(np.linalg.norm(fixed) - np.linalg.norm(v)) < TOL
    assert np.allclose(canonical_phase(np.zeros(3)), np.zeros(3))


def test_mat_proportional(rng):
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    assert mat_proportional((0.3 - 2j) * m, m)
    assert not mat_proportional(m + 0.5 * qm.Z, m)
    assert mat_proportional(np.zeros((2, 2)), np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# Built-in invariant checks
# ---------------------------------------------------------------------------

def test_require_passes_up_to_its_bound_and_fails_closed():
    qm.require("c", 1e-11, 1e-11, "m")  # equal to the bound passes
    qm.require("c", np.array([-1.0, 0.0, 1e-11]), 1e-11, "m")
    qm.require("c", np.array([]), 1e-11, "m")  # nothing to check
    for residual, worst in ((2e-11, 2e-11), (np.array([0.0, 3e-11, 2e-11]), 3e-11),
                            (float("nan"), None), (np.array([0.0, np.nan]), None)):
        with pytest.raises(qm.InvariantViolation, match="^the message$") as err:
            qm.require("the check", residual, 1e-11, "the message")
        exc = err.value
        assert isinstance(exc, AssertionError)
        assert (exc.check, exc.bound, str(exc)) == ("the check", 1e-11, "the message")
        assert exc.residual == worst if worst is not None else np.isnan(exc.residual)


def test_require_on_a_float_decides_as_on_an_array():
    bound = 1e-11
    cases = ((float("nan"), False), (float("inf"), False), (float("-inf"), True), (bound, True),
             (float(np.nextafter(bound, 1.0)), False), (np.float64(bound), True),
             (np.float64(2e-11), False), (np.float64(np.nan), False))
    for residual, passes in cases:
        outcomes = []
        for given in (residual, np.array([residual])):
            try:
                qm.require("c", given, bound, "m")
                outcomes.append(None)
            except qm.InvariantViolation as exc:
                assert type(exc.residual) is float
                outcomes.append(repr(exc.residual))
        assert outcomes[0] == outcomes[1]
        assert (outcomes[0] is None) == passes
