"""Measurement bases, induced correlation-space operators, Born-rule collapse."""

import hashlib
import json
import warnings
from math import cos, pi, sin, sqrt

import numpy as np
import pytest

from corrspace import qmath as qm
from corrspace import measurement as meas
from corrspace.noise_tomo import white_noise
from corrspace.cli import dumps15, transcript_payload
from corrspace.protocols import (
    PauliFrame, ProtocolAbort, ProtocolTranscript, compensate, cz_gate_protocol, deutsch,
    enumerate_compensation, noisy_success_curve, rotate_sequence, wrong_angle,
)
from corrspace.wires import a_site, b_site, b_site_rotated, build_psi4
from helpers import (
    basis_u, induced_operator, mat_proportional, numpy_basis_B, rand_density, rand_state,
    rand_unitary, rz, su2_decompose, vec_equal_up_to_phase,
)

TOL = 1e-12


# ---------------------------------------------------------------------------
# Basis families
# ---------------------------------------------------------------------------

def test_angle_basis_endpoints():
    b0 = meas.basis_B(0.0)
    assert np.allclose(b0.ket0, qm.ket("H"), atol=TOL)
    assert np.allclose(b0.ket1, qm.ket("V"), atol=TOL)
    bpi = meas.basis_B(pi)
    assert np.allclose(bpi.ket0, qm.ket("V"), atol=TOL)
    assert np.allclose(bpi.ket1, qm.ket("H"), atol=TOL)


def test_angle_basis_orthonormal_and_phase_fixed(rng):
    for zeta in rng.uniform(-2 * pi, 2 * pi, size=12):
        b = meas.basis_B(float(zeta), 0.9)
        assert abs(np.linalg.norm(b.ket0) - 1) < TOL
        assert abs(np.linalg.norm(b.ket1) - 1) < TOL
        assert abs(np.vdot(b.ket0, b.ket1)) < TOL
        for k in (b.ket0, b.ket1):
            first = k[np.flatnonzero(np.abs(k) > 1e-9)[0]]
            assert first.real > 0 and abs(first.imag) < TOL


def test_angle_basis_closed_form_components():
    zeta, theta = 0.8, 0.5
    c, s = cos(theta), sin(theta)
    ch, sh = cos(zeta / 2), sin(zeta / 2)
    k0 = np.array([s * ch, 1j * c * sh])
    k1 = np.array([c * sh, -1j * s * ch])
    b = meas.basis_B(zeta, theta)
    assert vec_equal_up_to_phase(b.ket0, k0, TOL)
    assert vec_equal_up_to_phase(b.ket1, k1, TOL)


def test_angle_basis_has_the_bits_of_the_numpy_construction():
    zetas = np.random.default_rng(13).uniform(-4 * pi, 4 * pi, 10_000).tolist()
    zetas += [0.0, -0.0, pi / 2, -pi / 2, pi, -pi, 2 * pi, -2 * pi]
    zetas += [1e300, -1e300, 1e-300, -1e-300, np.float64(0.7)]
    for theta in (pi / 8, pi / 6, pi / 5, 0.3, pi / 4, 1.2, -0.7):
        for zeta in zetas:
            b = meas.basis_B(zeta, theta)
            k0, k1, name = numpy_basis_B(zeta, theta)
            assert b.ket0.tobytes() == k0.tobytes(), (zeta, theta)
            assert b.ket1.tobytes() == k1.tobytes(), (zeta, theta)
            assert b.name == name


def test_angle_basis_kets_are_read_only():
    b = meas.basis_B(0.4)
    for k in (b.ket0, b.ket1):
        assert not k.flags.writeable
        with pytest.raises(ValueError):
            k[0] = 0.0


def test_angle_basis_is_shared_per_pair():
    b = meas.basis_B(0.4, 0.9)
    assert meas.basis_B(0.4, 0.9) is b
    assert not b.ket0.flags.writeable and not b.ket1.flags.writeable
    assert meas.basis_B(0.4) is not b
    zero, negative_zero = meas.basis_B(0.0), meas.basis_B(-0.0)
    assert (zero.name, negative_zero.name) == ("B(0)", "B(-0)")
    assert meas.basis_B(0.0) is zero and meas.basis_B(-0.0) is negative_zero


def test_shared_bases_are_bounded():
    meas._shared_basis_B.cache_clear()
    for zeta in np.linspace(-pi, pi, 1100).tolist():
        meas.basis_B(zeta)
    assert meas._shared_basis_B.cache_info().currsize <= 1024


def test_angle_basis_rejects_degenerate_theta():
    with pytest.raises(ValueError):
        meas.basis_B(0.3, 0.0)


def test_angle_basis_stack_has_the_bits_of_basis_B():
    # zeta in {0, +-pi, +-2pi} zeroes a first entry: the rephasing uses the second
    zetas = np.random.default_rng(14).uniform(-4 * pi, 4 * pi, 2_000).tolist()
    zetas += [0.0, -0.0, pi, -pi, 2 * pi, -2 * pi, pi / 2, 1e300, np.float64(0.7)]
    for theta in (pi / 8, pi / 6, pi / 5, pi / 4, 0.9):
        stack = meas.basis_B_stack(zetas, theta)
        want = np.array([[b.ket0, b.ket1] for b in (meas.basis_B(z, theta) for z in zetas)])
        assert stack.shape == (len(zetas), 2, 2)
        assert stack.tobytes() == want.tobytes(), theta
        assert all(stack[g].tobytes() == meas.basis_B(z, theta).kets.tobytes()
                   for g, z in enumerate(zetas)), theta


def test_angle_basis_stack_is_read_only_and_checks_theta():
    stack = meas.basis_B_stack([0.4, 1.1])
    for view in (stack, stack[0], stack[:, 1]):
        assert not view.flags.writeable
    with pytest.raises(ValueError):
        stack[0, 0, 0] = 0.0
    with pytest.raises(ValueError) as scalar:
        meas.basis_B(0.3, 0.0)
    with pytest.raises(ValueError) as stacked:
        meas.basis_B_stack([0.3], 0.0)
    assert str(stacked.value) == str(scalar.value)


def test_angle_basis_stack_is_shared_per_pair():
    stack = meas.basis_B_stack([0.4, 1.1], 0.9)
    assert not stack.flags.writeable
    for same in ([0.4, 1.1], (0.4, 1.1), np.array([0.4, 1.1]), [np.float64(0.4), 1.1]):
        assert meas.basis_B_stack(same, 0.9) is stack
    assert meas.basis_B_stack([0.4, 1.1]) is not stack
    assert meas.basis_B_stack([0.4, 1.1, 0.2], 0.9) is not stack


def test_angle_basis_stack_tells_negative_zero_apart():
    zero, negative_zero = meas.basis_B_stack([0.0, 0.7]), meas.basis_B_stack([-0.0, 0.7])
    assert zero is not negative_zero
    for stack, zetas in ((zero, [0.0, 0.7]), (negative_zero, [-0.0, 0.7])):
        want = np.array([[b.ket0, b.ket1] for b in map(meas.basis_B, zetas)])
        assert stack.tobytes() == want.tobytes()
        assert meas.basis_B_stack(zetas) is stack


def test_angle_basis_stack_failures_are_not_kept():
    for _ in range(3):
        with pytest.raises(ValueError, match="^degenerate wire angle"):
            meas.basis_B_stack([0.3], 0.0)
    # the float64 bytes of a (2, 1) grid are those of [0.1, 0.2]
    meas.basis_B_stack([0.1, 0.2])
    with pytest.raises(ValueError, match="1-D"):
        meas.basis_B_stack([[0.1], [0.2]])


@pytest.mark.parametrize("zeta", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_basis_angle_is_named_before_any_trig_call(zeta):
    message = rf"^basis angle zeta must be finite, got {zeta}$"
    kept, stacks = meas._shared_basis_B.cache_info(), meas._shared_basis_B_stack.cache_info()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's invalid-value warnings from cos and sin
        with pytest.raises(ValueError, match=message):
            meas.basis_B(zeta)
        with pytest.raises(ValueError, match=message):
            meas.basis_B(zeta, 0.9)
        with pytest.raises(ValueError, match=message):
            meas.basis_B_stack([0.3, zeta, 0.5])
        with pytest.raises(ValueError, match=message):
            compensate(zeta, rng=np.random.default_rng(2))
    # a failed build is not kept
    assert meas._shared_basis_B.cache_info().currsize == kept.currsize
    assert meas._shared_basis_B_stack.cache_info().currsize == stacks.currsize


def test_shared_stacks_are_bounded():
    meas._shared_basis_B_stack.cache_clear()
    for zeta in np.linspace(-pi, pi, 100).tolist():
        meas.basis_B_stack([zeta, 0.5])
    assert meas._shared_basis_B_stack.cache_info().currsize <= 64


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda k0, k1: ((k0[0] * (1 + 2e-12), k0[1]), k1), "normalized"),
        (lambda k0, k1: (k0, (complex("nan"), k1[1])), "normalized"),
        (lambda k0, k1: (k0, k0), "orthogonal"),
    ],
)
def test_angle_basis_stack_checks_every_row(monkeypatch, corrupt, message):
    real = meas._b_kets

    def one_bad_row(zeta, c, s):
        k0, k1 = real(zeta, c, s)
        return corrupt(k0, k1) if zeta == 0.5 else (k0, k1)

    meas._shared_basis_B_stack.cache_clear()  # a kept stack would skip the corrupted build
    monkeypatch.setattr(meas, "_b_kets", one_bad_row)
    meas.basis_B_stack([0.1, 0.9])
    with pytest.raises(ValueError, match=f"^basis kets must be {message}$"):
        meas.basis_B_stack([0.1, 0.5, 0.9])


def test_coupler_basis_closed_form():
    tc = 0.7
    u0 = (cos(tc / 4) - sin(tc / 4)) / sqrt(2)
    u1 = (cos(tc / 4) + sin(tc / 4)) / sqrt(2)
    b = basis_u(tc)
    assert np.allclose(b.ket0, [u0, -u1], atol=TOL)
    assert np.allclose(b.ket1, [u1, u0], atol=TOL)
    assert abs(np.vdot(b.ket0, b.ket1)) < TOL
    b0 = basis_u(0.0)
    assert np.allclose(b0.ket0, qm.ket("-"), atol=TOL)
    assert np.allclose(b0.ket1, qm.ket("+"), atol=TOL)


def test_pauli_bases_are_eigenbases():
    for letter in "XYZ":
        b = meas.pauli_basis(letter)
        m = qm.PAULI[letter]
        assert np.allclose(m @ b.ket0, b.ket0, atol=TOL)
        assert np.allclose(m @ b.ket1, -b.ket1, atol=TOL)
    with pytest.raises(ValueError):
        meas.pauli_basis("Q")


@pytest.mark.parametrize(
    "ket0, ket1, message",
    [
        (np.ones(3) / sqrt(3), np.ones(3) / sqrt(3), "2-vectors"),
        (np.array([1, 1, 0]) / sqrt(2), qm.ket("1"), "2-vectors"),
        (np.array([1 + 2e-12, 0]), qm.ket("1"), "normalized"),
        (qm.ket("0"), np.array([0, (1 - 2e-12) * 1j]), "normalized"),
        (qm.ket("0"), np.array([2e-12, 1]), "orthogonal"),
        (qm.ket("0"), np.array([2e-12j, 1]), "orthogonal"),
        (np.array([np.nan, 0]), qm.ket("1"), "normalized"),
        (qm.ket("0"), np.array([0, 1j * np.nan]), "normalized"),
    ],
)
def test_measurement_basis_rejects_at_its_bounds(ket0, ket1, message):
    with pytest.raises(ValueError, match=f"^basis kets must be {message}$"):
        meas.MeasurementBasis(ket0, ket1)


def test_measurement_basis_accepts_deviations_within_its_bounds():
    for ket0, ket1 in (
        (np.array([1 + 5e-13, 0]), qm.ket("1")),
        (qm.ket("0"), np.array([0, (1 - 5e-13) * 1j])),
        (qm.ket("0"), np.array([5e-13, 1])),
        (qm.ket("0"), np.array([5e-13j, 1])),
    ):
        b = meas.MeasurementBasis(ket0, ket1, name="near")
        assert b.ket0.dtype == complex and b.ket1.shape == (2,)


def test_measurement_basis_validation():
    with pytest.raises(ValueError):
        meas.MeasurementBasis(np.array([1.0, 1.0]), np.array([1.0, -1.0]))  # not unit
    with pytest.raises(ValueError):
        meas.MeasurementBasis(qm.ket("0"), qm.ket("0"))  # not orthogonal
    with pytest.raises(ValueError):
        meas.MeasurementBasis(np.ones(3) / sqrt(3), np.ones(3) / sqrt(3))


def test_measurement_basis_owns_read_only_kets():
    k0, k1 = np.array([1.0, 0.0]), np.array([0.0, 1j])
    b = meas.MeasurementBasis(k0, k1, name="own")
    k0[:] = 1.0
    k1[:] = 0.0
    assert b.kets.shape == (2, 2) and b.kets.dtype == complex
    assert b.kets.tolist() == [[1, 0], [0, 1j]]
    assert np.shares_memory(b.ket0, b.kets[0]) and np.shares_memory(b.ket1, b.kets[1])
    assert b.ket0.tolist() == [1, 0] and b.ket1.tolist() == [0, 1j]
    record, _ = meas.measure(qm.StateVector(("a",), qm.ket("+")), "a", b, outcome=0)
    assert abs(record.probability - 0.5) < TOL
    for view in (b.kets, b.ket0, b.ket1):
        with pytest.raises(ValueError):
            view[0] = 0.5


def test_measurement_basis_equality_is_identity():
    b = meas.basis_B(0.1)
    assert b == meas.basis_B(0.1)  # the shared basis of (0.1, pi/6)
    assert b != meas.basis_B(0.2) and not b == meas.basis_B(0.2)
    assert b != meas.MeasurementBasis(b.ket0, b.ket1, b.name)  # same kets, new object
    assert hash(b) == hash(meas.basis_B(0.1))
    assert {b: 1, meas.basis_B(0.2): 2}[meas.basis_B(0.1)] == 1
    first = meas.OutcomeRecord("a", b, 0, 0.5)
    assert first == meas.OutcomeRecord("a", meas.basis_B(0.1), 0, 0.5)
    assert first != meas.OutcomeRecord("a", meas.basis_B(0.2), 0, 0.5)
    assert len({first, meas.OutcomeRecord("a", b, 0, 0.5)}) == 1


# ---------------------------------------------------------------------------
# Induced correlation-space operators
# ---------------------------------------------------------------------------

def test_weighted_site_induces_phase_rotation():
    # consuming a weighted site in the angle basis leaves H * Rz(zeta) behind
    # (outcome 0); outcome 1 leaves the wrong-angle rotation H * Rz(zeta').
    # With orthonormal basis kets the scalar prefactor squares to the branch
    # probability sin^2(2 theta) / (2 (1 - cos(2 theta) cos(zeta))) on a unit
    # correlation vector, and the two branches exhaust probability one.
    for zeta in (0.3, 1.1, -2.0):
        theta = 0.6
        site = a_site(theta)
        b = meas.basis_B(zeta, theta)
        ind0 = induced_operator(b.ket0, site)
        scalar, u = su2_decompose(ind0)
        p0 = sin(2 * theta) ** 2 / (2 * (1 - cos(2 * theta) * cos(zeta)))
        assert abs(abs(scalar) ** 2 - p0) < TOL
        assert mat_proportional(ind0, qm.HAD @ rz(zeta))
        ind1 = induced_operator(b.ket1, site)
        assert mat_proportional(ind1, qm.HAD @ rz(wrong_angle(zeta, theta)))
        other, _ = su2_decompose(ind1)
        assert abs(abs(scalar) ** 2 + abs(other) ** 2 - 1.0) < TOL


def test_readout_sites_induced_maps():
    assert np.allclose(induced_operator(qm.ket("H"), b_site()), qm.HAD, atol=TOL)
    assert np.allclose(
        induced_operator(qm.ket("V"), b_site()), qm.HAD @ qm.Z, atol=TOL
    )
    rot = b_site_rotated()
    assert np.allclose(induced_operator(qm.ket("P"), rot), qm.HAD, atol=TOL)
    assert np.allclose(induced_operator(qm.ket("M"), rot), qm.HAD @ qm.Z, atol=TOL)


def test_induced_operator_is_conjugate_linear():
    site = b_site()
    phi = np.array([0.6, 0.8j])
    got = induced_operator(phi, site)
    want = 0.6 * site[0] + np.conj(0.8j) * site[1]
    assert np.allclose(got, want, atol=TOL)
    with pytest.raises(ValueError):
        induced_operator(np.ones(3), site)


def test_su2_decompose_roundtrip(rng):
    for _ in range(5):
        u = rand_unitary(rng)
        z = (rng.normal() + 1j * rng.normal()) or 1.0
        scalar, su = su2_decompose(z * u)
        assert abs(np.linalg.det(su) - 1) < 1e-9
        assert np.allclose(scalar * su, z * u, atol=1e-9)
        first = su.reshape(-1)[np.flatnonzero(np.abs(su.reshape(-1)) > 1e-10)[0]]
        assert first.real > -1e-10
    with pytest.raises(ValueError):
        su2_decompose(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        su2_decompose(np.diag([1.0, 2.0]))


# ---------------------------------------------------------------------------
# Born-rule collapse
# ---------------------------------------------------------------------------

def test_measure_postselected_probabilities(rng):
    st = rand_state(("a", "b"), rng)
    b = meas.basis_B(0.9, 0.5)
    rec0, col0 = meas.measure(st, "a", b, outcome=0)
    rec1, col1 = meas.measure(st, "a", b, outcome=1)
    assert abs(rec0.probability + rec1.probability - 1) < TOL
    assert col0.labels == ("b",) and abs(col0.norm - 1) < TOL
    # probability agrees with the explicit projector expectation
    proj = np.outer(b.ket0, np.conj(b.ket0))
    assert abs(rec0.probability - st.expectation(qm.embed(proj, st.labels, ("a",)))) < TOL
    assert rec0.qubit == "a" and rec0.outcome == 0 and rec0.basis is b


def test_measure_mixed_state_matches_pure(rng):
    st = rand_state(("a", "b"), rng)
    b = meas.pauli_basis("X")
    rec_p, col_p = meas.measure(st, "b", b, outcome=1)
    rec_m, col_m = meas.measure(st.to_density(), "b", b, outcome=1)
    assert abs(rec_p.probability - rec_m.probability) < TOL
    assert np.allclose(col_m.mat, col_p.to_density().mat, atol=TOL)


def test_measure_argument_validation(rng):
    st = rand_state(("a",), rng)
    b = meas.pauli_basis("Z")
    with pytest.raises(ValueError):
        meas.measure(st, "a", b)  # neither outcome nor rng
    with pytest.raises(ValueError):
        meas.measure(st, "a", b, outcome=0, rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        meas.measure(st, "a", b, outcome=2)


def test_measure_zero_probability_outcome_rejected():
    st = qm.StateVector(("a",), qm.ket("0"))
    with pytest.raises(ValueError):
        meas.measure(st, "a", meas.pauli_basis("Z"), outcome=1)


def test_measure_zero_probability_outcome_has_its_own_type():
    st = qm.StateVector(("a",), qm.ket("0"))
    with pytest.raises(meas.ZeroProbabilityBranch, match="zero probability"):
        meas.measure(st, "a", meas.pauli_basis("Z"), outcome=1)
    with pytest.raises(meas.ZeroProbabilityBranch):
        meas.measure(st.to_density(), "a", meas.pauli_basis("Z"), outcome=1)
    # other invalid arguments keep the plain ValueError
    with pytest.raises(ValueError) as info:
        meas.measure(st, "a", meas.pauli_basis("Z"), outcome=2)
    assert not isinstance(info.value, meas.ZeroProbabilityBranch)


@pytest.fixture
def project_calls(monkeypatch):
    """Qubits passed to StateVector.project and DensityMatrix.project."""
    calls = []
    for cls in (qm.StateVector, qm.DensityMatrix):
        def counted(self, qubit, onto, _real=cls.project):
            calls.append(qubit)
            return _real(self, qubit, onto)

        monkeypatch.setattr(cls, "project", counted)
    return calls


def test_postselected_measure_projects_once(rng, single_collapses):
    st = rand_state(("a", "b"), rng)
    for state in (st, st.to_density()):
        for outcome in (0, 1):
            single_collapses.clear()
            meas.measure(state, "b", meas.basis_B(0.9, 0.5), outcome=outcome)
            assert single_collapses == [1]


def test_sampled_measure_projects_again_only_for_outcome_1(rng, single_collapses):
    st = rand_state(("a", "b"), rng)
    gen = np.random.default_rng(5)
    seen = set()
    for state in (st, st.to_density()) * 10:
        single_collapses.clear()
        rec, _ = meas.measure(state, "a", meas.pauli_basis("X"), rng=gen)
        assert single_collapses == [1] * (1 + rec.outcome)
        seen.add(rec.outcome)
    assert seen == {0, 1}


def one_row_collapse(state, qubit, basis, outcome=None, rng=None):
    """A measured step through the stacked ``qmath.collapse`` of one row:
    collapse onto kets[0] to draw, onto kets[1] again when 1 is drawn."""
    data, axis = qm._array(state)[None], state.labels.index(qubit)

    def collapse(k):
        probs, unit = qm.collapse(data, axis, basis.kets[k][None])
        return probs[0], unit[0]

    if outcome is None:
        prob, rest = collapse(0)
        outcome = 0 if rng.random() < prob else 1
        if outcome == 1:
            prob, rest = collapse(1)
    else:
        prob, rest = collapse(outcome)
    return outcome, prob, qm._state(tuple(q for q in state.labels if q != qubit), rest)


def test_measure_has_the_bits_of_a_one_row_collapse(project_calls):
    gen = np.random.default_rng(31)
    labels = ("a", "b", "c")
    bases = (meas.basis_B(0.9, 0.5), meas.pauli_basis("X"), meas.basis_B(-2.3),
             meas.pauli_basis("Y"))
    seen = set()
    for k in range(10):
        basis = bases[k % len(bases)]
        for state in (rand_state(labels, gen), rand_density(labels, gen)):
            for qubit in labels:
                runs = [({"outcome": o}, {"outcome": o}) for o in (0, 1)]
                runs += [({"rng": np.random.default_rng(s)}, {"rng": np.random.default_rng(s)})
                         for s in range(4)]
                for given, oracle in runs:
                    project_calls.clear()
                    rec, out = meas.measure(state, qubit, basis, **given)
                    assert project_calls == []
                    outcome, prob, want = one_row_collapse(state, qubit, basis, **oracle)
                    assert rec.outcome == outcome and type(rec.probability) is float
                    assert np.float64(rec.probability).tobytes() == np.float64(prob).tobytes()
                    assert type(out) is type(want) and out.labels == want.labels
                    assert qm._array(out).tobytes() == qm._array(want).tobytes()
                    if "rng" in given:  # one draw each, so the generators stay in step
                        assert given["rng"].random() == oracle["rng"].random()
                        seen.add(outcome)
    assert seen == {0, 1}


def test_enumeration_projects_once_per_level(project_calls, collapse_stacks):
    rho = white_noise(build_psi4(), 0.9)
    _, branches = enumerate_compensation(0.8, "4-qubit", state=rho)
    assert len(branches) == 8
    assert collapse_stacks == [2, 4, 8]  # both outcomes of every node of a level
    collapse_stacks.clear()
    noisy_success_curve(np.linspace(0, pi, 25), "4-qubit", 0.9)
    assert collapse_stacks == [50, 100, 200]
    assert project_calls == []  # the walker collapses stacks; it never projects


def test_measure_sampling_statistics():
    st = qm.StateVector(("a",), np.array([sqrt(0.3), sqrt(0.7)], dtype=complex))
    rng = np.random.default_rng(77)
    n = 4000
    zeros = sum(
        meas.measure(st, "a", meas.pauli_basis("Z"), rng=rng)[0].outcome == 0
        for _ in range(n)
    )
    sigma = sqrt(0.3 * 0.7 / n)
    assert abs(zeros / n - 0.3) < 4 * sigma


def test_measure_sampling_is_seed_deterministic(rng):
    st = rand_state(("a", "b", "c"), rng)
    runs = []
    for _ in range(2):
        gen = np.random.default_rng(123)
        state = st
        bits = []
        for q in ("a", "b"):
            rec, state = meas.measure(state, q, meas.pauli_basis("X"), rng=gen)
            bits.append(rec.outcome)
        runs.append((tuple(bits), state.amps.copy()))
    assert runs[0][0] == runs[1][0]
    assert np.array_equal(runs[0][1], runs[1][1])


def test_outcome_record_validation():
    b = meas.pauli_basis("Z")
    with pytest.raises(ValueError):
        meas.OutcomeRecord("a", b, 3, 0.5)
    with pytest.raises(ValueError):
        meas.OutcomeRecord("a", b, 0, 1.5)
    rec = meas.OutcomeRecord("a", b, 1, 0.25)
    tr = ProtocolTranscript((rec,), PauliFrame((), (), ()), None, None, False)
    assert json.loads(dumps15(transcript_payload(tr)))["outcomes"] == [
        {"qubit": "a", "basis": "Z", "outcome": 1, "probability": 0.25},
    ]


def test_pauli_bases_are_shared_and_read_only():
    for letter in "XYZ":
        basis = meas.pauli_basis(letter)
        assert meas.pauli_basis(letter) is basis
        with pytest.raises(ValueError):
            basis.ket0[0] = 0
        with pytest.raises(ValueError):
            basis.ket1[0] = 0
    for _ in range(2):
        with pytest.raises(ValueError, match="unknown Pauli letter"):
            meas.pauli_basis("Q")


# ---------------------------------------------------------------------------
# Shared bases leave every shot unchanged
# ---------------------------------------------------------------------------

def shot_digest() -> str:
    """SHA-256 over 300 seeds of every sampled protocol and 8 post-selected
    runs: each record's qubit, outcome, probability, basis name and ket
    bytes, and each branch's outputs."""
    h = hashlib.sha256()

    def add(tr):
        for r in tr.outcomes:
            h.update(repr((r.qubit, r.outcome, r.probability, r.basis.name)).encode())
            h.update(r.basis.ket0.tobytes() + r.basis.ket1.tobytes())
        h.update(repr((tr.frame, tr.success, tr.total_probability, tr.notes)).encode())
        if tr.logical_out is not None:
            h.update(tr.logical_out.tobytes())
        out = tr.physical_out
        h.update(repr(out.labels).encode())
        h.update((out.amps if isinstance(out, qm.StateVector) else out.mat).tobytes())

    def add_deutsch(function, **kwargs):
        try:
            query, ancilla, tr = deutsch(function, **kwargs)
        except ProtocolAbort:
            h.update(b"abort")
            return
        h.update(bytes((query, ancilla)))
        add(tr)

    alphas = (0.0, -0.0, pi / 2, -pi / 2, 2 * pi / 3, 0.8, -1.1, pi)
    noisy = white_noise(build_psi4(), 0.8)
    for seed in range(300):
        rng = np.random.default_rng(seed)
        alpha, beta, gamma = (alphas[(seed + k) % len(alphas)] for k in (0, 3, 5))
        add(compensate(alpha, "4-qubit", rng=rng))
        add(compensate(alpha, "2-qubit", rng=rng))
        add(compensate(alpha, "4-qubit", rng=rng, state=noisy))
        add(rotate_sequence(alpha, beta, gamma, rng=rng))
        add(cz_gate_protocol(alpha, rng=rng))
        add_deutsch("constant", rng=rng)
        add_deutsch("balanced", rng=rng)
    add(compensate(0.0, "2-qubit", outcomes=(0,)))
    add(compensate(-0.0, "2-qubit", outcomes=(0,)))
    add(compensate(-0.0, "4-qubit", outcomes=(1, 1, 0)))
    add(compensate(pi / 2, "4-qubit", outcomes=(1, 0, 0), state=noisy))
    add(rotate_sequence(0.3, -0.0, 0.0))
    add(cz_gate_protocol(pi / 3, outcomes=(1, 0, 0, 1)))
    add_deutsch("constant", outcomes=(0, 1, 0, 0))
    add_deutsch("balanced", outcomes=(1, 0, 0, 1))
    return h.hexdigest()


#: ``shot_digest`` recorded before a shot's frames, total and norm moved to
#: plain scalars (Python 3.11.7, numpy 2.4.6); a change that keeps every
#: shot's bits keeps it.
SHOT_DIGEST = "1b0f008336fa3185507cbac15148fcd2113900f18a5596ad61e516f90583c03f"


def test_shared_bases_leave_every_shot_unchanged(monkeypatch):
    meas._shared_basis_B.cache_clear()
    cleared = shot_digest()
    assert cleared == SHOT_DIGEST
    assert shot_digest() == cleared  # every basis now comes from the memo
    monkeypatch.setattr(meas, "_shared_basis_B", meas._shared_basis_B.__wrapped__)
    assert shot_digest() == cleared  # a basis built on every call
