"""Measurement bases, induced correlation-space operators, Born-rule collapse."""

import json
from math import cos, pi, sin, sqrt

import numpy as np
import pytest

from corrspace import qmath as qm
from corrspace import measurement as meas
from corrspace.noise_tomo import white_noise
from corrspace.cli import dumps15, transcript_payload
from corrspace.protocols import (
    PauliFrame, ProtocolTranscript, enumerate_compensation, noisy_success_curve, wrong_angle,
)
from corrspace.wires import a_site, b_site, b_site_rotated, build_psi4
from helpers import (
    basis_u, induced_operator, mat_proportional, numpy_basis_B, rand_state, rand_unitary,
    rz, su2_decompose, vec_equal_up_to_phase,
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


def test_postselected_measure_projects_once(rng, project_calls):
    st = rand_state(("a", "b"), rng)
    for state in (st, st.to_density()):
        for outcome in (0, 1):
            project_calls.clear()
            meas.measure(state, "b", meas.basis_B(0.9, 0.5), outcome=outcome)
            assert project_calls == ["b"]


def test_sampled_measure_projects_again_only_for_outcome_1(rng, project_calls):
    st = rand_state(("a", "b"), rng)
    gen = np.random.default_rng(5)
    seen = set()
    for state in (st, st.to_density()) * 10:
        project_calls.clear()
        rec, _ = meas.measure(state, "a", meas.pauli_basis("X"), rng=gen)
        assert project_calls == ["a"] * (1 + rec.outcome)
        seen.add(rec.outcome)
    assert seen == {0, 1}


def test_enumeration_projects_once_per_child(project_calls, collapse_stacks):
    rho = white_noise(build_psi4(), 0.9)
    _, branches = enumerate_compensation(0.8, "4-qubit", state=rho)
    assert len(branches) == 8
    assert collapse_stacks == [1] * (2 + 4 + 8)
    collapse_stacks.clear()
    noisy_success_curve(np.linspace(0, pi, 25), "4-qubit", 0.9)
    assert collapse_stacks == [25] * (2 + 4 + 8)
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
