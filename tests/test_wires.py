"""Matrix-product wires, their contraction, and the named resource states."""

from math import cos, pi, sin, sqrt

import numpy as np
import pytest

from corrspace import cli, prep
from corrspace import qmath as qm
from corrspace import wires as w
from helpers import (
    CanonicalWire, brute_wire_amplitudes, couple_canonical, rz, vec_equal_up_to_phase,
)

TOL = 1e-12


# ---------------------------------------------------------------------------
# Site tensors
# ---------------------------------------------------------------------------

def test_weighted_site_tensors():
    for theta in (pi / 6, 0.3, 1.2):
        site = w.a_site(theta)
        assert np.allclose(site[0], cos(theta) * qm.HAD, atol=TOL)
        assert np.allclose(site[1], sin(theta) * qm.HAD @ qm.Z, atol=TOL)
        # the readout site weighted by the angle, bit for bit
        readout = w.b_site()
        assert np.array_equal(site[0], readout[0] * cos(theta))
        assert np.array_equal(site[1], readout[1] * sin(theta))


def test_readout_site_tensors():
    site = w.b_site()
    assert np.allclose(site[0], qm.HAD, atol=TOL)
    assert np.allclose(site[1], qm.HAD @ qm.Z, atol=TOL)


def test_rotated_readout_site_tensors():
    site = w.b_site_rotated()
    # computational-basis tensors are sqrt2 * H |0><0| and sqrt2 * H |1><1|
    p0 = np.diag([1.0, 0.0])
    p1 = np.diag([0.0, 1.0])
    assert np.allclose(site[0], qm.SQRT2 * qm.HAD @ p0, atol=TOL)
    assert np.allclose(site[1], qm.SQRT2 * qm.HAD @ p1, atol=TOL)
    # the diagonal-basis combinations recover the plain readout tensors
    t_p = (site[0] + site[1]) / qm.SQRT2
    t_m = (site[0] - site[1]) / qm.SQRT2
    assert np.allclose(t_p, qm.HAD, atol=TOL)
    assert np.allclose(t_m, qm.HAD @ qm.Z, atol=TOL)


@pytest.mark.parametrize("array, shape", (
    (w.a_site(0.7), (2, 2, 2)), (w.b_site(), (2, 2, 2)), (w.b_site_rotated(), (2, 2, 2)),
    (w.LEFT, (2,)), (w.RIGHT, (2,)),
))
def test_sites_and_boundaries_are_read_only_arrays(array, shape):
    assert array.shape == shape
    with pytest.raises(ValueError):
        array[0] = 0


def test_degenerate_angles_rejected():
    for bad in (0.0, pi / 2, pi, -pi / 2):
        with pytest.raises(ValueError):
            w.a_site(bad)


def test_canonical_wire_site():
    u = qm.HAD
    cw = CanonicalWire(u, 0.9)
    site = cw.site()
    assert np.allclose(site[0], u, atol=TOL)
    assert np.allclose(site[1], u @ rz(0.9), atol=TOL)
    assert len(cw.sites(4)) == 4
    with pytest.raises(ValueError):
        CanonicalWire(np.array([[1, 1], [0, 1]]), 0.5)  # not unitary


# ---------------------------------------------------------------------------
# Contraction
# ---------------------------------------------------------------------------

def test_contract_wire_matches_brute_force():
    theta = 0.7
    wire = w.Wire(
        (w.a_site(theta), w.b_site_rotated(), w.a_site(theta), w.b_site()),
        ("p", "q", "r", "s"),
    )
    brute = brute_wire_amplitudes(wire)
    state, raw = w.contract_wire(wire)
    assert abs(raw - np.linalg.norm(brute)) < TOL
    assert np.allclose(state.amps * raw, brute, atol=TOL)
    assert state.labels == ("p", "q", "r", "s")


def test_wire_validation():
    with pytest.raises(ValueError):
        w.Wire((w.b_site(),), ("a", "b"))  # label count mismatch
    big = w.Wire(tuple(w.b_site() for _ in range(11)), tuple(str(i) for i in range(11)))
    with pytest.raises(ValueError):
        w.contract_wire(big)


def test_contract_wire_rejects_zero_and_nan_norms():
    zero = np.zeros((2, 2, 2), dtype=complex)
    with pytest.raises(ValueError, match="^wire contraction produced a zero state$"):
        w.contract_wire(w.Wire((zero,), ("a",)))
    one_nan = w.b_site().copy()
    one_nan[0, 0, 0] = np.nan
    with pytest.raises(ValueError, match=r"^wire contraction produced a non-finite norm \(nan\)$"):
        w.contract_wire(w.Wire((one_nan,), ("a",)))


NON_FINITE = (np.nan, np.inf, -np.inf, complex(0, np.nan))


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("side", ("left", "right"))
@pytest.mark.parametrize("entry", (0, 1))
def test_wire_rejects_non_finite_boundary_vectors(side, entry, bad):
    # every wire runs between the fixed LEFT and RIGHT: a wire takes no
    # boundary vector, and the shared ones refuse the write
    vec = np.array([1.0, 1.0], dtype=complex)
    vec[entry] = bad
    with pytest.raises(TypeError):
        w.Wire((w.b_site(),), ("a",), **{side: vec})
    boundary = w.LEFT if side == "left" else w.RIGHT
    kept = boundary.copy()
    with pytest.raises(ValueError, match="read-only"):
        boundary[entry] = bad
    assert np.array_equal(boundary, kept)


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("entry", (0, 1))
def test_resource_spec_rejects_non_finite_injected_vectors(entry, bad):
    # couplers are labels of |+> sites: no vector can be injected in place of one
    vec = np.array([1.0, 1.0], dtype=complex)
    vec[entry] = bad
    wire = w.Wire((w.b_site(),), ("a",))
    with pytest.raises(TypeError):
        w.ResourceSpec((wire,), injected=(("b", qm.ket("0")), ("c", vec)))
    with pytest.raises(TypeError):
        w.ResourceSpec((wire,), couplers=("b", vec))
    state, _ = w.contract_resource(w.ResourceSpec((wire,), couplers=("b", "c")))
    assert np.isfinite(state.amps).all()
    assert np.allclose(state.amps, np.kron([1, 0], np.kron(qm.ket("+"), qm.ket("+"))), atol=TOL)


def test_single_site_wires_closed_form():
    # <0|H|+> = 1 and <0|HZ|+> = 0: a lone readout site is deterministic
    state, raw = w.contract_wire(w.Wire((w.b_site(),), ("a",)))
    assert np.allclose(state.amps, [1, 0], atol=TOL) and abs(raw - 1) < TOL
    # the weighted site only rescales: raw norm cos(theta), same state
    state, raw = w.contract_wire(w.Wire((w.a_site(0.8),), ("a",)))
    assert np.allclose(state.amps, [1, 0], atol=TOL)
    assert abs(raw - cos(0.8)) < TOL


# ---------------------------------------------------------------------------
# Named states
# ---------------------------------------------------------------------------

def test_two_qubit_readout_state_literal():
    for theta in (pi / 6, 0.9):
        c, s = cos(theta), sin(theta)
        expect = c * np.kron(qm.ket("H"), qm.ket("P")) + s * np.kron(
            qm.ket("V"), qm.ket("M")
        )
        state = w.lambda34(theta)
        assert state.labels == ("3", "4")
        assert vec_equal_up_to_phase(state.amps, expect, TOL)


def test_four_qubit_state_operational_vs_literal():
    for theta in (pi / 6, 0.4, 1.1):
        op = w.build_psi4(theta)
        lit, raw = w.psi4_explicit(theta)
        assert op.labels == ("1", "2", "3", "4")
        assert qm.overlap_modulus(op, lit) > 1 - TOL
        # the literal expansion is already normalized: its two top-qubit
        # branches are orthogonal with weights cos^2 + sin^2
        assert abs(raw - 1.0) < TOL


def test_six_qubit_state_operational_vs_literal():
    for theta in (pi / 6, 0.4, 1.1):
        op = w.build_psi6(theta)
        lit, raw = w.psi6_explicit(theta)
        assert op.labels == w.PSI6_LABELS
        assert qm.overlap_modulus(op, lit) > 1 - TOL
        # the literal six-qubit expression has raw norm 1/sqrt2
        assert abs(raw - 1 / sqrt(2)) < TOL


def test_six_qubit_state_manual_coupling_path():
    # rebuild the operational state by hand: contract both wires, tensor in
    # the |+> coupler, apply the two CZ edges via dense embedding
    theta = 0.5
    spec = w.psi6_spec(theta)
    parts = []
    for wire in spec.wires:
        amps = brute_wire_amplitudes(wire)
        parts.append(qm.StateVector(wire.labels, amps / np.linalg.norm(amps)))
    state = parts[0].tensor(parts[1]).tensor(
        qm.StateVector(("4",), qm.ket("+"))
    )
    cz = np.diag([1, 1, 1, -1.0])
    full = qm.embed(cz, state.labels, ("2", "4")) @ qm.embed(
        cz, state.labels, ("3", "4")
    )
    manual = qm.StateVector(state.labels, full @ state.amps)
    built, _ = w.contract_resource(spec)
    assert qm.overlap_modulus(built, manual) > 1 - TOL


def test_resource_spec_validation():
    wire = w.Wire((w.b_site(),), ("a",))
    with pytest.raises(ValueError):
        w.ResourceSpec((wire, w.Wire((w.b_site(),), ("a",))))  # duplicate label
    with pytest.raises(ValueError):
        w.ResourceSpec((wire,), couplers=("a",))  # a coupler reuses a wire label
    with pytest.raises(ValueError):
        w.ResourceSpec((wire,), edges=(("a", "z"),))
    with pytest.raises(ValueError):
        w.ResourceSpec((wire,), edges=(("a", "a"),))


def _same_sites(got, want) -> bool:
    return len(got) == len(want) and all(
        np.array_equal(g, e) for g, e in zip(got, want)
    )


def test_psi6_spec_structure():
    theta = 0.7
    spec = w.psi6_spec(theta)
    assert [wd.labels for wd in spec.wires] == [("1", "2", "1p"), ("3", "3p")]
    a = w.a_site(theta)
    assert _same_sites(spec.wires[0].sites, (a, a, w.b_site()))
    assert _same_sites(spec.wires[1].sites, (a, w.b_site_rotated()))
    # the readout sites are distinct: the rotated one is not the plain one
    assert not _same_sites((w.b_site_rotated(),), (w.b_site(),))
    assert spec.couplers == ("4",)
    assert spec.edges == (("2", "4"), ("3", "4"))


def test_contract_resource_size_guard():
    wires_ = tuple(
        w.Wire((w.b_site(),) * 6, tuple(f"{i}{j}" for j in range(6)))
        for i in range(2)
    )
    with pytest.raises(ValueError):
        w.contract_resource(w.ResourceSpec(wires_))


# ---------------------------------------------------------------------------
# Canonical coupling
# ---------------------------------------------------------------------------

def test_canonical_coupling_collapses_to_product_or_flipped():
    cw = CanonicalWire(qm.HAD, pi / 2)
    state = couple_canonical(cw, n_sites=3)

    solo, _ = w.contract_wire(w.Wire(tuple(cw.sites(3)), ("L0", "L1", "L2")))
    solo_r, _ = w.contract_wire(w.Wire(tuple(cw.sites(3)), ("R0", "R1", "R2")))
    product = solo.tensor(solo_r)

    p0, rest0 = state.project("c", "0")
    rest0, _ = rest0.normalized()
    assert abs(p0 - 0.5) < TOL
    assert qm.overlap_modulus(rest0.reorder(product.labels), product) > 1 - TOL

    p1, rest1 = state.project("c", "1")
    rest1, _ = rest1.normalized()
    flipped = product.apply(qm.X, "L1").apply(qm.X, "R1")
    assert abs(p1 - 0.5) < TOL
    assert qm.overlap_modulus(rest1.reorder(product.labels), flipped) > 1 - TOL


# ---------------------------------------------------------------------------
# Shared, read-only named states
# ---------------------------------------------------------------------------

NAMED_BUILDERS = (w.build_psi4, w.build_psi6, w.lambda34)


@pytest.mark.parametrize("builder", NAMED_BUILDERS)
def test_named_states_are_read_only(builder):
    state = builder()
    with pytest.raises(ValueError):
        state.amps[0] = 0
    assert builder() is state


def test_named_states_are_shared_per_float_angle():
    assert w.build_psi4(0.3) is w.build_psi4(np.float64(0.3))


def test_cached_states_equal_a_fresh_build():
    theta = 0.4123  # an angle no other test builds
    psi4, _ = w.contract_wire(w.psi4_wire(theta))
    assert np.array_equal(w.build_psi4(theta).amps, psi4.amps)
    lam, _ = w.contract_wire(w.Wire((w.a_site(theta), w.b_site()), ("3", "4")))
    assert np.array_equal(w.lambda34(theta).amps, lam.amps)
    psi6, _ = w.contract_resource(w.psi6_spec(theta))
    psi6 = psi6.reorder(w.PSI6_LABELS)
    assert np.array_equal(w.build_psi6(theta).amps, psi6.amps)
    assert w.build_psi6(theta).labels == w.PSI6_LABELS


def test_failed_psi4_cross_check_is_not_cached(monkeypatch):
    theta = 0.5183  # an angle no other test builds
    wrong = qm.StateVector(("1", "2", "3", "4"), np.eye(16)[0])
    monkeypatch.setattr(w, "psi4_explicit", lambda th: (wrong, 1.0))
    w._psi4.cache_clear()
    with pytest.raises(AssertionError, match="^operational and literal four-qubit builds disagree$"):
        w.build_psi4(theta)
    monkeypatch.undo()
    state = w.build_psi4(theta)
    literal, _ = w.psi4_explicit(theta)
    assert qm.overlap_modulus(state, literal) > 1 - 1e-12


def test_failed_psi6_cross_check_is_not_cached(monkeypatch):
    theta = 0.5171  # an angle no other test builds
    wrong = qm.StateVector(w.PSI6_LABELS, np.eye(64)[0])
    monkeypatch.setattr(w, "psi6_explicit", lambda th: (wrong, 1.0))
    with pytest.raises(AssertionError):
        w.build_psi6(theta)
    monkeypatch.undo()
    state = w.build_psi6(theta)
    literal, _ = w.psi6_explicit(theta)
    assert qm.overlap_modulus(state, literal) > 1 - 1e-12


@pytest.mark.parametrize("builder", NAMED_BUILDERS)
def test_degenerate_angle_raises_on_every_call(builder):
    for _ in range(2):
        with pytest.raises(ValueError, match="degenerate wire angle"):
            builder(0.0)


@pytest.mark.parametrize("theta", (float("nan"), float("inf"), -float("inf")))
@pytest.mark.parametrize("builder", NAMED_BUILDERS)
def test_non_finite_angle_is_degenerate(builder, theta):
    for _ in range(2):
        with pytest.raises(ValueError, match="^degenerate wire angle: theta must be finite"):
            builder(theta)


def test_dense_engine_limit_is_named():
    assert w.MAX_DENSE_QUBITS == 10
    site = w.b_site()
    too_long = w.Wire((site,) * 11, tuple(str(i) for i in range(11)))
    with pytest.raises(ValueError, match="^wire must have between 1 and 10 sites$"):
        w.contract_wire(too_long)
    wires6 = (w.Wire((site,) * 6, tuple(f"a{i}" for i in range(6))),
              w.Wire((site,) * 5, tuple(f"b{i}" for i in range(5))))
    with pytest.raises(ValueError, match=r"^resource too large \(more than 10 qubits\)$"):
        w.contract_resource(w.ResourceSpec(wires6))


def test_resources_build_no_dense_operator(monkeypatch, capsys):
    def no_embed(*args, **kwargs):
        raise AssertionError("a dense operator was built")

    monkeypatch.setattr(qm, "embed", no_embed)
    w._psi6.cache_clear()
    state = w.build_psi6(0.6)
    literal, _ = w.psi6_explicit(0.6)
    assert qm.overlap_modulus(state, literal) > 1 - 1e-12
    for target in ("psi4", "psi6"):
        prep.methods_pipeline(target, 0.6)
    assert cli.main(["state", "analyze", "--state", "psi6"]) == 0
    assert '"state": "psi6"' in capsys.readouterr().out
