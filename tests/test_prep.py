"""Post-selected optical preparation of the resource states."""

from math import cos, pi, sin, sqrt

import numpy as np
import pytest

from corrspace import prep
from corrspace import qmath as qm
from corrspace.prep import (
    balance_transmissions,
    entangled_pair,
    exchange_labels,
    methods_pipeline,
    pbc_filter,
    pbc_overlap_filter,
    pbs_expand,
    weighting_transmissions,
)
from corrspace.qmath import StateVector
from corrspace.wires import PSI6_LABELS, build_psi4, build_psi6
from helpers import CPHASE_DIAG

TOL = 1e-12

PLUS = np.array([1, 1]) / sqrt(2)
MINUS = np.array([1, -1]) / sqrt(2)


# ---------------------------------------------------------------------------
# Input pair and elementary transforms
# ---------------------------------------------------------------------------

def test_entangled_pair_amplitudes():
    pair = entangled_pair("1", "2")
    assert abs(pair.norm - 1.0) < TOL
    assert np.allclose(pair.amps, np.array([1, 1, 1, -1]) / 2, atol=TOL)


def test_pbc_filter_limits():
    pair = entangled_pair("1", "2")
    st, p = pbc_filter(pair, "2", 1.0, 1.0)
    assert p == 1.0
    assert abs(qm.overlap_modulus(st, pair) - 1.0) < TOL
    st, p = pbc_filter(pair, "2", 1.0, 0.0)
    assert abs(p - 0.5) < TOL
    assert np.allclose(np.abs(st.amps), np.array([1, 0, 1, 0]) / sqrt(2), atol=TOL)


def test_pbc_filter_validation():
    pair = entangled_pair("1", "2")
    with pytest.raises(ValueError):
        pbc_filter(pair, "2", 1.2, 1.0)
    h_state = StateVector.from_kets([("1", "H")])
    with pytest.raises(ValueError):
        pbc_filter(h_state, "1", 0.0, 1.0)  # annihilates the state
    with pytest.raises(ValueError):
        pbc_filter(StateVector(("1",), np.zeros(2)), "1", 1.0, 1.0)
    with pytest.raises(KeyError):
        pbc_filter(pair, "9", 1.0, 1.0)


def test_pbc_overlap_filter_validation():
    pair = entangled_pair("1", "2")
    with pytest.raises(ValueError):
        pbc_overlap_filter(pair, "1", "2", 1.0, -0.1)
    with pytest.raises(ValueError):
        pbc_overlap_filter(pair, "1", "2", 1.5, 1.0)
    hh = StateVector.from_kets([("1", "H"), ("2", "H")])
    with pytest.raises(ValueError):
        pbc_overlap_filter(hh, "1", "2", 0.0, 1.0)  # annihilates the state
    with pytest.raises(KeyError):
        pbc_overlap_filter(pair, "1", "9", 1.0, 1.0)  # unknown partner


def test_pbc_overlap_filter_flips_the_vv_sign():
    # at full transmission the cube is a lossless controlled-Z
    plus2 = StateVector.from_kets([("1", "P"), ("2", "P")])
    st, p = pbc_overlap_filter(plus2, "1", "2", 1.0, 1.0)
    assert p == 1.0
    assert np.allclose(st.amps, np.array([1, 1, 1, -1]) / 2, atol=TOL)
    # with attenuated V the squared amplitude factors average over |++>
    st, p = pbc_overlap_filter(plus2, "1", "2", 1.0, 1.0 / 3.0)
    assert abs(p - (1 + 1 / 3 + 1 / 3 + 1 / 9) / 4) < TOL
    want = np.array([1, sqrt(1 / 3), sqrt(1 / 3), -1 / 3])
    assert np.allclose(st.amps, want / np.linalg.norm(want), atol=TOL)


def test_filter_probability_is_the_norm_ratio():
    # an unnormalized input post-selects with the same probability as its
    # normalized copy, and the output is always renormalized
    pair = entangled_pair("1", "2")
    scaled = StateVector(pair.labels, 3.0 * pair.amps)
    for filt, args in ((pbc_filter, ("2", 1.0, 0.25)),
                       (pbc_overlap_filter, ("1", "2", 0.5, 0.25))):
        st_unit, p_unit = filt(pair, *args)
        st_scaled, p_scaled = filt(scaled, *args)
        assert abs(p_scaled - p_unit) < TOL
        assert abs(st_scaled.norm - 1.0) < TOL
        assert np.allclose(st_scaled.amps, st_unit.amps, atol=TOL)


def test_weighted_pair_intermediate_state():
    # weighting the second photon turns the balanced pair into the
    # cos/sin-weighted two-qubit resource precursor, at probability 2/3
    c, s = cos(pi / 6), sin(pi / 6)
    pair = entangled_pair("1", "2")
    st, p = pbc_filter(pair, "2", 1.0, (s / c) ** 2)
    want = (np.kron([1, 0], [c, s]) + np.kron([0, 1], [c, -s])) / sqrt(2)
    assert np.allclose(st.amps, want, atol=TOL)
    assert abs(p - 2 / 3) < TOL


def test_second_pair_intermediate_state():
    c, s = cos(pi / 6), sin(pi / 6)
    pair = entangled_pair("3", "4")
    st, p = pbc_filter(pair, "3", 1.0, (s / c) ** 2)
    want = c * np.kron([1, 0], PLUS) + s * np.kron([0, 1], MINUS)
    assert np.allclose(st.amps, want, atol=TOL)
    assert abs(p - 2 / 3) < TOL


def test_conditional_phase_diagonal():
    # the overlap cube plus the follow-up filter act on the four basis
    # products as the frozen diagonal (up to the recorded probabilities)
    vals = {}
    for b1 in ("H", "V"):
        for b4 in ("H", "V"):
            inp = StateVector.from_kets([("1", b1), ("4", b4)])
            mid, pa = pbc_overlap_filter(inp, "1", "4", 1.0, 1.0 / 3.0)
            out, pb = pbc_filter(mid, "4", 1.0 / 3.0, 1.0)
            vals[(b1, b4)] = np.vdot(inp.amps, out.amps) * sqrt(pa * pb)
    got = np.array(
        [vals[("H", "H")], vals[("H", "V")], vals[("V", "H")], vals[("V", "V")]]
    )
    assert np.allclose(got, CPHASE_DIAG, atol=TOL)


def test_pbs_expand_is_an_isometry():
    plus = StateVector.from_kets([("q", "P")])
    bell = pbs_expand(plus, "q", "qp")
    assert bell.labels == ("q", "qp")
    assert np.allclose(bell.amps, np.array([1, 0, 0, 1]) / sqrt(2), atol=TOL)
    pair = entangled_pair("1", "2")
    assert abs(pbs_expand(pair, "1", "1p").norm - pair.norm) < TOL
    a = StateVector(("x",), np.array([0.6, 0.8j]))
    b = StateVector(("x",), np.array([1, -1]) / sqrt(2))
    ea, eb = pbs_expand(a, "x", "xp"), pbs_expand(b, "x", "xp")
    assert abs(ea.overlap(eb) - a.overlap(b)) < TOL


def test_pbs_expand_label_errors():
    pair = entangled_pair("1", "2")
    with pytest.raises(ValueError):
        pbs_expand(pair, "1", "2")  # new label already present
    with pytest.raises(KeyError):
        pbs_expand(pair, "9", "9p")


def test_exchange_labels_swaps_names_only():
    pair = entangled_pair("1", "2")
    ex = exchange_labels(pair, "1", "2")
    assert ex.labels == ("2", "1")
    assert np.allclose(ex.amps, pair.amps, atol=TOL)
    assert np.allclose(
        ex.reorder(("1", "2")).amps, pair.reorder(("2", "1")).amps, atol=TOL
    )
    with pytest.raises(KeyError):
        exchange_labels(pair, "1", "7")


# ---------------------------------------------------------------------------
# Transmission designs
# ---------------------------------------------------------------------------

def test_weighting_transmissions():
    c, s = cos(pi / 6), sin(pi / 6)
    assert np.allclose(weighting_transmissions(pi / 6), (1.0, (s / c) ** 2), atol=TOL)
    assert np.allclose(weighting_transmissions(pi / 6), (1.0, 1 / 3), atol=TOL)
    # above the balanced angle the other polarization is attenuated
    assert np.allclose(
        weighting_transmissions(1.0), ((cos(1) / sin(1)) ** 2, 1.0), atol=TOL
    )
    with pytest.raises(ValueError):
        weighting_transmissions(0.0)


def test_balance_transmissions():
    t = balance_transmissions(pi / 6)
    assert np.allclose(t, (1.0, 1.0), atol=1e-14)
    th, tv = balance_transmissions(0.4)
    assert max(th, tv) == 1.0 and 0 < min(th, tv) <= 1.0
    with pytest.raises(ValueError):
        balance_transmissions(0.0)


# ---------------------------------------------------------------------------
# End-to-end preparation
# ---------------------------------------------------------------------------

def test_four_qubit_preparation():
    st, prob = methods_pipeline("psi4", pi / 6)
    assert abs(qm.overlap_modulus(st, build_psi4(pi / 6)) - 1.0) < TOL
    assert abs(prob - 8 / 81) < TOL


def test_six_qubit_preparation():
    st, prob = methods_pipeline("psi6", pi / 6)
    assert abs(qm.overlap_modulus(st, build_psi6(pi / 6)) - 1.0) < TOL
    assert st.labels == PSI6_LABELS
    # the path expansions are probability-free, so both targets cost the same
    assert abs(prob - 8 / 81) < TOL


def test_preparation_probability_is_the_raw_contraction_norm():
    state0 = entangled_pair("1", "2").tensor(entangled_pair("3", "4"))
    t_h, t_v = weighting_transmissions(pi / 6)
    b_h, b_v = balance_transmissions(pi / 6)
    # (qubits, t_h, t_v) of the four single-photon filters and the overlap cube
    filters = [
        (("2",), t_h, t_v),
        (("3",), t_h, t_v),
        (("1", "4"), 1.0, 1.0 / 3.0),
        (("4",), 1.0 / 3.0, 1.0),
        (("1",), b_h, b_v),
    ]
    _, prob = methods_pipeline("psi4", pi / 6)
    acc = state0
    for qubits, th, tv in filters:
        sh, sv = sqrt(th), sqrt(tv)
        if len(qubits) == 1:
            acc = acc.apply(np.diag([sh, sv]).astype(complex), qubits[0])
        else:
            op = np.diag([sh * sh, sh * sv, sv * sh, -sv * sv]).astype(complex)
            acc = acc.apply(op, *qubits)
    assert abs(prob - acc.norm**2) < TOL


def test_psi6_preparation_costs_what_psi4_costs():
    # the reroute and the two expansions are lossless: psi6 post-selects
    # with exactly the probability of the psi4 filters it starts from
    for theta in (0.3, pi / 6, 1.2):
        _, p4 = methods_pipeline("psi4", theta)
        s6, p6 = methods_pipeline("psi6", theta)
        assert p6 == p4
        assert s6.labels == PSI6_LABELS


def test_methods_pipeline_rejects_an_unknown_target():
    with pytest.raises(ValueError):
        methods_pipeline("psi8", pi / 6)


def test_preparation_generalizes_over_theta():
    for theta in (0.2, 0.5, pi / 4, 1.0, 1.3):
        s4, p4 = methods_pipeline("psi4", theta)
        s6, p6 = methods_pipeline("psi6", theta)
        assert abs(qm.overlap_modulus(s4, build_psi4(theta)) - 1.0) < 1e-10
        assert abs(qm.overlap_modulus(s6, build_psi6(theta)) - 1.0) < 1e-10
        assert 0.0 < p4 <= 1.0 and 0.0 < p6 <= 1.0


def test_corrupted_pipeline_output_raises_invariant_violation(monkeypatch):
    monkeypatch.setattr(prep, "weighting_transmissions", lambda theta: (1.0, 1.0))  # no weighting
    for target in ("psi4", "psi6"):
        with pytest.raises(qm.InvariantViolation) as err:
            methods_pipeline(target, pi / 6)
        exc = err.value
        assert exc.check == "optical pipeline" and exc.bound == 1e-10
        assert np.isfinite(exc.residual) and exc.residual > exc.bound
        assert str(exc) == "optical pipeline output does not match the builder"


def test_pipeline_check_fails_on_a_nan_overlap(monkeypatch):
    build_psi4(0.5)  # the builder's own check runs before the overlap turns NaN
    monkeypatch.setattr(qm, "overlap_modulus", lambda a, b: float("nan"))
    with pytest.raises(AssertionError, match="^optical pipeline output does not match the builder$") as err:
        methods_pipeline("psi4", 0.5)
    assert err.value.check == "optical pipeline" and np.isnan(err.value.residual)
