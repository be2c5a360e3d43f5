"""Correlations, entropies, and the 36-setting fidelity decomposition."""

import collections
import itertools
import json
from math import cos, pi, sin, sqrt

import numpy as np
import pytest

from corrspace import analysis, qmath as qm
from corrspace.analysis import (
    TABULATED_SETTINGS,
    WITNESS_ORDER,
    PauliWord,
    assemble_witness,
    counts_to_cells,
    exact_setting_cells,
    fidelity_from_settings,
    linear_entropies,
    q_max,
    two_point_correlation,
    witness_terms,
)
from corrspace.cli import dumps15, report_payload
from corrspace.noise_tomo import setting_kets, simulate_counts, white_noise
from corrspace.wires import build_psi4, build_psi6, lambda34

from helpers import dense_pauli_expectation, kron_word_matrix, parity_loop_fidelity

TOL = 1e-12

PSI4 = build_psi4()
PSI6 = build_psi6()


# ---------------------------------------------------------------------------
# Two-point correlations
# ---------------------------------------------------------------------------

def test_resource_correlations_closed_values():
    assert abs(two_point_correlation(PSI4, "1", "3", "X", "X") - 0.375) < TOL
    assert abs(two_point_correlation(PSI6, "2", "4", "X", "Z") - sqrt(3) / 4) < TOL
    assert abs(two_point_correlation(PSI6, "3", "4", "Z", "X") - 0.375) < TOL


def test_correlation_is_symmetric_under_argument_swap():
    assert (
        abs(
            two_point_correlation(PSI6, "2", "4", "X", "Z")
            - two_point_correlation(PSI6, "4", "2", "Z", "X")
        )
        < TOL
    )


def test_qmax_extremes():
    # balanced-angle resource: qubits 1 and 3 are completely uncorrelated
    assert q_max(build_psi4(pi / 4), "1", "3") < TOL
    assert q_max(PSI4, "1", "3") >= 0.375 - TOL
    bell = qm.StateVector(("a", "b"), np.array([1, 0, 0, 1]) / sqrt(2))
    assert abs(q_max(bell, "a", "b") - 1.0) < TOL
    prod = qm.StateVector(("a", "b"), np.kron(qm.ket("+"), qm.ket("0")))
    assert q_max(prod, "a", "b") < TOL


def test_correlation_works_on_density_matrices():
    rho = PSI4.to_density()
    assert (
        abs(
            two_point_correlation(rho, "1", "3", "X", "X")
            - two_point_correlation(PSI4, "1", "3", "X", "X")
        )
        < TOL
    )


def test_correlation_argument_validation():
    with pytest.raises(ValueError):
        two_point_correlation(PSI4, "1", "1", "X", "X")
    with pytest.raises(ValueError):
        two_point_correlation(PSI4, "1", "3", "Q", "X")
    with pytest.raises(ValueError):
        q_max(PSI4, "3", "3")
    with pytest.raises(KeyError, match="unknown qubit label"):
        q_max(PSI4, "1", "9")


def _same_bits(a: float, b: float) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def _check_pair_expectations(state):
    """Each of the 15 stacked values of every ordered qubit pair against the
    dense operator: X, Y, Z on i, then on j, then the nine pairs a_i b_j."""
    for i, j in itertools.permutations(state.labels, 2):
        words = ([{i: a} for a in "XYZ"] + [{j: b} for b in "XYZ"]
                 + [{i: a, j: b} for a in "XYZ" for b in "XYZ"])
        got = analysis._pair_expectations(state, i, j)
        assert len(got) == 15 and all(type(value) is float for value in got)
        for value, assignments in zip(got, words, strict=True):
            assert _same_bits(value, dense_pauli_expectation(state, assignments))


@pytest.mark.parametrize("theta", [pi / 8, pi / 6, 0.3, 1.2])
def test_pauli_expectations_have_the_dense_bits(theta):
    for build in (build_psi4, lambda34, build_psi6):
        pure = build(theta)
        for state in (pure, white_noise(pure, 0.9), white_noise(pure, 0.5)):
            _check_pair_expectations(state)


def test_pauli_expectations_keep_the_dense_zero_signs(rng):
    # entries of +-0, exact values and mixed signs: a zero result must come
    # out with the sign the dense product gives it
    values = [0.0, -0.0, 0.5, -0.5, 0.25, -1.0]
    for n in (2, 3, 4):
        labels = tuple("abcd"[:n])
        d = 2**n
        for _ in range(20):
            amps = [complex(*rng.choice(values, 2)) for _ in range(d)]
            mat = [[complex(*rng.choice(values, 2)) for _ in range(d)] for _ in range(d)]
            for state in (qm.StateVector(labels, amps), qm.DensityMatrix(labels, mat)):
                _check_pair_expectations(state)


def test_linear_entropies_build_a_pure_states_density_matrix_once(monkeypatch):
    calls = []
    real = qm.StateVector.to_density
    monkeypatch.setattr(qm.StateVector, "to_density",
                        lambda self: calls.append(self.labels) or real(self))
    for build in (build_psi4, build_psi6):
        pure = build()
        calls.clear()
        got = linear_entropies(pure)
        assert calls == [pure.labels]
        want = {q: qm.linear_entropy(qm.partial_trace(real(pure), (q,))) for q in pure.labels}
        assert got == want  # the bits of a conversion per qubit


def test_q_max_is_the_largest_correlation_bit_for_bit():
    for theta in (pi / 8, pi / 6, pi / 5, pi / 4, 1.2):
        pure = build_psi4(theta)
        for state in (pure, white_noise(pure, 0.9), white_noise(pure, 0.5)):
            for i, j in (("1", "3"), ("4", "2")):
                want = max(
                    abs(two_point_correlation(state, i, j, a, b))
                    for a in "XYZ"
                    for b in "XYZ"
                )
                assert _same_bits(q_max(state, i, j), want)


def test_correlations_build_no_dense_operator(monkeypatch):
    def no_embed(*args, **kwargs):
        raise AssertionError("a dense operator was built")

    monkeypatch.setattr(qm, "embed", no_embed)
    for state in (PSI4, white_noise(PSI4, 0.9)):
        two_point_correlation(state, "1", "3", "X", "Y")
        q_max(state, "1", "3")


# ---------------------------------------------------------------------------
# Linear entropies
# ---------------------------------------------------------------------------

def test_four_qubit_entropy_profile():
    want = {"1": 0.75, "2": 0.5625, "3": 0.75, "4": 0.9375}
    got = linear_entropies(PSI4)
    assert got.keys() == want.keys()
    for k, v in want.items():
        assert abs(got[k] - v) < TOL


def test_six_qubit_entropy_profile():
    got = linear_entropies(PSI6)
    for label in ("1", "2", "1p", "3", "3p"):
        assert abs(got[label] - 0.75) < TOL
    assert abs(got["4"] - 0.9375) < TOL


def test_entropy_extremes():
    bell = qm.StateVector(("a", "b"), np.array([1, 0, 0, 1]) / sqrt(2))
    assert all(abs(v - 1.0) < TOL for v in linear_entropies(bell).values())
    prod = qm.StateVector(("a", "b"), np.kron(qm.ket("+"), qm.ket("1")))
    assert all(v < TOL for v in linear_entropies(prod).values())


# ---------------------------------------------------------------------------
# Setting table
# ---------------------------------------------------------------------------

def test_setting_table_contents():
    assert len(TABULATED_SETTINGS) == 36
    assert TABULATED_SETTINGS[0] == "ZZZZZZ"
    assert TABULATED_SETTINGS[18] == "XZZZZZ"
    assert TABULATED_SETTINGS[23] == "XYZXYX"
    for entry in TABULATED_SETTINGS:
        assert len(entry) == len(WITNESS_ORDER) and set(entry) <= set("XYZ")


# ---------------------------------------------------------------------------
# Witness decomposition: structure
# ---------------------------------------------------------------------------

def test_terms_are_hermitian_and_diagonal_in_their_setting():
    for t in witness_terms():
        m = t.matrix()
        assert np.max(np.abs(m - m.conj().T)) < TOL
        kets = setting_kets(t.setting)
        rotated = kets.conj() @ m @ kets.T
        off = rotated - np.diag(np.diag(rotated))
        assert np.max(np.abs(off)) < TOL


def test_first_term_against_independent_kron_build():
    c, s = cos(pi / 6), sin(pi / 6)
    p00, p11 = np.diag([1.0, 0]), np.diag([0, 1.0])
    pair = c * c * np.kron(p00, p00) + s * s * np.kron(p11, p11)
    single = c * c * p00 + s * s * p11
    m1 = np.kron(np.eye(2), np.kron(pair, np.kron(single, pair)))
    terms = witness_terms()
    assert np.max(np.abs(terms[0].matrix() - m1)) < TOL
    rep = assemble_witness()
    want = PSI6.reorder(WITNESS_ORDER).expectation(m1)
    assert abs(want - rep.term_expectations[0]) < TOL


@pytest.mark.parametrize("theta", [pi / 6, pi / 5, 0.3])
@pytest.mark.parametrize("corrected", [False, True])
def test_term_matrices_equal_kron_products_exactly(theta, corrected):
    for t in witness_terms(theta, corrected):
        for w in t.words:
            assert np.array_equal(w.matrix(), kron_word_matrix(w))
        assert np.array_equal(t.matrix(), sum(kron_word_matrix(w) for w in t.words))


def test_two_qubit_word_matrices_equal_kron_products_exactly():
    for a in "IXYZ":
        for b in "IXYZ":
            w = PauliWord(("a", "b"), (a, b), 0.3 - 0.7j)
            assert np.array_equal(w.matrix(), kron_word_matrix(w))


@pytest.mark.parametrize("corrected", [False, True])
def test_assembled_witness_equals_kron_sum_exactly(corrected):
    theta = 0.3
    terms = witness_terms(theta, corrected)
    mats = [sum(kron_word_matrix(w) for w in t.words) for t in terms]
    total = sum(mats)
    if corrected:
        total = total / 2.0
    rep = assemble_witness(theta, corrected)
    assert np.array_equal(rep.total, total)
    psi = build_psi6(theta).reorder(WITNESS_ORDER)
    assert rep.term_expectations == tuple(psi.expectation(m) for m in mats)


def test_pauli_word_validation():
    w = PauliWord(("a", "b"), ("X", "I"), 2.0)
    assert np.allclose(w.matrix(), 2.0 * np.kron(qm.X, qm.I2), atol=TOL)
    with pytest.raises(ValueError):
        PauliWord(("a",), ("X", "Z"), 1.0)
    with pytest.raises(ValueError):
        PauliWord(("a",), ("Q",), 1.0)
    with pytest.raises(ValueError):
        PauliWord(("a",), ("X",), float("nan"))


# ---------------------------------------------------------------------------
# Witness decomposition: literal-variant audit
# ---------------------------------------------------------------------------

def test_literal_sum_residual_is_the_frozen_value():
    rep = assemble_witness()
    pin = 9 * sqrt(3) / 64
    assert abs(rep.residual_maxabs - pin) < TOL
    # the same max-entry deviation holds against twice the projector, i.e.
    # the bulk of the sum is 2x the target and the defects supply the rest
    psi = PSI6.reorder(WITNESS_ORDER).amps
    proj = np.outer(psi, psi.conj())
    assert abs(np.max(np.abs(rep.total - 2 * proj)) - pin) < TOL


def test_literal_scalar_pins():
    rep = assemble_witness()
    assert abs(sum(rep.term_expectations) - 853 / 512) < TOL
    assert abs(rep.best_scale - 853 / 2048) < TOL
    assert not rep.corrected


def test_literal_setting_bookkeeping():
    rep = assemble_witness()
    assert len(rep.derived_settings) == 36
    assert rep.unmatched_tabulated == ("XYZXYX",)
    assert rep.unmatched_terms == (34,)
    assert rep.derived_settings[33] == "XYXXYX"


# ---------------------------------------------------------------------------
# Witness decomposition: corrected variant
# ---------------------------------------------------------------------------

def test_corrected_sum_is_the_projector():
    rep = assemble_witness(corrected=True)
    assert rep.corrected
    assert rep.residual_maxabs < TOL
    assert rep.residual_opnorm < 1e-11
    assert abs(np.trace(rep.total).real - 1.0) < TOL
    assert abs(rep.best_scale - 1.0) < TOL
    assert abs(sum(rep.term_expectations) - 2.0) < TOL  # before the 1/2
    assert rep.unmatched_terms == (34,)  # letter pattern is unchanged


def test_report_json_shape():
    d = json.loads(dumps15(report_payload(assemble_witness(corrected=True))))
    assert d["corrected"] is True
    assert len(d["term_expectations"]) == 36
    assert d["terms_without_tabulated_setting"] == [34]
    assert d["unmatched_tabulated_settings"] == ["XYZXYX"]


# ---------------------------------------------------------------------------
# Fidelity assembled from per-setting cells
# ---------------------------------------------------------------------------

def test_exact_cells_are_probability_rows():
    cells = exact_setting_cells(PSI6)
    assert set(cells) == set(t.setting for t in witness_terms())
    for row in cells.values():
        assert row.shape == (64,)
        assert np.all(row >= 0)
        assert abs(row.sum() - 1.0) < TOL


def test_fidelity_of_the_target_state():
    cells = exact_setting_cells(PSI6)
    assert abs(fidelity_from_settings(cells, corrected=True) - 1.0) < TOL
    assert abs(fidelity_from_settings(cells) - 853 / 512) < TOL


def test_raw_fidelity_identity_on_random_states(rng):
    # for any rho: assembled raw value = <psi|rho|psi> + Tr(Delta rho)
    rep = assemble_witness()
    psi = PSI6.reorder(WITNESS_ORDER).amps
    proj = np.outer(psi, psi.conj())
    delta = rep.total - proj
    for _ in range(3):
        v = rng.normal(size=64) + 1j * rng.normal(size=64)
        v /= np.linalg.norm(v)
        rho = qm.DensityMatrix(WITNESS_ORDER, np.outer(v, v.conj()))
        lhs = fidelity_from_settings(exact_setting_cells(rho))
        rhs = float(np.real(v.conj() @ proj @ v + np.trace(delta @ rho.mat)))
        assert abs(lhs - rhs) < TOL


def test_corrected_fidelity_of_white_noise_mixture():
    for weight in (1.0, 0.8, 0.5, 0.1):
        rho = white_noise(PSI6, weight=weight)
        got = fidelity_from_settings(exact_setting_cells(rho), corrected=True)
        assert abs(got - (weight + (1 - weight) / 64)) < TOL


def test_fidelity_is_linear_in_the_state(rng):
    states = []
    for _ in range(2):
        v = rng.normal(size=64) + 1j * rng.normal(size=64)
        v /= np.linalg.norm(v)
        states.append(qm.DensityMatrix(WITNESS_ORDER, np.outer(v, v.conj())))
    lam = 0.3
    mix = qm.DensityMatrix(
        WITNESS_ORDER, lam * states[0].mat + (1 - lam) * states[1].mat
    )
    f = [fidelity_from_settings(exact_setting_cells(s)) for s in states]
    fm = fidelity_from_settings(exact_setting_cells(mix))
    assert abs(fm - (lam * f[0] + (1 - lam) * f[1])) < TOL


def test_sampled_counts_reproduce_the_mixture_fidelity():
    rho = white_noise(PSI6, weight=0.712)
    settings = tuple(sorted({t.setting for t in witness_terms()}))
    table = simulate_counts(
        rho.reorder(WITNESS_ORDER), settings, shots=200_000, seed=42
    )
    got = fidelity_from_settings(counts_to_cells(table), corrected=True)
    assert abs(got - (0.712 + (1 - 0.712) / 64)) < 0.01


@pytest.mark.parametrize("theta", [pi / 6, 0.3, pi / 8])
@pytest.mark.parametrize("corrected", [False, True])
def test_fidelity_equals_parity_loop_reference_exactly(rng, theta, corrected):
    terms = witness_terms(theta, corrected)
    for _ in range(2):  # the second estimate reads a warm parity table
        cells = {}
        for s in sorted({t.setting for t in terms}):
            row = rng.random(64)
            cells[s] = row / row.sum()
        got = fidelity_from_settings(cells, theta=theta, corrected=corrected)
        assert got == parity_loop_fidelity(cells, terms, corrected)


@pytest.mark.parametrize("theta", [pi / 6, 0.3])
@pytest.mark.parametrize("fidelity", [0.3, 0.73, 1.0])
def test_fidelity_of_white_noise_cells_equals_parity_loop_exactly(theta, fidelity):
    rho = white_noise(build_psi6(theta), fidelity)
    settings = tuple(sorted({t.setting for t in witness_terms(theta)}))
    table = simulate_counts(rho.reorder(WITNESS_ORDER), settings, shots=2000, seed=5)
    for cells in (exact_setting_cells(rho), counts_to_cells(table)):
        for corrected in (False, True):
            terms = witness_terms(theta, corrected)
            got = fidelity_from_settings(cells, theta=theta, corrected=corrected)
            assert got == parity_loop_fidelity(cells, terms, corrected)


def test_fidelity_of_zero_cells_is_positive_zero():
    # zero parity sums of either sign add up to +0.0, as a scalar loop's do
    settings = {t.setting for t in witness_terms()}
    for zero in (0.0, -0.0):
        cells = {s: np.full(64, zero) for s in settings}
        for corrected in (False, True):
            got = fidelity_from_settings(cells, corrected=corrected)
            assert got == 0.0 and np.copysign(1.0, got) == 1.0


def test_cell_input_validation():
    cells = exact_setting_cells(PSI6)
    fidelity_from_settings(cells)  # the checks must run on a warm parity table
    partial = {k: v for k, v in cells.items() if k != "ZZZZZZ"}
    with pytest.raises(KeyError, match="missing setting ZZZZZZ"):
        fidelity_from_settings(partial)
    # a mapping that makes up missing values still lacks the setting
    made_up = collections.defaultdict(lambda: np.ones(64) / 64, partial)
    with pytest.raises(KeyError, match="missing setting ZZZZZZ"):
        fidelity_from_settings(made_up)
    assert "ZZZZZZ" not in made_up
    order = [t.setting for t in witness_terms()]
    bad_rows = [
        {"ZZZZZZ": np.ones(16) / 16},
        {"ZZZZZZ": np.ones(63) / 63},
        {"ZZZZZZ": np.ones((64, 1)) / 64},
        {order[-1]: np.ones(63) / 63, order[5]: np.ones(65) / 65},  # ragged rows
        {s: np.ones(63) / 63 for s in cells},  # every row short, none ragged
        {s: np.ones((64, 1)) / 64 for s in cells},
    ]
    for replaced in bad_rows:
        first = min(replaced, key=order.index)
        with pytest.raises(ValueError, match=f"^setting {first}: expected 64 cells$"):
            fidelity_from_settings({**cells, **replaced})


@pytest.mark.parametrize("theta", (0.0, pi / 2, float("nan")))
def test_degenerate_theta_is_a_typed_error(theta):
    cells = exact_setting_cells(PSI6)
    for _ in range(2):  # nothing about a degenerate angle is cached
        with pytest.raises(ValueError, match="degenerate wire angle"):
            witness_terms(theta)
        with pytest.raises(ValueError, match="degenerate wire angle"):
            fidelity_from_settings(cells, theta=theta, corrected=True)


def test_counts_to_cells_requires_witness_register():
    table = simulate_counts(PSI4, ("ZZZZ",), shots=10, seed=1)
    with pytest.raises(ValueError):
        counts_to_cells(table)


@pytest.mark.parametrize("corrected", (False, True))
def test_cached_witness_terms_equal_fresh_expansion(corrected):
    for theta in (pi / 6, 0.3):
        fresh = tuple(
            analysis._expand_term(i + 1, coeff, blocks)
            for i, (coeff, blocks) in enumerate(analysis._term_specs(theta, corrected))
        )
        cached = witness_terms(theta, corrected)
        assert cached == fresh
        assert witness_terms(np.float64(theta), corrected) is cached


@pytest.mark.parametrize("corrected", (False, True))
def test_assembled_witness_is_shared_and_read_only(corrected):
    rep = assemble_witness(0.3, corrected)
    assert assemble_witness(np.float64(0.3), corrected) is rep
    assert assemble_witness(0.3, not corrected) is not rep
    with pytest.raises(ValueError):
        rep.total[0, 0] = 0.0


def test_cached_witness_builds_no_term_matrix(monkeypatch):
    calls = []
    scatter = analysis._scatter_words

    def counting_scatter(words):
        calls.append(len(words))
        return scatter(words)

    monkeypatch.setattr(analysis, "_scatter_words", counting_scatter)
    analysis._assemble_witness.cache_clear()
    first = assemble_witness(pi / 6, True)
    assert len(calls) == 36
    assert assemble_witness(pi / 6, True) is first
    assert len(calls) == 36
