"""White-noise models, synthetic counts, and ML tomography."""

import hashlib
import json
import re

import numpy as np
import pytest

from corrspace import analysis, noise_tomo
from corrspace import qmath as qm
from corrspace.cli import counts_payload, counts_rows, counts_table, dumps15, fit_payload
from corrspace.noise_tomo import (
    CountsTable,
    ReconstructionResult,
    exact_probabilities,
    ml_reconstruct,
    monte_carlo_error,
    product_settings,
    setting_kets,
    simulate_counts,
    white_noise,
)
from corrspace.wires import build_psi4, build_psi6, lambda34
from helpers import (
    bisection_density_projection,
    cumsum_density_projection,
    dense_cell_kets,
    dense_log_likelihood,
    dense_ml_fit,
    dense_probs,
    dense_r_operator,
    einsum_probabilities,
    full_projector_probs,
    per_row_counts,
    rand_density,
    svd_rank_complete,
)

TOL = 1e-12


# ---------------------------------------------------------------------------
# White-noise mixtures
# ---------------------------------------------------------------------------

def test_white_noise_by_fidelity_target():
    pure = lambda34()
    rho = white_noise(pure, 0.90)
    assert abs(rho.trace - 1.0) < TOL
    assert abs(qm.fidelity(rho, pure) - 0.90) < TOL
    w = (4 * 0.90 - 1) / 3
    direct = w * pure.to_density().mat + (1 - w) * np.eye(4) / 4
    assert np.allclose(rho.mat, direct, atol=1e-14)


def test_white_noise_by_weight():
    pure = lambda34()
    rho = white_noise(pure, weight=0.5)
    direct = 0.5 * pure.to_density().mat + 0.5 * np.eye(4) / 4
    assert np.allclose(rho.mat, direct, atol=1e-14)


def test_white_noise_limits_and_validation():
    pure = lambda34()
    assert np.allclose(white_noise(pure, 1.0).mat, pure.to_density().mat, atol=1e-14)
    assert np.allclose(white_noise(pure, weight=0.0).mat, np.eye(4) / 4, atol=1e-14)
    with pytest.raises(ValueError):
        white_noise(pure, 0.25)  # at the mixed floor
    with pytest.raises(ValueError):
        white_noise(pure, 0.9, weight=0.9)
    with pytest.raises(ValueError):
        white_noise(pure)
    with pytest.raises(ValueError):
        white_noise(pure, weight=1.5)


def _white_noise_states():
    """lambda34, psi4, psi6, a basis state for each n = 1..6 and a state for
    each n with negative and exact-zero real and imaginary parts."""
    rng = np.random.default_rng(34)
    yield lambda34()
    yield build_psi4()
    yield build_psi6()
    for n in range(1, 7):
        labels = tuple(str(k + 1) for k in range(n))
        basis = np.zeros(2**n)
        basis[rng.integers(2**n)] = 1.0
        yield qm.StateVector(labels, basis)
        amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        amps.real[::3] = 0.0
        amps.imag[1::3] = -0.0
        amps[0] = 1.0
        yield qm.StateVector(labels, amps)


def test_white_noise_has_the_bytes_of_the_mixture_expression():
    for state in _white_noise_states():
        psi, _ = state.normalized()
        dim = 2**state.n_qubits
        outer = np.outer(psi.amps, np.conj(psi.amps))
        cases = [(w, {"weight": w}) for w in (0.0, 0.3, 0.712, 1.0)]
        cases += [((dim * f - 1.0) / (dim - 1.0), {"fidelity_target": f}) for f in (0.73, 0.9, 1.0)]
        for w, kwargs in cases:
            want = w * outer + (1.0 - w) * np.eye(dim) / dim
            got = white_noise(state, **kwargs)
            assert got.labels == state.labels
            assert got.mat.tobytes() == want.tobytes(), (state.labels, kwargs)


# ---------------------------------------------------------------------------
# Settings and outcome kets
# ---------------------------------------------------------------------------

def test_product_settings_grid():
    assert len(product_settings(4)) == 81
    assert len(product_settings(2)) == 9
    assert product_settings(2)[0] == "ZZ"


def test_setting_kets_orthonormal_and_complete():
    for s in ("ZX", "YY", "XZ"):
        kets = setting_kets(s)
        assert np.allclose(kets @ kets.conj().T, np.eye(4), atol=TOL)
        comp = sum(np.outer(k, k.conj()) for k in kets)
        assert np.allclose(comp, np.eye(4), atol=TOL)


def test_setting_kets_bit_convention():
    # cell bits are MSB-first in the setting string: cell 1 of "ZX" is
    # (Z outcome 0) x (X outcome 1) = |0> x |->
    kets = setting_kets("ZX")
    plus = np.array([1, 1]) / np.sqrt(2)
    minus = np.array([1, -1]) / np.sqrt(2)
    assert np.allclose(kets[1], np.kron(np.array([1, 0]), minus), atol=TOL)
    assert np.allclose(kets[2], np.kron(np.array([0, 1]), plus), atol=TOL)


def test_exact_probabilities_rows_normalized():
    p = exact_probabilities(build_psi4(), product_settings(4))
    assert p.shape == (81, 16)
    assert np.allclose(p.sum(axis=1), 1.0, atol=TOL)
    assert np.all(p >= 0)
    # pure-state and density-matrix inputs give the same bits
    p2 = exact_probabilities(build_psi4().to_density(), product_settings(4))
    assert np.array_equal(p, p2)


def _born_cases():
    """(state, settings): psi4 and lambda34 on their full grids, pure and
    noisy, and psi6 on the witness settings of both decompositions."""
    for state in (build_psi4(), lambda34()):
        settings = product_settings(state.n_qubits)
        yield state, settings
        yield white_noise(state, 0.73), settings
    for theta in (np.pi / 6, 0.3):
        psi6 = build_psi6(theta).reorder(analysis.WITNESS_ORDER)
        for corrected in (False, True):
            settings = sorted({t.setting for t in analysis.witness_terms(theta, corrected)})
            yield psi6, settings
            yield white_noise(psi6, 0.73), settings


def test_exact_probabilities_match_einsum_reference():
    for state, settings in _born_cases():
        p = exact_probabilities(state, settings)
        if isinstance(state, qm.StateVector):
            state = state.to_density()
            assert np.array_equal(p, exact_probabilities(state, settings))
        assert np.abs(p - einsum_probabilities(state, settings)).max() <= 1e-15


@pytest.mark.parametrize("n", range(1, 7))
def test_exact_probabilities_match_einsum_reference_on_random_states(n):
    rng = np.random.default_rng(120 + n)
    rho = rand_density(tuple("abcdef"[:n]), rng)
    grid = product_settings(n)
    subset = tuple(rng.choice(grid, size=min(len(grid), 7), replace=False))
    settings = subset + subset[:2] + subset[:1]  # repeated settings
    p = exact_probabilities(rho, settings)
    assert p.shape == (len(settings), 2**n)
    assert np.abs(p - einsum_probabilities(rho, settings)).max() <= 1e-15
    assert np.array_equal(p[-1], p[0])


def _row_subset_and_full_cells(rho, settings):
    """Unclipped cells from the settings' projector rows, and the same cells
    read from all 6^n projector probabilities."""
    n = rho.n_qubits
    head, tail, cells = noise_tomo._setting_rows(tuple(settings), n)
    subset = noise_tomo._projector_probs(rho.mat, head, tail)[cells]
    full = full_projector_probs(rho.mat, n)[noise_tomo._setting_cells(tuple(settings), n)]
    return subset, full


@pytest.mark.parametrize("theta", (np.pi / 6, 0.3, np.pi / 8))
def test_witness_cells_from_row_subsets_have_the_full_grid_bits(theta):
    psi6 = build_psi6(theta).reorder(analysis.WITNESS_ORDER)
    for corrected in (False, True):
        settings = sorted({t.setting for t in analysis.witness_terms(theta, corrected)})
        head, tail, _ = noise_tomo._setting_rows(tuple(settings), 6)
        assert len(head) < 216 and len(tail) < 216
        for rho in (psi6.to_density(), white_noise(psi6, 0.73)):
            subset, full = _row_subset_and_full_cells(rho, settings)
            assert np.array_equal(subset, full)


@pytest.mark.parametrize("n", range(1, 7))
def test_full_grid_cells_from_row_subsets_have_the_full_grid_bits(n):
    rho = rand_density(tuple("abcdef"[:n]), np.random.default_rng(130 + n))
    head, tail, _ = noise_tomo._setting_rows(product_settings(n), n)
    h, t = noise_tomo._halves(n)
    assert (len(head), len(tail)) == (6**h, 6**t)  # every row is used
    subset, full = _row_subset_and_full_cells(rho, product_settings(n))
    assert np.array_equal(subset, full)


@pytest.mark.parametrize("n", range(1, 7))
def test_random_setting_subsets_match_the_full_grid_cells(n):
    # Not bit for bit: BLAS multiplies small matrices with kernels chosen by
    # their shape, so a product with fewer rows may round differently (seen
    # as 1 ulp, at most 5.6e-17, on a few random subsets at n <= 3).
    rng = np.random.default_rng(140 + n)
    grid = product_settings(n)
    for _ in range(5):
        rho = rand_density(tuple("abcdef"[:n]), rng)
        subset = list(rng.choice(grid, size=min(len(grid), 6), replace=False))
        settings = subset + subset[::-2]  # unsorted, with repeats
        got, full = _row_subset_and_full_cells(rho, settings)
        np.testing.assert_allclose(got, full, rtol=0, atol=1e-15)


def test_born_path_and_fit_run_no_rank_check(monkeypatch):
    def no_rank(*args, **kwargs):
        raise AssertionError("matrix_rank called")

    monkeypatch.setattr(np.linalg, "matrix_rank", no_rank)
    noise_tomo._setting_cells.cache_clear()
    noise_tomo._setting_rows.cache_clear()
    exact_probabilities(build_psi4(), product_settings(4))
    table = simulate_counts(lambda34(), ("ZX", "YY"), shots=10, seed=1)
    ml_reconstruct(table, max_iters=5)


def test_exact_probabilities_reject_wrong_setting_length():
    with pytest.raises(ValueError, match="setting 'ZZZ' has 3 letters; the register has 4"):
        exact_probabilities(build_psi4(), ("ZZZZ", "ZZZ"))
    with pytest.raises(ValueError, match="setting 'XZ' has 2 letters; the register has 1"):
        exact_probabilities(qm.StateVector(("a",), np.array([1, 0])), ("XZ",))


def test_exact_probabilities_reject_unknown_letter():
    with pytest.raises(ValueError, match="unknown Pauli letter"):
        exact_probabilities(lambda34(), ("ZZ", "IZ"))


def test_exact_probabilities_reject_a_bare_string(monkeypatch):
    # "ZX" would read as the settings ("Z", "X") of a one-qubit register
    def converted(self):
        raise AssertionError("the state was converted before the settings were checked")

    monkeypatch.setattr(qm.StateVector, "to_density", converted)
    with pytest.raises(ValueError, match="settings must be a list of strings, got 'ZX'"):
        exact_probabilities(qm.StateVector(("a",), np.array([1, 0])), "ZX")


def test_exact_probabilities_of_no_settings():
    assert exact_probabilities(build_psi4(), ()).shape == (0, 16)
    assert exact_probabilities(lambda34().to_density(), []).shape == (0, 4)


# ---------------------------------------------------------------------------
# Synthetic counts
# ---------------------------------------------------------------------------

def test_deterministic_state_gives_deterministic_counts():
    h = qm.StateVector(("a",), np.array([1, 0], dtype=complex))
    table = simulate_counts(h, ("Z",), shots=1000, seed=1)
    assert tuple(table.counts[0]) == (1000, 0)


def test_simulate_counts_rejects_a_bare_string():
    rng = np.random.default_rng(3)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match="settings must be a list of strings, got 'ZXY'"):
        simulate_counts(qm.StateVector(("a",), np.array([1, 0])), "ZXY", rng=rng)
    assert rng.bit_generator.state == before  # nothing was drawn


def test_multinomial_rows_sum_to_shots():
    table = simulate_counts(lambda34(), shots=500, seed=2)
    assert table.settings == product_settings(2)  # default full grid
    assert np.all(table.counts.sum(axis=1) == 500)
    assert table.mode == "multinomial"


def test_counts_seed_determinism():
    a = simulate_counts(lambda34(), shots=1000, seed=9)
    b = simulate_counts(lambda34(), shots=1000, seed=9)
    assert np.array_equal(a.counts, b.counts)
    c = simulate_counts(lambda34(), shots=1000, rng=np.random.default_rng(9))
    assert np.array_equal(a.counts, c.counts)


def test_counts_take_a_seed_or_an_rng_not_both():
    rng = np.random.default_rng(9)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match="^provide at most one of seed= or rng=$"):
        simulate_counts(lambda34(), shots=1000, seed=9, rng=rng)
    assert rng.bit_generator.state == before  # nothing was drawn
    table = simulate_counts(lambda34(), ("ZZ",), shots=10)  # neither: fresh entropy
    assert table.counts.sum() == 10


def test_poisson_mode():
    table = simulate_counts(lambda34(), shots=1000, seed=3, mode="poisson")
    assert table.mode == "poisson"
    # row totals fluctuate around shots but are not pinned to it
    assert np.any(table.counts.sum(axis=1) != 1000)
    with pytest.raises(ValueError):
        simulate_counts(lambda34(), shots=10, seed=1, mode="gaussian")
    with pytest.raises(ValueError):
        simulate_counts(lambda34(), shots=0, seed=1)


@pytest.mark.parametrize("mode", ("multinomial", "poisson"))
def test_one_draw_call_gives_the_per_setting_stream(mode):
    psi6 = build_psi6().reorder(analysis.WITNESS_ORDER)
    witness = sorted({t.setting for t in analysis.witness_terms()})
    cases = (
        (psi6, witness, 2000),
        (white_noise(psi6, 0.73), witness, 5000),
        (build_psi4(), product_settings(4), 100_000),
        (lambda34(), ("YX", "ZZ", "YX"), 7),
    )
    for seed, (rho, settings, shots) in enumerate(cases):
        table = simulate_counts(rho, settings, shots=shots, seed=seed, mode=mode)
        assert np.array_equal(table.counts, per_row_counts(rho, settings, shots, seed, mode))


@pytest.mark.parametrize(
    "kwargs, message",
    (
        ({"shots": 2.5}, "shots must be a nonnegative integer, got 2.5"),
        ({"shots": 10.0}, "shots must be a nonnegative integer, got 10.0"),
        ({"shots": True}, "shots must be a nonnegative integer, got True"),
        ({"shots": "10"}, "shots must be a nonnegative integer, got '10'"),
        ({"shots": 0}, "shots must be >= 1"),
        ({"shots": np.int64(-3)}, "shots must be >= 1"),
        ({"shots": 10, "mode": "gaussian"}, "mode must be 'multinomial' or 'poisson'"),
    ),
)
def test_simulate_counts_checks_shots_and_mode_before_any_work(monkeypatch, kwargs, message):
    def no_probabilities(*args):
        raise AssertionError("probabilities computed before the inputs were checked")

    monkeypatch.setattr(noise_tomo, "_projector_probs", no_probabilities)
    rng = np.random.default_rng(11)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        simulate_counts(lambda34(), ("ZZ", "XY"), rng=rng, **kwargs)
    assert rng.bit_generator.state == before  # nothing was drawn


def test_counts_table_validation():
    good = simulate_counts(lambda34(), ("ZZ", "XX"), shots=10, seed=4)
    assert good.n_qubits == 2
    with pytest.raises(ValueError):
        CountsTable(("a", "b"), ("ZZZ",), np.zeros((1, 4), dtype=int), 0)
    with pytest.raises(ValueError):
        CountsTable(("a", "b"), ("ZZ",), np.zeros((1, 8), dtype=int), 0)
    with pytest.raises(ValueError):
        CountsTable(("a", "b"), ("ZZ",), -np.ones((1, 4), dtype=int), 0)
    with pytest.raises(ValueError):
        CountsTable(("a", "b"), ("ZZ",), np.ones((1, 4), dtype=int), 4, mode="bogus")
    with pytest.raises(ValueError):
        CountsTable(("a", "b"), ("ZZ",), np.ones((1, 4), dtype=int), 5)


def _as_json(payload: dict) -> dict:
    """``payload`` as the CLI prints it, read back."""
    return json.loads(dumps15(payload))


def test_counts_table_json_round_trip():
    table = simulate_counts(lambda34(), ("ZX", "YY"), shots=50, seed=6)
    data = _as_json(counts_payload(table))
    back = counts_table(data)
    assert back.labels == table.labels
    assert back.settings == table.settings
    assert np.array_equal(back.counts, table.counts)
    assert back.shots == table.shots and back.mode == table.mode
    data["surprise"] = 1
    with pytest.raises(ValueError):
        counts_table(data)


def _counts_data():
    return _as_json(counts_payload(simulate_counts(lambda34(), ("ZZ", "XX"), shots=10, seed=4)))


@pytest.mark.parametrize(
    "field, value, message",
    (
        ("counts", 4.7, "counts must be integers, got 4.7"),
        ("counts", -0.5, "counts must be integers, got -0.5"),
        ("counts", 4.0, "counts must be integers, got 4.0"),
        ("counts", True, "counts must be integers, got True"),
        ("shots", 10.9, "shots must be a nonnegative integer, got 10.9"),
        ("shots", True, "shots must be a nonnegative integer, got True"),
        ("shots", -10, "shots must be a nonnegative integer, got -10"),
    ),
)
def test_counts_table_rejects_non_integer_values(field, value, message):
    data = _counts_data()
    if field == "counts":
        data["counts"][0][0] = value
    else:
        data["shots"] = value
    with pytest.raises(ValueError, match=f"^{message}$"):
        CountsTable(**data)


def test_counts_table_rejects_non_integer_arrays():
    for counts in (np.full((1, 2), 5.0), np.ones((1, 2), dtype=bool)):
        with pytest.raises(ValueError, match="counts must be integers"):
            CountsTable(("a",), ("Z",), counts, 10)
    table = CountsTable(("a",), ("Z",), np.array([[6, 4]], dtype=np.uint8), np.int64(10))
    assert table.counts.dtype == np.int64 and type(table.shots) is int


@pytest.mark.parametrize(
    "field, value, message",
    (
        ("labels", "ab", "labels must be a list of strings, got 'ab'"),
        ("labels", [1, 2], "labels must be strings, got 1"),
        ("settings", "ZX", "settings must be a list of strings, got 'ZX'"),
        ("settings", [["Z"]], "settings must be strings, got ['Z']"),
    ),
)
def test_counts_table_rejects_fields_that_are_not_string_lists(field, value, message):
    data = _counts_data()
    data[field] = value
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        CountsTable(**data)


def test_counts_table_rejects_duplicate_labels():
    data = _counts_data()
    data["labels"] = ["a", "a"]
    with pytest.raises(ValueError, match="duplicate qubit labels"):
        CountsTable(**data)


@pytest.mark.parametrize("field", ("labels", "settings", "counts", "shots"))
def test_counts_table_names_a_missing_field(field):
    data = _counts_data()
    del data[field]
    with pytest.raises(ValueError, match=rf"^missing counts fields \['{field}'\]$"):
        counts_table(data)


def test_counts_table_csv_rows():
    table = simulate_counts(lambda34(), ("ZZ",), shots=20, seed=7)
    rows = counts_rows(table)
    assert len(rows) == 4
    assert rows[0][0] == "ZZ" and [r[1] for r in rows] == [0, 1, 2, 3]
    assert sum(r[2] for r in rows) == 20


# ---------------------------------------------------------------------------
# Maximum-likelihood reconstruction
# ---------------------------------------------------------------------------

def test_reconstruct_two_qubit_noiseless():
    target = lambda34()
    table = simulate_counts(target, product_settings(2), shots=100_000, seed=11)
    res = ml_reconstruct(table, target)
    assert res.informationally_complete
    assert res.fidelity_to_target >= 0.99
    assert res.iterations >= 1
    assert abs(res.rho.trace - 1.0) < 1e-9


def test_reconstruct_flags_incomplete_settings():
    table = simulate_counts(lambda34(), ("ZZ", "ZX"), shots=1000, seed=3)
    res = ml_reconstruct(table)
    assert not res.informationally_complete
    assert res.fidelity_to_target is None


def test_reconstruct_maximally_mixed():
    mixed = qm.DensityMatrix(("a", "b"), np.eye(4) / 4)
    table = simulate_counts(mixed, product_settings(2), shots=100_000, seed=5)
    res = ml_reconstruct(table)
    eigs = np.linalg.eigvalsh(res.rho.mat)
    assert np.all(np.abs(eigs - 0.25) < 0.01)


def test_reconstruct_poisson_counts():
    target = lambda34()
    table = simulate_counts(
        target, product_settings(2), shots=20_000, seed=13, mode="poisson"
    )
    res = ml_reconstruct(table, target)
    assert res.fidelity_to_target >= 0.98


def test_reconstruct_white_noise_weight():
    rho = white_noise(lambda34(), weight=0.7)
    table = simulate_counts(rho, product_settings(2), shots=200_000, seed=14)
    res = ml_reconstruct(table, lambda34())
    want = 0.7 + (1 - 0.7) / 4
    assert abs(res.fidelity_to_target - want) < 0.01


def _settings_cases(n):
    """The full grid and a seeded random subset holding a repeated setting."""
    grid = product_settings(n)
    rng = np.random.default_rng(40 + n)
    subset = tuple(rng.choice(grid, size=min(len(grid), 5), replace=False))
    return grid, subset + subset[:1]


@pytest.mark.parametrize("n", (1, 2, 3, 4))
@pytest.mark.parametrize("mode", ("multinomial", "poisson"))
def test_projector_kernel_matches_dense_reference(n, mode):
    rng = np.random.default_rng(70 + n)
    labels = tuple("abcd"[:n])
    for settings in _settings_cases(n):
        rho = rand_density(labels, rng)
        table = simulate_counts(rho, settings, shots=500, seed=n, mode=mode)
        cells = noise_tomo._setting_cells(table.settings, n)
        mult = np.bincount(cells, minlength=6**n)
        kets = dense_cell_kets(table.settings)
        probs = full_projector_probs(rho.mat, n)
        assert np.max(np.abs(probs[cells] - dense_probs(kets, rho.mat))) <= 1e-12

        w = rng.uniform(0.0, 2.0, size=len(cells))
        proj_w = np.bincount(cells, weights=w, minlength=6**n)
        r = noise_tomo._projector_operator(n)(proj_w)
        assert np.max(np.abs(r - dense_r_operator(kets, w))) <= 1e-12

        freq = table.counts.reshape(-1).astype(float)
        proj_freq = np.bincount(cells, weights=freq, minlength=6**n)
        obs = np.flatnonzero(proj_freq > 0)
        ll = noise_tomo._log_likelihood(
            probs[obs], proj_freq[obs], mult, probs, table.shots, mode
        )
        want = dense_log_likelihood(freq, dense_probs(kets, rho.mat), table.shots, mode)
        assert abs(ll - want) <= 1e-12 * abs(want)


def _dense_fit_summary(table, rho):
    """Log-likelihood and gap bound of rho, computed cell by cell."""
    kets = dense_cell_kets(table.settings)
    freq = table.counts.reshape(-1).astype(float)
    total = freq.sum()
    p = dense_probs(kets, rho)
    ll = dense_log_likelihood(freq, p, table.shots, table.mode)
    r = dense_r_operator(kets, freq / (total * p))
    return ll, total * (np.linalg.eigvalsh(r)[-1] - 1.0)


@pytest.mark.parametrize("name, shots", (("lambda34", 100_000), ("psi4", 2000)))
@pytest.mark.parametrize("mode", ("multinomial", "poisson"))
def test_fit_matches_converged_dense_reference_fit(name, shots, mode):
    target = build_psi4() if name == "psi4" else lambda34()
    table = simulate_counts(white_noise(target, 0.9), shots=shots, seed=21, mode=mode)
    res = ml_reconstruct(table, target)
    rho, iters = dense_ml_fit(table, max_iters=100_000)
    assert res.iterations < 1000 and iters < 100_000
    ll, gap = _dense_fit_summary(table, rho)
    # each fit's log-likelihood lies within the other fit's certificate
    assert res.log_likelihood <= ll + gap
    assert ll <= res.log_likelihood + res.likelihood_gap_bound
    assert 0.0 <= res.likelihood_gap_bound <= 1.0


# Seeded fits, cold and warm-started, pinned bit for bit: (state, fidelity,
# shots, mode, seed) -> (SHA-256 of rho's bytes, log-likelihood, iterations,
# gap bound) for the cold fit, then the same for a fit started from the cold
# rho plus I/2.  Recorded with the projector conjugates and the observed
# cells computed inside every iteration; computing them once per fit must
# not move a single rounding.  Every fit here stops on its 1-nat certificate.
FROZEN_FITS = (
    (("psi4", 0.9, 2000, "multinomial", 21),
     ("fa9ce896f2c2babdf437d7b6402e7cea30795396306c36615bde70ab492ae4f9",
      "-0x1.81bf182480595p+18", 80, "0x1.ddab93e724c60p-1"),
     ("4a2a1c0be57f99a0b59288131605f944d76006992ebc9bc058a1783442aa7fd0",
      "-0x1.81bf18257aaeap+18", 72, "0x1.b170046ebe7e0p-1")),
    (("lambda34", 0.7, 200, "poisson", 5),
     ("1408c2a61433aaa782ab48bc220a6aaf8eee27413ba425796749ab51a82a01ae",
      "0x1.554694f9e0e1dp+12", 8, "0x1.5d5965456397cp-2"),
     ("9dd467df955189c59e7bf863f472c888a50336e7e164eb33dc887d2bc33256ea",
      "0x1.554695132db6fp+12", 8, "0x1.c4db99c6cb014p-2")),
)

# The same fits with the certificate off, which stop on their gain as every
# fit did before the certificate stop; pinned before that stop existed.
UNCERTIFIED_FITS = (
    (("psi4", 0.9, 2000, "multinomial", 21),
     ("c92d2df91e78955ce35b9d6cbb08ba2194cc3222b4c0bb50f7f21380e47c35ca",
      "-0x1.81bf182409a56p+18", 111, "0x1.eb6e96fcf2000p-9"),
     ("388838ffb1f056d51503cf10870f84c45e905d49da14915a98dc03d5aeb6f599",
      "-0x1.81bf182409a58p+18", 107, "0x1.9834832250000p-8")),
    (("lambda34", 0.7, 200, "poisson", 5),
     ("aa16c33a50cbe6605e071419ec3246bbae0fddf1608c56e365d0d2aaba17c6e2",
      "0x1.5546959b825d4p+12", 18, "0x1.4a5901af6e000p-12"),
     ("b8a3c24faf683d8017f49f76a213f3a10de3cddbc8ca3c7312e0232c30b2ecd8",
      "0x1.5546959b81d62p+12", 19, "0x1.5a07276d1f800p-11")),
)

# Bootstraps of benchmark-sized tomography jobs, pinned bit for bit:
# (fidelity, counts seed, bootstrap seed) -> (mean, sigma, then the SHA-256
# of rho's bytes and the iterations of each warm fit).  Psi4 with 100,000
# multinomial shots, two runs at max_iters=1000.  Unlike FROZEN_FITS, these
# fits start from the point estimate itself, on Poisson-resampled tables.
# At F = 0.9 every projector holds counts; the pure state leaves some empty.
FROZEN_BOOTSTRAPS = (
    ((0.9, 43, 44),
     ("0x1.cd2290ca442dcp-1", "0x1.2bbde767cc7c9p-12",
      (("95f23bad273471da19450bd90d7121590bb58b96e2ed8b633beede616bc9da74", 92),
       ("39d297156682e49e69f14ae6531cee0bc21220caa383b33e98a2fa2c182b26c2", 80)))),
    ((1.0, 45, 46),
     ("0x1.ffb7e4ec1eee2p-1", "0x1.15d7b370c2d42p-14",
      (("fca4f3a231c629f0585bfdecbc9921a51dbb6a9349f2ec5d7ece67dd84602dd2", 40),
       ("d5e04bb54f1149e9c25e92fac5f83ae7aab9e0bccafa5f88b2be2ed8760f3b3f", 44)))),
)


def _frozen_fits(case):
    """The pinned summary of a seeded cold fit and of its warm-started fit."""
    name, fidelity, shots, mode, seed = case
    target = build_psi4() if name == "psi4" else lambda34()
    table = simulate_counts(white_noise(target, fidelity), shots=shots, seed=seed, mode=mode)

    def frozen(res):
        return (hashlib.sha256(res.rho.mat.tobytes()).hexdigest(),
                res.log_likelihood.hex(), res.iterations,
                res.likelihood_gap_bound.hex())

    res = ml_reconstruct(table)
    init = res.rho.mat + np.eye(len(res.rho.mat)) / 2
    return frozen(res), frozen(ml_reconstruct(table, init=init))


@pytest.fixture
def uncertified(monkeypatch):
    """Turn the certificate stop off, with no kept fit from before."""
    monkeypatch.setattr(noise_tomo, "_GAP_TOL", 0.0)
    monkeypatch.setattr(noise_tomo, "_last_cold_fit", None)


@pytest.mark.parametrize("case, cold, warm", FROZEN_FITS)
def test_seeded_fit_is_bit_identical_to_its_frozen_copy(case, cold, warm):
    assert _frozen_fits(case) == (cold, warm)


@pytest.mark.parametrize("case, cold, warm", UNCERTIFIED_FITS)
def test_seeded_fit_without_certificate_is_its_older_frozen_copy(case, cold, warm, uncertified):
    assert _frozen_fits(case) == (cold, warm)


@pytest.mark.parametrize("case, frozen", FROZEN_BOOTSTRAPS)
def test_seeded_bootstrap_is_bit_identical_to_its_frozen_copy(case, frozen, monkeypatch):
    fidelity, counts_seed, mc_seed = case
    monkeypatch.setattr(noise_tomo, "_last_cold_fit", None)
    fits = []
    fit = noise_tomo._fit

    def recording_fit(counts, max_iters, tol, init):
        res = fit(counts, max_iters, tol, init)
        if init is not None:
            fits.append((hashlib.sha256(res.rho.mat.tobytes()).hexdigest(), res.iterations))
        return res

    monkeypatch.setattr(noise_tomo, "_fit", recording_fit)
    psi4 = build_psi4()
    rho = psi4 if fidelity == 1.0 else white_noise(psi4, fidelity)
    table = simulate_counts(rho, shots=100_000, seed=counts_seed)
    mean, sigma = monte_carlo_error(table, psi4, runs=2, seed=mc_seed, max_iters=1000)
    assert (mean.hex(), sigma.hex(), tuple(fits)) == frozen


@pytest.mark.parametrize("seed", range(6))
def test_density_projection_matches_bisection_reference(seed):
    rng = np.random.default_rng(90 + seed)
    dim = (1, 2, 4, 8, 16, 16)[seed]
    scale = (0.1, 1.0, 10.0, 1.0, 0.01, 100.0)[seed]
    a = scale * (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    h = (a + a.conj().T) / 2
    rho = noise_tomo._density_projection(h)
    assert abs(np.trace(rho) - 1.0) <= 1e-12
    assert np.abs(rho - rho.conj().T).max() <= 1e-12
    assert np.linalg.eigvalsh(rho)[0] >= -1e-12
    assert np.abs(rho - bisection_density_projection(h)).max() <= 1e-12
    # density matrices are fixed points, including rank-deficient ones
    assert np.abs(noise_tomo._density_projection(rho) - rho).max() <= 1e-12
    full = rand_density(tuple("abcd"[: dim.bit_length() - 1]), rng).mat
    assert np.abs(noise_tomo._density_projection(full) - full).max() <= 1e-12


@pytest.mark.parametrize("diag", ((1e300, 1.0, 0.0, 0.0), (3e16, 2.0, 1.0, 0.0)))
def test_density_projection_of_huge_eigenvalue_matches_bisection_reference(diag):
    # u_1 - 1 rounds to u_1 here; the projection is still |0><0|
    h = np.diag(diag).astype(complex)
    rho = noise_tomo._density_projection(h)
    assert abs(np.trace(rho) - 1.0) <= 1e-12
    assert np.linalg.eigvalsh(rho)[0] >= -1e-12
    assert np.abs(rho - bisection_density_projection(h)).max() <= 1e-12
    assert np.array_equal(rho, np.diag([1.0, 0.0, 0.0, 0.0]))


def _spectra(dim, rng):
    """Eigenvalue lists of every kind the simplex rule must get right."""
    scale = 10.0 ** rng.uniform(-3, 3)
    distinct = rng.normal(size=max(dim // 4, 1))
    yield rng.normal(size=dim) * scale  # generic
    yield np.resize(distinct, dim)  # repeated eigenvalues
    yield np.r_[rng.uniform(0.0, 3.0), np.zeros(dim - 1)]  # rank one
    yield np.full(dim, (rng.normal(), 1.0 / dim)[int(rng.integers(2))])  # all equal
    yield -np.abs(rng.normal(size=dim)) * scale  # all negative
    yield np.r_[1e12, rng.normal(size=dim - 1)]  # a huge top eigenvalue
    yield rng.dirichlet(np.ones(dim))  # a density matrix already
    # u_1 - u_j = 1 for every j > 1, so the test j u_j > u_1 + ... + u_j - 1
    # ties for each j > 1 and rounding decides it, not always the same way
    tie = rng.uniform(-1.0, 1.0)
    yield np.r_[1.0 + tie, np.full(dim - 1, tie)]


# 2,000 matrices in all, eight spectra at a time; fewer of the slow 64 x 64 ones
@pytest.mark.parametrize("dim, count", ((1, 496), (2, 496), (4, 424), (16, 472), (64, 112)))
def test_density_projection_has_the_bits_of_the_cumsum_rule(dim, count):
    rng = np.random.default_rng(300 + dim)
    cases = 0
    while cases < count:
        for spectrum in _spectra(dim, rng):
            # every other matrix is diagonal, so that eigh returns the
            # spectrum's repeats exactly
            if cases % 2:
                u, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
                h = (u * spectrum) @ u.conj().T
                h = (h + h.conj().T) / 2
            else:
                h = np.diag(rng.permutation(spectrum)).astype(complex)
            got = noise_tomo._density_projection(h)
            assert got.tobytes() == cumsum_density_projection(h).tobytes(), (dim, cases)
            cases += 1


@pytest.mark.parametrize("seed, weight", ((21, 1.0), (22, 0.712)))
def test_psi4_100k_fits_converge_before_the_cap(seed, weight):
    psi4 = build_psi4()
    counts = simulate_counts(
        white_noise(psi4, weight=weight), shots=100_000, seed=seed
    )
    res = ml_reconstruct(counts, psi4, max_iters=1000)
    assert res.iterations < 1000
    assert 0.0 <= res.likelihood_gap_bound <= 1.0


@pytest.mark.parametrize(
    "name, fidelity, shots, mode",
    (("psi4", 1.0, 2000, "multinomial"), ("psi4", 1.0, 100_000, "poisson"),
     ("lambda34", 0.9, 20_000, "poisson")),
)
def test_accepted_iterates_never_lower_the_likelihood(name, fidelity, shots, mode, uncertified):
    target = build_psi4() if name == "psi4" else lambda34()
    table = simulate_counts(
        white_noise(target, fidelity), shots=shots, seed=25, mode=mode
    )
    # the fit is deterministic, so the fit cut at m iterations is iterate m
    final = ml_reconstruct(table).iterations
    lls = [ml_reconstruct(table, max_iters=m).log_likelihood for m in range(1, final + 1)]
    assert all(b >= a for a, b in zip(lls, lls[1:]))


def test_rank_deficient_init_reaches_the_optimum():
    # every cell observed in counts drawn from psi4 has a nonzero probability
    # under the rank-1 init, which the R rho R iteration could never leave
    psi4 = build_psi4()
    table = simulate_counts(psi4, shots=2000, seed=26)
    mixed = ml_reconstruct(table)
    pure = ml_reconstruct(table, init=3.0 * psi4.to_density().mat)
    assert pure.iterations < 1000
    assert pure.log_likelihood <= mixed.log_likelihood + mixed.likelihood_gap_bound
    assert mixed.log_likelihood <= pure.log_likelihood + pure.likelihood_gap_bound


@pytest.mark.parametrize("max_iters", (0, -5))
def test_reconstruct_rejects_max_iters_below_one(max_iters):
    table = simulate_counts(lambda34(), shots=100, seed=3)
    with pytest.raises(ValueError, match="max_iters"):
        ml_reconstruct(table, max_iters=max_iters)


@pytest.mark.parametrize("tol", (-1.0, float("nan"), float("inf")))
def test_reconstruct_rejects_bad_tol(tol):
    table = simulate_counts(lambda34(), shots=100, seed=3)
    with pytest.raises(ValueError, match="tol"):
        ml_reconstruct(table, tol=tol)


@pytest.mark.parametrize(
    "init, match",
    (
        (np.eye(2), "shape"),
        (np.zeros((4, 4)), "positive trace"),
        (np.diag([1.0, 1.0, 1.0, np.nan]), "positive trace"),
        (np.diag([2.0, 1.0, 1.0, -1.0]), "positive semidefinite"),
        (np.eye(4) + np.triu(np.ones((4, 4)), 1), "Hermitian"),
        (np.diag([1.0, 0.0, 0.0, 0.0]), "zero probability"),
    ),
)
def test_reconstruct_rejects_bad_init(init, match):
    # the Z-basis counts include outcome 01, which |00><00| cannot produce
    table = CountsTable(("a", "b"), ("ZZ", "XX"), np.array([[3, 1, 0, 0], [2, 2, 0, 0]]), 4)
    with pytest.raises(ValueError, match=match):
        ml_reconstruct(table, init=init)


def test_reconstruct_rejects_unknown_setting_letter():
    table = CountsTable(("a", "b"), ("IZ",), np.array([[3, 1, 0, 0]]), 4)
    with pytest.raises(ValueError, match="unknown Pauli letter"):
        ml_reconstruct(table)


def test_completeness_flag_of_incomplete_and_full_tables():
    incomplete = simulate_counts(lambda34(), ("ZZ", "ZX"), shots=100, seed=3)
    complete = simulate_counts(lambda34(), shots=100, seed=3)
    assert not ml_reconstruct(incomplete, max_iters=5).informationally_complete
    assert ml_reconstruct(complete, max_iters=5).informationally_complete


@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_completeness_rule_matches_the_svd_rank(n):
    rng = np.random.default_rng(90 + n)
    grid = product_settings(n)
    cases = [
        grid,
        grid[::-1],
        tuple(rng.permutation(grid)) + grid[:2],  # reordered, with duplicates
        grid[1:] + grid[1:3],  # one setting short, with duplicates
    ]
    for _ in range(10):
        size = rng.integers(1, len(grid) + 4)
        cases.append(tuple(rng.choice(grid, size=size)))  # drawn with replacement
    rho = rand_density(tuple("abcd"[:n]), rng)
    flags = []
    for settings in cases:
        table = simulate_counts(rho, settings, shots=10, seed=n)
        flags.append(ml_reconstruct(table, max_iters=1).informationally_complete)
        assert flags[-1] == svd_rank_complete(settings), settings
    assert flags[:4] == [True, True, True, False]


def test_reconstruct_rejects_a_table_with_no_settings():
    table = CountsTable(("a", "b"), (), np.zeros((0, 4), dtype=int), 10)
    with pytest.raises(ValueError, match="^counts table has no settings$"):
        ml_reconstruct(table)


def test_likelihood_gap_bound_is_a_certificate(uncertified):
    target = lambda34()
    table = simulate_counts(white_noise(target, 0.9), shots=20_000, seed=23)
    total = table.counts.sum()
    early = ml_reconstruct(table, max_iters=20)
    best = ml_reconstruct(table, tol=1e-12)
    for res in (early, best):
        assert res.likelihood_gap_bound >= -1e-9 * total
    # the bound covers the likelihood still to be gained
    assert early.log_likelihood + early.likelihood_gap_bound >= best.log_likelihood
    assert best.likelihood_gap_bound < early.likelihood_gap_bound
    payload = fit_payload(best, full_matrix=False)
    assert payload["likelihood_gap_bound"] == best.likelihood_gap_bound


@pytest.mark.parametrize(
    "kwargs, stop",
    (({}, "certificate"), ({"tol": 1e3}, "gain"),
     ({"tol": 0.0}, "rounding floor"), ({"max_iters": 3}, "max_iters")),
)
def test_fit_names_its_stop(kwargs, stop, monkeypatch):
    monkeypatch.setattr(noise_tomo, "_last_cold_fit", None)
    if stop == "rounding floor":
        # with tol=0 and the certificate off, only the floor ends this fit
        monkeypatch.setattr(noise_tomo, "_GAP_TOL", 0.0)
    res = ml_reconstruct(_small_table(), **kwargs)
    assert res.stop == stop
    payload = fit_payload(res, full_matrix=False)
    assert payload["stop"] == stop
    keys = list(payload)
    assert keys.index("stop") == keys.index("likelihood_gap_bound") + 1


@pytest.mark.parametrize("name", ("psi4", "lambda34"))
@pytest.mark.parametrize("mode", ("multinomial", "poisson"))
@pytest.mark.parametrize("seed", (60, 61))
def test_certified_fit_is_the_uncertified_fit_cut_at_its_iteration(
    name, mode, seed, monkeypatch
):
    target = build_psi4() if name == "psi4" else lambda34()
    table = simulate_counts(white_noise(target, 0.9), shots=2000, seed=seed, mode=mode)
    cold = ml_reconstruct(table)
    warm_init = cold.rho.mat + np.eye(len(cold.rho.mat)) / 2
    fits = [(init, ml_reconstruct(table, init=init)) for init in (None, warm_init)]
    # with the certificate off, each fit cut at its iteration runs to its cap
    monkeypatch.setattr(noise_tomo, "_GAP_TOL", 0.0)
    monkeypatch.setattr(noise_tomo, "_last_cold_fit", None)
    for init, res in fits:
        assert res.stop == "certificate"
        assert 0.0 <= res.likelihood_gap_bound <= 1.0
        cut = ml_reconstruct(table, max_iters=res.iterations, init=init)
        assert cut.stop == "max_iters"
        assert res.rho.mat.tobytes() == cut.rho.mat.tobytes()
        assert res.log_likelihood == cut.log_likelihood


@pytest.mark.parametrize("mode", ("multinomial", "poisson"))
def test_likelihood_gap_bound_shrinks_with_iterations_on_psi4(mode):
    target = build_psi4()
    table = simulate_counts(target, shots=2000, seed=24, mode=mode)
    total = table.counts.sum()
    short = ml_reconstruct(table, target, max_iters=30)
    long = ml_reconstruct(table, target, max_iters=1000)
    assert short.likelihood_gap_bound >= -1e-9 * total
    assert long.likelihood_gap_bound >= -1e-9 * total
    assert long.likelihood_gap_bound < short.likelihood_gap_bound


def test_reconstruct_empty_counts_rejected():
    table = CountsTable(("a",), ("Z",), np.zeros((1, 2), dtype=int), 0)
    with pytest.raises(ValueError):
        ml_reconstruct(table)


def test_reconstruction_result_validation():
    not_psd = qm.DensityMatrix(("a", "b"), np.diag([1.5, -0.5, 0, 0]).astype(complex))
    with pytest.raises(ValueError):
        ReconstructionResult(rho=not_psd, log_likelihood=0.0, iterations=1)
    wrong_trace = qm.DensityMatrix(("a", "b"), np.eye(4, dtype=complex) / 2)
    with pytest.raises(ValueError):
        ReconstructionResult(rho=wrong_trace, log_likelihood=0.0, iterations=1)
    dm = qm.DensityMatrix(("a", "b"), np.eye(4) / 4)
    res = ReconstructionResult(rho=dm, log_likelihood=-1.0, iterations=3)
    d = _as_json(fit_payload(res, full_matrix=True))
    assert d["iterations"] == 3
    assert d["fidelity_to_target"] is None
    assert d["informationally_complete"] is True
    assert d["likelihood_gap_bound"] is None
    assert len(d["rho"]) == 4


# ---------------------------------------------------------------------------
# Monte Carlo error bars
# ---------------------------------------------------------------------------

def test_monte_carlo_error_deterministic_and_sane():
    target = lambda34()
    table = simulate_counts(target, product_settings(2), shots=5000, seed=15)
    mean, sigma = monte_carlo_error(table, target, runs=5, seed=30)
    assert 0.95 <= mean <= 1.0
    assert 0.0 <= sigma < 0.02
    again = monte_carlo_error(table, target, runs=5, seed=30)
    assert (mean, sigma) == again


def test_monte_carlo_requires_two_runs():
    table = simulate_counts(lambda34(), ("ZZ",), shots=10, seed=1)
    with pytest.raises(ValueError):
        monte_carlo_error(table, lambda34(), runs=1, seed=0)


@pytest.fixture
def fits(monkeypatch):
    """Start with no kept fit; record the init of every fit that runs."""
    monkeypatch.setattr(noise_tomo, "_last_cold_fit", None)
    inits = []
    fit = noise_tomo._fit

    def counting_fit(counts, max_iters, tol, init):
        inits.append(init)
        return fit(counts, max_iters, tol, init)

    monkeypatch.setattr(noise_tomo, "_fit", counting_fit)
    return inits


def test_monte_carlo_error_reuses_the_callers_fit(fits, monkeypatch):
    target = lambda34()
    table = simulate_counts(white_noise(target, 0.9), shots=5000, seed=16)
    without = monte_carlo_error(table, target, runs=4, seed=31)
    assert len(fits) == 1 + 4
    monkeypatch.setattr(noise_tomo, "_last_cold_fit", None)
    fits.clear()
    base = ml_reconstruct(table, target)
    assert len(fits) == 1
    assert monte_carlo_error(table, target, runs=4, seed=31) == without
    # after the caller's fit, only the warm-started replicas are fitted
    assert len(fits) == 1 + 4
    assert all(init is base.rho.mat for init in fits[1:])


def test_bootstrap_makes_one_cold_fit_fewer_projections(monkeypatch):
    # When monte_carlo_error fitted the table again, this job made 572
    # projections; one cold fit makes 178 of them.
    monkeypatch.setattr(noise_tomo, "_last_cold_fit", None)
    calls = []
    project = noise_tomo._density_projection

    def counting_projection(h):
        calls.append(1)
        return project(h)

    monkeypatch.setattr(noise_tomo, "_density_projection", counting_projection)
    psi4 = build_psi4()
    table = simulate_counts(white_noise(psi4, 0.9), shots=100_000, seed=41)
    ml_reconstruct(table, psi4)
    cold = len(calls)
    monte_carlo_error(table, psi4, runs=2, seed=42)
    assert (cold, len(calls)) == (178, 572 - 178)


# ---------------------------------------------------------------------------
# The kept cold fit
# ---------------------------------------------------------------------------

def _small_table():
    return simulate_counts(white_noise(lambda34(), 0.9), shots=500, seed=50)


def _same_fit(a, b):
    return (a.rho.labels == b.rho.labels and np.array_equal(a.rho.mat, b.rho.mat)
            and a.log_likelihood == b.log_likelihood and a.iterations == b.iterations
            and a.likelihood_gap_bound == b.likelihood_gap_bound and a.stop == b.stop)


def test_kept_fit_is_the_fit_of_the_edited_table(fits):
    table = _small_table()
    first = ml_reconstruct(table)
    table.counts[0, [0, 1]] = table.counts[0, [1, 0]]  # edited in place
    edited = ml_reconstruct(table)
    assert len(fits) == 2
    assert edited.log_likelihood != first.log_likelihood
    fresh = CountsTable(table.labels, table.settings, table.counts.copy(), table.shots)
    assert _same_fit(edited, noise_tomo._fit(fresh, 10_000, 1e-9, None))


@pytest.mark.parametrize(
    "variant",
    ("max_iters", "tol", "mode", "shots", "settings", "labels"),
)
def test_kept_fit_is_not_reused_for_another_table_or_stop_rule(fits, variant):
    table = _small_table()
    kwargs = {"max_iters": 10_000, "tol": 1e-9}
    other, other_kwargs = table, dict(kwargs)
    if variant == "max_iters":
        other_kwargs["max_iters"] = 7
    elif variant == "tol":
        other_kwargs["tol"] = 1e-3
    elif variant == "mode":
        other = CountsTable(table.labels, table.settings, table.counts, table.shots,
                            mode="poisson")
    elif variant == "shots":
        # same counts, mode and settings: only the Poisson intensity differs
        table = CountsTable(table.labels, table.settings, table.counts, table.shots,
                            mode="poisson")
        other = CountsTable(table.labels, table.settings, table.counts, 2 * table.shots,
                            mode="poisson")
    elif variant == "settings":
        other = CountsTable(table.labels, table.settings[::-1], table.counts, table.shots)
    else:
        other = CountsTable(("x", "y"), table.settings, table.counts, table.shots)
    ml_reconstruct(table, **kwargs)
    res = ml_reconstruct(other, **other_kwargs)
    again = ml_reconstruct(table, **kwargs)
    assert len(fits) == 3
    assert _same_fit(res, noise_tomo._fit(other, other_kwargs["max_iters"],
                                          other_kwargs["tol"], None))
    assert _same_fit(again, noise_tomo._fit(table, kwargs["max_iters"],
                                            kwargs["tol"], None))


def test_fits_with_init_always_run(fits):
    table = _small_table()
    cold = ml_reconstruct(table)
    mixed = np.eye(4) / 4
    warm = [ml_reconstruct(table, init=mixed) for _ in range(2)]
    assert len(fits) == 3
    assert fits[1] is mixed and fits[2] is mixed
    assert _same_fit(warm[0], warm[1])
    assert warm[0].rho is not warm[1].rho is not cold.rho


def test_kept_fit_shares_a_read_only_rho(fits):
    table = _small_table()
    first = ml_reconstruct(table)
    second = ml_reconstruct(table)
    assert len(fits) == 1
    assert second.rho is first.rho
    assert not first.rho.mat.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        first.rho.mat[0, 0] = 0.0


def test_each_target_gets_its_own_fidelity(fits):
    table = _small_table()
    entangled = lambda34()
    product = qm.StateVector(entangled.labels, np.array([1.0, 0.0, 0.0, 0.0]))
    a = ml_reconstruct(table, entangled)
    b = ml_reconstruct(table, product)
    plain = ml_reconstruct(table)
    assert len(fits) == 1
    assert a.rho is b.rho is plain.rho
    assert a.fidelity_to_target == qm.fidelity(a.rho, entangled)
    assert b.fidelity_to_target == qm.fidelity(b.rho, product)
    assert a.fidelity_to_target > 0.85 > b.fidelity_to_target
    assert plain.fidelity_to_target is None
    assert ml_reconstruct(table, entangled).fidelity_to_target == a.fidelity_to_target


def test_kept_fit_still_checks_the_target_and_stop_rule(fits):
    table = _small_table()
    ml_reconstruct(table)
    with pytest.raises(ValueError, match="different registers"):
        ml_reconstruct(table, build_psi4())
    with pytest.raises(ValueError, match="max_iters"):
        ml_reconstruct(table, max_iters=0)
    assert len(fits) == 1
