"""Correlation, entropy, and fidelity-witness diagnostics.

The six-qubit fidelity witness decomposes the target projector into 36
terms, each measurable in a single product setting of Pauli bases.  Two
variants of the term list exist: the literal tabulation (kept unmodified,
known defects and all, so its residual can be audited) and a corrected
variant (overall factor 1/2, five sign repairs, and four block repairs)
whose sum is the projector to rounding.  The decomposition is never
trusted silently — the residual against the directly-built projector is
always computed and reported.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from math import cos, pi, sin
from typing import Mapping, Sequence

import numpy as np

from . import qmath as qm
from .qmath import State
from .noise_tomo import CountsTable, exact_probabilities
from .wires import _check_theta, build_psi6

#: Qubit order used by witness settings strings (one letter per qubit).
WITNESS_ORDER = ("4", "3", "3p", "2", "1", "1p")

#: The 36 tabulated measurement settings (one per term), in WITNESS_ORDER.
TABULATED_SETTINGS = (
    "ZZZZZZ", "ZXXZZZ", "ZYYZZZ", "ZZZZXX", "ZXXZXX", "ZYYZXX",
    "ZZZZYY", "ZXXZYY", "ZYYZYY", "ZZZXZZ", "ZXXXZZ", "ZYYXZZ",
    "ZZZYXY", "ZXXYXY", "ZYYYXY", "ZZZYYX", "ZXXYYX", "ZYYYYX",
    "XZZZZZ", "XZZZXX", "XZZZYY", "XYXYZZ", "XYXXXY", "XYZXYX",
    "XXYYZZ", "XXYXXY", "XXYXYX", "YYXZZZ", "YYXZXX", "YYXZYY",
    "YXYZZZ", "YXYZXX", "YXYZYY", "YZZYZZ", "YZZXXY", "YZZXYX",
)


# ---------------------------------------------------------------------------
# Two-point correlations
# ---------------------------------------------------------------------------

def _letter_action(flip: tuple[int, int], phases: tuple[complex, complex]):
    """Read-only (flip, phases) arrays: component k of P a is phases[k] * a[flip[k]]."""
    action = (np.array(flip), np.array(phases, dtype=complex))
    for a in action:
        a.setflags(write=False)
    return action


# Each Pauli letter is a signed, phased permutation of its qubit's axis.
_LETTER_ACTIONS = {
    "I": _letter_action((0, 1), (1, 1)),
    "X": _letter_action((1, 0), (1, 1)),
    "Y": _letter_action((1, 0), (-1j, 1j)),
    "Z": _letter_action((0, 1), (1, -1)),
}


def _pauli_expectation(state: State, assignments: Mapping[str, str]) -> float:
    """Real part of <P> for the Pauli letters ``assignments`` (label -> letter).

    Each letter acts on its qubit's axis of the amplitude tensor, or on the
    row axes of the density matrix, as a permutation times a phase pair; no
    2^n x 2^n operator is built.  The products are exact, so the result has
    the bits of ``np.vdot(amps, P @ amps)`` and ``np.trace(P @ rho)`` with
    the dense operator P.
    """
    pure = isinstance(state, qm.StateVector)
    data = state.amps if pure else state.mat
    n = len(state.labels)
    t = data.reshape((2,) * n + (() if pure else (-1,)))
    for label, letter in assignments.items():
        axis = qm._index_of(state.labels, label)
        flip, phases = _LETTER_ACTIONS[letter]
        t = np.take(t, flip, axis=axis) * phases.reshape((2,) + (1,) * (t.ndim - axis - 1))
    if pure:
        return float(np.vdot(data, t.reshape(-1)).real)
    return float(np.trace(t.reshape(data.shape)).real)


def two_point_correlation(state: State, i: str, j: str, a: str, b: str) -> float:
    """Connected correlator <a_i b_j> - <a_i><b_j> of two Pauli letters."""
    if i == j:
        raise ValueError("correlation requires two distinct qubits")
    for letter in (a, b):
        if letter not in ("X", "Y", "Z"):
            raise ValueError(f"unknown Pauli letter {letter!r}")
    joint = _pauli_expectation(state, {i: a, j: b})
    return joint - _pauli_expectation(state, {i: a}) * _pauli_expectation(state, {j: b})


def q_max(state: State, i: str, j: str) -> float:
    """Largest |two_point_correlation| over the nine Pauli letter pairs.

    The six single-qubit expectations are computed once and shared by the
    nine pairs, so the value has the bits of the maximum of the nine
    ``two_point_correlation`` calls.
    """
    if i == j:
        raise ValueError("correlation requires two distinct qubits")
    letters = ("X", "Y", "Z")
    single = {(q, a): _pauli_expectation(state, {q: a}) for q in (i, j) for a in letters}
    return max(
        abs(_pauli_expectation(state, {i: a, j: b}) - single[i, a] * single[j, b])
        for a in letters
        for b in letters
    )


def linear_entropies(state: State) -> dict[str, float]:
    """Single-qubit linear entropy 2(1 - Tr rho_k^2) for every qubit."""
    return {
        label: qm.linear_entropy(qm.partial_trace(state, (label,)))
        for label in state.labels
    }


# ---------------------------------------------------------------------------
# Witness decomposition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PauliWord:
    """A scalar multiple of a product of Pauli letters on named qubits."""

    labels: tuple[str, ...]
    letters: tuple[str, ...]
    coefficient: complex

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "letters", tuple(self.letters))
        object.__setattr__(self, "coefficient", complex(self.coefficient))
        if len(self.labels) != len(self.letters):
            raise ValueError("one letter per label required")
        if any(l not in qm.PAULI for l in self.letters):
            raise ValueError("letters must be I, X, Y, or Z")
        if not np.isfinite(self.coefficient):
            raise ValueError("coefficient must be finite")

    def matrix(self) -> np.ndarray:
        return _scatter_words((self,))


@dataclass(frozen=True)
class WitnessTerm:
    """One locally measurable term of the fidelity decomposition."""

    index: int
    words: tuple[PauliWord, ...]
    setting: str  # derived: the product basis this term is diagonal in

    def matrix(self) -> np.ndarray:
        return _scatter_words(self.words)


def _bit_masks(words: Sequence[PauliWord], letters: str) -> np.ndarray:
    """Per word, the integer whose bits (first label = MSB) mark ``letters``."""
    return np.array([int("".join("01"[l in letters] for l in w.letters), 2) for w in words])


def _parity_signs(x: np.ndarray) -> np.ndarray:
    """(-1)^popcount(x), elementwise, for nonnegative integer arrays."""
    bits = (x[..., None] >> np.arange(int(x.max()).bit_length())) & 1
    return 1.0 - 2.0 * (bits.sum(axis=-1) & 1)


def _scatter_words(words: Sequence[PauliWord]) -> np.ndarray:
    """Sum of the words' matrices, scatter-added in word order.

    A Pauli word is monomial: column c holds coefficient * i^(#Y) *
    (-1)^popcount(c & YZ bits) in row c ^ (XY bits).  Products with +-1 and
    +-i are exact, so this equals the sum of np.kron products bit for bit.
    """
    cols = np.arange(2 ** len(words[0].letters))
    coeffs = np.array([w.coefficient * 1j ** w.letters.count("Y") for w in words])
    values = coeffs[:, None] * _parity_signs(cols & _bit_masks(words, "YZ")[:, None])
    rows = cols ^ _bit_masks(words, "XY")[:, None]
    out = np.zeros((cols.size, cols.size), dtype=complex)
    np.add.at(out, (rows, np.broadcast_to(cols, rows.shape)), values)
    return out


# Block helpers: every term is a product of per-qubit-group factors, each
# either a bare Pauli letter or a diagonal two-outcome block.  Diagonal
# blocks expand into I/Z words: a|0><0| + b|1><1| = (a+b)/2 I + (a-b)/2 Z,
# and a|00><00| + b|11><11| likewise over two qubits.

def _letter(label: str, letter: str) -> list[tuple[complex, dict[str, str]]]:
    return [(1.0 + 0j, {label: letter})]


def _single(label: str, a: complex, b: complex) -> list[tuple[complex, dict[str, str]]]:
    return [((a + b) / 2, {label: "I"}), ((a - b) / 2, {label: "Z"})]


def _pair(
    lab1: str, lab2: str, a: complex, b: complex
) -> list[tuple[complex, dict[str, str]]]:
    # a|00><00| + b|11><11| over (lab1, lab2)
    out = []
    for w1, l1 in ((0.5, "I"), (0.5, "Z")):
        for w2, l2 in ((0.5, "I"), (0.5, "Z")):
            minus = (0.5 if l1 == "I" else -0.5, 0.5 if l2 == "I" else -0.5)
            coeff = a * w1 * w2 + b * minus[0] * minus[1]
            out.append((coeff, {lab1: l1, lab2: l2}))
    return out


def _term_specs(theta: float, corrected: bool) -> list[tuple[float, list]]:
    """The 36 products (scalar, block list) of the fidelity decomposition."""
    c, s = cos(theta), sin(theta)
    c2, s2, cs = c * c, s * s, c * s
    half_cs = cs / 2.0
    half_c2s2 = c2 * s2 / 2.0

    def p33(sign: float = 1.0):
        return _pair("3", "3p", c2, sign * s2)

    def p11(sign: float = 1.0):
        return _pair("1", "1p", c2, sign * s2)

    def d2(a: float, b: float):
        return _single("2", a, b)

    L = _letter
    # The literal tabulation has nine defective terms.  The corrected variant
    # repairs them (assemble_witness adds the accompanying overall factor 1/2):
    #   term 2           - the (1,1p) block is c^2|00><00| - s^2|11><11|;
    #   terms 8,16,18,22 - the leading scalar carries a minus sign;
    #   terms 29-32      - the qubit-2 block is +/-(c^2|0><0| + s^2|1><1|),
    #                      i.e. the s^2 weight takes the c^2 weight's sign.
    fix = -1.0 if corrected else 1.0
    terms: list[tuple[float, list]] = [
        (1.0, [L("4", "I"), p33(), d2(c2, s2), p11()]),
        (cs, [L("4", "Z"), p33(), L("2", "X"), p11(fix)]),
        (half_cs, [L("4", "Z"), L("3", "X"), L("3p", "X"), d2(c2, s2), p11()]),
        (half_cs, [L("4", "I"), p33(), d2(-c2, s2), L("1", "Y"), L("1p", "Y")]),
        (half_cs, [L("4", "I"), p33(), d2(c2, -s2), L("1", "X"), L("1p", "X")]),
        (-half_cs, [L("4", "Z"), L("3", "Y"), L("3p", "Y"), d2(c2, s2), p11()]),
        (half_cs * cs, [L("4", "I"), L("3", "X"), L("3p", "X"), L("2", "X"), p11(-1.0)]),
        (fix * half_cs * cs, [L("4", "I"), L("3", "Y"), L("3p", "Y"), L("2", "X"), p11(-1.0)]),
        (half_c2s2, [L("4", "Z"), p33(), L("2", "Y"), L("1", "X"), L("1p", "Y")]),
        (half_c2s2, [L("4", "Z"), p33(), L("2", "Y"), L("1", "Y"), L("1p", "X")]),
        (half_cs * half_cs, [L("4", "Z"), L("3", "X"), L("3p", "X"), d2(c2, -s2), L("1", "X"), L("1p", "X")]),
        (half_cs * half_cs, [L("4", "Z"), L("3", "Y"), L("3p", "Y"), d2(-c2, s2), L("1", "X"), L("1p", "X")]),
        (half_cs * half_cs, [L("4", "Z"), L("3", "X"), L("3p", "X"), d2(-c2, s2), L("1", "Y"), L("1p", "Y")]),
        (half_cs * half_cs, [L("4", "Z"), L("3", "Y"), L("3p", "Y"), d2(c2, -s2), L("1", "Y"), L("1p", "Y")]),
        (half_cs * half_c2s2, [L("4", "I"), L("3", "X"), L("3p", "X"), L("2", "Y"), L("1", "X"), L("1p", "Y")]),
        (fix * half_cs * half_c2s2, [L("4", "I"), L("3", "Y"), L("3p", "Y"), L("2", "Y"), L("1", "X"), L("1p", "Y")]),
        (half_cs * half_c2s2, [L("4", "I"), L("3", "X"), L("3p", "X"), L("2", "Y"), L("1", "Y"), L("1p", "X")]),
        (fix * half_cs * half_c2s2, [L("4", "I"), L("3", "Y"), L("3p", "Y"), L("2", "Y"), L("1", "Y"), L("1p", "X")]),
        (1.0, [L("4", "X"), p33(-1.0), d2(c2, -s2), p11()]),
        (cs, [L("4", "Y"), p33(-1.0), L("2", "Y"), p11(-1.0)]),
        (half_cs, [L("4", "X"), p33(-1.0), d2(c2, s2), L("1", "X"), L("1p", "X")]),
        (fix * half_cs, [L("4", "X"), p33(-1.0), d2(c2, s2), L("1", "Y"), L("1p", "Y")]),
        (half_cs, [L("4", "Y"), L("3", "X"), L("3p", "Y"), d2(c2, -s2), p11()]),
        (half_cs, [L("4", "Y"), L("3", "Y"), L("3p", "X"), d2(c2, -s2), p11()]),
        (half_c2s2, [L("4", "Y"), _pair("3", "3p", -c2, s2), L("2", "X"), L("1", "X"), L("1p", "Y")]),
        (half_c2s2, [L("4", "Y"), _pair("3", "3p", -c2, s2), L("2", "X"), L("1", "Y"), L("1p", "X")]),
        (half_cs * cs, [L("4", "X"), L("3", "X"), L("3p", "Y"), L("2", "Y"), _pair("1", "1p", -c2, s2)]),
        (half_cs * cs, [L("4", "X"), L("3", "Y"), L("3p", "X"), L("2", "Y"), _pair("1", "1p", -c2, s2)]),
        (half_cs * half_cs, [L("4", "Y"), L("3", "Y"), L("3p", "X"), d2(-c2, fix * s2), L("1", "Y"), L("1p", "Y")]),
        (half_cs * half_cs, [L("4", "Y"), L("3", "Y"), L("3p", "X"), d2(c2, -fix * s2), L("1", "X"), L("1p", "X")]),
        (half_cs * half_cs, [L("4", "Y"), L("3", "X"), L("3p", "Y"), d2(c2, -fix * s2), L("1", "X"), L("1p", "X")]),
        (half_cs * half_cs, [L("4", "Y"), L("3", "X"), L("3p", "Y"), d2(-c2, fix * s2), L("1", "Y"), L("1p", "Y")]),
        (half_cs * half_c2s2, [L("4", "X"), L("3", "Y"), L("3p", "X"), L("2", "X"), L("1", "X"), L("1p", "Y")]),
        (half_cs * half_c2s2, [L("4", "X"), L("3", "Y"), L("3p", "X"), L("2", "X"), L("1", "Y"), L("1p", "X")]),
        (half_cs * half_c2s2, [L("4", "X"), L("3", "X"), L("3p", "Y"), L("2", "X"), L("1", "X"), L("1p", "Y")]),
        (half_cs * half_c2s2, [L("4", "X"), L("3", "X"), L("3p", "Y"), L("2", "X"), L("1", "Y"), L("1p", "X")]),
    ]
    if len(terms) != 36:
        raise AssertionError("expected 36 terms")
    return terms


def _expand_term(index: int, coeff: float, blocks: list) -> WitnessTerm:
    words: list[PauliWord] = []
    for combo in itertools.product(*blocks):
        w_coeff = complex(coeff)
        letters = {lab: "I" for lab in WITNESS_ORDER}
        for block_coeff, assignment in combo:
            w_coeff *= block_coeff
            letters.update(assignment)
        if abs(w_coeff) < 1e-300:
            continue
        words.append(
            PauliWord(WITNESS_ORDER, tuple(letters[l] for l in WITNESS_ORDER), w_coeff)
        )
    # Derived setting: Z wherever the term is diagonal, else its unique letter.
    setting = []
    for pos, lab in enumerate(WITNESS_ORDER):
        used = {w.letters[pos] for w in words} - {"I"}
        if used <= {"Z"}:
            setting.append("Z")
        elif len(used) == 1:
            setting.append(used.pop())
        else:
            raise AssertionError(f"term {index} mixes letters {used} on {lab}")
    return WitnessTerm(index, tuple(words), "".join(setting))


def witness_terms(theta: float = pi / 6, corrected: bool = False) -> tuple[WitnessTerm, ...]:
    """The 36 decomposition terms (literal transcription by default).

    The terms are immutable, so each (theta, variant) is expanded once and
    the same tuple is returned on every later call.  A degenerate theta
    (sin or cos zero, or not finite) raises ``ValueError``.
    """
    return _witness_terms(float(theta), bool(corrected))


@functools.lru_cache(maxsize=8)
def _witness_terms(theta: float, corrected: bool) -> tuple[WitnessTerm, ...]:
    _check_theta(theta)
    return tuple(
        _expand_term(i + 1, coeff, blocks)
        for i, (coeff, blocks) in enumerate(_term_specs(theta, corrected))
    )


@dataclass(frozen=True)
class WitnessReport:
    """Sum of the decomposition terms and its residual diagnostics."""

    total: np.ndarray  # 64x64 operator on WITNESS_ORDER
    residual_maxabs: float
    residual_opnorm: float
    best_scale: float  # scalar minimizing ||scale*total - projector||_F
    corrected: bool
    term_expectations: tuple[float, ...]  # <psi6|M_i|psi6>
    derived_settings: tuple[str, ...]
    unmatched_tabulated: tuple[str, ...]
    unmatched_terms: tuple[int, ...]


def assemble_witness(theta: float = pi / 6, corrected: bool = False) -> WitnessReport:
    """Sum the 36 terms and report the residual against the target projector.

    With ``corrected=False`` the terms are the literal tabulation; its sum
    is twice the projector (a dropped factor 1/2) plus the nine term defects
    listed in ``_term_specs``, and all of that shows up in the residual.
    ``corrected=True`` applies the factor 1/2 and the term repairs, after
    which the residual is at rounding level.

    The report depends only on (theta, variant), so each is assembled once
    (36 term matrices, their expectations, a 2-norm and the residuals) and
    the same report is returned on every later call.  Its ``total`` is
    read-only: copy it before editing, e.g. ``report.total.copy()``.
    """
    return _assemble_witness(float(theta), bool(corrected))


@functools.lru_cache(maxsize=8)
def _assemble_witness(theta: float, corrected: bool) -> WitnessReport:
    terms = witness_terms(theta, corrected)
    psi = build_psi6(theta).reorder(WITNESS_ORDER)
    total = np.zeros((psi.amps.size,) * 2, dtype=complex)
    expectations = []
    for t in terms:  # one term matrix alive at a time
        m = t.matrix()
        total += m
        expectations.append(psi.expectation(m))
    if corrected:
        total = total / 2.0
    total.setflags(write=False)
    proj = np.outer(psi.amps, np.conj(psi.amps))
    delta = total - proj
    residual_maxabs = float(np.max(np.abs(delta)))
    residual_opnorm = float(np.linalg.norm(delta, 2))
    denom = float(np.real(np.vdot(total, total)))
    best_scale = float(np.real(np.vdot(total, proj)) / denom) if denom > 0 else 0.0

    tabulated = list(TABULATED_SETTINGS)
    unmatched_terms = []
    for t in terms:
        if t.setting in tabulated:
            tabulated.remove(t.setting)
        else:
            unmatched_terms.append(t.index)
    return WitnessReport(
        total=total,
        residual_maxabs=residual_maxabs,
        residual_opnorm=residual_opnorm,
        best_scale=best_scale,
        corrected=corrected,
        term_expectations=tuple(expectations),
        derived_settings=tuple(t.setting for t in terms),
        unmatched_tabulated=tuple(tabulated),
        unmatched_terms=tuple(unmatched_terms),
    )


# ---------------------------------------------------------------------------
# Fidelity from per-setting measurement data
# ---------------------------------------------------------------------------

def exact_setting_cells(
    state: State, settings: Sequence[str] | None = None
) -> dict[str, np.ndarray]:
    """Exact outcome-cell probabilities per setting, keyed by setting string.

    The state is reordered to WITNESS_ORDER; cell index bits follow the
    setting string (first letter = most significant bit).
    """
    if settings is None:
        settings = sorted({t.setting for t in witness_terms()})
    return dict(zip(settings, exact_probabilities(state.reorder(WITNESS_ORDER), settings)))


def counts_to_cells(counts: CountsTable) -> dict[str, np.ndarray]:
    """Normalize a counts table into per-setting relative frequencies."""
    if tuple(counts.labels) != WITNESS_ORDER:
        raise ValueError(f"counts table must be over qubits {WITNESS_ORDER}")
    totals = counts.counts.sum(axis=1)
    if np.any(totals <= 0):
        raise ValueError(f"setting {counts.settings[np.argmax(totals <= 0)]} has no counts")
    return dict(zip(counts.settings, counts.counts / totals[:, None]))


def fidelity_from_settings(
    cell_data: Mapping[str, Sequence[float]],
    *,
    theta: float = pi / 6,
    corrected: bool = False,
) -> float:
    """Fidelity estimate assembled purely from per-setting outcome cells.

    ``cell_data`` maps each required setting string (WITNESS_ORDER letters)
    to its 2^6 outcome-cell relative frequencies.  Every term is evaluated
    from its own setting's cells via parity sums — exactly how the value is
    extracted from coincidence counts.  With exact cell probabilities this
    equals Tr(rho * sum M_i) up to rounding (i.e. the target fidelity plus
    the decomposition residual's contribution).

    The 36 rows are stacked in one pass, gathered into a (cells, words)
    array by the parity table, multiplied by its signs and summed over the
    cells with one ``np.add.reduce(axis=0)``; the words' values are then
    laid out as (word slot, term) and summed over the slots the same way.
    A reduction over the leading axis of a C-contiguous array adds row
    after row (numpy sums pairwise only along the contiguous axis), so each
    sum runs in cell or word order.  The zero padding of short terms and
    the missing leading 0.0 of a scalar loop can change only the sign of a
    zero term, and the final sum over the terms starts from +0.0.  The
    estimate therefore equals a scalar loop over terms, words and cells to
    the last bit, and printed estimates keep their bytes.

    A missing setting raises ``KeyError`` and a row that is not 64 cells
    raises ``ValueError``, both naming the setting.
    """
    settings, gather, signs, coeffs, slots, slot_shape = _parity_table(
        float(theta), bool(corrected)
    )
    try:
        # get: a mapping's __missing__ must not stand in for an absent setting
        stacked = np.array([cell_data.get(s) for s in settings], dtype=float)
    except ValueError:  # ragged rows, or a missing setting among rows
        stacked = None
    if stacked is None or stacked.shape != (len(settings), 64):
        stacked = _checked_rows(cell_data, witness_terms(theta, corrected))
    cells = stacked.take(gather)
    cells *= signs
    by_slot = np.zeros(slot_shape)
    np.put(by_slot, slots, np.add.reduce(cells, axis=0) * coeffs)
    total = 0.0
    for term in np.add.reduce(by_slot, axis=0).tolist():
        total += term
    if corrected:
        total /= 2.0
    return float(total)


def _checked_rows(
    cell_data: Mapping[str, Sequence[float]], terms: Sequence[WitnessTerm]
) -> np.ndarray:
    """The terms' cell rows stacked, scanned term by term: the first absent
    setting raises ``KeyError`` and the first row not of shape (64,) raises
    ``ValueError``."""
    rows = []
    for term in terms:
        if term.setting not in cell_data:
            raise KeyError(f"missing setting {term.setting} for term {term.index}")
        if np.shape(cell_data[term.setting]) != (64,):
            raise ValueError(f"setting {term.setting}: expected 64 cells")
        rows.append(cell_data[term.setting])
    return np.array(rows, dtype=float)


@functools.lru_cache(maxsize=8)
def _parity_table(
    theta: float, corrected: bool
) -> tuple[tuple[str, ...], np.ndarray, np.ndarray, np.ndarray, np.ndarray, tuple[int, int]]:
    """What ``fidelity_from_settings`` needs besides the cells, built once
    per (theta, variant); the arrays are read-only.

    In order: each term's setting; the (64 cells, words) flat index into
    the stacked (terms, 64) cells, whose column w reads the cells of word
    w's term; the words' parity signs in that layout; the words' real
    coefficients; each word's flat index into a (word slots, terms) array,
    row k holding the k-th word of every term; and that array's shape.
    """
    terms = witness_terms(theta, corrected)
    words = [w for t in terms for w in t.words]
    sizes = [len(t.words) for t in terms]
    word_term = np.repeat(np.arange(len(terms)), sizes)
    cell = np.arange(64)[:, None]
    gather = word_term * 64 + cell
    signs = _parity_signs(cell & _bit_masks(words, "XYZ"))
    coeffs = np.array([w.coefficient.real for w in words])
    slot = np.concatenate([np.arange(size) for size in sizes])
    slots = slot * len(terms) + word_term
    for a in (gather, signs, coeffs, slots):
        a.setflags(write=False)
    settings = tuple(t.setting for t in terms)
    return settings, gather, signs, coeffs, slots, (max(sizes), len(terms))
