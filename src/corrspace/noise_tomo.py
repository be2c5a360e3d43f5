"""White-noise models, synthetic counts, and maximum-likelihood tomography.

Settings are strings of per-qubit Pauli letters (e.g. "ZXZY"), one letter
per register qubit; each setting yields 2^n outcome cells corresponding to
the +/- eigenstate products.  The default informationally (over-)complete
set is the full 3^n product grid, whose cells enumerate exactly the
6^n per-qubit projector combinations.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from . import qmath as qm
from .qmath import State
from .measurement import pauli_basis

_LETTERS = ("Z", "X", "Y")


def white_noise(
    state: qm.StateVector,
    fidelity_target: float | None = None,
    *,
    weight: float | None = None,
) -> qm.DensityMatrix:
    """Mix a pure state with the maximally mixed state.

    rho = w |psi><psi| + (1 - w) I / 2^n.  Specify either the mixing
    ``weight`` w directly or the desired ``fidelity_target``
    <psi|rho|psi> = w + (1 - w)/2^n, which must exceed the mixed floor
    1/2^n.

    The matrix is built in place from one outer product, with the bytes of
    the expression above: ``*= w`` is the same complex-by-scalar multiply,
    ``+= 0.0`` adds the zero that the identity's off-diagonal adds (turning
    a -0.0 into +0.0), and the diagonal then gains (1 - w) / 2^n.
    """
    if (fidelity_target is None) == (weight is None):
        raise ValueError("provide exactly one of fidelity_target or weight")
    n = state.n_qubits
    dim = 2**n
    if weight is None:
        floor = 1.0 / dim
        if not floor < fidelity_target <= 1.0:
            raise ValueError(
                f"fidelity target must lie in ({floor:.6g}, 1] for {n} qubits"
            )
        weight = (dim * fidelity_target - 1.0) / (dim - 1.0)
    if not 0.0 <= weight <= 1.0:
        raise ValueError("mixing weight must lie in [0, 1]")
    psi, _ = state.normalized()
    mat = np.outer(psi.amps, np.conj(psi.amps))
    mat *= weight
    mat += 0.0
    mat.reshape(-1)[:: dim + 1] += (1.0 - weight) / dim
    return qm.DensityMatrix(state.labels, mat)


def product_settings(n_qubits: int) -> tuple[str, ...]:
    """The full 3^n grid of product settings over Z, X and Y."""
    return tuple("".join(p) for p in itertools.product(_LETTERS, repeat=n_qubits))


def setting_kets(setting: str) -> np.ndarray:
    """(2^n, 2^n) array whose row o is the product ket of outcome cell o.

    Bit k of the cell index (MSB first, matching the setting string) selects
    eigenstate 0 (+1) or 1 (-1) of that qubit's letter.
    """
    pairs = [pauli_basis(letter).kets for letter in setting]
    out = pairs[0].copy()
    for pair in pairs[1:]:
        # kron over both the outcome index and the amplitude index
        out = np.einsum("oi,pj->opij", out, pair).reshape(2 * len(out), -1)
    return out


@dataclass(frozen=True)
class CountsTable:
    """Measurement records: one row of 2^n outcome-cell counts per setting."""

    labels: tuple[str, ...]
    settings: tuple[str, ...]
    counts: np.ndarray  # (n_settings, 2^n) nonnegative integers
    shots: int
    mode: str = "multinomial"

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", _strings(self.labels, "labels"))
        object.__setattr__(self, "settings", _strings(self.settings, "settings"))
        counts = _integer_counts(self.counts)
        object.__setattr__(self, "counts", counts)
        if not _is_integer(self.shots) or self.shots < 0:
            raise ValueError(f"shots must be a nonnegative integer, got {self.shots!r}")
        object.__setattr__(self, "shots", int(self.shots))
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate qubit labels")
        n = len(self.labels)
        if any(len(s) != n for s in self.settings):
            raise ValueError("every setting must have one letter per qubit")
        if counts.shape != (len(self.settings), 2**n):
            raise ValueError("counts array shape does not match settings/register")
        if np.any(counts < 0):
            raise ValueError("counts must be nonnegative")
        if self.mode not in ("multinomial", "poisson"):
            raise ValueError("mode must be 'multinomial' or 'poisson'")
        if self.mode == "multinomial" and np.any(counts.sum(axis=1) != self.shots):
            raise ValueError("multinomial counts must sum to shots per setting")

    @property
    def n_qubits(self) -> int:
        return len(self.labels)


def _strings(value, field: str) -> tuple[str, ...]:
    """``value`` as a tuple of strings.  It must be a list or tuple: a bare
    string would read as one entry per character."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{field} must be a list of strings, got {value!r}")
    for item in value:
        if not isinstance(item, str):
            raise ValueError(f"{field} must be strings, got {item!r}")
    return tuple(value)


def _is_integer(value) -> bool:
    """True for Python and numpy integers; bools (JSON true) are not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _integer_counts(counts) -> np.ndarray:
    """``counts`` as an int64 array.  Every value must be an integer: numpy
    would truncate 4.7 to 4 and -0.5 to 0, and read JSON true as 1."""
    if not (isinstance(counts, np.ndarray) and counts.dtype.kind in "iu"):
        for value in np.asarray(counts, dtype=object).flat:
            if not _is_integer(value):
                raise ValueError(f"counts must be integers, got {value!r}")
    return np.asarray(counts, dtype=np.int64)


def exact_probabilities(rho: State, settings: Sequence[str]) -> np.ndarray:
    """Born probabilities of every outcome cell: shape (n_settings, 2^n).

    Every outcome cell of a product setting is one of the 6^n product
    projectors, so the cells are read from ``_projector_probs`` (two small
    matrix products of rho, the kernel ML tomography uses) and clipped at 0.
    Only the projector rows that the settings use are multiplied: the
    head-block rows of their head letters and the tail-block rows of their
    tail letters (for the 36 psi6 witness settings, 72 of the 216 rows in
    each block).  A full 3^n grid uses every row.  Each setting must have
    one Z, X or Y letter per register qubit; a bare string is rejected, as
    it would read as one setting per letter.
    """
    if isinstance(settings, str):
        raise ValueError(f"settings must be a list of strings, got {settings!r}")
    if isinstance(rho, qm.StateVector):
        rho = rho.to_density()
    n = rho.n_qubits
    head, tail, cells = _setting_rows(tuple(settings), n)
    out = _projector_probs(rho.mat, head, tail)[cells].reshape(len(settings), 2**n)
    np.clip(out, 0.0, None, out=out)
    return out


def simulate_counts(
    rho: State,
    settings: Sequence[str] | None = None,
    shots: int = 1000,
    seed: int | None = None,
    mode: str = "multinomial",
    rng: np.random.Generator | None = None,
) -> CountsTable:
    """Draw synthetic outcome counts for each setting.

    multinomial mode draws a single multinomial of size ``shots`` per
    setting; poisson mode draws each cell independently with mean
    shots * p(cell).  The whole table is drawn in one generator call, which
    walks the settings in order, so the stream is that of one call per
    setting.  The draws come from ``rng``, or from a generator seeded with
    ``seed``; giving both raises ``ValueError``.  ``shots`` and ``mode``
    are checked before any probability is computed or any number drawn.
    """
    if not _is_integer(shots):
        raise ValueError(f"shots must be a nonnegative integer, got {shots!r}")
    if shots < 1:
        raise ValueError("shots must be >= 1")
    if mode not in ("multinomial", "poisson"):
        raise ValueError("mode must be 'multinomial' or 'poisson'")
    if seed is not None and rng is not None:
        raise ValueError("provide at most one of seed= or rng=")
    labels = rho.labels
    if settings is None:
        settings = product_settings(len(labels))
    probs = exact_probabilities(rho, settings)  # rejects a bare string first
    probs /= probs.sum(axis=1, keepdims=True)
    if rng is None:
        rng = np.random.default_rng(seed)
    if mode == "multinomial":
        counts = rng.multinomial(shots, probs)
    else:
        counts = rng.poisson(shots * probs)
    return CountsTable(labels, tuple(settings), counts, shots, mode)


@dataclass(frozen=True)
class ReconstructionResult:
    """Output of the maximum-likelihood reconstruction.

    ``likelihood_gap_bound`` is the certificate of Glancy, Knill & Girard
    (NJP 14, 095017, 2012): N_total (lambda_max(R(rho)) - 1) bounds how far
    the log-likelihood sum_cells f log p of ``rho`` lies below its maximum
    over all density matrices.  ``stop`` names why the fit ended:
    "certificate", "gain", "rounding floor" or "max_iters" (see
    ``ml_reconstruct``).

    ``informationally_complete`` is true exactly when the counts hold all
    3^n product settings, in any order and with any repeats.  The cells of
    setting s span the Pauli words with I or s_k on each qubit k; Pauli
    words are orthogonal, and a word with no I is spanned only by its own
    setting.
    """

    rho: qm.DensityMatrix
    log_likelihood: float
    iterations: int
    fidelity_to_target: float | None = None
    informationally_complete: bool = True
    likelihood_gap_bound: float | None = None
    stop: str | None = None

    def __post_init__(self) -> None:
        eigs = np.linalg.eigvalsh(self.rho.mat)
        if eigs.min() < -1e-10:
            raise ValueError("reconstructed state must be PSD within 1e-10")
        if abs(self.rho.trace - 1.0) > 1e-9:
            raise ValueError("reconstructed state must have unit trace within 1e-9")


# Product projectors: per qubit, index a = 2 * letter + outcome over the six
# eigenkets of Z, X and Y; an n-qubit projector index reads its n base-6
# digits MSB first, like the qubits of a setting string.
@functools.lru_cache(maxsize=None)
def _projector_block(k: int) -> np.ndarray:
    """Read-only M (6^k, 4^k) with M[a, (I, J)] = conj(K[a, I]) K[a, J].

    Row a of K, the k-fold Kronecker power of the six stacked eigenkets, is
    the k-qubit product ket of projector a.  So <k_a|rho|k_a> = sum_IJ
    M[a, (I, J)] rho[I, J], and sum_a w_a |k_a><k_a| is M^H w.
    """
    kets = np.ones((1, 1), dtype=complex)
    single = np.concatenate([pauli_basis(letter).kets for letter in _LETTERS])
    for _ in range(k):
        kets = np.einsum("ai,bj->abij", kets, single).reshape(6 * len(kets), -1)
    m = np.einsum("ai,aj->aij", np.conj(kets), kets).reshape(6**k, 4**k)
    m.setflags(write=False)
    return m


def _halves(n: int) -> tuple[int, int]:
    """Qubits in the head and tail blocks of an n-qubit register."""
    return (n + 1) // 2, n // 2


_P_FLOOR = 1e-300
# A fit stops once its likelihood-gap certificate is at most this many nats.
_GAP_TOL = 1.0


def _projector_probs(rho: np.ndarray, head: np.ndarray, tail: np.ndarray) -> np.ndarray:
    """Born probabilities of the product projectors of two blocks, unclipped.

    ``head`` and ``tail`` hold rows of ``_projector_block`` for the head and
    tail qubits (see ``_halves``).  rho regrouped as T[(I_h, J_h), (I_t, J_t)]
    gives P = head T tail^T, whose row-major entries are the probabilities
    of every (head row, tail row) pair; with the full blocks, of all 6^n
    projectors in base-6 digit order.  This is the one Born routine: ML
    tomography passes the full blocks and clips at _P_FLOOR so that
    logarithms and ratios stay finite, and ``exact_probabilities`` passes
    the rows its settings use and clips its cells at 0.
    """
    dh = math.isqrt(head.shape[1])  # 2^h
    dt = len(rho) // dh
    blocks = rho.reshape(dh, dt, dh, dt).transpose(0, 2, 1, 3)
    probs = head @ blocks.reshape(dh * dh, dt * dt) @ tail.T
    return probs.real.reshape(-1)


def _projector_operator(n: int) -> Callable[[np.ndarray], np.ndarray]:
    """The map w -> R = sum_a w_a P_a over the 6^n product projectors,
    M_h^H W conj(M_t).  It reads its blocks and shapes once, when made."""
    h, t = _halves(n)
    head, tail = _projector_block(h).conj().T, _projector_block(t).conj()
    grid, blocks, dim = (6**h, 6**t), (2**h, 2**h, 2**t, 2**t), (2**n, 2**n)

    def operator(w: np.ndarray) -> np.ndarray:
        return (head @ w.reshape(grid) @ tail).reshape(blocks).transpose(0, 2, 1, 3).reshape(dim)
    return operator


def _density_projection(h: np.ndarray) -> np.ndarray:
    """The density matrix nearest to the Hermitian matrix h (Frobenius norm).

    It keeps the eigenvectors of h and projects the eigenvalues onto the
    probability simplex: v -> max(v - tau, 0), with the one shift tau that
    makes them sum to 1.  With u the eigenvalues in descending order, the
    test j u_j > u_1 + ... + u_j - 1 holds exactly for the first k of them
    (always for j = 1, which rounding can hide when u_1 is huge), and
    tau = (u_1 + ... + u_k - 1) / k.  One loop counts the j that pass; its
    running sum adds in order, as ``np.cumsum`` does.  The shift is measured
    from u_k, v - tau = (v - u_k) + (1 - sum_{j<=k} (u_j - u_k)) / k, so that
    no huge u_1 cancels against the 1.  Only the lower triangle of h is read.
    """
    vals, vecs = np.linalg.eigh(h)
    top = vals[::-1]
    k, run = 0, 0.0
    for j, u in enumerate(top.tolist(), 1):
        run += u
        k += u * j > run - 1.0
    k = max(k, 1)
    vals = np.maximum((vals - top[k - 1]) + (1.0 - (top[:k] - top[k - 1]).sum()) / k, 0.0)
    return (vecs * vals) @ vecs.conj().T


@functools.lru_cache(maxsize=64)
def _setting_cells(settings: tuple[str, ...], n: int) -> np.ndarray:
    """Read-only projector index of every (setting, outcome) cell of an
    n-qubit register, setting-major like ``CountsTable.counts``."""
    for s in settings:
        if len(s) != n:
            raise ValueError(
                f"setting {s!r} has {len(s)} letters; the register has {n} qubits"
            )
    try:
        letters = np.array([[_LETTERS.index(c) for c in s] for s in settings], dtype=int)
    except ValueError:
        raise ValueError(
            f"unknown Pauli letter in settings {settings!r}; expected Z, X or Y"
        ) from None
    bits = (np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)) & 1  # (2^n, n)
    digits = 2 * letters.reshape(len(settings), 1, n) + bits[None, :, :]
    cells = (digits @ 6 ** np.arange(n - 1, -1, -1)).reshape(-1)
    cells.setflags(write=False)
    return cells


@functools.lru_cache(maxsize=64)
def _setting_rows(
    settings: tuple[str, ...], n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only (head, tail, cells) for ``exact_probabilities``: the rows of
    the head and tail ``_projector_block`` that the settings' cells use, in
    ascending order, and the index of every (setting, outcome) cell in the
    row-major head x tail grid of ``_projector_probs(rho, head, tail)``."""
    h, t = _halves(n)
    head_index, tail_index = np.divmod(_setting_cells(settings, n), 6**t)
    head_rows, head_pos = np.unique(head_index, return_inverse=True)
    tail_rows, tail_pos = np.unique(tail_index, return_inverse=True)
    head = _projector_block(h)[head_rows]
    tail = _projector_block(t)[tail_rows]
    cells = head_pos * len(tail_rows) + tail_pos
    for a in (head, tail, cells):
        a.setflags(write=False)
    return head, tail, cells


def _log_likelihood(
    p_obs: np.ndarray, f_obs: np.ndarray, mult: np.ndarray, probs: np.ndarray,
    shots: int, mode: str,
) -> float:
    """Log-likelihood from the probabilities ``p_obs`` of the projectors that
    hold counts, their counts ``f_obs``, and the multiplicity and
    probability of every projector."""
    if mode == "poisson":
        # cells enter independently: sum f log(mu) - mu with mu = shots * p
        return float(f_obs @ np.log(shots * p_obs) - shots * (mult @ probs))
    return float(f_obs @ np.log(p_obs))


def _initial_state(init: np.ndarray | None, dim: int) -> np.ndarray:
    """The starting density matrix: maximally mixed, or ``init`` checked and
    normalized to unit trace."""
    if init is None:
        return np.eye(dim, dtype=complex) / dim
    rho = np.asarray(init, dtype=complex)
    if rho.shape != (dim, dim):
        raise ValueError(f"init must have shape ({dim}, {dim}), got {rho.shape}")
    trace = np.trace(rho).real
    if not (np.isfinite(rho).all() and trace > 0):
        raise ValueError("init must be finite with positive trace")
    rho = rho / trace
    if np.abs(rho - rho.conj().T).max() > 1e-10:
        raise ValueError("init must be Hermitian")
    if np.linalg.eigvalsh(rho)[0] < -1e-10:
        raise ValueError("init must be positive semidefinite")
    return _density_projection(rho)


def ml_reconstruct(
    counts: CountsTable,
    target: qm.StateVector | None = None,
    *,
    max_iters: int = 10_000,
    tol: float = 1e-9,
    init: np.ndarray | None = None,
) -> ReconstructionResult:
    """Maximum-likelihood density matrix from outcome counts.

    Every outcome cell of a product setting is one of the 6^n product
    projectors over the Z, X and Y eigenkets, so the counts are summed per
    projector once and the iteration runs in projector space.  The Born
    probabilities of all projectors are two small matrix products of rho,
    regrouped by its head and tail qubits, with the per-block projector
    maps M (6^k x 4^k, the k-fold product of the single-qubit 6 x 4 map);
    R = sum_a f_a / (N p_a) P_a is the adjoint pair of products with M^H.
    No cells x 2^n ket matrix is formed.

    The fit is accelerated projected gradient ascent (FISTA; Shang, Zhang &
    Ng, PRA 95, 062336, 2017).  R is the gradient of the log-likelihood per
    count (in Poisson mode up to a multiple of the identity, which does not
    move a trace-1 step).  Each iteration steps from the momentum point
    y = rho + k/(k + 3) (rho - rho_prev), k being the steps accepted since
    the last restart, to the density matrix nearest y + t R: one eigh, then
    the eigenvalues projected onto the probability simplex.  Each iteration
    tries 1.25 times the last step size t (1 before the first) and halves
    it until the sufficient-ascent condition
    L(new) >= L(y) + N (<R, d> - |d|^2 / 2t), with d = new - y, holds.
    When the new point would lower the likelihood, or y gives an observed
    cell no probability, the momentum restarts with a plain step from rho,
    so accepted iterates never lower the likelihood.

    The fit stops at the first of four events, which ``stop`` names.
    "certificate": on every 4th iteration the accepted iterate's bound
    N (lambda_max(R) - 1) on its distance to the maximum log-likelihood
    (Glancy, Knill & Girard, NJP 14, 095017, 2012), in absolute nats, is at
    most 1 nat (``_GAP_TOL``).  "gain": an accepted step gains less than
    ``tol``.  "rounding floor": a plain step from the current iterate
    gains nothing.  "max_iters": ``max_iters`` iterations ran.  The stop
    rule never changes an iterate, so a fit that stops at iteration m is
    the fit capped at ``max_iters=m``.  The final matrix is projected once
    more (an eigenvalue clip at 0 with renormalization, which moves it only
    by rounding), and its own ``likelihood_gap_bound`` is reported; after a
    "certificate" stop it differs from the checked bound only by rounding.
    ``init`` (default maximally mixed) is any PSD matrix with positive
    trace, normalized here; it need not be full rank, but must give every
    observed cell a nonzero probability.

    The result is ``informationally_complete`` when the table holds all 3^n
    settings (see ``ReconstructionResult``); no rank is computed.

    A fit from the maximally mixed state is computed once per counts table:
    the last one is kept, keyed by the table's content, ``max_iters`` and
    ``tol``, so fitting the same table again (as ``monte_carlo_error`` does
    after its caller) reuses it.  Each call computes ``fidelity_to_target``
    for its own target.  The reused ``rho`` is shared and read-only: copy
    ``result.rho.mat`` before editing it.  Fits with ``init`` always run.
    """
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    if not (np.isfinite(tol) and tol >= 0):
        raise ValueError("tol must be finite and >= 0")
    if init is None:
        fit = _cold_fit(counts, max_iters, tol)
    else:
        fit = _fit(counts, max_iters, tol, init)
    if target is None:
        return fit
    return replace(fit, fidelity_to_target=qm.fidelity(fit.rho, target))


_last_cold_fit: tuple[tuple, ReconstructionResult] | None = None


def _cold_fit(counts: CountsTable, max_iters: int, tol: float) -> ReconstructionResult:
    """``_fit`` from the maximally mixed state, kept for the last table.

    The key is the table's content, never its identity: a counts array can
    be edited in place.
    """
    global _last_cold_fit
    key = (counts.labels, counts.settings, counts.counts.tobytes(), counts.shots,
           counts.mode, max_iters, tol)
    if _last_cold_fit is None or _last_cold_fit[0] != key:
        _last_cold_fit = key, _fit(counts, max_iters, tol, None)
    return _last_cold_fit[1]


def _fit(
    counts: CountsTable, max_iters: int, tol: float, init: np.ndarray | None
) -> ReconstructionResult:
    """The fit of ``ml_reconstruct``, with no target and a read-only rho."""
    n = counts.n_qubits
    if not counts.settings:
        raise ValueError("counts table has no settings")
    cells = _setting_cells(counts.settings, n)
    m_head, m_tail = (_projector_block(k) for k in _halves(n))
    mult = np.bincount(cells, minlength=6**n).astype(float)  # no cast in the Poisson dot
    freq = np.bincount(cells, weights=counts.counts.reshape(-1), minlength=6**n)
    # The cells of setting s span the Pauli words with I or s_k on each qubit k;
    # words are orthogonal, so a word with no I needs s itself: all 3^n settings.
    complete = len(set(counts.settings)) == 3**n
    total = freq.sum()
    if total <= 0:
        raise ValueError("counts table is empty")
    # the projectors that hold counts: all of them (a view, not a gather) or a list
    obs = slice(None) if (freq > 0).all() else np.flatnonzero(freq > 0)
    f_obs = freq[obs]
    operator = _projector_operator(n)

    def evaluate(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        p = np.maximum(_projector_probs(rho, m_head, m_tail), _P_FLOOR)
        p_obs = p[obs]
        return p, p_obs, _log_likelihood(p_obs, f_obs, mult, p, counts.shots, counts.mode)

    def r_operator(p: np.ndarray) -> np.ndarray:
        return operator(freq / (total * p))

    def gap_bound(p: np.ndarray) -> float:
        return float(total * (np.linalg.eigvalsh(r_operator(p))[-1] - 1.0))

    def ascent_step(y, p_y, ll_y, step):
        """Backtracked projected step from y: (rho, p, ll, step).  ll is -inf
        once halving the step no longer changes the new point."""
        R = r_operator(p_y)
        last = None
        while True:
            new = _density_projection(y + step * R)
            p_new, _, ll_new = evaluate(new)
            d = new - y
            model = np.vdot(R, d).real - np.vdot(d, d).real / (2.0 * step)
            if ll_new >= ll_y + total * model:
                return new, p_new, ll_new, step
            if last is not None and np.array_equal(new, last):
                return new, p_new, -np.inf, step
            last, step = new, step / 2.0

    rho = _initial_state(init, 2**n)
    p, p_obs, ll = evaluate(rho)
    if p_obs.min() <= _P_FLOOR:
        raise ValueError("init gives an observed cell zero probability")
    prev, k, step = rho, 0, 1.0
    for iters in range(1, max_iters + 1):
        step *= 1.25
        ll_new = -np.inf
        if k:
            y = rho + k / (k + 3) * (rho - prev)
            p_y, p_obs, ll_y = evaluate(y)
            if p_obs.min() > _P_FLOOR:
                new, p_new, ll_new, step = ascent_step(y, p_y, ll_y, step)
        if ll_new < ll:
            k = 0
            new, p_new, ll_new, step = ascent_step(rho, p, ll, step)
            if ll_new <= ll:
                stop = "rounding floor"
                break
        k += 1
        gain = ll_new - ll
        prev, rho, p, ll = rho, new, p_new, ll_new
        if gain < tol:
            stop = "gain"
            break
        # The certificate costs an R operator and an eigvalsh, so it is
        # checked on every 4th iterate only.
        if iters % 4 == 0 and gap_bound(p) <= _GAP_TOL:
            stop = "certificate"
            break
    else:
        stop = "max_iters"

    # Defensive eigenvalue clip: iterates are projections already, so this
    # moves rho only by rounding.
    rho = _density_projection((rho + rho.conj().T) / 2)
    dm = qm.DensityMatrix(counts.labels, rho)
    dm.mat.setflags(write=False)
    return ReconstructionResult(
        rho=dm,
        log_likelihood=ll,
        iterations=iters,
        informationally_complete=complete,
        likelihood_gap_bound=gap_bound(evaluate(rho)[0]),
        stop=stop,
    )


def monte_carlo_error(
    counts: CountsTable,
    target: qm.StateVector,
    runs: int = 100,
    seed: int | None = None,
    *,
    max_iters: int = 10_000,
    tol: float = 1e-9,
) -> tuple[float, float]:
    """Poisson-resampled repetition of the whole reconstruction.

    Each run replaces every count cell by a Poisson draw with that cell's
    observed mean and reruns the reconstruction; returns the sample mean
    and standard deviation of the fidelity to ``target``.  Run seeds are
    derived deterministically from ``seed``.  Runs are warm-started from
    the point estimate, which leaves each run's optimum unchanged and
    shortens its fit.  The point estimate is ``ml_reconstruct`` of
    ``counts``: when the caller has just fitted the same table with the
    same ``max_iters`` and ``tol``, that fit and its shared, read-only
    ``rho`` are reused, so only the runs are fitted here.
    """
    if runs < 2:
        raise ValueError("runs must be >= 2")
    base = ml_reconstruct(counts, max_iters=max_iters, tol=tol)
    children = np.random.SeedSequence(seed).spawn(runs)
    fids = np.empty(runs)
    for i, child in enumerate(children):
        rng = np.random.default_rng(child)
        resampled = CountsTable(
            counts.labels,
            counts.settings,
            rng.poisson(counts.counts),
            counts.shots,
            mode="poisson",
        )
        res = ml_reconstruct(
            resampled, target, max_iters=max_iters, tol=tol, init=base.rho.mat
        )
        fids[i] = res.fidelity_to_target
    return float(fids.mean()), float(fids.std(ddof=1))
