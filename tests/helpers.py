"""Shared test utilities: random states, independent brute-force references,
and reference constructions that the library itself does not call.

The reference implementations here deliberately avoid the library's own
vectorized code paths (they loop over basis states and bits) so that tests
compare two genuinely different computations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import sqrt

import numpy as np

from corrspace import qmath as qm
from corrspace.measurement import MeasurementBasis, pauli_basis
from corrspace import noise_tomo
from corrspace.noise_tomo import setting_kets
from corrspace.protocols import _FRAME_OPERATORS, PauliFrame, success_probability
from corrspace.wires import LEFT, RIGHT, ResourceSpec, Wire, _check_theta, contract_resource

#: Joint amplitude factors of the two-photon conditional-phase combination
#: (overlapping filter cube plus a T_h = 1/3 filter on the second photon),
#: in the (HH, HV, VH, VV) basis of (first photon, second photon).
CPHASE_DIAG = np.array([sqrt(1.0 / 3.0), sqrt(1.0 / 3.0), 1.0 / 3.0, -1.0 / 3.0])

#: Controlled-X, first qubit the control (the coupling of ``couple_canonical``).
_CX = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)


def rz(angle: float) -> np.ndarray:
    """Rotation exp(-i*angle*Z/2) = diag(e^{-i a/2}, e^{i a/2})."""
    return np.array([[np.exp(-0.5j * angle), 0], [0, np.exp(0.5j * angle)]])


def rx(angle: float) -> np.ndarray:
    """Rotation exp(-i*angle*X/2)."""
    c, s = np.cos(angle / 2), np.sin(angle / 2)
    return np.array([[c, -1j * s], [-1j * s, c]])


def rand_state(labels, rng) -> qm.StateVector:
    """Haar-ish random pure state on the given labels."""
    n = len(labels)
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return qm.StateVector(tuple(labels), amps / np.linalg.norm(amps))


def rand_density(labels, rng) -> qm.DensityMatrix:
    """Random full-rank density matrix on the given labels."""
    d = 2 ** len(labels)
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = a @ a.conj().T
    return qm.DensityMatrix(tuple(labels), m / np.real(np.trace(m)))


def rand_unitary(rng, dim: int = 2) -> np.ndarray:
    """Random unitary via QR of a complex Gaussian matrix."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def manual_embed(op: np.ndarray, labels, targets) -> np.ndarray:
    """Bit-by-bit reference for lifting an operator onto a full register."""
    labels = list(labels)
    n = len(labels)
    dim = 2**n
    t_pos = [labels.index(t) for t in targets]
    k = len(t_pos)
    out = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        bits = [(col >> (n - 1 - j)) & 1 for j in range(n)]
        t_in = 0
        for t in t_pos:
            t_in = (t_in << 1) | bits[t]
        for t_out in range(2**k):
            a = op[t_out, t_in]
            if a == 0:
                continue
            new_bits = bits.copy()
            for m, t in enumerate(t_pos):
                new_bits[t] = (t_out >> (k - 1 - m)) & 1
            row = 0
            for b in new_bits:
                row = (row << 1) | b
            out[row, col] += a
    return out


def canonical_phase(vec: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Rescale by a unit phase so the first non-negligible entry is real > 0."""
    v = np.asarray(vec, dtype=complex).reshape(-1)
    for comp in v:
        if abs(comp) > tol:
            return v * (np.conj(comp) / abs(comp))
    return v.copy()


def states_equal(a: qm.StateVector, b: qm.StateVector, tol: float = 1e-12) -> bool:
    """Equality up to global phase: | |<a|b>| - 1 | < tol for unit vectors."""
    an, _ = a.normalized()
    bn, _ = b.normalized()
    return abs(abs(an.overlap(bn)) - 1.0) < tol


def vec_equal_up_to_phase(a: np.ndarray, b: np.ndarray, tol: float = 1e-10) -> bool:
    """Global-phase-insensitive comparison of two plain vectors."""
    a = np.asarray(a, dtype=complex).reshape(-1)
    b = np.asarray(b, dtype=complex).reshape(-1)
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0 or nb == 0:
        return na == nb
    return abs(abs(np.vdot(a / na, b / nb)) - 1.0) < tol


def mat_proportional(a: np.ndarray, b: np.ndarray, tol: float = 1e-10) -> bool:
    """True when a = z*b for some complex scalar z (b nonzero)."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    nb = np.linalg.norm(b)
    if nb == 0:
        return np.linalg.norm(a) < tol
    z = np.vdot(b, a) / nb**2
    return bool(np.linalg.norm(a - z * b) < tol * max(1.0, np.linalg.norm(a)))


def numpy_basis_B(zeta: float, theta: float = np.pi / 6) -> tuple[np.ndarray, np.ndarray, str]:
    """(ket0, ket1, name) of B(zeta, theta) built in numpy array arithmetic:
    the closed-form kets divided by ``np.linalg.norm``, then rephased."""
    _check_theta(theta)
    c, s = np.cos(theta), np.sin(theta)
    ch, sh = np.cos(zeta / 2), np.sin(zeta / 2)
    k0 = np.array([s * ch, 1j * c * sh])
    k1 = np.array([c * sh, -1j * s * ch])
    k0 = canonical_phase(k0 / np.linalg.norm(k0))
    k1 = canonical_phase(k1 / np.linalg.norm(k1))
    return k0, k1, f"B({zeta:.12g})"


def measured_collapse(data: np.ndarray, axis: int, vec: np.ndarray) -> tuple[np.float64, np.ndarray]:
    """One state's collapse as the measured step makes it: the unstacked
    kernel ``qm._collapse_one``, then ``measurement._measured_step``'s
    division by the norm sqrt(re . re + im . im) (pure) or by the
    probability (mixed).  Returns the probability and the divided array."""
    pure = data.ndim == 1
    prob, rest = qm._collapse_one(data, axis, vec, len(data).bit_length() - 1, pure)
    if pure:
        re, im = rest.real, rest.imag
        return prob, rest / sqrt(re.dot(re) + im.dot(im))
    return prob, rest / float(prob)


def numpy_frame_residuals(amps: np.ndarray, expected: np.ndarray) -> np.ndarray:
    """| |<a|e>| / (|a| |e|) - 1 | of every row of two (G, 2) stacks, in
    NumPy array arithmetic: the formula the frame check once used for a
    stack of rows, kept as the reference for its scalar formula."""
    overlap = np.abs((amps.conj() * expected).sum(axis=1))
    norms = np.sqrt((np.abs(amps) ** 2).sum(axis=1) * (np.abs(expected) ** 2).sum(axis=1))
    return np.abs(overlap / norms - 1.0)


def density_expectation(rho: qm.DensityMatrix, op_full: np.ndarray) -> float:
    """Real part of Tr(op rho) for a full-register operator."""
    return float(np.real(np.trace(op_full @ rho.mat)))


def frame_operator(frame: PauliFrame, wire: str) -> np.ndarray:
    """X^x Z^z of ``frame`` on ``wire``: the shared read-only table entry."""
    i = frame.wires.index(wire)
    return _FRAME_OPERATORS[frame.x[i], frame.z[i]]


def dense_pauli_expectation(state, assignments) -> float:
    """<P> through the dense 2^n x 2^n operator: the identity times one
    ``qm.embed`` lift per letter, then the state's expectation."""
    op = np.eye(2 ** len(state.labels), dtype=complex)
    for label, letter in assignments.items():
        op = op @ qm.embed(qm.PAULI[letter], state.labels, (label,))
    if isinstance(state, qm.DensityMatrix):
        return density_expectation(state, op)
    return state.expectation(op)


def brute_wire_amplitudes(wire) -> np.ndarray:
    """Sum over all outcome strings: amp[s1..sn] = <RIGHT| T[sn]...T[s1] |LEFT>."""
    n = len(wire.sites)
    amps = np.zeros(2**n, dtype=complex)
    for idx in range(2**n):
        bits = [(idx >> (n - 1 - k)) & 1 for k in range(n)]
        vec = LEFT.copy()
        for site, s in zip(wire.sites, bits):
            vec = site[s] @ vec
        amps[idx] = np.conj(RIGHT) @ vec
    return amps


def compensation_bound(alpha: float, theta: float = np.pi / 6, n_blocks: int = 1) -> float:
    """Lower bound p_s + (1-p_s)(1-(1-p_theta)^n) with n compensation blocks."""
    if n_blocks < 0:
        raise ValueError("n_blocks must be nonnegative")
    p_s, p_theta = success_probability(alpha, theta)
    return p_s + (1.0 - p_s) * (1.0 - (1.0 - p_theta) ** n_blocks)


def assert_same_transcript(a, b) -> None:
    """Two protocol transcripts agree field by field, every float exactly."""

    def steps(tr):
        return [(r.qubit, r.basis.name, r.outcome, r.probability) for r in tr.outcomes]

    assert steps(a) == steps(b)
    for ra, rb in zip(a.outcomes, b.outcomes):
        assert np.array_equal(ra.basis.ket0, rb.basis.ket0)
        assert np.array_equal(ra.basis.ket1, rb.basis.ket1)
    assert a.frame == b.frame
    assert (a.logical_out is None) == (b.logical_out is None)
    if a.logical_out is not None:
        assert np.array_equal(a.logical_out, b.logical_out)
    pa, pb = a.physical_out, b.physical_out
    assert type(pa) is type(pb)
    if isinstance(pa, qm.StateVector):
        assert pa.labels == pb.labels and np.array_equal(pa.amps, pb.amps)
    elif pa is not None:
        assert pa.labels == pb.labels and np.array_equal(pa.mat, pb.mat)
    assert (a.success, a.total_probability, a.notes) == (b.success, b.total_probability, b.notes)


def overlap2(a: np.ndarray, b: np.ndarray) -> float:
    """Squared overlap of two unnormalized vectors."""
    a = np.asarray(a, dtype=complex).reshape(-1)
    b = np.asarray(b, dtype=complex).reshape(-1)
    return abs(np.vdot(a / np.linalg.norm(a), b / np.linalg.norm(b))) ** 2


def kron_word_matrix(word) -> np.ndarray:
    """Dense Pauli word as the coefficient times a chain of np.kron products."""
    out = np.array([[word.coefficient]], dtype=complex)
    for letter in word.letters:
        out = np.kron(out, qm.PAULI[letter])
    return out


def parity_loop_fidelity(cell_data, terms, corrected: bool) -> float:
    """Witness value from cells by explicit per-cell, per-bit parity loops."""
    total = 0.0
    for term in terms:
        cells = np.asarray(cell_data[term.setting], dtype=float)
        term_value = 0
        for word in term.words:
            n = len(word.labels)
            value = 0.0
            for cell, p in enumerate(cells):
                parity = 1.0
                for pos in range(n):
                    if word.letters[pos] != "I" and (cell >> (n - 1 - pos)) & 1:
                        parity = -parity
                value += parity * p
            term_value += float(np.real(word.coefficient)) * value
        total += term_value
    if corrected:
        total /= 2.0
    return float(total)


def dense_cell_kets(settings) -> np.ndarray:
    """(cells, 2^n) product ket of every (setting, outcome) cell, by np.kron."""
    rows = []
    for setting in settings:
        n = len(setting)
        for cell in range(2**n):
            ket = np.ones(1, dtype=complex)
            for pos, letter in enumerate(setting):
                basis = pauli_basis(letter)
                ket = np.kron(ket, basis.ket1 if (cell >> (n - 1 - pos)) & 1 else basis.ket0)
            rows.append(ket)
    return np.array(rows)


def svd_rank_complete(settings) -> bool:
    """Whether the cell projectors |k><k| of ``settings`` span all 4^n
    operators, by the SVD rank of their (cells, 4^n) flattened matrix."""
    kets = dense_cell_kets(settings)
    projectors = np.einsum("ci,cj->cij", kets, np.conj(kets)).reshape(len(kets), -1)
    return bool(np.linalg.matrix_rank(projectors, tol=1e-9) == len(kets[0]) ** 2)


def einsum_probabilities(rho, settings) -> np.ndarray:
    """Cell probabilities (n_settings, 2^n) of a DensityMatrix, one setting at
    a time: <k|rho|k> for each row k of ``setting_kets``, clipped at 0."""
    out = np.empty((len(settings), 2**rho.n_qubits))
    for i, s in enumerate(settings):
        kets = setting_kets(s)
        out[i] = np.real(np.einsum("od,de,oe->o", np.conj(kets), rho.mat, kets))
    return np.clip(out, 0.0, None)


def full_projector_probs(rho_mat: np.ndarray, n: int) -> np.ndarray:
    """All 6^n projector probabilities, unclipped, from the full head and
    tail projector blocks: the Born call of ML tomography."""
    head, tail = (noise_tomo._projector_block(k) for k in noise_tomo._halves(n))
    return noise_tomo._projector_probs(rho_mat, head, tail)


def per_row_counts(rho, settings, shots: int, seed: int, mode: str) -> np.ndarray:
    """Counts of ``simulate_counts`` drawn with one generator call per
    setting, each row normalized on its own."""
    probs = noise_tomo.exact_probabilities(rho, settings)
    rng = np.random.default_rng(seed)
    out = np.empty(probs.shape, dtype=np.int64)
    for i, p in enumerate(probs):
        p = p / p.sum()
        out[i] = rng.multinomial(shots, p) if mode == "multinomial" else rng.poisson(shots * p)
    return out


def dense_probs(kets, rho) -> np.ndarray:
    """Cell probabilities <k|rho|k> from the dense (cells, 2^n) ket matrix."""
    p = np.real(np.sum((np.conj(kets) @ rho) * kets, axis=1))
    return np.clip(p, 1e-300, None)


def dense_r_operator(kets, w) -> np.ndarray:
    """R = sum over cells of w_cell |k><k|."""
    return (kets * w[:, None]).T @ np.conj(kets)


def dense_log_likelihood(freq, probs, shots, mode) -> float:
    """Per-cell log-likelihood: sum f log p, or sum f log(shots p) - shots p."""
    good = freq > 0
    if mode == "poisson":
        return float(
            np.sum(freq[good] * np.log(shots * probs[good])) - shots * probs.sum()
        )
    return float(np.sum(freq[good] * np.log(probs[good])))


def dense_ml_fit(counts, *, max_iters, tol=1e-9, dilution=0.5):
    """Fixed-point ML fit over the dense cells x 2^n ket matrix.

    The same iteration as ``ml_reconstruct`` (R rho R step, diluted
    fallback, gain < tol stop, final eigenvalue clip), computed cell by
    cell; returns (rho, iterations).
    """
    dim = 2**counts.n_qubits
    kets = dense_cell_kets(counts.settings)
    freq = counts.counts.reshape(-1).astype(float)
    total = freq.sum()

    def loglik(p):
        return dense_log_likelihood(freq, p, counts.shots, counts.mode)

    rho = np.eye(dim, dtype=complex) / dim
    p = dense_probs(kets, rho)
    ll = loglik(p)
    iters = 0
    for iters in range(1, max_iters + 1):
        R = dense_r_operator(kets, freq / (total * p))
        cand = R @ rho @ R
        cand /= np.real(np.trace(cand))
        p_cand = dense_probs(kets, cand)
        ll_cand = loglik(p_cand)
        if ll_cand < ll:
            lam = dilution
            while lam > 1e-6:
                G = (np.eye(dim) + lam * R) / (1.0 + lam)
                cand = G @ rho @ G.conj().T
                cand /= np.real(np.trace(cand))
                p_cand = dense_probs(kets, cand)
                ll_cand = loglik(p_cand)
                if ll_cand >= ll:
                    break
                lam *= 0.5
            else:
                break
        gain = ll_cand - ll
        rho, p, ll = cand, p_cand, ll_cand
        if gain < tol:
            break
    vals, vecs = np.linalg.eigh((rho + rho.conj().T) / 2)
    rho = (vecs * np.clip(vals, 0.0, None)) @ vecs.conj().T
    return rho / np.real(np.trace(rho)), iters


def cumsum_density_projection(h) -> np.ndarray:
    """Nearest density matrix to Hermitian h by the vectorized simplex rule
    that ``noise_tomo._density_projection`` once used: k counts the j with
    j u_j > cumsum(u)_j - 1 over the descending eigenvalues u, through
    ``np.cumsum`` and ``np.count_nonzero``.  Same arithmetic otherwise, so
    the two agree to the bit."""
    vals, vecs = np.linalg.eigh(h)
    top = vals[::-1]
    excess = np.cumsum(top) - 1.0
    k = max(np.count_nonzero(top * np.arange(1, len(top) + 1) > excess), 1)
    vals = np.maximum((vals - top[k - 1]) + (1.0 - (top[:k] - top[k - 1]).sum()) / k, 0.0)
    return (vecs * vals) @ vecs.conj().T


def bisection_density_projection(h) -> np.ndarray:
    """Nearest density matrix to Hermitian h: eigenvalues v -> max(v - tau, 0),
    with tau found by bisection on sum max(v - tau, 0) = 1.  The bisection
    runs in exact rational arithmetic on the eigenvalues, so that a huge
    eigenvalue does not swallow the others."""
    vals, vecs = np.linalg.eigh(h)
    exact = [Fraction(float(v)) for v in vals]
    lo, hi = min(exact) - 1, max(exact)
    while hi - lo > Fraction(1, 2**80):
        tau = (lo + hi) / 2
        if sum(max(v - tau, 0) for v in exact) > 1:
            lo = tau
        else:
            hi = tau
    lam = np.array([float(max(v - (lo + hi) / 2, 0)) for v in exact])
    return (vecs * lam) @ vecs.conj().T


# ---------------------------------------------------------------------------
# Correlation-space references: the operator a measured site leaves on its
# wire, and canonical-form wires (Gross & Eisert, PRL 98, 220503, 2007)
# ---------------------------------------------------------------------------

def induced_operator(basis_ket: np.ndarray, site: np.ndarray) -> np.ndarray:
    """Correlation-space operator left behind by consuming one site.

    Projecting the site's physical qubit onto |phi> = sum_s phi_s |s>
    (components in the computational basis, matching the stored tensors)
    induces  sum_s conj(phi_s) T[s]  on the wire's correlation vector.
    """
    phi = np.asarray(basis_ket, dtype=complex).reshape(-1)
    if phi.shape != (2,):
        raise ValueError("basis ket must be a 2-vector")
    return np.conj(phi[0]) * site[0] + np.conj(phi[1]) * site[1]


def su2_decompose(mat: np.ndarray, tol: float = 1e-10) -> tuple[complex, np.ndarray]:
    """Split an invertible matrix proportional to a unitary as scalar * SU(2).

    Returns (scalar, u) with mat = scalar * u, det(u) = 1 and the sign of u
    fixed so its first non-negligible entry has nonnegative real part.
    Raises ValueError when the matrix is singular or not proportional to a
    unitary.
    """
    mat = np.asarray(mat, dtype=complex)
    gram = mat.conj().T @ mat
    mag2 = float(np.real(np.trace(gram))) / 2.0
    if mag2 < tol:
        raise ValueError("matrix is (numerically) singular")
    if np.linalg.norm(gram - mag2 * np.eye(2)) > tol * max(1.0, mag2):
        raise ValueError("matrix is not proportional to a unitary")
    mag = np.sqrt(mag2)
    u = mat / mag
    root = np.sqrt(np.linalg.det(u))  # principal branch; sign fixed below
    u = u / root
    for comp in u.reshape(-1):
        if abs(comp) > tol:
            if comp.real < -tol or (abs(comp.real) <= tol and comp.imag < 0):
                u = -u
                root = -root
            break
    return mag * root, u


def basis_u(theta_c: float) -> MeasurementBasis:
    """Coupling-site basis for a canonical-form wire with angle ``theta_c``.

    With u0 = (cos(theta_c/4) - sin(theta_c/4))/sqrt2 and
    u1 = (cos(theta_c/4) + sin(theta_c/4))/sqrt2, the kets are
    {u0|0> - u1|1>, u1|0> + u0|1>} (kept literally, no rephasing).
    """
    u0 = (np.cos(theta_c / 4) - np.sin(theta_c / 4)) / qm.SQRT2
    u1 = (np.cos(theta_c / 4) + np.sin(theta_c / 4)) / qm.SQRT2
    k0 = np.array([u0, -u1], dtype=complex)
    k1 = np.array([u1, u0], dtype=complex)
    return MeasurementBasis(k0, k1, name=f"u({theta_c:.12g})")


@dataclass(frozen=True)
class CanonicalWire:
    """Wire in canonical form: T[0] = W, T[1] = W * diag(e^{-i t/2}, e^{i t/2})."""

    W: np.ndarray
    theta_c: float

    def __post_init__(self) -> None:
        W = np.asarray(self.W, dtype=complex)
        object.__setattr__(self, "W", W)
        if not np.allclose(W.conj().T @ W, np.eye(2), atol=1e-12):
            raise ValueError("W must be unitary")

    def site(self) -> np.ndarray:
        return np.stack((self.W, self.W @ rz(self.theta_c)))

    def sites(self, n: int) -> list[np.ndarray]:
        return [self.site() for _ in range(n)]


def couple_canonical(cw: CanonicalWire, n_sites: int = 3) -> qm.StateVector:
    """Two copies of a canonical-form wire (labels L0.. and R0..) coupled
    through a |+> coupler site "c".

    The coupler qubit is the control of one controlled-X onto the middle
    site of each wire.  Measuring it in the computational basis undoes the
    coupling (outcome 0) or leaves sigma_x on the two coupled sites
    (outcome 1).
    """
    wires = tuple(
        Wire(tuple(cw.sites(n_sites)), tuple(f"{side}{i}" for i in range(n_sites)))
        for side in "LR"
    )
    mid = n_sites // 2
    state, _ = contract_resource(ResourceSpec(wires, couplers=("c",)))
    return state.apply(_CX, "c", f"L{mid}").apply(_CX, "c", f"R{mid}")
