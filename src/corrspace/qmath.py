"""Dense complex linear algebra for small labeled-qubit registers.

States are stored as flat amplitude vectors with the *first* label as the
most significant bit.  All operations are pure: they return new objects and
never mutate their inputs.  Equality of states is always judged up to a
global phase via overlap modulus.  Every built-in numeric cross-check of the
library fails through ``require``, with one typed error.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite, sqrt
from typing import Iterable, Sequence, Union

import numpy as np

SQRT2 = float(np.sqrt(2.0))

# Single-qubit constants.
I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
HAD = np.array([[1, 1], [1, -1]], dtype=complex) / SQRT2

PAULI = {"I": I2, "X": X, "Y": Y, "Z": Z}

_KETS = {
    "0": np.array([1, 0], dtype=complex),
    "1": np.array([0, 1], dtype=complex),
    "+": np.array([1, 1], dtype=complex) / SQRT2,
    "-": np.array([1, -1], dtype=complex) / SQRT2,
}
# Polarization / path aliases: H,V are the computational states; P,M the
# diagonal states; R,L the circular states (|0> +/- i|1>)/sqrt2.
_KETS["H"] = _KETS["0"]
_KETS["V"] = _KETS["1"]
_KETS["P"] = _KETS["+"]
_KETS["M"] = _KETS["-"]
_KETS["R"] = np.array([1, 1j], dtype=complex) / SQRT2
_KETS["L"] = np.array([1, -1j], dtype=complex) / SQRT2


def ket(name: str) -> np.ndarray:
    """Return a normalized single-qubit ket by name (H,V,P,M,R,L,0,1,+,-)."""
    try:
        return _KETS[name].copy()
    except KeyError:
        raise ValueError(f"unknown ket name {name!r}") from None


def kron(*mats: np.ndarray) -> np.ndarray:
    """Kronecker product; the first argument is the most significant qubit."""
    if not mats:
        raise ValueError("kron needs at least one matrix; none was given")
    out = np.asarray(mats[0], dtype=complex)
    for m in mats[1:]:
        out = np.kron(out, np.asarray(m, dtype=complex))
    return out


def embed(op: np.ndarray, labels: Sequence[str], targets: Sequence[str]) -> np.ndarray:
    """Lift an operator on ``targets`` to the full register given by ``labels``.

    ``op`` has dimension 2^len(targets) and acts on the target qubits in the
    order given; all other qubits get the identity.
    """
    labels = list(labels)
    targets = list(targets)
    if len(set(targets)) != len(targets):
        raise ValueError("duplicate target labels")
    for t in targets:
        if t not in labels:
            raise KeyError(f"unknown qubit label {t!r}")
    n = len(labels)
    others = [l for l in labels if l not in targets]
    block = np.kron(np.asarray(op, dtype=complex), np.eye(2 ** len(others)))
    # ``block`` acts on the register ordered (targets..., others...); permute
    # its row and column axes into the requested label order.
    cur = targets + others
    perm = [cur.index(l) for l in labels]
    t = block.reshape([2] * (2 * n)).transpose(perm + [n + p for p in perm])
    return t.reshape(2**n, 2**n)


def _index_of(labels: Sequence[str], qubit: str) -> int:
    try:
        return list(labels).index(qubit)
    except ValueError:
        raise KeyError(f"unknown qubit label {qubit!r}") from None


def _permutation(labels: Sequence[str], new_labels: Sequence[str]) -> list[int]:
    """The axis in ``labels`` of each of ``new_labels``, which must be the same labels."""
    if set(new_labels) != set(labels) or len(new_labels) != len(labels):
        raise ValueError("reorder must use exactly the existing labels")
    return [_index_of(labels, q) for q in new_labels]


#: The types ``_bit`` accepts, built once: building them per call doubled its cost.
_BIT_TYPES = (int, np.integer, np.bool_)


def _bit(value, what: str) -> int:
    """The one bit check: ``value`` as an ``int`` if it is a Python or NumPy
    integer or bool equal to 0 or 1, else ``ValueError``."""
    if value.__class__ is int and (value == 0 or value == 1):  # a plain int: every shot's case
        return value
    if isinstance(value, _BIT_TYPES) and value in (0, 1):
        return int(value)
    raise ValueError(f"{what} must be 0 or 1, got {value!r}")


def _angle(value: float, what: str) -> None:
    """The one finiteness check of an input angle, else ``ValueError``."""
    if not isfinite(value):
        raise ValueError(f"{what} must be finite, got {value}")


def collapse(states: np.ndarray, axis: int, kets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Project qubit ``axis`` of a stack of N states onto both outcomes' kets.

    ``states`` holds N amplitude vectors (N, 2^n) or N density matrices
    (N, 2^n, 2^n) on one register of n >= 1 qubits; it may be a read-only
    broadcast view, one state shared by all N items with stride 0.
    ``kets`` is (2, N, 2): ``kets[k, g]`` is the ket of outcome k for state
    g.  ``axis`` lies in [0, n).  Any other shape or axis raises
    ``ValueError``.  Returns the (2, N) Born probabilities and the (2, N,
    ...) collapsed states with the qubit removed, divided by their norm
    (pure) or trace (mixed), both indexed [outcome, state].  A zero norm or
    trace is left undivided.

    Each side of the state is contracted with one ``np.matmul`` of the
    (1, 2) ket rows with the state regrouped as (N, 2, rest), broadcast
    over the two outcomes, so the states are read once and never copied
    per outcome; per item it has the bits of ``np.tensordot``.  Pure
    probabilities and norms are stacked dots (``_row_dots``) with the bits
    of per-item ``np.vdot`` and ``np.linalg.norm``, so item [k, g] has the
    bits of ``_collapse_one`` followed by the measured step's division.

    The stacked Born step of ``protocols.walk_branches``, one call per tree
    level.  The measured step ``measurement._measured_step`` (every step of
    ``measure``, ``Program.run`` and ``Program.branches``) and the
    ``project`` methods call the unstacked kernel ``_collapse_one`` instead.
    """
    g, n, pure = _check_collapse(states, axis, kets)
    t = states.reshape((g,) + (2,) * (n if pure else 2 * n))
    t = _contract_front(np.conj(kets), t, axis).reshape((2 * g,) + t.shape[2:])
    if pure:
        rest = t.reshape(2 * g, -1)
        probs = _row_dots(rest.conj(), rest).real
        scale = np.sqrt(_row_dots(rest.real, rest.real) + _row_dots(rest.imag, rest.imag))
    else:
        t = _contract_front(kets.reshape(2 * g, 2), t, n - 1 + axis)
        d = 2 ** (n - 1)
        rest = t.reshape(2 * g, d, d)
        probs = scale = np.trace(rest, axis1=1, axis2=2).real
    scale = np.where(np.equal(scale, 0.0), 1.0, scale)
    rest = rest / scale.reshape((2 * g,) + (1,) * (rest.ndim - 1))
    return probs.reshape(2, g), rest.reshape((2, g) + rest.shape[1:])


def _check_collapse(states: np.ndarray, axis: int, kets: np.ndarray) -> tuple[int, int, bool]:
    """(N, n, pure) of valid ``collapse`` arguments; ``ValueError`` otherwise."""
    shape = states.shape
    n = shape[1].bit_length() - 1 if len(shape) in (2, 3) else 0
    if n < 1 or shape[1] != 1 << n or shape[2:] not in ((), shape[1:2]):
        raise ValueError(f"states must be (N, 2^n) or (N, 2^n, 2^n) with n >= 1, got {shape}")
    g = shape[0]
    if kets.shape != (2, g, 2):
        raise ValueError(f"kets must be (2, {g}, 2) for {g} states, got {kets.shape}")
    if not 0 <= axis < n:
        raise ValueError(f"axis must lie in [0, {n}) for {n}-qubit states, got {axis}")
    return g, n, len(shape) == 2


def _collapse_one(
    state: np.ndarray, axis: int, ket: np.ndarray, n: int, pure: bool
) -> tuple[np.float64, np.ndarray]:
    """Unnormalized ``collapse`` of one state onto one ket, unchecked: the
    Born probability and the collapsed state, without the stack axis.

    The per-item BLAS calls of ``collapse`` without its stack machinery:
    ``np.dot`` of the ket with the state regrouped as (2, rest), then
    ``np.vdot`` for a pure probability or a 2-D ``np.trace`` for a mixed
    one, so it has the bits of the same item in a stack.  Its callers are
    the measured step ``measurement._measured_step`` and the two ``project``
    methods, which pass arguments that the state's constructor, ``_index_of``
    and their own ket checks have passed.
    """
    rest = np.dot(np.conj(ket), _front(state, axis))
    if pure:
        return np.vdot(rest, rest).real, rest
    rest = np.dot(ket, _front(rest, n - 1 + axis)).reshape(2 ** (n - 1), -1)
    return np.trace(rest).real, rest


def _front(t: np.ndarray, axis: int) -> np.ndarray:
    """Qubit ``axis`` of the flattened qubit tensor ``t`` as the rows of a
    (2, rest) matrix, the other qubits in order along the columns."""
    return t.reshape(1 << axis, 2, -1).transpose(1, 0, 2).reshape(2, -1)


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Inner products a[g] . b[g] of two (G, m) stacks, without conjugation.

    One stacked ``np.matmul`` of (1, m) rows with (m, 1) columns: each item
    is the BLAS dot that ``np.vdot`` and ``ndarray.dot`` take, so the items
    have the bits of ``np.vdot(r, r)`` (with ``a`` = conj(r)) and of the
    ``np.linalg.norm`` sums, for a stack of one as for a larger stack.
    """
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _contract_front(rows: np.ndarray, t: np.ndarray, axis: int) -> np.ndarray:
    """Contract item axis ``axis`` of a (G, 2, 2, ...) stack with (..., G, 2)
    rows of 2-vectors; the leading axes of ``rows`` broadcast over the stack,
    so the result is (..., G) followed by the stack's other item axes."""
    g = t.shape[0]
    t = t.transpose(0, axis + 1, *(k for k in range(1, t.ndim) if k != axis + 1))
    out = np.matmul(rows.reshape(rows.shape[:-1] + (1, 2)), t.reshape(g, 2, -1))
    return out.reshape(rows.shape[:-1] + t.shape[2:])


@dataclass(frozen=True)
class StateVector:
    """Pure state of named qubits; amplitudes indexed with labels[0] as MSB."""

    labels: tuple[str, ...]
    amps: np.ndarray

    def __post_init__(self) -> None:
        amps = np.asarray(self.amps, dtype=complex).reshape(-1)
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "amps", amps)
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate qubit labels")
        if amps.size != 2 ** len(self.labels):
            raise ValueError("amplitude count does not match label count")

    # -- construction ------------------------------------------------------
    @classmethod
    def from_kets(cls, assignments: Sequence[tuple[str, np.ndarray | str]]) -> "StateVector":
        """Product state from (label, ket) pairs; kets may be names."""
        if len(assignments) == 0:
            raise ValueError("from_kets needs at least one (label, ket) pair; assignments is empty")
        labels = [a[0] for a in assignments]
        vecs = [ket(a[1]) if isinstance(a[1], str) else np.asarray(a[1], dtype=complex) for a in assignments]
        return cls(tuple(labels), kron(*vecs))

    # -- basic properties --------------------------------------------------
    @property
    def n_qubits(self) -> int:
        return len(self.labels)

    @property
    def norm(self) -> float:
        """sqrt(re . re + im . im) over the amplitudes: the sum, and so the
        bits, of ``np.linalg.norm`` on a complex vector, without its dispatch."""
        re, im = self.amps.real, self.amps.imag
        return sqrt(re.dot(re) + im.dot(im))

    def normalized(self) -> tuple["StateVector", float]:
        """Return (unit-norm state, discarded raw norm)."""
        nrm = self.norm
        if nrm == 0.0:
            raise ValueError("cannot normalize a zero state")
        return StateVector(self.labels, self.amps / nrm), nrm

    # -- register manipulation ---------------------------------------------
    def tensor(self, other: "StateVector") -> "StateVector":
        if set(self.labels) & set(other.labels):
            raise ValueError("overlapping labels in tensor product")
        return StateVector(self.labels + other.labels, np.kron(self.amps, other.amps))

    def reorder(self, new_labels: Sequence[str]) -> "StateVector":
        """Permute the register into ``new_labels`` order."""
        perm = _permutation(self.labels, new_labels)
        amps = self.amps.reshape([2] * self.n_qubits).transpose(perm).reshape(-1)
        return StateVector(tuple(new_labels), amps)

    # -- operators ---------------------------------------------------------
    def apply(self, op: np.ndarray, *qubits: str) -> "StateVector":
        """Apply a k-qubit operator to ``qubits`` (the first is the most
        significant qubit of ``op``).

        ``op`` is reshaped to (2,)*2k, contracted into the qubits' axes with
        ``np.tensordot`` and the axis order restored with ``np.moveaxis``;
        no 2^n x 2^n operator is built.
        """
        k = len(qubits)
        if k == 0 or len(set(qubits)) != k:
            raise ValueError("apply needs one or more distinct qubits")
        axes = [_index_of(self.labels, q) for q in qubits]
        mat = np.asarray(op, dtype=complex).reshape((2,) * (2 * k))
        amps = self.amps.reshape((2,) * self.n_qubits)
        amps = np.tensordot(mat, amps, axes=(list(range(k, 2 * k)), axes))
        amps = np.moveaxis(amps, list(range(k)), axes)
        return StateVector(self.labels, amps.reshape(-1))

    # -- inner products and collapse ---------------------------------------
    def overlap(self, other: "StateVector") -> complex:
        """<self|other>, aligning register order first."""
        if set(self.labels) != set(other.labels):
            raise ValueError("states live on different registers")
        return complex(np.vdot(self.amps, other.reorder(self.labels).amps))

    def project(self, qubit: str, onto: np.ndarray | str) -> tuple[float, "StateVector"]:
        """Partial inner product <onto|_qubit self.

        Returns (probability, unnormalized collapsed state with the qubit
        removed from the register).

        The measured step's kernel ``_collapse_one``, without its division.
        Not on the shot path: kept as public API until the benchmark's
        tracer (``perfbench/spans.py``) stops naming it; then both
        ``project`` methods go.
        """
        vec = _onto(onto)
        prob, rest = _collapse_one(self.amps, _index_of(self.labels, qubit), vec, self.n_qubits, True)
        return float(prob), StateVector(_without(self.labels, qubit), rest)

    def to_density(self) -> "DensityMatrix":
        return DensityMatrix(self.labels, np.outer(self.amps, np.conj(self.amps)))

    def expectation(self, op_full: np.ndarray) -> float:
        """Real part of <self|op|self> for a full-register operator."""
        return float(np.real(np.vdot(self.amps, op_full @ self.amps)))


@dataclass(frozen=True)
class DensityMatrix:
    """Mixed state of named qubits as a Hermitian unit-trace matrix."""

    labels: tuple[str, ...]
    mat: np.ndarray

    def __post_init__(self) -> None:
        mat = np.asarray(self.mat, dtype=complex)
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "mat", mat)
        d = 2 ** len(self.labels)
        if mat.shape != (d, d):
            raise ValueError("matrix dimension does not match label count")

    @property
    def n_qubits(self) -> int:
        return len(self.labels)

    @property
    def trace(self) -> float:
        return float(np.real(np.trace(self.mat)))

    def normalized(self) -> tuple["DensityMatrix", float]:
        tr = self.trace
        if tr <= 0:
            raise ValueError("cannot normalize a non-positive-trace matrix")
        return DensityMatrix(self.labels, self.mat / tr), tr

    def reorder(self, new_labels: Sequence[str]) -> "DensityMatrix":
        n = self.n_qubits
        perm = _permutation(self.labels, new_labels)
        full_perm = perm + [p + n for p in perm]
        mat = self.mat.reshape([2] * (2 * n)).transpose(full_perm).reshape(2**n, 2**n)
        return DensityMatrix(tuple(new_labels), mat)

    def project(self, qubit: str, onto: np.ndarray | str) -> tuple[float, "DensityMatrix"]:
        """Collapse one qubit onto a ket: (probability, unnormalized rest).

        The measured step's kernel, as in ``StateVector.project``; not on
        the shot path, and kept for the reasons given there.
        """
        vec = _onto(onto)
        prob, rest = _collapse_one(self.mat, _index_of(self.labels, qubit), vec, self.n_qubits, False)
        return float(prob), DensityMatrix(_without(self.labels, qubit), rest)


#: A pure or a mixed register state.
State = Union[StateVector, DensityMatrix]


def _onto(onto: np.ndarray | str) -> np.ndarray:
    """The ket of a ``project`` call: a ket name or a ket of shape (2,);
    any other shape raises ``ValueError``."""
    vec = ket(onto) if isinstance(onto, str) else np.asarray(onto, dtype=complex)
    if vec.shape != (2,):
        raise ValueError(f"onto must be a ket name or of shape (2,), got {vec.shape}")
    return vec


def _array(state: State) -> np.ndarray:
    """A state's raw array: its amplitude vector (pure) or its matrix (mixed)."""
    return state.amps if isinstance(state, StateVector) else state.mat


def _state(labels: tuple[str, ...], data: np.ndarray) -> State:
    """The state of a raw array on ``labels``: a ``StateVector`` of a 1-D
    array, a ``DensityMatrix`` of a 2-D one."""
    return StateVector(labels, data) if data.ndim == 1 else DensityMatrix(labels, data)


def _without(labels: tuple[str, ...], qubit: str) -> tuple[str, ...]:
    return tuple(l for l in labels if l != qubit)


def partial_trace(rho: State, keep: Iterable[str]) -> DensityMatrix:
    """Reduced density matrix on ``keep`` (register order preserved)."""
    if isinstance(rho, StateVector):
        rho = rho.to_density()
    keep = list(keep)
    if not keep:
        raise ValueError("keep set must be nonempty")
    for q in keep:
        _index_of(rho.labels, q)
    kept = [l for l in rho.labels if l in keep]
    traced = [l for l in rho.labels if l not in keep]
    n = rho.n_qubits
    t = rho.mat.reshape([2] * (2 * n))
    # Trace out qubits from highest axis down so earlier indices stay valid.
    labels = list(rho.labels)
    for q in traced:
        ax = labels.index(q)
        m = len(labels)
        t = np.trace(t, axis1=ax, axis2=m + ax)
        labels.pop(ax)
    d = 2 ** len(kept)
    return DensityMatrix(tuple(kept), t.reshape(d, d))


def fidelity(rho: DensityMatrix, target: StateVector) -> float:
    """<target|rho|target> for a pure target state."""
    if set(rho.labels) != set(target.labels):
        raise ValueError("state and target live on different registers")
    t = target.reorder(rho.labels).amps
    val = np.vdot(t, rho.mat @ t)
    return float(np.real(val))


def linear_entropy(rho_single: DensityMatrix) -> float:
    """2 (1 - Tr rho^2) for a single-qubit density matrix."""
    if rho_single.mat.shape != (2, 2):
        raise ValueError("linear_entropy expects a single-qubit density matrix")
    purity = float(np.real(np.trace(rho_single.mat @ rho_single.mat)))
    return 2.0 * (1.0 - purity)


def overlap_modulus(a: StateVector, b: StateVector) -> float:
    an, _ = a.normalized()
    bn, _ = b.normalized()
    return abs(an.overlap(bn))


class InvariantViolation(AssertionError):
    """A built-in numeric check failed; ``str()`` is its message alone."""

    def __init__(self, check: str, residual: float, bound: float, message: str) -> None:
        super().__init__(message)
        self.check, self.residual, self.bound = check, residual, bound


def require(check: str, residual: float | np.ndarray, bound: float, message: str) -> None:
    """Raise ``InvariantViolation`` unless ``residual <= bound`` (for an array,
    its largest entry); a NaN residual fails.  A Python float is compared as
    it is, without a NumPy reduction."""
    worst = residual if type(residual) is float else float(np.max(residual, initial=-np.inf))
    if not worst <= bound:
        raise InvariantViolation(check, worst, bound, message)
