"""Two-outcome projective measurements on labeled registers.

Provides the angle-parametrized polarization basis used to drive wire
rotations, the coupling-site basis for canonical-form wires, the Pauli
bases, Born-rule collapse (post-selected or sampled) on pure and mixed
states, and the correlation-space operator induced by consuming one site.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Union

import numpy as np

from . import qmath as qm
from .wires import SiteTensor, _check_theta

State = Union[qm.StateVector, qm.DensityMatrix]


class ZeroProbabilityBranch(ValueError):
    """The requested (or sampled) outcome has numerically zero probability."""


@dataclass(frozen=True)
class MeasurementBasis:
    """An orthonormal single-qubit basis; outcome 0 selects ``ket0``."""

    ket0: np.ndarray
    ket1: np.ndarray
    name: str = ""

    def __post_init__(self) -> None:
        k0 = np.asarray(self.ket0, dtype=complex).reshape(-1)
        k1 = np.asarray(self.ket1, dtype=complex).reshape(-1)
        object.__setattr__(self, "ket0", k0)
        object.__setattr__(self, "ket1", k1)
        if k0.shape != (2,) or k1.shape != (2,):
            raise ValueError("basis kets must be 2-vectors")
        if abs(np.linalg.norm(k0) - 1) > 1e-12 or abs(np.linalg.norm(k1) - 1) > 1e-12:
            raise ValueError("basis kets must be normalized")
        if abs(np.vdot(k0, k1)) > 1e-12:
            raise ValueError("basis kets must be orthogonal")

    def ket(self, outcome: int) -> np.ndarray:
        if outcome not in (0, 1):
            raise ValueError("outcome must be 0 or 1")
        return self.ket0 if outcome == 0 else self.ket1

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "ket0": [[float(c.real), float(c.imag)] for c in self.ket0],
            "ket1": [[float(c.real), float(c.imag)] for c in self.ket1],
        }


@dataclass(frozen=True)
class OutcomeRecord:
    """One measurement event: which qubit, in which basis, what came out."""

    qubit: str
    basis: MeasurementBasis
    outcome: int
    probability: float

    def __post_init__(self) -> None:
        if self.outcome not in (0, 1):
            raise ValueError("outcome must be 0 or 1")
        if not -1e-12 <= self.probability <= 1 + 1e-12:
            raise ValueError("probability out of [0, 1]")

    def to_json_dict(self) -> dict:
        return {
            "qubit": self.qubit,
            "basis": self.basis.name,
            "outcome": self.outcome,
            "probability": float(self.probability),
        }


def basis_B(zeta: float, theta: float = np.pi / 6) -> MeasurementBasis:
    """Angle-parametrized basis driving a rotation by ``zeta`` on a wire.

    ket0 ~ sin(theta)cos(zeta/2)|0> + i cos(theta)sin(zeta/2)|1>
    ket1 ~ cos(theta)sin(zeta/2)|0> - i sin(theta)cos(zeta/2)|1>

    These closed forms are orthogonal for every zeta; the endpoints come out
    as B(0) = {|H>,|V>} and B(pi) = {|V>,|H>} (outcome labels swap at pi).
    Kets are phase-normalized so the first nonzero entry is real positive.
    """
    _check_theta(theta)
    c, s = np.cos(theta), np.sin(theta)
    ch, sh = np.cos(zeta / 2), np.sin(zeta / 2)
    k0 = np.array([s * ch, 1j * c * sh])
    k1 = np.array([c * sh, -1j * s * ch])
    k0 = qm.canonical_phase(k0 / np.linalg.norm(k0))
    k1 = qm.canonical_phase(k1 / np.linalg.norm(k1))
    return MeasurementBasis(k0, k1, name=f"B({zeta:.12g})")


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


def pauli_basis(letter: str) -> MeasurementBasis:
    """Eigenbasis of a Pauli operator; outcome 0 is the +1 eigenstate.

    The three bases are built once and shared, with read-only kets.
    """
    return _pauli_basis(letter)


@functools.lru_cache(maxsize=3)
def _pauli_basis(letter: str) -> MeasurementBasis:
    kets = {
        "Z": ("0", "1"),
        "X": ("+", "-"),
        "Y": ("R", "L"),
    }
    try:
        k0, k1 = kets[letter]
    except KeyError:
        raise ValueError(f"unknown Pauli letter {letter!r}") from None
    basis = MeasurementBasis(qm.ket(k0), qm.ket(k1), name=letter)
    basis.ket0.setflags(write=False)
    basis.ket1.setflags(write=False)
    return basis


def induced_operator(basis_ket: np.ndarray, site: SiteTensor) -> np.ndarray:
    """Correlation-space operator left behind by consuming one site.

    Projecting the site's physical qubit onto |phi> = sum_s phi_s |s>
    (components in the computational basis, matching the stored tensors)
    induces  sum_s conj(phi_s) T[s]  on the wire's correlation vector.
    """
    phi = np.asarray(basis_ket, dtype=complex).reshape(-1)
    if phi.shape != (2,):
        raise ValueError("basis ket must be a 2-vector")
    return np.conj(phi[0]) * site.matrix(0) + np.conj(phi[1]) * site.matrix(1)


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
    det_phase = np.linalg.det(u)
    root = np.sqrt(det_phase)  # principal branch; sign fixed below
    u = u / root
    for comp in u.reshape(-1):
        if abs(comp) > tol:
            if comp.real < -tol or (abs(comp.real) <= tol and comp.imag < 0):
                u = -u
                root = -root
            break
    return mag * root, u


def measure(
    state: State,
    qubit: str,
    basis: MeasurementBasis,
    *,
    outcome: int | None = None,
    rng: np.random.Generator | None = None,
) -> tuple[OutcomeRecord, State]:
    """Measure one qubit; return the outcome record and the collapsed state.

    Exactly one of ``outcome`` (post-selection) or ``rng`` (Born-rule
    sampling) must be provided.  The measured qubit is removed from the
    register and the remaining state is renormalized.  An outcome of
    probability below 1e-15 raises ``ZeroProbabilityBranch``.
    """
    if (outcome is None) == (rng is None):
        raise ValueError("provide exactly one of outcome= or rng=")
    p0, rest0 = state.project(qubit, basis.ket0)
    if outcome is None:
        chosen = 0 if rng.random() < p0 else 1
    else:
        chosen = int(outcome)
        if chosen not in (0, 1):
            raise ValueError("outcome must be 0 or 1")
    if chosen == 0:
        prob, rest = p0, rest0
    else:
        prob, rest = state.project(qubit, basis.ket1)
    if prob < 1e-15:
        raise ZeroProbabilityBranch(
            f"outcome {chosen} on qubit {qubit!r} has zero probability"
        )
    collapsed, _ = rest.normalized()
    return OutcomeRecord(qubit, basis, chosen, prob), collapsed
