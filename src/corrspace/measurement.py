"""Two-outcome projective measurements on labeled registers.

Provides the angle-parametrized polarization basis used to drive wire
rotations (one basis, or the kets of many angles as one stack), the
coupling-site basis for canonical-form wires, the Pauli bases, Born-rule
collapse (post-selected or sampled) on pure and mixed states, and the
correlation-space operator induced by consuming one site.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import sqrt
from typing import Sequence, Union

import numpy as np

from . import qmath as qm
from .wires import SiteTensor, _check_theta

State = Union[qm.StateVector, qm.DensityMatrix]

# Outcomes less likely than this are not followed: ``measure`` raises
# ``ZeroProbabilityBranch`` and the branch walker skips the child.
ZERO_PROBABILITY = 1e-15


class ZeroProbabilityBranch(ValueError):
    """The requested (or sampled) outcome has numerically zero probability."""


@dataclass(frozen=True)
class MeasurementBasis:
    """An orthonormal single-qubit basis; outcome 0 selects ``ket0``.

    The kets are stored as complex 2-vectors.  Construction checks their
    shape, that each norm is within 1e-12 of 1 and that their overlap is
    within 1e-12 of 0; the checks run in Python scalar arithmetic on the
    kets' entries.
    """

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
        (a0, a1), (b0, b1) = k0.tolist(), k1.tolist()
        if not (abs(_norm(a0, a1) - 1) <= 1e-12 and abs(_norm(b0, b1) - 1) <= 1e-12):
            raise ValueError("basis kets must be normalized")
        if not abs(a0.conjugate() * b0 + a1.conjugate() * b1) <= 1e-12:
            raise ValueError("basis kets must be orthogonal")

    def ket(self, outcome: int) -> np.ndarray:
        if outcome not in (0, 1):
            raise ValueError("outcome must be 0 or 1")
        return self.ket0 if outcome == 0 else self.ket1


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
    Kets are normalized, then phase-normalized so the first entry above
    1e-12 in modulus is real positive.  Both steps run in Python float
    arithmetic with the rounding of numpy's ``np.linalg.norm``, complex
    division and complex multiplication, so the kets have the bits of that
    numpy construction.  The kets are read-only.
    """
    _check_theta(theta)
    kets = np.array(_b_kets(zeta, float(np.cos(theta)), float(np.sin(theta))))
    kets.setflags(write=False)  # rows and their views are read-only too
    return MeasurementBasis(kets[0], kets[1], name=f"B({zeta:.12g})")


def basis_B_stack(zetas: Sequence[float], theta: float = np.pi / 6) -> np.ndarray:
    """The kets of ``basis_B(zeta, theta)`` for every zeta, as one read-only
    (G, 2, 2) array: row g holds ket0 and ket1 of B(zetas[g]).

    Theta is checked once; each angle runs ``basis_B``'s arithmetic, so
    every ket has its bits.  ``MeasurementBasis``'s norm and orthogonality
    checks run once over the whole stack.
    """
    _check_theta(theta)
    c, s = float(np.cos(theta)), float(np.sin(theta))
    kets = np.array([_b_kets(zeta, c, s) for zeta in zetas], dtype=complex).reshape(-1, 2, 2)
    _check_orthonormal(kets)
    kets.setflags(write=False)
    return kets


def _b_kets(
    zeta: float, c: float, s: float
) -> tuple[tuple[complex, complex], tuple[complex, complex]]:
    """ket0 and ket1 of B(zeta) for c = cos(theta), s = sin(theta)."""
    ch, sh = float(np.cos(zeta / 2)), float(np.sin(zeta / 2))
    lower0, lower1 = 1j * c * sh, -1j * s * ch
    return (
        _unit_rephased(s * ch, 0.0, lower0.real, lower0.imag),
        _unit_rephased(c * sh, 0.0, lower1.real, lower1.imag),
    )


def _check_orthonormal(kets: np.ndarray) -> None:
    """``MeasurementBasis``'s checks over a (G, 2, 2) stack of ket pairs."""
    re, im = kets.real, kets.imag
    norms = np.sqrt((re[..., 0] * re[..., 0] + re[..., 1] * re[..., 1])
                    + (im[..., 0] * im[..., 0] + im[..., 1] * im[..., 1]))
    if not np.all(np.abs(norms - 1) <= 1e-12):
        raise ValueError("basis kets must be normalized")
    if not np.all(np.abs((kets[:, 0].conj() * kets[:, 1]).sum(axis=1)) <= 1e-12):
        raise ValueError("basis kets must be orthogonal")


def _norm(a: complex, b: complex) -> float:
    """Norm of the 2-vector (a, b), summed as ``np.linalg.norm`` sums it."""
    return sqrt((a.real * a.real + b.real * b.real) + (a.imag * a.imag + b.imag * b.imag))


def _unit_rephased(re0: float, im0: float, re1: float, im1: float) -> tuple[complex, complex]:
    """The 2-vector (re0 + i im0, re1 + i im1) divided by its norm and
    multiplied by conj(c)/|c|, c its first entry above 1e-12 in modulus.

    Each step has the rounding of its numpy counterpart: the norm is summed
    as in ``_norm``; complex / real is numpy's complex division by (r, 0),
    which multiplies (re + im*0, im - re*0) by 1/r; and the product with a
    phase p is (re*p.re - im*p.im, re*p.im + im*p.re).
    """
    scale = 1.0 / sqrt((re0 * re0 + re1 * re1) + (im0 * im0 + im1 * im1))
    re0, im0 = (re0 + im0 * 0.0) * scale, (im0 - re0 * 0.0) * scale
    re1, im1 = (re1 + im1 * 0.0) * scale, (im1 - re1 * 0.0) * scale
    for re, im in ((re0, im0), (re1, im1)):
        size = abs(complex(re, im))
        if size > 1e-12:
            scale, im = 1.0 / size, -im
            ph_re, ph_im = (re + im * 0.0) * scale, (im - re * 0.0) * scale
            return (
                complex(re0 * ph_re - im0 * ph_im, re0 * ph_im + im0 * ph_re),
                complex(re1 * ph_re - im1 * ph_im, re1 * ph_im + im1 * ph_re),
            )
    return complex(re0, im0), complex(re1, im1)


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
    probability below ``ZERO_PROBABILITY`` raises ``ZeroProbabilityBranch``.

    Post-selection projects only onto the requested outcome's ket.
    Sampling projects onto ``ket0`` to draw, and onto ``ket1`` as well only
    when outcome 1 is drawn.  This is the one-branch path of
    ``Program.run``; whole outcome trees are walked by
    ``protocols.walk_branches``, which collapses a stack of states per child
    with ``qmath.collapse`` and never calls ``measure``.
    """
    if (outcome is None) == (rng is None):
        raise ValueError("provide exactly one of outcome= or rng=")
    if outcome is None:
        prob, rest = state.project(qubit, basis.ket0)
        chosen = 0 if rng.random() < prob else 1
        if chosen == 1:
            prob, rest = state.project(qubit, basis.ket1)
    else:
        chosen = int(outcome)
        if chosen not in (0, 1):
            raise ValueError("outcome must be 0 or 1")
        prob, rest = state.project(qubit, basis.ket1 if chosen else basis.ket0)
    if prob < ZERO_PROBABILITY:
        raise ZeroProbabilityBranch(
            f"outcome {chosen} on qubit {qubit!r} has zero probability"
        )
    collapsed, _ = rest.normalized()
    return OutcomeRecord(qubit, basis, chosen, prob), collapsed
