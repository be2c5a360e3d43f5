"""Two-outcome projective measurements on labeled registers.

Provides the angle-parametrized polarization basis used to drive wire
rotations (one basis, or the kets of many angles as one stack), the Pauli
bases, and Born-rule collapse (post-selected or sampled) on pure and mixed
states.

A basis's kets have one format: a read-only (2, 2) complex array whose row
k is the ket of outcome k.  A ``MeasurementBasis`` holds one as ``kets``,
and a (G, 2, 2) stack holds one per row; ``_check_orthonormal`` checks
both.

Bases are shared, like the named resource states of ``wires``: each
(zeta, theta) pair gets one frozen ``basis_B`` basis, and the last 1,024
pairs used are kept.  The key tells -0.0 from 0.0:
B(-0) and B(0) differ in name.  Stacks are shared the same way: each
(zetas, theta) pair gets one read-only ``basis_B_stack`` array, and the
last 64 pairs used are kept.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from math import copysign, sqrt
from typing import Sequence

import numpy as np

from . import qmath as qm
from .qmath import State
from .wires import _check_theta

# Outcomes less likely than this are not followed: the measured step
# ``_measured_step`` (under both ``measure`` and ``Program.run``) raises
# ``ZeroProbabilityBranch`` and the branch walker skips the child.
ZERO_PROBABILITY = 1e-15

#: (zeta, theta) pairs whose ``basis_B`` basis is kept (least recently used go).
_SHARED_BASES = 1024

#: (zetas, theta) pairs whose ``basis_B_stack`` stack is kept (least recently
#: used go); ``noisy_success_curve`` asks for at most 3 per chunk of its grid.
_SHARED_STACKS = 64


class ZeroProbabilityBranch(ValueError):
    """The requested (or sampled) outcome has numerically zero probability."""


@dataclass(frozen=True, eq=False)
class MeasurementBasis:
    """An orthonormal single-qubit basis; outcome k selects row k of ``kets``.

    ``kets`` is the basis's own read-only (2, 2) complex copy of the two
    kets, laid out as a row of ``basis_B_stack``; ``ket0`` and ``ket1`` are
    views of its rows.  Construction checks the kets' shape, then runs
    ``_check_orthonormal`` on them.

    A basis equals and hashes as itself alone (object identity), so bases
    can key a dict; the shared ``basis_B`` and ``pauli_basis`` bases make
    equal arguments give the same object.
    """

    ket0: np.ndarray
    ket1: np.ndarray
    name: str = ""
    kets: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        k0 = np.asarray(self.ket0, dtype=complex).reshape(-1)
        k1 = np.asarray(self.ket1, dtype=complex).reshape(-1)
        if k0.shape != (2,) or k1.shape != (2,):
            raise ValueError("basis kets must be 2-vectors")
        kets = np.array((k0, k1))  # a copy: later edits of the caller's arrays do not reach it
        _check_orthonormal(kets[None])
        kets.setflags(write=False)
        object.__setattr__(self, "kets", kets)
        object.__setattr__(self, "ket0", kets[0])
        object.__setattr__(self, "ket1", kets[1])


@dataclass(frozen=True)
class OutcomeRecord:
    """One measurement event: which qubit, in which basis, what came out."""

    qubit: str
    basis: MeasurementBasis
    outcome: int
    probability: float

    def __post_init__(self) -> None:
        outcome = qm._bit(self.outcome, "outcome")
        if outcome is not self.outcome:  # a bool or NumPy integer is stored as int
            object.__setattr__(self, "outcome", outcome)
        if not -1e-12 <= self.probability <= 1 + 1e-12:
            raise ValueError("probability out of [0, 1]")


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
    numpy construction.

    Each (zeta, theta) pair gets one shared basis: the first call builds
    and checks it, later calls return the same object, and the last 1,024
    pairs used are kept.  The key tells -0.0 from 0.0 (B(-0) and B(0)
    differ in name).
    """
    # theta = +-0 is degenerate, so only zeta's sign needs a place in the key
    return _shared_basis_B(float(zeta), float(theta), copysign(1.0, zeta))


@functools.lru_cache(maxsize=_SHARED_BASES)
def _shared_basis_B(zeta: float, theta: float, zeta_sign: float) -> MeasurementBasis:
    _check_theta(theta)
    ket0, ket1 = _b_kets(zeta, float(np.cos(theta)), float(np.sin(theta)))
    return MeasurementBasis(ket0, ket1, name=f"B({zeta:.12g})")


def basis_B_stack(zetas: Sequence[float], theta: float = np.pi / 6) -> np.ndarray:
    """The kets of ``basis_B(zeta, theta)`` for every zeta, as one read-only
    (G, 2, 2) array: row g holds ket0 and ket1 of B(zetas[g]).

    Theta is checked once; each angle runs ``basis_B``'s arithmetic, so
    row g is byte for byte ``basis_B(zetas[g], theta).kets``.  The check
    of every basis, ``_check_orthonormal``, runs once over the whole stack.

    Each (zetas, theta) pair gets one shared stack: the first call builds
    and checks it, later calls with the same angles return the same array,
    and the last 64 pairs used are kept.  The key holds the angles' float64
    bytes, so a grid with -0.0 and one with 0.0 get separate stacks.  A
    failed build is not kept.
    """
    grid = np.asarray(zetas, dtype=float)
    if grid.ndim != 1:
        raise ValueError(f"zetas must be a 1-D sequence of angles, got shape {grid.shape}")
    return _shared_basis_B_stack(grid.tobytes(), float(theta))


@functools.lru_cache(maxsize=_SHARED_STACKS)
def _shared_basis_B_stack(zetas: bytes, theta: float) -> np.ndarray:
    _check_theta(theta)
    c, s = float(np.cos(theta)), float(np.sin(theta))
    rows = [_b_kets(zeta, c, s) for zeta in np.frombuffer(zetas).tolist()]
    kets = np.array(rows, dtype=complex).reshape(-1, 2, 2)
    _check_orthonormal(kets)
    kets.setflags(write=False)
    return kets


def _b_kets(
    zeta: float, c: float, s: float
) -> tuple[tuple[complex, complex], tuple[complex, complex]]:
    """ket0 and ket1 of B(zeta) for c = cos(theta), s = sin(theta); a
    non-finite zeta raises ``ValueError`` before any trig call."""
    qm._angle(zeta, "basis angle zeta")
    ch, sh = float(np.cos(zeta / 2)), float(np.sin(zeta / 2))
    lower0, lower1 = 1j * c * sh, -1j * s * ch
    return (
        _unit_rephased(s * ch, 0.0, lower0.real, lower0.imag),
        _unit_rephased(c * sh, 0.0, lower1.real, lower1.imag),
    )


def _check_orthonormal(kets: np.ndarray) -> None:
    """The one check of every basis and stack, over (G, 2, 2) ket pairs:
    each norm within 1e-12 of 1, then each overlap within 1e-12 of 0, in
    Python scalar arithmetic on the kets' entries."""
    pairs = kets.tolist()
    for (a0, a1), (b0, b1) in pairs:
        if not (abs(_norm(a0, a1) - 1) <= 1e-12 and abs(_norm(b0, b1) - 1) <= 1e-12):
            raise ValueError("basis kets must be normalized")
    for (a0, a1), (b0, b1) in pairs:
        if not abs(a0.conjugate() * b0 + a1.conjugate() * b1) <= 1e-12:
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


def pauli_basis(letter: str) -> MeasurementBasis:
    """Eigenbasis of a Pauli operator; outcome 0 is the +1 eigenstate.

    The three bases are built once and shared.
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
    return MeasurementBasis(qm.ket(k0), qm.ket(k1), name=letter)


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
    sampling) must be provided; ``outcome`` must be a Python or NumPy
    integer equal to 0 or 1 (a bool counts).  The measured qubit is removed
    from the register and the remaining state is renormalized.  An outcome
    of probability below ``ZERO_PROBABILITY`` raises
    ``ZeroProbabilityBranch``.

    The public one-step API: a state-in, state-out wrapper over
    ``_measured_step``, the step that ``Program.run`` loops over, so one
    call has the bits of one ``Program.run`` step and draws from ``rng``
    as that step does.  Whole outcome trees are walked by
    ``protocols.walk_branches``, which collapses a stack of states per tree
    level and never calls either.
    """
    if (outcome is None) == (rng is None):
        raise ValueError("provide exactly one of outcome= or rng=")
    record, labels, rest = _measured_step(state.labels, qm._array(state), qubit, basis, outcome, rng)
    return record, qm._state(labels, rest)


def _measured_step(
    labels: tuple[str, ...],
    data: np.ndarray,
    qubit: str,
    basis: MeasurementBasis,
    outcome: int | None,
    rng: np.random.Generator | None,
) -> tuple[OutcomeRecord, tuple[str, ...], np.ndarray]:
    """The one measured step of a branch, on its raw arrays.

    ``data`` is the amplitude vector (pure) or the matrix (mixed) of a
    register ``labels`` as a ``StateVector`` or ``DensityMatrix`` holds it;
    exactly one of ``outcome`` and ``rng`` is given.  Returns the outcome
    record and the collapsed branch: its labels, without ``qubit``, and
    its normalized array.  Only a requested outcome (``qmath._bit``) and
    the qubit (``qmath._index_of``) are checked; the state and the basis
    were checked by their constructors.

    Each drawn outcome costs one unnormalized ``qmath._collapse_one``, the
    unstacked kernel of ``qmath.collapse``: post-selection collapses onto the
    requested outcome's ket; sampling collapses onto ``kets[0]``, draws
    once with ``rng.random() < p0``, and collapses onto ``kets[1]`` as
    well only when outcome 1 is drawn.  The kept collapse is then divided
    once, by its norm sqrt(re . re + im . im) (pure) or by its real trace,
    which is the probability (mixed); this gives the bits of the same state
    collapsed in a stack by ``qmath.collapse``, the walker's step.
    """
    axis = qm._index_of(labels, qubit)
    n, pure, kets = len(labels), data.ndim == 1, basis.kets
    if outcome is None:
        prob, rest = qm._collapse_one(data, axis, kets[0], n, pure)
        outcome = 0 if rng.random() < prob else 1
        if outcome == 1:
            prob, rest = qm._collapse_one(data, axis, kets[1], n, pure)
    else:
        outcome = qm._bit(outcome, "outcome")
        prob, rest = qm._collapse_one(data, axis, kets[outcome], n, pure)
    prob = float(prob)
    if prob < ZERO_PROBABILITY:
        raise ZeroProbabilityBranch(
            f"outcome {outcome} on qubit {qubit!r} has zero probability"
        )
    if pure:
        re, im = rest.real, rest.imag
        rest = rest / sqrt(re.dot(re) + im.dot(im))
    else:
        rest = rest / prob
    return OutcomeRecord(qubit, basis, outcome, prob), labels[:axis] + labels[axis + 1:], rest
