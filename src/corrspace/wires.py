"""Matrix-product computational wires and the small 2D resources built
from them.

A wire is an ordered list of site tensors between the fixed boundary
vectors ``LEFT`` = |+> and ``RIGHT`` = |0> in correlation space.  A site
tensor is a read-only (2, 2, 2) array whose ``[s]`` is the 2x2 matrix T[s]
the site assigns to outcome s.  The amplitude of a physical configuration
|s1...sn> is <RIGHT| T[sn] ... T[s1] |LEFT>.  The first site label is the
most significant bit of the output state vector.

A resource (``ResourceSpec``) joins wires through |+> coupler sites, named
by label, and CZ edges, given as pairs of site labels.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import cos, isfinite, pi, sin

import numpy as np

from . import qmath
from .qmath import HAD, SQRT2, StateVector, Z, ket

CZ4 = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)

#: Largest register the dense engine contracts: states are 2^n amplitude
#: vectors and coupling edges act on them directly, so a wire or resource
#: holds at most this many qubits.
MAX_DENSE_QUBITS = 10

#: Wire angles each named-state builder remembers (least recently used go).
_CACHED_THETAS = 32


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


#: Boundary vectors of every wire.
LEFT = _read_only(ket("+"))
RIGHT = _read_only(ket("0"))


def _check_theta(theta: float) -> None:
    qmath._angle(theta, "degenerate wire angle: theta")
    if abs(sin(theta)) < 1e-9 or abs(cos(theta)) < 1e-9:
        raise ValueError("degenerate wire angle: sin(theta) and cos(theta) must be nonzero")


def _site(t_h: np.ndarray, t_v: np.ndarray) -> np.ndarray:
    return _read_only(np.stack((t_h, t_v)))


def a_site(theta: float) -> np.ndarray:
    """Computing site: T[H] = H*cos(theta), T[V] = H*Z*sin(theta)."""
    _check_theta(theta)
    return _site(HAD * cos(theta), (HAD @ Z) * sin(theta))


def b_site() -> np.ndarray:
    """Readout site: T[H] = H, T[V] = H*Z."""
    return _site(HAD, HAD @ Z)


def b_site_rotated() -> np.ndarray:
    """Readout site defined in the diagonal basis: T[P'] = H, T[M'] = H*Z.

    Stored in the computational basis, where the tensors become
    sqrt2*H|0><0| and sqrt2*H|1><1| for outcomes H' and V'.
    """
    t_p, t_m = HAD, HAD @ Z
    return _site((t_p + t_m) / SQRT2, (t_p - t_m) / SQRT2)


@dataclass(frozen=True)
class Wire:
    """Ordered (2, 2, 2) site tensors, one label each."""

    sites: tuple[np.ndarray, ...]
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "sites", tuple(self.sites))
        object.__setattr__(self, "labels", tuple(self.labels))
        if len(self.sites) != len(self.labels):
            raise ValueError("one label per site required")


@dataclass(frozen=True)
class ResourceSpec:
    """Wires plus |+> coupler sites (by label) and CZ edges (label pairs)."""

    wires: tuple[Wire, ...]
    couplers: tuple[str, ...] = ()
    edges: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "wires", tuple(self.wires))
        object.__setattr__(self, "couplers", tuple(self.couplers))
        object.__setattr__(self, "edges", tuple(tuple(e) for e in self.edges))
        labels = self.all_labels()
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate site labels across wires/couplers")
        for a, b in self.edges:
            if a == b or a not in labels or b not in labels:
                raise ValueError(f"edge ({a},{b}) must reference two distinct existing sites")

    def all_labels(self) -> tuple[str, ...]:
        return tuple(l for w in self.wires for l in w.labels) + self.couplers


def contract_wire(wire: Wire) -> tuple[StateVector, float]:
    """Contract a wire to a normalized state vector; also return the raw norm."""
    if not 1 <= len(wire.sites) <= MAX_DENSE_QUBITS:
        raise ValueError(f"wire must have between 1 and {MAX_DENSE_QUBITS} sites")
    # part[s1,...,sk;:] = T[sk]...T[s1] |LEFT>, built site by site.
    part = LEFT.reshape(1, 2)
    for site in wire.sites:
        # new axis for this site's outcome is appended after the existing ones
        part = np.einsum("sij,kj->ksi", site, part).reshape(-1, 2)
    amps = part @ np.conj(RIGHT)
    raw = float(np.linalg.norm(amps))
    if not isfinite(raw):
        raise ValueError(f"wire contraction produced a non-finite norm ({raw})")
    if raw < 1e-300:
        raise ValueError("wire contraction produced a zero state")
    return StateVector(wire.labels, amps / raw), raw


def contract_resource(spec: ResourceSpec) -> tuple[StateVector, float]:
    """Contract wires, tensor in the |+> couplers, apply the CZ edges."""
    if len(spec.all_labels()) > MAX_DENSE_QUBITS:
        raise ValueError(f"resource too large (more than {MAX_DENSE_QUBITS} qubits)")
    parts = [contract_wire(w) for w in spec.wires]
    # the stored |+> has norm 0.9999999999999999: divide it out, keep it in raw
    plus = ket("+")
    plus_norm = float(np.linalg.norm(plus))
    parts += [(StateVector((label,), plus / plus_norm), plus_norm) for label in spec.couplers]
    if not parts:
        raise ValueError("empty resource")
    state, raw_total = parts[0]
    for part, raw in parts[1:]:
        raw_total *= raw
        state = state.tensor(part)
    for a, b in spec.edges:
        state = state.apply(CZ4, a, b)
    normed, raw = state.normalized()
    return normed, raw_total * raw


# ---------------------------------------------------------------------------
# Named resource states
#
# They depend on the wire angle alone, so each is built once per angle and
# shared: the builders return the same read-only StateVector on every call
# (copy ``.amps`` before editing it).  A build that fails its checks raises
# and is not remembered.  Each builder stays a plain function over a private
# cached one, so it remains an ordinary function to wrap and time (the
# benchmark's tracer wraps plain functions only).
# ---------------------------------------------------------------------------

def _frozen(state: StateVector) -> StateVector:
    _read_only(state.amps)
    return state


def _cross_checked(state: StateVector, literal: StateVector, size: str) -> StateVector:
    """``state`` made read-only, once it matches its literal expansion."""
    # the bound is 1 - (1 - 1e-12) as rounded: the overlaps >= 1.0 - 1e-12 pass
    qmath.require(f"{size}-qubit build", 1.0 - qmath.overlap_modulus(state, literal),
                  1.0 - (1.0 - 1e-12), f"operational and literal {size}-qubit builds disagree")
    return _frozen(state)


def psi4_wire(theta: float = pi / 6) -> Wire:
    """The A,A,A,B wire on labels 1..4."""
    return Wire(
        (a_site(theta), a_site(theta), a_site(theta), b_site()),
        ("1", "2", "3", "4"),
    )


def build_psi4(theta: float = pi / 6) -> StateVector:
    """Four-qubit resource state on labels (1,2,3,4), normalized.

    Built operationally (the A,A,A,B wire) and cross-checked against the
    literal expansion; the two must agree up to global phase.
    """
    return _psi4(float(theta))


@functools.lru_cache(maxsize=_CACHED_THETAS)
def _psi4(theta: float) -> StateVector:
    state, _ = contract_wire(psi4_wire(theta))
    literal, _ = psi4_explicit(theta)
    return _cross_checked(state, literal, "four")


def psi4_explicit(theta: float = pi / 6) -> tuple[StateVector, float]:
    """Literal expansion of the four-qubit state; returns (normalized, raw norm).

    c|H>1 (c|H>+s|V>)2 (c|H>|P> + s|V>|M>)34
      + s|V>1 (c|H>-s|V>)2 (c|H>|M> + s|V>|P>)34
    """
    _check_theta(theta)
    c, s = cos(theta), sin(theta)
    H, V, P, M = ket("H"), ket("V"), ket("P"), ket("M")
    amps = (c * qmath.kron(H, c * H + s * V, c * np.kron(H, P) + s * np.kron(V, M))
            + s * qmath.kron(V, c * H - s * V, c * np.kron(H, M) + s * np.kron(V, P)))
    raw = float(np.linalg.norm(amps))
    return StateVector(("1", "2", "3", "4"), amps / raw), raw


def lambda34(theta: float = pi / 6) -> StateVector:
    """Two-qubit readout resource c|H>|P> + s|V>|M> on labels (3,4)."""
    return _lambda34(float(theta))


@functools.lru_cache(maxsize=_CACHED_THETAS)
def _lambda34(theta: float) -> StateVector:
    state, _ = contract_wire(Wire((a_site(theta), b_site()), ("3", "4")))
    return _frozen(state)


def psi6_spec(theta: float = pi / 6) -> ResourceSpec:
    """Operational six-qubit resource: two wires coupled through a |+> site.

    Wire (1,2,1p) has sites A,A,B; wire (3,3p) has sites A,B-spatial-rotated;
    site 4 is the |+> coupler, CZ-coupled to qubits 2 and 3.
    """
    wire_a = Wire((a_site(theta), a_site(theta), b_site()), ("1", "2", "1p"))
    wire_b = Wire((a_site(theta), b_site_rotated()), ("3", "3p"))
    return ResourceSpec((wire_a, wire_b), couplers=("4",), edges=(("2", "4"), ("3", "4")))


PSI6_LABELS = ("1", "2", "1p", "3", "3p", "4")


def build_psi6(theta: float = pi / 6) -> StateVector:
    """Six-qubit resource state on labels (1,2,1p,3,3p,4), normalized.

    Built operationally (coupled wires) and cross-checked against the
    literal expansion; the two must agree up to global phase.
    """
    return _psi6(float(theta))


@functools.lru_cache(maxsize=_CACHED_THETAS)
def _psi6(theta: float) -> StateVector:
    state, _ = contract_resource(psi6_spec(theta))
    literal, _ = psi6_explicit(theta)
    return _cross_checked(state.reorder(PSI6_LABELS), literal, "six")


def psi6_explicit(theta: float = pi / 6) -> tuple[StateVector, float]:
    """Literal six-qubit expansion; returns (normalized state, raw norm).

    |H>4 |mu>(1,2,1p) |nu>(3,3p) + |V>4 Z2|mu> Z3|nu>, with
    mu = c^2|HHH'> + cs|HVH'> + cs|VHV'> - s^2|VVV'> and
    nu = (c|HH'> + s|VV'>)/2.
    """
    _check_theta(theta)
    c, s = cos(theta), sin(theta)
    mu = np.zeros(8, dtype=complex)
    mu[0b000] = c * c
    mu[0b010] = c * s
    mu[0b101] = c * s
    mu[0b111] = -s * s
    nu = np.zeros(4, dtype=complex)
    nu[0b00] = c / 2
    nu[0b11] = s / 2
    z_mu = mu.copy()
    for idx in range(8):
        if (idx >> 1) & 1:  # qubit 2 is the middle bit of (1,2,1p)
            z_mu[idx] = -z_mu[idx]
    z_nu = nu.copy()
    for idx in range(4):
        if (idx >> 1) & 1:  # qubit 3 is the high bit of (3,3p)
            z_nu[idx] = -z_nu[idx]
    h4 = np.kron(np.kron(mu, nu), ket("H"))
    v4 = np.kron(np.kron(z_mu, z_nu), ket("V"))
    amps = h4 + v4  # register order (1,2,1p,3,3p,4)
    raw = float(np.linalg.norm(amps))
    return StateVector(PSI6_LABELS, amps / raw), raw

