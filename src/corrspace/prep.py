"""Post-selected linear-optics preparation of the resource states.

The builders in :mod:`corrspace.wires` define the target states abstractly.
This module simulates the optical route to the same states: entangled
polarization pairs are pushed through polarization-dependent attenuators
(probabilistic filters), a post-selected two-photon conditional-phase
element, a path relabeling, and polarization-to-path expansions.  Every
filter is a contraction, so the pipeline tracks the overall post-selection
probability, and the final state is verified against the abstract builder.

Functions
---------
``pbc_filter``          single-qubit polarization filter
                        diag(sqrt(t_h), sqrt(t_v)).
``pbc_overlap_filter``  one filter cube crossed by two photons: each photon's
                        V amplitude is attenuated by sqrt(t_v) (H by
                        sqrt(t_h)) and the joint VV amplitude acquires a
                        minus sign from two-photon interference.  With
                        t_h = 1, t_v = 1/3, followed by a ``pbc_filter``
                        (t_h = 1/3) on the second photon, the combined
                        effect is diag(sqrt(1/3), sqrt(1/3), 1/3, -1/3) — a
                        post-selected conditional-phase gate with an extra
                        polarization weighting of the first photon.
``pbs_expand``          polarization-to-path expansion |H> -> |H>|H'>,
                        |V> -> |V>|V'>; an isometry that adds one qubit.
``exchange_labels``     a reroute of outputs: two register names swap.
``methods_pipeline``    the filters in order, then (for psi6) the reroute
                        and the two expansions; the product of the filters'
                        post-selection probabilities is returned.
"""

from __future__ import annotations

from math import cos, pi, sin, sqrt
from typing import Callable

import numpy as np

from . import qmath as qm
from .qmath import StateVector
from .wires import PSI6_LABELS, build_psi4, build_psi6

# ---------------------------------------------------------------------------
# Elementary transforms
# ---------------------------------------------------------------------------

def _post_select(
    state: StateVector, t_h: float, t_v: float, act: Callable[[float, float], StateVector]
) -> tuple[StateVector, float]:
    """Run the filter ``act(sqrt(t_h), sqrt(t_v))`` on ``state`` and post-select.

    Returns the renormalized state and the post-selection probability (the
    squared norm ratio).  Raises if a transmission lies outside [0, 1] or if
    the filter annihilates the state.
    """
    for name, t in (("t_h", t_h), ("t_v", t_v)):
        if not 0.0 <= t <= 1.0:
            raise ValueError(f"{name}={t} outside [0, 1]")
    raw = act(sqrt(t_h), sqrt(t_v))
    norm_in = state.norm
    if norm_in == 0.0:
        raise ValueError("input state has zero norm")
    prob = (raw.norm / norm_in) ** 2
    if prob <= 1e-300:
        raise ValueError("filter post-selection annihilated the state")
    return raw.normalized()[0], float(prob)


def pbc_filter(
    state: StateVector, qubit: str, t_h: float, t_v: float
) -> tuple[StateVector, float]:
    """Polarization-dependent filter diag(sqrt(t_h), sqrt(t_v)) on one qubit."""
    return _post_select(
        state, t_h, t_v,
        lambda sh, sv: state.apply(np.diag([sh, sv]).astype(complex), qubit),
    )


def pbc_overlap_filter(
    state: StateVector, qubit_a: str, qubit_b: str, t_h: float, t_v: float
) -> tuple[StateVector, float]:
    """One filter cube crossed by two photons.

    Each photon's amplitudes are filtered by diag(sqrt(t_h), sqrt(t_v)) and
    the joint VV amplitude flips sign (two-photon interference in the cube).
    """
    return _post_select(
        state, t_h, t_v,
        lambda sh, sv: state.apply(
            np.diag([sh * sh, sh * sv, sv * sh, -sv * sv]).astype(complex),
            qubit_a, qubit_b,
        ),
    )


def pbs_expand(state: StateVector, qubit: str, new_label: str) -> StateVector:
    """Split a polarization qubit over two paths: |H> -> |H>|H'>, |V> -> |V>|V'>.

    The new path qubit ``new_label`` is appended at the end of the register;
    the map is an isometry (norm and inner products preserved).
    """
    if new_label in state.labels:
        raise ValueError(f"label {new_label!r} already present")
    ax = state.labels.index(qubit) if qubit in state.labels else None
    if ax is None:
        raise KeyError(f"unknown qubit label {qubit!r}")
    n = state.n_qubits
    amps = state.amps.reshape([2] * n)
    expanded = np.zeros([2] * n + [2], dtype=complex)
    idx_h = [slice(None)] * n
    idx_h[ax] = 0
    expanded[tuple(idx_h) + (0,)] = amps[tuple(idx_h)]
    idx_v = [slice(None)] * n
    idx_v[ax] = 1
    expanded[tuple(idx_v) + (1,)] = amps[tuple(idx_v)]
    return StateVector(state.labels + (new_label,), expanded.reshape(-1))


def exchange_labels(state: StateVector, a: str, b: str) -> StateVector:
    """Swap the names of two register positions (physical path relabeling)."""
    if a not in state.labels or b not in state.labels:
        raise KeyError(f"labels {a!r}, {b!r} must both be present")
    renamed = tuple(b if l == a else a if l == b else l for l in state.labels)
    return StateVector(renamed, state.amps)


# ---------------------------------------------------------------------------
# The resource-state preparation pipelines
# ---------------------------------------------------------------------------

def entangled_pair(label_a: str, label_b: str) -> StateVector:
    """The prepared two-photon input (|H>|P> + |V>|M>)/sqrt2."""
    h = StateVector.from_kets([(label_a, "H"), (label_b, "P")])
    v = StateVector.from_kets([(label_a, "V"), (label_b, "M")])
    return StateVector(h.labels, (h.amps + v.amps) / qm.SQRT2)


def weighting_transmissions(theta: float) -> tuple[float, float]:
    """Filter transmissions turning |P>/|M> weights into cos/sin weights.

    Returns (t_h, t_v) with max(t_h, t_v) = 1: the less-attenuated
    polarization passes unfiltered.
    """
    c, s = cos(theta), sin(theta)
    if not (c > 0 and s > 0):
        raise ValueError("theta must lie strictly inside (0, pi/2)")
    if s <= c:
        return 1.0, (s / c) ** 2
    return (c / s) ** 2, 1.0


def balance_transmissions(theta: float) -> tuple[float, float]:
    """First-photon filter completing the conditional-phase weighting.

    The conditional-phase combination weights the first photon by
    diag(cos(pi/6), sin(pi/6)) up to scale; this filter converts that into
    diag(cos(theta), sin(theta)).  At theta = pi/6 it is the identity and
    the filter passes everything.
    """
    c, s = cos(theta), sin(theta)
    if not (c > 0 and s > 0):
        raise ValueError("theta must lie strictly inside (0, pi/2)")
    f_h = min(1.0, c / (sqrt(3.0) * s))
    f_v = min(1.0, sqrt(3.0) * s / c)
    return f_h**2, f_v**2


def methods_pipeline(
    target: str, theta: float = pi / 6
) -> tuple[StateVector, float]:
    """Run the full optical preparation and verify it against the builder.

    Starting from two entangled pairs on labels (1,2) and (3,4): two
    weighting filters, the conditional-phase combination, and the balancing
    filter on photon 1.  For "psi6" the outputs are then rerouted (labels 1
    and 2 exchange) and photons 1 and 3 are expanded into paths 1p and 3p.

    Returns the normalized output state (register ordered as the builder's)
    and the overall post-selection probability, the product of the filters'
    probabilities.  Raises if any stage annihilates the state or if the
    output fails to match the builder state (overlap modulus 1 within 1e-10).
    """
    if target not in ("psi4", "psi6"):
        raise ValueError(f"unknown target {target!r} (expected 'psi4' or 'psi6')")
    t_h, t_v = weighting_transmissions(theta)
    b_h, b_v = balance_transmissions(theta)
    state = entangled_pair("1", "2").tensor(entangled_pair("3", "4"))
    state, p_2 = pbc_filter(state, "2", t_h, t_v)
    state, p_3 = pbc_filter(state, "3", t_h, t_v)
    state, p_14 = pbc_overlap_filter(state, "1", "4", 1.0, 1.0 / 3.0)
    state, p_4 = pbc_filter(state, "4", 1.0 / 3.0, 1.0)
    state, p_1 = pbc_filter(state, "1", b_h, b_v)
    prob = p_2 * p_3 * p_14 * p_4 * p_1
    if target == "psi4":
        state = state.reorder(("1", "2", "3", "4"))
        reference = build_psi4(theta)
    else:
        state = exchange_labels(state, "1", "2")
        state = pbs_expand(state, "1", "1p")
        state = pbs_expand(state, "3", "3p")
        state = state.reorder(PSI6_LABELS)
        reference = build_psi6(theta)
    if abs(qm.overlap_modulus(state, reference) - 1.0) > 1e-10:
        raise AssertionError("optical pipeline output does not match the builder")
    return state, float(prob)
