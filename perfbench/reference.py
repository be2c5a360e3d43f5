"""Reference kernels: fixed work that measures how fast the host runs now.

The benchmark shares its host with other tenants' virtual machines, and the
host's speed changes by up to 1.8x for tens of seconds at a time.  On the
2-vCPU VM this benchmark was written on, a 600 s recording of the shots
workload, cut into 25 s windows, gave a quartile spread of 19% of the median
in throughput and 30% in median latency, with the code unchanged; windows of
50 s still spread 15% and 18%.  Runs of that length cannot be steady on the
wall clock alone.

So the timed phase interleaves short bursts of a reference kernel with the
operations, and divides the times measured just before each burst by the
burst's slowdown: its time over its time on an unloaded host.  Set-up time
is divided by the slowdown of one burst run right after it.  The kernels
never call corrspace, so a change to the library moves the scaled times as
it moves the wall-clock ones, while the host's load mostly cancels.  Over
ten seeds per workload, the quartile spread of throughput fell from 10-15%
of the median unscaled to 1-4.5% scaled, and that of median latency from
4.5-19% to 2.5-6.5%.

A kernel cancels the load only as far as its work resembles the workload's
(the interpreted kernel made tomo's set-up time spread more, not less), so
each workload names its own:

* ``interpreted``: Python loops around numpy calls on 64-amplitude states,
  as in the measurement programs, the witness and the CLI;
* ``dense``: the fixed-point update of ML tomography on a 1296 x 16 matrix of
  measurement kets, as in ``noise_tomo.ml_reconstruct``, with BLAS threads.

``UNLOADED_MS`` holds each kernel's time per call on an unloaded 2-vCPU Xeon
(2.1 GHz) VM with Python 3.11, numpy 2.4 and OpenBLAS 0.3.31, rounded; it
sets only the scale of the scaled metrics.
"""

from __future__ import annotations

import time

import numpy as np

_STATE = (np.exp(1j * np.linspace(0.0, 3.0, 64)) / 8.0).reshape([2] * 6)
_GATE = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
_RHO = np.outer(_STATE.reshape(64)[:16], _STATE.reshape(64)[:16].conj())
_KETS = np.exp(0.37j * np.outer(np.arange(1296), np.arange(16))) / 4.0
_KETS_C = _KETS.conj()


def interpreted() -> float:
    psi, tally, parity = _STATE, {}, 0
    for i in range(6):
        psi = np.moveaxis(np.tensordot(_GATE, psi, axes=(1, i)), 0, i)
        probs = np.abs(psi.reshape(64)) ** 2
        key = tuple(int(b) for b in format(i, "06b"))
        tally[key] = tally.get(key, 0.0) + float(probs.max())
        parity += sum(bin(c & (i + 1)).count("1") % 2 for c in range(64))
    rho = _RHO
    for _ in range(2):
        rho = rho @ _RHO.conj().T
        rho = rho / np.trace(rho).real
    return parity + float(rho.real.sum())


def dense() -> float:
    rho = np.eye(16, dtype=complex) / 16
    for _ in range(3):
        p = np.real(np.sum((_KETS_C @ rho) * _KETS, axis=1))
        w = 1.0 / (len(p) * np.clip(p, 1e-300, None))
        r = (_KETS * w[:, None]).T @ _KETS_C
        rho = r @ rho @ r
        rho /= np.real(np.trace(rho))
    return float(rho.real.sum())


KERNELS = {"interpreted": interpreted, "dense": dense}
UNLOADED_MS = {"interpreted": 0.4, "dense": 1.0}
for _run in KERNELS.values():  # first calls pay one-time costs, not the host's load
    _run()


def slowdown(kernel: str, calls: int) -> float:
    """Run one burst of a kernel right after the work it scales; its time
    over the unloaded time.  The burst starts with the caches as that work
    left them, as the work's own next operation would."""
    run = KERNELS[kernel]
    t0 = time.perf_counter()
    for _ in range(calls):
        run()
    return (time.perf_counter() - t0) / (calls * UNLOADED_MS[kernel] * 1e-3)
