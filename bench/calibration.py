"""A fixed calibration kernel, timed next to every rep.

The benchmark host's speed drifts: both cores slow down together by up to
half for tens of seconds at a time, as other tenants load the machine.
Within one 30 s run this moved the median rep time by up to 30 % between
runs of identical code. The kernel below does a constant amount of the
same kind of work a sweep does: small complex linear algebra and Python
call overhead. Timing it right before and after each rep gives the speed the
machine had during that rep, and ``trials_per_kernel`` (trials completed in
one kernel time) cancels most of the drift. The kernel never calls
relaysec, so a change to the program cannot move it.

``setup_s`` must stay in seconds, so each set-up probe's wall time is
scaled to ``NOMINAL_KERNEL_S``: it reads as the set-up time on a machine
where the kernel takes 10 ms, about its median on a 2-core Xeon virtual machine.
"""

from __future__ import annotations

import time

import numpy as np

_RNG = np.random.default_rng(20240)
_MATRICES = _RNG.standard_normal((48, 4, 4)) + 1j * _RNG.standard_normal((48, 4, 4))
_EYE = np.eye(4)
_ROUNDS = 5
NOMINAL_KERNEL_S = 0.010


def _kernel() -> float:
    acc = 0.0
    seen = {}
    for k, m in enumerate(_MATRICES):
        gram = m @ m.conj().T + _EYE
        acc += np.linalg.slogdet(gram)[1]
        acc += float(np.real(np.trace(np.linalg.solve(gram, _EYE))))
        acc += float(np.sum(np.abs(np.einsum("ij,jk->ik", m, m)) ** 2))
        seen[(k, k % 3)] = acc
    return acc


def kernel_seconds() -> float:
    """Wall time of ``_ROUNDS`` runs of the kernel (about 10 ms on a 2-core Xeon)."""
    start = time.perf_counter()
    for _ in range(_ROUNDS):
        _kernel()
    return time.perf_counter() - start
