"""A fixed reference kernel that calibrates the benchmark's wall times.

On a shared host the speed of the machine drifts by tens of percent over
minutes, and at times flips between a fast and a slow state within seconds,
as other tenants come and go; a 30-second run then measures the host as much
as the program. The benchmark runs this kernel right after every untraced
command and scales the command's time by REF_S over the kernel's time: a
calibrated time is the time the command would take on a machine on which
this kernel takes REF_S.

The kernel is the benchmark's own code and calls nothing in zeig, so a change
to the program moves calibrated times exactly as it moves wall times. It mixes
what zeig's commands spend their time on: a pure-Python loop, batched
contractions, a batched residual norm and a batched `np.linalg.solve`. It
stays on one thread: the contractions run in einsum's own loops rather than
BLAS, whose threaded calls take up to three times longer now and then on a
shared host while the mostly single-threaded commands do not slow down.
"""

from __future__ import annotations

import time

import numpy as np

# Nominal kernel time: about its median on the 2-vCPU x86-64 host the
# benchmark was tuned on, so calibrated and raw times read alike there.
REF_S = 0.005

_RNG = np.random.default_rng(0)
_A = _RNG.random((6, 6, 6))
_X = _RNG.random((200, 6))
_J = _RNG.random((300, 7, 7)) + 7 * np.eye(7)
_F = _RNG.random((300, 7))


def kernel_seconds() -> float:
    """Wall seconds of one run of the kernel."""
    start = time.perf_counter()
    total = 0.0
    table = {}
    for k in range(6000):
        table[k & 63] = total
        total += (k % 7) * 0.5
    for _ in range(20):
        ax = np.einsum("ijk,zj,zk->zi", _A, _X, _X)
        lam = (ax * _X).sum(axis=1)
        np.linalg.norm(ax - lam[:, None] * _X, axis=1)
    np.linalg.solve(_J, _F[..., None])
    return time.perf_counter() - start
