"""Reference kernels that scale the benchmark's timings to a nominal speed.

The speed of one CPU of a shared host drifts by up to a third over minutes,
far more than the benchmark's bounds allow.  ``run.py`` therefore times a
kernel that does not touch qmonogamy, on the CPU its workers are pinned to,
whenever a worker pauses, and scales the run's times by
``nominal / (mean of the kernel's timings)``.  Each workload gets the kernel
that does the kind of work it spends its time in, since the two kinds do
not slow down alike.
"""

from __future__ import annotations

import time

import numpy as np

_MATRIX = (np.arange(16.0).reshape(4, 4) + 1j * np.eye(4)) / 16.0
_MATRIX = _MATRIX + _MATRIX.conj().T
_ARRAY = np.linspace(0.01, 1.0, 300_000)


def _small_matrix_kernel():
    """Small LAPACK calls and interpreter work, about 25 ms."""
    for _ in range(900):
        np.linalg.eigh(_MATRIX)
        np.linalg.svd(_MATRIX, compute_uv=False)
        sum({j: j * 1.5 for j in range(40)}.values())


def _array_kernel():
    """Ufuncs over arrays of 300k points, as in a grid sweep, about 25 ms."""
    for _ in range(6):
        z = np.power(_ARRAY, 2.5) - np.log(_ARRAY) * _ARRAY
        np.maximum(z, 0.1, out=z)
        z.min()


# Workload -> (kernel, nominal seconds).  The nominal is the mean timing of
# the kernel on the 2-CPU host the benchmark was tuned on (Python 3.11.7,
# numpy 2.4.6, OpenBLAS 0.3.31), so scaled figures read as seconds on that
# host at its median speed.
KERNELS = {
    "grid-sweep": (_array_kernel, 0.0236),
    "state-sweep": (_small_matrix_kernel, 0.0287),
    "roof-oracle": (_small_matrix_kernel, 0.0287),
    "evaluate-chain": (_small_matrix_kernel, 0.0287),
}


def reference_seconds(workload: str) -> float:
    """One timing of the workload's reference kernel."""
    kernel, _nominal = KERNELS[workload]
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def scale_factor(workload: str, timings: list[float]) -> float:
    """Factor that scales a run's times to the nominal speed."""
    _kernel, nominal = KERNELS[workload]
    # The mean follows the run's average speed; the median, or the best of
    # several back-to-back timings, follows the fast moments and scaled
    # worse on the tuning host.
    return nominal * len(timings) / sum(timings)
