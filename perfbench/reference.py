"""A fixed reference kernel that measures how fast the host is right now.

On a shared host the same request's CPU time moved by up to 2x from one
minute to the next, because of the other guests on the machine, not the
program.  The worker runs this kernel before and after every timed
request and scales the request's time by ``REF_KERNEL_S`` over the kernel's
mean time on the two sides.  A figure then reads as seconds on a host on
which the kernel takes ``REF_KERNEL_S``, within the range of its time on
the 2-vCPU machine the reference figures in README.md come from (per-run
medians of 16 to 31 ms there).

The kernel imports nothing from geodens, so no change to the program moves
it.  Its mix follows what the workloads spend their time on: numpy calls on
2x2 matrices and short vectors (the per-node frame kernels), elementwise
passes over a 256 KB array (bulk quadrature and expression evaluation),
and plain Python arithmetic.  The array stays small so that the kernel adds
almost nothing to a workload's peak memory, and the passes write into a
fixed buffer: freshly mapped temporaries would add page faults to the
kernel's time in some workloads' processes and not in others.
"""
from __future__ import annotations

import time

import numpy as np

REF_KERNEL_S = 0.030

_MATRIX = np.array([[1.0, 2.0], [3.0, 5.0]])
_GRID = np.linspace(-1.0, 1.0, 1 << 15)
_BUF = np.empty_like(_GRID)


def _work() -> float:
    total = 0.0
    for i in range(800):                      # small-array numpy calls
        m = _MATRIX @ _MATRIX.T + i
        total += float(np.linalg.det(m))
        total += float(np.sin(np.linspace(0.0, 1.0, 64)).sum())
    for _ in range(32):                       # bulk elementwise passes
        np.multiply(_GRID, _GRID, out=_BUF)
        np.negative(_BUF, out=_BUF)
        np.exp(_BUF, out=_BUF)
        np.multiply(_BUF, _GRID, out=_BUF)
        total += float(_BUF.sum())
    n = 0
    for i in range(40000):                    # interpreter arithmetic
        n += i * i
    return total + n


def kernel_seconds() -> float:
    """CPU seconds of one run of the reference kernel."""
    c0 = time.process_time()
    _work()
    return time.process_time() - c0
