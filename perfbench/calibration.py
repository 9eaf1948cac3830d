"""Machine-speed calibration of the end-to-end timings.

The benchmark runs on shared virtual CPUs.  On the 2-vCPU machine of the
baseline each vCPU flips, within seconds and independently of the other,
between a fast and a slower state, and the share of slow time changes from
minute to minute.  Raw wall times of the same code therefore spread by 20-45%
between 30-second runs.

The slow state does not slow all code alike.  Timed against each other on
that machine, a fresh interpreter that imports hopfq took 1.50-1.53 times as
long in the slow state as in the fast one, like a plain integer loop, while
in-process hopfq calls (a `sample` batch, an `analyze` request) took 1.6-1.85
times as long, like small-object, dict and small-array code.  So there are two
kernels, each doing the kind of work its ops do:

- ``startup``: an interpreter loop plus small numpy calls, for ops that start
  a process (every `cli` command, every set-up start);
- ``library``: small objects, dict look-ups and small numpy arrays, for the
  in-process `sample` and `analyze` ops.

``run.py`` pins itself and its children to one CPU and times the workload's
kernel on it between ops (and before every set-up start).  Each end-to-end
time is multiplied by ``speed_factor(kind) = REFERENCE_S[kind] / kernel
time``: it reads as the time on a CPU where the kernel takes its reference,
about the fast state of the baseline machine.  The kernels use no hopfq code,
so a change to hopfq moves the scaled times exactly as it moves the raw ones;
the raw figures are printed beside them.
"""

from time import perf_counter

import numpy as np

REFERENCE_S = {"startup": 0.0021, "library": 0.0018}
REPEATS = 3

_VEC = np.arange(16.0)
_TENSOR = np.ones((16, 16, 16))


class _Pair:
    __slots__ = ("index", "key")

    def __init__(self, index, key):
        self.index = index
        self.key = key


def startup_kernel():
    """Interpreter loop plus small numpy calls."""
    total = 0
    for i in range(30000):
        total += i * i
    for _ in range(100):
        np.einsum("kab,a,b->k", _TENSOR, _VEC, _VEC)
    return total


def library_kernel():
    """Small objects, dict look-ups and small numpy arrays, as hopfq's own calls make."""
    table = {}
    for i in range(2000):
        pair = _Pair(i, str(i))
        table[pair.key] = pair
        table.get(str(i // 2))
    total = 0.0
    for i in range(300):
        a = np.array([1.0, 2.0, 3.0, float(i)])
        total += float((a * 2.0 + a).sum())
    for _ in range(30):
        np.einsum("kab,a,b->k", _TENSOR, _VEC, _VEC)
    return total + len(table)


KERNELS = {"startup": startup_kernel, "library": library_kernel}


def speed_factor(kind):
    """REFERENCE_S[kind] divided by the fastest of REPEATS runs of that kernel."""
    kernel = KERNELS[kind]
    best = float("inf")
    for _ in range(REPEATS):
        t0 = perf_counter()
        kernel()
        best = min(best, perf_counter() - t0)
    return REFERENCE_S[kind] / best
