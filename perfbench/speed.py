"""How fast the machine runs at the moment, from short fixed probes.

This benchmark shares a few cores of a busy host.  A core's speed jumps
between states for seconds at a time: pure Python code runs about 1.7x
slower in the slow state and numpy code about 1.3-1.5x slower, and the share
of time in the slow state drifts over minutes.  Raw pass times therefore
spread by 15-30% from one run to the next whatever the program does.

The runner calls :func:`probe` before every op and once after the last, so
the probes sample the same machine states as the ops.  Two probes of fixed
work run back to back: a pure-Python loop and a numpy mix (element-wise
maths, a block of normal draws, a small ``eigh``).  Neither calls into
``mcombine``, so no change to the program moves them.  :func:`slowdown`
turns their mean times into a factor against reference times; the runner
divides measured times by it and reports seconds at reference speed.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

import numpy as np

#: Probe times on an unloaded core of the host the benchmark was defined on
#: (x86-64, Python 3.11, numpy 2.4 with OpenBLAS, one BLAS thread).  They set
#: the scale of the reported seconds and never change between commits.
REF_PYTHON_S = 2.2e-3
REF_NUMPY_S = 1.8e-3

#: Share of each workload's slowdown taken from the Python probe; the rest
#: comes from the numpy probe.  Chosen from traces, at the commit that defined
#: the benchmark, as the mix whose ratio to pass time spread least between
#: 30-second windows.
PYTHON_SHARE = {"mc_harness": 0.5, "analytic_maps": 1.0, "pipeline_data": 0.75}

_GEN = np.random.default_rng(0)
_X = _GEN.standard_normal((128, 512))
_A = _X[:32, :32] @ _X[:32, :32].T


def _term(x: float, y: float) -> float:
    return math.exp(-x * x) * y + 0.5


def _python_work() -> float:
    total = 0.0
    for i in range(15000):
        total += _term(i * 1e-4, 0.3)
    return total


def _numpy_work() -> float:
    total = 0.0
    for _ in range(2):
        total += float(np.exp(-_X * _X).sum(axis=0)[0])
        total += float(_GEN.standard_normal((256, 128))[0, 0])
        total += float(np.linalg.eigh(_A)[0][0])
    return total


def probe() -> tuple[float, float]:
    """Seconds taken by the Python probe and by the numpy probe."""
    start = perf_counter()
    _python_work()
    mid = perf_counter()
    _numpy_work()
    return mid - start, perf_counter() - mid


def slowdown(probes: list[tuple[float, float]], python_share: float) -> float:
    """Mean probe time against the reference, mixed by ``python_share``."""
    py = statistics.fmean(p for p, _ in probes) / REF_PYTHON_S
    npy = statistics.fmean(n for _, n in probes) / REF_NUMPY_S
    return python_share * py + (1.0 - python_share) * npy
