"""Host-speed reference for calibrating wall-clock times.

A shared machine's speed drifts: on the reference machine (2 shared
vCPUs) a fixed Python loop took anywhere from 0.11 to 0.19 s, in phases
lasting seconds to minutes, and raw job times of ten runs spread by
20-45 % of their median.  The benchmark therefore brackets every timed
item with a run of a fixed kernel and rescales the item's wall time by
NOMINAL_S over the mean of the two bracketing kernel times: each time is
reported as seconds on a host where the kernel takes NOMINAL_S.  The
kernel lives in the benchmark, so no change to curvex can move it.
"""

from __future__ import annotations

import math
import time

import numpy as np

NOMINAL_S = 0.06  # about the kernel's median time on the reference machine

_A = np.sin(np.arange(192, dtype=float)).reshape(64, 3)
_B = np.cos(np.arange(192, dtype=float)).reshape(64, 3)
_G = np.linspace(0.0, 3.0, 512)


def _kernel() -> float:
    # scalar Python math, numpy calls on 3-vectors, and 512 x 512 array
    # passes: the three kinds of work curvex's hot paths are made of
    s = 0.0
    for i in range(60000):
        s += math.cos(i * 0.001) * 0.5 + (i % 7)
    for i in range(400):
        c = np.cross(_A[i % 64], _B[i % 64])
        s += float(np.dot(c, _A[(i + 1) % 64])) + float(np.max(np.abs(_A @ c)))
    for i in range(4):
        m = np.abs(np.cos(_G[:, None] * (i + 1) + _G[None, :]) * 0.5 - np.sin(_G))
        s += float(np.max(m)) + float(np.count_nonzero(m > 0.3))
    return s


def sample() -> float:
    """Seconds one run of the kernel takes now."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


def scale(before: float, after: float) -> float:
    """Factor from wall seconds to reference seconds for an item timed
    between two kernel samples."""
    return NOMINAL_S / (0.5 * (before + after))
