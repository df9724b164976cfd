"""A fixed calibration kernel that measures how fast the host runs right now.

The benchmark's host is a few cores of a shared machine whose speed swings
by tens of percent over seconds, with the load of its neighbours.  The
benchmark runs this kernel right after every trial it times and scales the
trial's wall time by NOMINAL_S over the kernel's time (the mean of the runs
just before and just after the trial): a slowdown that hits the trial and
the kernel alike cancels.  The kernel mixes the kinds of work a satcoop
trial does (a Bessel function over an array, small batched numpy products
and reductions, a Python dict loop) and uses no satcoop code, so a change
to satcoop moves the scaled times as it moves the wall times.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np
from scipy.special import jv

# Seconds the kernel counts for: a scaled time is the wall time on a host on
# which warm_s() reads NOMINAL_S.  It is about what warm_s() reads on the
# 2-vCPU host the benchmark was tuned on when that host runs at full speed,
# so scaled times are close to the wall times of its fast phases.
NOMINAL_S = 0.002

_rng = np.random.default_rng(20111107)
_X = _rng.uniform(0.1, 30.0, 2000)
_G = _rng.uniform(0.1, 1.0, (8, 13, 13))
_P0 = np.ones((8, 13))


def kernel_s() -> float:
    """Run the kernel once; return its wall time in seconds."""
    t0 = perf_counter()
    jv(3, _X)
    p = _P0
    for _ in range(24):
        s = np.einsum("bij,bj->bi", _G, p)
        p = np.clip(p + 0.01 / (1.0 + s), 0.0, 2.0)
        p = p * (13.0 / p.sum(axis=1, keepdims=True))
    d: dict = {}
    for i in range(500):
        k = (7 * i) % 61
        d[k] = d.get(k, 0.0) + 0.5 * i
    return perf_counter() - t0


def warm_s() -> float:
    """Run the kernel twice; return the second run's time, which the caches
    left behind by what ran before barely touch."""
    kernel_s()
    return kernel_s()
