"""Frozen reference kernel: how fast the machine runs right now.

On a shared host the same code can run 1.5x slower for tens of seconds at a
time, because other tenants load the same cores; neither CPU time nor steal
time shows it. The benchmark times this kernel between repetitions and
scales each repetition's throughput by (kernel time / NOMINAL_S), which
removes most of that swing. The kernel's mix is that of a cellassoc
run-point: small numpy calls plus tuples and dicts built in Python. It does
not touch cellassoc, so a change to the package cannot move it.

Do not edit the kernel or NOMINAL_S: either changes the scale of
``points_per_s``, and numbers are comparable only under the same kernel.
"""

from __future__ import annotations

import time

import numpy as np

# The kernel's time on an unloaded 2-core Xeon (2.1 GHz), Python 3.11.7,
# numpy 2.4.6; it only sets the scale of the normalised throughput.
NOMINAL_S = 0.08


def kernel() -> int:
    """Two halves: many small arrays (paper-size run-points), then one large
    array turned into Python tuples and dicts (the M=5000 matching path)."""
    rng = np.random.default_rng(12345)
    acc = 0
    for _ in range(150):
        u = rng.random((60, 20))
        order = np.argsort(-u, axis=1, kind="stable")
        prefs = [tuple(int(n) for n in row) for row in order]
        ranks = [{h: k for k, h in enumerate(p)} for p in prefs]
        acc += sum(r[3] for r in ranks)
        acc += int(np.bincount(order[:, 0], minlength=20).max())
        acc += int(np.log(u + 1.0).sum() > 0)
    u = rng.random((2000, 200))
    order = np.argsort(-u, axis=1, kind="stable")
    prefs = tuple(tuple(int(n) for n in row) for row in order[:300])
    ranks = [{h: k for k, h in enumerate(p)} for p in prefs]
    acc += sum(r[5] for r in ranks) + int(np.log(u + 1.0).sum() > 0)
    return acc


def time_kernel() -> float:
    """Wall time of one kernel call, in seconds."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start
