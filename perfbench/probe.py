"""A fixed reference kernel that measures how fast the host is right now.

The benchmark's CPUs are shared with other tenants, and their speed
swings by 1.6x every few tenths of a second, and by up to 2.5x for
minutes at a time. Each worker runs this
kernel right after the program's call, in the same process. The run
scales the calls' CPU times by REFERENCE_CPU_S / (the kernel's CPU
time), and their wall times the same way, or, for a workload whose work
is split over every CPU, by REFERENCE_S / (the kernel's wall time):
seconds at the reference speed, from which most of the host's drift
cancels.

The kernel is the benchmark's own code and never imports the program,
so a change to the program cannot change it. It mixes the two kinds of
work the workloads do: small-vector numpy steps driven from Python on
one thread (as in gradient inversion), and kd-tree queries with the
max-norm over a fixed point set, split over every CPU (as the KSG
estimates do with `workers=-1`). The split queries wait for the slower
CPU, as the program's do, so the kernel also sees a spell in which
another tenant holds one of the two CPUs.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.spatial import cKDTree

# Wall and CPU seconds per kernel pass at the reference speed: about
# the medians on the host the baseline was recorded on (2 vCPUs of an
# Intel Xeon, numpy 2.4.6, scipy 1.17.1). They only set the scale of
# the figures.
REFERENCE_S = 0.15
REFERENCE_CPU_S = 0.16
PASSES = 4

_rng = np.random.default_rng(20240921)
_W = _rng.normal(size=(10, 64))
_X0 = _rng.uniform(size=64)
_POINTS = _rng.normal(size=(1000, 2))
_RADII = np.full(len(_POINTS), 0.05)


def _vector_steps(steps: int) -> float:
    x = _X0.copy()
    for _ in range(steps):
        z = _W @ x
        p = np.exp(z - z.max())
        p /= p.sum()
        g = np.concatenate([np.outer(p, x).ravel(), p])
        x = np.clip(x - 0.01 * np.sign(_W.T @ p) * np.linalg.norm(g), 0.0, 1.0)
    return float(x.sum())


def _tree_queries(rounds: int) -> float:
    total = 0.0
    for _ in range(rounds):
        tree = cKDTree(_POINTS)
        dist, _ = tree.query(_POINTS, k=4, p=np.inf, workers=-1)
        counts = tree.query_ball_point(_POINTS, _RADII, p=np.inf, workers=-1,
                                       return_length=True)
        total += float(dist[:, -1].sum()) + float(counts.sum())
    return total


def kernel() -> float:
    """One pass of the fixed work; returns a checksum so nothing is skipped."""
    return _vector_steps(2500) + _tree_queries(12)


def seconds_per_pass() -> tuple[float, float]:
    """Wall and CPU seconds (all threads) per pass, over PASSES passes."""
    wall, cpu = time.perf_counter(), time.process_time()
    for _ in range(PASSES):
        kernel()
    return ((time.perf_counter() - wall) / PASSES,
            (time.process_time() - cpu) / PASSES)
