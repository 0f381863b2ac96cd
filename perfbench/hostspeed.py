"""Host-speed reference kernels: end-to-end times in reference-host seconds.

The benchmark runs on a few cores of a host shared with other tenants.  Their
load slows this process by up to a third for minutes at a time, memory-bound
work more than compute-bound work, so the raw wall time of one commit spreads
from run to run by more than the benchmark's regression bounds: ten runs of
xcheck-sweep on a 2-vCPU x86_64 VM took 32.8 to 54.1 s.

Each workload is paired with a fixed numpy/scipy kernel of the same kind as
its dominant layer.  A kernel never calls shemom: no change to the program
moves it, only the host does.  It runs before every task and after the last
one, outside the task's timing.  A task's time is scaled by
``nominal / (mean of the two kernel times around it)``: the time the task
would take on a host where the kernel takes its nominal seconds.  Raw times
stay in the run details.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

_RNG = np.random.default_rng(20180812)
_POINTS = _RNG.normal(size=(150_000, 4))
_DIAG = _RNG.normal(size=800)
_OFF = np.sqrt(_RNG.gamma(shape=np.arange(799, 0, -1.0)))


def _dram() -> None:
    """Batched 4x4 complex determinants over 150k points, twice, like the partition sums of she_moments."""
    for _ in range(2):
        mats = 1.0 / (1j * (_POINTS[:, :, None] - _POINTS[:, None, :]) + 1.0)
        np.linalg.det(mats).sum()


def _lapack() -> None:
    """Top 24 eigenvalues of an n=800 tridiagonal matrix, 15 times, like the GUE-edge sampler."""
    for _ in range(15):
        eigvalsh_tridiagonal(_DIAG, _OFF, select="i", select_range=(776, 799))


def _vector() -> None:
    """80 exponential-Euler steps of a 20000 x 3 state, like the polymer replicas."""
    rng = np.random.default_rng(1)
    z = np.ones((20_000, 3))
    for _ in range(80):
        z = z * np.exp(rng.normal(scale=0.05, size=z.shape) - 0.00125)


class Kernel:
    def __init__(self, name: str, run, nominal: float):
        self.name = name
        self.run = run
        # about the kernel's median seconds on a 2-vCPU x86_64 VM (numpy 2, OpenBLAS, one
        # thread); it fixes the unit of reference-host seconds and never changes
        self.nominal = nominal

    def __call__(self) -> float:
        t0 = time.perf_counter()
        self.run()
        return time.perf_counter() - t0

    def reference_seconds(self, task_seconds: list, kernel_seconds: list) -> float:
        """Sum of task times, each scaled to the nominal kernel speed; kernel runs bracket every task."""
        if len(kernel_seconds) != len(task_seconds) + 1:
            raise ValueError("need one kernel time before every task and one after the last")
        return sum(
            t * self.nominal / (0.5 * (before + after))
            for t, before, after in zip(task_seconds, kernel_seconds, kernel_seconds[1:])
        )


KERNELS = {
    "xcheck-sweep": Kernel("dram", _dram, 0.36),
    "edge-mc": Kernel("lapack", _lapack, 0.135),
    "polymer-limit": Kernel("vector", _vector, 0.11),
}
