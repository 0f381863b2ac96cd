"""Monte Carlo over the Airy point process via the edge of tridiagonal GUE ensembles.

The top eigenvalues of an N x N GUE matrix, centered at 2 sqrt(N) and scaled by
N^(1/6), converge to the Airy point process.  Sampling uses the symmetric
tridiagonal beta=2 ensemble (diagonal N(0,1), off-diagonal chi with decreasing
degrees of freedom), whose top eigenvalues are cheap to extract.

Functionals estimated here:
  * series_moment_mc  -- moments of S = sum_p E_p e^{C a_p} with i.i.d. Exp(1)
    weights E_p; E[S^k] = k! E[h_k(e^{C a})] = e^{kT/24} E[Z(T,0)^k].
  * hk_mc             -- E[h_k(e^{C a_1}, e^{C a_2}, ...)] directly.
  * conditional_laplace_mc -- E prod_p (1 + u e^{C a_p})^{-1}, matching the
    multiplicative Fredholm determinant.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

from .combinatorics import h_complete

__all__ = [
    "EnsembleConfig",
    "AirySampleSet",
    "MCEstimate",
    "sample_airy_points",
    "series_moment_mc",
    "hk_mc",
    "conditional_laplace_mc",
    "write_samples_csv",
]


@dataclass(frozen=True)
class EnsembleConfig:
    """Finite-N approximation parameters for the Airy point process."""

    matrix_size: int = 800
    top_points: int = 24
    replicas: int = 2000
    seed: int = 0

    def __post_init__(self):
        if self.matrix_size < 50:
            raise ValueError("matrix_size must be >= 50 for a meaningful edge limit")
        if not 1 <= self.top_points <= self.matrix_size:
            raise ValueError("top_points must be in [1, matrix_size]")
        if self.replicas < 1:
            raise ValueError("replicas must be positive")


@dataclass(frozen=True)
class AirySampleSet:
    """Scaled edge samples: points[r, j] is the (j+1)-th highest point of replica r."""

    config: EnsembleConfig
    points: np.ndarray = field(repr=False)

    def __post_init__(self):
        r, m = self.points.shape
        if r != self.config.replicas or m != self.config.top_points:
            raise ValueError("sample array shape does not match the configuration")
        if np.any(np.diff(self.points, axis=1) > 0):
            raise ValueError("points must be sorted decreasing within each replica")


@dataclass(frozen=True)
class MCEstimate:
    value: float
    stderr: float
    replicas: int


def _replica_rng(seed: int, replica: int, component: int = 0) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=(seed, replica, component)))


def sample_airy_points(config: EnsembleConfig) -> AirySampleSet:
    """Draw scaled GUE edge samples; replica r is reproducible from (seed, r) alone."""
    n = config.matrix_size
    m = config.top_points
    scale = n ** (1.0 / 6.0)
    center = 2.0 * math.sqrt(n)
    out = np.empty((config.replicas, m))
    dof = np.arange(n - 1, 0, -1).astype(float)
    for r in range(config.replicas):
        rng = _replica_rng(config.seed, r)
        diag = rng.normal(size=n)
        off = np.sqrt(rng.gamma(shape=dof))
        top = eigvalsh_tridiagonal(diag, off, select="i", select_range=(n - m, n - 1))
        out[r] = scale * (top[::-1] - center)
    return AirySampleSet(config, out)


def _weights_exp(sample: AirySampleSet, C: float, k: int) -> np.ndarray:
    """e^{C a_p} per replica, with a truncation-bias warning when the cut matters.

    The discarded points sit below the m-th one, so their total contribution to
    sum e^{C a_p} is controlled by the smallest retained term.
    """
    ex = np.exp(C * sample.points)
    tail = ex[:, -1].mean()
    if tail > 1e-3 * max(ex[:, 0].mean(), 1e-300) * k:
        warnings.warn(
            f"truncation at {sample.config.top_points} points may bias the estimate "
            f"(smallest retained weight {tail:.3e}); increase top_points",
            RuntimeWarning,
        )
    return ex


def series_moment_mc(k: int, T: float, sample: AirySampleSet) -> MCEstimate:
    """E[S^k] for S = sum_p E_p e^{C a_p}, E_p i.i.d. Exp(1); equals e^{kT/24} E[Z(T,0)^k].

    The exponential weights are resampled per replica with a sub-stream of the
    replica generator, keeping the estimate reproducible.
    """
    if not 1 <= k <= 2:
        raise ValueError("series_moment_mc supports k in {1, 2}; variance explodes beyond")
    C = (T / 2.0) ** (1.0 / 3.0)
    ex = _weights_exp(sample, C, k)
    nrep, m = ex.shape
    vals = np.empty(nrep)
    for r in range(nrep):
        e = _replica_rng(sample.config.seed, r, component=1).exponential(size=m)
        vals[r] = np.sum(e * ex[r]) ** k
    return MCEstimate(float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(nrep)), nrep)


def hk_mc(k: int, T: float, sample: AirySampleSet) -> MCEstimate:
    """E[h_k(e^{C a_1}, e^{C a_2}, ...)], the partition-summed Laplace functional."""
    if not 1 <= k <= 3:
        raise ValueError("hk_mc supports k <= 3")
    C = (T / 2.0) ** (1.0 / 3.0)
    ex = _weights_exp(sample, C, k)
    vals = h_complete(k, ex.T)  # one h_k per replica, elementwise over the columns
    return MCEstimate(float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(len(vals))), len(vals))


def conditional_laplace_mc(u: float, T: float, sample: AirySampleSet) -> MCEstimate:
    """E prod_p (1 + u e^{C a_p})^{-1}; the sampling counterpart of the Fredholm determinant."""
    if u <= 0:
        raise ValueError("u must be positive")
    C = (T / 2.0) ** (1.0 / 3.0)
    logs = np.log1p(u * np.exp(C * sample.points)).sum(axis=1)
    vals = np.exp(-logs)
    return MCEstimate(float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(len(vals))), len(vals))


def write_samples_csv(sample: AirySampleSet, path: str) -> None:
    """Persist scaled edge samples; one row per replica, columns a1..am."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["replica"] + [f"a{j+1}" for j in range(sample.config.top_points)])
        for r, row in enumerate(sample.points):
            writer.writerow([r] + [f"{v:.12g}" for v in row])
