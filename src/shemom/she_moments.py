"""Integer moments E[Z(T,X)^k] of the stochastic heat equation with delta initial data.

Three routes are implemented: the nested contour integral over ordered vertical
lines, the partition/determinant residue expansion on a common imaginary axis,
and a Gaussian-expectation Monte Carlo form of the Airy-kernel Laplace
transforms.  The last two are the same sum over partitions, airy.residue_sum,
and differ only in how each Laplace transform R is evaluated.  All routes
target the same quantity and are cross-checked against each other and against
closed-form oracles in the test suite.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.special import erfc

from .airy import laplace_R, laplace_R_mc, residue_sum
from .combinatorics import enumerate_partitions  # noqa: F401  re-exported for callers of this module
from .quadrature import check_nested, contour_cross, default_halfwidth, nested_contour_sum

__all__ = [
    "MomentRequest",
    "MomentEstimate",
    "heat_kernel",
    "default_anchors",
    "moment_contour",
    "reduce_to_origin",
    "moment_partition",
    "dominant_term",
    "dominant_term_log",
    "moment_gaussian_mc",
    "erfc_reduction_oracle",
]


class InconsistencyError(RuntimeError):
    """A computed estimate violates an internal consistency check."""


@dataclass(frozen=True)
class MomentRequest:
    k: int
    T: float
    X: float = 0.0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("moment order k must be >= 1")
        if not (math.isfinite(self.T) and math.isfinite(self.X)):
            raise ValueError("time T and position X must be finite")
        if self.T <= 0:
            raise ValueError("time T must be positive")


@dataclass
class MomentEstimate:
    value: float
    err: float
    method: str
    meta: dict = field(default_factory=dict)


def heat_kernel(T: float, X: float = 0.0) -> float:
    """E[Z(T,X)] for delta initial data: the standard heat kernel."""
    return math.exp(-X * X / (2.0 * T)) / math.sqrt(2.0 * math.pi * T)


def default_anchors(k: int, gap: float = 1.5) -> tuple[float, ...]:
    """Anchor schedule alpha_j = (k - j) * gap; any pairwise gap > 1 avoids the poles."""
    return tuple(gap * (k - j) for j in range(1, k + 1))


_ERR_FLOOR_REL = 1e-11  # roundoff floor on reported quadrature errors


def _contour_tensor_value(T, X, anchors, n, Y) -> complex:
    """(2 pi)^-k tensor trapezoid of the nested-contour integrand, n+1 nodes per axis.

    Raises FloatingPointError when the weights overflow (large T on far anchors).
    """
    y = np.linspace(-Y, Y, n + 1)
    h = y[1] - y[0]
    w = np.full(n + 1, h)
    w[0] = w[-1] = h / 2
    zs = [a + 1j * y for a in anchors]
    with np.errstate(over="ignore", invalid="ignore"):
        ws = [w * np.exp((T / 2.0) * z * z + X * z) for z in zs]
        value = nested_contour_sum(zs, ws) / (2.0 * math.pi) ** len(zs)
    if not np.isfinite(value):
        raise FloatingPointError(f"contour route overflowed at T={T} with anchors {tuple(anchors)}")
    return value


def _contour_mc_value(k, T, X, anchors, samples, seed) -> tuple[float, float]:
    """Importance-sampled contour value for k in {4, 5}; Gaussian proposals per axis."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
    alpha = np.asarray(anchors)
    pref = (2.0 * math.pi * T) ** (-k / 2.0) * math.exp(
        float(np.sum((T / 2.0) * alpha**2 + X * alpha))
    )
    chunk = 200_000
    done = 0
    acc = []
    while done < samples:
        m = min(chunk, samples - done)
        ys = rng.normal(0.0, 1.0 / math.sqrt(T), size=(m, k))
        zs = [alpha[j] + 1j * ys[:, j] for j in range(k)]
        integ = 1.0
        for a, b in itertools.combinations(range(k), 2):
            integ = integ * contour_cross(zs[a], zs[b])
        phase = np.zeros(m, dtype=complex)
        for j in range(k):
            phase += 1j * (T * alpha[j] + X) * ys[:, j]
        acc.append(np.real(integ * np.exp(phase)))
        done += m
    vals = np.concatenate(acc)
    mean = float(np.mean(vals))
    se = float(np.std(vals, ddof=1) / math.sqrt(samples))
    return pref * mean, pref * se


def moment_contour(
    req: MomentRequest,
    anchors: Sequence[float] | None = None,
    nodes: int | None = None,
    halfwidth: float | None = None,
    samples: int = 2_000_000,
    seed: int = 0,
) -> MomentEstimate:
    """E[Z(T,X)^k] by the nested contour formula over ordered vertical lines.

    Full tensor quadrature for k <= 3; Gaussian importance-sampling Monte
    Carlo for k in {4, 5}.  At k <= 3 an estimate that is not positive beyond
    its error bar has no correct digit (the moment is positive) and raises
    FloatingPointError.
    """
    k, T, X = req.k, req.T, req.X
    if k > 5:
        raise ValueError("moment_contour supports k <= 5")
    if anchors is None:
        anchors = default_anchors(k)
    check_nested(anchors, k, "anchors")

    if k <= 3:
        if nodes is None:
            nodes = {1: 800, 2: 512, 3: 256}[k]
        Y = halfwidth if halfwidth is not None else default_halfwidth(T, tol=1e-13)
        v_full = _contour_tensor_value(T, X, anchors, nodes, Y)
        v_half = _contour_tensor_value(T, X, anchors, nodes // 2, Y)
        err = abs(v_full - v_half) + _ERR_FLOOR_REL * abs(v_full)
        value, imag = v_full.real, abs(v_full.imag)
        if imag > 10.0 * err:
            raise InconsistencyError(f"imaginary residue {imag} exceeds 10x error {err}")
        err = max(err, imag)
        if value <= err:
            raise FloatingPointError(f"contour route gave {value:.3g} +- {err:.3g} at T={T}, X={X}; a moment is positive")
        meta = {"nodes": nodes, "halfwidth": Y, "anchors": list(anchors), "imag": imag}
    else:
        value, err = _contour_mc_value(k, T, X, anchors, samples, seed)
        meta = {"samples": samples, "seed": seed, "anchors": list(anchors)}
    return MomentEstimate(value, float(err), "contour", meta)


def reduce_to_origin(req: MomentRequest) -> tuple[float, MomentRequest]:
    """Spatial-stationarity shift: E[Z(T,X)^k] = exp(-k X^2 / 2T) * E[Z(T,0)^k]."""
    factor = math.exp(-req.k * req.X**2 / (2.0 * req.T))
    return factor, MomentRequest(req.k, req.T, 0.0)


_GH_ORDER_BY_LENGTH = {1: 160, 2: 96, 3: 48, 4: 28}


def moment_partition(
    k: int,
    T: float,
    gh_order: int | None = None,
    mc_samples: int = 200_000,
    seed: int = 0,
) -> MomentEstimate:
    """E[Z(T,0)^k] by the partition/determinant residue expansion.

    The residue of partition lambda is k! e^{-kT/24} R(C lambda) / prod m_i!
    (see airy.residue_sum).  R is integrated on tensor Gauss-Hermite grids for
    lengths <= 4 (the integrand carries an exact Gaussian envelope on the
    imaginary axis); longer partitions fall back to Gaussian Monte Carlo.
    """
    if k > 8:
        raise ValueError("moment_partition supports k <= 8")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))

    def R(c):
        ell = len(c)
        if ell > 4:
            return laplace_R_mc(c, mc_samples, rng)
        order = gh_order if gh_order is not None else _GH_ORDER_BY_LENGTH[ell]
        return laplace_R(c, order=order, with_err=True)

    total, terms = residue_sum(k, (T / 2.0) ** (1.0 / 3.0), R)
    scale = math.factorial(k) * math.exp(-k * T / 24.0)
    value = scale * total
    err = scale * sum(e for _, e in terms.values()) + _ERR_FLOOR_REL * abs(value)
    meta = {
        "gh_order": gh_order,
        "mc_samples": mc_samples,
        "seed": seed,
        "terms": {str(lam.parts): scale * v for lam, (v, _) in terms.items()},
    }
    return MomentEstimate(value, float(err), "partition", meta)


def dominant_term_log(k: int, T: float) -> float:
    """log of the lambda = (k) summand: (k-1)! e^{T(k^3-k)/24} / sqrt(2 pi k T).

    The determinant of the single-part summand is the scalar 1/k, so the
    closed form carries (k-1)! rather than k!.
    """
    if k < 1 or T <= 0:
        raise ValueError("need k >= 1 and T > 0")
    return math.lgamma(k) + T * (k**3 - k) / 24.0 - 0.5 * math.log(2.0 * math.pi * k * T)


def dominant_term(k: int, T: float) -> float:
    """The lambda = (k) summand of the residue expansion, in linear space."""
    return math.exp(dominant_term_log(k, T))


def erfc_reduction_oracle(T: float) -> float:
    """Semi-analytic E[Z(T,0)^2]: closed-form lambda=(2) term plus an erfc reduction of lambda=(1,1).

    Uses E[1/(1 + a G^2)] = sqrt(pi/2a) e^{1/2a} erfc(1/sqrt(2a)) with G standard normal.
    """
    lam2 = math.exp(T / 4.0) / (2.0 * math.sqrt(math.pi * T))
    lam11 = 1.0 / (2.0 * math.pi * T) - math.exp(T / 4.0) * erfc(math.sqrt(T) / 2.0) / (
        4.0 * math.sqrt(math.pi * T)
    )
    return lam2 + lam11


def moment_gaussian_mc(k: int, T: float, samples: int = 100_000, seed: int = 0) -> MomentEstimate:
    """E[Z(T,0)^k] via the Gaussian-expectation Monte Carlo form of the Airy Laplace transforms.

    E[Z^k] = k! e^{-kT/24} * sum_{lambda |- k} (1/prod m_i!) R(C lambda_1, ..., C lambda_l),
    with C = (T/2)^{1/3} and each R evaluated by Monte Carlo.
    """
    if k > 6:
        raise ValueError("moment_gaussian_mc supports k <= 6")
    if samples < 1_000:
        raise ValueError("need at least 1000 samples")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
    C = (T / 2.0) ** (1.0 / 3.0)
    total, terms = residue_sum(k, C, lambda c: laplace_R_mc(c, samples, rng))
    scale = math.factorial(k) * math.exp(-k * T / 24.0)
    value = scale * total
    err = scale * math.sqrt(sum(e**2 for _, e in terms.values()))
    meta = {"samples": samples, "seed": seed, "C": C}
    return MomentEstimate(value, err, "gaussian_mc", meta)
