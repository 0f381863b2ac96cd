"""Integer moments E[Z(T,X)^k] of the stochastic heat equation with delta initial data.

Three routes are implemented: the nested contour integral over ordered vertical
lines, the partition/determinant residue expansion on a common imaginary axis,
and a Gaussian-expectation Monte Carlo form of the Airy-kernel Laplace
transforms.  All three target the same quantity and are cross-checked against
each other and against closed-form oracles in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.special import erfc

from .combinatorics import Partition, enumerate_partitions, multiplicity_factor
from .quadrature import cauchy_pair_det, default_halfwidth, gauss_hermite_cauchy

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


def _check_anchors(anchors: Sequence[float]) -> None:
    for a in range(len(anchors)):
        for b in range(a + 1, len(anchors)):
            if anchors[a] - anchors[b] <= 1.0:
                raise ValueError(
                    f"anchors must satisfy alpha_A - alpha_B > 1 for A < B, "
                    f"got {anchors[a]} - {anchors[b]}"
                )


_ERR_FLOOR_REL = 1e-11  # roundoff floor on reported quadrature errors


def _cross_factor(zs: list[np.ndarray]) -> np.ndarray:
    out = 1.0
    k = len(zs)
    for a in range(k):
        for b in range(a + 1, k):
            d = zs[a] - zs[b]
            out = out * (d / (d - 1.0))
    return out


def _contour_tensor_value(k, T, X, anchors, n, Y) -> complex:
    """(2 pi)^-k tensor trapezoid of the nested-contour integrand, n+1 nodes per axis."""
    y = np.linspace(-Y, Y, n + 1)
    h = y[1] - y[0]
    w = np.full(n + 1, h)
    w[0] = w[-1] = h / 2

    if k == 1:
        z1 = anchors[0] + 1j * y
        val = complex(np.sum(w * np.exp((T / 2.0) * z1 * z1 + X * z1)))
    elif k == 2:
        z1 = (anchors[0] + 1j * y)[:, None]
        z2 = (anchors[1] + 1j * y)[None, :]
        ww = w[:, None] * w[None, :]
        d = z1 - z2
        val = complex(np.sum(ww * (d / (d - 1.0)) * np.exp((T / 2.0) * (z1 * z1 + z2 * z2) + X * (z1 + z2))))
    else:  # k == 3, chunk over the first axis
        z2 = (anchors[1] + 1j * y)[:, None]
        z3 = (anchors[2] + 1j * y)[None, :]
        ww23 = w[:, None] * w[None, :]
        base23 = (T / 2.0) * (z2 * z2 + z3 * z3) + X * (z2 + z3)
        d23 = (z2 - z3) / (z2 - z3 - 1.0)
        val = 0.0 + 0.0j
        for i, y1 in enumerate(y):
            z1 = anchors[0] + 1j * y1
            cross = ((z1 - z2) / (z1 - z2 - 1.0)) * ((z1 - z3) / (z1 - z3 - 1.0)) * d23
            integ = cross * np.exp(base23 + (T / 2.0) * z1 * z1 + X * z1)
            val += w[i] * complex(np.sum(ww23 * integ))
    return val / (2.0 * math.pi) ** k


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
        integ = _cross_factor(zs)
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
    Carlo for k in {4, 5}.
    """
    k, T, X = req.k, req.T, req.X
    if k > 5:
        raise ValueError("moment_contour supports k <= 5")
    if anchors is None:
        anchors = default_anchors(k)
    _check_anchors(anchors)

    if k <= 3:
        if nodes is None:
            nodes = {1: 800, 2: 512, 3: 256}[k]
        Y = halfwidth if halfwidth is not None else default_halfwidth(T, tol=1e-13)
        v_full = _contour_tensor_value(k, T, X, anchors, nodes, Y)
        v_half = _contour_tensor_value(k, T, X, anchors, nodes // 2, Y)
        err = abs(v_full - v_half) + _ERR_FLOOR_REL * abs(v_full)
        value, imag = v_full.real, abs(v_full.imag)
        err = max(err, imag)
        if imag > 10.0 * err:
            raise InconsistencyError(f"imaginary residue {imag} exceeds 10x error {err}")
        meta = {"nodes": nodes, "halfwidth": Y, "anchors": list(anchors), "imag": imag}
    else:
        value, err = _contour_mc_value(k, T, X, anchors, samples, seed)
        meta = {"samples": samples, "seed": seed, "anchors": list(anchors)}
    return MomentEstimate(value, float(err), "contour", meta)


def reduce_to_origin(req: MomentRequest) -> tuple[float, MomentRequest]:
    """Spatial-stationarity shift: E[Z(T,X)^k] = exp(-k X^2 / 2T) * E[Z(T,0)^k]."""
    factor = math.exp(-req.k * req.X**2 / (2.0 * req.T))
    return factor, MomentRequest(req.k, req.T, 0.0)


def _partition_exponent_parts(lam: Partition, T: float):
    """Per-axis pieces of (T/2) sum_r (w + r)^2 on the centered lines w_j = -(lam_j-1)/2 + i y.

    Centering kills the oscillatory linear term: the exponent becomes
    (T/2)[-lam_j y^2 + (lam_j^3 - lam_j)/12], which float arithmetic handles
    without catastrophic cancellation even for large T * lam^3.
    """
    lam_arr = np.asarray(lam.parts, dtype=float)
    const = (T / 2.0) * (lam_arr**3 - lam_arr) / 12.0
    decay = T * lam_arr / 2.0  # Gaussian envelope exp(-decay * y^2)
    return lam_arr, const, decay


def _partition_term_gh(lam: Partition, T: float, order: int) -> float:
    """(2 pi)^-l integral of the lambda summand by tensor Gauss-Hermite.

    On the centered lines w_j = -(lam_j - 1)/2 + i y_j the determinant
    det[1/(w_i + lam_i - w_j)] is cauchy_pair_det(y, lam).
    """
    lam_arr, const, decay = _partition_exponent_parts(lam, T)
    val = gauss_hermite_cauchy(np.sqrt(decay), lam_arr, order)
    return val * math.exp(float(np.sum(const))) / (2.0 * math.pi) ** lam.length


def _partition_term_mc(lam: Partition, T: float, samples: int, rng) -> tuple[float, float]:
    """Monte Carlo fallback for long partitions: Gaussian sampling of the envelope."""
    lam_arr, const, decay = _partition_exponent_parts(lam, T)
    ell = lam.length
    sigma = 1.0 / np.sqrt(2.0 * decay)
    # envelope normalization: int exp(-decay y^2) dy = sqrt(pi / decay)
    norm = math.exp(float(np.sum(const))) * float(np.prod(np.sqrt(math.pi / decay)))
    vals = []
    done = 0
    while done < samples:
        m = min(50_000, samples - done)
        ys = rng.normal(0.0, 1.0, size=(m, ell)) * sigma[None, :]
        vals.append(cauchy_pair_det(ys.T, lam_arr))
        done += m
    v = np.concatenate(vals)
    mean = float(np.mean(v))
    se = float(np.std(v, ddof=1) / math.sqrt(len(v)))
    c = norm / (2.0 * math.pi) ** ell
    return c * mean, c * se


_GH_ORDER_BY_LENGTH = {1: 160, 2: 96, 3: 48, 4: 28}


def moment_partition(
    k: int,
    T: float,
    gh_order: int | None = None,
    mc_samples: int = 200_000,
    seed: int = 0,
) -> MomentEstimate:
    """E[Z(T,0)^k] by the partition/determinant residue expansion.

    Partitions of length <= 4 are integrated on tensor Gauss-Hermite grids
    (the integrand carries an exact Gaussian envelope on the imaginary axis);
    longer partitions fall back to Gaussian Monte Carlo.
    """
    if k > 8:
        raise ValueError("moment_partition supports k <= 8")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
    total = 0.0
    err = 0.0
    imag = 0.0
    terms = {}
    for lam in enumerate_partitions(k):
        coeff = multiplicity_factor(lam)
        if lam.length <= 4:
            order = gh_order if gh_order is not None else _GH_ORDER_BY_LENGTH[lam.length]
            v = _partition_term_gh(lam, T, order)
            v_half = _partition_term_gh(lam, T, max(6, order // 2))
            term_err = coeff * abs(v - v_half)
            term = coeff * v.real
            imag += coeff * abs(v.imag)
        else:
            v_mean, v_se = _partition_term_mc(lam, T, mc_samples, rng)
            term = coeff * v_mean
            term_err = coeff * v_se
        total += term
        err += term_err
        terms[str(lam.parts)] = term
    err += _ERR_FLOOR_REL * abs(total)
    err = max(err, imag)
    if imag > 10.0 * err:
        raise InconsistencyError(f"imaginary residue {imag} exceeds 10x error {err}")
    meta = {"gh_order": gh_order, "mc_samples": mc_samples, "seed": seed, "terms": terms}
    return MomentEstimate(total, float(err), "partition", meta)


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


def _laplace_r_mc(c: np.ndarray, samples: int, rng) -> tuple[float, float]:
    """R(c_1..c_n) via the Gaussian-expectation form; returns (mean, stderr).

    R(c) = e^{sum c^3/12} prod_i (2 sqrt(pi) c_i^{3/2})^{-1}
           * E prod_{i<j} [(Z_i-Z_j)^2 + (c_i-c_j)^2/4] / [(Z_i-Z_j)^2 + (c_i+c_j)^2/4]
    with Z_i independent N(0, 1/(2 c_i)).  Both factors of each pair ratio
    depend on the difference Z_i - Z_j; the constants and the ratio are
    re-derived from the Cauchy determinant and pinned by the n=1 closed form
    e^{c^3/12}/(2 sqrt(pi) c^{3/2}) and by direct n=2 quadrature.
    """
    n = len(c)
    # the Cauchy determinant carries prod_i 1/c_i; pref holds the rest
    pref = math.exp(float(np.sum(c**3) / 12.0)) / float(np.prod(2.0 * math.sqrt(math.pi) * np.sqrt(c)))
    if n == 1:
        return pref / float(c[0]), 0.0
    sigma = 1.0 / np.sqrt(2.0 * c)
    zs = rng.normal(0.0, 1.0, size=(samples, n)) * sigma[None, :]
    dets = cauchy_pair_det(zs.T, c)
    mean = float(np.mean(dets))
    se = float(np.std(dets, ddof=1) / math.sqrt(samples))
    return pref * mean, pref * se


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
    scale = math.factorial(k) * math.exp(-k * T / 24.0)
    total = 0.0
    var = 0.0
    for lam in enumerate_partitions(k):
        inv_mult = 1.0
        for m in lam.multiplicities.values():
            inv_mult /= math.factorial(m)
        c = C * np.asarray(lam.parts, dtype=float)
        r_mean, r_se = _laplace_r_mc(c, samples, rng)
        total += inv_mult * r_mean
        var += (inv_mult * r_se) ** 2
    value = scale * total
    err = scale * math.sqrt(var)
    meta = {"samples": samples, "seed": seed, "C": C}
    return MomentEstimate(value, err, "gaussian_mc", meta)
