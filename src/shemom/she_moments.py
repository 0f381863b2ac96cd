"""Integer moments E[Z(T,X)^k] of the stochastic heat equation with delta initial data.

Three routes are implemented: the nested contour integral over ordered vertical
lines, the partition/determinant residue expansion on a common imaginary axis,
and a Gaussian-expectation Monte Carlo form of the Airy-kernel Laplace
transforms.  The contour route is one tensor trapezoid sum for k <= 4 on
anchors centred on the saddle -X/T; it refuses (FloatingPointError) a step
that aliases the phase of the integrand, an overflow, and an estimate with no
correct digit.
The last two routes are the same sum over partitions, airy.residue_sum, and
differ only in how each Laplace transform R is evaluated (airy.moment_from_airy
is the same sum unscaled, on the same Gauss-Hermite orders as the partition
route, so it is not a third estimate).  The partition route draws no random
number: a partition of length >= 5 enters as the midpoint of its Fischer
enclosure [0, B], so its report does not depend on the seed; only gaussian_mc
samples R.  All routes target the same quantity
and are cross-checked against each other and against closed-form oracles in
the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .airy import _R_GH_ORDER, _fischer_enclosure, edge_scale, laplace_R, laplace_R_mc, residue_sum
from .combinatorics import enumerate_partitions  # noqa: F401  re-exported for callers of this module
from .quadrature import check_nested, contour_cross, default_halfwidth, pairwise_tensor_sum

__all__ = [
    "ROUTES",
    "moment",
    "MomentRequest",
    "MomentEstimate",
    "heat_kernel",
    "default_anchors",
    "moment_contour",
    "reduce_to_origin",
    "moment_partition",
    "dominant_term_log",
    "moment_gaussian_mc",
    "erfc_reduction_oracle",
]


# the largest k of each moment route, in the order xcheck reports them
ROUTES = {"contour": 4, "partition": 8, "gaussian_mc": 6}


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
    """Centred anchors alpha_j = gap * ((k - 1)/2 - j), j = 0..k-1; any pairwise gap > 1 avoids the poles.

    Centring keeps max_j |T alpha_j| and the prefactor exp(T alpha_j^2 / 2) as
    small as the gaps allow.
    """
    return tuple(gap * ((k - 1) / 2.0 - j) for j in range(k))


_ERR_FLOOR_REL = 1e-11  # roundoff floor on reported quadrature errors


def _contour_tensor_value(T, X, anchors, n, Y) -> tuple[complex, float]:
    """(2 pi)^-k tensor trapezoid of the nested-contour integrand, n+1 nodes per axis.

    Also returns prod_a sum_j |ws[a][j]| / (2 pi)^k, the scale of the summed
    terms, which bounds the round-off of the sum.  On the line Re z = alpha
    the integrand turns with phase e^{i (T alpha + X) y}; a step h with
    h * max |T alpha + X| >= pi aliases it, and the sum has no correct digit.
    Raises FloatingPointError then, and when the weights overflow (large T on
    far anchors).
    """
    y = np.linspace(-Y, Y, n + 1)
    h = y[1] - y[0]
    turn = h * max(abs(T * a + X) for a in anchors)
    if turn >= math.pi:
        raise FloatingPointError(f"contour route aliases its phase ({turn:.3g} rad per step) at T={T}, X={X}")
    w = np.full(n + 1, h)
    w[0] = w[-1] = h / 2
    zs = [a + 1j * y for a in anchors]
    with np.errstate(over="ignore", invalid="ignore"):
        ws = [w * np.exp((T / 2.0) * z * z + X * z) for z in zs]
        value = complex(pairwise_tensor_sum(ws, contour_cross(zs))) / (2.0 * math.pi) ** len(zs)
        scale = math.prod(float(np.sum(np.abs(wa))) for wa in ws) / (2.0 * math.pi) ** len(zs)
    if not (np.isfinite(value) and math.isfinite(scale)):
        raise FloatingPointError(f"contour route overflowed at T={T} with anchors {tuple(anchors)}")
    return value, scale


def moment_contour(
    req: MomentRequest, anchors: Sequence[float] | None = None, nodes: int | None = None
) -> MomentEstimate:
    """E[Z(T,X)^k] for k <= 4 by the nested contour formula over ordered vertical lines.

    A tensor trapezoid sum on every line (quadrature.pairwise_tensor_sum); the
    default anchors are default_anchors(k) shifted onto the saddle -X/T, where
    the weights lose their X-dependent turn.  The error is the change from
    halving the nodes plus machine epsilon times the sum of |terms| (the
    round-off of the sum).
    Raises FloatingPointError, with no estimate, when the trapezoid step
    aliases the phase of the integrand, when the weights overflow, or when the
    estimate is not positive beyond its error bar (the moment is positive, so
    it has no correct digit).
    """
    k, T, X = req.k, req.T, req.X
    if k > ROUTES["contour"]:
        raise ValueError(f"moment_contour supports k <= {ROUTES['contour']}")
    if anchors is None:
        anchors = tuple(a - X / T for a in default_anchors(k))
    check_nested(anchors, k, "anchors")
    if nodes is None:
        nodes = {1: 800, 2: 512, 3: 256, 4: 96}[k]
    Y = default_halfwidth(T, tol=1e-13)
    v_full, scale = _contour_tensor_value(T, X, anchors, nodes, Y)
    v_half, _ = _contour_tensor_value(T, X, anchors, nodes // 2, Y)
    err = abs(v_full - v_half) + _ERR_FLOOR_REL * abs(v_full) + np.finfo(float).eps * scale
    value, imag = v_full.real, abs(v_full.imag)
    if imag > 10.0 * err:
        raise InconsistencyError(f"imaginary residue {imag} exceeds 10x error {err}")
    err = max(err, imag)
    if value <= err:
        raise FloatingPointError(f"contour route gave {value:.3g} +- {err:.3g} at T={T}, X={X}; a moment is positive")
    meta = {"nodes": nodes, "halfwidth": Y, "anchors": list(anchors), "imag": imag}
    return MomentEstimate(value, float(err), "contour", meta)


def reduce_to_origin(req: MomentRequest) -> tuple[float, MomentRequest]:
    """Spatial-stationarity shift: E[Z(T,X)^k] = exp(-k X^2 / 2T) * E[Z(T,0)^k]."""
    factor = math.exp(-req.k * req.X**2 / (2.0 * req.T))
    return factor, MomentRequest(req.k, req.T, 0.0)


# airy.laplace_R's default orders, re-exported: perfbench/tracing.py reads them here
_GH_ORDER_BY_LENGTH = _R_GH_ORDER


def moment_partition(
    k: int,
    T: float,
    gh_order: int | None = None,
    mc_samples: int = 200_000,
    seed: int = 0,
) -> MomentEstimate:
    """E[Z(T,0)^k] by the partition/determinant residue expansion, without Monte Carlo.

    The residue of partition lambda is k! e^{-kT/24} R(C lambda) / prod m_i!
    (see airy.residue_sum).  R is integrated on tensor Gauss-Hermite grids for
    lengths <= 4 (the integrand carries an exact Gaussian envelope on the
    imaginary axis).  A partition of length >= 5 is enclosed instead: R lies
    in [0, B], with B its Fischer bound (airy._fischer_enclosure, memoised for
    this call only), and enters the sum as B/2 +- B/2; meta["tail_bound"] is
    the scaled sum of those B.  The bar covers the truth only where every
    Gauss-Hermite bar covers its R, which holds at T in {0.5, 1, 2} but not at
    T <~ 1e-2, where the value reads low: 3.35e7 +- 74% at k = 5, T = 1e-4,
    against gaussian_mc's 1.10e8 (ROADMAP item 10).

    ``mc_samples`` and ``seed`` are inert: nothing here draws a random number.
    They stay for perfbench's readers of the old signature until ROADMAP
    item 2 deletes them with those reads.
    """
    if k > ROUTES["partition"]:
        raise ValueError(f"moment_partition supports k <= {ROUTES['partition']}")
    enclosure = _fischer_enclosure(gh_order)

    def R(c):
        if len(c) > 4:
            bound = enclosure(c)
            return bound / 2.0, bound / 2.0
        return laplace_R(c, order=gh_order, with_err=True)

    total, terms = residue_sum(k, edge_scale(T), R)
    scale = math.factorial(k) * math.exp(-k * T / 24.0)
    value = scale * total
    err = scale * sum(e for _, e in terms.values()) + _ERR_FLOOR_REL * abs(value)
    meta = {
        "gh_order": gh_order,
        "tail_bound": scale * sum(2.0 * v for lam, (v, _) in terms.items() if lam.length > 4),
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


def erfc_reduction_oracle(T: float) -> float:
    """Semi-analytic E[Z(T,0)^2]: closed-form lambda=(2) term plus an erfc reduction of lambda=(1,1).

    Uses E[1/(1 + a G^2)] = sqrt(pi/2a) e^{1/2a} erfc(1/sqrt(2a)) with G standard normal.
    """
    from scipy.special import erfc  # not math.erfc, which differs in the last bits

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
    if k > ROUTES["gaussian_mc"]:
        raise ValueError(f"moment_gaussian_mc supports k <= {ROUTES['gaussian_mc']}")
    if samples < 1_000:
        raise ValueError("need at least 1000 samples")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
    C = edge_scale(T)
    total, terms = residue_sum(k, C, lambda c: laplace_R_mc(c, samples, rng))
    scale = math.factorial(k) * math.exp(-k * T / 24.0)
    value = scale * total
    err = scale * math.sqrt(sum(e**2 for _, e in terms.values()))
    meta = {"samples": samples, "seed": seed, "C": C}
    return MomentEstimate(value, err, "gaussian_mc", meta)


def moment(req: MomentRequest, method: str, seed: int, samples: int | None) -> MomentEstimate:
    """E[Z(T,X)^k] by the route ``method`` of ROUTES; ``seed`` and ``samples`` reach gaussian_mc only.

    The partition route takes no seed, as it draws no random number; see
    moment_partition for where its enclosure of the partitions of length
    >= 5 is rigorous.

    The residue-sum routes run at X = 0 and are shifted to req.X by
    reduce_to_origin's factor, recorded as meta["shift_factor"].  A factor
    that underflows to 0 would report 0 +- 0, so it raises FloatingPointError.
    """
    if method == "contour":
        return moment_contour(req)
    factor, origin = reduce_to_origin(req)
    if factor == 0.0:
        raise FloatingPointError(f"shift factor exp(-kX^2/2T) underflows to 0 at T={req.T}, X={req.X}")
    if method == "partition":
        est = moment_partition(origin.k, origin.T)
    elif method == "gaussian_mc":
        est = moment_gaussian_mc(origin.k, origin.T, samples=samples, seed=seed)
    else:
        raise ValueError(f"unknown moment route {method!r}")
    est.value *= factor
    est.err *= factor
    est.meta["shift_factor"] = factor
    return est
