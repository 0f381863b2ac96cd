"""Airy function, Airy kernel, Laplace transforms R(c), and Fredholm determinants.

Ai and Ai' come from scipy.special.airy, restricted to the window
[-600, 200]; the tests check it there against 30-digit mpmath, to 1e-11 in the
scale of the oscillation amplitude (|x|^{-1/4} for Ai, |x|^{1/4} for Ai').
scipy.special is imported on the first Airy or Fredholm call, not with this
module: R(c) by Gauss-Hermite and the residue sums need numpy only.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .chunks import _run_chunks, _usable_cores
from .combinatorics import Partition, enumerate_partitions, multiplicity_factor
from .quadrature import cauchy_pair_det, gauss_hermite_cauchy, gauss_legendre_panels

__all__ = [
    "AiryConfig",
    "edge_scale",
    "airy_kernel",
    "laplace_R",
    "laplace_R_mc",
    "laplace_R_direct",
    "residue_sum",
    "fredholm_multiplicative",
    "moment_from_airy",
    "tracy_widom_cdf",
    "tracy_widom_mean_var",
]

# accuracy window enforced on callers; scipy.special.airy is checked against
# 30-digit mpmath over all of it (tests/test_airy.py), and the Laplace-transform
# quadratures reach its far negative end
_X_MIN = -600.0
_X_MAX = 200.0

# rows per laplace_R_mc chunk; each worker's buffers take n + 1 doubles a row
# (0.6 MB at n = 8), and larger chunks were no faster.  Each chunk draws from
# its own spawned generator, so this size is part of the random stream.
_MC_CHUNK = 8192


def _ai_both(x) -> tuple[np.ndarray, np.ndarray]:
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all((x >= _X_MIN) & (x <= _X_MAX)):
        raise ValueError(f"Airy argument outside supported window [{_X_MIN}, {_X_MAX}]")
    from scipy.special import airy

    return airy(x)[:2]


def _kernel_grid(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """K_Ai on the tensor grid x (rows) by y (cols), divided-difference form."""
    aix, aipx = _ai_both(x)
    aiy, aipy = _ai_both(y)
    dx = x[:, None] - y[None, :]
    num = aix[:, None] * aipy[None, :] - aipx[:, None] * aiy[None, :]
    near = np.abs(dx) < 1e-7
    k = num / np.where(near, 1.0, dx)
    if near.any():
        m = (0.5 * (x[:, None] + y[None, :]))[near]
        aim, aipm = _ai_both(m)
        k[near] = aipm**2 - m * aim**2
    return k


def airy_kernel(x: float, y: float, form: str = "divided_difference") -> float:
    """The Airy kernel K_Ai(x, y) = int_0^inf Ai(x+t) Ai(y+t) dt.

    form="divided_difference" (default) uses [Ai(x)Ai'(y) - Ai'(x)Ai(y)]/(x-y)
    with the diagonal limit Ai'(x)^2 - x Ai(x)^2; form="integral" integrates
    the definition directly with a truncated tail.
    """
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError("x and y must be finite")
    if form == "divided_difference":
        return float(_kernel_grid(np.array([x]), np.array([y]))[0, 0])
    if form == "integral":
        upper = max(14.0 - min(x, y), 4.0)
        t, w = gauss_legendre_panels(0.0, upper, 0.5, 12)
        aix, _ = _ai_both(x + t)
        aiy, _ = _ai_both(y + t)
        return float(np.sum(w * aix * aiy))
    raise ValueError(f"unknown kernel form: {form}")


# the one default Gauss-Hermite order per length n; n = 1 has a closed form and
# never reads its entry, which is kept so the table covers every length 1..4
_R_GH_ORDER = {1: 160, 2: 96, 3: 48, 4: 28}


def _exp_cubes(x: float, c) -> float:
    """e^x for the exponent x = sum c^3/12 that R(c) carries; an overflow is refused by name."""
    try:
        return math.exp(x)
    except OverflowError:
        raise FloatingPointError(
            f"R overflowed at c = {np.asarray(c).tolist()}: e^(sum c^3/12) = e^{x:.6g} exceeds the largest double"
        ) from None


def laplace_R(c, order: int | None = None, with_err: bool = False):
    """R(c_1, ..., c_n): the Laplace transform of the n-point Airy kernel determinant.

    Evaluated through the Gaussian form derived from the Okounkov identity by
    tensor Gauss-Hermite (quadrature.gauss_hermite_cauchy), with the
    Cauchy-determinant constants pinned by the n=1 closed form
    R(c) = e^{c^3/12} / (2 sqrt(pi) c^{3/2}).  The error is the change from
    order halving plus the round-off eps |R| (n * order + sum c^3/12): every
    Gauss-Hermite term is positive, so the n * order roundings along the
    longest chain of the nested sums bound the sum's, and sum c^3/12 bounds
    the exponent's.  Raises FloatingPointError when e^{sum c^3/12} overflows.
    """
    c = np.asarray(c, dtype=float)
    if c.ndim == 0:
        c = c[None]
    n = len(c)
    if not np.all(np.isfinite(c) & (c > 0)):
        raise ValueError("all c_i must be positive and finite")
    if n > 4:
        raise ValueError("laplace_R supports n <= 4")
    if order is None:
        order = _R_GH_ORDER[n]
    if n == 1:
        val = _exp_cubes(float(c[0]) ** 3 / 12.0, c) / (2.0 * math.sqrt(math.pi) * float(c[0]) ** 1.5)
        return (val, 0.0) if with_err else val
    exponent = float(np.sum(c**3) / 12.0)
    pref = _exp_cubes(exponent, c) / (2.0 * math.pi) ** n
    val = pref * gauss_hermite_cauchy(np.sqrt(c), c, order)
    if not with_err:
        return val
    roundoff = np.finfo(float).eps * abs(val) * (n * order + exponent)
    return val, abs(val - pref * gauss_hermite_cauchy(np.sqrt(c), c, max(8, order // 2))) + roundoff


def _fischer_enclosure(order: int | None = None):
    """A function c -> B(c) >= R(c) for any length, from laplace_R on blocks of length <= 4.

    The Airy kernel is positive semi-definite, so Fischer's inequality
    det K_{A u B} <= det K_A det K_B holds at every point, and integrating it
    gives 0 <= R(c_{A u B}) <= R(c_A) R(c_B).  B(c) is the smallest product of
    laplace_R(block) + err over the splits of c into blocks of length <= 4,
    found by a search over the block that holds c[0], memoised on the sorted
    parts for the life of the returned function.  B bounds R only where each
    block's order-halving bar covers its error: so at T in {0.5, 1, 2}, not
    at T <~ 1e-2.
    """

    @functools.cache
    def block(parts: tuple) -> float:
        return sum(laplace_R(parts, order=order, with_err=True))

    @functools.cache
    def bound(parts: tuple) -> float:
        if not parts:
            return 1.0
        first, rest = parts[0], parts[1:]
        best = math.inf
        for size in range(min(4, len(parts))):
            for others in set(itertools.combinations(rest, size)):
                left = list(rest)
                for p in others:
                    left.remove(p)
                best = min(best, block((first, *others)) * bound(tuple(left)))
        return best

    return lambda c: bound(tuple(sorted(np.asarray(c, dtype=float).tolist(), reverse=True)))


def _difference_factor(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Cholesky factor L of the covariance of D_i = Z_i - Z_n, i < n, as (diagonal, below).

    With Z_i independent N(0, 1/(2 c_i)), Cov D = diag(1/(2 c_i)) + J/(2 c_n),
    J all ones.  A diagonal plus a constant has a factor that is constant
    below the diagonal in each column: L[i, i] = diagonal[i] and
    L[i, k] = below[k] for i > k, from the recurrence t_0 = 1/(2 c_n),
    L[k, k]^2 = 1/(2 c_k) + t_k, below[k] = t_k / L[k, k],
    t_{k+1} = t_k - below[k]^2.  The last entry of below multiplies no row.
    """
    var = 0.5 / c[:-1]
    diagonal, below = np.empty(len(var)), np.empty(len(var))
    t = 0.5 / float(c[-1])
    for k, v in enumerate(var):
        diagonal[k] = math.sqrt(v + t)
        below[k] = t / diagonal[k]
        t = t * v / (v + t)  # t - below[k]^2, without the cancellation
    return diagonal, below


def laplace_R_mc(c, samples: int, rng: np.random.Generator) -> tuple[float, float]:
    """R(c_1..c_n) via the Gaussian-expectation form; returns (mean, stderr).

    R(c) = e^{sum c^3/12} prod_i (2 sqrt(pi) c_i^{3/2})^{-1}
           * E prod_{i<j} [(Z_i-Z_j)^2 + (c_i-c_j)^2/4] / [(Z_i-Z_j)^2 + (c_i+c_j)^2/4]
    with Z_i independent N(0, 1/(2 c_i)).  The constants are pinned by the
    n=1 closed form, which needs no draws.  The pair ratios read only the
    differences, so each sample draws n - 1 standard normals G and takes
    D = L G, L the factor of ``_difference_factor``, for Z_i - Z_n: the
    same law as n draws, so the same estimate in law and the same variance.
    L is applied by elementwise multiply-adds in a fixed order, never BLAS,
    so no estimate depends on the BLAS thread count.

    The samples run in chunks of ``_MC_CHUNK`` rows on the shared thread
    pool.  Chunk i draws its (n - 1, rows) normals from an SFC64 generator
    seeded with the i-th of ``rng.bit_generator.seed_seq.spawn(chunks)``, as
    many children as ``rng.spawn`` would take, so the estimate is
    bit-identical for any worker count, and the next call on the same
    ``rng`` spawns fresh streams; ``rng``'s own state is not used.  Raises
    ValueError for a part that is not positive and finite and
    FloatingPointError when e^{sum c^3/12} overflows.
    """
    if samples < 2:
        raise ValueError(f"samples must be at least 2 for a standard error, got {samples}")
    c = np.atleast_1d(np.asarray(c, dtype=float))
    if not np.all(np.isfinite(c) & (c > 0)):
        raise ValueError("all c_i must be positive and finite")
    n = len(c)
    # the Cauchy determinant carries prod_i 1/c_i; pref holds the rest
    pref = _exp_cubes(float(np.sum(c**3) / 12.0), c) / float(np.prod(2.0 * math.sqrt(math.pi) * np.sqrt(c)))
    if n == 1:
        return pref / float(c[0]), 0.0
    m = n - 1
    diagonal, below = _difference_factor(c)
    dets = np.empty(samples)
    starts = range(0, samples, _MC_CHUNK)
    streams = rng.bit_generator.seed_seq.spawn(len(starts))
    # one set per worker: the draws, turned into the differences in place, and two rows
    # that hold the factor's running sum and then the determinant's two pair factors
    sizes = (m * _MC_CHUNK, _MC_CHUNK, _MC_CHUNK)
    buffer_sets = [tuple(np.empty(size) for size in sizes) for _ in range(min(_usable_cores(), len(starts)))]

    def run_chunk(start: int, draw_buf, row_a, row_b) -> None:
        rows = min(_MC_CHUNK, samples - start)
        d = draw_buf[: m * rows].reshape(m, rows)
        np.random.Generator(np.random.SFC64(streams[start // _MC_CHUNK])).standard_normal(out=d)
        # D_i = L[i, i] G_i + sum_{k<i} below[k] G_k, the sum carried in acc
        acc, term = row_a[:rows], row_b[:rows]
        np.multiply(d[0], below[0], out=acc)
        d[0] *= diagonal[0]
        for i in range(1, m):
            np.multiply(d[i], below[i], out=term)
            d[i] *= diagonal[i]
            d[i] += acc
            acc += term
        cauchy_pair_det([*d, 0.0], c, out=dets[start : start + rows], work=(row_a[:rows], row_b[:rows]))

    _run_chunks(run_chunk, starts, buffer_sets)
    mean = float(np.mean(dets))
    se = float(np.std(dets, ddof=1) / math.sqrt(samples))
    return pref * mean, pref * se


def residue_sum(k: int, C: float, R) -> tuple[float, dict[Partition, tuple[float, float]]]:
    """sum_{lambda |- k} R(C lambda) / prod m_i!, the sum every moment route evaluates.

    E[Z(T,0)^k] = k! e^{-kT/24} times this sum, with C = (T/2)^{1/3}.  R maps
    the parts c = C lambda to (value, err).  Returns the total and, for each
    partition, its weighted (value, err).
    """
    total = 0.0
    terms = {}
    for lam in enumerate_partitions(k):
        w = multiplicity_factor(lam) / math.factorial(k)
        val, err = R(C * np.asarray(lam.parts, dtype=float))
        terms[lam] = (w * val, w * err)
        total += w * val
    return total, terms


def laplace_R_direct(c) -> float:
    """R by direct quadrature of its definition (kernel determinant against e^{c.x}), n <= 2."""
    c = np.asarray(c, dtype=float)
    if c.ndim == 0:
        c = c[None]
    if not np.all(np.isfinite(c) & (c > 0)):
        raise ValueError("all c_i must be positive and finite")
    if len(c) > 2:
        raise ValueError("direct form implemented for n <= 2 only")
    lo = -50.0 / float(np.min(c))
    hi = 10.0
    x, w = gauss_legendre_panels(lo, hi, 0.4, 10)
    if len(c) == 1:
        kdiag = np.diag(_kernel_grid(x, x)).copy()
        return float(np.sum(w * np.exp(c[0] * x) * kdiag))
    k = _kernel_grid(x, x)
    kd = np.diag(k)
    det2 = kd[:, None] * kd[None, :] - k**2
    e1 = np.exp(c[0] * x)
    e2 = np.exp(c[1] * x)
    return float((w * e1) @ det2 @ (w * e2))


def edge_scale(T: float) -> float:
    """C = (T/2)^(1/3), the scale of the Airy points in the SHE at time T."""
    if not (math.isfinite(T) and T > 0):
        raise ValueError("T must be positive and finite")
    return (T / 2.0) ** (1.0 / 3.0)


@dataclass(frozen=True)
class AiryConfig:
    """Carries T; the edge scale C = (T/2)^(1/3) is derived from it."""

    T: float

    def __post_init__(self):
        edge_scale(self.T)

    @property
    def C(self) -> float:
        return edge_scale(self.T)

    @classmethod
    def from_T(cls, T: float) -> "AiryConfig":
        return cls(T)


def _fredholm_det(x: np.ndarray, w: np.ndarray, g) -> float:
    """det(I - sqrt(g w) K_Ai sqrt(g w)) on Nystrom nodes x with weights w (Bornemann, Math. Comp. 2010)."""
    sq = np.sqrt(g * w)
    mat = np.eye(len(x)) - sq[:, None] * _kernel_grid(x, x) * sq[None, :]
    sign, logdet = np.linalg.slogdet(mat)
    if sign <= 0:
        raise RuntimeError("Fredholm determinant lost positivity")
    return float(math.exp(logdet))


def fredholm_multiplicative(u: float, cfg: AiryConfig) -> float:
    """E prod_p (1 + u e^{C a_p})^{-1} over the Airy points, as det(I - sqrt(phi) K sqrt(phi)).

    phi(x) = u e^{Cx} / (1 + u e^{Cx}), on order-16 Gauss-Legendre panels of
    width 2 over [lo, 14].  Below lo, phi K_Ai(x, x) < u e^{Cx} sqrt|x| / pi,
    so the dropped tail is about u e^{C lo} sqrt|lo| / (pi C); lo <= -10 holds
    it to 1e-15 min(1, u).  A lo below the Airy window is refused (ValueError)
    before any node is built.
    """
    if not (math.isfinite(u) and u > 0):
        raise ValueError("u must be positive and finite")
    C = cfg.C
    # L = -lo solves C L - log(sqrt L) = log(max(1, u) / (1e-15 pi C)); the fixed-point map contracts by 1/(2 C L)
    target = math.log(max(1.0, u) / (1e-15 * math.pi * C))
    L = max(10.0, target / C)
    for _ in range(4):
        L = max(10.0, (target + 0.5 * math.log(L)) / C)
    lo = -L
    if lo < _X_MIN:
        raise ValueError(
            f"u = {u:g} at T = {cfg.T:g} needs the left cutoff {lo:.6g}, below the Airy window [{_X_MIN}, {_X_MAX}]"
        )
    from scipy.special import expit

    x, w = gauss_legendre_panels(lo, 14.0, 2.0, 16)
    return _fredholm_det(x, w, expit(C * x + math.log(u)))


def moment_from_airy(k: int, cfg: AiryConfig) -> float:
    """E[h_k(e^{C a_1}, e^{C a_2}, ...)] = sum over partitions of (1/prod m_i!) R(C lambda).

    Equals e^{kT/24} E[Z(T,0)^k] / k!: the residue sum that
    she_moments.moment_partition scales, on the same default orders.
    """
    if k > 4:
        raise ValueError("moment_from_airy supports k <= 4")
    return residue_sum(k, cfg.C, lambda c: (laplace_R(c), 0.0))[0]


def tracy_widom_cdf(s: float) -> float:
    """GUE Tracy-Widom F(s) = det(I - K_Ai restricted to [s, s + 17]), order-12 panels of width 1."""
    x, w = gauss_legendre_panels(s, s + 17.0, 1.0, 12)
    return _fredholm_det(x, w, 1.0)


def tracy_widom_mean_var() -> tuple[float, float]:
    """Mean and variance of the top Airy point, integrated from the Fredholm CDF on 64 points."""
    s, w = gauss_legendre_panels(-10.0, 6.0, 4.0, 16)
    F = np.array([tracy_widom_cdf(v) for v in s])
    # integration by parts: E[X] = 6 - int F, E[X^2] = 36 - int 2 s F over
    # [-10, 6], valid because F vanishes at -10 and reaches 1 at 6 to tolerance
    mean = 6.0 - float(w @ F)
    second = 36.0 - float(w @ (2.0 * s * F))
    return mean, second - mean**2
