"""Airy function, Airy kernel, Laplace transforms R(c), and Fredholm determinants.

Ai and Ai' come from scipy.special.airy, restricted to the window
[-600, 200]; the tests check it there against 30-digit mpmath, to 1e-11 in the
scale of the oscillation amplitude (|x|^{-1/4} for Ai, |x|^{1/4} for Ai').
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .combinatorics import Partition, enumerate_partitions, multiplicity_factor
from .quadrature import cauchy_pair_det, gauss_hermite_cauchy, gauss_legendre_panels

__all__ = [
    "AiryConfig",
    "airy_ai",
    "airy_ai_prime",
    "airy_kernel",
    "okounkov_transform",
    "okounkov_numeric",
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


def _ai_both(x) -> tuple[np.ndarray, np.ndarray]:
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x < _X_MIN) or np.any(x > _X_MAX):
        raise ValueError(f"Airy argument outside supported window [{_X_MIN}, {_X_MAX}]")
    return special.airy(x)[:2]


def airy_ai(x):
    """Ai(x); accepts scalars or arrays."""
    ai, _ = _ai_both(x)
    return float(ai[0]) if np.isscalar(x) or np.ndim(x) == 0 else ai


def airy_ai_prime(x):
    """Ai'(x); accepts scalars or arrays."""
    _, aip = _ai_both(x)
    return float(aip[0]) if np.isscalar(x) or np.ndim(x) == 0 else aip


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
    if form == "divided_difference":
        return float(_kernel_grid(np.array([x]), np.array([y]))[0, 0])
    if form == "integral":
        upper = max(14.0 - min(x, y), 4.0)
        t, w = gauss_legendre_panels(0.0, upper, 0.5, 12)
        aix, _ = _ai_both(x + t)
        aiy, _ = _ai_both(y + t)
        return float(np.sum(w * aix * aiy))
    raise ValueError(f"unknown kernel form: {form}")


def okounkov_transform(x: float, a: float, b: float) -> float:
    """Closed form of int e^{xz} Ai(z+a) Ai(z+b) dz for x > 0."""
    if x <= 0:
        raise ValueError("okounkov_transform requires x > 0")
    return (
        1.0
        / (2.0 * math.sqrt(math.pi * x))
        * math.exp(x**3 / 12.0 - 0.5 * (a + b) * x - (a - b) ** 2 / (4.0 * x))
    )


def okounkov_numeric(x: float, a: float, b: float) -> float:
    """Quadrature of the same integral; left tail truncated where e^{xz} < e^{-45}."""
    if x <= 0:
        raise ValueError("okounkov_numeric requires x > 0")
    z_left = -(45.0 / x + max(abs(a), abs(b)) + 5.0)
    z_right = 14.0 - min(a, b)
    z, w = gauss_legendre_panels(z_left, z_right, 0.4, 12)
    aia, _ = _ai_both(z + a)
    aib, _ = _ai_both(z + b)
    return float(np.sum(w * np.exp(x * z) * aia * aib))


_R_GH_ORDER = {1: 64, 2: 96, 3: 48, 4: 32}


def laplace_R(c, order: int | None = None, with_err: bool = False):
    """R(c_1, ..., c_n): the Laplace transform of the n-point Airy kernel determinant.

    Evaluated through the Gaussian form derived from the Okounkov identity by
    tensor Gauss-Hermite, with the Cauchy-determinant constants pinned by the
    n=1 closed form R(c) = e^{c^3/12} / (2 sqrt(pi) c^{3/2}).  The error is the
    change from order halving.
    """
    c = np.asarray(c, dtype=float)
    if c.ndim == 0:
        c = c[None]
    n = len(c)
    if np.any(c <= 0):
        raise ValueError("all c_i must be positive")
    if n > 4:
        raise ValueError("laplace_R supports n <= 4")
    if order is None:
        order = _R_GH_ORDER[n]
    if n == 1:
        val = math.exp(float(c[0]) ** 3 / 12.0) / (2.0 * math.sqrt(math.pi) * float(c[0]) ** 1.5)
        return (val, 0.0) if with_err else val
    pref = math.exp(float(np.sum(c**3) / 12.0)) / (2.0 * math.pi) ** n
    val = pref * gauss_hermite_cauchy(np.sqrt(c), c, order)
    if not with_err:
        return val
    return val, abs(val - pref * gauss_hermite_cauchy(np.sqrt(c), c, max(8, order // 2)))


def laplace_R_mc(c, samples: int, rng: np.random.Generator) -> tuple[float, float]:
    """R(c_1..c_n) via the Gaussian-expectation form; returns (mean, stderr).

    R(c) = e^{sum c^3/12} prod_i (2 sqrt(pi) c_i^{3/2})^{-1}
           * E prod_{i<j} [(Z_i-Z_j)^2 + (c_i-c_j)^2/4] / [(Z_i-Z_j)^2 + (c_i+c_j)^2/4]
    with Z_i independent N(0, 1/(2 c_i)), drawn in chunks of 50k rows.  The
    constants are pinned by the n=1 closed form, which needs no draws.
    """
    c = np.asarray(c, dtype=float)
    n = len(c)
    # the Cauchy determinant carries prod_i 1/c_i; pref holds the rest
    pref = math.exp(float(np.sum(c**3) / 12.0)) / float(np.prod(2.0 * math.sqrt(math.pi) * np.sqrt(c)))
    if n == 1:
        return pref / float(c[0]), 0.0
    sigma = 1.0 / np.sqrt(2.0 * c)
    chunks = []
    for start in range(0, samples, 50_000):
        zs = rng.normal(0.0, 1.0, size=(min(50_000, samples - start), n)) * sigma[None, :]
        chunks.append(cauchy_pair_det(zs.T, c))
    dets = np.concatenate(chunks)
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
    if np.any(c <= 0):
        raise ValueError("all c_i must be positive")
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


@dataclass(frozen=True)
class AiryConfig:
    """Carries T and the edge scale C = (T/2)^(1/3)."""

    T: float
    C: float

    def __post_init__(self):
        if self.T <= 0:
            raise ValueError("T must be positive")
        if abs(self.C**3 - self.T / 2.0) > 1e-14 * max(1.0, self.T):
            raise ValueError("C must equal (T/2)^(1/3)")

    @classmethod
    def from_T(cls, T: float) -> "AiryConfig":
        return cls(T, (T / 2.0) ** (1.0 / 3.0))


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
    width 1 over [lo, 14]; lo = -10 - 2 log(1/u) / C for u < 1, so the left
    tail of phi is below tolerance.
    """
    if u <= 0:
        raise ValueError("u must be positive")
    C = cfg.C
    x, w = gauss_legendre_panels(-10.0 - 2.0 * max(0.0, math.log(1.0 / u)) / C, 14.0, 1.0, 16)
    return _fredholm_det(x, w, special.expit(C * x + math.log(u)))


def moment_from_airy(k: int, cfg: AiryConfig, *, with_err: bool = False):
    """E[h_k(e^{C a_1}, e^{C a_2}, ...)] = sum over partitions of (1/prod m_i!) R(C lambda).

    Equals e^{kT/24} E[Z(T,0)^k] / k!.  With with_err, also returns the
    same weighted sum of the order-halving errors of each R.
    """
    if k > 4:
        raise ValueError("moment_from_airy supports k <= 4")

    def R(c):
        r = laplace_R(c, with_err=with_err)
        return r if with_err else (r, 0.0)

    total, terms = residue_sum(k, cfg.C, R)
    return (total, sum(err for _, err in terms.values())) if with_err else total


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
