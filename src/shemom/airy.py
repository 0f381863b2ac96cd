"""Airy function, Airy kernel, Laplace transforms R(c), and Fredholm determinants.

The Airy function is evaluated from scratch (Maclaurin series inside a switch
radius, Poincare asymptotics outside) so the numerical provenance of every
kernel value is auditable.  The guaranteed accuracy window quoted in the docs
is [-15, 30] at 1e-11 absolute; the implementation remains accurate far beyond
it on the negative axis, which the oscillatory quadratures rely on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import simpson

from .combinatorics import Partition, enumerate_partitions, multiplicity_factor
from .quadrature import cauchy_pair_det, gauss_hermite_cauchy, gauss_legendre_panels

__all__ = [
    "AiryConfig",
    "FredholmConfig",
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

# accuracy window enforced on callers; asymptotics keep full accuracy on the
# far negative axis, which the Laplace-transform quadratures need
_X_MIN = -600.0
_X_MAX = 200.0
_SWITCH_POS = 5.0  # series/asymptotic crossover, right tail
_SWITCH_NEG = -7.5  # crossover on the oscillatory side

_AI0 = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
_AIP0 = -(3.0 ** (-1.0 / 3.0)) / math.gamma(1.0 / 3.0)

_N_SERIES = 60
_N_ASYMP = 40


@lru_cache(maxsize=1)
def _asymp_coeffs() -> tuple[np.ndarray, np.ndarray]:
    """u_k and v_k of the Airy Poincare expansions (DLMF 9.7)."""
    u = np.empty(_N_ASYMP)
    v = np.empty(_N_ASYMP)
    u[0] = v[0] = 1.0
    for k in range(_N_ASYMP - 1):
        u[k + 1] = u[k] * (3 * k + 2.5) * (3 * k + 1.5) * (3 * k + 0.5) / (54.0 * (k + 1) * (k + 0.5))
        v[k + 1] = u[k + 1] * (6 * (k + 1) + 1) / (1 - 6 * (k + 1))
    return u, v


def _series(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Maclaurin Ai and Ai' via the f/g solution pair."""
    x = np.asarray(x, dtype=float)
    x3 = x**3
    f = np.ones_like(x)
    g = x.copy()
    fp = np.zeros_like(x)
    gp = np.ones_like(x)
    tf = np.ones_like(x)  # current f term: x^{3k} coefficient included
    tg = x.copy()
    for k in range(_N_SERIES):
        tf = tf * x3 / ((3 * k + 2) * (3 * k + 3))
        tg = tg * x3 / ((3 * k + 3) * (3 * k + 4))
        f += tf
        g += tg
        # termwise derivatives: d/dx x^{3k+3} and x^{3k+4}
        with np.errstate(invalid="ignore", divide="ignore"):
            fp += np.where(x != 0.0, tf * (3 * k + 3) / x, 0.0)
            gp += np.where(x != 0.0, tg * (3 * k + 4) / x, 0.0)
    ai = _AI0 * f + _AIP0 * g
    aip = _AI0 * fp + _AIP0 * gp
    return ai, aip


def _truncated_sum(terms: np.ndarray) -> np.ndarray:
    """Sum an asymptotic series along axis 0, stopping (per column) at the smallest term."""
    mags = np.abs(terms)
    growing = mags[1:] >= mags[:-1]
    stop = np.where(growing.any(axis=0), growing.argmax(axis=0) + 1, terms.shape[0])
    idx = np.arange(terms.shape[0])[:, None]
    return np.where(idx < stop[None, :], terms, 0.0).sum(axis=0)


def _asymp_pos(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    u, v = _asymp_coeffs()
    zeta = (2.0 / 3.0) * x**1.5
    powers = (-1.0 / zeta)[None, :] ** np.arange(_N_ASYMP)[:, None]
    su = _truncated_sum(u[:, None] * powers)
    sv = _truncated_sum(v[:, None] * powers)
    pref = np.exp(-zeta) / (2.0 * math.sqrt(math.pi))
    ai = pref * su / x**0.25
    aip = -pref * sv * x**0.25
    return ai, aip


def _asymp_neg(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    u, v = _asymp_coeffs()
    t = -x
    zeta = (2.0 / 3.0) * t**1.5
    ne = (_N_ASYMP + 1) // 2
    sign = (-1.0) ** np.arange(ne)
    pow_even = (1.0 / zeta**2)[None, :] ** np.arange(ne)[:, None]
    pow_odd = pow_even[: _N_ASYMP // 2] / zeta[None, :]
    pu = _truncated_sum((sign * u[0::2])[:, None] * pow_even)
    qu = _truncated_sum((sign[: _N_ASYMP // 2] * u[1::2])[:, None] * pow_odd)
    pv = _truncated_sum((sign * v[0::2])[:, None] * pow_even)
    qv = _truncated_sum((sign[: _N_ASYMP // 2] * v[1::2])[:, None] * pow_odd)
    c = np.cos(zeta - math.pi / 4.0)
    s = np.sin(zeta - math.pi / 4.0)
    ai = (c * pu + s * qu) / (math.sqrt(math.pi) * t**0.25)
    aip = (t**0.25 / math.sqrt(math.pi)) * (s * pv - c * qv)
    return ai, aip


def _ai_both(x) -> tuple[np.ndarray, np.ndarray]:
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x < _X_MIN) or np.any(x > _X_MAX):
        raise ValueError(f"Airy argument outside supported window [{_X_MIN}, {_X_MAX}]")
    ai = np.empty_like(x)
    aip = np.empty_like(x)
    mid = (x >= _SWITCH_NEG) & (x <= _SWITCH_POS)
    neg = x < _SWITCH_NEG
    pos = x > _SWITCH_POS
    if mid.any():
        ai[mid], aip[mid] = _series(x[mid])
    if neg.any():
        ai[neg], aip[neg] = _asymp_neg(x[neg])
    if pos.any():
        ai[pos], aip[pos] = _asymp_pos(x[pos])
    return ai, aip


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
    with np.errstate(invalid="ignore", divide="ignore"):
        k = np.where(near, 0.0, num / np.where(near, 1.0, dx))
    if near.any():
        m = 0.5 * (x[:, None] + y[None, :])
        mm = np.unique(m[near])
        aim, aipm = _ai_both(mm)
        diag = {v: aipm[i] ** 2 - mm[i] * aim[i] ** 2 for i, v in enumerate(mm)}
        ii, jj = np.nonzero(near)
        for i, j in zip(ii, jj):
            k[i, j] = diag[m[i, j]]
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


def okounkov_numeric(x: float, a: float, b: float, tail_exponent: float = 45.0) -> float:
    """Quadrature of the same integral; left tail truncated where e^{xz} < e^{-tail_exponent}."""
    if x <= 0:
        raise ValueError("okounkov_numeric requires x > 0")
    z_left = -(tail_exponent / x + max(abs(a), abs(b)) + 5.0)
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


def laplace_R_direct(c, panel_width: float = 0.4, order: int = 10) -> float:
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
    x, w = gauss_legendre_panels(lo, hi, panel_width, order)
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


@dataclass(frozen=True)
class FredholmConfig:
    """Nystrom discretization: composite Gauss-Legendre panels on [s_lower, s_upper]."""

    order: int = 16  # per panel
    panel_width: float = 1.0
    s_upper: float = 14.0
    s_lower: float | None = None  # None: scaled with log(1/u)

    def __post_init__(self):
        if self.order < 4:
            raise ValueError("panel order must be >= 4")


def _phi(x: np.ndarray, u: float, C: float) -> np.ndarray:
    """phi(x) = u e^{Cx} / (1 + u e^{Cx}), evaluated stably as a sigmoid."""
    t = C * x + math.log(u)
    out = np.empty_like(x)
    posm = t >= 0
    out[posm] = 1.0 / (1.0 + np.exp(-t[posm]))
    ex = np.exp(t[~posm])
    out[~posm] = ex / (1.0 + ex)
    return out


def fredholm_multiplicative(u: float, cfg: AiryConfig, f: FredholmConfig | None = None) -> float:
    """E prod_p (1 + u e^{C a_p})^{-1} over the Airy points, as det(I - sqrt(phi) K sqrt(phi)).

    Nystrom discretization with the symmetrized kernel; the lower cutoff
    scales with log(1/u) so the left tail of phi is below tolerance.
    """
    if u <= 0:
        raise ValueError("u must be positive")
    if f is None:
        f = FredholmConfig()
    C = cfg.C
    s_lower = f.s_lower
    if s_lower is None:
        s_lower = -10.0 - 2.0 * max(0.0, math.log(1.0 / u)) / C
    x, w = gauss_legendre_panels(s_lower, f.s_upper, f.panel_width, f.order)
    if len(x) < 20:
        raise ValueError("Nystrom discretization needs at least 20 nodes")
    sq = np.sqrt(_phi(x, u, C) * w)
    mat = np.eye(len(x)) - sq[:, None] * _kernel_grid(x, x) * sq[None, :]
    sign, logdet = np.linalg.slogdet(mat)
    if sign <= 0:
        raise RuntimeError("Fredholm determinant lost positivity; refine the discretization")
    return float(math.exp(logdet))


def moment_from_airy(k: int, cfg: AiryConfig, order: int | None = None, with_err: bool = False):
    """E[h_k(e^{C a_1}, e^{C a_2}, ...)] = sum over partitions of (1/prod m_i!) R(C lambda).

    Equals e^{kT/24} E[Z(T,0)^k] / k!.  With with_err, also returns the
    same weighted sum of the order-halving errors of each R.
    """
    if k > 4:
        raise ValueError("moment_from_airy supports k <= 4")

    def R(c):
        r = laplace_R(c, order=order, with_err=with_err)
        return r if with_err else (r, 0.0)

    total, terms = residue_sum(k, cfg.C, R)
    return (total, sum(err for _, err in terms.values())) if with_err else total


def tracy_widom_cdf(s: float, order: int = 12, panel_width: float = 1.0, span: float = 17.0) -> float:
    """GUE Tracy-Widom F(s) = det(I - K_Ai restricted to [s, infinity)), by Nystrom."""
    x, w = gauss_legendre_panels(s, s + span, panel_width, order)
    sw = np.sqrt(w)
    mat = np.eye(len(x)) - sw[:, None] * _kernel_grid(x, x) * sw[None, :]
    sign, logdet = np.linalg.slogdet(mat)
    if sign <= 0:
        raise RuntimeError("Tracy-Widom determinant lost positivity")
    return float(math.exp(logdet))


def tracy_widom_mean_var(s_min: float = -10.0, s_max: float = 6.0, step: float = 0.05) -> tuple[float, float]:
    """Mean and variance of the top Airy point, integrated from the Fredholm CDF."""
    s = np.arange(s_min, s_max + step / 2, step)
    F = np.array([tracy_widom_cdf(v) for v in s])
    # integration by parts: E[X] = s_max - int F, E[X^2] = s_max^2 - int 2 s F,
    # valid because F vanishes at s_min and reaches 1 at s_max to tolerance
    mean = float(s[-1] - simpson(F, x=s))
    second = float(s[-1] ** 2 - simpson(2.0 * s * F, x=s))
    return mean, second - mean**2
