"""Independent references that the tests compare the package against.

partition_count checks combinatorics.enumerate_partitions, h_truncated and
truncated_generating_check check combinatorics.h_complete in exact arithmetic,
the Okounkov pair checks the identity behind airy.laplace_R,
laplace_R_two_part checks laplace_R itself at n = 2, spawned_normals
draws airy.laplace_R_mc's normals serially, sturm_above_full is the
Sturm count of airy_sampler._sturm_above without its early stop, and
second_moment_closed_form, the residue closed form in exact rationals,
checks the series of polymer.polymer_second_moment_exact.
"""

import decimal
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy.special import erfcx

from shemom.airy import _MC_CHUNK, _ai_both
from shemom.quadrature import gauss_legendre_panels


@lru_cache(maxsize=None)
def partition_count(n: int) -> int:
    """p(n) by the Euler pentagonal-number recurrence."""
    if n < 0:
        return 0
    if n == 0:
        return 1
    total = 0
    j = 1
    while True:
        g1 = j * (3 * j - 1) // 2
        g2 = j * (3 * j + 1) // 2
        if g1 > n and g2 > n:
            break
        sign = -1 if j % 2 == 0 else 1
        if g1 <= n:
            total += sign * partition_count(n - g1)
        if g2 <= n:
            total += sign * partition_count(n - g2)
        j += 1
    return total


def h_truncated(n: int, cap: int, x):
    """h_n restricted to tuples using no variable more than ``cap`` times; equals h_complete when n <= cap."""
    h = [1] + [0] * n
    for xv in x:
        new = list(h)
        xpow = 1
        for m in range(1, cap + 1):
            xpow = xpow * xv
            for j in range(m, n + 1):
                new[j] = new[j] + xpow * h[j - m]
        h = new
    return h[n]


def truncated_generating_check(Q: int, cap: int, nmax: int, x) -> bool:
    """Verify prod_p sum_{m<=cap} (-u x_p)^m = sum_n h_truncated(n, cap, x) (-u)^n up to degree nmax.

    Exact polynomial identity over the rationals; inputs must be exact numbers.
    """
    if len(x) != Q:
        raise ValueError("alphabet length must equal Q")
    # left side: product of the per-variable truncated geometric polynomials
    poly = [Fraction(1)] + [Fraction(0)] * nmax
    for xv in x:
        factor = [(-Fraction(xv)) ** m for m in range(cap + 1)]
        new = [Fraction(0)] * (nmax + 1)
        for i, c in enumerate(poly):
            for m, f in enumerate(factor):
                if i + m <= nmax:
                    new[i + m] += c * f
        poly = new
    return all(poly[n] == h_truncated(n, cap, [Fraction(v) for v in x]) * (-1) ** n for n in range(nmax + 1))


def okounkov_transform(x: float, a: float, b: float) -> float:
    """Closed form of int e^{xz} Ai(z+a) Ai(z+b) dz for x > 0."""
    if x <= 0:
        raise ValueError("okounkov_transform requires x > 0")
    return math.exp(x**3 / 12.0 - 0.5 * (a + b) * x - (a - b) ** 2 / (4.0 * x)) / (2.0 * math.sqrt(math.pi * x))


def okounkov_numeric(x: float, a: float, b: float) -> float:
    """Quadrature of the same integral; left tail truncated where e^{xz} < e^{-45}."""
    if x <= 0:
        raise ValueError("okounkov_numeric requires x > 0")
    z_left = -(45.0 / x + max(abs(a), abs(b)) + 5.0)
    z_right = 14.0 - min(a, b)
    z, w = gauss_legendre_panels(z_left, z_right, 0.4, 12)
    return float(np.sum(w * np.exp(x * z) * _ai_both(z + a)[0] * _ai_both(z + b)[0]))


def laplace_R_two_part(c1: float, c2: float) -> float:
    """Closed form of R(c_1, c_2), the two-point Airy-kernel Laplace transform.

    With S = c_1 + c_2, a = c_1 c_2 / S, alpha = (c_1 - c_2)/2 and
    beta = (c_1 + c_2)/2, R = e^{(c_1^3 + c_2^3)/12} (2 pi)^-2 sqrt(pi/S) / (c_1 c_2)
    * [sqrt(pi/a) - (beta^2 - alpha^2)(pi/beta) erfcx(beta sqrt(a))]: the
    Gaussian form of R integrated in closed form.  For c_1 = c_2 the bracket
    cancels to about 1/(2 beta^2 a) of its terms, so its round-off grows to
    about 90 eps at c = (4, 4).
    """
    S = c1 + c2
    a = c1 * c2 / S
    alpha, beta = 0.5 * (c1 - c2), 0.5 * S
    bracket = math.sqrt(math.pi / a) - (beta**2 - alpha**2) * (math.pi / beta) * erfcx(beta * math.sqrt(a))
    return math.exp((c1**3 + c2**3) / 12.0) / (2.0 * math.pi) ** 2 * math.sqrt(math.pi / S) / (c1 * c2) * bracket


def spawned_normals(rng: np.random.Generator, samples: int, m: int) -> np.ndarray:
    """laplace_R_mc's (m, samples) standard normals in one serial pass.

    Chunk i is drawn in (m, rows) order from SFC64 seeded with the i-th child
    of rng's seed sequence.
    """
    seeds = rng.bit_generator.seed_seq.spawn(-(-samples // _MC_CHUNK))
    rows = [min(_MC_CHUNK, samples - i * _MC_CHUNK) for i in range(len(seeds))]
    chunks = [np.random.Generator(np.random.SFC64(s)).normal(0.0, 1.0, size=(m, r)) for s, r in zip(seeds, rows)]
    return np.hstack(chunks)


def sturm_above_full(diag: np.ndarray, off: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Eigenvalues above each shift, by the LDL^T pivot recurrence over every row of every replica."""
    n = diag.shape[1]
    q = diag[:, :1] - shifts
    below = (q < 0).astype(np.intp)
    with np.errstate(divide="ignore"):
        for i in range(1, n):
            q = diag[:, i, None] - shifts - off[:, i - 1, None] ** 2 / q
            below += q < 0
    return n - below


def second_moment_closed_form(levels: int, t: float) -> float:
    """Closed form of E[Zt(t, N)^2] from the two residues of the nested contour.

    The z_1 integral picks up the pole at z_1 = z_2 + 1 and the order-N pole at
    the origin; both reduce to finite sums over coefficients of (1+z)^(-M).
    """
    n = levels
    # the alternating binomial sums cancel heavily for larger N, so evaluate
    # them in exact rational arithmetic (the float t is itself a rational)
    tq = Fraction(t)
    first = (tq ** (n - 1) / math.factorial(n - 1)) ** 2

    def coeff(m: int, order: int) -> int:
        # [z^m] (1+z)^(-order)
        return (-1) ** m * math.comb(order + m - 1, m)

    shifted = sum(
        (2 * tq) ** j / math.factorial(j) * coeff(n - 1 - j, n) for j in range(n)
    )
    origin = -sum(
        (tq**i / math.factorial(i))
        * sum(tq**j / math.factorial(j) * coeff(n - 1 - j, n - i) for j in range(n))
        for i in range(n)
    )
    # e^t * shifted cancels against the rest down to the result, which is at
    # least first (Jensen: E[Zt^2] >= E[Zt]^2), so an e^t with 25 digits beyond
    # the log10(e^t |shifted| / first) that cancel is enough; 60 digits are
    # tried first and kept when 25 digits of the sum survive them, as at large
    # t, where that bound is loose and would ask for t / ln 10 digits
    ratio = abs(shifted) / first if first else Fraction(0)  # first = 0 at t = 0, where nothing cancels
    lost = t / math.log(10) + math.log10(ratio.numerator) - math.log10(ratio.denominator) if ratio else 0.0
    for prec in sorted({60, max(60, 25 + math.ceil(lost))}):
        with decimal.localcontext() as ctx:
            ctx.prec = prec
            et = Fraction(decimal.Decimal(t).exp())  # within 10^(1 - prec) relative
        value = first + origin + et * shifted
        if abs(value) * 10 ** (prec - 26) >= et * abs(shifted):
            break
    return float(value)
