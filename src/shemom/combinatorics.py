"""Exact partition enumeration and (truncated) complete homogeneous symmetric functions.

Everything here is exact: partitions and multiplicity factors are integer
arithmetic, and the symmetric-function routines accept ``Fraction`` inputs so
that polynomial identities can be checked without floating-point noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

MAX_PARTITION_WEIGHT = 40  # p(40) = 37338, still cheap to enumerate


@dataclass(frozen=True)
class Partition:
    """An integer partition, parts sorted non-increasing."""

    parts: tuple[int, ...]

    def __post_init__(self):
        if any(p < 1 for p in self.parts):
            raise ValueError(f"partition parts must be positive: {self.parts}")
        if any(a < b for a, b in zip(self.parts, self.parts[1:])):
            raise ValueError(f"partition parts must be non-increasing: {self.parts}")

    @property
    def weight(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    @property
    def multiplicities(self) -> dict[int, int]:
        mult: dict[int, int] = {}
        for p in self.parts:
            mult[p] = mult.get(p, 0) + 1
        return mult

    def __iter__(self):
        return iter(self.parts)

    def __len__(self):
        return len(self.parts)


def enumerate_partitions(k: int) -> list[Partition]:
    """All partitions of k in reverse lexicographic order, e.g. (4),(3,1),(2,2),(2,1,1),(1,1,1,1)."""
    if k < 1 or k > MAX_PARTITION_WEIGHT:
        raise ValueError(f"k must be in [1, {MAX_PARTITION_WEIGHT}], got {k}")
    out: list[Partition] = []

    def rec(remaining: int, largest: int, prefix: list[int]):
        if remaining == 0:
            out.append(Partition(tuple(prefix)))
            return
        for part in range(min(largest, remaining), 0, -1):
            prefix.append(part)
            rec(remaining - part, part, prefix)
            prefix.pop()

    rec(k, k, [])
    return out


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


def multiplicity_factor(lam: Partition) -> int:
    """The prefactor k! / (m_1! m_2! ...) of the residue expansion, exact."""
    num = math.factorial(lam.weight)
    den = 1
    for m in lam.multiplicities.values():
        den *= math.factorial(m)
    # integer by construction: it counts ordered set partitions by block sizes
    return num // den


_MAX_H_DEGREE = 64


def h_complete(n: int, x: Sequence) -> float | Fraction:
    """Complete homogeneous symmetric function h_n(x_1, ..., x_Q); elementwise if the x_i are arrays."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if n > _MAX_H_DEGREE:
        raise ValueError(f"n exceeds supported degree {_MAX_H_DEGREE}")
    # h[j] = h_j of the variables seen so far
    h = [x[0] * 0 + 1 if len(x) else 1] + [0] * n
    for xv in x:
        for j in range(1, n + 1):
            h[j] = h[j] + xv * h[j - 1]
    return h[n]


def h_truncated(n: int, cap: int, x: Sequence) -> float | Fraction:
    """h_n restricted to tuples using no variable more than ``cap`` times.

    Equals h_complete whenever n <= cap.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if cap < 1:
        raise ValueError("cap must be positive")
    if n > _MAX_H_DEGREE:
        raise ValueError(f"n exceeds supported degree {_MAX_H_DEGREE}")
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


_MAX_GEN_DEGREE = 24


def truncated_generating_check(Q: int, cap: int, nmax: int, x: Sequence[Fraction]) -> bool:
    """Verify prod_p sum_{m<=cap} (-u x_p)^m = sum_n h_trunc(n, cap, x) (-u)^n up to degree nmax.

    Exact polynomial identity over rationals; inputs must be exact numbers.
    """
    if len(x) != Q:
        raise ValueError("alphabet length must equal Q")
    if nmax > _MAX_GEN_DEGREE:
        raise ValueError(f"nmax exceeds supported degree {_MAX_GEN_DEGREE}")
    # left side: product of the per-variable truncated geometric polynomials
    poly = [Fraction(1)] + [Fraction(0)] * nmax
    for xv in x:
        factor = [(-Fraction(xv)) ** m for m in range(cap + 1)]
        new = [Fraction(0)] * (nmax + 1)
        for i, c in enumerate(poly):
            if c == 0:
                continue
            for m, f in enumerate(factor):
                if i + m <= nmax:
                    new[i + m] += c * f
        poly = new
    for n in range(nmax + 1):
        rhs = h_truncated(n, cap, [Fraction(v) for v in x]) * (Fraction(-1)) ** n
        if poly[n] != rhs:
            return False
    return True


@dataclass(frozen=True)
class PartitionBoundReport:
    passed: bool
    max_ratio: float  # max over n <= nmax of p(n) / e^sqrt(n)

    def __bool__(self) -> bool:
        return self.passed


def partition_count_bound_check(nmax: int) -> PartitionBoundReport:
    """Check p(n) <= e^{pi sqrt(2n/3)} for n <= nmax and report max p(n)/e^sqrt(n)."""
    if nmax < 1 or nmax > MAX_PARTITION_WEIGHT:
        raise ValueError(f"nmax must be in [1, {MAX_PARTITION_WEIGHT}]")
    ok = True
    max_ratio = 0.0
    for n in range(1, nmax + 1):
        p = partition_count(n)
        if p > math.exp(math.pi * math.sqrt(2 * n / 3)):
            ok = False
        max_ratio = max(max_ratio, p / math.exp(math.sqrt(n)))
    return PartitionBoundReport(ok, max_ratio)
