"""Partitions, their multiplicity factors, and complete homogeneous symmetric functions.

Partitions and multiplicity factors are exact integer arithmetic; h_complete
works over any numbers that add and multiply, elementwise over arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
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
