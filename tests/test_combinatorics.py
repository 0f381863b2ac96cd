"""Exactness tests for partitions and symmetric functions."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import h_truncated, partition_count, truncated_generating_check
from shemom.combinatorics import MAX_PARTITION_WEIGHT, Partition, enumerate_partitions, h_complete, multiplicity_factor


def brute_force_partitions(k: int) -> set[tuple[int, ...]]:
    found = set()
    for cuts in itertools.product(range(k + 1), repeat=k):
        parts = tuple(sorted((c for c in cuts if c), reverse=True))
        if sum(parts) == k:
            found.add(parts)
    return found


class TestPartition:
    def test_invariants_rejected(self):
        with pytest.raises(ValueError):
            Partition((1, 2))
        with pytest.raises(ValueError):
            Partition((2, 0))

    def test_properties(self):
        lam = Partition((3, 2, 2, 1))
        assert lam.weight == 8
        assert lam.length == 4
        assert lam.multiplicities == {3: 1, 2: 2, 1: 1}
        assert list(lam) == [3, 2, 2, 1]


class TestEnumeration:
    @pytest.mark.parametrize("k", range(1, 8))
    def test_matches_brute_force(self, k):
        got = {p.parts for p in enumerate_partitions(k)}
        assert got == brute_force_partitions(k)

    def test_reverse_lex_order(self):
        parts = [p.parts for p in enumerate_partitions(5)]
        assert parts == sorted(parts, reverse=True)
        assert parts[0] == (5,)
        assert parts[-1] == (1, 1, 1, 1, 1)

    def test_counts_agree_with_recurrence(self):
        for k in range(1, 22):
            assert len(enumerate_partitions(k)) == partition_count(k)

    def test_bounds_enforced(self):
        with pytest.raises(ValueError):
            enumerate_partitions(0)
        with pytest.raises(ValueError):
            enumerate_partitions(MAX_PARTITION_WEIGHT + 1)


class TestPartitionCount:
    def test_brute_force_n_le_30(self):
        # independent DP oracle: p(n) via bounded-part counting
        dp = [[0] * 31 for _ in range(31)]
        for m in range(31):
            dp[m][0] = 1
        for m in range(1, 31):
            for n in range(1, 31):
                dp[m][n] = dp[m - 1][n] + (dp[m][n - m] if n >= m else 0)
        for n in range(31):
            assert partition_count(n) == dp[30][n]


class TestMultiplicityFactor:
    def test_small_cases(self):
        assert multiplicity_factor(Partition((2,))) == 2
        assert multiplicity_factor(Partition((1, 1))) == 1
        assert multiplicity_factor(Partition((2, 1))) == 6
        assert multiplicity_factor(Partition((2, 2))) == 12

    @pytest.mark.parametrize("k", range(1, 9))
    def test_counts_ordered_set_partitions(self, k):
        # sum over partitions of k! / prod(lam_i!) / prod(m_i!) equals the
        # number of set partitions into blocks; here we just confirm the
        # factor is a positive integer dividing k!
        for lam in enumerate_partitions(k):
            f = multiplicity_factor(lam)
            assert f > 0
            assert math.factorial(k) % f == 0


class TestSymmetricFunctions:
    @pytest.mark.parametrize("n,message", [(-1, "n must be non-negative"), (65, "exceeds supported degree 64")])
    def test_h_complete_degree_guard(self, n, message):
        with pytest.raises(ValueError, match=message):
            h_complete(n, [1.0, 2.0])

    def test_h_complete_known_values(self):
        assert h_complete(2, [1, 1]) == 3  # x^2, xy, y^2 at x=y=1
        assert h_complete(0, [5, 7]) == 1
        assert h_complete(3, []) == 0

    def test_h_complete_generating_function(self):
        # 1/prod(1 - x_i u) expanded to degree 4 for a rational alphabet
        x = [Fraction(1, 2), Fraction(1, 3), Fraction(2, 5)]
        # brute-force monomial sum
        for n in range(5):
            brute = sum(
                math.prod(c)
                for c in itertools.combinations_with_replacement(x, n)
            )
            assert h_complete(n, x) == brute

    def test_h_complete_elementwise_over_arrays(self):
        # airy_sampler.hk_mc passes the columns of a (replicas, points) array
        rows = np.random.default_rng(5).exponential(size=(7, 4))
        for n in range(4):
            assert np.array_equal(h_complete(n, rows.T), [h_complete(n, row) for row in rows])

    def test_h_truncated_equals_complete_below_cap(self):
        x = [Fraction(3, 7), Fraction(1, 4), Fraction(5, 6), Fraction(2, 3)]
        for cap in range(1, 5):
            for n in range(0, cap + 1):
                assert h_truncated(n, cap, x) == h_complete(n, x)

    def test_h_truncated_brute_force(self):
        x = [Fraction(1, 2), Fraction(1, 3)]
        for cap in (1, 2):
            for n in range(5):
                brute = sum(
                    math.prod(c)
                    for c in itertools.combinations_with_replacement(x, n)
                    if all(c.count(v) <= cap for v in set(c))
                )
                assert h_truncated(n, cap, x) == brute

    @given(
        st.lists(
            st.fractions(min_value=-3, max_value=3, max_denominator=20),
            min_size=1,
            max_size=4,
        ),
        st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_truncated_generating_identity(self, alphabet, cap):
        assert truncated_generating_check(len(alphabet), cap, 6, alphabet)

    @given(
        st.lists(
            st.fractions(min_value=0, max_value=2, max_denominator=12),
            min_size=1,
            max_size=5,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_h_recursion_property(self, alphabet):
        # h_n(x, y) = sum_j h_j(x) y^{n-j} for one extra variable y
        y = Fraction(1, 2)
        n = 3
        lhs = h_complete(n, alphabet + [y])
        rhs = sum(h_complete(j, alphabet) * y ** (n - j) for j in range(n + 1))
        assert lhs == rhs
