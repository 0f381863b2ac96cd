"""Quadrature building blocks against closed-form integrals."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shemom.combinatorics import enumerate_partitions
from shemom.quadrature import (
    GaussHermiteRule,
    cauchy_pair_det,
    default_halfwidth,
    gauss_hermite,
    gauss_hermite_cauchy,
    gauss_legendre_panels,
    nested_contour_sum,
)


class TestDefaultHalfwidth:
    def test_envelope_below_tolerance(self):
        for decay, tol in [(1.0, 1e-12), (0.5, 1e-10), (4.0, 1e-13)]:
            y = default_halfwidth(decay, tol)
            assert math.exp(-decay * y * y / 2.0) < tol

    def test_rejects_bad_decay(self):
        with pytest.raises(ValueError):
            default_halfwidth(0.0)


class TestGaussHermite:
    def test_rule_type(self):
        rule = gauss_hermite(12)
        assert isinstance(rule, GaussHermiteRule)
        assert rule.order == 12

    def test_moments(self):
        # int x^{2m} e^{-x^2} dx = Gamma(m + 1/2)
        rule = gauss_hermite(32)
        for m in range(6):
            got = float(np.sum(rule.weights * rule.nodes ** (2 * m)))
            assert got == pytest.approx(math.gamma(m + 0.5), rel=1e-12)

    def test_order_bounds(self):
        with pytest.raises(ValueError):
            gauss_hermite(0)
        with pytest.raises(ValueError):
            gauss_hermite(201)


class TestGaussLegendrePanels:
    def test_polynomial_exactness(self):
        x, w = gauss_legendre_panels(-1.0, 3.0, 0.7, 6)
        for p in range(11):  # order-6 panels integrate degree <= 11 exactly
            got = float(np.sum(w * x**p))
            exact = (3.0 ** (p + 1) - (-1.0) ** (p + 1)) / (p + 1)
            assert got == pytest.approx(exact, rel=1e-12, abs=1e-12)

    def test_oscillatory(self):
        x, w = gauss_legendre_panels(0.0, 10.0, 0.5, 10)
        got = float(np.sum(w * np.cos(3.0 * x)))
        assert got == pytest.approx(math.sin(30.0) / 3.0, abs=1e-12)

    def test_rejects_empty_interval(self):
        with pytest.raises(ValueError):
            gauss_legendre_panels(1.0, 1.0, 0.5, 4)


def cauchy_matrix(ys: np.ndarray, parts: np.ndarray) -> np.ndarray:
    """The explicit matrices 1/(i(y_i - y_j) + (p_i + p_j)/2), batched over the rows of ys."""
    return 1.0 / (1j * (ys[..., :, None] - ys[..., None, :]) + 0.5 * (parts[:, None] + parts[None, :]))


class TestNestedContourSum:
    @settings(max_examples=60, deadline=None)
    @given(sizes=st.lists(st.integers(5, 20), min_size=1, max_size=3), seed=st.integers(0, 2**32 - 1))
    def test_matches_dense_grid(self, sizes, seed):
        rng = np.random.default_rng(seed)
        k = len(sizes)
        # nodes on vertical lines whose real parts differ by more than 1, as the routes use
        zs = [1.5 * (k - a) + rng.uniform(-0.2, 0.2, n) + 1j * rng.normal(0.0, 2.0, n) for a, n in enumerate(sizes)]
        ws = [rng.normal(size=n) + 1j * rng.normal(size=n) for n in sizes]
        grid = np.meshgrid(*zs, indexing="ij")
        dense = np.prod(np.meshgrid(*ws, indexing="ij"), axis=0)
        for a in range(k):
            for b in range(a + 1, k):
                dense = dense * (grid[a] - grid[b]) / (grid[a] - grid[b] - 1.0)
        expected = complex(np.sum(dense))
        assert abs(nested_contour_sum(zs, ws) - expected) <= 1e-12 * abs(expected)

    def test_axis_count_guard(self):
        z = np.zeros(5, dtype=complex)
        with pytest.raises(ValueError):
            nested_contour_sum([z] * 4, [z] * 4)
        with pytest.raises(ValueError):
            nested_contour_sum([z, z], [z])


PARTITIONS = [lam.parts for k in range(1, 9) for lam in enumerate_partitions(k)]


@st.composite
def scaled_parts(draw):
    """C * lambda for lambda |- k <= 8, as the residue routes use."""
    return draw(st.floats(0.5, 2.0)) * np.asarray(draw(st.sampled_from(PARTITIONS)), dtype=float)


class TestCauchyPairDet:
    @settings(max_examples=200, deadline=None)
    @given(parts=scaled_parts(), spread=st.floats(4.0, 8.0), seed=st.integers(0, 2**32 - 1))
    def test_matches_lu(self, parts, spread, seed):
        # LU is only a trustworthy reference where the matrix is well conditioned:
        # a y spread several times the parts keeps its error below ~1e-13
        ys = np.random.default_rng(seed).normal(0.0, spread * parts.min(), size=(16, len(parts)))
        lu = np.linalg.det(cauchy_matrix(ys, parts))
        closed = cauchy_pair_det(ys.T, parts)
        assert np.max(np.abs(lu - closed)) <= 1e-12 * np.max(np.abs(lu))

    @settings(max_examples=40, deadline=None)
    @given(parts=scaled_parts(), spread=st.floats(0.3, 8.0), seed=st.integers(0, 2**32 - 1))
    def test_matches_exact_determinant(self, parts, spread, seed):
        # at small spreads LU cancels (1e-2 relative at l = 8); the closed form does not
        mpmath = pytest.importorskip("mpmath")
        ys = np.random.default_rng(seed).normal(0.0, spread * parts.min(), size=len(parts))
        with mpmath.workdps(40):
            m = mpmath.matrix(
                [
                    [1 / (mpmath.mpc(0, mpmath.mpf(a) - mpmath.mpf(b)) + (mpmath.mpf(p) + mpmath.mpf(q)) / 2)
                     for b, q in zip(ys, parts)]
                    for a, p in zip(ys, parts)
                ]
            )
            exact = mpmath.det(m)
        closed = float(cauchy_pair_det(ys, parts))
        assert abs(mpmath.mpf(closed) - exact) <= 1e-12 * abs(exact)

    def test_sparse_axes_match_dense(self):
        parts = np.array([3.0, 1.0, 2.0])
        axes = [np.linspace(-2.0, 2.0, 5) * (j + 1) for j in range(3)]
        sparse = cauchy_pair_det(np.meshgrid(*axes, indexing="ij", sparse=True), parts)
        dense = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)
        assert sparse.shape == (5, 5, 5)
        np.testing.assert_allclose(sparse.ravel(), cauchy_pair_det(dense.T, parts), rtol=1e-15)

    def test_single_part(self):
        ys = [np.linspace(-1.0, 1.0, 7)]
        np.testing.assert_array_equal(cauchy_pair_det(ys, [4.0]), np.full(7, 0.25))


class TestGaussHermiteCauchy:
    def test_single_part_closed_form(self):
        # int exp(-s^2 y^2) / p dy = sqrt(pi) / (s p)
        assert gauss_hermite_cauchy([1.5], [2.0], 20) == pytest.approx(math.sqrt(math.pi) / 3.0, rel=1e-14)

    def test_two_parts_against_lu(self):
        scales, parts = np.array([0.8, 1.3]), np.array([2.0, 1.0])
        rule = gauss_hermite(40)
        y = np.stack(np.meshgrid(rule.nodes / scales[0], rule.nodes / scales[1], indexing="ij"), axis=-1)
        w = np.outer(rule.weights / scales[0], rule.weights / scales[1])
        lu = float(np.sum(w * np.linalg.det(cauchy_matrix(y, parts)).real))
        assert gauss_hermite_cauchy(scales, parts, 40) == pytest.approx(lu, rel=1e-13)
