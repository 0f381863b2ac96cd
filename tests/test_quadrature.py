"""Quadrature building blocks against closed-form integrals."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.hermite import hermgauss

from shemom import quadrature
from shemom.combinatorics import enumerate_partitions
from shemom.quadrature import (
    _rule,
    cauchy_pair_det,
    contour_cross,
    default_halfwidth,
    gauss_hermite_cauchy,
    gauss_legendre_panels,
    pairwise_tensor_sum,
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
    def test_moments(self):
        # int x^{2m} e^{-x^2} dx = Gamma(m + 1/2)
        nodes, weights = hermgauss(32)
        for m in range(6):
            got = float(np.sum(weights * nodes ** (2 * m)))
            assert got == pytest.approx(math.gamma(m + 0.5), rel=1e-12)

    def test_order_bounds(self):
        with pytest.raises(ValueError):
            gauss_hermite_cauchy([1.0], [1.0], 0)
        with pytest.raises(ValueError):
            gauss_hermite_cauchy([1.0], [1.0], 201)

    def test_rules_are_shared_read_only(self):
        # the cached Gauss rules are handed to every caller, so no caller may write to them
        for family in (np.polynomial.hermite.hermgauss, np.polynomial.legendre.leggauss):
            nodes, weights = _rule(family, 12)
            assert _rule(family, 12)[0] is nodes
            np.testing.assert_array_equal(nodes, family(12)[0])
            np.testing.assert_array_equal(weights, family(12)[1])
            for rule in (nodes, weights):
                with pytest.raises(ValueError):
                    rule[0] = 0.0


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


def gauss_hermite_dense(scales, parts, order):
    """gauss_hermite_cauchy's integral as a k-dimensional tensor: cauchy_pair_det on sparse meshgrid axes."""
    nodes, weights = hermgauss(order)
    ys = np.meshgrid(*(nodes / s for s in scales), indexing="ij", sparse=True)
    integrand = cauchy_pair_det(ys, parts)
    for w in np.meshgrid(*(weights / s for s in scales), indexing="ij", sparse=True):
        integrand *= w
    return float(np.sum(integrand))


def dense_cases(rng, sizes):
    """Two tensor sums on axes of these sizes, each (ws, pair, the sum over the dense grid).

    The first has the contour pair factor and complex weights, the second
    random positive pair matrices and weights.
    """
    k = len(sizes)
    # contour pair factor: nodes on vertical lines whose real parts differ by more than 1, as the routes use
    zs = [1.5 * (k - a) + rng.uniform(-0.2, 0.2, n) + 1j * rng.normal(0.0, 2.0, n) for a, n in enumerate(sizes)]
    ws = [rng.normal(size=n) + 1j * rng.normal(size=n) for n in sizes]
    grid = np.meshgrid(*zs, indexing="ij")
    dense = np.prod(np.meshgrid(*ws, indexing="ij"), axis=0)
    for a in range(k):
        for b in range(a + 1, k):
            dense = dense * (grid[a] - grid[b]) / (grid[a] - grid[b] - 1.0)
    contour = (ws, contour_cross(zs), complex(np.sum(dense)))
    # any pair factor: positive random matrices, as the Cauchy pair ratios of Gauss-Hermite are
    ws = [rng.uniform(0.1, 1.0, n) for n in sizes]
    pairs = {(a, b): rng.uniform(0.1, 1.0, (sizes[a], sizes[b])) for a in range(k) for b in range(a + 1, k)}
    dense = np.prod(np.meshgrid(*ws, indexing="ij"), axis=0)
    for (a, b), p in pairs.items():
        dense = dense * np.expand_dims(p, [c for c in range(k) if c not in (a, b)])
    return contour, (ws, lambda a, b, rows: pairs[a, b][rows], float(np.sum(dense)))


class TestPairwiseTensorSum:
    @settings(max_examples=60, deadline=None)
    @given(
        # k = 4 sums N^4 terms densely, so its axes stay short
        sizes=st.one_of(
            st.lists(st.integers(5, 20), min_size=1, max_size=3),
            st.lists(st.integers(5, 12), min_size=4, max_size=4),
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_dense_grid(self, sizes, seed):
        (ws, pair, expected), (pws, ppair, pexpected) = dense_cases(np.random.default_rng(seed), sizes)
        assert abs(complex(pairwise_tensor_sum(ws, pair)) - expected) <= 1e-12 * abs(expected)
        assert float(pairwise_tensor_sum(pws, ppair)) == pytest.approx(pexpected, rel=1e-13)

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("budget", [1, 10**9], ids=["row-blocks", "one-block"])
    def test_independent_of_block_budget(self, monkeypatch, budget, k):
        # a budget of one element gives one axis-0 node a block; 10^9 puts every node in one block
        monkeypatch.setattr(quadrature, "_BLOCK_ELEMENTS", budget)
        (ws, pair, expected), (pws, ppair, pexpected) = dense_cases(np.random.default_rng(k), [9, 7, 8, 6][:k])
        assert abs(complex(pairwise_tensor_sum(ws, pair)) - expected) <= 1e-13 * abs(expected)
        assert float(pairwise_tensor_sum(pws, ppair)) == pytest.approx(pexpected, rel=1e-13)

    def test_axis_count_guard(self):
        z = np.zeros(5, dtype=complex)
        for k in (0, 5):
            with pytest.raises(ValueError):
                pairwise_tensor_sum([z] * k, contour_cross([z] * k))


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

    @settings(max_examples=200, deadline=None)
    @given(parts=scaled_parts(), shift=st.floats(-5.0, 5.0), seed=st.integers(0, 2**32 - 1))
    def test_one_common_shift_changes_nothing(self, parts, shift, seed):
        # the Monte Carlo R draws only the differences from the last row and passes 0 for that row
        ys = np.random.default_rng(seed).normal(0.0, 1.0, size=(len(parts), 16)) / np.sqrt(2.0 * parts)[:, None]
        base = cauchy_pair_det(ys, parts)
        shifted = cauchy_pair_det(ys + shift, parts)
        assert np.max(np.abs(shifted - base)) <= 1e-12 * np.max(np.abs(base))

    def test_sparse_axes_match_dense(self):
        parts = np.array([3.0, 1.0, 2.0])
        axes = [np.linspace(-2.0, 2.0, 5) * (j + 1) for j in range(3)]
        sparse = cauchy_pair_det(np.meshgrid(*axes, indexing="ij", sparse=True), parts)
        dense = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)
        assert sparse.shape == (5, 5, 5)
        np.testing.assert_allclose(sparse.ravel(), cauchy_pair_det(dense.T, parts), rtol=1e-15)

    @pytest.mark.parametrize("layout", ["contiguous", "strided", "sparse", "scalar", "zero_last"])
    def test_bits_match_pair_ratio_expression(self, layout):
        # the in-place loop must give the bits of the plain expression, on every layout its callers pass
        parts = np.array([2.4, 0.9, 1.7, 0.9, 3.1])
        draws = np.random.default_rng(6).normal(0.0, 1.0, size=(257, len(parts)))
        if layout == "contiguous":
            ys = np.ascontiguousarray(draws.T)
        elif layout == "strided":
            ys = draws.T
        elif layout == "sparse":
            ys = np.meshgrid(*(draws[:6, j] for j in range(len(parts))), indexing="ij", sparse=True)
        elif layout == "scalar":
            ys = draws[0]
        else:  # the Monte Carlo R's rows: the differences D_i, then the scalar 0 of the last part
            ys = [*np.ascontiguousarray(draws.T[:-1]), 0.0]
        ref = np.full(np.broadcast_shapes(*(np.shape(y) for y in ys)), 1.0 / float(np.prod(parts)))
        for i in range(len(parts)):
            for j in range(i + 1, len(parts)):
                d2 = (ys[i] - ys[j]) ** 2
                ref *= (d2 + 0.25 * (parts[i] - parts[j]) ** 2) / (d2 + 0.25 * (parts[i] + parts[j]) ** 2)
        np.testing.assert_array_equal(cauchy_pair_det(ys, parts), ref)
        if layout in ("contiguous", "strided", "zero_last"):  # rows of one length: the caller's buffers serve all pairs
            out, work = np.empty(ref.shape), (np.empty(ref.shape), np.empty(ref.shape))
            assert cauchy_pair_det(ys, parts, out=out, work=work) is out
            np.testing.assert_array_equal(out, ref)

    def test_single_part(self):
        ys = [np.linspace(-1.0, 1.0, 7)]
        np.testing.assert_array_equal(cauchy_pair_det(ys, [4.0]), np.full(7, 0.25))


class TestGaussHermiteCauchy:
    def test_single_part_closed_form(self):
        # int exp(-s^2 y^2) / p dy = sqrt(pi) / (s p)
        assert gauss_hermite_cauchy([1.5], [2.0], 20) == pytest.approx(math.sqrt(math.pi) / 3.0, rel=1e-14)

    def test_two_parts_against_lu(self):
        scales, parts = np.array([0.8, 1.3]), np.array([2.0, 1.0])
        nodes, weights = hermgauss(40)
        y = np.stack(np.meshgrid(nodes / scales[0], nodes / scales[1], indexing="ij"), axis=-1)
        w = np.outer(weights / scales[0], weights / scales[1])
        lu = float(np.sum(w * np.linalg.det(cauchy_matrix(y, parts)).real))
        assert gauss_hermite_cauchy(scales, parts, 40) == pytest.approx(lu, rel=1e-13)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 4), seed=st.integers(0, 2**32 - 1))
    def test_matches_dense_tensor(self, n, seed):
        # the matrix-product sum against every term of the n-dimensional grid, at the default orders of airy.laplace_R
        rng = np.random.default_rng(seed)
        scales, parts = rng.uniform(0.5, 2.5, n), rng.uniform(0.3, 6.0, n)
        order = {2: 96, 3: 48, 4: 28}[n]
        dense = gauss_hermite_dense(scales, parts, order)
        assert abs(gauss_hermite_cauchy(scales, parts, order) - dense) <= 1e-13 * dense
