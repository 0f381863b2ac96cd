"""Airy point process sampler: reproducibility and agreement with analytic functionals."""

import math

import numpy as np
import pytest
from scipy.linalg import eigvalsh_tridiagonal

from shemom import airy_sampler
from shemom.airy import AiryConfig, fredholm_multiplicative, laplace_R
from shemom.airy_sampler import (
    AirySampleSet,
    EnsembleConfig,
    sample_airy_points,
    conditional_laplace_mc,
    hk_mc,
    series_moment_mc,
)


def full_matrix_points(cfg):
    """Reference: every replica's top points from the full n x n tridiagonal, one LAPACK call each."""
    n, m = cfg.matrix_size, cfg.top_points
    dof = np.arange(n - 1, 0, -1).astype(float)
    out = np.empty((cfg.replicas, m))
    for r in range(cfg.replicas):
        rng = airy_sampler._replica_rng(cfg.seed, r)
        diag = rng.normal(size=n)
        off = np.sqrt(rng.gamma(shape=dof))
        top = eigvalsh_tridiagonal(diag, off, select="i", select_range=(n - m, n - 1))
        out[r] = n ** (1.0 / 6.0) * (top[::-1] - 2.0 * math.sqrt(n))
    return out


@pytest.fixture(scope="module")
def sample():
    # moderate ensemble shared across tests; statistical tolerances are set
    # for this size
    cfg = EnsembleConfig(matrix_size=300, top_points=16, replicas=3000, seed=101)
    return sample_airy_points(cfg)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            EnsembleConfig(matrix_size=10)
        with pytest.raises(ValueError):
            EnsembleConfig(top_points=0)
        with pytest.raises(ValueError):
            EnsembleConfig(replicas=1)

    def test_sample_set_shape_guard(self):
        cfg = EnsembleConfig(matrix_size=100, top_points=4, replicas=5, seed=0)
        with pytest.raises(ValueError):
            AirySampleSet(cfg, np.zeros((5, 3)))

    @pytest.mark.parametrize("replica,pair", [(0, 0), (4, 2)])
    def test_sample_set_order_guard(self, replica, pair):
        # one replica whose points rise between positions pair and pair + 1
        cfg = EnsembleConfig(matrix_size=100, top_points=4, replicas=5, seed=0)
        points = np.tile([3.0, 2.0, 1.0, 0.0], (5, 1))
        points[replica, pair + 1] = points[replica, pair] + 0.5
        with pytest.raises(ValueError, match="sorted decreasing"):
            AirySampleSet(cfg, points)


class TestSampling:
    def test_sorted_decreasing(self, sample):
        assert np.all(np.diff(sample.points, axis=1) <= 0)

    def test_reproducible(self):
        cfg = EnsembleConfig(matrix_size=100, top_points=4, replicas=8, seed=3)
        a = sample_airy_points(cfg)
        b = sample_airy_points(cfg)
        np.testing.assert_array_equal(a.points, b.points)

    def test_replica_extension_consistent(self):
        # replica r depends only on (seed, r), not on the total count or the chunk it falls in
        small = sample_airy_points(EnsembleConfig(100, 4, 5, seed=3))
        for large in (9, airy_sampler._CHUNK + 2):
            big = sample_airy_points(EnsembleConfig(100, 4, large, seed=3))
            np.testing.assert_array_equal(small.points, big.points[:5])

    def test_chunk_split_invariant(self, monkeypatch):
        cfg = EnsembleConfig(100, 4, 11, seed=3)
        whole = sample_airy_points(cfg)
        monkeypatch.setattr(airy_sampler, "_CHUNK", 3)
        np.testing.assert_array_equal(sample_airy_points(cfg).points, whole.points)

    def test_top_point_tracy_widom(self, sample):
        top = sample.points[:, 0]
        se = top.std(ddof=1) / math.sqrt(len(top))
        # recomputed Tracy-Widom mean; generous finite-size allowance
        assert abs(top.mean() - (-1.7711)) < 4.0 * se + 0.02


class TestCertificate:
    @pytest.mark.parametrize(
        "n,m,seed,replicas",
        [(100, 4, 3, 40), (300, 16, 1, 40), (400, 24, 2, 30), (800, 24, 5, 20), (800, 1, 6, 20), (100, 24, 4, 10)],
    )
    def test_matches_full_matrix(self, n, m, seed, replicas):
        cfg = EnsembleConfig(n, m, replicas, seed)
        sam = sample_airy_points(cfg)
        ref = full_matrix_points(cfg)
        assert sam.window == airy_sampler._window(n, m)
        assert sam.full_matrix_fallbacks == 0
        if sam.window >= n:
            np.testing.assert_array_equal(sam.points, ref)  # no block: the full-matrix call itself
        else:
            assert np.abs(sam.points - ref).max() <= airy_sampler._CERT_TOL * n ** (1.0 / 6.0)

    def test_window_sizes(self):
        assert airy_sampler._window(400, 24) == 245
        assert airy_sampler._window(800, 24) == 309

    def test_too_small_window_falls_back(self, monkeypatch):
        # a block of m + 4 rows misses the top eigenvalues by far more than delta
        monkeypatch.setattr(airy_sampler, "_window", lambda n, m: m + 4)
        cfg = EnsembleConfig(300, 8, 30, seed=9)
        sam = sample_airy_points(cfg)
        assert sam.window == 12
        assert sam.full_matrix_fallbacks == cfg.replicas
        np.testing.assert_array_equal(sam.points, full_matrix_points(cfg))

    def test_sturm_count(self):
        rng = np.random.default_rng(0)
        diag = rng.normal(size=(3, 40))
        off = rng.uniform(0.5, 2.0, size=(3, 39))
        eigs = [eigvalsh_tridiagonal(d, e) for d, e in zip(diag, off)]
        shifts = rng.uniform(-4.0, 4.0, size=(3, 7))
        expected = [[np.count_nonzero(ev > x) for x in row] for ev, row in zip(eigs, shifts)]
        np.testing.assert_array_equal(airy_sampler._sturm_above(diag, off**2, shifts), expected)


class TestFunctionals:
    def test_series_k1(self, sample):
        T = 1.0
        est = series_moment_mc(1, T, sample)
        truth = math.exp(T / 24.0) / math.sqrt(2.0 * math.pi * T)
        assert abs(est.value - truth) <= 4.0 * est.stderr + 0.01

    def test_series_reproducible(self, sample):
        a = series_moment_mc(1, 1.0, sample)
        b = series_moment_mc(1, 1.0, sample)
        assert a.value == b.value

    def test_series_order_cap(self, sample):
        with pytest.raises(ValueError):
            series_moment_mc(3, 1.0, sample)

    def test_hk_k1_matches_series_mean(self, sample):
        # h_1 = sum of weights, so hk and the exponential series share a mean
        T = 1.0
        h = hk_mc(1, T, sample)
        s = series_moment_mc(1, T, sample)
        combined = math.hypot(h.stderr, s.stderr)
        assert abs(h.value - s.value) <= 4.0 * combined

    def test_hk_k2_vs_laplace(self, sample):
        T = 1.0
        C = (T / 2.0) ** (1.0 / 3.0)
        truth = laplace_R(2.0 * C) + 0.5 * laplace_R([C, C])
        est = hk_mc(2, T, sample)
        assert abs(est.value - truth) <= 4.0 * est.stderr + 0.01

    def test_conditional_laplace_vs_fredholm(self, sample):
        T = 1.0
        cfg = AiryConfig.from_T(T)
        for u in (0.5, 1.0):
            est = conditional_laplace_mc(u, T, sample)
            det = fredholm_multiplicative(u, cfg)
            assert abs(est.value - det) <= 4.0 * est.stderr + 0.005

    def test_conditional_laplace_bounds(self, sample):
        est = conditional_laplace_mc(1.0, 1.0, sample)
        assert 0.0 < est.value < 1.0

    def test_guards(self, sample):
        with pytest.raises(ValueError):
            conditional_laplace_mc(-1.0, 1.0, sample)
        with pytest.raises(ValueError):
            hk_mc(4, 1.0, sample)

    @pytest.mark.parametrize("T", [-1.0, 0.0, math.inf, math.nan])
    def test_time_must_be_positive(self, sample, T):
        # C = (T/2)^(1/3) is complex for T < 0
        for fn, arg in ((series_moment_mc, 1), (hk_mc, 1), (conditional_laplace_mc, 1.0)):
            with pytest.raises(ValueError, match="T must be positive"):
                fn(arg, T, sample)

    def test_single_replica_refused(self):
        # the ddof = 1 standard error of one replica is nan, so the config refuses it
        with pytest.raises(ValueError, match="at least 2 replicas for an error bar"):
            EnsembleConfig(100, 4, 1, 0)


class TestTruncationWarning:
    def test_warns_when_cut_matters(self):
        cfg = EnsembleConfig(matrix_size=100, top_points=2, replicas=20, seed=0)
        sam = sample_airy_points(cfg)
        with pytest.warns(RuntimeWarning):
            hk_mc(2, 1.0, sam)
