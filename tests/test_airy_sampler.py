"""Airy point process sampler: reproducibility and agreement with analytic functionals."""

import math
import sys
import threading
import time

import numpy as np
import pytest
from scipy import special
from scipy.linalg import cython_lapack, eigvalsh_tridiagonal, lapack

from oracles import sturm_above_full
from shemom import airy_sampler
from shemom.airy import AiryConfig, edge_scale, fredholm_multiplicative, laplace_R
from shemom.airy_sampler import (
    AirySampleSet,
    EnsembleConfig,
    sample_airy_points,
    conditional_laplace_mc,
    hk_mc,
    series_moment_mc,
)
from shemom.combinatorics import h_complete


def draws(seed, matrices, n):
    """The tridiagonals (diag, off) of matrices 0 .. matrices - 1, as the sampler draws them."""
    diag, off = np.empty((matrices, n)), np.empty((matrices, n - 1))
    airy_sampler._draw(seed, 0, diag, off)
    return diag, off


def full_matrix_points(cfg, select=False):
    """Reference: every replica's points from the full n x n tridiagonal, one LAPACK call per matrix.

    Replica r is edge r % 2 of matrix r // 2: its top m, or its bottom m negated.
    By f2py's lapack.dsterf, the sampler's full-matrix path, or with select=True by
    eigvalsh_tridiagonal's bisection for the m at each edge alone, which is independent of it.
    """
    n, m = cfg.matrix_size, cfg.top_points
    out = np.empty((cfg.replicas, m))
    for j, (diag, off) in enumerate(zip(*draws(cfg.seed, (cfg.replicas + 1) // 2, n))):
        if select:
            top = eigvalsh_tridiagonal(diag, off, select="i", select_range=(n - m, n - 1))[::-1]
            bottom = eigvalsh_tridiagonal(diag, off, select="i", select_range=(0, m - 1))
        else:
            vals, info = lapack.dsterf(diag, off)
            assert info == 0
            top, bottom = vals[n - m :][::-1], vals[:m]
        for r, edge in zip(range(2 * j, min(2 * j + 2, cfg.replicas)), (top, -bottom)):
            out[r] = n ** (1.0 / 6.0) * (edge - 2.0 * math.sqrt(n))
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

    def test_replica_extension_consistent(self, monkeypatch):
        # replica r depends only on (seed, r // 2), not on the total count, the chunk it falls in or the
        # worker count: a short last block is a prefix of a full one, and an odd count drops the last bottom
        block = airy_sampler._DRAW_BLOCK
        counts = (1, block - 1, block + 1, 37)
        diag, off = draws(3, 100, 100)
        for count in counts:
            np.testing.assert_array_equal(np.hstack(draws(3, count, 100)), np.hstack([diag, off])[:count])
        big = sample_airy_points(EnsembleConfig(100, 4, 200, seed=3)).points
        for workers in (1, 2, 3):
            monkeypatch.setattr(airy_sampler, "_usable_cores", lambda w=workers: w)
            for count in (2, 3, 2 * block - 1, 2 * block, 2 * block + 1, 75, 2 * 37):  # a sample needs 2 replicas
                points = sample_airy_points(EnsembleConfig(100, 4, count, seed=3)).points
                np.testing.assert_array_equal(points, big[:count])

    def test_odd_count_drops_the_last_bottom(self):
        # 2j + 1 replicas: j + 1 matrices, the last giving its top alone
        odd = sample_airy_points(EnsembleConfig(200, 8, 7, seed=4))
        even = sample_airy_points(EnsembleConfig(200, 8, 8, seed=4))
        np.testing.assert_array_equal(odd.points, even.points[:7])
        ref = full_matrix_points(EnsembleConfig(200, 8, 8, seed=4), select=True)
        assert np.abs(odd.points[-1] - ref[6]).max() <= airy_sampler._CERT_TOL * 200 ** (1 / 6)
        assert not np.allclose(even.points[-1], ref[6], atol=0.1)  # the dropped bottom is another sample

    def test_streams_apart_from_polymer(self):
        # one seed gives the sampler's block b and the polymer's chunk at path b different streams
        for block in (0, 5):
            diag, off = np.empty((1, 50)), np.empty((1, 49))
            airy_sampler._draw(3, block, diag, off)
            normal, gamma = airy_sampler._stream_pair(3, block)
            assert not np.any(diag[0] == normal.standard_normal(50))
            assert not np.any(off[0] == np.sqrt(gamma.standard_gamma(np.arange(49, 0, -1.0))))

    def test_chunk_split_invariant(self, monkeypatch):
        cfg = EnsembleConfig(100, 4, 6 * airy_sampler._DRAW_BLOCK + 5, seed=3)  # 78 matrices, 4 blocks
        whole = sample_airy_points(cfg)
        monkeypatch.setattr(airy_sampler, "_CHUNK", airy_sampler._DRAW_BLOCK)  # a chunk of one block
        np.testing.assert_array_equal(sample_airy_points(cfg).points, whole.points)

    @pytest.mark.parametrize(
        "n,m,window",
        [
            (200, 8, None),  # certified blocks of 108 rows
            (300, 8, lambda n, m: m + 4),  # every block fails the certificate and is redone
            (100, 24, None),  # n_eff >= n: the block is the full matrix, certified all the same
        ],
    )
    def test_independent_of_worker_count(self, monkeypatch, n, m, window):
        if window is not None:
            monkeypatch.setattr(airy_sampler, "_window", window)
        # 259 matrices, the last giving its top alone: not a multiple of the block or of any chunk
        cfg = EnsembleConfig(n, m, 4 * airy_sampler._CHUNK + 5, seed=7)
        runs = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # more workers than cores, switching often: shared buffers would show
        try:
            for workers in (1, 2, 3):
                monkeypatch.setattr(airy_sampler, "_usable_cores", lambda w=workers: w)
                runs.append(sample_airy_points(cfg))
        finally:
            sys.setswitchinterval(interval)
        for run in runs[1:]:
            assert np.array_equal(runs[0].points, run.points)
            assert runs[0].full_matrix_fallbacks == run.full_matrix_fallbacks
        assert runs[0].full_matrix_fallbacks == ((cfg.replicas + 1) // 2 if window is not None else 0)  # per matrix

    def test_top_point_tracy_widom(self, sample):
        top = sample.points[:, 0]
        se = top.std(ddof=1) / math.sqrt(len(top))
        # recomputed Tracy-Widom mean; generous finite-size allowance
        assert abs(top.mean() - (-1.7711)) < 4.0 * se + 0.02


class TestCertificate:
    @pytest.mark.parametrize(
        "n,m,seed,replicas",
        [
            (100, 4, 3, 40),
            (300, 16, 1, 40),
            (400, 24, 2, 30),
            (800, 24, 5, 20),
            (800, 1, 6, 20),
            (100, 24, 4, 10),
            (300, 16, 1, 41),
            (800, 1, 6, 21),
            (100, 24, 4, 11),
        ],
    )
    def test_matches_full_matrix(self, n, m, seed, replicas):
        # both edges of every matrix, an odd count's last top included
        cfg = EnsembleConfig(n, m, replicas, seed)
        sam = sample_airy_points(cfg)
        ref = full_matrix_points(cfg)
        assert sam.window == airy_sampler._window(n, m)
        assert sam.full_matrix_fallbacks == 0
        tol = airy_sampler._CERT_TOL * n ** (1.0 / 6.0)
        if sam.window >= n:
            np.testing.assert_array_equal(sam.points, ref)  # no block: the full-matrix call itself
        else:
            assert np.abs(sam.points - ref).max() <= tol
        assert np.abs(sam.points - full_matrix_points(cfg, select=True)).max() <= tol

    def test_window_sizes(self):
        assert airy_sampler._window(400, 24) == 214
        assert airy_sampler._window(800, 24) == 281

    def test_window_tends_to_row_margin(self):
        # far from the band's curvature the WKB decay is that of _WINDOW_MARGIN scaled rows past |a_m|
        n, a_24 = 10**6, abs(special.ai_zeros(24)[0][-1])
        linear = n ** (1.0 / 3.0) * (a_24 + airy_sampler._WINDOW_MARGIN)
        assert abs(airy_sampler._window(n, 24) / linear - 1.0) < 1e-3

    def test_short_margin_shows_as_fallbacks(self, monkeypatch):
        # the fallback count detects a block too short for its n: two scaled rows short, about 7% of top edges
        # fall back, so about 14% of the 100 matrices, which fail on either edge
        cfg = EnsembleConfig(400, 24, 200, seed=3)
        assert sample_airy_points(cfg).full_matrix_fallbacks <= 1
        monkeypatch.setattr(airy_sampler, "_WINDOW_MARGIN", 7.0)
        assert sample_airy_points(cfg).full_matrix_fallbacks >= 6

    def test_too_small_window_falls_back(self, monkeypatch):
        # a block of m + 4 rows misses the top eigenvalues by far more than delta
        monkeypatch.setattr(airy_sampler, "_window", lambda n, m: m + 4)
        cfg = EnsembleConfig(300, 8, 30, seed=9)
        sam = sample_airy_points(cfg)
        assert sam.window == 12
        assert sam.full_matrix_fallbacks == cfg.replicas // 2
        np.testing.assert_array_equal(sam.points, full_matrix_points(cfg))
        assert np.abs(sam.points - full_matrix_points(cfg, select=True)).max() <= airy_sampler._CERT_TOL * 300 ** (1 / 6)

    def test_sturm_count(self):
        rng = np.random.default_rng(0)
        diag = rng.normal(size=(3, 40))
        off = rng.uniform(0.5, 2.0, size=(3, 39))
        eigs = [eigvalsh_tridiagonal(d, e) for d, e in zip(diag, off)]
        shifts = rng.uniform(-4.0, 4.0, size=(3, 7))
        expected = [[np.count_nonzero(ev > x) for x in row] for ev, row in zip(eigs, shifts)]
        np.testing.assert_array_equal(airy_sampler._sturm_above(diag, off, shifts, np.empty_like(diag)), expected)

    @staticmethod
    def sampler_chunk(n, seed, matrices=64, m=24, bottom=False):
        """A chunk as sample_airy_points certifies it: the draws and the shifts lambda_j -/+ delta of each block.

        With bottom=True the diagonal is negated and the shifts are the negated bottom m, as the bottom's
        count sees them.
        """
        window = airy_sampler._window(n, m)
        diag, off = draws(seed, matrices, n)
        if bottom:
            diag = -diag
        top = np.array([airy_sampler._dsterf(d[:window], e[: window - 1])[0][-m:][::-1] for d, e in zip(diag, off)])
        return diag, off, np.hstack([top - airy_sampler._CERT_TOL, top + airy_sampler._CERT_TOL])

    @pytest.mark.parametrize("n", [400, 800])
    @pytest.mark.parametrize("case", ["sampler", "bottom", "perturbed", "lower_edge"])
    def test_early_stop_matches_full_pass(self, n, case):
        diag, off, shifts = self.sampler_chunk(n, seed=n + 1, bottom=case == "bottom")
        if case == "perturbed":
            # shifts off the eigenvalues by N(0, 0.3^2): some certificates fail
            shifts = shifts + np.random.default_rng(n).normal(0.0, 0.3, size=shifts.shape)
        elif case == "lower_edge":
            # at the bottom of the spectrum every row's Gershgorin edge reaches the shift: the full pass
            shifts = -shifts
            assert np.any(diag[:, -1] + off[:, -1] >= shifts.min(axis=1))
        scratch = np.empty((len(diag) + 3, n))  # a chunk may be shorter than its buffer
        np.testing.assert_array_equal(
            airy_sampler._sturm_above(diag, off, shifts, scratch), sturm_above_full(diag, off, shifts)
        )

    def test_early_stop_checks_the_pivot(self):
        # rows 2.. settle by Gershgorin (edges -3.5 and -4 < x = 0), but the pivot q_1 = 0.999 - 1/1 = -0.001
        # is above -|e_1| = -1, so q_2 = -5 + 1/0.001 > 0 and row 2 still counts above x
        n = 12
        diag = np.array([[1.0, 0.999] + [-5.0] * (n - 2)])
        off = np.array([[1.0, 1.0] + [0.5] * (n - 3)])
        diag = np.vstack([diag, diag + 0.25])  # and a second replica, 0.25 higher
        off = np.vstack([off, off])
        shifts = np.array([[0.0, 0.1], [0.0, 0.1]])
        counts = airy_sampler._sturm_above(diag, off, shifts, np.empty_like(diag))
        np.testing.assert_array_equal(counts, sturm_above_full(diag, off, shifts))
        eigs = [eigvalsh_tridiagonal(d, e) for d, e in zip(diag, off)]
        np.testing.assert_array_equal(counts, [[np.count_nonzero(ev > x) for x in row] for ev, row in zip(eigs, shifts)])


class TestTwoEdges:
    def test_certificate_restores_the_diagonal(self):
        # the bottom's count runs on diag negated in place; negation is exact, so diag comes back bit for bit
        diag, off = draws(5, 30, 400)
        before = diag.copy()
        window = airy_sampler._window(400, 24)
        edges, ok = airy_sampler._certified_edges(diag, off, window, 24, np.empty_like(diag))
        assert np.array_equal(diag, before)
        assert ok.all()
        assert np.all(np.diff(edges, axis=2) < 0)

    @pytest.mark.parametrize("edge", [0, 1])
    def test_either_edge_failing_redoes_both(self, monkeypatch, edge):
        # one matrix whose count fails on one edge alone is redone on the full matrix, both edges
        sturm, calls = airy_sampler._sturm_above, []

        def spoiled(diag, off, shifts, scratch):
            counts = sturm(diag, off, shifts, scratch)
            if len(calls) == edge:
                counts[1, 0] += 1  # matrix 1's count at its first shift
            calls.append(edge)
            return counts

        monkeypatch.setattr(airy_sampler, "_sturm_above", spoiled)
        cfg = EnsembleConfig(400, 8, 10, seed=2)  # 5 matrices: one block, one chunk, two counts
        sam = sample_airy_points(cfg)
        assert len(calls) == 2 and sam.full_matrix_fallbacks == 1
        ref = full_matrix_points(cfg)
        np.testing.assert_array_equal(sam.points[2:4], ref[2:4])
        assert not np.array_equal(sam.points[:2], ref[:2])  # the others are the block's, within delta
        assert np.abs(sam.points - ref).max() <= airy_sampler._CERT_TOL * 400 ** (1 / 6)

    def test_bottom_has_the_law_of_the_top(self):
        # T has the law of -S T S: the negated bottom's top point has the top's law, and the two edges of a
        # matrix are asymptotically independent
        sam = sample_airy_points(EnsembleConfig(400, 4, 2000, seed=11))
        top, bottom = sam.points[0::2, 0], sam.points[1::2, 0]
        matrices = len(top)
        se = math.hypot(top.std(ddof=1), bottom.std(ddof=1)) / math.sqrt(matrices)
        assert abs(top.mean() - bottom.mean()) <= 3.0 * se
        assert abs(np.corrcoef(top, bottom)[0, 1]) <= 3.0 / math.sqrt(matrices)


class TestMatrixUnits:
    def test_correlated_rows(self):
        # a matrix's two rows equal: the bar of its 4 units, larger than the row formula's by about sqrt(2)
        units = np.array([1.0, 2.0, 4.0, 7.0])
        est = airy_sampler._mean(np.repeat(units, 2))
        assert est.value == units.mean() and est.replicas == 8
        assert est.stderr == pytest.approx(units.std(ddof=1) / 2.0, rel=1e-14)

    def test_anti_correlated_rows(self):
        # every matrix's rows sum to 4: the mean has no spread, though the rows do
        vals = np.array([1.0, 3.0, 0.0, 4.0, 2.5, 1.5])
        est = airy_sampler._mean(vals)
        assert (est.value, est.stderr) == (2.0, 0.0)

    def test_odd_count(self):
        # the last row is a unit of its own
        vals = np.array([1.0, 1.0, 3.0, 3.0, 5.0])
        mean = 13.0 / 5.0
        units = np.array([2.0 * (1.0 - mean), 2.0 * (3.0 - mean), 5.0 - mean])
        expected = math.sqrt(3.0 / 2.0 * (units**2).sum()) / 5.0
        assert airy_sampler._mean(vals).stderr == pytest.approx(expected, rel=1e-14)

    def test_single_matrix_is_the_row_formula(self):
        assert airy_sampler._mean(np.array([1.0, 3.0])).stderr == pytest.approx(1.0, rel=1e-14)

    def test_independent_rows_give_the_row_formula(self):
        vals = np.random.default_rng(3).normal(size=4000)
        row = vals.std(ddof=1) / math.sqrt(len(vals))
        assert airy_sampler._mean(vals).stderr == pytest.approx(row, rel=0.05)


class TestDsterfBinding:
    @pytest.mark.parametrize("n", [1, 2, 214, 245, 281, 309])
    def test_matches_f2py_wrapper(self, n):
        rng = np.random.default_rng(n)
        d = rng.normal(size=n)
        e = np.sqrt(rng.gamma(shape=np.arange(n - 1, 0, -1).astype(float)))
        d_in, e_in = d.copy(), e.copy()
        vals, info = airy_sampler._dsterf(d, e)
        ref_vals, ref_info = lapack.dsterf(d, e if n > 1 else np.zeros(1))  # f2py's e has at least one entry
        assert np.array_equal(vals, ref_vals) and info == ref_info == 0
        assert np.array_equal(d, d_in) and np.array_equal(e, e_in)

    def test_refuses_another_signature(self, monkeypatch):
        # dgtsv's capsule, (int *, int *, d *, d *, d *, d *, int *, int *), under dsterf's name
        monkeypatch.setitem(cython_lapack.__pyx_capi__, "dsterf", cython_lapack.__pyx_capi__["dgtsv"])
        with pytest.raises(ImportError, match="dsterf has signature 'void \\(int \\*, int \\*, "):
            airy_sampler._bind_dsterf()

    def test_releases_the_gil(self):
        # dsterf at n = 3000 takes about 0.2 s, and this thread must keep running while it does.  A
        # wrapper that holds the GIL lets it run only in the interpreter's 5 ms switch slices at
        # the two ends of the call: tens of thousands of loop iterations, none in the middle half
        rng = np.random.default_rng(0)
        d, e = rng.normal(size=3000), rng.uniform(0.5, 2.0, size=2999)
        stamps = {}

        def call():
            stamps["start"] = time.perf_counter()
            airy_sampler._dsterf(d, e)
            stamps["end"] = time.perf_counter()

        worker = threading.Thread(target=call)
        seen = []  # this loop's clock, at most once a millisecond
        worker.start()
        while worker.is_alive():
            if "start" in stamps:
                now = time.perf_counter()
                if not seen or now - seen[-1] > 1e-3:
                    seen.append(now)
        worker.join(timeout=10.0)
        assert "end" in stamps
        quarter = (stamps["end"] - stamps["start"]) / 4.0
        middle = [t for t in seen if stamps["start"] + quarter < t < stamps["end"] - quarter]
        assert len(middle) >= 5


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

    def test_series_is_factorial_times_hk(self, sample):
        # E[S^k | points] = k! h_k(e^{C a}) per replica, and k! = 1, 2 scales the mean and bar exactly
        for k in (1, 2):
            h = hk_mc(k, 1.0, sample)
            s = series_moment_mc(k, 1.0, sample)
            scale = math.factorial(k)
            assert (s.value, s.stderr, s.replicas) == (scale * h.value, scale * h.stderr, h.replicas)

    @pytest.mark.parametrize("k", [1, 2])
    def test_series_matches_drawn_weights(self, sample, k):
        # the estimator Rao-Blackwell replaces: (sum_p E_p e^{C a_p})^k over Exp(1) weights drawn
        # afresh, 100 draws a replica, differs from k! h_k(e^{C a}) by noise alone, averaged over the replicas
        ex = np.exp(edge_scale(1.0) * sample.points)
        rng = np.random.default_rng(17)
        drawn = np.mean([((rng.exponential(size=ex.shape) * ex).sum(axis=1)) ** k for _ in range(100)], axis=0)
        rao_blackwell = math.factorial(k) * h_complete(k, ex.T)
        gap = drawn - rao_blackwell
        assert abs(gap.mean()) <= 4.0 * gap.std(ddof=1) / math.sqrt(len(gap))
        assert series_moment_mc(k, 1.0, sample).value == pytest.approx(rao_blackwell.mean(), rel=1e-12)

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
