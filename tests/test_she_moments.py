"""Cross-checks of the heat-equation moment routes against oracles and each other."""

import math

import numpy as np
import pytest

from shemom.airy import AiryConfig, moment_from_airy
from shemom.combinatorics import enumerate_partitions, multiplicity_factor
from shemom.quadrature import gauss_hermite
from shemom.she_moments import (
    InconsistencyError,
    MomentEstimate,
    MomentRequest,
    default_anchors,
    dominant_term,
    dominant_term_log,
    erfc_reduction_oracle,
    heat_kernel,
    moment_contour,
    moment_gaussian_mc,
    moment_partition,
    reduce_to_origin,
)


class TestRequestValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            MomentRequest(0, 1.0)
        with pytest.raises(ValueError):
            MomentRequest(1, 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            MomentRequest(2, bad)
        with pytest.raises(ValueError):
            MomentRequest(2, 1.0, bad)

    def test_anchor_gap_enforced(self):
        with pytest.raises(ValueError):
            moment_contour(MomentRequest(2, 1.0), anchors=(1.0, 0.5))
        with pytest.raises(ValueError):
            moment_contour(MomentRequest(2, 1.0), anchors=(3.0, 1.5, 0.0))

    def test_order_caps(self):
        with pytest.raises(ValueError):
            moment_contour(MomentRequest(6, 1.0))
        with pytest.raises(ValueError):
            moment_partition(9, 1.0)
        with pytest.raises(ValueError):
            moment_gaussian_mc(7, 1.0)


class TestHeatKernel:
    def test_normalization(self):
        assert heat_kernel(1.0) == pytest.approx(1.0 / math.sqrt(2.0 * math.pi))
        assert heat_kernel(2.0, 1.0) == pytest.approx(
            math.exp(-0.25) / math.sqrt(4.0 * math.pi)
        )


class TestK1Exactness:
    @pytest.mark.parametrize("T", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("X", [0.0, 1.0])
    def test_contour(self, T, X):
        est = moment_contour(MomentRequest(1, T, X))
        assert est.value == pytest.approx(heat_kernel(T, X), rel=1e-10)

    @pytest.mark.parametrize("T", [0.5, 1.0, 2.0])
    def test_partition(self, T):
        est = moment_partition(1, T)
        assert est.value == pytest.approx(heat_kernel(T), rel=1e-10)


class TestK2Agreement:
    def test_triple(self):
        oracle = erfc_reduction_oracle(1.0)
        contour = moment_contour(MomentRequest(2, 1.0))
        partition = moment_partition(2, 1.0)
        assert contour.value == pytest.approx(oracle, rel=1e-6)
        assert partition.value == pytest.approx(oracle, rel=1e-6)
        assert contour.value == pytest.approx(partition.value, rel=1e-6)

    def test_oracle_positivity_bound(self):
        # E[Z^2] >= E[Z]^2 and the lambda=(1,1) piece is positive
        for T in (0.5, 1.0, 3.0):
            assert erfc_reduction_oracle(T) >= heat_kernel(T) ** 2


class TestK3Agreement:
    def test_contour_vs_partition(self):
        c = moment_contour(MomentRequest(3, 0.5))
        p = moment_partition(3, 0.5)
        assert c.value == pytest.approx(p.value, rel=1e-4)


class TestReduceToOrigin:
    def test_matches_direct_contour(self):
        req = MomentRequest(2, 1.5, 0.8)
        factor, origin = reduce_to_origin(req)
        assert origin.X == 0.0
        direct = moment_contour(req)
        shifted = factor * moment_contour(origin).value
        assert direct.value == pytest.approx(shifted, rel=1e-8)


class TestAnchorInvariance:
    @pytest.mark.parametrize("gap", [1.2, 2.0])
    def test_k2_value_stable(self, gap):
        req = MomentRequest(2, 1.0)
        base = moment_contour(req)
        alt = moment_contour(req, anchors=default_anchors(2, gap=gap))
        assert abs(alt.value - base.value) <= 2.0 * max(base.err, alt.err)


class TestContourGuard:
    def test_imaginary_residue_raises(self, imaginary_residue):
        with pytest.raises(InconsistencyError):
            moment_contour(MomentRequest(2, 1.0))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_raises_quietly(self):
        # e^{(T/2) z^2} on the anchors overflows at T = 700: a refusal, not a NaN
        with pytest.raises(FloatingPointError, match="contour.*T=700"):
            moment_contour(MomentRequest(2, 700.0))

    @pytest.mark.parametrize("k,T,X", [(2, 1.0, 30.0), (3, 40.0, 0.0), (1, 0.01, 1.0)])
    def test_no_correct_digit_raises(self, k, T, X):
        # each estimate is no larger than its own error bar, while every moment is positive
        with pytest.raises(FloatingPointError, match=f"contour.*T={T}, X={X}"):
            moment_contour(MomentRequest(k, T, X))


def _lu_matrix(ys: np.ndarray, parts: np.ndarray) -> np.ndarray:
    return 1.0 / (1j * (ys[..., :, None] - ys[..., None, :]) + 0.5 * (parts[:, None] + parts[None, :]))


class TestPartitionInternals:
    def test_terms_recorded(self):
        est = moment_partition(3, 1.0)
        assert set(est.meta["terms"]) == {"(3,)", "(2, 1)", "(1, 1, 1)"}

    @pytest.mark.parametrize("k", [4, 5])
    def test_matches_lu_determinants(self, k):
        # the residue sum with every Cauchy determinant taken by LU of the
        # explicit matrix, on the same nodes and the same random draws
        T, order, samples, seed = 1.3, 10, 20_000, 4
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
        rule = gauss_hermite(order)
        total = 0.0
        for lam in enumerate_partitions(k):
            parts = np.asarray(lam.parts, dtype=float)
            decay = T * parts / 2.0
            norm = math.exp(float(np.sum((T / 2.0) * (parts**3 - parts) / 12.0))) / (2.0 * math.pi) ** lam.length
            if lam.length <= 4:
                grids = np.meshgrid(*(rule.nodes / np.sqrt(d) for d in decay), indexing="ij")
                ys = np.stack([g.ravel() for g in grids], axis=-1)
                wgrids = np.meshgrid(*(rule.weights / np.sqrt(d) for d in decay), indexing="ij")
                w = np.prod([g.ravel() for g in wgrids], axis=0)
                term = norm * float(np.sum(w * np.linalg.det(_lu_matrix(ys, parts)).real))
            else:
                ys = rng.normal(0.0, 1.0, size=(samples, lam.length)) / np.sqrt(2.0 * decay)
                envelope = float(np.prod(np.sqrt(math.pi / decay)))
                term = norm * envelope * float(np.mean(np.linalg.det(_lu_matrix(ys, parts)).real))
            total += multiplicity_factor(lam) * term
        est = moment_partition(k, T, gh_order=order, mc_samples=samples, seed=seed)
        assert est.value == pytest.approx(total, rel=1e-12)

    @pytest.mark.parametrize("T", [0.5, 2.0])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_equals_scaled_airy_route(self, k, T):
        # both routes are airy.residue_sum over the same Gauss-Hermite R
        airy_value = moment_from_airy(k, AiryConfig.from_T(T))
        scaled = math.factorial(k) * math.exp(-k * T / 24.0) * airy_value
        assert moment_partition(k, T).value == pytest.approx(scaled, rel=1e-13, abs=0.0)

    def test_error_bounds_truth_k2(self):
        est = moment_partition(2, 1.0)
        assert abs(est.value - erfc_reduction_oracle(1.0)) <= 10.0 * est.err


class TestDominantTerm:
    def test_log_linear_consistency(self):
        assert dominant_term(3, 1.0) == pytest.approx(
            math.exp(dominant_term_log(3, 1.0))
        )

    @pytest.mark.parametrize("k", [4, 5, 6])
    def test_intermittency_growth(self, k):
        # log-convexity in k of the dominant residue at fixed T
        T = 4.0
        a = dominant_term_log(k - 1, T)
        b = dominant_term_log(k, T)
        c = dominant_term_log(k + 1, T)
        assert c - b > b - a

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            dominant_term_log(0, 1.0)


class TestGaussianMC:
    def test_k1_exact(self):
        est = moment_gaussian_mc(1, 1.0, samples=1_000)
        assert est.err == 0.0
        assert est.value == pytest.approx(heat_kernel(1.0), rel=1e-12)

    def test_k2_within_three_sigma(self):
        est = moment_gaussian_mc(2, 1.0, samples=200_000, seed=1)
        truth = erfc_reduction_oracle(1.0)
        assert abs(est.value - truth) <= 3.0 * est.err

    def test_reproducible(self):
        a = moment_gaussian_mc(2, 1.0, samples=5_000, seed=9)
        b = moment_gaussian_mc(2, 1.0, samples=5_000, seed=9)
        assert a.value == b.value

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            moment_gaussian_mc(2, 1.0, samples=10)


class TestEstimateContract:
    def test_estimate_fields(self):
        est = moment_contour(MomentRequest(1, 1.0))
        assert isinstance(est, MomentEstimate)
        assert est.method == "contour"
        assert est.err >= 0.0
        assert np.isfinite(est.value)
