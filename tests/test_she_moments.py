"""Cross-checks of the heat-equation moment routes against oracles and each other."""

import itertools
import math

import numpy as np
import pytest
from numpy.polynomial.hermite import hermgauss

from shemom.airy import AiryConfig, _fischer_enclosure, edge_scale, laplace_R, laplace_R_mc, moment_from_airy
from shemom.combinatorics import enumerate_partitions, multiplicity_factor
from shemom.she_moments import (
    InconsistencyError,
    MomentEstimate,
    MomentRequest,
    default_anchors,
    dominant_term_log,
    erfc_reduction_oracle,
    heat_kernel,
    moment,
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
            moment_contour(MomentRequest(5, 1.0))
        with pytest.raises(ValueError):
            moment_partition(9, 1.0)
        with pytest.raises(ValueError):
            moment_gaussian_mc(7, 1.0)

    # these routes take T, not a MomentRequest, so airy.edge_scale is what refuses a bad T
    @pytest.mark.parametrize("route", [moment_partition, moment_gaussian_mc])
    @pytest.mark.parametrize("T", [-1.0, 0.0, math.nan, math.inf])
    def test_residue_routes_refuse_bad_time(self, route, T):
        with pytest.raises(ValueError, match="T must be positive and finite"):
            route(2, T)


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


class TestK4Agreement:
    @pytest.mark.parametrize("T,X", [(0.5, 0.0), (2.0, 1.0)])
    def test_contour_vs_partition(self, T, X):
        c = moment_contour(MomentRequest(4, T, X))
        factor, _ = reduce_to_origin(MomentRequest(4, T, X))
        p = moment_partition(4, T)
        assert c.err <= 0.2 * c.value
        assert abs(c.value - factor * p.value) <= 5.0 * math.hypot(c.err, factor * p.err)


class TestContourScan:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_unrefused_estimates_agree_with_partition(self, k):
        # the contour route either refuses or agrees with the partition route
        # shifted to X; at k = 2, T = 316 an aliased sum once reported 3.6e151
        # against 3.2e32
        returned = 0
        for T in (0.01, 0.5, 5.0, 50.0, 316.0):
            try:
                p = moment_partition(k, T)
            except ArithmeticError:
                continue
            for X in (0.0, 3.0, 10.0):
                try:
                    c = moment_contour(MomentRequest(k, T, X))
                except FloatingPointError:
                    continue
                factor, _ = reduce_to_origin(MomentRequest(k, T, X))
                assert abs(c.value - factor * p.value) <= 5.0 * math.hypot(c.err, factor * p.err), (T, X)
                returned += 1
        assert returned >= 3  # every k returns T = 0.01, 0.5 and 5 at X = 0


class TestReduceToOrigin:
    def test_matches_direct_contour(self):
        req = MomentRequest(2, 1.5, 0.8)
        factor, origin = reduce_to_origin(req)
        assert origin.X == 0.0
        direct = moment_contour(req)
        shifted = factor * moment_contour(origin).value
        assert direct.value == pytest.approx(shifted, rel=1e-8)


class TestFrontDoor:
    def test_residue_route_shifted_to_X(self):
        req = MomentRequest(2, 1.5, 0.8)
        factor, _ = reduce_to_origin(req)
        est = moment(req, "partition", 0, None)
        assert est.meta["shift_factor"] == factor
        assert est.value == factor * moment_partition(2, 1.5).value

    def test_unknown_route_refused(self):
        with pytest.raises(ValueError, match="unknown moment route 'gaussian-mc'"):
            moment(MomentRequest(2, 1.0), "gaussian-mc", 0, 2_000)


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
        # large T is a refusal, not a NaN: at T = 700 the trapezoid step aliases
        # the phase before e^{(T/2) z^2} overflows, and e^800 on the line
        # Re z = 40 reaches the overflow check
        with pytest.raises(FloatingPointError, match="contour.*T=700"):
            moment_contour(MomentRequest(2, 700.0))
        with pytest.raises(FloatingPointError, match="contour route overflowed"):
            moment_contour(MomentRequest(2, 1.0), anchors=(40.0, 38.0))

    @pytest.mark.parametrize(
        "k,T,X",
        [(2, 1.0, 30.0), (3, 40.0, 0.0), (1, 0.01, 1.0), (2, 316.0, 0.0), (3, 1 / 6, 3.0), (1, 8.0, 50.0)],
    )
    def test_no_correct_digit_raises(self, k, T, X):
        # each estimate is no larger than its own error bar, while every moment is
        # positive; at k = 2, T = 316 each trapezoid step turns the phase
        # e^{i T alpha y} by more than pi, and the aliased sum once gave 3.6e151.
        # The last two cancel to round-off (1.7e-17 and 3.2e-17 where the moments
        # are 2e-35 and 2e-69); only the eps * sum |terms| part of the error bar
        # covers them.  Those two and (1, 0.01, 1) are correct on the default
        # saddle anchors (TestSaddleAnchors), so they check the guard on the
        # anchors centred on 0, where the sum still cancels
        centred = (k, T, X) in {(1, 0.01, 1.0), (3, 1 / 6, 3.0), (1, 8.0, 50.0)}
        with pytest.raises(FloatingPointError, match=f"contour.*T={T}, X={X}"):
            moment_contour(MomentRequest(k, T, X), anchors=default_anchors(k) if centred else None)


class TestSaddleAnchors:
    # the default anchors sit on the saddle -X/T; anchors centred on 0 cancel to
    # round-off at each of these points and are refused
    @pytest.mark.parametrize("T,X", [(0.01, 1.0), (8.0, 50.0)])
    def test_k1_heat_kernel(self, T, X):
        est = moment_contour(MomentRequest(1, T, X))
        assert est.meta["anchors"] == [-X / T]
        assert est.value == pytest.approx(heat_kernel(T, X), rel=1e-12)

    @pytest.mark.parametrize("T,X", [(27.83, 30.0), (27.83, -30.0), (0.6, 10.0)])
    def test_k2_erfc_oracle(self, T, X):
        req = MomentRequest(2, T, X)
        factor, _ = reduce_to_origin(req)
        assert moment_contour(req).value == pytest.approx(factor * erfc_reduction_oracle(T), rel=1e-12)


def _lu_matrix(ys: np.ndarray, parts: np.ndarray) -> np.ndarray:
    return 1.0 / (1j * (ys[..., :, None] - ys[..., None, :]) + 0.5 * (parts[:, None] + parts[None, :]))


class TestPartitionInternals:
    def test_terms_recorded(self):
        est = moment_partition(3, 1.0)
        assert set(est.meta["terms"]) == {"(3,)", "(2, 1)", "(1, 1, 1)"}

    @pytest.mark.parametrize("k", [4, 5])
    def test_matches_lu_determinants(self, k):
        # the residue sum with every Cauchy determinant taken by LU of the
        # explicit matrix on the same nodes; lambda = (1^5) enters as B/2,
        # B the smallest product of (Gauss-Hermite value + order-halving bar)
        # over its splits into blocks of <= 4 ones
        T, order = 1.3, 10

        def gauss_hermite(parts, n):
            nodes, weights = hermgauss(n)
            decay = T * parts / 2.0
            norm = math.exp(float(np.sum((T / 2.0) * (parts**3 - parts) / 12.0))) / (2.0 * math.pi) ** len(parts)
            grids = np.meshgrid(*(nodes / np.sqrt(d) for d in decay), indexing="ij")
            ys = np.stack([g.ravel() for g in grids], axis=-1)
            wgrids = np.meshgrid(*(weights / np.sqrt(d) for d in decay), indexing="ij")
            w = np.prod([g.ravel() for g in wgrids], axis=0)
            return norm * float(np.sum(w * np.linalg.det(_lu_matrix(ys, parts)).real))

        def block(m):
            ones = np.ones(m)
            value = gauss_hermite(ones, order)
            return value + abs(value - gauss_hermite(ones, max(8, order // 2)))

        total = 0.0
        for lam in enumerate_partitions(k):
            if lam.length <= 4:
                term = gauss_hermite(np.asarray(lam.parts, dtype=float), order)
            else:
                assert lam.parts == (1,) * 5
                term = min(math.prod(block(m) for m in mu.parts) for mu in enumerate_partitions(5) if mu.parts[0] <= 4) / 2
            total += multiplicity_factor(lam) * term
        est = moment_partition(k, T, gh_order=order)
        assert est.value == pytest.approx(total, rel=1e-12)

    @pytest.mark.parametrize("T", [0.5, 2.0])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_equals_scaled_airy_route(self, k, T):
        # both routes are airy.residue_sum over the same Gauss-Hermite R, on
        # laplace_R's one default order table
        airy_value = moment_from_airy(k, AiryConfig.from_T(T))
        scaled = math.factorial(k) * math.exp(-k * T / 24.0) * airy_value
        assert moment_partition(k, T).value == pytest.approx(scaled, rel=1e-13, abs=0.0)

    def test_error_bounds_truth_k2(self):
        est = moment_partition(2, 1.0)
        assert abs(est.value - erfc_reduction_oracle(1.0)) <= 10.0 * est.err


class TestFischerEnclosure:
    @pytest.mark.parametrize("T", [0.1, 0.5, 2.0])
    @pytest.mark.parametrize("lam", [(1, 1, 1), (2, 1, 1), (1, 1, 1, 1), (2, 1, 1, 1), (3, 2, 1), (2, 2, 1, 1)])
    def test_fischer_premise(self, lam, T):
        # R(c_{A u B}) <= R(c_A) R(c_B) for every split into two blocks
        c = edge_scale(T) * np.asarray(lam, dtype=float)
        whole = laplace_R(c)
        for size in range(1, len(c)):
            for a in itertools.combinations(range(len(c)), size):
                b = [i for i in range(len(c)) if i not in a]
                assert whole <= laplace_R(c[list(a)]) * laplace_R(c[b])

    @pytest.mark.parametrize("T", [0.5, 1.0])
    def test_contains_monte_carlo(self, T):
        c = edge_scale(T) * np.ones(5)
        bound = _fischer_enclosure()(c)
        mc, se = laplace_R_mc(c, 2_000_000, np.random.default_rng(3))
        assert 0.0 < mc - 3.0 * se and mc + 3.0 * se < bound

    @pytest.mark.parametrize("k", [5, 8])
    def test_seed_independent(self, k):
        a, b = moment_partition(k, 0.5, seed=1), moment_partition(k, 0.5, seed=2)
        assert (a.value, a.err, a.meta) == (b.value, b.err, b.meta)
        assert 0.0 < a.meta["tail_bound"] / 2.0 <= a.err


class TestDominantTerm:
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
