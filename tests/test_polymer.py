"""Polymer moments: contour vs closed forms vs simulation, and the disorder limit."""

import math

import numpy as np
import pytest

from shemom.polymer import (
    MAX_LEVELS,
    PolymerConfig,
    intermediate_disorder_limit,
    markov_tail_bound,
    polymer_moment_contour,
    polymer_second_moment_exact,
    scaling_constant,
    simulate_polymer,
)
from shemom.she_moments import MomentRequest, erfc_reduction_oracle, heat_kernel, moment_contour


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            PolymerConfig(levels=0, time=1.0)
        with pytest.raises(ValueError):
            PolymerConfig(levels=MAX_LEVELS + 1, time=1.0)
        with pytest.raises(ValueError):
            PolymerConfig(levels=1, time=-1.0)
        with pytest.raises(ValueError):
            PolymerConfig(levels=1, time=1.0, steps=5)

    @pytest.mark.parametrize("time", [math.inf, math.nan])
    def test_time_must_be_finite(self, time):
        with pytest.raises(ValueError, match="time must be positive and finite"):
            PolymerConfig(levels=1, time=time)


class TestContourMoments:
    @pytest.mark.parametrize("levels,t", [(1, 1.0), (3, 2.0), (10, 3.5), (30, 6.0)])
    def test_k1_exact(self, levels, t):
        truth = t ** (levels - 1) / math.factorial(levels - 1)
        assert polymer_moment_contour(1, levels, t) == pytest.approx(truth, rel=1e-12)

    @pytest.mark.parametrize("levels,t", [(1, 1.0), (2, 1.5), (5, 2.0), (12, 3.0), (25, 5.0)])
    def test_k2_vs_closed_form(self, levels, t):
        got = polymer_moment_contour(2, levels, t)
        exact = polymer_second_moment_exact(levels, t)
        assert got == pytest.approx(exact, rel=1e-12)

    def test_k2_n1_is_exponential(self):
        # Zt(t, 1) = e^{B_t - t/2}, so E[Zt^2] = e^t
        assert polymer_second_moment_exact(1, 1.3) == pytest.approx(math.exp(1.3), rel=1e-12)

    def test_k3_node_refinement(self):
        a = polymer_moment_contour(3, 5, 2.0, nodes=192)
        b = polymer_moment_contour(3, 5, 2.0, nodes=320)
        assert a == pytest.approx(b, rel=1e-12)

    def test_radius_guards(self):
        with pytest.raises(ValueError):
            polymer_moment_contour(2, 2, 1.0, radii=np.array([2.0, 1.5]))
        with pytest.raises(ValueError):
            polymer_moment_contour(2, 2, 1.0, radii=np.array([4.0, 2.5, 1.0]))
        with pytest.raises(ValueError):
            polymer_moment_contour(4, 2, 1.0)

    @pytest.mark.parametrize("t", [0.0, -1.0, math.inf, math.nan])
    def test_time_guard(self, t):
        with pytest.raises(ValueError, match="t must be positive and finite"):
            polymer_moment_contour(2, 3, t)


class TestSimulation:
    def test_mean_exact_n1(self):
        # for N=1 the exponential-Euler update is exact in distribution
        cfg = PolymerConfig(levels=1, time=1.0, steps=50, replicas=20_000, seed=2)
        sim = simulate_polymer(cfg, max_moment=2)
        assert abs(sim.values[0] - 1.0) <= 4.0 * sim.stderrs[0]
        assert abs(sim.values[1] - math.exp(1.0)) <= 4.0 * sim.stderrs[1]

    def test_against_contour_n3(self):
        cfg = PolymerConfig(levels=3, time=1.0, steps=400, replicas=20_000, seed=4)
        sim = simulate_polymer(cfg, max_moment=2)
        for k in (1, 2):
            truth = polymer_moment_contour(k, 3, 1.0)
            assert abs(sim.values[k - 1] - truth) <= 4.0 * sim.stderrs[k - 1]

    def test_reproducible(self):
        cfg = PolymerConfig(levels=2, time=1.0, steps=100, replicas=500, seed=7)
        a = simulate_polymer(cfg)
        b = simulate_polymer(cfg)
        np.testing.assert_array_equal(a.values, b.values)

    def test_coarsen_shares_increments(self):
        # at N = 1 the update is exact, so a coarse run on the fine run's own
        # increments equals it to round-off; an independent coarse path would not
        cfg = PolymerConfig(levels=1, time=1.0, steps=100, replicas=2_000, seed=9)
        fine = simulate_polymer(cfg)
        for coarsen in (2, 4, 5):
            coarse = simulate_polymer(cfg, coarsen=coarsen)
            np.testing.assert_allclose(coarse.values, fine.values, rtol=1e-12, atol=0)

    def test_coarsen_must_divide(self):
        # a non-positive coarsen once returned [1, 1] +- [0, 0] (or raised ZeroDivisionError)
        cfg = PolymerConfig(levels=3, time=1.0, steps=100, replicas=10, seed=0)
        for coarsen in (3, 0, -1, -100, 2.0):
            with pytest.raises(ValueError, match="coarsen"):
                simulate_polymer(cfg, coarsen=coarsen)

    @pytest.mark.parametrize(
        "levels,steps,replicas",
        [
            (1, 11, 7),  # fewer steps than one draw block, odd step count
            (1, 501, 20_050),  # two chunks (20_001 + 49)
            (3, 641, 5_600),  # two chunks (5_556 + 44), a partial last block
            (8, 64, 300),  # many levels in one block
        ],
    )
    def test_bit_identical_to_per_step_loop(self, levels, steps, replicas):
        cfg = PolymerConfig(levels, 1.3, steps, replicas, seed=11)
        sim = simulate_polymer(cfg, max_moment=3)
        values, stderrs = _per_step_reference(cfg, max_moment=3)
        assert np.array_equal(sim.values, values)
        assert np.array_equal(sim.stderrs, stderrs)


def _per_step_reference(config: PolymerConfig, max_moment: int):
    """The simulation one step at a time: a normal(scale, (m, N)) draw per step, same chunks."""
    n, t, fine = config.levels, config.time, config.steps
    dt = t / fine
    vals = np.zeros((config.replicas, max_moment))
    chunk = max(1, min(config.replicas, 200_000 // max(1, fine // 50) // n + 1))
    done = 0
    while done < config.replicas:
        m = min(chunk, config.replicas - done)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(config.seed, done)))
        z = np.zeros((m, n))
        z[:, 0] = 1.0
        for _ in range(fine):
            growth = np.exp(rng.normal(scale=math.sqrt(t / fine), size=(m, n)) - dt / 2.0)
            z[:, 1:] = z[:, 1:] * growth[:, 1:] + z[:, :-1] * dt
            z[:, 0] *= growth[:, 0]
        for k in range(1, max_moment + 1):
            vals[done : done + m, k - 1] = z[:, -1] ** k
        done += m
    return vals.mean(axis=0), vals.std(axis=0, ddof=1) / math.sqrt(config.replicas)


class TestScalingConstant:
    def test_k1_limit_is_stirling_exact(self):
        # t^{N-1}/(N-1)! * e^{t/2} / C = e^{-1/(12N) + O(N^-3)} / sqrt(2 pi T)
        T = 1.0
        for n in (4, 16, 50):
            t = math.sqrt(n * T)
            log_ratio = (
                (n - 1) * math.log(t) - math.lgamma(n) + t / 2.0 - scaling_constant(n, T)
            )
            predicted = -1.0 / (12.0 * n) - 0.5 * math.log(2.0 * math.pi * T)
            assert log_ratio == pytest.approx(predicted, abs=1.0 / n**3)

    def test_guards(self):
        with pytest.raises(ValueError):
            scaling_constant(0, 1.0)
        with pytest.raises(ValueError):
            scaling_constant(1, -1.0)
        for T in (math.inf, math.nan):
            with pytest.raises(ValueError, match="T must be positive and finite"):
                scaling_constant(1, T)


class TestDisorderLimit:
    def test_k1_converges(self):
        T = 1.0
        lim = intermediate_disorder_limit(1, T, levels=(25, 50))
        assert lim.value == pytest.approx(heat_kernel(T), rel=2e-2)
        assert lim.extrapolated == pytest.approx(heat_kernel(T), rel=1e-4)

    def test_k2_extrapolates_to_she(self):
        T = 1.0
        lim = intermediate_disorder_limit(2, T, levels=(8, 16))
        assert lim.extrapolated == pytest.approx(erfc_reduction_oracle(T), rel=1e-2)

    def test_k3_extrapolates_to_she(self):
        T = 1.0
        truth = moment_contour(MomentRequest(3, T)).value
        lim = intermediate_disorder_limit(3, T, levels=(8, 16))
        assert lim.extrapolated == pytest.approx(truth, rel=2e-2)

    def test_nonzero_x(self):
        T, X = 1.0, 0.7
        lim = intermediate_disorder_limit(1, T, X, levels=(16, 32))
        # X != 0 converges only at rate 1/sqrt(N); sqrt-Richardson leaves O(1/N)
        assert lim.extrapolated == pytest.approx(heat_kernel(T, X), rel=2e-2)

    def test_levels_must_increase(self):
        with pytest.raises(ValueError):
            intermediate_disorder_limit(1, 1.0, levels=(8,))
        with pytest.raises(ValueError):
            intermediate_disorder_limit(1, 1.0, levels=(16, 8))


class TestMarkovBound:
    def test_bound_valid_for_lognormal(self):
        # P(e^{G - 1/2} > a) is exactly computable; moments are e^{k(k-1)/2}
        from scipy.stats import norm

        moments = [math.exp(k * (k - 1) / 2.0) for k in range(1, 6)]
        for a in (2.0, 5.0, 20.0):
            bound, k = markov_tail_bound(a, moments)
            exact = norm.sf((math.log(a) + 0.5))
            assert bound >= exact
            assert 1 <= k <= 5

    def test_bound_capped_at_one(self):
        bound, _ = markov_tail_bound(0.1, [1.0])
        assert bound == 1.0

    def test_guards(self):
        with pytest.raises(ValueError):
            markov_tail_bound(-1.0, [1.0])
        with pytest.raises(ValueError):
            markov_tail_bound(1.0, [])
