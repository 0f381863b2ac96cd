"""Polymer moments: contour vs closed forms vs simulation, and the disorder limit."""

import math
import re
import sys

import numpy as np
import pytest

from shemom import polymer
from shemom.polymer import (
    MAX_LEVELS,
    PolymerConfig,
    intermediate_disorder_limit,
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

    @pytest.mark.parametrize(
        "call,message",
        [
            (lambda: PolymerConfig(levels=1, time=1.0, replicas=1), "at least 2 replicas"),
            (lambda: simulate_polymer(PolymerConfig(levels=1, time=1.0), max_moment=0), "max_moment must be >= 1"),
            (lambda: polymer_moment_contour(2, 0, 1.0), "levels must be in"),
            (lambda: polymer_moment_contour(2, MAX_LEVELS + 1, 1.0), "levels must be in"),
            # these once returned 0.0: the trapezoid sum over no nodes
            (lambda: polymer_moment_contour(2, 3, 1.0, nodes=0), "nodes must be a positive integer"),
            (lambda: polymer_moment_contour(2, 3, 1.0, nodes=-4), "nodes must be a positive integer"),
            (lambda: polymer_moment_contour(2, 3, 1.0, nodes=64.0), "nodes must be a positive integer"),
        ],
        ids=["replicas=1", "max_moment=0", "contour levels=0", "contour levels=65", "nodes=0", "nodes=-4", "nodes=64.0"],
    )
    def test_guards_refuse_by_name(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()

    @pytest.mark.parametrize(
        "field,value",
        [("levels", 2.5), ("levels", True), ("steps", 100.5), ("steps", np.float64(100.0)), ("replicas", 1000.5), ("replicas", False)],
    )
    def test_counts_must_be_integers(self, field, value):
        # steps = 100.5 was blamed on coarsen; the other floats failed inside numpy
        # with "'float' object cannot be interpreted as an integer"
        fields = {"levels": 2, "time": 1.0, "steps": 100, "replicas": 1000, field: value}
        with pytest.raises(ValueError, match=re.escape(f"{field} must be an integer, got {value!r}")):
            PolymerConfig(**fields)

    @pytest.mark.parametrize("max_moment", [2.5, 2.0, True])
    def test_max_moment_must_be_an_integer(self, max_moment):
        cfg = PolymerConfig(levels=2, time=1.0, steps=20, replicas=10)
        with pytest.raises(ValueError, match=re.escape(f"max_moment must be an integer, got {max_moment!r}")):
            simulate_polymer(cfg, max_moment=max_moment)

    def test_numpy_integers_accepted(self):
        cfg = PolymerConfig(levels=np.int64(2), time=1.0, steps=np.int32(20), replicas=np.int64(10))
        assert simulate_polymer(cfg, max_moment=np.int64(2)).values.shape == (2,)


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
        # for N=1 the drift is the identity and the noise multiply is exact in distribution
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

    def test_mean_exact_at_any_step_count(self):
        # the exact drift flow keeps E[Zt] = t^{N-1}/(N-1)!; an Euler drift
        # would be low by prod_{j<N-1} (1 - j/steps) = 0.72 here
        cfg = PolymerConfig(levels=4, time=1.0, steps=10, replicas=20_000, seed=3)
        sim = simulate_polymer(cfg, max_moment=1)
        assert abs(sim.values[0] - 1.0 / 6.0) <= 4.0 * sim.stderrs[0]

    def test_antithetic_pair(self):
        # at N = 1 the pair's paths are e^{+-B_t - t/2}, so z+ z- = e^{-t}
        # and 2 mean^2 - (second moment) = z+ z- for the one pair
        t = 1.3
        sim = simulate_polymer(PolymerConfig(levels=1, time=t, steps=40, replicas=2, seed=5), max_moment=2)
        assert 2.0 * sim.values[0] ** 2 - sim.values[1] == pytest.approx(math.exp(-t), abs=1e-12)
        assert np.all(np.isfinite(sim.stderrs)) and np.all(sim.stderrs > 0)

    def test_stderr_calibrated(self):
        # k = 1 has an exact mean, so z is pure noise: its spread over 200
        # seeds reads 0.96-1.10 with the error taken over pairs, 0.52-0.59 with
        # it taken over paths as if they were independent (five seed blocks);
        # 40 seeds would scatter the correct spread over 0.76-1.31
        truth = polymer_moment_contour(1, 2, 0.5)
        zs = []
        for seed in range(200):
            sim = simulate_polymer(PolymerConfig(levels=2, time=0.5, steps=20, replicas=400, seed=seed), max_moment=1)
            zs.append((sim.values[0] - truth) / sim.stderrs[0])
        assert 0.7 <= np.std(zs, ddof=1) <= 1.3

    def test_reproducible(self):
        cfg = PolymerConfig(levels=2, time=1.0, steps=100, replicas=500, seed=7)
        a = simulate_polymer(cfg)
        b = simulate_polymer(cfg)
        np.testing.assert_array_equal(a.values, b.values)

    def test_coarsen_shares_increments(self):
        # at N = 1 the update is exact, so a coarse run on the fine run's own
        # increments equals it to round-off; an independent coarse path would not
        for steps, coarsens in ((100, (2, 4, 5)), (505, (5,))):
            # at 505 steps the step pairs straddle the coarse steps and the last step stands alone
            cfg = PolymerConfig(levels=1, time=1.0, steps=steps, replicas=2_000, seed=9)
            fine = simulate_polymer(cfg)
            for coarsen in coarsens:
                coarse = simulate_polymer(cfg, coarsen=coarsen)
                np.testing.assert_allclose(coarse.values, fine.values, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("steps,coarsen,share", [(100, 2, 0.5), (100, 4, 0.5), (100, 5, 1.0), (505, 5, 1.0)])
    def test_coarse_draw_count(self, monkeypatch, steps, coarsen, share):
        # an even coarsen needs only the sum stream: half the fine run's normals
        drawn = {}

        class Counted:
            def __init__(self, rng, stream):
                self.rng, self.stream = rng, stream

            def standard_normal(self, out):
                drawn[self.stream] = drawn.get(self.stream, 0) + out.size
                return self.rng.standard_normal(out=out)

        stream_pair = polymer._stream_pair
        monkeypatch.setattr(
            polymer, "_stream_pair", lambda *a: [Counted(rng, i) for i, rng in enumerate(stream_pair(*a))]
        )
        cfg = PolymerConfig(levels=3, time=1.0, steps=steps, replicas=2_001, seed=9)
        simulate_polymer(cfg)
        fine = dict(drawn)
        assert fine == {0: (steps + 1) // 2 * 3 * 1_001, 1: steps // 2 * 3 * 1_001}
        drawn.clear()
        simulate_polymer(cfg, coarsen=coarsen)
        assert sum(drawn.values()) == share * sum(fine.values())
        assert drawn.get(1, 0) == (0 if share < 1 else fine[1])

    def test_coarsen_must_divide(self):
        # a non-positive coarsen once returned [1, 1] +- [0, 0] (or raised ZeroDivisionError)
        cfg = PolymerConfig(levels=3, time=1.0, steps=100, replicas=10, seed=0)
        for coarsen in (3, 0, -1, -100, 2.0, True):
            with pytest.raises(ValueError, match="coarsen"):
                simulate_polymer(cfg, coarsen=coarsen)

    @pytest.mark.parametrize(
        "levels,steps,replicas",
        [
            (1, 11, 7),  # all steps in one draw block, odd step and path counts, four chunks of one pair
            (1, 501, 20_050),  # six chunks (5 x 1_671 + 1_670 pairs)
            (3, 641, 5_600),  # six chunks (4 x 467 + 2 x 466 pairs), a partial last block
            (8, 64, 300),  # many levels, a partial last block, six chunks of 25 pairs
            (8, 1_000, 8_000),  # twelve chunks (4 x 334 + 8 x 333 pairs): six would exceed the 626-pair cap
            (1, 500, 30_000),  # the benchmark's shape: six chunks of 2_500 pairs
        ],
    )
    def test_bit_identical_to_per_step_loop(self, levels, steps, replicas):
        cfg = PolymerConfig(levels, 1.3, steps, replicas, seed=11)
        sim = simulate_polymer(cfg, max_moment=3)
        values, stderrs = _per_step_reference(cfg, max_moment=3)
        assert np.array_equal(sim.values, values)
        assert np.array_equal(sim.stderrs, stderrs)

    @pytest.mark.parametrize(
        "levels,steps,replicas,coarsen",
        [
            (1, 501, 20_050, 1),  # six chunks (5 x 1_671 + 1_670 pairs)
            (3, 641, 5_600, 1),  # six chunks (4 x 467 + 2 x 466 pairs)
            (2, 500, 20_010, 2),  # six chunks (3 x 1_668 + 3 x 1_667 pairs)
            (2, 500, 20_010, 5),
            (2, 500, 20_011, 1),  # odd: the last path's mirror is dropped
            (2, 505, 20_010, 5),  # pairs straddle the coarse steps, and the last step stands alone
            (2, 505, 20_010, 1),
        ],
    )
    def test_independent_of_worker_count(self, monkeypatch, levels, steps, replicas, coarsen):
        cfg = PolymerConfig(levels, 1.3, steps, replicas, seed=13)
        runs = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # more workers than cores, switching often: shared buffers would show
        try:
            for workers in (1, 2, 3):
                monkeypatch.setattr(polymer, "_usable_cores", lambda w=workers: w)
                runs.append(simulate_polymer(cfg, max_moment=3, coarsen=coarsen))
        finally:
            sys.setswitchinterval(interval)
        for run in runs[1:]:
            assert np.array_equal(runs[0].values, run.values)
            assert np.array_equal(runs[0].stderrs, run.stderrs)


def _per_step_reference(config: PolymerConfig, max_moment: int):
    """The simulation one step at a time: one (N, pairs) draw per step pair and stream, same chunks.

    The chunks are six, or the least multiple of six that keeps each within
    the draw budget, of equal length up to one pair, longer ones first; each
    draws from two SFC64 streams spawned from (seed, first path).  A step
    pair takes S from the first and D from the second and runs the
    increments (S +- D) sqrt(t/steps/2); an odd step count's last step takes
    S sqrt(t/steps) alone.
    """
    n, t, fine, paths = config.levels, config.time, config.steps, config.replicas
    h = t / fine
    # exp(hD), the exact flow of dZt_l = Zt_{l-1} dt, and its half step
    full, half = (
        np.array([[s**(l - m) / math.factorial(l - m) if l >= m else 0.0 for m in range(n)] for l in range(n)])
        for s in (h, h / 2.0)
    )
    pairs = (paths + 1) // 2
    cap = 200_000 // max(1, fine // 50) // (2 * n) + 1
    count = min(pairs, 6 * math.ceil(pairs / (6 * cap)))
    plus, minus = [], []
    done = 0
    for i in range(count):
        c = pairs // count + (i < pairs % count)
        sums, diffs = (
            np.random.Generator(np.random.SFC64(seq))
            for seq in np.random.SeedSequence((config.seed, 2 * done)).spawn(2)
        )
        z = np.zeros((2, n, c))  # the + paths, then the - paths
        z[:, 0] = 1.0
        increments = []  # each less h/2
        for _ in range(fine // 2):
            s = sums.standard_normal((n, c)) * math.sqrt(t / fine / 2.0) - h / 2.0
            d = diffs.standard_normal((n, c)) * math.sqrt(t / fine / 2.0)
            increments += [s + d, s - d]
        if fine % 2:
            increments.append(sums.standard_normal((n, c)) * math.sqrt(t / fine) - h / 2.0)
        for step, g in enumerate(increments):
            growth = np.stack([np.exp(g), np.exp(-h - g)])
            z = ((half if step == 0 else full) @ z) * growth
        top = half[-1] @ z
        plus.append(np.stack([top[0] ** k for k in range(1, max_moment + 1)], axis=1))
        minus.append(np.stack([top[1] ** k for k in range(1, max_moment + 1)], axis=1))
        done += c
    plus, minus = np.concatenate(plus), np.concatenate(minus)[: paths - pairs]
    means = (plus.sum(axis=0) + minus.sum(axis=0)) / paths
    # one unit per pair, and an odd count's last path alone; one pair falls back to its two paths
    units = plus - means
    if pairs > 1:
        units[: len(minus)] += minus - means
    else:
        units = np.concatenate([units, minus - means])
    return means, np.sqrt(len(units) / (len(units) - 1) * (units**2).sum(axis=0)) / paths


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

    @pytest.mark.parametrize("X", [math.nan, math.inf, -math.inf])
    def test_x_must_be_finite(self, X):
        with pytest.raises(ValueError, match="X must be finite"):
            scaling_constant(8, 1.0, X)


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

    @pytest.mark.parametrize("X", [math.nan, math.inf, -math.inf])
    def test_x_must_be_finite(self, X):
        with pytest.raises(ValueError, match="X must be finite"):
            intermediate_disorder_limit(2, 1.0, X)

    def test_levels_must_increase(self):
        with pytest.raises(ValueError):
            intermediate_disorder_limit(1, 1.0, levels=(8,))
        with pytest.raises(ValueError):
            intermediate_disorder_limit(1, 1.0, levels=(16, 8))
