"""Semi-discrete directed polymer: simulation, residue moments, intermediate-disorder limit.

The partition function Z(t, N) integrates e^(path energy) over up-right paths
through N Brownian environments.  Throughout we work with the drift-compensated
version Zt(t, N) = Z(t, N) e^{-t/2}, which satisfies the Ito hierarchy

    dZt_1 = Zt_1 dB_1,        dZt_k = Zt_{k-1} dt + Zt_k dB_k,

with Zt_k(0) = 1{k=1}, so E[Zt(t, N)] = t^{N-1}/(N-1)! exactly.
``simulate_polymer`` integrates it by a split step (Strang 1968) that
alternates the exact noise multiply with the exact flow of the drift, so its
mean is exact at any step count, on antithetic pairs of paths (+dB, -dB)
that share one column of normals; ``coarsen`` reruns the same paths at a
longer step to measure the time-step error.  It draws the lower levels
1..N-1 only: no level feeds the top level, whose noise is integrated out
exactly (conditional Monte Carlo; Glasserman 2004), so each path
carries the top level's conditional moments instead of one draw of it, and
at N = 1 the moments are exact.  The recurrence runs once per distinct
column of draws: once per pair of paths, and at N = 1, where nothing is
drawn, once for all of them.  Its columns run in six equal chunks (or a
multiple of six) on the usable cores, and its results are the same for any
core count.  Each chunk draws from two SFC64 generators, whose
normals cost about a fifth less than those of numpy's default PCG64, as
do the chunks of the residue-sum Monte Carlo and the blocks of the GUE edge
sampler.  The two streams give
each pair of fine steps (2j, 2j+1) a sum S_j and a difference D_j, and the
steps take (S_j +- D_j)/sqrt(2): an orthogonal map, so the increments stay
i.i.d. N(0, 1) in law.  A fine run draws one normal per (step, lower level,
pair of paths), as one stream would; a run with ``coarsen`` = 2 needs only
the sums, sqrt(2) times each one a coarse increment, and draws half as many.

Integer moments admit nested contour integrals over circles around the origin
with radii separated by more than one; under the scaling t = sqrt(NT) + X and
the constant C(N, T, X), the normalized moments converge (at rate 1/N) to the
moments of the stochastic heat equation with delta initial data.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .chunks import _equal_chunks, _paired_mean, _run_chunks, _stream_pair, _usable_cores
from .quadrature import contour_cross, pairwise_tensor_sum

__all__ = [
    "PolymerConfig",
    "PolymerMoments",
    "simulate_polymer",
    "polymer_moment_contour",
    "polymer_second_moment_exact",
    "scaling_constant",
    "intermediate_disorder_limit",
]

MAX_LEVELS = 64
_BUFFER_DOUBLES = 400_000  # doubles of all buffers in flight; also sets the replica chunk
_SEGMENT = 256  # the most steps between two rescalings of the moment sums


@dataclass(frozen=True)
class PolymerConfig:
    """Simulation parameters for the compensated polymer hierarchy."""

    levels: int  # N
    time: float  # t
    steps: int = 2000
    replicas: int = 4000
    seed: int = 0

    def __post_init__(self):
        _check_levels(self.levels)
        for name in ("steps", "replicas"):
            _check_integer(name, getattr(self, name))
        if not (math.isfinite(self.time) and self.time > 0):
            raise ValueError("time must be positive and finite")
        if self.steps < 10:
            raise ValueError("steps must be >= 10")
        if self.replicas < 2:
            raise ValueError("need at least 2 replicas for a standard error")


def _check_integer(name: str, value) -> None:
    # a float or a bool would otherwise pass the range checks and fail later inside numpy, or blame another field
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _check_levels(levels) -> None:
    _check_integer("levels", levels)
    if not 1 <= levels <= MAX_LEVELS:
        raise ValueError(f"levels must be in [1, {MAX_LEVELS}]")


@dataclass(frozen=True)
class PolymerMoments:
    """Monte Carlo moments of Zt(t, N): values[k-1] estimates E[Zt^k]."""

    values: np.ndarray
    stderrs: np.ndarray
    config: PolymerConfig


def simulate_polymer(config: PolymerConfig, max_moment: int = 3, coarsen: int = 1) -> PolymerMoments:
    """Antithetic split-step simulation of the compensated hierarchy, its top level integrated out.

    The split step (Strang) alternates the exact flows of the two parts of
    the hierarchy: half a drift step, then per step of length h the noise
    multiply and a full drift step, except that the last drift step is a
    half step.  The noise multiplies level l by exp(dB_l - h/2), which keeps
    the state positive; the drift flow exp(hD) is the lower-triangular
    Toeplitz matrix of h^j/j!, so E[Zt] = t^{N-1}/(N-1)! for any step count.

    Only the lower levels 1..N-1 are drawn.  No level feeds the top level
    Y = Zt_N, and its noise only multiplies it by m = exp(dB_N - h/2), with
    E[m^j] = e^{a_j}, a_j = j(j-1)h/2; so a path carries the top level's
    conditional moments M_j = E[Y^j | lower levels], j <= ``max_moment``,
    instead of a draw of Y (conditional Monte Carlo, Rao-Blackwell: the same
    mean, no more variance).  A step's drift adds to Y the lower levels'
    share c of the flow's top row, and then Y' = (c + Y) m, so

        M_j' = e^{a_j} (M_j + P_j),   P_j = sum_{r<j} C(j, r) c^{j-r} M_r,   M_0 = 1,

    and the last half drift's c_f gives path k the value
    sum_r C(k, r) c_f^{k-r} M_r.  With no lower level (N = 1) c = 0: no
    normal is drawn, every path reports e^{k(k-1)t/2}, and the standard
    error is exactly 0.  A conditional moment past a double (at N = 1, past
    k(k-1)t/2 = 709.78) is refused by an ``OverflowError`` that names k,
    levels and t, with no numpy warning before it.

    Each column of normals drives an antithetic pair of paths, one with
    increments +dB and one with -dB.  Every level, and so every M_j, is
    nondecreasing in every increment, so the two paths of a pair are
    negatively correlated and a path costs half a draw.  The mean and its
    standard error are ``chunks._paired_mean``'s, a pair being one unit (an
    odd count's last path, whose mirror is discarded, is a unit of its own).

    The recurrence runs on the distinct columns of draws: a column holds
    the levels - 1 normals of each step and drives one pair of paths.  Each
    pair draws its own column, but with no lower level every column is the
    same empty one, so N = 1 runs a single column as one chunk and gives
    its values to every pair before the mean.  The columns run in equal
    chunks, six of them or a multiple of six, each within the buffer budget
    below, so one, two or three workers are evenly loaded.
    Each chunk has its own two SFC64 generators, the sum stream and the
    difference stream, spawned from the seed sequence (seed, first path), so
    the chunk rule must not, and does not, read the worker count.  Each pair
    of fine steps (2j, 2j+1) takes a sum S_j from the first stream and a
    difference D_j from the second, and its increments are
    (S_j + D_j)/sqrt(2) and (S_j - D_j)/sqrt(2) times sqrt(t/steps); with an
    odd step count the last step stands alone and takes sqrt(t/steps) S
    only.  Each generator fills a buffer for a block of whole step pairs at
    a time in (pair, lower level, path) order, so a run draws exactly the
    normals, in the same order, that one (levels - 1, pairs) draw per pair
    and stream would, whatever the block size.  A fine run draws
    steps * (levels - 1) * pairs normals: ceil(steps/2) rows from the sum
    stream, floor(steps/2) from the difference stream.

    A block of b steps keeps its +- multipliers in (2, b + 1, levels - 1,
    pairs) slots, the + paths then the - paths, after the lower levels at
    the block's start; step i writes its lower levels over its own
    multipliers.  A block draws as many rows as it has - multipliers, so the
    draws land in the - half of the slots and the multipliers are written
    over them.  After the steps, one product gives every step's c, and the
    moments advance a block at a time: M_1 and, for j >= 2, the
    scaled sums u_j = M_j e^{-a_j k}, k the step's offset in its segment,
    take one add per step (the highest moment one reduction over the block,
    which numpy adds in the same order), and each P_j is one product over
    the whole block.  A segment is at most ``_SEGMENT`` steps long and at
    most 64/a_K, so no scale factor leaves [e^-64, e^64] and the factor
    tables stay small for any step count; at its end u_j is scaled back to
    M_j.  Segments start at fixed steps and every sum runs step by step, so
    neither the block length nor the worker count changes a bit of the
    result.  With no lower level the same steps run on the one empty
    column, c is 0, and the sums only grow by e^{a_j} a step.

    The chunks run at the same time on a thread pool, one worker per usable
    core (``taskset`` limits them) up to the chunk count; each writes its own
    rows of the result, so values and errors are bit-identical for any
    worker count.  The caller allocates one buffer per worker, and the
    buffers of all workers together take at most about ``_BUFFER_DOUBLES``
    doubles (at least one step pair's worth each), besides the factor tables
    of ``_moment_tables``, (K^2 + K + 6)/2 rows of at most ``_SEGMENT`` + 1
    doubles.

    ``coarsen`` = 2 runs steps/2 steps on the same paths: each coarse
    increment is the sum of its step pair's two fine increments,
    sqrt(2) S_j sqrt(t/steps), so the coarse-minus-fine gap is the time-step
    error alone, and the run draws only from the sum stream, half the
    normals of the fine run.  A ``coarsen`` other than 1 or 2 is refused.
    """
    _check_integer("max_moment", max_moment)
    if max_moment < 1:
        raise ValueError("max_moment must be >= 1")
    _check_integer("coarsen", coarsen)
    if coarsen not in (1, 2) or config.steps % coarsen:
        raise ValueError("coarsen must be 1 or 2 and divide steps")
    n, t, paths = config.levels, config.time, config.replicas
    lower = n - 1  # the drawn levels
    fine = config.steps
    coarse_steps = fine // coarsen
    h = t / fine * coarsen
    step_scale = math.sqrt(t / fine)  # a lone step's S
    pair_scale = math.sqrt(t / fine / 2.0)  # S and D of a step pair
    full, half = _drift_flow(n, h), _drift_flow(n, h / 2.0)
    # the lower levels' own flow, and the top row's lower part, which gives c
    full_lower, half_lower = full[:lower, :lower].copy(), half[:lower, :lower].copy()
    full_row, half_row = full[lower, :lower].copy(), half[lower, :lower].copy()
    pairs = (paths + 1) // 2
    # the distinct columns of draws, each driving a + and a - path: with no drawn level, one empty column
    columns = pairs if lower else 1
    vals = np.empty((2, columns, max_moment))  # E[top level^k | lower levels] of the + and the - paths
    # 6 = lcm(1, 2, 3): one, two or three workers get equal shares
    chunks = _equal_chunks(columns, 6, _BUFFER_DOUBLES // max(1, fine // 50) // (2 * n) + 1)
    chunk = len(chunks[0])
    workers = min(_usable_cores(), len(chunks))
    # per coarse step and pair: per lower level the +- multipliers, which the draws are written into; c, the
    # moment sums and, from k = 3, a Horner term, each for the + and the - path
    per_step = 2 * lower + 2 * (1 + max_moment + (max_moment > 2))
    # the chunks in flight share one budget: each worker's buffers take 1/workers of it
    unit = 2 // coarsen  # coarse steps per step pair: a block holds whole step pairs
    block = min(coarse_steps, unit * max(1, _BUFFER_DOUBLES // workers // (per_step * chunk) // unit))
    shapes = (
        (2, block + 1, lower),  # the lower levels before the block, then each step's +- multipliers and levels
        (2, lower),  # the drifted lower levels
        (block, 2),  # c of each step
        (max_moment, block + 1, 2),  # M_1 and the scaled sums of M_j, j >= 2, before each step and after the last
        (block * (max_moment > 2), 2),  # a Horner term
        (3, 2),  # the last half drift's c, and the Horner value and term of the reported moments
    )
    sizes = [math.prod(shape) * chunk for shape in shapes]
    buffer_sets = [(np.empty(sum(sizes)),) for _ in range(workers)]

    def run_chunk(rows: range, buf) -> None:
        c = len(rows)
        sum_rng, diff_rng = _stream_pair(config.seed, 2 * rows.start)
        views, start = [], 0
        for shape, size in zip(shapes, sizes):
            views.append(buf[start : start + size][: math.prod(shape) * c].reshape(*shape, c))
            start += size
        slots, drifted, cs, sums, term, (c_f, out, out_term) = views

        def multipliers(mult) -> None:
            """exp(g - h/2) and exp(-g - h/2), g a coarse step's increment, for the block's coarse steps."""
            plus, draws = mult  # the draws land in the - multipliers
            if coarsen == 2:  # a step pair's two increments sum to sqrt(2) S sqrt(t/steps)
                sum_rng.standard_normal(out=draws)
                np.multiply(draws, 2.0 * pair_scale, out=plus)
                plus -= h / 2.0
            else:
                both = len(draws) // 2  # step pairs; the last block of an odd step count ends on a lone step
                d, s = draws[:both], draws[both:]  # D before S, so that one multiply scales both
                sum_rng.standard_normal(out=s)
                diff_rng.standard_normal(out=d)
                draws[: 2 * both] *= pair_scale
                s[:both] -= h / 2.0  # the fine increments less their h/2
                np.add(s[:both], d, out=plus[0 : 2 * both : 2])
                np.subtract(s[:both], d, out=plus[1 : 2 * both : 2])
                if len(draws) % 2:  # the lone last step takes S only
                    np.multiply(s[both], step_scale, out=plus[-1])
                    plus[-1] -= h / 2.0
            np.subtract(-h, plus, out=draws)
            np.exp(mult, out=mult)

        slots[:, 0] = 0.0
        slots[:, 0, :1] = 1.0  # Zt_1(0) = 1, where level 1 is drawn
        sums[:, 0] = float(lower == 0)  # M_j(0) = Zt_N(0)^j = 1{N = 1}
        flow = half_lower
        done = 0  # coarse steps before the block
        while done < coarse_steps:
            b = min(coarse_steps - done, block)
            multipliers(slots[:, 1 : b + 1])
            for i in range(b):  # step i's levels overwrite its multipliers
                src = slots[:, i]
                if lower > 1:  # level 1 takes no drift, so below N = 3 the lower flow is the identity
                    np.matmul(flow, src, out=drifted)
                    src = drifted
                np.multiply(src, slots[:, i + 1], out=slots[:, i + 1])
                flow = full_lower
            _row_product(full_row, slots[:, :b], cs[:b].transpose(1, 0, 2))
            if not done:  # the run's first step drifts by half a step
                _row_product(half_row, slots[:, 0], cs[0])
            slots[:, 0] = slots[:, b]
            _advance_moments(sums[:, : b + 1], cs[:b], term, done, segment, weights, coefs, scales)
            sums[:, 0] = sums[:, b]
            done += b
        _row_product(half_row, slots[:, 0], c_f)
        moments = sums[:, 0]
        for j in range(2, max_moment + 1):
            moments[j - 1] *= scales[j][coarse_steps % segment]
        for k in range(1, max_moment + 1):
            vals[:, rows.start : rows.stop, k - 1] = _shifted_moment(k, moments, c_f, out, out_term)

    with np.errstate(over="ignore", invalid="ignore"):  # a moment past a double is refused below, by name
        segment, scales, weights, coefs = _moment_tables(max_moment, h, coarse_steps)
        _run_chunks(run_chunk, chunks, buffer_sets)
    finite = np.isfinite(vals).all(axis=(0, 1))
    if not finite.all():
        k = int(np.argmin(finite)) + 1
        raise OverflowError(f"E[Zt^{k}] overflows a double at levels={n}, t={t}")
    vals = np.broadcast_to(vals, (2, pairs, max_moment))  # a row per pair: at N = 1 every pair's is the one column's
    return PolymerMoments(*_paired_mean(vals[0], vals[1, : paths - pairs]), config)


def _moment_tables(max_moment: int, h: float, steps: int):
    """The segment length and, per j, the tables of the scaled moment sums.

    M_j = e^{a_j k} u_j at offset k of a segment, a_j = j(j-1)h/2, so a step
    adds e^{-a_j k} P to u_j.  A segment is at most _SEGMENT steps long and
    at most 64/a_K, so no factor leaves [e^-64, e^64]; at its end u_j is
    multiplied back to M_j.  coefs[j][r][k] = C(j, r) e^{a_r k}, 2 <= r < j,
    turns u_r into the C(j, r) M_r of the Horner sum (M_1 = u_1 needs none).
    """
    rates = [j * (j - 1) * h / 2.0 for j in range(max_moment + 1)]
    longest = _SEGMENT if rates[-1] * _SEGMENT <= 64.0 else max(1, int(64.0 / rates[-1]))
    segment = min(steps, longest)
    offsets = np.arange(segment + 1)
    scales = [np.exp(rate * offsets) for rate in rates]
    weights = [np.exp(-rate * offsets) for rate in rates]
    coefs = [{r: math.comb(j, r) * scales[r] for r in range(2, j)} for j in range(max_moment + 1)]
    return segment, scales, weights, coefs


def _row_product(row: np.ndarray, levels: np.ndarray, out: np.ndarray) -> None:
    """row @ levels over their level axis: c, the lower levels' share of the top level's drift."""
    if len(row) == 1:  # matmul's one-term product runs a slow loop
        np.multiply(levels[..., 0, :], row[0], out=out)
    else:
        np.matmul(row, levels, out=out)


def _advance_moments(sums, cs, term, done, segment, weights, coefs, scales) -> None:
    """Carry M_1 and the scaled sums u_j over a block of steps, from sums[:, 0] to sums[:, -1].

    Step i adds c_i to M_1 and e^{-a_j k} P_j(i) to u_j, where k is the
    step's offset in its segment and P_j(i) = sum_{r<j} C(j, r) c_i^{j-r} M_r
    (Horner's rule in c_i), so M_j' = e^{a_j} (M_j + P_j).  The P_j of a
    block are whole-block products; the sums add them one step after the
    other (one add a step, and for the highest u_j, j >= 2, one reduction
    over the step axis, which numpy adds in order), so the block length does
    not change a bit of them.  M_1 = u_1 (a_1 = 0) takes its adds first,
    because every P_j reads it.
    sums[j - 1, m] holds the sum before the block's step m where a higher
    moment needs it, and the last row always ends as the sum after the block.
    """
    max_moment, b = sums.shape[0], sums.shape[1] - 1
    for m in range(b):
        np.add(sums[0, m], cs[m], out=sums[0, m + 1])
    m0 = 0
    while m0 < b:  # pieces of the block within one segment
        k0 = (done + m0) % segment
        m1 = min(b, m0 + segment - k0)
        k1 = k0 + m1 - m0
        for j in range(2, max_moment + 1):
            run = sums[j - 1, m0 : m1 + 1]
            c, p = cs[m0:m1], run[1:]
            # c + j M_1 = (j - 1) M_1 + M_1', M_1' = M_1 + c the sum after the step
            np.multiply(sums[0, m0:m1], j - 1, out=p)
            p += sums[0, m0 + 1 : m1 + 1]
            for r in range(2, j):
                p *= c
                np.multiply(sums[r - 1, m0:m1], coefs[j][r][k0:k1, None, None], out=term[m0:m1])
                p += term[m0:m1]
            p *= c
            p *= weights[j][k0:k1, None, None]
            # the sums before each step, for the higher moments; the highest needs only its last, and one
            # reduction in place of the adds makes a K = 2 call about 8% faster at N = 1 and N = 3
            if j < max_moment:
                for m in range(m1 - m0):
                    run[m + 1] += run[m]
            else:
                np.add.reduce(run, axis=0, out=run[-1])
            if k1 == segment:  # back to M_j, which starts the next segment
                run[-1] *= scales[j][segment]
        m0 = m1


def _shifted_moment(j: int, moments: np.ndarray, c: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """E[(c + Y)^j] = sum_r C(j, r) c^{j-r} M_r into out, from M_r = moments[r - 1] = E[Y^r] and M_0 = 1.

    Horner's rule in c: (((c + j M_1) c + C(j, 2) M_2) c + ...) c + M_j.
    """
    np.multiply(moments[0], j, out=out)
    out += c
    for r in range(2, j + 1):
        out *= c
        if r < j:
            np.multiply(moments[r - 1], math.comb(j, r), out=tmp)
            out += tmp
        else:
            out += moments[j - 1]
    return out


def _drift_flow(levels: int, h: float) -> np.ndarray:
    # exp(hD) for the drift dZt_l = Zt_{l-1} dt: entry (l, l - j) is h^j/j!
    flow = np.zeros((levels, levels))
    for j in range(levels):
        flow[np.arange(j, levels), np.arange(levels - j)] = h**j / math.factorial(j)
    return flow


def _default_radii(k: int, levels: int, t: float) -> np.ndarray:
    # decreasing radii with gaps > 1 so the z_A contour encloses z_B + 1 for A < B;
    # centered near the saddle radius (N-1)/t of e^{tz} z^{-N} to avoid cancellation;
    # k = 1 has no pair factor, so for N >= 2 its one circle sits on the saddle itself
    if k == 1 and levels > 1:
        return np.array([(levels - 1) / t])
    saddle = max((levels - 1) / t, 0.4)
    base = max(0.4, saddle - 0.7 * (k - 1))
    return base + 1.4 * np.arange(k - 1, -1, -1)


def polymer_moment_contour(k: int, levels: int, t: float, nodes: int = 256) -> float:
    """E[Zt(t, N)^k] by nested circle contours.

    Trapezoid quadrature in the angle is spectrally accurate for the analytic
    periodic integrand; the pairwise factor prod_{A<B} (z_A - z_B)/(z_A - z_B - 1)
    is pole-free on the circles of _default_radii, 1.4 apart.  Raises
    FloatingPointError when the weights e^{tz} overflow and the sum is not
    finite (large t).
    """
    if not 1 <= k <= 3:
        raise ValueError("moment order k must be >= 1" if k < 1 else "contour moments support k <= 3")
    _check_levels(levels)
    if not (math.isfinite(t) and t > 0):
        raise ValueError("t must be positive and finite")
    if not (isinstance(nodes, numbers.Integral) and nodes >= 1):
        raise ValueError(f"nodes must be a positive integer, got {nodes!r}")
    theta = 2.0 * math.pi * np.arange(nodes) / nodes
    rings = [r * np.exp(1j * theta) for r in _default_radii(k, levels, t)]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # an overflow is refused below
        # dz/(2 pi i) = z dtheta/(2 pi) on a circle, absorbed into per-axis weights
        wts = [np.exp(t * z) * z ** (1 - levels) / nodes for z in rings]
        val = complex(pairwise_tensor_sum(wts, contour_cross(rings)))
    if not np.isfinite(val):
        raise FloatingPointError(f"polymer contour overflowed at t={t:g}, levels={levels}")
    if abs(val.imag) > 1e-9 * max(1.0, abs(val.real)):
        raise RuntimeError(f"contour moment has spurious imaginary part {val.imag:.3e}")
    return float(val.real)


def polymer_second_moment_exact(levels: int, t: float) -> float:
    """E[Zt(t, N)^2] by the Taylor series of the second-moment hierarchy, whose terms are all >= 0.

    Ito on the hierarchy gives m_ij = E[Zt_i Zt_j] the system m_ij' =
    m_{i-1,j} + m_{i,j-1} + delta_ij m_ij, m_0j = m_i0 = 0, m(0) = e_1 e_1^T (the
    semi-discrete delta Bose gas at k = 2; Borodin & Corwin 2014, section 5),
    whose generator is >= 0: no term t^p/p! A^p m(0) cancels.  Term p reaches
    (N, N) by 2(N - 1) shifts and p - 2(N - 1) loops, a loop scaling it by at
    most t/loops as in Poisson(t), so the sum stops t + 12 sqrt(t + 1) + 40
    loops on, where that Poisson tail is far below rounding.  m_11 = e^t takes
    the same products, so the value is math.exp(t) times the ratio of the sums
    of m_NN and m_11, and N = 1 gives exp(t).  Raises OverflowError where the
    value exceeds a double (past t = 709.78, as math.exp does: it is larger).
    """
    _check_levels(levels)
    if not (math.isfinite(t) and t >= 0):
        raise ValueError("t must be non-negative and finite")
    n = levels
    e_t = math.exp(t)  # raises OverflowError past t = 709.78, before a loop of t terms
    terms = np.zeros((2, n + 1, n + 1))  # m of terms p - 1 and p, in turn; row and column 0 stay 0
    terms[0, 1, 1] = 1.0
    diagonals = [m.reshape(-1)[n + 2 :: n + 2] for m in terms]  # m_ii, i >= 1
    total, norm = float(n == 1), 1.0  # the sums of m_NN and m_11
    with np.errstate(over="ignore"):  # an overflowed total is refused below
        for p in range(1, 2 * (n - 1) + math.ceil(t + 12.0 * math.sqrt(t + 1.0) + 40.0) + 1):
            cur, nxt = terms[(p - 1) % 2], terms[p % 2]
            cur *= t / p  # before the sums, so no entry exceeds a term of the series
            np.add(cur[:-1, 1:], cur[1:, :-1], out=nxt[1:, 1:])
            diagonals[p % 2] += diagonals[(p - 1) % 2]
            total += nxt.item(n, n)
            norm += nxt.item(1, 1)
    value = e_t * (total / norm)
    if not math.isfinite(value):
        raise OverflowError(f"E[Zt^2] overflows a double at levels={levels}, t={t}")
    return value


def scaling_constant(levels: int, T: float, X: float = 0.0) -> float:
    """log C(N, T, X), which links the polymer's moments at t = sqrt(NT) + X > 0 to the heat equation's."""
    _check_levels(levels)
    n = levels
    if not (math.isfinite(T) and T > 0):
        raise ValueError("T must be positive and finite")
    t = math.sqrt(n * T) + X
    if not (math.isfinite(X) and t > 0):
        raise ValueError(f"X must be finite and exceed -sqrt(N T) = {-math.sqrt(n * T):g} at N = {n}, got X = {X:g}")
    return n + t / 2.0 + X * math.sqrt(n / T) + 0.5 * n * math.log(T / n)


@dataclass(frozen=True)
class DisorderLimit:
    value: float  # normalized moment at the largest N
    extrapolated: float  # Richardson limit assuming 1/N error decay
    levels: tuple[int, ...]
    raw: tuple[float, ...]


def intermediate_disorder_limit(
    k: int, T: float, X: float = 0.0, levels: tuple[int, ...] = (8, 16)
) -> DisorderLimit:
    """Normalized polymer moments e^{kt/2} E[Zt^k] / C^k at t = sqrt(NT) + X.

    Converges to E[Z(T, X)^k] of the heat equation at rate 1/N for X = 0
    (the k = 1 case has exactly the Stirling error e^{-1/(12N)}) but only
    1/sqrt(N) for X != 0, where the normalization constant leaves an
    uncancelled X/sqrt(NT) term in the exponent.  The Richardson step cancels
    the leading term at the appropriate rate using the two largest N values.
    """
    if len(levels) < 2 or any(b <= a for a, b in zip(levels, levels[1:])):
        raise ValueError("levels must be strictly increasing with at least two entries")
    raw = []
    for n in levels:
        log_c = scaling_constant(n, T, X)  # refuses a bad T, and an X with t <= 0 (first at the smallest N), by name
        t = math.sqrt(n * T) + X
        mom = polymer_moment_contour(k, n, t)
        log_ratio = math.log(mom) + k * t / 2.0 - k * log_c
        raw.append(math.exp(log_ratio))
    n1, n2 = levels[-2], levels[-1]
    v1, v2 = raw[-2], raw[-1]
    rate = 1.0 if X == 0.0 else 0.5
    extrapolated = v2 + (v2 - v1) / ((n2 / n1) ** rate - 1.0)
    return DisorderLimit(raw[-1], extrapolated, tuple(levels), tuple(raw))
