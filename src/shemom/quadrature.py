"""Truncation of vertical lines, cached Gauss rules, the pairwise tensor sum and the Cauchy-determinant kernel.

pairwise_tensor_sum sums prod_a w_a prod_{a<b} P_ab over a tensor grid of
k <= 4 axes by matrix products.  The two contour routes give it the pair
factor contour_cross, gauss_hermite_cauchy the pair ratios of the Cauchy
determinant, which cauchy_pair_det evaluates on the Monte Carlo R's samples.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np


def default_halfwidth(decay_rate: float, tol: float = 1e-12) -> float:
    """Truncation halfwidth for integrands with envelope exp(-decay_rate * y^2 / 2)."""
    if decay_rate <= 0:
        raise ValueError("decay_rate must be positive")
    return math.sqrt(2.0 * math.log(1.0 / tol) / decay_rate) + 3.0


@lru_cache(maxsize=64)
def _rule(family, order: int) -> tuple[np.ndarray, np.ndarray]:
    """The nodes and weights of one Gauss rule, built once per order and shared read-only."""
    nodes, weights = family(order)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def gauss_legendre_panels(a: float, b: float, panel_width: float, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes/weights on [a, b] with panels of roughly panel_width."""
    if b <= a:
        raise ValueError("need b > a")
    npanels = max(1, int(math.ceil((b - a) / panel_width)))
    x0, w0 = _rule(np.polynomial.legendre.leggauss, order)
    edges = np.linspace(a, b, npanels + 1)
    mids = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mids[:, None] + half[:, None] * x0[None, :]).ravel()
    weights = (half[:, None] * w0[None, :]).ravel()
    return nodes, weights


def check_nested(positions, k: int, name: str) -> np.ndarray:
    """Check for k contour positions, each exceeding the next by more than 1; return them as floats.

    On such contours the pair factor of the nested-contour integrand has no pole.
    """
    p = np.asarray(positions, dtype=float)
    if p.shape != (k,) or not np.all(p[:-1] - p[1:] > 1.0):
        raise ValueError(f"need {k} {name} decreasing by more than 1, got {np.atleast_1d(p).tolist()}")
    return p


def contour_cross(zs: Sequence[np.ndarray]) -> Callable[[int, int, slice], np.ndarray]:
    """The pair factor of the nested-contour integrand on the nodes zs[a] of each axis, for pairwise_tensor_sum.

    pair(a, b, rows) is the matrix (z_a - z_b) / (z_a - z_b - 1) over the
    nodes zs[a][rows] of axis a and all nodes of axis b.
    """

    def pair(a: int, b: int, rows: slice) -> np.ndarray:
        d = zs[a][rows, None] - zs[b][None, :]
        return np.divide(d, d - 1.0, out=d)

    return pair


# most elements in one temporary of a block: 512 KB of complex, so a block's few temporaries stay in a
# core's L2 cache; chosen by timing every caller at budgets of 8192 to 65536 (CHANGES.md)
_BLOCK_ELEMENTS = 32768


def _row_blocks(rows: int, per_row: int):
    """Slices of range(rows), each of as many rows as fit per_row elements a row into _BLOCK_ELEMENTS, at least one."""
    step = max(1, _BLOCK_ELEMENTS // per_row)
    return (slice(i, i + step) for i in range(0, rows, step))


def _pair_matrix(pair, a: int, b: int, n: Sequence[int], w=1.0) -> np.ndarray:
    """pair(a, b) over every node of axis a, times the weights w of axis b, filled one block of rows at a time."""
    out = None
    for r in _row_blocks(n[a], n[b]):
        block = pair(a, b, r)
        if out is None:
            out = np.empty((n[a], n[b]), np.result_type(block, w))
        np.multiply(block, w, out=out[r])
    return out


def pairwise_tensor_sum(ws: Sequence[np.ndarray], pair: Callable[[int, int, slice], np.ndarray]):
    """sum over the tensor grid of prod_a ws[a] prod_{a<b} pair(a, b), for k = len(ws) <= 4 axes.

    ws[a] are the weights of the nodes of axis a; pair(a, b, rows), for a < b,
    returns the matrix of the pair factor between the nodes ws[a][rows] of
    axis a (rows) and all nodes of axis b (columns).  The grid is summed by
    matrix products, one block of axis-0 nodes at a time, against the whole
    pair matrices of the later axes; no k-dimensional array and no N x N pair
    matrix of axis 0 is built.  A block holds as many nodes as keep each of
    its temporaries within _BLOCK_ELEMENTS (N elements a node at k = 2 and 3,
    N^2 at k = 4), and at least one, so they stay in cache; the matrices of
    the later axes are filled a block of rows at a time too.  At k = 4 the
    nodes i of a block share one matrix product, x_i = p12 diag(u2_i) p23
    with u_a = ws[a] pair(0, a), and node i adds ws[0]_i u1_i^T (p13 * x_i) u3_i:
    the work is N^4, the memory six N x N matrices and the block's
    temporaries.  Returns a numpy scalar of the weights' dtype.
    """
    k = len(ws)
    if not 1 <= k <= 4:
        raise ValueError("pairwise_tensor_sum needs 1 to 4 axes")
    if k == 1:
        return np.sum(ws[0])
    n = [len(w) for w in ws]
    if k == 2:
        return sum(ws[0][r] @ pair(0, 1, r) @ ws[1] for r in _row_blocks(n[0], n[1]))
    if k == 3:
        m12 = _pair_matrix(pair, 1, 2, n, ws[2])
        return sum(
            np.sum(ws[0][r, None] * pair(0, 2, r) * ((pair(0, 1, r) * ws[1]) @ m12))
            for r in _row_blocks(n[0], max(n[1], n[2]))
        )
    p12, p13, p23 = (_pair_matrix(pair, a, b, n) for a, b in ((1, 2), (1, 3), (2, 3)))
    u1, u2, u3 = (_pair_matrix(pair, 0, a, n, ws[a]) for a in (1, 2, 3))
    total = 0
    for r in _row_blocks(n[0], n[1] * max(n[2], n[3])):
        # x[i] = p12 diag(u2[i]) p23 for every node i of the block, in one matrix product
        x = ((p12 * u2[r, None, :]).reshape(-1, n[2]) @ p23).reshape(-1, n[1], n[3])
        x *= p13
        total += ws[0][r] @ (u1[r, None, :] @ x @ u3[r, :, None])[:, 0, 0]
    return total


def _cauchy_ratio(ya, yb, pa, pb, out=None, work=None):
    """(d^2 + ((pa - pb)/2)^2) / (d^2 + ((pa + pb)/2)^2) with d = ya - yb, into ``out`` with ``work`` if given."""
    d2 = np.square(np.subtract(ya, yb, out=out), out=out)
    den = np.add(d2, 0.25 * (pa + pb) ** 2, out=work)
    d2 += 0.25 * (pa - pb) ** 2
    d2 /= den
    return d2


def cauchy_pair_det(ys: Sequence[np.ndarray], parts, out=None, work=(None, None)) -> np.ndarray:
    """det[1/(a_i - b_j)] for a_i = i y_i + p_i/2, b_j = i y_j - p_j/2, in closed form.

    Cauchy's formula makes the determinant real and positive:
    prod_i 1/p_i * prod_{i<j} (d^2 + ((p_i - p_j)/2)^2) / (d^2 + ((p_i + p_j)/2)^2)
    with d = y_i - y_j.  The ys[i] broadcast against each other; the Monte
    Carlo R passes one row of samples per part.  A caller may pass ``out``
    for the result and ``work``, two arrays of the pair factors' shape, for
    the factors; given all three, the call allocates nothing.  The arithmetic
    is the closed form's, in its order, either way.
    """
    parts = np.asarray(parts, dtype=float)
    if out is None:
        out = np.empty(np.broadcast_shapes(*(np.shape(y) for y in ys)))
    out.fill(1.0 / float(np.prod(parts)))
    d2_buf, den_buf = work
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            out *= _cauchy_ratio(ys[i], ys[j], parts[i], parts[j], d2_buf, den_buf)
    return out


def gauss_hermite_cauchy(scales, parts, order: int) -> float:
    """int prod_j exp(-scales_j^2 y_j^2) cauchy_pair_det(y, parts) dy by tensor Gauss-Hermite.

    The cached order-point Hermite rule is scaled onto each axis, and
    pairwise_tensor_sum sums the grid with cauchy_pair_det's pair ratios as
    the pair factor; the constant prod_j 1/parts_j divides the sum.
    """
    if not 1 <= order <= 200:
        raise ValueError("Gauss-Hermite order must be in [1, 200]")
    nodes, weights = _rule(np.polynomial.hermite.hermgauss, order)
    parts = np.asarray(parts, dtype=float)
    ys = [nodes / s for s in scales]

    def pair(a: int, b: int, rows: slice) -> np.ndarray:
        return _cauchy_ratio(ys[a][rows, None], ys[b][None, :], parts[a], parts[b])

    return float(pairwise_tensor_sum([weights / s for s in scales], pair)) / float(np.prod(parts))
