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


def contour_cross(zs: Sequence[np.ndarray]) -> Callable[[int, int], np.ndarray]:
    """The pair factor of the nested-contour integrand on the nodes zs[a] of each axis, for pairwise_tensor_sum.

    pair(a, b) is the matrix (z_a - z_b) / (z_a - z_b - 1) over the nodes of axes a and b.
    """

    def pair(a: int, b: int) -> np.ndarray:
        d = zs[a][:, None] - zs[b][None, :]
        return d / (d - 1.0)

    return pair


def pairwise_tensor_sum(ws: Sequence[np.ndarray], pair: Callable[[int, int], np.ndarray]):
    """sum over the tensor grid of prod_a ws[a] prod_{a<b} pair(a, b), for k = len(ws) <= 4 axes.

    ws[a] are the weights of the nodes of axis a; pair(a, b), for a < b,
    returns the matrix of the pair factor between the nodes of axes a (rows)
    and b (columns).  The grid is summed by matrix products; no
    k-dimensional array is built.  At k = 4 each node of axis 0 folds its
    pair factors into the weights of a k = 3 sum, so the work is N^4 and the
    memory N^2.  Returns a numpy scalar of the weights' dtype.
    """
    k = len(ws)
    if not 1 <= k <= 4:
        raise ValueError("pairwise_tensor_sum needs 1 to 4 axes")
    if k == 4:
        p12, p13, p23 = pair(1, 2), pair(1, 3), pair(2, 3)
        u1, u2, u3 = (ws[a] * pair(0, a) for a in (1, 2, 3))
        return sum(w0 * np.sum(u1[i][:, None] * p13 * ((p12 * u2[i]) @ (p23 * u3[i]))) for i, w0 in enumerate(ws[0]))
    if k == 1:
        return np.sum(ws[0])
    p01 = pair(0, 1)
    if k == 2:
        return ws[0] @ p01 @ ws[1]
    return np.sum(ws[0][:, None] * pair(0, 2) * ((p01 * ws[1]) @ (pair(1, 2) * ws[2])))


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

    def pair(a: int, b: int) -> np.ndarray:
        return _cauchy_ratio(ys[a][:, None], ys[b][None, :], parts[a], parts[b])

    return float(pairwise_tensor_sum([weights / s for s in scales], pair)) / float(np.prod(parts))
