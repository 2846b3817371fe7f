"""Tensor-product Gauss-Legendre rules on boxes, with a doubled-order estimate.

Two rules live here.  The single-box rule (order 32, doubled to 64 for the
error estimate) integrates smooth geometric pairings.  The composite rule
splits each axis into panels of a requested width and is what the mollifier
oracle uses to resolve tubes whose cross section is a width-eps Gaussian; a
fixed-order global rule cannot see those.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .errors import QuadratureNotConverged, UnboundedDomain

DEFAULT_ORDER = 32
DEFAULT_REL_TOL = 1e-8
DEFAULT_ABS_TOL = 1e-12

MAX_PANELS_PER_AXIS = 400
EVAL_CHUNK = 200_000


@dataclass(frozen=True)
class QuadratureOptions:
    order: int = DEFAULT_ORDER
    rel_tol: float = DEFAULT_REL_TOL
    abs_tol: float = DEFAULT_ABS_TOL


def as_box(box) -> np.ndarray:
    """Validate a (k, 2) array of [lo, hi] bounds: not None, finite, lo <= hi."""
    if box is None:
        raise UnboundedDomain("no bounded box to sample or integrate over")
    b = np.asarray(box, dtype=float)
    if b.ndim == 1 and b.shape[0] == 2:
        b = b[None, :]
    if b.ndim != 2 or b.shape[1] != 2:
        raise ValueError(f"expected a (k, 2) bounds array, got shape {b.shape}")
    if not np.all(np.isfinite(b)):
        raise UnboundedDomain("integration box has non-finite bounds")
    if np.any(b[:, 0] > b[:, 1]):
        raise ValueError("box has lo > hi")
    return b


def intersect_boxes(a, b) -> np.ndarray | None:
    """Intersection of two boxes, or None when empty.  None inputs pass through."""
    if a is None:
        return None if b is None else as_box(b)
    if b is None:
        return as_box(a)
    a, b = as_box(a), as_box(b)
    lo = np.maximum(a[:, 0], b[:, 0])
    hi = np.minimum(a[:, 1], b[:, 1])
    if np.any(lo > hi):
        return None
    return np.stack([lo, hi], axis=1)


@lru_cache(maxsize=None)
def _leggauss(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def _axis_nodes(lo: float, hi: float, order: int):
    x, w = _leggauss(order)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return mid + half * x, half * w


def tensor_rule(box, order: int):
    """Points (N, k) and weights (N,) for one Gauss-Legendre box rule."""
    b = as_box(box)
    k = b.shape[0]
    if k == 0:
        return np.zeros((1, 0)), np.ones(1)
    _check_budget(order ** k, f"a {k}-D order-{order} rule")
    return _tensorize([_axis_nodes(lo, hi, order) for lo, hi in b])


def composite_rule(box, panel_width, order: int = 12):
    """Composite rule with panels roughly ``panel_width`` wide.

    ``panel_width`` is a scalar or a per-axis array; tube integrands are thin
    only across their core, so per-axis widths keep the node count sane.
    """
    b = as_box(box)
    k = b.shape[0]
    if k == 0:
        return np.zeros((1, 0)), np.ones(1)
    widths = np.broadcast_to(np.asarray(panel_width, dtype=float), (k,))
    if np.any(widths <= 0.0):
        raise ValueError("panel width must be positive")
    panels = [min(MAX_PANELS_PER_AXIS, max(1, int(np.ceil((hi - lo) / pw))))
              for (lo, hi), pw in zip(b, widths)]
    _check_budget(math.prod(panels) * order ** k, f"a {k}-D composite rule")
    axes = []
    for (lo, hi), m in zip(b, panels):
        edges = np.linspace(lo, hi, m + 1)[:, None]
        # a (panels, order) block: raveled, the panels follow one another
        x, w = _axis_nodes(edges[:-1], edges[1:], order)
        axes.append((x.ravel(), w.ravel()))
    return _tensorize(axes)


def _tensorize(axes):
    # each axis is written straight into the (N, k) result, and the weights
    # are the outer product ((w0 w1) w2)..., so nothing grid-sized is built
    # besides the two returned arrays
    shape = tuple(len(x) for x, _ in axes)
    k = len(shape)
    points = np.empty((*shape, k))
    for i, (x, _) in enumerate(axes):
        points[..., i] = x.reshape((-1,) + (1,) * (k - 1 - i))
    weights = reduce(np.multiply.outer, [w for _, w in axes]).ravel()
    return points.reshape(-1, k), weights


def weighted_sum(f_many, points: np.ndarray, weights: np.ndarray) -> complex:
    """sum_i w_i f(p_i), evaluating f in chunks to bound peak memory."""
    total = 0.0 + 0.0j
    for start in range(0, points.shape[0], EVAL_CHUNK):
        sl = slice(start, start + EVAL_CHUNK)
        total += complex(np.sum(np.asarray(f_many(points[sl])) * weights[sl]))
    return total


MAX_ORDER = 512
# Largest grid a rule may build: 1.07 GB of 3-D points and weights.  A 3-D
# order-256 or 4-D order-64 level (16.8 M nodes) fits; the 134 M-node 3-D
# order-512 level (4.3 GB) does not.
MAX_NODES = 1 << 25


def _check_budget(nodes: int, what: str) -> None:
    if nodes > MAX_NODES:
        raise QuadratureNotConverged(
            f"{what} needs {nodes:,} nodes, over the node budget of {MAX_NODES:,}")


def integrate(f_many, box, options: QuadratureOptions | None = None):
    """Integrate over a box; returns (value, error_estimate).

    The value comes from a doubled-order rule and the estimate is the
    difference against the previous order.  Orders keep doubling from the
    base until the estimate meets tolerance or MAX_ORDER is reached;
    enforcement of the final estimate is the caller's decision, see
    ``ensure_converged``.  A level whose grid would pass MAX_NODES raises
    QuadratureNotConverged instead of being built.
    """
    opts = options or QuadratureOptions()
    b = as_box(box)
    order = opts.order
    p, w = tensor_rule(b, order)
    value = weighted_sum(f_many, p, w)
    while True:
        order *= 2
        p, w = tensor_rule(b, order)
        refined = weighted_sum(f_many, p, w)
        estimate = abs(refined - value)
        value = refined
        if estimate <= opts.rel_tol * abs(value) + opts.abs_tol or order >= MAX_ORDER:
            return value, estimate


def ensure_converged(value: complex, estimate: float,
                     options: QuadratureOptions | None = None) -> None:
    opts = options or QuadratureOptions()
    # written so that a NaN estimate or tolerance fails the check
    if not estimate <= opts.rel_tol * abs(value) + opts.abs_tol:
        raise QuadratureNotConverged(
            f"quadrature estimate {estimate:.3g} exceeds tolerance for value "
            f"{abs(value):.6g}")
