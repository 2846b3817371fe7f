"""Tensor-product Gauss-Legendre rules on boxes, with a raised-order estimate.

Two rules live here.  The single-box rule (order 32, raised by sqrt 2 a level
for the error estimate) integrates smooth geometric pairings; ``integrate``
enforces the tolerance itself, so a value it returns has met it.  The
composite rule splits each axis into panels of a requested width and is what
the mollifier oracle uses to resolve tubes whose cross section is a width-eps
Gaussian; a fixed-order global rule cannot see those.  Both return a
``Grid`` of per-axis nodes, flattened only for an integrand that asks, so
expression fields evaluate each sub-expression on the axes it reads, and a
``Grid`` of per-axis weights, which ``weighted_sum`` contracts with each block
one axis at a time, factor by factor where the integrand returns a tuple of
factors: no rule builds a grid-sized array, and factors are never multiplied
out on a block.  The bounded-box rule lives here too: ``as_box`` and
``intersect_boxes`` raise UnboundedDomain where there is no box.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .errors import QuadratureNotConverged, UnboundedDomain

DEFAULT_ORDER = 32
DEFAULT_REL_TOL = 1e-8
ABS_TOL = 1e-12  # absolute floor of the tolerance, for values near zero

MAX_PANELS_PER_AXIS = 400
EVAL_CHUNK = 200_000


@dataclass(frozen=True)
class QuadratureOptions:
    order: int = DEFAULT_ORDER
    rel_tol: float = DEFAULT_REL_TOL


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
    """Intersection of two boxes, or None when it is empty.  A None input stands
    for no bound and passes the other box through; two raise UnboundedDomain."""
    if a is None or b is None:
        return as_box(b if a is None else a)
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


class Grid:
    """Tensor product of per-axis nodes (or weights): ``shape`` (N, k) as for the flat
    points, ``len`` N, ``dims`` the per-axis counts, ``columns()`` the open grid
    ``np.ix_(*axes)``; only ``points()`` builds the C-order (N, k) points, not ``np.asarray``."""

    def __init__(self, axes):
        self.axes = tuple(axes)
        self.dims = tuple(len(x) for x in self.axes)
        self.shape = (math.prod(self.dims), len(self.axes))

    def __len__(self) -> int:
        return self.shape[0]

    def columns(self) -> tuple[np.ndarray, ...]:
        return np.ix_(*self.axes)

    def points(self) -> np.ndarray:
        out = np.empty((*self.dims, len(self.axes)))
        for i, col in enumerate(self.columns()):
            out[..., i] = col
        return out.reshape(self.shape)


def tensor_rule(box, order: int):
    """Grid of nodes and Grid of per-axis weights for one Gauss-Legendre box rule."""
    b = as_box(box)
    k = b.shape[0]
    _check_budget(order ** k, f"a {k}-D order-{order} rule")
    axes = [_axis_nodes(lo, hi, order) for lo, hi in b]
    return Grid(x for x, _ in axes), Grid(w for _, w in axes)


def composite_rule(box, panel_width, order: int = 12):
    """Composite rule with panels roughly ``panel_width`` wide.

    ``panel_width`` is a scalar or a per-axis array; tube integrands are thin
    only across their core, so per-axis widths keep the node count sane.
    """
    b = as_box(box)
    k = b.shape[0]
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
    return Grid(x for x, _ in axes), Grid(w for _, w in axes)


def weighted_sum(f_many, grid: Grid, weights: Grid) -> complex:
    """sum_i w_i f(p_i), f run on blocks of whole first-axis rows (at most EVAL_CHUNK
    nodes, one row at least); f takes a block's Grid and returns its values in its dims
    or flat, or a tuple of factors that broadcast to its dims.  A block meets the weights
    one axis at a time, last first: the factors of full length along the axis multiply
    and meet its weights by ``@``, the others keep their index-0 slice, and if none is of
    full length the axis gives ``w.sum()``; one array runs exactly
    ``reduce(np.matmul, reversed(w), values)``."""
    row = math.prod(grid.dims[1:])  # nodes per first-axis row
    step = max(1, EVAL_CHUNK // row)
    total = 0.0 + 0.0j
    for start in range(0, grid.shape[0] // row, step):
        block = Grid([x[start:start + step] for x in grid.axes[:1]] + list(grid.axes[1:]))
        w = [x[start:start + step] for x in weights.axes[:1]] + list(weights.axes[1:])
        total += _contract(f_many(block), block.dims, w)
    return total


def _contract(values, dims, w) -> complex:
    factors = ([np.reshape(f, (1,) * (len(dims) - np.ndim(f)) + np.shape(f)) for f in values]
               if isinstance(values, tuple) else [np.reshape(values, dims)])
    for axis in reversed(range(len(dims))):
        varying = [f for f in factors if f.shape[axis] == dims[axis]]
        factors = [f[..., 0] for f in factors if f.shape[axis] != dims[axis]]
        factors.append(reduce(np.multiply, varying) @ w[axis] if varying
                       else np.reshape(w[axis].sum(), (1,) * axis))
    return complex(reduce(np.multiply, factors))


MAX_ORDER = 512
# Largest grid a rule may build; with nodes and weights per axis it bounds the
# integrand's evaluation time, not memory.  A 3-D order-256 or 4-D order-64
# level (16.8 M nodes) fits; the 47.4 M-node 3-D order-362 level does not.
MAX_NODES = 1 << 25


def _check_budget(nodes: int, what: str) -> None:
    if nodes > MAX_NODES:
        raise QuadratureNotConverged(
            f"{what} needs {nodes:,} nodes, over the node budget of {MAX_NODES:,}")


def integrate(f_many, box, options: QuadratureOptions | None = None):
    """Integrate over a box; returns (value, error_estimate) once they meet tolerance.

    Level j uses order round(base * 2^(j/2)) (32, 45, 64, 91, ...), one more
    than the last where rounding would repeat it (base 1).  The value is the
    last level's, the estimate its difference against the level before: an
    overestimate where Gauss-Legendre converges geometrically (integrands
    analytic on the box), while at an algebraic rate n^-p the error is about
    1 / (2^(p/2) - 1) times the estimate.  Levels climb until the estimate is
    at most rel_tol |value| + ABS_TOL; at MAX_ORDER, or on a NaN estimate or
    tolerance, which never meet it, QuadratureNotConverged is raised.  So is
    it where a level's grid would pass MAX_NODES, before that grid is built.
    """
    opts = options or QuadratureOptions()
    b = as_box(box)
    order = opts.order
    grid, w = tensor_rule(b, order)
    value = weighted_sum(f_many, grid, w)
    for level in itertools.count(1):
        order = max(order + 1, round(opts.order * 2 ** (level / 2)))
        grid, w = tensor_rule(b, order)
        refined = weighted_sum(f_many, grid, w)
        estimate = abs(refined - value)
        value = refined
        if estimate <= opts.rel_tol * abs(value) + ABS_TOL:
            return value, estimate
        if order >= MAX_ORDER:
            raise QuadratureNotConverged(
                f"quadrature estimate {estimate:.3g} exceeds tolerance for value "
                f"{abs(value):.6g}")
