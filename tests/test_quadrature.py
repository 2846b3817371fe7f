"""Tensor and composite Gauss-Legendre rules.

Reference masses come from closed forms (polynomial moments, erf).
"""
import itertools
import math
import tracemalloc
from functools import reduce

import numpy as np
import pytest

from geodens import quadrature
from geodens.density import AmbientDensity
from geodens.errors import InputError, InvalidBox, QuadratureNotConverged, UnboundedDomain
from geodens.geometry import Submanifold
from geodens.quadrature import (
    Grid,
    MAX_NODES,
    MAX_PANELS_PER_AXIS,
    QuadratureOptions,
    as_box,
    composite_rule,
    integrate,
    intersect_boxes,
    tensor_rule,
    weighted_sum,
)
from geodens.states import make_state, pair_with_test


def test_as_box_shapes():
    b = as_box([[-1.0, 2.0], [0.0, 3.0]])
    assert b.shape == (2, 2)
    assert as_box([-1.0, 2.0]).shape == (1, 2)


def test_as_box_rejects_unbounded():
    with pytest.raises(UnboundedDomain):
        as_box([[-np.inf, 0.0]])
    with pytest.raises(UnboundedDomain):
        as_box([[0.0, np.nan]])


@pytest.mark.parametrize("make, message", [
    (lambda: as_box([[0.0, 1.0, 2.0]]), r"^expected a \(k, 2\) bounds array, got shape \(1, 3\)$"),
    (lambda: as_box([[1.0, 0.0]]), r"^box has lo > hi$"),
    (lambda: composite_rule([[0.0, 1.0], [0.0, 1.0]], [0.5, 0.0]), r"^panel width must be positive$"),
], ids=["shape", "lo-over-hi", "panel-width"])
def test_a_malformed_box_fails_typed(make, message):
    # an input error (exit 2) that is still the ValueError it was
    with pytest.raises(InvalidBox, match=message) as info:
        make()
    assert isinstance(info.value, InputError) and isinstance(info.value, ValueError)
    assert info.value.exit_code == 2


def test_intersect_boxes():
    a = as_box([[-1.0, 1.0], [0.0, 4.0]])
    b = as_box([[0.0, 2.0], [1.0, 2.0]])
    got = intersect_boxes(a, b)
    assert np.allclose(got, [[0.0, 1.0], [1.0, 2.0]])
    assert intersect_boxes(a, None) is a
    assert intersect_boxes(None, b) is b
    assert intersect_boxes(a, as_box([[5.0, 6.0], [0.0, 1.0]])) is None
    # None is "no bound", so None is only ever returned for an empty box
    with pytest.raises(UnboundedDomain):
        intersect_boxes(None, None)


def node_weights(weights):
    """The node weights ((1 w0) w1)... in C order: the array the rules used to build."""
    return reduce(np.multiply.outer, weights.axes, np.ones(())).ravel()


def test_tensor_rule_polynomial_exactness():
    # order-q Gauss-Legendre is exact through degree 2q-1
    grid, wts = tensor_rule(as_box([[0.0, 1.0]]), 4)
    pts, wts = grid.points(), node_weights(wts)
    assert wts.sum() == pytest.approx(1.0, rel=1e-14)
    got = float(np.sum(wts * pts[:, 0] ** 7))
    assert got == pytest.approx(1.0 / 8.0, rel=1e-14)


def test_tensor_rule_2d():
    grid, wts = tensor_rule(as_box([[0.0, 1.0], [0.0, 2.0]]), 6)
    pts, wts = grid.points(), node_weights(wts)
    got = float(np.sum(wts * pts[:, 0] ** 3 * pts[:, 1] ** 2))
    # int x^3 dx * int y^2 dy = 1/4 * 8/3
    assert got == pytest.approx(2.0 / 3.0, rel=1e-13)


def test_tensor_rule_zero_dimensional():
    grid, wts = tensor_rule(np.zeros((0, 2)), 8)
    assert grid.shape == (1, 0) and grid.dims == () and wts.dims == () and len(wts) == 1
    assert grid.points().shape == (1, 0) and len(grid.columns()) == 0
    assert node_weights(wts).tolist() == [1.0]


def test_composite_rule_per_axis_widths():
    box = as_box([[0.0, 1.0], [0.0, 1.0]])
    grid, wts = composite_rule(box, np.array([0.5, 1.0]), order=4)
    # 2 panels x 1 panel of a 4-point rule per axis
    assert grid.shape == (32, 2) and grid.dims == (8, 4)
    assert node_weights(wts).sum() == pytest.approx(1.0, rel=1e-13)


@pytest.mark.parametrize("rule, args, dims", [
    (tensor_rule, ([[0.0, 1.0], [-2.0, 2.0], [1.0, 5.0]], 7), (7, 7, 7)),
    (composite_rule, ([[0.0, 1.0], [-2.0, 2.0], [1.0, 5.0]], [0.5, 1.0, 2.0], 5), (10, 20, 10)),
], ids=["tensor", "composite"])
def test_rule_weights_have_one_entry_per_node(rule, args, dims):
    # the benchmark's tracer reads len(weights) as the rule's node count
    grid, wts = rule(*args)
    assert grid.dims == wts.dims == dims
    assert len(wts) == len(grid) == grid.shape[0] == node_weights(wts).size == math.prod(dims)


# the grid construction the rules used to make, kept as the reference: a
# meshgrid, a stack of its raveled axes, and one broadcast copy of the
# weights per axis


def reference_tensorize(axes):
    if not axes:
        return np.zeros((1, 0)), np.ones(1)
    k = len(axes)
    grids = np.meshgrid(*[x for x, _ in axes], indexing="ij")
    points = np.stack([g.ravel() for g in grids], axis=1)
    weights = np.ones(points.shape[0])
    shape = [len(x) for x, _ in axes]
    for i, (_, w) in enumerate(axes):
        expand = np.ones(k, dtype=int)
        expand[i] = shape[i]
        weights = weights * np.broadcast_to(w.reshape(expand), shape).ravel()
    return points, weights


def reference_axis(lo, hi, order):
    x, w = np.polynomial.legendre.leggauss(order)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return mid + half * x, half * w


def reference_composite_axis(lo, hi, pw, order):
    panels = min(MAX_PANELS_PER_AXIS, max(1, int(np.ceil((hi - lo) / pw))))
    edges = np.linspace(lo, hi, panels + 1)
    xs, ws = [], []
    for i in range(panels):
        x, w = reference_axis(edges[i], edges[i + 1], order)
        xs.append(x)
        ws.append(w)
    return np.concatenate(xs), np.concatenate(ws)


BOX3 = as_box([[-1.0, 2.0], [0.5, 1.25], [-3.0, 0.0]])


def assert_same_rule(got, want):
    points, weights = got[0].points(), node_weights(got[1])
    assert got[0].shape == points.shape == want[0].shape and weights.shape == want[1].shape
    assert len(got[1]) == len(want[1])
    assert np.array_equal(points, want[0]) and np.array_equal(weights, want[1])


@pytest.mark.parametrize("order", [4, 32, 64])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_tensor_rule_matches_the_meshgrid_construction(k, order):
    box = BOX3[:k]
    want = reference_tensorize([reference_axis(lo, hi, order) for lo, hi in box])
    assert_same_rule(tensor_rule(box, order), want)


# composite orders stop at 32: three axes of 3 x 2 x 1 panels at order 64
# would build 1.6 M nodes twice
@pytest.mark.parametrize("order", [4, 12, 32])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_composite_rule_matches_the_per_panel_loop(k, order):
    box, widths = BOX3[:k], np.array([1.0, 0.4, 5.0])[:k]
    want = reference_tensorize([reference_composite_axis(lo, hi, pw, order)
                                for (lo, hi), pw in zip(box, widths)])
    assert_same_rule(composite_rule(box, widths, order), want)


def test_composite_rule_matches_the_loop_on_random_axes():
    rng = np.random.default_rng(7)
    for _ in range(50):
        lo = rng.uniform(-5.0, 5.0)
        hi = lo + rng.uniform(1e-3, 10.0)
        pw = rng.uniform(1e-2, 3.0)
        want = reference_tensorize([reference_composite_axis(lo, hi, pw, 12)])
        assert_same_rule(composite_rule([[lo, hi]], pw), want)


def test_weighted_sum_peaks_at_the_axes_and_one_block():
    tensor_rule(BOX3, 128)  # warm the node cache
    tracemalloc.start()
    try:
        grid, weights = tensor_rule(BOX3, 128)
        total = weighted_sum(lambda g: np.ones(g.dims), grid, weights)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert total == pytest.approx(math.prod(hi - lo for lo, hi in BOX3), rel=1e-13)
    # no grid-sized array: the nodes and weights per axis and one block of values,
    # 12 rows of 128 x 128 nodes (2.1 M nodes would take 16.8 MB)
    block = 8 * 12 * 128 * 128
    axes = sum(x.nbytes for x in grid.axes + weights.axes)
    assert peak <= 1.1 * (axes + block)


def test_composite_rule_resolves_a_narrow_gaussian():
    eps = 0.01
    box = as_box([[-0.5, 0.5]])
    grid, wts = composite_rule(box, eps, order=12)
    pts, wts = grid.points(), node_weights(wts)
    norm = 1.0 / math.sqrt(2.0 * math.pi * eps * eps)
    got = float(np.sum(wts * norm * np.exp(-pts[:, 0] ** 2 / (2 * eps * eps))))
    assert got == pytest.approx(1.0, rel=1e-12)


def test_weighted_sum_matches_direct_dot():
    grid, wts = tensor_rule(as_box([[0.0, 1.0]]), 8)
    f = lambda g: np.exp(g.points()[:, 0])
    got = weighted_sum(f, grid, wts)
    assert got == pytest.approx(float(np.sum(node_weights(wts) * f(grid))), rel=1e-15)


def test_grid_columns_broadcast_to_the_points():
    axes = [np.array([0.5, -1.0]), np.array([2.0, 3.0, 4.0]), np.array([7.0])]
    grid = Grid(axes)
    assert grid.shape == (6, 3) and grid.dims == (2, 3, 1)
    points = grid.points()
    assert np.array_equal(points, list(itertools.product(*axes)))
    for i, col in enumerate(grid.columns()):
        assert np.array_equal(np.broadcast_to(col, grid.dims).ravel(), points[:, i])
    # only points() flattens: an accidental np.asarray of a grid fails loudly
    with pytest.raises(TypeError):
        np.asarray(grid, dtype=float)


@pytest.mark.parametrize("chunk, dims", [
    (7, (40, 3)),      # two rows a block, the last one short
    (5, (3, 4, 2)),    # a row of 8 nodes is wider than a chunk: one row a block
    (100, (4, 5)),     # one block
    (3, (11,)),
])
def test_weighted_sum_blocks_match_a_flat_sum(monkeypatch, chunk, dims):
    monkeypatch.setattr(quadrature, "EVAL_CHUNK", chunk)
    rng = np.random.default_rng(sum(dims))
    grid = Grid([rng.uniform(-1.0, 1.0, n) for n in dims])
    weights = Grid([rng.uniform(0.0, 1.0, n) for n in dims])
    f = lambda p: np.exp(-np.sum(p ** 2, axis=1)) * (1.0 + 1j * p[:, 0])
    blocks = []

    def flat(block):
        blocks.append(block.dims)
        return f(block.points())

    want = np.sum(f(grid.points()) * node_weights(weights))
    got = weighted_sum(flat, grid, weights)
    assert abs(got - want) <= 1e-15 * abs(want)
    row = math.prod(dims[1:])
    assert all(b[1:] == dims[1:] and b[0] * row <= max(chunk, row) for b in blocks)
    assert sum(b[0] for b in blocks) == dims[0]
    assert len(blocks) == -(-dims[0] // max(1, chunk // row))


@pytest.mark.parametrize("values", ["real", "complex"])
@pytest.mark.parametrize("rule", [
    lambda: tensor_rule(BOX3, 64),                       # 262,144 nodes: two blocks
    lambda: composite_rule(BOX3, [0.1, 0.5, 0.25], 6),   # 155,520 nodes: one block
], ids=["tensor", "composite"])
def test_weighted_sum_matches_the_flat_sum(rule, values):
    grid, wts = rule()
    f = lambda p: np.exp(-np.sum(p ** 2, axis=1)) * (
        1.0 + 1j * p[:, 0] if values == "complex" else 1.0)
    want = np.sum(f(grid.points()) * node_weights(wts))
    got = weighted_sum(lambda g: f(g.points()), grid, wts)
    assert abs(got - want) <= 1e-15 * abs(want)
    assert values == "complex" or got.imag == 0.0


def test_integrate_gaussian_mass():
    f = lambda g: np.exp(-g.points()[:, 0] ** 2)
    value, estimate = integrate(f, [[-8.0, 8.0]])
    assert abs(value - math.sqrt(math.pi)) <= 1e-12 * math.sqrt(math.pi)
    assert estimate <= 1e-8 * abs(value)


def test_integrate_escalates_until_converged():
    # sharp for the base order, fine a few levels up
    sig = 0.05
    f = lambda g: np.exp(-g.points()[:, 0] ** 2 / (2 * sig * sig)) / math.sqrt(2 * math.pi * sig * sig)
    opts = QuadratureOptions(order=32)
    value, estimate = integrate(f, [[-4.0, 4.0]], opts)
    assert estimate <= 1e-8 * abs(value) + 1e-12
    assert value == pytest.approx(1.0, rel=1e-8)


def test_node_budget_admits_order_256_in_3d_and_order_64_in_4d():
    assert 256 ** 3 <= MAX_NODES and 64 ** 4 <= MAX_NODES
    # the next levels up, orders 362 and 91, are refused
    assert 362 ** 3 > MAX_NODES and 91 ** 4 > MAX_NODES


def test_composite_rule_refuses_a_grid_over_the_node_budget():
    # 84 panels of order 12 on each of three axes would be 1.02e9 nodes
    with pytest.raises(QuadratureNotConverged, match="1,024,192,512 nodes, over the node budget") as info:
        composite_rule([[0.0, 1.0]] * 3, 0.012, order=12)
    assert info.value.exit_code == 5


LADDER = [32, 45, 64, 91, 128, 181, 256, 362, 512]  # round(32 * 2^(j/2))


def recorded_orders(monkeypatch):
    """The orders of the tensor rules built from here on, in order."""
    orders = []

    def recording(box, order):
        orders.append(order)
        return tensor_rule(box, order)

    monkeypatch.setattr(quadrature, "tensor_rule", recording)
    return orders


def test_integrate_stops_climbing_at_the_node_budget(monkeypatch):
    orders = recorded_orders(monkeypatch)
    # a budget of 128^3 keeps the grids small; the real one stops before 362^3
    monkeypatch.setattr(quadrature, "MAX_NODES", 128 ** 3)
    never = lambda g: np.cos(300.0 * g.points()[:, 0])  # 760 periods: no order resolves it
    with pytest.raises(QuadratureNotConverged,
                       match="order-181 rule needs 5,929,741 nodes, over the node budget"):
        integrate(never, [[-8.0, 8.0]] * 3)
    assert orders == [32, 45, 64, 91, 128, 181]
    # a base level over the budget is refused before anything is built
    with pytest.raises(QuadratureNotConverged, match="node budget"):
        integrate(never, [[-8.0, 8.0]] * 5)
    assert orders == [32, 45, 64, 91, 128, 181, 32]


@pytest.mark.parametrize("f, box, exact, levels", [
    # the affine-pairs test Gaussian, exp(-x^2 / 0.6^2)
    (lambda x: np.exp(-x * x / 0.36), [-6.0, 6.0], 0.6 * math.sqrt(math.pi) * math.erf(10.0), 3),
    (lambda x: 1.0 / (1.0 + 25.0 * x * x), [-1.0, 1.0], 0.4 * math.atan(5.0), 4),  # Runge
], ids=["gaussian", "runge"])
def test_integrate_estimate_bounds_the_error_on_analytic_integrands(monkeypatch, f, box,
                                                                     exact, levels):
    orders = recorded_orders(monkeypatch)
    value, estimate = integrate(lambda g: f(g.points()[:, 0]), [box])
    assert estimate <= 1e-8 * abs(value) + 1e-12
    assert estimate >= abs(value - exact)
    assert orders == LADDER[:levels]


def test_integrate_refuses_an_endpoint_singularity(monkeypatch):
    # (x+1)^-1/2 converges like n^-1, where the sqrt 2 ladder's estimate is
    # 0.41 of the error; it never meets the tolerance by order 512
    orders = recorded_orders(monkeypatch)
    with pytest.raises(QuadratureNotConverged) as info:
        integrate(lambda g: (g.points()[:, 0] + 1.0) ** -0.5, [[-1.0, 1.0]])
    assert orders == LADDER
    assert info.value.exit_code == 5


def test_integrate_base_order_1_never_repeats_an_order(monkeypatch):
    orders = recorded_orders(monkeypatch)
    # round(2^(j/2)) is 1, 1, 2, 3, 4, 6, 8, ...: each level takes at least one more
    integrate(lambda g: np.exp(-g.points()[:, 0] ** 2 / 0.36), [[-6.0, 6.0]],
              QuadratureOptions(order=1))
    assert orders[:9] == [1, 2, 3, 4, 5, 6, 8, 11, 16]
    assert all(a < b for a, b in zip(orders, orders[1:]))


def test_affine_3d_gaussian_pairing_stops_by_order_64(monkeypatch):
    # as in affine-pairs: a unit state on a 3-plane in R^4 against a
    # width-0.6 Gaussian test centred off the plane
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    lam = np.array([0.93, 1.04, 1.08])
    tangent, base = q[:, :3] * lam, rng.uniform(-0.5, 0.5, 4)
    s, dist, alpha = 0.6, 0.3, 0.25
    centre = base + tangent @ np.array([0.2, -0.1, 0.25]) + dist * q[:, 3]
    quad = "+".join(f"(x{i + 1}-({float(c)!r}))^2" for i, c in enumerate(centre))
    state = make_state(Submanifold.affine("A3", base, tangent), alpha, "1",
                       support=[[-6.0, 6.0]] * 3)
    phi = AmbientDensity.make(1.0 - alpha, f"exp(-({quad})/{s * s!r})")
    orders = recorded_orders(monkeypatch)
    got = pair_with_test(state, phi)
    det = float(np.prod(lam))
    exact = math.pi ** 1.5 * s ** 3 / det * math.exp(-dist ** 2 / s ** 2) * det ** (1.0 - alpha)
    assert abs(got.value - exact) <= 1e-12 * exact
    assert orders == LADDER[:len(orders)] and orders[-1] <= 64


def test_integrate_raises_past_its_tolerance(monkeypatch):
    orders = recorded_orders(monkeypatch)
    never = lambda g: np.cos(300.0 * g.points()[:, 0])  # 760 periods: no order resolves it
    with pytest.raises(QuadratureNotConverged,
                       match=r"^quadrature estimate \S+ exceeds tolerance for value ") as info:
        integrate(never, [[-8.0, 8.0]])
    assert orders == LADDER
    assert info.value.exit_code == 5


@pytest.mark.parametrize("value, rel_tol", [
    (float("nan"), 1e-8), (0.0, float("nan")), (float("nan"), float("inf"))])
def test_integrate_fails_closed_on_nan(value, rel_tol):
    # a constant integrand: NaN gives a NaN estimate, 0.0 an estimate of exactly 0
    constant = lambda g: np.full(g.shape[0], value)
    with pytest.raises(QuadratureNotConverged) as info:
        integrate(constant, [[-1.0, 1.0]], QuadratureOptions(rel_tol=rel_tol))
    assert info.value.exit_code == 5


# integrands that return a tuple of factors


def random_factors(rng, dims):
    """Factors that broadcast to dims: a Python scalar, and arrays that vary along
    a random subset of the axes, some with their leading size-1 axes left off,
    real or complex; their values keep clear of 0 so sums do not cancel."""
    factors = [float(rng.uniform(0.5, 1.5))]
    for _ in range(int(rng.integers(1, 5))):
        shape = tuple(n if rng.random() < 0.5 else 1 for n in dims)
        f = rng.uniform(0.5, 1.5, shape)
        if rng.random() < 0.4:
            f = f + 1j * rng.uniform(0.0, 0.5, shape)
        lead = 0
        while lead < len(shape) and shape[lead] == 1 and rng.random() < 0.5:
            lead += 1
        factors.append(f.reshape(shape[lead:]))
    return factors


def on_block(factors, dims, block):
    """The factors restricted to a block: its first axis holds their row indices."""
    rows = block.axes[0].astype(int) if dims else None
    return tuple(f[rows] if dims and np.ndim(f) == len(dims) and np.shape(f)[0] > 1 else f
                 for f in factors)


@pytest.mark.parametrize("chunk", [7, 200_000])
@pytest.mark.parametrize("dims", [(), (5,), (1,), (3, 4), (1, 6), (4, 1, 3), (1, 1, 1),
                                  (2, 3, 1, 4), (3, 2, 2, 5)])
def test_weighted_sum_contracts_factor_tuples(monkeypatch, chunk, dims):
    monkeypatch.setattr(quadrature, "EVAL_CHUNK", chunk)
    rng = np.random.default_rng(len(dims) * 100 + math.prod(dims) + chunk % 7)
    grid = Grid([np.arange(float(n)) for n in dims])  # a block's rows read as indices
    weights = Grid([rng.uniform(0.1, 1.0, n) for n in dims])
    for _ in range(20):
        factors = random_factors(rng, dims)
        got = weighted_sum(lambda b: on_block(factors, dims, b), grid, weights)
        want = weighted_sum(
            lambda b: np.broadcast_to(reduce(np.multiply, on_block(factors, dims, b)),
                                      b.dims), grid, weights)
        assert abs(got - want) <= 1e-14 * abs(want)


def contraction_shapes(shapes, dims):
    """The shapes of the products a contraction of factors of these (padded) shapes
    forms, one axis at a time, last first: the factors of full length along the axis
    broadcast together, and their product goes on without that axis."""
    out = []
    for axis in reversed(range(len(dims))):
        full = [s for s in shapes if s[axis] == dims[axis]]
        shapes = [s[:axis] for s in shapes if s[axis] != dims[axis]]
        if full:
            out.append(np.broadcast_shapes(*full))
            shapes.append(out[-1][:axis])
    return out


@pytest.mark.parametrize("chunk", [7, 40, 200_000])
@pytest.mark.parametrize("dims", [(), (5,), (1,), (3, 4), (1, 6), (4, 1, 3), (1, 1, 1),
                                  (2, 3, 1, 4), (3, 2, 2, 5), (6, 5, 4)])
def test_factor_integrands_block_by_their_largest_first_axis_product(monkeypatch, chunk,
                                                                     dims):
    monkeypatch.setattr(quadrature, "EVAL_CHUNK", chunk)
    rng = np.random.default_rng(len(dims) * 100 + math.prod(dims) + chunk % 11)
    grid = Grid([np.arange(float(n)) for n in dims])  # a block's rows read as indices
    weights = Grid([rng.uniform(0.1, 1.0, n) for n in dims])
    for _ in range(20):
        factors = random_factors(rng, dims)
        shapes = [(1,) * (len(dims) - np.ndim(f)) + np.shape(f) for f in factors]
        axes = [frozenset(i for i, n in enumerate(shape) if n > 1) for shape in shapes]
        blocks = []

        def fn(b):
            blocks.append(b.dims)
            return on_block(factors, dims, b)

        got = weighted_sum(fn, grid, weights, axes)
        want = weighted_sum(lambda b: on_block(factors, dims, b), grid, weights)
        assert abs(got - want) <= 1e-14 * abs(want)
        assert [b[1:] for b in blocks] == [dims[1:]] * len(blocks)
        assert sum(math.prod(b[:1]) for b in blocks) == math.prod(dims[:1])
        first = [math.prod(p[1:]) for p in contraction_shapes(shapes, dims)
                 if p[0] == dims[0]]
        if max(first, default=0) * math.prod(dims[:1]) <= chunk:
            assert len(blocks) == 1  # every product along axis 0 fits in one block
        else:  # row blocks keep the largest such product within the chunk, or one row
            assert all(b[0] * max(first) <= max(chunk, max(first)) for b in blocks)


def test_blocks_count_the_union_of_factors_multiplied_together(monkeypatch):
    # factors reading axes {0, 2} and {1, 2} multiply into a product over the whole
    # grid at axis 2, so 20-node chunks hold one row, though each factor fits in five
    monkeypatch.setattr(quadrature, "EVAL_CHUNK", 20)
    grid = Grid([np.arange(6.0), np.arange(5.0), np.arange(4.0)])
    weights = Grid([np.ones(6), np.ones(5), np.ones(4)])
    rows = []
    fn = lambda b: rows.append(len(b.axes[0])) or (np.ones((len(b.axes[0]), 1, 4)),
                                                   np.ones((5, 4)))
    assert weighted_sum(fn, grid, weights, [{0, 2}, {1, 2}]) == 120.0
    assert rows == [1] * 6


def matmul_chain_sum(f_many, grid, weights):
    """The reference for one array: each block's values in its dims, contracted
    with the weights by one matmul chain, last axis first."""
    row = math.prod(grid.dims[1:])
    step = max(1, quadrature.EVAL_CHUNK // row)
    total = 0.0 + 0.0j
    for start in range(0, grid.shape[0] // row, step):
        block = Grid([x[start:start + step] for x in grid.axes[:1]] + list(grid.axes[1:]))
        w = [x[start:start + step] for x in weights.axes[:1]] + list(weights.axes[1:])
        total += complex(reduce(np.matmul, reversed(w), np.reshape(f_many(block), block.dims)))
    return total


@pytest.mark.parametrize("chunk", [5, 200_000])
@pytest.mark.parametrize("integrand", [
    lambda b: np.exp(-np.sum(b.points() ** 2, axis=1)),                       # flat
    lambda b: np.exp(-np.sum(b.points() ** 2, axis=1)) * (1.0 + 1j * b.points()[:, 0]),
    lambda b: np.broadcast_to(np.cos(b.columns()[-1]), b.dims),             # a broadcast view
    lambda b: np.ones(b.dims) * 0.3,                                        # in its dims
], ids=["flat", "complex", "view", "dims"])
@pytest.mark.parametrize("dims", [(7,), (1,), (6, 5), (3, 1, 4), (2, 3, 2, 3)])
def test_weighted_sum_of_one_array_is_bitwise_the_matmul_chain(monkeypatch, chunk,
                                                               integrand, dims):
    monkeypatch.setattr(quadrature, "EVAL_CHUNK", chunk)
    rng = np.random.default_rng(math.prod(dims) + chunk)
    grid = Grid([rng.uniform(-1.0, 1.0, n) for n in dims])
    weights = Grid([rng.uniform(0.0, 1.0, n) for n in dims])
    assert weighted_sum(integrand, grid, weights) == matmul_chain_sum(integrand, grid, weights)
