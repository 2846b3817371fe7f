"""Transverse products and the partial inner product.

Closed forms used here: two unit half-density lines meeting at angle phi
have inner product 1/|sin phi|; orthogonal Gaussian planes in R^3 give
sqrt(pi/2) along their common line.  The latter is checked against a
composite-Simpson value computed independently and frozen.
"""
import math

import numpy as np
import pytest

from geodens.errors import (
    DegreeMismatch,
    DimensionMismatch,
    NonCompactIntersection,
    NotOnBothCores,
    TransversalityFailure,
)
from geodens.geometry import Submanifold, intersect
from geodens.linalg import dual_normal_frame
from geodens.product import inner_product, product, product_at_point
from geodens.states import make_state, recombine_conormal

# composite Simpson (4000 panels) for the integral of exp(-2 w^2) on [-8, 8]
SIMPSON_HALF_GAUSS = 1.2533141373153622


def line(phi, name):
    return Submanifold.affine(name, [0.0, 0.0], [math.cos(phi), math.sin(phi)])


def origin():
    return Submanifold.point("E", [0.0, 0.0])


def tilted_pair(phi, alpha=0.5, beta=0.5):
    th1 = make_state(line(0.0, "C"), alpha, "1", support=[[-8.0, 8.0]])
    th2 = make_state(line(phi, "D"), beta, "1", support=[[-8.0, 8.0]])
    return th1, th2


def crossed_planes():
    p1 = Submanifold.affine("P1", [0.0] * 3, [[1, 0], [0, 1], [0, 0]])  # z = 0
    p2 = Submanifold.affine("P2", [0.0] * 3, [[1, 0], [0, 0], [0, 1]])  # y = 0
    e = Submanifold.affine("L", [0.0] * 3, [1.0, 0.0, 0.0])
    th1 = make_state(p1, 0.5, "exp(-u1^2 - u2^2)",
                     support=[[-8.0, 8.0], [-8.0, 8.0]])
    th2 = make_state(p2, 0.5, "exp(-u1^2 - u2^2)",
                     support=[[-8.0, 8.0], [-8.0, 8.0]])
    return th1, th2, e


# request validation

def test_request_checks_dimensions():
    th1, th2 = tilted_pair(math.pi / 3)
    bad_e = Submanifold.affine("E1", [0.0, 0.0], [1.0, 0.0])
    for op in (product, inner_product):
        op(th1, th2, origin())  # fine
        with pytest.raises(DimensionMismatch):
            op(th1, th2, bad_e)


def test_request_checks_ambient():
    th1, th2 = tilted_pair(math.pi / 3)
    for op in (product, inner_product):
        with pytest.raises(ValueError):
            op(th1, th2, Submanifold.point("E", [0.0, 0.0, 0.0]))


# the tilted-lines closed form

@pytest.mark.parametrize("phi,want", [
    (math.pi / 2, 1.0),
    (math.pi / 3, 2.0 / math.sqrt(3.0)),
    (math.pi / 6, 2.0),
    (math.pi / 12, 1.0 / math.sin(math.pi / 12)),
])
def test_tilted_lines_inner_product(phi, want):
    th1, th2 = tilted_pair(phi)
    got = inner_product(th1, th2, origin())
    assert got.error_estimate == 0.0
    assert abs(got.value - want) <= 1e-12 * want


def test_tilted_lines_product_coefficient():
    phi = math.pi / 4
    th1, th2 = tilted_pair(phi)
    got = product_at_point(th1, th2, origin(), np.zeros(0))
    assert got == pytest.approx(1.0 / math.sin(phi), rel=1e-12)


# degenerate reduction: both cores the whole plane

def test_full_space_product_is_the_pointwise_product():
    full = Submanifold.affine("XX", [0.0, 0.0], np.eye(2))
    th1 = make_state(full, 0.3, "exp(-u1^2 - u2^2)")
    th2 = make_state(full, 0.7, "cos(u1) + 2", conormal=np.zeros((0, 2)))
    prod = product(th1, th2, full)
    assert prod.degree == 1.0
    for w in np.linspace(-2.0, 2.0, 10):
        for v in np.linspace(-2.0, 2.0, 10):
            got = prod.coeff((w, v))
            want = th1.coeff((w, v)) * th2.coeff((w, v))
            assert abs(got - want) <= 1e-14 * max(1.0, abs(want))


# planes in R^3

def test_crossed_planes_inner_product():
    th1, th2, e = crossed_planes()
    got = inner_product(th1, th2, e, support=[[-8.0, 8.0]])
    assert abs(got.value - SIMPSON_HALF_GAUSS) <= 1e-8 * SIMPSON_HALF_GAUSS


def test_crossed_planes_product_state():
    th1, th2, e = crossed_planes()
    prod = product(th1, th2, e, support=[[-2.0, 2.0]])
    assert prod.degree == 1.0
    assert prod.core is e
    # stacked conormal family carries both factors' rows
    rows = prod.conormal.rows_at([0.5])
    assert rows.shape == (2, 3)
    got = prod.coeff((0.5,))
    assert got == pytest.approx(math.exp(-0.5), rel=1e-12)


# structure of the product state

def test_product_degree_addition_and_core():
    th1, th2 = tilted_pair(math.pi / 3, alpha=0.25, beta=0.35)
    e = origin()
    prod = product(th1, th2, e)
    assert prod.degree == complex(0.25) + complex(0.35)
    assert prod.core is e
    assert prod.conormal.rows_at(np.zeros(0)).shape == (2, 2)


def test_product_coefficient_matches_pointwise_evaluation():
    th1, th2, e = crossed_planes()
    prod = product(th1, th2, e)
    for w in (-1.0, 0.0, 0.7):
        assert prod.coeff((w,)) == pytest.approx(
            product_at_point(th1, th2, e, [w]), rel=1e-14)


# failure modes

def test_inner_product_needs_degree_sum_one():
    th1, th2 = tilted_pair(math.pi / 3, alpha=0.5, beta=0.7)
    with pytest.raises(DegreeMismatch):
        inner_product(th1, th2, origin())


def test_inner_product_needs_a_compact_intersection():
    th1, th2, e = crossed_planes()
    with pytest.raises(NonCompactIntersection):
        inner_product(th1, th2, e)


def test_inner_product_empty_support_is_zero():
    # a chart-presented intersection line whose domain misses the support
    th1, th2, _ = crossed_planes()
    e_chart = Submanifold.chart("Lc", ["u1", "0", "0"], [[-1.0, 1.0]])
    got = inner_product(th1, th2, e_chart, support=[[4.0, 5.0]])
    assert got.value == 0.0 and got.error_estimate == 0.0


def test_non_transverse_product_fails():
    axis = make_state(Submanifold.affine("X", [0.0, 0.0], [1.0, 0.0]),
                      0.5, "1", support=[[-2.0, 2.0]])
    parab_core = Submanifold.chart("P", ["u1", "u1^2"], [[-2.0, 2.0]],
                                   implicit=["x2 - x1^2"])
    parab = make_state(parab_core, 0.5, "1")
    with pytest.raises(TransversalityFailure):
        product_at_point(axis, parab, origin(), np.zeros(0))
    with pytest.raises(TransversalityFailure):
        inner_product(axis, parab, origin())


def test_product_point_off_core():
    th1, th2 = tilted_pair(math.pi / 3)
    off = Submanifold.point("E", [0.0, 1.0])  # not on the x-axis? it is not on D either
    with pytest.raises(NotOnBothCores):
        product_at_point(th1, th2, off, np.zeros(0))


# gauge freedoms at the product level

def test_product_survives_conormal_recombination():
    th1, th2 = tilted_pair(math.pi / 5)
    base = product_at_point(th1, th2, origin(), np.zeros(0))
    got = product_at_point(recombine_conormal(th1, [[3.0]]),
                           recombine_conormal(th2, [[-0.4]]),
                           origin(), np.zeros(0))
    assert got == pytest.approx(base, rel=1e-12)


def test_product_ignores_the_normal_representative():
    th1, th2, e = crossed_planes()

    def shifted_solver(nu, t):
        n = dual_normal_frame(nu, t)
        if t.shape[1]:
            n = n + t @ np.full((t.shape[1], n.shape[1]), 0.3)
        return n

    base = product_at_point(th1, th2, e, [0.6])
    got = product_at_point(th1, th2, e, [0.6], dual_solver=shifted_solver)
    assert got == pytest.approx(base, rel=1e-12)


def test_inner_product_via_intersect():
    # the geometry layer finds E; the product layer consumes it
    th1, th2 = tilted_pair(math.pi / 6)
    res = intersect(th1.core, th2.core)
    got = inner_product(th1, th2, res.core)
    assert got.value == pytest.approx(2.0, rel=1e-12)
