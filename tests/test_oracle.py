"""Mollification oracle: tube construction, smooth pairings, convergence.

Closed forms: a width-eps Gaussian tube around an axis with coefficient
exp(-u^2), paired against the analogous tube around the other axis, gives
exactly 1/(1 + 2 eps^2); the geometric value is 1.  Flat unit-coefficient
tubes pair to the geometric answer for every eps, so their errors sit at
the quadrature noise floor.
"""
import math

import numpy as np
import pytest

from geodens.density import AmbientDensity
from geodens.errors import (
    DegreeMismatch,
    InvalidEps,
    NonAffineCore,
    NonConvergent,
    UnboundedDomain,
)
from geodens.fields import ExprField
from geodens.geometry import Submanifold
from geodens.oracle import (
    DEFAULT_EPS,
    TubeDensity,
    compare_inner,
    compare_pairing,
    converge_check,
    integrate_coefficient,
    mollify,
    smooth_pair,
)
from geodens.states import make_state, pair_with_test, recombine_conormal


def x_axis():
    return Submanifold.affine("X", [0.0, 0.0], [1.0, 0.0])


def y_axis():
    return Submanifold.affine("Y", [0.0, 0.0], [0.0, 1.0])


def unit_state(core, support=((-8.0, 8.0),)):
    return make_state(core, 0.5, "1", support=np.asarray(support))


# mollify preconditions

def test_mollify_rejects_chart_cores():
    circle = Submanifold.chart("S", ["cos(u1)", "sin(u1)"],
                               [[0.0, 2.0 * math.pi]])
    th = make_state(circle, 0.5, "1")
    with pytest.raises(NonAffineCore):
        mollify(th, 0.1)


def test_mollify_rejects_callable_coefficients():
    th = make_state(x_axis(), 0.5, lambda u: 1.0, support=[[-1.0, 1.0]])
    with pytest.raises(ValueError):
        mollify(th, 0.1)


def test_mollify_rejects_bad_width_and_missing_support():
    th = unit_state(x_axis())
    with pytest.raises(InvalidEps):
        mollify(th, 0.0)
    with pytest.raises(UnboundedDomain):
        mollify(make_state(x_axis(), 0.5, "1"), 0.1)


# tube structure

def test_tube_fields():
    eps = 0.1
    th = make_state(x_axis(), 0.5, "exp(-u1^2)", support=[[-8.0, 8.0]])
    tube = mollify(th, eps)
    assert isinstance(tube, TubeDensity)
    assert tube.degree == th.degree
    assert tube.resolution_hint == eps
    assert isinstance(tube.coeff, ExprField)
    # box: the chart image, widened by 8 eps across the core
    assert np.allclose(tube.support[0], [-8.0, 8.0], atol=1e-12)
    assert np.allclose(tube.support[1], [-0.8, 0.8], atol=1e-12)
    # only the crossed axis is sharp
    assert np.allclose(tube.axis_hints, [1.0, eps])


def test_tube_coefficient_on_the_core():
    eps = 0.1
    th = make_state(x_axis(), 0.5, "exp(-u1^2)", support=[[-8.0, 8.0]])
    tube = mollify(th, eps)
    peak = 1.0 / math.sqrt(2.0 * math.pi * eps * eps)
    got = tube.coefficient_at([0.3, 0.0])
    assert got == pytest.approx(math.exp(-0.09) * peak, rel=1e-13)
    # one width out, the profile drops by exp(-1/2)
    got = tube.coefficient_at([0.3, eps])
    assert got == pytest.approx(math.exp(-0.09) * peak * math.exp(-0.5), rel=1e-13)


def test_tube_mass_of_a_unit_line():
    tube = mollify(unit_state(x_axis()), 0.1)
    got = integrate_coefficient(tube)
    assert got == pytest.approx(16.0, rel=1e-9)


def test_point_tube_has_unit_mass():
    th = make_state(Submanifold.point("P", [0.5, -0.5]), 0.0, "1")
    tube = mollify(th, 0.1)
    got = integrate_coefficient(tube)
    assert got == pytest.approx(1.0, rel=1e-9)


# tube pairings

def test_flat_tube_pairing_is_exact_for_every_eps():
    # a test density with no transverse variation cannot see the tube width,
    # so the smooth pairing equals the geometric one for every eps
    th = unit_state(x_axis())
    phi = AmbientDensity.make(0.5, "exp(-x1^2)")
    want = pair_with_test(th, phi).value
    for eps in (0.2, 0.05):
        got = smooth_pair(mollify(th, eps), phi)
        assert abs(got - want) <= 1e-9 * abs(want)


def test_tube_pairing_respects_conormal_recombination():
    # rescaling the declared conormal rescales the coefficient; the tube
    # conversion factor must cancel it exactly
    th = make_state(Submanifold.affine("D", [0.0, 0.0], [0.8, 0.6]),
                    0.5, "exp(-u1^2)", support=[[-8.0, 8.0]])
    # constant along the tube's transverse direction: tangential Gaussian
    phi = AmbientDensity.make(0.5, "exp(-(0.8*x1 + 0.6*x2)^2)")
    want = smooth_pair(mollify(th, 0.1), phi)
    got = smooth_pair(mollify(recombine_conormal(th, [[2.5]]), 0.1), phi)
    assert got == pytest.approx(want, rel=1e-10)
    assert want == pytest.approx(pair_with_test(th, phi).value, rel=1e-9)


def test_crossed_gaussian_tubes_analytic_value():
    sx = make_state(x_axis(), 0.5, "exp(-u1^2)", support=[[-8.0, 8.0]])
    sy = make_state(y_axis(), 0.5, "exp(-u1^2)", support=[[-8.0, 8.0]])
    for eps in (0.2, 0.1):
        got = smooth_pair(mollify(sx, eps), mollify(sy, eps))
        want = 1.0 / (1.0 + 2.0 * eps * eps)
        assert got == pytest.approx(want, rel=1e-8)


def test_smooth_pair_needs_complementary_degrees():
    t1 = mollify(unit_state(x_axis()), 0.1)
    phi = AmbientDensity.make(0.7, "1", support=[[-1.0, 1.0], [-1.0, 1.0]])
    with pytest.raises(DegreeMismatch):
        smooth_pair(t1, phi)


def test_smooth_pair_needs_a_box():
    phi1 = AmbientDensity.make(0.5, "exp(-x1^2)")
    phi2 = AmbientDensity.make(0.5, "exp(-x1^2)")
    with pytest.raises(UnboundedDomain):
        smooth_pair(phi1, phi2)


def test_integrate_coefficient_erf_mass():
    phi = AmbientDensity.make(1.0, "exp(-x1^2)", support=[[-8.0, 8.0]])
    assert integrate_coefficient(phi) == pytest.approx(math.sqrt(math.pi), rel=1e-10)


# convergence bookkeeping

def test_converge_check_accepts_order_two_decay():
    report = converge_check(1.0, (0.2, 0.1, 0.05),
                            (1.04, 1.01, 1.0025))
    assert report.final_rel_error == pytest.approx(0.0025)
    assert all(o == pytest.approx(2.0, abs=0.1) for o in report.empirical_orders)


def test_converge_check_floor_absorbs_quadrature_noise():
    # flat data: every tube is exact, errors are roundoff
    report = converge_check(2.0, (0.2, 0.1),
                            (2.0 + 3e-15, 2.0 - 1e-15))
    assert report.final_rel_error <= 1e-15
    assert report.empirical_orders == (None,)


def test_converge_check_rejects_growth():
    with pytest.raises(NonConvergent):
        converge_check(1.0, (0.2, 0.1, 0.05), (1.01, 1.02, 1.04))


def test_converge_check_rejects_the_wrong_limit():
    # oracle values settle on 1.0, the claimed value is 10% off
    with pytest.raises(NonConvergent):
        converge_check(1.1, (0.2, 0.1, 0.05), (1.04, 1.01, 1.0025))


def test_converge_check_input_validation():
    with pytest.raises(InvalidEps):
        converge_check(1.0, (0.1,), (1.0,))
    with pytest.raises(InvalidEps):
        converge_check(1.0, (0.1, 0.2), (1.0, 1.0))
    with pytest.raises(InvalidEps):
        converge_check(1.0, (-0.1, -0.2), (1.0, 1.0))
    with pytest.raises(ValueError):
        converge_check(1.0, (0.2, 0.1), (1.0,))


# end-to-end comparisons

def test_compare_pairing_flat_case():
    # transversally flat data: every eps is exact, errors sit below the floor
    th = unit_state(x_axis())
    phi = AmbientDensity.make(0.5, "exp(-x1^2)")
    report = compare_pairing(th, phi, eps_list=(0.2, 0.1))
    assert report.geometric == pytest.approx(math.sqrt(math.pi), rel=1e-12)
    assert report.final_rel_error <= 1e-9
    assert report.empirical_orders == (None,)  # both errors under the floor


def test_compare_pairing_sees_transverse_curvature():
    # a transversally curved test is resolved at second order in eps
    th = unit_state(x_axis())
    phi = AmbientDensity.make(0.5, "exp(-x1^2 - x2^2)")
    report = compare_pairing(th, phi, eps_list=(0.2, 0.1, 0.05))
    assert report.errors[0] > report.errors[1] > report.errors[2]
    assert report.final_rel_error <= 1e-2
    assert report.empirical_orders[0] == pytest.approx(2.0, abs=0.2)


def test_compare_inner_sees_second_order_convergence():
    sx = make_state(x_axis(), 0.5, "exp(-u1^2)", support=[[-8.0, 8.0]])
    sy = make_state(y_axis(), 0.5, "exp(-u1^2)", support=[[-8.0, 8.0]])
    e = Submanifold.point("E", [0.0, 0.0])
    report = compare_inner(sx, sy, e, eps_list=DEFAULT_EPS)
    assert report.geometric == pytest.approx(1.0, rel=1e-12)
    assert report.errors[0] > report.errors[1] > report.errors[2]
    assert report.final_rel_error <= 1e-2
    for order in report.empirical_orders:
        assert order == pytest.approx(2.0, abs=0.2)
