"""Ambient densities and restriction to a core."""
import math

import numpy as np
import pytest

from geodens.density import AmbientDensity, restrict
from geodens.geometry import Submanifold
from geodens.linalg import Frame, det_abs_pow


def gaussian(degree=0.5):
    return AmbientDensity.make(degree, "exp(-x1^2 - x2^2)")


def test_make_coerces_everything():
    phi = AmbientDensity.make(0.5, "exp(-x1^2)", support=[[-8.0, 8.0]],
                              resolution_hint=0.1)
    assert phi.degree == 0.5 + 0.0j
    assert phi.support.shape == (1, 2)
    assert phi.resolution_hint == 0.1
    assert phi.coefficient_at([0.0]) == 1.0


def test_value_in_frame():
    phi = gaussian(0.5)
    frame = np.diag([2.0, 3.0])
    got = phi.value_in_frame([0.0, 0.0], frame)
    assert got == pytest.approx(math.sqrt(6.0), rel=1e-14)
    got = phi.value_in_frame([0.0, 0.0], Frame.tangent([[2.0, 0.0], [0.0, 3.0]]))
    assert got == pytest.approx(math.sqrt(6.0), rel=1e-14)


def test_restrict_to_axis_is_the_coefficient():
    # [t | n] is the standard frame, so the determinant factor is 1
    axis = Submanifold.affine("X", [0.0, 0.0], [1.0, 0.0])
    v = restrict(gaussian(0.5), axis, [0.7])
    assert v.value == pytest.approx(math.exp(-0.49), rel=1e-14)
    assert v.degree == 0.5
    assert v.frame.matrix.shape == (2, 2)


def test_restrict_to_tilted_line_default_normal():
    # orthonormal tangent plus orthonormal complement: rotation frame, det 1
    th = 0.4
    line = Submanifold.affine("L", [0.0, 0.0], [math.cos(th), math.sin(th)])
    v = restrict(gaussian(0.5), line, [1.2])
    assert v.value == pytest.approx(math.exp(-1.44), rel=1e-13)


def test_restrict_with_explicit_normal():
    th = 0.4
    alpha = 0.3
    line = Submanifold.affine("L", [0.0, 0.0], [math.cos(th), math.sin(th)])
    phi = AmbientDensity.make(alpha, "exp(-x1^2 - x2^2)")
    v = restrict(phi, line, [0.0], normal=[0.0, 1.0])
    # det [t | e2] = cos(th)
    assert v.value == pytest.approx(math.cos(th) ** alpha, rel=1e-13)


def test_restricted_values_transport_consistently():
    # restricting against a second normal equals transporting the first value
    th, alpha = 0.9, 0.5 + 0.2j
    line = Submanifold.affine("L", [0.0, 0.0], [math.cos(th), math.sin(th)])
    phi = AmbientDensity.make(alpha, "exp(-x1^2 - x2^2)")
    v_default = restrict(phi, line, [0.5])
    v_e2 = restrict(phi, line, [0.5], normal=[0.0, 1.0])
    t = line.form.tangent
    target = Frame(np.hstack([t, np.array([[0.0], [1.0]])]), "tangent")
    moved = v_default.in_frame(target)
    assert moved.value == pytest.approx(v_e2.value, rel=1e-12)


def test_restrict_point_core():
    p = Submanifold.point("P", [0.3, 0.0])
    v = restrict(gaussian(1.0), p, np.zeros(0))
    # conormal of a point is the full standard coframe, its dual has det 1
    assert v.value == pytest.approx(math.exp(-0.09), rel=1e-14)


def test_density_value_scales_with_frame():
    axis = Submanifold.affine("X", [0.0, 0.0], [1.0, 0.0])
    phi = gaussian(0.5)
    v = restrict(phi, axis, [0.0])
    doubled = v.in_frame(Frame(2.0 * np.eye(2), "tangent"))
    assert doubled.value == pytest.approx(v.value * det_abs_pow(2.0 * np.eye(2), 0.5))
