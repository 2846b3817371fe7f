"""Ambient densities and restriction to a core.

``restrict`` gives a field of chart coordinates, which runs on a batch of them,
flat or a quadrature grid: on an affine core with constant frames an expression
test pulls back as a tree, and elsewhere the field evaluates the formula.
The cross-check compares it with a per-node evaluation built from
``frames_at``, the solver and ``det_abs_pow`` at the grid's flat points.
"""
import math

import numpy as np
import pytest

from geodens.density import AmbientDensity, restrict
from geodens.fields import ExprField
from geodens.geometry import Submanifold, frames_at
from geodens.linalg import change_of_basis, det_abs_pow, dual_normal_frame
from geodens.quadrature import Grid
from geodens.states import ConormalFamily


def gaussian(degree=0.5):
    return AmbientDensity.make(degree, "exp(-x1^2 - x2^2)")


def tilted(th):
    return Submanifold.affine("L", [0.0, 0.0], [math.cos(th), math.sin(th)])


def test_make_coerces_everything():
    phi = AmbientDensity.make(0.5, "exp(-x1^2)", support=[[-8.0, 8.0]],
                              resolution_hint=0.1)
    assert phi.degree == 0.5 + 0.0j
    assert phi.support.shape == (1, 2)
    assert phi.resolution_hint == 0.1
    assert phi.coeff([0.0]) == 1.0


def test_value_in_frame():
    # a core whose tangent is a frame of all of R^2 has no conormals, so the
    # restriction is the density's value against that frame: coeff |det frame|^alpha
    for frame in (np.diag([2.0, 3.0]), np.array([[0.0, 3.0], [2.0, 0.0]])):
        core = Submanifold.affine("V", [0.0, 0.0], frame)
        got = restrict(gaussian(0.5), core).eval_many([[0.0, 0.0]])
        assert got.shape == (1,) and got.dtype == float
        assert got[0] == pytest.approx(math.sqrt(6.0), rel=1e-14)


def test_density_value_scales_with_frame():
    # doubling the frame of a full-dimensional core scales the value by |det 2I|^alpha
    phi = gaussian(0.5)
    unit = restrict(phi, Submanifold.affine("I", [0.0, 0.0], np.eye(2))).eval_many([[0.0, 0.0]])
    doubled = restrict(phi, Submanifold.affine("D", [0.0, 0.0], 2.0 * np.eye(2))).eval_many(
        [[0.0, 0.0]])
    assert doubled[0] == pytest.approx(unit[0] * det_abs_pow(2.0 * np.eye(2), 0.5))
    assert doubled[0] == pytest.approx(2.0, rel=1e-14)


def test_restrict_to_axis_is_the_coefficient():
    # [t | n] is the standard frame, so the determinant factor is 1
    axis = Submanifold.affine("X", [0.0, 0.0], [1.0, 0.0])
    got = restrict(gaussian(0.5), axis).eval_many([[0.7], [0.0]])
    assert got.shape == (2,) and got.dtype == float
    assert got == pytest.approx([math.exp(-0.49), 1.0], rel=1e-14)


def test_restrict_to_tilted_line_default_normal():
    # orthonormal tangent plus orthonormal complement: rotation frame, det 1
    got = restrict(gaussian(0.5), tilted(0.4)).eval_many([[1.2]])
    assert got[0] == pytest.approx(math.exp(-1.44), rel=1e-13)


def test_restrict_with_explicit_normal():
    # an explicit normal frame is a constant solver; det [t | e2] = cos(th)
    th, alpha = 0.4, 0.3
    phi = AmbientDensity.make(alpha, "exp(-x1^2 - x2^2)")
    e2 = np.array([[0.0], [1.0]])
    got = restrict(phi, tilted(th), solver=lambda nu, t: e2).eval_many([[0.0]])
    assert got[0] == pytest.approx(math.cos(th) ** alpha, rel=1e-13)


def test_restricted_values_transport_consistently():
    # [t | n'] = [t | n] B moves the value by |det B|^beta, for a complex beta
    th, beta = 0.9, 0.5 + 0.2j
    line = tilted(th)
    phi = AmbientDensity.make(beta, "exp(-x1^2 - x2^2)")
    coords = np.linspace(-1.0, 1.0, 7)[:, None]
    t = line.form.tangent
    n = dual_normal_frame(frames_at(line, [0.0])[2], t)
    default = restrict(phi, line).eval_many(coords)
    assert default.dtype == complex
    # e2, a doubled normal (B = diag(1, 2)) and a sheared one (det B = 1)
    for other in (np.array([[0.0], [1.0]]), 2.0 * n, n + 0.7 * t):
        moved = restrict(phi, line, solver=lambda nu, t, m=other: m).eval_many(coords)
        b = change_of_basis(np.hstack([t, n]), np.hstack([t, other]))
        assert moved == pytest.approx(default * det_abs_pow(b, beta), rel=1e-12)


def test_restrict_point_core():
    # conormal of a point is the full standard coframe, its dual has det 1
    p = Submanifold.point("P", [0.3, 0.0])
    got = restrict(gaussian(1.0), p).eval_many(np.zeros((1, 0)))
    assert got.shape == (1,) and got[0] == pytest.approx(math.exp(-0.09), rel=1e-14)
    got = restrict(gaussian(1.0), p).eval_many(Grid([]))
    assert got.shape == () and got == pytest.approx(math.exp(-0.09), rel=1e-14)


def _per_node(phi, core, coords, conormal=None, solver=dual_normal_frame):
    out = []
    for u in coords:
        x, t, rows = frames_at(core, u)
        if conormal is not None:
            rows = conormal.rows_at(u)
        out.append(phi.coeff(x) * det_abs_pow(np.hstack([t, solver(rows, t)]), phi.degree))
    return np.array(out)


def _shifted(nu, t):
    # adding tangent vectors to the normals leaves det [t | n] unchanged
    return dual_normal_frame(nu, t) + t @ np.full((t.shape[1], nu.shape[0]), 0.3)


def _cross_check_cases():
    # (core, test, conormal family, solver)
    circle = Submanifold.chart("S", ["cos(u1)", "sin(u1)"], [[0.0, 2.0 * math.pi]],
                               implicit=["(x1^2 + x2^2 - 1)/2"])
    wavy = Submanifold.affine("W", [0.0, 0.0], [1.0, 0.0],
                              implicit=["x2*(1 + x1^2*(x1^2-1)^2)"])
    plane = Submanifold.affine("Q", [0.1, 0.2, 0.3, 0.4],
                               np.transpose([[1.0, 0.0, 0.0, 2.0], [0.0, 3.0, 0.0, -1.0]]))
    point = Submanifold.point("P", [0.3, -0.2, 0.5])
    helix = Submanifold.chart("H", ["cos(u1)", "sin(u1)", "u1/2"], [[0.0, 3.0]])
    sphere = Submanifold.chart("P", ["sin(u1)*cos(u2)", "sin(u1)*sin(u2)", "cos(u1)"],
                               [[0.3, 1.2], [0.0, 1.5]])

    def test(n, degree):
        form = "exp(-(" + " + ".join(f"x{i + 1}^2" for i in range(n)) + ")/4)"
        return AmbientDensity.make(degree, form)

    rows = ConormalFamily.from_rows([[0.0, 0.0, 0.6, 0.0], [-6.0, 1.0, 0.0, 3.0]])
    recombined = ConormalFamily.from_core(helix).recombined([[1.0, 2.0], [0.5, 3.0]])
    return [(circle, test(2, 0.5), None, dual_normal_frame),
            (circle, test(2, 0.6 - 0.2j), None, dual_normal_frame),
            (wavy, test(2, 0.5), None, dual_normal_frame),
            (plane, test(4, 0.25), None, dual_normal_frame),
            (point, test(3, 0.75), None, dual_normal_frame),
            (plane, test(4, 0.6 - 0.2j), rows, dual_normal_frame),
            (helix, test(3, 0.5), recombined, dual_normal_frame),
            (sphere, test(3, 0.6 - 0.2j), None, _shifted)]


CROSS_CHECK_CASES = range(len(_cross_check_cases()))


@pytest.mark.parametrize("case", CROSS_CHECK_CASES)
def test_restrict_matches_per_node_frames(case):
    # on a quadrature grid and on its flat points, against the frames at each point
    core, phi, conormal, solver = _cross_check_cases()[case]
    real = complex(phi.degree).imag == 0.0
    rng = np.random.default_rng(20261019 + case)
    for _ in range(5):
        box = core.domain if core.domain is not None else np.tile([-2.0, 2.0], (core.dim, 1))
        grid = Grid([np.sort(rng.uniform(lo, hi, int(rng.integers(1, 6)))) for lo, hi in box])
        want = _per_node(phi, core, grid.points(), conormal, solver)
        for coords, shape in ((grid, grid.dims), (grid.points(), (grid.shape[0],))):
            got = restrict(phi, core, conormal, solver).eval_many(coords)
            assert got.shape == shape and got.dtype == (float if real else complex)
            assert np.all(np.abs(got.ravel() - want) <= 1e-14 * np.abs(want))


def test_names_that_chart_coordinates_would_capture_are_not_pulled_back():
    # u1 is the test's parameter, not the chart coordinate the pullback would bind to it
    line = Submanifold.affine("X", [0.0, 0.0], [1.0, 0.0])
    phi = AmbientDensity.make(0.5, "exp(-x1^2 - u1)", params={"u1": 2.0})
    test = restrict(phi, line)
    assert not isinstance(test, ExprField)
    assert test.eval_many([[0.5]])[0] == pytest.approx(math.exp(-2.25), rel=1e-14)
    # a parameter named like an ambient coordinate keeps its value, as on the array path
    phi = AmbientDensity.make(0.5, "exp(-x1^2 - x2^2)", params={"x2": 3.0})
    test = restrict(phi, line)
    assert isinstance(test, ExprField)
    assert test.eval_many([[0.5]])[0] == pytest.approx(math.exp(-9.25), rel=1e-14)
