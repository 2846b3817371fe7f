"""Geometric states and the pairing with test densities.

The invariance tests exercise the two gauge freedoms of the construction:
which conormal frame the state is written against, and which transverse
normal representatives the pairing integrand picks.  The reparametrization
test swaps a chart u = v^3 + v under a half-density and checks the pairing
does not move.  The cross-check compares the pairing integrand, which runs
on a quadrature grid's axes, with a per-node evaluation built from
``frames_at`` at the grid's flat points.
"""
import importlib.util
import math
import re
import sys
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

from geodens.density import AmbientDensity, restrict
from geodens import exprlang, quadrature, states
from geodens.errors import (
    ConormalMismatch,
    ConormalShapeMismatch,
    DegreeMismatch,
    FrameShapeMismatch,
    InputError,
    UnboundedDomain,
)
from geodens.fields import ExprField, FuncField
from geodens.geometry import Submanifold, frames_at, frames_many
from geodens.exprlang import parse
from geodens.linalg import det_abs_pow, dual_normal_frame, frame_factors
from geodens.oracle import smooth_pair
from geodens.product import inner_product
from geodens.quadrature import Grid, integrate, intersect_boxes
from geodens.scene import load_scene, scene_from_dict
from geodens.states import (
    ConormalFamily,
    make_state,
    pair_with_test,
    recombine_conormal,
    zero_section_state,
)

SQRT_PI = 1.7724538509055160873  # sqrt(pi) to double precision


def x_axis():
    return Submanifold.affine("X", [0.0, 0.0], [1.0, 0.0])


def tilted(phi, name="D"):
    return Submanifold.affine(name, [0.0, 0.0], [math.cos(phi), math.sin(phi)])


def gaussian_test(degree=0.5):
    return AmbientDensity.make(degree, "exp(-x1^2 - x2^2)")


# construction

def test_make_state_default_conormal_is_the_complement():
    th = make_state(x_axis(), 0.5, "1", support=[[-8.0, 8.0]])
    rows = th.conormal.rows_at([0.0])
    assert rows.shape == (1, 2)
    assert abs(rows[0, 0]) <= 1e-14 and abs(abs(rows[0, 1]) - 1.0) <= 1e-14
    # an affine core has one frame for the whole batch
    assert th.conormal.rows_many(np.linspace(-8.0, 8.0, 5)[:, None]).shape == (1, 1, 2)
    assert th.core.ambient.dim - th.core.dim == 1


def test_make_state_explicit_rows():
    th = make_state(x_axis(), 0.5, "1", conormal=[[0.0, 2.0]],
                    support=[[-1.0, 1.0]])
    assert np.allclose(th.conormal.rows_at([0.3]), [[0.0, 2.0]])


def test_make_state_rejects_wrong_codimension():
    with pytest.raises(ValueError):
        make_state(x_axis(), 0.5, "1", conormal=[[0.0, 1.0], [1.0, 0.0]])


@pytest.mark.parametrize("rows, shape", [([[0.0, 1.0], [1.0, 0.0]], (2, 2)),
                                         ([[0.0, 1.0, 2.0]], (1, 3)), ([0.0], (1, 1))])
def test_make_state_types_a_conormal_of_the_wrong_shape(rows, shape):
    with pytest.raises(ConormalShapeMismatch) as info:
        make_state(x_axis(), 0.5, "1", conormal=rows)
    assert isinstance(info.value, ValueError) and info.value.exit_code == 2
    assert str(info.value) == ("conormal needs 1 row(s) of 2 numbers for core 'X', "
                               f"got shape {shape}")


@pytest.mark.parametrize("path", sorted((Path(__file__).resolve().parent.parent / "scenes")
                                        .glob("*.json")), ids=lambda p: p.name)
def test_loading_a_scene_samples_no_frame(path, monkeypatch):
    # a core's own conormal family has the codimension's shape by construction
    calls = []
    monkeypatch.setattr(states, "frames_many", lambda *a: calls.append(a) or frames_many(*a))
    try:
        load_scene(path)
    except DegreeMismatch:
        assert path.name == "degree_mismatch.json"  # refused after its states are built
    assert calls == []


def test_zero_section_state():
    th = zero_section_state(x_axis(), "exp(-u1^2) * (1 + xi1)",
                            support=[[-8.0, 8.0]])
    assert th.degree == 0.5
    # value frozen from exp(-0.09)
    assert th.coeff((0.3,)) == pytest.approx(0.9139311852712282, rel=1e-15)


def test_conormal_family_from_rows_and_recombination():
    fam = ConormalFamily.from_rows([[0.0, 1.0]])
    fam2 = fam.recombined([[3.0]])
    assert np.allclose(fam2.rows_at([0.0]), [[0.0, 3.0]])
    assert fam2.rows_many(np.zeros((4, 1))).shape == (1, 1, 2)


def test_a_state_keeps_its_own_conormal_rows():
    # editing the caller's rows, or the recombining matrix, later changes no state
    rows, b = np.array([[0.0, 1.0]]), np.array([[3.0]])
    th = make_state(Submanifold.affine("X", [0.0, 0.0], [1.0, 0.0]), 0.5, "1",
                    conormal=rows)
    scaled = recombine_conormal(th, b)
    rows[:], b[:] = [[0.0, 7.0]], [[5.0]]
    assert th.conormal.rows_at([0.0]).tolist() == [[0.0, 1.0]]
    assert scaled.conormal.rows_at([0.0]).tolist() == [[0.0, 3.0]]


# pairing basics

def test_pairing_unit_line_against_gaussian():
    th = make_state(x_axis(), 0.5, "1", support=[[-8.0, 8.0]])
    got = pair_with_test(th, gaussian_test())
    assert got.value == pytest.approx(SQRT_PI, rel=1e-12)
    assert got.error_estimate <= 1e-8 * abs(got.value)


def test_pairing_is_bilinear_in_the_coefficient():
    th1 = make_state(x_axis(), 0.5, "exp(-u1^2)", support=[[-8.0, 8.0]])
    th2 = make_state(x_axis(), 0.5, "2*exp(-u1^2)", support=[[-8.0, 8.0]])
    v1 = pair_with_test(th1, gaussian_test()).value
    v2 = pair_with_test(th2, gaussian_test()).value
    assert v2 == pytest.approx(2.0 * v1, rel=1e-13)


def test_pairing_with_complex_coefficient():
    base = make_state(x_axis(), 0.5, "exp(-u1^2)", support=[[-8.0, 8.0]])
    scale = 2.0 - 1.0j
    coeff = base.coeff.scaled(scale)
    th = make_state(x_axis(), 0.5, coeff, support=[[-8.0, 8.0]])
    v0 = pair_with_test(base, gaussian_test()).value
    v1 = pair_with_test(th, gaussian_test()).value
    assert v1 == pytest.approx(scale * v0, rel=1e-13)


def test_pairing_degree_mismatch():
    th = make_state(x_axis(), 0.5, "1", support=[[-1.0, 1.0]])
    with pytest.raises(DegreeMismatch):
        pair_with_test(th, gaussian_test(0.7))


@pytest.mark.parametrize("where, mismatch", [
    ("pairing", lambda: pair_with_test(
        make_state(x_axis(), 0.5, "1", support=[[-1.0, 1.0]]), gaussian_test(0.7))),
    ("partial inner product", lambda: inner_product(
        make_state(x_axis(), 0.5, "1", support=[[-1.0, 1.0]]),
        make_state(tilted(1.0), 0.7, "1", support=[[-1.0, 1.0]]),
        Submanifold.point("E", [0.0, 0.0]))),
    ("smooth pairing", lambda: smooth_pair(
        AmbientDensity.make(0.5, "1", support=[[-1.0, 1.0]] * 2), gaussian_test(0.7))),
    ("request #0", lambda: load_scene(
        Path(__file__).resolve().parents[1] / "scenes" / "degree_mismatch.json")),
])
def test_degree_rule_has_one_wording(where, mismatch):
    want = f"{where}: degrees must sum to 1, got (0.5+0j) and (0.7+0j)"
    with pytest.raises(DegreeMismatch, match=f"^{re.escape(want)}$"):
        mismatch()


def test_pairing_needs_a_bounded_box():
    th = make_state(x_axis(), 0.5, "1")
    with pytest.raises(UnboundedDomain):
        pair_with_test(th, gaussian_test())


def test_pairing_empty_box_is_zero():
    circle = Submanifold.chart("S", ["cos(u1)", "sin(u1)"],
                               [[0.0, 2.0 * math.pi]],
                               implicit=["(x1^2 + x2^2 - 1)/2"])
    th = make_state(circle, 0.5, "1", support=[[7.0, 8.0]])
    got = pair_with_test(th, gaussian_test())
    assert got.value == 0.0


def test_complex_degree_pairing_runs():
    alpha = 0.5 + 0.3j
    th = make_state(x_axis(), alpha, "exp(-u1^2)", support=[[-8.0, 8.0]])
    phi = AmbientDensity.make(1.0 - alpha, "exp(-x1^2 - x2^2)")
    got = pair_with_test(th, phi)
    # frame factors are 1 here, so the value is the plain overlap integral
    assert got.value == pytest.approx(math.sqrt(math.pi / 2.0), rel=1e-10)


def test_pairing_on_a_line_with_a_curved_implicit_form():
    # F = x2 f(x1) cuts out the x1-axis; its gradient (0, f) equals (0, 1)
    # only at x1 = -1, 0, 1, so sampling those points hides that it varies
    core = Submanifold.affine("W", [0.0, 0.0], [1.0, 0.0],
                              implicit=["x2*(1 + x1^2*(x1^2-1)^2)"])
    th = make_state(core, 0.5, "exp(-u1^2)", support=[[-4.0, 4.0]])
    got = pair_with_test(th, gaussian_test()).value
    # n = (0, 1/f), so |det [t | n]|^(1/2) = f^(-1/2)
    x, w = np.polynomial.legendre.leggauss(400)
    u = 4.0 * x
    f = 1.0 + u ** 2 * (u ** 2 - 1.0) ** 2
    want = 4.0 * np.sum(w * np.exp(-2.0 * u ** 2) / np.sqrt(f))
    assert got == pytest.approx(want, rel=1e-8)


def _per_node_integrand(state, phi, coords):
    out = []
    for u in coords:
        x, t, rows = frames_at(state.core, u)
        n = dual_normal_frame(rows, t)
        out.append(state.coeff(u) * phi.coeff(x)
                   * det_abs_pow(np.hstack([t, n]), phi.degree))
    return np.array(out)


def _cross_check_cases():
    # (core, coefficient, test, frames constant); tangents with zero entries
    # take the affine chart map's short sums, the wavy line's implicit form
    # makes an affine core's conormal vary, and a callable test coefficient
    # takes the flat-points fallback
    point = Submanifold.point("P", [0.3, -0.2, 0.5])
    line = Submanifold.affine("L", [0.5, 0.0, -1.0], [1.0, 0.0, 2.0])
    plane = Submanifold.affine("Q", [0.1, 0.2, 0.3, 0.4],
                               np.transpose([[1.0, 0.0, 0.0, 2.0], [0.0, 3.0, 0.0, -1.0]]))
    space = Submanifold.affine("V", [0.0, 1.0, -1.0, 0.5],
                               np.transpose([[0.9, 0.0, 0.3, 0.0], [0.0, 1.1, 0.0, 0.2],
                                             [0.4, 0.0, 0.0, 1.2]]))
    circle = Submanifold.chart("S", ["cos(u1)", "sin(u1)"], [[0.0, 2.0 * math.pi]],
                               implicit=["(x1^2 + x2^2 - 1)/2"])
    sphere = Submanifold.chart("P", ["sin(u1)*cos(u2)", "sin(u1)*sin(u2)", "cos(u1)"],
                               [[0.3, 1.2], [0.0, 1.5]])
    slanted = Submanifold.affine("L", [0.0, 1.0], [1.0, 0.5],
                                 implicit=["x2 - 0.5*x1 - 1"])
    wavy = Submanifold.affine("W", [0.0, 0.0], [1.0, 0.0],
                              implicit=["x2*(1 + x1^2*(x1^2-1)^2)"])
    complex_coeff = ExprField(parse("exp(-u1^2)"), parse("u1/3 - 0.5"))

    def test(n, degree, fn=None):
        form = "exp(-(" + " + ".join(f"x{i + 1}^2" for i in range(n)) + ")/4)"
        return AmbientDensity.make(degree, fn or form)

    callable_test = test(2, 0.5, lambda x: math.exp(-x @ x) * (1.0 + 0.5j * x[0]))
    return [(circle, "cos(u1)", test(2, 0.6 - 0.2j), False, 0.4 + 0.2j),
            (sphere, "exp(-u2^2)*u1", test(3, 0.6 - 0.2j), False, 0.4 + 0.2j),
            (slanted, "exp(-u1^2)", test(2, 0.6 - 0.2j), True, 0.4 + 0.2j),
            (wavy, complex_coeff, test(2, 0.5), False, 0.5),
            (point, "2", test(3, 0.75), True, 0.25),
            (line, "exp(-u1^2)", test(3, 0.6 - 0.2j), True, 0.4 + 0.2j),
            (plane, complex_coeff, test(4, 0.5), True, 0.5),
            (space, "cos(u1)*exp(-u3^2)", test(4, 0.25), True, 0.75),
            (circle, "sin(u1)", callable_test, False, 0.5)]


def _random_grid(core, rng):
    box = core.domain if core.domain is not None else np.tile([-2.0, 2.0], (core.dim, 1))
    return Grid([np.sort(rng.uniform(lo, hi, int(rng.integers(1, 6)))) for lo, hi in box])


CROSS_CHECK_CASES = range(len(_cross_check_cases()))


def _integrand(th, test, grid):
    # pair_with_test's integrand: the coefficient's factors times the restricted test's,
    # each callable run on the whole grid
    factors = th.coeff.factors(grid) + test.factors(grid)
    return np.broadcast_to(reduce(np.multiply, [f(grid) if callable(f) else f
                                                for f in factors]), grid.dims)


@pytest.mark.parametrize("case", CROSS_CHECK_CASES)
def test_batched_integrand_matches_per_node_frames(case):
    # the batch is a quadrature grid, the reference the frames at its flat points
    core, coeff, phi, constant, degree = _cross_check_cases()[case]
    th = make_state(core, degree, coeff)
    test = restrict(phi, core, th.conormal, dual_normal_frame)
    # real expression fields keep the product real: where the test is evaluated on each
    # batch, a real degree and a real test coefficient; where it pulls back, a real frame
    # factor, as |det [t | n]|^beta = 1^beta is on the slanted line
    real = isinstance(th.coeff, ExprField) and th.coeff.im_expr is None and (
        test.im_expr is None if isinstance(test, ExprField) else complex(degree).imag == 0.0
        and isinstance(phi.coeff, ExprField) and phi.coeff.im_expr is None)
    rng = np.random.default_rng(20261018 + case)
    for _ in range(5):
        grid = _random_grid(core, rng)
        got = _integrand(th, test, grid)
        assert got.shape == grid.dims
        assert got.dtype == (float if real else complex)
        want = _per_node_integrand(th, phi, grid.points())
        assert np.all(np.abs(got.ravel() - want) <= 1e-14 * np.abs(want))
        assert frames_many(core, grid)[1].shape[0] == (1 if constant else grid.shape[0])


@pytest.mark.parametrize("case", CROSS_CHECK_CASES)
def test_grid_points_and_frames_match_the_flat_ones(case):
    core = _cross_check_cases()[case][0]
    rng = np.random.default_rng(7 + case)
    for _ in range(5):
        grid = _random_grid(core, rng)
        flat = grid.points()
        points, tangents, rows = frames_many(core, grid)
        want_points, want_tangents, want_rows = frames_many(core, flat)
        assert isinstance(points, tuple) and len(points) == core.ambient.dim
        assert np.array_equal(core.points_at(grid)[0], points[0])
        if core.is_affine:
            # base + sum of terms against the (n, k) @ (k, N) product
            scale = np.abs(core.form.base) + np.abs(flat) @ np.abs(core.form.tangent).T
        else:
            scale = np.abs(want_points)
        for j, x in enumerate(points):
            got = np.broadcast_to(x, grid.dims).ravel()
            assert np.all(np.abs(got - want_points[:, j]) <= 1e-15 * scale[:, j])
        assert tangents.tobytes() == want_tangents.tobytes()
        assert rows.tobytes() == want_rows.tobytes()


def test_constant_frames_are_checked_once_and_cached():
    cases = _cross_check_cases()
    for core, _, _, constant, _ in cases:
        assert core.frames_constant == constant
    slanted, wavy = cases[2][0], cases[3][0]
    # construction checked slanted's frames, which it keeps from then on
    built = slanted._cache["frames"]
    first = frames_many(slanted, [[0.1], [0.2]])
    assert first[1] is built[0] and first[2] is built[1]
    again = frames_many(slanted, [[0.7]])
    assert first[1] is again[1] and first[2] is again[2]
    assert not first[2].flags.writeable
    frames_many(wavy, [[0.1], [0.2]])
    assert "frames" not in wavy._cache
    # a chart whose map is linear in u, with a scene parameter, is constant too
    linear = Submanifold.chart("D", ["a*u1 + 1", "2*u1"], [[-1.0, 1.0]],
                               implicit=["2*x1 - a*x2 - 2"], params={"a": 3.0})
    assert linear.frames_constant
    assert not Submanifold.chart("C", ["u1", "u1^2"], [[-1.0, 1.0]]).frames_constant


def test_pairings_never_build_the_flat_points(monkeypatch):
    core = Submanifold.affine("Q", [0.0, 0.0, 0.5], np.transpose([[1.0, 0.0, 0.0],
                                                                 [0.0, 2.0, 1.0]]))
    plane = make_state(core, 0.5, "exp(-u1^2 - u2^2)", support=[[-6.0, 6.0]] * 2)
    circle = make_state(Submanifold.chart("S", ["cos(u1)", "sin(u1)"], [[0.0, 2.0 * math.pi]],
                                          implicit=["(x1^2 + x2^2 - 1)/2"]), 0.5, "cos(u1)^2")
    tests = [AmbientDensity.make(0.5, "exp(-x1^2 - x2^2 - x3^2)"),
             AmbientDensity.make(0.5, "exp(-x1^2)")]
    want = [pair_with_test(th, phi).value for th, phi in zip((plane, circle), tests)]

    def flatten(grid):
        raise AssertionError("the pairing flattened its grid")

    monkeypatch.setattr(Grid, "points", flatten)
    got = [pair_with_test(th, phi).value for th, phi in zip((plane, circle), tests)]
    assert got == want


# annihilation is judged on each unit row, relative to max|t|

@pytest.mark.parametrize("r", [1e-6, 1.0, 1e4, 1e6])
def test_circle_pairing_at_any_radius(r):
    # n = nu / |nu|^2 makes |det [t | n]| = 1, so the unit pairing is 2 pi
    circle = Submanifold.chart("S", ["r*cos(u1)", "r*sin(u1)"], [[0.0, 2.0 * math.pi]],
                               implicit=["(x1^2 + x2^2 - r^2)/2"], params={"r": r})
    got = pair_with_test(make_state(circle, 0.5, "1"), AmbientDensity.make(0.5, "1"))
    assert got.value == pytest.approx(2.0 * math.pi, rel=1e-10)


def test_tiny_tangent_is_not_annihilated_by_a_transverse_row():
    # [1, 0] @ (1e-10, 1e-10) is small in absolute terms, not relative to |t|
    line = Submanifold.affine("L", [0.0, 0.0], [1e-10, 1e-10])
    th = make_state(line, 0.5, "exp(-u1^2)", conormal=[[1.0, 0.0]], support=[[-1.0, 1.0]])
    with pytest.raises(ConormalMismatch):
        pair_with_test(th, gaussian_test())
    with pytest.raises(ConormalMismatch):
        Submanifold.affine("L", [0.0, 0.0], [1e-10, 1e-10], implicit=["x1"])


@pytest.mark.parametrize("s", [1e-10, 1e-12])
def test_a_transverse_row_on_a_short_tangent_column_is_a_mismatch(s):
    # the plane z = 0 spanned by (1, 0, 0) and (0, s, 0) has conormal (0, 0, 1);
    # (0, 1, 0) meets the short column at s, small only against the long one
    tangent = [[1.0, 0.0], [0.0, s], [0.0, 0.0]]
    with pytest.raises(ConormalMismatch):
        Submanifold.affine("P", [0.0] * 3, tangent, implicit=["x2"])
    with pytest.raises(ConormalMismatch):
        Submanifold.chart("P", ["u1", f"{s!r}*u2", "0"], [[-1.0, 1.0], [-1.0, 1.0]],
                          implicit=["x2"])
    th = make_state(Submanifold.affine("P", [0.0] * 3, tangent), 0.5, "1",
                    conormal=[[0.0, 1.0, 0.0]], support=[[-1.0, 1.0], [-1.0, 1.0]])
    with pytest.raises(ConormalMismatch):
        pair_with_test(th, AmbientDensity.make(0.5, "exp(-x1^2-x2^2-x3^2)"))


def _x_axis_r3(implicit=None):
    return Submanifold.affine("X3", [0.0] * 3, [1.0, 0.0, 0.0], implicit=implicit)


def _x_axis_r3_pairing(state):
    return pair_with_test(state, AmbientDensity.make(0.5, "exp(-x1^2-x2^2-x3^2)")).value


@pytest.mark.parametrize("s", [1e-6, 1e-10, 1e-12])
def test_pairing_does_not_depend_on_conormal_row_length(s):
    # rows (0, 1, 0) and (0, 0, s) meet only at 0; the dual normal s^-1 e3 makes
    # the value s^(-1/2) times the unit rows' value
    def pairing(s):
        return _x_axis_r3_pairing(make_state(_x_axis_r3(), 0.5, "1", support=[[-8.0, 8.0]],
                                             conormal=[[0.0, 1.0, 0.0], [0.0, 0.0, s]]))
    assert abs(pairing(s) - pairing(1.0) * s ** -0.5) <= 1e-12 * s ** -0.5


@pytest.mark.parametrize("a", [1.0, 1e-6, 1e-10])
def test_a_short_row_must_annihilate_on_its_own(a):
    # (a, 0, a) points 45 degrees off the conormal space whatever its length,
    # so the longer row (0, 1, 0) must not set the scale it is judged at
    th = make_state(_x_axis_r3(), 0.5, "1", support=[[-8.0, 8.0]],
                    conormal=[[0.0, 1.0, 0.0], [a, 0.0, a]])
    with pytest.raises(ConormalMismatch):
        _x_axis_r3_pairing(th)


def test_a_short_implicit_row_must_annihilate_on_its_own():
    # 1e-10*(x1+x3) is below the on-core tolerance on the construction grid,
    # but its gradient is 45 degrees off the conormal space
    with pytest.raises(ConormalMismatch):
        _x_axis_r3(implicit=["x2", "1e-10*(x1+x3)"])
    # the short row of 1e-10*(x3 + (x1^3 - x1)^2) is conormal at the samples
    # u = -1, 0, 1 and tilts between them
    core = _x_axis_r3(implicit=["x2", "1e-10*(x3 + (x1^3 - x1)^2)"])
    with pytest.raises(ConormalMismatch):
        frames_many(core, [[0.5]])
    with pytest.raises(ConormalMismatch):
        _x_axis_r3_pairing(make_state(core, 0.5, "1", support=[[-8.0, 8.0]]))


def test_implicit_rows_of_any_length_have_full_rank():
    core = _x_axis_r3(implicit=["x2", "1e-10*x3"])
    got = _x_axis_r3_pairing(make_state(core, 0.5, "1", support=[[-8.0, 8.0]]))
    want = _x_axis_r3_pairing(make_state(_x_axis_r3(), 0.5, "1", support=[[-8.0, 8.0]],
                                         conormal=[[0.0, 1.0, 0.0], [0.0, 0.0, 1e-10]]))
    assert abs(got - want) <= 1e-12 * abs(want)
    assert abs(got - SQRT_PI * 1e5) <= 1e-8 * SQRT_PI * 1e5


# the delta picture

def test_point_state_pairing_evaluates_the_test():
    x0 = np.array([0.3, -1.2])
    th = make_state(Submanifold.point("P", x0), 0.0, "1")
    phi = AmbientDensity.make(1.0, "exp(-x1^2 - x2^2)")
    got = pair_with_test(th, phi)
    assert got.error_estimate == 0.0
    assert got.value == pytest.approx(math.exp(-float(x0 @ x0)), rel=1e-14)


def test_point_state_pairing_with_general_degree():
    x0 = np.array([0.5, 0.25])
    th = make_state(Submanifold.point("P", x0), 0.25, "1")
    phi = AmbientDensity.make(0.75, "x1 + x2^2")
    got = pair_with_test(th, phi)
    assert got.value == pytest.approx(0.5625, rel=1e-14)


# gauge freedoms

def test_recombined_state_pairs_identically():
    th = make_state(tilted(0.6), 0.5, "exp(-u1^2)", support=[[-8.0, 8.0]])
    base = pair_with_test(th, gaussian_test()).value
    for b in ([[2.5]], [[-0.3]], [[7.0]]):
        same = pair_with_test(recombine_conormal(th, b), gaussian_test()).value
        assert abs(same - base) <= 1e-12 * abs(base)


def test_recombination_scales_the_coefficient():
    th = make_state(x_axis(), 0.5, "exp(-u1^2)", support=[[-1.0, 1.0]])
    out = recombine_conormal(th, [[4.0]])
    factor = det_abs_pow([[4.0]], 0.5)  # |det b|^(1 - alpha)
    assert out.coeff((0.2,)) == pytest.approx(factor * th.coeff((0.2,)), rel=1e-14)
    assert isinstance(out.coeff, ExprField)  # expression trees stay trees
    assert np.allclose(out.conormal.rows_at([0.2]),
                       4.0 * th.conormal.rows_at([0.2]))


def test_recombination_by_a_non_square_matrix_is_typed():
    th = make_state(Submanifold.affine("Q", [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]), 0.5, "1")
    with pytest.raises(FrameShapeMismatch, match=r"square matrix, got shape \(2, 3\)") as info:
        recombine_conormal(th, np.ones((2, 3)))
    assert isinstance(info.value, InputError) and isinstance(info.value, ValueError)
    assert info.value.exit_code == 2


def test_recombination_of_callable_coefficients():
    th = make_state(x_axis(), 0.5, lambda u: math.exp(-u[0] ** 2),
                    support=[[-8.0, 8.0]])
    assert isinstance(th.coeff, FuncField)
    out = recombine_conormal(th, [[2.0]])
    base = pair_with_test(th, gaussian_test()).value
    same = pair_with_test(out, gaussian_test()).value
    assert same == pytest.approx(base, rel=1e-12)


def test_recombined_point_state_pairs_identically():
    th = make_state(Submanifold.point("P", [0.4, 0.1]), 0.0, "1")
    phi = AmbientDensity.make(1.0, "exp(-x1^2 - x2^2)")
    base = pair_with_test(th, phi).value
    rng = np.random.default_rng(9)
    b = rng.normal(size=(2, 2)) + 2.0 * np.eye(2)
    same = pair_with_test(recombine_conormal(th, b), phi).value
    assert same == pytest.approx(base, rel=1e-12)


def test_pairing_ignores_the_normal_representative():
    # any dual solution differs by tangential columns; the pairing is blind to them
    th = make_state(tilted(1.1), 0.5, "exp(-u1^2)", support=[[-8.0, 8.0]])
    base = pair_with_test(th, gaussian_test()).value

    def shifted_solver(nu, t):
        n = dual_normal_frame(nu, t)
        if t.shape[1]:
            n = n + t @ np.full((t.shape[1], n.shape[1]), 0.7)
        return n

    got = pair_with_test(th, gaussian_test(), normal_solver=shifted_solver).value
    assert got == pytest.approx(base, rel=1e-12)


# chart reparametrization

def test_pairing_survives_reparametrization():
    # u = v^3 + v maps [-1.5, 1.5] onto [-4.875, 4.875]; a half-density
    # coefficient picks up |du/dv|^(1/2)
    flat = make_state(x_axis(), 0.5, "exp(-u1^2)",
                      support=[[-4.875, 4.875]])
    curved_core = Submanifold.chart("Xv", ["u1^3 + u1", "0"], [[-1.5, 1.5]])
    curved = make_state(curved_core, 0.5,
                        "exp(-(u1^3 + u1)^2) * sqrt(3*u1^2 + 1)")
    phi = gaussian_test()
    a = pair_with_test(flat, phi).value
    b = pair_with_test(curved, phi).value
    assert abs(a - b) <= 1e-7 * abs(a)


# the factor path against the array integrand it replaced on affine cores

def _array_pairing(state, phi, solver=None):
    # the whole-grid integrand pair_with_test used before tests pulled back: the state
    # coefficient times the test at the core's points times the frame factors, one array
    def integrand(grid):
        points, tangents, rows = frames_many(state.core, grid)
        rows = state.conormal.rows_many(grid, rows)
        factors = frame_factors(tangents, rows, phi.degree, solver)
        return state.coeff.eval_many(grid) * (phi.coeff.eval_many(points) * factors.reshape(
            grid.dims if len(factors) > 1 else ()))
    return integrate(lambda g: (integrand,), intersect_boxes(state.core.domain, state.support))[0]


SHEARED = Submanifold.affine("S", [0.3, -0.2, 0.1],
                             np.transpose([[1.0, 0.5, 0.0], [0.4, 1.0, 0.7]]))
PLANE_R4 = Submanifold.affine("Q", [0.1, 0.2, 0.3, 0.4],
                              np.transpose([[1.0, 0.0, 0.0, 2.0], [0.0, 3.0, 0.0, -1.0]]))
GAUSS_R3 = "exp(-((x1-0.5)^2+(x2+0.25)^2+(x3-0.75)^2)/0.8)"


def _shifted_normals(nu, t):
    return dual_normal_frame(nu, t) + t @ np.full((t.shape[1], nu.shape[0]), 0.3)


def _factor_path_cases():
    # (state, test, solver, whether the test pulls back as a tree)
    box = [[-2.0, 2.0], [-1.5, 1.5]]
    sheared = make_state(SHEARED, 0.5, "exp(-u1^2/3)*cos(u2)", support=box)
    rows = make_state(PLANE_R4, 0.25, "exp(-u1^2-u2^2)",
                      conormal=[[0.0, 0.0, 0.6, 0.0], [-6.0, 1.0, 0.0, 3.0]], support=box)
    gauss_r4 = "exp(-((x1-0.2)^2+(x2-0.1)^2+x3^2+(x4+0.3)^2)/2)"
    complex_test = ExprField(parse(GAUSS_R3), parse("x1/2 - x3"), prefix="x")
    return {
        "sheared": (sheared, AmbientDensity.make(0.5, GAUSS_R3), None, True),
        "unsplit": (sheared, AmbientDensity.make(0.5, "1/(1+x1^2+x2^2+x3^2)"), None, True),
        "complex test": (sheared, AmbientDensity.make(0.5, complex_test), None, True),
        "complex degree": (make_state(SHEARED, 0.4 + 0.2j, "exp(-u2^2)", support=box),
                           AmbientDensity.make(0.6 - 0.2j, GAUSS_R3), None, True),
        "callable test": (sheared, AmbientDensity.make(
            0.5, lambda x: math.exp(-x @ x) * (1.0 + 0.5j * x[0])), None, False),
        "declared rows": (rows, AmbientDensity.make(0.75, gauss_r4), None, True),
        "recombined": (recombine_conormal(rows, [[1.0, 2.0], [0.5, 3.0]]),
                       AmbientDensity.make(0.75, gauss_r4), None, True),
        "solver": (sheared, AmbientDensity.make(0.5, GAUSS_R3), _shifted_normals, True),
    }


@pytest.mark.parametrize("name", list(_factor_path_cases()))
def test_factor_path_matches_the_array_integrand(name):
    state, phi, solver, pulled = _factor_path_cases()[name]
    test = restrict(phi, state.core, state.conormal, solver)
    assert isinstance(test, ExprField) == pulled
    got = pair_with_test(state, phi, normal_solver=solver).value
    want = _array_pairing(state, phi, solver)
    assert abs(got - want) <= 1e-13 * abs(want), (got, want)


def test_a_sheared_tangent_keeps_its_cross_term():
    # T^T T is not diagonal, so the pulled-back Gaussian has a u1 u2 group of its own
    test = restrict(AmbientDensity.make(0.5, GAUSS_R3), SHEARED)
    grid = Grid([np.linspace(-1.0, 1.0, 3), np.linspace(-1.0, 1.0, 4)])
    shapes = [np.shape(f) for f in test.factors(grid)]
    assert (3, 4) in shapes and (3, 1) in shapes


def _benchmark_workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module by name
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", range(1, 7))
def test_benchmark_affine_pairings_match_the_array_integrand(seed):
    bench = _benchmark_workloads()
    for case in bench.make_cases(bench.WORKLOADS["affine-pairs"], seed):
        scene = scene_from_dict(case.files["scene.json"])
        for request in scene.requests:
            state, phi = scene.states[request["state"]], scene.tests[request["test"]]
            assert isinstance(restrict(phi, state.core, state.conormal), ExprField)
            got, want = pair_with_test(state, phi).value, _array_pairing(state, phi)
            assert abs(got - want) <= 1e-13 * abs(want), (request, got, want)


def _evaluations_per_level(monkeypatch, state, phi):
    # (exprlang.evaluate calls, factors) of each level, from its rule to its sum
    calls, levels, made = [0], [], []
    evaluate, rule, total = exprlang.evaluate, quadrature.tensor_rule, quadrature.weighted_sum

    def counted(*args):
        calls[0] += 1
        return evaluate(*args)

    def summed(f, grid, w):
        value = total(lambda g: made.append(f(g)) or made[-1], grid, w)
        levels[-1] = (calls[0] - levels[-1][0], len(made.pop()), grid.dims)
        return value

    monkeypatch.setattr(exprlang, "evaluate", counted)
    monkeypatch.setattr(quadrature, "tensor_rule",
                        lambda *a: levels.append((calls[0], None)) or rule(*a))
    monkeypatch.setattr(quadrature, "weighted_sum", summed)
    pair_with_test(state, phi)
    return levels


def test_each_factor_group_is_evaluated_once_per_level(monkeypatch):
    # a level's factors, split groups and whole multiplicands, are each evaluated once
    state, phi, _, _ = _factor_path_cases()["sheared"]
    levels = _evaluations_per_level(monkeypatch, state, phi)
    # exp(-u1^2/3), cos(u2), the frame factor and the test's four groups
    assert levels and all(level[:2] == (7, 7) for level in levels), levels


def test_a_level_of_row_blocks_evaluates_each_group_once(monkeypatch):
    # a sheared 3-plane in R^4 against a Gaussian: T^T T is not diagonal, so the test
    # has u_j u_l groups, which the range guard splits on this box; its order-64 level is
    # two row blocks, and still evaluates the coefficient, the test's seven groups and
    # its frame factor once
    core = Submanifold.affine("S", [0.3, -0.2, 0.1, 0.05], np.transpose(
        [[1.0, 0.5, 0.0, 0.2], [0.4, 1.0, 0.7, 0.0], [0.0, 0.3, 1.0, 0.6]]))
    state = make_state(core, 0.25, "1", support=[[-2.5, 2.5]] * 3)
    phi = AmbientDensity.make(0.75, "exp(-((x1-0.5)^2+(x2+0.25)^2+(x3-0.75)^2+(x4-0.2)^2)/0.1)")
    contract, blocks = quadrature._contract, []
    monkeypatch.setattr(quadrature, "_contract", lambda *a: blocks.append(a[1]) or contract(*a))
    levels = _evaluations_per_level(monkeypatch, state, phi)
    assert [level[2][0] for level in levels][:3] == [32, 45, 64]
    assert sorted(b for b in blocks if b[1:] == (64, 64)) == [(16, 64, 64), (48, 64, 64)]
    assert all(level[:2] == (9, 9) for level in levels), levels
