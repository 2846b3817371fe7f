"""Geometric states and the pairing with test densities.

The invariance tests exercise the two gauge freedoms of the construction:
which conormal frame the state is written against, and which transverse
normal representatives the pairing integrand picks.  The reparametrization
test swaps a chart u = v^3 + v under a half-density and checks the pairing
does not move.  The cross-check compares the batched pairing integrand
with a per-node evaluation built from ``frames_at``.
"""
import math

import numpy as np
import pytest

from geodens.density import AmbientDensity
from geodens.errors import ConormalMismatch, DegreeMismatch, UnboundedDomain
from geodens.fields import ExprField, FuncField
from geodens.geometry import Submanifold, frames_at, frames_many
from geodens.linalg import det_abs_pow, dual_normal_frame
from geodens.states import (
    ConormalFamily,
    _pairing_integrand,
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
    circle = Submanifold.chart("S", ["cos(u1)", "sin(u1)"], [[0.0, 2.0 * math.pi]],
                               implicit=["(x1^2 + x2^2 - 1)/2"])
    sphere = Submanifold.chart("P", ["sin(u1)*cos(u2)", "sin(u1)*sin(u2)", "cos(u1)"],
                               [[0.3, 1.2], [0.0, 1.5]])
    slanted = Submanifold.affine("L", [0.0, 1.0], [1.0, 0.5],
                                 implicit=["x2 - 0.5*x1 - 1"])
    wavy = Submanifold.affine("W", [0.0, 0.0], [1.0, 0.0],
                              implicit=["x2*(1 + x1^2*(x1^2-1)^2)"])
    plane_test = AmbientDensity.make(0.6 - 0.2j, "exp(-x1^2 - x2^2)")
    space_test = AmbientDensity.make(0.6 - 0.2j, "exp(-x1^2 - x2^2 - x3^2)")
    return [(circle, "cos(u1)", plane_test, False),
            (sphere, "exp(-u2^2)*u1", space_test, False),
            (slanted, "exp(-u1^2)", plane_test, True),
            (wavy, "exp(-u1^2)", plane_test, False)]


@pytest.mark.parametrize("case", range(4))
def test_batched_integrand_matches_per_node_frames(case):
    core, coeff, phi, constant = _cross_check_cases()[case]
    th = make_state(core, 0.4 + 0.2j, coeff)
    box = core.domain if core.domain is not None else np.array([[-3.0, 3.0]])
    rng = np.random.default_rng(20261018 + case)
    coords = rng.uniform(box[:, 0], box[:, 1], size=(17, core.dim))
    got = _pairing_integrand(th, phi, dual_normal_frame)(coords)
    want = _per_node_integrand(th, phi, coords)
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))
    assert frames_many(core, coords)[1].shape[0] == (1 if constant else len(coords))


# annihilation is judged relative to max|nu| max|t|

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
    implicit = Submanifold.affine("L", [0.0, 0.0], [1e-10, 1e-10], implicit=["x1"])
    with pytest.raises(ConormalMismatch):
        frames_many(implicit, [[0.5]])


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
