"""Transverse products and the partial inner product.

Closed forms used here: two unit half-density lines meeting at angle phi
have inner product 1/|sin phi|; orthogonal Gaussian planes in R^3 give
sqrt(pi/2) along their common line.  The latter is checked against a
composite-Simpson value computed independently and frozen.
``reference_product`` evaluates the coefficient the long way, through the
change-of-basis matrices M1 and M2, and the frame-factor coefficient must
match it at rel 1e-12 on flat, curved and gauge-shifted cases.
"""
import importlib
import math
import re

import numpy as np
import pytest

from geodens import geometry, quadrature, states
from geodens.errors import (
    AmbientMismatch,
    ConormalMismatch,
    DegreeMismatch,
    DimensionMismatch,
    NotOnBothCores,
    TransversalityFailure,
    UnboundedDomain,
)
from geodens.geometry import (
    Submanifold,
    chart_invert,
    frames_at,
    frames_many,
    intersect,
    transversality_check,
)
from geodens.linalg import change_of_basis, det_abs_pow, dual_normal_frame, frame_factors
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
        with pytest.raises(AmbientMismatch) as err:
            op(th1, th2, Submanifold.point("E", [0.0, 0.0, 0.0]))
        assert err.value.exit_code == 2


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
    with pytest.raises(UnboundedDomain):
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
    base = product_at_point(th1, th2, e, [0.6])
    got = product_at_point(th1, th2, e, [0.6], dual_solver=shifted_solver)
    assert got == pytest.approx(base, rel=1e-12)


def shifted_solver(nu, t):
    n = dual_normal_frame(nu, t)
    if t.shape[1]:
        n = n + t @ np.full((t.shape[1], n.shape[1]), 0.3)
    return n


def test_inner_product_via_intersect():
    # the geometry layer finds E; the product layer consumes it
    th1, th2 = tilted_pair(math.pi / 6)
    res = intersect(th1.core, th2.core)
    got = inner_product(th1, th2, res.core)
    assert got.value == pytest.approx(2.0, rel=1e-12)


# the frame-factor coefficient against the change-of-basis formula

def reference_product(theta1, theta2, core_e, w, solver):
    """g1 g2 |det M1|^alpha |det M2|^beta with [s | n_E] = [a | n_C] M1 = [b | n_D] M2."""
    x, s, _ = frames_at(core_e, w)
    u_c, u_d = (chart_invert(th.core, x[None])[0][0] for th in (theta1, theta2))
    a, b = frames_at(theta1.core, u_c)[1], frames_at(theta2.core, u_d)[1]
    nu_c, nu_d = theta1.conormal.rows_at(u_c), theta2.conormal.rows_at(u_d)
    w_star = np.hstack([s, solver(np.vstack([nu_c, nu_d]), s)])
    m1 = change_of_basis(np.hstack([a, solver(nu_c, a)]), w_star)
    m2 = change_of_basis(np.hstack([b, solver(nu_d, b)]), w_star)
    return (theta1.coeff(u_c) * theta2.coeff(u_d)
            * det_abs_pow(m1, theta1.degree) * det_abs_pow(m2, theta2.degree))


def line_and_circle():
    line_core = Submanifold.affine("L", [0.0, 0.4], [1.0, 0.2])
    circle = Submanifold.chart("S", ["cos(u1)", "sin(u1)"], [[0.0, 2.0 * math.pi]],
                               implicit=["(x1^2 + x2^2 - 1)/2"])
    th1 = make_state(line_core, 0.3 + 0.2j, "exp(-u1^2)")
    th2 = make_state(circle, 0.7 - 0.2j, "cos(u1) + 2")
    points = intersect(line_core, circle).point_cores()
    assert len(points) == 2
    return th1, th2, points


def sphere_and_plane():
    sphere = Submanifold.chart("P", ["sin(u1)*cos(u2)", "sin(u1)*sin(u2)", "cos(u1)"],
                               [[0.3, 1.2], [0.0, 1.5]])
    plane = Submanifold.affine("Z", [0.0, 0.0, 0.5], [[1, 0], [0, 1], [0, 0]])
    ring = Submanifold.chart("R", ["r*cos(u1)", "r*sin(u1)", "0.5"], [[0.1, 1.4]],
                             params={"r": math.sqrt(3.0) / 2.0})
    th1 = make_state(sphere, 0.4, "u1*exp(-u2^2)")
    th2 = make_state(plane, 0.6, "exp(-u1^2 - u2^2)")
    return th1, th2, ring


def _product_cases():
    # (name, theta1, theta2, E, E coordinates, dual solver)
    th1, th2 = tilted_pair(math.pi / 5, alpha=0.3, beta=0.45)
    cases = [("tilted lines", th1, th2, origin(), [np.zeros(0)], dual_normal_frame)]
    th1, th2, e = crossed_planes()
    cases += [("crossed planes", th1, th2, e, [[-1.0], [0.0], [0.7]], dual_normal_frame),
              ("shifted solver", th1, th2, e, [[0.6], [-1.3]], shifted_solver)]
    th1, th2, points = line_and_circle()
    recombined = recombine_conormal(th1, [[-2.5]]), recombine_conormal(th2, [[0.4]])
    for p in points:
        cases += [("line x circle", th1, th2, p, [np.zeros(0)], dual_normal_frame),
                  ("recombined", *recombined, p, [np.zeros(0)], dual_normal_frame)]
    th1, th2, ring = sphere_and_plane()
    return cases + [("sphere x plane", th1, th2, ring, [[0.2], [0.8], [1.3]],
                     dual_normal_frame)]


@pytest.mark.parametrize("case", _product_cases(), ids=lambda case: case[0])
def test_product_matches_the_change_of_basis_formula(case):
    _, th1, th2, e, coords, solver = case
    for w in coords:
        got = product_at_point(th1, th2, e, w, dual_solver=solver)
        want = reference_product(th1, th2, e, w, solver)
        assert abs(got - want) <= 1e-12 * abs(want)
        assert abs(want) > 1e-3


# the product state's conormal family on a stack

@pytest.mark.parametrize("factors", [crossed_planes, sphere_and_plane])
def test_product_rows_many_matches_rows_at(factors):
    th1, th2, e = factors()
    family = product(th1, th2, e).conormal
    coords = np.linspace(0.2, 1.3, 6)[:, None]
    rows = family.rows_many(coords)
    per_point = np.array([family.rows_at(w) for w in coords])
    assert np.allclose(np.broadcast_to(rows, per_point.shape), per_point,
                       rtol=0.0, atol=1e-15)
    both_affine = th1.core.is_affine and th2.core.is_affine
    assert len(rows) == (1 if both_affine else len(coords))


def framed_cores(monkeypatch) -> list:
    """The cores that later frames_many and _frames calls sample, in call order."""
    cores = []
    for module in (geometry, states, importlib.import_module("geodens.product")):
        for name in ("frames_many", "_frames"):
            if hasattr(module, name):
                real = getattr(module, name)
                monkeypatch.setattr(module, name, lambda core, *a, real=real:
                                    cores.append(core) or real(core, *a))
    return cores


def test_product_family_samples_no_frame_on_e(monkeypatch):
    # the stacked rows come from the factors' own rows: E's frames would be thrown away
    th1, th2, e = sphere_and_plane()
    family = product(th1, th2, e).conormal
    x = e.points_at([[0.4]])
    want = np.concatenate([th.conormal.rows_at(chart_invert(th.core, x)[0][0])
                           for th in (th1, th2)])
    cores = framed_cores(monkeypatch)
    assert np.array_equal(family.rows_at([0.4]), want)
    assert cores and e not in cores


def test_product_family_of_declared_rows_samples_no_frame(monkeypatch):
    # declared rows are constant, so the stacked family reads them and frames no core
    th1, th2, x0 = scaled_crossing(1e6)
    family = product(th1, th2, Submanifold.point("E", [x0, 0.0])).conormal
    cores = framed_cores(monkeypatch)
    assert np.array_equal(family.rows_many(np.zeros((3, 0))),
                          np.concatenate([th1.conormal.rows_at([0.0]),
                                          th2.conormal.rows_at([0.0])])[None])
    assert cores == []


def test_product_rows_many_names_the_off_core_node():
    th1, th2, _ = crossed_planes()
    bump = Submanifold.chart("B", ["u1", "0", "exp(-100*(u1-1.5)^2)"], [[-2.0, 2.0]])
    coords = np.array([[-1.0], [0.0], [0.5], [1.5], [-0.5]])
    off = bump.points_at(coords)[3]
    with pytest.raises(NotOnBothCores, match=r"away from core 'P1'") as err:
        product(th1, th2, bump).conormal.rows_many(coords)
    assert str(off) in str(err.value)


# the on-core test at any coordinate scale

def scaled_crossing(lam, phi=math.pi / 6):
    """Lines at angle phi through (0.7 lam, 0), tangents lam long, conormals 1/lam:
    unit half-density states whose inner product is 1/sin(phi) at every lam."""
    x0 = 0.7 * lam
    c = Submanifold.affine("C", [0.0, 0.0], [lam, 0.0])
    d = Submanifold.chart("D", [f"{x0!r} + {lam!r}*u1*cos(p)", f"{lam!r}*u1*sin(p)"],
                          [[-2.0, 2.0]], params={"p": phi},
                          implicit=[f"(x2*cos(p) - (x1 - {x0!r})*sin(p))/{lam!r}"])
    th1 = make_state(c, 0.5, "1", conormal=[[0.0, 1.0 / lam]])
    th2 = make_state(d, 0.5, "1", conormal=[[-math.sin(phi) / lam, math.cos(phi) / lam]])
    return th1, th2, x0


@pytest.mark.parametrize("lam", [1e-6, 1.0, 1e6, 1e9, 1e10])
def test_on_core_test_does_not_depend_on_scale(lam):
    th1, th2, x0 = scaled_crossing(lam)
    got = inner_product(th1, th2, Submanifold.point("E", [x0, 0.0]))
    assert abs(got.value - 2.0) <= 1e-12 * 2.0
    assert transversality_check(th1.core, th2.core, [[x0, 0.0]]).samples[0].transverse


@pytest.mark.parametrize("m", range(-64, 65, 8))
def test_inner_product_does_not_depend_on_tangent_length(m):
    # scaling a tangent column scales |det [t | n]| and its singular-frame bound
    # alike: unit lines at 30 degrees pair to 2, lines with tangents 2^m long to 2^(1-m)
    c, d = (Submanifold.affine(name, [0.0, 0.0], 2.0 ** m * np.array(t))
            for name, t in (("C", [1.0, 0.0]), ("D", [math.sqrt(3.0) / 2, 0.5])))
    got = inner_product(make_state(c, 0.5, "1"), make_state(d, 0.5, "1"), origin()).value
    assert abs(got * 2.0 ** m - 2.0) <= 4e-15 * 2.0


@pytest.mark.parametrize("lam", [1e-6, 1.0, 1e6, 1e9, 1e10])
def test_a_point_off_the_core_is_named_at_every_scale(lam):
    th1, th2, x0 = scaled_crossing(lam)
    d = 1e-3 * max(lam, 1.0)  # far past on_core_tol, 1e-8 max(1, |x|)
    # off both lines, so C, checked first, is named; then on C and off D only
    for off, core in (([x0, d], "C"), ([x0 + d, 0.0], "D")):
        want = rf"^point {re.escape(str(np.array(off)))} is \S+ away from core '{core}'$"
        with pytest.raises(NotOnBothCores, match=want):
            inner_product(th1, th2, Submanifold.point("E", off))
        with pytest.raises(NotOnBothCores, match=want):
            transversality_check(th1.core, th2.core, [off])


@pytest.mark.parametrize("s", [1.0, 1e-6, 1e-10, 1e-12])
def test_inner_product_does_not_depend_on_conormal_row_length(s):
    # the axes meet only at 0 whatever length the x-axis conormal (0, s) has:
    # its state is s^(1/2) times the unit one, so the inner product is s^(-1/2)
    sx = make_state(line(0.0, "X"), 0.5, "1", conormal=[[0.0, s]])
    sy = make_state(line(math.pi / 2, "Y"), 0.5, "1")
    got = inner_product(sx, sy, origin()).value
    assert abs(got - s ** -0.5) <= 1e-12 * s ** -0.5


# reusing the frame factors from node to node is exact

def saddle_and_plane(x1="u1"):
    """The saddle x3 = x1 x2 against the plane y = 0, along the x-axis, where the
    saddle's conormal (0, -x1, 1) and its second tangent (0, 1, x1) turn.  With
    the chart's x1 = u1 every frame factor is still constant along the axis;
    a chart of varying speed in u1 makes the saddle's factor vary too."""
    saddle = Submanifold.chart("S", [x1, "u2", f"({x1})*u2"], [[-2.0, 2.0], [-2.0, 2.0]],
                               implicit=["x3 - x1*x2"])
    plane = Submanifold.affine("Y", [0.0] * 3, [[1, 0], [0, 0], [0, 1]])
    th1 = make_state(saddle, 0.3 + 0.1j, "exp(-(u1 - 0.3)^2/4)*(2 + u2)")
    th2 = make_state(plane, 0.7 - 0.1j, "cos(u1) + 2 + u2")
    return th1, th2, Submanifold.affine("X", [0.0] * 3, [1.0, 0.0, 0.0])


@pytest.mark.parametrize("x1", ["u1", "u1 + u1^3/3"])
def test_reuse_is_exact_where_the_frames_turn(x1):
    th1, th2, e = saddle_and_plane(x1)
    nodes = np.linspace(-1.5, 1.5, 9)[:, None]
    want = [reference_product(th1, th2, e, w, dual_normal_frame) for w in nodes]
    for order in (range(9), reversed(range(9))):
        for i in order:
            got = product_at_point(th1, th2, e, nodes[i])
            assert abs(got - want[i]) <= 1e-12 * abs(want[i])


def test_reuse_follows_pairs_that_alternate_on_one_core():
    # equal frames and rows, different degrees: the factors must not be shared
    th1, th2, e = crossed_planes()
    pairs = ((recombine_conormal(th1, [[-2.0]]), th2),
             (recombine_conormal(make_state(th1.core, 0.3, "exp(-u1^2)"), [[-2.0]]),
              make_state(th2.core, 0.7, "2 + sin(u1)")))
    want = {pair: [reference_product(*pair, e, [w], dual_normal_frame) for w in (-0.5, 0.4)]
            for pair in pairs}
    for _ in range(3):
        for pair, values in want.items():
            for w, v in zip((-0.5, 0.4), values):
                got = product_at_point(*pair, e, [w])
                assert abs(got - v) <= 1e-12 * abs(v)


def test_a_failing_probe_fails_every_time():
    th1, th2 = tilted_pair(math.pi / 4)
    e = origin()
    good = product_at_point(th1, th2, e, np.zeros(0))
    axis = make_state(Submanifold.affine("X", [0.0, 0.0], [1.0, 0.0]), 0.5, "1")
    parab = make_state(Submanifold.chart("P", ["u1", "u1^2"], [[-2.0, 2.0]],
                                         implicit=["x2 - x1^2"]), 0.5, "1")
    leaky = make_state(axis.core, 0.5, "1", conormal=[[1.0, 0.0]])
    for _ in range(2):
        with pytest.raises(TransversalityFailure):
            product_at_point(axis, parab, e, np.zeros(0))
        # a declared conormal that misses its tangent is named before the
        # stacked family's rank loss
        with pytest.raises(ConormalMismatch):
            product_at_point(leaky, leaky, e, np.zeros(0))
        assert product_at_point(th1, th2, e, np.zeros(0)) == good


# against the assembly of coefficients on stacks of one

def assembled_product(theta1, theta2, core_e, w):
    """g1 g2 f_C f_D f_E from chart_invert, the coefficients' eval_many on a stack
    of one and the three frame factors, in the order product_at_point multiplies."""
    x, s, _ = frames_many(core_e, np.reshape(w, (1, core_e.dim)))
    values, rows = [], []
    for th in (theta1, theta2):
        u = chart_invert(th.core, x)[0]
        frames = frames_many(th.core, u)
        rows.append(th.conormal.rows_many(u, frames[2]))
        values += [th.coeff.eval_many(u)[0], frame_factors(frames[1], rows[-1], -th.degree)[0]]
    f_e = frame_factors(s, np.concatenate(rows, axis=1), theta1.degree + theta2.degree)[0]
    return values[0] * values[2] * values[1] * values[3] * f_e


def _rescaled(th1, th2):
    # conormal rows of lengths 2.5 and 0.3, so that no frame factor is 1
    return recombine_conormal(th1, [[-2.5]]), recombine_conormal(th2, [[0.3]])


@pytest.mark.parametrize("factors, box", [(crossed_planes, [[-3.0, 3.0]]),
                                          (saddle_and_plane, [[-1.5, 1.5]])])
def test_product_matches_the_assembly_at_every_node(factors, box):
    th1, th2, e = factors()
    for pair in ((th1, th2), _rescaled(th1, th2)):
        for w in quadrature.tensor_rule(box, 32)[0].points():
            got, want = product_at_point(*pair, e, w), assembled_product(*pair, e, w)
            assert abs(got - want) <= 1e-14 * abs(want), w


def test_tilted_lines_product_matches_the_assembly():
    th1, th2 = tilted_pair(math.pi / 5, alpha=0.3, beta=0.45)
    for pair in ((th1, th2), _rescaled(th1, th2)):
        got = product_at_point(*pair, origin(), np.zeros(0))
        assert abs(got - assembled_product(*pair, origin(), np.zeros(0))) <= 1e-14 * abs(got)


# one product call per node

@pytest.mark.parametrize("factors", [crossed_planes, saddle_and_plane])
def test_one_dim_inner_makes_one_product_call_per_node(factors, monkeypatch):
    # counted the way the benchmark's tracer counts: through the module attribute
    calls, nodes = [], []
    module = importlib.import_module("geodens.product")  # the package exports product()
    point, total = module.product_at_point, quadrature.weighted_sum
    monkeypatch.setattr(module, "product_at_point",
                        lambda *args, **kw: calls.append(1) or point(*args, **kw))
    monkeypatch.setattr(quadrature, "weighted_sum",
                        lambda f, grid, w: nodes.append(len(w)) or total(f, grid, w))
    th1, th2, e = factors()
    th1, th2 = (make_state(th.core, 0.5, "exp(-u1^2 - u2^2)") for th in (th1, th2))
    inner_product(th1, th2, e, support=[[-1.5, 1.5]])
    assert sum(nodes) > 0 and len(calls) == sum(nodes) + 1
