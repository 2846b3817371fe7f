"""Cores: construction, frames, chart inversion, transversality, intersection."""
import math

import numpy as np
import pytest

from geodens.errors import (
    ConormalMismatch,
    DegenerateCovectors,
    ImmersionFailure,
    MissingImplicitForm,
    NoIntersectionFound,
    NotOnBothCores,
    RankDeficient,
    UserChartRequired,
)
from geodens.geometry import (
    Ambient,
    Submanifold,
    chart_invert,
    frames_at,
    intersect,
    transversality_check,
)
from geodens.product import inner_product
from geodens.states import make_state


def x_axis(name="X"):
    return Submanifold.affine(name, [0.0, 0.0], [1.0, 0.0])


def y_axis(name="Y"):
    return Submanifold.affine(name, [0.0, 0.0], [0.0, 1.0])


def unit_circle(name="S"):
    return Submanifold.chart(name, ["cos(u1)", "sin(u1)"],
                             [[0.0, 2.0 * math.pi]],
                             implicit=["(x1^2 + x2^2 - 1)/2"])


# construction

def test_ambient_range():
    with pytest.raises(ValueError):
        Ambient(0)
    with pytest.raises(ValueError):
        Ambient(11)


def test_affine_accepts_single_vector_tangent():
    c = Submanifold.affine("L", [1.0, 2.0], [3.0, 4.0])
    assert c.dim == 1
    assert c.form.tangent.shape == (2, 1)


def test_affine_rejects_rank_deficient_tangent():
    # tangent vectors are columns; these two are parallel
    with pytest.raises(RankDeficient):
        Submanifold.affine("bad", [0.0, 0.0, 0.0],
                           [[1.0, 2.0], [0.0, 0.0], [0.0, 0.0]])


def test_point_core():
    p = Submanifold.point("P", [1.0, -2.0])
    assert p.dim == 0 and p.ambient.dim == 2
    assert np.allclose(p.point_at(np.zeros(0)), [1.0, -2.0])
    assert p.domain is None


def test_chart_shape_validation():
    # chart dimension cannot exceed the ambient dimension it maps into
    with pytest.raises(ValueError):
        Submanifold.chart("C", ["u1 + u2"], [[-1.0, 1.0], [-1.0, 1.0]])
    Submanifold.chart("C", ["u1"], [[-1.0, 1.0]])  # full R^1 is fine


def test_chart_rejects_unbounded_or_inverted_domain():
    with pytest.raises(ValueError):
        Submanifold.chart("C", ["u1", "u1"], [[-np.inf, 1.0]])
    with pytest.raises(ValueError):
        Submanifold.chart("C", ["u1", "0"], [[2.0, 1.0]])


def test_chart_immersion_failure():
    # jacobian (2u, 3u^2) vanishes at u = 0
    with pytest.raises(ImmersionFailure):
        Submanifold.chart("cusp", ["u1^2", "u1^3"], [[-1.0, 1.0]])


def test_implicit_must_vanish_on_core():
    with pytest.raises(ValueError):
        Submanifold.chart("S", ["cos(u1)", "sin(u1)"], [[0.0, 6.28]],
                          implicit=["x1 + x2"])


def test_implicit_jacobian_must_have_full_rank():
    with pytest.raises(DegenerateCovectors):
        Submanifold.affine("X", [0.0, 0.0], [1.0, 0.0], implicit=["x2^2"])


def test_implicit_count():
    with pytest.raises(ValueError):
        Submanifold.affine("X", [0.0, 0.0], [1.0, 0.0],
                           implicit=["x2", "x2"])


def test_chart_params():
    c = Submanifold.chart("D", ["u1*cos(phi)", "u1*sin(phi)"], [[-2.0, 2.0]],
                          params={"phi": math.pi / 6})
    got = c.point_at([2.0])
    assert np.allclose(got, [2.0 * math.cos(math.pi / 6), 1.0])


# maps

def test_point_at_and_jacobian_on_circle():
    s = unit_circle()
    u = 0.7
    assert np.allclose(s.point_at([u]), [math.cos(u), math.sin(u)], atol=1e-15)
    jac = s.jacobian_at([u])
    assert np.allclose(jac[:, 0], [-math.sin(u), math.cos(u)], atol=1e-15)


def test_points_at_vectorized_matches_loop():
    s = unit_circle()
    coords = np.linspace(0.1, 6.0, 17)[:, None]
    many = s.points_at(coords)
    rows = np.array([s.point_at(u) for u in coords])
    assert np.allclose(many, rows, atol=1e-15)


def test_points_at_constant_component_broadcasts():
    c = Submanifold.chart("flatline", ["u1", "0"], [[-1.0, 1.0]])
    got = c.points_at(np.array([[0.2], [0.5]]))
    assert got.shape == (2, 2)
    assert np.allclose(got[:, 1], 0.0)


def test_seed_table_is_cached():
    s = unit_circle()
    assert s.seed_table() is s.seed_table()


# frames

def test_frames_without_implicit_use_the_complement():
    sample = frames_at(x_axis(), [0.3])
    assert np.allclose(sample.point, [0.3, 0.0])
    assert np.allclose(sample.tangent.matrix[:, 0], [1.0, 0.0])
    row = sample.conormal.matrix[0]
    assert abs(row @ sample.tangent.matrix[:, 0]) <= 1e-12
    assert np.linalg.norm(row) == pytest.approx(1.0)


def test_frames_with_implicit_use_its_jacobian():
    s = unit_circle()
    u = 1.1
    sample = frames_at(s, [u])
    assert np.allclose(sample.conormal.matrix[0],
                       [math.cos(u), math.sin(u)], atol=1e-12)
    assert abs(sample.conormal.matrix[0] @ sample.tangent.matrix[:, 0]) <= 1e-12


def test_frames_at_rejects_a_conormal_that_misses_the_tangent():
    # x2 + x1^3 - x1 vanishes at the validation samples u = -1, 0, 1 only
    core = Submanifold.affine("W", [0.0, 0.0], [1.0, 0.0],
                              implicit=["x2 + x1^3 - x1"])
    with pytest.raises(ConormalMismatch):
        frames_at(core, [0.5])


def test_frames_at_point_core():
    sample = frames_at(Submanifold.point("P", [2.0, 1.0]), np.zeros(0))
    assert sample.tangent.matrix.shape == (2, 0)
    assert sample.conormal.matrix.shape == (2, 2)
    assert np.allclose(sample.conormal.matrix @ sample.conormal.matrix.T, np.eye(2))


# chart inversion

def test_chart_invert_affine_is_exact():
    line = Submanifold.affine("L", [1.0, 0.0], [1.0, 1.0])
    u, resid = chart_invert(line, [3.0, 2.0])
    assert u[0] == pytest.approx(2.0, abs=1e-14)
    assert resid <= 1e-14
    u, resid = chart_invert(line, [3.0, 0.0])  # off the line
    assert resid == pytest.approx(math.sqrt(2.0), rel=1e-12)


def test_chart_invert_on_circle():
    s = unit_circle()
    for u0 in (0.3, 2.0, 5.5):
        u, resid = chart_invert(s, [math.cos(u0), math.sin(u0)])
        assert resid <= 1e-10
        assert u[0] == pytest.approx(u0, abs=1e-8)


def test_chart_invert_reports_off_core_distance():
    s = unit_circle()
    _, resid = chart_invert(s, [2.0, 0.0])
    assert resid == pytest.approx(1.0, abs=1e-6)


# transversality

def test_transverse_axes():
    rep = transversality_check(x_axis(), y_axis(), [[0.0, 0.0]])
    assert rep.expected_dim == 0
    assert rep.samples[0].rank == 2
    assert rep.all_transverse


def test_self_intersection_is_not_transverse():
    rep = transversality_check(x_axis(), x_axis("X2"), [[0.3, 0.0]])
    assert rep.samples[0].rank == 1
    assert not rep.all_transverse


def test_transversality_rejects_off_core_samples():
    with pytest.raises(NotOnBothCores):
        transversality_check(x_axis(), y_axis(), [[1.0, 1.0]])


# intersection

def test_intersect_axes():
    res = intersect(x_axis(), y_axis())
    assert res.dim == 0
    assert np.allclose(res.points[0], [0.0, 0.0], atol=1e-12)
    assert res.core is not None and res.core.dim == 0


def test_intersect_parallel_lines_fails():
    shifted = Submanifold.affine("X1", [0.0, 1.0], [1.0, 0.0])
    with pytest.raises(NoIntersectionFound):
        intersect(x_axis(), shifted)


def test_intersect_coincident_lines():
    res = intersect(x_axis(), x_axis("X2"))
    assert res.dim == 1
    assert res.core is not None
    assert np.allclose(np.abs(res.core.form.tangent[:, 0]), [1.0, 0.0], atol=1e-12)


def test_intersect_planes_gives_a_line():
    p1 = Submanifold.affine("P1", [0.0] * 3, [[1, 0], [0, 1], [0, 0]])
    p2 = Submanifold.affine("P2", [0.0] * 3, [[1, 0], [0, 0], [0, 1]])
    res = intersect(p1, p2)
    assert res.dim == 1
    direction = res.core.form.tangent[:, 0]
    assert np.allclose(np.abs(direction), [1.0, 0.0, 0.0], atol=1e-12)


def test_intersect_points():
    a = Submanifold.point("A", [1.0, 2.0])
    b = Submanifold.point("B", [1.0, 2.0])
    res = intersect(a, b)
    assert res.dim == 0 and np.allclose(res.points[0], [1.0, 2.0])
    with pytest.raises(NoIntersectionFound):
        intersect(a, Submanifold.point("C", [0.0, 0.0]))


def test_intersect_circle_with_line():
    res = intersect(x_axis(), unit_circle())
    assert res.dim == 0
    assert len(res.points) == 2
    got = sorted(p[0] for p in res.points)
    assert got[0] == pytest.approx(-1.0, abs=1e-9)
    assert got[1] == pytest.approx(1.0, abs=1e-9)
    cores = res.point_cores()
    assert len(cores) == 2 and all(c.dim == 0 for c in cores)


def test_intersect_circle_with_distant_line():
    far = Submanifold.affine("H", [0.0, 3.0], [1.0, 0.0])
    with pytest.raises(NoIntersectionFound):
        intersect(far, unit_circle())


def test_intersect_keeps_only_roots_on_the_chart_domain():
    # the full circle's implicit form also vanishes at (-h, -h), off the arc
    arc = Submanifold.chart("A", ["cos(u1)", "sin(u1)"], [[-1.0, 2.0]],
                            implicit=["(x1^2 + x2^2 - 1)/2"])
    h = 1.0 / math.sqrt(2.0)
    diagonal = Submanifold.affine("M", [0.0, 0.0], [h, h])
    res = intersect(diagonal, arc)
    assert len(res.points) == 1
    assert np.allclose(res.points[0], [h, h], atol=1e-12)
    sm = make_state(diagonal, 0.5, "1", support=[[-3.0, 3.0]])
    sa = make_state(arc, 0.5, "1", support=[[-1.0, 2.0]])
    got = inner_product(sm, sa, res.core)
    assert abs(got.value - 1.0) <= 1e-12


def test_intersect_curved_needs_implicit():
    cubic = Submanifold.chart("K", ["u1", "u1^3 - 2"], [[-2.0, 2.0]])
    with pytest.raises(MissingImplicitForm):
        intersect(x_axis(), cubic)


def test_intersect_positive_dimensional_curved_needs_a_chart():
    sheet = Submanifold.chart("Z", ["u1", "u2", "0"],
                              [[-2.0, 2.0], [-2.0, 2.0]])
    wall = Submanifold.affine("W", [0.0] * 3, [[1, 0], [0, 0], [0, 1]])
    with pytest.raises(UserChartRequired):
        intersect(sheet, wall)


def test_intersect_ambient_mismatch():
    with pytest.raises(ValueError):
        intersect(x_axis(), Submanifold.point("Q", [0.0, 0.0, 0.0]))
