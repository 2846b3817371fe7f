"""Cores: construction, frames, chart inversion, transversality, intersection."""
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from geodens import geometry
from geodens.errors import (
    AmbientMismatch,
    ConormalMismatch,
    DegenerateCovectors,
    GeometryError,
    ImmersionFailure,
    InputError,
    InvalidCore,
    MissingImplicitForm,
    NoIntersectionFound,
    NotOnBothCores,
    RankDeficient,
    UserChartRequired,
)
from geodens.geometry import (
    AffineForm,
    Ambient,
    ChartForm,
    Submanifold,
    chart_invert,
    frames_at,
    frames_many,
    intersect,
    transversality_check,
)
from geodens.product import inner_product
from geodens.quadrature import Grid
from geodens.scene import load_scene
from geodens.states import make_state

SCENES = Path(__file__).resolve().parent.parent / "scenes"


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
    with pytest.raises(InvalidCore):
        Ambient(0)
    with pytest.raises(InvalidCore):
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


@pytest.mark.parametrize("s", [1e-10, 1e-12])
def test_tangent_rank_does_not_depend_on_tangent_length(s):
    # the plane z = 0 at any chart scale: rank is judged on unit columns, and
    # the conormal row is the plane's normal
    cores = [Submanifold.affine("P", [0.0, 0.0, 0.0], [[1.0, 0.0], [0.0, s], [0.0, 0.0]]),
             Submanifold.chart("P", ["u1", f"{s!r}*u2", "0"], [[-1.0, 1.0], [-1.0, 1.0]])]
    for core in cores:
        _, tangents, rows = frames_many(core, np.array([[0.5, -0.25], [0.0, 1.0]]))
        assert np.array_equal(tangents[0], [[1.0, 0.0], [0.0, s], [0.0, 0.0]])
        assert np.allclose(np.abs(rows), [[0.0, 0.0, 1.0]], rtol=0.0, atol=1e-15)


def test_zero_tangent_column_is_rank_deficient():
    with pytest.raises(RankDeficient):
        Submanifold.affine("bad", [0.0, 0.0, 0.0], [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ImmersionFailure):
        Submanifold.chart("bad", ["u1", "0*u2", "0"], [[-1.0, 1.0], [-1.0, 1.0]])


def test_point_core():
    p = Submanifold.point("P", [1.0, -2.0])
    assert p.dim == 0 and p.ambient.dim == 2
    assert np.allclose(p.points_at(np.zeros((1, 0)))[0], [1.0, -2.0])
    assert p.domain is None


def test_chart_shape_validation():
    # chart dimension cannot exceed the ambient dimension it maps into
    with pytest.raises(InvalidCore):
        Submanifold.chart("C", ["u1 + u2"], [[-1.0, 1.0], [-1.0, 1.0]])
    Submanifold.chart("C", ["u1"], [[-1.0, 1.0]])  # full R^1 is fine


def test_chart_rejects_unbounded_or_inverted_domain():
    with pytest.raises(InvalidCore):
        Submanifold.chart("C", ["u1", "u1"], [[-np.inf, 1.0]])
    with pytest.raises(InvalidCore):
        Submanifold.chart("C", ["u1", "0"], [[2.0, 1.0]])


def test_chart_immersion_failure():
    # jacobian (2u, 3u^2) vanishes at u = 0: construction samples it there, and a
    # batch at u = 0 on a domain whose 5-point grid misses it fails in the same words
    with pytest.raises(ImmersionFailure) as built:
        Submanifold.chart("cusp", ["u1^2", "u1^3"], [[-1.0, 1.0]])
    cusp = Submanifold.chart("cusp", ["u1^2", "u1^3"], [[-1.0, 2.0]])
    with pytest.raises(ImmersionFailure) as sampled:
        frames_many(cusp, [[0.0]])
    assert str(built.value) == str(sampled.value)
    assert str(built.value) == "tangent frame of 'cusp' degenerates at u = [0.]"


def test_frames_on_a_grid_name_the_failing_node():
    # the 5-point validation grid of [-1, 2] misses the cusp at u1 = 0; the
    # flat index of the first bad node maps back to its grid coordinates
    cusp = Submanifold.chart("cusp", ["u1^2", "u1^3", "u2"], [[-1.0, 2.0], [0.0, 1.0]])
    grid = Grid([np.array([0.5, 0.0]), np.array([0.2, 0.7, 0.9])])
    with pytest.raises(ImmersionFailure) as info:
        frames_many(cusp, grid)
    assert str(np.array([0.0, 0.2])) in str(info.value)


def test_implicit_must_vanish_on_core():
    with pytest.raises(InvalidCore, match="implicit form of 'S' does not vanish") as info:
        Submanifold.chart("S", ["cos(u1)", "sin(u1)"], [[0.0, 6.28]],
                          implicit=["x1 + x2"])
    # an input error (exit 2) that is still the ValueError it was, as every
    # InvalidCore of the construction tests above is
    assert isinstance(info.value, InputError) and isinstance(info.value, ValueError)
    assert info.value.exit_code == 2


def test_implicit_jacobian_must_have_full_rank():
    with pytest.raises(DegenerateCovectors):
        Submanifold.affine("X", [0.0, 0.0], [1.0, 0.0], implicit=["x2^2"])


def test_implicit_rank_loss_off_the_construction_grid():
    # construction's 3-point grid of [-1, 1] misses u = 0.5, where the jacobian
    # (0, x1 - 0.5) vanishes; a batch there fails in _frames, the one place that
    # judges frames at construction too
    core = Submanifold.affine("L", [0, 0], [1, 0], implicit=["x2*(x1-0.5)"])
    with pytest.raises(DegenerateCovectors, match="implicit jacobian of 'L' loses rank"):
        frames_many(core, [[0.5]])


def test_implicit_count():
    with pytest.raises(InvalidCore):
        Submanifold.affine("X", [0.0, 0.0], [1.0, 0.0],
                           implicit=["x2", "x2"])


def test_chart_params():
    c = Submanifold.chart("D", ["u1*cos(phi)", "u1*sin(phi)"], [[-2.0, 2.0]],
                          params={"phi": math.pi / 6})
    got = c.points_at([[2.0]])[0]
    assert np.allclose(got, [2.0 * math.cos(math.pi / 6), 1.0])


# maps

def test_point_at_and_jacobian_on_circle():
    s = unit_circle()
    u = 0.7
    assert np.allclose(s.points_at([[u]])[0], [math.cos(u), math.sin(u)], atol=1e-15)
    jac = frames_many(s, [[u]])[1][0]
    assert np.allclose(jac[:, 0], [-math.sin(u), math.cos(u)], atol=1e-15)


def test_points_at_vectorized_matches_loop():
    s = unit_circle()
    coords = np.linspace(0.1, 6.0, 17)[:, None]
    many = s.points_at(coords)
    rows = np.array([s.points_at(u[None])[0] for u in coords])
    assert np.allclose(many, rows, atol=1e-15)


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_affine_points_at_is_bitwise_the_row_product(k):
    # points_at multiplies (n, k) @ (k, N); the rows' own (N, k) @ (k, n)
    # product must give the same bits
    rng = np.random.default_rng(31 + k)
    for n in (max(k, 1), k + 1, 4):
        base = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4)
        tangent = rng.normal(size=(n, k)) * 10.0 ** rng.integers(-3, 4)
        core = Submanifold.affine("A", base, tangent)
        for size in (1, 3, 64, 5000):
            coords = rng.normal(size=(size, k)) * 10.0 ** rng.integers(-3, 4)
            want = base + coords @ tangent.T
            assert core.points_at(coords).tobytes() == want.tobytes()


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
    point, tangent, rows = frames_at(x_axis(), [0.3])
    assert np.allclose(point, [0.3, 0.0])
    assert np.allclose(tangent[:, 0], [1.0, 0.0])
    row = rows[0]
    assert abs(row @ tangent[:, 0]) <= 1e-12
    assert np.linalg.norm(row) == pytest.approx(1.0)


def test_frames_with_implicit_use_its_jacobian():
    s = unit_circle()
    u = 1.1
    _, tangent, rows = frames_at(s, [u])
    assert np.allclose(rows[0], [math.cos(u), math.sin(u)], atol=1e-12)
    assert abs(rows[0] @ tangent[:, 0]) <= 1e-12


def test_frames_at_rejects_a_conormal_that_misses_the_tangent():
    # x2 + x1^3 - x1 vanishes at the validation samples u = -1, 0, 1 only, but
    # its rows miss the tangent there, so construction refuses it
    with pytest.raises(ConormalMismatch):
        Submanifold.affine("W", [0.0, 0.0], [1.0, 0.0], implicit=["x2 + x1^3 - x1"])
    # the rows of x2 + (x1^3 - x1)^2 are (0, 1) at the samples and tilt between them
    core = Submanifold.affine("W", [0.0, 0.0], [1.0, 0.0],
                              implicit=["x2 + (x1^3 - x1)^2"])
    with pytest.raises(ConormalMismatch):
        frames_at(core, [0.5])


def test_frames_at_point_core():
    _, tangent, rows = frames_at(Submanifold.point("P", [2.0, 1.0]), np.zeros(0))
    assert tangent.shape == (2, 0)
    assert rows.shape == (2, 2)
    assert np.allclose(rows @ rows.T, np.eye(2))


# chart inversion

def test_chart_invert_affine_is_exact():
    line = Submanifold.affine("L", [1.0, 0.0], [1.0, 1.0])
    u, resid = chart_invert(line, [[3.0, 2.0], [3.0, 0.0]])  # on and off the line
    assert u[0, 0] == pytest.approx(2.0, abs=1e-14)
    assert resid[0] <= 1e-14
    assert resid[1] == pytest.approx(math.sqrt(2.0), rel=1e-12)


def test_chart_invert_on_circle():
    u0 = np.array([0.3, 2.0, 5.5])
    u, resid = chart_invert(unit_circle(), np.stack([np.cos(u0), np.sin(u0)], axis=1))
    assert u.shape == (3, 1) and resid.shape == (3,)
    assert np.all(resid <= 1e-10)
    assert u[:, 0] == pytest.approx(u0, abs=1e-8)


def test_chart_invert_stops_rows_that_have_converged(monkeypatch):
    # points 1e-11 off the circle, as Newton intersection points are: once a
    # row's undamped step is at round-off it stops, where halving that step
    # down to DAMPING_FLOOR took about 27 residual evaluations more
    residuals = []
    solve = geometry._gauss_newton

    def counting(residual, *args):
        return solve(lambda u: residuals.append(1) or residual(u), *args)

    monkeypatch.setattr(geometry, "_gauss_newton", counting)
    t = np.linspace(0.1, 6.2, 20)
    radius = 1.0 + 1e-11 * np.cos(7.0 * t)
    u, resid = chart_invert(unit_circle(), np.stack([radius * np.cos(t), radius * np.sin(t)], axis=1))
    assert np.allclose(resid, np.abs(radius - 1.0), rtol=0.0, atol=1e-15)
    assert np.allclose(u[:, 0], t, rtol=0.0, atol=1e-13)
    assert len(residuals) <= 6


def test_chart_invert_reports_off_core_distance():
    _, resid = chart_invert(unit_circle(), [[2.0, 0.0]])
    assert resid[0] == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("centre, radius", [((0.0, 0.0), 1.0), ((0.37, -0.21), 1.3),
                                            ((-0.45, 0.12), 0.85)])
def test_chart_invert_across_the_periodic_seam(centre, radius):
    # u = 0 and u = 2 pi map to the same point: the nearest seed must be
    # chosen from exact distances there, one row at a time or stacked
    cx, cy = centre
    s = Submanifold.chart("S", [f"{cx!r}+{radius!r}*cos(u1)", f"{cy!r}+{radius!r}*sin(u1)"],
                          [[0.0, 2.0 * math.pi]])
    t = np.linspace(-0.3, 0.3, 41)
    x = np.stack([cx + radius * np.cos(t), cy + radius * np.sin(t)], axis=1)
    for p in x:
        assert chart_invert(s, p[None])[1][0] <= 1e-10
    u, resid = chart_invert(s, x)
    assert u.shape == (41, 1)
    assert np.all(resid <= 1e-10)


@pytest.mark.parametrize("core, points", [
    (unit_circle(), [[1.0, 0.0], [0.0, -1.0], [0.6, 0.8], [2.0, 0.0], [-0.3, 0.1]]),
    (Submanifold.chart("P", ["sin(u1)*cos(u2)", "sin(u1)*sin(u2)", "cos(u1)"],
                       [[0.3, 1.2], [0.0, 1.5]]),
     [[0.5, 0.4, math.sqrt(0.59)], [0.2, 0.7, 0.7], [0.0, 0.0, 1.0]]),
    (Submanifold.affine("L", [1.0, 0.0], [1.0, 1.0]), [[3.0, 2.0], [3.0, 0.0], [-1.0, 5.0]]),
    (Submanifold.point("Q", [2.0, 1.0]), [[2.0, 1.0], [0.0, 0.0]]),
])
def test_stacked_chart_invert_matches_single_points(core, points):
    # each row inverts as it would in a stack of one
    u, resid = chart_invert(core, points)
    assert u.shape == (len(points), core.dim) and resid.shape == (len(points),)
    for p, ui, ri in zip(points, u, resid):
        u1, r1 = chart_invert(core, [p])
        assert ui == pytest.approx(u1[0], rel=1e-12, abs=1e-300)
        assert ri == pytest.approx(r1[0], rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("n,k", [(2, 0), (2, 1), (3, 1), (3, 2), (4, 2), (4, 4)])
def test_affine_chart_invert_matches_least_squares(n, k):
    # the cached pseudo-inverse against one lstsq per call, on and off the core
    rng = np.random.default_rng([41, n, k])
    base = rng.normal(size=n)
    core = Submanifold.affine("A", base, rng.normal(size=(n, k)))
    u0 = rng.normal(size=(6, k)) * 10.0 ** rng.integers(-3, 4, size=(6, 1))
    x = core.points_at(u0) + np.vstack([np.zeros((3, n)), rng.normal(size=(3, n))])
    for _ in range(2):  # the second call reads the cached pseudo-inverse
        u, resid = chart_invert(core, x)
        want = np.linalg.lstsq(core.form.tangent, (x - base).T, rcond=None)[0].T
        assert u.shape == (6, k)
        assert np.all(np.abs(u - want) <= 1e-12 * np.abs(want).max(initial=1.0))
        want_resid = np.linalg.norm(core.points_at(want) - x, axis=1)
        assert np.all(np.abs(resid - want_resid)
                      <= 1e-12 * np.maximum(want_resid, np.abs(x).max(axis=1)))
    assert np.all(resid[:3] <= 1e-12 * np.abs(x[:3]).max())
    assert np.all(resid[3:] > 1e-3) or k == n  # a full-dimensional core has no off
    assert not core._cache["pinv"].flags.writeable


def first_newton_step(jac, r0):
    """The step of _gauss_newton's first iteration from u = 0, read from its first trial:
    the trial's residual is zero, so the trial is taken and every row stops."""
    trials = []

    def residual(u):
        trials.append(u.copy())
        return r0.copy() if len(trials) == 1 else np.zeros_like(r0)

    geometry._gauss_newton(residual, lambda u: jac, np.zeros((len(r0), jac.shape[2])),
                           None, 0.0)
    assert len(trials) == 2
    return trials[1]


def assert_pinv_step(step, jac, r0):
    want = -(np.linalg.pinv(jac) @ r0[:, :, None])[..., 0]
    assert np.all(np.linalg.norm(step - want, axis=1) <= 1e-13 * np.linalg.norm(want, axis=1))


@pytest.mark.parametrize("q, k", [(1, 1), (2, 1), (3, 2), (4, 4), (6, 3)])
def test_newton_step_is_the_pseudo_inverse_step(q, k):
    # the step from one SVD against -pinv(J) r, one jacobian per row and one for all rows
    rng = np.random.default_rng([7, q, k])
    r0 = rng.normal(size=(9, q)) * 10.0 ** rng.integers(-4, 5, size=(9, 1))
    for jac in (rng.normal(size=(9, q, k)), rng.normal(size=(1, q, k)) * 1e3):
        assert_pinv_step(first_newton_step(jac, r0), jac, r0)


@pytest.mark.parametrize("q, k", [(2, 2), (3, 2), (5, 3)])
def test_newton_step_takes_no_part_along_a_zero_singular_value(q, k):
    # a rank k - 1 jacobian: its null direction gets no step, as pinv's cutoff gives
    rng = np.random.default_rng([8, q, k])
    left = np.linalg.qr(rng.normal(size=(9, q, q)))[0][..., :k]
    right = np.linalg.qr(rng.normal(size=(9, k, k)))[0]
    sv = np.concatenate([rng.uniform(0.5, 2.0, size=(9, k - 1)), np.zeros((9, 1))], axis=1)
    jac = left @ (sv[:, :, None] * np.swapaxes(right, 1, 2))
    r0 = rng.normal(size=(9, q))
    step = first_newton_step(jac, r0)
    assert_pinv_step(step, jac, r0)
    null = right[:, :, -1]
    assert np.all(np.abs(np.sum(null * step, axis=1)) <= 1e-13 * np.linalg.norm(step, axis=1))


def stacked_points(core, coords):
    """The chart map at (N, k) coordinates as it was formed before: np.stack over views."""
    return np.stack([np.broadcast_to(x, coords.shape[:1]) for x in core._map(coords.T)], axis=1)


@pytest.mark.parametrize("name", sorted(p.name for p in SCENES.glob("*.json")
                                         if '"chart"' in p.read_text()))
def test_chart_points_are_the_stacked_map(name):
    # every chart of every scene, and one with a constant component, on coordinate
    # arrays and on the flat points of a Grid
    charts = [c for c in load_scene(SCENES / name).cores.values() if not c.is_affine]
    charts.append(Submanifold.chart("F", ["u1", "0.5", "u1^2"], [[-1.0, 2.0]]))
    rng = np.random.default_rng(3)
    for core in charts:
        box = core.domain
        grid = Grid([np.linspace(lo, hi, 7) for lo, hi in box]).points()
        for coords in (rng.uniform(box[:, 0], box[:, 1], (11, core.dim)), grid, grid[:1]):
            got = core.points_at(coords)
            assert got.shape == (len(coords), core.ambient.dim)
            assert got.tobytes() == stacked_points(core, coords).tobytes()


def test_chart_invert_off_the_circle_fails_where_newton_never_settles():
    # the iterates for (0, 2), off the circle, never settle; only the category is pinned
    with pytest.raises(GeometryError):
        chart_invert(unit_circle(), [[0.0, 2.0]])


def test_a_replaced_core_builds_its_own_caches():
    # the caches belong to one core: a replaced form must not read the old one's
    core = x_axis()
    frames_many(core, [[0.5]])
    chart_invert(core, [[0.0, 1.0]])
    y = dataclasses.replace(core, form=AffineForm(np.zeros(2), np.array([[0.0], [1.0]])))
    assert frames_many(y, [[0.5]])[1][0, :, 0].tolist() == [0.0, 1.0]
    u, resid = chart_invert(y, [[0.0, 1.0]])
    assert u.tolist() == [[1.0]] and resid.tolist() == [0.0]


def test_a_core_keeps_its_own_arrays():
    # editing the caller's arrays after construction reaches neither the core's
    # form nor what it cached from it: the pseudo-inverse, the frames
    base, tangent, domain = np.zeros(2), np.array([1.0, 0.0]), np.array([[0.0, 1.0]])
    line = Submanifold.affine("X", base, tangent)
    chart = Submanifold.chart("A", ["u1", "u1^2"], domain)
    chart_invert(line, [[2.0, 0.0]])
    base[:], tangent[:], domain[:] = [0.0, 5.0], [0.0, 1.0], [[3.0, -3.0]]
    assert line.points_at([[2.0]]).tolist() == [[2.0, 0.0]]
    u, resid = chart_invert(line, line.points_at([[2.0]]))
    assert u.tolist() == [[2.0]] and resid.tolist() == [0.0]
    assert frames_many(line, [[0.5]])[1][0, :, 0].tolist() == [1.0, 0.0]
    assert chart.domain.tolist() == [[0.0, 1.0]]
    for a in (line.form.base, line.form.tangent, chart.domain):
        assert not a.flags.writeable


def test_a_core_built_from_its_form_keeps_its_own_arrays():
    # the form copies, so a core built from it directly or by replace is covered too
    t = np.array([[1.0], [0.0]])
    line = Submanifold("X", Ambient(2), 1, AffineForm(np.zeros(2), t))
    moved = dataclasses.replace(line, form=AffineForm(np.zeros(2), t))
    chart_invert(line, [[2.0, 0.0]])
    t[:] = [[0.0], [1.0]]
    for core in (line, moved):
        u, resid = chart_invert(core, core.points_at([[2.0]]))
        assert u.tolist() == [[2.0]] and resid.tolist() == [0.0]
        assert core.form.tangent.tolist() == [[1.0], [0.0]]
    dom = np.array([[0.0, 1.0]])
    form = ChartForm((), dom)
    dom[:] = [[3.0, -3.0]]
    assert form.domain.tolist() == [[0.0, 1.0]] and not form.domain.flags.writeable


# transversality

def test_transverse_axes():
    rep = transversality_check(x_axis(), y_axis(), [[0.0, 0.0]])
    assert rep.expected_dim == 0
    assert rep.samples[0].rank == 2
    assert rep.samples[0].transverse


def test_self_intersection_is_not_transverse():
    rep = transversality_check(x_axis(), x_axis("X2"), [[0.3, 0.0]])
    assert rep.samples[0].rank == 1
    assert not rep.samples[0].transverse


def test_transversality_rejects_off_core_samples():
    with pytest.raises(NotOnBothCores):
        transversality_check(x_axis(), y_axis(), [[1.0, 1.0]])


def test_transversality_ambient_mismatch():
    with pytest.raises(AmbientMismatch) as err:
        transversality_check(x_axis(), Submanifold.point("Q", [0.0, 0.0, 0.0]), [[0.0, 0.0]])
    assert err.value.exit_code == 2


def test_transversality_samples_in_one_stack():
    s, line = unit_circle(), Submanifold.affine("L", [0.0, 1.0], [1.0, 0.0])
    rep = transversality_check(s, x_axis(), [[1.0, 0.0], [-1.0, 0.0]])
    assert [p.rank for p in rep.samples] == [2, 2]
    assert np.allclose(rep.samples[1].point, [-1.0, 0.0])
    assert transversality_check(s, line, [[0.0, 1.0]]).samples[0].rank == 1
    assert transversality_check(s, line, []).samples == ()
    # the first off-core sample is named, as when samples were checked one by one,
    # with its distance and the first core it is off
    for cores in ((s, x_axis()), (x_axis(), s)):
        with pytest.raises(NotOnBothCores, match=r"^point \[0\.6 0\.8\] is 0\.8 away from core 'X'$"):
            transversality_check(*cores, [[1.0, 0.0], [0.6, 0.8], [0.0, 1.5]])
    with pytest.raises(NotOnBothCores, match=r"^point \[0\.  1\.5\] is 0\.5 away from core 'S'$"):
        transversality_check(s, x_axis(), [[1.0, 0.0], [0.0, 1.5]])


# intersection

def test_intersect_axes():
    res = intersect(x_axis(), y_axis())
    assert res.dim == 0
    assert np.allclose(res.points[0], [0.0, 0.0], atol=1e-12)
    assert res.core is not None and res.core.dim == 0


def test_full_dimensional_cores_with_an_empty_implicit_form():
    # n - k = 0 implicit components: the Newton residual is an (N, 0) stack
    Submanifold.affine("P", [0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]], implicit=[])
    q = Submanifold.chart("Q", ["u1 + 0.1*u2^2", "u2"], [[-2.0, 2.0], [-2.0, 2.0]],
                          implicit=[])
    pt = Submanifold.point("x", [0.5, 0.3])
    for a, b in ((pt, q), (q, pt)):
        res = intersect(a, b)
        assert len(res.points) == 1 and np.allclose(res.points[0], [0.5, 0.3])


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
    with pytest.raises(AmbientMismatch) as err:
        intersect(x_axis(), Submanifold.point("Q", [0.0, 0.0, 0.0]))
    assert err.value.exit_code == 2
