"""Determinant powers, frame factors, change of basis, dual normals."""
import cmath
import math

import numpy as np
import pytest

from geodens.errors import (
    AmbientMismatch,
    ConormalMismatch,
    DegenerateCovectors,
    FrameShapeMismatch,
    RankDeficient,
    SingularFrame,
    SpanMismatch,
)
from geodens.linalg import (
    change_of_basis,
    complete_to_ambient,
    det_abs_pow,
    dual_normal_frame,
    frame_factors,
)


# det_abs_pow

def test_det_pow_identity():
    assert det_abs_pow(np.eye(3), 0.7) == 1.0


def test_det_pow_real_degree():
    got = det_abs_pow(np.diag([2.0, 3.0]), 0.5)
    assert got == pytest.approx(math.sqrt(6.0), rel=1e-15)
    assert got.imag == 0.0


def test_det_pow_sign_is_dropped():
    m = np.array([[0.0, 1.0], [1.0, 0.0]])  # det = -1
    assert det_abs_pow(m, 3.0) == pytest.approx(1.0)


def test_det_pow_complex_degree():
    a = 0.5 + 1.0j
    got = det_abs_pow(np.diag([2.0, 3.0]), a)
    assert got == pytest.approx(cmath.exp(a * math.log(6.0)), rel=1e-14)


def test_det_pow_singular_positive_degree_is_zero():
    m = np.array([[1.0, 0.0], [2.0, 0.0]])
    assert det_abs_pow(m, 1.0) == 0.0
    assert det_abs_pow(m, 0.25 + 3.0j) == 0.0


def test_det_pow_singular_otherwise_raises():
    m = np.array([[1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(SingularFrame):
        det_abs_pow(m, 0.0)
    with pytest.raises(SingularFrame):
        det_abs_pow(m, -0.5)


def test_det_pow_threshold_is_relative():
    # a tiny but well-conditioned frame is not singular
    got = det_abs_pow(1e-8 * np.eye(2), 1.0)
    assert got == pytest.approx(1e-16, rel=1e-12)


def test_det_pow_empty_matrix():
    assert det_abs_pow(np.zeros((0, 0)), 0.5) == 1.0


def test_det_pow_rejects_non_square():
    with pytest.raises(FrameShapeMismatch):
        det_abs_pow(np.zeros((2, 3)), 1.0)


def test_a_frame_that_is_not_2d_is_typed():
    with pytest.raises(FrameShapeMismatch, match=r"2-d column matrix, got shape \(3,\)"):
        change_of_basis(np.ones(3), np.eye(3))


# change of basis

def test_change_of_basis_recovers_the_matrix():
    rng = np.random.default_rng(3)
    s = rng.normal(size=(5, 3))
    b0 = rng.normal(size=(3, 3)) + 2.0 * np.eye(3)
    b = change_of_basis(s, s @ b0)
    assert np.allclose(b, b0, atol=1e-10)


def test_change_of_basis_span_mismatch():
    s = np.array([[1.0], [0.0], [0.0]])
    t = np.array([[0.0], [1.0], [0.0]])
    with pytest.raises(SpanMismatch):
        change_of_basis(s, t)


def test_change_of_basis_count_mismatch():
    with pytest.raises(SpanMismatch):
        change_of_basis(np.eye(3), np.eye(3)[:, :2])


def test_change_of_basis_ambient_mismatch():
    with pytest.raises(AmbientMismatch) as err:
        change_of_basis(np.eye(3), np.eye(2))
    assert err.value.exit_code == 2


def test_change_of_basis_empty():
    assert change_of_basis(np.zeros((3, 0)), np.zeros((3, 0))).shape == (0, 0)


# dual normal frames

def test_dual_normal_duality():
    rng = np.random.default_rng(11)
    nu = rng.normal(size=(2, 4))
    n = dual_normal_frame(nu)
    assert n.shape == (4, 2)
    assert np.allclose(nu @ n, np.eye(2), atol=1e-12)


def test_dual_normal_is_minimum_norm():
    rng = np.random.default_rng(12)
    nu = rng.normal(size=(2, 5))
    assert np.allclose(dual_normal_frame(nu), np.linalg.pinv(nu), atol=1e-12)


def test_dual_normal_annihilation_contract():
    nu = np.array([[0.0, 0.0, 1.0]])
    t_ok = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    dual_normal_frame(nu, t_ok)  # fine
    t_bad = np.array([[1.0], [0.0], [0.5]])
    with pytest.raises(ConormalMismatch):
        dual_normal_frame(nu, t_bad)


def test_dual_normal_judges_each_row_at_its_own_length():
    t = np.array([[1.0], [0.0], [0.0]])
    for a in (1.0, 1e-10):
        with pytest.raises(ConormalMismatch):
            dual_normal_frame(np.array([[0.0, 1.0, 0.0], [a, 0.0, a]]), t)
    n = dual_normal_frame(np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1e-10]]), t)
    assert np.allclose(n, [[0.0, 0.0], [1.0, 0.0], [0.0, 1e10]], rtol=1e-14, atol=0.0)


def test_dual_normal_degenerate_rows():
    # rank is judged on unit rows, and a zero row has none to scale to
    for rows in ([[1.0, 0.0], [2.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]):
        with pytest.raises(DegenerateCovectors):
            dual_normal_frame(np.array(rows))


def test_dual_normal_empty_family():
    assert dual_normal_frame(np.zeros((0, 3))).shape == (3, 0)


# frame factors of a batch

def _per_node(tangents, rows, p, solver=dual_normal_frame):
    m = max(len(tangents), len(rows))
    return np.array([det_abs_pow(np.hstack([t, solver(nu, t)]), p)
                     for t, nu in zip(np.broadcast_to(tangents, (m,) + tangents.shape[1:]),
                                      np.broadcast_to(rows, (m,) + rows.shape[1:]))])


@pytest.mark.parametrize("p", [0.5, -0.5 + 0.25j])
def test_frame_factors_one_tangent_serves_every_node(p):
    # one tangent frame of a 2-plane in R^4, one conormal frame per node
    rng = np.random.default_rng(21)
    t = rng.normal(size=(4, 2))
    comp = complete_to_ambient(t).T
    rows = np.array([(rng.normal(size=(2, 2)) + 3.0 * np.eye(2)) @ comp
                     for _ in range(5)])
    got = frame_factors(t[None], rows, p, dual_normal_frame)
    assert got.shape == (5,)
    assert np.allclose(got, _per_node(t[None], rows, p), rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("p", [0.5, -0.5 + 0.25j])
def test_frame_factors_one_conormal_serves_every_node(p):
    # one conormal frame, one tangent frame per node, all in its kernel
    rng = np.random.default_rng(22)
    nu = rng.normal(size=(1, 3))
    kernel = complete_to_ambient(nu.T)
    tangents = np.array([kernel @ (rng.normal(size=(2, 2)) + 3.0 * np.eye(2))
                         for _ in range(4)])
    got = frame_factors(tangents, nu[None], p, dual_normal_frame)
    assert got.shape == (4,)
    assert np.allclose(got, _per_node(tangents, nu[None], p), rtol=1e-14, atol=0.0)
    # a stack of one on both sides is one frame
    one = frame_factors(tangents[:1], nu[None], p, dual_normal_frame)
    assert one.shape == (1,) and one[0] == got[0]


def test_frame_factors_singular_frame():
    # the tangent columns repeat, so [t | n] is singular
    t = np.array([[[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]]])
    nu = np.array([[[0.0, 0.0, 1.0]]])
    assert frame_factors(t, nu, 0.5, dual_normal_frame)[0] == 0.0
    assert frame_factors(t, nu, 0.5 + 2.0j, dual_normal_frame)[0] == 0.0
    for p in (0.0, -0.5, 1j):
        with pytest.raises(SingularFrame):
            frame_factors(t, nu, p, dual_normal_frame)


# the stacked default solver against the per-frame loop

def _frames(rng, m, n, k):
    """m tangent frames (m, n, k) and conormal rows (m, n - k, n) annihilating them."""
    t = rng.normal(size=(m, n, k))
    nu = np.array([(rng.normal(size=(n - k, n - k)) + 3.0 * np.eye(n - k))
                   @ complete_to_ambient(ti).T for ti in t])
    return t, nu.reshape(m, n - k, n)


def _close(got, want):
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))


@pytest.mark.parametrize("n,k", [(4, 0), (4, 1), (4, 2), (4, 3), (3, 3)])
@pytest.mark.parametrize("p", [0.5, -0.7, 0.3 - 1.5j])
def test_stacked_frame_factors_match_the_per_frame_loop(n, k, p):
    rng = np.random.default_rng([31, n, k])
    t, nu = _frames(rng, 7, n, k)
    got = frame_factors(t, nu, p)
    _close(got, _per_node(t, nu, p))
    assert got.dtype == (complex if complex(p).imag else float)
    # a stack of one on either side serves every node
    t1, nu1 = t[:1], nu[:1]
    kernel = np.array([ti @ (rng.normal(size=(k, k)) + 3.0 * np.eye(k)) for ti in t1[[0] * 5]])
    _close(frame_factors(kernel, nu1, p), _per_node(kernel, nu1, p))
    rows = np.array([(rng.normal(size=(n - k, n - k)) + 3.0 * np.eye(n - k)) @ nu1[0]
                     for _ in range(5)])
    _close(frame_factors(t1, rows, p), _per_node(t1, rows, p))
    _close(frame_factors(t1, nu1, p), _per_node(t1, nu1, p))


def test_stacked_frame_factors_singular_frames():
    # frames 1 and 3 repeat a tangent column, so [t | n] is singular there
    rng = np.random.default_rng(32)
    t, nu = _frames(rng, 5, 4, 2)
    for i in (1, 3):
        t[i, :, 1] = t[i, :, 0]
        nu[i] = np.linalg.svd(t[i].T)[2][1:3] * 2.0
    for p in (0.5, 0.25 + 3.0j):
        got = frame_factors(t, nu, p)
        assert got[1] == 0.0 and got[3] == 0.0
        _close(got, _per_node(t, nu, p))
    for p in (0.0, -0.5, 1j):
        with pytest.raises(SingularFrame):
            frame_factors(t, nu, p)


def test_frame_factors_run_a_callers_solver_once_per_frame():
    rng = np.random.default_rng(33)
    t, nu = _frames(rng, 6, 4, 2)
    seen = []

    def shifting(rows, tangent):
        seen.append((rows.shape, tangent.shape))
        return dual_normal_frame(rows, tangent) + tangent @ np.full((2, 2), 0.4)

    got = frame_factors(t, nu, -0.3 + 0.2j, shifting)
    assert seen == [((2, 4), (4, 2))] * 6
    _close(got, _per_node(t, nu, -0.3 + 0.2j, shifting))
    # the determinant does not see the tangential shift
    _close(got, frame_factors(t, nu, -0.3 + 0.2j))
    seen.clear()
    frame_factors(t[:1], nu[:1], 0.5, shifting)
    assert len(seen) == 1


@pytest.mark.parametrize("solver", [None, dual_normal_frame])
def test_frame_factors_name_the_failure_of_any_frame(solver):
    rng = np.random.default_rng(34)
    t, nu = _frames(rng, 4, 4, 1)
    degenerate = nu.copy()
    degenerate[2, 1] = 2.0 * degenerate[2, 0]
    with pytest.raises(DegenerateCovectors):
        frame_factors(t, degenerate, 0.5, solver)
    leaking = nu.copy()
    leaking[3, 0] += t[3, :, 0]
    with pytest.raises(ConormalMismatch):
        frame_factors(t, leaking, 0.5, solver)


# orthonormal completion

def test_complete_to_ambient():
    rng = np.random.default_rng(4)
    t = rng.normal(size=(4, 2))
    c = complete_to_ambient(t)
    assert c.shape == (4, 2)
    assert np.allclose(c.T @ c, np.eye(2), atol=1e-12)
    assert np.allclose(c.T @ t, 0.0, atol=1e-12)


def test_complete_to_ambient_of_nothing():
    assert np.allclose(complete_to_ambient(np.zeros((3, 0))), np.eye(3))


def test_complete_to_ambient_rank_deficient():
    with pytest.raises(RankDeficient):
        complete_to_ambient(np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 0.0]]))


@pytest.mark.parametrize("s", [1e-10, 1e-12])
def test_complete_to_ambient_judges_unit_columns(s):
    # a short column is not a missing one; a zero column is
    c = complete_to_ambient(np.array([[1.0, 0.0], [0.0, s], [0.0, 0.0]]))
    assert np.allclose(np.abs(c), [[0.0], [0.0], [1.0]], rtol=0.0, atol=1e-15)
    with pytest.raises(RankDeficient):
        complete_to_ambient(np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]))


@pytest.mark.parametrize("s", [1e-10, 1e-12])
def test_complete_to_ambient_on_a_tilted_plane_with_a_short_column(s):
    # columns along (1, 2, 2)/3 and s (2, 1, -2)/3, or s times a direction that is
    # not orthogonal to the first; the normal is (-2, 2, -1)/3 either way
    a, b = np.array([1.0, 2.0, 2.0]) / 3.0, np.array([2.0, 1.0, -2.0]) / 3.0
    normal = np.array([-2.0, 2.0, -1.0]) / 3.0
    for short in (b, b + 0.3 * a):
        c = complete_to_ambient(np.column_stack([a, s * short]))[:, 0]
        assert np.allclose(c * np.sign(c @ normal), normal, rtol=0.0, atol=1e-15)
