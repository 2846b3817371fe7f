"""Determinant powers, frames, change of basis, dual normals."""
import cmath
import math

import numpy as np
import pytest

from geodens.errors import (
    ConormalMismatch,
    DegenerateCovectors,
    RankDeficient,
    SingularFrame,
    SpanMismatch,
)
from geodens.linalg import (
    DensityValue,
    Frame,
    change_of_basis,
    complete_to_ambient,
    det_abs_pow,
    dual_normal_frame,
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
    with pytest.raises(ValueError):
        det_abs_pow(np.zeros((2, 3)), 1.0)


# frames

def test_frame_kinds_and_columns():
    t = Frame.tangent([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    assert t.matrix.shape == (3, 2)          # vectors are columns
    assert t.count == 2 and t.ambient_dim == 3
    c = Frame.covector([[1.0, 0.0, 0.0]])
    assert c.matrix.shape == (1, 3)          # covectors are rows
    assert c.count == 1 and c.ambient_dim == 3
    assert c.columns.shape == (3, 1)


def test_frame_rejects_rank_deficiency():
    with pytest.raises(RankDeficient):
        Frame.tangent([[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(RankDeficient):
        Frame.covector([[1.0, 2.0], [2.0, 4.0]])


def test_frame_rejects_unknown_kind():
    with pytest.raises(ValueError):
        Frame(np.eye(2), "widget")


def test_frame_matrix_is_read_only():
    f = Frame.tangent([[1.0, 0.0]])
    with pytest.raises(ValueError):
        f.matrix[0, 0] = 2.0


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
    with pytest.raises(ValueError):
        change_of_basis(np.eye(3), np.eye(2))


def test_change_of_basis_empty():
    assert change_of_basis(np.zeros((3, 0)), np.zeros((3, 0))).shape == (0, 0)


def test_change_of_basis_accepts_frames():
    f = Frame.tangent([[2.0, 0.0], [0.0, 3.0]])
    b = change_of_basis(f, np.eye(2))
    assert np.allclose(b, np.diag([0.5, 1.0 / 3.0]))


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


def test_dual_normal_degenerate_rows():
    with pytest.raises(DegenerateCovectors):
        dual_normal_frame(np.array([[1.0, 0.0], [2.0, 0.0]]))


def test_dual_normal_empty_family():
    assert dual_normal_frame(np.zeros((0, 3))).shape == (3, 0)


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


# density values

def test_density_value_transformation_law():
    rng = np.random.default_rng(5)
    m = rng.normal(size=(3, 3)) + 2.0 * np.eye(3)
    b = rng.normal(size=(3, 3)) + 2.0 * np.eye(3)
    alpha = 0.5 + 0.25j
    v1 = DensityValue(1.3 + 0.0j, alpha, Frame(m, "tangent"))
    v2 = v1.in_frame(Frame(m @ b, "tangent"))
    assert v2.value == pytest.approx(1.3 * det_abs_pow(b, alpha), rel=1e-12)
    # returning to the original frame undoes the factor
    back = v2.in_frame(v1.frame)
    assert back.value == pytest.approx(v1.value, rel=1e-10)

