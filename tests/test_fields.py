"""Coefficient field coercion and evaluation.

On a quadrature Grid an expression field evaluates each sub-expression on the
broadcast axes it reads; the cross-checks hold it bitwise to the flat path.
"""
import numpy as np
import pytest

from _exprgen import random_expr
from geodens.errors import DomainError
from geodens.exprlang import BinOp, Call, Neg, Num, Var, parse, subst, to_source
from geodens.fields import ExprField, FuncField, as_field
from geodens.quadrature import Grid


def test_string_coercion_uses_the_prefix():
    f = as_field("exp(-x1^2)", prefix="x")
    assert f((0.5,)) == pytest.approx(np.exp(-0.25))


def test_number_coercions():
    assert as_field(3)((0.0,)) == 3.0
    assert as_field(2.5)((0.0,)) == 2.5
    got = as_field(1.0 - 2.0j)((0.0,))
    assert got == 1.0 - 2.0j


def test_callable_coercion():
    f = as_field(lambda u: (2.0 - 1.0j) * float(np.exp(-u[0] ** 2)))
    assert isinstance(f, FuncField)
    assert f((1.0,)) == pytest.approx((2.0 - 1.0j) * np.exp(-1.0))


def test_rejects_nonsense():
    with pytest.raises(TypeError):
        as_field(object())


def test_params_resolve():
    f = as_field("a*u1", params={"a": 3.0})
    assert f((2.0,)) == 6.0


def test_eval_many_matches_pointwise():
    f = as_field("u1^2 * exp(-u2)")
    pts = np.array([[0.5, 0.1], [1.5, 0.0], [2.0, 2.0]])
    many = f.eval_many(pts)
    assert np.allclose(many, [f(p) for p in pts], atol=1e-15)


def test_eval_many_on_funcfield_loops():
    f = FuncField(lambda u: u[0] + 1j * u[1])
    pts = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.allclose(f.eval_many(pts), [1 + 2j, 3 + 4j])


def test_eval_many_constant_expression_broadcasts():
    f = as_field("2")
    assert np.allclose(f.eval_many(np.zeros((5, 1))), 2.0)


def test_scaled_folds_into_the_tree():
    f = as_field("exp(-u1^2)")
    g = f.scaled(2.0)
    assert isinstance(g, ExprField)
    assert g((0.3,)) == pytest.approx(2.0 * np.exp(-0.09))
    assert g.im_expr is None


def test_scaled_complex_factor():
    f = as_field("u1")
    g = f.scaled(1.0 + 2.0j)
    assert g((3.0,)) == pytest.approx(3.0 + 6.0j)
    # scaling a complex field mixes parts: (a+bi)(c+di)
    h = as_field(1.0 + 1.0j).scaled(1.0 + 1.0j)
    assert h((0.0,)) == pytest.approx(2.0j)


_RE, _IM = parse("exp(-u1^2)"), parse("u1 + 2")
_MINUS = Num(-1.0)


@pytest.mark.parametrize("im, factor, want_re, want_im", [
    (None, 1.0, _RE, None),
    (None, 0.0, Num(0.0), None),
    (None, -1.0, BinOp("*", _MINUS, _RE), None),
    (None, 1j, Num(0.0), _RE),
    (_IM, 1.0, _RE, _IM),
    (_IM, 0.0, Num(0.0), None),
    (_IM, -1.0, BinOp("*", _MINUS, _RE), BinOp("*", _MINUS, _IM)),
    (_IM, 1j, Neg(_IM), _RE),
])
def test_scaled_folds_unit_and_zero_factors(im, factor, want_re, want_im):
    f = ExprField(_RE, im)
    g = f.scaled(factor)
    assert (g.re_expr, g.im_expr) == (want_re, want_im)
    if factor == 1.0:
        assert g.re_expr is f.re_expr and g.im_expr is f.im_expr
    assert g((0.5,)) == pytest.approx(factor * f((0.5,)), rel=1e-15)


def test_scaled_trees_stay_printable():
    g = as_field("u1 + 1").scaled(-2.0)
    to_source(g.re_expr)  # must not raise
    assert g((1.0,)) == -4.0


def test_expr_tree_coercion():
    f = as_field(parse("u1 - u2"))
    assert f((5.0, 3.0)) == 2.0


# Grid evaluation against the flat (N, k) path


def _random_grid(rng, k):
    # a few nodes per axis, with the exact values that trip the domain guards
    axes = []
    for _ in range(k):
        x = rng.uniform(-2.0, 2.0, size=int(rng.integers(1, 6)))
        x[rng.random(x.size) < 0.2] = rng.choice([0.0, 1.0, -1.0])
        axes.append(x)
    return Grid(axes)


def _random_field_expr(rng, k):
    # coordinates past k read the parameter a, so k = 0 gives constant trees;
    # the outer call may leave its domain on some grids
    e = subst(random_expr(rng, 3, 4), {f"u{j}": Var("a") for j in range(k + 1, 4)})
    r = rng.random()
    if r < 0.2:
        return Call("sqrt", e)
    if r < 0.3:
        return Call("log", e)
    if r < 0.4:
        return BinOp("/", Num(1.0), e)
    if r < 0.5:
        return BinOp("^", e, Num(0.5))
    return e


def _outcome(field, points):
    try:
        return np.ascontiguousarray(field.eval_many(points), dtype=complex).tobytes()
    except DomainError as exc:
        return ("DomainError", str(exc))


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_grid_evaluation_is_bitwise_the_flat_evaluation(k):
    rng = np.random.default_rng(20261018 + k)
    raised = 0
    for _ in range(150):
        grid = _random_grid(rng, k)
        re = _random_field_expr(rng, k)
        im = _random_field_expr(rng, k) if rng.random() < 0.5 else None
        field = ExprField(re, im, params={"a": float(rng.uniform(-1.0, 1.0))})
        got, want = _outcome(field, grid), _outcome(field, grid.points())
        assert got == want, (to_source(re), im and to_source(im))
        if isinstance(got, tuple):
            raised += 1
        else:
            assert field.eval_many(grid).shape == grid.dims
    assert 10 < raised < 140, raised


def test_grid_evaluation_stays_on_the_axes_it_reads():
    grid = Grid([np.linspace(0.0, 1.0, 3), np.linspace(0.0, 1.0, 4), np.zeros(5)])
    got = as_field("exp(-x1^2) + x2", prefix="x").eval_many(grid)
    assert got.shape == (3, 4, 5) and got.strides[-1] == 0 and got.dtype == float


def test_funcfield_on_a_grid_returns_its_dims():
    grid = Grid([np.array([1.0, 2.0]), np.array([3.0, 4.0, 5.0])])
    f = FuncField(lambda x: x[0] + 1j * x[1])
    got = f.eval_many(grid)
    assert got.shape == (2, 3)
    assert np.array_equal(got, [[1 + 3j, 1 + 4j, 1 + 5j], [2 + 3j, 2 + 4j, 2 + 5j]])
