"""Coefficient field coercion and evaluation.

On a quadrature Grid an expression field evaluates each sub-expression on the
broadcast axes it reads; the cross-checks hold it bitwise to the flat path.
Its ``factors`` multiply back to those values.
"""
import json
import math
import warnings
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

from _exprgen import random_expr
from geodens import exprlang
from geodens.density import AmbientDensity, restrict
from geodens.errors import DomainError, GeodensError
from geodens.exprlang import BinOp, Call, Neg, Num, Var, parse, subst, to_source
from geodens.fields import EXP_SPLIT_LIMIT, ExprField, FuncField, as_field
from geodens.geometry import Submanifold
from geodens.quadrature import Grid, tensor_rule, weighted_sum


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


# the one-point call against eval_many on a stack of one

GOLDEN = json.loads((Path(__file__).parent / "golden_exprs.json").read_text())


def _points(rng):
    # the golden point, random points, and the exact values that trip the domain guards
    golden = [GOLDEN["point"][f"u{i}"] for i in (1, 2, 3)]
    return np.vstack([golden, rng.uniform(-2.0, 2.0, (40, 3)),
                      rng.choice([0.0, 1.0, -1.0], (8, 3))])


def _one_point_against_eval_many(field, points, rel) -> int:
    # the same GeodensError type where either raises, else values within rel;
    # returns how many points raised
    raised = 0
    for p in points:
        outcomes = []
        for call in (lambda: field(p), lambda: field.eval_many(p[None])[0]):
            try:
                outcomes.append((complex(call()), None))
            except GeodensError as exc:
                outcomes.append((None, type(exc)))
        (got, got_error), (want, want_error) = outcomes
        where = (to_source(field.re_expr), field.im_expr and to_source(field.im_expr), p)
        assert got_error is want_error, where
        assert want_error or abs(got - want) <= rel * abs(want), where
        raised += want_error is not None
    return raised


def test_one_point_call_matches_eval_many():
    # numpy's scalar and array exp, sin and cos may round apart by an ulp or two,
    # so values agree to rel 1e-15, not bitwise
    rng = np.random.default_rng(20261020)
    fields = [as_field(entry["source"]) for entry in GOLDEN["entries"]]
    fields += [f.scaled(2.0 + 3.0j) for f in fields]
    fields.append(as_field("u1 + 2*u2", params={"u2": 3.0}))  # a parameter shadows u2
    assert sum(_one_point_against_eval_many(f, _points(rng), 1e-15) for f in fields) > 0


def test_one_point_call_fails_as_eval_many_on_random_trees():
    # deep random trees carry those ulp differences through cancellation, so
    # their values are held to rel 1e-12; the error types must still match
    rng = np.random.default_rng(20261021)
    raised = 0
    for _ in range(100):
        im = _random_field_expr(rng, 3) if rng.random() < 0.5 else None
        field = ExprField(_random_field_expr(rng, 3), im, params={"a": 0.5})
        raised += _one_point_against_eval_many(field, _points(rng)[::4], 1e-12)
    assert raised > 0


def test_one_point_overflow_is_inf_as_on_arrays():
    # float64 scalars, not Python floats: u1^400 at 10 is inf, not DomainError
    field = as_field("u1^400")
    with np.errstate(over="ignore"):
        assert field((10.0,)) == field.eval_many(np.array([[10.0]]))[0] == math.inf


def test_funcfield_on_a_grid_returns_its_dims():
    grid = Grid([np.array([1.0, 2.0]), np.array([3.0, 4.0, 5.0])])
    f = FuncField(lambda x: x[0] + 1j * x[1])
    got = f.eval_many(grid)
    assert got.shape == (2, 3)
    assert np.array_equal(got, [[1 + 3j, 1 + 4j, 1 + 5j], [2 + 3j, 2 + 4j, 2 + 5j]])


# factors: a field's values on a grid, for weighted_sum to contract one by one


def test_factors_split_a_real_product_by_the_axes_each_reads():
    grid = Grid([np.linspace(0.0, 1.0, 3), np.linspace(0.0, 1.0, 4), np.linspace(1.0, 2.0, 5)])
    field = as_field("2*x1*exp(-x3^2)*(x2 + x1)", prefix="x")
    factors = field.factors(grid)
    assert [np.shape(f) for f in factors] == [(), (3, 1, 1), (1, 1, 5), (3, 4, 1)]
    got = np.broadcast_to(reduce(np.multiply, factors), grid.dims)
    assert np.array_equal(got, field.eval_many(grid))


def _random_exponent(rng, k, depth):
    # bounded sin terms under unary minus, +, - and * or / by a literal
    if depth == 0 or rng.random() < 0.25:
        return Call("sin", subst(random_expr(rng, 3, 2),
                                 {f"u{j}": Var("a") for j in range(k + 1, 4)}))
    kid, r = (lambda: _random_exponent(rng, k, depth - 1)), rng.random()
    c = Num(round(float(rng.uniform(0.5, 2.0)), 3))
    if r < 0.15:
        return Neg(kid())
    if r < 0.6:
        return BinOp(str(rng.choice(["+", "-"])), kid(), kid())
    if r < 0.75:
        return BinOp("*", c, kid())
    return BinOp(str(rng.choice(["*", "/"])), kid(), c)


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_factors_multiply_to_the_grid_values(k):
    rng = np.random.default_rng(20261020 + k)
    split = 0
    for _ in range(60):
        grid = _random_grid(rng, k)
        parts = [subst(random_expr(rng, 3, 3), {f"u{j}": Var("a") for j in range(k + 1, 4)})
                 if rng.random() < 0.5 else Call("exp", _random_exponent(rng, k, 4))
                 for _ in range(int(rng.integers(1, 5)))]
        # left- and right-nested chains, and a product under a sum that stays whole
        re = reduce(lambda a, b: BinOp("*", a, b) if rng.random() < 0.5 else BinOp("*", b, a),
                    parts)
        if rng.random() < 0.2:
            re = BinOp("+", re, Num(1.0))
        field = ExprField(re, params={"a": float(rng.uniform(-1.0, 1.0))})
        factors = field.factors(grid)
        assert len(factors) >= (1 if isinstance(re, BinOp) and re.op == "+" else len(parts))
        split += sum(len(ExprField(p, params=field.params).factors(grid)) > 1
                     for p in parts if isinstance(p, Call))
        got = np.broadcast_to(reduce(np.multiply, factors), grid.dims)
        np.testing.assert_allclose(got, field.eval_many(grid), rtol=1e-14, atol=0.0)
    assert split > 10 if k else split == 0, split


def test_an_exp_of_a_sum_splits_by_the_coordinates_its_terms_read():
    grid = Grid([np.linspace(-1.0, 1.0, 3), np.linspace(0.0, 1.0, 4), np.linspace(1.0, 2.0, 5)])
    test = as_field("2*exp(-((x1-0.1)^2+(x2+0.2)^2+(x3-0.3)^2)/1.1)", prefix="x")
    assert [np.shape(f) for f in test.factors(grid)] == [(), (3, 1, 1), (1, 4, 1), (1, 1, 5)]
    # x1^2 and pi*x1 share one exp, as do a and 1, which read no coordinate
    field = as_field("exp(-x1^2 - 2*(x1*x2 - pi*x1 + a) + x2/3 - 1)", prefix="x",
                     params={"a": 0.5})
    factors = field.factors(grid)
    assert [np.shape(f) for f in factors] == [(3, 1, 1), (3, 4, 1), (), (1, 4, 1)]
    for f in (test, field):
        got = np.broadcast_to(reduce(np.multiply, f.factors(grid)), grid.dims)
        np.testing.assert_allclose(got, f.eval_many(grid), rtol=1e-14, atol=0.0)


def test_an_exp_whose_split_could_leave_the_floats_stays_whole():
    # the groups 1000 x1 - x1^2 and -1000 x2 reach exp(999) and exp(-1000), whose
    # product is inf * 0 where the whole exp is near 1
    grid, weights = tensor_rule([[0.5, 1.0], [0.5, 1.0]], 8)
    field = as_field("exp(1000*x1-1000*x2-x1^2)", prefix="x")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (values,) = field.factors(grid)
        assert np.array_equal(values, field.eval_many(grid))
        assert weighted_sum(field.factors, grid, weights) == weighted_sum(
            field.eval_many, grid, weights)
        # three groups, each within the floats, whose largest magnitudes sum past the limit
        edges = Grid([np.linspace(0.5, 1.0, 3)] * 2)
        for c, n in ((EXP_SPLIT_LIMIT / 3, 3), (EXP_SPLIT_LIMIT / 3 + 1, 1)):
            f = as_field(f"exp({c}*x1 - {c}*x2 + {c}*x1*x2)", prefix="x")
            assert len(f.factors(edges)) == n


def test_factors_of_a_complex_or_callable_field_are_its_values():
    grid = Grid([np.array([1.0, 2.0]), np.array([3.0, 4.0, 5.0])])
    for field in (ExprField(parse("u1*u2"), parse("u1")), FuncField(lambda x: x[0] * x[1])):
        (values,) = field.factors(grid)
        assert np.array_equal(values, field.eval_many(grid))


def test_factor_axes_name_what_each_factor_reads():
    # the product's multiplicands, and an exp's groups where it splits; an exp of one
    # group, a complex field and a callable field read what their trees read
    field = as_field("2*x1*exp(-x3^2)*(x2 + x1)*exp(-(x1-a)^2 - x3/2 + a)", prefix="x",
                     params={"a": 0.3})
    grid = Grid([np.linspace(0.0, 1.0, 3), np.linspace(0.0, 1.0, 4), np.linspace(1.0, 2.0, 5)])
    assert field.factor_axes(grid) == [set(), {0}, {2}, {0, 1}, {0}, {2}, set()]
    factors = field.factors(grid)
    assert len(factors) == 7
    for f, axes in zip(factors, field.factor_axes(grid), strict=True):
        shape = (1,) * (3 - np.ndim(f)) + np.shape(f)
        assert {i for i, n in enumerate(shape) if n > 1} == axes
    assert ExprField(parse("x1"), parse("x2"), "x").factor_axes(grid) == [{0, 1, 2}]
    assert FuncField(lambda x: x[0]).factor_axes(Grid(grid.axes[:2])) == [{0, 1}]


def test_factor_axes_follow_the_range_guard():
    # the groups of exp(-(x1^2 + x3^2)/0.01) reach 100 on [0, 1] and 2500 on [0, 5]:
    # the guard splits the first and keeps the second whole, which reads both axes
    field = as_field("x2*exp(-(x1^2 + x3^2)/0.01)", prefix="x")
    for hi, want in ((1.0, [{1}, {0}, {2}]), (5.0, [{1}, {0, 2}])):
        grid = Grid([np.linspace(0.0, hi, 3), np.linspace(0.0, 1.0, 4),
                     np.linspace(0.0, hi, 5)])
        assert field.factor_axes(grid) == want
        for f, axes in zip(field.factors(grid), want, strict=True):
            shape = (1,) * (3 - np.ndim(f)) + np.shape(f)
            assert {i for i, n in enumerate(shape) if n > 1} == axes


def test_with_params_shares_the_factor_groups():
    field = as_field("c*exp(-r*(x1-1)^2 - x2^2)*exp(-r*x2)", prefix="x",
                     params={"c": 1.0, "r": 2.0, "s": 5.0})
    grid = Grid([np.linspace(-1.0, 1.0, 3), np.linspace(0.0, 1.0, 4)])
    field.factors(grid)
    bound = field.with_params({"c": 0.5, "r": 3.0})
    assert bound.params == {"c": 0.5, "r": 3.0, "s": 5.0} and field.params["r"] == 2.0
    assert bound._factor_trees is field._factor_trees
    fresh = as_field("c*exp(-r*(x1-1)^2 - x2^2)*exp(-r*x2)", prefix="x", params=bound.params)
    for got, want in zip(bound.factors(grid), fresh.factors(grid), strict=True):
        assert np.array_equal(got, want)


def test_with_params_of_a_new_name_builds_its_own_groups():
    # binding x2 as a parameter fixes the terms that read it, so they no longer
    # split off as factors along axis 1
    field = as_field("c*exp(-r*(x1-1)^2 - x2^2)*exp(-r*x2)", prefix="x",
                     params={"c": 1.0, "r": 2.0})
    grid = Grid([np.linspace(-1.0, 1.0, 3), np.linspace(0.0, 1.0, 4)])
    assert field.factor_axes(grid) == [set(), {0}, {1}, {1}]
    bound = field.with_params({"x2": 0.5})
    assert bound._factor_trees is not field._factor_trees
    assert bound.factor_axes(grid) == [set(), {0}, set(), set()]
    product = np.broadcast_to(reduce(np.multiply, bound.factors(grid)), (3, 4))
    assert np.allclose(product, bound.eval_many(grid), rtol=1e-14, atol=0.0)


def test_expanded_groups_sum_to_the_exponent_near_the_range_limit():
    # a Gaussian pulled back to a sheared plane expands into four groups (1, u1, u2 and
    # u1 u2); on a box where the exponent nears 700 the guard still splits it, and the
    # groups' sum is the unexpanded exponent to within 4 * 708 * 2^-52 everywhere
    core = Submanifold.affine("S", [0.3, -0.2, 0.1],
                              np.transpose([[1.0, 0.5, 0.0], [0.4, 1.0, 0.7]]))
    test = restrict(AmbientDensity.make(
        0.5, "exp(-((x1-0.5)^2+(x2+0.25)^2+(x3-0.75)^2)/0.125)"), core)
    (f, groups, spans), = [t for t in test._factor_trees if t[1]]
    assert spans == [set(), {"u1"}, {"u2"}, {"u1", "u2"}]
    grid = Grid([np.linspace(-4.15, 4.15, 83)] * 2)
    b = dict(zip(["u1", "u2"], grid.columns()))
    exponent = np.broadcast_to(exprlang.evaluate(f.arg, b), grid.dims)
    summed = np.broadcast_to(sum(exprlang.evaluate(g, b) for g in groups), grid.dims)
    assert 690.0 < np.abs(exponent).max() < EXP_SPLIT_LIMIT
    assert len(test.factors(grid)) == 5  # the frame factor and the four groups
    assert np.abs(summed - exponent).max() <= 4 * 708.0 * 2.0 ** -52


def test_only_squares_that_read_two_coordinates_expand():
    # a square of one coordinate stays one term, so the exp keeps the trees it had and
    # no monomial is collected; a square of two expands, and its like monomials collect
    kept = as_field("exp(-((x1-0.1)^2+(x2+0.2)^2)/1.1)", prefix="x")
    assert [to_source(g) for _, groups, _ in kept._factor_trees for g in groups] == [
        "-(x1 - 0.1)^2/1.1", "-(x2 + 0.2)^2/1.1"]
    expanded = as_field("exp(-(x1 + x2 - 1)^2)", prefix="x")
    assert [(to_source(g), set(s)) for _, groups, spans in expanded._factor_trees
            for g, s in zip(groups, spans)] == [
        ("-1*x1*x1 + 2*x1", {"x1"}), ("-2*x1*x2", {"x1", "x2"}),
        ("-1*x2*x2 + 2*x2", {"x2"}), ("-1", set())]
    grid = Grid([np.linspace(-1.0, 1.0, 3), np.linspace(0.0, 1.0, 4)])
    got = np.broadcast_to(reduce(np.multiply, expanded.factors(grid)), grid.dims)
    np.testing.assert_allclose(got, expanded.eval_many(grid), rtol=1e-14, atol=0.0)
