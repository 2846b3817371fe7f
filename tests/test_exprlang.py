"""Parser, printer, evaluator, and symbolic differentiation.

The golden corpus in golden_exprs.json freezes, per expression: the printed
canonical form, the value at a fixed binding point, and the gradient there.
Values and gradients were computed symbolically with an independent CAS and
frozen; the printed column pins the printer against regressions.
"""
import gc
import json
import math
import weakref
from pathlib import Path

import numpy as np
import pytest

from geodens.errors import (
    DomainError,
    ExprSyntaxError,
    UnboundIdentifier,
    UnknownFunction,
)
from geodens.exprlang import (
    BinOp,
    Call,
    Neg,
    Num,
    Var,
    _pow,
    evaluate,
    jacobian,
    parse,
    subst,
    to_source,
)

from _exprgen import ad_matches_fd, random_expr

GOLDEN = json.loads((Path(__file__).parent / "golden_exprs.json").read_text())


# golden corpus

def test_golden_values():
    point = GOLDEN["point"]
    for entry in GOLDEN["entries"]:
        got = evaluate(parse(entry["source"]), point)
        want = entry["value"]
        assert abs(got - want) <= 1e-12 + 1e-12 * abs(want), entry["source"]


def test_golden_gradients():
    names = sorted(GOLDEN["point"])
    point = np.array([GOLDEN["point"][n] for n in names])
    for entry in GOLDEN["entries"]:
        grad = jacobian([parse(entry["source"])], point)[0]
        want = np.array(entry["grad"])
        assert np.all(np.abs(grad - want) <= 1e-9 + 1e-12 * np.abs(want)), \
            entry["source"]


def test_golden_printed_form():
    for entry in GOLDEN["entries"]:
        assert to_source(parse(entry["source"])) == entry["printed"]


def test_print_parse_round_trip():
    # printing then reparsing is the identity on trees, and printing is
    # a fixed point on its own output
    for entry in GOLDEN["entries"]:
        tree = parse(entry["source"])
        printed = to_source(tree)
        assert parse(printed) == tree
        assert to_source(parse(printed)) == printed


# precedence and associativity pins

@pytest.mark.parametrize("src,want", [
    ("2^3^2", 512.0),        # right associative
    ("-2^2", -4.0),          # power binds above unary minus
    ("2^-2", 0.25),          # unary minus allowed in the exponent
    ("6 - 2 - 1", 3.0),      # left associative
    ("12/3/2", 2.0),
    ("2*3 + 4*5", 26.0),
    ("2 + 3*4^2", 50.0),
    ("-(2 + 3)", -5.0),
    ("2 - -3", 5.0),
])
def test_precedence(src, want):
    assert evaluate(parse(src)) == want


def test_pi_is_a_builtin_constant():
    assert evaluate(parse("pi")) == math.pi
    # builtins win over bindings; a scene parameter cannot shadow pi
    assert evaluate(parse("pi"), {"pi": 2.0}) == math.pi


# syntax errors

@pytest.mark.parametrize("src", [
    "", "1 +", "(1", "1 2", "^2", ")", "exp(", "exp(1,2)", "1 ~ 2", "*",
])
def test_syntax_errors(src):
    with pytest.raises(ExprSyntaxError) as err:
        parse(src)
    assert isinstance(err.value.offset, int)
    assert err.value.offset >= 0


def test_syntax_error_offset_points_at_the_problem():
    with pytest.raises(ExprSyntaxError) as err:
        parse("1 + ~")
    assert err.value.offset == 4


def test_syntax_error_is_a_syntaxerror():
    # callers that only know stdlib exception types still catch it
    with pytest.raises(SyntaxError):
        parse("(((")


def test_unknown_function():
    with pytest.raises(UnknownFunction):
        evaluate(parse("tan(1)"))


def test_unbound_identifier():
    with pytest.raises(UnboundIdentifier):
        evaluate(parse("u1 + 1"), {"u2": 0.0})


# evaluation domains

@pytest.mark.parametrize("src,bindings", [
    ("1/u1", {"u1": 0.0}),
    ("log(0)", None),
    ("log(-1)", None),
    ("sqrt(-1)", None),
    ("(-2)^0.5", None),
    ("0^-1", None),
])
def test_domain_errors(src, bindings):
    with pytest.raises(DomainError):
        evaluate(parse(src), bindings)


def test_vectorized_evaluation():
    u = np.array([1.0, 2.0, 3.0])
    got = evaluate(parse("u1^2 + 1"), {"u1": u})
    assert np.allclose(got, [2.0, 5.0, 10.0])
    got = evaluate(parse("exp(-u1^2) * u2"), {"u1": u, "u2": 2.0})
    assert np.allclose(got, 2.0 * np.exp(-u ** 2))


def test_vectorized_domain_error():
    with pytest.raises(DomainError):
        evaluate(parse("log(u1)"), {"u1": np.array([1.0, -1.0])})


def reference_pow(a, b):
    # both guards scan the base whatever the exponent
    av = np.asarray(a, dtype=float)
    bv = np.asarray(b, dtype=float)
    nonint = bv != np.round(bv)
    if np.any((av < 0.0) & nonint):
        raise DomainError("negative base with non-integer exponent")
    if np.any((av == 0.0) & (bv < 0.0)):
        raise DomainError("zero base with negative exponent")
    return a ** b


def _pow_outcome(pow_, a, b):
    try:
        return pow_(a, b)
    except DomainError as exc:
        return str(exc)


SPECIAL = [2.0, 0.0, -1.0, -2.0, 0.5, -0.5, math.nan, math.inf, -math.inf]
BASE_ARRAYS = [
    np.array([-2.0, -0.5, 0.0, -0.0, 1.5, math.nan, math.inf, -math.inf]),
    np.array([-2.0, -0.5, -math.inf]),
    np.array([-0.5, 2.0]),
    np.array([0.0, -0.0]),
    np.array([-0.0, 1.0]),
    np.array([1.5, 3.0, math.nan, math.inf]),
]
EXPONENT_ARRAYS = [
    np.array(SPECIAL)[:, None],  # every base against every exponent
    np.array([[2.0], [3.0], [-4.0]]),
    np.array([[2.0], [0.5]]),
    np.array([[2.0], [-1.0]]),
    np.array([[math.nan]]),
]


def test_pow_guards_match_the_reference():
    # _pow decides each guard on the exponent before it scans the base; its
    # values and DomainError messages must be exactly those of reference_pow
    bases = BASE_ARRAYS + [-2.0, -0.5, 0.0, -0.0, math.nan, math.inf]
    bases += [np.array(v) for v in (-2.0, 0.0, -0.0, math.nan, 1.5)]
    exponents = SPECIAL + [np.array(v) for v in SPECIAL] + EXPONENT_ARRAYS
    messages = set()
    for a in bases:
        for b in exponents:
            want = _pow_outcome(reference_pow, a, b)
            got = _pow_outcome(_pow, a, b)
            assert type(got) is type(want), (a, b, want, got)
            if isinstance(want, str):
                assert got == want, (a, b)
                messages.add(want)
            else:
                assert np.shape(got) == np.shape(want), (a, b)
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (a, b)
                assert np.array_equal(got, want, equal_nan=True), (a, b)
    assert messages == {"negative base with non-integer exponent",
                        "zero base with negative exponent"}


def _evaluate_and_forget(source, value):
    arr = np.full(3, value)
    ref = weakref.ref(arr)
    try:
        evaluate(parse(source), {"u1": arr})
    except DomainError:
        pass
    return ref


@pytest.mark.parametrize("source, value", [
    ("exp(-u1^2) * u1 + 1", 2.0), ("log(u1)", -1.0)])
def test_evaluate_drops_its_bindings(source, value):
    # a reference cycle inside the evaluator would keep every chunk of
    # quadrature nodes alive until the cyclic collector happens to run
    gc.disable()
    try:
        assert _evaluate_and_forget(source, value)() is None
    finally:
        gc.enable()


# jacobians

def test_dual_arithmetic():
    # the value/derivative pairs the forward-mode numbers used to pin
    x = np.array([3.0])
    for src, value, deriv in [("u1*u1", 9.0, 6.0),
                              ("1/u1", 1.0 / 3.0, -1.0 / 9.0),
                              ("u1^2 - 2*u1 + 1", 4.0, 4.0)]:
        tree = parse(src)
        assert evaluate(tree, {"u1": 3.0}) == pytest.approx(value)
        assert jacobian([tree], x)[0, 0] == pytest.approx(deriv)


@pytest.mark.parametrize("source, point, want", [
    ("(u1-3)^2", [0.0], [-6.0]),        # negative base, integer exponent
    ("u1^0", [0.0], [0.0]),
    ("u1^u2", [-1.0, 2.0], DomainError),  # a varying exponent needs a > 0
    ("log(u1)", [-1.0], DomainError),
])
def test_jacobian_power_rules(source, point, want):
    if want is DomainError:
        with pytest.raises(DomainError):
            jacobian([parse(source)], np.array(point))
    else:
        assert np.array_equal(jacobian([parse(source)], np.array(point))[0], want)


def test_dual_sqrt_at_zero_is_a_domain_error():
    with pytest.raises(DomainError):
        jacobian([parse("sqrt(u1)")], np.array([0.0]))


def test_dual_fractional_power_at_zero_is_a_domain_error():
    # derivative of u^0.5 is unbounded at 0 even though the value exists
    with pytest.raises(DomainError):
        jacobian([parse("u1^0.5")], np.array([0.0]))


def test_jacobian_shape_and_values():
    exprs = [parse("u1*u2"), parse("sin(u1)"), parse("u2^3")]
    jac = jacobian(exprs, np.array([0.5, 2.0]))
    assert jac.shape == (3, 2)
    want = np.array([[2.0, 0.5],
                     [math.cos(0.5), 0.0],
                     [0.0, 12.0]])
    assert np.allclose(jac, want, atol=1e-14)


def test_jacobian_against_finite_differences():
    rng = np.random.default_rng(20240817)
    checked = 0
    while checked < 50:
        nvars = int(rng.integers(1, 4))
        expr = random_expr(rng, nvars, depth=4)
        point = rng.uniform(-2.0, 2.0, size=nvars)
        assert ad_matches_fd(expr, point), to_source(expr)
        checked += 1


def test_printer_round_trip_on_random_trees():
    rng = np.random.default_rng(7)
    for _ in range(200):
        tree = random_expr(rng, 3, depth=5)
        printed = to_source(tree)
        assert parse(printed) == tree, printed


# substitution

def test_subst():
    tree = parse("u1^2 + u2")
    out = subst(tree, {"u1": parse("v1 + 1")})
    got = evaluate(out, {"v1": 2.0, "u2": 10.0})
    assert got == pytest.approx(19.0)
    # untouched variables survive
    assert evaluate(subst(tree, {}), {"u1": 1.0, "u2": 0.0}) == 1.0


def test_subst_builds_real_trees():
    out = subst(parse("exp(u1)"), {"u1": parse("-x1^2")})
    assert out == Call("exp", Neg(BinOp("^", Var("x1"), Num(2.0))))
