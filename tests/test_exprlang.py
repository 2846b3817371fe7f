"""Parser, printer, evaluator, and symbolic differentiation.

The golden corpus in golden_exprs.json freezes, per expression: the printed
canonical form, the value at a fixed binding point, and the gradient there.
Values and gradients were computed symbolically with an independent CAS and
frozen; the printed column pins the printer against regressions.
"""
import gc
import json
import math
import pickle
import weakref
from pathlib import Path

import numpy as np
import pytest

from geodens import exprlang
from geodens.errors import (
    DomainError,
    ExprSyntaxError,
    UnboundIdentifier,
    UnknownFunction,
)
from geodens.exprlang import (
    CONSTANTS,
    FUNCTIONS,
    ONE,
    ZERO,
    BinOp,
    Call,
    Neg,
    Num,
    Var,
    _div,
    _pow,
    add,
    diff,
    evaluate,
    jacobian,
    mul,
    parse,
    reads,
    sub,
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


@pytest.mark.parametrize("src, offset", [
    ("(" * 300 + "u1" + ")" * 300, 100),
    (" + ".join(["u1"] * 1200), 3 + 5 * 99),  # the sum that would be 101 deep
    ("-" * 400 + "u1", 100),
    ("2^" * 300 + "2", 200),
    ("exp(" * 300 + "u1" + ")" * 300, 400),
], ids=["parentheses", "sum", "minus", "power", "calls"])
def test_parse_refuses_nesting_and_trees_past_the_depth_bound(src, offset):
    with pytest.raises(ExprSyntaxError) as err:
        parse(src)
    assert err.value.offset == offset


def depth(e):
    kids = [k for k in vars(e).values() if isinstance(k, exprlang._Node)]
    return 1 + max(map(depth, kids), default=0)


AT_DEPTH = {  # n -> the source of a tree n levels deep
    "sum": lambda n: " + ".join(["u1"] * n),
    "product": lambda n: "*".join(["u1"] * n),
    "minus": lambda n: "-" * (n - 1) + "u1",
    "calls": lambda n: "sin(" * (n - 1) + "u1" + ")" * (n - 1),
    "quotients": lambda n: "1/(" * (n - 1) + "u1" + ")" * (n - 1),
    "powers": lambda n: "u1^" * (n - 1) + "2",
}


@pytest.mark.parametrize("shape", sorted(AT_DEPTH))
def test_a_tree_at_the_depth_bound_runs_every_pass(shape):
    tree = parse(AT_DEPTH[shape](exprlang.MAX_DEPTH))
    assert depth(tree) == exprlang.MAX_DEPTH
    assert parse(to_source(tree)) == tree
    d = diff(tree, "u1")
    assert to_source(d)
    u = np.array([0.3, 0.7])
    assert np.all(np.isfinite(evaluate(d, {"u1": u})))
    moved = subst(tree, {"u1": Var("u2")})
    assert np.array_equal(evaluate(moved, {"u2": u}), evaluate(tree, {"u1": u}))
    with pytest.raises(ExprSyntaxError):
        parse(AT_DEPTH[shape](exprlang.MAX_DEPTH + 1))


@pytest.mark.parametrize("src, offset", [("1e400", 0), ("2*1e400", 2), ("-1e400*u1", 1)])
def test_parse_refuses_a_literal_past_the_float_range(src, offset):
    with pytest.raises(ExprSyntaxError) as err:
        parse(src)
    assert err.value.offset == offset
    assert parse("1e308") == Num(1e308) and parse("1e-400") == Num(0.0)


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
    # a float power past the float range: a literal and a computed exponent
    ("10^400", None),
    ("pi^pi^pi^pi", None),
    ("u1^400", {"u1": 10.0}),
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


# compiled evaluation

def reference_evaluate(e, b):
    """The tree-walking interpreter that compiled closures replaced: every guard
    of ``_div`` and ``_pow`` decided on every call."""
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        if e.name in CONSTANTS:
            return CONSTANTS[e.name]
        try:
            return b[e.name]
        except KeyError:
            raise UnboundIdentifier(f"unbound identifier {e.name!r}") from None
    if isinstance(e, Neg):
        return -reference_evaluate(e.arg, b)
    if isinstance(e, Call):
        return FUNCTIONS[e.func](reference_evaluate(e.arg, b))
    left = reference_evaluate(e.left, b)
    right = reference_evaluate(e.right, b)
    if e.op == "+":
        return left + right
    if e.op == "-":
        return left - right
    if e.op == "*":
        return left * right
    if e.op == "/":
        return _div(left, right)
    return _pow(left, right)


def assert_same_outcome(tree, bindings, want=None):
    """evaluate gives the reference's value bit for bit, or its DomainError message."""
    if want is None:
        want = _pow_outcome(reference_evaluate, tree, bindings)
    got = _pow_outcome(evaluate, tree, bindings)
    assert type(got) is type(want), (to_source(tree), bindings, want, got)
    if isinstance(want, str):
        assert got == want, (to_source(tree), bindings)
    else:
        assert np.shape(got) == np.shape(want), (to_source(tree), bindings)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (to_source(tree), bindings)


def test_compiled_trees_match_the_interpreter_bitwise():
    rng = np.random.default_rng(20)
    for _ in range(200):
        tree = random_expr(rng, 3, depth=5)
        scalars = {f"u{i}": float(v) for i, v in enumerate(rng.uniform(-3, 3, 3), 1)}
        # an open grid, as quadrature passes it: each variable on its own axis
        grid = {"u1": rng.uniform(-3, 3, (4, 1, 1)), "u2": rng.uniform(-3, 3, (1, 5, 1)),
                "u3": rng.uniform(-3, 3, (1, 1, 3))}
        for kind in (tree, _negative_literals(tree)):
            for bindings in (scalars, grid):
                assert_same_outcome(kind, bindings)


@pytest.mark.parametrize("p", SPECIAL)
def test_literal_exponent_and_divisor_guards_match_the_interpreter(p):
    # a guard settled at compile time gives _pow's value or its message
    power, quotient = BinOp("^", Var("a"), Num(p)), BinOp("/", Var("a"), Num(p))
    for a in BASE_ARRAYS + [-2.0, -0.5, 0.0, -0.0, math.nan, math.inf, 3.0]:
        assert_same_outcome(power, {"a": a}, want=_pow_outcome(reference_pow, a, p))
        with np.errstate(invalid="ignore"):  # inf / inf
            assert_same_outcome(quotient, {"a": a})


@pytest.mark.parametrize("zero", [0.0, -0.0])
def test_literal_zero_divisor_raises(zero):
    tree = BinOp("/", Var("a"), Num(zero))
    for a in (1.0, np.array([1.0, 2.0]), 0.0):
        with pytest.raises(DomainError, match="division by zero"):
            evaluate(tree, {"a": a})
    with pytest.raises(UnboundIdentifier):  # the numerator still runs first
        evaluate(tree, {})


def _nodes(e):
    kids = {BinOp: ("left", "right"), Neg: ("arg",), Call: ("arg",)}.get(type(e), ())
    return 1 + sum(_nodes(getattr(e, k)) for k in kids)


def test_a_tree_compiles_once(monkeypatch):
    calls = []
    compile_ = exprlang._compile
    monkeypatch.setattr(exprlang, "_compile", lambda e: calls.append(e) or compile_(e))
    tree = parse("exp(-u1^2/0.45-u2^2/1.0) + pi*u1")
    b = {"u1": np.linspace(-1.0, 1.0, 5), "u2": 0.25}
    first = evaluate(tree, b)
    assert len(calls) == _nodes(tree) == 17
    assert np.array_equal(evaluate(tree, b), first)
    assert len(calls) == 17
    # a subtree met twice is one node: u1^2 + u1^2 compiles 4 nodes, not 7
    calls.clear()
    square = parse("u1^2")
    evaluate(BinOp("+", square, square), b)
    assert len(calls) == 4


def test_an_unbound_name_raises_at_every_evaluation():
    tree = parse("u1 + v")
    for _ in range(2):
        with pytest.raises(UnboundIdentifier, match="'v'"):
            evaluate(tree, {"u1": 1.0})
    assert evaluate(tree, {"u1": 1.0, "v": 2.0}) == 3.0


def test_an_evaluated_tree_pickles():
    tree = parse("exp(-u1^2/0.45) * sqrt(u2) + pi")
    b = {"u1": 0.3, "u2": 2.0}
    value = evaluate(tree, b)
    back = pickle.loads(pickle.dumps(tree))
    assert back == tree and hash(back) == hash(tree)
    assert evaluate(back, b) == value


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


def _negative_literals(e):
    """The tree with every Neg(Num(v)) leaf, v > 0, folded into Num(-v)."""
    if isinstance(e, Neg):
        arg = _negative_literals(e.arg)
        return Num(-arg.value) if isinstance(arg, Num) and arg.value > 0.0 else Neg(arg)
    if isinstance(e, BinOp):
        return BinOp(e.op, _negative_literals(e.left), _negative_literals(e.right))
    if isinstance(e, Call):
        return Call(e.func, _negative_literals(e.arg))
    return e


def test_printer_round_trip_on_random_trees():
    # the generator writes negative constants as Neg(Num(v)); folded, the
    # same trees carry negative Num leaves instead, printed as -v
    rng = np.random.default_rng(7)
    for _ in range(200):
        tree = random_expr(rng, 3, depth=5)
        for kind in (tree, _negative_literals(tree)):
            printed = to_source(kind)
            assert parse(printed) == kind, printed


@pytest.mark.parametrize("tree, printed", [
    (Num(-0.25), "-0.25"),
    (Neg(Num(0.25)), "-(0.25)"),
    (Neg(Num(-0.25)), "--0.25"),
    (BinOp("-", Var("x3"), Num(-0.25)), "x3 - -0.25"),
    (BinOp("^", Num(-2.0), Num(2.0)), "(-2)^2"),
    (BinOp("^", Num(2.0), Num(-2.0)), "2^-2"),
    (Neg(BinOp("^", Num(2.0), Num(2.0))), "-2^2"),  # -2^2 is -(2^2)
    (Num(-0.0), "-0"),
])
def test_negative_literals_round_trip(tree, printed):
    assert to_source(tree) == printed
    assert parse(printed) == tree


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


# folding constructors

def test_constructors_fold_zero_and_one():
    e = parse("u1 + exp(u2)")
    assert add(ZERO, e) is e and add(e, ZERO) is e
    assert sub(e, ZERO) is e
    assert sub(ZERO, e) == Neg(e)
    assert mul(ZERO, e) == ZERO and mul(e, ZERO) == ZERO
    assert mul(ONE, e) is e and mul(e, ONE) is e
    # -0.0 is a zero; anything else builds the node, operands in order
    assert add(Num(-0.0), e) is e
    assert add(e, ONE) == BinOp("+", e, ONE)
    assert sub(ONE, e) == BinOp("-", ONE, e)
    assert mul(Num(2.0), e) == BinOp("*", Num(2.0), e)
    assert mul(Num(-1.0), e) == BinOp("*", Num(-1.0), e)


def test_reads_names_every_identifier_of_a_tree():
    assert reads(parse("a*u1 + exp(-(x2 - u1)^2)/pi")) == {"a", "u1", "x2", "pi"}
    assert reads(parse("-sqrt(2)")) == frozenset()


def test_diff_of_a_tree_free_of_the_variable_is_the_zero_tree():
    # so a tree that reads none of a set of identifiers is constant in them, as
    # Submanifold.frames_constant and ExprField.factors judge by ``reads``
    rng = np.random.default_rng(5)
    for _ in range(200):
        tree = random_expr(rng, 3, 4)
        assert diff(tree, "u4") == Num(0.0)
        assert diff(diff(tree, "u1"), "a") == Num(0.0)
    assert diff(parse("a*u1 + 2"), "u1") == Var("a")
    assert diff(parse("u1 - u1"), "u1") != Num(0.0)  # unfolded: counted as varying
