"""Small arithmetic expression language for coefficients and chart maps.

Grammar, loosest binding first::

    sum     := product (('+' | '-') product)*
    product := unary (('*' | '/') unary)*
    unary   := '-' NUMBER | '-' unary | power
    power   := atom ('^' unary)?          right associative
    atom    := NUMBER | IDENT | IDENT '(' sum ')' | '(' sum ')'

so '^' binds tighter than unary minus: ``-u1^2`` is ``-(u1^2)``, and ``-2^2``
is ``-(2^2)``.  A minus on a bare number not raised to a power is part of
the literal: ``-0.25`` is ``Num(-0.25)``, ``-(0.25)`` is ``Neg(Num(0.25))``.

Functions: exp, sin, cos, sqrt, log.  ``pi`` is a reserved constant.
Any other identifier is free and must be bound at evaluation time
(chart coordinates u1..uk, ambient coordinates x1..xn, fiber coordinates
xi1..xiq, named scene parameters).

Evaluation works on floats and, elementwise, on numpy arrays.  ``diff``
builds the derivative of a tree as another tree, so derivatives evaluate
through the same vectorized ``evaluate`` as values; ``jacobian`` evaluates
them at a point.  Derivatives are exact, no finite differences anywhere.
Each tree compiles once, at its first evaluation, into closures kept on its
nodes; ``FUNCTIONS`` and ``CONSTANTS`` are read then.  The domain guards of
a literal exponent or divisor are settled at compile time: ``x^2`` and
``x/2`` never scan ``x``, ``x^0.5`` does.

Derived trees (derivatives, scaled coefficients, mollifier tubes) are built
only through ``add``, ``sub`` and ``mul``, which fold ``ZERO`` and ``ONE``:
``mul(ONE, e)`` is ``e``, ``mul(ZERO, e)`` is ``ZERO`` and ``sub(ZERO, e)``
is ``Neg(e)``.
"""
from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, fields
from functools import reduce
from typing import Mapping, Union

import numpy as np

from .errors import DomainError, ExprSyntaxError, UnboundIdentifier, UnknownFunction

__all__ = [
    "Expr", "Num", "Var", "Neg", "BinOp", "Call",
    "parse", "evaluate", "diff", "jacobian", "subst", "affine", "reads", "to_source",
    "add", "sub", "mul", "ZERO", "ONE", "FUNCTIONS", "CONSTANTS", "MAX_DEPTH",
]


class _Node:
    def __reduce__(self):  # a node is its fields, not the closure evaluate keeps on it
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


@dataclass(frozen=True)
class Num(_Node):
    value: float


@dataclass(frozen=True)
class Var(_Node):
    name: str


@dataclass(frozen=True)
class Neg(_Node):
    arg: "Expr"


@dataclass(frozen=True)
class BinOp(_Node):
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call(_Node):
    func: str
    arg: "Expr"


Expr = Union[Num, Var, Neg, BinOp, Call]

CONSTANTS = {"pi": math.pi}


def _f_sqrt(v):
    if np.any(np.asarray(v) < 0.0):
        raise DomainError("sqrt of a negative value")
    return np.sqrt(v)


def _f_log(v):
    if np.any(np.asarray(v) <= 0.0):
        raise DomainError("log of a non-positive value")
    return np.log(v)


FUNCTIONS = {"exp": np.exp, "sin": np.sin, "cos": np.cos,
             "sqrt": _f_sqrt, "log": _f_log}


# lexing / parsing

_TOKEN_RE = re.compile(r"""
      (?P<ws>\s+)
    | (?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<op>[-+*/^()])
""", re.VERBOSE)


def _byte_offset(source: str, index: int) -> int:
    return len(source[:index].encode("utf-8"))


def _tokenize(source: str):
    tokens = []
    i = 0
    while i < len(source):
        m = _TOKEN_RE.match(source, i)
        if m is None:
            raise ExprSyntaxError(
                f"unexpected character {source[i]!r}", _byte_offset(source, i))
        if m.lastgroup == "num" and not math.isfinite(float(m.group())):
            raise ExprSyntaxError(f"number {m.group()} is too large", _byte_offset(source, i))
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), _byte_offset(source, i)))
        i = m.end()
    tokens.append(("end", "", _byte_offset(source, len(source))))
    return tokens


MAX_DEPTH = 100  # deepest nesting and tree parse accepts (a leaf is 1); 5 parser frames a level


class _Parser:
    def __init__(self, source: str):
        self.tokens = _tokenize(source)
        self.pos = 0
        self.nesting = 0  # unary levels on the stack: every recursion of the parser passes one
        self.depths = {}  # id(node) -> depth, for the nodes built by this parse

    def bounded(self, depth: int, off: int) -> int:
        if depth > MAX_DEPTH:
            raise ExprSyntaxError(f"expression is more than {MAX_DEPTH} levels deep", off)
        return depth

    def node(self, e: Expr, off: int) -> Expr:
        kids = [self.depths.get(id(k), 1) for k in vars(e).values() if isinstance(k, _Node)]
        self.depths[id(e)] = self.bounded(1 + max(kids), off)
        return e

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, text, off = self.peek()
        if kind != "op" or text != op:
            raise ExprSyntaxError(f"expected {op!r}", off)
        self.advance()

    def parse(self) -> Expr:
        e = self.sum()
        kind, text, off = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected token {text!r}", off)
        return e

    def sum(self) -> Expr:
        e = self.product()
        while self.peek()[0] == "op" and self.peek()[1] in "+-":
            _, op, off = self.advance()
            e = self.node(BinOp(op, e, self.product()), off)
        return e

    def product(self) -> Expr:
        e = self.unary()
        while self.peek()[0] == "op" and self.peek()[1] in "*/":
            _, op, off = self.advance()
            e = self.node(BinOp(op, e, self.unary()), off)
        return e

    def unary(self) -> Expr:
        kind, text, off = self.peek()
        self.nesting = self.bounded(self.nesting + 1, off)
        if kind == "op" and text == "-":
            self.advance()
            if self.peek()[0] == "num" and self.tokens[self.pos + 1][1] != "^":
                e = Num(-float(self.advance()[1]))
            else:
                e = self.node(Neg(self.unary()), off)
        else:
            e = self.power()
        self.nesting -= 1
        return e

    def power(self) -> Expr:
        e = self.atom()
        kind, text, off = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            return self.node(BinOp("^", e, self.unary()), off)
        return e

    def atom(self) -> Expr:
        kind, text, off = self.advance()
        if kind == "num":
            return Num(float(text))
        if kind == "ident":
            if self.peek()[0] == "op" and self.peek()[1] == "(":
                if text not in FUNCTIONS:
                    raise UnknownFunction(
                        f"unknown function {text!r} at offset {off}")
                self.advance()
                arg = self.sum()
                self.expect_op(")")
                return self.node(Call(text, arg), off)
            return Var(text)
        if kind == "op" and text == "(":
            e = self.sum()
            self.expect_op(")")
            return e
        shown = text if text else "end of input"
        raise ExprSyntaxError(f"unexpected {shown!r}", off)


def parse(source: str) -> Expr:
    """Parse source text into a tree: finite literals, at most MAX_DEPTH deep and nested."""
    return _Parser(source).parse()


# evaluation

def evaluate(expr: Expr, bindings: Mapping[str, object] | None = None):
    """Evaluate an expression tree.

    Bindings map identifier names to floats or numpy arrays (elementwise
    evaluation).  ``pi`` resolves before bindings.  The tree compiles at its
    first evaluation, children first and by a loop: compiling needs no deeper
    a stack than evaluating.  Later evaluations run its closures.
    """
    todo = [expr]
    while "_fn" not in vars(expr):
        e = todo.pop()
        kids = [k for k in vars(e).values() if isinstance(k, _Node) and "_fn" not in vars(k)]
        if kids:
            todo += [e, *kids]
        elif "_fn" not in vars(e):  # a subtree met twice compiles once
            vars(e)["_fn"] = _compile(e)
    return vars(expr)["_fn"](bindings or {})


def _compile(e: Expr):
    """The closure bindings -> value of node e, over its children's.  It runs the
    numpy operations of ``_div`` and ``_pow`` in their order and holds no node and
    no bindings: a reference cycle would keep the bindings until the collector ran."""
    if isinstance(e, Num) or isinstance(e, Var) and e.name in CONSTANTS:
        value = e.value if isinstance(e, Num) else CONSTANTS[e.name]
        return lambda b: value
    if isinstance(e, Var):
        name = e.name

        def lookup(b):
            try:
                return b[name]
            except KeyError:
                raise UnboundIdentifier(f"unbound identifier {name!r}") from None
        return lookup
    if isinstance(e, Neg):
        arg = vars(e.arg)["_fn"]
        return lambda b: -arg(b)
    if isinstance(e, Call):
        func, arg = FUNCTIONS[e.func], vars(e.arg)["_fn"]
        return lambda b: func(arg(b))
    left, right = vars(e.left)["_fn"], vars(e.right)["_fn"]
    c = e.right.value if isinstance(e.right, Num) else None
    if e.op == "/" and c not in (None, 0.0):
        return lambda b: left(b) / c
    if e.op == "^" and c is not None:
        nonint, negative = bool(c != np.round(c)), c < 0.0  # NaN is not an integer
        if nonint or negative:
            return lambda b: _scanned_pow(left(b), c, nonint, negative)
        return lambda b: _power(left(b), c)
    op = _OPS[e.op]
    return lambda b: op(left(b), right(b))


def _div(a, b):
    if np.any(np.asarray(b) == 0.0):
        raise DomainError("division by zero")
    return a / b


def _pow(a, b):
    bv = np.asarray(b, dtype=float)
    return _scanned_pow(a, b, bv != np.round(bv), bv < 0.0)


def _scanned_pow(a, b, nonint, negative):
    # a ** b; the base is scanned for negatives where nonint, for zeros where negative
    av = np.asarray(a, dtype=float)
    if np.any(nonint) and np.any((av < 0.0) & nonint):
        raise DomainError("negative base with non-integer exponent")
    if np.any(negative) and np.any((av == 0.0) & negative):
        raise DomainError("zero base with negative exponent")
    return _power(a, b)


def _power(a, b):
    try:
        return a ** b
    except OverflowError:  # Python floats raise where numpy arrays give inf
        raise DomainError("power overflows the float range") from None


_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": _div, "^": _pow}


# folding constructors: the one way to combine trees with +, - and *

ZERO, ONE = Num(0.0), Num(1.0)


def add(a: Expr, b: Expr) -> Expr:
    """``a + b``, with a zero term folded away."""
    if a == ZERO:
        return b
    return a if b == ZERO else BinOp("+", a, b)


def sub(a: Expr, b: Expr) -> Expr:
    """``a - b``, with a zero term folded away; ``sub(ZERO, b)`` is ``Neg(b)``."""
    if b == ZERO:
        return a
    return Neg(b) if a == ZERO else BinOp("-", a, b)


def mul(a: Expr, b: Expr) -> Expr:
    """``a*b``: ZERO if either factor is zero, the other factor if one is one."""
    if a == ZERO or b == ZERO:
        return ZERO
    if a == ONE:
        return b
    return a if b == ONE else BinOp("*", a, b)


# differentiation

def _over(a: Expr, b: Expr) -> Expr:
    if a == ZERO:
        return ZERO
    return a if b == ONE else BinOp("/", a, b)


def _power_factor(base: Expr, p: Expr) -> Expr:
    # d(base^p)/d(base) for an exponent that does not vary
    if not isinstance(p, Num):
        return mul(p, BinOp("^", base, sub(p, ONE)))
    if p.value in (0.0, 1.0):
        return p  # the factors of a^0 and a^1 are 0 and 1
    lowered = base if p.value == 2.0 else BinOp("^", base, Num(p.value - 1.0))
    return mul(p, lowered)


# d f(a) / da, given a and the call node f(a) itself; log's factor 1/a is
# written exp(-log a) so that it keeps log's domain check
_CALL_FACTORS = {
    "exp": lambda a, e: e,
    "sin": lambda a, e: Call("cos", a),
    "cos": lambda a, e: Neg(Call("sin", a)),
    "sqrt": lambda a, e: BinOp("/", Num(0.5), e),
    "log": lambda a, e: Call("exp", Neg(e)),
}


def diff(expr: Expr, var: str) -> Expr:
    """Derivative tree of ``expr`` in the identifier ``var``.

    Zero and unit terms fold away, and a power with an exponent that does
    not depend on ``var`` differentiates as ``c*a^(c-1)*a'``, so its
    negative bases stay valid.  A varying exponent needs ``log`` of the
    base: ``a^b (b' log a + b a'/a)``.  Evaluating the tree raises
    DomainError where the derivative is unbounded, for instance ``sqrt``
    or ``u^0.5`` at 0.
    """
    if isinstance(expr, Num):
        return ZERO
    if isinstance(expr, Var):
        return ONE if expr.name == var else ZERO
    if isinstance(expr, Neg):
        return sub(ZERO, diff(expr.arg, var))
    if isinstance(expr, Call):
        return mul(_CALL_FACTORS[expr.func](expr.arg, expr), diff(expr.arg, var))
    a, b = expr.left, expr.right
    da, db = diff(a, var), diff(b, var)
    if expr.op == "+":
        return add(da, db)
    if expr.op == "-":
        return sub(da, db)
    if expr.op == "*":
        return add(mul(da, b), mul(a, db))
    if expr.op == "/":
        return _over(sub(da, mul(expr, db)), b)
    if db == ZERO:
        return mul(_power_factor(a, b), da)
    return mul(expr, add(mul(db, Call("log", a)), _over(mul(b, da), a)))


def jacobian(exprs, point) -> np.ndarray:
    """Exact jacobian (len(exprs), k) of component expressions in u1..uk at ``point``."""
    p = np.asarray(point, dtype=float)
    names = [f"u{i + 1}" for i in range(p.shape[0])]
    values = dict(zip(names, p))
    rows = [[float(evaluate(diff(e, v), values)) for v in names] for e in exprs]
    return np.array(rows, dtype=float).reshape(len(exprs), len(names))


def subst(expr: Expr, mapping: Mapping[str, Expr]) -> Expr:
    """Replace free identifiers with expression trees."""
    if isinstance(expr, Num):
        return expr
    if isinstance(expr, Var):
        return mapping.get(expr.name, expr)
    if isinstance(expr, Neg):
        return Neg(subst(expr.arg, mapping))
    if isinstance(expr, Call):
        return Call(expr.func, subst(expr.arg, mapping))
    return BinOp(expr.op, subst(expr.left, mapping), subst(expr.right, mapping))


def affine(base, matrix, prefix: str) -> list[Expr]:
    """The components b_i + sum_j A_ij <prefix>j of an affine map, for ``subst``: zero
    entries give no term, and the terms add in order, from b_i."""
    return [reduce(add, (mul(Num(float(a)), Var(f"{prefix}{j + 1}"))
                         for j, a in enumerate(row) if a), Num(float(b)))
            for b, row in zip(base, matrix)]


def reads(expr: Expr) -> frozenset[str]:
    """The identifiers a tree reads, ``pi`` included."""
    if isinstance(expr, Var):
        return frozenset([expr.name])
    return frozenset().union(*(reads(k) for k in vars(expr).values() if isinstance(k, _Node)))


# printing

_LEFT_MIN = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 5}
_RIGHT_MIN = {"+": 2, "-": 2, "*": 3, "/": 3, "^": 3}


def _prec(e: Expr) -> int:
    if isinstance(e, BinOp):
        return 4 if e.op == "^" else (2 if e.op in "*/" else 1)
    if isinstance(e, Neg):
        return 3
    if isinstance(e, Num) and e.value < 0:
        return 3
    return 5


def _fmt_num(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return f"{v:.0f}"  # keeps the sign of -0.0
    return repr(v)


def _emit(e: Expr) -> str:
    if isinstance(e, Num):
        return _fmt_num(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Call):
        return f"{e.func}({_emit(e.arg)})"
    if isinstance(e, Neg):
        inner = _emit(e.arg)
        # -(0.25): a bare -0.25 would read back as the literal Num(-0.25)
        if _prec(e.arg) < 3 or isinstance(e.arg, Num) and e.arg.value >= 0.0:
            inner = f"({inner})"
        return f"-{inner}"
    left = _emit(e.left)
    if _prec(e.left) < _LEFT_MIN[e.op]:
        left = f"({left})"
    right = _emit(e.right)
    if _prec(e.right) < _RIGHT_MIN[e.op]:
        right = f"({right})"
    if e.op == "^":
        return f"{left}^{right}"
    return f"{left} {e.op} {right}" if e.op in "+-" else f"{left}{e.op}{right}"


def to_source(expr: Expr) -> str:
    """Render a tree back to source.  Printing then parsing returns the same tree."""
    return _emit(expr)
