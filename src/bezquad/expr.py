"""Scalar integrand expressions in x, y, z.

A tiny language so rules can be applied to textual integrands: real
literals, the three coordinate variables, + - * / with the usual
precedence, right-binding ^ with a nonnegative integer literal exponent,
unary minus binding tighter than * but looser than ^, and the functions
sqrt, exp, sin, cos, log.

Expressions are parsed to immutable trees.  ``evaluate`` runs one point
in plain double arithmetic and reports domain violations with the
offending subexpression and point; ``to_callable`` compiles the tree to
a vectorized numpy function for quadrature; ``polynomial_degree``
decides whether the tree is a polynomial, which is what routes the CLI
to the polynomially exact planar rules.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import EvalError, ParseError

__all__ = [
    "Expr",
    "Num",
    "Var",
    "Neg",
    "BinOp",
    "Call",
    "parse",
    "to_text",
    "evaluate",
    "to_callable",
    "polynomial_degree",
]

_FUNCTIONS = {
    "sqrt": (math.sqrt, np.sqrt),
    "exp": (math.exp, np.exp),
    "sin": (math.sin, np.sin),
    "cos": (math.cos, np.cos),
    "log": (math.log, np.log),
}
_VARIABLES = ("x", "y", "z")


class Expr:
    """Base class for expression nodes; instances are frozen."""

    __slots__ = ()


@dataclass(frozen=True)
class Num(Expr):
    value: float


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class Neg(Expr):
    child: Expr


@dataclass(frozen=True)
class BinOp(Expr):
    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Call(Expr):
    fn: str
    arg: Expr


_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            # skip leading whitespace before reporting
            at = pos + len(text[pos:]) - len(text[pos:].lstrip())
            if at >= len(text):
                break
            raise ParseError(f"unexpected character {text[at]!r} at offset {at}")
        if m.group("num") is not None:
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.group("name") is not None:
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def number(self):
        """Take a number token as a float; literals past the double range raise."""
        kind, value, offset = self.take()
        v = float(value)
        if not math.isfinite(v):
            raise ParseError(f"number {value!r} does not fit a finite double at offset {offset}")
        return v

    def fail(self, message):
        kind, value, offset = self.peek()
        raise ParseError(f"{message} at offset {offset}")

    def expr(self):
        node = self.term()
        while self.peek()[:2] in (("op", "+"), ("op", "-")):
            op = self.take()[1]
            node = BinOp(op, node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.peek()[:2] in (("op", "*"), ("op", "/")):
            op = self.take()[1]
            node = BinOp(op, node, self.factor())
        return node

    def factor(self):
        if self.peek()[:2] == ("op", "-"):
            self.take()
            return Neg(self.factor())
        return self.power()

    def power(self):
        node = self.atom()
        if self.peek()[:2] == ("op", "^"):
            self.take()
            kind, value, offset = self.peek()
            if kind != "num" or not re.fullmatch(r"\d+", value):
                raise ParseError(
                    f"exponent must be a nonnegative integer literal at offset {offset}"
                )
            return BinOp("^", node, Num(self.number()))
        return node

    def atom(self):
        kind, value, offset = self.peek()
        if kind == "num":
            return Num(self.number())
        if kind == "name":
            self.take()
            if value in _VARIABLES:
                return Var(value)
            if value in _FUNCTIONS:
                if self.peek()[:2] != ("op", "("):
                    self.fail(f"{value} needs a parenthesized argument")
                self.take()
                arg = self.expr()
                if self.peek()[:2] != ("op", ")"):
                    self.fail("expected ')'")
                self.take()
                return Call(value, arg)
            raise ParseError(f"unknown identifier {value!r} at offset {offset}")
        if kind == "op" and value == "(":
            self.take()
            node = self.expr()
            if self.peek()[:2] != ("op", ")"):
                self.fail("expected ')'")
            self.take()
            return node
        self.fail("expected a value")


def parse(text: str) -> Expr:
    """Parse an integrand; raises ParseError with a character offset."""
    p = _Parser(text)
    node = p.expr()
    if p.peek()[0] != "end":
        p.fail(f"unexpected {p.peek()[1]!r}")
    return node


_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def _prec(node):
    if isinstance(node, BinOp):
        return _PRECEDENCE[node.op]
    if isinstance(node, Neg):
        return _PRECEDENCE["neg"]
    return 9


def to_text(node: Expr) -> str:
    """Print with minimal parentheses; reparsing gives the same tree."""
    if isinstance(node, Num):
        v = node.value
        return repr(int(v)) if v == int(v) and abs(v) < 1e16 else repr(v)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        inner = to_text(node.child)
        if _prec(node.child) < _PRECEDENCE["neg"]:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(node, Call):
        return f"{node.fn}({to_text(node.arg)})"
    p = _PRECEDENCE[node.op]
    lt = to_text(node.left)
    if _prec(node.left) < p or (node.op == "^" and _prec(node.left) <= p):
        lt = f"({lt})"
    rt = to_text(node.right)
    # binary operators associate left, so an equal-precedence right
    # child only survives reparsing behind parentheses
    if node.op != "^" and _prec(node.right) <= p:
        rt = f"({rt})"
    return f"{lt}^{rt}" if node.op == "^" else f"{lt} {node.op} {rt}"


def evaluate(node: Expr, point) -> float:
    """Evaluate at point = (x, y, z) in double arithmetic.

    Domain violations (square root of a negative, log of a nonpositive,
    division by zero) raise EvalError naming the subexpression.
    """
    x, y, z = (float(c) for c in point)
    env = {"x": x, "y": y, "z": z}

    def walk(n):
        if isinstance(n, Num):
            return n.value
        if isinstance(n, Var):
            return env[n.name]
        if isinstance(n, Neg):
            return -walk(n.child)
        if isinstance(n, Call):
            v = walk(n.arg)
            try:
                return _FUNCTIONS[n.fn][0](v)
            except ValueError:
                raise EvalError(
                    f"domain error in {to_text(n)} at point ({x:.17g}, {y:.17g}, {z:.17g})"
                ) from None
            except OverflowError:
                raise EvalError(
                    f"overflow in {to_text(n)} at point ({x:.17g}, {y:.17g}, {z:.17g})"
                ) from None
        a = walk(n.left)
        b = walk(n.right)
        if n.op == "+":
            return a + b
        if n.op == "-":
            return a - b
        if n.op == "*":
            return a * b
        if n.op == "/":
            if b == 0.0:
                raise EvalError(
                    f"division by zero in {to_text(n)} at point ({x:.17g}, {y:.17g}, {z:.17g})"
                )
            return a / b
        try:
            return a ** int(b)
        except OverflowError:
            raise EvalError(
                f"overflow in {to_text(n)} at point ({x:.17g}, {y:.17g}, {z:.17g})"
            ) from None

    return float(walk(node))


def _spread(value, x):
    """``value`` as an array shaped like ``x``; arrays pass through.

    Powers and functions of a constant run over such an array, since
    numpy's vector kernels need not give the bits of a one-element call.
    """
    if isinstance(value, np.ndarray):
        return value
    return np.full(np.shape(x), value, dtype=float)


def to_callable(node: Expr):
    """Compile to f(x, y, z) over numpy arrays.

    Literals stay Python floats, and + - * / of a float and an array
    round each element as two arrays would; a constant result is spread
    to the shape of ``x`` at the end.  Out-of-domain points produce
    non-finite values rather than raising; the integrators report those
    with the offending node location.
    """

    def walk(n):
        if isinstance(n, Num):
            v = float(n.value)
            return lambda x, y, z: v
        if isinstance(n, Var):
            name = n.name
            return lambda x, y, z, _k=name: np.asarray(
                {"x": x, "y": y, "z": z}[_k], dtype=float
            )
        if isinstance(n, Neg):
            f = walk(n.child)
            return lambda x, y, z: -f(x, y, z)
        if isinstance(n, Call):
            f = walk(n.arg)
            g = _FUNCTIONS[n.fn][1]
            return lambda x, y, z: g(_spread(f(x, y, z), x))
        fl = walk(n.left)
        if n.op == "^":
            k = int(n.right.value)
            if k == 0:
                return lambda x, y, z: 1.0
            if k == 1:
                return fl
            return lambda x, y, z: _spread(fl(x, y, z), x) ** k
        fr = walk(n.right)
        op = {
            "+": np.add,
            "-": np.subtract,
            "*": np.multiply,
            "/": np.divide,
        }[n.op]
        return lambda x, y, z: op(fl(x, y, z), fr(x, y, z))

    f = walk(node)

    def call(x, y, z=None):
        if z is None:
            z = np.zeros(np.shape(x))
        with np.errstate(all="ignore"):
            return _spread(f(x, y, z), x)

    return call


def polynomial_degree(node: Expr):
    """Total degree if the tree is a polynomial, else None.

    Division is polynomial only when the denominator has no variables
    and evaluates to something nonzero; function calls never are.
    """
    if isinstance(node, Num):
        return 0
    if isinstance(node, Var):
        return 1
    if isinstance(node, Neg):
        return polynomial_degree(node.child)
    if isinstance(node, Call):
        return None
    l = polynomial_degree(node.left)
    if l is None:
        return None
    if node.op == "^":
        return l * int(node.right.value)
    r = polynomial_degree(node.right)
    if r is None:
        return None
    if node.op in ("+", "-"):
        return max(l, r)
    if node.op == "*":
        return l + r
    # division: constant nonzero denominators only
    if r != 0 or _has_variable(node.right):
        return None
    try:
        if evaluate(node.right, (0.0, 0.0, 0.0)) == 0.0:
            return None
    except EvalError:
        return None
    return l


def _has_variable(node):
    if isinstance(node, Var):
        return True
    if isinstance(node, (Num,)):
        return False
    if isinstance(node, Neg):
        return _has_variable(node.child)
    if isinstance(node, Call):
        return _has_variable(node.arg)
    return _has_variable(node.left) or _has_variable(node.right)
