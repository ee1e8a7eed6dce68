"""Scalar integrand expressions in x, y, z.

A tiny language so rules can be applied to textual integrands: real
literals, the three coordinate variables, + - * / with the usual
precedence, right-binding ^ with a nonnegative integer literal exponent,
unary minus binding tighter than * but looser than ^, and the functions
sqrt, exp, sin, cos, log.

Expressions are parsed to immutable trees, and one interpreter walks
them in two modes that differ only in their primitive tables.
``evaluate`` runs one point through ``operator`` and ``math``, which
raise where the point leaves the domain; the error names the offending
subexpression and point.  ``to_callable`` runs arrays through numpy,
which gives inf or nan there instead.  In both, x^0 is nan wherever x is
not finite, so a zeroth power hides no fault.  ``to_callable`` spreads a
constant to the shape of ``x`` before a function or a power acts on it,
since numpy's vector kernels need not give the bits of a one-element
call, so every point of the result rounds alike.  ``polynomial_degree``
decides whether the tree is a polynomial, which is what routes the CLI
to the polynomially exact planar rules.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass

import numpy as np

from .bezier import _kind
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
# The walks of a tree recurse once per level of it, and the parser up to 8
# times per nested group or negation.  parse refuses input that would take
# either past this many frames, which leaves the caller room under Python's
# default recursion limit of 1000
_MAX_FRAMES = 700


class Expr:
    """Base class for expression nodes; instances are frozen.

    ``==``, ``hash`` and ``repr`` give what a frozen dataclass gives, but
    walk the tree with an explicit stack, so every tree parse accepts
    takes them."""

    __slots__ = ()

    def _preorder(self):
        """Each node's class and then its fields that are not nodes, node
        by node in preorder; the classes' arities make this the tree."""
        key, stack = [], [self]
        while stack:
            node = stack.pop()
            key.append(type(node))
            fields = vars(node).values()
            key += [v for v in fields if not isinstance(v, Expr)]
            stack += reversed([v for v in fields if isinstance(v, Expr)])
        return key

    def __eq__(self, other):
        if not isinstance(other, Expr):
            return NotImplemented
        return self._preorder() == other._preorder()

    def __hash__(self):
        return hash(tuple(self._preorder()))

    def __repr__(self):
        texts, stack = [], [self]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                texts.append(item)
                continue
            parts = [f"{type(item).__qualname__}("]
            for i, (name, value) in enumerate(vars(item).items()):
                value = value if isinstance(value, Expr) else repr(value)
                parts += [f"{', ' * (i > 0)}{name}=", value]
            stack += reversed([*parts, ")"])
        return "".join(texts)


@dataclass(frozen=True, eq=False, repr=False)
class Num(Expr):
    value: float


@dataclass(frozen=True, eq=False, repr=False)
class Var(Expr):
    name: str


@dataclass(frozen=True, eq=False, repr=False)
class Neg(Expr):
    child: Expr


@dataclass(frozen=True, eq=False, repr=False)
class BinOp(Expr):
    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True, eq=False, repr=False)
class Call(Expr):
    fn: str
    arg: Expr


_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])|(?P<end>\Z))"
)


def _tokenize(text):
    tokens, pos = [], 0
    while not tokens or tokens[-1][0] != "end":
        m = _TOKEN.match(text, pos)
        if m is None:
            at = len(text) - len(text[pos:].lstrip())
            raise ParseError(f"unexpected character {text[at]!r} at offset {at}")
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.i = 0
        # the groups and negations being parsed, and the depth of the
        # tree last built
        self.nesting = self.depth = 0

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
        raise ParseError(f"{message} at offset {self.peek()[2]}")

    def enter(self):
        """Count one more nested group or negation."""
        self.nesting += 1
        if 8 * self.nesting > _MAX_FRAMES:
            self.fail("expression nests too deeply")

    def built(self, node, depth):
        """``node``, whose tree is ``depth`` levels deep."""
        if depth > _MAX_FRAMES:
            self.fail("expression nests too deeply")
        self.depth = depth
        return node

    def expect(self, op, message):
        if self.peek()[:2] != ("op", op):
            self.fail(message)
        self.take()

    def expr(self):
        return self.chain("+-", self.term)

    def term(self):
        return self.chain("*/", self.factor)

    def chain(self, ops, operand):
        """Left-associated operands joined by any of ``ops``."""
        node = operand()
        while self.peek()[0] == "op" and self.peek()[1] in ops:
            op, left = self.take()[1], self.depth
            node = BinOp(op, node, operand())
            node = self.built(node, max(left, self.depth) + 1)
        return node

    def factor(self):
        if self.peek()[:2] == ("op", "-"):
            self.take()
            self.enter()
            child = self.factor()
            self.nesting -= 1
            return self.built(Neg(child), self.depth + 1)
        return self.power()

    def power(self):
        node = self.atom()
        if self.peek()[:2] == ("op", "^"):
            self.take()
            kind, value, _ = self.peek()
            if kind != "num" or not re.fullmatch(r"\d+", value):
                self.fail("exponent must be a nonnegative integer literal")
            return self.built(BinOp("^", node, Num(self.number())), self.depth + 1)
        return node

    def atom(self):
        kind, value, offset = self.peek()
        if kind == "num":
            return self.built(Num(self.number()), 1)
        if kind == "name":
            self.take()
            if value in _VARIABLES:
                return self.built(Var(value), 1)
            if value in _FUNCTIONS:
                self.expect("(", f"{value} needs a parenthesized argument")
                arg = self.group()
                return self.built(Call(value, arg), self.depth + 1)
            raise ParseError(f"unknown identifier {value!r} at offset {offset}")
        if kind == "op" and value == "(":
            self.take()
            return self.group()
        self.fail("expected a value")

    def group(self):
        """The expression after an opening parenthesis, and its ')'."""
        self.enter()
        node = self.expr()
        self.expect(")", "expected ')'")
        self.nesting -= 1
        return node


def parse(text: str) -> Expr:
    """Parse an integrand; raises ParseError with a character offset.

    Input nested too deeply for the recursive walks of its tree, or for
    the parser itself, is refused."""
    _kind(text, "text", str)
    p = _Parser(text)
    node = p.expr()
    if p.peek()[0] != "end":
        p.fail(f"unexpected {p.peek()[1]!r}")
    return node


_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def _prec(node):
    if isinstance(node, BinOp):
        return _PRECEDENCE[node.op]
    # a negative literal prints with a unary minus
    if isinstance(node, Neg) or (isinstance(node, Num) and math.copysign(1.0, node.value) < 0):
        return _PRECEDENCE["neg"]
    return 9


def to_text(node: Expr) -> str:
    """Print with minimal parentheses; reparsing gives the same tree, except
    that a negative literal comes back as a unary minus of its magnitude."""
    _kind(node, "node", Expr)
    if isinstance(node, Num):
        v = node.value
        if math.copysign(1.0, v) < 0:
            return f"-{to_text(Num(-v))}"
        # the range test first: int() of a NaN or infinity raises
        return repr(int(v)) if abs(v) < 1e16 and v == int(v) else repr(v)
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
    if node.op == "^":
        # the grammar takes integer literals only, however large
        return f"{lt}^{int(node.right.value)}"
    rt = to_text(node.right)
    # binary operators associate left, so an equal-precedence right
    # child only survives reparsing behind parentheses
    if _prec(node.right) <= p:
        rt = f"({rt})"
    return f"{lt} {node.op} {rt}"


# the EvalError text for each exception a scalar primitive raises
_FAULT_TEXT = {
    ZeroDivisionError: "division by zero",
    ValueError: "domain error",
    OverflowError: "overflow",
}
# each mode's primitives: binary operators, functions, and the exceptions
# that mean the point left the domain.  Plain double arithmetic raises there
_SCALAR = (
    {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv},
    {name: pair[0] for name, pair in _FUNCTIONS.items()},
    tuple(_FAULT_TEXT),
)
# numpy gives inf or nan there instead, so nothing is caught and a shape
# mismatch stays numpy's own error
_VECTOR = (
    {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide},
    {name: pair[1] for name, pair in _FUNCTIONS.items()},
    (),
)


def _run(node, env, mode, spread):
    """Value of ``node`` with the variables bound in ``env``.

    ``mode`` supplies the primitives; ``spread`` is applied to what a
    function or a power of two or more acts on.  A fault of a primitive
    raises EvalError naming its node and the point.
    """
    if isinstance(node, Num):
        return float(node.value)
    if isinstance(node, Var):
        return env[node.name]
    if isinstance(node, Neg):
        return -_run(node.child, env, mode, spread)
    binary, functions, faults = mode
    if isinstance(node, Call):
        fn, args = functions[node.fn], (spread(_run(node.arg, env, mode, spread)),)
    elif node.op == "^":
        # the base runs first, so x^0 does not hide a fault inside x, and
        # x^0 is nan wherever x is not finite
        base, k = _run(node.left, env, mode, spread), int(node.right.value)
        if k == 0:
            finite = np.isfinite(base)
            return 1.0 if finite.all() else np.where(finite, 1.0, np.nan)[()]
        if k == 1:
            return base
        fn, args = operator.pow, (spread(base), k)
    else:
        fn = binary[node.op]
        args = (_run(node.left, env, mode, spread), _run(node.right, env, mode, spread))
    try:
        return fn(*args)
    except faults as exc:
        point = ", ".join(f"{env[v]:.17g}" for v in _VARIABLES)
        raise EvalError(f"{_FAULT_TEXT[type(exc)]} in {to_text(node)} at point ({point})") from None


def evaluate(node: Expr, point) -> float:
    """Evaluate at point = (x, y, z) in double arithmetic.

    Domain violations (square root of a negative, log of a nonpositive,
    division by zero, overflow) raise EvalError naming the subexpression:

    >>> evaluate(parse("x + 1/(y - 2)"), (1, 2, 0))
    Traceback (most recent call last):
    ...
    bezquad.errors.EvalError: division by zero in 1 / (y - 2) at point (1, 2, 0)
    """
    _kind(node, "node", Expr)
    x, y, z = (float(c) for c in point)
    return float(_run(node, {"x": x, "y": y, "z": z}, _SCALAR, lambda v: v))


def _spread(value, x):
    """``value`` as an array shaped like ``x``; arrays pass through."""
    if isinstance(value, np.ndarray):
        return value
    return np.full(np.shape(x), value, dtype=float)


def to_callable(node: Expr):
    """The function f(x, y, z) that runs the tree over numpy arrays.

    Literals stay Python floats, and + - * / of a float and an array
    round each element as two arrays would; a constant result is spread
    to the shape of ``x`` at the end.  Out-of-domain points produce
    non-finite values rather than raising; the integrators report those
    with the offending node location:

    >>> to_callable(parse("log(x)"))(np.array([-1.0, 1.0]), np.zeros(2))
    array([nan,  0.])
    """
    _kind(node, "node", Expr)

    def call(x, y, z=None):
        if z is None:
            z = np.zeros(np.shape(x))
        env = {k: np.asarray(v, dtype=float) for k, v in zip(_VARIABLES, (x, y, z))}
        with np.errstate(all="ignore"):
            return _spread(_run(node, env, _VECTOR, lambda v: _spread(v, x)), x)

    return call


def polynomial_degree(node: Expr):
    """Total degree if the tree is a polynomial, else None.

    Division is polynomial only when the denominator has no variables
    and evaluates to something nonzero; function calls never are.
    """
    _kind(node, "node", Expr)
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
        return l if evaluate(node.right, (0.0, 0.0, 0.0)) != 0.0 else None
    except EvalError:
        return None


def _has_variable(node):
    # one frame per level, as the other walks take
    if isinstance(node, Var):
        return True
    for child in vars(node).values():
        if isinstance(child, Expr) and _has_variable(child):
            return True
    return False
