"""Scalar integrand expressions in x, y, z.

A tiny language so rules can be applied to textual integrands: real
literals, the three coordinate variables, + - * / with the usual
precedence, right-binding ^ with a nonnegative integer literal exponent
that a double holds exactly, unary minus binding tighter than * but
looser than ^, and the functions sqrt, exp, sin, cos, log.

Expressions are parsed to immutable trees.  Every walk of a tree is a
fold over one explicit-stack postorder, ``Expr._postorder``, so no tree
is too deep to walk; only the parser recurses.  One interpreter folds a
tree in two modes that differ only in their primitive tables.
``evaluate`` runs one point through ``operator`` and ``math``, which
raise where the point leaves the domain, an overflowing power included,
and takes an infinite + - * / of finite operands, which double arithmetic
gives silently, as an overflow too; the error names the offending
subexpression and point.  ``to_callable``
runs arrays through numpy, which gives inf or nan there instead, and
takes x^k by repeated squaring, within (k - 1) eps of the true power, so
the two modes can differ in the last bits of a power.  In both, x^0 is
nan wherever x is not finite, so a zeroth power hides no fault.
``to_callable`` spreads a constant to the shape of ``x`` before a
function or a power acts on it, since numpy's vector kernels need not
give the bits of a one-element call, so every point of the result rounds
alike.  ``polynomial_degree`` decides whether the tree is a polynomial,
which is what routes the CLI to the polynomially exact planar rules.

A node refuses, when it is built, a field the walkers could not read:
a child that is no ``Expr``, an operator, function or variable name
outside the language, a literal that is not a real number, or a ``^``
whose exponent is not a ``Num`` holding an integer (a hand-built tree
may hold a negative one, which is a reciprocal).  Each refusal is a
ValidationError located at the field, such as ``op: need one of +, -,
*, /, ^, got '%'``.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass

import numpy as np

from .bezier import _adopt, _kind
from .errors import EvalError, ParseError, ValidationError

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
_OPERATORS = ("+", "-", "*", "/", "^")
# The parser recurses up to 8 times per nested group, call or negation.
# parse refuses input that would take it past this many frames, which
# leaves the caller room under Python's default recursion limit of 1000
_MAX_FRAMES = 700


class Expr:
    """Base class for expression nodes; instances are frozen.

    ``==``, ``hash`` and ``repr`` give what a frozen dataclass gives, but
    walk the tree with an explicit stack, so every tree takes them."""

    __slots__ = ()
    _children = ()  # the child nodes, in order

    def _postorder(self):
        """Every node, each after its children and a left child before a right one."""
        nodes, stack = [], [self]
        while stack:
            node = stack.pop()
            nodes.append(node)
            stack += node._children
        return nodes[::-1]

    def _fold(self, visit):
        """The root's value, where a node's value is ``visit(node, *children's values)``."""
        values = []
        for node in self._postorder():
            first = len(values) - len(node._children)
            values[first:] = [visit(node, *values[first:])]
        return values[0]

    def _key(self):
        """The nodes' classes in postorder, which fix the shape, then their other fields."""
        nodes = self._postorder()
        fields = [v for node in nodes for v in vars(node).values() if not isinstance(v, Expr)]
        return (*map(type, nodes), *fields)

    def __eq__(self, other):
        return self._key() == other._key() if isinstance(other, Expr) else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        def visit(node, *children):
            # the node's own text runs between its children's
            parts, children = [f"{type(node).__qualname__}("], iter(children)
            for i, (name, value) in enumerate(vars(node).items()):
                parts[-1] += f"{', ' * (i > 0)}{name}="
                if isinstance(value, Expr):
                    parts += [next(children), ""]
                else:
                    parts[-1] += repr(value)
            parts[-1] += ")"
            return parts

        return _joined(self._fold(visit))


def _joined(pieces):
    """The strings in the nested lists ``pieces``, in order, as one string."""
    # a fold builds text as nested lists: joining at each node would copy a
    # deep tree's text once per level
    texts, stack = [], [pieces]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            texts.append(item)
        else:
            stack += reversed(item)
    return "".join(texts)


def _member(value, name, choices):
    """Raise ValidationError at ``name`` unless ``value`` is one of the
    strings ``choices``."""
    if not (isinstance(value, str) and value in choices):
        raise ValidationError(f"need one of {', '.join(choices)}, got {value!r}", name)


@dataclass(frozen=True, eq=False, repr=False)
class Num(Expr):
    value: float

    def __post_init__(self):
        # a float is kept as it is, NaN and infinities too, which only a
        # hand-built tree holds and evaluate names in its refusal
        if type(self.value) is not float:
            object.__setattr__(self, "value", float(_adopt(self.value, "value", shape=())))


@dataclass(frozen=True, eq=False, repr=False)
class Var(Expr):
    name: str

    def __post_init__(self):
        _member(self.name, "name", _VARIABLES)


@dataclass(frozen=True, eq=False, repr=False)
class Neg(Expr):
    child: Expr
    _children = property(lambda self: (self.child,))

    def __post_init__(self):
        _kind(self.child, "child", Expr)


@dataclass(frozen=True, eq=False, repr=False)
class BinOp(Expr):
    op: str
    left: Expr
    right: Expr
    _children = property(lambda self: (self.left, self.right))

    def __post_init__(self):
        _member(self.op, "op", _OPERATORS)
        _kind(self.left, "left", Expr)
        _kind(self.right, "right", Expr)
        # an exponent is an integral literal; parse gives only nonnegative ones
        right = self.right
        if self.op == "^" and not (isinstance(right, Num) and right.value % 1 == 0):
            got = right.value if isinstance(right, Num) else type(right).__name__
            raise ValidationError(f"need an integral Num exponent for ^, got {got}", "right")


@dataclass(frozen=True, eq=False, repr=False)
class Call(Expr):
    fn: str
    arg: Expr
    _children = property(lambda self: (self.arg,))

    def __post_init__(self):
        _member(self.fn, "fn", _FUNCTIONS)
        _kind(self.arg, "arg", Expr)


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
        self.nesting = 0  # the groups, calls and negations being parsed

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
        """Count one more nested group, call or negation."""
        self.nesting += 1
        if 8 * self.nesting > _MAX_FRAMES:
            self.fail("expression nests too deeply")

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
            op = self.take()[1]
            node = BinOp(op, node, operand())
        return node

    def factor(self):
        if self.peek()[:2] == ("op", "-"):
            self.take()
            self.enter()
            child = self.factor()
            self.nesting -= 1
            return Neg(child)
        return self.power()

    def power(self):
        node = self.atom()
        if self.peek()[:2] == ("op", "^"):
            self.take()
            kind, value, offset = self.peek()
            if kind != "num" or not re.fullmatch(r"\d+", value):
                self.fail("exponent must be a nonnegative integer literal")
            k = self.number()
            # a rounded exponent can change parity.  Leading zeros go first:
            # int() refuses over 4300 digits, and a finite double has 309
            if int(value.lstrip("0") or "0") != int(k):
                raise ParseError(f"exponent {value!r} is not exact in a double at offset {offset}")
            return BinOp("^", node, Num(k))
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
                self.expect("(", f"{value} needs a parenthesized argument")
                return Call(value, self.group())
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

    Input that nests groups, calls and negations too deeply for the
    parser's own recursion, more than 87 of them, is refused; a sum or
    product of any length parses."""
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
    return _joined(node._fold(_text))


# the text of node as nested lists of strings, from its children's
def _text(node, *texts):
    if isinstance(node, Num):
        v = abs(node.value)
        # the range test first: int() of a NaN or infinity raises
        text = repr(int(v)) if v < 1e16 and v == int(v) else repr(v)
        return "-" + text if math.copysign(1.0, node.value) < 0 else text
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        return ["-", ["(", texts[0], ")"] if _prec(node.child) < _PRECEDENCE["neg"] else texts[0]]
    if isinstance(node, Call):
        return [f"{node.fn}(", texts[0], ")"]
    p, left, (lt, rt) = _PRECEDENCE[node.op], _prec(node.left), texts
    if left < p or (node.op == "^" and left <= p):
        lt = ["(", lt, ")"]
    if node.op == "^":
        # the grammar takes integer literals only, however large
        return [lt, f"^{int(node.right.value)}"]
    # binary operators associate left, so an equal-precedence right
    # child only survives reparsing behind parentheses
    return [lt, f" {node.op} ", ["(", rt, ")"] if _prec(node.right) <= p else rt]


def _power(base, k):
    """The array ``base`` to the integer ``k`` >= 1 by repeated squaring,
    a few multiplies where libm's pow costs about ten; within (k - 1) eps
    of the true power, and inf, nan, 0 and signs as pow gives them.

    The bits of k run from the top, so every product lands in the one
    array the first squaring allocates, as pow's own result would; a new
    array per step made the peak memory of a run vary with heap layout."""
    result = base
    for bit in bin(abs(k))[3:]:  # the bits below the leading one
        out = np.empty_like(base) if result is base else result
        np.multiply(result, result, out=out)
        if bit == "1":
            np.multiply(out, base, out=out)
        result = out
    if k < 0:  # only a hand-built tree has one: a reciprocal
        result = 1.0 / result
    return result[()]  # a 0-d result as a scalar, as numpy's operators give it


# the EvalError text for each exception a scalar primitive raises
_FAULT_TEXT = {
    ZeroDivisionError: "division by zero",
    ValueError: "domain error",
    OverflowError: "overflow",
}
# each mode's primitives: binary operators, functions, and the exceptions
# that mean the point left the domain.  Plain double arithmetic raises there
_SCALAR = (
    {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv,
     "^": operator.pow},
    {name: pair[0] for name, pair in _FUNCTIONS.items()},
    tuple(_FAULT_TEXT),
)
# numpy gives inf or nan there instead, so nothing is caught and a shape
# mismatch stays numpy's own error
_VECTOR = (
    {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide, "^": _power},
    {name: pair[1] for name, pair in _FUNCTIONS.items()},
    (),
)


def _visitor(env, mode, spread):
    """The fold step of _run: a node's value from its children's."""
    binary, functions, faults = mode

    def visit(node, *args):
        if isinstance(node, Num):
            return node.value
        if isinstance(node, Var):
            return env[node.name]
        if isinstance(node, Neg):
            return -args[0]
        if isinstance(node, Call):
            fn, args = functions[node.fn], (spread(args[0]),)
        elif node.op == "^":
            # the base ran first, so x^0 does not hide a fault inside x, and
            # x^0 is nan wherever x is not finite
            base, k = args[0], int(node.right.value)
            if k == 0:
                finite = np.isfinite(base)
                return 1.0 if finite.all() else np.where(finite, 1.0, np.nan)[()]
            if k == 1:
                return base
            fn, args = binary["^"], (spread(base), k)
        else:
            fn = binary[node.op]
        try:
            value = fn(*args)
            # double arithmetic gives inf where math and pow raise, so the
            # mode that catches faults takes inf from finite operands as one
            if faults and math.isinf(value) and all(map(math.isfinite, args)):
                raise OverflowError
            return value
        except faults as exc:
            point = ", ".join(f"{env[v]:.17g}" for v in _VARIABLES)
            raise EvalError(f"{_FAULT_TEXT[type(exc)]} in {to_text(node)} at point ({point})") from None

    return visit


def _run(node, env, mode, spread):
    """Value of ``node`` with the variables bound in ``env``.

    ``mode`` supplies the primitives; ``spread`` is applied to what a
    function or a power of two or more acts on.  A fault of a primitive
    raises EvalError naming its node and the point.
    """
    return node._fold(_visitor(env, mode, spread))


def evaluate(node: Expr, point) -> float:
    """Evaluate at point = (x, y, z) in double arithmetic; a point that is
    not three finite numbers is refused with ValidationError at ``point``.

    Domain violations (square root of a negative, log of a nonpositive,
    division by zero, overflow) raise EvalError naming the subexpression:

    >>> evaluate(parse("x + 1/(y - 2)"), (1, 2, 0))
    Traceback (most recent call last):
    ...
    bezquad.errors.EvalError: division by zero in 1 / (y - 2) at point (1, 2, 0)
    """
    _kind(node, "node", Expr)
    x, y, z = _adopt(point, "point", shape=(3,)).tolist()
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

    >>> polynomial_degree(parse("x^2 / 2")), polynomial_degree(parse("x / y^0"))
    (2, None)
    """
    _kind(node, "node", Expr)
    return node._fold(_degree)[0]


# a constant subtree's value as evaluate gives it, from its children's
_AT_ORIGIN = _visitor(dict.fromkeys(_VARIABLES, 0.0), _SCALAR, lambda v: v)


def _degree(node, *children):
    """(the polynomial degree of ``node`` or None, its value or None), from
    its children's pairs.  The value is None where the subtree holds a
    variable or a primitive faults, so a denominator is read once, not
    evaluated again at every division above it."""
    if isinstance(node, Num):
        return 0, node.value
    if isinstance(node, Var):
        return 1, None
    degrees, values = zip(*children)
    value = None
    if None not in values:
        try:
            value = _AT_ORIGIN(node, *values)
        except EvalError:
            pass
    if isinstance(node, Call) or None in degrees:
        return None, value
    if isinstance(node, Neg) or node.op in ("+", "-"):
        return max(degrees), value
    if node.op == "^":
        # a negative power, which only a hand-built tree holds, is a reciprocal
        return (degrees[0] * int(node.right.value) if node.right.value >= 0 else None), value
    if node.op == "*":
        return sum(degrees), value
    # division: constant nonzero denominators only
    return (degrees[0] if values[1] is not None and values[1] != 0.0 else None), value
