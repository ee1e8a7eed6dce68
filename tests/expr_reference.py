"""The two tree walks that ``bezquad.expr`` used before its single
interpreter, and the recursive descent parser it used before its one
parsing loop, kept as references for the differential tests.

``evaluate`` walked a tree in scalar ``math`` and named the failing
subexpression; ``to_callable`` walked it again, building numpy closures.
The closures take x^k by squaring, as ``to_callable`` now does, in place
of numpy's pow.  The scalar walk names an infinite + - * / of finite
operands as an overflow, as ``evaluate`` now does, where the old walk
returned the inf.

The parser refuses input nested more than 87 deep, and reads any Unicode
decimal digit in a number, where ``parse`` now takes only ASCII ones; so
the differential tests feed it ASCII nested no deeper than that.
"""

import math
import re

import numpy as np

from bezquad.bezier import _kind
from bezquad.errors import EvalError, ParseError
from bezquad.expr import _FUNCTIONS, _VARIABLES, BinOp, Call, Neg, Num, Var, to_text

# The parser recurses up to 8 times per nested group, call or negation.
# parse refuses input that would take it past this many frames, which
# leaves the caller room under Python's default recursion limit of 1000
_MAX_FRAMES = 700

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


def reference_parse(text):
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


def reference_evaluate(node, point):
    x, y, z = (float(c) for c in point)
    env = {"x": x, "y": y, "z": z}

    def arithmetic(n, value, a, b):
        if math.isinf(value) and math.isfinite(a) and math.isfinite(b):
            raise EvalError(f"overflow in {to_text(n)} at point ({x:.17g}, {y:.17g}, {z:.17g})")
        return value

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
            return arithmetic(n, a + b, a, b)
        if n.op == "-":
            return arithmetic(n, a - b, a, b)
        if n.op == "*":
            return arithmetic(n, a * b, a, b)
        if n.op == "/":
            if b == 0.0:
                raise EvalError(
                    f"division by zero in {to_text(n)} at point ({x:.17g}, {y:.17g}, {z:.17g})"
                )
            return arithmetic(n, a / b, a, b)
        try:
            return a ** int(b)
        except OverflowError:
            raise EvalError(
                f"overflow in {to_text(n)} at point ({x:.17g}, {y:.17g}, {z:.17g})"
            ) from None

    return float(walk(node))


def _spread(value, x):
    if isinstance(value, np.ndarray):
        return value
    return np.full(np.shape(x), value, dtype=float)


def _power_by_squaring(v, k):
    """v^k for k >= 2: from the bit below the top one of k down, square and,
    for a set bit, multiply in v; the products to_callable takes in place
    of numpy's pow."""
    out = v
    for i in range(k.bit_length() - 2, -1, -1):
        out = out * out
        if k >> i & 1:
            out = out * v
    return out


def reference_to_callable(node):
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
            return lambda x, y, z: _power_by_squaring(_spread(fl(x, y, z), x), k)
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
