"""The two tree walks that ``bezquad.expr`` used before its single
interpreter, kept as references for the differential tests.

``evaluate`` walked a tree in scalar ``math`` and named the failing
subexpression; ``to_callable`` walked it again, building numpy closures.
The closures take x^k by squaring, as ``to_callable`` now does, in place
of numpy's pow.  The scalar walk names an infinite + - * / of finite
operands as an overflow, as ``evaluate`` now does, where the old walk
returned the inf.
"""

import math

import numpy as np

from bezquad.errors import EvalError
from bezquad.expr import _FUNCTIONS, Call, Neg, Num, Var, to_text


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
