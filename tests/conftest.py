"""Shared geometry helpers and the acceptance-line reporter."""

import copy
import math
from pathlib import Path

import numpy as np
import pytest

from bezquad.bezier import RationalBezierCurve
from bezquad.planar import PlanarRegion


def random_quadratic_region(rng, n_curves=6):
    """Closed single-loop region of rational quadratics, weights in [0.6, 1.8].

    Vertices sit on a jittered circle; middle control points bulge outward
    so the loop stays simple.
    """
    jitter = rng.uniform(-0.25, 0.25, n_curves)
    angles = 2 * np.pi * (np.arange(n_curves) + jitter) / n_curves
    radii = rng.uniform(0.7, 1.3, n_curves)
    verts = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
    curves = []
    for k in range(n_curves):
        p0 = verts[k]
        p2 = verts[(k + 1) % n_curves]
        mid = 0.5 * (p0 + p2)
        chord = p2 - p0
        outward = np.array([chord[1], -chord[0]])  # right of travel, away from center
        if np.dot(outward, mid) < 0:
            outward = -outward
        p1 = mid + outward * rng.uniform(0.0, 0.4)
        weights = rng.uniform(0.6, 1.8, 3)
        curves.append(RationalBezierCurve([p0, p1, p2], weights))
    return PlanarRegion((tuple(curves),))


def random_expr_tree(rng, depth=4, functions=True, division=True):
    """Random integrand as a plain tuple tree, independent of the parser.

    Kinds: ("num", v), ("var", name), ("neg", t), ("call", fn, t),
    ("pow", t, k), ("bin", op, l, r).
    """
    r = rng.random()
    if depth == 0 or r < 0.28:
        if rng.random() < 0.45:
            return ("num", float(rng.uniform(-3.0, 3.0)))
        return ("var", "xyz"[int(rng.integers(3))])
    if r < 0.40:
        return ("neg", random_expr_tree(rng, depth - 1, functions, division))
    if functions and r < 0.52:
        fn = ("sqrt", "exp", "sin", "cos", "log")[int(rng.integers(5))]
        return ("call", fn, random_expr_tree(rng, depth - 1, functions, division))
    if r < 0.62:
        return ("pow", random_expr_tree(rng, depth - 1, functions, division), int(rng.integers(4)))
    ops = "+-*/" if division else "+-*"
    op = ops[int(rng.integers(len(ops)))]
    return (
        "bin",
        op,
        random_expr_tree(rng, depth - 1, functions, division),
        random_expr_tree(rng, depth - 1, functions, division),
    )


def expr_tree_text(t):
    """Fully parenthesized rendering; parsing it back replays the same
    arithmetic in the same order."""
    kind = t[0]
    if kind == "num":
        v = t[1]
        return repr(v) if v >= 0 else f"(-{repr(-v)})"
    if kind == "var":
        return t[1]
    if kind == "neg":
        return f"(-{expr_tree_text(t[1])})"
    if kind == "call":
        return f"{t[1]}({expr_tree_text(t[2])})"
    if kind == "pow":
        return f"({expr_tree_text(t[1])})^{t[2]}"
    _, op, left, right = t
    return f"({expr_tree_text(left)} {op} {expr_tree_text(right)})"


def _put(nested, index, value):
    """A deep copy of the nested list with ``value`` at ``index``."""
    out = copy.deepcopy(nested)
    *head, last = index
    target = out
    for i in head:
        target = target[i]
    target[last] = value
    return out


def _net_fault_table():
    # a valid quadratic curve inside the unit square (so it can also be a
    # trim segment) and a valid flat bilinear patch
    c, cw = [[0.25, 0.25], [0.75, 0.25], [0.5, 0.75]], [1, 1, 1]
    p, pw = [[[0, 0, 0], [0, 1, 0]], [[1, 0, 0], [1, 1, 0]]], [[1, 1], [1, 1]]
    c_shape = "points: control points must be (m+1, 2) or (m+1, 3) with m >= 1, got "
    p_shape = "points: control points must be (m+1, n+1, 3) with m, n >= 1, got "
    numeric = "points: not a numeric array"
    finite = "points: control points must be finite"

    def weight(value, what, json=None):
        return (
            (c, _put(cw, (1,), value), f"weights[1]: weight must be {what}, got {value!r}"),
            (p, _put(pw, (1, 0), value), f"weights[1][0]: weight must be {what}, got {value!r}"),
            json,
        )

    rows = {
        "non-numeric points": (
            (_put(c, (1, 1), "a"), cw, numeric), (_put(p, (1, 1, 1), "a"), pw, numeric), None
        ),
        "non-numeric weights": (
            (c, _put(cw, (1,), "a"), "weights: not a numeric array"),
            (p, _put(pw, (1, 0), "a"), "weights: not a numeric array"),
            None,
        ),
        "ragged points": (
            (_put(c, (1,), [1]), cw, numeric), (_put(p, (1,), [[1, 0, 0]]), pw, numeric), None
        ),
        "too few points": (
            (c[:1], cw[:1], c_shape + "(1, 2)"), (p[:1], pw[:1], p_shape + "(1, 2, 3)"), None
        ),
        "wrong coordinate count": (
            ([q + [0, 0] for q in c], cw, c_shape + "(3, 4)"),
            ([[q[:2] for q in row] for row in p], pw, p_shape + "(2, 2, 2)"),
            None,
        ),
        "wrong weight shape": (
            (c, cw[:2], "weights: need weights of shape (3,), got (2,)"),
            (p, [1, 1, 1, 1], "weights: need weights of shape (2, 2), got (4,)"),
            None,
        ),
        "nan point": (
            (_put(c, (1, 0), math.nan), cw, finite),
            (_put(p, (1, 0, 2), math.nan), pw, finite),
            "points: contains non-finite values",
        ),
        "inf point": (
            (_put(c, (2, 1), -math.inf), cw, finite),
            (_put(p, (0, 1, 0), math.inf), pw, finite),
            "points: contains non-finite values",
        ),
        "nan weight": weight(math.nan, "finite", "weights: contains non-finite values"),
        "inf weight": weight(math.inf, "finite", "weights: contains non-finite values"),
        "zero weight": weight(0.0, "strictly positive"),
        "negative weight": weight(-2.0, "strictly positive"),
    }
    return [
        (name, {"curve": curve, "patch": patch}, json)
        for name, (curve, patch, json) in rows.items()
    ]


# Every control-net fault as (name, nets, json_message).  ``nets`` maps
# "curve" and "patch" to (points, weights, message): a net carrying the
# fault and the located text its constructor raises.  ``json_message``,
# when set, is what a JSON reader reports instead, because its own number
# check sees the fault first.
NET_FAULTS = _net_fault_table()


_REFERENCE_FN = {
    "sqrt": math.sqrt,
    "exp": math.exp,
    "sin": math.sin,
    "cos": math.cos,
    "log": math.log,
}


def reference_expr_eval(t, point):
    """Straight recursion over the tuple tree; raises ValueError,
    ZeroDivisionError or OverflowError where plain Python would."""
    kind = t[0]
    if kind == "num":
        return t[1]
    if kind == "var":
        return {"x": point[0], "y": point[1], "z": point[2]}[t[1]]
    if kind == "neg":
        return -reference_expr_eval(t[1], point)
    if kind == "call":
        return _REFERENCE_FN[t[1]](reference_expr_eval(t[2], point))
    if kind == "pow":
        return reference_expr_eval(t[1], point) ** t[2]
    _, op, left, right = t
    a = reference_expr_eval(left, point)
    b = reference_expr_eval(right, point)
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    return a / b


def pytest_collection_modifyitems(config, items):
    # A UserWarning that a test here does not capture fails it.  The
    # benchmark self-tests replay workloads that warn by design, so the
    # filter stays on this directory rather than in pyproject.toml.
    here = Path(__file__).parent
    for item in items:
        if here in item.path.parents:
            item.add_marker(pytest.mark.filterwarnings("error::UserWarning"))


_acceptance_lines = []


def record_acceptance(line):
    _acceptance_lines.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in _acceptance_lines:
            terminalreporter.write_line(line)
