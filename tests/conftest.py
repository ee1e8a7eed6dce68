"""Shared geometry helpers and the acceptance-line reporter."""

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
