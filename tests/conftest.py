"""Shared geometry helpers, the closed forms and the acceptance-line reporter."""

import copy
import importlib.util
import json
import math
import pathlib

import numpy as np

from bezquad.bezier import RationalBezierCurve, RationalBezierPatch
from bezquad.io import bundled
from bezquad.planar import PlanarRegion
from bezquad.shapes import bilinear_patch, box_solid, cylinder_solid, quarter_arc
from bezquad.surface import TrimLoop, TrimmedPatch, unit_square_loop
from bezquad.volume import SolidModel

# the closed forms, by path from the benchmark's stdlib-only module: the one
# home of every exact reference the tests and the benchmark check against
_EXACT = pathlib.Path(__file__).parents[1] / "benchmarks" / "exact.py"
_spec = importlib.util.spec_from_file_location("exact", _EXACT)
exact = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(exact)


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


def x_axis_cylinder():
    """cylinder_solid() turned onto the x axis by (x, y, z) -> (z, y, -x),
    weights and trims kept.  Its rational sides carry z-flux, so its
    moments take the spectral path with the doubling check."""
    rot = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]])
    return SolidModel(
        tuple(
            TrimmedPatch(RationalBezierPatch(tp.patch.points @ rot.T, tp.patch.weights), tp.loops)
            for tp in cylinder_solid().patches
        )
    )


def line(a, b):
    return RationalBezierCurve([a, b], [1.0, 1.0])


def triangle_loop():
    return TrimLoop((line((0, 0), (1, 0)), line((1, 0), (0, 1)), line((0, 1), (0, 0))))


def quarter_disk_loop():
    return TrimLoop((line((0, 0), (1, 0)), quarter_arc((0, 0), 1.0, 0), line((0, 1), (0, 0))))


def flat_unit_patch(z=0.0, xscale=1.0):
    return bilinear_patch((0, 0, z), (xscale, 0, z), (0, 1, z), (xscale, 1, z))


def collapsed_edge_patch():
    """Bilinear patch whose v=0 edge collapses to a point, trimmed by the
    square's edges: normals vanish along that edge."""
    pts = np.array(
        [
            [[0.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
            [[0.0, 0.0, 0.0], [1.0, 1.0, 0.0]],
        ]
    )
    return TrimmedPatch(RationalBezierPatch(pts, np.ones((2, 2))), (unit_square_loop(),))


def elevated(curve, times):
    """``curve`` degree-elevated ``times`` times: the same curve, by the
    elevation of its homogeneous control points."""
    h = np.hstack([curve.points * curve.weights[:, None], curve.weights[:, None]])
    for _ in range(times):
        a = np.arange(1, len(h))[:, None] / len(h)
        h = np.vstack([h[:1], a * h[:-1] + (1 - a) * h[1:], h[-1:]])
    return RationalBezierCurve(h[:, :-1] / h[:, -1:], h[:, -1])


def elevated_box(lo, hi, m, n):
    """box_solid(lo, hi) with each face stored at bidegree (m, n): its
    bilinear map sampled at (i/m, j/n), which is the degree-elevated net.
    With m and n powers of two and coordinates of few bits, as in the
    tests, the samples are exact, so the faces stay exactly flat."""
    s = np.linspace(0.0, 1.0, m + 1)[:, None, None]
    t = np.linspace(0.0, 1.0, n + 1)[None, :, None]
    faces = []
    for tp in box_solid(lo, hi).patches:
        (p00, p01), (p10, p11) = tp.patch.points
        net = (1 - s) * (1 - t) * p00 + s * (1 - t) * p10 + (1 - s) * t * p01 + s * t * p11
        faces.append(TrimmedPatch(RationalBezierPatch(net, np.ones((m + 1, n + 1)))))
    return SolidModel(tuple(faces))


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


def bundled_with(tmp_path, name, index, value):
    """A copy of the bundled file ``name`` in ``tmp_path`` with ``value``
    at ``index``, a sequence of keys into the document."""
    with open(bundled(name)) as fh:
        doc = _put(json.load(fh), index, value)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def _net_fault_table():
    # a valid quadratic curve inside the unit square (so it can also be a
    # trim segment) and a valid flat bilinear patch
    c, cw = [[0.25, 0.25], [0.75, 0.25], [0.5, 0.75]], [1, 1, 1]
    p, pw = [[[0, 0, 0], [0, 1, 0]], [[1, 0, 0], [1, 1, 0]]], [[1, 1], [1, 1]]
    c_shape = "points: control points must be (m+1, 2) or (m+1, 3) with m >= 1, got "
    p_shape = "points: control points must be (m+1, n+1, 3) with m, n >= 1, got "
    numeric = "points: not a numeric array"

    def weight(value, what="must be finite"):
        return (
            (c, _put(cw, (1,), value), f"weights[1]: {what}, got {value!r}"),
            (p, _put(pw, (1, 0), value), f"weights[1][0]: {what}, got {value!r}"),
        )

    rows = {
        "non-numeric points": (
            (_put(c, (1, 1), "a"), cw, numeric), (_put(p, (1, 1, 1), "a"), pw, numeric)
        ),
        "non-numeric weights": (
            (c, _put(cw, (1,), "a"), "weights: not a numeric array"),
            (p, _put(pw, (1, 0), "a"), "weights: not a numeric array"),
        ),
        "ragged points": (
            (_put(c, (1,), [1]), cw, numeric), (_put(p, (1,), [[1, 0, 0]]), pw, numeric)
        ),
        "too few points": (
            (c[:1], cw[:1], c_shape + "(1, 2)"), (p[:1], pw[:1], p_shape + "(1, 2, 3)")
        ),
        "wrong coordinate count": (
            ([q + [0, 0] for q in c], cw, c_shape + "(3, 4)"),
            ([[q[:2] for q in row] for row in p], pw, p_shape + "(2, 2, 2)"),
        ),
        "wrong weight shape": (
            (c, cw[:2], "weights: need weights of shape (3,), got (2,)"),
            (p, [1, 1, 1, 1], "weights: need weights of shape (2, 2), got (4,)"),
        ),
        "nan point": (
            (_put(c, (1, 0), math.nan), cw, "points[1][0]: must be finite, got nan"),
            (_put(p, (1, 0, 2), math.nan), pw, "points[1][0][2]: must be finite, got nan"),
        ),
        "inf point": (
            (_put(c, (2, 1), -math.inf), cw, "points[2][1]: must be finite, got -inf"),
            (_put(p, (0, 1, 0), math.inf), pw, "points[0][1][0]: must be finite, got inf"),
        ),
        "nan weight": weight(math.nan),
        "inf weight": weight(math.inf),
        "zero weight": weight(0.0, "weight must be strictly positive"),
        "negative weight": weight(-2.0, "weight must be strictly positive"),
    }
    return [(name, {"curve": curve, "patch": patch}) for name, (curve, patch) in rows.items()]


# Every control-net fault as (name, nets).  ``nets`` maps "curve" and
# "patch" to (points, weights, message): a net carrying the fault and the
# located text its constructor raises, which a JSON reader also reports,
# behind the document path.
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


_acceptance_lines = []


def record_acceptance(line):
    _acceptance_lines.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in _acceptance_lines:
            terminalreporter.write_line(line)
