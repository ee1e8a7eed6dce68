"""Ready-made geometry: circles, squares, boxes, cylinders.

These builders exist so tests, demos and the bundled sample files agree
on one construction.  Circular arcs use the classic rational-quadratic
quarter circle with middle weight sqrt(2)/2; a circle's four arcs are
read-only views of one block of control points.  Each builder refuses a
bad argument at its name.
"""

from __future__ import annotations

import math

import numpy as np

from .bezier import RationalBezierCurve, RationalBezierPatch, _adopt, _frozen, _kind, _refuse
from .errors import ValidationError
from .planar import PlanarRegion
from .quad1d import _as_int
from .surface import TrimLoop, TrimmedPatch
from .trimfit import fit_trim_curves
from .volume import SolidModel

__all__ = [
    "quarter_arc",
    "circle_loop",
    "circle_region",
    "polygon_loop",
    "square_region",
    "annulus_region",
    "bilinear_patch",
    "box_solid",
    "cylinder_solid",
    "cylinder_solid_fitted",
    "flip_patch",
    "flip_solid",
]

_ARC_WEIGHTS = _frozen(np.array([1.0, math.sqrt(2) / 2, 1.0]))
_ONES = _frozen(np.ones((2, 2)))  # the weights of every bilinear patch
# quadrant q's arc has the control points 2q, 2q + 1 and 2q + 2 of the
# square of half-side 1 about the center, counter-clockwise from (1, 0)
_CORNERS = [(1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1)]
_QUARTERS = _frozen(
    np.array([[_CORNERS[(2 * q + i) % 8] for i in range(3)] for q in range(4)], dtype=float)
)
# the sign of each quadrant's x and y: its arc's control points take those
# of the center plus the radius times that sign, or 0
_SIGNS = ((1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0))
# the box corner at each control point of its six faces, True taking hi
# on that axis and False lo: a face's point [i][j] sits at (u, v) = (i, j),
# and u x v points out of the box
_FACES = np.array(
    [
        [[(0, 1, 0), (0, 0, 0)], [(1, 1, 0), (1, 0, 0)]],  # bottom: u along +x, v along -y
        [[(0, 0, 1), (0, 1, 1)], [(1, 0, 1), (1, 1, 1)]],  # top: u along +x, v along +y
        [[(0, 0, 0), (0, 0, 1)], [(1, 0, 0), (1, 0, 1)]],  # front: u along +x, v along +z
        [[(0, 1, 0), (1, 1, 0)], [(0, 1, 1), (1, 1, 1)]],  # back: u along +z, v along +x
        [[(0, 0, 0), (0, 1, 0)], [(0, 0, 1), (0, 1, 1)]],  # left: u along +z, v along +y
        [[(1, 0, 0), (1, 0, 1)], [(1, 1, 0), (1, 1, 1)]],  # right: u along +y, v along +z
    ],
    dtype=bool,
)


def _positive(value, name) -> float:
    """``value`` as a finite float > 0, or ValidationError at ``name``."""
    value = float(_adopt(value, name, shape=()))
    if value <= 0:
        raise ValidationError(f"must be positive, got {value!r}", name)
    return value


def _quarters(center, radius, quadrant=None) -> np.ndarray:
    """``center + radius * _QUARTERS``, or its row ``quadrant``, both
    checked, as a fresh read-only block that curves adopt without a copy.

    A control coordinate beyond float64 is refused as an overflow before
    the numpy add meets it: the farthest ones are the center's coordinates
    plus or minus the radius, along the quadrant's signs, which Python
    floats add to inf with no warning.
    """
    c = _adopt(center, "center", shape=(2,))
    r = _positive(radius, "radius")
    (cx, cy), (sx, sy) = c.tolist(), (1.0, 1.0) if quadrant is None else _SIGNS[quadrant]
    if quadrant is None:
        cx, cy = abs(cx), abs(cy)
    if math.isinf(cx + sx * r) or math.isinf(cy + sy * r):
        what = f"center {tuple(c.tolist())} and radius {r!r}"
        raise ValidationError(f"the circle's control points overflowed float64: {what}")
    return _frozen(c + r * (_QUARTERS if quadrant is None else _QUARTERS[quadrant]))


def quarter_arc(center=(0.0, 0.0), radius=1.0, quadrant=0) -> RationalBezierCurve:
    """Counter-clockwise quarter circle starting at angle quadrant * 90deg."""
    return RationalBezierCurve(
        _quarters(center, radius, _as_int(quadrant, "quadrant") % 4), _ARC_WEIGHTS
    )


def circle_loop(center=(0.0, 0.0), radius=1.0, clockwise=False):
    """Full circle as four quarter arcs, views of one block of points."""
    pts, w = _quarters(center, radius), _ARC_WEIGHTS
    if clockwise:  # the arcs in reverse order, each traversed backwards
        pts, w = pts[::-1, ::-1], w[::-1]
    return [RationalBezierCurve(p, w) for p in pts]


def circle_region(center=(0.0, 0.0), radius=1.0, clockwise=False) -> PlanarRegion:
    return PlanarRegion((tuple(circle_loop(center, radius, clockwise)),))


def polygon_loop(vertices, clockwise=False):
    """Closed chain of straight (degree-1) edges through three or more
    ``vertices``, each edge a view of one block of points; a polygon of
    area 0 or an edge of length 0 (the last vertex repeating the first) is refused."""
    v = _adopt(vertices, "vertices", shape=(None, 2))
    if len(v) < 3:
        raise ValidationError(f"need at least 3 vertices, got {len(v)}", "vertices")
    nxt = np.roll(v, -1, axis=0)
    same = (v == nxt).all(axis=1)
    if same.any():
        i = int(np.argmax(same))
        raise ValidationError(f"repeats the next vertex {tuple(nxt[i].tolist())}", f"vertices[{i}]")
    # the shoelace sum on coordinates scaled into [-1, 1], whose products
    # cannot overflow; the scale is positive, as two vertices differ
    x, y = (v / abs(v).max()).T
    if x @ np.roll(y, -1) == y @ np.roll(x, -1):
        raise ValidationError("need a polygon of nonzero area, got area 0", "vertices")
    if clockwise:
        v = v[::-1]
    edges = _frozen(np.stack([v, np.roll(v, -1, axis=0)], axis=1))
    return [RationalBezierCurve(e, [1.0, 1.0]) for e in edges]


def _span(lo, hi, d):
    """``lo`` and ``hi`` as lists of ``d`` floats, ``hi`` greater on every axis."""
    lo, hi = _adopt(lo, "lo", shape=(d,)), _adopt(hi, "hi", shape=(d,))
    if (hi <= lo).any():
        _refuse(hi, hi <= lo, "hi", "must be greater than lo")
    return lo.tolist(), hi.tolist()


def square_region(lo=(0.0, 0.0), hi=(1.0, 1.0)) -> PlanarRegion:
    """Axis-aligned square; ``hi`` must exceed ``lo`` on both axes."""
    (x0, y0), (x1, y1) = _span(lo, hi, 2)
    loop = polygon_loop([(x0, y0), (x1, y0), (x1, y1), (x0, y1)])
    return PlanarRegion((tuple(loop),))


def annulus_region(center=(0.0, 0.0), outer=1.0, inner=0.5) -> PlanarRegion:
    """Outer loop counter-clockwise, inner loop clockwise (a hole);
    0 < inner < outer."""
    outer, inner = _positive(outer, "outer"), _positive(inner, "inner")
    if inner >= outer:
        raise ValidationError(f"must be less than outer = {outer!r}, got {inner!r}", "inner")
    return PlanarRegion(
        (
            tuple(circle_loop(center, outer)),
            tuple(circle_loop(center, inner, clockwise=True)),
        )
    )


def bilinear_patch(p00, p10, p01, p11) -> RationalBezierPatch:
    """Flat-weight bilinear patch; pij is the corner at (u, v) = (i, j)."""
    corners = zip((p00, p10, p01, p11), ("p00", "p10", "p01", "p11"))
    p00, p10, p01, p11 = (_adopt(p, name, shape=(3,)) for p, name in corners)
    return RationalBezierPatch(np.array([[p00, p01], [p10, p11]]), _ONES)


def box_solid(lo=(0.0, 0.0, 0.0), hi=(1.0, 1.0, 1.0)) -> SolidModel:
    """Axis-aligned box as six outward-oriented bilinear patches, views of
    one block of points; ``hi`` must exceed ``lo`` on every axis."""
    lo, hi = _span(lo, hi, 3)
    nets = _frozen(np.where(_FACES, hi, lo))
    return SolidModel(tuple(TrimmedPatch(RationalBezierPatch(p, _ONES)) for p in nets))


def _capped_cylinder(center, radius, z0, height, trim, cap=1.0) -> SolidModel:
    """The four side patches, then top and bottom square caps of
    half-extent ``cap * radius`` about the axis, both trimmed by ``trim``.
    Radius and height must be positive.

    The bottom cap mirrors v so its normal points down while the trim
    loop stays counter-clockwise in (u, v).
    """
    center = _adopt(center, "center", shape=(2,))
    radius, height = _positive(radius, "radius"), _positive(height, "height")
    z0 = float(_adopt(z0, "z0", shape=()))
    (cx, cy), z1, half = center.tolist(), z0 + height, cap * radius
    patches = []
    for arc in circle_loop(center, radius):
        pts = np.empty((3, 2, 3))
        pts[:, :, :2] = arc.points[:, None]
        pts[:, :, 2] = z0, z1
        wts = np.repeat(arc.weights[:, None], 2, axis=1)
        patches.append(TrimmedPatch(RationalBezierPatch(pts, wts)))
    for z, flip in ((z1, 1), (z0, -1)):
        # the corner at (u, v) = (i, j) is the net's point [i][j]
        xs, ys = (cx - half, cx + half), (cy - flip * half, cy + flip * half)
        pts = [[(x, y, z) for y in ys] for x in xs]
        cap = RationalBezierPatch(_frozen(np.array(pts)), _ONES)
        patches.append(TrimmedPatch(cap, (trim,)))
    return SolidModel(tuple(patches))


def cylinder_solid(center=(0.0, 0.0), radius=1.0, z0=0.0, height=1.0) -> SolidModel:
    """Capped circular cylinder.

    Four rational-quadratic side patches (u along the arc, v up the axis)
    plus two planar caps trimmed by the parameter-space circle of radius
    1/2 about (1/2, 1/2).
    """
    trim = TrimLoop(tuple(circle_loop((0.5, 0.5), 0.5)))
    return _capped_cylinder(center, radius, z0, height, trim)


def cylinder_solid_fitted(
    center=(0.0, 0.0),
    radius=1.0,
    z0=0.0,
    height=1.0,
    segments=8,
    samples_per_segment=12,
) -> SolidModel:
    """Capped cylinder whose cap trims are fitted cubics, not exact arcs.

    The caps extend a quarter radius past the cross-section.  Fewer than 4
    ``segments`` overshoot the cap square and fewer than 3 samples leave a
    cubic short of its four nodes; each is refused at its name.  Volume
    error falls like the fourth power of ``segments``.
    """
    segments = _as_int(segments, "segments", 4)
    samples_per_segment = _as_int(samples_per_segment, "samples per segment", 3)
    theta = np.linspace(0.0, 2.0 * np.pi, segments * samples_per_segment + 1)
    samples = 0.5 + 0.4 * np.column_stack([np.cos(theta), np.sin(theta)])
    trim = TrimLoop(tuple(fit_trim_curves(samples, segments)))

    # cap squares with half-extent 1.25 r: the parametric circle of radius
    # 0.4 maps exactly onto the cross-section of radius r
    return _capped_cylinder(center, radius, z0, height, trim, cap=1.25)


def flip_patch(tp: TrimmedPatch) -> TrimmedPatch:
    """Reverse a trimmed patch's orientation without moving its surface.

    Transposing the net swaps the partials, negating the normal; trim
    loops get their coordinates swapped too, then re-reversed so they
    stay counter-clockwise around the same material in the new (u, v).
    """
    _kind(tp, "tp", TrimmedPatch)
    loops = []
    for loop in tp.loops:
        segs = [
            RationalBezierCurve(seg.points[:, ::-1], seg.weights).reversed()
            for seg in reversed(loop.segments)
        ]
        loops.append(TrimLoop(tuple(segs)))
    return TrimmedPatch(tp.patch.transposed(), tuple(loops))


def flip_solid(solid: SolidModel) -> SolidModel:
    """Flip every patch, turning an outward boundary inward."""
    _kind(solid, "solid", SolidModel)
    return SolidModel(tuple(flip_patch(tp) for tp in solid.patches), solid.closed)
