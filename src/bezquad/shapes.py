"""Ready-made geometry: circles, squares, boxes, cylinders.

These builders exist so tests, demos and the bundled sample files agree
on one construction.  Circular arcs use the classic rational-quadratic
quarter circle with middle weight sqrt(2)/2.
"""

from __future__ import annotations

import math

import numpy as np

from .bezier import RationalBezierCurve, RationalBezierPatch
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

_ARC_WEIGHT = math.sqrt(2) / 2


def quarter_arc(center=(0.0, 0.0), radius=1.0, quadrant=0) -> RationalBezierCurve:
    """Counter-clockwise quarter circle starting at angle quadrant * 90deg."""
    c = np.asarray(center, dtype=float)
    corners = np.array([(1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1)])
    i = 2 * (quadrant % 4)
    pts = c + radius * corners[[i, (i + 1) % 8, (i + 2) % 8]]
    return RationalBezierCurve(pts, [1.0, _ARC_WEIGHT, 1.0])


def circle_loop(center=(0.0, 0.0), radius=1.0, clockwise=False):
    """Full circle as four quarter arcs."""
    arcs = [quarter_arc(center, radius, q) for q in range(4)]
    if clockwise:
        arcs = [a.reversed() for a in reversed(arcs)]
    return arcs


def circle_region(center=(0.0, 0.0), radius=1.0, clockwise=False) -> PlanarRegion:
    return PlanarRegion((tuple(circle_loop(center, radius, clockwise)),))


def polygon_loop(vertices, clockwise=False):
    """Closed chain of straight (degree-1) edges through ``vertices``."""
    v = [np.asarray(p, dtype=float) for p in vertices]
    if clockwise:
        v = v[::-1]
    return [
        RationalBezierCurve([v[i], v[(i + 1) % len(v)]], [1.0, 1.0])
        for i in range(len(v))
    ]


def square_region(lo=(0.0, 0.0), hi=(1.0, 1.0)) -> PlanarRegion:
    (x0, y0), (x1, y1) = lo, hi
    loop = polygon_loop([(x0, y0), (x1, y0), (x1, y1), (x0, y1)])
    return PlanarRegion((tuple(loop),))


def annulus_region(center=(0.0, 0.0), outer=1.0, inner=0.5) -> PlanarRegion:
    """Outer loop counter-clockwise, inner loop clockwise (a hole)."""
    return PlanarRegion(
        (
            tuple(circle_loop(center, outer)),
            tuple(circle_loop(center, inner, clockwise=True)),
        )
    )


def bilinear_patch(p00, p10, p01, p11) -> RationalBezierPatch:
    """Flat-weight bilinear patch; pij is the corner at (u, v) = (i, j)."""
    pts = np.array([[p00, p01], [p10, p11]], dtype=float)
    return RationalBezierPatch(pts, np.ones((2, 2)))


def box_solid(lo=(0.0, 0.0, 0.0), hi=(1.0, 1.0, 1.0)) -> SolidModel:
    """Axis-aligned box as six outward-oriented bilinear patches."""
    (x0, y0, z0), (x1, y1, z1) = lo, hi
    patches = [
        # bottom z = z0, normal -z: u runs along +x, v along -y
        bilinear_patch((x0, y1, z0), (x1, y1, z0), (x0, y0, z0), (x1, y0, z0)),
        # top z = z1, normal +z
        bilinear_patch((x0, y0, z1), (x1, y0, z1), (x0, y1, z1), (x1, y1, z1)),
        # front y = y0, normal -y: u along +x, v along +z
        bilinear_patch((x0, y0, z0), (x1, y0, z0), (x0, y0, z1), (x1, y0, z1)),
        # back y = y1, normal +y: u along +z, v along +x
        bilinear_patch((x0, y1, z0), (x0, y1, z1), (x1, y1, z0), (x1, y1, z1)),
        # left x = x0, normal -x: u along +z, v along +y
        bilinear_patch((x0, y0, z0), (x0, y0, z1), (x0, y1, z0), (x0, y1, z1)),
        # right x = x1, normal +x: u along +y, v along +z
        bilinear_patch((x1, y0, z0), (x1, y1, z0), (x1, y0, z1), (x1, y1, z1)),
    ]
    return SolidModel(tuple(TrimmedPatch(p) for p in patches))


def _capped_cylinder(center, radius, z0, height, half, trim) -> SolidModel:
    """The four side patches, then top and bottom square caps of
    half-extent ``half`` about the axis, both trimmed by ``trim``.

    The bottom cap mirrors v so its normal points down while the trim
    loop stays counter-clockwise in (u, v).
    """
    (cx, cy), z1 = center, z0 + height
    patches = []
    for q in range(4):
        arc = quarter_arc(center, radius, q)
        pts = np.empty((3, 2, 3))
        pts[:, :, :2] = arc.points[:, None]
        pts[:, :, 2] = z0, z1
        wts = np.repeat(arc.weights[:, None], 2, axis=1)
        patches.append(TrimmedPatch(RationalBezierPatch(pts, wts)))
    for z, flip in ((z1, 1), (z0, -1)):
        corner = lambda u, v: (cx + (2 * u - 1) * half, cy + flip * (2 * v - 1) * half, z)
        cap = bilinear_patch(corner(0, 0), corner(1, 0), corner(0, 1), corner(1, 1))
        patches.append(TrimmedPatch(cap, (trim,)))
    return SolidModel(tuple(patches))


def cylinder_solid(center=(0.0, 0.0), radius=1.0, z0=0.0, height=1.0) -> SolidModel:
    """Capped circular cylinder.

    Four rational-quadratic side patches (u along the arc, v up the axis)
    plus two planar caps trimmed by the parameter-space circle of radius
    1/2 about (1/2, 1/2).
    """
    trim = TrimLoop(tuple(circle_loop((0.5, 0.5), 0.5)))
    return _capped_cylinder(center, radius, z0, height, radius, trim)


def cylinder_solid_fitted(
    center=(0.0, 0.0),
    radius=1.0,
    z0=0.0,
    height=1.0,
    segments=8,
    samples_per_segment=12,
) -> SolidModel:
    """Capped cylinder whose cap trims are fitted cubics, not exact arcs.

    The caps extend a quarter radius past the cross-section so the fitted
    loop, which wobbles around the true circle, stays strictly inside
    their parameter squares.  Volume error falls like the fourth power of
    ``segments``.
    """
    segments = _as_int(segments, "segments", 1)
    samples_per_segment = _as_int(samples_per_segment, "samples per segment", 1)
    theta = np.linspace(0.0, 2.0 * np.pi, segments * samples_per_segment + 1)
    samples = np.column_stack(
        [0.5 + 0.4 * np.cos(theta), 0.5 + 0.4 * np.sin(theta)]
    )
    trim = TrimLoop(tuple(fit_trim_curves(samples, segments)))

    # cap squares with half-extent 1.25 r: the parametric circle of radius
    # 0.4 maps exactly onto the cross-section of radius r
    return _capped_cylinder(center, radius, z0, height, 1.25 * radius, trim)


def flip_patch(tp: TrimmedPatch) -> TrimmedPatch:
    """Reverse a trimmed patch's orientation without moving its surface.

    Transposing the net swaps the partials, negating the normal; trim
    loops get their coordinates swapped too, then re-reversed so they
    stay counter-clockwise around the same material in the new (u, v).
    """
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
    return SolidModel(tuple(flip_patch(tp) for tp in solid.patches), solid.closed)
