"""Piecewise-polynomial fitting of trimming curves from ordered samples.

Trimming curves usually arrive as dense ordered point lists produced by
an intersection solver.  Each requested segment gets a Lagrange
interpolant through degree + 1 of its points, parameterized by cumulative
chord length, and is returned in Bezier form with unit weights.  Cubic
segments are the default; the deviation of the fit falls like the fourth
power of the segment size for smooth curves.
"""

from __future__ import annotations

import numpy as np

from .bezier import RationalBezierCurve, monomial_to_bernstein
from .errors import ValidationError
from .quad1d import _as_int

__all__ = ["fit_trim_curves"]


def _chord_positions(points):
    steps = np.linalg.norm(np.diff(points, axis=0), axis=1)
    if np.any(steps == 0.0):
        i = int(np.flatnonzero(steps == 0.0)[0])
        raise ValidationError(f"points[{i}] and points[{i + 1}] coincide")
    return np.concatenate([[0.0], np.cumsum(steps)])


def _nearest_index(arc, target):
    return int(np.argmin(np.abs(arc - target)))


def fit_trim_curves(points, segments: int, degree: int = 3):
    """Fit ``segments`` Bezier curves of ``degree`` through ordered points.

    Points are split into spans of equal cumulative chord length; inside
    each span the interpolation points are the samples nearest to evenly
    spaced arc targets, with span boundaries shared exactly between
    neighbours.  Returns a list of polynomial (unit-weight) curves.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValidationError("points must be an ordered list of (u, v) pairs")
    if not np.all(np.isfinite(pts)):
        raise ValidationError("points must be finite")
    segments = _as_int(segments, "segments", 1)
    degree = _as_int(degree, "degree", 1)
    if pts.shape[0] < degree + 1:
        raise ValidationError(f"need at least {degree + 1} points, got {pts.shape[0]}")
    arc = _chord_positions(pts)
    total = arc[-1]

    bounds = [0]
    for k in range(1, segments):
        bounds.append(_nearest_index(arc, total * k / segments))
    bounds.append(len(pts) - 1)
    for a, b in zip(bounds, bounds[1:]):
        if b - a < degree:
            raise ValidationError(
                f"a span got only {b - a + 1} points; supply more samples or fewer segments"
            )

    curves = []
    for a, b in zip(bounds, bounds[1:]):
        lo, hi = arc[a], arc[b]
        picks = [a]
        for j in range(1, degree):
            target = lo + (hi - lo) * j / degree
            i = a + _nearest_index(arc[a : b + 1], target)
            # interpolation points must stay distinct and ordered
            i = min(max(i, picks[-1] + 1), b - (degree - j))
            picks.append(i)
        picks.append(b)
        t = (arc[picks] - lo) / (hi - lo)
        vander = np.vander(t, degree + 1, increasing=True)
        mono = np.linalg.solve(vander, pts[picks])
        ctrl = monomial_to_bernstein(mono)
        # pin shared endpoints against rounding in the basis change
        ctrl[0] = pts[a]
        ctrl[-1] = pts[b]
        curves.append(RationalBezierCurve(ctrl, np.ones(degree + 1)))
    return curves
