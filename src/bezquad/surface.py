"""Quadrature over trimmed rational Bezier surface patches.

A trimmed patch is integrated in two steps.  First the retained part of
the parameter square is covered with a planar rule: Green's theorem in
(u, v) with the antiderivative taken in v from the fixed height 0, so
every parametric point is (u(s), xi) for a boundary node s of some trim
segment and a Gauss node xi on the vertical run below it.  Second, each
parametric point is pushed through the patch map and its weight picks up
a normal factor: the full magnitude |n| for surface-area integrals, or
the z-component n_z for the volume pipeline.

Untrimmed patches skip the boundary construction entirely and use a
tensor-product Gauss grid over the whole square.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .bezier import (
    RationalBezierCurve,
    RationalBezierPatch,
    _closure_gaps,
    _patch_point_normal,
    control_bbox,
)
from .errors import QuadratureError, ValidationError
from .planar import Rule, Rule2D, _assemble, apply
from .quad1d import gauss_legendre

__all__ = [
    "TrimLoop",
    "TrimmedPatch",
    "SurfaceRule",
    "unit_square_loop",
    "parametric_area_rule",
    "surface_rule",
    "untrimmed_rule",
    "patch_rule",
    "boundary_rule",
    "surface_integrate",
]

_PARAM_SLACK = 1e-9
_CLOSURE_TOL = 1e-10
_DEGENERATE_NORMAL_REL = 1e-14
_WEIGHT_MODES = ("full-normal", "z-normal")


@dataclass(frozen=True)
class TrimLoop:
    """Closed chain of 2D rational Bezier curves in the parameter square.

    Counter-clockwise loops keep material, clockwise loops cut it away,
    the same convention the planar module uses.  Control points may poke
    out of [0, 1]^2 by at most 1e-9.
    """

    segments: tuple[RationalBezierCurve, ...]

    def __post_init__(self):
        segs = tuple(self.segments)
        object.__setattr__(self, "segments", segs)
        if not segs:
            raise ValidationError("trim loop needs at least one segment")
        for j, seg in enumerate(segs):
            if not isinstance(seg, RationalBezierCurve):
                raise ValidationError(f"segments[{j}] must be a RationalBezierCurve")
            if seg.dim != 2:
                raise ValidationError(
                    f"segments[{j}]: trim curves live in (u, v), got dimension {seg.dim}"
                )
            pts = seg.points
            if float(pts.min()) < -_PARAM_SLACK or float(pts.max()) > 1.0 + _PARAM_SLACK:
                raise ValidationError(
                    f"segments[{j}]: control points leave the parameter square"
                )
        for j, gap in enumerate(_closure_gaps(segs)):
            if gap > _CLOSURE_TOL:
                raise ValidationError(
                    f"segments[{j}] ends {gap:.3e} away from the next segment start"
                )


@dataclass(frozen=True)
class TrimmedPatch:
    """A surface patch plus trim loops; no loops means the full square."""

    patch: RationalBezierPatch
    loops: tuple[TrimLoop, ...] = ()

    def __post_init__(self):
        if not isinstance(self.patch, RationalBezierPatch):
            raise ValidationError("patch must be a RationalBezierPatch")
        loops = tuple(self.loops)
        object.__setattr__(self, "loops", loops)
        for k, loop in enumerate(loops):
            if not isinstance(loop, TrimLoop):
                raise ValidationError(f"loops[{k}] must be a TrimLoop")


def SurfaceRule(points, weights, preimages, provenance, degenerate_count: int = 0) -> Rule:
    """Surface rule with parametric preimages.

    ``provenance`` rows are (patch, loop, segment, mu, eta).  Rules from
    the untrimmed tensor shortcut mark loop = segment = -1 and use the
    grid indices for (mu, eta).
    """
    return Rule(
        points,
        weights,
        provenance,
        ("x", "y", "z", "weight", "patch", "loop", "segment", "mu", "eta"),
        preimages,
        degenerate_count,
    )


def unit_square_loop() -> TrimLoop:
    """Counter-clockwise boundary of the full parameter square."""
    corners = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    segs = []
    for a, b in zip(corners, corners[1:] + corners[:1]):
        segs.append(RationalBezierCurve(np.array([a, b]), np.ones(2)))
    return TrimLoop(tuple(segs))


def parametric_area_rule(loops, m_q: int, n_q: int) -> Rule:
    """Planar rule over the trimmed part of the parameter square.

    The antiderivative runs in v from the fixed height 0, with m_q
    boundary nodes per trim segment and n_q nodes per vertical run.  The
    returned provenance indexes trim segments in flattened loop order.
    """
    loops = tuple(loops)
    if not loops:
        raise ValidationError("need at least one trim loop")
    for k, loop in enumerate(loops):
        if not isinstance(loop, TrimLoop):
            raise ValidationError(f"loops[{k}] must be a TrimLoop")
    if m_q < 1 or n_q < 1:
        raise ValidationError("orders must be at least 1")
    base = gauss_legendre(m_q, (0.0, 1.0))
    flat = [seg for loop in loops for seg in loop.segments]
    pts, wts, prov = _assemble(((seg, base) for seg in flat), 0.0, n_q)
    return Rule2D(pts, wts, prov)


def _mapped_rule(patch, pre, para_weights, prov, weight_mode, patch_index):
    """Push parametric points ``pre`` through the patch and scale their
    weights by the requested normal factor, zeroing (and warning about)
    collapsed-normal points.  ``prov`` holds the (loop, segment, mu, eta)
    provenance rows; the patch index is prepended here."""
    if weight_mode not in _WEIGHT_MODES:
        raise ValidationError(
            f"weight_mode must be one of {_WEIGHT_MODES}, got {weight_mode!r}"
        )
    point, normal = _patch_point_normal(patch, pre[:, 0], pre[:, 1])
    mag = np.linalg.norm(normal, axis=1)
    # collapsed patch edges (sphere poles) must be skipped, not integrated
    degenerate = mag < _DEGENERATE_NORMAL_REL * control_bbox(patch).diagonal()
    factor = mag if weight_mode == "full-normal" else normal[:, 2]
    weights = para_weights * np.where(degenerate, 0.0, factor)
    bad = int(np.count_nonzero(degenerate))
    if bad:
        warnings.warn(
            f"patch {patch_index}: zeroed {bad} degenerate-normal points", stacklevel=3
        )
    prov = np.column_stack([np.full(len(pre), patch_index, dtype=np.int64), prov])
    return SurfaceRule(point, weights, pre, prov, degenerate_count=bad)


def surface_rule(
    tp: TrimmedPatch, m_q: int, n_q: int, weight_mode: str = "full-normal", patch_index: int = 0
) -> Rule:
    """Quadrature rule over one trimmed patch.

    ``full-normal`` weights integrate against the surface area measure;
    ``z-normal`` weights integrate against n_z, which is what the volume
    construction consumes.  An untrimmed input gets the explicit unit
    square loop (the tensor shortcut lives in untrimmed_rule).
    """
    if isinstance(tp, RationalBezierPatch):
        tp = TrimmedPatch(tp)
    loops = tp.loops or (unit_square_loop(),)
    para = parametric_area_rule(loops, m_q, n_q)
    # flattened segment index -> (loop, segment)
    loop_seg = np.array(
        [(k, j) for k, loop in enumerate(loops) for j in range(len(loop.segments))],
        dtype=np.int64,
    )
    prov = np.column_stack([loop_seg[para.provenance[:, 0]], para.provenance[:, 1:]])
    return _mapped_rule(tp.patch, para.points, para.weights, prov, weight_mode, patch_index)


def untrimmed_rule(
    patch: RationalBezierPatch, n: int, weight_mode: str = "full-normal", patch_index: int = 0
) -> Rule:
    """Tensor-product Gauss shortcut for a full patch: n x n points over
    the parameter square, weights scaled by the same normal factor as
    surface_rule."""
    if n < 1:
        raise ValidationError("order must be at least 1")
    g = gauss_legendre(n, (0.0, 1.0))
    pre = np.column_stack([np.repeat(g.nodes, n), np.tile(g.nodes, n)])
    pw = np.repeat(g.weights, n) * np.tile(g.weights, n)
    prov = np.column_stack([np.full((n * n, 2), -1), np.indices((n, n)).reshape(2, -1).T])
    return _mapped_rule(patch, pre, pw, prov, weight_mode, patch_index)


apply_surface_rule = apply


def patch_rule(
    tp: TrimmedPatch, m_q: int, n_q: int, weight_mode: str = "full-normal", patch_index: int = 0
) -> Rule:
    """Rule over one patch: surface_rule on its trim loops, or for an
    untrimmed patch the untrimmed_rule tensor shortcut with max(m_q, n_q)
    points per direction."""
    if isinstance(tp, RationalBezierPatch):
        tp = TrimmedPatch(tp)
    if tp.loops:
        return surface_rule(tp, m_q, n_q, weight_mode, patch_index)
    return untrimmed_rule(tp.patch, max(m_q, n_q), weight_mode, patch_index)


def boundary_rule(patches, m_q: int, n_q: int, weight_mode: str = "full-normal") -> Rule:
    """A solid's one boundary rule: patch_rule for every patch, in patch order.

    ``bezquad rule-surface`` writes it in full-normal mode; volume_rule lifts
    it and solid moments integrate against it in z-normal mode.
    """
    parts = [patch_rule(tp, m_q, n_q, weight_mode, patch_index=i) for i, tp in enumerate(patches)]
    if not parts:
        raise ValidationError("boundary rule needs at least one patch")
    return SurfaceRule(
        np.vstack([r.points for r in parts]),
        np.concatenate([r.weights for r in parts]),
        np.vstack([r.preimages for r in parts]),
        np.vstack([r.provenance for r in parts]),
        degenerate_count=sum(r.degenerate_count for r in parts),
    )


def surface_integrate(patches, f, m_q: int, n_q: int) -> float:
    """Integral of f over a union of trimmed patches, area-weighted.

    Every patch gets its patch_rule.  Per-patch failures are collected
    and reported together with their patch indices.
    """
    total = 0.0
    failures = []
    for i, tp in enumerate(patches):
        try:
            total += apply(patch_rule(tp, m_q, n_q, "full-normal", patch_index=i), f)
        except (QuadratureError, ValidationError) as exc:
            failures.append(f"patch {i}: {exc}")
    if failures:
        raise QuadratureError("; ".join(failures))
    return total
