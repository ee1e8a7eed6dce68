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
tensor-product Gauss grid over the whole square; ``_parts`` alone makes
that choice.  A union of patches is integrated by its boundary rule, whose
trim segments, over all its patches, share one planar rule.

A boundary rule is sized one of two ways.  boundary_rule takes Gauss
orders.  ``_exact_z_rule`` sizes a z-normal rule by a polynomial degree
p instead: when every patch is polynomial or carries no z-flux,
x^a y^b z^(c+1) n_z with a + b + c <= p is a polynomial in each patch's
(u, v) of known degree, so Gauss grids of that degree and the paper's
degree-exact Green's-theorem rule over the trim segments integrate it
exactly.  Solid moments use it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bezier import (
    RationalBezierCurve,
    RationalBezierPatch,
    _batches,
    _closed_chain,
    _frozen,
    _homogeneous,
    _items,
    _kind,
    _patch_point_normal,
    _warn,
)
from .errors import ValidationError
from .planar import Rule, _built, _equal_weights, _pe_region_rule, _region_rule, apply
from .quad1d import _orders, gauss_legendre

__all__ = [
    "TrimLoop",
    "TrimmedPatch",
    "SurfaceRule",
    "unit_square_loop",
    "parametric_area_rule",
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
        segs = _closed_chain(self.segments, "segments", _CLOSURE_TOL / 2)
        object.__setattr__(self, "segments", segs)
        for j, seg in enumerate(segs):
            if seg.points.min() < -_PARAM_SLACK or seg.points.max() > 1 + _PARAM_SLACK:
                raise ValidationError("control points leave the parameter square", f"segments[{j}]")


@dataclass(frozen=True)
class TrimmedPatch:
    """A surface patch plus trim loops; no loops means the full square."""

    patch: RationalBezierPatch
    loops: tuple[TrimLoop, ...] = ()

    def __post_init__(self):
        _kind(self.patch, "patch", RationalBezierPatch)
        object.__setattr__(self, "loops", _items(self.loops, "loops", TrimLoop, least=0))


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
    loops = _items(loops, "loops", TrimLoop)
    m_q, n_q = _orders(m_q, n_q)
    flat = [seg for loop in loops for seg in loop.segments]
    rules = [gauss_legendre(m_q, (0.0, 1.0))] * len(flat)
    return _region_rule([s.points for s in flat], [s.weights for s in flat], rules, 0.0, n_q)


def _as_trimmed_patches(patches) -> tuple[TrimmedPatch, ...]:
    """The nonempty ``patches``, each a TrimmedPatch or a bare patch, as TrimmedPatches."""
    patches = _items(patches, "patches", (TrimmedPatch, RationalBezierPatch))
    return tuple(tp if isinstance(tp, TrimmedPatch) else TrimmedPatch(tp) for tp in patches)


@lru_cache(maxsize=64)
def _tensor_part(n: int):
    """The n x n Gauss grid over the square as a read-only parametric part;
    its provenance rows are (-1, -1, i, j)."""
    g = gauss_legendre(n, (0.0, 1.0))
    pre = np.column_stack([np.repeat(g.nodes, n), np.tile(g.nodes, n)])
    pw = np.repeat(g.weights, n) * np.tile(g.weights, n)
    prov = np.column_stack([np.full((n * n, 2), -1), np.indices((n, n)).reshape(2, -1).T])
    return _frozen(pre), _frozen(pw), _frozen(prov)


def _parts(tps, para, tensor_orders):
    """Each patch's parametric part: (preimages, weights, (loop, segment,
    mu, eta) rows).  ``para`` is one planar rule over the trim segments of
    every trimmed patch, flattened in patch, loop and segment order, with
    provenance (segment, mu, eta), or None when no patch is trimmed; its
    points are split back to the patches that own them.  An untrimmed
    patch i gets the tensor_orders[i] Gauss grid."""
    if para is None:
        return [_tensor_part(n) for n in tensor_orders]
    # flattened segment index -> (patch, loop, segment)
    ids = [(i, k, j) for i, tp in enumerate(tps) for k, loop in enumerate(tp.loops)
           for j in range(len(loop.segments))]
    rows = np.array(ids, dtype=np.int64)[para.provenance[:, 0]]
    prov = np.column_stack([rows[:, 1:], para.provenance[:, 1:]])
    cuts = np.searchsorted(rows[:, 0], np.arange(1, len(tps)))
    split = zip(*(np.split(a, cuts) for a in (para.points, para.weights, prov)))
    return [
        part if tp.loops else _tensor_part(n) for tp, part, n in zip(tps, split, tensor_orders)
    ]


def _lengths(vectors):
    """The length of each column of the (3, k) ``vectors``: the plain
    norm's, or where its squares overflow, ``np.hypot``'s."""
    with np.errstate(over="ignore"):
        out = np.linalg.norm(vectors, axis=0)
        big = ~np.isfinite(out)
        if big.any():
            out[big] = np.hypot.reduce(vectors[:, big], axis=0)
    return out


def _mapped_rule(patches, parts, weight_mode) -> Rule:
    """Push each patch's parametric part through that patch and scale the
    weights by the requested normal factor.

    ``parts[i]`` is the (preimages, weights, (loop, segment, mu, eta)
    rows) of ``patches[i]``, which is numbered ``i``.  The patches that
    share a control-net shape are evaluated in one batch, whose stacked
    control points also give each patch's degenerate-normal tolerance.
    Collapsed-normal points keep weight zero, with one warning per patch.
    A normal or weight that overflows float64 is refused as such.
    """
    owner = np.repeat(np.arange(len(patches)), [len(pw) for _, pw, _ in parts])
    pre = _frozen(np.concatenate([part[0] for part in parts]))
    # coordinate-major, so each coordinate is one contiguous row
    point = np.empty((3, owner.size))
    normal = np.empty((3, owner.size))
    legs = np.empty((2, len(patches)))
    # a leg that overflows is left inf, as is the tolerance below
    with np.errstate(over="ignore"):
        for members, sel, which in _batches([p.points.shape for p in patches], owner):
            pts = np.stack([patches[i].points for i in members])
            nets = _homogeneous(pts, np.stack([patches[i].weights for i in members]))
            point[:, sel], normal[:, sel] = _patch_point_normal(nets, pre[sel, 0], pre[sel, 1], which)
            # each patch's longest control-net leg along u, then along v
            for axis in (1, 2):
                leg = _lengths(np.diff(pts, axis=axis).reshape(-1, 3).T)
                legs[axis - 1, members] = leg.reshape(len(members), -1).max(axis=1)
    mag = _lengths(normal)
    # collapsed patch edges (sphere poles) must be skipped, not integrated:
    # |n| is an area, so it is measured against the product of two legs,
    # which scales with it.  A tolerance that overflows exceeds every
    # finite |n| as its exact value would
    with np.errstate(over="ignore"):
        degenerate = mag < (_DEGENERATE_NORMAL_REL * legs[0] * legs[1])[owner]
    factor = mag if weight_mode == "full-normal" else normal[2]
    with np.errstate(invalid="ignore"):  # a zero weight times an overflowed normal
        weights = np.concatenate([part[1] for part in parts]) * np.where(degenerate, 0.0, factor)
    bad = np.bincount(owner[degenerate], minlength=len(patches))
    for i in np.flatnonzero(bad):
        _warn(f"patch {i}: zeroed {bad[i]} degenerate-normal points")
    prov = np.empty((5, owner.size), dtype=np.int64)
    prov[0] = owner
    prov[1:] = np.concatenate([part[2] for part in parts]).T
    return _built(
        SurfaceRule, _frozen(point).T, _frozen(weights), pre, _frozen(prov).T, int(bad.sum())
    )


def boundary_rule(patches, m_q: int, n_q: int, weight_mode: str = "full-normal") -> Rule:
    """A solid's one boundary rule: every patch's part, in patch order.

    A trimmed patch gets Green's theorem over its trim loops (m_q
    boundary nodes per trim segment, n_q per vertical run); an untrimmed
    one the max(m_q, n_q) tensor Gauss grid.  Every trim segment of every
    patch goes through one planar pass, and each group of patches with one
    control-net shape is mapped in one pass.  ``full-normal`` weights
    integrate against the surface area measure, ``z-normal`` weights
    against n_z, which is what the volume construction consumes.

    ``bezquad rule-surface`` writes it in full-normal mode; volume_rule lifts
    it and solid moments integrate against it in z-normal mode.
    """
    patches = _as_trimmed_patches(patches)
    m_q, n_q = _orders(m_q, n_q)
    # before the parametric pass, which costs a planar rule over every trim
    if weight_mode not in _WEIGHT_MODES:
        raise ValidationError(f"weight_mode must be one of {_WEIGHT_MODES}, got {weight_mode!r}")
    loops = [loop for tp in patches for loop in tp.loops]
    para = parametric_area_rule(loops, m_q, n_q) if loops else None
    parts = _parts(patches, para, [max(m_q, n_q)] * len(patches))
    return _mapped_rule([tp.patch for tp in patches], parts, weight_mode)


def _z_flux_free(patch) -> bool:
    """Whether n_z is identically zero: the homogeneous (w x, w y, w) net
    is the same in every row or in every column, so x and y do not depend
    on one parameter.  The normal's z row is then exactly 0."""
    h = _homogeneous(patch.points, patch.weights)[..., [0, 1, 3]]
    return bool((h == h[:1]).all() or (h == h[:, :1]).all())


def _exact_z_rule(patches, p):
    """A z-normal boundary rule that integrates x^a y^b z^(c+1) n_z exactly
    for a + b + c <= p, or None when a rational patch carries z-flux.

    On a polynomial patch of degrees (m, n) that integrand is a polynomial
    in (u, v) of total degree K = (m+n)(p+1) + 2(m+n) - 2.  An untrimmed
    patch takes the ceil((K+1)/2) tensor Gauss grid; a patch with no
    z-flux adds exact zeros, so one point.  The trim segments of every
    trimmed patch share one degree-exact Green's-theorem rule in (u, v),
    as spectral_pe_rule builds for planar regions, at the largest K among
    trimmed patches and from height 0.
    """
    bounds = []
    for tp in patches:
        if _z_flux_free(tp.patch):
            bounds.append(0)
        elif _equal_weights(tp.patch.weights.ravel()):
            m_n = tp.patch.degree_u + tp.patch.degree_v
            bounds.append(m_n * (p + 1) + 2 * m_n - 2)
        else:
            return None
    trimmed = [k for k, tp in zip(bounds, patches) if tp.loops]
    segs = [seg for tp in patches for loop in tp.loops for seg in loop.segments]
    para = _pe_region_rule(segs, max(trimmed), 0.0) if trimmed else None
    layers = [math.ceil((k + 1) / 2) for k in bounds]
    return _mapped_rule([tp.patch for tp in patches], _parts(patches, para, layers), "z-normal")


def surface_integrate(patches, f, m_q: int, n_q: int) -> float:
    """Integral of f over a union of trimmed patches, area-weighted.

    This is apply of the full-normal boundary_rule, so a non-finite value
    raises QuadratureError at the first bad node, naming its patch; no
    patches give 0.0.
    """
    m_q, n_q = _orders(m_q, n_q)
    patches = _items(patches, "patches", least=0)
    return apply(boundary_rule(patches, m_q, n_q), f) if patches else 0.0
