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
that choice.  A union of patches is integrated by its boundary rule, which
builds the planar rule of each distinct trim loop once: the two caps of a
cylinder, which hold one trim, share it.

A boundary rule is sized one of two ways.  boundary_rule takes Gauss
orders.  ``_exact_z_rule`` sizes a z-normal rule by a polynomial degree
p instead: when every patch is polynomial or carries no z-flux,
x^a y^b z^(c+1) n_z with a + b + c <= p is a polynomial in each patch's
(u, v) whose degrees follow from the degrees its coordinates actually
have, read off its net: a flat cap stored as a bilinear or an elevated
net has degree 1.  Gauss grids of those degrees and the paper's
degree-exact Green's-theorem rule over the trim loops integrate it
exactly.  Solid moments use it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bezier import (
    RationalBezierCurve,
    RationalBezierPatch,
    _batches,
    _built,
    _closed_chain,
    _frozen,
    _homogeneous,
    _items,
    _kind,
    _lengths,
    _patch_point_normal,
    _warn,
)
from .errors import ValidationError
from .planar import Rule, _equal_weights, _pe_region_rule, _region_rule, apply
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
    return _gauss_trim_rule([seg for loop in loops for seg in loop.segments], m_q, n_q)


def _gauss_trim_rule(segments, m_q, n_q) -> Rule:
    """parametric_area_rule over the trim ``segments``, orders taken as given."""
    rules = [gauss_legendre(m_q, (0.0, 1.0))] * len(segments)
    points, weights = [s.points for s in segments], [s.weights for s in segments]
    return _region_rule(points, weights, rules, 0.0, n_q)


def _as_trimmed_patches(patches) -> tuple[TrimmedPatch, ...]:
    """The nonempty ``patches``, each a TrimmedPatch or a bare patch, as TrimmedPatches."""
    patches = _items(patches, "patches", (TrimmedPatch, RationalBezierPatch))
    return tuple(tp if isinstance(tp, TrimmedPatch) else TrimmedPatch(tp) for tp in patches)


@lru_cache(maxsize=64)
def _tensor_part(n_u: int, n_v: int):
    """The n_u x n_v Gauss grid over the square as a read-only parametric
    part, u running slowest; its provenance rows are (-1, -1, i, j)."""
    g_u, g_v = gauss_legendre(n_u, (0.0, 1.0)), gauss_legendre(n_v, (0.0, 1.0))
    pre = np.column_stack([np.repeat(g_u.nodes, n_v), np.tile(g_v.nodes, n_u)])
    pw = np.repeat(g_u.weights, n_v) * np.tile(g_v.weights, n_u)
    prov = np.column_stack([np.full((n_u * n_v, 2), -1), np.indices((n_u, n_v)).reshape(2, -1).T])
    return _frozen(pre), _frozen(pw), _frozen(prov)


def _parts(tps, trim_rule, degrees, grids):
    """Each patch's parametric part: (preimages, weights, (loop, segment,
    mu, eta) rows).  A trimmed patch i covers each of its loops with
    ``trim_rule(segments, degrees[i])``, a planar rule over that loop's
    segments with provenance (segment, mu, eta), and numbers the rows by
    the loop's index among its own loops.  That rule is built once per
    distinct loop and degree, loops keyed on their control bytes, so the
    caps of a cylinder, which hold one trim, share one planar pass.  An
    untrimmed patch i gets the grids[i] = (n_u, n_v) Gauss grid."""
    built, parts = {}, []
    for tp, degree, grid in zip(tps, degrees, grids):
        if not tp.loops:
            parts.append(_tensor_part(*grid))
            continue
        pieces = []
        for k, loop in enumerate(tp.loops):
            key = (degree, tuple((s.points.tobytes(), s.weights.tobytes()) for s in loop.segments))
            rule = built.get(key)
            if rule is None:
                rule = built[key] = trim_rule(loop.segments, degree)
            prov = np.column_stack([np.full(len(rule), k), rule.provenance])
            pieces.append((rule.points, rule.weights, prov))
        parts.append(pieces[0] if len(pieces) == 1 else [np.concatenate(a) for a in zip(*pieces)])
    return parts


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
    # a leg, length, tolerance or weight that overflows is left inf or NaN
    with np.errstate(over="ignore", invalid="ignore"):
        for members, sel, which in _batches([p.points.shape for p in patches], owner):
            pts = np.stack([patches[i].points for i in members])
            wts = np.stack([patches[i].weights for i in members])
            point[:, sel], normal[:, sel] = _patch_point_normal(pts, wts, *pre[sel].T, which)
            # each patch's longest control-net leg along u, then along v
            for axis in (1, 2):
                leg = _lengths(np.diff(pts, axis=axis).reshape(-1, 3).T)
                legs[axis - 1, members] = leg.reshape(len(members), -1).max(axis=1)
        mag = _lengths(normal)
        # collapsed patch edges (sphere poles) must be skipped, not integrated:
        # |n| is an area, so it is measured against the product of two legs,
        # which scales with it.  A tolerance that overflows exceeds every
        # finite |n| as its exact value would
        degenerate = mag < (_DEGENERATE_NORMAL_REL * legs[0] * legs[1])[owner]
        factor = mag if weight_mode == "full-normal" else normal[2]
        # a zero weight times an overflowed normal is NaN
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
    one the max(m_q, n_q) tensor Gauss grid.  Each distinct trim loop goes
    through one planar pass, which every patch holding it shares, and
    each group of patches with one control-net shape is mapped in one
    pass.  ``full-normal`` weights integrate against the surface area
    measure, ``z-normal`` weights against n_z, which is what the volume
    construction consumes.

    ``bezquad rule-surface`` writes it in full-normal mode; volume_rule lifts
    it and solid moments integrate against it in z-normal mode.
    """
    patches = _as_trimmed_patches(patches)
    m_q, n_q = _orders(m_q, n_q)
    # before the parametric pass, which costs a planar rule over every trim
    if weight_mode not in _WEIGHT_MODES:
        raise ValidationError(f"weight_mode must be one of {_WEIGHT_MODES}, got {weight_mode!r}")
    n = len(patches)
    trim_rule = lambda segments, _: _gauss_trim_rule(segments, m_q, n_q)
    parts = _parts(patches, trim_rule, [None] * n, [(max(m_q, n_q),) * 2] * n)
    return _mapped_rule([tp.patch for tp in patches], parts, weight_mode)


def _z_flux_free(patch) -> bool:
    """Whether n_z is identically zero: the homogeneous (w x, w y, w) net
    is the same in every row or in every column, so x and y do not depend
    on one parameter.  The normal's z row is then exactly 0."""
    h = _homogeneous(patch.points, patch.weights)[..., [0, 1, 3]]
    return bool((h == h[:1]).all() or (h == h[:, :1]).all())


def _minus(a, b):
    """The pointwise differences a - b of two lists of 3D points, as lists."""
    return [[x - y for x, y in zip(p, q)] for p, q in zip(a, b)]


def _coordinate_degrees(points):
    """(d_u, d_v, d): the degrees in u, in v and in total of the polynomial
    patch with control ``points``, over its three coordinates.

    The monomial coefficient of u^i v^j is C(m, i) C(n, j) times the
    forward difference du^i dv^j P00 of the net, so the degrees are the
    largest i, j and i + j whose difference is not exactly 0.  A difference
    that rounds to 0 from a nonzero value is below the net's own rounding.
    The differences are Python floats, a few per patch: one that overflows
    is inf or NaN, with no warning, and counts as nonzero.
    """
    net = points.tolist()
    # in place: row k ends as the k-th difference of row 0, then each
    # row's point k as the k-th difference of its point 0
    for k in range(1, len(net)):
        net[k:] = [_minus(a, b) for a, b in zip(net[k:], net[k - 1 :])]
    for k in range(1, len(net[0])):
        net = [row[:k] + _minus(row[k:], row[k - 1 :]) for row in net]
    ij = [(i, j) for i, row in enumerate(net) for j, point in enumerate(row) if any(point)]
    if not ij:
        return 0, 0, 0
    return max(i for i, _ in ij), max(j for _, j in ij), max(map(sum, ij))


def _exact_z_rule(patches, p):
    """A z-normal boundary rule that integrates x^a y^b z^(c+1) n_z exactly
    for a + b + c <= p, or None when a rational patch carries z-flux.

    On a polynomial patch whose coordinates have degrees d_u in u, d_v in
    v and d in total, read off its net by _coordinate_degrees, that
    integrand is a polynomial in (u, v) of degree d_u(p+3) - 1 in u,
    d_v(p+3) - 1 in v and K = d(p+3) - 2 in total: d = 1 on a flat
    parallelogram, whatever degree its net is stored at.  An untrimmed
    patch takes the n_u x n_v Gauss grid with n_u = min(ceil((K+1)/2),
    ceil(d_u(p+3)/2)), and n_v likewise; a patch with no z-flux adds exact
    zeros, so one point.  Each trim loop of a trimmed patch takes the
    degree-K Green's-theorem rule in (u, v) from height 0, as
    spectral_pe_rule builds for planar regions, built once per distinct
    loop and K.
    """
    degrees, grids = [], []
    # a lift that overflows is left inf, which the patch's rule refuses
    with np.errstate(over="ignore"):
        for tp in patches:
            if _z_flux_free(tp.patch):
                d_u = d_v = d = 0
            elif _equal_weights(tp.patch.weights.ravel()):
                d_u, d_v, d = _coordinate_degrees(tp.patch.points)
            else:
                return None
            if d_u and d_v:
                k = d * (p + 3) - 2
                grid = tuple(min((k + 2) // 2, (e * (p + 3) + 1) // 2) for e in (d_u, d_v))
            else:  # coordinates constant in u or in v make n_z zero
                k, grid = 0, (1, 1)
            degrees.append(k)
            grids.append(grid)
    trim_rule = lambda segments, k: _pe_region_rule(segments, k, 0.0)
    parts = _parts(patches, trim_rule, degrees, grids)
    return _mapped_rule([tp.patch for tp in patches], parts, "z-normal")


def surface_integrate(patches, f, m_q: int, n_q: int) -> float:
    """Integral of f over a union of trimmed patches, area-weighted.

    This is apply of the full-normal boundary_rule, so a non-finite value
    raises QuadratureError at the first bad node, naming its patch; no
    patches give 0.0.
    """
    m_q, n_q = _orders(m_q, n_q)
    patches = _items(patches, "patches", least=0)
    return apply(boundary_rule(patches, m_q, n_q), f) if patches else 0.0
