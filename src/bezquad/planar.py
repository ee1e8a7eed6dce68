"""Quadrature over planar regions bounded by rational Bezier loops.

The area integral of f is turned into a boundary integral of the vertical
antiderivative A_f(x, y) = integral of f(x, .) from a constant height C up
to y, and that boundary integral is evaluated curve by curve.  Every rule
point therefore sits on a vertical segment hanging below a boundary point,
and its weight is a product of three numbers: the intermediate weight of
the boundary node, the Gauss weight on the vertical segment, and the
geometric factor of the curve at that node.

Loops are traversed counter-clockwise around material; clockwise loops
subtract (holes).  With that convention the geometric factor is minus the
x-derivative of the curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bezier import (
    BoundingBox,
    RationalBezierCurve,
    _CONDITIONING_DEGREE,
    _closure_gaps,
    _warn_if_high_degree,
    control_bbox,
    eval_curve,
    eval_curve_derivative,
)
from .errors import QuadratureError, ValidationError
from .quad1d import (
    PoleSet,
    Rule1D,
    _as_int,
    _gauss_many,
    gauss_legendre,
    rational_rule,
    weight_poly_roots,
)

__all__ = [
    "PlanarRegion",
    "Rule",
    "Rule2D",
    "region_constant_C",
    "spectral_rule",
    "spectral_pe_rule",
    "integrate2d",
    "apply",
]

_CLOSURE_REL_TOL = 1e-10
_EQUAL_WEIGHT_REL_TOL = 1e-14
_PE_CACHE_SIZE = 1024


@dataclass(frozen=True)
class PlanarRegion:
    """One or more closed loops of rational Bezier curves.

    Each loop must chain end-to-start (within 1e-10 of its own scale) and
    close back on its first curve.  Counter-clockwise loops carry positive
    material, clockwise loops cut holes.
    """

    loops: tuple[tuple[RationalBezierCurve, ...], ...]

    def __post_init__(self):
        loops = tuple(tuple(loop) for loop in self.loops)
        object.__setattr__(self, "loops", loops)
        if not loops:
            raise ValidationError("region needs at least one loop")
        for k, loop in enumerate(loops):
            if not loop:
                raise ValidationError(f"loop {k} is empty", path=f"loops[{k}]")
            for j, c in enumerate(loop):
                if not isinstance(c, RationalBezierCurve) or c.dim != 2:
                    raise ValidationError(
                        "loops must consist of planar rational Bezier curves",
                        path=f"loops[{k}][{j}]",
                    )
            scale = control_bbox(list(loop)).diagonal()
            tol = _CLOSURE_REL_TOL * scale if scale > 0 else _CLOSURE_REL_TOL
            for j, gap in enumerate(_closure_gaps(loop)):
                if gap > tol:
                    nxt = (j + 1) % len(loop)
                    raise ValidationError(
                        f"curve {j} ends at {tuple(loop[j].end())} but curve "
                        f"{nxt} starts at {tuple(loop[nxt].start())} "
                        f"(gap {gap:.3e}, tolerance {tol:.3e})",
                        path=f"loops[{k}]",
                    )

    @property
    def curves(self) -> tuple[RationalBezierCurve, ...]:
        return tuple(c for loop in self.loops for c in loop)

    def bbox(self) -> BoundingBox:
        return control_bbox(self)


@dataclass(frozen=True)
class Rule:
    """Quadrature rule: points, weights and per-point provenance.

    ``columns`` is the CSV header: 2 or 3 coordinate names, ``weight``,
    then one name per provenance column.  Surface rules also carry their
    parametric ``preimages`` in the unit square and ``degenerate_count``,
    the number of points whose unnormalized normal collapsed below
    threshold; those stay in the rule with zero weight.
    """

    points: np.ndarray
    weights: np.ndarray
    provenance: np.ndarray
    columns: tuple
    preimages: np.ndarray | None = None
    degenerate_count: int = 0

    def __post_init__(self):
        cols = tuple(self.columns)
        dim = cols.index("weight") if "weight" in cols else None
        if dim not in (2, 3):
            raise ValidationError(
                f"rule columns need 2 or 3 coordinates before 'weight', got {','.join(cols)!r}"
            )
        wts = np.array(self.weights, dtype=float).ravel()
        width = len(cols) - dim - 1
        arrays = {
            "points": np.array(self.points, dtype=float).reshape(-1, dim),
            "weights": wts,
            "provenance": np.array(self.provenance, dtype=np.int64).reshape(
                (-1, width) if width else (wts.size, 0)
            ),
        }
        if self.preimages is not None:
            pre = np.array(self.preimages, dtype=float).reshape(-1, 2)
            if pre.size and (float(pre.min()) < -1e-8 or float(pre.max()) > 1.0 + 1e-8):
                raise ValidationError("parametric preimages must stay inside the unit square")
            arrays["preimages"] = pre
        if len({a.shape[0] for a in arrays.values()}) != 1:
            raise ValidationError(f"{', '.join(arrays)} must align")
        object.__setattr__(self, "columns", cols)
        for name, a in arrays.items():
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    def __len__(self) -> int:
        return self.weights.size

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def Rule2D(points, weights, provenance) -> Rule:
    """Planar rule.  ``provenance`` rows are (curve, q, zeta): the flattened
    boundary curve index, the intermediate node index on that curve, and
    the index on the vertical antiderivative segment under that node."""
    return Rule(points, weights, provenance, ("x", "y", "weight", "curve", "q", "zeta"))


def apply(rule: Rule, f) -> float:
    """Apply the rule to f(x, y) or f(x, y, z); f must accept numpy arrays."""
    with np.errstate(all="ignore"):
        vals = np.broadcast_to(
            np.asarray(f(*rule.points.T), dtype=float), rule.weights.shape
        )
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        i = int(bad[0])
        raise QuadratureError(
            f"integrand is not finite at node {i}", point=tuple(map(float, rule.points[i]))
        )
    return float(np.dot(rule.weights, vals))


integrate2d = apply


def region_constant_C(region: PlanarRegion) -> float:
    """Lower antiderivative height: the minimum control-point y.

    Every curve point lies at or above this height (convex hull), so all
    antiderivative segments have non-negative length.
    """
    return min(float(c.points[:, 1].min()) for c in region.curves)


def _equal_weights(w) -> bool:
    return float(np.max(np.abs(w - w[0]))) <= _EQUAL_WEIGHT_REL_TOL * float(np.max(np.abs(w)))


def is_polynomial_curve(curve: RationalBezierCurve) -> bool:
    return _equal_weights(curve.weights)


def _lift(points, owner, base, order):
    """Antiderivative rays: an ``order``-point Gauss segment from height
    ``base`` up to the last coordinate of each point.

    ``owner`` labels each point with the curve or patch that produced it,
    in contiguous ascending blocks.  Returns the ray points (point-major,
    other coordinates repeated), the (k, order) segment weights and the
    provenance rows (owner, point index within the owner, node).
    """
    k = points.shape[0]
    nodes, seg_w = _gauss_many(order, np.full(k, base), points[:, -1])
    lifted = np.column_stack([np.repeat(points[:, :-1], order, axis=0), nodes.ravel()])
    local = np.arange(k) - np.searchsorted(owner, owner)
    rows = np.repeat(np.column_stack([owner, local]), order, axis=0)
    prov = np.column_stack([rows, np.tile(np.arange(order), k)])
    return lifted, seg_w, prov


def _region_rule(curves, curve_rules, base, layer_order) -> Rule:
    """Green's-theorem rule: one Rule1D on [0, 1] per boundary curve, every
    node lifted from height ``base`` by a ``layer_order``-point segment.
    Provenance rows are (curve, q, zeta), curves in flattened order."""
    pairs = list(zip(curves, curve_rules))
    points = np.vstack([eval_curve(crv, r.nodes) for crv, r in pairs])
    # counter-clockwise material: the factor is -dx/ds
    factor = -np.concatenate([eval_curve_derivative(crv, r.nodes)[:, 0] for crv, r in pairs])
    w = np.concatenate([r.weights for r in curve_rules])
    owner = np.repeat(np.arange(len(pairs)), [len(r) for r in curve_rules])
    lifted, seg_w, prov = _lift(points, owner, base, layer_order)
    return Rule2D(lifted, ((w[:, None] * seg_w) * factor[:, None]).ravel(), prov)


def spectral_rule(region: PlanarRegion, boundary_order: int, layer_order: int) -> Rule:
    """Gauss-on-Gauss rule: ``boundary_order`` nodes per curve, each with a
    ``layer_order``-point vertical segment.

    Spectrally convergent for integrands analytic on the region; never
    exact by construction.
    """
    if boundary_order < 1 or layer_order < 1:
        raise ValidationError("orders must be at least 1")
    curves = region.curves
    base = gauss_legendre(boundary_order, (0.0, 1.0))
    return _region_rule(curves, [base] * len(curves), region_constant_C(region), layer_order)


def _pe_intermediate_rule(curve: RationalBezierCurve, degree: int) -> Rule1D:
    """Intermediate rule on one curve making the boundary integral exact
    for integrands of total degree <= ``degree``.

    The rule depends only on the curve's weights, so congruent curves (the
    arcs of a circle, say) share one cached rule.  ``Rule1D`` is frozen
    with read-only arrays; exceptions are not cached.
    """
    key = curve.weights.tobytes()
    if curve.degree <= _CONDITIONING_DEGREE or _equal_weights(curve.weights):
        return _weights_rule(key, degree)
    # A cache hit converts no basis, so it raises the conditioning warning
    # that the build (a miss) raises from weight_poly_roots.
    misses = _weights_rule.cache_info().misses
    rule = _weights_rule(key, degree)
    if _weights_rule.cache_info().misses == misses:
        _warn_if_high_degree(curve.degree)
    return rule


@lru_cache(maxsize=_PE_CACHE_SIZE)
def _weights_rule(weight_bytes: bytes, degree: int) -> Rule1D:
    weights = np.frombuffer(weight_bytes)
    m = weights.size - 1
    if not _equal_weights(weights):
        roots = weight_poly_roots(weights)
        if roots:
            poles = PoleSet.from_roots(roots, multiplier=degree + 3)
            return rational_rule(poles, poly_degree=0)
    # polynomial fallback: the intermediate integrand is a polynomial of
    # degree m*(degree+2) + (m-1)
    intermediate_degree = m * (degree + 2) + (m - 1)
    return gauss_legendre(math.ceil((intermediate_degree + 1) / 2), (0.0, 1.0))


def spectral_pe_rule(region: PlanarRegion, degree: int) -> Rule:
    """Polynomially exact rule: integrates every monomial x^a y^b with
    a + b <= ``degree`` to rounding level.

    Rational curves get a rational-exact intermediate rule built on their
    weight-polynomial poles at multiplicity degree + 3; polynomial curves
    get plain Gauss.  Each boundary node carries ceil((degree + 1) / 2)
    antiderivative points.
    """
    degree = _as_int(degree, "exactness degree")
    if degree < 0:
        raise ValidationError(f"exactness degree must be >= 0, got {degree}")
    curves = region.curves
    rules = [_pe_intermediate_rule(crv, degree) for crv in curves]
    layer_order = max(1, math.ceil((degree + 1) / 2))
    return _region_rule(curves, rules, region_constant_C(region), layer_order)
