"""Quadrature over planar regions bounded by rational Bezier loops.

The area integral of f is turned into a boundary integral of the vertical
antiderivative A_f(x, y) = integral of f(x, .) from a constant height C up
to y, and that boundary integral is evaluated at the nodes of every curve
at once, one array pass per curve degree.  Every rule point therefore sits
on a vertical segment hanging below a boundary point, and its weight is a
product of three numbers: the intermediate weight of the boundary node,
the Gauss weight on the vertical segment, and the geometric factor of the
curve at that node.

Loops are traversed counter-clockwise around material; clockwise loops
subtract (holes).  With that convention the geometric factor is minus the
x-derivative of the curve.  A monomial's antiderivative is closed form,
so region moments take the _boundary_nodes alone (see the moments module).

The degree-exact rule first puts the weights of each curve with unequal
end weights into standard form (end weights 1), the Moebius
reparametrization that keeps its trace and orientation, on the stacked
weights of each curve degree at once.  Curves that differ only by such a
rescaling of their weights (the arcs of one circle written with weights
(1, c, c^2), say) then share one memoized intermediate rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bezier import (
    RationalBezierCurve,
    _adopt,
    _batches,
    _built,
    _closed_chain,
    _curve_point_derivative,
    _frozen,
    _groups,
    _items,
    _kind,
    _memo,
    _warn,
)
from .errors import QuadratureError, ValidationError
from .quad1d import (
    PoleSet,
    Rule1D,
    _as_int,
    _leggauss,
    _orders,
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


def _loop_half_tol(loop) -> float:
    """Half the closure tolerance of a planar loop, relative to its scale."""
    # half the diagonal of the loop's control bounding box, from halved
    # coordinates as the half gaps are: neither overflows, and an inf
    # diagonal would make a tolerance that accepts all
    pts = np.concatenate([c.points for c in loop]) / 2
    half = float(np.hypot.reduce(pts.max(axis=0) - pts.min(axis=0)))
    return _CLOSURE_REL_TOL * (half if half > 0 else 0.5)


@dataclass(frozen=True)
class PlanarRegion:
    """One or more closed loops of rational Bezier curves.

    Each loop must chain end-to-start (within 1e-10 of its own scale) and
    close back on its first curve.  Counter-clockwise loops carry positive
    material, clockwise loops cut holes.
    """

    loops: tuple[tuple[RationalBezierCurve, ...], ...]

    def __post_init__(self):
        loops = tuple(
            _closed_chain(loop, f"loops[{k}]", _loop_half_tol)
            for k, loop in enumerate(_items(self.loops, "loops"))
        )
        object.__setattr__(self, "loops", loops)

    @property
    def curves(self) -> tuple[RationalBezierCurve, ...]:
        return tuple(c for loop in self.loops for c in loop)


@dataclass(frozen=True)
class Rule:
    """Quadrature rule: points, weights and per-point provenance.

    ``columns`` is the CSV header: 2 or 3 coordinate names, ``weight``,
    then one name per provenance column.  Surface rules also carry their
    parametric ``preimages`` in the unit square and ``degenerate_count``,
    the number of points whose unnormalized normal collapsed below
    threshold; those stay in the rule with zero weight.  Points, weights
    and preimages must be finite.
    """

    points: np.ndarray
    weights: np.ndarray
    provenance: np.ndarray
    columns: tuple
    preimages: np.ndarray | None = None
    degenerate_count: int = 0

    def __post_init__(self):
        cols = _items(self.columns, "columns", str)
        dim = cols.index("weight") if "weight" in cols else None
        if dim not in (2, 3):
            raise ValidationError(
                f"rule columns need 2 or 3 coordinates before 'weight', got {','.join(cols)!r}"
            )
        # each array's shape, any number of rows; preimages are optional
        shapes = dict(points=(None, dim), weights=(None,), provenance=(None, len(cols) - dim - 1))
        if self.preimages is not None:
            shapes["preimages"] = (None, 2)
        arrays = {}
        for name, shape in shapes.items():
            dtype = np.int64 if name == "provenance" else float
            arrays[name] = _adopt(getattr(self, name), name, dtype, shape)
        pre = arrays.get("preimages")
        if pre is not None and pre.size and (pre.min() < -1e-8 or pre.max() > 1.0 + 1e-8):
            raise ValidationError("parametric preimages must stay inside the unit square")
        if len({a.shape[0] for a in arrays.values()}) != 1:
            raise ValidationError(f"{', '.join(arrays)} must align")
        object.__setattr__(self, "columns", cols)
        for name, a in arrays.items():
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
    """Apply the rule to f(x, y) or f(x, y, z); f must accept numpy arrays.
    A non-finite value raises QuadratureError naming the first bad node.

    The weighted sum comes first: w * inf and w * nan are never finite,
    not even for w = 0, so the values are scanned only when the sum is
    not finite, and a sum that overflowed from finite values is returned.
    """
    _kind(rule, "rule", Rule)
    with np.errstate(all="ignore"):
        raw = f(*rule.points.T)
        if np.iscomplexobj(raw):
            raise QuadratureError("integrand returned complex values")
        vals, shape = np.asarray(raw, dtype=float), rule.weights.shape
        # a scalar is broadcast; broadcast_to refuses a wrong shape
        vals = vals if vals.shape == shape else np.broadcast_to(vals, shape)
        total = np.dot(rule.weights, vals)
    if math.isfinite(total):
        return float(total)
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        i = int(bad[0])
        row = ", ".join(map("{} {}".format, rule.columns[rule.dim + 1 :], rule.provenance[i]))
        raise QuadratureError(
            f"integrand is not finite at node {i}" + (f" ({row})" if row else ""),
            point=tuple(map(float, rule.points[i])),
        )
    return float(total)


integrate2d = apply


def region_constant_C(region: PlanarRegion) -> float:
    """Lower antiderivative height: the minimum control-point y.

    Every curve point lies at or above this height (convex hull), so all
    antiderivative segments have non-negative length.
    """
    _kind(region, "region", PlanarRegion)
    return float(np.concatenate([c.points for c in region.curves])[:, 1].min())


def _equal_weights(w) -> bool:
    return float(np.max(np.abs(w - w[0]))) <= _EQUAL_WEIGHT_REL_TOL * float(np.max(np.abs(w)))


def _lift(points, owner, base, order, *factors):
    """Antiderivative rays: an ``order``-point Gauss segment from height
    ``base`` up to the last coordinate of each of the (k, dim) points.

    ``owner`` labels each point with the curve or patch that produced it,
    in contiguous ascending blocks.  Each segment's weights are multiplied,
    in the order given, by every length-k array of ``factors``.  Returns
    the ray points (other coordinates repeated), their weights and the
    provenance rows (owner, point index within the owner, node), rows
    running point by point, node by node: read-only (k * order, dim),
    (k * order,) and (k * order, 3) views of one (dim + 4, k, order)
    block, provenance stored as int64, allocated once per call.  A product
    that overflows is left inf or NaN, for the rule to refuse.
    """
    k, dim = points.shape
    x, w = _leggauss(order)
    top = points[:, -1]
    block = np.empty((dim + 4, k, order))
    block[: dim - 1] = points.T[:-1, :, None]
    with np.errstate(over="ignore", invalid="ignore"):
        mid, half = 0.5 * (base + top), 0.5 * (top - base)
        np.multiply(half[:, None], x, out=block[dim - 1])
        block[dim - 1] += mid[:, None]
        np.multiply(half[:, None], w, out=block[dim])
        for f in factors:
            block[dim] *= f[:, None]
    prov = block[dim + 1 :].view(np.int64)
    prov[0] = owner[:, None]
    prov[1] = (np.arange(k) - np.searchsorted(owner, owner))[:, None]
    prov[2] = np.arange(order)
    rows = _frozen(block).reshape(dim + 4, -1)
    return rows[:dim].T, rows[dim], rows[dim + 1 :].view(np.int64).T


def _boundary_nodes(points, weights, curve_rules):
    """The nodes of one Rule1D on [0, 1] per curve with control ``points``
    and ``weights``: their (2, k) points, the curve of each, in flattened
    order, their rule weights and -dx/ds, the factor of counter-clockwise
    material.  The curves of one degree go through one de Casteljau pass."""
    owner = np.repeat(np.arange(len(points)), [len(r) for r in curve_rules])
    nodes = np.concatenate([r.nodes for r in curve_rules])
    xy = np.empty((2, nodes.size))
    factor = np.empty(nodes.size)
    for members, sel, which in _batches([len(w) for w in weights], owner):
        stack = [np.array([a[i] for i in members]) for a in (points, weights)]
        xy[:, sel], der = _curve_point_derivative(*stack, nodes[sel], which)
        factor[sel] = -der[0]
    return xy, owner, np.concatenate([r.weights for r in curve_rules]), factor


def _region_rule(points, weights, curve_rules, base, layer_order) -> Rule:
    """Green's-theorem rule: each of the _boundary_nodes lifted from height
    ``base`` by a ``layer_order``-point segment; provenance (curve, q, zeta)."""
    xy, owner, w, factor = _boundary_nodes(points, weights, curve_rules)
    return _built(Rule2D, *_lift(xy.T, owner, base, layer_order, w, factor))


def _gauss_region_rule(curves, boundary_order, layer_order, base) -> Rule:
    """``boundary_order`` Gauss nodes per curve, each lifted from height
    ``base`` by a ``layer_order``-point segment, orders taken as given."""
    rules = [gauss_legendre(boundary_order, (0.0, 1.0))] * len(curves)
    points, weights = [c.points for c in curves], [c.weights for c in curves]
    return _region_rule(points, weights, rules, base, layer_order)


def spectral_rule(region: PlanarRegion, boundary_order: int, layer_order: int) -> Rule:
    """Gauss-on-Gauss rule: ``boundary_order`` nodes per curve, each with a
    ``layer_order``-point vertical segment.

    Spectrally convergent for integrands analytic on the region; never
    exact by construction.
    """
    _kind(region, "region", PlanarRegion)
    boundary_order, layer_order = _orders(boundary_order, layer_order)
    return _gauss_region_rule(region.curves, boundary_order, layer_order, region_constant_C(region))


def _pe_intermediate_rule(weights, degree: int) -> Rule1D:
    """Intermediate rule on a curve with these ``weights`` making the
    boundary integral exact for integrands of total degree <= ``degree``.

    The rule depends only on the curve's weights, so congruent curves (the
    arcs of a circle, say) share one cached rule.  The cache is keyed on the
    weights as given; ``spectral_pe_rule`` passes weights in standard form,
    so Moebius-rescaled copies of one curve hit the same entry.  ``Rule1D``
    is frozen with read-only arrays; exceptions are not cached, and a hit
    warns what the build warned, the basis conversion of weight_poly_roots.
    """
    rule, said = _weights_rule(weights.tobytes(), degree)
    _warn(*said)
    return rule


@_memo(_PE_CACHE_SIZE)
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


def _standard_form(weights):
    """Stacked (N, m+1) curve weights with end weights 1: each row w becomes
    w_i / (w_0^((m-i)/m) w_m^(i/m)).

    That is the reparametrization s = a t / (a t + 1 - t), a > 0, with the
    weights divided by w_0; trace and orientation stay.  A row with equal
    end weights, or whose rescaled weights are not finite and positive,
    stays as it is, and ``weights`` itself comes back when every row does.
    """
    w0, wm = weights[:, :1], weights[:, -1:]
    moved = (w0 != wm)[:, 0]
    if not moved.any():
        return weights
    m = weights.shape[1] - 1
    with np.errstate(all="ignore"):
        # exponents (m - i) / m and i / m
        scaled = weights / (w0 ** (np.arange(m, -1, -1) / m) * wm ** (np.arange(m + 1) / m))
    scaled[:, ::m] = 1.0
    # NaN compares False, so it stays with inf, zero and negatives
    moved &= ((scaled > 0) & (scaled < np.inf)).all(axis=1)
    return np.where(moved[:, None], scaled, weights) if moved.any() else weights


def spectral_pe_rule(region: PlanarRegion, degree: int) -> Rule:
    """Polynomially exact rule: integrates every monomial x^a y^b with
    a + b <= ``degree`` to rounding level.

    Rational curves get a rational-exact intermediate rule built on their
    weight-polynomial poles at multiplicity degree + 3; polynomial curves
    get plain Gauss.  Each curve's rule is built, and the curve evaluated,
    in standard form (end weights 1), which keeps its trace, so provenance
    ``q`` still counts nodes along it.  Each boundary node carries
    ceil((degree + 1) / 2) antiderivative points.
    """
    _kind(region, "region", PlanarRegion)
    degree = _as_int(degree, "exactness degree", 0)
    return _pe_region_rule(region.curves, degree, region_constant_C(region))


def _pe_curves(curves, degree):
    """The control points of ``curves``, their weights in standard form,
    one stack per degree with no curve built, and their degree-exact
    intermediate rules: the first three arguments of _region_rule."""
    weights = [c.weights for c in curves]
    if any(w[0] != w[-1] for w in weights):
        for members in _groups([w.size for w in weights]):
            std = _standard_form(np.array([weights[i] for i in members]))
            for i, row in zip(members, std):
                weights[i] = row
    return [c.points for c in curves], weights, [_pe_intermediate_rule(w, degree) for w in weights]


def _pe_region_rule(curves, degree, base) -> Rule:
    """The degree-exact rule over ``curves`` from height ``base``: the
    _pe_curves nodes, each with ceil((degree + 1) / 2) layer points."""
    return _region_rule(*_pe_curves(curves, degree), base, max(1, math.ceil((degree + 1) / 2)))
