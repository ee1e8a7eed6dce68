"""Geometric moments of regions and solids, and moment-fitted weights.

Moments are monomial integrals ordered graded-lexicographically: total
degree first, then exponents compared left to right, highest first.

Regions and solids share one formula: with l the last coordinate (y or
z), integral x^a [y^b] l^c = 1/(c+1) times the flux of x^a [y^b] l^(c+1)
e_l through the boundary (Gauss-Green, the route of Sommariva and
Vianello; the base-height term of the antiderivative is a flux through a
closed boundary, so zero).  _flux_moments sums it over boundary nodes
with one power table per coordinate and one small matrix product.  A
region's nodes are spectral_pe_rule's before their lift, weighted by
-dx/ds: exact for x^a y^(b+1) dx with a + b <= p, with no lift point.  A
solid's are a z-normal boundary rule, exact when every patch is
polynomial or free of z-flux (sized by surface._exact_z_rule, described
in the surface module), else spectral and cross-checked against doubled
orders.

moment_fit_weights solves the classic moment-fitting system: given
prescribed point locations, find the minimum-norm weights reproducing a
moment vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bezier import _adopt, _built, _frozen, _kind, _warn
from .errors import QuadratureError, ValidationError
from .planar import PlanarRegion, _boundary_nodes, _pe_curves
from .quad1d import _as_int
from .surface import _exact_z_rule, boundary_rule
from .volume import SolidModel

__all__ = [
    "MomentVector",
    "monomial_exponents",
    "geometric_moments",
    "moment_fit_weights",
]

_DOUBLING_TOL = 1e-11


def monomial_exponents(p: int, dim: int):
    """Exponent tuples of total degree <= p in graded-lex order."""
    dim = _as_int(dim, "dim")
    if dim not in (2, 3):
        raise ValidationError(f"dim must be 2 or 3, got {dim}")
    p = _as_int(p, "max degree", 0)
    out = []
    for d in range(p + 1):
        if dim == 2:
            out.extend((a, d - a) for a in range(d, -1, -1))
        else:
            for a in range(d, -1, -1):
                out.extend((a, b, d - a - b) for b in range(d - a, -1, -1))
    return out


@dataclass(frozen=True)
class MomentVector:
    """Monomial moments up to a total degree, graded-lex ordered; the
    degree and dim are ints and the values must be finite."""

    degree: int
    dim: int
    values: np.ndarray

    def __post_init__(self):
        vals = _adopt(self.values, "values", shape=(len(self.exponents),))
        object.__setattr__(self, "degree", int(self.degree))
        object.__setattr__(self, "dim", int(self.dim))
        object.__setattr__(self, "values", vals)

    @property
    def exponents(self):
        return monomial_exponents(self.degree, self.dim)

    def __len__(self) -> int:
        return self.values.size


def _power_table(points, p):
    """powers[d, k] = points[:, d] ** k for k <= p, by repeated
    multiplication: libm pow is many times slower, on negative bases most."""
    powers = np.empty((points.shape[1], p + 1, len(points)))
    powers[:, 0] = 1.0
    for k in range(1, p + 1):
        np.multiply(powers[:, k - 1], points.T, out=powers[:, k])
    return powers


def _monomials(points, exps):
    """(n_points, n_exps) matrix of every monomial at every point."""
    exps = np.asarray(exps)
    powers = _power_table(points, int(exps.max()))
    out = powers[0, exps[:, 0]]
    for d in range(1, exps.shape[1]):
        out = out * powers[d, exps[:, d]]
    # C order, as callers' matrix products sum in the order its layout sets
    return np.ascontiguousarray(out.T)


@lru_cache(maxsize=64)
def _sum_plan(p, dim):
    """The exponents of degree <= p as arrays for _flux_moments: the
    distinct exponents of all but the last coordinate, and for each
    monomial its row among them and its last exponent."""
    exps = monomial_exponents(p, dim)
    lead = {}
    row = [lead.setdefault(e[:-1], len(lead)) for e in exps]
    # read-only: shared by every caller through the cache
    return tuple(_frozen(np.array(a)) for a in (list(lead), row, [e[-1] for e in exps]))


def _flux_moments(points, weights, p):
    """sum(weights * x^a [y^b] l^(c+1) / (c+1)), l the last coordinate, for
    every monomial x^a [y^b] l^c of total degree <= p, graded-lex ordered,
    by one (p+1) x (p+1) matrix product in 2D.  A sum that overflows is
    left inf or NaN, for geometric_moments to refuse."""
    dim = points.shape[1]
    lead, row, last = _sum_plan(p, dim)
    with np.errstate(over="ignore", invalid="ignore"):
        powers = _power_table(points, p)
        rows = weights * points[:, -1] * powers[0, lead[:, 0]]
        for d in range(1, dim - 1):
            rows *= powers[d, lead[:, d]]
        return (rows @ powers[-1].T)[row, last] / (last + 1.0)


def _region_moments(region: PlanarRegion, p: int) -> np.ndarray:
    xy, _, w, factor = _boundary_nodes(*_pe_curves(region.curves, p))
    with np.errstate(over="ignore", invalid="ignore"):
        return _flux_moments(xy.T, w * factor, p)


def _solid_moments(solid: SolidModel, p: int) -> np.ndarray:
    if not solid.closed:
        raise ValidationError("solid moments need a solid asserted closed")
    exact = _exact_z_rule(solid.patches, p)
    if exact is not None:
        return _flux_moments(exact.points, exact.weights, p)
    # a rational patch with z-flux: spectral rules, cross-checked
    n = (p + 1 + 1) // 2 + 4
    rules = (boundary_rule(solid.patches, k, k, "z-normal") for k in (n, 2 * n))
    coarse, fine = (_flux_moments(rule.points, rule.weights, p) for rule in rules)
    with np.errstate(invalid="ignore"):  # an overflowed moment, refused by the caller
        drift = np.abs(fine - coarse) / np.maximum(1.0, np.abs(fine))
    if np.max(drift) > _DOUBLING_TOL:
        i = int(np.argmax(drift))
        exps = monomial_exponents(p, 3)
        _warn(
            f"moment {exps[i]} moved {drift[i]:.2e} when doubling quadrature orders; "
            "treat results near that degree with care"
        )
    return fine


def geometric_moments(model, p: int) -> MomentVector:
    """Monomial moments of a planar region or a solid, through total
    degree ``p``.

    Regions and solids whose patches are all polynomial or free of z-flux
    get rules exact to rounding.  A solid with a rational patch that carries
    z-flux is integrated at two spectral orders; the finer result is
    returned, with a UserWarning when a moment moved by more than 1e-11."""
    _kind(model, "model", (PlanarRegion, SolidModel))
    p = _as_int(p, "max degree", 0)
    dim, moments = (2, _region_moments) if isinstance(model, PlanarRegion) else (3, _solid_moments)
    # summed from finite geometry: a moment that is not finite overflowed
    return _built(MomentVector, p, dim, moments(model, p), what="the moment sums")


def moment_fit_weights(points, moments: MomentVector, p: int | None = None):
    """Minimum-norm weights at prescribed points reproducing ``moments``.

    Returns (weights, residual).  ``p`` trims the moment vector to a
    lower degree; the graded order makes that a prefix.  A residual above
    1e-8 times the moment norm means the points cannot carry the moments
    and raises instead of returning junk weights.
    """
    _kind(moments, "moments", MomentVector)
    p = moments.degree if p is None else _as_int(p, "max degree", 0)
    if p > moments.degree:
        raise ValidationError(f"p={p} exceeds the moment vector degree {moments.degree}")
    pts = _adopt(points, "points", shape=(None, moments.dim))
    exps = monomial_exponents(p, moments.dim)
    m = moments.values[: len(exps)]
    if pts.shape[0] < len(exps):
        raise ValidationError(
            f"{len(exps)} moments need at least that many points, got {pts.shape[0]}", "points"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        vander = _monomials(pts, exps).T
        if not np.isfinite(vander).all():
            raise QuadratureError(f"monomials through degree {p} overflow at these points")
        # The fit, its residual and the bound run on moments divided by a
        # power of two near max|m|: they cannot overflow, and the division
        # is exact, so weights that fit in float64 keep their bits.
        unit = float(np.ldexp(1.0, np.frexp(np.abs(m).max())[1] - 1))
        rel_m = m / unit
        try:
            rel_weights, *_ = np.linalg.lstsq(vander, rel_m, rcond=None)
        except np.linalg.LinAlgError as exc:
            # LAPACK's SVD can fail to converge on a well-posed system; the
            # minimum-norm solve through the QR factors of vander.T remains
            try:
                q, r = np.linalg.qr(vander.T)
                rel_weights = q @ np.linalg.solve(r.T, rel_m)
            except np.linalg.LinAlgError as again:
                raise QuadratureError(f"moment fit failed: {exc}, then {again}") from None
        rel_residual = float(np.linalg.norm(vander @ rel_weights - rel_m))
        rel_scale = float(np.linalg.norm(rel_m))
        weights = rel_weights * unit
    residual, scale = rel_residual * unit, rel_scale * unit
    # written so that a NaN or infinite residual fails too
    if not rel_residual <= 1e-8 * max(rel_scale, 1e-300):
        raise QuadratureError(
            f"moment fit left residual {residual:.3e} against moment norm {scale:.3e}; "
            "the point set cannot reproduce these moments"
        )
    if not np.isfinite(weights).all():
        raise QuadratureError(
            f"moment fit weights overflow float64: the largest is "
            f"{np.abs(rel_weights).max():.3e} times {unit:.3e}"
        )
    return weights, residual
