"""Geometric moments of regions and solids, and moment-fitted weights.

Moments are monomial integrals ordered graded-lexicographically: total
degree first, then exponents compared left to right, highest first.  For
planar regions each monomial is integrated with a polynomially exact
rule, so the moments are exact up to rounding.  Solids use the closed
z antiderivative, integral_V x^a y^b z^c dV = 1/(c+1) integral_S x^a y^b
z^(c+1) n_z dS, on a z-normal boundary rule (the Gauss-Green route of
Sommariva and Vianello).  When every patch is polynomial or carries no
z-flux, that integrand is a polynomial in each patch's (u, v), and one
rule sized by the degree integrates it exactly, trims included; the
sizing is surface._exact_z_rule, described in the surface module.  A solid
with a rational patch that carries z-flux gets spectral rules instead,
cross-checked against doubled orders.  Every moment vector is summed from
one power table per coordinate, with one small matrix product.

moment_fit_weights solves the classic moment-fitting system: given
prescribed point locations, find the minimum-norm weights reproducing a
moment vector.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import QuadratureError, ValidationError
from .planar import PlanarRegion, spectral_pe_rule
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
    values must be finite."""

    degree: int
    dim: int
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=float).ravel()
        expected = len(monomial_exponents(self.degree, self.dim))
        if vals.size != expected:
            raise ValidationError(
                f"degree {self.degree} in {self.dim}D needs {expected} moments, got {vals.size}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValidationError("moments must be finite")
        vals.flags.writeable = False
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
    """The exponents of degree <= p as arrays for _moment_sums: the
    distinct exponents of all but the last coordinate, and for each
    monomial its row among them and its last exponent."""
    exps = monomial_exponents(p, dim)
    lead = {}
    row = [lead.setdefault(e[:-1], len(lead)) for e in exps]
    plan = tuple(np.array(a) for a in (list(lead), row, [e[-1] for e in exps]))
    for a in plan:
        a.flags.writeable = False  # shared by every caller through the cache
    return plan


def _moment_sums(points, weights, p):
    """sum(weights * x^a y^b [z^c]) for every monomial of total degree <= p,
    graded-lex ordered.  The monomials of all but the last coordinate are
    weighted rows, and one small matrix product with the last coordinate's
    power table sums them all: (p+1) x (p+1) in 2D."""
    dim = points.shape[1]
    lead, row, last = _sum_plan(p, dim)
    powers = _power_table(points, p)
    rows = weights * powers[0, lead[:, 0]]
    for d in range(1, dim - 1):
        rows *= powers[d, lead[:, d]]
    return (rows @ powers[-1].T)[row, last]


def _region_moments(region: PlanarRegion, p: int) -> MomentVector:
    rule = spectral_pe_rule(region, p)
    return MomentVector(p, 2, _moment_sums(rule.points, rule.weights, p))


def _solid_moments(solid: SolidModel, p: int) -> MomentVector:
    if not solid.closed:
        raise ValidationError("solid moments need a solid asserted closed")
    exps = monomial_exponents(p, 3)

    def z_moments(rule):
        # the base-height term of the z antiderivative is the flux of
        # x^a y^b e_z through a closed surface, which is zero
        w_z = rule.weights * rule.points[:, 2]
        return _moment_sums(rule.points, w_z, p) / (np.asarray(exps)[:, 2] + 1.0)

    exact = _exact_z_rule(solid.patches, p)
    if exact is not None:
        return MomentVector(p, 3, z_moments(exact))
    # a rational patch with z-flux: spectral rules, cross-checked
    n = (p + 1 + 1) // 2 + 4
    coarse = z_moments(boundary_rule(solid.patches, n, n, "z-normal"))
    fine = z_moments(boundary_rule(solid.patches, 2 * n, 2 * n, "z-normal"))
    drift = np.abs(fine - coarse) / np.maximum(1.0, np.abs(fine))
    if np.max(drift) > _DOUBLING_TOL:
        i = int(np.argmax(drift))
        warnings.warn(
            f"moment {exps[i]} moved {drift[i]:.2e} when doubling quadrature orders; "
            "treat results near that degree with care",
            stacklevel=3,
        )
    return MomentVector(p, 3, fine)


def geometric_moments(model, p: int) -> MomentVector:
    """Monomial moments of a planar region or a solid, through total
    degree ``p``.

    Regions and solids whose patches are all polynomial or free of z-flux
    get rules exact to rounding.  A solid with a rational patch that carries
    z-flux is integrated at two spectral orders; the finer result is
    returned, with a UserWarning when a moment moved by more than 1e-11."""
    p = _as_int(p, "max degree", 0)
    if isinstance(model, PlanarRegion):
        return _region_moments(model, p)
    if isinstance(model, SolidModel):
        return _solid_moments(model, p)
    raise ValidationError(f"cannot take moments of {type(model).__name__}")


def moment_fit_weights(points, moments: MomentVector, p: int | None = None):
    """Minimum-norm weights at prescribed points reproducing ``moments``.

    Returns (weights, residual).  ``p`` trims the moment vector to a
    lower degree; the graded order makes that a prefix.  A residual above
    1e-8 times the moment norm means the points cannot carry the moments
    and raises instead of returning junk weights.
    """
    p = moments.degree if p is None else _as_int(p, "max degree", 0)
    if p > moments.degree:
        raise ValidationError(f"p={p} exceeds the moment vector degree {moments.degree}")
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != moments.dim:
        raise ValidationError(f"points must be (n, {moments.dim}) for these moments")
    if not np.all(np.isfinite(pts)):
        raise ValidationError("points must be finite")
    exps = monomial_exponents(p, moments.dim)
    m = moments.values[: len(exps)]
    if pts.shape[0] < len(exps):
        raise ValidationError(
            f"{len(exps)} moments need at least that many points, got {pts.shape[0]}"
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
            raise QuadratureError(f"moment fit failed: {exc}") from None
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
