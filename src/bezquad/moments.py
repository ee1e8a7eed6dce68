"""Geometric moments of regions and solids, and moment-fitted weights.

Moments are monomial integrals ordered graded-lexicographically: total
degree first, then exponents compared left to right, highest first.  For
planar regions each monomial is integrated with a polynomially exact
rule, so the moments are exact up to rounding.  Solids use the closed
z antiderivative, integral_V x^a y^b z^c dV = 1/(c+1) integral_S x^a y^b
z^(c+1) n_z dS, on their z-normal boundary rule (the Gauss-Green route of
Sommariva and Vianello); that rule is not exact on curved trims, so it is
cross-checked against one with doubled orders.

moment_fit_weights solves the classic moment-fitting system: given
prescribed point locations, find the minimum-norm weights reproducing a
moment vector.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import QuadratureError, ValidationError
from .planar import PlanarRegion, spectral_pe_rule
from .quad1d import _as_int
from .surface import boundary_rule
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


def _monomials(points, exps):
    """(n_points, n_exps) matrix of every monomial at every point."""
    exps = np.asarray(exps)
    # powers[d, k] = points[:, d] ** k, each power computed once.  The
    # exponents are a full array, not a broadcast: numpy squares for a
    # broadcast 2.0, which can round differently from its pow loop.
    k = np.arange(exps.max() + 1, dtype=float)
    powers = points.T[:, None, :] ** np.repeat(k[:, None], len(points), axis=1)
    out = powers[0, exps[:, 0]]
    for d in range(1, exps.shape[1]):
        out = out * powers[d, exps[:, d]]
    # C order, as callers' matrix products sum in the order its layout sets
    return np.ascontiguousarray(out.T)


def _region_moments(region: PlanarRegion, p: int) -> MomentVector:
    rule = spectral_pe_rule(region, p)
    return MomentVector(p, 2, rule.weights @ _monomials(rule.points, monomial_exponents(p, 2)))


def _solid_moments(solid: SolidModel, p: int) -> MomentVector:
    if not solid.closed:
        raise ValidationError("solid moments need a solid asserted closed")
    n = (p + 1 + 1) // 2 + 4
    exps = monomial_exponents(p, 3)

    def run(order):
        # the base-height term of the z antiderivative is the flux of
        # x^a y^b e_z through a closed surface, which is zero
        rule = boundary_rule(solid.patches, order, order, "z-normal")
        w_z = rule.weights * rule.points[:, 2]
        return w_z @ _monomials(rule.points, exps) / (np.asarray(exps)[:, 2] + 1.0)

    coarse = run(n)
    fine = run(2 * n)
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
    """Monomial moments of a planar region (exact rules) or a solid
    (doubled-order convergence check)."""
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
