"""One-dimensional rules: Gauss-Legendre and rational-exact quadrature.

The rational rules integrate, over [0, 1], any function of the form
polynomial + partial fractions on a prescribed pole set.  They are built
by moment matching: collocate the basis on Chebyshev points, integrate
each basis function analytically, and solve for weights.  The solve is
polished with extended-precision residual refinement so the exactness
residual sits near rounding level even for clustered poles.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .bezier import _adopt, _frozen, _items, _kind, bernstein_to_monomial
from .errors import ConditioningError, ValidationError

__all__ = [
    "Rule1D",
    "PoleSet",
    "gauss_legendre",
    "weight_poly_roots",
    "partial_fraction_moment",
    "rational_rule",
    "interval_distance",
]

_COND_LIMIT = 1e13
_MIN_POLE_DISTANCE = 1e-8


@dataclass(frozen=True)
class Rule1D:
    """Finite nodes and weights for an interval; weights sum to its signed
    length."""

    nodes: np.ndarray
    weights: np.ndarray
    interval: tuple[float, float]

    def __post_init__(self):
        object.__setattr__(self, "nodes", _adopt(self.nodes, "nodes", shape=(None,)))
        object.__setattr__(self, "weights", _adopt(self.weights, "weights", shape=self.nodes.shape))
        interval = _adopt(self.interval, "interval", shape=(2,))
        object.__setattr__(self, "interval", tuple(interval.tolist()))

    def __len__(self) -> int:
        return self.nodes.size


def _as_int(value, what: str, least: int | None = None) -> int:
    """``value`` as an int: Python or numpy integers and integral floats
    pass; bools, fractions, non-numbers and values below ``least`` raise
    ValidationError.  Every public count argument passes here once."""
    if isinstance(value, (bool, np.bool_)) or not (
        isinstance(value, numbers.Integral)
        or (isinstance(value, numbers.Real) and float(value).is_integer())
    ):
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    value = int(value)
    if least is not None and value < least:
        raise ValidationError(f"{what} must be >= {least}, got {value}")
    return value


def _orders(*counts):
    """The node counts as integers, each at least 1."""
    return [_as_int(n, "node count", 1) for n in counts]


def _pole(value, name) -> complex:
    """``value`` as a finite complex pole location, or ValidationError at
    ``name`` for a bool, a non-number or a NaN or infinite part."""
    if isinstance(value, bool) or not isinstance(value, numbers.Number):
        raise ValidationError(f"need a complex number, got {type(value).__name__}", name)
    p = complex(value)
    if not cmath.isfinite(p):
        raise ValidationError(f"pole locations must be finite, got {p}", name)
    return p


def interval_distance(p: complex) -> float:
    """Euclidean distance from a complex point to the segment [0, 1]."""
    p = _pole(p, "p")
    x = min(max(p.real, 0.0), 1.0)
    return math.hypot(p.real - x, p.imag)


@dataclass(frozen=True)
class PoleSet:
    """Poles with multiplicities, closed under conjugation.

    ``poles`` is a tuple of (location, multiplicity) pairs, every location
    finite.  Real locations count once; a complex location must appear
    together with its conjugate at equal multiplicity.
    """

    poles: tuple[tuple[complex, int], ...]
    conjugate_closed: bool = field(init=False)

    def __post_init__(self):
        cleaned = []
        for i, pair in enumerate(_items(self.poles, "poles", least=0)):
            # a dict would unpack as its keys, a set in no given order
            items = tuple(pair) if isinstance(pair, (tuple, list, np.ndarray)) else ()
            p, mult = items if len(items) == 2 else (None, None)
            if not isinstance(p, numbers.Number):
                raise ValidationError(f"need (location, multiplicity), got {pair!r}", f"poles[{i}]")
            cleaned.append((_pole(p, f"poles[{i}][0]"), _as_int(mult, "pole multiplicity", 1)))
        object.__setattr__(self, "poles", tuple(cleaned))
        counts = {p: m for p, m in cleaned}
        if len(counts) != len(cleaned):
            raise ValidationError("duplicate pole locations; merge multiplicities instead")
        closed = all(
            p.imag == 0 or counts.get(p.conjugate()) == m for p, m in cleaned
        )
        object.__setattr__(self, "conjugate_closed", closed)

    @classmethod
    def from_roots(cls, roots, multiplier: int = 1) -> "PoleSet":
        """Group repeated root values into (location, multiplicity) pairs."""
        multiplier = _as_int(multiplier, "root multiplier", 1)
        counts: dict[complex, int] = {}
        for i, r in enumerate(_items(roots, "roots", least=0)):
            r = _pole(r, f"roots[{i}]")
            counts[r] = counts.get(r, 0) + multiplier
        ordered = sorted(counts.items(), key=lambda pm: (pm[0].real, pm[0].imag))
        return cls(tuple(ordered))

    @property
    def total_multiplicity(self) -> int:
        return sum(m for _, m in self.poles)


@lru_cache(maxsize=None)
def _leggauss(n: int):
    return tuple(map(_frozen, np.polynomial.legendre.leggauss(n)))


def gauss_legendre(n: int, interval=(0.0, 1.0)) -> Rule1D:
    """n-point Gauss-Legendre rule mapped onto ``interval``.

    The interval may be signed (hi < lo flips the weights) or degenerate
    (hi == lo gives coincident nodes with zero weights); its endpoints must
    be finite.
    """
    n = _as_int(n, "node count", 1)
    lo, hi = _adopt(interval, "interval", shape=(2,)).tolist()
    x, w = _leggauss(n)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return Rule1D(_frozen(mid + half * x), _frozen(half * w), (lo, hi))


def weight_poly_roots(weights) -> list[complex]:
    """Roots of a weight polynomial given in the Bernstein basis.

    Returns the roots in the curve parameter plane, conjugate-paired and
    with numerically coincident roots snapped to a shared value (so a
    double root appears twice with the exact same location).  Near-zero
    leading monomial coefficients reduce the effective degree rather than
    spawning spurious far-field roots.
    """
    weights = _adopt(weights, "weights", shape=(None,))
    if not weights.size:
        raise ValidationError("weights must be a nonempty vector")
    if not weights.any():
        raise ValidationError("weights must not all be zero")
    mono = bernstein_to_monomial(weights)
    scale = np.max(np.abs(mono))
    keep = np.nonzero(np.abs(mono) > 1e-12 * scale)[0]
    if keep.size == 0 or keep[-1] == 0:
        return []
    mono = mono[: keep[-1] + 1]
    raw = np.roots(mono[::-1])

    # np.roots of real coefficients returns exact conjugate pairs, so the
    # upper half-plane roots stand for the pairs
    real = np.abs(raw.imag) <= 1e-10 * (1.0 + np.abs(raw.real))
    reals = raw.real[real].tolist()
    pairs = [complex(r) for r in raw[~real & (raw.imag > 0)]]

    def cluster(values, key):
        values = sorted(values, key=key)
        groups: list[list] = []
        for v in values:
            if groups and abs(v - groups[-1][-1]) <= 1e-6 * max(1.0, abs(v)):
                groups[-1].append(v)
            else:
                groups.append([v])
        out = []
        for g in groups:
            center = sum(g) / len(g)
            out.extend([center] * len(g))
        return out

    roots: list[complex] = [complex(v) for v in cluster(reals, key=float)]
    for v in cluster(pairs, key=lambda z: (z.real, z.imag)):
        roots.append(v)
        roots.append(v.conjugate())
    roots.sort(key=lambda z: (z.real, z.imag))
    return roots


def partial_fraction_moment(pole: complex, order: int) -> complex:
    """Exact integral of (s - pole)^(-order) over s in [0, 1].

    The pole must lie off the closed interval [0, 1].
    """
    p = _pole(pole, "pole")
    order = _as_int(order, "partial-fraction order", 1)
    if interval_distance(p) == 0.0:
        raise ValidationError(f"pole {p} lies on the integration interval")
    if order == 1:
        # both arguments share the sign of Im(-p), so the principal branch
        # of the quotient equals the difference of logs along the segment
        return cmath.log((1.0 - p) / (-p))
    return ((1.0 - p) ** (1 - order) - (-p) ** (1 - order)) / (1 - order)


def _chebyshev_nodes(n: int) -> np.ndarray:
    # first-kind points, mapped to (0, 1); strictly interior
    i = np.arange(n)
    return 0.5 * (1.0 - np.cos((2 * i + 1) * np.pi / (2 * n)))


def _basis(poles: PoleSet, poly_degree: int):
    """Basis descriptors and exact moments for the rational function class."""
    terms: list[tuple] = [("poly", a) for a in range(poly_degree + 1)]
    moments: list[float] = [1.0 / (a + 1) for a in range(poly_degree + 1)]
    for p, mult in sorted(poles.poles, key=lambda pm: (pm[0].real, pm[0].imag)):
        if p.imag < 0:
            continue  # covered through its conjugate partner
        for j in range(1, mult + 1):
            mom = partial_fraction_moment(p, j)
            if p.imag == 0:
                terms.append(("real", p.real, j))
                moments.append(mom.real)
            else:
                # one term, two rows: the real and the imaginary part
                terms.append(("complex", p, j))
                moments += [mom.real, mom.imag]
    return terms, np.array(moments)


def _basis_matrix(terms, nodes):
    """Rows in the order of ``_basis``'s moments: one per real term, two
    (real part, imaginary part) per complex term."""
    x = nodes.astype(np.longdouble)
    xc = x.astype(np.clongdouble)
    rows = []
    for term in terms:
        if term[0] == "poly":
            rows.append(x ** term[1])
        elif term[0] == "real":
            rows.append((x - np.longdouble(term[1])) ** (-term[2]))
        else:  # "complex"
            z = (xc - np.clongdouble(term[1])) ** (-term[2])
            rows += [z.real, z.imag]
    return np.array(rows)


def _scaled_basis(terms, nodes):
    """``_basis_matrix`` with each row divided by its largest magnitude, and those scales."""
    a = _basis_matrix(terms, nodes)
    scale = np.abs(a).max(axis=1)
    return a / scale[:, None], scale


def _solve_refined(a_ld, m_ld):
    """Square solve with extended-precision residual refinement."""
    a = a_ld.astype(float)
    w = np.linalg.solve(a, m_ld.astype(float))
    for _ in range(2):
        r = m_ld - a_ld @ w.astype(np.longdouble)
        w = w + np.linalg.solve(a, r.astype(float))
    return w


def rational_rule(poles: PoleSet, poly_degree: int = 0) -> Rule1D:
    """Rule on [0, 1] exact for partial fractions on ``poles`` plus
    polynomials up to ``poly_degree``.

    Node count is total pole multiplicity + poly_degree + 1.  If the
    square collocation system is too ill-conditioned the rule falls back
    to a least-squares fit on twice as many nodes; if that is still
    hopeless a ConditioningError carries the condition estimate.
    """
    _kind(poles, "poles", PoleSet)
    poly_degree = _as_int(poly_degree, "polynomial degree", 0)
    if not poles.conjugate_closed:
        raise ValidationError("pole set must be closed under conjugation")
    bad = [p for p, _ in poles.poles if interval_distance(p) < _MIN_POLE_DISTANCE]
    if bad:
        raise ValidationError(
            f"poles {bad} are within {_MIN_POLE_DISTANCE:g} of the integration interval"
        )

    terms, moments = _basis(poles, poly_degree)
    n = len(moments)
    m_ld = moments.astype(np.longdouble)

    nodes = _chebyshev_nodes(n)
    a_ld, row_scale = _scaled_basis(terms, nodes)
    cond = np.linalg.cond(a_ld.astype(float))
    if cond <= _COND_LIMIT:
        weights = _solve_refined(a_ld, m_ld / row_scale)
        return Rule1D(nodes, weights, (0.0, 1.0))

    # A huge condition number means part of the basis is numerically
    # indistinguishable from polynomials (poles far from the interval).
    # Plain Gauss with the same node count integrates polynomials to
    # degree 2n-1, so try it and keep it only if its residual on the
    # full basis actually sits at rounding level.
    gauss = gauss_legendre(n, (0.0, 1.0))
    g_ld, g_scale = _scaled_basis(terms, gauss.nodes)
    resid = g_ld @ gauss.weights.astype(np.longdouble) - m_ld / g_scale
    if np.max(np.abs(resid)) <= 1e-12:
        return gauss

    # Last resort: least squares on twice the nodes, polished with
    # iterative refinement.  No condition gate here; acceptance rides on
    # the measured residual, which for equilibrated rows IS the worst
    # basis-moment error of the candidate rule.
    nodes = _chebyshev_nodes(2 * n)
    a_ld, row_scale = _scaled_basis(terms, nodes)
    a = a_ld.astype(float)
    m_eq = m_ld / row_scale
    weights = np.linalg.lstsq(a, m_eq.astype(float), rcond=None)[0].astype(np.longdouble)
    for _ in range(3):
        r = m_eq - a_ld @ weights.astype(float)
        if np.max(np.abs(r)) <= 1e-13:
            break
        weights = weights + np.linalg.lstsq(a, r.astype(float), rcond=None)[0]
    final = weights.astype(float)
    if np.max(np.abs(m_eq - a_ld @ final)) <= 1e-12:
        return Rule1D(nodes, final, (0.0, 1.0))
    sv = np.linalg.svd(a, compute_uv=False)
    cond2 = sv[0] / sv[-1] if sv[-1] > 0 else np.inf
    raise ConditioningError(
        "rational rule collocation system is numerically singular",
        condition_estimate=float(cond2),
    )
