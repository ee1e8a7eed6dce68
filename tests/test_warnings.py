"""Every bezquad warning names the line that called the library, and no
numpy RuntimeWarning leaves it.

The paper's pipeline (curve rules, patch maps, z-lifts) raises its
warnings two to four calls below the caller; each must still be filed
under the caller's own file and line, as Python's default filter prints
and de-duplicates them.  Geometry whose values overflow float64 on the
way is evaluated quietly, inf or NaN, or refused as an overflow.
"""

import warnings
from functools import partial

import numpy as np
import pytest

from bezquad.bezier import (
    RationalBezierCurve,
    RationalBezierPatch,
    bernstein_to_monomial,
    eval_curve,
    eval_curve_derivative,
    eval_patch,
    monomial_to_bernstein,
    patch_normal,
)
from bezquad.errors import ValidationError
from bezquad.moments import geometric_moments
from bezquad.planar import PlanarRegion, _weights_rule, spectral_pe_rule, spectral_rule
from bezquad.quad1d import weight_poly_roots
from bezquad.shapes import box_solid, circle_region, polygon_loop, square_region
from bezquad.surface import TrimLoop, TrimmedPatch, _trim_part, boundary_rule, surface_integrate
from bezquad.trimfit import fit_trim_curves
from bezquad.volume import SolidModel, volume_rule

from conftest import collapsed_edge_patch, elevated, x_axis_cylinder

# degree-21 arcs: converting their weights to monomials warns
HIGH = PlanarRegion((tuple(elevated(c, 19) for c in circle_region().curves),))
DEGENERATE = collapsed_edge_patch()
SOLID = SolidModel((DEGENERATE,))
TRACE = np.column_stack([np.linspace(0.0, 1.0, 40), np.linspace(0.0, 1.0, 40) ** 2])


# a box whose face 0 the degree-21 circle trims
_BOX = box_solid().patches
_HIGH_TRIM = TrimLoop(tuple(elevated(c, 19) for c in circle_region((0.5, 0.5), 0.5).curves))
TRIMMED_BOX = SolidModel((TrimmedPatch(_BOX[0].patch, (_HIGH_TRIM,)), *_BOX[1:]))


def _warm():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        spectral_pe_rule(HIGH, 3)


def _cold_trim():
    _trim_part.cache_clear()
    _weights_rule.cache_clear()


def _warm_trim():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        geometric_moments(TRIMMED_BOX, 2)


# name: (preparation, call); each call sits on its lambda's own line
CASES = {
    "surface_integrate": (None, lambda: surface_integrate([DEGENERATE], lambda x, y, z: x, 1, 1)),
    "volume_rule": (None, lambda: volume_rule(SOLID, 1, 1)),
    "spectral_pe_rule cold": (_weights_rule.cache_clear, lambda: spectral_pe_rule(HIGH, 3)),
    "spectral_pe_rule warm": (_warm, lambda: spectral_pe_rule(HIGH, 3)),
    "geometric_moments region": (_weights_rule.cache_clear, lambda: geometric_moments(HIGH, 2)),
    "weight_poly_roots": (None, lambda: weight_poly_roots(np.linspace(1.0, 2.0, 22))),
    "fit_trim_curves": (None, lambda: fit_trim_curves(TRACE, 1, 21)),
    "boundary_rule": (None, lambda: boundary_rule([DEGENERATE], 1, 1)),
    "bernstein_to_monomial": (None, lambda: bernstein_to_monomial(np.ones(25))),
    "monomial_to_bernstein": (None, lambda: monomial_to_bernstein(np.ones(25))),
    "geometric_moments solid": (None, lambda: geometric_moments(x_axis_cylinder(), 2)),
    "geometric_moments trimmed cold": (_cold_trim, lambda: geometric_moments(TRIMMED_BOX, 2)),
    "geometric_moments trimmed warm": (_warm_trim, lambda: geometric_moments(TRIMMED_BOX, 2)),
}


@pytest.mark.parametrize("name", CASES)
def test_warning_names_the_calling_line(name):
    prepare, call = CASES[name]
    if prepare is not None:
        prepare()
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        call()
    assert seen and all(w.category is UserWarning for w in seen)
    assert {(w.filename, w.lineno) for w in seen} == {(__file__, call.__code__.co_firstlineno)}


def test_warm_trim_memo_warns_as_a_cold_build():
    # a memo hit converts no basis, so it repeats what the build warned
    said = []
    for name in ("geometric_moments trimmed cold", "geometric_moments trimmed warm"):
        prepare, call = CASES[name]
        prepare()
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            call()
        said.append([str(w.message) for w in seen])
    assert said[0] == said[1] == 4 * ["basis conversion at degree 21 amplifies rounding by roughly 10^10"]


# Finite geometry whose values overflow float64 on the way: control points
# that span more than float64, a control point of 1e308 with weight 2, whose
# lifted w x is beyond it, and at degree 4 moments beyond it.  Each model
# is (model, degree or order).
_HEAVY_CURVE = RationalBezierCurve([(1.0, 0.0), (1e308, 1e308), (0.0, 1.0)], [1.0, 2.0, 1.0])
_HEAVY_PATCH = RationalBezierPatch(
    [[(0, 0, 0), (0, 1, 0)], [(1, 0, 0), (1e308, 1e308, 1e308)]], [[1.0, 1.0], [1.0, 2.0]]
)
_SPAN_SQUARE = square_region((-1e308,) * 2, (1e308,) * 2)
_SPAN_BOX = box_solid((-1e308,) * 3, (1e308,) * 3)
CURVES = {"span": _SPAN_SQUARE.curves[0], "heavy": _HEAVY_CURVE}
PATCHES = {"span": _SPAN_BOX.patches[0].patch, "heavy": _HEAVY_PATCH}
REGIONS = {
    "span": (_SPAN_SQUARE, 2),
    "heavy": (PlanarRegion(((_HEAVY_CURVE, *polygon_loop([(0, 1), (0, 0), (1, 0)])[:2]),)), 2),
    "1e100": (square_region((0, 0), (1e100, 1e100)), 4),
}
SOLIDS = {
    "span": (_SPAN_BOX, 2),
    "heavy": (SolidModel((_HEAVY_PATCH,)), 2),
    "1e60": (box_solid((0, 0, 0), (1e60,) * 3), 4),
}
_S, _U, _V = np.array([0.0, 0.3, 1.0]), np.array([0.0, 0.4, 1.0]), np.array([1.0, 0.6, 0.0])
EVALUATORS, BUILDERS = {}, {}
for k, curve in CURVES.items():
    for f in (eval_curve, eval_curve_derivative):
        EVALUATORS[f"{f.__name__}-{k}"] = partial(f, curve, _S)
for k, patch in PATCHES.items():
    for f in (eval_patch, patch_normal):
        EVALUATORS[f"{f.__name__}-{k}"] = partial(f, patch, _U, _V)
for k, (region, p) in REGIONS.items():
    BUILDERS[f"spectral_rule-{k}"] = partial(spectral_rule, region, p, p)
    BUILDERS[f"spectral_pe_rule-{k}"] = partial(spectral_pe_rule, region, p)
    BUILDERS[f"geometric_moments-region-{k}"] = partial(geometric_moments, region, p)
for k, (solid, p) in SOLIDS.items():
    for mode in ("full-normal", "z-normal"):
        BUILDERS[f"boundary_rule-{mode}-{k}"] = partial(boundary_rule, solid.patches, p, p, mode)
    BUILDERS[f"volume_rule-{k}"] = partial(volume_rule, solid, p, p)
    BUILDERS[f"geometric_moments-solid-{k}"] = partial(geometric_moments, solid, p)


@pytest.mark.parametrize("name", list(EVALUATORS) + list(BUILDERS))
def test_no_runtime_warning_leaves_an_overflow(name):
    # an evaluator returns its values, inf or NaN where they overflowed; a
    # builder returns a finite rule or moments, or refuses them as overflowed
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if name in EVALUATORS:
            assert EVALUATORS[name]().shape[0] == 3  # one row per parameter
            return
        try:
            BUILDERS[name]()
        except ValidationError as exc:
            assert "overflowed float64: " in str(exc)


@pytest.mark.parametrize(
    "model, p, at",
    [
        (REGIONS["1e100"][0], 4, "values[3]"),
        (SOLIDS["1e60"][0], 4, "values[10]"),
        # the flux sum of a circle of radius 1e155, whose area is 3e310
        (circle_region((0, 0), 1e155), 2, "values[0]"),
        (_SPAN_SQUARE, 2, "values[0]"),
    ],
    ids=["square", "box", "circle", "span"],
)
def test_moments_that_overflow_are_refused_as_one(model, p, at):
    # the nodes are finite; monomials or flux weights over them are not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError) as err:
            geometric_moments(model, p)
    assert str(err.value) == f"the moment sums overflowed float64: {at}: must be finite, got inf"


# finite input whose converted coefficients, circle control points or
# chord lengths are beyond float64
OVERFLOWS = {
    "bernstein_to_monomial": (
        lambda: bernstein_to_monomial([1e308, -1e308, 1e308]),
        "the basis change overflowed float64: coeffs[1]: must be finite, got -inf",
    ),
    "monomial_to_bernstein": (
        lambda: monomial_to_bernstein([1e308, 1e308, 1e308]),
        "the basis change overflowed float64: coeffs[2]: must be finite, got inf",
    ),
    "circle_region": (
        lambda: circle_region((1e308, 0), 1e308),
        "the circle's control points overflowed float64: center (1e+308, 0.0) and radius 1e+308",
    ),
    "fit_trim_curves": (
        lambda: fit_trim_curves((2 * TRACE - 1) * 1e308, 3),
        "the chord lengths overflowed float64: points[0] to points[28]",
    ),
}


@pytest.mark.parametrize("name", OVERFLOWS)
def test_overflow_is_refused_as_one(name):
    call, message = OVERFLOWS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError) as err:
            call()
    assert str(err.value) == message


def test_trim_samples_whose_squares_underflow_keep_their_lengths():
    # steps near 1e-300 have squares below the smallest subnormal: their
    # plain norm is 0, which once refused the samples as coinciding
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tiny = fit_trim_curves((2 * TRACE - 1) * 1e-300, 3)
    unit = fit_trim_curves(2 * TRACE - 1, 3)
    assert len(tiny) == len(unit) == 3
    for a, b in zip(tiny, unit):
        assert np.allclose(a.points * 1e300, b.points, rtol=0, atol=1e-14)
