"""Every bezquad warning names the line that called the library.

The paper's pipeline (curve rules, patch maps, z-lifts) raises its
warnings two to four calls below the caller; each must still be filed
under the caller's own file and line, as Python's default filter prints
and de-duplicates them.
"""

import warnings

import numpy as np
import pytest

from bezquad.bezier import bernstein_to_monomial, monomial_to_bernstein
from bezquad.moments import geometric_moments
from bezquad.planar import PlanarRegion, _weights_rule, spectral_pe_rule
from bezquad.quad1d import weight_poly_roots
from bezquad.shapes import circle_region
from bezquad.surface import boundary_rule, surface_integrate
from bezquad.trimfit import fit_trim_curves
from bezquad.volume import SolidModel, volume_rule

from conftest import collapsed_edge_patch, elevated, x_axis_cylinder

# degree-21 arcs: converting their weights to monomials warns
HIGH = PlanarRegion((tuple(elevated(c, 19) for c in circle_region().curves),))
DEGENERATE = collapsed_edge_patch()
SOLID = SolidModel((DEGENERATE,))
TRACE = np.column_stack([np.linspace(0.0, 1.0, 40), np.linspace(0.0, 1.0, 40) ** 2])


def _warm():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        spectral_pe_rule(HIGH, 3)


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
