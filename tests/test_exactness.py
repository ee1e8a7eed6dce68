"""The exactness table: one row per library-level exactness claim.

A row is (construction, model, degrees or orders, bound, warning).  The
construction runs on the model at each entry of the third field, through
``apply``; each value must meet |got - exact| / max(1, |exact|) <= bound,
so rounding in a zero moment is not read as a large error.  With warning
None, any warning fails the row.

Closed forms come from ``benchmarks/exact.py`` only (conftest's ``exact``),
and a new one goes there through a separate benchmark change.  Until then,
a reference that needs bezquad, such as a prism's moments from the planar
PE rule, goes in conftest.
"""

import contextlib
import math
import warnings
from collections import namedtuple

import numpy as np
import pytest

from bezquad import SolidModel, TrimmedPatch, apply, boundary_rule, geometric_moments, volume_rule
from bezquad.bezier import RationalBezierCurve
from bezquad.io import bundled, load_solid
from bezquad.moments import monomial_exponents
from bezquad.planar import PlanarRegion, spectral_pe_rule
from bezquad.shapes import annulus_region, box_solid, circle_region, cylinder_solid, square_region
from bezquad.surface import parametric_area_rule, unit_square_loop

from conftest import elevated_box, exact, flat_unit_patch, quarter_disk_loop, triangle_loop, x_axis_cylinder

# a model's geometry, its moments m(a, b[, c]) and, for a surface, the
# integral of z^c over it
Model = namedtuple("Model", "shape moment surface", defaults=(None,))

UNIT = ((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
ANNULUS = (0.6, -0.4, 1.2, 0.5)  # cx, cy, outer, inner
DISK = (0.86, 1.11, 0.29)  # cx, cy, r: a disk of the planar benchmark's size
QUARTER = exact.unit_disk_moment(0, 0) / 4
QUARTER_PATCH = SolidModel([TrimmedPatch(flat_unit_patch(), (quarter_disk_loop(),))], closed=False)


def _rescaled(region, cs):
    """``region`` with the weights of its k-th arc scaled by (1, c, c^2),
    c = cs[k]: the same trace, parametrized by a Moebius map."""
    cs = iter(cs)
    arc = lambda a: RationalBezierCurve(a.points, a.weights * next(cs) ** np.arange(3))
    return PlanarRegion(tuple(tuple(map(arc, loop)) for loop in region.loops))


def _box(lo, hi):
    box = lambda *e: exact.box_moment(*e, lo, hi)
    return Model(box_solid(lo, hi), box, lambda c: exact.box_surface_zpow(c, lo, hi))


def _elevated_box(lo, hi):
    return Model(elevated_box(lo, hi, 2, 4), lambda *e: exact.box_moment(*e, lo, hi))


def _cylinder(shape, cx, cy, r, z0, h):
    cylinder = lambda *e: exact.cylinder_moment(*e, cx, cy, r, z0, h)
    return Model(shape, cylinder, lambda c: exact.cylinder_surface_zpow(c, r, z0, h))


MODELS = {
    "disk": Model(circle_region(), exact.unit_disk_moment),
    "annulus": Model(
        annulus_region(ANNULUS[:2], *ANNULUS[2:]), lambda a, b: exact.annulus_moment(a, b, *ANNULUS)
    ),
    "rescaled annulus": Model(
        _rescaled(annulus_region(ANNULUS[:2], *ANNULUS[2:]), (0.5, 2.0, 0.7, 1.6, 0.64, 1.6, 0.66, 1.04)),
        lambda a, b: exact.annulus_moment(a, b, *ANNULUS),
    ),
    "off-centre disk": Model(
        circle_region(DISK[:2], DISK[2]), lambda a, b: exact.disk_moment(a, b, *DISK)
    ),
    "square": Model(square_region(), lambda a, b: exact.box_moment(a, b, 0, *UNIT)),
    "cube": _box(*UNIT),
    "box": _box((0.5, 1.0, 2.0), (1.5, 2.5, 3.25)),  # no corner at the origin or at z = 0
    # the box's flat faces stored as bidegree (2, 4) nets
    "elevated box": _elevated_box((0.5, 1.0, 2.0), (1.5, 2.5, 3.25)),
    "cylinder": _cylinder(cylinder_solid((0.3, -0.7), 1.5, -0.4, 2.0), 0.3, -0.7, 1.5, -0.4, 2.0),
    "bundled cylinder": _cylinder(load_solid(bundled("cylinder.solid.json")), 0, 0, 1, 0, 1),
    # (x, y, z) -> (z, y, -x), so x^a y^b z^c is (-1)^c z^a y^b x^c upright
    "x-axis cylinder": Model(
        x_axis_cylinder(), lambda a, b, c: (-1) ** c * exact.cylinder_moment(c, b, a, 0, 0, 1, 0, 1)
    ),
    # trim loops in the parameter square, with their areas
    "square loop": Model(unit_square_loop(), lambda a, b: 1.0),
    "triangle loop": Model(triangle_loop(), lambda a, b: 0.5),
    "quarter-disk loop": Model(quarter_disk_loop(), lambda a, b: QUARTER),
    # the unit square at z = 0 trimmed to the quarter disk, an open surface
    "quarter-disk patch": Model(QUARTER_PATCH, None, lambda c: QUARTER * 0**c),
}

SOLID = monomial_exponents(2, 3)


def _sums(rule, exps):
    """The rule applied to x^a y^b [z^c] for each exponent tuple."""
    return [apply(rule, lambda *xyz: math.prod(v**k for v, k in zip(xyz, e))) for e in exps]


def _pe_rule(shape, k):
    exps = monomial_exponents(k, 2)
    return _sums(spectral_pe_rule(shape, k), exps), exps


def _moments(shape, p):
    mv = geometric_moments(shape, p)
    return mv.values, mv.exponents


def _volume_rule(shape, orders):
    return _sums(volume_rule(shape, *orders), SOLID), SOLID


def _full_normal(shape, orders):
    return _sums(boundary_rule(shape.patches, *orders), [(0, 0, c) for c in range(3)]), [(0,), (1,), (2,)]


def _z_normal(shape, orders):
    # Gauss-Green: x^a y^b z^(c+1) / (c+1) against n_z dS is the moment
    sums = _sums(boundary_rule(shape.patches, *orders, "z-normal"), [(a, b, c + 1) for a, b, c in SOLID])
    return [s / (c + 1) for s, (_, _, c) in zip(sums, SOLID)], SOLID


def _area(shape, orders):
    return _sums(parametric_area_rule([shape], *orders), [(0, 0)]), [(0, 0)]


# name: (construction, which reference of the model it is checked against)
CONSTRUCTIONS = {
    "spectral_pe_rule": (_pe_rule, "moment"),
    "geometric_moments": (_moments, "moment"),
    "volume_rule": (_volume_rule, "moment"),
    "boundary_rule": (_full_normal, "surface"),
    "boundary_rule z-normal": (_z_normal, "moment"),
    "parametric_area_rule": (_area, "moment"),
}

# (construction, model, degrees or orders, bound, warning)
ROWS = [
    ("spectral_pe_rule", "disk", range(17), 1e-13, None),
    ("spectral_pe_rule", "annulus", range(11), 1e-13, None),
    ("spectral_pe_rule", "square", range(9), 1e-13, None),
    ("geometric_moments", "disk", range(9), 1e-13, None),
    ("geometric_moments", "annulus", range(9), 1e-13, None),
    ("geometric_moments", "square", range(9), 1e-13, None),
    # the flux sum over the PE rule's boundary nodes, through degree 16
    ("geometric_moments", "disk", range(9, 17), 1e-13, None),
    ("geometric_moments", "annulus", range(9, 17), 1e-13, None),
    ("geometric_moments", "square", range(9, 17), 1e-13, None),
    ("geometric_moments", "off-centre disk", range(17), 1e-13, None),
    ("geometric_moments", "rescaled annulus", range(17), 1e-13, None),
    ("geometric_moments", "cube", range(9), 1e-13, None),
    ("geometric_moments", "box", range(9), 1e-13, None),
    ("geometric_moments", "elevated box", range(9), 1e-13, None),
    ("geometric_moments", "cylinder", range(9), 1e-13, None),
    ("geometric_moments", "bundled cylinder", range(9), 1e-13, None),
    # rational sides with z-flux take the spectral path and its doubling check
    ("geometric_moments", "x-axis cylinder", [2], 1e-11, r"moved .* doubling"),
    ("geometric_moments", "x-axis cylinder", [6], 1e-11, r"moved .* doubling"),
    ("volume_rule", "cube", [(4, 4)], 1e-13, None),
    ("volume_rule", "box", [(4, 4)], 1e-13, None),
    ("boundary_rule", "cube", [(4, 4)], 1e-13, None),
    ("boundary_rule", "box", [(4, 4)], 1e-13, None),
    ("boundary_rule", "bundled cylinder", [(12, 12)], 1e-13, None),
    ("boundary_rule z-normal", "cube", [(4, 4)], 1e-13, None),
    ("parametric_area_rule", "square loop", [(4, 4)], 1e-13, None),
    ("parametric_area_rule", "triangle loop", [(6, 6)], 1e-13, None),
    # spectral, not exact: a rule over a circular trim converges with its order
    ("volume_rule", "bundled cylinder", [(12, 12)], 3e-11, None),
    ("boundary_rule z-normal", "cylinder", [(12, 12)], 3e-11, None),
    ("boundary_rule", "quarter-disk patch", [(12, 12)], 1e-12, None),
    ("parametric_area_rule", "quarter-disk loop", [(12, 12)], 1e-12, None),
]


@pytest.mark.parametrize(
    "construction, model, runs, bound, warning", ROWS, ids=[f"{c}-{m}-{list(r)[-1]}" for c, m, r, *_ in ROWS]
)
def test_exactness(construction, model, runs, bound, warning):
    build, reference = CONSTRUCTIONS[construction]
    model = MODELS[model]
    for n in runs:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.warns(UserWarning, match=warning) if warning else contextlib.nullcontext():
                got, exps = build(model.shape, n)
        want = np.array([getattr(model, reference)(*e) for e in exps])
        err = np.abs(np.asarray(got) - want) / np.maximum(1.0, np.abs(want))
        assert err.max() <= bound, (n, exps[int(np.argmax(err))], float(err.max()))
