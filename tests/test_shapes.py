"""The ready-made geometry of bezquad.shapes: a circle's four arcs are
read-only views of one block of control points, byte for byte the arcs
of the per-arc construction, and every builder refuses a bad argument at
its name."""

import hashlib
import math

import numpy as np
import pytest

from bezquad.bezier import RationalBezierCurve, RationalBezierPatch
from bezquad.errors import ValidationError
from bezquad.shapes import (
    annulus_region,
    bilinear_patch,
    box_solid,
    circle_loop,
    circle_region,
    cylinder_solid,
    cylinder_solid_fitted,
    polygon_loop,
    quarter_arc,
    square_region,
)

# the per-arc construction: each arc indexes three of the eight corners of
# the square of half-side 1 about the center, and a clockwise loop is the
# reversed list of reversed arcs
_CORNERS = np.array([(1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1)])
_ARC_WEIGHTS = [1.0, math.sqrt(2) / 2, 1.0]

_CIRCLES = [((0.0, 0.0), 1.0), ((0.3, -1.7), 0.37), ((1, 2), 3), ((-2.5e3, 1e-3), 7.25e-4)]


def _ref_arc(center, radius, quadrant):
    i = 2 * (quadrant % 4)
    pts = np.asarray(center, dtype=float) + radius * _CORNERS[[i, (i + 1) % 8, (i + 2) % 8]]
    return RationalBezierCurve(pts, _ARC_WEIGHTS)


def _ref_loop(center, radius, clockwise=False):
    arcs = [_ref_arc(center, radius, q) for q in range(4)]
    return [a.reversed() for a in reversed(arcs)] if clockwise else arcs


def _ref_cylinder_patches(center, radius, z0, height, half):
    (cx, cy), z1 = center, z0 + height
    patches = []
    for q in range(4):
        arc = _ref_arc(center, radius, q)
        pts = np.empty((3, 2, 3))
        pts[:, :, :2] = arc.points[:, None]
        pts[:, :, 2] = z0, z1
        patches.append(RationalBezierPatch(pts, np.repeat(arc.weights[:, None], 2, axis=1)))
    for z, flip in ((z1, 1), (z0, -1)):
        corner = lambda u, v: (cx + (2 * u - 1) * half, cy + flip * (2 * v - 1) * half, z)
        patches.append(bilinear_patch(corner(0, 0), corner(1, 0), corner(0, 1), corner(1, 1)))
    return patches


def _bytes(nets):
    return [(n.points.tobytes(), n.points.shape, n.weights.tobytes()) for n in nets]


def _owner(a):
    while a.base is not None:
        a = a.base
    return a


@pytest.mark.parametrize("center, radius", _CIRCLES)
def test_quarter_arc_matches_the_per_arc_construction(center, radius):
    for q in range(-1, 5):
        assert _bytes([quarter_arc(center, radius, q)]) == _bytes([_ref_arc(center, radius, q)])


@pytest.mark.parametrize("clockwise", [False, True])
@pytest.mark.parametrize("center, radius", _CIRCLES)
def test_circle_loop_matches_the_per_arc_construction(center, radius, clockwise):
    got = circle_loop(center, radius, clockwise)
    assert _bytes(got) == _bytes(_ref_loop(center, radius, clockwise))
    region = circle_region(center, radius, clockwise)
    assert _bytes(region.loops[0]) == _bytes(got)


def test_annulus_matches_the_per_arc_construction():
    for center, outer, inner in (((0.0, 0.0), 1.0, 0.5), ((0.6, 0.6), 0.5, 0.2), ((1, 2), 3, 1)):
        outside, hole = annulus_region(center, outer, inner).loops
        assert _bytes(outside) == _bytes(_ref_loop(center, outer))
        assert _bytes(hole) == _bytes(_ref_loop(center, inner, clockwise=True))


@pytest.mark.parametrize(
    "build, args, cap",
    [
        (cylinder_solid, ((0.0, 0.0), 1.0, 0.0, 1.0), 1.0),
        (cylinder_solid, ((0.5, 1.5), 0.7, -0.3, 2.1), 1.0),
        (cylinder_solid, ((1, 2), 3, 1, 2), 1.0),
        (cylinder_solid_fitted, ((0.5, 1.5), 0.7, -0.3, 2.1), 1.25),
    ],
)
def test_cylinder_nets_match_the_per_arc_construction(build, args, cap):
    center, radius, z0, height = args
    solid = build(*args)
    want = _ref_cylinder_patches(center, radius, z0, height, cap * radius)
    assert _bytes([tp.patch for tp in solid.patches]) == _bytes(want)


@pytest.mark.parametrize("clockwise", [False, True])
def test_a_loops_arcs_share_one_read_only_block(clockwise):
    loops = [circle_loop((0.3, 0.7), 1.3, clockwise)]
    loops += annulus_region((0.3, 0.7), 1.3, 0.4).loops
    for loop in loops:
        for field in ("points", "weights"):
            owners = {id(_owner(getattr(arc, field))) for arc in loop}
            assert len(owners) == 1, field
            assert not any(getattr(arc, field).flags.writeable for arc in loop)
            assert not _owner(getattr(loop[0], field)).flags.writeable
    # the block is the circle's own: two loops share no points
    outside, hole = loops[1:]
    assert not np.shares_memory(outside[0].points, hole[0].points)
    # a curve built from an arc keeps its arrays as they are
    again = RationalBezierCurve(loops[0][1].points, loops[0][1].weights)
    assert again.points is loops[0][1].points and again.weights is loops[0][1].weights


def test_a_boxs_nets_are_views_of_one_read_only_block():
    patches = [tp.patch for tp in box_solid((-1.5, 0.25, 2.0), (0.5, 3.0, 2.125)).patches]
    for field in ("points", "weights"):
        owners = {id(_owner(getattr(p, field))) for p in patches}
        assert len(owners) == 1, field
        assert not any(getattr(p, field).flags.writeable for p in patches)
        assert not _owner(getattr(patches[0], field)).flags.writeable
    assert _owner(patches[0].points).shape == (6, 2, 2, 3)


# sha256 of each patch's points.tobytes() then weights.tobytes(), patch by
# patch, as the per-patch construction of the box and the caps gave them
_NET_BYTES = {
    "box": (box_solid, (), "ec758fc2e0c8d581e5c98babd5db3575346ee7828bd515ed6dd823e0644de74b"),
    "box-off-origin": (
        box_solid,
        ((-1.5, 0.25, 2.0), (0.5, 3.0, 2.125)),
        "5176db172110e5aea294faea094e6ae69e5a123ff2c9db6a5cf3dfb1a7142108",
    ),
    "cylinder": (
        cylinder_solid, (), "01c8621e629358402712a923384351ce91342959154ab8461a7a21e638b9f2dd"
    ),
    "cylinder-off-origin": (
        cylinder_solid,
        ((0.3, -1.7), 2.5, -0.75, 3.25),
        "a628a2157c0a233b39b8fed871de8e7ec45dc4f5c385aeb62309b91d68f1db20",
    ),
    "fitted-cylinder": (
        cylinder_solid_fitted, (), "0e60c371f129f39b0a208e32bde8bc39e9845a9cc8251415d2aa1d52edfe1fee"
    ),
}


@pytest.mark.parametrize("build, args, digest", _NET_BYTES.values(), ids=_NET_BYTES)
def test_solid_nets_keep_their_bytes(build, args, digest):
    h = hashlib.sha256()
    for tp in build(*args).patches:
        h.update(tp.patch.points.tobytes())
        h.update(tp.patch.weights.tobytes())
    assert h.hexdigest() == digest


# each row used to be accepted, or to fail with an error that names no argument
_REFUSALS = {
    "scalar-center": (lambda: circle_region(5.0, 1.0), "center: need shape (2,), got ()"),
    "3d-center": (lambda: circle_region((0, 0, 0)), "center: need shape (2,), got (3,)"),
    "array-radius": (
        lambda: circle_region(radius=np.array([1, 2])),
        "radius: need shape (), got (2,)",
    ),
    "infinite-radius": (lambda: circle_region(radius=np.inf), "radius: must be finite, got inf"),
    "nan-radius": (lambda: circle_loop(radius=np.nan), "radius: must be finite, got nan"),
    "text-radius": (lambda: circle_region(radius="1"), "radius: not a numeric array"),
    "negative-radius": (lambda: circle_loop(radius=-1), "radius: must be positive, got -1.0"),
    "zero-radius": (lambda: quarter_arc(radius=0), "radius: must be positive, got 0.0"),
    "fractional-quadrant": (
        lambda: quarter_arc(quadrant=1.5),
        "quadrant must be an integer, got 1.5",
    ),
    "text-quadrant": (lambda: quarter_arc(quadrant="1"), "quadrant must be an integer, got '1'"),
    "inverted-annulus": (
        lambda: annulus_region((0, 0), 0.5, 1.0),
        "inner: must be less than outer = 0.5, got 1.0",
    ),
    "equal-annulus": (
        lambda: annulus_region((0, 0), 1.0, 1.0),
        "inner: must be less than outer = 1.0, got 1.0",
    ),
    "zero-inner": (lambda: annulus_region(inner=0.0), "inner: must be positive, got 0.0"),
    "zero-outer": (lambda: annulus_region(outer=0), "outer: must be positive, got 0.0"),
    "annulus-center": (
        lambda: annulus_region((0, 0, 0)),
        "center: need shape (2,), got (3,)",
    ),
    "inside-out-square": (
        lambda: square_region((0, 0), (1, -1)),
        "hi[1]: must be greater than lo, got -1.0",
    ),
    "flat-square": (
        lambda: square_region((0, 0), (0, 1)),
        "hi[0]: must be greater than lo, got 0.0",
    ),
    "3d-square": (lambda: square_region((0, 0, 0), (1, 1, 1)), "lo: need shape (2,), got (3,)"),
    "two-vertex-polygon": (
        lambda: polygon_loop([(0, 0), (1, 0)]),
        "vertices: need at least 3 vertices, got 2",
    ),
    "3d-polygon": (
        lambda: polygon_loop([(0, 0, 0), (1, 0, 0), (0, 1, 0)]),
        "vertices: need shape (n, 2), got (3, 3)",
    ),
    "nan-polygon-vertex": (
        lambda: polygon_loop([(0, 0), (1, 0), (np.nan, 1)]),
        "vertices[2][0]: must be finite, got nan",
    ),
    # a zero-length edge or a polygon of area zero built a region of area
    # 0.0 or 7e-18
    "repeated-polygon-vertex": (
        lambda: polygon_loop([(0, 0), (0, 0), (1, 1)]),
        "vertices[0]: repeats the next vertex (0.0, 0.0)",
    ),
    "polygon-closed-by-its-first-vertex": (
        lambda: polygon_loop([(0, 0), (1, 0), (1, 1), (0, 0)]),
        "vertices[3]: repeats the next vertex (0.0, 0.0)",
    ),
    "collinear-polygon": (
        lambda: polygon_loop([(0, 0), (1, 0), (2, 0)]),
        "vertices: need a polygon of nonzero area, got area 0",
    ),
    "diagonal-collinear-polygon": (
        lambda: polygon_loop([(0, 0), (1, 1), (3, 3), (2, 2)]),
        "vertices: need a polygon of nonzero area, got area 0",
    ),
    "inside-out-box": (
        lambda: box_solid((0, 0, 0), (1, -1, 1)),
        "hi[1]: must be greater than lo, got -1.0",
    ),
    "flat-box": (lambda: box_solid((0, 0, 2), (1, 1, 2)), "hi[2]: must be greater than lo, got 2.0"),
    "2d-box-lo": (lambda: box_solid((0, 0), (1, 1)), "lo: need shape (3,), got (2,)"),
    "2d-box-hi": (lambda: box_solid(hi=(1, 1)), "hi: need shape (3,), got (2,)"),
    "nan-box": (lambda: box_solid(hi=(1, np.nan, 1)), "hi[1]: must be finite, got nan"),
    "negative-height": (lambda: cylinder_solid(height=-1), "height: must be positive, got -1.0"),
    "zero-height": (lambda: cylinder_solid(height=0), "height: must be positive, got 0.0"),
    "zero-radius-cylinder": (lambda: cylinder_solid(radius=0), "radius: must be positive, got 0.0"),
    "3d-cylinder-center": (
        lambda: cylinder_solid((0, 0, 0)),
        "center: need shape (2,), got (3,)",
    ),
    "infinite-z0": (lambda: cylinder_solid(z0=np.inf), "z0: must be finite, got inf"),
    "fitted-negative-height": (
        lambda: cylinder_solid_fitted(height=-1),
        "height: must be positive, got -1.0",
    ),
    "fitted-zero-radius": (
        lambda: cylinder_solid_fitted(radius=0),
        "radius: must be positive, got 0.0",
    ),
    "fitted-array-radius": (
        lambda: cylinder_solid_fitted(radius=[1.0]),
        "radius: need shape (), got (1,)",
    ),
    # each count is refused at its own name before any fit: too few cubics
    # overshoot the cap square, too few samples leave a cubic short of its
    # four interpolation points; segments is checked first
    **{
        f"fitted-{n}-segments": (
            lambda n=n: cylinder_solid_fitted(segments=n),
            f"segments must be >= 4, got {n}",
        )
        for n in (1, 2, 3)
    },
    **{
        f"fitted-{n}-segments-{k}-samples": (
            lambda n=n, k=k: cylinder_solid_fitted(segments=n, samples_per_segment=k),
            text,
        )
        for n, k, text in (
            (8, 1, "samples per segment must be >= 3, got 1"),
            (8, 2, "samples per segment must be >= 3, got 2"),
            (1, 1, "segments must be >= 4, got 1"),
            (2, 2, "segments must be >= 4, got 2"),
        )
    },
    # numpy's ValueError, a corner taken as (1, 0, 0), and a 4-vector
    # reported as the control points of the patch
    "text-bilinear-corner": (
        lambda: bilinear_patch("abc", (1, 0, 0), (0, 1, 0), (1, 1, 0)),
        "p00: not a numeric array",
    ),
    "bool-bilinear-corner": (
        lambda: bilinear_patch((0, 0, 0), (True, 0, 0), (0, 1, 0), (1, 1, 0)),
        "p10: not a numeric array",
    ),
    "4d-bilinear-corner": (
        lambda: bilinear_patch((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0, 0)),
        "p11: need shape (3,), got (4,)",
    ),
}


@pytest.mark.parametrize("name", sorted(_REFUSALS))
def test_builders_refuse_bad_arguments_at_their_names(name):
    call, text = _REFUSALS[name]
    with pytest.raises(ValidationError) as err:
        call()
    assert str(err.value) == text


_FITTED_COUNTS = [(n, k) for n in range(1, 13) for k in range(1, 7)] + [(40, 20), (128, 3)]


@pytest.mark.parametrize("segments, samples", _FITTED_COUNTS)
def test_the_fitted_cylinder_builds_exactly_on_its_domain(segments, samples):
    # the whole domain is segments >= 4 and samples_per_segment >= 3; a
    # count outside it is refused at its name, never deeper in the fit
    kwargs = {"segments": segments, "samples_per_segment": samples}
    if segments >= 4 and samples >= 3:
        assert len(cylinder_solid_fitted(**kwargs).patches) == 6
        return
    with pytest.raises(ValidationError) as err:
        cylinder_solid_fitted(**kwargs)
    if segments < 4:
        assert str(err.value) == f"segments must be >= 4, got {segments}"
    else:
        assert str(err.value) == f"samples per segment must be >= 3, got {samples}"


def test_builders_take_numbers_of_any_kind():
    want = _bytes(circle_loop((1.0, 2.0), 3.0))
    for center, radius in (((1, 2), 3), (np.array([1, 2]), np.int64(3)), ([1.0, 2.0], np.float64(3))):
        assert _bytes(circle_loop(center, radius)) == want
    assert _bytes([quarter_arc(quadrant=np.int64(5))]) == _bytes([quarter_arc(quadrant=1.0)])
    box = box_solid(np.zeros(3), [1, 2, 3])
    assert _bytes([tp.patch for tp in box.patches]) == _bytes(
        [tp.patch for tp in box_solid((0.0, 0.0, 0.0), (1.0, 2.0, 3.0)).patches]
    )


def test_an_arc_is_refused_only_where_its_control_points_overflow():
    # about (-1e308, 0) with radius 1e308, quadrant 0 reaches x = 0 and
    # quadrant 1 x = -2e308; the whole circle reaches both
    arc = quarter_arc((-1e308, 0.0), 1e308, 0)
    assert arc.points.tolist() == [[0.0, 0.0], [0.0, 1e308], [-1e308, 1e308]]
    for build in (lambda: quarter_arc((-1e308, 0.0), 1e308, 1), lambda: circle_loop((-1e308, 0.0), 1e308)):
        with pytest.raises(ValidationError, match=r"^the circle's control points overflowed float64: "):
            build()
