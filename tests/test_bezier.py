import math
import warnings

import numpy as np
import pytest

from bezquad.bezier import (
    RationalBezierCurve,
    RationalBezierPatch,
    _batches,
    _curve_point_derivative,
    _patch_point_normal,
    bernstein_to_monomial,
    control_bbox,
    eval_curve,
    eval_curve_derivative,
    eval_patch,
    monomial_to_bernstein,
    patch_normal,
)
from bezquad.errors import ValidationError
from bezquad.io import bundled, load_model
from bezquad.shapes import annulus_region, circle_region, cylinder_solid
from bezquad.surface import unit_square_loop
from conftest import NET_FAULTS

W = math.sqrt(2) / 2


def quarter_arc():
    return RationalBezierCurve([(1, 0), (1, 1), (0, 1)], [1, W, 1])


def random_curve(rng, degree, dim=2):
    pts = rng.uniform(-2, 2, size=(degree + 1, dim))
    wts = rng.uniform(0.3, 2.5, size=degree + 1)
    return RationalBezierCurve(pts, wts)


def test_endpoint_interpolation():
    arc = quarter_arc()
    assert np.allclose(eval_curve(arc, 0.0), [1, 0], atol=1e-15)
    assert np.allclose(eval_curve(arc, 1.0), [0, 1], atol=1e-15)


def test_quarter_arc_midpoint():
    assert np.allclose(eval_curve(quarter_arc(), 0.5), [W, W], atol=1e-14)


def test_quarter_arc_traces_unit_circle():
    s = np.linspace(0, 1, 257)
    pts = eval_curve(quarter_arc(), s)
    radii = np.hypot(pts[:, 0], pts[:, 1])
    assert np.max(np.abs(radii - 1)) < 1e-14


def test_endpoint_derivative_value():
    # rational endpoint tangent: m * (w1/w0) * (P1 - P0)
    der = eval_curve_derivative(quarter_arc(), 0.0)
    assert np.allclose(der, [0, math.sqrt(2)], atol=1e-14)


def test_derivative_matches_central_difference():
    rng = np.random.default_rng(7)
    h = 1e-6
    for _ in range(30):
        c = random_curve(rng, int(rng.integers(1, 6)))
        s = rng.uniform(0.05, 0.95)
        fd = (eval_curve(c, s + h) - eval_curve(c, s - h)) / (2 * h)
        der = eval_curve_derivative(c, s)
        assert np.allclose(der, fd, rtol=1e-6, atol=1e-6)


def test_curve_reversal():
    rng = np.random.default_rng(3)
    c = random_curve(rng, 3)
    r = c.reversed()
    s = np.linspace(0, 1, 17)
    assert np.allclose(eval_curve(r, s), eval_curve(c, 1 - s), atol=1e-14)


def test_vectorized_eval_matches_scalar():
    c = quarter_arc()
    s = np.array([0.1, 0.25, 0.9])
    batch = eval_curve(c, s)
    for i, si in enumerate(s):
        assert np.allclose(batch[i], eval_curve(c, float(si)), atol=1e-15)


def test_scalar_parameter_gives_one_point():
    rng = np.random.default_rng(5)
    for dim in (2, 3):
        c = random_curve(rng, 3, dim)
        for s in (0.4, np.float64(0.4), np.array(0.4)):
            assert eval_curve(c, s).shape == eval_curve_derivative(c, s).shape == (dim,)
        assert eval_curve(c, [0.4]).shape == eval_curve_derivative(c, [0.4]).shape == (1, dim)


def test_stacked_curve_pass_equals_each_curve():
    # curves of one degree stacked and indexed by owner, as planar rules
    # evaluate them, give each curve's own values bit for bit
    rng = np.random.default_rng(9)
    for dim in (2, 3):
        curves = [random_curve(rng, d, dim) for d in (2, 1, 2, 5, 1, 2)]
        owner = np.repeat(np.arange(len(curves)), [3, 1, 4, 2, 5, 3])
        s = rng.random(owner.size)
        point, der = np.empty((dim, s.size)), np.empty((dim, s.size))
        for members, sel, which in _batches([c.degree for c in curves], owner):
            assert len({curves[i].degree for i in members}) == 1
            pts = np.stack([curves[i].points for i in members])
            wts = np.stack([curves[i].weights for i in members])
            point[:, sel], der[:, sel] = _curve_point_derivative(pts, wts, s[sel], which)
        for i, c in enumerate(curves):
            mine = owner == i
            assert point[:, mine].T.tobytes() == eval_curve(c, s[mine]).tobytes()
            assert der[:, mine].T.tobytes() == eval_curve_derivative(c, s[mine]).tobytes()


# The point-major evaluators that the column-major ones replaced: every
# de Casteljau step on (k, m+1, ..., dim+1) arrays, the normal by np.cross.
# The column-major pass must give the same bytes.


def _ref_lift(points, weights):
    return np.concatenate([points * weights[..., None], weights[..., None]], axis=-1)


def _ref_casteljau_pair(ctrl, t):
    m = ctrl.shape[1] - 1
    t = t.reshape((-1,) + (1,) * (ctrl.ndim - 1))
    b = ctrl.copy()
    for j in range(m - 1):
        b[:, : m - j] = (1.0 - t) * b[:, : m - j] + t * b[:, 1 : m - j + 1]
    t = t[:, 0]
    return (1.0 - t) * b[:, 0] + t * b[:, 1], m * (b[:, 1] - b[:, 0])


def _ref_curve_point_derivative(ctrl, s, which=None):
    s = np.asarray(s, dtype=float).ravel()
    ctrl = np.broadcast_to(ctrl, (s.size,) + ctrl.shape) if which is None else ctrl[which]
    value, hodo = _ref_casteljau_pair(ctrl, s)
    w = value[:, -1:]
    point = value[:, :-1] / w
    return point, (hodo[:, :-1] - point * hodo[:, -1:]) / w


def _ref_patch_eval_h(nets, u, v, which=None):
    u = np.asarray(u, dtype=float).ravel()
    v = np.asarray(v, dtype=float).ravel()
    ctrl = np.broadcast_to(nets, (u.size,) + nets.shape) if which is None else nets[which]
    row, row_du = _ref_casteljau_pair(ctrl, u)
    s_h, sv_h = _ref_casteljau_pair(row, v)
    su_h, _ = _ref_casteljau_pair(row_du, v)
    return s_h, su_h, sv_h


def _ref_patch_point_normal(nets, u, v, which=None):
    s_h, su_h, sv_h = _ref_patch_eval_h(nets, u, v, which)
    w = s_h[:, 3:]
    point = s_h[:, :3] / w
    du = (su_h[:, :3] - point * su_h[:, 3:]) / w
    dv = (sv_h[:, :3] - point * sv_h[:, 3:]) / w
    return point, np.cross(du, dv)


def _corner_params(rng, n):
    # the four corners of the square, then n random pairs
    u = np.concatenate([[0.0, 1.0, 0.0, 1.0], rng.random(n)])
    v = np.concatenate([[0.0, 0.0, 1.0, 1.0], rng.random(n)])
    return u, v


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_patch_evaluator_matches_point_major_reference(m, n):
    rng = np.random.default_rng(10 * m + n)
    pts = rng.uniform(-2, 2, size=(3, m + 1, n + 1, 3))
    wts = rng.uniform(0.3, 2.5, size=(3, m + 1, n + 1))
    nets = _ref_lift(pts, wts)
    u, v = _corner_params(rng, 25)
    which = rng.integers(0, 3, u.size)
    # the stacked nets, then one net on its own
    for net, at in ((slice(None), which), (1, None)):
        got = _patch_point_normal(pts[net], wts[net], u, v, at)
        for g, ref in zip(got, _ref_patch_point_normal(nets[net], u, v, at)):
            assert g.T.tobytes() == ref.tobytes()
    patch = RationalBezierPatch(pts[2], wts[2])
    point, normal = _ref_patch_point_normal(nets[2], u, v)
    assert eval_patch(patch, u, v).tobytes() == point.tobytes()
    assert patch_normal(patch, u, v).tobytes() == normal.tobytes()
    assert eval_patch(patch, 1.0, 0.0).tobytes() == point[1].tobytes()
    assert patch_normal(patch, 1.0, 0.0).tobytes() == normal[1].tobytes()


@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_curve_evaluator_matches_point_major_reference(degree):
    rng = np.random.default_rng(40 + degree)
    for dim in (2, 3):
        curves = [random_curve(rng, degree, dim) for _ in range(3)]
        pts, wts = np.stack([c.points for c in curves]), np.stack([c.weights for c in curves])
        ctrl = _ref_lift(pts, wts)
        s, _ = _corner_params(rng, 25)
        which = rng.integers(0, 3, s.size)
        # the stacked curves, then one curve on its own
        for curve, at in ((slice(None), which), (1, None)):
            got = _curve_point_derivative(pts[curve], wts[curve], s, at)
            for g, ref in zip(got, _ref_curve_point_derivative(ctrl[curve], s, at)):
                assert g.T.tobytes() == ref.tobytes()
        point, der = _ref_curve_point_derivative(ctrl[0], s)
        assert eval_curve(curves[0], s).tobytes() == point.tobytes()
        assert eval_curve_derivative(curves[0], s).tobytes() == der.tobytes()


def test_public_evaluator_shapes():
    rng = np.random.default_rng(8)
    patch = RationalBezierPatch(rng.uniform(-1, 1, (3, 4, 3)), rng.uniform(0.5, 2, (3, 4)))
    grid = rng.random((2, 3))
    for f in (eval_patch, patch_normal):
        assert f(patch, 0.3, 0.6).shape == (3,)
        assert f(patch, [], []).shape == (0, 3)
        assert f(patch, grid, grid[::-1]).shape == (6, 3)
    for dim in (2, 3):
        c = random_curve(rng, 3, dim)
        for f in (eval_curve, eval_curve_derivative):
            assert f(c, 0.3).shape == (dim,)
            assert f(c, []).shape == (0, dim)
            assert f(c, grid).shape == (6, dim)
    with pytest.raises(ValidationError) as err:
        patch_normal(patch, [0.1, 0.2], [0.3])
    assert str(err.value) == "v: need shape (2,), got (1,)"
    # a scalar u pairs with a scalar v only
    for f in (eval_patch, patch_normal):
        with pytest.raises(ValidationError) as err:
            f(patch, 0.5, [0.3])
        assert str(err.value) == "v: need shape (), got (1,)"


def flat_square_patch():
    pts = np.array([[[0, 0, 0], [0, 1, 0]], [[1, 0, 0], [1, 1, 0]]], dtype=float)
    return RationalBezierPatch(pts, np.ones((2, 2)))


def cylinder_side_patch():
    arc = quarter_arc()
    pts = np.zeros((3, 2, 3))
    pts[:, 0, :2] = arc.points
    pts[:, 1, :2] = arc.points
    pts[:, 1, 2] = 1.0
    wts = np.outer(arc.weights, [1, 1])
    return RationalBezierPatch(pts, wts)


def test_patch_eval_bilinear():
    p = flat_square_patch()
    assert np.allclose(eval_patch(p, 0.3, 0.7), [0.3, 0.7, 0], atol=1e-15)


def test_patch_eval_cylinder_side():
    p = cylinder_side_patch()
    assert np.allclose(eval_patch(p, 0.5, 0.5), [W, W, 0.5], atol=1e-14)
    # every point sits on the unit cylinder
    rng = np.random.default_rng(11)
    u, v = rng.uniform(0, 1, (2, 50))
    xyz = eval_patch(p, u, v)
    assert np.allclose(np.hypot(xyz[:, 0], xyz[:, 1]), 1.0, atol=1e-14)


def test_patch_normal_flat():
    n = patch_normal(flat_square_patch(), 0.4, 0.6)
    assert np.allclose(n, [0, 0, 1], atol=1e-15)


def test_patch_normal_cylinder_radial():
    p = cylinder_side_patch()
    u, v = 0.37, 0.81
    n = patch_normal(p, u, v)
    xyz = eval_patch(p, u, v)
    radial = np.array([xyz[0], xyz[1], 0.0])
    assert abs(n[2]) < 1e-13
    assert np.dot(n, radial) > 0
    cosang = np.dot(n, radial) / (np.linalg.norm(n) * np.linalg.norm(radial))
    assert abs(cosang - 1) < 1e-12


def test_patch_normal_matches_differences():
    rng = np.random.default_rng(23)
    pts = rng.uniform(-1, 1, size=(4, 3, 3))
    wts = rng.uniform(0.5, 2.0, size=(4, 3))
    p = RationalBezierPatch(pts, wts)
    u, v, h = 0.42, 0.33, 1e-6
    du = (eval_patch(p, u + h, v) - eval_patch(p, u - h, v)) / (2 * h)
    dv = (eval_patch(p, u, v + h) - eval_patch(p, u, v - h)) / (2 * h)
    assert np.allclose(patch_normal(p, u, v), np.cross(du, dv), rtol=1e-5, atol=1e-6)


def test_patch_transpose_flips_normal():
    p = cylinder_side_patch()
    t = p.transposed()
    assert (p.degree_u, p.degree_v) == (t.degree_v, t.degree_u) == (2, 1)
    assert np.allclose(eval_patch(t, 0.2, 0.7), eval_patch(p, 0.7, 0.2), atol=1e-15)
    assert np.allclose(patch_normal(t, 0.2, 0.7), -patch_normal(p, 0.7, 0.2), atol=1e-13)


def test_bernstein_constant_to_monomial():
    assert np.allclose(bernstein_to_monomial([1, 1, 1]), [1, 0, 0], atol=1e-15)


def test_monomial_square_to_bernstein():
    assert np.allclose(monomial_to_bernstein([0, 0, 1]), [0, 0, 1], atol=1e-15)


def test_basis_conversion_round_trip():
    # conditioning grows like 10^(degree/2), so the bound loosens with degree
    rng = np.random.default_rng(5)
    for degree in range(1, 11):
        for _ in range(20):
            b = rng.standard_normal(degree + 1)
            back = monomial_to_bernstein(bernstein_to_monomial(b))
            err = np.linalg.norm(back - b) / np.linalg.norm(b)
            assert err < 1e-11 if degree > 6 else err < 1e-13


def test_conversion_values_agree_pointwise():
    # the monomial form must reproduce the Bernstein sum on a grid
    rng = np.random.default_rng(9)
    b = rng.standard_normal(6)
    mono = bernstein_to_monomial(b)
    s = np.linspace(0, 1, 33)
    direct = sum(
        b[j] * math.comb(5, j) * s**j * (1 - s) ** (5 - j) for j in range(6)
    )
    assert np.allclose(np.polyval(mono[::-1], s), direct, atol=1e-13)


@pytest.mark.parametrize("convert", [bernstein_to_monomial, monomial_to_bernstein])
def test_basis_change_keeps_the_shape(convert):
    # extra axes pass through: each (j, k) column converts on its own
    net = np.random.default_rng(3).standard_normal((3, 2, 4))
    out = convert(net)
    assert out.shape == net.shape
    for j, k in np.ndindex(2, 4):
        assert np.allclose(out[:, j, k], convert(net[:, j, k]), rtol=1e-14, atol=1e-14)


def test_high_degree_conversion_warns():
    with pytest.warns(UserWarning):
        bernstein_to_monomial(np.ones(25))


def test_control_bbox_curve():
    lo, hi = control_bbox(quarter_arc())
    assert lo.tolist() == [0.0, 0.0] and hi.tolist() == [1.0, 1.0]


def test_control_bbox_contains_trace():
    rng = np.random.default_rng(31)
    c = random_curve(rng, 4)
    lo, hi = control_bbox(c)
    trace = eval_curve(c, np.linspace(0, 1, 101))
    assert np.all((trace >= lo - 1e-12) & (trace <= hi + 1e-12))


def _cap():
    return next(tp for tp in cylinder_solid().patches if tp.loops)


# each object control_bbox takes, and the corners it had when the box was a
# BoundingBox; a TrimLoop was refused then and is boxed by its segments now
_BOXES = {
    "curve": (quarter_arc, [0.0, 0.0], [1.0, 1.0]),
    "curve-list": (lambda: list(unit_square_loop().segments), [0.0, 0.0], [1.0, 1.0]),
    "trim-loop": (unit_square_loop, [0.0, 0.0], [1.0, 1.0]),
    "circle": (lambda: circle_region((0.3, -0.2), 1.7), [-1.4, -1.9], [2.0, 1.5]),
    "annulus": (
        lambda: annulus_region((0.6, 0.6), 0.5, 0.2),
        [0.09999999999999998, 0.09999999999999998],
        [1.1, 1.1],
    ),
    # a trimmed patch boxes its 3D net, not its trims
    "trimmed-cap": (_cap, [-1.0, -1.0, 1.0], [1.0, 1.0, 1.0]),
    "cylinder": (cylinder_solid, [-1.0, -1.0, 0.0], [1.0, 1.0, 1.0]),
    "circle.region.json": (
        lambda: load_model(bundled("circle.region.json")), [-1.0, -1.0], [1.0, 1.0]
    ),
    "cube.solid.json": (
        lambda: load_model(bundled("cube.solid.json")), [0.0, 0.0, 0.0], [1.0, 1.0, 1.0]
    ),
    "cylinder.solid.json": (
        lambda: load_model(bundled("cylinder.solid.json")), [-1.0, -1.0, 0.0], [1.0, 1.0, 1.0]
    ),
}


@pytest.mark.parametrize("build, lo, hi", _BOXES.values(), ids=_BOXES)
def test_control_bbox_is_two_read_only_arrays(build, lo, hi):
    got = control_bbox(build())
    assert isinstance(got, tuple) and len(got) == 2
    for corner, want in zip(got, (lo, hi)):
        assert not corner.flags.writeable
        assert corner.tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize(
    "obj,message",
    [
        (5, "obj: need a RationalBezierCurve or RationalBezierPatch or list, got int"),
        ([quarter_arc(), 5], "obj[1]: need a RationalBezierCurve or RationalBezierPatch or list, got int"),
        ([[], ()], "no control points found"),
        (
            [quarter_arc(), RationalBezierPatch(np.zeros((2, 2, 3)), np.ones((2, 2)))],
            "mixed 2D and 3D geometry in one bounding box",
        ),
    ],
    ids=["type", "item-type", "empty", "mixed"],
)
def test_control_bbox_refusals(obj, message):
    with pytest.raises(ValidationError) as err:
        control_bbox(obj)
    assert str(err.value) == message


def test_curve_validation():
    with pytest.raises(ValidationError):
        RationalBezierCurve([(0, 0), (1, 1)], [1.0, -1.0])
    with pytest.raises(ValidationError):
        RationalBezierCurve([(0, 0), (1, 1)], [1.0, 1.0, 1.0])
    with pytest.raises(ValidationError):
        RationalBezierCurve([(0, 0)], [1.0])


def test_patch_validation():
    with pytest.raises(ValidationError):
        RationalBezierPatch(np.zeros((2, 2, 2)), np.ones((2, 2)))
    with pytest.raises(ValidationError):
        RationalBezierPatch(np.zeros((2, 2, 3)), np.zeros((2, 2)))


def test_non_finite_control_data_rejected():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValidationError, match="must be finite"):
            RationalBezierCurve([(bad, 0), (1, 1)], [1.0, 1.0])
        pts = np.zeros((2, 2, 3))
        pts[1, 0, 2] = bad
        with pytest.raises(ValidationError, match="must be finite"):
            RationalBezierPatch(pts, np.ones((2, 2)))
    # an infinite weight passes the positivity check, so it needs its own
    with pytest.raises(ValidationError, match="must be finite"):
        RationalBezierCurve([(0, 0), (1, 1)], [1.0, math.inf])
    with pytest.raises(ValidationError, match="must be finite"):
        RationalBezierPatch(np.zeros((2, 2, 3)), np.full((2, 2), math.inf))


@pytest.mark.parametrize("kind", ["curve", "patch"])
@pytest.mark.parametrize("name,nets", NET_FAULTS, ids=[f[0] for f in NET_FAULTS])
def test_control_net_faults_are_located(name, nets, kind):
    points, weights, message = nets[kind]
    build = {"curve": RationalBezierCurve, "patch": RationalBezierPatch}[kind]
    with pytest.raises(ValidationError) as err:
        build(points, weights)
    assert str(err.value) == message
    # the bare message stays next to its path, so a reader can relocate it
    assert f"{err.value.path}: {err.value.message}" == message
    assert err.value.path.startswith(("points", "weights"))


@pytest.mark.parametrize("kind", ["curve", "patch"])
@pytest.mark.parametrize("key", ["points", "weights"])
@pytest.mark.parametrize("convert", [np.array, lambda a: np.array(a).tolist()], ids=["array", "list"])
def test_complex_nets_are_refused(kind, key, convert):
    # a float cast would keep only the real parts, even of 1 + 0j
    net = {
        "curve": {"points": [[0, 0], [1, 1]], "weights": [1, 1]},
        "patch": {"points": np.zeros((2, 2, 3)), "weights": np.ones((2, 2))},
    }[kind]
    net[key] = convert(np.asarray(net[key]) + (2j if key == "points" else 0j))
    build = {"curve": RationalBezierCurve, "patch": RationalBezierPatch}[kind]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=f"^{key}: complex values are not supported$"):
            build(**net)


def test_weights_are_checked_finite_before_positive():
    message = r"^weights\[2\]: must be finite, got nan$"
    with pytest.raises(ValidationError, match=message):
        RationalBezierCurve([(0, 0), (1, 0), (1, 1)], [-1.0, 0.0, math.nan])
    weights = np.ones((2, 3))
    weights[0, 2], weights[1, 0] = 0.0, math.inf
    message = r"^weights\[1\]\[0\]: must be finite, got inf$"
    with pytest.raises(ValidationError, match=message):
        RationalBezierPatch(np.zeros((2, 3, 3)), weights)
    weights[1, 0] = 1.0
    message = r"^weights\[0\]\[2\]: weight must be strictly positive, got 0\.0$"
    with pytest.raises(ValidationError, match=message):
        RationalBezierPatch(np.zeros((2, 3, 3)), weights)


def test_types_are_frozen():
    c = quarter_arc()
    with pytest.raises(Exception):
        c.points = np.zeros((3, 2))
    with pytest.raises(ValueError):
        c.points[0, 0] = 5.0
