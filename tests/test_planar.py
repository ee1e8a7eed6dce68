import math
import warnings

import numpy as np
import pytest

from bezquad.bezier import RationalBezierCurve, control_bbox, eval_curve, eval_curve_derivative
import bezquad.planar as planar
from bezquad.errors import QuadratureError, ValidationError
from bezquad.moments import _moment_sums, _monomials, geometric_moments, monomial_exponents
from bezquad.planar import (
    PlanarRegion,
    _equal_weights,
    _lift,
    _pe_intermediate_rule,
    _region_rule,
    _standard_form,
    _weights_rule,
    integrate2d,
    region_constant_C,
    spectral_pe_rule,
    spectral_rule,
)
from bezquad.quad1d import gauss_legendre
from bezquad.shapes import annulus_region, circle_region, polygon_loop, quarter_arc, square_region
from bezquad.surface import parametric_area_rule, unit_square_loop

from conftest import elevated, exact, random_quadratic_region

PI = math.pi

# area integral of exp(x + y) over the unit disk
EXP_DISK = exact.disk_exp_integral(0.0, 0.0, 1.0)


def area(rule):
    return integrate2d(rule, lambda x, y: np.ones_like(x))


def test_constant_height_is_min_control_y():
    assert region_constant_C(circle_region()) == -1.0
    assert region_constant_C(square_region((2, 3), (4, 5))) == 3.0


def test_spectral_circle_area():
    assert abs(area(spectral_rule(circle_region(), 10, 10)) - PI) < 1e-12


def test_clockwise_circle_negates():
    rule = spectral_rule(circle_region(clockwise=True), 10, 10)
    assert abs(area(rule) + PI) < 1e-12


def test_annulus_with_hole():
    rule = spectral_rule(annulus_region(outer=1.0, inner=0.5), 12, 12)
    assert abs(area(rule) - PI * 0.75) < 1e-12


def test_clockwise_polygon_is_a_hole():
    outer = polygon_loop([(0, 0), (1, 0), (1, 1), (0, 1)])
    hole = polygon_loop([(0.25, 0.25), (0.75, 0.25), (0.75, 0.75), (0.25, 0.75)], clockwise=True)
    rule = spectral_pe_rule(PlanarRegion((tuple(outer), tuple(hole))), 2)
    assert abs(area(rule) - 0.75) < 1e-14


def test_spectral_point_count():
    # one boundary node block per curve, layer_order points per node
    rule = spectral_rule(circle_region(), 7, 5)
    assert len(rule) == 4 * 7 * 5


def test_spectral_convergence_exp():
    reg = circle_region()
    errs = {}
    for n in range(4, 17, 2):
        v = integrate2d(spectral_rule(reg, n, n), lambda x, y: np.exp(x + y))
        errs[n] = abs(v - EXP_DISK)
    for n in range(4, 15, 2):
        assert errs[n + 2] / errs[n] < 0.5
    assert errs[16] < 1e-12


def test_spectral_pe_circle_counts_and_exactness():
    reg = circle_region()
    rule = spectral_pe_rule(reg, 3)
    assert len(rule) == 104
    assert abs(area(rule) - PI) < 1e-10
    assert abs(integrate2d(rule, lambda x, y: x**2) - PI / 4) < 1e-10
    assert abs(integrate2d(rule, lambda x, y: x * y**2)) < 1e-10


def test_polynomial_curve_detection():
    assert _equal_weights(RationalBezierCurve([(0, 0), (1, 0)], [2.0, 2.0]).weights)
    assert not _equal_weights(RationalBezierCurve([(0, 0), (1, 1), (2, 0)], [1, 0.8, 1]).weights)


def test_spectral_pe_matches_spectral_reference_on_random_regions():
    rng = np.random.default_rng(101)
    for _ in range(8):
        reg = random_quadratic_region(rng)
        ref_rule = spectral_rule(reg, 40, 40)
        for k in (1, 2, 3):
            pe = spectral_pe_rule(reg, k)
            for a in range(k + 1):
                for b in range(k - a + 1):
                    f = lambda x, y: x**a * y**b
                    ref = integrate2d(ref_rule, f)
                    got = integrate2d(pe, f)
                    assert abs(got - ref) < 1e-9 * max(1.0, abs(ref))


def test_translation_covariance():
    rng = np.random.default_rng(55)
    reg = random_quadratic_region(rng)
    shift = np.array([3.25, -1.5])
    moved = PlanarRegion(
        (
            tuple(
                RationalBezierCurve(c.points + shift, c.weights)
                for c in reg.loops[0]
            ),
        )
    )
    a = spectral_rule(reg, 9, 9)
    b = spectral_rule(moved, 9, 9)
    assert np.allclose(b.points, a.points + shift, atol=1e-13)
    assert np.allclose(b.weights, a.weights, atol=1e-13)


def test_rule_points_inside_control_bbox():
    rng = np.random.default_rng(77)
    for _ in range(5):
        reg = random_quadratic_region(rng)
        lo, hi = control_bbox(reg)
        for rule in (spectral_rule(reg, 8, 8), spectral_pe_rule(reg, 2)):
            assert np.all((rule.points >= lo - 1e-12) & (rule.points <= hi + 1e-12))


def test_weight_product_structure():
    # every weight must be the product of its three provenance factors
    reg = circle_region()
    q_order, p_order = 6, 4
    rule = spectral_rule(reg, q_order, p_order)
    base = gauss_legendre(q_order, (0.0, 1.0))
    c = region_constant_C(reg)
    curves = reg.curves
    for idx in range(0, len(rule), 7):
        ci, q, z = rule.provenance[idx]
        s = base.nodes[q]
        gamma_q = base.weights[q]
        pt = eval_curve(curves[ci], s)
        drv = eval_curve_derivative(curves[ci], s)
        layer = gauss_legendre(p_order, (c, pt[1]))
        w = gamma_q * layer.weights[z] * (-drv[0])
        assert abs(w - rule.weights[idx]) <= 1e-15 * max(1e-300, abs(rule.weights[idx]))
        assert abs(rule.points[idx, 0] - pt[0]) < 1e-14
        assert abs(rule.points[idx, 1] - layer.nodes[z]) < 1e-14


def test_degenerate_layer_keeps_counts():
    # the bottom edge of the square sits at the constant height: its layer
    # segments are zero length, weights zero, but points still emitted
    reg = square_region()
    rule = spectral_rule(reg, 5, 3)
    assert len(rule) == 4 * 5 * 3
    bottom = rule.provenance[:, 0] == 0
    assert np.allclose(rule.weights[bottom], 0.0)


def test_integrate_rejects_nonfinite():
    rule = spectral_rule(square_region(), 4, 4)
    with pytest.raises(QuadratureError, match="node"):
        integrate2d(rule, lambda x, y: 1.0 / (x - x))


def test_apply_rejects_complex_values():
    rule = spectral_rule(circle_region(), 2, 2)
    complex_valued = (lambda x, y: x + 1j, lambda x, y: 1j, lambda x, y: (x + 0j).tolist())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for f in complex_valued:
            with pytest.raises(QuadratureError, match="^integrand returned complex values$"):
                integrate2d(rule, f)
        # real values still take the one float conversion
        x = rule.points[:, 0]
        assert integrate2d(rule, lambda x, y: x * x) == float(np.dot(rule.weights, x * x))
        assert integrate2d(rule, lambda x, y: 2) == float(np.dot(rule.weights, np.full(len(rule), 2.0)))


# the 16-node unit-square rule: nodes 8..11 lie on the top edge with weight
# 0.25, the other 12 on the bottom and the sides with weight -0.0
_NODE_TEXT = {
    0: "node 0 (curve 0, q 0, zeta 0), point (0.21132486540518713, 0)",
    1: "node 1 (curve 0, q 0, zeta 1), point (0.21132486540518713, 0)",
    8: "node 8 (curve 2, q 0, zeta 0), point (0.78867513459481287, 0.21132486540518713)",
    11: "node 11 (curve 2, q 1, zeta 1), point (0.21132486540518713, 0.78867513459481287)",
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("nodes, first", [((0,), 0), ((8,), 8), ((11,), 11), ((11, 1), 1)])
def test_apply_names_the_first_non_finite_node(nodes, first, bad):
    rule = spectral_rule(square_region(), 2, 2)
    assert rule.weights[0] == 0 and rule.weights[8] == 0.25

    def f(x, y):
        vals = np.ones_like(x)
        vals[list(nodes)] = bad
        return vals

    with pytest.raises(QuadratureError) as err:
        integrate2d(rule, f)
    assert str(err.value) == "integrand is not finite at " + _NODE_TEXT[first]


def test_apply_returns_a_sum_that_overflowed_from_finite_values():
    rule = spectral_rule(square_region((0, 0), (4, 4)), 2, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert integrate2d(rule, lambda x, y: np.full_like(x, 1e308)) == math.inf
        assert integrate2d(rule, lambda x, y: -1e308) == -math.inf
        assert math.isnan(integrate2d(rule, lambda x, y: np.where(x > 2, 1e308, -1e308)))


def test_apply_broadcasts_a_scalar_and_refuses_a_wrong_shape():
    rule = spectral_rule(square_region(), 2, 2)
    assert integrate2d(rule, lambda x, y: 2.5) == 2.5
    assert integrate2d(rule, lambda x, y: np.float32(0.5)) == 0.5
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(QuadratureError) as err:
            integrate2d(rule, lambda x, y: bad)
        assert str(err.value) == "integrand is not finite at " + _NODE_TEXT[0]
    for wrong in (np.ones(3), np.ones((len(rule), 1)), np.ones(len(rule) + 1)):
        with pytest.raises(ValueError):
            integrate2d(rule, lambda x, y: wrong)
    empty = planar.Rule2D(np.zeros((0, 2)), np.zeros(0), np.zeros((0, 3), int))
    for f in (lambda x, y: x, lambda x, y: 1.0):
        value = integrate2d(empty, f)
        assert value == 0.0 and type(value) is float


def test_order_validation():
    with pytest.raises(ValidationError):
        spectral_rule(circle_region(), 0, 5)
    with pytest.raises(ValidationError):
        spectral_pe_rule(circle_region(), -1)


def test_open_loop_rejected():
    a = RationalBezierCurve([(0, 0), (1, 0)], [1, 1])
    b = RationalBezierCurve([(1, 0.5), (0, 0)], [1, 1])  # gap of 0.5
    with pytest.raises(ValidationError, match="gap"):
        PlanarRegion(((a, b),))


_OPEN_AT_SCALE = {
    1e200: "loops[0]: curve 2 ends at (1e+200, 1.5e+200) but curve 0 starts at (1e+200, 1e+200) "
    "(gap 5.000e+199, tolerance 1.118e+190)",
    1e300: "loops[0]: curve 2 ends at (1e+300, 1.5e+300) but curve 0 starts at (1e+300, 1e+300) "
    "(gap 5.000e+299, tolerance 1.118e+290)",
    # the gap, 2e308, is past the float range
    1e308: "loops[0]: curve 2 ends at (-1e+308, 1e+308) but curve 0 starts at (-1e+308, -1e+308) "
    "(gap inf, tolerance 2.828e+298)",
}


@pytest.mark.parametrize("scale", [1e200, 1e300, 1e308])
def test_closure_check_does_not_overflow(scale):
    # the closure tolerance scales with the control box diagonal, whose
    # squared coordinates overflow at this scale: the open loop passed.
    # At 1e308 the corners span the float range, so even their differences
    # overflow unless halved first
    corners = [(-1, -1), (1, -1), (1, 1)] if scale == 1e308 else [(1, 1), (2, 1), (1.5, 1.5)]
    closed = polygon_loop([(scale * x, scale * y) for x, y in corners])
    a, b, _ = closed
    (x0, _), _, (x2, y2) = corners
    c = RationalBezierCurve([(x2 * scale, y2 * scale), (x0 * scale, y2 * scale)], [1, 1])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        PlanarRegion((closed,))
        with pytest.raises(ValidationError) as err:
            PlanarRegion(((a, b, c),))
    assert str(err.value) == _OPEN_AT_SCALE[scale]


def test_non_finite_vertex_rejected():
    # a NaN gap compares False against the closure tolerance, so the
    # curve itself has to refuse it
    with pytest.raises(ValidationError, match="must be finite"):
        PlanarRegion((polygon_loop([(0, 0), (1, 0), (math.nan, 1)]),))


@pytest.mark.parametrize(
    "loop,message",
    [
        ((quarter_arc(), 5), "loops[0][1]: need a RationalBezierCurve, got int"),
        (
            (RationalBezierCurve([(0, 0, 0), (1, 0, 0)], [1.0, 1.0]),),
            "loops[0][0]: need a planar curve, got dimension 3",
        ),
    ],
    ids=["non-curve", "3d-curve"],
)
def test_region_loops_hold_planar_curves(loop, message):
    with pytest.raises(ValidationError) as err:
        PlanarRegion((loop,))
    assert str(err.value) == message


def test_empty_region_rejected():
    with pytest.raises(ValidationError):
        PlanarRegion(())
    with pytest.raises(ValidationError):
        PlanarRegion(((),))


def _rule_bytes(rule):
    return [a.tobytes() for a in (rule.points, rule.weights, rule.provenance)]


def _count_calls(monkeypatch, *names):
    calls = dict.fromkeys(names, 0)
    for name in names:
        fn = getattr(planar, name)

        def counted(*args, _name=name, _fn=fn, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(planar, name, counted)
    return calls


@pytest.mark.parametrize("make", [circle_region, annulus_region], ids=["circle", "annulus"])
def test_pe_memo_warm_equals_cold(monkeypatch, make):
    region = make()
    _weights_rule.cache_clear()
    cold = [_rule_bytes(spectral_pe_rule(region, k)) for k in range(9)]
    calls = _count_calls(monkeypatch, "rational_rule", "weight_poly_roots")
    warm = [_rule_bytes(spectral_pe_rule(region, k)) for k in range(9)]
    assert warm == cold
    assert calls == {"rational_rule": 0, "weight_poly_roots": 0}


def test_pe_memo_keyed_on_weights_and_degree():
    _weights_rule.cache_clear()
    spectral_pe_rule(circle_region(), 4)
    assert _weights_rule.cache_info().currsize == 1  # four congruent arcs
    moved = spectral_pe_rule(circle_region(center=(3.0, -2.0), radius=0.5), 4)
    assert _weights_rule.cache_info().currsize == 1
    assert area(moved) == pytest.approx(PI * 0.25, rel=1e-13)
    spectral_pe_rule(circle_region(), 5)
    assert _weights_rule.cache_info().currsize == 2
    # Mobius reparametrization: same arc, weights times (1, c, c^2)
    arc = circle_region().curves[0]
    c = 1.7
    reparam = arc.weights * np.array([1.0, c, c * c])
    _pe_intermediate_rule(reparam, 4)
    assert _weights_rule.cache_info().currsize == 3
    assert _pe_intermediate_rule(reparam, 4) is _pe_intermediate_rule(reparam, 4)


def test_pe_memo_is_bounded():
    _weights_rule.cache_clear()
    maxsize = _weights_rule.cache_info().maxsize
    for i in range(maxsize + 50):
        _pe_intermediate_rule(np.full(3, 1.0 + i), 2)
    assert _weights_rule.cache_info().currsize <= maxsize


def test_pe_memo_does_not_cache_errors(monkeypatch):
    # w(0) = 1e-12 puts a real pole 5e-13 left of the interval
    curve = RationalBezierCurve([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)], [1e-12, 1.0, 1.0])
    _weights_rule.cache_clear()
    calls = _count_calls(monkeypatch, "rational_rule")
    for expected in (1, 2):
        with pytest.raises(ValidationError, match="within 1e-08"):
            _pe_intermediate_rule(curve.weights, 3)
        assert calls["rational_rule"] == expected
    assert _weights_rule.cache_info().currsize == 0


def test_pe_memo_warm_call_still_warns():
    # degree-21 arcs: converting their weights to monomials warns once per
    # curve on every call, whether or not the rule comes from the cache
    region = PlanarRegion((tuple(elevated(c, 19) for c in circle_region().curves),))
    _weights_rule.cache_clear()
    for _ in range(2):
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            rule = spectral_pe_rule(region, 3)
        assert [str(w.message) for w in seen] == 4 * [
            "basis conversion at degree 21 amplifies rounding by roughly 10^10"
        ]
        assert area(rule) == pytest.approx(PI, rel=1e-12)
    assert _weights_rule.cache_info()[:2] == (3 + 4, 1)  # hits, misses


# ------------------------------------------------------------ standard form


def _rescaled(region, cs, scales=(1.0,)):
    """``region`` with the weights of curve j times (s, s c, s c^2, ...),
    c = cs[j % len(cs)] and s = scales[j % len(scales)]: every curve
    Moebius-reparametrized, the same trace."""
    n = len(region.curves)
    pairs = zip(np.resize(cs, n), np.resize(scales, n))
    return PlanarRegion(
        tuple(
            tuple(
                RationalBezierCurve(crv.points, crv.weights * np.cumprod([s] + [c] * crv.degree))
                for crv, (c, s) in zip(loop, pairs)
            )
            for loop in region.loops
        )
    )


def _cubic_loop():
    # one closed rational cubic, end weights 1 and 3
    pts = [(0.0, 0.0), (2.0, -1.0), (2.0, 2.0), (0.0, 0.0)]
    return PlanarRegion(((RationalBezierCurve(pts, [1.0, 2.0, 0.5, 3.0]),),))


@pytest.mark.parametrize(
    "make, inner, counts",
    [(circle_region, 0.0, [180, 460, 1404]), (annulus_region, 0.5, [360, 920, 2808])],
    ids=["circle", "annulus"],
)
def test_pe_rescaled_arcs_exact_to_rounding(make, inner, counts):
    region = _rescaled(make(), (0.5, 2.0, 0.7, 1.6))
    for k, count in zip((4, 8, 16), counts):
        got = geometric_moments(region, k)
        want = [exact.annulus_moment(a, b, 0.0, 0.0, 1.0, inner) for a, b in got.exponents]
        assert np.max(np.abs(got.values - want)) < 1e-14, k
        assert len(spectral_pe_rule(region, k)) == len(spectral_pe_rule(make(), k)) == count


def test_pe_memo_shares_rescaled_arcs():
    _weights_rule.cache_clear()
    spectral_pe_rule(circle_region(), 6)
    canonical = _weights_rule.cache_info().currsize
    rng = np.random.default_rng(12)
    for cs in rng.uniform(0.5, 2.0, (50, 4)):
        spectral_pe_rule(_rescaled(circle_region(), cs), 6)
    assert _weights_rule.cache_info().currsize <= canonical + 3


def test_standard_form_matches_raw_weight_rule():
    # the memoized rule of the standard form against the rule built on the
    # curves' own weights: same moments to rounding, never more nodes
    rng = np.random.default_rng(101)
    regions = [random_quadratic_region(rng) for _ in range(8)] + [_cubic_loop()]
    for region in regions:
        curves, base = region.curves, region_constant_C(region)
        for k in range(17):
            layer_order = max(1, math.ceil((k + 1) / 2))
            rules = [_pe_intermediate_rule(c.weights, k) for c in curves]
            raw = _region_rule(*_net(curves), rules, base, layer_order)
            rule = spectral_pe_rule(region, k)
            exps = monomial_exponents(k, 2)
            want = raw.weights @ _monomials(raw.points, exps)
            got = rule.weights @ _monomials(rule.points, exps)
            assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want))), k
            assert len(rule) <= len(raw)


def test_standard_form_keeps_trace_and_orientation():
    curve = _cubic_loop().curves[0]
    weights = curve.weights[None]
    before = weights.tobytes()
    std = RationalBezierCurve(curve.points, _standard_form(weights)[0])
    assert std.weights[0] == std.weights[-1] == 1.0
    assert weights.tobytes() == before
    # weights w_i a^i / w_0 with a = (w_0 / w_m)^(1/m): the curve at
    # s = a t / (a t + 1 - t), increasing in t
    a = (curve.weights[0] / curve.weights[-1]) ** (1 / 3)
    t = np.linspace(0.0, 1.0, 11)
    s = a * t / (a * t + 1 - t)
    assert np.allclose(eval_curve(std, t), eval_curve(curve, s), rtol=0, atol=1e-14)


def test_standard_form_returns_curve_unchanged():
    pts = [(0.0, 0.0), (1.0, 1.0), (2.0, 0.0)]
    kept = (
        quarter_arc(),
        RationalBezierCurve(pts + [(3.0, 1.0)], [2.0, 1.0, 3.0, 2.0]),
        # the middle weight would overflow in standard form
        RationalBezierCurve(pts, [1e-300, 1e308, 1.0]),
    )
    for curve in kept:
        weights = curve.weights[None]
        assert _standard_form(weights) is weights
    # beside a row that moves, each kept row keeps its bytes
    moved = np.array([4.0, 1.0, 1.0])
    stack = np.stack([kept[0].weights, moved, kept[2].weights])
    std = _standard_form(stack)
    assert std[0].tobytes() == stack[0].tobytes() and std[2].tobytes() == stack[2].tobytes()
    assert std[1].tolist() == [1.0, 0.5, 1.0]


def _half_disk():
    chord = RationalBezierCurve([(-1.0, 0.0), (1.0, 0.0)], [1.0, 1.0])
    return PlanarRegion(((quarter_arc(quadrant=0), quarter_arc(quadrant=1), chord),))


@pytest.mark.parametrize("k", range(9))
def test_region_rule_numbers_each_curve_from_zero(k):
    # two rational arcs and a polynomial chord get different node counts
    rule = spectral_pe_rule(_half_disk(), k)
    layer_order = max(1, math.ceil((k + 1) / 2))
    curve, q, zeta = rule.provenance.T
    counts = np.bincount(curve, minlength=3) // layer_order
    if k == 0:
        assert counts.tolist() == [7, 7, 2]
    assert counts[0] == counts[1] != counts[2]
    for i in range(3):
        mine = curve == i
        assert q[mine].tolist() == np.repeat(np.arange(counts[i]), layer_order).tolist()
        assert zeta[mine].tolist() == np.tile(np.arange(layer_order), counts[i]).tolist()
    assert zeta.min() == 0 and zeta.max() < layer_order
    # integral of y^k over the upper half disk, S_k / (k+2) with S_k the
    # integral of sin^k over [0, pi]: half the disk moment for even k; for
    # odd k, from S_(k-1) = (k+1) m(0, k-1) / 2 by Wallis' S_k S_(k-1) = 2 pi / k
    m = exact.unit_disk_moment(0, k - k % 2)
    want = 4 * PI / (k * (k + 1) * (k + 2) * m) if k % 2 else m / 2
    got = integrate2d(rule, lambda x, y: y**k)
    assert got == pytest.approx(want, rel=1e-13, abs=1e-15)


@pytest.mark.parametrize("m, n", [(1, 1), (3, 2), (6, 6)])
def test_parametric_area_rule_is_the_unit_square_spectral_rule(m, n):
    # both lift from height 0 over the same four edges
    para = parametric_area_rule([unit_square_loop()], m, n)
    square = spectral_rule(square_region(), m, n)
    assert para.columns == square.columns and _rule_bytes(para) == _rule_bytes(square)


def _per_curve_rule_bytes(curves, rules, base, layer_order):
    """The region rule assembled curve by curve, as before the batched
    pass: one eval_curve and one eval_curve_derivative call per curve."""
    pairs = list(zip(curves, rules))
    points = np.vstack([eval_curve(c, r.nodes) for c, r in pairs])
    factor = -np.concatenate([eval_curve_derivative(c, r.nodes)[:, 0] for c, r in pairs])
    w = np.concatenate([r.weights for r in rules])
    owner = np.repeat(np.arange(len(pairs)), [len(r) for r in rules])
    lifted, seg_w, prov = _lift(points, owner, base, layer_order)
    weights = ((w[:, None] * seg_w.reshape(w.size, -1)) * factor[:, None]).ravel()
    return [lifted.tobytes(), weights.tobytes(), prov.tobytes()]


def _ref_lift(points, owner, base, order, *factors):
    """The point-major z-lift that the one-block one replaced: (k, order,
    dim) points, z as mid + half * x, weights half * w times each factor
    in turn, (k, order, 3) provenance."""
    k, dim = points.shape
    x, w = np.polynomial.legendre.leggauss(order)
    lo, hi = np.full(k, base)[:, None], points[:, -1][:, None]
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    lifted = np.empty((k, order, dim))
    lifted[:, :, :-1] = points[:, None, :-1]
    lifted[:, :, -1] = mid + half * x
    prov = np.empty((k, order, 3), dtype=np.int64)
    prov[:, :, 0] = owner[:, None]
    prov[:, :, 1] = (np.arange(k) - np.searchsorted(owner, owner))[:, None]
    prov[:, :, 2] = np.arange(order)
    weights = half * w
    for f in factors:
        weights = weights * f[:, None]
    return lifted.reshape(-1, dim), weights.ravel(), prov.reshape(-1, 3)


@pytest.mark.parametrize("order", [1, 24])
@pytest.mark.parametrize("dim", [2, 3])
def test_lift_matches_point_major_reference(order, dim):
    rng = np.random.default_rng(10 * order + dim)
    owner = np.repeat([0, 2, 3, 7], [5, 1, 9, 4])
    points = rng.uniform(-1.0, 2.0, size=(owner.size, dim))
    factors = rng.uniform(0.5, 2.0, size=(dim - 1, owner.size))
    base = -1.25
    flat = [0, 5, 14]
    points[flat, -1] = base
    got = _lift(points, owner, base, order, *factors)
    for g, ref in zip(got, _ref_lift(points, owner, base, order, *factors)):
        assert g.shape == ref.shape and g.tobytes() == ref.tobytes()
    seg_w = got[1].reshape(owner.size, order)
    assert not seg_w[flat].any() and seg_w[np.setdiff1d(np.arange(owner.size), flat)].all()
    assert not any(g.flags.writeable for g in got)


def _mixed_degree_loop():
    # degrees 2, 3, 21 and 1 around one loop
    cubic = RationalBezierCurve([(0, 1), (-0.5, 1.2), (-1.2, 0.5), (-1, 0)], [1.0, 0.7, 1.3, 2.0])
    line = RationalBezierCurve([(0, -1), (1, 0)], [1.0, 1.0])
    arcs = quarter_arc(quadrant=0), elevated(quarter_arc(quadrant=2), 19)
    return PlanarRegion(((arcs[0], cubic, arcs[1], line),))


def _net(curves):
    """The control points and the weights of ``curves``, as ``_region_rule`` takes them."""
    return [c.points for c in curves], [c.weights for c in curves]


def test_region_rule_equals_per_curve_assembly():
    rng = np.random.default_rng(23)
    mixed = _mixed_degree_loop().curves
    assert [c.degree for c in mixed] == [2, 3, 21, 1]
    cases = [(mixed, [gauss_legendre(n, (0.0, 1.0)) for n in (3, 5, 2, 4)])]
    for region in (annulus_region(), random_quadratic_region(rng), _cubic_loop()):
        curves = [_ref_standard_form(c) for c in region.curves]
        cases += [(curves, [_pe_intermediate_rule(c.weights, k) for c in curves]) for k in (0, 5, 12)]
        cases.append((region.curves, [gauss_legendre(6, (0.0, 1.0))] * len(curves)))
    for curves, rules in cases:
        for base, layer_order in ((-1.5, 3), (0.0, 1)):
            got = _region_rule(*_net(curves), rules, base, layer_order)
            assert _rule_bytes(got) == _per_curve_rule_bytes(curves, rules, base, layer_order)


def _ref_standard_form(curve):
    """The per-curve standard form that the stacked one replaced: a new
    curve, kept as it is when its end weights are equal or the rescaled
    weights are refused."""
    w = curve.weights
    if w[0] == w[-1]:
        return curve
    m = w.size - 1
    i = np.arange(m + 1)
    with np.errstate(all="ignore"):
        scaled = w / (w[0] ** ((m - i) / m) * w[-1] ** (i / m))
    scaled[[0, -1]] = 1.0
    try:
        return RationalBezierCurve(curve.points, scaled)
    except ValidationError:
        return curve


def _ref_pe_rule(region, k):
    """The bytes of the points, weights and provenance of
    ``spectral_pe_rule(region, k)`` as built curve by curve: each curve in
    the reference standard form, each evaluated by eval_curve."""
    curves = [_ref_standard_form(c) for c in region.curves]
    rules = [_pe_intermediate_rule(c.weights, k) for c in curves]
    layer_order = max(1, math.ceil((k + 1) / 2))
    return _per_curve_rule_bytes(curves, rules, region_constant_C(region), layer_order)


def _standard_form_cases():
    rng = np.random.default_rng(37)
    cases = {}
    for name, make in (
        ("circle", circle_region),
        ("clockwise-circle", lambda: circle_region(clockwise=True)),
        ("annulus", annulus_region),
    ):
        for j in range(3):
            region = make()
            cs, scales = rng.uniform(0.5, 2.0, (2, len(region.curves)))
            # the first of each shape keeps w_0 = 1
            cases[f"{name}-{j}"] = _rescaled(region, cs, scales if j else (1.0,))
    cs, scales = rng.uniform(0.5, 2.0, (2, 4))
    cases["mixed"] = _rescaled(_mixed_degree_loop(), cs, scales)
    cases["equal-ends"] = PlanarRegion(((
        quarter_arc(quadrant=0),
        RationalBezierCurve([(0.0, 1.0), (-1.0, 1.0), (-1.0, 0.0)], [2.0, 0.5, 2.0]),
        RationalBezierCurve([(-1.0, 0.0), (0.0, 0.0), (1.0, 0.0)], [1.0, 3.0, 1.0]),
    ),))
    return cases


def test_batched_standard_form_matches_per_curve_reference():
    pts = [(0.0, 0.0), (1.0, 1.0), (2.0, 0.0)]
    overflow = RationalBezierCurve(pts, [1e-300, 1e308, 1.0])
    for name, region in _standard_form_cases().items():
        curves = region.curves
        for degree in {c.degree for c in curves}:
            group = [c for c in curves if c.degree == degree]
            if degree == 2:
                group.append(overflow)  # kept beside the rows that move
            std = _standard_form(np.stack([c.weights for c in group]))
            for row, c in zip(std, group):
                assert row.tobytes() == _ref_standard_form(c).weights.tobytes(), name


@pytest.mark.parametrize("name", list(_standard_form_cases()))
def test_batched_pe_rule_matches_per_curve_reference(name):
    region = _standard_form_cases()[name]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the mixed loop's degree-21 arc
        for k in range(17):
            rule = spectral_pe_rule(region, k)
            assert _rule_bytes(rule) == _ref_pe_rule(region, k), k
        for p in (0, 4, 9):
            want = _ref_pe_rule(region, p)
            points = np.frombuffer(want[0]).reshape(-1, 2)
            sums = _moment_sums(points, np.frombuffer(want[1]), p)
            assert geometric_moments(region, p).values.tobytes() == sums.tobytes(), p


@pytest.mark.parametrize(
    "region, batches",
    [(_rescaled(annulus_region(), (0.5, 2.0, 0.7, 1.6)), 1),
     (_rescaled(_mixed_degree_loop(), (1.7, 0.6, 1.3, 0.8)), 4)],
    ids=["annulus", "mixed-degrees"],
)
def test_pe_assembly_builds_no_curve(monkeypatch, region, batches):
    # the standard form works on stacked weights and the curves of one
    # degree are evaluated as one stack: no curve is built, one kernel
    # call per degree
    built = []
    init = RationalBezierCurve.__post_init__

    def counted(curve):
        built.append(curve)
        init(curve)

    monkeypatch.setattr(RationalBezierCurve, "__post_init__", counted)
    calls = _count_calls(monkeypatch, "_curve_point_derivative")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the mixed loop's degree-21 arc
        spectral_pe_rule(region, 8)
        assert calls["_curve_point_derivative"] == batches
        geometric_moments(region, 6)
        assert calls["_curve_point_derivative"] == 2 * batches
    assert built == []


_SPAN = square_region((-1e308,) * 2, (1e308,) * 2)  # an edge of 2e308 is beyond float64


@pytest.mark.parametrize(
    "build, at, bad",
    [
        (lambda: spectral_pe_rule(circle_region((0, 0), 1e155), 2), "weights[6]", "inf"),
        (lambda: geometric_moments(circle_region((0, 0), 1e155), 2), "weights[6]", "inf"),
        (lambda: spectral_rule(square_region((0, 0), (1e200, 1e200)), 2, 2), "weights[8]", "inf"),
        (lambda: spectral_pe_rule(_SPAN, 2), "points[0][1]", "-inf"),
        (lambda: geometric_moments(_SPAN, 2), "points[0][1]", "-inf"),
        (lambda: spectral_rule(_SPAN, 2, 2), "points[0][1]", "-inf"),
    ],
    ids=["pe", "moments", "spectral", "span-pe", "span-moments", "span-spectral"],
)
def test_weight_overflow_is_refused_as_one(build, at, bad):
    # finite geometry whose rule weights, or whose hodograph and lifted
    # points, exceed float64: no numpy warning, and the refusal says the
    # built rule overflowed
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError) as err:
            build()
    assert str(err.value) == f"the built rule overflowed float64: {at}: must be finite, got {bad}"


# ------------------------------------------------------------ array ownership


def _rule_arrays(rule):
    names = ("points", "weights", "provenance", "preimages")
    return {n: getattr(rule, n) for n in names if getattr(rule, n) is not None}


def test_rule_copies_writeable_input():
    pts = np.arange(8.0).reshape(4, 2)
    wts = np.ones(4)
    prov = np.zeros((4, 3), dtype=np.int64)
    rule = planar.Rule2D(pts, wts, prov)
    pts[0, 0], wts[0], prov[0, 0] = 99.0, 5.0, 7
    assert rule.points[0, 0] == 0.0 and rule.weights[0] == 1.0 and rule.provenance[0, 0] == 0
    assert pts.flags.writeable and wts.flags.writeable and prov.flags.writeable
    for mine, theirs in zip((rule.points, rule.weights, rule.provenance), (pts, wts, prov)):
        assert not np.shares_memory(mine, theirs)


def test_rule_copies_read_only_view_of_writeable_base():
    base = np.ones(4)
    view = base[:]
    view.flags.writeable = False
    rule = planar.Rule2D(np.zeros((4, 2)), view, np.zeros((4, 3), dtype=np.int64))
    assert not np.shares_memory(rule.weights, base)
    base[:] = 5.0
    assert np.all(rule.weights == 1.0)


def test_rule_shares_fully_read_only_input():
    wts = np.ones(4)
    wts.flags.writeable = False
    rule = planar.Rule2D(np.zeros((4, 2)), wts, np.zeros((4, 3), dtype=np.int64))
    assert np.shares_memory(rule.weights, wts)
    # a dtype change still copies
    as_int32 = np.zeros((4, 3), dtype=np.int32)
    as_int32.flags.writeable = False
    rule = planar.Rule2D(np.zeros((4, 2)), wts, as_int32)
    assert rule.provenance.dtype == np.int64 and not np.shares_memory(rule.provenance, as_int32)


def _built_rules():
    from bezquad.shapes import box_solid, cylinder_solid, cylinder_solid_fitted, flip_solid
    from bezquad.surface import TrimmedPatch, boundary_rule
    from bezquad.volume import volume_rule

    cyl = cylinder_solid()
    return {
        "fitted volume": volume_rule(cylinder_solid_fitted(segments=6), 3, 4, 2),
        "flipped volume": volume_rule(flip_solid(box_solid()), 3, 3),
        "spectral": spectral_rule(circle_region(), 4, 3),
        "pe": spectral_pe_rule(annulus_region(), 3),
        "parametric": parametric_area_rule([unit_square_loop()], 3, 2),
        "surface": boundary_rule((cyl.patches[4],), 3, 3),
        "untrimmed": boundary_rule((cyl.patches[0].patch,), 3, 3),
        "looped": boundary_rule((TrimmedPatch(cyl.patches[0].patch, (unit_square_loop(),)),), 3, 3),
        "patch": boundary_rule((cyl.patches[5],), 3, 4, "z-normal"),
        "boundary": boundary_rule(cyl.patches, 3, 3),
        "volume": volume_rule(cyl, 3, 3, 2),
    }


def test_built_rule_arrays_are_read_only():
    for name, rule in _built_rules().items():
        for field, a in _rule_arrays(rule).items():
            assert not a.flags.writeable, (name, field)
            with pytest.raises(ValueError):
                a.flat[0] = 0


def test_rewrapping_rule_arrays_shares_memory():
    from bezquad.surface import SurfaceRule
    from bezquad.volume import Rule3D

    rules = _built_rules()
    v = rules["volume"]
    again = Rule3D(v.points, v.weights, v.provenance)
    b = rules["boundary"]
    pairs = [
        (v, again),
        (b, SurfaceRule(b.points, b.weights, b.preimages, b.provenance, b.degenerate_count)),
    ]
    for name in ("spectral", "pe", "parametric"):
        r = rules[name]
        pairs.append((r, planar.Rule2D(r.points, r.weights, r.provenance)))
    for old, new in pairs:
        for field, a in _rule_arrays(old).items():
            assert np.shares_memory(getattr(new, field), a), field
            assert getattr(new, field).tobytes() == a.tobytes()
    for name, r in rules.items():
        again = planar.Rule(r.points, r.weights, r.provenance, r.columns, r.preimages)
        for field, a in _rule_arrays(r).items():
            assert np.shares_memory(getattr(again, field), a), (name, field)


def _owner(a):
    while a.base is not None:
        a = a.base
    return a


def test_lifted_rule_arrays_are_views_of_one_read_only_block():
    from bezquad.shapes import cylinder_solid
    from bezquad.volume import Rule3D, volume_rule

    cyl = cylinder_solid()
    rules = {
        "spectral": spectral_rule(circle_region(), 4, 3),
        "pe": spectral_pe_rule(annulus_region(), 3),
        "parametric": parametric_area_rule([unit_square_loop()], 3, 2),
        "volume pz": volume_rule(cyl, 3, 3, pz=-0.5),
        "volume n_p": volume_rule(cyl, 3, 4, 5),
    }
    for name, r in rules.items():
        arrays = (r.points, r.weights, r.provenance)
        owners = {id(_owner(a)) for a in arrays}
        assert len(owners) == 1, name
        block = _owner(r.weights)
        assert block.flags.owndata and not block.flags.writeable, name
        wrap = Rule3D if r.dim == 3 else planar.Rule2D
        again = wrap(*arrays)
        for a, b in zip(arrays, (again.points, again.weights, again.provenance)):
            assert b is a, name


def test_built_rule_layout_gives_contiguous_copy_bytes():
    # built points and provenance are (n, dim) views of (dim, n) buffers;
    # everything read from a rule is the same on row-major copies
    from bezquad.io import _rule_csv_blocks

    def cubic(*xs):
        return sum((j + 1.5) * x**3 - x * xs[0] + 0.25 for j, x in enumerate(xs))

    for name, r in _built_rules().items():
        assert r.points.T.flags.c_contiguous and r.provenance.T.flags.c_contiguous, name
        copy = planar.Rule(
            np.ascontiguousarray(r.points), r.weights, np.ascontiguousarray(r.provenance),
            r.columns, r.preimages, r.degenerate_count,
        )
        assert copy.points.flags.c_contiguous and copy.provenance.flags.c_contiguous
        values = [np.float64(planar.apply(x, cubic)).tobytes() for x in (r, copy)]
        assert values[0] == values[1], name
        exps = monomial_exponents(4, r.dim)
        moments = [(x.weights @ _monomials(x.points, exps)).tobytes() for x in (r, copy)]
        assert moments[0] == moments[1], name
        assert "".join(_rule_csv_blocks(r)) == "".join(_rule_csv_blocks(copy)), name
