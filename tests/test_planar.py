import math
import warnings

import numpy as np
import pytest
import scipy.special

from bezquad.bezier import RationalBezierCurve, control_bbox, eval_curve, eval_curve_derivative
import bezquad.planar as planar
from bezquad.errors import QuadratureError, ValidationError
from bezquad.planar import (
    PlanarRegion,
    _pe_intermediate_rule,
    _weights_rule,
    integrate2d,
    is_polynomial_curve,
    region_constant_C,
    spectral_pe_rule,
    spectral_rule,
)
from bezquad.quad1d import gauss_legendre
from bezquad.shapes import annulus_region, circle_region, quarter_arc, square_region
from bezquad.surface import parametric_area_rule, unit_square_loop

from conftest import random_quadratic_region

PI = math.pi

# area integral of exp(x + y) over the unit disk, via the Bessel identity
EXP_DISK = 2 * PI * scipy.special.iv(1, math.sqrt(2)) / math.sqrt(2)


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


def test_spectral_pe_monomial_exactness_by_degree():
    reg = circle_region()
    # disk monomial integrals: zero unless both exponents even, else a
    # beta-function value
    def exact(a, b):
        if a % 2 or b % 2:
            return 0.0
        return 2 * math.gamma((a + 1) / 2) * math.gamma((b + 1) / 2) / (
            (a + b + 2) * math.gamma((a + b) / 2 + 1)
        )

    for k in (1, 2, 3, 4):
        rule = spectral_pe_rule(reg, k)
        for a in range(k + 1):
            for b in range(k - a + 1):
                got = integrate2d(rule, lambda x, y: x**a * y**b)
                assert abs(got - exact(a, b)) < 1e-10 * max(1.0, abs(exact(a, b)))


def test_spectral_pe_square_polynomial_curves():
    reg = square_region()
    for k in (0, 1, 2, 3):
        rule = spectral_pe_rule(reg, k)
        for a in range(k + 1):
            for b in range(k - a + 1):
                got = integrate2d(rule, lambda x, y: x**a * y**b)
                exact = 1.0 / ((a + 1) * (b + 1))
                assert abs(got - exact) < 1e-12


def test_polynomial_curve_detection():
    assert is_polynomial_curve(RationalBezierCurve([(0, 0), (1, 0)], [2.0, 2.0]))
    assert not is_polynomial_curve(
        RationalBezierCurve([(0, 0), (1, 1), (2, 0)], [1, 0.8, 1])
    )


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
        box = control_bbox(reg).inflated(1e-12)
        for rule in (spectral_rule(reg, 8, 8), spectral_pe_rule(reg, 2)):
            assert box.contains(rule.points)


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
    reparam = RationalBezierCurve(arc.points, arc.weights * np.array([1.0, c, c * c]))
    _pe_intermediate_rule(reparam, 4)
    assert _weights_rule.cache_info().currsize == 3
    assert _pe_intermediate_rule(reparam, 4) is _pe_intermediate_rule(reparam, 4)


def test_pe_memo_is_bounded():
    _weights_rule.cache_clear()
    maxsize = _weights_rule.cache_info().maxsize
    pts = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)]
    for i in range(maxsize + 50):
        _pe_intermediate_rule(RationalBezierCurve(pts, np.full(3, 1.0 + i)), 2)
    assert _weights_rule.cache_info().currsize <= maxsize


def test_pe_memo_does_not_cache_errors(monkeypatch):
    # w(0) = 1e-12 puts a real pole 5e-13 left of the interval
    curve = RationalBezierCurve([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)], [1e-12, 1.0, 1.0])
    _weights_rule.cache_clear()
    calls = _count_calls(monkeypatch, "rational_rule")
    for expected in (1, 2):
        with pytest.raises(ValidationError, match="within 1e-08"):
            _pe_intermediate_rule(curve, 3)
        assert calls["rational_rule"] == expected
    assert _weights_rule.cache_info().currsize == 0


def _elevate(curve, times):
    # degree elevation of the homogeneous control points: same curve
    h = np.hstack([curve.points * curve.weights[:, None], curve.weights[:, None]])
    for _ in range(times):
        a = np.arange(1, len(h))[:, None] / len(h)
        h = np.vstack([h[:1], a * h[:-1] + (1 - a) * h[1:], h[-1:]])
    return RationalBezierCurve(h[:, :-1] / h[:, -1:], h[:, -1])


def test_pe_memo_warm_call_still_warns():
    # degree-21 arcs: converting their weights to monomials warns once per
    # curve on every call, whether or not the rule comes from the cache
    region = PlanarRegion((tuple(_elevate(c, 19) for c in circle_region().curves),))
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
    # integral of y^k over the upper half disk: (1/(k+2)) int_0^pi sin^k
    exact = scipy.special.beta(0.5, (k + 1) / 2) / (k + 2)
    got = integrate2d(rule, lambda x, y: y**k)
    assert got == pytest.approx(exact, rel=1e-13, abs=1e-15)


@pytest.mark.parametrize("m, n", [(1, 1), (3, 2), (6, 6)])
def test_parametric_area_rule_is_the_unit_square_spectral_rule(m, n):
    # both lift from height 0 over the same four edges
    para = parametric_area_rule([unit_square_loop()], m, n)
    square = spectral_rule(square_region(), m, n)
    assert para.columns == square.columns and _rule_bytes(para) == _rule_bytes(square)
