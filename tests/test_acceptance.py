"""End-to-end acceptance checks, one test per shipped guarantee.

Each test runs inside a stopwatch wrapper that prints a single PASS or
FAIL line into the terminal summary, so a full run reads as a ten-line
scorecard.  Tolerances and time budgets are asserted, not just printed.
"""

import functools
import math
import time

import numpy as np
import pytest
import scipy.special

from bezquad.bezier import RationalBezierCurve, RationalBezierPatch
from bezquad.expr import evaluate, parse
from bezquad.errors import EvalError
from bezquad.moments import geometric_moments, moment_fit_weights
from bezquad.planar import PlanarRegion, apply, integrate2d, spectral_pe_rule, spectral_rule
from bezquad.quad1d import (
    PoleSet,
    interval_distance,
    partial_fraction_moment,
    rational_rule,
    weight_poly_roots,
)
from bezquad.shapes import (
    box_solid,
    circle_region,
    cylinder_solid,
    cylinder_solid_fitted,
    flip_solid,
    square_region,
)
from bezquad.surface import TrimmedPatch, boundary_rule, unit_square_loop
from bezquad.volume import solid_constant_Pz, volume_rule

from conftest import (
    expr_tree_text,
    random_expr_tree,
    random_quadratic_region,
    record_acceptance,
    reference_expr_eval,
)

PI = math.pi
EXP_DISK = 2 * PI * scipy.special.iv(1, math.sqrt(2)) / math.sqrt(2)


def criterion(number, label, budget):
    """Stopwatch and scorecard wrapper; the budget is part of the test."""

    def deco(fn):
        @functools.wraps(fn)
        def run():
            start = time.perf_counter()
            try:
                fn()
                elapsed = time.perf_counter() - start
                assert elapsed < budget, f"took {elapsed:.2f}s, budget {budget:.0f}s"
            except BaseException as exc:
                note = str(exc).splitlines()[0] if str(exc) else type(exc).__name__
                record_acceptance(f"{number:2d} FAIL {label}: {note[:120]}")
                raise
            record_acceptance(f"{number:2d} PASS {label} ({elapsed:.2f}s)")

        return run

    return deco


@criterion(1, "pole recovery from circle-arc weights", budget=5.0)
def test_01_pole_recovery():
    weights = (1.0, math.sqrt(2) / 2, 1.0)
    roots = sorted(weight_poly_roots(weights), key=lambda r: r.imag)
    assert len(roots) == 2
    want = complex(0.5, 1.2071067812)
    assert abs(roots[1] - want) < 1e-10
    assert abs(roots[0] - want.conjugate()) < 1e-10
    for _ in range(5):
        weight_poly_roots(weights)  # warm caches before timing
    timings = []
    for _ in range(10):
        t0 = time.perf_counter()
        weight_poly_roots(weights)
        timings.append(time.perf_counter() - t0)
    best = min(timings)
    assert best < 1e-3, f"single call took {best * 1e3:.3f} ms"


def _cubic_polygon_region(n_curves):
    """Closed loop of rational cubics with unequal weights, so every
    curve takes the rational intermediate-rule path."""
    ang = 2 * PI * np.arange(n_curves + 1) / n_curves
    verts = np.column_stack([np.cos(ang), np.sin(ang)])
    weights = np.array([1.0, 1.3, 0.8, 1.0])
    curves = []
    for i in range(n_curves):
        p0, p3 = verts[i], verts[i + 1]
        pts = [p0, p0 + (p3 - p0) / 3, p0 + 2 * (p3 - p0) / 3, p3]
        curves.append(RationalBezierCurve(pts, weights))
    return PlanarRegion((tuple(curves),))


@criterion(2, "exact-rule point-count formula", budget=1.0)
def test_02_point_counts():
    big = _cubic_polygon_region(46)
    assert len(spectral_pe_rule(big, 2)) == 1472
    assert len(spectral_pe_rule(big, 3)) == 1748
    rule = spectral_pe_rule(circle_region(), 3)
    assert len(rule) == 104
    on_first_curve = rule.provenance[rule.provenance[:, 0] == 0]
    assert len(set(on_first_curve[:, 1])) == 13  # intermediate nodes per curve


@criterion(3, "polynomial exactness of the degree-targeted rule", budget=10.0)
def test_03_pe_exactness():
    rule = spectral_pe_rule(circle_region(), 3)
    assert abs(integrate2d(rule, lambda x, y: np.ones_like(x)) - PI) < 1e-10
    assert abs(integrate2d(rule, lambda x, y: x**2) - PI / 4) < 1e-10
    assert abs(integrate2d(rule, lambda x, y: x * y**2)) < 1e-10
    rng = np.random.default_rng(77)
    k = 3
    for _ in range(20):
        region = random_quadratic_region(rng)
        reference = spectral_rule(region, 40, 40)
        pe = spectral_pe_rule(region, k)
        for a in range(k + 1):
            for b in range(k - a + 1):
                f = lambda x, y: x**a * y**b
                want = integrate2d(reference, f)
                assert abs(integrate2d(pe, f) - want) < 1e-9 * max(1.0, abs(want))


@criterion(4, "spectral convergence of smooth planar integrals", budget=2.0)
def test_04_spectral_convergence():
    region = circle_region()
    errs = {}
    for n in range(4, 21, 2):
        value = integrate2d(spectral_rule(region, n, n), lambda x, y: np.exp(x + y))
        errs[n] = abs(value - EXP_DISK)
    assert errs[20] <= 1e-12
    for n in range(4, 15, 2):
        assert errs[n + 2] / errs[n] < 0.5, f"slow step at order {n}"


@criterion(5, "volume pipeline on cube and capped cylinder", budget=5.0)
def test_05_volumes():
    one = lambda x, y, z: np.ones_like(x)
    cube = box_solid()
    assert abs(apply(volume_rule(cube, 4, 4), one) - 1.0) < 1e-12
    assert abs(apply(volume_rule(flip_solid(cube), 4, 4), one) + 1.0) < 1e-12
    cyl = cylinder_solid()
    assert abs(apply(volume_rule(cyl, 14, 14), one) - PI) < 1e-10
    assert abs(apply(volume_rule(flip_solid(cyl), 14, 14), one) + PI) < 1e-10


@criterion(6, "tensor shortcut equals explicit boundary loop", budget=5.0)
def test_06_untrimmed_simplification():
    rng = np.random.default_rng(31)
    n = 12
    for _ in range(5):
        patch = RationalBezierPatch(
            rng.normal(size=(4, 4, 3)), rng.uniform(0.5, 2.0, size=(4, 4))
        )
        f = lambda x, y, z: np.exp(0.3 * x) + y * z
        tensor = boundary_rule((patch,), n, n)
        loop = boundary_rule((TrimmedPatch(patch, (unit_square_loop(),)),), n, n)
        assert len(tensor) == n * n
        assert len(loop) == 4 * n * n
        a = apply(tensor, f)
        b = apply(loop, f)
        assert abs(a - b) < 1e-12 * max(1.0, abs(b))


@criterion(7, "fourth-order convergence of fitted trim curves", budget=60.0)
def test_07_fitted_trim_order():
    one = lambda x, y, z: np.ones_like(x)
    segment_counts = (4, 8, 16, 32, 64)
    errs = []
    for segs in segment_counts:
        v = apply(volume_rule(cylinder_solid_fitted(segments=segs), 12, 12), one)
        errs.append(abs(v - PI))
    errs = np.array(errs)
    assert np.all(np.diff(errs) < 0)
    logs = np.log(np.asarray(segment_counts, dtype=float))
    slope = -np.linalg.lstsq(
        np.column_stack([logs, np.ones_like(logs)]), np.log(errs), rcond=None
    )[0][0]
    assert 3.5 < slope < 4.5, f"slope {slope:.3f}"

    # per level, error against the true cylinder decays with quadrature
    # order until it parks on that level's geometric floor
    true_value = (math.e - 1) * EXP_DISK
    f = lambda x, y, z: np.exp(x + y + z)
    floors = {}
    for segs in (16, 32):
        solid = cylinder_solid_fitted(segments=segs)
        err = {
            n: abs(apply(volume_rule(solid, n, n), f) - true_value)
            for n in (2, 4, 6, 8, 10, 12, 14)
        }
        floor = err[14]
        floors[segs] = floor
        assert err[2] > 50 * floor  # a genuine pre-asymptotic regime
        assert err[4] / err[2] < 0.05  # sharp decay toward the floor
        for n in (6, 8, 10, 12):
            assert 0.5 * floor <= err[n] <= 2.0 * floor  # parked on the floor
    assert 8.0 < floors[16] / floors[32] < 32.0  # floor itself is 4th order


@criterion(8, "rational rule reproduces partial-fraction moments", budget=5.0)
def test_08_rational_rule_exactness():
    rng = np.random.default_rng(6021)
    for _ in range(50):
        poles = []
        budget = int(rng.integers(2, 13))
        while budget > 0:
            mult = int(rng.integers(1, min(4, budget) + 1))
            if rng.random() < 0.6 and budget >= 2 * mult:
                p = complex(rng.uniform(-1.0, 2.0), rng.uniform(0.12, 1.5))
                if interval_distance(p) < 0.1:
                    continue
                poles += [(p, mult), (p.conjugate(), mult)]
                budget -= 2 * mult
            else:
                x = rng.uniform(0.12, 1.5)
                p = complex(-x, 0.0) if rng.random() < 0.5 else complex(1 + x, 0.0)
                if any(abs(p - q) < 1e-3 for q, _ in poles):
                    continue
                poles.append((p, mult))
                budget -= mult
        ps = PoleSet(tuple(poles))
        rule = rational_rule(ps, 0)
        for p, mult in ps.poles:
            if p.imag < 0:
                continue
            for j in range(1, mult + 1):
                exact = partial_fraction_moment(p, j)
                denom = max(abs(exact), 1e-8)
                got_re = float(np.dot(rule.weights, ((rule.nodes - p) ** (-j)).real))
                assert abs(got_re - exact.real) <= 1e-11 * denom
                if p.imag > 0:
                    got_im = float(np.dot(rule.weights, ((rule.nodes - p) ** (-j)).imag))
                    assert abs(got_im - exact.imag) <= 1e-11 * denom


@criterion(9, "moment-fitted weights reproduce their moments", budget=1.0)
def test_09_moment_fitting():
    rng = np.random.default_rng(440)
    mv = geometric_moments(circle_region(), 4)
    pts = rng.uniform(-1.2, 1.2, size=(60, 2))
    w, _ = moment_fit_weights(pts, mv)
    for (a, b), want in zip(mv.exponents, mv.values):
        got = float(np.dot(w, pts[:, 0] ** a * pts[:, 1] ** b))
        assert abs(got - want) <= 1e-11 * max(1.0, abs(want))
    g = 0.5 + np.array([-1.0, 1.0]) / (2 * math.sqrt(3))
    gauss_pts = np.array([[u, v] for u in g for v in g])
    w, residual = moment_fit_weights(gauss_pts, geometric_moments(square_region(), 1))
    assert np.allclose(w, 0.25, atol=1e-13)
    assert residual <= 1e-13


@criterion(10, "expression evaluator differential and base-height shift", budget=30.0)
def test_10_differential_and_shift():
    rng = np.random.default_rng(90210)
    value_paths = 0
    for _ in range(1000):
        tree = random_expr_tree(rng)
        node = parse(expr_tree_text(tree))
        point = tuple(rng.uniform(-2.0, 2.0, 3))
        try:
            want = reference_expr_eval(tree, point)
        except (ValueError, ZeroDivisionError, OverflowError):
            with pytest.raises(EvalError):
                evaluate(node, point)
            continue
        assert evaluate(node, point) == want
        value_paths += 1
    assert value_paths > 400

    solid = cylinder_solid()
    f = lambda x, y, z: np.cos(x) + y * z
    base = solid_constant_Pz(solid)
    results = []
    for pz in (base, base - 7.5):
        rule = volume_rule(solid, 10, 10, pz=pz)
        vals = f(rule.points[:, 0], rule.points[:, 1], rule.points[:, 2])
        results.append(float(np.dot(rule.weights, vals)))
    assert abs(results[0] - results[1]) < 1e-10
