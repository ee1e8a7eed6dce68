import numpy as np
import pytest

from bezquad import (
    ValidationError,
    apply,
    cylinder_solid_fitted,
    eval_curve,
    fit_trim_curves,
    volume_rule,
)


def quarter_circle_samples(n):
    theta = np.linspace(0.0, np.pi / 2, n)
    return np.column_stack([np.cos(theta), np.sin(theta)])


def test_collinear_points_reproduced_exactly():
    curves = fit_trim_curves([(0, 0), (1 / 3, 0), (2 / 3, 0), (1, 0)], 1)
    assert len(curves) == 1
    s = np.linspace(0, 1, 50)
    p = eval_curve(curves[0], s)
    assert np.max(np.abs(p[:, 1])) < 1e-14
    assert np.max(np.abs(p[:, 0] - s)) < 1e-14


def test_interpolation_points_hit():
    # 10 equal-chord samples split 3 ways: spans are (0..3), (3..6),
    # (6..9), so every sample is an interpolation point of some span
    pts = quarter_circle_samples(10)
    arc = np.concatenate(
        [[0.0], np.cumsum(np.linalg.norm(np.diff(pts, axis=0), axis=1))]
    )
    curves = fit_trim_curves(pts, 3)
    for k, (a, b) in enumerate(((0, 3), (3, 6), (6, 9))):
        params = (arc[a : b + 1] - arc[a]) / (arc[b] - arc[a])
        traced = eval_curve(curves[k], params)
        assert np.max(np.abs(traced - pts[a : b + 1])) < 1e-12


def test_segments_share_endpoints_exactly():
    pts = quarter_circle_samples(40)
    curves = fit_trim_curves(pts, 5)
    for a, b in zip(curves, curves[1:]):
        assert np.array_equal(a.end(), b.start())
    assert np.array_equal(curves[0].start(), pts[0])
    assert np.array_equal(curves[-1].end(), pts[-1])


def test_quarter_circle_fourth_order():
    pts = quarter_circle_samples(400)
    errs = []
    for segs in (2, 4, 8, 16, 32):
        dev = 0.0
        for c in fit_trim_curves(pts, segs):
            p = eval_curve(c, np.linspace(0, 1, 200))
            dev = max(dev, float(np.max(np.abs(np.linalg.norm(p, axis=1) - 1.0))))
        errs.append(dev)
    errs = np.array(errs)
    assert np.all(np.diff(errs) < 0)
    ns = np.log([2.0, 4.0, 8.0, 16.0, 32.0])
    slope = -np.linalg.lstsq(
        np.column_stack([ns, np.ones_like(ns)]), np.log(errs), rcond=None
    )[0][0]
    assert 3.5 < slope < 4.5


def test_chord_parameters_strictly_increasing():
    rng = np.random.default_rng(12)
    for _ in range(10):
        steps = rng.uniform(0.05, 0.3, size=(20, 2))
        pts = np.cumsum(steps, axis=0)
        # fitting must succeed, which requires strictly increasing chords
        curves = fit_trim_curves(pts / pts.max(), 2)
        assert len(curves) == 2


def test_too_few_points_rejected():
    with pytest.raises(ValidationError, match="at least 4"):
        fit_trim_curves([(0, 0), (1, 0), (2, 0)], 1)


@pytest.mark.parametrize(
    "points, segments, message",
    [
        ([(0, 0), (1, 0)], 1, "points: need at least 4 points, got 2"),
        (
            quarter_circle_samples(7),
            3,
            "segments: a span got only 3 points; supply more samples or fewer segments",
        ),
    ],
    ids=["points", "segments"],
)
def test_refusals_name_the_argument(points, segments, message):
    with pytest.raises(ValidationError) as err:
        fit_trim_curves(points, segments)
    assert str(err.value) == message


def test_too_many_segments_rejected():
    with pytest.raises(ValidationError, match="span got only"):
        fit_trim_curves(quarter_circle_samples(7), 3)


@pytest.mark.parametrize("shape", [(8,), (8, 3), (2, 4, 2)])
def test_points_must_be_pairs(shape):
    with pytest.raises(ValidationError) as err:
        fit_trim_curves(np.zeros(shape), 1)
    assert str(err.value) == f"points: need shape (n, 2), got {shape}"


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_points_rejected(bad):
    pts = quarter_circle_samples(20)
    pts[7, 0] = bad
    with pytest.raises(ValidationError, match=rf"^points\[7\]\[0\]: must be finite, got {bad}$"):
        fit_trim_curves(pts, 2)


def test_duplicate_consecutive_points_rejected():
    with pytest.raises(ValidationError, match="coincide"):
        fit_trim_curves([(0, 0), (0.5, 0), (0.5, 0), (1, 0)], 1)


def test_fitted_cylinder_volume_converges_fourth_order():
    one = lambda x, y, z: np.ones_like(x)
    errs = []
    for segs in (4, 8, 16, 32):
        v = apply(volume_rule(cylinder_solid_fitted(segments=segs), 12, 12), one)
        errs.append(abs(v - np.pi))
    errs = np.array(errs)
    assert np.all(np.diff(errs) < 0)
    ns = np.log([4.0, 8.0, 16.0, 32.0])
    slope = -np.linalg.lstsq(
        np.column_stack([ns, np.ones_like(ns)]), np.log(errs), rcond=None
    )[0][0]
    assert 3.5 < slope < 4.5
