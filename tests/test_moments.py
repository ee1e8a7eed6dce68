import math
import warnings

import numpy as np
import pytest

from bezquad.errors import QuadratureError, ValidationError
from bezquad.io import bundled, load_solid, moment_csv_lines, save_moments
from bezquad.moments import (
    MomentVector,
    _moment_sums,
    _monomials,
    geometric_moments,
    moment_fit_weights,
    monomial_exponents,
)
from bezquad.shapes import annulus_region, box_solid, circle_region, cylinder_solid, square_region
from bezquad.surface import _exact_z_rule
from bezquad.volume import SolidModel

from conftest import elevated_box, exact, random_quadratic_region, x_axis_cylinder

PI = math.pi


def test_exponent_order_graded_lex():
    assert monomial_exponents(2, 2) == [
        (0, 0),
        (1, 0),
        (0, 1),
        (2, 0),
        (1, 1),
        (0, 2),
    ]
    assert monomial_exponents(1, 3) == [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert len(monomial_exponents(2, 3)) == 10
    # lower degree block is always a prefix of the higher one
    assert monomial_exponents(3, 2)[:6] == monomial_exponents(2, 2)


def test_exponent_validation():
    with pytest.raises(ValidationError):
        monomial_exponents(2, 4)
    with pytest.raises(ValidationError):
        monomial_exponents(-1, 2)


def test_moment_vector_length_checked():
    assert len(MomentVector(1, 2, [1.0, 0.5, 0.5])) == 3
    with pytest.raises(ValidationError):
        MomentVector(1, 2, [1.0, 0.5])
    with pytest.raises(ValidationError):
        MomentVector(1, 3, np.zeros(5))


def test_circle_moments_degree_2():
    mv = geometric_moments(circle_region(), 2)
    assert mv.degree == 2 and mv.dim == 2
    expected = [PI, 0.0, 0.0, PI / 4, 0.0, PI / 4]
    assert np.allclose(mv.values, expected, atol=1e-10)


def test_circle_moments_against_gamma_formula():
    mv = geometric_moments(circle_region(), 6)
    for (a, b), got in zip(mv.exponents, mv.values):
        assert got == pytest.approx(exact.unit_disk_moment(a, b), abs=1e-10)


def test_reflection_kills_odd_moments():
    # the unit disk is symmetric under both axis flips
    mv = geometric_moments(circle_region(), 5)
    for (a, b), got in zip(mv.exponents, mv.values):
        if a % 2 or b % 2:
            assert abs(got) < 1e-12


def test_cube_moments_exact():
    mv = geometric_moments(box_solid(), 2)
    for (a, b, c), got in zip(mv.exponents, mv.values):
        assert got == pytest.approx(1.0 / ((a + 1) * (b + 1) * (c + 1)), abs=1e-12)


def test_cube_moments_do_not_warn():
    # polynomial geometry integrates exactly already at the coarse order
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        geometric_moments(box_solid(), 2)


_OFF_ORIGIN = dict(center=(0.3, -0.7), radius=1.5, z0=-0.4, height=2.0)


@pytest.mark.parametrize(
    "solid, closed_form",
    [
        (box_solid(), lambda *e: exact.box_moment(*e, (0, 0, 0), (1, 1, 1))),
        (cylinder_solid(**_OFF_ORIGIN), lambda *e: exact.cylinder_moment(*e, 0.3, -0.7, 1.5, -0.4, 2.0)),
        (load_solid(bundled("cylinder.solid.json")), lambda *e: exact.cylinder_moment(*e, 0, 0, 1, 0, 1)),
    ],
    ids=["cube", "off-origin-cylinder", "bundled-cylinder"],
)
def test_solid_moments_exact_through_degree_8(solid, closed_form):
    # polynomial patches, and rational sides with no z-flux, take one
    # degree-sized rule: exact at every degree, and nothing to warn about
    for p in range(9):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mv = geometric_moments(solid, p)
        for exps, got in zip(mv.exponents, mv.values):
            assert got == pytest.approx(closed_form(*exps), rel=1e-13, abs=1e-13), (p, exps)


@pytest.mark.parametrize(
    "name, p, most", [("cylinder.solid.json", 6, 700), ("cube.solid.json", 8, 60)], ids=["cylinder", "cube"]
)
def test_exact_z_rule_is_sized_by_the_degree_each_patch_has(name, p, most):
    # flat caps and faces have degree 1 whatever their bidegree: the
    # cylinder takes 676 points (2,812 sized by bidegree), the cube 54 (246)
    assert len(_exact_z_rule(load_solid(bundled(name)).patches, p)) <= most


def test_elevated_faces_take_the_bilinear_box_sizes():
    lo, hi = (0.5, 1.0, 2.0), (1.5, 2.5, 3.25)
    box, elevated = box_solid(lo, hi), elevated_box(lo, hi, 2, 4)
    for p in range(9):
        assert len(_exact_z_rule(elevated.patches, p)) == len(_exact_z_rule(box.patches, p)), p


@pytest.mark.parametrize("dim", [2, 3])
def test_moment_sums_match_the_monomial_matrix(dim):
    # negative coordinates take the slow libm pow path the power table avoids
    rng = np.random.default_rng(20 + dim)
    points = rng.uniform(-1.5, 1.5, (500, dim))
    weights = rng.uniform(-1.0, 1.0, 500)
    for p in range(11):
        exps = monomial_exponents(p, dim)
        mono = _monomials(points, exps)
        want = weights @ mono
        scale = np.abs(weights) @ np.abs(mono)
        assert np.all(np.abs(_moment_sums(points, weights, p) - want) <= 1e-14 * scale), p


def test_open_solid_moments_rejected():
    # the zero-flux argument that drops the base height needs a closed surface
    solid = SolidModel(box_solid().patches[:5], closed=False)
    with pytest.raises(ValidationError, match="closed"):
        geometric_moments(solid, 2)


def test_cylinder_moments_warn_but_converge():
    # rational sides that carry z-flux leave the coarse order visibly
    # unconverged, so the doubling check speaks up; the returned fine
    # values are still good
    with pytest.warns(UserWarning, match=r"moment \(0, 2, 0\) moved .* doubling"):
        mv = geometric_moments(x_axis_cylinder(), 2)
    vals = dict(zip(mv.exponents, mv.values))
    assert vals[(0, 0, 0)] == pytest.approx(PI, abs=1e-9)
    assert vals[(1, 0, 0)] == pytest.approx(PI / 2, abs=1e-9)
    assert vals[(0, 0, 1)] == pytest.approx(0.0, abs=1e-9)
    assert vals[(0, 2, 0)] == pytest.approx(PI / 4, abs=1e-9)
    assert vals[(0, 0, 2)] == pytest.approx(PI / 4, abs=1e-9)


def test_fit_gauss_points_degree_1():
    g = 0.5 + np.array([-1, 1]) / (2 * math.sqrt(3))
    pts = np.array([[u, v] for u in g for v in g])
    mv = geometric_moments(square_region(), 1)
    w, residual = moment_fit_weights(pts, mv)
    assert np.allclose(w, 0.25, atol=1e-13)
    assert residual <= 1e-13


def test_fit_single_point_carries_area():
    mv = geometric_moments(square_region(), 0)
    w, _ = moment_fit_weights(np.array([[0.3, 0.8]]), mv)
    assert w[0] == pytest.approx(1.0, abs=1e-14)


def test_fit_reproduces_moments_random_regions():
    rng = np.random.default_rng(2218)
    for _ in range(5):
        region = random_quadratic_region(rng)
        mv = geometric_moments(region, 4)
        pts = rng.uniform(-1.4, 1.4, size=(60, 2))
        w, _ = moment_fit_weights(pts, mv)
        for (a, b), want in zip(mv.exponents, mv.values):
            got = float(np.dot(w, pts[:, 0] ** a * pts[:, 1] ** b))
            assert got == pytest.approx(want, rel=1e-11, abs=1e-11)


def test_fit_prefix_degree():
    mv = geometric_moments(square_region(), 2)
    pts = np.array([[0.2, 0.2], [0.8, 0.2], [0.5, 0.8]])
    w, _ = moment_fit_weights(pts, mv, p=1)
    assert np.dot(w, np.ones(3)) == pytest.approx(1.0, abs=1e-13)
    assert np.dot(w, pts[:, 0]) == pytest.approx(0.5, abs=1e-13)


def test_fit_rejects_impossible_point_set():
    mv = geometric_moments(circle_region(), 2)
    pts = np.tile([[0.1, 0.2]], (6, 1))  # rank one, six moments
    with pytest.raises(QuadratureError, match="residual"):
        moment_fit_weights(pts, mv)


def test_fit_validation():
    mv = geometric_moments(square_region(), 1)
    with pytest.raises(ValidationError):
        moment_fit_weights(np.zeros((3, 3)), mv)  # wrong dim
    with pytest.raises(ValidationError):
        moment_fit_weights(np.zeros((2, 2)), mv)  # too few points
    with pytest.raises(ValidationError):
        moment_fit_weights(np.zeros((4, 2)), mv, p=3)  # beyond stored degree
    with pytest.raises(ValidationError):
        moment_fit_weights(np.array([[np.nan, 0.0], [0.0, 1.0], [1.0, 1.0]]), mv)


@pytest.mark.parametrize("degree, dim", [(1, 2.0), (1.0, 2)])
def test_moment_vector_stores_int_degree_and_dim(tmp_path, degree, dim):
    # a float dim once broke moment_csv_lines with a raw TypeError
    mv = MomentVector(degree, dim, [1.0, 0.0, 0.0])
    assert type(mv.degree) is int and type(mv.dim) is int
    assert moment_csv_lines(mv) == ["a,b,value", "0,0,1", "1,0,0", "0,1,0"]
    save_moments(mv, tmp_path / "m.csv")
    assert (tmp_path / "m.csv").read_text() == "a,b,value\n0,0,1\n1,0,0\n0,1,0\n"


@pytest.mark.parametrize("dim", [2.5, True])
def test_moment_vector_refuses_a_dim_that_is_no_integer(dim):
    with pytest.raises(ValidationError, match=f"^dim must be an integer, got {dim!r}$"):
        MomentVector(1, dim, [1.0, 0.0, 0.0])
    with pytest.raises(ValidationError, match=f"^dim must be an integer, got {dim!r}$"):
        monomial_exponents(1, dim)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_moment_vector_rejects_non_finite(bad):
    # a NaN moment once came back from moment_fit_weights as NaN weights
    # and a NaN residual, with no error
    with pytest.raises(ValidationError, match=rf"^values\[0\]: must be finite, got {bad}$"):
        MomentVector(1, 2, [bad, 0.0, 0.0])


def test_fit_rejects_nan_residual(monkeypatch):
    # a NaN residual compares False with any bound; it must still raise
    mv = geometric_moments(square_region(), 1)
    pts = np.array([[0.2, 0.2], [0.8, 0.2], [0.5, 0.8]])
    monkeypatch.setattr(np.linalg, "lstsq", lambda a, b, rcond=None: (np.full(a.shape[1], np.nan),))
    with pytest.raises(QuadratureError, match="residual nan"):
        moment_fit_weights(pts, mv)


def test_fit_rejects_points_whose_monomials_overflow():
    # x^2 of 1e200 overflows; that once leaked RuntimeWarnings, a LAPACK
    # message and a raw LinAlgError
    pts = np.random.default_rng(3).random((10, 2)) * 1e200
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(QuadratureError, match="overflow at these points"):
            moment_fit_weights(pts, MomentVector(2, 2, [1, 0, 0, 0, 0, 0]))


def test_fit_norms_of_huge_moments_do_not_overflow():
    # the moment norm 1.7e308 once overflowed to inf, so did the residual,
    # and the fit passed its check against an infinite bound
    mv = MomentVector(1, 2, [1e308] * 3)
    pts = np.random.default_rng(4).random((6, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        w, residual = moment_fit_weights(pts, mv)
        assert math.isfinite(residual) and residual <= 1e-8 * math.sqrt(3) * 1e308
        assert np.allclose((w / 1e308) @ np.column_stack([np.ones(6), pts]), 1.0)
        impossible = r"residual 1.179e\+308 against moment norm 1.732e\+308"
        with pytest.raises(QuadratureError, match=impossible):
            moment_fit_weights(np.tile([[0.1, 0.2]], (6, 1)), mv)


def test_fit_weights_beyond_float64_are_reported_as_such():
    # the system divided by max|m| fits, with weights near 3; only the
    # weights themselves exceed float64.  This once raised "residual inf
    # ... the point set cannot reproduce these moments"
    pts = np.random.default_rng(5).random((6, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(QuadratureError, match="^moment fit weights overflow float64"):
            moment_fit_weights(pts, MomentVector(1, 2, [-1e308, 1e308, 1e308]))


@pytest.mark.parametrize("region", [circle_region(), annulus_region()], ids=["disk", "annulus"])
def test_scaled_fit_keeps_the_bits_of_the_direct_solve(region):
    # the moments are divided by a power of two, so the weights are those
    # of solving on the moments themselves
    mv = geometric_moments(region, 6)
    pts = np.random.default_rng(6).uniform(-0.9, 0.9, (40, 2))
    w, _ = moment_fit_weights(pts, mv)
    direct, *_ = np.linalg.lstsq(_monomials(pts, mv.exponents).T, mv.values, rcond=None)
    assert w.tobytes() == direct.tobytes()


def test_fit_reports_a_failed_solve(monkeypatch):
    def fail(a, b, rcond=None):
        raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")

    monkeypatch.setattr(np.linalg, "lstsq", fail)
    mv = geometric_moments(square_region(), 1)
    with pytest.raises(QuadratureError, match="moment fit failed: SVD did not converge"):
        moment_fit_weights(np.array([[0.2, 0.2], [0.8, 0.2], [0.5, 0.8]]), mv)


def test_moments_reject_other_models():
    with pytest.raises(ValidationError):
        geometric_moments(np.zeros(3), 2)
    with pytest.raises(ValidationError):
        geometric_moments(circle_region(), -1)
