from fractions import Fraction

import numpy as np
import pytest

from bezquad import (
    QuadratureError,
    Rule3D,
    SolidModel,
    TrimmedPatch,
    ValidationError,
    apply,
    bilinear_patch,
    boundary_rule,
    box_solid,
    circle_loop,
    control_bbox,
    cylinder_solid,
    cylinder_solid_fitted,
    fit_trim_curves,
    flip_patch,
    flip_solid,
    patch_normal,
    solid_constant_Pz,
    volume_rule,
)

ONE = lambda x, y, z: np.ones_like(x)


def test_constant_Pz_is_min_control_z():
    assert solid_constant_Pz(box_solid((0, 0, -2), (1, 1, 3))) == -2.0
    assert solid_constant_Pz(cylinder_solid(z0=0.5, height=2.0)) == 0.5


def test_cube_volume():
    assert abs(apply(volume_rule(box_solid(), 4, 4), ONE) - 1.0) < 1e-12


def test_cube_x_squared():
    got = apply(volume_rule(box_solid(), 4, 4), lambda x, y, z: x * x)
    assert abs(got - 1.0 / 3.0) < 1e-12


def test_flipped_cube_negates():
    assert abs(apply(volume_rule(flip_solid(box_solid()), 4, 4), ONE) + 1.0) < 1e-12


def test_cylinder_volume_pi():
    assert abs(apply(volume_rule(cylinder_solid(), 12, 12), ONE) - np.pi) < 1e-10


def test_cylinder_z_moment():
    got = apply(volume_rule(cylinder_solid(), 12, 12), lambda x, y, z: z)
    assert abs(got - np.pi / 2) < 1e-10


@pytest.mark.parametrize("c,r,z0,h", [((0.0, 0.0), 1.0, 0.0, 1.0), ((0.3, -0.2), 0.7, -0.5, 1.3)])
def test_cylinder_builders_share_one_capped_assembly(c, r, z0, h):
    exact, fitted = cylinder_solid(c, r, z0, h), cylinder_solid_fitted(c, r, z0, h)
    for a, b in zip(exact.patches[:4], fitted.patches[:4]):
        assert a.loops == b.loops == ()
        assert a.patch.points.tobytes() == b.patch.points.tobytes()
        assert a.patch.weights.tobytes() == b.patch.weights.tobytes()
    # square caps of half-extent r (exact arcs) or 1.25 r (fitted cubics)
    # about the axis; u runs along +x, and v along +y on top but along -y
    # on the bottom, so its normal points down under the same trim loop
    (cx, cy), z1 = c, z0 + h
    theta = np.linspace(0.0, 2.0 * np.pi, 8 * 12 + 1)
    samples = np.column_stack([0.5 + 0.4 * np.cos(theta), 0.5 + 0.4 * np.sin(theta)])
    trims = (circle_loop((0.5, 0.5), 0.5), fit_trim_curves(samples, 8))
    for solid, half, trim in zip((exact, fitted), (r, 1.25 * r), trims):
        x0, x1, y0, y1 = cx - half, cx + half, cy - half, cy + half
        top = bilinear_patch((x0, y0, z1), (x1, y0, z1), (x0, y1, z1), (x1, y1, z1))
        bottom = bilinear_patch((x0, y1, z0), (x1, y1, z0), (x0, y0, z0), (x1, y0, z0))
        for tp, want in zip(solid.patches[4:], (top, bottom)):
            assert tp.patch.points.tobytes() == want.points.tobytes()
            assert tp.patch.weights.tobytes() == want.weights.tobytes()
            (loop,) = tp.loops
            assert [seg.points.tobytes() for seg in loop.segments] == [
                seg.points.tobytes() for seg in trim
            ]
            assert [seg.weights.tobytes() for seg in loop.segments] == [
                seg.weights.tobytes() for seg in trim
            ]
        assert patch_normal(solid.patches[4].patch, 0.5, 0.5)[2] > 0
        assert patch_normal(solid.patches[5].patch, 0.5, 0.5)[2] < 0


def test_flipped_cylinder_negates():
    got = apply(volume_rule(flip_solid(cylinder_solid()), 12, 12), ONE)
    assert abs(got + np.pi) < 1e-10


def test_empty_interior_solid_cancels():
    patch = bilinear_patch((0, 0, 0.5), (1, 0, 0.5), (0, 1, 0.5), (1, 1, 0.5))
    solid = SolidModel((TrimmedPatch(patch), flip_patch(TrimmedPatch(patch))))
    assert abs(apply(volume_rule(solid, 4, 4), ONE)) < 1e-12


def test_open_solid_rejected():
    solid = SolidModel((TrimmedPatch(bilinear_patch((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 1))),), closed=False)
    with pytest.raises(ValidationError, match="closed"):
        volume_rule(solid, 3, 3)


@pytest.mark.parametrize("closed", ["false", 1.0, None])
def test_closed_must_be_a_bool(closed):
    # "false" and 1.0 used to pass as truthy, so an open solid got a volume
    with pytest.raises(ValidationError) as err:
        SolidModel(box_solid().patches, closed=closed)
    assert str(err.value) == f"closed: must be true or false, got {closed!r}"


def test_numpy_bool_closed_is_stored_as_bool():
    assert SolidModel(box_solid().patches, closed=np.False_).closed is False


@pytest.mark.parametrize(
    "solid,name",
    [(box_solid().patches[0], "TrimmedPatch"), (None, "NoneType"), (list(box_solid().patches), "list")],
    ids=["patch", "none", "list"],
)
def test_only_a_solid_gets_a_volume_rule(solid, name):
    # a list of patches is no SolidModel: closedness is asserted by building one
    with pytest.raises(ValidationError, match=f"^solid: need a SolidModel, got {name}$"):
        volume_rule(solid, 2, 2)


@pytest.mark.parametrize("pz", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_pz_rejected(pz):
    with pytest.raises(ValidationError, match=f"^pz: must be finite, got {pz}$"):
        volume_rule(box_solid(), 3, 3, pz=pz)


@pytest.mark.parametrize(
    "pz, message",
    [
        ("1.0", "not a numeric array"),
        (True, "not a numeric array"),
        ("abc", "not a numeric array"),
        ([1.0], r"need shape \(\), got \(1,\)"),
    ],
    ids=["text", "bool", "word", "list"],
)
def test_non_real_pz_rejected(pz, message):
    with pytest.raises(ValidationError, match=f"^pz: {message}$"):
        volume_rule(box_solid(), 3, 3, pz=pz)


def test_real_pz_types_accepted():
    want = volume_rule(box_solid(), 3, 3, pz=-1.0)
    for pz in (-1, np.float32(-1.0), np.int64(-1), Fraction(-1)):
        got = volume_rule(box_solid(), 3, 3, pz=pz)
        assert got.points.tobytes() == want.points.tobytes()
        assert got.weights.tobytes() == want.weights.tobytes()


def test_pz_shift_invariance():
    solid = cylinder_solid()
    base = apply(volume_rule(solid, 12, 12), lambda x, y, z: np.cos(x) + y * z)
    rule = volume_rule(solid, 12, 12, pz=solid_constant_Pz(solid) - 1.0)
    shifted = float(
        np.dot(rule.weights, np.cos(rule.points[:, 0]) + rule.points[:, 1] * rule.points[:, 2])
    )
    assert abs(base - shifted) < 1e-10


def test_divergence_consistency():
    # both sides compute the flux of the field (0, 0, z)
    for solid in (box_solid(), cylinder_solid()):
        vol = apply(volume_rule(solid, 12, 12), ONE)
        flux = 0.0
        for tp in solid.patches:
            # trimmed patches take the trim-loop construction, the rest the tensor grid
            flux += apply(boundary_rule((tp,), 12, 12, "z-normal"), lambda x, y, z: z)
        assert abs(vol - flux) < 1e-10


def test_translation_covariance_in_z():
    lo = volume_rule(cylinder_solid(z0=0.0), 6, 6)
    hi = volume_rule(cylinder_solid(z0=2.5), 6, 6)
    assert np.allclose(lo.points[:, :2], hi.points[:, :2], atol=1e-13)
    assert np.allclose(lo.points[:, 2] + 2.5, hi.points[:, 2], atol=1e-13)
    assert np.allclose(lo.weights, hi.weights, atol=1e-13)


def test_points_inside_control_bbox():
    for solid in (box_solid((-1, 0, 2), (1, 3, 4)), cylinder_solid((0.5, -1), 2.0, -3.0, 1.5)):
        rule = volume_rule(solid, 6, 6)
        lo, hi = control_bbox(solid)
        assert np.all((rule.points >= lo - 1e-12) & (rule.points <= hi + 1e-12))


def test_point_count_and_np_default():
    solid = box_solid()
    surface_count = sum(len(boundary_rule((tp.patch,), 5, 5)) for tp in solid.patches)
    rule = volume_rule(solid, 5, 3)
    # n_p defaults to m_q
    assert len(rule) == 5 * surface_count


def test_bottom_cap_weights_degenerate_to_zero():
    rule = volume_rule(box_solid(), 4, 4)
    bottom = rule.provenance[:, 0] == 0
    assert np.all(rule.weights[bottom] == 0.0)
    assert np.allclose(rule.points[bottom, 2], 0.0)


def test_provenance_layout():
    rule = volume_rule(box_solid(), 3, 3, n_p=2)
    assert set(np.unique(rule.provenance[:, 0])) == set(range(6))
    assert set(np.unique(rule.provenance[:, 2])) == {0, 1}
    per_patch = np.bincount(rule.provenance[:, 0])
    assert np.all(per_patch == 9 * 2)
    # sigma restarts at 0 in every patch and counts its surface points
    # without gaps
    for i in range(6):
        sigma = rule.provenance[rule.provenance[:, 0] == i, 1]
        assert np.array_equal(sigma, np.repeat(np.arange(9), 2))


def test_non_finite_integrand_reported():
    with pytest.raises(QuadratureError, match="not finite"):
        apply(volume_rule(box_solid(), 3, 3), lambda x, y, z: np.log(z - 2.0))


def test_rule3d_alignment_checked():
    with pytest.raises(ValidationError, match="align"):
        Rule3D(np.zeros((2, 3)), np.zeros(3), np.zeros((2, 3)))


def test_solid_needs_patches():
    with pytest.raises(ValidationError, match=r"^patches: need at least 1 item, got 0$"):
        SolidModel(())
