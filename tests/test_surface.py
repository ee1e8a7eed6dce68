import warnings

import numpy as np
import pytest

import bezquad.surface as surface
from bezquad import (
    QuadratureError,
    RationalBezierCurve,
    RationalBezierPatch,
    SurfaceRule,
    TrimLoop,
    TrimmedPatch,
    ValidationError,
    SolidModel,
    apply,
    boundary_rule,
    box_solid,
    circle_region,
    cylinder_solid,
    cylinder_solid_fitted,
    eval_patch,
    geometric_moments,
    integrate2d,
    parametric_area_rule,
    patch_normal,
    spectral_rule,
    surface_integrate,
    unit_square_loop,
    volume_rule,
)
from bezquad.quad1d import gauss_legendre

from conftest import collapsed_edge_patch, flat_unit_patch, line, quarter_disk_loop, triangle_loop


def square_looped(patch):
    """``patch`` trimmed by the explicit unit-square loop, which forces the
    Green's-theorem construction where the tensor shortcut would apply."""
    return TrimmedPatch(patch, (unit_square_loop(),))


# ---------------------------------------------------------------- parametric


def test_parametric_points_stay_in_unit_square():
    for loop in (unit_square_loop(), triangle_loop(), quarter_disk_loop()):
        rule = parametric_area_rule([loop], 8, 8)
        assert rule.points.min() > -1e-12
        assert rule.points.max() < 1 + 1e-12


def test_complementarity_of_split_square():
    # diagonal cut: triangle plus its complement tile the whole square
    upper = TrimLoop((line((1, 0), (1, 1)), line((1, 1), (0, 1)), line((0, 1), (1, 0))))
    a = np.sum(parametric_area_rule([triangle_loop()], 8, 8).weights)
    b = np.sum(parametric_area_rule([upper], 8, 8).weights)
    assert abs(a + b - 1.0) < 1e-12


# ------------------------------------------------------------- surface rules


def test_flat_patch_area():
    rule = boundary_rule((square_looped(flat_unit_patch(z=5.0)),), 4, 4)
    assert abs(np.sum(rule.weights) - 1.0) < 1e-13
    assert np.allclose(rule.points[:, 2], 5.0)


def test_flat_patch_z_normal_mode():
    rule = boundary_rule((square_looped(flat_unit_patch(z=5.0)),), 4, 4, "z-normal")
    assert abs(np.sum(rule.weights) - 1.0) < 1e-13


def test_flat_patch_jacobian_scaling():
    rule = boundary_rule((square_looped(flat_unit_patch(xscale=2.0)),), 4, 4)
    assert abs(np.sum(rule.weights) - 2.0) < 1e-13


def test_untrimmed_rule_count_and_area():
    rule = boundary_rule((flat_unit_patch(),), 3, 3)
    assert len(rule) == 9
    assert abs(np.sum(rule.weights) - 1.0) < 1e-13
    assert np.all(rule.provenance[:, 1] == -1)
    assert np.all(rule.provenance[:, 2] == -1)


def test_untrimmed_matches_explicit_square_loop():
    rng = np.random.default_rng(31)
    for _ in range(3):
        patch = RationalBezierPatch(
            rng.normal(size=(4, 4, 3)), rng.uniform(0.5, 2.0, size=(4, 4))
        )
        f = lambda x, y, z: np.exp(0.3 * x) + y * z
        shortcut = apply(boundary_rule((patch,), 12, 12), f)
        explicit = apply(boundary_rule((square_looped(patch),), 12, 12), f)
        assert abs(shortcut - explicit) < 1e-12 * max(1.0, abs(explicit))


def test_surface_rule_accepts_bare_patch():
    rule = boundary_rule((flat_unit_patch(),), 3, 3)
    assert abs(np.sum(rule.weights) - 1.0) < 1e-13


def test_preimages_and_provenance():
    tp = TrimmedPatch(flat_unit_patch(), (quarter_disk_loop(),))
    rule = boundary_rule((tp,), 5, 4)
    assert rule.preimages.min() > -1e-12 and rule.preimages.max() < 1 + 1e-12
    assert np.all(rule.provenance[:, 0] == 0)
    assert np.all(rule.provenance[:, 1] == 0)
    assert set(np.unique(rule.provenance[:, 2])) == {0, 1, 2}
    # 3 segments x 5 boundary nodes x 4 layer nodes
    assert len(rule) == 3 * 5 * 4
    # points are the patch images of the preimages
    from bezquad import eval_patch

    mapped = eval_patch(tp.patch, rule.preimages[:, 0], rule.preimages[:, 1])
    assert np.allclose(mapped, rule.points, atol=1e-14)


def test_degenerate_normal_points_get_zero_weight():
    with pytest.warns(UserWarning, match="degenerate-normal"):
        rule = boundary_rule((collapsed_edge_patch(),), 1, 1)
    assert rule.degenerate_count > 0
    zeroed = rule.weights[np.isclose(rule.preimages[:, 1], 0.0, atol=1e-12)]
    assert np.all(zeroed == 0.0)
    # a net all at the origin, whose weights differ by 2**-50 (equal, but
    # not free of z-flux), has no nonzero coefficient: the exact z-rule
    # takes one point, of weight 0
    origin = RationalBezierPatch(np.zeros((2, 2, 3)), [[1.0, 1.0 + 2.0**-50], [1.0 + 2.0**-50, 1.0]])
    rule = surface._exact_z_rule((TrimmedPatch(origin),), 4)
    assert rule.weights.tolist() == [0.0] and rule.points.tolist() == [[0.0] * 3]


# ---------------------------------------------------------------- integrate


def test_cube_surface_area():
    cube = box_solid()
    assert abs(surface_integrate(cube.patches, lambda x, y, z: np.ones_like(x), 4, 4) - 6.0) < 1e-12


def test_cube_surface_z_moment():
    cube = box_solid()
    # top face 1*1, bottom 0*1, four sides 1/2 each
    assert abs(surface_integrate(cube.patches, lambda x, y, z: z, 4, 4) - 3.0) < 1e-12


def test_empty_patch_list():
    assert surface_integrate([], lambda x, y, z: x, 4, 4) == 0.0
    assert surface_integrate(iter(()), lambda x, y, z: x, 4, 4) == 0.0


def test_integrate_reports_patch_index():
    from bezquad import QuadratureError

    cube = box_solid()
    with pytest.raises(QuadratureError, match="patch 0"):
        surface_integrate(cube.patches, lambda x, y, z: 1.0 / (z - z), 3, 3)


@pytest.mark.parametrize("m_q,n_q,bad", [(2.5, 3, "2.5"), (3, True, "True")])
def test_integrate_rejects_node_count_once(m_q, n_q, bad):
    one = lambda x, y, z: np.ones_like(x)
    message = f"^node count must be an integer, got {bad}$"
    with pytest.raises(ValidationError, match=message):
        surface_integrate(box_solid().patches, one, m_q, n_q)
    with pytest.raises(ValidationError, match=message):
        surface_integrate([], one, m_q, n_q)


# ---------------------------------------------------------------- validation


def test_trim_loop_requires_2d_segments():
    seg3 = RationalBezierCurve([(0, 0, 0), (1, 0, 0)], [1.0, 1.0])
    with pytest.raises(ValidationError, match="dimension"):
        TrimLoop((seg3,))


def test_trim_loop_rejects_out_of_square_points():
    with pytest.raises(ValidationError, match="parameter square"):
        TrimLoop((line((0, 0), (1.5, 0)), line((1.5, 0), (0, 0))))


def test_trim_loop_rejects_gaps():
    message = r"^segments: curve 0 ends at \(1\.0, 0\.0\) but curve 1 starts at \(1\.0, 0\.0001\) "
    message += r"\(gap 1\.000e-04, tolerance 1\.000e-10\)$"
    with pytest.raises(ValidationError, match=message):
        TrimLoop((line((0, 0), (1, 0)), line((1, 1e-4), (0, 0))))


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: TrimLoop(()), "segments: need at least 1 item, got 0"),
        (
            lambda: TrimLoop((line((0, 0), (1, 0)), 5)),
            "segments[1]: need a RationalBezierCurve, got int",
        ),
        (lambda: TrimmedPatch(unit_square_loop()), "patch: need a RationalBezierPatch, got TrimLoop"),
        (
            lambda: TrimmedPatch(flat_unit_patch(), [unit_square_loop().segments]),
            "loops[0]: need a TrimLoop, got tuple",
        ),
        (lambda: parametric_area_rule([], 2, 2), "loops: need at least 1 item, got 0"),
        (
            lambda: parametric_area_rule([unit_square_loop(), triangle_loop().segments], 2, 2),
            "loops[1]: need a TrimLoop, got tuple",
        ),
        (
            lambda: SurfaceRule(np.zeros((1, 3)), [1.0], [[0.5, 1.5]], np.zeros((1, 5), int)),
            "parametric preimages must stay inside the unit square",
        ),
    ],
    ids=[
        "empty-loop",
        "loop-non-curve",
        "non-patch",
        "non-loop",
        "area-no-loops",
        "area-non-loop",
        "preimage-outside",
    ],
)
def test_trim_and_surface_refusals(call, message):
    with pytest.raises(ValidationError) as err:
        call()
    assert str(err.value) == message


def test_trim_loop_accepts_one_closed_curve():
    arc = RationalBezierCurve([(0, 0), (1, 0), (0.5, 1), (0, 0)], np.ones(4))
    assert TrimLoop((arc,)).segments[0] is arc
    message = r"^segments: curve 0 ends at \(0\.0, 0\.0\) but curve 0 starts at \(0\.0, 1e-06\) "
    message += r"\(gap 1\.000e-06, tolerance 1\.000e-10\)$"
    with pytest.raises(ValidationError, match=message):
        TrimLoop((RationalBezierCurve([(0, 1e-6), (1, 0), (0.5, 1), (0, 0)], np.ones(4)),))


def test_bad_weight_mode(monkeypatch):
    with pytest.raises(ValidationError, match="weight_mode"):
        boundary_rule((TrimmedPatch(flat_unit_patch()),), 3, 3, "sideways")
    # a bad mode is refused before the planar pass over the trims
    calls = []
    monkeypatch.setattr(surface, "parametric_area_rule", lambda *a: calls.append(a))
    message = r"weight_mode must be one of \('full-normal', 'z-normal'\), got 'sideways'"
    trimmed = cylinder_solid().patches
    with pytest.raises(ValidationError, match=message):
        boundary_rule((trimmed[4],), 3, 3, "sideways")
    with pytest.raises(ValidationError, match=message):
        boundary_rule(trimmed, 3, 3, "sideways")
    assert calls == []


def test_surface_rule_alignment_checked():
    with pytest.raises(ValidationError, match="align"):
        SurfaceRule(np.zeros((2, 3)), np.zeros(3), np.zeros((2, 2)), np.zeros((2, 5)))


def test_patch_rule_dispatch():
    side, cap = cylinder_solid().patches[0], cylinder_solid().patches[4]
    assert not side.loops and cap.loops
    shortcut = boundary_rule((side,), 3, 5, "z-normal")
    assert len(shortcut) == max(3, 5) ** 2
    assert np.array_equal(shortcut.weights, boundary_rule((side.patch,), 5, 5, "z-normal").weights)
    assert np.all(shortcut.provenance[:, 1:3] == -1)
    looped = boundary_rule((square_looped(side.patch),), 3, 5, "z-normal")
    assert len(looped) == 4 * 3 * 5 and np.all(looped.provenance[:, 1] == 0)
    trimmed = boundary_rule((cap,), 4, 3, "z-normal")
    ref = boundary_rule((TrimmedPatch(cap.patch, cap.loops),), 4, 3, "z-normal")
    for name in ("points", "weights", "preimages", "provenance"):
        assert np.array_equal(getattr(trimmed, name), getattr(ref, name))
    assert np.all(trimmed.provenance[:, 0] == 0) and np.all(trimmed.provenance[:, 1] >= 0)


def mixed_net_patches():
    """Cylinder sides (3 x 2 nets) interleaved with cube faces and trimmed
    cylinder caps (2 x 2 nets)."""
    cyl, cube = cylinder_solid().patches, box_solid().patches
    return (cyl[0], cube[0], cyl[4], cyl[1], cube[1], cyl[5], cyl[2])


def varied_trim_patches():
    """Patches trimmed by 3 lines, by a square with a 4-arc hole, and by
    lines and an arc, between untrimmed patches and a trimmed cap."""
    cyl, cube = cylinder_solid().patches, box_solid().patches
    hole = TrimLoop(circle_region((0.5, 0.5), 0.2, clockwise=True).curves)
    return (
        TrimmedPatch(cube[0].patch, (triangle_loop(),)),
        cyl[0],
        TrimmedPatch(cube[1].patch, (unit_square_loop(), hole)),
        TrimmedPatch(cyl[1].patch, (quarter_disk_loop(),)),
        cube[2],
        cyl[4],
    )


def shared_trim_patches():
    """Two cylinder caps trimmed by content-equal but distinct circle loops,
    a side between them, and two caps that hold one square loop and one
    hole loop."""
    cyl = cylinder_solid().patches
    circle = lambda: TrimLoop(circle_region((0.5, 0.5), 0.5).curves)
    hole = TrimLoop(circle_region((0.5, 0.5), 0.2, clockwise=True).curves)
    return (
        TrimmedPatch(cyl[4].patch, (circle(),)),
        cyl[0],
        TrimmedPatch(cyl[5].patch, (circle(),)),
        TrimmedPatch(cyl[4].patch, (unit_square_loop(), hole)),
        TrimmedPatch(cyl[5].patch, (unit_square_loop(), hole)),
    )


_RULE_ARRAYS = ("points", "weights", "preimages", "provenance")


@pytest.mark.parametrize("mode", ["full-normal", "z-normal"])
def test_boundary_rule_concatenates_patch_rules(mode):
    for patches in (
        cylinder_solid().patches,
        box_solid().patches,
        cylinder_solid_fitted().patches,
        mixed_net_patches(),
        varied_trim_patches(),
        shared_trim_patches(),
    ):
        rule = boundary_rule(patches, 4, 3, mode)
        parts = [boundary_rule((tp,), 4, 3, mode) for tp in patches]
        assert rule.columns == parts[0].columns
        for name in _RULE_ARRAYS:
            want = np.concatenate([getattr(r, name) for r in parts])
            got = getattr(rule, name)
            if name == "provenance":
                # one-patch rules number their patch 0; the union numbers by position
                assert all(np.all(r.provenance[:, 0] == 0) for r in parts)
                owner = np.repeat(np.arange(len(parts)), [len(r) for r in parts])
                assert np.array_equal(got[:, 0], owner)
                got, want = np.ascontiguousarray(got[:, 1:]), np.ascontiguousarray(want[:, 1:])
            assert got.tobytes() == want.tobytes()
        assert rule.degenerate_count == sum(r.degenerate_count for r in parts)
        # the batched map against the one-patch evaluator
        for i, tp in enumerate(patches):
            pre = rule.preimages[rule.provenance[:, 0] == i]
            mine = rule.points[rule.provenance[:, 0] == i]
            assert mine.tobytes() == eval_patch(tp.patch, pre[:, 0], pre[:, 1]).tobytes()


def test_each_distinct_trim_domain_is_covered_once(monkeypatch):
    # a trim domain takes one planar pass over the segments of all its
    # loops, and domains are matched on their control points and weights,
    # not identity: the circle domain, held by two distinct loops, takes
    # one pass, and the square with its hole one more
    built = []
    for name in ("_gauss_region_rule", "_pe_region_rule"):
        real = getattr(surface, name)
        spy = lambda segments, *sizes, real=real: built.append(len(segments)) or real(segments, *sizes)
        monkeypatch.setattr(surface, name, spy)
    boundary_rule(shared_trim_patches(), 4, 3)
    assert built == [4, 8]
    built.clear()
    surface._exact_z_rule(cylinder_solid().patches, 4)
    assert built == [4]


@pytest.mark.parametrize("mode", ["full-normal", "z-normal"])
def test_trim_domain_is_the_parametric_area_rule(mode):
    # a square with two disjoint holes: the boundary rule's preimages are
    # the planar rule over all three loops, its (curve, q, zeta) rows with
    # the flattened curve index split into (loop, segment)
    hole = lambda c: TrimLoop(circle_region(c, 0.15, clockwise=True).curves)
    tp = TrimmedPatch(box_solid().patches[0].patch, (unit_square_loop(), hole((0.3, 0.3)), hole((0.7, 0.6))))
    assert [len(loop.segments) for loop in tp.loops] == [4, 4, 4]
    rule = boundary_rule((tp,), 4, 3, mode)
    area = parametric_area_rule(tp.loops, 4, 3)
    assert rule.preimages.tobytes() == area.points.tobytes()
    loop, segment = np.divmod(area.provenance[:, 0], 4)
    assert set(loop) == {0, 1, 2}
    want = np.column_stack([np.zeros_like(loop), loop, segment, area.provenance[:, 1:]])
    assert np.array_equal(rule.provenance, want)


def test_boundary_rule_warns_once_for_the_degenerate_patch():
    cyl = cylinder_solid().patches
    patches = (cyl[0], cyl[4], collapsed_edge_patch(), box_solid().patches[1])
    with pytest.warns(UserWarning) as record:
        rule = boundary_rule(patches, 2, 2)
    with pytest.warns(UserWarning, match=r"^patch 0: zeroed"):
        alone = boundary_rule((collapsed_edge_patch(),), 2, 2)
    assert [str(w.message) for w in record] == [
        f"patch 2: zeroed {alone.degenerate_count} degenerate-normal points"
    ]
    assert rule.degenerate_count == alone.degenerate_count > 0
    zero = rule.weights == 0.0
    assert set(rule.provenance[zero, 0]) == {2}
    assert rule.weights[rule.provenance[:, 0] == 2].tobytes() == alone.weights.tobytes()


def test_boundary_rule_needs_patches():
    with pytest.raises(ValidationError, match=r"^patches: need at least 1 item, got 0$"):
        boundary_rule([], 3, 3)


# ---------------------------------------------------------------- one path


def _smooth(x, y, z):
    return np.exp(0.3 * x) * np.cos(y) + z * z


_UNIONS = {
    "cube": lambda: box_solid().patches,
    "cylinder": lambda: cylinder_solid().patches,
    "fitted": lambda: cylinder_solid_fitted().patches,
    "mixed": mixed_net_patches,
}


@pytest.mark.parametrize("union", _UNIONS.values(), ids=_UNIONS.keys())
def test_integrate_is_apply_of_the_boundary_rule(union):
    patches = union()
    got = surface_integrate(patches, _smooth, 5, 5)
    assert got == apply(boundary_rule(patches, 5, 5), _smooth)
    # the per-patch sum adds in another order
    parts = [apply(boundary_rule((tp,), 5, 5), _smooth) for tp in patches]
    assert got == pytest.approx(sum(parts), rel=1e-14, abs=0.0)
    assert surface_integrate(iter(patches), _smooth, 5, 5) == got


def test_integrate_names_the_first_bad_node():
    with pytest.raises(QuadratureError, match=r"\(patch 1, loop -1, segment -1, mu 0, eta 0\)"):
        surface_integrate(box_solid().patches, lambda x, y, z: 1.0 / (z - 1.0), 3, 3)
    with pytest.raises(QuadratureError, match=r"node 0 \(curve 0, q 0, zeta 0\), point"):
        integrate2d(spectral_rule(circle_region(), 3, 3), lambda x, y: 1.0 / (x - x))
    with pytest.raises(QuadratureError, match=r"node 0 \(patch 0, sigma 0, psi 0\), point"):
        apply(volume_rule(box_solid(), 2, 2), lambda x, y, z: 1.0 / (z - z))


_ORDER_UNIONS = {
    "box": lambda: box_solid().patches,
    "cylinder": lambda: cylinder_solid().patches,
    "mixed": mixed_net_patches,
}


@pytest.mark.parametrize("union", _ORDER_UNIONS.values(), ids=_ORDER_UNIONS.keys())
@pytest.mark.parametrize("m_q,n_q", [(-3, 2), (0, 4), (3, 0)])
def test_orders_below_one_rejected_once(union, m_q, n_q):
    patches = union()
    one = lambda x, y, z: np.ones_like(x)
    calls = [
        lambda: boundary_rule(patches, m_q, n_q),
        lambda: surface_integrate(patches, one, m_q, n_q),
        lambda: surface_integrate([], one, m_q, n_q),
    ] + [lambda tp=tp: boundary_rule((tp,), m_q, n_q) for tp in patches]
    message = f"^node count must be >= 1, got {m_q if m_q < 1 else n_q}$"
    for call in calls:
        with pytest.raises(ValidationError, match=message):
            call()


def test_bad_patch_named_by_index():
    cube = box_solid().patches
    want = "need a TrimmedPatch or RationalBezierPatch"
    for call in (
        lambda: boundary_rule([cube[0], "junk"], 3, 3),
        lambda: SolidModel((cube[0], cube[1], 7)),
    ):
        with pytest.raises(ValidationError, match=rf"^patches\[\d\]: {want}, got (str|int)$"):
            call()
    # the one patch of a one-patch rule is patches[0]
    with pytest.raises(ValidationError, match=rf"^patches\[0\]: {want}, got str$"):
        boundary_rule(("junk",), 3, 3)
    # a bare patch is wrapped untrimmed
    bare = [tp.patch for tp in cube]
    want = boundary_rule(cube, 3, 3).weights.tobytes()
    assert boundary_rule(bare, 3, 3).weights.tobytes() == want


def test_finite_area_whose_squared_normals_overflow():
    # the normals of a 1e80 box are 1e160 long, their squares overflow;
    # area, volume and moments are finite and come without a warning
    box = box_solid((0, 0, 0), (1e80,) * 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        area = apply(boundary_rule(box.patches, 2, 2), lambda x, y, z: 1.0)
        volume = apply(volume_rule(box, 2, 2), lambda x, y, z: 1.0)
        moments = geometric_moments(box, 0).values
    assert area == pytest.approx(6e160, rel=1e-15)
    assert volume == pytest.approx(1e240, rel=1e-15)
    assert moments.tolist() == pytest.approx([1e240], rel=1e-15)


def test_finite_normal_magnitudes_keep_their_bits():
    # the two 1e80 x 1e80 faces of a flat box take np.hypot, the four
    # 1e80 x 1 side faces keep the plain norm's magnitude bit for bit
    box = box_solid((0, 0, 0), (1e80, 1e80, 1.0))
    rule = boundary_rule(box.patches, 3, 3)
    g = gauss_legendre(3, (0.0, 1.0))
    pw = np.repeat(g.weights, 3) * np.tile(g.weights, 3)
    overflowed = []
    for i, tp in enumerate(box.patches):
        mine = rule.provenance[:, 0] == i
        normal = patch_normal(tp.patch, *rule.preimages[mine].T)
        with np.errstate(over="ignore"):
            mag = np.linalg.norm(normal, axis=1)
        overflowed.append(not np.isfinite(mag).all())
        if overflowed[-1]:
            mag = np.hypot.reduce(normal, axis=1)
        assert rule.weights[mine].tobytes() == (pw * mag).tobytes(), i
    assert sorted(overflowed) == [False] * 4 + [True] * 2
    assert apply(rule, lambda x, y, z: 1.0) == pytest.approx(2e160, rel=1e-15)


def test_bounding_box_diagonal_whose_square_overflows():
    # a 1e155 x 1e-5 x 1e-5 box: the four long faces have control boxes
    # whose diagonal squares overflow, and no face is taken for degenerate
    box = box_solid((0, 0, 0), (1e155, 1e-5, 1e-5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rule = boundary_rule(box.patches, 2, 2)
        volume = apply(volume_rule(box, 2, 2), lambda x, y, z: 1.0)
    assert rule.degenerate_count == 0
    assert apply(rule, lambda x, y, z: 1.0) == pytest.approx(4e150, rel=1e-15)
    assert volume == pytest.approx(1e145, rel=1e-15)


def test_tiny_box_keeps_its_area_and_volume():
    # |n| is an area: against a tolerance that scaled with a length, every
    # point of a box smaller than about 1.7e-14 was zeroed as degenerate
    box = box_solid((0, 0, 0), (1e-15,) * 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rule = boundary_rule(box.patches, 2, 2)
        volume = apply(volume_rule(box, 2, 2), lambda x, y, z: 1.0)
        moments = geometric_moments(box, 0).values
    assert rule.degenerate_count == 0
    assert apply(rule, lambda x, y, z: 1.0) == pytest.approx(6e-30, rel=1e-14, abs=0)
    assert volume == pytest.approx(1e-45, rel=1e-14, abs=0)
    assert moments.tolist() == pytest.approx([1e-45], rel=1e-14, abs=0)


def test_box_whose_normal_squares_underflow_keeps_its_area():
    # |n| = 1e-162: its squares underflow to 0 in the plain norm, which
    # once zeroed every point as degenerate; np.hypot takes the length.
    # At |n| = 1e-156 and 1e-160 the squares are subnormal: the plain norm
    # read the areas 7.7e-13 and 5.6e-6 (relative) low
    for s in (1e-81, 1e-80, 1e-78):
        box = box_solid((0, 0, 0), (s,) * 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rule = boundary_rule(box.patches, 2, 2)
        assert rule.degenerate_count == 0
        assert apply(rule, lambda x, y, z: 1.0) == pytest.approx(6 * s * s, rel=1e-14, abs=0), s


@pytest.mark.parametrize("scale", [1e-20, 1.0, 1e20])
def test_degenerate_normals_do_not_depend_on_scale(scale):
    tp = collapsed_edge_patch()
    patch = RationalBezierPatch(tp.patch.points * scale, tp.patch.weights)
    with pytest.warns(UserWarning, match="degenerate-normal") as record:
        want = boundary_rule((tp,), 3, 3)
        got = boundary_rule((TrimmedPatch(patch, tp.loops),), 3, 3)
    assert [str(w.message) for w in record[1:]] == [str(record[0].message)]
    assert got.degenerate_count == want.degenerate_count > 0
    assert np.array_equal(got.weights == 0.0, want.weights == 0.0)


_HUGE = box_solid((0, 0, 0), (1e160,) * 3)  # an area of 6e320 is beyond float64
_SPAN = box_solid((-1e308,) * 3, (1e308,) * 3)  # an edge of 2e308 is beyond float64


@pytest.mark.parametrize(
    "build, bad",
    [
        (lambda: boundary_rule(_HUGE.patches, 2, 2), "inf"),
        (lambda: boundary_rule(_HUGE.patches, 2, 2, "z-normal"), "-inf"),
        (lambda: volume_rule(_HUGE, 2, 2), "-inf"),
        (lambda: geometric_moments(_HUGE, 2), "-inf"),
        (lambda: boundary_rule(_SPAN.patches, 2, 2), "inf"),
        (lambda: boundary_rule(_SPAN.patches, 2, 2, "z-normal"), "-inf"),
        (lambda: volume_rule(_SPAN, 2, 2), "-inf"),
        (lambda: geometric_moments(_SPAN, 2), "-inf"),
    ],
    ids=[
        "full-normal", "z-normal", "volume", "moments",
        "span-full-normal", "span-z-normal", "span-volume", "span-moments",
    ],
)
def test_overflowing_boundary_rule_is_refused_as_overflow(build, bad):
    # finite boxes whose areas (1e160) or edges (the span box) exceed
    # float64: no numpy warning, and the refusal says the rule overflowed
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError) as err:
            build()
    overflowed = "the built rule overflowed float64"
    assert str(err.value) == f"{overflowed}: weights[0]: must be finite, got {bad}"
