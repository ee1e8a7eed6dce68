"""The one way arrays enter the frozen types and the public functions,
bezier._adopt: what curves, patches, rules and moment vectors keep
without a copy, what they copy, and what they refuse (text, complex and
non-finite values among it), located at the argument's name, its entry
or its document path."""

import json
import warnings

import numpy as np
import pytest

from bezquad.bezier import (
    _FEW,
    RationalBezierCurve,
    RationalBezierPatch,
    _adopt,
    bernstein_to_monomial,
    eval_curve,
    eval_curve_derivative,
    eval_patch,
    monomial_to_bernstein,
    patch_normal,
)
from bezquad.errors import ValidationError
from bezquad.expr import evaluate, parse
from bezquad.io import load_model, load_region, load_solid
from bezquad.moments import MomentVector, _sum_plan, moment_fit_weights
from bezquad.planar import Rule, Rule2D, _gauss_region_rule, _weights_rule
from bezquad.quad1d import Rule1D, _leggauss, gauss_legendre, weight_poly_roots
from bezquad.shapes import (
    _fitted_trim,
    annulus_region,
    bilinear_patch,
    box_solid,
    circle_region,
    cylinder_solid,
    quarter_arc,
    square_region,
)
from bezquad.surface import TrimLoop, _tensor_part, _trim_part
from bezquad.trimfit import fit_trim_curves
from bezquad.volume import Rule3D, volume_rule

from conftest import bundled_with, triangle_loop


_CIRCLE_WEIGHTS = ["1", "0.7071067811865476", "1"]

# each row used to pass, or to fail with an error that names no argument
_REFUSALS = {
    "2d-points-of-3-columns": (
        lambda _: Rule2D(np.arange(6.0).reshape(2, 3), np.ones(3), np.zeros((3, 3), int)),
        "points: need shape (n, 2), got (2, 3)",
    ),
    "3d-points-of-2-columns": (
        lambda _: Rule3D(np.zeros((3, 2)), np.ones(2), np.zeros((2, 3), int)),
        "points: need shape (n, 3), got (3, 2)",
    ),
    "provenance-of-1-column": (
        lambda _: Rule2D(np.zeros((3, 2)), np.ones(3), np.zeros((9, 1), int)),
        "provenance: need shape (n, 3), got (9, 1)",
    ),
    "moments-of-another-count": (
        lambda _: MomentVector(2, 2, np.zeros(5)),
        "values: need shape (6,), got (5,)",
    ),
    "rule1d-weights-of-another-length": (
        lambda _: Rule1D([0.25, 0.75], [1.0], (0.0, 1.0)),
        "weights: need shape (2,), got (1,)",
    ),
    "complex-rule-points": (
        lambda _: Rule2D([[1.0 + 2.0j, 0.0]], [1.0], [[0, 0, 0]]),
        "points: complex values are not supported",
    ),
    "complex-rule1d-nodes": (
        lambda _: Rule1D([0.5 + 1.0j], [1.0], (0.0, 1.0)),
        "nodes: complex values are not supported",
    ),
    "complex-moments": (
        lambda _: MomentVector(1, 2, [1 + 2j, 0, 0]),
        "values: complex values are not supported",
    ),
    "fractional-provenance": (
        lambda _: Rule2D([[1.0, 2.0]], [1.0], [[0.5, 0, 0]]),
        "provenance: values must be integers in int64 range",
    ),
    "text-points": (
        lambda _: Rule2D([["a", "b"]], [1.0], [[0, 0, 0]]),
        "points: not a numeric array",
    ),
    "json-text-region-weights": (
        lambda tmp: load_region(
            bundled_with(tmp, "circle.region.json", ["loops", 0, 0, "weights"], _CIRCLE_WEIGHTS)
        ),
        "loops[0][0].weights: not a numeric array",
    ),
    "json-text-solid-weights": (
        lambda tmp: load_solid(
            bundled_with(tmp, "cube.solid.json", ["patches", 0, "weights", 1], ["1", "1"])
        ),
        "patches[0].weights: not a numeric array",
    ),
    "json-huge-integer": (
        lambda tmp: load_model(
            bundled_with(tmp, "circle.region.json", ["loops", 0, 1, "points", 0, 0], 10**400)
        ),
        "loops[0][1].points: integer too large for a double",
    ),
    "huge-integer-curve": (
        lambda _: RationalBezierCurve([[10**400, 0], [1, 1]], [1, 1]),
        "points: integer too large for a double",
    ),
    "object-array-holding-True": (
        lambda _: RationalBezierCurve(np.array([[0, 0], [1, True]], dtype=object), [1, 1]),
        "points: not a numeric array",
    ),
}


@pytest.mark.parametrize("build, message", _REFUSALS.values(), ids=_REFUSALS)
def test_refusals_are_located(tmp_path, build, message):
    with pytest.raises(ValidationError) as err:
        build(tmp_path)
    assert str(err.value) == message


_BAD = pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])


@_BAD
@pytest.mark.parametrize("name", ["points", "weights", "preimages"])
def test_rules_refuse_non_finite_values(name, bad):
    # accepted, a NaN weight makes apply return NaN, and an infinite point
    # is blamed on the integrand
    arrays = {"points": np.zeros((2, 3)), "weights": np.ones(2), "preimages": np.full((2, 2), 0.5)}
    arrays[name][-1] = bad
    columns = ("x", "y", "z", "weight", "patch", "i", "j")
    with pytest.raises(ValidationError) as err:
        Rule(provenance=np.zeros((2, 3), int), columns=columns, **arrays)
    where = "[1]" if name == "weights" else "[1][0]"
    assert str(err.value) == f"{name}{where}: must be finite, got {bad}"


@_BAD
@pytest.mark.parametrize("name", ["nodes", "weights"])
def test_rule1d_refuses_non_finite_values(name, bad):
    arrays = {"nodes": np.array([0.25, 0.75]), "weights": np.array([0.5, 0.5])}
    arrays[name][-1] = bad
    with pytest.raises(ValidationError) as err:
        Rule1D(interval=(0.0, 1.0), **arrays)
    assert str(err.value) == f"{name}[1]: must be finite, got {bad}"


_FLAT = bilinear_patch((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0))
_HALF = np.array([0.25, 0.5])

# each public entry point that takes a numeric array: a call with the
# array, the argument's name and a valid array of its shape
_ENTRY_POINTS = {
    "eval_curve": (lambda a: eval_curve(quarter_arc(), a), "s", _HALF),
    "eval_curve_derivative": (lambda a: eval_curve_derivative(quarter_arc(), a), "s", _HALF),
    "eval_patch-u": (lambda a: eval_patch(_FLAT, a, _HALF), "u", _HALF),
    "eval_patch-v": (lambda a: eval_patch(_FLAT, _HALF, a), "v", _HALF),
    "patch_normal-u": (lambda a: patch_normal(_FLAT, a, _HALF), "u", _HALF),
    "patch_normal-v": (lambda a: patch_normal(_FLAT, _HALF, a), "v", _HALF),
    "bernstein_to_monomial": (bernstein_to_monomial, "coeffs", np.ones((3, 2))),
    "monomial_to_bernstein": (monomial_to_bernstein, "coeffs", np.ones(3)),
    "weight_poly_roots": (weight_poly_roots, "weights", np.ones(3)),
    "moment_fit_weights": (
        lambda a: moment_fit_weights(a, MomentVector(1, 2, [1.0, 0.5, 0.5])), "points", np.eye(3, 2)
    ),
    "fit_trim_curves": (lambda a: fit_trim_curves(a, 1, 1), "points", np.eye(3, 2)),
}


@pytest.mark.parametrize("fault", ["text", "complex", "nan"])
@pytest.mark.parametrize("call, name, good", _ENTRY_POINTS.values(), ids=_ENTRY_POINTS)
def test_entry_points_refuse_at_the_argument(call, name, good, fault):
    # numpy's own conversion raised a bare ValueError on text, dropped the
    # imaginary parts with a ComplexWarning, or let NaN through
    call(good)
    bad = {"text": good.astype(str), "complex": good + 1j, "nan": good.copy()}[fault]
    bad.flat[0] = np.nan if fault == "nan" else bad.flat[0]
    message = {
        "text": "not a numeric array",
        "complex": "complex values are not supported",
        "nan": "must be finite, got nan",
    }[fault]
    where = "[0]" * good.ndim if fault == "nan" else ""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError) as err:
            call(bad)
    assert str(err.value) == f"{name}{where}: {message}"


# each real argument, scalar or array: a call with it, its name and a
# valid value; a bool is no number, even inside a list of floats
_REALS = {
    **{
        key: _ENTRY_POINTS[key]
        for key in (
            "eval_curve", "eval_patch-u", "eval_patch-v", "moment_fit_weights", "fit_trim_curves"
        )
    },
    "curve-points": (lambda a: RationalBezierCurve(a, np.ones(3)), "points", np.eye(3, 2)),
    "curve-weights": (lambda a: RationalBezierCurve(np.eye(3, 2), a), "weights", np.ones(3)),
    "patch-points": (lambda a: RationalBezierPatch(a, _FLAT.weights), "points", np.ones((2, 2, 3))),
    "patch-weights": (lambda a: RationalBezierPatch(_FLAT.points, a), "weights", np.ones((2, 2))),
    "rule1d-nodes": (lambda a: Rule1D(a, _HALF, (0.0, 1.0)), "nodes", _HALF),
    "rule1d-weights": (lambda a: Rule1D(_HALF, a, (0.0, 1.0)), "weights", _HALF),
    "rule1d-interval": (lambda a: Rule1D(_HALF, _HALF, a), "interval", np.array([0.0, 1.0])),
    "gauss_legendre": (lambda a: gauss_legendre(2, a), "interval", np.array([0.0, 1.0])),
    "circle-center": (lambda a: circle_region(a), "center", _HALF),
    "circle-radius": (lambda a: circle_region(radius=a), "radius", np.array(1.0)),
    "annulus-center": (lambda a: annulus_region(a), "center", _HALF),
    "annulus-outer": (lambda a: annulus_region(outer=a), "outer", np.array(1.0)),
    "annulus-inner": (lambda a: annulus_region(inner=a), "inner", np.array(0.5)),
    "square-lo": (lambda a: square_region(lo=a), "lo", np.zeros(2)),
    "square-hi": (lambda a: square_region(hi=a), "hi", np.ones(2)),
    "box-lo": (lambda a: box_solid(lo=a), "lo", np.zeros(3)),
    "box-hi": (lambda a: box_solid(hi=a), "hi", np.ones(3)),
    "cylinder-center": (lambda a: cylinder_solid(a), "center", _HALF),
    "cylinder-radius": (lambda a: cylinder_solid(radius=a), "radius", np.array(1.0)),
    "cylinder-z0": (lambda a: cylinder_solid(z0=a), "z0", np.array(0.0)),
    "cylinder-height": (lambda a: cylinder_solid(height=a), "height", np.array(1.0)),
    "volume_rule-pz": (lambda a: volume_rule(box_solid(), 2, 2, pz=a), "pz", np.array(-1.0)),
    "evaluate-point": (lambda a: evaluate(parse("x"), a), "point", np.zeros(3)),
}


def _true_inside(good):
    """``good`` as nested lists with its first number True, or
    ``[True, good]`` for a scalar ``good``."""
    a = np.array(good, dtype=object)
    if a.ndim == 0:
        return [True, good.item()]
    a.flat[0] = True
    return a.tolist()


@pytest.mark.parametrize("fault", ["True", "np.True_", "list-holding-True", "text", "nan"])
@pytest.mark.parametrize("call, name, good", _REALS.values(), ids=_REALS)
def test_real_arguments_refuse_booleans_text_and_nan(call, name, good, fault):
    # a bool was taken as 1 or 0 (circle_region(radius=True) built the unit
    # circle), and pz had its own check
    call(good)
    nan = good.copy()
    nan[(0,) * good.ndim] = np.nan
    bad = {"True": True, "np.True_": np.True_, "list-holding-True": _true_inside(good)}
    bad = {**bad, "text": "1", "nan": nan}[fault]
    where = "[0]" * good.ndim if fault == "nan" else ""
    message = "must be finite, got nan" if fault == "nan" else "not a numeric array"
    with pytest.raises(ValidationError) as err:
        call(bad)
    assert str(err.value) == f"{name}{where}: {message}"


# each entry point that takes an array of one rank, or of at least one axis:
# the call, the argument's name, the shape it needs, and a wrong shape
_COEFFS = "a nonempty shape (n+1, ...)"
_SHAPED = {
    "bernstein_to_monomial": (bernstein_to_monomial, "coeffs", _COEFFS, (0, 2)),
    "monomial_to_bernstein": (monomial_to_bernstein, "coeffs", _COEFFS, (0, 2)),
    "gauss_legendre": (lambda a: gauss_legendre(2, a), "interval", "shape (2,)", (3,)),
    "rule1d-interval": (lambda a: Rule1D(_HALF, _HALF, a), "interval", "shape (2,)", (3,)),
    "evaluate-point": (lambda a: evaluate(parse("x"), a), "point", "shape (3,)", (1,)),
}


@pytest.mark.parametrize("value", ["scalar", "empty", "mismatched"])
@pytest.mark.parametrize("call, name, want, wrong", _SHAPED.values(), ids=_SHAPED)
def test_entry_points_refuse_a_wrong_shape_at_the_argument(call, name, want, wrong, value):
    # each raised numpy's IndexError, ValueError or TypeError, or accepted
    # the array: an interval of three numbers
    bad = {"scalar": 5.0, "empty": [], "mismatched": np.ones(wrong)}[value]
    with pytest.raises(ValidationError) as err:
        call(bad)
    assert err.value.path == name
    assert str(err.value) == f"{name}: need {want}, got {np.shape(bad)}"


def test_json_integers_a_double_holds_still_load(tmp_path):
    big = 10**20
    corners = [[0, 0], [big, 0], [big, big], [0, big]]
    loop = [{"points": [a, b]} for a, b in zip(corners, corners[1:] + corners[:1])]
    path = tmp_path / "square.region.json"
    path.write_text(json.dumps({"loops": [loop]}))
    assert load_region(path).curves[1].points.tolist() == [[1e20, 0.0], [1e20, 1e20]]


# each frozen type, what it is built from, and the field that adopts it
_ADOPTERS = {
    "curve": (lambda a: RationalBezierCurve(a, np.ones(3)), np.eye(3, 2), "points"),
    "patch": (lambda a: RationalBezierPatch(a, np.ones((2, 2))), np.ones((2, 2, 3)), "points"),
    "rule": (lambda a: Rule2D(np.zeros((3, 2)), a, np.zeros((3, 3), int)), np.ones(3), "weights"),
    "rule1d": (lambda a: Rule1D(a, np.ones(3), (0.0, 1.0)), np.linspace(0.0, 1.0, 3), "nodes"),
    "moments": (lambda a: MomentVector(1, 2, a), np.ones(3), "values"),
}


@pytest.mark.parametrize("build, values, field", _ADOPTERS.values(), ids=_ADOPTERS)
def test_only_what_nothing_else_can_write_is_shared(build, values, field):
    frozen = values.copy()
    frozen.flags.writeable = False
    assert getattr(build(frozen), field) is frozen
    writeable = values.copy()
    view = writeable[:]
    view.flags.writeable = False
    for given in (writeable, view):
        kept = getattr(build(given), field)
        assert not kept.flags.writeable and not np.shares_memory(kept, writeable)
        assert np.array_equal(kept, values)


def test_reversed_curve_shares_its_control_net():
    arc = quarter_arc()
    back = arc.reversed()
    assert np.shares_memory(back.points, arc.points)
    assert np.shares_memory(back.weights, arc.weights)
    assert np.array_equal(back.points, arc.points[::-1])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_kept_reversed_view_is_checked_at_its_own_entries(bad):
    # a clockwise arc's points are such a view: kept without a copy, its
    # few values read for finiteness where they lie, a bad one named at its
    # index in the view
    block = np.arange(6.0).reshape(3, 2).copy()  # owns its data
    block.flags.writeable = False
    view = block[::-1, ::-1]
    assert _adopt(view, "points", shape=(None, 2)) is view
    assert RationalBezierCurve(view, np.ones(3)).points is view
    block = block.copy()
    block[1, 0] = bad
    block.flags.writeable = False
    for build in (lambda v: _adopt(v, "points", shape=(None, 2)), lambda v: RationalBezierCurve(v, np.ones(3))):
        with pytest.raises(ValidationError) as err:
            build(block[::-1, ::-1])
        assert str(err.value) == f"points[1][1]: must be finite, got {bad}"


# each short path of _adopt: a value that takes it, the name, dtype and
# shape it is adopted under, and the entry a NaN or inf replaces (None for
# integers).  _FEW values are checked for finiteness in Python, one more by numpy
_SHORT_PATHS = {
    "writeable-float64": (np.arange(6.0).reshape(3, 2), "points", float, (None, 2), (2, 1)),
    "writeable-int64": (np.arange(9).reshape(3, 3), "provenance", np.int64, (None, 3), None),
    "python-float": (0.75, "radius", float, (), ()),
    "tuple-of-floats": ((0.25, 0.5), "center", float, (2,), (1,)),
    "list-of-floats": ([0.0, 1.0], "interval", float, (2,), (0,)),
    "few-values": (np.linspace(0.0, 1.0, _FEW)[:, None], "nodes", float, (None, 1), (_FEW - 1, 0)),
    "one-more": (np.linspace(0.0, 1.0, _FEW + 1)[:, None], "nodes", float, (None, 1), (_FEW, 0)),
}


def _general(value):
    """``value`` in a form that takes _adopt's general path: an object
    array for an array, numpy floats for Python floats."""
    if isinstance(value, np.ndarray):
        return value.astype(object)
    return np.float64(value) if isinstance(value, float) else [np.float64(v) for v in value]


def _with(value, at, bad):
    """A copy of ``value`` holding ``bad`` at the entry ``at``."""
    if isinstance(value, float):
        return bad
    if isinstance(value, np.ndarray):
        value = value.copy()
        value[at] = bad
        return value
    return type(value)(bad if i == at[0] else v for i, v in enumerate(value))


@pytest.mark.parametrize("value, name, dtype, shape, at", _SHORT_PATHS.values(), ids=_SHORT_PATHS)
def test_short_paths_adopt_what_the_general_path_does(value, name, dtype, shape, at):
    want = _adopt(_general(value), name, dtype, shape)
    got = _adopt(value, name, dtype, shape)
    assert type(got) is np.ndarray and (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()
    assert not got.flags.writeable and not np.shares_memory(got, value)


@_BAD
@pytest.mark.parametrize(
    "value, name, dtype, shape, at",
    [row for row in _SHORT_PATHS.values() if row[-1] is not None],
    ids=[key for key, row in _SHORT_PATHS.items() if row[-1] is not None],
)
def test_short_paths_refuse_what_the_general_path_does(value, name, dtype, shape, at, bad):
    value = _with(value, at, bad)
    messages = []
    for given in (value, _general(value)):
        with pytest.raises(ValidationError) as err:
            _adopt(given, name, dtype, shape)
        messages.append(str(err.value))
    where = "".join(f"[{i}]" for i in at)
    assert messages == [f"{name}{where}: must be finite, got {bad}"] * 2


class _Subclass(np.ndarray):
    pass


# float64 arrays that take the general path or a plain copy, never the
# kept one: a subclass, and a read-only array over a bytes object
_COPIED = {
    "ndarray-subclass": lambda a: a.view(_Subclass),
    "read-only-frombuffer": lambda a: np.frombuffer(a.tobytes()).reshape(a.shape),
}


@pytest.mark.parametrize("make", _COPIED.values(), ids=_COPIED)
def test_subclasses_and_foreign_buffers_are_copied(make):
    values = np.arange(6.0).reshape(3, 2)
    given = make(values)
    got = _adopt(given, "points", shape=(None, 2))
    assert type(got) is np.ndarray and got.tobytes() == values.tobytes()
    assert not got.flags.writeable and not np.shares_memory(got, given)
    values[1, 0] = np.nan
    with pytest.raises(ValidationError) as err:
        _adopt(make(values), "points", shape=(None, 2))
    assert str(err.value) == "points[1][0]: must be finite, got nan"


_TRIANGLE = triangle_loop().segments
# each memo, called with arguments for one entry: every caller shares its
# arrays, so none may be writeable
_MEMOS = {
    "_leggauss": lambda: _leggauss(5),
    "_tensor_part": lambda: _tensor_part(3, 4),
    "_trim_part": lambda: _trim_part(
        _gauss_region_rule,
        (4, 3),
        tuple((0, j) for j in range(3)),
        tuple((c.points.tobytes(), c.weights.tobytes()) for c in _TRIANGLE),
    ),
    "_weights_rule": lambda: _weights_rule(np.array([1.0, 0.5, 1.0]).tobytes(), 3),
    "_sum_plan": lambda: _sum_plan(3, 3),
    "_fitted_trim": lambda: _fitted_trim(4, 3),
}


def _arrays(value):
    """The arrays in ``value``, its tuples, its Rule1Ds and its TrimLoops' curves."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, Rule1D):
        yield from (value.nodes, value.weights)
    elif isinstance(value, TrimLoop):
        for curve in value.segments:
            yield from (curve.points, curve.weights)
    elif isinstance(value, tuple):
        for item in value:
            yield from _arrays(item)


@pytest.mark.parametrize("call", _MEMOS.values(), ids=_MEMOS)
def test_memos_hand_out_read_only_arrays(call):
    # a first call, which may build, and a second, which hits
    arrays = [*_arrays(call()), *_arrays(call())]
    assert arrays and not any(a.flags.writeable for a in arrays)
