"""The one way sequences enter bezquad, bezier._items: every list of
loops, segments or patches, in Python or in a JSON document, is refused
at its name when it is no list (None, a bare item, a dict, text), when it
is empty where an item is needed, and at the item when one is of the
wrong kind.  Single objects enter through bezier._kind, which words the
same refusal at the argument's name."""

import json
import math

import pytest

from bezquad.bezier import eval_curve, eval_curve_derivative, eval_patch, patch_normal
from bezquad.errors import ValidationError
from bezquad.expr import (
    BinOp,
    Call,
    Neg,
    Num,
    Var,
    evaluate,
    parse,
    polynomial_degree,
    to_callable,
    to_text,
)
from bezquad.io import (
    load_model,
    moment_csv_lines,
    save_moments,
    save_region,
    save_rule,
    save_solid,
)
from bezquad.moments import geometric_moments, moment_fit_weights
from bezquad.planar import (
    PlanarRegion,
    Rule,
    apply,
    region_constant_C,
    spectral_pe_rule,
    spectral_rule,
)
from bezquad.quad1d import PoleSet, rational_rule
from bezquad.shapes import (
    bilinear_patch,
    box_solid,
    circle_loop,
    circle_region,
    flip_patch,
    flip_solid,
    quarter_arc,
)
from bezquad.surface import (
    TrimLoop,
    TrimmedPatch,
    boundary_rule,
    parametric_area_rule,
    surface_integrate,
    unit_square_loop,
)
from bezquad.volume import SolidModel, solid_constant_Pz, volume_rule

_FLAT = bilinear_patch((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0))
_CURVE_JSON = {"points": [[0, 0], [1, 0]]}
_PATCH_JSON = {"points": [[[0, 0, 0], [0, 1, 0]], [[1, 0, 0], [1, 1, 0]]]}
_PATCH_KINDS = "TrimmedPatch or RationalBezierPatch"


def _load(tmp, doc):
    path = tmp / "doc.json"
    path.write_text(json.dumps(doc))
    return load_model(path)


def _trims(loops):
    return {"patches": [dict(_PATCH_JSON, trim_loops=loops)]}


# each entry point that takes a sequence: a call with it, its name, a bare
# item and its refusal, a list holding a wrong item and its refusal, and
# the faults it accepts (an empty sequence, or a JSON null meaning none).
# A non-list raised TypeError ('NoneType' object is not iterable) or, as a
# dict, was taken for the list of its keys
_SEQUENCES = {
    "PlanarRegion": (
        lambda _, v: PlanarRegion(v), "loops",
        tuple(circle_loop()), "loops[0]: need a list, got RationalBezierCurve",
        [5], "loops[0]: need a list, got int", (),
    ),
    "PlanarRegion-loop": (
        lambda _, v: PlanarRegion((v,)), "loops[0]",
        quarter_arc(), "loops[0]: need a list, got RationalBezierCurve",
        [quarter_arc(), 5], "loops[0][1]: need a RationalBezierCurve, got int", (),
    ),
    "TrimLoop": (
        lambda _, v: TrimLoop(v), "segments",
        quarter_arc(), "segments: need a list, got RationalBezierCurve",
        [5], "segments[0]: need a RationalBezierCurve, got int", (),
    ),
    "TrimmedPatch-loops": (
        lambda _, v: TrimmedPatch(_FLAT, v), "loops",
        unit_square_loop(), "loops: need a list, got TrimLoop",
        [unit_square_loop().segments], "loops[0]: need a TrimLoop, got tuple", ("empty",),
    ),
    "parametric_area_rule": (
        lambda _, v: parametric_area_rule(v, 2, 2), "loops",
        unit_square_loop(), "loops: need a list, got TrimLoop",
        [unit_square_loop(), 5], "loops[1]: need a TrimLoop, got int", (),
    ),
    "SolidModel": (
        lambda _, v: SolidModel(v), "patches",
        _FLAT, "patches: need a list, got RationalBezierPatch",
        [_FLAT, 5], f"patches[1]: need a {_PATCH_KINDS}, got int", (),
    ),
    "boundary_rule": (
        lambda _, v: boundary_rule(v, 2, 2), "patches",
        TrimmedPatch(_FLAT), "patches: need a list, got TrimmedPatch",
        [unit_square_loop()], f"patches[0]: need a {_PATCH_KINDS}, got TrimLoop", (),
    ),
    "surface_integrate": (
        lambda _, v: surface_integrate(v, lambda x, y, z: x, 2, 2), "patches",
        _FLAT, "patches: need a list, got RationalBezierPatch",
        [5], f"patches[0]: need a {_PATCH_KINDS}, got int", ("empty",),
    ),
    "region-file-loops": (
        lambda tmp, v: _load(tmp, {"loops": v}), "loops",
        [_CURVE_JSON], "loops[0]: need a list, got dict",
        [5], "loops[0]: need a list, got int", (),
    ),
    "region-file-loop": (
        lambda tmp, v: _load(tmp, {"loops": [v]}), "loops[0]",
        _CURVE_JSON, "loops[0]: need a list, got dict",
        [5], "loops[0][0]: expected a curve object", (),
    ),
    "solid-file-patches": (
        lambda tmp, v: _load(tmp, {"patches": v}), "patches",
        _PATCH_JSON, "patches: need a list, got dict",
        [5], "patches[0]: expected a patch object", (),
    ),
    "solid-file-trim-loops": (
        lambda tmp, v: _load(tmp, _trims(v)), "patches[0].trim_loops",
        [_CURVE_JSON], "patches[0].trim_loops[0]: need a list, got dict",
        [5], "patches[0].trim_loops[0]: need a list, got int", ("None", "empty"),
    ),
    "solid-file-trim-loop": (
        lambda tmp, v: _load(tmp, _trims([v])), "patches[0].trim_loops[0]",
        _CURVE_JSON, "patches[0].trim_loops[0]: need a list, got dict",
        [5], "patches[0].trim_loops[0][0]: expected a curve object", (),
    ),
}


@pytest.mark.parametrize("fault", ["None", "bare", "dict", "str", "empty", "wrong"])
@pytest.mark.parametrize(
    "call, name, bare, bare_refusal, wrong, wrong_refusal, accepts",
    _SEQUENCES.values(),
    ids=_SEQUENCES,
)
def test_sequences_are_refused_at_their_name(
    tmp_path, call, name, bare, bare_refusal, wrong, wrong_refusal, accepts, fault
):
    value = {"None": None, "bare": bare, "dict": {}, "str": "ab", "empty": [], "wrong": wrong}
    if fault in accepts:
        call(tmp_path, value[fault])
        return
    message = {
        "None": f"{name}: need a list, got NoneType",
        "bare": bare_refusal,
        "dict": f"{name}: need a list, got dict",
        "str": f"{name}: need a list, got str",
        "empty": f"{name}: need at least 1 item, got 0",
        "wrong": wrong_refusal,
    }[fault]
    with pytest.raises(ValidationError) as err:
        call(tmp_path, value[fault])
    assert str(err.value) == message


def test_any_ordered_iterable_is_taken():
    # a list, a tuple or an iterator, kept as a tuple of the same items
    loop = circle_loop((0.5, 0.5), 0.5)
    (kept,) = PlanarRegion(iter([iter(loop)])).loops
    assert type(kept) is tuple and all(a is b for a, b in zip(kept, loop, strict=True))
    segments = TrimLoop(list(loop)).segments
    assert type(segments) is tuple and all(a is b for a, b in zip(segments, loop, strict=True))
    assert surface_integrate(iter((_FLAT,)), lambda x, y, z: 1.0, 2, 2) == pytest.approx(1.0)


_DISK = circle_region()
_BOX = box_solid()
_RULE = spectral_rule(_DISK, 2, 2)
_MOMENTS = geometric_moments(_DISK, 2)


def _rule_named(columns):
    return Rule([[0.5, 0.5]], [1.0], [[0]], columns)


# each entry point that takes one object: a call with it, a wrong value
# and its refusal, and a value it accepts.  The type is checked before any
# attribute is read, so no AttributeError escapes, and before a saver
# creates its file; a Rule's columns are a list of names, so text is
# refused rather than split into characters
_OBJECTS = {
    "spectral_rule": (
        lambda v, _: spectral_rule(v, 2, 2),
        None, "region: need a PlanarRegion, got NoneType", _DISK,
    ),
    "spectral_pe_rule": (
        lambda v, _: spectral_pe_rule(v, 2),
        _DISK.loops, "region: need a PlanarRegion, got tuple", _DISK,
    ),
    "region_constant_C": (
        lambda v, _: region_constant_C(v),
        _BOX, "region: need a PlanarRegion, got SolidModel", _DISK,
    ),
    "volume_rule": (
        lambda v, _: volume_rule(v, 2, 2),
        _BOX.patches[0], "solid: need a SolidModel, got TrimmedPatch", _BOX,
    ),
    "solid_constant_Pz": (
        lambda v, _: solid_constant_Pz(v),
        list(_BOX.patches), "solid: need a SolidModel, got list", _BOX,
    ),
    "flip_solid": (
        lambda v, _: flip_solid(v),
        _DISK, "solid: need a SolidModel, got PlanarRegion", _BOX,
    ),
    "flip_patch": (
        lambda v, _: flip_patch(v),
        _FLAT, "tp: need a TrimmedPatch, got RationalBezierPatch", TrimmedPatch(_FLAT),
    ),
    "apply": (
        lambda v, _: apply(v, lambda x, y: x),
        None, "rule: need a Rule, got NoneType", _RULE,
    ),
    "save_rule": (
        lambda v, tmp: save_rule(v, tmp / "r.csv"),
        _RULE.points, "rule: need a Rule, got ndarray", _RULE,
    ),
    "rational_rule": (
        lambda v, _: rational_rule(v),
        [(2.0, 1)], "poles: need a PoleSet, got list", PoleSet(((2.0, 1),)),
    ),
    "moment_fit_weights": (
        lambda v, _: moment_fit_weights(_RULE.points, v),
        _MOMENTS.values, "moments: need a MomentVector, got ndarray", _MOMENTS,
    ),
    "geometric_moments": (
        lambda v, _: geometric_moments(v, 1),
        "cube", "model: need a PlanarRegion or SolidModel, got str", _BOX,
    ),
    "TrimmedPatch": (
        lambda v, _: TrimmedPatch(v),
        unit_square_loop(), "patch: need a RationalBezierPatch, got TrimLoop", _FLAT,
    ),
    "eval_curve": (
        lambda v, _: eval_curve(v, 0.5),
        None, "curve: need a RationalBezierCurve, got NoneType", quarter_arc(),
    ),
    "eval_curve_derivative": (
        lambda v, _: eval_curve_derivative(v, 0.5),
        _FLAT, "curve: need a RationalBezierCurve, got RationalBezierPatch", quarter_arc(),
    ),
    "eval_patch": (
        lambda v, _: eval_patch(v, 0.5, 0.5),
        None, "patch: need a RationalBezierPatch, got NoneType", _FLAT,
    ),
    "patch_normal": (
        lambda v, _: patch_normal(v, 0.5, 0.5),
        TrimmedPatch(_FLAT), "patch: need a RationalBezierPatch, got TrimmedPatch", _FLAT,
    ),
    "save_region": (
        lambda v, tmp: save_region(v, tmp / "r.json"),
        None, "region: need a PlanarRegion, got NoneType", _DISK,
    ),
    "save_solid": (
        lambda v, tmp: save_solid(v, tmp / "s.json"),
        _DISK, "solid: need a SolidModel, got PlanarRegion", _BOX,
    ),
    "save_moments": (
        lambda v, tmp: save_moments(v, tmp / "m.csv"),
        None, "mv: need a MomentVector, got NoneType", _MOMENTS,
    ),
    "moment_csv_lines": (
        lambda v, _: moment_csv_lines(v),
        _MOMENTS.values, "mv: need a MomentVector, got ndarray", _MOMENTS,
    ),
    # the four walkers of an expression tree raised AttributeError, or with
    # to_callable returned a function that failed when called; parse raised
    # a raw TypeError
    "to_text": (lambda v, _: to_text(v), None, "node: need a Expr, got NoneType", parse("x")),
    "evaluate": (
        lambda v, _: evaluate(v, (0, 0, 0)), None, "node: need a Expr, got NoneType", parse("x")
    ),
    "polynomial_degree": (
        lambda v, _: polynomial_degree(v), None, "node: need a Expr, got NoneType", parse("x")
    ),
    "to_callable": (
        lambda v, _: to_callable(v), "x", "node: need a Expr, got str", parse("x")
    ),
    "parse": (lambda v, _: parse(v), None, "text: need a str, got NoneType", "x"),
    "parse-bytes": (lambda v, _: parse(v), b"x", "text: need a str, got bytes", "x"),
    "Rule-columns-None": (
        lambda v, _: _rule_named(v),
        None, "columns: need a list, got NoneType", ["x", "y", "weight", "i"],
    ),
    "Rule-columns-str": (
        lambda v, _: _rule_named(v),
        "x,y,weight,i", "columns: need a list, got str", ("x", "y", "weight", "i"),
    ),
    "Rule-columns-item": (
        lambda v, _: _rule_named(v),
        ("x", "y", "weight", 1), "columns[3]: need a str, got int", _RULE.columns[:3] + ("i",),
    ),
}


@pytest.mark.parametrize("taken", [False, True], ids=["wrong", "accepted"])
@pytest.mark.parametrize("call, wrong, refusal, accepted", _OBJECTS.values(), ids=_OBJECTS)
def test_objects_are_refused_at_their_name(tmp_path, call, wrong, refusal, accepted, taken):
    if taken:
        call(accepted, tmp_path)
        return
    with pytest.raises(ValidationError) as err:
        call(wrong, tmp_path)
    assert str(err.value) == refusal
    assert not any(tmp_path.iterdir())  # a refused saver created no file


_X = Var("x")
# each field of a hand-built expression node: a call building a node with
# it, a wrong value and its refusal, and a value it accepts.  Built, the
# wrong ones were misread by the four walkers: x^2.5 evaluated as x^2 and
# printed as x^2, a Var exponent raised AttributeError, and an unknown
# operator, function or variable raised KeyError when evaluated, while
# polynomial_degree gave % and w degree 1
_NODES = {
    "Num-text": (lambda v: Num(v), "2", "value: not a numeric array", math.nan),
    "Num-bool": (lambda v: Num(v), True, "value: not a numeric array", 2),
    "Var-name": (lambda v: Var(v), "w", "name: need one of x, y, z, got 'w'", "z"),
    "Neg-child": (lambda v: Neg(v), 1.0, "child: need a Expr, got float", _X),
    "BinOp-op": (lambda v: BinOp(v, _X, _X), "%", "op: need one of +, -, *, /, ^, got '%'", "/"),
    "BinOp-left": (lambda v: BinOp("+", v, _X), "x", "left: need a Expr, got str", _X),
    "BinOp-right": (lambda v: BinOp("*", _X, v), None, "right: need a Expr, got NoneType", _X),
    "power-fraction": (
        lambda v: BinOp("^", _X, v),
        Num(2.5), "right: need an integral Num exponent for ^, got 2.5", Num(-2.0),
    ),
    "power-Var": (
        lambda v: BinOp("^", _X, v),
        Var("y"), "right: need an integral Num exponent for ^, got Var", Num(float(2**1000)),
    ),
    "power-nan": (
        lambda v: BinOp("^", _X, v),
        Num(math.nan), "right: need an integral Num exponent for ^, got nan", Num(0.0),
    ),
    "Call-fn": (
        lambda v: Call(v, _X), "tan", "fn: need one of sqrt, exp, sin, cos, log, got 'tan'", "log",
    ),
    "Call-arg": (lambda v: Call("sin", v), None, "arg: need a Expr, got NoneType", _X),
}


@pytest.mark.parametrize("taken", [False, True], ids=["wrong", "accepted"])
@pytest.mark.parametrize("call, wrong, refusal, accepted", _NODES.values(), ids=_NODES)
def test_expression_nodes_are_refused_at_their_field(call, wrong, refusal, accepted, taken):
    if taken:
        call(accepted)
        return
    with pytest.raises(ValidationError) as err:
        call(wrong)
    assert str(err.value) == refusal
