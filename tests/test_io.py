import builtins
import json
import math
import re

import numpy as np
import pytest

from bezquad import bezier, io
from bezquad.cli import main
from bezquad.errors import ValidationError
from bezquad.trimfit import fit_trim_curves
from conftest import NET_FAULTS
from bezquad.io import (
    bundled,
    load_region,
    load_rule,
    load_solid,
    load_trim_points,
    moment_csv_lines,
    save_moments,
    save_region,
    save_rule,
    save_solid,
)
from bezquad.moments import _monomials, geometric_moments, monomial_exponents
from bezquad.planar import Rule, Rule2D, apply, integrate2d, spectral_pe_rule, spectral_rule
from bezquad.shapes import circle_region, cylinder_solid
from bezquad.surface import boundary_rule
from bezquad.volume import volume_rule


def test_bundled_circle_region():
    region = load_region(bundled("circle.region.json"))
    assert len(region.loops) == 1
    loop = region.loops[0]
    assert len(loop) == 4
    assert all(c.degree == 2 for c in loop)
    rule = spectral_rule(region, 12, 12)
    assert integrate2d(rule, lambda x, y: np.ones_like(x)) == pytest.approx(math.pi, abs=1e-12)


def test_bundled_cube_solid():
    solid = load_solid(bundled("cube.solid.json"))
    assert len(solid.patches) == 6
    assert solid.closed
    assert apply(volume_rule(solid, 4, 4), lambda x, y, z: np.ones_like(x)) == pytest.approx(
        1.0, abs=1e-12
    )


def test_bundled_cylinder_has_trimmed_caps():
    solid = load_solid(bundled("cylinder.solid.json"))
    assert len(solid.patches) == 6
    assert sum(1 for tp in solid.patches if tp.loops) == 2


def test_bundled_unknown_name():
    with pytest.raises(ValidationError, match="circle.region.json"):
        bundled("nope.json")


@pytest.mark.parametrize("name", ["../io.py", None], ids=["package-source", "none"])
def test_bundled_returns_only_its_data_files(name):
    # a path out of the data directory was returned, and None raised a raw
    # TypeError
    with pytest.raises(ValidationError) as err:
        bundled(name)
    have = "['circle.region.json', 'cube.solid.json', 'cylinder.solid.json']"
    assert str(err.value) == f"no bundled file {name!r}; available: {have}"


def test_region_round_trip(tmp_path):
    region = circle_region(center=(0.3, -0.2), radius=1.7)
    path = tmp_path / "r.json"
    save_region(region, path)
    back = load_region(path)
    for a, b in zip(region.loops[0], back.loops[0]):
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.weights, b.weights)


def test_solid_round_trip(tmp_path):
    solid = cylinder_solid(radius=0.8, height=2.0)
    path = tmp_path / "s.json"
    save_solid(solid, path)
    back = load_solid(path)
    assert back.closed == solid.closed
    for tp, tq in zip(solid.patches, back.patches):
        assert np.array_equal(tp.patch.points, tq.patch.points)
        assert np.array_equal(tp.patch.weights, tq.patch.weights)
        assert len(tp.loops) == len(tq.loops)
        for la, lb in zip(tp.loops, tq.loops):
            for sa, sb in zip(la.segments, lb.segments):
                assert np.array_equal(sa.points, sb.points)


def test_omitted_weights_default_to_one(tmp_path):
    doc = {
        "loops": [
            [
                {"points": [[0, 0], [1, 0]]},
                {"points": [[1, 0], [1, 1]]},
                {"points": [[1, 1], [0, 0]]},
            ]
        ]
    }
    path = tmp_path / "tri.json"
    path.write_text(json.dumps(doc))
    region = load_region(path)
    assert all(np.all(c.weights == 1.0) for c in region.loops[0])


def test_nonpositive_weight_names_curve_and_index(tmp_path):
    doc = {
        "loops": [
            [
                {"points": [[0, 0], [1, 0]], "weights": [1.0, 1.0]},
                {"points": [[1, 0], [0, 0]], "weights": [1.0, -2.0]},
            ]
        ]
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError) as err:
        load_region(path)
    assert "loops[0][1].weights[1]" in str(err.value)
    assert "-2" in str(err.value)


_FLAT_PATCH = {"points": [[[0, 0, 0], [0, 1, 0]], [[1, 0, 0], [1, 1, 0]]]}


@pytest.mark.parametrize(
    "doc,fragment",
    [
        ({"loops": []}, "loops"),
        ({"patches": [{"points": [[[0, 0, 0]]]}]}, r"patches\[0\]\.points"),
        ({"loops": [[{"points": [[0, 0], [1, 0]], "extra": 1}]]}, "unknown keys"),
        ({"loops": [[{"degree": 3, "points": [[0, 0], [1, 0]]}]]}, "degree"),
        ({"loops": [[{"points": [[0, 0], [1, "a"]]}]]}, "numeric"),
        ({"loops": [[{"degree": "two", "points": [[0, 0], [1, 0]]}]]}, r"loops\[0\]\[0\]: 'degree'"),
        ({"patches": [dict(_FLAT_PATCH, degree_v="two")]}, r"patches\[0\]: 'degree_v'"),
        ({"closed": "no", "patches": [_FLAT_PATCH]}, "closed: must be true or false"),
        (
            {"patches": [dict(_FLAT_PATCH, trim_loops=5)]},
            r"^patches\[0\]\.trim_loops: need a list, got int$",
        ),
        (
            {"patches": [dict(_FLAT_PATCH, trim_loops="ab")]},
            r"^patches\[0\]\.trim_loops: need a list, got str$",
        ),
        ({"loops": [[5]]}, r"^loops\[0\]\[0\]: expected a curve object$"),
        ({"patches": [[1]]}, r"^patches\[0\]: expected a patch object$"),
        ({"loops": [[{"weights": [1, 1]}]]}, r"^loops\[0\]\[0\]: missing 'points'$"),
        ({"loops": [[]]}, r"^loops\[0\]: need at least 1 item, got 0$"),
        ({"loops": [{}]}, r"^loops\[0\]: need a list, got dict$"),
        ({"patches": {}}, r"^patches: need a list, got dict$"),
        (
            {"patches": [_FLAT_PATCH, dict(_FLAT_PATCH, trim_loops=[[{"points": [[0, 0], [1, 0]]}]])]},
            r"^patches\[1\]\.trim_loops\[0\]\.segments: curve 0 ends at \(1\.0, 0\.0\) but curve 0 "
            r"starts at \(0\.0, 0\.0\) \(gap 1\.000e\+00, tolerance 1\.000e-10\)$",
        ),
        # a JSON null means no trims, as an omitted key does; any other
        # value that is not a list is refused, as 5 and "ab" are
        *(
            (
                {"patches": [dict(_FLAT_PATCH, trim_loops=bad)]},
                rf"^patches\[0\]\.trim_loops: need a list, got {kind}$",
            )
            for bad, kind in (({}, "dict"), (0, "int"), (False, "bool"), ("", "str"))
        ),
    ],
)
def test_schema_violations_report_paths(tmp_path, doc, fragment):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    loader = load_region if "loops" in doc else load_solid
    with pytest.raises(ValidationError, match=fragment):
        loader(path)


@pytest.mark.parametrize(
    "load,doc,message",
    [
        (load_region, {"patches": [_FLAT_PATCH]}, "region file needs a top-level 'loops' list"),
        (load_region, [], "region file needs a top-level 'loops' list"),
        (load_solid, {"loops": []}, "solid file needs a top-level 'patches' list"),
        (load_solid, "cube", "solid file needs a top-level 'patches' list"),
        (io.load_model, {"curves": []}, "expected a 'loops' or 'patches' document"),
        (io.load_model, [1], "expected a 'loops' or 'patches' document"),
    ],
)
def test_document_kind_is_checked_first(tmp_path, load, doc, message):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match=f"^{re.escape(f'{path}: {message}')}$"):
        load(path)


def _faulty_document(where, obj):
    """A document holding the curve or patch ``obj`` at ``where``, every
    other element valid, and the document path of ``obj``."""
    good_curve = {"points": [[0, 0], [1, 0]]}
    if where == "region curve":
        return {"loops": [[good_curve, obj]]}, "loops[0][1]"
    if where == "patch":
        return {"patches": [_FLAT_PATCH, obj]}, "patches[1]"
    trimmed = dict(_FLAT_PATCH, trim_loops=[[obj]])
    return {"closed": False, "patches": [_FLAT_PATCH, trimmed]}, "patches[1].trim_loops[0][0]"


@pytest.mark.parametrize("where", ["region curve", "patch", "trim segment"])
@pytest.mark.parametrize("name,nets", NET_FAULTS, ids=[f[0] for f in NET_FAULTS])
def test_control_net_faults_located_in_documents(tmp_path, name, nets, where):
    # the constructor's own text, behind the document path
    points, weights, message = nets["patch" if where == "patch" else "curve"]
    doc, at = _faulty_document(where, {"points": points, "weights": weights})
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError) as err:
        (load_region if "loops" in doc else load_solid)(path)
    assert str(err.value) == f"{at}.{message}"


_BOOLEAN_NETS = {
    "curve": {
        "points": {"points": [[0.25, 0.25], [0.75, True], [0.5, 0.75]]},
        "weights": {"points": [[0.25, 0.25], [0.75, 0.25]], "weights": [1, True]},
    },
    "patch": {
        "points": {"points": [[[0, 0, 0], [0, 1, 0]], [[1, 0, 0], [1, True, 0]]]},
        "weights": dict(_FLAT_PATCH, weights=[[1, 1], [True, 1]]),
    },
}


@pytest.mark.parametrize("where", ["region curve", "patch", "trim segment"])
@pytest.mark.parametrize("key", ["points", "weights"])
def test_json_booleans_are_not_numbers(tmp_path, where, key):
    obj = _BOOLEAN_NETS["patch" if where == "patch" else "curve"][key]
    doc, at = _faulty_document(where, obj)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError) as err:
        (load_region if "loops" in doc else load_solid)(path)
    assert str(err.value) == f"{at}.{key}: not a numeric array"


@pytest.mark.parametrize(
    "doc,message",
    [
        ({"loops": [[{"points": [[0, 0], [1, 0]]}]], "patches": []}, "unknown keys ['patches']"),
        ({"close": False, "patches": [_FLAT_PATCH]}, "unknown keys ['close']"),
        ({"patches": [_FLAT_PATCH], "closed": True, "z": 0, "a": 1}, "unknown keys ['a', 'z']"),
    ],
)
def test_unknown_top_level_keys_rejected(tmp_path, doc, message):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    loader = load_region if "loops" in doc else load_solid
    for load in (loader, io.load_model):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            load(path)


@pytest.mark.parametrize("name", ["circle.region.json", "cube.solid.json", "cylinder.solid.json"])
def test_bundled_geometry_round_trips_byte_for_byte(tmp_path, name):
    load, save = (load_region, save_region) if "region" in name else (load_solid, save_solid)
    out = tmp_path / name
    save(load(bundled(name)), out)
    assert out.read_bytes() == bundled(name).read_bytes()


def test_fit_trim_output_matches_per_value_writer(tmp_path, capsys):
    # the curve objects as written one Python float at a time
    def oracle(curve):
        return {
            "degree": int(curve.degree),
            "points": [[float(v) for v in p] for p in curve.points],
            "weights": [float(w) for w in curve.weights],
        }

    t = 2 * math.pi * np.arange(48) / 48
    blocks = [
        np.column_stack([0.5 + 0.3 * np.cos(t), 0.5 + 0.2 * np.sin(t)]),
        np.column_stack([0.5 + 0.05 * np.cos(-t), 0.5 + 0.05 * np.sin(-t)]),
    ]
    path = tmp_path / "pts.csv"
    path.write_text("\n".join("".join(f"{u!r},{v!r}\n" for u, v in b.tolist()) for b in blocks))
    assert main(["fit-trim", "--points", str(path), "--segments", "6", "--degree", "2"]) == 0
    loops = [[oracle(c) for c in fit_trim_curves(b, 6, 2)] for b in blocks]
    assert capsys.readouterr().out == json.dumps(loops, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("load", [io.load_model, load_region, load_solid])
@pytest.mark.parametrize(
    "text,reason",
    [
        ('{"loops": [' + "9" * 5000 + "]}", r"Exceeds the limit \(4300 digits\) for integer string conversion"),
        ("[" * 100_000, "maximum recursion depth exceeded while decoding a JSON array"),
    ],
    ids=["long-integer", "deep-nesting"],
)
def test_json_the_decoder_refuses_is_not_valid_json(tmp_path, load, text, reason):
    path = tmp_path / "doc.json"
    path.write_text(text)
    with pytest.raises(ValidationError, match=f"^{re.escape(str(path))} is not valid JSON: {reason}"):
        load(path)


@pytest.mark.parametrize(
    "load", [load_rule, load_region, load_solid, io.load_model, load_trim_points]
)
def test_a_directory_is_refused(tmp_path, load):
    # open() on a directory raised a raw IsADirectoryError
    with pytest.raises(ValidationError) as err:
        load(tmp_path)
    assert str(err.value) == f"cannot read {tmp_path}: Is a directory"


def test_cli_refuses_a_directory_in_one_line(tmp_path, capsys):
    code = main(["integrate", "--rule", str(tmp_path), "--expr", "1"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == f"bezquad: cannot read {tmp_path}: Is a directory\n"


def test_not_json(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{{{{")
    with pytest.raises(ValidationError, match="JSON"):
        load_region(path)
    with pytest.raises(ValidationError, match="no such file"):
        load_region(tmp_path / "absent.json")


@pytest.mark.parametrize(
    "load", [load_rule, load_region, load_solid, io.load_model, load_trim_points]
)
def test_a_missing_file_is_refused(tmp_path, load):
    path = tmp_path / "absent.txt"
    with pytest.raises(ValidationError) as err:
        load(path)
    assert str(err.value) == f"no such file: {path}"


_SMALL_RULE = "".join(io._rule_csv_blocks(spectral_rule(circle_region(), 3, 3)))


@pytest.mark.parametrize(
    "load,data",
    [
        (load_rule, _SMALL_RULE.encode()),
        (load_rule, _SMALL_RULE.replace("\n", "\r\n").encode()),
        (load_rule, _SMALL_RULE.replace("\n", "\n\n", 2).encode()),
        (load_region, bundled("circle.region.json").read_bytes()),
        (load_solid, bundled("cube.solid.json").read_bytes()),
        (io.load_model, bundled("cylinder.solid.json").read_bytes()),
        (load_trim_points, b"0,0\n1,0\n1,1\n\n0.5,0.5\n0.6,0.5\n"),
    ],
    ids=["rule", "rule-crlf", "rule-blank-line", "region", "solid", "model", "trim-points"],
)
def test_every_loader_opens_its_file_once(tmp_path, monkeypatch, load, data):
    # a rule file the array reader declines is parsed from the same read
    path = tmp_path / "input"
    path.write_bytes(data)
    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        opened.append(file)
        return real_open(file, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(builtins, "open", counting_open)
        load(path)
    assert [str(p) for p in opened] == [str(path)]


@pytest.mark.parametrize("load", [load_region, io.load_model])
@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_json_error_offsets_count_any_line_end_as_one(tmp_path, load, newline):
    # the decoder sees text-mode newlines, so CRLF does not shift "char N"
    path = tmp_path / "bad.json"
    path.write_bytes('{\n  "loops": [\n    [1,, 2]\n  ]\n}\n'.replace("\n", newline).encode())
    with pytest.raises(ValidationError) as err:
        load(path)
    assert str(err.value) == (
        f"{path} is not valid JSON: Expecting value: line 3 column 8 (char 22)"
    )


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_line_numbers_count_any_line_end_as_one(tmp_path, newline):
    path = tmp_path / "r.csv"
    rows = "x,y,weight,curve,q,zeta\n0.25,0.5,0.125,1,2,3\n\n0.25,0.5,0.125,1,2\n"
    path.write_bytes(rows.replace("\n", newline).encode())
    with pytest.raises(ValidationError) as err:
        load_rule(path)
    assert str(err.value) == f"{path} line 4: expected 6 fields, got 5"
    path.write_bytes("0,0\n1,0\n\n0.5\n".replace("\n", newline).encode())
    with pytest.raises(ValidationError) as err:
        load_trim_points(path)
    assert str(err.value) == f"{path} line 4: expected 2 fields, got 1"


@pytest.mark.parametrize(
    "build,dim,columns",
    [
        (
            lambda: spectral_pe_rule(circle_region(), 5),
            2,
            ("x", "y", "weight", "curve", "q", "zeta"),
        ),
        (
            lambda: spectral_rule(circle_region(), 7, 5),
            2,
            ("x", "y", "weight", "curve", "q", "zeta"),
        ),
        (
            lambda: boundary_rule((cylinder_solid().patches[4],), 4, 4),  # a trimmed cap
            3,
            ("x", "y", "z", "weight", "patch", "loop", "segment", "mu", "eta"),
        ),
        (
            lambda: volume_rule(cylinder_solid(), 5, 5, 4),
            3,
            ("x", "y", "z", "weight", "patch", "sigma", "psi"),
        ),
    ],
    ids=["pe", "planar", "surface", "volume"],
)
def test_rule_round_trip_bit_identical(tmp_path, build, dim, columns):
    rule = build()
    path = tmp_path / "rule.csv"
    save_rule(rule, path)
    assert path.read_bytes() == _oracle_csv_text(rule).encode()
    back = load_rule(path)
    assert back.dim == dim
    assert back.columns == rule.columns == columns
    assert np.array_equal(back.points, rule.points)
    assert np.array_equal(back.weights, rule.weights)
    assert np.array_equal(back.provenance, rule.provenance)
    for a, b in ((back.points, rule.points), (back.weights, rule.weights)):
        assert a.tobytes() == b.tobytes()
    f = lambda *p: np.exp(p[0]) * np.cos(p[1]) + p[-1] ** 2
    assert apply(back, f) == apply(rule, f)


def test_rule3d_round_trip(tmp_path):
    rule = volume_rule(cylinder_solid(), 5, 5, 4)
    path = tmp_path / "rule.csv"
    save_rule(rule, path)
    back = load_rule(path)
    assert back.dim == 3
    assert np.array_equal(back.weights, rule.weights)


def test_surface_rule_columns(tmp_path):
    tp = cylinder_solid().patches[4]  # a trimmed cap
    rule = boundary_rule((tp,), 4, 4)
    lines = _written(rule).splitlines()
    assert lines[0] == "x,y,z,weight,patch,loop,segment,mu,eta"
    assert len(lines) == len(rule) + 1


def test_two_point_rule_is_three_lines():
    rule = Rule2D([[0.0, 0.0], [1.0, 2.0]], [0.5, 0.5], [[0, 0, 0], [0, 0, 1]])
    assert len(_written(rule).splitlines()) == 3


def test_empty_rule_is_header_only(tmp_path):
    rule = Rule2D(np.zeros((0, 2)), np.zeros(0), np.zeros((0, 3), dtype=int))
    path = tmp_path / "empty.csv"
    save_rule(rule, path)
    assert path.read_text() == "x,y,weight,curve,q,zeta\n"
    back = load_rule(path)
    assert len(back) == 0


def test_load_rule_rejects_malformed(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("x,y,weight,curve,q,zeta\n1,2,0.5,0,0\n")
    with pytest.raises(ValidationError, match="line 2"):
        load_rule(path)
    path.write_text("x,y,weight,curve,q,zeta\n1,2,spam,0,0,0\n")
    with pytest.raises(ValidationError, match="malformed number"):
        load_rule(path)
    path.write_text("")
    with pytest.raises(ValidationError, match="empty"):
        load_rule(path)
    path.write_text("x,y,curve\n")
    with pytest.raises(ValidationError, match="weight"):
        load_rule(path)
    for header in ("x,y,z,t,weight", "weight,curve"):
        fields = len(header.split(","))
        path.write_text(header + "\n" + ",".join(["0"] * fields) + "\n")
        with pytest.raises(ValidationError, match=r"r\.csv: rule columns need 2 or 3 coordinates"):
            load_rule(path)
    path.write_text("x,y,weight,curve,q,zeta\n1,2,0.5,0,0,0\n\n1,2,inf,0,0,1\n")
    with pytest.raises(ValidationError, match="line 4: non-finite"):
        load_rule(path)
    path.write_text("x,y,weight,curve,q,zeta\nnan,2,0.5,0,0,0\n")
    with pytest.raises(ValidationError, match="line 2: non-finite"):
        load_rule(path)


_SPECIAL = (
    -0.0, 0.0, 5e-324, 1e16, -1e300, 1.7976931348623157e308, -1.7976931348623157e308,
    1 / 3, 0.1, 1e17, -0.0,
)


def _written(rule):
    """save_rule's text of ``rule``, without a file."""
    return "".join(io._rule_csv_blocks(rule))


def _oracle_csv_text(rule):
    """The row-by-row writer that save_rule must match byte for byte."""
    row = ",".join(["%.17g"] * (rule.dim + 1) + ["%d"] * rule.provenance.shape[1]) + "\n"
    rows = zip(rule.points.tolist(), rule.weights.tolist(), rule.provenance.tolist())
    return ",".join(rule.columns) + "\n" + "".join(row % (*p, w, *q) for p, w, q in rows)


def _special_rule(n, columns):
    """n rows of wide-range floats, every float column led by _SPECIAL;
    provenance of both signs up to 2**62 in magnitude."""
    dim = columns.index("weight")
    rng = np.random.default_rng(n)
    vals = rng.standard_normal((n, dim + 1)) * 10.0 ** rng.uniform(-300, 300, (n, dim + 1))
    k = min(n, len(_SPECIAL))
    vals[:k] = np.asarray(_SPECIAL[:k])[:, None]
    prov = rng.integers(-(2**62), 2**62, (n, len(columns) - dim - 1), endpoint=True)
    prov.flat[:1] = 2**62
    return Rule(vals[:, :dim], vals[:, dim], prov, columns)


@pytest.mark.parametrize("n", [0, 1, 4095, 4096, 4097])
@pytest.mark.parametrize(
    "columns",
    [
        ("x", "y", "weight", "curve", "q", "zeta"),
        ("x", "y", "z", "weight", "patch", "sigma", "psi"),
    ],
    ids=["2d", "3d"],
)
def test_rule_csv_lines_match_per_value_writer(tmp_path, n, columns):
    rule = _special_rule(n, columns)
    text = _written(rule)
    assert text.encode() == _oracle_csv_text(rule).encode()
    path = tmp_path / "rule.csv"
    save_rule(rule, path)
    assert path.read_bytes() == text.encode()
    back = load_rule(path)
    for name in ("points", "weights", "provenance"):
        a, b = getattr(back, name), getattr(rule, name)
        assert a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_rule_csv_signed_zeros_and_extremes(tmp_path):
    rule = Rule2D(
        [[-0.0, 5e-324], [0.0, 1e16], [-0.0, -1e300]],
        [0.0, -0.0, 1e16],
        [[-1, 0, 2**62], [0, -(2**63), 7], [-1, 0, 2**63 - 1]],
    )
    assert _written(rule).splitlines() == [
        "x,y,weight,curve,q,zeta",
        "-0,4.9406564584124654e-324,0,-1,0,4611686018427387904",
        "0,10000000000000000,-0,0,-9223372036854775808,7",
        "-0,-1.0000000000000001e+300,10000000000000000,-1,0,9223372036854775807",
    ]
    path = tmp_path / "rule.csv"
    save_rule(rule, path)
    back = load_rule(path)
    for name in ("points", "weights", "provenance"):
        assert getattr(back, name).tobytes() == getattr(rule, name).tobytes()


def test_cli_rule_file_matches_per_value_writer(tmp_path):
    cylinder = bundled("cylinder.solid.json")
    path = tmp_path / "v.csv"
    argv = ["rule-volume", "--solid", str(cylinder), "--orders", "10,10,8", "--out", str(path)]
    assert main(argv) == 0
    rule = volume_rule(load_solid(cylinder), 10, 10, 8)
    assert len(rule) > 2 * 4096
    assert path.read_bytes() == _oracle_csv_text(rule).encode()


def _assert_writes_like_oracle(rule, path):
    text = _written(rule)
    assert text.encode() == _oracle_csv_text(rule).encode()
    save_rule(rule, path)
    assert path.read_bytes() == text.encode()


@pytest.mark.parametrize(
    "build",
    [lambda: spectral_rule(circle_region(), 24, 16), lambda: volume_rule(cylinder_solid(), 10, 10, 8)],
    ids=["planar", "volume"],
)
def test_lifted_rules_with_long_runs_match_oracle(tmp_path, build):
    rule = build()
    assert len(rule) > 1000
    # every coordinate but the lifted one repeats along each ray
    runs = [1 + np.count_nonzero(np.diff(c)) for c in rule.points.T[:-1]]
    assert max(runs) < len(rule) // 8
    _assert_writes_like_oracle(rule, tmp_path / "r.csv")
    # row-major copies of the coordinate-major arrays write the same bytes
    arrays = map(np.ascontiguousarray, (rule.points, rule.weights, rule.provenance))
    _assert_writes_like_oracle(Rule(*arrays, rule.columns), tmp_path / "c.csv")


@pytest.mark.parametrize("n", [1, 4095, 4096, 4097])
def test_single_valued_columns_match_oracle(tmp_path, n):
    rule = Rule2D(np.full((n, 2), -0.0), np.full(n, 0.5), np.full((n, 3), -(2**63)))
    _assert_writes_like_oracle(rule, tmp_path / "r.csv")
    assert _written(rule).splitlines()[-1] == "-0,-0,0.5,-9223372036854775808,-9223372036854775808,-9223372036854775808"


@pytest.mark.parametrize("n", [0, 1, 4095, 4096, 4097])
@pytest.mark.parametrize("extra", [-1, 0], ids=["span-n-1", "span-n"])
def test_integer_ranges_match_oracle(tmp_path, n, extra):
    # max - min is n - 1 (the counting pass) or n (the run pass), at the low
    # end of int64, around zero and at the high end
    rng = np.random.default_rng(n)
    span = max(n + extra, 0)
    lows = (-(2**63), -(span // 2), 2**63 - 1 - span)
    prov = np.stack([rng.integers(0, span, n, endpoint=True) + lo for lo in lows], axis=1)
    if n > 1:
        prov[[0, -1]] = [lows, [lo + span for lo in lows]]  # both ends present
    points = rng.standard_normal((n, 2))
    rule = Rule2D(points, rng.random(n), prov)
    _assert_writes_like_oracle(rule, tmp_path / "r.csv")


@pytest.mark.parametrize(
    "keys",
    [
        np.array([5, 5, 5]),
        np.array([3, -2, 3, 0, -2, 1]),
        np.array([-(2**63), -(2**63) + 2, -(2**63) + 1, -(2**63)]),
        np.array([2**63 - 1, -(2**63), 0, 2**63 - 1]),
        np.repeat(np.arange(40) % 7, 3),
        np.repeat([7, 0, 2**40, 7, -3], [5000, 3, 1200, 40, 900]),  # an owner column
    ],
)
@pytest.mark.parametrize("runs", [True, False])
def test_distinct_matches_np_unique(keys, runs):
    # with runs, every key repeated: the data picks the path, so each key
    # set reaches run collapsing and, without runs, counting or sorting too
    keys = np.repeat(keys, 3 if runs else 1).astype(np.int64)
    uniq, inverse = io._distinct(keys)
    want_uniq, want_inverse = np.unique(keys, return_inverse=True)
    assert uniq.dtype == np.int64 and uniq.tolist() == want_uniq.tolist()
    assert inverse.tolist() == want_inverse.ravel().tolist()


def test_rule_without_provenance_matches_oracle(tmp_path):
    rng = np.random.default_rng(3)
    rule = Rule(rng.random((5000, 3)), rng.random(5000), np.zeros((5000, 0), np.int64), ("x", "y", "z", "weight"))
    _assert_writes_like_oracle(rule, tmp_path / "r.csv")
    assert _written(rule).splitlines()[0] == "x,y,z,weight"


@pytest.mark.parametrize(
    "argv,build",
    [
        (["rule2d", "--region", "circle.region.json", "--mode", "spectral", "--order", "7"],
         lambda m: spectral_rule(m, 7, 7)),
        (["rule2d", "--region", "circle.region.json", "--mode", "pe", "--degree", "4"],
         lambda m: spectral_pe_rule(m, 4)),
        (["rule-surface", "--solid", "cylinder.solid.json", "--orders", "6,5"],
         lambda m: boundary_rule(m.patches, 6, 5, "full-normal")),
        (["rule-volume", "--solid", "cylinder.solid.json", "--orders", "8,8,8"],
         lambda m: volume_rule(m, 8, 8, 8)),
    ],
    ids=["rule2d-spectral", "rule2d-pe", "rule-surface", "rule-volume"],
)
def test_cli_stdout_out_and_save_rule_bytes_agree(tmp_path, capsys, argv, build):
    argv = [str(bundled(a)) if a.endswith(".json") else a for a in argv]
    saved = tmp_path / "saved.csv"
    save_rule(build(io.load_model(argv[2])), saved)
    assert main(argv) == 0
    stdout = capsys.readouterr().out.encode()
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert stdout == out.read_bytes() == saved.read_bytes()


def test_writer_failure_leaves_existing_file(tmp_path, capsys, monkeypatch):
    def fail(values, fmt):
        raise MemoryError("Unable to allocate 1.00 TiB for an array")

    path = tmp_path / "keep.csv"
    path.write_bytes(b"previous contents\n")
    monkeypatch.setattr(io, "_column_table", fail)
    with pytest.raises(MemoryError):
        save_rule(volume_rule(cylinder_solid(), 3, 3, 3), path)
    argv = ["rule-volume", "--solid", str(bundled("cube.solid.json")), "--orders", "3,3,3"]
    assert main(argv + ["--out", str(path)]) == 1
    assert capsys.readouterr().err == "bezquad: Unable to allocate 1.00 TiB for an array\n"
    assert path.read_bytes() == b"previous contents\n"


def _load_outcome(path):
    """What load_rule gives: the arrays and columns, or the error."""
    try:
        rule = load_rule(path)
    except Exception as exc:
        return type(exc), str(exc)
    arrays = (rule.points, rule.weights, rule.provenance)
    return rule.columns, [(a.dtype, a.shape, a.tobytes()) for a in arrays]


def _both_readers(path, monkeypatch):
    """load_rule's outcome, and the general reader's alone."""
    fast = _load_outcome(path)
    with monkeypatch.context() as m:
        m.setattr(io, "_load_canonical", lambda data: None)
        return fast, _load_outcome(path)


def _canonical_sample():
    """save_rule's bytes for a small surface rule plus the widest texts."""
    rule = boundary_rule((cylinder_solid().patches[4],), 2, 2)
    extremes = Rule(
        [[-0.0, 5e-324, -1.2345678901234567e-308], [1e16, -1e300, 0.5]],
        [1.0, 2.0],
        [[-(2**63), 2**63 - 1, 0, 0, 0], [0, 0, 0, 0, 0]],
        rule.columns,
    )
    return _written(rule) + _written(extremes).split("\n", 1)[1]


_SAMPLE = _canonical_sample()


def _replace_field(text, row, col, new):
    lines = text.split("\n")
    fields = lines[row].split(",")
    fields[col] = new
    lines[row] = ",".join(fields)
    return "\n".join(lines)


@pytest.mark.parametrize(
    "data,fast",
    [
        (_SAMPLE.replace("\n", "\r\n").encode(), False),
        (_SAMPLE.replace("\n", "\r\n", 1).encode(), False),
        (_SAMPLE.replace("\n", "\n\n", 5).encode(), False),
        (_SAMPLE.replace("\n", "\n \t\n", 5).encode(), False),
        (_replace_field(_SAMPLE, 3, 1, "0.12345678901234567890123").encode(), False),
        (_replace_field(_SAMPLE, 3, 1, "0.1234567890123456789012").encode(), True),
        (_replace_field(_SAMPLE, 3, 1, "1e400").encode(), False),
        (_replace_field(_SAMPLE, 3, 1, "0.5\r").encode(), False),
        (_replace_field(_SAMPLE, 3, 1, "0.5\x0c").encode(), False),
        (_replace_field(_SAMPLE, 3, 5, "9223372036854775808").encode(), False),
        (_replace_field(_SAMPLE, 3, 2, "1.5.0").encode(), False),
        (_replace_field(_SAMPLE, 3, 6, "1e3").encode(), False),
        (_replace_field(_SAMPLE, 3, 6, "").encode(), False),
        (_replace_field(_SAMPLE, 3, 0, "-0.0,0").encode(), False),
        (_SAMPLE[:-1].encode(), True),
        (_SAMPLE.split("\n", 1)[0].encode() + b"\n", False),
        (_SAMPLE.split("\n", 1)[0].encode(), False),
        (b"", False),
        (b"x,y,z,w\xffeight\n" + _SAMPLE.split("\n", 1)[1].encode(), False),
        (b"x,y,z,\xc3\xa9,weight,patch,loop,segment,mu,eta\n1,2,3,4,5,6,7,8,9,10\n", True),
        (_SAMPLE.replace("x,y,z,", "x,y,z\x1c,", 1).encode(), False),
    ],
    ids=[
        "crlf", "cr-in-header-only", "blank-lines", "whitespace-lines", "25-byte-field",
        "24-byte-field", "1e400", "cr-in-row", "form-feed-in-row", "int64-overflow", "malformed-float", "malformed-int",
        "empty-field", "extra-field", "no-final-lf", "header-only", "header-only-no-lf",
        "empty", "non-utf8-header", "utf8-header", "header-line-separator",
    ],
)
def test_load_rule_paths_agree(tmp_path, monkeypatch, data, fast):
    assert (io._load_canonical(data) is not None) == fast
    path = tmp_path / "r.csv"
    path.write_bytes(data)
    got, want = _both_readers(path, monkeypatch)
    assert got == want


def test_load_rule_key_collision_goes_to_general_reader(tmp_path, monkeypatch):
    path = tmp_path / "r.csv"
    path.write_text(_SAMPLE)
    want = _load_outcome(path)
    monkeypatch.setattr(io, "_KEY", np.zeros(3, np.uint64))  # every field one key
    assert io._load_canonical(_SAMPLE.encode()) is None
    assert _load_outcome(path) == want


@pytest.mark.parametrize("chunk", [64, 300, 4096])
def test_load_rule_small_chunks(tmp_path, monkeypatch, chunk):
    # rows longer than a chunk leave the file to the general reader
    rule = volume_rule(cylinder_solid(), 3, 3, 3)
    path = tmp_path / "r.csv"
    save_rule(rule, path)
    monkeypatch.setattr(io, "_CHUNK", chunk)
    assert (io._load_canonical(path.read_bytes()) is not None) == (chunk > 200)
    for data in (path.read_bytes(), path.read_bytes()[:-1]):  # also without the last LF
        path.write_bytes(data)
        got, want = _both_readers(path, monkeypatch)
        assert got == want
        assert got[1][0][2] == rule.points.tobytes()


def test_load_rule_differential_on_mutated_files(tmp_path, monkeypatch):
    rng = np.random.default_rng(1414)
    alphabet = b"0123456789+-.e,\n"
    extras = [
        b"\r\n", b"\r", b" ", b"\n\n", b"1e400", b"18446744073709551616", b"_", b"inf",
        b"nan", b"\t", b"1234567890123456789012345", b"-1.2345678901234567e-308", b"\xff",
    ]
    base = _SAMPLE.encode()
    path = tmp_path / "r.csv"
    fast = 0
    for _ in range(300):
        data = bytearray(base)
        for _ in range(int(rng.integers(1, 4))):
            at = int(rng.integers(1, len(data)))
            r = rng.random()
            if r < 0.4:
                data[at] = alphabet[int(rng.integers(len(alphabet)))]
            elif r < 0.6:
                del data[at]
            elif r < 0.8:
                data[at:at] = bytes([alphabet[int(rng.integers(len(alphabet)))]])
            else:
                data[at:at] = extras[int(rng.integers(len(extras)))]
        if rng.random() < 0.1:
            data = data.rstrip(b"\n")
        path.write_bytes(bytes(data))
        fast += io._load_canonical(bytes(data)) is not None
        got, want = _both_readers(path, monkeypatch)
        assert got == want, bytes(data)
    assert 30 < fast < 270  # both paths are exercised


@pytest.mark.parametrize(
    "rule",
    [
        spectral_pe_rule(circle_region(), 5),
        boundary_rule((cylinder_solid().patches[4],), 4, 4),
        volume_rule(cylinder_solid(), 4, 4, 3),
        Rule2D(
            [[-0.0, 5e-324], [1e16, -1.2345678901234567e-308], [0.0, -1e300]],
            [1.0, -0.0, 2.5],
            [[-(2**63), 2**63 - 1, 0], [0, 0, 0], [7, -1, 2**62]],
        ),
        Rule(
            [[-0.0, 5e-324], [1e16, -1.2345678901234567e-308], [0.5, 0.5]],
            [1.0, -0.0, 2.5],
            np.zeros((3, 0), np.int64),
            ("x", "y", "weight"),
        ),
    ],
    ids=["planar", "surface", "volume", "extremes", "no-provenance"],
)
def test_save_rule_output_takes_the_array_path(tmp_path, rule):
    path = tmp_path / "r.csv"
    save_rule(rule, path)
    parsed = io._load_canonical(path.read_bytes())
    assert parsed is not None
    points, weights, prov, columns = parsed
    assert columns == rule.columns
    for a, b in ((points, rule.points), (weights, rule.weights), (prov, rule.provenance)):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    # the general reader gives the same arrays for the same file
    *general, general_columns = io._load_general(path.read_text().splitlines(), path)
    assert general_columns == columns
    for a, b in zip(general, (points, weights, prov)):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


_GOOD_ROW = "0.25,0.5,0.125,1,2,3"


@pytest.mark.parametrize(
    "bad,message",
    [
        ({5000: "1,2,spam,0,0,0"}, "line 5000: malformed number"),
        ({4: "1,2,0.5,0,0", 5: "1,2,0.5,0,0,0,0"}, "line 4: expected 6 fields, got 5"),
        ({3: "1,2,0.5,x,0,0", 5: "1,2,0.5,0,0"}, "line 3: malformed number"),
        ({3: "1,2,0.5,0,0", 5: "1,2,0.5,x,0,0"}, "line 3: expected 6 fields, got 5"),
        (
            {4200: "1,2,0.5,0,0,-9223372036854775809", 4201: "1,2,0.5,9223372036854775808,0,0"},
            "line 4200: provenance value out of int64 range",
        ),
        # a text repeated in a block is converted once but reported at its first line
        ({4500: "1,2,0.5,1.5,0,0", 4600: "1,2,0.5,1.5,0,0"}, "line 4500: malformed number"),
        ({4500: "1,2,1__5,0,0,0", 300: "1,2,1_5,0,0,0"}, "line 4500: malformed number"),
        (
            {4500: "1,2,0.5,0,9223372036854775808,0", 4501: "1,2,0.5,0,9223372036854775808,0"},
            "line 4500: provenance value out of int64 range",
        ),
        ({4500: "1,inf,0.5,0,0,0", 4600: "1,inf,0.5,0,0,0"}, "line 4500: non-finite value"),
        ({4500: "1,2,-nan,0,0,0", 100: "1,2,0.5,9223372036854775808,0,0"}, "line 4500: non-finite value"),
    ],
    ids=[
        "second-block", "short-then-long", "number-before-count", "count-before-number",
        "int64-overflow", "repeated-int-syntax", "bad-underscore", "repeated-int64-overflow",
        "repeated-inf", "nan-before-overflow",
    ],
)
def test_load_rule_names_first_bad_line(tmp_path, bad, message):
    rows = [bad.get(ln, _GOOD_ROW) for ln in range(2, 5200)]
    path = tmp_path / "r.csv"
    path.write_text("x,y,weight,curve,q,zeta\n" + "\n".join(rows) + "\n")
    with pytest.raises(ValidationError, match=f"r\\.csv {message}$"):
        load_rule(path)


def test_load_rule_int64_range(tmp_path):
    path = tmp_path / "r.csv"
    header = "x,y,weight,curve,q,zeta\n"
    # the later column overflows on the earlier row
    path.write_text(header + "1,2,0.5,0,0,9223372036854775808\n1,2,0.5,9223372036854775808,0,0\n")
    with pytest.raises(ValidationError, match="r\\.csv line 2: provenance value out of int64"):
        load_rule(path)
    # malformed rows and non-finite values still take precedence
    path.write_text(header + "1,2,0.5,0,0,9223372036854775808\n" + "1,2,spam,0,0,0\n")
    with pytest.raises(ValidationError, match="line 3: malformed number"):
        load_rule(path)
    path.write_text(header + "1,2,0.5,0,0,9223372036854775808\n" + "1,2,nan,0,0,0\n")
    with pytest.raises(ValidationError, match="line 3: non-finite value"):
        load_rule(path)
    path.write_text(header + "1,2,0.5,-9223372036854775808,0,9223372036854775807\n")
    assert load_rule(path).provenance.tolist() == [[-(2**63), 0, 2**63 - 1]]


def test_load_rule_number_syntax_and_blank_lines(tmp_path):
    path = tmp_path / "r.csv"
    rows = [" ", "1_0, 1.5,0.5 ,1_2, 3,0", "", "\t", "2,3,0.25,0,0,1", "  "]
    path.write_text("x,y,weight,curve,q,zeta\n" + "\n".join(rows) + "\n")
    rule = load_rule(path)
    assert rule.points.tolist() == [[10.0, 1.5], [2.0, 3.0]]
    assert rule.weights.tolist() == [0.5, 0.25]
    assert rule.provenance.tolist() == [[12, 3, 0], [0, 0, 1]]
    path.write_text("x,y,z,weight,patch")
    rule = load_rule(path)
    assert len(rule) == 0 and rule.dim == 3
    assert rule.points.shape == (0, 3) and rule.provenance.shape == (0, 1)


def test_loaded_rule_adopts_parse_buffers(tmp_path, monkeypatch):
    rule = volume_rule(cylinder_solid(), 5, 5, 4)
    path = tmp_path / "rule.csv"
    save_rule(rule, path)
    # the CRLF copy is read by the general reader
    crlf = tmp_path / "crlf.csv"
    crlf.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    assert io._load_canonical(crlf.read_bytes()) is None
    for source in (path, crlf):
        copies = []
        frozen = bezier._frozen
        monkeypatch.setattr(bezier, "_frozen", lambda a: copies.append(a.shape) or frozen(a))
        back = load_rule(source)
        monkeypatch.undo()
        assert copies == []  # Rule made no copy of the parsed arrays
        again = Rule(back.points, back.weights, back.provenance, back.columns)
        for name in ("points", "weights", "provenance"):
            a = getattr(back, name)
            assert a.flags.c_contiguous and not a.flags.writeable
            assert np.shares_memory(getattr(again, name), a)
        # a copied rule (what a loaded rule used to hold) gives the same bytes
        copied = Rule(np.array(back.points), np.array(back.weights), back.provenance, back.columns)
        f = lambda x, y, z: np.exp(x) * np.cos(y) + z**2
        assert np.float64(apply(back, f)).tobytes() == np.float64(apply(copied, f)).tobytes()
        assert np.float64(apply(back, f)).tobytes() == np.float64(apply(rule, f)).tobytes()
        exps = monomial_exponents(4, 3)
        moments = [r.weights @ _monomials(r.points, exps) for r in (back, copied, rule)]
        assert moments[0].tobytes() == moments[1].tobytes() == moments[2].tobytes()


def test_load_rule_spellings_parse_as_per_field(tmp_path):
    floats = ["1.5", " 1.5", "15e-1", "1_5e-1", "1.5 ", "+1.50", "0.15E1"]
    ints = ["12", " 12", "1_2", "+12", "012 "]
    rows = [
        (floats[i % 7], floats[(i + 3) % 7], floats[(i * 5) % 7], ints[i % 5], ints[(i + 2) % 5], "0")
        for i in range(5000)
    ]
    path = tmp_path / "r.csv"
    path.write_text("x,y,weight,curve,q,zeta\n" + "\n".join(map(",".join, rows)) + "\n")
    rule = load_rule(path)
    want = np.array([[float(t) for t in row[:3]] for row in rows])
    assert rule.points.tobytes() == np.ascontiguousarray(want[:, :2]).tobytes()
    assert rule.weights.tobytes() == np.ascontiguousarray(want[:, 2]).tobytes()
    assert rule.provenance.tolist() == [[int(t) for t in row[3:]] for row in rows]


@pytest.mark.parametrize("load", [load_region, load_solid, io.load_model, load_rule, load_trim_points])
def test_non_utf8_file_rejected(tmp_path, load):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"x,y,weight\n0.5,0.5,1\xff\n")
    with pytest.raises(ValidationError, match=f"^{re.escape(str(path))} is not UTF-8 text: .*0xff"):
        load(path)


def test_trim_points_blocks(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("0,0\n1,0\n1,1\n\n0.5,0.5\n0.6,0.5\n")
    blocks = load_trim_points(path)
    assert len(blocks) == 2
    assert blocks[0].shape == (3, 2)
    assert blocks[1].shape == (2, 2)
    path.write_text("0,0\n1\n")
    with pytest.raises(ValidationError, match="line 2"):
        load_trim_points(path)
    path.write_text("0,0\n0.5,1e\n")
    with pytest.raises(ValidationError, match=f"^{re.escape(str(path))} line 2: malformed number$"):
        load_trim_points(path)
    path.write_text("\n\n")
    with pytest.raises(ValidationError, match="no points"):
        load_trim_points(path)
    for bad in ("nan", "inf", "-inf"):
        path.write_text(f"0,0\n0.1,0.2\n\n{bad},0.5\n")
        with pytest.raises(ValidationError, match="line 4: non-finite value$"):
            load_trim_points(path)


def test_trim_points_blocks_end_at_any_skipped_line(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("0,0\n1,0\n\n\n\n0.5,0.5\n  \n\t\n0.6,0.5\n0.7,0.5\n \n")
    blocks = load_trim_points(path)
    assert [b.tolist() for b in blocks] == [[[0, 0], [1, 0]], [[0.5, 0.5]], [[0.6, 0.5], [0.7, 0.5]]]


def test_trim_points_errors_read_as_rule_file_errors(tmp_path):
    # a 3-field row read "expected 'u,v'", and a non-finite row was
    # reported before a later malformed one
    path = tmp_path / "pts.csv"
    path.write_text("0,0\n1,0,2\n")
    with pytest.raises(ValidationError) as err:
        load_trim_points(path)
    assert str(err.value) == f"{path} line 2: expected 2 fields, got 3"
    path.write_text("0,0\nnan,1\n\n0.5,x\n")
    with pytest.raises(ValidationError) as err:
        load_trim_points(path)
    assert str(err.value) == f"{path} line 4: malformed number"


def test_non_finite_json_geometry_rejected(tmp_path):
    doc = {"loops": [[{"points": [[0, 0], [1, 0]]}, {"points": [[1, 0], [float("nan"), 0]]}]]}
    path = tmp_path / "r.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match=r"^loops\[0\]\[1\]\.points\[1\]\[0\]: must be finite, got nan$"):
        load_region(path)


def test_moment_csv(tmp_path):
    mv = geometric_moments(circle_region(), 1)
    lines = moment_csv_lines(mv)
    assert lines[0] == "a,b,value"
    assert len(lines) == 4
    assert lines[1].startswith("0,0,3.141592653589")
    path = tmp_path / "m.csv"
    save_moments(mv, path)
    assert path.read_text().splitlines() == lines
