import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from bezquad.cli import _build_parser, main
from bezquad.io import bundled, load_model, save_moments, save_solid
from bezquad.moments import geometric_moments

from conftest import bundled_with, exact, x_axis_cylinder

CIRCLE = str(bundled("circle.region.json"))
CUBE = str(bundled("cube.solid.json"))
CYLINDER = str(bundled("cylinder.solid.json"))

EXP_DISK = exact.disk_exp_integral(0.0, 0.0, 1.0)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_rule2d_pe_counts(capsys):
    code, out, err = run(
        capsys, "rule2d", "--region", CIRCLE, "--mode", "pe", "--degree", "3"
    )
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "x,y,weight,curve,q,zeta"
    assert len(lines) == 1 + 104


def test_rule2d_spectral_counts(capsys):
    code, out, _ = run(
        capsys, "rule2d", "--region", CIRCLE, "--mode", "spectral", "--order", "6"
    )
    assert code == 0
    assert len(out.splitlines()) == 1 + 4 * 6 * 6


def test_rule2d_flag_mismatch(capsys):
    code, _, err = run(capsys, "rule2d", "--region", CIRCLE, "--mode", "spectral")
    assert code == 1 and "--order" in err
    code, _, err = run(
        capsys, "rule2d", "--region", CIRCLE, "--mode", "pe", "--order", "4",
        "--degree", "2",
    )
    assert code == 1 and "--mode spectral" in err


def test_rule_surface_counts(capsys):
    code, out, _ = run(capsys, "rule-surface", "--solid", CUBE, "--orders", "4,4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x,y,z,weight,patch,loop,segment,mu,eta"
    assert len(lines) == 1 + 6 * 16


def test_rule_volume_counts(capsys):
    code, out, _ = run(capsys, "rule-volume", "--solid", CUBE, "--orders", "4,4,4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x,y,z,weight,patch,sigma,psi"
    assert len(lines) == 1 + 6 * 16 * 4


def test_orders_validation(capsys):
    code, _, err = run(capsys, "rule-volume", "--solid", CUBE, "--orders", "4,4")
    assert code == 1 and "3" in err
    code, _, err = run(capsys, "rule-surface", "--solid", CUBE, "--orders", "4,a")
    assert code == 1 and "integers" in err
    code, _, err = run(capsys, "rule-surface", "--solid", CUBE, "--orders", "0,4")
    assert code == 1 and "at least 1" in err


def test_integrate_pe_circle_area(capsys):
    code, out, _ = run(capsys, "integrate", "--model", CIRCLE, "--expr", "1", "--pe")
    assert code == 0
    assert float(out) == pytest.approx(math.pi, abs=1e-10)


def test_integrate_spectral_default_orders(capsys):
    code, out, _ = run(capsys, "integrate", "--model", CIRCLE, "--expr", "exp(x+y)")
    assert code == 0
    assert float(out) == pytest.approx(EXP_DISK, abs=1e-11)


def test_integrate_solid(capsys):
    code, out, _ = run(capsys, "integrate", "--model", CUBE, "--expr", "1")
    assert code == 0
    assert float(out) == pytest.approx(1.0, abs=1e-12)
    code, out, _ = run(
        capsys, "integrate", "--model", CYLINDER, "--expr", "1", "--orders", "12,12,12"
    )
    assert float(out) == pytest.approx(math.pi, abs=1e-10)


def test_integrate_saved_rule_matches_direct(capsys, tmp_path):
    path = tmp_path / "rule.csv"
    code, _, _ = run(
        capsys,
        "rule2d",
        "--region",
        CIRCLE,
        "--mode",
        "spectral",
        "--order",
        "14",
        "--out",
        str(path),
    )
    assert code == 0
    code, out, _ = run(
        capsys, "integrate", "--rule", str(path), "--expr", "x^2 + y^2"
    )
    assert code == 0
    assert float(out) == pytest.approx(math.pi / 2, abs=1e-12)


def test_integrate_pe_rejects_non_polynomial(capsys):
    code, _, err = run(
        capsys, "integrate", "--model", CIRCLE, "--expr", "exp(x)", "--pe"
    )
    assert code == 1
    assert "polynomial" in err and "drop --pe" in err


def test_integrate_pe_rejects_solid(capsys):
    code, _, err = run(capsys, "integrate", "--model", CUBE, "--expr", "x", "--pe")
    assert code == 1 and "planar" in err


def test_parse_error_exit_1(capsys):
    code, _, err = run(capsys, "integrate", "--model", CIRCLE, "--expr", "x +")
    assert code == 1 and "offset 3" in err


@pytest.mark.parametrize("expr", ["log(x - 1e999)", "x^" + "9" * 400])
def test_overflowing_literal_exit_1(capsys, expr):
    code, out, err = run(capsys, "integrate", "--model", CIRCLE, "--expr", expr)
    assert code == 1 and out == ""
    assert err.startswith("bezquad: number ") and "does not fit a finite double" in err


def test_inexact_exponent_exit_1(capsys):
    code, out, err = run(capsys, "integrate", "--model", CIRCLE, "--expr", "(-1)^9007199254740993")
    assert code == 1 and out == ""
    assert err == "bezquad: exponent '9007199254740993' is not exact in a double at offset 5\n"


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_fit_trim_non_finite_line(capsys, tmp_path, bad):
    path = tmp_path / "pts.csv"
    path.write_text(f"0,0\n0.1,0.2\n{bad},0.5\n0.3,0.4\n0.5,0.5\n")
    code, out, err = run(capsys, "fit-trim", "--points", str(path), "--segments", "1")
    assert code == 1 and out == ""
    assert err == f"bezquad: {path} line 3: non-finite value\n"


def test_domain_error_exit_2(capsys):
    code, _, err = run(capsys, "integrate", "--model", CIRCLE, "--expr", "log(x - 5)")
    assert code == 2 and "domain error" in err


@pytest.mark.parametrize(
    "expr,message",
    [
        ("log(x - 5)^0", "domain error in log(x - 5)"),
        ("(1/0)^0", "division by zero in 1 / 0"),
        ("sqrt(-1)^0", "domain error in sqrt(-1)"),
        ("exp(x*1000)^0", "overflow in exp(x * 1000)"),
        ("(x*1e308*10)^0", "overflow in x * 1e+308 * 10"),
    ],
)
def test_zeroth_power_does_not_hide_a_fault(capsys, expr, message):
    code, out, err = run(capsys, "integrate", "--model", CIRCLE, "--expr", expr)
    assert (code, out) == (2, "")
    assert err.startswith(f"bezquad: {message} at point (")


def test_arithmetic_overflow_exit_2_names_the_node(capsys):
    # to_callable gives inf at the first point, and evaluate names the
    # + - * / that overflowed there, as it names an overflowing exp or power
    point = "(0.99998817224010272, -0.99654758944633537, 0)"
    for expr, node in [("1e308*1e308*x", "1e+308 * 1e+308"), ("x*1e308*10", "x * 1e+308 * 10")]:
        code, out, err = run(capsys, "integrate", "--model", CIRCLE, "--expr", expr)
        assert (code, out) == (2, "")
        assert err == f"bezquad: overflow in {node} at point {point}\n"


@pytest.mark.parametrize(
    "argv,message",
    [
        (["rule2d", "--region", CIRCLE, "--mode", "spectral", "--order", "4", "--degree", "2"],
         "--degree applies to --mode pe only"),
        (["rule2d", "--region", CIRCLE, "--mode", "pe"], "--mode pe needs --degree"),
        (["integrate", "--rule", "r.csv", "--expr", "1", "--pe"],
         "--pe needs --model; a stored rule is fixed"),
        (["integrate", "--rule", "r.csv", "--expr", "1", "--orders", "4,4"],
         "--orders needs --model; a stored rule is fixed"),
        (["integrate", "--model", CIRCLE, "--expr", "1", "--pe", "--orders", "4,4"],
         "--pe sizes the rule itself; drop --orders"),
        (["moments", "--model", CUBE, "--max-degree=-1"], "--max-degree must be nonnegative"),
        (["convergence", "--model", CIRCLE, "--expr", "1", "--orders", "4:8"],
         "--orders takes LO:HI:STEP"),
        (["convergence", "--model", CIRCLE, "--expr", "1", "--orders", "4:a:2"],
         "--orders: '4:a:2' is not LO:HI:STEP"),
    ],
)
def test_flag_misuse_exit_1(capsys, argv, message):
    assert run(capsys, *argv) == (1, "", f"bezquad: {message}\n")


def test_missing_file_exit_1(capsys):
    code, _, err = run(capsys, "integrate", "--model", "/nope.json", "--expr", "1")
    assert code == 1 and "no such file" in err


def test_invalid_json_same_message(capsys, tmp_path):
    junk = tmp_path / "junk.json"
    junk.write_text('{"loops": [')
    code, _, model_err = run(capsys, "integrate", "--model", str(junk), "--expr", "1")
    assert code == 1 and "is not valid JSON" in model_err
    code, _, region_err = run(
        capsys, "rule2d", "--region", str(junk), "--mode", "pe", "--degree", "2"
    )
    assert code == 1 and region_err == model_err


def test_int64_overflow_rule_exit_1(capsys, tmp_path):
    path = tmp_path / "big.csv"
    path.write_text("x,y,weight,curve,q,zeta\n0.5,0.5,1,0,0,9223372036854775808\n")
    code, out, err = run(capsys, "integrate", "--rule", str(path), "--expr", "1")
    assert code == 1 and out == ""
    assert err == f"bezquad: {path} line 2: provenance value out of int64 range\n"


def test_non_utf8_rule_exit_1(capsys, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"x,y,weight\n0.5,\xff,1\n")
    code, out, err = run(capsys, "integrate", "--rule", str(path), "--expr", "x")
    assert code == 1 and out == ""
    assert err.startswith(f"bezquad: {path} is not UTF-8 text: ") and err.count("\n") == 1


def test_parser_reuse_matches_fresh_parsers(capsys):
    # main builds its parser once; a usage error between commands must not
    # leave state behind that changes a later parse
    calls = [
        ["rule2d", "--region", CIRCLE, "--mode", "pe", "--degree", "2"],
        ["integrate", "--model", CIRCLE, "--expr", "x^2", "--pe"],
        ["rule2d", "--region", CIRCLE, "--mode", "bogus"],
        ["integrate", "--expr", "1"],
        ["moments", "--model", CUBE, "--max-degree", "1"],
        ["rule2d", "--region", CIRCLE, "--mode", "spectral", "--order", "2"],
        ["integrate", "--model", CIRCLE, "--expr", "1", "--orders", "3"],
    ]
    fresh = []
    for argv in calls:
        _build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    reused = [run(capsys, *argv) for argv in calls]
    assert reused == fresh
    assert [code for code, _, _ in fresh] == [0, 0, 1, 1, 0, 0, 0]


def test_usage_errors_exit_1(capsys):
    assert main(["badcmd"]) == 1
    assert main([]) == 1
    assert main(["integrate", "--expr", "1"]) == 1  # neither --rule nor --model
    capsys.readouterr()


def test_moments_output(capsys):
    code, out, _ = run(capsys, "moments", "--model", CIRCLE, "--max-degree", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "a,b,value"
    vals = {tuple(map(int, l.split(",")[:2])): float(l.split(",")[2]) for l in lines[1:]}
    assert vals[(0, 0)] == pytest.approx(math.pi, abs=1e-10)
    assert vals[(2, 0)] == pytest.approx(math.pi / 4, abs=1e-10)


def _write_circle_points(path):
    """25 samples of a circle in the unit square, as fit-trim reads them."""
    t = np.linspace(0, 2 * math.pi, 25)
    path.write_text(
        "".join(f"{0.5 + 0.4 * math.cos(a):.17g},{0.5 + 0.4 * math.sin(a):.17g}\n" for a in t)
    )


@pytest.mark.parametrize(
    "argv",
    [
        ("rule2d", "--region", CIRCLE, "--mode", "pe", "--degree", "4"),
        ("rule2d", "--region", CIRCLE, "--mode", "spectral", "--order", "6"),
        ("rule-surface", "--solid", CYLINDER, "--orders", "5,4"),
        # 6144 rows: more than one block of the line writer
        ("rule-volume", "--solid", CYLINDER, "--orders", "8,8,8"),
        ("moments", "--model", CYLINDER, "--max-degree", "4"),
        ("convergence", "--model", CYLINDER, "--expr", "exp(z)", "--orders", "2:6:2"),
        # pts.csv is written in the working directory by the test
        ("fit-trim", "--points", "pts.csv", "--segments", "4"),
    ],
    ids=[
        "rule2d-pe",
        "rule2d-spectral",
        "rule-surface",
        "rule-volume",
        "moments",
        "convergence",
        "fit-trim",
    ],
)
def test_stdout_bytes_equal_out_file_bytes(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    _write_circle_points(tmp_path / "pts.csv")
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out.count("\n") > 1
    path = tmp_path / "out.csv"
    assert run(capsys, *argv, "--out", str(path))[:2] == (0, "")
    assert out.encode() == path.read_bytes()


@pytest.mark.parametrize(
    "model, degree",
    [(CIRCLE, 3), (CUBE, 3), (CUBE, 8), (CYLINDER, 8)],
    ids=["region", "solid", "cube-8", "cylinder-8"],
)
def test_moments_out_file_is_the_save_moments_file(capsys, tmp_path, model, degree):
    # both bundled solids take the degree-sized exact moment rule, so the
    # doubling check has nothing to warn about: exit 0, no stderr
    cli = tmp_path / "cli.csv"
    argv = ("moments", "--model", model, "--max-degree", str(degree), "--out", str(cli))
    assert run(capsys, *argv) == (0, "", "")
    saved = tmp_path / "saved.csv"
    save_moments(geometric_moments(load_model(model), degree), saved)
    assert cli.read_bytes() == saved.read_bytes()


@pytest.fixture
def x_axis_cylinder_file(tmp_path):
    path = tmp_path / "x-cylinder.solid.json"
    save_solid(x_axis_cylinder(), path)
    return str(path)


def test_moments_warning_is_one_prefixed_line(capsys, x_axis_cylinder_file):
    argv = ("moments", "--model", x_axis_cylinder_file, "--max-degree", "6")
    code, out, err = run(capsys, *argv)
    assert code == 0 and out.startswith("a,b,c,value\n")
    assert len(err.splitlines()) == 1 and err.endswith("\n")
    assert err.startswith("bezquad: warning: moment (0, 6, 0) moved")
    assert "UserWarning" not in err


def test_warnings_print_under_error_filter(capsys, x_axis_cylinder_file):
    argv = ["moments", "--model", x_axis_cylinder_file, "--max-degree", "4"]
    _, default_out, default_err = run(capsys, *argv)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, *argv)
    assert code == 0 and out == default_out and err == default_err
    assert [l.startswith("bezquad: warning: ") for l in err.splitlines()] == [True]


def test_fit_trim_json_shape(capsys, tmp_path):
    t = np.linspace(0, 2 * math.pi, 25)
    path = tmp_path / "pts.csv"
    path.write_text(
        "".join(
            f"{0.5 + 0.4 * math.cos(a):.17g},{0.5 + 0.4 * math.sin(a):.17g}\n"
            for a in t
        )
    )
    code, out, _ = run(capsys, "fit-trim", "--points", str(path), "--segments", "4")
    assert code == 0
    loops = json.loads(out)
    assert len(loops) == 1 and len(loops[0]) == 4
    assert all(c["degree"] == 3 for c in loops[0])
    assert all(len(c["points"]) == 4 for c in loops[0])
    # fitted loops are directly pasteable into a solid file's trim_loops
    assert set(loops[0][0]) == {"degree", "points", "weights"}


def test_convergence_circle(capsys):
    code, out, _ = run(
        capsys,
        "convergence",
        "--model",
        CIRCLE,
        "--expr",
        "exp(x+y)",
        "--orders",
        "4:20:2",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "order,n_points,value,error"
    assert len(lines) == 1 + 9
    errors = [float(l.split(",")[3]) for l in lines[1:]]
    assert errors[-1] <= 1e-12
    assert errors[0] > errors[4] > errors[-1]  # decreasing toward the reference


def test_convergence_cube_exact_everywhere(capsys):
    code, out, _ = run(
        capsys, "convergence", "--model", CUBE, "--expr", "1", "--orders", "2:6:2"
    )
    assert code == 0
    for line in out.splitlines()[1:]:
        assert float(line.split(",")[3]) <= 1e-13


def test_convergence_bad_range(capsys):
    code, _, err = run(
        capsys, "convergence", "--model", CIRCLE, "--expr", "1", "--orders", "20:4:2"
    )
    assert code == 1 and "LO" in err


def test_out_flag_writes_file_quietly(capsys, tmp_path):
    path = tmp_path / "m.csv"
    code, out, _ = run(
        capsys, "moments", "--model", CIRCLE, "--max-degree", "1", "--out", str(path)
    )
    assert code == 0 and out == ""
    assert path.read_text().splitlines()[0] == "a,b,value"


def test_byte_determinism(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code, _, _ = run(
            capsys,
            "rule-volume",
            "--solid",
            CYLINDER,
            "--orders",
            "8,8,6",
            "--out",
            str(path),
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "bezquad.cli", "integrate", "--model", CIRCLE,
         "--expr", "x^2", "--pe"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert float(proc.stdout) == pytest.approx(math.pi / 4, abs=1e-10)


def test_json_the_decoder_refuses_exits_1_with_one_line(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    proc = subprocess.run(
        [sys.executable, "-m", "bezquad.cli", "moments", "--model", str(path), "--max-degree", "1"],
        capture_output=True,
        text=True,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith(f"bezquad: {path} is not valid JSON: maximum recursion depth")
    assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")


@pytest.mark.parametrize(
    "keys, value, message",
    [
        (
            ["loops", 0, 0, "weights"],
            ["1", "0.7071067811865476", "1"],
            "loops[0][0].weights: not a numeric array",
        ),
        (
            ["loops", 0, 1, "points", 0, 0],
            10**400,
            "loops[0][1].points: integer too large for a double",
        ),
    ],
    ids=["numbers-as-text", "integer-past-double"],
)
@pytest.mark.parametrize("command", ["moments", "integrate"])
def test_json_arrays_that_are_not_doubles_exit_1_with_one_line(
    tmp_path, keys, value, message, command
):
    path = bundled_with(tmp_path, "circle.region.json", keys, value)
    extra = ["--max-degree", "1"] if command == "moments" else ["--expr", "1"]
    proc = subprocess.run(
        [sys.executable, "-m", "bezquad.cli", command, "--model", str(path), *extra],
        capture_output=True,
        text=True,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", f"bezquad: {message}\n")


def test_expression_nested_150_deep_takes_the_degree_exact_rule(capsys):
    # parse once refused more than 87 nested groups; y^2 integrates to pi/4
    # over the unit disk, and the parentheses change no byte of the output
    code, out, err = run(capsys, "integrate", "--model", CIRCLE, "--pe",
                         "--expr", "(" * 150 + "y^2" + ")" * 150)
    assert (code, err) == (0, "")
    assert float(out) == pytest.approx(math.pi / 4, rel=0, abs=1e-13)
    assert run(capsys, "integrate", "--model", CIRCLE, "--pe", "--expr", "y^2") == (0, out, "")


def test_3000_term_sum_takes_the_degree_exact_rule(capsys):
    # the integrand's degree sizes the rule: 3000 y^2 terms have degree 2,
    # and each integrates to pi/4 over the unit disk; the 2999 additions
    # at each node round, within 1e-13 as for the 600-term polynomial
    code, out, err = run(capsys, "integrate", "--model", CIRCLE, "--pe",
                         "--expr", " + ".join(["y^2"] * 3000))
    assert (code, err) == (0, "")
    assert float(out) == pytest.approx(3000 * math.pi / 4, rel=1e-13)


def test_600_term_polynomial_integrates_with_and_without_pe(capsys):
    terms = [f"{k % 7 + 1}*x^{k % 4}*y^{k % 3}" for k in range(600)]
    expr = " + ".join(terms)
    values = []
    for pe in ([], ["--pe"]):
        code, out, err = run(capsys, "integrate", "--model", CIRCLE, *pe, "--expr", expr)
        assert (code, err) == (0, "")
        values.append(float(out))
    # 600 terms of exact monomial integrals over the unit disk
    want = sum((k % 7 + 1) * exact.unit_disk_moment(k % 4, k % 3) for k in range(600))
    assert values == pytest.approx([want, want], rel=1e-13)


def test_closed_stdout_pipe_exits_1_quietly():
    # the reader takes one line and goes, as `bezquad ... | head -1` does
    proc = subprocess.Popen(
        [sys.executable, "-m", "bezquad.cli", "rule-volume", "--solid", CYLINDER,
         "--orders", "24,24,24"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"x,y,z,weight,patch,sigma,psi\n"
    proc.stdout.close()
    assert proc.wait(timeout=60) == 1
    with proc.stderr:
        assert proc.stderr.read() == b""


@pytest.mark.parametrize(
    "error,message",
    [
        (MemoryError("Unable to allocate 7.28 TiB for an array"), "Unable to allocate 7.28 TiB for an array"),
        (MemoryError(), "out of memory"),
    ],
)
def test_memory_error_exit_1(capsys, monkeypatch, error, message):
    def boundary_rule(*args):
        raise error

    monkeypatch.setattr("bezquad.cli.boundary_rule", boundary_rule)
    code, out, err = run(capsys, "rule-surface", "--solid", CUBE, "--orders", "1000000,1000000")
    assert (code, out, err) == (1, "", f"bezquad: {message}\n")
