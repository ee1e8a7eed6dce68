import math
import time

import numpy as np
import pytest

from bezquad.errors import EvalError, ParseError
from bezquad.expr import (
    _FUNCTIONS,
    BinOp,
    Call,
    Expr,
    Neg,
    Num,
    Var,
    evaluate,
    parse,
    polynomial_degree,
    to_callable,
    to_text,
)
from bezquad.planar import integrate2d, spectral_pe_rule, spectral_rule
from bezquad.shapes import circle_region

from conftest import expr_tree_text, random_expr_tree, reference_expr_eval
from expr_reference import reference_evaluate, reference_to_callable


def ev(text, point=(0.0, 0.0, 0.0)):
    return evaluate(parse(text), point)


def test_arithmetic_values():
    assert ev("x^2 - 3*x*y + z/3", (1, 1, 1)) == pytest.approx(-1.6666666667, abs=1e-9)
    assert ev("sqrt(x^2+y^2+z^2)", (3, 4, 0)) == 5.0
    assert ev("(x^2 - y + z^2)/(x^2+y^2+z^2)", (1, 0, 0)) == 1.0
    assert ev("2", (7, 8, 9)) == 2.0


def test_precedence_and_associativity():
    assert ev("2+3*4") == 14.0
    assert ev("2*3^2") == 18.0
    assert ev("2^3*2") == 16.0
    assert ev("-x^2", (2, 0, 0)) == -4.0  # unary minus binds below ^
    assert ev("(-x)^2", (2, 0, 0)) == 4.0
    assert ev("1-2-3") == -4.0
    assert ev("8/4/2") == 1.0
    assert ev("-(1+2)^2") == -9.0


def test_whitespace_insensitive():
    assert parse(" x + 2*y ") == parse("x+2 * y")


def test_syntax_error_offsets():
    with pytest.raises(ParseError, match="offset 3"):
        parse("x +")
    with pytest.raises(ParseError, match="offset 2"):
        parse("x $ y")
    with pytest.raises(ParseError, match="unknown identifier 'foo'"):
        parse("foo(x)")
    with pytest.raises(ParseError, match="unexpected 'y'"):
        parse("x y")
    with pytest.raises(ParseError):
        parse("")
    with pytest.raises(ParseError, match="expected '\\)'"):
        parse("sin(x")
    with pytest.raises(ParseError, match="^expected '\\)' at offset 6$"):
        parse("(x + y")
    with pytest.raises(ParseError, match="^sqrt needs a parenthesized argument at offset 5$"):
        parse("sqrt x")


def test_exponent_must_be_integer_literal():
    for bad in ("x^2.5", "x^y", "x^-2", "x^(2)"):
        with pytest.raises(ParseError, match="exponent"):
            parse(bad)
    assert ev("x^0", (5, 0, 0)) == 1.0


def test_literals_past_double_range_rejected():
    with pytest.raises(ParseError, match="number '1e999' does not fit a finite double at offset 8"):
        parse("log(x - 1e999)")
    with pytest.raises(ParseError, match="number '9{400}' does not fit a finite double at offset 2"):
        parse("x^" + "9" * 400)
    with pytest.raises(ParseError, match="offset 0"):
        parse("1" + "0" * 400)
    assert parse("1.7976931348623157e308") == Num(1.7976931348623157e308)


@pytest.mark.parametrize("text, offset", [
    ("(-1)^9007199254740993", 5),  # 2^53 + 1 reads as 2^53 and would lose its parity
    ("x^18446744073709551615", 2),  # 2^64 - 1 reads as 2^64
    ("x^" + "9" * 300, 2),
], ids=["2^53+1", "2^64-1", "300 nines"])
def test_exponent_a_double_does_not_hold_exactly_is_a_parse_error(text, offset):
    digits = text.partition("^")[2]
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == f"exponent {digits!r} is not exact in a double at offset {offset}"


def test_exact_exponents_of_any_length_parse():
    assert parse("x^" + str(2**1000)).right == Num(float(2**1000))
    assert parse("2^100000000000000000000").right == Num(1e20)
    assert parse("x^" + "0" * 5000 + "3").right == Num(3.0)


@pytest.mark.parametrize(
    "text, offset",
    [
        ("(" * 150 + "x" + ")" * 150, 88),  # parser recursion
        ("-" * 150 + "x", 88),
        ("sin(" * 150 + "x" + ")" * 150, 352),
    ],
    ids=["parentheses", "negations", "calls"],
)
def test_nesting_past_what_the_walks_take_is_a_parse_error(text, offset):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == f"expression nests too deeply at offset {offset}"


@pytest.fixture(scope="module")
def hand_built_chains():
    """x + x + ... + x with 100,000 operators, and x under 100,000
    negations, built by hand: no parser limit applies."""
    total, negated = Var("x"), Var("x")
    for _ in range(100_000):
        total, negated = BinOp("+", total, Var("x")), Neg(negated)
    return total, negated


def test_the_deepest_accepted_trees_walk(hand_built_chains):
    x = np.array([0.5, 2.0])
    for text, value in [
        ("(" * 87 + "x" + ")" * 87, x),
        ("-" * 87 + "x", -x),
        (" + ".join(["x"] * 700), 700 * x),
        # the divisor's walk for variables once took two frames per level
        ("x / (" + " + ".join(["1"] * 690) + ")", x / 690),
        # no walk recurses, so a sum or product of any length parses
        (" + ".join(["x"] * 3000), 3000 * x),
        ("x" + " * 1" * 2999, x),
    ]:
        node = parse(text)
        assert polynomial_degree(node) == 1
        assert to_text(parse(to_text(node))) == to_text(node)
        assert np.allclose(to_callable(node)(x, x), value, rtol=1e-15)
        assert evaluate(node, (2.0, 0.0, 0.0)) == pytest.approx(value[1], rel=1e-15)
    # and a tree built by hand walks at any depth
    total, negated = hand_built_chains
    for node, text, value in [
        (total, " + ".join(["x"] * 100_001), 100_001 * x),
        (negated, "-" * 100_000 + "x", x),
    ]:
        assert polynomial_degree(node) == 1 and to_text(node) == text
        assert np.allclose(to_callable(node)(x, x), value, rtol=1e-15)
        assert evaluate(node, (2.0, 0.0, 0.0)) == pytest.approx(value[1], rel=1e-15)


def test_the_deepest_accepted_trees_compare_hash_and_print(hand_built_chains):
    # a recursive ==, hash or repr takes two or more frames per level
    x = "Var(name='x')"
    for terms in (700, 3000):
        text = " + ".join(["x"] * terms)
        a, b = parse(text), parse(text)
        assert a == b and hash(a) == hash(b)
        assert a != parse(" + ".join(["x"] * (terms - 1)))
        assert repr(a) == "BinOp(op='+', left=" * (terms - 1) + x + f", right={x})" * (terms - 1)
    a, b = parse("x" + " * 1" * 2999), parse("x" + " * 1" * 2999)
    assert a == b and hash(a) == hash(b) and a != parse("x" + " * 1" * 2998)
    one = ", right=Num(value=1.0))"
    assert repr(a) == "BinOp(op='*', left=" * 2999 + x + one * 2999
    # hand-built trees 100,000 levels deep, each beside a copy that shares
    # all but its root, and its own subtree one level shorter
    total, negated = hand_built_chains
    for a, b, shorter, want in [
        (total, BinOp("+", total.left, Var("x")), total.left,
         "BinOp(op='+', left=" * 100_000 + x + f", right={x})" * 100_000),
        (negated, Neg(negated.child), negated.child, "Neg(child=" * 100_000 + x + ")" * 100_000),
    ]:
        assert a == b and hash(a) == hash(b) and a != shorter and repr(a) == want


def test_trees_compare_hash_and_print_as_dataclasses_did():
    node = parse("-x^2 + sin(-(y - 2.5e-3)) / 3")
    assert repr(node) == (
        "BinOp(op='+', left=Neg(child=BinOp(op='^', left=Var(name='x'), "
        "right=Num(value=2.0))), right=BinOp(op='/', left=Call(fn='sin', "
        "arg=Neg(child=BinOp(op='-', left=Var(name='y'), right=Num(value=0.0025)))), "
        "right=Num(value=3.0)))"
    )
    assert parse("x+1") == BinOp("+", Var("x"), Num(1.0))
    assert hash(parse("x+1")) == hash(BinOp("+", Var("x"), Num(1.0)))
    assert parse("x+1") != parse("1+x") and parse("x") != parse("y") and Var("x") != "x"
    assert Num(0.0) == Num(-0.0) and hash(Num(0.0)) == hash(Num(-0.0))
    assert len({parse("x*y"), BinOp("*", Var("x"), Var("y")), parse("x*y")}) == 1


def test_domain_errors_carry_node_and_point():
    with pytest.raises(EvalError, match=r"division by zero in 1 / x"):
        ev("1/x", (0, 0, 0))
    with pytest.raises(EvalError, match=r"domain error in sqrt\(x\)"):
        ev("sqrt(x)", (-1, 0, 0))
    with pytest.raises(EvalError, match="log"):
        ev("log(x)", (0, 0, 0))
    with pytest.raises(EvalError, match="overflow"):
        ev("exp(x)", (1000, 0, 0))
    with pytest.raises(EvalError, match=r"^overflow in x\^400 at point \(10, 0, 0\)$"):
        ev("x^400", (10, 0, 0))
    # + - * / overflow to inf in double arithmetic, and evaluate names that
    # as an overflow too; to_callable gives the inf
    for text, x, node in [
        ("x*1e308", 10, "x * 1e+308"),
        ("x*1e308*10", 1, "x * 1e+308 * 10"),
        ("1e308 + x*1e308", 1, "1e+308 + x * 1e+308"),
        ("-1e308 - x", 1e308, "-1e+308 - x"),
        ("x / 1e-300", 1e10, "x / 1e-300"),
    ]:
        with pytest.raises(EvalError) as err:
            ev(text, (x, 0, 0))
        assert str(err.value) == f"overflow in {node} at point ({x:.17g}, 0, 0)"
        assert to_callable(parse(text))(np.array([float(x)]), np.zeros(1))[0] in (math.inf, -math.inf)
    # an infinite operand is no overflow: only a hand-built literal holds one
    assert evaluate(BinOp("*", Num(math.inf), Var("x")), (2, 0, 0)) == math.inf
    assert math.isnan(evaluate(BinOp("-", Num(math.inf), Num(math.inf)), (0, 0, 0)))
    # a hand-built non-finite literal prints as its repr in the message
    for v in (math.nan, math.inf, -math.inf):
        with pytest.raises(EvalError, match=rf"^division by zero in {v!r} / x at point"):
            evaluate(BinOp("/", Num(v), Var("x")), (0, 0, 0))


def test_round_trip_minimal_parens():
    cases = [
        "x + (y - z)",
        "(x + y) - z",
        "x - (y - z)",
        "x/(y*z)",
        "x/y*z",
        "-(x + y)",
        "2*(x + y)^3",
        "sin(x)*cos(y)",
        "-x^2",
        "(-x)^2",
        "sqrt(x^2 + y^2)",
        "x - -y",
        "x*(y + z)*x",
        "2^100000000000000000000",  # an exponent prints as an integer literal
    ]
    for text in cases:
        tree = parse(text)
        assert parse(to_text(tree)) == tree, text
    # a negative literal (the parser only makes Neg) prints with unary-minus
    # precedence, so it reparses to the same value
    for tree, value in [
        (BinOp("^", Num(-2.0), Num(2.0)), 4.0),
        (BinOp("-", Var("x"), Num(-2.5)), 3.5),
        (BinOp("*", Num(-0.0), Var("x")), -0.0),
    ]:
        again = parse(to_text(tree))
        assert evaluate(again, (1, 0, 0)).hex() == evaluate(tree, (1, 0, 0)).hex() == value.hex()


def test_to_text_prints_integral_floats_as_integers():
    assert to_text(parse("2.0 + x")) == "2 + x"
    assert to_text(BinOp("^", Num(2.0), Num(3.0))) == "2^3"


def test_polynomial_degree():
    assert polynomial_degree(parse("x^3/3 + x^2*y*z - 3*y^2*z + z + 3")) == 4
    assert polynomial_degree(parse("exp(x)")) is None
    assert polynomial_degree(parse("7")) == 0
    assert polynomial_degree(parse("x/y")) is None
    assert polynomial_degree(parse("x/(2 - 2)")) is None  # zero denominator
    assert polynomial_degree(parse("x/2")) == 1
    assert polynomial_degree(parse("(x*y - z)^2*(x + 1)")) == 5
    assert polynomial_degree(parse("sqrt(4)")) is None  # calls opt out entirely
    assert polynomial_degree(parse("x / sin(2)")) is None  # a call in the denominator too
    assert polynomial_degree(parse("x / 10^400")) is None  # an overflowing denominator
    assert polynomial_degree(parse("x / (1e200 * 1e200)")) is None
    assert polynomial_degree(parse("-x*y")) == 2
    assert polynomial_degree(parse("sin(x)*y")) is None  # a call on the left of an operator
    assert polynomial_degree(parse("x / y^0")) is None  # degree 0, but a variable


@pytest.mark.parametrize("bottom, degree", [(2.0, 1), (0.0, None)])
def test_degree_of_a_deep_division_chain_takes_linear_time(bottom, degree):
    # x / (1 / (1 / ... / bottom)), built by hand: each division once read
    # its whole denominator again, 24.8 s at 4,000 levels
    node = Num(bottom)
    for _ in range(4000):
        node = BinOp("/", Num(1.0), node)
    start = time.perf_counter()
    assert polynomial_degree(BinOp("/", Var("x"), node)) == degree
    assert time.perf_counter() - start < 1.0


def test_degree_routes_polynomial_rules():
    """The degree bound is what sizes the exact rule, so an integral with
    that rule must match the large spectral reference."""
    rng = np.random.default_rng(911)
    region = circle_region()
    reference_rule = spectral_rule(region, 30, 30)
    done = 0
    while done < 6:
        tree = random_expr_tree(rng, depth=3, functions=False, division=False)
        text = expr_tree_text(tree)
        k = polynomial_degree(parse(text))
        if k is None or k > 8:
            continue
        f = to_callable(parse(text))
        want = integrate2d(reference_rule, f)
        got = integrate2d(spectral_pe_rule(region, k), f)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-9), text
        done += 1


def test_callable_matches_scalar_eval():
    rng = np.random.default_rng(40)
    for text in ("x^2 - 3*x*y + z/3", "sin(x)*exp(y) + z", "sqrt(x^2 + y^2 + 1)"):
        f = to_callable(parse(text))
        pts = rng.uniform(-2, 2, size=(20, 3))
        vec = f(pts[:, 0], pts[:, 1], pts[:, 2])
        for i in range(20):
            assert vec[i] == pytest.approx(ev(text, pts[i]), rel=1e-13)


def test_callable_defaults_z_to_zero():
    f = to_callable(parse("x + y + z"))
    out = f(np.array([1.0, 2.0]), np.array([0.5, 0.5]))
    assert np.allclose(out, [1.5, 2.5])
    assert np.shape(f(np.ones(3), np.ones(3))) == (3,)


def test_zeroth_power_is_nan_where_its_base_is_not_finite():
    # an overflow of the base is an EvalError, so only a hand-built literal
    # makes a base that is not finite here
    with pytest.raises(EvalError, match=r"^overflow in x \* 1e\+308 \* 10 at point"):
        ev("(x*1e308*10)^0", (1, 0, 0))
    assert math.isnan(evaluate(BinOp("^", BinOp("*", Num(math.inf), Var("x")), Num(0.0)), (1, 0, 0)))
    assert ev("(x*1e308)^0", (1, 0, 0)) == 1.0
    x = np.array([-1.0, 0.0, 1.0])
    out = to_callable(parse("log(x)^0"))(x, x)
    assert np.isnan(out[:2]).all() and out[2] == 1.0
    out = to_callable(parse("(1/0)^0"))(x, x)
    assert out.shape == x.shape and np.isnan(out).all()


def test_callable_out_of_domain_is_non_finite():
    f = to_callable(parse("log(x)"))
    out = f(np.array([-1.0, 1.0]), np.zeros(2))
    assert not np.isfinite(out[0]) and out[1] == 0.0


def test_differential_against_reference_evaluator():
    rng = np.random.default_rng(5150)
    checked = 0
    for _ in range(300):
        tree = random_expr_tree(rng)
        text = expr_tree_text(tree)
        node = parse(text)
        point = tuple(rng.uniform(-2.0, 2.0, 3))
        try:
            want = reference_expr_eval(tree, point)
        except (ValueError, ZeroDivisionError, OverflowError):
            with pytest.raises(EvalError):
                evaluate(node, point)
            continue
        assert evaluate(node, point) == want, text
        checked += 1
    assert checked > 100  # most draws must exercise the value path


def _squares(v, k):
    """v^k for k >= 1 as the square of v^(k // 2), times v when k is odd:
    the products to_callable takes a power by, from the top bit of k."""
    if k == 1:
        return v
    half = _squares(v, k // 2)
    return half * half * v if k % 2 else half * half


def _array_literal_callable(node):
    """The earlier compile: every literal an array shaped like x, x^1 a copy,
    and x^k for k >= 2 by squaring."""

    def walk(n):
        if isinstance(n, Num):
            return lambda x, y, z: np.full(np.shape(x), n.value, dtype=float)
        if isinstance(n, Var):
            return lambda x, y, z: np.asarray({"x": x, "y": y, "z": z}[n.name], dtype=float)
        if isinstance(n, Neg):
            f = walk(n.child)
            return lambda x, y, z: -f(x, y, z)
        if isinstance(n, Call):
            f, g = walk(n.arg), _FUNCTIONS[n.fn][1]
            return lambda x, y, z: g(f(x, y, z))
        fl, fr = walk(n.left), walk(n.right)
        if n.op == "^":
            k = int(n.right.value)
            return lambda x, y, z: fl(x, y, z) ** k if k < 2 else _squares(fl(x, y, z), k)
        op = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide}[n.op]
        return lambda x, y, z: op(fl(x, y, z), fr(x, y, z))

    f = walk(node)

    def call(x, y, z=None):
        if z is None:
            z = np.zeros(np.shape(x))
        with np.errstate(all="ignore"):
            return f(x, y, z)

    return call


_CONSTANT_CASES = [
    "2.5^3", "-2^2", "(-1.1)^3", "1.1^7", "10^400", "1/0", "0/0", "-0", "2", "3*4 - 12",
    "exp(1.3)", "log(-2)", "sqrt(2)^2", "cos(3)^2 + sin(3)^2", "(0.1 + 0.2)^5",
]
_VARIABLE_CASES = [
    "x", "x^0", "x^1", "(x^0*1.1)^3", "log(-x)", "1/(x-x)", "x^2*y - 3*z + 0.5",
    "sqrt(2)*x", "(y + 1)^1 * 2", "-(x^0)", "z^2 + exp(y)^3", "(x*y)^0 + sin(1)",
]


@pytest.mark.parametrize("text", _CONSTANT_CASES + _VARIABLE_CASES)
def test_callable_matches_array_literal_compile(text):
    rng = np.random.default_rng(7)
    x, y, z = rng.uniform(-2.0, 2.0, (3, 257))
    node = parse(text)
    new, old = to_callable(node), _array_literal_callable(node)
    for args in ((x, y), (x, y, z)):
        got, want = new(*args), old(*args)
        assert got.dtype == want.dtype == np.float64
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), text


def test_callable_matches_array_literal_compile_on_random_trees():
    rng = np.random.default_rng(9009)
    x, y, z = rng.uniform(-2.0, 2.0, (3, 101))
    for _ in range(150):
        node = parse(expr_tree_text(random_expr_tree(rng)))
        got = to_callable(node)(x, y, z)
        want = _array_literal_callable(node)(x, y, z)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), to_text(node)


@pytest.mark.parametrize("text", _CONSTANT_CASES)
def test_constant_callable_returns_float64_array_shaped_like_x(text):
    x = np.linspace(0.0, 1.0, 12).reshape(3, 4)
    out = to_callable(parse(text))(x, x)
    assert isinstance(out, np.ndarray) and out.dtype == np.float64 and out.shape == (3, 4)
    assert out.flags.writeable


_EDGE_EXPRESSIONS = [
    "1/0", "exp(1000)", "log(0)", "sqrt(-1)^0", "(1/0)^0", "1e200^2", "2^100000000000000000000",
    "x^0", "exp(x)^3", "x^1", "sqrt(x)^1", "log(x)^0", "-0", "0/0", "x/0", "x/(y - y)",
    "log(-x)", "exp(1000*x)", "1e308*1e308*x", "10^400", "x^400", "-(x^0)", "(x*y)^0 + sin(1)",
]


def _scalar_outcome(node, point, evaluate):
    """The float's bits, or the exception's type and text."""
    try:
        value = evaluate(node, point)
    except Exception as exc:
        return type(exc), str(exc)
    return type(value), value.hex()


def _vector_outcome(node, args, to_callable):
    """Type, dtype, shape and bytes of the result, or the exception's type and text."""
    try:
        out = to_callable(node)(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return type(out), out.dtype, out.shape, out.tobytes()


def _zeroth_power_bases(node):
    """The base of every ^0 in the tree."""
    if isinstance(node, BinOp) and node.op == "^" and node.right.value == 0:
        yield node.left
    for child in vars(node).values():
        if isinstance(child, Expr):
            yield from _zeroth_power_bases(child)


def _nan_canonical(outcome, nan=False):
    """A vector outcome with nan where ``nan`` is set, and every nan in its
    bytes written as np.nan."""
    values = np.frombuffer(outcome[3]).reshape(outcome[2])
    return outcome[:3] + (np.where(np.isnan(values) | nan, np.nan, values).tobytes(),)


def test_interpreter_matches_the_two_walks_it_replaced():
    """The old walks gave x^0 = 1 for every x.  The interpreter gives nan
    where x is not finite, and no primitive turns a nan back into a number,
    so the value is nan wherever the old walks see a non-finite ^0 base and
    theirs everywhere else."""
    rng = np.random.default_rng(1919)
    texts = _EDGE_EXPRESSIONS + [expr_tree_text(random_expr_tree(rng)) for _ in range(3000)]
    x, y, z = rng.uniform(-2.0, 2.0, (3, 5))
    points = [(0.0, 0.0, 0.0), (1.5, -2.0, 0.25), (-0.75, 1e-3, 2.0)]
    vector_args = [(x, y, z), (x, y), (x[:1], y[:1], z[:1]), (1.25, -0.5, 0.75)]
    nan_cases = 0
    for text in texts:
        node = parse(text)
        bases = list(_zeroth_power_bases(node))
        for point in points:
            got = _scalar_outcome(node, point, evaluate)
            want = _scalar_outcome(node, point, reference_evaluate)
            if want[0] is float and not all(
                math.isfinite(reference_evaluate(b, point)) for b in bases
            ):
                want, nan_cases = (float, "nan"), nan_cases + 1
            assert got == want, (text, point)
        for args in vector_args:
            got = _vector_outcome(node, args, to_callable)
            assert got[0] is not EvalError, (text, got)
            want = _vector_outcome(node, args, reference_to_callable)
            bad = np.zeros(np.shape(args[0]), dtype=bool)
            for b in bases:
                bad |= ~np.isfinite(reference_to_callable(b)(*args))
            if bad.any():
                want, got = _nan_canonical(want, bad), _nan_canonical(got)
                nan_cases += 1
            assert got == want, (text, len(args))
    assert nan_cases > 0  # the edge cases alone hold non-finite ^0 bases


def test_hand_built_negative_power_is_a_reciprocal():
    """The grammar has no negative exponent, but a tree built by hand can."""
    x = np.array([2.0, 0.0, -3.0, np.inf])
    for k in (-1, -2, -3):
        node = BinOp("^", Var("x"), Num(float(k)))
        with np.errstate(divide="ignore"):
            want = x ** float(k)
        assert np.allclose(to_callable(node)(x, x), want, rtol=1e-15)
        assert evaluate(node, (2.0, 0.0, 0.0)) == 2.0**k


def test_hand_built_negative_power_is_no_polynomial():
    # it read as degree -1 for x^-1
    for k in (-1.0, -2.0):
        assert polynomial_degree(BinOp("^", Var("x"), Num(k))) is None
        assert polynomial_degree(BinOp("^", Num(2.0), Num(k))) is None
    assert polynomial_degree(BinOp("^", Var("x"), Num(0.0))) == 0


_POWER_BASES = np.concatenate([
    [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0],
    [1e154, -1e154, np.inf, -np.inf, np.nan],
    np.random.default_rng(2718).uniform(-2.0, 2.0, 1000),
])
_POWERS = [2, 3, 4, 5, 7, 8, 16, 31, 400, 10**20, 2**1000]


@pytest.mark.parametrize("k", _POWERS, ids=[*map(str, _POWERS[:-2]), "10^20", "2^1000"])
def test_vector_power_agrees_with_pow(k):
    """x^k by squaring has pow's nan, inf, zeros and signs.  Each squaring
    doubles the relative error before it and adds one rounding, so the
    value is within (k - 1) eps, and eps more for pow's own rounding; a
    subnormal result, within that of the smallest normal double."""
    x = _POWER_BASES
    got = to_callable(parse(f"x^{k}"))(x, x)
    with np.errstate(all="ignore"):
        want = np.power(x, float(k))
    for kind in (np.isnan, np.isinf, np.signbit, lambda v: v == 0):
        assert (kind(got) == kind(want)).all()
    both = np.isfinite(got) & (got != 0) & (want != 0)
    got, want = got[both], want[both]
    finfo = np.finfo(float)
    assert (abs(got - want) <= k * finfo.eps * np.maximum(abs(want), finfo.tiny)).all()
