"""Source rules: each "one way" helper is the only code that does its job. A row names
the files to scan, the names exempt, a pattern no line of the others may match, a
pattern for lines let through anyway, and the advice."""

import ast
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).parents[1]
SRC, BEZIER = "src/bezquad/**/*.py", ("bezier.py",)

RULES = {
    "one warning path": (SRC, BEZIER, r"warnings\.warn|stacklevel", None,
        "warn through bezier._warn, which names the caller's line, not warnings.warn or a stacklevel"),
    "one way in for arrays": (SRC, BEZIER, r"writeable *= *False|setflags", None,
        "store arrays through bezier._adopt (or freeze a fresh one with bezier._frozen), "
        "not by setting writeable = False"),
    # complex pole locations, which _adopt refuses by design, are checked where PoleSet reads them
    "one finiteness check": (SRC, BEZIER, r"ValidationError\(.*(non-finite values|must be finite)",
        "pole locations must be finite",
        "refuse non-finite arrays by taking them through bezier._adopt, which names the entry, "
        "not with a local isfinite check"),
    "one scalar check": (SRC, BEZIER + ("quad1d.py",), r"numbers\.(Real|Integral)|is_integer\(", None,
        "take real scalars through bezier._adopt(..., shape=()) and counts through quad1d._as_int, "
        "not with a local numbers.Real, numbers.Integral or is_integer check"),
    "one shape check": (SRC, BEZIER, r"\.ndim *(!=|==|<|>)|\.shape *!=", None,
        "refuse a wrong-shaped array by taking it through bezier._adopt(..., shape=...), "
        "which names the argument, not with a local ndim or shape check"),
    "one way in for sequences": (SRC, BEZIER,
        r"_closure_half_gaps|np\.iterable\(|needs at least one|is empty|nonempty list|must be a TrimLoop"
        r"|must be a RationalBezierCurve|cannot build a|cannot take moments of|must be a RationalBezierPatch",
        None, "take sequences through bezier._items and objects through bezier._kind, and check closure "
        "with bezier._closed_chain, not with a local emptiness, type or gap check"),
    "one way out": (SRC, ("io.py",), r'json\.dumps?\(|open\([^)]*"[wax]', None,
        "write output files through io._write and JSON text through io._json_text"),
    # a product chain is several times cheaper than libm's pow on the arrays of to_callable
    "one power path": ("src/bezquad/expr.py", (), r"operator\.pow|np\.power|\*\*", r'"\^": operator\.pow',
        "take vector powers through expr._power, by squaring; only the _SCALAR table maps ^ to operator.pow"),
    # a fallback brings a solver, not a refinement loop or an error-message SVD of its own
    "one refined solve": ("src/bezquad/quad1d.py", (), r"np\.linalg\.(solve|lstsq|svd)\(",
        r"_refined\(lambda a, m: np\.linalg\.lstsq\(",
        "solve for rule weights through quad1d._refined, passing it the solver, and accept a "
        "fallback through quad1d._exact_on_basis"),
    # a memo lives as long as the process, and its entries with it
    "every memo bounded": (SRC, (), r"maxsize *= *None|lru_cache\(None", None,
        "bound every memo with arguments: lru_cache(maxsize=N) or bezier._memo(N), not maxsize=None"),
    # exempt: this module's own advice names scipy.special
    "one home for closed forms": ("tests/*.py", ("test_source_rules.py",), r"math\.gamma\(|scipy\.special",
        None, "take closed forms from benchmarks/exact.py (conftest's exact), not from math.gamma or scipy.special"),
}


@pytest.mark.parametrize("files, exempt, pattern, allowed, advice", RULES.values(), ids=list(RULES))
def test_source_rule(files, exempt, pattern, allowed, advice):
    hits = [
        f"{path.relative_to(ROOT)}:{number}: {line.strip()}"
        for path in sorted(ROOT.glob(files)) if path.name not in exempt
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if re.search(pattern, line) and not (allowed and re.search(allowed, line))
    ]
    assert not hits, "\n".join([advice, *hits])


def _opens(node, scope):
    """(scope, line) of each builtin open( (os.open is not one), Path.read_text or read_bytes."""
    for child in ast.iter_child_nodes(node):
        func = getattr(child, "func", None)  # only an ast.Call has one
        if getattr(func, "id", None) == "open" or getattr(func, "attr", None) in ("read_text", "read_bytes"):
            yield scope, child.lineno
        named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        yield from _opens(child, f"{scope}.{child.name}" if named else scope)


def test_one_way_in_for_files():
    paths = sorted((ROOT / "src/bezquad").glob("*.py"))
    found = [hit for path in paths for hit in _opens(ast.parse(path.read_text()), path.stem)]
    report = [f"{scope}, line {line}" for scope, line in found]
    assert [scope for scope, _ in found] == ["io._read", "io._write"], "\n".join(
        ["open files only in io._read (input) and io._write (output), once each", *report])


def _calls_itself(function):
    """Whether ``function`` calls a name or an attribute spelled as its own name; a
    ``super()`` call, which reaches the parent class's method, is not one."""
    return any(
        getattr(call.func, "id", None) == function.name
        or getattr(call.func, "attr", None) == function.name and not (
            isinstance(call.func.value, ast.Call) and getattr(call.func.value.func, "id", None) == "super")
        for call in ast.walk(function) if isinstance(call, ast.Call)
    )


def test_one_tree_walk():
    """No function of src/bezquad calls itself: every walk of an expression tree is a
    fold over Expr._postorder, parse is one loop and control_bbox walks an explicit
    stack, so input of any depth takes them."""
    recursive = [
        f"{path.relative_to(ROOT)}:{f.lineno}: {f.name}"
        for path in sorted((ROOT / "src/bezquad").glob("*.py"))
        for f in ast.walk(ast.parse(path.read_text())) if isinstance(f, ast.FunctionDef) and _calls_itself(f)
    ]
    assert not recursive, "\n".join(
        ["walk nested input over an explicit stack, not by recursion", *recursive])


def _decorator_name(node):
    """The name a decorator calls or is: ``lru_cache`` for ``@functools.lru_cache(64)``."""
    node = node.func if isinstance(node, ast.Call) else node
    return getattr(node, "id", None) or getattr(node, "attr", None)


def test_every_memo_hands_out_read_only_arrays():
    """Every lru_cache or _memo memo of src/bezquad is a key of tests/test_adopt.py's
    _MEMOS, whose test calls each twice and finds no writeable array: every caller
    shares a memo's value.  bezier._memo's own lru_cache wraps each build, so the
    function it decorates, ``entry``, is no memo of its own."""
    memos = {
        f.name
        for path in sorted((ROOT / "src/bezquad").glob("*.py"))
        for f in ast.walk(ast.parse(path.read_text())) if isinstance(f, ast.FunctionDef)
        if any(_decorator_name(d) in ("lru_cache", "_memo") for d in f.decorator_list)
        and (path.stem, f.name) != ("bezier", "entry")
    }
    table = next(
        node.value for node in ast.parse((ROOT / "tests/test_adopt.py").read_text()).body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "_MEMOS"
    )
    unlisted = sorted(memos - {key.value for key in table.keys})
    assert memos and not unlisted, "\n".join(
        ["list every memo in tests/test_adopt.py's _MEMOS, called with arguments for one entry",
         *unlisted])
