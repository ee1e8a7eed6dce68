"""Geometry files (JSON), rule files (CSV), and trim-point lists.

Region files hold loops of curves; solid files hold patches with
optional trim loops.  Errors point into the document ("patches[2]
.weights[0][1]") so a bad file can be fixed without guesswork.  Rules
serialize to CSV with 17 significant digits, which reproduces every
float bit-exactly on reload.  Rule rows repeat heavily, so the writer
formats each distinct value of a column once, finding them without a
full sort where it can (runs of equal neighbours, small integer ranges),
and streams the file as one text per 4096-row block gathered from those
texts, never one string per row.  Every input file is read once, by
``_read``.  Rule bytes holding only what save_rule writes are parsed in
array passes over 1 MiB chunks, each distinct text of a column converted
once per chunk; the text of any other rule file, and of every
trim-point file, goes to one row reader, ``_rows``, which reports every
error.  Both run the same ``float``/``int`` on the same text.  Every
output file is written by ``_write``, and every JSON text is laid out by
``_json_text``.
"""

from __future__ import annotations

import importlib.resources
import json

import numpy as np

from .bezier import RationalBezierCurve, RationalBezierPatch, _adopt, _frozen, _items, _kind
from .errors import ValidationError
from .moments import MomentVector
from .planar import PlanarRegion, Rule
from .quad1d import _as_int
from .surface import TrimLoop, TrimmedPatch
from .volume import SolidModel

__all__ = [
    "load_model",
    "load_region",
    "save_region",
    "load_solid",
    "save_solid",
    "save_rule",
    "load_rule",
    "load_trim_points",
    "save_moments",
    "moment_csv_lines",
    "bundled",
]

_BLOCK = 4096  # rows per text block of the rule CSV writer
_INT64 = np.iinfo(np.int64)
_FIELD = 24  # bytes of the longest %.17g text, -1.2345678901234567e-308
_CHUNK = 1 << 20  # bytes of whole rows per array pass of the canonical reader
_COMMA, _LF = ord(","), ord("\n")
_ALPHABET = b"0123456789+-.e,\n"  # every byte of a row save_rule writes
# _MASKS[k] keeps the first k bytes of a field's three 8-byte words
_MASKS = (np.arange(_FIELD) < np.arange(_FIELD + 1)[:, None]).astype(np.uint8) * np.uint8(255)
_MASKS = _MASKS.view(np.uint64)
# odd multipliers of the field key; any values give the same results
_KEY = np.array([0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9], np.uint64)


def _read(path) -> bytes:
    """The bytes of ``path``; a missing or unreadable file raises ValidationError."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        raise ValidationError(f"no such file: {path}") from None
    except OSError as exc:  # a directory, or no permission to read
        raise ValidationError(f"cannot read {path}: {exc.strerror}") from None


def _text(data, path) -> str:
    """``data`` as UTF-8 text, CRLF and CR read as LF as text-mode ``open`` does."""
    try:
        return data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path} is not UTF-8 text: {exc}") from None


def _load_json(path):
    text = _text(_read(path), path)
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        # a JSONDecodeError, an integer of too many digits, or deep nesting
        raise ValidationError(f"{path} is not valid JSON: {exc}") from None


def _write(path, texts):
    """Create the UTF-8 file ``path``, lines ending in LF, holding ``texts``."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(texts)
    except OSError as exc:  # a directory, a missing folder, or no permission
        raise ValidationError(f"cannot write {path}: {exc.strerror}") from None


def _json_text(doc):
    """``doc`` as JSON text: two-space indent, sorted keys, a final LF."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _lines(lines):
    """``lines`` as one LF-terminated text, the one item of a list."""
    return ["".join(f"{line}\n" for line in lines)]


def _located(exc, path):
    """``exc`` located inside the document element at ``path``."""
    return ValidationError(exc.message, path=f"{path}.{exc.path}" if exc.path else path)


def _known_keys(obj, keys, path=None):
    unknown = set(obj) - set(keys)
    if unknown:
        raise ValidationError(f"unknown keys {sorted(unknown)}", path=path)


# each control net's noun and its stated degree per control-index axis
_NETS = {
    RationalBezierCurve: ("curve", ("degree",)),
    RationalBezierPatch: ("patch", ("degree_u", "degree_v")),
}


def _net_from_json(obj, path, kind, other=()):
    """The curve or patch ``kind`` of the JSON object at ``path``.

    The object holds ``points``, optional ``weights`` (1 when omitted),
    optional stated degrees (integers; JSON booleans and fractions are
    rejected) and the ``other`` keys its caller reads.  The net itself is
    checked by ``kind``, whose errors are located here.
    """
    noun, degrees = _NETS[kind]
    if not isinstance(obj, dict):
        raise ValidationError(f"expected a {noun} object", path=path)
    _known_keys(obj, ("points", "weights", *degrees, *other), path)
    if "points" not in obj:
        raise ValidationError("missing 'points'", path=path)
    pts = _adopt(obj["points"], f"{path}.points")
    wts = obj.get("weights")
    wts = np.ones(pts.shape[:-1]) if wts is None else _adopt(wts, f"{path}.weights")
    try:
        net = kind(pts, wts)
        stated = {key: _as_int(obj[key], repr(key)) for key in degrees if key in obj}
    except ValidationError as exc:
        raise _located(exc, path) from None
    for key, n in zip(degrees, net.points.shape):
        if key in stated and stated[key] != n - 1:
            raise ValidationError(
                f"stated {key} {obj[key]} does not match {n} control points", path=path
            )
    return net


def _net_to_json(net):
    degrees = {key: n - 1 for key, n in zip(_NETS[type(net)][1], net.points.shape)}
    return {**degrees, "points": net.points.tolist(), "weights": net.weights.tolist()}


def _curves_from_json(loop, path, chain=tuple):
    """``chain`` of the curves of the nonempty JSON list at ``path``."""
    curves = tuple(
        _net_from_json(c, f"{path}[{j}]", RationalBezierCurve)
        for j, c in enumerate(_items(loop, path))
    )
    try:
        return chain(curves)
    except ValidationError as exc:
        raise _located(exc, path) from None


def _load_document(path, keys, missing):
    """The region or solid at ``path``, by the first top-level key of ``keys``."""
    doc = _load_json(path)
    key = next((k for k in keys if isinstance(doc, dict) and k in doc), None)
    if key is None:
        raise ValidationError(f"{path}: {missing}")
    return (_region_from_json if key == "loops" else _solid_from_json)(doc)


def load_model(path):
    """Region or solid, decided by the document's top-level key."""
    return _load_document(path, ("loops", "patches"), "expected a 'loops' or 'patches' document")


def load_region(path) -> PlanarRegion:
    """Read {"loops": [[curve, ...], ...]}; omitted weights mean 1."""
    return _load_document(path, ("loops",), "region file needs a top-level 'loops' list")


def _region_from_json(doc) -> PlanarRegion:
    _known_keys(doc, ("loops",))
    loops = _items(doc["loops"], "loops")
    return PlanarRegion(
        tuple(_curves_from_json(loop, f"loops[{i}]") for i, loop in enumerate(loops))
    )


def save_region(region: PlanarRegion, path):
    _kind(region, "region", PlanarRegion)
    loops = [[_net_to_json(c) for c in loop] for loop in region.loops]
    _write(path, [_json_text({"loops": loops})])


def _patch_from_json(obj, path):
    patch = _net_from_json(obj, path, RationalBezierPatch, ("trim_loops",))
    trims = obj.get("trim_loops")  # null means no trims, as an omitted key does
    trims = () if trims is None else _items(trims, f"{path}.trim_loops", least=0)
    loops = tuple(
        _curves_from_json(loop, f"{path}.trim_loops[{k}]", TrimLoop)
        for k, loop in enumerate(trims)
    )
    return TrimmedPatch(patch, loops)


def _patch_to_json(tp):
    out = _net_to_json(tp.patch)
    if tp.loops:
        out["trim_loops"] = [[_net_to_json(seg) for seg in loop.segments] for loop in tp.loops]
    return out


def load_solid(path) -> SolidModel:
    """Read {"closed": bool, "patches": [patch, ...]}; trim loops optional."""
    return _load_document(path, ("patches",), "solid file needs a top-level 'patches' list")


def _solid_from_json(doc) -> SolidModel:
    _known_keys(doc, ("closed", "patches"))
    patches = _items(doc["patches"], "patches")
    built = tuple(_patch_from_json(p, f"patches[{i}]") for i, p in enumerate(patches))
    return SolidModel(built, closed=doc.get("closed", True))


def save_solid(solid: SolidModel, path):
    _kind(solid, "solid", SolidModel)
    patches = [_patch_to_json(tp) for tp in solid.patches]
    _write(path, [_json_text({"closed": solid.closed, "patches": patches})])


def _distinct(keys):
    """The sorted distinct values of the ``int64`` array ``keys`` and each
    entry's index into them, as ``np.unique`` gives them, in the narrowest
    unsigned type that fits.

    The data picks the path.  Keys of which more than half start a run of
    equal neighbours, and that span fewer values than there are entries
    (a node-index column), are ranked by a presence array.  Otherwise the
    runs are collapsed and only their heads sorted: lifted rules repeat
    x, y and the owner columns along every ray.  Against choosing by dtype
    (2-core VM, medians of 21 runs), all columns of the 165,888-row
    cylinder volume rule took 17.9 instead of 22.4 ms (``patch`` 0.34
    instead of 3.69, ``sigma`` 0.68 instead of 1.78, ``psi`` 1.84 instead
    of 1.71), and of 4,096- to 49,152-row rules 0-10% less.
    """
    n = len(keys)
    head = np.empty(n, bool)
    head[0] = True
    np.not_equal(keys[1:], keys[:-1], out=head[1:])
    if 2 * np.count_nonzero(head) > n and int(keys.max()) - int(keys.min()) < n:
        lo = keys.min()
        offset = keys - lo
        present = np.zeros(n, bool)  # every offset is below n
        present[offset] = True
        uniq = np.flatnonzero(present) + lo
        rank = np.cumsum(present, dtype=np.intp)
        rank -= 1
        return uniq, rank.astype(np.min_scalar_type(uniq.size))[offset]
    starts = np.flatnonzero(head)
    uniq, inverse = np.unique(keys[starts], return_inverse=True)
    inverse = inverse.ravel().astype(np.min_scalar_type(uniq.size))
    return uniq, np.repeat(inverse, np.diff(starts, append=n))


def _column_table(values, fmt):
    """Each distinct value of one nonempty column formatted once by ``fmt``,
    as a zero-padded ``V<width>`` array, and each row's index into it.

    Floats are keyed by their bits, so ``-0.0`` keeps its own text.
    """
    uniq, inverse = _distinct(values.view(np.int64))
    table = np.array([fmt % v for v in uniq.view(values.dtype).tolist()], dtype=bytes)
    return table.view(np.dtype((np.void, table.itemsize))), inverse


def _rule_csv_blocks(rule: Rule):
    """The rule CSV as LF-terminated texts: the header, then one text per
    ``_BLOCK`` rows.

    Every column table is built before this returns, so a caller that
    opens its output afterwards leaves no partial file when one fails.
    """
    header = ",".join(rule.columns) + "\n"
    if not len(rule):
        return iter([header])
    fmts = [b"%.17g,"] * (rule.dim + 1) + [b"%d,"] * rule.provenance.shape[1]
    fmts[-1] = fmts[-1][:-1] + b"\n"
    columns = (*rule.points.T, rule.weights, *rule.provenance.T)
    tables = [_column_table(c, fmt) for c, fmt in zip(columns, fmts)]
    return _gather_rows(header, tables, len(rule))


def _gather_rows(header, tables, n):
    # each row is the column texts side by side; their zero padding is
    # dropped from a whole block at once
    yield header
    row = np.dtype([(f"f{j}", table.dtype) for j, (table, _) in enumerate(tables)])
    for s in range(0, n, _BLOCK):
        rows = np.empty(min(_BLOCK, n - s), row)
        for j, (table, inverse) in enumerate(tables):
            rows[f"f{j}"] = table.take(inverse[s : s + _BLOCK])
        text = rows.view(np.uint8)
        yield text[text != 0].tobytes().decode("ascii")


def save_rule(rule, path):
    """CSV with coordinates, weight, then provenance; 17 digits."""
    _kind(rule, "rule", Rule)
    _write(path, _rule_csv_blocks(rule))


def _canonical_column(words, conv):
    """Each field's value in one column, ``conv`` run once per distinct text;
    None if ``conv`` rejects a text or a value is not finite.

    ``words`` holds each field's zero-padded text as three ``uint64``.  The
    fields are grouped by a multiply-xor key, and every field is compared
    with its group's representative: a key collision returns None, so the
    key never decides a value.
    """
    key = (words[:, 0] * _KEY[0]) ^ (words[:, 1] * _KEY[1]) ^ (words[:, 2] * _KEY[2])
    order = np.argsort(key)
    ordered = key[order]
    new = np.empty(len(key), bool)
    new[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    inverse = np.empty(len(key), np.intp)
    inverse[order] = np.cumsum(new) - 1
    first = order[new]
    if not (words == words.take(first.take(inverse), axis=0)).all():
        return None
    texts = np.ascontiguousarray(words[first]).view(f"S{_FIELD}").ravel().tolist()
    try:
        values = np.array(list(map(conv, texts)), np.int64 if conv is int else float)
    except (ValueError, OverflowError):
        return None
    if not np.isfinite(values).all():
        return None
    return values[inverse]


def _load_canonical(data):
    """``(points, weights, provenance, columns)`` of the bytes of a file as
    save_rule writes it, or None for any other bytes.

    Rows may hold only digits, ``+-.e``, commas and LF, with exactly one
    field per column, each 1 to ``_FIELD`` bytes; the last LF may be
    missing.  The file is cut at newlines into chunks of about ``_CHUNK``
    bytes, and each chunk is split into fields with array operations.
    Each distinct text of a column in a chunk runs through the same
    ``float``/``int`` as the general reader, so values are identical.
    """
    head = data.find(b"\n")
    if head < 0:
        return None
    try:
        header = data[:head].decode("utf-8")
    except UnicodeDecodeError:
        return None
    if header.splitlines() != [header]:
        return None
    cols = tuple(header.split(","))
    if "weight" not in cols:
        return None
    wi = cols.index("weight")
    width = len(cols)
    n = data.count(b"\n", head + 1) + (data[-1:] != b"\n")
    if not n:
        return None
    points = np.empty((n, wi))
    weights = np.empty(n)
    prov = np.empty((n, width - wi - 1), dtype=np.int64)
    targets = [*points.T, weights, *prov.T]  # one writeable view per column
    # room for a chunk, an LF after an unterminated last row, and the
    # _FIELD-byte window of the chunk's last field
    buf = np.empty(min(len(data) - head, _CHUNK + 1) + _FIELD, np.uint8)
    windows = np.lib.stride_tricks.sliding_window_view(buf, _FIELD)
    pos, row = head + 1, 0
    while pos < len(data):
        end = len(data) if len(data) - pos <= _CHUNK else data.rfind(b"\n", pos, pos + _CHUNK) + 1
        if end <= pos:
            return None
        chunk = data[pos:end]
        if chunk.translate(None, _ALPHABET):
            return None
        size = len(chunk)
        buf[:size] = np.frombuffer(chunk, np.uint8)
        if buf[size - 1] != _LF:
            buf[size] = _LF
            size += 1
        text = buf[:size]
        lf = text == _LF
        sep = np.flatnonzero(lf | (text == _COMMA)).astype(np.int32)
        if sep.size != np.count_nonzero(lf) * width:
            return None
        # with one LF per row, each row ends at its width-th separator
        ends = sep.reshape(-1, width)
        if not lf[ends[:, -1]].all():
            return None
        starts = np.empty_like(sep)
        starts[0] = 0
        starts[1:] = sep[:-1] + 1
        starts = starts.reshape(-1, width)
        lengths = ends - starts
        if not ((lengths >= 1) & (lengths <= _FIELD)).all():
            return None
        stop = row + len(ends)
        for j in range(width):
            words = windows[starts[:, j]].view(np.uint64)
            words &= _MASKS.take(lengths[:, j], axis=0)
            col = _canonical_column(words, float if j <= wi else int)
            if col is None:
                return None
            targets[j][row:stop] = col
        pos, row = end, stop
    return points, weights, prov, cols


def _rows(lines, path, width, n_float, first):
    """The float block, int64 block and file line numbers of the rows of
    ``lines``, the first of them line ``first``: ``width`` comma-separated
    fields each, ``n_float`` floats then ints; blank lines are skipped.
    Rows are parsed one at a time; the first that is malformed or has the
    wrong field count is reported, then the first with a non-finite value,
    then the first with an int out of int64 range.
    """
    numbers, floats, ints = [], [], []
    for ln, line in enumerate(lines, start=first):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != width:
            raise ValidationError(f"{path} line {ln}: expected {width} fields, got {len(parts)}")
        try:
            floats += map(float, parts[:n_float])
            ints += map(int, parts[n_float:])
        except ValueError:
            raise ValidationError(f"{path} line {ln}: malformed number") from None
        numbers.append(ln)
    n = len(numbers)
    values = np.array(floats).reshape(n, n_float)
    bad = np.flatnonzero(~np.isfinite(values).all(axis=1))
    if bad.size:
        raise ValidationError(f"{path} line {numbers[bad[0]]}: non-finite value")
    prov = np.empty((n, width - n_float), dtype=np.int64)
    try:
        prov.flat[:] = ints
    except OverflowError:
        i = next(i for i, v in enumerate(ints) if not _INT64.min <= v <= _INT64.max)
        raise ValidationError(
            f"{path} line {numbers[i // prov.shape[1]]}: provenance value out of int64 range"
        ) from None
    return values, prov, numbers


def _load_general(lines, path):
    """``(points, weights, provenance, columns)`` of any rule CSV's ``lines``,
    their rows read by ``_rows``."""
    if not lines:
        raise ValidationError(f"{path}: empty rule file")
    cols = tuple(lines[0].split(","))
    if "weight" not in cols:
        raise ValidationError(f"{path}: rule file needs a 'weight' column")
    wi = cols.index("weight")
    values, prov, _ = _rows(lines[1:], path, len(cols), wi + 1, 2)
    # owned, contiguous copies, which a Rule adopts as they are
    return values[:, :wi].copy(), values[:, wi].copy(), prov, cols


def load_rule(path) -> Rule:
    """Read a rule CSV written by save_rule; the header becomes ``columns``.

    The file is read once.  Bytes holding only what save_rule writes are
    parsed in array passes (``_load_canonical``); the text of any other
    file, and every error report, goes through the general reader
    (``_load_general``), row by row.  Both give the same values.
    """
    data = _read(path)
    parsed = _load_canonical(data)
    if parsed is None:
        lines = _text(data, path).splitlines()
        del data  # the bytes are not held through the row loop
        parsed = _load_general(lines, path)
    points, weights, prov, cols = parsed
    try:
        # frozen parse buffers are adopted by Rule without a copy
        return Rule(_frozen(points), _frozen(weights), _frozen(prov), cols)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def load_trim_points(path):
    """Blank-line-separated blocks of 'u,v' rows -> list of point arrays;
    the rows are read by ``_rows``, as a rule file's are."""
    points, _, numbers = _rows(_text(_read(path), path).splitlines(), path, 2, 2, 1)
    if not numbers:
        raise ValidationError(f"{path}: no points found")
    return np.split(points, np.flatnonzero(np.diff(numbers) > 1) + 1)


def moment_csv_lines(mv: MomentVector):
    _kind(mv, "mv", MomentVector)
    header = ("a,b,value", "a,b,c,value")[mv.dim - 2]
    lines = [header]
    for exps, value in zip(mv.exponents, mv.values):
        lines.append(",".join([*(str(e) for e in exps), f"{value:.17g}"]))
    return lines


def save_moments(mv: MomentVector, path):
    """CSV of exponent columns plus the moment value."""
    _write(path, _lines(moment_csv_lines(mv)))


def bundled(name: str):
    """Path to a sample geometry file shipped inside the package; a name
    that is not one of its data files is refused."""
    root = importlib.resources.files("bezquad").joinpath("data")
    have = sorted(p.name for p in root.iterdir() if p.is_file())
    if name not in have:
        raise ValidationError(f"no bundled file {name!r}; available: {have}")
    return root.joinpath(name)
