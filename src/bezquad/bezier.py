"""Rational Bernstein-Bezier curves and tensor-product patches.

Evaluation goes through homogeneous coordinates: control points are lifted
to (w*x, ..., w), de Casteljau runs on the lifted polygon, and the result
is divided back.  Derivatives use the quotient rule on the homogeneous
value and its hodograph, so no separate derivative curve is ever formed.
Two kernels, ``_curve_point_derivative`` and ``_patch_point_normal``, do
all of it from control points and weights, and numpy warns nothing there:
a value that overflows float64 comes out inf or NaN, for a rule to refuse.

The parameter convention is the usual one: s = 0 is the first control
point, s = 1 the last.
"""

from __future__ import annotations

import math
import numbers
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

__all__ = [
    "RationalBezierCurve",
    "RationalBezierPatch",
    "eval_curve",
    "eval_curve_derivative",
    "eval_patch",
    "patch_normal",
    "bernstein_to_monomial",
    "monomial_to_bernstein",
    "control_bbox",
]


def _frozen(a: np.ndarray) -> np.ndarray:
    """Mark a freshly built array read-only, so a frozen type can adopt it."""
    a.flags.writeable = False
    return a


def _refuse(a, bad, name, what):
    """Raise ValidationError ``what, got <value>`` at the first True entry
    of the mask ``bad`` over ``a``, located at ``name[i]...``."""
    at = np.unravel_index(np.argmax(bad), a.shape)
    raise ValidationError(f"{what}, got {a[at]}", path=name + "".join(f"[{i}]" for i in at))


def _built(make, *args, what="the built rule"):
    """``make(*args)``, whose arrays were computed from finite inputs, so a
    value it refuses as not finite overflowed float64 on the way, which
    the error says of ``what``."""
    try:
        return make(*args)
    except ValidationError as exc:
        raise ValidationError(f"{what} overflowed float64: {exc}") from None


def _has_bool(value) -> bool:
    """Whether ``value`` is a bool or bool array or holds one in its lists or tuples."""
    nested = isinstance(value, (list, tuple)) and any(map(_has_bool, value))
    return nested or isinstance(value, bool) or getattr(value, "dtype", None) == bool


# arrays of at most this many values are checked for finiteness one Python
# float at a time, larger ones by np.isfinite.  On a 2-core x86 VM with
# Python 3.11 and numpy 2.4, the Python check of 1 to 8 values takes 0.4 to
# 0.8 us against numpy's 1.6 to 2.1 us, and the two cross between 32 and
# 48 values
_FEW = 32


def _adopt(value, name, dtype=float, shape=None) -> np.ndarray:
    """``value`` as a read-only array of ``dtype`` that nothing else can
    write, or ValidationError located at ``name``.

    An ndarray of ``dtype`` that is read-only down its ``.base`` chain to
    the array owning its data is kept as it is; anything else is copied,
    so a caller's writeable array is never aliased.  Text, bools, complex
    values, ragged input and other non-numbers are refused, as are integers
    too large for a double, values an integer ``dtype`` does not hold and,
    kept or copied, non-finite floats, the first located at ``name[i]...``;
    then any shape but ``shape``, whose first length None allows any length
    and whose ``()`` takes a scalar.  A plain ndarray of ``dtype``, and a
    Python float or a flat list or tuple of them, can fail none of the type
    checks, so they are only copied.
    """
    a = value if isinstance(value, np.ndarray) and value.dtype == dtype else None
    while isinstance(a, np.ndarray) and not ((flags := a.flags).writeable or flags.owndata):
        a = a.base
    if isinstance(a, np.ndarray) and not flags.writeable:
        out = value
    elif type(value) is np.ndarray and value.dtype == dtype:
        out = _frozen(value.astype(dtype))
    elif dtype is float and (
        type(value) is float
        or type(value) in (tuple, list) and all(type(v) is float for v in value)
    ):
        out = _frozen(np.array(value))
    else:
        try:
            arr = np.asarray(value)
        except (TypeError, ValueError):  # ragged: refused below as an object
            arr = np.asarray(None)
        kind, integral = arr.dtype.kind, np.dtype(dtype).kind == "i"
        # an object array holds Python integers beyond int64, or non-numbers;
        # [1, True] casts to int64, so only _has_bool sees a bool in a list,
        # or in an object array's items
        if kind not in "iufO" or (
            kind == "O" and not all(isinstance(v, numbers.Real) for v in arr.flat)
        ) or _has_bool(arr.tolist() if kind == "O" else value):
            what = "complex values are not supported" if kind == "c" else "not a numeric array"
            raise ValidationError(what, path=name)
        if integral and kind == "f":  # NaN or a float beyond int64 would cast with a warning
            arr = np.where(abs(arr) < 2.0**63, arr, 0.5)  # 0.5: refused below
        try:
            out = arr.astype(dtype)  # always a copy
        except (OverflowError, ValueError):
            out = None
        if out is None or (integral and not np.array_equal(out, arr)):
            what = f"values must be integers in {np.dtype(dtype)} range"
            raise ValidationError(what if integral else "integer too large for a double", path=name)
        _frozen(out)
    if out.dtype.kind == "f" and not (
        np.isfinite(out).all() if out.size > _FEW
        else all(map(math.isfinite, out.ravel().tolist()))
    ):
        _refuse(out, ~np.isfinite(out), name, "must be finite")
    rows = shape is not None and shape[:1] == (None,)  # any number of rows
    if shape is not None and (out.ndim, out.shape[rows:]) != (len(shape), shape[rows:]):
        raise ValidationError(f"need shape {shape}, got {out.shape}".replace("None", "n"), name)
    return out


def _items(value, name, kind=None, least=1) -> tuple:
    """The items of the ordered iterable ``value`` as a tuple, or
    ValidationError at ``name`` for no list (a non-iterable, text, bytes or
    a dict) or fewer than ``least`` items, or at ``name[i]`` for the first
    item that is not a ``kind``, a type or tuple of types."""
    try:
        items = None if isinstance(value, (str, bytes, dict)) else tuple(value)
    except TypeError:
        items = None
    if items is None:
        raise ValidationError(f"need a list, got {type(value).__name__}", name)
    if len(items) < least:
        what = f"need at least {least} item{'s' * (least > 1)}"
        raise ValidationError(f"{what}, got {len(items)}", name)
    for i, item in enumerate(items if kind else ()):
        if not isinstance(item, kind):
            _kind(item, f"{name}[{i}]", kind)
    return items


def _kind(value, name, kind):
    """Raise ValidationError ``need a X, got Y`` at ``name`` unless
    ``value`` is a ``kind``, a type or tuple of types."""
    if not isinstance(value, kind):
        want = " or ".join(k.__name__ for k in (kind if isinstance(kind, tuple) else (kind,)))
        raise ValidationError(f"need a {want}, got {type(value).__name__}", name)


def _control_net(net, axes, dims, shape):
    """Store ``net``'s points and weights back as read-only float arrays,
    or raise ValidationError at ``points``, ``weights`` or the first bad
    entry, such as ``weights[i]`` (``[i][j]`` on a patch), with its value.

    The points need ``axes`` control-index axes of length >= 2, spelled
    out by ``shape``, and one of ``dims`` coordinates.  All values must be
    finite, then all weights positive: that keeps the poles of W off [0, 1].
    """
    pts, wts = _adopt(net.points, "points"), _adopt(net.weights, "weights")
    object.__setattr__(net, "points", pts)
    object.__setattr__(net, "weights", wts)
    if pts.ndim != axes + 1 or pts.shape[-1] not in dims or min(pts.shape[:-1]) < 2:
        raise ValidationError(f"control points must be {shape}, got {pts.shape}", path="points")
    if wts.shape != pts.shape[:-1]:
        raise ValidationError(
            f"need weights of shape {pts.shape[:-1]}, got {wts.shape}", path="weights"
        )
    # finite by now, so a Python min of a few floats gives numpy's
    if min(wts.ravel().tolist()) <= 0:
        _refuse(wts, wts <= 0, "weights", "weight must be strictly positive")


@dataclass(frozen=True)
class RationalBezierCurve:
    """Degree-m rational curve given by m+1 control points and weights.

    Points may be planar (x, y) or parameter-space (u, v); both are plain
    2-column arrays.  Points and weights must be finite and weights strictly
    positive; a fault is located at ``points``, ``weights`` or the entry,
    such as ``weights[i]``.
    """

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        _control_net(self, 1, (2, 3), "(m+1, 2) or (m+1, 3) with m >= 1")

    @property
    def degree(self) -> int:
        return self.points.shape[0] - 1

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def reversed(self) -> "RationalBezierCurve":
        """Same trace, opposite traversal direction."""
        return RationalBezierCurve(self.points[::-1], self.weights[::-1])

    def start(self) -> np.ndarray:
        return self.points[0]

    def end(self) -> np.ndarray:
        return self.points[-1]


@dataclass(frozen=True)
class RationalBezierPatch:
    """Tensor-product rational patch of bi-degree (m, n) in 3-space.

    ``points`` has shape (m+1, n+1, 3): axis 0 follows u, axis 1 follows v.
    The net is checked as a curve's, a bad weight located at ``weights[i][j]``.
    """

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        _control_net(self, 2, (3,), "(m+1, n+1, 3) with m, n >= 1")

    @property
    def degree_u(self) -> int:
        return self.points.shape[0] - 1

    @property
    def degree_v(self) -> int:
        return self.points.shape[1] - 1

    def transposed(self) -> "RationalBezierPatch":
        """Swap the u and v roles; the normal direction flips."""
        return RationalBezierPatch(self.points.swapaxes(0, 1), self.weights.T)


def _homogeneous(points, weights):
    return np.concatenate([points * weights[..., None], weights[..., None]], axis=-1)


def _casteljau_pair(ctrl, t):
    """Run de Casteljau with one control polygon per parameter.

    ctrl has shape (m+1, ..., k): the control index first, then payload
    axes, then the point axis, so every step works on contiguous rows of
    k values; t has shape (k,).  The two survivors b0, b1 of level m-1
    give the value (1-t) b0 + t b1 and the hodograph m (b1 - b0), each
    (..., k).
    """
    m = ctrl.shape[0] - 1
    s = 1.0 - t
    b = ctrl
    for _ in range(m - 1):
        b = s * b[:-1] + t * b[1:]
    return s * b[0] + t * b[1], m * (b[1] - b[0])


def _columns(nets, k, which):
    """Control nets with the point axis last: ``nets`` broadcast to k
    points, or with ``which`` the stacked net ``nets[which[i]]`` for point i."""
    if which is None:
        return np.broadcast_to(nets[..., None], nets.shape + (k,))
    return np.take(nets.transpose(*range(1, nets.ndim), 0), which, axis=-1)


def _curve_point_derivative(points, weights, s, which=None):
    """Points and d/ds, each (dim, k), at parameters s on the curve with
    control ``points`` and ``weights``, or with ``which`` on stacks of
    them, s[i] lying on curve ``which[i]``."""
    s = np.asarray(s, dtype=float).ravel()
    with np.errstate(over="ignore", invalid="ignore"):
        value, hodo = _casteljau_pair(_columns(_homogeneous(points, weights), s.size, which), s)
        w = value[-1]
        point = value[:-1] / w
        # quotient rule: (X/W)' = (X' - (X/W) W') / W
        return point, (hodo[:-1] - point * hodo[-1]) / w


def _groups(shapes) -> list:
    """The indices of the items of each distinct shape, shapes in the order
    they first occur."""
    groups: dict = {}
    for i, shape in enumerate(shapes):
        groups.setdefault(shape, []).append(i)
    return list(groups.values())


def _batches(shapes, owner):
    """One batch per distinct shape of the items: the item indices, the
    rows of ``owner`` (each row's item index) that belong to them, and each
    such row's position among those items.  When every item has one shape,
    the one batch takes every row: ``slice(None)`` and ``owner`` itself."""
    groups = _groups(shapes)
    if len(groups) == 1:
        yield groups[0], slice(None), owner
        return
    for members in groups:
        slot = np.full(len(shapes), -1)
        slot[members] = np.arange(len(members))
        sel = np.flatnonzero(slot[owner] >= 0)
        yield members, sel, slot[owner[sel]]


def _on_curve(curve, s, part):
    """The points (``part`` 0) or derivatives (1) of ``curve`` at s."""
    _kind(curve, "curve", RationalBezierCurve)
    s = _adopt(s, "s")
    out = _curve_point_derivative(curve.points, curve.weights, s)[part]
    return out[:, 0] if s.ndim == 0 else out.T


def eval_curve(curve: RationalBezierCurve, s) -> np.ndarray:
    """Evaluate the rational curve at parameter s (scalar or array).

    >>> arc = RationalBezierCurve([(1, 0), (1, 1), (0, 1)],
    ...                           [1, 0.5 * math.sqrt(2), 1])
    >>> bool(np.allclose(eval_curve(arc, 0.5), [2**-0.5, 2**-0.5]))
    True
    """
    return _on_curve(curve, s, 0)


def eval_curve_derivative(curve: RationalBezierCurve, s) -> np.ndarray:
    """Derivative of the mapped (projected) curve with respect to s."""
    return _on_curve(curve, s, 1)


def _patch_point_normal(points, weights, u, v, which=None):
    """Mapped points and unnormalized normals d/du x d/dv, each (3, k), at
    paired (u, v) arrays on the patch with control ``points`` and
    ``weights``, or with ``which`` on stacks of nets of one shape, point i
    lying on net ``which[i]``."""
    u = np.asarray(u, dtype=float).ravel()
    v = np.asarray(v, dtype=float).ravel()
    with np.errstate(over="ignore", invalid="ignore"):
        row, row_du = _casteljau_pair(_columns(_homogeneous(points, weights), u.size, which), u)
        s_h, sv_h = _casteljau_pair(row, v)
        su_h, _ = _casteljau_pair(row_du, v)
        w = s_h[3]
        point = s_h[:3] / w
        du = (su_h[:3] - point * su_h[3]) / w
        dv = (sv_h[:3] - point * sv_h[3]) / w
        # np.cross's formula, one component at a time on contiguous rows
        normal = np.empty_like(point)
        normal[0] = du[1] * dv[2] - du[2] * dv[1]
        normal[1] = du[2] * dv[0] - du[0] * dv[2]
        normal[2] = du[0] * dv[1] - du[1] * dv[0]
    return point, normal


def _on_patch(patch, u, v, part):
    """The points (``part`` 0) or normals (1) of ``patch`` at paired (u, v)."""
    _kind(patch, "patch", RationalBezierPatch)
    u = _adopt(u, "u")
    v = _adopt(v, "v", shape=u.shape)
    out = _patch_point_normal(patch.points, patch.weights, u, v)[part]
    return out[:, 0] if u.ndim == 0 else out.T


def eval_patch(patch: RationalBezierPatch, u, v) -> np.ndarray:
    """Evaluate the patch at paired parameter arrays (or scalars)."""
    return _on_patch(patch, u, v, 0)


def patch_normal(patch: RationalBezierPatch, u, v) -> np.ndarray:
    """Unnormalized normal d/du x d/dv of the mapped patch.

    The magnitude is the area scale factor of the parametrization; the
    direction depends on the (u, v) handedness and is not unitized here.
    """
    return _on_patch(patch, u, v, 1)


_CONDITIONING_DEGREE = 20


def _warn(message):
    """bezquad's one warning path: a UserWarning filed under the innermost
    frame outside the package, the caller's line however deep it arose."""
    level, frame = 1, sys._getframe()
    while frame is not None and frame.f_globals.get("__package__") == __package__:
        level, frame = level + 1, frame.f_back
    warnings.warn(message, stacklevel=level)


def _warn_if_high_degree(n):
    if n > _CONDITIONING_DEGREE:
        _warn(f"basis conversion at degree {n} amplifies rounding by roughly 10^{n // 2}")


def _basis_change(coeffs, entry):
    """``mat @ coeffs`` for the (n+1) x (n+1) lower-triangular matrix with
    ``mat[i, j] = entry(n, i, j)``, a fresh array of the shape of
    ``coeffs``: extra axes pass through.  A result that overflows float64
    is refused as such, at its first entry that does."""
    coeffs = _adopt(coeffs, "coeffs")
    if coeffs.ndim == 0 or not coeffs.size:
        raise ValidationError(f"need a nonempty shape (n+1, ...), got {coeffs.shape}", "coeffs")
    n = coeffs.shape[0] - 1
    _warn_if_high_degree(n)
    mat = np.zeros((n + 1, n + 1))
    for i in range(n + 1):
        for j in range(i + 1):
            mat[i, j] = entry(n, i, j)
    with np.errstate(over="ignore", invalid="ignore"):
        out = (mat @ coeffs.reshape(n + 1, -1)).reshape(coeffs.shape)
    if not np.isfinite(out).all():
        _built(_adopt, out, "coeffs", what="the basis change")
    return out


def bernstein_to_monomial(coeffs) -> np.ndarray:
    """Coefficients in the Bernstein basis -> monomial coefficients.

    ``coeffs`` may be a vector or an array whose first axis indexes the
    basis; extra axes (e.g. coordinates) pass through.  The conversion is
    exact in exact arithmetic but its conditioning grows like 10^(n/2).
    """
    return _basis_change(
        coeffs, lambda n, i, j: (-1) ** (i - j) * math.comb(n, i) * math.comb(i, j)
    )


def monomial_to_bernstein(coeffs) -> np.ndarray:
    """Monomial coefficients (ascending powers) -> Bernstein coefficients."""
    return _basis_change(coeffs, lambda n, i, j: math.comb(i, j) / math.comb(n, j))


def _lengths(vectors):
    """The length of each column of the (d, k) ``vectors``: the plain
    norm's, or where its squares overflow (callers quiet numpy), ``np.hypot``'s,
    which is inf only where the length is."""
    out = np.linalg.norm(vectors, axis=0)
    big = ~np.isfinite(out)
    if big.any():
        out[big] = np.hypot.reduce(vectors[:, big], axis=0)
    return out


def _closure_half_gaps(curves):
    """Half the distance from each curve's end to the next curve's start,
    the last curve wrapping around to the first, as one array.

    Callers compare it with half their tolerance.  Halving the coordinates
    first keeps their differences finite up to the float limit, and
    ``np.hypot`` keeps the lengths from overflowing their squares.
    """
    ends = np.array([c.points[-1] for c in curves]) / 2
    starts = np.array([c.points[0] for c in curves[1:] + curves[:1]]) / 2
    return np.hypot.reduce(ends - starts, axis=1)


def _closed_chain(curves, name, half_tol) -> tuple:
    """The items of ``curves``, taken by ``_items``, refused at ``name[j]``
    unless each is planar, then at ``name`` unless each ends within twice
    ``half_tol`` (or ``half_tol(curves)``) of where the next, or the first, starts."""
    curves = _items(curves, name, RationalBezierCurve)
    for j, c in enumerate(curves):
        if c.dim != 2:
            raise ValidationError(f"need a planar curve, got dimension {c.dim}", f"{name}[{j}]")
    half_tol = half_tol(curves) if callable(half_tol) else half_tol
    half_gaps = _closure_half_gaps(curves)
    wide = half_gaps > half_tol  # a NaN gap compares False: curves refuse NaN
    if wide.any():
        j = int(np.argmax(wide))
        k = (j + 1) % len(curves)
        raise ValidationError(
            f"curve {j} ends at {tuple(curves[j].end().tolist())} but curve {k} starts at "
            f"{tuple(curves[k].start().tolist())} (gap {2 * float(half_gaps[j]):.3e}, "
            f"tolerance {2 * half_tol:.3e})",
            name,
        )
    return curves


def _collect_control_points(obj, out, name):
    if isinstance(obj, (RationalBezierCurve, RationalBezierPatch)):
        out.append(obj.points.reshape(-1, obj.points.shape[-1]))
        return
    # "patch" first: a trimmed patch boxes its 3D net, not its 2D trim loops
    attr = next((a for a in ("patch", "patches", "loops", "segments") if hasattr(obj, a)), None)
    if attr is not None:
        _collect_control_points(getattr(obj, attr), out, f"{name}.{attr}")
    elif isinstance(obj, (list, tuple)):
        for i, item in enumerate(obj):
            _collect_control_points(item, out, f"{name}[{i}]")
    else:
        _kind(obj, name, (RationalBezierCurve, RationalBezierPatch, list))


def control_bbox(obj) -> tuple[np.ndarray, np.ndarray]:
    """The corners ``(lo, hi)``, two read-only arrays, of the axis-aligned
    box of every control point reachable from ``obj``.

    Accepts a curve, a patch, a trim loop, a region or solid, or any
    nesting of lists of these.  The mapped geometry always lies inside
    this box (convex hull property), so it bounds quadrature points too:

    >>> arc = RationalBezierCurve([(1, 0), (1, 1), (0, 1)],
    ...                           [1, 0.5 * math.sqrt(2), 1])
    >>> lo, hi = control_bbox(arc)
    >>> lo.tolist(), hi.tolist()
    ([0.0, 0.0], [1.0, 1.0])
    """
    chunks: list[np.ndarray] = []
    _collect_control_points(obj, chunks, "obj")
    if not chunks:
        raise ValidationError("no control points found")
    if len({c.shape[1] for c in chunks}) != 1:
        raise ValidationError("mixed 2D and 3D geometry in one bounding box")
    pts = np.vstack(chunks)
    return _frozen(pts.min(axis=0)), _frozen(pts.max(axis=0))
