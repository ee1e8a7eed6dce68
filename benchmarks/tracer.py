"""In-memory span tracer that wraps bezquad's public functions from outside.

``Tracer.install`` replaces each public function of every layer module at
every place the package binds it: ``bezquad.quad1d.rational_rule``, the
``rational_rule`` name imported into ``bezquad.planar``, the package-level
re-export, and so on.  Calls made through any of those names open a span
(name, start, end, parent).  ``layer_metrics`` turns the spans into the
per-layer numbers the benchmark reports.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import time
import types

LAYERS = (
    "bezier",
    "quad1d",
    "planar",
    "surface",
    "volume",
    "moments",
    "io",
    "expr",
    "trimfit",
    "shapes",
    "cli",
)

ROOT = "op"


def chebyshev_nodes(n: int):
    """First-kind Chebyshev points on (0, 1), the nodes a square
    rational_rule solve returns; anything else was a fallback."""
    return [0.5 * (1.0 - math.cos((2 * i + 1) * math.pi / (2 * n))) for i in range(n)]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self._seen_poles: set = set()

    # -- spans -----------------------------------------------------------

    def open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def inside(self, name: str) -> bool:
        return any(self.names[j] == name for j in self._stack)

    def _wrap(self, name, fn):
        hook = _HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(i)
            if hook is not None:
                result = hook(tracer, args, kwargs, result)
            return result

        return traced

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        import bezquad.cli  # noqa: F401  (cli is not imported by the package)

        modules = [
            m for n, m in sys.modules.items() if n == "bezquad" or n.startswith("bezquad.")
        ]
        for layer in LAYERS:
            mod = sys.modules[f"bezquad.{layer}"]
            for attr in getattr(mod, "__all__", None) or ["main"]:
                fn = getattr(mod, attr)
                if not isinstance(fn, types.FunctionType) or fn.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for m in modules:
                    for key, val in list(vars(m).items()):
                        if val is fn:
                            self._patched.append((m, key, fn))
                            setattr(m, key, wrapper)

    def uninstall(self) -> None:
        for m, key, fn in reversed(self._patched):
            setattr(m, key, fn)
        self._patched.clear()

    # -- results ---------------------------------------------------------

    def self_times(self):
        """Per-span self time: duration minus the durations of its children."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        own = list(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= dur[i]
        return dur, own


# Hooks run after a span closes and may replace the result.  They record
# counts that the span times alone cannot give.


def _rational_rule(tr, args, kwargs, rule):
    poles = args[0] if args else kwargs["poles"]
    degree = args[1] if len(args) > 1 else kwargs.get("poly_degree", 0)
    key = (poles.poles, degree)
    tr.count("quad1d.rational_rule.repeats", key in tr._seen_poles)
    tr._seen_poles.add(key)
    n = poles.total_multiplicity + degree + 1
    cheb = chebyshev_nodes(n)
    square = len(rule) == n and all(
        abs(float(a) - b) <= 1e-15 for a, b in zip(rule.nodes, cheb)
    )
    tr.count("quad1d.rational_rule.fallbacks", not square)
    return rule


def _eval_curve(tr, args, kwargs, out):
    s = args[1] if len(args) > 1 else kwargs["s"]
    tr.count("bezier.curve_points", getattr(s, "size", 1))
    return out


def _planar_rule(tr, args, kwargs, rule):
    tr.count("planar.rule_points", len(rule))
    return rule


def _surface_rule(tr, args, kwargs, rule):
    tr.count("surface.degenerate_points", rule.degenerate_count)
    return rule


def _volume_rule(tr, args, kwargs, rule):
    tr.count("volume.volume_rule.points", len(rule))
    tr.count("volume.zero_weights", int((rule.weights == 0.0).sum()))
    if tr.inside("moments.geometric_moments"):
        tr.count("moments.volume_rules", 1)
    return rule


def _geometric_moments(tr, args, kwargs, mv):
    if mv.dim == 3:
        tr.count("moments.solid_calls", 1)
    return mv


def _rule_csv_lines(tr, args, kwargs, lines):
    tr.count("io.bytes_written", sum(map(len, lines)) + len(lines))
    return lines


def _load_rule(tr, args, kwargs, rule):
    tr.count("io.bytes_read", os.path.getsize(args[0] if args else kwargs["path"]))
    return rule


def _to_callable(tr, args, kwargs, f):
    @functools.wraps(f)
    def evaluated(*a, **k):
        i = tr.open("expr.eval")
        try:
            return f(*a, **k)
        finally:
            tr.close(i)

    return evaluated


_HOOKS = {
    "quad1d.rational_rule": _rational_rule,
    "bezier.eval_curve": _eval_curve,
    "planar.spectral_rule": _planar_rule,
    "planar.spectral_pe_rule": _planar_rule,
    "surface.surface_rule": _surface_rule,
    "surface.untrimmed_rule": _surface_rule,
    "volume.volume_rule": _volume_rule,
    "moments.geometric_moments": _geometric_moments,
    "io.rule_csv_lines": _rule_csv_lines,
    "io.load_rule": _load_rule,
    "expr.to_callable": _to_callable,
}

# Span names whose summed self time is reported as ``<name>.self_ms``.
# ``op`` is the root span around each op, so its self time is the
# benchmark's own work: exact values, checks, the digest, and numpy code
# that applies a rule inside the timed region.
SELF_MS = (
    "quad1d.rational_rule",
    "quad1d.weight_poly_roots",
    "quad1d.gauss_legendre",
    "bezier.eval_curve",
    "bezier.eval_curve_derivative",
    "planar.spectral_pe_rule",
    "planar.spectral_rule",
    "planar.integrate2d",
    "surface.surface_rule",
    "surface.untrimmed_rule",
    "surface.parametric_area_rule",
    "surface.surface_integrate",
    "volume.volume_rule",
    "moments.geometric_moments",
    "moments.moment_fit_weights",
    "io.rule_csv_lines",
    "io.load_rule",
    "io.load_solid",
    "io.load_region",
    "expr.parse",
    "expr.to_callable",
    "expr.eval",
    "trimfit.fit_trim_curves",
    "shapes.build",
    "cli.main",
    ROOT,
)

# Every per-layer metric: name -> (unit, better).  Sums cover one traced
# run, which repeats the op list of the untraced run before it.
PER_LAYER = {
    **{f"{n}.self_ms": ("ms", "lower") for n in SELF_MS},
    "quad1d.rational_rule.calls": ("count", "lower"),
    "quad1d.rational_rule.repeat_frac": ("ratio", "higher"),
    "quad1d.rational_rule.fallback_frac": ("ratio", "lower"),
    "bezier.curve_points": ("count", "lower"),
    "planar.rule_points": ("count", "lower"),
    "surface.degenerate_points": ("count", "lower"),
    "volume.volume_rule.points": ("count", "lower"),
    "volume.zero_weight_frac": ("ratio", "lower"),
    "moments.volume_rules_per_call": ("ratio", "lower"),
    "io.bytes_written": ("bytes", "lower"),
    "io.bytes_read": ("bytes", "lower"),
    "io.write_MBps": ("MB/s", "higher"),
    "io.read_MBps": ("MB/s", "higher"),
    "trace.ops": ("count", "higher"),
    "trace.ops_per_s_untraced": ("1/s", "higher"),
    "trace.ops_per_s_traced": ("1/s", "higher"),
    "trace.overhead_frac": ("ratio", "lower"),
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tr: Tracer) -> dict:
    """Per-layer numbers from the spans and counts of one traced run
    (everything in PER_LAYER except the trace.* run comparison)."""
    dur, own = tr.self_times()
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    selfs: dict[str, float] = {}
    for name, d, o in zip(tr.names, dur, own):
        if name.startswith("shapes."):
            name = "shapes.build"
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + d
        selfs[name] = selfs.get(name, 0.0) + o
    c = lambda key: tr.counts.get(key, 0)
    out = {f"{n}.self_ms": 1e3 * selfs.get(n, 0.0) for n in SELF_MS}
    rr_calls = calls.get("quad1d.rational_rule", 0)
    points = c("volume.volume_rule.points")
    written, read = c("io.bytes_written"), c("io.bytes_read")
    out.update(
        {
            "quad1d.rational_rule.calls": rr_calls,
            "quad1d.rational_rule.repeat_frac": _ratio(c("quad1d.rational_rule.repeats"), rr_calls),
            "quad1d.rational_rule.fallback_frac": _ratio(
                c("quad1d.rational_rule.fallbacks"), rr_calls
            ),
            "bezier.curve_points": c("bezier.curve_points"),
            "planar.rule_points": c("planar.rule_points"),
            "surface.degenerate_points": c("surface.degenerate_points"),
            "volume.volume_rule.points": points,
            "volume.zero_weight_frac": _ratio(c("volume.zero_weights"), points),
            "moments.volume_rules_per_call": _ratio(
                c("moments.volume_rules"), c("moments.solid_calls")
            ),
            "io.bytes_written": written,
            "io.bytes_read": read,
            # formatting throughput: the join and write in cli._emit count
            # toward cli.main, which has no public function below it
            "io.write_MBps": _ratio(written / 1e6, total.get("io.rule_csv_lines", 0.0)),
            "io.read_MBps": _ratio(read / 1e6, total.get("io.load_rule", 0.0)),
            "trace.ops": calls.get(ROOT, 0),
        }
    )
    return out
