"""The three benchmark workloads: op generation, execution and checking.

Each workload is a closed loop: one client, one op at a time.  Ops come in
cycles whose op-kind counts are fixed and whose cost-setting sizes are
stratified, so a run of whole cycles has the same mix on every seed.  Op
generation is a pure function of (workload, seed); geometry and sizes are
plain JSON-able dicts.

An op has three steps.  ``prepare`` (untimed) computes the exact answer
from ``exact``; ``run`` (timed) calls bezquad's public functions; ``check``
(untimed) compares and returns the output bytes for the run digest.

All geometry sits in the open positive quadrant or octant, so monomial
integrals never cancel and a relative error is meaningful, except for the
two bundled solids, which are centred on the axes.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
import struct

import numpy as np

import exact

# Fixed tolerance on the relative error of each op kind.  Every counted op
# in these workloads is exact or converged to rounding at the sizes drawn,
# so 1e-11 is a loss of several digits, not truncation.
TOL = 1e-11
# Moment-fit weights come from least squares on a monomial Vandermonde
# matrix: their error (1e-13 to 1e-12 here) follows its conditioning, which
# varies with the drawn points, so fit ops count against this tolerance but
# stay out of accuracy_digits.
TOL_FIT = 1e-10


def strata(rng, lo, hi, m):
    """m integers covering [lo, hi] evenly, one draw per stratum, ascending.

    Zipping them with a fixed list of models pairs the same stratum with
    the same model in every cycle, so whole cycles cost the same on every
    seed."""
    span = hi - lo + 1
    return [lo + int((i + rng.random()) * span / m) for i in range(m)]


def _coef(rng):
    return rng.randint(1, 16) / 8.0


def _poly(rng, degree, dim=3, n_terms=3):
    """Polynomial with positive dyadic coefficients whose j-th term has total
    degree max(degree - j, 0), as (text, [(coef, exponents), ...]).

    Only the split of each degree among the variables is random, and every
    term names every variable, so the cost of parsing and evaluating it is
    the same on every seed."""
    terms = []
    for j in range(n_terms):
        d = max(degree - j, 0)
        cuts = sorted(rng.randint(0, d) for _ in range(dim - 1))
        exps = tuple(b - a for a, b in zip([0] + cuts, cuts + [d]))
        terms.append((_coef(rng), exps))
    text = " + ".join(
        "*".join([repr(coef)] + [f"{v}^{e}" for v, e in zip("xyz", exps)])
        for coef, exps in terms
    )
    return text, terms


def _pack(values):
    return struct.pack(f"<{len(values)}d", *values)


# ---------------------------------------------------------------------------
# geometry specs

# Repeated-weights share of planar regions: every other region keeps the
# canonical quarter-arc weights (1, sqrt2/2, 1).
PLANAR_CYCLE = 30
PLANAR_CANONICAL = PLANAR_CYCLE // 2


def region_spec(rng, shape, canonical):
    r = rng.uniform(0.25, 1.0)
    spec = {
        "shape": shape,
        "cx": 1.05 * r + rng.uniform(0.0, 1.0),
        "cy": 1.05 * r + rng.uniform(0.0, 1.0),
        "r": r,
    }
    n_arcs = 4
    if shape == "annulus":
        spec["r_in"] = r * rng.uniform(0.3, 0.7)
        n_arcs = 8
    # Mobius reparametrization (1, c, c^2) keeps the exact circle but gives
    # every arc its own pole set.
    spec["scales"] = None if canonical else [rng.uniform(0.5, 2.0) for _ in range(n_arcs)]
    return spec


def box_spec(rng):
    lo = [rng.uniform(0.05, 1.0) for _ in range(3)]
    hi = [a + rng.uniform(0.5, 2.0) for a in lo]
    return {"shape": "box", "lo": lo, "hi": hi}


def cylinder_spec(rng):
    r = rng.uniform(0.5, 1.5)
    return {
        "shape": "cylinder",
        "cx": 1.05 * r + rng.uniform(0.0, 1.0),
        "cy": 1.05 * r + rng.uniform(0.0, 1.0),
        "r": r,
        "z0": rng.uniform(0.05, 1.0),
        "h": rng.uniform(0.5, 2.0),
    }


BUNDLED = {
    "cube": ("cube.solid.json", {"shape": "box", "lo": [0.0, 0.0, 0.0], "hi": [1.0, 1.0, 1.0]}),
    "bundled-cylinder": (
        "cylinder.solid.json",
        {"shape": "cylinder", "cx": 0.0, "cy": 0.0, "r": 1.0, "z0": 0.0, "h": 1.0},
    ),
}


def n_curves(region):
    return 8 if region["shape"] == "annulus" else 4


def solid_points(solid, n, layer):
    """Closed-form point count of a rule over a box (6 untrimmed faces) or a
    cylinder (4 untrimmed sides, 2 caps trimmed by 4 arcs): n^2 per
    untrimmed patch and 4 n^2 per cap, times ``layer`` points per node."""
    per = 6 if solid["shape"] == "box" else 4 + 2 * 4
    return per * n * n * layer


# ---------------------------------------------------------------------------
# workload base


class Workload:
    """Holds the models a workload's ops use; subclasses define the ops."""

    name = ""
    # op kind -> share of a cycle, for the report
    shares: dict = {}
    ranges: dict = {}

    def __init__(self, bq, seed, workdir):
        import bezquad.cli  # not imported by the package itself

        self.bq = bq
        self.cli = bezquad.cli
        self.seed = seed
        self.workdir = workdir

    def setup(self):
        """Build or write the seeded models (timed as part of setup_s)."""

    def warmup_op(self):
        raise NotImplementedError

    @classmethod
    def cycles(cls, seed):
        """Endless sequence of op cycles; a pure function of the seed."""
        state = cls.initial_state(seed)
        c = 0
        while True:
            yield cls.cycle(random.Random(f"{cls.name}:{seed}:{c}"), state)
            c += 1

    @classmethod
    def initial_state(cls, seed):
        return {}

    @classmethod
    def ops(cls, seed, n):
        """The first n ops of the stream."""
        out = []
        for cycle in cls.cycles(seed):
            out.extend(cycle)
            if len(out) >= n:
                return out[:n]

    def execute(self, op, timer):
        """Prepare, run under ``timer`` (a context manager), check.

        Returns (rel_error, tolerance, counted_in_accuracy, output_bytes).
        """
        prep = getattr(self, f"prepare_{op['kind'].replace('-', '_')}")(op)
        run = getattr(self, f"run_{op['kind'].replace('-', '_')}")
        with timer:
            result = run(op, prep)
        return self.check(op, prep, result)

    def check(self, op, prep, result):
        """Default: result and prep["exact"] are matching float lists;
        prep may override the tolerance and leave the op out of
        accuracy_digits."""
        err = max(
            exact.rel_error(g, e, s)
            for g, e, s in zip(result, prep["exact"], prep["scale"])
        )
        return err, prep.get("tol", TOL), prep.get("counted", True), _pack(result)


# ---------------------------------------------------------------------------
# planar


class Planar(Workload):
    name = "planar"
    shares = {"pe": 15 / 30, "spectral": 6 / 30, "moments": 6 / 30, "fit": 3 / 30}
    ranges = {
        "pe.k": [2, 16],
        "spectral.n": [16, 64],
        "moments.p": [1, 8],
        "fit.p": [2, 8],
        "r": [0.25, 1.0],
        "reparametrization_c": [0.5, 2.0],
        "annulus_share": 14 / PLANAR_CYCLE,
        "canonical_weight_share": PLANAR_CANONICAL / PLANAR_CYCLE,
    }

    @classmethod
    def cycle(cls, rng, state):
        sizes = (
            [("pe", "k", k) for k in strata(rng, 2, 16, 15)]
            + [("spectral", "n", n) for n in strata(rng, 16, 64, 6)]
            + [("moments", "p", p) for p in strata(rng, 1, 8, 6)]
            + [("fit", "p", p) for p in strata(rng, 2, 8, 3)]
        )
        # canonical weights alternate and shapes go in pairs, so each op kind
        # sees both shapes and both weight kinds in fixed proportions
        shapes = (["disk", "disk", "annulus", "annulus"] * PLANAR_CYCLE)[:PLANAR_CYCLE]
        canon = [True, False] * (PLANAR_CYCLE // 2)
        ops = [
            {"kind": kind, size: value, "region": region_spec(rng, shape, c)}
            for (kind, size, value), shape, c in zip(sizes, shapes, canon)
        ]
        rng.shuffle(ops)
        return ops

    def warmup_op(self):
        rng = random.Random(f"planar:{self.seed}:warmup")
        return {"kind": "pe", "k": 4, "region": region_spec(rng, "disk", True)}

    def region(self, spec):
        bq = self.bq
        center = (spec["cx"], spec["cy"])
        annulus = spec["shape"] == "annulus"
        if spec["scales"] is None:
            if annulus:
                return bq.annulus_region(center, spec["r"], spec["r_in"])
            return bq.circle_region(center, spec["r"])
        loops = [bq.circle_loop(center, spec["r"])]
        if annulus:
            loops.append(bq.circle_loop(center, spec["r_in"], clockwise=True))
        scales = iter(spec["scales"])
        out = []
        for loop in loops:
            arcs = []
            for arc in loop:
                c = next(scales)
                arcs.append(
                    bq.RationalBezierCurve(arc.points, arc.weights * [1.0, c, c * c])
                )
            out.append(tuple(arcs))
        return bq.PlanarRegion(tuple(out))

    def _moments_prep(self, spec, exps):
        return {
            "exps": exps,
            "exact": [exact.region_moment(spec, a, b) for a, b in exps],
            "scale": [exact.region_scale(spec, a, b) for a, b in exps],
        }

    def prepare_pe(self, op):
        k = op["k"]
        return self._moments_prep(op["region"], [(a, k - a) for a in range(k, -1, -1)])

    def run_pe(self, op, prep):
        bq = self.bq
        rule = bq.spectral_pe_rule(self.region(op["region"]), op["k"])
        return [
            bq.integrate2d(rule, lambda x, y, a=a, b=b: x**a * y**b)
            for a, b in prep["exps"]
        ]

    def prepare_spectral(self, op):
        return {"exact": [exact.region_exp_integral(op["region"])], "scale": [1.0]}

    def run_spectral(self, op, prep):
        rule = self.bq.spectral_rule(self.region(op["region"]), op["n"], op["n"])
        return [self.bq.integrate2d(rule, lambda x, y: np.exp(x + y))]

    def prepare_moments(self, op):
        return self._moments_prep(op["region"], _exponents2(op["p"]))

    def run_moments(self, op, prep):
        return self.bq.geometric_moments(self.region(op["region"]), op["p"]).values.tolist()

    def prepare_fit(self, op):
        prep = self._moments_prep(op["region"], _exponents2(op["p"]))
        prep["moments"] = self.bq.MomentVector(op["p"], 2, prep["exact"])
        prep["tol"], prep["counted"] = TOL_FIT, False
        return prep

    def run_fit(self, op, prep):
        q = op["p"] + 2
        points = self.bq.spectral_rule(self.region(op["region"]), q, q).points
        weights, _ = self.bq.moment_fit_weights(points, prep["moments"])
        return points, weights

    def check(self, op, prep, result):
        if op["kind"] == "fit":
            points, weights = result
            x, y = points.T
            result = [float(np.dot(weights, x**a * y**b)) for a, b in prep["exps"]]
        return super().check(op, prep, result)


def _exponents2(p):
    """Graded-lex exponents of total degree <= p, the MomentVector order."""
    return [(a, d - a) for d in range(p + 1) for a in range(d, -1, -1)]


def _exponents3(p):
    return [
        (a, b, d - a - b)
        for d in range(p + 1)
        for a in range(d, -1, -1)
        for b in range(d - a, -1, -1)
    ]


# ---------------------------------------------------------------------------
# solid


class Solid(Workload):
    name = "solid"
    shares = {"volume": 8 / 20, "area": 4 / 20, "moments": 5 / 20, "fitted": 3 / 20}
    ranges = {
        "volume.n_box": [6, 24],
        "volume.n_cylinder": [16, 24],
        "volume.poly_term_degrees": [4, 3, 2],
        "area.n_box": [6, 24],
        "area.n_cylinder": [12, 24],
        "moments.p": [2, 6],
        "fitted.segments": [6, 16],
        "fitted.n": 16,
        "models": "per 17 volume/area/moments ops: 6 box, 6 cylinder, 2 bundled cube, 3 bundled cylinder",
    }

    @classmethod
    def cycle(cls, rng, state):
        def model(kind):
            if kind == "box":
                return box_spec(rng)
            if kind == "cylinder":
                return cylinder_spec(rng)
            return dict(BUNDLED[kind][1], bundled=kind)

        # Cylinders have trimmed caps, whose Gauss rules on rational arcs
        # reach rounding level only from order 16 (volume) or 12 (area).
        vol = list(zip(strata(rng, 6, 24, 4), ("box", "box", "cube", "box")))
        vol += zip(strata(rng, 16, 24, 4), ("cylinder", "cylinder", "bundled-cylinder", "cylinder"))
        area = list(zip(strata(rng, 6, 24, 2), ("box", "box")))
        area += zip(strata(rng, 12, 24, 2), ("cylinder", "cylinder"))
        moments = ["box", "cylinder", "cube", "bundled-cylinder", "bundled-cylinder"]
        rng.shuffle(moments)

        ops = []
        for n, kind in vol:
            text, terms = _poly(rng, 4)
            ops.append({"kind": "volume", "solid": model(kind), "n": n, "expr": text, "terms": terms})
        for n, kind in area:
            ops.append({"kind": "area", "solid": model(kind), "n": n})
        for p, kind in zip(strata(rng, 2, 6, 5), moments):
            ops.append({"kind": "moments", "solid": model(kind), "p": p})
        for s in strata(rng, 6, 16, 3):
            ops.append({"kind": "fitted", "solid": cylinder_spec(rng), "segments": s})
        rng.shuffle(ops)
        return ops

    def setup(self):
        bq = self.bq
        self.bundled = {k: bq.load_solid(bq.bundled(f)) for k, (f, _) in BUNDLED.items()}

    def warmup_op(self):
        return {"kind": "area", "solid": dict(BUNDLED["cube"][1], bundled="cube"), "n": 4}

    def solid(self, spec):
        bq = self.bq
        if "bundled" in spec:
            return self.bundled[spec["bundled"]]
        if spec["shape"] == "box":
            return bq.box_solid(spec["lo"], spec["hi"])
        return bq.cylinder_solid((spec["cx"], spec["cy"]), spec["r"], spec["z0"], spec["h"])

    def prepare_volume(self, op):
        spec = op["solid"]
        terms = op["terms"]
        moment = lambda a, b, c: exact.solid_moment(spec, a, b, c)
        scale = exact.poly_integral(terms, lambda a, b, c: exact.solid_scale(spec, a, b, c))
        return {"exact": [exact.poly_integral(terms, moment)], "scale": [scale]}

    def run_volume(self, op, prep):
        bq = self.bq
        n = op["n"]
        rule = bq.volume_rule(self.solid(op["solid"]), n, n, n)
        f = bq.to_callable(bq.parse(op["expr"]))
        x, y, z = rule.points.T
        return [float(np.dot(rule.weights, f(x, y, z)))]

    def prepare_area(self, op):
        return {"exact": [exact.solid_area(op["solid"])], "scale": [1.0]}

    def run_area(self, op, prep):
        ones = lambda x, y, z: np.ones_like(x)
        return [self.bq.surface_integrate(self.solid(op["solid"]).patches, ones, op["n"], op["n"])]

    def prepare_moments(self, op):
        spec = op["solid"]
        exps = _exponents3(op["p"])
        return {
            "exact": [exact.solid_moment(spec, *e) for e in exps],
            "scale": [exact.solid_scale(spec, *e) for e in exps],
        }

    def run_moments(self, op, prep):
        return self.bq.geometric_moments(self.solid(op["solid"]), op["p"]).values.tolist()

    def prepare_fitted(self, op):
        # Fitted cubic trims converge at fourth order in the segment count
        # (measured constant about 0.48); they are not exact, so their error
        # stays out of accuracy_digits.
        return {
            "exact": [exact.solid_volume(op["solid"])],
            "scale": [1.0],
            "tol": float(op["segments"]) ** -4,
            "counted": False,
        }

    def run_fitted(self, op, prep):
        spec = op["solid"]
        solid = self.bq.cylinder_solid_fitted(
            (spec["cx"], spec["cy"]), spec["r"], spec["z0"], spec["h"], segments=op["segments"]
        )
        return [float(self.bq.volume_rule(solid, 16, 16, 16).weights.sum())]


# ---------------------------------------------------------------------------
# cli

BIG_ORDER = 24  # 12 * 24^3 = 165,888 points on a cylinder
# Rounds of the 15 normal write/read pairs and 8 model integrations per
# cycle; the big pair comes once per cycle, so 116 ops.
ROUNDS = 3
CLI_CYCLE = 2 + ROUNDS * (2 * 15 + 8)


def cli_models(seed):
    """Seeded solid and region specs written to JSON during setup."""
    rng = random.Random(f"cli:{seed}:models")
    solids = {
        "box-a": box_spec(rng),
        "box-b": box_spec(rng),
        "cylinder-a": cylinder_spec(rng),
        "cylinder-b": cylinder_spec(rng),
        "cube": BUNDLED["cube"][1],
        "bundled-cylinder": BUNDLED["bundled-cylinder"][1],
    }
    regions = {
        "disk": region_spec(rng, "disk", True),
        "annulus": region_spec(rng, "annulus", True),
    }
    return solids, regions


class Cli(Workload):
    name = "cli"
    # Each write is read back by the next pair's read.
    shares = {
        "rule-volume": (1 + ROUNDS * 5) / CLI_CYCLE,
        "rule-surface": ROUNDS * 5 / CLI_CYCLE,
        "rule2d": ROUNDS * 5 / CLI_CYCLE,
        "integrate-rule": (1 + ROUNDS * 15) / CLI_CYCLE,
        "integrate-model": ROUNDS * 8 / CLI_CYCLE,
    }
    ranges = {
        "read_write_ratio": "46:46 rule-file reads to writes, plus 24 model reads per 116 ops",
        "rule-volume.n_box": [8, 10, 12, 14, 16],
        "rule-volume.big": "1 per 116 ops: cylinder at orders 24,24,24, 165888 points",
        "rule-surface.n": [8, 14, 20, 26, 32],
        "rule2d.spectral_n": [16, 40, 64],
        "rule2d.pe_k": [4, 12],
        "integrate-model.n_box": [8, 16],
        "integrate-model.n_cylinder": [16, 20],
        "integrate-model.poly_term_degrees": "solids 3, 2, 1; regions 6, 5, 4",
        "integrate-rule.poly_term_degrees": "volume 3, 2, 1; pe rule k, k-1",
    }

    @classmethod
    def initial_state(cls, seed):
        return {"prev": cls.warmup_write(), "pairs": 0}

    @staticmethod
    def warmup_write():
        return {"kind": "rule2d", "region": "disk", "mode": "spectral", "n": 16, "slot": 1}

    @classmethod
    def cycle(cls, rng, state):
        # Sizes are fixed lists paired with models in a fixed order, so every
        # cycle writes and reads the same number of points; the seed sets
        # geometry, integrands and op order.  Cylinder volume rules other
        # than the big one would need order 16 to integrate cubics to
        # rounding; they are left to the big case.
        items = []
        for _ in range(ROUNDS):
            items += [
                {"kind": "rule-volume", "solid": name, "n": n}
                for n, name in zip((8, 10, 12, 14, 16), ("box-a", "box-b", "cube", "box-a", "box-b"))
            ]
            surface = ("cube", "box-a", "cylinder-b", "box-b", "bundled-cylinder")
            items += [
                {"kind": "rule-surface", "solid": name, "n": n}
                for n, name in zip((8, 14, 20, 26, 32), surface)
            ]
            items += [
                {"kind": "rule2d", "region": region, "mode": "spectral", "n": n}
                for n, region in zip((16, 40, 64), ("annulus", "disk", "disk"))
            ]
            items += [
                {"kind": "rule2d", "region": region, "mode": "pe", "k": k}
                for k, region in zip((4, 12), ("annulus", "disk"))
            ]
            for n, name in zip((8, 16, 16, 20), ("box-a", "cube", "cylinder-b", "bundled-cylinder")):
                text, terms = _poly(rng, 3)
                items.append(
                    {"kind": "integrate-model", "solid": name, "n": n, "expr": text, "terms": terms}
                )
            for region in ("disk", "annulus", "disk", "annulus"):
                text, terms = _poly(rng, 6, dim=2)
                items.append({"kind": "integrate-model", "region": region, "expr": text, "terms": terms})
        rng.shuffle(items)
        # the big write leads each cycle so its read-back lands in the same cycle
        items.insert(0, {"kind": "rule-volume", "solid": "cylinder-a", "n": BIG_ORDER})
        ops = []
        for op in items:
            if op["kind"] == "integrate-model":
                ops.append(op)
                continue
            write = dict(op, slot=state["pairs"] % 2)
            ops.append(write)
            ops.append(cls.read_op(rng, state["prev"]))
            state["prev"] = write
            state["pairs"] += 1
        return ops

    @staticmethod
    def read_op(rng, written):
        """integrate --rule on the file ``written`` left, with an integrand
        the rule integrates exactly."""
        op = {"kind": "integrate-rule", "of": written}
        if written["kind"] == "rule-volume":
            op["expr"], op["terms"] = _poly(rng, 3)
        elif written["kind"] == "rule-surface":
            c = rng.randint(0, 2)
            op["expr"], op["terms"] = f"z^{c}" if c else "1", [(1.0, (0, 0, c))]
        elif written["mode"] == "spectral":
            op["expr"], op["terms"] = "exp(x + y)", None
        else:
            op["expr"], op["terms"] = _poly(rng, written["k"], dim=2, n_terms=2)
        return op

    # -- setup -------------------------------------------------------------

    def setup(self):
        bq = self.bq
        solids, regions = cli_models(self.seed)
        self.solids, self.regions = solids, regions
        self.paths = {}
        for name, spec in solids.items():
            if name in BUNDLED:
                self.paths[name] = str(bq.bundled(BUNDLED[name][0]))
                continue
            path = os.path.join(self.workdir, f"{name}.solid.json")
            if spec["shape"] == "box":
                solid = bq.box_solid(spec["lo"], spec["hi"])
            else:
                solid = bq.cylinder_solid((spec["cx"], spec["cy"]), spec["r"], spec["z0"], spec["h"])
            bq.save_solid(solid, path)
            self.paths[name] = path
        for name, spec in regions.items():
            path = os.path.join(self.workdir, f"{name}.region.json")
            center = (spec["cx"], spec["cy"])
            if spec["shape"] == "annulus":
                region = bq.annulus_region(center, spec["r"], spec["r_in"])
            else:
                region = bq.circle_region(center, spec["r"])
            bq.save_region(region, path)
            self.paths[name] = path

    def warmup_op(self):
        return self.warmup_write()

    def slot_path(self, slot):
        return os.path.join(self.workdir, f"rule-{slot}.csv")

    # -- ops ---------------------------------------------------------------

    def _main(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def execute(self, op, timer):
        kind = op["kind"]
        if kind == "integrate-rule":
            argv = ["integrate", "--rule", self.slot_path(op["of"]["slot"]), "--expr", op["expr"]]
        elif kind == "integrate-model":
            argv = ["integrate", "--expr", op["expr"]]
            if "solid" in op:
                argv += ["--model", self.paths[op["solid"]], "--orders", ",".join([str(op["n"])] * 3)]
            else:
                argv += ["--model", self.paths[op["region"]], "--pe"]
        else:
            argv = self.write_argv(op)
        with timer:
            code, out, err = self._main(argv)
        if code != 0:
            raise RuntimeError(f"bezquad {' '.join(argv)} exited {code}: {err.strip()}")
        if kind in ("integrate-rule", "integrate-model"):
            got = float(out)
            want, scale = self.expected(op)
            return exact.rel_error(got, want, scale), TOL, True, out.encode()
        with open(self.slot_path(op["slot"]), "rb") as fh:
            data = fh.read()
        rows = data.count(b"\n") - 1
        ok = self.rows_ok(op, rows)
        return (0.0 if ok else math.inf), TOL, False, out.encode() + data

    def write_argv(self, op):
        out = ["--out", self.slot_path(op["slot"])]
        if op["kind"] == "rule2d":
            region = ["--region", self.paths[op["region"]], "--mode", op["mode"]]
            size = ["--order", str(op["n"])] if op["mode"] == "spectral" else ["--degree", str(op["k"])]
            return ["rule2d"] + region + size + out
        n = op["n"]
        if op["kind"] == "rule-surface":
            return ["rule-surface", "--solid", self.paths[op["solid"]], "--orders", f"{n},{n}"] + out
        return ["rule-volume", "--solid", self.paths[op["solid"]], "--orders", f"{n},{n},{n}"] + out

    def rows_ok(self, op, rows):
        """Row count of a written rule against its closed-form point count."""
        if op["kind"] == "rule-volume":
            return rows == solid_points(self.solids[op["solid"]], op["n"], op["n"])
        if op["kind"] == "rule-surface":
            return rows == solid_points(self.solids[op["solid"]], op["n"], 1)
        curves = n_curves(self.regions[op["region"]])
        if op["mode"] == "spectral":
            return rows == curves * op["n"] * op["n"]
        # pe: each arc gets 2(k+3)+1 rational nodes, or twice that if its
        # solve fell back to least squares; ceil((k+1)/2) layer points each.
        k = op["k"]
        base = (2 * (k + 3) + 1) * math.ceil((k + 1) / 2)
        return rows % base == 0 and curves <= rows // base <= 2 * curves

    def expected(self, op):
        """Exact value and zero-fallback scale of an integrate op."""
        if op["kind"] == "integrate-rule":
            src = op["of"]
            if src["kind"] == "rule2d":
                spec = self.regions[src["region"]]
                if op["terms"] is None:
                    return exact.region_exp_integral(spec), 1.0
                return self._region_poly(spec, op["terms"])
            spec = self.solids[src["solid"]]
            if src["kind"] == "rule-surface":
                return exact.solid_surface_zpow(spec, op["terms"][0][1][2]), 1.0
            return self._solid_poly(spec, op["terms"])
        if "solid" in op:
            return self._solid_poly(self.solids[op["solid"]], op["terms"])
        return self._region_poly(self.regions[op["region"]], op["terms"])

    @staticmethod
    def _solid_poly(spec, terms):
        return (
            exact.poly_integral(terms, lambda a, b, c: exact.solid_moment(spec, a, b, c)),
            exact.poly_integral(terms, lambda a, b, c: exact.solid_scale(spec, a, b, c)),
        )

    @staticmethod
    def _region_poly(spec, terms):
        return (
            exact.poly_integral(terms, lambda a, b: exact.region_moment(spec, a, b)),
            exact.poly_integral(terms, lambda a, b: exact.region_scale(spec, a, b)),
        )


WORKLOADS = {w.name: w for w in (Planar, Solid, Cli)}
