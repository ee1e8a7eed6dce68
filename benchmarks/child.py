"""One benchmark process: set up a workload, run its ops, print one JSON line.

run.py starts this script in a fresh interpreter with BLAS threads pinned
and ``src`` on PYTHONPATH.  Modes:

* ``--setup-only``: import, set up, run the warm-up op, report setup_s.
* default: the same, then the timed closed loop for ``--seconds`` seconds
  of whole op cycles (at least MIN_OPS ops), then the exact-reference
  self-checks.  ``--ops N`` runs exactly the first N ops instead.
* ``--trace``: wrap bezquad's public functions and report per-layer
  numbers from the spans.

setup_s runs from ``--t0`` (the parent's time.monotonic() just before it
started this process; CLOCK_MONOTONIC is shared by all processes) to the
first timed op.  Reported times are in the reference units of calibrate.py;
the raw ones are kept under "raw".
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time
import warnings

import calibrate
import tracer as tracing

MIN_OPS = 100  # p90 then has at least ten samples above it
CALIBRATE_EVERY_S = 0.1  # wall time between calibration-kernel samples
SETUP_CALIBRATIONS = 60
DIGEST_OPS = MIN_OPS  # every run completes these, so their digest repeats
SELF_CHECK_TOL = 1e-12


class Timer:
    """Times the block an op's latency covers."""

    elapsed = 0.0

    def __enter__(self):
        self._t = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self._t
        return False


def import_bezquad(root):
    import bezquad

    src = os.path.join(root, "src", "")
    if not os.path.abspath(bezquad.__file__).startswith(src):
        sys.exit(f"bezquad imported from {bezquad.__file__}, not from {src}")
    return bezquad


def prepare(name, bq, seed, workdir):
    """Build the workload's models and run its warm-up op.

    Returns (workload, warm-up passed)."""
    import workloads

    w = workloads.WORKLOADS[name](bq, seed, workdir)
    w.setup()
    err, tol, _, _ = w.execute(w.warmup_op(), Timer())
    return w, err <= tol


def run_ops(w, ops_iter, seconds, fixed_ops, tracer):
    """Run whole cycles until ``seconds`` have passed and MIN_OPS ops are
    done, or exactly ``fixed_ops`` ops; collect latencies, errors, digest
    and calibration samples.  ``wall`` leaves out the calibration time."""
    lat, errs = [], []
    calib = [calibrate.kernel_ms()]
    calib_s = 0.0
    last_calib = time.perf_counter()
    kinds: dict[str, int] = {}
    failed = 0
    digest = hashlib.sha256()
    first_failure = None
    t_start = time.perf_counter()
    n = 0
    for cycle in ops_iter:
        for op in cycle:
            if fixed_ops is not None and n >= fixed_ops:
                break
            timer = Timer()
            span = tracer.open(tracing.ROOT) if tracer is not None else None
            try:
                err, tol, counted, out = w.execute(op, timer)
            except Exception as exc:  # an op that raises is a failed op
                err, tol, counted, out = math.inf, 0.0, False, b""
                first_failure = first_failure or f"{op['kind']}: {exc!r}"
            if tracer is not None:
                tracer.close(span)
            ok = err <= tol
            failed += not ok
            if not ok and first_failure is None:
                first_failure = f"{op['kind']}: error {err:.3e} > {tol:.1e} in {json.dumps(op)[:300]}"
            if ok and counted:
                errs.append(err)
            if n < DIGEST_OPS:
                digest.update(out)
            lat.append(timer.elapsed)
            kinds[op["kind"]] = kinds.get(op["kind"], 0) + 1
            n += 1
            if time.perf_counter() - last_calib >= CALIBRATE_EVERY_S:
                calib.append(calibrate.kernel_ms())
                calib_s += calib[-1] / 1e3
                last_calib = time.perf_counter()
        wall = time.perf_counter() - t_start - calib_s
        if fixed_ops is not None:
            if n >= fixed_ops:
                break
        elif wall >= seconds and n >= MIN_OPS:
            break
    return {
        "wall": time.perf_counter() - t_start - calib_s,
        "calib": calib,
        "lat": lat,
        "errs": errs,
        "failed": failed,
        "kinds": kinds,
        "digest": digest.hexdigest(),
        "first_failure": first_failure,
    }


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--root", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--ops", type=int)
    args = p.parse_args(argv)
    warnings.simplefilter("ignore")

    bq = import_bezquad(args.root)
    import exact

    w, warm_ok = prepare(args.workload, bq, args.seed, args.workdir)
    setup_raw = time.monotonic() - args.t0
    setup_s = setup_raw * calibrate.factor(
        [calibrate.kernel_ms() for _ in range(SETUP_CALIBRATIONS)]
    )
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "raw": {"setup_s": setup_raw}, "warmup_ok": warm_ok}))
        return 0

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    try:
        res = run_ops(w, type(w).cycles(args.seed), args.seconds, args.ops, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()

    checks = exact.self_checks(bq)
    lat_ms = sorted(1e3 * t for t in res["lat"])
    deciles = statistics.quantiles(lat_ms, n=10)
    worst = max(res["errs"], default=0.0)
    n = len(lat_ms)
    f = calibrate.factor(res["calib"])
    out = {
        "setup_s": setup_s,
        "ops": n,
        "wall_s": res["wall"] * f,
        "ops_per_s": n / (res["wall"] * f),
        "op_p50_ms": statistics.median(lat_ms) * f,
        "op_p90_ms": deciles[8] * f,
        "to_reference": f,
        "calibrations": len(res["calib"]),
        "raw": {
            "setup_s": setup_raw,
            "wall_s": res["wall"],
            "ops_per_s": n / res["wall"],
            "op_p50_ms": statistics.median(lat_ms),
            "op_p90_ms": deciles[8],
        },
        "op_samples_above_p90": sum(1 for t in lat_ms if t > deciles[8]),
        "op_time_s": sum(res["lat"]),
        "accuracy_digits": 16.0 if worst == 0.0 else min(16.0, -math.log10(worst)),
        "worst_rel_error": worst,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed": res["failed"] + (not warm_ok),
        "attempted": n + 1,
        "first_failure": res["first_failure"],
        "op_kinds": res["kinds"],
        "digest": res["digest"],
        "digest_ops": min(n, DIGEST_OPS),
        "self_checks": {name: err for name, err in checks},
        "self_checks_ok": all(err <= SELF_CHECK_TOL for _, err in checks),
    }
    if tracer is not None:
        out["layers"] = tracing.layer_metrics(tracer)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
