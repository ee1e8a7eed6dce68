"""bezquad benchmark: closed-loop workloads checked against exact values.

    python3 benchmarks/run.py --workload planar|solid|cli|all --seed N \\
        --seconds S --trace 0|1

Run from a checkout: bezquad is imported from its ``src`` directory, never
from an installed copy.  Each workload runs in fresh interpreters (see
child.py) with OPENBLAS/OMP/MKL threads pinned to 1.

``--trace 0`` prints the end-to-end metrics: setup_s is the median of
SETUP_RUNS fresh-interpreter set-ups, the rest come from one timed run.
Times are scaled to reference units by a calibration kernel timed between
ops (calibrate.py); the raw times are in the report line.
``--trace 1`` runs the workload untraced for half of ``--seconds``, then
runs the same ops again with every public bezquad function wrapped, and
prints the per-layer metrics with the tracing overhead.  The last stdout line is one JSON object with
the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("planar", "solid", "cli")
SETUP_RUNS = 7  # set-ups per --trace 0 run, the timed one included; setup_s is their median
CHILD_TIMEOUT = 150

UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "accuracy_digits": "digits",
    "peak_rss_mb": "MB",
}


def child_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # compile bezquad afresh in every child so each set-up does the same work
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_child(args, workdir, *extra):
    cmd = [
        sys.executable,
        os.path.join(HERE, "child.py"),
        "--root", ROOT,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--workdir", workdir,
        *extra,
    ]
    t0 = time.monotonic()
    proc = subprocess.run(
        cmd + ["--t0", repr(t0)],
        env=child_env(),
        stdout=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT,
        check=False,
    )
    if proc.returncode != 0:
        sys.exit(f"benchmark child exited with {proc.returncode}: {' '.join(cmd)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment():
    import numpy  # the parent never imports bezquad; numpy only for the report

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except Exception:  # older numpy: no dict mode
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "blas_threads": 1,
    }


def run_workload(args, workdir):
    """Returns (correct, attempted, failed, metrics, report)."""
    if args.trace:
        # the untraced and the traced pass share the run's measuring time
        half = argparse.Namespace(**{**vars(args), "seconds": args.seconds / 2})
        base = run_child(half, workdir)
        traced = run_child(args, workdir, "--trace", "--ops", str(base["ops"]))
        layers = dict(traced["layers"])
        layers["trace.ops_per_s_untraced"] = base["ops_per_s"]
        layers["trace.ops_per_s_traced"] = traced["ops_per_s"]
        layers["trace.overhead_frac"] = traced["wall_s"] / base["wall_s"] - 1.0
        metrics = {k: {"value": layers[k], "unit": u} for k, (u, _) in tracer.PER_LAYER.items()}
        runs = [base, traced]
        consistent = base["digest"] == traced["digest"]
        report = {"untraced": base, "traced": {k: v for k, v in traced.items() if k != "layers"}}
    else:
        # set-ups on both sides of the timed run, so slow drift in the
        # machine's load moves the median less
        before = [run_child(args, workdir, "--setup-only") for _ in range(SETUP_RUNS // 2)]
        main = run_child(args, workdir)
        after = [run_child(args, workdir, "--setup-only") for _ in range(SETUP_RUNS // 2)]
        setup_samples = [s["setup_s"] for s in before + [main] + after]
        values = dict(main, setup_s=statistics.median(setup_samples))
        metrics = {k: {"value": values[k], "unit": u} for k, u in UNITS.items()}
        runs = [main]
        consistent = all(s["warmup_ok"] for s in before + after)
        report = {
            "run": main,
            "setup_samples_s": setup_samples,
            "setup_raw_samples_s": [s["raw"]["setup_s"] for s in before + [main] + after],
        }
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    correct = consistent and failed == 0 and all(r["self_checks_ok"] for r in runs)
    report["fail_frac"] = failed / attempted
    return correct, attempted, failed, metrics, report


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "bezquad", "__init__.py")):
        sys.exit(f"no bezquad sources under {os.path.join(ROOT, 'src')}")

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    env = environment()
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    work_root = os.path.join(ROOT, ".bench_work")
    for name in names:
        wargs = argparse.Namespace(**{**vars(args), "workload": name})
        workdir = os.path.join(work_root, f"{name}-{os.getpid()}")
        os.makedirs(workdir, exist_ok=True)
        try:
            correct, attempted, failed, metrics, report = run_workload(wargs, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
            try:
                os.rmdir(work_root)
            except OSError:
                pass
        cls = workloads.WORKLOADS[name]
        report.update(op_kind_shares=cls.shares, ranges=cls.ranges)
        print(json.dumps({"workload": name, "environment": env, "report": report}))
        for key, m in metrics.items():
            print(f"{name:7s} {key:42s} {m['value']:>16.6g} {m['unit']}")
        print(f"{name:7s} {'fail_frac':42s} {report['fail_frac']:>16.6g} ratio")
        prefix = f"{name}." if len(names) > 1 else ""
        total["correct"] = total["correct"] and correct
        total["attempted"] += attempted
        total["failed"] += failed
        total["metrics"].update({prefix + k: v for k, v in metrics.items()})
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
