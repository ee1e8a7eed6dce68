"""Checks on the benchmark itself (not on bezquad).

    PYTHONPATH=src python3 -m pytest -q benchmarks/tests
"""

import json
import os
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import bezquad as bq  # noqa: E402

import child  # noqa: E402
import exact  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_same_ops(name):
    cls = workloads.WORKLOADS[name]
    first = json.dumps(cls.ops(7, 150))
    assert json.dumps(cls.ops(7, 150)) == first
    assert json.dumps(cls.ops(8, 150)) != first


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_cycle_mix_matches_stated_shares(name):
    cls = workloads.WORKLOADS[name]
    cycle = next(cls.cycles(3))
    counts = {}
    for op in cycle:
        counts[op["kind"]] = counts.get(op["kind"], 0) + 1
    if name == "cli":
        writes = sum(v for k, v in counts.items() if not k.startswith("integrate"))
        counts = {k: v for k, v in counts.items() if k.startswith("integrate")}
        counts["writes"] = writes
        shares = {
            "writes": 1.0 - sum(v for k, v in cls.shares.items() if k.startswith("integrate")),
            **{k: v for k, v in cls.shares.items() if k.startswith("integrate")},
        }
    else:
        shares = cls.shares
    assert {k: v / len(cycle) for k, v in counts.items()} == pytest.approx(shares)


def test_planar_repeated_weight_share():
    ops = workloads.Planar.ops(11, 300)
    canonical = sum(op["region"]["scales"] is None for op in ops)
    assert canonical / len(ops) == workloads.PLANAR_CANONICAL / workloads.PLANAR_CYCLE


def test_cli_reads_follow_their_writes():
    # each write is followed by a read of the write before it, whose slot
    # the write did not touch
    writes = [workloads.Cli.warmup_write()]
    reads = 0
    for op in workloads.Cli.ops(5, 120):
        if op["kind"] == "integrate-rule":
            assert op["of"] == writes[-2]
            assert op["of"]["slot"] != writes[-1]["slot"]
            reads += 1
        elif op["kind"] != "integrate-model":
            writes.append(op)
    assert reads == len(writes) - 1


def test_exact_helpers_match_high_order_rules():
    checks = exact.self_checks(bq)
    assert len(checks) == 9
    for name, err in checks:
        assert err <= child.SELF_CHECK_TOL, name


def _run(name, seed, n, workdir, tracer=None):
    w, warm_ok = child.prepare(name, bq, seed, str(workdir))
    assert warm_ok
    if tracer is not None:
        tracer.install()
    try:
        return child.run_ops(w, type(w).cycles(seed), 0.0, n, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()


@pytest.mark.parametrize("name, n", [("planar", child.DIGEST_OPS), ("solid", 40), ("cli", 12)])
def test_same_seed_gives_same_digest(name, n, tmp_path):
    a = _run(name, 4, n, tmp_path)
    b = _run(name, 4, n, tmp_path)
    assert a["failed"] == b["failed"] == 0
    assert a["digest"] == b["digest"]
    assert _run(name, 5, n, tmp_path)["digest"] != a["digest"]


def test_traced_self_times_add_up_to_wall(tmp_path):
    plain = _run("planar", 9, 90, tmp_path)
    tr = tracing.Tracer()
    traced = _run("planar", 9, 90, tmp_path, tr)
    assert traced["digest"] == plain["digest"]
    dur, own = tr.self_times()
    roots = [d for d, p in zip(dur, tr.parent) if p < 0]
    assert len(roots) == 90
    assert sum(own) == pytest.approx(sum(roots), rel=1e-9)
    # Root spans cover each whole op, so only the loop's own bookkeeping
    # (digest, latency list) lies outside them.
    wall = traced["wall"]
    assert sum(own) <= wall
    overhead = max(0.0, wall - plain["wall"])
    assert wall - sum(own) <= overhead + 0.05 * wall
    names = set(tr.names)
    # a function is traced at every binding: the planar module calls its
    # own import of rational_rule, never the package-level name
    assert {"quad1d.rational_rule", "planar.spectral_pe_rule", "bezier.eval_curve"} <= names


def test_tracer_uninstall_restores_functions():
    original = bq.planar.rational_rule
    tr = tracing.Tracer()
    tr.install()
    assert bq.planar.rational_rule is not original
    assert bq.quad1d.rational_rule is bq.planar.rational_rule is bq.rational_rule
    tr.uninstall()
    assert bq.planar.rational_rule is original is bq.quad1d.rational_rule


def test_layer_metrics_cover_per_layer_list():
    tr = tracing.Tracer()
    i = tr.open(tracing.ROOT)
    time.sleep(0.001)
    tr.close(i)
    metrics = tracing.layer_metrics(tr)
    extra = {k for k in tracing.PER_LAYER if k.startswith("trace.") and k != "trace.ops"}
    assert set(metrics) == set(tracing.PER_LAYER) - extra


def test_benchmark_json_lists_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == tracing.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
