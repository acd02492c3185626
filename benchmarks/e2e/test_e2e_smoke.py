"""Smoke tests of the end-to-end benchmark (not tier-1).

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Each workload runs at ``--scale 0.03`` in a subprocess, exactly as the
driver would run it; the self-time computation is unit-tested on
hand-built span trees.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import layers
import measure
import spantree
from run import ROOT, WORKLOAD_NAMES

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
IN_PROCESS = ("scr_hit", "scr_miss", "serve_batch_obs")


def processes_in_session(sid: int) -> list[str]:
    found = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[3]) == sid:
            found.append(f"{pid} ({fields[0]})")
    return found


def run_benchmark(workload: str, trace: int) -> dict:
    # Its own session, so that whatever outlives the command can be found.
    with subprocess.Popen(
        [sys.executable, RUN, "--workload", workload, "--seed", "3",
         "--seconds", "1", "--scale", "0.03", "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, start_new_session=True,
    ) as done:
        stdout, _ = done.communicate(timeout=170)
        left = processes_in_session(done.pid)
    assert left == [], f"{workload} left processes running: {left}"
    assert done.returncode == 0, stdout[-2000:]
    result = json.loads(stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    return result


def manifest() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def test_manifest_matches_the_code():
    m = manifest()
    assert [w["name"] for w in m["workloads"]] == list(WORKLOAD_NAMES)
    assert [(e["name"], e["unit"], e["better"]) for e in m["end_to_end"]] == (
        measure.END_TO_END
    )
    assert [(p["name"], p["unit"], p["better"]) for p in m["per_layer"]] == (
        layers.PER_LAYER
    )
    assert all(0 < e["bound"] <= 0.25 for e in m["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_end_to_end_run(workload):
    metrics = run_benchmark(workload, trace=0)["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == {
        name: unit for name, unit, _ in measure.END_TO_END
    }
    assert all(v["value"] > 0 for v in metrics.values())


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_traced_run(workload):
    metrics = run_benchmark(workload, trace=1)["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == layers.UNITS
    if workload in IN_PROCESS:
        assert abs(metrics["trace.unattributed_share_pct"]["value"]) <= 5.0
    spans = os.path.join(ROOT, ".bench_e2e", f"spans-{workload}.jsonl")
    with open(spans) as f:
        first = json.loads(f.readline())
    assert sorted(first) == [
        "end", "id", "name", "parent", "pass", "request", "start"
    ]


# -- self time on hand-built span trees -------------------------------------------


def span(name, start, end, parent=None):
    return [name, float(start), float(end), parent, 0]


def test_self_time_nested():
    root = span("request", 0, 10)
    outer = span("core.scr_process", 1, 9, root)
    inner = span("core.probe", 2, 6, outer)
    leaf = span("engine.recost", 3, 4, inner)
    assert spantree.self_times([root, outer, inner, leaf]) == [2, 4, 3, 1]


def test_self_time_siblings():
    parent = span("core.probe", 0, 10)
    first = span("engine.recost", 1, 3, parent)
    second = span("engine.recost", 5, 8, parent)
    assert spantree.self_times([parent, first, second]) == [5, 2, 3]


def test_self_time_overlapping_batch():
    # Two shard batches fanned out to two threads overlap in time: the
    # parent is charged only for what neither covers, and a child that
    # outlives its parent is clipped to it.
    parent = span("serving.process_many", 0, 10)
    left = span("serving.shard_batch", 1, 6, parent)
    right = span("serving.shard_batch", 4, 9, parent)
    late = span("serving.shard_batch", 9.5, 12, parent)
    selfs = spantree.self_times([parent, left, right, late])
    assert selfs == [10 - (8 + 0.5), 5, 5, 2.5]


def test_tracer_parents_pool_thread_spans_under_the_client_span():
    import threading

    tracer = spantree.Tracer()

    def work():
        return 1

    traced_work = tracer.traced(work, "serving.shard_batch")

    def client():
        thread = threading.Thread(target=traced_work)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()

    tracer.client_call(client)()
    root, child = tracer.spans
    assert root[spantree.NAME] == spantree.ROOT and root[spantree.PARENT] is None
    assert child[spantree.PARENT] is root and child[spantree.REQUEST] == 0
    metrics = layers.span_metrics(
        tracer.spans, root[spantree.END] - root[spantree.START], 1, {}, {}
    )
    assert set(metrics) <= set(layers.UNITS)
