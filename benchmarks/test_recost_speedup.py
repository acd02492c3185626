"""Appendix B — the Recost API's speed and the shrunken memo's size.

Paper: a Recost call takes 2-10ms versus optimizer calls up to two
orders of magnitude slower, and pruning the memo to the winning plan
shrinks it by ~70% or more for complex queries.  This benchmark
measures our implementation's actual ratio per database.

The paper's 10-100x is a property of SQL Server's optimizer, not a goal
of this repo: a cache miss pays for the optimizer call, so a faster
search is a plain win even though it lowers the wall-clock ratio.  What
Recost's advantage rests on is work, not the optimizer's speed: the
search prices every expression of the memo, Recost re-prices only the
winning plan's nodes.  The per-template wall-clock ratio is printed as
measured; both the order-of-magnitude floor and the "far
larger on the deepest join graph" claim are asserted on that work ratio,
which no change to the search's speed or to machine load can move.

This module also hosts the Recost kernel gate: production
``ShrunkenMemo.recost`` (one compiled function per plan) against the
interpreted walk it replaced (``tests/reference_recost.py``), per call,
over the plans the ``scr_hit`` and ``scr_miss`` request-latency
workloads cache.  It must be at least 2x faster (best of three passes
per plan), and the run is appended to ``BENCH_recost.json`` at the repo
root when ``BENCH_RECOST_JSON=1``.
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path

from check_trajectory import append_run, check_regressions, validate_document
from conftest import run_once
from reference_recost import recost_walk
from repro.catalog.tpcds import tpcds_schema
from repro.catalog.tpch import tpch_schema
from repro.core.scr import SCR
from repro.engine.api import EngineAPI
from repro.engine.database import Database
from repro.harness.reporting import format_table
from repro.harness.runner import WorkloadRunner
from repro.query.instance import SelectivityVector
from repro.workload.generator import instances_for_template
from repro.workload.templates import (
    rd1_templates,
    rd2_templates,
    tpcds_templates,
    tpch_templates,
)

TEMPLATES = [
    next(t for t in tpch_templates() if t.name == "tpch_local_supplier"),
    next(t for t in tpcds_templates() if t.name == "tpcds_q18_like"),
    next(t for t in rd1_templates() if t.name == "rd1_full_chain"),
    next(t for t in rd2_templates() if t.name == "rd2_ten_dim"),
]


def measure():
    runner = WorkloadRunner(db_scale=0.4)
    rows = []
    for template in TEMPLATES:
        db = runner.database(template.database)
        oracle = runner.oracle(template)
        engine = EngineAPI(template, oracle._optimizer, db.estimator)
        d = template.dimensions
        base = SelectivityVector.from_sequence([0.1] * d)
        result = engine.optimize(base)
        for i in range(40):
            sv = SelectivityVector.from_sequence(
                [min(1.0, 0.05 + 0.02 * i)] * d
            )
            engine.optimize(sv)
            engine.recost(result.shrunken_memo, sv)
        counters = engine.counters
        rows.append({
            "template": template.name,
            "opt_ms": counters.optimize.mean_seconds * 1e3,
            "recost_us": counters.recost.mean_seconds * 1e6,
            "speedup": counters.recost_speedup,
            "memo_exprs": result.memo_expressions,
            "shrunk_nodes": result.shrunken_memo.node_count,
            "work_ratio": result.memo_expressions
            / result.shrunken_memo.node_count,
            "shrink_pct": 100.0 * (1 - result.shrunken_memo.node_count
                                   / max(1, result.memo_expressions)),
        })
    return rows


def test_recost_speedup_and_memo_shrink(experiments, benchmark):
    rows = run_once(benchmark, measure)
    print()
    print(format_table(rows, title="Appendix B: Recost speedup & memo shrink"))

    for row in rows:
        # Recost is at least an order of magnitude less work everywhere
        # (the paper reports up to two orders of wall-clock on complex
        # queries).  Asserted on work counts: the wall-clock ``speedup``
        # column tracks machine load and the search's speed, and sits
        # closest to this bar on the ten-dimensional template.
        assert row["work_ratio"] > 10, row["template"]
        # Memo shrinking removes the vast majority of expressions
        # (paper: ~70%+).
        assert row["shrink_pct"] > 70, row["template"]
    # The deepest join graph should show a large ratio: the search
    # prices >50 expressions for every node Recost touches (the
    # wall-clock ratio there tracks the search's and Recost's speed).
    deepest = max(rows, key=lambda row: row["memo_exprs"])
    assert deepest["work_ratio"] > 50, deepest["template"]


# -- Recost kernel gate -------------------------------------------------------

BENCH_JSON = Path(__file__).parents[1] / "BENCH_recost.json"
GATE_SPEEDUP = 2.0
PASSES = 3            # best of three timed passes per plan
POINTS = 200          # sVectors re-costed per plan and pass
PREFIX = 2000         # requests that fill the cache with the pass's plans

#: The bare-SCR workloads of ``benchmarks/e2e`` (database, template, λ),
#: built at the same database scale and seeds.
KERNEL_WORKLOADS = (
    ("scr_hit", tpch_schema, tpch_templates, "tpch_shipping_priority", 1.2),
    ("scr_miss", tpcds_schema, tpcds_templates, "tpcds_six_dim", 1.5),
)


def _cached_plans(schema, templates, name, lam):
    """The plans SCR caches over the workload's first requests, with the
    requests' sVectors and the engine's cost model."""
    template = next(t for t in templates() if t.name == name)
    db = Database.create(schema(1.0), seed=42)
    engine = db.engine(template)
    scr = SCR(engine, lam=lam)
    stream = instances_for_template(template, PREFIX, seed=1)
    for instance in stream:
        scr.process(instance)
    points = [instance.sv for instance in stream[:POINTS]]
    memos = [plan.shrunken_memo for plan in scr.cache.plans()]
    return template, memos, points, engine.optimizer.cost_model


def _per_call_us(fn, memo, points, cost_model) -> float:
    fn(memo, points[0], cost_model)
    start = time.perf_counter()
    for sv in points:
        fn(memo, sv, cost_model)
    return (time.perf_counter() - start) / len(points) * 1e6


def _production(memo, sv, cost_model):
    return memo.recost(sv, cost_model)


def _measure_kernel() -> list[dict]:
    rows = []
    for workload, schema, templates, name, lam in KERNEL_WORKLOADS:
        template, memos, points, cost_model = _cached_plans(
            schema, templates, name, lam
        )
        production = reference = 0.0
        for memo in memos:
            for sv in points:
                assert memo.recost(sv, cost_model) == recost_walk(
                    memo, sv, cost_model
                ), (memo.signature, sv)
            # Alternate the two sides so drift on a shared box hits both.
            best_prod = best_ref = float("inf")
            for _ in range(PASSES):
                best_prod = min(
                    best_prod, _per_call_us(_production, memo, points, cost_model)
                )
                best_ref = min(
                    best_ref, _per_call_us(recost_walk, memo, points, cost_model)
                )
            production += best_prod
            reference += best_ref
        nodes = [memo.node_count for memo in memos]
        rows.append({
            "workload": workload,
            "template": template.name,
            "plans": len(memos),
            "nodes": f"{min(nodes)}-{max(nodes)}",
            "recost_us": round(production / len(memos), 2),
            "reference_us": round(reference / len(memos), 2),
            "speedup": round(reference / production, 2),
        })
    return rows


def _run_metadata() -> dict:
    return {
        "points": POINTS,
        "passes": PASSES,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }


def test_recost_kernel_speedup():
    """Gate: production Recost is at least 2x cheaper per call than the
    reference walk over each workload's cached plans, returning the
    walk's exact float.  Set ``BENCH_RECOST_JSON=1`` to also append the
    run to the trajectory file (CI does; local runs stay read-only)."""
    rows = _measure_kernel()
    print()
    print(format_table(rows, title="Recost kernel: compiled function vs walk"))
    if os.environ.get("BENCH_RECOST_JSON"):
        append_run(BENCH_JSON, "recost", rows, _run_metadata())
        print(f"appended trajectory run to {BENCH_JSON}")
    for row in rows:
        assert row["speedup"] >= GATE_SPEEDUP, (
            f"Recost on {row['workload']}'s plans is only {row['speedup']}x "
            f"the reference walk (gate {GATE_SPEEDUP}x)"
        )


def test_recost_trajectory_file_is_well_formed():
    """The checked-in trajectory is part of the repo contract."""
    assert BENCH_JSON.exists(), (
        f"missing {BENCH_JSON}; run `BENCH_RECOST_JSON=1 PYTHONPATH=src "
        "python -m pytest -q -s benchmarks/test_recost_speedup.py -k kernel`"
    )
    doc = json.loads(BENCH_JSON.read_text(encoding="utf-8"))
    assert validate_document(doc, str(BENCH_JSON)) == []
    assert check_regressions(doc, str(BENCH_JSON)) == []
    assert doc["benchmark"] == "recost"
    latest = doc["runs"][-1]["results"]
    assert latest and all(r["speedup"] >= GATE_SPEEDUP for r in latest), (
        "checked-in trajectory's latest run no longer clears the 2x gate"
    )
