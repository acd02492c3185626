"""The plan search on a cache miss: bounded by the incumbent vs unbounded.

On a miss SCR hands the optimizer the cached plan its cost phase
re-costed cheapest at the instance, and the search runs a
branch-and-bound capped by that plan's cost (DESIGN.md §7).  This gate
replays the ``scr_miss`` request-latency workload (same database scale,
seeds, template and λ as ``benchmarks/e2e``), records every miss's
``(sVector, incumbent)`` as SCR passes it to the engine, and times
``PlanSearch.optimize`` on each pair without and with the cap, the
incumbent's Recost counted on the bounded side.

Gate: the bounded search returns the unbounded search's winner (tree,
cost and expression count) on every miss, and its median per-miss
speedup is at least 1.3x (best of three alternating passes per miss).
Set ``BENCH_SEARCH_JSON=1`` to append the run to ``BENCH_search.json``
at the repo root (CI does; local runs stay read-only).
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import time
from pathlib import Path

from check_trajectory import append_run, check_regressions, validate_document
from repro.catalog.tpcds import tpcds_schema
from repro.core.scr import SCR
from repro.engine.api import EngineWrapper
from repro.engine.database import Database
from repro.harness.reporting import format_table
from repro.optimizer.optimizer import INCUMBENT_MARGIN
from repro.workload.generator import instances_for_template
from repro.workload.templates import tpcds_templates

BENCH_JSON = Path(__file__).parents[1] / "BENCH_search.json"
GATE_SPEEDUP = 1.3
PASSES = 3
REQUESTS = 4000
TEMPLATE = "tpcds_six_dim"
LAM = 1.5


class _RecordingEngine(EngineWrapper):
    """Records each optimizer call's ``(sv, incumbent)`` on its way in."""

    def __init__(self, inner) -> None:
        super().__init__(inner)
        self.calls: list = []

    def optimize(self, sv, incumbent=None):
        self.calls.append((sv, incumbent))
        return self.inner.optimize(sv, incumbent)


def _misses():
    template = next(t for t in tpcds_templates() if t.name == TEMPLATE)
    db = Database.create(tpcds_schema(1.0), seed=42)
    engine = _RecordingEngine(db.engine(template))
    scr = SCR(engine, lam=LAM)
    for instance in instances_for_template(template, REQUESTS, seed=1):
        scr.process(instance)
    return engine.calls, engine.optimizer


def _best_us(fn) -> float:
    best = float("inf")
    for _ in range(PASSES):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best * 1e6


def _measure() -> list[dict]:
    calls, optimizer = _misses()
    search = optimizer._search
    unbounded_us, bounded_us, speedups = [], [], []
    for sv, incumbent in calls:
        if incumbent is None:
            continue  # the first miss: an empty cache bounds nothing

        def bounded():
            bound = optimizer.recost(incumbent, sv) * INCUMBENT_MARGIN
            return search.optimize(sv, bound)

        plan, memo = search.optimize(sv)
        bounded_plan, bounded_memo = bounded()
        assert bounded_plan == plan and bounded_plan.cost == plan.cost, sv
        assert bounded_memo.expression_count == memo.expression_count, sv
        # Alternate the two sides so drift on a shared box hits both.
        u = b = float("inf")
        for _ in range(PASSES):
            u = min(u, _best_us(lambda: search.optimize(sv)))
            b = min(b, _best_us(bounded))
        unbounded_us.append(u)
        bounded_us.append(b)
        speedups.append(u / b)
    return [{
        "workload": "scr_miss",
        "template": TEMPLATE,
        "misses": len(calls),
        "bounded": len(speedups),
        "unbounded_us_p50": round(statistics.median(unbounded_us), 1),
        "bounded_us_p50": round(statistics.median(bounded_us), 1),
        "speedup": round(statistics.median(speedups), 2),
    }]


def _run_metadata() -> dict:
    return {
        "requests": REQUESTS,
        "passes": PASSES,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }


def test_bounded_search_speedup_on_scr_miss():
    """Gate: same winner on every miss, median speedup >= 1.3x."""
    rows = _measure()
    print()
    print(format_table(rows, title="Plan search on scr_miss misses: bounded vs unbounded"))
    if os.environ.get("BENCH_SEARCH_JSON"):
        append_run(BENCH_JSON, "search", rows, _run_metadata())
        print(f"appended trajectory run to {BENCH_JSON}")
    for row in rows:
        assert row["bounded"] >= row["misses"] - 1, row
        assert row["speedup"] >= GATE_SPEEDUP, (
            f"the bounded search on {row['workload']}'s misses is only "
            f"{row['speedup']}x the unbounded one (gate {GATE_SPEEDUP}x)"
        )


def test_search_trajectory_file_is_well_formed():
    """The checked-in trajectory is part of the repo contract."""
    assert BENCH_JSON.exists(), (
        f"missing {BENCH_JSON}; run `BENCH_SEARCH_JSON=1 PYTHONPATH=src "
        "python -m pytest -q -s benchmarks/test_search_kernel.py -k speedup`"
    )
    doc = json.loads(BENCH_JSON.read_text(encoding="utf-8"))
    assert validate_document(doc, str(BENCH_JSON)) == []
    assert check_regressions(doc, str(BENCH_JSON)) == []
    assert doc["benchmark"] == "search"
    latest = doc["runs"][-1]["results"]
    assert latest and all(r["speedup"] >= GATE_SPEEDUP for r in latest), (
        "checked-in trajectory's latest run no longer clears the 1.3x gate"
    )
