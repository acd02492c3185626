"""Section 7.3 — anatomy of getPlan overheads.

Paper (TPC-DS Q18, 4000 instances, λ=1.1): a naive getPlan would
recost up to 162 stored plans; the GL-pruning heuristic cuts that to 8
recost calls, and λ_r=√λ to at most 3 while retaining only 5 plans —
getPlan overheads stay far below an optimizer call.

This module also hosts the columnar hot-path micro-benchmark: the
single-thread probe throughput of ``GetPlan`` against the scalar
reference scan (``tests/reference_get_plan.py``) over synthetic caches
(m stored instances × d dimensions), gated at ≥5× for m ≥ 256 with
``probe_batch`` at ≥ 0.9× the single-probe rate (best of three passes
per cell), and the measured trajectory appended to
``BENCH_getplan_hotpath.json`` at the repo root.

Its cost-check cell times the cost phase alone — one Recost that passes
at step 1 — against the reference's scalar walk over m anchors behind
six plans, and appends to ``BENCH_getplan_costcheck.json``.
"""

from __future__ import annotations

import json
import os
import platform
import random
import time
from pathlib import Path

from check_trajectory import append_run
from conftest import run_once
from reference_get_plan import ReferenceGetPlan
from repro.core.get_plan import GetPlan
from repro.core.plan_cache import CachedPlan, InstanceEntry, PlanCache
from repro.harness.reporting import format_table
from repro.query.instance import SelectivityVector
from repro.workload.templates import tpcds_templates

BENCH_JSON = Path(__file__).parents[1] / "BENCH_getplan_hotpath.json"
COSTCHECK_JSON = Path(__file__).parents[1] / "BENCH_getplan_costcheck.json"
BENCH_SCHEMA = 2

CACHE_SIZES = (64, 256, 1024)
DIMENSIONS = (2, 6, 10)
PROBES = 300
GATE_M = 256          # the ISSUE gate: ≥5× at ≥256 cached instances
GATE_SPEEDUP = 5.0
GATE_SPEEDUP_HIGH_D = 4.0  # d=10 carries 5× the (d, B, N) temp traffic


def test_sec73_getplan_overheads(experiments, benchmark):
    template = next(t for t in tpcds_templates() if t.name == "tpcds_q18_like")
    rows = run_once(
        benchmark,
        lambda: experiments.getplan_overheads(template, m=500, lam=1.1),
    )
    print()
    print(format_table(rows, title="Section 7.3: getPlan overhead anatomy"))

    naive, pruned, full = rows
    # GL-pruning caps the worst-case recost calls per getPlan.
    assert pruned["max_recosts_per_getplan"] <= naive["max_recosts_per_getplan"]
    assert pruned["max_recosts_per_getplan"] <= 8
    # The redundancy check shrinks the plan cache further.
    assert full["numplans"] <= pruned["numplans"]
    # Quality is not sacrificed along the way.
    for row in rows:
        assert row["tc"] < 1.2


# -- columnar hot-path micro-benchmark ---------------------------------------


class _StubMemo:
    """Duck-typed ShrunkenMemo: probes never optimize, so a node count
    is all the cache bookkeeping ever reads."""

    node_count = 1


def _loguniform_sv(rng: random.Random, d: int) -> SelectivityVector:
    return SelectivityVector.from_sequence(
        [10 ** rng.uniform(-4, 0) for _ in range(d)]
    )


def _synthetic_cache(m: int, d: int, seed: int) -> PlanCache:
    """A cache of m stored instances behind one plan — the selectivity
    scan's cost does not depend on plan multiplicity."""
    cache = PlanCache()
    plan = CachedPlan(
        plan_id=0, signature="p0", plan=None, shrunken_memo=_StubMemo()
    )
    cache._plans[0] = plan
    cache._by_signature["p0"] = 0
    cache._next_plan_id = 1
    cache._mutated()
    rng = random.Random(seed)
    for i in range(m):
        cache.add_instance(
            InstanceEntry(
                sv=_loguniform_sv(rng, d),
                plan_id=0,
                optimal_cost=100.0 + i,
                suboptimality=1.0,
            )
        )
    return cache


def _never_recost(memo, point):  # max_recost=0 keeps the scan pure
    raise AssertionError("the hot-path benchmark must not recost")


PASSES = 3            # best of three timed passes per cell
GATE_BATCH_RATIO = 0.9  # batch ≥ single, less a 10 % timing margin


def _probe_throughput(get_plan: GetPlan, points, batched: bool) -> float:
    """Probes per second: the best of ``PASSES`` warmed, timed passes
    (one pass on a shared box reads low whenever a neighbour wakes up).

    ``lam`` just above 1 makes every probe a full miss-scan — the
    worst case the columnar kernel targets — and ``max_recost=0``
    confines the measurement to the selectivity phase.
    """
    if batched:
        def one_pass(pts):
            get_plan.probe_batch(pts, _never_recost, max_recost=0)
    else:
        def one_pass(pts):
            for point in pts:
                get_plan.probe(point, _never_recost, max_recost=0)
    one_pass(points[:30])
    best = float("inf")
    for _ in range(PASSES):
        start = time.perf_counter()
        one_pass(points)
        best = min(best, time.perf_counter() - start)
    return len(points) / best


def _measure_hotpath() -> list[dict]:
    results = []
    for m in CACHE_SIZES:
        for d in DIMENSIONS:
            cache = _synthetic_cache(m, d, seed=5)
            rng = random.Random(99)
            points = [_loguniform_sv(rng, d) for _ in range(PROBES)]
            row = {"m": m, "d": d}
            for impl, cls in (
                ("scalar", ReferenceGetPlan), ("vectorized", GetPlan)
            ):
                gp = cls(cache=cache, lam=1.0001)
                row[f"{impl}_probes_per_s"] = round(
                    _probe_throughput(gp, points, batched=False), 1
                )
            gp = GetPlan(cache=cache, lam=1.0001)
            row["batch_probes_per_s"] = round(
                _probe_throughput(gp, points, batched=True), 1
            )
            row["speedup"] = round(
                row["vectorized_probes_per_s"] / row["scalar_probes_per_s"], 2
            )
            results.append(row)
    return results


def _run_metadata() -> dict:
    """Per-run provenance header (schema v2): enough to explain a perf
    step in the trajectory without re-running the machine it came from."""
    return {
        "probes": PROBES,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }


def _migrate_v1(doc: dict) -> dict:
    """Lift a schema-1 trajectory into the v2 envelope in place.

    v1 runs carried ``probes`` beside the results; v2 folds it into the
    ``meta`` header (tagged so a migrated run is distinguishable from a
    natively-v2 one with a richer header).
    """
    return {
        "schema_version": BENCH_SCHEMA,
        "benchmark": "getplan_hotpath",
        "runs": [
            {
                "timestamp": run["timestamp"],
                "meta": {"probes": run.get("probes"), "migrated_from": 1},
                "results": run["results"],
            }
            for run in doc.get("runs", [])
        ],
    }


def _append_trajectory(results: list[dict]) -> None:
    """Append this run to the checked-in perf trajectory (schema v2)."""
    append_run(
        BENCH_JSON, "getplan_hotpath", results, _run_metadata(),
        migrate=lambda doc: _migrate_v1(doc) if doc.get("schema") == 1 else None,
    )


def test_getplan_hotpath_vectorized_speedup():
    """Gate: the columnar selectivity phase must beat the scalar scan
    ≥5× single-threaded once ≥256 instances are cached (≥4× at d=10,
    where the (d, B, N) ratio tensor is largest), and ``probe_batch``
    must run at ≥ 0.9× the single-probe rate in the same cells.  Every
    rate is the best of three passes.  Set ``BENCH_GETPLAN_JSON=1`` to
    also append the run to the trajectory file (CI does; local runs
    stay read-only by default).
    """
    results = _measure_hotpath()
    print()
    print(format_table(results, title="Columnar getPlan hot path"))
    if os.environ.get("BENCH_GETPLAN_JSON"):
        _append_trajectory(results)
        print(f"appended trajectory run to {BENCH_JSON}")
    for row in results:
        if row["m"] < GATE_M:
            continue
        floor = GATE_SPEEDUP_HIGH_D if row["d"] >= 10 else GATE_SPEEDUP
        assert row["speedup"] >= floor, (
            f"vectorized probe throughput at m={row['m']} d={row['d']} is "
            f"only {row['speedup']}x the scalar scan (gate {floor}x)"
        )
        # One kernel call over a cache-sized chunk of probes must not be
        # slower than one call per probe.
        ratio = row["batch_probes_per_s"] / row["vectorized_probes_per_s"]
        assert ratio >= GATE_BATCH_RATIO, (
            f"probe_batch at m={row['m']} d={row['d']} runs at {ratio:.2f}x "
            f"the single-probe rate (gate {GATE_BATCH_RATIO}x)"
        )


def test_bench_trajectory_file_is_well_formed():
    """The checked-in trajectory is part of the repo contract."""
    from check_trajectory import check_regressions, validate_document

    assert BENCH_JSON.exists(), (
        f"missing {BENCH_JSON}; run "
        "`BENCH_GETPLAN_JSON=1 PYTHONPATH=src python -m pytest -q -s "
        "benchmarks/test_sec73_getplan_overheads.py -k hotpath`"
    )
    doc = json.loads(BENCH_JSON.read_text(encoding="utf-8"))
    assert validate_document(doc, str(BENCH_JSON)) == []
    assert check_regressions(doc, str(BENCH_JSON)) == []
    assert doc["benchmark"] == "getplan_hotpath"
    for run in doc["runs"]:
        for row in run["results"]:
            assert row["m"] in CACHE_SIZES and row["d"] in DIMENSIONS
    latest = doc["runs"][-1]["results"]
    gated = [r for r in latest if r["m"] >= GATE_M and r["d"] < 10]
    assert gated and all(r["speedup"] >= GATE_SPEEDUP for r in gated), (
        "checked-in trajectory's latest run no longer clears the 5x gate"
    )


# -- cost-check kernel ---------------------------------------------------------


COSTCHECK_PLANS = 6   # the ledger's streams cache 5-6 plans
COSTCHECK_D = 3       # scr_hit's template dimensionality
COSTCHECK_LAM = 1.2
#: Far below every anchor's cost (100 and up), so the head plan's own
#: anchor passes ``R·L ≤ λ/S`` and the cost phase ends at step 1.
COSTCHECK_PRICE = 1e-6


class _PlanMemo:
    """A plan's stand-in memo (plans are told apart by identity)."""

    node_count = 1


def _costcheck_cache(m: int, seed: int) -> PlanCache:
    """m stored instances spread over ``COSTCHECK_PLANS`` plans."""
    cache = PlanCache()
    for p in range(COSTCHECK_PLANS):
        cache._plans[p] = CachedPlan(
            plan_id=p, signature=f"p{p}", plan=None, shrunken_memo=_PlanMemo()
        )
        cache._by_signature[f"p{p}"] = p
    cache._next_plan_id = COSTCHECK_PLANS
    cache._mutated()
    rng = random.Random(seed)
    for i in range(m):
        cache.add_instance(
            InstanceEntry(
                sv=_loguniform_sv(rng, COSTCHECK_D),
                plan_id=rng.randrange(COSTCHECK_PLANS),
                optimal_cost=100.0 + i,
                suboptimality=rng.uniform(1.0, 1.15),
            )
        )
    return cache


def _cheap_recost(memo, point) -> float:
    return COSTCHECK_PRICE


def _best_us(call, inputs) -> float:
    """Microseconds per call: the best of ``PASSES`` warmed passes."""
    for args in inputs[:30]:
        call(*args)
    best = float("inf")
    for _ in range(PASSES):
        start = time.perf_counter()
        for args in inputs:
            call(*args)
        best = min(best, time.perf_counter() - start)
    return 1e6 * best / len(inputs)


def _measure_costcheck() -> list[dict]:
    """Per m: the cost phase of probes whose selectivity check missed,
    production (``GetPlan._cost_phase``) against the reference's walk
    (``ReferenceGetPlan._cost_walk``), each fed its own scan's output
    for the same points.  Both must decide every probe identically, as
    a cost hit after one Recost."""
    results = []
    for m in CACHE_SIZES:
        cache = _costcheck_cache(m, seed=7)
        view = cache.columnar()
        gp = GetPlan(cache=cache, lam=COSTCHECK_LAM)
        ref = ReferenceGetPlan(cache=cache, lam=COSTCHECK_LAM)
        cap = gp.max_recost_candidates
        budget = gp._budget_vector(view)
        rng = random.Random(99)
        fast, slow = [], []
        while len(fast) < PROBES:
            point = _loguniform_sv(rng, COSTCHECK_D)
            ((g, l, gc, lc),) = gp._factor_rows(view, [(point, None)])
            hit, key = gp._selectivity_check(
                None, view, g, l, gc, lc, budget, cap
            )
            if hit is not None:
                continue
            fast.append((point, None, _cheap_recost, view, key, g, l,
                         budget, cap))
            slow.append((point, None, _cheap_recost, view,
                         ref._scan(point, None, ref.records(view))[1], cap))
        for a, b in zip(fast, slow):
            decision = gp._cost_phase(*a)
            assert decision.check.value == "cost" and decision.recost_calls == 1
            assert decision.row == ref._cost_walk(*b).row
        row = {"m": m, "d": COSTCHECK_D, "plans": COSTCHECK_PLANS}
        row["costcheck_us"] = round(_best_us(gp._cost_phase, fast), 2)
        row["reference_us"] = round(_best_us(ref._cost_walk, slow), 2)
        row["speedup"] = round(row["reference_us"] / row["costcheck_us"], 2)
        results.append(row)
    return results


#: The columnar cost phase must stay faster than the scalar walk from
#: 256 anchors up (it reads 17-64x there on a 2-vCPU x86_64 box).
GATE_COSTCHECK_SPEEDUP = 5.0


def test_getplan_costcheck_speedup():
    """Cost-check kernel: one step-1 Recost per probe, the head plan's
    anchors checked, production against the reference's scalar walk
    (best of three passes).  ``BENCH_GETPLAN_JSON=1`` appends the run
    to ``BENCH_getplan_costcheck.json`` (CI does)."""
    results = _measure_costcheck()
    print()
    print(format_table(results, title="getPlan cost-check kernel"))
    if os.environ.get("BENCH_GETPLAN_JSON"):
        append_run(
            COSTCHECK_JSON, "getplan_costcheck", results,
            {**_run_metadata(), "passes": PASSES, "lam": COSTCHECK_LAM},
        )
        print(f"appended trajectory run to {COSTCHECK_JSON}")
    for row in results:
        if row["m"] >= GATE_M:
            assert row["speedup"] >= GATE_COSTCHECK_SPEEDUP, (
                f"cost phase at m={row['m']} is only {row['speedup']}x the "
                f"scalar walk (gate {GATE_COSTCHECK_SPEEDUP}x)"
            )


def test_costcheck_trajectory_file_is_well_formed():
    from check_trajectory import check_regressions, validate_document

    doc = json.loads(COSTCHECK_JSON.read_text(encoding="utf-8"))
    assert validate_document(doc, str(COSTCHECK_JSON)) == []
    assert check_regressions(doc, str(COSTCHECK_JSON)) == []
    assert doc["benchmark"] == "getplan_costcheck"
    for run in doc["runs"]:
        assert [row["m"] for row in run["results"]] == list(CACHE_SIZES)
