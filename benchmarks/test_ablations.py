"""Ablation benchmarks for SCR's design choices (DESIGN.md §5).

Each ablation swaps one design decision of the paper for an alternative
and measures the consequences on the three metrics:

* LFU eviction (paper, §6.3.1)  vs LRU vs RANDOM;
* bounding function f(α)=α (paper, §5.4) vs f(α)=α²;
* G·L candidate ordering (paper, §6.2) vs region-area vs usage-count;
* cold start (paper) vs offline seeding (§9 future work).
"""

from conftest import run_once
from repro.core.bounds import LINEAR_BOUND, QUADRATIC_BOUND
from repro.core.get_plan import CandidateOrder
from repro.core.manage_cache import EvictionPolicy
from repro.core.scr import SCR
from repro.core.seeding import grid_points, seed_cache
from repro.engine.api import EngineAPI
from repro.harness.reporting import format_table
from repro.harness.runner import WorkloadRunner
from repro.workload.generator import instances_for_template
from repro.workload.templates import tpch_templates, tpcds_templates

M = 400


def _setup(runner, template):
    db = runner.database(template.database)
    oracle = runner.oracle(template)
    return EngineAPI(template, oracle._optimizer, db.estimator)


def _drive(technique, instances):
    for inst in instances:
        technique.process(inst)
    return technique


def test_ablation_eviction_policy(experiments, benchmark):
    """LFU should not lose to LRU/RANDOM on repeat-heavy workloads."""

    def run():
        runner = WorkloadRunner(db_scale=0.4)
        template = tpch_templates()[0]
        instances = instances_for_template(template, M, seed=71)
        rows = []
        for policy in EvictionPolicy:
            engine = _setup(runner, template)
            scr = _drive(
                SCR(engine, lam=1.2, plan_budget=3, lambda_r=1.0,
                    eviction_policy=policy),
                instances,
            )
            rows.append({
                "policy": policy.value,
                "numopt": scr.optimizer_calls,
                "evictions": scr.manage_cache.stats.plans_evicted,
            })
        return rows

    rows = run_once(benchmark, run)
    print()
    print(format_table(rows, title="Ablation: eviction policy (k=3)"))
    by_policy = {row["policy"]: row for row in rows}
    # Every policy keeps the budget working (evictions happen) and LFU
    # is competitive with the alternatives (within 25%).
    assert all(row["evictions"] >= 1 for row in rows)
    baseline = min(r["numopt"] for r in rows)
    assert by_policy["lfu"]["numopt"] <= baseline * 1.25


def test_ablation_bounding_function(experiments, benchmark):
    """f(α)=α² certifies SubOpt < (GL)², so the same λ yields smaller
    inference regions: more optimizer calls, never fewer."""

    def run():
        runner = WorkloadRunner(db_scale=0.4)
        template = tpch_templates()[0]
        instances = instances_for_template(template, M, seed=73)
        rows = []
        for label, bound in (("linear", LINEAR_BOUND),
                             ("quadratic", QUADRATIC_BOUND)):
            engine = _setup(runner, template)
            scr = _drive(SCR(engine, lam=2.0, bound=bound), instances)
            rows.append({
                "bound": label,
                "numopt": scr.optimizer_calls,
                "plans": scr.max_plans_cached,
                "violations_detected": (
                    scr.detector.violations_detected if scr.detector else 0
                ),
            })
        return rows

    rows = run_once(benchmark, run)
    print()
    print(format_table(rows, title="Ablation: BCG bounding function"))
    by_bound = {row["bound"]: row for row in rows}
    assert by_bound["quadratic"]["numopt"] >= by_bound["linear"]["numopt"]
    # The looser certificate can only reduce detected violations.
    assert (by_bound["quadratic"]["violations_detected"]
            <= by_bound["linear"]["violations_detected"] + 1)


def test_ablation_candidate_order(experiments, benchmark):
    """§6.2's G·L ordering should spend the fewest recost calls per hit."""

    def run():
        runner = WorkloadRunner(db_scale=0.4)
        template = next(
            t for t in tpcds_templates() if t.name == "tpcds_q25_like"
        )
        instances = instances_for_template(template, M, seed=79)
        rows = []
        for order in CandidateOrder:
            engine = _setup(runner, template)
            scr = _drive(
                SCR(engine, lam=1.5, candidate_order=order), instances
            )
            hits = scr.get_plan.cost_hits
            rows.append({
                "order": order.value,
                "numopt": scr.optimizer_calls,
                "cost_hits": hits,
                "recosts_per_hit": (
                    scr.get_plan.total_recost_calls / hits if hits else 0.0
                ),
            })
        return rows

    rows = run_once(benchmark, run)
    print()
    print(format_table(rows, title="Ablation: cost-check candidate order"))
    by_order = {row["order"]: row for row in rows}
    gl = by_order["gl"]
    for other in ("area", "usage"):
        # G·L ordering finds hits at least as cheaply as the alternatives.
        if by_order[other]["cost_hits"]:
            assert gl["recosts_per_hit"] <= (
                by_order[other]["recosts_per_hit"] * 1.2 + 0.5
            )


def test_ablation_offline_seeding(experiments, benchmark):
    """§9 hybrid: a seeded cache cuts online optimizer calls."""

    def run():
        runner = WorkloadRunner(db_scale=0.4)
        template = tpch_templates()[0]
        instances = instances_for_template(template, M, seed=89)
        rows = []

        engine_cold = _setup(runner, template)
        cold = _drive(SCR(engine_cold, lam=2.0), instances)
        rows.append({
            "mode": "cold (paper)",
            "offline_opt": 0,
            "online_opt": cold.optimizer_calls,
            "plans": cold.max_plans_cached,
        })

        engine_warm = _setup(runner, template)
        warm = SCR(engine_warm, lam=2.0)
        report = seed_cache(
            warm, engine_warm, grid_points(template.dimensions, 5)
        )
        before = engine_warm.counters.optimize.calls
        _drive(warm, instances)
        rows.append({
            "mode": "seeded (sec. 9)",
            "offline_opt": report.points_optimized,
            "online_opt": engine_warm.counters.optimize.calls - before,
            "plans": warm.max_plans_cached,
        })
        return rows

    rows = run_once(benchmark, run)
    print()
    print(format_table(rows, title="Ablation: offline seeding"))
    cold, seeded = rows
    assert seeded["online_opt"] < cold["online_opt"]
    assert seeded["offline_opt"] > 0
