"""Overload protection under sustained 4× capacity: graceful brownout.

Two runs over the same 8-template simulated-latency setup as the
serving-throughput benchmark:

* **4× capacity, paced** — submissions arrive at four times the
  measured burst capacity with an 80 ms end-to-end deadline.  The
  acceptance bar: zero hangs (every future resolves), every response
  labeled exactly one of certified / uncertified / shed with a traced
  reason, served p99 latency bounded instead of queue-collapse growth,
  certified choices within the *relaxed* λ ceiling against an
  independent oracle, and the brownout controller actually engaging.
* **1× load, burst** — the same workload pushed through an
  overload-enabled manager with ample headroom must stay at brownout
  level ``normal``, shed nothing, certify everything and keep
  throughput within 5% of the plain (PR 2) concurrent manager.
"""

from __future__ import annotations

import time

from conftest import run_once
from repro.engine.database import Database
from repro.harness.metrics import ServiceLevelSummary
from repro.harness.reporting import format_table
from repro.obs import Observability
from repro.serving import (
    ConcurrentPQOManager,
    OverloadPolicy,
    ShedError,
    simulated_latency_wrapper,
)
from test_serving_throughput import (
    LATENCY,
    make_workload,
    serving_schema,
    serving_templates,
)

LAM = 2.0
SEED = 211
NUM_WORKERS = 8
INSTANCES_PER_TEMPLATE = 40     # 1× comparison workload (8 × 40 = 320)
OVERLOAD_PER_TEMPLATE = 80      # 4× paced workload (8 × 80 = 640)
DEADLINE_SECONDS = 0.080
RELAX_FACTOR = 1.5
RELAXED_CEILING = LAM * RELAX_FACTOR
DRAIN_TIMEOUT = 60.0            # "zero hangs" bar: everything resolves
DECISION_EVENTS = (
    "overload.shed", "overload.uncertified_serve", "overload.queue_reject"
)


def build_manager(policy):
    db = Database.create(serving_schema(), seed=11)
    # Observability attached on both overload runs: the 1x ratio
    # acceptance below therefore bounds its overhead in the hot path.
    manager = ConcurrentPQOManager(
        database=db,
        max_workers=NUM_WORKERS,
        engine_wrapper=simulated_latency_wrapper(**LATENCY),
        overload=policy,
        obs=Observability(),
    )
    for t in serving_templates():
        manager.register(t, lam=LAM)
    return db, manager


def overload_policy() -> OverloadPolicy:
    """Tight budgets: small queues, a 2-wide optimizer pool, deadlines."""
    return OverloadPolicy(
        queue_limit=8,
        default_deadline_seconds=DEADLINE_SECONDS,
        optimizer_concurrency=2,
        gate_timeout=0.010,
        evaluate_every=20,
        lambda_relax_factor=RELAX_FACTOR,
        lambda_ceiling=RELAXED_CEILING,
    )


def ample_policy() -> OverloadPolicy:
    """Headroom everywhere: at 1× load nothing should ever trip."""
    return OverloadPolicy(
        queue_limit=128,
        default_deadline_seconds=None,
        optimizer_concurrency=NUM_WORKERS,
        gate_timeout=1.0,
        evaluate_every=20,
    )


def run_plain_burst(workload):
    """PR 2 baseline: no overload machinery at all."""
    db = Database.create(serving_schema(), seed=11)
    manager = ConcurrentPQOManager(
        database=db,
        max_workers=NUM_WORKERS,
        engine_wrapper=simulated_latency_wrapper(**LATENCY),
    )
    for t in serving_templates():
        manager.register(t, lam=LAM)
    start = time.perf_counter()
    choices = manager.process_many(workload, dedupe=False)
    elapsed = time.perf_counter() - start
    manager.close()
    return elapsed, choices


def run_overload_burst(workload):
    """Same burst through the overload-enabled manager (ample policy)."""
    _, manager = build_manager(ample_policy())
    start = time.perf_counter()
    choices = manager.process_many(workload, dedupe=False)
    elapsed = time.perf_counter() - start
    level = manager.brownout_level
    transitions = len(manager._overload_coordinator.controller.transitions)
    report = manager.overload_report()
    manager.close()
    return elapsed, choices, level, transitions, report


def run_paced_overload(workload, offered_qps):
    """Submit at a fixed offered rate; resolve every future."""
    db, manager = build_manager(overload_policy())
    # A live sink sees every span, whatever the bounded ring evicts.
    decision_events = []

    def keep_decision(span):
        if span.name in DECISION_EVENTS:
            decision_events.append(span)

    manager.obs.spans.attach_sink(keep_decision)
    latencies: dict[int, float] = {}
    futures = []
    interval = 1.0 / offered_qps
    start = time.perf_counter()
    for i, instance in enumerate(workload):
        target = start + i * interval
        now = time.perf_counter()
        if target > now:
            time.sleep(target - now)
        submitted = time.perf_counter()

        def on_done(fut, i=i, submitted=submitted):
            latencies[i] = time.perf_counter() - submitted

        fut = manager.submit(instance)
        fut.add_done_callback(on_done)
        futures.append(fut)

    outcomes = []
    deadline_at = time.monotonic() + DRAIN_TIMEOUT
    for fut in futures:
        remaining = max(0.1, deadline_at - time.monotonic())
        exc = fut.exception(timeout=remaining)  # raises TimeoutError = hang
        outcomes.append(exc if exc is not None else fut.result())
    elapsed = time.perf_counter() - start
    stats_rows = manager.serving_report()
    report = manager.overload_report()
    transitions = len(manager._overload_coordinator.controller.transitions)
    audit = manager.obs.audit
    manager.close()
    return (db, outcomes, latencies, elapsed, stats_rows, report, transitions,
            audit, decision_events)


def certified_violations(db, workload, outcomes, bound) -> int:
    """Certified responses whose true sub-optimality exceeds ``bound``,
    measured against the unwrapped engine as oracle."""
    oracles = {t.name: db.engine(t) for t in serving_templates()}
    violations = 0
    for instance, outcome in zip(workload, outcomes):
        if isinstance(outcome, BaseException) or not outcome.certified:
            continue
        oracle = oracles[instance.template_name]
        optimal = oracle.optimize(instance.sv).cost
        chosen = oracle.recost(outcome.shrunken_memo, instance.sv)
        if chosen / optimal > bound * (1 + 1e-6):
            violations += 1
    return violations


def measure():
    # -- 1× baseline and comparison ---------------------------------------
    workload_1x = make_workload(serving_templates(), INSTANCES_PER_TEMPLATE, SEED)
    plain_s, plain_choices = run_plain_burst(workload_1x)
    ov_s, ov_choices, level_1x, transitions_1x, report_1x = run_overload_burst(
        workload_1x
    )
    capacity_qps = len(workload_1x) / plain_s

    # -- 4× sustained, paced ----------------------------------------------
    workload_4x = make_workload(
        serving_templates(), OVERLOAD_PER_TEMPLATE, SEED + 1
    )
    (db, outcomes, latencies, paced_s, stats_rows, report_4x, transitions_4x,
     audit, decision_events) = run_paced_overload(
        workload_4x, offered_qps=4.0 * capacity_qps
    )

    shed = [o for o in outcomes if isinstance(o, ShedError)]
    other_errors = [
        o for o in outcomes
        if isinstance(o, BaseException) and not isinstance(o, ShedError)
    ]
    served = [o for o in outcomes if not isinstance(o, BaseException)]
    summary = ServiceLevelSummary.from_outcomes(
        latencies_s=[
            latencies[i] for i, o in enumerate(outcomes)
            if not isinstance(o, BaseException)
        ],
        certified_flags=[c.certified for c in served],
        shed=len(shed),
        deadline_seconds=DEADLINE_SECONDS,
    )
    served_ms = sorted(
        latencies[i] * 1e3 for i, o in enumerate(outcomes)
        if not isinstance(o, BaseException)
    )
    p99_ms = served_ms[int(0.99 * (len(served_ms) - 1))] if served_ms else 0.0
    return {
        "row": {
            "capacity_qps": capacity_qps,
            "offered_qps": 4.0 * capacity_qps,
            "responses": len(outcomes),
            "certified": summary.certified,
            "uncertified": summary.uncertified,
            "shed": summary.shed,
            "errors": len(other_errors),
            "p99_ms": p99_ms,
            "deadline_hit": summary.deadline_hit_rate,
            "transitions": transitions_4x,
            "violations": certified_violations(
                db, workload_4x, outcomes, RELAXED_CEILING
            ),
            "audit_accounted": sum(audit.outcome_totals().values()),
            "audit_certified": audit.outcome_totals()["certified"],
            "audit_shed": audit.outcome_totals()["shed"],
            "audit_violations": audit.total_violations,
        },
        "one_x": {
            "plain_qps": len(workload_1x) / plain_s,
            "overload_qps": len(workload_1x) / ov_s,
            "ratio": plain_s / ov_s,
            "brownout": level_1x.name.lower(),
            "transitions": transitions_1x,
            "uncertified": sum(1 for c in ov_choices if not c.certified),
            "plain_uncertified": sum(
                1 for c in plain_choices if not c.certified
            ),
        },
        "shed_errors": shed,
        "decision_events": decision_events,
        "report_4x": report_4x,
        "stats_rows": stats_rows,
    }


def test_overload_shedding(benchmark):
    result = run_once(benchmark, measure)
    row, one_x = result["row"], result["one_x"]
    print()
    print(format_table([row], title="4x sustained load with overload protection"))
    print()
    print(format_table([one_x], title="1x burst: overload-enabled vs plain"))
    print()
    print(format_table([result["report_4x"]], title="Overload report (4x)"))
    print()
    print(format_table(result["stats_rows"], title="Per-shard stats (4x)"))

    # Zero hangs, every response accounted for and labeled.
    assert row["errors"] == 0, "only PlanChoice or ShedError may come back"
    assert row["certified"] + row["uncertified"] + row["shed"] == row["responses"]

    # The runtime audit trail independently reaches the same ledger:
    # exactly one outcome counter per response, matching the futures,
    # and zero live λ-violations (certified bounds are checked against
    # the λ in force — the *relaxed* one under brownout).
    assert row["audit_accounted"] == row["responses"]
    assert row["audit_certified"] == row["certified"]
    assert row["audit_shed"] == row["shed"]
    assert row["audit_violations"] == 0, (
        "the runtime guarantee audit flagged a certified bound above λ"
    )
    for err in result["shed_errors"]:
        assert err.reason, "every shed carries a machine-readable reason"

    # Every shed / uncertified / reject decision left a traced reason code.
    assert all(e.attrs["reason"] for e in result["decision_events"])
    degraded = row["uncertified"] + row["shed"]
    if degraded:
        assert result["decision_events"], "degraded serves must be traced"

    # Bounded in-deadline tail: p99 of served responses stays within a
    # small multiple of the deadline instead of queue-collapse growth.
    assert row["p99_ms"] <= DEADLINE_SECONDS * 1e3 * 10, (
        f"p99 {row['p99_ms']:.1f} ms indicates unbounded queueing"
    )

    # The guarantee, relaxed but never broken: certified responses stay
    # within the λ ceiling the brownout controller is allowed to widen to.
    assert row["violations"] == 0, (
        "certified choice exceeded the relaxed λ ceiling against the oracle"
    )

    # 4× sustained overload must actually engage the protection.
    assert degraded > 0, "4x load should force degraded serves"
    assert row["transitions"] >= 1, "brownout controller never engaged at 4x"

    # At 1× the machinery is invisible: normal level, everything
    # certified, throughput within 5% of the plain concurrent manager.
    assert one_x["brownout"] == "normal"
    assert one_x["transitions"] == 0
    assert one_x["uncertified"] == one_x["plain_uncertified"]
    assert one_x["ratio"] >= 0.95, (
        f"overload-enabled serving lost {100 * (1 - one_x['ratio']):.1f}% "
        "throughput at 1x load (must be within 5%)"
    )
