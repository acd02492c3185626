#!/usr/bin/env python3
"""Overload demo: a PQO server surviving a 4x traffic surge.

Drives the concurrent serving layer through a load ramp with overload
protection on (DESIGN.md §9):

* submissions are paced — first comfortably under capacity, then a
  sustained surge at roughly four times what the optimizer pool can
  absorb, then back to calm;
* every submission carries an end-to-end deadline budget, optimizer
  calls pass through a 1-wide gate (the scarce resource), and the
  brownout controller walks the ladder ``normal → lambda_relaxed →
  uncertified → shed`` one level per evaluation tick, with hysteresis
  on the way back down;
* every response is exactly one of **certified** (λ bound verified,
  possibly the relaxed one), **uncertified** (served from cache, no
  bound claimed) or **shed** (refused: nothing cached) — nothing ever
  hangs, and every degraded decision is an event span with a reason code.

Run:  python examples/overloaded_server.py
"""

import time
from collections import Counter

from repro import Database, tpch_schema
from repro.harness.reporting import format_table
from repro.obs import Observability
from repro.query.instance import QueryInstance
from repro.query.sql import parse_sql
from repro.serving import (
    ConcurrentPQOManager,
    OverloadPolicy,
    ShedError,
    simulated_latency_wrapper,
)
from repro.workload import instances_for_template

STATEMENTS = {
    "recent_orders": """
        SELECT * FROM orders, customer
        WHERE orders.o_custkey = customer.c_custkey
          AND orders.o_orderdate >= ?
          AND customer.c_acctbal >= ?
    """,
    "quantity_report": """
        SELECT COUNT(*) FROM lineitem
        WHERE lineitem.l_quantity <= ?
          AND lineitem.l_discount <= ?
    """,
    "big_spenders": """
        SELECT * FROM customer
        WHERE customer.c_acctbal >= ?
          AND customer.c_custkey <= ?
    """,
}

# Cold templates that "ship with a deploy" right as the surge hits:
# their caches are empty, so nothing can be recost-reused and every
# early instance contends for the 1-wide optimizer gate.
SURGE_STATEMENTS = {
    "flash_sale": """
        SELECT * FROM lineitem, orders
        WHERE lineitem.l_orderkey = orders.o_orderkey
          AND lineitem.l_extendedprice <= ?
          AND orders.o_totalprice <= ?
    """,
    "churn_scan": """
        SELECT * FROM orders, customer
        WHERE orders.o_custkey = customer.c_custkey
          AND customer.c_acctbal <= ?
          AND orders.o_totalprice >= ?
    """,
    "inventory_probe": """
        SELECT COUNT(*) FROM lineitem
        WHERE lineitem.l_quantity >= ?
          AND lineitem.l_extendedprice <= ?
    """,
}

POLICY = OverloadPolicy(
    queue_limit=8,                   # per-template outstanding cap
    default_deadline_seconds=0.080,  # end-to-end budget per submission
    optimizer_concurrency=1,         # the scarce resource under surge
    gate_timeout=0.010,
    gate_wait_high=0.006,            # waits near the gate timeout = hot
    gate_wait_low=0.001,
    evaluate_every=15,
    lambda_relax_factor=1.5,         # brownout level 1 widens λ to 3.0
    lambda_ceiling=3.0,
)


def drive(manager, instances, offered_qps):
    """Submit at a fixed offered rate; return labeled outcomes."""
    futures = []
    interval = 1.0 / offered_qps
    start = time.perf_counter()
    for i, instance in enumerate(instances):
        target = start + i * interval
        now = time.perf_counter()
        if target > now:
            time.sleep(target - now)
        futures.append(manager.submit(instance))
    outcomes = Counter()
    for fut in futures:
        try:
            choice = fut.result(timeout=30)
        except ShedError:
            outcomes["shed"] += 1
        else:
            outcomes["certified" if choice.certified else "uncertified"] += 1
    return outcomes


def main() -> None:
    print("Booting the overload-protected PQO server...")
    db = Database.create(tpch_schema(scale=0.3), seed=9)
    obs = Observability()
    # A live sink counts every degraded serve's reason as it happens,
    # whatever the bounded span ring later evicts.
    reasons = Counter()

    def count_reason(span):
        if span.name == "overload.uncertified_serve":
            reasons[span.attrs["reason"]] += 1

    obs.spans.attach_sink(count_reason)
    manager = ConcurrentPQOManager(
        database=db,
        max_workers=8,
        engine_wrapper=simulated_latency_wrapper(
            optimize_seconds=0.040, recost_seconds=0.002
        ),
        overload=POLICY,
        obs=obs,
    )
    def register_all(statements):
        registered = {}
        for name, sql in statements.items():
            template = parse_sql(sql, name=name, database="tpch")
            registered[name] = template
            manager.register(template, lam=2.0)
            print(f"  registered {name:<16} d={template.dimensions} "
                  f"lambda=2.00 (relaxable to 3.00)")
        return registered

    def phase_workload(templates, count: int, seed_base: int):
        return [
            QueryInstance(name, parameters=inst.parameters, sv=inst.sv)
            for i, (name, t) in enumerate(templates.items())
            for inst in instances_for_template(t, count, seed=seed_base + i)
        ]

    templates = register_all(STATEMENTS)

    calm_instances = phase_workload(templates, 70, seed_base=0)

    # Prime the caches serially so "calm" traffic is mostly selectivity
    # hits (the realistic steady state); the surge's cold templates are
    # what the ladder is for.
    print("\nWarming plan caches (serial, uncontended)...")
    for instance in phase_workload(templates, 12, seed_base=0):
        manager.process(instance)

    print(f"\nPhase 1: calm — {len(calm_instances)} instances at 100 qps...")
    calm = drive(manager, calm_instances, offered_qps=100)
    print(f"  outcomes: {dict(calm)}   "
          f"brownout: {manager.brownout_level.name.lower()}")

    print("\nA deploy ships three cold templates straight into the rush:")
    surge_templates = register_all(SURGE_STATEMENTS)
    # Empty caches: nothing to recost-reuse, so early instances all
    # contend for the 1-wide optimizer gate under 4x traffic.
    surge_instances = phase_workload(surge_templates, 150, seed_base=100)

    print(f"\nPhase 2: surge — {len(surge_instances)} cold-template instances "
          f"at 2000 qps (~4x what the optimizer gate absorbs)...")
    surge = drive(manager, surge_instances, offered_qps=2000)
    print(f"  outcomes: {dict(surge)}   "
          f"brownout: {manager.brownout_level.name.lower()}")

    print(f"\nPhase 3: calm again — {len(calm_instances)} instances "
          f"at 100 qps (hysteresis recovery)...")
    recovered = drive(manager, calm_instances, offered_qps=100)
    print(f"  outcomes: {dict(recovered)}   "
          f"brownout: {manager.brownout_level.name.lower()}")

    print("\nBrownout timeline (one level per tick, traced reasons):")
    coordinator = manager._overload_coordinator
    for t in coordinator.controller.transitions:
        print(f"  tick {t.tick:>3}  {t.previous.name.lower():>14} -> "
              f"{t.current.name.lower():<14} ({t.reason})")
    if not coordinator.controller.transitions:
        print("  (no transitions — raise the surge rate to see the ladder)")

    if reasons:
        print("\nDegraded-serve reasons:")
        for reason, count in reasons.most_common():
            print(f"  {reason:<22} {count}")

    print()
    print(format_table([coordinator.report()], title="Overload report"))
    print()
    print(format_table(manager.serving_report(),
                       title="Per-shard serving + health"))
    manager.close()
    print("\nRun completed: every response labeled, nothing hung.")


if __name__ == "__main__":
    main()
