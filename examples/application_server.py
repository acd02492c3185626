#!/usr/bin/env python3
"""A miniature application server: SQL templates, shared cache, restarts.

Simulates the deployment the paper motivates — an application firing
several parameterized SQL statements with shifting parameters — using
the higher-level machinery built on top of SCR:

* templates are defined as parameterized SQL text (``?`` markers) and
  parsed by the SQL front-end;
* a :class:`ConcurrentPQOManager` hosts all templates under one global
  plan budget, auto-rebalancing it toward the templates under optimizer
  pressure (``process`` serves each instance on the calling thread);
* per-template λ is chosen with the section 6.2 heuristic from observed
  optimization time vs execution cost;
* the plan cache is persisted to JSON and reloaded, simulating a server
  restart that keeps its warm cache.

Run:  python examples/application_server.py
"""

import random

from repro import Database, tpch_schema
from repro.core.dynamic_lambda import choose_lambda
from repro.core.persistence import dump_cache, load_cache
from repro.harness.reporting import format_table
from repro.query.instance import QueryInstance
from repro.query.sql import parse_sql
from repro.serving import ConcurrentPQOManager
from repro.workload import instances_for_template

STATEMENTS = {
    "recent_orders": """
        SELECT * FROM orders, customer
        WHERE orders.o_custkey = customer.c_custkey
          AND orders.o_orderdate >= ?
          AND customer.c_acctbal >= ?
    """,
    "big_line_items": """
        SELECT COUNT(*) FROM lineitem, orders
        WHERE lineitem.l_orderkey = orders.o_orderkey
          AND lineitem.l_extendedprice >= ?
          AND orders.o_totalprice >= ?
    """,
    "quantity_report": """
        SELECT COUNT(*) FROM lineitem
        WHERE lineitem.l_quantity <= ?
          AND lineitem.l_discount <= ?
    """,
}


def main() -> None:
    print("Booting the 'application server' on a TPC-H-like database...")
    db = Database.create(tpch_schema(scale=0.4), seed=9)
    manager = ConcurrentPQOManager(
        database=db, global_plan_budget=12, rebalance_every=100
    )

    templates = {}
    for name, sql in STATEMENTS.items():
        template = parse_sql(sql, name=name, database="tpch")
        templates[name] = template
        # Probe the engine once to choose lambda per section 6.2.
        engine = db.engine(template)
        probe = instances_for_template(template, 1, seed=1)[0]
        result = engine.optimize(engine.selectivity_vector(probe))
        lam = choose_lambda(
            engine.counters.optimize.mean_seconds, result.cost
        )
        manager.register(template, lam=lam)
        print(f"  registered {name:<16} d={template.dimensions} "
              f"lambda={lam:.2f}")

    # Phase 1: a mixed stream of 600 instances across the statements.
    rng = random.Random(4)
    streams = {
        name: instances_for_template(t, 200, seed=i)
        for i, (name, t) in enumerate(templates.items())
    }
    mixed = [
        (name, inst) for name, stream in streams.items() for inst in stream
    ]
    rng.shuffle(mixed)

    print(f"\nPhase 1: serving {len(mixed)} query instances...")
    for name, inst in mixed:
        manager.process(QueryInstance(name, parameters=inst.parameters,
                                      sv=inst.sv))
    print(format_table(manager.report(), title="\nPer-template state"))
    print(f"total plans cached : {manager.total_plans_cached} "
          f"(global budget 12)")
    print(f"total optimizer calls: {manager.total_optimizer_calls} "
          f"/ {len(mixed)}")

    # Phase 2: persist each template's cache and "restart".
    print("\nSimulating restart: persisting and restoring plan caches...")
    dumps = {
        name: dump_cache(manager.shard(name).scr.cache)
        for name in templates
    }
    total_bytes = sum(len(d) for d in dumps.values())
    print(f"  serialized {len(dumps)} caches, {total_bytes / 1024:.1f} KiB total")

    manager2 = ConcurrentPQOManager(database=db, global_plan_budget=12)
    for name, template in templates.items():
        shard = manager2.register(template)
        shard.scr.cache.adopt(load_cache(dumps[name]))

    warm_hits = 0
    probes = 0
    for name, stream in streams.items():
        for inst in stream[:30]:
            choice = manager2.process(
                QueryInstance(name, parameters=inst.parameters, sv=inst.sv)
            )
            probes += 1
            if not choice.used_optimizer:
                warm_hits += 1
    print(f"  after restart: {warm_hits}/{probes} instances served from "
          f"the restored cache without optimizer calls")


if __name__ == "__main__":
    main()
