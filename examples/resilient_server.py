#!/usr/bin/env python3
"""Chaos-testing demo: a PQO server that survives a misbehaving engine.

Runs the application-server scenario with every engine API wrapped in
the fault-injection + resilience stack:

* a seeded :class:`FaultInjector` makes recost calls fail or return
  garbage ~20% of the time, optimizer calls time out ~5% of the time,
  and sVector calls occasionally go stale;
* a :class:`ResilientEngineAPI` retries with exponential backoff and
  deterministic jitter, trips a circuit breaker on the Recost API, and
  degrades *fail-closed*: failed recosts become cost-check misses,
  failed optimizations serve the best cached plan flagged uncertified,
  failed sVector calls reuse the last-known-good vector inflated;
* the :class:`ConcurrentPQOManager` quarantines templates whose breaker
  stays open — swept at its rebalance points — freezing their
  plan-budget share until the engine heals.

The run completes without a crash, and the final report shows the
fault / retry / breaker accounting plus which instances kept the
λ-guarantee.

With ``--robust`` the server additionally treats the sVector API as
noisy (a seeded ±20% multiplicative band) and registers every template
with ``check_mode="robust"``: certificates are then corner-valid over
the whole noise band, and the final report shows the certificate mix.

Run:  python examples/resilient_server.py [--robust]
"""

import argparse
import random
from collections import Counter

from repro import Database, tpch_schema
from repro.engine.faults import FaultConfig, FaultInjector, FaultProfile, NoisyEngine
from repro.engine.resilience import (
    ResiliencePolicy,
    ResilientEngineAPI,
    RetryPolicy,
)
from repro.harness.reporting import format_table
from repro.obs import Observability
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
    "quantity_report": """
        SELECT COUNT(*) FROM lineitem
        WHERE lineitem.l_quantity <= ?
          AND lineitem.l_discount <= ?
    """,
}

POLICY = ResiliencePolicy(
    retry=RetryPolicy(max_attempts=3, base_backoff=0.0005, max_backoff=0.005),
    breaker_failure_threshold=5,
    breaker_cooldown_calls=20,
    svector_inflation=1.5,
)


def main(robust: bool = False) -> None:
    print("Booting the resilient PQO server on a TPC-H-like database...")
    db = Database.create(tpch_schema(scale=0.3), seed=9)
    obs = Observability()
    # A live sink counts every event span as it happens, whatever the
    # bounded span ring later evicts.
    events = Counter()

    def count_event(span):
        events[span.name] += 1

    obs.spans.attach_sink(count_event)
    injectors = {}

    def chaos_wrapper(engine):
        injector = FaultInjector(
            engine,
            FaultConfig.chaos(
                recost_failure_rate=0.20,
                optimize_timeout_rate=0.05,
                svector_corrupt_rate=0.01,
            ),
            seed=len(injectors),
        )
        injectors[engine.template.name] = injector
        inner = injector
        if robust:
            # Estimation error on top of the faults: the sVector comes
            # back perturbed inside an honest ±20% band, which the
            # robust checks certify against at the adversarial corner.
            inner = NoisyEngine(inner, noise=0.2, seed=len(injectors))
        return ResilientEngineAPI(inner, policy=POLICY, seed=len(injectors))

    manager = ConcurrentPQOManager(
        database=db, global_plan_budget=10, rebalance_every=25,
        engine_wrapper=chaos_wrapper, obs=obs,
        check_mode="robust" if robust else None,
    )

    mode_note = " check=robust" if robust else ""
    templates = {}
    for name, sql in STATEMENTS.items():
        template = parse_sql(sql, name=name, database="tpch")
        templates[name] = template
        manager.register(template, lam=2.0)
        print(f"  registered {name:<16} d={template.dimensions} "
              f"lambda=2.00{mode_note}")

    rng = random.Random(4)
    mixed = [
        (name, inst)
        for i, (name, t) in enumerate(templates.items())
        for inst in instances_for_template(t, 250, seed=i)
    ]
    rng.shuffle(mixed)

    served = certified = fallbacks = 0
    certificates = {}

    def serve(batch):
        nonlocal served, certified, fallbacks
        for name, inst in batch:
            choice = manager.process(
                QueryInstance(name, parameters=inst.parameters, sv=inst.sv)
            )
            served += 1
            certified += choice.certified
            fallbacks += choice.check == "fallback"
            kind = choice.certificate if choice.certified else "uncertified"
            certificates[kind] = certificates.get(kind, 0) + 1

    third = len(mixed) // 3
    print(f"\nPhase 1: {third} instances through background chaos "
          f"(recost ~20% faulty, optimize ~5% timeouts)...")
    serve(mixed[:third])
    print(f"  quarantined so far: {manager.quarantined_templates or 'none'}")

    print(f"\nPhase 2: brown-out — recost fails 100%, optimize fails 60% "
          f"per attempt ({third} instances)...")
    for injector in injectors.values():
        injector.config = FaultConfig(
            recost=FaultProfile(error_rate=1.0),
            optimize=FaultProfile(error_rate=0.6),
        )
    serve(mixed[third:2 * third])
    print(f"  quarantined during brown-out: "
          f"{manager.quarantined_templates or 'none'}")

    print(f"\nPhase 3: engine heals ({len(mixed) - 2 * third} instances)...")
    for injector in injectors.values():
        injector.config = FaultConfig.chaos(svector_corrupt_rate=0.0)
    serve(mixed[2 * third:])
    print(f"  quarantined after heal: {manager.quarantined_templates or 'none'}")

    print(f"\nRun completed: {served} served, no crash.")
    print(f"  certified (λ-guaranteed) : {certified}")
    print(f"  uncertified (degraded)   : {served - certified}"
          f"  (of which optimizer fallbacks: {fallbacks})")
    mix = ", ".join(
        f"{kind}={count}" for kind, count in sorted(certificates.items())
    )
    print(f"  certificate mix          : {mix}")
    if manager.quarantined_templates:
        print(f"  quarantined templates    : {manager.quarantined_templates}")

    rows = []
    for name in sorted(templates):
        res = manager.shard(name).engine.counters.resilience
        injected = injectors[name].injected_count()
        rows.append({
            "template": name,
            "injected": injected,
            "faults": res.total_faults,
            "retries": res.retries,
            "recost fail-closed": res.recost_failed_closed,
            "breaker opens": res.breaker_opens,
            "short-circuits": res.breaker_short_circuits,
            "opt fallbacks": res.optimize_fallbacks,
            "sv fallbacks": res.selectivity_fallbacks,
        })
    print(format_table(rows, title="\nResilience accounting per template"))

    print("\nEvent spans:")
    for kind in ("fault", "retry", "breaker", "degraded"):
        print(f"  {kind:<10} {events[f'engine.{kind}']}")

    print(format_table(manager.report(), title="\nPer-template state"))
    print("\nFailure semantics recap: failed recosts can only cause cache "
          "misses (the bound is never\ncertified unverified); optimizer "
          "fallbacks are explicitly uncertified; the λ-guarantee\nholds for "
          "every certified instance.")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--robust", action="store_true",
        help="noisy sVector API + robust (corner-valid) guarantee checks",
    )
    main(robust=parser.parse_args().robust)
