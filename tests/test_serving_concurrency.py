"""Deterministic concurrency stress tests for the serving layer.

Seeded, barrier-started threads hammer one :class:`ConcurrentPQOManager`
and the suite asserts the guarantee survives every interleaving:

* no lost updates — every submitted instance is processed and counted;
* cache integrity — no duplicate plan ids or signatures, every instance
  entry points at a live plan, the plan budget ``k`` is never exceeded
  (not even transiently: ``max_plans_seen ≤ k``);
* the guarantee — every choice flagged ``certified=True`` has observed
  sub-optimality ≤ λ against an independent oracle;
* determinism — two runs with the same seed produce identical
  interleaving-invariant metrics, and a single-worker run reproduces
  the serial reference manager (``tests/reference_manager.py``)
  decision-for-decision.
"""

from __future__ import annotations

import random
import threading
import time

import pytest

from repro.engine.database import Database
from repro.obs import RESPONSES_TOTAL, Observability
from repro.query.instance import QueryInstance
from repro.query.template import QueryTemplate, join, range_predicate
from repro.serving import ConcurrentPQOManager, simulated_latency_wrapper
from repro.workload.generator import generate_selectivity_vectors

from conftest import build_toy_schema
from reference_manager import ReferenceManager

LAM = 2.0
SEED = 1234
NUM_THREADS = 8
INSTANCES_PER_TEMPLATE = 60


def serving_templates() -> list[QueryTemplate]:
    """Four toy-database join templates with distinct parameterizations."""
    specs = [
        ("orders", "o_date", "<="),
        ("orders", "o_amount", "<="),
        ("cust", "c_bal", "<="),
        ("cust", "c_bal", ">="),
    ]
    return [
        QueryTemplate(
            name=f"serve_t{i}",
            database="toy",
            tables=["orders", "cust"],
            joins=[join("orders", "o_cust", "cust", "c_id")],
            parameterized=[
                range_predicate(table, column, op),
                range_predicate("orders", "o_date", ">="),
            ],
        )
        for i, (table, column, op) in enumerate(specs)
    ]


def make_workload(
    templates: list[QueryTemplate], per_template: int, seed: int
) -> list[QueryInstance]:
    instances: list[QueryInstance] = []
    for i, template in enumerate(templates):
        for sv in generate_selectivity_vectors(2, per_template, seed=seed + i):
            instances.append(QueryInstance(template.name, sv=sv))
    random.Random(seed).shuffle(instances)
    return instances


def hammer(manager: ConcurrentPQOManager, instances, num_threads: int):
    """Barrier-started threads draining a shared workload; returns the
    choices aligned with ``instances`` order."""
    results = [None] * len(instances)
    errors: list[BaseException] = []
    barrier = threading.Barrier(num_threads)
    cursor = iter(range(len(instances)))
    cursor_lock = threading.Lock()

    def worker():
        barrier.wait()
        while True:
            with cursor_lock:
                i = next(cursor, None)
            if i is None:
                return
            try:
                results[i] = manager.process(instances[i])
            except BaseException as exc:  # surfaced to the main thread
                errors.append(exc)
                return

    threads = [threading.Thread(target=worker) for _ in range(num_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return results


def run_stress(seed: int, num_threads: int, plan_budget: int = 3, obs=None):
    db = Database.create(build_toy_schema(), seed=11)
    templates = serving_templates()
    manager = ConcurrentPQOManager(
        database=db, max_workers=num_threads, obs=obs
    )
    for template in templates:
        manager.register(template, lam=LAM, plan_budget=plan_budget)
    instances = make_workload(templates, INSTANCES_PER_TEMPLATE, seed)
    choices = hammer(manager, instances, num_threads)
    manager.close()
    return db, templates, manager, instances, choices


def observed_violations(db, templates, instances, choices) -> int:
    """Certified instances whose true sub-optimality exceeds λ."""
    oracles = {t.name: db.engine(t) for t in templates}
    violations = 0
    for instance, choice in zip(instances, choices):
        if not choice.certified:
            continue
        oracle = oracles[instance.template_name]
        optimal = oracle.optimize(instance.sv).cost
        chosen = oracle.recost(choice.shrunken_memo, instance.sv)
        if chosen / optimal > LAM * (1 + 1e-6):
            violations += 1
    return violations


class TestStressInvariants:
    def test_no_lost_updates_and_cache_integrity(self):
        db, templates, manager, instances, choices = run_stress(
            SEED, NUM_THREADS
        )
        assert all(choice is not None for choice in choices)

        total = sum(
            manager.shard(t.name).scr.instances_processed for t in templates
        )
        assert total == len(instances), "lost or double-counted instances"

        for template in templates:
            cache = manager.shard(template.name).scr.cache
            plans = cache.plans()
            plan_ids = [p.plan_id for p in plans]
            signatures = [p.signature for p in plans]
            assert len(set(plan_ids)) == len(plan_ids)
            assert len(set(signatures)) == len(signatures)
            for entry in cache.instances():
                assert cache.has_plan(entry.plan_id), (
                    "instance entry points at a dropped plan"
                )

    def test_plan_budget_never_exceeded(self):
        _, templates, manager, _, _ = run_stress(SEED, NUM_THREADS, plan_budget=2)
        for template in templates:
            cache = manager.shard(template.name).scr.cache
            assert cache.num_plans <= 2
            # max_plans_seen is updated inside the write-locked add, so a
            # transient overshoot would be recorded here.
            assert cache.max_plans_seen <= 2

    def test_certified_instances_respect_lambda(self):
        db, templates, _, instances, choices = run_stress(SEED, NUM_THREADS)
        assert all(c.certified for c in choices)
        assert observed_violations(db, templates, instances, choices) == 0

    def test_same_seed_same_invariant_metrics(self):
        runs = []
        for _ in range(2):
            db, templates, manager, instances, choices = run_stress(
                SEED, NUM_THREADS
            )
            runs.append({
                "per_template": {
                    t.name: manager.shard(t.name).scr.instances_processed
                    for t in templates
                },
                "uncertified": sum(1 for c in choices if not c.certified),
                "violations": observed_violations(
                    db, templates, instances, choices
                ),
            })
        assert runs[0] == runs[1]
        assert runs[0]["violations"] == 0


class TestAccountingIdentity:
    """One write path: the report is a read of the registry, whether the
    registry is the handle's or a shard's private one."""

    @pytest.mark.parametrize("with_obs", [True, False])
    def test_total_is_the_sum_of_rows_is_the_registry(self, with_obs):
        from repro.serving.stats import (
            CHECKS_TOTAL,
            EPOCH_RETRIES_TOTAL,
            SERVING_LATENCY_SECONDS,
            SINGLE_FLIGHT_COLLAPSED_TOTAL,
        )

        obs = Observability() if with_obs else None
        _, templates, manager, instances, _ = run_stress(
            SEED, NUM_THREADS, obs=obs
        )
        *rows, total = manager.serving_report()
        assert [r["template"] for r in rows] == sorted(t.name for t in templates)
        assert total["template"] == "TOTAL"
        assert total["processed"] == len(instances)
        assert total["shed"] == total["uncertified"] == 0
        for key in (
            "processed", "sf_collapsed", "deduped", "epoch_retries",
            "uncertified", "shed", "overload_serves", "deadline_miss",
            "gate_timeouts", "queue_rejects",
        ):
            assert total[key] == sum(r[key] for r in rows), key
        for key in ("peak_engine_conc", "queue_hw"):
            assert total[key] == max(r[key] for r in rows), key

        # With a handle every shard writes the handle's registry; without
        # one each shard has its own.
        registries = {
            id(s.audit.registry): s.audit.registry
            for s in manager.serving_stats()
        }
        assert len(registries) == (1 if with_obs else len(templates))
        if with_obs:
            assert registries == {id(obs.registry): obs.registry}

        def registry_total(name, **fixed):
            return sum(r.total(name, **fixed) for r in registries.values())

        assert registry_total(RESPONSES_TOTAL) == total["processed"]
        assert registry_total(RESPONSES_TOTAL, outcome="certified") == (
            total["processed"] - total["uncertified"]
        )
        assert registry_total(CHECKS_TOTAL) == total["processed"]
        assert registry_total(EPOCH_RETRIES_TOTAL) == total["epoch_retries"]
        assert registry_total(SINGLE_FLIGHT_COLLAPSED_TOTAL) == (
            total["sf_collapsed"]
        )
        assert sum(
            child.count
            for r in registries.values()
            for _, child in r.get(SERVING_LATENCY_SECONDS).samples()
        ) == total["processed"]


class TestSerialEquivalence:
    def test_single_worker_matches_serial_manager(self):
        templates = serving_templates()

        db_serial = Database.create(build_toy_schema(), seed=11)
        serial = ReferenceManager(
            db_serial, global_plan_budget=12, rebalance_every=50
        )
        for t in templates:
            serial.register(t, lam=LAM)
        workload = make_workload(templates, 40, SEED)
        serial_choices = [serial.process(i) for i in workload]

        db_conc = Database.create(build_toy_schema(), seed=11)
        concurrent = ConcurrentPQOManager(
            database=db_conc,
            max_workers=1,
            global_plan_budget=12,
            rebalance_every=50,
        )
        for t in templates:
            concurrent.register(t, lam=LAM)
        concurrent_choices = [concurrent.process(i) for i in workload]
        concurrent.close()

        assert [c.check for c in serial_choices] == [
            c.check for c in concurrent_choices
        ]
        assert [c.plan_signature for c in serial_choices] == [
            c.plan_signature for c in concurrent_choices
        ]
        for t in templates:
            s, c = serial.scrs[t.name], concurrent.shard(t.name).scr
            assert s.optimizer_calls == c.optimizer_calls
            assert s.plans_cached == c.plans_cached
            assert s.cache.num_instances == c.cache.num_instances
            assert s.manage_cache.plan_budget == c.manage_cache.plan_budget


class TestSingleFlight:
    def test_identical_vectors_collapse_to_one_optimize(self):
        db = Database.create(build_toy_schema(), seed=11)
        template = serving_templates()[0]
        manager = ConcurrentPQOManager(
            database=db,
            max_workers=NUM_THREADS,
            engine_wrapper=simulated_latency_wrapper(
                optimize_seconds=0.05, recost_seconds=0.0,
                selectivity_seconds=0.0,
            ),
        )
        manager.register(template, lam=LAM)
        sv = generate_selectivity_vectors(2, 1, seed=3)[0]
        instances = [
            QueryInstance(template.name, sv=sv) for _ in range(NUM_THREADS)
        ]
        choices = hammer(manager, instances, NUM_THREADS)
        manager.close()

        inner = db.engine(template)
        assert inner.counters.optimize.calls == 1, (
            "concurrent identical misses must single-flight into one "
            "optimizer call"
        )
        assert len({c.plan_signature for c in choices}) == 1
        row = manager.serving_report()[0]
        assert row["sf_collapsed"] >= 1


class TestSimulatedLatency:
    def test_point_and_robust_svector_calls_both_pay_the_delay(self):
        """Robust-mode shards fetch the sVector through
        ``selectivity_vector_with_error``; it must not fall through the
        wrapper's ``__getattr__`` to the raw engine unslept."""
        delay = 0.02
        db = Database.create(build_toy_schema(), seed=11)
        template = serving_templates()[0]
        engine = simulated_latency_wrapper(
            optimize_seconds=0.0, recost_seconds=0.0,
            selectivity_seconds=delay,
        )(db.engine(template))
        instance = QueryInstance(template.name, parameters=(500.0, 300.0))
        for call in (
            engine.selectivity_vector, engine.selectivity_vector_with_error
        ):
            start = time.perf_counter()
            call(instance)
            assert time.perf_counter() - start >= delay, call.__name__


class TestBatchedAdmission:
    def test_submit_batch_dedupes_identical_vectors(self):
        db = Database.create(build_toy_schema(), seed=11)
        templates = serving_templates()[:2]
        manager = ConcurrentPQOManager(database=db, max_workers=4)
        for t in templates:
            manager.register(t, lam=LAM)
        base = make_workload(templates, 10, SEED)
        batch = base + base[:7]  # 7 duplicates of earlier instances
        choices = manager.process_many(batch)
        manager.close()

        assert len(choices) == len(batch)
        for i in range(7):
            assert choices[len(base) + i] is choices[i], (
                "duplicates must share the first occurrence's PlanChoice"
            )
        deduped = sum(
            manager.shard(t.name).stats.batch_deduped for t in templates
        )
        assert deduped == 7
        processed = sum(
            manager.shard(t.name).scr.instances_processed for t in templates
        )
        assert processed == len(base)

    def test_submit_batch_without_dedupe_processes_all(self):
        db = Database.create(build_toy_schema(), seed=11)
        template = serving_templates()[0]
        manager = ConcurrentPQOManager(database=db, max_workers=4)
        manager.register(template, lam=LAM)
        sv = generate_selectivity_vectors(2, 1, seed=3)[0]
        batch = [QueryInstance(template.name, sv=sv) for _ in range(5)]
        choices = manager.process_many(batch, dedupe=False)
        manager.close()
        assert len(choices) == 5
        assert manager.shard(template.name).scr.instances_processed == 5


class TestSnapshotSemantics:
    def test_snapshot_is_copy_on_write(self):
        from repro.core.scr import SCR

        db = Database.create(build_toy_schema(), seed=11)
        template = serving_templates()[0]
        scr = SCR(db.engine(template), lam=LAM)
        sv = generate_selectivity_vectors(2, 3, seed=7)

        snap0 = scr.cache.snapshot()
        assert snap0 is scr.cache.snapshot(), "unchanged cache: same object"
        scr.process(QueryInstance(template.name, sv=sv[0]))
        snap1 = scr.cache.snapshot()
        assert snap1 is not snap0
        assert snap1.epoch > snap0.epoch
        assert len(snap1.entries) == 1
        # The old snapshot still reflects the pre-mutation state.
        assert len(snap0.entries) == 0


class TestCommitValidation:
    """Optimistic-commit validation must re-read the retired flag under
    the lock: retiring an anchor (Appendix G) does not bump the cache
    epoch, so the epoch fast-path alone would certify a cost bound the
    violation detector just invalidated."""

    def _shard_with_anchor(self):
        from repro.workload.generator import generate_selectivity_vectors

        db = Database.create(build_toy_schema(), seed=11)
        template = serving_templates()[0]
        manager = ConcurrentPQOManager(database=db, max_workers=1)
        manager.register(template, lam=LAM)
        sv = generate_selectivity_vectors(2, 1, seed=3)[0]
        manager.process(QueryInstance(template.name, sv=sv))
        manager.close()
        shard = manager.shard(template.name)
        entry = next(shard.scr.cache.instances())
        return shard, entry

    def test_retired_anchor_rejected_on_epoch_fast_path(self):
        from repro.core.get_plan import CheckKind, GetPlanDecision

        shard, entry = self._shard_with_anchor()
        cache = shard.scr.cache
        snapshot = cache.snapshot()
        cost_hit = GetPlanDecision(
            plan_id=entry.plan_id, check=CheckKind.COST, anchor=entry,
            recost_calls=1, recost_ratio=1.0, g=1.0, l=1.0,
        )
        assert shard._commit_valid(cost_hit, snapshot)

        entry.retired = True
        # Retirement leaves the epoch untouched -- exactly the hole the
        # fast-path-only validation had.
        assert cache.epoch == snapshot.epoch
        assert not shard._commit_valid(cost_hit, snapshot)

    def test_retired_anchor_still_serves_selectivity_hits(self):
        from repro.core.get_plan import CheckKind, GetPlanDecision

        shard, entry = self._shard_with_anchor()
        snapshot = shard.scr.cache.snapshot()
        entry.retired = True
        sel_hit = GetPlanDecision(
            plan_id=entry.plan_id, check=CheckKind.SELECTIVITY, anchor=entry,
            g=1.0, l=1.0,
        )
        # Serial semantics keep retired anchors in the selectivity check.
        assert shard._commit_valid(sel_hit, snapshot)


class TestMissAccounting:
    def test_concurrent_hit_miss_counters_match_serial_semantics(self):
        _, templates, manager, _, _ = run_stress(SEED, NUM_THREADS)
        for template in templates:
            scr = manager.shard(template.name).scr
            gp = scr.get_plan
            # Every served instance commits exactly one decision, and
            # every miss corresponds to one optimizer call (no faults
            # are injected here, so there are no fallbacks).
            assert (
                gp.selectivity_hits + gp.cost_hits + gp.misses
                == scr.instances_processed
            )
            assert gp.misses == scr.optimizer_calls
            assert gp.misses >= 1
            assert gp.total_recost_calls >= 0


class TestQuarantineWithoutGlobalBudget:
    def test_breaker_open_quarantines_on_rebalance_schedule(self):
        from repro.engine.resilience import (
            BreakerState,
            resilient_engine_factory,
        )
        from repro.workload.generator import generate_selectivity_vectors

        db = Database.create(build_toy_schema(), seed=11)
        template = serving_templates()[0]
        manager = ConcurrentPQOManager(
            database=db,
            max_workers=2,
            rebalance_every=5,
            engine_wrapper=resilient_engine_factory(sleep=lambda s: None),
        )
        manager.register(template, lam=LAM)
        assert manager.global_plan_budget is None

        manager.shard(template.name).engine.recost_breaker.state = (
            BreakerState.OPEN
        )
        svs = generate_selectivity_vectors(2, 6, seed=5)
        for sv in svs:
            manager.process(QueryInstance(template.name, sv=sv))
        manager.close()
        # The quarantine sweep must run at rebalance points even with no
        # global plan budget configured.
        assert manager.quarantined_templates == [template.name]
