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
  decision-for-decision;
* group equivalence — ``process_many`` decides every request exactly as
  a ``process()`` loop over the same stream does, however the stream is
  split into batches.
"""

from __future__ import annotations

import random
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.tpch import tpch_schema
from repro.engine.database import Database
from repro.obs import RESPONSES_TOTAL, Observability
from repro.query.instance import QueryInstance
from repro.query.template import QueryTemplate, join, range_predicate
from repro.serving import (
    ConcurrentPQOManager,
    OverloadPolicy,
    simulated_latency_wrapper,
)
from repro.workload.generator import (
    generate_selectivity_vectors,
    instances_for_template,
)
from repro.workload.templates import tpch_templates

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
                assert cache.maybe_plan(entry.plan_id) is not None, (
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
            for s in (manager.shard(t.name).stats for t in templates)
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


def tpch_stream(per_template: int, seed: int = 1) -> list[QueryInstance]:
    """The first six TPC-H templates, equal shares, shuffled."""
    stream: list[QueryInstance] = []
    for i, template in enumerate(tpch_templates()[:6]):
        stream.extend(
            instances_for_template(template, per_template, seed=seed * 1009 + i)
        )
    random.Random(seed).shuffle(stream)
    return stream


def tpch_manager(overload=None) -> ConcurrentPQOManager:
    """No global budget; templates alternate point and robust checks."""
    manager = ConcurrentPQOManager(
        database=Database.create(tpch_schema(1.0), seed=42),
        default_lambda=1.5, max_workers=2, overload=overload,
    )
    for i, template in enumerate(tpch_templates()[:6]):
        manager.register(template, check_mode="robust" if i % 2 else "point")
    return manager


def decision(choice) -> tuple:
    """Everything a served choice decided."""
    return (
        choice.plan_signature, choice.check, choice.certified,
        choice.certified_bound, choice.recost_calls, choice.used_optimizer,
    )


def loop_decisions(stream: list[QueryInstance]) -> tuple[list, int]:
    with tpch_manager() as manager:
        return (
            [decision(manager.process(q)) for q in stream],
            manager.total_optimizer_calls,
        )


def grouped_decisions(stream, cuts, overload=None) -> tuple[list, int]:
    """``process_many`` over ``stream`` split at ``cuts``."""
    out: list = []
    with tpch_manager(overload) as manager:
        for lo, hi in zip([0] + cuts, cuts + [len(stream)]):
            out.extend(
                decision(c)
                for c in manager.process_many(stream[lo:hi], dedupe=False)
            )
        return out, manager.total_optimizer_calls


#: Property stream and its ``process()``-loop decisions, computed once.
_PROPERTY_STREAM = tpch_stream(100, seed=7)
_PROPERTY_LOOP: list = []


class TestGroupEquivalence:
    """A template group is served in input order: a row sees the cache
    every earlier row left, exactly as in a ``process()`` loop.  No
    global budget here — under one, template groups served one after
    another meet rebalance points in a different cross-template order
    (DESIGN.md §8), which :class:`TestSerialEquivalence` covers."""

    def test_process_many_in_groups_of_16_matches_a_process_loop(self):
        stream = tpch_stream(333)
        loop, loop_calls = loop_decisions(stream)
        cuts = list(range(16, len(stream), 16))
        # The second arm admits every row through an ample overload
        # policy: no deadline, a queue that never fills, no brownout
        # evaluation.  Its groups decide as the plain manager's do.
        ample = OverloadPolicy(queue_limit=10**6, evaluate_every=10**6)
        for overload in (None, ample):
            grouped, grouped_calls = grouped_decisions(stream, cuts, overload)
            differing = [
                i for i, (a, b) in enumerate(zip(loop, grouped)) if a != b
            ]
            assert len(grouped) == len(loop) == len(stream)
            assert differing == [], overload
            assert grouped_calls == loop_calls, overload
        # The stream exercises every kind of decision.
        checks = {d[1] for d in loop}
        assert {"selectivity", "cost", "optimizer"} <= checks, checks

    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(st.lists(
        st.integers(min_value=1, max_value=48), min_size=1, max_size=40,
    ))
    def test_any_group_split_matches_a_process_loop(self, sizes):
        stream = _PROPERTY_STREAM
        if not _PROPERTY_LOOP:
            _PROPERTY_LOOP.append(loop_decisions(stream))
        loop, loop_calls = _PROPERTY_LOOP[0]
        cuts, at = [], 0
        for size in sizes:
            at += size
            if at >= len(stream):
                break
            cuts.append(at)
        grouped, grouped_calls = grouped_decisions(stream, cuts)
        assert grouped == loop
        assert grouped_calls == loop_calls


    def test_a_robust_shard_fed_exact_boxes_decides_as_an_scr_loop(self):
        """Instances that carry their selectivities are zero-width boxes
        on a robust shard, whose probe reuses the point factors as the
        corner ones.  Served as groups of one and as groups of 16, every
        row is decided as a bare ``SCR.process`` loop decides it."""
        template = tpch_templates()[1]  # robust under tpch_manager
        stream = instances_for_template(template, 400, seed=11)

        def serve(arm: str) -> tuple[list, int]:
            with tpch_manager() as manager:
                shard = manager.shard(template.name)
                assert shard.robust
                if arm == "scr":
                    out = [shard.scr.process(q) for q in stream]
                elif arm == "one":
                    out = [manager.process(q) for q in stream]
                else:
                    out = [
                        c for lo in range(0, len(stream), 16)
                        for c in manager.process_many(
                            stream[lo:lo + 16], dedupe=False
                        )
                    ]
                boxes = [
                    shard.engine.selectivity_vector_with_error_ex(q)[0]
                    for q in stream[:20]
                ]
                assert all(box.is_point for box in boxes)
                return [decision(c) for c in out], shard.scr.optimizer_calls

        loop, loop_calls = serve("scr")
        assert {d[1] for d in loop} >= {"selectivity", "cost", "optimizer"}
        for arm in ("one", "many"):
            assert serve(arm) == (loop, loop_calls), arm


def shipping_priority_manager(obs=None) -> tuple:
    """A one-worker manager serving ``tpch_shipping_priority`` (point
    checks, λ = 1.5), its shard, and that template's seeded stream,
    whose ``process()`` loop decides rows 12–14 as cost, optimizer,
    selectivity and rows 20–22 as optimizer, cost, optimizer."""
    template = next(
        t for t in tpch_templates() if t.name == "tpch_shipping_priority"
    )
    manager = ConcurrentPQOManager(
        database=Database.create(tpch_schema(1.0), seed=42),
        default_lambda=1.5, max_workers=1, obs=obs,
    )
    shard = manager.register(template)
    return manager, shard, instances_for_template(template, 23, seed=3)


def shipping_priority_loop(rows) -> tuple[list, object]:
    """A ``process()`` loop's decisions over ``rows`` (a failing row is
    its exception's type) and the SCR it left."""
    manager, shard, _ = shipping_priority_manager()
    out: list = []
    with manager:
        for q in rows:
            try:
                out.append(decision(shard.process(q)))
            except ValueError as exc:
                out.append(type(exc))
        return out, shard.scr


class TestOneProbeLoop:
    """Every row of a group — a failed fetch, an epoch retry, a
    single-flight follower — is decided in the group's one loop as a
    ``process()`` loop decides it."""

    def test_a_failed_fetch_fails_its_row_only(self):
        obs = Observability()
        manager, shard, stream = shipping_priority_manager(obs)
        bad = QueryInstance(shard.template.name, parameters=("garbage",))
        rows = [stream[0], bad, stream[1]]
        with manager:
            results = shard.process_batch(rows)
        assert [type(r).__name__ for r in results] == [
            "PlanChoice", "ValueError", "PlanChoice"
        ]
        loop, loop_scr = shipping_priority_loop(rows)
        assert [
            type(r) if isinstance(r, BaseException) else decision(r)
            for r in results
        ] == loop
        scr = shard.scr
        assert (
            scr.get_plan.total_recost_calls
            == loop_scr.get_plan.total_recost_calls
        )
        assert [
            (e.sv, e.optimal_cost) for e in scr.cache.instances()
        ] == [(e.sv, e.optimal_cost) for e in loop_scr.cache.instances()]
        (group,) = [
            s for s in obs.spans.spans() if s.name == "serving.batch"
        ]
        assert group.attrs["outcomes"] == ("certified", "shed", "certified")

    def test_an_epoch_retried_row_ends_as_in_a_loop(self):
        manager, shard, stream = shipping_priority_manager()
        loop, loop_scr = shipping_priority_loop(stream)
        assert [d[1] for d in loop[20:23]] == ["optimizer", "cost", "optimizer"]
        valid = shard._commit_valid
        rejected: list = []

        def reject_once(decision):
            if not rejected:
                rejected.append(decision)
                return False  # as if the anchor vanished mid-probe
            return valid(decision)

        with manager:
            warm = [decision(shard.process(q)) for q in stream[:20]]
            shard._commit_valid = reject_once
            group = [decision(c) for c in shard.process_batch(stream[20:])]
        assert len(rejected) == 1 and shard.stats.row()["epoch_retries"] == 1
        assert warm + group == loop
        assert (
            shard.scr.get_plan.total_recost_calls
            == loop_scr.get_plan.total_recost_calls
        )

    def test_a_single_flight_follower_ends_as_in_a_loop(self):
        manager, shard, stream = shipping_priority_manager()
        loop, loop_scr = shipping_priority_loop(stream[:15])
        assert [d[1] for d in loop[12:15]] == [
            "cost", "optimizer", "selectivity"
        ]
        key = shard.engine.selectivity_vector(stream[13]).values

        class LeaderJustFinished(threading.Event):
            """An in-flight optimize of row 13's vector that completes,
            registering nothing, the moment the follower waits on it."""

            def wait(self, timeout=None):
                shard._inflight.pop(key, None)
                return True

        with manager:
            warm = [decision(shard.process(q)) for q in stream[:12]]
            shard._inflight[key] = LeaderJustFinished()
            group = [decision(c) for c in shard.process_batch(stream[12:15])]
        assert shard.stats.row()["sf_collapsed"] == 1
        assert warm + group == loop
        assert (
            shard.scr.get_plan.total_recost_calls
            == loop_scr.get_plan.total_recost_calls
        )

    def test_under_a_coordinator_a_group_is_many_rows(self):
        """A coordinator admits and counts every row, and the rows are
        still served as one group: one ``serving.batch`` span."""
        obs = Observability()
        db = Database.create(build_toy_schema(), seed=11)
        (template,) = serving_templates()[:1]
        manager = ConcurrentPQOManager(
            database=db, max_workers=2, obs=obs,
            overload=OverloadPolicy(evaluate_every=10**6),
        )
        shard = manager.register(template, lam=LAM)
        rows = make_workload([template], 6, SEED)
        with manager:
            results = shard.process_batch(rows)
        assert all(r.plan_signature for r in results)
        (group,) = [s for s in obs.spans.spans() if s.name == "serving.batch"]
        assert len(group.attrs["seqs"]) == len(rows)
        assert group.attrs["brownout"] == (0,) * len(rows)
        assert manager._overload_coordinator._window_served == len(rows)


def lane_templates() -> list[QueryTemplate]:
    """Six toy join templates: the four serving ones and two more."""
    extra = [
        QueryTemplate(
            name=f"serve_t{4 + i}",
            database="toy",
            tables=["orders", "cust"],
            joins=[join("orders", "o_cust", "cust", "c_id")],
            parameterized=[
                range_predicate("orders", column, ">="),
                range_predicate("cust", "c_bal", "<="),
            ],
        )
        for i, column in enumerate(("o_amount", "o_date"))
    ]
    return serving_templates() + extra


class TestLaneDispatch:
    """A dispatch is one lane: ``min(units, max_workers)`` pool tasks
    take the batch's units (one group per template, with or without an
    overload policy) in order from one shared cursor.  Each unit keeps
    its own trace context, its failure isolation and its shutdown
    semantics."""

    @staticmethod
    def lane_manager(max_workers: int, **kwargs) -> tuple:
        manager = ConcurrentPQOManager(
            database=Database.create(build_toy_schema(), seed=11),
            max_workers=max_workers, **kwargs,
        )
        templates = lane_templates()
        for t in templates:
            manager.register(t, lam=LAM)
        return manager, templates, make_workload(templates, 3, SEED)

    @staticmethod
    def count_submissions(manager) -> list:
        calls: list = []
        submit = manager._executor.submit

        def counting(fn, *args, **kwargs):
            calls.append(fn)
            return submit(fn, *args, **kwargs)

        manager._executor.submit = counting
        return calls

    @pytest.mark.parametrize("max_workers, tasks", [(1, 1), (8, 6)])
    def test_a_batch_is_at_most_max_workers_pool_tasks(
        self, max_workers, tasks
    ):
        manager, templates, workload = self.lane_manager(max_workers)
        calls = self.count_submissions(manager)
        with manager:
            results = manager.process_many(workload, dedupe=False)
        assert len(results) == len(workload) == 18
        assert all(r.plan_signature for r in results)
        assert len(calls) == tasks
        assert all(
            manager.shard(t.name).instances_seen == 3 for t in templates
        )

    def test_under_an_overload_policy_each_template_is_one_unit(self):
        obs = Observability()
        manager, templates, workload = self.lane_manager(
            8, obs=obs, overload=OverloadPolicy(evaluate_every=10**6),
        )
        calls = self.count_submissions(manager)
        with manager:
            manager.process_many(workload, dedupe=False)
            assert manager._overload_coordinator.pending == 0
        groups = [s for s in obs.spans.spans() if s.name == "serving.batch"]
        assert sorted(g.attrs["template"] for g in groups) == [
            t.name for t in templates
        ]
        assert all(len(g.attrs["seqs"]) == 3 for g in groups)
        assert len(calls) == len(templates)

    def test_a_raising_group_fails_only_its_own_rows(self):
        manager, templates, workload = self.lane_manager(1)
        broken = manager.shard(templates[1].name)

        def boom(instances, **kwargs):
            raise RuntimeError("shard failed")

        broken.process_batch = boom
        with manager:
            with pytest.raises(RuntimeError, match="shard failed"):
                manager.process_many(workload, dedupe=False)
            lane, _ = manager._dispatch(workload, False)
            for task in lane.tasks:
                task.result(timeout=10)
        for q, row in zip(workload, lane.rows()):
            failed = q.template_name == broken.template.name
            assert isinstance(row, RuntimeError) == failed
        assert broken.instances_seen == 0
        assert all(
            manager.shard(t.name).instances_seen == 6
            for t in templates if t.name != broken.template.name
        )

    def test_close_nowait_mid_lane_resolves_every_row(self):
        from repro.serving import ShutdownError

        manager, templates, workload = self.lane_manager(1)
        started, release = threading.Event(), threading.Event()
        blocked = manager.shard(templates[1].name)
        serve = blocked.process_batch

        def blocking(instances, **kwargs):
            started.set()
            release.wait(timeout=10)
            return serve(instances, **kwargs)

        blocked.process_batch = blocking
        try:
            lane, _ = manager._dispatch(workload, False)
            assert started.wait(timeout=10)
            manager.close(wait=False)
            for task in lane.tasks:
                assert isinstance(task.exception(timeout=10), ShutdownError)
            rows = lane.rows()
        finally:
            release.set()
        manager._executor.shutdown(wait=True)
        for q, row in zip(workload, rows):
            if q.template_name == templates[0].name:
                assert row.plan_signature
            else:
                assert isinstance(row, ShutdownError)
        # The started unit finished; no later unit started.
        assert [
            manager.shard(t.name).instances_seen for t in templates
        ] == [3, 3, 0, 0, 0, 0]

    def test_every_group_keeps_its_own_trace(self):
        obs = Observability(spans_enabled=True)
        manager, templates, workload = self.lane_manager(1, obs=obs)
        with manager:
            manager.process_many(workload, dedupe=False)
        spans = obs.spans.spans()
        groups = [s for s in spans if s.name == "serving.batch"]
        assert len(groups) == len(templates)
        assert len({g.trace_id for g in groups}) == len(templates)
        for group in groups:
            names = sorted(
                s.name for s in obs.spans.trace(group.trace_id)
                if s.name.startswith("serving.")
            )
            assert names.count("serving.batch") == 1
            assert names.count("serving.queue_wait") == 1


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
    def test_process_many_dedupes_identical_vectors(self):
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

    def test_process_many_without_dedupe_processes_all(self):
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

        view0 = scr.cache.columnar()
        assert view0 is scr.cache.columnar(), "unchanged cache: same object"
        scr.process(QueryInstance(template.name, sv=sv[0]))
        view1 = scr.cache.columnar()
        assert view1 is not view0
        assert view1.epoch > view0.epoch
        assert len(view1) == 1
        # The old view still reflects the pre-mutation state.
        assert len(view0) == 0


class TestCommitValidation:
    """Optimistic-commit validation of a hit probed on a held view.

    A hit is committed only into the column store it was probed
    against: appends keep the store, while a drop, an adoption or a
    recost sweep replaces it and sends the row back to be probed.  The
    retired flag must be re-read under the lock: retiring an anchor
    (Appendix G) replaces nothing, so the store check alone would
    certify a cost bound the violation detector just invalidated."""

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

    @staticmethod
    def _selectivity_hit(view):
        from repro.core.get_plan import CheckKind, GetPlanDecision

        return GetPlanDecision(
            plan_id=int(view.plan_ids[0]), check=CheckKind.SELECTIVITY,
            row=0, view=view, g=1.0, l=1.0,
        )

    @staticmethod
    def _unrelated_entry(entry):
        from repro.core.plan_cache import InstanceEntry
        from repro.query.instance import SelectivityVector

        return InstanceEntry(
            sv=SelectivityVector.from_sequence(
                [v / 2 for v in entry.sv.values]
            ),
            plan_id=entry.plan_id, optimal_cost=entry.optimal_cost,
            suboptimality=1.0,
        )

    @staticmethod
    def _frozen(view) -> tuple:
        """The held view's write-once array bytes, to compare later."""
        return tuple(
            getattr(view, name).tobytes()
            for name in ("sv", "log_sv", "sub", "cost", "plan_ids", "area")
        )

    @staticmethod
    def _mutate_after_first_probe(shard, mutation) -> None:
        """The first probed row's decision is taken, then ``mutation``
        lands before the shard takes its lock to commit."""
        get_plan = shard.scr.get_plan
        probe_rows = get_plan.probe_rows
        pending = [mutation]

        def probe_then_mutate(*args, **kwargs):
            for decision in probe_rows(*args, **kwargs):
                if pending:
                    pending.pop()()
                yield decision

        get_plan.probe_rows = probe_then_mutate

    def test_retired_anchor_rejected_on_epoch_fast_path(self):
        from repro.core.get_plan import CheckKind, GetPlanDecision

        shard, entry = self._shard_with_anchor()
        cache = shard.scr.cache
        view = cache.columnar()
        cost_hit = GetPlanDecision(
            plan_id=entry.plan_id, check=CheckKind.COST, row=0, view=view,
            recost_calls=1, recost_ratio=1.0, g=1.0, l=1.0,
        )
        assert shard._commit_valid(cost_hit)

        assert view.store.retire(0)
        # Retirement leaves the epoch and the store untouched -- exactly
        # the hole a store-only validation would have.
        assert cache.epoch == view.epoch and cache.holds(view)
        assert not shard._commit_valid(cost_hit)

    def test_retired_anchor_still_serves_selectivity_hits(self):
        shard, entry = self._shard_with_anchor()
        view = shard.scr.cache.columnar()
        assert view.store.retire(0)
        # Serial semantics keep retired anchors in the selectivity check.
        assert shard._commit_valid(self._selectivity_hit(view))

    def test_unrelated_append_after_probe_commits(self):
        shard, entry = self._shard_with_anchor()
        cache = shard.scr.cache
        view = cache.columnar()
        frozen = self._frozen(view)
        cache.add_instance(self._unrelated_entry(entry))
        # An append moves the epoch but keeps the store.
        assert cache.epoch != view.epoch and cache.holds(view)
        assert shard._commit_valid(self._selectivity_hit(view))
        assert self._frozen(view) == frozen and len(view) == 1

        # The same interleaving through process(): the hit commits.
        self._mutate_after_first_probe(
            shard, lambda: cache.add_instance(self._unrelated_entry(entry))
        )
        hits = entry.hits_selectivity
        choice = shard.process(QueryInstance(shard.template.name, sv=entry.sv))
        assert not choice.used_optimizer
        assert cache.instance(0).hits_selectivity == hits + 1
        assert shard.stats.row()["epoch_retries"] == 0

    def test_dropped_anchor_plan_rejects_hit_and_reprobes(self):
        shard, entry = self._shard_with_anchor()
        cache = shard.scr.cache
        view = cache.columnar()
        frozen = self._frozen(view)
        hit = self._selectivity_hit(view)
        assert shard._commit_valid(hit)
        cache.drop_plan(entry.plan_id)
        assert cache.epoch != view.epoch and not cache.holds(view)
        assert not shard._commit_valid(hit)
        assert cache.num_instances == 0
        assert self._frozen(view) == frozen and len(view) == 1

        # The same interleaving through process(): the drop lands after
        # the probe hit, validation rejects it, and the re-probe misses
        # on the emptied cache and optimizes.
        shard, entry = self._shard_with_anchor()
        cache = shard.scr.cache
        self._mutate_after_first_probe(
            shard, lambda: cache.drop_plan(entry.plan_id)
        )
        choice = shard.process(QueryInstance(shard.template.name, sv=entry.sv))
        assert choice.used_optimizer
        assert cache.num_instances == 1
        assert cache.instance(0).hits_selectivity == 0
        assert shard.stats.row()["epoch_retries"] == 1

    def test_another_plans_drop_sends_the_hit_back_to_be_probed(self):
        """A lock-free hit through row 1 is probed; then another plan's
        drop replaces the store, and row 1 no longer exists.  The hit is
        not committed into the old store: the row is probed again, hits
        the same anchor as row 0 of the new store and commits there, and
        the accounting identity holds."""
        from repro.core.plan_cache import InstanceEntry
        from repro.query.instance import SelectivityVector

        db = Database.create(build_toy_schema(), seed=11)
        template = serving_templates()[0]
        manager = ConcurrentPQOManager(database=db, max_workers=1)
        shard = manager.register(template, lam=LAM)
        cache, engine = shard.scr.cache, shard.scr.engine
        rows = []
        for values in ((0.9, 0.9), (0.001, 0.001)):  # anchors B, then A
            sv = SelectivityVector.of(*values)
            result = engine.optimize(sv)
            plan = cache.add_plan(result.plan, result.shrunken_memo)
            cache.add_instance(InstanceEntry(
                sv=sv, plan_id=plan.plan_id, optimal_cost=result.cost,
                suboptimality=1.0,
            ))
            rows.append((sv, plan.plan_id))
        (_, plan_b), (sv_a, plan_a) = rows
        assert plan_a != plan_b
        held = cache.columnar()
        self._mutate_after_first_probe(shard, lambda: cache.drop_plan(plan_b))
        with manager:
            choice = shard.process(QueryInstance(template.name, sv=sv_a))
        assert choice.check == "selectivity" and not choice.used_optimizer
        assert shard.stats.row()["epoch_retries"] == 1
        # Committed once, into the new store's row 0; the old store's
        # counters were not written.
        assert not cache.holds(held)
        assert held.hits_selectivity.tolist() == [0, 0]
        assert held.usage.tolist() == [1, 1]
        view = cache.columnar()
        assert view.plan_ids.tolist() == [plan_a]
        assert view.hits_selectivity.tolist() == [1]
        assert view.usage.tolist() == [2]
        # Σ per-anchor hits (+ evicted − adopted) == getPlan's counters.
        gp = shard.scr.get_plan
        sel, cost, spend = cache.anchor_hit_totals()
        assert (
            sel - cache.adopted_hits_selectivity,
            cost - cache.adopted_hits_cost,
        ) == (gp.selectivity_hits, gp.cost_hits) == (1, 0)
        assert spend - cache.adopted_recost_spend <= gp.total_recost_calls


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


def test_concurrency_gauge_peak_is_exact_under_a_short_switch_interval():
    """A call enters the gauge in one lock section and leaves by a
    lock-free append: with every thread inside at once the peak is
    exactly the thread count, and after thousands of racing calls (the
    left list trimmed many times) nothing is left in flight."""
    import sys

    from repro.serving import ConcurrencyGauge

    gauge, threads_n, calls = ConcurrencyGauge(), 12, 400
    inside = threading.Barrier(threads_n)

    def work():
        left = gauge.enter()
        inside.wait(timeout=10)  # every thread is in flight here
        left.append(None)
        for _ in range(calls):
            left = gauge.enter()
            left.append(None)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(threads_n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert gauge.peak == threads_n
    assert gauge._entered - len(gauge._left) == 0

