"""Integration tests: the observability handle wired through serving.

The acceptance bar of DESIGN.md §10: with one :class:`Observability`
handle attached, every response the serving layer produces is accounted
for by exactly one outcome counter (certified / uncertified / shed),
every certified response's bound lands in the audit histogram with zero
λ-violations, decision spans cover the SCR phases and engine calls, and
the existing report shapes stay stable while sourcing from the registry.
"""

from __future__ import annotations

from concurrent.futures import wait

import pytest

from conftest import build_toy_schema
from repro.core.scr import SCR
from repro.engine.database import Database
from repro.obs import Observability, RESPONSES_TOTAL
from repro.query.instance import QueryInstance
from repro.query.template import QueryTemplate, join, range_predicate
from repro.serving import (
    ConcurrentPQOManager,
    OverloadPolicy,
    ShedError,
    simulated_latency_wrapper,
)
from repro.workload.generator import generate_selectivity_vectors

LAM = 2.0


def make_template(name: str = "obs_join") -> QueryTemplate:
    return QueryTemplate(
        name=name,
        database="toy",
        tables=["orders", "cust"],
        joins=[join("orders", "o_cust", "cust", "c_id")],
        parameterized=[
            range_predicate("orders", "o_date", "<="),
            range_predicate("cust", "c_bal", "<="),
        ],
    )


def make_db() -> Database:
    # A fresh database per test: engines are cached per database, and
    # instrumenting one attaches registry children to it.
    return Database.create(build_toy_schema(), seed=11)


def workload(template: QueryTemplate, m: int, seed: int = 21):
    return [
        QueryInstance(template.name, sv=sv)
        for sv in generate_selectivity_vectors(2, m, seed=seed)
    ]


class TestSerialSCR:
    def test_audit_and_spans_on_serial_path(self):
        db, template = make_db(), make_template()
        obs = Observability()
        scr = SCR(db.engine(template), lam=LAM, obs=obs)
        choices = [scr.process(q) for q in workload(template, 30)]

        # Every choice was certified and every certified bound audited.
        bounds = obs.registry.get("repro_certified_bound").labels(
            template=template.name
        )
        assert bounds.count == len(choices)
        assert obs.audit.zero_violations
        assert all(c.certified_bound is not None for c in choices)
        assert all(
            c.certified_bound <= LAM * (1 + 1e-9) for c in choices
        )

        # The decision spans cover the SCR phases and the engine calls.
        names = {span.name for span in obs.spans.spans()}
        assert "scr.selectivity_check" in names
        assert "scr.cost_check" in names
        assert "scr.redundancy_check" in names
        assert "engine.optimize" in names
        assert "engine.recost" in names
        assert "engine.selectivity" in names

    def test_engine_call_histograms_populated(self):
        db, template = make_db(), make_template()
        obs = Observability()
        scr = SCR(db.engine(template), lam=LAM, obs=obs)
        for q in workload(template, 10):
            scr.process(q)
        calls = obs.registry.get("repro_engine_call_seconds")
        sv_child = calls.labels(template=template.name, api="selectivity")
        assert sv_child.count == 10  # one sVector call per instance


class TestConcurrentServing:
    def test_every_response_exactly_one_outcome(self):
        db, template = make_db(), make_template()
        obs = Observability()
        manager = ConcurrentPQOManager(
            database=db, max_workers=4, obs=obs,
        )
        manager.register(template, lam=LAM)
        instances = workload(template, 60)
        choices = manager.process_many(instances, dedupe=False)
        manager.close()

        totals = obs.audit.outcome_totals(template.name)
        assert sum(totals.values()) == len(instances)
        assert totals["certified"] == sum(1 for c in choices if c.certified)
        assert totals["uncertified"] == sum(
            1 for c in choices if not c.certified
        )
        assert totals["shed"] == 0
        assert obs.audit.zero_violations

        # Request-level records: every served response's seq appears in
        # exactly one row of a serving.batch group span, with its outcome.
        served: list[tuple[int, str]] = []
        for span in obs.spans.spans():
            if span.name == "serving.batch":
                served.extend(zip(span.attrs["seqs"], span.attrs["outcomes"]))
        outcome_of = dict(served)
        assert len(outcome_of) == len(served) == len(instances)
        # One template, so the shard allocated seqs in input order.
        assert [outcome_of[seq] for seq in range(len(instances))] == [
            "certified" if c.certified else "uncertified" for c in choices
        ]

    def test_report_row_sources_from_registry(self):
        db, template = make_db(), make_template()
        obs = Observability()
        manager = ConcurrentPQOManager(database=db, max_workers=4, obs=obs)
        manager.register(template, lam=LAM)
        manager.process_many(workload(template, 40), dedupe=False)
        row = manager.shard(template.name).stats.row()
        manager.close()
        assert row["processed"] == 40
        assert row["uncertified"] == 0
        assert row["shed"] == 0
        # The registry agrees with the report row (one source of truth).
        assert obs.registry.value(
            RESPONSES_TOTAL, template=template.name, outcome="certified"
        ) == 40

    def test_manager_report_and_prometheus_surfaces(self):
        db, template = make_db(), make_template()
        obs = Observability()
        manager = ConcurrentPQOManager(database=db, max_workers=2, obs=obs)
        manager.register(template, lam=LAM)
        manager.process_many(workload(template, 10), dedupe=False)
        report = obs.report()
        text = manager.prometheus()
        manager.close()
        assert report["lambda_violations"] == 0
        assert sum(report["outcomes"].values()) == 10
        assert (
            f'repro_responses_total{{template="{template.name}",'
            f'outcome="certified"}} 10' in text
        )
        assert "# TYPE repro_certified_bound histogram" in text

    def test_without_obs_surfaces_return_none(self):
        db, template = make_db(), make_template()
        manager = ConcurrentPQOManager(database=db, max_workers=2)
        manager.register(template, lam=LAM)
        manager.process_many(workload(template, 5), dedupe=False)
        assert manager.prometheus() is None
        manager.close()


class TestNoPerRequestState:
    def test_stats_object_graph_does_not_grow_with_requests(self):
        """Everything a shard's stats can reach — children, the registry
        behind them, the audit — is the same size after 50 000 served
        responses as after 50: no per-request sample is retained."""
        import gc
        import sys
        import types

        db, template = make_db(), make_template()
        with ConcurrentPQOManager(database=db) as manager:
            manager.register(template, lam=LAM)
            stats = manager.shard(template.name).stats

        # Code is not state; scalars are counted through the slot that
        # holds them (a growing sample list grows its list object), not
        # as objects, because small ints are shared and large ones not.
        opaque = (
            type, types.ModuleType, types.FunctionType,
            types.BuiltinFunctionType, types.MethodType,
            int, float, str, type(None),
        )

        def graph_size(root) -> tuple[int, int]:
            seen, stack, size = set(), [root], 0
            while stack:
                obj = stack.pop()
                if id(obj) in seen or isinstance(obj, opaque):
                    continue
                seen.add(id(obj))
                size += sys.getsizeof(obj)
                stack.extend(gc.get_referents(obj))
            return len(seen), size

        # The same few latencies, checks and kinds cycle throughout, so
        # every bucket and labelled child exists before the first
        # measurement.
        latencies = (0.0001, 0.002, 0.03, 0.4, 5.0)
        checks = ("selectivity", "cost", "optimizer", "overload")

        def serve(n: int) -> None:
            for i in range(n):
                certified = i % 7 != 0
                stats.observe(
                    latencies[i % 5], checks[i % 4], certified,
                    certificate="robust" if i % 3 else "exact",
                )
                stats.add_lock_wait(1e-6)
                stats.note_interval_width(0.25)

        serve(50)
        small = graph_size(stats)
        serve(50_000 - 50)
        assert stats.row()["processed"] == 50_000
        assert graph_size(stats) == small


class TestOverloadOutcomes:
    def test_shed_responses_keep_the_identity(self):
        """Cold cache + full queue: rejected submissions shed, and every
        response still lands in exactly one outcome counter."""
        db, template = make_db(), make_template()
        obs = Observability()
        manager = ConcurrentPQOManager(
            database=db,
            max_workers=1,
            engine_wrapper=simulated_latency_wrapper(optimize_seconds=0.3),
            overload=OverloadPolicy(queue_limit=1, evaluate_every=10**6),
            obs=obs,
        )
        manager.register(template, lam=LAM)
        instances = workload(template, 5)
        futures = [manager.submit(q) for q in instances]
        wait(futures, timeout=30)
        shed = sum(
            1 for f in futures if isinstance(f.exception(), ShedError)
        )
        served = len(futures) - shed
        manager.close()

        # The first submission holds the 1-slot queue for 0.3 s, so the
        # overflow path saw an empty cache and had to shed.
        assert shed >= 1
        totals = obs.audit.outcome_totals(template.name)
        assert totals["shed"] == shed
        assert totals["certified"] + totals["uncertified"] == served
        assert sum(totals.values()) == len(instances)
        # Shed reasons are queryable from the degraded counter.
        assert obs.registry.total(
            "repro_degraded_total", template=template.name, outcome="shed"
        ) == shed

    def test_queue_full_uncertified_serves_are_one_outcome(self):
        """Warm cache + full queue: rejections serve the nearest cached
        plan uncertified — counted once, with a reason code."""
        db, template = make_db(), make_template()
        obs = Observability()
        manager = ConcurrentPQOManager(
            database=db,
            max_workers=1,
            engine_wrapper=simulated_latency_wrapper(optimize_seconds=0.3),
            overload=OverloadPolicy(queue_limit=1, evaluate_every=10**6),
            obs=obs,
        )
        manager.register(template, lam=LAM)
        instances = workload(template, 6)
        manager.process(instances[0])  # warm the cache serially

        futures = [manager.submit(q) for q in instances[1:]]
        wait(futures, timeout=30)
        choices = [f.result() for f in futures]
        manager.close()

        uncertified = sum(1 for c in choices if not c.certified)
        assert uncertified >= 1, "full queue must force degraded serves"
        totals = obs.audit.outcome_totals(template.name)
        assert totals["shed"] == 0
        assert totals["uncertified"] == uncertified
        assert sum(totals.values()) == len(instances)
        assert obs.registry.value(
            "repro_degraded_total", template=template.name,
            outcome="uncertified", reason="queue_full",
        ) == pytest.approx(uncertified)
        assert obs.audit.zero_violations
