"""Distributed tracing: context propagation, span trees, forensics.

Covers the causal-ID layer end to end at every scope it crosses:
contextvar propagation and span-ID semantics in one recorder,
cross-recorder ingestion (the worker → supervisor hand-off), sink
error isolation, the supervisor's cluster spans under the fake
launcher — including the killed-worker / retried-on-peer tree — and
the forensics renderer/explainer over all of it.
"""

from __future__ import annotations

import io
import json

import pytest
from test_cluster_supervisor import (
    FakeLauncher,
    FakeTemplate,
    mark_live,
)

from repro.cluster import ClusterSupervisor, SupervisorPolicy
from repro.cluster.transport import Heartbeat, Response
from repro.obs import (
    SINK_DETACH_AFTER,
    FakeClock,
    IdSource,
    SpanRecorder,
    TraceCollector,
    TraceContext,
    activate,
    build_tree,
    child_context,
    current_context,
    explain_trace,
    format_explanation,
    load_spans_jsonl,
    render_tree,
    start_trace,
    traces_in,
    write_spans_jsonl,
)
from repro.obs.registry import group_sum


# -- context propagation -------------------------------------------------------


class TestTraceContext:
    def test_start_trace_roots_a_new_trace(self):
        ctx = start_trace()
        assert ctx.trace_id and ctx.span_id and ctx.parent_id == ""

    def test_child_context_parents_under_ambient(self):
        root = start_trace()
        with activate(root):
            child = child_context()
            assert child.trace_id == root.trace_id
            assert child.parent_id == root.span_id
            assert child.span_id != root.span_id

    def test_child_context_without_ambient_is_a_fresh_root(self):
        child = child_context()
        assert child.trace_id and child.parent_id == ""

    def test_activation_is_scoped(self):
        ctx = start_trace()
        assert current_context() is None
        with activate(ctx):
            assert current_context() is ctx
            inner = ctx.child()
            with activate(inner):
                assert current_context() is inner
            assert current_context() is ctx
        assert current_context() is None

    def test_activate_none_is_a_no_op(self):
        with activate(None):
            assert current_context() is None

    def test_id_source_is_deterministic_and_nonzero(self):
        a, b = IdSource(seed=5), IdSource(seed=5)
        ids_a = [a.trace_id() for _ in range(10)]
        ids_b = [b.trace_id() for _ in range(10)]
        assert ids_a == ids_b
        assert all(len(i) == 16 and int(i, 16) != 0 for i in ids_a)
        assert len(set(ids_a)) == 10

    def test_propagation_survives_a_thread_pool(self):
        from concurrent.futures import ThreadPoolExecutor

        root = start_trace()

        def in_worker(ctx):
            # A contextvar does NOT leak into pool threads by itself;
            # callers snapshot the context (as the serving manager
            # does) and re-activate it in the worker.
            with activate(ctx):
                return current_context()

        with activate(root):
            with ThreadPoolExecutor(max_workers=1) as pool:
                seen = pool.submit(in_worker, current_context()).result()
        assert seen is not None and seen.trace_id == root.trace_id


# -- recorder semantics --------------------------------------------------------


class TestRecorderIds:
    def setup_method(self):
        self.fake = FakeClock()
        self.rec = SpanRecorder(clock=self.fake.clock)

    def test_untraced_record_has_no_ids(self):
        self.rec.record("x", 0.0, 1.0)
        span = self.rec.spans()[0]
        assert span.trace_id == span.span_id == span.parent_id == ""

    def test_record_inside_context_parents_under_it(self):
        ctx = start_trace()
        with activate(ctx):
            self.rec.record("inner", 0.0, 1.0)
        span = self.rec.spans()[0]
        assert span.trace_id == ctx.trace_id
        assert span.parent_id == ctx.span_id
        assert span.span_id == ""

    def test_record_with_span_id_claims_the_context_span(self):
        ctx = start_trace()
        with activate(ctx):
            self.rec.record("request", 0.0, 1.0, span_id=ctx.span_id)
        span = self.rec.spans()[0]
        assert span.span_id == ctx.span_id
        assert span.parent_id == ctx.parent_id == ""

    def test_child_contexts_nest(self):
        # How a group span nests: its context is a child of the ambient
        # one, and the group records itself with that context's span ID.
        ctx = start_trace()
        with activate(ctx):
            with activate(child_context()) as outer_ctx:
                with activate(child_context()) as inner_ctx:
                    self.rec.record(
                        "inner", 0.0, 1.0, span_id=inner_ctx.span_id
                    )
                self.rec.record("outer", 0.0, 1.0, span_id=outer_ctx.span_id)
        inner, outer = self.rec.spans()
        assert outer.parent_id == ctx.span_id
        assert inner.parent_id == outer.span_id
        assert inner.trace_id == outer.trace_id == ctx.trace_id

    def test_ingest_preserves_remote_ids_with_local_seq(self):
        remote = SpanRecorder(clock=self.fake.clock)
        ctx = start_trace()
        with activate(ctx.child()) as work:
            remote.record("remote.work", 0.0, 1.0, span_id=work.span_id)
        self.rec.record("local", 0.0, 1.0)
        for span in remote.spans():
            self.rec.ingest(span)
        ingested = self.rec.trace(ctx.trace_id)
        assert len(ingested) == 1
        assert ingested[0].span_id == remote.spans()[0].span_id
        seqs = [s.seq for s in self.rec.spans()]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)

    def test_jsonable_round_trip(self):
        from repro.obs.spans import Span

        ctx = start_trace()
        with activate(ctx.child()) as phase:
            self.rec.record(
                "phase", 0.0, 1.0, span_id=phase.span_id,
                template="t1", hit=True,
            )
        row = self.rec.spans()[0].to_jsonable()
        clone = Span.from_jsonable(row)
        original = self.rec.spans()[0]
        assert clone.trace_id == original.trace_id
        assert clone.span_id == original.span_id
        assert clone.parent_id == original.parent_id
        assert clone.attrs == original.attrs


class TestSinkIsolation:
    def test_raising_sink_is_counted_and_detached(self):
        rec = SpanRecorder()
        good: list = []
        calls = {"n": 0}

        def bad_sink(span):
            calls["n"] += 1
            raise RuntimeError("exporter down")

        rec.attach_sink(good.append)
        rec.attach_sink(bad_sink)
        for i in range(SINK_DETACH_AFTER + 3):
            rec.record(f"s{i}", 0.0, 1.0)
        # The healthy sink saw everything; the broken one was detached
        # after its failure streak and never crashed the hot path.
        assert len(good) == SINK_DETACH_AFTER + 3
        assert calls["n"] == SINK_DETACH_AFTER
        assert rec.sink_errors == SINK_DETACH_AFTER

    def test_success_resets_the_failure_streak(self):
        rec = SpanRecorder()
        state = {"fail": True, "calls": 0}

        def flaky(span):
            state["calls"] += 1
            if state["fail"]:
                raise RuntimeError("boom")

        rec.attach_sink(flaky)
        for i in range(SINK_DETACH_AFTER - 1):
            rec.record(f"a{i}", 0.0, 1.0)
        state["fail"] = False
        rec.record("recovered", 0.0, 1.0)
        state["fail"] = True
        for i in range(SINK_DETACH_AFTER - 1):
            rec.record(f"b{i}", 0.0, 1.0)
        # Two partial streaks, neither reaching the threshold.
        assert state["calls"] == 2 * SINK_DETACH_AFTER - 1


class TestTraceCollector:
    def test_pop_returns_and_clears_one_trace(self):
        rec = SpanRecorder()
        collector = TraceCollector()
        rec.attach_sink(collector)
        ctx = start_trace()
        with activate(ctx):
            rec.record("work", 0.0, 1.0)
        rec.record("untraced", 0.0, 1.0)
        popped = collector.pop(ctx.trace_id)
        assert [s.name for s in popped] == ["work"]
        assert collector.pop(ctx.trace_id) == []

    def test_bounded_trace_count_evicts_oldest(self):
        rec = SpanRecorder()
        collector = TraceCollector(max_traces=2)
        rec.attach_sink(collector)
        contexts = [start_trace() for _ in range(3)]
        for ctx in contexts:
            with activate(ctx):
                rec.record("w", 0.0, 1.0)
        assert collector.pop(contexts[0].trace_id) == []
        assert collector.evicted_traces == 1
        assert len(collector.pop(contexts[2].trace_id)) == 1


# -- forensics -----------------------------------------------------------------


def _record_demo_trace(rec: SpanRecorder, ids: IdSource):
    """One deterministic cluster-shaped trace: root → dispatch →
    process → phases, with a dead first dispatch attempt."""
    root = start_trace(ids=ids)
    with activate(root):
        dead = root.child(ids)
        with activate(dead):
            rec.record("cluster.dispatch", 0.0, 0.4,
                       span_id=dead.span_id, worker="w0", incarnation=0,
                       attempt=0, outcome="worker_died")
        retry = root.child(ids)
        with activate(retry):
            rec.record("cluster.dispatch", 0.4, 0.5,
                       span_id=retry.span_id, worker="w1", incarnation=0,
                       attempt=1, outcome="response")
            process = retry.child(ids)
            with activate(process):
                rec.record("scr.selectivity_check", 0.41, 0.01,
                           hit=False, candidates=2, scanned=4)
                rec.record("scr.cost_check", 0.42, 0.02,
                           hit=True, recost_calls=2, bound=1.42,
                           certificate="exact")
                rec.record("engine.recost", 0.425, 0.005,
                           template="t1", seq=3)
                rec.record("serving.batch", 0.41, 0.08,
                           span_id=process.span_id, template="t1",
                           seqs=(0,), outcomes=("certified",),
                           checks=("cost",), certificates=("exact",),
                           certified_bounds=(1.42,), recost_calls=(2,))
        rec.record("cluster.request", 0.0, 0.9, span_id=root.span_id,
                   template="t1", seq=3, outcome="certified", attempts=2,
                   worker="w1")
    return root


class TestForensics:
    def setup_method(self):
        self.rec = SpanRecorder(clock=FakeClock().clock)
        self.root = _record_demo_trace(self.rec, IdSource(seed=23))
        self.spans = self.rec.trace(self.root.trace_id)

    def test_build_tree_is_single_rooted_and_connected(self):
        roots = build_tree(self.spans)
        assert len(roots) == 1
        assert roots[0].name == "cluster.request"
        names = []

        def walk(node):
            names.append(node.name)
            for child in node.children:
                walk(child)

        walk(roots[0])
        assert len(names) == len(self.spans)
        assert names[0] == "cluster.request"
        assert "serving.batch" in names

    def test_orphaned_span_degrades_to_extra_root(self):
        from repro.obs.spans import Span

        orphan = Span(
            name="lost.child", start_s=0.0, duration_s=0.1, seq=99,
            trace_id=self.root.trace_id, span_id="feedfacefeedface",
            parent_id="0000000000000bad",
        )
        roots = build_tree(self.spans + [orphan])
        assert {r.name for r in roots} == {"cluster.request", "lost.child"}

    def test_render_tree_shows_hierarchy_and_attrs(self):
        text = render_tree(self.spans)
        lines = text.splitlines()
        assert lines[0].startswith("cluster.request")
        assert any(line.startswith(("|- ", "`- ")) for line in lines)
        assert "worker=w0" in text and "worker_died" in text
        assert "row seq=0" in text and "certified_bound=1.42" in text

    def test_explain_reports_certificate_and_retry(self):
        info = explain_trace(self.spans)
        assert info["seq"] == 3     # the cluster request's, not the row's
        assert info["outcome"] == "certified"
        assert info["certificate"] == "exact"
        assert info["certified_bound"] == 1.42
        assert info["anchor_check"] == "cost"
        assert [a["outcome"] for a in info["attempts"]] == [
            "worker_died", "response",
        ]
        text = format_explanation(info)
        assert "worker died" in text
        assert "VERDICT: certified" in text

    def test_explain_shed_request(self):
        rec = SpanRecorder(clock=FakeClock().clock)
        ctx = start_trace(ids=IdSource(seed=7))
        with activate(ctx):
            rec.record("serving.batch", 0.0, 0.01, span_id=ctx.span_id,
                       template="t9", seqs=(0,), outcomes=("shed",),
                       checks=(None,), certificates=(None,),
                       certified_bounds=(None,), recost_calls=(None,),
                       reason=("queue_full",), brownout=(3,))
        info = explain_trace(rec.trace(ctx.trace_id))
        assert info["shed_reason"] == "queue_full"
        assert info["brownout"] == 3
        assert any("shed" in line for line in info["narrative"])

    def test_jsonl_round_trip_through_file(self):
        buffer = io.StringIO()
        write_spans_jsonl(self.rec, buffer)
        reloaded = load_spans_jsonl(io.StringIO(buffer.getvalue()))
        assert len(reloaded) == len(self.rec.spans())
        by_trace = traces_in(reloaded)
        assert set(by_trace) == {self.root.trace_id}
        assert explain_trace(by_trace[self.root.trace_id])["outcome"] == (
            "certified"
        )

    def test_explanation_is_json_serializable(self):
        json.dumps(explain_trace(self.spans))


# -- supervisor cluster spans (fake launcher, no processes) --------------------


def make_traced_cluster(num_workers=2, **policy_kwargs):
    clock = FakeClock()
    supervisor = ClusterSupervisor(
        [FakeTemplate(f"t{i}") for i in range(12)],
        num_workers=num_workers,
        snapshot_dir="unused-by-fake-launcher",
        policy=SupervisorPolicy(**policy_kwargs),
        launcher=FakeLauncher(),
        clock=clock.clock,
        trace=True,
    )
    supervisor.start(monitor=False)
    mark_live(supervisor, *supervisor.workers)
    return supervisor, clock


def owned_template(sup, worker_id):
    names = [n for n in sup.templates if sup.ring.owner(n) == worker_id]
    assert names
    return names[0]


def worker_rows_for(request, outcome="certified"):
    """Spans a traced worker would ship back for ``request``."""
    rec = SpanRecorder()
    wire = TraceContext(
        trace_id=request.trace_id, span_id=request.parent_span_id
    )
    start = rec.clock.perf_counter()
    with activate(wire.child()) as group:
        rec.record("engine.selectivity", start, 0.0)
        rec.record(
            "serving.batch", start, 0.0, span_id=group.span_id,
            template=request.template_name, seqs=(0,), outcomes=(outcome,),
        )
    return tuple(s.to_jsonable() for s in rec.spans())


def assert_connected_tree(spans, root_name="cluster.request"):
    ids = {s.span_id for s in spans if s.span_id}
    roots = [s for s in spans if not s.parent_id]
    assert len(roots) == 1 and roots[0].name == root_name
    for span in spans:
        if span.parent_id:
            assert span.parent_id in ids, (span.name, span.parent_id)


class TestSupervisorTracing:
    def test_trace_flag_reaches_worker_specs(self):
        sup, _ = make_traced_cluster()
        assert all(h.spec.trace for h in sup.workers.values())
        assert sup.obs.spans.enabled

    def test_untraced_supervisor_mints_no_ids(self):
        clock = FakeClock()
        sup = ClusterSupervisor(
            [FakeTemplate("t0")], num_workers=1, snapshot_dir="x",
            launcher=FakeLauncher(), clock=clock.clock,
        )
        sup.start(monitor=False)
        mark_live(sup, "w0")
        fut = sup.submit("t0", (0.1,))
        assert fut.trace_id == ""
        request = next(iter(sup._pending.values())).request
        assert request.trace_id == "" and request.parent_span_id == ""

    def test_served_request_yields_one_connected_tree(self):
        sup, _ = make_traced_cluster()
        name = owned_template(sup, "w0")
        fut = sup.submit(name, (0.1, 0.2), sequence_id=5)
        assert fut.trace_id
        rid, pending = next(iter(sup._pending.items()))
        request = pending.request
        assert request.trace_id == fut.trace_id and request.parent_span_id
        sup.launcher.deliver("w0", Response(
            request_id=rid, worker_id="w0", incarnation=0,
            template_name=name, ok=True, certified=True,
            certificate="exact", certified_bound=1.3, check="cost",
            spans=worker_rows_for(request),
        ))
        sup.pump()
        assert fut.result(timeout=1).ok
        spans = sup.trace_spans(fut.trace_id)
        assert_connected_tree(spans)
        names = {s.name for s in spans}
        assert {"cluster.request", "cluster.dispatch",
                "serving.batch", "engine.selectivity"} <= names
        root = next(s for s in spans if s.name == "cluster.request")
        assert root.attrs["outcome"] == "certified"
        assert root.attrs["attempts"] == 1

    def test_killed_worker_retry_keeps_one_trace_with_both_attempts(self):
        sup, clock = make_traced_cluster()
        name = owned_template(sup, "w0")
        fut = sup.submit(name, (0.3, 0.4), sequence_id=9)
        # Kill the owner mid-request: the supervisor re-routes to the
        # peer inside the *same* trace.
        sup.workers["w0"].process.alive = False
        clock.advance(0.1)
        sup.tick()
        rid, pending = next(iter(sup._pending.items()))
        request = pending.request
        assert pending.worker_id == "w1"
        assert request.attempt == 1
        assert request.trace_id == fut.trace_id
        sup.launcher.deliver("w1", Response(
            request_id=rid, worker_id="w1", incarnation=0,
            template_name=name, ok=True, certified=True,
            certificate="exact", spans=worker_rows_for(request),
        ))
        sup.pump()
        assert fut.result(timeout=1).ok
        spans = sup.trace_spans(fut.trace_id)
        assert_connected_tree(spans)
        dispatches = sorted(
            (s for s in spans if s.name == "cluster.dispatch"),
            key=lambda s: s.attrs["attempt"],
        )
        assert [(d.attrs["worker"], d.attrs["outcome"]) for d in dispatches] \
            == [("w0", "worker_died"), ("w1", "response")]
        root = next(s for s in spans if s.name == "cluster.request")
        assert root.attrs["attempts"] == 2
        # The dead attempt's dispatch parent differs from the retry's:
        # the worker spans that died with w0 would have parented there.
        assert dispatches[0].span_id != dispatches[1].span_id
        info = explain_trace(spans)
        assert [a["outcome"] for a in info["attempts"]] == [
            "worker_died", "response",
        ]

    def test_worker_lost_resolves_root_span_as_shed(self):
        sup, clock = make_traced_cluster(
            num_workers=2, max_retries=0,
        )
        name = owned_template(sup, "w0")
        fut = sup.submit(name, (0.5,), sequence_id=2)
        sup.workers["w0"].process.alive = False
        clock.advance(0.1)
        sup.tick()
        assert fut.exception() is not None
        spans = sup.trace_spans(fut.trace_id)
        assert_connected_tree(spans)
        root = next(s for s in spans if s.name == "cluster.request")
        assert root.attrs["outcome"] == "shed"
        assert root.attrs["reason"] == "worker_lost"

    def test_shutdown_resolves_root_and_open_attempt(self):
        """A traced request still in flight at close() keeps its trace:
        the root resolves shed and the open attempt gets its span."""
        sup, _ = make_traced_cluster()
        name = owned_template(sup, "w0")
        fut = sup.submit(name, (0.5,), sequence_id=4)
        sup.close(timeout=0)  # no worker ever answers
        assert fut.exception() is not None
        spans = sup.trace_spans(fut.trace_id)
        assert_connected_tree(spans)
        root = next(s for s in spans if s.name == "cluster.request")
        assert root.attrs["outcome"] == "shed"
        assert root.attrs["reason"] == "worker_lost"
        assert root.attrs["detail"] == "supervisor shutdown"
        (dispatch,) = [s for s in spans if s.name == "cluster.dispatch"]
        assert dispatch.attrs["worker"] == "w0"
        assert dispatch.attrs["outcome"] == "shutdown"

    def test_malformed_worker_span_rows_do_not_poison_the_pump(self):
        sup, _ = make_traced_cluster()
        name = owned_template(sup, "w0")
        fut = sup.submit(name, (0.1,))
        rid, pending = next(iter(sup._pending.items()))
        good = worker_rows_for(pending.request)
        sup.launcher.deliver("w0", Response(
            request_id=rid, worker_id="w0", incarnation=0,
            template_name=name, ok=True, certified=True,
            spans=(None, {"nonsense": 1}) + good,
        ))
        sup.pump()
        assert fut.result(timeout=1).ok
        assert_connected_tree(sup.trace_spans(fut.trace_id))


# -- dead-incarnation registry retention ---------------------------------------


def _worker_snapshot(n: int, violations: int = 0) -> dict:
    return {
        "repro_serving_latency_seconds": {
            "kind": "histogram", "help": "", "series": [{
                "labels": {"template": "t0"},
                "count": n, "sum": 0.01 * n,
                "buckets": [[0.1, n], ["+Inf", n]],
            }],
        },
        "repro_worker_requests_total": {
            "kind": "counter", "help": "", "series": [
                {"labels": {}, "value": float(n)},
            ],
        },
        "repro_responses_total": {
            "kind": "counter", "help": "", "series": [
                {"labels": {"template": "t0", "outcome": "certified"},
                 "value": float(n)},
            ],
        },
        "repro_lambda_violations_total": {
            "kind": "counter", "help": "", "series": [
                {"labels": {"template": "t0", "kind": "exact"},
                 "value": float(violations)},
            ],
        },
    }


def _kill_and_restart(sup, clock, wid="w0"):
    sup.workers[wid].process.alive = False
    clock.advance(0.05)
    sup.tick()            # declare dead, schedule restart
    clock.advance(10.0)
    sup.tick()            # fire the restart (compaction runs here)


class TestRegistryRetention:
    def _heartbeat(self, sup, wid, incarnation, n, violations=0):
        sup.launcher.deliver(wid, Heartbeat(
            worker_id=wid, incarnation=incarnation, seq=1,
            requests_served=n, optimizer_calls=0,
            registry=_worker_snapshot(n, violations),
        ))
        sup.pump()

    def _cluster(self, retention):
        clock = FakeClock()
        sup = ClusterSupervisor(
            [FakeTemplate(f"t{i}") for i in range(4)],
            num_workers=2, snapshot_dir="x",
            policy=SupervisorPolicy(
                registry_retention=retention, restart_backoff_base=0.01,
            ),
            launcher=FakeLauncher(), clock=clock.clock,
        )
        sup.start(monitor=False)
        mark_live(sup, "w0", "w1")
        return sup, clock

    def test_history_is_bounded_and_totals_preserved(self):
        sup, clock = self._cluster(retention=1)
        for incarnation in range(4):
            self._heartbeat(sup, "w0", incarnation, n=10, violations=1)
            _kill_and_restart(sup, clock)
            mark_live(sup, "w0")
        w0_keys = [k for k in sup._registry_history if k[0] == "w0"]
        # Live incarnation 4 has no heartbeat yet; one dead incarnation
        # stays verbatim, the three older ones merged into the tombstone.
        assert w0_keys == [("w0", 3)]
        assert "w0" in sup._registry_tombstones
        tomb = sup._registry_tombstones["w0"]
        series = tomb["repro_worker_requests_total"]["series"][0]
        assert series["value"] == 30.0   # incarnations 0 + 1 + 2
        histogram = tomb["repro_serving_latency_seconds"]["series"][0]
        assert histogram["count"] == 30
        assert histogram["buckets"][0] == [0.1, 30]
        # Violations survive the merge: 4 incarnations x 1 each.
        assert sup.worker_lambda_violations() == 4
        outcomes = group_sum([tomb], "repro_responses_total", by=("outcome",))
        assert {k: row["value"] for k, row in outcomes.items()} == {
            ("certified",): 30.0,
        }

    def test_merged_exposition_keeps_counts_monotone(self):
        sup, clock = self._cluster(retention=0)
        for incarnation in range(3):
            self._heartbeat(sup, "w0", incarnation, n=5)
            _kill_and_restart(sup, clock)
            mark_live(sup, "w0")
        text = sup.prometheus()
        assert 'source="w0:tomb"' in text
        # All 15 requests stay visible through the tombstone row.
        total = sum(
            float(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("repro_worker_requests_total{")
        )
        assert total == 15.0
        report = sup.cluster_report()
        assert report["registry_tombstones"] == 1
        assert report["registry_incarnations"] == 0

    def test_retention_keeps_recent_incarnations_verbatim(self):
        sup, clock = self._cluster(retention=2)
        for incarnation in range(3):
            self._heartbeat(sup, "w0", incarnation, n=7)
            _kill_and_restart(sup, clock)
            mark_live(sup, "w0")
        kept = sorted(k for k in sup._registry_history if k[0] == "w0")
        assert kept == [("w0", 1), ("w0", 2)]
        tomb = sup._registry_tombstones["w0"]
        assert tomb["repro_worker_requests_total"]["series"][0]["value"] == 7.0


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-q"]))
