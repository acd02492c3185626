"""Event spans: instantaneous happenings live in the span stream.

Every fault, retry, breaker flip, degraded answer, serving scheduling
decision and overload decision is one zero-duration span
(:meth:`SpanRecorder.event`, names in :data:`EVENT_NAMES`) carrying its
reason, and — recorded inside a request — that request's ``trace_id``,
parented under the ``serving.batch`` span of the group whose ``seqs``
holds it (a single request is a group of one).  Each of the 16 emitting
sites is driven here exactly once, on a :class:`FakeClock`.
"""

from __future__ import annotations

import threading
from dataclasses import replace

import pytest

from repro.core.scr import SCR
from repro.engine.database import Database
from repro.engine.resilience import ResilientEngineAPI
from repro.obs import (
    EVENT_NAMES,
    FakeClock,
    Observability,
    SpanRecorder,
    activate,
    explain_trace,
    format_explanation,
    group_rows,
    render_tree,
    start_trace,
)
from repro.query.instance import QueryInstance, SelectivityVector
from repro.serving import (
    BrownoutLevel,
    ConcurrentPQOManager,
    OverloadPolicy,
    ShedError,
)

from conftest import build_toy_schema, event_spans
from test_overload import FAR, LAM, NEAR, overload_template
from test_resilience import FAST_POLICY, NO_SLEEP, ScriptedFailures, make_engine

#: Fails the selectivity check against NEAR (G·L = 3.24 > λ = 2) but is
#: close enough that the cost check recosts NEAR's plan.
MID = SelectivityVector.of(0.5, 0.5)


def fake_obs() -> tuple[FakeClock, Observability]:
    fake = FakeClock()
    return fake, Observability(clock=fake.clock)


def make_manager(obs, policy=None, engine_wrapper=None, **scr_kwargs):
    manager = ConcurrentPQOManager(
        database=Database.create(build_toy_schema(), seed=7),
        max_workers=2, overload=policy, obs=obs, engine_wrapper=engine_wrapper,
    )
    template = overload_template()
    manager.register(template, lam=LAM, **scr_kwargs)
    return manager, template


def only(obs, name: str):
    """The single retained event span called ``name``."""
    spans = event_spans(obs, name)
    assert len(spans) == 1, [s.name for s in event_spans(obs)]
    return spans[0]


def request_seqs(root) -> tuple:
    """The request seqs a ``serving.batch`` group span stands for."""
    return tuple(root.attrs["seqs"])


def request_row(root, seq) -> dict:
    """Row ``seq`` of a ``serving.batch`` group span, as a dict."""
    (row,) = [r for r in group_rows(root) if r["seq"] == seq]
    return row


def request_span(obs, event):
    """The request-level span of the request ``event`` belongs to: the
    ``serving.batch`` span of the group whose ``seqs`` holds the event's
    ``seq`` (an event without one, a brownout move, belongs to the group
    of its trace)."""
    assert event.trace_id, f"{event.name} was recorded outside any request"
    roots = [
        s for s in obs.spans.trace(event.trace_id)
        if s.name == "serving.batch"
        and ("seq" not in event.attrs or event.attrs["seq"] in s.attrs["seqs"])
    ]
    assert len(roots) == 1
    return roots[0]


def assert_inside_request(obs, event):
    root = request_span(obs, event)
    assert event.parent_id == root.span_id
    assert event.duration_s == 0.0
    return root


class TestRecorderEvent:
    def test_event_is_a_zero_duration_span_at_the_clock_instant(self):
        fake = FakeClock()
        rec = SpanRecorder(clock=fake.clock)
        fake.advance(2.5)
        span = rec.event("overload.shed", reason="why")
        assert (span.start_s, span.duration_s) == (2.5, 0.0)
        assert span.attrs == {"reason": "why"}
        assert rec.spans() == [span]

    def test_event_is_a_noop_with_spans_off(self):
        rec = SpanRecorder(enabled=False)
        assert rec.event("overload.shed", reason="why") is None
        assert rec.total_recorded == 0

    def test_live_sinks_see_events_the_ring_evicts(self):
        rec = SpanRecorder(capacity=2)
        seen = []
        rec.attach_sink(seen.append)
        for i in range(5):
            rec.event("engine.fault", seq=i)
        assert [s.attrs["seq"] for s in seen] == [0, 1, 2, 3, 4]
        assert [s.attrs["seq"] for s in rec.spans()] == [3, 4]
        assert rec.dropped == 3


class TestEngineEventSites:
    """engine/resilience.py ×7 and core/scr.py ×1, outside any request."""

    def _resilient(self, toy_db, toy_template, obs, **failures):
        engine = make_engine(toy_db, toy_template, obs=obs)
        flaky = ScriptedFailures(engine, **failures)
        resilient = ResilientEngineAPI(flaky, policy=FAST_POLICY, sleep=NO_SLEEP)
        memo = engine.optimize(SelectivityVector.of(0.3, 0.3)).shrunken_memo
        return resilient, memo

    def test_retry_then_success_is_one_fault_and_one_retry(
        self, toy_db, toy_template
    ):
        _, obs = fake_obs()
        resilient, memo = self._resilient(
            toy_db, toy_template, obs, fail_recost={1}
        )
        resilient.begin_instance(7)
        resilient.recost(memo, SelectivityVector.of(0.4, 0.4))
        fault, retry = only(obs, "engine.fault"), only(obs, "engine.retry")
        assert fault.attrs == {
            "template": toy_template.name, "api": "recost", "seq": 7,
            "detail": "scripted recost failure",
        }
        assert retry.attrs == {
            "template": toy_template.name, "api": "recost", "seq": 7,
            "detail": "attempt 1", "backoff_s": 0.0,
        }
        assert [e.name for e in event_spans(obs)] == [
            "engine.fault", "engine.retry",
        ]

    def test_breaker_open_short_circuit_and_fail_closed(
        self, toy_db, toy_template
    ):
        _, obs = fake_obs()
        resilient, memo = self._resilient(
            toy_db, toy_template, obs, fail_recost=range(1, 10_000)
        )
        sv = SelectivityVector.of(0.4, 0.4)
        resilient.recost(memo, sv)      # 3 attempts fail -> failed closed
        resilient.recost(memo, sv)      # the 4th failure opens the breaker
        resilient.recost(memo, sv)      # short-circuited
        assert only(obs, "engine.breaker").attrs["detail"] == "closed->open"
        assert [e.attrs["detail"] for e in event_spans(obs, "engine.degraded")] == [
            "failed closed (miss)", "failed closed (miss)", "breaker open",
        ]
        res = resilient.counters.resilience
        assert len(event_spans(obs, "engine.fault")) == res.faults_recost == 6
        assert len(event_spans(obs, "engine.retry")) == res.retries

    def test_stale_svector_and_stale_interval(self, toy_db, toy_template):
        _, obs = fake_obs()
        resilient, _ = self._resilient(
            toy_db, toy_template, obs, fail_selectivity=range(2, 10_000)
        )
        instance = QueryInstance(toy_template.name, parameters=(500.0, 300.0))
        resilient.selectivity_vector(instance)              # last-known-good
        _, degraded = resilient.selectivity_vector_ex(instance)
        assert degraded
        assert only(obs, "engine.degraded").attrs["detail"] == (
            "stale vector inflated x1.5"
        )
        obs.spans.clear()
        _, degraded = resilient.selectivity_vector_with_error_ex(instance)
        assert degraded
        event = only(obs, "engine.degraded")
        assert event.attrs["api"] == "selectivity"
        assert event.attrs["detail"] == "stale interval widened x1.5"

    def test_optimizer_fallback(self, toy_db, toy_template):
        _, obs = fake_obs()
        engine = make_engine(toy_db, toy_template)
        flaky = ScriptedFailures(engine, fail_optimize=range(2, 10_000))
        resilient = ResilientEngineAPI(flaky, policy=FAST_POLICY, sleep=NO_SLEEP)
        scr = SCR(resilient, lam=1.1, max_recost_candidates=0, obs=obs)
        scr.process(QueryInstance(toy_template.name, sv=NEAR))
        choice = scr.process(QueryInstance(toy_template.name, sv=FAR))
        assert choice.check == "fallback" and not choice.certified
        event = only(obs, "engine.degraded")
        assert event.attrs["api"] == "optimize" and event.attrs["seq"] == 1
        assert event.attrs["detail"].startswith("serving cached plan ")


class TestEngineEventsInsideARequest:
    def test_retry_and_breaker_events_parent_under_the_request_span(self):
        _, obs = fake_obs()
        flaky = {}

        def wrap(engine):
            flaky["e"] = ScriptedFailures(engine)
            return ResilientEngineAPI(
                flaky["e"], policy=FAST_POLICY, sleep=NO_SLEEP
            )

        manager, template = make_manager(obs, engine_wrapper=wrap)
        with manager:
            manager.process(QueryInstance(template.name, sv=NEAR))
            # Retry-then-success: the cost check's first recost fails once.
            flaky["e"].fail_recost = {flaky["e"].recost_calls + 1}
            manager.process(QueryInstance(template.name, sv=MID))
            fault, retry = only(obs, "engine.fault"), only(obs, "engine.retry")
            root = assert_inside_request(obs, fault)
            assert assert_inside_request(obs, retry) is root
            assert request_seqs(root) == (fault.attrs["seq"],) == (1,)
            # Breaker open: every recost from here on fails.
            obs.spans.clear()
            flaky["e"].fail_recost = set(range(10_000))
            manager.process(
                QueryInstance(template.name, sv=SelectivityVector.of(0.2, 0.2))
            )
            breaker = event_spans(obs, "engine.breaker")[0]
            assert breaker.attrs["detail"] == "closed->open"
            root = assert_inside_request(obs, breaker)
            assert request_seqs(root) == (breaker.attrs["seq"],) == (2,)
            for event in event_spans(obs, "engine."):
                assert assert_inside_request(obs, event) is root


class TestServingAndOverloadEventSites:
    """serving/shard.py ×5, serving/manager.py ×2, serving/overload.py ×1."""

    POLICY = OverloadPolicy(evaluate_every=10**6)

    def test_shed_carries_its_reason_inside_the_request(self):
        _, obs = fake_obs()
        manager, template = make_manager(obs, self.POLICY)
        with manager:
            manager._overload_coordinator.controller.level = BrownoutLevel.SHED
            with pytest.raises(ShedError):
                manager.process(QueryInstance(template.name, sv=NEAR))
            shed = only(obs, "overload.shed")
            assert shed.attrs == {
                "template": template.name, "seq": 0,
                "reason": "brownout_shed:no_cached_plan",
            }
            row = request_row(assert_inside_request(obs, shed), 0)
            assert row["outcome"] == "shed"
            assert row["reason"] == shed.attrs["reason"]

    def test_uncertified_serve_on_an_expired_deadline(self):
        fake, obs = fake_obs()
        manager, template = make_manager(
            obs,
            OverloadPolicy(evaluate_every=10**6, default_deadline_seconds=0.0),
            max_recost_candidates=0,
        )
        with manager:
            shard = manager.shard(template.name)
            shard.scr.process(QueryInstance(template.name, sv=NEAR))
            # A zero budget is spent on arrival, as if it died in queue.
            manager.process(QueryInstance(template.name, sv=FAR))
            serve = only(obs, "overload.uncertified_serve")
            assert serve.attrs["reason"] == "deadline_expired"
            assert serve.start_s == fake.monotonic()
            root = assert_inside_request(obs, serve)
            assert request_row(root, serve.attrs["seq"])["outcome"] == (
                "uncertified"
            )

    def test_queue_reject_then_degraded_serve_in_the_submitting_thread(self):
        _, obs = fake_obs()
        manager, template = make_manager(
            obs, OverloadPolicy(queue_limit=1, evaluate_every=10**6),
            max_recost_candidates=0,
        )
        with manager:
            manager.process(QueryInstance(template.name, sv=NEAR))
            shard = manager.shard(template.name)
            ov = manager._overload_coordinator
            assert ov.try_enter_queue(shard.stats)  # occupy the only slot
            try:
                fut = manager.submit(QueryInstance(template.name, sv=FAR))
                assert fut.done()
            finally:
                ov.exit_queue(shard.stats)
            reject = only(obs, "overload.queue_reject")
            serve = only(obs, "overload.uncertified_serve")
            assert reject.attrs["reason"] == serve.attrs["reason"] == "queue_full"
            assert assert_inside_request(obs, reject) is assert_inside_request(
                obs, serve
            )

    def test_brownout_move_belongs_to_the_request_that_tipped_it(self):
        _, obs = fake_obs()
        policy = OverloadPolicy(evaluate_every=1, escalate_ticks=1)
        manager, template = make_manager(
            obs, policy, max_recost_candidates=0
        )
        with manager:
            manager.process(QueryInstance(template.name, sv=NEAR))
            assert event_spans(obs) == []
            # From here on every budget is spent on arrival.
            ov = manager._overload_coordinator
            ov.policy = replace(policy, default_deadline_seconds=0.0)
            manager.process(QueryInstance(template.name, sv=NEAR))
            move = only(obs, "overload.brownout")
            assert move.attrs == {
                "tick": 2, "transition": "normal->coverage_relaxed",
                "reason": "escalate:deadline_miss",
            }
            root = assert_inside_request(obs, move)
            assert request_seqs(root) == (1,)

    def test_epoch_retry_single_and_batched(self):
        _, obs = fake_obs()
        manager, template = make_manager(obs, max_recost_candidates=0)
        with manager:
            manager.process(QueryInstance(template.name, sv=NEAR))
            shard = manager.shard(template.name)
            valid = shard._commit_valid
            rejected = []

            def reject_once(decision):
                if not rejected:
                    rejected.append(decision)
                    return False    # as if the anchor vanished mid-probe
                return valid(decision)

            shard._commit_valid = reject_once
            manager.process(QueryInstance(template.name, sv=NEAR))
            retry = only(obs, "serving.epoch_retry")
            assert retry.attrs == {"template": template.name, "seq": 1}
            assert_inside_request(obs, retry)

            obs.spans.clear()
            rejected.clear()
            results = shard.process_batch(
                [QueryInstance(template.name, sv=NEAR)] * 2
            )
            assert all(r.certified for r in results)
            assert_inside_request(obs, only(obs, "serving.epoch_retry"))
            assert shard.stats.row()["epoch_retries"] == 2

    def test_every_event_carries_its_own_requests_seq(self):
        """A shed bumps no SCR counter and a batched row is probed again
        at its own turn, so an event is stamped with the seq its request
        was allocated — never with how many requests have completed."""
        _, obs = fake_obs()
        manager, template = make_manager(obs, self.POLICY)
        with manager:
            ov = manager._overload_coordinator
            ov.controller.level = BrownoutLevel.SHED
            for _ in range(2):
                with pytest.raises(ShedError):
                    manager.process(QueryInstance(template.name, sv=NEAR))
        plain, template = make_manager(obs, max_recost_candidates=0)
        with plain:
            plain.process(QueryInstance(template.name, sv=NEAR))
            shard = plain.shard(template.name)
            valid = shard._commit_valid
            rejected = []

            def reject_first(decision):
                if not rejected:
                    rejected.append(decision)
                    return False    # row 0 is probed again before row 1
                return valid(decision)

            shard._commit_valid = reject_first
            shard.process_batch([QueryInstance(template.name, sv=NEAR)] * 2)
        events = event_spans(obs)
        assert [e.name for e in events] == (
            ["overload.shed"] * 2 + ["serving.epoch_retry"]
        )
        assert [e.attrs["seq"] for e in events] == [0, 1, 1]
        for event in events:
            root = assert_inside_request(obs, event)
            assert event.attrs["seq"] in request_seqs(root)
        # The batched retry parents under its group span, and is
        # stamped with row 0's seq, not the last-allocated one.
        group = request_span(obs, events[-1])
        assert group.name == "serving.batch"
        assert request_seqs(group) == (1, 2)

    def test_single_flight_collapse(self):
        _, obs = fake_obs()
        manager, template = make_manager(obs, max_recost_candidates=0)
        with manager:
            shard = manager.shard(template.name)

            class LeaderJustFinished(threading.Event):
                """An in-flight optimize that completes the moment the
                follower waits on it."""

                def wait(self, timeout=None):
                    shard._inflight.pop(NEAR.values, None)
                    return True

            shard._inflight[NEAR.values] = LeaderJustFinished()
            choice = manager.process(QueryInstance(template.name, sv=NEAR))
            assert choice.used_optimizer   # nobody registered: re-probe missed
            collapse = only(obs, "serving.single_flight_collapse")
            assert collapse.attrs == {"template": template.name, "seq": 0}
            root = assert_inside_request(obs, collapse)
            wait = [
                s for s in obs.spans.trace(root.trace_id)
                if s.name == "serving.single_flight_wait"
            ]
            assert len(wait) == 1 and wait[0].parent_id == root.span_id
            assert shard.stats.row()["sf_collapsed"] == 1

    def test_batch_dedupe(self):
        _, obs = fake_obs()
        manager, template = make_manager(obs)
        with manager:
            batch = [
                QueryInstance(template.name, sv=NEAR),
                QueryInstance(template.name, sv=FAR),
                QueryInstance(template.name, sv=NEAR),
            ]
            choices = manager.process_many(batch)
            assert choices[2] is choices[0]
            dedupe = only(obs, "serving.batch_dedupe")
            assert dedupe.attrs["template"] == template.name
            assert dedupe.attrs["index"] == 2
            assert manager.shard(template.name).stats.batch_deduped == 1

    def test_no_handle_means_no_events_and_no_error(self):
        manager, template = make_manager(None, self.POLICY)
        with manager:
            manager._overload_coordinator.controller.level = BrownoutLevel.SHED
            with pytest.raises(ShedError):
                manager.process(QueryInstance(template.name, sv=NEAR))
            assert manager.shard(template.name).stats.shed == 1


class TestForensicsShowsEvents:
    def _shed_trace(self):
        _, obs = fake_obs()
        manager, template = make_manager(
            obs, TestServingAndOverloadEventSites.POLICY
        )
        with manager:
            manager._overload_coordinator.controller.level = BrownoutLevel.SHED
            with pytest.raises(ShedError):
                manager.process(QueryInstance(template.name, sv=NEAR))
        shed = only(obs, "overload.shed")
        return obs.spans.trace(shed.trace_id)

    def test_render_tree_shows_the_shed_event_under_the_request(self):
        lines = render_tree(self._shed_trace(), include_timing=False).splitlines()
        assert lines[0].startswith("serving.batch")
        (event_line,) = [ln for ln in lines if "overload.shed" in ln]
        assert event_line.startswith(("|- ", "`- "))
        assert "reason=brownout_shed:no_cached_plan" in event_line

    def test_explain_trace_narrates_the_shed_event_with_its_reason(self):
        info = explain_trace(self._shed_trace())
        assert info["outcome"] == "shed"
        assert info["shed_reason"] == "brownout_shed:no_cached_plan"
        assert info["events"] == [{
            "event": "overload.shed",
            "reason": "brownout_shed:no_cached_plan",
            "seq": 0, "template": "ov_t0",
        }]
        text = format_explanation(info)
        assert "event overload.shed (brownout_shed:no_cached_plan)" in text

    def test_engine_events_are_not_counted_as_engine_work(self):
        rec = SpanRecorder(clock=FakeClock().clock)
        ctx = start_trace()
        with activate(ctx):
            rec.event("engine.fault", template="t", api="recost", seq=0,
                      detail="boom")
            rec.record("serving.batch", 0.0, 0.002, span_id=ctx.span_id,
                       template="t", seqs=(0,), outcomes=("certified",),
                       checks=("cost",), certificates=("exact",),
                       certified_bounds=(1.5,), recost_calls=(1,),
                       engine_selectivity_calls=1, engine_recost_calls=1)
        info = explain_trace(rec.spans())
        assert info["engine_calls"] == {
            "engine.selectivity": 1, "engine.recost": 1,
        }
        assert [e["event"] for e in info["events"]] == ["engine.fault"]


def test_event_names_cover_exactly_what_the_stack_emits():
    """The 16 sites use 11 names; nothing emits a name outside the set
    (forensics would then count it as engine work or miss it)."""
    import re
    from pathlib import Path

    src = Path(__file__).parents[1] / "src" / "repro"
    emitted = set()
    for path in src.rglob("*.py"):
        text = path.read_text()
        emitted.update(re.findall(
            r'''\bevent\(\s*"((?:serving|overload)\.[a-z_]+)"''', text
        ))
        emitted.update(
            f"engine.{kind}" for kind in re.findall(
                r'''instruments\.event\(\s*"([a-z]+)"''', text
            )
        )
    assert emitted == EVENT_NAMES
