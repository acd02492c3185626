"""Overload-protection tests: brownout hysteresis, deadlines, shedding.

Deterministic (seeded, fake-clocked where timing matters) coverage of
DESIGN.md §9:

* the brownout controller moves at most one level per evaluation tick,
  needs consecutive hot/calm ticks to move at all, and the dead band
  between thresholds prevents flapping;
* deadline budgets propagate: a nearly-expired budget never invokes
  the optimizer, an expired one resolves through the degraded path,
  and every degraded serve is ``certified=False`` with a traced
  reason code;
* bounded ingress resolves overflow in the submitting thread
  (rejection as last resort), and ``close(wait=False)`` resolves queued
  futures with :class:`ShutdownError` instead of dropping them;
* admission is per row inside a group: each row claims its own queue
  slot, is checked against the group's deadline when reached, and
  counts as one completion.
"""

from __future__ import annotations

import random
import threading

import pytest

from repro.core.dynamic_lambda import PressureRelaxedLambda
from repro.engine.database import Database
from repro.harness.metrics import ServiceLevelSummary
from repro.obs import FakeClock, Observability
from repro.query.instance import QueryInstance, SelectivityVector
from repro.query.template import QueryTemplate, join, range_predicate
from repro.serving import (
    BrownoutController,
    BrownoutLevel,
    ConcurrentPQOManager,
    Deadline,
    OptimizerGate,
    OverloadCoordinator,
    OverloadPolicy,
    OverloadSignals,
    ShedError,
    ShutdownError,
)
from repro.serving.overload import DEADLINE_MISS_HIGH, DEADLINE_MISS_LOW

from conftest import build_toy_schema, event_spans

LAM = 2.0

#: A far-corner / near-corner vector pair: the selectivity check between
#: them fails by orders of magnitude, so serving one after caching the
#: other is a guaranteed miss whenever the cost check is disabled.
NEAR = SelectivityVector.of(0.9, 0.9)
FAR = SelectivityVector.of(1e-6, 1e-6)


def overload_template(name: str = "ov_t0") -> QueryTemplate:
    return QueryTemplate(
        name=name,
        database="toy",
        tables=["orders", "cust"],
        joins=[join("orders", "o_cust", "cust", "c_id")],
        parameterized=[
            range_predicate("orders", "o_date", "<="),
            range_predicate("orders", "o_date", ">="),
        ],
    )


def make_manager(policy=None, obs=None, max_workers=2, **scr_kwargs):
    db = Database.create(build_toy_schema(), seed=7)
    manager = ConcurrentPQOManager(
        database=db, max_workers=max_workers, overload=policy, obs=obs
    )
    template = overload_template()
    # max_recost_candidates=0 disables the cost check so NEAR/FAR
    # hit-or-miss behaviour is fully deterministic.
    manager.register(
        template, lam=LAM, max_recost_candidates=0, **scr_kwargs
    )
    return manager, template


def hot(miss_rate: float = 1.0) -> OverloadSignals:
    return OverloadSignals(
        queue_fraction=0.0, gate_wait_seconds=0.0, deadline_miss_rate=miss_rate
    )


def calm() -> OverloadSignals:
    return OverloadSignals(
        queue_fraction=0.0, gate_wait_seconds=0.0, deadline_miss_rate=0.0
    )


def dead_band() -> OverloadSignals:
    """Between the low and high thresholds: neither hot nor calm."""
    mid = (DEADLINE_MISS_LOW + DEADLINE_MISS_HIGH) / 2
    return OverloadSignals(
        queue_fraction=0.0, gate_wait_seconds=0.0, deadline_miss_rate=mid
    )


# ---------------------------------------------------------------------------
# Deadline arithmetic


class TestDeadline:
    def test_budget_counts_down_on_the_given_clock(self):
        now = [100.0]
        d = Deadline.after(0.5, clock=lambda: now[0])
        assert d.remaining(now[0]) == pytest.approx(0.5)
        assert not d.expired(now[0])
        now[0] += 0.4
        assert d.remaining(now[0]) == pytest.approx(0.1)
        now[0] += 0.2
        assert d.expired(now[0])

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            Deadline.after(-1.0)


# ---------------------------------------------------------------------------
# Optimizer gate


class TestOptimizerGate:
    def test_concurrency_limit_and_timeout_accounting(self):
        gate = OptimizerGate(concurrency=1)
        assert gate.acquire(timeout=0.01)
        assert not gate.acquire(timeout=0.01)  # slot held: must time out
        assert gate.timeouts == 1
        gate.release()
        assert gate.acquire(timeout=0.01)
        gate.release()
        assert gate.acquired == 2
        assert gate.wait_ema_seconds >= 0.0


# ---------------------------------------------------------------------------
# Brownout hysteresis state machine


class TestBrownoutController:
    POLICY = OverloadPolicy(escalate_ticks=2, recover_ticks=3)

    def test_escalates_one_level_per_window_never_skipping(self):
        ctl = BrownoutController(self.POLICY)
        levels = [ctl.level]
        for _ in range(8):  # 4 windows of escalate_ticks=2 hot ticks
            ctl.evaluate(hot())
            levels.append(ctl.level)
        # One level per 2 hot ticks, saturating at SHED.
        assert levels == [
            BrownoutLevel.NORMAL, BrownoutLevel.NORMAL,
            BrownoutLevel.COVERAGE_RELAXED, BrownoutLevel.COVERAGE_RELAXED,
            BrownoutLevel.LAMBDA_RELAXED, BrownoutLevel.LAMBDA_RELAXED,
            BrownoutLevel.UNCERTIFIED, BrownoutLevel.UNCERTIFIED,
            BrownoutLevel.SHED,
        ]
        for t in ctl.transitions:
            assert t.current == t.previous + 1  # never skips a level
            assert t.reason.startswith("escalate:")

    def test_recovers_one_level_per_calm_window(self):
        ctl = BrownoutController(self.POLICY)
        for _ in range(8):
            ctl.evaluate(hot())
        assert ctl.level is BrownoutLevel.SHED
        for _ in range(12):  # 4 windows of recover_ticks=3 calm ticks
            ctl.evaluate(calm())
        assert ctl.level is BrownoutLevel.NORMAL
        downs = [t for t in ctl.transitions if t.current < t.previous]
        assert len(downs) == 4
        assert all(t.reason == "recover:calm" for t in downs)

    def test_dead_band_holds_level_without_flapping(self):
        ctl = BrownoutController(self.POLICY)
        for _ in range(4):
            ctl.evaluate(hot())
        assert ctl.level is BrownoutLevel.LAMBDA_RELAXED
        before = len(ctl.transitions)
        for _ in range(50):
            ctl.evaluate(dead_band())
        assert ctl.level is BrownoutLevel.LAMBDA_RELAXED
        assert len(ctl.transitions) == before

    def test_alternating_signals_cannot_flap(self):
        """hot/calm alternation resets both streaks: no transition ever."""
        ctl = BrownoutController(self.POLICY)
        for i in range(40):
            ctl.evaluate(hot() if i % 2 == 0 else calm())
        assert ctl.level is BrownoutLevel.NORMAL
        assert ctl.transitions == []

    def test_transitions_are_traced_with_reason_codes(self):
        obs = Observability()
        ctl = BrownoutController(self.POLICY)
        ctl.attach_obs(obs)
        for _ in range(2):
            ctl.evaluate(hot())
        events = event_spans(obs, "overload.")
        assert len(events) == 1
        assert events[0].name == "overload.brownout"
        assert "{transition}:{reason}".format(**events[0].attrs) == (
            "normal->coverage_relaxed:escalate:deadline_miss"
        )

    def test_pressure_driver_names_the_loudest_signal(self):
        signals = OverloadSignals(
            queue_fraction=0.9, gate_wait_seconds=0.0, deadline_miss_rate=0.0
        )
        pressure, driver = signals.pressure(self.POLICY)
        assert driver == "queue_depth"
        assert pressure > 1.0

    def test_coordinator_drives_ticks_from_completions(self):
        """The full loop: completion window -> signals -> transitions."""
        policy = OverloadPolicy(
            evaluate_every=1, escalate_ticks=2, recover_ticks=3
        )
        ov = OverloadCoordinator(policy)
        for _ in range(8):
            ov.note_completed(deadline_missed=True)
        assert ov.level is BrownoutLevel.SHED
        for _ in range(12):
            ov.note_completed(deadline_missed=False)
        assert ov.level is BrownoutLevel.NORMAL
        steps = [(t.previous, t.current) for t in ov.controller.transitions]
        assert all(abs(b - a) == 1 for a, b in steps)  # one level per move
        report = ov.report()
        assert report["brownout"] == "normal"
        assert report["transitions"] == 8

    def test_idle_gate_wait_signal_cannot_latch_brownout(self):
        """Once the level stops consulting the gate, the stale wait EMA
        reads as zero and recovery proceeds (no latch-in-SHED)."""
        policy = OverloadPolicy(
            evaluate_every=1, escalate_ticks=1, recover_ticks=1
        )
        ov = OverloadCoordinator(policy)
        for _ in range(4):
            assert ov.gate.acquire(timeout=0.0)
            ov.gate.release()
            ov.gate.wait_ema_seconds = 1.0  # pretend the waits were long
            ov.note_completed(deadline_missed=False)
        assert ov.level is BrownoutLevel.SHED
        # The gate is now idle (SHED makes no admission attempts): the
        # frozen EMA must not keep reading hot.
        for _ in range(4):
            ov.note_completed(deadline_missed=False)
        assert ov.level is BrownoutLevel.NORMAL
        assert ov.gate.wait_ema_seconds == 0.0


# ---------------------------------------------------------------------------
# λ pressure hook


class TestPressureRelaxedLambda:
    def test_neutral_at_normal_and_widened_under_pressure(self):
        level = [0]
        relax = PressureRelaxedLambda(
            2.0, level_provider=lambda: level[0], relax_factor=1.5, ceiling=2.5
        )
        assert relax(100.0) == 2.0          # behaviour-neutral at NORMAL
        level[0] = 1
        assert relax(100.0) == 2.5          # 3.0 clamped to the ceiling
        level[0] = 3
        assert relax(100.0) == 2.5

    def test_wraps_callable_base_schedules(self):
        level = [1]
        relax = PressureRelaxedLambda(
            lambda cost: 1.0 + cost, level_provider=lambda: level[0],
            relax_factor=2.0,
        )
        assert relax(1.0) == 4.0
        level[0] = 0
        assert relax(1.0) == 2.0

    def test_installed_on_register_with_overload_policy(self):
        manager, template = make_manager(
            policy=OverloadPolicy(lambda_relax_factor=1.5, lambda_ceiling=3.0)
        )
        try:
            get_plan = manager.shard(template.name).scr.get_plan
            assert isinstance(get_plan.lambda_for, PressureRelaxedLambda)
            assert get_plan.lambda_for(123.0) == LAM  # NORMAL: base λ
            ctl = manager._overload_coordinator.controller
            ctl.level = BrownoutLevel.LAMBDA_RELAXED
            assert get_plan.lambda_for(123.0) == LAM * 1.5
        finally:
            manager.close()


    def test_normal_level_makes_no_hook_call_per_hit(self):
        """At NORMAL the hook's λ vector is memoized per anchor: each
        anchor costs one hook call when its row first joins a view, and
        a hit's λ audit reads the vector by row.  The audited λ and the
        violation count are the ones a per-hit hook call gives."""
        rng = random.Random(3)
        stream = [
            SelectivityVector.of(rng.uniform(0.01, 1.0), rng.uniform(0.01, 1.0))
            for _ in range(120)
        ]

        class Counting(PressureRelaxedLambda):
            calls = 0

            def __call__(self, cost):
                Counting.calls += 1
                return super().__call__(cost)

        def serve(per_hit_hook: bool):
            obs = Observability()
            manager, template = make_manager(
                policy=OverloadPolicy(queue_limit=10**6, evaluate_every=10**6),
                obs=obs, max_workers=1,
            )
            get_plan = manager.shard(template.name).scr.get_plan
            hook = get_plan.lambda_for
            get_plan.lambda_for = Counting(
                hook.base, hook.level_provider, hook.relax_factor,
                hook.ceiling, hook.relax_at_level,
            )
            if per_hit_hook:  # the λ audit calls the hook on every hit
                get_plan.anchor_lambda = lambda view, row: (
                    get_plan._effective_lambda(view.cells["cost"][row])
                )
            audited: list = []
            record = obs.audit.certified_bounds
            obs.audit.certified_bounds = lambda t, rows: (
                audited.extend(rows) or record(t, rows)
            )
            Counting.calls = 0
            with manager:
                checks = [
                    manager.process(QueryInstance(template.name, sv=sv)).check
                    for sv in stream
                ]
                anchors = get_plan.cache.num_instances
            return checks, audited, Counting.calls, anchors, obs.audit

        checks, audited, calls, anchors, audit = serve(per_hit_hook=False)
        hits = checks.count("selectivity")
        assert hits > 0 and "optimizer" in checks
        assert calls == anchors  # one per anchor, none per hit
        loop_checks, loop_audited, loop_calls, _, loop_audit = serve(True)
        assert loop_calls == anchors + hits
        assert (checks, audited) == (loop_checks, loop_audited)
        assert audit.total_violations == loop_audit.total_violations

    def test_a_level_drop_between_probe_and_commit_audits_the_new_lambda(self):
        """Every row is probed at LAMBDA_RELAXED and committed after the
        level has dropped to NORMAL (as another shard's completion can
        move the shared coordinator).  The λ audit checks each hit
        against the base λ now in force, not the relaxed one its probe
        used, so the hits the relaxation certified count as violations,
        exactly as a per-hit hook call counts them."""
        rng = random.Random(5)
        stream = [
            SelectivityVector.of(rng.uniform(0.01, 1.0), rng.uniform(0.01, 1.0))
            for _ in range(150)
        ]

        def serve(per_hit_hook: bool):
            obs = Observability()
            manager, template = make_manager(
                policy=OverloadPolicy(queue_limit=10**6, evaluate_every=10**6),
                obs=obs, max_workers=1,
            )
            scr = manager.shard(template.name).scr
            get_plan = scr.get_plan
            level = [BrownoutLevel.LAMBDA_RELAXED]
            hook = get_plan.lambda_for
            get_plan.lambda_for = PressureRelaxedLambda(
                hook.base, lambda: level[0], hook.relax_factor,
                hook.ceiling, hook.relax_at_level,
            )
            if per_hit_hook:
                get_plan.anchor_lambda = lambda view, row: (
                    get_plan._effective_lambda(view.cells["cost"][row])
                )
            apply = scr.apply

            def commit_after_the_drop(*args, **kwargs):
                level[0] = BrownoutLevel.NORMAL
                return apply(*args, **kwargs)

            scr.apply = commit_after_the_drop
            audited: list = []
            record = obs.audit.certified_bounds
            obs.audit.certified_bounds = lambda t, rows: (
                audited.extend(rows) or record(t, rows)
            )
            with manager:
                for sv in stream:
                    level[0] = BrownoutLevel.LAMBDA_RELAXED
                    manager.process(QueryInstance(template.name, sv=sv))
            return audited, obs.audit.total_violations

        audited, violations = serve(per_hit_hook=False)
        assert audited and {lam for _, lam, _, _ in audited} == {LAM}
        assert any(bound > LAM for bound, _, _, _ in audited)
        assert violations > 0
        assert (audited, violations) == serve(per_hit_hook=True)


# ---------------------------------------------------------------------------
# Deadline propagation through the serving path


class TestDeadlinePropagation:
    def test_expired_deadline_serves_cached_plan_uncertified(self):
        obs = Observability()
        manager, template = make_manager(
            policy=OverloadPolicy(
                evaluate_every=10**6, default_deadline_seconds=0.0
            ),
            obs=obs,
        )
        try:
            shard = manager.shard(template.name)
            warm = shard.scr.process(QueryInstance(template.name, sv=NEAR))
            assert warm.certified
            engine = shard.engine
            optimize_before = engine.counters.optimize.calls
            choice = manager.process(QueryInstance(template.name, sv=NEAR))
            assert choice.check == "overload"
            assert not choice.certified
            assert choice.plan_signature == warm.plan_signature
            # The expired budget funded zero engine work.
            assert engine.counters.optimize.calls == optimize_before
            assert shard.stats.overload_serves == 1
            assert shard.stats.deadline_misses == 1
            events = event_spans(obs, "overload.uncertified_serve")
            assert [e.attrs["reason"] for e in events] == ["deadline_expired"]
        finally:
            manager.close()

    def test_nearly_expired_budget_never_invokes_optimize(self):
        manager, template = make_manager(
            policy=OverloadPolicy(
                evaluate_every=10**6, min_optimize_budget=10.0,
                default_deadline_seconds=1.0,
            )
        )
        try:
            shard = manager.shard(template.name)
            shard.scr.process(QueryInstance(template.name, sv=NEAR))
            engine = shard.engine
            optimize_before = engine.counters.optimize.calls
            recost_before = engine.counters.recost.calls
            # 1s remaining < min_optimize_budget=10s: a live deadline
            # whose budget cannot fund an optimizer call.
            choice = manager.process(QueryInstance(template.name, sv=FAR))
            assert choice.check == "overload"
            assert not choice.certified
            assert engine.counters.optimize.calls == optimize_before
            assert engine.counters.recost.calls == recost_before
        finally:
            manager.close()

    def test_expired_deadline_with_empty_cache_sheds(self):
        manager, template = make_manager(
            policy=OverloadPolicy(
                evaluate_every=10**6, default_deadline_seconds=0.0
            )
        )
        try:
            with pytest.raises(ShedError) as err:
                manager.process(QueryInstance(template.name, sv=NEAR))
            assert err.value.reason == "deadline_expired:no_cached_plan"
            assert err.value.template == template.name
            assert manager.shard(template.name).stats.shed == 1
        finally:
            manager.close()

    def test_default_deadline_attached_by_policy(self):
        manager, template = make_manager(
            policy=OverloadPolicy(
                evaluate_every=10**6, default_deadline_seconds=0.0
            )
        )
        try:
            manager.process(QueryInstance(template.name, sv=NEAR))
        except ShedError as err:
            # Zero default budget: first instance has nothing cached.
            assert err.reason == "deadline_expired:no_cached_plan"
        else:
            pytest.fail("zero default deadline must shed on a cold cache")
        finally:
            manager.close()


# ---------------------------------------------------------------------------
# Brownout levels on the serving path


class TestBrownoutServing:
    def test_uncertified_level_denies_optimize_and_serves_cache(self):
        obs = Observability()
        manager, template = make_manager(
            policy=OverloadPolicy(evaluate_every=10**6), obs=obs
        )
        try:
            manager.process(QueryInstance(template.name, sv=NEAR))
            engine = manager.shard(template.name).engine
            optimize_before = engine.counters.optimize.calls
            manager._overload_coordinator.controller.level = (
                BrownoutLevel.UNCERTIFIED
            )
            choice = manager.process(QueryInstance(template.name, sv=FAR))
            assert choice.check == "overload"
            assert not choice.certified
            assert engine.counters.optimize.calls == optimize_before
            events = event_spans(obs, "overload.uncertified_serve")
            assert [e.attrs["reason"] for e in events] == ["brownout_uncertified"]
        finally:
            manager.close()

    def test_shed_level_spends_zero_engine_calls(self):
        manager, template = make_manager(
            policy=OverloadPolicy(evaluate_every=10**6)
        )
        try:
            manager.process(QueryInstance(template.name, sv=NEAR))
            engine = manager.shard(template.name).engine
            optimize_before = engine.counters.optimize.calls
            recost_before = engine.counters.recost.calls
            manager._overload_coordinator.controller.level = BrownoutLevel.SHED
            # A selectivity hit is free and still certified even in SHED.
            hit = manager.process(QueryInstance(template.name, sv=NEAR))
            assert hit.check == "selectivity"
            assert hit.certified
            # A miss is served from cache with no engine calls at all.
            miss = manager.process(QueryInstance(template.name, sv=FAR))
            assert miss.check == "overload"
            assert not miss.certified
            assert engine.counters.optimize.calls == optimize_before
            assert engine.counters.recost.calls == recost_before
        finally:
            manager.close()

    def test_shed_level_with_empty_cache_raises_shed_error(self):
        obs = Observability()
        manager, template = make_manager(
            policy=OverloadPolicy(evaluate_every=10**6), obs=obs
        )
        try:
            manager._overload_coordinator.controller.level = BrownoutLevel.SHED
            with pytest.raises(ShedError) as err:
                manager.process(QueryInstance(template.name, sv=NEAR))
            assert err.value.reason == "brownout_shed:no_cached_plan"
            events = event_spans(obs, "overload.shed")
            assert [e.attrs["reason"] for e in events] == [
                "brownout_shed:no_cached_plan"
            ]
        finally:
            manager.close()

    def test_every_degraded_decision_has_a_traced_reason(self):
        """Shed + uncertified counts equal the traced overload decisions."""
        obs = Observability()
        manager, template = make_manager(
            policy=OverloadPolicy(evaluate_every=10**6), obs=obs
        )
        try:
            manager.process(QueryInstance(template.name, sv=NEAR))
            manager._overload_coordinator.controller.level = BrownoutLevel.SHED
            for v in (0.5, 0.25, 0.125):
                manager.process(
                    QueryInstance(template.name, sv=SelectivityVector.of(v, v))
                )
            shard = manager.shard(template.name)
            decisions = (
                event_spans(obs, "overload.shed")
                + event_spans(obs, "overload.uncertified_serve")
            )
            assert shard.stats.shed + shard.stats.overload_serves == len(decisions)
            assert all(e.attrs["reason"] for e in decisions)  # every one has a reason
        finally:
            manager.close()


# ---------------------------------------------------------------------------
# Bounded ingress and gate admission


class TestBoundedIngress:
    def test_queue_overflow_resolves_in_the_submitting_thread(self):
        obs = Observability()
        manager, template = make_manager(
            policy=OverloadPolicy(queue_limit=1, evaluate_every=10**6),
            obs=obs,
        )
        try:
            manager.process(QueryInstance(template.name, sv=NEAR))
            shard = manager.shard(template.name)
            ov = manager._overload_coordinator
            assert ov.try_enter_queue(shard.stats)  # occupy the only slot
            try:
                fut = manager.submit(QueryInstance(template.name, sv=FAR))
                assert fut.done()  # resolved synchronously, never queued
                choice = fut.result()
                assert choice.check == "overload"
                assert not choice.certified
                assert shard.stats.queue_rejects == 1
                rejects = event_spans(obs, "overload.queue_reject")
                assert len(rejects) == 1
            finally:
                ov.exit_queue(shard.stats)
        finally:
            manager.close()

    def test_gate_timeout_degrades_instead_of_waiting(self):
        manager, template = make_manager(
            policy=OverloadPolicy(
                optimizer_concurrency=1,
                gate_timeout=0.005,
                evaluate_every=10**6,
            )
        )
        try:
            manager.process(QueryInstance(template.name, sv=NEAR))
            ov = manager._overload_coordinator
            assert ov.gate.acquire(timeout=0.01)  # hold the only slot
            try:
                choice = manager.process(QueryInstance(template.name, sv=FAR))
                assert choice.check == "overload"
                assert not choice.certified
                shard = manager.shard(template.name)
                assert shard.stats.gate_timeouts == 1
            finally:
                ov.release_optimize()
        finally:
            manager.close()

    def test_queue_depth_gauge_tracks_submissions(self):
        manager, template = make_manager(
            policy=OverloadPolicy(queue_limit=8, evaluate_every=10**6)
        )
        try:
            manager.process(QueryInstance(template.name, sv=NEAR))
            futs = [
                manager.submit(QueryInstance(template.name, sv=NEAR))
                for _ in range(4)
            ]
            for f in futs:
                f.result(timeout=10)
            shard = manager.shard(template.name)
            assert shard.stats.queue_depth == 0  # every slot released
            assert shard.stats.queue_high_water >= 1
            assert manager._overload_coordinator.pending == 0
        finally:
            manager.close()


    def test_queue_gauges_equal_the_locked_counters_after_a_burst(self):
        """Entry and exit each update the shard's depth, its high-water
        mark, the global pending count and their gauges in one lock
        section, so after a concurrent ``submit`` burst every gauge
        equals its locked counter."""
        obs = Observability()
        manager, template = make_manager(
            policy=OverloadPolicy(queue_limit=6, evaluate_every=10**6),
            obs=obs, max_workers=4,
        )
        try:
            manager.process(QueryInstance(template.name, sv=NEAR))
            start = threading.Barrier(8)
            futures: list = []

            def burst():
                start.wait()
                futures.extend(
                    manager.submit(QueryInstance(template.name, sv=NEAR))
                    for _ in range(25)
                )

            threads = [threading.Thread(target=burst) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
            for f in futures:
                f.result(timeout=10)
            shard = manager.shard(template.name)
            ov = manager._overload_coordinator
            stats = shard.stats
            assert stats.queue_depth == 0 and ov.pending == 0
            assert 1 <= stats._high_water <= 6
            assert stats._m_queue.value == stats.queue_depth
            assert stats.queue_high_water == stats._high_water
            assert ov._m_pending.value == ov.pending
        finally:
            manager.close()


# ---------------------------------------------------------------------------
# Per-row admission inside a group


def ladder(n: int) -> list[SelectivityVector]:
    """``n`` distinct vectors, each far from NEAR and from each other."""
    return [SelectivityVector.of(0.5 ** k, 0.5 ** k) for k in range(1, n + 1)]


class TestRowAdmission:
    """``process_many`` under a coordinator serves each template's rows
    as one group, while the queue slot, the deadline check and the
    completion count stay per row."""

    def test_a_deadline_expiring_after_the_first_row_degrades_the_rest(self):
        fake = FakeClock()
        obs = Observability(clock=fake.clock)
        manager, template = make_manager(
            policy=OverloadPolicy(
                evaluate_every=10**6, default_deadline_seconds=1.0
            ),
            obs=obs,
            max_workers=1,  # one worker: the template's rows are one group
        )
        shard = manager.shard(template.name)
        optimize = shard.scr._optimize

        def slow_optimize(*args, **kwargs):
            fake.advance(2.0)  # the group's budget dies in its first row
            return optimize(*args, **kwargs)

        shard.scr._optimize = slow_optimize
        # The second NEAR would be a certified selectivity hit if probed.
        rows = [
            QueryInstance(template.name, sv=sv)
            for sv in [NEAR, NEAR] + ladder(2)
        ]
        with manager:
            choices = manager.process_many(rows, dedupe=False)
        assert choices[0].certified and choices[0].used_optimizer
        assert [c.check for c in choices[1:]] == ["overload"] * 3
        assert not any(c.certified for c in choices[1:])
        assert shard.engine.counters.optimize.calls == 1
        events = event_spans(obs, "overload.uncertified_serve")
        assert [e.attrs["reason"] for e in events] == ["deadline_expired"] * 3
        assert shard.stats.deadline_misses == len(rows)
        assert manager._overload_coordinator._window_served == len(rows)

    def test_rows_refused_a_slot_are_one_overflow_group(self):
        obs = Observability(clock=FakeClock().clock)
        manager, template = make_manager(
            policy=OverloadPolicy(queue_limit=2, evaluate_every=10**6),
            obs=obs,
            max_workers=1,
        )
        shard = manager.shard(template.name)
        serve = shard.process_batch
        served: list = []

        def recording(instances, **kwargs):
            served.append((
                threading.current_thread(), len(instances),
                kwargs["overflow_reason"],
            ))
            return serve(instances, **kwargs)

        shard.process_batch = recording
        rows = [QueryInstance(template.name, sv=sv) for sv in ladder(5)]
        with manager:
            # A cached plan for the overflow rows to be served from.
            manager.process(QueryInstance(template.name, sv=NEAR))
            obs.spans.clear()
            choices = manager.process_many(rows, dedupe=False)
            assert manager._overload_coordinator.pending == 0
        caller = threading.current_thread()
        assert served[0] == (caller, 3, "queue_full")
        assert served[1][0] is not caller and served[1][1:] == (2, None)
        assert all(c.certified for c in choices[:2])
        assert [c.check for c in choices[2:]] == ["overload"] * 3
        rejects = event_spans(obs, "overload.queue_reject")
        assert [e.attrs["reason"] for e in rejects] == ["queue_full"] * 3
        assert len({e.attrs["seq"] for e in rejects}) == 3
        assert shard.stats.queue_rejects == 3
        groups = [s for s in obs.spans.spans() if s.name == "serving.batch"]
        assert sorted(len(g.attrs["seqs"]) for g in groups) == [2, 3]

    @pytest.mark.parametrize("policy, sizes", [
        (OverloadPolicy(evaluate_every=10**6), [2, 2, 2, 2]),
        (None, [8]),
    ])
    def test_idle_workers_split_a_templates_admitted_rows(self, policy, sizes):
        """Under a policy the rows' budgets run from enqueue, so one
        template's admitted rows are split over the workers fewer
        templates would leave idle; the plain path keeps one group."""
        obs = Observability()
        manager, template = make_manager(
            policy=policy, obs=obs, max_workers=4
        )
        rows = [QueryInstance(template.name, sv=sv) for sv in ladder(8)]
        with manager:
            choices = manager.process_many(rows, dedupe=False)
            if policy is not None:
                assert manager._overload_coordinator.pending == 0
        assert all(c.plan_signature for c in choices)
        groups = [s for s in obs.spans.spans() if s.name == "serving.batch"]
        assert sorted(len(g.attrs["seqs"]) for g in groups) == sizes
        assert manager.shard(template.name).instances_seen == len(rows)

    def test_split_groups_are_queued_rank_major_across_templates(self):
        """Every template's first group is queued before any second
        one, so a cold batch reaches the optimizer gate with each
        template, as rows of their own did round-robin."""
        manager = ConcurrentPQOManager(
            database=Database.create(build_toy_schema(), seed=7),
            max_workers=4, overload=OverloadPolicy(evaluate_every=10**6),
        )
        names = ["ov_a", "ov_b"]
        for name in names:
            manager.register(
                overload_template(name), lam=LAM, max_recost_candidates=0
            )
        rows = [QueryInstance(name, sv=sv) for name in names for sv in ladder(4)]
        held: list = []
        manager._executor.submit = lambda _fn, *args: held.append(args)
        lane, _ = manager._dispatch(rows, False)
        assert [
            (shard.template.name, [row for row, _ in items])
            for shard, items, _, _ in lane.pending
        ] == [("ov_a", [0, 1]), ("ov_b", [4, 5]), ("ov_a", [2, 3]), ("ov_b", [6, 7])]
        for args in held:
            manager._run(*args)  # the held pool tasks, in this thread
        assert all(row.plan_signature for row in lane.rows())
        assert manager._overload_coordinator.pending == 0
        manager.close()

    def test_a_raising_overflow_group_releases_every_rows_slot(self):
        manager, template = make_manager(
            policy=OverloadPolicy(queue_limit=2, evaluate_every=10**6)
        )
        shard = manager.shard(template.name)
        serve = shard.process_batch

        def failing_overflow(instances, **kwargs):
            if kwargs["overflow_reason"] is not None:
                raise RuntimeError("overflow group failed")
            return serve(instances, **kwargs)

        shard.process_batch = failing_overflow
        rows = [QueryInstance(template.name, sv=sv) for sv in ladder(5)]
        with manager:
            manager.process(QueryInstance(template.name, sv=NEAR))
            with pytest.raises(RuntimeError, match="overflow group failed"):
                manager.process_many(rows, dedupe=False)
            assert manager._overload_coordinator.pending == 0
            assert shard.stats.queue_depth == 0

    def test_a_level_change_between_rows_reprobes_under_the_new_lambda(self):
        """A recovery out of LAMBDA_RELAXED after a group's first row:
        the second row, a hit only under the relaxed λ, is probed
        against the base λ, as in a ``process()`` loop."""
        relaxed_hit = SelectivityVector.of(0.9 / 2.5, 0.9)  # S·G·L = 2.5

        def serve(as_group: bool):
            obs = Observability(clock=FakeClock().clock)
            manager, template = make_manager(
                policy=OverloadPolicy(evaluate_every=1, recover_ticks=1),
                obs=obs,
            )
            shard = manager.shard(template.name)
            rows = [
                QueryInstance(template.name, sv=sv)
                for sv in (NEAR, relaxed_hit)
            ]
            with manager:
                manager.process(QueryInstance(template.name, sv=NEAR))
                controller = manager._overload_coordinator.controller
                controller.level = BrownoutLevel.LAMBDA_RELAXED
                if as_group:
                    choices = shard.process_batch(rows)
                else:
                    choices = [shard.process(row) for row in rows]
            moves = [(t.previous, t.current) for t in controller.transitions]
            return choices, moves, obs

        group, group_moves, obs = serve(as_group=True)
        loop, loop_moves, _ = serve(as_group=False)
        assert group_moves == loop_moves
        assert group_moves[0] == (
            BrownoutLevel.LAMBDA_RELAXED, BrownoutLevel.COVERAGE_RELAXED
        )
        assert group[1].used_optimizer
        assert [
            (c.check, c.certified, c.certified_bound, c.used_optimizer)
            for c in group
        ] == [
            (c.check, c.certified, c.certified_bound, c.used_optimizer)
            for c in loop
        ]
        assert obs.audit.zero_violations

    def test_a_refused_dispatch_releases_every_rows_slot(self):
        manager, template = make_manager(
            policy=OverloadPolicy(queue_limit=8, evaluate_every=10**6)
        )
        manager.process(QueryInstance(template.name, sv=NEAR))
        manager.close(wait=False)  # the executor now refuses every task
        rows = [QueryInstance(template.name, sv=sv) for sv in ladder(3)]
        with pytest.raises(ShutdownError):
            manager.process_many(rows, dedupe=False)
        assert manager._overload_coordinator.pending == 0
        assert manager.shard(template.name).stats.queue_depth == 0


# ---------------------------------------------------------------------------
# Shutdown semantics


class TestShutdown:
    def _blocked_manager(self):
        manager, template = make_manager(policy=None, max_workers=1)
        manager.process(QueryInstance(template.name, sv=NEAR))  # warm cache
        shard = manager.shard(template.name)
        release = threading.Event()
        started = threading.Event()
        orig = shard.process

        def blocking(instance, **kwargs):
            started.set()
            release.wait(timeout=10)
            return orig(instance, **kwargs)

        shard.process = blocking
        return manager, template, started, release

    def test_close_nowait_resolves_queued_futures_with_shutdown_error(self):
        manager, template, started, release = self._blocked_manager()
        try:
            first = manager.submit(QueryInstance(template.name, sv=NEAR))
            assert started.wait(timeout=10)
            queued = [
                manager.submit(QueryInstance(template.name, sv=NEAR))
                for _ in range(3)
            ]
            manager.close(wait=False)
            for fut in queued:
                # Resolved promptly — never parked on a dead executor.
                assert isinstance(
                    fut.exception(timeout=10), ShutdownError
                )
            assert isinstance(first.exception(timeout=10), ShutdownError)
        finally:
            release.set()

    def test_submit_after_close_returns_shutdown_error_future(self):
        manager, template = make_manager(policy=None)
        manager.process(QueryInstance(template.name, sv=NEAR))
        manager.close(wait=False)
        fut = manager.submit(QueryInstance(template.name, sv=NEAR))
        assert isinstance(fut.exception(timeout=10), ShutdownError)

    def test_close_wait_still_drains(self):
        manager, template = make_manager(policy=None)
        futs = [
            manager.submit(QueryInstance(template.name, sv=NEAR))
            for _ in range(8)
        ]
        manager.close(wait=True)
        assert all(f.result(timeout=10).plan_signature for f in futs)


# ---------------------------------------------------------------------------
# Reporting


class TestReporting:
    def test_serving_report_merges_health_columns(self):
        manager, template = make_manager(
            policy=OverloadPolicy(evaluate_every=10**6)
        )
        try:
            manager.process(QueryInstance(template.name, sv=NEAR))
            rows = manager.serving_report()
            assert rows[-1]["template"] == "TOTAL"
            for row in rows:
                for key in (
                    "breaker", "quarantined", "degraded",
                    "shed", "overload_serves", "deadline_miss",
                    "gate_timeouts", "queue_rejects", "queue_hw",
                ):
                    assert key in row
        finally:
            manager.close()

    def test_overload_report_surfaces_brownout_state(self):
        manager, template = make_manager(
            policy=OverloadPolicy(evaluate_every=10**6)
        )
        try:
            report = manager.overload_report()
            assert report["brownout"] == "normal"
            assert manager.brownout_level is BrownoutLevel.NORMAL
            manager._overload_coordinator.controller.level = BrownoutLevel.SHED
            assert manager.overload_report()["brownout"] == "shed"
        finally:
            manager.close()

    def test_overload_report_none_without_policy(self):
        manager, template = make_manager(policy=None)
        try:
            assert manager.overload_report() is None
            assert manager.brownout_level is None
        finally:
            manager.close()


# ---------------------------------------------------------------------------
# Service-level summary helper


class TestServiceLevelSummary:
    def test_outcome_breakdown_and_deadline_hit_rate(self):
        summary = ServiceLevelSummary.from_outcomes(
            latencies_s=[0.01, 0.02, 0.20, 0.03],
            certified_flags=[True, True, False, False],
            shed=1,
            deadline_seconds=0.05,
        )
        assert summary.total == 5
        assert summary.certified == 2
        assert summary.uncertified == 2
        assert summary.shed == 1
        assert summary.deadline_hit_rate == pytest.approx(3 / 5)
        assert summary.p99_in_deadline_ms <= 30.0 + 1e-6

    def test_mismatched_inputs_rejected(self):
        with pytest.raises(ValueError):
            ServiceLevelSummary.from_outcomes([0.1], [], shed=0)
