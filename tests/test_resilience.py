"""Unit tests for the engine resilience layer.

Covers the retry policy (deterministic backoff + jitter), the
count-based circuit breaker, fail-closed recost degradation, optimizer
fallback through SCR, sVector last-known-good reuse, fault-injector
determinism, and the manager's quarantine of templates whose breaker
stays open.
"""

import math
import random
import time

import pytest

from repro.core.scr import SCR
from repro.core.technique import fetch_selectivity
from repro.engine.api import EngineAPI, EngineWrapper
from repro.engine.faults import (
    DriftingCostEngine,
    EngineTimeoutError,
    FaultConfig,
    FaultInjector,
    FaultProfile,
    NoisyEngine,
    TransientEngineError,
)
from repro.engine.resilience import (
    BreakerState,
    CircuitBreaker,
    OptimizeUnavailableError,
    ResiliencePolicy,
    ResilientEngineAPI,
    RetryPolicy,
    SelectivityUnavailableError,
    resilient_engine_factory,
)
from repro.obs import Observability, instrument_engine
from repro.optimizer.optimizer import QueryOptimizer
from repro.query.instance import QueryInstance, SelectivityVector, as_point
from repro.serving import ConcurrentPQOManager, SimulatedLatencyEngine
from repro.workload.generator import instances_for_template

from conftest import event_spans

NO_SLEEP = lambda seconds: None  # noqa: E731

#: Fast-failing policy used throughout: no real sleeping in tests.
FAST_POLICY = ResiliencePolicy(
    retry=RetryPolicy(max_attempts=3, base_backoff=0.0, max_backoff=0.0),
    breaker_failure_threshold=4,
    breaker_cooldown_calls=5,
)


def make_engine(toy_db, toy_template, obs=None) -> EngineAPI:
    optimizer = QueryOptimizer(
        toy_template, toy_db.stats, toy_db.estimator, toy_db.cost_model
    )
    engine = EngineAPI(toy_template, optimizer, toy_db.estimator)
    if obs is not None:
        instrument_engine(engine, obs)
    return engine


class ScriptedFailures(EngineWrapper):
    """Wraps an engine; fails the raw calls whose indices are scripted."""

    def __init__(self, engine, fail_recost=(), fail_optimize=(),
                 fail_selectivity=(), error=TransientEngineError):
        super().__init__(engine)
        self.fail_recost = set(fail_recost)
        self.fail_optimize = set(fail_optimize)
        self.fail_selectivity = set(fail_selectivity)
        self.error = error
        self.recost_calls = 0
        self.optimize_calls = 0
        self.selectivity_calls = 0

    def _selectivity_call(self):
        """Point and interval sVector calls share one call count."""
        self.selectivity_calls += 1
        if self.selectivity_calls in self.fail_selectivity:
            raise self.error("scripted sVector failure")

    def selectivity_vector_ex(self, instance):
        self._selectivity_call()
        return self.inner.selectivity_vector_ex(instance)

    def selectivity_vector_with_error_ex(self, instance):
        self._selectivity_call()
        return self.inner.selectivity_vector_with_error_ex(instance)

    def optimize(self, sv, incumbent=None):
        self.optimize_calls += 1
        if self.optimize_calls in self.fail_optimize:
            raise self.error("scripted optimize failure")
        return self.inner.optimize(sv, incumbent)

    def recost(self, shrunken, sv):
        self.recost_calls += 1
        if self.recost_calls in self.fail_recost:
            raise self.error("scripted recost failure")
        return self.inner.recost(shrunken, sv)


class TestRetryPolicy:
    def test_backoff_deterministic_for_seed(self):
        policy = RetryPolicy(base_backoff=0.01, multiplier=2.0, jitter=0.5)
        a = [policy.backoff(i, random.Random(7)) for i in (1, 2, 3)]
        b = [policy.backoff(i, random.Random(7)) for i in (1, 2, 3)]
        assert a == b

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(
            base_backoff=0.01, multiplier=2.0, max_backoff=0.03, jitter=0.0
        )
        rng = random.Random(0)
        assert policy.backoff(1, rng) == pytest.approx(0.01)
        assert policy.backoff(2, rng) == pytest.approx(0.02)
        assert policy.backoff(5, rng) == pytest.approx(0.03)  # capped

    def test_invalid_attempts(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)


class TestCircuitBreaker:
    def test_opens_after_threshold(self):
        br = CircuitBreaker(failure_threshold=3, cooldown_calls=2)
        assert br.record_failure() is None
        assert br.record_failure() is None
        assert br.record_failure() == "closed->open"
        assert br.state is BreakerState.OPEN

    def test_short_circuits_then_probes(self):
        br = CircuitBreaker(failure_threshold=1, cooldown_calls=2)
        br.record_failure()
        allowed, _ = br.allow()
        assert not allowed                       # rejection 1 of cooldown
        allowed, transition = br.allow()
        assert allowed and transition == "open->half-open"

    def test_probe_success_closes(self):
        br = CircuitBreaker(failure_threshold=1, cooldown_calls=1)
        br.record_failure()
        br.allow()                               # -> half-open probe
        assert br.record_success() == "half-open->closed"
        assert br.state is BreakerState.CLOSED
        assert br.closes == 1

    def test_probe_failure_reopens(self):
        br = CircuitBreaker(failure_threshold=1, cooldown_calls=1)
        br.record_failure()
        br.allow()
        assert br.record_failure() == "half-open->open"
        assert br.opens == 2

    def test_success_resets_failure_streak(self):
        br = CircuitBreaker(failure_threshold=2, cooldown_calls=1)
        br.record_failure()
        br.record_success()
        assert br.record_failure() is None       # streak restarted
        assert br.state is BreakerState.CLOSED


class TestResilientRecost:
    def _prepared(self, toy_db, toy_template, fail_recost, obs=None):
        engine = make_engine(toy_db, toy_template, obs=obs)
        flaky = ScriptedFailures(engine, fail_recost=fail_recost)
        resilient = ResilientEngineAPI(
            flaky, policy=FAST_POLICY, sleep=NO_SLEEP
        )
        result = engine.optimize(SelectivityVector.of(0.3, 0.3))
        return resilient, flaky, result.shrunken_memo

    def test_transient_failure_retried_to_success(self, toy_db, toy_template):
        resilient, flaky, memo = self._prepared(
            toy_db, toy_template, fail_recost={1}
        )
        cost = resilient.recost(memo, SelectivityVector.of(0.4, 0.4))
        assert math.isfinite(cost) and cost > 0
        assert flaky.recost_calls == 2           # 1 failure + 1 retry
        assert resilient.counters.resilience.retries == 1
        assert resilient.counters.resilience.faults_recost == 1

    def test_exhausted_retries_fail_closed(self, toy_db, toy_template):
        resilient, flaky, memo = self._prepared(
            toy_db, toy_template, fail_recost=range(1, 100)
        )
        cost = resilient.recost(memo, SelectivityVector.of(0.4, 0.4))
        assert cost == math.inf
        assert resilient.counters.resilience.recost_failed_closed == 1

    def test_garbage_costs_fail_closed(self, toy_db, toy_template):
        engine = make_engine(toy_db, toy_template)
        result = engine.optimize(SelectivityVector.of(0.3, 0.3))

        class Garbage:
            def __getattr__(self, name):
                return getattr(engine, name)

            def recost(self, shrunken, sv):
                return math.nan

        resilient = ResilientEngineAPI(
            Garbage(), policy=FAST_POLICY, sleep=NO_SLEEP
        )
        assert resilient.recost(
            result.shrunken_memo, SelectivityVector.of(0.4, 0.4)
        ) == math.inf
        assert resilient.counters.resilience.faults_recost == 3  # every attempt

    def test_breaker_opens_and_short_circuits(self, toy_db, toy_template):
        resilient, flaky, memo = self._prepared(
            toy_db, toy_template, fail_recost=range(1, 10_000)
        )
        sv = SelectivityVector.of(0.4, 0.4)
        resilient.recost(memo, sv)               # 3 failed attempts
        resilient.recost(memo, sv)               # breaker opens (threshold 4)
        calls_when_open = flaky.recost_calls
        for _ in range(3):                       # within the 5-call cooldown
            assert resilient.recost(memo, sv) == math.inf
        assert flaky.recost_calls == calls_when_open   # no inner calls
        res = resilient.counters.resilience
        assert res.breaker_opens >= 1
        assert res.breaker_short_circuits == 3
        assert resilient.recost_breaker.is_open

    def test_breaker_recovers_after_engine_heals(self, toy_db, toy_template):
        resilient, flaky, memo = self._prepared(
            toy_db, toy_template, fail_recost=range(1, 7)
        )
        sv = SelectivityVector.of(0.4, 0.4)
        resilient.recost(memo, sv)               # attempts 1-3 fail
        resilient.recost(memo, sv)               # attempts 4-6 fail -> open
        assert resilient.recost_breaker.is_open
        for _ in range(resilient.recost_breaker.cooldown_calls - 1):
            resilient.recost(memo, sv)           # short-circuited
        cost = resilient.recost(memo, sv)        # half-open probe, heals
        assert math.isfinite(cost)
        assert resilient.recost_breaker.state is BreakerState.CLOSED
        assert resilient.counters.resilience.breaker_closes == 1

    def test_fault_and_breaker_events_traced(self, toy_db, toy_template):
        obs = Observability()
        resilient, flaky, memo = self._prepared(
            toy_db, toy_template, fail_recost=range(1, 10_000), obs=obs
        )
        sv = SelectivityVector.of(0.4, 0.4)
        for _ in range(4):
            resilient.recost(memo, sv)
        kinds = {e.name for e in event_spans(obs, "engine.")}
        assert kinds == {
            "engine.fault", "engine.retry", "engine.breaker",
            "engine.degraded",
        }


class TestResilientOptimize:
    def test_retry_then_success(self, toy_db, toy_template):
        engine = make_engine(toy_db, toy_template)
        flaky = ScriptedFailures(engine, fail_optimize={1})
        resilient = ResilientEngineAPI(flaky, policy=FAST_POLICY, sleep=NO_SLEEP)
        result = resilient.optimize(SelectivityVector.of(0.3, 0.3))
        assert result.cost > 0
        assert flaky.optimize_calls == 2

    def test_exhaustion_raises_unavailable(self, toy_db, toy_template):
        engine = make_engine(toy_db, toy_template)
        flaky = ScriptedFailures(engine, fail_optimize=range(1, 100))
        resilient = ResilientEngineAPI(flaky, policy=FAST_POLICY, sleep=NO_SLEEP)
        with pytest.raises(OptimizeUnavailableError):
            resilient.optimize(SelectivityVector.of(0.3, 0.3))

    def test_timeout_counts_as_failure(self, toy_db, toy_template):
        engine = make_engine(toy_db, toy_template)
        flaky = ScriptedFailures(
            engine, fail_optimize=range(1, 100), error=EngineTimeoutError
        )
        resilient = ResilientEngineAPI(flaky, policy=FAST_POLICY, sleep=NO_SLEEP)
        with pytest.raises(OptimizeUnavailableError):
            resilient.optimize(SelectivityVector.of(0.3, 0.3))
        assert resilient.counters.resilience.faults_optimize == 3


class TestScrOptimizerFallback:
    def test_fallback_serves_cached_plan_uncertified(self, toy_db, toy_template):
        engine = make_engine(toy_db, toy_template)
        flaky = ScriptedFailures(engine)
        resilient = ResilientEngineAPI(flaky, policy=FAST_POLICY, sleep=NO_SLEEP)
        scr = SCR(resilient, lam=1.5)
        # Warm the cache with healthy traffic.
        for inst in instances_for_template(toy_template, 40, seed=3):
            assert scr.process(inst).certified
        # Now the optimizer goes down entirely.
        flaky.fail_optimize = set(range(1, 10_000))
        fell_back = 0
        for inst in instances_for_template(toy_template, 60, seed=5):
            choice = scr.process(inst)
            if choice.check == "fallback":
                fell_back += 1
                assert not choice.certified
                assert not choice.used_optimizer
                assert choice.plan_signature
        assert fell_back >= 1
        assert resilient.counters.resilience.optimize_fallbacks == fell_back

    def test_empty_cache_reraises(self, toy_db, toy_template):
        engine = make_engine(toy_db, toy_template)
        flaky = ScriptedFailures(engine, fail_optimize=range(1, 10_000))
        resilient = ResilientEngineAPI(flaky, policy=FAST_POLICY, sleep=NO_SLEEP)
        scr = SCR(resilient, lam=1.5)
        with pytest.raises(OptimizeUnavailableError):
            scr.process(QueryInstance("t", sv=SelectivityVector.of(0.5, 0.5)))


class TestSelectivityFallback:
    def test_stale_vector_inflated_and_flagged(self, toy_db, toy_template):
        engine = make_engine(toy_db, toy_template)
        flaky = ScriptedFailures(engine, fail_selectivity=range(2, 100))
        policy = ResiliencePolicy(
            retry=RetryPolicy(max_attempts=2, base_backoff=0.0, max_backoff=0.0),
            svector_inflation=2.0,
        )
        resilient = ResilientEngineAPI(flaky, policy=policy, sleep=NO_SLEEP)
        good, status = resilient.selectivity_vector_ex(
            QueryInstance("toy_join", sv=SelectivityVector.of(0.3, 0.6))
        )
        assert not status
        degraded, status = resilient.selectivity_vector_ex(
            QueryInstance("toy_join", sv=SelectivityVector.of(0.9, 0.9))
        )
        assert status
        assert degraded == SelectivityVector.of(0.6, 1.0)  # inflated, clamped
        assert resilient.counters.resilience.selectivity_fallbacks == 1
        assert good == SelectivityVector.of(0.3, 0.6)

    def test_no_last_known_good_raises(self, toy_db, toy_template):
        engine = make_engine(toy_db, toy_template)
        flaky = ScriptedFailures(engine, fail_selectivity=range(1, 100))
        resilient = ResilientEngineAPI(flaky, policy=FAST_POLICY, sleep=NO_SLEEP)
        with pytest.raises(SelectivityUnavailableError):
            resilient.selectivity_vector(
                QueryInstance("toy_join", sv=SelectivityVector.of(0.5, 0.5))
            )

    def test_degraded_instances_marked_uncertified(self, toy_db, toy_template):
        engine = make_engine(toy_db, toy_template)
        flaky = ScriptedFailures(engine, fail_selectivity={5, 6, 7})
        policy = ResiliencePolicy(
            retry=RetryPolicy(max_attempts=1, base_backoff=0.0, max_backoff=0.0)
        )
        resilient = ResilientEngineAPI(flaky, policy=policy, sleep=NO_SLEEP)
        scr = SCR(resilient, lam=2.0)
        uncertified = 0
        for inst in instances_for_template(toy_template, 20, seed=9):
            choice = scr.process(inst)
            if not choice.certified:
                uncertified += 1
        assert uncertified == 3


class TestFaultInjectorDeterminism:
    def test_same_seed_same_fault_sequence(self, toy_db, toy_template):
        config = FaultConfig(
            recost=FaultProfile(error_rate=0.3, corrupt_rate=0.3),
            optimize=FaultProfile(timeout_rate=0.2),
        )

        def run(seed):
            engine = make_engine(toy_db, toy_template)
            injector = FaultInjector(engine, config, seed=seed)
            resilient = ResilientEngineAPI(
                injector, policy=FAST_POLICY, sleep=NO_SLEEP
            )
            scr = SCR(resilient, lam=2.0)
            for inst in instances_for_template(toy_template, 60, seed=21):
                try:
                    scr.process(inst)
                except OptimizeUnavailableError:
                    pass
            return [(f.api, f.mode, f.call_index) for f in injector.injected]

        assert run(5) == run(5)
        assert run(5) != run(6)

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            FaultProfile(error_rate=1.5)


class TestManagerQuarantine:
    def test_open_breaker_quarantines_template(self, toy_db, toy_template):
        policy = ResiliencePolicy(
            retry=RetryPolicy(max_attempts=2, base_backoff=0.0, max_backoff=0.0),
            breaker_failure_threshold=2,
            breaker_cooldown_calls=50,
        )

        def wrapper(engine):
            broken = ScriptedFailures(engine, fail_recost=range(1, 10_000))
            return ResilientEngineAPI(broken, policy=policy, sleep=NO_SLEEP)

        # Quarantine is swept at rebalance points: several fall inside
        # the stream, the last on its final instance.
        manager = ConcurrentPQOManager(
            database=toy_db, global_plan_budget=8, rebalance_every=10,
            engine_wrapper=wrapper,
        )
        manager.register(toy_template, lam=1.2)
        for inst in instances_for_template(toy_template, 50, seed=13):
            manager.process(inst)
        assert manager.quarantined_templates == [toy_template.name]
        shard = manager.shard(toy_template.name)
        assert shard.quarantined
        assert shard.budget == 1                 # frozen at the floor
        rows = manager.report()
        assert rows[0]["quarantined"] == "yes"

    def test_healthy_engine_never_quarantined(self, toy_db, toy_template):
        manager = ConcurrentPQOManager(
            database=toy_db,
            global_plan_budget=8,
            rebalance_every=10,
            engine_wrapper=resilient_engine_factory(sleep=NO_SLEEP),
        )
        manager.register(toy_template, lam=1.5)
        for inst in instances_for_template(toy_template, 50, seed=17):
            manager.process(inst)
        assert manager.quarantined_templates == []
        assert manager.report()[0]["quarantined"] == "-"


class TestInstanceIndexThreading:
    def test_trace_api_calls_carry_instance_index(self, toy_db, toy_template):
        obs = Observability()
        engine = make_engine(toy_db, toy_template)
        scr = SCR(engine, lam=1.5, obs=obs)
        for inst in instances_for_template(toy_template, 30, seed=19):
            scr.process(inst)
        api_spans = [
            s for s in obs.spans.spans()
            if s.name in ("engine.optimize", "engine.recost")
        ]
        assert api_spans
        assert all(s.attrs["seq"] >= 0 for s in api_spans)
        # Indices must span the workload, not stick at one value.
        assert len({s.attrs["seq"] for s in api_spans}) > 1


class TestPerCallDegradedStatus:
    """The degraded-sVector status must be per call / per thread, never a
    shared flag another thread's call can reset before it is read."""

    def _flaky_resilient(self, toy_db, toy_template, fail_calls):
        engine = make_engine(toy_db, toy_template)
        flaky = ScriptedFailures(engine, fail_selectivity=fail_calls)
        policy = ResiliencePolicy(
            retry=RetryPolicy(max_attempts=2, base_backoff=0.0, max_backoff=0.0),
            svector_inflation=2.0,
        )
        return ResilientEngineAPI(flaky, policy=policy, sleep=NO_SLEEP)

    def test_selectivity_vector_ex_returns_status(self, toy_db, toy_template):
        resilient = self._flaky_resilient(toy_db, toy_template, {2, 3})
        sv, degraded = resilient.selectivity_vector_ex(
            QueryInstance("toy_join", sv=SelectivityVector.of(0.3, 0.6))
        )
        assert not degraded
        assert sv == SelectivityVector.of(0.3, 0.6)
        sv, degraded = resilient.selectivity_vector_ex(
            QueryInstance("toy_join", sv=SelectivityVector.of(0.9, 0.9))
        )
        assert degraded
        assert sv == SelectivityVector.of(0.6, 1.0)  # stale, inflated

    def test_degraded_flag_survives_other_threads_calls(
        self, toy_db, toy_template
    ):
        import threading

        # Raw call 1 (main thread) succeeds and seeds last-known-good;
        # calls 2+3 (worker's attempt + retry) fail -> degraded; call 4
        # (main thread again) succeeds while the worker is still serving,
        # and reports its own status only.
        resilient = self._flaky_resilient(toy_db, toy_template, {2, 3})
        resilient.selectivity_vector(
            QueryInstance("toy_join", sv=SelectivityVector.of(0.3, 0.6))
        )
        worker_done = threading.Event()
        main_done = threading.Event()
        observed: dict[str, bool] = {}

        def worker():
            # The path the serving shards take.
            _, degraded = fetch_selectivity(
                resilient,
                QueryInstance("toy_join", sv=SelectivityVector.of(0.9, 0.9)),
            )
            observed["returned"] = degraded
            worker_done.set()
            main_done.wait(timeout=10)

        t = threading.Thread(target=worker)
        t.start()
        assert worker_done.wait(timeout=10)
        _, degraded = fetch_selectivity(
            resilient,
            QueryInstance("toy_join", sv=SelectivityVector.of(0.4, 0.5)),
        )
        assert not degraded
        main_done.set()
        t.join(timeout=10)
        assert observed == {"returned": True}

    def test_instance_index_is_thread_local(self, toy_db, toy_template):
        import threading

        engine = make_engine(toy_db, toy_template)
        resilient = ResilientEngineAPI(engine, policy=FAST_POLICY, sleep=NO_SLEEP)
        resilient.begin_instance(1)
        worker_done = threading.Event()

        def worker():
            resilient.begin_instance(2)
            worker_done.set()

        t = threading.Thread(target=worker)
        t.start()
        assert worker_done.wait(timeout=10)
        t.join(timeout=10)
        # The worker's begin_instance must not clobber this thread's
        # attribution index on either layer.
        assert resilient._index == 1
        assert engine._instance_index == 1


# -- wrappers stacked outside the resilient layer ----------------------------

#: One wrapper of each kind, to be stacked *outside* ``ResilientEngineAPI``.
#: The injector's seed-5 draws leave the first sVector clean and replay it
#: stale on the second call (after the first instance's optimize call).
OUTER_WRAPPERS = {
    "noisy": lambda e: NoisyEngine(e, noise=1.0, seed=3),
    "latency": lambda e: SimulatedLatencyEngine(
        e, optimize_seconds=0.0, recost_seconds=0.0, selectivity_seconds=0.05
    ),
    "stale": lambda e: FaultInjector(
        e, FaultConfig(selectivity=FaultProfile(corrupt_rate=0.5)), seed=5
    ),
    "drift": lambda e: DriftingCostEngine(e, factor=3.0),
}

FIRST = QueryInstance("toy_join", sv=SelectivityVector.of(0.3, 0.6))
SECOND = QueryInstance("toy_join", sv=SelectivityVector.of(0.05, 0.1))
THIRD = QueryInstance("toy_join", sv=SelectivityVector.of(0.8, 0.4))


def serve_inner_failure(kind, toy_db, toy_template, via_manager, **scr_kwargs):
    """Good inner sVector reads, then one that fails every retry: returns
    the first and the failed instance's choices.  Two good reads, so the
    injector's stale replay on the second leaves a live vector distinct
    from the fallback for it to act on."""
    rows = serve_outside_resilient(
        kind, toy_db, toy_template, via_manager,
        fail_selectivity=range(3, 10_000), instances=(FIRST, SECOND, THIRD),
        **scr_kwargs,
    )
    return rows[0][0], rows[2][0]


def serve_outside_resilient(
    kind, toy_db, toy_template, via_manager, fail_selectivity=(),
    instances=(FIRST, SECOND), **scr_kwargs,
):
    """Serve ``instances`` through ``OUTER(Resilient(Scripted(raw)))`` with
    ``SCR.process`` or a one-worker manager.

    Returns ``(choice, served point sVector, seconds)`` per instance; the
    served vector is what SCR's getPlan probe was handed.
    """

    def stack(raw):
        flaky = ScriptedFailures(raw, fail_selectivity=fail_selectivity)
        resilient = ResilientEngineAPI(flaky, policy=FAST_POLICY, sleep=NO_SLEEP)
        return OUTER_WRAPPERS[kind](resilient)

    manager = None
    if via_manager:
        manager = ConcurrentPQOManager(
            database=toy_db, max_workers=1, engine_wrapper=stack
        )
        scr = manager.register(toy_template, lam=1.5, **scr_kwargs).scr
        serve = manager.process
    else:
        scr = SCR(stack(make_engine(toy_db, toy_template)), lam=1.5, **scr_kwargs)
        serve = scr.process
    served = []
    get_plan = scr.get_plan
    probe, probe_rows = get_plan.probe, get_plan.probe_rows

    def spy(sv, *args, **kwargs):
        served.append(as_point(sv))
        return probe(sv, *args, **kwargs)

    def spy_rows(svs, *args, **kwargs):
        svs = list(svs)
        for sv, decision in zip(svs, probe_rows(svs, *args, **kwargs)):
            served.append(as_point(sv))
            yield decision

    get_plan.probe, get_plan.probe_rows = spy, spy_rows
    rows = []
    try:
        for instance in instances:
            start = time.perf_counter()
            choice = serve(instance)
            rows.append((choice, served[-1], time.perf_counter() - start))
    finally:
        if manager is not None:
            manager.close()
    return rows


def assert_outer_effect(kind, rows, toy_db, toy_template):
    """The outer wrapper's effect is visible in what SCR was served."""
    clean = [FIRST.sv, SECOND.sv]
    served = [sv for _, sv, _ in rows]
    if kind == "noisy":
        assert served[0] != clean[0]
    elif kind == "latency":
        assert served == clean
        assert all(seconds >= 0.05 for _, _, seconds in rows)
    elif kind == "stale":
        assert served == [clean[0], clean[0]]  # second call replays the first
    else:  # drift: the sVector passes through, costs are scaled
        assert served == clean
        optimizer = make_engine(toy_db, toy_template).optimizer
        assert rows[0][0].optimal_cost == pytest.approx(
            3.0 * optimizer.optimize(clean[0]).cost
        )


@pytest.mark.parametrize("via_manager", [False, True], ids=["scr", "manager"])
@pytest.mark.parametrize("kind", sorted(OUTER_WRAPPERS))
class TestWrapperOutsideResilience:
    """A wrapper stacked outside the resilient layer still acts on the
    served sVector, and the resilient layer's degraded flag still reaches
    SCR through it."""

    def test_outer_effect_reaches_served_svector(
        self, kind, via_manager, toy_db, toy_template
    ):
        rows = serve_outside_resilient(kind, toy_db, toy_template, via_manager)
        assert_outer_effect(kind, rows, toy_db, toy_template)

    def test_inner_svector_failure_serves_uncertified(
        self, kind, via_manager, toy_db, toy_template
    ):
        good, degraded = serve_inner_failure(
            kind, toy_db, toy_template, via_manager
        )
        assert good.certified
        assert not degraded.certified
