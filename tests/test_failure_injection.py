"""Failure-injection tests: SCR under a misbehaving cost model and
under a misbehaving *engine*.

The paper's guarantee is conditional on the BCG assumption; Appendix G
describes detecting and containing violations.  The first half of this
file *injects* cost models that break the assumptions — discontinuities,
non-monotone regions, super-linear growth — and verifies that (a)
nothing crashes, (b) the violation detector notices, and (c) the damage
to MSO stays localized.  The second half injects *API-level* faults —
recost raising on the Nth call, optimizer timeouts, NaN selectivity
vectors — and verifies the resilience layer's core invariant: SCR never
certifies a bound it did not verify, and every certified instance still
satisfies ``SO(q) ≤ λ``.
"""

import math


from repro.core.scr import SCR
from repro.engine.api import EngineAPI
from repro.engine.faults import (
    EngineTimeoutError,
    FaultConfig,
    FaultInjector,
    TransientEngineError,
)
from repro.engine.resilience import (
    OptimizeUnavailableError,
    ResiliencePolicy,
    ResilientEngineAPI,
    RetryPolicy,
)
from repro.optimizer.cost_model import CostModel, CostParameters
from repro.optimizer.optimizer import QueryOptimizer
from repro.query.instance import QueryInstance, SelectivityVector
from repro.workload.generator import instances_for_template


class SpikyCostModel(CostModel):
    """A cost model with a violent discontinuity in scan costs.

    Below the threshold output size, scans are priced normally; above
    it they get a large constant penalty — modelling a memory cliff far
    sharper than BCG's f(α)=α allows.
    """

    def __init__(self, threshold_rows: float = 2_000.0, penalty: float = 50_000.0):
        super().__init__(CostParameters())
        self.threshold_rows = threshold_rows
        self.penalty = penalty

    def seq_scan(self, table_rows: float, out_rows: float) -> float:
        base = super().seq_scan(table_rows, out_rows)
        return base + (self.penalty if out_rows > self.threshold_rows else 0.0)

    def index_scan(self, table_rows: float, out_rows: float) -> float:
        base = super().index_scan(table_rows, out_rows)
        return base + (self.penalty if out_rows > self.threshold_rows else 0.0)


class NonMonotoneCostModel(CostModel):
    """Breaks PCM: scan cost *decreases* over a band of output sizes."""

    def seq_scan(self, table_rows: float, out_rows: float) -> float:
        base = super().seq_scan(table_rows, out_rows)
        if 1_000.0 < out_rows < 3_000.0:
            return base * 0.3
        return base


def engine_with(cost_model: CostModel, db, template) -> EngineAPI:
    optimizer = QueryOptimizer(template, db.stats, db.estimator, cost_model)
    return EngineAPI(template, optimizer, db.estimator)


class TestSpikyCosts:
    def test_run_completes_and_detector_sees_violations(
        self, toy_db, toy_template
    ):
        engine = engine_with(SpikyCostModel(), toy_db, toy_template)
        scr = SCR(engine, lam=1.5)
        for inst in instances_for_template(toy_template, 250, seed=61):
            scr.process(inst)
        # The run completes; statistics are coherent.
        assert scr.instances_processed == 250
        assert scr.plans_cached >= 1
        # A discontinuity this size across region boundaries should be
        # noticed by the Appendix G detector at least occasionally
        # (cost checks straddling the cliff).
        assert scr.detector is not None

    def test_mso_damage_bounded_by_penalty_scale(self, toy_db, toy_template):
        """Even with violations, sub-optimality cannot exceed the
        injected penalty's relative magnitude by much."""
        spiky = SpikyCostModel(threshold_rows=2_000.0, penalty=20_000.0)
        engine = engine_with(spiky, toy_db, toy_template)
        oracle = engine_with(spiky, toy_db, toy_template)
        scr = SCR(engine, lam=2.0)
        worst = 1.0
        for inst in instances_for_template(toy_template, 200, seed=67):
            choice = scr.process(inst)
            truth = oracle.optimize(inst.selectivities)
            so = oracle.recost(
                choice.shrunken_memo, inst.selectivities) / truth.cost
            worst = max(worst, so)
        # The guarantee can be violated (as the paper observes), but a
        # reasonable ceiling holds: the cliff is a bounded additive term.
        assert worst < 50.0

    def test_retired_anchors_stop_bad_inferences(self, toy_db, toy_template):
        engine = engine_with(SpikyCostModel(), toy_db, toy_template)
        scr = SCR(engine, lam=1.5, detect_violations=True)
        for inst in instances_for_template(toy_template, 250, seed=71):
            scr.process(inst)
        if scr.detector.anchors_retired:
            retired = [e for e in scr.cache.instances() if e.retired]
            assert len(retired) == scr.detector.anchors_retired


class TestNonMonotoneCosts:
    def test_pcm_violations_detectable(self, toy_db, toy_template):
        engine = engine_with(NonMonotoneCostModel(), toy_db, toy_template)
        scr = SCR(engine, lam=1.3)
        for inst in instances_for_template(toy_template, 250, seed=73):
            scr.process(inst)
        assert scr.instances_processed == 250
        # Detector statistics are consistent.
        det = scr.detector
        assert det.anchors_retired <= det.violations_detected


class TestDetectorDisabled:
    def test_runs_without_detector(self, toy_db, toy_template):
        engine = engine_with(SpikyCostModel(), toy_db, toy_template)
        scr = SCR(engine, lam=1.5, detect_violations=False)
        for inst in instances_for_template(toy_template, 100, seed=79):
            scr.process(inst)
        assert scr.detector is None


class TestDegenerateInputs:
    def test_single_instance_workload(self, toy_db, toy_template):
        engine = engine_with(CostModel(), toy_db, toy_template)
        scr = SCR(engine, lam=2.0)
        choice = scr.process(QueryInstance(
            "t", sv=SelectivityVector.of(0.5, 0.5)))
        assert choice.used_optimizer
        assert scr.plans_cached == 1

    def test_identical_instances_reuse_forever(self, toy_db, toy_template):
        engine = engine_with(CostModel(), toy_db, toy_template)
        scr = SCR(engine, lam=1.0 + 1e-12)
        sv = SelectivityVector.of(0.3, 0.3)
        for _ in range(20):
            scr.process(QueryInstance("t", sv=sv))
        assert scr.optimizer_calls == 1

    def test_extreme_selectivities(self, toy_db, toy_template):
        engine = engine_with(CostModel(), toy_db, toy_template)
        scr = SCR(engine, lam=2.0)
        for sv in (
            SelectivityVector.of(1e-6, 1e-6),
            SelectivityVector.of(1.0, 1.0),
            SelectivityVector.of(1e-6, 1.0),
        ):
            choice = scr.process(QueryInstance("t", sv=sv))
            assert choice.plan_signature

    def test_lambda_exactly_one(self, toy_db, toy_template):
        """λ=1 demands exact optimality: only identical-sv reuse works."""
        engine = engine_with(CostModel(), toy_db, toy_template)
        scr = SCR(engine, lam=1.0)
        svs = [SelectivityVector.of(0.1 + 0.07 * i, 0.2) for i in range(8)]
        for sv in svs:
            scr.process(QueryInstance("t", sv=sv))
        # Different selectivities -> everything optimizes.
        assert scr.optimizer_calls == len(svs)


# ---------------------------------------------------------------------------
# API-level fault injection: flaky engine behind the resilience layer.
# ---------------------------------------------------------------------------

NO_SLEEP = lambda seconds: None  # noqa: E731

FAST_POLICY = ResiliencePolicy(
    retry=RetryPolicy(max_attempts=3, base_backoff=0.0, max_backoff=0.0),
)


class _NthCallFails:
    """Wraps an engine; one chosen API raises on every Nth raw call."""

    def __init__(self, engine, api: str, n: int, error=TransientEngineError):
        self.inner = engine
        self.api = api
        self.n = n
        self.error = error
        self._counts = {"optimize": 0, "recost": 0, "selectivity": 0}

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def begin_instance(self, index):
        self.inner.begin_instance(index)

    def _maybe_fail(self, api):
        self._counts[api] += 1
        if api == self.api and self._counts[api] % self.n == 0:
            raise self.error(f"injected {api} failure on call {self._counts[api]}")

    def selectivity_vector(self, instance):
        self._maybe_fail("selectivity")
        return self.inner.selectivity_vector(instance)

    def optimize(self, sv):
        self._maybe_fail("optimize")
        return self.inner.optimize(sv)

    def recost(self, shrunken, sv):
        self._maybe_fail("recost")
        return self.inner.recost(shrunken, sv)


def _assert_certified_within_lambda(scr, choices, instances, oracle, lam):
    """Every *certified* instance must satisfy SO(q) <= λ."""
    checked = 0
    for choice, inst in zip(choices, instances):
        if not choice.certified:
            continue
        truth = oracle.optimize(inst.selectivities)
        chosen = (
            truth.cost
            if choice.plan_signature == truth.plan.signature()
            else oracle.recost(choice.shrunken_memo, inst.selectivities)
        )
        so = chosen / truth.cost
        assert so <= lam * (1 + 1e-9), (
            f"certified instance violated the bound: SO={so:.4f} > λ={lam}"
        )
        checked += 1
    assert checked > 0


class TestFlakyRecostAPI:
    def test_recost_raises_every_nth_call(self, toy_db, toy_template):
        lam = 1.5
        flaky = _NthCallFails(
            engine_with(CostModel(), toy_db, toy_template), "recost", n=3
        )
        resilient = ResilientEngineAPI(flaky, policy=FAST_POLICY, sleep=NO_SLEEP)
        oracle = engine_with(CostModel(), toy_db, toy_template)
        scr = SCR(resilient, lam=lam)
        instances = instances_for_template(toy_template, 150, seed=83)
        choices = [scr.process(inst) for inst in instances]
        assert scr.instances_processed == 150
        # Flaky recosts cost extra optimizer calls, never bad certifications.
        _assert_certified_within_lambda(scr, choices, instances, oracle, lam)
        res = resilient.counters.resilience
        assert res.faults_recost > 0

    def test_failed_recost_is_never_a_hit(self, toy_db, toy_template):
        """With recost *always* failing, no cost-check hit can occur."""
        flaky = _NthCallFails(
            engine_with(CostModel(), toy_db, toy_template), "recost", n=1
        )
        resilient = ResilientEngineAPI(flaky, policy=FAST_POLICY, sleep=NO_SLEEP)
        scr = SCR(resilient, lam=1.5)
        for inst in instances_for_template(toy_template, 80, seed=89):
            scr.process(inst)
        assert scr.get_plan.cost_hits == 0
        assert resilient.counters.resilience.recost_failed_closed > 0


class TestOptimizerTimeouts:
    def test_optimize_times_out_then_degrades(self, toy_db, toy_template):
        lam = 2.0
        flaky = _NthCallFails(
            engine_with(CostModel(), toy_db, toy_template),
            "optimize", n=2, error=EngineTimeoutError,
        )
        # max_attempts=1 so every 2nd optimize call exhausts immediately.
        policy = ResiliencePolicy(
            retry=RetryPolicy(max_attempts=1, base_backoff=0.0, max_backoff=0.0)
        )
        resilient = ResilientEngineAPI(flaky, policy=policy, sleep=NO_SLEEP)
        oracle = engine_with(CostModel(), toy_db, toy_template)
        scr = SCR(resilient, lam=lam)
        instances = instances_for_template(toy_template, 150, seed=97)
        choices = [scr.process(inst) for inst in instances]
        fallbacks = [c for c in choices if c.check == "fallback"]
        assert fallbacks, "expected at least one optimizer fallback"
        assert all(not c.certified for c in fallbacks)
        _assert_certified_within_lambda(scr, choices, instances, oracle, lam)
        assert resilient.counters.resilience.optimize_fallbacks == len(fallbacks)


class TestNaNSelectivityVectors:
    def test_nan_svector_degrades_uncertified(self, toy_db, toy_template):
        class NaNSVector:
            def __init__(self, engine, fail_calls):
                self.inner = engine
                self.fail_calls = fail_calls
                self.calls = 0

            def __getattr__(self, name):
                return getattr(self.inner, name)

            def begin_instance(self, index):
                self.inner.begin_instance(index)

            def selectivity_vector(self, instance):
                self.calls += 1
                if self.calls in self.fail_calls:
                    # Garbage engine output: NaNs fail SelectivityVector
                    # validation, surfacing as a fault to the retry layer.
                    return SelectivityVector.of(math.nan, math.nan)
                return self.inner.selectivity_vector(instance)

        flaky = NaNSVector(
            engine_with(CostModel(), toy_db, toy_template), fail_calls={6, 7}
        )
        policy = ResiliencePolicy(
            retry=RetryPolicy(max_attempts=1, base_backoff=0.0, max_backoff=0.0)
        )
        resilient = ResilientEngineAPI(flaky, policy=policy, sleep=NO_SLEEP)
        scr = SCR(resilient, lam=2.0)
        choices = [
            scr.process(inst)
            for inst in instances_for_template(toy_template, 20, seed=101)
        ]
        degraded = [c for c in choices if not c.certified]
        assert len(degraded) == 2
        assert resilient.counters.resilience.selectivity_fallbacks == 2


class TestChaosWorkload:
    """The acceptance-bar scenario: recost failures up to 20%, optimizer
    timeouts up to 5%, occasional stale sVectors — the run completes,
    certified instances honour λ, and the counters/event spans tell the story.
    """

    def test_full_chaos_run(self, toy_db, toy_template):
        from conftest import event_spans
        from repro.obs import Observability

        lam = 2.0
        obs = Observability()
        optimizer = QueryOptimizer(
            toy_template, toy_db.stats, toy_db.estimator, CostModel()
        )
        engine = EngineAPI(toy_template, optimizer, toy_db.estimator)
        injector = FaultInjector(
            engine,
            # Silently-stale sVectors are out of model for the λ
            # assertion (no layer can detect them); they are exercised
            # by the reproducibility test below instead.
            FaultConfig.chaos(
                recost_failure_rate=0.2,
                optimize_timeout_rate=0.05,
                svector_corrupt_rate=0.0,
            ),
            seed=7,
        )
        resilient = ResilientEngineAPI(
            injector, policy=FAST_POLICY, sleep=NO_SLEEP
        )
        oracle = engine_with(CostModel(), toy_db, toy_template)
        scr = SCR(resilient, lam=lam, obs=obs)
        instances = instances_for_template(toy_template, 300, seed=103)
        choices = []
        for inst in instances:
            choices.append(scr.process(inst))
        assert scr.instances_processed == 300
        assert injector.injected_count() > 0
        _assert_certified_within_lambda(scr, choices, instances, oracle, lam)
        # Fault/retry accounting reached the EngineCounters...
        res = resilient.counters.resilience
        assert res.total_faults > 0
        assert res.retries > 0
        # ... and the span stream, one event per counted fault / retry.
        assert len(event_spans(obs, "engine.fault")) == res.total_faults
        assert len(event_spans(obs, "engine.retry")) == res.retries

    def test_chaos_run_is_reproducible(self, toy_db, toy_template):
        def run():
            optimizer = QueryOptimizer(
                toy_template, toy_db.stats, toy_db.estimator, CostModel()
            )
            engine = EngineAPI(toy_template, optimizer, toy_db.estimator)
            injector = FaultInjector(engine, FaultConfig.chaos(), seed=11)
            resilient = ResilientEngineAPI(
                injector, policy=FAST_POLICY, sleep=NO_SLEEP
            )
            scr = SCR(resilient, lam=2.0)
            checks = []
            for inst in instances_for_template(toy_template, 120, seed=107):
                try:
                    checks.append(scr.process(inst).check)
                except OptimizeUnavailableError:
                    checks.append("unavailable")
            return checks, scr.optimizer_calls

        assert run() == run()
