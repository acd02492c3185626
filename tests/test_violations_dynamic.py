"""Tests for the Appendix G violation detector and Appendix D dynamic λ."""

import pytest

from repro.core.dynamic_lambda import DynamicLambda
from repro.core.columnar import ColumnStore
from repro.core.plan_cache import InstanceEntry
from repro.core.violations import ViolationDetector
from repro.query.instance import SelectivityVector


def entry(s: float = 1.0):
    """``(view, row)`` of one anchor with sub-optimality ``s``."""
    return ColumnStore([InstanceEntry(
        sv=SelectivityVector.of(0.1, 0.1),
        plan_id=0,
        optimal_cost=100.0,
        suboptimality=s,
    )]).view(0), 0


class TestViolationDetector:
    def test_within_bounds_no_violation(self):
        det = ViolationDetector()
        # G = 2, L = 1: plan growth 1.5 is inside (1/1, 2).
        report = det.check(*entry(), g=2.0, l=1.0, recost_ratio=1.5)
        assert not report.any
        assert det.violations_detected == 0

    def test_bcg_upper_violation_detected_and_retires(self):
        det = ViolationDetector()
        view, row = entry()
        # G = 2 but the cost tripled: BCG upper bound broken.
        report = det.check(view, row, g=2.0, l=1.0, recost_ratio=3.0)
        assert report.bcg_violated
        assert view.retired[row]
        assert det.anchors_retired == 1

    def test_bcg_lower_violation_detected(self):
        det = ViolationDetector()
        # L = 2 (all selectivities halved) but cost fell to a tenth.
        report = det.check(*entry(), g=1.0, l=2.0, recost_ratio=0.1)
        assert report.bcg_violated

    def test_pcm_violation_on_dominating_growth(self):
        det = ViolationDetector()
        # Selectivities only grew (G > 1, L = 1) yet cost decreased.
        report = det.check(*entry(), g=1.5, l=1.0, recost_ratio=0.8)
        assert report.pcm_violated

    def test_pcm_violation_on_dominated_shrink(self):
        det = ViolationDetector()
        # Selectivities only shrank yet cost increased.
        report = det.check(*entry(), g=1.0, l=1.5, recost_ratio=1.3)
        assert report.pcm_violated

    def test_tolerance_absorbs_noise(self):
        det = ViolationDetector(tolerance=1.05)
        # 1% overshoot of the bound is ignored.
        report = det.check(*entry(), g=2.0, l=1.0, recost_ratio=2.02)
        assert not report.any

    def test_suboptimal_anchor_normalized(self):
        det = ViolationDetector()
        # S = 2: recost_ratio 3 means plan growth 1.5, within G = 2.
        report = det.check(*entry(s=2.0), g=2.0, l=1.0, recost_ratio=3.0)
        assert not report.any

    def test_retire_counted_once(self):
        det = ViolationDetector()
        e = entry()
        det.check(*e, g=2.0, l=1.0, recost_ratio=5.0)
        det.check(*e, g=2.0, l=1.0, recost_ratio=5.0)
        assert det.violations_detected == 2
        assert det.anchors_retired == 1


class TestDynamicLambda:
    def test_validation(self):
        with pytest.raises(ValueError):
            DynamicLambda(0.9, 2.0, 1.0)
        with pytest.raises(ValueError):
            DynamicLambda(2.0, 1.5, 1.0)
        with pytest.raises(ValueError):
            DynamicLambda(1.1, 2.0, 0.0)

    def test_cheap_instances_get_large_lambda(self):
        schedule = DynamicLambda(1.1, 10.0, cost_scale=1000.0)
        assert schedule(0.0) == pytest.approx(10.0)

    def test_expensive_instances_get_small_lambda(self):
        schedule = DynamicLambda(1.1, 10.0, cost_scale=1000.0)
        assert schedule(1e9) == pytest.approx(1.1)

    def test_monotone_decreasing_in_cost(self):
        schedule = DynamicLambda(1.1, 10.0, cost_scale=500.0)
        values = [schedule(c) for c in (0, 100, 500, 2000, 10_000)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_range_respected(self):
        schedule = DynamicLambda(1.2, 4.0, cost_scale=50.0)
        for cost in (0, 1, 10, 1e3, 1e7):
            assert 1.2 <= schedule(cost) <= 4.0

    def test_scr_integration_saves_calls(self, toy_db, toy_template):
        """Dynamic lambda should save optimizer calls vs static lambda_min
        (Appendix D's headline effect)."""
        from repro.core.scr import SCR
        from repro.engine.api import EngineAPI
        from repro.optimizer.optimizer import QueryOptimizer
        from repro.workload.generator import instances_for_template

        instances = instances_for_template(toy_template, 200, seed=8)

        def run(lambda_for, lam):
            optimizer = QueryOptimizer(
                toy_template, toy_db.stats, toy_db.estimator, toy_db.cost_model
            )
            engine = EngineAPI(toy_template, optimizer, toy_db.estimator)
            scr = SCR(engine, lam=lam, lambda_for=lambda_for)
            for inst in instances:
                scr.process(inst)
            return scr.optimizer_calls, scr.max_plans_cached

        static_calls, static_plans = run(None, 1.1)
        schedule = DynamicLambda(1.1, 10.0, cost_scale=5_000.0)
        dyn_calls, dyn_plans = run(schedule, 10.0)
        assert dyn_calls <= static_calls
        assert dyn_plans <= static_plans
