"""Tests for the extension features: eviction policies, candidate
orderings and offline seeding."""

import pytest

from repro.core.get_plan import CandidateOrder
from repro.core.manage_cache import EvictionPolicy
from repro.core.plan_cache import PlanCache
from repro.core.scr import SCR
from repro.core.seeding import grid_points, random_points, seed_cache
from repro.engine.api import EngineAPI
from repro.query.instance import QueryInstance, SelectivityVector
from repro.workload.generator import instances_for_template


def fresh_engine(db, template) -> EngineAPI:
    from repro.optimizer.optimizer import QueryOptimizer

    optimizer = QueryOptimizer(template, db.stats, db.estimator, db.cost_model)
    return EngineAPI(template, optimizer, db.estimator)


class TestEvictionPolicies:
    def _run(self, db, template, policy, instances):
        scr = SCR(
            fresh_engine(db, template), lam=1.1, plan_budget=2,
            lambda_r=1.0, eviction_policy=policy,
        )
        for inst in instances:
            scr.process(inst)
        return scr

    @pytest.mark.parametrize("policy", list(EvictionPolicy))
    def test_budget_respected_under_all_policies(self, toy_db, toy_template,
                                                 policy):
        instances = instances_for_template(toy_template, 120, seed=31)
        scr = self._run(toy_db, toy_template, policy, instances)
        assert scr.plans_cached <= 2
        assert scr.manage_cache.stats.plans_evicted >= 1

    def test_lru_clock_advances_on_hits(self, toy_db, toy_template):
        scr = SCR(fresh_engine(toy_db, toy_template), lam=2.0)
        scr.process(QueryInstance("t", sv=SelectivityVector.of(0.2, 0.2)))
        plan = scr.cache.plans()[0]
        tick_before = plan.last_used_tick
        scr.process(QueryInstance("t", sv=SelectivityVector.of(0.21, 0.21)))
        assert plan.last_used_tick > tick_before

    def test_lru_victim_is_least_recent(self, toy_engine):
        cache = PlanCache()
        res_a = toy_engine.optimize(SelectivityVector.of(0.001, 0.001))
        res_b = toy_engine.optimize(SelectivityVector.of(0.9, 0.9))
        plan_a = cache.add_plan(res_a.plan, res_a.shrunken_memo)
        plan_b = cache.add_plan(res_b.plan, res_b.shrunken_memo)
        cache.touch(plan_a.plan_id)
        assert cache.lru_plan().plan_id == plan_b.plan_id
        cache.touch(plan_b.plan_id)
        assert cache.lru_plan().plan_id == plan_a.plan_id


class TestCandidateOrders:
    @pytest.mark.parametrize("order", list(CandidateOrder))
    def test_all_orders_run_and_keep_guarantee(self, toy_db, toy_template,
                                               order):
        engine = fresh_engine(toy_db, toy_template)
        oracle = fresh_engine(toy_db, toy_template)
        scr = SCR(engine, lam=2.0, candidate_order=order)
        violations = 0
        instances = instances_for_template(toy_template, 100, seed=37)
        for inst in instances:
            choice = scr.process(inst)
            optimal = oracle.optimize(inst.selectivities)
            so = oracle.recost(
                choice.shrunken_memo, inst.selectivities) / optimal.cost
            if so > 2.0 * 1.001:
                violations += 1
        assert violations <= 2


class TestSeeding:
    def test_grid_points_shape(self):
        points = grid_points(2, 4)
        assert len(points) == 16
        assert all(len(p) == 2 for p in points)
        with pytest.raises(ValueError):
            grid_points(2, 0)

    def test_random_points_deterministic(self):
        a = random_points(3, 10, seed=1)
        b = random_points(3, 10, seed=1)
        assert a == b

    def test_seeding_reduces_online_calls(self, toy_db, toy_template):
        instances = instances_for_template(toy_template, 150, seed=53)

        cold = SCR(fresh_engine(toy_db, toy_template), lam=2.0)
        for inst in instances:
            cold.process(inst)

        warm_engine = fresh_engine(toy_db, toy_template)
        warm = SCR(warm_engine, lam=2.0)
        report = seed_cache(warm, warm_engine, grid_points(2, 5))
        online_before = warm_engine.counters.optimize.calls
        for inst in instances:
            warm.process(inst)
        online_calls = warm_engine.counters.optimize.calls - online_before

        assert report.points_optimized > 0
        assert report.plans_seeded >= 1
        assert online_calls < cold.optimizer_calls

    def test_seeding_respects_redundancy_check(self, toy_db, toy_template):
        engine = fresh_engine(toy_db, toy_template)
        scr = SCR(engine, lam=2.0)
        report = seed_cache(scr, engine, grid_points(2, 6))
        # The lambda_r check must anorex the 36-point grid down well
        # below one plan per point.
        assert scr.cache.num_plans < report.points_optimized
