"""Tests for the manageCache module (Algorithm 2, section 6.3)."""

import math

import pytest

from repro.core.manage_cache import ManageCache, default_lambda_r
from repro.core.plan_cache import PlanCache
from repro.query.instance import SelectivityVector


def test_default_lambda_r_is_sqrt():
    assert default_lambda_r(4.0) == pytest.approx(2.0)
    assert default_lambda_r(2.0) == pytest.approx(math.sqrt(2.0))


@pytest.fixture()
def manage(toy_engine):
    cache = PlanCache()
    return ManageCache(cache=cache, lam=2.0), cache


class TestRegister:
    def test_first_plan_always_added(self, manage, toy_engine):
        mc, cache = manage
        sv = SelectivityVector.of(0.1, 0.1)
        result = toy_engine.optimize(sv)
        entry = mc.register(sv, result, toy_engine.recost)
        assert cache.num_plans == 1
        assert entry.suboptimality == 1.0
        assert entry.optimal_cost == result.cost
        assert mc.stats.plans_added == 1

    def test_existing_plan_reused(self, manage, toy_engine):
        mc, cache = manage
        sv1 = SelectivityVector.of(0.1, 0.1)
        sv2 = SelectivityVector.of(0.12, 0.1)
        res1 = toy_engine.optimize(sv1)
        res2 = toy_engine.optimize(sv2)
        assert res1.plan.signature() == res2.plan.signature()
        mc.register(sv1, res1, toy_engine.recost)
        entry = mc.register(sv2, res2, toy_engine.recost)
        assert cache.num_plans == 1
        assert mc.stats.existing_plan_hits == 1
        assert entry.suboptimality == 1.0

    def test_redundant_plan_rejected(self, manage, toy_engine):
        """A new plan whose cached alternative is within lambda_r is
        discarded; the instance points at the alternative with S=S_min."""
        mc, cache = manage
        # Find two nearby instances with different optimal plans.
        points = [SelectivityVector.of(0.05 + 0.05 * i, 0.05 + 0.05 * i)
                  for i in range(12)]
        results = [toy_engine.optimize(sv) for sv in points]
        base_sig = results[0].plan.signature()
        idx = next(
            (i for i, r in enumerate(results)
             if r.plan.signature() != base_sig), None
        )
        if idx is None:
            pytest.skip("no plan boundary in sampled range")
        mc.register(points[0], results[0], toy_engine.recost)
        # Right at a plan boundary the old plan is nearly optimal for
        # the new instance, so S_min <= sqrt(2) and rejection triggers.
        entry = mc.register(points[idx], results[idx], toy_engine.recost)
        if mc.stats.plans_rejected_redundant:
            assert cache.num_plans == 1
            assert entry.suboptimality >= 1.0
            assert entry.suboptimality <= mc.lambda_r

    def test_non_redundant_plan_added(self, manage, toy_engine):
        mc, cache = manage
        sv1 = SelectivityVector.of(0.001, 0.001)
        sv2 = SelectivityVector.of(0.9, 0.9)
        res1 = toy_engine.optimize(sv1)
        res2 = toy_engine.optimize(sv2)
        mc.register(sv1, res1, toy_engine.recost)
        mc.register(sv2, res2, toy_engine.recost)
        # Extreme corners use genuinely different plans with large cost
        # gaps: both must be kept.
        assert cache.num_plans == 2

    def test_lambda_r_one_stores_everything(self, toy_engine):
        cache = PlanCache()
        mc = ManageCache(cache=cache, lam=2.0, lambda_r=1.0)
        svs = [SelectivityVector.of(0.05 * (i + 1), 0.06 * (i + 1))
               for i in range(10)]
        signatures = set()
        for sv in svs:
            result = toy_engine.optimize(sv)
            signatures.add(result.plan.signature())
            mc.register(sv, result, toy_engine.recost)
        assert cache.num_plans == len(signatures)
        assert mc.stats.plans_rejected_redundant == 0


class TestPlanBudget:
    def test_budget_validated(self):
        with pytest.raises(ValueError):
            ManageCache(cache=PlanCache(), lam=2.0, plan_budget=0)

    def test_eviction_enforces_budget(self, toy_engine):
        cache = PlanCache()
        mc = ManageCache(cache=cache, lam=2.0, lambda_r=1.0, plan_budget=2)
        corners = [
            SelectivityVector.of(0.001, 0.001),
            SelectivityVector.of(0.9, 0.9),
            SelectivityVector.of(0.003, 0.9),
            SelectivityVector.of(0.9, 0.003),
        ]
        for sv in corners:
            mc.register(sv, toy_engine.optimize(sv), toy_engine.recost)
        assert cache.num_plans <= 2
        assert mc.stats.plans_evicted >= 1

    def test_eviction_drops_lfu_and_its_instances(self, toy_engine):
        cache = PlanCache()
        mc = ManageCache(cache=cache, lam=2.0, lambda_r=1.0, plan_budget=2)
        sv_hot = SelectivityVector.of(0.001, 0.001)
        sv_cold = SelectivityVector.of(0.9, 0.9)
        hot_entry = mc.register(sv_hot, toy_engine.optimize(sv_hot),
                                toy_engine.recost)
        cold_entry = mc.register(sv_cold, toy_engine.optimize(sv_cold),
                                 toy_engine.recost)
        cache.columnar().usage[0] = 50  # make the first plan clearly hot
        sv_new = SelectivityVector.of(0.003, 0.9)
        mc.register(sv_new, toy_engine.optimize(sv_new), toy_engine.recost)
        if mc.stats.plans_evicted:
            remaining = {e.plan_id for e in cache.instances()}
            assert hot_entry.plan_id in remaining
            assert cold_entry.plan_id not in remaining


class TestAppendixF:
    def test_purge_noop_when_nothing_redundant(self, toy_engine):
        """With a tight lambda no corner plan can cover the other."""
        cache = PlanCache()
        mc = ManageCache(cache=cache, lam=1.2, lambda_r=1.0)
        sv_a = SelectivityVector.of(0.001, 0.001)
        sv_b = SelectivityVector.of(0.9, 0.9)
        res_a = toy_engine.optimize(sv_a)
        res_b = toy_engine.optimize(sv_b)
        # Precondition: each plan is > lambda-suboptimal at the other corner.
        assert toy_engine.recost(res_a.shrunken_memo, sv_b) > 1.2 * res_b.cost
        assert toy_engine.recost(res_b.shrunken_memo, sv_a) > 1.2 * res_a.cost
        mc.register(sv_a, res_a, toy_engine.recost)
        mc.register(sv_b, res_b, toy_engine.recost)
        before = cache.num_plans
        dropped = mc.purge_redundant_existing_plans(toy_engine.recost)
        assert dropped == 0
        assert cache.num_plans == before

    def test_purge_drops_redundant_plan(self, toy_engine):
        """Store every plan (lambda_r=1), then purge: plans along a
        dense path become redundant wrt their neighbours."""
        cache = PlanCache()
        mc = ManageCache(cache=cache, lam=2.0, lambda_r=1.0)
        for i in range(14):
            sv = SelectivityVector.of(0.02 + 0.06 * i, 0.02 + 0.06 * i)
            mc.register(sv, toy_engine.optimize(sv), toy_engine.recost)
        before = cache.num_plans
        if before < 3:
            pytest.skip("not enough distinct plans on this path")
        dropped = mc.purge_redundant_existing_plans(toy_engine.recost)
        assert cache.num_plans == before - dropped
        # Guarantee preserved: every instance's pointed plan is
        # lambda-optimal at the instance.
        for entry in cache.instances():
            plan = cache.plan(entry.plan_id)
            cost = toy_engine.recost(plan.shrunken_memo, entry.sv)
            assert cost / entry.optimal_cost <= mc.lam * (1 + 1e-9)
