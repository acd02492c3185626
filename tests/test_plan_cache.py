"""Tests for the SCR plan cache data structure (section 6.1)."""

import pytest

from repro.core.plan_cache import InstanceEntry, PlanCache
from repro.query.instance import SelectivityVector


@pytest.fixture()
def cache_with_plans(toy_engine):
    """A cache holding two genuinely different plans."""
    cache = PlanCache()
    res_a = toy_engine.optimize(SelectivityVector.of(0.001, 0.001))
    res_b = toy_engine.optimize(SelectivityVector.of(0.9, 0.9))
    assert res_a.plan.signature() != res_b.plan.signature()
    plan_a = cache.add_plan(res_a.plan, res_a.shrunken_memo)
    plan_b = cache.add_plan(res_b.plan, res_b.shrunken_memo)
    return cache, plan_a, plan_b


class TestPlanList:
    def test_add_plan_dedupes_by_signature(self, cache_with_plans, toy_engine):
        cache, plan_a, _ = cache_with_plans
        res = toy_engine.optimize(SelectivityVector.of(0.001, 0.001))
        again = cache.add_plan(res.plan, res.shrunken_memo)
        assert again.plan_id == plan_a.plan_id
        assert cache.num_plans == 2

    def test_find_plan(self, cache_with_plans):
        cache, plan_a, _ = cache_with_plans
        assert cache.find_plan(plan_a.signature).plan_id == plan_a.plan_id
        assert cache.find_plan("nope") is None

    def test_max_plans_seen_tracks_peak(self, cache_with_plans):
        cache, plan_a, _ = cache_with_plans
        assert cache.max_plans_seen == 2
        cache.drop_plan(plan_a.plan_id)
        assert cache.num_plans == 1
        assert cache.max_plans_seen == 2

    def test_drop_unknown_plan(self, cache_with_plans):
        cache, _, _ = cache_with_plans
        with pytest.raises(KeyError):
            cache.drop_plan(999)


class TestInstanceList:
    def _entry(self, plan_id, sv=(0.1, 0.1), cost=100.0, s=1.0, usage=1):
        return InstanceEntry(
            sv=SelectivityVector.of(*sv),
            plan_id=plan_id,
            optimal_cost=cost,
            suboptimality=s,
            usage=usage,
        )

    def test_add_requires_known_plan(self, cache_with_plans):
        cache, _, _ = cache_with_plans
        with pytest.raises(KeyError):
            cache.add_instance(self._entry(plan_id=999))

    def test_pointed_plan_cost(self):
        entry = InstanceEntry(
            sv=SelectivityVector.of(0.5),
            plan_id=0, optimal_cost=100.0, suboptimality=1.2,
        )
        assert entry.pointed_plan_cost == pytest.approx(120.0)

    def test_drop_plan_removes_pointing_instances(self, cache_with_plans):
        cache, plan_a, plan_b = cache_with_plans
        cache.add_instance(self._entry(plan_a.plan_id))
        cache.add_instance(self._entry(plan_a.plan_id, sv=(0.2, 0.2)))
        cache.add_instance(self._entry(plan_b.plan_id, sv=(0.3, 0.3)))
        cache.drop_plan(plan_a.plan_id)
        assert cache.num_instances == 1
        assert all(i.plan_id == plan_b.plan_id for i in cache.instances())

    def test_instances_for(self, cache_with_plans):
        cache, plan_a, plan_b = cache_with_plans
        cache.add_instance(self._entry(plan_a.plan_id))
        cache.add_instance(self._entry(plan_b.plan_id, sv=(0.4, 0.4)))
        assert len(cache.instances_for(plan_a.plan_id)) == 1

    def test_aggregate_usage_and_lfu_victim(self, cache_with_plans):
        cache, plan_a, plan_b = cache_with_plans
        cache.add_instance(self._entry(plan_a.plan_id, usage=10))
        cache.add_instance(self._entry(plan_b.plan_id, sv=(0.6, 0.6), usage=2))
        assert cache.aggregate_usage(plan_a.plan_id) == 10
        assert cache.min_usage_plan().plan_id == plan_b.plan_id

    def test_min_usage_plan_empty_cache(self):
        assert PlanCache().min_usage_plan() is None
