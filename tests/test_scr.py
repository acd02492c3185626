"""End-to-end tests for the SCR technique, including its guarantee."""

import pytest

from repro.core.scr import SCR
from repro.engine.api import EngineAPI
from repro.query.instance import QueryInstance, SelectivityVector
from repro.workload.generator import instances_for_template


def fresh_engine(db, template) -> EngineAPI:
    from repro.optimizer.optimizer import QueryOptimizer

    optimizer = QueryOptimizer(template, db.stats, db.estimator, db.cost_model)
    return EngineAPI(template, optimizer, db.estimator)


@pytest.fixture()
def scr_engine(toy_db, toy_template):
    return fresh_engine(toy_db, toy_template)


class TestBasicFlow:
    def test_first_instance_optimizes(self, scr_engine):
        scr = SCR(scr_engine, lam=2.0)
        choice = scr.process(QueryInstance(
            "toy_join", sv=SelectivityVector.of(0.1, 0.1)))
        assert choice.used_optimizer
        assert choice.optimal_cost is not None
        assert scr.plans_cached == 1

    def test_nearby_instance_reuses_via_selectivity_check(self, scr_engine):
        scr = SCR(scr_engine, lam=2.0)
        scr.process(QueryInstance("toy_join", sv=SelectivityVector.of(0.1, 0.1)))
        choice = scr.process(QueryInstance(
            "toy_join", sv=SelectivityVector.of(0.12, 0.1)))
        assert not choice.used_optimizer
        assert choice.check == "selectivity"
        assert scr_engine.counters.optimize.calls == 1

    def test_name_embeds_lambda(self, scr_engine):
        assert SCR(scr_engine, lam=1.5).name == "SCR1.5"

    def test_optimizer_calls_counted(self, scr_engine):
        scr = SCR(scr_engine, lam=2.0)
        scr.process(QueryInstance("toy_join", sv=SelectivityVector.of(0.001, 0.001)))
        scr.process(QueryInstance("toy_join", sv=SelectivityVector.of(0.9, 0.9)))
        assert scr.optimizer_calls == 2
        assert scr.instances_processed == 2


class TestGuarantee:
    @pytest.mark.parametrize("lam", [1.1, 1.5, 2.0])
    def test_lambda_optimality_holds(self, toy_db, toy_template, lam):
        """The headline guarantee: SO(q) <= lambda for every instance,
        modulo BCG violations (counted and required to be rare)."""
        engine = fresh_engine(toy_db, toy_template)
        oracle = fresh_engine(toy_db, toy_template)
        scr = SCR(engine, lam=lam)
        instances = instances_for_template(toy_template, 150, seed=3)
        violations = 0
        for inst in instances:
            choice = scr.process(inst)
            optimal = oracle.optimize(inst.selectivities)
            chosen_cost = oracle.recost(choice.shrunken_memo, inst.selectivities)
            so = chosen_cost / optimal.cost
            if so > lam * 1.001:
                violations += 1
        # The paper observes rare violations; on the toy database the
        # linear-BCG-compliant operators dominate, so allow only a few.
        assert violations <= len(instances) * 0.02

    def test_fewer_optimizer_calls_with_larger_lambda(self, toy_db, toy_template):
        counts = {}
        instances = instances_for_template(toy_template, 200, seed=5)
        for lam in (1.1, 2.0):
            engine = fresh_engine(toy_db, toy_template)
            scr = SCR(engine, lam=lam)
            for inst in instances:
                scr.process(inst)
            counts[lam] = scr.optimizer_calls
        assert counts[2.0] < counts[1.1]

    def test_fewer_plans_with_larger_lambda(self, toy_db, toy_template):
        plans = {}
        instances = instances_for_template(toy_template, 200, seed=5)
        for lam in (1.1, 2.0):
            engine = fresh_engine(toy_db, toy_template)
            scr = SCR(engine, lam=lam)
            for inst in instances:
                scr.process(inst)
            plans[lam] = scr.max_plans_cached
        assert plans[2.0] <= plans[1.1]


class TestPlanBudget:
    def test_budget_respected(self, toy_db, toy_template):
        engine = fresh_engine(toy_db, toy_template)
        scr = SCR(engine, lam=1.1, plan_budget=3, lambda_r=1.0)
        for inst in instances_for_template(toy_template, 150, seed=2):
            scr.process(inst)
        assert scr.plans_cached <= 3

    def test_budget_increases_optimizer_calls(self, toy_db, toy_template):
        instances = instances_for_template(toy_template, 200, seed=9)
        calls = {}
        for budget in (None, 2):
            engine = fresh_engine(toy_db, toy_template)
            scr = SCR(engine, lam=1.1, plan_budget=budget, lambda_r=1.0)
            for inst in instances:
                scr.process(inst)
            calls[budget] = scr.optimizer_calls
        assert calls[2] >= calls[None]


class TestRecostAccounting:
    def test_engine_recost_calls_bounded_by_cap(self, toy_db, toy_template):
        engine = fresh_engine(toy_db, toy_template)
        scr = SCR(engine, lam=1.2, max_recost_candidates=2, lambda_r=1.0)
        for inst in instances_for_template(toy_template, 100, seed=4):
            scr.process(inst)
        # Each getPlan makes at most 2 cost-check recosts; redundancy
        # checks are disabled (lambda_r=1), so the cap binds per call.
        assert scr.get_plan.max_recost_calls_single <= 2

    def test_selectivity_hits_need_no_recost(self, scr_engine):
        scr = SCR(scr_engine, lam=3.0)
        scr.process(QueryInstance("toy_join", sv=SelectivityVector.of(0.2, 0.2)))
        before = scr_engine.counters.recost.calls
        choice = scr.process(QueryInstance(
            "toy_join", sv=SelectivityVector.of(0.21, 0.21)))
        assert choice.check == "selectivity"
        assert scr_engine.counters.recost.calls == before


class TestAppendixFIntegration:
    def test_purge_callable_after_run(self, toy_db, toy_template):
        engine = fresh_engine(toy_db, toy_template)
        scr = SCR(engine, lam=2.0, lambda_r=1.0)
        for inst in instances_for_template(toy_template, 100, seed=6):
            scr.process(inst)
        before = scr.plans_cached
        dropped = scr.manage_cache.purge_redundant_existing_plans(
            scr.engine.recost
        )
        assert scr.plans_cached == before - dropped
