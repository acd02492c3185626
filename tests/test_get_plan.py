"""Tests for the getPlan module (Algorithm 1, section 6.2)."""

import pytest

from repro.core.get_plan import CheckKind, GetPlan
from repro.core.plan_cache import InstanceEntry, PlanCache
from repro.query.instance import SelectivityVector


def decide(get_plan: GetPlan, sv, recost):
    """Probe ``sv``, then commit the decision: one serial request."""
    decision = get_plan.probe(sv, recost)
    get_plan.commit(decision)
    return decision


@pytest.fixture()
def populated(toy_engine):
    """Cache with one anchor instance at (0.1, 0.1), S = 1."""
    cache = PlanCache()
    anchor_sv = SelectivityVector.of(0.1, 0.1)
    result = toy_engine.optimize(anchor_sv)
    plan = cache.add_plan(result.plan, result.shrunken_memo)
    cache.add_instance(InstanceEntry(
        sv=anchor_sv, plan_id=plan.plan_id,
        optimal_cost=result.cost, suboptimality=1.0,
    ))
    return cache, plan, result


def three_plan_cache(toy_engine, anchors_per_plan: int = 1):
    """A cache of three distinct plans (the toy template's optimal plans
    at three far-apart points), each anchored ``anchors_per_plan`` times
    at slightly shifted points."""
    cache = PlanCache()
    plans = {}
    for base in [(0.5, 0.5), (0.02, 0.02), (0.002, 0.9)]:
        result = toy_engine.optimize(SelectivityVector.of(*base))
        plan = cache.add_plan(result.plan, result.shrunken_memo)
        plans[plan.plan_id] = plan
        for k in range(anchors_per_plan):
            sv = SelectivityVector.of(base[0] * (1 + 0.05 * k), base[1])
            cache.add_instance(InstanceEntry(
                sv=sv, plan_id=plan.plan_id,
                optimal_cost=toy_engine.recost(plan.shrunken_memo, sv),
                suboptimality=1.0,
            ))
    return cache, plans


class TestSelectivityCheck:
    def test_hit_inside_gl_region(self, populated, toy_engine):
        cache, plan, _ = populated
        get_plan = GetPlan(cache=cache, lam=2.0)
        # GL = 1.5 <= 2: pure selectivity hit, no recost calls.
        decision = decide(get_plan, SelectivityVector.of(0.15, 0.1), toy_engine.recost)
        assert decision.hit
        assert decision.check is CheckKind.SELECTIVITY
        assert decision.recost_calls == 0
        assert decision.plan_id == plan.plan_id

    def test_usage_incremented_on_hit(self, populated, toy_engine):
        cache, _, _ = populated
        get_plan = GetPlan(cache=cache, lam=2.0)
        before = next(cache.instances()).usage
        decide(get_plan, SelectivityVector.of(0.11, 0.1), toy_engine.recost)
        assert next(cache.instances()).usage == before + 1

    def test_inferred_suboptimality_bound(self, populated, toy_engine):
        cache, _, _ = populated
        get_plan = GetPlan(cache=cache, lam=2.0)
        sv = SelectivityVector.of(0.15, 0.1)
        decision = decide(get_plan, sv, toy_engine.recost)
        # Certified bound is S*G*L = 1.5 for this query point.
        assert decision.inferred_suboptimality == pytest.approx(1.5)

    def test_budget_shrinks_with_anchor_suboptimality(self, populated, toy_engine):
        cache, plan, result = populated
        entry = next(cache.instances())
        # The anchor's plan itself 1.8-suboptimal: one call, and the next
        # probe reads the new S.
        cache.refresh_costs([0], [entry.optimal_cost], [1.8])
        # A second anchor of the same plan, farther from the query but
        # with its whole budget left.
        spare_sv = SelectivityVector.of(0.1, 0.125)
        cache.add_instance(InstanceEntry(
            sv=spare_sv, plan_id=plan.plan_id,
            optimal_cost=toy_engine.recost(plan.shrunken_memo, spare_sv),
            suboptimality=1.0,
        ))
        sv = SelectivityVector.of(0.15, 0.1)
        # GL = 1.5 / 1.875 against budgets 2/1.8 = 1.11 and 2: both
        # selectivity checks miss.
        assert not GetPlan(cache=cache, lam=1.8, max_recost_candidates=0).probe(
            sv, toy_engine.recost
        ).hit
        # The cost check re-costs the shared plan once and holds every
        # anchor of it against its own λ/S: the nearest anchor (R·L over
        # budget 1.8/1.8 = 1) fails, the farther one has room and wins.
        decision = GetPlan(cache=cache, lam=1.8).probe(sv, toy_engine.recost)
        ratio = toy_engine.recost(plan.shrunken_memo, sv) / result.cost
        assert ratio > 1.0
        assert decision.check is CheckKind.COST
        assert decision.recost_calls == 1
        assert decision.row == 1  # the spare anchor
        assert decision.inferred_suboptimality <= 1.8


class TestCostCheck:
    def test_cost_check_rescues_failed_selectivity_check(
        self, populated, toy_engine
    ):
        cache, _, _ = populated
        get_plan = GetPlan(cache=cache, lam=2.0)
        # Outside the GL region (G = 8 along dim 1), but growing only
        # dimension 1 of this template barely moves the plan's cost
        # (orders-side predicate), so R stays small and RL <= lambda.
        sv = SelectivityVector.of(0.1, 0.8)
        decision = decide(get_plan, sv, toy_engine.recost)
        if decision.hit:
            assert decision.check is CheckKind.COST
            assert decision.recost_calls >= 1
            assert decision.recost_ratio < 2.0

    def test_refreshed_costs_are_what_the_next_cost_check_reads(
        self, populated, toy_engine
    ):
        """One ``refresh_costs`` call rewrites C and S, and the very next
        probe's cost check reads both; a view taken before keeps its
        own."""
        cache, plan, result = populated
        held = cache.columnar()
        cache.refresh_costs([0], [2.0 * result.cost], [1.25])
        # G·L = 4 > λ/S = 3.2: only the cost check can hit.
        sv = SelectivityVector.of(0.4, 0.1)
        cost = toy_engine.recost(plan.shrunken_memo, sv)
        decision = GetPlan(cache=cache, lam=4.0).probe(sv, toy_engine.recost)
        assert decision.check is CheckKind.COST
        assert decision.recost_ratio == cost / (2.0 * result.cost)
        assert decision.inferred_suboptimality == (
            1.25 * decision.recost_ratio * decision.l
        )
        # The held view: S = 1 leaves G·L = 4 within λ, and its cost
        # check divides by the old C.
        assert GetPlan(cache=cache, lam=4.0).probe(
            sv, toy_engine.recost, view=held
        ).check is CheckKind.SELECTIVITY
        before = GetPlan(cache=cache, lam=3.9).probe(
            sv, toy_engine.recost, view=held
        )
        assert before.check is CheckKind.COST
        assert before.recost_ratio == cost / result.cost

    def test_recost_cap_respected(self, toy_engine):
        """The cap bounds Recost calls, i.e. distinct *plans* tried —
        however many anchors stand behind each."""
        cache, plans = three_plan_cache(toy_engine, anchors_per_plan=3)
        assert len(plans) == 3 and cache.num_instances == 9
        sv = SelectivityVector.of(0.9, 0.9)
        for cap, expected in [(0, 0), (1, 1), (2, 2), (3, 3), (8, 3)]:
            get_plan = GetPlan(
                cache=cache, lam=1.0 + 1e-9, max_recost_candidates=cap
            )
            decision = decide(get_plan, sv, toy_engine.recost)
            assert not decision.hit
            assert decision.recost_calls == expected
            assert len(decision.recost_memo) == expected
        # A per-call override can only lower the cap.
        get_plan = GetPlan(cache=cache, lam=1.0 + 1e-9, max_recost_candidates=2)
        assert get_plan.probe(sv, toy_engine.recost, max_recost=1).recost_calls == 1
        assert get_plan.probe(sv, toy_engine.recost, max_recost=5).recost_calls == 2

    def test_miss_returns_optimizer_kind(self, populated, toy_engine):
        cache, _, _ = populated
        get_plan = GetPlan(cache=cache, lam=1.05)
        decision = decide(get_plan, SelectivityVector.of(0.9, 0.9), toy_engine.recost)
        assert not decision.hit
        assert decision.check is CheckKind.OPTIMIZER

    def test_retired_anchor_skipped_in_cost_check(self, populated, toy_engine):
        cache, plan, result = populated
        assert cache.columnar().store.retire(0)
        get_plan = GetPlan(cache=cache, lam=2.0)
        sv = SelectivityVector.of(0.1, 0.8)
        decision = decide(get_plan, sv, toy_engine.recost)
        # The only anchor is retired: no recost calls may happen.
        assert decision.recost_calls == 0
        # With a live anchor of the same plan the plan is re-costed once
        # — and the retired anchor still cannot win, although it is the
        # nearer one and its R·L the smaller.
        live_sv = SelectivityVector.of(0.05, 0.1)
        cache.add_instance(InstanceEntry(
            sv=live_sv, plan_id=plan.plan_id,
            optimal_cost=toy_engine.recost(plan.shrunken_memo, live_sv),
            suboptimality=1.0,
        ))
        sv = SelectivityVector.of(0.4, 0.1)
        decision = GetPlan(cache=cache, lam=2.0).probe(sv, toy_engine.recost)
        assert decision.recost_calls == 1
        assert decision.check is CheckKind.COST
        assert decision.row == 1  # the live anchor
        cache.columnar().retired[0] = False  # the column, written live
        revived = GetPlan(cache=cache, lam=2.0).probe(sv, toy_engine.recost)
        assert revived.row == 0
        assert revived.inferred_suboptimality < decision.inferred_suboptimality

    def test_candidates_tried_in_gl_order(self, toy_engine):
        """With several anchors, the closest (lowest GL) is tried first."""
        cache = PlanCache()
        anchors = [
            SelectivityVector.of(0.5, 0.5),
            SelectivityVector.of(0.02, 0.02),
            SelectivityVector.of(0.25, 0.2),
        ]
        for sv in anchors:
            result = toy_engine.optimize(sv)
            plan = cache.add_plan(result.plan, result.shrunken_memo)
            cache.add_instance(InstanceEntry(
                sv=sv, plan_id=plan.plan_id,
                optimal_cost=result.cost, suboptimality=1.0,
            ))
        get_plan = GetPlan(cache=cache, lam=1.0 + 1e-9, max_recost_candidates=1)
        # Query close to anchor (0.25, 0.2): with budget ~1 nothing hits,
        # but exactly one recost call is made (the capped nearest anchor).
        decision = decide(get_plan, SelectivityVector.of(0.28, 0.22), toy_engine.recost)
        assert decision.recost_calls == 1


class TestStatistics:
    def test_counters_accumulate(self, populated, toy_engine):
        cache, _, _ = populated
        get_plan = GetPlan(cache=cache, lam=2.0)
        decide(get_plan, SelectivityVector.of(0.11, 0.1), toy_engine.recost)   # sel hit
        decide(get_plan, SelectivityVector.of(0.9, 0.9), toy_engine.recost)    # miss
        assert get_plan.selectivity_hits == 1
        assert get_plan.misses == 1
        assert get_plan.entries_scanned >= 2

    def test_invalid_lambda_rejected(self):
        with pytest.raises(ValueError):
            GetPlan(cache=PlanCache(), lam=0.5)

    def test_negative_cap_rejected(self):
        with pytest.raises(ValueError):
            GetPlan(cache=PlanCache(), lam=2.0, max_recost_candidates=-1)


class TestDynamicLambdaHook:
    def test_lambda_for_overrides_static(self, populated, toy_engine):
        cache, _, _ = populated
        # Schedule grants lambda = 10 to every anchor: generous region.
        get_plan = GetPlan(cache=cache, lam=1.01, lambda_for=lambda c: 10.0)
        decision = decide(get_plan, SelectivityVector.of(0.3, 0.25), toy_engine.recost)
        assert decision.hit
        assert decision.check is CheckKind.SELECTIVITY
