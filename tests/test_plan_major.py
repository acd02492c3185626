"""What the plan-major cost check makes true (DESIGN.md §12).

* **monotonicity lemma** — on the same cache state every hit of a capped
  *entry-major* walk (one Recost per candidate entry, first pass wins;
  kept here, in the test file, as the thing to compare against) is a
  plan-major hit, because the plans of the ``cap`` cheapest live entries
  are among the plans the cost phase re-costs;
* **per-request memo** — ``probe_batch`` carries the same memo as
  sequential probes, the redundancy check spends no engine call on a
  memoised plan, and a memo entry for a plan evicted between probe and
  register is ignored with the recost ledger still exact;
* **fail closed** — a Recost fault inside the cost phase can only turn a
  hit into a miss, leaves no ``+inf`` in the memo and makes the
  redundancy check ask the engine again;
* **the certificate** — certified ⇒ SubOpt ≤ λ against the oracle on the
  request-latency ledger's two bare-SCR streams, three seeds, point and
  robust checks.
"""

from __future__ import annotations

import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bounds import LINEAR_BOUND, QUADRATIC_BOUND, compute_gl
from repro.core.get_plan import CandidateOrder, CheckKind, GetPlan
from repro.core.manage_cache import ManageCache
from repro.core.plan_cache import CachedPlan, InstanceEntry, PlanCache
from repro.core.scr import SCR
from repro.engine.api import EngineAPI
from repro.engine.faults import FaultConfig, FaultInjector, FaultProfile
from repro.engine.resilience import ResilientEngineAPI
from repro.harness.oracle import Oracle
from repro.optimizer.optimizer import QueryOptimizer
from repro.query.instance import QueryInstance, SelectivityVector, as_point
from repro.serving import ConcurrentPQOManager
from repro.workload.generator import (
    generate_selectivity_vectors,
    instances_for_template,
)
from repro.workload.templates import tpcds_templates, tpch_templates

from reference_get_plan import sv_product
from test_vectorized_equivalence import (
    assert_decisions_identical,
    build_cache,
    random_input,
)


# -- the monotonicity lemma ---------------------------------------------------


class _PlanMemo:
    """Stands in for a shrunken memo: the plan's cost surface is
    ``base · Π s_i^w_i`` — smooth, plan-specific, and a function of the
    plan and the point only, as ``Cost(P, q)`` is."""

    node_count = 1

    def __init__(self, base: float, weights: tuple[float, ...]) -> None:
        self.base = base
        self.weights = weights


def plan_cost(memo: _PlanMemo, point: SelectivityVector) -> float:
    cost = memo.base
    for s, w in zip(point, memo.weights):
        cost *= s ** w
    return cost


def synthetic_cache(rng: random.Random, plans: int, anchors: int, d: int):
    cache = PlanCache()
    for i in range(plans):
        memo = _PlanMemo(
            rng.uniform(50.0, 500.0),
            tuple(rng.uniform(0.0, 1.0) for _ in range(d)),
        )
        cache._plans[i] = CachedPlan(
            plan_id=i, signature=f"p{i}", plan=None, shrunken_memo=memo
        )
        cache._by_signature[f"p{i}"] = i
    cache._next_plan_id = plans
    cache._mutated()
    for _ in range(anchors):
        sv = SelectivityVector.from_sequence(
            [10 ** rng.uniform(-3, 0) for _ in range(d)]
        )
        plan = cache.plan(rng.randrange(plans))
        sub = rng.choice([1.0, 1.0, rng.uniform(1.0, 1.3)])
        cache.add_instance(InstanceEntry(
            sv=sv, plan_id=plan.plan_id,
            # C is the optimal cost at the anchor: the pointed plan's
            # own cost there, divided by its sub-optimality.
            optimal_cost=plan_cost(plan.shrunken_memo, sv) / sub,
            suboptimality=sub,
            usage=rng.randint(1, 9),
            retired=rng.random() < 0.1,
        ))
    return cache


def entry_major_walk(get_plan: GetPlan, point: SelectivityVector, cap: int):
    """The cost walk plan-major replaced: the ``cap`` cheapest live
    entries in stable key order, one Recost each, first pass wins.
    Returns ``(winning entry or None, plans of the candidate entries)``;
    the key is the configured candidate order's."""
    entries = list(get_plan.cache.instances())
    factors = [compute_gl(e.sv, point) for e in entries]
    by_usage = sorted(range(len(entries)), key=lambda i: -entries[i].usage)
    rank = {row: r for r, row in enumerate(by_usage)}

    def key(i: int):
        if get_plan.candidate_order is CandidateOrder.GL:
            return factors[i][0] * factors[i][1]
        if get_plan.candidate_order is CandidateOrder.AREA:
            return -sv_product(entries[i])
        return rank[i]

    live = [i for i, e in enumerate(entries) if not e.retired]
    candidates = sorted(live, key=key)[:cap]
    plans = {entries[i].plan_id for i in candidates}
    for i in candidates:
        entry = entries[i]
        memo = get_plan.cache.plan(entry.plan_id).shrunken_memo
        r = plan_cost(memo, point) / entry.optimal_cost
        check = get_plan.bound.cost_bound(r, factors[i][1])
        if check <= get_plan.lam / entry.suboptimality:
            return entry, plans
    return None, plans


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    plans=st.integers(1, 12),
    anchors=st.integers(1, 40),
    cap=st.integers(1, 9),
    lam=st.sampled_from([1.05, 1.2, 1.5, 2.0]),
    order=st.sampled_from(list(CandidateOrder)),
    bound=st.sampled_from([LINEAR_BOUND, QUADRATIC_BOUND]),
)
def test_every_entry_major_hit_is_a_plan_major_hit(
    seed, plans, anchors, cap, lam, order, bound
):
    rng = random.Random(seed)
    cache = synthetic_cache(rng, plans, anchors, d=2)
    get_plan = GetPlan(
        cache=cache, lam=lam, max_recost_candidates=cap,
        candidate_order=order, bound=bound,
    )

    def never_passes(memo, point):
        return 1e12

    for _ in range(25):
        point = SelectivityVector.from_sequence(
            [10 ** rng.uniform(-3, 0) for _ in range(2)]
        )
        decision = get_plan.probe(point, plan_cost)
        if decision.check is CheckKind.SELECTIVITY:
            continue
        assert decision.recost_calls <= cap
        entry, candidate_plans = entry_major_walk(get_plan, point, cap)
        # The plans behind the cap cheapest live entries are among the
        # cap cheapest plans — the ones a full plan-major miss re-costs.
        full_miss = get_plan.probe(point, never_passes)
        assert not full_miss.hit
        assert candidate_plans <= set(full_miss.recost_memo)
        assert len(full_miss.recost_memo) == full_miss.recost_calls <= cap
        if entry is not None:
            assert decision.check is CheckKind.COST
        if decision.check is CheckKind.COST:
            # Whatever it hit through is live and within budget, and
            # its ratio is the scalar one for that anchor.
            anchor = cache.instance(decision.row)
            assert not anchor.retired
            memo = cache.plan(anchor.plan_id).shrunken_memo
            r = plan_cost(memo, point) / anchor.optimal_cost
            assert decision.recost_ratio == r
            check = bound.cost_bound(r, decision.l)
            assert check <= lam / anchor.suboptimality


# -- the per-request memo -----------------------------------------------------


@pytest.mark.parametrize("check_mode", ["point", "robust"])
def test_probe_batch_equals_sequential_probes_with_the_memo(check_mode):
    rng = random.Random(77)
    cache = build_cache(rng, 90, 3)
    get_plan = GetPlan(cache=cache, lam=1.6, check_mode=check_mode)
    svs = [random_input(rng, 3, check_mode != "point") for _ in range(64)]
    batch = get_plan.probe_batch(svs, plan_cost_by_identity)
    cost_phases = 0
    for i, (sv, db) in enumerate(zip(svs, batch)):
        ds = get_plan.probe(sv, plan_cost_by_identity)
        assert_decisions_identical(ds, db, f"{check_mode} row={i}")
        cost_phases += bool(ds.recost_memo)
        assert len(ds.recost_memo) == ds.recost_calls
    assert cost_phases > 10


def plan_cost_by_identity(memo, point: SelectivityVector) -> float:
    """A deterministic Recost for ``build_cache``'s stub memos: varies
    by plan (the memo object) and by point."""
    return 20.0 + (id(memo) % 97) + 900.0 * sum(point) / len(point)


@pytest.fixture()
def warm_scr(toy_engine):
    scr = SCR(toy_engine, lam=1.2)
    for sv in generate_selectivity_vectors(2, 80, seed=5):
        scr.process(QueryInstance("toy_join", sv=sv))
    assert scr.cache.num_plans >= 3
    return scr


def counting(recost):
    calls = []

    def counted(memo, sv):
        calls.append(memo)
        return recost(memo, sv)

    return counted, calls


def test_redundancy_check_asks_nothing_after_a_full_plan_major_miss(
    warm_scr, toy_engine
):
    scr = warm_scr
    assert scr.cache.num_plans <= scr.get_plan.max_recost_candidates
    misses = 0
    for sv in generate_selectivity_vectors(2, 300, seed=91):
        decision = scr.get_plan.probe(sv, toy_engine.recost)
        if decision.hit:
            continue
        misses += 1
        plans_before = {p.plan_id for p in scr.cache.plans()}
        # A full miss re-costed every cached plan ...
        assert set(decision.recost_memo) == plans_before
        result = toy_engine.optimize(sv)
        recost, calls = counting(toy_engine.recost)
        with_memo = ManageCache(cache=scr.cache, lam=1.2)._redundancy_check(
            sv, result.cost, recost, decision.recost_memo
        )
        # ... so the redundancy check has nothing left to ask,
        assert calls == []
        # and decides exactly what it decides when it asks for itself.
        recost, calls = counting(toy_engine.recost)
        without = ManageCache(cache=scr.cache, lam=1.2)._redundancy_check(
            sv, result.cost, recost, {}
        )
        assert len(calls) == len(plans_before)
        assert with_memo == without
    assert misses > 5


def test_process_charges_each_plan_once_per_request(toy_db, toy_template):
    """End to end: on a miss the request's recost calls are the cost
    phase's alone when every plan fits the cap; the engine's own counter
    agrees with the choices' ledger."""
    engine = toy_db.engine(toy_template)
    scr = SCR(engine, lam=1.2)
    charged, calls_before = 0, engine.counters.recost.calls
    for sv in generate_selectivity_vectors(2, 150, seed=5):
        plans_before = scr.cache.num_plans
        choice = scr.process(QueryInstance("toy_join", sv=sv))
        charged += choice.recost_calls
        if choice.used_optimizer:
            assert choice.recost_calls == plans_before
    assert scr.manage_cache.stats.redundancy_recost_calls == 0
    assert engine.counters.recost.calls - calls_before == charged
    assert charged == scr.get_plan.total_recost_calls > 0


def _shard_over(db, template, **register):
    manager = ConcurrentPQOManager(database=db, max_workers=1)
    manager.register(template, **register)
    return manager, manager.shard(template.name)


def test_memo_entry_of_a_plan_evicted_before_register_is_ignored(
    toy_db, toy_template
):
    """``plan_budget=2``: while one request's optimizer call is in
    flight, another request registers a plan and evicts one the first
    request's cost phase had re-costed.  The stale memo entry is never
    read (its plan is no longer in the plan list), the plan added since
    is re-costed normally, and the recost ledger stays exact."""
    manager, shard = _shard_over(toy_db, toy_template, lam=1.1, plan_budget=2)
    scr, engine = shard.scr, shard.engine
    calls_at_start = engine.counters.recost.calls
    for values in [(0.5, 0.1), (0.002, 0.5)]:
        shard.process(QueryInstance("toy_join", sv=SelectivityVector.of(*values)))
    cached = {p.plan_id for p in scr.cache.plans()}
    assert len(cached) == 2
    victim = QueryInstance("toy_join", sv=SelectivityVector.of(0.9, 0.9))
    intruder = QueryInstance("toy_join", sv=SelectivityVector.of(0.02, 0.9))

    optimize, apply = scr._optimize, scr.apply
    seen = {}

    def optimize_with_an_intruder(sv, incumbent=None):
        if not seen:
            seen["intruder"] = None  # the nested request must not recurse
            seen["intruder"] = shard.process(intruder)
            seen["plans"] = {p.plan_id for p in scr.cache.plans()}
            seen["redundancy"] = scr.manage_cache.stats.redundancy_recost_calls
        return optimize(sv, incumbent)

    def apply_recording_the_memo(sv, decision, result=None, *args, **kwargs):
        if result is not None:
            seen.setdefault("memos", []).append(set(decision.recost_memo))
        return apply(sv, decision, result, *args, **kwargs)

    scr._optimize = optimize_with_an_intruder
    scr.apply = apply_recording_the_memo
    ledger_before = engine.counters.recost.calls
    choice = shard.process(victim)
    scr._optimize, scr.apply = optimize, apply
    manager.close()

    # The victim's cost phase re-costed both cached plans; the intruder
    # (which registered first) then evicted one of them and added its own.
    intruder_memo, victim_memo = seen["memos"]
    assert victim_memo == intruder_memo == cached
    assert seen["intruder"].used_optimizer
    evicted, added = cached - seen["plans"], seen["plans"] - cached
    assert len(evicted) == len(added) == 1
    # Register: the surviving plan's cost came from the memo, the added
    # plan's from the engine — one redundancy recost, not two, not zero.
    assert (
        scr.manage_cache.stats.redundancy_recost_calls - seen["redundancy"] == 1
    )
    assert choice.used_optimizer and choice.certified
    assert scr.cache.find_plan(choice.plan_signature) is not None
    assert scr.cache.max_plans_seen <= 2
    # Ledger: every engine recost is on a choice, and on a counter.
    assert engine.counters.recost.calls - ledger_before == (
        choice.recost_calls + seen["intruder"].recost_calls
    )
    assert engine.counters.recost.calls - calls_at_start == (
        scr.get_plan.total_recost_calls
        + scr.manage_cache.stats.redundancy_recost_calls
    )


# -- fail closed --------------------------------------------------------------


def _faulty(engine, **profile) -> ResilientEngineAPI:
    return ResilientEngineAPI(
        FaultInjector(
            engine, FaultConfig(recost=FaultProfile(**profile)), seed=3
        )
    )


@pytest.mark.parametrize("check_mode", ["point", "robust"])
@pytest.mark.parametrize(
    "profile", [dict(error_rate=1.0), dict(error_rate=0.4, corrupt_rate=0.3)]
)
def test_a_recost_fault_can_only_turn_a_hit_into_a_miss(
    toy_db, toy_template, profile, check_mode
):
    engine = toy_db.engine(toy_template)
    scr = SCR(engine, lam=1.2, check_mode=check_mode)
    for sv in generate_selectivity_vectors(2, 80, seed=5):
        scr.process(QueryInstance("toy_join", sv=sv))
    faulty = _faulty(toy_db.engine(toy_template), **profile)
    lost = kept = failed_closed = 0
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        for sv in generate_selectivity_vectors(2, 250, seed=17):
            healthy = scr.get_plan.probe(sv, engine.recost)
            before = faulty.counters.resilience.recost_failed_closed
            degraded = scr.get_plan.probe(sv, faulty.recost)
            closed = faulty.counters.resilience.recost_failed_closed - before
            failed_closed += closed
            if degraded.hit:
                assert healthy.hit
                if profile == dict(error_rate=1.0):
                    assert degraded.check is CheckKind.SELECTIVITY
                assert math.isfinite(degraded.inferred_suboptimality)
                assert degraded.inferred_suboptimality <= 1.2 * (1 + 1e-12)
                kept += 1
            elif healthy.hit:
                lost += 1
            # The +inf never reaches the memo; a failed-closed plan is
            # simply absent from it (and from the calibration feed).
            assert all(math.isfinite(c) for c in degraded.recost_memo.values())
            assert len(degraded.recost_memo) == degraded.recost_calls - closed
            assert len(degraded.recost_samples) == len(degraded.recost_memo)
            assert not any(
                math.isnan(x) for x in (degraded.g, degraded.l, degraded.recost_ratio)
            )
    assert failed_closed > 0 and lost > 0 and kept > 0


def test_redundancy_check_recosts_a_plan_whose_probe_recost_failed_closed(
    warm_scr, toy_engine
):
    scr = warm_scr
    broken = next(iter(scr.cache.plans()))

    def one_plan_down(memo, sv):
        if memo is broken.shrunken_memo:
            return math.inf  # what ResilientEngineAPI returns on failure
        return toy_engine.recost(memo, sv)

    checked = 0
    for sv in generate_selectivity_vectors(2, 300, seed=91):
        decision = scr.get_plan.probe(sv, one_plan_down)
        if decision.hit or decision.recost_calls < scr.cache.num_plans:
            continue
        assert broken.plan_id not in decision.recost_memo
        assert len(decision.recost_memo) == decision.recost_calls - 1
        recost, calls = counting(toy_engine.recost)
        ManageCache(cache=scr.cache, lam=1.2)._redundancy_check(
            sv, toy_engine.optimize(sv).cost, recost, decision.recost_memo
        )
        assert calls == [broken.shrunken_memo]
        checked += 1
    assert checked > 3


# -- the certificate against the oracle ---------------------------------------


@pytest.mark.parametrize("check_mode", ["point", "robust"])
@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize(
    "template_name, lam",
    [("tpch_shipping_priority", 1.2), ("tpcds_six_dim", 1.5)],
)
def test_certified_means_suboptimality_within_lambda_on_the_ledger_streams(
    request, template_name, lam, seed, check_mode
):
    template = next(
        t for t in tpch_templates() + tpcds_templates()
        if t.name == template_name
    )
    db = request.getfixturevalue(f"{template.database}_db")
    engine = EngineAPI(
        template,
        QueryOptimizer(template, db.stats, db.estimator, db.cost_model),
        db.estimator,
    )
    scr = SCR(engine, lam=lam, check_mode=check_mode)
    oracle = Oracle(db, template)
    certified = worst = 0
    for instance in instances_for_template(template, 2000, seed=seed):
        choice = scr.process(instance)
        if not choice.certified:
            continue
        certified += 1
        point = as_point(engine.selectivity_vector(instance))
        subopt = (
            oracle.plan_cost(choice.shrunken_memo, point)
            / oracle.optimal(point).optimal_cost
        )
        worst = max(worst, subopt)
        assert subopt <= lam * (1 + 1e-9), (template_name, seed, check_mode)
    assert certified == 2000 and worst >= 1.0
    assert scr.get_plan.cost_hits > 0
