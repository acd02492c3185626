"""Differential oracle for the plan search.

``repro.optimizer.search`` builds a per-template skeleton once and, per
instance, prices alternatives before constructing nodes.  This suite
holds it bit-identical to the straight-line enumeration it replaced
(``reference_search.py``): same memo groups in the same order, same
cardinalities and expression counts, same winner keys in the same order,
same winning plan trees down to the last float, and therefore the same
``OptimizationResult`` — over every template of every catalog, seeded
random sVectors plus the boundary vectors.

The same loop holds Recost's compiled function bit-identical to the
interpreted walk it replaced (``reference_recost.py``) on every winning
plan, under the default cost model and the two test models below, and
bounds Recost(P*, q) against optimize(q).cost at 4 ulps: the
two derive join cardinalities in different float association, so they
agree to within about one ulp, not bit for bit.

It also holds the bounded search (a cache miss's branch-and-bound from
a re-costed incumbent) to the reference: from the vector's own optimum,
three seeded optima of other vectors and the costliest winning plan
seen, the winner tree, its cost, the group and expression counts and
every group's cardinality and ``expressions_considered`` are the
reference's.  The same differential runs under the two contract-keeping
but assumption-breaking cost models of ``test_failure_injection.py``.
"""

from __future__ import annotations

import dataclasses
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_recost import recost_walk
from reference_search import PlanSearch as ReferenceSearch
from repro.catalog.registry import get_database
from repro.optimizer.operators import PhysicalOp
from repro.optimizer.optimizer import INCUMBENT_MARGIN, QueryOptimizer
from repro.optimizer.recost import shrink
from repro.optimizer.cost_model import CostModel
from repro.query.instance import SELECTIVITY_FLOOR, SelectivityVector
from test_failure_injection import NonMonotoneCostModel, SpikyCostModel
from repro.workload.templates import (
    rd1_templates,
    rd2_templates,
    tpcds_templates,
    tpch_templates,
)

TEMPLATES = tpch_templates() + tpcds_templates() + rd1_templates() + rd2_templates()
RANDOM_VECTORS = 200
RECOST_RANDOM_VECTORS = 20
#: Recost(P*, q) vs optimize(q).cost, in ulps of the optimizer's cost.
RECOST_ULP_BOUND = 4
#: The smallest subnormal: legal in an sVector, below every floor.
DENORMAL = 5e-324
#: Optima of other vectors each vector's bounded search starts from.
OTHER_INCUMBENTS = 3
#: Seeded vectors per template under each test cost model.
TEST_MODEL_VECTORS = 40


def _vectors(d: int, seed: int) -> list[SelectivityVector]:
    lo, hi = SELECTIVITY_FLOOR, 1.0
    boundary = [
        [lo] * d,
        [hi] * d,
        [lo if i % 2 else hi for i in range(d)],
        [hi if i % 2 else lo for i in range(d)],
    ]
    # One dimension pinned to each end, the rest mid-range.
    for i in range(d):
        for end in (lo, hi):
            boundary.append([end if j == i else 0.1 for j in range(d)])
    # Log-uniform over the whole legal range [1e-6, 1].
    rng = random.Random(seed)
    seeded = [
        [max(lo, 10.0 ** rng.uniform(-6.0, 0.0)) for _ in range(d)]
        for _ in range(RANDOM_VECTORS)
    ]
    return [SelectivityVector.from_sequence(v) for v in boundary + seeded]


def _recost_vectors(d: int, seed: int) -> list[SelectivityVector]:
    """The boundary vectors over the whole sVector domain ``(0, 1]`` —
    the subnormal ``5e-324``, ``1e-300`` and ``1.0`` — plus seeded ones."""
    vectors = [
        [end] * d for end in (DENORMAL, 1e-300, SELECTIVITY_FLOOR, 1.0)
    ]
    vectors += [
        [DENORMAL if i % 2 else 1.0 for i in range(d)],
        [1.0 if i % 2 else DENORMAL for i in range(d)],
    ]
    rng = random.Random(seed)
    vectors += [
        [rng.choice((DENORMAL, 1.0)) if rng.random() < 0.2
         else 10.0 ** rng.uniform(-8.0, 0.0) for _ in range(d)]
        for _ in range(RECOST_RANDOM_VECTORS)
    ]
    return [SelectivityVector.from_sequence(v) for v in vectors]


def _assert_memo_matches(plan, memo, ref_plan, ref_memo, sv):
    """Winner tree and cost, group and expression counts, and every
    group's cardinality and ``expressions_considered``: the reference's."""
    assert plan == ref_plan, sv
    assert plan.cost == ref_plan.cost, sv
    assert list(memo.groups) == list(ref_memo.groups), sv
    assert memo.expression_count == ref_memo.expression_count, sv
    for tables, ref_group in ref_memo.groups.items():
        group = memo.groups[tables]
        assert group.cardinality == ref_group.cardinality, (sv, tables)
        assert group.expressions_considered == ref_group.expressions_considered


def _assert_bounded_matches(optimizer, searched, rng):
    """Each vector's bounded search, from its own optimum, three seeded
    optima of other vectors and the costliest winning plan seen, answers
    as the reference did; so does ``QueryOptimizer.optimize`` from the
    vector's own optimum.  ``searched`` is ``[(sv, result, ref_plan,
    ref_memo)]`` over every vector."""
    memos = {r.shrunken_memo.signature: r.shrunken_memo for _, r, _, _ in searched}
    for sv, result, ref_plan, ref_memo in searched:
        others = [r.shrunken_memo for _, r, _, _ in rng.sample(searched, OTHER_INCUMBENTS)]
        costliest = max(memos.values(), key=lambda m: optimizer.recost(m, sv))
        for incumbent in (result.shrunken_memo, *others, costliest):
            bound = optimizer.recost(incumbent, sv) * INCUMBENT_MARGIN
            plan, memo = optimizer._search.optimize(sv, bound)
            _assert_memo_matches(plan, memo, ref_plan, ref_memo, sv)
        bounded = optimizer.optimize(sv, result.shrunken_memo)
        assert bounded.plan == ref_plan, sv
        assert (bounded.cost, bounded.memo_groups, bounded.memo_expressions) == (
            result.cost, result.memo_groups, result.memo_expressions,
        ), sv
        assert bounded.shrunken_memo.nodes == result.shrunken_memo.nodes, sv


@pytest.mark.parametrize("template", TEMPLATES, ids=lambda t: t.name)
def test_search_matches_reference(template):
    db = get_database(template.database, scale=0.2, seed=5)
    optimizer = QueryOptimizer(template, db.stats, db.estimator)
    reference = ReferenceSearch(
        template, optimizer.card_model, optimizer.cost_model, db.stats.schema
    )
    winners = {}
    searched = []
    for sv in _vectors(template.dimensions, seed=len(template.name)):
        ref_plan, ref_memo = reference.optimize(sv)
        result = optimizer.optimize(sv)
        plan, memo = optimizer._search.optimize(sv)

        assert list(memo.groups) == list(ref_memo.groups), sv
        for tables, ref_group in ref_memo.groups.items():
            group = memo.groups[tables]
            assert group.cardinality == ref_group.cardinality, (sv, tables)
            assert group.expressions_considered == ref_group.expressions_considered
            assert list(group.winners) == list(ref_group.winners), (sv, tables)
            for order, ref_winner in ref_group.winners.items():
                winner = group.winners[order]
                assert winner.cost == ref_winner.cost, (sv, tables, order)
                # Dataclass ``==`` is the field-by-field, exact-float
                # comparison ``asdict`` equality would make, minus the
                # deep copy (which tripled this suite's run time).
                assert winner.plan == ref_winner.plan, (sv, tables, order)
        assert dataclasses.asdict(plan) == dataclasses.asdict(ref_plan), sv

        ref_shrunken = shrink(
            ref_plan, ref_memo.group_count, ref_memo.expression_count
        )
        assert result.cost == ref_plan.cost
        assert result.memo_groups == ref_memo.group_count
        assert result.memo_expressions == ref_memo.expression_count
        assert dataclasses.asdict(result.plan) == dataclasses.asdict(ref_plan)
        assert result.shrunken_memo.nodes == ref_shrunken.nodes
        assert result.shrunken_memo.signature == ref_shrunken.signature

        recosted = optimizer.recost(result.shrunken_memo, sv)
        assert abs(recosted - result.cost) <= RECOST_ULP_BOUND * math.ulp(
            result.cost
        ), (sv, recosted, result.cost)
        winners.setdefault(result.shrunken_memo.signature, result.shrunken_memo)
        searched.append((sv, result, ref_plan, ref_memo))

    _assert_bounded_matches(optimizer, searched, random.Random(len(template.name)))

    _assert_recost_matches_walk(
        optimizer.cost_model, winners.values(), template.dimensions
    )


def _assert_recost_matches_walk(cost_model, memos, dims):
    """Production Recost == the interpreted walk, exactly, on every
    distinct winning plan at every recost vector."""
    for memo in {memo.signature: memo for memo in memos}.values():
        for sv in _recost_vectors(dims, seed=len(memo.signature)):
            assert memo.recost(sv, cost_model) == recost_walk(
                memo, sv, cost_model
            ), (memo.signature, sv)


#: Templates whose winning plans together use every operator any
#: template's winning plans use: both scans, all four joins, sort and
#: the hash and scalar aggregates.
PROPERTY_TEMPLATES = (
    "tpch_local_supplier", "tpch_promotion_effect", "tpch_lineitem_scan",
)


@pytest.fixture(scope="module")
def property_plans():
    """Per template: its optimizer and the distinct winning plans over
    the seeded vectors."""
    out = []
    for template in TEMPLATES:
        if template.name not in PROPERTY_TEMPLATES:
            continue
        db = get_database(template.database, scale=0.2, seed=5)
        optimizer = QueryOptimizer(template, db.stats, db.estimator)
        memos = {}
        for sv in _vectors(template.dimensions, seed=1)[:60]:
            memo = optimizer.optimize(sv).shrunken_memo
            memos.setdefault(memo.signature, memo)
        out.append((template, optimizer, list(memos.values())))
    return out


coordinate = st.one_of(
    st.floats(min_value=DENORMAL, max_value=1.0, allow_subnormal=True),
    st.sampled_from((DENORMAL, 1e-300, SELECTIVITY_FLOOR, 1.0)),
)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_recost_matches_reference_walk_property(property_plans, data):
    """Any legal sVector, any winning plan: the compiled function returns
    the walk's exact float."""
    template, optimizer, memos = data.draw(st.sampled_from(property_plans))
    memo = data.draw(st.sampled_from(memos))
    sv = SelectivityVector.from_sequence(
        data.draw(st.lists(
            coordinate, min_size=template.dimensions,
            max_size=template.dimensions,
        ))
    )
    cost_model = optimizer.cost_model
    assert memo.recost(sv, cost_model) == recost_walk(memo, sv, cost_model)


@pytest.mark.parametrize("model", [SpikyCostModel, NonMonotoneCostModel],
                         ids=lambda m: m.__name__)
@pytest.mark.parametrize("template", TEMPLATES, ids=lambda t: t.name)
def test_bounded_search_matches_reference_under_test_cost_models(template, model):
    """Scan-cost cliffs and non-monotone scans break BCG and PCM, not
    the bounded search's contract or Recost's: both differentials still
    hold."""
    db = get_database(template.database, scale=0.2, seed=5)
    optimizer = QueryOptimizer(template, db.stats, db.estimator, model())
    reference = ReferenceSearch(
        template, optimizer.card_model, optimizer.cost_model, db.stats.schema
    )
    vectors = _vectors(template.dimensions, seed=len(template.name))
    searched = []
    for sv in vectors[:len(vectors) - RANDOM_VECTORS + TEST_MODEL_VECTORS]:
        ref_plan, ref_memo = reference.optimize(sv)
        plan, memo = optimizer._search.optimize(sv)
        _assert_memo_matches(plan, memo, ref_plan, ref_memo, sv)
        searched.append((sv, optimizer.optimize(sv), ref_plan, ref_memo))
    _assert_bounded_matches(optimizer, searched, random.Random(len(template.name)))
    _assert_recost_matches_walk(
        optimizer.cost_model, (result.shrunken_memo for _, result, _, _ in searched),
        template.dimensions,
    )


def test_bounded_search_keeps_a_nested_loops_inner_dearer_than_the_plan():
    """``tpch_shipping_priority`` at the floor, on the request-latency
    benchmark's catalog: the optimum costs 125.76 and its naive
    nested-loops inner 159.37 over a 0.003-row outer, so "prune any
    subplan dearer than the incumbent" would lose the optimum.  The
    inner's own threshold, the cost model's inverse, keeps it; the
    naive threshold raises."""
    template = next(t for t in TEMPLATES if t.name == "tpch_shipping_priority")
    db = get_database(template.database, scale=1.0, seed=42)
    optimizer = QueryOptimizer(template, db.stats, db.estimator)
    sv = SelectivityVector.from_sequence([SELECTIVITY_FLOOR] * template.dimensions)
    ref_plan, ref_memo = ReferenceSearch(
        template, optimizer.card_model, optimizer.cost_model, db.stats.schema
    ).optimize(sv)
    root = ref_plan.root
    assert root.op is PhysicalOp.NESTED_LOOPS_JOIN
    assert (round(ref_plan.cost, 2), round(root.children[1].cost, 2)) == (125.76, 159.37)
    assert root.children[0].cardinality == pytest.approx(0.003)
    incumbent = optimizer.optimize(sv).shrunken_memo
    bound = optimizer.recost(incumbent, sv) * INCUMBENT_MARGIN
    plan, memo = optimizer._search.optimize(sv, bound)
    _assert_memo_matches(plan, memo, ref_plan, ref_memo, sv)
    # The bound did prune: some group kept fewer winners.
    assert sum(map(len, (g.winners for g in memo.groups.values()))) < sum(
        map(len, (g.winners for g in ref_memo.groups.values()))
    )

    naive = QueryOptimizer(template, db.stats, db.estimator, CostModel())
    naive.cost_model.nested_loops_inner_limit = lambda outer_rows, budget: budget
    with pytest.raises(RuntimeError, match="cost bound"):
        naive._search.optimize(sv, bound)


@pytest.fixture(scope="module")
def bounded_property_optimizers():
    return [
        QueryOptimizer(t, db.stats, db.estimator)
        for t in TEMPLATES
        if t.name in PROPERTY_TEMPLATES + ("tpch_shipping_priority", "tpcds_six_dim")
        for db in [get_database(t.database, scale=0.2, seed=5)]
    ]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_bounded_search_matches_unbounded_property(bounded_property_optimizers, data):
    """Any legal sVector, the optimum of any other as the incumbent: the
    bounded search answers as the unbounded one does."""
    optimizer = data.draw(st.sampled_from(bounded_property_optimizers))
    d = optimizer.template.dimensions
    sv, other = (
        SelectivityVector.from_sequence(
            data.draw(st.lists(coordinate, min_size=d, max_size=d))
        )
        for _ in range(2)
    )
    incumbent = optimizer.optimize(other).shrunken_memo
    plan, memo = optimizer._search.optimize(sv)
    bound = optimizer.recost(incumbent, sv) * INCUMBENT_MARGIN
    bounded_plan, bounded_memo = optimizer._search.optimize(sv, bound)
    _assert_memo_matches(bounded_plan, bounded_memo, plan, memo, sv)
