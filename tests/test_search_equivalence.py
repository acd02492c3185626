"""Differential oracle for the plan search.

``repro.optimizer.search`` builds a per-template skeleton once and, per
instance, prices alternatives before constructing nodes.  This suite
holds it bit-identical to the straight-line enumeration it replaced
(``reference_search.py``): same memo groups in the same order, same
cardinalities and expression counts, same winner keys in the same order,
same winning plan trees down to the last float, and therefore the same
``OptimizationResult`` — over every template of every catalog, seeded
random sVectors plus the boundary vectors.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from reference_search import PlanSearch as ReferenceSearch
from repro.catalog.registry import get_database
from repro.optimizer.optimizer import QueryOptimizer
from repro.optimizer.recost import shrink
from repro.query.instance import SELECTIVITY_FLOOR, SelectivityVector
from repro.workload.templates import (
    rd1_templates,
    rd2_templates,
    tpcds_templates,
    tpch_templates,
)

TEMPLATES = tpch_templates() + tpcds_templates() + rd1_templates() + rd2_templates()
RANDOM_VECTORS = 200


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


@pytest.mark.parametrize("template", TEMPLATES, ids=lambda t: t.name)
def test_search_matches_reference(template):
    db = get_database(template.database, scale=0.2, seed=5)
    optimizer = QueryOptimizer(template, db.stats, db.estimator)
    reference = ReferenceSearch(
        template, optimizer.card_model, optimizer.cost_model, db.stats.schema
    )
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
