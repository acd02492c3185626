"""Reference Recost: the interpreted per-node walk over a shrunken memo.

``ShrunkenMemo.recost`` runs one function compiled per
(memo, cost model).  This module keeps the straight interpretation it
replaced — an ``if`` chain on the operator per node, one
``SelectivityVector.__getitem__`` per parameter and a uniform
``operator_cost`` dispatch into the cost model — so the equivalence
suites can hold the compiled function to it bit for bit.
"""

from __future__ import annotations

from repro.optimizer.cost_model import CostModel
from repro.optimizer.operators import PhysicalOp
from repro.optimizer.recost import ShrunkenMemo
from repro.query.instance import SelectivityVector

_MIN_CARD = 1e-6


def operator_cost(
    cost_model: CostModel,
    op: PhysicalOp,
    *,
    out_rows: float,
    table_rows: float = 0.0,
    outer_rows: float = 0.0,
    inner_rows: float = 0.0,
    inner_cost: float = 0.0,
    left_sorted: bool = False,
    right_sorted: bool = False,
    groups: float = 0.0,
) -> float:
    """Uniform dispatch over the operator vocabulary."""
    cm = cost_model
    if op is PhysicalOp.SEQ_SCAN:
        return cm.seq_scan(table_rows, out_rows)
    if op is PhysicalOp.INDEX_SCAN:
        return cm.index_scan(table_rows, out_rows)
    if op is PhysicalOp.NESTED_LOOPS_JOIN:
        return cm.nested_loops_join(outer_rows, inner_cost, out_rows)
    if op is PhysicalOp.INDEX_NESTED_LOOPS_JOIN:
        return cm.index_nested_loops_join(outer_rows, table_rows, out_rows)
    if op is PhysicalOp.HASH_JOIN:
        return cm.hash_join(outer_rows, inner_rows, out_rows)
    if op is PhysicalOp.MERGE_JOIN:
        return cm.merge_join(
            outer_rows, inner_rows, out_rows, left_sorted, right_sorted
        )
    if op is PhysicalOp.SORT:
        return cm.sort(outer_rows)
    if op is PhysicalOp.HASH_AGGREGATE:
        return cm.hash_aggregate(outer_rows, groups)
    if op is PhysicalOp.STREAM_AGGREGATE:
        return cm.stream_aggregate(outer_rows, groups)
    if op is PhysicalOp.SCALAR_AGGREGATE:
        return cm.scalar_aggregate(outer_rows)
    raise ValueError(f"unknown operator {op}")


def recost_walk(
    memo: ShrunkenMemo, sv: SelectivityVector, cost_model: CostModel
) -> float:
    """Cost of ``memo``'s plan at ``sv``, node by node."""
    cards = [0.0] * len(memo.nodes)
    costs = [0.0] * len(memo.nodes)
    for i, node in enumerate(memo.nodes):
        op = node.op
        if op.is_scan:
            card = node.base_rows * node.fixed_selectivity
            for p in node.param_indices:
                card *= sv[p]
            card = max(card, _MIN_CARD)
            cards[i] = card
            costs[i] = operator_cost(
                cost_model, op, out_rows=card, table_rows=node.base_rows
            )
        elif op is PhysicalOp.INDEX_NESTED_LOOPS_JOIN:
            outer_card = cards[node.child_a]
            inner_card = node.inner_base_rows * node.inner_fixed_selectivity
            for p in node.inner_param_indices:
                inner_card *= sv[p]
            inner_card = max(inner_card, _MIN_CARD)
            out = max(outer_card * inner_card * node.join_selectivity, _MIN_CARD)
            cards[i] = out
            costs[i] = (
                operator_cost(
                    cost_model,
                    op,
                    out_rows=out,
                    outer_rows=outer_card,
                    table_rows=node.inner_base_rows,
                )
                + costs[node.child_a]
            )
        elif op is PhysicalOp.NESTED_LOOPS_JOIN:
            outer_card = cards[node.child_a]
            inner_card = cards[node.child_b]
            out = max(outer_card * inner_card * node.join_selectivity, _MIN_CARD)
            cards[i] = out
            costs[i] = (
                operator_cost(
                    cost_model,
                    op,
                    out_rows=out,
                    outer_rows=outer_card,
                    inner_cost=costs[node.child_b],
                )
                + costs[node.child_a]
            )
        elif op is PhysicalOp.HASH_JOIN:
            probe_card = cards[node.child_a]
            build_card = cards[node.child_b]
            out = max(probe_card * build_card * node.join_selectivity, _MIN_CARD)
            cards[i] = out
            costs[i] = (
                operator_cost(
                    cost_model,
                    op,
                    out_rows=out,
                    outer_rows=build_card,
                    inner_rows=probe_card,
                )
                + costs[node.child_a]
                + costs[node.child_b]
            )
        elif op is PhysicalOp.MERGE_JOIN:
            l_card = cards[node.child_a]
            r_card = cards[node.child_b]
            out = max(l_card * r_card * node.join_selectivity, _MIN_CARD)
            cards[i] = out
            costs[i] = (
                operator_cost(
                    cost_model,
                    op,
                    out_rows=out,
                    outer_rows=l_card,
                    inner_rows=r_card,
                    left_sorted=node.left_sorted,
                    right_sorted=node.right_sorted,
                )
                + costs[node.child_a]
                + costs[node.child_b]
            )
        elif op is PhysicalOp.SORT:
            in_card = cards[node.child_a]
            cards[i] = in_card
            costs[i] = (
                operator_cost(
                    cost_model, op, out_rows=in_card, outer_rows=in_card
                )
                + costs[node.child_a]
            )
        elif op in (PhysicalOp.HASH_AGGREGATE, PhysicalOp.STREAM_AGGREGATE):
            in_card = cards[node.child_a]
            groups = max(1.0, min(node.group_distinct, in_card))
            cards[i] = groups
            costs[i] = (
                operator_cost(
                    cost_model, op, out_rows=groups, outer_rows=in_card,
                    groups=groups,
                )
                + costs[node.child_a]
            )
        elif op is PhysicalOp.SCALAR_AGGREGATE:
            in_card = cards[node.child_a]
            cards[i] = 1.0
            costs[i] = (
                operator_cost(cost_model, op, out_rows=1.0, outer_rows=in_card)
                + costs[node.child_a]
            )
        else:
            raise ValueError(f"cannot recost operator {op}")
    return costs[-1]
