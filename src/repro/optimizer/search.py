"""Dynamic-programming plan search over the memo.

A System-R-style bottom-up enumeration over connected sub-join-graphs
with bushy trees, multiple access paths, four join implementations and
interesting orders.  This is the expensive "optimizer call" that online
PQO tries to avoid; its cost relative to the Recost pass is exactly the
gap the paper exploits (up to two orders of magnitude in their SQL
Server implementation, measured for ours by the recost benchmark).

Every instance of a template shares one join graph, one set of logical
groups and one set of physical alternatives; only leaf cardinalities
differ.  The search is therefore split in two:

* the **skeleton**, built once in ``__init__``: per base table its index
  access paths, and per connected join subset its partitions with their
  edges, folded join selectivity, both role orientations' join columns
  and index-nested-loops eligibility;
* the **per-instance pass** (:meth:`PlanSearch.optimize`), which only
  propagates cardinalities and costs through the skeleton.  It prices
  every alternative first and builds a ``PlanNode`` for the winner of
  each (group, order) only.

The pass replays the offer sequence of the straight-line enumeration
(``tests/reference_search.py``) with the same IEEE-754 operation order,
because the memo's tie-breaks are first-offer-wins: a reordered or
re-associated sum can flip a tie, pick a different plan and move every
paper figure.  ``tests/test_search_equivalence.py`` holds the two
bit-identical over every template.
"""

from __future__ import annotations

from itertools import combinations
from math import inf
from typing import Optional

from ..query.expressions import JoinEdge
from ..query.instance import SelectivityVector
from ..query.template import AggregationKind, QueryTemplate
from .cardinality import BaseTableInfo, CardinalityModel
from .cost_model import CostModel
from .memo import GroupWinner, Memo, MemoGroup
from .operators import PhysicalOp
from .plans import PhysicalPlan, PlanNode

#: One input alternative of a join: ``(order, plan, cardinality, cost)``.
_Option = tuple[Optional[str], PlanNode, float, float]
#: One role assignment of a partition: ``(outer group, inner group,
#: outer column, inner column, INLJ inner (table info, column) or None)``.
_Role = tuple[int, int, str, str, Optional[tuple[BaseTableInfo, str]]]
#: One partition of a join subset: ``(left group, right group, connecting
#: edges, folded join selectivity, both roles)``.
_Partition = tuple[int, int, list[JoinEdge], float, tuple[_Role, _Role]]


class PlanSearch:
    """One plan search: template + cardinality model + cost model."""

    def __init__(
        self, template: QueryTemplate, card_model: CardinalityModel,
        cost_model: CostModel, schema,
    ) -> None:
        self.template = template
        self.cards = card_model
        self.costs = cost_model
        self.schema = schema
        self._build_skeleton()

    def optimize(self, sv: SelectivityVector) -> tuple[PhysicalPlan, Memo]:
        """Find the cheapest plan for the instance with sVector ``sv``."""
        memo = Memo()
        # Index-aligned with the skeleton's group numbering.
        groups: list[MemoGroup] = []
        options: list[list[_Option]] = []
        for subset, info, index_keys in self._base:
            group = memo.group(subset)
            self._seed_base_group(group, info, index_keys, sv)
            groups.append(group)
            options.append(self._options(group))
        for subset, partitions in self._joins:
            group = memo.group(subset)
            self._expand_group(group, partitions, groups, options)
            groups.append(group)
            options.append(self._options(group))
        root = self._finalize(options[-1])
        return PhysicalPlan(root=root, template_name=self.template.name), memo

    # -- skeleton (once per template) --------------------------------------

    def _build_skeleton(self) -> None:
        template, schema = self.template, self.schema
        # Groups are numbered in memo insertion order: base tables first,
        # then connected subsets bottom-up by size.
        group_of: dict[frozenset[str], int] = {}
        self._base: list[tuple[frozenset[str], BaseTableInfo, list[tuple[str, str]]]] = []
        for table in template.tables:
            # Index scans: one per indexed predicate column, then one per
            # indexed join column (a sorted access path even without a
            # filtering predicate).  Duplicates stay: each is an offer.
            columns = [p.column.column for p in template.predicates_on(table)]
            columns += [p.column.column for p in template.fixed_on(table)]
            columns += [
                ref.column for edge in template.joins
                for ref in (edge.left, edge.right) if ref.table == table
            ]
            subset = frozenset([table])
            group_of[subset] = len(group_of)
            self._base.append((
                subset,
                self.cards.base_info(table),
                [(c, f"{table}.{c}") for c in columns if schema.has_index(table, c)],
            ))
        self._joins: list[tuple[frozenset[str], list[_Partition]]] = []
        for size in range(2, len(template.tables) + 1):
            for combo in combinations(template.tables, size):
                subset = frozenset(combo)
                if self._connected(subset):
                    self._joins.append((subset, self._partitions(subset, group_of)))
                    group_of[subset] = len(group_of)

    def _partitions(
        self, subset: frozenset[str], group_of: dict[frozenset[str], int]
    ) -> list[_Partition]:
        """Partitions (S1, S2) of ``subset`` into two joinable groups.

        Proper non-empty subsets containing the first member halve the
        work; both physical role assignments hang off each partition.
        """
        first, *rest = sorted(subset)
        partitions: list[_Partition] = []
        for r in range(len(rest)):
            for extra in combinations(rest, r):
                left = frozenset([first, *extra])
                right = subset - left
                if left not in group_of or right not in group_of:
                    continue
                edges = self.template.join_edges_between(left, right)
                if not edges:
                    continue
                # Residual edges multiply into the node's join selectivity.
                join_sel = 1.0
                for edge in edges:
                    join_sel *= self.cards.join_selectivity(edge)
                roles = (
                    self._role(edges[0], left, right, group_of),
                    self._role(edges[0], right, left, group_of),
                )
                partitions.append(
                    (group_of[left], group_of[right], edges, join_sel, roles)
                )
        return partitions

    def _role(
        self, primary: JoinEdge, outer: frozenset[str], inner: frozenset[str],
        group_of: dict[frozenset[str], int],
    ) -> _Role:
        if primary.left.table in outer:
            outer_ref, inner_ref = primary.left, primary.right
        else:
            outer_ref, inner_ref = primary.right, primary.left
        # Index nested loops: inner must be a single indexed base table.
        inlj = None
        if len(inner) == 1 and self.schema.has_index(inner_ref.table, inner_ref.column):
            inlj = (self.cards.base_info(inner_ref.table), inner_ref.column)
        return group_of[outer], group_of[inner], str(outer_ref), str(inner_ref), inlj

    def _connected(self, subset: frozenset[str]) -> bool:
        adjacency: dict[str, set[str]] = {t: set() for t in subset}
        for e in self.template.joins:
            a, b = e.tables()
            if a in subset and b in subset:
                adjacency[a].add(b)
                adjacency[b].add(a)
        start = next(iter(subset))
        seen = {start}
        frontier = [start]
        while frontier:
            node = frontier.pop()
            for nxt in adjacency[node]:
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return len(seen) == len(subset)

    # -- per-instance pass -------------------------------------------------

    def _seed_base_group(
        self, group: MemoGroup, info: BaseTableInfo,
        index_keys: list[tuple[str, str]], sv: SelectivityVector,
    ) -> None:
        card = info.cardinality(sv)
        group.cardinality = card
        group.expressions_considered = 1 + len(index_keys)
        seq_cost = self.costs.seq_scan(info.rows, card)
        group.winners[None] = GroupWinner(
            self._scan(PhysicalOp.SEQ_SCAN, info, None, card, seq_cost), seq_cost
        )
        if index_keys:
            # Every index scan of the table costs the same, so the first
            # offer per column wins.  Its output is sorted by the index
            # column — an interesting order.
            index_cost = self.costs.index_scan(info.rows, card)
            for column, key in index_keys:
                if key not in group.winners:
                    group.winners[key] = GroupWinner(
                        self._scan(
                            PhysicalOp.INDEX_SCAN, info, column, card, index_cost
                        ),
                        index_cost,
                    )

    @staticmethod
    def _scan(
        op: PhysicalOp, info: BaseTableInfo, column: Optional[str],
        card: float, cost: float,
    ) -> PlanNode:
        return PlanNode(
            op=op,
            table=info.table,
            index_column=column,
            param_indices=info.param_indices,
            fixed_selectivity=info.fixed_selectivity,
            base_rows=info.rows,
            cardinality=card,
            cost=cost,
        )

    @staticmethod
    def _options(group: MemoGroup) -> list[_Option]:
        """The finished group's winners as join inputs, in winner order.

        Entry 0 is the ``None`` order (always the first key: the seq scan
        and the hash join are offered first) and carries the overall
        cheapest plan — an ordered plan satisfies an unordered
        requirement.  The reference's trailing ``(None, best)`` merge
        input is that same plan with the same sortedness, so it can never
        strictly beat entry 0; it is counted, not priced.
        """
        best = group.best(None)
        options = [
            (order, w.plan, w.plan.cardinality, w.cost)
            for order, w in group.winners.items()
        ]
        options[0] = (None, best.plan, best.plan.cardinality, best.cost)
        return options

    def _expand_group(
        self, group: MemoGroup, partitions: list[_Partition],
        groups: list[MemoGroup], options: list[list[_Option]],
    ) -> None:
        """Price every join alternative of one group, then build winners.

        ``found`` maps an order key to its cheapest alternative so far,
        ``(cost, op, outer plan, inner plan, role, out_card, join_sel,
        left_sorted, right_sorted)``.  Keys enter it at their first
        offer, which is the reference's winner-dict order.
        """
        costs = self.costs
        found: dict[Optional[str], tuple] = {}
        none_cost = inf
        considered = 0
        for left, right, edges, join_sel, roles in partitions:
            out_card = self.cards.join_cardinality(
                groups[left].cardinality, groups[right].cardinality, edges
            )
            if group.cardinality == 0.0:
                group.cardinality = out_card
            # merge_join is a pure function of five numbers that take a
            # handful of distinct values per partition.
            merge_costs: dict[tuple, float] = {}
            for role in roles:
                outer, inner, outer_col, inner_col, inlj = role
                louts, routs = options[outer], options[inner]
                _, oplan, ocard, ocost = louts[0]
                _, iplan, icard, icost = routs[0]
                # Unordered alternatives: hash join (builds on the inner
                # side), index nested loops, naive nested loops.
                unordered = [(
                    PhysicalOp.HASH_JOIN,
                    costs.hash_join(icard, ocard, out_card) + ocost + icost,
                )]
                if inlj is not None:
                    unordered.append((
                        PhysicalOp.INDEX_NESTED_LOOPS_JOIN,
                        costs.index_nested_loops_join(ocard, inlj[0].rows, out_card)
                        + ocost,
                    ))
                unordered.append((
                    PhysicalOp.NESTED_LOOPS_JOIN,
                    costs.nested_loops_join(ocard, icost, out_card) + ocost,
                ))
                for op, cost in unordered:
                    if cost < none_cost:
                        none_cost = cost
                        found[None] = (cost, op, oplan, iplan, role, out_card,
                                       join_sel, False, False)
                considered += len(unordered) + (len(louts) + 1) * (len(routs) + 1)

                # Merge join over every combination of available input
                # orders; its output is ordered by the join columns.
                current = found.get(outer_col)
                best_cost = inf if current is None else current[0]
                best = None
                for l_order, lplan, lcard, lcost in louts:
                    l_sorted = l_order == outer_col
                    for r_order, rplan, rcard, rcost in routs:
                        r_sorted = r_order == inner_col
                        key = (lcard, l_sorted, rcard, r_sorted)
                        cost = merge_costs.get(key)
                        if cost is None:
                            cost = merge_costs[key] = costs.merge_join(
                                lcard, rcard, out_card, l_sorted, r_sorted
                            )
                        cost = cost + lcost + rcost
                        if cost < best_cost:
                            best_cost = cost
                            best = (lplan, rplan, l_sorted, r_sorted)
                if best is not None:
                    found[outer_col] = (
                        best_cost, PhysicalOp.MERGE_JOIN, best[0], best[1],
                        role, out_card, join_sel, best[2], best[3],
                    )
        group.expressions_considered = considered
        for order, alternative in found.items():
            group.winners[order] = GroupWinner(self._join_node(alternative), alternative[0])

    def _join_node(self, alternative: tuple) -> PlanNode:
        cost, op, outer, inner, role, out_card, join_sel, l_sorted, r_sorted = alternative
        _, _, outer_col, inner_col, inlj = role
        node = PlanNode(
            op=op,
            children=[outer, inner],
            join_left_column=outer_col,
            join_right_column=inner_col,
            join_selectivity=join_sel,
            left_sorted=l_sorted,
            right_sorted=r_sorted,
            cardinality=out_card,
            cost=cost,
        )
        if op is PhysicalOp.INDEX_NESTED_LOOPS_JOIN:
            # The inner side of an INLJ is probed, not scanned: its
            # cardinality/cost are folded into the join cost function, so
            # the leaf node carries zero cumulative cost of its own.
            info, column = inlj
            node.children[1] = self._scan(PhysicalOp.INDEX_SCAN, info, column, 0.0, 0.0)
            node.table = info.table
            node.index_column = column
        return node

    # -- root operators ---------------------------------------------------

    def _finalize(self, candidates: list[_Option]) -> PlanNode:
        """Apply aggregation / order-by on top of the full join group's
        winners (never empty: every group has its ``None`` entry)."""
        template = self.template
        best_root: Optional[PlanNode] = None
        for order, node, _, _ in candidates:
            if template.aggregation is AggregationKind.GROUP_BY:
                node = self._aggregate(node, order)
            elif template.aggregation is AggregationKind.COUNT:
                node = PlanNode(
                    op=PhysicalOp.SCALAR_AGGREGATE,
                    children=[node],
                    cardinality=1.0,
                    cost=self.costs.scalar_aggregate(node.cardinality) + node.cost,
                )
            if template.order_by is not None:
                want = f"{template.order_by.table}.{template.order_by.column}"
                produced = order if template.aggregation is AggregationKind.NONE else None
                if produced != want:
                    node = PlanNode(
                        op=PhysicalOp.SORT,
                        children=[node],
                        sort_column=want,
                        cardinality=node.cardinality,
                        cost=self.costs.sort(node.cardinality) + node.cost,
                    )
            if best_root is None or node.cost < best_root.cost:
                best_root = node
        return best_root

    def _aggregate(self, plan: PlanNode, order: Optional[str]) -> PlanNode:
        template = self.template
        gb = template.group_by
        group_key = f"{gb.table}.{gb.column}"
        groups = self.cards.group_count(gb.table, gb.column, plan.cardinality)
        if order == group_key:
            cost = self.costs.stream_aggregate(plan.cardinality, groups)
            op = PhysicalOp.STREAM_AGGREGATE
        else:
            cost = self.costs.hash_aggregate(plan.cardinality, groups)
            op = PhysicalOp.HASH_AGGREGATE
        distinct = float(self.cards.stats.column(gb.table, gb.column).distinct_count)
        return PlanNode(
            op=op,
            children=[plan],
            group_column=group_key,
            group_distinct=distinct,
            cardinality=groups,
            cost=cost + plan.cost,
        )
