"""Reference plan search: the straight-line enumeration, kept as an oracle.

This is the System-R-style search exactly as ``repro.optimizer.search``
shipped it before the per-template skeleton: every call re-derives the
connected subsets and partitions, and builds a ``PlanNode`` for every
alternative before offering it to the memo.  It is slow and obviously
right, which is what ``test_search_equivalence.py`` needs: the
production search must reproduce this one's memo bit for bit.
"""

from __future__ import annotations

from itertools import combinations
from typing import Optional

from repro.query.expressions import JoinEdge
from repro.query.instance import SelectivityVector
from repro.query.template import AggregationKind, QueryTemplate
from repro.optimizer.cardinality import CardinalityModel
from repro.optimizer.cost_model import CostModel
from repro.optimizer.memo import Memo, MemoGroup
from repro.optimizer.operators import PhysicalOp
from repro.optimizer.plans import PhysicalPlan, PlanNode


class PlanSearch:
    """One plan search: template + cardinality model + cost model."""

    def __init__(
        self,
        template: QueryTemplate,
        card_model: CardinalityModel,
        cost_model: CostModel,
        schema,
    ) -> None:
        self.template = template
        self.cards = card_model
        self.costs = cost_model
        self.schema = schema

    def optimize(self, sv: SelectivityVector) -> tuple[PhysicalPlan, Memo]:
        """Find the cheapest plan for the instance with sVector ``sv``."""
        memo = Memo()
        self._seed_base_groups(memo, sv)
        self._enumerate_joins(memo, sv)
        full = frozenset(self.template.tables)
        group = memo.group(full)
        root = self._finalize(group, sv)
        if root is None:
            raise RuntimeError(
                f"plan search failed for template {self.template.name}"
            )
        return PhysicalPlan(root=root, template_name=self.template.name), memo

    # -- base access paths -------------------------------------------------

    def _seed_base_groups(self, memo: Memo, sv: SelectivityVector) -> None:
        for table in self.template.tables:
            info = self.cards.base_info(table)
            card = info.cardinality(sv)
            group = memo.group(frozenset([table]))
            group.cardinality = card

            seq = PlanNode(
                op=PhysicalOp.SEQ_SCAN,
                table=table,
                param_indices=info.param_indices,
                fixed_selectivity=info.fixed_selectivity,
                base_rows=info.rows,
                cardinality=card,
                cost=self.costs.seq_scan(info.rows, card),
            )
            group.offer(None, seq)

            # Index scans: one per indexed predicate column.  Output is
            # sorted by the index column — an interesting order.
            for pred in self.template.predicates_on(table):
                if self.schema.has_index(table, pred.column.column):
                    self._offer_index_scan(group, info, card, pred.column.column)
            for pred in self.template.fixed_on(table):
                if self.schema.has_index(table, pred.column.column):
                    self._offer_index_scan(group, info, card, pred.column.column)
            # Index on a join column enables a sorted access path even
            # without a filtering predicate on that column.
            for edge in self.template.joins:
                for ref in (edge.left, edge.right):
                    if ref.table == table and self.schema.has_index(table, ref.column):
                        self._offer_index_scan(group, info, card, ref.column)

    def _offer_index_scan(
        self, group: MemoGroup, info, card: float, column: str
    ) -> None:
        node = PlanNode(
            op=PhysicalOp.INDEX_SCAN,
            table=info.table,
            index_column=column,
            param_indices=info.param_indices,
            fixed_selectivity=info.fixed_selectivity,
            base_rows=info.rows,
            cardinality=card,
            cost=self.costs.index_scan(info.rows, card),
        )
        group.offer(f"{info.table}.{column}", node)

    # -- join enumeration ----------------------------------------------------

    def _enumerate_joins(self, memo: Memo, sv: SelectivityVector) -> None:
        tables = self.template.tables
        n = len(tables)
        if n == 1:
            return
        # Bottom-up over subset sizes; only connected subsets get groups.
        for size in range(2, n + 1):
            for combo in combinations(tables, size):
                subset = frozenset(combo)
                edges_inside = self._internal_edges(subset)
                if not self._connected(subset, edges_inside):
                    continue
                group = memo.group(subset)
                self._expand_group(memo, group, subset, sv)

    def _expand_group(
        self,
        memo: Memo,
        group: MemoGroup,
        subset: frozenset[str],
        sv: SelectivityVector,
    ) -> None:
        members = sorted(subset)
        # Enumerate partitions (S1, S2); iterate proper non-empty subsets
        # containing the first member to halve the work, then consider
        # both (S1 join S2) and (S2 join S1) physical role assignments.
        rest = [t for t in members[1:]]
        first = members[0]
        for r in range(0, len(rest)):
            for extra in combinations(rest, r):
                left = frozenset([first, *extra])
                right = subset - left
                if not right:
                    continue
                if not memo.has_group(left) or not memo.has_group(right):
                    continue
                edges = self.template.join_edges_between(left, right)
                if not edges:
                    continue
                self._offer_joins(memo, group, left, right, edges, sv)

    def _offer_joins(
        self,
        memo: Memo,
        group: MemoGroup,
        left: frozenset[str],
        right: frozenset[str],
        edges: list[JoinEdge],
        sv: SelectivityVector,
    ) -> None:
        lgroup = memo.group(left)
        rgroup = memo.group(right)
        out_card = self.cards.join_cardinality(
            lgroup.cardinality, rgroup.cardinality,
            [self.cards.join_selectivity(edge) for edge in edges],
        )
        if group.cardinality == 0.0:
            group.cardinality = out_card
        primary = edges[0]
        # Residual edges multiply into the join selectivity of the node.
        join_sel = 1.0
        for edge in edges:
            join_sel *= self.cards.join_selectivity(edge)

        for outer_set, inner_set, outer_grp, inner_grp in (
            (left, right, lgroup, rgroup),
            (right, left, rgroup, lgroup),
        ):
            outer_col, inner_col = self._orient(primary, outer_set)
            outer_best = outer_grp.best(None)
            inner_best = inner_grp.best(None)
            if outer_best is None or inner_best is None:
                continue

            self._offer_hash_join(
                group, outer_best, inner_best, outer_col, inner_col,
                join_sel, out_card,
            )
            self._offer_index_nlj(
                group, inner_set, outer_best, outer_col, inner_col,
                join_sel, out_card,
            )
            self._offer_naive_nlj(
                group, outer_best, inner_best, outer_col, inner_col,
                join_sel, out_card,
            )
            self._offer_merge_join(
                group, outer_grp, inner_grp, outer_col, inner_col,
                join_sel, out_card,
            )

    def _offer_hash_join(
        self, group, outer_best, inner_best, outer_col, inner_col, join_sel, out_card
    ) -> None:
        """Hash join: build on the (designated) inner side."""
        build = inner_best.plan
        probe = outer_best.plan
        cost = self.costs.hash_join(build.cardinality, probe.cardinality, out_card)
        node = PlanNode(
            op=PhysicalOp.HASH_JOIN,
            children=[probe, build],
            join_left_column=outer_col,
            join_right_column=inner_col,
            join_selectivity=join_sel,
            cardinality=out_card,
            cost=cost + probe.cost + build.cost,
        )
        group.offer(None, node)

    def _offer_index_nlj(
        self, group, inner_set, outer_best, outer_col, inner_col, join_sel, out_card
    ) -> None:
        """Index nested loops: inner must be a single indexed base table."""
        if len(inner_set) != 1:
            return
        inner_table = next(iter(inner_set))
        inner_column = inner_col.split(".", 1)[1]
        if not self.schema.has_index(inner_table, inner_column):
            return
        info = self.cards.base_info(inner_table)
        outer = outer_best.plan
        # The inner side of an INLJ is probed, not scanned: its
        # cardinality/cost are folded into the join cost function, so the
        # leaf node carries zero cumulative cost of its own.
        inner_leaf = PlanNode(
            op=PhysicalOp.INDEX_SCAN,
            table=inner_table,
            index_column=inner_column,
            param_indices=info.param_indices,
            fixed_selectivity=info.fixed_selectivity,
            base_rows=info.rows,
            cardinality=0.0,
            cost=0.0,
        )
        cost = self.costs.index_nested_loops_join(
            outer.cardinality, info.rows, out_card
        )
        node = PlanNode(
            op=PhysicalOp.INDEX_NESTED_LOOPS_JOIN,
            children=[outer, inner_leaf],
            table=inner_table,
            index_column=inner_column,
            join_left_column=outer_col,
            join_right_column=inner_col,
            join_selectivity=join_sel,
            cardinality=out_card,
            cost=cost + outer.cost,
        )
        group.offer(None, node)

    def _offer_naive_nlj(
        self, group, outer_best, inner_best, outer_col, inner_col, join_sel, out_card
    ) -> None:
        outer = outer_best.plan
        inner = inner_best.plan
        cost = self.costs.nested_loops_join(outer.cardinality, inner.cost, out_card)
        node = PlanNode(
            op=PhysicalOp.NESTED_LOOPS_JOIN,
            children=[outer, inner],
            join_left_column=outer_col,
            join_right_column=inner_col,
            join_selectivity=join_sel,
            cardinality=out_card,
            cost=cost + outer.cost,
        )
        group.offer(None, node)

    def _offer_merge_join(
        self, group, outer_grp, inner_grp, outer_col, inner_col, join_sel, out_card
    ) -> None:
        """Merge join over every combination of available input orders."""
        for l_order in outer_grp.orders() + [None]:
            for r_order in inner_grp.orders() + [None]:
                lwin = outer_grp.best(l_order)
                rwin = inner_grp.best(r_order)
                if lwin is None or rwin is None:
                    continue
                lplan, rplan = lwin.plan, rwin.plan
                l_sorted = l_order == outer_col
                r_sorted = r_order == inner_col
                cost = self.costs.merge_join(
                    lplan.cardinality, rplan.cardinality, out_card,
                    l_sorted, r_sorted,
                )
                node = PlanNode(
                    op=PhysicalOp.MERGE_JOIN,
                    children=[lplan, rplan],
                    join_left_column=outer_col,
                    join_right_column=inner_col,
                    join_selectivity=join_sel,
                    left_sorted=l_sorted,
                    right_sorted=r_sorted,
                    cardinality=out_card,
                    cost=cost + lplan.cost + rplan.cost,
                )
                # Merge join output is ordered by the join columns.
                group.offer(outer_col, node)

    # -- root operators ---------------------------------------------------

    def _finalize(self, group: MemoGroup, sv: SelectivityVector) -> Optional[PlanNode]:
        """Apply aggregation / order-by on top of the full join group."""
        template = self.template
        best_root: Optional[PlanNode] = None

        candidates: list[tuple[Optional[str], PlanNode]] = []
        for order in group.orders():
            winner = group.best(order)
            if winner is not None:
                candidates.append((order, winner.plan))
        overall = group.best(None)
        if overall is not None and (None, overall.plan) not in candidates:
            candidates.append((None, overall.plan))

        for order, plan in candidates:
            node = plan
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
        distinct = float(
            self.cards.stats.column(gb.table, gb.column).distinct_count
        )
        return PlanNode(
            op=op,
            children=[plan],
            group_column=group_key,
            group_distinct=distinct,
            cardinality=groups,
            cost=cost + plan.cost,
        )

    # -- helpers ----------------------------------------------------------

    def _internal_edges(self, subset: frozenset[str]) -> list[JoinEdge]:
        return [
            e
            for e in self.template.joins
            if e.left.table in subset and e.right.table in subset
        ]

    def _connected(self, subset: frozenset[str], edges: list[JoinEdge]) -> bool:
        if len(subset) <= 1:
            return True
        adjacency: dict[str, set[str]] = {t: set() for t in subset}
        for e in edges:
            a, b = e.tables()
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

    @staticmethod
    def _orient(edge: JoinEdge, outer_set: frozenset[str]) -> tuple[str, str]:
        """Return (outer_column, inner_column) qualified names."""
        if edge.left.table in outer_set:
            return str(edge.left), str(edge.right)
        return str(edge.right), str(edge.left)
