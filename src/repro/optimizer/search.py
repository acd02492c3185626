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
  every alternative first, records the winner of each (group, order)
  and builds ``PlanNode`` objects only for the plan it returns.

The pass replays the offer sequence of the straight-line enumeration
(``tests/reference_search.py``) with the same IEEE-754 operation order,
because the memo's tie-breaks are first-offer-wins: a reordered or
re-associated sum can flip a tie, pick a different plan and move every
paper figure.  ``tests/test_search_equivalence.py`` holds the two
bit-identical over every template.

Given a cost ``bound`` no lower than the optimum's, the pass is a sound
branch-and-bound with the same answer: cardinalities, a per-group
threshold τ propagated top-down from ``bound``, then costing that drops
every alternative dearer than its group's τ (DESIGN.md §7).
"""

from __future__ import annotations

from itertools import combinations
from math import inf, nextafter
from typing import Optional

from ..query.expressions import JoinEdge
from ..query.instance import SelectivityVector
from ..query.template import AggregationKind, QueryTemplate
from .cardinality import BaseTableInfo, CardinalityModel
from .cost_model import CostModel
from .memo import GroupWinner, Memo, MemoGroup
from .operators import PhysicalOp
from .plans import PhysicalPlan, PlanNode

#: One input alternative of a join: ``(order, winner, cardinality, cost)``.
_Option = tuple[Optional[str], GroupWinner, float, float]
#: One role assignment of a partition: ``(outer group, inner group,
#: outer column, inner column, INLJ inner (table info, column) or None)``.
_Role = tuple[int, int, str, str, Optional[tuple[BaseTableInfo, str]]]
#: One partition of a join subset: ``(left group, right group, the
#: connecting edges' selectivities in edge order, folded join
#: selectivity, both roles)``.
_Partition = tuple[int, int, tuple[float, ...], float, tuple[_Role, _Role]]
#: The options of a group a bounded pass kept no plan of (joins on it cost inf).
_NO_INPUT: _Option = (None, None, 0.0, inf)


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

    def optimize(
        self, sv: SelectivityVector, bound: float = inf
    ) -> tuple[PhysicalPlan, Memo]:
        """Find the cheapest plan for the instance with sVector ``sv``;
        a ``bound`` below the winner's cost raises (a cost model that
        breaks the pruning's contract)."""
        memo = Memo()
        # Index-aligned with the skeleton's group numbering.
        groups = [memo.group(subset) for subset in self._subsets]
        for group, considered in zip(groups, self._considered):
            group.expressions_considered = considered
        for group, (_, info, _) in zip(groups, self._base):
            group.cardinality = info.cardinality(sv)
        # Each partition's output cardinality; the first is its group's.
        nbase = len(self._base)
        out_cards: list[list[float]] = []
        for group, (_, partitions) in zip(groups[nbase:], self._joins):
            cards = [
                self.cards.join_cardinality(
                    groups[left].cardinality, groups[right].cardinality, sels
                )
                for left, right, sels, _, _ in partitions
            ]
            group.cardinality = cards[0]
            out_cards.append(cards)
        tau = [inf] * len(groups)
        if bound < inf:
            tau = self._thresholds(groups, out_cards, bound)
        options: list[list[_Option]] = []
        for group, (_, info, index_keys) in zip(groups, self._base):
            self._seed_base_group(group, info, index_keys)
            options.append(self._options(group))
        for i, ((_, partitions), cards) in enumerate(zip(self._joins, out_cards), nbase):
            self._expand_group(
                groups[i], partitions, cards, self._keys[i], options, tau[i]
            )
            options.append(self._options(groups[i]))
        root = None if options[-1][0] is _NO_INPUT else self._finalize(options[-1])
        if root is None or root.cost > bound:
            raise RuntimeError(
                f"{self.template.name}: no plan within the cost bound {bound!r}; "
                "the cost model breaks the bounded search's contract"
            )
        return PhysicalPlan(root=root, template_name=self.template.name), memo

    def _thresholds(
        self, groups: list[MemoGroup], out_cards: list[list[float]], bound: float
    ) -> list[float]:
        """τ per group: its dearest plan that can be part of a plan
        costing at most ``bound``, the largest any of its uses allows.

        Operators' own costs are ≥ 0, so an outer and a hash or merge
        inner inherit their parent's τ.  A nested-loops inner can cost
        more than its join, so it gets the cost model's inverse at the
        outer's smallest cardinality over its partitions.
        """
        nbase = len(self._base)
        floor = [g.cardinality for g in groups[:nbase]] + [min(c) for c in out_cards]
        limit = self.costs.nested_loops_inner_limit
        tau = [-inf] * len(groups)
        tau[-1] = bound
        for i in range(len(groups) - 1, nbase - 1, -1):
            t = tau[i]
            for outer, inner in self._uses[i - nbase]:
                if t > tau[outer]:
                    tau[outer] = t
                inner_tau = max(t, limit(floor[outer], t))
                if inner_tau > tau[inner]:
                    tau[inner] = inner_tau
        return tau

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
        self._subsets = list(group_of)
        # Structural, per group: its winner keys in first-offer order (a
        # join group's are None, then each role's outer column, its merge
        # join's order) and the expressions a search considers (a join
        # role's unordered joins and every merge-input pair, including
        # the reference's trailing (None, best) on each side).  Per join
        # group, the (outer, inner) groups of its roles.
        self._keys = [[None, *dict.fromkeys(k for _, k in keys)] for *_, keys in self._base]
        self._considered = [1 + len(keys) for *_, keys in self._base]
        self._uses: list[list[tuple[int, int]]] = []
        for _, partitions in self._joins:
            roles = [role for *_, both in partitions for role in both]
            self._uses.append([(outer, inner) for outer, inner, *_ in roles])
            self._keys.append([None, *dict.fromkeys(role[2] for role in roles)])
            self._considered.append(sum(
                (3 if inlj else 2) + (len(self._keys[o]) + 1) * (len(self._keys[i]) + 1)
                for o, i, _, _, inlj in roles
            ))

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
                sels = tuple(self.cards.join_selectivity(e) for e in edges)
                join_sel = 1.0
                for sel in sels:
                    join_sel *= sel
                roles = (
                    self._role(edges[0], left, right, group_of),
                    self._role(edges[0], right, left, group_of),
                )
                partitions.append(
                    (group_of[left], group_of[right], sels, join_sel, roles)
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
        index_keys: list[tuple[str, str]],
    ) -> None:
        card = group.cardinality
        seq_cost = self.costs.seq_scan(info.rows, card)
        group.winners[None] = GroupWinner(
            seq_cost, card, (_scan, PhysicalOp.SEQ_SCAN, info, None, card, seq_cost)
        )
        if index_keys:
            # Every index scan of the table costs the same, so the first
            # offer per column wins.  Its output is sorted by the index
            # column — an interesting order.
            index_cost = self.costs.index_scan(info.rows, card)
            for column, key in index_keys:
                if key not in group.winners:
                    group.winners[key] = GroupWinner(index_cost, card, (
                        _scan, PhysicalOp.INDEX_SCAN, info, column, card, index_cost
                    ))

    @staticmethod
    def _options(group: MemoGroup) -> list[_Option]:
        """The finished group's winners as join inputs, in winner order
        (``[_NO_INPUT]`` when a bounded pass kept none).

        Entry 0 is the ``None`` order and carries the overall cheapest
        plan — an ordered plan satisfies an unordered requirement.  The
        reference's trailing ``(None, best)`` merge input is that same
        plan with the same sortedness, so it can never strictly beat
        entry 0; it is counted, not priced.
        """
        best = group.best(None)
        if best is None:
            return [_NO_INPUT]
        options = [
            (order, w, w.cardinality, w.cost) for order, w in group.winners.items()
        ]
        entry = (None, best, best.cardinality, best.cost)
        if options[0][0] is None:
            options[0] = entry
        else:  # a bounded pass dropped the None order's winner
            options.insert(0, entry)
        return options

    def _expand_group(
        self, group: MemoGroup, partitions: list[_Partition],
        out_cards: list[float], keys: list[Optional[str]],
        options: list[list[_Option]], tau: float,
    ) -> None:
        """Price the join alternatives of one group, then record winners.

        ``found`` maps an order key to its cheapest alternative so far,
        ``(cost, op, outer winner, inner winner, role, out_card,
        join_sel, left_sorted, right_sorted)``; only alternatives costing
        at most ``tau`` enter it.  Winners are recorded in ``keys`` order,
        the reference's winner-dict order, as their alternatives.
        """
        costs = self.costs
        found: dict[Optional[str], tuple] = {}
        # An alternative is kept iff its cost is below ``cap``: ≤ tau.
        cap = none_cost = nextafter(tau, inf)
        for (_, _, _, join_sel, roles), out_card in zip(partitions, out_cards):
            # merge_join is a pure function of five numbers that take a
            # handful of distinct values per partition.
            merge_costs: dict[tuple, float] = {}
            for role in roles:
                outer, inner, outer_col, inner_col, inlj = role
                louts, routs = options[outer], options[inner]
                # Every alternative of the role costs at least its
                # outer's cheapest plan.
                if louts[0][3] > tau:
                    continue
                _, owin, ocard, ocost = louts[0]
                _, iwin, icard, icost = routs[0]
                # Unordered alternatives: hash join (builds on the inner
                # side; it costs at least its inputs), index nested
                # loops, naive nested loops.
                unordered = [(
                    PhysicalOp.HASH_JOIN,
                    costs.hash_join(icard, ocard, out_card) + ocost + icost,
                )] if ocost + icost <= tau else []
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
                        found[None] = (cost, op, owin, iwin, role, out_card,
                                       join_sel, False, False)
                if tau < inf:
                    # A merge input pair costs at least its two inputs.
                    louts = [o for o in louts if o[3] + icost <= tau]
                    routs = [o for o in routs if ocost + o[3] <= tau]

                # Merge join over every combination of available input
                # orders; its output is ordered by the join columns.
                current = found.get(outer_col)
                best_cost = cap if current is None else current[0]
                best = None
                for l_order, lwin, lcard, lcost in louts:
                    l_sorted = l_order == outer_col
                    for r_order, rwin, rcard, rcost in routs:
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
                            best = (lwin, rwin, l_sorted, r_sorted)
                if best is not None:
                    found[outer_col] = (
                        best_cost, PhysicalOp.MERGE_JOIN, best[0], best[1],
                        role, out_card, join_sel, best[2], best[3],
                    )
        for order in keys:
            alternative = found.get(order)
            if alternative is not None:
                group.winners[order] = GroupWinner(
                    alternative[0], alternative[5], (_join_node, alternative)
                )

    # -- root operators ---------------------------------------------------

    def _finalize(self, candidates: list[_Option]) -> PlanNode:
        """Apply aggregation / order-by on top of the full join group's
        winners (never empty), and build the cheapest result's nodes."""
        template = self.template
        best: Optional[GroupWinner] = None
        for order, winner, _, _ in candidates:
            if template.aggregation is AggregationKind.GROUP_BY:
                winner = self._aggregate(winner, order)
            elif template.aggregation is AggregationKind.COUNT:
                winner = _over(
                    winner, 1.0,
                    self.costs.scalar_aggregate(winner.cardinality) + winner.cost,
                    op=PhysicalOp.SCALAR_AGGREGATE,
                )
            if template.order_by is not None:
                want = f"{template.order_by.table}.{template.order_by.column}"
                produced = order if template.aggregation is AggregationKind.NONE else None
                if produced != want:
                    winner = _over(
                        winner, winner.cardinality,
                        self.costs.sort(winner.cardinality) + winner.cost,
                        op=PhysicalOp.SORT, sort_column=want,
                    )
            if best is None or winner.cost < best.cost:
                best = winner
        return best.plan

    def _aggregate(self, winner: GroupWinner, order: Optional[str]) -> GroupWinner:
        template = self.template
        gb = template.group_by
        group_key = f"{gb.table}.{gb.column}"
        groups = self.cards.group_count(gb.table, gb.column, winner.cardinality)
        if order == group_key:
            cost = self.costs.stream_aggregate(winner.cardinality, groups)
            op = PhysicalOp.STREAM_AGGREGATE
        else:
            cost = self.costs.hash_aggregate(winner.cardinality, groups)
            op = PhysicalOp.HASH_AGGREGATE
        distinct = float(self.cards.stats.column(gb.table, gb.column).distinct_count)
        return _over(
            winner, groups, cost + winner.cost,
            op=op, group_column=group_key, group_distinct=distinct,
        )


def _over(child: GroupWinner, card: float, cost: float, **fields) -> GroupWinner:
    """A root operator over ``child``, as a winner: its node is built
    on the first read of its ``plan``."""
    return GroupWinner(cost, card, (_node_over, child, dict(fields, cardinality=card, cost=cost)))


def _node_over(child: GroupWinner, fields: dict) -> PlanNode:
    return PlanNode(children=[child.plan], **fields)


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


def _join_node(alternative: tuple) -> PlanNode:
    """The node of a join winner's ``alternative``, over its inputs'
    nodes (built by their first read)."""
    cost, op, outer, inner, role, out_card, join_sel, l_sorted, r_sorted = alternative
    _, _, outer_col, inner_col, inlj = role
    table = column = None
    if op is PhysicalOp.INDEX_NESTED_LOOPS_JOIN:
        # The inner side of an INLJ is probed, not scanned: its
        # cardinality/cost are folded into the join cost function, so
        # the leaf node carries zero cumulative cost of its own.
        info, column = inlj
        table = info.table
        inner_node = _scan(PhysicalOp.INDEX_SCAN, info, column, 0.0, 0.0)
    else:
        inner_node = inner.plan
    return PlanNode(
        op=op,
        children=[outer.plan, inner_node],
        table=table,
        index_column=column,
        join_left_column=outer_col,
        join_right_column=inner_col,
        join_selectivity=join_sel,
        left_sorted=l_sorted,
        right_sorted=r_sorted,
        cardinality=out_card,
        cost=cost,
    )
