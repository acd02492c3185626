"""Memo data structure for the dynamic-programming plan search.

Mirrors the Cascades memo the paper's prototype works over (Appendix B):
*groups* are sets of joined relations; each group holds the *logical*
property (output cardinality at the instance being optimized) and the
best *physical expression* per interesting order (unordered, or sorted
by some column).  After optimization the winner's slice of the memo is
what survives as the ``ShrunkenMemo`` used by the Recost API.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .plans import PlanNode


class GroupWinner:
    """Best plan found for a (group, order) combination: its cost, its
    cardinality and ``build``, a function and its arguments that make its
    ``PlanNode`` on the first read of ``plan`` (DESIGN.md §7)."""

    __slots__ = ("cost", "cardinality", "build", "_plan")

    def __init__(self, cost: float, cardinality: float, build: tuple, plan=None) -> None:
        self.cost, self.cardinality, self.build, self._plan = cost, cardinality, build, plan

    @property
    def plan(self) -> PlanNode:
        if self._plan is None:
            build, *args = self.build
            self._plan = build(*args)
        return self._plan


@dataclass
class MemoGroup:
    """A memo group: one set of base relations.

    ``winners`` maps an interesting order key (``None`` for unordered,
    otherwise a qualified ``table.column`` string the output is sorted
    by) to the cheapest plan producing that order.
    """

    tables: frozenset[str]
    cardinality: float = 0.0
    winners: dict[Optional[str], GroupWinner] = field(default_factory=dict)
    expressions_considered: int = 0

    def offer(self, order: Optional[str], plan: PlanNode) -> bool:
        """Record ``plan`` if it beats the current winner for ``order``.

        Returns True if the plan was kept.
        """
        self.expressions_considered += 1
        current = self.winners.get(order)
        if current is None or plan.cost < current.cost:
            self.winners[order] = GroupWinner(plan.cost, plan.cardinality, (), plan)
            return True
        return False

    def best(self, order: Optional[str] = None) -> Optional[GroupWinner]:
        """Cheapest winner with the requested order (``None`` = any order).

        For ``order=None`` the overall cheapest plan across all orders is
        returned (an ordered plan satisfies an unordered requirement).
        """
        if order is not None:
            return self.winners.get(order)
        best: Optional[GroupWinner] = None
        for winner in self.winners.values():
            if best is None or winner.cost < best.cost:
                best = winner
        return best

    def orders(self) -> list[Optional[str]]:
        return list(self.winners.keys())


@dataclass
class Memo:
    """The whole memo: groups keyed by relation set."""

    groups: dict[frozenset[str], MemoGroup] = field(default_factory=dict)

    def group(self, tables: frozenset[str]) -> MemoGroup:
        grp = self.groups.get(tables)
        if grp is None:
            grp = MemoGroup(tables=tables)
            self.groups[tables] = grp
        return grp

    def has_group(self, tables: frozenset[str]) -> bool:
        return tables in self.groups

    @property
    def group_count(self) -> int:
        return len(self.groups)

    @property
    def expression_count(self) -> int:
        return sum(g.expressions_considered for g in self.groups.values())
