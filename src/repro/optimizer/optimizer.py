"""Optimizer front-end: ties search, cardinality and recost together.

One :class:`QueryOptimizer` is built per (template, database statistics)
pair and exposes exactly the engine capabilities the paper's technique
needs (section 4.2): a full optimizer call and the cheap Recost call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import inf

from ..catalog.statistics import DatabaseStatistics
from ..query.instance import SelectivityVector
from ..query.template import QueryTemplate
from ..selectivity.estimator import SelectivityEstimator
from .cardinality import CardinalityModel
from .cost_model import CostModel
from .recost import ShrunkenMemo, shrink
from .plans import PhysicalPlan
from .search import PlanSearch

#: Relative headroom on a re-costed incumbent's cost before it caps a
#: search: Recost and the search price one plan to within 4 ulps
#: (``tests/test_search_equivalence.py``), about 1e-15 relative.
INCUMBENT_MARGIN = 1.0 + 1e-9


@dataclass
class OptimizationResult:
    """Everything an optimizer call produces.

    ``plan`` carries derived cardinalities/costs for the optimized
    instance and ``signature`` its structure; the memo statistics
    quantify the search work that recost avoids.
    """

    plan: PhysicalPlan
    cost: float
    signature: str
    memo_groups: int
    memo_expressions: int

    @cached_property
    def shrunken_memo(self) -> ShrunkenMemo:
        """The cacheable re-costing structure, built on first read: a miss
        whose plan the cache holds or rejects never builds it (DESIGN.md §7)."""
        return shrink(self.plan, self.memo_groups, self.memo_expressions)


class QueryOptimizer:
    """Cost-based optimizer for a single query template."""

    def __init__(
        self,
        template: QueryTemplate,
        stats: DatabaseStatistics,
        estimator: SelectivityEstimator | None = None,
        cost_model: CostModel | None = None,
    ) -> None:
        self.template = template
        self.stats = stats
        self.estimator = estimator or SelectivityEstimator(stats)
        self.cost_model = cost_model or CostModel()
        self.card_model = CardinalityModel(template, stats, self.estimator)
        self._search = PlanSearch(
            template, self.card_model, self.cost_model, stats.schema
        )

    def optimize(
        self, sv: SelectivityVector, incumbent: ShrunkenMemo | None = None
    ) -> OptimizationResult:
        """Full plan search for the instance with selectivity vector ``sv``.

        An ``incumbent`` plan of this template, re-costed here with this
        optimizer's own cost model, caps a branch-and-bound search that
        returns the unbounded search's result.
        """
        bound = inf
        if incumbent is not None:
            # The class's method, not an instance attribute a tracer may
            # have wrapped: this Recost is part of the optimizer call.
            bound = QueryOptimizer.recost(self, incumbent, sv) * INCUMBENT_MARGIN
        plan, memo = self._search.optimize(sv, bound)
        return OptimizationResult(
            plan=plan,
            cost=plan.cost,
            signature=plan.signature(),
            memo_groups=memo.group_count,
            memo_expressions=memo.expression_count,
        )

    def recost(self, shrunken: ShrunkenMemo, sv: SelectivityVector) -> float:
        """Re-cost a previously optimized plan at a new instance."""
        if shrunken.template_name != self.template.name:
            raise ValueError(
                f"plan belongs to template {shrunken.template_name!r}, "
                f"not {self.template.name!r}"
            )
        return shrunken.recost(sv, self.cost_model)
