"""Ground-truth oracle for metric computation.

Computing ``SO(q)`` for every instance requires the optimal cost at
``q`` and the chosen plan's cost at ``q`` even when the technique under
test made no optimizer call.  The oracle provides both *outside* the
technique's accounting: it holds its own optimizer and memoizes optimal
results per selectivity vector, so the same instance set can be
evaluated under many techniques and orderings without re-paying plan
search.

The oracle is also used to pre-compute optimal costs/plans that the
non-random orderings of Appendix H.1 need.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..engine.database import Database
from ..optimizer.optimizer import OptimizationResult, QueryOptimizer
from ..optimizer.recost import ShrunkenMemo
from ..query.instance import QueryInstance, SelectivityVector
from ..query.template import QueryTemplate


@dataclass
class OraclePoint:
    """Ground truth for one selectivity vector."""

    optimal_cost: float
    plan_signature: str
    shrunken_memo: ShrunkenMemo


class Oracle:
    """Memoized Optimize-Always over one (database, template) pair."""

    def __init__(self, db: Database, template: QueryTemplate) -> None:
        self.template = template
        self._optimizer = QueryOptimizer(
            template, db.stats, db.estimator, db.cost_model
        )
        self._cache: dict[tuple[float, ...], OraclePoint] = {}
        self.optimizer_calls = 0

    def optimal(self, sv: SelectivityVector) -> OraclePoint:
        """Optimal cost/plan at ``sv`` (cached)."""
        key = tuple(sv)
        point = self._cache.get(key)
        if point is None:
            result: OptimizationResult = self._optimizer.optimize(sv)
            self.optimizer_calls += 1
            point = OraclePoint(
                optimal_cost=result.cost,
                plan_signature=result.plan.signature(),
                shrunken_memo=result.shrunken_memo,
            )
            self._cache[key] = point
        return point

    def plan_cost(self, shrunken: ShrunkenMemo, sv: SelectivityVector) -> float:
        """Cost of an arbitrary plan at ``sv`` (pure recost, uncounted)."""
        return self._optimizer.recost(shrunken, sv)

    def annotate(
        self, instances: list[QueryInstance]
    ) -> tuple[list[float], list[str]]:
        """Optimal costs and plan signatures for an instance list.

        Feeds the cost- and plan-aware orderings of Appendix H.1.
        """
        costs: list[float] = []
        signatures: list[str] = []
        for inst in instances:
            point = self.optimal(inst.selectivities)
            costs.append(point.optimal_cost)
            signatures.append(point.plan_signature)
        return costs, signatures

    def feed_calibration(
        self,
        calibration,
        sv: SelectivityVector,
        predicted_cost: float,
        kind: str = "exact",
    ):
        """Feed one predicted-vs-true cost pair into the drift observatory.

        ``calibration`` is a per-template handle
        (:class:`~repro.obs.calibration.TemplateCalibration`, e.g.
        ``scr.calibration`` or ``obs.calibration.template(name)``);
        ``predicted_cost`` is what the technique's engine claimed (the
        optimizer result's cost, or an anchor's stored ``C``); the truth
        is this oracle's memoized optimal cost at the *clean* ``sv``.
        This is the only feed that can see estimation noise the engine
        is internally consistent about (e.g. a NoisyEngine's perturbed
        selectivities), because only the oracle holds ground truth.
        Returns the :class:`~repro.obs.calibration.DriftEvent` if this
        sample crossed the detector, else None.
        """
        point = self.optimal(sv)
        return calibration.record_ratio(
            "oracle", kind, predicted=predicted_cost, actual=point.optimal_cost
        )
