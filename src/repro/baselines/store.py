"""Shared plan store for the heuristic baselines.

The baseline techniques from the literature (PCM, Ellipse, Density,
Ranges) all keep one entry per distinct optimal plan together with the
optimized instances that produced it ("store every new plan, never
drop" — the trivial cache policy section 3 criticizes).  This module
factors that bookkeeping out, and optionally adds the Appendix H.6
variant in which a baseline uses the Recost API to run SCR's
redundancy check before storing a new plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from ..optimizer.optimizer import OptimizationResult
from ..optimizer.plans import PhysicalPlan
from ..optimizer.recost import ShrunkenMemo
from ..query.instance import SelectivityVector

RecostFn = Callable[[ShrunkenMemo, SelectivityVector], float]


@dataclass
class StoredPlan:
    """A plan with the sVectors of the optimized instances it covers."""

    plan_id: int
    signature: str
    shrunken_memo: ShrunkenMemo
    plan: PhysicalPlan | None = None
    points: list[tuple[float, ...]] = field(default_factory=list)


@dataclass
class BaselinePlanStore:
    """Plan bookkeeping shared by all heuristic baselines.

    With ``lambda_r`` set (> 1) and a recost function supplied at
    registration time, new plans are subjected to SCR-style redundancy
    rejection (the Appendix H.6 "existing techniques + Recost" variant):
    the optimized instance is then attributed to the cheapest existing
    plan instead, enlarging that plan's inference region.
    """

    lambda_r: Optional[float] = None
    _plans: dict[str, StoredPlan] = field(default_factory=dict)
    _next_id: int = 0
    plans_rejected_redundant: int = 0

    def register(
        self,
        sv: SelectivityVector,
        result: OptimizationResult,
        recost: Optional[RecostFn] = None,
    ) -> StoredPlan:
        """Record an optimized instance; returns the plan it now anchors."""
        signature = result.plan.signature()
        existing = self._plans.get(signature)
        if existing is not None:
            existing.points.append(tuple(sv))
            return existing

        if self.lambda_r is not None and self.lambda_r > 1.0 and recost is not None:
            cheapest = self._cheapest_plan(sv, recost)
            if cheapest is not None:
                plan, cost = cheapest
                if cost / result.cost <= self.lambda_r:
                    self.plans_rejected_redundant += 1
                    plan.points.append(tuple(sv))
                    return plan

        plan = StoredPlan(
            plan_id=self._next_id,
            signature=signature,
            shrunken_memo=result.shrunken_memo,
            plan=result.plan,
        )
        plan.points.append(tuple(sv))
        self._plans[signature] = plan
        self._next_id += 1
        return plan

    def _cheapest_plan(
        self, sv: SelectivityVector, recost: RecostFn
    ) -> Optional[tuple[StoredPlan, float]]:
        best: Optional[StoredPlan] = None
        best_cost = float("inf")
        for plan in self._plans.values():
            cost = recost(plan.shrunken_memo, sv)
            if cost < best_cost:
                best, best_cost = plan, cost
        if best is None:
            return None
        return best, best_cost

    def plans(self) -> list[StoredPlan]:
        return list(self._plans.values())

    @property
    def num_plans(self) -> int:
        return len(self._plans)
