"""The manageCache module (sections 4.3 and 6.3; Algorithm 2).

Runs after an optimizer call (off the critical path in the paper's
architecture) and decides how the plan cache changes:

* plan already cached       -> add a 5-tuple pointing at it (S = 1);
* new plan, redundant       -> discard it; point the 5-tuple at the
  cheapest existing plan (``S = S_min``), provided ``S_min ≤ λ_r``
  (the paper uses ``λ_r = √λ``; Appendix E);
* new plan, not redundant   -> add it, evicting the LFU plan first if a
  plan budget ``k`` is enforced (section 6.3.1).

Also implements Appendix F's redundancy check for *existing* plans.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional

from ..optimizer.optimizer import OptimizationResult
from ..optimizer.recost import ShrunkenMemo
from ..query.instance import SelectivityVector
from .plan_cache import CachedPlan, InstanceEntry, PlanCache

RecostFn = Callable[[ShrunkenMemo, SelectivityVector], float]


def default_lambda_r(lam: float) -> float:
    """The paper's redundancy threshold ``λ_r = √λ`` (Appendix E)."""
    return math.sqrt(lam)


class EvictionPolicy(Enum):
    """Victim-selection policy when the plan budget ``k`` is exceeded.

    The paper uses LFU — drop the plan with minimum aggregate usage
    count over its instances (section 6.3.1), expected to work well
    when the future instance distribution matches the past.  LRU and
    RANDOM are provided as ablation comparators.
    """

    LFU = "lfu"
    LRU = "lru"
    RANDOM = "random"


@dataclass
class ManageCacheStats:
    """Bookkeeping for the manageCache decisions."""

    plans_added: int = 0
    plans_rejected_redundant: int = 0
    plans_evicted: int = 0
    existing_plan_hits: int = 0
    redundancy_recost_calls: int = 0
    instances_coalesced: int = 0


@dataclass
class ManageCache:
    """Configurable manageCache.

    Parameters
    ----------
    lam:
        The λ bound (used only through ``lambda_r`` by default).
    lambda_r:
        Redundancy-check threshold; new plans whose best cached
        alternative is within this factor are discarded.  ``λ_r = √λ``
        unless overridden (``λ_r <= 1`` disables rejection, i.e. the
        store-every-plan policy).
    plan_budget:
        Optional hard cap ``k`` on the number of cached plans.
    coalesce_identical:
        When True, registering an instance whose selectivity vector is
        already anchored bumps the existing anchor's usage instead of
        appending a duplicate 5-tuple.  Off by default (serial SCR keeps
        the paper's exact bookkeeping); the concurrent serving layer
        enables it so racy double-optimizations of the same vector —
        e.g. two threads missing before either registers — cannot grow
        the instance list without bound.
    """

    cache: PlanCache
    lam: float
    lambda_r: Optional[float] = None
    plan_budget: Optional[int] = None
    eviction_policy: EvictionPolicy = EvictionPolicy.LFU
    coalesce_identical: bool = False
    stats: ManageCacheStats = field(default_factory=ManageCacheStats)

    def __post_init__(self) -> None:
        if self.lambda_r is None:
            self.lambda_r = default_lambda_r(self.lam)
        if self.plan_budget is not None and self.plan_budget < 1:
            raise ValueError("plan budget k must be >= 1")
        self._rng = random.Random(0)

    def register(
        self,
        sv: SelectivityVector,
        result: OptimizationResult,
        recost: RecostFn,
        known_costs: Optional[dict[int, float]] = None,
    ) -> InstanceEntry:
        """Process a freshly optimized instance (Algorithm 2).

        Returns the instance entry added to the instance list; its
        ``plan_id`` is the plan the instance will anchor for future
        inference (the new plan, or the redundant-winner).

        ``known_costs`` is the request's own ``{plan_id: Cost(P, sv)}``
        memo (``GetPlanDecision.recost_memo``): what getPlan's cost
        phase already paid the engine for at this very ``sv``.
        """
        signature = result.signature
        optimal_cost = result.cost

        if self.coalesce_identical:
            row = self.cache.find_instance(sv)
            cells = self.cache.columnar().cells
            if row is not None and not cells["retired"][row]:
                cells["usage"][row] += 1  # in place, through the store
                self.cache.usage_version += 1
                self.stats.instances_coalesced += 1
                return self.cache.instance(row)

        existing = self.cache.find_plan(signature)
        if existing is not None:
            self.stats.existing_plan_hits += 1
            return self._anchor(sv, existing.plan_id, optimal_cost, 1.0)

        redundant = self._redundancy_check(
            sv, optimal_cost, recost, known_costs or {}
        )
        if redundant is not None:
            plan_entry, s_min = redundant
            self.stats.plans_rejected_redundant += 1
            return self._anchor(sv, plan_entry.plan_id, optimal_cost, s_min)

        if (
            self.plan_budget is not None
            and self.cache.num_plans >= self.plan_budget
        ):
            self._evict_one()
        plan_entry = self.cache.add_plan(result.plan, result.shrunken_memo)
        self.stats.plans_added += 1
        return self._anchor(sv, plan_entry.plan_id, optimal_cost, 1.0)

    def _anchor(
        self, sv: SelectivityVector, plan_id: int, cost: float, sub: float
    ) -> InstanceEntry:
        """Append one 5-tuple and return its record."""
        entry = InstanceEntry(
            sv=sv, plan_id=plan_id, optimal_cost=cost, suboptimality=sub
        )
        self.cache.add_instance(entry)
        return entry

    # -- redundancy of the new plan ----------------------------------------

    def _redundancy_check(
        self,
        sv: SelectivityVector,
        optimal_cost: float,
        recost: RecostFn,
        known_costs: dict[int, float],
    ) -> Optional[tuple[CachedPlan, float]]:
        """Find the min-cost cached plan; redundant if ``S_min ≤ λ_r``.

        Plans costed in ``known_costs`` are not re-costed.  Plan ids are
        never reused, so a memo id still names the plan it named at the
        probe; a plan added since, or one whose probe-time Recost failed
        closed, is absent from the memo and gets its engine call here.
        """
        if self.lambda_r is None or self.lambda_r <= 1.0:
            return None
        best: Optional[CachedPlan] = None
        best_cost = math.inf
        for plan in self.cache.plans():
            cost = known_costs.get(plan.plan_id)
            if cost is None:
                cost = recost(plan.shrunken_memo, sv)
                self.stats.redundancy_recost_calls += 1
            if cost < best_cost:
                best, best_cost = plan, cost
        if best is None:
            return None
        s_min = best_cost / optimal_cost
        if s_min <= self.lambda_r:
            return best, max(s_min, 1.0)
        return None

    # -- eviction under a plan budget ------------------------------------------

    def _evict_one(self) -> None:
        if self.eviction_policy is EvictionPolicy.LFU:
            victim = self.cache.min_usage_plan()
        elif self.eviction_policy is EvictionPolicy.LRU:
            victim = self.cache.lru_plan()
        else:
            plans = self.cache.plans()
            victim = self._rng.choice(plans) if plans else None
        if victim is not None:
            self.cache.drop_plan(victim.plan_id)
            self.stats.plans_evicted += 1

    # -- Appendix F: redundancy of existing plans -------------------------------

    def purge_redundant_existing_plans(self, recost: RecostFn) -> int:
        """Drop existing plans every instance of which has a λ-optimal
        alternative among the *other* cached plans.

        Processes plans in increasing order of their instance-list size
        (the Appendix F heuristic: small plans are cheaper to check and
        more likely redundant).  Returns the number of plans dropped.
        """
        dropped = 0
        plan_ids = sorted(
            (p.plan_id for p in self.cache.plans()),
            key=lambda pid: len(self.cache.instances_for(pid)),
        )
        for plan_id in plan_ids:
            if self.cache.num_plans <= 1:
                break
            if self._try_drop_plan(plan_id, recost):
                dropped += 1
        return dropped

    def _try_drop_plan(self, plan_id: int, recost: RecostFn) -> bool:
        instances = self.cache.instances_for(plan_id)
        others = [p for p in self.cache.plans() if p.plan_id != plan_id]
        if not others:
            return False
        replacements: list[tuple[InstanceEntry, CachedPlan, float]] = []
        for inst in instances:
            best: Optional[CachedPlan] = None
            best_s = math.inf
            for plan in others:
                cost = recost(plan.shrunken_memo, inst.sv)
                self.stats.redundancy_recost_calls += 1
                s = cost / inst.optimal_cost
                if s < best_s:
                    best, best_s = plan, s
            if best is None or best_s > self.lam:
                return False  # some instance has no λ-optimal alternative
            replacements.append((inst, best, max(best_s, 1.0)))
        # All instances re-homed: drop the plan, re-add updated 5-tuples.
        self.cache.drop_plan(plan_id)
        for inst, plan, s in replacements:
            self.cache.add_instance(
                InstanceEntry(
                    sv=inst.sv,
                    plan_id=plan.plan_id,
                    optimal_cost=inst.optimal_cost,
                    suboptimality=s,
                    usage=inst.usage,
                )
            )
        return True
