"""The online PQO technique interface (problem setting of section 2).

An online technique processes a workload sequence one instance at a
time; for each instance it must produce a plan — either one it has
cached or the result of a fresh optimizer call — through exactly the
engine APIs of section 4.2.  SCR and every baseline implement this
interface, so the harness measures them identically.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Optional

from ..engine.api import EngineAPI
from ..optimizer.plans import PhysicalPlan
from ..optimizer.recost import ShrunkenMemo
from ..query.instance import AnySelectivityVector, QueryInstance, as_point


@dataclass
class PlanChoice:
    """What a technique decided for one query instance."""

    shrunken_memo: ShrunkenMemo
    plan_signature: str
    used_optimizer: bool
    check: str = ""            # technique-specific label ("selectivity", ...)
    recost_calls: int = 0
    optimal_cost: Optional[float] = None  # known only if we optimized
    plan: Optional[PhysicalPlan] = None   # executable plan tree
    #: False when a degraded path served this instance (optimizer
    #: fallback, stale sVector): no λ bound was verified for it.
    certified: bool = True
    #: The sub-optimality bound the checks actually verified (S·G·L,
    #: S·R·L, or the entry's registered bound after an optimizer call);
    #: None when no bound was certified.  Feeds the guarantee audit.
    certified_bound: Optional[float] = None
    #: Certificate kind claimed for this response when ``certified``:
    #: "exact" (point checks / exactly known selectivities), "robust"
    #: (holds for every sVector in a hard uncertainty box) or
    #: "probabilistic" (holds with probability ≥ ``coverage``).
    certificate: str = "exact"
    #: Coverage of the uncertainty box the certificate holds over.
    coverage: float = 1.0


def fetch_selectivity(
    engine: EngineAPI, instance: QueryInstance, uncertain: bool = False
) -> tuple[AnySelectivityVector, bool]:
    """The instance's sVector plus its per-call degradation status.

    ``uncertain`` fetches the uncertainty box
    (``selectivity_vector_with_error_ex``, SCR's robust check modes)
    instead of the point vector.  The status travels with the vector
    through every engine layer, so no other serving thread's call can
    reset it before it is read.
    """
    if uncertain:
        return engine.selectivity_vector_with_error_ex(instance)
    return engine.selectivity_vector_ex(instance)


class OnlinePQOTechnique(ABC):
    """Base class for online PQO techniques."""

    #: human-readable name used in reports, overridden by subclasses.
    name: str = "abstract"

    def __init__(self, engine: EngineAPI) -> None:
        self.engine = engine
        self.instances_processed = 0
        self.optimizer_calls = 0

    def process(self, instance: QueryInstance) -> PlanChoice:
        """Handle one arriving query instance."""
        self.engine.begin_instance(self.instances_processed)
        sv, degraded = fetch_selectivity(self.engine, instance)
        choice = self._choose(sv)
        if degraded:
            # The sVector was a stale fallback: every check ran against
            # approximate selectivities, so no bound is certified.
            choice.certified = False
        self.instances_processed += 1
        if choice.used_optimizer:
            self.optimizer_calls += 1
        return choice

    @abstractmethod
    def _choose(self, sv: AnySelectivityVector) -> PlanChoice:
        """Pick a plan for the instance with selectivity vector ``sv``."""

    @property
    @abstractmethod
    def plans_cached(self) -> int:
        """Number of plans currently stored."""

    @property
    def max_plans_cached(self) -> int:
        """Peak number of plans stored (defaults to the current count)."""
        return self.plans_cached

    def _optimize(self, sv: AnySelectivityVector, incumbent=None):
        """Make a (counted) optimizer call through the engine, bounded
        by the cached plan ``incumbent`` when one is given.

        Always optimizes at the *point* estimate — the optimizer's own
        cardinality model works from best guesses, not boxes.
        """
        return self.engine.optimize(as_point(sv), incumbent)
