"""Cache coverage analysis: how much of the selectivity space can the
current plan cache serve without the optimizer?

The paper's inference regions are per-anchor; the *union* of the cached
anchors' selectivity regions (plus, optimistically, their recost
regions) determines the probability an arriving instance avoids an
optimizer call.  This module estimates that union by Monte Carlo
sampling — a "cache warmth" gauge an operator can watch, and the
quantity that Figure 11/18's falling numOpt curves implicitly track.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ..optimizer.recost import ShrunkenMemo
from ..query.instance import SelectivityVector
from .bounds import BoundingFunction, LINEAR_BOUND
from .get_plan import CheckKind, GetPlan
from .plan_cache import PlanCache

RecostFn = Callable[[ShrunkenMemo, SelectivityVector], float]


@dataclass(frozen=True)
class CoverageReport:
    """Monte Carlo coverage estimate over a sampled region."""

    samples: int
    selectivity_check_hits: int
    cost_check_hits: int

    @property
    def selectivity_coverage(self) -> float:
        """Fraction servable by the selectivity check alone."""
        return self.selectivity_check_hits / self.samples if self.samples else 0.0

    @property
    def total_coverage(self) -> float:
        """Fraction servable by either check (needs a recost function)."""
        hits = self.selectivity_check_hits + self.cost_check_hits
        return hits / self.samples if self.samples else 0.0


def sample_coverage(
    cache: PlanCache,
    lam: float,
    dimensions: int,
    samples: int = 500,
    seed: int = 0,
    low: float = 0.005,
    high: float = 1.0,
    bound: BoundingFunction = LINEAR_BOUND,
    recost: Optional[RecostFn] = None,
    max_recost_candidates: int = 8,
) -> CoverageReport:
    """Estimate cache coverage over log-uniform samples of the space.

    The samples are probed through a throw-away
    :class:`~repro.core.get_plan.GetPlan` over ``cache`` — probed only,
    nothing is committed, so usage counts, hit counters and the LRU
    clock stay untouched — which makes the report what getPlan would
    decide by construction: selectivity-covered if its selectivity check
    hits, cost-covered if its plan-major cost check does (at most
    ``max_recost_candidates`` Recost calls per sample; without
    ``recost`` the cost check is not run at all).
    """
    if lam < 1.0:
        raise ValueError("lambda must be >= 1")
    if cache.num_instances and cache.columnar().dimensions != dimensions:
        raise ValueError("cache anchors and sample dimensions disagree")
    rng = np.random.default_rng(seed)
    points = np.exp(
        rng.uniform(np.log(low), np.log(high), size=(samples, dimensions))
    )
    get_plan = GetPlan(
        cache=cache, lam=lam, max_recost_candidates=max_recost_candidates,
        bound=bound,
    )
    checks = Counter(
        decision.check
        for decision in get_plan.probe_batch(
            [SelectivityVector.from_sequence(row) for row in points], recost,
            max_recost=None if recost else 0,
        )
    )
    return CoverageReport(
        samples=samples,
        selectivity_check_hits=checks[CheckKind.SELECTIVITY],
        cost_check_hits=checks[CheckKind.COST],
    )
