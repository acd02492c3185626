"""Detection of PCM / BCG assumption violations — Appendix G.

Whenever a cost check re-costs a stored plan ``P`` at a new instance,
the observed cost pair together with the selectivity ratios lets us
test whether ``P``'s cost function actually respects the assumptions
at the anchor:

* **BCG upper bound violated** — the observed growth exceeds the
  bounding function: ``Cost(P, q_c) > f(G) · f(1/L)⁻¹ · Cost(P, q_e)``
  simplifies (with ``f(α)=αⁿ``) to ``R·Lⁿ > Gⁿ · S``-style checks; we
  test the two sides separately below.
* **PCM (monotonicity) violated** — cost moved in the wrong direction
  for a dominated/dominating pair.

A violating anchor is *retired*: it is excluded from future cost checks
so it cannot keep producing bad inferences (the selectivity check keeps
it, consistent with the paper's observation that SCR's small localized
regions limit the damage of violations).
"""

from __future__ import annotations

from dataclasses import dataclass

from .bounds import BoundingFunction, LINEAR_BOUND
from .columnar import ColumnarInstances


@dataclass
class ViolationReport:
    """Outcome of one violation test."""

    bcg_violated: bool = False
    pcm_violated: bool = False

    @property
    def any(self) -> bool:
        return self.bcg_violated or self.pcm_violated


@dataclass
class ViolationDetector:
    """Tests observed recost ratios against the assumed cost growth.

    ``tolerance`` absorbs floating-point and mild model noise so only
    substantive violations retire an anchor.
    """

    bound: BoundingFunction = LINEAR_BOUND
    tolerance: float = 1.02
    violations_detected: int = 0
    anchors_retired: int = 0

    def check(
        self,
        view: ColumnarInstances,
        row: int,
        g: float,
        l: float,
        recost_ratio: float,
    ) -> ViolationReport:
        """Check one cost-check observation through anchor ``row`` of
        ``view`` against PCM and BCG; a violation retires the anchor.

        ``recost_ratio`` is ``R = Cost(P, q_c) / C`` where ``C`` is the
        anchor's optimal cost, so the plan's own cost ratio between the
        two instances is ``R / S``.
        """
        n = self.bound.degree
        plan_growth = recost_ratio / view.cells["sub"][row]  # Cost(P,qc)/Cost(P,qe)

        # BCG: growth must satisfy 1/L**n < plan_growth < G**n.
        upper = (g ** n) * self.tolerance
        lower = 1.0 / ((l ** n) * self.tolerance)
        bcg = plan_growth > upper or plan_growth < lower

        # PCM: pure dominance cases have a definite direction.
        pcm = (
            l == 1.0 and g > 1.0 and plan_growth < 1.0 / self.tolerance
        ) or (g == 1.0 and l > 1.0 and plan_growth > self.tolerance)

        report = ViolationReport(bcg, pcm)
        if report.any:
            self.violations_detected += 1
            if view.store.retire(row):
                self.anchors_retired += 1
        return report
