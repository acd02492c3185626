"""Geometry of λ-optimal inference regions (section 5.3, Figure 4).

The selectivity-based λ-optimal region around an optimized instance
``q_e = (s_1, ..., s_d)`` is the set of instances whose G·L product
does not exceed λ.  In two dimensions it is the closed region bounded
by two straight lines and two hyperbolas through ``q_e``; its area is
``(λ - 1/λ) · ln λ · s1 · s2`` — increasing in λ and in the stored
selectivities, and independent of the plan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..query.instance import SelectivityVector
from .bounds import BoundingFunction, LINEAR_BOUND, compute_gl


@dataclass(frozen=True)
class SelectivityRegion:
    """The selectivity-check inference region around one stored instance.

    ``budget`` is the usable sub-optimality allowance ``λ / S`` where
    ``S`` is the stored plan's sub-optimality at the anchor (section
    6.2 allows anchors whose plan is itself slightly sub-optimal).
    """

    anchor: SelectivityVector
    budget: float
    bound: BoundingFunction = LINEAR_BOUND

    def __post_init__(self) -> None:
        if self.budget < 1.0:
            raise ValueError("region budget (lambda / S) must be >= 1")

    def contains(self, sv: SelectivityVector) -> bool:
        """True iff ``sv`` passes the selectivity check for this anchor."""
        g, l = compute_gl(self.anchor, sv)
        return self.bound.selectivity_bound(g, l) <= self.budget

    def area_2d(self) -> float:
        """Closed-form area (2-d only): ``(λ - 1/λ) ln λ · s1 · s2``."""
        if len(self.anchor) != 2:
            raise ValueError("closed-form area applies to 2-d regions only")
        lam = self.budget ** (1.0 / self.bound.degree)
        s1, s2 = self.anchor[0], self.anchor[1]
        return (lam - 1.0 / lam) * math.log(lam) * s1 * s2

    def boundary_2d(self, points_per_arc: int = 64) -> list[tuple[float, float]]:
        """Sample the region boundary (2-d) for plotting / Figure 1.

        The boundary consists of four arcs meeting where the G·L product
        equals λ: two line segments ``y = (s2/s1)·λ^{±1}·x`` and two
        hyperbola segments ``x·y = s1·s2·λ^{±1}``.
        """
        if len(self.anchor) != 2:
            raise ValueError("boundary sampling applies to 2-d regions only")
        lam = self.budget ** (1.0 / self.bound.degree)
        s1, s2 = self.anchor[0], self.anchor[1]
        pts: list[tuple[float, float]] = []

        def arc(x_from: float, x_to: float, fn) -> None:
            for i in range(points_per_arc):
                t = i / (points_per_arc - 1)
                x = x_from * (x_to / x_from) ** t  # log-spaced
                pts.append((x, fn(x)))

        # Corners of the region (intersections of lines and hyperbolas):
        #  line y = (s2 λ / s1) x with hyperbola x y = s1 s2 λ  -> x = s1
        #  line y = (s2 λ / s1) x with hyperbola x y = s1 s2 / λ -> x = s1/λ
        arc(s1 / lam, s1, lambda x: (s2 * lam / s1) * x)        # upper line
        arc(s1, s1 * lam, lambda x: s1 * s2 * lam / x)          # upper hyperbola
        arc(s1 * lam, s1, lambda x: (s2 / (s1 * lam)) * x)      # lower line (back)
        arc(s1, s1 / lam, lambda x: s1 * s2 / (lam * x))        # lower hyperbola
        return pts
