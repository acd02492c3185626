"""Equi-depth histograms over numeric columns.

Histograms drive both directions of the selectivity machinery:

* **forward** — estimate the selectivity of ``col <= v`` / ``col >= v`` /
  ``col == v`` predicates (used by the sVector API and the optimizer's
  cardinality model), and
* **inverse** — given a target selectivity ``s``, find a parameter value
  ``v`` such that ``sel(col <= v) ~= s`` (used by the workload generator
  to place query instances at chosen points of the selectivity space,
  mirroring the paper's bucketized instance generation in section 7.1).

The representation stores *exact* cumulative row counts at the bucket
boundaries (so estimates at boundary values — including heavy point
masses at the domain minimum of skewed columns — are exact) and
interpolates linearly inside buckets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..query.instance import SELECTIVITY_FLOOR

#: A ``(lo, point, hi)`` confidence triple for one predicate's
#: selectivity: the point estimate plus bounds on where the truth lies.
SelectivityInterval = tuple[float, float, float]


@dataclass(frozen=True)
class EquiDepthHistogram:
    """An equi-depth (equi-height) histogram.

    ``boundaries`` is a strictly increasing value array; ``cum[i]`` is
    the exact number of rows with value ``<= boundaries[i]``.  The last
    cumulative count equals ``total``.
    """

    boundaries: np.ndarray
    cum: np.ndarray
    total: int

    @classmethod
    def from_values(cls, values: np.ndarray, buckets: int = 64) -> "EquiDepthHistogram":
        """Build a histogram from raw column values."""
        if len(values) == 0:
            raise ValueError("cannot build a histogram from an empty column")
        sorted_vals = np.sort(values.astype(np.float64))
        total = len(sorted_vals)
        buckets = max(1, min(buckets, total))
        quantiles = np.linspace(0.0, 1.0, buckets + 1)
        boundaries = np.unique(np.quantile(sorted_vals, quantiles))
        if len(boundaries) < 2:
            # Constant column: keep a degenerate one-bucket histogram.
            boundaries = np.array([boundaries[0], boundaries[0] + 1.0])
        cum = np.searchsorted(sorted_vals, boundaries, side="right").astype(np.int64)
        return cls(boundaries=boundaries, cum=cum, total=total)

    @property
    def min_value(self) -> float:
        return float(self.boundaries[0])

    @property
    def max_value(self) -> float:
        return float(self.boundaries[-1])

    def selectivity_le(self, value: float) -> float:
        """Estimated selectivity of ``col <= value``.

        Exact at bucket boundaries; linear interpolation inside a
        bucket.  Clamped to a tiny positive floor so downstream cost
        ratios stay finite (optimizers never estimate zero rows).
        """
        if value < self.boundaries[0]:
            return self._floor()
        if value >= self.boundaries[-1]:
            return 1.0
        idx = int(np.searchsorted(self.boundaries, value, side="right")) - 1
        lo, hi = self.boundaries[idx], self.boundaries[idx + 1]
        frac = 0.0 if hi == lo else (value - lo) / (hi - lo)
        rows = self.cum[idx] + frac * (self.cum[idx + 1] - self.cum[idx])
        return max(self._floor(), min(1.0, rows / self.total))

    def selectivity_ge(self, value: float) -> float:
        """Estimated selectivity of ``col >= value``."""
        return max(self._floor(), min(1.0, 1.0 - self.selectivity_le(value)
                                      + self._point_mass(value)))

    def selectivity_eq(self, value: float) -> float:
        """Estimated selectivity of ``col == value`` (uniform-in-bucket)."""
        return max(self._floor(), self._point_mass(value))

    def quantile(self, selectivity: float) -> float:
        """Inverse estimate: value ``v`` with ``sel(col <= v) ~= selectivity``.

        The workload generator uses this to turn target selectivities
        into concrete predicate parameters.
        """
        selectivity = min(1.0, max(0.0, selectivity))
        target_rows = selectivity * self.total
        if target_rows <= self.cum[0]:
            return float(self.boundaries[0])
        idx = int(np.searchsorted(self.cum, target_rows, side="left"))
        idx = min(idx, len(self.boundaries) - 1)
        lo_cum, hi_cum = self.cum[idx - 1], self.cum[idx]
        lo, hi = self.boundaries[idx - 1], self.boundaries[idx]
        if hi_cum == lo_cum:
            return float(hi)
        frac = (target_rows - lo_cum) / (hi_cum - lo_cum)
        return float(lo + frac * (hi - lo))

    # -- interval estimates ---------------------------------------------------
    #
    # Two error sources are modelled (DESIGN.md §11):
    #
    # * **bucket resolution** — inside a bucket the true cumulative count
    #   is only known to lie between the two boundary counts, so those
    #   counts are *hard* bounds on ``sel(col <= v)``;
    # * **sample size** — the boundary counts themselves behave like a
    #   count estimate with relative standard error ``~1/sqrt(rows)``;
    #   ``sample_z`` standard errors widen the bucket bounds
    #   multiplicatively (``0`` disables the term, recovering the hard
    #   bucket bounds exactly).

    def interval_le(self, value: float, sample_z: float = 1.0) -> SelectivityInterval:
        """Confidence interval for ``sel(col <= value)``."""
        point = self.selectivity_le(value)
        if value < self.boundaries[0]:
            lo, hi = self._floor(), self._floor()
        elif value >= self.boundaries[-1]:
            lo, hi = 1.0, 1.0
        else:
            idx = int(np.searchsorted(self.boundaries, value, side="right")) - 1
            lo = max(self._floor(), float(self.cum[idx]) / self.total)
            hi = min(1.0, float(self.cum[idx + 1]) / self.total)
        return self._finish_interval(lo, point, hi, sample_z)

    def interval_ge(self, value: float, sample_z: float = 1.0) -> SelectivityInterval:
        """Confidence interval for ``sel(col >= value)``.

        The complement of the ``<=`` bounds, with the (uniform-in-bucket
        estimated) point mass at ``value`` bounded above by the whole
        containing region's mass.
        """
        point = self.selectivity_ge(value)
        lo_le, _, hi_le = self.interval_le(value, sample_z=0.0)
        lo = max(self._floor(), 1.0 - hi_le)
        hi = min(1.0, 1.0 - lo_le + self._region_mass(value))
        return self._finish_interval(lo, point, hi, sample_z)

    def interval_eq(self, value: float, sample_z: float = 1.0) -> SelectivityInterval:
        """Confidence interval for ``sel(col == value)``.

        Uniform-in-bucket gives the point; the truth can be anywhere
        between (almost) nothing and the containing region's whole mass.
        """
        point = self.selectivity_eq(value)
        lo = self._floor()
        hi = max(lo, self._region_mass(value))
        return self._finish_interval(lo, point, hi, sample_z)

    def _finish_interval(
        self, lo: float, point: float, hi: float, sample_z: float
    ) -> SelectivityInterval:
        """Apply the sample-size widening and restore the invariant."""
        if sample_z > 0.0:
            # Relative standard error of a count of ~point*total rows.
            err = sample_z / math.sqrt(max(1.0, point * self.total))
            widen = math.exp(err)
            lo = max(self._floor(), lo / widen)
            hi = min(1.0, hi * widen)
        return min(lo, point), point, max(hi, point)

    def _region_mass(self, value: float) -> float:
        """Total row fraction of the region containing ``value`` — an
        upper bound on the point mass at ``value``."""
        if value < self.boundaries[0] or value > self.boundaries[-1]:
            return 0.0
        if value == self.boundaries[0]:
            return float(self.cum[0]) / self.total
        idx = int(np.searchsorted(self.boundaries, value, side="left")) - 1
        idx = max(0, min(idx, len(self.boundaries) - 2))
        return float(self.cum[idx + 1] - self.cum[idx]) / self.total

    def _point_mass(self, value: float) -> float:
        """Estimated fraction of rows exactly equal to ``value``."""
        if value < self.boundaries[0] or value > self.boundaries[-1]:
            return 0.0
        if value == self.boundaries[0]:
            return float(self.cum[0]) / self.total
        idx = int(np.searchsorted(self.boundaries, value, side="left")) - 1
        idx = max(0, min(idx, len(self.boundaries) - 2))
        lo, hi = self.boundaries[idx], self.boundaries[idx + 1]
        width = max(1.0, hi - lo)
        return float(self.cum[idx + 1] - self.cum[idx]) / (self.total * width)

    def _floor(self) -> float:
        """Smallest selectivity this histogram will ever report."""
        return min(1.0, max(SELECTIVITY_FLOOR, 0.5 / self.total))
