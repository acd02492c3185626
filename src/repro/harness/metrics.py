"""Evaluation metrics (section 2.1 of the paper).

Per instance: cost sub-optimality ``SO(q) = Cost(P(q), q) /
Cost(Popt(q), q)``.  Per sequence: ``MSO`` (max SO), ``TotalCostRatio``
(sum of chosen costs over sum of optimal costs — always in
``[1, MSO]``), ``numOpt`` (optimizer calls) and ``numPlans`` (peak
plans cached).  Across sequences the paper reports averages and 95th
percentiles, reproduced by :class:`MetricAggregate`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class InstanceRecord:
    """Measured outcome for one processed query instance."""

    sequence_id: int
    chosen_cost: float
    optimal_cost: float
    used_optimizer: bool
    check: str
    recost_calls: int = 0
    plan_signature: str = ""
    #: False when the technique served a degraded (fallback) answer with
    #: no verified λ bound; such instances are excluded from guarantee
    #: accounting (certified_violations).
    certified: bool = True

    @property
    def suboptimality(self) -> float:
        if self.optimal_cost <= 0:
            raise ValueError("optimal cost must be positive")
        # Chosen cost can dip below "optimal" cost only through model
        # noise; clamp so SO >= 1 as the definition requires.
        return max(1.0, self.chosen_cost / self.optimal_cost)


@dataclass
class SequenceResult:
    """All records of one (technique, workload sequence) run."""

    technique: str
    template: str
    ordering: str
    lam: float | None
    records: list[InstanceRecord] = field(default_factory=list)
    num_plans: int = 0           # peak plans cached (the paper's numPlans)
    total_recost_calls: int = 0

    def add(self, record: InstanceRecord) -> None:
        self.records.append(record)

    @property
    def m(self) -> int:
        return len(self.records)

    @property
    def suboptimalities(self) -> np.ndarray:
        return np.array([r.suboptimality for r in self.records])

    @property
    def mso(self) -> float:
        """Worst-case sub-optimality across the sequence."""
        return float(self.suboptimalities.max()) if self.records else 1.0

    @property
    def total_cost_ratio(self) -> float:
        """Aggregate sub-optimality: sum(chosen) / sum(optimal)."""
        chosen = sum(r.chosen_cost for r in self.records)
        optimal = sum(r.optimal_cost for r in self.records)
        return max(1.0, chosen / optimal) if optimal > 0 else 1.0

    @property
    def num_opt(self) -> int:
        return sum(1 for r in self.records if r.used_optimizer)

    @property
    def num_opt_percent(self) -> float:
        return 100.0 * self.num_opt / self.m if self.m else 0.0

    def violations(self, lam: float) -> int:
        """Instances whose SO exceeded the bound (assumption violations)."""
        return int((self.suboptimalities > lam * (1 + 1e-9)).sum())

    def certified_violations(self, lam: float) -> int:
        """Certified instances whose SO exceeded λ; must be zero unless
        the BCG assumption itself was violated."""
        return sum(
            1 for r in self.records
            if r.certified and r.suboptimality > lam * (1 + 1e-9)
        )

    def running_num_opt_percent(self, prefix_lengths: Sequence[int]) -> list[float]:
        """numOpt %% over growing prefixes (Figures 11 and 18)."""
        flags = np.array([r.used_optimizer for r in self.records], dtype=np.int64)
        cum = np.cumsum(flags)
        return [100.0 * cum[n - 1] / n for n in prefix_lengths if 0 < n <= self.m]


def percentile(values: Sequence[float], p: float) -> float:
    """Percentile of a sample; 0.0 on an empty sample."""
    arr = np.asarray(list(values), dtype=np.float64)
    return float(np.percentile(arr, p)) if arr.size else 0.0


@dataclass(frozen=True)
class LatencySummary:
    """p50/p99-style summary of per-instance serving latencies.

    Produced from the registry's serving-latency histogram; the
    concurrent serving layer reports one of these per shard.
    """

    count: int
    mean_ms: float
    p50_ms: float
    p99_ms: float
    max_ms: float

    @classmethod
    def from_histogram(cls, histogram) -> "LatencySummary":
        """Summary from a registry :class:`~repro.obs.registry.Histogram`
        child (seconds buckets).  Percentiles are bucket-interpolated —
        the raw samples are gone once aggregated — so they are exact
        only up to bucket resolution; ``max`` is clamped to the highest
        finite bucket edge reached."""
        count = histogram.count
        if count == 0:
            return cls(count=0, mean_ms=0.0, p50_ms=0.0, p99_ms=0.0, max_ms=0.0)
        return cls(
            count=count,
            mean_ms=histogram.sum / count * 1e3,
            p50_ms=histogram.quantile(0.50) * 1e3,
            p99_ms=histogram.quantile(0.99) * 1e3,
            max_ms=histogram.quantile(1.0) * 1e3,
        )


@dataclass(frozen=True)
class ServiceLevelSummary:
    """Outcome-labeled service summary for a run under load.

    The overload-protected serving layer resolves every submission as
    exactly one of ``certified`` (λ bound verified), ``uncertified``
    (served from cache without a verified bound) or ``shed`` (refused,
    nothing cached).  Given the per-response latencies of the *served*
    outcomes and the shed count, this summarizes the service level the
    operator actually delivered against a deadline budget.
    """

    total: int
    certified: int
    uncertified: int
    shed: int
    deadline_hit_rate: float
    p99_in_deadline_ms: float

    @classmethod
    def from_outcomes(
        cls,
        latencies_s: Sequence[float],
        certified_flags: Sequence[bool],
        shed: int,
        deadline_seconds: float | None = None,
    ) -> "ServiceLevelSummary":
        if len(latencies_s) != len(certified_flags):
            raise ValueError("one latency sample per served outcome required")
        arr = np.asarray(list(latencies_s), dtype=np.float64)
        served = int(arr.size)
        certified = int(sum(bool(c) for c in certified_flags))
        if deadline_seconds is None:
            in_deadline = arr
            hit_rate = 1.0 if served else 0.0
        else:
            in_deadline = arr[arr <= deadline_seconds]
            total_responses = served + shed
            hit_rate = (
                float(in_deadline.size) / total_responses
                if total_responses
                else 0.0
            )
        p99 = (
            float(np.percentile(in_deadline * 1e3, 99.0))
            if in_deadline.size
            else 0.0
        )
        return cls(
            total=served + shed,
            certified=certified,
            uncertified=served - certified,
            shed=shed,
            deadline_hit_rate=hit_rate,
            p99_in_deadline_ms=p99,
        )


@dataclass
class MetricAggregate:
    """Average / percentile summaries across many sequences."""

    values: np.ndarray

    @classmethod
    def over(cls, results: Sequence[SequenceResult], metric: str) -> "MetricAggregate":
        extractors = {
            "mso": lambda r: r.mso,
            "total_cost_ratio": lambda r: r.total_cost_ratio,
            "num_opt_percent": lambda r: r.num_opt_percent,
            "num_plans": lambda r: float(r.num_plans),
        }
        try:
            fn = extractors[metric]
        except KeyError:
            raise ValueError(
                f"unknown metric {metric!r}; options: {sorted(extractors)}"
            ) from None
        return cls(np.array([fn(r) for r in results], dtype=np.float64))

    @property
    def mean(self) -> float:
        return float(self.values.mean()) if self.values.size else 0.0

    def percentile(self, p: float) -> float:
        return float(np.percentile(self.values, p)) if self.values.size else 0.0

    @property
    def p95(self) -> float:
        return self.percentile(95.0)

    @property
    def maximum(self) -> float:
        return float(self.values.max()) if self.values.size else 0.0
