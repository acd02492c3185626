"""A dependency-free, thread-safe metrics registry.

Every number the serving stack reports — a shard's ``ServingStats``
row, the overload subsystem's state, engine faults and retries, the
guarantee audit — is a child of one registry of labeled metric families:

* :class:`Counter` — monotonically increasing totals;
* :class:`Gauge` — settable point-in-time values (queue depth,
  brownout level, breaker state);
* :class:`Histogram` — cumulative-bucket distributions with
  configurable edges (engine-call latency, certified bounds).

Families are identified by name and a fixed tuple of label names;
``family.labels(template="t1", api="recost")`` returns (creating on
first use) the child holding that label-set's values.  Children are
cheap handles meant to be resolved once and incremented many times on
the hot path.  Everything is guarded by fine-grained locks, and label
cardinality is capped per family so a bug interpolating unbounded
values into a label can never eat the process's memory.

:meth:`MetricsRegistry.snapshot` is the one format derived views read
(the doctor, SLO samplers, the supervisor's merged exposition and its
tombstones), through two readers kept here: :func:`group_sum` and
:func:`bucket_quantile`.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from typing import Iterable, Optional, Sequence


class LabelCardinalityError(ValueError):
    """A metric family exceeded its configured label-set cap."""


#: Default per-family cap on distinct label sets.  Generous for the
#: bounded label spaces used here (templates × checks × outcomes).
DEFAULT_MAX_SERIES = 512

#: Default histogram buckets for engine-call / serving latencies, in
#: seconds.  Upper edges are inclusive (Prometheus ``le`` semantics).
LATENCY_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.010, 0.025, 0.050,
    0.100, 0.250, 0.500, 1.0, 2.5,
)

#: Default buckets for certified sub-optimality bounds: dense near 1
#: (most certificates are tight) and sparse toward the λ values the
#: reproduction actually runs with.
BOUND_BUCKETS = (
    1.0, 1.1, 1.2, 1.35, 1.5, 1.75, 2.0, 2.5, 3.0, 4.0, 6.0,
)


def _validate_name(name: str) -> None:
    if not name or not all(c.isalnum() or c in "_:" for c in name):
        raise ValueError(f"invalid metric name {name!r}")


class Counter:
    """One label-set's monotonically increasing total."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge:
    """One label-set's point-in-time value."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """One label-set's bucketed distribution.

    ``buckets`` are finite upper edges; an implicit ``+Inf`` bucket
    catches the tail.  An observation lands in the first bucket whose
    edge is ``>= value`` (inclusive upper edges), and ``bucket_counts``
    reports *cumulative* counts, matching Prometheus exposition.
    """

    __slots__ = ("_lock", "buckets", "_counts", "_sum", "_count")

    def __init__(self, buckets: Sequence[float]) -> None:
        edges = tuple(float(b) for b in buckets)
        if not edges:
            raise ValueError("histogram needs at least one bucket edge")
        if list(edges) != sorted(set(edges)):
            raise ValueError("bucket edges must be strictly increasing")
        self._lock = threading.Lock()
        self.buckets = edges
        self._counts = [0] * (len(edges) + 1)  # +Inf tail bucket
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        index = bisect_left(self.buckets, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def bucket_counts(self) -> list[tuple[float, int]]:
        """Cumulative ``(upper_edge, count)`` pairs, ending at +Inf."""
        with self._lock:
            counts = list(self._counts)
        cumulative, out = 0, []
        for edge, c in zip(self.buckets, counts):
            cumulative += c
            out.append((edge, cumulative))
        out.append((math.inf, cumulative + counts[-1]))
        return out

    def snapshot(self) -> dict[str, object]:
        """This child's series fields in :meth:`MetricsRegistry.snapshot`."""
        return {
            "count": self.count,
            "sum": self.sum,
            "buckets": [
                ["+Inf" if edge == math.inf else edge, c]
                for edge, c in self.bucket_counts()
            ],
        }

    def quantile(self, q: float) -> float:
        """Bucket-interpolated quantile estimate (0 <= q <= 1); see
        :func:`bucket_quantile`."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        return bucket_quantile(self.bucket_counts(), q)


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricFamily:
    """All children (label sets) of one named metric."""

    def __init__(
        self,
        name: str,
        help: str,
        kind: str,
        label_names: tuple[str, ...],
        buckets: Optional[Sequence[float]] = None,
        max_series: int = DEFAULT_MAX_SERIES,
    ) -> None:
        _validate_name(name)
        for label in label_names:
            _validate_name(label)
        self.name = name
        self.help = help
        self.kind = kind
        self.label_names = label_names
        self.buckets = tuple(buckets) if buckets is not None else None
        self.max_series = max_series
        self._lock = threading.Lock()
        self._children: dict[tuple[str, ...], object] = {}

    def labels(self, **labels: object):
        """The child for one label set (created on first use)."""
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"{self.name} takes labels {self.label_names}, "
                f"got {tuple(sorted(labels))}"
            )
        key = tuple(str(labels[name]) for name in self.label_names)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                if len(self._children) >= self.max_series:
                    raise LabelCardinalityError(
                        f"{self.name} exceeded {self.max_series} label sets; "
                        "a label is probably carrying unbounded values"
                    )
                if self.kind == "histogram":
                    child = Histogram(self.buckets)
                else:
                    child = _KINDS[self.kind]()
                self._children[key] = child
            return child

    def samples(self) -> list[tuple[tuple[str, ...], object]]:
        """``(label_values, child)`` pairs in sorted label order."""
        with self._lock:
            return sorted(self._children.items())

    def snapshot(self) -> dict[str, object]:
        """This family's entry in :meth:`MetricsRegistry.snapshot`."""
        series = []
        for values, child in self.samples():
            labels = dict(zip(self.label_names, values))
            if self.kind == "histogram":
                series.append({"labels": labels, **child.snapshot()})
            else:
                series.append({"labels": labels, "value": child.value})
        return {"kind": self.kind, "help": self.help, "series": series}

    @property
    def series_count(self) -> int:
        with self._lock:
            return len(self._children)


class MetricsRegistry:
    """The process's (or one manager's) named metric families.

    Re-requesting a family with the same name returns the existing one
    after checking that kind, labels and buckets agree — so every layer
    can idempotently declare the metrics it writes.
    """

    def __init__(self, max_series_per_family: int = DEFAULT_MAX_SERIES) -> None:
        self._lock = threading.Lock()
        self._families: dict[str, MetricFamily] = {}
        self.max_series_per_family = max_series_per_family

    def _family(
        self,
        name: str,
        help: str,
        kind: str,
        labels: Iterable[str],
        buckets: Optional[Sequence[float]] = None,
    ) -> MetricFamily:
        label_names = tuple(labels)
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if family.kind != kind or family.label_names != label_names:
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{family.kind}{family.label_names}, requested "
                        f"{kind}{label_names}"
                    )
                if kind == "histogram" and buckets is not None and (
                    family.buckets != tuple(buckets)
                ):
                    raise ValueError(
                        f"metric {name!r} already registered with buckets "
                        f"{family.buckets}"
                    )
                return family
            family = MetricFamily(
                name, help, kind, label_names, buckets=buckets,
                max_series=self.max_series_per_family,
            )
            self._families[name] = family
            return family

    def counter(self, name: str, help: str = "", labels: Iterable[str] = ()) -> MetricFamily:
        return self._family(name, help, "counter", labels)

    def gauge(self, name: str, help: str = "", labels: Iterable[str] = ()) -> MetricFamily:
        return self._family(name, help, "gauge", labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Iterable[str] = (),
        buckets: Sequence[float] = LATENCY_BUCKETS,
    ) -> MetricFamily:
        return self._family(name, help, "histogram", labels, buckets=buckets)

    def families(self) -> list[MetricFamily]:
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    def get(self, name: str) -> Optional[MetricFamily]:
        with self._lock:
            return self._families.get(name)

    def value(self, name: str, **labels: object) -> float:
        """Convenience point-read of one counter/gauge child (0 if absent)."""
        family = self.get(name)
        if family is None:
            return 0.0
        key = tuple(str(labels[n]) for n in family.label_names)
        with family._lock:
            child = family._children.get(key)
        if child is None:
            return 0.0
        return child.value

    def total(self, name: str, **fixed: object) -> float:
        """Sum a counter/gauge family across children matching ``fixed``."""
        family = self.get(name)
        if family is None:
            return 0.0
        wanted = {
            family.label_names.index(k): str(v) for k, v in fixed.items()
        }
        out = 0.0
        for values, child in family.samples():
            if all(values[i] == v for i, v in wanted.items()):
                out += child.value
        return out

    def snapshot(self) -> dict[str, object]:
        """A plain-dict dump of every family (JSON-serializable):
        ``{name: {"kind", "help", "series"}}``, a series row being
        ``labels`` (declared order) plus ``value``, or ``count`` /
        ``sum`` / cumulative ``buckets`` ending at edge ``"+Inf"``."""
        return {family.name: family.snapshot() for family in self.families()}


# -- snapshot readers ---------------------------------------------------------


def bucket_quantile(pairs: Sequence, q: float) -> float:
    """Bucket-interpolated quantile over cumulative ``(edge, count)`` pairs.

    Linear interpolation inside the bucket the target rank ``q · total``
    falls in — the estimate a percentile gets once the raw samples are
    gone.  The open-ended tail (edge ``float("inf")`` or the snapshot's
    ``"+Inf"``) clamps to the last finite edge; an empty histogram is 0.
    """
    total = pairs[-1][1] if pairs else 0
    if total == 0:
        return 0.0
    rank = q * total
    previous_edge, previous_cum = 0.0, 0
    for edge, cum in pairs:
        if cum >= rank:
            if edge == math.inf or edge == "+Inf":
                return previous_edge
            span = cum - previous_cum
            if span == 0:
                return edge
            fraction = (rank - previous_cum) / span
            return previous_edge + fraction * (edge - previous_edge)
        previous_edge, previous_cum = edge, cum
    return previous_edge


def group_sum(
    snapshots: Iterable[dict],
    name: str,
    by: Optional[Sequence[str]] = None,
    **where: object,
) -> dict[tuple, dict]:
    """Sum family ``name``'s series across registry snapshots.

    Keeps the series whose labels equal every ``where`` value (compared
    as strings) and groups them by the values of the ``by`` labels —
    every label when ``by`` is None, none (one grand total) when it is
    ``()``.  Returns ``{group key: row}`` in first-seen order, each row
    a snapshot series whose ``labels`` are the grouping labels:
    counters add ``value``; histograms add ``count``, ``sum`` and each
    cumulative bucket (edges as the first row spelled them); gauges
    keep the last source's ``value``.
    """
    wanted = [(label, str(value)) for label, value in where.items()]
    groups: dict[tuple, dict] = {}
    for snapshot in snapshots:
        family = snapshot.get(name)
        if not family:
            continue
        kind = family.get("kind", "counter")
        for row in family.get("series", ()):
            labels = row.get("labels", {})
            if wanted and any(str(labels.get(k)) != v for k, v in wanted):
                continue
            if by is None:
                key = tuple(sorted(labels.items()))
            else:
                key = tuple([labels.get(label, "") for label in by])
            into = groups.get(key)
            if into is None:  # a copy: the inputs are never mutated
                into = groups[key] = {
                    **row,
                    "labels": dict(labels) if by is None else dict(zip(by, key)),
                }
                if kind == "histogram":
                    into["buckets"] = [[edge, c] for edge, c in row["buckets"]]
            elif kind == "histogram":
                into["count"] += row["count"]
                into["sum"] += row["sum"]
                for pair, (_, c) in zip(into["buckets"], row["buckets"]):
                    pair[1] += c
            elif kind == "gauge":
                into["value"] = row["value"]
            else:
                into["value"] += row["value"]
    return groups
