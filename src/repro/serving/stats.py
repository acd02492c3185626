"""Per-shard serving statistics: one shard's view of the metrics registry.

Each :class:`~repro.serving.shard.TemplateShard` owns one
:class:`ServingStats`.  It holds no numbers of its own: every count,
gauge and latency sample is written to a registry child resolved once at
construction, and every column of the operator's report —
:meth:`ServingStats.row`, :func:`merge_rows` — is read back from those
children.  The registry is the handle's when the manager has an
:class:`~repro.obs.handle.Observability`, a private one otherwise, so
the exactly-one-outcome identity (certified + uncertified + shed ==
responses) is kept by the same audit counters either way.

What stays outside the registry is what synchronisation or arithmetic
needs: the queue depth and its high-water mark, guarded by the overload
coordinator's lock (``try_enqueue``'s check-and-increment must be
atomic; the gauges mirror them), the two timestamps
behind ``throughput_s``, and the :class:`ConcurrencyGauge` of engine
calls in flight.
"""

from __future__ import annotations

import threading
import time

from ..harness.metrics import LatencySummary
from ..obs.audit import GuaranteeAudit
from ..obs.registry import bucket_quantile, group_sum

SERVING_LATENCY_SECONDS = "repro_serving_latency_seconds"
CHECKS_TOTAL = "repro_checks_total"
QUEUE_DEPTH = "repro_queue_depth"
QUEUE_HIGH_WATER = "repro_queue_high_water"
QUEUE_REJECTS_TOTAL = "repro_queue_rejects_total"
DEADLINE_MISSES_TOTAL = "repro_deadline_misses_total"
GATE_TIMEOUTS_TOTAL = "repro_gate_timeouts_total"
OVERLOAD_SERVES_TOTAL = "repro_overload_serves_total"
EPOCH_RETRIES_TOTAL = "repro_epoch_retries_total"
SINGLE_FLIGHT_COLLAPSED_TOTAL = "repro_single_flight_collapsed_total"
BATCH_DEDUPED_TOTAL = "repro_batch_deduped_total"
LOCK_WAIT_SECONDS_TOTAL = "repro_shard_lock_wait_seconds_total"


class ConcurrencyGauge:
    """Tracks how many engine calls are in flight and the peak seen.

    A call enters in one lock section, which counts it and reads how
    many calls have left, so the peak is exact; it leaves by a lock-free
    (atomic) append to the list :meth:`enter` returned."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._left: list = []
        self._entered = 0
        self.peak = 0

    def enter(self) -> list:
        with self._lock:
            left = self._left
            if len(left) > 1024:  # keep it short; racing appends land after
                gone = len(left)
                del left[:gone]
                self._entered -= gone
            self._entered += 1
            self.peak = max(self.peak, self._entered - len(left))
        return left


#: The per-template families a shard writes besides the audit's own
#: (outcomes, certificates, interval widths): attribute -> (registry
#: method, family name, help).
_FAMILIES = {
    "_m_latency": ("histogram", SERVING_LATENCY_SECONDS,
                   "End-to-end serving latency per template"),
    "_m_queue": ("gauge", QUEUE_DEPTH,
                 "Outstanding (queued + running) requests"),
    "_m_queue_hw": ("gauge", QUEUE_HIGH_WATER,
                    "Highest outstanding-request count seen"),
    "_m_queue_rejects": ("counter", QUEUE_REJECTS_TOTAL,
                         "Submissions refused by the bounded ingress queue"),
    "_m_deadline": ("counter", DEADLINE_MISSES_TOTAL,
                    "Completions past their deadline"),
    "_m_gate": ("counter", GATE_TIMEOUTS_TOTAL,
                "Misses denied by the optimizer admission gate"),
    "_m_overload_serves": ("counter", OVERLOAD_SERVES_TOTAL,
                           "Uncertified serves on the overload degraded path"),
    "_m_epoch_retries": ("counter", EPOCH_RETRIES_TOTAL,
                         "Probed hits re-probed because their anchor vanished"),
    "_m_single_flight": ("counter", SINGLE_FLIGHT_COLLAPSED_TOTAL,
                         "Misses that waited on another thread's optimizer call"),
    "_m_deduped": ("counter", BATCH_DEDUPED_TOTAL,
                   "Batch submissions sharing an identical earlier instance"),
    "_m_lock_wait": ("counter", LOCK_WAIT_SECONDS_TOTAL,
                     "Time spent waiting for the shard write lock"),
}


def _count(child_attr: str) -> property:
    """Read-only integer view of one counter/gauge child."""
    return property(lambda self: int(getattr(self, child_attr).value))


class ServingStats:
    """One shard's serving accounting, kept in ``audit``'s registry."""

    def __init__(self, template: str, audit: GuaranteeAudit) -> None:
        self.template = template
        self.audit = audit
        self.engine_calls = ConcurrencyGauge()
        registry = audit.registry
        self._m_outcome = audit.outcome_children(template)
        self._m_cert = audit.certificate_children(template)
        self._m_width = audit.width_child(template)
        for attr, (kind, name, help) in _FAMILIES.items():
            family = getattr(registry, kind)(name, help, labels=("template",))
            setattr(self, attr, family.labels(template=template))
        self._m_checks = registry.counter(
            CHECKS_TOTAL,
            "Served responses by deciding check",
            labels=("template", "check"),
        )
        self._m_row_children: dict = {}
        self._depth = 0
        self._high_water = 0
        self._started_at = time.perf_counter()
        self._last_at = 0.0

    def observe_group(self, choices, latencies, widths=()) -> None:
        """Record a group's served rows: ``choices`` and their
        ``latencies`` in serving order, and the robust rows' interval
        log ``widths``.

        This is the single accounting point for every *served* response
        (shed requests go through :meth:`note_shed` instead): each
        response's one outcome counter — certified or uncertified — its
        one certificate-kind counter and its deciding-check counter.  A
        choice's kind is the one it claims; an uncertified response
        counts as kind ``uncertified`` regardless of it (a degraded path
        may have invalidated the claim after the checks ran).  The rows
        are counted per ``(kind, check)`` and each pair's three counters,
        resolved once per shard, get one ``inc(n)``; one histogram write
        per family, whatever the group's size.
        """
        tally: dict[tuple, int] = {}
        for choice in choices:
            key = (
                choice.certificate if choice.certified else "uncertified",
                choice.check,
            )
            tally[key] = tally.get(key, 0) + 1
        for key, n in tally.items():
            # Benign race: a duplicate resolution finds the same children.
            children = self._m_row_children.get(key)
            if children is None:
                kind, check = key
                children = self._m_row_children[key] = (
                    self._m_cert[kind],
                    self._m_outcome[
                        "uncertified" if kind == "uncertified" else "certified"
                    ],
                    self._m_checks.labels(template=self.template, check=check),
                )
            for child in children:
                child.inc(n)
        if latencies:
            self._m_latency.observe_many(latencies)
        if widths:
            self._m_width.observe_many(widths)
        if choices:
            self._last_at = time.perf_counter()

    def add_lock_wait(self, seconds: float) -> None:
        self._m_lock_wait.inc(seconds)

    def note_epoch_retry(self) -> None:
        self._m_epoch_retries.inc()

    def note_single_flight(self) -> None:
        self._m_single_flight.inc()

    def note_deduped(self, count: int = 1) -> None:
        self._m_deduped.inc(count)

    # -- overload accounting -------------------------------------------------

    def try_enqueue(self, limit: int, rows: int = 1) -> int:
        """Claim up to ``rows`` bounded-queue slots and return how many
        were claimed (the rest are refused).  The caller holds the
        coordinator's lock, which guards every shard's depth: the depth
        and high-water gauges are written in that one lock section, the
        high-water mark compared against the locked depth."""
        entered = max(0, min(rows, limit - self._depth))
        if entered:
            self._depth += entered
            self._m_queue.set(self._depth)
            if self._depth > self._high_water:
                self._high_water = self._depth
                self._m_queue_hw.set(self._depth)
        if entered < rows:
            self._m_queue_rejects.inc(rows - entered)
        return entered

    def note_dequeued(self, rows: int = 1) -> None:
        """Release ``rows`` slots; the caller holds the coordinator's
        lock (:meth:`try_enqueue`)."""
        self._depth = max(0, self._depth - rows)
        self._m_queue.set(self._depth)

    def note_shed(self, reason: str = "unknown") -> None:
        """Record one refused request — the response's single outcome
        counter (and certificate kind) for the shed path."""
        self._m_outcome["shed"].inc()
        self._m_cert["shed"].inc()
        self.audit.degraded(self.template, "shed", reason)

    def note_overload_serve(self, reason: str = "brownout") -> None:
        # Reason accounting only: the outcome counter for an overload
        # serve is incremented by observe() when the response completes.
        self._m_overload_serves.inc()
        self.audit.degraded(self.template, "uncertified", reason)

    def note_deadline_miss(self) -> None:
        self._m_deadline.inc()

    def note_gate_timeout(self) -> None:
        self._m_gate.inc()

    # -- reporting -----------------------------------------------------------

    overload_serves = _count("_m_overload_serves")
    deadline_misses = _count("_m_deadline")
    gate_timeouts = _count("_m_gate")
    queue_rejects = _count("_m_queue_rejects")
    queue_high_water = _count("_m_queue_hw")
    batch_deduped = _count("_m_deduped")

    @property
    def queue_depth(self) -> int:
        return self._depth

    @property
    def shed(self) -> int:
        return int(self._m_outcome["shed"].value)

    def row(self) -> dict[str, object]:
        """One report row (matches the harness table format)."""
        latency = LatencySummary.from_histogram(self._m_latency)
        uncertified = int(self._m_outcome["uncertified"].value)
        processed = int(self._m_outcome["certified"].value) + uncertified
        window = self._last_at - self._started_at
        return {
            "template": self.template,
            "processed": processed,
            # Instances per second over the shard's active window.
            "throughput_s": round(processed / window, 1) if window > 0 else 0.0,
            "p50_ms": round(latency.p50_ms, 3),
            "p99_ms": round(latency.p99_ms, 3),
            "lock_wait_ms": round(self._m_lock_wait.value * 1e3, 3),
            "peak_engine_conc": self.engine_calls.peak,
            "sf_collapsed": int(self._m_single_flight.value),
            "deduped": self.batch_deduped,
            "epoch_retries": int(self._m_epoch_retries.value),
            "uncertified": uncertified,
            "shed": self.shed,
            "overload_serves": self.overload_serves,
            "deadline_miss": self.deadline_misses,
            "gate_timeouts": self.gate_timeouts,
            "queue_rejects": self.queue_rejects,
            "queue_hw": self.queue_high_water,
        }


#: TOTAL-row columns that are a maximum over shards; the percentiles are
#: recomputed from pooled buckets and every other column is a sum.
_MAXED = ("peak_engine_conc", "queue_hw")


def merge_rows(stats: list[ServingStats]) -> dict[str, object]:
    """The fleet-wide TOTAL row across a non-empty list of shards."""
    rows = [s.row() for s in stats]
    total: dict[str, object] = {"template": "TOTAL"}
    for key in list(rows[0])[1:]:
        values = [row[key] for row in rows]
        total[key] = max(values) if key in _MAXED else round(sum(values), 3)
    latency = {SERVING_LATENCY_SECONDS: {
        "kind": "histogram",
        "series": [s._m_latency.snapshot() for s in stats],
    }}
    pooled = group_sum([latency], SERVING_LATENCY_SECONDS, by=())[()]
    for key, q in (("p50_ms", 0.50), ("p99_ms", 0.99)):
        total[key] = round(bucket_quantile(pooled["buckets"], q) * 1e3, 3)
    return total
