"""Lightweight decision spans for the SCR pipeline and engine calls.

A span is one timed phase of serving a query instance — the
selectivity check, the cost check, an optimizer call, the redundancy
check — with a small attribute bag (template, outcome, counts).  Spans
answer the question metrics aggregates can't: *where did this
particular response spend its time, and which check decided it?*

Spans carry the causal triple (``trace_id``/``span_id``/``parent_id``)
filled from the ambient :mod:`~repro.obs.tracectx` context, so every
phase of one request — across threads and, via
:meth:`SpanRecorder.ingest`, across processes — links into a single
tree under one trace ID.  Recording outside any trace context leaves
the IDs empty, which keeps old flat-span call sites valid.

Things that happen at an instant rather than over an interval — an
engine fault, a retry, a breaker flip, a shed, a brownout move — are
zero-duration **event spans** (:meth:`SpanRecorder.event`, names in
:data:`EVENT_NAMES`).  They are recorded inside the ambient context
like any other span, so an event parents under the request that
suffered it and a request's tree shows *why* it was shed or retried.

The recorder is a bounded ring buffer: a serving process emitting
spans forever must not grow without bound, so old spans (events
included) are dropped and counted instead.  Sinks receive every span
as it completes (how the JSONL streaming exporter and the per-trace
collector hook in), and a raising sink is isolated from the
instrumented hot path: errors are counted and a sink that fails
:data:`SINK_DETACH_AFTER` consecutive times is detached.
"""

from __future__ import annotations

import threading
from collections import namedtuple
from typing import Callable, Optional

from .clock import Clock, SYSTEM_CLOCK
from .tracectx import _CURRENT, IdSource, TraceContext, child_context

#: Default ring capacity; ~100 bytes/span keeps this comfortably small.
DEFAULT_SPAN_CAPACITY = 16384

#: A live sink that raises this many times in a row is detached.
SINK_DETACH_AFTER = 8

#: Spans a :class:`TraceCollector` keeps per trace before dropping.
MAX_SPANS_PER_TRACE = 256

#: Every zero-duration event span the stack emits (DESIGN.md §10 lists
#: their attributes).  Forensics uses this to tell an ``engine.fault``
#: from engine *work* such as ``engine.recost``.
EVENT_NAMES = frozenset({
    "engine.fault", "engine.retry", "engine.breaker", "engine.degraded",
    "serving.epoch_retry", "serving.single_flight_collapse",
    "serving.batch_dedupe",
    "overload.shed", "overload.uncertified_serve", "overload.queue_reject",
    "overload.brownout",
})


class Span(
    namedtuple(
        "Span",
        "name seq start_s duration_s attrs trace_id span_id parent_id",
    )
):
    """One completed timed phase: an immutable slotted record, built
    positionally on the hot path.  ``attrs`` defaults to a fresh dict
    per span, never to one shared default."""

    __slots__ = ()

    def __new__(
        cls,
        name: str,
        seq: int,
        start_s: float,
        duration_s: float,
        attrs: Optional[dict] = None,
        trace_id: str = "",
        span_id: str = "",
        parent_id: str = "",
    ) -> "Span":
        return tuple.__new__(cls, (
            name, seq, start_s, duration_s,
            {} if attrs is None else attrs, trace_id, span_id, parent_id,
        ))

    def to_jsonable(self, include_timing: bool = True) -> dict:
        """One JSONL row.  Timing can be excluded for byte-reproducible
        golden fixtures of deterministic runs.  The causal IDs are
        emitted only when set, so untraced spans keep the v1 row shape."""
        row: dict = {"span": self.name, "seq": self.seq}
        if self.trace_id:
            row["trace_id"] = self.trace_id
        if self.span_id:
            row["span_id"] = self.span_id
        if self.parent_id:
            row["parent_id"] = self.parent_id
        if include_timing:
            row["start_s"] = round(self.start_s, 9)
            row["duration_s"] = round(self.duration_s, 9)
        if self.attrs:
            row["attrs"] = {
                k: self.attrs[k] for k in sorted(self.attrs)
            }
        return row

    @classmethod
    def from_jsonable(cls, row: dict) -> "Span":
        """Rebuild a span from a JSONL row (the cross-process path:
        worker spans ride Response messages as jsonable dicts and are
        re-ingested on the supervisor)."""
        return cls(
            name=row.get("span", ""),
            seq=int(row.get("seq", 0)),
            start_s=float(row.get("start_s", 0.0)),
            duration_s=float(row.get("duration_s", 0.0)),
            attrs=dict(row.get("attrs", {})),
            trace_id=row.get("trace_id", ""),
            span_id=row.get("span_id", ""),
            parent_id=row.get("parent_id", ""),
        )


class SpanRecorder:
    """Thread-safe bounded recorder of :class:`Span` events.

    ``enabled=False`` makes every operation a near-free no-op, so the
    instrumented hot paths cost one attribute check when spans are off.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_SPAN_CAPACITY,
        clock: Clock = SYSTEM_CLOCK,
        enabled: bool = True,
    ) -> None:
        if capacity < 1:
            raise ValueError("span capacity must be >= 1")
        self.capacity = capacity
        self.clock = clock
        self.enabled = enabled
        self._lock = threading.Lock()
        self._ring: list[Optional[Span]] = []
        self._start = 0           # ring read position once saturated
        self._next_seq = 0
        self.dropped = 0
        # A tuple swapped whole on attach/detach, so a record reads it
        # without copying.
        self._sinks: tuple[Callable[[Span], None], ...] = ()
        self._sink_failstreak: dict[int, int] = {}
        self.sink_errors = 0
        self.sinks_detached = 0
        #: Optional counter child bumped per sink error
        #: (``repro_span_sink_errors_total``, attached by Observability).
        self.sink_error_counter = None
        #: ID source for the trace contexts minted over this recorder;
        #: tests set a seeded :class:`IdSource` for deterministic golden
        #: fixtures.
        self.ids: Optional[IdSource] = None

    def attach_sink(self, sink: Callable[[Span], None]) -> None:
        """Stream every subsequently recorded span to ``sink`` too."""
        with self._lock:
            self._sinks += (sink,)
            self._sink_failstreak[id(sink)] = 0

    def _detach_locked(self, sink: Callable[[Span], None]) -> None:
        try:
            i = self._sinks.index(sink)
        except ValueError:
            return
        self._sinks = self._sinks[:i] + self._sinks[i + 1:]
        self._sink_failstreak.pop(id(sink), None)
        self.sinks_detached += 1

    def _emit(self, span: Span, sinks: tuple) -> None:
        """Feed sinks outside the ring lock, isolating failures.

        A sink raising must never break the serving path it observes;
        one that raises :data:`SINK_DETACH_AFTER` times in a row is
        assumed wedged (closed file, dead socket) and detached.
        """
        for sink in sinks:
            try:
                sink(span)
            except Exception:
                with self._lock:
                    self.sink_errors += 1
                    streak = self._sink_failstreak.get(id(sink), 0) + 1
                    self._sink_failstreak[id(sink)] = streak
                    if streak >= SINK_DETACH_AFTER:
                        self._detach_locked(sink)
                counter = self.sink_error_counter
                if counter is not None:
                    counter.inc()
            else:
                if self._sink_failstreak.get(id(sink), 0):
                    with self._lock:
                        if id(sink) in self._sink_failstreak:
                            self._sink_failstreak[id(sink)] = 0

    def record(
        self,
        name: str,
        start_s: float,
        duration_s: float,
        span_id: Optional[str] = None,
        **attrs: object,
    ) -> Optional[Span]:
        """Record one completed span.

        The causal IDs come from the ambient trace context: a span
        recorded inside ``activate(ctx)`` gets ``ctx.trace_id`` and
        parents under ``ctx.span_id``.  Pass ``span_id`` explicitly for
        the span that *is* the context — the request-level span whose
        ID the children already parented under.
        """
        if not self.enabled:
            return None
        ctx = _CURRENT.get()
        if ctx is not None:
            trace_id = ctx.trace_id
            if span_id is not None:
                sid, parent = span_id, ctx.parent_id
            else:
                sid, parent = "", ctx.span_id
        else:
            trace_id, sid, parent = "", span_id or "", ""
        with self._lock:
            span = Span(
                name, self._next_seq, start_s, duration_s, attrs,
                trace_id, sid, parent,
            )
            self._keep_locked(span)
            sinks = self._sinks
        if sinks:
            self._emit(span, sinks)
        return span

    def _keep_locked(self, span: Span) -> None:
        """Append ``span`` to the ring (evicting the oldest once full);
        caller holds the lock."""
        self._next_seq += 1
        if len(self._ring) < self.capacity:
            self._ring.append(span)
        else:
            self._ring[self._start] = span
            self._start = (self._start + 1) % self.capacity
            self.dropped += 1

    def event(self, name: str, **attrs: object) -> Optional[Span]:
        """Record something that happened *now*: a zero-duration span
        (one of :data:`EVENT_NAMES`) under the ambient trace context.
        A no-op when spans are off."""
        if not self.enabled:
            return None
        return self.record(name, self.clock.perf_counter(), 0.0, **attrs)

    def ingest(self, span: Span) -> Optional[Span]:
        """Adopt a span recorded elsewhere (another process), keeping
        its causal IDs and timing but assigning a local sequence."""
        if not self.enabled:
            return None
        with self._lock:
            local = Span(
                span.name, self._next_seq, span.start_s, span.duration_s,
                span.attrs, span.trace_id, span.span_id, span.parent_id,
            )
            self._keep_locked(local)
            sinks = self._sinks
        if sinks:
            self._emit(local, sinks)
        return local

    def spans(self) -> list[Span]:
        """Retained spans, oldest first."""
        with self._lock:
            return self._ring[self._start:] + self._ring[:self._start]

    def trace(self, trace_id: str) -> list[Span]:
        """Retained spans belonging to one trace, oldest first."""
        return [s for s in self.spans() if s.trace_id == trace_id]

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    @property
    def total_recorded(self) -> int:
        with self._lock:
            return self._next_seq

    def clear(self) -> None:
        with self._lock:
            self._ring = []
            self._start = 0
            self.dropped = 0


class TraceCollector:
    """A sink bucketing spans by trace ID for per-request shipping.

    Workers attach one of these so a finished request's spans can be
    popped and ridden back to the supervisor on the Response.  Bounded:
    at most ``max_traces`` traces and :data:`MAX_SPANS_PER_TRACE` spans
    per trace are retained (oldest traces evicted first), so an
    orphaned trace can't grow the worker without limit.
    """

    def __init__(self, max_traces: int = 1024) -> None:
        self.max_traces = max_traces
        self._lock = threading.Lock()
        self._traces: dict[str, list[Span]] = {}
        self.evicted_traces = 0
        self.dropped_spans = 0

    def __call__(self, span: Span) -> None:
        if not span.trace_id:
            return
        with self._lock:
            bucket = self._traces.get(span.trace_id)
            if bucket is None:
                while len(self._traces) >= self.max_traces:
                    oldest = next(iter(self._traces))
                    del self._traces[oldest]
                    self.evicted_traces += 1
                bucket = self._traces[span.trace_id] = []
            if len(bucket) >= MAX_SPANS_PER_TRACE:
                self.dropped_spans += 1
                return
            bucket.append(span)

    def pop(self, trace_id: str) -> list[Span]:
        """Remove and return one trace's spans (empty if unknown)."""
        with self._lock:
            return self._traces.pop(trace_id, [])

    def __len__(self) -> int:
        with self._lock:
            return len(self._traces)


__all__ = [
    "DEFAULT_SPAN_CAPACITY",
    "EVENT_NAMES",
    "SINK_DETACH_AFTER",
    "Span",
    "SpanRecorder",
    "TraceCollector",
    "TraceContext",
    "child_context",
]
