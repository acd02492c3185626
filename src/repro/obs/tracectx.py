"""Causal trace context for end-to-end distributed tracing.

PR 4's spans were flat — each one a timed phase with attributes, but
with no way to say *this* ``engine.recost`` belongs to *that* request.
This module adds the three-ID causal model every tracing system
converges on (trace, span, parent) carried by a :mod:`contextvars`
context variable, so propagation:

* survives the serving thread pool — a submission captures the ambient
  context and re-activates it inside whichever worker thread serves it;
* survives single-flight collapsing — the follower keeps its own
  request context while it waits on the leader's optimize;
* survives batch probes — a served group (a ``process_many`` template
  group, or a single request as a group of one) is one unit of work
  served by one thread, so the group shares one context and its rows
  are columns of one ``serving.batch`` span;
* crosses process boundaries — the cluster transport carries
  ``trace_id``/``parent_span_id`` fields, so a worker's serve spans
  parent under the supervisor-side request span (including the
  retried-on-peer path, where both incarnations' spans share one
  trace).

IDs are 16-hex-char strings from a seedable :class:`IdSource`, so
golden fixtures and differential tests can pin the exact IDs while
production traffic gets process-random ones.
"""

from __future__ import annotations

import random
import threading
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Optional

#: Version of the span JSONL schema (bumped when the row shape changes;
#: v2 added trace_id/span_id/parent_id and the header line).
SPAN_SCHEMA_VERSION = 2


@dataclass(frozen=True)
class TraceContext:
    """One request's position in its trace: who am I, who called me.

    ``span_id`` is the ID of the span *currently being served* — spans
    recorded while this context is active parent under it; the span
    that closes the context records itself *with* this ID.
    """

    trace_id: str
    span_id: str
    parent_id: str = ""

    def child(self, ids: Optional["IdSource"] = None) -> "TraceContext":
        """A child context: same trace, fresh span ID, parented here."""
        source = ids if ids is not None else _PROCESS_IDS
        return TraceContext(
            trace_id=self.trace_id,
            span_id=source.span_id(),
            parent_id=self.span_id,
        )


class IdSource:
    """Thread-safe 64-bit hex ID generator, seedable for determinism.

    The default (unseeded) instance draws from an OS-entropy-seeded
    :class:`random.Random`; tests and golden fixtures pass a seed so a
    rebuilt trace is byte-identical.
    """

    def __init__(self, seed: Optional[int] = None) -> None:
        self._rng = random.Random(seed)
        self._lock = threading.Lock()

    def _hex(self) -> str:
        with self._lock:
            value = self._rng.getrandbits(64)
        # Never all-zero: an empty/zero ID means "no context" on the wire.
        return f"{value or 1:016x}"

    def trace_id(self) -> str:
        return self._hex()

    def span_id(self) -> str:
        return self._hex()


#: Process-wide default ID source (unseeded: unique across runs).
_PROCESS_IDS = IdSource()

_CURRENT: ContextVar[Optional[TraceContext]] = ContextVar(
    "repro_trace_context", default=None
)


def current_context() -> Optional[TraceContext]:
    """The ambient trace context, or None outside any trace."""
    return _CURRENT.get()


def start_trace(
    trace_id: Optional[str] = None,
    parent_id: str = "",
    ids: Optional[IdSource] = None,
) -> TraceContext:
    """Mint a root (or remotely-parented) context without activating it.

    ``trace_id``/``parent_id`` restore a context that arrived over the
    wire — the new span ID is local, the causality remote.
    """
    source = ids if ids is not None else _PROCESS_IDS
    return TraceContext(
        trace_id=trace_id if trace_id else source.trace_id(),
        span_id=source.span_id(),
        parent_id=parent_id,
    )


def child_context(ids: Optional[IdSource] = None) -> TraceContext:
    """A child of the ambient context — or a fresh root if there is none."""
    ambient = _CURRENT.get()
    if ambient is not None:
        return ambient.child(ids)
    return start_trace(ids=ids)


class activate:
    """Make ``ctx`` the ambient context for the dynamic extent.

    ``None`` is accepted and deactivates tracing for the scope (used by
    pool threads re-activating whatever the submitter captured, which
    may legitimately be nothing).  A class rather than a generator
    context manager: it runs once per served request or group.
    """

    __slots__ = ("_ctx", "_token")

    def __init__(self, ctx: Optional[TraceContext]) -> None:
        self._ctx = ctx

    def __enter__(self) -> Optional[TraceContext]:
        self._token = _CURRENT.set(self._ctx)
        return self._ctx

    def __exit__(self, *exc: object) -> None:
        _CURRENT.reset(self._token)
