"""Spans recorded from outside the program, and self time computed from them.

The traced run wraps public calls *on the instances the benchmark built*
(``tracer.wrap(obj, "method", "layer.name")``); nothing under ``src/`` is
edited.  A span is ``[name, start, end, parent, request_id]``; a layer's
self time is a span's duration minus the part of that interval its child
spans cover (children are clipped to the parent and unioned, so siblings
that overlap — a batch fanned out to two threads — are not subtracted
twice).
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from typing import Callable, Iterable, Optional

NAME, START, END, PARENT, REQUEST = range(5)

#: Name of the span the driver loop opens around one request (or one
#: batch).  It belongs to no layer: its self time is the loop's own cost
#: plus any wait no wrapped call covers.
ROOT = "request"


class Tracer:
    """In-memory span recorder with per-thread stacks.

    One closed-loop client drives the system, so a span that opens on a
    pool thread with an empty stack is caused by whatever the client
    thread has open at that moment; that span becomes its parent.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.request_id = -1
        self._tls = threading.local()
        self._client_stack = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def wrap(self, obj: object, attr: str, name: str) -> None:
        """Replace ``obj.attr`` with a wrapper recording a ``name`` span."""
        setattr(obj, attr, self.traced(getattr(obj, attr), name))

    def traced(self, inner: Callable, name: str) -> Callable:
        spans = self.spans
        get_stack = self._stack
        client_stack = self._client_stack
        perf = time.perf_counter

        def call(*args, **kwargs):
            stack = get_stack()
            if stack:
                parent = stack[-1]
            elif stack is not client_stack and client_stack:
                parent = client_stack[-1]
            else:
                parent = None
            span = [name, 0.0, 0.0, parent, self.request_id]
            spans.append(span)
            stack.append(span)
            span[START] = perf()
            try:
                return inner(*args, **kwargs)
            finally:
                span[END] = perf()
                stack.pop()

        return call

    def client_call(self, inner: Callable) -> Callable:
        """Wrap the driver's per-request call: a new request id and a
        :data:`ROOT` span around it."""
        rooted = self.traced(inner, ROOT)

        def call(*args, **kwargs):
            self.request_id += 1
            return rooted(*args, **kwargs)

        return call


def covered(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans: list[list]) -> list[float]:
    """Self time of every span, in the order given."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        parent = span[PARENT]
        if parent is None:
            continue
        start = max(span[START], parent[START])
        end = min(span[END], parent[END])
        if end > start:
            children[id(parent)].append((start, end))
    return [
        (span[END] - span[START]) - covered(children.get(id(span), ()))
        for span in spans
    ]


def layer_of(name: str) -> Optional[str]:
    """``"core.probe"`` → ``"core"``; the root span has no layer."""
    return None if name == ROOT else name.split(".", 1)[0]


def write_jsonl(path: str, passes: list[list[list]]) -> int:
    """Write every pass's spans as JSON lines; returns the line count.

    Span ids are per-file line numbers, so ``parent`` is the line of the
    causing span (-1 for a root).
    """
    lines = 0
    with open(path, "w") as f:
        for pass_index, spans in enumerate(passes):
            ids = {id(span): lines + i for i, span in enumerate(spans)}
            for span in spans:
                parent = span[PARENT]
                f.write(
                    '{"id": %d, "pass": %d, "name": "%s", "start": %.9f, '
                    '"end": %.9f, "parent": %d, "request": %d}\n' % (
                        ids[id(span)], pass_index, span[NAME], span[START],
                        span[END], -1 if parent is None else ids[id(parent)],
                        span[REQUEST],
                    )
                )
            lines += len(spans)
    return lines
