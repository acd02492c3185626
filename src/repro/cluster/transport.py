"""Wire frames between the supervisor and its worker processes.

Everything here crosses a ``multiprocessing`` pipe under the spawn start
method.  A frame is a module-level :class:`typing.NamedTuple` of
primitives: it pickles as its class and a tuple of values, with no field
names and no instance dict.  :func:`encode_frame` / :func:`decode_frame`
are the one wire format: ``pickle`` at the highest protocol, one
``Connection.send_bytes`` message per frame.  A response carries a
*flattened* outcome — plan signature, certificate fields, counters —
rather than the :class:`~repro.core.technique.PlanChoice`: plan trees and
shrunken memos never leave the worker.  With worker-side verification on
it also ships the chosen plan's recosted cost at the served sVector, so
a benchmark can check the λ-certificate against its own oracle.
"""

from __future__ import annotations

import pickle
from typing import NamedTuple, Optional


class WorkerLostError(RuntimeError):
    """The owning worker died and no retry could serve this request.

    The terminal resolution of the drain protocol: an in-flight future
    whose worker crashed resolves as retried-on-peer (a normal result),
    shed, or this error — it never hangs.
    """

    def __init__(self, worker_id: str, detail: str = "") -> None:
        self.worker_id = worker_id
        super().__init__(
            f"worker {worker_id!r} lost" + (f": {detail}" if detail else "")
        )


class Request(NamedTuple):
    """One query instance bound for a worker."""

    request_id: int
    template_name: str
    sv: tuple[float, ...]
    sequence_id: int = -1
    attempt: int = 0
    # -- trace context (empty when the supervisor runs spans-off) -------------
    #: The supervisor-issued trace the worker's spans must join.
    trace_id: str = ""
    #: Supervisor-side span (the dispatch attempt) worker spans parent
    #: under — a re-dispatch after a death carries a *different* parent
    #: inside the *same* trace, so both incarnations' work stays one tree.
    parent_span_id: str = ""


class Response(NamedTuple):
    """A served (or failed) request coming back from a worker."""

    request_id: int
    worker_id: str
    incarnation: int
    template_name: str
    ok: bool
    #: Echo of the request's sequence id, so an external auditor can
    #: recover which workload instance (and thus which sVector) this
    #: response served without the supervisor keeping a side table.
    sequence_id: int = -1
    # -- flattened PlanChoice fields (when ok) --------------------------------
    check: str = ""
    plan_signature: str = ""
    certified: bool = False
    certificate: str = "uncertified"
    certified_bound: Optional[float] = None
    coverage: float = 1.0
    used_optimizer: bool = False
    recost_calls: int = 0
    #: Chosen plan's cost recosted at the served sVector (worker-side
    #: verification only) — the numerator of the oracle's SO(q).
    plan_cost_at_sv: Optional[float] = None
    # -- failure description (when not ok) ------------------------------------
    error_kind: str = ""      # "shed" | "shutdown" | "error"
    error_reason: str = ""
    #: Worker-side spans for this request's trace, as jsonable rows
    #: (``Span.to_jsonable``); the supervisor re-ingests them so one
    #: recorder holds the connected cross-process tree.  Empty when the
    #: worker runs spans-off.
    spans: tuple = ()


class Heartbeat(NamedTuple):
    """Periodic liveness + stats beacon from a worker.

    Registry facts travel once, inside ``registry``: the worker audit's
    outcome and λ-violation counters are read from it by the supervisor
    (advisory — the supervisor's own audit is the authoritative
    ledger).  The two counts beside it are not registry facts: error
    responses are never audited, and optimizer calls are SCR counters.
    """

    worker_id: str
    incarnation: int
    seq: int
    #: Requests answered, error responses included.
    requests_served: int
    optimizer_calls: int
    #: Full metrics-registry snapshot (merged into the cluster-wide
    #: Prometheus exposition, labeled by worker identity).  Both dict
    #: defaults are shared, never mutated: a received frame has its own.
    registry: dict = {}
    #: Per-template summaries — anchor attribution, getPlan counters,
    #: warm-start baselines, quarantine
    #: (:meth:`~repro.serving.manager.ConcurrentPQOManager.anchor_summaries`)
    #: — flat int dicts the cluster doctor view checks and sums.
    anchor_summary: dict = {}


class Ready(NamedTuple):
    """Worker finished booting (and warm-starting) and is serving."""

    worker_id: str
    incarnation: int
    #: Templates restored from snapshots vs started cold — the warm-start
    #: accounting the chaos gate's ≤20% optimizer-call bound audits.
    warm_templates: int = 0
    cold_templates: int = 0
    warm_instances: int = 0


class Bye(NamedTuple):
    """Worker acknowledging a graceful stop (final snapshots published)."""

    worker_id: str
    incarnation: int
    requests_served: int = 0


class Control(NamedTuple):
    """Supervisor → worker control message.

    ``kind`` is one of ``"stop"`` (graceful drain + final snapshot),
    ``"stall_heartbeats"`` / ``"resume_heartbeats"`` (fault injection),
    or ``"publish_snapshots"`` (force an immediate snapshot round).
    """

    kind: str


def encode_frame(frame) -> bytes:
    """The bytes one ``Connection.send_bytes`` message carries for ``frame``."""
    return pickle.dumps(frame, pickle.HIGHEST_PROTOCOL)


def decode_frame(data: bytes):
    """The frame in ``data``, or None when the bytes do not unpickle —
    a broken peer, which the reader treats as a hang-up."""
    try:
        return pickle.loads(data)
    except Exception:  # truncated, garbled, or a class that does not import
        return None
