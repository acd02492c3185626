"""Wire types between the supervisor and its worker processes.

Everything here crosses a ``multiprocessing`` pipe, so it must pickle
under the spawn start method: plain module-level dataclasses carrying
primitives only.  Notably a worker response carries a *flattened*
outcome — plan signature, certificate fields, counters — rather than
the full :class:`~repro.core.technique.PlanChoice`: plan trees and
shrunken memos are per-worker state and never leave the process.  When
worker-side verification is on, the response additionally ships the
chosen plan's recosted cost at the served sVector, so a benchmark can
check the λ-certificate against its own oracle without access to the
worker's cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


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


@dataclass(frozen=True)
class Request:
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


@dataclass(frozen=True)
class Response:
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


@dataclass(frozen=True)
class Heartbeat:
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
    #: Prometheus exposition, labeled by worker identity).
    registry: dict = field(default_factory=dict)
    #: Per-template summaries — anchor attribution, getPlan counters,
    #: warm-start baselines, quarantine
    #: (:meth:`~repro.serving.manager.ConcurrentPQOManager.anchor_summaries`)
    #: — flat int dicts the cluster doctor view checks and sums.
    anchor_summary: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Ready:
    """Worker finished booting (and warm-starting) and is serving."""

    worker_id: str
    incarnation: int
    #: Templates restored from snapshots vs started cold — the warm-start
    #: accounting the chaos gate's ≤20% optimizer-call bound audits.
    warm_templates: int = 0
    cold_templates: int = 0
    warm_instances: int = 0


@dataclass(frozen=True)
class Bye:
    """Worker acknowledging a graceful stop (final snapshots published)."""

    worker_id: str
    incarnation: int
    requests_served: int = 0


@dataclass(frozen=True)
class Control:
    """Supervisor → worker control message.

    ``kind`` is one of ``"stop"`` (graceful drain + final snapshot),
    ``"stall_heartbeats"`` / ``"resume_heartbeats"`` (fault injection),
    or ``"publish_snapshots"`` (force an immediate snapshot round).
    """

    kind: str
