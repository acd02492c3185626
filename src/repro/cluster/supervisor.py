"""The supervisor: routing, liveness, crash recovery, merged health.

One front-end process owns the cluster: it routes requests to worker
processes along the consistent-hash ring over one duplex pipe per
worker, watches heartbeats, declares workers dead on a hung-up pipe,
silence or a reaped process, restarts them with
capped exponential backoff, quarantines flappers, and re-routes a dead
worker's partition with a graceful drain — every in-flight future
resolves as retried-on-peer, shed, or :class:`WorkerLostError`, never
hangs.

Accounting discipline
---------------------
The supervisor's own :class:`~repro.obs.audit.GuaranteeAudit` is the
*authoritative* exactly-one-outcome ledger: every submitted request
increments exactly one of certified/uncertified/shed on the supervisor
registry, including requests whose worker died (counted shed, reason
``worker_lost``).  Worker registries arrive piggybacked on heartbeats
and are retained per (worker, incarnation) — a crash cannot retract
the counts its last heartbeat already delivered — and the merged
Prometheus exposition renders supervisor series as
``source="supervisor"`` alongside every worker-labeled series.
"""

from __future__ import annotations

import multiprocessing
import select
import threading
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import partial
from typing import Optional

from ..obs import Observability
from ..obs.audit import LAMBDA_VIOLATIONS, OUTCOMES, RESPONSES_TOTAL
from ..obs.clock import SYSTEM_CLOCK, Clock
from ..obs.exporters import merge_labeled_snapshots, snapshot_to_prometheus
from ..obs.registry import group_sum
from ..obs.slo import cluster_objectives
from ..obs.spans import Span
from ..obs.tracectx import activate, start_trace
from ..query.template import QueryTemplate
from .router import DEFAULT_VNODES, HashRing
from .transport import (
    Bye,
    Control,
    Heartbeat,
    Ready,
    Request,
    Response,
    WorkerLostError,
    decode_frame,
    encode_frame,
)
from .worker import WorkerSpec, worker_main

RESTARTS_TOTAL = "repro_cluster_restarts_total"
DEATHS_TOTAL = "repro_cluster_deaths_total"
RETRIES_TOTAL = "repro_cluster_retries_total"
WORKER_LOST_TOTAL = "repro_cluster_worker_lost_total"
WORKERS_GAUGE = "repro_cluster_workers"
#: Death reason of a worker whose connection carried a frame that does
#: not decode to a frame type the supervisor reads.
BAD_FRAME = "bad_frame"


class WorkerState(Enum):
    STARTING = "starting"
    LIVE = "live"
    DRAINING = "draining"
    DEAD = "dead"
    QUARANTINED = "quarantined"


@dataclass(frozen=True)
class SupervisorPolicy:
    """Liveness and recovery tunables."""

    #: A live worker this long without a heartbeat is declared dead.
    heartbeat_timeout: float = 1.5
    #: A starting worker gets this long to signal Ready (slow starts
    #: included) before being declared dead.
    startup_timeout: float = 30.0
    #: Restart backoff: ``base * 2^k`` capped (k = restarts so far).
    restart_backoff_base: float = 0.1
    restart_backoff_cap: float = 5.0
    #: How many times one request may be re-routed after worker deaths
    #: before resolving as WorkerLostError.
    max_retries: int = 2
    #: Flap quarantine: this many deaths inside the window stops the
    #: restart loop (the template-quarantine pattern at process scope).
    flap_threshold: int = 5
    flap_window: float = 30.0
    #: Graceful-drain budget at shutdown before terminating stragglers.
    drain_timeout: float = 10.0
    vnodes: int = DEFAULT_VNODES
    #: Dead (worker, incarnation) registry snapshots kept verbatim per
    #: worker; older dead incarnations merge into one tombstone row so
    #: a flapping worker cannot grow the history without bound while the
    #: merged exposition stays monotone across crashes.
    registry_retention: int = 2


class ProcessLauncher:
    """Real worker processes via multiprocessing (spawn).

    Spawn, not fork: the supervisor runs a monitor thread and workers
    run thread pools, and forking a threaded process inherits poisoned
    locks.  Tests swap in a fake launcher with the same method.
    """

    def launch(self, spec: WorkerSpec):
        """Start a worker; returns ``(connection, process_handle)``.

        The connection is the supervisor's end of a duplex pipe (an
        AF_UNIX socketpair).  The process handle must expose
        ``is_alive() / terminate() / kill() / join(timeout) / pid /
        exitcode``.
        """
        ctx = multiprocessing.get_context("spawn")
        conn, child_end = ctx.Pipe()
        process = ctx.Process(
            target=worker_main,
            args=(spec, child_end),
            name=f"repro-{spec.worker_id}",
            daemon=True,
        )
        process.start()
        # The child holds its own copy now; keeping ours open would mean
        # EOF never arrives when the worker dies.
        child_end.close()
        return conn, process


def _probe(conn, event: int):
    """A zero-timeout readiness check of ``conn`` for ``event``: one
    ``poll`` call on a poll object registered once; truthy when ready."""
    poller = select.poll()
    poller.register(conn.fileno(), event)
    return partial(poller.poll, 0)


class _Link:
    """One open supervisor-side connection, the worker slot it serves and
    its probes, which live and die with it: another frame is waiting
    (``readable``), a frame fits the socket now (``writable``)."""

    __slots__ = ("conn", "handle", "readable", "writable")

    def __init__(self, conn, handle: "WorkerHandle") -> None:
        self.conn, self.handle = conn, handle
        self.readable = _probe(conn, select.POLLIN)
        self.writable = _probe(conn, select.POLLOUT)


def _violations(snapshots: list) -> int:
    """Σ ``repro_lambda_violations_total`` over registry snapshots."""
    groups = group_sum(snapshots, LAMBDA_VIOLATIONS, by=())
    return int(sum(row["value"] for row in groups.values()))


@dataclass
class _Pending:
    future: object
    request: Request
    worker_id: str
    # -- trace state (None / 0.0 when the supervisor runs spans-off) ----------
    #: Root context minted at submit; owns the ``cluster.request`` span.
    ctx: object = None
    #: Child context for the current dispatch attempt; its span_id rides
    #: the wire as ``Request.parent_span_id``.
    dispatch_ctx: object = None
    submitted_at: float = 0.0
    dispatched_at: float = 0.0


@dataclass
class WorkerHandle:
    """Supervisor-side state machine for one worker slot."""

    spec: WorkerSpec
    #: Supervisor end of this incarnation's pipe; None once it hung up.
    link: Optional[_Link] = None
    #: Frames waiting for room in the socket, oldest first.
    outbox: deque = field(default_factory=deque)
    process: object = None
    state: WorkerState = WorkerState.STARTING
    started_at: float = 0.0
    last_heartbeat: float = 0.0
    restarts: int = 0
    death_times: list = field(default_factory=list)
    next_restart_at: Optional[float] = None
    #: One-shot spec overrides applied to the next respawn (chaos).
    respawn_overrides: dict = field(default_factory=dict)
    # -- last-known worker-reported stats -------------------------------------
    requests_served: int = 0
    optimizer_calls: int = 0
    warm_templates: int = 0
    cold_templates: int = 0
    warm_instances: int = 0
    bye_received: bool = False

    @property
    def worker_id(self) -> str:
        return self.spec.worker_id

    @property
    def incarnation(self) -> int:
        return self.spec.incarnation

    @property
    def routable(self) -> bool:
        return self.state in (WorkerState.STARTING, WorkerState.LIVE)


class ClusterSupervisor:
    """Owns the worker fleet and the cluster-wide request interface."""

    def __init__(
        self,
        templates: list[QueryTemplate],
        num_workers: int,
        snapshot_dir: str,
        policy: Optional[SupervisorPolicy] = None,
        launcher=None,
        clock: Clock = SYSTEM_CLOCK,
        obs: Optional[Observability] = None,
        **spec_kwargs,
    ) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.templates = {t.name: t for t in templates}
        self.policy = policy if policy is not None else SupervisorPolicy()
        self.launcher = launcher if launcher is not None else ProcessLauncher()
        self.clock = clock
        # ``trace=True`` in spec_kwargs turns on distributed tracing end
        # to end: it reaches every WorkerSpec (workers record + ship
        # spans) and enables the supervisor's own recorder, which holds
        # the connected cross-process tree.
        self._trace = bool(spec_kwargs.get("trace", False)) or (
            obs is not None and obs.spans.enabled
        )
        self.obs = obs if obs is not None else Observability(
            clock=clock, spans_enabled=self._trace
        )
        self._lam = float(spec_kwargs.get("lam", 2.0))
        # With in-worker brownout the effective λ can legitimately float
        # above the configured one; the worker-side audit (which sees
        # the relaxed λ in force) remains the violation authority then.
        self._check_bounds = not spec_kwargs.get("overload")
        self.snapshot_dir = snapshot_dir
        self.workers: dict[str, WorkerHandle] = {}
        for i in range(num_workers):
            wid = f"w{i}"
            self.workers[wid] = WorkerHandle(spec=WorkerSpec(
                worker_id=wid,
                incarnation=0,
                templates=tuple(templates),
                snapshot_dir=snapshot_dir,
                **spec_kwargs,
            ))
        self.ring = HashRing(sorted(self.workers), vnodes=self.policy.vnodes)
        self._routable: frozenset = frozenset()
        #: Every open supervisor-side connection; a dead incarnation's
        #: stays until EOF so its late replies land.
        self._links: set[_Link] = set()
        #: The one readiness check over ``_links``: a ``select.poll`` set
        #: and its fd → link map, rebuilt by the first pump after
        #: ``_links`` changed (None until then).
        self._poll_set: Optional[tuple] = None
        self._handlers = {Response: self._on_response, Ready: self._on_ready,
                          Heartbeat: self._on_heartbeat, Bye: self._on_bye}
        #: Template → its ledger's (outcome, certificate) counter children.
        self._ledgers: dict[str, tuple[dict, dict]] = {}
        self._pump_lock = threading.RLock()  # one reader per connection
        self._lock = threading.RLock()
        self._pending: dict[int, _Pending] = {}
        self._next_request_id = 0
        self._registry_history: dict[tuple[str, int], dict] = {}
        # Latest per-template anchor attribution per worker (not per
        # incarnation): a warm-started replacement *adopts* its
        # predecessor's counters with the snapshot, so keeping dead
        # incarnations too would double-count the inherited hits.
        self._anchor_history: dict[str, dict] = {}
        # Per-worker merged remains of dead incarnations beyond the
        # retention window (see SupervisorPolicy.registry_retention).
        self._registry_tombstones: dict[str, dict] = {}
        self._monitor: Optional[threading.Thread] = None
        self._stopping = threading.Event()
        self._closed = False
        self.submitted = 0
        reg = self.obs.registry
        self._restarts = reg.counter(
            RESTARTS_TOTAL, "Worker restarts by the supervisor",
            labels=("worker",),
        )
        self._deaths = reg.counter(
            DEATHS_TOTAL, "Worker deaths by detection reason",
            labels=("worker", "reason"),
        )
        self._retries = reg.counter(
            RETRIES_TOTAL, "In-flight requests re-routed to a peer",
        ).labels()
        self._lost = reg.counter(
            WORKER_LOST_TOTAL, "Requests resolved as WorkerLostError",
        ).labels()
        self._workers_gauge = reg.gauge(
            WORKERS_GAUGE, "Workers per lifecycle state", labels=("state",),
        )

    # -- lifecycle ------------------------------------------------------------

    def start(self, monitor: bool = True) -> "ClusterSupervisor":
        """Launch every worker; optionally start the monitor thread.

        ``monitor=False`` leaves message pumping and liveness ticks to
        the caller (:meth:`pump`, :meth:`tick`) — the deterministic mode
        the supervisor test-suite drives with a fake clock.
        """
        now = self.clock.monotonic()
        with self._lock:
            for handle in self.workers.values():
                self._launch(handle, now)
        if monitor:
            self._monitor = threading.Thread(
                target=self._monitor_loop, name="cluster-monitor", daemon=True
            )
            self._monitor.start()
        return self

    def _launch(self, handle: WorkerHandle, now: float) -> None:
        conn, handle.process = self.launcher.launch(handle.spec)
        handle.link = _Link(conn, handle)
        self._links.add(handle.link)
        self._poll_set = None
        handle.outbox.clear()
        handle.state = WorkerState.STARTING
        handle.started_at = now
        handle.last_heartbeat = now
        handle.next_restart_at = None
        handle.bye_received = False
        # Until its first heartbeat the new incarnation has served nothing.
        handle.requests_served = handle.optimizer_calls = 0
        self._fleet_changed()

    def _monitor_loop(self) -> None:
        interval = min(0.05, self.policy.heartbeat_timeout / 4)
        next_tick = self.clock.monotonic()
        while not self._stopping.is_set():
            self.pump(timeout=interval)
            now = self.clock.monotonic()
            if now >= next_tick:
                self.tick()
                next_tick = now + interval

    def pump(self, timeout: float = 0.0) -> int:
        """Flush queued writes, then handle every worker message that
        arrives within ``timeout``; returns messages handled."""
        with self._pump_lock:
            with self._lock:
                self._flush()
                if self._poll_set is None:
                    poller, by_fd = select.poll(), {}
                    for link in self._links:
                        poller.register(link.conn.fileno(), select.POLLIN)
                        by_fd[link.conn.fileno()] = link
                    self._poll_set = (poller, by_fd)
                poller, by_fd = self._poll_set
            ready = poller.poll(timeout * 1000.0)
            return sum(self._drain(by_fd[fd]) for fd, _ in ready)

    def _drain(self, link: _Link) -> int:
        """Handle every frame waiting on ``link``; a closed connection or
        a frame that is not one the supervisor reads hangs it up."""
        handled = 0
        while True:
            try:
                message, reason = decode_frame(link.conn.recv_bytes()), BAD_FRAME
            except (EOFError, OSError):
                message, reason = None, "exited"
            handler = self._handlers.get(type(message))
            with self._lock:
                if handler is None:
                    self._hang_up(link, reason)
                    return handled
                handler(message)
            handled += 1
            if not link.readable():
                return handled

    def _hang_up(self, link: _Link, reason: str = "exited") -> None:
        """Forget a connection whose worker end closed or sent a frame
        that does not decode (or, at close(), every connection): a
        routable worker that hangs up died."""
        self._links.discard(link)
        self._poll_set = None
        link.conn.close()
        handle = link.handle
        if handle.link is link:
            handle.link = None
            handle.outbox.clear()
            if handle.routable:
                self._declare_dead(handle, reason=reason)

    def _send(self, handle: WorkerHandle, message) -> None:
        """Send ``message`` to the worker without ever blocking.

        It is written at once only when nothing waits before it and the
        socket polls writable — a writable AF_UNIX stream socket has at
        least 3/4 of its send buffer free, so one request or control
        frame always fits.  Otherwise it joins the FIFO outbox that
        :meth:`pump` flushes.
        """
        with self._lock:
            if handle.link is None:
                return  # hung up; its requests were re-routed
            if handle.outbox or not handle.link.writable():
                handle.outbox.append(message)
                return
            self._write(handle, message)

    def _flush(self) -> None:
        for handle in self.workers.values():
            while handle.outbox and handle.link.writable():
                self._write(handle, handle.outbox.popleft())

    def _write(self, handle: WorkerHandle, message) -> None:
        try:
            handle.link.conn.send_bytes(encode_frame(message))
        except OSError:
            # The worker is gone; EOF follows on the read side, which
            # keeps its last replies readable until then.
            handle.outbox.clear()
            if handle.routable:
                self._declare_dead(handle, reason="exited")

    # -- submission / routing -------------------------------------------------

    def submit(
        self,
        template_name: str,
        sv,
        sequence_id: int = -1,
    ):
        """Route one request; returns a Future resolving to a Response.

        The future always terminates: with the worker's
        :class:`Response` (served, shed or degraded — inspect ``ok`` /
        ``error_kind``), or exceptionally with :class:`WorkerLostError`
        when the owning worker and every retry peer died under it.
        """
        if template_name not in self.templates:
            raise KeyError(f"template {template_name!r} is not registered")
        fut: Future = Future()
        with self._lock:
            if self._closed:
                fut.set_exception(WorkerLostError("-", "supervisor closed"))
                return fut
            request = Request(
                request_id=self._next_request_id,
                template_name=template_name,
                sv=tuple(map(float, sv)),
                sequence_id=sequence_id,
            )
            self._next_request_id += 1
            self.submitted += 1
            ctx = submitted_at = None
            if self._trace:
                ctx = start_trace(ids=self.obs.spans.ids)
                submitted_at = self.clock.monotonic()
            # The caller's handle into forensics: every future knows the
            # trace its request belongs to ("" when tracing is off).
            fut.trace_id = ctx.trace_id if ctx is not None else ""
            if not self._dispatch(fut, request, ctx=ctx,
                                  submitted_at=submitted_at or 0.0):
                self._resolve_lost(
                    fut, request, "no routable workers",
                    ctx=ctx, submitted_at=submitted_at or 0.0,
                )
        return fut

    def _dispatch(
        self, fut, request: Request, ctx=None, submitted_at: float = 0.0
    ) -> bool:
        """Send to the ring owner among routable workers; False if none.

        True means the future is taken care of: a send that finds the
        owner dead declares it so, which re-routes this request too.
        """
        if not self._routable:
            return False
        owner = self.ring.owner(request.template_name, self._routable)
        handle = self.workers[owner]
        dispatch_ctx = None
        dispatched_at = 0.0
        if ctx is not None:
            # One cluster.dispatch span per attempt: the worker parents
            # its spans under this attempt's ID, so a re-dispatch after
            # a death grows a *sibling* subtree in the same trace.
            dispatch_ctx = ctx.child(self.obs.spans.ids)
            dispatched_at = self.clock.monotonic()
            request = request._replace(
                trace_id=ctx.trace_id,
                parent_span_id=dispatch_ctx.span_id,
            )
        self._pending[request.request_id] = _Pending(
            future=fut, request=request, worker_id=owner,
            ctx=ctx, dispatch_ctx=dispatch_ctx,
            submitted_at=submitted_at, dispatched_at=dispatched_at,
        )
        self._send(handle, request)
        return True

    # -- span emission (no-ops when tracing is off) ---------------------------

    def _record_dispatch(
        self, pending: _Pending, worker_id: str, incarnation: int,
        outcome: str,
    ) -> None:
        if pending.dispatch_ctx is None:
            return
        now = self.clock.monotonic()
        with activate(pending.dispatch_ctx):
            self.obs.spans.record(
                "cluster.dispatch",
                pending.dispatched_at,
                now - pending.dispatched_at,
                span_id=pending.dispatch_ctx.span_id,
                worker=worker_id,
                incarnation=incarnation,
                attempt=pending.request.attempt,
                outcome=outcome,
            )

    def _record_root(
        self, ctx, submitted_at: float, request: Request, outcome: str,
        **attrs,
    ) -> None:
        if ctx is None:
            return
        now = self.clock.monotonic()
        with activate(ctx):
            self.obs.spans.record(
                "cluster.request",
                submitted_at,
                now - submitted_at,
                span_id=ctx.span_id,
                template=request.template_name,
                seq=request.sequence_id,
                outcome=outcome,
                attempts=request.attempt + 1,
                **attrs,
            )

    def _ingest_worker_spans(self, message: Response) -> None:
        if not self._trace or not message.spans:
            return
        for row in message.spans:
            try:
                self.obs.spans.ingest(Span.from_jsonable(row))
            except (AttributeError, KeyError, TypeError, ValueError):
                continue  # a malformed row must not poison the pump

    def _resolve_lost(
        self, fut, request: Request, detail: str,
        ctx=None, submitted_at: float = 0.0,
    ) -> None:
        self._lost.inc()
        self._count(request.template_name, "shed", "shed", "worker_lost")
        self._record_root(
            ctx, submitted_at, request, "shed",
            reason="worker_lost", detail=detail,
        )
        if not fut.done():
            fut.set_exception(WorkerLostError("-", detail))

    # -- message handling -----------------------------------------------------

    @staticmethod
    def _stale(handle: Optional[WorkerHandle], incarnation: int) -> bool:
        """Messages from written-off or replaced incarnations are stale.

        The incarnation guard covers post-restart stragglers; the state
        guard covers the window between declaring death and the restart,
        when the incarnation hasn't advanced yet but the handle has
        already been written off (its process reaped, its partition
        re-routed) — a zombie heartbeat must not refresh its stats.
        """
        return (
            handle is None
            or handle.incarnation != incarnation
            or handle.state in (WorkerState.DEAD, WorkerState.QUARANTINED)
        )

    def _on_ready(self, message: Ready) -> None:
        handle = self.workers.get(message.worker_id)
        if self._stale(handle, message.incarnation):
            return  # a previous incarnation's late boot; ignore
        handle.state = WorkerState.LIVE
        handle.last_heartbeat = self.clock.monotonic()
        handle.warm_templates = message.warm_templates
        handle.cold_templates = message.cold_templates
        handle.warm_instances = message.warm_instances
        self._fleet_changed()

    def _on_heartbeat(self, message: Heartbeat) -> None:
        handle = self.workers.get(message.worker_id)
        if self._stale(handle, message.incarnation):
            return
        handle.last_heartbeat = self.clock.monotonic()
        if handle.state is WorkerState.STARTING:
            handle.state = WorkerState.LIVE
            self._fleet_changed()
        handle.requests_served = message.requests_served
        handle.optimizer_calls = message.optimizer_calls
        key = (message.worker_id, message.incarnation)
        self._registry_history[key] = message.registry
        if message.anchor_summary:
            self._anchor_history[message.worker_id] = message.anchor_summary

    def _on_bye(self, message: Bye) -> None:
        handle = self.workers.get(message.worker_id)
        if handle is None or handle.incarnation != message.incarnation:
            return
        handle.bye_received = True
        handle.requests_served = message.requests_served

    def _on_response(self, message: Response) -> None:
        pending = self._pending.pop(message.request_id, None)
        if pending is None:
            return  # late duplicate after a re-route already resolved it
        outcome = self._account_response(message)
        if pending.ctx is not None:
            self._ingest_worker_spans(message)
            self._record_dispatch(
                pending, message.worker_id, message.incarnation, "response"
            )
            self._record_root(
                pending.ctx, pending.submitted_at, pending.request, outcome,
                worker=message.worker_id,
            )
        if not pending.future.done():
            pending.future.set_result(message)

    def _account_response(self, message: Response) -> str:
        """The exactly-one-outcome ledger entry for one resolution;
        returns the outcome counted."""
        template = message.template_name
        if not message.ok:
            return self._count(template, "shed", "shed",
                               message.error_reason or message.error_kind)
        if not message.certified:
            return self._count(template, "uncertified", "uncertified",
                               message.check or "degraded")
        if message.certified_bound is not None and self._check_bounds:
            self.obs.audit.certified_bound(
                template, message.certified_bound, self._lam,
                kind=message.certificate,
            )
        return self._count(template, "certified", message.certificate)

    def _count(self, template: str, outcome: str, kind: str,
               reason: Optional[str] = None) -> str:
        """Count one ``outcome`` and certificate ``kind`` (and a degraded
        outcome's reason) through the template's counter children,
        resolved on its first resolution; returns ``outcome``."""
        ledger = self._ledgers.get(template)
        if ledger is None:
            audit = self.obs.audit
            ledger = self._ledgers[template] = (
                audit.outcome_children(template),
                audit.certificate_children(template),
            )
        ledger[0][outcome].inc()
        ledger[1][kind].inc()
        if reason is not None:
            self.obs.audit.degraded(template, outcome, reason)
        return outcome

    # -- liveness / recovery --------------------------------------------------

    def attach_slo(self, objectives=None, min_interval_s: float = 0.2):
        """Attach burn-rate SLOs over the merged cluster view.

        Evaluated from :meth:`tick` (so the monitor thread keeps alerts
        current) against :meth:`merged_snapshot`: outcome objectives
        read the supervisor's authoritative ledger, latency reads every
        (worker, incarnation) serving histogram — including dead
        incarnations' retained counts, which is what makes the
        differencing restart-proof.
        """
        return self.obs.attach_slo(
            objectives if objectives is not None else cluster_objectives(),
            min_interval_s=min_interval_s,
        )

    def tick(self) -> None:
        """One liveness pass: detect deaths, fire due restarts."""
        if self.obs.slo is not None:
            self.obs.slo.evaluate(self.merged_snapshot())
        now = self.clock.monotonic()
        with self._lock:
            for handle in self.workers.values():
                if handle.state is WorkerState.STARTING:
                    if (
                        handle.process is not None
                        and not self._process_alive(handle)
                    ):
                        self._declare_dead(handle, reason="exited")
                    elif now - handle.started_at > self.policy.startup_timeout:
                        self._declare_dead(handle, reason="startup_timeout")
                elif handle.state is WorkerState.LIVE:
                    if not self._process_alive(handle):
                        self._declare_dead(handle, reason="exited")
                    elif (
                        now - handle.last_heartbeat
                        > self.policy.heartbeat_timeout
                    ):
                        self._declare_dead(handle, reason="heartbeat_timeout")
                elif handle.state is WorkerState.DEAD:
                    if (
                        handle.next_restart_at is not None
                        and now >= handle.next_restart_at
                    ):
                        self._restart(handle, now)

    @staticmethod
    def _process_alive(handle: WorkerHandle) -> bool:
        is_alive = getattr(handle.process, "is_alive", None)
        return bool(is_alive()) if is_alive is not None else True

    def _declare_dead(self, handle: WorkerHandle, reason: str) -> None:
        if handle.state in (WorkerState.DEAD, WorkerState.QUARANTINED):
            return
        now = self.clock.monotonic()
        self._deaths.labels(worker=handle.worker_id, reason=reason).inc()
        # Best-effort reap: a stalled-but-alive process is killed so the
        # replacement can't race it on the snapshot directory.
        for op in ("kill", "terminate"):
            fn = getattr(handle.process, op, None)
            if fn is not None:
                try:
                    fn()
                except OSError:  # pragma: no cover - already gone
                    pass
                break
        handle.state = WorkerState.DEAD
        handle.outbox.clear()  # its requests are re-routed below
        handle.death_times.append(now)
        cutoff = now - self.policy.flap_window
        handle.death_times = [t for t in handle.death_times if t >= cutoff]
        if len(handle.death_times) >= self.policy.flap_threshold:
            # Flapping: stop the restart loop; the partition stays
            # re-routed to peers (the process-scope quarantine).
            handle.state = WorkerState.QUARANTINED
            handle.next_restart_at = None
        else:
            backoff = min(
                self.policy.restart_backoff_base * (2 ** handle.restarts),
                self.policy.restart_backoff_cap,
            )
            handle.next_restart_at = now + backoff
        self._fleet_changed()
        self._reroute_pendings(handle.worker_id)

    def _reroute_pendings(self, dead_worker: str) -> None:
        """Drain the dead worker's in-flight requests: retry or resolve."""
        stranded = [
            p for p in self._pending.values() if p.worker_id == dead_worker
        ]
        dead_incarnation = self.workers[dead_worker].incarnation
        for pending in stranded:
            del self._pending[pending.request.request_id]
            request = pending.request
            # The attempt that died still becomes a span: its worker's
            # own spans are lost with the process, so this is the only
            # record that incarnation ever held the request.
            self._record_dispatch(
                pending, dead_worker, dead_incarnation, "worker_died"
            )
            if request.attempt < self.policy.max_retries:
                retry = request._replace(attempt=request.attempt + 1)
                if self._dispatch(pending.future, retry, ctx=pending.ctx,
                                  submitted_at=pending.submitted_at):
                    self._retries.inc()
                    continue
            self._resolve_lost(
                pending.future, request, f"worker {dead_worker} died",
                ctx=pending.ctx, submitted_at=pending.submitted_at,
            )

    def _restart(self, handle: WorkerHandle, now: float) -> None:
        # Chaos one-shots never survive into a replacement unless the
        # injector re-arms them explicitly via respawn_overrides.
        changes = {"die_after_requests": None, "slow_start_seconds": 0.0}
        changes.update(handle.respawn_overrides)
        handle.respawn_overrides = {}
        handle.spec = replace(
            handle.spec, incarnation=handle.incarnation + 1, **changes
        )
        handle.restarts += 1
        self._restarts.labels(worker=handle.worker_id).inc()
        self._compact_history(handle.worker_id, handle.incarnation)
        self._launch(handle, now)

    # -- dead-incarnation history retention -----------------------------------

    def _compact_history(self, worker_id: str, live_incarnation: int) -> None:
        """Fold old dead incarnations into the worker's tombstone row.

        Keeps the newest ``policy.registry_retention`` dead incarnations
        verbatim (their per-incarnation series stay individually visible
        in the merged exposition); everything older is merged — counters
        and histograms sum, gauges keep the newest value — so totals
        stay monotone while per-worker history stays O(retention).
        """
        keep = max(0, self.policy.registry_retention)
        dead = sorted(
            inc for (wid, inc) in self._registry_history
            if wid == worker_id and inc < live_incarnation
        )
        for inc in dead[:max(0, len(dead) - keep)]:
            tomb = self._registry_tombstones.get(worker_id, {})
            snapshot = self._registry_history.pop((worker_id, inc))
            folded = {}
            for name in {**tomb, **snapshot}:
                header = tomb.get(name) or snapshot[name]
                folded[name] = {
                    "kind": header.get("kind", "counter"),
                    "help": header.get("help", ""),
                    # Grouped by every label: each series folds alone.
                    "series": list(group_sum([tomb, snapshot], name).values()),
                }
            self._registry_tombstones[worker_id] = folded

    def _fleet_changed(self) -> None:
        """After any state change: the per-state gauge and the routable
        set the ring routes over."""
        counts = {state: 0 for state in WorkerState}
        for handle in self.workers.values():
            counts[handle.state] += 1
        for state, count in counts.items():
            self._workers_gauge.labels(state=state.value).set(count)
        self._routable = frozenset(
            wid for wid, handle in self.workers.items() if handle.routable
        )

    # -- reporting ------------------------------------------------------------

    def worker_lambda_violations(self) -> int:
        """Σ λ-violations over every worker registry held."""
        return _violations(list(self._worker_sources().values()))

    def trace_spans(self, trace_id: str) -> list:
        """Every retained span of one trace (supervisor + re-ingested
        worker spans), in recording order — the forensics input."""
        return self.obs.spans.trace(trace_id)

    def _worker_sources(self) -> dict:
        """Label → every worker registry held: each incarnation's last
        heartbeat snapshot plus the tombstones (lock held inside)."""
        with self._lock:
            sources = {
                f"{wid}:{inc}": snapshot
                for (wid, inc), snapshot in sorted(self._registry_history.items())
            }
            for wid, snapshot in sorted(self._registry_tombstones.items()):
                sources[f"{wid}:tomb"] = snapshot
        return sources

    def _labeled_sources(self) -> dict:
        """Label → raw registry snapshot, pre-merge: the supervisor's own
        registry, then every worker's."""
        return {
            "supervisor": self.obs.registry.snapshot(),
            **self._worker_sources(),
        }

    def merged_snapshot(self) -> dict:
        """Supervisor + workers + tombstones as one labeled snapshot."""
        return merge_labeled_snapshots(self._labeled_sources())

    def anchor_summaries(self) -> dict:
        """Latest heartbeat template summaries per worker."""
        with self._lock:
            return {
                wid: {t: dict(s) for t, s in summary.items()}
                for wid, summary in sorted(self._anchor_history.items())
            }

    def doctor_report(self) -> dict:
        """Cluster-merged ``repro doctor`` view.

        Recomputed from the workers' registry snapshots (every
        incarnation's, tombstones included) and the heartbeats' template
        summaries — no live worker is consulted.  The supervisor's own
        outcome ledger counts the same responses again, so it is not a
        source here.
        """
        from ..obs.doctor import doctor_from_sources

        return doctor_from_sources(
            self._worker_sources(), self.anchor_summaries()
        )

    def cluster_report(self) -> dict:
        """One health view: fleet table + cluster-wide accounting."""
        now = self.clock.monotonic()
        with self._lock:
            rows = []
            for wid in sorted(self.workers):
                handle = self.workers[wid]
                rows.append({
                    "worker": wid,
                    "incarnation": handle.incarnation,
                    "state": handle.state.value,
                    "restarts": handle.restarts,
                    "requests_served": handle.requests_served,
                    "optimizer_calls": handle.optimizer_calls,
                    "warm_templates": handle.warm_templates,
                    "cold_templates": handle.cold_templates,
                    "warm_instances": handle.warm_instances,
                    "heartbeat_age": round(now - handle.last_heartbeat, 3),
                    "lambda_violations": _violations([
                        self._registry_history.get((wid, handle.incarnation), {})
                    ]),
                })
            own = self.obs.registry.snapshot()
            by_outcome = group_sum([own], RESPONSES_TOTAL, by=("outcome",))
            outcomes = {
                outcome: int(by_outcome.get((outcome,), {"value": 0})["value"])
                for outcome in OUTCOMES
            }
            return {
                "workers": rows,
                "submitted": self.submitted,
                "in_flight": len(self._pending),
                "outcomes": outcomes,
                "resolved": sum(outcomes.values()),
                "retries": int(self.obs.registry.total(RETRIES_TOTAL)),
                "worker_lost": int(self.obs.registry.total(WORKER_LOST_TOTAL)),
                "supervisor_lambda_violations": _violations([own]),
                "worker_lambda_violations": self.worker_lambda_violations(),
                "registry_incarnations": len(self._registry_history),
                "registry_tombstones": len(self._registry_tombstones),
                "snapshot_dir": self.snapshot_dir,
                **(
                    {"slo": self.obs.slo.report()}
                    if self.obs.slo is not None else {}
                ),
            }

    def prometheus(self) -> str:
        """Supervisor + every (worker, incarnation) registry, one text.

        Series are distinguished by an injected ``source`` label
        (``"supervisor"`` for the supervisor's own registry, else
        ``"<id>:<incarnation>"``); dead incarnations keep contributing
        their last heartbeat's counts, so the exposition is monotone
        across crashes.
        """
        return snapshot_to_prometheus(self.merged_snapshot())

    # -- shutdown -------------------------------------------------------------

    def close(self, timeout: Optional[float] = None) -> None:
        """Graceful drain: stop workers, resolve leftovers, never hang."""
        deadline = self.clock.monotonic() + (
            timeout if timeout is not None else self.policy.drain_timeout
        )
        with self._lock:
            if self._closed:
                return
            self._closed = True
            draining = []
            for handle in self.workers.values():
                if handle.routable:
                    handle.state = WorkerState.DRAINING
                    # Behind every request already queued for it (FIFO).
                    self._send(handle, Control("stop"))
                    draining.append(handle)
            self._fleet_changed()
        self._stopping.set()
        if self._monitor is not None:
            self._monitor.join(timeout=5.0)
        # Pump until every draining worker said Bye (or hung up) or the
        # budget runs out.
        while self.clock.monotonic() < deadline:
            self.pump(timeout=0.05)
            with self._lock:
                if all(h.bye_received or h.link is None for h in draining):
                    break
        for handle in draining:
            terminate = getattr(handle.process, "terminate", None)
            if not handle.bye_received and terminate is not None:
                terminate()
            join = getattr(handle.process, "join", None)
            if join is not None:
                join(timeout=2.0)
            with self._lock:
                handle.state = WorkerState.DEAD
        self.pump(timeout=0.0)  # late responses that raced the drain
        with self._pump_lock, self._lock:
            leftovers = list(self._pending.values())
            self._pending.clear()
            for pending in leftovers:
                self._record_dispatch(
                    pending, pending.worker_id,
                    self.workers[pending.worker_id].incarnation, "shutdown",
                )
                self._resolve_lost(
                    pending.future, pending.request, "supervisor shutdown",
                    ctx=pending.ctx, submitted_at=pending.submitted_at,
                )
            for link in list(self._links):
                self._hang_up(link)
            self._fleet_changed()

    def __enter__(self) -> "ClusterSupervisor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
