"""The worker process: a full serving stack behind one duplex pipe.

Each worker runs a complete single-process tier —
:class:`~repro.serving.manager.ConcurrentPQOManager` over resilient
engines with its own observability handle — and speaks the
:mod:`~repro.cluster.transport` protocol over one pipe to the
supervisor: requests and control frames in, responses, heartbeats,
Ready and Bye out under one send lock.

Workers register *every* cluster template, not just their routed
partition: routing is the supervisor's concern, and a worker that
already has a template registered can absorb a dead peer's partition
the instant the supervisor re-routes it (warm-started from the peer's
last published snapshot where one exists).

``worker_main`` is the process entry point and must stay a module-level
function with a picklable :class:`WorkerSpec` argument so the spawn
start method works — spawn is the default here because fork would
duplicate the supervisor's monitor thread state into every child.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import Optional

from ..catalog.registry import get_database
from ..core.persistence import dump_cache
from ..engine.resilience import resilient_engine_factory
from ..harness.oracle import Oracle
from ..obs.tracectx import TraceContext, activate
from ..query.instance import QueryInstance, SelectivityVector
from ..query.template import QueryTemplate
from ..serving.latency import simulated_latency_wrapper
from ..serving.manager import ConcurrentPQOManager
from ..serving.overload import OverloadPolicy, ShedError, ShutdownError
from .snapshots import SnapshotStore
from .transport import Bye, Control, Heartbeat, Ready, Request, Response
from .transport import decode_frame, encode_frame

#: Exit code a chaos-killed worker dies with (mirrors SIGKILL's 128+9).
CHAOS_EXIT_CODE = 137


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a worker process needs to boot — fully picklable."""

    worker_id: str
    incarnation: int
    templates: tuple[QueryTemplate, ...]
    snapshot_dir: str
    lam: float = 2.0
    db_scale: float = 1.0
    db_seed: int = 42
    threads: int = 4
    check_mode: Optional[str] = None
    heartbeat_interval: float = 0.2
    snapshot_interval: float = 1.0
    #: Simulated per-call engine latency (0 = raw speed).
    optimize_seconds: float = 0.0
    recost_seconds: float = 0.0
    #: Overload protection (brownout ladder) inside the worker.
    overload: bool = False
    #: Recost served plans at the served sVector and ship the cost in
    #: each response, so an external oracle can audit λ-certificates.
    verify: bool = False
    #: Enable distributed tracing: the worker records spans under the
    #: supervisor-issued trace context and ships each request's spans
    #: back on its Response.
    trace: bool = False
    # -- chaos hooks (seeded by the fault injector) ---------------------------
    #: Hard-exit (as if kill -9) after serving this many requests.
    die_after_requests: Optional[int] = None
    #: Sleep this long before signalling Ready (slow-start fault).
    slow_start_seconds: float = 0.0


class _MultiDB:
    """Database shim dispatching ``engine(template)`` across catalogs.

    :class:`~repro.serving.manager.ConcurrentPQOManager` binds one
    database, but a worker's templates may span every catalog database;
    the manager only ever calls ``database.engine(template)``, so this
    shim resolves the template's own database lazily through the
    memoized registry.
    """

    def __init__(self, scale: float, seed: int) -> None:
        self.scale = scale
        self.seed = seed

    def engine(self, template: QueryTemplate):
        return get_database(
            template.database, scale=self.scale, seed=self.seed
        ).engine(template)


class ClusterWorker:
    """The in-process serving half of one worker.

    Owns the manager, the snapshot publisher and the heartbeat thread;
    :func:`worker_main` drives it from the pipe.  Kept separate from the
    process scaffolding so tests can exercise warm-start and serving
    logic in-process without spawning.  ``response_q`` is anything with
    ``put(message)``: the pipe's locked send side, or a ``queue.Queue``.
    """

    def __init__(self, spec: WorkerSpec, response_q) -> None:
        self.spec = spec
        self.response_q = response_q
        self.store = SnapshotStore(spec.snapshot_dir)
        self.requests_served = 0
        self._served_lock = threading.Lock()
        self.heartbeat_seq = 0
        self.heartbeats_stalled = threading.Event()
        self._stopping = threading.Event()
        self._templates = {t.name: t for t in spec.templates}
        self._oracles: dict[str, Oracle] = {}

        from ..obs import Observability, TraceCollector

        self.obs = Observability(spans_enabled=spec.trace)
        self.collector: Optional[TraceCollector] = None
        if spec.trace:
            self.collector = TraceCollector()
            self.obs.spans.attach_sink(self.collector)
        wrappers = [resilient_engine_factory(seed=spec.db_seed)]
        if spec.optimize_seconds or spec.recost_seconds:
            wrappers.append(simulated_latency_wrapper(
                optimize_seconds=spec.optimize_seconds,
                recost_seconds=spec.recost_seconds,
                selectivity_seconds=0.0,
            ))

        def wrap(engine):
            for w in wrappers:
                engine = w(engine)
            return engine

        self.manager = ConcurrentPQOManager(
            database=_MultiDB(spec.db_scale, spec.db_seed),
            default_lambda=spec.lam,
            max_workers=spec.threads,
            check_mode=spec.check_mode,
            overload=OverloadPolicy() if spec.overload else None,
            obs=self.obs,
            engine_wrapper=wrap,
        )
        self.warm_templates = 0
        self.cold_templates = 0
        self.warm_instances = 0
        for template in spec.templates:
            shard = self.manager.register(template)
            restored = self.store.load(template.name)
            if restored is not None and restored.num_instances > 0:
                shard.scr.cache.adopt(restored)
                self.warm_templates += 1
                self.warm_instances += restored.num_instances
            else:
                self.cold_templates += 1

    # -- serving --------------------------------------------------------------

    def serve(self, request: Request) -> None:
        """Serve one request and send its response.

        Without overload protection the request is served on the calling
        thread.  With it, the request is handed to the manager's pool —
        bounded ingress, arrival-time deadlines and the brownout signals
        must see each arrival when it lands — and the pool thread that
        finishes it sends the response.
        """
        instance = QueryInstance(
            request.template_name,
            sv=SelectivityVector.from_sequence(request.sv),
            sequence_id=request.sequence_id,
        )
        # Re-establish the supervisor's context: the wire carries (trace,
        # dispatch span) and everything this worker records parents
        # under that dispatch span — one connected tree across processes.
        wire = None
        if self.spec.trace and request.trace_id:
            wire = TraceContext(
                trace_id=request.trace_id, span_id=request.parent_span_id
            )
        if self.spec.overload:
            with activate(wire):  # the manager mints the child context
                fut = self.manager.submit(instance)
            fut.add_done_callback(lambda f: self._respond(
                request, f.exception() or f.result()
            ))
            return
        # serving.batch takes the span ID of the context it runs under:
        # a fresh child, so it does not reuse the dispatch span's ID.
        try:
            with activate(wire and wire.child(self.obs.spans.ids)):
                outcome = self.manager.process(instance)
        except Exception as exc:
            outcome = exc
        self._respond(request, outcome)

    def _respond(self, request: Request, outcome) -> None:
        """Send the response for ``outcome``: a PlanChoice or the
        exception serving raised."""
        spec = self.spec
        trace_spans: tuple = ()
        if self.collector is not None and request.trace_id:
            trace_spans = tuple(
                span.to_jsonable()
                for span in self.collector.pop(request.trace_id)
            )
        if not isinstance(outcome, BaseException):
            choice = outcome
            plan_cost = None
            if spec.verify and choice.certified:
                plan_cost = self._plan_cost(
                    request.template_name, choice.shrunken_memo, request.sv
                )
            response = Response(
                request_id=request.request_id,
                worker_id=spec.worker_id,
                incarnation=spec.incarnation,
                template_name=request.template_name,
                ok=True,
                sequence_id=request.sequence_id,
                check=choice.check,
                plan_signature=choice.plan_signature,
                certified=choice.certified,
                certificate=choice.certificate,
                certified_bound=choice.certified_bound,
                coverage=choice.coverage,
                used_optimizer=choice.used_optimizer,
                recost_calls=choice.recost_calls,
                plan_cost_at_sv=plan_cost,
                spans=trace_spans,
            )
        else:
            exc = outcome
            if isinstance(exc, ShedError):
                kind, reason = "shed", exc.reason
            elif isinstance(exc, ShutdownError):
                kind, reason = "shutdown", str(exc)
            else:
                kind, reason = "error", f"{type(exc).__name__}: {exc}"
            response = Response(
                request_id=request.request_id,
                worker_id=spec.worker_id,
                incarnation=spec.incarnation,
                template_name=request.template_name,
                ok=False,
                sequence_id=request.sequence_id,
                error_kind=kind,
                error_reason=reason,
                spans=trace_spans,
            )
        with self._served_lock:  # serving threads finish concurrently
            self.requests_served += 1
            served = self.requests_served
        self.response_q.put(response)
        if (
            spec.die_after_requests is not None
            and served >= spec.die_after_requests
        ):
            # Simulated kill -9: no drain, no final snapshot, no Bye —
            # exactly what the crash-recovery path must absorb.
            os._exit(CHAOS_EXIT_CODE)

    def _plan_cost(
        self, template_name: str, shrunken, sv: tuple[float, ...]
    ) -> Optional[float]:
        if shrunken is None:  # degraded paths may carry no memo
            return None
        oracle = self._oracles.get(template_name)
        if oracle is None:
            template = self._templates[template_name]
            db = get_database(
                template.database, scale=self.spec.db_scale, seed=self.spec.db_seed
            )
            oracle = Oracle(db, template)
            self._oracles[template_name] = oracle
        return oracle.plan_cost(
            shrunken, SelectivityVector.from_sequence(sv)
        )

    # -- heartbeats / snapshots -----------------------------------------------

    def heartbeat(self) -> None:
        if self.heartbeats_stalled.is_set():
            return
        self.heartbeat_seq += 1
        self.response_q.put(Heartbeat(
            worker_id=self.spec.worker_id,
            incarnation=self.spec.incarnation,
            seq=self.heartbeat_seq,
            requests_served=self.requests_served,
            optimizer_calls=self.optimizer_calls,
            registry=self.obs.registry.snapshot(),
            anchor_summary=self.manager.anchor_summaries(),
        ))

    @property
    def optimizer_calls(self) -> int:
        return self.manager.total_optimizer_calls

    def publish_snapshots(self) -> int:
        """Publish every template whose cache holds instances.

        Serialization happens under the shard lock (a rebalance-point
        style exclusive hold), the atomic file write outside it.
        """
        published = 0
        for name, shard in sorted(self.manager._templates.items()):
            with shard.lock:
                if shard.scr.cache.num_instances == 0:
                    continue
                text = dump_cache(shard.scr.cache)
            self.store.publish_text(name, text)
            published += 1
        return published

    def _background_loop(self, interval: float, action) -> None:
        while not self._stopping.wait(interval):
            action()

    def start_background(self) -> None:
        for interval, action, name in (
            (self.spec.heartbeat_interval, self.heartbeat, "heartbeat"),
            (self.spec.snapshot_interval, self.publish_snapshots, "snapshots"),
        ):
            t = threading.Thread(
                target=self._background_loop, args=(interval, action),
                name=f"{self.spec.worker_id}-{name}", daemon=True,
            )
            t.start()

    def stop(self) -> None:
        """Graceful drain: serve everything accepted, snapshot, stop."""
        self._stopping.set()
        self.manager.close(wait=True)
        self.publish_snapshots()
        self.response_q.put(Bye(
            worker_id=self.spec.worker_id,
            incarnation=self.spec.incarnation,
            requests_served=self.requests_served,
        ))


class _PipeSender:
    """The worker's side of the pipe for writing: one lock serialises
    every frame — responses from any thread, heartbeats, Ready, Bye —
    and each frame is encoded before it takes the lock."""

    def __init__(self, conn) -> None:
        self._conn = conn
        self._lock = threading.Lock()

    def put(self, message) -> None:
        data = encode_frame(message)
        with self._lock:
            try:
                self._conn.send_bytes(data)
            except OSError:
                pass  # the supervisor is gone; the readers see EOF

    def close(self) -> None:
        with self._lock:
            self._conn.close()


def worker_main(spec: WorkerSpec, conn) -> None:
    """Process entry point: boot, signal Ready, serve until stopped.

    Without overload protection ``spec.threads`` threads each take the
    next frame under a receive lock and serve it themselves; with it one
    thread reads and hands requests to the manager's pool (see
    :meth:`ClusterWorker.serve`).  A stop frame — or EOF, the supervisor
    gone, or a frame that is not a request or control frame — ends every
    reader once the frames read before it are served;
    the worker then drains, publishes snapshots and says Bye.
    """
    if spec.slow_start_seconds > 0:
        import time

        time.sleep(spec.slow_start_seconds)
    sender = _PipeSender(conn)
    worker = ClusterWorker(spec, sender)
    sender.put(Ready(
        worker_id=spec.worker_id,
        incarnation=spec.incarnation,
        warm_templates=worker.warm_templates,
        cold_templates=worker.cold_templates,
        warm_instances=worker.warm_instances,
    ))
    worker.start_background()
    receive = threading.Lock()
    stopping = threading.Event()

    def read_loop() -> None:
        while True:
            with receive:
                if stopping.is_set():
                    return
                try:
                    message = decode_frame(conn.recv_bytes())
                except (EOFError, OSError):  # the supervisor is gone
                    message = None
                if not isinstance(message, (Request, Control)):
                    message = Control("stop")  # gone, or not speaking frames
                if isinstance(message, Control) and message.kind == "stop":
                    stopping.set()
                    return
            if not isinstance(message, Control):
                worker.serve(message)
            elif message.kind == "stall_heartbeats":
                worker.heartbeats_stalled.set()
            elif message.kind == "resume_heartbeats":
                worker.heartbeats_stalled.clear()
            elif message.kind == "publish_snapshots":
                worker.publish_snapshots()

    readers = [
        threading.Thread(
            target=read_loop, name=f"{spec.worker_id}-reader-{i}", daemon=True
        )
        for i in range(1, 1 if spec.overload else spec.threads)
    ]
    for reader in readers:
        reader.start()
    read_loop()
    for reader in readers:
        reader.join()
    worker.stop()
    sender.close()
