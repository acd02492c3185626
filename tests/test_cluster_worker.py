"""The worker end of the pipe, run on threads of this process.

``worker_main`` is driven over a real ``multiprocessing.Pipe`` without
spawning: the test holds the supervisor's end (or hands it to a real
:class:`ClusterSupervisor` through a thread launcher).  Covers the two
serving paths — a worker without overload protection serves each frame
on the thread that read it, an overload-protected one hands arrivals to
its bounded pool — the trace parenting of inline serving, and a graceful
stop that serves everything sent before it.
"""

from __future__ import annotations

import multiprocessing
import threading
from contextlib import contextmanager

from repro.cluster import (
    ClusterSupervisor,
    Control,
    Request,
    Response,
    SupervisorPolicy,
    WorkerLostError,
    WorkerSpec,
    worker_main,
)
from repro.obs.spans import Span
from repro.workload.generator import instances_for_template
from repro.workload.templates import tpch_templates

TEMPLATES = tuple(tpch_templates()[:2])
DB_SCALE = 0.05
QUIET = dict(heartbeat_interval=60.0, snapshot_interval=60.0)


def spec_for(tmp_path, **overrides) -> WorkerSpec:
    fields = dict(
        worker_id="w0", incarnation=0, templates=TEMPLATES,
        snapshot_dir=str(tmp_path), db_scale=DB_SCALE, threads=2, **QUIET,
    )
    fields.update(overrides)
    return WorkerSpec(**fields)


def sv_of(template, i=0):
    return instances_for_template(template, i + 1, seed=1)[i].sv.values


@contextmanager
def running_worker(spec):
    """``worker_main`` on a thread; yields the supervisor's end."""
    conn, end = multiprocessing.Pipe()
    thread = threading.Thread(target=worker_main, args=(spec, end), daemon=True)
    thread.start()
    try:
        yield conn
    finally:
        conn.send(Control("stop"))
        thread.join(timeout=30.0)
        conn.close()
    assert not thread.is_alive()


def responses(conn, n, timeout=30.0) -> list:
    """The next ``n`` Responses, skipping Ready/Heartbeat frames."""
    out = []
    while len(out) < n:
        assert conn.poll(timeout), f"only {len(out)} of {n} responses"
        message = conn.recv()
        if isinstance(message, Response):
            out.append(message)
    return out


def process_span(response) -> Span:
    spans = [Span.from_jsonable(row) for row in response.spans]
    return next(s for s in spans if s.name == "serving.process")


def test_inline_threads_serve_two_requests_at_once(tmp_path):
    spec = spec_for(tmp_path, optimize_seconds=0.3, trace=True)
    with running_worker(spec) as conn:
        for i, template in enumerate(TEMPLATES):
            conn.send(Request(
                request_id=i, template_name=template.name,
                sv=sv_of(template), trace_id=f"{i + 1:016x}",
                parent_span_id=f"{i + 9:016x}",
            ))
        got = responses(conn, 2)
    assert all(r.ok and r.used_optimizer for r in got)
    a, b = (process_span(r) for r in got)
    # Each cold miss sleeps 0.3 s in optimize: one reader thread would
    # serve them back to back, two overlap.
    assert a.start_s < b.start_s + b.duration_s
    assert b.start_s < a.start_s + a.duration_s


def test_inline_serving_span_parents_under_the_dispatch_span(tmp_path):
    dispatch = "00000000000000d1"
    with running_worker(spec_for(tmp_path, trace=True)) as conn:
        template = TEMPLATES[0]
        conn.send(Request(
            request_id=7, template_name=template.name, sv=sv_of(template),
            trace_id="00000000000000aa", parent_span_id=dispatch,
        ))
        (response,) = responses(conn, 1)
    span = process_span(response)
    assert span.trace_id == "00000000000000aa"
    assert span.parent_id == dispatch
    assert span.span_id and span.span_id != dispatch
    inner = [Span.from_jsonable(row) for row in response.spans]
    assert all(s.parent_id for s in inner)  # nothing detached


def test_overload_protected_worker_resolves_a_flood_with_queue_full(tmp_path):
    # λ = 100: once the first plans land every queued request hits, so
    # the flood drains in about one 0.3 s optimize.
    spec = spec_for(tmp_path, overload=True, optimize_seconds=0.3, lam=100.0)
    template = TEMPLATES[0]
    flood = 150  # > the per-template queue limit of 64
    instances = instances_for_template(template, flood, seed=1)
    with running_worker(spec) as conn:
        for i, instance in enumerate(instances):
            conn.send(Request(
                request_id=i, template_name=template.name,
                sv=instance.sv.values,
            ))
        got = responses(conn, flood)
    assert sorted(r.request_id for r in got) == list(range(flood))
    # The single reader admits the whole flood long before the first
    # optimize returns: the bounded queue overflows with no cached plan
    # to fall back on.
    rejected = [r for r in got if r.error_reason.startswith("queue_full")]
    assert rejected and all(r.error_kind == "shed" for r in rejected)


class _ThreadProcess:
    def __init__(self, thread) -> None:
        self.thread = thread

    def is_alive(self) -> bool:
        return self.thread.is_alive()

    def join(self, timeout=None) -> None:
        self.thread.join(timeout)


class ThreadLauncher:
    """Runs ``worker_main`` on a thread of this process over a real pipe."""

    def launch(self, spec):
        conn, end = multiprocessing.Pipe()
        thread = threading.Thread(
            target=worker_main, args=(spec, end), daemon=True
        )
        thread.start()
        return conn, _ThreadProcess(thread)


def test_close_serves_everything_sent_before_stop(tmp_path):
    supervisor = ClusterSupervisor(
        list(TEMPLATES), num_workers=1, snapshot_dir=str(tmp_path),
        policy=SupervisorPolicy(drain_timeout=30.0), launcher=ThreadLauncher(),
        db_scale=DB_SCALE, threads=2, optimize_seconds=0.01, **QUIET,
    )
    supervisor.start()
    futures = [
        supervisor.submit(template.name, sv_of(template, i), sequence_id=i)
        for i in range(12) for template in TEMPLATES
    ]
    supervisor.close()
    assert all(fut.done() for fut in futures)
    lost = [f for f in futures if isinstance(f.exception(), WorkerLostError)]
    assert not lost
    assert all(fut.result().ok for fut in futures)
    handle = supervisor.workers["w0"]
    assert handle.bye_received and handle.requests_served == len(futures)
    report = supervisor.cluster_report()
    assert report["resolved"] == report["submitted"] == len(futures)
    handle.process.join(timeout=10.0)
    assert not handle.process.is_alive()
