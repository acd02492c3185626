"""Real-process cluster tests: spawn workers, kill one, recover.

Marked ``cluster`` and skipped unless ``RUN_CLUSTER_TESTS=1``: they
spawn worker processes and build catalog databases, which is too heavy
for the tier-1 suite.  CI runs them as a separate timeout-wrapped job.
"""

from __future__ import annotations

import os
import queue
import time

import pytest

from repro.cluster import (
    ClusterSupervisor,
    ClusterWorker,
    ProcessFaultInjector,
    Request,
    SnapshotStore,
    SupervisorPolicy,
    WorkerSpec,
    WorkerState,
)
from repro.workload.generator import instances_for_template
from repro.workload.templates import tpch_templates

pytestmark = pytest.mark.cluster

TEMPLATES = tpch_templates()[:2]
POLICY = SupervisorPolicy(
    heartbeat_timeout=0.8, restart_backoff_base=0.05, drain_timeout=15.0
)


def _submit_round(supervisor, streams, lo, hi):
    futures = []
    for i in range(lo, hi):
        for template in TEMPLATES:
            futures.append(supervisor.submit(
                template.name, streams[template.name][i].sv.values,
                sequence_id=i,
            ))
    return futures


def _await_all(futures, timeout=60.0):
    deadline = time.monotonic() + timeout
    for fut in futures:
        fut.result(timeout=max(0.1, deadline - time.monotonic()))


def _wait_for(predicate, timeout=20.0, what="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.05)
    raise AssertionError(f"timed out waiting for {what}")


def test_kill_recovery_with_warm_start(tmp_path):
    streams = {
        t.name: instances_for_template(t, 60, seed=1) for t in TEMPLATES
    }
    supervisor = ClusterSupervisor(
        TEMPLATES, num_workers=2, snapshot_dir=str(tmp_path),
        policy=POLICY, lam=2.0, db_scale=0.3,
        heartbeat_interval=0.1, snapshot_interval=0.3,
    )
    supervisor.start()
    try:
        _await_all(_submit_round(supervisor, streams, 0, 30))
        # Let a snapshot interval elapse so the replacement has food.
        _wait_for(
            lambda: SnapshotStore(str(tmp_path)).published_templates(),
            what="published snapshots",
        )

        injector = ProcessFaultInjector(supervisor, seed=1)
        assert injector.inject("kill").startswith("kill:")

        futures = _submit_round(supervisor, streams, 30, 60)
        _await_all(futures)
        assert all(fut.exception() is None for fut in futures)

        _wait_for(
            lambda: any(
                h.restarts > 0 and h.state is WorkerState.LIVE
                for h in supervisor.workers.values()
            ),
            what="killed worker to restart",
        )
        replaced = next(
            h for h in supervisor.workers.values() if h.restarts > 0
        )
        assert replaced.incarnation == 1
        assert replaced.warm_templates == len(TEMPLATES)

        report = supervisor.cluster_report()
        assert report["resolved"] == report["submitted"]
        assert report["supervisor_lambda_violations"] == 0
        assert report["worker_lambda_violations"] == 0
        text = supervisor.prometheus()
        assert 'source="supervisor"' in text
    finally:
        supervisor.close()
    report = supervisor.cluster_report()
    assert report["in_flight"] == 0
    assert report["resolved"] == report["submitted"]


def test_distributed_trace_spans_processes_and_survives_kill(tmp_path):
    """One trace_id connects supervisor and worker spans — even when the
    first dispatch dies and the request is retried on a peer."""
    from repro.obs import build_tree, explain_trace

    streams = {
        t.name: instances_for_template(t, 40, seed=4) for t in TEMPLATES
    }
    supervisor = ClusterSupervisor(
        TEMPLATES, num_workers=2, snapshot_dir=str(tmp_path),
        policy=POLICY, lam=2.0, db_scale=0.3,
        heartbeat_interval=0.1, trace=True,
    )
    supervisor.start()
    try:
        warm = _submit_round(supervisor, streams, 0, 10)
        _await_all(warm)

        # Every resolved request has a connected tree under one trace:
        # cluster.request -> cluster.dispatch -> worker serving spans.
        fut = warm[-1]
        assert fut.trace_id
        spans = supervisor.trace_spans(fut.trace_id)
        roots = build_tree(spans)
        assert len(roots) == 1
        assert roots[0].span.name == "cluster.request"
        assert {s.trace_id for s in spans} == {fut.trace_id}
        names = {s.name for s in spans}
        assert "cluster.dispatch" in names
        assert "serving.batch" in names         # recorded inside the worker

        # Kill one worker outright; the supervisor hasn't noticed yet, so
        # the next round keeps dispatching to it and those requests must
        # be retried on the surviving peer under the *same* trace.
        victim = next(iter(supervisor.workers.values()))
        victim.process.kill()
        futures = _submit_round(supervisor, streams, 10, 40)
        _await_all(futures)
        assert all(fut.exception() is None for fut in futures)

        retried = []
        for fut in futures:
            spans = supervisor.trace_spans(fut.trace_id)
            dispatches = [s for s in spans if s.name == "cluster.dispatch"]
            if any(s.attrs.get("outcome") == "worker_died"
                   for s in dispatches):
                retried.append((fut, spans, dispatches))
        assert retried, "no request was stranded on the killed worker"

        fut, spans, dispatches = retried[0]
        roots = build_tree(spans)
        assert len(roots) == 1, "retried request split into several trees"
        root = roots[0].span
        assert root.attrs["attempts"] >= 2
        outcomes = [s.attrs["outcome"] for s in dispatches]
        assert "worker_died" in outcomes and "response" in outcomes
        workers_named = {
            (s.attrs["worker"], s.attrs["incarnation"]) for s in dispatches
        }
        assert len(workers_named) >= 2          # both sides of the retry
        # Forensics narrates the retry from the same span set.
        info = explain_trace(spans)
        assert info["attempts"] and len(info["attempts"]) >= 2
        assert info["outcome"] in ("certified", "uncertified")
    finally:
        supervisor.close()


def test_graceful_close_drains_everything(tmp_path):
    streams = {
        t.name: instances_for_template(t, 10, seed=2) for t in TEMPLATES
    }
    supervisor = ClusterSupervisor(
        TEMPLATES, num_workers=2, snapshot_dir=str(tmp_path),
        policy=POLICY, lam=2.0, db_scale=0.3, heartbeat_interval=0.1,
    )
    supervisor.start()
    futures = _submit_round(supervisor, streams, 0, 10)
    supervisor.close()
    assert all(fut.done() for fut in futures)
    report = supervisor.cluster_report()
    assert report["resolved"] == report["submitted"] == len(futures)
    # Graceful stop published final snapshots for the warmed templates.
    assert SnapshotStore(str(tmp_path)).published_templates()


class TestWarmStartInProcess:
    """ClusterWorker warm-start semantics without spawning processes."""

    def _boot(self, tmp_path, worker_id, incarnation=0):
        spec = WorkerSpec(
            worker_id=worker_id, incarnation=incarnation,
            templates=(TEMPLATES[0],), snapshot_dir=str(tmp_path),
            lam=2.0, db_scale=0.3, threads=2,
        )
        return ClusterWorker(spec, queue.Queue())

    def _serve(self, worker, n, seed=3):
        instances = instances_for_template(TEMPLATES[0], n, seed=seed)
        for i, inst in enumerate(instances):
            worker.serve(Request(
                request_id=i, template_name=TEMPLATES[0].name,
                sv=inst.sv.values, sequence_id=i,
            ))
        got = [worker.response_q.get(timeout=30.0) for _ in range(n)]
        assert all(r.ok for r in got)
        return got

    def test_warm_start_restores_instances_and_saves_optimizer_calls(
        self, tmp_path
    ):
        first = self._boot(tmp_path, "a")
        self._serve(first, 25)
        cold_calls = first.optimizer_calls
        assert first.publish_snapshots() == 1
        first.manager.close(wait=True)

        second = self._boot(tmp_path, "b")
        assert second.warm_templates == 1
        assert second.warm_instances > 0
        # The same workload again: the warm cache answers from
        # snapshots, so the replacement pays ≤20% of a cold start.
        self._serve(second, 25)
        warm_calls = second.optimizer_calls
        second.manager.close(wait=True)
        assert warm_calls <= max(1, 0.2 * cold_calls)

    def test_corrupt_snapshot_degrades_to_cold_start(self, tmp_path):
        first = self._boot(tmp_path, "a")
        self._serve(first, 10)
        first.publish_snapshots()
        first.manager.close(wait=True)

        store = SnapshotStore(str(tmp_path))
        store.corrupt(TEMPLATES[0].name)

        second = self._boot(tmp_path, "b")
        assert second.warm_templates == 0
        assert second.cold_templates == 1
        assert second.store.corrupt_loads == 1
        # Cold but alive: it still serves correctly.
        self._serve(second, 5)
        second.manager.close(wait=True)


def test_worker_spec_is_picklable():
    import pickle

    spec = WorkerSpec(
        worker_id="w0", incarnation=2, templates=tuple(TEMPLATES),
        snapshot_dir="/tmp/x",
    )
    clone = pickle.loads(pickle.dumps(spec))
    assert clone == spec
    assert clone.templates[0].name == TEMPLATES[0].name


def test_chaos_exit_code_constant_matches_sigkill_convention():
    from repro.cluster.worker import CHAOS_EXIT_CODE

    assert CHAOS_EXIT_CODE == 128 + 9
