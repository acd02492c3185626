"""Deterministic supervisor tests: fake launcher, fake clock, no processes.

The supervisor is driven in single-threaded mode (``start(monitor=False)``)
with messages written into each worker's real pipe by the fake launcher
(which keeps the worker end and plays the worker) and liveness run by
explicit :meth:`tick` calls at fake-clock times — every edge case here
is exact, not timing-dependent: restart-backoff growth and cap, flap
quarantine, graceful drain during shutdown, the double-death of a
partition's owner and its retry peer, and the transport's own rules
(writes never block, EOF means dead, one liveness pass per interval).
"""

from __future__ import annotations

import gc
import multiprocessing
import time
from dataclasses import dataclass

import pytest

from repro.cluster import (
    ClusterSupervisor,
    SupervisorPolicy,
    WorkerLostError,
    WorkerState,
)
from repro.cluster.supervisor import DEATHS_TOTAL, RETRIES_TOTAL, WORKER_LOST_TOTAL
from repro.cluster.transport import Bye, Control, Heartbeat, Ready, Response
from repro.obs.clock import FakeClock


@dataclass(frozen=True)
class FakeTemplate:
    """The supervisor only needs ``.name``; no engine, no database."""

    name: str


class FakeProcess:
    def __init__(self) -> None:
        self.alive = True
        self.kills = 0
        self.terminations = 0

    def is_alive(self) -> bool:
        return self.alive

    def kill(self) -> None:
        self.kills += 1
        self.alive = False

    def terminate(self) -> None:
        self.terminations += 1
        self.alive = False

    def join(self, timeout=None) -> None:
        return None


class FakeLauncher:
    """In-process stand-in for ProcessLauncher: a real pipe per launch,
    no spawn.  It keeps the worker end of each worker's latest pipe and
    plays the worker on it."""

    def __init__(self) -> None:
        self.ends: dict = {}

    def launch(self, spec):
        conn, self.ends[spec.worker_id] = multiprocessing.Pipe()
        return conn, FakeProcess()

    def deliver(self, worker_id, message) -> None:
        """Send ``message`` to the supervisor as ``worker_id``."""
        self.ends[worker_id].send(message)

    def sent_to(self, worker_id) -> list:
        """Every frame the supervisor has written to ``worker_id`` and
        the worker has not read yet."""
        end, frames = self.ends[worker_id], []
        while end.poll():
            try:
                frames.append(end.recv())
            except EOFError:
                break
        return frames


def make_cluster(num_workers=2, num_templates=12, **policy_kwargs):
    clock = FakeClock()
    supervisor = ClusterSupervisor(
        [FakeTemplate(f"t{i}") for i in range(num_templates)],
        num_workers=num_workers,
        snapshot_dir="unused-by-fake-launcher",
        policy=SupervisorPolicy(**policy_kwargs),
        launcher=FakeLauncher(),
        clock=clock.clock,
    )
    supervisor.start(monitor=False)
    return supervisor, clock


def mark_live(sup, *worker_ids):
    for wid in worker_ids:
        sup.launcher.deliver(wid, Ready(
            worker_id=wid, incarnation=sup.workers[wid].incarnation
        ))
    sup.pump()


def respond(sup, request_id, template_name, worker="w0", incarnation=0,
            **overrides):
    fields = dict(
        request_id=request_id, worker_id=worker, incarnation=incarnation,
        template_name=template_name, ok=True, check="sel",
        plan_signature="p1", certified=True, certificate="exact",
        certified_bound=1.5,
    )
    fields.update(overrides)
    sup.launcher.deliver(worker, Response(**fields))
    sup.pump()


def violations_snapshot(**per_template: int) -> dict:
    """A worker registry snapshot carrying only its λ-violation counters."""
    return {"repro_lambda_violations_total": {
        "kind": "counter", "help": "", "series": [
            {"labels": {"template": name, "kind": "exact"},
             "value": float(count)}
            for name, count in per_template.items()
        ],
    }}


def pending_id(sup):
    assert len(sup._pending) == 1
    return next(iter(sup._pending))


def template_owned_by(sup, worker_id):
    names = [n for n in sup.templates if sup.ring.owner(n) == worker_id]
    assert names, f"no template routed to {worker_id}; add more templates"
    return names[0]


class TestLiveness:
    def test_ready_marks_live_and_records_warm_stats(self):
        sup, _ = make_cluster()
        sup.launcher.deliver("w0", Ready(
            worker_id="w0", incarnation=0,
            warm_templates=3, cold_templates=9, warm_instances=41,
        ))
        sup.pump()
        handle = sup.workers["w0"]
        assert handle.state is WorkerState.LIVE
        assert (handle.warm_templates, handle.warm_instances) == (3, 41)

    def test_stale_incarnation_messages_are_ignored(self):
        sup, clock = make_cluster()
        mark_live(sup, "w0")
        sup.workers["w0"].process.alive = False
        sup.tick()
        assert sup.workers["w0"].state is WorkerState.DEAD
        # A late Ready/Heartbeat from the dead incarnation must not
        # resurrect the slot the supervisor already wrote off.
        sup.launcher.deliver("w0", Ready(worker_id="w0", incarnation=0))
        sup.launcher.deliver("w0", Heartbeat(
            worker_id="w0", incarnation=0, seq=9,
            requests_served=99, optimizer_calls=9,
        ))
        sup.pump()
        assert sup.workers["w0"].state is WorkerState.DEAD
        assert sup.workers["w0"].requests_served != 99

    def test_heartbeat_timeout_declares_death_and_reaps(self):
        sup, clock = make_cluster(heartbeat_timeout=1.0)
        mark_live(sup, "w0", "w1")
        clock.advance(0.9)
        sup.tick()
        assert sup.workers["w0"].state is WorkerState.LIVE
        # w1 heartbeats in time; w0 stays silent past the deadline.
        sup.launcher.deliver("w1", Heartbeat(
            worker_id="w1", incarnation=0, seq=1,
            requests_served=5, optimizer_calls=2,
        ))
        sup.pump()
        clock.advance(0.2)
        sup.tick()
        assert sup.workers["w0"].state is WorkerState.DEAD
        assert sup.workers["w1"].state is WorkerState.LIVE
        # Best-effort reap: a stalled-but-alive process gets killed.
        assert sup.workers["w0"].process.kills == 1
        assert sup.obs.registry.total(DEATHS_TOTAL) == 1

    def test_startup_timeout_declares_death(self):
        sup, clock = make_cluster(startup_timeout=2.0, heartbeat_timeout=60.0)
        clock.advance(2.1)
        sup.tick()
        assert all(
            h.state is WorkerState.DEAD for h in sup.workers.values()
        )


class TestRestartBackoff:
    def _kill_and_tick(self, sup):
        sup.workers["w0"].process.alive = False
        sup.tick()

    def test_backoff_doubles_then_caps(self):
        sup, clock = make_cluster(
            restart_backoff_base=1.0, restart_backoff_cap=4.0,
            flap_threshold=99, heartbeat_timeout=60.0, startup_timeout=60.0,
        )
        handle = sup.workers["w0"]
        expected = [1.0, 2.0, 4.0, 4.0, 4.0]  # min(1 * 2^k, 4)
        for backoff in expected:
            self._kill_and_tick(sup)
            assert handle.state is WorkerState.DEAD
            assert handle.next_restart_at == pytest.approx(
                clock.monotonic() + backoff
            )
            clock.advance(backoff - 0.01)
            sup.tick()
            assert handle.state is WorkerState.DEAD  # not due yet
            clock.advance(0.01)
            sup.tick()
            assert handle.state is WorkerState.STARTING

        assert handle.restarts == len(expected)
        assert handle.incarnation == len(expected)

    def test_respawn_overrides_apply_exactly_once(self):
        sup, clock = make_cluster(
            restart_backoff_base=0.0, flap_threshold=99,
            heartbeat_timeout=60.0, startup_timeout=60.0,
        )
        handle = sup.workers["w0"]
        handle.respawn_overrides["slow_start_seconds"] = 0.7
        self._kill_and_tick(sup)
        sup.tick()  # zero backoff: restart fires immediately
        assert handle.spec.slow_start_seconds == 0.7
        assert handle.respawn_overrides == {}
        self._kill_and_tick(sup)
        sup.tick()
        # Chaos one-shots never survive into the next incarnation.
        assert handle.spec.slow_start_seconds == 0.0

    def test_restarted_slot_reports_zero_until_its_first_heartbeat(self):
        sup, clock = make_cluster(
            restart_backoff_base=0.0, heartbeat_timeout=60.0,
            startup_timeout=60.0,
        )
        mark_live(sup, "w0")
        sup.launcher.deliver("w0", Heartbeat(
            worker_id="w0", incarnation=0, seq=1,
            requests_served=40, optimizer_calls=12,
            registry=violations_snapshot(t0=1),
        ))
        sup.pump()
        self._kill_and_tick(sup)
        sup.tick()  # restarted as incarnation 1
        mark_live(sup, "w0")

        def row():
            return sup.cluster_report()["workers"][0]

        # Ready arrived, no heartbeat yet: nothing of incarnation 0's.
        assert sup.workers["w0"].state is WorkerState.LIVE
        assert (row()["incarnation"], row()["requests_served"],
                row()["optimizer_calls"], row()["lambda_violations"]) == (
            1, 0, 0, 0,
        )
        sup.launcher.deliver("w0", Heartbeat(
            worker_id="w0", incarnation=1, seq=1,
            requests_served=3, optimizer_calls=1,
        ))
        sup.pump()
        assert (row()["requests_served"], row()["optimizer_calls"]) == (3, 1)
        # The dead incarnation's violation stays in the cluster total.
        assert sup.worker_lambda_violations() == 1


class TestFlapQuarantine:
    def test_flapping_worker_is_quarantined_and_bypassed(self):
        sup, clock = make_cluster(
            num_workers=2, restart_backoff_base=0.0, flap_threshold=3,
            flap_window=30.0, heartbeat_timeout=60.0, startup_timeout=60.0,
        )
        handle = sup.workers["w0"]
        for death in range(3):
            handle.process.alive = False
            sup.tick()  # declare dead
            sup.tick()  # zero-backoff restart (no-op once quarantined)
        assert handle.state is WorkerState.QUARANTINED
        assert handle.next_restart_at is None
        restarts_before = handle.restarts
        clock.advance(60.0)
        sup.tick()
        assert handle.state is WorkerState.QUARANTINED
        assert handle.restarts == restarts_before

        # Its partition keeps serving: requests fall through to the peer.
        name = template_owned_by(sup, "w0")
        fut = sup.submit(name, (0.5,))
        rid = pending_id(sup)
        assert sup._pending[rid].worker_id == "w1"
        respond(sup, rid, name, worker="w1")
        assert fut.result().ok

    def test_deaths_outside_the_window_do_not_quarantine(self):
        sup, clock = make_cluster(
            restart_backoff_base=0.0, flap_threshold=2, flap_window=5.0,
            heartbeat_timeout=60.0, startup_timeout=60.0,
        )
        handle = sup.workers["w0"]
        for _ in range(4):
            handle.process.alive = False
            sup.tick()
            assert handle.state is WorkerState.DEAD  # never quarantined
            sup.tick()
            clock.advance(10.0)  # next death lands outside the window
        assert handle.restarts == 4


class TestReroutingAndDoubleDeath:
    def test_owner_death_retries_in_flight_on_peer(self):
        sup, clock = make_cluster(num_workers=3, heartbeat_timeout=60.0)
        mark_live(sup, "w0", "w1", "w2")
        name = template_owned_by(sup, "w0")
        fut = sup.submit(name, (0.5, 0.5))
        rid = pending_id(sup)
        assert sup._pending[rid].worker_id == "w0"

        sup.workers["w0"].process.alive = False
        sup.tick()
        assert sup._pending[rid].worker_id != "w0"
        assert sup._pending[rid].request.attempt == 1
        assert sup.obs.registry.total(RETRIES_TOTAL) == 1

        respond(sup, rid, name, worker=sup._pending[rid].worker_id)
        assert fut.result().certified
        assert sup.cluster_report()["resolved"] == 1

    def test_double_death_of_owner_and_retry_peer(self):
        """The ISSUE's hardest drain case: the partition's worker dies,
        then the peer that inherited the in-flight request dies too —
        the request must land on the third worker, not hang."""
        sup, clock = make_cluster(num_workers=3, heartbeat_timeout=60.0)
        mark_live(sup, "w0", "w1", "w2")
        name = template_owned_by(sup, "w0")
        fut = sup.submit(name, (0.5, 0.5))
        rid = pending_id(sup)

        sup.workers["w0"].process.alive = False
        sup.tick()
        first_peer = sup._pending[rid].worker_id
        sup.workers[first_peer].process.alive = False
        sup.tick()
        survivor = sup._pending[rid].worker_id
        assert survivor not in ("w0", first_peer)
        assert sup._pending[rid].request.attempt == 2
        assert sup.obs.registry.total(RETRIES_TOTAL) == 2

        respond(sup, rid, name, worker=survivor)
        assert fut.result().ok
        report = sup.cluster_report()
        assert report["resolved"] == report["submitted"] == 1
        assert report["worker_lost"] == 0

    def test_total_outage_resolves_lost_not_hangs(self):
        sup, clock = make_cluster(
            num_workers=2, max_retries=2, heartbeat_timeout=60.0,
        )
        mark_live(sup, "w0", "w1")
        name = template_owned_by(sup, "w0")
        fut = sup.submit(name, (0.5,))
        for wid in ("w0", "w1"):
            sup.workers[wid].process.alive = False
            sup.tick()
        with pytest.raises(WorkerLostError):
            fut.result(timeout=0)
        # Exactly-one-outcome holds even for the lost request: shed.
        report = sup.cluster_report()
        assert report["outcomes"]["shed"] == 1
        assert report["resolved"] == report["submitted"] == 1
        assert sup.obs.registry.total(WORKER_LOST_TOTAL) == 1

    def test_late_duplicate_response_is_ignored(self):
        sup, clock = make_cluster(num_workers=3, heartbeat_timeout=60.0)
        mark_live(sup, "w0", "w1", "w2")
        name = template_owned_by(sup, "w0")
        fut = sup.submit(name, (0.5,))
        rid = pending_id(sup)
        sup.workers["w0"].process.alive = False
        sup.tick()
        peer = sup._pending[rid].worker_id
        # The dead worker's late response races the peer's: first wins,
        # the duplicate is dropped, and accounting stays exactly-one.
        respond(sup, rid, name, worker="w0")
        respond(sup, rid, name, worker=peer, certified=False,
                certificate="uncertified")
        assert fut.result().worker_id == "w0"
        report = sup.cluster_report()
        assert report["resolved"] == 1
        assert report["outcomes"]["certified"] == 1


class TestDrainDuringShutdown:
    def test_close_waits_for_inflight_then_stops_workers(self):
        sup, clock = make_cluster(num_workers=2, heartbeat_timeout=60.0)
        mark_live(sup, "w0", "w1")
        name = template_owned_by(sup, "w0")
        fut = sup.submit(name, (0.5,))
        rid = pending_id(sup)
        # The worker finishes the in-flight request and says goodbye
        # while the supervisor drains.
        respond_fields = dict(
            request_id=rid, worker_id="w0", incarnation=0,
            template_name=name, ok=True, certified=True,
            certificate="exact", certified_bound=1.2,
        )
        sup.launcher.deliver("w0", Response(**respond_fields))
        sup.launcher.deliver("w0", Bye(worker_id="w0", incarnation=0,
                                       requests_served=1))
        sup.launcher.deliver("w1", Bye(worker_id="w1", incarnation=0))
        sup.close()

        assert fut.result(timeout=0).certified  # drained, not dropped
        for wid in ("w0", "w1"):
            handle = sup.workers[wid]
            assert handle.state is WorkerState.DEAD
            assert handle.bye_received
            # The drain sent each routable worker a graceful stop.
            stops = [
                m for m in sup.launcher.sent_to(wid)
                if isinstance(m, Control) and m.kind == "stop"
            ]
            assert len(stops) == 1
        report = sup.cluster_report()
        assert report["resolved"] == report["submitted"] == 1
        assert report["in_flight"] == 0

    def test_exhausted_drain_budget_sheds_leftovers(self):
        sup, clock = make_cluster(num_workers=1, heartbeat_timeout=60.0)
        mark_live(sup, "w0")
        fut = sup.submit(next(iter(sup.templates)), (0.5,))
        sup.close(timeout=0)  # budget exhausted immediately: no pump loop
        with pytest.raises(WorkerLostError):
            fut.result(timeout=0)
        handle = sup.workers["w0"]
        assert handle.state is WorkerState.DEAD
        assert handle.process.terminations == 1  # straggler terminated
        report = sup.cluster_report()
        assert report["outcomes"]["shed"] == 1
        assert report["resolved"] == report["submitted"] == 1

    def test_submit_after_close_fails_fast(self):
        sup, clock = make_cluster(num_workers=1, heartbeat_timeout=60.0)
        sup.launcher.deliver("w0", Bye(worker_id="w0", incarnation=0))
        sup.close()
        fut = sup.submit(next(iter(sup.templates)), (0.5,))
        with pytest.raises(WorkerLostError):
            fut.result(timeout=0)
        assert sup.close() is None  # idempotent

    def test_double_death_during_drain_still_resolves(self):
        """Shutdown and crashes interleave: the drain target dies with
        a request in flight, its retry peer dies too, and close() must
        still resolve the future instead of waiting for ghosts."""
        sup, clock = make_cluster(
            num_workers=2, max_retries=2, heartbeat_timeout=60.0,
        )
        mark_live(sup, "w0", "w1")
        name = template_owned_by(sup, "w0")
        fut = sup.submit(name, (0.5,))
        sup.workers["w0"].process.alive = False
        sup.tick()  # re-routed to w1
        sup.workers["w1"].process.alive = False
        sup.close(timeout=0)
        with pytest.raises(WorkerLostError):
            fut.result(timeout=0)
        report = sup.cluster_report()
        assert report["resolved"] == report["submitted"] == 1
        assert report["in_flight"] == 0


class TestMergedObservability:
    def _heartbeat(self, sup, wid, incarnation, served):
        sup.launcher.deliver(wid, Heartbeat(
            worker_id=wid, incarnation=incarnation, seq=1,
            requests_served=served, optimizer_calls=served,
            registry={"repro_requests_total": {
                "kind": "counter", "help": "Requests.",
                "series": [{"labels": {}, "value": float(served)}],
            }},
        ))
        sup.pump()

    def test_dead_incarnations_keep_contributing(self):
        sup, clock = make_cluster(
            restart_backoff_base=0.0, heartbeat_timeout=60.0,
            startup_timeout=60.0,
        )
        mark_live(sup, "w0", "w1")
        self._heartbeat(sup, "w0", incarnation=0, served=7)
        sup.workers["w0"].process.alive = False
        sup.tick()  # dead
        sup.tick()  # restarted as incarnation 1
        mark_live(sup, "w0")
        self._heartbeat(sup, "w0", incarnation=1, served=3)

        text = sup.prometheus()
        assert 'repro_requests_total{source="w0:0"} 7' in text
        assert 'repro_requests_total{source="w0:1"} 3' in text
        # Supervisor families keep their own labels under source=.
        assert 'source="supervisor"' in text
        assert 'repro_cluster_restarts_total{source="supervisor",worker="w0"} 1' in text

    def test_worker_lambda_violations_aggregate_across_incarnations(self):
        sup, clock = make_cluster(heartbeat_timeout=60.0)
        mark_live(sup, "w0", "w1")
        sup.launcher.deliver("w0", Heartbeat(
            worker_id="w0", incarnation=0, seq=1, requests_served=1,
            optimizer_calls=1, registry=violations_snapshot(t0=2),
        ))
        sup.launcher.deliver("w1", Heartbeat(
            worker_id="w1", incarnation=0, seq=1, requests_served=1,
            optimizer_calls=1, registry=violations_snapshot(t0=1),
        ))
        sup.pump()
        assert sup.worker_lambda_violations() == 3
        report = sup.cluster_report()
        assert report["worker_lambda_violations"] == 3
        # Each row reads its own live incarnation's snapshot.
        assert [row["lambda_violations"] for row in report["workers"]] == [2, 1]

    def test_doctor_counts_each_response_once(self):
        sup, clock = make_cluster(num_workers=1, heartbeat_timeout=60.0)
        mark_live(sup, "w0")
        name = next(iter(sup.templates))
        n = 3
        for _ in range(n):
            sup.submit(name, (0.5,))
            respond(sup, pending_id(sup), name)
        # The worker's audit counted the same N responses the
        # supervisor's ledger did; its summary saw N getPlan misses.
        summary = dict.fromkeys((
            "live_anchors", "plans_cached", "hits_selectivity", "hits_cost",
            "recost_spend", "never_hit_live", "evicted_never_hit",
            "selectivity_hits", "cost_hits", "recost_calls",
            "adopted_hits_selectivity", "adopted_hits_cost",
            "adopted_recost_spend", "quarantined",
        ), 0)
        summary["misses"] = n
        sup.launcher.deliver("w0", Heartbeat(
            worker_id="w0", incarnation=0, seq=1, requests_served=n,
            optimizer_calls=n,
            registry={"repro_responses_total": {
                "kind": "counter", "help": "", "series": [
                    {"labels": {"template": name, "outcome": "certified"},
                     "value": float(n)},
                ],
            }},
            anchor_summary={name: summary},
        ))
        sup.pump()
        assert sup.cluster_report()["outcomes"]["certified"] == n
        report = sup.doctor_report()
        assert report["sources"] == ["w0:0"]
        health = report["templates"][name]
        assert health["outcomes"] == {"certified": n}
        assert health["requests"]["total"] == n
        assert report["errors"] == []

    def test_supervisor_audit_flags_bound_violations(self):
        sup, clock = make_cluster(num_workers=1, heartbeat_timeout=60.0)
        mark_live(sup, "w0")
        name = next(iter(sup.templates))
        fut = sup.submit(name, (0.5,))
        rid = pending_id(sup)
        # A certified response whose bound exceeds λ=2 must be caught by
        # the supervisor-side audit even if the worker's wasn't.
        respond(sup, rid, name, certified_bound=2.5)
        assert fut.result().certified
        assert sup.cluster_report()["supervisor_lambda_violations"] == 1


class TestExactlyOneOutcome:
    def test_identity_holds_across_mixed_fates(self):
        sup, clock = make_cluster(
            num_workers=3, max_retries=1, heartbeat_timeout=60.0,
        )
        mark_live(sup, "w0", "w1", "w2")
        futures = {}
        for name in list(sup.templates)[:9]:
            futures[name] = sup.submit(name, (0.5,))
        # Fate 1: some resolve normally (mix of certified/uncertified/shed).
        styles = [
            dict(),
            dict(certified=False, certificate="uncertified", check="cost"),
            dict(ok=False, certified=False, certificate="uncertified",
                 error_kind="shed", error_reason="queue_full"),
        ]
        for i, (rid, pending) in enumerate(list(sup._pending.items())[:6]):
            respond(sup, rid, pending.request.template_name,
                    worker=pending.worker_id, **styles[i % 3])
        # Fate 2: everything else rides through a double death.
        sup.workers["w0"].process.alive = False
        sup.tick()
        sup.workers["w1"].process.alive = False
        sup.tick()
        for rid, pending in list(sup._pending.items()):
            respond(sup, rid, pending.request.template_name,
                    worker=pending.worker_id)
        report = sup.cluster_report()
        assert report["submitted"] == 9
        assert report["resolved"] == 9
        assert sum(report["outcomes"].values()) == 9
        assert report["in_flight"] == 0
        for fut in futures.values():
            assert fut.done()


class TestTransport:
    def test_writes_never_block_and_drain_in_fifo_order(self):
        sup, _ = make_cluster(num_workers=2, heartbeat_timeout=60.0)
        mark_live(sup, "w0", "w1")
        names = list(sup.templates)
        resolved = []
        slowest = 0.0
        gc.disable()  # a full collection of the suite's heap is no block
        try:
            for i in range(5000):
                t0 = time.perf_counter()
                fut = sup.submit(names[i % len(names)], (0.5,))
                slowest = max(slowest, time.perf_counter() - t0)
                fut.add_done_callback(
                    lambda f: resolved.append(f.result().request_id)
                )
        finally:
            gc.enable()
        # Neither fake worker has read a frame: their sockets are full
        # and the rest waits in the outboxes, yet no submit blocked.
        assert slowest < 0.05, slowest
        assert all(len(h.outbox) > 100 for h in sup.workers.values())

        received = {}
        for wid in ("w0", "w1"):
            seen = received[wid] = []
            while True:
                sup.pump()  # flushes whatever now fits
                frames = sup.launcher.sent_to(wid)
                if not frames:
                    break
                for request in frames:
                    seen.append(request.request_id)
                    respond(sup, request.request_id, request.template_name,
                            worker=wid)
        assert sorted(received["w0"] + received["w1"]) == list(range(5000))
        for wid, seen in received.items():
            assert seen == sorted(seen)  # submission order, per worker
            mine = set(seen)
            assert [r for r in resolved if r in mine] == seen
        assert not any(h.outbox for h in sup.workers.values())
        assert sup.cluster_report()["resolved"] == 5000

    def test_eof_declares_death_without_a_liveness_pass(self):
        sup, _ = make_cluster(num_workers=2, heartbeat_timeout=60.0)
        mark_live(sup, "w0", "w1")
        name = template_owned_by(sup, "w0")
        fut = sup.submit(name, (0.5,))
        rid = pending_id(sup)
        sup.launcher.ends["w0"].close()  # the worker process is gone
        sup.pump()  # no tick(): the hang-up alone is the death signal
        assert sup.workers["w0"].state is WorkerState.DEAD
        assert sup.workers["w0"].conn is None
        assert sup.obs.registry.total(DEATHS_TOTAL, reason="exited") == 1
        assert sup._pending[rid].worker_id == "w1"  # re-routed at once
        respond(sup, rid, name, worker="w1")
        assert fut.result(timeout=0).ok

    def test_liveness_pass_runs_once_per_interval(self):
        sup, clock = make_cluster(heartbeat_timeout=60.0)
        ticks = []
        sup.tick = lambda: ticks.append(clock.monotonic())
        pump, handled = sup.pump, []

        def one_message_per_pump(timeout=0.0):
            n = len(handled) + 1
            sup.launcher.deliver("w0", Heartbeat(
                worker_id="w0", incarnation=0, seq=n,
                requests_served=n, optimizer_calls=0,
            ))
            handled.append(pump())
            if n == 1000:
                clock.advance(0.05)  # the next interval starts
            elif n == 1001:
                sup._stopping.set()
            return handled[-1]

        sup.pump = one_message_per_pump
        sup._monitor_loop()
        assert handled == [1] * 1001
        assert ticks == [0.0, 0.05]
        assert sup.workers["w0"].requests_served == 1001
