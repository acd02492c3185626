"""Chaos gate: sustained overload + seeded worker kills, zero regrets.

The fault-tolerance acceptance gate of the multi-process serving tier
(DESIGN.md §13).  One run, four assertions:

1. **Zero lost requests** — every submitted future resolves with a
   worker response even though seeded kills land mid-phase (the drain
   protocol: retried-on-peer or shed, never hung, and with spare ring
   peers nothing actually sheds as ``worker_lost``).
2. **Zero certified-guarantee violations** — every certified response
   ships its plan's recosted cost at the served sVector (worker-side
   verification), and this benchmark audits ``cost / optimal ≤ λ``
   against its *own* memoized oracle, independent of both the workers
   and the supervisor.
3. **Warm-start pays ≤20% of cold-start** — after recovery, replaying
   the full workload costs the snapshot-restored replacement at most
   20% of the optimizer calls a cold start paid for the same work.
4. **Merged exposition preserves exactly-one-outcome** — summing the
   supervisor-source ``repro_responses_total`` series of the merged
   Prometheus exposition reproduces the submitted count exactly,
   across all deaths and restarts.

Load is offered in bursts at well over the sustained service rate
(recorded and asserted ≥2×), with a kill injected between bursts —
"kills every few seconds" at this repo's usual scaled-down timings.

Artifacts (mirroring the ``BENCH_GETPLAN_JSON`` pattern):
``CLUSTER_CHAOS_JSON=1`` writes ``BENCH_cluster_chaos.json``;
``CLUSTER_CHAOS_EVENTS=<path>`` streams fault/phase events as JSONL.
"""

from __future__ import annotations

import json
import os
import platform
import re
import time
from pathlib import Path

import pytest

from repro.catalog.registry import get_database
from repro.cluster import ClusterSupervisor, ProcessFaultInjector, SupervisorPolicy
from repro.harness.oracle import Oracle
from repro.workload.generator import instances_for_template
from repro.workload.templates import tpch_templates

pytestmark = pytest.mark.cluster

LAM = 2.0
DB_SCALE = 0.3
DB_SEED = 42
WARM_M = 40          # instances per template in the cold phase
CHAOS_REPLAYS = 8    # workload replays offered during the chaos phase
BURSTS = 12
KILL_EVERY_BURSTS = 4
#: Pause between bursts: 52 requests per 0.1 s offers 520/s.  The
#: overload witness needs over twice the cold service rate, which reads
#: 85–120/s on a 2-vCPU box (0.25 s, i.e. 208/s, failed the witness in
#: one run of four there).
BURST_GAP_S = 0.1
TEMPLATES = tpch_templates()[:2]

POLICY = SupervisorPolicy(
    heartbeat_timeout=0.8,
    restart_backoff_base=0.05,
    max_retries=2,
    drain_timeout=20.0,
)


class _Events:
    """JSONL event stream for the chaos run (optional artifact)."""

    def __init__(self) -> None:
        path = os.environ.get("CLUSTER_CHAOS_EVENTS")
        self._fh = open(path, "w", encoding="utf-8") if path else None
        self._t0 = time.monotonic()

    def emit(self, kind: str, **fields) -> None:
        if self._fh is None:
            return
        row = {"t": round(time.monotonic() - self._t0, 4), "event": kind}
        row.update(fields)
        self._fh.write(json.dumps(row, sort_keys=True) + "\n")
        self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()


CHAOS_JSON = Path(__file__).parents[1] / "BENCH_cluster_chaos.json"
CHAOS_SCHEMA = 2
MAX_CHAOS_RUNS = 20


def _append_chaos_trajectory(summary: dict) -> None:
    """Append this run under the shared v2 trajectory envelope."""
    doc = {
        "schema_version": CHAOS_SCHEMA,
        "benchmark": "cluster_chaos",
        "runs": [],
    }
    if CHAOS_JSON.exists():
        loaded = json.loads(CHAOS_JSON.read_text(encoding="utf-8"))
        if loaded.get("schema_version") == CHAOS_SCHEMA:
            doc = loaded
    doc["runs"].append({
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "meta": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
            "templates": [t.name for t in TEMPLATES],
            "bursts": BURSTS,
        },
        "summary": summary,
    })
    doc["runs"] = doc["runs"][-MAX_CHAOS_RUNS:]
    CHAOS_JSON.write_text(
        json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )


def _submit_replay(supervisor, streams, lo, hi):
    futures = []
    for i in range(lo, hi):
        for template in TEMPLATES:
            futures.append(supervisor.submit(
                template.name, streams[template.name][i].sv.values,
                sequence_id=i,
            ))
    return futures


def _await_all(futures, timeout=120.0):
    deadline = time.monotonic() + timeout
    responses = []
    for fut in futures:
        responses.append(fut.result(
            timeout=max(0.1, deadline - time.monotonic())
        ))
    return responses


def _wait_for(predicate, timeout=30.0, what="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.05)
    raise AssertionError(f"timed out waiting for {what}")


def _fleet_optimizer_calls(supervisor):
    return {
        wid: (handle.incarnation, handle.optimizer_calls)
        for wid, handle in supervisor.workers.items()
    }


def test_chaos_gate(tmp_path):
    events = _Events()
    streams = {
        t.name: instances_for_template(t, WARM_M, seed=1) for t in TEMPLATES
    }
    oracles = {
        t.name: Oracle(get_database(t.database, scale=DB_SCALE, seed=DB_SEED), t)
        for t in TEMPLATES
    }
    supervisor = ClusterSupervisor(
        TEMPLATES, num_workers=3, snapshot_dir=str(tmp_path),
        policy=POLICY, lam=LAM, db_scale=DB_SCALE, db_seed=DB_SEED,
        heartbeat_interval=0.1, snapshot_interval=0.25, verify=True,
    )
    supervisor.start()
    injector = ProcessFaultInjector(supervisor, seed=11)
    all_responses = []
    summary = {}
    try:
        # -- Phase A: cold start --------------------------------------------
        t0 = time.monotonic()
        responses = _await_all(_submit_replay(supervisor, streams, 0, WARM_M))
        cold_seconds = time.monotonic() - t0
        all_responses.extend(responses)
        _wait_for(
            lambda: _fleet_sum(supervisor) > 0,
            what="cold optimizer calls to appear in heartbeats",
        )
        cold_calls = _fleet_optimizer_calls(supervisor)
        cold_ref = max(calls for _, calls in cold_calls.values())
        cold_total = sum(calls for _, calls in cold_calls.values())
        service_rate = len(responses) / cold_seconds
        events.emit("phase", name="cold", seconds=round(cold_seconds, 3),
                    requests=len(responses), optimizer_calls=cold_total)
        _wait_for(
            lambda: len(injector.store.published_templates()) == len(TEMPLATES),
            what="snapshots of every template",
        )

        # -- Phase B: sustained ≥2x load with seeded kills ------------------
        per_burst = max(1, WARM_M * CHAOS_REPLAYS // BURSTS)
        futures = []
        kills = []
        t0 = time.monotonic()
        burst_gap = BURST_GAP_S
        for burst in range(BURSTS):
            if burst and burst % KILL_EVERY_BURSTS == 0:
                event = injector.inject("kill")
                kills.append(event)
                events.emit("fault", detail=event)
            lo = (burst * per_burst) % WARM_M
            for i in range(per_burst):
                idx = (lo + i) % WARM_M
                for template in TEMPLATES:
                    futures.append(supervisor.submit(
                        template.name, streams[template.name][idx].sv.values,
                        sequence_id=idx,
                    ))
            time.sleep(burst_gap)
        offered_seconds = time.monotonic() - t0
        offered_rate = len(futures) / offered_seconds
        responses = _await_all(futures)
        chaos_seconds = time.monotonic() - t0
        all_responses.extend(responses)
        served_rate = len(responses) / chaos_seconds
        events.emit("phase", name="chaos", seconds=round(chaos_seconds, 3),
                    requests=len(responses), kills=len(kills),
                    offered_rate=round(offered_rate, 1),
                    served_rate=round(served_rate, 1))

        # Gate 1: zero lost requests — every future resolved with a
        # worker response (no WorkerLostError, nothing hung).
        assert len(kills) >= 2, "chaos phase must actually kill workers"
        report = supervisor.cluster_report()
        assert report["worker_lost"] == 0
        assert report["resolved"] == report["submitted"]
        assert report["in_flight"] == 0

        # The overload witness: bursts arrive far above sustained service.
        burst_rate = per_burst * len(TEMPLATES) / max(1e-9, burst_gap)
        assert burst_rate >= 2 * service_rate, (
            f"offered burst rate {burst_rate:.0f}/s is not ≥2x the "
            f"sustained service rate {service_rate:.0f}/s"
        )

        # -- Phase C: recovery + warm-start accounting ----------------------
        _wait_for(
            lambda: all(
                h.state.value == "live" for h in supervisor.workers.values()
            ),
            what="every worker live again after the kills",
        )
        replaced = {
            wid: handle for wid, handle in supervisor.workers.items()
            if handle.restarts > 0
        }
        assert replaced, "at least one worker must have been restarted"
        for wid, handle in replaced.items():
            assert handle.warm_templates == len(TEMPLATES), (
                f"{wid} restarted cold: {handle.cold_templates} cold templates"
            )
        # Ready makes a worker live before it has heartbeat: read the
        # baseline only once every replacement reported its own counts.
        _wait_for(
            lambda: _reported_since_restart(supervisor, replaced),
            what="a heartbeat from every replacement",
        )
        before = _fleet_optimizer_calls(supervisor)
        responses = _await_all(_submit_replay(supervisor, streams, 0, WARM_M))
        all_responses.extend(responses)
        _wait_for(
            lambda: _heartbeats_settled(supervisor),
            what="post-replay heartbeats",
        )
        after = _fleet_optimizer_calls(supervisor)
        warm_deltas = {}
        for wid in replaced:
            inc_before, calls_before = before[wid]
            inc_after, calls_after = after[wid]
            assert inc_before == inc_after, "chaos leaked into phase C"
            warm_deltas[wid] = calls_after - calls_before
        # Gate 3: the warm-started replacement re-serves the whole
        # workload with ≤20% of a cold start's optimizer calls.
        allowed = max(3.0, 0.2 * cold_ref)
        assert max(warm_deltas.values()) <= allowed, (
            f"warm replay cost {warm_deltas} optimizer calls; "
            f"cold reference was {cold_ref} (allowed {allowed:.1f})"
        )
        events.emit("phase", name="warm_replay", deltas=warm_deltas,
                    cold_reference=cold_ref)

        # Gate 2: zero certified λ-violations vs the independent oracle.
        checked, violations, worst = _audit_lambda_with_sv(
            all_responses, oracles, streams
        )
        assert checked > 0, "verification shipped no recosted costs"
        assert violations == 0, (
            f"{violations}/{checked} certified responses exceeded λ={LAM} "
            f"(worst ratio {worst:.3f})"
        )
        report = supervisor.cluster_report()
        assert report["supervisor_lambda_violations"] == 0
        assert report["worker_lambda_violations"] == 0

        # Gate 4: the merged exposition preserves exactly-one-outcome.
        text = supervisor.prometheus()
        accounted = _supervisor_responses_total(text)
        assert accounted == report["submitted"], (
            f"exposition accounts {accounted} responses, "
            f"submitted {report['submitted']}"
        )
        assert re.search(r'source="w\d+:\d+"', text), (
            "worker registries missing from the merged exposition"
        )

        summary = {
            "submitted": report["submitted"],
            "resolved": report["resolved"],
            "outcomes": report["outcomes"],
            "retries": report["retries"],
            "worker_lost": report["worker_lost"],
            "kills": kills,
            "faults_injected": list(injector.injected),
            "cold_optimizer_calls": cold_total,
            "cold_reference": cold_ref,
            "warm_replay_deltas": warm_deltas,
            "service_rate_cold": round(service_rate, 1),
            "offered_burst_rate": round(burst_rate, 1),
            "chaos_served_rate": round(served_rate, 1),
            "lambda_checked": checked,
            "lambda_violations": violations,
            "worst_ratio": round(worst, 4),
            "restarts": {
                wid: h.restarts for wid, h in supervisor.workers.items()
            },
        }
        events.emit("summary", **summary)
        print("\nchaos gate:", json.dumps(summary, indent=2, sort_keys=True))
    finally:
        supervisor.close()
        events.close()
    if summary and os.environ.get("CLUSTER_CHAOS_JSON"):
        _append_chaos_trajectory(summary)


def test_slo_burn_gate(tmp_path):
    """SLO burn-rate acceptance over a real spawned-worker cluster.

    Three wall-clock windows against one supervisor with overload
    protection and distributed tracing on:

    * **calm** — paced, cache-warm traffic: zero alerts fire;
    * **overload** — a flood of never-seen sVectors saturates the
      optimizer admission gate, so misses are served uncertified /
      shed and the certified-fraction SLO burns through its budget:
      the multi-window alert must fire (a seeded kill lands mid-flood
      so the window also covers retried-on-peer traffic);
    * **recovery** — paced warm traffic again: the short window cools
      and the alert clears without operator action.

    Windows are scaled to benchmark time (3 s / 0.75 s) the same way
    the cluster scales heartbeats; the semantics under test — fire on
    sustained burn, hold through noise, clear on recovery — are window-
    size-independent.  With ``CLUSTER_CHAOS_ARTIFACT_DIR`` set, writes
    the SLO report and a rendered trace tree of one retried request.
    """
    from repro.obs import (
        BurnWindow,
        build_tree,
        certified_fraction_objective,
        explain_trace,
        format_explanation,
        render_tree,
    )

    warm_m = 20
    flood_m = 200
    streams = {
        t.name: instances_for_template(t, warm_m, seed=1) for t in TEMPLATES
    }
    flood_streams = {
        t.name: instances_for_template(t, flood_m, seed=99) for t in TEMPLATES
    }
    # λ is deliberately tight: at the usual λ=2 the warm SCR cache
    # certifies nearly any fresh sVector without an optimizer call, so
    # no flood could ever pressure the admission gate.  At λ=1.05 fresh
    # points miss, and each miss pays the simulated 50 ms optimize —
    # the flood saturates the gate and misses degrade to uncertified.
    supervisor = ClusterSupervisor(
        TEMPLATES, num_workers=2, snapshot_dir=str(tmp_path),
        policy=POLICY, lam=1.05, db_scale=DB_SCALE, db_seed=DB_SEED,
        heartbeat_interval=0.1, snapshot_interval=0.25,
        overload=True, trace=True,
        optimize_seconds=0.05, recost_seconds=0.002,
    )
    windows = (
        BurnWindow("fast", long_s=3.0, short_s=0.75, burn_threshold=3.0),
    )
    supervisor.start()
    injector = ProcessFaultInjector(supervisor, seed=5)
    try:
        # Warm every template so calm traffic is all cache hits.
        _await_all(_submit_replay(supervisor, streams, 0, warm_m))
        supervisor.attach_slo(
            (certified_fraction_objective(
                target=0.9, windows=windows, source="supervisor",
            ),),
            min_interval_s=0.05,
        )
        slo = supervisor.obs.slo

        # -- calm window: paced warm traffic, zero false alerts -------------
        calm_deadline = time.monotonic() + 2 * windows[0].long_s
        idx = 0
        while time.monotonic() < calm_deadline:
            _await_all(_submit_replay(
                supervisor, streams, idx % warm_m, idx % warm_m + 1
            ))
            idx += 1
            time.sleep(0.05)
        assert slo.alerts_fired() == 0, (
            f"false alert during the calm window: {slo.report()}"
        )

        # -- overload window: flood of misses saturates the gate ------------
        futures = []
        killed = False
        flood_deadline = time.monotonic() + 4 * windows[0].long_s
        lo = 0
        while time.monotonic() < flood_deadline and lo < flood_m:
            for i in range(lo, min(lo + 40, flood_m)):
                for template in TEMPLATES:
                    futures.append(supervisor.submit(
                        template.name,
                        flood_streams[template.name][i].sv.values,
                        sequence_id=i,
                    ))
            lo += 40
            if lo >= 80 and not killed:
                injector.inject("kill")     # retries ride the same burn
                killed = True
            time.sleep(0.1)
        _wait_for(
            lambda: slo.active_alerts().get("certified_fraction", False),
            timeout=20.0,
            what="certified-fraction burn alert to fire under overload",
        )
        _await_all(futures)

        # -- recovery window: paced warm traffic clears the alert -----------
        recover_deadline = time.monotonic() + 20.0
        while time.monotonic() < recover_deadline:
            _await_all(_submit_replay(
                supervisor, streams, idx % warm_m, idx % warm_m + 1
            ))
            idx += 1
            if not slo.active_alerts()["certified_fraction"]:
                break
            time.sleep(0.05)
        assert not slo.active_alerts()["certified_fraction"], (
            "burn alert failed to clear after recovery"
        )
        kinds = [e.kind for e in slo.alert_events]
        assert kinds[0] == "fire" and "clear" in kinds
        assert slo.alerts_fired("certified_fraction") >= 1

        report = supervisor.cluster_report()
        assert "slo" in report
        # Alert state also rides the merged exposition for scrapers.
        assert "repro_slo_alerts_total" in supervisor.prometheus()

        # A retried-on-peer request from the flood, as one trace tree.
        retried_spans = None
        for fut in futures:
            spans = supervisor.trace_spans(fut.trace_id)
            if any(
                s.name == "cluster.dispatch"
                and s.attrs.get("outcome") == "worker_died"
                for s in spans
            ):
                retried_spans = spans
                break
        if retried_spans is not None:
            assert len(build_tree(retried_spans)) == 1

        artifact_dir = os.environ.get("CLUSTER_CHAOS_ARTIFACT_DIR")
        if artifact_dir:
            os.makedirs(artifact_dir, exist_ok=True)
            with open(
                os.path.join(artifact_dir, "chaos_slo_report.json"),
                "w", encoding="utf-8",
            ) as fh:
                json.dump(report["slo"], fh, indent=2, sort_keys=True)
            tree_spans = retried_spans or supervisor.trace_spans(
                futures[-1].trace_id
            )
            with open(
                os.path.join(artifact_dir, "chaos_trace_tree.txt"),
                "w", encoding="utf-8",
            ) as fh:
                fh.write(render_tree(tree_spans) + "\n\n")
                fh.write(format_explanation(explain_trace(tree_spans)) + "\n")
    finally:
        supervisor.close()


def _fleet_sum(supervisor) -> int:
    return sum(h.optimizer_calls for h in supervisor.workers.values())


def _reported_since_restart(supervisor, handles) -> bool:
    """True once each handle's live incarnation has sent a heartbeat
    (its registry snapshot is then on record)."""
    return all(
        (wid, handle.incarnation) in supervisor._registry_history
        for wid, handle in handles.items()
    )


def _heartbeats_settled(supervisor, within: float = 0.25) -> bool:
    """True once every live worker heartbeat is recent (stats current)."""
    now = supervisor.clock.monotonic()
    return all(
        now - h.last_heartbeat < within
        for h in supervisor.workers.values()
        if h.state.value == "live"
    )


def _audit_lambda_with_sv(responses, oracles, streams):
    """λ audit keyed by sequence_id: recover each response's sVector."""
    checked = violations = 0
    worst = 0.0
    for response in responses:
        if not (response.ok and response.certified):
            continue
        if response.plan_cost_at_sv is None or response.sequence_id < 0:
            continue
        sv = streams[response.template_name][response.sequence_id].sv
        optimal = oracles[response.template_name].optimal(sv).optimal_cost
        ratio = response.plan_cost_at_sv / optimal
        checked += 1
        worst = max(worst, ratio)
        if ratio > LAM * (1 + 1e-9):
            violations += 1
    return checked, violations, worst


def _supervisor_responses_total(text: str) -> int:
    """Sum the supervisor-source response counters in the exposition."""
    total = 0.0
    pattern = re.compile(
        r'^repro_responses_total\{([^}]*)\} ([0-9.]+)$', re.MULTILINE
    )
    for labels, value in pattern.findall(text):
        if 'source="supervisor"' in labels:
            total += float(value)
    return int(total)
