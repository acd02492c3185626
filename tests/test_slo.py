"""SLO burn-rate engine: window differencing, alert latching, wiring.

Everything runs on a fake clock with hand-fed snapshots, so the
windows, burn thresholds, and fire/clear edges are exact.  The three
acceptance properties of the alerting recipe are pinned directly:
alerts fire during a sustained error burn, clear after recovery, and a
calm (or idle) window can never false-alert.
"""

from __future__ import annotations

import pytest

from repro.obs import (
    BurnWindow,
    FakeClock,
    MetricsRegistry,
    Observability,
    SloEvaluator,
    certified_fraction_objective,
    cluster_objectives,
    default_objectives,
    lambda_compliance_objective,
    latency_objective,
)
from repro.obs.registry import group_sum
from repro.obs.slo import (
    SLO_ALERT_ACTIVE,
    SLO_ALERTS_TOTAL,
    SLO_BURN_RATE,
)

WINDOWS = (BurnWindow("fast", long_s=60.0, short_s=10.0, burn_threshold=6.0),)


def responses_snapshot(certified: int, uncertified: int = 0,
                       violations: int = 0, **labels) -> dict:
    series = [
        {"labels": {"outcome": "certified", **labels},
         "value": float(certified)},
        {"labels": {"outcome": "uncertified", **labels},
         "value": float(uncertified)},
    ]
    snap = {
        "repro_responses_total": {
            "kind": "counter", "help": "", "series": series,
        },
    }
    if violations:
        snap["repro_lambda_violations_total"] = {
            "kind": "counter", "help": "",
            "series": [{"labels": dict(labels),
                        "value": float(violations)}],
        }
    return snap


def total(snapshot, name, **where) -> float:
    """A counter family's grand total through the shared group-sum."""
    groups = group_sum([snapshot], name, by=(), **where)
    return sum(row["value"] for row in groups.values())


class TestSnapshotArithmetic:
    def test_sum_counter_filters_by_labels(self):
        snap = responses_snapshot(41, 2)
        assert total(snap, "repro_responses_total") == 43.0
        assert total(
            snap, "repro_responses_total", outcome="certified"
        ) == 41.0
        assert total(snap, "missing_family") == 0.0

    def test_sum_counter_source_filter(self):
        snap = {
            "repro_responses_total": {"kind": "counter", "series": [
                {"labels": {"source": "supervisor", "outcome": "certified"},
                 "value": 10.0},
                {"labels": {"source": "w0:0", "outcome": "certified"},
                 "value": 10.0},
            ]},
        }
        assert total(snap, "repro_responses_total") == 20.0
        assert total(
            snap, "repro_responses_total", source="supervisor"
        ) == 10.0

    def test_sum_histogram_under_uses_cumulative_buckets(self):
        snap = {
            "repro_serving_latency_seconds": {
                "kind": "histogram", "series": [{
                    "labels": {}, "count": 10, "sum": 1.0,
                    "buckets": [[0.1, 6], [0.25, 9], ["+Inf", 10]],
                }],
            },
        }
        assert latency_objective(threshold_s=0.25).sampler(snap) == (9.0, 10.0)
        good, _ = latency_objective(threshold_s=0.05).sampler(snap)
        assert good == 6.0  # first edge at/above the threshold answers

    def test_objective_factories_thread_where_filters(self):
        snap = {
            "repro_responses_total": {"kind": "counter", "series": [
                {"labels": {"source": "supervisor", "outcome": "certified"},
                 "value": 8.0},
                {"labels": {"source": "w0:0", "outcome": "certified"},
                 "value": 100.0},
            ]},
        }
        scoped = certified_fraction_objective(source="supervisor")
        assert scoped.sampler(snap) == (8.0, 8.0)
        objectives = cluster_objectives()
        names = [o.name for o in objectives]
        assert names == ["certified_fraction", "lambda_compliance", "latency"]
        assert objectives[0].sampler(snap) == (8.0, 8.0)


class TestBurnRateAlerting:
    def _evaluator(self):
        fake = FakeClock()
        registry = MetricsRegistry()
        evaluator = SloEvaluator(
            (certified_fraction_objective(target=0.9, windows=WINDOWS),),
            registry=registry,
            clock=fake.clock,
        )
        return evaluator, fake, registry

    def _drive(self, evaluator, fake, steps, certified_per_step,
               uncertified_per_step, state, step_s=5.0):
        for _ in range(steps):
            fake.advance(step_s)
            state["c"] += certified_per_step
            state["u"] += uncertified_per_step
            evaluator.evaluate(responses_snapshot(state["c"], state["u"]))

    def test_calm_traffic_never_alerts(self):
        evaluator, fake, _ = self._evaluator()
        state = {"c": 0, "u": 0}
        self._drive(evaluator, fake, 60, 10, 0, state)
        assert evaluator.active_alerts() == {"certified_fraction": False}
        assert evaluator.alerts_fired() == 0

    def test_zero_traffic_never_alerts(self):
        evaluator, fake, _ = self._evaluator()
        for _ in range(50):
            fake.advance(5.0)
            evaluator.evaluate(responses_snapshot(0, 0))
        assert evaluator.alerts_fired() == 0

    def test_alert_fires_during_burn_and_clears_after_recovery(self):
        evaluator, fake, registry = self._evaluator()
        state = {"c": 0, "u": 0}
        self._drive(evaluator, fake, 24, 10, 0, state)       # 2min calm
        assert evaluator.alerts_fired() == 0
        # Overload: everything uncertified → error rate 1.0, burn 10x
        # against a 0.1 budget; both windows exceed threshold 6.
        self._drive(evaluator, fake, 24, 0, 10, state)       # 2min burn
        assert evaluator.active_alerts()["certified_fraction"] is True
        assert evaluator.alerts_fired("certified_fraction") == 1
        assert registry.total(SLO_ALERT_ACTIVE, slo="certified_fraction") == 1
        # Recovery: certified again; the short window cools first and
        # the alert unlatches without waiting out the long window.
        self._drive(evaluator, fake, 6, 10, 0, state)        # 30s calm
        assert evaluator.active_alerts()["certified_fraction"] is False
        assert registry.total(SLO_ALERT_ACTIVE, slo="certified_fraction") == 0
        # The fire/clear pair is on the event log, in order.
        kinds = [e.kind for e in evaluator.alert_events]
        assert kinds == ["fire", "clear"]
        assert evaluator.alerts_fired() == 1
        assert registry.total(
            SLO_ALERTS_TOTAL, slo="certified_fraction"
        ) == 1

    def test_short_blip_does_not_fire_the_long_window(self):
        evaluator, fake, _ = self._evaluator()
        state = {"c": 0, "u": 0}
        self._drive(evaluator, fake, 24, 10, 0, state)
        # One bad 5s sample inside a healthy minute: the short window
        # burns but the long window absorbs it.
        self._drive(evaluator, fake, 1, 0, 10, state)
        self._drive(evaluator, fake, 12, 10, 0, state)
        assert evaluator.alerts_fired() == 0

    def test_min_interval_coalesces_samples(self):
        fake = FakeClock()
        evaluator = SloEvaluator(
            (certified_fraction_objective(windows=WINDOWS),),
            registry=MetricsRegistry(), clock=fake.clock,
            min_interval_s=1.0,
        )
        evaluator.evaluate(responses_snapshot(1, 0))
        fake.advance(0.2)
        evaluator.evaluate(responses_snapshot(2, 0))
        state = evaluator._states["certified_fraction"]
        assert len(state.samples) == 1

    def test_burn_gauges_are_exported(self):
        evaluator, fake, registry = self._evaluator()
        state = {"c": 0, "u": 0}
        self._drive(evaluator, fake, 4, 0, 10, state)
        assert registry.total(
            SLO_BURN_RATE, slo="certified_fraction", window="fast_short"
        ) > 0

    def test_report_shape(self):
        import json

        evaluator, fake, _ = self._evaluator()
        self._drive(evaluator, fake, 3, 5, 0, {"c": 0, "u": 0})
        report = evaluator.report()
        entry = report["certified_fraction"]
        assert entry["target"] == 0.9
        assert entry["alert_active"] is False
        assert "fast" in entry["windows"]
        json.dumps(report)


class TestObjectives:
    def test_lambda_compliance_counts_violations_as_errors(self):
        objective = lambda_compliance_objective()
        snap = responses_snapshot(100, 0, violations=2)
        good, total = objective.sampler(snap)
        assert (good, total) == (98.0, 100.0)

    def test_latency_objective_reads_histogram(self):
        objective = latency_objective(threshold_s=0.25)
        snap = {
            "repro_serving_latency_seconds": {
                "kind": "histogram", "series": [{
                    "labels": {}, "count": 100, "sum": 5.0,
                    "buckets": [[0.1, 90], [0.25, 97], ["+Inf", 100]],
                }],
            },
        }
        assert objective.sampler(snap) == (97.0, 100.0)

    def test_default_objectives_names(self):
        assert [o.name for o in default_objectives()] == [
            "certified_fraction", "lambda_compliance", "latency",
        ]


class TestObservabilityWiring:
    def test_attach_slo_and_report(self):
        fake = FakeClock()
        obs = Observability(clock=fake.clock, spans_enabled=False)
        obs.attach_slo((certified_fraction_objective(windows=WINDOWS),))
        for _ in range(5):
            obs.audit.response("t1", "certified")
            obs.audit.certificate("t1", "exact")
            fake.advance(1.0)
            obs.slo.evaluate()
        report = obs.report()
        assert "slo" in report
        assert report["slo"]["certified_fraction"]["total"] == 5.0
        assert report["slo"]["certified_fraction"]["alert_active"] is False

    def test_slo_gauges_land_in_prometheus_text(self):
        obs = Observability(spans_enabled=False)
        obs.attach_slo()
        obs.slo.evaluate()
        text = obs.prometheus()
        assert "repro_slo_burn_rate" in text
        assert "repro_slo_alert_active" in text


class TestSupervisorWiring:
    """The cluster supervisor evaluates over its merged snapshot."""

    def _cluster(self):
        from test_cluster_supervisor import FakeLauncher, FakeTemplate

        from repro.cluster import ClusterSupervisor, SupervisorPolicy
        from repro.cluster.transport import Ready

        clock = FakeClock()
        sup = ClusterSupervisor(
            [FakeTemplate(f"t{i}") for i in range(6)],
            num_workers=2, snapshot_dir="x",
            policy=SupervisorPolicy(), launcher=FakeLauncher(),
            clock=clock.clock,
        )
        sup.start(monitor=False)
        for wid in sup.workers:
            sup.launcher.deliver(wid, Ready(worker_id=wid, incarnation=0))
        sup.pump()
        return sup, clock

    def _serve_one(self, sup, certified):
        from test_cluster_supervisor import mark_live

        from repro.cluster.transport import Response

        mark_live(sup, *sup.workers)
        name = next(iter(sup.templates))
        fut = sup.submit(name, (0.1, 0.2))
        rid = next(iter(sup._pending))
        pending = sup._pending[rid]
        sup.launcher.deliver(pending.worker_id, Response(
            request_id=rid, worker_id=pending.worker_id, incarnation=0,
            template_name=name, ok=True, certified=certified,
            certificate="exact" if certified else "uncertified",
            certified_bound=1.2 if certified else None,
        ))
        sup.pump()
        assert fut.result(timeout=1) is not None

    def test_cluster_slo_fires_on_uncertified_flood_and_clears(self):
        sup, clock = self._cluster()
        sup.attach_slo(
            (certified_fraction_objective(
                target=0.9, windows=WINDOWS, source="supervisor",
            ),),
            min_interval_s=0.0,
        )
        for _ in range(24):                     # calm: certified traffic
            clock.advance(5.0)
            self._serve_one(sup, certified=True)
            sup.tick()
        assert sup.obs.slo.alerts_fired() == 0
        for _ in range(24):                     # burn: all uncertified
            clock.advance(5.0)
            self._serve_one(sup, certified=False)
            sup.tick()
        assert sup.obs.slo.active_alerts()["certified_fraction"] is True
        for _ in range(6):                      # recovery
            clock.advance(5.0)
            self._serve_one(sup, certified=True)
            sup.tick()
        assert sup.obs.slo.active_alerts()["certified_fraction"] is False
        report = sup.cluster_report()
        assert report["slo"]["certified_fraction"]["alerts_fired"] == 1
        # The evaluator's gauges ride the supervisor registry into the
        # merged exposition, behind the injected source label.
        assert 'repro_slo_alert_active{source="supervisor",slo="certified_fraction"}' in (
            sup.prometheus()
        )

    def test_supervisor_scoped_objective_ignores_worker_series(self):
        from repro.cluster.transport import Heartbeat

        sup, clock = self._cluster()
        sup.attach_slo(
            (certified_fraction_objective(
                target=0.9, windows=WINDOWS, source="supervisor",
            ),),
            min_interval_s=0.0,
        )
        # A worker heartbeat carrying its own (advisory) response
        # counters must not leak into the supervisor-scoped objective.
        sup.launcher.deliver("w0", Heartbeat(
            worker_id="w0", incarnation=0, seq=1, requests_served=50,
            optimizer_calls=0,
            registry={
                "repro_responses_total": {
                    "kind": "counter", "help": "", "series": [
                        {"labels": {"template": "t0",
                                    "outcome": "certified"},
                         "value": 50.0},
                    ],
                },
            },
        ))
        sup.pump()
        clock.advance(5.0)
        self._serve_one(sup, certified=True)
        sup.tick()
        state = sup.obs.slo._states["certified_fraction"]
        assert state.samples[-1][2] == 1.0      # total: supervisor only


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-q"]))
