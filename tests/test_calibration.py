"""Calibration observatory tests: detectors, feeds, drift, repair.

The acceptance bar of DESIGN.md §15: the calibration feeds grade a
well-calibrated engine A and stay alarm-free on a calm workload; an
injected cost-model shift raises a typed ``DriftEvent`` within a
bounded number of requests; a budgeted recost sweep repairs the cache
and clears the alarm; the anchor-attribution counters balance against
the getPlan hit counters (the identity the doctor self-checks); and the
doctor reports — local and cluster-merged — carry it all under a
stable schema.
"""

from __future__ import annotations

import json
import math

import pytest

from conftest import build_toy_schema
from repro.core.persistence import dump_cache, load_cache
from repro.core.scr import SCR
from repro.engine.database import Database
from repro.engine.faults import DriftingCostEngine, NoisyEngine
from repro.harness.oracle import Oracle
from repro.obs import Observability
from repro.obs.calibration import (
    CALIBRATION_BIAS,
    CALIBRATION_ERROR,
    DRIFT_ALARM,
    DRIFT_EVENTS,
    RECOST_SWEEPS,
    SWEEP_RECOST_CALLS,
    BlockShiftDetector,
    CalibrationTracker,
    Ewma,
    grade_for,
)
from repro.obs.doctor import (
    DOCTOR_SCHEMA,
    doctor_from_sources,
    render_doctor_report,
    template_summary,
)
from repro.obs.registry import MetricsRegistry
from repro.query.instance import QueryInstance
from repro.query.template import QueryTemplate, join, range_predicate
from repro.serving import ConcurrentPQOManager
from repro.workload.generator import generate_selectivity_vectors

LAM = 2.0


def make_template(name: str = "cal_join") -> QueryTemplate:
    return QueryTemplate(
        name=name,
        database="toy",
        tables=["orders", "cust"],
        joins=[join("orders", "o_cust", "cust", "c_id")],
        parameterized=[
            range_predicate("orders", "o_date", "<="),
            range_predicate("cust", "c_bal", "<="),
        ],
    )


def make_db() -> Database:
    return Database.create(build_toy_schema(), seed=11)


def workload(template: QueryTemplate, m: int, seed: int = 21):
    return [
        QueryInstance(template.name, sv=sv)
        for sv in generate_selectivity_vectors(2, m, seed=seed)
    ]


# ---------------------------------------------------------------------------
# unit: the EWMA and the shift detector


class TestEwma:
    def test_seeded_by_first_sample(self):
        e = Ewma(alpha=0.25)
        assert e.value is None
        assert e.update(4.0) == 4.0
        assert e.update(8.0) == pytest.approx(4.0 + 0.25 * 4.0)

    def test_alpha_validated(self):
        with pytest.raises(ValueError):
            Ewma(alpha=0.0)
        with pytest.raises(ValueError):
            Ewma(alpha=1.5)


# Small geometry so unit tests exercise the rule in a few dozen samples
# (the production defaults only change the scale, not the logic).
FAST = dict(tau=0.3, k=3, m=4, block=5, ref=4, lag=2, warm=3)


def feed_blocks(det: BlockShiftDetector, levels, block: int = 5) -> list[int]:
    """Feed constant-level blocks; return indices of blocks that fired."""
    fired = []
    for i, level in enumerate(levels):
        for _ in range(block):
            if det.update(level):
                fired.append(i)
    return fired


class TestBlockShiftDetector:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            BlockShiftDetector(k=5, m=4)
        with pytest.raises(ValueError):
            BlockShiftDetector(k=0)
        with pytest.raises(ValueError):
            BlockShiftDetector(lag=0)
        with pytest.raises(ValueError):
            BlockShiftDetector(ref=1)

    def test_calm_stream_is_silent(self):
        det = BlockShiftDetector(**FAST)
        # Small deterministic jitter around zero, well inside tau.
        for i in range(200):
            assert not det.update(0.05 * math.sin(0.7 * i))
        assert det.warmed_up
        assert abs(det.last_deviation) < FAST["tau"]

    def test_sustained_shift_fires(self):
        det = BlockShiftDetector(**FAST)
        fired = feed_blocks(det, [0.0] * 10 + [0.5] * 8)
        assert fired, "a 0.5-shift over 8 blocks must trip tau=0.3"
        # Fires only after the runs rule has k=3 shifted deviations,
        # never on the very first shifted block.
        assert fired[0] > 10

    def test_downward_shift_fires_too(self):
        det = BlockShiftDetector(**FAST)
        assert feed_blocks(det, [0.0] * 10 + [-0.5] * 8)

    def test_single_outlier_block_is_ignored(self):
        det = BlockShiftDetector(**FAST)
        # One wild block in a calm stream: the runs rule needs k=3 of
        # the last m=4 deviations on the same side, so one is noise.
        assert not feed_blocks(det, [0.0] * 10 + [5.0] + [0.0] * 10)

    def test_warmup_suppresses_the_rule(self):
        det = BlockShiftDetector(**FAST)
        # Wild swings entirely inside the warm-up window: never fires,
        # and the detector is not yet armed.
        assert not feed_blocks(det, [0.0, 10.0, -10.0])
        assert not det.warmed_up

    def test_slow_trend_tracked_without_alarm(self):
        det = BlockShiftDetector(**FAST)
        # Drifting by 0.02 per block: the lagged reference trails by
        # lag=2 blocks, so deviations stay ~0.04 << tau.
        assert not feed_blocks(det, [0.02 * i for i in range(40)])

    def test_reset_relearns_from_scratch(self):
        det = BlockShiftDetector(**FAST)
        feed_blocks(det, [0.0] * 12)
        det.reset()
        assert det.n == 0 and det.blocks == 0
        assert det.reference is None and not det.warmed_up


class TestGrades:
    def test_grade_edges(self):
        assert grade_for(0.0) == "A"
        assert grade_for(0.05) == "A"
        assert grade_for(0.06) == "B"
        assert grade_for(0.35) == "C"
        assert grade_for(0.5) == "D"
        assert grade_for(1.0) == "F"


# ---------------------------------------------------------------------------
# unit: record_ratio / record_sv semantics on a bare tracker


@pytest.fixture
def fast_detectors(monkeypatch):
    """Shrink the default detector geometry so tracker-level tests see
    events within tens of samples instead of hundreds."""
    import repro.obs.calibration as calibration

    monkeypatch.setattr(calibration, "CALIBRATION_DETECTOR", FAST)
    monkeypatch.setattr(
        calibration, "SELECTIVITY_DETECTOR", dict(FAST, tau=2.0)
    )


class TestRecordRatio:
    def setup_method(self):
        self.registry = MetricsRegistry()
        self.tracker = CalibrationTracker(self.registry)
        self.cal = self.tracker.template("t1")

    def _hist_child(self, kind="exact", feed="recost"):
        return self.registry.get(CALIBRATION_ERROR).labels(
            template="t1", kind=kind, feed=feed
        )

    def test_inside_interval_observes_zero_excess(self):
        # Actual lands inside the Cost Bounding Lemma interval: the
        # histogram sees 0 (the model's claim held) while the bias EWMA
        # keeps the signed ratio.
        self.cal.record_ratio(
            "recost", "exact", predicted=100.0, actual=120.0,
            log_slack_hi=0.5, log_slack_lo=0.5,
        )
        child = self._hist_child()
        assert child.count == 1
        assert child.sum == 0.0
        bias = self.registry.value(
            CALIBRATION_BIAS, template="t1", feed="recost"
        )
        assert bias == pytest.approx(math.log(1.2))

    def test_outside_interval_observes_the_excess(self):
        self.cal.record_ratio(
            "recost", "exact",
            predicted=100.0, actual=100.0 * math.exp(1.0),
            log_slack_hi=0.3,
        )
        assert self._hist_child().sum == pytest.approx(0.7)

    def test_low_side_excess_uses_low_slack(self):
        self.cal.record_ratio(
            "recost", "exact",
            predicted=100.0, actual=100.0 * math.exp(-1.0),
            log_slack_hi=5.0, log_slack_lo=0.4,
        )
        assert self._hist_child().sum == pytest.approx(0.6)

    def test_non_positive_costs_are_ignored(self):
        assert self.cal.record_ratio("recost", "exact", 0.0, 5.0) is None
        assert self.cal.record_ratio("recost", "exact", 5.0, -1.0) is None
        assert self.cal.samples["recost"] == 0

    def test_oracle_feed_degenerates_to_abs_log_ratio(self):
        self.cal.record_ratio(
            "oracle", "exact", predicted=10.0, actual=10.0 * math.e
        )
        assert self._hist_child(feed="oracle").sum == pytest.approx(1.0)

    def test_score_grades_and_na_without_samples(self):
        assert self.cal.score()["grade"] == "n/a"
        for _ in range(20):
            self.cal.record_ratio(
                "recost", "exact", 100.0, 101.0, log_slack_hi=0.5
            )
        score = self.cal.score()
        assert score["grade"] == "A"
        assert score["feeds"]["recost"]["samples"] == 20
        # The grade takes the worst feed: a bad oracle feed drags it.
        for _ in range(20):
            self.cal.record_ratio("oracle", "exact", 1.0, math.exp(2.0))
        worst = self.cal.score()
        assert worst["grade"] == "F"
        assert worst["headroom_factor_p90"] > math.exp(1.0)


class TestDriftEvents:
    def test_shift_emits_one_latched_event(self, fast_detectors):
        registry = MetricsRegistry()
        tracker = CalibrationTracker(registry)
        cal = tracker.template("t1")
        for _ in range(60):  # 12 calm blocks of 5
            cal.record_ratio("recost", "exact", 100.0, 100.0)
        for _ in range(60):  # sustained 1.6x shift
            cal.record_ratio("recost", "exact", 100.0, 160.0)
        assert cal.alarms["calibration"]
        assert len(tracker.events) == 1  # latched: no re-fire while up
        event = tracker.events[0]
        assert event.template == "t1" and event.signal == "calibration"
        assert event.value > 0.3  # EWMA moved toward ln 1.6
        assert "recost sweep" in event.recommended_action
        assert registry.value(
            DRIFT_EVENTS, template="t1", signal="calibration"
        ) == 1
        assert registry.value(
            DRIFT_ALARM, template="t1", signal="calibration"
        ) == 1
        assert tracker.active_alarms() == [
            {"template": "t1", "signal": "calibration"}
        ]

        cal.clear_alarm("calibration")
        assert not cal.alarms["calibration"]
        assert registry.value(
            DRIFT_ALARM, template="t1", signal="calibration"
        ) == 0

    def test_selectivity_signal_watches_log_area(self, fast_detectors):
        tracker = CalibrationTracker(MetricsRegistry())
        cal = tracker.template("t1")
        assert cal.record_sv((0.5, 0.0)) is None  # degenerate sv skipped
        assert cal.sv_samples == 0
        for _ in range(60):
            cal.record_sv((0.1, 0.2))
        for _ in range(60):  # region-mix change: log area moves ~9 nats
            cal.record_sv((0.001, 0.0002))
        assert cal.alarms["selectivity"]
        assert tracker.events[0].signal == "selectivity"
        assert "seeding" in tracker.events[0].recommended_action

    def test_event_log_is_bounded(self, fast_detectors):
        tracker = CalibrationTracker(MetricsRegistry(), max_events=1)
        for name in ("a", "b"):
            cal = tracker.template(name)
            for _ in range(60):
                cal.record_ratio("recost", "exact", 100.0, 100.0)
            for _ in range(60):
                cal.record_ratio("recost", "exact", 100.0, 160.0)
        assert len(tracker.events) == 1
        # Both alarms latched even though only one event was kept.
        assert len(tracker.active_alarms()) == 2

    def test_on_event_callbacks_fire(self, fast_detectors):
        tracker = CalibrationTracker(MetricsRegistry())
        seen = []
        tracker.on_event.append(seen.append)
        cal = tracker.template("t1")
        for _ in range(60):
            cal.record_ratio("recost", "exact", 100.0, 100.0)
        for _ in range(60):
            cal.record_ratio("recost", "exact", 100.0, 160.0)
        assert len(seen) == 1 and seen[0].template == "t1"

    def test_note_sweep_books_and_clears(self):
        registry = MetricsRegistry()
        tracker = CalibrationTracker(registry)
        cal = tracker.template("t1")
        cal.alarms["calibration"] = True
        tracker.note_sweep("t1", recost_calls=40)
        assert not cal.alarms["calibration"]
        assert registry.value(RECOST_SWEEPS, template="t1") == 1
        assert registry.value(SWEEP_RECOST_CALLS, template="t1") == 40


# ---------------------------------------------------------------------------
# integration: SCR on the toy engine


class TestCalmServing:
    def test_calm_run_grades_a_with_no_alarms(self):
        db, template = make_db(), make_template()
        obs = Observability()
        scr = SCR(db.engine(template), lam=LAM, obs=obs)
        for q in workload(template, 150):
            scr.process(q)
        cal = scr.calibration
        assert cal is not None
        # The recost feed is free: cost checks already paid the calls.
        assert cal.samples["recost"] > 50
        assert cal.sv_samples == 150
        score = cal.score()
        assert score["grade"] == "A"
        assert score["alarms"] == {
            "calibration": False, "selectivity": False,
        }
        assert not obs.calibration.events

    def test_anchor_accounting_identity(self):
        db, template = make_db(), make_template()
        scr = SCR(db.engine(template), lam=LAM)
        for q in workload(template, 150):
            scr.process(q)
        gp, cache = scr.get_plan, scr.cache
        sel, cost, spend = cache.anchor_hit_totals()
        assert (sel, cost) == (gp.selectivity_hits, gp.cost_hits)
        assert spend <= gp.total_recost_calls
        summary = template_summary(scr)
        report = doctor_from_sources({}, {"serial": {template.name: summary}})
        assert report["errors"] == []
        anchors = report["templates"][template.name]["anchors"]
        assert anchors["optimizer_calls_saved"] == sel + cost
        assert anchors["live_anchors"] == len(list(scr.cache.instances()))
        assert anchors["wasted_optimizer_calls"] == (
            anchors["never_hit_live"] + anchors["evicted_never_hit"]
        )

    def test_served_misses_feed_calibration_like_serial(self):
        """A one-worker serving shard records the same recost samples as
        serial SCR — misses included, since a drifting model inflates
        exactly the ratios that fail the cost check."""
        template = make_template()
        instances = workload(template, 300)
        runs = {}
        for impl in ("serial", "served"):
            obs = Observability()
            if impl == "serial":
                scr = SCR(make_db().engine(template), lam=LAM, obs=obs)
                serve = scr.process
            else:
                manager = ConcurrentPQOManager(
                    database=make_db(), max_workers=1, obs=obs
                )
                scr = manager.register(template, lam=LAM).scr
                serve = manager.process
            pairs = []
            record = scr.calibration.record_ratio

            def recording(feed, kind, predicted, actual, **slack):
                pairs.append((feed, kind, predicted, actual))
                return record(feed, kind, predicted, actual, **slack)

            scr.calibration.record_ratio = recording
            checks = [serve(q).check for q in instances]
            if impl == "served":
                manager.close()
            runs[impl] = (
                checks, scr.calibration.samples["recost"], sorted(pairs)
            )
        assert runs["served"] == runs["serial"]
        checks, samples, _ = runs["serial"]
        assert "optimizer" in checks and "cost" in checks
        # One sample per Recost call, on hits and misses alike.
        assert samples == scr.get_plan.total_recost_calls > 0


class TestDriftToRepair:
    """The full observatory loop: inject drift, detect, sweep, verify."""

    def test_cost_model_drift_detected_and_swept(self):
        db, template = make_db(), make_template()
        obs = Observability()
        engine = DriftingCostEngine(db.engine(template))
        scr = SCR(engine, lam=LAM, obs=obs)

        # Calm phase: until the block detector is warm — it arms after
        # ``warm`` blocks of ``block`` recost samples, however many
        # requests it takes to produce them.
        geometry = BlockShiftDetector()
        warm_samples = (geometry.warm + 1) * geometry.block
        for q in workload(template, 900, seed=7):
            scr.process(q)
            if scr.calibration.samples["recost"] >= warm_samples:
                break
        assert scr.calibration.samples["recost"] >= warm_samples
        assert not scr.calibration.alarms["calibration"]

        # Inject a 1.6x cost-model shift.  Anchors stored before the
        # shift keep stale costs, so recost ratios move by ~ln 1.6 —
        # but only until misses re-anchor the cache under the new
        # model, so detection must land inside that window.
        engine.set_factor(1.6)
        detected_at = None
        for i, q in enumerate(workload(template, 800, seed=99)):
            scr.process(q)
            if scr.calibration.alarms["calibration"]:
                detected_at = i
                break
        assert detected_at is not None, "drift never detected"
        events = obs.calibration.events
        assert events and events[-1].signal == "calibration"
        assert events[-1].template == template.name

        # Budgeted repair: the sweep re-costs stale anchors and resets
        # the detector baseline; corrections average a sizable fraction
        # of ln 1.6 (some anchors already self-healed via misses).
        result = scr.recalibrate(budget=200)
        assert result.refreshed > 0
        assert result.recost_calls <= 200
        assert 0.05 < result.mean_correction < math.log(1.6) + 0.05
        assert not scr.calibration.alarms["calibration"]
        assert obs.registry.value(
            RECOST_SWEEPS, template=template.name
        ) == 1

        # Post-sweep the cache is calibrated *under the new model*:
        # no re-alarm and a clean grade.
        for q in workload(template, 300, seed=13):
            scr.process(q)
        assert not scr.calibration.alarms["calibration"]
        assert scr.calibration.score()["grade"] == "A"

    def test_sweep_budget_and_staleness_respected(self):
        db, template = make_db(), make_template()
        scr = SCR(db.engine(template), lam=LAM, obs=Observability())
        for q in workload(template, 200):
            scr.process(q)
        anchors = len(list(scr.cache.instances()))
        assert anchors > 3
        result = scr.recalibrate(budget=2)
        assert result.recost_calls == 2
        assert result.skipped >= anchors - 2
        # Everything was hit within the horizon: nothing stale enough.
        result = scr.recalibrate(min_staleness=10 ** 9)
        assert result.refreshed == 0
        assert result.skipped == anchors


class TestOracleFeed:
    def test_estimation_noise_degrades_oracle_score(self):
        db, template = make_db(), make_template()
        obs = Observability()
        oracle = Oracle(db, template)
        clean = db.engine(template)
        noisy = NoisyEngine(db.engine(template), noise=0.35, seed=3)
        cal_clean = obs.calibration.template("clean")
        cal_noisy = obs.calibration.template("noisy")
        for q in workload(template, 60, seed=5):
            pred = clean.optimize(clean.selectivity_vector(q)).cost
            oracle.feed_calibration(cal_clean, q.selectivities, pred)
            pred_n = noisy.optimize(noisy.selectivity_vector(q)).cost
            oracle.feed_calibration(cal_noisy, q.selectivities, pred_n)
        sc_clean = cal_clean.score()
        sc_noisy = cal_noisy.score()
        # The oracle feed sees noise the engine is internally
        # consistent about — the recost feed never can.
        assert sc_clean["grade"] == "A"
        assert sc_noisy["grade"] not in ("A", "B")
        assert (
            sc_noisy["feeds"]["oracle"]["abs_log_ratio_p90"]
            > 5 * sc_clean["feeds"]["oracle"]["abs_log_ratio_p90"]
        )


# ---------------------------------------------------------------------------
# persistence: attribution counters survive the round-trip


class TestAttributionPersistence:
    def _served_scr(self):
        db, template = make_db(), make_template()
        scr = SCR(db.engine(template), lam=LAM)
        for q in workload(template, 150):
            scr.process(q)
        return scr

    def test_round_trip_preserves_counters(self):
        scr = self._served_scr()
        cache = scr.cache
        cache.adopted_hits_selectivity = 7
        cache.adopted_hits_cost = 3
        cache.adopted_recost_spend = 5
        restored = load_cache(dump_cache(cache))
        by_sv = {
            tuple(e.sv): e for e in restored.instances()
        }
        for entry in cache.instances():
            twin = by_sv[tuple(entry.sv)]
            assert twin.hits_selectivity == entry.hits_selectivity
            assert twin.hits_cost == entry.hits_cost
            assert twin.recost_spend == entry.recost_spend
            assert twin.last_hit_tick == entry.last_hit_tick
        assert restored.anchor_hit_totals() == cache.anchor_hit_totals()
        assert restored.evicted_never_hit == cache.evicted_never_hit
        assert restored.adopted_hits_selectivity == 7
        assert restored.adopted_hits_cost == 3
        assert restored.adopted_recost_spend == 5

    def test_pre_attribution_dumps_restore_with_zeroed_counters(self):
        scr = self._served_scr()
        document = json.loads(dump_cache(scr.cache))
        payload = document["payload"]
        # Rewind the document to the pre-observatory shape: no
        # attribution fields anywhere.
        for inst in payload["instances"]:
            for field in (
                "hits_selectivity", "hits_cost",
                "recost_spend", "last_hit_tick",
            ):
                inst.pop(field)
        payload.pop("evicted")
        payload.pop("adopted")
        payload["version"] = 1  # legacy un-checksummed format
        restored = load_cache(json.dumps(payload))
        assert len(list(restored.instances())) == len(list(scr.cache.instances()))
        assert restored.anchor_hit_totals() == (0, 0, 0)
        assert restored.adopted_hits_selectivity == 0
        assert all(e.last_hit_tick == -1 for e in restored.instances())


# ---------------------------------------------------------------------------
# the doctor: local and cluster views


class TestDoctorReports:
    def _manager(self, template, m=60):
        db = make_db()
        obs = Observability()
        manager = ConcurrentPQOManager(database=db, max_workers=2, obs=obs)
        manager.register(template, lam=LAM)
        # Waves, not one broadcast: a single process_many probes every
        # instance against the same (initially empty) snapshot, so the
        # whole batch would miss and the hit counters — what the doctor
        # attributes — would stay zero.
        instances = workload(template, m)
        for i in range(0, m, 10):
            manager.process_many(instances[i:i + 10], dedupe=False)
        return manager, obs

    def test_local_report_schema_and_identity(self):
        template = make_template()
        manager, obs = self._manager(template)
        report = manager.doctor_report()
        manager.close()
        assert report["schema"] == DOCTOR_SCHEMA
        assert report["sources"] == ["local"]
        assert report["errors"] == []
        health = report["templates"][template.name]
        assert health["requests"]["total"] == 60
        assert sum(health["outcomes"].values()) == 60
        assert health["grade"] == health["calibration"]["grade"]
        assert health["alarms"] == []
        summary = report["summary"]
        assert summary["templates"] == 1
        assert summary["active_alarms"] == 0
        assert summary["optimizer_calls_saved"] == (
            health["anchors"]["optimizer_calls_saved"]
        )
        text = render_doctor_report(report)
        assert template.name in text

    def test_doctor_without_observability_degrades_gracefully(self):
        template = make_template()
        db = make_db()
        manager = ConcurrentPQOManager(database=db, max_workers=2)
        manager.register(template, lam=LAM)
        manager.process_many(workload(template, 30), dedupe=False)
        report = manager.doctor_report()
        manager.close()
        health = report["templates"][template.name]
        assert health["calibration"] is None
        assert health["grade"] == "n/a"
        # Each shard's private registry still counts its outcomes.
        assert report["sources"] == [f"local:{template.name}"]
        assert sum(health["outcomes"].values()) == 30
        assert health["requests"]["total"] == 30
        assert report["errors"] == []
        render_doctor_report(report)  # must not require calibration

    def test_cluster_view_reproduces_merged_totals(self):
        template = make_template()
        m_a, obs_a = self._manager(template, m=60)
        m_b, obs_b = self._manager(template, m=40)
        snapshots = {
            "w0": obs_a.registry.snapshot(),
            "w1": obs_b.registry.snapshot(),
        }
        summaries = {
            "w0": m_a.anchor_summaries(),
            "w1": m_b.anchor_summaries(),
        }
        local_a = m_a.doctor_report()["templates"][template.name]
        local_b = m_b.doctor_report()["templates"][template.name]
        m_a.close()
        m_b.close()

        report = doctor_from_sources(snapshots, summaries)
        assert report["schema"] == DOCTOR_SCHEMA
        assert report["sources"] == ["w0", "w1"]
        assert report["errors"] == []
        health = report["templates"][template.name]
        # The cluster view recomputes from snapshot buckets: sample
        # counts are exactly the sum of the workers' local counts.
        merged = health["calibration"]["feeds"]["recost"]["samples"]
        assert merged == (
            local_a["calibration"]["feeds"]["recost"]["samples"]
            + local_b["calibration"]["feeds"]["recost"]["samples"]
        )
        # Every anchor field — the seven heartbeat totals and the two
        # payback figures derived from them — is the sum of the locals.
        anchors = health["anchors"]
        assert set(anchors) == {
            "live_anchors", "plans_cached", "hits_selectivity", "hits_cost",
            "recost_spend", "never_hit_live", "evicted_never_hit",
            "optimizer_calls_saved", "wasted_optimizer_calls",
        }
        for field, value in anchors.items():
            assert value == (
                local_a["anchors"][field] + local_b["anchors"][field]
            ), field
        # So is every request counter and every outcome count.
        for field, value in health["requests"].items():
            if field != "hit_rate":
                assert value == (
                    local_a["requests"][field] + local_b["requests"][field]
                ), field
        assert health["requests"]["total"] == 100
        assert health["outcomes"] == {
            outcome: local_a["outcomes"][outcome] + local_b["outcomes"][outcome]
            for outcome in local_a["outcomes"]
        }
        assert render_doctor_report(report)

    def test_single_source_cluster_matches_local_grade(self):
        template = make_template()
        manager, obs = self._manager(template)
        local = manager.doctor_report()["templates"][template.name]
        snapshot = obs.registry.snapshot()
        summaries = {"w0": manager.anchor_summaries()}
        manager.close()
        cluster = doctor_from_sources({"w0": snapshot}, summaries)
        health = cluster["templates"][template.name]
        assert health["grade"] == local["grade"]
        assert health["calibration"]["feeds"]["recost"]["samples"] == (
            local["calibration"]["feeds"]["recost"]["samples"]
        )

    def test_local_report_is_the_snapshot_route(self):
        template = make_template()
        manager, obs = self._manager(template)
        report = manager.doctor_report()
        rebuilt = doctor_from_sources(
            {"local": obs.registry.snapshot()},
            {"local": manager.anchor_summaries()},
        )
        manager.close()
        assert report == rebuilt

    def test_identity_mismatch_names_source_and_template(self):
        template = make_template()
        manager, obs = self._manager(template)
        summaries = manager.anchor_summaries()
        manager.close()
        summaries[template.name]["selectivity_hits"] += 1
        report = doctor_from_sources(
            {"w1": obs.registry.snapshot()}, {"w1": summaries}
        )
        assert len(report["errors"]) == 1
        assert report["errors"][0].startswith(f"w1/{template.name}: ")
        assert "accounting identity: OK" not in render_doctor_report(report)

    def test_adopted_snapshot_then_served_passes_identity(self):
        template = make_template()
        donor, _ = self._manager(template, m=60)
        snapshot = dump_cache(donor.shard(template.name).scr.cache)
        donor.close()
        manager = ConcurrentPQOManager(
            database=make_db(), max_workers=2, obs=Observability()
        )
        manager.register(template, lam=LAM)
        manager.shard(template.name).scr.cache.adopt(load_cache(snapshot))
        manager.process_many(workload(template, 40, seed=5), dedupe=False)
        summary = manager.anchor_summaries()[template.name]
        report = manager.doctor_report()
        manager.close()
        # The inherited hits exceed this process's getPlan counters; the
        # adopted baseline is what keeps the identity.
        assert summary["adopted_hits_selectivity"] > 0
        assert summary["hits_selectivity"] > summary["selectivity_hits"]
        assert report["errors"] == []
        assert report["templates"][template.name]["requests"]["total"] == 40
