"""Unit tests for the observability substrate (DESIGN.md §10).

Covers the metrics registry (label handling, cardinality caps,
histogram bucket-edge semantics, barrier-synchronized thread stress),
the injectable clock, the span recorder's bounded ring, and the
guarantee audit trail's exactly-one-outcome / λ-violation accounting.
"""

from __future__ import annotations

import threading

import pytest

from repro.obs import (
    FakeClock,
    GuaranteeAudit,
    LabelCardinalityError,
    MetricsRegistry,
    Observability,
    SpanRecorder,
    as_clock,
)
from repro.obs.clock import Clock
from repro.obs.registry import Histogram


class TestFamilies:
    def test_counter_inc_and_value(self):
        registry = MetricsRegistry()
        family = registry.counter("c_total", "help", labels=("t",))
        family.labels(t="a").inc()
        family.labels(t="a").inc(2.5)
        family.labels(t="b").inc()
        assert registry.value("c_total", t="a") == 3.5
        assert registry.total("c_total") == 4.5

    def test_counter_rejects_negative(self):
        child = MetricsRegistry().counter("c_total").labels()
        with pytest.raises(ValueError):
            child.inc(-1)

    def test_gauge_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("g").labels()
        gauge.set(5)
        gauge.inc()
        gauge.inc(-2)  # unlike a counter, a gauge may go down
        assert gauge.value == 4.0

    def test_redeclare_is_idempotent(self):
        registry = MetricsRegistry()
        first = registry.counter("c_total", "help", labels=("t",))
        again = registry.counter("c_total", "ignored", labels=("t",))
        assert again is first

    def test_redeclare_conflicts_rejected(self):
        registry = MetricsRegistry()
        registry.counter("m", labels=("t",))
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("m", labels=("t",))
        with pytest.raises(ValueError, match="already registered"):
            registry.counter("m", labels=("other",))
        registry.histogram("h", buckets=(1.0, 2.0))
        with pytest.raises(ValueError, match="buckets"):
            registry.histogram("h", buckets=(1.0, 3.0))

    def test_invalid_names_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("bad name")
        with pytest.raises(ValueError):
            registry.counter("ok", labels=("bad-label",))

    def test_wrong_label_set_rejected(self):
        family = MetricsRegistry().counter("c", labels=("t", "api"))
        with pytest.raises(ValueError, match="takes labels"):
            family.labels(t="x")
        with pytest.raises(ValueError, match="takes labels"):
            family.labels(t="x", api="y", extra="z")

    def test_label_cardinality_cap(self):
        registry = MetricsRegistry(max_series_per_family=4)
        family = registry.counter("c", labels=("t",))
        for i in range(4):
            family.labels(t=f"t{i}").inc()
        with pytest.raises(LabelCardinalityError):
            family.labels(t="one_too_many")
        # Existing children stay resolvable after the cap trips.
        assert registry.value("c", t="t0") == 1.0

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("c", "ch", labels=("t",)).labels(t="a").inc()
        registry.histogram("h", "hh", buckets=(1.0,)).labels().observe(0.5)
        snap = registry.snapshot()
        assert snap["c"]["kind"] == "counter"
        assert snap["c"]["series"][0] == {"labels": {"t": "a"}, "value": 1.0}
        hist_row = snap["h"]["series"][0]
        assert hist_row["count"] == 1
        assert hist_row["buckets"][-1][0] == "+Inf"


class TestHistogram:
    def test_bucket_edges_are_inclusive(self):
        hist = Histogram(buckets=(1.0, 2.0))
        hist.observe(1.0)   # exactly on the first edge -> le="1" bucket
        hist.observe(1.5)
        hist.observe(2.0)   # exactly on the second edge -> le="2" bucket
        hist.observe(2.0001)  # tail
        assert hist.bucket_counts() == [
            (1.0, 1), (2.0, 3), (float("inf"), 4)
        ]
        assert hist.count == 4
        assert hist.sum == pytest.approx(6.5001)

    def test_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            Histogram(buckets=())
        with pytest.raises(ValueError):
            Histogram(buckets=(2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram(buckets=(1.0, 1.0))

    def test_quantile_interpolates_within_bucket(self):
        hist = Histogram(buckets=(1.0, 2.0, 4.0))
        for _ in range(10):
            hist.observe(1.5)  # all ten land in (1, 2]
        assert hist.quantile(0.5) == pytest.approx(1.5)
        assert hist.quantile(1.0) == pytest.approx(2.0)

    def test_quantile_edge_cases(self):
        hist = Histogram(buckets=(1.0,))
        assert hist.quantile(0.5) == 0.0          # empty
        hist.observe(10.0)                        # tail bucket only
        assert hist.quantile(0.99) == 1.0         # clamped to last edge
        with pytest.raises(ValueError):
            hist.quantile(1.5)


class TestThreadSafety:
    def test_barrier_stress_counts_exactly(self):
        threads, per_thread = 8, 500
        registry = MetricsRegistry()
        counter = registry.counter("c", labels=("t",))
        hist = registry.histogram("h", buckets=(0.5, 1.0)).labels()
        barrier = threading.Barrier(threads)

        def worker(i: int) -> None:
            child = counter.labels(t=f"t{i % 2}")
            barrier.wait()
            for k in range(per_thread):
                child.inc()
                hist.observe((k % 3) * 0.4)

        pool = [
            threading.Thread(target=worker, args=(i,)) for i in range(threads)
        ]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        assert registry.total("c") == threads * per_thread
        assert hist.count == threads * per_thread
        assert hist.bucket_counts()[-1][1] == threads * per_thread

    def test_concurrent_child_creation_single_instance(self):
        registry = MetricsRegistry()
        family = registry.counter("c", labels=("t",))
        barrier = threading.Barrier(8)
        seen = []

        def worker():
            barrier.wait()
            child = family.labels(t="same")
            child.inc()
            seen.append(child)

        pool = [threading.Thread(target=worker) for _ in range(8)]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        assert len({id(c) for c in seen}) == 1
        assert registry.value("c", t="same") == 8.0


class TestClock:
    def test_fake_clock_advances_all_views(self):
        fake = FakeClock()
        clock = fake.clock
        fake.advance(1.5)
        assert clock.monotonic() == 1.5
        assert clock.perf_counter() == 1.5
        clock.sleep(0.5)  # sleeping on a fake clock time-travels
        assert clock.monotonic() == 2.0
        with pytest.raises(ValueError):
            fake.advance(-1)

    def test_as_clock_normalizes_bare_callable(self):
        ticks = iter([1.0, 2.0])
        clock = as_clock(lambda: next(ticks))
        assert isinstance(clock, Clock)
        assert clock.monotonic() == 1.0
        assert clock.perf_counter() == 2.0
        clock.sleep(99)  # no-op, must not consume the iterator

    def test_as_clock_passthrough_and_typeerror(self):
        clock = FakeClock().clock
        assert as_clock(clock) is clock
        with pytest.raises(TypeError):
            as_clock(42)


class TestSpanRecorder:
    def test_ring_drops_oldest_and_counts(self):
        recorder = SpanRecorder(capacity=3)
        for i in range(5):
            recorder.record(f"s{i}", float(i), 0.1)
        assert [s.name for s in recorder.spans()] == ["s2", "s3", "s4"]
        assert recorder.dropped == 2
        assert recorder.total_recorded == 5
        assert len(recorder) == 3

    def test_disabled_recorder_is_a_noop(self):
        recorder = SpanRecorder(enabled=False)
        assert recorder.record("s", 0.0, 1.0) is None
        assert recorder.event("s") is None
        assert recorder.spans() == []
        assert recorder.total_recorded == 0

    def test_sink_streams_every_span(self):
        recorder = SpanRecorder(capacity=2)
        seen = []
        recorder.attach_sink(seen.append)
        for i in range(4):
            recorder.record(f"s{i}", 0.0, 0.1)
        assert [s.name for s in seen] == ["s0", "s1", "s2", "s3"]


class TestGuaranteeAudit:
    def test_exactly_one_outcome_accounting(self):
        audit = GuaranteeAudit(MetricsRegistry())
        audit.response("t1", "certified")
        audit.response("t1", "certified")
        audit.response("t1", "uncertified")
        audit.response("t2", "shed")
        assert audit.outcome_totals("t1") == {
            "certified": 2, "uncertified": 1, "shed": 0,
        }
        assert audit.outcome_totals() == {
            "certified": 2, "uncertified": 1, "shed": 1,
        }
        assert sum(audit.outcome_totals().values()) == 4

    def test_unknown_outcome_rejected(self):
        audit = GuaranteeAudit(MetricsRegistry())
        with pytest.raises(ValueError, match="unknown outcome"):
            audit.response("t1", "served")

    def test_bound_within_lambda_is_clean(self):
        audit = GuaranteeAudit(MetricsRegistry())
        assert audit.certified_bound("t1", 1.8, lam=2.0) is False
        assert audit.certified_bound("t1", 2.0, lam=2.0) is False  # == λ ok
        assert audit.zero_violations
        assert audit.violation_events == []

    def test_violation_flagged_and_logged(self):
        audit = GuaranteeAudit(MetricsRegistry())
        assert audit.certified_bound("t1", 2.3, lam=2.0, seq=7) is True
        assert audit.total_violations == 1
        assert not audit.zero_violations
        assert audit.violation_events == [
            {"template": "t1", "bound": 2.3, "lambda": 2.0, "seq": 7,
             "kind": "exact"}
        ]

    def test_violation_event_log_is_bounded(self):
        audit = GuaranteeAudit(MetricsRegistry(), max_violation_events=2)
        for seq in range(5):
            audit.certified_bound("t1", 3.0, lam=2.0, seq=seq)
        assert audit.total_violations == 5      # counter keeps counting
        assert len(audit.violation_events) == 2  # event log stays bounded

    def test_degraded_reason_accounting(self):
        registry = MetricsRegistry()
        audit = GuaranteeAudit(registry)
        audit.degraded("t1", "shed", "queue_full")
        audit.degraded("t1", "shed", "")
        assert registry.value(
            "repro_degraded_total", template="t1", outcome="shed",
            reason="queue_full",
        ) == 1.0
        assert registry.value(
            "repro_degraded_total", template="t1", outcome="shed",
            reason="unknown",
        ) == 1.0


class TestObservabilityHandle:
    def test_report_shape(self):
        obs = Observability()
        obs.audit.response("t1", "certified")
        obs.audit.certified_bound("t1", 1.5, lam=2.0)
        obs.spans.record("phase", 0.0, 0.1)
        report = obs.report()
        assert report["outcomes"] == {
            "certified": 1, "uncertified": 0, "shed": 0,
        }
        assert report["lambda_violations"] == 0
        assert report["violation_events"] == []
        assert report["spans_recorded"] == 1
        assert "repro_responses_total" in report["metrics"]

    def test_shares_clock_with_spans(self):
        clock = FakeClock().clock
        obs = Observability(clock=clock)
        assert obs.spans.clock is clock
        assert obs.clock is clock
