"""Exporter edge cases: empty registries, hostile label values,
readers racing writers.

The Prometheus text exposition (format 0.0.4) has exactly three
characters that must be escaped inside a label value — backslash,
double quote and newline — and a scrape endpoint that emits a raw one
corrupts the whole exposition for every family after it.  These tests
pin the escaping, the degenerate empty-registry output, and the
guarantee that ``snapshot_rows`` / ``to_prometheus`` stay consistent
while other threads mutate the registry mid-read.  Property tests pin
the snapshot readers every derived view shares: the group-sum, the
bucket quantile and the one renderer.
"""

from __future__ import annotations

import json
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import Histogram, MetricsRegistry, snapshot_rows, to_prometheus
from repro.obs.exporters import snapshot_to_prometheus
from repro.obs.registry import bucket_quantile, group_sum


class TestEmptyRegistry:
    def test_empty_registry_renders_empty_exposition(self):
        assert to_prometheus(MetricsRegistry()) == ""
        assert snapshot_rows(MetricsRegistry()) == []

    def test_family_without_children_renders_headers_only(self):
        registry = MetricsRegistry()
        registry.counter("jobs_total", "Jobs", labels=("queue",))
        text = to_prometheus(registry)
        assert text == (
            "# HELP jobs_total Jobs\n"
            "# TYPE jobs_total counter\n"
        )

    def test_family_without_help_skips_help_line(self):
        registry = MetricsRegistry()
        registry.counter("bare_total", "", labels=())
        text = to_prometheus(registry)
        assert "# HELP" not in text
        assert "# TYPE bare_total counter" in text


class TestLabelEscaping:
    """Exposition format 0.0.4: ``\\`` -> ``\\\\``, ``"`` -> ``\\"``,
    newline -> ``\\n``, in that order (backslash first, or the escapes
    themselves get re-escaped)."""

    def _render(self, value: str) -> str:
        registry = MetricsRegistry()
        registry.counter("t_total", "t", labels=("v",)).labels(v=value).inc()
        return to_prometheus(registry)

    def test_quote_escaped(self):
        assert 't_total{v="say \\"hi\\""} 1' in self._render('say "hi"')

    def test_newline_escaped(self):
        text = self._render("line1\nline2")
        assert 't_total{v="line1\\nline2"} 1' in text
        # No raw newline may survive inside a sample line.
        sample = [l for l in text.splitlines() if not l.startswith("#")]
        assert sample == ['t_total{v="line1\\nline2"} 1']

    def test_backslash_escaped_before_other_escapes(self):
        # A literal backslash-n in the value must NOT collide with the
        # newline escape: it renders as \\n (escaped backslash + n),
        # while a real newline renders as \n.
        text = self._render("a\\nb")
        assert 't_total{v="a\\\\nb"} 1' in text

    def test_all_three_together(self):
        text = self._render('p\\q"r\ns')
        assert 't_total{v="p\\\\q\\"r\\ns"} 1' in text

    def test_histogram_le_labels_compose_with_escaping(self):
        registry = MetricsRegistry()
        hist = registry.histogram(
            "lat_seconds", "h", labels=("op",), buckets=(1.0,)
        )
        hist.labels(op='read"fast"').observe(0.5)
        text = to_prometheus(registry)
        assert 'lat_seconds_bucket{op="read\\"fast\\"",le="1"} 1' in text
        assert 'lat_seconds_bucket{op="read\\"fast\\"",le="+Inf"} 1' in text


class TestConcurrentMutation:
    """Readers must never crash or tear while writers race them."""

    def test_snapshot_rows_under_concurrent_mutation(self):
        registry = MetricsRegistry()
        counter = registry.counter("ops_total", "ops", labels=("worker",))
        hist = registry.histogram(
            "work_seconds", "h", labels=("worker",),
            buckets=(0.001, 0.01, 0.1, 1.0),
        )
        stop = threading.Event()
        errors: list[BaseException] = []
        writes_per_worker = 3000
        workers = 4

        def writer(wid: int) -> None:
            try:
                mine_c = counter.labels(worker=str(wid))
                mine_h = hist.labels(worker=str(wid))
                for i in range(writes_per_worker):
                    mine_c.inc()
                    mine_h.observe((i % 100) / 250.0)
            except BaseException as exc:  # pragma: no cover - fail loud
                errors.append(exc)

        def reader() -> None:
            try:
                while not stop.is_set():
                    rows = snapshot_rows(registry)
                    for row in rows:
                        if row["metric"] == "ops_total":
                            assert 0 <= row["value"] <= writes_per_worker
                        else:
                            assert 0 <= row["count"] <= writes_per_worker
                    text = to_prometheus(registry)
                    # Every emitted line is complete (no torn lines).
                    for line in text.splitlines():
                        assert line.startswith(("#", "ops_total", "work_seconds"))
            except BaseException as exc:  # pragma: no cover - fail loud
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(w,)) for w in range(workers)
        ] + [threading.Thread(target=reader) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads[:workers]:
            t.join()
        stop.set()
        for t in threads[workers:]:
            t.join()
        assert errors == []

        # Quiescent state is exact: nothing was lost to the races.
        rows = snapshot_rows(registry, names=["ops_total"])
        assert sorted(r["worker"] for r in rows) == ["0", "1", "2", "3"]
        assert all(r["value"] == writes_per_worker for r in rows)
        final = to_prometheus(registry)
        for w in range(workers):
            assert f'ops_total{{worker="{w}"}} {writes_per_worker}' in final


# -- the snapshot readers: group-sum, bucket quantile, one renderer ----------

#: Quarter steps are exact in binary, so histogram sums pooled in any
#: order compare equal; 0.5 / 1.0 / 4.0 are hit exactly and values
#: above 4.0 land in the +Inf tail.
BUCKETS = (0.5, 1.0, 4.0)
VALUES = st.integers(0, 40).map(lambda quarters: quarters / 4)
#: Declared in non-alphabetical order on purpose.
LABELS = ("zeta", "alpha")

observations = st.lists(
    st.tuples(
        st.integers(0, 3),                          # source registry
        st.sampled_from(["counter", "histogram"]),
        st.sampled_from(["a", "b"]),                # zeta
        st.sampled_from(["x", "y", "z"]),           # alpha
        VALUES,
    ),
    max_size=40,
)


def _declare(registry: MetricsRegistry) -> dict:
    registry.counter("empty_total", "never written", labels=LABELS)
    return {
        "counter": registry.counter("c_total", "c", labels=LABELS),
        "histogram": registry.histogram(
            "h_seconds", "h", labels=LABELS, buckets=BUCKETS
        ),
    }


def _replay(obs):
    """Four source registries plus one that saw every observation."""
    sources = [MetricsRegistry() for _ in range(4)]
    pooled = MetricsRegistry()
    everything = Histogram(BUCKETS)
    families = [_declare(r) for r in sources]
    pooled_families = _declare(pooled)
    for source, kind, zeta, alpha, value in obs:
        for family in (families[source][kind], pooled_families[kind]):
            child = family.labels(zeta=zeta, alpha=alpha)
            if kind == "counter":
                child.inc(value)
            else:
                child.observe(value)
        if kind == "histogram":
            everything.observe(value)
    return sources, pooled, everything


GROUPINGS = [None, (), ("alpha",), ("zeta", "alpha")]


class TestSnapshotReaders:
    @settings(max_examples=60, deadline=None)
    @given(observations)
    def test_group_sum_over_sources_equals_one_registry(self, obs):
        sources, pooled, _ = _replay(obs)
        snapshots = [r.snapshot() for r in sources]
        for name in ("c_total", "h_seconds", "empty_total"):
            for by in GROUPINGS:
                assert group_sum(snapshots, name, by=by) == group_sum(
                    [pooled.snapshot()], name, by=by
                ), (name, by)
        for alpha in ("x", "y", "z"):
            summed = group_sum(snapshots, "c_total", by=(), alpha=alpha)
            live = pooled.total("c_total", alpha=alpha)
            assert sum(r["value"] for r in summed.values()) == live
        assert group_sum(snapshots, "empty_total") == {}

    @settings(max_examples=60, deadline=None)
    @given(observations, st.randoms(use_true_random=False))
    def test_fold_is_order_independent(self, obs, rng):
        sources, _, _ = _replay(obs)
        snapshots = [r.snapshot() for r in sources]
        shuffled = list(snapshots)
        rng.shuffle(shuffled)
        for name in ("c_total", "h_seconds"):
            for by in GROUPINGS:
                assert group_sum(shuffled, name, by=by) == group_sum(
                    snapshots, name, by=by
                )

    @settings(max_examples=60, deadline=None)
    @given(observations)
    def test_quantile_of_summed_buckets_equals_pooled_histogram(self, obs):
        sources, _, everything = _replay(obs)
        groups = group_sum(
            [r.snapshot() for r in sources], "h_seconds", by=()
        )
        buckets = groups[()]["buckets"] if groups else [["+Inf", 0]]
        for q in (0.0, 0.25, 0.5, 0.9, 0.99, 1.0):
            assert bucket_quantile(buckets, q) == everything.quantile(q)

    @settings(max_examples=60, deadline=None)
    @given(observations)
    def test_live_and_snapshot_exposition_are_identical(self, obs):
        sources, pooled, _ = _replay(obs)
        for registry in (*sources, pooled):
            snapshot = registry.snapshot()
            text = to_prometheus(registry)
            assert text == snapshot_to_prometheus(snapshot)
            # A snapshot that crossed a process boundary as JSON (a
            # heartbeat) renders the same bytes.
            assert text == snapshot_to_prometheus(
                json.loads(json.dumps(snapshot))
            )
            for line in text.splitlines():
                if "alpha=" in line:
                    assert line.index("zeta=") < line.index("alpha=")

    def test_gauges_keep_the_last_sources_value(self):
        snapshots = []
        for depth in (3, 7, 5):
            registry = MetricsRegistry()
            registry.gauge("depth", labels=LABELS).labels(
                zeta="a", alpha="x"
            ).set(depth)
            snapshots.append(registry.snapshot())
        groups = group_sum(snapshots, "depth")
        assert [row["value"] for row in groups.values()] == [5.0]
        assert group_sum(snapshots[:2], "depth", by=())[()]["value"] == 7.0
