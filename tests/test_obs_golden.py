"""Golden-file tests for the observability exporters.

The Prometheus text exposition is byte-compared against a checked-in
fixture — deterministic family/label ordering and number formatting are
part of the exporter's contract (scrape pipelines and dashboards parse
it).  The JSONL span stream is likewise byte-compared (under a fake
clock) and schema-checked, companion to ``test_trace_golden.py``.

Regenerate after an *intentional* format change with::

    PYTHONPATH=src:tests python tests/test_obs_golden.py --regen
"""

from __future__ import annotations

import io
import json
from pathlib import Path

import pytest

from repro.obs import (
    SPAN_SCHEMA_VERSION,
    FakeClock,
    IdSource,
    MetricsRegistry,
    Observability,
    SpanRecorder,
    activate,
    start_trace,
    to_prometheus,
    write_spans_jsonl,
)

PROM_FIXTURE = Path(__file__).parent / "fixtures" / "golden_metrics.prom"
SPANS_FIXTURE = Path(__file__).parent / "fixtures" / "golden_spans.jsonl"
SCR_METRICS_FIXTURE = (
    Path(__file__).parent / "fixtures" / "golden_scr_metrics.prom"
)


def build_golden_registry() -> MetricsRegistry:
    """A small registry exercising every exposition feature: all three
    kinds, multiple label sets, integer vs float formatting, bucket
    edges hit exactly, the +Inf tail, and label-value escaping."""
    registry = MetricsRegistry()
    responses = registry.counter(
        "repro_responses_total",
        "Served responses by template and guarantee outcome",
        labels=("template", "outcome"),
    )
    responses.labels(template="t1", outcome="certified").inc(41)
    responses.labels(template="t1", outcome="uncertified").inc(2)
    responses.labels(template="t2", outcome="certified").inc(7)

    depth = registry.gauge(
        "repro_queue_depth", "Outstanding requests", labels=("template",)
    )
    depth.labels(template="t1").set(3)
    depth.labels(template="t2").set(0.5)

    bounds = registry.histogram(
        "repro_certified_bound",
        "Certified sub-optimality bounds per response",
        labels=("template",),
        buckets=(1.0, 1.5, 2.0),
    )
    child = bounds.labels(template="t1")
    for value in (1.0, 1.2, 1.5, 1.9, 2.0, 2.5):
        child.observe(value)

    weird = registry.counter(
        "repro_escaping_total", "Label-value escaping", labels=("detail",)
    )
    weird.labels(detail='quote " backslash \\ newline \n end').inc()
    return registry


def build_golden_spans() -> SpanRecorder:
    """Deterministic spans on a fake clock, one per pipeline phase.

    Since schema v2 every span carries the causal trace/span/parent ID
    triple: the whole fixture is one request's trace, with the inner
    phases parented under the ``serving.process`` request span — the
    seeded :class:`IdSource` keeps the IDs byte-stable.
    """
    fake = FakeClock()
    ids = IdSource(seed=17)
    recorder = SpanRecorder(clock=fake.clock)
    recorder.ids = ids
    ctx = start_trace(ids=ids)
    phases = [
        ("scr.selectivity_check", 0.001,
         {"hit": False, "candidates": 2, "scanned": 4}),
        ("scr.cost_check", 0.004,
         {"hit": True, "recost_calls": 2, "bound": 1.42,
          "certificate": "exact"}),
        ("engine.recost", 0.002, {"template": "t1", "seq": 0}),
        ("scr.redundancy_check", 0.003, {"template": "t1", "cached": True}),
    ]
    with activate(ctx):
        for name, duration, attrs in phases:
            start = fake.monotonic()
            fake.advance(duration)
            recorder.record(name, start, duration, **attrs)
        recorder.record(
            "serving.process", 0.0, 0.012, span_id=ctx.span_id,
            template="t1", seq=0, outcome="certified", check="cost",
            certificate="exact", certified_bound=1.42, recost_calls=2,
        )
    return recorder


def render_spans() -> str:
    buffer = io.StringIO()
    write_spans_jsonl(build_golden_spans(), buffer, include_timing=True)
    return buffer.getvalue()


def _strip_wall_clock_families(prom: str) -> str:
    """Drop metric families whose sample values embed real wall-clock
    durations (``*_seconds*``): the engine times calls with
    ``time.perf_counter`` so their sums/buckets vary run to run, while
    every other family (outcomes, certificates, certified bounds,
    violations, faults, breaker state) is decision-determined."""
    out: list[str] = []
    skip = False
    for line in prom.splitlines(keepends=True):
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            skip = "_seconds" in line.split()[2]
        if not skip:
            out.append(line)
    return "".join(out)


def build_golden_scr_metrics(reference: bool = False) -> str:
    """Metrics exposition of the canonical serial SCR run.

    Companion to ``test_trace_golden.build_golden_trace``: the same
    40-instance workload, but observed through an
    :class:`Observability` handle so the guarantee-audit metric
    families become part of the golden contract.  The production
    getPlan and the scalar oracle (``reference=True``) must render the
    identical exposition.
    """
    from conftest import build_toy_schema
    from reference_get_plan import use_reference
    from test_trace_golden import canonical_template

    from repro.core.scr import SCR
    from repro.engine.database import Database
    from repro.query.instance import QueryInstance
    from repro.workload.generator import generate_selectivity_vectors

    db = Database.create(build_toy_schema(), seed=11)
    template = canonical_template()
    engine = db.engine(template)
    obs = Observability(clock=FakeClock().clock, spans_enabled=False)
    scr = SCR(engine, lam=2.0, plan_budget=3, obs=obs)
    if reference:
        use_reference(scr)
    for sv in generate_selectivity_vectors(2, 40, seed=21):
        scr.process(QueryInstance(template.name, sv=sv))
    # The engine object is cached per database: detach the instruments
    # so later builds (or other tests reusing the toy db) start clean.
    base = engine
    while getattr(base, "inner", None) is not None:
        base = base.inner
    base.obs = None
    base.instruments = None
    return _strip_wall_clock_families(to_prometheus(obs.registry))


def test_prometheus_exposition_matches_golden_fixture():
    rendered = to_prometheus(build_golden_registry())
    expected = PROM_FIXTURE.read_text(encoding="utf-8")
    assert rendered == expected, (
        "Prometheus exposition drifted from the golden fixture; if the "
        "change is intentional, regenerate with "
        "`PYTHONPATH=src:tests python tests/test_obs_golden.py --regen`"
    )


def test_prometheus_histogram_expansion_is_cumulative():
    text = to_prometheus(build_golden_registry())
    lines = [
        line for line in text.splitlines()
        if line.startswith("repro_certified_bound_bucket")
    ]
    counts = [int(line.rsplit(" ", 1)[1]) for line in lines]
    assert counts == sorted(counts), "bucket counts must be cumulative"
    assert lines[-1].startswith(
        'repro_certified_bound_bucket{template="t1",le="+Inf"}'
    )
    assert 'repro_certified_bound_count{template="t1"} 6' in text


def test_spans_jsonl_matches_golden_fixture():
    assert render_spans() == SPANS_FIXTURE.read_text(encoding="utf-8")


def test_spans_jsonl_schema():
    lines = render_spans().splitlines()
    header = json.loads(lines[0])
    assert header == {"schema": "repro.spans", "version": SPAN_SCHEMA_VERSION}
    rows = [json.loads(line) for line in lines[1:]]
    assert len(rows) == 5
    for i, row in enumerate(rows):
        assert set(row) <= {
            "span", "seq", "start_s", "duration_s", "attrs",
            "trace_id", "span_id", "parent_id",
        }
        assert isinstance(row["span"], str)
        assert row["seq"] == i               # recorder-assigned, gapless
        assert isinstance(row["start_s"], (int, float))
        assert isinstance(row["duration_s"], (int, float))
        assert isinstance(row.get("attrs", {}), dict)
    names = [row["span"] for row in rows]
    assert names == [
        "scr.selectivity_check", "scr.cost_check", "engine.recost",
        "scr.redundancy_check", "serving.process",
    ]
    # One connected trace: every row shares the trace_id, the request
    # span owns its ID, and every inner phase parents under it.
    trace_ids = {row["trace_id"] for row in rows}
    assert len(trace_ids) == 1 and "" not in trace_ids
    process = rows[-1]
    assert process["span_id"]
    for row in rows[:-1]:
        assert row["parent_id"] == process["span_id"]


@pytest.mark.parametrize("impl", ["scalar", "vectorized"])
def test_scr_metrics_match_golden_fixture(impl):
    """One fixture for the production getPlan (``vectorized``) and the
    scalar reference oracle (``scalar``) — every decision-determined
    metric is byte-identical under both."""
    assert SCR_METRICS_FIXTURE.exists(), (
        f"missing fixture {SCR_METRICS_FIXTURE}; regenerate with "
        "`PYTHONPATH=src:tests python tests/test_obs_golden.py --regen`"
    )
    expected = SCR_METRICS_FIXTURE.read_text(encoding="utf-8")
    actual = build_golden_scr_metrics(reference=impl == "scalar")
    assert actual == expected, (
        f"SCR metrics exposition ({impl} getPlan) drifted "
        "from the golden fixture; regenerate only for intentional "
        "metric-contract changes"
    )


def test_scr_metrics_golden_has_zero_lambda_violations():
    text = build_golden_scr_metrics()
    assert "repro_lambda_violations_total" in text
    for line in text.splitlines():
        if line.startswith("repro_lambda_violations_total{"):
            assert line.rsplit(" ", 1)[1] == "0"


def test_spans_jsonl_without_timing_is_reproducible():
    buffer = io.StringIO()
    write_spans_jsonl(build_golden_spans(), buffer, include_timing=False)
    rows = [json.loads(line) for line in buffer.getvalue().splitlines()]
    assert all("start_s" not in row and "duration_s" not in row
               for row in rows)


def _regen() -> None:
    PROM_FIXTURE.write_text(
        to_prometheus(build_golden_registry()), encoding="utf-8"
    )
    SPANS_FIXTURE.write_text(render_spans(), encoding="utf-8")
    SCR_METRICS_FIXTURE.write_text(
        build_golden_scr_metrics(), encoding="utf-8"
    )
    print(f"wrote {PROM_FIXTURE}")
    print(f"wrote {SPANS_FIXTURE}")
    print(f"wrote {SCR_METRICS_FIXTURE}")


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        _regen()
    else:
        print(__doc__)
