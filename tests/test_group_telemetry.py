"""A ``process_many`` template group is one unit of telemetry and dispatch.

One trace context, one ``serving.batch`` span and one future per group:
the span carries the rows as aligned column tuples, the group's sVector
and Recost engine calls are summed onto it (``engine_<api>_calls`` /
``_s``) instead of one ``engine.*`` span each, and forensics explains a
single row from those columns.  The group future keeps the per-row
contract of the manager: input order, the first failing row raising,
and ``close(wait=False)`` resolving a pending group.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.engine.database import Database
from repro.obs import (
    Observability,
    explain_trace,
    find_group_row,
    load_spans_jsonl,
    render_tree,
    write_spans_jsonl,
)
from repro.obs.spans import Span
from repro.query.template import QueryTemplate, join, range_predicate
from repro.serving import ConcurrentPQOManager, ShutdownError

from conftest import build_toy_schema
from test_serving_concurrency import make_workload, serving_templates

LAM = 2.0


def make_manager(obs=None, templates=None, max_workers=2):
    templates = templates or serving_templates()[:3]
    manager = ConcurrentPQOManager(
        database=Database.create(build_toy_schema(), seed=11),
        max_workers=max_workers, obs=obs,
    )
    for i, template in enumerate(templates):
        manager.register(
            template, lam=LAM, check_mode="robust" if i % 2 else "point"
        )
    return manager, templates


def group_spans(obs) -> list:
    return [s for s in obs.spans.spans() if s.name == "serving.batch"]


def engine_calls(manager) -> dict:
    return {
        name: (
            shard.engine.counters.selectivity.calls,
            shard.engine.counters.recost.calls,
            shard.engine.counters.optimize.calls,
        )
        for name, shard in manager._templates.items()
    }


class TestGroupSpan:
    def test_one_span_per_group_and_engine_calls_roll_up(self):
        obs = Observability()
        manager, templates = make_manager(obs)
        workload = make_workload(templates, 24, seed=5)
        before = engine_calls(manager)
        with manager:
            for lo in range(0, len(workload), 18):
                manager.process_many(workload[lo:lo + 18], dedupe=False)
        after = engine_calls(manager)

        groups = group_spans(obs)
        expected = sum(
            len({q.template_name for q in workload[lo:lo + 18]})
            for lo in range(0, len(workload), 18)
        )
        assert len(groups) == expected
        # Every row is in exactly one group, and no row has a span of
        # its own: a template group of any size is one serving.batch.
        seqs = [(g.attrs["template"], s) for g in groups for s in g.attrs["seqs"]]
        assert len(set(seqs)) == len(seqs) == len(workload)

        for group in groups:
            rows = len(group.attrs["seqs"])
            for column in ("outcomes", "checks", "certificates",
                           "certified_bounds", "recost_calls"):
                assert len(group.attrs[column]) == rows
            inside = obs.spans.trace(group.trace_id)
            assert not any(
                s.name in ("engine.selectivity", "engine.recost")
                for s in inside
            )
            # Optimizer calls stay individual spans, stamped with their
            # row's seq and parented under the group span.
            for span in inside:
                if span.name == "engine.optimize":
                    assert span.parent_id == group.span_id
                    assert span.attrs["seq"] in group.attrs["seqs"]

        for name, (sel0, rec0, opt0) in before.items():
            sel1, rec1, opt1 = after[name]
            mine = [g for g in groups if g.attrs["template"] == name]
            assert sum(g.attrs["engine_selectivity_calls"] for g in mine) == (
                sel1 - sel0
            )
            assert sum(g.attrs["engine_recost_calls"] for g in mine) == (
                rec1 - rec0
            )
            assert sum(
                1 for s in obs.spans.spans()
                if s.name == "engine.optimize" and s.attrs["template"] == name
            ) == opt1 - opt0
            assert all(g.attrs["engine_recost_s"] >= 0.0 for g in mine)

    def test_explain_a_batched_row_matches_its_plan_choice(self, tmp_path):
        obs = Observability()
        template = serving_templates()[0]
        manager, _ = make_manager(obs, templates=[template])
        workload = make_workload([template], 40, seed=9)
        with manager:
            cold = manager.process_many(workload, dedupe=False)
            warm = manager.process_many(
                make_workload([template], 40, seed=10), dedupe=False
            )
        cold_group, warm_group = group_spans(obs)

        def check_rows(group, choices, spans):
            for seq, choice in zip(group.attrs["seqs"], choices):
                info = explain_trace(spans, seq=seq)
                assert info["seq"] == seq
                assert info["template"] == template.name
                assert info["check"] == choice.check
                assert info["certificate"] == choice.certificate
                assert info["recost_calls"] == choice.recost_calls
                assert info["outcome"] == (
                    "certified" if choice.certified else "uncertified"
                )
                if choice.certified:
                    assert info["certified_bound"] == round(
                        choice.certified_bound, 6
                    )
                assert info["engine_calls"]["engine.selectivity"] == 1
                assert info["engine_calls"].get("engine.optimize", 0) == int(
                    choice.used_optimizer
                )
                assert info["narrative"][-1].startswith("VERDICT: certified")

        assert any(c.used_optimizer for c in cold)
        assert {"selectivity", "cost"} <= {c.check for c in warm}
        check_rows(cold_group, cold, obs.spans.trace(cold_group.trace_id))
        check_rows(warm_group, warm, obs.spans.trace(warm_group.trace_id))
        miss = next(
            seq for seq, c in zip(cold_group.attrs["seqs"], cold)
            if c.used_optimizer
        )
        info = explain_trace(obs.spans.trace(cold_group.trace_id), seq=miss)
        assert "the optimizer was consulted" in " ".join(info["narrative"])

        # Offline: the columns survive a JSONL round trip as lists.
        path = tmp_path / "spans.jsonl"
        write_spans_jsonl(obs.spans, str(path))
        reloaded = [
            s for s in load_spans_jsonl(str(path))
            if s.trace_id == warm_group.trace_id
        ]
        check_rows(
            find_group_row(reloaded, warm_group.attrs["seqs"][0])[0],
            warm, reloaded,
        )
        text = render_tree(reloaded)
        assert text.count("row seq=") == len(workload)


@pytest.mark.parametrize("serve", ["process_many", "process"])
def test_every_served_seq_is_explained_to_a_verdict(serve):
    """One request-span shape: whether rows were served in template
    groups or one ``manager.process`` call at a time, every served seq
    is a ``serving.batch`` row that ``explain_trace`` narrates to a
    VERDICT."""
    obs = Observability()
    manager, templates = make_manager(obs)
    workload = make_workload(templates, 12, seed=14)
    with manager:
        if serve == "process_many":
            manager.process_many(workload, dedupe=False)
        else:
            for instance in workload:
                manager.process(instance)
    spans = obs.spans.spans()
    groups = group_spans(obs)
    if serve == "process":
        assert all(len(g.attrs["seqs"]) == 1 for g in groups)
    served = [(g, seq) for g in groups for seq in g.attrs["seqs"]]
    assert len(served) == len(workload)
    for group, seq in served:
        info = explain_trace(obs.spans.trace(group.trace_id), seq=seq)
        assert info["seq"] == seq
        assert info["template"] == group.attrs["template"]
        assert info["narrative"][-1].startswith("VERDICT")
    assert not any(s.name == "serving.process" for s in spans)


def test_concurrent_groups_keep_their_own_rollups():
    """Six callers race ``process_many`` on four pool threads: each
    group's rollup holds only its own thread's engine calls, and every
    request is in exactly one request-level record."""
    obs = Observability()
    manager, templates = make_manager(obs, max_workers=4)
    workload = make_workload(templates, 40, seed=12)
    before = engine_calls(manager)
    served: list = []
    errors: list = []

    def caller(chunk):
        try:
            served.extend(manager.process_many(chunk, dedupe=False))
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    threads = [
        threading.Thread(target=caller, args=(workload[i::6],))
        for i in range(6)
    ]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    manager.close()
    assert not any(t.is_alive() for t in threads)
    assert errors == [] and len(served) == len(workload)

    after = engine_calls(manager)
    spans = obs.spans.spans()
    assert obs.spans.dropped == 0
    records = [
        (span.attrs["template"], seq)
        for span in spans if span.name == "serving.batch"
        for seq in span.attrs["seqs"]
    ]
    assert len(records) == len(set(records)) == len(workload)
    for name in before:
        for k, api in enumerate(("selectivity", "recost")):
            traced = sum(
                s.attrs[f"engine_{api}_calls"] for s in spans
                if s.name == "serving.batch" and s.attrs["template"] == name
            ) + sum(
                1 for s in spans
                if s.name == f"engine.{api}" and s.attrs["template"] == name
            )
            assert traced == after[name][k] - before[name][k]


def failing_rows(shard, bad: set):
    """Make ``shard.process_batch`` report a ``RuntimeError`` for every
    instance whose id is in ``bad`` (the others are served)."""
    serve = shard.process_batch

    def process_batch(instances):
        out = serve(instances)
        return [
            RuntimeError(f"row {id(q)}") if id(q) in bad else o
            for q, o in zip(instances, out)
        ]

    shard.process_batch = process_batch


class TestGroupFutures:
    def test_process_many_raises_first_failing_row_in_input_order(self):
        manager, templates = make_manager()
        a, b, c = (t.name for t in templates)
        workload = make_workload(templates, 4, seed=3)
        # Groups are waited on in template order, so make an earlier
        # input row of a later template fail alongside a later row of
        # the first template.
        first_b = next(i for i, q in enumerate(workload) if q.template_name == b)
        later_a = next(
            i for i, q in enumerate(workload)
            if q.template_name == a and i > first_b
        )
        failing_rows(manager.shard(a), {id(workload[later_a])})
        failing_rows(manager.shard(b), {id(workload[first_b])})
        with manager:
            with pytest.raises(RuntimeError) as err:
                manager.process_many(workload, dedupe=False)
            assert str(err.value) == f"row {id(workload[first_b])}"

    def test_results_in_input_order_and_duplicates_share(self):
        manager, templates = make_manager()
        a, b, single = (t.name for t in templates)
        # Two multi-row groups plus a singleton (a group of one, served
        # by the shard's process), then duplicates of the first three
        # rows.
        workload = [
            q for q in make_workload(templates, 5, seed=4)
            if q.template_name != single
        ] + make_workload([templates[2]], 1, seed=8)
        batch = workload + workload[:3]
        for name in (a, b):
            shard = manager.shard(name)

            def tagged(instances, serve=shard.process_batch):
                served = serve(instances)
                return [(q, o) for q, o in zip(instances, served)]

            shard.process_batch = tagged
        with manager:
            results = manager.process_many(batch, dedupe=True)
        for i, result in enumerate(results):
            first = i - len(workload) if i >= len(workload) else i
            if batch[i].template_name == single:
                assert result.plan_signature
            else:
                assert result[0] is batch[first]
                assert result is results[first]
        # _note_processed ran once per served (deduplicated) row.
        assert sum(
            shard.instances_seen for shard in manager._templates.values()
        ) == len(workload)

    def test_close_nowait_resolves_pending_group_with_shutdown_error(self):
        manager, templates = make_manager(max_workers=1)
        a, b = templates[0].name, templates[1].name
        workload = make_workload(templates[:2], 3, seed=6)
        started, release = threading.Event(), threading.Event()
        shard = manager.shard(a)
        # A submission is a group of one, served by the shard's process.
        serve = shard.process

        def blocking(instance, **kwargs):
            started.set()
            release.wait(timeout=10)
            return serve(instance, **kwargs)

        shard.process = blocking
        try:
            running = manager.submit(
                next(q for q in workload if q.template_name == a)
            )
            assert started.wait(timeout=10)
            pending = [
                manager.submit(q) for q in workload if q.template_name == b
            ]
            manager.close(wait=False)
            for fut in [running] + pending:
                assert isinstance(fut.exception(timeout=10), ShutdownError)
        finally:
            release.set()


def test_default_spans_do_not_share_attrs():
    one = Span("a", 0, 0.0, 0.0)
    two = Span(name="b", seq=1, start_s=0.0, duration_s=0.0)
    assert one.attrs == two.attrs == {}
    assert one.attrs is not two.attrs
    one.attrs["k"] = 1
    assert two.attrs == {}
    with pytest.raises(AttributeError):
        one.name = "renamed"


def six_templates():
    """The four serving templates plus two more parameterizations."""
    extra = [
        QueryTemplate(
            name=f"serve_t{i}",
            database="toy",
            tables=["orders", "cust"],
            joins=[join("orders", "o_cust", "cust", "c_id")],
            parameterized=[
                range_predicate(table, column, op),
                range_predicate("cust", "c_bal", ">="),
            ],
        )
        for i, (table, column, op) in enumerate(
            [("orders", "o_amount", ">="), ("orders", "o_date", "<=")], 4
        )
    ]
    return serving_templates() + extra


def calibration_state(obs) -> dict:
    """Every template's calibration state, detectors included."""
    state = {}
    for cal in obs.calibration.templates():
        detectors = {
            signal: (det.n, det.blocks, det.reference, det.last_deviation)
            for signal, det in cal._detectors.items()
        }
        state[cal.template] = (
            dict(cal.samples), cal.sv_samples,
            {feed: ewma.value for feed, ewma in cal._ewma.items()},
            cal._sv_ewma.value, detectors, dict(cal.alarms),
            sorted(
                (e.signal, e.value, e.baseline, e.samples)
                for e in obs.calibration.events if e.template == cal.template
            ),
        )
    return state


def untimed_registry(obs) -> dict:
    """Every registry series; a timing family (``*_seconds*``) keeps only
    its series' labels and counts."""
    out = {}
    for name, family in obs.registry.snapshot().items():
        series = family["series"]
        if "seconds" in name:
            series = [
                (row["labels"], row.get("count")) for row in series
            ]
        out[name] = series
    return out


@pytest.mark.parametrize("spans_enabled", [True, False])
def test_group_feed_is_grouping_invariant(monkeypatch, spans_enabled):
    """The group record feeds the registry, the audit and calibration
    exactly what per-row feeding would: one seeded six-template stream
    served as ``process_many`` template groups and as a ``process()``
    loop leaves equal registry series (timings by count), bit-equal
    calibration state (sample counts, EWMAs, detector state, alarms and
    events) and the same λ-audit violation entries."""
    import repro.obs.audit as audit_module
    import repro.obs.calibration as calibration

    # Small detector geometry, so the stream arms and moves both
    # detectors; and an audit that flags every bound above 0.6·λ, so
    # the violation entries are many rather than none.
    fast = dict(tau=0.3, k=3, m=4, block=5, ref=4, lag=2, warm=3)
    monkeypatch.setattr(calibration, "CALIBRATION_DETECTOR", fast)
    monkeypatch.setattr(
        calibration, "SELECTIVITY_DETECTOR", dict(fast, tau=0.5)
    )
    monkeypatch.setattr(audit_module, "VIOLATION_EPSILON", -0.4)
    templates = six_templates()
    workload = make_workload(templates, 60, seed=21)
    runs = {}
    for serve in ("process_many", "process"):
        obs = Observability(spans_enabled=spans_enabled)
        obs.audit.max_violation_events = 10 ** 6
        manager, _ = make_manager(obs, templates=templates)
        with manager:
            if serve == "process_many":
                for lo in range(0, len(workload), 16):
                    manager.process_many(workload[lo:lo + 16], dedupe=False)
            else:
                for instance in workload:
                    manager.process(instance)
        runs[serve] = (
            untimed_registry(obs),
            calibration_state(obs),
            sorted(
                obs.audit.violation_events,
                key=lambda e: (e["template"], e["seq"]),
            ),
        )
    grouped, serial = runs["process_many"], runs["process"]
    assert grouped[0].keys() == serial[0].keys()
    for name, series in serial[0].items():
        assert grouped[0][name] == series, name
    assert grouped[1] == serial[1]
    assert grouped[2] == serial[2]
    # The stream exercised what it compares.
    assert len(serial[2]) > 10
    states = serial[1].values()
    assert all(state[1] == 60 and state[0]["recost"] > 0 for state in states)
    fired = {signal for state in states for signal, *_ in state[6]}
    assert fired == {"calibration", "selectivity"}
