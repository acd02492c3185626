"""Serving-layer throughput: concurrent vs. serial SCR.

The concurrent serving layer exists to overlap the engine's network/
compute latency across templates and workers; this benchmark measures
that overlap directly.  Both managers serve the *same* multi-template
workload against engines wrapped with simulated per-call latency
(optimize ≈ 10 ms, recost ≈ 1 ms, sVector ≈ 0.1 ms — the paper's
Appendix B magnitudes for a remote optimizer), so the measured speedup
reflects scheduling, sharding and lock design rather than Python
compute.

Acceptance: with 8 workers over an 8-template workload the pool must
be ≥ 3× the serial path's throughput — a ``process()`` loop on a
one-worker manager, every instance served on the calling thread —
while certifying every choice, with zero observed λ violations against
an independent oracle.
"""

from __future__ import annotations

import random
import time

from conftest import run_once
from repro.catalog.schema import Column, Schema, Table
from repro.engine.database import Database
from repro.harness.reporting import format_table
from repro.obs import Observability
from repro.query.instance import QueryInstance
from repro.query.template import QueryTemplate, join, range_predicate
from repro.serving import ConcurrentPQOManager, simulated_latency_wrapper
from repro.workload.generator import generate_selectivity_vectors

LAM = 2.0
SEED = 97
NUM_WORKERS = 8
INSTANCES_PER_TEMPLATE = 40
MIN_SPEEDUP = 3.0
#: Distributed tracing must stay within this fraction of the untraced
#: serving wall-clock (the CI tracing-overhead gate).
MAX_TRACING_OVERHEAD = 0.05

LATENCY = dict(
    optimize_seconds=0.010,
    recost_seconds=0.001,
    selectivity_seconds=0.0001,
)


def serving_schema() -> Schema:
    """The tests' two-table toy schema (kept local: benchmarks must not
    import from tests/)."""
    schema = Schema("toy")
    schema.add_table(Table(
        "orders",
        [
            Column("o_id", domain_size=10**6),
            Column("o_date", domain_size=1000),
            Column("o_cust", domain_size=1000),
            Column("o_amount", domain_size=5000, skew=0.7),
        ],
        row_count=20_000,
        primary_key="o_id",
    ))
    schema.add_table(Table(
        "cust",
        [
            Column("c_id", domain_size=10**6),
            Column("c_bal", domain_size=1000, skew=0.5),
        ],
        row_count=2_000,
        primary_key="c_id",
    ))
    schema.add_foreign_key("orders", "o_cust", "cust", "c_id")
    schema.add_index("orders", "o_date")
    schema.add_index("orders", "o_cust")
    schema.add_index("cust", "c_id")
    schema.add_index("cust", "c_bal")
    return schema


def serving_templates() -> list[QueryTemplate]:
    """Eight join templates with distinct predicate pairs."""
    specs = [
        (("orders", "o_date", "<="), ("cust", "c_bal", "<=")),
        (("orders", "o_date", "<="), ("orders", "o_amount", "<=")),
        (("orders", "o_amount", "<="), ("cust", "c_bal", "<=")),
        (("orders", "o_amount", ">="), ("cust", "c_bal", "<=")),
        (("cust", "c_bal", ">="), ("orders", "o_date", ">=")),
        (("orders", "o_date", ">="), ("orders", "o_amount", "<=")),
        (("cust", "c_bal", "<="), ("orders", "o_date", ">=")),
        (("orders", "o_amount", "<="), ("orders", "o_date", "<=")),
    ]
    return [
        QueryTemplate(
            name=f"bench_t{i}",
            database="toy",
            tables=["orders", "cust"],
            joins=[join("orders", "o_cust", "cust", "c_id")],
            parameterized=[range_predicate(*a), range_predicate(*b)],
        )
        for i, (a, b) in enumerate(specs)
    ]


def make_workload(templates, per_template: int, seed: int):
    instances = []
    for i, template in enumerate(templates):
        for sv in generate_selectivity_vectors(2, per_template, seed=seed + i):
            instances.append(QueryInstance(template.name, sv=sv))
    random.Random(seed).shuffle(instances)
    return instances


def run_serial(templates, workload):
    db = Database.create(serving_schema(), seed=11)
    manager = ConcurrentPQOManager(
        database=db,
        max_workers=1,
        engine_wrapper=simulated_latency_wrapper(**LATENCY),
    )
    for t in templates:
        manager.register(t, lam=LAM)
    start = time.perf_counter()
    choices = [manager.process(instance) for instance in workload]
    elapsed = time.perf_counter() - start
    manager.close()
    return elapsed, db, choices


def run_concurrent(templates, workload, spans_enabled=True):
    db = Database.create(serving_schema(), seed=11)
    # The observability handle sits in the measured path: the speedup
    # acceptance below therefore also bounds its serving overhead.
    manager = ConcurrentPQOManager(
        database=db,
        max_workers=NUM_WORKERS,
        engine_wrapper=simulated_latency_wrapper(**LATENCY),
        obs=Observability(spans_enabled=spans_enabled),
    )
    for t in templates:
        manager.register(t, lam=LAM)
    start = time.perf_counter()
    # dedupe=False: serve every instance so throughput is comparable.
    choices = manager.process_many(workload, dedupe=False)
    elapsed = time.perf_counter() - start
    manager.close()
    return elapsed, db, manager, choices


def observed_violations(db, templates, workload, choices) -> int:
    """Certified choices whose true sub-optimality exceeds λ, measured
    against the unwrapped (no simulated latency) engine as oracle."""
    oracles = {t.name: db.engine(t) for t in templates}
    violations = 0
    for instance, choice in zip(workload, choices):
        if not choice.certified:
            continue
        oracle = oracles[instance.template_name]
        optimal = oracle.optimize(instance.sv).cost
        chosen = oracle.recost(choice.shrunken_memo, instance.sv)
        if chosen / optimal > LAM * (1 + 1e-6):
            violations += 1
    return violations


def measure():
    templates = serving_templates()
    workload = make_workload(templates, INSTANCES_PER_TEMPLATE, SEED)
    serial_s, _, serial_choices = run_serial(templates, workload)
    conc_s, db, manager, conc_choices = run_concurrent(templates, workload)
    audit = manager.obs.audit
    outcomes = audit.outcome_totals()
    return {
        "templates": len(templates),
        "instances": len(workload),
        "serial_s": serial_s,
        "concurrent_s": conc_s,
        "speedup": serial_s / conc_s,
        "serial_qps": len(workload) / serial_s,
        "concurrent_qps": len(workload) / conc_s,
        "uncertified": sum(1 for c in conc_choices if not c.certified),
        "violations": observed_violations(db, templates, workload, conc_choices),
        "accounted": sum(outcomes.values()),
        "certified_counted": outcomes["certified"],
        "violations_live": audit.total_violations,
        # Anchor-attribution accounting identity (DESIGN.md §15): summed
        # per-anchor hit counters must equal getPlan's hit counters even
        # after 8 workers raced through the probe/commit split.
        "anchor_identity_errors": manager.doctor_report()["errors"],
        "report": manager.serving_report(),
    }


def test_concurrent_serving_throughput(benchmark):
    row = run_once(benchmark, measure)
    report = row.pop("report")
    identity_errors = row.pop("anchor_identity_errors")
    print()
    print(format_table([row], title="Serving throughput: 8 workers vs serial"))
    print()
    print(format_table(report, title="Per-shard serving stats"))

    assert row["uncertified"] == 0, "every concurrent choice must be certified"
    assert row["violations"] == 0, "certified choice exceeded λ against oracle"

    # The runtime audit trail agrees with reality: every response hit
    # exactly one outcome counter, and the live λ check — which needs no
    # oracle — saw zero violations too.
    assert row["accounted"] == row["instances"], (
        "outcome counters must account for every response exactly once"
    )
    assert row["certified_counted"] == row["instances"] - row["uncertified"]
    assert row["violations_live"] == 0, (
        "the runtime guarantee audit flagged a certified bound above λ"
    )
    assert identity_errors == [], (
        "anchor attribution drifted from the getPlan hit counters under "
        f"concurrency: {identity_errors}"
    )
    assert row["speedup"] >= MIN_SPEEDUP, (
        f"8-worker serving speedup {row['speedup']:.2f}× below the "
        f"{MIN_SPEEDUP}× acceptance threshold"
    )


def measure_tracing_overhead():
    """The same concurrent workload served twice: spans off, spans on.

    Per-request tracing records ~6 spans (serving.process, queue wait,
    scr.* checks, engine.* calls) plus contextvar propagation across the
    shard pool; the gate asserts all of it costs ≤5% wall-clock against
    the engine-latency-dominated baseline.
    """
    templates = serving_templates()
    workload = make_workload(templates, INSTANCES_PER_TEMPLATE, SEED)
    # Interleave off/on runs so drift (thermal, page cache) cancels.
    off_s, on_s, span_count = [], [], 0
    for _ in range(2):
        elapsed, _, manager, _ = run_concurrent(
            templates, workload, spans_enabled=False
        )
        off_s.append(elapsed)
        assert len(manager.obs.spans) == 0
        elapsed, _, manager, _ = run_concurrent(
            templates, workload, spans_enabled=True
        )
        on_s.append(elapsed)
        span_count = len(manager.obs.spans)
    baseline, traced = min(off_s), min(on_s)
    return {
        "instances": len(workload),
        "untraced_s": baseline,
        "traced_s": traced,
        "overhead": traced / baseline - 1.0,
        "spans_recorded": span_count,
        "spans_per_request": span_count / len(workload),
    }


def test_tracing_overhead(benchmark):
    row = run_once(benchmark, measure_tracing_overhead)
    print()
    print(format_table(
        [row], title="Tracing overhead: spans on vs off (concurrent serving)"
    ))
    assert row["spans_recorded"] > 0, "tracing run recorded no spans"
    assert row["spans_per_request"] >= 2.0, (
        "each served request should record at least its serving.process "
        "span and one decision-procedure child"
    )
    assert row["overhead"] <= MAX_TRACING_OVERHEAD, (
        f"tracing overhead {row['overhead']:.1%} exceeds the "
        f"{MAX_TRACING_OVERHEAD:.0%} budget"
    )
