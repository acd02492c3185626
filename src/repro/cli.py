"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``info``
    Package overview: databases, templates, techniques.
``demo``
    The quickstart flow: SCR over a generated workload, with metrics.
``compare [--template NAME] [--m N]``
    All techniques on one template (the Table 2 line-up).
``plan-diagram [--template NAME] [--grid N]``
    ASCII plan diagram for a 2-d template.
``experiment <id>``
    One paper experiment at reduced scale (ids: lambda-sweep,
    aggregates, numopt-vs-m, numopt-vs-d, budget, recost-variants).
``obs-report [--template NAME] [--m N] [--workers N]``
    Instrumented serving run, then the observability snapshot: outcome
    counters, the live λ-violation audit, and every metric series.
    ``--prometheus FILE`` / ``--spans FILE`` additionally export the
    registry as text exposition and the decision spans as JSONL.
``doctor [--template NAME] [--m N] [--cluster N]``
    "Is my cache healthy?" — serves a demo workload, then judges it:
    per-template calibration grade (predicted-vs-recosted and
    predicted-vs-true cost error), anchor-level payback attribution
    (top/bottom anchors, wasted optimizer spend), active drift alarms
    and recommended actions.  ``--cluster N`` serves through N worker
    processes and renders the cluster-merged view instead.
``serve [--workers N] [--m N] [--chaos SEED]``
    Multi-process serving tier: a supervisor, ``N`` worker processes
    partitioned by consistent hashing, snapshot warm-starts, and (with
    ``--chaos``) seeded process-level fault injection while the
    workload runs.  Ends with the cluster health report; the gate is
    every request resolved and zero λ-violations.
"""

from __future__ import annotations

import argparse
import sys

from .baselines import Density, Ellipse, OptimizeAlways, OptimizeOnce, PCM, Ranges
from .catalog.registry import database_names, get_database
from .core.scr import SCR
from .harness.experiments import ExperimentConfig, Experiments
from .harness.reporting import format_table
from .harness.runner import SequenceSpec, WorkloadRunner
from .workload.orderings import Ordering
from .workload.suite import SuiteConfig
from .workload.templates import dimension_sweep_template, seed_templates


def _find_template(name: str):
    for template in seed_templates():
        if template.name == name:
            return template
    names = ", ".join(t.name for t in seed_templates())
    raise SystemExit(f"unknown template {name!r}; available: {names}")


def cmd_info(_args) -> None:
    templates = seed_templates()
    print("repro — SIGMOD 2017 'Leveraging Re-costing...' reproduction\n")
    print(f"databases : {', '.join(database_names())}")
    print(f"templates : {len(templates)} seed templates "
          f"(d = {min(t.dimensions for t in templates)}.."
          f"{max(t.dimensions for t in templates)})")
    rows = [
        {"template": t.name, "database": t.database,
         "tables": len(t.tables), "d": t.dimensions}
        for t in templates
    ]
    print()
    print(format_table(rows))
    print("\ntechniques: SCR (this paper), PCM, Ellipse, Density, Ranges, "
          "OptimizeOnce, OptimizeAlways")


def cmd_demo(args) -> None:
    runner = WorkloadRunner(db_scale=0.4)
    template = _find_template(args.template)
    spec = SequenceSpec(
        template=template, m=args.m, ordering=Ordering.RANDOM, seed=1
    )
    result = runner.run(spec, lambda e: SCR(e, lam=args.lam), lam=args.lam)
    print(f"SCR(lambda={args.lam}) over {args.m} instances of {template.name}:")
    print(f"  MSO            : {result.mso:.3f}  (bound {args.lam})")
    print(f"  TotalCostRatio : {result.total_cost_ratio:.3f}")
    print(f"  optimizer calls: {result.num_opt} ({result.num_opt_percent:.1f}%)")
    print(f"  plans cached   : {result.num_plans}")


def cmd_compare(args) -> None:
    runner = WorkloadRunner(db_scale=0.4)
    template = _find_template(args.template)
    spec = SequenceSpec(
        template=template, m=args.m, ordering=Ordering.RANDOM, seed=1
    )
    factories = {
        "OptAlways": OptimizeAlways,
        "OptOnce": OptimizeOnce,
        "PCM2": lambda e: PCM(e, lam=2.0),
        "Ellipse": lambda e: Ellipse(e, delta=0.9),
        "Density": lambda e: Density(e),
        "Ranges": lambda e: Ranges(e, slack=0.01),
        "SCR2": lambda e: SCR(e, lam=2.0),
    }
    rows = []
    for name, factory in factories.items():
        result = runner.run(spec, factory)
        rows.append({
            "technique": name,
            "MSO": result.mso,
            "TC": result.total_cost_ratio,
            "numOpt%": result.num_opt_percent,
            "plans": result.num_plans,
        })
    print(format_table(rows, title=f"{template.name}, m={args.m}"))


def cmd_plan_diagram(args) -> None:
    from .analysis.plan_diagram import compute_plan_diagram

    template = _find_template(args.template)
    if template.dimensions != 2:
        raise SystemExit(
            f"plan diagrams need a 2-d template; {template.name} has "
            f"d={template.dimensions}"
        )
    db = get_database(template.database, scale=0.4)
    engine = db.engine(template)
    diagram = compute_plan_diagram(engine, grid_size=args.grid)
    print(f"Plan diagram for {template.name} "
          f"({diagram.plan_count} distinct plans):\n")
    print(diagram.render_ascii())


def cmd_experiment(args) -> None:
    config = ExperimentConfig(
        suite=SuiteConfig(num_templates=8, instances_per_sequence=120,
                          instances_high_d=160),
        db_scale=0.4,
        orderings=[Ordering.RANDOM, Ordering.DECREASING_COST],
    )
    experiments = Experiments(config)
    if args.id == "lambda-sweep":
        print(format_table(experiments.lambda_sweep(),
                           title="SCR lambda sweep (Figures 8/10/14)"))
    elif args.id == "aggregates":
        print(format_table(experiments.technique_aggregates(),
                           title="Technique aggregates (Figures 9/13/16/17)"))
    elif args.id == "numopt-vs-m":
        rows = experiments.numopt_vs_m(
            dimension_sweep_template(4), lengths=(100, 250, 500)
        )
        print(format_table(rows, title="numOpt% vs m (Figure 11)"))
    elif args.id == "numopt-vs-d":
        rows = experiments.numopt_vs_dimensions(dims=(2, 4, 6), m=200)
        print(format_table(rows, title="numOpt% vs d (Figure 12)"))
    elif args.id == "budget":
        print(format_table(experiments.plan_budget_sweep(),
                           title="Plan budget sweep (Figure 19)"))
    elif args.id == "recost-variants":
        print(format_table(experiments.recost_augmented_baselines(),
                           title="Recost-augmented heuristics (Figure 21)"))
    else:
        raise SystemExit(f"unknown experiment id {args.id!r}")


def _series_label(row: dict, value_keys: frozenset = frozenset(
    ("metric", "value", "count", "p50", "p99", "sum")
)) -> str:
    """Collapse a snapshot row's label columns into one cell."""
    pairs = [f"{k}={v}" for k, v in row.items() if k not in value_keys]
    return ",".join(pairs) if pairs else "-"


def cmd_obs_report(args) -> None:
    import json

    from .obs import Observability, snapshot_rows, write_spans_jsonl
    from .serving import ConcurrentPQOManager, simulated_latency_wrapper
    from .workload import instances_for_template

    template = _find_template(args.template)
    db = get_database(template.database, scale=0.4)
    obs = Observability()
    manager = ConcurrentPQOManager(
        database=db,
        max_workers=args.workers,
        engine_wrapper=simulated_latency_wrapper(
            optimize_seconds=0.004, recost_seconds=0.0004
        ),
        obs=obs,
    )
    manager.register(template, lam=args.lam)
    instances = instances_for_template(template, args.m, seed=1)
    manager.process_many(instances, dedupe=False)
    manager.close()

    report = obs.report()
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        outcomes = report["outcomes"]
        print(f"Observability snapshot — SCR(lambda={args.lam:g}) serving "
              f"{args.m} instances of {template.name} on "
              f"{args.workers} workers\n")
        print(format_table([{
            "certified": outcomes["certified"],
            "uncertified": outcomes["uncertified"],
            "shed": outcomes["shed"],
            "responses": sum(outcomes.values()),
            "lambda_violations": report["lambda_violations"],
        }], title="Guarantee audit (violations must stay 0)"))
        rows = snapshot_rows(obs.registry)
        scalars = [
            {"metric": r["metric"], "series": _series_label(r),
             "value": r["value"]}
            for r in rows if "value" in r
        ]
        histograms = [
            {"metric": r["metric"], "series": _series_label(r),
             "count": r["count"], "p50": r["p50"], "p99": r["p99"],
             "sum": r["sum"]}
            for r in rows if "count" in r
        ]
        print()
        print(format_table(scalars, title="Counters and gauges",
                           float_format="{:g}"))
        print()
        print(format_table(histograms, title="Histograms (interpolated "
                           "quantiles)", float_format="{:.6g}"))
        print(f"\nspans: {report['spans_recorded']} recorded, "
              f"{report['spans_dropped']} dropped from the ring")
    if args.prometheus:
        with open(args.prometheus, "w", encoding="utf-8") as fh:
            fh.write(obs.prometheus())
        print(f"wrote Prometheus exposition to {args.prometheus}")
    if args.spans:
        rows_written = write_spans_jsonl(obs.spans, args.spans)
        print(f"wrote {rows_written} spans to {args.spans}")


def cmd_doctor(args) -> None:
    import json

    from .obs import Observability
    from .obs.doctor import render_doctor_report

    if args.cluster:
        import tempfile

        from .cluster import ClusterSupervisor
        from .workload import instances_for_template

        templates = seed_templates()[: args.templates]
        supervisor = ClusterSupervisor(
            templates,
            num_workers=args.cluster,
            snapshot_dir=tempfile.mkdtemp(prefix="repro-doctor-"),
            lam=args.lam,
            db_scale=0.3,
            threads=2,
        )
        supervisor.start()
        streams = {
            t.name: instances_for_template(t, args.m, seed=1)
            for t in templates
        }
        futures = [
            supervisor.submit(t.name, streams[t.name][i].sv.values,
                              sequence_id=i)
            for i in range(args.m) for t in templates
        ]
        for fut in futures:
            fut.exception()
        # Template summaries and registry snapshots arrive on heartbeats
        # (one per worker every 200 ms): pump until every template's
        # summary and outcomes count all m requests, bounded so a worker
        # that died mid-demo degrades the view instead of hanging the CLI.
        import time

        deadline = time.monotonic() + 3.0
        while True:
            supervisor.pump(timeout=0.3)
            report = supervisor.doctor_report()
            sections = report["templates"]
            ready = all(
                t.name in sections
                and (sections[t.name]["requests"] or {}).get("total", 0)
                >= args.m
                and sum(sections[t.name]["outcomes"].values()) >= args.m
                for t in templates
            )
            if ready or time.monotonic() > deadline:
                break
        prom = supervisor.prometheus() if args.prometheus else None
        supervisor.close()
    else:
        from .serving import ConcurrentPQOManager, simulated_latency_wrapper
        from .workload import instances_for_template

        template = _find_template(args.template)
        db = get_database(template.database, scale=0.4)
        obs = Observability()
        manager = ConcurrentPQOManager(
            database=db,
            max_workers=args.workers,
            engine_wrapper=simulated_latency_wrapper(
                optimize_seconds=0.004, recost_seconds=0.0004
            ),
            obs=obs,
        )
        manager.register(template, lam=args.lam)
        # Waves, not one batch: a batch is probed against one snapshot
        # (no interleaved commits), so a single cold batch would be all
        # misses and there would be no cache health to judge.
        instances = instances_for_template(template, args.m, seed=1)
        wave = max(1, args.m // 8)
        for i in range(0, len(instances), wave):
            manager.process_many(instances[i:i + wave], dedupe=False)
        report = manager.doctor_report()
        prom = manager.prometheus() if args.prometheus else None
        manager.close()

    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(render_doctor_report(report))
    if args.prometheus:
        with open(args.prometheus, "w", encoding="utf-8") as fh:
            fh.write(prom or "")
        print(f"wrote Prometheus exposition to {args.prometheus}")


def cmd_trace(args) -> None:
    import json

    from .obs import (
        Observability,
        explain_trace,
        format_explanation,
        load_spans_jsonl,
        render_tree,
        traces_in,
        write_spans_jsonl,
    )

    if args.file:
        spans = load_spans_jsonl(args.file)
        obs = None
    else:
        from .serving import ConcurrentPQOManager, simulated_latency_wrapper
        from .workload import instances_for_template

        template = _find_template(args.template)
        db = get_database(template.database, scale=0.4)
        obs = Observability()
        manager = ConcurrentPQOManager(
            database=db,
            max_workers=args.workers,
            engine_wrapper=simulated_latency_wrapper(
                optimize_seconds=0.004, recost_seconds=0.0004
            ),
            obs=obs,
        )
        manager.register(template, lam=args.lam)
        manager.process_many(
            instances_for_template(template, args.m, seed=1), dedupe=False
        )
        manager.close()
        spans = obs.spans.spans()

    buckets = {
        tid: rows for tid, rows in traces_in(spans).items() if tid
    }
    if not buckets:
        raise SystemExit(
            "no traced spans found (schema v1 file, or tracing was off)"
        )

    if args.explain is not None:
        matches = [
            rows for rows in buckets.values()
            if any(s.attrs.get("seq") == args.explain
                   and s.name in ("serving.process", "cluster.request")
                   for s in rows)
        ]
        if not matches:
            raise SystemExit(
                f"no request with sequence id {args.explain} in "
                f"{len(buckets)} trace(s)"
            )
        for rows in matches:
            info = explain_trace(rows)
            if args.json:
                print(json.dumps(info, indent=2, sort_keys=True))
            else:
                print(format_explanation(info))
                print()
                print(render_tree(rows))
    else:
        shown = list(buckets.items())
        if args.trace:
            shown = [
                (tid, rows) for tid, rows in shown
                if tid.startswith(args.trace)
            ]
            if not shown:
                raise SystemExit(f"no trace matching {args.trace!r}")
        elif args.limit > 0:
            shown = shown[: args.limit]
        if args.json:
            print(json.dumps(
                [explain_trace(rows) for _, rows in shown],
                indent=2, sort_keys=True,
            ))
        else:
            for i, (tid, rows) in enumerate(shown):
                if i:
                    print()
                print(f"trace {tid}")
                print(render_tree(rows))
            hidden = len(buckets) - len(shown)
            if hidden > 0:
                print(f"\n({hidden} more trace(s); use --limit 0 for all, "
                      "--explain SEQ for one request's story)")
    if obs is not None and args.spans_out:
        rows_written = write_spans_jsonl(obs.spans, args.spans_out)
        print(f"\nwrote {rows_written} spans to {args.spans_out}")


def cmd_serve(args) -> None:
    import json
    import tempfile

    from .cluster import ClusterSupervisor, ProcessFaultInjector
    from .workload.generator import instances_for_template
    from .workload.templates import seed_templates

    templates = seed_templates()
    if args.templates:
        templates = templates[: args.templates]
    snapshot_dir = args.snapshot_dir or tempfile.mkdtemp(
        prefix="repro-cluster-"
    )
    supervisor = ClusterSupervisor(
        templates,
        num_workers=args.workers,
        snapshot_dir=snapshot_dir,
        lam=args.lam,
        db_scale=args.db_scale,
        threads=args.threads,
    )
    supervisor.start()
    injector = (
        ProcessFaultInjector(supervisor, seed=args.chaos)
        if args.chaos is not None
        else None
    )
    print(f"cluster up: {args.workers} workers, {len(templates)} templates, "
          f"snapshots in {snapshot_dir}")

    streams = {
        t.name: instances_for_template(t, args.m, seed=1) for t in templates
    }
    futures = []
    for i in range(args.m):
        for template in templates:
            sv = streams[template.name][i].sv.values
            futures.append(supervisor.submit(template.name, sv, sequence_id=i))
            if (
                injector is not None
                and len(futures) % args.chaos_every == 0
            ):
                print(f"  chaos: {injector.inject_one()}")

    lost = 0
    for fut in futures:
        if fut.exception() is not None:
            lost += 1
    report = supervisor.cluster_report()
    if args.prometheus:
        with open(args.prometheus, "w", encoding="utf-8") as fh:
            fh.write(supervisor.prometheus())
        print(f"wrote merged Prometheus exposition to {args.prometheus}")
    supervisor.close()

    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return
    print()
    print(format_table(report["workers"], title="Fleet"))
    outcomes = report["outcomes"]
    print()
    print(format_table([{
        "submitted": report["submitted"],
        "resolved": report["resolved"],
        "certified": outcomes["certified"],
        "uncertified": outcomes["uncertified"],
        "shed": outcomes["shed"],
        "retries": report["retries"],
        "worker_lost": report["worker_lost"],
        "lambda_violations": (report["supervisor_lambda_violations"]
                              + report["worker_lambda_violations"]),
    }], title="Cluster accounting (exactly one outcome per request)"))
    if injector is not None:
        print(f"\nfaults injected: {len(injector.injected)} "
              f"({', '.join(injector.injected) or 'none'})")
    unresolved = report["submitted"] - report["resolved"]
    if unresolved or lost:
        print(f"\nWARNING: {unresolved} unaccounted requests, "
              f"{lost} futures raised")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info").set_defaults(func=cmd_info)

    demo = sub.add_parser("demo")
    demo.add_argument("--template", default="tpch_shipping_priority")
    demo.add_argument("--m", type=int, default=200)
    demo.add_argument("--lam", type=float, default=2.0)
    demo.set_defaults(func=cmd_demo)

    compare = sub.add_parser("compare")
    compare.add_argument("--template", default="tpcds_q25_like")
    compare.add_argument("--m", type=int, default=200)
    compare.set_defaults(func=cmd_compare)

    diagram = sub.add_parser("plan-diagram")
    diagram.add_argument("--template", default="tpcds_catalog_simple")
    diagram.add_argument("--grid", type=int, default=20)
    diagram.set_defaults(func=cmd_plan_diagram)

    experiment = sub.add_parser("experiment")
    experiment.add_argument("id", choices=[
        "lambda-sweep", "aggregates", "numopt-vs-m", "numopt-vs-d",
        "budget", "recost-variants",
    ])
    experiment.set_defaults(func=cmd_experiment)

    obs_report = sub.add_parser("obs-report")
    obs_report.add_argument("--template", default="tpch_shipping_priority")
    obs_report.add_argument("--m", type=int, default=120)
    obs_report.add_argument("--lam", type=float, default=2.0)
    obs_report.add_argument("--workers", type=int, default=4)
    obs_report.add_argument("--prometheus", metavar="FILE", default=None)
    obs_report.add_argument("--spans", metavar="FILE", default=None)
    obs_report.add_argument("--json", action="store_true",
                            help="dump the full report as JSON instead")
    obs_report.set_defaults(func=cmd_obs_report)

    doctor = sub.add_parser(
        "doctor",
        help="plan-cache health: calibration grades, anchor payback, "
             "drift alarms, recommended actions",
    )
    doctor.add_argument("--template", default="tpch_shipping_priority")
    doctor.add_argument("--m", type=int, default=120)
    doctor.add_argument("--lam", type=float, default=2.0)
    doctor.add_argument("--workers", type=int, default=4)
    doctor.add_argument("--cluster", type=int, metavar="N", default=0,
                        help="run N worker processes and report the "
                             "cluster-merged view instead")
    doctor.add_argument("--templates", type=int, default=2,
                        help="seed templates to serve in --cluster mode")
    doctor.add_argument("--prometheus", metavar="FILE", default=None)
    doctor.add_argument("--json", action="store_true",
                        help="dump the health report as JSON instead")
    doctor.set_defaults(func=cmd_doctor)

    trace = sub.add_parser(
        "trace",
        help="render span trees / explain one request's guarantee",
    )
    trace.add_argument("--template", default="tpch_shipping_priority")
    trace.add_argument("--m", type=int, default=8)
    trace.add_argument("--lam", type=float, default=2.0)
    trace.add_argument("--workers", type=int, default=4)
    trace.add_argument("--file", metavar="SPANS_JSONL", default=None,
                       help="explain an existing spans file instead of "
                            "serving a demo workload")
    trace.add_argument("--trace", metavar="TRACE_ID", default=None,
                       help="show only the trace with this ID (prefix ok)")
    trace.add_argument("--explain", type=int, metavar="SEQ", default=None,
                       help="explain the request with this sequence id")
    trace.add_argument("--limit", type=int, default=3,
                       help="trace trees to render (0 = all)")
    trace.add_argument("--spans-out", metavar="FILE", default=None,
                       help="also write the demo's spans as JSONL")
    trace.add_argument("--json", action="store_true",
                       help="emit structured explanations as JSON")
    trace.set_defaults(func=cmd_trace)

    serve = sub.add_parser("serve")
    serve.add_argument("--workers", type=int, default=4)
    serve.add_argument("--m", type=int, default=30,
                       help="instances per template")
    serve.add_argument("--templates", type=int, default=4,
                       help="number of seed templates to serve (0 = all)")
    serve.add_argument("--lam", type=float, default=2.0)
    serve.add_argument("--db-scale", type=float, default=0.3)
    serve.add_argument("--threads", type=int, default=4,
                       help="serving threads inside each worker")
    serve.add_argument("--chaos", type=int, metavar="SEED", default=None,
                       help="enable seeded fault injection")
    serve.add_argument("--chaos-every", type=int, default=40,
                       help="inject one fault every N submissions")
    serve.add_argument("--snapshot-dir", default=None,
                       help="snapshot directory (default: fresh tempdir)")
    serve.add_argument("--prometheus", metavar="FILE", default=None,
                       help="write the merged cluster exposition here")
    serve.add_argument("--json", action="store_true",
                       help="dump the cluster report as JSON instead")
    serve.set_defaults(func=cmd_serve)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.func(args)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
