"""One benchmark run: warm-up + correctness pass, measured passes, metrics.

A run is 1 warm-up pass + N measured passes of the same seeded stream,
each against a fresh system.  The warm-up pass is also the correctness
pass (oracle audit outside the timed region, decision fingerprint); every
later pass must reproduce that fingerprint exactly.  Every timing metric
is the median over the measured passes of the per-pass statistic.
"""

from __future__ import annotations

import gc
import os
import platform
import resource
import sys
import time
from statistics import median
from typing import Optional

import numpy as np

import layers
import spantree
from workloads import (
    WORKLOADS, Cluster2W, ClusterReference, Drive, ServeBatchObs, Workload,
)

#: End-to-end metrics: name, unit, which way is better.  The bound each
#: may worsen by lives in BENCHMARK.json.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("throughput_rps", "1/s", "higher"),
    ("latency_p50_us", "us", "lower"),
    ("latency_p99_us", "us", "lower"),
    ("hit_latency_p50_us", "us", "lower"),
    ("miss_latency_p50_us", "us", "lower"),
    ("cpu_ms_per_req", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("optimizer_call_pct", "%", "lower"),
    ("total_cost_ratio", "x", "lower"),
    ("max_subopt", "x", "lower"),
    ("plans_cached", "count", "lower"),
]

#: Stream sizes put one measured pass at about this long at ``--scale 1``;
#: ``--seconds`` buys measured passes in units of it (never fewer than 3).
PASS_TARGET_S = 3.0
TRACED_PASSES = 2


def one_pass(
    wl: Workload, audit: bool = False, tracer: Optional[spantree.Tracer] = None
) -> Drive:
    gc.collect()
    start = time.perf_counter()
    system = wl.setup(audit=audit)
    setup_s = time.perf_counter() - start
    try:
        if tracer is not None:
            wl.instrument(system, tracer)
        drive = wl.drive(system, keep=audit, tracer=tracer)
    except BaseException:
        wl.close(system)
        raise
    wl.finish(system, drive)
    drive.setup_s = setup_s
    return drive


def _peak_rss_mb() -> float:
    """This process's peak RSS plus the largest reaped child's."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (self_kb + child_kb) / 1024.0


def _class_p50(latency: np.ndarray, mask: np.ndarray) -> float:
    """Median latency of one operation type; a smoke-scale stream can have
    none of a type (every batch of 16 holds a miss), then the overall median."""
    return float(np.median(latency[mask] if mask.any() else latency))


def _pass_stats(wl: Workload, drive: Drive) -> dict:
    """One pass's timing statistics, rescaled to the box's nominal speed
    (times divided by the pass's speed factor; see workloads.SpeedProbe)."""
    latency, missed = drive.latency_us, drive.missed
    slow = drive.speed_factor
    return {
        "setup_s": drive.setup_s / slow,
        "throughput_rps": wl.requests / drive.wall_s * slow,
        "latency_p50_us": float(np.percentile(latency, 50)) / slow,
        "latency_p99_us": float(np.percentile(latency, 99)) / slow,
        "hit_latency_p50_us": _class_p50(latency, ~missed) / slow,
        "miss_latency_p50_us": _class_p50(latency, missed) / slow,
        "cpu_ms_per_req": 1e3 * drive.cpu_s / wl.requests / slow,
    }


def _check_passes(wl: Workload, warm: Drive, audit: dict, passes: list[Drive]) -> list[str]:
    """Every reason this run's outputs are not correct (empty = correct)."""
    problems = []
    if audit["violations"]:
        problems.append(f"{audit['violations']} certified lambda-violations")
    for i, drive in enumerate([warm] + passes):
        if drive.failed:
            problems.append(f"pass {i}: {drive.failed} failed requests")
        if drive.fingerprint != warm.fingerprint:
            problems.append(
                f"nondeterministic: pass {i} fingerprint {drive.fingerprint} "
                f"!= warm-up {warm.fingerprint}"
            )
        if isinstance(wl, Cluster2W):
            if drive.extras["retries"] or drive.extras["worker_lost"]:
                problems.append(f"pass {i}: cluster retries/worker_lost nonzero")
            if len(drive.extras["served_by"]) < 2:
                problems.append(
                    f"pass {i}: only {sorted(drive.extras['served_by'])} served"
                )
    return problems


def _hygiene(wl: Workload, seed: int, scale: float) -> dict:
    return {
        "nproc": os.cpu_count(),
        "loadavg_1m_before": os.getloadavg()[0],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": seed,
        "scale": scale,
        "requests_per_pass": wl.requests,
        "audit_every": wl.audit_every,
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "settings": wl.settings,
    }


def _close_hygiene(hygiene: dict) -> None:
    hygiene["loadavg_1m_after"] = os.getloadavg()[0]
    nproc = hygiene["nproc"] or 1
    if max(hygiene["loadavg_1m_before"], hygiene["loadavg_1m_after"]) > nproc:
        print(
            f"warning: 1-min loadavg above nproc={nproc}; timings are suspect",
            file=sys.stderr,
        )


def _report(wl: Workload, spec: list, values: dict, problems: list[str],
            hygiene: dict, audit: dict, every: list[Drive], **extra) -> tuple[dict, dict]:
    """``(result line, detail)`` of a run whose passes were ``every``."""
    _close_hygiene(hygiene)
    result = {
        "correct": not problems,
        "attempted": wl.requests * len(every),
        "failed": sum(d.failed for d in every),
        "metrics": {
            key: {"value": values[key], "unit": unit} for key, unit, _ in spec
        },
    }
    detail = {
        "workload": wl.name,
        "problems": problems,
        "hygiene": hygiene,
        "audit": audit,
        "fingerprint": every[0].fingerprint,
        **extra,
    }
    return result, detail


def _build(name: str, seed: int, scale: float, out_dir: str) -> Workload:
    wl = WORKLOADS[name](seed, scale, out_dir)
    if wl.single_cpu:
        # The in-process workloads never have two threads running at once;
        # left unpinned, the client and the pool thread of serve_batch_obs
        # land on different vCPUs whenever a cluster run came before (every
        # hand-off then wakes a halted vCPU): 4.2 s passes instead of 3.6 s.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    return wl


def _warm_up(wl: Workload) -> tuple[Drive, dict]:
    warm = one_pass(wl, audit=True)
    audit = wl.audit(warm.kept)
    warm.kept = []
    return warm, audit


def run_end_to_end(name: str, seed: int, seconds: float, scale: float,
                   out_dir: str) -> tuple[dict, dict]:
    """The untraced run: ``(result line, detail)``."""
    wl = _build(name, seed, scale, out_dir)
    hygiene = _hygiene(wl, seed, scale)
    warm, audit = _warm_up(wl)
    passes = [one_pass(wl) for _ in range(max(3, round(seconds / PASS_TARGET_S)))]
    problems = _check_passes(wl, warm, audit, passes)
    stats = [_pass_stats(wl, drive) for drive in passes]
    values = {key: median(s[key] for s in stats) for key in stats[0]}
    values.update(
        peak_rss_mb=_peak_rss_mb(),
        optimizer_call_pct=100.0 * warm.fingerprint["optimizer_calls"] / wl.requests,
        total_cost_ratio=audit["total_cost_ratio"],
        max_subopt=audit["max_subopt"],
        plans_cached=warm.fingerprint["plans_cached"],
    )
    extra = {}
    if isinstance(wl, Cluster2W):
        extra = {
            "hash_ring": warm.extras["hash_ring"],
            "served_by": warm.extras["served_by"],
        }
    return _report(
        wl, END_TO_END, values, problems, hygiene, audit, [warm] + passes,
        pass_wall_s=[d.wall_s for d in passes],
        pass_speed_factor=[d.speed_factor for d in passes],
        pass_stats=stats,
        samples_per_pass=len(passes[0].latency_us),
        **extra,
    )


def _mean_metrics(rows: list[dict]) -> dict:
    return {key: sum(r[key] for r in rows) / len(rows) for key in rows[0]}


def run_traced(name: str, seed: int, scale: float, out_dir: str) -> tuple[dict, dict]:
    """The traced run: per-layer metrics from spans the benchmark records.

    Traced and untraced passes alternate, so ``trace.overhead_pct``
    compares like with like; the spans of every traced pass are written
    as JSONL after the last pass.
    """
    wl = _build(name, seed, scale, out_dir)
    hygiene = _hygiene(wl, seed, scale)
    warm, audit = _warm_up(wl)
    traced, untraced, span_passes = [], [], []
    for _ in range(TRACED_PASSES):
        tracer = spantree.Tracer()
        traced.append(one_pass(wl, tracer=tracer))
        span_passes.append(tracer.spans)
        untraced.append(one_pass(wl))
    problems = _check_passes(wl, warm, audit, traced + untraced)
    traced_rps = median(wl.requests / d.wall_s for d in traced)
    untraced_rps = median(wl.requests / d.wall_s for d in untraced)

    metrics = {metric: 0.0 for metric, _, _ in layers.PER_LAYER}
    if isinstance(wl, Cluster2W):
        metrics.update(_cluster_layers(wl, untraced, span_passes))
    else:
        metrics.update(_mean_metrics([
            layers.span_metrics(
                spans, d.wall_s, wl.requests, d.fingerprint, d.extras
            )
            for spans, d in zip(span_passes, traced)
        ]))
        if abs(metrics["trace.unattributed_share_pct"]) > 5.0:
            problems.append(
                "layer self times cover "
                f"{100 - metrics['trace.unattributed_share_pct']:.1f}% of the "
                "traced wall (must be 100 +- 5)"
            )
    if isinstance(wl, ServeBatchObs):
        off = ServeBatchObs(seed, scale, out_dir, obs_on=False)
        off_wall = median(one_pass(off).wall_s for _ in range(TRACED_PASSES))
        on_wall = median(d.wall_s for d in untraced)
        metrics["obs.overhead_pct"] = 100.0 * (on_wall - off_wall) / off_wall
    metrics["trace.overhead_pct"] = 100.0 * (untraced_rps - traced_rps) / untraced_rps

    spans_path = os.path.join(out_dir, f"spans-{name}.jsonl")
    span_lines = spantree.write_jsonl(spans_path, span_passes)
    return _report(
        wl, layers.PER_LAYER, metrics, problems, hygiene, audit,
        [warm] + traced + untraced,
        traced_wall_s=[d.wall_s for d in traced],
        untraced_wall_s=[d.wall_s for d in untraced],
        spans_file=os.path.relpath(spans_path),
        spans_written=span_lines,
    )


def _cluster_layers(wl: Cluster2W, passes: list[Drive], span_passes: list) -> dict:
    """``cluster.*`` from the cluster passes; the in-process layers from a
    traced reference replay of the same stream through the stack one
    worker runs (worker internals are other processes: from outside, only
    their IPC-free equivalent can be wrapped)."""
    reference = ClusterReference(wl)
    plain = one_pass(reference)
    tracer = spantree.Tracer()
    traced = one_pass(reference, tracer=tracer)
    span_passes.append(tracer.spans)

    metrics = layers.span_metrics(
        tracer.spans, traced.wall_s, wl.requests, traced.fingerprint, traced.extras
    )
    cluster_p50 = median(float(np.percentile(d.latency_us, 50)) for d in passes)
    cpu_share = median(
        100.0 * d.extras["supervisor_cpu_s"] / d.cpu_s for d in passes
    )
    last = passes[-1]
    metrics.update(layers.pickle_metrics(
        wl.stream[0], last.extras["sample_response"]
    ))
    metrics.update({
        "cluster.ipc_overhead_us_p50":
            cluster_p50 - float(np.percentile(plain.latency_us, 50)),
        "cluster.supervisor_cpu_share_pct": cpu_share,
        "cluster.boot_s": median(d.extras["boot_s"] for d in passes),
        "cluster.retries": sum(d.extras["retries"] for d in passes),
        "cluster.worker_lost": sum(d.extras["worker_lost"] for d in passes),
    })
    return metrics
