"""Per-layer metrics of one traced pass, derived from its span tree.

Layers are named after the ``src/repro`` packages.  ``*_share_pct`` is a
layer's (or span kind's) summed SELF time over the traced wall, so the
shares of all layers plus ``trace.unattributed_share_pct`` add up to 100.
``*_us_per_call`` / ``*_us_per_miss`` are full durations (children
included): what a caller of that boundary waits.
"""

from __future__ import annotations

import pickle
import time
from collections import defaultdict
from statistics import median

from repro.cluster import Request

from spantree import NAME, START, END, layer_of, self_times

#: Every per-layer metric, with its unit and which way is better.  Every
#: workload's traced run emits all of them; a layer a workload does not
#: exercise reads 0.
PER_LAYER = [
    ("selectivity.svector_us_per_req", "us", "lower"),
    ("selectivity.svector_share_pct", "%", "lower"),
    ("selectivity.interval_calls", "count", "lower"),
    ("optimizer.optimize_calls", "count", "lower"),
    ("optimizer.optimize_us_per_call", "us", "lower"),
    ("optimizer.optimize_share_pct", "%", "lower"),
    ("optimizer.recost_calls", "count", "lower"),
    ("optimizer.recost_us_per_call", "us", "lower"),
    ("optimizer.recost_share_pct", "%", "lower"),
    ("optimizer.recost_per_req", "count", "lower"),
    ("optimizer.recost_speedup", "x", "higher"),
    ("engine.self_us_per_call", "us", "lower"),
    ("engine.share_pct", "%", "lower"),
    ("engine.retries", "count", "lower"),
    ("engine.faults", "count", "lower"),
    ("core.probe_calls", "count", "lower"),
    ("core.probe_self_us_p50", "us", "lower"),
    ("core.probe_share_pct", "%", "lower"),
    ("core.entries_scanned_per_probe", "count", "lower"),
    ("core.sel_check_hit_pct", "%", "higher"),
    ("core.cost_check_hit_pct", "%", "higher"),
    ("core.recost_useful_pct", "%", "higher"),
    ("core.commit_self_us_p50", "us", "lower"),
    ("core.manage_cache_us_per_miss", "us", "lower"),
    ("core.manage_cache_share_pct", "%", "lower"),
    ("core.redundant_plan_pct", "%", "lower"),
    ("core.scr_glue_share_pct", "%", "lower"),
    ("core.instances_cached", "count", "lower"),
    ("core.batch_probe_us_per_item", "us", "lower"),
    ("serving.shard_self_us_per_req", "us", "lower"),
    ("serving.dispatch_us_per_batch", "us", "lower"),
    ("serving.share_pct", "%", "lower"),
    ("serving.batch_group_size_mean", "count", "higher"),
    ("serving.single_flight_collapses", "count", "lower"),
    ("serving.epoch_retries", "count", "lower"),
    ("obs.overhead_pct", "%", "lower"),
    ("obs.spans_per_req", "count", "lower"),
    ("obs.spans_dropped", "count", "lower"),
    ("obs.slo_tick_share_pct", "%", "lower"),
    ("cluster.ipc_overhead_us_p50", "us", "lower"),
    ("cluster.request_pickle_bytes", "B", "lower"),
    ("cluster.response_pickle_bytes", "B", "lower"),
    ("cluster.pickle_us_per_req", "us", "lower"),
    ("cluster.supervisor_cpu_share_pct", "%", "lower"),
    ("cluster.boot_s", "s", "lower"),
    ("cluster.retries", "count", "lower"),
    ("cluster.worker_lost", "count", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.unattributed_share_pct", "%", "lower"),
]

UNITS = {name: unit for name, unit, _ in PER_LAYER}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def span_metrics(spans, wall_s: float, requests: int, fingerprint: dict,
                 extras: dict) -> dict:
    """The span- and counter-derived metrics of one in-process pass."""
    selfs = self_times(spans)
    count: dict = defaultdict(int)
    duration: dict = defaultdict(float)
    self_by_name: dict = defaultdict(float)
    self_by_layer: dict = defaultdict(float)
    self_lists: dict = defaultdict(list)
    for span, self_s in zip(spans, selfs):
        name = span[NAME]
        count[name] += 1
        duration[name] += span[END] - span[START]
        self_by_name[name] += self_s
        self_lists[name].append(self_s)
        layer = layer_of(name)
        if layer is not None:
            self_by_layer[layer] += self_s

    def share(*names) -> float:
        return 100.0 * sum(self_by_name[n] for n in names) / wall_s

    def p50_us(*names) -> float:
        values = [v for n in names for v in self_lists[n]]
        return 1e6 * median(values) if values else 0.0

    core = extras.get("core", {})
    engine = extras.get("engine", {})
    serving = extras.get("serving", {})
    obs = extras.get("obs", {})
    decisions = (
        core.get("selectivity_hits", 0) + core.get("cost_hits", 0)
        + core.get("misses", 0)
    )
    optimize_calls = count["optimizer.optimize"]
    recost_calls = count["optimizer.recost"]
    engine_calls = sum(
        count[n] for n in ("engine.svector", "engine.optimize", "engine.recost")
    )
    batched_items = requests - count["serving.shard_process"]
    mean_optimize = _ratio(duration["optimizer.optimize"], optimize_calls)
    mean_recost = _ratio(duration["optimizer.recost"], recost_calls)
    # Summed self time counts the point estimate nested inside an interval
    # estimate once.
    selectivity_self = self_by_layer["selectivity"]
    return {
        "selectivity.svector_us_per_req": 1e6 * _ratio(selectivity_self, requests),
        "selectivity.svector_share_pct": 100.0 * selectivity_self / wall_s,
        "selectivity.interval_calls": count["selectivity.interval"],
        "optimizer.optimize_calls": optimize_calls,
        "optimizer.optimize_us_per_call": 1e6 * mean_optimize,
        "optimizer.optimize_share_pct": share("optimizer.optimize"),
        "optimizer.recost_calls": recost_calls,
        "optimizer.recost_us_per_call": 1e6 * mean_recost,
        "optimizer.recost_share_pct": share("optimizer.recost"),
        "optimizer.recost_per_req": _ratio(recost_calls, requests),
        "optimizer.recost_speedup": _ratio(mean_optimize, mean_recost),
        "engine.self_us_per_call": 1e6 * _ratio(
            self_by_layer["engine"], engine_calls
        ),
        "engine.share_pct": 100.0 * self_by_layer["engine"] / wall_s,
        "engine.retries": engine.get("retries", 0),
        "engine.faults": engine.get("faults", 0),
        "core.probe_calls": count["core.probe"] + count["core.probe_batch"],
        "core.probe_self_us_p50": p50_us("core.probe", "core.probe_batch"),
        "core.probe_share_pct": share("core.probe", "core.probe_batch"),
        "core.entries_scanned_per_probe": _ratio(
            core.get("entries_scanned", 0), decisions
        ),
        "core.sel_check_hit_pct": 100.0 * _ratio(
            core.get("selectivity_hits", 0), decisions
        ),
        "core.cost_check_hit_pct": 100.0 * _ratio(
            core.get("cost_hits", 0), decisions
        ),
        "core.recost_useful_pct": 100.0 * _ratio(
            core.get("cost_hits", 0), core.get("probe_recost_calls", 0)
        ),
        "core.commit_self_us_p50": p50_us("core.commit"),
        "core.manage_cache_us_per_miss": 1e6 * _ratio(
            duration["core.manage_cache"], count["core.manage_cache"]
        ),
        "core.manage_cache_share_pct": share("core.manage_cache"),
        "core.redundant_plan_pct": 100.0 * _ratio(
            core.get("plans_rejected_redundant", 0),
            core.get("optimizer_calls", 0),
        ),
        "core.scr_glue_share_pct": share("core.scr_process"),
        "core.instances_cached": fingerprint.get("instances_cached", 0),
        "core.batch_probe_us_per_item": 1e6 * _ratio(
            self_by_name["core.probe_batch"], batched_items
        ),
        "serving.shard_self_us_per_req": 1e6 * _ratio(
            self_by_name["serving.shard_process"]
            + self_by_name["serving.shard_batch"],
            requests,
        ),
        "serving.dispatch_us_per_batch": 1e6 * _ratio(
            self_by_name["serving.process_many"], count["serving.process_many"]
        ),
        "serving.share_pct": 100.0 * self_by_layer["serving"] / wall_s,
        "serving.batch_group_size_mean": _ratio(
            batched_items, count["serving.shard_batch"]
        ),
        "serving.single_flight_collapses": serving.get("sf_collapsed", 0),
        "serving.epoch_retries": serving.get("epoch_retries", 0),
        "obs.spans_per_req": _ratio(obs.get("spans_recorded", 0), requests),
        "obs.spans_dropped": obs.get("spans_dropped", 0),
        "obs.slo_tick_share_pct": share("obs.slo_tick"),
        "trace.unattributed_share_pct": 100.0 * (
            1.0 - sum(self_by_layer.values()) / wall_s
        ),
    }


def pickle_metrics(stream_item, response) -> dict:
    """Size and cost of pickling the real wire objects of one request."""
    request = Request(
        request_id=0, template_name=stream_item.template_name,
        sv=tuple(float(s) for s in stream_item.sv.values), sequence_id=0,
    )
    rounds = 2000
    start = time.perf_counter()
    for _ in range(rounds):
        request_bytes = pickle.dumps(request)
        pickle.loads(request_bytes)
        response_bytes = pickle.dumps(response)
        pickle.loads(response_bytes)
    elapsed = time.perf_counter() - start
    return {
        "cluster.request_pickle_bytes": len(request_bytes),
        "cluster.response_pickle_bytes": len(response_bytes),
        "cluster.pickle_us_per_req": 1e6 * elapsed / rounds,
    }
