"""What the serving shard adds to a decision, on ``serve_batch_obs``.

Serves the end-to-end benchmark's ``workloads.ServeBatchObs`` stream
three ways against a fresh manager each pass, with observability off
and on:

* ``scr`` — a bare :meth:`SCR.process` loop over each template's SCR
  (the shard's SCR, so the configuration is the manager's);
* ``one`` — a :meth:`ConcurrentPQOManager.process` loop: every request
  a group of one, the path of every ``submit`` and cluster-worker
  request;
* ``many`` — :meth:`ConcurrentPQOManager.process_many` over batches of
  16, as the benchmark drives it.

A round runs every (side, arm) pass once, in an order that rotates per
round, pinned to one vCPU.  Each pass runs the e2e ``SpeedProbe`` every
64 requests and its wall time, net of the probes, is divided by the
pass's speed factor.  The script prints per arm the median µs a request
with Q1/Q3, and the median per-round ratios ``one/scr`` and
``many/scr``.  It exits 1 if the arms' decision fingerprints (optimizer
calls, Recost calls, plans and instances cached) differ: the arms must
decide the same stream identically.

``--append`` adds the run to ``BENCH_serving_overhead.json`` (the v2
trajectory envelope), one row per observability side with the medians,
the two ratios and ``scr_over_one`` — the median per-round
``scr``/``one`` ratio, higher is better (1.0: a group of one costs its
decision) — which ``check_trajectory.py`` gates against the newest
earlier run on the same host.

Usage::

    PYTHONPATH=src python benchmarks/serving_overhead.py --rounds 5 --seed 1
    PYTHONPATH=src python benchmarks/serving_overhead.py --append --label abc123
    PYTHONPATH=src python benchmarks/serving_overhead.py --scale 0.05 --rounds 1  # smoke
"""

from __future__ import annotations

import argparse
import gc
import os
import platform
import sys
import tempfile
import time
from pathlib import Path

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [
    p for p in (os.path.join(HERE, "..", "src"), os.path.join(HERE, "e2e"), HERE)
    if p not in sys.path
]

from check_trajectory import append_run  # noqa: E402
from obs_gap import quartiles  # noqa: E402
from workloads import BATCH, ServeBatchObs, SpeedProbe  # noqa: E402

BENCH_JSON = Path(HERE).parent / "BENCH_serving_overhead.json"
ARMS = ("scr", "one", "many")
#: Requests between two speed-probe slices.
PROBE_EVERY = 64


def _units(arm: str, manager, stream: list) -> list:
    """The calls one pass makes, each ``(call, argument, requests)``."""
    if arm == "many":
        call = manager.process_many
        return [
            (lambda batch: call(batch, dedupe=False), stream[i:i + BATCH], BATCH)
            for i in range(0, len(stream), BATCH)
        ]
    if arm == "one":
        return [(manager.process, q, 1) for q in stream]
    return [(manager.shard(q.template_name).scr.process, q, 1) for q in stream]


def one_pass(wl: ServeBatchObs, arm: str) -> tuple[float, dict]:
    """Speed-normalised µs a request of one pass, and its fingerprint."""
    manager = wl.setup()
    try:
        units = _units(arm, manager, wl.stream)
        probe = SpeedProbe(wl.probe_nominal)
        perf = time.perf_counter
        gc.collect()
        served = 0
        start = perf()
        for call, argument, requests in units:
            if served % PROBE_EVERY < requests:
                probe()
            call(argument)
            served += requests
        wall = perf() - start - probe.total_s
    finally:
        manager.close()
    shards = list(manager._templates.values())
    fingerprint = {
        "optimizer_calls": sum(s.scr.optimizer_calls for s in shards),
        "recost_calls": sum(s.engine.counters.recost.calls for s in shards),
        "plans_cached": sum(s.scr.cache.num_plans for s in shards),
        "instances_cached": sum(s.scr.cache.num_instances for s in shards),
    }
    return 1e6 * wall / served / probe.speed_factor, fingerprint


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--scale", type=float, default=0.25,
                        help="multiplies the request count (0.05: smoke)")
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--append", action="store_true",
                        help=f"append the run to {BENCH_JSON.name}")
    parser.add_argument("--label", default=None,
                        help="tag stored in the appended run's meta")
    args = parser.parse_args(argv)

    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    passes = [(side, arm) for side in ("off", "on") for arm in ARMS]
    us: dict = {p: [] for p in passes}
    fingerprints: dict = {}
    with tempfile.TemporaryDirectory() as out_dir:
        sides = {
            side: ServeBatchObs(args.seed, args.scale, out_dir, obs_on=side == "on")
            for side in ("off", "on")
        }
        for side, arm in passes:
            one_pass(sides[side], arm)  # warm-up: imports, caches, lazy set-up
        for k in range(args.rounds):
            for side, arm in passes[k % len(passes):] + passes[:k % len(passes)]:
                cost, fingerprints[side, arm] = one_pass(sides[side], arm)
                us[side, arm].append(cost)
            print(f"round {k + 1}: " + ", ".join(
                f"{side}/{arm} {us[side, arm][-1]:.1f}" for side, arm in passes
            ))
        requests = sides["on"].requests

    print(f"\nserve_batch_obs seed {args.seed}, {requests} requests a pass, "
          f"{args.rounds} interleaved pinned rounds, speed-normalised µs a request")
    rows = []
    for side in ("off", "on"):
        row: dict = {
            "workload": "serve_batch_obs", "obs": side, "seed": args.seed,
            "scale": args.scale, "rounds": args.rounds, "requests": requests,
        }
        for arm in ARMS:
            q1, median, q3 = quartiles(us[side, arm])
            row[f"{arm}_us"] = round(median, 2)
            row[f"{arm}_us_q1"] = round(q1, 2)
            row[f"{arm}_us_q3"] = round(q3, 2)
            print(f"obs {side:3} {arm:4} {median:7.1f} [{q1:.1f}, {q3:.1f}]")
        scr = us[side, "scr"]
        for arm in ("one", "many"):
            ratio = quartiles([a / b for a, b in zip(us[side, arm], scr)])
            row[f"{arm}_over_scr"] = round(ratio[1], 4)
            print(f"obs {side:3} {arm}/scr {ratio[1]:.3f} "
                  f"[{ratio[0]:.3f}, {ratio[2]:.3f}]")
        row["scr_over_one"] = round(quartiles(
            [b / a for a, b in zip(us[side, "one"], scr)]
        )[1], 4)
        rows.append(row)
    distinct = {tuple(sorted(f.items())) for f in fingerprints.values()}
    if len(distinct) != 1:
        for key, fingerprint in sorted(fingerprints.items()):
            print(f"fingerprint {key}: {fingerprint}")
        print("FAIL: the arms' decision fingerprints differ")
        return 1
    print(f"fingerprint (every arm): {next(iter(fingerprints.values()))}")
    if args.append:
        meta = {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
        }
        if args.label is not None:
            meta["label"] = args.label
        append_run(BENCH_JSON, "serving_overhead", rows, meta)
        print(f"appended the run to {BENCH_JSON}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
