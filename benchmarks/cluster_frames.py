"""The supervisor's frame path, in process: what one routed request costs
the supervisor around the worker's decision.

A :class:`~repro.cluster.ClusterSupervisor` runs in deterministic mode
(``start(monitor=False)``) over a real ``multiprocessing.Pipe`` per
fake worker, no spawn: this process plays every worker end, so the
numbers hold the supervisor's own work (submit, routing, the frame
write, the poll, the frame read, the ledger entry, the future) and the
pipe's system calls, and no serving at all.  One round trip is timed in
two legs:

* *request leg* — ``submit`` until the fake worker's ``recv`` returns
  the request;
* *response leg* — the fake worker's ``send`` of the response until
  ``pump`` has resolved the future.

Requests go one at a time, round-robin over six template names, so both
workers own some.  Each round is one pass over ``--requests`` round
trips; the script prints, per round and as a median [Q1, Q3] over the
rounds, round trips per second (wall), supervisor CPU µs per round trip
(``thread_time`` around ``submit`` and ``pump`` only, so the fake
worker's own unpickle and pickle are left out) and each leg's median µs.
It asserts nothing beyond every future resolving with its own response.

``--append`` adds the run to ``BENCH_cluster_frames.json`` (the v2
trajectory envelope); ``check_trajectory.py`` gates its
``round_trips_per_s`` against the newest earlier run on the same host.
``--label`` tags the run (e.g. the commit it measured).

Usage::

    PYTHONPATH=src python benchmarks/cluster_frames.py
    PYTHONPATH=src python benchmarks/cluster_frames.py --append --label abc123
    PYTHONPATH=src python benchmarks/cluster_frames.py --requests 500 --rounds 2  # smoke
"""

from __future__ import annotations

import argparse
import gc
import multiprocessing
import os
import platform
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median, quantiles

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [
    p for p in (os.path.join(HERE, "..", "src"), HERE) if p not in sys.path
]

from check_trajectory import append_run  # noqa: E402

from repro.cluster import ClusterSupervisor  # noqa: E402
from repro.cluster.transport import Ready, Response  # noqa: E402

BENCH_JSON = Path(HERE).parent / "BENCH_cluster_frames.json"
TEMPLATES = tuple(f"t{i}" for i in range(6))
SV = (0.125, 0.5, 0.875)


@dataclass(frozen=True)
class FakeTemplate:
    """The supervisor reads only ``.name``."""

    name: str


class _Process:
    """A worker process that never exits (no liveness pass runs)."""

    def is_alive(self) -> bool:
        return True

    def terminate(self) -> None:
        pass

    def join(self, timeout=None) -> None:
        pass


class PipeLauncher:
    """A real pipe per worker, no spawn; keeps each worker's end."""

    def __init__(self) -> None:
        self.ends: dict = {}

    def launch(self, spec):
        conn, self.ends[spec.worker_id] = multiprocessing.Pipe()
        return conn, _Process()


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(Q1, median, Q3)``; one value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def boot() -> ClusterSupervisor:
    supervisor = ClusterSupervisor(
        [FakeTemplate(name) for name in TEMPLATES], num_workers=2,
        snapshot_dir="unused", launcher=PipeLauncher(),
    )
    supervisor.start(monitor=False)
    for wid, handle in supervisor.workers.items():
        supervisor.launcher.ends[wid].send(
            Ready(worker_id=wid, incarnation=handle.incarnation)
        )
    while supervisor.pump():
        pass
    return supervisor


def one_round(supervisor: ClusterSupervisor, requests: int) -> dict:
    owner = {
        name: supervisor.launcher.ends[supervisor.ring.owner(name)]
        for name in TEMPLATES
    }
    submit, pump = supervisor.submit, supervisor.pump
    perf, cpu = time.perf_counter, time.thread_time
    request_leg, response_leg = [], []
    supervisor_cpu = 0.0
    gc.collect()
    start = perf()
    for i in range(requests):
        name = TEMPLATES[i % len(TEMPLATES)]
        end = owner[name]
        t0, c0 = perf(), cpu()
        fut = submit(name, SV, i)
        c1 = cpu()
        request = end.recv()
        t1 = perf()
        response = Response(
            request_id=request.request_id, worker_id="w", incarnation=0,
            template_name=name, ok=True, sequence_id=request.sequence_id,
            check="selectivity", plan_signature="HJ(t,u)", certified=True,
            certificate="exact", certified_bound=1.2, recost_calls=1,
        )
        t2 = perf()
        end.send(response)
        c2 = cpu()
        pump()
        c3 = cpu()
        t3 = perf()
        if fut.result(timeout=0).request_id != request.request_id:
            raise RuntimeError("a future resolved with another response")
        supervisor_cpu += (c1 - c0) + (c3 - c2)
        request_leg.append(t1 - t0)
        response_leg.append(t3 - t2)
    wall = perf() - start
    return {
        "round_trips_per_s": requests / wall,
        "supervisor_cpu_us": 1e6 * supervisor_cpu / requests,
        "request_leg_us": 1e6 * median(request_leg),
        "response_leg_us": 1e6 * median(response_leg),
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--requests", type=int, default=5000,
                        help="round trips a round")
    parser.add_argument("--rounds", type=int, default=7)
    parser.add_argument("--append", action="store_true",
                        help=f"append the run to {BENCH_JSON.name}")
    parser.add_argument("--label", default=None,
                        help="tag stored in the appended run's meta")
    args = parser.parse_args(argv)

    supervisor = boot()
    try:
        one_round(supervisor, min(args.requests, 500))  # warm-up
        rounds = []
        for k in range(1, args.rounds + 1):
            rounds.append(one_round(supervisor, args.requests))
            print(f"round {k}: " + ", ".join(
                f"{key} {value:.1f}" for key, value in rounds[-1].items()
            ))
        report = supervisor.cluster_report()
    finally:
        supervisor.close(timeout=0)
    resolved = args.requests * args.rounds + min(args.requests, 500)
    if report["resolved"] != resolved or report["in_flight"]:
        raise RuntimeError(f"ledger holds {report['resolved']} of {resolved}")

    print(f"\n2 fake workers, {args.requests} round trips a round, "
          f"{args.rounds} rounds: median [Q1, Q3]")
    row = {
        "workers": 2, "requests": args.requests, "rounds": args.rounds,
    }
    for key in rounds[0]:
        q1, mid, q3 = quartiles([r[key] for r in rounds])
        print(f"{key:20} {mid:10.1f} [{q1:.1f}, {q3:.1f}]")
        row[key] = round(mid, 2)
        row[f"{key}_q1"] = round(q1, 2)
        row[f"{key}_q3"] = round(q3, 2)
    if args.append:
        meta = {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
        }
        if args.label is not None:
            meta["label"] = args.label
        append_run(BENCH_JSON, "cluster_frames", [row], meta)
        print(f"appended the run to {BENCH_JSON}")


if __name__ == "__main__":
    main()
