"""The everything-on observability gap on ``serve_batch_obs``.

Runs alternating passes of the end-to-end benchmark's
``workloads.ServeBatchObs`` with observability on (spans, audit,
calibration, SLO) and off, pinned to one vCPU as the benchmark runs
them, and prints each side's pass wall and CPU time as a median with
Q1/Q3, the on/off gap as a share of the off median, and the median
[Q1, Q3] of the per-pair on/off ratios, which cancels machine-speed
drift between pairs.  Pair ``k`` runs the obs-off pass first when
``k`` is odd.  It asserts nothing.

``--append`` adds the run to ``BENCH_obs_gap.json`` (the v2 trajectory
envelope): per side the wall and CPU medians with Q1/Q3, the paired
wall gap with Q1/Q3, and ``off_over_on`` — the median per-pair off/on
wall ratio, higher is better (1.0: observability costs nothing) — which
``check_trajectory.py`` gates against the newest earlier run on the
same host.  ``--label`` tags the run (e.g. the commit it measured).

Usage::

    PYTHONPATH=src python benchmarks/obs_gap.py --pairs 10 --seed 1
    PYTHONPATH=src python benchmarks/obs_gap.py --pairs 10 --append --label abc123
    PYTHONPATH=src python benchmarks/obs_gap.py --scale 0.1 --pairs 2  # smoke
"""

from __future__ import annotations

import argparse
import os
import platform
import sys
import tempfile
from pathlib import Path
from statistics import quantiles

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [
    p for p in (os.path.join(HERE, "..", "src"), os.path.join(HERE, "e2e"), HERE)
    if p not in sys.path
]

from check_trajectory import append_run  # noqa: E402
from measure import one_pass  # noqa: E402
from workloads import ServeBatchObs  # noqa: E402

BENCH_JSON = Path(HERE).parent / "BENCH_obs_gap.json"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(Q1, median, Q3)``; one value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplies the request count (0.1: smoke)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--append", action="store_true",
                        help=f"append the run to {BENCH_JSON.name}")
    parser.add_argument("--label", default=None,
                        help="tag stored in the appended run's meta")
    args = parser.parse_args(argv)

    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    with tempfile.TemporaryDirectory() as out_dir:
        sides = {
            "on": ServeBatchObs(args.seed, args.scale, out_dir, obs_on=True),
            "off": ServeBatchObs(args.seed, args.scale, out_dir, obs_on=False),
        }
        for wl in sides.values():
            one_pass(wl)  # warm-up: imports, caches, lazy set-up
        wall = {side: [] for side in sides}
        cpu = {side: [] for side in sides}
        for k in range(1, args.pairs + 1):
            order = ("off", "on") if k % 2 else ("on", "off")
            for side in order:
                drive = one_pass(sides[side])
                wall[side].append(drive.wall_s)
                cpu[side].append(drive.cpu_s)
            print(f"pair {k}: off {wall['off'][-1]:.3f} s, "
                  f"on {wall['on'][-1]:.3f} s")
        requests = sides["on"].requests

    print(f"\nserve_batch_obs seed {args.seed}, {requests} requests a pass, "
          f"{args.pairs} alternating pinned pairs")
    row = {
        "workload": "serve_batch_obs", "seed": args.seed, "scale": args.scale,
        "pairs": args.pairs, "requests": requests,
    }
    for label, key, values in (("pass wall (s)", "wall_s", wall),
                               ("pass CPU (s)", "cpu_s", cpu)):
        on, off = quartiles(values["on"]), quartiles(values["off"])
        paired = quartiles([
            100.0 * (a / b - 1.0) for a, b in zip(values["on"], values["off"])
        ])
        print(f"{label:14} off {off[1]:.3f} [{off[0]:.3f}, {off[2]:.3f}]"
              f"   on {on[1]:.3f} [{on[0]:.3f}, {on[2]:.3f}]"
              f"   gap {100.0 * (on[1] / off[1] - 1.0):+.1f} % of off"
              f"   paired gap {paired[1]:+.1f} % "
              f"[{paired[0]:+.1f}, {paired[2]:+.1f}]")
        for side, (q1, median, q3) in (("off", off), ("on", on)):
            row[f"{side}_{key}"] = round(median, 4)
            row[f"{side}_{key}_q1"] = round(q1, 4)
            row[f"{side}_{key}_q3"] = round(q3, 4)
        prefix = "paired_gap_pct" if key == "wall_s" else "paired_cpu_gap_pct"
        row[prefix] = round(paired[1], 2)
        row[f"{prefix}_q1"] = round(paired[0], 2)
        row[f"{prefix}_q3"] = round(paired[2], 2)
    row["off_over_on"] = round(quartiles([
        b / a for a, b in zip(wall["on"], wall["off"])
    ])[1], 4)
    print(f"off_over_on {row['off_over_on']:.4f}")
    if args.append:
        meta = {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
        }
        if args.label is not None:
            meta["label"] = args.label
        append_run(BENCH_JSON, "obs_gap", [row], meta)
        print(f"appended the run to {BENCH_JSON}")


if __name__ == "__main__":
    main()
