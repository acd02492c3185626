"""End-to-end request-latency benchmark: one command per workload.

    python3 benchmarks/e2e/run.py --workload scr_hit --seed 1 --seconds 15 --trace 0
    python3 benchmarks/e2e/run.py --workload scr_hit --seed 1 --trace 1
    python3 benchmarks/e2e/run.py --selfcheck

The run builds the workload from ``--seed``, drives it, checks the outputs
are correct and prints, as the last line of stdout, one JSON object
``{"correct", "attempted", "failed", "metrics"}`` — every end-to-end
metric with ``--trace 0``, every per-layer metric with ``--trace 1``.  The
line before it is a ``detail`` JSON object (noise hygiene, pass wall
times, fingerprint, audit).  See README.md.

The workload itself runs in a child interpreter; this process only waits
for it and then for every process the child left behind, so that nothing
the benchmark started is alive when the command returns.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
#: Snapshot directories and span files; inside the checkout, git-ignored.
OUT_DIR = os.path.join(ROOT, ".bench_e2e")
WORKLOAD_NAMES = ("scr_hit", "scr_miss", "serve_batch_obs", "cluster_2w")
#: Set in the environment of the interpreter that runs the workload.
INNER = "E2E_BENCH_INNER"
PR_SET_CHILD_SUBREAPER = 36
#: How long orphans get to end by themselves before they are killed.
ORPHAN_GRACE_S = 5.0


def parse():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1,
                        help="the only knob that changes the generated inputs")
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="measured time; buys passes of ~3 s, at least 3")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="1: the traced, per-layer run")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplies request counts (smoke runs)")
    parser.add_argument("--selfcheck", action="store_true",
                        help="A/A: run every workload twice, compare to bounds")
    args = parser.parse_args()
    if not args.selfcheck and args.workload is None:
        parser.error("--workload is required (or --selfcheck)")
    return args


def child_env() -> dict:
    env = dict(os.environ)
    env[INNER] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = SRC + os.pathsep + HERE + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def _children() -> list[int]:
    """Pids whose parent is this process, read from /proc."""
    me, pids = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except OSError:
            continue  # ended while we were looking
        if ppid == me:
            pids.append(int(entry))
    return pids


def _reap_orphans(grace_s: float) -> None:
    """Wait until this process has no child left, killing the ones that
    outstay ``grace_s``."""
    deadline = time.monotonic() + grace_s
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > deadline:
            for orphan in _children():
                try:
                    os.kill(orphan, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.002)


def supervise() -> int:
    """Run the workload in a fresh interpreter (fixed hash seed, the source
    tree on the path, which the spawned cluster workers inherit) and return
    only when every process that interpreter started has ended.

    ``multiprocessing``'s spawn context starts a resource-tracker process
    that ends a moment *after* its parent; with this process as the child
    subreaper, that one and anything else the workload orphans (a worker
    that missed its join, say) is re-parented here and waited for.
    """
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")

    def interrupted(signum, frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, interrupted)
    child = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__)] + sys.argv[1:],
        env=child_env(),
    )
    grace_s = 0.0  # on the way out of an interrupted run, kill at once
    try:
        code = child.wait()
        grace_s = ORPHAN_GRACE_S
        return code
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        _reap_orphans(grace_s)


def run_workload(args) -> int:
    sys.path[:0] = [p for p in (SRC, HERE) if p not in sys.path]
    import measure

    os.makedirs(OUT_DIR, exist_ok=True)
    if args.trace:
        result, detail = measure.run_traced(
            args.workload, args.seed, args.scale, OUT_DIR
        )
    else:
        result, detail = measure.run_end_to_end(
            args.workload, args.seed, args.seconds, args.scale, OUT_DIR
        )
    for key, metric in result["metrics"].items():
        print(f"{key:40s} {metric['value']:14.4f} {metric['unit']}")
    for problem in detail["problems"]:
        print(f"INCORRECT: {problem}", file=sys.stderr)
    print("detail " + json.dumps(detail))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# -- A/A self-check -----------------------------------------------------------------


def run_child(workload: str, seed: int, seconds: float, scale: float) -> dict:
    """One end-to-end run in a fresh subprocess; its result line."""
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--scale", str(scale),
         "--trace", "0"],
        stdout=subprocess.PIPE, text=True,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} run failed (exit {done.returncode})")
    return json.loads(done.stdout.strip().splitlines()[-1])


def worsening(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a`` (<0: better)."""
    return (b - a) / a if better == "lower" else (a - b) / a


def selfcheck(args) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    breaches = 0
    print(f"{'workload':16s} {'metric':22s} {'A':>12s} {'B':>12s} "
          f"{'|dev|':>8s} {'bound':>7s}")
    for workload in (w["name"] for w in manifest["workloads"]):
        a, b = (
            run_child(workload, args.seed, args.seconds, args.scale)
            for _ in range(2)
        )
        for metric in manifest["end_to_end"]:
            name = metric["name"]
            va = a["metrics"][name]["value"]
            vb = b["metrics"][name]["value"]
            # Either run may play the parent: the gate is symmetric.
            dev = max(worsening(va, vb, metric["better"]),
                      worsening(vb, va, metric["better"]))
            breach = dev > metric["bound"] or not (a["correct"] and b["correct"])
            breaches += breach
            print(f"{workload:16s} {name:22s} {va:12.4f} {vb:12.4f} "
                  f"{100 * dev:7.2f}% {100 * metric['bound']:6.1f}%"
                  + ("  BREACH" if breach else ""))
    print("selfcheck:", "FAILED" if breaches else "ok")
    return 1 if breaches else 0


def main() -> int:
    args = parse()
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program to measure under {SRC}", file=sys.stderr)
        return 2
    if args.selfcheck:
        return selfcheck(args)
    return run_workload(args) if os.environ.get(INNER) else supervise()


if __name__ == "__main__":
    sys.exit(main())
