"""Validator for the checked-in ``BENCH_*.json`` perf trajectories.

The trajectory files are part of the repo contract: every run appended
by the benchmark suites must carry the v2 envelope (schema_version,
benchmark name, per-run metadata header) and the newest run must not
silently regress against the newest earlier run on the same host
(``meta.platform``).  CI runs this after the benchmark step; it exits
non-zero on the first malformed append or on any >20% drop in a gated
throughput/speedup figure that nobody annotated, and prints a note when
the newest run has no earlier run on its host to compare with.

Usage::

    python benchmarks/check_trajectory.py [BENCH_file.json ...]

With no arguments, validates every ``BENCH_*.json`` at the repo root.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from typing import Optional

SCHEMA_VERSION = 2

#: A run may carry measurements under exactly one of these keys.
RUN_PAYLOAD_KEYS = ("results", "summary")

#: A run stamped at the Unix epoch carries a migration placeholder, not
#: the date it was recorded; the run's real date must be backfilled.
EPOCH_ZERO = "1970-01-01"

#: Regression tolerance: the newest run may lose at most this fraction
#: of the previous run's figure before the check fails.  Perf noise on
#: shared CI runners stays well inside 20%; a real regression does not.
MAX_SILENT_REGRESSION = 0.20

#: Per-benchmark figures watched for silent regressions.  Each entry:
#: (row-key fields identifying a series, the metric, higher-is-better).
REGRESSION_WATCH = {
    "getplan_hotpath": (("m", "d"), "speedup"),
    "getplan_costcheck": (("m",), "speedup"),
    "recost": (("template",), "speedup"),
    "search": (("template",), "speedup"),
    "obs_gap": (("workload",), "off_over_on"),
    "serving_overhead": (("workload", "obs"), "scr_over_one"),
    "cluster_frames": (("workers",), "round_trips_per_s"),
}

#: Runs kept per checked-in trajectory file.
MAX_TRAJECTORY_RUNS = 20


def _is_timestamp(value) -> bool:
    return (
        isinstance(value, str)
        and len(value) >= 19
        and value[4] == "-"
        and value[10] == "T"
    )


def validate_document(doc, path: str) -> list[str]:
    """Structural validation of one trajectory document (v2 envelope)."""
    errors: list[str] = []

    def err(msg: str) -> None:
        errors.append(f"{path}: {msg}")

    if not isinstance(doc, dict):
        err("document is not a JSON object")
        return errors
    if doc.get("schema_version") != SCHEMA_VERSION:
        err(
            f"schema_version is {doc.get('schema_version')!r}, "
            f"expected {SCHEMA_VERSION}"
        )
        return errors
    if not isinstance(doc.get("benchmark"), str) or not doc["benchmark"]:
        err("missing benchmark name")
    runs = doc.get("runs")
    if not isinstance(runs, list) or not runs:
        err("runs must be a non-empty list")
        return errors
    previous_ts = ""
    for i, run in enumerate(runs):
        where = f"runs[{i}]"
        if not isinstance(run, dict):
            err(f"{where} is not an object")
            continue
        if not _is_timestamp(run.get("timestamp")):
            err(f"{where}.timestamp is not an ISO-8601 string")
        elif run["timestamp"].startswith(EPOCH_ZERO):
            err(f"{where}.timestamp is epoch zero, a placeholder, not a date")
        elif run["timestamp"] < previous_ts:
            err(f"{where}.timestamp goes backwards")
        else:
            previous_ts = run["timestamp"]
        meta = run.get("meta")
        if not isinstance(meta, dict):
            err(f"{where}.meta header is missing")
        payloads = [k for k in RUN_PAYLOAD_KEYS if k in run]
        if len(payloads) != 1:
            err(
                f"{where} must carry exactly one of {RUN_PAYLOAD_KEYS}, "
                f"found {payloads or 'none'}"
            )
        extra = set(run) - {"timestamp", "meta", *RUN_PAYLOAD_KEYS}
        if extra:
            err(f"{where} has unexpected fields {sorted(extra)}")
    return errors


def check_regressions(
    doc, path: str, notes: Optional[list[str]] = None
) -> list[str]:
    """Newest run vs the newest earlier run on the same host, on the
    watched figures.

    Only that one pair is compared: a slow decay across many runs is the
    gate tests' job; this catches the single silent >20% cliff that a
    gate set below current performance would wave through.  Hosts are
    told apart by ``meta.platform``: a kernel ratio moves by more than
    the budget between host types with no code change, so a run is
    never gated against another host's.  When the newest run has no
    earlier run on its host, a line saying so goes to ``notes`` (when
    given) and nothing fails.
    """
    watch = REGRESSION_WATCH.get(doc.get("benchmark"))
    runs = doc.get("runs") or []
    if watch is None or len(runs) < 2:
        return []
    key_fields, metric = watch
    errors: list[str] = []

    def series(run) -> dict[tuple, float]:
        out = {}
        for row in run.get("results", ()):  # summaries are not gated
            if metric in row:
                key = tuple(row.get(f) for f in key_fields)
                out[key] = float(row[metric])
        return out

    def host(run) -> Optional[str]:
        meta = run.get("meta")
        return meta.get("platform") if isinstance(meta, dict) else None

    newest = host(runs[-1])
    earlier = [r for r in runs[:-1] if newest is not None and host(r) == newest]
    if not earlier:
        if notes is not None:
            notes.append(
                f"{path}: newest run's host {newest!r} has no earlier run; "
                "not compared"
            )
        return []
    previous, latest = series(earlier[-1]), series(runs[-1])
    for key, before in sorted(previous.items()):
        after = latest.get(key)
        if after is None or before <= 0:
            continue
        drop = (before - after) / before
        if drop > MAX_SILENT_REGRESSION:
            label = ", ".join(
                f"{f}={v}" for f, v in zip(key_fields, key)
            )
            errors.append(
                f"{path}: {metric} at ({label}) dropped "
                f"{drop:.0%} ({before} -> {after}) — over the "
                f"{MAX_SILENT_REGRESSION:.0%} silent-regression budget"
            )
    return errors


def append_run(
    path: Path, benchmark: str, results: list, meta: dict, migrate=None
) -> None:
    """Append one run to the v2 trajectory at ``path``, keeping the
    newest ``MAX_TRAJECTORY_RUNS``.

    A file in another format is handed to ``migrate``, which returns it
    lifted into the v2 envelope or ``None`` to start a fresh one.
    """
    doc = {"schema_version": SCHEMA_VERSION, "benchmark": benchmark, "runs": []}
    if path.exists():
        loaded = json.loads(path.read_text(encoding="utf-8"))
        if loaded.get("schema_version") == SCHEMA_VERSION:
            doc = loaded
        elif migrate is not None:
            doc = migrate(loaded) or doc
    doc["runs"].append(
        {
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "meta": meta,
            "results": results,
        }
    )
    doc["runs"] = doc["runs"][-MAX_TRAJECTORY_RUNS:]
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def check_file(path: Path, notes: Optional[list[str]] = None) -> list[str]:
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        return [f"{path}: unreadable ({exc})"]
    errors = validate_document(doc, str(path))
    if not errors:
        errors = check_regressions(doc, str(path), notes)
    return errors


def main(argv: list[str]) -> int:
    if argv:
        paths = [Path(a) for a in argv]
    else:
        paths = sorted(Path(__file__).parents[1].glob("BENCH_*.json"))
    if not paths:
        print("check_trajectory: no BENCH_*.json files found")
        return 1
    failures = []
    notes: list[str] = []
    for path in paths:
        errors = check_file(path, notes)
        if errors:
            failures.extend(errors)
        else:
            doc = json.loads(path.read_text(encoding="utf-8"))
            print(
                f"ok: {path} ({doc['benchmark']}, "
                f"{len(doc['runs'])} run(s))"
            )
    for note in notes:
        print(f"note: {note}")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
