"""One guard table: the names and shapes the codebase has removed stay out.

Each row of :data:`GUARDS` is ``(pattern, paths, reason)``: a regular
expression that must match nowhere in the files under ``paths``, and
the design decision that removed what it matches.  A match is printed
as ``path:line: text`` under its reason, and the script exits 1 if any
row matched.  Run it from the repository root::

    python tools/check_guards.py

Patterns are Python regular expressions, matched a line at a time.  A
row may narrow or widen that:

* ``include`` — a file-name glob (``"*.py"``) the scanned files must
  match;
* ``whole_file`` — match against each file's whole text, so a pattern
  can span lines (the first line of a match is reported);
* a path starting with ``!`` is left out of the scan.

``__pycache__`` directories and files that are not UTF-8 text are
skipped.
"""

from __future__ import annotations

import fnmatch
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Guard:
    pattern: str
    paths: tuple[str, ...]
    reason: str
    include: Optional[str] = None
    whole_file: bool = False


ONE_GETPLAN = (
    "One getPlan: no implementation switch, second scan, full-sort window "
    "walk, entry-major candidate select or passed-in chunk budget"
)
ONE_RECORDER = "One recorder: no TraceLog, no shadow counters in ServingStats"
ONE_TRANSPORT = (
    "One transport: one duplex pipe per worker, no multiprocessing queues "
    "in the cluster tier"
)
ONE_PIPELINE = (
    "One pipeline: serving and cluster apply a request only through SCR.apply"
)
ONE_MANAGER = (
    "One manager: ConcurrentPQOManager is the only manager; its shard "
    "holds the per-template state"
)
ONE_SNAPSHOT_READER = (
    "One snapshot reader: derived views read registry snapshots through "
    "group_sum and bucket_quantile; heartbeats carry registry facts once"
)
ONE_DOCTOR = (
    "One doctor: doctor_from_sources is the only report builder; no shared "
    "degraded-sVector flag"
)
ONE_ENGINE_PROTOCOL = (
    "One engine protocol: every engine facade subclasses EngineWrapper and "
    "overrides only the _ex sVector forms; no per-API deadlines, latency "
    "spikes or optimizer token bucket"
)
ONE_CACHE_VIEW = (
    "One cache view: probes take the view the last mutation published from "
    "the one column store; no instance-list snapshot tuple, no entries= "
    "probe path, no transient views, no view built or extended outside the "
    "store"
)
ONE_RECOST = (
    "One Recost: one compiled function per (plan, cost model); no "
    "operator_cost dispatch, no interpreted walk, no program interpreter, "
    "and exec( only in recost.py's _compile (compile( nowhere)"
)
ONE_SERVING_PATH = (
    "One serving path: a request is a group of one; one serving loop, one "
    "pool task, one request-span shape"
)
ONE_PROBE_LOOP = (
    "One probe loop: GetPlan.probe_rows decides every shard row, retries "
    "and single-flight re-probes included; no per-probe phase spans"
)
ONE_DISPATCH = (
    "One dispatch: a batch is one lane of at most max_workers pool tasks "
    "and one unit per template, overload policy or not; _run is the only "
    "pool task"
)
ONE_SERVING_LOOP = (
    "One serving loop: TemplateShard._serve_rows decides every row of "
    "every group; no group-of-one, no-coordinator or no-deadline fast "
    "path beside it"
)
EVERY_NAME_HAS_A_CALLER = (
    "Every name has a caller: no test-only entry points, span context "
    "manager, advisor eviction or never-set settings"
)
ONE_INSTANCE_LIST = (
    "One instance list: the column store is the only copy of it; no "
    "InstanceEntry object column, no in-place edit of a record followed "
    "by a view rebuild"
)
BOUNDED_SEARCH = (
    "Bounded search: every engine layer's optimize passes the incumbent "
    "plan on, and only the raw optimizer's own Recost of it caps the "
    "search; no engine-level recost_memo cost reaches an optimize call"
)
ONE_FEED_SITE = (
    "One feed site: a served group's certified bounds, calibration samples "
    "and engine-call timings reach the registry only through feed_group "
    "(obs/group.py); exempt: the harness oracle's calibration feed "
    "(harness/oracle.py) and the supervisor's response audit "
    "(cluster/supervisor.py)"
)

ONE_MEMO_BUILD = (
    "One memo build: an optimizer result's ShrunkenMemo is built where it "
    "is first read, OptimizationResult.shrunken_memo; no other shrink( call "
    "in src/, so a miss that keeps no new plan builds none"
)

GUARDS: tuple[Guard, ...] = (
    Guard(
        r"check_impl|CHECK_IMPLS|HAVE_NUMPY|spatial_index|IndexedGetPlan"
        r"|InstanceGridIndex|_live_prefix|_cheapest_rows|chunk_rows\([^)]*budget",
        ("src/",), ONE_GETPLAN,
    ),
    Guard(
        r"TraceLog|TraceEventKind|engine\.tracing|write_trace_jsonl",
        ("src/", "examples/", "benchmarks/"), ONE_RECORDER,
    ),
    Guard(r"attach_obs|latencies_s", ("src/repro/serving/stats.py",), ONE_RECORDER),
    Guard(r"Queue\(|make_response_queue", ("src/repro/cluster/",), ONE_TRANSPORT),
    Guard(
        r"scr\._(choose|hit_choice|miss_choice|register_optimized"
        r"|fallback_choice|overload_choice)|get_plan\.commit",
        ("src/repro/serving/", "src/repro/cluster/"), ONE_PIPELINE,
    ),
    Guard(
        r"(^|[^A-Za-z])PQOManager\b|TemplateState|core\.manager|scr_factory"
        r"|flight_timeout_seconds",
        ("src/", "tests/", "examples/", "benchmarks/"), ONE_MANAGER,
    ),
    Guard(
        r"_quantile_from_cumulative|_merge_snapshot_into|_aggregate_quantiles"
        r"|_outcome_history|_violation_history|outcome_totals\(\)",
        ("src/repro/cluster/",), ONE_SNAPSHOT_READER,
    ),
    Guard(
        r"_quantile_from_cumulative|_merge_snapshot_into|_aggregate_quantiles",
        ("src/",), ONE_SNAPSHOT_READER,
    ),
    Guard(
        r"template_health|anchor_report|last_selectivity_degraded",
        ("src/",), ONE_DOCTOR,
    ),
    Guard(r"(?<!\w)_inner(?!\w)", ("src/repro/",), ONE_ENGINE_PROTOCOL),
    Guard(
        r"def (__getattr__|selectivity_vector|selectivity_vector_with_error)\(",
        ("src/repro/engine/", "src/repro/serving/", "!src/repro/engine/api.py"),
        ONE_ENGINE_PROTOCOL,
    ),
    Guard(
        r"optimize_deadline|recost_deadline|selectivity_deadline|latency_rate"
        r"|tokens_per_second",
        ("src/",), ONE_ENGINE_PROTOCOL,
    ),
    Guard(
        r"class CacheSnapshot|def snapshot\(",
        ("src/repro/core/plan_cache.py",), ONE_CACHE_VIEW,
    ),
    Guard(
        r"probe(_batch)?\((?:[^()]|\([^()]*\))*\bentries=",
        ("src/",), ONE_CACHE_VIEW, whole_file=True,
    ),
    Guard(r"_columnar_view", ("src/",), ONE_CACHE_VIEW),
    Guard(
        r"ColumnarInstances\.build\(|def extended\(|_carry_plans|def _rows\("
        r"|tuple\(self\._instances\)",
        ("src/",), ONE_CACHE_VIEW,
    ),
    Guard(r"memory_bytes|SnapshotStore.serialize", ("src/",), ONE_CACHE_VIEW),
    Guard(r"operator_cost|recost_walk", ("src/",), ONE_RECOST),
    Guard(r"def (_run|_bind)\(", ("src/repro/optimizer/",), ONE_RECOST),
    # The builtins, not a method such as re.compile(.
    Guard(r"(?<![\w.])compile\(", ("src/",), ONE_RECOST),
    Guard(
        r"(?<![\w.])exec\(", ("src/", "!src/repro/optimizer/recost.py"),
        ONE_RECOST,
    ),
    # In recost.py: a second exec(, or one before or after _compile.
    Guard(
        r"(?<![\w.])exec\((?s:.*)(?<![\w.])exec\("
        r"|(?<![\w.])exec\((?=(?s:.*)^def _compile\()"
        r"|^def _compile\((?:(?!^\S)(?s:.))*^\S(?s:.)*(?<![\w.])exec\(",
        ("src/repro/optimizer/recost.py",), ONE_RECOST, whole_file=True,
    ),
    Guard(
        r"_process_inner|_choice_attrs|_process_batch_fast|_run_batch"
        r'|"serving\.process"',
        ("src/",), ONE_SERVING_PATH,
    ),
    Guard(
        r"def (_serve|_retry|_serve_admitted|_serve_in_order)\(",
        ("src/repro/serving/shard.py",), ONE_PROBE_LOOP,
    ),
    Guard(
        r'"scr\.(selectivity|cost)_check"', ("src/",), ONE_PROBE_LOOP,
        include="*.py",
    ),
    Guard(
        r"get_plan\.probe\(", ("src/repro/serving/",), ONE_PROBE_LOOP,
        include="*.py",
    ),
    # At most one pool hand-off: a second _executor.submit( anywhere
    # after the first.
    Guard(
        r"_executor\.submit\((?s:.*)_executor\.submit\(",
        ("src/repro/serving/manager.py",), ONE_DISPATCH, whole_file=True,
    ),
    Guard(
        r"def _run_[A-Za-z0-9_]", ("src/repro/serving/manager.py",),
        ONE_DISPATCH,
    ),
    # Admission is per row, the unit a template group: no round-robin
    # units of one row.
    Guard(
        r"zip_longest|every group is one row",
        ("src/repro/serving/manager.py", "src/repro/serving/shard.py"),
        ONE_DISPATCH,
    ),
    # A second call site of probe_rows (every row loop probes through
    # it), a branch on a group of one or a fast-path method is a second
    # per-row loop.
    Guard(
        r"probe_rows\((?s:.*)probe_rows\(",
        ("src/repro/serving/shard.py",), ONE_SERVING_LOOP, whole_file=True,
    ),
    Guard(
        r"len\((instances|fetched|svs|seqs|at)\)\s*[=<]=\s*1\b"
        r"|def _serve_(one|single|fast|plain|uncoordinated|simple)\w*\(",
        ("src/repro/serving/shard.py",), ONE_SERVING_LOOP,
    ),
    Guard(
        r"\bdef (submit_batch|obs_report|span)\(|\b(efficacy_advisor"
        r"|anorexic_reduction|RecostRegion|template_to_sql"
        r"|table_filter_selectivity)\b",
        ("src/",), EVERY_NAME_HAS_A_CALLER, include="*.py",
    ),
    Guard(
        r"\b(queue_high|queue_low|deadline_miss_high|deadline_miss_low"
        r"|brownout_coverage|eviction_seed|bound_buckets|span_capacity"
        r"|max_spans_per_trace|inflate_factor)\b\s*[:=]",
        ("src/",), EVERY_NAME_HAS_A_CALLER, include="*.py",
    ),
    Guard(
        r"\btarget_coverage\b", ("src/repro/serving/",),
        EVERY_NAME_HAS_A_CALLER, include="*.py",
    ),
    # deadline within a def process/submit line or the three lines
    # after it.
    Guard(
        r"def (process|submit)\([^\n]*(?:\n[^\n]*){0,3}?(?<!\w)deadline(?!\w)",
        ("src/repro/serving/manager.py",), EVERY_NAME_HAS_A_CALLER,
        whole_file=True,
    ),
    Guard(r"\brefresh_cost\b|\binvalidate_views\b", ("src/",), ONE_INSTANCE_LIST),
    Guard(r"\.entries\b", ("src/",), ONE_INSTANCE_LIST, include="*.py"),
    Guard(
        r"^\s*entries\s*[:=]|\bentries=", ("src/repro/core/columnar.py",),
        ONE_INSTANCE_LIST,
    ),
    Guard(
        r"(?<!def )\b(record_ratio|record_sv|certified_bound)\("
        r"|call_seconds\[[^\]]*\]\.observe\(",
        ("src/repro/", "!src/repro/obs/group.py", "!src/repro/harness/oracle.py",
         "!src/repro/cluster/supervisor.py"),
        ONE_FEED_SITE, include="*.py",
    ),
    Guard(
        r"def optimize\(\s*self,\s*sv\b(?![^)]*\bincumbent\b)",
        ("src/repro/", "!src/repro/optimizer/search.py"), BOUNDED_SEARCH,
        whole_file=True,
    ),
    # recost_memo anywhere inside an optimize( call's parentheses, up
    # to two nested calls deep.
    Guard(
        r"optimize\((?:[^()]|\((?:[^()]|\([^()]*\))*\))*"
        r"(?:\((?:[^()]|\([^()]*\))*(?:\([^()]*)?)?\brecost_memo\b",
        ("src/",), BOUNDED_SEARCH, whole_file=True,
    ),
    Guard(
        r"(?<![\w.])(?<!def )shrink\(",
        ("src/", "!src/repro/optimizer/optimizer.py"),
        ONE_MEMO_BUILD, include="*.py",
    ),
    # In optimizer.py: a call in any function but the shrunken_memo
    # property (the first match line is that function's def).
    Guard(
        r"^[ \t]*def (?!shrunken_memo\()\w+\((?:(?!^[ \t]*def )(?s:.))*?(?<![\w.])shrink\(",
        ("src/repro/optimizer/optimizer.py",), ONE_MEMO_BUILD, whole_file=True,
    ),
)


def _files(guard: Guard) -> Iterator[Path]:
    excluded = {ROOT / p[1:] for p in guard.paths if p.startswith("!")}
    for entry in guard.paths:
        if entry.startswith("!"):
            continue
        base = ROOT / entry
        candidates = sorted(base.rglob("*")) if base.is_dir() else [base]
        for path in candidates:
            if (
                path.is_file()
                and path not in excluded
                and "__pycache__" not in path.parts
                and (guard.include is None
                     or fnmatch.fnmatch(path.name, guard.include))
            ):
                yield path


def violations(guard: Guard) -> list[str]:
    """``path:line: text`` of every match of ``guard``."""
    regex = re.compile(guard.pattern, re.MULTILINE)
    found = []
    for path in _files(guard):
        try:
            text = path.read_text(encoding="utf-8")
        except (UnicodeDecodeError, OSError):
            continue
        lines = text.splitlines()
        name = path.relative_to(ROOT).as_posix()
        if guard.whole_file:
            for match in regex.finditer(text):
                number = text.count("\n", 0, match.start()) + 1
                found.append(f"{name}:{number}: {lines[number - 1].strip()}")
            continue
        for number, line in enumerate(lines, 1):
            if regex.search(line):
                found.append(f"{name}:{number}: {line.strip()}")
    return found


def main() -> int:
    failed = 0
    for guard in GUARDS:
        hits = violations(guard)
        if hits:
            failed += 1
            print(f"{guard.reason}\n  pattern: {guard.pattern}")
            for hit in hits:
                print(f"  {hit}")
    print(f"{len(GUARDS)} guards, {failed} matched")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
