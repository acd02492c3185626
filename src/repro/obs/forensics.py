"""Guarantee forensics: reconstruct and explain one request's span tree.

The tracing layer answers *what happened*; this module answers *why the
guarantee came out the way it did*.  Given the spans of one trace —
straight from a :class:`~repro.obs.spans.SpanRecorder`, or re-read from
a spans JSONL file — it rebuilds the causal tree (supervisor dispatch
attempts, worker serving, SCR checks, engine calls) and renders either
an ASCII tree or a human-readable explanation of the certificate
outcome: which anchors were scanned, whether the G·L/cost check held,
what λ-bound and coverage were certified, and which degradation
(brownout, shed, worker death) intervened.

Everything here is read-only over recorded spans, so it works the same
for a live in-process manager, the cluster supervisor's re-ingested
cross-process trees, and an offline ``spans.jsonl``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Optional, TextIO, Union

from .spans import EVENT_NAMES, Span

#: Span names with request-level meaning (anything else renders
#: generically but still participates in the tree).
ROOT_NAMES = ("cluster.request", "serving.process")


@dataclass
class TraceNode:
    """One span plus its causal children (ordered by start, then seq)."""

    span: Span
    children: list = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.span.name


def build_tree(spans: Iterable[Span]) -> list[TraceNode]:
    """Reconstruct the causal forest of one trace's spans.

    Spans whose ``parent_id`` is unknown (the parent was dropped from a
    bounded ring, or died with a worker) become roots — forensics must
    degrade to a forest, never lose spans.  Roots and children are
    ordered by ``(start_s, seq)`` so the render reads chronologically.
    """
    nodes = {}
    ordered = sorted(spans, key=lambda s: (s.start_s, s.seq))
    for span in ordered:
        node = TraceNode(span)
        # Span IDs are unique per trace; a duplicate (the same span
        # ingested twice) keeps the first occurrence.
        nodes.setdefault(span.span_id or f"~anon{span.seq}", node)
    roots: list[TraceNode] = []
    for key, node in nodes.items():
        parent = nodes.get(node.span.parent_id) if node.span.parent_id else None
        if parent is None or parent is node:
            roots.append(node)
        else:
            parent.children.append(node)
    return roots


def _fmt_duration(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds * 1e6:.0f}us"


def _fmt_attrs(attrs: dict) -> str:
    parts = []
    for key in sorted(attrs):
        value = attrs[key]
        if isinstance(value, float):
            value = f"{value:g}"
        parts.append(f"{key}={value}")
    return " ".join(parts)


def render_tree(
    spans: Iterable[Span], include_timing: bool = True
) -> str:
    """ASCII tree of one trace: names, durations, forensic attributes."""
    roots = build_tree(spans)
    lines: list[str] = []

    def describe(node: TraceNode) -> str:
        text = node.name
        if include_timing:
            text += f" [{_fmt_duration(node.span.duration_s)}]"
        attrs = _fmt_attrs(node.span.attrs)
        if attrs:
            text += f"  ({attrs})"
        return text

    def walk(node: TraceNode, prefix: str, tail: bool) -> None:
        lines.append(f"{prefix}{'`- ' if tail else '|- '}{describe(node)}")
        child_prefix = prefix + ("   " if tail else "|  ")
        for i, child in enumerate(node.children):
            walk(child, child_prefix, i == len(node.children) - 1)

    for i, root in enumerate(roots):
        if i:
            lines.append("")
        lines.append(describe(root))
        for j, child in enumerate(root.children):
            walk(child, "", j == len(root.children) - 1)
    return "\n".join(lines)


def _first(spans: list[Span], name: str) -> Optional[Span]:
    for span in spans:
        if span.name == name:
            return span
    return None


def explain_trace(spans: Iterable[Span]) -> dict:
    """A structured verdict for one request's trace.

    Returns a JSON-serializable dict with the guarantee outcome, the
    SCR check path that produced it, the engine work spent, every
    dispatch attempt (including ones whose worker died mid-request),
    and a ``narrative`` — the same story as prose lines.
    """
    ordered = sorted(spans, key=lambda s: (s.start_s, s.seq))
    root = _first(ordered, "cluster.request") or _first(
        ordered, "serving.process"
    )
    serving = _first(ordered, "serving.process")
    info: dict = {
        "trace_id": ordered[0].trace_id if ordered else "",
        "spans": len(ordered),
        "template": (root.attrs.get("template") if root else None),
        "seq": (root.attrs.get("seq") if root else None),
        "outcome": (root.attrs.get("outcome") if root else None),
        "narrative": [],
    }
    say = info["narrative"].append
    if root is None:
        say("no request-level span found; cannot explain this trace")
        return info

    # -- dispatch attempts (cluster traces only) ------------------------------
    attempts = [s for s in ordered if s.name == "cluster.dispatch"]
    if attempts:
        info["attempts"] = [
            {
                "attempt": s.attrs.get("attempt"),
                "worker": s.attrs.get("worker"),
                "incarnation": s.attrs.get("incarnation"),
                "outcome": s.attrs.get("outcome"),
            }
            for s in attempts
        ]
        for entry in info["attempts"]:
            where = f"{entry['worker']}:{entry['incarnation']}"
            if entry["outcome"] == "worker_died":
                say(f"attempt {entry['attempt']} on {where}: worker died "
                    "mid-request; its in-process spans are lost, this "
                    "dispatch record is the surviving evidence")
            else:
                say(f"attempt {entry['attempt']} on {where}: responded")

    # -- waits ----------------------------------------------------------------
    queue_wait = _first(ordered, "serving.queue_wait")
    if queue_wait is not None:
        info["queue_wait_s"] = queue_wait.duration_s
        say(f"queued {_fmt_duration(queue_wait.duration_s)} before a "
            "serving thread picked it up")
    flight = _first(ordered, "serving.single_flight_wait")
    if flight is not None:
        info["single_flight_wait_s"] = flight.duration_s
        say(f"waited {_fmt_duration(flight.duration_s)} on another "
            "thread's in-flight optimizer call (single-flight collapse)")

    # -- the SCR check path ---------------------------------------------------
    sel = _first(ordered, "scr.selectivity_check")
    if sel is not None:
        scanned = sel.attrs.get("scanned")
        candidates = sel.attrs.get("candidates")
        if sel.attrs.get("hit"):
            info["anchor_check"] = "selectivity"
            say(f"selectivity check hit after scanning {scanned} cached "
                f"anchors ({candidates} candidate plans): the stored "
                "G*L bound certifies the cached plan without recosting")
        else:
            say(f"selectivity check scanned {scanned} cached anchors "
                f"({candidates} candidate plans) without certifying; "
                "fell through to the cost check")
    cost = _first(ordered, "scr.cost_check")
    if cost is not None:
        recosts = cost.attrs.get("recost_calls", 0)
        if cost.attrs.get("hit"):
            info["anchor_check"] = "cost"
            say(f"cost check certified the cached plan after {recosts} "
                "recost call(s): recosted cost stayed within G*L of the "
                "anchor bound")
        else:
            consulted = any(s.name == "engine.optimize" for s in ordered)
            say(f"cost check spent {recosts} recost call(s) without "
                "certifying; " + (
                    "the optimizer was consulted" if consulted
                    else "the optimizer was NOT consulted (degraded path)"
                ))

    # -- events: faults, retries, sheds, brownout moves -------------------------
    events = [s for s in ordered if s.name in EVENT_NAMES]
    if events:
        info["events"] = [
            {"event": s.name, **{k: s.attrs[k] for k in sorted(s.attrs)}}
            for s in events
        ]
        for s in events:
            why = s.attrs.get("reason") or s.attrs.get("detail")
            if s.attrs.get("transition"):
                why = f"{s.attrs['transition']}: {why}"
            say(f"event {s.name}" + (f" ({why})" if why else ""))

    # -- engine work ----------------------------------------------------------
    engine_calls = {}
    for span in ordered:
        if span.name.startswith("engine.") and span.name not in EVENT_NAMES:
            engine_calls[span.name] = engine_calls.get(span.name, 0) + 1
    if engine_calls:
        info["engine_calls"] = engine_calls
        say("engine work: " + ", ".join(
            f"{count}x {name.split('.', 1)[1]}"
            for name, count in sorted(engine_calls.items())
        ))

    # -- the verdict ----------------------------------------------------------
    verdict_attrs = serving.attrs if serving is not None else root.attrs
    outcome = info["outcome"]
    certificate = verdict_attrs.get("certificate")
    bound = verdict_attrs.get("certified_bound")
    coverage = verdict_attrs.get("coverage")
    info["certificate"] = certificate
    info["check"] = verdict_attrs.get("check")
    if bound is not None:
        info["certified_bound"] = bound
    if coverage is not None:
        info["coverage"] = coverage
    if outcome == "certified":
        sentence = (
            f"VERDICT: certified via {certificate} certificate"
        )
        if bound is not None:
            sentence += f"; inferred sub-optimality bound {bound:g} <= lambda"
        if coverage is not None:
            sentence += (
                f" (probabilistic: holds with coverage {coverage:g})"
            )
        say(sentence)
    elif outcome == "uncertified":
        reason = verdict_attrs.get("check") or "degraded"
        brownout = verdict_attrs.get("brownout")
        sentence = (
            "VERDICT: served WITHOUT a lambda-certificate "
            f"(degraded path: {reason})"
        )
        if brownout is not None:
            info["brownout"] = brownout
            sentence += f"; brownout level {brownout} was in force"
        say(sentence)
    elif outcome == "shed":
        reason = (
            verdict_attrs.get("reason")
            or root.attrs.get("reason")
            or root.attrs.get("detail")
            or "overload"
        )
        info["shed_reason"] = reason
        brownout = verdict_attrs.get("brownout")
        sentence = f"VERDICT: shed ({reason}) — no plan was served"
        if brownout is not None:
            info["brownout"] = brownout
            sentence += f"; brownout level {brownout} was in force"
        say(sentence)
    else:
        say(f"VERDICT: outcome {outcome!r}")
    return info


def format_explanation(info: dict) -> str:
    """The narrative as prose, headed by the request identity."""
    head = (
        f"trace {info.get('trace_id') or '<untraced>'} — "
        f"template {info.get('template')!r} seq {info.get('seq')} "
        f"({info.get('spans')} spans)"
    )
    return "\n".join([head] + [f"  {line}" for line in info["narrative"]])


# -- offline input -------------------------------------------------------------


def load_spans_jsonl(
    source: Union[str, TextIO, Iterable[str]]
) -> list[Span]:
    """Read spans back from a ``write_spans_jsonl`` file or stream.

    Accepts a path, an open text handle, or an iterable of lines; the
    schema-version header (and any malformed line) is skipped so v1
    files without IDs still load — their spans simply form a forest of
    single-node trees.
    """
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as handle:
            return load_spans_jsonl(handle)
    spans: list[Span] = []
    for line in source:
        line = line.strip()
        if not line:
            continue
        try:
            row = json.loads(line)
        except ValueError:
            continue
        if not isinstance(row, dict) or row.get("schema") == "repro.spans":
            continue
        if "span" not in row:
            continue
        spans.append(Span.from_jsonable(row))
    return spans


def traces_in(spans: Iterable[Span]) -> dict[str, list[Span]]:
    """Group spans by trace ID (untraced spans under ``""``), insertion
    ordered so the first-recorded trace comes first."""
    buckets: dict[str, list[Span]] = {}
    for span in spans:
        buckets.setdefault(span.trace_id, []).append(span)
    return buckets


__all__ = [
    "ROOT_NAMES",
    "TraceNode",
    "build_tree",
    "explain_trace",
    "format_explanation",
    "load_spans_jsonl",
    "render_tree",
    "traces_in",
]
