"""Exporters: Prometheus text exposition and JSONL streaming sinks.

Three ways the observability state leaves the process:

* :func:`to_prometheus` — the registry as Prometheus text exposition
  (version 0.0.4), rendered from its snapshot by
  :func:`snapshot_to_prometheus`: ``# HELP`` / ``# TYPE`` headers,
  deterministic family and label ordering, histogram
  ``_bucket``/``_sum``/``_count`` expansion.  Deterministic output is a
  feature — the golden-file test byte-compares it.
* :class:`JsonlWriter` — an append-only JSONL file sink; attach one to
  a :class:`~repro.obs.spans.SpanRecorder` to stream every span as it
  completes, or use :func:`write_spans_jsonl` for a one-shot dump.
* :func:`snapshot_rows` — flat rows for the CLI's table renderer.
"""

from __future__ import annotations

import json
import math
from typing import IO, Iterable, Optional, Union

from .registry import MetricsRegistry
from .spans import Span, SpanRecorder
from .tracectx import SPAN_SCHEMA_VERSION


def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")
    )


def _format_value(value: float) -> str:
    """Prometheus-style number: integers bare, +Inf spelled out."""
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _format_labels(names: tuple[str, ...], values: tuple[str, ...],
                   extra: Optional[tuple[str, str]] = None) -> str:
    pairs = [
        f'{name}="{_escape_label_value(value)}"'
        for name, value in zip(names, values)
    ]
    if extra is not None:
        pairs.append(f'{extra[0]}="{_escape_label_value(extra[1])}"')
    return "{" + ",".join(pairs) + "}" if pairs else ""


def to_prometheus(registry: MetricsRegistry) -> str:
    """The whole registry as Prometheus text exposition."""
    return snapshot_to_prometheus(registry.snapshot())


class JsonlWriter:
    """An append-only JSONL sink usable as a live span stream.

    ``writer(span)`` (the instance is callable) serializes one span per
    line, so ``recorder.attach_sink(JsonlWriter(path))`` streams the
    trace as it happens.  Also accepts plain dicts (the schema header).
    """

    def __init__(self, target: Union[str, IO[str]],
                 include_timing: bool = True) -> None:
        if isinstance(target, str):
            self._fh: IO[str] = open(target, "a", encoding="utf-8")
            self._owns = True
        else:
            self._fh = target
            self._owns = False
        self.include_timing = include_timing
        self.rows_written = 0

    def __call__(self, event: Union[Span, dict]) -> None:
        self.write(event)

    def write(self, event: Union[Span, dict]) -> None:
        row = (
            event.to_jsonable(include_timing=self.include_timing)
            if isinstance(event, Span)
            else event
        )
        self._fh.write(json.dumps(row, sort_keys=True) + "\n")
        self.rows_written += 1

    def close(self) -> None:
        self._fh.flush()
        if self._owns:
            self._fh.close()

    def __enter__(self) -> "JsonlWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def span_schema_header() -> dict:
    """The header row prefixed to span JSONL dumps, so downstream
    consumers can detect schema changes (v2 added the causal
    trace_id/span_id/parent_id triple)."""
    return {"schema": "repro.spans", "version": SPAN_SCHEMA_VERSION}


def write_spans_jsonl(
    recorder: SpanRecorder,
    target: Union[str, IO[str]],
    include_timing: bool = True,
    header: bool = True,
) -> int:
    """One-shot dump of the recorder's retained spans; returns rows
    (the schema-version header line, emitted unless ``header=False``,
    is not counted)."""
    with JsonlWriter(target, include_timing=include_timing) as writer:
        if header:
            writer.write(span_schema_header())
            writer.rows_written -= 1
        for span in recorder.spans():
            writer.write(span)
        return writer.rows_written


def merge_labeled_snapshots(
    sources: dict[str, dict], label: str = "source"
) -> dict:
    """Combine registry snapshots from many processes into one.

    ``sources`` maps a source identity (e.g. ``"supervisor"``,
    ``"w0:2"``) to that process's ``MetricsRegistry.snapshot()`` dump.
    Families merge by name; every series gains ``label=<identity>``, so
    same-named counters from different workers stay distinct instead of
    colliding.  ``label`` defaults to ``source`` rather than ``worker``
    because supervisor families legitimately carry their own ``worker``
    label (which worker restarted), which must not be clobbered by the
    identity of the registry the series came from.  A series that
    already uses the label name keeps its own value.
    """
    merged: dict[str, dict] = {}
    for identity, snapshot in sources.items():
        for name, family in snapshot.items():
            target = merged.setdefault(name, {
                "kind": family.get("kind", "counter"),
                "help": family.get("help", ""),
                "series": [],
            })
            for series in family.get("series", []):
                row = dict(series)
                row["labels"] = {label: identity, **series.get("labels", {})}
                target["series"].append(row)
    return merged


def snapshot_to_prometheus(snapshot: dict) -> str:
    """Render a registry snapshot dict as Prometheus text exposition.

    The only renderer: a live registry goes through its own snapshot,
    and merged cluster state (worker heartbeats) is already one.  Output
    is deterministic: families sorted by name, series by their label
    values, and labels written in the snapshot's order — the family's
    declared order, after any ``source`` label
    :func:`merge_labeled_snapshots` put first.
    """
    lines: list[str] = []
    for name in sorted(snapshot):
        family = snapshot[name]
        if family.get("help"):
            lines.append(f"# HELP {name} {family['help']}")
        lines.append(f"# TYPE {name} {family.get('kind', 'counter')}")
        series = sorted(
            family.get("series", []),
            key=lambda row: tuple(map(str, row.get("labels", {}).values())),
        )
        for row in series:
            labels = row.get("labels", {})
            names = tuple(labels)
            values = tuple(map(str, labels.values()))
            if family.get("kind") == "histogram":
                for edge, count in row.get("buckets", []):
                    edge_text = (
                        edge if isinstance(edge, str) else _format_value(edge)
                    )
                    le = _format_labels(names, values, extra=("le", edge_text))
                    lines.append(f"{name}_bucket{le} {count}")
                plain = _format_labels(names, values)
                lines.append(f"{name}_sum{plain} {_format_value(row['sum'])}")
                lines.append(f"{name}_count{plain} {row['count']}")
            else:
                plain = _format_labels(names, values)
                lines.append(f"{name}{plain} {_format_value(row['value'])}")
    return "\n".join(lines) + ("\n" if lines else "")


def snapshot_rows(registry: MetricsRegistry,
                  names: Optional[Iterable[str]] = None) -> list[dict]:
    """Flat per-series rows for the CLI table renderer."""
    wanted = set(names) if names is not None else None
    rows = []
    for family in registry.families():
        if wanted is not None and family.name not in wanted:
            continue
        for values, child in family.samples():
            row: dict = {"metric": family.name}
            row.update(dict(zip(family.label_names, values)))
            if family.kind == "histogram":
                row["count"] = child.count
                row["p50"] = round(child.quantile(0.50), 6)
                row["p99"] = round(child.quantile(0.99), 6)
                row["sum"] = round(child.sum, 6)
            else:
                value = child.value
                row["value"] = int(value) if value.is_integer() else round(value, 6)
            rows.append(row)
    return rows
