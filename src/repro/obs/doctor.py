"""``repro doctor`` — the plan-cache health engine.

The observatory's raw signals (calibration histograms, drift alarms,
per-anchor lifetime counters) answer *"is my cache healthy?"* only
after being joined and judged.  This module is that judgement layer:

* :func:`template_summary` is one template's flat, summable facts that
  no registry snapshot carries — the anchor totals, getPlan's hit, miss
  and recost counters, the warm-start baselines and the quarantine flag.
  The manager reads them under every shard lock; heartbeats carry them
  to the supervisor;
* :func:`doctor_from_sources` is the one report builder: labeled
  registry snapshots plus labeled summaries in, the report out.  The
  local view passes the manager's own registries and summaries, the
  cluster view the workers' heartbeat snapshots and summaries.  It
  checks the accounting identity on every (source, template) summary
  before summing — anchor hit totals must equal the getPlan hit
  counters; a mismatch is a bug, reported as an error;
* :func:`render_doctor_report` turns a report into the text the
  ``python -m repro doctor`` CLI prints.

Report schema (``"schema": 2``)::

    {"schema": 2, "sources": [...], "templates": {...},
     "summary": {...}, "errors": [...]}
"""

from __future__ import annotations

from typing import Any, Mapping, Optional

from .audit import RESPONSES_TOTAL
from .calibration import (
    _ACTIONS,
    CALIBRATION_ERROR,
    DRIFT_ALARM,
    DRIFT_EVENTS,
    SIGNALS,
    calibration_score,
)
from .registry import group_sum

#: Version of the doctor report layout (asserted by CI's smoke step).
DOCTOR_SCHEMA = 2

#: An anchor costs one optimizer call to acquire (the miss that
#: created it); every later hit through it saves one.
ANCHOR_ACQUISITION_CALLS = 1

#: Wasted-spend advisory threshold: recommend the efficacy advisor once
#: at least this many anchors never paid back *and* they are at least
#: this share of all anchors ever acquired.
WASTE_MIN_ANCHORS = 5
WASTE_MIN_SHARE = 0.3

#: The summary fields a report's ``anchors`` section shows.
ANCHOR_FIELDS = (
    "live_anchors", "plans_cached", "hits_selectivity", "hits_cost",
    "recost_spend", "never_hit_live", "evicted_never_hit",
)


def template_summary(scr, quarantined: bool = False) -> dict[str, int]:
    """One template's summable facts (caller holds its shard lock).

    Flat integers, so summaries add up field by field across workers:
    the anchor totals (live, evicted and adopted anchors alike),
    getPlan's counters, and the warm-start baselines the identity
    subtracts.  ``quarantined`` is 0 or 1.
    """
    cache = scr.cache
    gp = scr.get_plan
    sel, cost, spend = cache.anchor_hit_totals()
    entries = list(cache.instances())
    return {
        "live_anchors": len(entries),
        "plans_cached": cache.num_plans,
        "hits_selectivity": sel,
        "hits_cost": cost,
        "recost_spend": spend,
        "never_hit_live": sum(1 for e in entries if e.total_hits == 0),
        "evicted_never_hit": cache.evicted_never_hit,
        "selectivity_hits": gp.selectivity_hits,
        "cost_hits": gp.cost_hits,
        "misses": gp.misses,
        "recost_calls": gp.total_recost_calls,
        "adopted_hits_selectivity": cache.adopted_hits_selectivity,
        "adopted_hits_cost": cache.adopted_hits_cost,
        "adopted_recost_spend": cache.adopted_recost_spend,
        "quarantined": int(quarantined),
    }


def _identity_errors(
    source: str, template: str, summary: Mapping[str, int]
) -> list[str]:
    """The accounting identity over one source's summary of one template.

    Anchor hits earned in this process (totals minus the adopted
    baseline) must equal getPlan's hit counters, and the anchors'
    recost spend can never exceed getPlan's recost calls.
    """
    errors = []
    sel = summary["hits_selectivity"] - summary["adopted_hits_selectivity"]
    cost = summary["hits_cost"] - summary["adopted_hits_cost"]
    if (sel, cost) != (summary["selectivity_hits"], summary["cost_hits"]):
        errors.append(
            f"{source}/{template}: anchor attribution out of balance — "
            f"anchors say (sel={sel}, cost={cost}) but getPlan counted "
            f"(sel={summary['selectivity_hits']}, "
            f"cost={summary['cost_hits']})"
        )
    spend = summary["recost_spend"] - summary["adopted_recost_spend"]
    if spend > summary["recost_calls"]:
        errors.append(
            f"{source}/{template}: anchor recost spend {spend} exceeds "
            f"getPlan's {summary['recost_calls']} recost calls"
        )
    return errors


def _anchors(summary: Mapping[str, int]) -> dict[str, int]:
    """The anchor totals plus the two payback figures derived from them."""
    anchors = {field: summary[field] for field in ANCHOR_FIELDS}
    anchors["optimizer_calls_saved"] = (
        anchors["hits_selectivity"] + anchors["hits_cost"]
    )
    # Optimizer calls spent acquiring anchors that never paid back.
    anchors["wasted_optimizer_calls"] = (
        anchors["never_hit_live"] + anchors["evicted_never_hit"]
    ) * ANCHOR_ACQUISITION_CALLS
    return anchors


def _requests(summary: Mapping[str, int]) -> dict[str, Any]:
    """getPlan's request counters and the hit rate derived from them."""
    hits = summary["selectivity_hits"] + summary["cost_hits"]
    total = hits + summary["misses"]
    return {
        "total": total,
        "selectivity_hits": summary["selectivity_hits"],
        "cost_hits": summary["cost_hits"],
        "misses": summary["misses"],
        "hit_rate": round(hits / total, 4) if total else None,
        "recost_calls": summary["recost_calls"],
    }


def _recommended_actions(
    alarms: list[str],
    score: Optional[Mapping[str, Any]],
    anchors: Optional[Mapping[str, Any]],
) -> list[str]:
    """Join alarms, grade and wasted spend into concrete next steps."""
    actions = [_ACTIONS[signal] for signal in SIGNALS if signal in alarms]
    if (
        score is not None
        and score["grade"] in ("D", "F")
        and "calibration" not in alarms
    ):
        # Badly calibrated without a latched alarm (e.g. drift predates
        # the detector's window): the remedy is the same sweep.
        actions.append(_ACTIONS["calibration"])
    if anchors:
        wasted = anchors["wasted_optimizer_calls"]
        acquired = anchors["live_anchors"] + anchors["evicted_never_hit"]
        if wasted >= WASTE_MIN_ANCHORS and acquired > 0 and (
            wasted / acquired >= WASTE_MIN_SHARE
        ):
            actions.append(
                "many anchors never pay back their acquisition cost — "
                "consider ManageCache(efficacy_advisor=True) or a smaller "
                "cache budget"
            )
    return actions


def _summarize(templates: Mapping[str, Mapping[str, Any]]) -> dict[str, Any]:
    """Cross-template rollup."""
    grades: dict[str, int] = {}
    alarms = 0
    wasted = 0
    saved = 0
    actions = 0
    for health in templates.values():
        grades[health["grade"]] = grades.get(health["grade"], 0) + 1
        alarms += len(health["alarms"])
        anchors = health["anchors"]
        if anchors:
            wasted += anchors["wasted_optimizer_calls"]
            saved += anchors["optimizer_calls_saved"]
        actions += len(health["recommended_actions"])
    return {
        "templates": len(templates),
        "grades": {g: grades[g] for g in sorted(grades)},
        "active_alarms": alarms,
        "optimizer_calls_saved": saved,
        "wasted_optimizer_calls": wasted,
        "recommended_actions": actions,
    }


def _by_template(
    snapshots: list[Mapping[str, Any]], family: str, label: str
) -> dict[str, dict[str, dict]]:
    """``family`` summed across sources, as ``{template: {label: row}}``."""
    nested: dict[str, dict[str, dict]] = {}
    for (template, value), row in group_sum(
        snapshots, family, by=("template", label)
    ).items():
        nested.setdefault(template, {})[value] = row
    return nested


def _counts(rows: Mapping[str, dict]) -> dict[str, int]:
    return {key: int(rows[key]["value"]) for key in sorted(rows)}


def doctor_from_sources(
    labeled_snapshots: Mapping[str, Mapping[str, Any]],
    summaries: Mapping[str, Mapping[str, Mapping[str, int]]],
) -> dict[str, Any]:
    """The health report over labeled registry snapshots and summaries.

    ``labeled_snapshots`` maps a source label to a registry snapshot;
    ``summaries`` maps a source label to its per-template
    :func:`template_summary` dicts.  Calibration, alarms, drift events
    and outcomes come from the snapshots; requests, anchors and the
    quarantine flag from the summaries, each checked against the
    accounting identity before the sources are summed.  No live object
    is consulted, so the view holds for a cluster that has already lost
    workers.
    """
    snapshots = [labeled_snapshots[k] for k in sorted(labeled_snapshots)]
    # Bucket vectors sum across sources and certificate kinds, so the
    # quantiles are the estimate one registry holding every sample would
    # give.  Bias is a per-process EWMA and does not merge: omitted.
    calibration = {
        template: calibration_score(by_feed)
        for template, by_feed in _by_template(
            snapshots, CALIBRATION_ERROR, "feed"
        ).items()
    }
    events = _by_template(snapshots, DRIFT_EVENTS, "signal")
    outcomes = _by_template(snapshots, RESPONSES_TOTAL, "outcome")
    # An alarm latched in any one source counts (a gauge sum would not).
    alarms: dict[str, set] = {}
    for snapshot in snapshots:
        for (template, signal), row in group_sum(
            [snapshot], DRIFT_ALARM, by=("template", "signal")
        ).items():
            if row["value"]:
                alarms.setdefault(template, set()).add(signal)
    errors: list[str] = []
    totals: dict[str, dict[str, int]] = {}
    for source in sorted(summaries):
        for template, summary in sorted(summaries[source].items()):
            errors.extend(_identity_errors(source, template, summary))
            into = totals.setdefault(template, {})
            for field, value in summary.items():
                into[field] = into.get(field, 0) + int(value)
    names = sorted(
        set(calibration) | set(events) | set(alarms) | set(outcomes)
        | set(totals)
    )
    templates: dict[str, Any] = {}
    for name in names:
        score = calibration.get(name)
        summary = totals.get(name)
        anchors = _anchors(summary) if summary else None
        signals = sorted(alarms.get(name, ()))
        templates[name] = {
            "template": name,
            "quarantined": bool(summary and summary["quarantined"]),
            "requests": _requests(summary) if summary else None,
            "calibration": score,
            "grade": score["grade"] if score is not None else "n/a",
            "alarms": signals,
            "drift_events": _counts(events.get(name, {})),
            "outcomes": _counts(outcomes.get(name, {})),
            "anchors": anchors,
            "recommended_actions": _recommended_actions(
                signals, score, anchors
            ),
        }
    return {
        "schema": DOCTOR_SCHEMA,
        "sources": sorted(labeled_snapshots),
        "templates": templates,
        "summary": _summarize(templates),
        "errors": errors,
    }


# ---------------------------------------------------------------------------
# rendering


def render_doctor_report(report: Mapping[str, Any]) -> str:
    """The ``python -m repro doctor`` text view of a report."""
    from ..harness.reporting import format_table

    rows = []
    for name in sorted(report["templates"]):
        health = report["templates"][name]
        anchors = health["anchors"] or {}
        score = health["calibration"] or {}
        feeds = score.get("feeds", {})
        worst_p90 = max(
            (f["abs_log_ratio_p90"] for f in feeds.values() if f["samples"]),
            default=0.0,
        )
        rows.append({
            "template": name,
            "grade": health["grade"],
            "p90_log_err": round(worst_p90, 4),
            "alarms": ",".join(health["alarms"]) or "-",
            "anchors": anchors.get("live_anchors", 0),
            "saved": anchors.get("optimizer_calls_saved", 0),
            "wasted": anchors.get("wasted_optimizer_calls", 0),
        })
    sources = ", ".join(report["sources"]) or "-"
    lines = [format_table(rows, title=f"repro doctor — sources: {sources}")]
    for name in sorted(report["templates"]):
        health = report["templates"][name]
        for action in health["recommended_actions"]:
            lines.append(f"  action [{name}]: {action}")
    for error in report["errors"]:
        lines.append(f"  ERROR: {error}")
    if not any(h["requests"] for h in report["templates"].values()):
        lines.append("  accounting identity: not checked (no summaries)")
    elif not report["errors"]:
        lines.append("  accounting identity: OK")
    return "\n".join(lines)
