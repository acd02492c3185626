"""``repro doctor`` — the plan-cache health engine.

The observatory's raw signals (calibration histograms, drift alarms,
per-anchor lifetime counters) answer *"is my cache healthy?"* only
after being joined and judged.  This module is that judgement layer:

* :func:`anchor_totals` is a cache's flat, summable anchor totals (the
  heartbeat's anchor summary); one derivation turns totals — one
  cache's or a cluster's sum — into optimizer calls saved and wasted;
* :func:`anchor_report` ranks a cache's anchors by lifetime payback
  (optimizer calls saved vs. the one call each anchor cost to acquire)
  and totals the wasted spend on anchors that never earned a hit;
* :func:`template_health` joins the anchor report with the template's
  calibration score, active drift alarms and recommended actions, and
  self-checks the accounting identity (anchor hit totals must equal the
  getPlan hit counters — a mismatch is a bug, reported as an error);
* :func:`doctor_report` runs that per template over a live
  :class:`~repro.serving.manager.ConcurrentPQOManager`;
* :func:`doctor_from_sources` rebuilds the same view for a *cluster*
  from the supervisor's labeled registry snapshots (plus the workers'
  heartbeat anchor summaries) — quantiles are recomputed from the
  snapshot bucket vectors, so the cluster view's totals are exactly the
  supervisor's merged totals, not a re-measurement;
* :func:`render_doctor_report` turns either report into the text the
  ``python -m repro doctor`` CLI prints.

Report schema (``"schema": 1``)::

    {"schema": 1, "source": "local"|"cluster", "templates": {...},
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
DOCTOR_SCHEMA = 1

#: How many top / bottom anchors each template section lists.
DEFAULT_TOP_ANCHORS = 3

#: An anchor costs one optimizer call to acquire (the miss that
#: created it); every later hit through it saves one.
ANCHOR_ACQUISITION_CALLS = 1

#: Wasted-spend advisory threshold: recommend the efficacy advisor once
#: at least this many anchors never paid back *and* they are at least
#: this share of all anchors ever acquired.
WASTE_MIN_ANCHORS = 5
WASTE_MIN_SHARE = 0.3


# ---------------------------------------------------------------------------
# anchor-level efficacy attribution


def anchor_totals(cache) -> dict[str, int]:
    """One template's summable anchor totals.

    Flat integers, so workers' totals add up field by field: this is
    the heartbeat's per-template anchor summary, and the base of
    :func:`anchor_report`.
    """
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
    }


def _with_payback(totals: dict[str, Any]) -> dict[str, Any]:
    """Add the two payback figures derived from (summed) anchor totals."""
    totals["optimizer_calls_saved"] = (
        totals["hits_selectivity"] + totals["hits_cost"]
    )
    # Optimizer calls spent acquiring anchors that never paid back.
    totals["wasted_optimizer_calls"] = (
        totals["never_hit_live"] + totals["evicted_never_hit"]
    ) * ANCHOR_ACQUISITION_CALLS
    return totals


def anchor_report(cache, top: int = DEFAULT_TOP_ANCHORS) -> dict[str, Any]:
    """Lifetime cache-efficacy attribution for one template's cache.

    ``top`` bounds both lists: the best-paying anchors (by total hits)
    and the worst (live anchors that never earned a hit, stalest
    first).  Totals include anchors already evicted — the cache folds
    their counters into its ``evicted_*`` aggregates on eviction, so
    wasted spend cannot be hidden by eviction churn.
    """
    tick = cache.tick
    rows = []
    for entry in cache.instances():
        age = tick - entry.last_hit_tick if entry.last_hit_tick >= 0 else None
        rows.append({
            "plan_id": entry.plan_id,
            "sv": [round(float(s), 6) for s in entry.sv],
            "hits_selectivity": entry.hits_selectivity,
            "hits_cost": entry.hits_cost,
            "recost_spend": entry.recost_spend,
            # Optimizer calls this anchor saved, net of acquiring it.
            "net_calls_saved": entry.total_hits - ANCHOR_ACQUISITION_CALLS,
            "last_hit_age": age,
        })
    best = sorted(
        rows,
        key=lambda r: (r["hits_selectivity"] + r["hits_cost"], r["plan_id"]),
        reverse=True,
    )
    worst = sorted(
        (r for r in rows if r["hits_selectivity"] + r["hits_cost"] == 0),
        key=lambda r: r["plan_id"],
    )
    report = _with_payback(anchor_totals(cache))
    report["top"] = best[:top]
    report["bottom"] = worst[:top]
    return report


# ---------------------------------------------------------------------------
# per-template health


def _recommended_actions(
    score: Optional[Mapping[str, Any]], anchors: Mapping[str, Any]
) -> list[str]:
    """Join alarms, grade and wasted spend into concrete next steps."""
    actions: list[str] = []
    alarms = dict(score["alarms"]) if score else {}
    for signal in SIGNALS:
        if alarms.get(signal):
            actions.append(_ACTIONS[signal])
    if (
        score is not None
        and score["grade"] in ("D", "F")
        and not alarms.get("calibration")
    ):
        # Badly calibrated without a latched alarm (e.g. drift predates
        # the detector's window): the remedy is the same sweep.
        actions.append(_ACTIONS["calibration"])
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


def template_health(
    name: str,
    scr,
    quarantined: bool = False,
    top: int = DEFAULT_TOP_ANCHORS,
) -> tuple[dict[str, Any], list[str]]:
    """One template's health section plus any accounting errors.

    ``scr`` is the template's :class:`~repro.core.scr.SCR`; calibration
    fields are ``None`` when it runs without observability.  The second
    return value lists violated invariants (empty when healthy) — the
    doctor checks the accounting identity itself rather than trusting
    the counters it is about to display.
    """
    gp = scr.get_plan
    cache = scr.cache
    errors: list[str] = []
    anchors = anchor_report(cache, top=top)
    sel, cost, _spend = cache.anchor_hit_totals(exclude_adopted=True)
    if (sel, cost) != (gp.selectivity_hits, gp.cost_hits):
        errors.append(
            f"{name}: anchor attribution out of balance — anchors say "
            f"(sel={sel}, cost={cost}) but getPlan counted "
            f"(sel={gp.selectivity_hits}, cost={gp.cost_hits})"
        )
    cal = getattr(scr, "calibration", None)
    score = cal.score() if cal is not None else None
    requests = gp.selectivity_hits + gp.cost_hits + gp.misses
    health = {
        "template": name,
        "quarantined": bool(quarantined),
        "requests": {
            "total": requests,
            "selectivity_hits": gp.selectivity_hits,
            "cost_hits": gp.cost_hits,
            "misses": gp.misses,
            "hit_rate": (
                round((gp.selectivity_hits + gp.cost_hits) / requests, 4)
                if requests else None
            ),
            "recost_calls": gp.total_recost_calls,
        },
        "calibration": score,
        "grade": score["grade"] if score is not None else "n/a",
        "alarms": (
            [s for s in SIGNALS if score["alarms"].get(s)] if score else []
        ),
        "anchors": anchors,
        "recommended_actions": _recommended_actions(score, anchors),
    }
    return health, errors


def _summarize(templates: Mapping[str, Mapping[str, Any]]) -> dict[str, Any]:
    """Cross-template rollup shared by the local and cluster views."""
    grades: dict[str, int] = {}
    alarms = 0
    wasted = 0
    saved = 0
    actions = 0
    for health in templates.values():
        grades[health["grade"]] = grades.get(health["grade"], 0) + 1
        alarms += len(health["alarms"])
        anchors = health.get("anchors")
        if anchors:
            wasted += anchors["wasted_optimizer_calls"]
            saved += anchors["optimizer_calls_saved"]
        actions += len(health.get("recommended_actions", ()))
    return {
        "templates": len(templates),
        "grades": {g: grades[g] for g in sorted(grades)},
        "active_alarms": alarms,
        "optimizer_calls_saved": saved,
        "wasted_optimizer_calls": wasted,
        "recommended_actions": actions,
    }


# ---------------------------------------------------------------------------
# local (in-process) view


def doctor_report(manager, top: int = DEFAULT_TOP_ANCHORS) -> dict[str, Any]:
    """Health report over a live manager's shards.

    Holds each shard lock only while reading that template's counters
    (canonical order, same discipline as
    :meth:`~repro.serving.manager.ConcurrentPQOManager.serving_report`).
    Works with or without observability — calibration sections are
    ``None`` when the manager runs blind.
    """
    templates: dict[str, Any] = {}
    errors: list[str] = []
    with manager._all_shard_locks():
        for name, shard in sorted(manager._templates.items()):
            health, errs = template_health(
                name, shard.scr, quarantined=shard.quarantined, top=top
            )
            templates[name] = health
            errors.extend(errs)
    return {
        "schema": DOCTOR_SCHEMA,
        "source": "local",
        "templates": templates,
        "summary": _summarize(templates),
        "errors": errors,
    }


# ---------------------------------------------------------------------------
# cluster view (from the supervisor's labeled snapshots)


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


def _merge_anchor_summaries(
    anchor_summaries: Mapping[str, Mapping[str, Mapping[str, int]]],
) -> dict[str, dict[str, int]]:
    """Sum the workers' heartbeat anchor summaries per template."""
    totals: dict[str, dict[str, int]] = {}
    for per_template in anchor_summaries.values():
        for template, summary in per_template.items():
            into = totals.setdefault(template, {})
            for field, value in summary.items():
                into[field] = into.get(field, 0) + int(value)
    return {name: _with_payback(summary) for name, summary in totals.items()}


def doctor_from_sources(
    labeled_snapshots: Mapping[str, Mapping[str, Any]],
    anchor_summaries: Optional[Mapping[str, Mapping[str, Any]]] = None,
) -> dict[str, Any]:
    """Cluster health report from labeled registry snapshots.

    ``labeled_snapshots`` is the supervisor's ``merged_snapshot()``
    (label → registry snapshot, live incarnations plus tombstones);
    ``anchor_summaries`` maps worker labels to the per-template anchor
    summaries carried on heartbeats.  Everything is recomputed from the
    snapshots alone — no live process is consulted — so the view holds
    for a cluster that has already lost workers.
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
    anchors = (
        _merge_anchor_summaries(anchor_summaries) if anchor_summaries else {}
    )
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
    names = sorted(
        set(calibration) | set(events) | set(alarms) | set(outcomes)
        | set(anchors)
    )
    templates: dict[str, Any] = {}
    for name in names:
        score = calibration.get(name)
        anchor = anchors.get(name)
        health = {
            "template": name,
            "calibration": score,
            "grade": score["grade"] if score is not None else "n/a",
            "alarms": sorted(alarms.get(name, ())),
            "drift_events": _counts(events.get(name, {})),
            "outcomes": _counts(outcomes.get(name, {})),
            "anchors": anchor,
            "recommended_actions": [
                _ACTIONS[s] for s in SIGNALS if s in alarms.get(name, ())
            ],
        }
        templates[name] = health
    return {
        "schema": DOCTOR_SCHEMA,
        "source": "cluster",
        "sources": sorted(labeled_snapshots),
        "templates": templates,
        "summary": _summarize(templates),
        "errors": [],
    }


# ---------------------------------------------------------------------------
# rendering


def render_doctor_report(report: Mapping[str, Any]) -> str:
    """The ``python -m repro doctor`` text view of either report kind."""
    from ..harness.reporting import format_table

    rows = []
    for name in sorted(report["templates"]):
        health = report["templates"][name]
        anchors = health.get("anchors") or {}
        score = health.get("calibration") or {}
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
    lines = [
        format_table(
            rows,
            title=f"repro doctor — {report['source']} view",
        )
    ]
    for name in sorted(report["templates"]):
        health = report["templates"][name]
        for action in health.get("recommended_actions", ()):
            lines.append(f"  action [{name}]: {action}")
    for error in report["errors"]:
        lines.append(f"  ERROR: {error}")
    if not report["errors"]:
        lines.append("  accounting identity: OK")
    return "\n".join(lines)
