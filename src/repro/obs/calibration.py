"""Cost-model calibration telemetry and per-template drift detection.

SCR's λ-certificate is computed *from the cost model and the
selectivity estimates* — if either drifts, the certificate's headroom
silently erodes long before the live λ-violation counter (which only
sees the engine's own, possibly equally drifted, numbers) can fire.
This module watches the guarantee machinery itself:

* **Calibration feeds** — every cost-check hit contributes one
  predicted-vs-recosted pair (the BCG model's predicted plan cost
  ``C·S·G`` against the engine's fresh Recost), and, when the harness
  oracle is attached, responses contribute predicted-vs-true pairs.
  Absolute log-ratios land in per-(template, certificate kind, feed)
  histograms; the signed log-ratio's EWMA is exported as a bias gauge.
* **Drift detectors** — per-template online EWMAs plus lagged-
  reference block-median shift detectors (:class:`BlockShiftDetector`)
  over the calibration ratios and over the selectivity-vector
  distribution (the log-area projection ``Σ ln s_i``).  A detector crossing its threshold raises a typed
  :class:`DriftEvent` into a bounded event log, a counter, an alarm
  gauge, and (when a span recorder is attached) the span stream.
* **Proactive recalibration** — :func:`recost_sweep` re-costs stale
  anchors' pointed plans at their own selectivity vectors under a call
  budget and refreshes the stored costs, restoring calibration after a
  uniform cost-model shift without re-optimizing.

Everything is advisory: no value computed here is ever read by the
guarantee checks themselves.
"""

from __future__ import annotations

import math
import statistics
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

from .registry import MetricsRegistry, bucket_quantile, group_sum

CALIBRATION_ERROR = "repro_calibration_abs_log_ratio"
CALIBRATION_BIAS = "repro_calibration_bias"
DRIFT_EVENTS = "repro_drift_events_total"
DRIFT_ALARM = "repro_drift_alarm"
RECOST_SWEEPS = "repro_recost_sweeps_total"
SWEEP_RECOST_CALLS = "repro_sweep_recost_calls_total"

#: Buckets for ``|ln(actual / predicted)|``: dense near 0 (a healthy
#: cost model is within a few percent) and sparse toward the ratios
#: where the λ headroom is effectively gone.
ERROR_BUCKETS = (0.01, 0.02, 0.05, 0.1, 0.2, 0.35, 0.5, 0.75, 1.0, 1.5, 2.5)

#: The two calibration feeds: ``recost`` pairs are free (measured on
#: cost-check hits the checks already paid for); ``oracle`` pairs need
#: the harness oracle and compare against ground truth.
FEEDS = ("recost", "oracle")

#: Detector signals a :class:`DriftEvent` may carry.
SIGNALS = ("calibration", "selectivity")

#: p90-of-|log ratio| thresholds for the letter grades the doctor
#: prints.  ``exp(0.35) ≈ 1.42`` — past grade C the estimation error
#: alone can eat most of a λ=1.5 certificate's headroom.
GRADE_EDGES = ((0.05, "A"), (0.15, "B"), (0.35, "C"), (0.7, "D"))


def grade_for(p90_abs_log_ratio: float) -> str:
    for edge, grade in GRADE_EDGES:
        if p90_abs_log_ratio <= edge:
            return grade
    return "F"


class Ewma:
    """Exponentially weighted moving average (seeded by first sample)."""

    __slots__ = ("alpha", "value")

    def __init__(self, alpha: float = 0.1) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self.alpha = alpha
        self.value: Optional[float] = None

    def update(self, x: float) -> float:
        if self.value is None:
            self.value = x
        else:
            self.value += self.alpha * (x - self.value)
        return self.value


class BlockShiftDetector:
    """Lagged-reference block-median shift detector (runs rule).

    Purpose-built for plan-cache calibration streams, whose three
    pathologies defeat classic mean-shift statistics (Page–Hinkley,
    CUSUM) — each was observed on the seed workloads while tuning:

    - **Outlier bursts**: the uncensored recost feed includes *failed*
      cost checks, whose ratios are outliers by construction (that is
      why they failed), so anything mean-based chases every burst.
    - **Maturation trends**: the calm stream drifts for hundreds of
      samples as the cache warms (cold-cache probes recost against far
      anchors; a mature cache hits near ones), so a global or frozen
      baseline turns warm-up into a false alarm, while a fast-adapting
      baseline absorbs real drift before a cumulative statistic can
      accumulate.
    - **Self-healing**: a drifted cost model poisons only *pre-drift*
      anchors; misses re-anchor the cache under the new model, so the
      detectable window is short (~10 blocks) and a slow detector
      misses it entirely.

    The cure for all three at once: summarise each block of ``block``
    raw samples by its **median** (burst-immune), compare it against
    the median of an older window of block medians — the ``ref``
    blocks ending ``lag`` blocks ago, so the reference trails any
    candidate shift but still tracks slow trends — and alarm when
    ``k`` of the last ``m`` deviations exceed ``tau`` *in the same
    direction* (a Western-Electric-style runs rule: one wild block is
    noise; three out of four on the same side is a shift).

    ``tau`` is in raw stream units, which for log-cost-ratio streams
    is principled: ``tau = 0.3`` means "react to a sustained cost-
    model shift of at least e^0.3 ≈ 1.35×".  ``warm`` blocks are
    consumed before the rule arms, covering the cold-cache transient.
    """

    __slots__ = (
        "tau", "k", "m", "block", "ref", "lag", "warm",
        "n", "blocks", "reference", "last_deviation",
        "_buf", "_meds", "_devs",
    )

    def __init__(
        self,
        tau: float = 0.3,
        k: int = 3,
        m: int = 4,
        block: int = 25,
        ref: int = 8,
        lag: int = 3,
        warm: int = 16,
    ) -> None:
        if not (0 < k <= m):
            raise ValueError("need 0 < k <= m")
        if lag < 1 or ref < 2:
            raise ValueError("need lag >= 1 and ref >= 2")
        self.tau = tau
        self.k = k
        self.m = m
        self.block = block
        self.ref = ref
        self.lag = lag
        self.warm = warm
        self.reset()

    def reset(self) -> None:
        """Drop everything and relearn the reference from scratch."""
        self.n = 0  # raw samples consumed
        self.blocks = 0  # block medians consumed
        self.reference: Optional[float] = None
        self.last_deviation = 0.0
        self._buf: list[float] = []
        self._meds: deque = deque(maxlen=self.ref + self.lag)
        self._devs: deque = deque(maxlen=self.m)

    @property
    def warmed_up(self) -> bool:
        return self.blocks > self.warm

    def update(self, x: float) -> bool:
        """Feed one raw sample; True when a sustained shift is seen.

        Only block-completing samples can return True — the rule runs
        once per ``block`` samples, on the block's median.
        """
        self.n += 1
        self._buf.append(x)
        if len(self._buf) < self.block:
            return False
        bm = statistics.median(self._buf)
        self._buf.clear()
        self.blocks += 1
        fired = False
        if self.blocks > self.warm and len(self._meds) > self.lag + 1:
            meds = list(self._meds)
            self.reference = statistics.median(meds[: -self.lag])
            self.last_deviation = bm - self.reference
            self._devs.append(self.last_deviation)
            if len(self._devs) == self.m:
                up = sum(1 for d in self._devs if d > self.tau)
                down = sum(1 for d in self._devs if d < -self.tau)
                fired = up >= self.k or down >= self.k
        self._meds.append(bm)
        return fired


@dataclass(frozen=True)
class DriftEvent:
    """One detector crossing, with enough context to act on it."""

    template: str
    #: Which stream drifted: ``calibration`` (cost-model log-ratios) or
    #: ``selectivity`` (the workload's sVector distribution).
    signal: str
    #: The EWMA of the stream at detection time.
    value: float
    #: The detector's lagged reference median at detection time.
    baseline: float
    #: Samples the detector had consumed when it fired.
    samples: int
    #: What an operator (or an automated policy) should do about it.
    recommended_action: str = ""


#: Default detector configurations per signal (see
#: :class:`BlockShiftDetector`; ``tau`` is in raw stream units).
#: Tuned against captured calm and drifted streams from all 21 seed
#: templates: calibration ``tau=0.3`` reacts to sustained cost-model
#: shifts ≥ e^0.3 ≈ 1.35×, detecting an injected 1.6× shift within
#: ~3–5 blocks (≈75–115 recost samples) on every seed scenario while
#: all calm runs stay silent.  The selectivity ``tau=2.0`` is coarse
#: on purpose — sv log-areas legitimately swing by whole nats between
#: instances, so only a region-mix change that moves the *block
#: median* by two nats counts as drift.
CALIBRATION_DETECTOR = dict(tau=0.3, k=3, m=4, block=25, ref=8, lag=3, warm=16)
SELECTIVITY_DETECTOR = dict(tau=2.0, k=3, m=4, block=25, ref=8, lag=3, warm=16)

_ACTIONS = {
    "calibration": (
        "run a recost sweep of stale anchors "
        "(SCR.recalibrate / repro.obs.calibration.recost_sweep)"
    ),
    "selectivity": (
        "refresh seeding for the new parameter region "
        "(anchors for the old region will age out via the advisor)"
    ),
}


class TemplateCalibration:
    """One template's calibration state: pre-resolved metric children
    plus the online detectors.  All mutation is under one small lock —
    the streams are low-rate (one sample per cost-check hit / request),
    so contention is negligible next to the engine calls around them.
    """

    def __init__(self, tracker: "CalibrationTracker", template: str) -> None:
        self.tracker = tracker
        self.template = template
        self._lock = threading.Lock()
        registry = tracker.registry
        self._error_family = registry.histogram(
            CALIBRATION_ERROR,
            "Log distance of the actual cost outside the model's "
            "predicted interval (0 = prediction held)",
            labels=("template", "kind", "feed"),
            buckets=ERROR_BUCKETS,
        )
        self._error_children: dict[tuple[str, str], object] = {}
        self._bias = {
            feed: registry.gauge(
                CALIBRATION_BIAS,
                "EWMA of the signed log cost-calibration ratio",
                labels=("template", "feed"),
            ).labels(template=template, feed=feed)
            for feed in FEEDS
        }
        self._ewma = {feed: Ewma(alpha=0.15) for feed in FEEDS}
        self._detectors = {
            "calibration": BlockShiftDetector(**CALIBRATION_DETECTOR),
            "selectivity": BlockShiftDetector(**SELECTIVITY_DETECTOR),
        }
        self._sv_ewma = Ewma(alpha=0.1)
        self.alarms: dict[str, bool] = {signal: False for signal in SIGNALS}
        self.samples: dict[str, int] = {feed: 0 for feed in FEEDS}
        self.sv_samples = 0

    def _error_child(self, kind: str, feed: str):
        child = self._error_children.get((kind, feed))
        if child is None:
            child = self._error_family.labels(
                template=self.template, kind=kind, feed=feed
            )
            self._error_children[(kind, feed)] = child
        return child

    # -- feeds ---------------------------------------------------------------

    def record_ratio(
        self,
        feed: str,
        kind: str,
        predicted: float,
        actual: float,
        log_slack_hi: float = 0.0,
        log_slack_lo: float = 0.0,
    ) -> Optional[DriftEvent]:
        """Record one predicted-vs-actual cost pair.

        When the model predicts an *interval* rather than a point — the
        Cost Bounding Lemma claims ``Cost(P, q) ∈ [pred/L^n, pred·G^n]``
        — pass the interval's log half-widths as ``log_slack_hi``
        (``n·ln G``) and ``log_slack_lo`` (``n·ln L``).  The error
        histogram then records how far the actual cost landed *outside*
        the claimed interval (0 while the model's own claim holds), so a
        well-calibrated model grades A even though legitimate
        selectivity movement makes actual ≠ predicted; with zero slack
        (the oracle feed) it degenerates to ``|ln(actual/predicted)|``.
        The drift detector and the bias EWMA consume the raw *signed*
        log ratio: a cost-model shift by a factor ``f`` moves that
        stream's mean by ``ln f`` even while every sample still lands
        inside the certificate's interval (the guarantee absorbs the
        shift by burning λ-headroom — exactly the erosion worth
        alarming on before it surfaces as violations).  Both feeds
        drive the same ``calibration`` detector: a shift is a shift
        regardless of which instrument saw it first.  Returns the
        :class:`DriftEvent` if this sample crossed the detector's
        threshold.
        """
        if predicted <= 0.0 or actual <= 0.0:
            return None
        log_ratio = math.log(actual / predicted)
        excess = max(
            0.0, log_ratio - log_slack_hi, -log_ratio - log_slack_lo
        )
        with self._lock:
            self.samples[feed] += 1
            ewma = self._ewma[feed].update(log_ratio)
            self._error_child(kind, feed).observe(excess)
            self._bias[feed].set(ewma)
            detector = self._detectors["calibration"]
            fired = detector.update(log_ratio) and not self.alarms["calibration"]
            if fired:
                event = self._make_event("calibration", ewma, detector)
        if fired:
            return self.tracker._emit(self, event)
        return None

    def record_sv(self, sv) -> Optional[DriftEvent]:
        """Feed one served instance's selectivity vector.

        Projects the vector to its log area ``Σ ln s_i`` — one float
        per request, cheap enough for the hot path — and watches the
        projection's mean for shifts (a region-mix change moves it by
        nats; stationary workloads keep it flat).
        """
        area = 0.0
        for s in sv:
            if s <= 0.0:
                return None
            area += math.log(s)
        with self._lock:
            self.sv_samples += 1
            ewma = self._sv_ewma.update(area)
            detector = self._detectors["selectivity"]
            fired = detector.update(area) and not self.alarms["selectivity"]
            if fired:
                event = self._make_event("selectivity", ewma, detector)
        if fired:
            return self.tracker._emit(self, event)
        return None

    def _make_event(
        self, signal: str, ewma: float, detector: BlockShiftDetector
    ) -> DriftEvent:
        """Build the event and latch the alarm (caller holds the lock)."""
        self.alarms[signal] = True
        event = DriftEvent(
            template=self.template,
            signal=signal,
            value=ewma,
            baseline=detector.reference or 0.0,
            samples=detector.n,
            recommended_action=_ACTIONS[signal],
        )
        detector.reset()
        return event

    def clear_alarm(self, signal: str) -> None:
        with self._lock:
            self.alarms[signal] = False
            self._detectors[signal].reset()
        self.tracker._alarm_gauge(self.template, signal).set(0)

    # -- report-side reads ---------------------------------------------------

    def score(self) -> dict[str, object]:
        """:func:`calibration_score` over this template's histograms,
        plus each feed's ``bias`` and the latched ``alarms`` — both
        per-process state, so only this local view carries them."""
        rows = group_sum(
            [{CALIBRATION_ERROR: self._error_family.snapshot()}],
            CALIBRATION_ERROR, by=("feed",), template=self.template,
        )
        score = calibration_score({feed: row for (feed,), row in rows.items()})
        for feed, entry in score["feeds"].items():
            bias = self._ewma[feed].value
            entry["bias"] = round(bias, 6) if bias is not None else None
        score["alarms"] = {s: bool(self.alarms[s]) for s in SIGNALS}
        return score


def calibration_score(by_feed: Mapping[str, dict]) -> dict[str, object]:
    """The calibration score both doctor views print.

    ``by_feed`` maps a feed to its |log-ratio| histogram row (a snapshot
    series, summed over certificate kinds and, for the cluster view,
    over sources).  Per feed: the sample count and the p50/p90; then
    the letter grade of the worst feed's p90 and the multiplicative
    headroom that p90 eats (``exp(p90)``).
    """
    feeds: dict[str, object] = {}
    worst_p90 = 0.0
    graded = False
    for feed in FEEDS:
        row = by_feed.get(feed)
        samples = row["count"] if row else 0
        p50 = p90 = 0.0
        if samples:
            p50 = bucket_quantile(row["buckets"], 0.5)
            p90 = bucket_quantile(row["buckets"], 0.9)
            graded = True
            worst_p90 = max(worst_p90, p90)
        feeds[feed] = {
            "samples": samples,
            "abs_log_ratio_p50": round(p50, 6),
            "abs_log_ratio_p90": round(p90, 6),
        }
    return {
        "feeds": feeds,
        "grade": grade_for(worst_p90) if graded else "n/a",
        "headroom_factor_p90": round(math.exp(worst_p90), 4),
    }


class CalibrationTracker:
    """All templates' calibration state over one metrics registry.

    One tracker hangs off each :class:`~repro.obs.handle.Observability`
    handle; per-template handles are resolved once (SCR keeps its own)
    and fed on the serving path.  Drift events land in a bounded list,
    the ``repro_drift_events_total`` counter, the ``repro_drift_alarm``
    gauge, the span stream (when attached) and any registered
    ``on_event`` callbacks — which is where proactive policies (e.g.
    auto recost sweeps) plug in.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        spans=None,
        max_events: int = 256,
    ) -> None:
        self.registry = registry
        self.spans = spans
        self.max_events = max_events
        self._lock = threading.Lock()
        self._templates: dict[str, TemplateCalibration] = {}
        self.events: list[DriftEvent] = []
        self.on_event: list[Callable[[DriftEvent], None]] = []
        self._event_counter = registry.counter(
            DRIFT_EVENTS,
            "Drift detector crossings by template and signal",
            labels=("template", "signal"),
        )
        self._alarm = registry.gauge(
            DRIFT_ALARM,
            "1 while a drift alarm is latched for (template, signal)",
            labels=("template", "signal"),
        )
        self._sweeps = registry.counter(
            RECOST_SWEEPS,
            "Proactive recost sweeps run per template",
            labels=("template",),
        )
        self._sweep_calls = registry.counter(
            SWEEP_RECOST_CALLS,
            "Recost calls spent by proactive sweeps per template",
            labels=("template",),
        )

    def template(self, name: str) -> TemplateCalibration:
        with self._lock:
            cal = self._templates.get(name)
            if cal is None:
                cal = TemplateCalibration(self, name)
                self._templates[name] = cal
            return cal

    def templates(self) -> list[TemplateCalibration]:
        with self._lock:
            return [self._templates[n] for n in sorted(self._templates)]

    def _alarm_gauge(self, template: str, signal: str):
        return self._alarm.labels(template=template, signal=signal)

    def _emit(self, cal: TemplateCalibration, event: DriftEvent) -> DriftEvent:
        """Fan one fired event out to every consumer (no locks held)."""
        self._event_counter.labels(
            template=event.template, signal=event.signal
        ).inc()
        self._alarm_gauge(event.template, event.signal).set(1)
        with self._lock:
            if len(self.events) < self.max_events:
                self.events.append(event)
        spans = self.spans
        if spans is not None and spans.enabled:
            now = spans.clock.perf_counter()
            spans.record(
                "obs.drift_event", now, 0.0,
                template=event.template, signal=event.signal,
                value=round(event.value, 6),
                baseline=round(event.baseline, 6),
                samples=event.samples,
            )
        for callback in list(self.on_event):
            try:
                callback(event)
            except Exception:  # pragma: no cover - policy bugs stay isolated
                pass
        return event

    def active_alarms(self) -> list[dict[str, str]]:
        out = []
        for cal in self.templates():
            for signal in SIGNALS:
                if cal.alarms[signal]:
                    out.append({"template": cal.template, "signal": signal})
        return out

    def note_sweep(self, template: str, recost_calls: int) -> None:
        """Book one proactive sweep and reset the template's
        calibration baseline (the sweep changed what 'predicted'
        means, so the detector must relearn its mean)."""
        self._sweeps.labels(template=template).inc()
        self._sweep_calls.labels(template=template).inc(recost_calls)
        self.template(template).clear_alarm("calibration")

    def report(self) -> dict[str, object]:
        """JSON-serializable calibration section for ``obs.report()``."""
        return {
            "templates": {
                cal.template: cal.score() for cal in self.templates()
            },
            "events": [
                {
                    "template": e.template,
                    "signal": e.signal,
                    "value": round(e.value, 6),
                    "baseline": round(e.baseline, 6),
                    "samples": e.samples,
                    "recommended_action": e.recommended_action,
                }
                for e in list(self.events)
            ],
            "active_alarms": self.active_alarms(),
        }


@dataclass
class SweepResult:
    """What one :func:`recost_sweep` did."""

    recost_calls: int = 0
    refreshed: int = 0
    skipped: int = 0
    #: Mean |ln| of the per-anchor correction applied — how far out of
    #: calibration the stored costs actually were.
    mean_correction: float = 0.0
    details: list[dict] = field(default_factory=list)


def recost_sweep(
    scr,
    budget: Optional[int] = None,
    min_staleness: int = 0,
) -> SweepResult:
    """Re-anchor stale instance entries' stored costs under a budget.

    For each live anchor (stalest first, by ``last_hit_tick``), spends
    one Recost call measuring the pointed plan's *current* cost at the
    anchor's own selectivity vector and refreshes the stored 5-tuple:
    the pointed cost moves to the fresh measurement while the stored
    sub-optimality ``S`` is kept — under a uniform cost-model shift
    (the drift mode this targets) relative plan costs are preserved, so
    ``C' = fresh/S`` restores ``C·S = Cost(P, q_e)`` exactly.

    ``budget`` caps the Recost calls; ``min_staleness`` skips anchors
    hit within that many LRU ticks (they are being revalidated by live
    traffic anyway).  Books the sweep with the tracker (resetting the
    calibration alarm) and invalidates the cache's columnar views.
    """
    cache = scr.cache
    result = SweepResult()
    tick = cache.tick
    entries = sorted(cache.instances(), key=lambda e: e.last_hit_tick)
    corrections = 0.0
    for entry in entries:
        if budget is not None and result.recost_calls >= budget:
            result.skipped += 1
            continue
        if entry.last_hit_tick >= 0 and tick - entry.last_hit_tick < min_staleness:
            result.skipped += 1
            continue
        plan = cache.maybe_plan(entry.plan_id)
        if plan is None:
            result.skipped += 1
            continue
        fresh_pointed = scr.engine.recost(plan.shrunken_memo, entry.sv)
        result.recost_calls += 1
        if fresh_pointed <= 0.0:
            result.skipped += 1
            continue
        old_pointed = entry.pointed_plan_cost
        entry.refresh_cost(
            optimal_cost=fresh_pointed / entry.suboptimality,
            suboptimality=entry.suboptimality,
        )
        result.refreshed += 1
        if old_pointed > 0.0:
            corrections += abs(math.log(fresh_pointed / old_pointed))
    if result.refreshed:
        # optimal_cost is columnarised and was rewritten in place: no
        # outstanding view may survive or be extended.
        cache.invalidate_views()
        result.mean_correction = corrections / result.refreshed
    obs = getattr(scr, "obs", None)
    if obs is not None and getattr(obs, "calibration", None) is not None:
        obs.calibration.note_sweep(
            scr.engine.template.name, result.recost_calls
        )
    return result
