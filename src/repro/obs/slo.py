"""Sliding-window SLOs with multi-window burn-rate alerting.

An SLO here is a *good/total ratio objective* evaluated over the
cumulative counters a :class:`~repro.obs.registry.MetricsRegistry`
already keeps — no new hot-path instrumentation.  The evaluator
periodically samples ``(good, total)`` from a registry snapshot and
differenciates across sliding windows, which makes the whole engine
restart-proof on the supervisor: its registry is the authoritative
cluster ledger, so a worker death changes *where* requests are served,
not what the SLO sees.

Alerting follows the multi-window burn-rate recipe (Google SRE
workbook): the *burn rate* is ``error_rate / error_budget`` (budget =
``1 - target``), and an alert fires only when both a long window and a
short window burn above threshold — the long window proves the problem
is real, the short window proves it is *still happening* and lets the
alert clear quickly once the incident ends.  Zero traffic in a window
burns nothing, so a calm cluster can never false-alert.

Three stock objectives match the guarantees this stack serves:

* ``certified_fraction`` — the share of responses that carried a
  λ-certificate (brownout and faults degrade this first);
* ``lambda_compliance`` — certified responses whose bound respected λ
  (Theorem 1 says this must be ~1.0; any burn is a bug or a violated
  BCG assumption);
* ``latency`` — the share of responses under a latency threshold,
  read from the serving histogram's cumulative buckets (target 0.99 ≈
  "p99 below threshold").
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

from .audit import LAMBDA_VIOLATIONS, RESPONSES_TOTAL
from .clock import Clock, SYSTEM_CLOCK
from .registry import MetricsRegistry, group_sum

SLO_BURN_RATE = "repro_slo_burn_rate"
SLO_ALERT_ACTIVE = "repro_slo_alert_active"
SLO_ALERTS_TOTAL = "repro_slo_alerts_total"
SLO_ERROR_RATE = "repro_slo_error_rate"

#: Retained :class:`BurnRateAlert` records per evaluator.
MAX_ALERT_EVENTS = 256


def _total(groups: dict) -> float:
    """Σ of a :func:`group_sum` result's counter values."""
    return float(sum(row["value"] for row in groups.values()))


# -- objectives ----------------------------------------------------------------


@dataclass(frozen=True)
class BurnWindow:
    """One long/short window pair with its firing threshold.

    The pair fires when *both* windows burn at or above
    ``burn_threshold``; the active alert clears when the short window
    drops back below it (the long window's memory of the incident must
    not keep the alert latched after recovery).
    """

    name: str
    long_s: float
    short_s: float
    burn_threshold: float


#: Default pairs, scaled for serving experiments that run seconds to
#: minutes (production deployments would use hours, same ratios).
DEFAULT_WINDOWS = (
    BurnWindow("fast", long_s=60.0, short_s=10.0, burn_threshold=6.0),
    BurnWindow("slow", long_s=300.0, short_s=60.0, burn_threshold=2.0),
)


@dataclass(frozen=True)
class SloObjective:
    """One good/total ratio objective over registry snapshots."""

    name: str
    target: float
    sampler: Callable[[dict], tuple[float, float]]
    windows: tuple[BurnWindow, ...] = DEFAULT_WINDOWS
    description: str = ""

    @property
    def budget(self) -> float:
        """The error budget; floored so target=1.0 stays computable
        (any error then burns effectively infinitely fast)."""
        return max(1.0 - self.target, 1e-9)


def certified_fraction_objective(
    target: float = 0.90,
    windows: tuple[BurnWindow, ...] = DEFAULT_WINDOWS,
    **where: str,
) -> SloObjective:
    """Share of responses served with a λ-certificate.

    ``where`` narrows the counter series by label equality — the
    cluster supervisor passes ``source="supervisor"`` so its merged
    snapshot (which also carries every worker's advisory audit) is
    read through the authoritative ledger only.
    """

    def sample(snapshot: dict) -> tuple[float, float]:
        by_outcome = group_sum(
            [snapshot], RESPONSES_TOTAL, by=("outcome",), **where
        )
        good = by_outcome.get(("certified",), {"value": 0.0})["value"]
        return float(good), _total(by_outcome)

    return SloObjective(
        name="certified_fraction", target=target, sampler=sample,
        windows=windows,
        description="responses carrying a certified λ-bound",
    )


def lambda_compliance_objective(
    target: float = 0.999,
    windows: tuple[BurnWindow, ...] = DEFAULT_WINDOWS,
    **where: str,
) -> SloObjective:
    """Responses NOT flagged as certified-λ-violations (must be ~all)."""

    def sample(snapshot: dict) -> tuple[float, float]:
        total = _total(group_sum([snapshot], RESPONSES_TOTAL, by=(), **where))
        bad = _total(group_sum([snapshot], LAMBDA_VIOLATIONS, by=(), **where))
        return max(total - bad, 0.0), total

    return SloObjective(
        name="lambda_compliance", target=target, sampler=sample,
        windows=windows,
        description="responses free of certified λ-violations",
    )


def latency_objective(
    threshold_s: float = 0.25,
    target: float = 0.99,
    metric: str = "repro_serving_latency_seconds",
    windows: tuple[BurnWindow, ...] = DEFAULT_WINDOWS,
    **where: str,
) -> SloObjective:
    """Share of responses under ``threshold_s`` (target 0.99 ≈ p99)."""

    def sample(snapshot: dict) -> tuple[float, float]:
        row = group_sum([snapshot], metric, by=(), **where).get(())
        if row is None:
            return 0.0, 0.0
        # Cumulative buckets: the first edge at or above the threshold
        # counts every response that finished within it.
        good = next(
            (c for edge, c in row["buckets"]
             if edge == "+Inf" or edge >= threshold_s),
            0,
        )
        return float(good), float(row["count"])

    return SloObjective(
        name="latency", target=target, sampler=sample, windows=windows,
        description=f"responses completing within {threshold_s}s",
    )


def default_objectives(
    windows: tuple[BurnWindow, ...] = DEFAULT_WINDOWS,
) -> tuple[SloObjective, ...]:
    return (
        certified_fraction_objective(windows=windows),
        lambda_compliance_objective(windows=windows),
        latency_objective(windows=windows),
    )


def cluster_objectives(
    windows: tuple[BurnWindow, ...] = DEFAULT_WINDOWS,
) -> tuple[SloObjective, ...]:
    """Objectives over the supervisor's *merged* cluster snapshot.

    Outcome ratios read the supervisor's own exactly-one-outcome ledger
    (``source="supervisor"``) so the workers' advisory audits riding the
    same merged snapshot are not double-counted; latency reads every
    worker's serving histogram, whose dead-incarnation series keep their
    last heartbeat's cumulative counts — restarts never step the
    differencing backwards.
    """
    return (
        certified_fraction_objective(windows=windows, source="supervisor"),
        lambda_compliance_objective(windows=windows, source="supervisor"),
        latency_objective(windows=windows),
    )


# -- the evaluator -------------------------------------------------------------


@dataclass
class BurnRateAlert:
    """One firing (or clearing) of an objective's burn alert."""

    objective: str
    window: str
    at_s: float
    kind: str               # "fire" | "clear"
    burn_long: float = 0.0
    burn_short: float = 0.0

    def to_jsonable(self) -> dict:
        return {
            "objective": self.objective, "window": self.window,
            "at_s": round(self.at_s, 6), "kind": self.kind,
            "burn_long": round(self.burn_long, 4),
            "burn_short": round(self.burn_short, 4),
        }


class _ObjectiveState:
    """Sample history plus alert latch for one objective."""

    def __init__(self, objective: SloObjective) -> None:
        self.objective = objective
        self.samples: deque[tuple[float, float, float]] = deque()
        self.horizon = max(w.long_s for w in objective.windows)
        self.alert_active = False
        self.alerts_fired = 0
        self.last_windows: dict[str, dict] = {}

    def add_sample(self, t: float, good: float, total: float) -> None:
        self.samples.append((t, good, total))
        # Keep one sample at-or-before the horizon so long-window
        # differencing always has a baseline.
        cutoff = t - self.horizon
        while len(self.samples) >= 2 and self.samples[1][0] <= cutoff:
            self.samples.popleft()

    def _baseline(self, t: float, window_s: float) -> tuple[float, float]:
        """The cumulative (good, total) at the window's start: the
        youngest sample at or before ``t - window_s`` (oldest sample if
        the history is shorter than the window)."""
        cutoff = t - window_s
        best = self.samples[0]
        for sample in self.samples:
            if sample[0] <= cutoff:
                best = sample
            else:
                break
        return best[1], best[2]

    def window_rates(self, t: float, window_s: float) -> tuple[float, float]:
        """``(error_rate, burn_rate)`` over the trailing window.

        Zero traffic in the window is zero burn: an idle cluster never
        consumes budget, so calm periods can't false-alert.
        """
        now_t, now_good, now_total = self.samples[-1]
        base_good, base_total = self._baseline(t, window_s)
        delta_total = now_total - base_total
        if delta_total <= 0:
            return 0.0, 0.0
        delta_good = now_good - base_good
        error_rate = min(max(1.0 - delta_good / delta_total, 0.0), 1.0)
        return error_rate, error_rate / self.objective.budget


class SloEvaluator:
    """Evaluates objectives over registry snapshots; latches alerts.

    ``registry`` is both the default snapshot source and where the
    evaluator's own gauges land (``repro_slo_burn_rate{slo,window}``,
    ``repro_slo_alert_active{slo}``, ``repro_slo_alerts_total{slo}``).
    Callers that aggregate remote state (the cluster supervisor) pass
    an explicit snapshot to :meth:`evaluate` instead.
    """

    def __init__(
        self,
        objectives: tuple[SloObjective, ...],
        registry: MetricsRegistry,
        clock: Clock = SYSTEM_CLOCK,
        min_interval_s: float = 0.0,
    ) -> None:
        self.registry = registry
        self.clock = clock
        self.min_interval_s = min_interval_s
        self._states = {o.name: _ObjectiveState(o) for o in objectives}
        self._last_eval: Optional[float] = None
        self.alert_events: list[BurnRateAlert] = []
        self._burn_gauge = registry.gauge(
            SLO_BURN_RATE,
            "Error-budget burn rate per objective and window",
            labels=("slo", "window"),
        )
        self._error_gauge = registry.gauge(
            SLO_ERROR_RATE,
            "Windowed error rate per objective and window",
            labels=("slo", "window"),
        )
        self._active_gauge = registry.gauge(
            SLO_ALERT_ACTIVE,
            "1 while the objective's burn-rate alert is firing",
            labels=("slo",),
        )
        self._fired_counter = registry.counter(
            SLO_ALERTS_TOTAL,
            "Burn-rate alerts fired per objective",
            labels=("slo",),
        )

    @property
    def objectives(self) -> tuple[SloObjective, ...]:
        return tuple(s.objective for s in self._states.values())

    def evaluate(
        self, snapshot: Optional[dict] = None, now: Optional[float] = None
    ) -> dict[str, bool]:
        """Take one sample and update alert state.

        Returns ``{objective: alert_active}``.  Calls inside
        ``min_interval_s`` of the previous sample reuse the existing
        state (cheap enough to wire into a serving tick).
        """
        t = now if now is not None else self.clock.monotonic()
        if (
            self._last_eval is not None
            and self.min_interval_s > 0
            and (t - self._last_eval) < self.min_interval_s
        ):
            return self.active_alerts()
        self._last_eval = t
        snap = snapshot if snapshot is not None else self.registry.snapshot()
        for state in self._states.values():
            objective = state.objective
            good, total = objective.sampler(snap)
            state.add_sample(t, good, total)
            firing_pair = None
            still_hot = False
            for window in objective.windows:
                err_long, burn_long = state.window_rates(t, window.long_s)
                err_short, burn_short = state.window_rates(t, window.short_s)
                state.last_windows[window.name] = {
                    "long_s": window.long_s, "short_s": window.short_s,
                    "burn_threshold": window.burn_threshold,
                    "error_rate_long": round(err_long, 6),
                    "error_rate_short": round(err_short, 6),
                    "burn_long": round(burn_long, 4),
                    "burn_short": round(burn_short, 4),
                }
                self._burn_gauge.labels(
                    slo=objective.name, window=f"{window.name}_long"
                ).set(burn_long)
                self._burn_gauge.labels(
                    slo=objective.name, window=f"{window.name}_short"
                ).set(burn_short)
                self._error_gauge.labels(
                    slo=objective.name, window=f"{window.name}_long"
                ).set(err_long)
                self._error_gauge.labels(
                    slo=objective.name, window=f"{window.name}_short"
                ).set(err_short)
                if (
                    burn_long >= window.burn_threshold
                    and burn_short >= window.burn_threshold
                ):
                    firing_pair = firing_pair or (window, burn_long, burn_short)
                if burn_short >= window.burn_threshold:
                    still_hot = True
            if not state.alert_active and firing_pair is not None:
                window, burn_long, burn_short = firing_pair
                state.alert_active = True
                state.alerts_fired += 1
                self._fired_counter.labels(slo=objective.name).inc()
                self._record_event(BurnRateAlert(
                    objective=objective.name, window=window.name, at_s=t,
                    kind="fire", burn_long=burn_long, burn_short=burn_short,
                ))
            elif state.alert_active and not still_hot:
                state.alert_active = False
                self._record_event(BurnRateAlert(
                    objective=objective.name, window="", at_s=t, kind="clear",
                ))
            self._active_gauge.labels(slo=objective.name).set(
                1.0 if state.alert_active else 0.0
            )
        return self.active_alerts()

    def _record_event(self, event: BurnRateAlert) -> None:
        if len(self.alert_events) < MAX_ALERT_EVENTS:
            self.alert_events.append(event)

    def active_alerts(self) -> dict[str, bool]:
        return {
            name: state.alert_active for name, state in self._states.items()
        }

    def alerts_fired(self, objective: Optional[str] = None) -> int:
        if objective is not None:
            return self._states[objective].alerts_fired
        return sum(s.alerts_fired for s in self._states.values())

    def report(self) -> dict[str, object]:
        """JSON-serializable per-objective status."""
        out: dict[str, object] = {}
        for name, state in self._states.items():
            objective = state.objective
            last = state.samples[-1] if state.samples else (0.0, 0.0, 0.0)
            out[name] = {
                "target": objective.target,
                "description": objective.description,
                "good": last[1],
                "total": last[2],
                "windows": dict(state.last_windows),
                "alert_active": state.alert_active,
                "alerts_fired": state.alerts_fired,
            }
        out["events"] = [e.to_jsonable() for e in self.alert_events]
        return out


__all__ = [
    "DEFAULT_WINDOWS",
    "MAX_ALERT_EVENTS",
    "BurnRateAlert",
    "BurnWindow",
    "SloEvaluator",
    "SloObjective",
    "certified_fraction_objective",
    "cluster_objectives",
    "default_objectives",
    "lambda_compliance_objective",
    "latency_objective",
]
