"""The single injectable :class:`Observability` handle.

One object carries everything the layers need — the metrics registry,
the span recorder, the guarantee audit trail and the clock — so wiring
observability through a manager is one constructor argument, and
turning it off is passing ``None`` (every instrumented call site guards
with ``if obs is not None``, which keeps the uninstrumented hot path at
one attribute check).

:class:`EngineInstruments` pre-resolves the labeled metric children an
engine's hot path updates, so instrumented calls do one dict-free
``inc()``/``observe()`` instead of a labels lookup per call.
"""

from __future__ import annotations

from typing import Optional

from .audit import GuaranteeAudit
from .clock import Clock, SYSTEM_CLOCK
from .registry import LATENCY_BUCKETS, MetricsRegistry
from .spans import DEFAULT_SPAN_CAPACITY, SpanRecorder

ENGINE_CALL_SECONDS = "repro_engine_call_seconds"
ENGINE_FAULTS = "repro_engine_faults_total"
ENGINE_RETRIES = "repro_engine_retries_total"
ENGINE_DEGRADED = "repro_engine_degraded_total"
BREAKER_TRANSITIONS = "repro_breaker_transitions_total"
BREAKER_OPEN = "repro_breaker_open"
SPAN_SINK_ERRORS = "repro_span_sink_errors_total"
CALIBRATION_GAPS = "repro_calibration_feed_gaps_total"

_APIS = ("optimize", "recost", "selectivity")


class Observability:
    """Registry + spans + audit + clock behind one handle."""

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        clock: Clock = SYSTEM_CLOCK,
        span_capacity: int = DEFAULT_SPAN_CAPACITY,
        spans_enabled: bool = True,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.clock = clock
        self.spans = SpanRecorder(
            capacity=span_capacity, clock=clock, enabled=spans_enabled
        )
        self.spans.sink_error_counter = self.registry.counter(
            SPAN_SINK_ERRORS,
            "Span sink callbacks that raised (isolated from the hot path)",
        ).labels()
        self.audit = GuaranteeAudit(self.registry)
        from .calibration import CalibrationTracker

        self.calibration = CalibrationTracker(self.registry, spans=self.spans)
        self.slo = None  # attached via attach_slo()

    # Convenience delegates so call sites read naturally.

    def counter(self, name: str, help: str = "", labels=()):
        return self.registry.counter(name, help, labels=labels)

    def gauge(self, name: str, help: str = "", labels=()):
        return self.registry.gauge(name, help, labels=labels)

    def histogram(self, name: str, help: str = "", labels=(),
                  buckets=LATENCY_BUCKETS):
        return self.registry.histogram(name, help, labels=labels,
                                       buckets=buckets)

    def span(self, name: str, **attrs):
        return self.spans.span(name, **attrs)

    def prometheus(self) -> str:
        from .exporters import to_prometheus

        return to_prometheus(self.registry)

    def attach_slo(self, objectives=None, clock: Optional[Clock] = None,
                   min_interval_s: float = 0.0):
        """Attach an SLO burn-rate evaluator over this registry.

        Idempotent-ish: replaces any previous evaluator.  Returns the
        :class:`~repro.obs.slo.SloEvaluator`.
        """
        from .slo import SloEvaluator, default_objectives

        self.slo = SloEvaluator(
            objectives if objectives is not None else default_objectives(),
            registry=self.registry,
            clock=clock if clock is not None else self.clock,
            min_interval_s=min_interval_s,
        )
        return self.slo

    def report(self) -> dict[str, object]:
        """One JSON-serializable snapshot: outcomes, violations, spans."""
        report: dict[str, object] = {
            "outcomes": self.audit.outcome_totals(),
            "certificates": self.audit.certificate_totals(),
            "lambda_violations": self.audit.total_violations,
            "violation_events": list(self.audit.violation_events),
            "spans_recorded": self.spans.total_recorded,
            "spans_dropped": self.spans.dropped,
            "span_sink_errors": self.spans.sink_errors,
            "calibration": self.calibration.report(),
            "metrics": self.registry.snapshot(),
        }
        if self.slo is not None:
            self.slo.evaluate()
            report["slo"] = self.slo.report()
        return report


class EngineInstruments:
    """Pre-resolved metric children for one template's engine.

    Created when an :class:`Observability` handle is attached to an
    :class:`~repro.engine.api.EngineAPI`; the engine and its resilience
    wrapper update these on the hot path.
    """

    def __init__(self, obs: Observability, template: str) -> None:
        self.obs = obs
        registry = obs.registry
        call_seconds = registry.histogram(
            ENGINE_CALL_SECONDS,
            "Engine API call latency by template and api",
            labels=("template", "api"),
            buckets=LATENCY_BUCKETS,
        )
        faults = registry.counter(
            ENGINE_FAULTS, "Engine API call failures", labels=("template", "api")
        )
        degraded = registry.counter(
            ENGINE_DEGRADED,
            "Fallback answers served instead of live engine results",
            labels=("template", "api"),
        )
        self.call_seconds = {
            api: call_seconds.labels(template=template, api=api)
            for api in _APIS
        }
        self.faults = {
            api: faults.labels(template=template, api=api) for api in _APIS
        }
        self.degraded = {
            api: degraded.labels(template=template, api=api) for api in _APIS
        }
        # Degraded answers are constructed locally (stale-inflated
        # vectors, fail-closed costs) and never reach the raw engine's
        # calibration feeds — count the resulting observation gaps so
        # the doctor can qualify a template's calibration coverage.
        feed_gaps = registry.counter(
            CALIBRATION_GAPS,
            "Responses whose degraded engine answers bypassed the "
            "calibration feeds",
            labels=("template", "api"),
        )
        self.feed_gaps = {
            api: feed_gaps.labels(template=template, api=api) for api in _APIS
        }
        self.retries = registry.counter(
            ENGINE_RETRIES, "Engine call retries", labels=("template",)
        ).labels(template=template)
        self._breaker_transitions = registry.counter(
            BREAKER_TRANSITIONS,
            "Recost circuit-breaker state transitions",
            labels=("template", "transition"),
        )
        self.breaker_open = registry.gauge(
            BREAKER_OPEN,
            "1 while the template's recost breaker is open",
            labels=("template",),
        ).labels(template=template)
        # Per-template calibration handle: the engine feeds each
        # computed sVector to the selectivity-drift detector (degraded
        # fallback vectors never reach the raw engine, so they are
        # excluded automatically).
        self.calibration = obs.calibration.template(template)
        self.template = template

    def event(self, kind: str, api: str, seq: int, detail: str,
              **attrs: object) -> None:
        """Record one ``engine.<kind>`` event span (fault / retry /
        breaker / degraded) against this template's engine."""
        self.obs.spans.event(
            f"engine.{kind}", template=self.template, api=api, seq=seq,
            detail=detail, **attrs,
        )

    def breaker_transition(self, transition: str) -> None:
        self._breaker_transitions.labels(
            template=self.template, transition=transition
        ).inc()
        if transition.endswith("->open"):
            self.breaker_open.set(1)
        elif transition.endswith("->closed"):
            self.breaker_open.set(0)


def base_engine(engine):
    """Unwrap delegating engine facades to the raw :class:`EngineAPI`.

    Wrappers compose via ``inner`` (resilience, fault injection) or
    ``_inner`` (simulated latency); the raw engine is where call timing
    lives, so that is where instruments are attached.
    """
    seen = set()
    while id(engine) not in seen:
        seen.add(id(engine))
        nxt = getattr(engine, "inner", None)
        if nxt is None:
            nxt = getattr(engine, "_inner", None)
        if nxt is None:
            return engine
        engine = nxt
    return engine


def instrument_engine(engine, obs: Observability):
    """Attach ``obs`` to an engine stack; returns the instruments.

    Idempotent per engine: re-attaching the same handle reuses the
    existing instruments (metric children are shared anyway).
    """
    base = base_engine(engine)
    existing = getattr(base, "instruments", None)
    if existing is not None and existing.obs is obs:
        return existing
    instruments = EngineInstruments(obs, base.template.name)
    base.obs = obs
    base.instruments = instruments
    return instruments
