"""The runtime guarantee audit trail.

SCR's contract (Theorem 1) is that every *certified* response satisfies
``SO(q) <= λ``; PRs 1–3 could only demonstrate that offline, by
re-costing served plans against an oracle after the run.  This module
makes the guarantee auditable live:

* every response increments **exactly one outcome counter** —
  ``certified`` / ``uncertified`` / ``shed`` — labeled by template (and
  by reason for the degraded outcomes);
* every certified response records the bound the checks actually
  verified (``S·G·L`` or ``S·R·L``) in a histogram, so an operator can
  watch how tight the served certificates are;
* a certified bound that exceeds the λ in force at decision time — a
  thing the algebra says cannot happen, so its occurrence means a bug
  or a violated BCG assumption — increments a **λ-violation counter**
  and captures a bounded log of violation details the moment it
  happens, instead of waiting for an offline oracle pass.
"""

from __future__ import annotations

import threading
from typing import Optional

from .registry import BOUND_BUCKETS, MetricsRegistry

#: Tolerance matching the harness's violation accounting
#: (:meth:`SequenceResult.certified_violations`).
VIOLATION_EPSILON = 1e-9

#: The three outcome labels every served response maps onto.
OUTCOMES = ("certified", "uncertified", "shed")

#: Certificate kinds a served response may carry, exactly one each:
#: ``exact`` (point checks / exactly known selectivities), ``robust``
#: (bound holds for every sVector in a hard uncertainty box),
#: ``probabilistic`` (holds with probability ≥ the claimed coverage),
#: ``uncertified`` (degraded: no bound verified) and ``shed``.
CERT_KINDS = ("exact", "robust", "probabilistic", "uncertified", "shed")

RESPONSES_TOTAL = "repro_responses_total"
CERTIFIED_BOUND = "repro_certified_bound"
LAMBDA_VIOLATIONS = "repro_lambda_violations_total"
DEGRADED_REASONS = "repro_degraded_total"
CERTIFICATES_TOTAL = "repro_certificates_total"
INTERVAL_LOG_WIDTH = "repro_interval_log_width"

#: Buckets for per-dimension-summed interval log widths; ``ln(hi/lo)``
#: sums rarely exceed a few nats even for coarse histograms.
WIDTH_BUCKETS = (0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0)


class GuaranteeAudit:
    """Outcome accounting plus λ-violation flagging over one registry."""

    def __init__(
        self,
        registry: MetricsRegistry,
        max_violation_events: int = 256,
    ) -> None:
        self.registry = registry
        self._responses = registry.counter(
            RESPONSES_TOTAL,
            "Served responses by template and guarantee outcome",
            labels=("template", "outcome"),
        )
        self._bounds = registry.histogram(
            CERTIFIED_BOUND,
            "Certified sub-optimality bounds (S*G*L or S*R*L) per response",
            labels=("template",),
            buckets=BOUND_BUCKETS,
        )
        self._violations = registry.counter(
            LAMBDA_VIOLATIONS,
            "Certified bounds that exceeded the lambda in force (must stay 0)",
            labels=("template", "kind"),
        )
        self._degraded = registry.counter(
            DEGRADED_REASONS,
            "Degraded (uncertified/shed) responses by reason code",
            labels=("template", "outcome", "reason"),
        )
        self._certificates = registry.counter(
            CERTIFICATES_TOTAL,
            "Served responses by certificate kind (exactly one per response)",
            labels=("template", "kind"),
        )
        self._widths = registry.histogram(
            INTERVAL_LOG_WIDTH,
            "Total log-width of served instances' selectivity uncertainty boxes",
            labels=("template",),
            buckets=WIDTH_BUCKETS,
        )
        # Pre-resolved certified-bound children, one per template: the
        # bound is observed on every certified response.
        self._bound_children: dict[str, object] = {}
        self.max_violation_events = max_violation_events
        self._lock = threading.Lock()
        self.violation_events: list[dict] = []

    # -- per-response entry points -------------------------------------------

    def response(self, template: str, outcome: str) -> None:
        """Count one response; ``outcome`` must be an :data:`OUTCOMES`."""
        if outcome not in OUTCOMES:
            raise ValueError(f"unknown outcome {outcome!r}; use {OUTCOMES}")
        self._responses.labels(template=template, outcome=outcome).inc()

    def outcome_children(self, template: str) -> dict:
        """Pre-resolved ``{outcome: counter child}`` for one template —
        the hot serving path increments these directly instead of paying
        a labels lookup per response."""
        return {
            outcome: self._responses.labels(template=template, outcome=outcome)
            for outcome in OUTCOMES
        }

    def certificate(self, template: str, kind: str) -> None:
        """Count one response's certificate kind (exactly one per
        response; see :data:`CERT_KINDS`)."""
        if kind not in CERT_KINDS:
            raise ValueError(f"unknown certificate kind {kind!r}; use {CERT_KINDS}")
        self._certificates.labels(template=template, kind=kind).inc()

    def certificate_children(self, template: str) -> dict:
        """Pre-resolved ``{kind: counter child}`` for one template."""
        return {
            kind: self._certificates.labels(template=template, kind=kind)
            for kind in CERT_KINDS
        }

    def width_child(self, template: str):
        """Pre-resolved histogram child for one template's uncertainty-box
        total log widths."""
        return self._widths.labels(template=template)

    def degraded(self, template: str, outcome: str, reason: str) -> None:
        """Reason-code accounting for an uncertified or shed response.
        (The outcome counter itself is bumped by :meth:`response` —
        callers use both so the identity 'one outcome per response'
        stays exact while reasons stay queryable.)"""
        self._degraded.labels(
            template=template, outcome=outcome, reason=reason or "unknown"
        ).inc()

    def certified_bound(
        self,
        template: str,
        bound: float,
        lam: float,
        seq: Optional[int] = None,
        kind: str = "exact",
    ) -> bool:
        """Record one certified bound against the λ in force.

        Returns True when the bound violated λ (and was flagged) —
        which, per Theorem 1, never happens unless an implementation
        bug or a BCG-assumption violation slipped through.  ``kind``
        labels any flagged violation with the certificate kind whose
        claim was broken.
        """
        child = self._bound_children.get(template)
        if child is None:
            child = self._bounds.labels(template=template)
            self._bound_children[template] = child
        child.observe(bound)
        if bound <= lam * (1.0 + VIOLATION_EPSILON):
            return False
        self._violations.labels(template=template, kind=kind).inc()
        with self._lock:
            if len(self.violation_events) < self.max_violation_events:
                self.violation_events.append({
                    "template": template,
                    "bound": bound,
                    "lambda": lam,
                    "seq": seq,
                    "kind": kind,
                })
        return True

    # -- report-side reads ---------------------------------------------------

    def outcome_totals(self, template: Optional[str] = None) -> dict[str, int]:
        """``{outcome: count}`` across (or for one) template."""
        totals = {}
        for outcome in OUTCOMES:
            if template is None:
                value = self.registry.total(RESPONSES_TOTAL, outcome=outcome)
            else:
                value = self.registry.value(
                    RESPONSES_TOTAL, template=template, outcome=outcome
                )
            totals[outcome] = int(value)
        return totals

    def certificate_totals(self, template: Optional[str] = None) -> dict[str, int]:
        """``{kind: count}`` across (or for one) template."""
        totals = {}
        for kind in CERT_KINDS:
            if template is None:
                value = self.registry.total(CERTIFICATES_TOTAL, kind=kind)
            else:
                value = self.registry.value(
                    CERTIFICATES_TOTAL, template=template, kind=kind
                )
            totals[kind] = int(value)
        return totals

    @property
    def total_violations(self) -> int:
        return int(self.registry.total(LAMBDA_VIOLATIONS))

    @property
    def zero_violations(self) -> bool:
        """The live statement of Theorem 1 holding so far."""
        return self.total_violations == 0
