"""The group record: what one served group tells the registry.

A served group — a ``process_many`` template group, a single request
(a group of one), or one serial :meth:`~repro.core.scr.SCR.process`
call — collects its telemetry in one :class:`GroupRecord` while it is
served, and :func:`feed_group` hands the record to every sink once, at
the group's end (DESIGN.md §10, "One write path"):

* the serving stats — one ``inc(n)`` per distinct outcome, certificate
  or check label, one ``observe_many`` of the rows' latencies and one
  of the robust rows' interval widths;
* the guarantee audit — one :meth:`GuaranteeAudit.certified_bounds`;
* calibration — one :meth:`TemplateCalibration.record_group`, which
  feeds the sVector and recost streams sample by sample in the order
  they were served and emits any drift event after its lock section;
* the engine ``call_seconds`` histograms — one ``observe_many`` per API.

The engine appends its calls to the record of the group its thread is
serving (:data:`GROUP_RECORD`); a call outside any group is fed as a
record of its own.  Every float is fed in the order the per-row writes
used, so histogram sums, EWMAs and detector medians are bit-equal to
feeding each row as it was served.
"""

from __future__ import annotations

from contextvars import ContextVar
from typing import Optional

#: The APIs whose calls a group's ``serving.batch`` span sums instead of
#: one ``engine.*`` span per call (optimizer calls keep their own span),
#: with the span attributes their count and seconds go to.
ROLLED_UP = tuple(
    (api, f"engine_{api}_calls", f"engine_{api}_s")
    for api in ("selectivity", "recost")
)


class GroupRecord:
    """One served group's telemetry, in serving order.

    ``calls`` holds each engine call's elapsed seconds per API in call
    order and ``svs`` the values of each sVector the raw engine computed
    (a degraded fallback never reaches the raw engine, so it is never
    here).  ``bounds`` holds one
    ``(bound, λ, certificate kind, seq)`` per certified bound and
    ``samples`` one ``(kind, predicted, actual, log_slack_hi,
    log_slack_lo)`` per cost-check Recost call; both are written by
    :meth:`~repro.core.scr.SCR.apply` only when observability is on.
    ``choices`` and ``latencies`` are the served rows and ``widths`` the
    robust rows' interval log widths (serving shards only).
    ``rolls_up`` is True when the group's span sums its sVector and
    Recost calls, so the engine records no span of their own.
    """

    __slots__ = (
        "calls", "svs", "bounds", "samples", "choices", "latencies",
        "widths", "rolls_up",
    )

    def __init__(self, rolls_up: bool = False) -> None:
        self.calls: dict[str, list[float]] = {
            "optimize": [], "recost": [], "selectivity": [],
        }
        self.svs: list = []
        self.bounds: list[tuple] = []
        self.samples: list[tuple] = []
        self.choices: list = []
        self.latencies: list[float] = []
        self.widths: list[float] = []
        self.rolls_up = rolls_up

    def engine_attrs(self) -> dict:
        """The span attributes ``engine_<api>_calls`` and ``_s`` of the
        rolled-up APIs (seconds summed in call order)."""
        out: dict = {}
        for api, calls_key, seconds_key in ROLLED_UP:
            calls = self.calls[api]
            seconds = 0.0
            for elapsed in calls:
                seconds += elapsed
            out[calls_key] = len(calls)
            out[seconds_key] = seconds
        return out


#: The record of the group this thread is serving, or None.
GROUP_RECORD: ContextVar[Optional[GroupRecord]] = ContextVar(
    "repro_group_record", default=None
)


def feed_group(record: GroupRecord, instruments, stats=None) -> None:
    """Consume ``record`` once: the only code that writes a served
    group's rows, certified bounds, calibration samples and engine-call
    timings into the registry.

    ``instruments`` is the template's
    :class:`~repro.obs.handle.EngineInstruments` (``None`` without
    observability: then only ``stats`` is fed); ``stats`` the serving
    shard's :class:`~repro.serving.stats.ServingStats`, ``None`` for a
    serial SCR or an engine call outside any group.
    """
    if stats is not None:
        stats.observe_group(record.choices, record.latencies, record.widths)
    if instruments is None:
        return
    if record.bounds:
        instruments.obs.audit.certified_bounds(
            instruments.template, record.bounds
        )
    if record.samples or record.svs:
        instruments.calibration.record_group(record.samples, record.svs)
    call_seconds = instruments.call_seconds
    for api, elapsed in record.calls.items():
        if elapsed:
            call_seconds[api].observe_many(elapsed)
