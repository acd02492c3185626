"""One template's shard: its manager state, and SCR served thread-safely
with optimistic reads.

Every request is served by one loop over a **group** of rows in input
order: :meth:`TemplateShard.process` is a group of one,
:meth:`TemplateShard.process_batch` a group of any size (DESIGN.md §8).
A group decides exactly what a :meth:`~TemplateShard.process` loop over
its rows would:

* every row is decided by
  :meth:`~repro.core.get_plan.GetPlan.probe_rows`, lock-free, against
  one immutable :class:`~repro.core.columnar.ColumnarInstances` view
  (each cache mutation publishes one, so taking it is an attribute
  read); a row's
  decision is taken only when the walk in input order reaches it.  Once
  a row changes what the later rows would see — a registration, an
  eviction, an Appendix G retirement, another thread's write — the
  remaining rows are probed again against the new view;
* a probed **hit** is committed under the shard's write lock only after
  **optimistic validation**: the cache still holds the column store the
  hit was probed against (no drop, adoption or sweep has replaced it),
  and a cost-check hit's anchor is not retired.  The certified bound
  ``S·G·L`` / ``S·R·L`` depends only on write-once columns, so a
  validated commit certifies exactly what a fully serial run would
  have.  A hit that fails validation is probed again at its own turn;
* a **miss** makes the optimizer call *outside* the lock, collapsed
  through a per-vector **single-flight** table so concurrent misses on
  the same selectivity vector cost one optimizer call; a follower
  probes its row again once the leader is done.  Only ``manageCache``
  mutations (register / evict / retire) hold the write lock.

Overload protection (DESIGN.md §9) is a scope around a group — its
end-to-end :class:`Deadline` — read per row: whether the row's budget
already expired, its selectivity-only and brownout-coverage probes, the
brownout level its λ follows, the optimizer-gate admission of its miss,
and the degraded path for denied work — the nearest cached plan served
``certified=False`` with a reason code, or a :class:`ShedError` when the
cache is empty.  Each row counts as one completion.  Without a
coordinator no row is denied.

A group is one unit of telemetry whatever its size: one
:class:`~repro.obs.group.GroupRecord` fed to the registry at its end
and, with spans on, one trace context and one ``serving.batch`` span
whose per-row columns hold each row's outcome and certificate
(DESIGN.md §10).
"""

from __future__ import annotations

import threading
from contextlib import nullcontext
from typing import Optional, Sequence

from ..core.get_plan import _COST, _POINT, _USAGE
from ..core.scr import SCR
from ..core.technique import PlanChoice, fetch_selectivity
from ..engine.resilience import OptimizeUnavailableError
from ..obs.audit import GuaranteeAudit
from ..obs.clock import SYSTEM_CLOCK
from ..obs.group import GROUP_RECORD, GroupRecord, feed_group
from ..obs.handle import Observability
from ..obs.registry import MetricsRegistry
from ..obs.tracectx import activate, current_context, start_trace
from ..optimizer.recost import ShrunkenMemo
from ..query.instance import (
    AnySelectivityVector,
    QueryInstance,
    SelectivityVector,
    UncertainSelectivityVector,
    as_point,
)
from ..query.template import QueryTemplate
from .overload import (
    BROWNOUT_COVERAGE,
    BrownoutLevel,
    Deadline,
    OverloadCoordinator,
    ShedError,
)
from .stats import ServingStats

#: Probe/commit retries before degrading to the fully-serial path; a
#: retry only happens when another thread invalidated the view
#: mid-probe, so contention this deep means serializing is cheaper.
MAX_OPTIMISTIC_RETRIES = 3

#: Longest a single-flight follower waits for its leader's optimizer
#: call (further capped by the request's remaining deadline).
FLIGHT_TIMEOUT_SECONDS = 30.0

#: A group's scope without a fresh trace root or a deadline, and its
#: rows' admission without a coordinator, a deadline or an overflow.
_NO_SCOPE = nullcontext()
_ADMITTED = (False, None, None, BrownoutLevel.NORMAL)


class TemplateShard:
    """One registered template: its SCR, engine and manager bookkeeping,
    served thread-safely."""

    def __init__(
        self,
        template: QueryTemplate,
        scr: SCR,
        overload: Optional[OverloadCoordinator] = None,
        obs: Optional[Observability] = None,
    ) -> None:
        self.template = template
        self.scr = scr
        self.engine = scr.engine
        #: This template's share of the manager's global plan budget
        #: (``None`` while the manager has no global budget).
        self.budget: Optional[int] = None
        self.instances_seen = 0
        #: True while the template's recost circuit breaker is open: the
        #: engine is misbehaving for this template, so it is frozen at the
        #: minimum plan-budget share until the breaker closes again.
        self.quarantined = False
        # Robust/probabilistic shards probe with an uncertainty box; the
        # flag gates the usv fetch path and the brownout coverage step.
        self.robust = scr.check_mode is not _POINT
        self.lock = threading.RLock()
        # One write path for the shard's accounting: the handle's
        # registry, or a private one when the manager has no handle.
        self.stats = ServingStats(
            template.name,
            obs.audit if obs is not None else GuaranteeAudit(MetricsRegistry()),
        )
        self._overload = overload
        # One clock source for everything the shard times (latency,
        # lock waits, deadlines), so a test's fake clock drives all of
        # it.  The coordinator's clock wins when present: deadlines are
        # minted on it, and _now() must read the same timeline.
        if overload is not None:
            self.clock = overload.clock_source
        elif obs is not None:
            self.clock = obs.clock
        else:
            self.clock = SYSTEM_CLOCK
        self._obs = obs
        self._flight_lock = threading.Lock()
        self._inflight: dict[tuple[float, ...], threading.Event] = {}
        self._seq_lock = threading.Lock()
        self._next_seq = scr.instances_processed

    # -- public entry ---------------------------------------------------------

    def process(
        self,
        instance: QueryInstance,
        deadline: Optional[Deadline] = None,
        overflow_reason: Optional[str] = None,
    ) -> PlanChoice:
        """Serve one instance, a group of one; safe to call from any
        number of threads.

        ``deadline`` is the budget the manager minted when the
        submission was queued, so queue wait drains it (the
        coordinator's default is minted here when None).
        ``overflow_reason`` marks a bounded-queue overflow being
        resolved in the submitting thread: an ``overload.queue_reject``
        event, then a selectivity-only probe (zero engine calls), and a
        miss goes straight to the degraded path with that reason.
        """
        outcome = self._serve_group([instance], deadline, overflow_reason)[0]
        if isinstance(outcome, BaseException):
            raise outcome
        return outcome

    def process_batch(
        self,
        instances: Sequence[QueryInstance],
        deadline: Optional[Deadline] = None,
        overflow_reason: Optional[str] = None,
    ) -> list["PlanChoice | BaseException"]:
        """Serve a group of instances in input order.

        Decision-identical to a :meth:`process` loop over the rows.
        Failures are isolated per item: the returned list holds, in
        input order, a :class:`PlanChoice` or the exception that
        instance raised.  ``deadline`` and ``overflow_reason`` are
        :meth:`process`'s, shared by every row of the group.
        """
        return self._serve_group(instances, deadline, overflow_reason)

    # -- the serving loop -----------------------------------------------------

    def _serve_group(
        self,
        instances: Sequence[QueryInstance],
        deadline: Optional[Deadline] = None,
        overflow_reason: Optional[str] = None,
    ) -> list["PlanChoice | BaseException"]:
        """Serve a group and feed its :class:`GroupRecord` to the
        registry once, at its end (:func:`feed_group`); with spans on,
        record the group as one unit.  The rows are served within its
        deadline (the coordinator's default when None).

        The group's span *is* the ambient trace context — the manager
        mints one per dispatched group, so queue wait and pool hand-off
        stay attributed — or a fresh root for a direct call outside any
        trace.  Everything recorded inside parents under it: optimizer
        calls and events stamped with their row's ``seq``, drift events
        the group's feed emits, and the group's sVector / Recost engine
        calls summed onto the span instead of one ``engine.*`` span each.
        """
        if not instances:
            return []
        start = self.clock.perf_counter()
        # Sequence numbers for span attribution are allocated atomically
        # here and passed explicitly: reading the SCR's lock-protected
        # counter lock-free would hand the same index to concurrent
        # threads.
        with self._seq_lock:
            first = self._next_seq
            self._next_seq = first + len(instances)
        seqs = range(first, first + len(instances))
        ov = self._overload
        if deadline is None and ov is not None:
            deadline = ov.new_deadline()
        obs = self._obs
        spans = obs.spans if obs is not None and obs.spans.enabled else None
        instruments = self.scr.instruments
        record = GroupRecord(spans is not None, instruments is not None)
        # The engine appends its calls to the record (only an
        # instrumented engine records anything).
        token = None if instruments is None else GROUP_RECORD.set(record)
        # One activation for the whole group (a fresh root's; the
        # ambient context is active already), the feed included.
        activation, ctx = _NO_SCOPE, None
        if spans is not None:
            ctx = current_context()
            if ctx is None:
                ctx = start_trace(ids=spans.ids)
                activation = activate(ctx)
        # The engine's per-call budget follows the remaining deadline.
        budget = _NO_SCOPE
        if deadline is not None:
            scope = getattr(self.engine, "call_budget", None)
            if scope is not None:
                budget = scope(deadline.expires_at)
        with activation:
            try:
                with budget:
                    results = self._serve_rows(
                        instances, seqs, start, deadline, overflow_reason,
                        record,
                    )
            finally:
                if token is not None:
                    GROUP_RECORD.reset(token)
                feed_group(record, instruments, self.stats)
            if spans is not None:
                spans.record(
                    "serving.batch", start, self.clock.perf_counter() - start,
                    span_id=ctx.span_id, template=self.template.name,
                    **self._group_columns(
                        seqs, results, None if ov is None else int(ov.level)
                    ),
                    **record.engine_attrs(),
                )
        return results

    def _serve_rows(
        self,
        instances: Sequence[QueryInstance],
        seqs: range,
        start: float,
        deadline: Optional[Deadline],
        overflow_reason: Optional[str],
        record: GroupRecord,
    ) -> list["PlanChoice | BaseException"]:
        """The one serving loop: every row decided in input order by
        :meth:`~repro.core.get_plan.GetPlan.probe_rows`.

        The rows' sVectors (a robust row's box, its log width recorded)
        are fetched first; a failed fetch fails its row only.  Admission
        is read once per group without a coordinator and a deadline,
        else per row when the row is reached (:meth:`_probe_admission`),
        and each row is then one completion (:meth:`_complete`).

        ``probe_rows`` computes the rows' factor matrices together and
        each row's checks when the row is reached; once a row changes
        what the later rows' probes depend on (the probe state), or
        a row's admission differs from the row before it, the remaining
        rows are probed again against the new view.  A probed hit that
        fails validation, or a miss that followed a single-flight
        leader, probes its row again; once ``depth`` reaches
        ``MAX_OPTIMISTIC_RETRIES`` the probe and commit run under the
        shard lock — the serial semantics, which always terminate.
        """
        if overflow_reason is not None:
            for seq in seqs:
                self.event("overload.queue_reject", seq, reason=overflow_reason)
        per_row = deadline is not None or self._overload is not None
        engine, robust = self.engine, self.robust
        results: list = [None] * len(instances)
        fetched: list[tuple[AnySelectivityVector, bool]] = []
        at: list[int] = []
        for i, (instance, seq) in enumerate(zip(instances, seqs)):
            engine.begin_instance(seq)
            try:
                sv = fetch_selectivity(engine, instance, robust)
                if robust and isinstance(sv[0], UncertainSelectivityVector):
                    record.widths.append(sv[0].total_log_width)
                fetched.append(sv)
                at.append(i)
            except BaseException as exc:  # noqa: BLE001 - per-item isolation
                results[i] = exc
                if per_row:
                    self._complete(deadline, exc)
        scr = self.scr
        cache, detector, get_plan = scr.cache, scr.detector, scr.get_plan
        usage = get_plan.candidate_order is _USAGE
        lock = self.lock
        svs = [sv for sv, _ in fetched]
        admission = _ADMITTED
        if per_row or overflow_reason is not None:
            admission = self._probe_admission(deadline, overflow_reason)
        tagged = seqs[-1]  # the row the engine's calls are attributed to
        rows = state = None
        lock_wait = 0.0
        for k, ((sv, degraded), i) in enumerate(zip(fetched, at)):
            seq = seqs[i]
            if seq != tagged:
                engine.begin_instance(seq)
                tagged = seq
            try:
                if per_row and k:
                    current = self._probe_admission(deadline, overflow_reason)
                    if current != admission:
                        admission, rows = current, None
                expired, max_recost, coverage, _ = admission
                choice = None
                if expired:
                    # The budget ran out, in queue or at an earlier
                    # row of the group: no probe at all.
                    choice = self._apply(
                        sv, seq, record, None, denied="deadline_expired"
                    )
                depth = 0
                while choice is None:
                    serial = depth >= MAX_OPTIMISTIC_RETRIES
                    if serial:
                        lock_wait += self._acquire()
                    try:
                        # The probe state (DESIGN.md §8): monotone, so the
                        # sum changes exactly when one of its terms does.
                        current = cache.epoch + detector.anchors_retired
                        if usage:
                            current += cache.usage_version
                        if rows is None or current != state:
                            # The state is read before the view: a write
                            # landing in between re-probes, never
                            # commits a stale view.
                            state = current
                            rows = get_plan.probe_rows(
                                svs[k:], self._recost, view=cache.columnar(),
                                max_recost=max_recost, coverage=coverage,
                            )
                        decision = next(rows)
                        if not decision.hit:
                            choice = self._miss(
                                sv, seq, decision, serial, deadline,
                                overflow_reason, record,
                            )
                        else:
                            lock_wait += self._acquire()
                            try:
                                if serial or self._commit_valid(decision):
                                    choice = scr.apply(
                                        sv, decision, seq=seq, record=record
                                    )
                            finally:
                                lock.release()
                    finally:
                        if serial:
                            lock.release()
                    if choice is None:
                        # Probe this row again at its own turn.
                        rows = None
                        depth += 1
                        if decision.hit:
                            # The anchor vanished between probe and
                            # commit: the certificate no longer stands.
                            self.stats.note_epoch_retry()
                            self.event("serving.epoch_retry", seq)
                # A stale sVector fallback certifies nothing: every
                # check ran against approximate selectivities.
                if degraded:
                    choice.certified = False
                record.latencies.append(self.clock.perf_counter() - start)
                record.choices.append(choice)
                results[i] = choice
            except BaseException as exc:  # noqa: BLE001 - per-item isolation
                rows = None  # a raising probe cannot be resumed
                results[i] = exc
            if per_row:
                self._complete(deadline, results[i])
        if lock_wait:
            self.stats.add_lock_wait(lock_wait)
        return results

    @staticmethod
    def _group_columns(
        seqs: range,
        results: list["PlanChoice | BaseException"],
        brownout: Optional[int],
    ) -> dict:
        """The ``serving.batch`` span's per-row columns: one tuple per
        attribute, aligned with ``seqs``.  ``coverage`` and ``reason``
        appear only when some row has one, ``brownout`` (the level after
        the group) only under an overload coordinator."""
        outcomes, checks, certificates, bounds, recosts = [], [], [], [], []
        coverage: list = []
        reason: list = []
        shaded = False  # some row has a coverage or a reason
        for outcome in results:
            if isinstance(outcome, BaseException):
                why = outcome.reason if isinstance(outcome, ShedError) else None
                outcomes.append("shed")
                checks.append(None)
                certificates.append(None)
                bounds.append(None)
                recosts.append(None)
                coverage.append(None)
                reason.append(why)
                shaded = shaded or why is not None
                continue
            bound, cover = outcome.certified_bound, outcome.coverage
            certified, check = outcome.certified, outcome.check
            outcomes.append("certified" if certified else "uncertified")
            checks.append(check)
            certificates.append(outcome.certificate)
            bounds.append(
                round(bound, 6) if certified and bound is not None else None
            )
            recosts.append(outcome.recost_calls)
            if cover is not None and cover != 1.0:
                shaded = True
            else:
                cover = None
            coverage.append(cover)
            reason.append(None)
        columns: dict = {
            "seqs": tuple(seqs),
            "outcomes": tuple(outcomes),
            "checks": tuple(checks),
            "certificates": tuple(certificates),
            "certified_bounds": tuple(bounds),
            "recost_calls": tuple(recosts),
        }
        if shaded:
            if any(c is not None for c in coverage):
                columns["coverage"] = tuple(coverage)
            if any(r is not None for r in reason):
                columns["reason"] = tuple(reason)
        if brownout is not None:
            columns["brownout"] = (brownout,) * len(seqs)
        return columns

    # -- overload plumbing ----------------------------------------------------

    def _now(self) -> float:
        return self.clock.monotonic()

    def _probe_admission(
        self, deadline: Optional[Deadline], overflow_reason: Optional[str]
    ) -> tuple[bool, Optional[int], Optional[float], int]:
        """A row's admission, read when the row is reached: whether its
        budget already expired (no probe, the degraded path); the
        probe's Recost cap, 0 (selectivity-only) under an overflow,
        brownout SHED or a budget too small to fund engine work, whose
        recosts must not count as engine faults; the robust box's
        coverage, shrunk from COVERAGE_RELAXED (more hits, certificates
        honestly ``probabilistic``); and the brownout level, which the
        λ of a probe's budget vector follows (the pressure hook)."""
        ov = self._overload
        level = BrownoutLevel.NORMAL if ov is None else ov.level
        remaining = float("inf") if deadline is None else deadline.remaining(self._now())
        floor = 0.0 if ov is None else ov.policy.min_optimize_budget
        selectivity_only = (
            overflow_reason is not None or level >= BrownoutLevel.SHED or remaining <= floor
        )
        relaxed = self.robust and level >= BrownoutLevel.COVERAGE_RELAXED
        return (
            overflow_reason is None and remaining <= 0.0,
            0 if selectivity_only else None,
            BROWNOUT_COVERAGE if relaxed else None,
            level,
        )

    def _complete(self, deadline: Optional[Deadline], outcome) -> None:
        """Count one finished row: a deadline miss when its budget ran
        out, and one completion in the coordinator's brownout window."""
        missed = deadline is not None and deadline.expired(self._now())
        if missed:
            self.stats.note_deadline_miss()
        if self._overload is not None:
            self._overload.note_completed(
                missed, shed=isinstance(outcome, ShedError)
            )

    # -- probe → validate → apply -------------------------------------------

    def _acquire(self) -> float:
        """Take the shard's write lock; returns the seconds spent
        waiting for it (0.0 when it was free)."""
        if self.lock.acquire(False):
            return 0.0
        waited_from = self.clock.perf_counter()
        self.lock.acquire()
        return self.clock.perf_counter() - waited_from

    def _commit_valid(self, decision) -> bool:
        """Optimistic validation of a probed hit; caller holds the lock.

        A hit commits only into the store it was probed against: appends
        keep the store (no row moves), while a drop, an adoption or a
        recost sweep replaces it and the row is probed again.  Retiring
        an anchor (Appendix G) replaces nothing, so a cost-check hit
        re-reads the retired bit here; retired anchors still serve
        selectivity hits, as in the serial run.
        """
        view = decision.view
        if not self.scr.cache.holds(view):
            return False
        return not (decision.check is _COST and view.cells["retired"][decision.row])

    # -- miss path with single-flight -----------------------------------------

    def _miss(
        self,
        sv: AnySelectivityVector,
        seq: int,
        decision,
        serial: bool,
        deadline: Optional[Deadline],
        deny: Optional[str],
        record: GroupRecord,
    ) -> Optional[PlanChoice]:
        """Admission, then the optimizer call outside the lock, then
        :meth:`_apply`.  Concurrent misses on one vector collapse to one
        leader; a follower waits for it and returns None, and the loop
        probes its row again.  A serial-mode miss (lock held) skips
        single-flight, since a follower waiting under the lock would
        block the leader."""
        # Keyed on the point estimate: the optimizer runs at the point,
        # so two robust misses with the same point (however wide their
        # boxes) want the same plan registered.
        key = as_point(sv).values
        flight = None  # this request's own flight, when it leads one
        if not serial:
            with self._flight_lock:
                waiting = self._inflight.get(key)
                if waiting is None:
                    flight = self._inflight[key] = threading.Event()
            if waiting is not None:
                self._follow(waiting, seq, deadline)
                return None
        try:
            reason, holds_gate = self._admission(deadline, deny)
            result = unavailable = None
            try:
                if reason is None:
                    left = self.stats.engine_calls.enter()
                    try:
                        result = self.scr._optimize(
                            sv, self.scr.incumbent(decision)
                        )
                    except OptimizeUnavailableError as exc:
                        unavailable = exc
                    finally:
                        left.append(None)
                choice = self._apply(sv, seq, record, decision, result, reason)
            finally:
                if holds_gate:
                    self._overload.release_optimize()
            if choice is None:
                raise unavailable  # empty cache: nothing can be served
            return choice
        finally:
            if flight is not None:
                with self._flight_lock:
                    self._inflight.pop(key, None)
                flight.set()

    def _follow(
        self, flight: threading.Event, seq: int, deadline: Optional[Deadline]
    ) -> None:
        """Wait for the leader optimizing this exact vector to register.

        The caller then re-probes — the fresh anchor (G = L = 1,
        S ≤ λ_r ≤ λ) guarantees a selectivity hit.  The wait never
        outlives the submission's remaining budget.
        """
        self.stats.note_single_flight()
        self.event("serving.single_flight_collapse", seq)
        timeout = FLIGHT_TIMEOUT_SECONDS
        if deadline is not None:
            timeout = min(timeout, max(0.0, deadline.remaining(self._now())))
        obs = self._obs
        if obs is None or not obs.spans.enabled:
            flight.wait(timeout=timeout)
            return
        wait_start = self.clock.perf_counter()
        flight.wait(timeout=timeout)
        # The collapse is the whole point of single-flight, so the
        # follower's wait gets its own span — a trace of the rerouted
        # request shows *why* it did no optimizer call.
        obs.spans.record(
            "serving.single_flight_wait", wait_start,
            self.clock.perf_counter() - wait_start,
            template=self.template.name, seq=seq,
        )

    def _admission(
        self, deadline: Optional[Deadline], deny: Optional[str]
    ) -> tuple[Optional[str], bool]:
        """Decide the miss's fate: ``(denial_reason, holds_gate)``.

        A standing denial (queue overflow) wins outright; an expired
        deadline denies next; otherwise the coordinator applies brownout
        level, remaining budget and the optimizer gate.
        """
        if deny is not None:
            return deny, False
        if deadline is not None and deadline.expired(self._now()):
            return "deadline_expired", False
        if self._overload is None:
            return None, False
        reason, holds_gate = self._overload.optimize_admission(deadline)
        if reason == "gate_timeout":
            self.stats.note_gate_timeout()
        return reason, holds_gate

    def _apply(
        self,
        sv: AnySelectivityVector,
        seq: int,
        record: GroupRecord,
        decision,
        result=None,
        denied: Optional[str] = None,
    ) -> Optional[PlanChoice]:
        """:meth:`SCR.apply` a miss (or an unprobed request) under the
        write lock.  A denied request is labeled: an
        ``overload.uncertified_serve`` event with the reason code, or —
        with nothing cached to serve — ``overload.shed`` and a
        :class:`ShedError`."""
        waited = self._acquire()
        try:
            choice = self.scr.apply(sv, decision, result, denied, seq, record)
        finally:
            self.lock.release()
        if waited:
            self.stats.add_lock_wait(waited)
        if denied is None:
            return choice
        if choice is None:
            reason = f"{denied}:no_cached_plan"
            self.stats.note_shed(reason)
            self.event("overload.shed", seq, reason=reason)
            raise ShedError(reason, template=self.template.name)
        self.stats.note_overload_serve(denied)
        self.event("overload.uncertified_serve", seq, reason=denied)
        return choice

    # -- shared plumbing ------------------------------------------------------

    def event(self, name: str, seq: Optional[int], **attrs: object) -> None:
        """Record one serving/overload event span for this shard, stamped
        with its request's ``seq`` (``None``: it belongs to no request)."""
        if self._obs is not None:
            head: dict = {"template": self.template.name}
            if seq is not None:
                head["seq"] = seq
            self._obs.spans.event(name, **head, **attrs)

    def _recost(self, shrunken: ShrunkenMemo, sv: SelectivityVector) -> float:
        left = self.stats.engine_calls.enter()
        try:
            return self.engine.recost(shrunken, sv)
        finally:
            left.append(None)
