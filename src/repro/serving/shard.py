"""One template's shard: its manager state, and SCR served thread-safely
with optimistic reads.

Every request is served by one loop over a **group** of rows in input
order: :meth:`TemplateShard.process` is a group of one,
:meth:`TemplateShard.process_batch` a group of any size (DESIGN.md §8).
A group decides exactly what a :meth:`~TemplateShard.process` loop over
its rows would:

* a group of two or more rows without admission control is probed
  together, lock-free, against one immutable
  :class:`~repro.core.columnar.ColumnarInstances` view (copy-on-write,
  so taking it is O(1) between mutations) by
  :meth:`~repro.core.get_plan.GetPlan.probe_rows`, which takes each
  row's decision only when the walk in input order reaches it.  Once a
  row changes what the later rows would see — a registration, an
  eviction, an Appendix G retirement, another thread's write — the
  remaining rows are probed again, in one more batch probe against the
  new view;
* every other row — a group of one, a row whose admission is decided at
  its own turn (overload coordinator or deadline), a hit whose anchor
  vanished before its commit — is probed alone, lock-free, at its own
  turn;
* a probed **hit** is committed under the shard's write lock only after
  **optimistic validation** — the cache epoch is still the view's (or,
  for a row probed alone, the specific anchor is still live: its plan
  cached, not retired).  The certified bound ``S·G·L`` / ``S·R·L``
  depends only on write-once anchor fields, so a validated commit
  certifies exactly what a fully serial run would have;
* a **miss** makes the optimizer call *outside* the lock, collapsed
  through a per-vector **single-flight** table so concurrent misses on
  the same selectivity vector cost one optimizer call; only
  ``manageCache`` mutations (register / evict / retire) hold the write
  lock.

Overload protection (DESIGN.md §9) is decided per row at its own turn:
every row may carry an end-to-end :class:`Deadline`, misses pass
through the coordinator's optimizer-gate admission, and denied work is
resolved on the **degraded path** — the nearest cached plan served
``certified=False`` with a reason code, or a :class:`ShedError` when
the cache is empty.  Without an :class:`OverloadCoordinator` or a
deadline no row is denied.

With spans on, a group is one unit of telemetry whatever its size: one
trace context and one ``serving.batch`` span whose per-row columns hold
each row's outcome and certificate (DESIGN.md §10).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager, nullcontext
from typing import Optional, Sequence

from ..core.get_plan import CandidateOrder, CheckKind, CheckMode
from ..core.scr import SCR
from ..core.technique import PlanChoice, fetch_selectivity
from ..engine.api import ENGINE_ROLLUP, EngineRollup
from ..engine.resilience import OptimizeUnavailableError
from ..obs.audit import GuaranteeAudit
from ..obs.clock import SYSTEM_CLOCK
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
        self.robust = scr.check_mode is not CheckMode.POINT
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

        ``deadline`` is the submission's end-to-end budget (the
        coordinator's default is attached when None).  ``overflow_reason``
        marks a bounded-queue overflow being resolved in the submitting
        thread: an ``overload.queue_reject`` event, then a
        selectivity-only probe (zero engine calls), and a miss goes
        straight to the degraded path with that reason.
        """
        outcome = self._serve_group([instance], deadline, overflow_reason)[0]
        if isinstance(outcome, BaseException):
            raise outcome
        return outcome

    def process_batch(
        self,
        instances: Sequence[QueryInstance],
        deadline: Optional[Deadline] = None,
    ) -> list["PlanChoice | BaseException"]:
        """Serve a group of instances in input order.

        Decision-identical to a :meth:`process` loop over the rows: a
        group without admission control is probed in one batch probe,
        and the rows after one that changed the cache in one more; with
        overload protection or a deadline in force, admission is decided
        per row at its own turn.  Failures are isolated per item: the
        returned list holds, in input order, a :class:`PlanChoice` or
        the exception that instance raised.
        """
        return self._serve_group(instances, deadline)

    # -- the serving loop -----------------------------------------------------

    def _serve_group(
        self,
        instances: Sequence[QueryInstance],
        deadline: Optional[Deadline] = None,
        overflow_reason: Optional[str] = None,
    ) -> list["PlanChoice | BaseException"]:
        """Serve a group; with spans on, record it as one unit.

        The group's span *is* the ambient trace context — the manager
        mints one per dispatched group, so queue wait and pool hand-off
        stay attributed — or a fresh root for a direct call outside any
        trace.  Everything recorded inside parents under it: optimizer
        calls, phase spans and events stamped with their row's ``seq``,
        and the group's sVector / Recost engine calls summed onto the
        span instead of one ``engine.*`` span each.
        """
        if not instances:
            return []
        start = self.clock.perf_counter()
        obs = self._obs
        if obs is None or not obs.spans.enabled:
            return self._serve_rows(instances, start, deadline, overflow_reason)[0]
        spans = obs.spans
        ctx = current_context() or start_trace(ids=spans.ids)
        rollup = EngineRollup()
        token = ENGINE_ROLLUP.set(rollup)
        try:
            # One activation for the whole group, completion bookkeeping
            # included: a brownout move a row's completion tips is an
            # event of that row.
            with activate(ctx):
                results, seqs, brownout = self._serve_rows(
                    instances, start, deadline, overflow_reason
                )
                spans.record(
                    "serving.batch", start, self.clock.perf_counter() - start,
                    span_id=ctx.span_id, template=self.template.name,
                    **self._group_columns(seqs, results, brownout),
                    **rollup.attrs(),
                )
        finally:
            ENGINE_ROLLUP.reset(token)
        return results

    def _serve_rows(
        self,
        instances: Sequence[QueryInstance],
        start: float,
        deadline: Optional[Deadline],
        overflow_reason: Optional[str],
    ) -> tuple[list, list[int], Optional[list[int]]]:
        """Serve the rows in input order; returns their outcomes (a
        :class:`PlanChoice` or the exception that row raised), their
        sequence ids, and the brownout level after each row (None
        without a coordinator)."""
        n = len(instances)
        # Sequence numbers for span attribution are allocated atomically
        # here and passed explicitly: reading the SCR's lock-protected
        # counter lock-free would hand the same index to concurrent
        # threads.
        with self._seq_lock:
            first = self._next_seq
            self._next_seq += n
        seqs = list(range(first, first + n))
        ov = self._overload
        if n > 1 and ov is None and deadline is None:
            return self._serve_in_order(instances, seqs, start), seqs, None
        results: list = []
        brownout: Optional[list[int]] = [] if ov is not None else None
        for instance, seq in zip(instances, seqs):
            results.append(
                self._serve_admitted(
                    instance, seq, start, deadline, overflow_reason
                )
            )
            if brownout is not None:
                brownout.append(int(ov.level))
        return results, seqs, brownout

    def _serve_in_order(
        self, instances: Sequence[QueryInstance], seqs: list[int], start: float
    ) -> list["PlanChoice | BaseException"]:
        """Rows served in order on one batch probe of the group.

        :meth:`~repro.core.get_plan.GetPlan.probe_rows` computes the
        rows' factor matrices together and each row's checks when the
        row is reached.  A probed hit commits while the view it was
        probed against is current; a probed miss goes to :meth:`_miss`.
        Once a row changes what the later rows' probes depend on
        (:meth:`_probe_state`), the remaining rows are probed again, in
        one more batch probe against the new view.  No row's Recost
        calls are spent against a view that went stale before its turn.
        """
        scr = self.scr
        svs: list[AnySelectivityVector] = []
        degraded: list[bool] = []
        for instance, seq in zip(instances, seqs):
            self.engine.begin_instance(seq)
            sv, deg = self._fetch(instance)
            svs.append(sv)
            degraded.append(deg)
        results: list = []
        rows = view = state = None
        lock_wait = 0.0
        for i, (sv, seq) in enumerate(zip(svs, seqs)):
            self.engine.begin_instance(seq)
            try:
                current = self._probe_state()
                if rows is None or current != state:
                    # The state is read before the view: a write landing
                    # in between re-probes, never commits a stale view.
                    state = current
                    view = scr.cache.columnar()
                    rows = scr.get_plan.probe_rows(
                        svs[i:], self._recost, view=view
                    )
                decision = next(rows)
                if not decision.hit:
                    choice = self._miss(sv, seq, decision, depth=0)
                else:
                    choice = None
                    waited_from = self.clock.perf_counter()
                    with self.lock:  # _locked(), booked once per group
                        lock_wait += self.clock.perf_counter() - waited_from
                        if (
                            scr.cache.epoch == view.epoch
                            and self._commit_valid(decision, view)
                        ):
                            choice = scr.apply(sv, decision, seq=seq)
                    if choice is None:
                        # The anchor vanished between probe and commit:
                        # the certificate no longer stands.
                        choice = self._retry(sv, seq, depth=1)
                results.append(self._finish(choice, degraded[i], start))
            except BaseException as exc:  # noqa: BLE001 - per-item isolation
                rows = None  # a raising probe cannot be resumed
                results.append(exc)
        self.stats.add_lock_wait(lock_wait)
        return results

    def _probe_state(self) -> int:
        """What a probed decision depends on besides its view's rows:
        the cache epoch (registrations, evictions), the Appendix G
        detector's retirements (which flip an anchor without bumping the
        epoch) and, under the usage candidate order, the usage counter
        every hit advances.  All three only grow, so their sum changes
        exactly when one of them does."""
        scr = self.scr
        detector = scr.detector
        state = scr.cache.epoch
        if detector is not None:
            state += detector.anchors_retired
        if scr.get_plan.candidate_order is CandidateOrder.USAGE:
            state += scr.cache.usage_version
        return state

    def _serve_admitted(
        self,
        instance: QueryInstance,
        seq: int,
        start: float,
        deadline: Optional[Deadline],
        overflow_reason: Optional[str],
    ) -> "PlanChoice | BaseException":
        """One row probed alone, with its admission decided at its own
        turn: the queue-overflow denial, an expired deadline (no probe
        at all), selectivity-only probes under SHED or a nearly spent
        budget, brownout coverage, and the engine's per-call budget.
        Returns the row's choice or the exception it raised."""
        self.engine.begin_instance(seq)
        ov = self._overload
        if deadline is None and ov is not None:
            deadline = ov.new_deadline()
        shed = False
        try:
            with self._engine_budget(deadline):
                if overflow_reason is not None:
                    self.event(
                        "overload.queue_reject", seq, reason=overflow_reason
                    )
                sv, degraded = self._fetch(instance)
                coverage = self._brownout_coverage()
                now = self._now()
                if (
                    overflow_reason is None
                    and deadline is not None
                    and deadline.expired(now)
                ):
                    # The budget died in queue: skip the probe entirely
                    # and resolve through the degraded path.
                    choice = self._apply(sv, seq, None, denied="deadline_expired")
                else:
                    # Selectivity-only probes (zero engine calls) for an
                    # overflow resolved in the submitting thread, under
                    # brownout SHED, and for a nearly-expired budget that
                    # funds no engine work — its recosts must not count
                    # as engine faults.
                    selectivity_only = (
                        overflow_reason is not None
                        or (ov is not None and ov.level >= BrownoutLevel.SHED)
                        or (
                            deadline is not None
                            and deadline.remaining(now)
                            <= self._min_optimize_budget()
                        )
                    )
                    choice = self._serve(
                        sv, seq, deadline=deadline,
                        max_recost=0 if selectivity_only else None,
                        deny=overflow_reason, coverage=coverage,
                    )
                return self._finish(choice, degraded, start)
        except ShedError as exc:
            shed = True
            return exc
        except BaseException as exc:  # noqa: BLE001 - per-item isolation
            return exc
        finally:
            missed = deadline is not None and deadline.expired(self._now())
            if missed:
                self.stats.note_deadline_miss()
            if ov is not None:
                ov.note_completed(missed, shed=shed)

    def _fetch(self, instance: QueryInstance) -> tuple[AnySelectivityVector, bool]:
        """The row's sVector (its box on robust shards) and whether it
        is a stale fallback."""
        fetched = fetch_selectivity(self.engine, instance, self.robust)
        if self.robust and isinstance(fetched[0], UncertainSelectivityVector):
            self.stats.note_interval_width(fetched[0].total_log_width)
        return fetched

    def _finish(
        self, choice: PlanChoice, degraded: bool, start: float
    ) -> PlanChoice:
        """Book a served row: a stale sVector fallback certifies nothing
        (every check ran against approximate selectivities)."""
        if degraded:
            choice.certified = False
        self.stats.observe(
            self.clock.perf_counter() - start, choice.check, choice.certified,
            certificate=choice.certificate,
        )
        return choice

    @staticmethod
    def _group_columns(
        seqs: list[int],
        results: list["PlanChoice | BaseException"],
        brownout: Optional[list[int]],
    ) -> dict:
        """The ``serving.batch`` span's per-row columns: one tuple per
        attribute, aligned with ``seqs``.  ``coverage`` and ``reason``
        appear only when some row has one, ``brownout`` only under an
        overload coordinator."""
        rows = []
        for outcome in results:
            if isinstance(outcome, BaseException):
                reason = outcome.reason if isinstance(outcome, ShedError) else None
                rows.append(("shed", None, None, None, None, None, reason))
                continue
            bound, coverage = outcome.certified_bound, outcome.coverage
            rows.append((
                "certified" if outcome.certified else "uncertified",
                getattr(outcome.check, "value", outcome.check),
                outcome.certificate,
                round(bound, 6)
                if outcome.certified and bound is not None else None,
                outcome.recost_calls,
                coverage if coverage is not None and coverage != 1.0 else None,
                None,
            ))
        outcomes, checks, certificates, bounds, recosts, coverage, reason = (
            zip(*rows)
        )
        columns: dict = {
            "seqs": tuple(seqs),
            "outcomes": outcomes,
            "checks": checks,
            "certificates": certificates,
            "certified_bounds": bounds,
            "recost_calls": recosts,
        }
        if any(c is not None for c in coverage):
            columns["coverage"] = coverage
        if any(r is not None for r in reason):
            columns["reason"] = reason
        if brownout is not None:
            columns["brownout"] = tuple(brownout)
        return columns

    def _brownout_coverage(self) -> Optional[float]:
        """COVERAGE_RELAXED step: robust shards tolerate more estimation
        risk under pressure by probing a box shrunk to the brownout
        coverage — more hits, certificates honestly downgraded to
        ``probabilistic``.  Point-mode shards have no box to shrink."""
        ov = self._overload
        if (
            self.robust
            and ov is not None
            and ov.level >= BrownoutLevel.COVERAGE_RELAXED
        ):
            return BROWNOUT_COVERAGE
        return None

    # -- overload plumbing ----------------------------------------------------

    def _now(self) -> float:
        return self.clock.monotonic()

    def _min_optimize_budget(self) -> float:
        if self._overload is not None:
            return self._overload.policy.min_optimize_budget
        return 0.0

    def _engine_budget(self, deadline: Optional[Deadline]):
        """Scope the engine's per-call budget to the remaining deadline."""
        if deadline is None:
            return nullcontext()
        budget = getattr(self.engine, "call_budget", None)
        if budget is None:
            return nullcontext()
        return budget(deadline.expires_at)

    # -- probe → validate → apply -------------------------------------------

    @contextmanager
    def _locked(self):
        """The shard's write lock, with the wait booked to the stats."""
        acquired_at = self.clock.perf_counter()
        with self.lock:
            self.stats.add_lock_wait(self.clock.perf_counter() - acquired_at)
            yield

    def _serve(
        self,
        sv: AnySelectivityVector,
        seq: int,
        depth: int = 0,
        deadline: Optional[Deadline] = None,
        max_recost: Optional[int] = None,
        deny: Optional[str] = None,
        coverage: Optional[float] = None,
    ) -> PlanChoice:
        """Probe lock-free, validate a hit under the lock, apply it; a
        miss goes to :meth:`_miss`.  After ``MAX_OPTIMISTIC_RETRIES``
        the whole cycle runs under the (re-entrant) write lock — the
        serial semantics, which always terminate."""
        scr = self.scr
        serial = depth >= MAX_OPTIMISTIC_RETRIES
        with self._locked() if serial else nullcontext():
            view = scr.cache.columnar()
            decision = scr.get_plan.probe(
                sv, self._recost, view=view,
                max_recost=max_recost, coverage=coverage,
            )
            if not decision.hit:
                return self._miss(
                    sv, seq, decision, depth, deadline, max_recost, deny,
                    coverage,
                )
            with self._locked():
                if serial or self._commit_valid(decision, view):
                    return scr.apply(sv, decision, seq=seq)
        # The anchor vanished (plan evicted / retired) between probe and
        # commit: the certificate no longer stands, so re-probe fresh.
        return self._retry(
            sv, seq, depth + 1, deadline=deadline, max_recost=max_recost,
            deny=deny, coverage=coverage,
        )

    def _retry(
        self, sv: AnySelectivityVector, seq: int, depth: int, **serve
    ) -> PlanChoice:
        """Re-probe a row whose probed hit failed validation."""
        self.stats.note_epoch_retry()
        self.event("serving.epoch_retry", seq)
        return self._serve(sv, seq, depth, **serve)

    def _commit_valid(self, decision, view) -> bool:
        """Optimistic validation of a probed hit; caller holds the lock.

        Retiring an anchor (Appendix G) flips its flag *without* bumping
        the cache epoch, so the retired bit must be re-read here even on
        the epoch fast-path — otherwise a cost-check hit probed just
        before a concurrent retirement would certify a bound the
        violation detector already invalidated.  Retired anchors still
        serve selectivity hits (serial semantics keep them in the
        selectivity check); only cost-check certificates die with them.
        """
        anchor = decision.anchor
        if anchor is None:
            return False
        if decision.check is CheckKind.COST and anchor.retired:
            return False
        if self.scr.cache.epoch == view.epoch:
            return True
        return self.scr.cache.has_plan(decision.plan_id)

    # -- miss path with single-flight -----------------------------------------

    def _miss(
        self,
        sv: AnySelectivityVector,
        seq: int,
        decision,
        depth: int,
        deadline: Optional[Deadline] = None,
        max_recost: Optional[int] = None,
        deny: Optional[str] = None,
        coverage: Optional[float] = None,
    ) -> PlanChoice:
        """Admission, then the optimizer call outside the lock, then
        :meth:`_apply`.  Concurrent misses on one vector collapse to one
        leader; a serial-mode miss (lock held) skips single-flight, since
        a follower waiting under the lock would block the leader."""
        # Keyed on the point estimate: the optimizer runs at the point,
        # so two robust misses with the same point (however wide their
        # boxes) want the same plan registered.
        key = as_point(sv).values
        flight = None  # this request's own flight, when it leads one
        if depth < MAX_OPTIMISTIC_RETRIES:
            with self._flight_lock:
                waiting = self._inflight.get(key)
                if waiting is None:
                    flight = self._inflight[key] = threading.Event()
            if waiting is not None:
                self._follow(waiting, seq, deadline)
                return self._serve(
                    sv, seq, depth + 1, deadline=deadline,
                    max_recost=max_recost, deny=deny, coverage=coverage,
                )
        try:
            reason, holds_gate = self._admission(deadline, deny)
            result = unavailable = None
            try:
                if reason is None:
                    try:
                        with self.stats.engine_calls.track():
                            result = self.scr._optimize(sv)
                    except OptimizeUnavailableError as exc:
                        unavailable = exc
                choice = self._apply(sv, seq, decision, result, reason)
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
        decision,
        result=None,
        denied: Optional[str] = None,
    ) -> Optional[PlanChoice]:
        """:meth:`SCR.apply` a miss (or an unprobed request) under the
        write lock.  A denied request is labeled: an
        ``overload.uncertified_serve`` event with the reason code, or —
        with nothing cached to serve — ``overload.shed`` and a
        :class:`ShedError`."""
        with self._locked():
            choice = self.scr.apply(sv, decision, result, denied, seq)
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
        with self.stats.engine_calls.track():
            return self.engine.recost(shrunken, sv)
