"""One template's shard: its manager state, and SCR served thread-safely
with optimistic reads.

The lock discipline (DESIGN.md §8):

* the **selectivity/cost probe** runs lock-free against an immutable
  :class:`~repro.core.plan_cache.CacheSnapshot` of the instance list
  (copy-on-write, so snapshotting is O(1) between mutations);
* a probed **hit** is committed under the shard's write lock only after
  **optimistic validation** — either the cache epoch is unchanged, or
  the specific anchor is still live (its plan cached, not retired).
  The certified bound ``S·G·L`` / ``S·R·L`` depends only on write-once
  anchor fields, so a validated commit certifies exactly what a fully
  serial run would have;
* a **miss** makes the optimizer call *outside* the lock, collapsed
  through a per-vector **single-flight** table so concurrent misses on
  the same selectivity vector cost one optimizer call; only
  ``manageCache`` mutations (register / evict / retire) hold the write
  lock.

Overload protection (DESIGN.md §9) threads through the same paths:
every instance may carry an end-to-end :class:`Deadline`, misses pass
through the coordinator's optimizer-gate admission, and denied work is
resolved on the **degraded path** — the nearest cached plan served
``certified=False`` with a reason code, or a :class:`ShedError` when
the cache is empty.  Without an :class:`OverloadCoordinator` the shard
behaves exactly as before.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager, nullcontext
from typing import Optional, Sequence

from ..core.get_plan import CheckKind, CheckMode
from ..core.scr import SCR
from ..core.technique import PlanChoice, fetch_selectivity
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
from .overload import BrownoutLevel, Deadline, OverloadCoordinator, ShedError
from .stats import ServingStats

#: Probe/commit retries before degrading to the fully-serial path; a
#: retry only happens when another thread invalidated the snapshot
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
        # Instance sequence numbers for span attribution are allocated
        # atomically here and passed explicitly: reading the SCR's
        # lock-protected counter lock-free would hand the same index to
        # concurrent threads.
        self._seq_lock = threading.Lock()
        self._next_seq = scr.instances_processed

    # -- public entry ---------------------------------------------------------

    def process(
        self,
        instance: QueryInstance,
        deadline: Optional[Deadline] = None,
        overflow_reason: Optional[str] = None,
    ) -> PlanChoice:
        """Serve one instance; safe to call from any number of threads.

        ``deadline`` is the submission's end-to-end budget (the
        coordinator's default is attached when None).  ``overflow_reason``
        marks a bounded-queue overflow being resolved in the submitting
        thread: an ``overload.queue_reject`` event, then a
        selectivity-only probe (zero engine calls), and a miss goes
        straight to the degraded path with that reason.
        """
        start = self.clock.perf_counter()
        with self._seq_lock:
            seq = self._next_seq
            self._next_seq += 1
        self.engine.begin_instance(seq)
        ov = self._overload
        if deadline is None and ov is not None:
            deadline = ov.new_deadline()
        shed = False
        outcome = "shed"
        obs = self._obs
        spans_on = obs is not None and obs.spans.enabled
        # The request's trace context: the manager mints one per
        # submission (so queue wait and pool hand-off stay attributed);
        # direct shard calls outside any trace get a fresh root.  The
        # ``serving.process`` span *is* this context's span — everything
        # recorded inside (scr.* phases, engine.* calls, single-flight
        # waits) parents under it.
        ctx = None
        if spans_on:
            ctx = current_context()
            if ctx is None:
                ctx = start_trace(ids=obs.spans.ids)
        extra: dict = {}
        # One activation for the whole request, completion bookkeeping
        # included: a brownout move this completion tips is an event of
        # this request.
        with activate(ctx) if ctx is not None else nullcontext():
            try:
                with self._engine_budget(deadline):
                    if overflow_reason is not None:
                        self.event(
                            "overload.queue_reject", seq, reason=overflow_reason
                        )
                    choice = self._process_inner(
                        instance, seq, deadline, overflow_reason, start
                    )
                    outcome = "certified" if choice.certified else "uncertified"
                    if spans_on:
                        extra = self._choice_attrs(choice)
                    return choice
            except ShedError as exc:
                shed = True
                if spans_on:
                    extra["reason"] = exc.reason
                raise
            finally:
                missed = deadline is not None and deadline.expired(self._now())
                if missed:
                    self.stats.note_deadline_miss()
                if ov is not None:
                    ov.note_completed(missed, shed=shed)
                    if spans_on:
                        extra["brownout"] = int(ov.level)
                if spans_on:
                    obs.spans.record(
                        "serving.process", start,
                        self.clock.perf_counter() - start,
                        span_id=ctx.span_id if ctx is not None else None,
                        template=self.template.name, seq=seq,
                        outcome=outcome, **extra,
                    )

    @staticmethod
    def _choice_attrs(choice: PlanChoice) -> dict:
        """Guarantee-forensics attributes for the request-level span."""
        attrs: dict = {
            "check": getattr(choice.check, "value", choice.check),
            "certificate": choice.certificate,
            "recost_calls": choice.recost_calls,
        }
        if choice.used_optimizer:
            attrs["used_optimizer"] = True
        if choice.certified and choice.certified_bound is not None:
            attrs["certified_bound"] = round(choice.certified_bound, 6)
        if choice.coverage is not None and choice.coverage != 1.0:
            attrs["coverage"] = choice.coverage
        return attrs

    def process_batch(
        self,
        instances: Sequence[QueryInstance],
        deadline: Optional[Deadline] = None,
    ) -> list["PlanChoice | BaseException"]:
        """Serve a batch of instances against one cache snapshot.

        The whole batch is probed lock-free in one broadcasted
        :meth:`~repro.core.get_plan.GetPlan.probe_batch` pass, then all
        validated hits commit under a single lock acquisition; misses
        and invalidated hits resolve through the ordinary per-instance
        paths (single-flight, optimizer, manageCache).  Failures are
        isolated per item: the returned list holds, in input order, a
        :class:`PlanChoice` or the exception that instance raised.

        The batched pass is a plain throughput optimization over one
        snapshot — it does not interleave commits between batch rows, so
        a miss earlier in the batch does not seed a hit for a later row
        the way sequential submission might.  With overload protection
        or a deadline in force (admission decisions are per instance) it
        degrades to a :meth:`process` loop with the same per-item
        isolation.
        """
        if self._overload is not None or deadline is not None:
            results: list[PlanChoice | BaseException] = []
            for instance in instances:
                try:
                    results.append(self.process(instance, deadline=deadline))
                except BaseException as exc:  # noqa: BLE001 - per-item isolation
                    results.append(exc)
            return results
        return self._process_batch_fast(instances)

    def _process_batch_fast(
        self, instances: Sequence[QueryInstance]
    ) -> list["PlanChoice | BaseException"]:
        start = self.clock.perf_counter()
        scr = self.scr
        obs = self._obs
        spans_on = obs is not None and obs.spans.enabled
        # One trace context per batch row: even though one thread probes
        # the whole batch, each row is its own request and gets its own
        # request-level span (child of the submit-time ambient context,
        # or a fresh root).  The batch-wide scr.* probe spans stay under
        # the ambient context — they belong to the batch, not one row.
        ctxs: list = [None] * len(instances)
        if spans_on:
            ambient = current_context()
            ids = obs.spans.ids
            for i in range(len(instances)):
                ctxs[i] = (
                    ambient.child(ids) if ambient is not None
                    else start_trace(ids=ids)
                )
        seqs: list[int] = []
        svs: list[AnySelectivityVector] = []
        degraded: list[bool] = []
        results: list[PlanChoice | BaseException] = [None] * len(instances)  # type: ignore[list-item]
        for i, instance in enumerate(instances):
            with self._seq_lock:
                seq = self._next_seq
                self._next_seq += 1
            seqs.append(seq)
            self.engine.begin_instance(seq)
            with activate(ctxs[i]) if ctxs[i] is not None else nullcontext():
                sv, deg = fetch_selectivity(self.engine, instance, self.robust)
            if self.robust and isinstance(sv, UncertainSelectivityVector):
                self.stats.note_interval_width(sv.total_log_width)
            svs.append(sv)
            degraded.append(deg)
        snapshot = scr.cache.snapshot()
        decisions = scr.get_plan.probe_batch(
            svs, self._recost, entries=snapshot.entries
        )
        misses: list[int] = []
        retries: list[int] = []
        with self._locked():
            for i, decision in enumerate(decisions):
                if not decision.hit:
                    misses.append(i)
                elif self._commit_valid(decision, snapshot):
                    results[i] = scr.apply(svs[i], decision, seq=seqs[i])
                else:
                    retries.append(i)
        for i in retries + misses:
            self.engine.begin_instance(seqs[i])
            try:
                with activate(ctxs[i]) if ctxs[i] is not None else nullcontext():
                    if decisions[i].hit:
                        # Anchor vanished between probe and commit: the
                        # same re-probe a failed single validation runs.
                        self.stats.note_epoch_retry()
                        self.event("serving.epoch_retry", seqs[i])
                        results[i] = self._serve(svs[i], seqs[i], depth=1)
                    else:
                        results[i] = self._miss(
                            svs[i], seqs[i], decisions[i], depth=0
                        )
            except BaseException as exc:  # noqa: BLE001 - per-item isolation
                results[i] = exc
        for i, outcome in enumerate(results):
            extra: dict = {}
            if isinstance(outcome, BaseException):
                span_outcome = "shed"
                if spans_on and isinstance(outcome, ShedError):
                    extra["reason"] = outcome.reason
            else:
                if degraded[i]:
                    # Stale sVector fallback: nothing was certified.
                    outcome.certified = False
                span_outcome = (
                    "certified" if outcome.certified else "uncertified"
                )
                if spans_on:
                    extra = self._choice_attrs(outcome)
                self.stats.observe(
                    self.clock.perf_counter() - start,
                    outcome.check, outcome.certified,
                    certificate=outcome.certificate,
                )
            if spans_on:
                ctx = ctxs[i]
                with activate(ctx) if ctx is not None else nullcontext():
                    obs.spans.record(
                        "serving.process", start,
                        self.clock.perf_counter() - start,
                        span_id=ctx.span_id if ctx is not None else None,
                        template=self.template.name, seq=seqs[i],
                        outcome=span_outcome, batched=True, **extra,
                    )
        return results

    def _process_inner(
        self,
        instance: QueryInstance,
        seq: int,
        deadline: Optional[Deadline],
        overflow_reason: Optional[str],
        start: float,
    ) -> PlanChoice:
        sv, degraded = fetch_selectivity(self.engine, instance, self.robust)
        if self.robust and isinstance(sv, UncertainSelectivityVector):
            self.stats.note_interval_width(sv.total_log_width)
        coverage = self._brownout_coverage()
        now = self._now()
        ov = self._overload
        if (
            overflow_reason is None
            and deadline is not None
            and deadline.expired(now)
        ):
            # The budget died in queue: skip the probe entirely and
            # resolve through the degraded path instead of hanging.
            choice = self._apply(sv, seq, None, denied="deadline_expired")
        else:
            # Selectivity-only probes (zero engine calls) for an overflow
            # resolved in the submitting thread, under brownout SHED, and
            # for a nearly-expired budget that funds no engine work —
            # its recosts must not count as engine faults.
            selectivity_only = (
                overflow_reason is not None
                or (ov is not None and ov.level >= BrownoutLevel.SHED)
                or (
                    deadline is not None
                    and deadline.remaining(now) <= self._min_optimize_budget()
                )
            )
            choice = self._serve(
                sv, seq, deadline=deadline,
                max_recost=0 if selectivity_only else None,
                deny=overflow_reason, coverage=coverage,
            )
        if degraded:
            # The sVector was a stale fallback: every check ran against
            # approximate selectivities, so no bound is certified.
            choice.certified = False
        self.stats.observe(
            self.clock.perf_counter() - start, choice.check, choice.certified,
            certificate=choice.certificate,
        )
        return choice

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
            return ov.policy.brownout_coverage
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
            snapshot = scr.cache.snapshot()
            decision = scr.get_plan.probe(
                sv, self._recost, entries=snapshot.entries,
                max_recost=max_recost, coverage=coverage,
            )
            if not decision.hit:
                return self._miss(
                    sv, seq, decision, depth, deadline, max_recost, deny,
                    coverage,
                )
            with self._locked():
                if serial or self._commit_valid(decision, snapshot):
                    return scr.apply(sv, decision, seq=seq)
        # The anchor vanished (plan evicted / retired) between probe and
        # commit: the certificate no longer stands, so re-probe fresh.
        self.stats.note_epoch_retry()
        self.event("serving.epoch_retry", seq)
        return self._serve(
            sv, seq, depth + 1, deadline=deadline, max_recost=max_recost,
            deny=deny, coverage=coverage,
        )

    def _commit_valid(self, decision, snapshot) -> bool:
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
        if self.scr.cache.epoch == snapshot.epoch:
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
            template=self.template.name,
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
