"""The PQO manager: many templates, one plan budget, one serving pool.

The paper treats one parameterized query at a time; a deployment hosts
many templates, and the plan-cache memory they share is bounded.
:class:`ConcurrentPQOManager` keeps one
:class:`~repro.serving.shard.TemplateShard` per registered template —
the shard *is* the per-template state: its SCR, engine, budget share,
instance count and quarantine flag.  :meth:`~ConcurrentPQOManager.process`
serves an instance on the calling thread (the serial path); ``submit``
and ``submit_batch`` dispatch onto a thread pool, which starts its
threads only on first use.

Independent templates never contend — each shard has its own lock, its
own SCR state and its own single-flight table.  Global concerns are
handled at **rebalance points**, every ``rebalance_every`` processed
instances: one thread at a time takes every shard lock in canonical
order (no worker ever holds two shard locks, so the ordering makes
deadlock impossible), marks templates whose recost breaker is open as
quarantined, and re-divides the global plan budget proportionally to
recent optimizer pressure (§6.3.1's per-template ``k``, spread across
templates; quarantined templates are frozen at a share of one).

Batched admission (:meth:`submit_batch`) coalesces a batch by template
and deduplicates identical selectivity vectors before dispatch, so a
burst of the same query instance costs one optimization and the
duplicates share its :class:`PlanChoice`.

With an :class:`~repro.serving.overload.OverloadPolicy` the manager adds
overload protection (DESIGN.md §9): bounded per-template ingress queues
with rejection-as-last-resort, end-to-end deadline budgets propagated
into engine calls, an optimizer gate, and the brownout controller whose
λ-relaxation hook is installed on every registered template's getPlan.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, InvalidStateError, ThreadPoolExecutor
from contextlib import contextmanager, nullcontext, suppress
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from ..core.dynamic_lambda import PressureRelaxedLambda
from ..core.scr import SCR
from ..core.technique import PlanChoice
from ..engine.api import EngineAPI
from ..engine.database import Database
from ..obs.doctor import doctor_from_sources, template_summary
from ..obs.handle import Observability
from ..obs.tracectx import TraceContext, activate, child_context, current_context
from ..query.instance import QueryInstance
from ..query.template import QueryTemplate
from .overload import (
    BrownoutLevel,
    Deadline,
    OverloadCoordinator,
    OverloadPolicy,
    ShutdownError,
)
from .shard import TemplateShard
from .stats import ServingStats, merge_rows


@dataclass
class ConcurrentPQOManager:
    """Routes query instances to per-template shards.

    Parameters
    ----------
    database:
        The database all templates run against.
    global_plan_budget:
        Optional cap on the total number of plans cached across all
        templates.  ``None`` leaves every template unbounded.
    default_lambda:
        λ used when a template is registered without one.
    rebalance_every:
        Run a rebalance point (quarantine sweep, budget re-division)
        after this many processed instances.
    max_workers:
        Size of the serving thread pool.
    overload:
        Optional :class:`OverloadPolicy` enabling admission control,
        deadlines and brownout degradation.  Without it the serving
        behaviour is identical to the plain concurrent manager.
    """

    database: Database
    global_plan_budget: Optional[int] = None
    default_lambda: float = 2.0
    rebalance_every: int = 200
    #: Optional engine decorator applied at registration — e.g.
    #: :func:`repro.engine.resilience.resilient_engine_factory` to put
    #: every template's engine behind retries and a circuit breaker.
    engine_wrapper: Optional[Callable[[EngineAPI], EngineAPI]] = None
    max_workers: int = 8
    overload: Optional[OverloadPolicy] = None
    #: Manager-wide default check mode for registered templates
    #: (``"point"`` / ``"robust"`` / ``"probabilistic"``); a per-template
    #: ``check_mode=`` kwarg on :meth:`register` overrides it.  ``None``
    #: leaves SCR's own default (point) in force.
    check_mode: Optional[str] = None
    #: Manager-wide default coverage for probabilistic-mode templates.
    target_coverage: Optional[float] = None
    #: Optional unified observability handle (metrics registry, spans,
    #: guarantee audit).  When set, every registered template's engine,
    #: SCR pipeline and shard report into it, and the overload
    #: coordinator shares its clock.
    obs: Optional[Observability] = None
    _templates: dict[str, TemplateShard] = field(
        default_factory=dict, init=False, repr=False
    )
    _since_rebalance: int = field(default=0, init=False, repr=False)
    _executor: Optional[ThreadPoolExecutor] = field(
        default=None, init=False, repr=False
    )
    _overload_coordinator: Optional[OverloadCoordinator] = field(
        default=None, init=False, repr=False
    )
    _registry_lock: threading.RLock = field(
        default_factory=threading.RLock, init=False, repr=False
    )
    _rebalance_lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False
    )
    _counter_lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False
    )
    _futures_lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False
    )
    _outstanding: set = field(default_factory=set, init=False, repr=False)
    _closed: bool = field(default=False, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if self.overload is not None:
            kwargs = {}
            if self.obs is not None:
                # One clock source for coordinator, shards and spans.
                kwargs["clock"] = self.obs.clock
            self._overload_coordinator = OverloadCoordinator(
                self.overload, **kwargs
            )
            if self.obs is not None:
                self._overload_coordinator.attach_obs(self.obs)
        self._executor = ThreadPoolExecutor(
            max_workers=self.max_workers, thread_name_prefix="pqo-serve"
        )

    # -- registration ---------------------------------------------------------

    def register(
        self,
        template: QueryTemplate,
        lam: Optional[float] = None,
        **scr_kwargs,
    ) -> TemplateShard:
        """Register a template (``scr_kwargs`` go to its :class:`SCR`);
        returns its shard."""
        with self._registry_lock:
            if template.name in self._templates:
                raise ValueError(f"template {template.name!r} already registered")
            if self.check_mode is not None:
                scr_kwargs.setdefault("check_mode", self.check_mode)
            if self.target_coverage is not None:
                scr_kwargs.setdefault("target_coverage", self.target_coverage)
            engine = self.database.engine(template)
            if self.engine_wrapper is not None:
                engine = self.engine_wrapper(engine)
            scr = SCR(engine, lam=lam or self.default_lambda, **scr_kwargs)
            # Racy double-misses on one vector must not grow the instance
            # list without bound (see ManageCache.coalesce_identical).
            scr.manage_cache.coalesce_identical = True
            ov = self._overload_coordinator
            if ov is not None:
                self._install_pressure_lambda(scr)
                ov.register_shard()
            if self.obs is not None:
                # Wire the whole stack into the one handle: engine-call
                # histograms/spans, getPlan phase spans, the SCR's
                # certified-bound audit feed and its calibration handle.
                scr.attach_observability(self.obs)
            shard = TemplateShard(template, scr, overload=ov, obs=self.obs)
            with self._all_shard_locks():
                self._templates[template.name] = shard
                self._apply_budgets()
        return shard

    def _install_pressure_lambda(self, scr: SCR) -> None:
        """Route the template's λ through the brownout pressure hook.

        Behaviour-neutral at level NORMAL; from LAMBDA_RELAXED upward
        the bound widens by ``lambda_relax_factor`` (clamped to
        ``lambda_ceiling``), trading optimality for optimizer calls
        *within* the guarantee framework — certified instances under
        pressure still satisfy ``SO ≤ λ_relaxed``.
        """
        get_plan = scr.get_plan
        base = get_plan.lambda_for if get_plan.lambda_for is not None else get_plan.lam
        get_plan.lambda_for = PressureRelaxedLambda(
            base,
            level_provider=self._overload_coordinator.level_value,
            relax_factor=self.overload.lambda_relax_factor,
            ceiling=self.overload.lambda_ceiling,
            relax_at_level=int(BrownoutLevel.LAMBDA_RELAXED),
        )

    def shard(self, template_name: str) -> TemplateShard:
        return self._templates[template_name]

    def _shard_for(self, instance: QueryInstance) -> TemplateShard:
        shard = self._templates.get(instance.template_name)
        if shard is None:
            raise KeyError(
                f"template {instance.template_name!r} is not registered"
            )
        return shard

    # -- serving --------------------------------------------------------------

    def process(
        self, instance: QueryInstance, deadline: Optional[Deadline] = None
    ) -> PlanChoice:
        """Serve one instance on the calling thread (from any thread).

        This is the serial path: a caller that only ever uses
        :meth:`process` never starts a pool thread.
        """
        return self._process_on(self._shard_for(instance), instance, deadline)

    def _process_on(
        self,
        shard: TemplateShard,
        instance: QueryInstance,
        deadline: Optional[Deadline] = None,
        overflow_reason: Optional[str] = None,
    ) -> PlanChoice:
        choice = shard.process(
            instance, deadline=deadline, overflow_reason=overflow_reason
        )
        self._note_processed(shard)
        return choice

    def _mint_ctx(self) -> Optional[TraceContext]:
        """The per-submission trace context (None with spans off).

        A child of the submitter's ambient context when one exists —
        the cluster worker's serve loop activates the wire context
        around :meth:`submit`, so worker-side spans parent under the
        supervisor's request span — or a fresh root otherwise.  Minted
        *in the submitting thread*, then re-activated in whichever pool
        thread serves the request: that is what survives the hand-off.
        """
        obs = self.obs
        if obs is None or not obs.spans.enabled:
            return None
        return child_context(obs.spans.ids)

    def submit(
        self, instance: QueryInstance, deadline: Optional[Deadline] = None
    ) -> "Future[PlanChoice]":
        """Dispatch one instance to the serving pool.

        With overload protection on, admission is bounded: a submission
        over the template's ``queue_limit`` is resolved *in the calling
        thread* as rejection-as-last-resort — a free selectivity probe,
        then the nearest cached plan uncertified (reason
        ``queue_full``), shedding only when no cached plan exists.  The
        returned future then already holds the outcome, so callers keep
        one uniform interface.
        """
        shard = self._shard_for(instance)
        fut: "Future[PlanChoice]" = Future()
        ctx = self._mint_ctx()
        ov = self._overload_coordinator
        entered = False
        if ov is not None:
            if deadline is None:
                deadline = ov.new_deadline()
            entered = ov.try_enter_queue(shard.stats)
            if not entered:
                try:
                    with activate(ctx) if ctx is not None else nullcontext():
                        fut.set_result(
                            self._process_on(
                                shard, instance, deadline,
                                overflow_reason="queue_full",
                            )
                        )
                except BaseException as exc:
                    fut.set_exception(exc)
                return fut
        with self._futures_lock:
            self._outstanding.add(fut)
        fut.add_done_callback(self._forget_outstanding)
        submitted_at = (
            self.obs.clock.perf_counter() if ctx is not None else 0.0
        )
        try:
            self._executor.submit(
                self._run, fut, shard, instance, deadline, entered,
                ctx, submitted_at,
            )
        except RuntimeError:
            # The executor refused: the manager is shutting down.
            if entered:
                ov.exit_queue(shard.stats)
            with suppress(InvalidStateError):
                fut.set_exception(
                    ShutdownError(
                        "manager closed before this submission was accepted"
                    )
                )
        return fut

    def _run(
        self,
        fut: "Future[PlanChoice]",
        shard: TemplateShard,
        instance: QueryInstance,
        deadline: Optional[Deadline],
        entered: bool,
        ctx: Optional[TraceContext] = None,
        submitted_at: float = 0.0,
    ) -> None:
        try:
            if self._closed and not fut.done():
                with suppress(InvalidStateError):
                    fut.set_exception(
                        ShutdownError(
                            "manager closed before this queued submission was served"
                        )
                    )
            if fut.done():
                return  # resolved by close(wait=False); don't serve it
            try:
                with activate(ctx) if ctx is not None else nullcontext():
                    if ctx is not None:
                        # Pool hand-off latency, attributed to the request.
                        now = self.obs.clock.perf_counter()
                        self.obs.spans.record(
                            "serving.queue_wait", submitted_at,
                            now - submitted_at,
                            template=shard.template.name,
                        )
                    result = self._process_on(shard, instance, deadline)
            except BaseException as exc:
                with suppress(InvalidStateError):
                    fut.set_exception(exc)
            else:
                with suppress(InvalidStateError):
                    fut.set_result(result)
        finally:
            if entered:
                self._overload_coordinator.exit_queue(shard.stats)

    def _forget_outstanding(self, fut: "Future[PlanChoice]") -> None:
        with self._futures_lock:
            self._outstanding.discard(fut)

    def submit_batch(
        self,
        instances: Sequence[QueryInstance],
        dedupe: bool = True,
        deadline_seconds: Optional[float] = None,
    ) -> list["Future[PlanChoice]"]:
        """Admit a batch: coalesce by template, dedupe identical vectors.

        Returns one future per input instance, in input order; duplicate
        instances share the future (and therefore the PlanChoice) of
        their first occurrence.  ``deadline_seconds`` attaches an
        end-to-end budget to each dispatched instance (starting at its
        dispatch, not at batch entry).

        Dispatch shape: without overload protection or deadlines, each
        template's unique instances go to its shard as **one**
        matmul-shaped :meth:`TemplateShard.process_batch` task (when the
        shard's decision procedure supports batching) — the whole group
        is probed against the cache in a single broadcast pass.
        Otherwise unique instances are dispatched round-robin across
        templates so independent shards fill the pool instead of
        convoying on one shard's lock.
        """
        futures: list[Optional[Future]] = [None] * len(instances)
        per_template: dict[str, list[tuple[int, QueryInstance]]] = {}
        first_seen: dict[tuple, int] = {}
        duplicate_of: dict[int, int] = {}
        for i, instance in enumerate(instances):
            if dedupe:
                key = (instance.template_name, self._dedupe_key(instance))
                first = first_seen.get(key)
                if first is not None:
                    duplicate_of[i] = first
                    shard = self._templates.get(instance.template_name)
                    if shard is not None:
                        shard.stats.note_deduped()
                        shard.event("serving.batch_dedupe", None, index=i)
                    continue
                first_seen[key] = i
            per_template.setdefault(instance.template_name, []).append(
                (i, instance)
            )
        if self._overload_coordinator is None and deadline_seconds is None:
            leftovers = self._submit_batched_groups(per_template, futures)
        else:
            # Admission control and deadlines are per-instance decisions;
            # keep the per-instance dispatch for them.
            leftovers = per_template
        queues = [list(reversed(v)) for _, v in sorted(leftovers.items())]
        while queues:
            for queue in list(queues):
                i, instance = queue.pop()
                deadline = (
                    Deadline.after(deadline_seconds)
                    if deadline_seconds is not None
                    else None
                )
                futures[i] = self.submit(instance, deadline=deadline)
                if not queue:
                    queues.remove(queue)
        for i, first in duplicate_of.items():
            futures[i] = futures[first]
        return futures

    def _submit_batched_groups(
        self,
        per_template: dict[str, list[tuple[int, QueryInstance]]],
        futures: list[Optional[Future]],
    ) -> dict[str, list[tuple[int, QueryInstance]]]:
        """Dispatch batchable template groups; return the rest.

        A group is batchable when it has more than one instance (a
        singleton gains nothing over the ordinary submit path).
        """
        leftovers: dict[str, list[tuple[int, QueryInstance]]] = {}
        for name, items in sorted(per_template.items()):
            shard = self._templates.get(name)
            if shard is None:
                raise KeyError(f"template {name!r} is not registered")
            if len(items) < 2:
                leftovers[name] = items
                continue
            futs = [Future() for _ in items]
            for (i, _), fut in zip(items, futs):
                futures[i] = fut
                with self._futures_lock:
                    self._outstanding.add(fut)
                fut.add_done_callback(self._forget_outstanding)
            # Carry the submitter's ambient trace context across the
            # pool hand-off; the shard then mints one child per row.
            ctx = current_context()
            try:
                self._executor.submit(
                    self._run_batch, shard, [inst for _, inst in items],
                    futs, ctx,
                )
            except RuntimeError:
                # The executor refused: the manager is shutting down.
                for fut in futs:
                    with suppress(InvalidStateError):
                        fut.set_exception(
                            ShutdownError(
                                "manager closed before this submission was accepted"
                            )
                        )
        return leftovers

    def _run_batch(
        self,
        shard: TemplateShard,
        instances: list[QueryInstance],
        futs: list["Future[PlanChoice]"],
        ctx: Optional[TraceContext] = None,
    ) -> None:
        if self._closed:
            for fut in futs:
                with suppress(InvalidStateError):
                    fut.set_exception(
                        ShutdownError(
                            "manager closed before this queued submission was served"
                        )
                    )
            return
        try:
            with activate(ctx) if ctx is not None else nullcontext():
                outcomes = shard.process_batch(instances)
        except BaseException as exc:  # noqa: BLE001 - resolve all futures
            for fut in futs:
                with suppress(InvalidStateError):
                    fut.set_exception(exc)
            return
        for fut, outcome in zip(futs, outcomes):
            if isinstance(outcome, BaseException):
                with suppress(InvalidStateError):
                    fut.set_exception(outcome)
            else:
                self._note_processed(shard)
                with suppress(InvalidStateError):
                    fut.set_result(outcome)

    def process_many(
        self, instances: Sequence[QueryInstance], dedupe: bool = True
    ) -> list[PlanChoice]:
        """Admit a batch and wait for every result (input order)."""
        return [f.result() for f in self.submit_batch(instances, dedupe=dedupe)]

    @staticmethod
    def _dedupe_key(instance: QueryInstance) -> tuple:
        if instance.sv is not None:
            return ("sv",) + instance.sv.values
        return ("params",) + instance.parameters

    # -- global budget / quarantine at rebalance points -----------------------

    def _note_processed(self, shard: TemplateShard) -> None:
        with self._counter_lock:
            shard.instances_seen += 1
            self._since_rebalance += 1
            # Rebalance points also run the quarantine sweep, so they
            # are due on schedule even without a global plan budget
            # (where _apply_budgets is a no-op but breaker-open
            # templates must still be marked quarantined).
            due = self._since_rebalance >= self.rebalance_every
        if due:
            self._maybe_rebalance()

    def _maybe_rebalance(self) -> None:
        # Only one rebalancer at a time; losers just keep serving — the
        # winner will see their counted instances anyway.
        if not self._rebalance_lock.acquire(blocking=False):
            return
        try:
            with self._counter_lock:
                self._since_rebalance = 0
            with self._all_shard_locks():
                for shard in self._templates.values():
                    breaker = getattr(shard.engine, "recost_breaker", None)
                    shard.quarantined = bool(getattr(breaker, "is_open", False))
                self._apply_budgets()
        finally:
            self._rebalance_lock.release()

    def _apply_budgets(self) -> None:
        """Re-divide the global plan budget; caller holds every shard lock."""
        if self.global_plan_budget is None or not self._templates:
            return
        shards = list(self._templates.values())
        # Weight templates by optimizer pressure (+1 smoothing), floor 1.
        # Quarantined templates are frozen at the floor: their optimizer
        # pressure is an artifact of engine failures, not real demand.
        weights = [
            1 if s.quarantined else s.scr.optimizer_calls + 1 for s in shards
        ]
        total_weight = sum(weights)
        budget = max(self.global_plan_budget, len(shards))
        shares = [
            1 if s.quarantined else max(1, int(budget * w / total_weight))
            for s, w in zip(shards, weights)
        ]
        # Fix rounding drift by trimming the largest shares.
        while sum(shares) > budget:
            shares[shares.index(max(shares))] -= 1
        for shard, share in zip(shards, shares):
            shard.budget = share
            shard.scr.manage_cache.plan_budget = share
            cache = shard.scr.cache
            while cache.num_plans > share:
                victim = cache.min_usage_plan()
                if victim is None:
                    break
                cache.drop_plan(victim.plan_id)
                shard.scr.manage_cache.stats.plans_evicted += 1

    @contextmanager
    def _all_shard_locks(self):
        """Every shard lock, in canonical (name) order.

        Workers hold at most their own single shard lock and never
        acquire a second, so a canonical-order sweep cannot deadlock.
        """
        shards = self._sorted_shards()
        for shard in shards:
            shard.lock.acquire()
        try:
            yield
        finally:
            for shard in reversed(shards):
                shard.lock.release()

    def _sorted_shards(self) -> list[TemplateShard]:
        return [self._templates[name] for name in sorted(self._templates)]

    # -- reporting / lifecycle ------------------------------------------------

    @property
    def quarantined_templates(self) -> list[str]:
        return sorted(
            name for name, s in self._templates.items() if s.quarantined
        )

    @property
    def total_plans_cached(self) -> int:
        return sum(s.scr.plans_cached for s in self._templates.values())

    @property
    def total_optimizer_calls(self) -> int:
        return sum(s.scr.optimizer_calls for s in self._templates.values())

    def report(self) -> list[dict[str, object]]:
        """Per-template summary rows."""
        return [
            {
                "template": shard.template.name,
                "instances": shard.instances_seen,
                "optimizer_calls": shard.scr.optimizer_calls,
                "plans": shard.scr.plans_cached,
                "budget": shard.budget if shard.budget is not None else "-",
                "lambda": shard.scr.lam,
                "quarantined": "yes" if shard.quarantined else "-",
            }
            for shard in self._sorted_shards()
        ]

    def serving_stats(self) -> list[ServingStats]:
        return [shard.stats for shard in self._sorted_shards()]

    def serving_report(self) -> list[dict[str, object]]:
        """Per-shard rows plus a fleet-wide TOTAL row.

        Each row merges the shard's serving counters with the template's
        health: circuit-breaker state, quarantine flag and the engine's
        degradation totals (fail-closed recosts, optimize/sVector
        fallbacks) — one view instead of three.
        """
        shards = self._sorted_shards()
        rows = []
        open_breakers = 0
        quarantined_total = 0
        degraded_total = 0
        for shard in shards:
            row = shard.stats.row()
            breaker = getattr(shard.engine, "recost_breaker", None)
            row["breaker"] = (
                getattr(getattr(breaker, "state", None), "value", "-")
                if breaker is not None
                else "-"
            )
            if breaker is not None and getattr(breaker, "is_open", False):
                open_breakers += 1
            row["quarantined"] = "yes" if shard.quarantined else "-"
            quarantined_total += int(shard.quarantined)
            res = getattr(
                getattr(shard.engine, "counters", None), "resilience", None
            )
            degraded = (
                res.recost_failed_closed
                + res.optimize_fallbacks
                + res.selectivity_fallbacks
                if res is not None
                else 0
            )
            row["degraded"] = degraded
            degraded_total += degraded
            rows.append(row)
        if shards:
            total = merge_rows([shard.stats for shard in shards])
            total["breaker"] = f"{open_breakers} open" if open_breakers else "-"
            total["quarantined"] = quarantined_total if quarantined_total else "-"
            total["degraded"] = degraded_total
            rows.append(total)
        return rows

    def overload_report(self) -> Optional[dict[str, object]]:
        """Operator snapshot of the overload subsystem (None when off)."""
        if self._overload_coordinator is None:
            return None
        return self._overload_coordinator.report()

    def obs_report(self) -> Optional[dict[str, object]]:
        """The observability handle's snapshot (None when no handle).

        Includes the outcome totals, the λ-violation count and events,
        span accounting, and the full metrics dump — the programmatic
        twin of the ``repro obs-report`` CLI command.
        """
        if self.obs is None:
            return None
        return self.obs.report()

    def prometheus(self) -> Optional[str]:
        """The registry as Prometheus text exposition (None when off)."""
        if self.obs is None:
            return None
        return self.obs.prometheus()

    def doctor_report(self) -> dict[str, object]:
        """Per-template health judgement (``python -m repro doctor``):
        :func:`~repro.obs.doctor.doctor_from_sources` over this manager's
        own registries and :meth:`anchor_summaries`.

        Unlike :meth:`obs_report` this works without an observability
        handle too — outcomes are counted in each shard's private
        registry, and anchor attribution and hit accounting live in the
        summaries; only the calibration sections go ``None``.
        """
        summaries = {"local": self.anchor_summaries()}
        return doctor_from_sources(self._registry_snapshots(), summaries)

    def _registry_snapshots(self) -> dict[str, dict]:
        """Label → snapshot of each distinct registry behind the shards:
        the handle's one registry, or each shard's private one when the
        manager runs without a handle."""
        if self.obs is not None:
            return {"local": self.obs.registry.snapshot()}
        return {
            f"local:{shard.template.name}": shard.stats.audit.registry.snapshot()
            for shard in self._sorted_shards()
        }

    def anchor_summaries(self) -> dict[str, dict[str, int]]:
        """Per-template :func:`~repro.obs.doctor.template_summary` dicts,
        read under every shard lock so each one is internally consistent.

        Small, flat and summable — heartbeats carry them to the
        supervisor, whose doctor view sums them across workers.
        """
        with self._all_shard_locks():
            return {
                shard.template.name: template_summary(
                    shard.scr, shard.quarantined
                )
                for shard in self._sorted_shards()
            }

    @property
    def brownout_level(self):
        """Current brownout level, or None without overload protection."""
        if self._overload_coordinator is None:
            return None
        return self._overload_coordinator.level

    def close(self, wait: bool = True) -> None:
        """Shut the serving pool down.

        ``wait=True`` drains: every already-submitted instance is served
        before the call returns.  ``wait=False`` cancels: queued
        (not-yet-started) submissions are resolved immediately with
        :class:`ShutdownError` instead of being silently dropped, so no
        caller ever blocks forever on a future that will never run.
        """
        if self._executor is None:
            return
        if wait:
            self._executor.shutdown(wait=True)
            return
        self._closed = True
        self._executor.shutdown(wait=False, cancel_futures=True)
        with self._futures_lock:
            pending = list(self._outstanding)
            self._outstanding.clear()
        for fut in pending:
            if not fut.done():
                with suppress(InvalidStateError):
                    fut.set_exception(
                        ShutdownError(
                            "manager closed before this queued submission was served"
                        )
                    )

    def __enter__(self) -> "ConcurrentPQOManager":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
