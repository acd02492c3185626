"""SCR: the paper's online PQO technique (Selectivity / Cost /
Redundancy checks), tying getPlan and manageCache together.

Per arriving instance:

1. getPlan runs the selectivity check over the instance list and then
   the capped, plan-major cost check (one Recost per cached plan, every
   anchor of that plan checked); a hit reuses the cached plan and
   certifies λ-optimality.
2. On a miss, the optimizer is called and manageCache decides whether
   the resulting plan enters the cache (redundancy check, plan budget).
3. Cost-check observations feed the Appendix G violation detector,
   which retires anchors whose plan cost behaviour contradicts the
   BCG/PCM assumptions.

Steps 1–2 are one pipeline for every caller: getPlan decides (pure
against a columnar view — ``GetPlan.probe`` for serial
:meth:`SCR.process`, ``GetPlan.probe_rows`` for every row the serving
shard serves), the caller optimizes a miss, and :meth:`SCR.apply`
commits the outcome; the two callers differ only in what runs
between.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

from ..engine.api import EngineAPI
from ..engine.resilience import OptimizeUnavailableError
from ..obs.group import GROUP_RECORD, GroupRecord, feed_group
from ..obs.handle import Observability, base_engine, instrument_engine
from ..optimizer.recost import ShrunkenMemo
from ..query.instance import (
    AnySelectivityVector,
    QueryInstance,
    SelectivityVector,
    UncertainSelectivityVector,
    as_point,
)
from .bounds import BoundingFunction, LINEAR_BOUND, adversarial_corner, compute_gl
from .columnar import log_l1_distances, np
from .get_plan import (
    _COST,
    _POINT,
    CandidateOrder,
    CheckMode,
    GetPlan,
    GetPlanDecision,
    certificate_kind,
)
from .manage_cache import EvictionPolicy, ManageCache
from .plan_cache import PlanCache
from .technique import OnlinePQOTechnique, PlanChoice, fetch_selectivity
from .violations import ViolationDetector


class SCR(OnlinePQOTechnique):
    """The SCR technique with a configurable sub-optimality bound λ.

    Parameters
    ----------
    engine:
        The per-template engine API (optimize / recost / sVector).
    lam:
        Sub-optimality bound λ ≥ 1.  Every processed instance is
        guaranteed ``SO(q) ≤ λ`` whenever the BCG assumption holds.
    lambda_r:
        Redundancy threshold; defaults to √λ (Appendix E).
    plan_budget:
        Optional cap ``k`` on cached plans (section 6.3.1).
    max_recost_candidates:
        Recost-call cap per getPlan invocation (section 6.2 heuristic).
    bound:
        BCG bounding function, ``f(α)=α`` by default.
    lambda_for:
        Optional dynamic-λ schedule (Appendix D); overrides ``lam`` per
        anchor according to its optimal cost.
    check_mode:
        ``"point"`` (the paper's checks), ``"robust"`` (checks at the
        adversarial corner of the instance's uncertainty box) or
        ``"probabilistic"`` (robust checks at ``target_coverage``).
    target_coverage:
        Coverage certified by the probabilistic mode.
    """

    def __init__(
        self,
        engine: EngineAPI,
        lam: float = 2.0,
        lambda_r: Optional[float] = None,
        plan_budget: Optional[int] = None,
        max_recost_candidates: int = 8,
        bound: BoundingFunction = LINEAR_BOUND,
        lambda_for: Optional[Callable[[float], float]] = None,
        eviction_policy: EvictionPolicy = EvictionPolicy.LFU,
        candidate_order: CandidateOrder = CandidateOrder.GL,
        obs: Optional[Observability] = None,
        check_mode: "CheckMode | str" = CheckMode.POINT,
        target_coverage: float = 0.95,
    ) -> None:
        super().__init__(engine)
        self.lam = lam
        self.obs = obs
        self.check_mode = CheckMode.coerce(check_mode)
        self.cache = PlanCache()
        self.get_plan = GetPlan(
            cache=self.cache,
            lam=lam,
            max_recost_candidates=max_recost_candidates,
            bound=bound,
            lambda_for=lambda_for,
            candidate_order=candidate_order,
            check_mode=self.check_mode,
            target_coverage=target_coverage,
        )
        self.manage_cache = ManageCache(
            cache=self.cache,
            lam=lam,
            lambda_r=lambda_r,
            plan_budget=plan_budget,
            eviction_policy=eviction_policy,
        )
        self.detector = ViolationDetector(bound=bound)
        self.calibration = None
        #: The engine's registry instruments once observability is
        #: attached (``None``: a bare SCR, which records nothing).
        self.instruments = None
        if obs is not None:
            self.attach_observability(obs)

    def attach_observability(self, obs) -> None:
        """Wire the full stack into one handle, after the fact.

        Same wiring the constructor's ``obs`` argument performs; the
        serving manager uses this when it owns the handle and builds
        the SCR itself.  Idempotent (the per-template calibration
        handle is resolved, not recreated).
        """
        self.obs = obs
        self.instruments = instrument_engine(self.engine, obs)
        self.calibration = obs.calibration.template(self.engine.template.name)

    @property
    def name(self) -> str:  # type: ignore[override]
        return f"SCR{self.lam:g}"

    def process(self, instance: QueryInstance) -> PlanChoice:
        """Handle one arriving instance (counted by :meth:`apply`).

        With observability on, the request is a group of one: its
        telemetry is collected in a :class:`GroupRecord` and fed once,
        by :func:`feed_group`, when it is served.
        """
        instruments = self.instruments
        if instruments is None:
            return self._process(instance, None)
        record = GroupRecord()
        token = GROUP_RECORD.set(record)
        try:
            return self._process(instance, record)
        finally:
            GROUP_RECORD.reset(token)
            feed_group(record, instruments)

    def _process(
        self, instance: QueryInstance, record: Optional[GroupRecord]
    ) -> PlanChoice:
        self.engine.begin_instance(self.instances_processed)
        sv, degraded = fetch_selectivity(
            self.engine, instance, self.check_mode is not _POINT
        )
        choice = self._choose(sv, record)
        if degraded:
            # The sVector was a stale fallback: every check ran against
            # approximate selectivities, so no bound is certified.
            choice.certified = False
        return choice

    def _choose(
        self, sv: AnySelectivityVector, record: Optional[GroupRecord] = None
    ) -> PlanChoice:
        decision = self.get_plan.probe(sv, self.engine.recost)
        result = unavailable = None
        if not decision.hit:
            try:
                result = self._optimize(sv, self.incumbent(decision))
            except OptimizeUnavailableError as exc:
                unavailable = exc
        choice = self.apply(sv, decision, result, record=record)
        if choice is None:
            raise unavailable  # empty cache: nothing can be served
        return choice

    def incumbent(self, decision: GetPlanDecision) -> Optional[ShrunkenMemo]:
        """The cached plan a miss's cost phase re-costed cheapest: its
        optimizer call's branch-and-bound incumbent (``None`` if there is
        none).  Only the plan is passed; the raw optimizer re-costs it,
        since a memo cost may come from a drifting or faulty engine layer
        (DESIGN.md §7)."""
        memo = decision.recost_memo
        if not memo:
            return None
        plan = self.cache.maybe_plan(min(memo, key=memo.get))
        return None if plan is None else plan.shrunken_memo

    def apply(
        self,
        sv: AnySelectivityVector,
        decision: Optional[GetPlanDecision],
        result=None,
        denied: Optional[str] = None,
        seq: Optional[int] = None,
        record: Optional[GroupRecord] = None,
    ) -> Optional[PlanChoice]:
        """Apply one request's probed decision — the only code that does.

        ``decision`` is getPlan's probed answer for ``sv``, or
        ``None`` when no probe ran (a deadline that expired in queue).
        A hit reuses its plan.  A miss resolves one of three ways:
        ``result`` is the optimizer's answer (manageCache registers it);
        ``denied`` names an admission denial (nearest cached plan,
        ``check="overload"``); neither means the optimizer was
        unavailable (nearest cached plan, ``check="fallback"``, booked
        as a resilience fallback).  A degraded serve is uncertified and
        returns ``None`` on an empty cache — nothing was served.

        Once per request, in this order: the getPlan commit, the
        Appendix G detector (cost-check hits), the recost calibration
        samples (hits *and* misses), the certified bound with the λ it
        is audited against, and the ``instances_processed`` /
        ``optimizer_calls`` counts.  The samples and the bound go into
        ``record``, the group's record, when observability is on;
        :func:`~repro.obs.group.feed_group` feeds them at the group's
        end.  ``seq`` is the request's sequence number (default: the
        next serial one) and labels its audit entry and degraded event.
        The concurrent shard calls this under its write lock, after
        validating the probe's view and optimizing outside the lock.
        """
        if self.instruments is None:
            record = None  # a bare SCR records nothing
        if seq is None:
            seq = self.instances_processed
        if decision is None:
            choice = self._nearest_choice(sv, 0, denied, seq)
        else:
            self.get_plan.commit(decision)
            if decision.check is _COST:
                self.detector.check(
                    decision.view, decision.row, decision.g, decision.l,
                    decision.recost_ratio,
                )
            if record is not None:
                self._calibration_samples(decision, record.samples)
            if decision.hit:
                choice = self._hit_choice(decision, seq, record)
            elif result is not None:
                choice = self._register_optimized(
                    sv, result, decision, seq, record
                )
            else:
                choice = self._nearest_choice(
                    sv, decision.recost_calls, denied, seq
                )
        if choice is None:
            return None
        self.instances_processed += 1
        if choice.used_optimizer:
            self.optimizer_calls += 1
        return choice

    def _hit_choice(
        self, decision: GetPlanDecision, seq: int,
        record: Optional[GroupRecord],
    ) -> PlanChoice:
        plan = self.cache.plan(decision.plan_id)
        bound = decision.inferred_suboptimality
        if record is not None:
            # The live λ-violation check: the bound against the λ in
            # force for its anchor, labeled with the certificate kind
            # whose claim it would break.
            lam = self.get_plan.anchor_lambda(decision.view, decision.row)
            record.bounds.append((bound, lam, decision.certificate, seq))
        return PlanChoice(
            shrunken_memo=plan.shrunken_memo,
            plan_signature=plan.signature,
            used_optimizer=False,
            check=decision.check._value_,
            recost_calls=decision.recost_calls,
            plan=plan.plan,
            certified_bound=bound,
            certificate=decision.certificate,
            coverage=decision.coverage,
        )

    def _calibration_samples(
        self, decision: GetPlanDecision, samples: list
    ) -> None:
        """Append the cost phase's Recost calls to the calibration
        observatory's samples: one per call, taken at the re-costed
        plan's lowest-key live anchor (``GetPlanDecision.recost_samples``).

        Free samples: each already paid its Recost call.  Predicted =
        the anchor's stored pointed cost ``C·S``; actual = the fresh
        Recost (``r·C``); the Cost Bounding Lemma's interval
        ``[C·S/L^n, C·S·G^n]`` is the slack (legitimate selectivity
        movement), so only cost-model inconsistency lands in the error
        histogram — while a uniform model shift moves the raw-ratio
        stream the drift detector watches.  Taken on hits *and* misses:
        a drifting model inflates exactly the ratios that fail the cost
        check, so a hits-only feed would censor its own evidence.
        """
        trail = decision.cost_trail
        if trail is None:
            return
        g, l, rows = trail
        degree = self.get_plan.bound.degree
        log = math.log
        view, kind = decision.view, decision.certificate
        cost_col, sub_col = view.cells["cost"], view.cells["sub"]
        for row, recosted in zip(rows, decision.recost_memo.values()):
            # ``recost_samples``' (row, r, g, l) read once, without its
            # tuples: this runs once per Recost call on the hot path.
            cost = cost_col[row]
            samples.append((
                kind, cost * sub_col[row], recosted / cost * cost,
                degree * log(max(float(g[row]), 1.0)),
                degree * log(max(float(l[row]), 1.0)),
            ))

    def _register_optimized(
        self, sv: AnySelectivityVector, result, decision: GetPlanDecision,
        seq: int, record: Optional[GroupRecord],
    ) -> PlanChoice:
        """Run manageCache on a fresh optimizer result and build the
        choice.  ``decision`` is the miss that led here: its recost
        calls are charged to the choice, and the costs its cost phase
        measured at ``sv`` spare the redundancy check those engine
        calls."""
        point = as_point(sv)
        recosts_before = self.manage_cache.stats.redundancy_recost_calls
        spans = self.obs.spans if self.obs is not None else None
        timed = spans is not None and spans.enabled
        start = spans.clock.perf_counter() if timed else 0.0
        entry = self.manage_cache.register(
            point, result, self.engine.recost, decision.recost_memo
        )
        if timed:
            spans.record(
                "scr.redundancy_check", start,
                spans.clock.perf_counter() - start,
                template=self.engine.template.name,
                cached=entry.suboptimality == 1.0,
            )
        redundancy_recosts = (
            self.manage_cache.stats.redundancy_recost_calls - recosts_before
        )
        chosen = self.cache.plan(entry.plan_id)
        # A freshly optimized instance is served with the bound its
        # 5-tuple registered: 1 for its own (or an identical) plan, the
        # redundancy winner's S_min otherwise.  Under robust checks the
        # plan is only known optimal *at the point estimate*; the bound
        # valid over the whole box inflates by the corner's (G·L)^n.
        bound_value, cert, coverage = self._fresh_certificate(
            point, sv, entry.suboptimality
        )
        if record is not None:
            # A fresh-optimizer robust bound may legitimately exceed λ
            # (wide boxes: nothing tighter is certifiable without more
            # statistics); the response's claim *is* that bound, so the
            # live audit checks it against max(λ, bound) rather than
            # flagging a violation of a λ-claim the certificate never
            # made (DESIGN.md §11).
            record.bounds.append(
                (bound_value, max(self.lam, bound_value), cert, seq)
            )
        return PlanChoice(
            shrunken_memo=chosen.shrunken_memo,
            plan_signature=chosen.signature,
            used_optimizer=True,
            check="optimizer",
            recost_calls=decision.recost_calls + redundancy_recosts,
            optimal_cost=result.cost,
            plan=chosen.plan,
            certified_bound=bound_value,
            certificate=cert,
            coverage=coverage,
        )

    def _fresh_certificate(
        self,
        point: SelectivityVector,
        sv: AnySelectivityVector,
        suboptimality: float,
    ) -> tuple[float, str, float]:
        """Certificate for a freshly optimized instance.

        Point mode: the registered bound, exact.  Robust modes: the plan
        is optimal at the point estimate ``p``, so for any true vector
        ``x`` in the box ``SubOpt ≤ S · (G·L)(p→x)^n`` — maximized at
        the adversarial corner against ``p`` itself.
        """
        if (
            self.check_mode is _POINT
            or not isinstance(sv, UncertainSelectivityVector)
        ):
            return suboptimality, "exact", 1.0
        _, box = self.get_plan._resolve_box(sv, None)
        cert = certificate_kind(box)
        if box.is_point:
            return suboptimality, cert, box.coverage
        corner = adversarial_corner(point, box)
        g, l = compute_gl(point, corner)
        bound_value = suboptimality * self.get_plan.bound.selectivity_bound(g, l)
        return bound_value, cert, box.coverage

    def _nearest_choice(
        self,
        sv: AnySelectivityVector,
        recost_calls: int,
        denied: Optional[str],
        seq: int,
    ) -> Optional[PlanChoice]:
        """Serve the cached plan nearest ``sv`` when no bound can be
        verified; ``None`` on an empty cache.

        The ranking is one L1 distance over the columnar ``log_sv``
        matrix; ties resolve to the first entry in list order.  The plan
        carries no verified λ bound, so the choice is flagged
        uncertified — the guarantee is never silently weakened.  An
        admission denial (``denied``) is a *load* decision labeled
        ``check="overload"`` that books no resilience counters, so
        operators can tell brownout serves from engine-failure
        fallbacks (``check="fallback"``).
        """
        view = self.cache.columnar()
        if len(view) == 0:
            return None
        distances = log_l1_distances(
            view.log_sv, np.array(as_point(sv).values, dtype=np.float64)
        )
        plan = self.cache.plan(view.cells["plan_ids"][int(np.argmin(distances))])
        if denied is None:
            self.engine.counters.resilience.optimize_fallbacks += 1
            instruments = getattr(base_engine(self.engine), "instruments", None)
            if instruments is not None:
                instruments.degraded["optimize"].inc()
                instruments.event(
                    "degraded", "optimize", seq,
                    f"serving cached plan {plan.signature[:60]}",
                )
        return PlanChoice(
            shrunken_memo=plan.shrunken_memo,
            plan_signature=plan.signature,
            used_optimizer=False,
            check="fallback" if denied is None else "overload",
            recost_calls=recost_calls,
            plan=plan.plan,
            certified=False,
        )

    @property
    def plans_cached(self) -> int:
        return self.cache.num_plans

    @property
    def max_plans_cached(self) -> int:
        return self.cache.max_plans_seen

    def recalibrate(self, budget: Optional[int] = None, min_staleness: int = 0):
        """Proactive recost sweep of stale anchors (drift remediation).

        Re-anchors stored costs at fresh Recost measurements under a
        call budget and resets the calibration drift alarm; see
        :func:`repro.obs.calibration.recost_sweep`.
        """
        from ..obs.calibration import recost_sweep

        return recost_sweep(self, budget=budget, min_staleness=min_staleness)
