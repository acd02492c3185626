"""The getPlan module (sections 4.3, 5 and 6.2; Algorithm 1).

Given a new query instance's selectivity vector, decide — on the
critical path of query execution — whether a cached plan can be used
while preserving λ-optimality:

1. **Selectivity check** over the instance list: reuse anchor ``q_e``'s
   plan if ``G·L ≤ λ/S`` (no engine call at all).
2. **Cost check**, plan-major and capped (the section 6.2 pruning
   heuristic): one Recost call per cached plan, nearest plan first, and
   reuse through any anchor of a re-costed plan with ``R·L ≤ λ/S``.
3. Otherwise report a miss; the caller makes the optimizer call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, Optional

from ..obs.spans import SpanRecorder
from ..optimizer.recost import ShrunkenMemo
from ..query.instance import (
    AnySelectivityVector,
    SelectivityVector,
    UncertainSelectivityVector,
    as_point,
)
from .bounds import BoundingFunction, LINEAR_BOUND
from .columnar import (
    ColumnarInstances,
    chunk_rows,
    corner_gl_matrix,
    cost_corner_gl,
    gl_matrix,
    np,
)
from .plan_cache import InstanceEntry, PlanCache


class CheckKind(Enum):
    """Which mechanism produced the plan decision for an instance."""

    SELECTIVITY = "selectivity"
    COST = "cost"
    OPTIMIZER = "optimizer"


class CheckMode(Enum):
    """How the guarantee checks treat selectivity-estimation error.

    * ``POINT`` — the paper's checks, evaluated at the point estimate
      (certificates are exact *conditional on the estimate being
      right*);
    * ``ROBUST`` — evaluate every check at the adversarial corner of the
      instance's uncertainty box, so a certification holds for *every*
      sVector the box contains;
    * ``PROBABILISTIC`` — robust checks against the box shrunk to a
      target coverage ``p``, certifying ``SubOpt ≤ λ`` with probability
      at least ``p``.
    """

    POINT = "point"
    ROBUST = "robust"
    PROBABILISTIC = "probabilistic"

    @classmethod
    def coerce(cls, mode: "CheckMode | str") -> "CheckMode":
        if isinstance(mode, CheckMode):
            return mode
        return cls(mode)


def certificate_kind(box: Optional[UncertainSelectivityVector]) -> str:
    """The certificate kind a hit against ``box`` may claim.

    A point check (no box) — or a zero-width hard box, i.e. exactly
    known selectivities — certifies ``exact``; a hard box certifies
    ``robust`` (valid for every vector in the box); a sub-1 coverage box
    certifies ``probabilistic``.
    """
    if box is None or (box.is_point and box.coverage >= 1.0):
        return "exact"
    if box.coverage >= 1.0:
        return "robust"
    return "probabilistic"


class CandidateOrder(Enum):
    """Cost-check candidate ordering (§6.2 and its alternatives): the
    per-anchor key whose per-plan minimum orders the plans.

    * ``GL`` — increasing G·L product (the paper's choice: low-G·L
      anchors are most likely to pass the cost check);
    * ``AREA`` — decreasing selectivity-region area, i.e. anchors whose
      regions cover the most space first (∝ Π s_i for fixed λ);
    * ``USAGE`` — decreasing usage count U (popular anchors first).
    """

    GL = "gl"
    AREA = "area"
    USAGE = "usage"


@dataclass
class GetPlanDecision:
    """Outcome of one getPlan invocation."""

    plan_id: Optional[int]
    check: CheckKind
    anchor: Optional[InstanceEntry] = None
    recost_calls: int = 0
    # Data for Appendix G violation detection (g/l are always *point*
    # values, even under robust checks — the live detector compares them
    # against the executed plan, not against the adversarial corner):
    recost_ratio: float = 0.0
    g: float = 0.0
    l: float = 0.0
    #: Corner-evaluated certified bound (set only by robust-mode hits);
    #: valid for every sVector in the checked box.
    bound_value: Optional[float] = None
    #: Which certificate kind this decision may claim on a hit.
    certificate: str = "exact"
    #: Coverage of the box the certificate holds over (1.0 = hard).
    coverage: float = 1.0
    #: ``{plan_id: Cost(P, q_c)}`` of the plans the cost phase re-costed,
    #: in call order (failed-closed ``+inf`` results left out): the
    #: request's memo, which spares manageCache's redundancy check the
    #: same engine calls.
    recost_memo: dict = field(default_factory=dict)
    #: ``(entries, g, l, rows)``: what the cost phase scanned, the
    #: probe's point ``G``/``L`` vectors and, aligned with
    #: :attr:`recost_memo`, each re-costed plan's lowest-key live row.
    cost_trail: Optional[tuple] = None

    @property
    def hit(self) -> bool:
        return self.plan_id is not None

    @property
    def recost_samples(self) -> tuple:
        """One ``(anchor, r, g, l)`` per Recost call — the re-costed
        plan's lowest-key live anchor — *including failed checks*.  The
        calibration observatory feeds on these; a drifting cost model
        inflates exactly the ratios that fail the check, so a hits-only
        feed would censor its own evidence.  Built on demand: a request
        nobody calibrates on pays for no tuples.
        """
        if self.cost_trail is None:
            return ()
        entries, g, l, rows = self.cost_trail
        return tuple(
            (
                entries[row], cost / entries[row].optimal_cost,
                float(g[row]), float(l[row]),
            )
            for row, cost in zip(rows, self.recost_memo.values())
        )

    @property
    def inferred_suboptimality(self) -> float:
        """The bound certified for the reused plan.

        ``S·G·L`` / ``S·R·L`` at the point estimate, or the
        corner-evaluated :attr:`bound_value` under robust checks.
        """
        if self.bound_value is not None:
            return self.bound_value
        if self.anchor is None:
            return 1.0
        if self.check is CheckKind.SELECTIVITY:
            return self.anchor.suboptimality * self.g * self.l
        return self.anchor.suboptimality * self.recost_ratio * self.l


@dataclass
class GetPlan:
    """Configurable getPlan with the paper's pruning heuristic.

    Parameters
    ----------
    lam:
        The sub-optimality bound λ (or a per-instance λ via
        ``lambda_for``; see Appendix D).
    max_recost_candidates:
        Cap on Recost calls per getPlan invocation.  A call re-costs
        one cached *plan* and checks all its anchors; plans are tried in
        increasing order of their nearest anchor's G·L (section 6.2:
        "instances with large values of GL are less likely to satisfy
        the cost check").
    bound:
        BCG bounding function (linear by default).
    lambda_for:
        Optional map from an anchor's optimal cost to the λ that anchors
        with that cost should enforce (the dynamic-λ extension).
    check_mode:
        How estimation error enters the checks (:class:`CheckMode`).
        ``POINT`` is the paper's behavior; ``ROBUST`` and
        ``PROBABILISTIC`` evaluate the checks at the adversarial corner
        of the instance's uncertainty box.
    target_coverage:
        The coverage ``p`` that ``PROBABILISTIC`` mode certifies at.

    Both checks run on the cache's columnar view
    (:mod:`repro.core.columnar`): the selectivity check is one
    dimension-major kernel — a broadcast divide and two leading-axis
    folds — and the cost check one vector pass per step, each replaying
    the IEEE-754 operation sequence of the per-entry loops in
    ``tests/reference_get_plan.py``, the oracle the differential suite
    compares every decision against.
    """

    cache: PlanCache
    lam: float
    max_recost_candidates: int = 8
    bound: BoundingFunction = LINEAR_BOUND
    lambda_for: Optional[Callable[[float], float]] = None
    candidate_order: CandidateOrder = CandidateOrder.GL
    check_mode: CheckMode = CheckMode.POINT
    target_coverage: float = 0.95
    #: Optional span recorder timing the two check phases (set when an
    #: Observability handle is wired in; None keeps probes span-free).
    spans: Optional[SpanRecorder] = None
    # Statistics for the overheads discussion of section 6.2:
    selectivity_hits: int = 0
    cost_hits: int = 0
    misses: int = 0
    total_recost_calls: int = 0
    max_recost_calls_single: int = 0
    entries_scanned: int = 0

    def __post_init__(self) -> None:
        if self.lam < 1.0:
            raise ValueError("lambda must be >= 1")
        if self.max_recost_candidates < 0:
            raise ValueError("max_recost_candidates must be >= 0")
        self.check_mode = CheckMode.coerce(self.check_mode)
        if not (0.0 < self.target_coverage <= 1.0):
            raise ValueError(
                f"target_coverage must be in (0, 1], got {self.target_coverage}"
            )
        # Memoized (view, state token, λ vector); see _budget_vector.
        self._lambda_memo: Optional[tuple] = None
        self._budget_memo: Optional[tuple] = None

    def _effective_lambda(self, entry: InstanceEntry) -> float:
        if self.lambda_for is None:
            return self.lam
        return self.lambda_for(entry.optimal_cost)

    def __call__(
        self,
        sv: AnySelectivityVector,
        recost: Callable[[ShrunkenMemo, SelectivityVector], float],
    ) -> GetPlanDecision:
        """Run both checks; ``recost`` is the engine's Recost API."""
        decision = self.probe(sv, recost)
        self.commit(decision)
        return decision

    def _resolve_box(
        self,
        sv: AnySelectivityVector,
        coverage: Optional[float],
    ) -> tuple[SelectivityVector, Optional[UncertainSelectivityVector]]:
        """Split the input into (point estimate, uncertainty box or None).

        ``None`` means point checks.  In ``ROBUST`` mode a plain vector
        becomes a zero-width box (selectivities taken as exact);
        ``PROBABILISTIC`` shrinks the box to the configured coverage.  A
        per-call ``coverage`` (the brownout ladder's COVERAGE_RELAXED
        step) lowers the claim further — shrinking the box — in either
        robust mode; it never widens one.
        """
        point = as_point(sv)
        if self.check_mode is CheckMode.POINT:
            return point, None
        if isinstance(sv, UncertainSelectivityVector):
            box = sv
        else:
            box = UncertainSelectivityVector.exact(sv)
        if self.check_mode is CheckMode.PROBABILISTIC:
            box = box.for_coverage(self.target_coverage)
        if coverage is not None and coverage < box.coverage:
            box = box.for_coverage(coverage)
        return point, box

    def probe(
        self,
        sv: AnySelectivityVector,
        recost: Callable[[ShrunkenMemo, SelectivityVector], float],
        entries: Optional[Iterable[InstanceEntry]] = None,
        max_recost: Optional[int] = None,
        coverage: Optional[float] = None,
    ) -> GetPlanDecision:
        """Both checks, without committing any cache bookkeeping.

        ``entries`` defaults to the live instance list; the concurrent
        serving layer passes a :class:`~.plan_cache.CacheSnapshot`'s
        entries so the scan runs lock-free, then calls :meth:`commit`
        under the shard lock once the snapshot is validated.  Other than
        the advisory scan counter, ``probe`` does not mutate the cache.

        ``max_recost`` lowers the cost-check cap for this call only —
        the overload path passes ``0`` to run the (free) selectivity
        check while spending zero engine calls under brownout.

        ``coverage`` lowers the probability claim of robust-mode checks
        for this call only (brownout's interval-relaxation step); point
        mode ignores it.
        """
        point, box = self._resolve_box(sv, coverage)
        view = self._columnar_view(entries)
        spans = self.spans
        timed = spans is not None and spans.enabled
        start = spans.clock.perf_counter() if timed else 0.0
        decision, key, hit = None, None, -1
        g = l = budget = None
        cap = self._effective_cap(max_recost)
        if len(view):
            g, l, gc, lc = self._factor_rows(view, [(point, box)])
            g, l, budget = g[0], l[0], self._budget_vector(view)
            decision, key, hit = self._decide_row(
                box, view, g, l, gc[0], lc[0], budget, cap,
            )
        if timed:
            # ``candidates`` counts the cost-check candidates of this
            # scan: on a miss the plans the cost phase may re-cost (the
            # view's distinct plans, cut at the recost cap); on a hit
            # the live rows before the hit row — every one of them
            # failed, or it would be the hit.
            attrs: dict = {
                "hit": decision is not None,
                "candidates": (
                    hit - sum(e.retired for e in view.entries[:hit])
                    if decision is not None
                    else 0 if key is None
                    else min(cap, len(view.plan_slots[0]))
                ),
                "scanned": len(view),
            }
            if decision is not None:
                attrs["bound"] = round(decision.inferred_suboptimality, 6)
                attrs["certificate"] = decision.certificate
                if decision.coverage != 1.0:
                    attrs["coverage"] = decision.coverage
            spans.record(
                "scr.selectivity_check", start,
                spans.clock.perf_counter() - start, **attrs,
            )
        if decision is not None:
            return decision
        if timed:
            start = spans.clock.perf_counter()
        decision = self._miss(box) if key is None else self._cost_phase(
            point, box, recost, view, key, g, l, budget, cap
        )
        if timed:
            attrs = {"hit": decision.hit, "recost_calls": decision.recost_calls}
            if decision.hit:
                attrs["bound"] = round(decision.inferred_suboptimality, 6)
                attrs["certificate"] = decision.certificate
                if decision.coverage != 1.0:
                    attrs["coverage"] = decision.coverage
            spans.record(
                "scr.cost_check", start, spans.clock.perf_counter() - start,
                **attrs,
            )
        return decision

    def probe_batch(
        self,
        svs: "Iterable[AnySelectivityVector]",
        recost: Callable[[ShrunkenMemo, SelectivityVector], float],
        entries: Optional[Iterable[InstanceEntry]] = None,
        max_recost: Optional[int] = None,
        coverage: Optional[float] = None,
    ) -> list[GetPlanDecision]:
        """Probe many instances against the cache in one broadcast pass.

        Computes the (B, N) G·L factor matrices for the whole batch —
        chunked so the (d, B, N) ratio tensor stays cache-resident — then
        assembles each row's decision with exactly the per-probe logic,
        including per-row cost phases for the rows whose selectivity
        check missed.  Decision-identical to calling :meth:`probe` per
        vector (the order of probes is the list order); like ``probe``
        it commits nothing, and it records no per-row spans.
        """
        resolved = [self._resolve_box(sv, coverage) for sv in svs]
        if not resolved:
            return []
        view = self._columnar_view(entries)
        if len(view) == 0:
            return [self._miss(box) for _, box in resolved]
        budget = self._budget_vector(view)
        cap = self._effective_cap(max_recost)
        step = chunk_rows(len(resolved), len(view), view.dimensions)
        decisions: list[GetPlanDecision] = []
        for lo_row in range(0, len(resolved), step):
            chunk = resolved[lo_row:lo_row + step]
            g_m, l_m, gc_m, lc_m = self._factor_rows(view, chunk)
            for j, (point, box) in enumerate(chunk):
                decision, key, _ = self._decide_row(
                    box, view, g_m[j], l_m[j], gc_m[j], lc_m[j], budget, cap,
                )
                if decision is None:
                    decision = self._miss(box) if key is None else (
                        self._cost_phase(
                            point, box, recost, view, key, g_m[j], l_m[j],
                            budget, cap,
                        )
                    )
                decisions.append(decision)
        return decisions

    def _columnar_view(
        self, entries: Optional[Iterable[InstanceEntry]]
    ) -> ColumnarInstances:
        """Resolve the columnar view a probe scans.

        ``None`` means the live instance list — the cache's cached
        per-epoch view.  A snapshot's entries tuple usually *is* the
        tuple the cached view was built from (identity check, no
        epoch-number guessing); anything else — a raced snapshot, an
        explicit entry subset — gets a transient view built on the spot,
        which costs one columnarisation but stays decision-identical.
        """
        if entries is None:
            return self.cache.columnar()
        entries = entries if isinstance(entries, tuple) else tuple(entries)
        view = self.cache.columnar()
        if view.entries is entries:
            return view
        return ColumnarInstances.build(-1, entries)

    def _effective_cap(self, max_recost: Optional[int]) -> int:
        """The number of cost-check candidates this probe can consume."""
        if max_recost is None:
            return self.max_recost_candidates
        return min(self.max_recost_candidates, max_recost)

    def _budget_vector(self, view: ColumnarInstances) -> "np.ndarray":
        """``λ/S`` per stored instance, as an ``(N,)`` vector.

        With a constant λ this is one broadcast divide, memoized per
        view (views are immutable).  With a dynamic λ the callable must
        run per anchor cost; callables exposing a ``state_token()``
        (see :mod:`repro.core.dynamic_lambda`) get the resulting λ
        vector memoized per (view, token) so steady-state probes skip
        the Python loop, while token-less callables are re-evaluated
        every probe — always correct, just slower.
        """
        if self.lambda_for is None:
            memo = self._budget_memo
            if memo is not None and memo[0] is view:
                return memo[1]
            budget = self.lam / view.sub
            self._budget_memo = (view, budget)
            return budget
        token_fn = getattr(self.lambda_for, "state_token", None)
        token = token_fn() if token_fn is not None else None
        memo = self._lambda_memo
        if (
            token is not None
            and memo is not None
            and memo[0] is view
            and memo[1] == token
        ):
            lam_vec = memo[2]
        else:
            lam_vec = np.array(
                [self.lambda_for(c) for c in view.cost.tolist()],
                dtype=np.float64,
            )
            if token is not None:
                self._lambda_memo = (view, token, lam_vec)
        return lam_vec / view.sub

    @staticmethod
    def _factor_rows(
        view: ColumnarInstances,
        resolved: list[
            tuple[SelectivityVector, Optional[UncertainSelectivityVector]]
        ],
    ) -> tuple["np.ndarray", "np.ndarray", "np.ndarray", "np.ndarray"]:
        """The ``(B, N)`` factor matrices of ``B`` resolved probes against
        a non-empty view: point ``G``/``L``, then the ``G``/``L`` that
        drive the selectivity check.

        Without boxes the check runs on the point factors themselves.
        With boxes (the check mode fixes box-ness uniformly over the
        rows) each row costs one extra kernel: the adversarial corner's
        G·L drives the check while the point G·L still feeds the
        decision — the live violation detector compares point values
        against the executed plan.  The corner depends only on the
        ``(lo, hi)`` box, not on the probe point, and the kernel is
        row-independent, so identical boxes (a whole batch often shares
        one coverage box) are evaluated once and gathered back by
        inverse index; each row's result stays a pure function of its
        own box.
        """
        pts = np.array([p.values for p, _ in resolved], dtype=np.float64)
        g, l = gl_matrix(view.sv, pts)
        if resolved[0][1] is None:
            return g, l, g, l
        box_rows: dict[tuple, int] = {}
        inverse = [
            box_rows.setdefault((b.lo.values, b.hi.values), len(box_rows))
            for _, b in resolved
        ]
        lo = np.array([k[0] for k in box_rows], dtype=np.float64)
        hi = np.array([k[1] for k in box_rows], dtype=np.float64)
        gc, lc = corner_gl_matrix(view.sv, lo, hi, view.sv_sq)
        if len(box_rows) < len(resolved):
            inv = np.array(inverse, dtype=np.intp)
            gc, lc = gc[inv], lc[inv]
        return g, l, gc, lc

    def _decide_row(
        self,
        box: Optional[UncertainSelectivityVector],
        view: ColumnarInstances,
        g: "np.ndarray",
        l: "np.ndarray",
        gc: "np.ndarray",
        lc: "np.ndarray",
        budget: "np.ndarray",
        cap: int,
    ) -> tuple[Optional[GetPlanDecision], Optional["np.ndarray"], int]:
        """Selectivity check over one probe's ``(N,)`` factor vectors.

        Returns ``(hit decision, None, hit row)`` or, on a miss, ``(None,
        the cost phase's order key, -1)``.  The hit is the *first*
        passing entry in list order, and ``entries_scanned`` counts
        entries up to and including it (all of them on a miss).

        The order key is the ``(N,)`` vector the configured candidate
        order ranks anchors by, smaller first: the (corner) ``G·L``
        product, ``−area`` or the usage rank.  ``cap == 0`` (SHED) has
        no cost phase to feed and gets no key.
        """
        glc = gc * lc
        check = self._raised(glc)
        mask = check <= budget
        # argmax of an all-False mask is row 0, whose own bit says so.
        hit = int(mask.argmax())
        if mask[hit]:
            self.entries_scanned += hit + 1
            entry = view.entries[hit]
            robust = box is not None
            return GetPlanDecision(
                plan_id=entry.plan_id,
                check=CheckKind.SELECTIVITY,
                anchor=entry,
                g=float(g[hit]),
                l=float(l[hit]),
                bound_value=(
                    entry.suboptimality * float(check[hit]) if robust else None
                ),
                certificate=certificate_kind(box),
                coverage=box.coverage if robust else 1.0,
            ), None, hit
        self.entries_scanned += len(view)
        if cap <= 0:
            return None, None, -1  # selectivity-only probe: nothing to order
        if self.candidate_order is CandidateOrder.GL:
            return None, glc, -1
        if self.candidate_order is CandidateOrder.AREA:
            return None, -view.area, -1
        # USAGE mutates without epoch bumps; the per-row rank is memoized
        # against the cache's usage_version instead.  Ranks are unique,
        # ties broken by row order as a stable sort breaks them.
        return None, view.usage_rank(self.cache.usage_version), -1

    def _raised(self, x: "np.ndarray") -> "np.ndarray":
        """``x ** degree`` per element, as the scalar bound computes it."""
        degree = self.bound.degree
        if degree == 1.0:
            return x  # pow(x, 1.0) is exact
        # numpy's pow special-cases small exponents (x**2 -> x*x) and may
        # round differently from libm; replay CPython's pow per element
        # to keep the ablation degrees bit-identical.
        return np.array([v ** degree for v in x.tolist()], dtype=np.float64)

    @staticmethod
    def _miss(box: Optional[UncertainSelectivityVector]) -> GetPlanDecision:
        return GetPlanDecision(
            plan_id=None, check=CheckKind.OPTIMIZER,
            certificate=certificate_kind(box),
        )

    def _cost_phase(
        self,
        point: SelectivityVector,
        box: Optional[UncertainSelectivityVector],
        recost: Callable[[ShrunkenMemo, SelectivityVector], float],
        view: ColumnarInstances,
        key: "np.ndarray",
        g: "np.ndarray",
        l: "np.ndarray",
        budget: "np.ndarray",
        cap: int,
    ) -> GetPlanDecision:
        """Plan-major cost check: at most ``cap`` Recost calls, one per
        cached plan, each checked against every anchor of its plan.

        ``Cost(P, q_c)`` belongs to the plan; ``C``, ``S`` and ``L^n``
        are per-anchor vectors.  One pass therefore evaluates ``R·L^n ≤
        λ/S``, ``R = Cost(P_e, q_c) / C_e``, for every anchor whose plan
        has been re-costed (``R = +inf`` for the rest) in the scalar
        check's own operation sequence.  :meth:`_cost_steps` names the
        plans: first the one of the lowest-``key`` live anchor; then,
        only if nothing passed, the others the cap admits.  Of the
        passing live anchors the smallest certified bound ``S·R·L^n``
        wins, ties to the lowest row.

        Recost always runs at the *point* estimate; with a box, the
        Cost Bounding Lemma transports that cost to the corner
        maximizing ``G(point→x)·L(anchor→x)``, so the factor is
        ``(Ĝ·L̂)^n`` and the bound holds for every sVector in the box.
        A ``+inf`` Recost (the resilient engine failing closed) fails
        every row of its plan and stays out of the memo.
        """
        entries = view.entries
        heads: list[int] = []
        decision = self._miss(box)
        decision.cost_trail = (entries, g, l, heads)
        if box is None or box.is_point:
            # A zero-width box's corner is the point itself: Ĝ = 1, L̂ = L.
            factor = self._raised(l)
        else:
            gg, ll = cost_corner_gl(
                view.sv, *(np.array(v.values) for v in (point, box.lo, box.hi))
            )
            factor = self._raised(gg * ll)
        plans, slot = view.plan_slots
        costs = np.full(len(plans), np.inf)
        for rows in self._cost_steps(view, key, cap):
            for row in rows:
                plan = self.cache.maybe_plan(entries[row].plan_id)
                if plan is None:
                    continue  # evicted under a concurrent probe; skip
                cost = recost(plan.shrunken_memo, point)
                decision.recost_calls += 1
                if cost < np.inf:
                    costs[slot[row]] = decision.recost_memo[plan.plan_id] = cost
                    heads.append(row)
            r = costs.take(slot) / view.cost
            check = r * factor
            ok = check <= budget
            if not ok.any():
                continue
            bound = np.where(ok, view.sub * check, np.inf)
            row = int(bound.argmin())
            while entries[row].retired and bound[row] < np.inf:
                bound[row] = np.inf
                row = int(bound.argmin())
            if bound[row] < np.inf:
                decision.anchor = entries[row]
                decision.plan_id = decision.anchor.plan_id
                decision.check = CheckKind.COST
                decision.recost_ratio = float(r[row])
                decision.g, decision.l = float(g[row]), float(l[row])
                if box is not None:
                    decision.bound_value = float(bound[row])
                    decision.coverage = box.coverage
                break
        return decision

    @staticmethod
    def _cost_steps(view: ColumnarInstances, key: "np.ndarray", cap: int):
        """The cost phase's two steps, each a list of rows whose plans
        to re-cost: the lowest-``key`` live row alone; then — only if
        the caller comes back — the lowest-key live row of every other
        plan, plans ordered by ``(that key, that row)`` and cut so the
        probe makes at most ``cap`` calls.

        ``retired`` flips without an epoch bump, so no array carries it:
        the flags are read live off the entries, and all N of them only
        once a retired row turns up as a head.
        """
        entries = view.entries

        def live(key: "np.ndarray") -> "np.ndarray":
            return np.where([e.retired for e in entries], np.inf, key)

        head = int(key.argmin())
        masked = entries[head].retired
        if masked:
            key = live(key)
            head = int(key.argmin())
        if key[head] == np.inf:
            return  # every anchor is retired
        yield (head,)
        if cap < 2 or len(view.plan_slots[0]) < 2:
            return
        low, first = view.plan_heads(key)
        if not masked and any(entries[i].retired for i in first.tolist()):
            low, first = view.plan_heads(live(key))
        order = np.lexsort((first, low))
        yield first[order[low[order] < np.inf][1:cap]].tolist()

    def commit(self, decision: GetPlanDecision) -> None:
        """Apply the bookkeeping of a probed decision (usage counters,
        LRU clock, hit/miss statistics).  Callers that probed against a
        snapshot must hold the cache's write lock and have revalidated
        the decision before committing."""
        if decision.check is CheckKind.SELECTIVITY:
            anchor = decision.anchor
            anchor.usage += 1
            self.cache.touch(decision.plan_id)
            anchor.hits_selectivity += 1
            anchor.last_hit_tick = self.cache.tick
            self.selectivity_hits += 1
        elif decision.check is CheckKind.COST:
            anchor = decision.anchor
            anchor.usage += 1
            self.cache.touch(decision.plan_id)
            anchor.hits_cost += 1
            anchor.recost_spend += decision.recost_calls
            anchor.last_hit_tick = self.cache.tick
            self.cost_hits += 1
            self._note_recosts(decision.recost_calls)
        else:
            self.misses += 1
            self._note_recosts(decision.recost_calls)

    def _note_recosts(self, calls: int) -> None:
        self.total_recost_calls += calls
        self.max_recost_calls_single = max(self.max_recost_calls_single, calls)
