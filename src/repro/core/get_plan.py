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
from typing import Callable, Iterable, Iterator, Optional

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
    corner_gl_matrix,
    cost_corner_gl,
    gl_matrix,
    np,
)
from .plan_cache import PlanCache


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


# The members a request tests, as module globals, read by this module,
# ``scr`` and the serving shard in every method (only defaults name the
# class).  A read through the class costs about 0.15 µs on CPython 3.11
# against 0.02 for a global, and ``PlanChoice.check`` takes the member's
# ``_value_``, not the 0.2 µs ``value`` property: about 0.7 µs of a cost
# hit in process, and about 4 points of ``scr_hit``'s hit p50 end to end
# (EXPERIMENTS.md, compiled Recost section).
_SELECTIVITY, _COST, _OPTIMIZER = (
    CheckKind.SELECTIVITY, CheckKind.COST, CheckKind.OPTIMIZER
)
_POINT, _PROBABILISTIC = CheckMode.POINT, CheckMode.PROBABILISTIC
_GL, _AREA, _USAGE = CandidateOrder.GL, CandidateOrder.AREA, CandidateOrder.USAGE


@dataclass
class GetPlanDecision:
    """Outcome of one getPlan invocation."""

    plan_id: Optional[int]
    check: CheckKind
    #: A hit's anchor: row ``row`` of ``view``, the view it was probed on.
    row: Optional[int] = None
    view: Optional[ColumnarInstances] = None
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
    #: ``(g, l, rows)``: the probe's point ``G``/``L`` vectors and,
    #: aligned with :attr:`recost_memo`, each re-costed plan's
    #: lowest-key live row — what the cost phase scanned of ``view``.
    cost_trail: Optional[tuple] = None

    @property
    def hit(self) -> bool:
        return self.plan_id is not None

    @property
    def recost_samples(self) -> tuple:
        """One ``(row, r, g, l)`` per Recost call — ``row`` the re-costed
        plan's lowest-key live anchor in ``view`` — *including failed
        checks*.  The calibration observatory feeds on these; a drifting
        cost model inflates exactly the ratios that fail the check, so a
        hits-only feed would censor its own evidence.  Built on demand: a
        request nobody calibrates on pays for no tuples.
        """
        if self.cost_trail is None:
            return ()
        g, l, rows = self.cost_trail
        cost_col = self.view.cells["cost"]
        return tuple(
            (row, cost / cost_col[row], float(g[row]), float(l[row]))
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
        if self.row is None:
            return 1.0
        sub = self.view.cells["sub"][self.row]
        if self.check is _SELECTIVITY:
            return sub * self.g * self.l
        return sub * self.recost_ratio * self.l


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
        # Memoized (view, state token, λ/S, {slot: λ/S of the plan's
        # group}); see _budget_vector and _group_budget.
        self._budget_memo: Optional[tuple] = None

    def _effective_lambda(self, optimal_cost: float) -> float:
        """The λ an anchor of ``optimal_cost`` enforces."""
        if self.lambda_for is None:
            return self.lam
        return self.lambda_for(optimal_cost)

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
        if self.check_mode is _POINT:
            return point, None
        if isinstance(sv, UncertainSelectivityVector):
            box = sv
        else:
            box = UncertainSelectivityVector.exact(sv)
        if self.check_mode is _PROBABILISTIC:
            box = box.for_coverage(self.target_coverage)
        if coverage is not None and coverage < box.coverage:
            box = box.for_coverage(coverage)
        return point, box

    def probe(
        self,
        sv: AnySelectivityVector,
        recost: Callable[[ShrunkenMemo, SelectivityVector], float],
        view: Optional[ColumnarInstances] = None,
        max_recost: Optional[int] = None,
        coverage: Optional[float] = None,
    ) -> GetPlanDecision:
        """Both checks for one instance, without committing any cache
        bookkeeping: the single-row form of :meth:`probe_rows` that
        serial :meth:`SCR.process` runs.

        ``view`` defaults to the cache's current columnar view.  Other
        than the advisory scan counter, ``probe`` does not mutate the
        cache.

        ``max_recost`` lowers the cost-check cap for this call only —
        ``0`` runs the (free) selectivity check alone, spending zero
        engine calls under brownout.

        ``coverage`` lowers the probability claim of robust-mode checks
        for this call only (brownout's interval-relaxation step); point
        mode ignores it.
        """
        point, box = self._resolve_box(sv, coverage)
        if view is None:
            view = self.cache.columnar()
        if not len(view):
            return self._miss(box)
        (factors,) = self._factor_rows(view, [(point, box)])
        return self._decide(
            point, box, recost, view, *factors,
            self._budget_vector(view), self._effective_cap(max_recost),
        )

    def probe_batch(
        self,
        svs: "Iterable[AnySelectivityVector]",
        recost: Callable[[ShrunkenMemo, SelectivityVector], float],
        view: Optional[ColumnarInstances] = None,
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
        it commits nothing.  It is :meth:`probe_rows` taken to the end.
        """
        return list(self.probe_rows(svs, recost, view, max_recost, coverage))

    def probe_rows(
        self,
        svs: "Iterable[AnySelectivityVector]",
        recost: Callable[[ShrunkenMemo, SelectivityVector], float],
        view: Optional[ColumnarInstances] = None,
        max_recost: Optional[int] = None,
        coverage: Optional[float] = None,
    ) -> Iterator[GetPlanDecision]:
        """:meth:`probe_batch`'s decisions, one row at a time.

        The factor matrices of a chunk of rows are computed together; a
        row's selectivity check and cost phase run only when its
        decision is taken.  This is the serving shard's one probe: it
        decides every row of a group, a group of one included, and a
        caller that stops early — once a row has changed the cache the
        later rows would see — spends no Recost call on the rows it did
        not take.
        """
        resolved = [self._resolve_box(sv, coverage) for sv in svs]
        if not resolved:
            return
        if view is None:
            view = self.cache.columnar()
        if len(view) == 0:
            for _, box in resolved:
                yield self._miss(box)
            return
        budget = self._budget_vector(view)
        cap = self._effective_cap(max_recost)
        step = view.chunk_rows
        for start in range(0, len(resolved), step):
            chunk = resolved[start:start + step]
            for (point, box), factors in zip(
                chunk, self._factor_rows(view, chunk)
            ):
                yield self._decide(
                    point, box, recost, view, *factors, budget, cap
                )

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
        (see :mod:`repro.core.dynamic_lambda`) get the quotient
        memoized per (view, token) so steady-state probes skip the
        Python loop, while token-less callables are re-evaluated every
        probe — always correct, just slower.  A memoized vector also
        memoizes its per-plan slices (:meth:`_group_budget`).
        """
        token = None
        if self.lambda_for is not None:
            token_fn = getattr(self.lambda_for, "state_token", None)
            token = token_fn() if token_fn is not None else None
        memoize = self.lambda_for is None or token is not None
        memo = self._budget_memo
        if memoize and memo is not None and memo[0] is view and memo[1] == token:
            return memo[2]
        if self.lambda_for is None:
            budget = self.lam / view.sub
        else:
            budget = np.array(
                [self.lambda_for(c) for c in view.cost.tolist()],
                dtype=np.float64,
            ) / view.sub
        if memoize:
            self._budget_memo = (view, token, budget, {})
        return budget

    def _group_budget(
        self, budget: "np.ndarray", slot: int, rows: "np.ndarray"
    ) -> "np.ndarray":
        """``budget`` at one plan group's ``rows``, memoized with the
        vector it was cut from."""
        memo = self._budget_memo
        if memo is None or memo[2] is not budget:
            return budget.take(rows)
        slices = memo[3]
        part = slices.get(slot)
        if part is None:
            part = slices[slot] = budget.take(rows)
        return part

    @staticmethod
    def _factor_rows(
        view: ColumnarInstances,
        resolved: list[
            tuple[SelectivityVector, Optional[UncertainSelectivityVector]]
        ],
    ) -> "Iterable[tuple[np.ndarray, ...]]":
        """Per row of ``B`` resolved probes against a non-empty view, its
        ``(N,)`` factor vectors: point ``G``/``L``, then the ``G``/``L``
        that drive the selectivity check.  A chunk of one row runs the
        kernel on its ``(d,)`` point and gets ``(N,)`` vectors outright;
        a larger chunk gets ``(B, N)`` matrices and yields their rows.

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
        one = len(resolved) == 1
        g, l = gl_matrix(view.sv, np.array(
            resolved[0][0].values if one else [p.values for p, _ in resolved],
            dtype=np.float64,
        ))
        if resolved[0][1] is None:
            return ((g, l, g, l),) if one else zip(g, l, g, l)
        box_rows: dict[tuple, int] = {}
        inverse = [
            box_rows.setdefault((b.lo.values, b.hi.values), len(box_rows))
            for _, b in resolved
        ]
        lo = np.array([k[0] for k in box_rows], dtype=np.float64)
        hi = np.array([k[1] for k in box_rows], dtype=np.float64)
        gc, lc = corner_gl_matrix(view.sv, lo, hi, view.sv_sq)
        if one:
            return ((g, l, gc[0], lc[0]),)
        if len(box_rows) < len(resolved):
            inv = np.array(inverse, dtype=np.intp)
            gc, lc = gc[inv], lc[inv]
        return zip(g, l, gc, lc)

    def _decide(
        self,
        point: SelectivityVector,
        box: Optional[UncertainSelectivityVector],
        recost: Callable[[ShrunkenMemo, SelectivityVector], float],
        view: ColumnarInstances,
        g: "np.ndarray",
        l: "np.ndarray",
        gc: "np.ndarray",
        lc: "np.ndarray",
        budget: "np.ndarray",
        cap: int,
    ) -> GetPlanDecision:
        """One row's decision from its ``(N,)`` factor vectors: the
        selectivity check, then a miss or the cost phase."""
        decision, key = self._selectivity_check(
            box, view, g, l, gc, lc, budget, cap
        )
        if decision is not None:
            return decision
        if key is None:
            return self._miss(box)
        return self._cost_phase(
            point, box, recost, view, key, g, l, budget, cap
        )

    def _selectivity_check(
        self,
        box: Optional[UncertainSelectivityVector],
        view: ColumnarInstances,
        g: "np.ndarray",
        l: "np.ndarray",
        gc: "np.ndarray",
        lc: "np.ndarray",
        budget: "np.ndarray",
        cap: int,
    ) -> tuple[Optional[GetPlanDecision], Optional["np.ndarray"]]:
        """Selectivity check over one probe's ``(N,)`` factor vectors.

        Returns ``(hit decision, None)`` or, on a miss, ``(None, the cost
        phase's order key)``.  The hit is the *first*
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
            robust = box is not None
            return GetPlanDecision(
                plan_id=view.cells["plan_ids"][hit],
                check=_SELECTIVITY,
                row=hit,
                view=view,
                g=float(g[hit]),
                l=float(l[hit]),
                bound_value=(
                    view.cells["sub"][hit] * float(check[hit]) if robust else None
                ),
                certificate=certificate_kind(box),
                coverage=box.coverage if robust else 1.0,
            ), None
        self.entries_scanned += len(view)
        if cap <= 0:
            return None, None  # selectivity-only probe: nothing to order
        if self.candidate_order is _GL:
            return None, glc
        if self.candidate_order is _AREA:
            return None, -view.area
        # USAGE mutates without epoch bumps; the per-row rank is memoized
        # against the cache's usage_version instead.  Ranks are unique,
        # ties broken by row order as a stable sort breaks them.
        return None, view.usage_rank(self.cache.usage_version)

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
    def _miss(
        box: Optional[UncertainSelectivityVector], **fields
    ) -> GetPlanDecision:
        return GetPlanDecision(
            plan_id=None, check=_OPTIMIZER,
            certificate=certificate_kind(box), **fields,
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
        are per-anchor vectors, and each check is ``R·L^n ≤ λ/S``,
        ``R = Cost(P_e, q_c) / C_e``, in the scalar check's own
        operation sequence.  Of the passing live anchors the smallest
        certified bound ``S·R·L^n`` wins, ties to the lowest row.

        Step 1 re-costs the plan of the lowest-``key`` live row and
        checks that plan's group (:attr:`ColumnarInstances.plan_groups`)
        alone: a row of any other plan has ``R = +inf`` and cannot
        pass, and the group's rows ascend, so the first minimum over the
        passing rows is the lowest row.  Step 2, only if nothing passed,
        re-costs the other plans in the ``(key, row)`` order of their
        lowest-key live rows, cut so the probe makes at most ``cap``
        calls, then checks all N rows in one pass with the un-costed
        plans at ``R = +inf`` (cheaper than a pass per group; DESIGN.md
        §12).  Either step prices ``S·R·L^n`` only for the rows that
        passed.

        Recost always runs at the *point* estimate; with a box, the
        Cost Bounding Lemma transports that cost to the corner
        maximizing ``G(point→x)·L(anchor→x)``, so the factor is
        ``(Ĝ·L̂)^n`` and the bound holds for every sVector in the box.
        A ``+inf`` Recost (the resilient engine failing closed) fails
        every row of its plan and stays out of the memo.

        ``retired`` flips without an epoch bump, so it is read live
        through the view's store, and masks the key only once a retired
        row turns up as a head.
        """
        cells = view.cells
        retired = cells["retired"]
        decision = self._miss(box, view=view, cost_trail=(g, l, []))
        head = int(key.argmin())
        masked = retired[head]
        if masked:
            key = np.where(view.retired, np.inf, key)
            head = int(key.argmin())
        if key[head] == np.inf:
            return decision  # every anchor is retired
        if box is None or box.is_point:
            # A zero-width box's corner is the point itself: Ĝ = 1, L̂ = L.
            factor = self._raised(l)
        else:
            gg, ll = cost_corner_gl(
                view.sv, *(np.array(v.values) for v in (point, box.lo, box.hi))
            )
            factor = self._raised(gg * ll)

        # Step 1: the head row's plan, on that plan's group alone.
        plans, slot = view.plan_slots
        first = cells["slot"][head]
        cost = self._recost_row(decision, recost, point, head)
        if cost < np.inf:
            rows, cost_p, sub_p = view.plan_groups[first]
            r = cost / cost_p
            check = r * factor[rows]
            passed = (
                check <= self._group_budget(budget, first, rows)
            ).nonzero()[0]
            if len(passed) and self._cost_hit(
                decision, box, retired, r, (sub_p * check)[passed], passed,
                rows,
            ):
                return decision
        if cap < 2 or len(plans) < 2:
            return decision

        # Step 2: the next cap - 1 plans, then one pass over all N rows.
        low, first_rows = view.plan_heads(key)
        if not masked and view.retired.take(first_rows).any():
            low, first_rows = view.plan_heads(np.where(view.retired, np.inf, key))
        order = np.lexsort((first_rows, low))
        next_rows = first_rows[order[low[order] < np.inf][1:cap]]
        costs = np.full(len(plans), np.inf)
        costs[first] = cost
        costed = False
        for row, s in zip(next_rows.tolist(), slot.take(next_rows).tolist()):
            costs[s] = cost = self._recost_row(decision, recost, point, row)
            costed = costed or cost < np.inf
        if not costed:
            return decision  # only step 1's plan is costed, and it failed
        r = costs.take(slot) / view.cost
        check = r * factor
        passed = (check <= budget).nonzero()[0]
        if len(passed):
            self._cost_hit(
                decision, box, retired, r, (view.sub * check)[passed], passed
            )
        return decision

    def _recost_row(
        self,
        decision: GetPlanDecision,
        recost: Callable[[ShrunkenMemo, SelectivityVector], float],
        point: SelectivityVector,
        row: int,
    ) -> float:
        """``Cost(P, q_c)`` of ``row``'s plan, booked on ``decision``;
        ``+inf`` when the plan is gone or the engine failed closed."""
        plan_id = decision.view.cells["plan_ids"][row]
        plan = self.cache.maybe_plan(plan_id)
        if plan is None:
            return np.inf  # evicted under a concurrent probe; skip
        cost = recost(plan.shrunken_memo, point)
        decision.recost_calls += 1
        if not cost < np.inf:
            return np.inf
        decision.recost_memo[plan_id] = cost
        decision.cost_trail[2].append(row)
        return cost

    @staticmethod
    def _cost_hit(
        decision: GetPlanDecision,
        box: Optional[UncertainSelectivityVector],
        retired: memoryview,
        r: "np.ndarray",
        bound: "np.ndarray",
        passed: "np.ndarray",
        rows: Optional["np.ndarray"] = None,
    ) -> bool:
        """Make ``decision`` a cost hit through the first minimum of
        ``bound`` whose row is not retired; False when every passing row
        is.  ``bound`` holds the certified bounds of the passing indices
        ``passed`` (ascending) of ``r``, and is written; ``rows`` maps
        those indices to view rows (the identity when ``None``)."""
        while True:
            k = int(bound.argmin())
            if not bound[k] < np.inf:
                return False
            i = int(passed[k])
            row = i if rows is None else int(rows[i])
            if not retired[row]:
                break
            bound[k] = np.inf
        g, l, _ = decision.cost_trail
        decision.row = row
        decision.plan_id = decision.view.cells["plan_ids"][row]
        decision.check = _COST
        decision.recost_ratio = float(r[i])
        decision.g, decision.l = float(g[row]), float(l[row])
        if box is not None:
            decision.bound_value = float(bound[k])
            decision.coverage = box.coverage
        return True

    def commit(self, decision: GetPlanDecision) -> None:
        """Apply a probed decision's bookkeeping: a hit's row counters, in
        the store it was probed on, the LRU clock and the statistics.
        Callers that probed a view they took earlier must hold the write
        lock and have checked that the cache still holds its store."""
        if decision.hit:
            cost = decision.check is _COST
            tick = self.cache.touch(decision.plan_id)
            decision.view.store.hit(decision.row, cost, decision.recost_calls, tick)
            if cost:
                self.cost_hits += 1
                self._note_recosts(decision.recost_calls)
            else:
                self.selectivity_hits += 1
        else:
            self.misses += 1
            self._note_recosts(decision.recost_calls)

    def _note_recosts(self, calls: int) -> None:
        self.total_recost_calls += calls
        self.max_recost_calls_single = max(self.max_recost_calls_single, calls)
