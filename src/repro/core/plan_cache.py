"""The SCR plan cache: plan list + instance list (section 6.1).

The cache stores two structures:

* a **plan list** — the retained physical plans together with their
  cacheable re-costing representation (the shrunken memo), and
* an **instance list** — one 5-tuple ``I = <V, PP, C, S, U>`` per
  optimized query instance, where ``V`` is the selectivity vector,
  ``PP`` points into the plan list (possibly at a plan *other* than the
  instance's optimal one when the redundancy check rejected the new
  plan), ``C`` is the optimizer-estimated optimal cost at the instance,
  ``S`` the sub-optimality of the pointed plan there, and ``U`` a usage
  counter feeding the LFU eviction policy.

The instance list *is* one :class:`~repro.core.columnar.ColumnStore`:
each 5-tuple is a row of its columns, counters included, and every
structural mutation publishes the next epoch's view, which
:meth:`PlanCache.columnar` hands to readers.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, Optional, Sequence

from ..optimizer.plans import PhysicalPlan
from ..optimizer.recost import ShrunkenMemo
from ..query.instance import SelectivityVector
from .columnar import MUTABLE_COLUMNS, ColumnarInstances, ColumnStore, np


@dataclass
class CachedPlan:
    """One entry of the plan list."""

    plan_id: int
    signature: str
    plan: PhysicalPlan
    shrunken_memo: ShrunkenMemo
    last_used_tick: int = 0  # logical time of last reuse (LRU eviction)


@dataclass(frozen=True)
class InstanceEntry:
    """One 5-tuple of the instance list as a record: what
    :meth:`PlanCache.add_instance` appends and :meth:`PlanCache.instances`
    reads back.  The cache stores rows, not records."""

    sv: SelectivityVector        # V
    plan_id: int                 # PP (pointer into the plan list)
    optimal_cost: float          # C
    suboptimality: float         # S  (of the pointed plan at this instance)
    usage: int = 1               # U
    retired: bool = False        # Appendix G: excluded from cost checks
                                 # after a detected assumption violation.
    # -- efficacy attribution (advisory; never read by the checks) ----------
    #: Lifetime certified reuses through this anchor's selectivity check.
    hits_selectivity: int = 0
    #: Lifetime certified reuses through this anchor's cost check.
    hits_cost: int = 0
    #: Recost calls spent on cost-check hits *through this anchor* —
    #: the marginal engine spend its reuses still cost.
    recost_spend: int = 0
    #: Cache tick of the last hit (-1 = never hit); ages against the
    #: cache's current tick for the doctor's staleness ranking.
    last_hit_tick: int = -1

    @property
    def pointed_plan_cost(self) -> float:
        """``Cost(P(q_e), q_e) = C * S``."""
        return self.optimal_cost * self.suboptimality


@dataclass
class PlanCache:
    """Plan list + instance list with the paper's maintenance operations.
    Mutations run under the owning shard's lock, or serially."""

    _plans: dict[int, CachedPlan] = field(default_factory=dict)
    _by_signature: dict[str, int] = field(default_factory=dict)
    _next_plan_id: int = 0
    _tick: int = 0
    max_plans_seen: int = 0
    #: Monotonic *usage* counter; bumped whenever any instance's ``U``
    #: changes.  Usage edits are advisory (they reorder LFU/USAGE scans
    #: but never move an anchor), so they deliberately do not bump
    #: ``epoch`` — columnar views stay valid across them and memoize
    #: usage-derived orderings against this counter instead.
    usage_version: int = 0
    #: Anchor-hit totals carried by rows that were evicted with their
    #: plan (``drop_plan``).  Keeping them makes the efficacy accounting
    #: identity — Σ per-anchor hits (+ evicted) = getPlan's hit counters
    #: — survive eviction and warm-start adoption.
    evicted_hits_selectivity: int = 0
    evicted_hits_cost: int = 0
    evicted_recost_spend: int = 0
    #: Evicted anchors that never earned a single hit (pure wasted
    #: optimizer spend, the doctor's headline waste figure).
    evicted_never_hit: int = 0
    #: Hit totals that arrived with adopted (warm-start) contents.
    #: They predate this process's getPlan counters, so the accounting
    #: identity subtracts them (:func:`repro.obs.doctor.template_summary`
    #: carries both).
    adopted_hits_selectivity: int = 0
    adopted_hits_cost: int = 0
    adopted_recost_spend: int = 0
    _store: ColumnStore = field(
        default_factory=ColumnStore, init=False, repr=False, compare=False
    )
    _view: ColumnarInstances = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._view = self._store.view(0)

    @property
    def epoch(self) -> int:
        """Monotonic mutation counter, bumped by every structural change
        (plan added or dropped, instance added, rows rebuilt): the
        current view's epoch, so a reader that reads the epoch and then
        the view never gets a view older than the epoch it read."""
        return self._view.epoch

    def _mutated(self) -> None:
        """Publish the store's rows as the next epoch's view."""
        self._view = self._store.view(self._view.epoch + 1)

    def _rebuild(self, records: Iterable[InstanceEntry]) -> None:
        """Replay ``records`` into a fresh store and publish it; views
        already handed out keep the old store."""
        self._store = ColumnStore(records)
        self._mutated()

    def columnar(self) -> ColumnarInstances:
        """The current view of the instance list, published by the last
        mutation and handed out unchanged until the next."""
        return self._view

    def holds(self, view: ColumnarInstances) -> bool:
        """True while ``view`` is of the current store (only appends
        since), so its rows are still this cache's rows."""
        return view.store is self._store

    def touch(self, plan_id: int) -> int:
        """Record a reuse of ``plan_id``: advance the LRU clock and
        return its new tick."""
        tick = self._tick = self._tick + 1
        self.usage_version += 1
        plan = self._plans.get(plan_id)
        if plan is not None:
            plan.last_used_tick = tick
        return tick

    def adopt(self, other: PlanCache) -> None:
        """Replace this cache's contents with ``other``'s, in place.

        Warm-start installs a restored snapshot into a live SCR stack,
        where ``get_plan`` and ``manage_cache`` both hold references to
        *this* object — so the contents move, not the
        identity.  The epoch advances past both caches', so every
        outstanding columnar view reads as stale.
        """
        # Hit totals carried by the adopted contents were earned against
        # a *previous* process's getPlan counters; bank them as the
        # adopted baseline so the identity survives warm start.
        osel, ocost, ospend = other.anchor_hit_totals()
        self.adopted_hits_selectivity += osel + other.adopted_hits_selectivity
        self.adopted_hits_cost += ocost + other.adopted_hits_cost
        self.adopted_recost_spend += ospend + other.adopted_recost_spend
        self._plans = other._plans
        self._by_signature = other._by_signature
        self._next_plan_id = other._next_plan_id
        self._tick = max(self._tick, other._tick)
        self.max_plans_seen = max(self.max_plans_seen, other.max_plans_seen)
        self.evicted_hits_selectivity += other.evicted_hits_selectivity
        self.evicted_hits_cost += other.evicted_hits_cost
        self.evicted_recost_spend += other.evicted_recost_spend
        self.evicted_never_hit += other.evicted_never_hit
        self.usage_version = max(self.usage_version, other.usage_version)
        self._store = ColumnStore(other.instances())
        self._view = self._store.view(max(self.epoch, other.epoch) + 1)

    # -- plan list ---------------------------------------------------------

    def find_plan(self, signature: str) -> Optional[CachedPlan]:
        plan_id = self._by_signature.get(signature)
        return self._plans[plan_id] if plan_id is not None else None

    def plan(self, plan_id: int) -> CachedPlan:
        return self._plans[plan_id]

    def maybe_plan(self, plan_id: int) -> Optional[CachedPlan]:
        """Like :meth:`plan` but None when the plan has been dropped —
        the lookup lock-free probes use, since a concurrent eviction can
        remove a held view's anchor's plan mid-scan."""
        return self._plans.get(plan_id)

    def add_plan(self, plan: PhysicalPlan, shrunken: ShrunkenMemo) -> CachedPlan:
        # ``shrink`` already rendered the signature; rebuilding the
        # recursive string here would repeat that work on every miss.
        signature = shrunken.signature
        existing = self.find_plan(signature)
        if existing is not None:
            return existing
        entry = CachedPlan(
            plan_id=self._next_plan_id,
            signature=signature,
            plan=plan,
            shrunken_memo=shrunken,
        )
        self._plans[entry.plan_id] = entry
        self._by_signature[signature] = entry.plan_id
        self._next_plan_id += 1
        self.max_plans_seen = max(self.max_plans_seen, len(self._plans))
        self._mutated()
        return entry

    def drop_plan(self, plan_id: int) -> None:
        """Remove a plan *and* every instance entry pointing to it.

        Dropping the pointing instances is what preserves the bounded
        sub-optimality guarantee (section 6.3.1): no future inference
        can be made through an anchor whose plan is gone.
        """
        entry = self._plans.pop(plan_id, None)
        if entry is None:
            raise KeyError(f"no cached plan with id {plan_id}")
        del self._by_signature[entry.signature]
        view = self._view
        gone = view.plan_ids == plan_id
        # Fold the departing anchors' lifetime attribution into the
        # evicted totals so the accounting identity holds.
        hits_sel = view.hits_selectivity[gone]
        hits_cost = view.hits_cost[gone]
        self.evicted_hits_selectivity += int(hits_sel.sum())
        self.evicted_hits_cost += int(hits_cost.sum())
        self.evicted_recost_spend += int(view.recost_spend[gone].sum())
        self.evicted_never_hit += int(np.count_nonzero(hits_sel + hits_cost == 0))
        self._rebuild(self._records(~gone))

    def plans(self) -> list[CachedPlan]:
        return list(self._plans.values())

    @property
    def num_plans(self) -> int:
        return len(self._plans)

    # -- instance list -------------------------------------------------------

    def add_instance(self, entry: InstanceEntry) -> None:
        if entry.plan_id not in self._plans:
            raise KeyError(f"instance points at unknown plan {entry.plan_id}")
        self._store.append(entry)
        self._mutated()

    def refresh_costs(
        self, rows: Sequence[int], cost: Sequence[float], sub: Sequence[float]
    ) -> None:
        """Re-anchor the C and S of ``rows`` after a recost sweep
        re-measured them (both ≥ 1× reality), in one rebuild: the next
        probe reads them, and views handed out keep the old ones."""
        records = list(self.instances())
        for row, c, s in zip(rows, cost, sub):
            records[row] = replace(records[row], optimal_cost=c, suboptimality=s)
        self._rebuild(records)

    def find_instance(self, sv: SelectivityVector) -> Optional[int]:
        """The first row with exactly this selectivity vector."""
        view = self._view
        if view.dimensions != len(sv):
            return None
        rows = np.flatnonzero((view.stored_sv == np.array(sv.values)[:, None]).all(axis=0))
        return int(rows[0]) if len(rows) else None

    def _records(self, rows) -> Iterator[InstanceEntry]:
        view = self._view
        columns = [
            getattr(view, name)[rows].tolist()
            for name in ("plan_ids", "cost", "sub", *MUTABLE_COLUMNS)
        ]
        for sv, *fields in zip(view.stored_sv[:, rows].T.tolist(), *columns):
            yield InstanceEntry(SelectivityVector(tuple(sv)), *fields)

    def instances(self) -> Iterator[InstanceEntry]:
        """Every row as a record, in row order."""
        return self._records(slice(None))

    def instance(self, row: int) -> InstanceEntry:
        return next(self._records([row]))

    def instances_for(self, plan_id: int) -> list[InstanceEntry]:
        return list(self._records(self._view.plan_ids == plan_id))

    @property
    def num_instances(self) -> int:
        return len(self._view)

    def aggregate_usage(self, plan_id: int) -> int:
        """Sum of U over the plan's instances (the LFU eviction key)."""
        view = self._view
        return int(view.usage[view.plan_ids == plan_id].sum())

    def min_usage_plan(self) -> Optional[CachedPlan]:
        """The plan with minimum aggregate usage count (LFU victim)."""
        if not self._plans:
            return None
        return min(
            self._plans.values(), key=lambda p: self.aggregate_usage(p.plan_id)
        )

    def lru_plan(self) -> Optional[CachedPlan]:
        """The least recently reused plan (LRU victim)."""
        if not self._plans:
            return None
        return min(self._plans.values(), key=lambda p: p.last_used_tick)

    # -- bookkeeping -----------------------------------------------------------

    @property
    def tick(self) -> int:
        """The current LRU clock value (``last_hit_tick`` ages against it)."""
        return self._tick

    def anchor_hit_totals(self) -> tuple[int, int, int]:
        """``(selectivity, cost, recost_spend)`` summed over live anchors
        *and* evicted ones — the left side of the accounting identity
        against :class:`~repro.core.get_plan.GetPlan`'s hit counters,
        once the ``adopted_*`` warm-start baseline is subtracted."""
        view = self._view
        return (
            self.evicted_hits_selectivity + int(view.hits_selectivity.sum()),
            self.evicted_hits_cost + int(view.hits_cost.sum()),
            self.evicted_recost_spend + int(view.recost_spend.sum()),
        )
