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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from ..optimizer.plans import PhysicalPlan
from ..optimizer.recost import ShrunkenMemo
from ..query.instance import SelectivityVector
from .columnar import ColumnarInstances

# Approximate per-object memory overheads (bytes), used only for the
# bookkeeping-overhead reporting the paper discusses in section 6.1.
INSTANCE_TUPLE_BYTES = 100
PLAN_BASE_BYTES = 2048
PLAN_NODE_BYTES = 256


@dataclass
class CachedPlan:
    """One entry of the plan list."""

    plan_id: int
    signature: str
    plan: PhysicalPlan
    shrunken_memo: ShrunkenMemo
    last_used_tick: int = 0  # logical time of last reuse (LRU eviction)

    def memory_bytes(self) -> int:
        return PLAN_BASE_BYTES + PLAN_NODE_BYTES * self.shrunken_memo.node_count


@dataclass
class InstanceEntry:
    """One 5-tuple of the instance list."""

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

    @property
    def total_hits(self) -> int:
        return self.hits_selectivity + self.hits_cost

    def refresh_cost(self, optimal_cost: float, suboptimality: float) -> None:
        """Re-anchor the stored costs after a recost sweep re-measured
        them.  Guarantee-bearing fields are otherwise write-once; a sweep
        may only *raise* pessimism through the caller's discipline (the
        caller passes the freshly measured optimal cost and the pointed
        plan's measured sub-optimality there, both ≥ 1× reality).  Both
        fields are columnarised, so the caller must follow up with
        :meth:`PlanCache.invalidate_views`."""
        self.optimal_cost = optimal_cost
        self.suboptimality = suboptimality


@dataclass(frozen=True)
class CacheSnapshot:
    """An immutable view of the instance list at one cache epoch.

    The concurrent serving layer runs the lock-free selectivity/cost
    probe against a snapshot and later validates — under the shard's
    write lock — that the epoch is unchanged (or that the specific
    anchor is still live) before committing a hit.  Entries are shared
    references: the only fields a commit mutates (``usage``) are
    advisory, while the guarantee-bearing fields (``sv``, ``plan_id``,
    ``optimal_cost``, ``suboptimality``) are written once at insertion.
    """

    epoch: int
    entries: tuple[InstanceEntry, ...]


@dataclass
class PlanCache:
    """Plan list + instance list with the paper's maintenance operations."""

    _plans: dict[int, CachedPlan] = field(default_factory=dict)
    _by_signature: dict[str, int] = field(default_factory=dict)
    _instances: list[InstanceEntry] = field(default_factory=list)
    _next_plan_id: int = 0
    _tick: int = 0
    max_plans_seen: int = 0
    plans_dropped: int = 0
    #: Monotonic mutation counter; bumped on every structural change
    #: (plan added/dropped, instance added).  Lock-free readers compare
    #: epochs to detect that a snapshot went stale.
    epoch: int = 0
    #: Monotonic counter of every mutation that is *not* an append to the
    #: instance list (``drop_plan``, ``adopt``, in-place cost rewrites via
    #: ``invalidate_views``).  A columnar view may be extended with the
    #: new tail rows only while the lineage it was built at is current.
    lineage: int = 0
    #: Monotonic *usage* counter; bumped whenever any instance's ``U``
    #: changes.  Usage edits are advisory (they reorder LFU/USAGE scans
    #: but never move an anchor), so they deliberately do not bump
    #: ``epoch`` — columnar views stay valid across them and memoize
    #: usage-derived orderings against this counter instead.
    usage_version: int = 0
    #: Anchor-hit totals carried by entries that were evicted with their
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
    _snapshot: Optional[CacheSnapshot] = field(default=None, repr=False)
    _columnar: Optional[ColumnarInstances] = field(default=None, repr=False)

    def _mutated(self) -> None:
        """Book an append-only mutation (plan or instance added).

        The columnar view survives: its rows are still a valid prefix,
        and :meth:`columnar` extends it instead of rebuilding.
        """
        self.epoch += 1
        self._snapshot = None

    def invalidate_views(self) -> None:
        """Book a mutation that removed, reordered or rewrote entries.

        Call after anything other than an append — including in-place
        edits of columnarised fields (``InstanceEntry.refresh_cost``) —
        so no outstanding view is mistaken for a prefix of the new list.
        """
        self.lineage += 1
        self._columnar = None
        self._mutated()

    def snapshot(self) -> CacheSnapshot:
        """Copy-on-write snapshot of the instance list.

        Between mutations the same tuple is handed out, so snapshotting
        on the hot path is O(1); a mutation invalidates the cached copy
        and the next reader rebuilds it.
        """
        snap = self._snapshot
        if snap is None or snap.epoch != self.epoch:
            snap = CacheSnapshot(epoch=self.epoch, entries=tuple(self._instances))
            self._snapshot = snap
        return snap

    def columnar(self) -> ColumnarInstances:
        """Copy-on-write columnar view of the instance list.

        The structure-of-arrays twin of :meth:`snapshot`: built from the
        same entries tuple (so ``columnar().entries is snapshot.entries``
        within an epoch), cached until the next structural mutation, and
        brought up to date lazily by the first reader after one.
        ``getPlan`` probes these arrays; decisions still point at the
        shared :class:`InstanceEntry` objects.

        After appends the previous view is *extended* with the tail rows
        (a new view; the old one is untouched) instead of rebuilt from
        all N entries.  An epoch change alone does not prove the history
        was append-only — a lock-free reader can publish a view built
        from a pre-drop snapshot — so extension requires that the view
        was built at the current :attr:`lineage` and that its last row
        is still at the same index: entries are never reordered or
        re-inserted, so a surviving last row proves the whole prefix.
        The lineage is read on both sides of the snapshot: a reader that
        stalls between the two reads holds a stale value that a view
        published meanwhile (by another reader, from pre-rewrite rows)
        may carry too, and only the second read tells them apart.
        """
        lineage = self.lineage
        snap = self.snapshot()
        view = self._columnar
        if (
            view is not None
            and view.epoch == snap.epoch
            and view.entries is snap.entries
        ):
            return view
        rows = 0 if view is None else len(view)
        if (
            0 < rows <= len(snap.entries)
            and view.lineage == lineage == self.lineage
            and snap.entries[rows - 1] is view.entries[rows - 1]
        ):
            view = view.extended(snap.epoch, snap.entries)
        else:
            view = ColumnarInstances.build(snap.epoch, snap.entries, lineage)
        self._columnar = view
        return view

    def touch(self, plan_id: int) -> None:
        """Record a reuse of ``plan_id`` (advances the LRU clock)."""
        self._tick += 1
        self.usage_version += 1
        plan = self._plans.get(plan_id)
        if plan is not None:
            plan.last_used_tick = self._tick

    def adopt(self, other: PlanCache) -> None:
        """Replace this cache's contents with ``other``'s, in place.

        Warm-start installs a restored snapshot into a live SCR stack,
        where ``get_plan`` and ``manage_cache`` both hold references to
        *this* object — so the contents move, not the
        identity.  The epoch advances past both caches' so every
        outstanding snapshot/columnar view reads as stale.
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
        self._instances = other._instances
        self._next_plan_id = other._next_plan_id
        self._tick = max(self._tick, other._tick)
        self.max_plans_seen = max(self.max_plans_seen, other.max_plans_seen)
        self.plans_dropped += other.plans_dropped
        self.evicted_hits_selectivity += other.evicted_hits_selectivity
        self.evicted_hits_cost += other.evicted_hits_cost
        self.evicted_recost_spend += other.evicted_recost_spend
        self.evicted_never_hit += other.evicted_never_hit
        self.epoch = max(self.epoch, other.epoch)
        self.usage_version = max(self.usage_version, other.usage_version)
        self.invalidate_views()

    # -- plan list ---------------------------------------------------------

    def find_plan(self, signature: str) -> Optional[CachedPlan]:
        plan_id = self._by_signature.get(signature)
        return self._plans[plan_id] if plan_id is not None else None

    def plan(self, plan_id: int) -> CachedPlan:
        return self._plans[plan_id]

    def has_plan(self, plan_id: int) -> bool:
        """True while ``plan_id`` is live.  Plan ids are never reused,
        so this is the revalidation test for an optimistic hit."""
        return plan_id in self._plans

    def maybe_plan(self, plan_id: int) -> Optional[CachedPlan]:
        """Like :meth:`plan` but None when the plan has been dropped —
        the lookup lock-free probes use, since a concurrent eviction can
        remove a snapshot anchor's plan mid-scan."""
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
        for inst in self._instances:
            if inst.plan_id == plan_id:
                # Fold the departing anchors' lifetime attribution into
                # the evicted totals so the accounting identity holds.
                self.evicted_hits_selectivity += inst.hits_selectivity
                self.evicted_hits_cost += inst.hits_cost
                self.evicted_recost_spend += inst.recost_spend
                if inst.total_hits == 0:
                    self.evicted_never_hit += 1
        self._instances = [i for i in self._instances if i.plan_id != plan_id]
        self.plans_dropped += 1
        self.invalidate_views()

    def plans(self) -> list[CachedPlan]:
        return list(self._plans.values())

    @property
    def num_plans(self) -> int:
        return len(self._plans)

    # -- instance list -------------------------------------------------------

    def add_instance(self, entry: InstanceEntry) -> None:
        if entry.plan_id not in self._plans:
            raise KeyError(f"instance points at unknown plan {entry.plan_id}")
        self._instances.append(entry)
        self._mutated()

    def find_instance(self, sv: SelectivityVector) -> Optional[InstanceEntry]:
        """First live instance entry with exactly this selectivity vector."""
        for entry in self._instances:
            if entry.sv.values == sv.values:
                return entry
        return None

    def instances(self) -> Iterator[InstanceEntry]:
        return iter(self._instances)

    def instances_for(self, plan_id: int) -> list[InstanceEntry]:
        return [i for i in self._instances if i.plan_id == plan_id]

    @property
    def num_instances(self) -> int:
        return len(self._instances)

    def aggregate_usage(self, plan_id: int) -> int:
        """Sum of U over the plan's instances (the LFU eviction key)."""
        return sum(i.usage for i in self._instances if i.plan_id == plan_id)

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
        sel = self.evicted_hits_selectivity
        cost = self.evicted_hits_cost
        spend = self.evicted_recost_spend
        for entry in self._instances:
            sel += entry.hits_selectivity
            cost += entry.hits_cost
            spend += entry.recost_spend
        return sel, cost, spend

    def memory_bytes(self) -> int:
        """Approximate cache memory (plan list dominates; section 6.1)."""
        plans = sum(p.memory_bytes() for p in self._plans.values())
        return plans + INSTANCE_TUPLE_BYTES * len(self._instances)
