"""Reference getPlan: the per-entry scalar procedure, kept as an oracle.

Algorithm 1 written the obvious way — one Python loop over the instance
list calling :func:`repro.core.bounds.compute_gl` per entry for the
selectivity check, then the plan-major cost check as per-entry Python
over :mod:`repro.core.bounds` — with no columnar view and no numpy.  It
is slow and obviously right, which is what the differential suite
(``test_vectorized_equivalence.py``), the golden fixtures and the
hot-path benchmark's baseline need: the production kernels in
``repro.core.get_plan`` must reproduce this one's decisions bit for bit.

The selectivity scan, the plan ordering and the cost check — with the
scalar ``cost_corner`` / ``compute_cost_gl`` of its robust form — all
live here; only ``commit`` and the counters are the production class's
own.
"""

from __future__ import annotations

import math
from dataclasses import fields
from typing import Optional, Sequence

from repro.core.bounds import adversarial_corner, compute_gl
from repro.core.get_plan import (
    CandidateOrder,
    CheckKind,
    GetPlan,
    GetPlanDecision,
    certificate_kind,
)
from repro.core.plan_cache import InstanceEntry
from repro.query.instance import SelectivityVector, UncertainSelectivityVector


def sv_product(entry: InstanceEntry) -> float:
    """``Π_i s_i`` — the AREA candidate-order key (Figure 4's region area
    grows with it), folded left to right from 1.0: the scalar statement
    of ``ColumnarInstances.area``."""
    product = 1.0
    for s in entry.sv:
        product *= s
    return product


# -- the robust cost check's corner, one anchor at a time ----------------------
#
# The scalar statement of what ``repro.core.columnar.cost_corner_gl``
# computes for all anchors at once (DESIGN.md §11 has the endpoint
# argument next to ``adversarial_corner``'s).


def cost_corner(
    point: SelectivityVector,
    anchor: SelectivityVector,
    usv: UncertainSelectivityVector,
) -> SelectivityVector:
    """The corner maximizing the recost-anchored bound ``G(c→x)·L(e→x)``.

    The cost check's recost ratio ``R`` is measured at the *point*
    estimate ``c``; transporting ``Cost(P, c)`` to an unknown true
    vector ``x`` costs at most ``G(c→x)^n`` (Cost Bounding Lemma) while
    the optimal-cost side keeps ``L(e→x)^n`` against the stored anchor
    ``e``.  Per dimension the factor is
    ``f(x) = max(x/c_i, 1) * max(e_i/x, 1)`` — a product of a
    non-decreasing and a non-increasing quasi-convex piece whose shape is
    decreasing, then constant, then increasing — so the box maximum is
    again at an endpoint; we evaluate both and keep the larger (ties to
    ``hi``).  For a zero-width box the corner equals ``c``, where
    ``G(c→c) = 1`` and ``L(e→c)`` is the point check's L, reproducing
    the point cost check exactly.
    """

    def factor(x: float, c: float, e: float) -> float:
        g = x / c if x > c else 1.0
        l = e / x if x < e else 1.0
        return g * l

    picked = []
    for c, e, lo, hi in zip(point, anchor, usv.lo, usv.hi):
        picked.append(hi if factor(hi, c, e) >= factor(lo, c, e) else lo)
    return SelectivityVector.from_sequence(picked)


def compute_cost_gl(
    point: SelectivityVector,
    anchor: SelectivityVector,
    corner: SelectivityVector,
) -> tuple[float, float]:
    """``(G(point→corner), L(anchor→corner))`` for the robust cost check.

    The increment factor transports the recost result from the point
    estimate to the corner; the decrement factor is the ordinary L
    against the stored anchor.  Both loops mirror :func:`compute_gl`'s
    arithmetic exactly (``g *= alpha`` / ``l /= alpha``) so that a
    zero-width box — where ``corner == point`` — reproduces the point
    cost check's ``L`` bit-for-bit.
    """
    g = 1.0
    for alpha in point.ratios(corner):
        if alpha > 1.0:
            g *= alpha
    l = 1.0
    for alpha in anchor.ratios(corner):
        if alpha < 1.0:
            l /= alpha
    return g, l


class ReferenceGetPlan(GetPlan):
    """:class:`GetPlan` with both checks as scalar loops."""

    def probe(self, sv, recost, entries=None, max_recost=None, coverage=None):
        point, box = self._resolve_box(sv, coverage)
        entries = tuple(
            self.cache.instances() if entries is None else entries
        )
        decision, rows = self._scan(point, box, entries)
        if decision is not None:
            return decision
        return self._cost_walk(
            point, box, recost, entries, rows, self._effective_cap(max_recost)
        )

    def probe_batch(
        self, svs, recost, entries=None, max_recost=None, coverage=None
    ):
        if entries is not None:
            entries = tuple(entries)
        return [
            self.probe(sv, recost, entries, max_recost, coverage) for sv in svs
        ]

    def _scan(
        self, point, box, entries: Sequence[InstanceEntry]
    ) -> tuple[Optional[GetPlanDecision], list[tuple[float, float, float]]]:
        """A hit decision or, on a miss, every row's ``(corner G·L, G,
        L)`` — G/L are point values.

        With a box the adversarial corner's G·L drives the check while
        the point G·L still feeds the decision.
        """
        robust = box is not None
        rows: list[tuple[float, float, float]] = []
        for entry in entries:
            self.entries_scanned += 1
            g, l = compute_gl(entry.sv, point)
            if robust:
                corner = adversarial_corner(entry.sv, box)
                gc, lc = compute_gl(entry.sv, corner)
            else:
                gc, lc = g, l
            check_value = self.bound.selectivity_bound(gc, lc)
            budget = self._effective_lambda(entry) / entry.suboptimality
            if check_value <= budget:
                return GetPlanDecision(
                    plan_id=entry.plan_id,
                    check=CheckKind.SELECTIVITY,
                    anchor=entry,
                    g=g,
                    l=l,
                    bound_value=(
                        entry.suboptimality * check_value if robust else None
                    ),
                    certificate=certificate_kind(box),
                    coverage=box.coverage if robust else 1.0,
                ), rows
            rows.append((gc * lc, g, l))
        return None, rows

    def _order_key(self, row: int, entry: InstanceEntry, glc: float, ranks):
        if self.candidate_order is CandidateOrder.GL:
            return glc
        if self.candidate_order is CandidateOrder.AREA:
            # Region area grows with the product of the anchor's
            # selectivities (Figure 4's closed form): largest first.
            return -sv_product(entry)
        return ranks[row]  # USAGE: most-used anchors first.

    def _cost_walk(self, point, box, recost, entries, rows, cap):
        """The plan-major cost check, one entry at a time.

        Plans are ordered by ``(smallest key among their live anchors,
        row of that anchor)``.  Step 1 re-costs the first plan and
        checks each of its live anchors; step 2, only if none passed,
        re-costs the next ``cap − 1`` plans and checks every live anchor
        of every re-costed plan.  Of the passing anchors the smallest
        ``S · check value`` wins, ties to the lowest row.
        """
        robust = box is not None
        cert = certificate_kind(box)
        g = [row[1] for row in rows]
        l = [row[2] for row in rows]
        heads: dict[int, tuple[float, int]] = {}
        if cap > 0:
            # A stable descending-usage sort, as ranks (unique per row).
            by_usage = sorted(
                range(len(entries)), key=lambda i: -entries[i].usage
            )
            ranks = {row: rank for rank, row in enumerate(by_usage)}
            for row, entry in enumerate(entries):
                if entry.retired:
                    continue
                head = (self._order_key(row, entry, rows[row][0], ranks), row)
                if entry.plan_id not in heads or head < heads[entry.plan_id]:
                    heads[entry.plan_id] = head
        order = sorted(heads, key=heads.get)[:cap]
        costs: dict[int, float] = {}
        memo: dict[int, float] = {}
        trail: list[int] = []
        calls = 0
        for step in (order[:1], order[1:]):
            for plan_id in step:
                plan = self.cache.maybe_plan(plan_id)
                if plan is None:
                    continue
                costs[plan_id] = recost(plan.shrunken_memo, point)
                calls += 1
                if costs[plan_id] < math.inf:
                    memo[plan_id] = costs[plan_id]
                    trail.append(heads[plan_id][1])
            best = None
            for row, entry in enumerate(entries):
                if entry.retired or entry.plan_id not in costs:
                    continue
                r = costs[entry.plan_id] / entry.optimal_cost
                if robust:
                    corner = cost_corner(point, entry.sv, box)
                    gg, ll = compute_cost_gl(point, entry.sv, corner)
                    check_value = r * self.bound.selectivity_bound(gg, ll)
                else:
                    check_value = self.bound.cost_bound(r, l[row])
                budget = self._effective_lambda(entry) / entry.suboptimality
                if not check_value <= budget:
                    continue
                certified = entry.suboptimality * check_value
                if best is None or certified < best[0]:
                    best = (certified, row, r)
            if best is not None:
                certified, row, r = best
                return GetPlanDecision(
                    plan_id=entries[row].plan_id,
                    check=CheckKind.COST,
                    anchor=entries[row],
                    recost_calls=calls,
                    recost_ratio=r,
                    g=g[row],
                    l=l[row],
                    bound_value=certified if robust else None,
                    certificate=cert,
                    coverage=box.coverage if robust else 1.0,
                    recost_memo=memo,
                    cost_trail=(entries, g, l, trail),
                )
        return GetPlanDecision(
            plan_id=None, check=CheckKind.OPTIMIZER, recost_calls=calls,
            certificate=cert, recost_memo=memo,
            cost_trail=(entries, g, l, trail),
        )


def use_reference(scr):
    """Swap ``scr``'s getPlan for the reference, same configuration."""
    config = {f.name: getattr(scr.get_plan, f.name)
              for f in fields(scr.get_plan) if f.init}
    scr.get_plan = ReferenceGetPlan(**config)
    return scr
