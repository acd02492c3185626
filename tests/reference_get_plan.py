"""Reference getPlan: the per-entry scalar scan, kept as an oracle.

Algorithm 1 written the obvious way — one Python loop over the instance
list calling :func:`repro.core.bounds.compute_gl` per entry, then a
stable ``list.sort`` of the survivors — with no columnar view and no
numpy.  It is slow and obviously right, which is what the differential
suite (``test_vectorized_equivalence.py``), the golden fixtures and the
hot-path benchmark's baseline need: the production kernel in
``repro.core.get_plan`` must reproduce this one's decisions bit for bit.

Only the selectivity scan and the candidate ordering live here; the cost
check, ``commit`` and every counter are the production class's own.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Iterable, Optional

from repro.core.bounds import adversarial_corner, compute_gl
from repro.core.get_plan import (
    CandidateOrder,
    CheckKind,
    GetPlan,
    GetPlanDecision,
    certificate_kind,
)
from repro.core.plan_cache import InstanceEntry


class ReferenceGetPlan(GetPlan):
    """:class:`GetPlan` with the selectivity check as a scalar loop."""

    def probe(self, sv, recost, entries=None, max_recost=None, coverage=None):
        point, box = self._resolve_box(sv, coverage)
        if entries is None:
            entries = self.cache.instances()
        decision, candidates = self._scan(point, box, entries)
        if decision is not None:
            return decision
        self._order(candidates)
        cap = self._effective_cap(max_recost)
        return self._cost_phase(
            point, box, recost,
            [(g, l, entry) for _, g, l, entry in candidates[:cap]],
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
        self, point, box, entries: Iterable[InstanceEntry]
    ) -> tuple[
        Optional[GetPlanDecision],
        list[tuple[float, float, float, InstanceEntry]],
    ]:
        """A hit decision or, on a miss, every surviving candidate as
        ``(order key, G, L, entry)`` — G/L are point values, the key is
        the (corner) G·L product.

        With a box the adversarial corner's G·L drives the check while
        the point G·L still feeds the decision.
        """
        robust = box is not None
        candidates: list[tuple[float, float, float, InstanceEntry]] = []
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
                ), candidates
            if not entry.retired:
                candidates.append((gc * lc, g, l, entry))
        return None, candidates

    def _order(self, candidates: list) -> None:
        if self.candidate_order is CandidateOrder.GL:
            candidates.sort(key=lambda item: item[0])
        elif self.candidate_order is CandidateOrder.AREA:
            # Region area grows with the product of the anchor's
            # selectivities (Figure 4's closed form): largest first.
            candidates.sort(key=lambda item: -item[3].sv_product)
        else:  # USAGE: most-used anchors first.
            candidates.sort(key=lambda item: -item[3].usage)


def use_reference(scr):
    """Swap ``scr``'s getPlan for the reference, same configuration."""
    config = {f.name: getattr(scr.get_plan, f.name)
              for f in fields(scr.get_plan) if f.init}
    scr.get_plan = ReferenceGetPlan(**config)
    return scr
