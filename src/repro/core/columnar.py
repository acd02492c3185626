"""Columnar (structure-of-arrays) view of the instance list.

``getPlan``'s selectivity check runs on the critical path of every
request, and at high hit rates it *is* the serving cost (the paper's
§6.2 overheads discussion).  This module holds the instance list as
parallel ``numpy`` arrays so one probe computes G·L against *all*
anchors in five array ops, and a batch of incoming instances is
evaluated against the whole cache by the same kernel.

Layout
------
One :class:`ColumnarInstances` view holds, for the ``N`` entries of a
cache epoch (``d`` = template dimensionality):

* ``sv`` — the raw selectivities, **dimension-major**: a C-contiguous
  ``(d, N)`` matrix whose row ``j`` is dimension ``j`` of every anchor;
* ``log_sv`` — the same matrix in natural-log space ``(d, N)`` (L1
  distances in this space are ``ln(G·L)``; used for nearest-anchor
  ranking);
* ``sub`` / ``cost`` / ``plan_ids`` — the S, C and PP columns of the
  paper's 5-tuple as ``(N,)`` vectors;
* ``area`` — ``Π_i s_i`` per anchor, the AREA candidate-order key,
  computed once per row instead of once per probe;
* the plan layout — ``plan_slots`` and ``plan_groups``, each plan's
  rows with their C and S — which the cost check's first step reads
  one group of.

The anchor axis is the **last** axis of every array, so appending rows
is one ``np.concatenate(..., axis=-1)`` per field whatever its rank;
the plan layout is carried across the append, touching only the tail
rows' plans.

Copy-on-write discipline
------------------------
A view is the one read view of the instance list: immutable, built
lazily per cache epoch by
:meth:`~repro.core.plan_cache.PlanCache.columnar` and handed out
unchanged between mutations, so taking one on the hot path is O(1).  A
lock-free reader holds the view it took; ``epoch`` tells its commit
whether the cache has moved on since.
Only the *write-once* guarantee-bearing fields (``sv``, ``plan_id``,
``optimal_cost``, ``suboptimality``) are columnarised.  The two advisory
fields that mutate without an epoch bump — ``usage`` (bumped by commits)
and ``retired`` (flipped by the Appendix G violation detector) — are
deliberately **not** copied into arrays: the decision procedure
reads them live from the entry objects, so a flag that flips between
epoch rebuilds takes effect on the next probe.

Equivalence contract
--------------------
Every kernel here reproduces the scalar reference arithmetic of
:mod:`repro.core.bounds` with the *same IEEE-754 operation sequence*
(DESIGN.md §12 has the argument in full).  The folds run over the
**leading** axis of a ``(d, B, N)`` ratio tensor: ``d − 1`` whole-plane
``out *= x[j]`` / ``out /= x[j]`` steps in dimension order, each one
contiguous loop over ``B·N`` — the scalar loops' ``g *= alpha`` /
``l /= alpha`` float for float.  Dimensions the scalar loop skips fold
in as exactly 1.0 (``np.maximum`` / ``np.minimum`` against 1.0; NaN is
rejected by ``SelectivityVector``).  ``sv`` is stored raw alongside
``log_sv`` because G·L from log-space sums would round differently and
break the decision equivalence the differential suite
(``tests/test_vectorized_equivalence.py``) enforces.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .plan_cache import InstanceEntry


class PlanGroup(NamedTuple):
    """One plan's rows of a view, ascending, and their C and S columns:
    the cost check's step 1 runs on these alone."""

    rows: "np.ndarray"  # (k,) row indices into the view, ascending
    cost: "np.ndarray"  # (k,) C of those rows
    sub: "np.ndarray"   # (k,) S of those rows


_NO_ROWS = PlanGroup(np.empty(0, dtype=np.intp), np.empty(0), np.empty(0))


def _columns(entries: Sequence["InstanceEntry"]) -> dict[str, "np.ndarray"]:
    """The array fields of ``entries``' rows, each anchor-last."""
    sv = np.array([e.sv.values for e in entries], dtype=np.float64)
    # Dimension-major (d, N); an empty list has no d, hence (0, 0).
    sv = np.ascontiguousarray(sv.T) if entries else sv.reshape(0, 0)
    return {
        "sv": sv,
        "log_sv": np.log(sv),
        "sub": np.array([e.suboptimality for e in entries], dtype=np.float64),
        "cost": np.array([e.optimal_cost for e in entries], dtype=np.float64),
        "plan_ids": np.array([e.plan_id for e in entries], dtype=np.int64),
        # A leading-axis reduce is out *= sv[j] for j = 1 … d-1 in
        # order: bit-identical to the scalar loop in the test suite's
        # reference_get_plan.sv_product.
        "area": np.multiply.reduce(sv, axis=0),
    }


@dataclass(frozen=True)
class ColumnarInstances:
    """Immutable columnar view of one epoch of the instance list.

    ``entries`` is the row-aligned tuple of the live
    :class:`~repro.core.plan_cache.InstanceEntry` objects — index ``i``
    of every array's last axis describes ``entries[i]``, and decisions
    still reference the entry object (the anchor the certificate names).

    Beside the row arrays a view carries its **plan layout**:
    :attr:`plan_slots` (the distinct plan ids, ascending, and each
    row's index into them) and :attr:`plan_groups` (per slot, the
    plan's rows and their ``C`` / ``S``).  :meth:`extended` carries
    both from the view it extends, so only the tail's plans are touched.
    """

    epoch: int
    entries: tuple["InstanceEntry", ...]
    sv: "np.ndarray"        # (d, N) raw selectivities, dimension-major
    log_sv: "np.ndarray"    # (d, N) natural logs
    sub: "np.ndarray"       # (N,) S column
    cost: "np.ndarray"      # (N,) C column
    plan_ids: "np.ndarray"  # (N,) PP column
    area: "np.ndarray"      # (N,) Π_i s_i (AREA candidate-order key)
    #: The cache lineage the rows were read at; ``PlanCache.columnar``
    #: extends only views of its current lineage.  Views built outside
    #: the cache (explicit row subsets in tests) keep -1 and are never
    #: extended.
    lineage: int = -1

    @classmethod
    def build(
        cls, epoch: int, entries: Sequence["InstanceEntry"], lineage: int = -1
    ) -> "ColumnarInstances":
        entries = tuple(entries)
        return cls(epoch=epoch, entries=entries, lineage=lineage, **_columns(entries))

    def extended(
        self, epoch: int, entries: tuple["InstanceEntry", ...]
    ) -> "ColumnarInstances":
        """A new view over ``entries``, of which this view's rows are a
        prefix: only the tail is columnarised (per-row values identical
        to a full :meth:`build`); this view's arrays are not written."""
        tail = entries[len(self):]
        columns = {name: getattr(self, name) for name in _ROW_FIELDS}
        if tail:
            # The anchor axis is the last axis of every array field.
            for name, rows in _columns(tail).items():
                columns[name] = np.concatenate((columns[name], rows), axis=-1)
        view = ColumnarInstances(
            epoch=epoch, entries=entries, lineage=self.lineage, **columns
        )
        self._carry_plans(view)
        return view

    def _carry_plans(self, view: "ColumnarInstances") -> None:
        """Seed ``view``'s plan layout from this view's, its prefix.

        Only the groups of the tail rows' plans are rebuilt.  Plan ids
        only grow, so a tail row's plan is usually known or the newest;
        a row can still be the first of a plan older than the newest
        one in the view (two plans added, then an instance of the
        older), and then every slot after that plan's shifts by one.
        """
        plans, slot = self.plan_slots
        groups = list(self.plan_groups)
        ids = plans.tolist()
        tail = view.plan_ids[len(self):].tolist()
        fresh = sorted(set(tail).difference(ids))
        if fresh:
            merged = sorted(ids + fresh)
            at = {p: s for s, p in enumerate(merged)}
            moved = [at[p] for p in ids]
            placed = [_NO_ROWS] * len(merged)
            for s, group in zip(moved, groups):
                placed[s] = group
            if fresh[0] < ids[-1]:
                slot = np.array(moved, dtype=np.intp).take(slot)
            plans, groups = np.array(merged, dtype=np.int64), placed
        else:
            at = {p: s for s, p in enumerate(ids)}
        tail_slot = [at[p] for p in tail]
        rows_of: dict[int, list[int]] = {}
        for row, s in enumerate(tail_slot, start=len(self)):
            rows_of.setdefault(s, []).append(row)
        for s, rows in rows_of.items():
            rows = np.array(rows, dtype=np.intp)
            group = groups[s]
            groups[s] = PlanGroup(
                np.concatenate((group.rows, rows)),
                np.concatenate((group.cost, view.cost.take(rows))),
                np.concatenate((group.sub, view.sub.take(rows))),
            )
        view.__dict__["plan_slots"] = (
            plans, np.concatenate((slot, np.array(tail_slot, dtype=np.intp))),
        )
        view.__dict__["plan_groups"] = tuple(groups)

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def dimensions(self) -> int:
        return self.sv.shape[0]

    @cached_property
    def sv_sq(self) -> "np.ndarray":
        """``sv²`` broadcast-shaped ``(d, 1, N)`` — the anchor side of the
        robust corner predicate ``lo·hi ≥ e²``, shared across every probe
        of the epoch instead of rebuilt per box.  (``cached_property``
        writes the instance ``__dict__`` directly, so it coexists with
        the frozen dataclass.)"""
        return (self.sv * self.sv)[:, None, :]

    @cached_property
    def chunk_rows(self) -> int:
        """Probes per kernel chunk against this view, so the ``(d, B, N)``
        ratio tensor stays within :data:`BATCH_TENSOR_ELEMENTS`."""
        return max(1, BATCH_TENSOR_ELEMENTS // max(1, len(self) * self.dimensions))

    def usage_rank(self, version: int) -> "np.ndarray":
        """Row rank under the USAGE candidate order, memoized per cache
        ``usage_version``.

        ``rank[i] < rank[j]`` iff row ``i`` precedes row ``j`` in a
        stable descending-usage sort; ranks are unique, so sorting any
        row subset (taken in row order) by rank reproduces a stable
        ``list.sort(key=-usage)`` over that subset exactly.
        Usage mutates without an epoch bump, which is why the memo keys
        on the cache's usage version rather than living in ``build``.
        """
        memo = self.__dict__.get("_usage_rank")
        if memo is not None and memo[0] == version:
            return memo[1]
        usage = np.array([e.usage for e in self.entries], dtype=np.int64)
        order = np.argsort(-usage, kind="stable")
        rank = np.empty(len(order), dtype=np.int64)
        rank[order] = np.arange(len(order), dtype=np.int64)
        self.__dict__["_usage_rank"] = (version, rank)
        return rank

    @cached_property
    def plan_slots(self) -> tuple["np.ndarray", "np.ndarray"]:
        """``(plans, slot)``: the distinct plan ids, ascending, and each
        row's index into them — the cost check's dense plan axis
        (``costs.take(slot)`` spreads one Recost per plan over its
        anchors; plan ids themselves only grow over a cache's life)."""
        return np.unique(self.plan_ids, return_inverse=True)

    @cached_property
    def plan_groups(self) -> tuple[PlanGroup, ...]:
        """Per plan slot, the plan's rows in ascending order with their
        ``C`` and ``S``."""
        plans, slot = self.plan_slots
        order = np.argsort(slot, kind="stable")
        ends = np.cumsum(np.bincount(slot, minlength=len(plans)))[:-1]
        return tuple(
            PlanGroup(rows, self.cost.take(rows), self.sub.take(rows))
            for rows in np.split(order, ends)
        ) if len(plans) else ()

    def plan_heads(self, key: "np.ndarray") -> tuple["np.ndarray", "np.ndarray"]:
        """Per plan slot, the smallest ``key`` among the plan's rows and
        the first row that attains it (a minimum of ``+inf`` says the
        plan has no candidate row)."""
        plans, slot = self.plan_slots
        low = np.full(len(plans), np.inf)
        np.minimum.at(low, slot, key)
        rows = np.flatnonzero(key == low.take(slot))
        head = np.full(len(plans), len(self), dtype=np.intp)
        np.minimum.at(head, slot.take(rows), rows)
        return low, head


#: The row-array fields, in layout order.
_ROW_FIELDS = tuple(
    f.name for f in fields(ColumnarInstances)
    if f.name not in ("epoch", "entries", "lineage")
)


# -- G/L kernels --------------------------------------------------------------
#
# All kernels take the (d, N) anchor matrix and an already-validated
# (B, d) matrix of incoming points (B = 1 for a single probe) and return
# (B, N) factor matrices; probe_batch chunks B to bound the ratio tensor.


def _fold(alphas: "np.ndarray") -> tuple["np.ndarray", "np.ndarray"]:
    """``(G, L)`` of a ``(d, B, N)`` ratio tensor, folded over the
    leading axis in dimension order (the module docstring says why this
    is :func:`repro.core.bounds.compute_gl`'s loop float for float)."""
    g = np.multiply.reduce(np.maximum(alphas, 1.0), axis=0)
    l = np.divide.reduce(np.minimum(alphas, 1.0), axis=0, initial=1.0)
    return g, l


def gl_matrix(
    sv: "np.ndarray", points: "np.ndarray"
) -> tuple["np.ndarray", "np.ndarray"]:
    """``(G, L)`` of every (incoming point, stored anchor) pair.

    Mirrors :func:`repro.core.bounds.compute_gl` exactly: per-dimension
    ratios ``alpha = point / anchor``, folded as ``g *= alpha`` where
    ``alpha > 1`` and ``l /= alpha`` (from 1.0) where ``alpha < 1``.
    """
    return _fold(points.T[:, :, None] / sv[:, None, :])


def corner_matrix(
    sv: "np.ndarray", lo: "np.ndarray", hi: "np.ndarray",
    sv_sq: Optional["np.ndarray"] = None,
) -> "np.ndarray":
    """Adversarial corner of each box against each stored anchor.

    Vectorizes :func:`repro.core.bounds.adversarial_corner`'s endpoint
    predicate (``lo·hi ≥ e²`` picks ``hi``, ties to ``hi``) over the
    ``(B, d)`` box bounds and the ``(d, N)`` anchor matrix, returning
    the ``(d, B, N)`` corner tensor.  ``sv_sq`` is the precomputed
    ``(d, 1, N)`` anchor-squared tensor (``ColumnarInstances.sv_sq``);
    without it the squares are rebuilt per call.
    """
    if sv_sq is None:
        sv_sq = (sv * sv)[:, None, :]
    return np.where(
        (lo * hi).T[:, :, None] >= sv_sq,
        hi.T[:, :, None],
        lo.T[:, :, None],
    )


def corner_gl_matrix(
    sv: "np.ndarray", lo: "np.ndarray", hi: "np.ndarray",
    sv_sq: Optional["np.ndarray"] = None,
) -> tuple["np.ndarray", "np.ndarray"]:
    """``(G, L)`` evaluated at each box's adversarial corner."""
    return _fold(corner_matrix(sv, lo, hi, sv_sq) / sv[:, None, :])


def cost_corner_gl(
    sv: "np.ndarray", point: "np.ndarray", lo: "np.ndarray", hi: "np.ndarray"
) -> tuple["np.ndarray", "np.ndarray"]:
    """``(G(point→corner), L(anchor→corner))`` per anchor, at the corner
    of one ``(lo, hi)`` box that maximizes the recost-anchored bound.

    The cost check measures ``R`` at the *point* estimate ``c``;
    carrying ``Cost(P, c)`` to an unknown true vector ``x`` costs at
    most ``G(c→x)^n`` while the optimal-cost side keeps ``L(e→x)^n``
    against the anchor ``e``.  Per dimension that factor is
    ``max(x/c, 1)·max(e/x, 1)`` — decreasing, then constant, then
    increasing in ``x`` — so the box maximum is at an endpoint: both are
    evaluated and the larger kept (ties to ``hi``).  ``point``/``lo``/
    ``hi`` are ``(d,)`` vectors, ``sv`` the ``(d, N)`` anchor matrix;
    both factors fold in dimension order like the scalar ``cost_corner``
    + ``compute_cost_gl`` in ``tests/reference_get_plan.py``, and a
    zero-width box gives ``G == 1.0`` and the point check's ``L``.
    """
    c = point[:, None]
    faces = []
    for x in (lo[:, None], hi[:, None]):
        grow = np.where(x > c, x / c, 1.0)
        faces.append(grow * np.where(x < sv, sv / x, 1.0))
    corner = np.where(faces[1] >= faces[0], hi[:, None], lo[:, None])
    g = np.multiply.reduce(np.maximum(corner / c, 1.0), axis=0)
    l = np.divide.reduce(np.minimum(corner / sv, 1.0), axis=0, initial=1.0)
    return g, l


def log_l1_distances(log_sv: "np.ndarray", point: "np.ndarray") -> "np.ndarray":
    """``ln(G·L)`` of one point against every anchor (L1 in log space).

    Used for nearest-anchor *ranking* (degraded serves, seeding), where
    bit-parity with ``math.log`` is not load-bearing — never for the
    certified checks themselves.
    """
    return np.abs(np.log(point)[:, None] - log_sv).sum(axis=0)


#: Elements (256 KB of float64) of the (d, B, N) ratio tensor one
#: ``probe_batch`` chunk may hold.  Measured (DESIGN.md §12): from
#: 512 KB up the fold's temporaries are page-faulted in and handed back
#: to the OS on every chunk, which costs more than batching saves.
BATCH_TENSOR_ELEMENTS = 32_768

