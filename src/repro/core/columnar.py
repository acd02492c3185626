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
  computed once per row instead of once per probe.

The anchor axis is the **last** axis of every array, so appending rows
is one ``np.concatenate(..., axis=-1)`` per field whatever its rank.

Copy-on-write discipline
------------------------
Views are immutable and built lazily per cache epoch by
:meth:`~repro.core.plan_cache.PlanCache.columnar`, exactly like
:class:`~repro.core.plan_cache.CacheSnapshot` — between mutations the
same view is handed out, so columnar access on the hot path is O(1).
Only the *write-once* guarantee-bearing fields (``sv``, ``plan_id``,
``optimal_cost``, ``suboptimality``) are columnarised.  The two advisory
fields that mutate without an epoch bump — ``usage`` (bumped by commits)
and ``retired`` (flipped by the Appendix G violation detector) — are
deliberately **not** snapshotted into arrays: the decision procedure
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

from dataclasses import dataclass, fields, replace
from functools import cached_property
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .plan_cache import InstanceEntry


@dataclass(frozen=True)
class ColumnarInstances:
    """Immutable columnar view of one epoch of the instance list.

    ``entries`` is the row-aligned tuple of the live
    :class:`~repro.core.plan_cache.InstanceEntry` objects — index ``i``
    of every array's last axis describes ``entries[i]``, and decisions
    still reference the entry object (the anchor the certificate names).
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
    #: extends only views of its current lineage.  Transient views
    #: (built outside the cache) keep -1 and are never extended.
    lineage: int = -1

    @classmethod
    def build(
        cls, epoch: int, entries: Sequence["InstanceEntry"], lineage: int = -1
    ) -> "ColumnarInstances":
        entries = tuple(entries)
        sv = np.array([e.sv.values for e in entries], dtype=np.float64)
        # Dimension-major (d, N); an empty list has no d, hence (0, 0).
        sv = np.ascontiguousarray(sv.T) if entries else sv.reshape(0, 0)
        return cls(
            epoch=epoch,
            entries=entries,
            lineage=lineage,
            sv=sv,
            log_sv=np.log(sv),
            sub=np.array([e.suboptimality for e in entries], dtype=np.float64),
            cost=np.array([e.optimal_cost for e in entries], dtype=np.float64),
            plan_ids=np.array([e.plan_id for e in entries], dtype=np.int64),
            # A leading-axis reduce is out *= sv[j] for j = 1 … d-1 in
            # order: bit-identical to the scalar loop in the test suite's
            # reference_get_plan.sv_product.
            area=np.multiply.reduce(sv, axis=0),
        )

    def extended(
        self, epoch: int, entries: tuple["InstanceEntry", ...]
    ) -> "ColumnarInstances":
        """A new view over ``entries``, of which this view's rows are a
        prefix: only the tail is columnarised (per-row values identical
        to a full :meth:`build`); this view's arrays are not written."""
        tail = ColumnarInstances.build(epoch, entries[len(self):])
        if not len(tail):
            return replace(self, epoch=epoch, entries=entries)
        # The anchor axis is the last axis of every array field, so one
        # added to the layout is extended without being listed here.
        columns = {
            f.name: np.concatenate(
                (getattr(self, f.name), getattr(tail, f.name)), axis=-1
            )
            for f in fields(self)
            if isinstance(getattr(self, f.name), np.ndarray)
        }
        return replace(self, epoch=epoch, entries=entries, **columns)

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


def chunk_rows(batch: int, n: int, d: int) -> int:
    """Probes per kernel chunk so the (d, B, N) tensor stays cache-sized."""
    return max(1, min(batch, BATCH_TENSOR_ELEMENTS // max(1, n * d)))
