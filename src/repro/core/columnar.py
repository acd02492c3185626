"""Columnar (structure-of-arrays) view of the instance list.

The per-instance Python arithmetic of ``getPlan``'s selectivity check is
the serving cost at high hit rates (ROADMAP item 2; the paper's §6.2
overheads discussion).  This module restructures the instance list into
parallel ``numpy`` arrays so one probe computes G·L against *all*
candidate anchors in a handful of array ops, and a batch of incoming
instances is evaluated against the whole cache in one broadcasted pass.

Layout
------
One :class:`ColumnarInstances` view holds, for the ``N`` entries of a
cache epoch (``d`` = template dimensionality):

* ``sv`` — the raw selectivity matrix ``(N, d)``;
* ``log_sv`` — the same matrix in natural-log space ``(N, d)`` (L1
  distances in this space are ``ln(G·L)``; used for nearest-anchor
  ranking);
* ``sub`` / ``cost`` / ``plan_ids`` — the S, C and PP columns of the
  paper's 5-tuple as ``(N,)`` vectors;
* ``area`` — ``Π_i s_i`` per row, the AREA candidate-order key,
  computed once per epoch instead of once per probe.

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
:mod:`repro.core.bounds` with the *same IEEE-754 operation sequence*:
``np.multiply.reduce`` / ``np.divide.reduce`` apply their operation
sequentially left-to-right for the short (d ≤ 16) inner axis, matching
the scalar loops' ``g *= alpha`` / ``l /= alpha`` exactly, and the
adversarial-corner selection vectorizes the very ``lo·hi ≥ e²``
endpoint predicate of :func:`repro.core.bounds.adversarial_corner`.
This is why ``sv`` is stored raw alongside ``log_sv``: deriving G·L
from log-space sums would round differently from the scalar products
and break the decision-equivalence contract the differential suite
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
    :class:`~repro.core.plan_cache.InstanceEntry` objects — row ``i`` of
    every array describes ``entries[i]``, and decisions still reference
    the entry object itself (the anchor the certificate names).
    """

    epoch: int
    entries: tuple["InstanceEntry", ...]
    sv: "np.ndarray"        # (N, d) raw selectivities
    log_sv: "np.ndarray"    # (N, d) natural logs
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
        if not entries:
            empty2 = np.empty((0, 0), dtype=np.float64)
            empty1 = np.empty(0, dtype=np.float64)
            return cls(
                epoch=epoch, entries=entries, sv=empty2, log_sv=empty2,
                sub=empty1, cost=empty1,
                plan_ids=np.empty(0, dtype=np.int64), area=empty1,
                lineage=lineage,
            )
        sv = np.array([e.sv.values for e in entries], dtype=np.float64)
        return cls(
            epoch=epoch,
            entries=entries,
            lineage=lineage,
            sv=sv,
            log_sv=np.log(sv),
            sub=np.array([e.suboptimality for e in entries], dtype=np.float64),
            cost=np.array([e.optimal_cost for e in entries], dtype=np.float64),
            plan_ids=np.array([e.plan_id for e in entries], dtype=np.int64),
            # multiply.reduce applies left-to-right over the short inner
            # axis: bit-identical to InstanceEntry.sv_product's loop.
            area=np.multiply.reduce(sv, axis=1),
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
        # Every array field is a row-aligned column, so a column added
        # to the layout is extended without being listed here.
        columns = {
            f.name: np.concatenate((getattr(self, f.name), getattr(tail, f.name)))
            for f in fields(self)
            if isinstance(getattr(self, f.name), np.ndarray)
        }
        return replace(self, epoch=epoch, entries=entries, **columns)

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def dimensions(self) -> int:
        return self.sv.shape[1]

    @cached_property
    def sv_sq(self) -> "np.ndarray":
        """``sv²`` broadcast-shaped ``(1, N, d)`` — the anchor side of the
        robust corner predicate ``lo·hi ≥ e²``, shared across every probe
        of the epoch instead of rebuilt per box.  (``cached_property``
        writes the instance ``__dict__`` directly, so it coexists with
        the frozen dataclass.)"""
        return self.sv[None, :, :] * self.sv[None, :, :]

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


# -- G/L kernels --------------------------------------------------------------
#
# All kernels take an already-validated (B, d) matrix of incoming points
# (B = 1 for a single probe) and return (B, N) factor matrices.  The
# (B, N, d) intermediate is the memory hot spot; callers chunk over B.


def gl_matrix(
    sv: "np.ndarray", points: "np.ndarray"
) -> tuple["np.ndarray", "np.ndarray"]:
    """``(G, L)`` of every (incoming point, stored anchor) pair.

    Mirrors :func:`repro.core.bounds.compute_gl` exactly: per-dimension
    ratios ``alpha = point / anchor``, ``G = Π_{alpha>1} alpha`` via
    sequential multiply, ``L`` via sequential divide starting at 1.0
    (``l /= alpha``), so every float matches the scalar loop.
    """
    alphas = points[:, None, :] / sv[None, :, :]
    g = np.multiply.reduce(np.where(alphas > 1.0, alphas, 1.0), axis=2)
    l = np.divide.reduce(np.where(alphas < 1.0, alphas, 1.0), axis=2,
                         initial=1.0)
    return g, l


def corner_matrix(
    sv: "np.ndarray", lo: "np.ndarray", hi: "np.ndarray",
    sv_sq: Optional["np.ndarray"] = None,
) -> "np.ndarray":
    """Adversarial corner of each box against each stored anchor.

    Vectorizes :func:`repro.core.bounds.adversarial_corner`'s endpoint
    predicate (``lo·hi ≥ e²`` picks ``hi``, ties to ``hi``) over the
    ``(B, d)`` box bounds and the ``(N, d)`` anchor matrix, returning
    the ``(B, N, d)`` corner tensor.  ``sv_sq`` is the precomputed
    ``(1, N, d)`` anchor-squared tensor (``ColumnarInstances.sv_sq``);
    without it the squares are rebuilt per call.
    """
    if sv_sq is None:
        sv_sq = sv[None, :, :] * sv[None, :, :]
    return np.where(
        (lo * hi)[:, None, :] >= sv_sq,
        hi[:, None, :],
        lo[:, None, :],
    )


def corner_gl_matrix(
    sv: "np.ndarray", lo: "np.ndarray", hi: "np.ndarray",
    sv_sq: Optional["np.ndarray"] = None,
) -> tuple["np.ndarray", "np.ndarray"]:
    """``(G, L)`` evaluated at each box's adversarial corner."""
    corner = corner_matrix(sv, lo, hi, sv_sq)
    alphas = corner / sv[None, :, :]
    g = np.multiply.reduce(np.where(alphas > 1.0, alphas, 1.0), axis=2)
    l = np.divide.reduce(np.where(alphas < 1.0, alphas, 1.0), axis=2,
                         initial=1.0)
    return g, l


def log_l1_distances(log_sv: "np.ndarray", point: "np.ndarray") -> "np.ndarray":
    """``ln(G·L)`` of one point against every anchor (L1 in log space).

    Used for nearest-anchor *ranking* (degraded serves, seeding), where
    bit-parity with ``math.log`` is not load-bearing — never for the
    certified checks themselves.
    """
    if log_sv.shape[0] == 0:
        return np.empty(0, dtype=np.float64)
    return np.abs(np.log(point)[None, :] - log_sv).sum(axis=1)


def chunk_rows(batch: int, n: int, d: int, budget: int = 2_000_000) -> int:
    """Rows per kernel chunk so the (B, N, d) intermediate stays small."""
    if batch <= 1:
        return 1
    per_row = max(1, n * max(1, d))
    return max(1, min(batch, budget // per_row))
