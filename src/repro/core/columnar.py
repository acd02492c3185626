"""The instance list as columns: one append-only store and its views.

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

The store
---------
:class:`ColumnStore` is the instance list, the only copy of it: the
columns above and the per-row counters of :data:`MUTABLE_COLUMNS`, in
capacity-doubling buffers, and each plan's rows the same way.
:meth:`ColumnStore.append` writes row ``n`` — the one place a row's
columns are computed — and :meth:`ColumnStore.view` publishes rows
``[:n]``.  No *write-once* column a view can see is ever written again:
an append writes past every published ``n``, a doubling copies into
fresh buffers, and a mutation that is not an append (a dropped plan, an
adopted snapshot, a recost sweep) replays the surviving rows into a
fresh store.  The *mutable* columns (usage, retirement, the hit
counters) are written in place, without an epoch bump, by a getPlan
commit, the Appendix G detector and coalescing, so a view reads them
through its store when it reads them: a flag that flips between epochs
takes effect on the next probe.  A decision names its anchor as a row
of the view it was probed on, and a lock-free hit is committed only
into the store it was probed against.

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

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, NamedTuple, Optional

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .plan_cache import InstanceEntry


class PlanGroup(NamedTuple):
    """One plan's rows of a view, ascending, and their C and S columns:
    the cost check's step 1 runs on these alone."""

    rows: "np.ndarray"  # (k,) row indices into the view, ascending
    cost: "np.ndarray"  # (k,) C of those rows
    sub: "np.ndarray"   # (k,) S of those rows


#: Rows a store, and each of its plan groups, holds before it first
#: doubles.
INITIAL_CAPACITY = 64

#: The columns written in place after their row is appended, with their
#: dtypes, in :class:`~repro.core.plan_cache.InstanceEntry` field order.
MUTABLE_COLUMNS = {
    "usage": np.int64, "retired": np.bool_, "hits_selectivity": np.int64,
    "hits_cost": np.int64, "recost_spend": np.int64, "last_hit_tick": np.int64,
}
_mutable_fields = operator.attrgetter(*MUTABLE_COLUMNS)


class _Buffers:
    """Named arrays, anchor axis last, filled one row at a time.  A full
    buffer doubles into fresh arrays, so a slice taken earlier is never
    written again."""

    def __init__(self, **arrays: "np.ndarray") -> None:
        self.n = 0
        self.capacity = INITIAL_CAPACITY
        self.arrays = arrays
        self.cells = _cells(arrays)

    def write(self, *row) -> None:
        """Write row ``n``: one value per array, in the arrays' order."""
        n = self.n
        if n == self.capacity:
            self.capacity *= 2
            arrays = self.arrays = {
                name: np.concatenate((a, np.empty_like(a)), axis=-1)
                for name, a in self.arrays.items()
            }
            # In place: a view holds this dict (ColumnarInstances.cells).
            self.cells.update(_cells(arrays))
        for cell, value in zip(self.cells.values(), row, strict=True):
            cell[n] = value
        self.n = n + 1


def _cells(arrays: dict) -> dict:
    """Per array, in order, what ``cell[n] = value`` writes row ``n``
    through: a 1-D array's ``memoryview`` (a third of numpy's cost per
    element write, and every committed hit makes several), a 2-D array's
    transpose."""
    return {name: memoryview(a) if a.ndim == 1 else a.T for name, a in arrays.items()}


def _row_buffers(d: int) -> _Buffers:
    """A store's rows, in the order :meth:`ColumnStore.append` writes them."""
    cap = INITIAL_CAPACITY
    return _Buffers(
        sv=np.empty((d, cap)),
        log_sv=np.empty((d, cap)),
        sub=np.empty(cap),
        cost=np.empty(cap),
        plan_ids=np.empty(cap, dtype=np.int64),
        area=np.empty(cap),
        slot=np.empty(cap, dtype=np.intp),
        **{name: np.empty(cap, dtype=t) for name, t in MUTABLE_COLUMNS.items()},
    )


def _group_buffers() -> _Buffers:
    cap = INITIAL_CAPACITY
    return _Buffers(
        rows=np.empty(cap, dtype=np.intp), cost=np.empty(cap), sub=np.empty(cap)
    )


class ColumnStore:
    """The instance list, as columns (see the module docstring): one row
    per 5-tuple and, per plan, its rows with their C and S.

    ``ColumnStore(entries)`` appends each
    :class:`~repro.core.plan_cache.InstanceEntry` record in turn — the
    one constructor, whether rows arrive one miss at a time or all at
    once after a mutation that was not an append.  Plan slots are
    numbered in order of each plan's first row, so a new plan is always
    the next slot and no earlier row's slot ever moves.
    """

    def __init__(self, entries: Iterable["InstanceEntry"] = ()) -> None:
        self._rows = _row_buffers(0)  # the first row fixes d
        self._plans = _Buffers(ids=np.empty(INITIAL_CAPACITY, dtype=np.int64))
        self._slot_of: dict[int, int] = {}
        self._groups: list[_Buffers] = []
        self._published: list[PlanGroup] = []
        for entry in entries:
            self.append(entry)

    def append(self, entry: "InstanceEntry") -> None:
        """Write ``entry`` as row ``n``, and as the next row of its
        plan's group."""
        values = entry.sv.values
        # ``np.log`` of a contiguous array, never of a strided column:
        # numpy may round the two loops differently.
        sv = np.array(values, dtype=np.float64)
        rows = self._rows
        if not rows.n:
            rows = self._rows = _row_buffers(len(sv))
        plan_id = entry.plan_id
        slot = self._slot_of.get(plan_id)
        if slot is None:
            slot = self._slot_of[plan_id] = len(self._groups)
            self._plans.write(plan_id)
            self._groups.append(_group_buffers())
            self._published.append(None)
        row = rows.n
        cost, sub = entry.optimal_cost, entry.suboptimality
        # Folded left to right from 1.0: bit-identical to the scalar
        # loop in the test suite's reference_get_plan.sv_product.
        area = math.prod(values)
        rows.write(
            sv, np.log(sv), sub, cost, plan_id, area, slot, *_mutable_fields(entry)
        )
        group = self._groups[slot]
        group.write(row, cost, sub)
        arrays, n = group.arrays, group.n
        self._published[slot] = PlanGroup(
            arrays["rows"][:n], arrays["cost"][:n], arrays["sub"][:n]
        )

    def hit(self, row: int, cost_check: bool, recost_calls: int, tick: int) -> None:
        """Book one certified reuse through ``row`` (a getPlan commit)."""
        cells = self._rows.cells
        cells["usage"][row] += 1
        if cost_check:
            cells["hits_cost"][row] += 1
            cells["recost_spend"][row] += recost_calls
        else:
            cells["hits_selectivity"][row] += 1
        cells["last_hit_tick"][row] = tick

    def retire(self, row: int) -> bool:
        """Retire ``row`` (Appendix G); False if it already was."""
        retired = self._rows.cells["retired"]
        was, retired[row] = retired[row], True
        return not was

    def view(self, epoch: int) -> "ColumnarInstances":
        """Rows ``[:n]`` as a view tagged ``epoch``."""
        rows, n = self._rows.arrays, self._rows.n
        return ColumnarInstances(
            epoch=epoch,
            store=self,
            stored_sv=rows["sv"][:, :n],
            log_sv=rows["log_sv"][:, :n],
            sub=rows["sub"][:n],
            cost=rows["cost"][:n],
            plan_ids=rows["plan_ids"][:n],
            area=rows["area"][:n],
            plan_slots=(self._plans.arrays["ids"][:self._plans.n], rows["slot"][:n]),
            plan_groups=tuple(self._published),
        )


def _live_column(name: str) -> property:
    """The view's rows of one mutable column, read through its store."""
    return property(lambda view: view.store._rows.arrays[name][:len(view.plan_ids)])


@dataclass(frozen=True)
class ColumnarInstances:
    """One epoch of the instance list: rows ``[:N]`` of a
    :class:`ColumnStore`.  The write-once columns are the view's own
    slices and never change; the mutable ones are read live through
    ``store``."""

    epoch: int
    store: ColumnStore
    stored_sv: "np.ndarray"  # (d, N) raw selectivities, the store's slice
    log_sv: "np.ndarray"     # (d, N) natural logs
    sub: "np.ndarray"        # (N,) S column
    cost: "np.ndarray"       # (N,) C column
    plan_ids: "np.ndarray"   # (N,) PP column
    area: "np.ndarray"       # (N,) Π_i s_i (AREA candidate-order key)
    #: ``(plans, slot)``: the distinct plan ids in order of first row,
    #: and each row's index into them — the cost check's dense plan axis
    #: (``costs.take(slot)`` spreads one Recost per plan over its
    #: anchors).
    plan_slots: tuple["np.ndarray", "np.ndarray"]
    #: Per plan slot, the plan's rows in ascending order with their
    #: ``C`` and ``S``.
    plan_groups: tuple[PlanGroup, ...]

    usage = _live_column("usage")
    retired = _live_column("retired")
    hits_selectivity = _live_column("hits_selectivity")
    hits_cost = _live_column("hits_cost")
    recost_spend = _live_column("recost_spend")
    last_hit_tick = _live_column("last_hit_tick")

    def __len__(self) -> int:
        return len(self.plan_ids)

    @property
    def dimensions(self) -> int:
        return self.stored_sv.shape[0]

    @cached_property
    def sv(self) -> "np.ndarray":
        """``stored_sv`` C-contiguous — the kernels' input, copied once
        per view by its first probe: the store's slice strides by its
        capacity, which slows the G·L kernel by about 5 % (DESIGN.md §12).
        (``cached_property`` writes the instance ``__dict__`` directly,
        so it coexists with the frozen dataclass.)"""
        return np.ascontiguousarray(self.stored_sv)

    @cached_property
    def cells(self) -> dict[str, memoryview]:
        """Every ``(N,)`` column by name (``slot`` is ``plan_slots[1]``)
        as a ``memoryview`` of the store's buffer (``sv`` and ``log_sv``
        as its transposed arrays): the one path for reading or writing a
        single row, whose item is a plain Python scalar, read in a third
        of a numpy scalar's time or less.  Whole-column arithmetic uses
        the arrays.  The dict is the store's own, which a doubling updates
        in place, so the mutable columns read live; rows past ``N`` are
        not the view's."""
        return self.store._rows.cells

    @cached_property
    def sv_sq(self) -> "np.ndarray":
        """``sv²`` broadcast-shaped ``(d, 1, N)`` — the anchor side of the
        robust corner predicate ``lo·hi ≥ e²``, shared across every probe
        of the epoch instead of rebuilt per box."""
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
        on the cache's usage version rather than living in the store.
        """
        memo = self.__dict__.get("_usage_rank")
        if memo is not None and memo[0] == version:
            return memo[1]
        order = np.argsort(-self.usage, kind="stable")
        rank = np.empty(len(order), dtype=np.int64)
        rank[order] = np.arange(len(order), dtype=np.int64)
        self.__dict__["_usage_rank"] = (version, rank)
        return rank

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
# (B, d) matrix of incoming points and return (B, N) factor matrices;
# probe_batch chunks B to bound the ratio tensor.  gl_matrix also takes
# a single (d,) point and returns (N,) vectors, the same fold over a
# (d, N) ratio matrix.


def _fold(alphas: "np.ndarray") -> tuple["np.ndarray", "np.ndarray"]:
    """``(G, L)`` of a ``(d, B, N)`` ratio tensor or ``(d, N)`` matrix,
    folded over the leading axis in dimension order (the module
    docstring says why this is :func:`repro.core.bounds.compute_gl`'s
    loop float for float)."""
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
    ``points`` is a ``(B, d)`` matrix, giving ``(B, N)`` factors, or one
    ``(d,)`` point, giving ``(N,)`` vectors float for float equal to
    its row of any chunk.
    """
    if points.ndim == 1:
        return _fold(points[:, None] / sv)
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

