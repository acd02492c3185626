"""Reference executor: Volcano-style, tuple at a time, kept as an oracle.

An independent, second implementation of plan execution — the classic
open/next/close iterator model — that ``test_iterator_executor.py``
cross-validates the columnar executor (:mod:`repro.executor.engine`)
against: both must produce the same result cardinality for any plan and
instance.  It also makes the per-operator semantics explicit (the
columnar engine fuses them).

Rows are dicts ``{"table.column": value}``; joins merge them.  This is
deliberately simple and slow — it exists for correctness checking, not
performance.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterator

import numpy as np

from repro.catalog.datagen import DatabaseData
from repro.optimizer.operators import PhysicalOp
from repro.optimizer.plans import PhysicalPlan, PlanNode
from repro.query.instance import QueryInstance
from repro.query.template import QueryTemplate

Row = dict[str, float]


class RowIterator(ABC):
    """The open/next/close contract, expressed as a Python iterator."""

    @abstractmethod
    def rows(self) -> Iterator[Row]:
        """Yield output rows."""


class ScanIterator(RowIterator):
    """Base-table scan with the instance's predicates applied."""

    def __init__(
        self,
        data: DatabaseData,
        template: QueryTemplate,
        instance: QueryInstance,
        node: PlanNode,
    ) -> None:
        self.data = data
        self.template = template
        self.instance = instance
        self.node = node

    def rows(self) -> Iterator[Row]:
        table = self.node.table
        tdata = self.data.table(table)
        columns = list(tdata.columns)
        arrays = [tdata.column(c) for c in columns]
        order = range(tdata.row_count)
        if (
            self.node.op is PhysicalOp.INDEX_SCAN
            and self.node.index_column is not None
        ):
            order = np.argsort(
                tdata.column(self.node.index_column), kind="stable"
            )
        for i in order:
            row = {f"{table}.{c}": arr[i] for c, arr in zip(columns, arrays)}
            if self._passes(table, row):
                yield row

    def _passes(self, table: str, row: Row) -> bool:
        for pred in self.template.predicates_on(table):
            idx = self.template.parameter_index(pred)
            value = self.instance.parameters[idx]
            if not pred.op.apply(row[str(pred.column)], value):
                return False
        for pred in self.template.fixed_on(table):
            if not pred.op.apply(row[str(pred.column)], pred.value):
                return False
        return True


class HashJoinIterator(RowIterator):
    """Classic build/probe hash join over row dicts."""

    def __init__(
        self, left: RowIterator, right: RowIterator, node: PlanNode
    ) -> None:
        self.left = left
        self.right = right
        self.node = node

    def rows(self) -> Iterator[Row]:
        left_key = self.node.join_left_column
        right_key = self.node.join_right_column
        build: dict[float, list[Row]] = {}
        build_rows = list(self.right.rows())
        # Orient the key to whichever side actually carries it.
        if build_rows and right_key not in build_rows[0]:
            left_key, right_key = right_key, left_key
        for row in build_rows:
            build.setdefault(row[right_key], []).append(row)
        for probe_row in self.left.rows():
            for match in build.get(probe_row[left_key], ()):  # noqa: B020
                yield {**probe_row, **match}


class NestedLoopsIterator(RowIterator):
    """Naive nested loops (inner rematerialized per outer row in spirit;
    cached here since our inputs are deterministic)."""

    def __init__(
        self, outer: RowIterator, inner: RowIterator, node: PlanNode
    ) -> None:
        self.outer = outer
        self.inner = inner
        self.node = node

    def rows(self) -> Iterator[Row]:
        left_key = self.node.join_left_column
        right_key = self.node.join_right_column
        inner_rows = list(self.inner.rows())
        if inner_rows and right_key not in inner_rows[0]:
            left_key, right_key = right_key, left_key
        for outer_row in self.outer.rows():
            for inner_row in inner_rows:
                if outer_row[left_key] == inner_row[right_key]:
                    yield {**outer_row, **inner_row}


class SortIterator(RowIterator):
    def __init__(self, child: RowIterator, node: PlanNode) -> None:
        self.child = child
        self.node = node

    def rows(self) -> Iterator[Row]:
        key = self.node.sort_column
        yield from sorted(self.child.rows(), key=lambda r: r[key])


class GroupIterator(RowIterator):
    """Hash/stream aggregation: emits one row per group key."""

    def __init__(self, child: RowIterator, node: PlanNode) -> None:
        self.child = child
        self.node = node

    def rows(self) -> Iterator[Row]:
        key = self.node.group_column
        counts: dict[float, int] = {}
        for row in self.child.rows():
            counts[row[key]] = counts.get(row[key], 0) + 1
        for value, count in counts.items():
            yield {key: value, "count": float(count)}


class CountIterator(RowIterator):
    def __init__(self, child: RowIterator) -> None:
        self.child = child

    def rows(self) -> Iterator[Row]:
        total = sum(1 for _ in self.child.rows())
        yield {"count": float(total)}


class IteratorExecutor:
    """Builds an iterator tree from a physical plan and runs it."""

    def __init__(self, data: DatabaseData, template: QueryTemplate) -> None:
        self.data = data
        self.template = template

    def execute_count(self, plan: PhysicalPlan, instance: QueryInstance) -> int:
        """Number of result rows (groups for aggregates, matching the
        columnar executor's convention)."""
        if len(instance.parameters) != self.template.dimensions:
            raise ValueError("instance must carry concrete parameters")
        root = self._build(plan.root, instance)
        if plan.root.op is PhysicalOp.SCALAR_AGGREGATE:
            return int(next(iter(root.rows()))["count"])
        return sum(1 for _ in root.rows())

    def _build(self, node: PlanNode, instance: QueryInstance) -> RowIterator:
        op = node.op
        if op.is_scan:
            return ScanIterator(self.data, self.template, instance, node)
        if op is PhysicalOp.INDEX_NESTED_LOOPS_JOIN:
            outer = self._build(node.children[0], instance)
            inner = ScanIterator(
                self.data, self.template, instance, node.children[1]
            )
            return NestedLoopsIterator(outer, inner, node)
        if op is PhysicalOp.NESTED_LOOPS_JOIN:
            return NestedLoopsIterator(
                self._build(node.children[0], instance),
                self._build(node.children[1], instance),
                node,
            )
        if op in (PhysicalOp.HASH_JOIN, PhysicalOp.MERGE_JOIN):
            return HashJoinIterator(
                self._build(node.children[0], instance),
                self._build(node.children[1], instance),
                node,
            )
        if op is PhysicalOp.SORT:
            return SortIterator(self._build(node.children[0], instance), node)
        if op in (PhysicalOp.HASH_AGGREGATE, PhysicalOp.STREAM_AGGREGATE):
            return GroupIterator(self._build(node.children[0], instance), node)
        if op is PhysicalOp.SCALAR_AGGREGATE:
            return CountIterator(self._build(node.children[0], instance))
        raise ValueError(f"cannot execute operator {op}")
