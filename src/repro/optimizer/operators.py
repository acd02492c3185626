"""Physical operator vocabulary of the optimizer and executor.

The operator set matches the one section 5.4 of the paper analyses for
Bounded Cost Growth: sequential/index scans, nested-loops / hash /
sort-merge joins, sorts, and hash/stream aggregation.  Each operator's
cost shape (linear, ``s1*s2``, ``s1+s2``, ``n log n``) is implemented in
:mod:`repro.optimizer.cost_model`.
"""

from __future__ import annotations

from enum import Enum


class PhysicalOp(Enum):
    """Physical operators the plan search may choose."""

    SEQ_SCAN = "SeqScan"
    INDEX_SCAN = "IndexScan"
    NESTED_LOOPS_JOIN = "NestedLoopsJoin"
    INDEX_NESTED_LOOPS_JOIN = "IndexNestedLoopsJoin"
    HASH_JOIN = "HashJoin"
    MERGE_JOIN = "MergeJoin"
    SORT = "Sort"
    HASH_AGGREGATE = "HashAggregate"
    STREAM_AGGREGATE = "StreamAggregate"
    SCALAR_AGGREGATE = "ScalarAggregate"

    @property
    def is_scan(self) -> bool:
        return self in (PhysicalOp.SEQ_SCAN, PhysicalOp.INDEX_SCAN)

    @property
    def is_join(self) -> bool:
        return self in (
            PhysicalOp.NESTED_LOOPS_JOIN,
            PhysicalOp.INDEX_NESTED_LOOPS_JOIN,
            PhysicalOp.HASH_JOIN,
            PhysicalOp.MERGE_JOIN,
        )
