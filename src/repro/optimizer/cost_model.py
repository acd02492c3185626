"""The optimizer's cost model.

Per-operator cost functions with the shapes section 5.4 of the paper
analyses for the Bounded Cost Growth assumption:

* ``SeqScan``      — linear in table rows (independent of selectivity);
* ``IndexScan``    — linear in selected rows (random-access factor);
* ``NestedLoops``  — grows as ``s1 * s2`` (outer card x inner access);
* ``HashJoin``     — grows as ``s1 + s2``, with a memory-spill
  discontinuity (the paper notes real cost models contain such
  transitions, the source of rare BCG violations);
* ``MergeJoin``/``Sort`` — ``n log n`` (super-linear; bounded by a
  polynomial per section 5.4's log inequality);
* aggregates       — linear (hash) or sorted-input linear (stream).

All costs are cumulative: an operator's ``cost`` includes its children.
The same functions serve plan search and the Recost API, so a re-costed
plan's cost equals what the optimizer assigned to that plan to within
about one ulp: the search prices a join over its memo groups'
cardinalities, Recost over the plan's own children, and the two derive
a join's cardinality in a different float association (DESIGN.md §7).
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class CostParameters:
    """Tunable constants of the cost model (abstract cost units per row)."""

    seq_row: float = 1.0
    index_row: float = 4.0
    index_lookup: float = 10.0
    nlj_probe_row: float = 0.5
    hash_build_row: float = 2.0
    hash_probe_row: float = 1.2
    sort_row: float = 0.4
    merge_row: float = 0.6
    agg_row: float = 1.5
    output_row: float = 0.1
    # Hash-join spill: builds larger than this many rows pay an extra
    # pass over both inputs (models the memory->disk transition).
    hash_memory_rows: float = 200_000.0
    spill_row: float = 1.5
    startup: float = 5.0


DEFAULT_COST_PARAMETERS = CostParameters()


class CostModel:
    """Operator cost functions over input/output cardinalities.

    Methods return the *operator's own* cost; callers add children's
    cumulative costs.  Cardinalities are floats (estimated rows).
    """

    def __init__(self, params: CostParameters = DEFAULT_COST_PARAMETERS) -> None:
        self.params = params

    # -- scans ---------------------------------------------------------

    def seq_scan(self, table_rows: float, out_rows: float) -> float:
        """Full scan: read every row, emit the selected ones."""
        p = self.params
        return p.startup + table_rows * p.seq_row + out_rows * p.output_row

    def index_scan(self, table_rows: float, out_rows: float) -> float:
        """B-tree range scan: traverse + fetch only qualifying rows."""
        p = self.params
        lookup = p.index_lookup * max(1.0, math.log2(max(table_rows, 2.0)))
        return p.startup + lookup + out_rows * p.index_row + out_rows * p.output_row

    # -- joins ---------------------------------------------------------

    def nested_loops_join(
        self, outer_rows: float, inner_cost: float, out_rows: float
    ) -> float:
        """Naive nested loops: re-evaluate the inner per outer row."""
        p = self.params
        return (
            p.startup
            + outer_rows * inner_cost * p.nlj_probe_row
            + out_rows * p.output_row
        )

    def nested_loops_inner_limit(self, outer_rows: float, budget: float) -> float:
        """The largest inner cost at which :meth:`nested_loops_join` over
        at least ``outer_rows`` rows can stay within ``budget`` (``inf``
        over an empty outer): its probe term alone must, widened by a
        relative 1e-12 against the join's float rounding.  The bounded
        plan search's threshold for a nested-loops inner (DESIGN.md §7).
        """
        rate = outer_rows * self.params.nlj_probe_row
        if rate == 0.0:
            return math.inf
        return budget / rate * (1.0 + 1e-12)

    def index_nested_loops_join(
        self, outer_rows: float, inner_table_rows: float, out_rows: float
    ) -> float:
        """Index nested loops: one index probe per outer row."""
        p = self.params
        probe = p.index_lookup * max(1.0, math.log2(max(inner_table_rows, 2.0)))
        matches_fetch = out_rows * p.index_row
        return (
            p.startup
            + outer_rows * probe * 0.1
            + outer_rows * p.nlj_probe_row
            + matches_fetch
            + out_rows * p.output_row
        )

    def hash_join(
        self, build_rows: float, probe_rows: float, out_rows: float
    ) -> float:
        """Hash join with a memory-spill discontinuity."""
        p = self.params
        cost = (
            p.startup
            + build_rows * p.hash_build_row
            + probe_rows * p.hash_probe_row
            + out_rows * p.output_row
        )
        if build_rows > p.hash_memory_rows:
            cost += (build_rows + probe_rows) * p.spill_row
        return cost

    def merge_join(
        self,
        left_rows: float,
        right_rows: float,
        out_rows: float,
        left_sorted: bool,
        right_sorted: bool,
    ) -> float:
        """Sort-merge join; unsorted inputs pay an n log n sort."""
        p = self.params
        cost = (
            p.startup
            + (left_rows + right_rows) * p.merge_row
            + out_rows * p.output_row
        )
        if not left_sorted:
            cost += self.sort(left_rows)
        if not right_sorted:
            cost += self.sort(right_rows)
        return cost

    # -- unary operators -------------------------------------------------

    def sort(self, rows: float) -> float:
        """``n log n`` sort cost (the super-linear operator of 5.4)."""
        p = self.params
        n = max(rows, 2.0)
        return p.startup + n * math.log2(n) * p.sort_row

    def hash_aggregate(self, in_rows: float, groups: float) -> float:
        p = self.params
        return p.startup + in_rows * p.agg_row + groups * p.output_row

    def stream_aggregate(self, in_rows: float, groups: float) -> float:
        """Aggregation over sorted input: single cheap pass."""
        p = self.params
        return p.startup + in_rows * p.agg_row * 0.4 + groups * p.output_row

    def scalar_aggregate(self, in_rows: float) -> float:
        p = self.params
        return p.startup + in_rows * p.agg_row * 0.3
