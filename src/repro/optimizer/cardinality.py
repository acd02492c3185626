"""Cardinality derivation for plan search and re-costing.

Cardinalities follow the textbook model under the paper's standing
assumptions (section 5.2 footnote): selectivity independence between
base predicates, and join selectivities that stay fixed across query
instances — only the ``d`` parameterized predicate selectivities vary.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..catalog.datagen import fk_join_selectivity
from ..catalog.statistics import DatabaseStatistics
from ..query.expressions import JoinEdge
from ..query.instance import SelectivityVector
from ..query.template import QueryTemplate
from ..selectivity.estimator import SelectivityEstimator

_MIN_CARD = 1e-6


@dataclass(frozen=True)
class BaseTableInfo:
    """Per-table constants the cardinality model precomputes once.

    ``param_indices`` lists the sVector dimensions filtering this table;
    ``fixed_selectivity`` folds all constant predicates.  Re-costing only
    needs these plus the new sVector.
    """

    table: str
    rows: float
    fixed_selectivity: float
    param_indices: tuple[int, ...]

    def cardinality(self, sv: SelectivityVector) -> float:
        card = self.rows * self.fixed_selectivity
        for i in self.param_indices:
            card *= sv[i]
        return max(card, _MIN_CARD)


class CardinalityModel:
    """Derives base and join cardinalities for one query template."""

    def __init__(
        self,
        template: QueryTemplate,
        stats: DatabaseStatistics,
        estimator: SelectivityEstimator,
    ) -> None:
        self.template = template
        self.stats = stats
        self._base: dict[str, BaseTableInfo] = {}
        self._join_sel: dict[JoinEdge, float] = {}
        for table in template.tables:
            fixed_sel = 1.0
            for pred in template.fixed_on(table):
                fixed_sel *= estimator.predicate_selectivity(pred)
            param_idx = tuple(
                template.parameter_index(p) for p in template.predicates_on(table)
            )
            self._base[table] = BaseTableInfo(
                table=table,
                rows=float(stats.row_count(table)),
                fixed_selectivity=max(fixed_sel, 1e-12),
                param_indices=param_idx,
            )
        for edge in template.joins:
            self._join_sel[edge] = self._edge_selectivity(edge)

    def base_info(self, table: str) -> BaseTableInfo:
        return self._base[table]

    def table_rows(self, table: str) -> float:
        return self._base[table].rows

    def join_selectivity(self, edge: JoinEdge) -> float:
        return self._join_sel[edge]

    def join_cardinality(
        self, left_card: float, right_card: float, edges: list[JoinEdge]
    ) -> float:
        """``|L| * |R| * prod(edge selectivities)`` for the connecting edges."""
        card = left_card * right_card
        for edge in edges:
            card *= self._join_sel[edge]
        return max(card, _MIN_CARD)

    def group_count(self, group_table: str, group_column: str, in_rows: float) -> float:
        """Estimated group count: distinct values capped by input rows."""
        distinct = float(self.stats.column(group_table, group_column).distinct_count)
        return max(1.0, min(distinct, in_rows))

    def _edge_selectivity(self, edge: JoinEdge) -> float:
        """Join selectivity for an equi-join edge.

        Foreign-key edges use FK containment (``1/parent_rows``); other
        equi-joins fall back to ``1/max(distinct(l), distinct(r))``.
        """
        schema = self.stats.schema
        fk = schema.foreign_key_between(edge.left.table, edge.right.table)
        if fk is not None:
            cols = {
                (edge.left.table, edge.left.column),
                (edge.right.table, edge.right.column),
            }
            fk_cols = {
                (fk.child_table, fk.child_column),
                (fk.parent_table, fk.parent_column),
            }
            if cols == fk_cols:
                return fk_join_selectivity(schema, fk)
        left_d = self.stats.column(edge.left.table, edge.left.column).distinct_count
        right_d = self.stats.column(edge.right.table, edge.right.column).distinct_count
        return 1.0 / max(left_d, right_d, 1)
