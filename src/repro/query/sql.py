"""A small SQL front-end for defining parameterized query templates.

Applications interact with PQO through parameterized SQL (the paper's
setting: "the same SQL statement is executed repeatedly with different
parameter instantiations").  This module parses a practical subset —
SPJ queries with ``?`` parameter markers — into
:class:`~repro.query.template.QueryTemplate` objects:

    SELECT COUNT(*)
    FROM orders, lineitem
    WHERE lineitem.l_orderkey = orders.o_orderkey
      AND orders.o_totalprice <= ?
      AND lineitem.l_quantity >= ?
      AND lineitem.l_discount <= 3
    GROUP BY orders.o_orderdate
    ORDER BY orders.o_orderdate

Supported: a FROM list, equi-join predicates (``a.x = b.y``),
parameterized one-sided comparisons (``a.x <= ?`` / ``>= ?`` / ``= ?``),
fixed comparisons against numeric literals, ``COUNT(*)``, ``GROUP BY``
and ``ORDER BY`` on a single column.  Everything else raises
:class:`SqlParseError` with a precise message.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .expressions import (
    ColumnRef,
    ComparisonOp,
    FixedPredicate,
    JoinEdge,
    ParameterizedPredicate,
)
from .template import AggregationKind, QueryTemplate


class SqlParseError(ValueError):
    """Raised when the SQL text falls outside the supported subset."""


_QUERY_RE = re.compile(
    r"^\s*SELECT\s+(?P<select>.+?)\s+"
    r"FROM\s+(?P<tables>.+?)"
    r"(?:\s+WHERE\s+(?P<where>.+?))?"
    r"(?:\s+GROUP\s+BY\s+(?P<group>[\w.]+))?"
    r"(?:\s+ORDER\s+BY\s+(?P<order>[\w.]+))?"
    r"\s*;?\s*$",
    re.IGNORECASE | re.DOTALL,
)

_COLUMN_RE = re.compile(r"^(\w+)\.(\w+)$")
_COMPARISON_RE = re.compile(
    r"^([\w.]+)\s*(<=|>=|=|<|>)\s*(\?|-?\d+(?:\.\d+)?)$"
)

_OP_MAP = {
    "<=": ComparisonOp.LE,
    "<": ComparisonOp.LE,   # one-sided ranges; strictness folded away
    ">=": ComparisonOp.GE,
    ">": ComparisonOp.GE,
    "=": ComparisonOp.EQ,
}


@dataclass(frozen=True)
class ParsedQuery:
    """Intermediate parse result before template validation."""

    tables: list[str]
    joins: list[JoinEdge]
    parameterized: list[ParameterizedPredicate]
    fixed: list[FixedPredicate]
    aggregation: AggregationKind
    group_by: ColumnRef | None
    order_by: ColumnRef | None


def _parse_column(text: str, context: str) -> ColumnRef:
    match = _COLUMN_RE.match(text.strip())
    if not match:
        raise SqlParseError(
            f"{context}: expected a qualified column 'table.column', "
            f"got {text.strip()!r}"
        )
    return ColumnRef(match.group(1), match.group(2))


def _split_conjuncts(where: str) -> list[str]:
    parts = re.split(r"\s+AND\s+", where, flags=re.IGNORECASE)
    return [p.strip().strip("()").strip() for p in parts if p.strip()]


def parse_sql(sql: str, name: str, database: str) -> QueryTemplate:
    """Parse parameterized SQL into a validated :class:`QueryTemplate`.

    Parameter markers (``?``) become the template's parameterized
    predicates, in textual order — the order of the selectivity-vector
    dimensions and of per-instance parameter bindings.
    """
    match = _QUERY_RE.match(sql)
    if not match:
        raise SqlParseError(
            "query must have the shape SELECT ... FROM ... [WHERE ...] "
            "[GROUP BY col] [ORDER BY col]"
        )
    parsed = _parse_clauses(match)
    return QueryTemplate(
        name=name,
        database=database,
        tables=parsed.tables,
        joins=parsed.joins,
        parameterized=parsed.parameterized,
        fixed=parsed.fixed,
        aggregation=parsed.aggregation,
        group_by=parsed.group_by,
        order_by=parsed.order_by,
    )


def _parse_clauses(match: re.Match) -> ParsedQuery:
    select = match.group("select").strip()
    aggregation = AggregationKind.NONE
    if re.fullmatch(r"COUNT\s*\(\s*\*\s*\)", select, re.IGNORECASE):
        aggregation = AggregationKind.COUNT
    elif select != "*" and not re.fullmatch(r"[\w.,\s]+", select):
        raise SqlParseError(
            f"unsupported SELECT list {select!r}; use '*', a column list, "
            "or COUNT(*)"
        )

    tables = [t.strip() for t in match.group("tables").split(",")]
    if any(not re.fullmatch(r"\w+", t) for t in tables):
        raise SqlParseError(
            f"FROM clause must be a comma-separated table list, got "
            f"{match.group('tables')!r} (joins go in WHERE)"
        )

    joins: list[JoinEdge] = []
    parameterized: list[ParameterizedPredicate] = []
    fixed: list[FixedPredicate] = []
    where = match.group("where")
    if where:
        for conjunct in _split_conjuncts(where):
            _parse_conjunct(conjunct, joins, parameterized, fixed)

    group_by = None
    if match.group("group"):
        group_by = _parse_column(match.group("group"), "GROUP BY")
        aggregation = AggregationKind.GROUP_BY
    order_by = None
    if match.group("order"):
        order_by = _parse_column(match.group("order"), "ORDER BY")

    return ParsedQuery(
        tables=tables,
        joins=joins,
        parameterized=parameterized,
        fixed=fixed,
        aggregation=aggregation,
        group_by=group_by,
        order_by=order_by,
    )


def _parse_conjunct(
    conjunct: str,
    joins: list[JoinEdge],
    parameterized: list[ParameterizedPredicate],
    fixed: list[FixedPredicate],
) -> None:
    # Join predicate: column = column.
    join_match = re.match(r"^([\w.]+)\s*=\s*([\w.]+)$", conjunct)
    if join_match and _COLUMN_RE.match(join_match.group(2).strip()):
        left = _parse_column(join_match.group(1), "join predicate")
        right = _parse_column(join_match.group(2), "join predicate")
        joins.append(JoinEdge(left, right))
        return

    comp = _COMPARISON_RE.match(conjunct)
    if not comp:
        raise SqlParseError(
            f"unsupported WHERE conjunct {conjunct!r}; supported forms: "
            "'a.x = b.y', 'a.x <= ?', 'a.x >= 5'"
        )
    column = _parse_column(comp.group(1), "comparison")
    op = _OP_MAP[comp.group(2)]
    rhs = comp.group(3)
    if rhs == "?":
        parameterized.append(ParameterizedPredicate(column, op))
    else:
        fixed.append(FixedPredicate(column, op, float(rhs)))
