"""Relational schema objects: columns, tables, indexes, foreign keys.

The catalog layer is the substrate the paper's engine (Microsoft SQL
Server) provided implicitly.  A :class:`Schema` describes the logical
shape of a database; actual rows live in :class:`repro.catalog.datagen`
generated columnar arrays, and derived statistics live in
:class:`repro.catalog.statistics`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional


class ColumnType(Enum):
    """Supported column data types.

    The reproduction only needs orderable numeric domains (predicates are
    range/equality comparisons on numeric columns) plus key columns.
    """

    INT = "int"
    FLOAT = "float"


@dataclass(frozen=True)
class Column:
    """A single column of a table.

    Parameters
    ----------
    name:
        Column name, unique within its table.
    ctype:
        Data type of the column.
    domain_size:
        Number of distinct values the column may take.  Generated data is
        drawn from ``[0, domain_size)`` for INT columns and
        ``[0.0, domain_size)`` for FLOAT columns.
    skew:
        Zipf-like skew parameter for generated data.  ``0.0`` means
        uniform; larger values concentrate mass on low values.  This is
        the knob that substitutes for the paper's "TPC-H with skew"
        data generator.
    """

    name: str
    ctype: ColumnType = ColumnType.INT
    domain_size: int = 1000
    skew: float = 0.0

    def __post_init__(self) -> None:
        if self.domain_size <= 0:
            raise ValueError(f"column {self.name}: domain_size must be positive")
        if self.skew < 0:
            raise ValueError(f"column {self.name}: skew must be non-negative")


@dataclass(frozen=True)
class Index:
    """A secondary index on a single column.

    The optimizer uses index existence to enable ``IndexScan`` and
    index-nested-loops join alternatives; the executor uses it to build
    sorted access paths.
    """

    table: str
    column: str

    @property
    def name(self) -> str:
        return f"idx_{self.table}_{self.column}"


@dataclass(frozen=True)
class ForeignKey:
    """A foreign key edge ``child.child_column -> parent.parent_column``.

    Join selectivities are derived from FK containment: an equi-join along
    a foreign key produces (about) one match per child row.
    """

    child_table: str
    child_column: str
    parent_table: str
    parent_column: str


@dataclass
class Table:
    """A table definition: name, columns, row count and primary key."""

    name: str
    columns: list[Column]
    row_count: int
    primary_key: Optional[str] = None

    def __post_init__(self) -> None:
        if self.row_count <= 0:
            raise ValueError(f"table {self.name}: row_count must be positive")
        names = [c.name for c in self.columns]
        if len(names) != len(set(names)):
            raise ValueError(f"table {self.name}: duplicate column names")
        if self.primary_key is not None and self.primary_key not in names:
            raise ValueError(
                f"table {self.name}: primary key {self.primary_key!r} not a column"
            )

    def column(self, name: str) -> Column:
        """Return the column named ``name`` or raise ``KeyError``."""
        for col in self.columns:
            if col.name == name:
                return col
        raise KeyError(f"table {self.name} has no column {name!r}")


@dataclass
class Schema:
    """A complete database schema: tables, indexes and foreign keys."""

    name: str
    tables: dict[str, Table] = field(default_factory=dict)
    indexes: list[Index] = field(default_factory=list)
    foreign_keys: list[ForeignKey] = field(default_factory=list)

    def add_table(self, table: Table) -> Table:
        if table.name in self.tables:
            raise ValueError(f"duplicate table {table.name!r}")
        self.tables[table.name] = table
        return table

    def add_index(self, table: str, column: str) -> Index:
        self._check_column(table, column)
        idx = Index(table, column)
        if idx not in self.indexes:
            self.indexes.append(idx)
        return idx

    def add_foreign_key(
        self, child_table: str, child_column: str, parent_table: str, parent_column: str
    ) -> ForeignKey:
        self._check_column(child_table, child_column)
        self._check_column(parent_table, parent_column)
        fk = ForeignKey(child_table, child_column, parent_table, parent_column)
        self.foreign_keys.append(fk)
        return fk

    def table(self, name: str) -> Table:
        try:
            return self.tables[name]
        except KeyError:
            raise KeyError(f"schema {self.name} has no table {name!r}") from None

    def has_index(self, table: str, column: str) -> bool:
        return any(i.table == table and i.column == column for i in self.indexes)

    def foreign_key_between(
        self, table_a: str, table_b: str
    ) -> Optional[ForeignKey]:
        """Return an FK connecting the two tables in either direction."""
        for fk in self.foreign_keys:
            if {fk.child_table, fk.parent_table} == {table_a, table_b}:
                return fk
        return None

    def _check_column(self, table: str, column: str) -> None:
        self.table(table).column(column)

    def validate(self) -> None:
        """Raise if indexes or foreign keys reference missing columns."""
        for idx in self.indexes:
            self._check_column(idx.table, idx.column)
        for fk in self.foreign_keys:
            self._check_column(fk.child_table, fk.child_column)
            self._check_column(fk.parent_table, fk.parent_column)
