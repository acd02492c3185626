"""Tests for repro.catalog.schema."""

import pytest

from repro.catalog.schema import (
    Column,
    ColumnType,
    ForeignKey,
    Index,
    Schema,
    Table,
)


class TestColumn:
    def test_defaults(self):
        col = Column("x")
        assert col.ctype is ColumnType.INT
        assert col.domain_size == 1000
        assert col.skew == 0.0

    def test_rejects_nonpositive_domain(self):
        with pytest.raises(ValueError, match="domain_size"):
            Column("x", domain_size=0)

    def test_rejects_negative_skew(self):
        with pytest.raises(ValueError, match="skew"):
            Column("x", skew=-0.1)


class TestTable:
    def test_rejects_zero_rows(self):
        with pytest.raises(ValueError, match="row_count"):
            Table("t", [Column("a")], row_count=0)

    def test_rejects_duplicate_columns(self):
        with pytest.raises(ValueError, match="duplicate"):
            Table("t", [Column("a"), Column("a")], row_count=1)

    def test_rejects_unknown_primary_key(self):
        with pytest.raises(ValueError, match="primary key"):
            Table("t", [Column("a")], row_count=1, primary_key="b")

    def test_column_lookup(self):
        table = Table("t", [Column("a"), Column("b")], row_count=5)
        assert table.column("b").name == "b"
        with pytest.raises(KeyError):
            table.column("zz")


class TestSchema:
    def _schema(self) -> Schema:
        schema = Schema("s")
        schema.add_table(Table("parent", [Column("pk")], row_count=10,
                               primary_key="pk"))
        schema.add_table(Table("child", [Column("fk"), Column("v")], row_count=20))
        return schema

    def test_duplicate_table_rejected(self):
        schema = self._schema()
        with pytest.raises(ValueError, match="duplicate table"):
            schema.add_table(Table("parent", [Column("pk")], row_count=1))

    def test_table_lookup_error_names_schema(self):
        schema = self._schema()
        with pytest.raises(KeyError, match="no table"):
            schema.table("missing")

    def test_add_index_checks_column(self):
        schema = self._schema()
        with pytest.raises(KeyError):
            schema.add_index("child", "nope")
        idx = schema.add_index("child", "fk")
        assert idx == Index("child", "fk")
        assert schema.has_index("child", "fk")
        assert not schema.has_index("child", "v")

    def test_add_index_idempotent(self):
        schema = self._schema()
        schema.add_index("child", "fk")
        schema.add_index("child", "fk")
        assert len(schema.indexes) == 1

    def test_add_foreign_key_checks_columns(self):
        schema = self._schema()
        with pytest.raises(KeyError):
            schema.add_foreign_key("child", "nope", "parent", "pk")
        fk = schema.add_foreign_key("child", "fk", "parent", "pk")
        assert fk == ForeignKey("child", "fk", "parent", "pk")

    def test_foreign_key_between_either_direction(self):
        schema = self._schema()
        schema.add_foreign_key("child", "fk", "parent", "pk")
        assert schema.foreign_key_between("parent", "child") is not None
        assert schema.foreign_key_between("child", "parent") is not None
        assert schema.foreign_key_between("child", "child") is None

    def test_validate_catches_dangling_index(self):
        schema = self._schema()
        schema.indexes.append(Index("child", "ghost"))
        with pytest.raises(KeyError):
            schema.validate()

    def test_index_name(self):
        assert Index("t", "c").name == "idx_t_c"
