"""Unit tests for table schemas and row validation."""

import pytest

from repro.db import Column, DataType, ForeignKey, TableSchema
from repro.errors import IntegrityError, SchemaError


def make_schema(**kwargs):
    return TableSchema(
        "deals",
        [
            Column("deal_id", DataType.TEXT),
            Column("name", DataType.TEXT, nullable=False),
            Column("value", DataType.REAL, default=0.0),
        ],
        primary_key=["deal_id"],
        **kwargs,
    )


class TestSchemaDefinition:
    def test_column_names_lowercased(self):
        schema = TableSchema("T", [Column("Deal_ID", DataType.TEXT)])
        assert schema.column_names == ["deal_id"]
        assert schema.name == "t"

    def test_duplicate_column_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema(
                "t",
                [Column("a", DataType.TEXT), Column("A", DataType.INTEGER)],
            )

    def test_empty_table_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema("t", [])

    def test_invalid_identifiers_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema("1t", [Column("a", DataType.TEXT)])
        with pytest.raises(SchemaError):
            Column("bad name", DataType.TEXT)

    def test_unknown_pk_column_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema(
                "t", [Column("a", DataType.TEXT)], primary_key=["nope"]
            )

    def test_pk_columns_become_not_null(self):
        schema = make_schema()
        assert schema.column("deal_id").nullable is False

    def test_fk_column_count_mismatch(self):
        with pytest.raises(SchemaError):
            ForeignKey(("a", "b"), "parent", ("x",))

    def test_fk_empty_rejected(self):
        with pytest.raises(SchemaError):
            ForeignKey((), "parent", ())

    def test_duplicate_pk_column_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema(
                "t",
                [Column("a", DataType.TEXT)],
                primary_key=["a", "a"],
            )

    def test_default_is_coerced_at_definition(self):
        column = Column("n", DataType.REAL, default=5)
        assert column.default == 5.0
        with pytest.raises(Exception):
            Column("n", DataType.REAL, default="x")


class TestRowValidation:
    def test_defaults_applied(self):
        row = make_schema().validate_row({"deal_id": "d1", "name": "A"})
        assert row == ("d1", "A", 0.0)

    def test_not_null_enforced(self):
        with pytest.raises(IntegrityError, match="name"):
            make_schema().validate_row({"deal_id": "d1", "name": None})

    def test_missing_pk_rejected(self):
        with pytest.raises(IntegrityError):
            make_schema().validate_row({"name": "A"})

    def test_unknown_column_rejected(self):
        with pytest.raises(IntegrityError, match="typo"):
            make_schema().validate_row(
                {"deal_id": "d1", "name": "A", "typo": 1}
            )

    def test_case_insensitive_keys(self):
        row = make_schema().validate_row({"DEAL_ID": "d1", "Name": "A"})
        assert row[0] == "d1"

    def test_row_dict_roundtrip(self):
        schema = make_schema()
        row = schema.validate_row({"deal_id": "d1", "name": "A", "value": 2})
        assert dict(zip(schema.column_names, row)) == {
            "deal_id": "d1",
            "name": "A",
            "value": 2.0,
        }

    def test_key_of(self):
        schema = make_schema()
        row = schema.validate_row({"deal_id": "d1", "name": "A"})
        assert schema.key_of(row, ["name", "deal_id"]) == ("A", "d1")

    def test_position_and_has_column(self):
        schema = make_schema()
        assert schema.position("value") == 2
        assert schema.has_column("VALUE")
        assert not schema.has_column("nope")
        with pytest.raises(SchemaError):
            schema.position("nope")
