"""Unit tests for column types and coercion."""

import datetime

import pytest

from repro.db import DataType
from repro.db.types import coerce
from repro.errors import TypeMismatchError


class TestCoerce:
    def test_none_passes_through(self):
        for dtype in DataType:
            assert coerce(None, dtype) is None

    def test_integer_accepts_int(self):
        assert coerce(42, DataType.INTEGER) == 42

    def test_integer_accepts_bool(self):
        assert coerce(True, DataType.INTEGER) == 1

    def test_integer_accepts_whole_float(self):
        assert coerce(3.0, DataType.INTEGER) == 3

    def test_integer_rejects_fractional_float(self):
        with pytest.raises(TypeMismatchError):
            coerce(3.5, DataType.INTEGER)

    def test_integer_rejects_numeric_string(self):
        with pytest.raises(TypeMismatchError):
            coerce("42", DataType.INTEGER)

    def test_real_accepts_int(self):
        value = coerce(2, DataType.REAL)
        assert value == 2.0 and isinstance(value, float)

    def test_text_accepts_str_only(self):
        assert coerce("abc", DataType.TEXT) == "abc"
        with pytest.raises(TypeMismatchError):
            coerce(42, DataType.TEXT)

    def test_boolean_accepts_bool_and_01(self):
        assert coerce(True, DataType.BOOLEAN) is True
        assert coerce(0, DataType.BOOLEAN) is False
        with pytest.raises(TypeMismatchError):
            coerce(2, DataType.BOOLEAN)

    def test_date_accepts_date_and_iso_string(self):
        d = datetime.date(2006, 1, 5)
        assert coerce(d, DataType.DATE) == d
        assert coerce("2006-01-05", DataType.DATE) == d

    def test_date_accepts_datetime(self):
        dt = datetime.datetime(2006, 1, 5, 12, 30)
        assert coerce(dt, DataType.DATE) == datetime.date(2006, 1, 5)

    def test_date_rejects_bad_string(self):
        with pytest.raises(TypeMismatchError):
            coerce("01/05/2006", DataType.DATE)

    def test_error_mentions_column(self):
        with pytest.raises(TypeMismatchError, match="total_value"):
            coerce("x", DataType.REAL, column="total_value")
