"""Column data types and value coercion for the relational engine.

The engine supports the five scalar types EIL's organized-information
schema needs: INTEGER, REAL, TEXT, BOOLEAN and DATE.  ``DATE`` values
are stored as :class:`datetime.date`; the other types map onto the
obvious Python scalars.  ``coerce`` applies SQLite-style lenient
conversion on insert (e.g. an int arriving in a REAL column) while
rejecting genuinely incompatible values.
"""

from __future__ import annotations

import datetime
import enum
from typing import Any, Optional

from repro.errors import TypeMismatchError

__all__ = ["DataType", "coerce"]


class DataType(enum.Enum):
    """Scalar column types supported by the engine."""

    INTEGER = "INTEGER"
    REAL = "REAL"
    TEXT = "TEXT"
    BOOLEAN = "BOOLEAN"
    DATE = "DATE"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


_DATE_FORMAT = "%Y-%m-%d"


def coerce(value: Any, dtype: DataType, column: str = "?") -> Optional[Any]:
    """Coerce ``value`` to ``dtype``, raising :class:`TypeMismatchError`.

    ``None`` passes through (nullability is the schema's concern, not the
    type system's).  Lenient conversions: int -> REAL, bool -> INTEGER,
    ISO-format str -> DATE, int/float/bool/date -> TEXT is *not* allowed
    (silent stringification hides bugs); numeric strings are *not*
    auto-parsed into numbers for the same reason.
    """
    if value is None:
        return None
    if dtype is DataType.INTEGER:
        if isinstance(value, bool):
            return int(value)
        if isinstance(value, int):
            return value
        if isinstance(value, float) and value.is_integer():
            return int(value)
    elif dtype is DataType.REAL:
        if isinstance(value, bool):
            return float(value)
        if isinstance(value, (int, float)):
            return float(value)
    elif dtype is DataType.TEXT:
        if isinstance(value, str):
            return value
    elif dtype is DataType.BOOLEAN:
        if isinstance(value, bool):
            return value
        if isinstance(value, int) and value in (0, 1):
            return bool(value)
    elif dtype is DataType.DATE:
        if isinstance(value, datetime.datetime):
            return value.date()
        if isinstance(value, datetime.date):
            return value
        if isinstance(value, str):
            try:
                return datetime.datetime.strptime(value, _DATE_FORMAT).date()
            except ValueError:
                pass
    raise TypeMismatchError(
        f"column {column!r}: cannot store {type(value).__name__} "
        f"value {value!r} in {dtype} column"
    )
