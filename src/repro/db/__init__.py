"""An in-memory relational engine (the paper's DB2 substitute).

Public surface::

    from repro.db import Database, TableSchema, Column, DataType

    db = Database()
    db.execute("CREATE TABLE deals (deal_id TEXT, name TEXT, PRIMARY KEY (deal_id))")
    db.insert("deals", {"deal_id": "d1", "name": "DEAL A"})
    rows = db.execute("SELECT name FROM deals WHERE deal_id = ?", ["d1"])

The engine supports typed schemas, PRIMARY KEY / UNIQUE / FOREIGN KEY /
NOT NULL constraints, hash indexes (equality and trigram substring
probes) with a planner that uses them, inner/left joins, aggregation,
DELETE, and undo-log transactions.  A row enters through
``Database.insert`` only; SQL is SELECT, DELETE, CREATE TABLE, CREATE
INDEX and EXPLAIN.
"""

from repro.db.database import Database
from repro.db.expr import (
    Arithmetic,
    ColumnRef,
    Comparison,
    Expression,
    FunctionCall,
    InList,
    IsNull,
    Like,
    Literal,
    LogicalAnd,
    LogicalNot,
    LogicalOr,
    Parameter,
    escape_like,
)
from repro.db.index import Index
from repro.db.persistence import (
    dump_database,
    dumps_database,
    load_database,
    loads_database,
)
from repro.db.plan import SelectPlan
from repro.db.query import (
    AggregateCall,
    Join,
    OrderItem,
    ResultSet,
    SelectItem,
    SelectStatement,
    TableRef,
)
from repro.db.schema import Column, ForeignKey, TableSchema
from repro.db.sql import Explain, parse
from repro.db.table import Table
from repro.db.types import DataType

__all__ = [
    "Database",
    "Table",
    "TableSchema",
    "Column",
    "ForeignKey",
    "DataType",
    "Index",
    "Expression",
    "Literal",
    "ColumnRef",
    "Parameter",
    "Comparison",
    "LogicalAnd",
    "LogicalOr",
    "LogicalNot",
    "IsNull",
    "InList",
    "Like",
    "Arithmetic",
    "FunctionCall",
    "AggregateCall",
    "SelectStatement",
    "SelectItem",
    "TableRef",
    "Join",
    "OrderItem",
    "ResultSet",
    "SelectPlan",
    "Explain",
    "parse",
    "escape_like",
    "dump_database",
    "load_database",
    "dumps_database",
    "loads_database",
]
