"""Fill a table through ``Database.insert``, the one way a row enters."""


def insert_rows(db, table, rows):
    """Insert each of ``rows``, a tuple of values in ``table``'s column
    order."""
    columns = db.table(table).schema.column_names
    for row in rows:
        db.insert(table, dict(zip(columns, row)))
