"""The intranet personnel directory (the paper's "hidden database").

Paper Section 3.3 ("Data Integration"): *"the internal personnel website
has a hidden database containing each employee's information ... we
integrated data from our internal personnel website to validate the
extracted people's status and update their contact information."*

The directory is a small structured store over :class:`repro.db`,
exposing the lookups the social-networking annotator needs (Figure 3,
step 13): by email, by normalized name, and an "is this person still
active" status check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional

from repro.corpus.people import Person
from repro.db import Column, Database, DataType, TableSchema
from repro.text.normalize import name_key, normalize_email

__all__ = ["DirectoryRecord", "PersonnelDirectory"]


@dataclass(frozen=True)
class DirectoryRecord:
    """One employee's authoritative record.

    Attributes:
        serial: Employee serial number.
        full_name: Canonical display name.
        email: Canonical corporate email.
        phone: Current phone number.
        organization: Current employer/business unit.
        active: False for people who left (their extracted contacts
            should be flagged, not offered as connections).
    """

    serial: str
    full_name: str
    email: str
    phone: str
    organization: str
    active: bool = True


class PersonnelDirectory:
    """Structured personnel lookups backed by the relational engine."""

    def __init__(self) -> None:
        self._db = Database()
        self._db.create_table(
            TableSchema(
                "personnel",
                [
                    Column("serial", DataType.TEXT),
                    Column("full_name", DataType.TEXT, nullable=False),
                    Column("name_key", DataType.TEXT, nullable=False),
                    Column("email", DataType.TEXT, nullable=False),
                    Column("phone", DataType.TEXT),
                    Column("organization", DataType.TEXT),
                    Column("active", DataType.BOOLEAN, nullable=False,
                           default=True),
                ],
                primary_key=["serial"],
                unique=[["email"]],
            )
        )
        table = self._db.table("personnel")
        table.create_index("ix_personnel_name", ("name_key",))
        table.create_index("ix_personnel_email", ("email",))
        self._next_serial = 1

    # -- loading ------------------------------------------------------------

    def add(self, record: DirectoryRecord) -> None:
        """Insert one authoritative record."""
        self._db.insert(
            "personnel",
            {
                "serial": record.serial,
                "full_name": record.full_name,
                "name_key": name_key(record.full_name),
                "email": normalize_email(record.email),
                "phone": record.phone,
                "organization": record.organization,
                "active": record.active,
            },
        )

    def add_person(self, person: Person, active: bool = True) -> DirectoryRecord:
        """Register a corpus person; serials are assigned sequentially."""
        record = DirectoryRecord(
            serial=f"{self._next_serial:06d}",
            full_name=person.full_name,
            email=person.email,
            phone=person.phone,
            organization=person.organization,
            active=active,
        )
        self._next_serial += 1
        self.add(record)
        return record

    def load_people(self, people: Iterable[Person]) -> int:
        """Bulk-register people, skipping duplicate emails; returns count."""
        count = 0
        seen = set()
        for person in people:
            email = normalize_email(person.email)
            if email in seen or self.lookup_email(email) is not None:
                continue
            seen.add(email)
            self.add_person(person)
            count += 1
        return count

    # -- lookups ---------------------------------------------------------------

    def lookup_email(self, email: str) -> Optional[DirectoryRecord]:
        """The record owning ``email``, or None."""
        row = self._db.query_one(
            "SELECT * FROM personnel WHERE email = ?",
            [normalize_email(email)],
        )
        return _to_record(row)

    def lookup_name(self, name: str) -> List[DirectoryRecord]:
        """Records whose name matches ``name`` (order-insensitive)."""
        result = self._db.execute(
            "SELECT * FROM personnel WHERE name_key = ? ORDER BY serial",
            [name_key(name)],
        )
        return [_to_record(row) for row in result.to_dicts()]

    def __len__(self) -> int:
        return self._db.execute("SELECT COUNT(*) FROM personnel").scalar()


def _to_record(row) -> Optional[DirectoryRecord]:
    if row is None:
        return None
    return DirectoryRecord(
        serial=row["serial"],
        full_name=row["full_name"],
        email=row["email"],
        phone=row["phone"],
        organization=row["organization"],
        active=row["active"],
    )
