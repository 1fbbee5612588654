"""Organized Information: the structured business context in the DB.

This is the paper's "Organized Information" block (Figure 2): the
annotator/CPE outputs land in relational tables that the online synopsis
queries read.  The schema mirrors the synopsis tabs of Figure 6 —
overview fields, towers (scope), people, win strategies, technology
solutions, client references.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from repro.annotators.scope import ScopeEntry
from repro.annotators.social import ContactRecord
from repro.db import Database

__all__ = ["create_schema", "OrganizedInformation"]

_SCHEMA_STATEMENTS = (
    """
    CREATE TABLE deals (
        deal_id TEXT,
        name TEXT NOT NULL,
        customer TEXT,
        industry TEXT,
        consultant TEXT,
        geography TEXT,
        contract_start DATE,
        term_months INTEGER,
        value_band TEXT,
        international BOOLEAN,
        PRIMARY KEY (deal_id)
    )
    """,
    """
    CREATE TABLE deal_scopes (
        deal_id TEXT NOT NULL,
        canonical TEXT NOT NULL,
        tower TEXT,
        weight REAL NOT NULL,
        mentions INTEGER,
        rank INTEGER NOT NULL,
        FOREIGN KEY (deal_id) REFERENCES deals (deal_id)
    )
    """,
    """
    CREATE TABLE contacts (
        contact_id INTEGER,
        deal_id TEXT NOT NULL,
        name TEXT NOT NULL,
        email TEXT,
        phone TEXT,
        organization TEXT,
        role TEXT,
        category TEXT,
        mention_count INTEGER,
        validated BOOLEAN,
        active BOOLEAN,
        PRIMARY KEY (contact_id),
        FOREIGN KEY (deal_id) REFERENCES deals (deal_id)
    )
    """,
    """
    CREATE TABLE win_strategies (
        strategy_id INTEGER,
        deal_id TEXT NOT NULL,
        text TEXT NOT NULL,
        PRIMARY KEY (strategy_id),
        FOREIGN KEY (deal_id) REFERENCES deals (deal_id)
    )
    """,
    """
    CREATE TABLE technologies (
        technology_id INTEGER,
        deal_id TEXT NOT NULL,
        term TEXT NOT NULL,
        tower TEXT,
        PRIMARY KEY (technology_id),
        FOREIGN KEY (deal_id) REFERENCES deals (deal_id)
    )
    """,
    """
    CREATE TABLE client_references (
        reference_id INTEGER,
        deal_id TEXT NOT NULL,
        text TEXT NOT NULL,
        PRIMARY KEY (reference_id),
        FOREIGN KEY (deal_id) REFERENCES deals (deal_id)
    )
    """,
    # Analytics rollups group/filter deals by industry; the index lets
    # the planner serve those WHEREs and index joins without full scans.
    "CREATE INDEX ix_deals_industry ON deals (industry)",
    "CREATE INDEX ix_scopes_deal ON deal_scopes (deal_id)",
    "CREATE INDEX ix_scopes_canonical ON deal_scopes (canonical)",
    "CREATE INDEX ix_scopes_tower ON deal_scopes (tower)",
    "CREATE INDEX ix_contacts_deal ON contacts (deal_id)",
    "CREATE INDEX ix_contacts_name ON contacts (name)",
    "CREATE INDEX ix_contacts_role ON contacts (role)",
    "CREATE INDEX ix_tech_deal ON technologies (deal_id)",
    "CREATE INDEX ix_tech_term ON technologies (term)",
    # Every synopsis view reads these two per deal as well.
    "CREATE INDEX ix_strategies_deal ON win_strategies (deal_id)",
    "CREATE INDEX ix_references_deal ON client_references (deal_id)",
)


def create_schema(db: Database) -> Database:
    """Create the organized-information tables and indexes."""
    for statement in _SCHEMA_STATEMENTS:
        db.execute(statement)
    return db


class OrganizedInformation:
    """Populates and reads the structured business context."""

    def __init__(self, db: Optional[Database] = None) -> None:
        self.db = db or Database()
        if "deals" not in self.db.table_names:
            create_schema(self.db)
        # A loaded database already holds rows: go on from its ids.
        self._contact_id = self._max_id("contacts")
        self._strategy_id = self._max_id("win_strategies")
        self._technology_id = self._max_id("technologies")
        self._reference_id = self._max_id("client_references")

    def _max_id(self, table_name: str) -> int:
        """Highest primary key in ``table_name``, 0 when it is empty.

        Read from the table, not through ``execute``: a SELECT there is
        the ``db`` fault point, and an armed profile must not fail (or
        spend a draw on) constructing the system.
        """
        table = self.db.table(table_name)
        position = table.schema.position(table.schema.primary_key[0])
        return max((row[position] for _, row in table.scan()), default=0)

    # -- population (offline pipeline, Fig. 2 left-to-right) --------------

    def store_deal_context(
        self, deal_id: str, context: Mapping[str, str]
    ) -> None:
        """Insert one deal's overview fields (from eil.ContextField).

        ``context`` keys follow the overview-form field names; missing
        fields land as NULL, matching the inconsistently-maintained
        repositories the paper describes.
        """
        term = context.get("Term Duration Months")
        self.db.insert(
            "deals",
            {
                "deal_id": deal_id,
                "name": context.get("Deal Name", deal_id),
                "customer": context.get("Customer"),
                "industry": context.get("Industry"),
                "consultant": context.get("Out Sourcing Consultant"),
                "geography": context.get("Geography"),
                "contract_start": context.get("Contract Term Start"),
                "term_months": int(term) if term else None,
                "value_band": context.get("Total Contract Value"),
                "international": context.get("International") == "Y",
            },
        )

    def store_scopes(
        self, deal_id: str, entries: Sequence[ScopeEntry]
    ) -> None:
        """Insert a deal's significant scopes, preserving their order."""
        for rank, entry in enumerate(entries):
            self.db.insert(
                "deal_scopes",
                {
                    "deal_id": deal_id,
                    "canonical": entry.canonical,
                    "tower": entry.tower,
                    "weight": entry.weight,
                    "mentions": entry.mentions,
                    "rank": rank,
                },
            )

    def store_contacts(
        self, deal_id: str, contacts: Sequence[ContactRecord]
    ) -> None:
        """Insert a deal's de-duplicated contact list."""
        for contact in contacts:
            self._contact_id += 1
            self.db.insert(
                "contacts",
                {
                    "contact_id": self._contact_id,
                    "deal_id": deal_id,
                    "name": contact.name,
                    "email": contact.email,
                    "phone": contact.phone,
                    "organization": contact.organization,
                    "role": contact.role,
                    "category": contact.category,
                    "mention_count": contact.mention_count,
                    "validated": contact.validated,
                    "active": contact.active,
                },
            )

    def store_win_strategies(
        self, deal_id: str, strategies: Iterable[str]
    ) -> None:
        """Insert a deal's win-strategy statements."""
        for text in strategies:
            self._strategy_id += 1
            self.db.insert(
                "win_strategies",
                {"strategy_id": self._strategy_id, "deal_id": deal_id,
                 "text": text},
            )

    def store_technologies(
        self, deal_id: str, technologies: Iterable[Sequence[str]]
    ) -> None:
        """Insert (term, tower) technology pairs."""
        for term, tower in technologies:
            self._technology_id += 1
            self.db.insert(
                "technologies",
                {"technology_id": self._technology_id, "deal_id": deal_id,
                 "term": term, "tower": tower},
            )

    def store_client_references(
        self, deal_id: str, references: Iterable[str]
    ) -> None:
        """Insert client-reference statements."""
        for text in references:
            self._reference_id += 1
            self.db.insert(
                "client_references",
                {"reference_id": self._reference_id, "deal_id": deal_id,
                 "text": text},
            )

    # -- reads (online side) ----------------------------------------------------

    def deal_ids(self) -> List[str]:
        """All populated deal ids."""
        return self.db.execute(
            "SELECT deal_id FROM deals ORDER BY deal_id"
        ).column("deal_id")

    def deal_row(self, deal_id: str) -> Optional[Dict[str, object]]:
        """One deal's overview row, or None."""
        return self.db.query_one(
            "SELECT * FROM deals WHERE deal_id = ?", [deal_id]
        )

    def deal_names(self, deal_ids: Sequence[str]) -> Dict[str, object]:
        """deal id -> display name of those ``deal_ids`` that have an
        overview row, read in one statement."""
        placeholders = ", ".join("?" for _ in deal_ids)
        return dict(
            self.db.execute(
                f"SELECT deal_id, name FROM deals "
                f"WHERE deal_id IN ({placeholders})",
                list(deal_ids),
            ).rows
        )

    def scopes_of(self, deal_id: str) -> List[Dict[str, object]]:
        """Ordered scope rows of one deal."""
        return self.db.execute(
            "SELECT * FROM deal_scopes WHERE deal_id = ? ORDER BY rank",
            [deal_id],
        ).to_dicts()

    def contacts_of(self, deal_id: str) -> List[Dict[str, object]]:
        """Contact rows of one deal, grouped by category then name."""
        return self.db.execute(
            "SELECT * FROM contacts WHERE deal_id = ? "
            "ORDER BY category, name",
            [deal_id],
        ).to_dicts()

    def strategies_of(self, deal_id: str) -> List[str]:
        """Win-strategy texts of one deal."""
        return self.db.execute(
            "SELECT text FROM win_strategies WHERE deal_id = ? "
            "ORDER BY strategy_id",
            [deal_id],
        ).column("text")

    def technologies_of(self, deal_id: str) -> List[Dict[str, object]]:
        """Technology rows of one deal."""
        return self.db.execute(
            "SELECT * FROM technologies WHERE deal_id = ? "
            "ORDER BY technology_id",
            [deal_id],
        ).to_dicts()

    def references_of(self, deal_id: str) -> List[str]:
        """Client-reference texts of one deal."""
        return self.db.execute(
            "SELECT text FROM client_references WHERE deal_id = ? "
            "ORDER BY reference_id",
            [deal_id],
        ).column("text")
