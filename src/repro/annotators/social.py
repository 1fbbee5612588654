"""The Social Networking Annotator (paper Figure 3).

Two cooperating pieces implement the algorithm:

* :class:`SocialNetworkingAnnotator` — the *document-level* steps (3-7):
  identify candidate documents, extract person mentions from roster
  spreadsheets (structure-aware: cells keyed by column header), from
  service-detail forms (named TSA fields), from email headers, and from
  prose (delegating to the heuristics annotator's output), inferring
  missing fields from email-address conventions (step 6).
* :class:`ContactRollup` — the *collection-level* steps (8-14) as a CAS
  consumer: roll annotations up per business activity, de-duplicate
  (step 10), normalize fields (step 12), validate and refresh against
  the intranet personnel directory (step 13), and emit the per-deal
  contact lists the organized-information layer stores (step 14).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.annotators.base import EilAnnotator
from repro.errors import DatabaseError, TransientError
from repro.intranet.directory import PersonnelDirectory
from repro.obs import CounterHandle
from repro.text.normalize import (
    name_key,
    normalize_email,
    normalize_person_name,
    normalize_phone,
    normalize_role,
    person_from_email,
)
from repro.uima.cas import Cas
from repro.uima.cpe import CasConsumer

__all__ = [
    "SocialNetworkingAnnotator",
    "ContactRecord",
    "ContactRollup",
    "CATEGORY_FOR_ROLE",
    "candidate_document",
]

_REFRESH_SKIPPED = CounterHandle("contacts.directory_refresh_skipped")

# Business heuristic: People-tab category by canonical role (paper
# Section 4, Meta-query 2: "core deal team, technical support team,
# delivery team, client team, third party consultant").
CATEGORY_FOR_ROLE: Dict[str, str] = {
    "Client Solution Executive": "core deal team",
    "Sales Leader": "core deal team",
    "Engagement Manager": "core deal team",
    "Pricer": "core deal team",
    "Financial Analyst": "core deal team",
    "Contracts Lead": "core deal team",
    "Legal Counsel": "core deal team",
    "Technical Solution Architect": "technical support team",
    "Cross Tower Technical Solution Architect": "technical support team",
    "Security Architect": "technical support team",
    "Delivery Project Executive": "delivery team",
    "Transition Manager": "delivery team",
    "HR Lead": "delivery team",
    "Chief Information Officer": "client team",
    "Procurement Director": "client team",
    "IT Director": "client team",
    "Client Executive": "client team",
    "Third Party Consultant": "third party consultant",
}

_ROSTER_HEADERS = {"name", "role", "email", "phone", "organization"}
_PERSON_FORM_FIELDS = {"cross tower tsa", "mainframe tsa", "lead tsa"}
# Fig. 3 step 2: documents excluded irrespective of candidacy —
# boilerplate appendices produce only false contacts.
_EXCLUDED_TITLE_MARKERS = ("appendix",)


def candidate_document(cas: Cas) -> bool:
    """Fig. 3 steps 1-2: is this document worth social analysis?

    Candidates are rosters (spreadsheets), forms, and emails; documents
    whose titles mark them as boilerplate are excluded outright.
    """
    title = str(cas.metadata.get("title", "")).lower()
    if any(marker in title for marker in _EXCLUDED_TITLE_MARKERS):
        return False
    return cas.metadata.get("doc_type") in (
        "spreadsheet", "form", "email", "text", "presentation",
    )


class SocialNetworkingAnnotator(EilAnnotator):
    """Document-level person extraction (Fig. 3 steps 3-7)."""

    name = "social-networking"

    def process(self, cas: Cas) -> None:
        if not candidate_document(cas):
            return
        doc_type = cas.metadata.get("doc_type")
        if doc_type == "spreadsheet":
            self._process_roster(cas)
        elif doc_type == "form":
            self._process_form(cas)
        elif doc_type == "email":
            self._process_email(cas)
        # Prose person mentions are the heuristics annotator's job; the
        # aggregate pipeline runs it alongside this engine.

    # -- rosters -----------------------------------------------------------

    def _process_roster(self, cas: Cas) -> None:
        if "doc.Cell" not in cas.type_system:
            return
        rows: Dict[Tuple[str, int], Dict[str, "object"]] = {}
        for cell in cas.select("doc.Cell"):
            header = str(cell.get("header", "")).lower()
            if header not in _ROSTER_HEADERS:
                continue
            key = (str(cell.get("sheet")), int(cell.get("row", 0)))
            rows.setdefault(key, {})[header] = cell
        for row_cells in rows.values():
            name_cell = row_cells.get("name")
            if name_cell is None:
                continue
            name_text = cas.covered_text(name_cell).strip()
            if not name_text:
                continue
            features = {"name": normalize_person_name(name_text),
                        "source": "roster"}
            email_cell = row_cells.get("email")
            email_text = (
                cas.covered_text(email_cell).strip() if email_cell else ""
            )
            if email_text:
                features["email"] = normalize_email(email_text)
            role_cell = row_cells.get("role")
            if role_cell is not None:
                role_text = cas.covered_text(role_cell).strip()
                if role_text:
                    features["role"] = normalize_role(role_text)
            phone_cell = row_cells.get("phone")
            if phone_cell is not None:
                phone = normalize_phone(cas.covered_text(phone_cell))
                if phone:
                    features["phone"] = phone
            org_cell = row_cells.get("organization")
            org_text = (
                cas.covered_text(org_cell).strip() if org_cell else ""
            )
            if org_text:
                features["organization"] = org_text
            # Step 6: infer missing fields from the email convention.
            if email_text and "organization" not in features:
                inferred = person_from_email(email_text)
                if inferred is not None:
                    features.setdefault("organization", inferred[1])
            cas.annotate(
                "eil.Person", name_cell.begin, name_cell.end, **features
            )

    # -- forms ---------------------------------------------------------------

    def _process_form(self, cas: Cas) -> None:
        if "doc.FormField" not in cas.type_system:
            return
        for form_field in cas.select("doc.FormField"):
            field_name = str(form_field.get("name", "")).lower()
            if field_name not in _PERSON_FORM_FIELDS:
                continue
            if form_field.get("is_empty"):
                continue
            covered = cas.covered_text(form_field)
            value = covered.partition(":")[2].strip()
            if not value:
                continue
            cas.annotate(
                "eil.Person",
                form_field.begin,
                form_field.end,
                name=normalize_person_name(value),
                role=normalize_role(str(form_field.get("name"))),
                source="form",
            )

    # -- emails --------------------------------------------------------------

    def _process_email(self, cas: Cas) -> None:
        if "doc.EmailHeader" not in cas.type_system:
            return
        for header in cas.select("doc.EmailHeader"):
            if header.get("kind") not in ("from", "to"):
                continue
            for address in cas.covered_text(header).split(","):
                address = normalize_email(address)
                if "@" not in address or address.startswith("sales-dl@"):
                    continue
                inferred = person_from_email(address)
                features = {"email": address, "source": "email"}
                if inferred is not None:
                    features["name"] = inferred[0]
                    features["organization"] = inferred[1]
                cas.annotate(
                    "eil.Person", header.begin, header.end, **features
                )


@dataclass
class ContactRecord:
    """One de-duplicated, normalized, validated contact (Fig. 3 output).

    Attributes:
        deal_id: Business activity the contact belongs to.
        name: Canonical display name.
        email: Best-known email ("" when unknown).
        phone: Best-known phone ("" when unknown).
        organization: Employer.
        role: Canonical role ("" when unknown).
        category: People-tab grouping derived from the role.
        mention_count: How many annotations merged into this record.
        validated: True when the intranet directory confirmed the person.
        active: Directory active flag (True when unknown).
    """

    deal_id: str
    name: str
    email: str = ""
    phone: str = ""
    organization: str = ""
    role: str = ""
    category: str = "other"
    mention_count: int = 1
    validated: bool = False
    active: bool = True


class ContactRollup(CasConsumer):
    """Collection-level steps of Fig. 3 (8-14)."""

    name = "contact-rollup"

    def __init__(self, directory: Optional[PersonnelDirectory] = None):
        self.directory = directory
        self._raw: List[ContactRecord] = []

    def process_cas(self, cas: Cas) -> None:
        """Step 8: write annotations into the roll-up."""
        deal_id = str(cas.metadata.get("deal_id", ""))
        if not deal_id:
            return
        for person in cas.select("eil.Person"):
            name = str(person.get("name", "")).strip()
            email = str(person.get("email", "")).strip()
            if not name and not email:
                continue
            role = str(person.get("role", "")).strip()
            self._raw.append(
                ContactRecord(
                    deal_id=deal_id,
                    name=name,
                    email=email,
                    phone=str(person.get("phone", "")).strip(),
                    organization=str(
                        person.get("organization", "")
                    ).strip(),
                    role=role,
                    category=CATEGORY_FOR_ROLE.get(role, "other"),
                )
            )

    def collection_process_complete(self) -> Dict[str, List[ContactRecord]]:
        """Steps 9-13: de-duplicate, normalize, validate; return by deal."""
        by_deal: Dict[str, Dict[str, ContactRecord]] = {}
        for record in self._raw:
            merged = by_deal.setdefault(record.deal_id, {})
            key = self._dedup_key(record)
            existing = merged.get(key)
            if existing is None:
                merged[key] = record
            else:
                self._merge(existing, record)
        results: Dict[str, List[ContactRecord]] = {}
        for deal_id, contacts in by_deal.items():
            validated = [self._validate(c) for c in contacts.values()]
            validated.sort(
                key=lambda c: (-c.mention_count, c.category, c.name)
            )
            results[deal_id] = validated
        return results

    @staticmethod
    def _dedup_key(record: ContactRecord) -> str:
        # Email is the strongest identity; fall back to the name key.
        if record.email:
            return f"email:{record.email}"
        return f"name:{name_key(record.name)}"

    @staticmethod
    def _merge(target: ContactRecord, other: ContactRecord) -> None:
        """Prefer filled fields; count mentions (step 10's priorities)."""
        target.mention_count += other.mention_count
        if not target.name and other.name:
            target.name = other.name
        if not target.phone and other.phone:
            target.phone = other.phone
        if not target.organization and other.organization:
            target.organization = other.organization
        if not target.role and other.role:
            target.role = other.role
            target.category = CATEGORY_FOR_ROLE.get(other.role, "other")

    def _validate(self, record: ContactRecord) -> ContactRecord:
        """Step 13: refresh from the personnel directory.

        The refresh is enrichment, not extraction: when the directory's
        backing store is down (its lookups are Database-backed and
        subject to the ``db`` fault point), the contact stands as
        extracted — unvalidated but present — rather than failing the
        whole rollup.
        """
        if self.directory is None:
            return record
        try:
            directory_record = None
            if record.email:
                directory_record = self.directory.lookup_email(
                    record.email
                )
            if directory_record is None and record.name:
                matches = self.directory.lookup_name(record.name)
                if len(matches) == 1:
                    directory_record = matches[0]
        except (DatabaseError, TransientError):
            _REFRESH_SKIPPED.inc()
            return record
        if directory_record is not None:
            record.validated = True
            record.active = directory_record.active
            record.name = directory_record.full_name
            record.email = record.email or directory_record.email
            # The directory's phone is authoritative (step 13 "update").
            if directory_record.phone:
                record.phone = directory_record.phone
            if directory_record.organization:
                record.organization = directory_record.organization
        return record
