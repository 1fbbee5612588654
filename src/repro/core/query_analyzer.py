"""Query Analyzer & Information Collector (paper Figure 2, online side).

Takes the form-based query (paper Figure 8: concept criteria + text
criteria + people criteria) and splits it into

* a *synopsis query* over the organized-information database, and
* a *SIAPI query* for the semantic index (or None when no text criteria
  were entered),

exactly the decomposition steps 1-3 of the paper's Figure 1 perform.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.organized import OrganizedInformation
from repro.corpus.taxonomy import ServiceTaxonomy
from repro.db import escape_like
from repro.errors import QuerySyntaxError
from repro.obs import CounterHandle, get_tracer
from repro.search.siapi import SiapiQuery
from repro.text.normalize import normalize_role

__all__ = ["FormQuery", "SynopsisMatch", "SynopsisSearch"]

_CRITERION_CONSULTANT = CounterHandle("synopsis.criterion.consultant")
_CRITERION_GEOGRAPHY = CounterHandle("synopsis.criterion.geography")
_CRITERION_INDUSTRY = CounterHandle("synopsis.criterion.industry")
_CRITERION_PEOPLE = CounterHandle("synopsis.criterion.people")
_CRITERION_TEXT = CounterHandle("synopsis.criterion.text")
_CRITERION_TOWER = CounterHandle("synopsis.criterion.tower")
_QUERIES = CounterHandle("synopsis.queries")

# Form criteria are substrings (paper Fig. 8): a ``%`` or ``_`` the user
# typed is text to find, not a wildcard.
_CONTAINS = "LIKE ? ESCAPE '\\'"


def _containing(needle: str) -> str:
    """The LIKE pattern for "contains ``needle``", to go with
    ``_CONTAINS``."""
    return f"%{escape_like(needle.strip().lower())}%"


@dataclass(frozen=True)
class FormQuery:
    """The EIL search form (paper Figure 8).

    Concept criteria ("Find deals with these characteristics"):

    Attributes:
        tower: Service concept; matches the taxonomy node *or any of its
            descendants* — selecting "End User Services" finds CSC deals.
        industry: Sector/industry substring.
        consultant: Outsourcing-consultant substring.
        geography: Geography/country substring.
        all_words: Text criterion — every word must appear.
        exact_phrase: Text criterion — consecutive phrase.
        any_words: Text criterion — at least one word.
        none_words: Text criterion — excluded words.
        search_in: Where text criteria apply: ``"ewb"`` (the engagement
            workbooks via the semantic index) or ``"synopsis"`` (the
            extracted technology-solution and win-strategy text).
        person_name: People criterion — contact-name substring.
        organization: People criterion — contact-organization substring.
        role: People criterion — canonical role (normalized).
    """

    tower: str = ""
    industry: str = ""
    consultant: str = ""
    geography: str = ""
    all_words: str = ""
    exact_phrase: str = ""
    any_words: str = ""
    none_words: str = ""
    search_in: str = "ewb"
    person_name: str = ""
    organization: str = ""
    role: str = ""

    def __post_init__(self) -> None:
        if self.search_in not in ("ewb", "synopsis"):
            raise QuerySyntaxError(
                f"search_in must be 'ewb' or 'synopsis', "
                f"got {self.search_in!r}"
            )

    def has_concept_criteria(self) -> bool:
        """Any synopsis-side (concept/people) field filled?"""
        return any(
            value.strip()
            for value in (
                self.tower, self.industry, self.consultant, self.geography,
                self.person_name, self.organization, self.role,
            )
        )

    def has_text_criteria(self) -> bool:
        """Any keyword-side field filled?"""
        return any(
            value.strip()
            for value in (self.all_words, self.exact_phrase,
                          self.any_words, self.none_words)
        )

    def is_empty(self) -> bool:
        """Nothing entered at all."""
        return not (self.has_concept_criteria() or self.has_text_criteria())

    def describe(self) -> str:
        """Natural-language echo of the query (paper Figure 8's footer).

        E.g. ``Find deals with Storage Management Services tower;
        contain "data replication" anywhere in EWB``.
        """
        parts: List[str] = []
        if self.tower.strip():
            parts.append(f"with {self.tower.strip()} tower")
        if self.industry.strip():
            parts.append(f"in the {self.industry.strip()} industry")
        if self.consultant.strip():
            parts.append(f"advised by {self.consultant.strip()}")
        if self.geography.strip():
            parts.append(f"in {self.geography.strip()}")
        where = ("anywhere in EWB" if self.search_in == "ewb"
                 else "in the deal synopsis")
        if self.all_words.strip():
            parts.append(f"contain all of '{self.all_words.strip()}' "
                         f"{where}")
        if self.exact_phrase.strip():
            parts.append(f'contain "{self.exact_phrase.strip()}" {where}')
        if self.any_words.strip():
            parts.append(f"contain any of '{self.any_words.strip()}' "
                         f"{where}")
        if self.none_words.strip():
            parts.append(f"contain none of '{self.none_words.strip()}' "
                         f"{where}")
        people = []
        if self.person_name.strip():
            people.append(self.person_name.strip())
        if self.organization.strip():
            people.append(f"of {self.organization.strip()}")
        if self.role.strip():
            people.append(f"as {self.role.strip()}")
        if people:
            parts.append("involving " + " ".join(people))
        if not parts:
            return "Find all deals"
        return "Find deals " + "; ".join(parts)

    def to_siapi_query(self) -> Optional[SiapiQuery]:
        """Step 3 of Fig. 1: the SIAPI query, or None without text."""
        if not self.has_text_criteria() or self.search_in != "ewb":
            return None
        return SiapiQuery(
            all_words=self.all_words,
            exact_phrase=self.exact_phrase,
            any_words=self.any_words,
            none_words=self.none_words,
        )


@dataclass
class SynopsisMatch:
    """One activity matched by the synopsis query.

    Attributes:
        deal_id: The activity.
        score: Synopsis relevance in (0, 1].
        reasons: Human-readable match explanations ("tower rank 1", ...).
    """

    deal_id: str
    score: float
    reasons: List[str] = field(default_factory=list)


class SynopsisSearch:
    """Executes the synopsis side (steps 2 and 4 of Fig. 1).

    Each filled criterion contributes a sub-score; criteria combine
    conjunctively (a deal must satisfy all of them) and the final
    synopsis relevance is the mean of the sub-scores.
    """

    def __init__(
        self, organized: OrganizedInformation, taxonomy: ServiceTaxonomy
    ) -> None:
        self.organized = organized
        self.taxonomy = taxonomy

    def execute(self, form: FormQuery) -> Dict[str, SynopsisMatch]:
        """Run the synopsis query; empty dict when no concept criteria."""
        if not form.has_concept_criteria() and not (
            form.has_text_criteria() and form.search_in == "synopsis"
        ):
            return {}
        _QUERIES.inc()
        criteria_scores: List[Dict[str, float]] = []
        reasons: Dict[str, List[str]] = {}
        tracer = get_tracer()

        def add(scores: Dict[str, float], label: str) -> None:
            criteria_scores.append(scores)
            for deal_id in scores:
                reasons.setdefault(deal_id, []).append(label)

        # Criteria are read stripped, as the query cache keys them: a
        # padded form answers exactly as its unpadded twin.
        tower = form.tower.strip()
        industry = form.industry.strip()
        consultant = form.consultant.strip()
        geography = form.geography.strip()
        with tracer.span("synopsis.sql"):
            if tower:
                _CRITERION_TOWER.inc()
                add(self._tower_scores(tower), f"tower={tower}")
            if industry:
                _CRITERION_INDUSTRY.inc()
                add(self._field_scores("industry", industry),
                    f"industry={industry}")
            if consultant:
                _CRITERION_CONSULTANT.inc()
                add(self._field_scores("consultant", consultant),
                    f"consultant={consultant}")
            if geography:
                _CRITERION_GEOGRAPHY.inc()
                add(self._field_scores("geography", geography),
                    f"geography={geography}")
            if form.person_name.strip() or form.organization.strip() or \
                    form.role.strip():
                _CRITERION_PEOPLE.inc()
                add(self._people_scores(form), "people")
            if form.has_text_criteria() and form.search_in == "synopsis":
                _CRITERION_TEXT.inc()
                add(self._synopsis_text_scores(form), "synopsis-text")

        if not criteria_scores:
            return {}
        # Conjunctive combination: intersect, then average sub-scores.
        matched = set(criteria_scores[0])
        for scores in criteria_scores[1:]:
            matched &= set(scores)
        results: Dict[str, SynopsisMatch] = {}
        for deal_id in matched:
            mean = sum(s[deal_id] for s in criteria_scores) / len(
                criteria_scores
            )
            results[deal_id] = SynopsisMatch(
                deal_id, mean, reasons.get(deal_id, [])
            )
        return results

    # -- criterion scorers ------------------------------------------------

    def _tower_scores(self, tower: str) -> Dict[str, float]:
        """Deals whose extracted scope covers the service (or children).

        Score decays with the service's significance rank in the deal —
        the Figure 5 ordering — so a primarily-CSC deal outranks one
        where CSC is a scope afterthought.
        """
        names = []
        canonical = self.taxonomy.canonical(tower)
        if canonical is not None:
            names = [node.name for node in self.taxonomy.expand(canonical)]
        else:
            names = [tower]  # unknown concept: exact text match attempt
        placeholders = ", ".join("?" for _ in names)
        rows = self.organized.db.execute(
            f"SELECT deal_id, MIN(rank) AS best_rank FROM deal_scopes "
            f"WHERE canonical IN ({placeholders}) GROUP BY deal_id",
            names,
        ).to_dicts()
        return {
            row["deal_id"]: 1.0 / (1.0 + row["best_rank"])
            for row in rows
        }

    def _field_scores(self, column: str, needle: str) -> Dict[str, float]:
        rows = self.organized.db.execute(
            f"SELECT deal_id FROM deals WHERE LOWER({column}) {_CONTAINS}",
            [_containing(needle)],
        ).to_dicts()
        return {row["deal_id"]: 1.0 for row in rows}

    def _people_scores(self, form: FormQuery) -> Dict[str, float]:
        conditions = []
        params: List[str] = []
        if form.person_name.strip():
            conditions.append(f"LOWER(name) {_CONTAINS}")
            params.append(_containing(form.person_name))
        if form.organization.strip():
            conditions.append(f"LOWER(organization) {_CONTAINS}")
            params.append(_containing(form.organization))
        if form.role.strip():
            conditions.append("role = ?")
            params.append(normalize_role(form.role))
        where = " AND ".join(conditions)
        rows = self.organized.db.execute(
            f"SELECT deal_id, MAX(mention_count) AS mentions FROM contacts "
            f"WHERE {where} GROUP BY deal_id",
            params,
        ).to_dicts()
        return {
            row["deal_id"]: min(1.0, 0.5 + row["mentions"] / 10.0)
            for row in rows
        }

    def _synopsis_text_scores(self, form: FormQuery) -> Dict[str, float]:
        """Text criteria against extracted synopsis text (not documents).

        Searches the technology-solution terms and win-strategy texts —
        the paper's "issue it as a keyword search against ... only the
        technology solution overview section" option (Meta-query 4).
        """
        needles = []
        if form.exact_phrase.strip():
            needles.append(form.exact_phrase.strip().lower())
        needles.extend(w.lower() for w in form.all_words.split())
        matched: Optional[set] = None
        for needle in needles:
            rows = self.organized.db.execute(
                "SELECT deal_id FROM technologies "
                f"WHERE LOWER(term) {_CONTAINS}",
                [_containing(needle)],
            ).to_dicts()
            rows += self.organized.db.execute(
                "SELECT deal_id FROM win_strategies "
                f"WHERE LOWER(text) {_CONTAINS}",
                [_containing(needle)],
            ).to_dicts()
            deal_ids = {row["deal_id"] for row in rows}
            matched = deal_ids if matched is None else matched & deal_ids
        return {deal_id: 1.0 for deal_id in (matched or set())}
