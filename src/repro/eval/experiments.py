"""Experiment drivers: one function per paper table/figure.

Each driver runs an experiment end-to-end against a generated corpus and
an EIL build, returning a plain-data report the benchmarks print and the
integration tests assert on.  See DESIGN.md Section 4 for the experiment
index (E1-E10).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.eil import EILSystem
from repro.core.metaqueries import (
    role_capacity_query,
    scope_query,
    service_keyword_query,
    worked_with_query,
)
from repro.corpus.generator import Corpus
from repro.eval.metrics import PrfScores, evaluate_sets, ndcg
from repro.search.document import SearchHit
from repro.security.access import User

__all__ = [
    "Table2Row",
    "Table2Report",
    "run_table2",
    "Fig4Report",
    "run_fig4",
    "Fig7Report",
    "run_fig7",
    "Mq3Report",
    "run_mq3",
    "Mq4Report",
    "run_mq4",
    "RankingAblationReport",
    "run_ranking_ablation",
    "keyword_query_for_service",
    "keyword_matched_deals",
    "TABLE2_SERVICES",
]

_USER = User("evaluator", frozenset({"sales"}))

# The ten scope queries of the Table 2 experiment: a mix of parents
# (subtype expansion matters), plain towers, and subtowers.
TABLE2_SERVICES = (
    "End User Services",
    "Storage Management Services",
    "Network Services",
    "Disaster Recovery Services",
    "Customer Service Center",
    "Mainframe Services",
    "Security Services",
    "Application Management Services",
    "WAN",
    "Data Center Services",
)


def keyword_query_for_service(corpus: Corpus, service: str) -> str:
    """The best keyword query a diligent user would write for a service.

    ORs together every surface form of the service and its subtypes —
    the post-correction query of the paper's Figure 4 (the naive user
    would stop at the service name alone).
    """
    node = corpus.taxonomy.get(service)
    forms: List[str] = []
    for descendant in corpus.taxonomy.expand(node.name):
        forms.extend(descendant.surface_forms)
    parts = [
        f'"{form}"' if " " in form else form
        for form in dict.fromkeys(forms)
    ]
    return " OR ".join(parts)


def keyword_matched_deals(
    eil: EILSystem, query: str
) -> Set[str]:
    """Deals a keyword searcher would conclude are relevant.

    The paper's baseline user reads the returned documents and notes
    which engagements they belong to — i.e. a deal is "retrieved" when
    at least one of its documents matches.
    """
    return _hit_deals(eil, eil.keyword_search(query))


def _hit_deals(eil: EILSystem, hits: Sequence[SearchHit]) -> Set[str]:
    """The deals ``hits`` belong to, read off the index's deal column
    (a hit carries what it shows, not its metadata)."""
    deal_of = eil.engine.index.metadata_column("deal_id").values.get
    return {deal_of(hit.doc_id) for hit in hits} - {None, ""}


# ---------------------------------------------------------------------------
# E3: Table 2 — EIL vs keyword P/R/F on 10 scope queries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Table2Row:
    """One query's scores, mirroring one row of the paper's Table 2."""

    query: str
    eil: PrfScores
    keyword: PrfScores


@dataclass
class Table2Report:
    """The full Table 2 reproduction."""

    rows: List[Table2Row] = field(default_factory=list)

    def mean_f(self) -> Tuple[float, float]:
        """(EIL mean F, keyword mean F)."""
        if not self.rows:
            return 0.0, 0.0
        eil = sum(r.eil.f_measure for r in self.rows) / len(self.rows)
        keyword = sum(
            r.keyword.f_measure for r in self.rows
        ) / len(self.rows)
        return eil, keyword

    def eil_wins(self) -> int:
        """Queries where EIL's F beats keyword's."""
        return sum(
            1 for r in self.rows if r.eil.f_measure > r.keyword.f_measure
        )


def run_table2(
    corpus: Corpus,
    eil: EILSystem,
    services: Sequence[str] = TABLE2_SERVICES,
) -> Table2Report:
    """Run the 10 scope queries against both systems and score them."""
    report = Table2Report()
    for service in services:
        relevant = {
            deal.deal_id for deal in corpus.deals_with_service(service)
        }
        eil_retrieved = set(
            eil.search(scope_query(service), _USER).deal_ids
        )
        keyword_retrieved = keyword_matched_deals(
            eil, keyword_query_for_service(corpus, service)
        )
        report.rows.append(
            Table2Row(
                query=service,
                eil=evaluate_sets(eil_retrieved, relevant),
                keyword=evaluate_sets(keyword_retrieved, relevant),
            )
        )
    return report


# ---------------------------------------------------------------------------
# E4: Figure 4 — keyword hit-count blow-up for End User Services
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Fig4Report:
    """Keyword document counts for the EUS query (paper: 261 vs 1132).

    Attributes:
        plain_docs: Hits for the service name + acronym alone.
        expanded_docs: Hits once subtypes are OR-ed in.
        eil_deals: Deals EIL's concept search returns for the same need.
        total_docs: Corpus size, for rate context.
    """

    plain_docs: int
    expanded_docs: int
    eil_deals: int
    total_docs: int


def run_fig4(corpus: Corpus, eil: EILSystem) -> Fig4Report:
    """Count the keyword blow-up and the EIL alternative."""
    plain = eil.keyword_count('"End User Services" OR EUS')
    expanded = eil.keyword_count(
        keyword_query_for_service(corpus, "End User Services")
    )
    eil_deals = len(
        eil.search(scope_query("End User Services"), _USER).deal_ids
    )
    return Fig4Report(
        plain_docs=plain,
        expanded_docs=expanded,
        eil_deals=eil_deals,
        total_docs=corpus.document_count,
    )


# ---------------------------------------------------------------------------
# E6: Figure 7 / Meta-query 2 — multi-step people search
# ---------------------------------------------------------------------------


@dataclass
class Fig7Report:
    """The keyword user's journey vs EIL's single query.

    Attributes:
        person: The person searched for.
        organization: Their organization.
        step1_docs: Hits for name+org+role in one shot (paper: 0).
        step2_docs: Hits for name+org (paper: 4).
        discovered_deals: Deals identifiable from step-2 hits.
        step3_docs: Hits for deal-name+role (paper: 97).
        keyword_steps: Queries the keyword user needed.
        eil_deals: Deals EIL's one people query returned.
        eil_contacts: Contacts on the top EIL deal's People tab.
        truth_deals: Deals the person actually worked per ground truth.
    """

    person: str
    organization: str
    step1_docs: int
    step2_docs: int
    discovered_deals: List[str]
    step3_docs: int
    keyword_steps: int
    eil_deals: List[str]
    eil_contacts: int
    truth_deals: List[str]


def run_fig7(
    corpus: Corpus,
    eil: EILSystem,
    person_name: Optional[str] = None,
    organization: Optional[str] = None,
    role: str = "CSE",
) -> Fig7Report:
    """Replay the paper's Meta-query 2 episode on the corpus.

    Defaults to a client-team member of the first deal (mirroring "Sam
    White from company ABC").
    """
    if person_name is None:
        # Pick a client-team member whose full name actually appears in
        # some indexed document (the paper's Sam White is findable after
        # a re-query); a person only recorded as "Last, First" would
        # make even the baseline's second step return nothing.
        candidates = [
            member
            for deal in corpus.deals
            for member in deal.team
            if member.category == "client team"
        ]
        member = candidates[0]
        for candidate in candidates:
            org = candidate.person.organization.split()[0]
            if eil.keyword_count(
                f'"{candidate.person.full_name}" {org}'
            ) > 0:
                member = candidate
                break
        person_name = member.person.full_name
        organization = member.person.organization
    organization = organization or ""

    org_token = organization.split()[0] if organization else ""
    quoted_name = f'"{person_name}"'

    # Step 1: everything at once — typically nothing.
    step1 = eil.keyword_count(
        f"{quoted_name} {org_token} {role}".strip()
    )
    # Step 2: drop the role; find the deal from the hits.
    step2_hits = eil.keyword_search(f"{quoted_name} {org_token}".strip())
    discovered = sorted(_hit_deals(eil, step2_hits))
    # Step 3: search the discovered deal's name with the role.
    step3 = 0
    if discovered:
        deal_name = corpus.deal_by_id(discovered[0]).name
        step3 = eil.keyword_count(f'"{deal_name}" {role}')
    keyword_steps = 1 + (1 if step1 == 0 else 0) + (1 if discovered else 0)

    results = eil.search(
        worked_with_query(person_name, organization), _USER
    )
    eil_contacts = 0
    if results.deal_ids:
        synopsis = eil.synopsis(results.deal_ids[0], _USER)
        eil_contacts = len(synopsis.contacts())
    truth = [
        deal.deal_id
        for deal in corpus.deals
        if any(m.person.full_name == person_name for m in deal.team)
    ]
    return Fig7Report(
        person=person_name,
        organization=organization,
        step1_docs=step1,
        step2_docs=len(step2_hits),
        discovered_deals=discovered,
        step3_docs=step3,
        keyword_steps=keyword_steps,
        eil_deals=results.deal_ids,
        eil_contacts=eil_contacts,
        truth_deals=truth,
    )


# ---------------------------------------------------------------------------
# E7: Meta-query 3 — role-capacity search and empty-field noise
# ---------------------------------------------------------------------------


@dataclass
class Mq3Report:
    """Keyword hits vs useful hits for the role query (paper: 149 docs).

    Attributes:
        keyword_docs: Documents matching "cross tower TSA".
        keyword_useful_docs: The subset that actually names a person
            next to the field (the rest are empty schema fields).
        eil_deals: Deals whose contact list holds the role.
        eil_people: Distinct people EIL returns for the role.
        truth_people: Distinct people holding the role per ground truth.
    """

    keyword_docs: int
    keyword_useful_docs: int
    eil_deals: List[str]
    eil_people: Set[str]
    truth_people: Set[str]


def run_mq3(
    corpus: Corpus,
    eil: EILSystem,
    role_surface: str = "cross tower TSA",
    canonical_role: str = "Cross Tower Technical Solution Architect",
) -> Mq3Report:
    """Replay the paper's Meta-query 3 episode."""
    hits = eil.keyword_search(f'"{role_surface}"')
    useful = 0
    for hit in hits:
        body = hit.fields.get("body", "")
        for line in body.splitlines():
            if role_surface.lower() in line.lower():
                value = line.partition(":")[2].strip()
                if value:
                    useful += 1
                break
    results = eil.search(role_capacity_query(role_surface), _USER)
    eil_people: Set[str] = set()
    for deal_id in results.deal_ids:
        for contact in eil.synopsis(deal_id, _USER).contacts():
            if contact.role == canonical_role:
                eil_people.add(contact.name)
    truth_people = {
        member.person.full_name
        for deal in corpus.deals
        for member in deal.team
        if member.role == canonical_role
    }
    return Mq3Report(
        keyword_docs=len(hits),
        keyword_useful_docs=useful,
        eil_deals=results.deal_ids,
        eil_people=eil_people,
        truth_people=truth_people,
    )


# ---------------------------------------------------------------------------
# E8: Figures 8-9 / Meta-query 4 — concept + keyword hybrid
# ---------------------------------------------------------------------------


@dataclass
class Mq4Report:
    """Hybrid query vs keyword baseline (paper Figures 8-9).

    Attributes:
        service: The tower criterion.
        keyword: The text criterion.
        eil_deals: Ranked activities from the hybrid EIL query.
        eil_scoped: True when the SIAPI query ran activity-scoped.
        keyword_deals: Deals a one-shot conjunctive keyword query finds.
        keyword_docs: Documents that one-shot query returns.
        truth_deals: Deals with the service in scope AND the technology
            planted (the real answer set).
    """

    service: str
    keyword: str
    eil_deals: List[str]
    eil_scoped: bool
    keyword_deals: Set[str]
    keyword_docs: int
    truth_deals: Set[str]


def run_mq4(
    corpus: Corpus,
    eil: EILSystem,
    service: str = "Storage Management Services",
    keyword: str = "data replication",
) -> Mq4Report:
    """Replay the paper's Meta-query 4 episode."""
    results = eil.search(service_keyword_query(service, keyword), _USER)
    one_shot = f'"{service}" "{keyword}"'
    keyword_hits = eil.keyword_search(one_shot)
    truth = {
        deal.deal_id
        for deal in corpus.deals
        if deal.has_service(corpus.taxonomy, service)
        and keyword in {tech for _, tech in deal.technologies}
    }
    return Mq4Report(
        service=service,
        keyword=keyword,
        eil_deals=results.deal_ids,
        eil_scoped=results.scoped,
        keyword_deals=_hit_deals(eil, keyword_hits),
        keyword_docs=len(keyword_hits),
        truth_deals=truth,
    )


# ---------------------------------------------------------------------------
# E10: ranking ablation — synopsis-only / SIAPI-only / combined
# ---------------------------------------------------------------------------


@dataclass
class RankingAblationReport:
    """Mean NDCG@10 of three retrieval policies over hybrid queries.

    Ablates the two design choices of Fig. 1: activity scoping (steps
    5-8) and rank combination (step 18).

    For each policy two numbers are reported: mean NDCG@10 with graded
    relevance (ordering quality) and mean F-measure against the strict
    hybrid-intent truth set (deals satisfying *both* criteria) — the
    set-quality number where activity scoping pays off.

    Attributes:
        synopsis_only: (ndcg, f) for concept search alone.
        unscoped_keyword: (ndcg, f) for the keyword side without the
            synopsis pre-filter (the "search-box" policy).
        combined: (ndcg, f) for full EIL — scoped keyword search with
            combined ranking.
        queries: Hybrid (service, technology) queries evaluated.
    """

    synopsis_only: Tuple[float, float]
    unscoped_keyword: Tuple[float, float]
    combined: Tuple[float, float]
    queries: int


def run_ranking_ablation(
    corpus: Corpus, eil: EILSystem, max_queries: int = 10
) -> RankingAblationReport:
    """Score the Fig. 1 design choices with graded relevance.

    Relevance grades per (service, technology) query follow the hybrid
    intent: 3 when the deal has the service in scope *and* the
    technology planted (what the asker wants), 1 when only the service
    is in scope (partially useful), 0 otherwise.  Technologies are shared
    between services in the taxonomy ("data replication" belongs to
    both Storage Management and Disaster Recovery), so the unscoped
    keyword policy surfaces deals where the technology arrived through
    the *wrong* service — exactly the noise scoping removes.
    """
    from repro.search.siapi import SiapiQuery

    # Discriminative queries: technologies owned by services in at
    # least two different tower families, so the unscoped keyword
    # policy can be fooled by the "wrong" family's deals.
    def top_tower(name: str) -> str:
        node = corpus.taxonomy.get(name)
        while node.parent is not None:
            node = corpus.taxonomy.get(node.parent)
        return node.name

    tech_families: Dict[str, Set[str]] = {}
    tech_owners: Dict[str, List[str]] = {}
    for node in corpus.taxonomy.all_nodes:
        for tech in node.technologies:
            tech_families.setdefault(tech, set()).add(top_tower(node.name))
            tech_owners.setdefault(tech, []).append(node.name)
    queries: List[Tuple[str, str]] = []
    for tech, families in tech_families.items():
        if len(families) < 2:
            continue
        for owner in tech_owners[tech]:
            queries.append((owner, tech))
    queries.sort()
    queries = queries[:max_queries]

    ndcg_scores: Dict[str, List[float]] = {
        "synopsis": [], "unscoped": [], "combined": [],
    }
    f_scores: Dict[str, List[float]] = {
        "synopsis": [], "unscoped": [], "combined": [],
    }
    for service, tech in queries:
        relevance: Dict[str, int] = {}
        strict_truth: Set[str] = set()
        for deal in corpus.deals:
            in_scope = deal.has_service(corpus.taxonomy, service)
            has_tech = tech in {t for _, t in deal.technologies}
            if in_scope and has_tech:
                relevance[deal.deal_id] = 3
                strict_truth.add(deal.deal_id)
            elif in_scope:
                relevance[deal.deal_id] = 1

        rankings = {
            "synopsis": eil.search(scope_query(service), _USER).deal_ids,
            "unscoped": [
                group.activity_id
                for group in eil.siapi.search_grouped(
                    SiapiQuery(exact_phrase=tech)
                )
            ],
            "combined": eil.search(
                service_keyword_query(service, tech), _USER
            ).deal_ids,
        }
        for label, ranked in rankings.items():
            ndcg_scores[label].append(ndcg(ranked, relevance, k=10))
            f_scores[label].append(
                evaluate_sets(set(ranked), strict_truth).f_measure
            )

    def mean(values: List[float]) -> float:
        return sum(values) / len(values) if values else 0.0

    return RankingAblationReport(
        synopsis_only=(mean(ndcg_scores["synopsis"]),
                       mean(f_scores["synopsis"])),
        unscoped_keyword=(mean(ndcg_scores["unscoped"]),
                          mean(f_scores["unscoped"])),
        combined=(mean(ndcg_scores["combined"]),
                  mean(f_scores["combined"])),
        queries=len(queries),
    )
