"""Access paths of the synopsis statements.

Every form query starts with a synopsis query and every result reads
its activities' names back, so a statement that silently falls back to
scanning costs every request.  These tests pin the access path —
``ResultSet.plan``'s first line — of each statement
:class:`SynopsisSearch` and :class:`OrganizedInformation`'s readers
issue: index probes everywhere.  A leading-wildcard ``LIKE`` (a
substring search) probes its column's index by trigram where the column
has one; a full scan is left only where it has none, where the needle
is shorter than a trigram, or where there is no predicate at all.
"""

import pytest

from repro import CorpusConfig, CorpusGenerator, EILSystem
from repro.core.query_analyzer import FormQuery, SynopsisSearch


@pytest.fixture(scope="module")
def system():
    return EILSystem.build(
        CorpusGenerator(CorpusConfig(n_deals=4, docs_per_deal=14)).generate()
    )


@pytest.fixture
def accesses(system, monkeypatch):
    """{statement text: access path} of what runs while the test does."""
    seen = {}
    db = system.organized.db
    execute = db.execute

    def recording(sql, params=()):
        result = execute(sql, params)
        # "index lookup ix(col='v')" -> "index lookup ix(col", and
        # "index substring ix(col like '%v%')" -> "index substring ix(col"
        path = result.plan[0].split("=")[0].split(" in ")[0]
        path = path.split(" like ")[0]
        seen.setdefault(" ".join(sql.split()), set()).add(path)
        return result

    monkeypatch.setattr(db, "execute", recording)
    return seen


def test_synopsis_search_probes_where_an_index_can_serve(system, accesses):
    search = SynopsisSearch(system.organized, system.taxonomy)
    for form in (
        FormQuery(tower="End User Services"),
        FormQuery(tower="no such service"),
        FormQuery(industry="bank", consultant="tpi", geography="united"),
        FormQuery(person_name="smith"),
        FormQuery(organization="corp"),
        FormQuery(role="CSE"),
        FormQuery(person_name="a", organization="b", role="CSE"),
        FormQuery(exact_phrase="data replication", all_words="storage san",
                  search_in="synopsis"),
    ):
        search.execute(form)

    contains = "LIKE ? ESCAPE '\\'"
    contacts = ("SELECT deal_id, MAX(mention_count) AS mentions "
                "FROM contacts WHERE {} GROUP BY deal_id")
    probes = {
        sql: paths for sql, paths in accesses.items()
        if "canonical IN" in sql
    }
    assert probes and all(
        paths == {"index lookup ix_scopes_canonical(canonical"}
        for paths in probes.values()
    )
    assert {
        sql: paths for sql, paths in accesses.items() if sql not in probes
    } == {
        f"SELECT deal_id FROM deals WHERE LOWER({column}) {contains}":
            {"full scan deals"}
        for column in ("consultant", "geography")
    } | {
        f"SELECT deal_id FROM deals WHERE LOWER(industry) {contains}":
            {"index substring ix_deals_industry(industry"},
        contacts.format(f"LOWER(name) {contains}"):
            {"index substring ix_contacts_name(name"},
        contacts.format(f"LOWER(organization) {contains}"):
            {"full scan contacts"},
        contacts.format("role = ?"):
            {"index lookup ix_contacts_role(role"},
        contacts.format(
            f"LOWER(name) {contains} AND LOWER(organization) {contains} "
            "AND role = ?"
        ): {"index lookup ix_contacts_role(role"},
        f"SELECT deal_id FROM technologies WHERE LOWER(term) {contains}":
            {"index substring ix_tech_term(term"},
        f"SELECT deal_id FROM win_strategies WHERE LOWER(text) {contains}":
            {"full scan win_strategies"},
    }


def test_a_needle_shorter_than_a_trigram_scans(system, accesses):
    """A two-character name has no trigram to probe for: the indexed
    name column is scanned, as every column was before it had a
    substring path."""
    SynopsisSearch(system.organized, system.taxonomy).execute(
        FormQuery(person_name="sm")
    )
    assert accesses == {
        "SELECT deal_id, MAX(mention_count) AS mentions FROM contacts "
        "WHERE LOWER(name) LIKE ? ESCAPE '\\' GROUP BY deal_id":
            {"full scan contacts"},
    }


def test_per_deal_readers_are_point_reads(system, accesses):
    organized = system.organized
    for deal_id in organized.deal_ids():
        organized.deal_row(deal_id)
        organized.scopes_of(deal_id)
        organized.contacts_of(deal_id)
        organized.strategies_of(deal_id)
        organized.technologies_of(deal_id)
        organized.references_of(deal_id)
        system.synopsis(deal_id)
    # Listing the deals reads them all; nothing else scans.
    assert accesses.pop("SELECT deal_id FROM deals ORDER BY deal_id") == {
        "full scan deals"
    }
    assert {
        sql.split(" FROM ")[1].split(" ORDER BY ")[0]: paths
        for sql, paths in accesses.items()
    } == {
        "deals WHERE deal_id = ?": {"index lookup pk_deals(deal_id"},
        "deal_scopes WHERE deal_id = ?":
            {"index lookup ix_scopes_deal(deal_id"},
        "contacts WHERE deal_id = ?":
            {"index lookup ix_contacts_deal(deal_id"},
        "win_strategies WHERE deal_id = ?":
            {"index lookup ix_strategies_deal(deal_id"},
        "technologies WHERE deal_id = ?":
            {"index lookup ix_tech_deal(deal_id"},
        "client_references WHERE deal_id = ?":
            {"index lookup ix_references_deal(deal_id"},
    }


@pytest.mark.parametrize("arity", [1, 10])
def test_presented_names_probe_the_primary_key(system, accesses, arity):
    """Presentation names a result's activities with one statement; at
    any arity it probes ``deals``' primary key once per id, never scans
    (an id without a row — offboarded since it was ranked — is simply
    not in the answer)."""
    organized = system.organized
    present = organized.deal_ids()
    asked = (present + [f"deal-gone-{i}" for i in range(arity)])[:arity]
    names = organized.deal_names(asked)
    assert names == {
        deal_id: organized.deal_row(deal_id)["name"]
        for deal_id in asked if deal_id in present
    }
    placeholders = ", ".join("?" * arity)
    assert accesses[
        f"SELECT deal_id, name FROM deals WHERE deal_id IN ({placeholders})"
    ] == {"index lookup pk_deals(deal_id"}
