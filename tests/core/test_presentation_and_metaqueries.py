"""Unit tests for renderers and meta-query builders."""

from repro.core import (
    ActivityResult,
    DealSynopsis,
    EilResults,
    render_deal_list,
    render_results,
    render_synopsis,
    role_capacity_query,
    scope_query,
    service_keyword_query,
    worked_with_query,
)
from repro.core.context import ContactView
from repro.search import SearchHit


def make_synopsis():
    return DealSynopsis(
        deal_id="d1",
        name="DEAL C",
        overview={
            "Deal name": "DEAL C",
            "Customer name": "C",
            "Industry": "Insurance",
            "Out Sourcing Consultant": "TPI",
            "Contract Term Start": "2006-01-05",
            "Term Duration (months)": "60",
            "Total Contract Value": "50 to 100M",
            "Is International?": "Y",
        },
        towers=["Customer Service Center", "Procurement Services"],
        people={
            "core deal team": [
                ContactView("Sam White", "Client Solution Executive",
                            "core deal team", "sam.white@abc.com",
                            "+1-914-555-0001", "ABC", True, True),
            ],
            "client team": [
                ContactView("Jane Doe", "Chief Information Officer",
                            "client team", "", "", "C", False, False),
            ],
        },
        win_strategies=["price to win"],
        client_references=["similar Insurance engagement"],
        technology_solutions=[
            {"term": "call routing", "tower": "Customer Service Center"},
        ],
    )


class TestRenderSynopsis:
    def test_figure6_fields_present(self):
        text = render_synopsis(make_synopsis())
        # The Figure 6 synopsis fields, as rendered.
        assert "Synopsis for DEAL C" in text
        assert "Customer name: C" in text
        assert "Out Sourcing Consultant: TPI" in text
        assert "Term Duration (months): 60" in text
        assert "Total Contract Value: 50 to 100M" in text
        assert "Is International?: Y" in text
        assert "Customer Service Center, Procurement Services" in text

    def test_people_grouped_by_category(self):
        text = render_synopsis(make_synopsis())
        assert "core deal team:" in text
        assert "client team:" in text
        assert "Sam White" in text

    def test_inactive_contact_flagged(self):
        text = render_synopsis(make_synopsis())
        assert "Jane Doe" in text
        assert "(no longer active)" in text

    def test_tabs_rendered(self):
        text = render_synopsis(make_synopsis())
        for tab in ("[Overview]", "[People]", "[Win Strategies]",
                    "[Client References]", "[Technology Solutions]"):
            assert tab in text


class TestRenderDealList:
    def test_figure5_shape(self):
        text = render_deal_list([make_synopsis()])
        assert text.startswith("DEAL C")
        # Towers ordered by significance, then context extras.
        assert "Customer Service Center, Procurement Services" in text
        assert "TPI" in text and "Insurance" in text

    def test_empty_scope_placeholder(self):
        synopsis = make_synopsis()
        synopsis.towers = []
        assert "(no extracted scope)" in render_deal_list([synopsis])


class TestRenderResults:
    def make_results(self, with_documents=True, withheld=False):
        hits = ()
        if with_documents:
            hits = (SearchHit(
                "doc1", 2.0,
                {"title": "Delay file", "body": "data replication"},
                snippet="data replication RTO lower than 48 hours",
            ),)
        activity = ActivityResult(
            deal_id="d1", name="DEAL A", score=0.8,
            synopsis_score=0.9, siapi_score=0.7,
            reasons=("tower=Storage Management Services",),
            documents=() if withheld else hits,
            documents_withheld=withheld and bool(hits),
        )
        return EilResults(activities=(activity,), scoped=True)

    def test_figure9_layout(self):
        text = render_results(self.make_results())
        assert "DEAL A" in text
        assert "%" in text  # normalized document score
        assert "Delay file" in text
        assert "data replication" in text

    def test_withheld_documents_notice(self):
        text = render_results(self.make_results(withheld=True))
        assert "withheld" in text
        assert "People tab" in text

    def test_empty(self):
        assert render_results(EilResults()) == (
            "No matching business activities."
        )

    def test_scores_normalized_to_best(self):
        text = render_results(self.make_results())
        assert "100.00%" in text  # single hit = the best hit


class TestMetaQueryBuilders:
    def test_scope_query(self):
        form = scope_query("End User Services")
        assert form.tower == "End User Services"
        assert not form.has_text_criteria()

    def test_worked_with_query(self):
        form = worked_with_query("Sam White", "ABC")
        assert form.person_name == "Sam White"
        assert form.organization == "ABC"

    def test_role_capacity_query(self):
        assert role_capacity_query("cross tower TSA").role == (
            "cross tower TSA"
        )

    def test_service_keyword_query_ewb(self):
        form = service_keyword_query("WAN", "MPLS routing")
        assert form.tower == "WAN"
        assert form.exact_phrase == "MPLS routing"
        assert form.search_in == "ewb"
        assert form.to_siapi_query() is not None

    def test_service_keyword_query_synopsis(self):
        form = service_keyword_query("WAN", "MPLS routing",
                                     in_synopsis=True)
        assert form.search_in == "synopsis"
        assert form.to_siapi_query() is None


class TestFormQueryDescribe:
    """The Figure 8 footer: a natural-language echo of the form."""

    def test_figure8_example(self):
        from repro.core import FormQuery

        form = FormQuery(tower="Storage Management Services",
                         exact_phrase="data replication")
        text = form.describe()
        assert text == (
            "Find deals with Storage Management Services tower; "
            'contain "data replication" anywhere in EWB'
        )

    def test_people_criteria(self):
        from repro.core import FormQuery

        form = FormQuery(person_name="Sam White", organization="ABC",
                         role="CSE")
        assert form.describe() == (
            "Find deals involving Sam White of ABC as CSE"
        )

    def test_synopsis_scope_wording(self):
        from repro.core import FormQuery

        form = FormQuery(all_words="replication", search_in="synopsis")
        assert "in the deal synopsis" in form.describe()

    def test_empty_form(self):
        from repro.core import FormQuery

        assert FormQuery().describe() == "Find all deals"
