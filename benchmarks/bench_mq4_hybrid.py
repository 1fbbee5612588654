"""E8 — Figures 8-9 / Meta-query 4: concept + keyword hybrid search.

The paper's query: deals with the Storage Management Services tower
containing "data replication" anywhere in the workbook (Figure 8); the
result page lists activities first, each with its supporting documents
(Figure 9).  The shape: the SIAPI query runs scoped to the synopsis
matches, and the activity set matches the strict ground truth better
than the one-shot keyword conjunction.  The paper's first preference,
the keyword matched against the extracted technology-solution text
only (``in_synopsis=True``), is reported beside it.
"""

from repro.core import render_results, service_keyword_query
from repro.eval import evaluate_sets, run_mq4
from repro.security import User

USER = User("bench", frozenset({"sales"}))


def test_mq4_hybrid_query(benchmark, corpus_table2, eil_table2,
                          report_writer):
    report = benchmark.pedantic(
        run_mq4, args=(corpus_table2, eil_table2), rounds=1, iterations=1
    )
    eil_scores = evaluate_sets(set(report.eil_deals), report.truth_deals)
    keyword_scores = evaluate_sets(report.keyword_deals,
                                   report.truth_deals)
    results = eil_table2.search(
        service_keyword_query(report.service, report.keyword), USER
    )
    synopsis_deals = eil_table2.search(
        service_keyword_query(report.service, report.keyword,
                              in_synopsis=True), USER
    ).deal_ids
    synopsis_scores = evaluate_sets(set(synopsis_deals), report.truth_deals)
    lines = [
        "E8: Meta-query 4 - Storage Management Services + "
        '"data replication"',
        f"SIAPI scoped to synopsis matches : {report.eil_scoped}",
        f"truth deals                      : {sorted(report.truth_deals)}",
        f"EIL deals                        : {sorted(report.eil_deals)} "
        f"({eil_scores})",
        f"keyword one-shot deals           : "
        f"{sorted(report.keyword_deals)} ({keyword_scores})",
        f"keyword documents to read        : {report.keyword_docs}",
        f"EIL, keyword in synopsis text    : {sorted(synopsis_deals)} "
        f"({synopsis_scores})",
        "",
        "E8: Figure 9 - activity-first result layout",
        render_results(results),
    ]
    report_writer("E8_mq4", "\n".join(lines))

    # Shape: EIL runs scoped and at least matches the keyword baseline
    # on F while returning activities (not documents) as the unit.
    assert report.eil_scoped
    assert eil_scores.f_measure >= keyword_scores.f_measure
    assert report.truth_deals <= set(report.eil_deals)
