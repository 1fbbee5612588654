"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``demo``    — build a small system and run the four meta-queries.
* ``search``  — build (or load) a system and run one form query.
* ``study``   — reproduce the Section 2 email study.
* ``build``   — run the offline pipeline and save the organized
  information to a JSON snapshot.
* ``synopsis`` — print one deal's synopsis by name or id.
* ``stats``   — build + query with a fresh metrics registry and print
  the per-stage observability report (offline and online pipelines).
* ``serve``   — closed-loop serving demo: N concurrent client threads
  drive the query mix through :class:`~repro.serving.EILServer`
  (admission control, deadlines, shedding) and the ``serving.*``
  metrics snapshot is printed at the end.
* ``persist`` — run the offline pipeline once and save the whole
  system (segment index + synopsis database + manifest) to a
  directory for cold starts.
* ``graph``   — entity-graph people & role search: ``--worked-with``
  / ``--role`` / ``--expertise`` / ``--overlap`` traversals over
  :class:`~repro.graph.EntityGraph`, or ``--graph-stats`` for
  node/edge counts.  See docs/QUERIES.md for the cookbook.

``stats``, ``serve`` and ``graph`` accept ``--index-dir`` to cold-start
from a ``persist`` directory instead of rebuilding — the corpus flags
must
match the ones the index was persisted with (the synthetic corpus
still supplies the taxonomy and workbook collection).

The CLI always works on the synthetic corpus (seeded, so results are
reproducible); flags control scale and the query.

Fault drills: ``--fault-profile`` arms the deterministic fault injector
for the whole command (e.g. ``--fault-profile db:error=0.2 stats``), so
the degradation ladder and quarantine paths can be exercised — and CI
can smoke them — without any real outage.  ``--fault-seed`` varies the
injected decisions while keeping them reproducible; see
docs/OPERATIONS.md for the drill recipes.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import threading
import time
from typing import List, Optional

from repro import obs
from repro.core.eil import EILSystem
from repro.core.facets import FacetService
from repro.core.metaqueries import (
    GraphQuery,
    graph_worked_with_query,
    role_capacity_query,
    scope_query,
    service_keyword_query,
    worked_with_query,
)
from repro.core.presentation import (
    render_deal_list,
    render_results,
    render_synopsis,
)
from repro.core.query_analyzer import FormQuery
from repro.corpus.generator import CorpusConfig, CorpusGenerator
from repro.db.persistence import dump_database
from repro.errors import EILUnavailableError, StorageError, TransientError
from repro.eval.study import MetaQueryClassifier
from repro.faults import FaultInjector, FaultProfile, use_injector
from repro.security.access import User
from repro.serving import EILServer

__all__ = ["main", "build_parser"]

_BASELINE_UNAVAILABLE = obs.CounterHandle("query.baseline_unavailable")

_USER = User("cli", frozenset({"sales"}))


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="EIL: business-activity driven enterprise search "
                    "(ICDE 2008 reproduction)",
    )
    parser.add_argument("--seed", type=int, default=2008,
                        help="corpus seed (default: 2008)")
    parser.add_argument("--deals", type=int, default=8,
                        help="number of deals to generate (default: 8)")
    parser.add_argument("--docs", type=int, default=30,
                        help="documents per deal (default: 30)")
    parser.add_argument("--workers", type=int, default=None,
                        help="workers for the offline parse+annotate "
                             "stage (default: 1 or $REPRO_WORKERS; "
                             "serial at 1; any width yields identical "
                             "results)")
    parser.add_argument("--executor", default=None,
                        choices=["serial", "processes"],
                        help="offline execution mode (default: "
                             "processes, which shards the corpus by "
                             "deal across --workers worker processes "
                             "and is serial at 1); 'serial' keeps the "
                             "build on one thread at any width — "
                             "results are identical under both")
    parser.add_argument("--fault-profile", default="",
                        help="arm the fault injector, e.g. "
                             "'db:error=0.2;index:latency=0.05' "
                             "(components: repository, crawler, "
                             "analysis, db, index)")
    parser.add_argument("--fault-seed", type=int, default=0,
                        help="seed for injected fault decisions "
                             "(default: 0)")
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("demo", help="run the four meta-queries")

    search = commands.add_parser("search", help="run one form query")
    search.add_argument("--tower", default="", help="service concept")
    search.add_argument("--industry", default="")
    search.add_argument("--person", default="", help="contact name")
    search.add_argument("--organization", default="")
    search.add_argument("--role", default="")
    search.add_argument("--text", default="",
                        help='keyword criteria ("all of these words")')
    search.add_argument("--phrase", default="", help="exact phrase")
    search.add_argument("--limit", type=int, default=None)
    search.add_argument("--facets", action="store_true",
                        help="print facet counts for the result set")

    study = commands.add_parser("study",
                                help="reproduce the Section 2 study")
    study.add_argument("--threads", type=int, default=120)

    build = commands.add_parser(
        "build", help="run the offline pipeline, save a DB snapshot"
    )
    build.add_argument("output", help="snapshot path (JSON)")

    synopsis = commands.add_parser("synopsis", help="print one synopsis")
    synopsis.add_argument("deal", help="deal name (DEAL A) or deal id")

    stats = commands.add_parser(
        "stats",
        help="build + query, then print per-stage observability stats",
    )
    stats.add_argument("--queries", type=int, default=3,
                       help="repetitions of the query workload "
                            "(default: 3)")
    stats.add_argument("--json", action="store_true", dest="as_json",
                       help="emit the raw metrics/trace JSON instead of "
                            "the text report")
    stats.add_argument("--index-dir", default=None,
                       help="cold-start from a 'persist' directory "
                            "instead of rebuilding the index")

    serve = commands.add_parser(
        "serve",
        help="closed-loop serving demo: concurrent clients through "
             "the EILServer front door",
    )
    serve.add_argument("--clients", type=int, default=4,
                       help="concurrent client threads (default: 4)")
    serve.add_argument("--requests", type=int, default=8,
                       help="requests per client (default: 8)")
    serve.add_argument("--concurrency", type=int, default=4,
                       help="requests the server executes at once "
                            "(default: 4)")
    serve.add_argument("--queue-depth", type=int, default=16,
                       help="requests allowed to wait beyond the "
                            "executing ones (default: 16)")
    serve.add_argument("--deadline", type=float, default=None,
                       help="per-request deadline in seconds (default: "
                            "none)")
    serve.add_argument("--json", action="store_true", dest="as_json",
                       help="emit the serving metrics as JSON")
    serve.add_argument("--index-dir", default=None,
                       help="cold-start from a 'persist' directory "
                            "instead of rebuilding the index")

    persist = commands.add_parser(
        "persist",
        help="run the offline pipeline and save the whole system "
             "(segment index + synopsis DB + manifest) for cold starts",
    )
    persist.add_argument("output", help="target directory")

    graph = commands.add_parser(
        "graph",
        help="entity-graph people & role search (see docs/QUERIES.md)",
    )
    traversal = graph.add_mutually_exclusive_group(required=True)
    traversal.add_argument("--worked-with", default=None,
                           metavar="PERSON", dest="worked_with",
                           help="who has worked with PERSON (name or "
                                "email) across deals")
    traversal.add_argument("--role", default=None,
                           help="who has worked in the capacity of "
                                "ROLE (canonicalized, filled roles "
                                "only)")
    traversal.add_argument("--expertise", default=None, metavar="TOPIC",
                           help="who knows TOPIC (technology term or "
                                "tower name, substring match)")
    traversal.add_argument("--overlap", default=None, metavar="PERSON",
                           help="PERSON's colleagues ranked by Jaccard "
                                "overlap of deal histories")
    traversal.add_argument("--graph-stats", action="store_true",
                           dest="graph_stats",
                           help="print node/edge counts by kind "
                                "instead of running a traversal")
    graph.add_argument("--limit", type=int, default=None,
                       help="cap on returned people (default: all)")
    graph.add_argument("--json", action="store_true", dest="as_json",
                       help="emit the answer as JSON")
    graph.add_argument("--index-dir", default=None,
                       help="cold-start from a 'persist' directory "
                            "instead of rebuilding the index")

    return parser


def _make_system(args: argparse.Namespace) -> tuple:
    # Corpus generation is the synthetic world, not the system under
    # test: it must not absorb injected faults (the personnel
    # directory it fills is Database-backed), so it runs under a
    # no-op injector even when --fault-profile armed one.
    with use_injector(FaultInjector()):
        corpus = CorpusGenerator(
            CorpusConfig(seed=args.seed, n_deals=args.deals,
                         docs_per_deal=args.docs)
        ).generate()
    index_dir = getattr(args, "index_dir", None)
    if index_dir:
        # Cold start: segments + synopsis DB come off disk.
        return corpus, EILSystem.load(index_dir, corpus)
    return corpus, EILSystem.build(corpus, workers=args.workers,
                                   executor=args.executor)


def _cmd_demo(args: argparse.Namespace) -> int:
    corpus, eil = _make_system(args)
    member = corpus.deals[0].team[0]
    queries = (
        ("MQ1  scope: End User Services",
         scope_query("End User Services")),
        (f"MQ2  worked with {member.person.full_name}",
         worked_with_query(member.person.full_name)),
        ("MQ3  role: cross tower TSA",
         role_capacity_query("cross tower TSA")),
        ('MQ4  Storage Management Services + "data replication"',
         service_keyword_query("Storage Management Services",
                               "data replication")),
    )
    for title, form in queries:
        print("=" * 60)
        print(title)
        print("=" * 60)
        print(render_results(eil.search(form, _USER)))
        print()
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    _, eil = _make_system(args)
    form = FormQuery(
        tower=args.tower,
        industry=args.industry,
        person_name=args.person,
        organization=args.organization,
        role=args.role,
        all_words=args.text,
        exact_phrase=args.phrase,
    )
    print(form.describe())
    results = eil.search(form, _USER, limit=args.limit)
    for step in results.plan:
        if "did you mean" in step:
            print(step)
    print(render_results(results))
    if args.facets and results.activities:
        facets = FacetService(eil.organized).facets(results.deal_ids)
        print("\nRefine by:")
        for name, values in facets.items():
            if values:
                preview = ", ".join(
                    f"{value} ({count})" for value, count in values[:4]
                )
                print(f"  {name}: {preview}")
    return 0


def _cmd_study(args: argparse.Namespace) -> int:
    corpus = CorpusGenerator(
        CorpusConfig(seed=args.seed, n_deals=args.deals,
                     docs_per_deal=args.docs, n_threads=args.threads)
    ).generate()
    report = MetaQueryClassifier().run_study(corpus.threads)
    print(f"threads: {report.total}")
    for meta_query in ("mq1", "mq2", "mq3", "mq4"):
        print(f"  {meta_query}: {report.type_counts.get(meta_query, 0)}"
              f" ({report.percentage(meta_query):.1f}%)")
    print(f"  social: {report.social_count} "
          f"({report.social_percentage():.1f}%)")
    print(f"  classifier/ground-truth agreement: "
          f"{report.label_accuracy:.0%}")
    return 0


def _cmd_build(args: argparse.Namespace) -> int:
    _, eil = _make_system(args)
    dump_database(eil.organized.db, args.output)
    report = eil.build_report
    print(f"indexed {report.documents_indexed} documents, populated "
          f"{report.deals_populated} deals; snapshot -> {args.output}")
    return 0


def _cmd_persist(args: argparse.Namespace) -> int:
    _, eil = _make_system(args)
    stats = eil.save_index(args.output)
    print(f"persisted {stats['docs']} documents in "
          f"{stats['segments']} segment(s), "
          f"{stats['bytes_per_doc']:.0f} bytes/doc -> {args.output}")
    return 0


def _render_people(people, header: str) -> None:
    print(header)
    if not people:
        print("  (nobody)")
        return
    for person in people:
        line = f"  {person.name}"
        if person.roles:
            line += f" — {', '.join(person.roles)}"
        print(line)
        deals = getattr(person, "deals", None)
        if deals is None:
            deals = person.shared_deals
        detail = f"    deals: {', '.join(deals)}"
        overlap = getattr(person, "overlap", 0.0)
        if overlap:
            detail += f"  overlap: {overlap:.2f}"
        print(detail)
        evidence = getattr(person, "evidence", None)
        if evidence:
            print(f"    via: {', '.join(evidence)}")
        print(f"    cites: {', '.join(person.provenance)}")


def _graph_query(args: argparse.Namespace) -> GraphQuery:
    if args.worked_with is not None:
        return GraphQuery("worked-with", args.worked_with, args.limit)
    if args.role is not None:
        return GraphQuery("role-capacity", args.role, args.limit)
    if args.expertise is not None:
        return GraphQuery("expertise", args.expertise, args.limit)
    return GraphQuery("team-overlap", args.overlap, args.limit)


def _cmd_graph(args: argparse.Namespace) -> int:
    query = None
    if not args.graph_stats:
        # Validated before the system is built: a bad --limit should
        # not cost an offline pipeline run.
        try:
            query = _graph_query(args)
        except ValueError as exc:
            print(f"repro graph: {exc}", file=sys.stderr)
            return 2
    _, eil = _make_system(args)
    if args.graph_stats:
        stats = eil.graph.stats()
        if args.as_json:
            print(json.dumps(stats, indent=2, sort_keys=True))
        else:
            print(f"deals: {stats['deals']}  nodes: {stats['nodes']}  "
                  f"edges: {stats['edges']}  epoch: {stats['epoch']}")
            for kind, count in stats["nodes_by_kind"].items():
                print(f"  node {kind}: {count}")
            for kind, count in stats["edges_by_kind"].items():
                print(f"  edge {kind}: {count}")
        return 0
    answer = eil.graph_query(query)
    if args.as_json:
        print(json.dumps(dataclasses.asdict(answer), indent=2,
                         sort_keys=True))
        return 0
    print(query.describe())
    if query.kind in ("worked-with", "team-overlap"):
        if not answer.persons:
            print(f"  no person matching {query.subject!r} in the "
                  f"graph")
            return 1
        if query.kind == "worked-with":
            print(f"  deals: {', '.join(answer.deals)}")
        _render_people(answer.colleagues, "  colleagues:")
    elif query.kind == "role-capacity":
        print(f"  canonical role: {answer.role}")
        _render_people(answer.people, "  people:")
    else:
        print(f"  matched: {', '.join(answer.matched) or '(nothing)'}")
        _render_people(answer.people, "  people:")
    return 0


def _cmd_synopsis(args: argparse.Namespace) -> int:
    _, eil = _make_system(args)
    wanted = args.deal.strip().lower()
    for deal_id in eil.deal_ids():
        synopsis = eil.synopsis(deal_id, _USER)
        if wanted in (deal_id.lower(), synopsis.name.lower()):
            print(render_synopsis(synopsis))
            return 0
    print(f"no deal named {args.deal!r}; known deals:", file=sys.stderr)
    synopses = [eil.synopsis(d, _USER) for d in eil.deal_ids()]
    print(render_deal_list(synopses), file=sys.stderr)
    return 1


def _stats_workload(eil: EILSystem, corpus, rounds: int) -> None:
    """A representative online mix: the four meta-queries + baseline."""
    member = corpus.deals[0].team[0]
    forms = (
        scope_query("End User Services"),
        worked_with_query(member.person.full_name),
        role_capacity_query("cross tower TSA"),
        service_keyword_query("Storage Management Services",
                              "data replication"),
    )
    for _ in range(max(1, rounds)):
        for form in forms:
            try:
                eil.search(form, _USER)
            except EILUnavailableError:
                # Both substrates down; already counted under
                # query.unavailable — the report should still print.
                pass
        # The graph traversal form of MQ2: reads only in-memory graph
        # state (no substrates), so it needs no fault handling and the
        # graph.* metrics always land in the report.
        eil.graph_query(
            graph_worked_with_query(member.person.full_name)
        )
        try:
            eil.keyword_search("end user services")
            # A limited OR query exercises the top-k executor: the
            # engine.maxscore.* counters and the engine.postings_touched
            # reduction show up in the stats report.
            eil.keyword_search(
                "migration OR replication OR services OR storage "
                "OR network",
                limit=5,
            )
            # A bare negation, as typed into the keyword box: every
            # document but the ones it names.
            eil.keyword_search("NOT services", limit=5)
        except TransientError:
            # The baseline has no degradation ladder (by design); a
            # persistent injected outage must not kill the stats run.
            _BASELINE_UNAVAILABLE.inc()


def _cmd_stats(args: argparse.Namespace) -> int:
    with obs.use_registry() as registry, obs.use_tracer() as tracer:
        corpus, eil = _make_system(args)
        _stats_workload(eil, corpus, args.queries)
        if args.as_json:
            print(json.dumps(obs.stats_dict(registry, tracer), indent=2))
        else:
            report = eil.build_report
            print(f"corpus: {args.deals} deals x {args.docs} docs "
                  f"({report.documents_indexed} documents indexed)")
            print()
            print(obs.render_stats(registry))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    with obs.use_registry() as registry:
        corpus, eil = _make_system(args)
        member = corpus.deals[0].team[0]
        forms = (
            scope_query("End User Services"),
            worked_with_query(member.person.full_name),
            role_capacity_query("cross tower TSA"),
            service_keyword_query("Storage Management Services",
                                  "data replication"),
        )

        def client(offset: int) -> None:
            for i in range(max(1, args.requests)):
                form = forms[(offset + i) % len(forms)]
                try:
                    server.search(form, _USER,
                                  deadline_seconds=args.deadline)
                except TransientError:
                    pass  # shed / deadline / open breaker: counted.
                except EILUnavailableError:
                    pass  # full outage under --fault-profile: counted.

        with EILServer(eil, max_concurrency=args.concurrency,
                       queue_depth=args.queue_depth) as server:
            started = time.perf_counter()
            threads = [
                threading.Thread(target=client, args=(n,),
                                 name=f"client-{n}")
                for n in range(max(1, args.clients))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            elapsed = time.perf_counter() - started

        serving = {
            name: value
            for name, value in registry.snapshot().items()
            if name.startswith("serving.")
        }
        # Answered requests: cache hits answered before admission plus
        # the admitted ones that completed.
        answered = sum(
            registry.counter(name).value
            for name in ("serving.answered_inline", "serving.completed")
        )
        qps = answered / elapsed if elapsed else 0.0
        if args.as_json:
            print(json.dumps({"elapsed_seconds": elapsed,
                              "sustained_qps": qps,
                              "metrics": serving}, indent=2))
            return 0
        print(f"clients: {args.clients} x {args.requests} requests, "
              f"server concurrency {args.concurrency} "
              f"(+{args.queue_depth} queued)")
        print(f"elapsed: {elapsed:.3f}s  sustained: {qps:.1f} q/s")
        latency = registry.histograms.get("serving.latency")
        if latency is not None and latency.count:
            print("latency: "
                  f"p50={latency.percentile(50) * 1000:.1f}ms  "
                  f"p95={latency.percentile(95) * 1000:.1f}ms  "
                  f"p99={latency.percentile(99) * 1000:.1f}ms")
        for name in sorted(serving):
            value = serving[name]
            if value.get("type") == "histogram":
                continue
            print(f"  {name}: {value.get('value', 0)}")
    return 0


_COMMANDS = {
    "demo": _cmd_demo,
    "search": _cmd_search,
    "study": _cmd_study,
    "build": _cmd_build,
    "synopsis": _cmd_synopsis,
    "stats": _cmd_stats,
    "serve": _cmd_serve,
    "persist": _cmd_persist,
    "graph": _cmd_graph,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    command = _COMMANDS[args.command]
    try:
        if args.fault_profile:
            injector = FaultInjector(
                FaultProfile.parse(args.fault_profile), seed=args.fault_seed
            )
            with use_injector(injector):
                return command(args)
        return command(args)
    except StorageError as exc:
        # A snapshot that will not load (missing, damaged, or from a
        # layout this version does not read) is the operator's to fix:
        # one line saying which file and why, not a traceback.
        print(f"repro: {exc}", file=sys.stderr)
        return 2
