"""Persistent storage bench: ``BENCH_storage.json``.

Measures the three promises of the segmented index store:

* **streaming build** — ``CorpusGenerator.iter_workbooks()`` feeds a
  directory-attached :class:`~repro.storage.SegmentBackedIndex` one
  workbook at a time, so a 100k+ document index builds in bounded
  memory (flushed segments spill to disk as they fill).  Records
  docs/sec, segment counts, and RSS before/after the loop — the
  "bounded" claim is the small RSS delta at large document counts.

* **bytes/doc vs the JSON baseline** — the segment files (delta-varint
  postings + docstore) against what a naive persistence layer would
  write: one JSON document of ``{doc_id: {fields, metadata}}`` plus the
  positional postings as JSON.  The bench asserts the segment format
  wins.

* **cold start vs rebuild** — wall-clock for ``EILSystem.load`` (read
  manifest + segments + synopsis DB) against ``EILSystem.build`` (full
  offline pipeline) over the same corpus, asserting rankings are
  bit-identical both at the engine level (streamed index) and the
  system level (form queries + keyword baseline).

Run standalone (CI smoke uses ``--smoke``)::

    PYTHONPATH=src python benchmarks/bench_storage.py [--smoke]

or under pytest, where it asserts the JSON is well-formed::

    PYTHONPATH=src python -m pytest benchmarks/bench_storage.py
"""

from __future__ import annotations

import argparse
import json
import pathlib
import resource
import shutil
import tempfile
import time
from typing import Dict, List

from repro import CorpusConfig, CorpusGenerator, EILSystem
from repro.core.acquisition import DataAcquisition
from repro.core.metaqueries import scope_query, service_keyword_query
from repro.docmodel.repository import WorkbookCollection
from repro.search.engine import SearchEngine
from repro.security.access import User
from repro.storage import SegmentBackedIndex

DEFAULT_OUT = pathlib.Path(__file__).resolve().parent.parent / (
    "BENCH_storage.json"
)
_USER = User("bench", frozenset({"sales"}))
_QUERIES = ["network migration", "help desk outsourcing", "security",
            "storage OR network OR services", '"status report"']


def _rss_mb() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return usage / 1024.0  # linux reports KiB


def _stream_build(deals: int, docs: int, seed: int,
                  directory: str) -> Dict[str, object]:
    """Stream-generate + index ``deals`` workbooks into ``directory``."""
    index = SegmentBackedIndex()
    index.directory = directory  # spill flushed segments immediately
    engine = SearchEngine(index=index, cache_size=0)
    rss_before = _rss_mb()
    generator = CorpusGenerator(
        CorpusConfig(seed=seed, n_deals=deals, docs_per_deal=docs)
    )
    started = time.perf_counter()
    indexed = 0
    for workbook in generator.iter_workbooks():
        report = DataAcquisition(engine).acquire(
            WorkbookCollection([workbook])
        )
        indexed += report.indexed
    build_seconds = time.perf_counter() - started
    started = time.perf_counter()
    stats = engine.save_index(directory)
    save_seconds = time.perf_counter() - started
    rankings = _engine_rankings(engine)
    return {
        "engine_rankings": rankings,
        "stats": stats,
        "result": {
            "deals": deals,
            "docs_per_deal": docs,
            "documents": indexed,
            "build_seconds": build_seconds,
            "docs_per_second": (
                indexed / build_seconds if build_seconds else 0.0
            ),
            "save_seconds": save_seconds,
            "segments": stats["segments"],
            "rss_before_mb": rss_before,
            "rss_after_mb": _rss_mb(),
        },
    }


def _engine_rankings(engine: SearchEngine) -> List[List[object]]:
    return [
        [[hit.doc_id, hit.score] for hit in engine.search(query, limit=10)]
        for query in _QUERIES
    ]


def _json_baseline_bytes(index: SegmentBackedIndex) -> int:
    """What naive JSON persistence of the same index would cost."""
    documents = {}
    for doc_id in index.doc_ids:
        document = index.document(doc_id)
        documents[doc_id] = {
            "fields": dict(document.fields),
            "metadata": dict(document.metadata),
        }
    postings = {
        field: {
            term: index.positions(term, field)
            for term in sorted(index.vocabulary(field))
        }
        for field in index.fields
    }
    return len(
        json.dumps({"documents": documents, "postings": postings})
        .encode("utf-8")
    )


def _system_rankings(eil: EILSystem, corpus) -> List[object]:
    keyword = [
        [[hit.doc_id, hit.score] for hit in eil.keyword_search(q, 10)]
        for q in _QUERIES
    ]
    forms = [
        scope_query("End User Services"),
        service_keyword_query("Storage Management Services",
                              "data replication"),
    ]
    activities = [
        [[a.deal_id, a.score] for a in eil.search(form, _USER).activities]
        for form in forms
    ]
    return [keyword, activities]


def run_bench(
    deals: int = 24,
    docs: int = 40,
    stream_deals: int = 1000,
    stream_docs: int = 100,
    seed: int = 2008,
    out_path: pathlib.Path = DEFAULT_OUT,
) -> Dict[str, object]:
    """Run all three measurements and write the JSON report."""
    workdir = pathlib.Path(tempfile.mkdtemp(prefix="bench_storage_"))
    try:
        # 1. Streaming engine-level build at scale (bounded memory).
        stream_dir = workdir / "stream"
        stream_dir.mkdir()
        streamed = _stream_build(stream_deals, stream_docs, seed,
                                 str(stream_dir))

        # Engine-level cold start over the streamed index.
        started = time.perf_counter()
        cold_engine = SearchEngine(cache_size=0)
        cold_engine.load_index(str(stream_dir))
        engine_load_seconds = time.perf_counter() - started
        engine_identical = (
            _engine_rankings(cold_engine) == streamed["engine_rankings"]
        )

        # 2. System-level rebuild vs cold start + bytes accounting.
        corpus = CorpusGenerator(
            CorpusConfig(seed=seed, n_deals=deals, docs_per_deal=docs)
        ).generate()
        started = time.perf_counter()
        built = EILSystem.build(corpus)
        rebuild_seconds = time.perf_counter() - started

        system_dir = workdir / "system"
        started = time.perf_counter()
        stats = built.save_index(str(system_dir))
        persist_seconds = time.perf_counter() - started

        started = time.perf_counter()
        loaded = EILSystem.load(str(system_dir), corpus)
        cold_start_seconds = time.perf_counter() - started
        system_identical = (
            _system_rankings(loaded, corpus)
            == _system_rankings(built, corpus)
        )

        json_bytes = _json_baseline_bytes(loaded.engine.index)
        documents = stats["docs"]
        json_bytes_per_doc = json_bytes / documents if documents else 0.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report: Dict[str, object] = {
        "bench": "storage",
        "schema_version": 1,
        "created_unix": time.time(),
        "corpus": {
            "seed": seed,
            "deals": deals,
            "docs_per_deal": docs,
            "stream_deals": stream_deals,
            "stream_docs_per_deal": stream_docs,
        },
        "streaming_build": streamed["result"],
        "engine_cold_start": {
            "load_seconds": engine_load_seconds,
            "build_seconds": streamed["result"]["build_seconds"],
            "speedup": (
                streamed["result"]["build_seconds"] / engine_load_seconds
                if engine_load_seconds else 0.0
            ),
            "rankings_identical": engine_identical,
        },
        "storage": {
            "documents": documents,
            "segments": stats["segments"],
            "size_bytes": stats["size_bytes"],
            "postings_bytes": stats["postings_bytes"],
            "docstore_bytes": stats["docstore_bytes"],
            "bytes_per_doc": stats["bytes_per_doc"],
            "json_baseline_bytes": json_bytes,
            "json_baseline_bytes_per_doc": json_bytes_per_doc,
            "ratio_vs_json": (
                stats["bytes_per_doc"] / json_bytes_per_doc
                if json_bytes_per_doc else 0.0
            ),
        },
        "cold_start": {
            "rebuild_seconds": rebuild_seconds,
            "persist_seconds": persist_seconds,
            "load_seconds": cold_start_seconds,
            "speedup": (
                rebuild_seconds / cold_start_seconds
                if cold_start_seconds else 0.0
            ),
            "rankings_identical": system_identical,
        },
    }
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    return report


def check_report(report: Dict[str, object]) -> None:
    """Schema + acceptance assertions shared by pytest and CI."""
    assert report["bench"] == "storage"
    assert report["schema_version"] == 1
    streaming = report["streaming_build"]
    assert streaming["documents"] > 0
    assert streaming["docs_per_second"] > 0
    assert streaming["segments"] >= 1
    storage = report["storage"]
    assert 0 < storage["bytes_per_doc"] < (
        storage["json_baseline_bytes_per_doc"]
    ), "segment format must beat the JSON baseline"
    assert report["engine_cold_start"]["rankings_identical"] is True
    cold = report["cold_start"]
    assert cold["rankings_identical"] is True
    assert cold["load_seconds"] > 0
    assert cold["speedup"] > 1.0, (
        "cold start must be faster than a rebuild"
    )


def test_bench_storage(report_writer):
    """Pytest entry: run a small bench and sanity-check the JSON."""
    report = run_bench(deals=5, docs=16, stream_deals=12, stream_docs=16)
    check_report(report)
    assert DEFAULT_OUT.exists()
    parsed = json.loads(DEFAULT_OUT.read_text())
    assert parsed["bench"] == "storage"
    streaming = report["streaming_build"]
    storage = report["storage"]
    cold = report["cold_start"]
    lines = [
        "E18: persistent segmented index storage",
        f"streaming build {streaming['documents']} docs in "
        f"{streaming['build_seconds']:.2f}s "
        f"({streaming['docs_per_second']:.0f} docs/s, "
        f"{streaming['segments']} segments, RSS "
        f"{streaming['rss_before_mb']:.0f} -> "
        f"{streaming['rss_after_mb']:.0f} MB)",
        f"{storage['bytes_per_doc']:.0f} bytes/doc vs JSON baseline "
        f"{storage['json_baseline_bytes_per_doc']:.0f} "
        f"({storage['ratio_vs_json']:.2f}x)",
        f"cold start {cold['load_seconds']:.2f}s vs rebuild "
        f"{cold['rebuild_seconds']:.2f}s "
        f"(speedup {cold['speedup']:.1f}x, identical rankings: "
        f"{cold['rankings_identical']})",
    ]
    report_writer("E18_storage", "\n".join(lines))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--deals", type=int, default=24)
    parser.add_argument("--docs", type=int, default=40)
    parser.add_argument("--stream-deals", type=int, default=1000)
    parser.add_argument("--stream-docs", type=int, default=100)
    parser.add_argument("--seed", type=int, default=2008)
    parser.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUT)
    parser.add_argument("--smoke", action="store_true",
                        help="small scales for CI")
    args = parser.parse_args()
    if args.smoke:
        args.deals, args.docs = 5, 16
        args.stream_deals, args.stream_docs = 12, 16
    report = run_bench(args.deals, args.docs, args.stream_deals,
                       args.stream_docs, args.seed, args.out)
    check_report(report)
    streaming = report["streaming_build"]
    storage = report["storage"]
    cold = report["cold_start"]
    engine_cold = report["engine_cold_start"]
    print(f"wrote {args.out}")
    print(f"streaming build : {streaming['documents']} docs in "
          f"{streaming['build_seconds']:.2f}s "
          f"({streaming['docs_per_second']:.0f} docs/s, "
          f"{streaming['segments']} segments)")
    print(f"memory          : RSS {streaming['rss_before_mb']:.0f} MB -> "
          f"{streaming['rss_after_mb']:.0f} MB")
    print(f"engine cold load: {engine_cold['load_seconds']:.2f}s "
          f"(vs {engine_cold['build_seconds']:.2f}s build, "
          f"{engine_cold['speedup']:.1f}x, identical: "
          f"{engine_cold['rankings_identical']})")
    print(f"bytes/doc       : {storage['bytes_per_doc']:.0f} vs JSON "
          f"{storage['json_baseline_bytes_per_doc']:.0f} "
          f"({storage['ratio_vs_json']:.2f}x)")
    print(f"system cold     : {cold['load_seconds']:.2f}s vs rebuild "
          f"{cold['rebuild_seconds']:.2f}s "
          f"(speedup {cold['speedup']:.1f}x, identical: "
          f"{cold['rankings_identical']})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
