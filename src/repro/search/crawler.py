"""Data-acquisition crawler: walks document sources into the index.

The paper's offline pipeline starts with "Data Acquisition" components
that crawl various data repositories.  The crawler here is source-
agnostic: anything iterable over :class:`IndexableDocument` can be
crawled, and the engagement-workbook repositories in
:mod:`repro.docmodel` implement that protocol.

Fault tolerance (docs/OPERATIONS.md): each per-document fetch passes a
keyed ``crawler`` fault-point check and is retried under the crawler's
:class:`~repro.faults.RetryPolicy`; a document that keeps failing is
skipped and recorded, never fatal.  A :class:`TransientError` raised by
the *source iterator itself* (the ``repository`` fault point) aborts
that source — generators cannot be resumed — which the report records
in ``sources_aborted``; the crawl over the remaining sources continues.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Protocol

from repro.errors import SearchError, TransientError
from repro.faults import RetryPolicy, get_injector
from repro.obs import CounterHandle
from repro.search.document import IndexableDocument
from repro.search.engine import SearchEngine

__all__ = ["DocumentSource", "CrawlReport", "Crawler"]

_SKIPPED_TRANSIENT = CounterHandle("crawler.documents_skipped_transient")
_SOURCES_ABORTED = CounterHandle("crawler.sources_aborted")


class DocumentSource(Protocol):
    """Anything the crawler can pull documents from."""

    def iter_documents(self) -> Iterable[IndexableDocument]:
        """Yield the source's documents."""
        ...


@dataclass
class CrawlReport:
    """Outcome of one crawl.

    Attributes:
        indexed: Documents successfully indexed.
        skipped: Documents rejected (already indexed, malformed) or
            persistently failing their fetch.
        sources_aborted: Sources whose iterator died mid-crawl (a
            repository outage); their remaining documents were never
            seen.
        errors: Human-readable reasons for each skip or abort.
    """

    indexed: int = 0
    skipped: int = 0
    sources_aborted: int = 0
    errors: List[str] = field(default_factory=list)


class Crawler:
    """Feeds document sources into a search engine.

    Args:
        engine: The index to feed.
        retry: Retry policy for transient per-document fetch failures
            (defaults to 3 quick attempts).
    """

    def __init__(
        self, engine: SearchEngine, retry: Optional[RetryPolicy] = None
    ) -> None:
        self.engine = engine
        self.retry = retry or RetryPolicy()

    def _fetch_one(self, document: IndexableDocument) -> None:
        """One fetch+index attempt, preceded by the fault-point check."""
        get_injector().check("crawler", key=document.doc_id)
        self.engine.add(document)

    def crawl(self, source: DocumentSource) -> CrawlReport:
        """Crawl one source; per-document failures are skipped, not fatal.

        A crawl over enterprise repositories must be resilient: one bad
        workbook must not abort the nightly rebuild, so per-document
        failures are recorded in the report instead of raised, and
        transient fetch errors are retried before being recorded.
        """
        report = CrawlReport()
        try:
            for document in source.iter_documents():
                try:
                    self.retry.call(self._fetch_one, document)
                except SearchError as exc:
                    report.skipped += 1
                    report.errors.append(str(exc))
                except TransientError as exc:
                    report.skipped += 1
                    _SKIPPED_TRANSIENT.inc()
                    report.errors.append(
                        f"doc {document.doc_id}: "
                        f"{type(exc).__name__}: {exc}"
                    )
                else:
                    report.indexed += 1
        except TransientError as exc:
            # The source iterator itself failed (repository outage):
            # the generator is dead, so the rest of this source is lost.
            report.sources_aborted += 1
            _SOURCES_ABORTED.inc()
            report.errors.append(
                f"source aborted after {report.indexed} documents: "
                f"{type(exc).__name__}: {exc}"
            )
        return report

    def crawl_all(self, sources: Iterable[DocumentSource]) -> CrawlReport:
        """Crawl several sources into one combined report."""
        combined = CrawlReport()
        for source in sources:
            report = self.crawl(source)
            combined.indexed += report.indexed
            combined.skipped += report.skipped
            combined.sources_aborted += report.sources_aborted
            combined.errors.extend(report.errors)
        return combined
