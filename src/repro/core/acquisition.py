"""Data Acquisition (paper Figure 2, leftmost offline component).

Crawls the engagement-workbook repositories into the semantic index
(the OmniFind substitute).  Kept as its own stage so the rebuild
cadence of the index can differ from the analysis pipeline's, as in the
paper's production deployment.
"""

from __future__ import annotations

from typing import Optional

from repro.docmodel.repository import WorkbookCollection
from repro.faults import RetryPolicy
from repro.obs import CounterHandle, GaugeHandle, get_tracer
from repro.search.crawler import Crawler, CrawlReport
from repro.search.engine import SearchEngine

__all__ = ["DataAcquisition"]

_DOCUMENTS_INDEXED = CounterHandle("acquisition.documents_indexed")
_DOCUMENTS_SKIPPED = CounterHandle("acquisition.documents_skipped")
_SOURCES_ABORTED = CounterHandle("acquisition.sources_aborted")
_INDEX_DOCUMENTS = GaugeHandle("index.documents")


class DataAcquisition:
    """Builds and maintains the semantic index over workbooks."""

    def __init__(
        self,
        engine: SearchEngine,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        self.engine = engine
        self._crawler = Crawler(engine, retry=retry)

    def acquire(self, collection: WorkbookCollection) -> CrawlReport:
        """Crawl every workbook in the collection into the index."""
        with get_tracer().span("offline.acquire") as span:
            report = self._crawler.crawl_all(iter(collection))
        _DOCUMENTS_INDEXED.inc(report.indexed)
        _DOCUMENTS_SKIPPED.inc(report.skipped)
        _SOURCES_ABORTED.inc(report.sources_aborted)
        _INDEX_DOCUMENTS.set(len(self.engine))
        span.set_attribute("indexed", report.indexed)
        return report
