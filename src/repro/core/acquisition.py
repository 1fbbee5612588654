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
from repro.obs import get_registry, get_tracer
from repro.search.crawler import Crawler, CrawlReport
from repro.search.engine import SearchEngine

__all__ = ["DataAcquisition"]


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
        metrics = get_registry()
        metrics.inc("acquisition.documents_indexed", report.indexed)
        metrics.inc("acquisition.documents_skipped", report.skipped)
        metrics.inc("acquisition.sources_aborted", report.sources_aborted)
        metrics.set_gauge("index.documents", len(self.engine))
        span.set_attribute("indexed", report.indexed)
        return report
