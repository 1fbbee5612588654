"""The sorted-sample histogram, kept as the oracle for the buckets.

Every sample is kept, sorted, so ``percentile`` is the exact
nearest-rank value the production :class:`~repro.obs.Histogram` reads
from its log-linear buckets (within ``repro.obs.RELATIVE_ERROR``).
"""

from bisect import insort
from typing import List, Optional

__all__ = ["SortedHistogram"]


class SortedHistogram:
    """Exact totals and exact nearest-rank percentiles."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.sum = 0.0

    def observe(self, value: float) -> None:
        insort(self.samples, value)
        self.sum += value

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def min(self) -> Optional[float]:
        return self.samples[0] if self.samples else None

    @property
    def max(self) -> Optional[float]:
        return self.samples[-1] if self.samples else None

    def percentile(self, q: float) -> float:
        """The sample at nearest rank ``round(q / 100 * (n - 1))``."""
        if not self.samples:
            return 0.0
        last = len(self.samples) - 1
        return self.samples[max(0, min(last, round(q / 100.0 * last)))]
