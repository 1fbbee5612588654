"""The classifier of Table 1, row 4.

A multinomial Naive Bayes text classifier, built from scratch, for
"complex and abstract concepts" simple patterns cannot capture — e.g.
whether a section of prose is a win-strategy discussion.  As Table 1
notes, quality is "highly dependent on the training data set"; the
classifier therefore exposes its class priors so callers can
sanity-check what it learned.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from typing import Dict, Iterable, Optional, Tuple

from repro.errors import AnnotatorError
from repro.search.analyzer import Analyzer

__all__ = ["NaiveBayesClassifier"]


class NaiveBayesClassifier:
    """Multinomial Naive Bayes with add-one smoothing.

    Tokens come from the shared search analyzer (stemmed, stopped) so
    the classifier generalizes across inflection ("pricing"/"price").
    """

    def __init__(self, analyzer: Optional[Analyzer] = None) -> None:
        self._analyzer = analyzer or Analyzer()
        self._class_counts: Counter = Counter()
        self._term_counts: Dict[str, Counter] = defaultdict(Counter)
        self._class_totals: Counter = Counter()
        self._vocabulary: set = set()

    # -- training ------------------------------------------------------------

    def train(self, examples: Iterable[Tuple[str, str]]) -> None:
        """Add ``(text, label)`` examples; may be called repeatedly."""
        for text, label in examples:
            self._class_counts[label] += 1
            for term in self._analyzer.analyze_query_terms(text):
                self._term_counts[label][term] += 1
                self._class_totals[label] += 1
                self._vocabulary.add(term)

    def prior(self, label: str) -> float:
        """P(label) from training frequencies."""
        total = sum(self._class_counts.values())
        if total == 0:
            raise AnnotatorError("classifier has no training data")
        return self._class_counts[label] / total

    # -- prediction -----------------------------------------------------------

    def log_scores(self, text: str) -> Dict[str, float]:
        """Unnormalized log P(label | text) for every label."""
        if not self._class_counts:
            raise AnnotatorError("classifier has no training data")
        terms = self._analyzer.analyze_query_terms(text)
        vocab = max(len(self._vocabulary), 1)
        scores: Dict[str, float] = {}
        for label in self._class_counts:
            score = math.log(self.prior(label))
            denominator = self._class_totals[label] + vocab
            counts = self._term_counts[label]
            for term in terms:
                score += math.log((counts[term] + 1) / denominator)
            scores[label] = score
        return scores

    def predict(self, text: str) -> str:
        """Most probable label (ties broken lexicographically)."""
        scores = self.log_scores(text)
        return max(sorted(scores), key=lambda label: scores[label])
