"""Classifier-based annotator (Table 1, row 4).

A multinomial Naive Bayes text classifier, built from scratch, that
annotators use to capture "complex and abstract concepts" simple
patterns cannot — e.g. whether a section of prose is a win-strategy
discussion.  As Table 1 notes, quality is "highly dependent on the
training data set"; the classifier therefore exposes its labels and
class priors so callers can sanity-check what it learned.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from typing import Dict, Iterable, List, Optional, Tuple

from repro.annotators.base import EilAnnotator
from repro.errors import AnnotatorError
from repro.search.analyzer import Analyzer
from repro.uima.cas import Cas

__all__ = ["NaiveBayesClassifier", "SectionClassifierAnnotator"]


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

    @property
    def labels(self) -> List[str]:
        """Known class labels, sorted."""
        return sorted(self._class_counts)

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


class SectionClassifierAnnotator(EilAnnotator):
    """Annotates text sections the classifier assigns a target label.

    Runs the classifier over each ``doc.Section`` annotation (falling
    back to the whole document when no sections exist) and emits
    ``type_name`` annotations over sections predicted as
    ``positive_label``.
    """

    def __init__(
        self,
        classifier: NaiveBayesClassifier,
        positive_label: str,
        type_name: str = "eil.WinStrategy",
        feature_name: str = "text",
        name: str = "section-classifier",
    ) -> None:
        self.classifier = classifier
        self.positive_label = positive_label
        self.type_name = type_name
        self.feature_name = feature_name
        self.name = name

    def process(self, cas: Cas) -> None:
        sections = cas.select("doc.Section") if (
            "doc.Section" in cas.type_system
        ) else []
        spans = (
            [(s.begin, s.end) for s in sections]
            if sections
            else [(0, len(cas.text))]
        )
        for begin, end in spans:
            text = cas.text[begin:end]
            if not text.strip():
                continue
            if self.classifier.predict(text) == self.positive_label:
                cas.annotate(
                    self.type_name, begin, end,
                    **{self.feature_name: text.strip()},
                )
