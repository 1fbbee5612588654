"""Regex-based annotators (Table 1, row 1).

"Simple; easy to implement" but with "limited expressiveness": these
annotators match surface patterns — email addresses, phone numbers,
contract-value bands, ISO dates — and attach normalized feature values.
Domain knowledge can be folded into the patterns (Table 1's suggested
improvement), which :func:`build_contact_annotator` demonstrates by
rejecting phone-like strings with implausible digit counts via the
normalizer.
"""

from __future__ import annotations

import re
from typing import Callable, Dict, Optional, Pattern, Sequence

from repro.annotators.base import EilAnnotator
from repro.text.normalize import normalize_email, normalize_phone
from repro.uima.cas import Cas

__all__ = [
    "RegexRule",
    "RegexAnnotator",
    "EMAIL_PATTERN",
    "PHONE_PATTERN",
    "MONEY_BAND_PATTERN",
    "ISO_DATE_PATTERN",
    "build_contact_annotator",
]

EMAIL_PATTERN = re.compile(
    r"\b[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}\b"
)
# Every phone number starts with "+", a digit or "(": the lookahead
# rejects any other position with one class test.
PHONE_PATTERN = re.compile(
    r"(?=[+\d(])"
    r"(?:\+?\d{1,2}[-\s.])?(?:\(\d{3}\)\s?|\d{3}[-\s.])\d{3}[-\s.]\d{4}"
)
MONEY_BAND_PATTERN = re.compile(
    r"\b(?:under|over)\s+\d+M\b|\b\d+\s+to\s+\d+M\b", re.IGNORECASE
)
ISO_DATE_PATTERN = re.compile(r"\b\d{4}-\d{2}-\d{2}\b")

# Feature factory: match -> feature dict, or None to reject the match.
FeatureFactory = Callable[[re.Match], Optional[Dict[str, object]]]


class RegexRule:
    """One pattern -> annotation-type rule.

    Args:
        type_name: Annotation type to emit.
        pattern: Compiled regular expression.
        features: Factory turning a match into feature values; returning
            None vetoes the match (domain-knowledge filtering).
    """

    def __init__(
        self,
        type_name: str,
        pattern: Pattern[str],
        features: Optional[FeatureFactory] = None,
    ) -> None:
        self.type_name = type_name
        self.pattern = pattern
        self.features = features or (lambda match: {})


class RegexAnnotator(EilAnnotator):
    """Applies a list of :class:`RegexRule` to the CAS text."""

    def __init__(self, rules: Sequence[RegexRule], name: str = "regex"):
        self.rules = list(rules)
        self.name = name

    def process(self, cas: Cas) -> None:
        for rule in self.rules:
            for match in rule.pattern.finditer(cas.text):
                features = rule.features(match)
                if features is None:
                    continue
                cas.annotate(
                    rule.type_name, match.start(), match.end(), **features
                )


def _email_features(match: re.Match) -> Dict[str, object]:
    return {"address": normalize_email(match.group(0))}


def _phone_features(match: re.Match) -> Optional[Dict[str, object]]:
    normalized = normalize_phone(match.group(0))
    if normalized is None:
        return None
    return {"number": normalized}


def _money_features(match: re.Match) -> Dict[str, object]:
    return {"band": match.group(0)}


def _date_features(match: re.Match) -> Dict[str, object]:
    return {"iso": match.group(0)}


def build_contact_annotator() -> RegexAnnotator:
    """The standard contact-detail annotator: emails, phones, money, dates."""
    return RegexAnnotator(
        [
            RegexRule("eil.Email", EMAIL_PATTERN, _email_features),
            RegexRule("eil.Phone", PHONE_PATTERN, _phone_features),
            RegexRule("eil.Money", MONEY_BAND_PATTERN, _money_features),
            RegexRule("eil.Date", ISO_DATE_PATTERN, _date_features),
        ],
        name="contact-details",
    )
