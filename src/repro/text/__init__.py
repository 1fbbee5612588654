"""Text-processing substrate: stemming, stopwords, normalization,
string similarity.

These primitives are shared by the search engine (the OmniFind
substitute) and the annotators.  Everything is pure Python and
deterministic.
"""

from repro.text.normalize import (
    ROLE_SYNONYMS,
    name_key,
    normalize_email,
    normalize_person_name,
    normalize_phone,
    normalize_role,
    normalize_whitespace,
    person_from_email,
)
from repro.text.similarity import jaro, jaro_winkler
from repro.text.stemmer import PorterStemmer
from repro.text.stopwords import STOPWORDS

__all__ = [
    "ROLE_SYNONYMS",
    "name_key",
    "normalize_email",
    "normalize_person_name",
    "normalize_phone",
    "normalize_role",
    "normalize_whitespace",
    "person_from_email",
    "jaro",
    "jaro_winkler",
    "PorterStemmer",
    "STOPWORDS",
]
