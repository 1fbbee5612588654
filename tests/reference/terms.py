"""Reference term-dictionary patterns the trie compiler is held to.

:func:`alternation` is how every term dictionary compiled before
:func:`repro.text.terms.term_pattern`: the escaped terms sorted longest
first, joined into one alternation that the engine tries term by term
at every position.  :data:`PHONE_PATTERN` is the contact annotator's
phone pattern without its first-character lookahead.
"""

import re
from typing import Iterable

PHONE_PATTERN = re.compile(
    r"(?:\+?\d{1,2}[-\s.])?(?:\(\d{3}\)\s?|\d{3}[-\s.])\d{3}[-\s.]\d{4}"
)


def alternation(terms: Iterable[str], ignore_case: bool = False) -> str:
    """``(?:t1|t2|…)``, longest term first.

    ``ignore_case`` is accepted so that this can stand in for
    ``term_pattern``; an alternation needs no merging of case variants.
    """
    escaped = sorted((re.escape(t) for t in set(terms)), key=len, reverse=True)
    return "(?:" + "|".join(escaped) + ")"
