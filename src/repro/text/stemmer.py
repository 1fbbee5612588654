"""Porter stemming algorithm, implemented from the 1980 paper.

The search engine (the OmniFind substitute) stems indexed terms and query
terms with the same stemmer so that "services", "service" and "servicing"
collide in the index, mirroring the recall-oriented behaviour of the
keyword baseline in the paper.

Reference: M.F. Porter, "An algorithm for suffix stripping",
Program 14(3):130-137, 1980.  Step numbering below follows the paper.

A stem is a pure function of the word, and a corpus repeats a few
hundred words tens of thousands of times, so every stemmer shares one
word -> stem memo.
"""

from __future__ import annotations

import threading
from typing import Dict

__all__ = ["PorterStemmer"]

_VOWELS = "aeiou"

# The most distinct words the memo holds.  When it is full it is emptied
# rather than trimmed: no bookkeeping on a hit, and what is in use comes
# back at one miss per word.
_MEMO_LIMIT = 1 << 16
_MEMO: Dict[str, str] = {}
# Taken on a miss only (check-then-insert); a hit is one ``dict.get``.
_MEMO_LOCK = threading.Lock()


class PorterStemmer:
    """Porter stemmer; instances hold no state and share one memo.

    Usage::

        >>> PorterStemmer().stem("relational")
        'relat'
    """

    # ------------------------------------------------------------------
    # Measure and condition helpers.  A word is decomposed as
    # [C](VC){m}[V]; m is the "measure" used by the removal conditions.
    # ------------------------------------------------------------------

    @staticmethod
    def _is_consonant(word: str, i: int) -> bool:
        ch = word[i]
        if ch in _VOWELS:
            return False
        if ch == "y":
            return i == 0 or not PorterStemmer._is_consonant(word, i - 1)
        return True

    @classmethod
    def _measure(cls, stem: str) -> int:
        """Return m, the number of VC sequences in ``stem``."""
        m = 0
        i = 0
        n = len(stem)
        # Skip initial consonant run.
        while i < n and cls._is_consonant(stem, i):
            i += 1
        while i < n:
            # Vowel run.
            while i < n and not cls._is_consonant(stem, i):
                i += 1
            if i >= n:
                break
            m += 1
            # Consonant run.
            while i < n and cls._is_consonant(stem, i):
                i += 1
        return m

    @classmethod
    def _contains_vowel(cls, stem: str) -> bool:
        return any(not cls._is_consonant(stem, i) for i in range(len(stem)))

    @classmethod
    def _ends_double_consonant(cls, word: str) -> bool:
        return (
            len(word) >= 2
            and word[-1] == word[-2]
            and cls._is_consonant(word, len(word) - 1)
        )

    @classmethod
    def _ends_cvc(cls, word: str) -> bool:
        """True for consonant-vowel-consonant endings where the final
        consonant is not w, x or y (the *o condition in the paper)."""
        if len(word) < 3:
            return False
        return (
            cls._is_consonant(word, len(word) - 3)
            and not cls._is_consonant(word, len(word) - 2)
            and cls._is_consonant(word, len(word) - 1)
            and word[-1] not in "wxy"
        )

    # ------------------------------------------------------------------
    # Steps
    # ------------------------------------------------------------------

    def _step1a(self, word: str) -> str:
        if word.endswith("sses"):
            return word[:-2]
        if word.endswith("ies"):
            return word[:-2]
        if word.endswith("ss"):
            return word
        if word.endswith("s"):
            return word[:-1]
        return word

    def _step1b(self, word: str) -> str:
        if word.endswith("eed"):
            if self._measure(word[:-3]) > 0:
                return word[:-1]
            return word
        flag = False
        if word.endswith("ed") and self._contains_vowel(word[:-2]):
            word = word[:-2]
            flag = True
        elif word.endswith("ing") and self._contains_vowel(word[:-3]):
            word = word[:-3]
            flag = True
        if flag:
            if word.endswith(("at", "bl", "iz")):
                return word + "e"
            if self._ends_double_consonant(word) and word[-1] not in "lsz":
                return word[:-1]
            if self._measure(word) == 1 and self._ends_cvc(word):
                return word + "e"
        return word

    def _step1c(self, word: str) -> str:
        if word.endswith("y") and self._contains_vowel(word[:-1]):
            return word[:-1] + "i"
        return word

    _STEP2_SUFFIXES = (
        ("ational", "ate"), ("tional", "tion"), ("enci", "ence"),
        ("anci", "ance"), ("izer", "ize"), ("abli", "able"),
        ("alli", "al"), ("entli", "ent"), ("eli", "e"), ("ousli", "ous"),
        ("ization", "ize"), ("ation", "ate"), ("ator", "ate"),
        ("alism", "al"), ("iveness", "ive"), ("fulness", "ful"),
        ("ousness", "ous"), ("aliti", "al"), ("iviti", "ive"),
        ("biliti", "ble"),
    )

    _STEP3_SUFFIXES = (
        ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
        ("ical", "ic"), ("ful", ""), ("ness", ""),
    )

    _STEP4_SUFFIXES = (
        "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
        "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive",
        "ize",
    )

    def _step2(self, word: str) -> str:
        for suffix, replacement in self._STEP2_SUFFIXES:
            if word.endswith(suffix):
                stem = word[: -len(suffix)]
                if self._measure(stem) > 0:
                    return stem + replacement
                return word
        return word

    def _step3(self, word: str) -> str:
        for suffix, replacement in self._STEP3_SUFFIXES:
            if word.endswith(suffix):
                stem = word[: -len(suffix)]
                if self._measure(stem) > 0:
                    return stem + replacement
                return word
        return word

    def _step4(self, word: str) -> str:
        for suffix in self._STEP4_SUFFIXES:
            if word.endswith(suffix):
                stem = word[: -len(suffix)]
                if suffix == "ion" and (not stem or stem[-1] not in "st"):
                    continue
                if self._measure(stem) > 1:
                    return stem
                return word
        return word

    def _step5a(self, word: str) -> str:
        if word.endswith("e"):
            stem = word[:-1]
            m = self._measure(stem)
            if m > 1 or (m == 1 and not self._ends_cvc(stem)):
                return stem
        return word

    def _step5b(self, word: str) -> str:
        if (
            word.endswith("l")
            and self._ends_double_consonant(word)
            and self._measure(word) > 1
        ):
            return word[:-1]
        return word

    def stem(self, word: str) -> str:
        """Return the Porter stem of ``word`` (expects lower case)."""
        stemmed = _MEMO.get(word)
        if stemmed is not None:
            return stemmed
        stemmed = word
        if len(word) > 2:
            stemmed = self._step1a(stemmed)
            stemmed = self._step1b(stemmed)
            stemmed = self._step1c(stemmed)
            stemmed = self._step2(stemmed)
            stemmed = self._step3(stemmed)
            stemmed = self._step4(stemmed)
            stemmed = self._step5a(stemmed)
            stemmed = self._step5b(stemmed)
        with _MEMO_LOCK:
            if len(_MEMO) >= _MEMO_LIMIT:
                _MEMO.clear()
            _MEMO[word] = stemmed
        return stemmed

