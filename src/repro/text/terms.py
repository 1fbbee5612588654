"""Term dictionaries compiled to one regular expression: a trie that
spells shared prefixes once, behind a lookahead on the terms' first
characters, in place of the alternation ``t1|t2|…`` sorted longest
first, which the engine retried term by term at every character.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, List, Set, Tuple

__all__ = ["term_pattern"]


def term_pattern(terms: Iterable[str], ignore_case: bool = False) -> str:
    """Regex source (one group) matching what the longest-first
    alternation of ``terms`` (non-empty strings) matches.

    Every trie node tries its children before it ends a term, so a
    continuation the caller appends (``\\b``, ``[ \\t]*:``) that fails
    after one term backtracks to the next shorter one.  Set
    ``ignore_case`` when the caller compiles with ``re.IGNORECASE``:
    sibling characters ``re`` matches to one another (``k``, ``K``, the
    Kelvin sign) then share one branch, a character class, so at most
    one branch of a node matches.
    """
    words = sorted(set(terms))
    alphabet = "".join(sorted(set("".join(words))))
    # Each character -> the characters of the dictionary re matches to it.
    matches = {
        char: set(re.findall(re.escape(char), alphabet, re.IGNORECASE))
        for char in alphabet
    } if ignore_case else {char: {char} for char in alphabet}
    firsts = "".join(sorted({word[0] for word in words}))
    return "(?:(?=" + _char_class(firsts) + ")" + _trie(words, matches) + ")"


def _trie(words: List[str], matches: Dict[str, Set[str]]) -> str:
    if len(words) == 1:
        return re.escape(words[0])
    by_first: Dict[str, List[str]] = {}
    for word in words[1:] if words[0] == "" else words:
        by_first.setdefault(word[0], []).append(word[1:])
    branches: List[Tuple[str, List[str]]] = []
    for chars, rests in by_first.items():
        for other in [
            branch for branch in branches if any(
                char in matches[chars] or chars in matches[char]
                for char in branch[0]
            )
        ]:
            branches.remove(other)
            chars, rests = chars + other[0], rests + other[1]
        branches.append((chars, rests))
    body = "|".join(
        _char_class(chars) + _trie(sorted(set(rests)), matches)
        for chars, rests in branches
    )
    if words[0] == "":  # a term ends here: tried after every longer one
        return "(?:" + body + "|)"
    return body if len(branches) == 1 else "(?:" + body + ")"


def _char_class(chars: str) -> str:
    escaped = "".join(map(re.escape, chars))
    return escaped if len(chars) == 1 else "[" + escaped + "]"
