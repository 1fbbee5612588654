"""String-similarity measures for annotation de-duplication.

Paper Fig. 3 step 10 de-duplicates social-networking annotations across a
business activity; the corpus contains the same person with typos and
order variants, so exact matching is not enough.  The de-duplication
path compares names by Jaro-Winkler.
"""

from __future__ import annotations

__all__ = ["jaro", "jaro_winkler"]


def jaro(a: str, b: str) -> float:
    """Jaro similarity in [0, 1]."""
    if a == b:
        return 1.0
    la, lb = len(a), len(b)
    if la == 0 or lb == 0:
        return 0.0
    window = max(la, lb) // 2 - 1
    window = max(window, 0)
    a_matched = [False] * la
    b_matched = [False] * lb
    matches = 0
    for i, ch in enumerate(a):
        lo = max(0, i - window)
        hi = min(lb, i + window + 1)
        for j in range(lo, hi):
            if not b_matched[j] and b[j] == ch:
                a_matched[i] = True
                b_matched[j] = True
                matches += 1
                break
    if matches == 0:
        return 0.0
    transpositions = 0
    j = 0
    for i in range(la):
        if a_matched[i]:
            while not b_matched[j]:
                j += 1
            if a[i] != b[j]:
                transpositions += 1
            j += 1
    transpositions //= 2
    return (
        matches / la + matches / lb + (matches - transpositions) / matches
    ) / 3.0


def jaro_winkler(a: str, b: str, prefix_scale: float = 0.1) -> float:
    """Jaro-Winkler similarity: Jaro boosted for shared prefixes.

    ``prefix_scale`` must be in [0, 0.25] to keep the result in [0, 1].
    """
    if not 0.0 <= prefix_scale <= 0.25:
        raise ValueError("prefix_scale must be in [0, 0.25]")
    base = jaro(a, b)
    prefix = 0
    for ca, cb in zip(a[:4], b[:4]):
        if ca != cb:
            break
        prefix += 1
    return base + prefix * prefix_scale * (1.0 - base)
