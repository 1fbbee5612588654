"""Operation lists: pure functions of ``(seed, corpus, scale)``.

Nothing here touches a built system.  An :class:`Op` holds only plain
data, so two lists can be compared byte for byte (:func:`encode`), and
the runner turns each into a call once, before any timing.

Which operations a pass holds, and in which order they follow each
other, is decided by the corpus alone.  Passes repeat, so the list is a
cycle; the seed decides where in the cycle a pass starts (and, on
``form_hot``, the draws).  Any freer use of the seed moved the metrics
by more than the machine does from run to run, and the driver reads a
difference between seeds as noise (README, "What the seed decides").

Where a workload is meant to miss a cache, every operation of a pass is
distinct *and* every operation that reaches the search engine has its
own text criterion: the query cache keys on the whole form, the engine
cache on the parsed text query plus the scope, so distinct text is the
only thing that makes both keys distinct whatever the scope resolves
to.  One pass then holds more keys than either LRU cache and cycles
them in a fixed order, which pins the hit ratio at exactly 0.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.corpus.deals import DealSpec
from repro.corpus.generator import Corpus
from repro.search.analyzer import Analyzer

from benchmarks.harness.corpora import Scale

__all__ = ["Op", "WorkloadError", "Vocabulary", "encode", "form_cold",
           "form_hot", "analytics", "reader_forms", "rotated",
           "FORM_COLD_MIX", "LIMIT"]

#: Result limit of every form, keyword and graph operation.
LIMIT = 10

#: Share of each class in one ``form_cold`` pass.  No share is 5 %: a
#: class boundary sitting on the 95th percentile would let p95 flip
#: between two classes from run to run.
FORM_COLD_MIX = (
    ("mq1_scope", 0.15),
    ("mq2_person", 0.15),
    ("mq3_role", 0.10),
    ("mq4_hybrid", 0.25),
    ("keyword_and", 0.15),
    ("keyword_or", 0.10),
    ("any_words", 0.10),
)

_ROLLUP_SQL = (
    "SELECT d.industry, count(*) n, sum(s.weight) total FROM deals d "
    "JOIN deal_scopes s ON s.deal_id = d.deal_id "
    "GROUP BY d.industry ORDER BY total DESC"
)
_ROLE_TOPK_SQL = (
    "SELECT c.role, count(*) n FROM contacts c "
    "JOIN deals d ON d.deal_id = c.deal_id WHERE d.industry = ? "
    "GROUP BY c.role ORDER BY n DESC LIMIT 5"
)
_POINT_JOIN_SQL = (
    "SELECT d.name, s.tower, s.weight FROM deals d "
    "JOIN deal_scopes s ON s.deal_id = d.deal_id WHERE d.deal_id = ?"
)


class WorkloadError(Exception):
    """The corpus is too small to give the operations asked for."""


@dataclass(frozen=True)
class Op:
    """One operation.

    Attributes:
        kind: Class name, e.g. ``mq4_hybrid`` or ``graph.expertise``.
        target: What runs it: ``search`` (a form), ``keyword``,
            ``graph``, ``synopsis`` or ``sql``.
        payload: The arguments as (name, value) pairs: form fields, the
            query string, the graph subject, the SQL text and parameters.
        expect: A deal id the answer must hold unless it is cut at
            ``LIMIT``, ``"*"`` for any non-empty answer, or ``""`` for
            no expectation.
    """

    kind: str
    target: str
    payload: Tuple[Tuple[str, object], ...]
    expect: str = ""

    @property
    def key(self) -> Tuple[str, Tuple[Tuple[str, object], ...]]:
        """Identity for the distinctness the cache pins rest on."""
        return (self.target, self.payload)


def encode(ops: Sequence[Op]) -> bytes:
    """Canonical bytes of an operation list."""
    return json.dumps([asdict(op) for op in ops], sort_keys=True).encode()


class Vocabulary:
    """The query words each document offers, and how common each is.

    Words are counted as the index counts them, by analyzed term: the
    surface word "solutions" is in 20 documents, its stem in hundreds,
    and it is the stem a query matches.
    """

    def __init__(self, corpus: Corpus) -> None:
        analyze = Analyzer().analyze
        #: deal id -> per document, [(term, a surface word for it)]
        self.doc_words: Dict[str, List[List[Tuple[str, str]]]] = {}
        frequency: Counter = Counter()
        documents = 0
        for document in corpus.collection.iter_documents():
            text = document.text
            surfaces: Dict[str, str] = {}
            for term in analyze(text):
                surface = text[term.start:term.end].lower()
                if len(surface) >= 5 and surface.isalpha():
                    surfaces.setdefault(term.term, surface)
            frequency.update(surfaces.keys())
            documents += 1
            self.doc_words.setdefault(
                document.metadata["deal_id"], []
            ).append(sorted(surfaces.items()))
        self.frequency = frequency
        self.documents = documents

    def words(self, rng: random.Random, deal_id: str, count: int,
              max_share: float) -> Optional[List[str]]:
        """``count`` words of one document of ``deal_id``, or None.

        ``max_share`` keeps to words held by at most that share of the
        documents.  What a text query costs grows with the documents it
        matches, so without the cap a few operations on everyday words
        would decide a pass's total time, and which words a seed happens
        to draw would move throughput by tens of per cent.
        """
        cap = max(2, int(self.documents * max_share))
        words = [
            surface for term, surface in rng.choice(self.doc_words[deal_id])
            if self.frequency[term] <= cap
        ]
        if len(words) < count:
            return None
        return rng.sample(words, count)


def _tower(rng: random.Random, deal: DealSpec) -> str:
    """One of the deal's most significant services.

    The tail of a scope is mentioned too rarely for extraction to keep
    it (EIL's recall, which ``table2_f1`` measures), and an operation
    that expects its deal back must not rest on that.
    """
    return rng.choice(deal.towers[:3])


def _form(expect: str, kind: str, **fields: str) -> Op:
    return Op(kind, "search", tuple(sorted(fields.items())), expect)


def _qualifier(rng: random.Random, deal: DealSpec) -> Dict[str, str]:
    """One more concept criterion that ``deal`` itself satisfies."""
    choices = [("industry", deal.industry), ("geography", deal.geography)]
    if deal.consultant:
        choices.append(("consultant", deal.consultant))
    name, value = rng.choice(choices)
    return {name: value}


def _makers(
    corpus: Corpus, vocabulary: Vocabulary
) -> Dict[str, Callable[[random.Random], Optional[Op]]]:
    """One seeded maker per form/keyword class; None means draw again."""
    deals = corpus.deals

    def mq1_scope(rng):
        deal = rng.choice(deals)
        return _form(deal.deal_id, "mq1_scope",
                     tower=_tower(rng, deal), **_qualifier(rng, deal))

    def mq2_person(rng):
        deal = rng.choice(deals)
        person = rng.choice(deal.team).person
        if rng.random() < 0.5:
            return _form(deal.deal_id, "mq2_person",
                         person_name=person.full_name)
        # Which organisation a contact belongs to is extracted with less
        # than full recall (1 contact in 200 on a thin workbook), so the
        # deal need not come back.
        return _form("", "mq2_person", person_name=person.full_name,
                     organization=person.organization)

    def mq3_role(rng):
        deal = rng.choice(deals)
        fields = {"role": rng.choice(deal.team).role}
        if rng.random() < 0.5:
            fields["tower"] = _tower(rng, deal)
        else:
            fields.update(_qualifier(rng, deal))
        return _form(deal.deal_id, "mq3_role", **fields)

    def mq4_hybrid(rng):
        deal = rng.choice(deals)
        words = vocabulary.words(rng, deal.deal_id, 2, 0.10)
        if words is None:
            return None
        return _form(deal.deal_id, "mq4_hybrid", tower=_tower(rng, deal),
                     all_words=" ".join(words))

    def keyword_and(rng):
        words = vocabulary.words(rng, rng.choice(deals).deal_id, 2, 0.10)
        if words is None:
            return None
        return Op("keyword_and", "keyword",
                  (("query", " AND ".join(words)),), "*")

    def keyword_or(rng):
        words = vocabulary.words(rng, rng.choice(deals).deal_id, 4, 0.025)
        if words is None:
            return None
        return Op("keyword_or", "keyword",
                  (("query", " OR ".join(words)),), "*")

    def any_words(rng):
        words = vocabulary.words(rng, rng.choice(deals).deal_id, 2, 0.01)
        if words is None:
            return None
        return _form("*", "any_words", any_words=" ".join(words))

    return {
        "mq1_scope": mq1_scope, "mq2_person": mq2_person,
        "mq3_role": mq3_role, "mq4_hybrid": mq4_hybrid,
        "keyword_and": keyword_and, "keyword_or": keyword_or,
        "any_words": any_words,
    }


def _distinct(rng: random.Random, make, count: int, seen: set,
              text_field: Optional[str] = None) -> List[Op]:
    """Draw from ``make`` until ``count`` operations are new.

    With ``text_field`` the value of that payload field must be new
    too (the engine-cache key, see the module docstring).
    """
    ops: List[Op] = []
    for _ in range(count * 200):
        if len(ops) == count:
            return ops
        op = make(rng)
        if op is None or op.key in seen:
            continue
        if text_field is not None:
            text = ("text", dict(op.payload)[text_field])
            if text in seen:
                continue
            seen.add(text)
        seen.add(op.key)
        ops.append(op)
    raise WorkloadError(
        f"corpus too small for {count} distinct {make.__name__} operations"
    )


_TEXT_FIELD = {
    "mq4_hybrid": "all_words", "keyword_and": "query",
    "keyword_or": "query", "any_words": "any_words",
}


def _fixed(corpus: Corpus) -> random.Random:
    """The generator that decides which operations exist: seeded by the
    corpus, never by ``--seed``."""
    return random.Random(corpus.config.seed)


def _classes(corpus: Corpus, count: int,
             mix: Sequence[Tuple[str, float]]) -> List[Op]:
    """``count`` distinct operations in the shares of ``mix``, the
    classes mingled."""
    fixed = _fixed(corpus)
    makers = _makers(corpus, Vocabulary(corpus))
    seen: set = set()
    ops: List[Op] = []
    for kind, share in mix:
        ops.extend(_distinct(fixed, makers[kind], round(count * share),
                             seen, _TEXT_FIELD.get(kind)))
    fixed.shuffle(ops)
    return ops


def rotated(seed: int, cycle: list) -> list:
    """``cycle`` from a seeded starting point.

    What an operation costs depends on what ran before it (the
    docstore keeps 256 decoded documents, the database 128 statements),
    so a seeded *order* gives each seed its own hit ratios.  A rotation
    leaves every operation the history it has in every other seed.
    """
    start = random.Random(seed).randrange(len(cycle))
    return cycle[start:] + cycle[:start]


def form_cold(seed: int, corpus: Corpus, scale: Scale) -> List[Op]:
    """One pass of distinct operations in the ``FORM_COLD_MIX`` shares."""
    return rotated(seed, _classes(corpus, scale.cold_ops, FORM_COLD_MIX))


def form_hot(seed: int, corpus: Corpus, scale: Scale) -> List[Op]:
    """``hot_ops`` draws, Zipf(1.0) by rank, from ``hot_pool`` forms.

    The forms and their ranks are the corpus's (forms only: keyword
    searches bypass the query cache); the seed makes the draws.  The
    first form is a fifth of all requests, so a seeded rank would let
    one form's answer size decide a run's median.
    """
    pool = [op for op in _classes(corpus, scale.cold_ops, FORM_COLD_MIX)
            if op.target == "search"][:scale.hot_pool]
    if len(pool) < scale.hot_pool:
        raise WorkloadError(f"only {len(pool)} forms for the hot pool")
    rng = random.Random(seed)
    weights = [1.0 / rank for rank in range(1, len(pool) + 1)]
    return rng.choices(pool, weights, k=scale.hot_ops)


def reader_forms(seed: int, corpus: Corpus, scale: Scale) -> List[Op]:
    """The cold form list the ``ingest`` reader thread cycles.

    Same classes as ``form_cold`` without ``any_words`` (one such
    form takes as long as onboarding a deal, so the reader would finish
    a handful per pass).
    """
    mix = [(kind, share / 0.9) for kind, share in FORM_COLD_MIX
           if kind != "any_words"]
    return rotated(seed, _classes(corpus, scale.reader_forms, mix))


def analytics(seed: int, corpus: Corpus, scale: Scale) -> List[Op]:
    """Concept-only forms, graph traversals, synopsis views and SQL."""
    fixed = _fixed(corpus)
    deals = corpus.deals

    def people_form(rng):
        deal = rng.choice(deals)
        member = rng.choice(deal.team)
        shape = rng.randrange(4)
        if shape == 0:
            fields = {"person_name": member.person.full_name}
        elif shape == 1:
            fields = {"organization": member.person.organization,
                      "role": member.role}
        elif shape == 2:
            fields = {"role": member.role, "industry": deal.industry}
        else:
            fields = {"industry": deal.industry,
                      "geography": deal.geography}
        # A 12-document workbook does not always yield a member's role,
        # so a form asking for one may rightly find nothing.
        return _form("" if "role" in fields else deal.deal_id,
                     "concept_form", **fields)

    def graph_op(kind: str):
        def make(rng):
            deal = rng.choice(deals)
            member = rng.choice(deal.team)
            if kind == "worked-with":
                subject, expect = member.person.full_name, deal.deal_id
            elif kind == "team-overlap":
                subject, expect = member.person.full_name, "*"
            elif kind == "role-capacity":
                subject, expect = member.role, "*"
            else:
                subject, expect = rng.choice(deal.technologies)[1], "*"
            return Op(f"graph.{kind}", "graph",
                      (("kind", kind), ("subject", subject)), expect)
        return make

    def synopsis_view(rng):
        return Op("synopsis_view", "synopsis",
                  (("deal_id", rng.choice(deals).deal_id),), "*")

    def rollup(rng):
        return Op("sql.rollup", "sql", (("sql", _ROLLUP_SQL),), "*")

    def role_topk(rng):
        return Op("sql.role_topk", "sql",
                  (("sql", _ROLE_TOPK_SQL),
                   ("p0", rng.choice(deals).industry)), "*")

    def point_join(rng):
        return Op("sql.point_join", "sql",
                  (("sql", _POINT_JOIN_SQL),
                   ("p0", rng.choice(deals).deal_id)), "*")

    # Few roles and topics exist, so only the forms are distinct; the
    # graph and the database keep no result cache for a repeat to hit.
    ops = _distinct(fixed, people_form, scale.analytics_forms, set())
    quarter = scale.analytics_sql // 4
    for make, count in (
        [(graph_op(kind), scale.analytics_graph // 4)
         for kind in ("worked-with", "role-capacity", "expertise",
                      "team-overlap")]
        + [(synopsis_view, scale.analytics_views), (rollup, quarter),
           (role_topk, quarter),
           (point_join, scale.analytics_sql - 2 * quarter)]
    ):
        ops.extend(make(fixed) for _ in range(count))
    fixed.shuffle(ops)
    return rotated(seed, ops)
