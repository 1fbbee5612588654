"""Unit and property tests for the Porter stemmer."""

import sys
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.text.stemmer as stemmer_module
from repro.corpus.generator import CorpusConfig, CorpusGenerator
from repro.search import Analyzer
from repro.text import PorterStemmer
from tests.reference.text import Tokenizer, field_texts, porter_steps

stem = PorterStemmer().stem

# Representative vocabulary -> expected stems, taken from the Porter
# paper's worked examples plus domain terms used heavily in the corpus.
KNOWN_STEMS = {
    "caresses": "caress",
    "ponies": "poni",
    "ties": "ti",
    "caress": "caress",
    "cats": "cat",
    "feed": "feed",
    "agreed": "agre",
    "plastered": "plaster",
    "bled": "bled",
    "motoring": "motor",
    "sing": "sing",
    "conflated": "conflat",
    "troubled": "troubl",
    "sized": "size",
    "hopping": "hop",
    "tanned": "tan",
    "falling": "fall",
    "hissing": "hiss",
    "fizzed": "fizz",
    "failing": "fail",
    "filing": "file",
    "happy": "happi",
    "sky": "sky",
    "relational": "relat",
    "conditional": "condit",
    "rational": "ration",
    "valenci": "valenc",
    "digitizer": "digit",
    "operator": "oper",
    "feudalism": "feudal",
    "decisiveness": "decis",
    "hopefulness": "hope",
    "callousness": "callous",
    "formaliti": "formal",
    "sensitiviti": "sensit",
    "sensibiliti": "sensibl",
    "triplicate": "triplic",
    "formative": "form",
    "formalize": "formal",
    "electriciti": "electr",
    "electrical": "electr",
    "hopeful": "hope",
    "goodness": "good",
    "revival": "reviv",
    "allowance": "allow",
    "inference": "infer",
    "airliner": "airlin",
    "gyroscopic": "gyroscop",
    "adjustable": "adjust",
    "defensible": "defens",
    "irritant": "irrit",
    "replacement": "replac",
    "adjustment": "adjust",
    "dependent": "depend",
    "adoption": "adopt",
    "homologou": "homolog",
    "communism": "commun",
    "activate": "activ",
    "angulariti": "angular",
    "homologous": "homolog",
    "effective": "effect",
    "bowdlerize": "bowdler",
    "probate": "probat",
    "rate": "rate",
    "cease": "ceas",
    "controll": "control",
    "roll": "roll",
    # Domain terms: these must collide the way the keyword baseline needs.
    "services": "servic",
    "service": "servic",
    "servicing": "servic",
    "engagements": "engag",
    "engagement": "engag",
    "replication": "replic",
    "replicated": "replic",
}


class TestKnownStems:
    def test_porter_paper_examples(self):
        stemmer = PorterStemmer()
        failures = {
            word: (stemmer.stem(word), expected)
            for word, expected in KNOWN_STEMS.items()
            if stemmer.stem(word) != expected
        }
        assert not failures

    def test_domain_terms_collide(self):
        assert stem("services") == stem("service") == stem("servicing")
        assert stem("engagements") == stem("engagement")
        assert stem("replication") == stem("replicated")

    def test_short_words_untouched(self):
        assert stem("it") == "it"
        assert stem("a") == "a"
        assert stem("go") == "go"


class TestStemmerProperties:
    @given(st.text(alphabet=st.characters(min_codepoint=97, max_codepoint=122),
                   min_size=0, max_size=30))
    def test_never_longer_than_input(self, word):
        assert len(stem(word)) <= len(word)

    @given(st.text(alphabet=st.characters(min_codepoint=97, max_codepoint=122),
                   min_size=0, max_size=30))
    def test_idempotent_for_search_use(self, word):
        # Stemming an already-stemmed term may reduce it further in rare
        # Porter cases, but a second application must be stable (the index
        # and the query apply the stemmer exactly once each, to the same
        # surface form, so what matters is determinism).
        assert stem(word) == stem(word)

    @given(st.text(alphabet=st.characters(min_codepoint=97, max_codepoint=122),
                   min_size=3, max_size=30))
    def test_output_is_lowercase_alpha(self, word):
        result = stem(word)
        assert result == result.lower()


_WORDS = st.text(alphabet=st.characters(min_codepoint=97, max_codepoint=122),
                 min_size=0, max_size=30)


@pytest.fixture
def empty_memo():
    stemmer_module._MEMO.clear()
    yield stemmer_module._MEMO
    stemmer_module._MEMO.clear()


@pytest.fixture(scope="module")
def deep_vocabulary():
    """Every distinct word of a few thick workbooks (the benchmark's
    ``deep`` shape: 100 documents a deal), as the analyzer sees them."""
    corpus = CorpusGenerator(
        CorpusConfig(seed=2008, n_deals=3, docs_per_deal=100, n_threads=0)
    ).generate()
    tokenizer = Tokenizer(lowercase=True)
    return sorted({
        token.text
        for text in field_texts(corpus)
        for token in tokenizer.iter_tokens(text)
    })


class TestMemo:
    @given(_WORDS)
    def test_memoised_equals_the_eight_steps(self, word):
        stemmer_module._MEMO.clear()
        stemmer = PorterStemmer()
        expected = porter_steps(word)
        assert stemmer.stem(word) == expected  # a miss
        assert stemmer.stem(word) == expected  # a hit
        assert PorterStemmer().stem(word) == expected  # another, same memo

    def test_whole_deep_vocabulary(self, deep_vocabulary, empty_memo):
        assert len(deep_vocabulary) > 500
        stemmer = PorterStemmer()
        for _ in range(2):  # all misses, then all hits
            assert [stemmer.stem(word) for word in deep_vocabulary] == [
                porter_steps(word) for word in deep_vocabulary
            ]
        assert len(empty_memo) == len(deep_vocabulary)

    def test_stemmers_share_one_memo(self, empty_memo):
        PorterStemmer().stem("services")
        Analyzer().analyze("engagements")
        stem("replication")
        assert empty_memo == {"services": "servic", "engagements": "engag",
                              "replication": "replic"}

    def test_bound_holds_and_answers_survive_the_clear(
            self, deep_vocabulary, empty_memo, monkeypatch):
        bound = 64
        monkeypatch.setattr(stemmer_module, "_MEMO_LIMIT", bound)
        stemmer = PorterStemmer()
        for word in deep_vocabulary:  # many times the bound
            assert stemmer.stem(word) == porter_steps(word)
            assert len(empty_memo) <= bound
        # Whatever the clears left behind, hit or miss, stays right.
        for word in deep_vocabulary[:2 * bound]:
            assert stemmer.stem(word) == porter_steps(word)
            assert len(empty_memo) <= bound

    def test_two_threads_agree_with_a_serial_run(
            self, deep_vocabulary, empty_memo, monkeypatch):
        """The ``ingest`` shape: a writer analysing new documents beside
        a reader analysing hits for snippets, over overlapping words,
        with the memo small enough to be cleared under both."""
        monkeypatch.setattr(stemmer_module, "_MEMO_LIMIT", 97)
        half = len(deep_vocabulary) // 2
        vocabularies = [deep_vocabulary[: half + half // 2] * 3,
                        deep_vocabulary[half - half // 2:] * 3]
        serial = [[porter_steps(word) for word in words]
                  for words in vocabularies]
        answers = [None, None]
        together = threading.Barrier(2)

        def run(index):
            stemmer = PorterStemmer()
            together.wait(timeout=60)
            answers[index] = [stemmer.stem(word)
                              for word in vocabularies[index]]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run, args=(index,))
                       for index in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert answers == serial
        assert len(empty_memo) <= 97
