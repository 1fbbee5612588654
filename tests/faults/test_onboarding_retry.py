"""``add_workbook`` crawls under the system's retry policy, as the build
does: a system configured to ride out a flaky crawler must not fall
back to the default three attempts when it onboards a deal."""

import pytest

from repro import CorpusConfig, CorpusGenerator, EILSystem, obs
from repro.faults import FaultInjector, FaultProfile, RetryPolicy, use_injector


@pytest.fixture(scope="module")
def corpus():
    return CorpusGenerator(
        CorpusConfig(n_deals=2, docs_per_deal=12, n_threads=0)
    ).generate()


@pytest.mark.parametrize("max_attempts", [1, 6])
def test_onboarding_crawl_uses_the_configured_attempts(corpus, max_attempts):
    sleeps = []
    system = EILSystem.build(
        corpus,
        retry=RetryPolicy(max_attempts=max_attempts, sleep=sleeps.append),
    )
    workbook = next(iter(corpus.collection))
    documents = len(workbook.documents())
    assert not sleeps  # the build met no fault
    # Every fetch fails, so every document uses up its whole budget.
    always = FaultInjector(FaultProfile.parse("crawler:error=1.0"), seed=3)
    with use_injector(always), obs.use_registry() as registry:
        system.add_workbook(workbook)
    attempts = registry.counters["faults.injected.crawler.error"].value
    assert attempts == documents * max_attempts
    assert len(sleeps) == documents * (max_attempts - 1)
    skipped = registry.counters["crawler.documents_skipped_transient"].value
    assert skipped == documents
