"""Shared fixtures for the benchmark suite.

Two corpus scales are shared session-wide:

* ``small``   — 8 deals x 28 docs: micro-benchmarks of single operations.
* ``table2``  — 12 deals x 80 docs (the paper's Table 2 subset shape):
  the quality experiments.

Every bench writes its paper-shaped report to ``benchmarks/out/<name>.txt``
(pytest captures stdout, so the files are the canonical record) and also
prints it for ``-s`` runs.

A case marked ``rung`` builds a corpus rung (paper, rollout) and runs
only when the marker is selected (``-m rung``): never in the default
run or CI.
"""

from __future__ import annotations

import pathlib

import pytest

from repro import CorpusConfig, CorpusGenerator, EILSystem

OUT_DIR = pathlib.Path(__file__).parent / "out"


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "rung: a long case at a named corpus rung; runs only under -m rung",
    )


def pytest_collection_modifyitems(config, items):
    if "rung" in (config.getoption("markexpr") or ""):
        return
    skip = pytest.mark.skip(reason="a corpus rung runs only under -m rung")
    for item in items:
        if "rung" in item.keywords:
            item.add_marker(skip)


@pytest.fixture(scope="session")
def corpus_small():
    return CorpusGenerator(
        CorpusConfig(seed=2008, n_deals=8, docs_per_deal=28)
    ).generate()


@pytest.fixture(scope="session")
def eil_small(corpus_small):
    return EILSystem.build(corpus_small)


@pytest.fixture(scope="session")
def corpus_table2():
    return CorpusGenerator(CorpusConfig.table2_scale()).generate()


@pytest.fixture(scope="session")
def eil_table2(corpus_table2):
    return EILSystem.build(corpus_table2)


@pytest.fixture(scope="session")
def report_writer():
    """Callable(name, text): persist + print one bench's report."""
    OUT_DIR.mkdir(exist_ok=True)

    def write(name: str, text: str) -> None:
        (OUT_DIR / f"{name}.txt").write_text(text + "\n")
        print(f"\n{text}\n")

    return write
