"""``repro stats --json`` and ``repro serve --json`` against exact samples.

Every histogram sample the two commands record is also fed to the
sorted-sample oracle, so the reports can be checked where the buckets
approximate: counts, sums, minima and maxima exact, p50/p95/p99 within
``RELATIVE_ERROR`` of the exact nearest-rank sample.
"""

import collections
import json

import pytest

from repro.cli import main
from repro.obs import RELATIVE_ERROR
from repro.obs.metrics import Histogram
from tests.reference.metrics import SortedHistogram

# Built in this process: worker processes' samples reach the registry
# merged, past the oracle.
_SMALL = ["--deals", "4", "--docs", "14", "--workers", "1"]
_HISTOGRAM_KEYS = {"type", "count", "sum", "mean", "min", "max",
                   "p50", "p95", "p99"}


@pytest.fixture
def oracles(monkeypatch):
    """Exact samples per histogram name, fed beside the buckets."""
    exact = collections.defaultdict(SortedHistogram)
    observe = Histogram.observe

    def tee(self, value):
        observe(self, value)
        exact[self.name].observe(value)

    monkeypatch.setattr(Histogram, "observe", tee)
    return exact


def _run(capsys, argv):
    assert main(argv) == 0
    return json.loads(capsys.readouterr().out)


def _check(metrics, exact):
    histograms = {
        name: value for name, value in metrics.items()
        if value["type"] == "histogram"
    }
    assert histograms
    assert set(histograms) == set(exact)
    for name, summary in histograms.items():
        oracle = exact[name]
        assert set(summary) == _HISTOGRAM_KEYS, name
        assert summary["count"] == oracle.count, name
        assert summary["sum"] == pytest.approx(oracle.sum), name
        assert (summary["min"], summary["max"]) == (
            oracle.min, oracle.max), name
        for q in (50, 95, 99):
            truth = oracle.percentile(q)
            assert truth - RELATIVE_ERROR * truth <= summary[f"p{q}"], name
            assert summary[f"p{q}"] <= truth, name


def test_stats_json_percentiles_are_within_the_stated_error(
        capsys, oracles):
    report = _run(capsys, _SMALL + ["stats", "--queries", "1", "--json"])
    assert set(report) == {"metrics", "traces"}
    metrics = report["metrics"]
    for name in ("query.executed", "engine.searches", "graph.queries"):
        assert metrics[name]["type"] == "counter"
        assert metrics[name]["value"] >= 1
    assert metrics["span.query.execute"]["count"] >= 1
    _check(metrics, oracles)


def test_serve_json_percentiles_are_within_the_stated_error(
        capsys, oracles):
    report = _run(capsys, _SMALL + ["serve", "--clients", "2",
                                    "--requests", "4", "--json"])
    metrics = report["metrics"]
    answered = sum(
        metrics.get(name, {}).get("value", 0)
        for name in ("serving.answered_inline", "serving.completed")
    )
    assert answered == 2 * 4
    latency = metrics["serving.latency"]
    truth = oracles["serving.latency"]
    assert latency["count"] == truth.count == 8
    for q in (50, 95, 99):
        exact = truth.percentile(q)
        assert exact - RELATIVE_ERROR * exact <= latency[f"p{q}"] <= exact
