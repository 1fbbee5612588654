"""Unit tests for spans and the tracer."""

import json

import pytest

from repro import obs
from repro.obs import MetricsRegistry, Tracer
from repro.obs.tracing import Span


class TestSpanNesting:
    def test_parent_child_structure(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("child-1"):
                with tracer.span("grandchild"):
                    pass
            with tracer.span("child-2"):
                pass
        roots = tracer.roots
        assert [root.name for root in roots] == ["root"]
        root = roots[0]
        assert [child.name for child in root.children] == [
            "child-1", "child-2"
        ]
        assert root.children[0].children[0].name == "grandchild"

    def test_current_tracks_innermost(self):
        # A span opens under the innermost span still open on its
        # thread: after "inner" closes, "sibling" nests under "outer";
        # after "outer" closes, "next" is a root of its own.
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert inner.parent is outer
            with tracer.span("sibling") as sibling:
                assert sibling.parent is outer
        with tracer.span("next") as following:
            assert following.parent is None
        assert [root.name for root in tracer.roots] == ["outer", "next"]
        assert [child.name for child in tracer.roots[0].children] == [
            "inner", "sibling"
        ]

    def test_durations_nest(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            with tracer.span("child") as child:
                pass
            child_duration = child.duration
            assert child.duration == child_duration  # stopped at exit
        root_duration = root.duration
        assert root.duration == root_duration
        assert root_duration >= child_duration >= 0.0

    def test_sequential_roots(self):
        tracer = Tracer()
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        assert [root.name for root in tracer.roots] == ["first", "second"]


class TestAttributesAndExport:
    def test_attributes(self):
        tracer = Tracer()
        with tracer.span("stage", size=3) as span:
            span.set_attribute("hits", 7)
        exported = tracer.export()
        assert exported[0]["attributes"] == {"size": 3, "hits": 7}

    def test_export_to_json(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        parsed = json.loads(json.dumps(tracer.export()))
        assert parsed[0]["name"] == "a"
        assert parsed[0]["children"][0]["name"] == "b"
        assert parsed[0]["duration_s"] >= 0.0

    def test_max_roots_drops_oldest(self):
        tracer = Tracer(max_roots=2)
        for name in ("a", "b", "c"):
            with tracer.span(name):
                pass
        assert [root.name for root in tracer.roots] == ["b", "c"]


class TestRegistryIntegration:
    def test_span_durations_recorded_as_histograms(self):
        registry = MetricsRegistry()
        tracer = Tracer(registry=registry)
        with tracer.span("stage"):
            pass
        histogram = registry.histogram("span.stage")
        assert histogram.count == 1
        assert histogram.sum >= 0.0

    def test_registry_provider_follows_global(self):
        tracer = Tracer(registry_provider=obs.get_registry)
        with obs.use_registry() as registry:
            with tracer.span("stage"):
                pass
            assert registry.histogram("span.stage").count == 1

    def test_disabled_tracer_is_noop(self):
        registry = MetricsRegistry()
        tracer = Tracer(registry=registry, enabled=False)
        with tracer.span("stage") as span:
            span.set_attribute("ignored", 1)
        assert tracer.roots == []
        assert registry.names() == []


def _refuse_spans(monkeypatch):
    """Make constructing a :class:`Span` fail the test."""
    def refuse(self, *args, **kwargs):
        raise AssertionError("a tracer with max_roots=0 built a Span")

    monkeypatch.setattr(Span, "__init__", refuse)


@pytest.fixture
def no_span_objects(monkeypatch):
    _refuse_spans(monkeypatch)


class TestStageTimers:
    """A tracer with ``max_roots=0`` times stages and keeps no trees."""

    def test_default_tracer_keeps_no_trees(self):
        assert obs.get_tracer().max_roots == 0
        with obs.use_tracer() as tracer:
            assert tracer.max_roots > 0
        assert obs.get_tracer().max_roots == 0

    def test_timer_records_one_sample_per_exit(self, no_span_objects):
        registry = MetricsRegistry()
        tracer = Tracer(registry=registry, max_roots=0)
        with tracer.span("outer", size=3) as span:
            span.set_attribute("hits", 7)
            for _ in range(2):
                with tracer.span("inner"):
                    pass
        histograms = registry.histograms
        assert histograms["span.outer"].count == 1
        assert histograms["span.inner"].count == 2
        assert (histograms["span.outer"].sum
                >= histograms["span.inner"].max >= 0.0)
        assert tracer.roots == [] and tracer.export() == []

    def test_exception_records_one_sample_and_propagates(
            self, no_span_objects):
        registry = MetricsRegistry()
        tracer = Tracer(registry=registry, max_roots=0)
        with pytest.raises(KeyError):
            with tracer.span("failing"):
                raise KeyError("boom")
        assert registry.histogram("span.failing").count == 1

    def test_tree_span_exited_by_exception_records_one_sample(self):
        registry = MetricsRegistry()
        tracer = Tracer(registry=registry)
        with pytest.raises(KeyError):
            with tracer.span("failing"):
                raise KeyError("boom")
        assert registry.histogram("span.failing").count == 1
        assert [root.name for root in tracer.roots] == ["failing"]

    def test_disabled_timer_records_nothing(self):
        registry = MetricsRegistry()
        tracer = Tracer(registry=registry, max_roots=0, enabled=False)
        with tracer.span("stage") as span:
            span.set_attribute("ignored", 1)
        assert registry.names() == []

    def test_timer_follows_the_global_registry(self):
        tracer = Tracer(registry_provider=obs.get_registry, max_roots=0)
        with obs.use_registry() as registry:
            with tracer.span("stage"):
                pass
        assert registry.histogram("span.stage").count == 1


def _stage_counts(registry):
    return {
        name: histogram.count
        for name, histogram in registry.histograms.items()
        if name.startswith("span.")
    }


def _build_and_query():
    """A small build plus one form, keyword and graph query each."""
    from repro import CorpusConfig, CorpusGenerator, EILSystem
    from repro.core.metaqueries import graph_worked_with_query, scope_query
    from repro.security.access import User

    corpus = CorpusGenerator(
        CorpusConfig(seed=11, n_deals=3, docs_per_deal=15)
    ).generate()
    eil = EILSystem.build(corpus)
    eil.search(scope_query("End User Services"),
               User("t", frozenset({"sales"})))
    eil.keyword_search("end user services")
    eil.graph_query(
        graph_worked_with_query(corpus.deals[0].team[0].person.full_name)
    )


class TestPipelineSpans:
    def test_eil_build_and_query_produce_stage_timings(self):
        with obs.use_registry() as registry, obs.use_tracer():
            _build_and_query()
            histograms = registry.histograms
            for stage in ("span.offline.pipeline", "span.offline.acquire",
                          "span.offline.analyze", "span.cpe.run",
                          "span.query.execute", "span.query.synopsis"):
                assert stage in histograms, stage
                assert histograms[stage].sum > 0.0

    def test_stage_timers_record_what_trees_recorded(self, monkeypatch):
        with obs.use_registry() as registry, obs.use_tracer() as tracer:
            _build_and_query()
        traced = _stage_counts(registry)
        assert tracer.roots

        _refuse_spans(monkeypatch)
        with obs.use_registry() as registry:
            _build_and_query()
        timed = _stage_counts(registry)
        assert obs.get_tracer().roots == []

        assert timed == traced
        assert {"span.offline.pipeline", "span.online.search",
                "span.online.keyword_search", "span.online.graph_query",
                "span.query.execute", "span.synopsis.sql"} <= set(timed)
