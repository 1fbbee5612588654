"""Both tracer kinds under thread stress.

Many threads open nested spans at once with a tiny switch interval, so
the interpreter hands the GIL over inside span entry and exit.  A
tree-keeping tracer must keep each thread's spans in that thread's
trees and never retain more roots than it was asked to; both kinds must
record every stage sample exactly once.
"""

import sys
import threading

import pytest

from repro.obs import MetricsRegistry, Tracer

THREADS = 8
ITERATIONS = 200
JOIN_TIMEOUT_S = 60.0


def _run(tracer):
    """Every thread opens ``ITERATIONS`` nested span groups."""
    barrier = threading.Barrier(THREADS)
    errors = []

    def work(index):
        try:
            barrier.wait(timeout=JOIN_TIMEOUT_S)
            for _ in range(ITERATIONS):
                with tracer.span(f"t{index}.outer") as outer:
                    outer.set_attribute("thread", index)
                    with tracer.span(f"t{index}.inner"):
                        with tracer.span("shared"):
                            pass
                    with tracer.span("shared"):
                        pass
        except BaseException as error:  # surfaced by the main thread
            errors.append(error)

    threads = [
        threading.Thread(target=work, args=(index,), daemon=True)
        for index in range(THREADS)
    ]
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=JOIN_TIMEOUT_S)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads), "hung"
    assert not errors, errors


def _names(tree):
    yield tree["name"]
    for child in tree["children"]:
        yield from _names(child)


@pytest.mark.parametrize("max_roots", [0, 64])
def test_every_stage_sample_is_recorded_once(max_roots):
    registry = MetricsRegistry()
    _run(Tracer(registry=registry, max_roots=max_roots))
    counts = {
        name: histogram.count
        for name, histogram in registry.histograms.items()
    }
    expected = {"span.shared": 2 * THREADS * ITERATIONS}
    for index in range(THREADS):
        expected[f"span.t{index}.outer"] = ITERATIONS
        expected[f"span.t{index}.inner"] = ITERATIONS
    assert counts == expected
    per_level = sum(
        count for name, count in counts.items() if name.endswith(".outer")
    )
    assert per_level == THREADS * ITERATIONS


def test_retained_trees_hold_only_their_own_threads_spans():
    tracer = Tracer(registry=MetricsRegistry(), max_roots=64)
    _run(tracer)
    trees = tracer.export()
    assert len(trees) <= tracer.max_roots
    assert len(trees) == 64  # more roots finished than it keeps
    for tree in trees:
        owner = tree["name"].split(".")[0]
        assert tree["name"] == f"{owner}.outer"
        assert tree["attributes"] == {"thread": int(owner[1:])}
        assert sorted(_names(tree)) == sorted(
            [f"{owner}.outer", f"{owner}.inner", "shared", "shared"]
        )


def test_a_stage_timer_tracer_keeps_no_trees_under_threads():
    tracer = Tracer(registry=MetricsRegistry(), max_roots=0)
    _run(tracer)
    assert tracer.roots == []
