"""Per-thread metric cells and bound handles under thread stress.

Threads that come and go must leave no cells behind and lose no count;
a read racing a record must never see a counted sample missing from
sum, min or max; handles must follow every registry swap without
dropping a sample, even when the swap lands between a handle's
generation check and its record, and a binding resolved before a swap
must never record into the swapped-out registry.
"""

import math
import sys
import threading
import time

from repro import obs
from repro.obs import (
    CounterHandle,
    GaugeHandle,
    HistogramHandle,
    MetricsRegistry,
)
from repro.obs.metrics import Counter, Histogram

JOIN_TIMEOUT_S = 60.0

_RECORDS = CounterHandle("stress.records")
_SAMPLES = HistogramHandle("stress.samples")


def _join(threads):
    for thread in threads:
        thread.join(timeout=JOIN_TIMEOUT_S)
    assert not any(thread.is_alive() for thread in threads), "hung"


def test_thread_churn_leaves_no_cells_and_loses_nothing():
    counter, histogram = Counter("churn"), Histogram("churn")
    n, batch = 500, 10

    def once(index):
        counter.inc()
        histogram.observe(float(index))

    for start in range(0, n, batch):
        threads = [
            threading.Thread(target=once, args=(index,))
            for index in range(start, start + batch)
        ]
        for thread in threads:
            thread.start()
        _join(threads)
    assert counter.value == n
    assert histogram.count == n
    assert histogram.sum == float(sum(range(n)))
    assert (histogram.min, histogram.max) == (0.0, float(n - 1))

    last = threading.Thread(target=once, args=(0,))
    last.start()
    _join([last])
    live = threading.active_count()
    assert len(counter._cells) <= live + 1
    assert len(histogram._cells) <= live + 1
    assert counter.value == n + 1
    assert histogram.count == n + 1


def test_a_read_racing_records_sees_every_counted_sample_in_the_totals():
    # One writer feeds 1.0, 2.0, ... into a fresh histogram per round;
    # a reader summarises whichever histogram is current.  A summary
    # that counts n samples must hold all of 1..n in sum and max.
    seconds, per_round = 1.0, 40
    current = [Histogram("torn")]
    stop = threading.Event()
    bad, reads = [], [0]

    observe = Histogram.observe.__code__

    def opcodes(frame, event, arg):
        # Trace observe opcode by opcode: the tracer is Python code, so
        # the interpreter may switch threads between any two opcodes,
        # not only at the calls and loops where it otherwise does.
        if frame.f_code is not observe:
            return None
        frame.f_trace_opcodes = True
        return opcodes

    def write():
        deadline = time.monotonic() + seconds
        sys.settrace(opcodes)
        try:
            while time.monotonic() < deadline:
                histogram = Histogram("torn")
                current[0] = histogram
                for value in range(1, per_round + 1):
                    histogram.observe(float(value))
        finally:
            sys.settrace(None)
            stop.set()

    def read():
        while not stop.is_set():
            summary = current[0].summary()
            reads[0] += 1
            n = summary["count"]
            if n and not (
                summary["min"] == 1.0
                and n <= summary["max"] < math.inf
                and summary["min"] <= summary["p50"] <= summary["p95"]
                <= summary["p99"] <= summary["max"]
                and summary["sum"] >= n * (n + 1) / 2
            ):
                bad.append(summary)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=read, daemon=True),
                   threading.Thread(target=write, daemon=True)]
        for thread in threads:
            thread.start()
        _join(threads)
    finally:
        sys.setswitchinterval(previous)
    assert reads[0] > 0
    assert not bad, bad[:3]


def test_handles_follow_registry_swaps_without_dropping_a_sample():
    threads_n, swaps = 8, 200
    stop = threading.Event()
    recorded = [0] * threads_n
    errors = []
    registries = []

    def work(index):
        try:
            done = 0
            while not stop.is_set():
                _RECORDS.inc()
                _SAMPLES.observe(1.0)
                done += 1
            recorded[index] = done
        except BaseException as error:  # surfaced by the main thread
            errors.append(error)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with obs.use_registry() as base:
            registries.append(base)
            threads = [
                threading.Thread(target=work, args=(index,), daemon=True)
                for index in range(threads_n)
            ]
            for thread in threads:
                thread.start()
            for _ in range(swaps):
                with obs.use_registry() as fresh:
                    registries.append(fresh)
                    time.sleep(0.0005)
            stop.set()
            _join(threads)
    finally:
        sys.setswitchinterval(previous)
    assert not errors, errors

    total = sum(recorded)
    assert total > 0
    assert sum(
        r.counter("stress.records").value for r in registries
    ) == total
    assert sum(
        r.histogram("stress.samples").count for r in registries
    ) == total
    assert sum(
        r.counter("stress.records").value for r in registries[1:]
    ) > 0  # the swaps were seen


def test_a_handle_bound_before_a_swap_records_into_the_new_registry():
    handle = CounterHandle("early")
    with obs.use_registry() as outer:
        handle.inc()
        with obs.use_registry() as inner:
            handle.inc(2)
        handle.inc()
    assert outer.counter("early").value == 2
    assert inner.counter("early").value == 2


def test_a_stale_bind_never_records_into_the_swapped_out_registry():
    # A slow binder resolves the registry installed before a swap and
    # publishes its binding after a fast binder has bound the new one.
    # The binder is traced opcode by opcode from the moment it has its
    # registry, and the main thread records at every one of those
    # opcodes: none of its records may land in the old registry.
    entered, release, resolved = (threading.Event() for _ in range(3))
    step, done = threading.Semaphore(0), threading.Semaphore(0)
    slow = []

    def provider():
        registry = obs.get_registry()
        if threading.current_thread() in slow:
            entered.set()
            release.wait(timeout=JOIN_TIMEOUT_S)
            resolved.set()
        return registry

    handle = CounterHandle("slow", provider)
    bind = type(handle)._bind.__code__

    def opcodes(frame, event, arg):
        if frame.f_code is not bind:
            return None
        frame.f_trace_opcodes = True
        if event == "opcode" and resolved.is_set():
            step.release()  # the main thread records now
            done.acquire(timeout=JOIN_TIMEOUT_S)
        return opcodes

    def slow_inc():
        sys.settrace(opcodes)
        try:
            handle.inc()
        finally:
            sys.settrace(None)

    records = 0
    with obs.use_registry() as old:
        binder = threading.Thread(target=slow_inc, daemon=True)
        slow.append(binder)
        binder.start()
        assert entered.wait(timeout=JOIN_TIMEOUT_S)
        with obs.use_registry() as new:
            handle.inc()  # the fast binder
            release.set()
            while binder.is_alive():
                if step.acquire(timeout=0.05):
                    handle.inc()
                    records += 1
                    done.release()
            _join([binder])
            handle.inc()
    assert records > 0
    assert old.counter("slow").value == 1  # the slow binder's own record
    assert new.counter("slow").value == records + 2


def test_disabled_registries_record_nothing_through_handles():
    counter = CounterHandle("quiet.counter")
    histogram = HistogramHandle("quiet.histogram")
    gauge = GaugeHandle("quiet.gauge")
    with obs.use_registry() as registry:
        counter.inc()  # bound while enabled
        obs.set_enabled(False)
        try:
            counter.inc()
            histogram.observe(1.0)
            gauge.set(3.0)
            with histogram.timer():
                pass
        finally:
            obs.set_enabled(True)
        assert registry.names() == ["quiet.counter"]
        assert registry.counter("quiet.counter").value == 1
        counter.inc()
        assert registry.counter("quiet.counter").value == 2
    with obs.use_registry(MetricsRegistry(enabled=False)) as disabled:
        counter.inc()
        histogram.observe(1.0)
        assert disabled.names() == []
