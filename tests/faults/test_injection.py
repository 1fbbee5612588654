"""Unit tests for the deterministic fault injector (repro.faults)."""

import pytest

from repro import obs
from repro.errors import (
    ConfigurationError,
    DeadlineExceededError,
    InjectedFaultError,
    TransientError,
)
from repro.faults import (
    FaultInjector,
    FaultProfile,
    FaultRule,
    get_injector,
    set_injector,
    use_injector,
)


@pytest.fixture
def registry():
    with obs.use_registry() as fresh:
        yield fresh


class TestFaultRule:
    def test_rates_validated(self):
        with pytest.raises(ConfigurationError):
            FaultRule(error_rate=1.5)
        with pytest.raises(ConfigurationError):
            FaultRule(timeout_rate=-0.1)
        with pytest.raises(ConfigurationError):
            FaultRule(latency=-1.0)

    def test_active(self):
        assert not FaultRule().active
        assert FaultRule(error_rate=0.1).active
        assert FaultRule(timeout_rate=0.1).active
        assert FaultRule(latency_rate=1.0, latency=0.5).active
        # A latency rate with zero latency can never fire.
        assert not FaultRule(latency_rate=1.0, latency=0.0).active


class TestFaultProfileParse:
    def test_full_grammar(self):
        profile = FaultProfile.parse(
            "db:error=0.2;index:error=0.1,latency=0.05,latency_rate=0.5"
        )
        assert profile.rules["db"].error_rate == 0.2
        index = profile.rules["index"]
        assert index.error_rate == 0.1
        assert index.latency == 0.05
        assert index.latency_rate == 0.5

    def test_bare_number_is_error_rate(self):
        profile = FaultProfile.parse("repository:0.3")
        assert profile.rules["repository"].error_rate == 0.3

    def test_latency_implies_always(self):
        profile = FaultProfile.parse("index:latency=0.01")
        assert profile.rules["index"].latency_rate == 1.0

    def test_timeout_knob(self):
        profile = FaultProfile.parse("crawler:timeout=0.4")
        assert profile.rules["crawler"].timeout_rate == 0.4

    def test_inactive_rules_dropped(self):
        assert not FaultProfile.parse("db:error=0.0")

    def test_bad_specs_rejected(self):
        for spec in ("db", "db:error=x", "db:unknown=1", ":error=0.1"):
            with pytest.raises(ConfigurationError):
                FaultProfile.parse(spec)


class TestFaultInjector:
    def test_empty_profile_is_noop(self, registry):
        injector = FaultInjector()
        assert not injector.active
        injector.check("db")
        injector.check("analysis", key="doc-1")
        assert "faults.injected" not in registry.counters

    def test_certain_error(self, registry):
        injector = FaultInjector({"db": FaultRule(error_rate=1.0)})
        with pytest.raises(InjectedFaultError):
            injector.check("db")
        assert registry.counters["faults.injected"].value == 1
        assert registry.counters["faults.injected.db.error"].value == 1

    def test_injected_fault_is_transient(self):
        injector = FaultInjector({"db": FaultRule(error_rate=1.0)})
        with pytest.raises(TransientError):
            injector.check("db")

    def test_certain_timeout(self, registry):
        injector = FaultInjector({"index": FaultRule(timeout_rate=1.0)})
        with pytest.raises(DeadlineExceededError):
            injector.check("index")
        assert (
            registry.counters["faults.injected.index.timeout"].value == 1
        )

    def test_latency_uses_injected_sleep(self, registry):
        slept = []
        injector = FaultInjector(
            {"index": FaultRule(latency_rate=1.0, latency=0.25)},
            sleep=slept.append,
        )
        injector.check("index")
        assert slept == [0.25]
        assert (
            registry.counters["faults.injected.index.latency"].value == 1
        )

    def test_unconfigured_component_unaffected(self, registry):
        injector = FaultInjector({"db": FaultRule(error_rate=1.0)})
        injector.check("index")  # no rule, no fault

    def _keyed_outcomes(self, injector, keys):
        outcomes = {}
        for key in keys:
            try:
                injector.check("analysis", key=key)
            except InjectedFaultError:
                outcomes[key] = "error"
            else:
                outcomes[key] = "ok"
        return outcomes

    def test_keyed_decisions_are_order_independent(self, registry):
        profile = {"analysis": FaultRule(error_rate=0.5)}
        keys = [f"doc-{i}" for i in range(40)]
        forward = self._keyed_outcomes(
            FaultInjector(profile, seed=7), keys
        )
        backward = self._keyed_outcomes(
            FaultInjector(profile, seed=7), list(reversed(keys))
        )
        assert forward == backward
        assert set(forward.values()) == {"ok", "error"}

    def test_keyed_decisions_depend_on_seed(self, registry):
        profile = {"analysis": FaultRule(error_rate=0.5)}
        keys = [f"doc-{i}" for i in range(40)]
        a = self._keyed_outcomes(FaultInjector(profile, seed=1), keys)
        b = self._keyed_outcomes(FaultInjector(profile, seed=2), keys)
        assert a != b

    def test_keyed_retry_redraws(self, registry):
        # Successive checks for the same key advance a per-key counter,
        # so a retry is a fresh draw rather than a guaranteed repeat.
        profile = {"analysis": FaultRule(error_rate=0.5)}
        injector = FaultInjector(profile, seed=3)
        outcomes = set()
        for _ in range(32):
            try:
                injector.check("analysis", key="doc-0")
            except InjectedFaultError:
                outcomes.add("error")
            else:
                outcomes.add("ok")
        assert outcomes == {"ok", "error"}

    def test_unkeyed_stream_deterministic(self, registry):
        profile = {"db": FaultRule(error_rate=0.5)}

        def sequence():
            injector = FaultInjector(profile, seed=11)
            out = []
            for _ in range(64):
                try:
                    injector.check("db")
                except InjectedFaultError:
                    out.append(1)
                else:
                    out.append(0)
            return out

        first, second = sequence(), sequence()
        assert first == second
        assert 0 < sum(first) < 64


class TestAmbientInjector:
    def test_default_is_noop(self):
        assert not get_injector().active

    def test_use_injector_scopes_and_restores(self):
        armed = FaultInjector({"db": FaultRule(error_rate=1.0)})
        before = get_injector()
        with use_injector(armed) as current:
            assert current is armed
            assert get_injector() is armed
        assert get_injector() is before

    def test_set_injector_returns_previous(self):
        armed = FaultInjector({"db": FaultRule(error_rate=1.0)})
        original = get_injector()
        previous = set_injector(armed)
        try:
            assert previous is original
            assert get_injector() is armed
        finally:
            set_injector(previous)
        # The ambient default must be back to the pre-test no-op —
        # anything else leaks armed faults into unrelated tests.
        assert get_injector() is original
        assert not get_injector().active
