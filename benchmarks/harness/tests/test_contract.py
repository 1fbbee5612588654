"""``BENCHMARK.json`` says what the harness does, within the limits the
driver's contract sets."""

import importlib
import json
import os
import re
import shutil
import subprocess
import sys

from benchmarks.harness import paths, prepare, runner, tracing
from benchmarks.harness.metrics import END_TO_END, PER_LAYER

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _contract():
    with open(os.path.join(paths.ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_metric_lists_match_the_code():
    contract = _contract()
    assert {m["name"]: (m["unit"], m["better"], m["bound"])
            for m in contract["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in contract["per_layer"]} == PER_LAYER
    assert [w["name"] for w in contract["workloads"]] == \
        list(runner.WORKLOADS)


def test_contract_limits():
    contract = _contract()
    assert set(contract) == {"command", "paths", "run_seconds",
                             "workloads", "end_to_end", "per_layer"}
    assert contract["paths"] == ["benchmarks/harness"]
    assert contract["command"] == ["python3", "benchmarks/harness/run.py"]
    assert isinstance(contract["run_seconds"], int)
    assert 1 <= contract["run_seconds"] <= 60
    assert 2 <= len(contract["workloads"]) <= 8
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    names = ([w["name"] for w in contract["workloads"]]
             + [m["name"] for m in contract["end_to_end"]]
             + [m["name"] for m in contract["per_layer"]])
    assert len(set(names)) == len(names)
    assert all(NAME.match(name) for name in names)
    for workload in contract["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in contract["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in contract["end_to_end"] + contract["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = END_TO_END["setup_s"]
    assert setup[:2] == ("s", "lower")
    assert setup[2] == max(bound for _, _, bound in END_TO_END.values())


def test_environment_is_scrubbed(monkeypatch):
    for name in prepare.SCRUBBED:
        monkeypatch.setenv(name, "7")
    monkeypatch.setenv("PYTHONHASHSEED", "random")
    clean = prepare.clean_environment()
    assert not set(prepare.SCRUBBED) & set(clean)
    assert clean["PYTHONHASHSEED"] == "0"
    assert clean["PATH"] == os.environ["PATH"]


def test_wrappers_come_off_again_and_go_on_again():
    def current():
        found = {}
        for module, klass, attribute, _, _ in tracing.WRAPPED:
            owner = importlib.import_module(module)
            if klass is not None:
                owner = getattr(owner, klass)
            found[(module, klass, attribute)] = vars(owner)[attribute]
        return found

    before = current()
    recorder = tracing.Recorder()
    wrappers = tracing.Wrappers(recorder)
    for _ in range(2):
        with wrappers:
            during = current()
            assert all(during[key] is not before[key] for key in before)
        after = current()
        assert all(after[key] is before[key] for key in before)
    assert len(recorder.names) == len(tracing.WRAPPED)


def test_spans_nest_and_cross_the_front_door():
    from repro.core.eil import EILSystem
    from repro.core.query_analyzer import FormQuery
    from repro.serving.server import EILServer

    from benchmarks.harness.answers import USER
    from benchmarks.harness.corpora import SMOKE, build_corpus

    corpus = build_corpus(SMOKE.deep)
    system = EILSystem.build(corpus, workers=1, executor="serial")
    recorder = tracing.Recorder()
    with tracing.Wrappers(recorder), EILServer(system) as server:
        server.search(FormQuery(tower=corpus.deals[0].towers[0]), USER)
    spans = recorder.take()
    names = [recorder.names[span[0]] for span in spans]
    root_of = tracing.roots(spans)
    # One operation: everything hangs off the front-door span, the pool
    # thread's EILSystem.search included.
    assert names[0] == "EILServer.search"
    assert set(root_of) == {0}
    assert spans[names.index("EILSystem.search")][3] == 0
    assert "Database.execute" in names
    own = tracing.self_times(spans)
    assert all(value >= 0 for value in own)
    total = spans[0][2] - spans[0][1]
    assert abs(sum(own) - total) < 1e-9


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark there is nothing to
    measure: the command must fail, not print a result."""
    target = tmp_path / "benchmarks" / "harness"
    shutil.copytree(
        paths.HARNESS_DIR, target,
        ignore=shutil.ignore_patterns("out", "__pycache__", "tests"),
    )
    shutil.copy(os.path.join(paths.ROOT, "BENCHMARK.json"), tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    child = subprocess.run(
        [sys.executable, "benchmarks/harness/run.py", "--workload",
         "form_cold", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert child.returncode != 0
    assert b'"correct"' not in child.stdout
