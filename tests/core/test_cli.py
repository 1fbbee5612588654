"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main

FAST = ["--deals", "3", "--docs", "15"]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_search_flags(self):
        args = build_parser().parse_args(
            ["search", "--tower", "WAN", "--limit", "3"]
        )
        assert args.command == "search"
        assert args.tower == "WAN"
        assert args.limit == 3

    def test_global_flags(self):
        args = build_parser().parse_args(
            ["--seed", "7", "--deals", "4", "demo"]
        )
        assert args.seed == 7
        assert args.deals == 4

    def test_graph_flags(self):
        args = build_parser().parse_args(
            ["graph", "--worked-with", "Sam White", "--limit", "2"]
        )
        assert args.command == "graph"
        assert args.worked_with == "Sam White"
        assert args.limit == 2

    def test_graph_traversals_are_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["graph", "--role", "CSE", "--expertise", "VPN"]
            )

    def test_graph_requires_a_traversal(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["graph"])


class TestCommands:
    def test_search_tower(self, capsys):
        code = main(FAST + ["search", "--tower", "Network Services"])
        assert code == 0
        out = capsys.readouterr().out
        assert "DEAL" in out or "No matching" in out

    def test_search_with_facets(self, capsys):
        code = main(FAST + ["search", "--tower", "Network Services",
                            "--facets"])
        assert code == 0
        out = capsys.readouterr().out
        if "DEAL" in out:
            assert "Refine by:" in out

    def test_study(self, capsys):
        code = main(FAST + ["study", "--threads", "24"])
        assert code == 0
        out = capsys.readouterr().out
        assert "threads: 24" in out
        assert "mq1" in out

    def test_build_snapshot(self, tmp_path, capsys):
        snapshot = tmp_path / "db.json"
        code = main(FAST + ["build", str(snapshot)])
        assert code == 0
        assert snapshot.exists()
        from repro.db import load_database

        restored = load_database(snapshot)
        assert restored.execute("SELECT COUNT(*) FROM deals").scalar() == 3

    def test_synopsis_by_name(self, capsys):
        code = main(FAST + ["synopsis", "DEAL A"])
        assert code == 0
        assert "Synopsis for DEAL A" in capsys.readouterr().out

    def test_synopsis_unknown_deal(self, capsys):
        code = main(FAST + ["synopsis", "DEAL ZZZ"])
        assert code == 1
        assert "known deals" in capsys.readouterr().err

    def test_demo_runs(self, capsys):
        code = main(FAST + ["demo"])
        assert code == 0
        out = capsys.readouterr().out
        assert "MQ1" in out and "MQ4" in out

    def test_serve_accounts_for_every_request(self, capsys):
        code = main(FAST + ["serve", "--clients", "3", "--requests", "6",
                            "--json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        counters = {
            name: metric["value"]
            for name, metric in report["metrics"].items()
            if metric["type"] == "counter"
        }
        outcomes = ("serving.answered_inline", "serving.completed",
                    "serving.errors", "serving.shed",
                    "serving.rejected.deadline")
        assert sum(counters.get(name, 0) for name in outcomes) == 3 * 6
        # Four forms cycled 18 times: most are query-cache hits.
        assert counters["serving.answered_inline"] > 0
        answered = (counters["serving.answered_inline"]
                    + counters.get("serving.completed", 0))
        assert report["sustained_qps"] == pytest.approx(
            answered / report["elapsed_seconds"]
        )

    def test_a_snapshot_that_will_not_load_is_one_line(
        self, tmp_path, capsys
    ):
        missing = tmp_path / "absent"
        code = main(FAST + ["stats", "--index-dir", str(missing)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: ") and str(missing) in err
        assert err.count("\n") == 1, err


class TestGraphCommand:
    def _first_person(self):
        from repro.corpus import CorpusConfig, CorpusGenerator

        corpus = CorpusGenerator(
            CorpusConfig(seed=2008, n_deals=3, docs_per_deal=15)
        ).generate()
        return corpus.deals[0].team[0].person.full_name

    def test_worked_with(self, capsys):
        person = self._first_person()
        code = main(FAST + ["graph", "--worked-with", person])
        assert code == 0
        out = capsys.readouterr().out
        assert "graph:worked-with" in out
        assert "colleagues:" in out
        assert "cites: contacts:" in out

    def test_role_capacity_canonicalizes(self, capsys):
        code = main(FAST + ["graph", "--role", "cross tower TSA"])
        assert code == 0
        out = capsys.readouterr().out
        assert ("canonical role: "
                "Cross Tower Technical Solution Architect") in out

    def test_unknown_person_exits_nonzero(self, capsys):
        code = main(FAST + ["graph", "--worked-with", "Zed Nobody"])
        assert code == 1
        assert "no person matching" in capsys.readouterr().out

    def test_negative_limit_exits_nonzero(self, capsys):
        code = main(FAST + ["graph", "--worked-with", "Sam White",
                            "--limit", "-1"])
        assert code == 2
        assert "limit must be" in capsys.readouterr().err

    def test_json_answer_is_parseable(self, capsys):
        person = self._first_person()
        code = main(FAST + ["graph", "--worked-with", person,
                            "--limit", "2", "--json"])
        assert code == 0
        answer = json.loads(capsys.readouterr().out)
        assert set(answer) == {"query", "persons", "deals", "colleagues"}
        assert len(answer["colleagues"]) <= 2

    def test_graph_stats(self, capsys):
        code = main(FAST + ["graph", "--graph-stats"])
        assert code == 0
        out = capsys.readouterr().out
        assert "deals: 3" in out
        assert "node person:" in out
        assert "edge member_of:" in out

    def test_cold_start_from_index_dir(self, tmp_path, capsys):
        code = main(FAST + ["persist", str(tmp_path)])
        assert code == 0
        capsys.readouterr()
        code = main(FAST + ["graph", "--index-dir", str(tmp_path),
                            "--graph-stats", "--json"])
        assert code == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["deals"] == 3
