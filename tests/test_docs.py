"""Documentation quality gates.

Six checks keep the docs from rotting:

* every module under ``src/repro`` and ``benchmarks/`` carries a module
  docstring (empty ``__init__.py`` re-export stubs are exempt only if
  genuinely empty);
* every path-looking reference in ``README.md`` and ``docs/*.md``
  points at something that exists (bare ``*.py`` names may live in
  ``examples/``);
* the operations documents exist and still name the ladder's and the
  graph's metric vocabulary, so renaming a metric without updating the
  runbook fails here;
* every ``--flag`` the query cookbook (``docs/QUERIES.md``) shows is
  actually accepted by the CLI parser, so the cookbook cannot drift
  from ``repro.cli``;
* the ``REPRO_*`` environment variables ``src/`` reads are exactly the
  ones ``docs/OPERATIONS.md`` names, so a knob can neither arrive
  undocumented nor linger in the runbook after it is removed;
* the saved-file table in ``docs/ARCHITECTURE.md`` names exactly the
  file names, ``format`` markers and versions the code writes.
"""

import ast
import pathlib
import re

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src" / "repro"
BENCHMARKS = REPO_ROOT / "benchmarks"


def _python_files():
    files = sorted(SRC.rglob("*.py"))
    files += sorted(BENCHMARKS.glob("*.py"))
    return files


class TestModuleDocstrings:
    def test_every_module_has_a_docstring(self):
        missing = []
        for path in _python_files():
            source = path.read_text()
            if not source.strip():
                continue  # genuinely empty package marker
            tree = ast.parse(source, filename=str(path))
            if not ast.get_docstring(tree):
                missing.append(str(path.relative_to(REPO_ROOT)))
        assert not missing, (
            "modules missing a module docstring: " + ", ".join(missing)
        )


_PATH_RE = re.compile(
    r"`([A-Za-z0-9_][A-Za-z0-9_./-]*\.(?:py|md|json|yml|yaml|txt))`"
)


def _path_refs(path):
    text = path.read_text()
    return sorted(
        {ref for ref in _PATH_RE.findall(text) if "*" not in ref}
    )


def _readme_path_refs():
    return _path_refs(REPO_ROOT / "README.md")


def _doc_files():
    return [REPO_ROOT / "README.md"] + sorted(
        (REPO_ROOT / "docs").glob("*.md")
    )


# Docs also name generated artifacts (graph.json, seg-*.rsg) and
# module basenames in running prose (engine.py "in repro.search");
# only repo-anchored references are checkable.
_ANCHORS = ("src/", "docs/", "tests/", "benchmarks/", "examples/")


def _checkable(ref):
    if "/" in ref:
        return ref.startswith(_ANCHORS)
    return ref.endswith((".md", ".py"))


class TestReadmeReferences:
    @pytest.mark.parametrize(
        "doc", _doc_files(), ids=lambda p: p.name
    )
    def test_docs_mention_only_existing_paths(self, doc):
        broken = []
        for ref in _path_refs(doc):
            if not _checkable(ref):
                continue
            candidates = [REPO_ROOT / ref]
            if "/" not in ref:
                # Bare module names may live in examples/ (README
                # convention) or anywhere in the source tree (the
                # architecture doc names modules inside a layer's
                # context: "engine.py" under the search layer).
                candidates.append(REPO_ROOT / "examples" / ref)
                candidates.extend(SRC.rglob(ref))
                candidates.extend(BENCHMARKS.glob(ref))
            if not any(c.exists() for c in candidates):
                broken.append(ref)
        assert not broken, (
            f"{doc.name} references nonexistent paths: " + ", ".join(broken)
        )

    def test_the_regex_actually_finds_references(self):
        # Guards the check itself: if the regex rots, the test above
        # would pass vacuously.
        refs = _readme_path_refs()
        assert "src/repro/core/search.py" in refs
        assert len(refs) >= 10


class TestOperationsDocs:
    @pytest.fixture(scope="class")
    def architecture(self):
        path = REPO_ROOT / "docs" / "ARCHITECTURE.md"
        assert path.exists(), "docs/ARCHITECTURE.md is missing"
        return path.read_text()

    @pytest.fixture(scope="class")
    def operations(self):
        path = REPO_ROOT / "docs" / "OPERATIONS.md"
        assert path.exists(), "docs/OPERATIONS.md is missing"
        return path.read_text()

    def test_architecture_covers_the_contracts(self, architecture):
        for needle in (
            "no-synopsis",
            "no-index",
            "EILUnavailableError",
            "policy_version",
            "epoch",
            "max_failure_ratio",
            # The entity-graph contracts (PR 9):
            "member_of",
            "person_key",
            "graph.json",
        ):
            assert needle in architecture, (
                f"docs/ARCHITECTURE.md no longer mentions {needle!r}"
            )

    def test_operations_names_the_ladder_metrics(self, operations):
        # The ISSUE-mandated metric vocabulary; renaming any of these
        # in code requires updating the runbook.
        for metric in (
            "faults.injected",
            "retry.attempts",
            "breaker.open",
            "query.degraded",
            "query.cache.bypassed",
            "analysis.documents_quarantined",
        ):
            assert metric in operations, (
                f"docs/OPERATIONS.md no longer documents {metric!r}"
            )

    def test_operations_names_the_graph_metrics(self, operations):
        for metric in (
            "graph.nodes",
            "graph.edges",
            "graph.deals_indexed",
            "graph.deals_removed",
            "graph.queries",
            "graph.query_seconds",
        ):
            assert metric in operations, (
                f"docs/OPERATIONS.md no longer documents {metric!r}"
            )

    def test_operations_names_the_db_metrics(self, operations):
        for metric in (
            "db.rows_scanned",
            "db.join.build_rows",
            "db.join.probe_rows",
            "db.stmt_cache.hits",
            "db.stmt_cache.misses",
            "db.stmt_cache.invalidations",
            "db.stmt_cache.evictions",
        ):
            assert metric in operations, (
                f"docs/OPERATIONS.md no longer documents {metric!r}"
            )

    def test_operations_documents_exactly_the_env_knobs_src_reads(
        self, operations
    ):
        read = set()
        for path in SRC.rglob("*.py"):
            read.update(_ENV_READ_RE.findall(path.read_text()))
        assert read, "src/ reads no REPRO_* variable at all?"
        documented = set(re.findall(r"REPRO_[A-Z0-9_]+", operations))
        assert read == documented, (
            f"read but undocumented: {sorted(read - documented)}; "
            f"documented but never read: {sorted(documented - read)}"
        )

    def test_architecture_names_exactly_the_index_reader_primitives(
        self, architecture
    ):
        from repro.search import IndexReader

        section = architecture.split("## Index reader protocol", 1)[1]
        section = section.split("\n## ", 1)[0]
        documented = set(re.findall(r"^\| `(\w+)` \|", section, re.M))
        declared = set(IndexReader.__abstractmethods__)
        assert documented == declared, (
            f"declared but undocumented: {sorted(declared - documented)}; "
            f"documented but not declared: {sorted(documented - declared)}"
        )

    def test_architecture_names_exactly_what_the_graph_maintains(
        self, architecture
    ):
        import inspect

        from repro.graph import EntityGraph

        section = architecture.split("### What the graph maintains", 1)[1]
        section = section.split("\n## ", 1)[0]
        documented = set(re.findall(r"^\| `(_\w+)` \|", section, re.M))
        created = set(re.findall(
            r"self\.(_\w+)\b[^=\n]*=", inspect.getsource(EntityGraph.__init__)
        )) - {"_lock", "_epoch"}
        assert documented == created, (
            f"created but undocumented: {sorted(created - documented)}; "
            f"documented but not created: {sorted(documented - created)}"
        )

    def test_architecture_lists_exactly_the_saved_json_formats(
        self, architecture
    ):
        from repro.core.eil import EILSystem
        from repro.db import persistence
        from repro.graph import graph
        from repro.serving.sharding import ShardedIndex
        from repro.storage import store

        section = architecture.split("### Saved JSON files", 1)[1]
        section = section.split("\n## ", 1)[0]
        documented = {
            name: (kind, int(version))
            for name, kind, version in re.findall(
                r"^\| `([\w.-]+)` \| `([\w-]+)` \| (\d+) \|", section, re.M
            )
        }
        written = {
            EILSystem.EIL_MANIFEST: (
                EILSystem._EIL_FORMAT, EILSystem._EIL_VERSION
            ),
            ShardedIndex.SHARDS_MANIFEST: (
                ShardedIndex._SHARDS_FORMAT, ShardedIndex._SHARDS_VERSION
            ),
            store.MANIFEST_NAME: (
                store.MANIFEST_FORMAT, store.MANIFEST_VERSION
            ),
            EILSystem._SYNOPSIS_FILE: (
                persistence.SNAPSHOT_FORMAT, persistence.SNAPSHOT_VERSION
            ),
            EILSystem._GRAPH_FILE: (graph._GRAPH_FORMAT, graph._GRAPH_VERSION),
        }
        assert documented == written

    def test_architecture_covers_the_db_engine(self, architecture):
        for needle in (
            "naive_execute_select",
            "tests/reference/select.py",
            "tests/reference/search.py",
            "index nested-loop",
            "build-side selection",
            "DDL epoch",
            "EXPLAIN",
        ):
            assert needle in architecture, (
                f"docs/ARCHITECTURE.md no longer mentions {needle!r}"
            )

    def test_operations_names_every_plan_line_the_planner_can_emit(
        self, operations
    ):
        # The first words of every access-path / join-strategy line
        # db/plan.py appends to a plan, read off its source.
        source = (SRC / "db" / "plan.py").read_text()
        prefixes = {
            prefix.strip()
            for prefix in re.findall(
                r'plan\.append\(\s*f?"([a-z ]+) ', source
            )
        }
        assert prefixes == {
            "full scan", "empty scan", "index lookup", "index substring", "index join", "hash join", "nested loop join",
        }, "a new plan line: document it, then add it here"
        for prefix in sorted(prefixes):
            assert f"`{prefix} " in operations, (
                f"docs/OPERATIONS.md does not explain the {prefix!r} "
                "plan line"
            )

    def test_operations_documents_the_flags_and_knobs(self, operations):
        for needle in (
            "no-synopsis",
            "no-index",
            "max_failure_ratio",
            "deadline_seconds",
            "--fault-profile",
            "quarantined",
        ):
            assert needle in operations, (
                f"docs/OPERATIONS.md no longer documents {needle!r}"
            )

    def test_docs_are_substantial(self, architecture, operations):
        assert len(architecture) > 2000
        assert len(operations) > 2000


_ENV_READ_RE = re.compile(
    r"""os\.environ(?:\.get\(|\[)\s*["'](REPRO_[A-Z0-9_]+)["']"""
)

_FLAG_RE = re.compile(r"(?<![\w-])(--[a-z][a-z-]+)")


def _cli_option_strings():
    """Every option string the CLI accepts, global + all subcommands."""
    import argparse

    from repro.cli import build_parser

    parser = build_parser()
    options = set()
    for action in parser._actions:
        options.update(action.option_strings)
        if isinstance(action, argparse._SubParsersAction):
            for subparser in action.choices.values():
                for sub_action in subparser._actions:
                    options.update(sub_action.option_strings)
    return options


class TestQueriesCookbook:
    @pytest.fixture(scope="class")
    def cookbook(self):
        path = REPO_ROOT / "docs" / "QUERIES.md"
        assert path.exists(), "docs/QUERIES.md is missing"
        return path.read_text()

    def test_covers_every_meta_query_class(self, cookbook):
        for needle in ("MQ1", "MQ2", "MQ3", "MQ4",
                       "worked-with", "role", "expertise", "overlap",
                       "graph-stats"):
            assert needle in cookbook, (
                f"docs/QUERIES.md no longer covers {needle!r}"
            )

    def test_every_flag_shown_exists_in_the_cli(self, cookbook):
        known = _cli_option_strings()
        shown = set(_FLAG_RE.findall(cookbook))
        assert shown, "the cookbook shows no CLI flags at all?"
        unknown = sorted(shown - known)
        assert not unknown, (
            "docs/QUERIES.md shows flags the CLI does not accept: "
            + ", ".join(unknown)
        )

    def test_readme_links_the_cookbook(self):
        readme = (REPO_ROOT / "README.md").read_text()
        assert "docs/QUERIES.md" in readme

    def test_cookbook_is_substantial(self, cookbook):
        assert len(cookbook) > 2000
