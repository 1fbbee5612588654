"""Surface gate: every public class and function in ``src/repro`` is
reached from an entry point, or is entry-point API on purpose.

Reached means a chain of references leads to it from a file under
``benchmarks/harness/``, a ``benchmarks/bench_*.py`` paper script, a
module's own top-level statements, or a name in
:data:`ENTRY_POINT_API`.  A reference is a use of the name inside
another top-level definition, followed through the import statements
(``from repro.x import Name``, ``import repro.x as m`` … ``m.Name``,
re-exports resolved to the defining module), so two modules that each
define a ``tokenize`` do not vouch for one another, and a helper used
only by an unreached function is unreached too.

Two things are deliberately not references.  An import that only
re-exports (``from repro.search.scoring import TfidfScorer`` in a
package ``__init__``) binds a name and uses nothing: a facade that
keeps re-exporting a name is how unused surface survives.  And tests
are not entry points: code only a test imports is an oracle, which
belongs in ``tests/reference/``, or it is dead.

The analysis is by name, so it errs towards "reached" (a local variable
that shadows a module-level name counts as a use of it); what it
reports as unreached is unreached.

Methods get a coarser pass, since a call site does not say which class
it lands on: a public method or property of a class in ``src/repro`` is
reached when its name appears as an attribute, a keyword argument or a
string anywhere under ``src/``, ``benchmarks/`` or ``examples/`` outside
its own definition.  Dunders are exempt; :data:`TEST_ONLY_METHODS` names
what that pass finds and why each is still there.
"""

import argparse
import ast
import collections
import importlib
import inspect
import pathlib
import pkgutil
import re

import pytest

import repro
import repro.annotators
import repro.core
import repro.db
import repro.serving
import repro.text
from repro.db import Table, parse
from repro.errors import SqlSyntaxError
from repro.obs import Histogram

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Public names nothing above reaches, and why each is public anyway.
#: Every other public class or function must be reached.
ENTRY_POINT_API = {}

#: Public methods no code under src/, benchmarks/ or examples/ names,
#: and why each is still there.
TEST_ONLY_METHODS = {
    "repro.db.database.Database.commit":
        "undo-log transactions (begin/commit/rollback), which no entry "
        "point opens; begin is reached only through other uses of its name",
    "repro.db.database.Database.rollback":
        "undo-log transactions (begin/commit/rollback), which no entry "
        "point opens; begin is reached only through other uses of its name",
    "repro.faults.breaker.CircuitBreaker.state":
        "operator API: what the breaker.state.<name> gauge of "
        "docs/OPERATIONS.md reports",
    "repro.security.access.AccessController.restrict":
        "policy administration: the access-control properties move "
        "policy_version with it",
    "repro.security.access.AccessController.revoke_user":
        "policy administration: the access-control properties move "
        "policy_version with it",
}

#: The index reader protocol's primitives (its abstract members).
READER_PRIMITIVES = {
    "__len__", "fields", "doc_ids", "has_document", "document",
    "stored_fields", "positions", "term_postings", "max_tf", "df",
    "field_document_count", "field_token_total", "docs_with_metadata",
    "metadata_column", "vocabulary",
}

#: Methods deleted because only tests called them; they stay gone.
DELETED_METHODS = {
    "repro.annotators.classifier.NaiveBayesClassifier.labels",
    # The query cache's one normalisation pass tells an empty form.
    "repro.core.query_analyzer.FormQuery.is_empty",
    "repro.db.sql._Parser._parse_literal_value",
    "repro.faults.injection.FaultInjector.wrap",
    "repro.search.scoring.Bm25Scorer.score",
    "repro.search.scoring.Scorer.score",
    "repro.search.siapi.SiapiQuery.is_empty",
    "repro.search.siapi.SiapiService.count",
    "repro.search.siapi.SiapiService.search",
    "repro.uima.cas.Cas.remove",
    "repro.db.database.Database.drop_table",
    "repro.db.schema.TableSchema.row_dict",
    "repro.db.schema.TableSchema.updated_row",
    "repro.db.table.Table.insert",
    "repro.db.table.Table.replace_row",
    "repro.db.table.Table.undo_update",
    "repro.db.table.Table.update",
    "repro.obs.metrics.MetricsRegistry.observe",
    "repro.obs.tracing.Span.finished",
    "repro.obs.tracing.Tracer.current",
    "repro.obs.tracing.Tracer.reset",
    "repro.obs.tracing.Tracer.to_json",
} | {
    # The scalar scorer's per-document reads: the reference scorer
    # analyses the stored text instead.
    f"{owner}.{name}"
    for owner in (
        "repro.search.index_reader.IndexReader",
        "repro.search.index_reader.CompositeIndexReader",
        "repro.search.inverted_index.InvertedIndex",
        "repro.storage.segment.Segment",
    )
    for name in ("field_length", "term_frequency", "token_total",
                 "total_length")
}

#: Modules and top-level names deleted with no entry point reaching
#: them (the learned selector is paper §3.2.1 future work), or as a
#: second index layout (the paper serves one index; shards were an
#: option that changed no answer).
DELETED_NAMES = {
    "repro.annotators.candidates",
    "repro.annotators.classifier.SectionClassifierAnnotator",
    "repro.core.metaqueries.graph_expertise_query",
    "repro.core.metaqueries.graph_role_capacity_query",
    "repro.core.metaqueries.graph_team_overlap_query",
    "repro.serving.sharding",
    "repro.text.stemmer.stem",
}

#: The environment variables the program reads: deployment shape only.
ENVIRONMENT = {"REPRO_WORKERS"}

_DEFS = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _module_name(path: pathlib.Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


class _Module:
    """One parsed file, split into what a reference can land on.

    ``nodes``: top-level name -> the AST that runs when the name is used
    (a class or function, or the value a top-level assignment gives
    it).  ``root_code``: every other top-level statement, which runs on
    import.  ``imports``: the top-level import statements, whose
    bindings resolve names but use nothing.
    """

    def __init__(self, name: str, tree: ast.Module) -> None:
        self.name = name
        self.tree = tree
        self.nodes = {}
        self.public_defs = set()
        self.root_code = []
        self.imports = []
        for statement in tree.body:
            if isinstance(statement, _DEFS):
                self.nodes[statement.name] = statement
                if not statement.name.startswith("_"):
                    self.public_defs.add(statement.name)
            elif isinstance(statement, (ast.Import, ast.ImportFrom)):
                self.imports.append(statement)
            elif isinstance(statement, (ast.Assign, ast.AnnAssign)):
                targets = (
                    statement.targets if isinstance(statement, ast.Assign)
                    else [statement.target]
                )
                names = [t.id for t in targets if isinstance(t, ast.Name)]
                if names and statement.value is not None:
                    for target in names:
                        self.nodes[target] = statement.value
                else:
                    self.root_code.append(statement)
            else:
                self.root_code.append(statement)
        #: local name -> (module it was imported from, name there)
        self.bindings = {
            alias.asname or alias.name: (statement.module, alias.name)
            for statement in self.imports
            if isinstance(statement, ast.ImportFrom) and statement.module
            for alias in statement.names
        }


MODULES = {
    _module_name(path): _Module(_module_name(path),
                                ast.parse(path.read_text()))
    for path in sorted((SRC / "repro").rglob("*.py"))
}


def _resolve(module_name: str, name: str, seen=()):
    """What ``name`` is as an attribute of the module ``module_name``:
    ``("module", m)``, ``("node", defining module, name)`` or None (not
    ours)."""
    submodule = f"{module_name}.{name}"
    if submodule in MODULES:
        return ("module", submodule)
    module = MODULES.get(module_name)
    if module is None or (module_name, name) in seen:
        return None
    return _lookup(module, name, seen + ((module_name, name),))


def _lookup(module: _Module, name: str, seen=()):
    """What the bare ``name`` means inside ``module``."""
    if name in module.nodes and MODULES.get(module.name) is module:
        return ("node", module.name, name)
    if name in module.bindings:
        return _resolve(*module.bindings[name], seen)
    return None


def _dotted(node):
    """``a.b.c`` as ["a", "b", "c"], or None for any other expression."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return parts[::-1]


def _uses(module: _Module, trees):
    """The ``(module, name)`` nodes the code in ``trees`` uses, resolved
    with ``module``'s top-level names and imports plus any import
    statement inside the code itself."""
    used = set()
    aliases = {}  # local name -> module it is bound to
    nodes = [node for tree in trees for node in ast.walk(tree)]
    imports = module.imports + [
        node for node in nodes if isinstance(node, (ast.Import,
                                                    ast.ImportFrom))
    ]
    for statement in imports:
        local = statement not in module.imports
        for alias in statement.names:
            if isinstance(statement, ast.Import):
                bound = alias.name if alias.asname else (
                    alias.name.split(".")[0]
                )
                aliases[alias.asname or bound] = bound
            elif statement.module:
                target = _resolve(statement.module, alias.name)
                if target is None:
                    continue
                if target[0] == "module":
                    aliases[alias.asname or alias.name] = target[1]
                elif local:  # imported where it is used
                    used.add(target[1:])
    for node in nodes:
        if isinstance(node, ast.Name):
            target = _lookup(module, node.id)
            if target is not None and target[0] == "node":
                used.add(target[1:])
        elif isinstance(node, ast.Attribute):
            parts = _dotted(node)
            if parts is None or parts[0] not in aliases:
                continue
            target = ("module", aliases[parts[0]])
            for part in parts[1:]:
                target = _resolve(target[1], part)
                if target is None or target[0] == "node":
                    break
            if target is not None and target[0] == "node":
                used.add(target[1:])
    return used


def unreached():
    """Public classes and functions no chain of uses leads to."""
    frontier = set()
    for name in ENTRY_POINT_API:
        module_name, _, leaf = name.rpartition(".")
        frontier.add((module_name, leaf))
    for module in MODULES.values():
        frontier |= _uses(module, module.root_code)
    outside = sorted((ROOT / "benchmarks" / "harness").rglob("*.py"))
    outside += sorted((ROOT / "benchmarks").glob("bench_*.py"))
    for path in outside:
        tree = ast.parse(path.read_text())
        frontier |= _uses(_Module(str(path), tree), [tree])
    reached = set()
    while frontier:
        target = frontier.pop()
        if target in reached:
            continue
        reached.add(target)
        module = MODULES[target[0]]
        frontier |= _uses(module, [module.nodes[target[1]]]) - reached
    return sorted(
        f"{module.name}.{name}"
        for module in MODULES.values()
        for name in module.public_defs
        if (module.name, name) not in reached
    )


def _names_used(tree):
    """How often each name appears in ``tree`` as an attribute, a
    keyword argument or a string."""
    used = collections.Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            used[node.attr] += 1
        elif isinstance(node, ast.keyword) and node.arg:
            used[node.arg] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used[node.value] += 1
    return used


def _methods(module_prefix="repro"):
    """``(module, class, method def)`` for every method a class under
    ``module_prefix`` defines."""
    for name, module in MODULES.items():
        if not (name + ".").startswith(module_prefix + "."):
            continue
        for cls in ast.walk(module.tree):
            if isinstance(cls, ast.ClassDef):
                for statement in cls.body:
                    if isinstance(statement, _DEFS[1:]):
                        yield name, cls.name, statement


def unreached_methods():
    """Public methods and properties named nowhere outside their own
    definition."""
    used = collections.Counter()
    for module in MODULES.values():
        used += _names_used(module.tree)
    for top in ("benchmarks", "examples"):
        for path in sorted((ROOT / top).rglob("*.py")):
            used += _names_used(ast.parse(path.read_text()))
    return sorted(
        f"{module}.{cls}.{method.name}"
        for module, cls, method in _methods()
        if not method.name.startswith("_")
        and used[method.name] <= _names_used(method)[method.name]
    )


def test_every_public_method_is_named_somewhere_or_listed():
    found = unreached_methods()
    missing = [name for name in found if name not in TEST_ONLY_METHODS]
    assert not missing, (
        "public methods nothing under src/, benchmarks/ or examples/ "
        "names (delete them, or add them to TEST_ONLY_METHODS with the "
        f"reason): {missing}"
    )
    stale = sorted(set(TEST_ONLY_METHODS) - set(found))
    assert not stale, f"TEST_ONLY_METHODS names now reached or gone: {stale}"


def test_deleted_test_only_methods_stay_gone():
    back = sorted(
        DELETED_METHODS & {
            f"{module}.{cls}.{method.name}"
            for module, cls, method in _methods()
        }
    )
    assert not back, f"deleted methods defined again: {back}"


def test_deleted_names_stay_gone():
    defined = set(MODULES) | {
        f"{name}.{top}"
        for name, module in MODULES.items()
        for top in module.public_defs
    }
    assert not DELETED_NAMES & defined, sorted(DELETED_NAMES & defined)
    names = {name.rpartition(".")[2] for name in DELETED_NAMES}
    names |= {"LearnedCandidateSelector", "ShardedIndex", "shard_for"}
    for package in (repro, repro.core, repro.text, repro.annotators,
                    repro.serving):
        back = names & set(package.__all__)
        assert not back, (package.__name__, back)


def test_the_reader_protocol_is_its_primitives():
    from repro.search.index_reader import IndexReader

    assert IndexReader.__abstractmethods__ == READER_PRIMITIVES


def test_no_option_selects_a_learned_strategy_classifier():
    from repro.core.eil import EILSystem

    # After self: the taxonomy, the collection and ten options.
    settings = list(inspect.signature(EILSystem.__init__).parameters)[1:]
    assert "strategy_classifier" not in settings
    assert len(settings) == 12, settings


def test_no_option_selects_a_shard_count(tmp_path):
    # One index layout: nothing partitions the index, so neither the
    # system (constructed, built or loaded) nor the CLI takes a count.
    # ``load`` reads a snapshot before it takes its options.
    from repro import CorpusConfig, CorpusGenerator
    from repro.cli import build_parser
    from repro.core.eil import EILSystem

    assert "shards" not in inspect.signature(EILSystem.__init__).parameters
    corpus = CorpusGenerator(
        CorpusConfig(n_deals=2, docs_per_deal=12, n_threads=0)
    ).generate()
    with pytest.raises(TypeError, match="shards"):
        EILSystem.build(corpus, shards=1)
    EILSystem.build(corpus).save_index(str(tmp_path))
    with pytest.raises(TypeError, match="shards"):
        EILSystem.load(str(tmp_path), corpus, shards=1)

    parser = build_parser()
    parsers = [parser] + [
        subparser
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
        for subparser in action.choices.values()
    ]
    flags = {
        flag
        for each in parsers
        for action in each._actions
        for flag in action.option_strings
    }
    assert not {flag for flag in flags if "shard" in flag}, sorted(flags)


def test_repro_db_has_one_evaluator():
    # compile_expression is how repro.db evaluates; the interpreter it
    # replaced is the oracle tests/reference/expr.py and stays there.
    interpreters = [
        f"{module}.{cls}.{method.name}"
        for module, cls, method in _methods("repro.db")
        if method.name == "evaluate"
    ]
    assert not interpreters, interpreters


def test_there_is_one_search_engine_and_nobody_else_takes_its_lock():
    # A second class that ranks would be a second engine, and a module
    # reaching for another object's ``_rw`` a lock proxy around the
    # first.  A class's own ``self._rw`` (the database's) is its own.
    rankers = [
        f"{module}.{cls}"
        for module, cls, method in _methods()
        if method.name == "_rank"
    ]
    assert rankers == ["repro.search.engine.SearchEngine"], rankers
    borrowed = [
        f"{name}:{node.lineno}"
        for name, module in MODULES.items()
        if name != "repro.search.engine"
        for node in ast.walk(module.tree)
        if isinstance(node, ast.Attribute) and node.attr == "_rw"
        and not (isinstance(node.value, ast.Name) and node.value.id == "self")
    ]
    assert not borrowed, borrowed


def _calls_by_function(attribute):
    """``module.Class.function`` of every call of ``.attribute(...)``
    under ``src/repro``."""
    callers = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(
                child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                inner = f"{scope}.{child.name}"
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr == attribute
            ):
                callers.add(inner)
            visit(child, inner)

    for name, module in MODULES.items():
        visit(module.tree, name)
    return callers


def test_a_scope_becomes_document_ids_only_where_ids_are_needed():
    # An activity scope is checked on the postings against the metadata
    # column.  Resolving it to document ids is for offboarding a deal;
    # everything else is a reader forwarding the call.
    forwarding = {
        "repro.search.engine.SearchEngine.docs_with_metadata",
        "repro.search.index_reader.CompositeIndexReader.docs_with_metadata",
    }
    callers = _calls_by_function("docs_with_metadata") - forwarding
    assert callers == {"repro.core.eil.EILSystem.remove_deal"}, callers


def test_a_hit_carries_what_it_shows_and_never_decodes_a_document():
    # A shown hit is its stored fields and a snippet: the docstore
    # record's fields part, never its metadata tail.  Whoever needs a
    # hit's deal reads it through the index.
    import dataclasses

    from repro.search import SearchHit

    names = [field.name for field in dataclasses.fields(SearchHit)]
    assert names == ["doc_id", "score", "fields", "snippet"]
    assert not hasattr(SearchHit, "document")
    assert not hasattr(SearchHit, "metadata")
    assert "repro.search.engine.Ranking.hit" not in _calls_by_function(
        "document"
    )
    assert "repro.search.engine.Ranking.hit" in _calls_by_function(
        "stored_fields"
    )


def test_the_engine_filters_on_a_scope_never_on_document_ids():
    from repro.errors import SearchError
    from repro.search import IndexableDocument, SearchEngine

    engine = SearchEngine()
    engine.add(IndexableDocument("a", {"body": "services"}, {"deal_id": "d"}))
    for ids in ({"a"}, frozenset({"a"}), {"a": 1}.keys()):
        for run in (
            lambda: engine.search("services", None, ids),
            lambda: engine.select("services", len, None, ids),
            lambda: engine.count("services", ids),
        ):
            with pytest.raises(SearchError):
                run()
    assert engine.count("services", ("deal_id", {"d"})) == 1


def test_a_cached_answer_is_frozen_and_never_copied():
    # The query cache hands every hit the one answer it stored.  That is
    # safe only while no part of an answer can change: both answer
    # types are frozen and hold tuples, and the per-hit copy stays gone.
    import dataclasses
    import typing

    from repro.core import search

    def mentions_list(hint):
        return (hint is list or typing.get_origin(hint) is list
                or any(map(mentions_list, typing.get_args(hint))))

    for cls in (search.EilResults, search.ActivityResult):
        assert cls.__dataclass_params__.frozen, cls
        hints = typing.get_type_hints(cls)
        listy = [f.name for f in dataclasses.fields(cls)
                 if mentions_list(hints[f.name])]
        assert not listy, (cls, listy)
    assert not hasattr(search, "_copy_results")
    copiers = [
        path for path in (SRC / "repro").rglob("*.py")
        if "_copy_results" in path.read_text()
    ]
    assert not copiers, copiers


def test_the_front_door_has_no_worker_pool():
    # EILServer runs each request on its caller's thread behind two
    # semaphores: a thread pool would add a hand-off per request and,
    # under the GIL, no parallelism.  The CPE's process pool is the one
    # executor in the program.
    pools = {
        word
        for path in (SRC / "repro").rglob("*.py")
        for word in re.findall(r"\bFuture\b|\w*Executor\b", path.read_text())
    }
    assert pools == {"ProcessPoolExecutor"}, pools
    submits = [
        method.name
        for _, cls, method in _methods("repro.serving.server")
        if cls == "EILServer" and method.name.startswith("submit_")
    ]
    assert not submits, submits


def test_the_program_reads_only_the_deployment_shape_from_the_environment():
    # REPRO_WORKERS re-runs a whole suite in another deployment shape;
    # a variable that selects a second code path is an option nobody
    # sets.  A read is ``os.environ.get("NAME", ...)``.
    read, elsewhere = set(), []
    for path in sorted((SRC / "repro").rglob("*.py")):
        text = path.read_text()
        names = re.findall(r"""\bos\.environ\.get\(\s*["'](\w+)["']""", text)
        read.update(names)
        if len(re.findall(r"\b(?:environ|getenv)\b", text)) != len(names):
            elsewhere.append(str(path.relative_to(SRC)))
    assert not elsewhere, elsewhere
    assert read == ENVIRONMENT, read


def test_every_load_verifies_what_it_reads():
    # Checksums and lengths are checked on every load: no ``verify``
    # switch, and no Segment.open, the loader only it selected.
    switches = [
        f"{name}:{node.lineno}"
        for name, module in MODULES.items()
        for node in ast.walk(module.tree)
        if isinstance(node, _DEFS[1:]) and node.name.startswith("load")
        and "verify" in [
            arg.arg for arg in node.args.args + node.args.kwonlyargs
        ]
    ]
    assert not switches, switches
    opens = [
        method.name
        for _, cls, method in _methods("repro.storage.segment")
        if cls == "Segment" and method.name == "open"
    ]
    assert not opens


def test_saved_files_have_one_checksum():
    # Every saved JSON file goes through repro.storage.atomic's
    # encode_document / decode_document, and segment files through its
    # checksum(); the fault injector's hash picks faults, not files.
    hashing = sorted(
        str(path.relative_to(SRC / "repro"))
        for path in (SRC / "repro").rglob("*.py")
        if re.search(r"^import hashlib\b", path.read_text(), re.M)
    )
    assert hashing == ["faults/injection.py", "storage/atomic.py"], hashing


def test_database_runs_sql_one_way():
    # execute() runs every statement, EXPLAIN included: no select()
    # that skips the parser, no explain() beside the EXPLAIN statement.
    defined = {
        method.name
        for _, cls, method in _methods("repro.db.database")
        if cls == "Database"
    }
    assert not defined & {"select", "explain"}, defined


def test_repro_db_has_one_index_and_one_insert_path():
    # SQL is SELECT, DELETE, CREATE TABLE, CREATE INDEX and EXPLAIN; a
    # row enters through Database.insert, and an index answers equality
    # and substring probes only: a range conjunct filters a scan.
    assert not {"SortedIndex", "HashIndex"} & set(dir(repro.db))
    assert "sorted_" not in inspect.signature(Table.create_index).parameters
    for sql in ("UPDATE t SET a = 1", "INSERT INTO t VALUES (1)",
                "DROP TABLE t"):
        with pytest.raises(SqlSyntaxError, match="expected a SQL statement"):
            parse(sql)
    assert "index range" not in (SRC / "repro" / "db" / "plan.py").read_text()


def test_grouped_aggregates_fold_one_way():
    # A plan decides how each aggregate folds (plan._GroupFold); the
    # per-group, per-aggregate state objects it replaced stay gone.
    plan_module = MODULES["repro.db.plan"]
    assert "_AggregateState" not in plan_module.nodes
    folds = [
        node.name for node in ast.walk(plan_module.tree)
        if isinstance(node, ast.ClassDef) and "Aggregat" in node.name
    ]
    assert not folds, folds


def test_fixed_metric_names_are_recorded_through_handles():
    # A metric with a fixed name is bound once (CounterHandle,
    # GaugeHandle, HistogramHandle); only names built per call, such as
    # faults.injected.<component>.<kind>, are resolved on the registry.
    by_name = [
        f"{name}:{node.lineno}"
        for name, module in MODULES.items()
        if name != "repro.obs" and not name.startswith("repro.obs.")
        for node in ast.walk(module.tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in {"inc", "observe"}
        and node.args
        and isinstance(node.args[0], ast.Constant)
        and isinstance(node.args[0].value, str)
    ]
    assert not by_name, by_name


def test_one_histogram_and_no_sample_buffer():
    # The bucketed histogram is the only one: no sample buffer to size,
    # decimate or stride through.
    histograms = [
        f"{name}.{node.name}"
        for name, module in MODULES.items()
        if name == "repro.obs" or name.startswith("repro.obs.")
        for node in module.tree.body
        if isinstance(node, ast.ClassDef)
        and {"observe", "percentile"} <= {
            item.name for item in node.body
            if isinstance(item, ast.FunctionDef)
        }
    ]
    assert histograms == ["repro.obs.metrics.Histogram"], histograms
    assert "max_samples" not in inspect.signature(Histogram).parameters
    histogram = Histogram("h")
    histogram.observe(1.0)
    gone = [
        attribute
        for attribute in ("max_samples", "_samples", "_stride", "_pending")
        if hasattr(histogram, attribute)
    ]
    assert not gone, gone


def test_term_dictionaries_compile_in_one_place():
    # A term dictionary becomes a regex through repro.text.terms'
    # term_pattern only: no annotator joins its own alternation.
    joining = sorted(
        str(path.relative_to(SRC / "repro"))
        for path in (SRC / "repro").rglob("*.py")
        if '"|".join(' in path.read_text()
    )
    assert joining == ["text/terms.py"], joining
    assert "term_pattern" not in repro.text.__all__


def test_every_public_name_is_reached_or_is_entry_point_api():
    missing = [name for name in unreached() if name not in ENTRY_POINT_API]
    assert not missing, (
        "public names no entry point reaches (delete them, move an "
        "oracle to tests/reference/, or add them to ENTRY_POINT_API with "
        f"the reason): {missing}"
    )


def test_allow_list_names_exist():
    gone = sorted(
        name for name in ENTRY_POINT_API
        if name.rpartition(".")[2]
        not in getattr(MODULES.get(name.rpartition(".")[0]), "public_defs", ())
    )
    assert not gone, f"ENTRY_POINT_API names that no longer exist: {gone}"


def test_every_dunder_all_name_resolves():
    broken = [
        f"repro.{name}" for name in repro.__all__ if not hasattr(repro, name)
    ]
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        broken += [
            f"{info.name}.{name}"
            for name in getattr(module, "__all__", ())
            if not hasattr(module, name)
        ]
    assert not broken, f"__all__ names that do not resolve: {broken}"
