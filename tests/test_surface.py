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
"""

import ast
import importlib
import pathlib
import pkgutil

import repro

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Public names nothing above reaches, and why each is public anyway.
#: Every other public class or function must be reached.
ENTRY_POINT_API = {
    "repro.annotators.candidates.LearnedCandidateSelector":
        "paper §3.2.1 future work: the learned alternative to the "
        "heuristic candidate selection",
    "repro.core.metaqueries.graph_role_capacity_query":
        "library API: one builder per GraphQuery kind (meta-query 3)",
    "repro.core.metaqueries.graph_expertise_query":
        "library API: one builder per GraphQuery kind",
    "repro.core.metaqueries.graph_team_overlap_query":
        "library API: one builder per GraphQuery kind",
    # Not API: reached by their unit tests only.  Found by this gate's
    # first run and left for the next surface PR, each with its tests.
    "repro.db.types.compatible_python_type":
        "test-only; goes with tests/db/test_types.py's case",
    "repro.storage.varint.encode_uint":
        "test-only single-value form of the varint codec",
    "repro.storage.varint.skip_uint":
        "test-only; segment.py imports it and never calls it",
    "repro.text.similarity.levenshtein":
        "test-only; the dedup path uses jaro_winkler",
    "repro.text.similarity.levenshtein_ratio":
        "test-only; the dedup path uses jaro_winkler",
    "repro.text.similarity.token_set_ratio":
        "test-only; the dedup path uses jaro_winkler",
}

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
