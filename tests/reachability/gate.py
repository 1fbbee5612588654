"""Call-level reachability: which functions of ``src/repro`` no entry
point calls.

:func:`main` copies the checkout into a temporary directory, runs every
command of :data:`~tests.reachability.entries.ENTRIES` there with the
call recorder of :mod:`tests.reachability.hook` installed, and compares
what was called with every function the source defines (by AST, nested
ones included).  It fails on

* a function that was never called and is not in
  :data:`~tests.reachability.allowed.ALLOWED`;
* an allowed name that no longer exists;
* an allowed name that was called (the entry is stale);
* an entry point that exits with an error.

A function is identified by its file, the line its code object starts
on (the first decorator's line for a decorated function) and its name,
and reported by its qualified name, ``repro.db.table.Table.delete``
(``.<locals>.`` is left out of nested names).
"""

from __future__ import annotations

import ast
import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Set, Tuple

from tests.reachability.allowed import ALLOWED
from tests.reachability.entries import ENTRIES

ROOT = pathlib.Path(__file__).resolve().parents[2]
HOOK = pathlib.Path(__file__).resolve().parent / "hook.py"

#: What a trace records of a code object: file under ``src``, first
#: line, name.
CodeKey = Tuple[str, int, str]

_SKIP = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks"
)


@dataclass(frozen=True)
class Function:
    """One ``def`` in ``src/repro``."""

    qualname: str
    path: str
    first_line: int
    name: str
    lines: int

    @property
    def key(self) -> CodeKey:
        return (self.path, self.first_line, self.name)


def functions(src: pathlib.Path = ROOT / "src") -> Dict[str, Function]:
    """Every function defined under ``src/repro``, by qualified name."""
    found: Dict[str, Function] = {}
    for path in sorted((src / "repro").rglob("*.py")):
        relative = path.relative_to(src).as_posix()
        module = relative[:-3].replace("/", ".")
        if module.endswith(".__init__"):
            module = module[: -len(".__init__")]
        _collect(ast.parse(path.read_text()), module, relative, found)
    return found


def _collect(
    node: ast.AST, prefix: str, path: str, found: Dict[str, Function]
) -> None:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min(
                [child.lineno]
                + [decorator.lineno for decorator in child.decorator_list]
            )
            qualname = f"{prefix}.{child.name}"
            if qualname in found:  # a property setter, say
                qualname = f"{qualname}@{first}"
            found[qualname] = Function(
                qualname, path, first, child.name,
                child.end_lineno - first + 1,
            )
            _collect(child, qualname, path, found)
        elif isinstance(child, ast.ClassDef):
            _collect(child, f"{prefix}.{child.name}", path, found)
        else:
            _collect(child, prefix, path, found)


def trace(entries: Iterable[Tuple[str, List[str]]]) -> Tuple[
    Set[CodeKey], List[str]
]:
    """Run ``entries`` on a copy of the checkout under the recorder.

    Returns the code objects called and the labels of the entries that
    failed (their output tails are printed)."""
    called: Set[CodeKey] = set()
    failed: List[str] = []
    with tempfile.TemporaryDirectory(prefix="reachability-") as scratch:
        scratch_path = pathlib.Path(scratch)
        checkout = scratch_path / "checkout"
        shutil.copytree(ROOT, checkout, ignore=_SKIP)
        hook_dir = scratch_path / "hook"
        traces = scratch_path / "traces"
        work = scratch_path / "work"
        for directory in (hook_dir, traces, work):
            directory.mkdir()
        shutil.copy(HOOK, hook_dir / "sitecustomize.py")
        (hook_dir / "reachability.json").write_text(
            json.dumps({"root": str(checkout / "src"), "out": str(traces)})
        )
        env = {
            name: value for name, value in os.environ.items()
            if not name.startswith("REPRO_")
        }
        env["PYTHONPATH"] = os.pathsep.join(
            [str(hook_dir), str(checkout / "src")]
        )
        for label, argv in entries:
            command = [
                sys.executable if arg == "python" else
                arg.replace("{tmp}", str(work))
                for arg in argv
            ]
            started = time.perf_counter()
            done = subprocess.run(
                command, cwd=checkout, env=env, stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            )
            seconds = time.perf_counter() - started
            status = "ok" if done.returncode == 0 else "FAILED"
            print(f"  {status:6} {seconds:6.1f}s  {label}", flush=True)
            if done.returncode != 0:
                failed.append(label)
                print("\n".join(done.stdout.splitlines()[-20:]))
        for path in traces.glob("trace-*.json"):
            called.update(
                (file, line, name)
                for file, line, name in json.loads(path.read_text())
            )
    return called, failed


def check(
    defined: Dict[str, Function], never: Dict[str, Function]
) -> List[str]:
    """The gate's complaints, given the functions ``defined`` and those
    of them ``never`` called."""
    problems = []
    for qualname, function in sorted(never.items()):
        if qualname not in ALLOWED:
            problems.append(
                f"never called: {qualname} ({function.path}:"
                f"{function.first_line}, {function.lines} lines)"
            )
    for qualname in sorted(ALLOWED):
        if qualname not in defined:
            problems.append(f"allowed but gone: {qualname}")
        elif qualname not in never:
            problems.append(f"allowed but called (stale entry): {qualname}")
    return problems


def main() -> int:
    defined = functions()
    print(f"reachability: {len(ENTRIES)} entry points over "
          f"{len(defined)} functions in src/repro", flush=True)
    called, failed = trace(ENTRIES)
    never = {
        qualname: function for qualname, function in defined.items()
        if function.key not in called
    }
    print(f"never called: {len(never)} functions, "
          f"{sum(function.lines for function in never.values())} lines "
          f"({len(ALLOWED)} allowed)")
    problems = check(defined, never)
    problems += [f"entry point failed: {label}" for label in failed]
    for problem in problems:
        print(problem)
    print("reachability gate: " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0
