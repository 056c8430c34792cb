"""Import hygiene: every name a `clockwork` module, a test or a script
imports is used there.  Beside it, the one fork site: only the methods
of `testkit._Forks` make or stop a process.

The checks read each file's source with `ast`: an imported name counts
as used when it is loaded as a plain name anywhere in the file.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# Package modules by their name; tests and scripts by their path in the repo.
FILES = {path.stem: path for path in (ROOT / "src" / "clockwork").glob("*.py")}
FILES.update({f"{path.parent.name}/{path.stem}": path for d in ("tests", "scripts") for path in (ROOT / d).glob("*.py")})

# Imported but never read.  perfbench's tracer re-points testkit.iter_trace,
# so the import stays until the tracer wraps smallstep.trace_stores instead.
UNUSED = {"testkit": ["iter_trace"]}


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - loaded)


def test_the_check_finds_an_unused_import():
    source = "from __future__ import annotations\nimport os, sys.path as p\nfrom .imp import N, V\nprint(N, p)\n"
    assert _unused_imports(source) == ["V", "os"]


@pytest.mark.parametrize("module", sorted(FILES))
def test_every_imported_name_is_used(module):
    assert _unused_imports(FILES[module].read_text(encoding="utf-8")) == UNUSED.get(module, [])


_PROCESS_CALLS = {"fork", "pipe", "kill", "waitpid", "_exit"}


def _process_calls(source: str) -> list[tuple[tuple[str, ...], str]]:
    """Each call of os.fork, os.pipe, os.kill, os.waitpid or os._exit in
    `source`: (the names of the classes and functions around it, its name)."""
    calls = []

    def walk(node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                walk(child, (*scope, child.name))
                continue
            if isinstance(child, ast.Call):
                f = child.func
                if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name) and f.value.id == "os" and f.attr in _PROCESS_CALLS:
                    calls.append((scope, f.attr))
            walk(child, scope)

    walk(ast.parse(source), ())
    return calls


def test_the_check_finds_a_process_call():
    source = "import os\nclass A:\n    def f(self):\n        g = lambda: os.fork()\nos._exit(os.getpid())\n"
    assert _process_calls(source) == [(("A", "f"), "fork"), ((), "_exit")]


def test_only_the_methods_of_testkit_forks_make_or_stop_a_process():
    calls = [
        (module, scope, name)
        for module, path in FILES.items()
        if "/" not in module  # the package's own modules
        for scope, name in _process_calls(path.read_text(encoding="utf-8"))
    ]
    assert {name for _, _, name in calls} == _PROCESS_CALLS  # the walk still sees each one
    assert [call for call in calls if call[0] != "testkit" or len(call[1]) < 2 or call[1][0] != "_Forks"] == []
