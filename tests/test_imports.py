"""Import hygiene: every name a `clockwork` module, a test or a script
imports is used there.

The check reads each file's source with `ast`: an imported name counts
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
