"""Every name a module imports at top level is read in that module.

No linter runs on this tree, so an import that a deletion leaves behind goes
unseen; this scan of each module's syntax tree catches it, over the library,
the demos and the tests.  The library's __init__.py imports to re-export,
`from __future__` imports are compiler directives, and an import on a line
marked `noqa: F401` is kept for its side effect, so none of them is scanned.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "mfcontrol"
# a library module by its file name, a demo or test by its path from the root
MODULES = {**{p.name: p for p in SRC.glob("*.py") if p.name != "__init__.py"},
           **{str(p.relative_to(ROOT)): p
              for p in (*(ROOT / "demos").glob("*.py"), *(ROOT / "tests").glob("*.py"))}}


def unused_imports(source: str) -> list[str]:
    """The names bound by the top-level imports of source that no Name node
    in it reads (`import a.b` binds a), imports on a `noqa: F401` line aside."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = set()
    for node in tree.body:
        if "noqa: F401" in lines[node.lineno - 1]:
            continue
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_the_scan_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport os.path\nimport sys\n"
              "import json  # noqa: F401  (kept for its side effect)\n"
              "from math import pi, tau as turn\n\n\ndef f():\n    return sys.argv, turn\n")
    assert unused_imports(source) == ["os", "pi"]


@pytest.mark.parametrize("module", sorted(MODULES))
def test_every_top_level_import_is_read(module):
    assert unused_imports(MODULES[module].read_text()) == []
