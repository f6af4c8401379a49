"""Every name a library module imports at top level is read in that module.

No linter runs on this tree, so an import that a deletion leaves behind goes
unseen; this scan of each module's syntax tree catches it.  __init__.py
imports to re-export, and `from __future__` imports are compiler directives,
so neither is scanned.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "mfcontrol"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names bound by the top-level imports of source that no Name node
    in it reads (`import a.b` binds a)."""
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_the_scan_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport os.path\nimport sys\n"
              "from math import pi, tau as turn\n\n\ndef f():\n    return sys.argv, turn\n")
    assert unused_imports(source) == ["os", "pi"]


@pytest.mark.parametrize("module", MODULES)
def test_every_top_level_import_is_read(module):
    assert unused_imports((SRC / module).read_text()) == []
