"""The library's settable values are counted, and the count is pinned.

A settable value is a parameter with a default or a dataclass field with a
default, anywhere in src/mfcontrol: each is a knob some caller may turn, and
every knob must be documented, tested and kept working.  The count only
moves on purpose, so a change that adds or removes one edits SETTABLE_VALUES
below and says why in CHANGES.md.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "mfcontrol"
SETTABLE_VALUES = 78


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any((isinstance(d, ast.Name) and d.id == "dataclass")
               or (isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass")
               for d in node.decorator_list)


def settable_values(source: str) -> int:
    """Parameters with defaults plus dataclass fields with defaults in source."""
    count = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            count += len(args.defaults) + sum(d is not None for d in args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            count += sum(isinstance(s, ast.AnnAssign) and s.value is not None
                         for s in node.body)
    return count


def test_the_count_reads_defaults_and_dataclass_fields():
    source = '''
from dataclasses import dataclass, field

def f(a, b=1, *, c, d=2): pass
g = lambda x, y=0: x

@dataclass(frozen=True)
class Spec:
    kind: str
    scale: float = 1.0
    tags: tuple = field(default=())

class Plain:
    scale: float = 1.0
'''
    assert settable_values(source) == 5


def test_settable_values_are_pinned():
    count = sum(settable_values(p.read_text()) for p in sorted(SRC.glob("*.py")))
    assert count == SETTABLE_VALUES, (
        f"src/mfcontrol has {count} settable values, not {SETTABLE_VALUES}: state the "
        "new number and the reason in CHANGES.md, then set SETTABLE_VALUES to it")
