"""docs/config-schema.md lists exactly the drift and running_cost keys the
parser accepts for each scenario kind.

Each of the two sections documents its keys as a table whose first column
names the keys and whose second column says which kind reads them
(`control`, `game` or `both`).  The documented set must equal the parser's
key table for that kind, and a document setting any one documented key must
parse, so a key added, renamed or dropped on either side fails here.
"""

import re
from pathlib import Path

import pytest

from mfcontrol import builtin_config, parse_scenario
from mfcontrol.scenario import _COST_KEYS, _DRIFT_KEYS

DOC = Path(__file__).resolve().parent.parent / "docs" / "config-schema.md"
BASE = {"control": "linear-quadratic", "game": "separated-game"}
# a valid value for each key that is not a plain number
VALUES = {"drift": {"stats": {"mean": 0.5}},
          "running_cost": {"state": {"kind": "tanh", "coeff": 0.5}, "stat": ["mean", 0.5]}}


def documented_keys(section: str, kind: str) -> set[str]:
    text = DOC.read_text()
    start = text.index(f"## `{section}`")
    end = text.find("\n## ", start + 1)
    rows = re.findall(r"^\| (`[^|]+) \| (\w+) \|", text[start:end], flags=re.MULTILINE)
    assert rows, f"no key table in the {section} section"
    return {key for cell, reads in rows if reads in (kind, "both")
            for key in re.findall(r"`([^`]+)`", cell)}


@pytest.mark.parametrize("kind", ["control", "game"])
@pytest.mark.parametrize("section,table", [("drift", _DRIFT_KEYS), ("running_cost", _COST_KEYS)])
def test_documented_keys_are_the_parsed_keys(section, table, kind):
    keys = documented_keys(section, kind)
    assert keys == set(table[kind])
    for key in sorted(keys):
        doc = builtin_config(BASE[kind])
        doc[section] = {key: VALUES[section].get(key, 0.5)}
        parse_scenario(doc)
