"""docs/config-schema.md lists exactly the keys the parser accepts in each
mapping of a config document.

Each section documents its mapping's keys as a table whose first column
names the keys.  The top level, drift and running_cost tables have a second
column that says which kind reads each key (`control`, `game` or `both`).
The documented set must equal the parser's key table for that mapping (and
kind), and for drift and running_cost a document setting any one documented
key must parse, so a key added, renamed or dropped on either side fails
here.
"""

import re
from pathlib import Path

import pytest

from mfcontrol import builtin_config, parse_scenario
from mfcontrol.scenario import (_ACTION_KEYS, _COST_KEYS, _DIFFUSION_KEYS, _DRIFT_KEYS,
                                _SCENARIO_KEYS, _STATE_KEYS, _STATISTIC_KEYS, _TERMINAL_KEYS)

DOC = Path(__file__).resolve().parent.parent / "docs" / "config-schema.md"
BASE = {"control": "linear-quadratic", "game": "separated-game"}
# a valid value for each key that is not a plain number
VALUES = {"drift": {"stats": {"mean": 0.5}},
          "running_cost": {"state": {"kind": "tanh", "coeff": 0.5}, "stat": ["mean", 0.5]}}


def documented_keys(section: str, kind: str | None = None) -> set[str]:
    """Keys in the table of a mapping's section: section is the mapping's
    dotted path, or "" for the top level.  With kind, only the rows whose
    kind column reads that kind or both."""
    text = DOC.read_text()
    start = text.index(f"\n## `{section}`" if section else "\n## Top level\n")
    end = text.find("\n## ", start + 1)
    rows = re.findall(r"^\| (`[^|]+) \| (\S+)", text[start:end], flags=re.MULTILINE)
    assert rows, f"no key table in the {section or 'top level'} section"
    return {key for cell, reads in rows if kind is None or reads in (kind, "both")
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


@pytest.mark.parametrize("kind", ["control", "game"])
def test_documented_top_level_keys_are_the_parsed_keys(kind):
    assert documented_keys("", kind) == set(_SCENARIO_KEYS[kind])


@pytest.mark.parametrize("section,table", [
    ("diffusion", _DIFFUSION_KEYS),
    ("statistics", _STATISTIC_KEYS),
    ("terminal_cost", _TERMINAL_KEYS),
    ("running_cost.state", _STATE_KEYS),
    ("actions", _ACTION_KEYS),
])
def test_documented_mapping_keys_are_the_parsed_keys(section, table):
    assert documented_keys(section) == set(table)
