"""The CLI contract as a property over the config grammar.

Documents are a built-in's config with a few keys set to drawn leaf values
or removed.  The keys come from the scenario module's key tables, so a key
added to a table is fuzzed with no edit here.  Each document runs through
cli.main at 100 particles and 5 steps on optimize (or game), fixpoint and
evaluate, and every run keeps the contract:

- the exit code is 0, 1 or 2, and no exception escapes;
- exit 2 prints one "configuration error:" line, which names a dotted path
  into the document;
- exit 0 reports only finite numbers.

The search is derandomized with a fixed budget, so the suite stays
deterministic.  Sizes (action counts) draw from a small range only.
"""

import contextlib
import io
import json
import math
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import mfcontrol.scenario as scen_mod
from mfcontrol import builtin_config, builtin_scenarios
from mfcontrol.cli import main

SIZE = ["--particles", "100", "--steps", "5", "--seed", "7"]


def key_paths(kind: str) -> list[tuple[tuple, bool]]:
    """Every key a document of this kind may set, as (path of keys, whether
    its table reads a number): the top-level keys and the keys of their
    mappings."""
    nested = {(): scen_mod._SCENARIO_KEYS[kind], ("diffusion",): scen_mod._DIFFUSION_KEYS,
              ("drift",): scen_mod._DRIFT_KEYS[kind],
              ("running_cost",): scen_mod._COST_KEYS[kind],
              ("running_cost", "state"): scen_mod._STATE_KEYS,
              ("terminal_cost",): scen_mod._TERMINAL_KEYS,
              ("statistics", "mean"): scen_mod._STATISTIC_KEYS,
              **{(grid,): scen_mod._ACTION_KEYS for grid in scen_mod._GRIDS[kind]}}
    return [((*top, key), read is scen_mod._as_float)
            for top, table in nested.items() for key, (_, read) in table.items()]


KINDS = (*scen_mod._STAT_KINDS, *scen_mod._SIGMA_KINDS, *scen_mod._TERMINAL_KINDS,
         *scen_mod._STATE_KINDS, *scen_mod._GRIDS)
NUMBERS = st.one_of(st.floats(-3.0, 3.0), st.integers(0, 12),
                    st.sampled_from([0.0, -0.0, 1e-300, 1e308, -1e308, math.inf, math.nan]))
OTHERS = st.one_of(st.sampled_from(KINDS), st.sampled_from(["mean", "nope"]),
                   st.lists(NUMBERS, max_size=2), st.tuples(st.just("mean"), NUMBERS).map(list),
                   st.dictionaries(st.sampled_from(["mean", "nope"]), NUMBERS, max_size=1),
                   st.none(), st.booleans())
LEAVES = st.one_of(NUMBERS, OTHERS)


def leaves(numeric: bool):
    """Leaf values for a key: seven in eight numbers where the key reads one."""
    return st.integers(0, 7).flatmap(lambda i: NUMBERS if i else OTHERS) if numeric else LEAVES


@st.composite
def documents(draw):
    """A built-in's document with one or two keys set (or, one time in four,
    removed)."""
    doc = builtin_config(draw(st.sampled_from(builtin_scenarios())))
    for _ in range(draw(st.integers(1, 2))):
        kind = doc.get("kind", "control")
        path, numeric = draw(st.sampled_from(
            key_paths(kind if kind in tuple(scen_mod._GRIDS) else "control")))
        parent = doc
        for key in path[:-1]:
            if not isinstance(parent.get(key), dict):
                parent[key] = {}
            parent = parent[key]
        if draw(st.integers(0, 3)) == 0 and path[-1] in parent:
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(leaves(numeric))
    return doc


def run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def numbers(doc):
    if isinstance(doc, dict):
        for value in doc.values():
            yield from numbers(value)
    elif isinstance(doc, list):
        for value in doc:
            yield from numbers(value)
    elif isinstance(doc, float):
        yield doc


# the start of a dotted path into a document: a key, then .key or [index] parts
DOTTED = re.compile(r"^[A-Za-z_][\w-]*(\.[\w-]+|\[\d+\])*: ")


# the overflows a run meets are warnings on its stderr, not errors
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=200, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(doc=documents())
def test_every_document_keeps_the_cli_contract(doc, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))   # non-finite floats become NaN / Infinity
    game = doc.get("kind") == "game"
    controls = ["constant:0.5", "constant:-0.5"] if game else ["constant:0.5"]
    commands = [["game" if game else "optimize"],
                ["fixpoint", *(a for c in controls for a in ("--control", c))],
                ["evaluate", *(a for c in controls for a in ("--control", c))]]
    for command in commands:
        code, out, err = run([*command, "--config", str(config), *SIZE])
        assert code in (0, 1, 2), (command, code, err)
        if code == 2:
            lines = [line for line in err.splitlines()
                     if line.startswith("configuration error: ")]
            assert len(lines) == 1, err
            assert DOTTED.match(lines[0].removeprefix("configuration error: ")), lines[0]
        if code == 0:
            assert all(math.isfinite(x) for x in numbers(json.loads(out))), out
