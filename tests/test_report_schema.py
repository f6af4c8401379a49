"""docs/report-schema.md lists exactly the keys the CLI emits.

Every subcommand's section documents `results` as a table of dotted key
paths (list entries as `name[].field`).  Each test runs the subcommand at a
tiny scale and compares the flattened keys of its `results` with the table,
so a key added, renamed or dropped on either side fails here.  The envelope
and each command's `config` echo are checked the same way, the echo also
against the options the command's parser takes.
"""

import json
import re
from pathlib import Path

import pytest

from mfcontrol import get_builtin, main
from mfcontrol.cli import build_parser

DOC = Path(__file__).resolve().parent.parent / "docs" / "report-schema.md"
TINY = ["--seed", "3", "--particles", "400", "--steps", "10"]


def documented_keys(command: str) -> set[str]:
    text = DOC.read_text()
    start = text.index(f"## `{command}`")
    end = text.find("\n## ", start + 1)
    section = text[start:end if end >= 0 else None]
    keys = set(re.findall(r"^\| `([^`]+)` \|", section, flags=re.MULTILINE))
    assert keys, f"no key table in the {command} section"
    return keys


def emitted_keys(obj, prefix: str = "") -> set[str]:
    out = set()
    if isinstance(obj, dict):
        for key, value in obj.items():
            path = f"{prefix}.{key}" if prefix else key
            out.add(path)
            out |= emitted_keys(value, path)
    elif isinstance(obj, list):
        for item in obj:
            if isinstance(item, dict):
                out |= emitted_keys(item, f"{prefix}[]")
    return out


def run_results(capsys, argv):
    code = main([*argv, *TINY])
    return code, json.loads(capsys.readouterr().out)["results"]


def test_simulate_keys_match_schema(capsys):
    code, results = run_results(capsys, ["simulate", "--scenario", "zero-drift"])
    assert code == 0
    assert emitted_keys(results) == documented_keys("simulate")


def test_evaluate_keys_match_schema(capsys):
    code, results = run_results(capsys, ["evaluate", "--scenario", "linear-quadratic",
                                         "--control", "constant:0.5",
                                         "--control", "parametric:0,1,0"])
    assert code == 0
    assert len(results["controls"]) == 2
    assert emitted_keys(results) == documented_keys("evaluate")


def test_evaluate_game_keys_match_schema(capsys):
    code, results = run_results(capsys, ["evaluate", "--scenario", "separated-game",
                                         "--control", "constant:-1",
                                         "--control", "constant:1"])
    assert code == 0
    assert results["controls"][0]["label"] == "(const[-1], const[1])"
    assert emitted_keys(results) == documented_keys("evaluate")


def test_fixpoint_keys_match_schema(capsys):
    scenario = "mean-field-mean-reversion"
    code, results = run_results(capsys, ["fixpoint", "--scenario", scenario,
                                         "--control", "constant:0.5"])
    assert code == 0
    assert results["diagnostics"]["applications"] >= 2   # contraction is present
    # statistics_horizon has one key per scenario statistic, not a fixed schema
    stats = results.pop("statistics_horizon")
    assert set(stats) == set(get_builtin(scenario).statistic_map)
    documented = documented_keys("fixpoint") - {"statistics_horizon"}
    assert emitted_keys(results) == documented


def test_game_keys_match_schema(capsys):
    code, results = run_results(capsys, ["game", "--scenario", "separated-game"])
    assert code in (0, 1)
    assert results["aborted"] is False
    assert emitted_keys(results) == documented_keys("game")


def test_aborted_game_keys_match_schema(capsys):
    code, results = run_results(capsys, ["game", "--scenario", "bilinear-game"])
    assert code == 1
    assert results["aborted"] is True
    documented = {k for k in documented_keys("game")
                  if k == "aborted" or k.split(".")[0] == "isaacs"}
    assert emitted_keys(results) == documented



def test_optimize_keys_match_schema(capsys):
    code, results = run_results(capsys, ["optimize", "--scenario", "linear-quadratic"])
    assert code in (0, 1)
    assert results["trace"]
    assert emitted_keys(results) == documented_keys("optimize")


def test_verify_keys_match_schema(capsys):
    code, results = run_results(capsys, ["verify"])
    assert code in (0, 1)
    assert len(results["criteria"]) == 10
    # each criterion's details has its own keys; the table pins the rest
    emitted = {k for k in emitted_keys(results) if not k.startswith("criteria[].details.")}
    assert emitted == documented_keys("verify")


def documented_section(title: str) -> str:
    text = DOC.read_text()
    start = text.index(f"## {title}\n")
    end = text.find("\n## ", start + 1)
    return text[start:end if end >= 0 else None]


def documented_envelope() -> set[str]:
    return set(re.findall(r"^\| `([^`]+)` \|", documented_section("Envelope"),
                          flags=re.MULTILINE))


def documented_config(command: str) -> set[str]:
    row = re.search(rf"^\| `{command}` \| (.*) \|$", documented_section("`config`"),
                    flags=re.MULTILINE)
    assert row, f"no config row for {command}"
    return set(re.findall(r"`([^`]+)`", row.group(1)))


# each command with every option it takes given, --out aside
EVERY_OPTION = {
    "simulate": ["--scenario", "zero-drift", "--override-validation"],
    "fixpoint": ["--scenario", "linear-quadratic", "--override-validation", "--tol", "1e-2",
                 "--control", "constant:0.5"],
    "evaluate": ["--scenario", "linear-quadratic", "--override-validation", "--tol", "1e-2",
                 "--control", "constant:0.5", "--controls-file", "controls.json"],
    "optimize": ["--scenario", "linear-quadratic", "--override-validation", "--tol", "1e-2",
                 "--basis-degree", "2"],
    "game": ["--scenario", "separated-game", "--override-validation", "--tol", "1e-2",
             "--basis-degree", "2"],
    "verify": ["--tol", "1e-2", "--basis-degree", "2"],
}
# option (its argparse dest) -> its config key, where they differ
ECHO_KEYS = {"config": "config_path", "control": "controls"}


@pytest.mark.parametrize("command", EVERY_OPTION)
def test_config_echoes_the_options_the_command_parses(capsys, tmp_path, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    Path("controls.json").write_text(json.dumps(["constant:-0.5"]))
    argv = [command, *EVERY_OPTION[command], *TINY, "--out", "out"]
    code = main(argv)
    capsys.readouterr()
    assert code in (0, 1)
    doc = json.loads(Path("out", "report.json").read_text())
    assert set(doc) == documented_envelope()
    parsed = vars(build_parser().parse_args(argv))
    options = {ECHO_KEYS.get(dest, dest) for dest in parsed} - {"command", "out"}
    assert set(doc["config"]) == options == documented_config(command)
    assert (doc["validation"] is None) == (command == "verify")
