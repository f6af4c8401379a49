"""Command-line pipeline: exit codes, report shape, determinism.

Runs go through main(argv) in-process; stdout carries exactly one canonical
JSON document per run (wall time and notes are stderr only), so captured
output can be parsed and compared byte-for-byte across identical runs.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mfcontrol
from mfcontrol import builtin_config, builtin_scenarios, main

FAST = ["--seed", "3", "--particles", "400", "--steps", "10"]


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, _ = run_cli(capsys, argv)
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# argument handling


def test_missing_subcommand_exits_2(capsys):
    assert main([]) == 2


def test_unknown_subcommand_exits_2(capsys):
    assert main(["transmogrify", "--seed", "1"]) == 2


def test_unknown_flag_exits_2(capsys):
    assert main(["simulate", "--scenario", "zero-drift", "--seed", "1",
                 "--frobnicate"]) == 2


def test_seed_is_required(capsys):
    assert main(["simulate", "--scenario", "zero-drift"]) == 2


def test_scenario_and_config_are_exclusive(capsys, tmp_path):
    cfg = tmp_path / "s.json"
    cfg.write_text("{}")
    assert main(["simulate", "--scenario", "zero-drift", "--config", str(cfg),
                 "--seed", "1"]) == 2


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("mfcontrol ")


def test_list_scenarios(capsys):
    code, out, _ = run_cli(capsys, ["list-scenarios"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 6
    assert any(line.startswith("linear-quadratic") for line in lines)
    assert any("game" in line for line in lines)


def run_module(*argv, flags=()):
    src = str(Path(mfcontrol.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *flags, "-m", *argv], env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("module", ["mfcontrol", "mfcontrol.cli"])
def test_module_entry_points_list_scenarios(module):
    proc = run_module(module, "list-scenarios")
    assert proc.returncode == 0, proc.stderr
    names = [line.split()[0] for line in proc.stdout.strip().splitlines()]
    assert names == list(builtin_scenarios())
    assert "RuntimeWarning" not in proc.stderr


@pytest.mark.parametrize("module", ["mfcontrol", "mfcontrol.cli"])
def test_module_entry_points_exit_2_on_bad_flag(module):
    proc = run_module(module, "simulate", "--scenario", "zero-drift", "--seed", "1",
                      "--frobnicate")
    assert proc.returncode == 2
    assert proc.stdout == ""


def runnable(command: str) -> list[str]:
    """The command with the scenario and the control it needs, if it takes them."""
    scenario = [] if command == "verify" else ["--scenario", "linear-quadratic"]
    control = ["--control", "constant:0"] if command in ("fixpoint", "evaluate") else []
    return [command, *scenario, *control]


# each on a command that reads the option; ids name the flag and its value
@pytest.mark.parametrize("command,flag,value,key", [
    pytest.param(*case, id=f"{case[1]}-{case[2]}") for case in [
        ("simulate", "--particles", "50", "particles"),
        ("simulate", "--steps", "0", "steps"),
        ("simulate", "--seed", "-1", "seed"),
        ("fixpoint", "--tol", "0", "tol"),
        ("fixpoint", "--tol", "nan", "tol"),
        ("evaluate", "--tol", "inf", "tol"),
        ("optimize", "--basis-degree", "0", "basis-degree"),
        ("verify", "--basis-degree", "-1", "basis-degree"),
    ]])
def test_invalid_run_parameters_exit_2(capsys, command, flag, value, key):
    code, out, err = run_cli(capsys, [*runnable(command), "--seed", "1", flag, value])
    assert code == 2
    assert out == ""
    assert err.startswith(f"configuration error: {key}: ")


# each command takes only the options its handler reads
@pytest.mark.parametrize("command,option", [
    ("simulate", ["--tol", "0.5"]),
    ("simulate", ["--basis-degree", "9"]),
    ("fixpoint", ["--basis-degree", "9"]),
    ("evaluate", ["--basis-degree", "9"]),
    ("verify", ["--scenario", "linear-quadratic"]),
    ("verify", ["--config", "scenario.json"]),
    ("verify", ["--override-validation"]),
])
def test_an_option_the_command_does_not_read_exits_2(capsys, tmp_path, command, option):
    code, out, err = run_cli(capsys, [*runnable(command), *FAST, *option,
                                      "--out", str(tmp_path)])
    assert code == 2
    assert out == ""
    assert f"unrecognized arguments: {option[0]}" in err
    assert not list(tmp_path.rglob("report.json"))


@pytest.mark.parametrize("case", ["config-directory", "config-not-utf8",
                                  "controls-file-directory", "out-existing-file",
                                  "out-under-a-file"])
def test_unusable_paths_exit_2(capsys, tmp_path, case):
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(json.dumps(builtin_config("zero-drift")).encode() + b" \xe9")
    existing = tmp_path / "existing"
    existing.write_text("")
    argv = {
        "config-directory": ["simulate", "--config", str(tmp_path)],
        "config-not-utf8": ["simulate", "--config", str(latin1)],
        "controls-file-directory": ["evaluate", "--scenario", "linear-quadratic",
                                    "--controls-file", str(tmp_path)],
        "out-existing-file": ["simulate", "--scenario", "zero-drift", "--out", str(existing)],
        "out-under-a-file": ["simulate", "--scenario", "zero-drift",
                             "--out", str(existing / "out")],
    }[case]
    code, out, err = run_cli(capsys, [*argv, *FAST])
    assert code == 2
    assert err.startswith("configuration error: ")
    assert out == ""
    assert not list(tmp_path.rglob("report.json"))


def test_unknown_builtin_exits_2(capsys):
    assert main(["simulate", "--scenario", "nope", "--seed", "1"]) == 2


def test_missing_config_file_exits_2(capsys):
    code, _, err = run_cli(capsys, ["simulate", "--config", "/no/such/file.json",
                                    "--seed", "1"])
    assert code == 2
    assert "configuration error" in err


def test_invalid_config_json_exits_2(capsys, tmp_path):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    assert main(["simulate", "--config", str(cfg), *FAST]) == 2


def test_blocked_validation_exits_2_unless_overridden(capsys, tmp_path):
    cfg = tmp_path / "degenerate.json"
    cfg.write_text(json.dumps({
        "kind": "control",
        "name": "no-noise",
        "dimension": 1,
        "initial": [0.0],
        "horizon": 1.0,
        "diffusion": {"kind": "constant", "base": 0.0},
        "statistics": {"mean": {"kind": "identity"}},
        "drift": {},
        "running_cost": {},
        "terminal_cost": {"kind": "linear", "coeff": 1.0},
        "actions": {"lo": -1.0, "hi": 1.0, "count": 3},
    }))
    code, _, err = run_cli(capsys, ["simulate", "--config", str(cfg), *FAST])
    assert code == 2
    # the message starts with the document key that decides the assumption
    assert err.startswith("configuration error: diffusion: scenario 'no-noise' has violated "
                          "assumptions: A2b (constant sigma is zero)")
    # the override admits the run, but the runtime singularity guard is not
    # waivable: sigma = 0 is a computation failure, not a config error
    code, _, err = run_cli(capsys, ["simulate", "--config", str(cfg), *FAST,
                                    "--override-validation"])
    assert code == 1
    assert "computation failed" in err
    assert "singular" in err


@pytest.mark.parametrize("base,key,value,path", [
    ("linear-quadratic", "diffusion", 5, "diffusion"),
    ("linear-quadratic", "diffusion", [1], "diffusion"),
    ("linear-quadratic", "running_cost", {"quad": 1.0, "state": "x"}, "running_cost.state"),
    ("linear-quadratic", "running_cost", {"quad": 1.0, "state": [1]}, "running_cost.state"),
    ("separated-game", "running_cost", {"quad_u": 1.0, "state": "x"}, "running_cost.state"),
    ("separated-game", "running_cost", {"quad_u": 1.0, "state": [1]}, "running_cost.state"),
    ("linear-quadratic", "actions", {"points": "ab"}, "actions.points"),
    ("linear-quadratic", "actions", {"points": [[0.0], ["ab"]]}, "actions.points[1]"),
    ("separated-game", "actions_v", {"points": "ab"}, "actions_v.points"),
    ("separated-game", "actions_v", {"points": ["ab"]}, "actions_v.points[0]"),
    ("linear-quadratic", "horizon", float("inf"), "horizon"),
    ("linear-quadratic", "initial", [float("nan")], "initial"),
    ("linear-quadratic", "actions", {"lo": float("nan"), "hi": 1.0, "count": 3}, "actions.lo"),
    ("linear-quadratic", "running_cost", {"quad": float("nan")}, "running_cost.quad"),
    ("linear-quadratic", "actions", {"points": [[]]}, "actions.points[0]"),
    ("linear-quadratic", "diffusion", {"kind": "constant", "matrix": 3}, "diffusion.matrix"),
    ("variance", "terminal_cost", {"kind": "variance", "stat": [1]}, "terminal_cost.stat"),
    ("linear-quadratic", "name", float("nan"), "name"),
    ("linear-quadratic", "drift", {"control_u": 1.0}, "drift.control_u"),
    ("linear-quadratic", "running_cost", {"quad_u": 1.0}, "running_cost.quad_u"),
    ("separated-game", "drift", {"control": 1.0}, "drift.control"),
    ("separated-game", "running_cost", {"quad": 1.0}, "running_cost.quad"),
    ("linear-quadratic", "running_cost", {"qaud": 1.0}, "running_cost.qaud"),
    ("linear-quadratic", "diffusion", {"kind": "affine_state", "slpoe": 0.5}, "diffusion.slpoe"),
    ("linear-quadratic", "terminal_cost", {"kind": "linear", "cof": 3.0}, "terminal_cost.cof"),
    ("linear-quadratic", "actions", {"lo": -1.0, "hi": 1.0, "cuont": 21}, "actions.cuont"),
    ("linear-quadratic", "statistics", {"mean": {"kind": "tanh", "scael": 2.0}},
     "statistics.mean.scael"),
    ("linear-quadratic", "running_cost", {"quad": 1.0, "state": {"kind": "tanh", "coef": 0.5}},
     "running_cost.state.coef"),
    ("linear-quadratic", "terminal_cst", {"kind": "linear", "coeff": 3.0}, "terminal_cst"),
    ("linear-quadratic", "actions_u", {"lo": -1.0, "hi": 1.0, "count": 3}, "actions_u"),
    ("linear-quadratic", "actions", {"points": [[0.0], [1.0]], "lo": -1.0}, "actions"),
    ("separated-game", "actions_v", {"lo": 1.0, "hi": -1.0, "count": 3}, "actions_v"),
    ("linear-quadratic", "statistics", {"mean": {"kind": "tanh", "scale": 0}}, "statistics.mean"),
    # the dynamics read one action coordinate: a longer point is refused, not
    # priced as its first coordinate
    ("linear-quadratic", "actions", {"points": [[-1, 0], [-1, 9], [0, 0], [0, 9], [1, 3]]},
     "actions.points[0]"),
    ("linear-quadratic", "actions", {"points": [-1, [0.0], [1.0, 2.0]]}, "actions.points[2]"),
    ("separated-game", "actions_u", {"points": [[0.0], [0.5, 0.5]]}, "actions_u.points[1]"),
    ("separated-game", "actions_v", {"points": [[-1.0, 1.0]]}, "actions_v.points[0]"),
    # the state is one number: a second coordinate and a sigma matrix are refused
    ("zero-drift", None, {"dimension": 2, "initial": [0, 0]}, "dimension"),
    ("linear-quadratic", "diffusion", {"kind": "constant", "matrix": [[2.0]]}, "diffusion.matrix"),
    # a control document reads no maximizer key, and a game spells u's grid actions_u
    ("linear-quadratic", "actions_v", {"lo": -1.0, "hi": 1.0, "count": 3}, "actions_v"),
    ("linear-quadratic", "drift", {"control_v": 1.0}, "drift.control_v"),
    ("linear-quadratic", "running_cost", {"quad_v": 1.0}, "running_cost.quad_v"),
    ("separated-game", "actions", {"lo": -1.0, "hi": 1.0, "count": 3}, "actions"),
])
def test_malformed_config_exits_2_without_traceback(capsys, tmp_path, base, key, value, path):
    doc = builtin_config(base)
    doc.update({key: value} if key else value)
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(doc))   # non-finite floats become Infinity / NaN
    code, out, err = run_cli(capsys, ["simulate", "--config", str(cfg), *FAST])
    assert code == 2
    assert out == ""
    assert f"configuration error: {path}: " in err
    assert "Traceback" not in err


def readme_commands() -> list[list[str]]:
    """The argument lists of the commands in the README's command-line block."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = text[text.index("## Command line"):].split("```")[1]
    return [line.split()[1:] for line in block.splitlines() if line.startswith("mfcontrol ")]


@pytest.mark.parametrize("argv", [a for a in readme_commands() if a[0] != "verify"],
                         ids=lambda argv: argv[0])
def test_readme_commands_run(capsys, tmp_path, argv):
    scale = {"--particles": "200", "--steps": "5", "--out": str(tmp_path)}
    if argv[0] != "list-scenarios":
        kept = [a for i, a in enumerate(argv)
                if a not in scale and (i == 0 or argv[i - 1] not in scale)]
        argv = [*kept, *(x for item in scale.items() for x in item)]
    code, _, err = run_cli(capsys, argv)
    assert code != 2, err


# ---------------------------------------------------------------------------
# simulate


def test_simulate_emits_canonical_report(capsys):
    code, doc = run_json(capsys, ["simulate", "--scenario", "zero-drift", *FAST])
    assert code == 0
    assert doc["command"] == "simulate"
    assert doc["config"]["seed"] == 3
    assert doc["config"]["particles"] == 400
    assert doc["version"].startswith("mfcontrol ")
    # the measured wall time goes to stderr only, so the report has no key for it
    assert "wall_time_seconds" not in doc
    assert doc["validation"] is not None
    assert abs(doc["results"]["terminal_mean"]) < 0.2
    assert 0.8 < doc["results"]["terminal_std"] < 1.2


def test_simulate_reports_are_byte_identical(capsys):
    _, first, _ = run_cli(capsys, ["simulate", "--scenario", "zero-drift", *FAST])
    _, second, _ = run_cli(capsys, ["simulate", "--scenario", "zero-drift", *FAST])
    assert first == second
    assert first.endswith("\n")


def test_simulate_out_directory_matches_stdout(capsys, tmp_path):
    _, stdout_doc, _ = run_cli(capsys, ["simulate", "--scenario", "zero-drift", *FAST])
    outdir = tmp_path / "run"
    code, out, err = run_cli(capsys, ["simulate", "--scenario", "zero-drift", *FAST,
                                      "--out", str(outdir)])
    assert code == 0
    assert out == ""  # report goes to the file, not stdout
    assert "report written" in err
    assert (outdir / "report.json").read_text() == stdout_doc
    csv_lines = (outdir / "ensemble.csv").read_text().splitlines()
    assert csv_lines[0] == "time,mean_x0,std_x0,mean_running_sup"
    assert len(csv_lines) == 12  # header + N + 1 rows


def test_wall_time_goes_to_stderr_only(capsys):
    _, out, err = run_cli(capsys, ["simulate", "--scenario", "zero-drift", *FAST])
    assert "wall time" in err
    assert "wall time" not in out


# ---------------------------------------------------------------------------
# fixpoint


def test_fixpoint_constant_control(capsys):
    code, doc = run_json(capsys, ["fixpoint", "--scenario", "linear-quadratic",
                                  *FAST, "--control", "constant:0.5"])
    assert code == 0
    res = doc["results"]
    assert res["converged"] is True
    # constant drift: one productive application plus the confirming pass
    assert res["diagnostics"]["iterations"] == 1
    assert res["diagnostics"]["applications"] == 2
    assert abs(res["normalization_horizon"]["mean"] - 1.0) < 0.2
    assert "contraction" in res
    assert abs(res["statistics_horizon"]["mean"] - 0.5) < 0.2


def test_fixpoint_requires_one_control_per_player(capsys):
    assert main(["fixpoint", "--scenario", "linear-quadratic", *FAST]) == 2
    assert main(["fixpoint", "--scenario", "linear-quadratic", *FAST,
                 "--control", "constant:0.5", "--control", "constant:0.1"]) == 2
    assert main(["fixpoint", "--scenario", "separated-game", *FAST,
                 "--control", "constant:0.5"]) == 2


def test_fixpoint_game_takes_a_pair(capsys):
    code, doc = run_json(capsys, ["fixpoint", "--scenario", "separated-game",
                                  *FAST, "--control", "constant:-1",
                                  "--control", "constant:1"])
    assert code == 0
    assert doc["results"]["converged"] is True


def test_fixpoint_writes_trace_tables(capsys, tmp_path):
    outdir = tmp_path / "fp"
    code, _, _ = run_cli(capsys, ["fixpoint", "--scenario", "linear-quadratic",
                                  *FAST, "--control", "constant:0.5",
                                  "--out", str(outdir)])
    assert code == 0
    assert (outdir / "trace.csv").exists()
    stats = (outdir / "statistics.csv").read_text().splitlines()
    assert stats[0] == "time,mean"


# ---------------------------------------------------------------------------
# evaluate


def test_evaluate_lists_control_payoffs(capsys):
    code, doc = run_json(capsys, ["evaluate", "--scenario", "linear-quadratic",
                                  *FAST, "--control", "constant:0",
                                  "--control", "constant:-1"])
    assert code == 0
    rows = doc["results"]["controls"]
    assert [r["label"] for r in rows] == ["const[0]", "const[-1]"]
    # J(0) = 0 and J(-1) = -1/2 up to Monte Carlo noise at 400 particles
    assert abs(rows[0]["payoff"]) < 0.25
    assert abs(rows[1]["payoff"] + 0.5) < 0.25
    assert all(abs(r["normalization_horizon"] - 1.0) < 0.2 for r in rows)


@pytest.mark.parametrize("particles", [1, 7, 400, 3001])
def test_evaluate_horizon_normalization_has_the_bits_of_every_column(particles):
    # evaluate reduces only the horizon column of the weights; the report
    # must keep the bits the whole-matrix reduction gives that column, which
    # are np.mean's and np.std's
    from mfcontrol import get_builtin, parse_control, simulate_for_scenario
    from mfcontrol.girsanov import fixpoint_measure_flow

    scen = get_builtin("mean-field-mean-reversion")
    paths = simulate_for_scenario(scen, particles, 12, 5)
    for spec in ("constant:0.7", "parametric:0.3,-0.8,0.2"):
        flow = fixpoint_measure_flow(scen, parse_control(spec, scen.actions), paths).flow
        mean, se = flow.normalization()
        w = flow.weights
        np.testing.assert_array_equal(mean, np.mean(w, axis=0))
        np.testing.assert_array_equal(se, np.std(w, axis=0) / np.sqrt(particles))
        for k in (12, 5):
            assert flow.normalization(k) == (mean[k], se[k])


def test_evaluate_requires_controls(capsys):
    assert main(["evaluate", "--scenario", "linear-quadratic", *FAST]) == 2


def test_evaluate_reads_controls_file(capsys, tmp_path):
    listing = tmp_path / "controls.json"
    listing.write_text(json.dumps(["constant:0.25", "parametric:0,1,0"]))
    code, doc = run_json(capsys, ["evaluate", "--scenario", "linear-quadratic",
                                  *FAST, "--controls-file", str(listing)])
    assert code == 0
    assert len(doc["results"]["controls"]) == 2

    bad = tmp_path / "notalist.json"
    bad.write_text(json.dumps({"u": "constant:1"}))
    assert main(["evaluate", "--scenario", "linear-quadratic", *FAST,
                 "--controls-file", str(bad)]) == 2


def test_evaluate_writes_the_same_bytes_on_any_worker_count(capsys, tmp_path, monkeypatch):
    # the members are priced concurrently, each with the arithmetic of the
    # plain loop
    listing = tmp_path / "controls.json"
    listing.write_text(json.dumps([
        "constant:0.5", "parametric:0.3,-0.4,0.1", "parametric:-0.2,0.5,-0.1",
        {"kind": "table", "edges": [0.0], "values": [[-0.5, 0.5]]},
        "constant:-1", "parametric:0.1,0.2,0.3"]))
    written = {}
    for count in (1, 4):
        monkeypatch.setattr(mfcontrol.core, "available_cores", lambda: count)
        monkeypatch.setattr(mfcontrol.core, "MEMBER_WORKERS", count)
        out = tmp_path / f"workers{count}"
        assert main(["evaluate", "--scenario", "mean-field-mean-reversion", "--seed", "3",
                     "--particles", "500", "--steps", "10", "--controls-file", str(listing),
                     "--out", str(out)]) == 0
        written[count] = [(out / name).read_bytes() for name in ("report.json", "controls.csv")]
    capsys.readouterr()
    assert written[1] == written[4]
    assert len(json.loads(written[1][0])["results"]["controls"]) == 6


# the collapsing member's overflows are warnings on its stderr, not errors
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_evaluate_collapsing_member_fails_alike_on_any_worker_count(capsys, tmp_path,
                                                                   monkeypatch):
    doc = builtin_config("linear-quadratic")
    doc["drift"] = {"control": 1e308}
    cfg = tmp_path / "extreme.json"
    cfg.write_text(json.dumps(doc))
    listing = tmp_path / "controls.json"
    # u = 0 has no drift; u = 1 underflows every horizon weight
    listing.write_text(json.dumps(["constant:0", "constant:1", "constant:0", "constant:0"]))
    errs = {}
    for count in (1, 4):
        monkeypatch.setattr(mfcontrol.core, "available_cores", lambda: count)
        monkeypatch.setattr(mfcontrol.core, "MEMBER_WORKERS", count)
        code, out, err = run_cli(capsys, ["evaluate", "--config", str(cfg), "--seed", "1",
                                          "--particles", "500", "--steps", "10",
                                          "--controls-file", str(listing),
                                          "--override-validation"])
        assert code == 1 and out == ""
        assert "Traceback" not in err
        errs[count] = [line for line in err.splitlines() if "computation failed:" in line]
        assert errs[count] == ["computation failed: every horizon weight underflowed to 0: "
                               "the reweighting collapsed"]
    assert errs[1] == errs[4]


def test_evaluate_game_pairs_from_file(capsys, tmp_path):
    listing = tmp_path / "pairs.json"
    listing.write_text(json.dumps([{"u": "constant:-1", "v": "constant:1"}]))
    code, doc = run_json(capsys, ["evaluate", "--scenario", "separated-game",
                                  *FAST, "--controls-file", str(listing)])
    assert code == 0
    rows = doc["results"]["controls"]
    assert rows[0]["label"] == "(const[-1], const[1])"


def test_evaluate_game_rejects_odd_control_count(capsys):
    assert main(["evaluate", "--scenario", "separated-game", *FAST,
                 "--control", "constant:1"]) == 2


def test_evaluate_bad_control_spec_exits_2(capsys):
    assert main(["evaluate", "--scenario", "linear-quadratic", *FAST,
                 "--control", "banana:1"]) == 2


@pytest.mark.parametrize("scenario,entries,message", [
    ("separated-game", ["constant:0"], "an object with u and v"),
    ("linear-quadratic", ["constant:0", 1], "a string or an object"),
    ("linear-quadratic", [{"kind": "constant"}], "'value'"),
    ("linear-quadratic", [{"kind": "constant", "value": [0.5, 0.2]}], "takes one number"),
    ("linear-quadratic", ["constant:0", {"kind": "constant", "value": [[0.5], [0.2]]}],
     "takes one number"),
    # searchsorted bins only sorted edges, and a non-finite number prices nothing
    ("linear-quadratic", [{"kind": "table", "edges": [0.5, -0.5], "values": [[-1, 0, 1]]}],
     "non-decreasing edges"),
    ("linear-quadratic", [{"kind": "table", "edges": [float("nan")], "values": [[-1, 1]]}],
     "must be finite"),
    ("linear-quadratic", [{"kind": "table", "edges": [0.0], "values": [[-1, float("inf")]]}],
     "must be finite"),
    ("linear-quadratic", [{"kind": "constant", "value": float("nan")}], "must be finite"),
    ("linear-quadratic", ["constant:0", "constant:inf"], "must be finite"),
    ("linear-quadratic", [{"kind": "parametric", "coeffs": [0, float("-inf"), 0]}],
     "must be finite"),
    # a row holds one value per bin: len(edges) + 1 of them, no fewer and no more
    ("linear-quadratic",
     ["constant:0", {"kind": "table", "edges": [0.0], "values": [[-1, -1, 5]]}],
     "with 1 edges needs rows of 2 values, got [3]"),
    ("linear-quadratic", [{"kind": "table", "edges": [0.0], "values": [[-1]]}],
     "with 1 edges needs rows of 2 values, got [1]"),
    ("linear-quadratic", [{"kind": "table", "edges": [0.0, 1.0], "values": [[-1, 1, 0], [1]]}],
     "with 2 edges needs rows of 3 values, got [3, 1]"),
    ("linear-quadratic", [{"kind": "table", "edges": [0.0], "values": []}],
     "with 1 edges needs rows of 2 values, got []"),
])
def test_evaluate_malformed_controls_file_entry_exits_2(capsys, tmp_path, scenario,
                                                        entries, message):
    listing = tmp_path / "controls.json"
    listing.write_text(json.dumps(entries))
    code, out, err = run_cli(capsys, ["evaluate", "--scenario", scenario, *FAST,
                                      "--controls-file", str(listing)])
    assert code == 2
    assert out == ""
    index = len(entries) - 1
    assert f"configuration error: controls-file[{index}]: " in err
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("spec", ["constant:nan", "parametric:nan,0,0"])
def test_non_finite_control_spec_exits_2(capsys, spec):
    code, out, err = run_cli(capsys, ["evaluate", "--scenario", "linear-quadratic", *FAST,
                                      "--control", spec])
    assert code == 2
    assert out == ""
    assert "configuration error: control: control numbers must be finite" in err
    assert "Traceback" not in err


def test_multi_value_constant_control_exits_2(capsys):
    code, out, err = run_cli(capsys, ["evaluate", "--scenario", "linear-quadratic", *FAST,
                                      "--control", "constant:0.5,0.2"])
    assert code == 2
    assert out == ""
    assert "configuration error: control: a constant control takes one number" in err
    assert "Traceback" not in err


# the overflows a run meets are warnings on its stderr, not errors
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("base,key,value,argv,message", [
    # the statistic's weighted sum overflows although every state is finite
    ("zero-drift", "initial", 1e308, ["fixpoint", "--control", "constant:0"],
     "non-finite statistic 'mean' at t_index 0"),
    ("zero-drift", "initial", -1e308, ["fixpoint", "--control", "constant:0"],
     "non-finite statistic 'mean' at t_index 0"),
    # the Hamiltonian overflows before any order of min and max can be judged
    ("separated-game", "drift", {"control_u": 1e308, "control_v": 1.0}, ["game"],
     "non-finite Hamiltonian envelope at z = -3 on the Isaacs sample grid"),
    # every horizon weight underflows to 0, while E[L_T] = 1
    ("linear-quadratic", "drift", {"control": 1e308}, ["fixpoint", "--control", "constant:1"],
     "every horizon weight underflowed to 0"),
])
def test_non_finite_results_exit_1_without_traceback(capsys, tmp_path, base, key, value,
                                                     argv, message):
    doc = builtin_config(base)
    doc[key] = value
    cfg = tmp_path / "extreme.json"
    cfg.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, [argv[0], "--config", str(cfg), *argv[1:], "--seed", "1",
                                      "--particles", "100", "--steps", "5",
                                      "--override-validation"])
    assert code == 1
    assert out == ""
    assert f"computation failed: {message}" in err
    assert err.count("computation failed:") == 1 and "aborted" not in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["fixpoint", "evaluate"])
def test_overflowing_means_exit_1_under_warnings_as_errors(tmp_path, command):
    # the overflow is checked, not warned about, so -W error leaves the
    # message and no traceback
    doc = builtin_config("zero-drift")
    doc["initial"] = 1e308
    cfg = tmp_path / "extreme.json"
    cfg.write_text(json.dumps(doc))
    proc = run_module("mfcontrol", command, "--config", str(cfg), "--control", "constant:0",
                      "--seed", "1", "--particles", "100", "--steps", "5",
                      "--override-validation", flags=("-W", "error"))
    assert proc.returncode == 1
    assert proc.stdout == ""
    failed = [line for line in proc.stderr.splitlines() if "computation failed:" in line]
    assert len(failed) == 1 and "mean" in failed[0]
    assert "Traceback" not in proc.stderr


# each size needs petabytes, so numpy refuses the array before touching a page
@pytest.mark.parametrize("argv,grid", [
    (["--particles", "1000000000000000", "--steps", "10"], None),
    (["--particles", "100", "--steps", "1000000000000000"], None),
    (["--particles", "100", "--steps", "5"], {"lo": -1.0, "hi": 1.0, "count": 10 ** 15}),
], ids=["particles", "steps", "grid-count"])
def test_oversized_runs_exit_1_without_traceback(tmp_path, argv, grid):
    doc = builtin_config("linear-quadratic")
    if grid is not None:
        doc["actions"] = grid
    cfg = tmp_path / "oversized.json"
    cfg.write_text(json.dumps(doc))
    proc = run_module("mfcontrol", "simulate", "--config", str(cfg), "--seed", "7", *argv)
    assert proc.returncode == 1
    assert proc.stdout == ""
    failed = [line for line in proc.stderr.splitlines() if "computation failed:" in line]
    assert len(failed) == 1 and "Unable to allocate" in failed[0]
    assert "Traceback" not in proc.stderr


# ---------------------------------------------------------------------------
# optimize and game


def test_optimize_linear_quadratic(capsys):
    code, doc = run_json(capsys, ["optimize", "--scenario", "linear-quadratic",
                                  *FAST])
    assert code == 0
    res = doc["results"]
    assert res["converged"] is True
    assert abs(res["y0"] + 0.5) < 0.25
    assert res["outer_iterations"] >= 1


def test_optimize_rejects_games(capsys):
    assert main(["optimize", "--scenario", "separated-game", *FAST]) == 2


def test_game_certifies_separated_scenario(capsys):
    code, doc = run_json(capsys, ["game", "--scenario", "separated-game", *FAST])
    assert code == 0
    res = doc["results"]
    assert res["aborted"] is False
    assert res["isaacs"]["max_gap"] == 0.0
    assert res["deviations"]["passed"] is True
    assert abs(res["saddle"]["value"]) < 0.25


def test_game_aborts_on_bilinear_scenario(capsys):
    code, doc = run_json(capsys, ["game", "--scenario", "bilinear-game", *FAST])
    assert code == 1
    assert doc["results"]["aborted"] is True
    assert doc["results"]["isaacs"]["max_gap"] == 2.0


def test_game_rejects_single_player_scenarios(capsys):
    assert main(["game", "--scenario", "linear-quadratic", *FAST]) == 2


def test_game_writes_deviation_table(capsys, tmp_path):
    outdir = tmp_path / "game"
    code, _, _ = run_cli(capsys, ["game", "--scenario", "separated-game", *FAST,
                                  "--out", str(outdir)])
    assert code == 0
    lines = (outdir / "deviations.csv").read_text().splitlines()
    assert lines[0] == "side,label,payoff,stderr,slack,ok"
    assert len(lines) == 23  # header + 11 u rows + 11 v rows


# ---------------------------------------------------------------------------
# verify


def test_verify_reports_ten_criteria(capsys):
    code, doc = run_json(capsys, ["verify", *FAST])
    assert code in (0, 1)  # tiny scale need not pass every tolerance
    criteria = doc["results"]["criteria"]
    assert len(criteria) == 10
    assert [c["index"] for c in criteria] == list(range(1, 11))
    assert doc["results"]["passed_count"] == sum(c["passed"] for c in criteria)


def test_verify_runs_are_reproducible(capsys, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    code_a, _, _ = run_cli(capsys, ["verify", *FAST, "--out", str(a)])
    code_b, _, _ = run_cli(capsys, ["verify", *FAST, "--out", str(b)])
    assert code_a == code_b
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
    assert (a / "criteria.csv").read_bytes() == (b / "criteria.csv").read_bytes()
