"""A run's --tol and --basis-degree reach every computation it makes.

Each spy test wraps one internal function in every mfcontrol module that
holds it by name, runs commands at a tiny scale through main(argv), and checks
the setting that every recorded call received.  A gate that reads a setting
is checked at a setting away from its default.
"""

import inspect
import json
import sys

from mfcontrol import main, run_battery

TINY = ["--seed", "3", "--particles", "200", "--steps", "6"]


def spy(monkeypatch, module_name: str, attr: str, read) -> list:
    """Wrap module_name.attr wherever an mfcontrol module binds it; each call
    appends read(bound arguments with defaults applied) to the returned list."""
    original = getattr(sys.modules[module_name], attr)
    signature = inspect.signature(original)
    seen = []

    def wrapper(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        seen.append(read(bound.arguments))
        return original(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "mfcontrol" and vars(mod).get(attr) is original:
            monkeypatch.setattr(mod, attr, wrapper)
    return seen


def run(capsys, tmp_path, argv) -> int:
    code = main([*argv, "--out", str(tmp_path)])
    capsys.readouterr()
    return code


def test_tol_reaches_every_fixed_point(monkeypatch, capsys, tmp_path):
    tols = spy(monkeypatch, "mfcontrol.girsanov", "fixpoint_measure_flow",
               lambda arguments: arguments["tol"])
    game = run(capsys, tmp_path / "game",
               ["game", "--scenario", "separated-game", *TINY, "--tol", "1e-5"])
    game_calls = len(tols)
    verify = run(capsys, tmp_path / "verify", ["verify", *TINY, "--tol", "1e-5"])
    assert game in (0, 1) and verify in (0, 1)
    report = json.loads((tmp_path / "verify" / "report.json").read_text())
    assert len(report["results"]["criteria"]) == 10
    # the pair, its outer passes and its 22 deviations; then the battery
    assert game_calls > 22 and len(tols) > game_calls
    assert set(tols) == {1e-5}


def test_basis_degree_reaches_every_backward_solve(monkeypatch, capsys, tmp_path):
    degrees = spy(monkeypatch, "mfcontrol.bsde", "_backward",
                  lambda arguments: arguments["basis"].degree)
    for name, command in {"verify": ["verify"],
                          "optimize": ["optimize", "--scenario", "linear-quadratic"],
                          "game": ["game", "--scenario", "separated-game"]}.items():
        code = run(capsys, tmp_path / name, [*command, *TINY, "--basis-degree", "3"])
        assert code in (0, 1), name
    assert degrees and set(degrees) == {3}


def test_criterion_3_gates_the_final_distance_at_the_run_tol():
    # a converged Picard run stops below its own tol, so the gate on its
    # final distance is that tol, not the default one
    (result,) = run_battery(seed=3, particles=400, steps=10, tol=0.05, indices=(3,))
    rows = result.details["mean_field"]
    assert any(row["final_distance"] > 1e-3 for row in rows)
    assert all(row["final_ok"] for row in rows), rows
    assert result.passed, result.details
