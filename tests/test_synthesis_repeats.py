"""An outer synthesis pass whose input repeats is recorded, not rerun.

A pass reads the flow only through the series of the statistics the
scenario references, so when those repeat bit for bit the pass would
rebuild the last feedback and flow.  These tests count the backward sweeps
and fixed points the loop runs, and check every report against the loop
that reruns each pass (reference.synthesize_every_pass), byte for byte.
"""

import pytest

import mfcontrol.bsde as bsde_mod
import mfcontrol.control as control_mod
import mfcontrol.game as game_mod
from mfcontrol import policy_iteration, simulate_for_scenario, solve_game
from mfcontrol.report import canonical_json
from reference import synthesize_every_pass
from test_action_memo import counting

STEPS = 8


@pytest.fixture(scope="module")
def scenarios(lq, mean_field, variance_scenario, separated_game):
    return {s.name: s for s in (lq, mean_field, variance_scenario, separated_game)}


def synthesis_report(scen, paths):
    if scen.kind == "game":
        return solve_game(scen, paths)
    return policy_iteration(scen, paths)


def counted_run(scen, paths, monkeypatch):
    sweeps = counting(monkeypatch, bsde_mod, "_backward")
    fixpoints = counting(monkeypatch, control_mod, "fixpoint_measure_flow")
    report = synthesis_report(scen, paths)
    return report, len(sweeps), len(fixpoints)


@pytest.mark.parametrize("name", ["linear-quadratic", "separated-game"])
def test_a_statistic_free_problem_solves_once(name, scenarios, monkeypatch):
    # neither reads a statistic: a second pass and the final solve repeat
    # the first solve's input
    scen = scenarios[name]
    paths = simulate_for_scenario(scen, particles=1000, steps=STEPS, seed=44)
    report, sweeps, fixpoints = counted_run(scen, paths, monkeypatch)
    assert (sweeps, fixpoints) == (1, 1)
    assert all(row[1:] == (0.0, 0.0) for row in report.trace[1:])
    assert report.converged


def test_a_moving_flow_reruns_every_pass(scenarios, monkeypatch):
    scen = scenarios["mean-field-mean-reversion"]
    paths = simulate_for_scenario(scen, particles=1000, steps=STEPS, seed=44)
    report, sweeps, fixpoints = counted_run(scen, paths, monkeypatch)
    assert len(report.trace) > 1
    assert (sweeps, fixpoints) == (len(report.trace) + 1, len(report.trace))


def test_a_terminal_statistic_is_part_of_the_input(scenarios, monkeypatch):
    # variance's drift and running cost read no statistic, its terminal cost
    # reads the mean: the second pass must run, on the moved mean
    scen = scenarios["variance"]
    assert scen.drift.stat_names() == () and scen.running_cost.stat_names() == ()
    paths = simulate_for_scenario(scen, particles=1000, steps=STEPS, seed=44)
    report, sweeps, fixpoints = counted_run(scen, paths, monkeypatch)
    # the moved mean shifts the terminal by a constant, which leaves the
    # feedback's actions and so the flow as they were: the second pass
    # measures 0.0, and the final solve repeats its input
    assert report.trace[-1] == (2, 0.0, 0.0)
    assert (sweeps, fixpoints) == (2, 2)


@pytest.mark.parametrize("name", ["linear-quadratic", "mean-field-mean-reversion",
                                  "variance", "separated-game"])
def test_reports_match_the_loop_that_reruns_every_pass(name, scenarios, monkeypatch):
    scen = scenarios[name]
    paths = simulate_for_scenario(scen, particles=1000, steps=STEPS, seed=45)
    fast = canonical_json(synthesis_report(scen, paths).to_dict())
    monkeypatch.setattr(control_mod, "_synthesize", synthesize_every_pass)
    monkeypatch.setattr(game_mod, "_synthesize", synthesize_every_pass)
    assert canonical_json(synthesis_report(scen, paths).to_dict()) == fast
