"""An ensemble keeps the reference law it was simulated under.

Every pricing reweights one driftless reference law, so a scenario may be
priced on an ensemble only if it shares that law: the initial state, the
horizon and sigma.  DriftEvaluator (every reweighting) and terminal_values
(every backward solve and payoff) refuse any other scenario with
EnsembleMismatchError naming it, so each public entry point that takes a
scenario and paths refuses before it returns a number.  Unrefused, the
1000 x 10 linear-quadratic paths at seed 7 would price the constant 0.5
at 0.343 under diffusion.base 2 (0.561 on that scenario's own paths), and
at 0.601 under horizon 2 or initial state 1 (closed forms 1.25 and 1.625),
with no error.
A scenario that differs only in its drift, costs, statistics or grids
shares the law and prices as before.
"""

import inspect

import numpy as np
import pytest

import mfcontrol
import mfcontrol.measure as measure_mod
from mfcontrol import (
    BasisSpec,
    DriftEvaluator,
    EnsembleMismatchError,
    builtin_config,
    constant_control,
    envelope_bsde,
    evaluate_payoff,
    fixpoint_measure_flow,
    get_builtin,
    hellinger_bound,
    hellinger_pairs,
    parse_scenario,
    policy_iteration,
    reference_flow,
    simulate_for_scenario,
    solve_game,
    solve_linear_family,
    stat_series,
    terminal_values,
    verify_saddle,
)

PARTICLES, STEPS, SEED = 1000, 10, 7

# the reference law each built-in is moved off, as config edits
MISMATCHES = {
    "sigma": lambda cfg: cfg["diffusion"].update(base=2.0),
    "initial": lambda cfg: cfg.update(initial=1.0),
    "horizon": lambda cfg: cfg.update(horizon=2.0),
}


def moved(name: str, mismatch: str):
    """The built-in with its reference law moved by one of MISMATCHES."""
    cfg = builtin_config(name)
    MISMATCHES[mismatch](cfg)
    return parse_scenario(cfg)


@pytest.fixture(scope="module")
def paths():
    """linear-quadratic's ensemble, which every built-in shares."""
    return simulate_for_scenario(get_builtin("linear-quadratic"), PARTICLES, STEPS, SEED)


@pytest.fixture(scope="module")
def saddle(paths):
    """The separated game's saddle report on the shared ensemble."""
    return solve_game(get_builtin("separated-game"), paths, tol=1e-2)


def u_half(scenario):
    return constant_control(0.5, scenario.actions)


def pair(scenario):
    return (constant_control(0.5, scenario.actions), constant_control(-0.5, scenario.actions_v))


def reference_series(scenario, paths):
    return stat_series(scenario, reference_flow(paths, scenario.statistic_map))


def drift_on(scenario, paths, u=0.5):
    return DriftEvaluator(scenario, reference_flow(paths, scenario.statistic_map),
                          constant_control(u))


def hellinger_both_ways(scenario, paths):
    """hellinger_pairs of a linear-quadratic drift and one under scenario,
    either drift first."""
    lq = get_builtin("linear-quadratic")
    horizons = np.ones((2, paths.particles))
    for first in (True, False):
        drifts = [drift_on(lq, paths, 0.0), drift_on(scenario, paths)]
        hellinger_pairs(drifts if first else drifts[::-1], horizons)


# entry point -> (built-in it prices, call(scenario, paths, saddle))
REFUSALS = {
    "evaluate_payoff": ("linear-quadratic",
                        lambda s, p, r: evaluate_payoff(s, u_half(s), p)),
    "fixpoint_measure_flow": ("mean-field-mean-reversion",
                              lambda s, p, r: fixpoint_measure_flow(s, u_half(s), p)),
    "policy_iteration": ("linear-quadratic", lambda s, p, r: policy_iteration(s, p)),
    "solve_game": ("separated-game", lambda s, p, r: solve_game(s, p)),
    "verify_saddle": ("separated-game", lambda s, p, r: verify_saddle(s, p, r)),
    "solve_linear_family": ("linear-quadratic", lambda s, p, r: solve_linear_family(
        s, p, [u_half(s)], [reference_series(s, p)])),
    "envelope_bsde": ("linear-quadratic", lambda s, p, r: envelope_bsde(
        s, p, [u_half(s)], [reference_series(s, p)])),
    "terminal_values": ("variance",
                        lambda s, p, r: terminal_values(s, p, reference_series(s, p))),
    "DriftEvaluator": ("linear-quadratic", lambda s, p, r: drift_on(s, p)),
    "hellinger_pairs": ("linear-quadratic", lambda s, p, r: hellinger_both_ways(s, p)),
    "hellinger_bound": ("linear-quadratic", lambda s, p, r: hellinger_bound(
        reference_flow(p), drift_on(get_builtin("linear-quadratic"), p), drift_on(s, p))),
}


@pytest.mark.parametrize("mismatch", MISMATCHES)
@pytest.mark.parametrize("entry", REFUSALS)
def test_a_scenario_of_another_reference_law_is_refused(entry, mismatch, paths, saddle):
    name, call = REFUSALS[entry]
    scenario = moved(name, mismatch)
    with pytest.raises(EnsembleMismatchError, match=rf"^scenario {scenario.name!r} "):
        call(scenario, paths, saddle)


def test_every_entry_point_taking_a_scenario_and_paths_is_in_the_refusal_table():
    # as tests/test_trace_targets.py guards the tracer's names: a new public
    # callable that prices a scenario on paths must join REFUSALS
    takes_both = []
    for name in mfcontrol.__all__:
        obj = getattr(mfcontrol, name)
        if not callable(obj):
            continue
        try:
            params = inspect.signature(obj).parameters
        except (TypeError, ValueError):
            continue
        if {"scenario", "paths"} <= params.keys():
            takes_both.append(name)
    assert "evaluate_payoff" in takes_both
    assert sorted(set(takes_both) - set(REFUSALS)) == []


def test_the_refusal_error_is_one_class_everywhere():
    assert measure_mod.EnsembleMismatchError is mfcontrol.EnsembleMismatchError
    assert mfcontrol.core.EnsembleMismatchError is mfcontrol.EnsembleMismatchError
    assert issubclass(EnsembleMismatchError, ValueError)


def test_a_fixed_point_from_other_paths_is_refused(paths):
    # unrefused, the seed-8 fixed point's weights would multiply the seed-7
    # states and price 0.0999
    lq = get_builtin("linear-quadratic")
    other = simulate_for_scenario(lq, PARTICLES, STEPS, SEED + 1)
    fix = fixpoint_measure_flow(lq, u_half(lq), other)
    with pytest.raises(EnsembleMismatchError, match="^scenario 'linear-quadratic': "):
        evaluate_payoff(lq, u_half(lq), paths, fixpoint=fix)
    assert evaluate_payoff(lq, u_half(lq), other, fixpoint=fix).value == \
        evaluate_payoff(lq, u_half(lq), other).value


def shares_the_law(cfg):
    """linear-quadratic's document with its drift, costs, statistics and
    action grid changed, its initial state, horizon and diffusion kept."""
    cfg["name"] = "same-law"
    cfg["drift"] = {"state": -0.3, "stats": {"second": 0.2}, "control": 0.8}
    cfg["statistics"]["second"] = {"kind": "square"}
    cfg["running_cost"] = {"quad": 0.5, "stat": ["second", 0.1]}
    cfg["terminal_cost"] = {"kind": "tanh", "coeff": 0.5, "scale": 1.0}
    cfg["actions"] = {"lo": -0.5, "hi": 0.5, "count": 5}
    return cfg


@pytest.mark.parametrize("name", ["zero-drift", "mean-field-mean-reversion", "variance",
                                  "separated-game", "same-law"])
def test_a_scenario_of_the_same_reference_law_prices_on_a_shared_ensemble(name, paths):
    if name == "same-law":
        scenario = parse_scenario(shares_the_law(builtin_config("linear-quadratic")))
    else:
        scenario = get_builtin(name)
    control = pair(scenario) if scenario.kind == "game" else u_half(scenario)
    res = evaluate_payoff(scenario, control, paths)
    own = evaluate_payoff(scenario, control, simulate_for_scenario(
        scenario, PARTICLES, STEPS, SEED))
    assert np.isfinite(res.value) and np.isfinite(res.stderr)
    # same law, seed and sizes: the shared ensemble is the scenario's own
    assert res.value == own.value and res.stderr == own.stderr
    if scenario.kind != "game":
        sol, = solve_linear_family(scenario, paths, [control],
                                   [stat_series(scenario, res.flow)], BasisSpec())
        assert np.isfinite(sol.y0)
