"""Scenario configs: registries, parsing, validation, builtins.

Everything in this module is either a direct consequence of the registry
definitions (evaluated by hand on two or three points) or a structural
parsing/validation contract, so no Monte Carlo tolerances appear.
"""

import dataclasses

import numpy as np
import pytest

from mfcontrol import (
    ActionGrid,
    ConfigError,
    DiffusionSpec,
    Scenario,
    SingularDiffusionError,
    StatisticSpec,
    UnknownScenarioError,
    ValidationBlockedError,
    assert_runnable,
    builtin_config,
    builtin_scenarios,
    get_builtin,
    parse_scenario,
    policy_iteration,
    simulate_for_scenario,
    validate_scenario,
)


# ---------------------------------------------------------------------------
# registries


def test_statistic_kinds_by_hand():
    state = np.array([-0.5, 0.25, 1.0])
    np.testing.assert_array_equal(
        StatisticSpec("identity").evaluate(state), [-0.5, 0.25, 1.0])
    np.testing.assert_array_equal(
        StatisticSpec("square").evaluate(state), [0.25, 0.0625, 1.0])
    np.testing.assert_allclose(
        StatisticSpec("tanh", scale=2.0).evaluate(state),
        np.tanh([-0.25, 0.125, 0.5]))
    # half-open bin [0, 1): the right endpoint is excluded
    np.testing.assert_array_equal(
        StatisticSpec("indicator_bin", lo=0.0, hi=1.0).evaluate(state),
        [0.0, 1.0, 0.0])


def test_statistic_spec_rejects_bad_parameters():
    with pytest.raises(ConfigError):
        StatisticSpec("median")
    with pytest.raises(ConfigError):
        StatisticSpec("tanh", scale=0.0)
    with pytest.raises(ConfigError):
        StatisticSpec("indicator_bin", lo=1.0, hi=1.0)


def test_constant_diffusion_apply_and_inverse():
    sigma = DiffusionSpec(kind="constant", base=2.0)
    state = np.zeros(4)
    sup = np.zeros(4)
    vec = np.arange(4.0)
    np.testing.assert_array_equal(sigma.apply(0.0, state, sup, vec), 2.0 * vec)
    np.testing.assert_array_equal(sigma.inv_apply(0.0, state, sup, vec), vec / 2.0)


def test_affine_diffusion_guards_zero_crossing():
    # sigma(x) = 0.5 + x vanishes at x = -0.5; the guard must refuse to invert
    sigma = DiffusionSpec(kind="affine_state", base=0.5, slope=1.0)
    state = np.array([0.5, -0.5])
    sup = np.abs(state)
    vec = np.ones(2)
    with pytest.raises(SingularDiffusionError):
        sigma.inv_apply(0.0, state, sup, vec)
    with pytest.raises(SingularDiffusionError):
        sigma.apply(0.0, state, sup, vec)
    # away from the crossing the same registry works
    good = np.array([0.5, 1.0])
    out = sigma.apply(0.0, good, np.abs(good), vec)
    np.testing.assert_allclose(out, [1.0, 1.5])


# ---------------------------------------------------------------------------
# action grids


def test_box_grid_layout():
    grid = ActionGrid.box(-1.0, 1.0, 21)
    assert grid.size == 21
    assert grid.points[0] == -1.0
    assert grid.points[-1] == 1.0
    assert all(type(p) is float for p in grid.points)
    assert grid.resolution == pytest.approx(0.1)
    # a grid is its points, however they were given
    assert grid == ActionGrid.explicit(grid.points)


def test_singleton_box_is_midpoint():
    grid = ActionGrid.box(-1.0, 3.0, 1)
    assert grid.points == (1.0,)
    assert grid.resolution == 0.0


def test_explicit_grid_sorts_points():
    grid = ActionGrid.explicit([1.0, -1.0, 0.5, 2.0])
    assert grid.points == (-1.0, 0.5, 1.0, 2.0)
    # largest gap between consecutive values: 0.5 -> 1.0 and 1.0 -> 2.0
    assert grid.resolution == pytest.approx(1.5)


def test_action_grid_rejects_malformed_sets():
    with pytest.raises(ConfigError):
        ActionGrid.explicit([])
    with pytest.raises(ConfigError):
        ActionGrid(points=(1.0, 0.0))  # unsorted
    with pytest.raises(ConfigError):
        ActionGrid(points=(0.0, float("nan")))  # NaN has no place in the order
    with pytest.raises(ConfigError):
        ActionGrid(points=((0.0,), (1.0,)))  # an action is a number, not a tuple
    with pytest.raises(ConfigError):
        ActionGrid.box(1.0, 0.0, 5)
    with pytest.raises(ConfigError):
        ActionGrid.box(0.0, 1.0, 0)


def test_explicit_points_read_numbers_and_one_number_lists_alike():
    doc = builtin_config("linear-quadratic")
    doc["actions"] = {"points": [0.5, -1.0, 0.0]}
    numbers = parse_scenario(doc)
    doc["actions"] = {"points": [[0.5], -1.0, [0.0]]}
    assert parse_scenario(doc) == numbers
    assert numbers.actions.points == (-1.0, 0.0, 0.5)


# ---------------------------------------------------------------------------
# parsing


def _minimal_lq() -> dict:
    return {
        "initial": [0.0],
        "horizon": 1.0,
        "drift": {"control": 1.0},
        "running_cost": {"quad": 1.0},
        "statistics": {"mean": {"kind": "identity"}},
        "actions": {"lo": -1.0, "hi": 1.0, "count": 21},
    }


def test_parse_minimal_control_config(lq):
    s = parse_scenario(_minimal_lq())
    assert isinstance(s, Scenario)
    assert s.kind == "control"
    assert s.drift == lq.drift
    assert s.running_cost == lq.running_cost
    assert s.terminal_cost == lq.terminal_cost
    assert s.actions == lq.actions
    assert s.initial == 0.0
    assert s.horizon == 1.0


def test_parse_accepts_json_text():
    import json

    s = parse_scenario(json.dumps(_minimal_lq()))
    assert s.drift.control == 1.0


def test_parse_error_paths():
    cases = [
        ({}, "initial"),
        ({"initial": [0.0]}, "horizon"),
        ({"initial": [0.0], "horizon": 0.0, "actions": {"points": [[0.0]]}},
         "horizon"),
        ({"initial": [0.0, 1.0], "horizon": 1.0, "dimension": 1,
          "actions": {"points": [[0.0]]}}, "initial"),
        ({"initial": [0.0], "horizon": 1.0}, "actions"),
        ({"initial": [0.0], "horizon": 1.0, "kind": "auction",
          "actions": {"points": [[0.0]]}}, "kind"),
        ({"initial": [0.0], "horizon": 1.0, "dimension": 0,
          "actions": {"points": [[0.0]]}}, "dimension"),
        ({"initial": [0.0], "horizon": 1.0,
          "actions": {"lo": 0.0, "hi": 1.0, "count": "many"}}, "actions.count"),
    ]
    for doc, path in cases:
        with pytest.raises(ConfigError) as err:
            parse_scenario(doc)
        assert path in str(err.value)


def test_unregistered_statistic_is_an_error():
    doc = _minimal_lq()
    doc["drift"]["stats"] = {"psi9": 1.0}
    with pytest.raises(ConfigError) as err:
        parse_scenario(doc)
    assert "drift.stats.psi9" in str(err.value)

    doc = _minimal_lq()
    doc["terminal_cost"] = {"kind": "variance", "stat": "psi9"}
    with pytest.raises(ConfigError) as err:
        parse_scenario(doc)
    assert "terminal_cost.stat" in str(err.value)


def test_game_config_requires_both_action_grids():
    doc = {
        "kind": "game",
        "initial": [0.0],
        "horizon": 1.0,
        "drift": {"control_u": 1.0, "control_v": 1.0},
        "actions_u": {"lo": -1.0, "hi": 1.0, "count": 5},
    }
    with pytest.raises(ConfigError) as err:
        parse_scenario(doc)
    assert "actions_v" in str(err.value)
    doc["actions_v"] = {"lo": -1.0, "hi": 1.0, "count": 5}
    s = parse_scenario(doc)
    assert s.kind == "game"
    assert s.grids == (s.actions, s.actions_v) and s.actions_v.size == 5
    # u's grid is the field actions, and a game document still names it actions_u
    del doc["actions_u"]
    with pytest.raises(ConfigError) as err:
        parse_scenario(doc)
    assert (err.value.path, err.value.message) == ("actions_u", "missing required field")


@pytest.mark.parametrize("name", builtin_scenarios())
def test_one_scenario_type_reads_its_kind_off_the_maximizer_grid(name):
    doc = builtin_config(name)
    s = get_builtin(name)
    assert type(s) is Scenario
    assert s.kind == doc["kind"]
    game = doc["kind"] == "game"
    assert len(s.grids) == (2 if game else 1)
    assert (s.actions_v is None) == (not game)
    if game:
        u = doc["actions_u"]
        assert s.actions == (ActionGrid.explicit(u["points"]) if "points" in u
                             else ActionGrid.box(u["lo"], u["hi"], u["count"]))


def test_a_control_problem_given_a_maximizer_grid_is_a_game(lq):
    game = dataclasses.replace(lq, actions_v=ActionGrid.box(-1.0, 1.0, 3))
    assert game.kind == "game" and game.grids == (lq.actions, game.actions_v)
    paths = simulate_for_scenario(game, particles=50, steps=4, seed=1)
    with pytest.raises(TypeError, match="single-controller"):
        policy_iteration(game, paths)


def test_invalid_json_and_non_mapping_inputs():
    with pytest.raises(ConfigError):
        parse_scenario("{not json")
    with pytest.raises(ConfigError):
        parse_scenario("[1, 2, 3]")


# ---------------------------------------------------------------------------
# builtins


def test_builtin_listing_and_lookup():
    names = builtin_scenarios()
    assert names == ("zero-drift", "linear-quadratic", "mean-field-mean-reversion",
                     "variance", "separated-game", "bilinear-game")
    for name in names:
        s = get_builtin(name)
        assert s.name == name
        assert s.horizon == 1.0
        # no builtin violates a standing assumption
        assert not validate_scenario(s).blocked


def test_unknown_builtin_lists_alternatives():
    with pytest.raises(UnknownScenarioError) as err:
        get_builtin("quadratic")
    msg = str(err.value)
    assert "available" in msg and "linear-quadratic" in msg


def test_builtin_config_returns_a_fresh_copy():
    cfg = builtin_config("zero-drift")
    cfg["horizon"] = 99.0
    assert builtin_config("zero-drift")["horizon"] == 1.0


def test_get_builtin_overrides(lq):
    # a built-in with other values is its config, edited and parsed
    cfg = builtin_config("linear-quadratic")
    cfg["initial"], cfg["horizon"] = 2.0, 0.5
    s = parse_scenario(cfg)
    assert s.initial == 2.0
    assert s.horizon == 0.5
    assert s.drift == lq.drift


# ---------------------------------------------------------------------------
# validation


def by_code(report):
    return {e.code: e for e in report.entries}


def test_linear_terminal_leaves_boundedness_uncertified(lq):
    report = validate_scenario(lq)
    assert report.kind == "control"
    assert by_code(report)["A2b"].status == "certified"
    assert by_code(report)["B4"].status == "not-certified"
    assert not report.blocked
    assert_runnable(report)  # not-certified does not block


def test_unbounded_coupling_statistic_flagged(mean_field):
    # the mean of an identity statistic is an unbounded coupling
    report = validate_scenario(mean_field)
    assert by_code(report)["A4"].status == "not-certified"
    assert "mean" in by_code(report)["A4"].reason


def test_bounded_variant_certifies_everything():
    doc = {
        "initial": [0.0],
        "horizon": 1.0,
        "statistics": {"sat": {"kind": "tanh", "scale": 1.0}},
        "drift": {"stats": {"sat": 0.5}, "control": 1.0},
        "running_cost": {"quad": 1.0},
        "terminal_cost": {"kind": "variance", "stat": "sat"},
        "actions": {"lo": -1.0, "hi": 1.0, "count": 11},
    }
    report = validate_scenario(parse_scenario(doc))
    assert all(e.status == "certified" for e in report.entries), [
        (e.code, e.status) for e in report.entries]


def test_zero_sigma_blocks_execution():
    doc = _minimal_lq()
    doc["diffusion"] = {"kind": "constant", "base": 0.0}
    report = validate_scenario(parse_scenario(doc))
    assert by_code(report)["A2b"].status == "violated"
    assert report.blocked
    with pytest.raises(ValidationBlockedError):
        assert_runnable(report)
    assert_runnable(report, override=True)  # explicit opt-out


def test_affine_sigma_is_not_certified_but_runs():
    doc = _minimal_lq()
    doc["drift"] = {}
    doc["diffusion"] = {"kind": "affine_state", "base": 2.0, "slope": 0.1}
    report = validate_scenario(parse_scenario(doc))
    assert by_code(report)["A2b"].status == "not-certified"
    assert by_code(report)["A6"].status == "not-certified"
    assert not report.blocked


def test_game_validation_uses_game_codes(separated_game):
    report = validate_scenario(separated_game)
    codes = {e.code for e in report.entries}
    assert {"C1", "C2", "C3", "C4"} <= codes
    assert not any(c.startswith("B") for c in codes)


def test_report_serialization_shape(lq):
    doc = validate_scenario(lq).to_dict()
    assert doc["scenario"] == "linear-quadratic"
    assert doc["blocked"] is False
    assert {e["code"] for e in doc["entries"]} >= {"A1", "A2a", "A2b", "B4"}


def test_referenced_statistics_are_deduplicated(variance_scenario, mean_field):
    assert variance_scenario.referenced_statistics() == ("mean",)
    assert mean_field.referenced_statistics() == ("mean",)
