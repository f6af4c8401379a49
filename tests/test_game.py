"""Zero-sum games: envelopes, Isaacs check, saddle synthesis.

Closed forms used as oracles (unit diffusion, initial state 0, T = 1):

  * separated builtin, H = (u^2/2 + zu) + (-v^2/2 + zv): the envelopes
    coincide (separable Hamiltonians commute), at z = 1 the saddle is
    (-1, +1), the drifts cancel, and the game value is E[x_T] = 0.
  * bilinear builtin, H = uv on {-1, 1}^2: min max = +1, max min = -1,
    a pointwise envelope gap of exactly 2, so no value is certified.
  * mirrored pair: game A with f = u + v/2, h = u^2/2 - v^2/2 + 0.3 u,
    g = x is separable with constant-saddle value
        min_u (u^2/2 + 1.3 u) + max_v (v/2 - v^2/2) = -0.8 + 0.125
    attained at (-1, 1/2).  Game B swaps the players' roles
    (h_B(u,v) = -h_A(v,u), f_B(u,v) = f_A(v,u), g_B = -g_A), so its value
    is the negation and its saddle the swap (1/2, -1).
  * with zero drift and zero running cost every payoff is the plain sample
    mean of g, so deviation slacks vanish identically.
"""

import dataclasses

import numpy as np
import pytest

import mfcontrol.game as game_mod
from mfcontrol import (
    IsaacsError,
    constant_control,
    envelopes,
    evaluate_payoff,
    hamiltonian,
    isaacs_gap,
    parse_scenario,
    solve_game,
    verify_saddle,
)
from mfcontrol.bsde import _hamiltonian_values
from mfcontrol.game import envelope_extremes


def _game_config(**overrides):
    cfg = {
        "kind": "game",
        "name": "custom-game",
        "dimension": 1,
        "initial": [0.0],
        "horizon": 1.0,
        "diffusion": {"kind": "constant", "base": 1.0},
        "statistics": {"mean": {"kind": "identity"}},
        "drift": {},
        "running_cost": {},
        "terminal_cost": {"kind": "linear", "coeff": 1.0},
        "actions_u": {"lo": -1.0, "hi": 1.0, "count": 21},
        "actions_v": {"lo": -1.0, "hi": 1.0, "count": 21},
    }
    cfg.update(overrides)
    return parse_scenario(cfg)


def mirrored_games():
    a = _game_config(
        name="mirror-a",
        drift={"control_u": 1.0, "control_v": 0.5},
        running_cost={"quad_u": 1.0, "quad_v": -1.0, "lin_u": 0.3},
    )
    b = _game_config(
        name="mirror-b",
        drift={"control_u": 0.5, "control_v": 1.0},
        running_cost={"quad_u": 1.0, "quad_v": -1.0, "lin_v": -0.3},
        terminal_cost={"kind": "linear", "coeff": -1.0},
    )
    return a, b


def constant_pair_value(drift_u, drift_v, quad_u, quad_v, lin_u, lin_v,
                        g_coeff, u, v):
    # J(u, v) for constant actions: running cost plus g at the shifted mean
    h = 0.5 * quad_u * u * u + 0.5 * quad_v * v * v + lin_u * u + lin_v * v
    return h + g_coeff * (drift_u * u + drift_v * v)


# ---------------------------------------------------------------------------
# hamiltonian and envelopes


def test_game_hamiltonian_by_hand(separated_game):
    x = np.zeros(3)
    z = np.array([1.0, 0.0, 2.0])
    u = np.array([-1.0, -1.0, -1.0])
    v = np.array([1.0, 0.0, 0.0])
    h = hamiltonian(separated_game, 0.0, x, x, {"mean": 0.0}, z, u, v)
    # H = u^2/2 - v^2/2 + z (u + v)
    np.testing.assert_allclose(h, [0.0, 0.5, -1.5], rtol=1e-15)


def test_game_hamiltonian_rejects_single_player(lq):
    x = np.zeros(2)
    with pytest.raises(TypeError, match="two-player"):
        hamiltonian(lq, 0.0, x, x, {}, x, x, x)


def test_envelopes_coincide_for_separated_game(separated_game):
    x = np.array([0.0, 0.5, -1.0])
    z = np.ones(3)
    env = envelopes(separated_game, 0.0, x, np.abs(x), {"mean": 0.0}, z)
    # separable H: the same saddle cell is picked from both sides
    np.testing.assert_array_equal(env.gap, np.zeros(3))
    u_arr, v_arr = separated_game.actions.array(), separated_game.actions_v.array()
    np.testing.assert_array_equal(u_arr[env.upper_u_index], [-1.0, -1.0, -1.0])
    np.testing.assert_array_equal(v_arr[env.lower_v_index], [1.0, 1.0, 1.0])
    np.testing.assert_allclose(env.lower, np.zeros(3), atol=1e-15)


def test_envelopes_bilinear_gap_is_two(bilinear_game):
    x = np.zeros(4)
    z = np.array([0.0, 1.0, -1.0, 3.0])
    env = envelopes(bilinear_game, 0.0, x, x, {"mean": 0.0}, z)
    # H = uv on {-1,1}^2: min max = 1, max min = -1 regardless of z
    np.testing.assert_array_equal(env.upper, np.ones(4))
    np.testing.assert_array_equal(env.lower, -np.ones(4))
    np.testing.assert_array_equal(env.gap, np.full(4, 2.0))


def test_envelopes_single_point_grids_are_trivial():
    game = _game_config(
        running_cost={"bilinear": 1.0},
        actions_u={"points": [[0.5]]},
        actions_v={"points": [[-0.25]]},
    )
    x = np.zeros(2)
    env = envelopes(game, 0.0, x, x, {"mean": 0.0}, np.zeros(2))
    np.testing.assert_array_equal(env.gap, np.zeros(2))
    np.testing.assert_allclose(env.lower, np.full(2, 0.5 * -0.25), rtol=1e-15)
    np.testing.assert_array_equal(game.actions.array()[env.upper_u_index], [0.5, 0.5])
    np.testing.assert_array_equal(game.actions_v.array()[env.lower_v_index], [-0.25, -0.25])


def test_envelope_gap_ignores_action_free_cost_terms(bilinear_game):
    shifted = _game_config(
        running_cost={"bilinear": 1.0, "const": 0.7},
        actions_u={"points": [[-1.0], [1.0]]},
        actions_v={"points": [[-1.0], [1.0]]},
    )
    x = np.array([0.0, 1.5])
    z = np.array([0.5, -2.0])
    base = envelopes(bilinear_game, 0.0, x, np.abs(x), {"mean": 0.0}, z)
    moved = envelopes(shifted, 0.0, x, np.abs(x), {"mean": 0.0}, z)
    np.testing.assert_allclose(moved.gap, base.gap, rtol=1e-12)
    np.testing.assert_allclose(moved.upper, base.upper + 0.7, rtol=1e-12)


def brute_force_envelopes(hams):
    """Per-particle max-min and min-max by explicit loops, first extremizer
    winning every tie (strict comparisons in grid order)."""
    nu, nv, m = hams.shape
    out = {key: np.empty(m, dtype=hams.dtype) for key in ("lower", "upper")}
    out.update({key: np.empty(m, dtype=int) for key in ("lv", "uu")})
    for i in range(m):
        best_v, best = 0, None
        for j in range(nv):
            ju = 0
            for a in range(1, nu):
                if hams[a, j, i] < hams[ju, j, i]:
                    ju = a
            if best is None or hams[ju, j, i] > best:
                best, best_v = hams[ju, j, i], j
        out["lower"][i], out["lv"][i] = best, best_v
        best_u, best = 0, None
        for a in range(nu):
            av = 0
            for j in range(1, nv):
                if hams[a, j, i] > hams[a, av, i]:
                    av = j
            if best is None or hams[a, av, i] < best:
                best, best_u = hams[a, av, i], a
        out["upper"][i], out["uu"][i] = best, best_u
    return out


@pytest.mark.parametrize("shape,levels", [((5, 4, 300), 3), ((3, 6, 200), 2),
                                          ((7, 7, 100), 1000), ((1, 5, 50), 3),
                                          ((4, 1, 50), 3)])
def test_envelope_extremes_match_brute_force_with_ties(shape, levels):
    rng = np.random.default_rng(sum(shape) + levels)
    # few distinct levels force ties on both axes; the float offset keeps
    # the values non-integer so no exact-arithmetic shortcut applies
    hams = rng.integers(0, levels, size=shape) * 0.37 - 0.11
    env = envelope_extremes(hams)
    ref = brute_force_envelopes(hams)
    np.testing.assert_array_equal(env.lower, ref["lower"])
    np.testing.assert_array_equal(env.upper, ref["upper"])
    np.testing.assert_array_equal(env.upper_u_index, ref["uu"])
    np.testing.assert_array_equal(env.lower_v_index, ref["lv"])
    assert np.all(env.gap >= 0.0)


def test_envelope_extremes_equal_separate_min_and_argmin_passes():
    rng = np.random.default_rng(3)
    hams = rng.integers(0, 4, size=(11, 11, 500)) * 0.1 + rng.normal(size=(1, 1, 500))
    env = envelope_extremes(hams)
    cols = np.arange(500)
    min_u = np.min(hams, axis=0)
    np.testing.assert_array_equal(env.lower, min_u[np.argmax(min_u, axis=0), cols])
    max_v = np.max(hams, axis=1)
    np.testing.assert_array_equal(env.upper, max_v[np.argmin(max_v, axis=0), cols])


def full_envelopes(scenario, t, state, sup, stats_row, z):
    """envelope_extremes of the full (nu, nv, particles) Hamiltonian array."""
    u_arr, v_arr = scenario.actions.array(), scenario.actions_v.array()
    hams = _hamiltonian_values(scenario, t, state, sup, stats_row, z,
                               [u_arr[:, None, None], v_arr[None, :, None]])
    return envelope_extremes(hams)


def assert_split_matches_full(env, full):
    for key in ("upper_u_index", "lower_v_index", "lower", "upper"):
        np.testing.assert_array_equal(getattr(env, key), getattr(full, key), err_msg=key)


def checking_envelopes(monkeypatch):
    """Patch game.envelopes to compare each call against the full array;
    returns the list of checked calls."""
    checked = []
    original = game_mod.envelopes

    def checked_envelopes(*args):
        env = original(*args)
        assert_split_matches_full(env, full_envelopes(*args))
        checked.append(1)
        return env

    monkeypatch.setattr(game_mod, "envelopes", checked_envelopes)
    return checked


def test_builtin_separability(separated_game, bilinear_game):
    assert separated_game.separable
    assert not bilinear_game.separable
    assert all(game.separable for game in mirrored_games())


def test_split_envelopes_match_full_array_at_every_solve_step(separated_game, paths4k,
                                                             monkeypatch):
    checked = checking_envelopes(monkeypatch)
    solve_game(separated_game, paths4k)
    assert len(checked) >= paths4k.grid.steps


@pytest.mark.parametrize("game", mirrored_games(), ids=lambda g: g.name)
def test_split_envelopes_match_full_array_on_mirrored_games(game, paths4k, monkeypatch):
    checked = checking_envelopes(monkeypatch)
    assert solve_game(game, paths4k).converged
    assert len(checked) >= paths4k.grid.steps


@pytest.mark.parametrize("seed", range(12))
def test_split_envelopes_match_full_array_on_random_separable_games(seed):
    rng = np.random.default_rng(seed)
    coeff = lambda: float(rng.choice([0.0, 1.0, -0.5, rng.normal()]))  # noqa: E731
    game = _game_config(
        drift={"state": coeff(), "stats": {"mean": coeff()},
               "control_u": coeff(), "control_v": coeff(), "const": coeff()},
        running_cost={"quad_u": coeff(), "quad_v": coeff(), "lin_u": coeff(),
                      "lin_v": coeff(), "const": coeff()},
        actions_u={"lo": -1.0, "hi": 1.0, "count": int(rng.integers(1, 12))},
        actions_v={"lo": -2.0, "hi": 0.5, "count": int(rng.integers(1, 12))},
    )
    assert game.separable
    m = 400
    x = rng.normal(size=m)
    z = rng.choice([0.0, 1.0, -1.0, 0.5], size=m) * rng.choice([1.0, rng.normal()], size=m)
    z[: m // 4] = 0.0        # ties: at z = 0 only the costs separate the actions
    stats_row = {"mean": float(rng.normal())}
    env = envelopes(game, 0.3, x, np.abs(x), stats_row, z)
    assert_split_matches_full(env, full_envelopes(game, 0.3, x, np.abs(x), stats_row, z))
    np.testing.assert_array_equal(env.gap, np.zeros(m))


@pytest.mark.parametrize("change", [{"running_cost": {"quad_u": 1.0, "bilinear": 0.25}},
                                    {"drift": {"control_u": 1.0, "bound_scale": 0.5}}],
                         ids=["bilinear", "bound_scale"])
def test_non_separable_games_take_the_full_array(change, monkeypatch):
    game = _game_config(**change)
    assert not game.separable
    shapes = []
    original = game_mod.envelope_extremes

    def recorded(hams):
        shapes.append(hams.shape)
        return original(hams)

    monkeypatch.setattr(game_mod, "envelope_extremes", recorded)
    x = np.linspace(-1.0, 1.0, 7)
    z = np.linspace(-2.0, 2.0, 7)
    env = envelopes(game, 0.0, x, np.abs(x), {"mean": 0.0}, z)
    assert shapes == [(21, 21, 7)]
    assert_split_matches_full(env, full_envelopes(game, 0.0, x, np.abs(x), {"mean": 0.0}, z))


# ---------------------------------------------------------------------------
# Isaacs check


def test_isaacs_gap_holds_for_separated_game(separated_game):
    report = isaacs_gap(separated_game)
    assert report.max_gap == 0.0
    assert report.holds
    assert len(report.z_points) == 25
    assert len(report.gap_by_z) == 25
    assert report.to_dict()["holds"] is True


def test_isaacs_gap_flags_bilinear_game(bilinear_game):
    report = isaacs_gap(bilinear_game)
    assert report.max_gap == 2.0
    assert not report.holds
    assert all(g == 2.0 for g in report.gap_by_z)


# the overflow is a warning on the way to the error under test
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_isaacs_gap_refuses_a_non_finite_hamiltonian(separated_game):
    overflowing = dataclasses.replace(
        separated_game, drift=dataclasses.replace(separated_game.drift, control=1e308))
    with pytest.raises(FloatingPointError, match="non-finite Hamiltonian envelope"):
        isaacs_gap(overflowing)


# ---------------------------------------------------------------------------
# saddle synthesis


def test_solve_game_certifies_separated_value(separated_game, paths4k):
    report = solve_game(separated_game, paths4k)
    assert report.converged
    assert report.isaacs.holds
    # the saddle drifts cancel pointwise (u = -1 meets v = +1), so the
    # matched flow is the reference flow up to rounding: one pass suffices
    assert len(report.trace) == 1
    assert report.matching_residual <= 1e-12
    assert report.outer_iterations == 0
    # saddle value 0; stderr misses basis projection drift, allow for it
    assert abs(report.value) <= 3.0 * report.value_stderr + 0.05
    assert abs(report.value_gap) <= 3.0 * report.value_gap_stderr + 0.05


def test_solve_game_saddle_actions_at_start(separated_game, paths4k):
    report = solve_game(separated_game, paths4k)
    u, v = report.pair.actions_pair(paths4k, 0)
    # all particles share the initial state, hence one action per side
    assert np.all(u == u[0])
    assert np.all(v == v[0])
    assert u[0] == -1.0
    assert v[0] == 1.0
    u_side, v_side = report.pair
    assert (u_side.label, v_side.label) == ("saddle-feedback|u", "saddle-feedback|v")


def test_solve_game_refuses_bilinear(bilinear_game, paths1k):
    with pytest.raises(IsaacsError, match="not certified") as excinfo:
        solve_game(bilinear_game, paths1k)
    assert excinfo.value.report.max_gap == 2.0
    assert not excinfo.value.report.holds


def test_solve_game_rejects_bad_arguments(lq, paths1k):
    with pytest.raises(TypeError, match="two-player"):
        solve_game(lq, paths1k)


def test_v_singleton_game_reduces_to_control_problem(paths4k):
    game = _game_config(
        drift={"control_u": 1.0},
        running_cost={"quad_u": 1.0},
        actions_v={"points": [[0.0]]},
    )
    report = solve_game(game, paths4k)
    assert report.converged
    # v is pinned at 0, leaving min_u (u^2/2 + zu): the single-player value
    assert abs(report.value + 0.5) <= 3.0 * report.value_stderr + 0.05
    _, v = report.pair.actions_pair(paths4k, 0)
    np.testing.assert_array_equal(v, np.zeros(paths4k.particles))


def test_mirrored_games_have_opposite_values(paths4k):
    a, b = mirrored_games()
    ra = solve_game(a, paths4k)
    rb = solve_game(b, paths4k)
    assert ra.converged and rb.converged

    # independent oracle: minimax over constant pairs of the closed form,
    # separable so min and max split
    grid = np.linspace(-1.0, 1.0, 21)
    ju = min(constant_pair_value(1.0, 0.5, 1.0, -1.0, 0.3, 0.0, 1.0, u, 0.0)
             for u in grid)
    jv = max(constant_pair_value(1.0, 0.5, 1.0, -1.0, 0.3, 0.0, 1.0, 0.0, v)
             for v in grid)
    value_a = ju + jv
    assert abs(value_a - (-0.675)) < 1e-12

    assert abs(ra.value - value_a) <= 3.0 * ra.value_stderr + 0.05
    assert abs(rb.value + value_a) <= 3.0 * rb.value_stderr + 0.05
    assert abs(ra.value + rb.value) <= 3.0 * np.hypot(ra.value_stderr, rb.value_stderr) + 0.1

    ua, va = ra.pair.actions_pair(paths4k, 0)
    ub, vb = rb.pair.actions_pair(paths4k, 0)
    assert (ua[0], va[0]) == (-1.0, 0.5)
    assert (ub[0], vb[0]) == (0.5, -1.0)


def test_saddle_report_serializes(separated_game, paths1k):
    report = solve_game(separated_game, paths1k)
    d = report.to_dict()
    for key in ("value", "j_hat", "value_gap", "value_gap_stderr",
                "matching_residual", "isaacs_max_gap", "outer_iterations",
                "converged", "trace"):
        assert key in d
    assert d["isaacs_max_gap"] == 0.0


# ---------------------------------------------------------------------------
# saddle verification


def test_verify_saddle_accepts_separated_equilibrium(separated_game, paths4k):
    report = solve_game(separated_game, paths4k)
    check = verify_saddle(separated_game, paths4k, report)
    assert check.passed
    assert len(check.u_rows) == 11
    assert len(check.v_rows) == 11
    assert check.j_pair == report.j_hat
    for row in (*check.u_rows, *check.v_rows):
        assert row["ok"], row


def test_verify_saddle_self_deviation_has_zero_slack(separated_game, paths4k):
    report = solve_game(separated_game, paths4k)
    pair = report.pair
    # replacing a side by itself reprices the identical pair, priced as each
    # deviation is (at the report's tol), so its slack against j_hat is zero
    res = evaluate_payoff(separated_game, tuple(pair), paths4k, tol=report.tol)
    assert res.value == report.j_hat


def test_trivial_game_payoffs_are_sample_means(paths1k):
    game = _game_config(terminal_cost={"kind": "linear", "coeff": 1.0})
    report = solve_game(game, paths1k)
    # no drift, no running cost: every payoff is the plain mean of x_T
    assert report.j_hat == float(np.mean(paths1k.values[:, -1]))
    assert len(report.trace) == 1
    assert report.outer_iterations == 0
    pair = (constant_control(-1.0, game.actions),
            constant_control(1.0, game.actions_v))
    res = evaluate_payoff(game, pair, paths1k)
    assert res.value == report.j_hat


def test_game_running_cost_stat_is_priced(separated_game, paths1k):
    from mfcontrol import builtin_config, validate_scenario

    c = 0.7
    doc = builtin_config("separated-game")
    doc["running_cost"]["stat"] = ["mean", c]
    priced = parse_scenario(doc)
    assert priced.running_cost.stat == ("mean", c)
    c2 = {e.code: e for e in validate_scenario(priced).entries}["C2"]
    assert c2.status == "not-certified" and "mean" in c2.reason
    # the pair (0, 0) moves nothing: every weight is exactly 1
    pair = tuple(constant_control(0.0, grid) for grid in separated_game.grids)
    base = evaluate_payoff(separated_game, pair, paths1k)
    res = evaluate_payoff(priced, pair, paths1k)
    assert np.all(res.flow.weights == 1.0)
    term = c * np.trapezoid(res.flow.statistic_series("mean"), dx=paths1k.grid.dt)
    assert abs(res.value - base.value - term) <= 1e-12
