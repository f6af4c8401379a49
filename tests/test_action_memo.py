"""Feedback actions are computed once per (ensemble, step) and reused.

The synthesized feedbacks freeze their statistics at synthesis, so their
actions depend only on the ensemble they are read on.  The memo is keyed by
the ensemble's identity: these tests check it against the uncached formula
across ensemble switches, against callers that write to returned arrays, and
by counting the minimization kernels it calls.  A feedback built by the
synthesis loop starts with the extremizer rows its backward solve found;
those must be the rows it would compute itself.
"""

import dataclasses
import gc
import weakref

import numpy as np
import pytest

import mfcontrol.control as control_mod
import mfcontrol.game as game_mod
from mfcontrol import (
    ActionGrid,
    BasisSpec,
    BsdeFeedbackControl,
    PairFeedbackControl,
    envelopes,
    minimized_hamiltonian,
    policy_iteration,
    simulate_for_scenario,
    solve_game,
)
from mfcontrol.control import _HeldRows, grid_index_dtype
from reference import coefficient_solution

STEPS = 8


def _solution(basis, seed):
    rng = np.random.default_rng(seed)
    return coefficient_solution(basis, rng.normal(scale=1.5, size=(STEPS, basis.width())))


@pytest.fixture(scope="module")
def ensembles(mean_field):
    a = simulate_for_scenario(mean_field, particles=300, steps=STEPS, seed=1)
    b = simulate_for_scenario(mean_field, particles=300, steps=STEPS, seed=2)
    return a, b


@pytest.fixture
def feedback(mean_field):
    basis = BasisSpec()
    stats = {"mean": np.linspace(0.0, 0.4, STEPS + 1)}
    return BsdeFeedbackControl(mean_field, mean_field.actions, _solution(basis, 21), stats)


@pytest.fixture
def pair(separated_game):
    basis = BasisSpec()
    stats = {"mean": np.zeros(STEPS + 1)}
    return PairFeedbackControl(separated_game, _solution(basis, 22), stats)


def uncached_actions(control, paths, k):
    z = control.solution.z_at(paths, k)
    _, acts = minimized_hamiltonian(control.scenario, paths.grid.times[k],
                                    paths.state(k), paths.sup(k),
                                    control.stats_at(k), z, control.grid)
    return acts


def uncached_pair(pair, paths, k):
    z = pair.solution.z_at(paths, k)
    env = envelopes(pair.scenario, paths.grid.times[k], paths.state(k),
                    paths.sup(k), pair.stats_at(k), z)
    return env.upper_u, env.lower_v


def counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_feedback_actions_match_uncached_across_ensemble_switches(feedback, ensembles):
    a, b = ensembles
    ref = {id(p): [uncached_actions(feedback, p, k) for k in range(STEPS + 1)]
           for p in (a, b)}
    # the actions must vary, or equality would not show which ensemble was read
    assert len(np.unique(np.concatenate(ref[id(a)]))) > 2
    assert any(not np.array_equal(x, y) for x, y in zip(ref[id(a)], ref[id(b)]))
    for paths in (a, b, a, a, b):
        for k in range(STEPS + 1):
            np.testing.assert_array_equal(feedback.actions(paths, k), ref[id(paths)][k])


def test_pair_actions_match_uncached_across_ensemble_switches(pair, ensembles):
    a, b = ensembles
    ref = {id(p): [uncached_pair(pair, p, k) for k in range(STEPS + 1)] for p in (a, b)}
    assert len(np.unique(np.concatenate([u for u, _ in ref[id(a)]]))) > 2
    for paths in (a, b, a, a, b):
        for k in range(STEPS + 1):
            u, v = pair.actions_pair(paths, k)
            np.testing.assert_array_equal(u, ref[id(paths)][k][0])
            np.testing.assert_array_equal(v, ref[id(paths)][k][1])
            np.testing.assert_array_equal(pair.u_control.actions(paths, k), u)
            np.testing.assert_array_equal(pair.v_control.actions(paths, k), v)


def test_returned_arrays_do_not_alias_the_memo(feedback, pair, ensembles):
    a, _ = ensembles
    for k in range(STEPS + 1):
        expected = uncached_actions(feedback, a, k)
        feedback.actions(a, k)[:] = 1e9
        np.testing.assert_array_equal(feedback.actions(a, k), expected)

        eu, ev = uncached_pair(pair, a, k)
        u, v = pair.actions_pair(a, k)
        u[:] = 1e9
        v[:] = -1e9
        pair.u_control.actions(a, k)[:] = 1e9
        pair.v_control.actions(a, k)[:] = -1e9
        u, v = pair.actions_pair(a, k)
        np.testing.assert_array_equal(u, eu)
        np.testing.assert_array_equal(v, ev)


def test_feedback_minimizes_once_per_step_and_ensemble(feedback, ensembles, monkeypatch):
    a, _ = ensembles
    calls = counting(monkeypatch, control_mod, "minimized_hamiltonian")
    for _ in range(3):
        for k in range(STEPS + 1):
            feedback.actions(a, k)
    assert len(calls) == STEPS + 1
    # an equal but distinct ensemble is another key: identity, not equality
    twin = dataclasses.replace(a)
    assert twin is not a
    for k in range(STEPS + 1):
        np.testing.assert_array_equal(feedback.actions(twin, k), feedback.actions(a, k))
    # and a's rows are still held after the twin's: no switch refreshes them
    for k in range(STEPS + 1):
        feedback.actions(a, k)
    assert len(calls) == 2 * (STEPS + 1)


def test_feedback_rows_go_with_their_ensemble(feedback, mean_field):
    paths = simulate_for_scenario(mean_field, particles=200, steps=STEPS, seed=3)
    for k in range(STEPS + 1):
        feedback.actions(paths, k)
    assert feedback._rows[paths].filled.all()
    rows = [weakref.ref(matrix) for matrix in feedback._rows[paths].rows]
    alive = weakref.ref(paths)
    del paths
    gc.collect()
    assert alive() is None
    assert all(r() is None for r in rows)


def test_pair_sides_share_one_envelope_call_per_step(pair, ensembles, monkeypatch):
    a, b = ensembles
    calls = counting(monkeypatch, game_mod, "envelopes")
    u_side, v_side = pair.u_control, pair.v_control
    for k in range(STEPS + 1):
        u_side.actions(a, k)
        v_side.actions(a, k)
    assert len(calls) == STEPS + 1
    for k in range(STEPS + 1):
        v_side.actions(b, k)
        u_side.actions(b, k)
        pair.actions_pair(b, k)
    assert len(calls) == 2 * (STEPS + 1)


@pytest.mark.parametrize("count,dtype", [(1, np.uint8), (11, np.uint8), (256, np.uint8),
                                         (257, np.uint16), (70000, np.uint32)])
def test_grid_index_dtype_is_the_smallest_unsigned_fit(count, dtype):
    grid = ActionGrid(points=tuple(float(i) for i in range(count)))
    assert grid_index_dtype(grid) == dtype


# ---------------------------------------------------------------------------
# feedbacks seeded with the extremizers of their own backward solve


def fresh_feedback(control):
    """A feedback with the same solution and statistics and no held rows."""
    if isinstance(control, PairFeedbackControl):
        return PairFeedbackControl(control.scenario, control.solution, control.stat_series)
    return BsdeFeedbackControl(control.scenario, control.grid, control.solution,
                               control.stat_series)


def synthesize(name, paths, scenarios):
    scen = scenarios[name]
    if scen.kind == "game":
        return solve_game(scen, paths).pair
    return policy_iteration(scen, paths).control


@pytest.fixture(scope="module")
def scenarios(lq, mean_field, separated_game):
    return {s.name: s for s in (lq, mean_field, separated_game)}


@pytest.mark.parametrize("name", ["linear-quadratic", "mean-field-mean-reversion",
                                  "separated-game"])
def test_seeded_rows_are_the_feedbacks_own(name, scenarios):
    scen = scenarios[name]
    paths = simulate_for_scenario(scen, particles=1000, steps=STEPS, seed=41)
    control = synthesize(name, paths, scenarios)
    fresh = fresh_feedback(control)

    held = control._rows[paths]
    for k in range(STEPS + 1):
        assert held.filled[k], "step missing from the held rows"
        seeded = [matrix[:, k] for matrix in held.rows]
        own = fresh._step_rows(paths, k)
        assert len(seeded) == len(own) == len(control._grids)
        for rows, expected, grid in zip(seeded, own, control._grids):
            assert rows.dtype == grid_index_dtype(grid)
            np.testing.assert_array_equal(rows, expected)


def test_policy_iteration_repeats_bit_for_bit_on_one_ensemble(mean_field):
    # the first run factors every step's design (misses), the second reads
    # the stored factors (hits); the two must not differ in any bit
    paths = simulate_for_scenario(mean_field, particles=1000, steps=STEPS, seed=42)
    first, second = (policy_iteration(mean_field, paths) for _ in range(2))
    assert first.y0 == second.y0 and first.j_hat == second.j_hat
    np.testing.assert_array_equal(first.solution.y_residuals, second.solution.y_residuals)
    for k in range(STEPS + 1):
        np.testing.assert_array_equal(first.solution.z_at(paths, k),
                                      second.solution.z_at(paths, k))
        np.testing.assert_array_equal(first.control.actions(paths, k),
                                      second.control.actions(paths, k))


@pytest.mark.parametrize("name", ["linear-quadratic", "mean-field-mean-reversion"])
def test_each_outer_iteration_saves_one_minimization_per_step(name, scenarios, monkeypatch):
    scen = scenarios[name]
    paths = simulate_for_scenario(scen, particles=1000, steps=STEPS, seed=43)
    calls = counting(monkeypatch, control_mod, "minimized_hamiltonian")
    fixpoints = counting(monkeypatch, control_mod, "fixpoint_measure_flow")
    seeded = policy_iteration(scen, paths)
    seeded_calls = len(calls)
    # a pass whose input repeats (linear-quadratic's second) runs no solve
    # and no feedback; every other pass runs one of each
    solved = len(seeded.trace) - (name == "linear-quadratic")
    assert len(fixpoints) == solved
    # the same loop with the seeding switched off: every feedback computes
    # all of its extremizers itself
    solve = control_mod._extremal_solve
    monkeypatch.setattr(control_mod, "_extremal_solve",
                        lambda scen, flow, *rest: (solve(scen, flow, *rest)[0],
                                                   _HeldRows(flow.paths, scen.grids)))
    calls.clear()
    unseeded = policy_iteration(scen, paths)
    assert seeded.y0 == unseeded.y0 and seeded.j_hat == unseeded.j_hat
    # the backward driver visits steps 0..N-1; step N is the feedback's own
    assert len(calls) - seeded_calls == solved * STEPS
