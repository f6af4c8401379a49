"""Saddle synthesis with the Isaacs gate, on one solvable and one hopeless game.

The separated game has Hamiltonian h = z (u + v) + u^2 / 2 - v^2 / 2 on
[-1, 1]^2: minimum over u and maximum over v commute, the saddle is the
pair of feedbacks clipping -z and +z to the grid, and at z = 0 the value is
exactly zero.  Unilateral constant deviations from the synthesized pair can
only hurt each side, which verify_saddle checks by reweighting the same
ensemble.

The bilinear game h = z u v on u, v in {-1, +1} is the standard example
where min and max do not commute: the sampled envelope gap is 2 at |z| = 1,
so solve_game refuses to synthesize anything and raises IsaacsError before
touching the ensemble.
"""

import numpy as np

from mfcontrol import (
    IsaacsError,
    get_builtin,
    isaacs_gap,
    simulate_for_scenario,
    solve_game,
    verify_saddle,
)

M, N, SEED = 4000, 25, 7

game = get_builtin("separated-game")
paths = simulate_for_scenario(game, M, N, SEED)

gap = isaacs_gap(game)
print(f"separated game: sampled Isaacs gap = {gap.max_gap:.2e}"
      f" (tol {gap.tol:g}, holds: {gap.holds})")

report = solve_game(game, paths)
print(f"  converged: {report.converged} with {report.outer_iterations} productive"
      " flow updates (the saddle drift u + v vanishes, so the matched flow is"
      " the reference)")
grid_term = game.horizon * (game.actions.resolution ** 2
                            + game.actions_v.resolution ** 2) / 8.0
allow = 3.0 * report.value_stderr + grid_term
print(f"  saddle value y0 = {report.value:+.5f} +/- {report.value_stderr:.5f}"
      f"   (exact 0, allowance {allow:.5f} = 3 sigma + grid resolution)")
print(f"  pair payoff   J = {report.j_hat:+.5f} +/- {report.j_stderr:.5f}")
u, v = report.pair
acts_u, acts_v = u.actions(paths, N // 2), v.actions(paths, N // 2)
print(f"  feedbacks at t = 0.5: u mean {np.mean(acts_u):+.3f},"
      f" v mean {np.mean(acts_v):+.3f}   (exact -1 and +1)")

check = verify_saddle(game, paths, report)
worst_u = min(r["slack"] for r in check.u_rows)
worst_v = min(r["slack"] for r in check.v_rows)
print(f"  deviations: {len(check.u_rows)} for u, {len(check.v_rows)} for v,"
      f" all within tolerance: {check.passed}")
print(f"  worst slacks: u side {worst_u:+.5f}, v side {worst_v:+.5f}"
      "   (>= -3 sigma each)")

bilinear = get_builtin("bilinear-game")
gap = isaacs_gap(bilinear)
print(f"\nbilinear game: sampled Isaacs gap = {gap.max_gap:.1f} (tol {gap.tol:g})")
try:
    solve_game(bilinear, simulate_for_scenario(bilinear, 200, 4, SEED))
except IsaacsError as err:
    print(f"  solve_game aborted as it must: {err}")
