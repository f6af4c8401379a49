"""One driftless reference ensemble is the whole simulation budget.

Every controlled law in this library is a reweighting of the ensemble built
here; nothing downstream ever resimulates.  This script builds the ensemble
for the zero-drift built-in and checks its Gaussian moments against closed
forms: X_T ~ N(0, T), so E[X_T^2] = T and E[X_T^4] = 3 T^2.  The running
supremum of |X| is printed next to its elementary lower bound
E[|X_T|] = sqrt(2 T / pi).
"""

import numpy as np

from mfcontrol import ensemble_moments, get_builtin, simulate_for_scenario

M, N, SEED = 4000, 25, 7

scenario = get_builtin("zero-drift")
paths = simulate_for_scenario(scenario, M, N, SEED)
T = scenario.horizon

print(f"ensemble: {M} particles, {N} steps, horizon {T:g}, seed {SEED}")
print(f"dt = {paths.grid.dt:g}, state shape {paths.values.shape}")

moments = ensemble_moments(paths)
x_t = paths.values[:, -1]   # the state is a real number: one column per grid time
mean = float(np.mean(x_t))
se1 = np.std(x_t) / np.sqrt(M)
se2 = np.std(x_t ** 2) / np.sqrt(M)
se4 = np.std(x_t ** 4) / np.sqrt(M)
print("\nterminal moments vs N(0, T):")
print(f"  E[X_T]   = {mean:+.4f}   (exact 0, stderr {se1:.4f})")
print(f"  E[X_T^2] = {moments[2]:.4f}   (exact {T:g}, stderr {se2:.4f})")
print(f"  E[X_T^4] = {moments[4]:.4f}   (exact {3 * T * T:g}, stderr {se4:.4f})")

sup_mean = float(np.mean(paths.running_sup[:, -1]))
print("\nrunning supremum of |X| at the horizon:")
print(f"  E[sup |X|] = {sup_mean:.4f}  >=  E[|X_T|] = {moments[1]:.4f}"
      f"  (Gaussian E[|X_T|] = {np.sqrt(2 * T / np.pi):.4f})")

# the sup column is what sup-modulated diffusions and the regression basis read
print("\nsup column is nondecreasing:",
      bool(np.all(np.diff(paths.running_sup, axis=1) >= 0)))
