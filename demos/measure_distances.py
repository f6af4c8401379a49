"""Distances between reweighted laws, checked against Gaussian closed forms.

In the linear-quadratic scenario the drift is the action itself, so the
constant controls u and v reweight the driftless unit-diffusion reference
ensemble by the constant drifts u and v.  The two reweightings push the
terminal state to N(u T, T) and N(v T, T), and their
likelihood ratios depend on the path only through x_T.  The path-space total
variation (factor-2 convention) therefore has the closed form

    TV = 2 erf(|u - v| sqrt(T) / (2 sqrt(2))),

the binned marginal TV can only sit below the path-space value, and the
Hellinger process gives gamma = T (u - v)^2 / 8 with TV <= 8 sqrt(gamma).
"""

import math

from mfcontrol import (
    DriftEvaluator,
    MeasureFlow,
    constant_control,
    density_process,
    get_builtin,
    hellinger_bound,
    reference_flow,
    simulate_for_scenario,
    tv_marginal,
    tv_pathspace,
)

M, N, SEED = 4000, 25, 7

scenario = get_builtin("linear-quadratic")
paths = simulate_for_scenario(scenario, M, N, SEED)
T = scenario.horizon
reference = reference_flow(paths)


def drift(u: float) -> DriftEvaluator:
    """The drift 0.0 x + u + 0.0 of the constant control u, which is u."""
    return DriftEvaluator(scenario, reference, constant_control(u))


def drifted_flow(u: float) -> MeasureFlow:
    return MeasureFlow(paths, density_process(drift(u)))


print(f"ensemble: {M} particles, {N} steps, seed {SEED}")
print(f"\n{'u':>5} {'v':>5}  {'TV path':>9}  {'exact':>7}  {'z':>6}"
      f"  {'TV marginal':>11}  {'8*sqrt(gamma)':>13}")

for u, v in ((0.0, 0.25), (0.0, 0.5), (-0.5, 0.5), (0.0, 2.0)):
    a, b = drifted_flow(u), drifted_flow(v)
    path = tv_pathspace(a, b, N)
    marg = tv_marginal(a, b, N)
    exact = 2.0 * math.erf(abs(u - v) * math.sqrt(T) / (2.0 * math.sqrt(2.0)))
    z = (path.value - exact) / path.stderr
    gam, bound, _ = hellinger_bound(a, drift(u), drift(v))
    print(f"{u:>5.2f} {v:>5.2f}  {path.value:>9.4f}  {exact:>7.4f}  {z:>6.2f}"
          f"  {marg.value:>11.4f}  {bound:>13.4f}")

print("\ngamma check at (u, v) = (0, 0.5): exact T (u-v)^2 / 8 ="
      f" {T * 0.25 / 8:.5f}")
a = drifted_flow(0.0)
gam, bound, se = hellinger_bound(a, drift(0.0), drift(0.5))
print(f"estimated gamma = {gam:.5f} +/- {se:.5f}, TV bound {bound:.4f}")
print("\nordering holds on every row: marginal <= path-space <= Hellinger bound"
      " (the last is loose for far-apart laws, where TV saturates at 2)")
