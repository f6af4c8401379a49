"""Price many controls on one ensemble and check against closed forms.

The linear-quadratic built-in has drift f = u, running cost h = u^2 / 2 and
terminal g = x_T, so a constant control u costs

    J(u) = u T + u^2 T / 2,

minimized at u = -1 with J(-1) = -1/2.  Every J below comes from the same
driftless ensemble via exponential reweighting; no control is resimulated.
The density normalization E[L_T] should straddle one for each control.
"""

from mfcontrol import constant_control, evaluate_payoff, get_builtin, simulate_for_scenario

M, N, SEED = 4000, 25, 7

scenario = get_builtin("linear-quadratic")
paths = simulate_for_scenario(scenario, M, N, SEED)
T = scenario.horizon

print(f"ensemble: {M} particles, {N} steps, seed {SEED} (built once)")
print(f"\n{'u':>6}  {'J(u)':>10}  {'exact':>10}  {'z-score':>8}  {'E[L_T]':>8}")

for u in (-1.5, -1.0, -0.5, 0.0, 0.5, 1.0):
    payoff = evaluate_payoff(scenario, constant_control(u), paths)
    exact = u * T + 0.5 * u * u * T
    z = (payoff.value - exact) / payoff.stderr
    mass, mass_se = payoff.flow.normalization()
    print(f"{u:>6.2f}  {payoff.value:>10.5f}  {exact:>10.5f}  {z:>8.2f}"
          f"  {mass[-1]:>8.4f}")

best = evaluate_payoff(scenario, constant_control(-1.0), paths)
print(f"\nminimizer u = -1: J = {best.value:.5f} +/- {best.stderr:.5f}"
      f"  (exact -0.5)")
