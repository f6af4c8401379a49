"""Policy iteration where it is exact, and the envelope where it is not.

Part 1: the linear-quadratic built-in is law-free, so alternating minimized
backward solves with measure matching converges to the true optimum
y0 = -1/2 with feedback pinned at u = -1, and the certificate
eps_hat = J(synthesized) - y0 sits at Monte Carlo noise.

Part 2: the mean-reversion built-in reads the population mean, so pointwise
minimization against one frozen flow is only an equilibrium value: a control
priced under its own matched flow can beat it.  The comparison baseline is
the family lower envelope, the backward solve whose driver and terminal take
the pointwise minimum across candidates, each candidate under its own flow.
The envelope sits at or below every member payoff; the frozen value does not.
"""

import math

import numpy as np

from mfcontrol import (
    constant_control,
    envelope_bsde,
    evaluate_payoff,
    get_builtin,
    parametric_control,
    policy_iteration,
    simulate_for_scenario,
    stat_series,
)

M, N, SEED = 4000, 25, 7

# --- part 1: law-free scenario, policy iteration is the whole story --------
lq = get_builtin("linear-quadratic")
paths = simulate_for_scenario(lq, M, N, SEED)
report = policy_iteration(lq, paths)

print("linear-quadratic (exact optimum y0 = -0.5 at u = -1):")
print(f"  converged: {report.converged}, outer steps: {report.outer_iterations}")
print(f"  y0    = {report.y0:+.5f} +/- {report.y0_stderr:.5f}")
print(f"  j_hat = {report.j_hat:+.5f} +/- {report.j_stderr:.5f}")
print(f"  eps_hat = {report.eps_hat:+.5f} (zero up to noise)")
acts = report.control.actions(paths, N // 2)
print(f"  synthesized feedback at t = 0.5: mean {np.mean(acts):+.3f},"
      f" range [{np.min(acts):+.2f}, {np.max(acts):+.2f}]")

# --- part 2: law coupling, the envelope is the honest baseline -------------
mf = get_builtin("mean-field-mean-reversion")
paths = simulate_for_scenario(mf, M, N, SEED)
frozen = policy_iteration(mf, paths)

family = [
    constant_control(-1.0),
    constant_control(-0.5),
    parametric_control(-0.74, 0.14, -0.3),
    constant_control(0.0),
]
payoffs = [evaluate_payoff(mf, c, paths) for c in family]
env = envelope_bsde(mf, paths, family, [stat_series(mf, p.flow) for p in payoffs])

print("\nmean-field mean-reversion (running cost reads the population mean):")
print(f"  frozen-flow equilibrium value: {frozen.y0:+.5f} +/- {frozen.y0_stderr:.5f}")
for c, p in zip(family, payoffs):
    beats = "beats the frozen value" if p.value < frozen.y0 else ""
    print(f"  J({c.label:<22}) = {p.value:+.5f} +/- {p.stderr:.5f}  {beats}")
print(f"  family envelope value:         {env.y0:+.5f} +/- {env.y0_stderr:.5f}")

worst, allow = min((p.value - env.y0, 3 * math.hypot(p.stderr, env.y0_stderr))
                   for p in payoffs)
print(f"  smallest member slack over the envelope: {worst:+.5f}"
      f" (3 sigma allows down to -{allow:.5f})")
