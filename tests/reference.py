"""Reference pieces the tests compare the library against.

linear_driver is the payoff equation's driver in the per-particle form
solve_driver_bsde takes, so a family member can be checked against a solo
driver solve and the H kernel against the driver.  coefficient_solution
wraps bare z coefficients in a BsdeSolution, which is all a synthesized
feedback reads.  constant_drift is the drift of a constant control, a
DriftEvaluator on the reference flow.  hellinger_pairwise is
hellinger_bound as one pair's own pass: the trapezoid of ((bA - bB) /
sigma)^2 along each path, under flow_a's horizon weights.
picard_every_application is the measure fixed point that applies the Picard
map until an update falls below tol, with no shortcut for a repeated input,
and synthesize_every_pass is the synthesis loop without that shortcut at the
outer level.  fresh_density, fresh_statistic_series and fresh_payoff are the
forward kernels as they were before they wrote into scratch arrays: every
block's drift, theta, products and trapezoid terms in fresh arrays, by the
same formulas in the same order.
"""

import numpy as np

from mfcontrol import (BsdeSolution, DriftEvaluator, FixpointConvergenceError,
                       FixpointDiagnostics, FixpointResult, MeasureFlow, constant_control,
                       density_process, evaluate_payoff, fixpoint_measure_flow, get_builtin,
                       mean_stderr, reference_flow, stat_series, tv_pathspace)
from mfcontrol.core import particle_blocks
from mfcontrol.bsde import _family_hamiltonian, terminal_values
from mfcontrol.control import _MAX_OUTER, _extremal_solve
from mfcontrol.girsanov import control_actions


def linear_driver(scenario, paths, series, control):
    """Driver (t_index, z) -> H = h + z sigma^{-1} f per particle for one
    fixed control (or pair) at the law given by its statistic series, z of
    shape (particles,)."""
    hamiltonian_at = _family_hamiltonian(scenario, paths, [control], [series])
    return lambda k, z: hamiltonian_at(k, z)[0]


def coefficient_solution(basis, z_coefficients):
    """A BsdeSolution with the given (steps, width) z coefficients and zero
    values, residuals and noise scales."""
    steps = z_coefficients.shape[0]
    return BsdeSolution(y0=0.0, y0_stderr=0.0, y_residuals=np.zeros(steps),
                        z_coefficients=z_coefficients, z_gram_factors=(),
                        z_resid_rms=np.zeros(steps), basis=basis)


def constant_drift(paths, u, scenario=None, base=None):
    """The drift of the constant control u along the ensemble, read under
    scenario (linear-quadratic by default, whose drift 0.0 x + u + 0.0 has
    the bits of u at every particle), or a held base in its place."""
    scenario = get_builtin("linear-quadratic") if scenario is None else scenario
    return DriftEvaluator(scenario, reference_flow(paths), constant_control(u), base)


def hellinger_pairwise(flow_a, drift_a, drift_b):
    """(gamma_hat, bound, stderr) of hellinger_bound from the pair's own
    difference of drifts, a block of particles at a time."""
    paths = flow_a.paths
    sigma = drift_a.scenario.sigma
    grid = paths.grid
    n = grid.steps
    steps = slice(0, n + 1)
    gamma_paths = np.empty(paths.particles)
    for rows in particle_blocks(paths.particles, n + 1):
        diff = drift_a.over(rows, steps, None) - drift_b.over(rows, steps, None)
        integrand = sigma.inv_apply(grid.times, paths.values[rows],
                                    paths.running_sup[rows], diff, None) ** 2
        gamma_paths[rows] = np.trapezoid(integrand, dx=grid.dt, axis=1) / 8.0
    gamma_hat, stderr = mean_stderr(flow_a.weights[:, n] * gamma_paths)
    gamma_hat = max(gamma_hat, 0.0)
    return gamma_hat, 8.0 * np.sqrt(gamma_hat), stderr


def picard_every_application(scenario, control, paths, tol=1e-3, max_iter=50):
    """FixpointResult of flow -> reweighted flow from the reference flow,
    applying the map (and measuring its horizon TV update) until an update
    falls below tol; FixpointConvergenceError after max_iter applications."""
    stats = scenario.statistic_map
    flow = reference_flow(paths, stats)
    distances, stderrs = [], []
    for _ in range(max_iter):
        drift_at = DriftEvaluator(scenario, flow, control)
        new_flow = MeasureFlow(paths, density_process(drift_at), stats)
        est = tv_pathspace(flow, new_flow, paths.grid.steps)
        distances.append(est.value)
        stderrs.append(est.stderr)
        flow = new_flow
        if est.value < tol:
            diag = FixpointDiagnostics(tuple(distances), tuple(stderrs), tol, True)
            return FixpointResult(flow=flow, diagnostics=diag)
    raise FixpointConvergenceError(FixpointDiagnostics(tuple(distances), tuple(stderrs),
                                                       tol, False))


def synthesize_every_pass(scenario, paths, basis, feedback, tol):
    """control._synthesize with no shortcut for a repeated input: every outer
    pass solves, synthesizes and rematches until the horizon TV between
    successive flows falls below tol, and the final solve always runs."""
    extremes = feedback.extremes
    flow = reference_flow(paths, scenario.statistic_map)
    trace = []
    for it in range(1, _MAX_OUTER + 1):
        series = stat_series(scenario, flow)
        sol, found = _extremal_solve(scenario, paths, series, extremes, basis)
        control = feedback(scenario, sol, {name: s.copy() for name, s in series.items()})
        control._rows[paths] = found
        fixres = fixpoint_measure_flow(scenario, control, paths, tol=tol)
        est = tv_pathspace(flow, fixres.flow, paths.grid.steps)
        trace.append((it, est.value, est.stderr))
        flow = fixres.flow
        if est.value < tol:
            break
    final_sol, _ = _extremal_solve(scenario, paths, stat_series(scenario, flow), extremes,
                                   basis)
    payoff = evaluate_payoff(scenario, control, paths, fixpoint=fixres)
    return control, fixres, final_sol, payoff, tuple(trace), trace[-1][1] < tol


def fresh_drift(drift, rows, steps):
    """DriftEvaluator.over of the block in fresh arrays: base plus each
    statistic term, then the bound_scale clip."""
    spec, paths = drift.scenario.drift, drift.paths
    out = (spec.base(paths.values[rows, steps],
                     *control_actions(drift.control, paths, rows, steps))
           if drift.base is None else drift.base[rows, steps])
    for name, coeff in spec.stats:
        if coeff != 0.0:
            out = out + coeff * drift.series[name][steps]
    if spec.bound_scale is not None:
        out = spec.bound_scale * np.tanh(out / spec.bound_scale)
    return out


def fresh_density(drift):
    """density_process's weights with each block's theta = sigma^{-1} f,
    theta dW and theta^2 dt / 2 in fresh arrays."""
    paths, sigma = drift.paths, drift.scenario.sigma
    dw = paths.increments
    m, n = dw.shape
    steps = slice(0, n)
    log_w = np.zeros((m, n + 1))
    for rows in particle_blocks(m, n + 1):
        vec = fresh_drift(drift, rows, steps)
        if sigma.kind == "constant":
            theta = (1.0 / sigma.base) * vec
        else:
            vals = sigma.scalar_values(paths.grid.times[steps], paths.values[rows, steps],
                                       paths.running_sup[rows, steps])
            theta = (1.0 / vals) * vec
        drive, square = theta * dw[rows], theta * theta
        square *= 0.5 * paths.grid.dt
        np.subtract(drive, square, out=log_w[rows, 1:])
    for k in range(1, n + 1):
        np.add(log_w[:, k - 1], log_w[:, k], out=log_w[:, k])
    return np.exp(log_w, out=log_w)


def fresh_statistic_series(flow, name):
    """MeasureFlow.statistic_series with each block's w * psi a fresh array."""
    spec = flow.statistics[name]
    m, cols = flow.weights.shape
    total = None
    for rows in particle_blocks(m, cols):
        prod = flow.weights[rows] * spec.evaluate(flow.paths.values[rows])
        if total is not None:
            prod[0] += total
        total = prod.sum(axis=0)
    return total / m


def fresh_payoff(scenario, control, paths, flow):
    """evaluate_payoff's per-particle payoffs on the flow, each block's
    running cost integrated by np.trapezoid itself."""
    n = paths.grid.steps
    steps = slice(0, n + 1)
    names = dict.fromkeys((*scenario.running_cost.stat_names(),
                           *scenario.terminal_cost.stat_names()))
    series = {name: fresh_statistic_series(flow, name) for name in names}
    running = np.empty(paths.particles)
    for rows in particle_blocks(paths.particles, n + 1):
        h = scenario.running_cost.evaluate(
            paths.values[rows], series, *control_actions(control, paths, rows, steps))
        running[rows] = np.trapezoid(flow.weights[rows] * h, dx=paths.grid.dt, axis=1)
    return running + flow.weights[:, n] * terminal_values(scenario, paths, series)
