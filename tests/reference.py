"""Reference pieces the tests compare the library against.

linear_driver is the payoff equation's driver in the per-particle form
solve_driver_bsde takes, so a family member can be checked against a solo
driver solve and the H kernel against the driver.  coefficient_solution
wraps bare z coefficients in a BsdeSolution, which is all a synthesized
feedback reads.  constant_drift is the drift of a constant control, a
DriftEvaluator on the reference flow.  picard_every_application is the
measure fixed point that applies the Picard map until an update falls below
tol, with no shortcut for a repeated input, and synthesize_every_pass is the
synthesis loop without that shortcut at the outer level.
"""

import numpy as np

from mfcontrol import (BsdeSolution, DriftEvaluator, FixpointConvergenceError,
                       FixpointDiagnostics, FixpointResult, MeasureFlow, constant_control,
                       density_process, evaluate_payoff, fixpoint_measure_flow, get_builtin,
                       reference_flow, tv_pathspace)
from mfcontrol.bsde import _family_hamiltonian, _stat_series
from mfcontrol.control import _MAX_OUTER, _extremal_solve


def linear_driver(scenario, flow, control):
    """Driver (t_index, z) -> H = h + z sigma^{-1} f per particle for one
    fixed control (or pair) at the flow, z of shape (particles,)."""
    hamiltonian_at = _family_hamiltonian(scenario, flow.paths, [control], [flow])
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


def synthesize_every_pass(scenario, paths, basis, extremes, feedback, tol):
    """control._synthesize with no shortcut for a repeated input: every outer
    pass solves, synthesizes and rematches until the horizon TV between
    successive flows falls below tol, and the final solve always runs."""
    flow = reference_flow(paths, scenario.statistic_map)
    trace = []
    for it in range(1, _MAX_OUTER + 1):
        sol, found = _extremal_solve(scenario, flow, extremes, basis)
        control = feedback(sol, {name: s.copy()
                                 for name, s in _stat_series(scenario, flow).items()})
        control._rows[paths] = found
        fixres = fixpoint_measure_flow(scenario, control, paths, tol=tol)
        est = tv_pathspace(flow, fixres.flow, paths.grid.steps)
        trace.append((it, est.value, est.stderr))
        flow = fixres.flow
        if est.value < tol:
            break
    final_sol, _ = _extremal_solve(scenario, flow, extremes, basis)
    payoff = evaluate_payoff(scenario, control, paths, fixpoint=fixres)
    return control, fixres, final_sol, payoff, tuple(trace), trace[-1][1] < tol
