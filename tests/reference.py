"""Reference pieces the tests compare the library against.

linear_driver is the payoff equation's driver in the per-particle form
solve_driver_bsde takes, so a family member can be checked against a solo
driver solve and the H kernel against the driver.  coefficient_solution
wraps bare z coefficients in a BsdeSolution, which is all a synthesized
feedback reads.  picard_every_application is the measure fixed point that
applies the Picard map until an update falls below tol, with no shortcut for
a repeated input.
"""

import numpy as np

from mfcontrol import (BsdeSolution, DriftEvaluator, FixpointConvergenceError,
                       FixpointDiagnostics, FixpointResult, MeasureFlow, density_process,
                       reference_flow, tv_pathspace)
from mfcontrol.bsde import _family_hamiltonian


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


def picard_every_application(scenario, control, paths, tol=1e-3, max_iter=50):
    """FixpointResult of flow -> reweighted flow from the reference flow,
    applying the map (and measuring its horizon TV update) until an update
    falls below tol; FixpointConvergenceError after max_iter applications."""
    stats = scenario.statistic_map
    flow = reference_flow(paths, stats)
    distances, stderrs = [], []
    for _ in range(max_iter):
        drift_at = DriftEvaluator(scenario, flow, control)
        new_flow = MeasureFlow(paths, density_process(paths, drift_at, scenario.sigma), stats)
        est = tv_pathspace(flow, new_flow, paths.grid.steps)
        distances.append(est.value)
        stderrs.append(est.stderr)
        flow = new_flow
        if est.value < tol:
            diag = FixpointDiagnostics(tuple(distances), tuple(stderrs), tol, True)
            return FixpointResult(flow=flow, diagnostics=diag)
    raise FixpointConvergenceError(FixpointDiagnostics(tuple(distances), tuple(stderrs),
                                                       tol, False))
