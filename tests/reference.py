"""Reference pieces the tests compare the library against.

linear_driver is the payoff equation's driver in the per-particle form
solve_driver_bsde takes, so a family member can be checked against a solo
driver solve and the H kernel against the driver.  coefficient_solution
wraps bare z coefficients in a BsdeSolution, which is all a synthesized
feedback reads.
"""

import numpy as np

from mfcontrol import BsdeSolution
from mfcontrol.bsde import _family_hamiltonian


def linear_driver(scenario, flow, control):
    """Driver (t_index, z) -> H = h + z . sigma^{-1} f per particle for one
    fixed control (or pair) at the flow, z of shape (particles, dim)."""
    hamiltonian_at = _family_hamiltonian(scenario, flow.paths, [control], [flow])
    return lambda k, z: hamiltonian_at(k, z)[0]


def coefficient_solution(basis, z_coefficients):
    """A BsdeSolution with the given (steps, width, dim) z coefficients and
    zero values, residuals and noise scales."""
    steps, _, dim = z_coefficients.shape
    return BsdeSolution(y0=0.0, y0_stderr=0.0, y_residuals=np.zeros(steps),
                        z_coefficients=z_coefficients, z_gram_factors=(),
                        z_resid_rms=np.zeros((steps, dim)), basis=basis)
