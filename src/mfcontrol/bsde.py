"""Backward SDEs by least-squares Monte Carlo on the reference ensemble.

The terminal condition and driver are rolled back step by step:

    Y_N = g,
    Z_k = E[(Y_{k+1} - E[Y_{k+1}|F_k]) dW_k | F_k] / dt   (regression),
    Y_k = E[Y_{k+1}|F_k] + driver(t_k, Z_k) dt,

with conditional expectations replaced by ridge-regularized projections on
the monomials in (x_t, running sup |x|) up to a degree.  A basis is its
degree alone (BasisSpec), and the ridge is the fixed _RIDGE = 1e-8, so every
augmented design has full rank, even where the plain one has not (at t_0 and
t_1 the degree-2 design is exactly rank-deficient).  Centering the
increment before the Z regression removes the 1/dt variance blowup of the
plain estimator without changing the estimand (the projection of E[Y|F_k]
dW vanishes).

Each step's design F_k depends only on (ensemble, basis, step), so its
factorization is taken once per ensemble: the R factor of the
ridge-augmented design [F_k; sqrt(ridge) I] gives G_k = (F_k'F_k + ridge I)^{-1}
= S S' with S = R^{-1}, kept read-only in a weakly keyed per-ensemble holder.
Every projection (both regressions of every solve, and regress_conditional)
is then c = G F'y followed by one refinement step, the corrected semi-normal
equations (Bjorck 1996, sec. 6.6).  G is applied as S (S' v), never formed:
at t_1 the running sup makes sup^2 = x^2, an exact null direction that G
weights by 1/ridge, and there the formed product moves z about a hundred
times further from the lstsq solution than the factored one.  Only the
q x q factors are kept; a sweep builds each step's features once.

One sweep solves K equations on the same ensemble at once, one column each
(solve_linear_family: the payoff equations of a control family, after
Gobet, Lemor and Warin 2005).  Each step builds the features and looks up
the factor once for all members and projects their K columns as one
right-hand side; only the drivers differ, and one registry call evaluates
them all.  A single solve is the K = 1 sweep.

The law enters the drift and the costs only through the statistic series
m_psi(t), so a solve takes each member's law as those series,
{name: (steps + 1,) array} (stat_series of its flow), and never a flow's
weights: a caller may drop a flow as soon as its series are read.

The reported Y_0 stderr comes from the pathwise representation
Y_0 = E[g + sum_k driver dt - sum_k Z dW]: the Z increments act as a
martingale control variate, so the stderr is comparable to (and correlated
with) a direct reweighted payoff estimate on the same paths.

A solution keeps no particle paths.  The sweep carries only the current Y
column, and Z lives on as its per-step coefficients: BsdeSolution.z_at is
the one evaluation of z, on the ensemble or at any other states, and the
synthesized feedbacks read z through it.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass

import numpy as np

from .core import PathEnsemble
from .girsanov import _family_actions
from .measure import MeasureFlow, mean_stderr
from .scenario import Scenario


# The ridge of every projection.
_RIDGE = 1e-8


@dataclass(frozen=True)
class BasisSpec:
    """Regression basis: all monomials in (state, running sup) of total
    degree <= degree, the constant feature included.  The features are fixed
    functions of the state, not a data-driven standardization, so that a
    synthesized feedback can rebuild identical features anywhere.
    """

    degree: int = 2

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError("degree must be >= 0")

    def width(self) -> int:
        return (self.degree + 1) * (self.degree + 2) // 2


def build_features(x: np.ndarray, sup: np.ndarray, spec: BasisSpec) -> np.ndarray:
    """Design matrix, shape (particles, width), of the states x and their
    running suprema sup, each (particles,)."""
    variables = [np.asarray(x, dtype=float), np.asarray(sup, dtype=float)]
    m = variables[0].shape[0]
    cols = [np.ones(m)]
    for deg in range(1, spec.degree + 1):
        for combo in itertools.combinations_with_replacement(range(len(variables)), deg):
            col = np.ones(m)
            for idx in combo:
                col = col * variables[idx]
            cols.append(col)
    return np.column_stack(cols)


def features_at(paths: PathEnsemble, t_index: int, spec: BasisSpec) -> np.ndarray:
    return build_features(paths.state(t_index), paths.sup(t_index), spec)


def _gram_factor(features: np.ndarray) -> np.ndarray:
    """S = R^{-1}, read-only, with R the triangular factor of the
    ridge-augmented design [F; sqrt(ridge) I], so that
    (F'F + ridge I)^{-1} = S S'."""
    q = features.shape[1]
    r = np.linalg.qr(np.vstack([features, np.sqrt(_RIDGE) * np.eye(q)]), mode="r")
    factor = np.linalg.solve(r, np.eye(q))
    factor.flags.writeable = False
    return factor


def _project(features: np.ndarray, values: np.ndarray, factor: np.ndarray) -> np.ndarray:
    """Ridge coefficients (q, p) of the columns of values (M, p): c = G F'y,
    then one refinement c += G (F'(y - F c) - ridge c), with G = S S'."""
    coef = factor @ (factor.T @ (features.T @ values))
    coef += factor @ (factor.T @ (features.T @ (values - features @ coef) - _RIDGE * coef))
    return coef


def regress_conditional(values: np.ndarray,
                        features: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Ridge least-squares projection of values on the feature columns.

    Returns (coefficients, fitted values, rms residual).
    """
    values = np.asarray(values, dtype=float)
    features = np.asarray(features, dtype=float)
    squeeze = values.ndim == 1
    if squeeze:
        values = values[:, None]
    coef = _project(features, values, _gram_factor(features))
    fitted = features @ coef
    resid = float(np.sqrt(np.mean((values - fitted) ** 2)))
    if squeeze:
        return coef[:, 0], fitted[:, 0], resid
    return coef, fitted, resid


@dataclass(frozen=True)
class BsdeSolution:
    """Backward solution along the ensemble, kept as its coefficients.

    y0 and y0_stderr are the value and its stderr, y_residuals[k] the rms
    residual of the step-k projection of Y_{k+1}.  No particle paths are
    kept: z_coefficients holds the per-step regression coefficients of Z,
    and z_at evaluates z from them at the ensemble's states or at any other
    ensemble's.  z_gram_factors and z_resid_rms carry the matching
    (X'X + ridge I)^{-1} = S S' and residual scales so the pointwise sampling
    noise of that estimate is quantifiable wherever the feedback is
    questioned.  z_gram_factors holds each step's read-only q x q factor S,
    shared with every other solution on the same ensemble and basis, never a
    copy of its own.
    """

    y0: float
    y0_stderr: float
    y_residuals: np.ndarray
    z_coefficients: np.ndarray
    z_gram_factors: tuple[np.ndarray, ...]
    z_resid_rms: np.ndarray
    basis: BasisSpec

    def z_at(self, paths: PathEnsemble, t_index: int) -> np.ndarray:
        """The regressed z at the ensemble's time-t_index states, shape
        (particles,); the horizon reads the last step's coefficients."""
        k = min(t_index, self.z_coefficients.shape[0] - 1)
        return features_at(paths, t_index, self.basis) @ self.z_coefficients[k]

    def z_stderr(self, paths: PathEnsemble, t_index: int) -> np.ndarray:
        """Prediction standard error of the regressed z at the ensemble's
        time-t_index states, shape (particles,): s sqrt(phi' G phi) with
        G = (X'X + ridge I)^{-1} = S S', so phi' G phi = |S' phi|^2."""
        k = min(t_index, self.z_coefficients.shape[0] - 1)
        feats = features_at(paths, t_index, self.basis)
        lev = np.sqrt(np.sum((feats @ self.z_gram_factors[k]) ** 2, axis=1))
        return lev * self.z_resid_rms[k]


# ensemble -> {(basis, step): the factor S of that step's design}.  Weakly
# keyed, so an ensemble's factors go with it; q x q arrays only, no particle axis.
_GRAM_FACTORS = weakref.WeakKeyDictionary()


def _backward(paths: PathEnsemble, terminal: np.ndarray, driver_at,
              basis: BasisSpec) -> list[BsdeSolution]:
    """K backward solves in one sweep, one member per column of terminal (M, K).

    driver_at(k, z) takes each member's z as an (M, K) array and returns
    the (M, K) driver values.  Each step builds the features once, looks up
    one factor and projects all K members in one right-hand side per
    regression; every per-member reduction runs over that member's particles
    alone, in the order a solo solve uses.
    """
    dw = paths.increments
    n = paths.grid.steps
    members = terminal.shape[1]
    dt = paths.grid.dt
    z_coef = np.empty((members, n, basis.width()))
    z_factors = [None] * n
    z_rms = np.empty((n, members))
    resid = np.empty((n, members))
    held = _GRAM_FACTORS.setdefault(paths, {})
    y = terminal  # the current column Y_{k+1}, (M, K)
    value_paths = terminal.T.copy()  # pathwise Y_0 representation for the stderr, (K, M)
    for k in range(n - 1, -1, -1):
        feats = features_at(paths, k, basis)
        # a miss factors first and then projects like a hit, so both give the same bits
        factor = held.get((basis, k))
        if factor is None:
            factor = held[basis, k] = _gram_factor(feats)
        z_factors[k] = factor
        fitted = feats @ _project(feats, y, factor)
        dev = y - fitted
        # one contiguous row per member: each mean sums like a solo solve's
        resid[k] = np.sqrt(np.mean(np.square(dev.T, order="C"), axis=1))
        rhs = dev * dw[:, k, None] / dt
        coef = _project(feats, rhs, factor)
        # z_at's expression, so a driver's extremizers are the feedback's own
        zk = feats @ coef
        z_rms[k] = np.sqrt(np.mean((rhs - zk) ** 2, axis=0))
        z_coef[:, k] = coef.T
        hvals = np.asarray(driver_at(k, zk), dtype=float)
        if not np.all(np.isfinite(hvals)):
            raise FloatingPointError(f"non-finite driver value at t_index {k}")
        y = fitted + hvals * dt
        value_paths += (hvals * dt - zk * dw[:, k, None]).T
    factors = tuple(z_factors)
    return [BsdeSolution(y0=float(np.mean(y[:, j])), y0_stderr=mean_stderr(value_paths[j])[1],
                         y_residuals=resid[:, j], z_coefficients=z_coef[j],
                         z_gram_factors=factors, z_resid_rms=z_rms[:, j], basis=basis)
            for j in range(members)]


def solve_driver_bsde(paths: PathEnsemble, terminal: np.ndarray, driver_at,
                      basis: BasisSpec = BasisSpec()) -> BsdeSolution:
    """Backward solve with an explicit driver callable (t_index, z) -> values.

    z is passed with shape (particles,); the driver must return one value
    per particle and is evaluated once per step, after the Z regression.
    """
    terminal = np.asarray(terminal, dtype=float)
    if terminal.shape != (paths.particles,):
        raise ValueError("terminal values must be one scalar per particle")
    return _backward(paths, terminal[:, None],
                     lambda k, z: np.asarray(driver_at(k, z[:, 0]), dtype=float)[..., None],
                     basis)[0]


def stat_series(scenario: Scenario, flow: MeasureFlow) -> dict[str, np.ndarray]:
    """The flow's (steps + 1,) series of every statistic the scenario
    references (drift, running cost and terminal cost): the law as every
    backward solve takes it."""
    return {name: flow.statistic_series(name) for name in scenario.referenced_statistics()}


def _check_series(scenario: Scenario, paths: PathEnsemble, members):
    """Check that each member's series hold a (steps + 1,) series of every
    statistic the scenario references; a missing or misshapen one raises
    ValueError naming the member and the statistic."""
    want = (paths.grid.steps + 1,)
    for i, series in enumerate(members):
        for name in scenario.referenced_statistics():
            if name not in series:
                raise ValueError(f"member {i}'s series lacks statistic {name!r}")
            if np.shape(series[name]) != want:
                raise ValueError(f"member {i}'s series of statistic {name!r} has shape "
                                 f"{np.shape(series[name])}, not (steps + 1,) = {want}")


def _hamiltonian_values(scenario: Scenario, t: float, state, sup,
                        stats_row: dict, z, actions) -> np.ndarray:
    """H = h + z sigma^{-1} f at each particle, the last axis.  state and sup
    are (m,); the actions (u, or u and v) and the statistic values are
    particle columns or axes that broadcast against the particles.  z is
    (m,), or (K, m) with one z per member of a family.  The z term is
    formed as (z sigma^{-1}(1)) f."""
    x = np.asarray(state, dtype=float)
    f = scenario.drift.evaluate(x, stats_row, *actions)
    c = scenario.sigma.inv_apply(t, x, np.asarray(sup, dtype=float), np.ones_like(x), None)
    h = scenario.running_cost.evaluate(x, stats_row, *actions)
    return h + (np.asarray(z, dtype=float) * c) * f


def _family_hamiltonian(scenario: Scenario, paths: PathEnsemble, controls, series):
    """(t_index, z) -> (K, M) values of H for K fixed controls (or pairs), the
    i-th read under its own statistic series series[i].  Each step reads the
    members' actions once per control kind (girsanov._family_actions:
    constants as one (K, 1) column, parametric members as one broadcast
    affine rule, the others one by one) and their statistic rows as (K, 1),
    then makes one registry call.  The values are the per-member ones bit for
    bit.  z is (M,), shared by the members, or (K, M)."""
    _check_series(scenario, paths, series)
    stacked = {name: np.stack([s[name] for s in series])
               for name in scenario.referenced_statistics()}
    times = paths.grid.times

    def hamiltonian_at(k: int, z: np.ndarray) -> np.ndarray:
        row = {name: s[:, k, None] for name, s in stacked.items()}
        return _hamiltonian_values(scenario, times[k], paths.state(k), paths.sup(k), row, z,
                                   _family_actions(controls, paths, k))

    return hamiltonian_at


def terminal_values(scenario: Scenario, paths: PathEnsemble,
                    series: dict[str, np.ndarray]) -> np.ndarray:
    """g(x_T, mu_T) per particle, the law argument read off the statistic
    series (the terminal cost's statistics at the horizon).  Every solve and
    payoff reads it, so it refuses a scenario of another reference law."""
    paths.check_scenario(scenario)
    n = paths.grid.steps
    row = {name: float(series[name][n]) for name in scenario.terminal_cost.stat_names()}
    return scenario.terminal_cost.evaluate(paths.state(n), row, scenario.statistic_map)


def solve_linear_family(scenario: Scenario, paths: PathEnsemble, controls, series,
                        basis: BasisSpec = BasisSpec()) -> list[BsdeSolution]:
    """Backward solves of the payoff equations of K fixed controls (or pairs)
    on the ensemble, one BsdeSolution per member, in one backward sweep.

    series[i] is member i's law: its (steps + 1,) series of every statistic
    the scenario references (stat_series of its flow), which supply the
    drift statistics, cost statistics and terminal marginal.  The members
    share each step's features, factor and projection, so a member agrees
    with its one-member family to rounding (about 1e-15 relative).  With the
    series of a flow matched to its control, a member's Y_0 is the reweighted
    payoff J(control) up to Monte Carlo and regression error.
    """
    controls, series = list(controls), list(series)
    if not controls or len(series) != len(controls):
        raise ValueError("a family needs at least one control and one series per control")
    hamiltonian_at = _family_hamiltonian(scenario, paths, controls, series)
    terminal = np.stack([terminal_values(scenario, paths, s) for s in series], axis=1)
    return _backward(paths, terminal, lambda k, z: hamiltonian_at(k, z.T).T, basis)
