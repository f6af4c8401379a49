"""Weighted empirical measure flows and distances between them.

A measure flow is the reference ensemble plus one nonnegative weight per
particle per grid time; the weight column at t_k represents the density of
the flow's law against the reference law on the sigma-field up to t_k.  Two
flows on the same ensemble are dominated by the same reference measure, so
their total variation distance on path space up to t is estimated exactly as

    D_t = (1/M) sum_i |wA[i, t] - wB[i, t]|,

which uses the factor-2 convention d(mu, nu) = 2 sup_B |mu(B) - nu(B)| and
therefore lives in [0, 2].  The binned marginal estimator coarsens by the
histogram partition, so marginal TV <= path-space TV holds pathwise, not just
in expectation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import PathEnsemble, TimeGrid, particle_blocks
from .scenario import DiffusionSpec, StatisticSpec


class EnsembleMismatchError(ValueError):
    """Path-space comparison needs both flows on one common ensemble."""


@dataclass(frozen=True)
class TVEstimate:
    """Total variation estimate with a per-particle-linearization stderr."""

    value: float
    stderr: float
    kind: str
    bin_width: float | None = None

    def __post_init__(self):
        assert 0.0 <= self.value <= 2.0


class MeasureFlow:
    """Reference ensemble + per-time weights + cached statistics.

    weights has shape (particles, steps + 1); column k is the density of the
    flow at time t_k.  Statistics m_psi(t_k) = (1/M) sum_i w[i,k] psi(x[i,k])
    are cached on first use since the fixed-point loop reads them every
    iteration.
    """

    def __init__(self, paths: PathEnsemble, weights: np.ndarray,
                 statistics: dict[str, StatisticSpec] | tuple = ()):
        weights = np.asarray(weights, dtype=float)
        expected = (paths.particles, paths.grid.steps + 1)
        if weights.shape != expected:
            raise ValueError(f"weights must have shape {expected}, got {weights.shape}")
        # not >= also rejects NaN
        if not (weights.min() >= 0 and weights.max() < np.inf):
            raise ValueError("weights must be finite and nonnegative")
        self.paths = paths
        self.weights = weights
        self.statistics = dict(statistics)
        self._stat_cache: dict[str, np.ndarray] = {}

    @property
    def particles(self) -> int:
        return self.paths.particles

    @property
    def grid(self) -> TimeGrid:
        return self.paths.grid

    def statistic_series(self, name: str) -> np.ndarray:
        """(steps + 1,) trajectory of a registered statistic under the flow:
        w * psi by blocks of particles, summed in row order with the running
        sum carried into each block's first row, as np.mean's axis-0 sum."""
        if name not in self.statistics:
            raise KeyError(f"statistic {name!r} is not registered with this flow")
        if name not in self._stat_cache:
            spec = self.statistics[name]
            m, cols = self.weights.shape
            total = None
            for rows in particle_blocks(m, cols):
                prod = self.weights[rows] * spec.evaluate(self.paths.values[rows])
                if total is not None:
                    prod[0] += total
                total = prod.sum(axis=0)
            self._stat_cache[name] = total / m
        return self._stat_cache[name]

    def normalization(self, column: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """(E[L_t], stderr) at every grid time, or at grid index column alone;
        should straddle one.  The sums run in row order, the order in which
        numpy's axis-0 reduction adds the rows of the row-major weights (at
        least two columns), so each column keeps np.mean's and np.std's bits
        whether it is reduced alone or with the others."""
        w = self.weights if column is None else self.weights[:, column]
        m = w.shape[0]
        mean = np.cumsum(w, axis=0)[-1] / m
        dev = w - mean
        return mean, np.sqrt(np.cumsum(dev * dev, axis=0)[-1] / m) / np.sqrt(m)


def mean_stderr(samples: np.ndarray) -> tuple[float, float]:
    """(mean, stderr of the mean) of one sample per particle: the sample
    mean and the population sd over sqrt(count)."""
    return float(np.mean(samples)), float(np.std(samples) / np.sqrt(len(samples)))


def reference_flow(paths: PathEnsemble, statistics=()) -> MeasureFlow:
    """The reference law itself: read-only weights, one broadcast 1.0."""
    w = np.broadcast_to(1.0, (paths.particles, paths.grid.steps + 1))
    return MeasureFlow(paths, w, statistics)


def weighted_statistic(flow: MeasureFlow, t_index: int, name: str) -> tuple[float, float]:
    """(estimate, stderr) of E[psi(x_t)] under the flow.

    psi must be registered with the flow; the stderr is the sample one of the
    per-particle products w * psi(x).
    """
    if name not in flow.statistics:
        raise KeyError(f"statistic {name!r} is not registered with this flow")
    spec = flow.statistics[name]
    return mean_stderr(flow.weights[:, t_index] * spec.evaluate(flow.paths.state(t_index)))


def _check_common_ensemble(a: MeasureFlow, b: MeasureFlow):
    if a.paths is not b.paths:
        raise EnsembleMismatchError(
            "flows live on different ensembles; path-space TV needs a common "
            "dominating reference ensemble")


def tv_pathspace(a: MeasureFlow, b: MeasureFlow, t_index: int) -> TVEstimate:
    """Exact-on-the-ensemble total variation up to t_k (factor-2 convention)."""
    _check_common_ensemble(a, b)
    return tv_columns(a.weights[:, t_index], b.weights[:, t_index])


def tv_columns(wa: np.ndarray, wb: np.ndarray) -> TVEstimate:
    """tv_pathspace from two weight columns on a common ensemble."""
    value, stderr = mean_stderr(np.abs(wa - wb))
    return TVEstimate(value=min(value, 2.0), stderr=stderr, kind="pathspace")


def tv_marginal(a: MeasureFlow, b: MeasureFlow, t_index: int, bins: int = 64) -> TVEstimate:
    """Binned total variation between the time-t marginals.

    The flows may live on different ensembles; each side is histogrammed with
    its own weights on the pooled range.  Coarsening can only lower TV, so
    this estimator is dominated by tv_pathspace on a common ensemble.
    """
    if bins < 2:
        raise ValueError("need at least 2 bins")
    xa = a.paths.values[:, t_index]
    xb = b.paths.values[:, t_index]
    lo = min(xa.min(), xb.min())
    hi = max(xa.max(), xb.max())
    if hi <= lo:
        lo, hi = lo - 0.5, lo + 0.5
    edges = np.linspace(lo, hi, bins + 1)
    width = float(edges[1] - edges[0])
    wa = a.weights[:, t_index]
    wb = b.weights[:, t_index]
    pa = np.histogram(xa, bins=edges, weights=wa)[0] / a.particles
    pb = np.histogram(xb, bins=edges, weights=wb)[0] / b.particles
    value = float(np.sum(np.abs(pa - pb)))

    # delta-method stderr: TV = sum_b s_b (pa_b - pb_b) with fixed signs, so it
    # linearizes into means of per-particle contributions on each side
    signs = np.sign(pa - pb)
    ia = np.clip(np.searchsorted(edges, xa, side="right") - 1, 0, bins - 1)
    ib = np.clip(np.searchsorted(edges, xb, side="right") - 1, 0, bins - 1)
    ga = signs[ia] * wa
    gb = signs[ib] * wb
    stderr = float(np.sqrt(np.var(ga) / a.particles + np.var(gb) / b.particles))
    return TVEstimate(value=min(value, 2.0), stderr=stderr, kind="marginal", bin_width=width)


def drift_rows(particles: int, steps: int, *drifts) -> list[slice]:
    """Particle blocks to read the drifts in: the ensemble's blocks when every
    drift has the block form, otherwise all particles at once, so a plain
    callable is called once per step."""
    if all(hasattr(f, "over") for f in drifts):
        return particle_blocks(particles, steps)
    return [slice(None)]


def drift_block(drift_at, rows: slice, steps: slice, particles: int) -> np.ndarray:
    """(rows, steps) drift values on a block of the ensemble's particles and
    grid times.

    steps is a slice with explicit start and stop.  Reads
    drift_at.over(rows, steps) when the callable has that block form (a
    DriftEvaluator does); otherwise calls it step by step, and each step
    value must be one drift per particle, (particles,): a column or a
    shorter array would broadcast against the particles without an error.
    """
    over = getattr(drift_at, "over", None)
    if over is not None:
        return np.asarray(over(rows, steps), dtype=float)
    values = []
    for k in range(steps.start, steps.stop):
        value = np.asarray(drift_at(k), dtype=float)
        if value.shape != (particles,):
            raise ValueError(f"a drift at t_index {k} is one value per particle, shape "
                             f"({particles},), got {value.shape}")
        values.append(value[rows])
    return np.stack(values, axis=1)


def hellinger_bound(flow_a: MeasureFlow, drift_a, drift_b,
                    sigma: DiffusionSpec, grid: TimeGrid) -> tuple[float, float, float]:
    """Hellinger-process bound on the path-space TV between two reweightings.

    drift_a / drift_b are callables t_index -> (particles,) drift values
    along the common ensemble, read a block of particles at a time (see
    drift_block).  Returns (gamma_hat, bound, stderr_of_gamma) where
    gamma_hat is the weighted trapezoid estimate of

        E_A[ (1/8) int_0^T ((bA - bB) / sigma)^2 dt ]

    and bound = 8 sqrt(gamma_hat) dominates the TV distance.
    """
    paths = flow_a.paths
    n = grid.steps
    steps = slice(0, n + 1)
    gamma_paths = np.empty(paths.particles)
    for rows in drift_rows(paths.particles, n + 1, drift_a, drift_b):
        diff = (drift_block(drift_a, rows, steps, paths.particles)
                - drift_block(drift_b, rows, steps, paths.particles))
        integrand = sigma.inv_quadform(grid.times, paths.values[rows],
                                       paths.running_sup[rows], diff)
        gamma_paths[rows] = np.trapezoid(integrand, dx=grid.dt, axis=1) / 8.0
    gamma_hat, stderr = mean_stderr(flow_a.weights[:, n] * gamma_paths)
    gamma_hat = max(gamma_hat, 0.0)
    return gamma_hat, 8.0 * np.sqrt(gamma_hat), stderr
