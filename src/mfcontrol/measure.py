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

The Hellinger bound on that distance integrates (theta_a - theta_b)^2 along
each path, theta = sigma^{-1} f.  For K drifts, hellinger_pairs reads all
K(K-1)/2 pairs in one pass over the ensemble in the Gram form

    sum_k c_k (theta_a - theta_b)^2 = A_a - 2 B_ab + A_b,
    B = theta diag(c) theta',  A_a = sum_k c_k theta_a^2,

with c the trapezoid weights: each block of particles forms every member's
theta once, and no drift or weight matrix is held per member.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import PathEnsemble, TimeGrid, particle_blocks
from .scenario import StatisticSpec


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
        w * psi by blocks of particles, each formed in one scratch array,
        summed in row order with the running sum carried into each block's
        first row, as np.mean's axis-0 sum.  A sum that overflows or is not
        finite raises FloatingPointError naming the statistic and its first
        such grid index."""
        if name not in self.statistics:
            raise KeyError(f"statistic {name!r} is not registered with this flow")
        if name not in self._stat_cache:
            spec = self.statistics[name]
            m, cols = self.weights.shape
            blocks = particle_blocks(m, cols)
            scratch = np.empty((blocks[0].stop, cols))   # one block's products
            total = None
            with np.errstate(over="ignore", invalid="ignore"):
                for rows in blocks:
                    prod = np.multiply(self.weights[rows],
                                       spec.evaluate(self.paths.values[rows]),
                                       out=scratch[:rows.stop - rows.start])
                    if total is not None:
                        prod[0] += total
                    total = prod.sum(axis=0)
            finite = np.isfinite(total)
            if not finite.all():
                raise FloatingPointError(
                    f"non-finite statistic {name!r} at t_index {int(np.argmin(finite))}: "
                    "its weighted sum over the particles overflowed or is not finite")
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
    mean and the population sd over sqrt(count).  A mean or sd that
    overflows or is not finite raises FloatingPointError."""
    with np.errstate(over="ignore", invalid="ignore"):
        mean, sd = float(np.mean(samples)), float(np.std(samples))
    if not (np.isfinite(mean) and np.isfinite(sd)):
        raise FloatingPointError(f"non-finite sample mean {mean} or sd {sd} over "
                                 f"{len(samples)} particles: the per-particle values "
                                 "overflowed or are not finite")
    return mean, float(sd / np.sqrt(len(samples)))


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


# Equal-width bins of tv_marginal's histograms.
_TV_BINS = 64
# Rows sorted at a time by _cut_sums, as np.histogram sorts weighted samples.
_HIST_BLOCK = 65536


def _cut_sums(x: np.ndarray, weights, edges: np.ndarray) -> list[np.ndarray]:
    """Running weight sums at the bin edges of the states x, one array per
    weight column in weights: np.histogram's rule for weighted samples with
    explicit edges, in its bits.  Each block of _HIST_BLOCK rows is sorted
    once, each weight's sorted running sum is read at the edge cuts (the last
    edge inclusive), and the blocks' readings add up in order."""
    sums = [np.zeros(edges.shape) for _ in weights]
    for i in range(0, len(x), _HIST_BLOCK):
        block = x[i:i + _HIST_BLOCK]
        order = np.argsort(block)
        ordered = block[order]
        cuts = np.concatenate((ordered.searchsorted(edges[:-1], "left"),
                               ordered.searchsorted(edges[-1:], "right")))
        for total, w in zip(sums, weights):
            running = np.concatenate((np.zeros(1), w[i:i + _HIST_BLOCK][order].cumsum()))
            total += running[cuts]
    return sums


def tv_marginal(a: MeasureFlow, b: MeasureFlow, t_index: int) -> TVEstimate:
    """Binned total variation between the time-t marginals.

    The flows may live on different ensembles; each side is histogrammed with
    its own weights, in _TV_BINS bins on the pooled range, np.histogram's
    bins and bits (_cut_sums).  On a common ensemble the states are sorted,
    cut and binned once for both weight columns.  Coarsening can only lower
    TV, so this estimator is dominated by tv_pathspace on a common ensemble.
    This is the K = 1 call of tv_marginals.
    """
    return tv_marginals((a,), b, t_index)[0]


def tv_marginals(flows, other: MeasureFlow, t_index: int) -> list[TVEstimate]:
    """tv_marginal(a, other, t_index) for each of K flows a on one ensemble
    (another ensemble raises EnsembleMismatchError), in their order and with
    their bits.  The flows' time-t states are sorted, cut at the bin edges
    and binned once for all K weight columns (and other's, when it shares
    the ensemble), and other's histogram is read once."""
    flows = list(flows)
    paths = flows[0].paths
    if any(f.paths is not paths for f in flows):
        raise EnsembleMismatchError("every flow must live on one ensemble")
    common = other.paths is paths
    xa = paths.values[:, t_index]
    xb = other.paths.values[:, t_index]
    lo, hi = xa.min(), xa.max()
    if not common:
        lo, hi = min(lo, xb.min()), max(hi, xb.max())
    if hi <= lo:
        lo, hi = lo - 0.5, lo + 0.5
    edges = np.linspace(lo, hi, _TV_BINS + 1)
    width = float(edges[1] - edges[0])
    columns = [f.weights[:, t_index] for f in flows]
    wb = other.weights[:, t_index]
    if common:
        *cuts, cb = _cut_sums(xa, (*columns, wb), edges)
    else:
        cuts, (cb,) = _cut_sums(xa, columns, edges), _cut_sums(xb, (wb,), edges)
    pb = np.diff(cb) / other.particles

    def bins(x):
        return np.clip(np.searchsorted(edges, x, side="right") - 1, 0, _TV_BINS - 1)

    ia = bins(xa)
    ib = ia if common else bins(xb)
    out = []
    for ca, wa in zip(cuts, columns):
        pa = np.diff(ca) / paths.particles
        value = float(np.sum(np.abs(pa - pb)))
        # delta-method stderr: TV = sum_b s_b (pa_b - pb_b) with fixed signs, so
        # it linearizes into means of per-particle contributions on each side
        signs = np.sign(pa - pb)
        ga = signs[ia] * wa
        gb = signs[ib] * wb
        stderr = float(np.sqrt(np.var(ga) / paths.particles + np.var(gb) / other.particles))
        out.append(TVEstimate(value=min(value, 2.0), stderr=stderr, kind="marginal",
                              bin_width=width))
    return out


def hellinger_pairs(drifts, horizons) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Hellinger-process bounds between every pair of K reweightings of one
    ensemble, in one pass over it.

    drifts are K DriftEvaluators on one ensemble (another ensemble raises
    EnsembleMismatchError); horizons is (K, particles), row a the horizon
    weights of member a's flow.  Returns (gamma, bound, stderr), each with
    one entry per pair a < b in itertools.combinations order: hellinger_bound
    of drift a against drift b under member a's weights.  Each block of
    particles forms every member's theta = sigma^{-1} f once and centres the
    thetas on their mean over the members at each (particle, time), which
    leaves every difference theta_a - theta_b as it was.  Each pair's
    trapezoid integral sum_k c_k (theta_a - theta_b)^2 is then read as
    A_a - 2 B_ab + A_b from one batched Gram product B = theta diag(c)
    theta' and each member's own trapezoid A_a of theta_a^2, so a pair whose
    centred theta_a is 0 has its own trapezoid's bits, and two equal drifts
    alone (K = 2, both centred thetas 0) give exactly 0.  The weighted
    integrals, one per particle per pair, are held as one (pairs, particles)
    array and reduced by mean_stderr, as a pair's own pass reduces them.
    """
    drifts = list(drifts)
    paths = drifts[0].paths
    if any(drift.paths is not paths for drift in drifts):
        raise EnsembleMismatchError("every drift must live on one ensemble")
    sigma = drifts[0].scenario.sigma
    grid = paths.grid
    m, n, k = paths.particles, grid.steps, len(drifts)
    steps = slice(0, n + 1)
    trapezoid = np.full(n + 1, grid.dt)
    trapezoid[[0, n]] = grid.dt / 2.0
    first, second = np.triu_indices(k, 1)
    weighted = np.empty((len(first), m))
    # a block holds all K members, so it is cut for K times the steps
    for rows in particle_blocks(m, k * (n + 1)):
        drift = np.empty((rows.stop - rows.start, k, n + 1))
        for j, member in enumerate(drifts):
            drift[:, j] = member.over(rows, steps, None)
        theta = sigma.inv_apply(grid.times, paths.values[rows, None],
                                paths.running_sup[rows, None], drift, None)
        del drift   # before the Gram product's temporaries
        theta -= theta.mean(axis=1, keepdims=True)
        cross = (theta * trapezoid) @ theta.transpose(0, 2, 1)
        own = np.trapezoid(theta * theta, dx=grid.dt, axis=-1)
        gamma = own[:, first] - 2.0 * cross[:, first, second]
        gamma += own[:, second]
        gamma *= horizons[first, rows].T / 8.0
        weighted[:, rows] = gamma.T
    estimates = np.array([mean_stderr(row) for row in weighted]).reshape(-1, 2)
    gamma_hat = np.maximum(estimates[:, 0], 0.0)
    return gamma_hat, 8.0 * np.sqrt(gamma_hat), estimates[:, 1]


def hellinger_bound(flow_a: MeasureFlow, drift_a, drift_b) -> tuple[float, float, float]:
    """Hellinger-process bound on the path-space TV between two reweightings.

    drift_a / drift_b are DriftEvaluators on flow_a's ensemble; a drift on
    another ensemble raises EnsembleMismatchError.  sigma is drift_a's
    scenario's and the grid flow_a's.  Returns (gamma_hat, bound,
    stderr_of_gamma) where gamma_hat is the weighted trapezoid estimate of

        E_A[ (1/8) int_0^T ((bA - bB) / sigma)^2 dt ]

    and bound = 8 sqrt(gamma_hat) dominates the TV distance.  This is the
    K = 2 call of hellinger_pairs, under flow_a's horizon weights; equal
    drifts give exactly 0.0 for all three.
    """
    paths = flow_a.paths
    if drift_a.paths is not paths or drift_b.paths is not paths:
        raise EnsembleMismatchError("both drifts must live on flow_a's ensemble")
    horizon = flow_a.weights[:, paths.grid.steps]
    gamma, bound, stderr = hellinger_pairs((drift_a, drift_b),
                                           np.broadcast_to(horizon, (2, paths.particles)))
    return float(gamma[0]), float(bound[0]), float(stderr[0])
