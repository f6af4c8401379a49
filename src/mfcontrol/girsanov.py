"""Change of measure along the reference ensemble.

A controlled law never gets its own simulation.  Instead its density against
the reference law is accumulated in log space along each path,

    l[i, k+1] = l[i, k] + theta_k[i] dW[i, k] - 0.5 theta_k[i]^2 dt,
    theta_k[i] = sigma^{-1}(t_k, path_i) f(t_k, path_i, mu_k, actions),

with everything evaluated at the left endpoint.  exp(l) is the discrete
Doleans exponential of the reweighting, and density_process returns it as the
weight matrix of the reweighted law; its expectation stays at one up to Monte
Carlo error, which MeasureFlow.normalization records at every grid time.
The ensemble, its increments and sigma are fixed and a control changes only
the drift, so density_process takes the drift alone, a DriftEvaluator, and
reads the ensemble off it, and the increments and sigma off the ensemble;
a DriftEvaluator refuses a scenario of another reference law, so the
weights are always those of the paths.

The measure flow entering f is itself the unknown of a fixed-point problem:
flow -> density -> reweighted flow.  fixpoint_measure_flow iterates that map
from the reference flow, monitoring the exact-on-the-ensemble TV distance
between successive weight columns at the horizon.  Because consecutive
iterates share paths, the distance estimate is pathwise coupled and decays to
zero with no Monte Carlo floor; an iterate whose drift statistics repeat bit
for bit is a fixed point already, and its zero distance is recorded without
another application.  The flow enters f only through its statistic terms, so
a fixed point reads the control's actions once, into drift_base, and holds
one weight matrix at a time.  Every control is a reweighting of the same
ensemble, so every fixed point on it needs a drift base of one shape: the
buffer comes from a free list kept per ensemble and goes back to it when
the fixed point returns.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass

import numpy as np

from .core import PathEnsemble, particle_blocks
from .measure import MeasureFlow, reference_flow, tv_columns
from .scenario import Scenario


class FixpointConvergenceError(RuntimeError):
    """Picard iteration failed to reach tolerance in _PICARD_MAX_ITER applications."""

    def __init__(self, diagnostics: "FixpointDiagnostics"):
        self.diagnostics = diagnostics
        dists = ", ".join(f"{d:.3g}" for d in diagnostics.distances[-5:])
        super().__init__(
            f"fixed-point iteration did not converge: {diagnostics.applications} "
            f"applications, tol {diagnostics.tol:g}, last distances [{dists}]")


def control_actions(control, paths: PathEnsemble, rows: slice,
                    steps: slice) -> tuple[np.ndarray, ...]:
    """The actions on the particles `rows` at the grid times `steps`, one
    (rows, steps) array per player: (u,) for a player (a control that
    answers actions_over) and (u, v) for a game control, an iterable of two
    players such as a (u, v) tuple or a pair feedback.  The drift and cost
    registries take them as trailing arguments."""
    return tuple(p.actions_over(paths, rows, steps) for p in _players(control))


def _players(control) -> tuple:
    """(control,) for a player, else the game control's two players."""
    return (control,) if hasattr(control, "actions_over") else tuple(control)


def _affine_actions(coeffs, box, x, sup) -> np.ndarray:
    """clip(a + b x + c sup, box): the actions of the parametric rule with
    coefficients coeffs = (a, b, c) and bounds box = (lo, hi), all of which
    broadcast against the states x and running suprema sup; lo None leaves
    the raw values unclipped."""
    a, b, c = coeffs
    raw = a + b * x + c * sup
    lo, hi = box
    return raw if lo is None else np.clip(raw, lo, hi)


def _side_actions(members, paths: PathEnsemble, k: int) -> np.ndarray:
    """One side's actions of a family at grid time k, in member order: a
    (K, 1) column when every member is a constant, else (K, M).  Constants
    are one column and parametric members one broadcast _affine_actions;
    every other member is its own actions_over."""
    kinds = [getattr(m, "kind", None) for m in members]
    constants = [j for j, kind in enumerate(kinds) if kind == "constant"]
    column = np.array([members[j].value for j in constants])[:, None]
    if len(constants) == len(members):
        return column
    out = np.empty((len(members), paths.particles))
    out[constants] = column
    affine = [j for j, kind in enumerate(kinds) if kind == "parametric"]
    if affine:
        rules = [members[j] for j in affine]
        coeffs = np.array([m.coeffs for m in rules]).T[:, :, None]
        box = (np.array([[-np.inf if m.box_lo is None else m.box_lo] for m in rules]),
               np.array([[np.inf if m.box_hi is None else m.box_hi] for m in rules]))
        out[affine] = _affine_actions(coeffs, box, paths.state(k), paths.sup(k))
    for j, kind in enumerate(kinds):
        if kind not in ("constant", "parametric"):
            out[j] = members[j].actions_over(paths, slice(None), slice(k, k + 1))[:, 0]
    return out


def _family_actions(controls, paths: PathEnsemble, k: int) -> list[np.ndarray]:
    """The actions of K controls (or game controls) at grid time k, one
    array per player ((u,) or (u, v)), each (K, M) in member order or (K, 1)
    when that player's members are all constants (see _side_actions)."""
    return [_side_actions(side, paths, k) for side in zip(*map(_players, controls))]


def drift_base(scenario: Scenario, control, paths: PathEnsemble,
               out: np.ndarray) -> np.ndarray:
    """DriftSpec.base of the control (a player, or a game control of two)
    along the ensemble, filled a block of particles at a time into out, a
    (particles, steps + 1) array; returned as a read-only view of out."""
    steps = slice(0, paths.grid.steps + 1)
    for rows in particle_blocks(*out.shape):
        out[rows] = scenario.drift.base(paths.values[rows],
                                        *control_actions(control, paths, rows, steps))
    base = out.view()
    base.flags.writeable = False
    return base


# ensemble -> the drift-base buffers that no fixed point is using.  A fixed
# point takes one (or makes one) and gives it back when it returns, so the
# list holds at most one buffer per fixed point that was in flight on the
# ensemble at once.  Weakly keyed, so the buffers die with their ensemble.
_BASE_BUFFERS = weakref.WeakKeyDictionary()
_BASE_BUFFERS_LOCK = threading.Lock()   # member_map runs fixed points at once


def _take_base_buffer(paths: PathEnsemble) -> np.ndarray:
    """A free (particles, steps + 1) drift-base buffer of the ensemble."""
    with _BASE_BUFFERS_LOCK:
        free = _BASE_BUFFERS.get(paths)
        if free:
            return free.pop()
    return np.empty(paths.values.shape)


def _give_back_base_buffer(paths: PathEnsemble, buffer: np.ndarray):
    """Put a drift-base buffer on the ensemble's free list."""
    with _BASE_BUFFERS_LOCK:
        _BASE_BUFFERS.setdefault(paths, []).append(buffer)


class DriftEvaluator:
    """Drift values of a control along the flow's ensemble.

    control is a player for a control problem and a game control for a game
    (see control_actions).  evaluator.over(rows, steps, out) gives the
    (rows, steps) drift on a block of particles and grid times:
    DriftSpec.with_stats of the block's base, each statistic series (read off
    the flow once) broadcast along time, written into out as with_stats
    writes.  The base is a slice of the given drift_base, or else formed
    from the block's actions.  A scenario of another reference law than the
    ensemble's (evaluator.paths) raises EnsembleMismatchError.
    """

    def __init__(self, scenario: Scenario, flow: MeasureFlow, control,
                 base: np.ndarray | None = None):
        flow.paths.check_scenario(scenario)
        self.scenario = scenario
        self.paths = flow.paths
        self.control = control
        self.base = base
        self.series = {name: flow.statistic_series(name)
                       for name in scenario.drift.stat_names()}

    def over(self, rows: slice, steps: slice, out: np.ndarray | None) -> np.ndarray:
        paths = self.paths
        drift = self.scenario.drift
        base = (drift.base(paths.values[rows, steps],
                           *control_actions(self.control, paths, rows, steps))
                if self.base is None else self.base[rows, steps])
        return drift.with_stats(base, {name: s[steps] for name, s in self.series.items()},
                                out)


def density_process(drift: DriftEvaluator) -> np.ndarray:
    """Read-only (particles, steps + 1) weights L_t of the drift's
    reweighting of its ensemble, against the increments and with the sigma
    the ensemble was simulated with; column 0 is one.

    The drift is read a block of particles at a time.  theta and the log
    increments of a block are formed for all its steps at once, in two
    block-sized scratch arrays made once per call (the drift, then theta dW;
    theta, then its square), and written straight into the output, which is
    then accumulated column by column in step order, the order of the
    step-by-step recursion, and exponentiated in place.  A non-finite theta
    raises for the first bad step, as that recursion does, and a horizon
    column of zeros (every density underflowed, while E[L_T] = 1) raises
    FloatingPointError.
    """
    paths, sigma = drift.paths, drift.paths.sigma
    dw = paths.increments
    m, n = dw.shape
    dt = paths.grid.dt
    times = paths.grid.times
    blocks = particle_blocks(m, n + 1)
    steps = slice(0, n)
    scratch = np.empty((2, blocks[0].stop, n))   # for one block's steps

    def increments(rows: slice, out: np.ndarray) -> int:
        """Write the log increments of the particles rows into out, formed in
        the scratch, and return n; or return the first step whose theta is
        not finite, writing nothing."""
        held = scratch[:, :out.shape[0]]
        theta = sigma.inv_apply(times[steps], paths.values[rows, steps],
                                paths.running_sup[rows, steps],
                                drift.over(rows, steps, held[0]), held[1])
        if not np.all(np.isfinite(theta)):
            return int(np.argmin(np.all(np.isfinite(theta), axis=0)))
        drive = np.multiply(theta, dw[rows], out=held[0])
        square = np.multiply(theta, theta, out=theta)
        square *= 0.5 * dt
        np.subtract(drive, square, out=out)
        return n

    log_w = np.zeros((m, n + 1))
    bad = min(increments(rows, log_w[rows, 1:]) for rows in blocks)
    if bad < n:   # the first bad step over every block
        raise FloatingPointError(f"non-finite drift-to-noise ratio at t_index {bad}")
    # column by column: the sums of a cumsum along each row, in the same order,
    # without numpy's slower accumulate over the short rows of this layout
    for k in range(1, n + 1):
        np.add(log_w[:, k - 1], log_w[:, k], out=log_w[:, k])
    weights = np.exp(log_w, out=log_w)
    if not weights[:, n].any():
        raise FloatingPointError("every horizon weight underflowed to 0: the "
                                 "reweighting collapsed")
    weights.flags.writeable = False
    return weights


@dataclass(frozen=True)
class FixpointDiagnostics:
    """Trace of one Picard run.

    distances[j] is the horizon TV distance between the weights produced by
    application j+1 and the previous ones.  iterations counts productive
    updates (distance >= tol); the final sub-tolerance verification pass is
    recorded but not counted, so a measure-independent drift converges in
    exactly one iteration and zero drift in zero.  When an application's
    input repeats (the drift's statistic series equal the previous ones bit
    for bit) the verification pass is not run: its distance and stderr are
    recorded as the exact 0.0 and 0.0 it would give.
    """

    distances: tuple[float, ...]
    stderrs: tuple[float, ...]
    tol: float
    converged: bool

    @property
    def applications(self) -> int:
        return len(self.distances)

    @property
    def iterations(self) -> int:
        return sum(1 for d in self.distances if d >= self.tol)

    @property
    def final_distance(self) -> float:
        return self.distances[-1]

    def to_dict(self) -> dict:
        return {
            "distances": list(self.distances),
            "stderrs": list(self.stderrs),
            "tol": self.tol,
            "converged": self.converged,
            "iterations": self.iterations,
            "applications": self.applications,
        }


@dataclass(frozen=True)
class FixpointResult:
    flow: MeasureFlow
    diagnostics: FixpointDiagnostics


# Picard applications before a fixed point is reported as not converged.
_PICARD_MAX_ITER = 50


def fixpoint_measure_flow(scenario: Scenario, control,
                          paths: PathEnsemble, tol: float = 1e-3) -> FixpointResult:
    """Iterate flow -> reweighted flow until the weights stop moving.

    Starts from the reference flow (weights one).  The map reads a flow only
    through the drift's statistic series (DriftEvaluator.series), so once an
    update at or above tol leaves those series bit for bit unchanged, the next
    application would rebuild the same weights: it is skipped and recorded as
    distance 0.0 with stderr 0.0, which is what it would measure.  A drift
    that reads no statistic therefore takes one density application.  The
    skip needs room for one more application, so _PICARD_MAX_ITER still
    bounds the recorded distances.  Raises FixpointConvergenceError with full
    diagnostics if _PICARD_MAX_ITER applications do not bring the horizon TV
    update below tol; partial results are on the exception's diagnostics for
    inspection.  The drift base is written into a buffer taken from the
    ensemble's free list and given back on return; nothing returned reads it.
    A scenario of another reference law is refused before one is taken.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    paths.check_scenario(scenario)
    stats = scenario.statistic_map
    buffer = _take_base_buffer(paths)
    base = drift_base(scenario, control, paths, buffer)
    flow = reference_flow(paths, stats)
    drift_at = DriftEvaluator(scenario, flow, control, base)
    distances: list[float] = []
    stderrs: list[float] = []
    while True:
        horizon = flow.weights[:, -1].copy()   # all the distance reads of it
        del flow   # before density_process allocates the next weights
        flow = MeasureFlow(paths, density_process(drift_at), stats)
        est = tv_columns(horizon, flow.weights[:, -1])
        distances.append(est.value)
        stderrs.append(est.stderr)
        if est.value < tol:
            break
        if len(distances) == _PICARD_MAX_ITER:
            raise FixpointConvergenceError(
                FixpointDiagnostics(tuple(distances), tuple(stderrs), tol, False))
        next_at = DriftEvaluator(scenario, flow, control, base)
        if _same_series(next_at.series, drift_at.series):
            # the next application would rebuild these weights bit for bit
            distances.append(0.0)
            stderrs.append(0.0)
            break
        drift_at = next_at
    # only the evaluators above read the buffer, and they die on return; a
    # fixed point that raises never gives its buffer back, since its
    # evaluators live on in the traceback
    _give_back_base_buffer(paths, buffer)
    diag = FixpointDiagnostics(tuple(distances), tuple(stderrs), tol, True)
    return FixpointResult(flow=flow, diagnostics=diag)


def _same_series(a: dict[str, np.ndarray], b: dict[str, np.ndarray]) -> bool:
    """Bit-for-bit equal statistic series (0.0 and -0.0 differ)."""
    return a.keys() == b.keys() and all(a[name].tobytes() == b[name].tobytes() for name in a)


@dataclass(frozen=True)
class ContractionReport:
    """Productive-iteration distances with successive ratios.

    Rows carry (iteration, distance, stderr, ratio to the next retained
    distance or None).  Trailing sub-tolerance verification distances are
    dropped, so a measure-independent run shows a single row with an
    undefined ratio.  flagged lists row indices whose ratio is >= 1 while
    both distances sit clear of their Monte Carlo noise (5 stderr).
    """

    rows: tuple[tuple[int, float, float, float | None], ...]
    fit_rate: float | None
    flagged: tuple[int, ...]
    tol: float

    def to_dict(self) -> dict:
        return {
            "rows": [
                {"iteration": it, "distance": d, "stderr": se, "ratio": r}
                for it, d, se, r in self.rows
            ],
            "fit_rate": self.fit_rate,
            "flagged": list(self.flagged),
            "tol": self.tol,
        }


def contraction_report(diag: FixpointDiagnostics) -> ContractionReport:
    """Summarize geometric decay of the Picard distances."""
    if diag.applications < 2:
        raise ValueError("need at least 2 recorded applications to assess contraction")
    retained = [(i + 1, d, s) for i, (d, s) in enumerate(zip(diag.distances, diag.stderrs))
                if d >= diag.tol]
    rows = []
    flagged = []
    for j, (it, d, se) in enumerate(retained):
        ratio = None
        if j + 1 < len(retained):
            ratio = retained[j + 1][1] / d if d > 0 else None
        rows.append((it, d, se, ratio))
        if ratio is not None and ratio >= 1.0:
            next_d, next_se = retained[j + 1][1], retained[j + 1][2]
            if d > 5 * se and next_d > 5 * next_se:
                flagged.append(j)
    fit_rate = None
    positive = [d for _, d, _ in retained if d > 0]
    if len(positive) >= 2:
        logs = np.log(positive)
        slope = np.polyfit(np.arange(len(logs)), logs, 1)[0]
        fit_rate = float(np.exp(slope))
    return ContractionReport(rows=tuple(rows), fit_rate=fit_rate,
                             flagged=tuple(flagged), tol=diag.tol)
