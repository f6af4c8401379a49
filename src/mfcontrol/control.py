"""Controls, Hamiltonians, payoffs, and the synthesis loop.

A control is a rule for reading an action off the reference ensemble at each
grid time.  Because controlled laws are reweightings of one ensemble, a
feedback rule evaluated along the reference paths is simultaneously a control
under every candidate law; comparing controls never requires resimulation.

The candidate optimum comes from pointwise minimization of the Hamiltonian

    H(t, x, mu, z, u) = h(t, x, mu, u) + z sigma^{-1}(t, x) f(t, x, mu, u)

over the finite action grid inside a backward equation, alternating with a
measure fixed point for the synthesized feedback (policy iteration).  The
report carries the payoff of the synthesized control next to the backward
value, their gap being the optimality certificate.

Pointwise minimization freezes the law at one flow, so its value is the
infimum over controls only when costs and dynamics never read the law.  The
comparison baseline Y* therefore comes from the family lower envelope
(envelope_bsde): the backward equation whose terminal and driver are the
pointwise minima over explicit candidate controls, each candidate priced
under its own matched flow.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass

import numpy as np

from .bsde import (BasisSpec, BsdeSolution, _family_hamiltonian, _hamiltonian_values,
                   solve_driver_bsde, stat_series, terminal_values)
from .core import PathEnsemble, particle_blocks
from .girsanov import (FixpointDiagnostics, FixpointResult, _affine_actions, _same_series,
                       control_actions, fixpoint_measure_flow)
from .measure import MeasureFlow, mean_stderr, reference_flow, tv_pathspace
from .scenario import ActionGrid, Scenario


# ---------------------------------------------------------------------------
# control representations


class Player:
    """One side's control.  actions_over(paths, rows, steps) gives fresh
    (rows, steps) actions on a block of particles and grid times (slices of
    the ensemble's axes); actions(paths, t_index) is its one grid time."""

    def actions(self, paths: PathEnsemble, t_index: int) -> np.ndarray:
        """Fresh (particles,) actions at one grid time."""
        return self.actions_over(paths, slice(None), slice(t_index, t_index + 1))[:, 0]


@dataclass(frozen=True)
class Control(Player):
    """Deterministic control rule on the ensemble; an action is a real number.

    kinds:
      constant    a fixed action,
      parametric  u(t, x) = clip(a + b x + c sup, box),
      table       u(t_k, x) from a per-step row of one value per state bin.

    Values are clamped into [box_lo, box_hi], the hull of the admissible
    grid, so a control never acts outside the action set.
    """

    kind: str
    value: float = 0.0
    coeffs: tuple[float, float, float] = (0.0, 0.0, 0.0)
    table_edges: tuple[float, ...] = ()
    table_values: tuple[tuple[float, ...], ...] = ()
    box_lo: float | None = None
    box_hi: float | None = None
    label: str = ""

    def actions_over(self, paths: PathEnsemble, rows: slice, steps: slice) -> np.ndarray:
        """Fresh (rows, steps) actions on a block of particles and grid times
        (slices of the ensemble's axes)."""
        x = paths.values[rows, steps]
        if self.kind == "constant":
            return np.full(x.shape, self.value)
        if self.kind == "parametric":
            return _affine_actions(self.coeffs, (self.box_lo, self.box_hi), x,
                                   paths.running_sup[rows, steps])
        if self.kind != "table":
            raise ValueError(f"unknown control kind {self.kind!r}")
        vals = np.asarray(self.table_values, dtype=float)
        t_index = np.arange(paths.grid.steps + 1)[steps]
        row = vals[np.minimum(t_index, vals.shape[0] - 1)]
        raw = row[np.arange(len(t_index)), np.searchsorted(self.table_edges, x, side="right")]
        return raw if self.box_lo is None else np.clip(raw, self.box_lo, self.box_hi)


def _grid_box(grid: ActionGrid | None) -> tuple[float | None, float | None]:
    return (None, None) if grid is None else (grid.points[0], grid.points[-1])


def constant_control(value, grid: ActionGrid | None = None, label: str = "") -> Control:
    """The fixed action value: one number (a list of one number is read as
    its number), clamped into the grid's hull."""
    if np.size(value) != 1:
        raise ValueError(f"a constant control takes one number, not {np.size(value)}")
    value = float(np.ravel(value)[0])
    lo, hi = _grid_box(grid)
    if lo is not None:
        value = float(np.clip(value, lo, hi))
    return Control(kind="constant", value=value, box_lo=lo, box_hi=hi,
                   label=label or f"const[{value:g}]")


def parametric_control(a: float, b: float, c: float, grid: ActionGrid | None = None,
                       label: str = "") -> Control:
    lo, hi = _grid_box(grid)
    return Control(kind="parametric", coeffs=(float(a), float(b), float(c)),
                   box_lo=lo, box_hi=hi,
                   label=label or f"affine[{a:g},{b:g},{c:g}]")


def table_control(edges, values, grid: ActionGrid | None = None, label: str = "") -> Control:
    """Per-step actions over the len(edges) + 1 state bins that the
    non-decreasing edges cut: value j of a row acts on the j-th bin, x below
    edges[0] on the first and x at or above edges[-1] on the last.  The last
    row serves every later step."""
    lo, hi = _grid_box(grid)
    values = tuple(tuple(float(v) for v in row) for row in values)
    edges = tuple(float(e) for e in edges)
    if not values or any(len(row) != len(edges) + 1 for row in values):
        raise ValueError(f"a table control with {len(edges)} edges needs rows of "
                         f"{len(edges) + 1} values, got {[len(row) for row in values]}")
    # not >= also rejects NaN
    if not np.all(np.diff(edges) >= 0):
        raise ValueError(f"a table control needs non-decreasing edges, got {list(edges)}")
    return Control(kind="table", table_edges=edges, table_values=values,
                   box_lo=lo, box_hi=hi, label=label or "table")


def _finite(values):
    """values (numbers or number strings) as a float array, refusing NaN and
    infinities as a scenario document does."""
    out = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(out)):
        raise ValueError(f"control numbers must be finite, got {values!r}")
    return out


def parse_control(spec: dict | str, grid: ActionGrid) -> Control:
    """Decode a control from a config entry like "constant:-0.5" or a mapping."""
    if isinstance(spec, str):
        kind, _, rest = spec.partition(":")
        if kind == "constant":
            return constant_control(_finite(rest.split(",")), grid)
        if kind == "parametric":
            vals = _finite(rest.split(","))
            if len(vals) != 3:
                raise ValueError("parametric control needs three coefficients a,b,c")
            return parametric_control(*vals, grid=grid)
        raise ValueError(f"cannot parse control spec {spec!r}")
    if not isinstance(spec, dict):
        raise ValueError(f"a control spec is a string or an object, not {type(spec).__name__}")
    kind = spec.get("kind")
    try:
        if kind == "constant":
            return constant_control(_finite(spec["value"]), grid, label=spec.get("label", ""))
        if kind == "parametric":
            a, b, c = _finite(spec["coeffs"])
            return parametric_control(a, b, c, grid, label=spec.get("label", ""))
        if kind == "table":
            return table_control(_finite(spec["edges"]), [_finite(row) for row in spec["values"]],
                                 grid, label=spec.get("label", ""))
    except KeyError as exc:
        raise ValueError(f"{kind} control needs a {exc.args[0]!r} entry") from exc
    except TypeError as exc:
        raise ValueError(f"malformed {kind} control: {exc}") from exc
    raise ValueError(f"unknown control kind {kind!r}")


# ---------------------------------------------------------------------------
# hamiltonian


def hamiltonian(scenario: Scenario, t: float, state, sup, stats_row: dict,
                z, *actions) -> np.ndarray:
    """Per-particle H = h + z sigma^{-1} f, one value per particle.

    state, sup and z are (m,) arrays, and actions is u for a
    single-controller scenario and u, v for a game, each an (m,) array of
    real actions.  stats_row maps statistic names to their values at time t
    under the measure flow being priced.
    """
    if len(actions) != len(scenario.grids):
        raise TypeError("a two-player game takes actions u and v" if len(scenario.grids) == 2
                        else "actions u and v need a two-player scenario")
    actions = [np.asarray(a, dtype=float) for a in actions]
    # an (m, 1) column would broadcast against the particles into (m, m)
    if any(a.ndim > 1 for a in actions):
        raise ValueError("an action is a real number: pass (m,) action arrays")
    if any(np.ndim(a) > 1 for a in (state, sup, z)):
        raise ValueError("a state is a real number: pass (m,) state, sup and z arrays")
    return _hamiltonian_values(scenario, t, state, sup, stats_row, z, actions)


def minimized_hamiltonian(scenario: Scenario, t: float, state, sup,
                          stats_row: dict, z,
                          indices: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """(min_u H, argmin actions), each (m,), over the scenario's action grid,
    vectorized.

    Ties resolve to the smallest action because the grid is sorted and
    argmin takes the first minimizer.  With indices=True the second item is
    the argmin's row in scenario.actions.array() instead of the action.
    """
    if scenario.kind == "game":
        raise TypeError("use game envelopes for two-player scenarios")
    arr = scenario.actions.array()
    hams = _hamiltonian_values(scenario, t, state, sup, stats_row, z,
                               [arr[:, None]])  # (n, particles)
    idx = np.argmin(hams, axis=0)
    values = hams[idx, np.arange(hams.shape[1])]
    return values, (idx if indices else arr[idx])


def grid_index_dtype(grid: ActionGrid) -> np.dtype:
    """Smallest unsigned dtype that holds every row index of the grid."""
    return np.min_scalar_type(grid.size - 1)


def _argmin_extremes(scenario: Scenario, t: float, state, sup,
                     stats_row: dict, z) -> tuple[np.ndarray, tuple[np.ndarray]]:
    """(min_u H, (argmin rows,)): the control problem's extremal driver and
    its feedback's extremizer, rows stored in grid_index_dtype."""
    values, idx = minimized_hamiltonian(scenario, t, state, sup, stats_row, z, indices=True)
    return values, (idx.astype(grid_index_dtype(scenario.actions)),)


class _HeldRows:
    """Extremizer grid rows of a feedback on one ensemble: one (particles,
    steps + 1) matrix per grid, in grid_index_dtype, filled a step at a time;
    filled[k] marks the steps written."""

    def __init__(self, paths: PathEnsemble, grids: tuple[ActionGrid, ...]):
        self.rows = tuple(np.empty(paths.values.shape, dtype=grid_index_dtype(grid))
                          for grid in grids)
        self.filled = np.zeros(paths.grid.steps + 1, dtype=bool)

    def put(self, t_index: int, rows: tuple[np.ndarray, ...]):
        """Write one step's rows, one (particles,) array per grid."""
        for held, step in zip(self.rows, rows):
            held[:, t_index] = step
        self.filled[t_index] = True


class _GridFeedback:
    """Feedback synthesized from a backward solution.

    Actions are extremizers of the Hamiltonian over finite action grids at
    the regression estimate z(t, x), read through the held solution's z_at;
    the statistic trajectories are frozen at synthesis time, so the rule is
    a plain deterministic function of (t, current state, running sup).
    Each step's extremizers are therefore computed once per ensemble and
    kept as grid row indices in one _HeldRows matrix per grid, weakly keyed
    by the ensemble so they go with it; a block read fills the steps it
    lacks and is then one fancy index per grid it reads, which returns fresh
    action arrays.  A lock guards the lookup and the fill, so members priced
    on different workers (member_map) may share one feedback.  The grids
    are the scenario's; a subclass names its label and its per-step
    extremes(scenario, t, state, sup, stats_row, z) -> (extremal H, one
    index array per grid), a class attribute that _synthesize also makes
    the driver of the solve the feedback comes from.
    """

    def __init__(self, scenario: Scenario, solution: BsdeSolution,
                 stat_series: dict[str, np.ndarray]):
        self.scenario = scenario
        self.solution = solution
        self.stat_series = {k: np.asarray(v, dtype=float) for k, v in stat_series.items()}
        self._rows = weakref.WeakKeyDictionary()  # ensemble -> _HeldRows
        self._lock = threading.Lock()   # guards _rows and each held fill

    def stats_at(self, t_index: int) -> dict[str, float]:
        return {name: float(series[t_index]) for name, series in self.stat_series.items()}

    def _gather(self, paths: PathEnsemble, rows: slice, steps: slice,
                sides: tuple[int, ...]) -> tuple[np.ndarray, ...]:
        """Fresh (rows, steps) actions on each grid in sides, read off the
        held grid rows."""
        grids = self.scenario.grids
        with self._lock:
            held = self._rows.get(paths)
            if held is None:
                held = self._rows[paths] = _HeldRows(paths, grids)
            step_indices = np.arange(paths.grid.steps + 1)[steps]
            for k in step_indices[~held.filled[steps]]:
                held.put(k, self._step_rows(paths, int(k)))
        # a filled step is never written again, so it is read unlocked
        return tuple(grids[i].array()[held.rows[i][rows, steps]] for i in sides)

    def _step_rows(self, paths: PathEnsemble, t_index: int) -> tuple[np.ndarray, ...]:
        z = self.solution.z_at(paths, t_index)
        return self.extremes(self.scenario, paths.grid.times[t_index], paths.state(t_index),
                             paths.sup(t_index), self.stats_at(t_index), z)[1]


class BsdeFeedbackControl(_GridFeedback, Player):
    """Feedback of the control problem: the pointwise Hamiltonian minimizer
    over its action grid."""

    kind = "bsde-feedback"
    label = "bsde-feedback"
    extremes = staticmethod(_argmin_extremes)

    def actions_over(self, paths: PathEnsemble, rows: slice, steps: slice) -> np.ndarray:
        """Fresh (rows, steps) actions on a block of particles and grid
        times."""
        return self._gather(paths, rows, steps, (0,))[0]


# ---------------------------------------------------------------------------
# payoff


@dataclass(frozen=True)
class PayoffResult:
    value: float
    stderr: float
    flow: MeasureFlow
    diagnostics: FixpointDiagnostics
    per_particle: np.ndarray

    def to_dict(self) -> dict:
        return {"value": self.value, "stderr": self.stderr,
                "fixpoint_iterations": self.diagnostics.iterations}


def evaluate_payoff(scenario: Scenario, control, paths: PathEnsemble,
                    tol: float = 1e-3, fixpoint: FixpointResult | None = None) -> PayoffResult:
    """Reweighted payoff J(control) on the control's matched measure flow.

    J = E[ int_0^T L_t h(t) dt + L_T g ], the time integral by the trapezoid
    rule with the density at time t weighting the cost at time t.  For a
    game pass a game control, an iterable of two players.  The
    flow is matched to tol; a precomputed FixpointResult skips the Picard
    loop (it must belong to this control).
    """
    if fixpoint is None:
        fixpoint = fixpoint_measure_flow(scenario, control, paths, tol=tol)
    flow = fixpoint.flow
    n = paths.grid.steps
    names = dict.fromkeys((*scenario.running_cost.stat_names(),
                           *scenario.terminal_cost.stat_names()))
    series = {name: flow.statistic_series(name) for name in names}

    # each block's weighted running costs y are integrated by np.trapezoid's
    # own expression, (dx * (y[:, 1:] + y[:, :-1]) / 2.0).sum(axis=1), in
    # scratch made once per call; the rows of a block sum exactly as the rows
    # of the whole matrix would
    running = np.empty(paths.particles)
    steps = slice(0, n + 1)
    blocks = particle_blocks(paths.particles, n + 1)
    weighted = np.empty((blocks[0].stop, n + 1))
    pairs = np.empty((blocks[0].stop, n))
    for rows in blocks:
        size = rows.stop - rows.start
        h = scenario.running_cost.evaluate(
            paths.values[rows], series, *control_actions(control, paths, rows, steps))
        y = np.multiply(flow.weights[rows], h, out=weighted[:size])
        mid = np.add(y[:, 1:], y[:, :-1], out=pairs[:size])
        np.multiply(paths.grid.dt, mid, out=mid)
        mid /= 2.0
        running[rows] = mid.sum(axis=1)
    terminal = flow.weights[:, n] * terminal_values(scenario, paths, series)
    per_particle = running + terminal
    value, stderr = mean_stderr(per_particle)
    return PayoffResult(value=value, stderr=stderr, flow=flow,
                        diagnostics=fixpoint.diagnostics, per_particle=per_particle)


# ---------------------------------------------------------------------------
# synthesis


@dataclass(frozen=True)
class SynthesisReport:
    """What the control problem's and the game's synthesis loops share: the
    matched flow, the payoff j_hat of the synthesized control on it, the
    outer trace of (iteration, distance, stderr) rows with its last distance
    (matching_residual) and tol, and the final backward solution."""

    flow: MeasureFlow
    j_hat: float
    j_stderr: float
    matching_residual: float
    trace: tuple[tuple[int, float, float], ...]
    tol: float
    converged: bool
    solution: BsdeSolution

    @property
    def outer_iterations(self) -> int:
        return sum(1 for _, d, _ in self.trace if d >= self.tol)

    def to_dict(self) -> dict:
        return {
            "j_hat": self.j_hat, "j_stderr": self.j_stderr,
            "matching_residual": self.matching_residual,
            "outer_iterations": self.outer_iterations,
            "converged": self.converged,
            "trace": [{"iteration": i, "distance": d, "stderr": s} for i, d, s in self.trace],
        }


@dataclass(frozen=True)
class OptimizationReport(SynthesisReport):
    """Outcome of the policy iteration.

    eps_hat = j_hat - y0 is the optimality certificate: the payoff of the
    synthesized control minus the backward value at the matched flow.  A
    negative value beyond noise (flagged_negative) signals that the backward
    value is not a lower bound for this scenario; it is reported, never
    silently clipped.
    """

    control: BsdeFeedbackControl
    y0: float
    y0_stderr: float
    h_residual: float

    @property
    def eps_hat(self) -> float:
        return self.j_hat - self.y0

    @property
    def eps_stderr(self) -> float:
        return float(np.hypot(self.j_stderr, self.y0_stderr))

    @property
    def flagged_negative(self) -> bool:
        return self.eps_hat < -3.0 * self.eps_stderr

    def to_dict(self) -> dict:
        return {
            **super().to_dict(),
            "y0": self.y0, "y0_stderr": self.y0_stderr,
            "eps_hat": self.eps_hat, "eps_stderr": self.eps_stderr,
            "h_residual": self.h_residual,
            "flagged_negative": self.flagged_negative,
        }


def _extremal_solve(scenario: Scenario, paths: PathEnsemble, series: dict[str, np.ndarray],
                    extremes, basis: BasisSpec) -> tuple[BsdeSolution, _HeldRows]:
    """Backward solve on the ensemble at the law given by its statistic
    series (stat_series of a flow) whose driver is the extremal Hamiltonian
    extremes(scenario, t, state, sup, stats_row, z) -> (one value per particle,
    extremizer rows on each of the scenario's grids).  Returns the solution
    and the rows of every step the driver visited."""
    terminal = terminal_values(scenario, paths, series)
    times = paths.grid.times
    found = _HeldRows(paths, scenario.grids)

    def driver_at(k: int, z: np.ndarray) -> np.ndarray:
        row = {name: s[k] for name, s in series.items()}
        values, rows = extremes(scenario, times[k], paths.state(k), paths.sup(k), row, z)
        found.put(k, rows)
        return values

    return solve_driver_bsde(paths, terminal, driver_at, basis), found


# Outer synthesis passes before a run is reported as not converged.
_MAX_OUTER = 20
# The argmin residual samples this many particles at each of its times, drawn
# with this seed.
_RESIDUAL_SAMPLES = 200
_RESIDUAL_SEED = 7


def _synthesize(scenario: Scenario, paths: PathEnsemble, basis: BasisSpec, feedback,
                tol: float):
    """The synthesis loop of the control problem and of the game.

    Starting from the reference flow: solve the backward equation driven by
    the feedback class's extremes (min over u of H, or its lower envelope,
    with the extremizer rows) on the current flow, synthesize the feedback
    from it and the frozen statistic series, rematch the flow to it (a measure
    fixed point to tol), and stop once the horizon TV between successive
    flows drops below tol, or after _MAX_OUTER passes.  The
    feedback is handed the rows the solve's driver found at every step it
    visited: the driver's z is the solution's z_at, the feedback's own z,
    so they are the rows the feedback would compute.  The backward value is
    then solved again on the matched flow and the feedback priced there.

    A pass reads the flow only through the series of the statistics the
    scenario references (stat_series), and the fixed point starts from the
    reference flow.  So a pass whose series equal bit for bit those the
    last solve read would rebuild that solve's feedback and flow: it is
    recorded as distance 0.0 with stderr 0.0, what it would measure, without
    being run, and the loop stops.  The final solve likewise reuses the last
    solution when its series repeat.  Returns (feedback, fixpoint result,
    final solution, payoff, trace, converged).
    """
    flow = reference_flow(paths, scenario.statistic_map)
    trace: list[tuple[int, float, float]] = []
    read = None   # the series the last solve read
    for it in range(1, _MAX_OUTER + 1):
        series = stat_series(scenario, flow)
        if read is not None and _same_series(series, read):
            trace.append((it, 0.0, 0.0))
            break
        sol, found = _extremal_solve(scenario, paths, series, feedback.extremes, basis)
        read = series
        control = feedback(scenario, sol, {name: s.copy() for name, s in series.items()})
        control._rows[paths] = found
        fixres = fixpoint_measure_flow(scenario, control, paths, tol=tol)
        est = tv_pathspace(flow, fixres.flow, paths.grid.steps)
        trace.append((it, est.value, est.stderr))
        flow = fixres.flow
        if est.value < tol:
            break

    series = stat_series(scenario, flow)
    if not _same_series(series, read):
        sol, _ = _extremal_solve(scenario, paths, series, feedback.extremes, basis)
    payoff = evaluate_payoff(scenario, control, paths, fixpoint=fixres)
    return control, fixres, sol, payoff, tuple(trace), trace[-1][1] < tol


def policy_iteration(scenario: Scenario, paths: PathEnsemble, basis: BasisSpec = BasisSpec(),
                     tol: float = 1e-3) -> OptimizationReport:
    """Alternate minimized-Hamiltonian backward solves with measure matching.

    Starting from the reference flow: synthesize the argmin feedback over the
    scenario's action grid from the backward solution on the current flow,
    rematch the flow to that feedback, and stop once the horizon TV between
    successive flows drops below tol; tol is also every measure fixed
    point's tolerance.  Non-convergence is reported through converged=False
    with the full trace, not raised, so the partial certificate remains
    inspectable.
    """
    if scenario.kind == "game":
        raise TypeError("policy_iteration takes a single-controller scenario")

    control, fixres, final_sol, payoff, trace, converged = _synthesize(
        scenario, paths, basis, BsdeFeedbackControl, tol)
    h_res = _argmin_residual(scenario, control, final_sol, paths,
                             stat_series(scenario, fixres.flow))
    return OptimizationReport(
        control=control, flow=fixres.flow,
        y0=final_sol.y0, y0_stderr=final_sol.y0_stderr,
        j_hat=payoff.value, j_stderr=payoff.stderr,
        matching_residual=trace[-1][1], h_residual=h_res,
        trace=trace, tol=tol, converged=converged, solution=final_sol)


def _argmin_residual(scenario: Scenario, control, sol: BsdeSolution, paths: PathEnsemble,
                     series: dict[str, np.ndarray]) -> float:
    """max over a sampled (t, particle) set of H(., u_hat) - min_u H at the
    matched law, given by its statistic series; zero means the feedback is
    pointwise optimal there."""
    n = paths.grid.steps
    rng = np.random.default_rng(_RESIDUAL_SEED)
    m = paths.particles
    take = min(_RESIDUAL_SAMPLES, m)
    worst = 0.0
    for k in sorted({0, n // 4, n // 2, (3 * n) // 4, n - 1}):
        idx = rng.choice(m, size=take, replace=False)
        row = {name: float(s[k]) for name, s in series.items()}
        t = paths.grid.times[k]
        state = paths.values[idx, k]
        sup = paths.running_sup[idx, k]
        z = sol.z_at(paths, k)[idx]
        acts = control.actions(paths, k)[idx]
        h_at = hamiltonian(scenario, t, state, sup, row, z, acts)
        h_min, _ = minimized_hamiltonian(scenario, t, state, sup, row, z)
        worst = max(worst, float(np.max(h_at - h_min)))
    return worst


# ---------------------------------------------------------------------------
# envelope and verification


def envelope_bsde(scenario: Scenario, paths: PathEnsemble, controls, series,
                  basis: BasisSpec = BasisSpec()) -> BsdeSolution:
    """Backward solve of the lower-envelope equation of a control family.

    Terminal and driver are the pointwise minima over the family, each
    member read together with its own matched law:

        g*(x)     = min_i g(x_T, mu^i_T),
        H*(t,x,z) = min_i [h(t, x, mu^i_t, u_i) + z sigma^{-1} f(t, x, mu^i_t, u_i)],

    so Y*_0 sits below every member's Y^u_0 up to Monte Carlo and regression
    noise.  The law argument moves with the candidate instead of staying
    frozen at one flow, which is what makes the value a lower bound even when
    costs or dynamics read the law.  Enlarging the family can only lower the
    value.  series are the statistic series of the members' matched flows
    (stat_series), ordered like controls, and the solve runs on the
    ensemble, as in solve_linear_family.
    """
    if scenario.kind == "game":
        raise TypeError("envelope_bsde takes a single-controller scenario")
    controls, series = list(controls), list(series)
    if not controls or len(series) != len(controls):
        raise ValueError("an envelope needs at least one control and one series per control")

    # every candidate's H in one (K, M) array per step; the minimum is exact
    candidates_at = _family_hamiltonian(scenario, paths, controls, series)
    terminal = np.min([terminal_values(scenario, paths, s) for s in series], axis=0)
    return solve_driver_bsde(paths, terminal,
                             lambda k, z: np.min(candidates_at(k, z), axis=0), basis)

