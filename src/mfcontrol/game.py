"""Two-player zero-sum extension: envelopes, saddle synthesis, verification.

Player u minimizes and player v maximizes the same payoff.  The candidate
saddle point comes from the pointwise Hamiltonian envelopes over the two
finite action grids,

    lower(z) = max_v min_u H(z, u, v),    upper(z) = min_u max_v H(z, u, v).

When the two envelopes agree on a sampled z grid (the Isaacs condition) the
game has a value and the backward equation driven by the envelope yields it;
when they disagree beyond tolerance the solver refuses to certify a value
rather than returning a number that means nothing.

A separable game (GameScenario.separable: no u v cost term and an unclipped
affine drift) has H(u, v) = A(u) + B(v) + C, so min and max commute by
structure (Isaacs 1965): the saddle rows are argmin_u A and argmax_v B, found
in nu + 2 nv evaluations instead of nu nv (see envelopes), and both envelopes
are H at that pair.  Every other game evaluates the full array.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .bsde import BasisSpec, BsdeSolution, _hamiltonian_values
from .control import (_GridFeedback, _synthesize, constant_control, evaluate_payoff,
                      grid_index_dtype)
from .core import PathEnsemble
from .measure import MeasureFlow
from .scenario import GameScenario


class IsaacsError(RuntimeError):
    """Envelope order fails on the sampled grid; no saddle value exists."""

    def __init__(self, report: "IsaacsReport"):
        super().__init__(
            f"upper and lower Hamiltonian envelopes differ by up to "
            f"{report.max_gap:.6g} on the sampled grid; the game value is "
            f"not certified")
        self.report = report


@dataclass(frozen=True)
class EnvelopeValues:
    """Pointwise envelopes and their achieving actions, each (particles,).

    lower_u / lower_v achieve max_v min_u (v's choice with u's best reply);
    upper_u / upper_v achieve min_u max_v.  The candidate saddle pair is
    (upper_u, lower_v): each side plays its own guaranteed-value strategy.
    upper_u_index / lower_v_index are the pair's rows in the grid arrays.
    """

    lower: np.ndarray
    upper: np.ndarray
    lower_u: np.ndarray
    lower_v: np.ndarray
    upper_u: np.ndarray
    upper_v: np.ndarray
    upper_u_index: np.ndarray
    lower_v_index: np.ndarray

    @property
    def gap(self) -> np.ndarray:
        return self.upper - self.lower


def envelopes(scenario: GameScenario, t: float, state, sup, stats_row: dict,
              z) -> EnvelopeValues:
    """max_v min_u and min_u max_v of H over the two grids, vectorized.

    Ties resolve to the smallest action on both axes (the
    grids are sorted and argmin / argmax take the first extremizer).

    A separable game reads three (n, particles) arrays instead of the full
    one: v's first maximizer against the first u, u's first minimizer
    against that v row, and v's first maximizer against that u row.  In exact
    arithmetic any opponent row gives the same extremizer, but an exact tie
    on one axis (the continuous extremizer at a grid midpoint) is broken by
    rounding that depends on the opponent's action; the full array breaks it
    at the opponent's saddle row, and so does this order, as long as the two
    axes do not tie at once.  lower_u = upper_u, lower_v = upper_v, and
    lower = upper is H at that pair.
    """
    u_arr = scenario.actions_u.array()
    v_arr = scenario.actions_v.array()

    def ham(u, v):
        return _hamiltonian_values(scenario, t, state, sup, stats_row, z, [u, v])

    if not scenario.separable:
        return envelope_extremes(ham(u_arr[:, None, None], v_arr[None, :, None]),
                                 u_arr, v_arr)
    jv = np.argmax(ham(u_arr[0], v_arr[:, None]), axis=0)              # (m,)
    iu = np.argmin(ham(u_arr[:, None], v_arr[jv]), axis=0)
    against_u = ham(u_arr[iu], v_arr[:, None])                         # (nv, m)
    jv = np.argmax(against_u, axis=0)
    value = np.take_along_axis(against_u, jv[None], axis=0)[0]
    u, v = u_arr[iu], v_arr[jv]
    return EnvelopeValues(lower=value, upper=value, lower_u=u, lower_v=v,
                          upper_u=u, upper_v=v, upper_u_index=iu, lower_v_index=jv)


def envelope_extremes(hams: np.ndarray, u_arr: np.ndarray,
                      v_arr: np.ndarray) -> EnvelopeValues:
    """Envelopes of a (nu, nv, particles) Hamiltonian array over its grids.

    Each argmin / argmax is taken once and its extreme read back with
    take_along_axis, so every value is the Hamiltonian at the reported
    (first) extremizer.
    """
    cols = np.arange(hams.shape[2])

    argmin_u = np.argmin(hams, axis=0)                                 # (nv, m)
    min_u = np.take_along_axis(hams, argmin_u[None], axis=0)[0]
    idx_v_lower = np.argmax(min_u, axis=0)                             # (m,)

    argmax_v = np.argmax(hams, axis=1)                                 # (nu, m)
    max_v = np.take_along_axis(hams, argmax_v[:, None], axis=1)[:, 0]
    idx_u_upper = np.argmin(max_v, axis=0)                             # (m,)

    return EnvelopeValues(
        lower=min_u[idx_v_lower, cols], upper=max_v[idx_u_upper, cols],
        lower_u=u_arr[argmin_u[idx_v_lower, cols]], lower_v=v_arr[idx_v_lower],
        upper_u=u_arr[idx_u_upper], upper_v=v_arr[argmax_v[idx_u_upper, cols]],
        upper_u_index=idx_u_upper, lower_v_index=idx_v_lower)


def _saddle_extremes(scenario: GameScenario, t: float, state, sup, stats_row: dict,
                     z) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """(lower envelope, (upper_u rows, lower_v rows)): the game's extremal
    driver and its pair feedback's extremizers, rows in grid_index_dtype."""
    env = envelopes(scenario, t, state, sup, stats_row, z)
    return env.lower, (env.upper_u_index.astype(grid_index_dtype(scenario.actions_u)),
                       env.lower_v_index.astype(grid_index_dtype(scenario.actions_v)))


# ---------------------------------------------------------------------------
# Isaacs pre-check


@dataclass(frozen=True)
class IsaacsReport:
    """Envelope gap sampled over (state, z) points; max_gap <= tol certifies
    that the two envelopes coincide where the backward solve will read them."""

    max_gap: float
    tol: float
    z_points: tuple[float, ...]
    gap_by_z: tuple[float, ...]

    @property
    def holds(self) -> bool:
        return self.max_gap <= self.tol

    def to_dict(self) -> dict:
        return {
            "max_gap": self.max_gap, "tol": self.tol, "holds": self.holds,
            "z_points": list(self.z_points), "gap_by_z": list(self.gap_by_z),
        }


# The envelope gap beyond which solve_game refuses to certify a value.
_ISAACS_TOL = 1e-9
# The z values isaacs_gap samples.
_ISAACS_Z_POINTS = np.linspace(-3.0, 3.0, 25)


def isaacs_gap(scenario: GameScenario) -> IsaacsReport:
    """Sample upper - lower over a (state, z) grid at t = 0.

    z runs over _ISAACS_Z_POINTS on [-3, 3], the states around the initial
    point at the diffusive scale, and the statistics take their
    initial-condition values.  The gap is always >= 0; a positive max beyond
    _ISAACS_TOL means min and max do not commute for this Hamiltonian and no
    saddle certificate is possible on these grids.  A non-finite sampled
    envelope (an overflowing Hamiltonian) says nothing about their order and
    raises FloatingPointError.
    """
    x_points = scenario.initial + np.sqrt(scenario.horizon) * np.linspace(-3.0, 3.0, 13)
    init = np.asarray(scenario.initial, dtype=float)
    stats_row = {name: float(spec.evaluate(init))
                 for name, spec in scenario.statistic_map.items()}
    sup = np.abs(x_points)
    gaps = []
    for zv in _ISAACS_Z_POINTS:
        z = np.full_like(x_points, zv)
        env = envelopes(scenario, 0.0, x_points, sup, stats_row, z)
        if not (np.all(np.isfinite(env.lower)) and np.all(np.isfinite(env.upper))):
            raise FloatingPointError(f"non-finite Hamiltonian envelope at z = {zv:g} "
                                     f"on the Isaacs sample grid")
        gaps.append(float(np.max(env.gap)))
    max_gap = max(gaps)
    return IsaacsReport(max_gap=max_gap, tol=_ISAACS_TOL,
                        z_points=tuple(float(z) for z in _ISAACS_Z_POINTS),
                        gap_by_z=tuple(gaps))


# ---------------------------------------------------------------------------
# saddle feedback


class PairSideControl:
    """One side of a feedback pair, usable wherever a single control is."""

    def __init__(self, pair: "PairFeedbackControl", side: int, label: str):
        self._pair = pair
        self._side = side
        self.label = label

    def actions_over(self, paths: PathEnsemble, rows: slice, steps: slice) -> np.ndarray:
        """Fresh (rows, steps) actions of this side alone."""
        return self._pair._gather(paths, rows, steps, (self._side,))[0]

    def actions(self, paths: PathEnsemble, t_index: int) -> np.ndarray:
        return self.actions_over(paths, slice(None), slice(t_index, t_index + 1))[:, 0]


class PairFeedbackControl(_GridFeedback):
    """Saddle candidate synthesized from a backward solution.

    u plays the upper-envelope minimizer, v the lower-envelope maximizer, both
    read at the regression estimate z(t, x); one envelope evaluation per step
    and ensemble serves both sides.
    """

    kind = "pair-feedback"

    def __init__(self, scenario: GameScenario, solution: BsdeSolution,
                 stat_series: dict[str, np.ndarray], label: str = "saddle-feedback"):
        super().__init__(scenario, scenario.grids, solution, stat_series, label)

    def _extremes(self, t, state, sup, stats_row, z):
        return _saddle_extremes(self.scenario, t, state, sup, stats_row, z)

    def actions_pair_over(self, paths: PathEnsemble, rows: slice,
                          steps: slice) -> tuple[np.ndarray, np.ndarray]:
        """Fresh (rows, steps) u and v actions on a block of particles and
        grid times."""
        return self._gather(paths, rows, steps, (0, 1))

    def actions_pair(self, paths: PathEnsemble, t_index: int) -> tuple[np.ndarray, np.ndarray]:
        u, v = self.actions_pair_over(paths, slice(None), slice(t_index, t_index + 1))
        return u[:, 0], v[:, 0]

    @property
    def u_control(self) -> PairSideControl:
        return PairSideControl(self, 0, f"{self.label}|u")

    @property
    def v_control(self) -> PairSideControl:
        return PairSideControl(self, 1, f"{self.label}|v")


# ---------------------------------------------------------------------------
# saddle synthesis


@dataclass(frozen=True)
class SaddleReport:
    """Outcome of the game synthesis loop.

    value is the backward envelope value at the matched flow; j_hat the
    reweighted payoff of the synthesized pair.  Their gap should vanish up to
    Monte Carlo noise when the Isaacs condition holds.
    """

    pair: PairFeedbackControl
    flow: MeasureFlow
    value: float
    value_stderr: float
    j_hat: float
    j_stderr: float
    matching_residual: float
    isaacs: IsaacsReport
    trace: tuple[tuple[int, float, float], ...]
    tol: float
    converged: bool
    solution: BsdeSolution

    @property
    def value_gap(self) -> float:
        return self.j_hat - self.value

    @property
    def value_gap_stderr(self) -> float:
        return float(np.hypot(self.j_stderr, self.value_stderr))

    @property
    def outer_iterations(self) -> int:
        return sum(1 for _, d, _ in self.trace if d >= self.tol)

    def to_dict(self) -> dict:
        return {
            "value": self.value, "value_stderr": self.value_stderr,
            "j_hat": self.j_hat, "j_stderr": self.j_stderr,
            "value_gap": self.value_gap, "value_gap_stderr": self.value_gap_stderr,
            "matching_residual": self.matching_residual,
            "isaacs_max_gap": self.isaacs.max_gap,
            "outer_iterations": self.outer_iterations,
            "converged": self.converged,
            "trace": [{"iteration": i, "distance": d, "stderr": s} for i, d, s in self.trace],
        }


def solve_game(scenario: GameScenario, paths: PathEnsemble,
               basis: BasisSpec | None = None, tol: float = 1e-3) -> SaddleReport:
    """Synthesize a saddle candidate and certify the game value.

    Aborts with IsaacsError before any heavy work when the sampled envelope
    gap exceeds _ISAACS_TOL.  Otherwise runs the same alternation as the
    single-controller synthesis with the lower envelope as backward driver,
    and prices the resulting pair on its matched flow; tol is the outer
    stopping distance and every measure fixed point's tolerance.
    """
    if scenario.kind != "game":
        raise TypeError("solve_game needs a two-player scenario")
    if basis is None:
        basis = BasisSpec()

    isaacs = isaacs_gap(scenario)
    if not isaacs.holds:
        raise IsaacsError(isaacs)

    pair, fixres, final_sol, payoff, trace, converged = _synthesize(
        scenario, paths, basis,
        partial(_saddle_extremes, scenario),
        lambda sol, stats: PairFeedbackControl(scenario, sol, stats),
        tol)
    return SaddleReport(
        pair=pair, flow=fixres.flow,
        value=final_sol.y0, value_stderr=final_sol.y0_stderr,
        j_hat=payoff.value, j_stderr=payoff.stderr,
        matching_residual=trace[-1][1], isaacs=isaacs,
        trace=trace, tol=tol, converged=converged, solution=final_sol)


# ---------------------------------------------------------------------------
# saddle verification


@dataclass(frozen=True)
class SaddleCheckReport:
    """Unilateral-deviation slacks around the synthesized pair.

    u rows: J(u~, v_bar) - J(pair), which a saddle keeps >= -3 stderr (the
    minimizer cannot improve by deviating).  v rows: J(pair) - J(u_bar, v~),
    same sign convention (the maximizer cannot improve).
    """

    u_rows: tuple[dict, ...]
    v_rows: tuple[dict, ...]
    j_pair: float
    j_pair_stderr: float
    passed: bool

    def to_dict(self) -> dict:
        return {"u_rows": list(self.u_rows), "v_rows": list(self.v_rows),
                "j_pair": self.j_pair, "j_pair_stderr": self.j_pair_stderr,
                "passed": self.passed}


def verify_saddle(scenario: GameScenario, paths: PathEnsemble,
                  report: SaddleReport) -> SaddleCheckReport:
    """Price unilateral deviations against the synthesized pair.

    The deviations are every constant control on each grid.  Each deviation
    fixes the opponent's feedback side and replaces one side only; all
    payoffs are reweightings of the same ensemble, each matched at the
    report's tol, the tolerance the pair itself was priced at.
    """
    pair = report.pair
    j0, se0 = report.j_hat, report.j_stderr
    rows = {"u": [], "v": []}
    passed = True
    for side, grid in (("u", scenario.actions_u), ("v", scenario.actions_v)):
        for c in (constant_control(p, grid) for p in grid.points):
            played = (c, pair.v_control) if side == "u" else (pair.u_control, c)
            res = evaluate_payoff(scenario, played, paths, tol=report.tol)
            slack = res.value - j0 if side == "u" else j0 - res.value
            tol3 = 3.0 * float(np.hypot(res.stderr, se0))
            ok = bool(slack >= -tol3)
            passed = passed and ok
            rows[side].append({"label": getattr(c, "label", f"{side}-dev"), "payoff": res.value,
                               "stderr": res.stderr, "slack": slack, "tol": tol3, "ok": ok})
    return SaddleCheckReport(u_rows=tuple(rows["u"]), v_rows=tuple(rows["v"]),
                             j_pair=j0, j_pair_stderr=se0, passed=passed)
