"""Two-player zero-sum extension: envelopes, saddle synthesis, verification.

Player u minimizes and player v maximizes the same payoff.  The candidate
saddle point comes from the pointwise Hamiltonian envelopes over the two
finite action grids,

    lower(z) = max_v min_u H(z, u, v),    upper(z) = min_u max_v H(z, u, v).

When the two envelopes agree on a sampled z grid (the Isaacs condition) the
game has a value and the backward equation driven by the envelope yields it;
when they disagree beyond tolerance the solver refuses to certify a value
rather than returning a number that means nothing.

A separable game (Scenario.separable: no u v cost term and an unclipped
affine drift) has H(u, v) = A(u) + B(v) + C, so min and max commute by
structure (Isaacs 1965): the saddle rows are argmin_u A and argmax_v B, found
in nu + 2 nv evaluations instead of nu nv (see envelopes), and both envelopes
are H at that pair.  Every other game evaluates the full array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bsde import BasisSpec, BsdeSolution, _hamiltonian_values
from .control import (Player, SynthesisReport, _GridFeedback, _synthesize, constant_control,
                      evaluate_payoff, grid_index_dtype)
from .core import PathEnsemble
from .scenario import Scenario


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
    """Pointwise envelopes and the candidate saddle pair, each (particles,).

    upper_u_index is u's row in the u grid array achieving min_u max_v, and
    lower_v_index v's row in the v grid array achieving max_v min_u: each
    side plays its own guaranteed-value strategy.
    """

    lower: np.ndarray
    upper: np.ndarray
    upper_u_index: np.ndarray
    lower_v_index: np.ndarray

    @property
    def gap(self) -> np.ndarray:
        return self.upper - self.lower


def envelopes(scenario: Scenario, t: float, state, sup, stats_row: dict,
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
    axes do not tie at once.  Each envelope's extremizers are that pair,
    and lower = upper is H at it.
    """
    u_arr = scenario.actions.array()
    v_arr = scenario.actions_v.array()

    def ham(u, v):
        return _hamiltonian_values(scenario, t, state, sup, stats_row, z, [u, v])

    if not scenario.separable:
        return envelope_extremes(ham(u_arr[:, None, None], v_arr[None, :, None]))
    jv = np.argmax(ham(u_arr[0], v_arr[:, None]), axis=0)              # (m,)
    iu = np.argmin(ham(u_arr[:, None], v_arr[jv]), axis=0)
    against_u = ham(u_arr[iu], v_arr[:, None])                         # (nv, m)
    jv = np.argmax(against_u, axis=0)
    value = np.take_along_axis(against_u, jv[None], axis=0)[0]
    return EnvelopeValues(lower=value, upper=value, upper_u_index=iu, lower_v_index=jv)


def envelope_extremes(hams: np.ndarray) -> EnvelopeValues:
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
        upper_u_index=idx_u_upper, lower_v_index=idx_v_lower)


def _saddle_extremes(scenario: Scenario, t: float, state, sup, stats_row: dict,
                     z) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """(lower envelope, (u rows, v rows)): the game's extremal driver and
    its pair feedback's extremizers, rows in grid_index_dtype."""
    env = envelopes(scenario, t, state, sup, stats_row, z)
    return env.lower, (env.upper_u_index.astype(grid_index_dtype(scenario.actions)),
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


def isaacs_gap(scenario: Scenario) -> IsaacsReport:
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


class PairSideControl(Player):
    """One side of a feedback pair, a player like any single control."""

    def __init__(self, pair: "PairFeedbackControl", side: int):
        self._pair = pair
        self._side = side
        self.label = f"{pair.label}|{'uv'[side]}"

    def actions_over(self, paths: PathEnsemble, rows: slice, steps: slice) -> np.ndarray:
        """Fresh (rows, steps) actions of this side alone."""
        return self._pair._gather(paths, rows, steps, (self._side,))[0]


class PairFeedbackControl(_GridFeedback):
    """Saddle candidate synthesized from a backward solution: a game
    control, which iterates as its two players, labelled <label>|u and
    <label>|v.

    u plays the upper-envelope minimizer, v the lower-envelope maximizer, both
    read at the regression estimate z(t, x); one envelope evaluation per step
    and ensemble serves both sides.
    """

    kind = "pair-feedback"
    label = "saddle-feedback"
    extremes = staticmethod(_saddle_extremes)

    def __init__(self, scenario: Scenario, solution: BsdeSolution,
                 stat_series: dict[str, np.ndarray]):
        super().__init__(scenario, solution, stat_series)
        self._players = (PairSideControl(self, 0), PairSideControl(self, 1))

    def __iter__(self):
        return iter(self._players)

    def actions_pair(self, paths: PathEnsemble, t_index: int) -> tuple[np.ndarray, np.ndarray]:
        u, v = self
        return u.actions(paths, t_index), v.actions(paths, t_index)


# ---------------------------------------------------------------------------
# saddle synthesis


@dataclass(frozen=True)
class SaddleReport(SynthesisReport):
    """Outcome of the game synthesis loop.

    value is the backward envelope value at the matched flow; j_hat the
    reweighted payoff of the synthesized pair.  Their gap should vanish up to
    Monte Carlo noise when the Isaacs condition holds.
    """

    pair: PairFeedbackControl
    value: float
    value_stderr: float
    isaacs: IsaacsReport

    @property
    def value_gap(self) -> float:
        return self.j_hat - self.value

    @property
    def value_gap_stderr(self) -> float:
        return float(np.hypot(self.j_stderr, self.value_stderr))

    def to_dict(self) -> dict:
        return {
            **super().to_dict(),
            "value": self.value, "value_stderr": self.value_stderr,
            "value_gap": self.value_gap, "value_gap_stderr": self.value_gap_stderr,
            "isaacs_max_gap": self.isaacs.max_gap,
        }


def solve_game(scenario: Scenario, paths: PathEnsemble,
               basis: BasisSpec = BasisSpec(), tol: float = 1e-3) -> SaddleReport:
    """Synthesize a saddle candidate and certify the game value.

    Aborts with IsaacsError before any heavy work when the sampled envelope
    gap exceeds _ISAACS_TOL.  Otherwise runs the same alternation as the
    single-controller synthesis with the lower envelope as backward driver,
    and prices the resulting pair on its matched flow; tol is the outer
    stopping distance and every measure fixed point's tolerance.
    """
    if scenario.kind != "game":
        raise TypeError("solve_game needs a two-player scenario")

    isaacs = isaacs_gap(scenario)
    if not isaacs.holds:
        raise IsaacsError(isaacs)

    pair, _, final_sol, payoff, trace, converged = _synthesize(
        scenario, paths, basis, PairFeedbackControl, tol)
    return SaddleReport(
        pair=pair,
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


def verify_saddle(scenario: Scenario, paths: PathEnsemble,
                  report: SaddleReport) -> SaddleCheckReport:
    """Price unilateral deviations against the synthesized pair.

    The deviations are every constant control on each grid.  Each deviation
    fixes the opponent's feedback side and replaces one side only; all
    payoffs are reweightings of the same ensemble, each matched at the
    report's tol, the tolerance the pair itself was priced at.
    """
    u, v = report.pair
    j0, se0 = report.j_hat, report.j_stderr
    rows = {"u": [], "v": []}
    passed = True
    for side, grid in zip("uv", scenario.grids):
        for c in (constant_control(p, grid) for p in grid.points):
            played = (c, v) if side == "u" else (u, c)
            res = evaluate_payoff(scenario, played, paths, tol=report.tol)
            slack = res.value - j0 if side == "u" else j0 - res.value
            tol3 = 3.0 * float(np.hypot(res.stderr, se0))
            ok = bool(slack >= -tol3)
            passed = passed and ok
            rows[side].append({"label": c.label, "payoff": res.value,
                               "stderr": res.stderr, "slack": slack, "tol": tol3, "ok": ok})
    return SaddleCheckReport(u_rows=tuple(rows["u"]), v_rows=tuple(rows["v"]),
                             j_pair=j0, j_pair_stderr=se0, passed=passed)
