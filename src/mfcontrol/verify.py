"""Acceptance battery: the invariant matrix over the built-in scenarios.

Each check prices one published guarantee at desk scale and returns a
CheckResult whose details are plain JSON-serializable values.  For a fixed
(seed, particles, steps) the whole battery is deterministic, so two runs
produce byte-identical reports; anything wall-clock dependent goes to stderr
and never into a result.

Tolerances follow the guarantee being checked: statistical statements get
3 standard errors (5 where the bound itself is only an inequality with
estimated sides), discretization statements get the action-grid resolution,
and exact statements (Isaacs gap of a separable game, pathwise marginal
domination) are checked exactly.
"""

from __future__ import annotations

import sys
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from .bsde import BasisSpec, solve_linear_family, stat_series
from .control import (constant_control, envelope_bsde, evaluate_payoff,
                      parametric_control, policy_iteration)
from .core import simulate_for_scenario
from .game import isaacs_gap, solve_game, verify_saddle
from .girsanov import DriftEvaluator, density_process, fixpoint_measure_flow
from .measure import (hellinger_pairs, mean_stderr, reference_flow, tv_columns, tv_marginals,
                      tv_pathspace, weighted_statistic)
from .scenario import builtin_scenarios, get_builtin

_CRITERIA = {}


def _criterion(index: int, name: str):
    def wrap(fn):
        fn.index = index
        fn.name = name
        _CRITERIA[index] = fn
        return fn
    return wrap


@dataclass(frozen=True)
class CheckResult:
    index: int
    name: str
    passed: bool
    details: dict

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"[{tag}] criterion {self.index}: {self.name}"

    def to_dict(self) -> dict:
        return {"index": self.index, "name": self.name, "passed": self.passed,
                "details": self.details}


class AcceptanceContext:
    """Shared ensembles, matched flows and settings for one battery run.

    All built-in scenarios ride the same reference ensemble (they share the
    diffusion, initial point, and horizon), so fixpoint results are cached by
    (scenario, control label) and reused across criteria.  tol is every
    measure fixed point's tolerance and basis every backward solve's basis.
    """

    def __init__(self, seed: int, particles: int, steps: int,
                 tol: float = 1e-3, basis: BasisSpec | None = None):
        self.seed = int(seed)
        self.particles = int(particles)
        self.steps = int(steps)
        self.tol = float(tol)
        self.basis = BasisSpec() if basis is None else basis
        self.scenarios = {name: get_builtin(name) for name in builtin_scenarios()}
        self._paths = {}
        self._fix = {}

    def paths_for(self, scenario):
        key = (scenario.initial, scenario.horizon, scenario.sigma)
        if key not in self._paths:
            self._paths[key] = simulate_for_scenario(
                scenario, self.particles, self.steps, self.seed)
        return self._paths[key]

    def fixpoint(self, scenario, control, label: str):
        key = (scenario.name, label)
        if key not in self._fix:
            self._fix[key] = fixpoint_measure_flow(
                scenario, control, self.paths_for(scenario), tol=self.tol)
        return self._fix[key]


# Members of each scenario's test family, before duplicate indices merge.
_FAMILY_COUNT = 5


def _family(scenario):
    """(label, control-or-pair) test family: evenly indexed grid constants,
    reversed-index pairs for games so both players move."""
    if scenario.kind == "game":
        pu = scenario.actions.points
        pv = scenario.actions_v.points
        iu = np.round(np.linspace(0, len(pu) - 1, _FAMILY_COUNT)).astype(int)
        iv = np.round(np.linspace(len(pv) - 1, 0, _FAMILY_COUNT)).astype(int)
        out = []
        for i, j in dict.fromkeys(zip(iu, iv)):
            cu = constant_control(pu[i], scenario.actions)
            cv = constant_control(pv[j], scenario.actions_v)
            out.append((f"pair[{pu[i]:g},{pv[j]:g}]", (cu, cv)))
        return out
    pts = scenario.actions.points
    idx = np.unique(np.round(np.linspace(0, len(pts) - 1, _FAMILY_COUNT)).astype(int))
    return [(f"const[{pts[i]:g}]", constant_control(pts[i], scenario.actions))
            for i in idx]


# ---------------------------------------------------------------------------
# criteria


@_criterion(1, "payoff identity Y^u_0 = J(u) on every built-in")
def check_payoff_identity(ctx: AcceptanceContext) -> CheckResult:
    start = time.perf_counter()
    rows = []
    passed = True
    for name, scen in ctx.scenarios.items():
        paths = ctx.paths_for(scen)
        family = _family(scen)
        fixes = [ctx.fixpoint(scen, control, label) for label, control in family]
        sols = solve_linear_family(scen, paths, [control for _, control in family],
                                   [stat_series(scen, fix.flow) for fix in fixes], ctx.basis)
        for (label, control), fix, sol in zip(family, fixes, sols):
            pay = evaluate_payoff(scen, control, paths, fixpoint=fix)
            gap = sol.y0 - pay.value
            tol3 = 3.0 * float(np.hypot(sol.y0_stderr, pay.stderr))
            ok = bool(abs(gap) <= tol3)
            passed = passed and ok
            rows.append({"scenario": name, "control": label, "y0": sol.y0,
                         "payoff": pay.value, "gap": gap, "tol": tol3, "ok": ok})
    elapsed = time.perf_counter() - start
    print(f"criterion 1 runtime: {elapsed:.1f}s (budget 30s)", file=sys.stderr)
    runtime_ok = bool(elapsed < 30.0)
    return CheckResult(1, check_payoff_identity.name, passed and runtime_ok,
                       {"rows": rows, "runtime_ok": runtime_ok})


@_criterion(2, "martingale normalization E[L_t] = 1 at every grid time")
def check_normalization(ctx: AcceptanceContext) -> CheckResult:
    rows = []
    passed = True
    for name, scen in ctx.scenarios.items():
        for label, control in _family(scen):
            fix = ctx.fixpoint(scen, control, label)
            mean, se = fix.flow.normalization()
            dev = np.abs(mean - 1.0)
            ok = bool(np.all(dev <= 4.0 * se + 1e-12))
            passed = passed and ok
            worst = int(np.argmax(dev - 4.0 * se))
            rows.append({"scenario": name, "control": label, "ok": ok,
                         "worst_time_index": worst,
                         "worst_mean": float(mean[worst]),
                         "worst_stderr": float(se[worst])})
    return CheckResult(2, check_normalization.name, passed, {"rows": rows})


@_criterion(3, "fixed point: iteration counts, contraction, mean ODE")
def check_fixed_point(ctx: AcceptanceContext) -> CheckResult:
    details: dict = {}
    passed = True

    # measure-independent drifts settle in one productive application;
    # zero drift is already the fixed point, so in zero
    expected = {"zero-drift": 0, "linear-quadratic": 1, "variance": 1}
    counts = {}
    for name, want in expected.items():
        scen = ctx.scenarios[name]
        control = constant_control(1.0, scen.actions)
        fix = ctx.fixpoint(scen, control, "const[1]")
        counts[name] = {"iterations": fix.diagnostics.iterations, "expected": want,
                        "ok": bool(fix.diagnostics.iterations == want)}
        passed = passed and counts[name]["ok"]
    details["iteration_counts"] = counts

    scen = ctx.scenarios["mean-field-mean-reversion"]
    paths = ctx.paths_for(scen)
    mf_rows = []
    for label, control in _family(scen):
        fix = ctx.fixpoint(scen, control, label)
        d = fix.diagnostics
        monotone = bool(all(b < a or (a < d.tol and b < d.tol)
                            for a, b in zip(d.distances, d.distances[1:])))
        final_ok = bool(d.final_distance < d.tol + 4.0 * d.stderrs[-1])
        within = bool(d.applications <= 20)
        u = control.value
        times = paths.grid.times
        target = scen.initial + u * times
        dev_max, margin_ok = 0.0, True
        for k in range(ctx.steps + 1):
            est, se = weighted_statistic(fix.flow, k, "mean")
            dev = abs(est - target[k])
            dev_max = max(dev_max, dev)
            margin_ok = margin_ok and bool(dev <= 3.0 * se + 1e-12)
        ok = monotone and final_ok and within and margin_ok
        passed = passed and ok
        mf_rows.append({"control": label, "applications": d.applications,
                        "iterations": d.iterations, "monotone": monotone,
                        "final_distance": d.final_distance, "final_ok": final_ok,
                        "mean_ode_ok": margin_ok, "mean_dev_max": dev_max, "ok": ok})
    details["mean_field"] = mf_rows
    return CheckResult(3, check_fixed_point.name, passed, details)


@_criterion(4, "Hellinger domination over constant-control pairs")
def check_hellinger(ctx: AcceptanceContext) -> CheckResult:
    scen = ctx.scenarios["linear-quadratic"]
    paths = ctx.paths_for(scen)
    n = paths.grid.steps
    points = scen.actions.points
    # the drift reads no statistic, so one density application from the
    # reference flow is each constant's fixed point; only its horizon
    # column and its drift are kept, and nothing enters ctx's cache
    assert not scen.drift.stat_names()
    start = reference_flow(paths, scen.statistic_map)
    drifts = [DriftEvaluator(scen, start, constant_control(u, scen.actions)) for u in points]
    horizons = np.empty((len(points), paths.particles))
    for row, drift in zip(horizons, drifts):
        row[:] = density_process(drift)[:, n]
    gammas, bounds, gses = hellinger_pairs(drifts, horizons)
    horizon = scen.horizon
    worst_bound = None
    worst_gamma = None
    violations = 0
    gamma_fail = 0
    pairs = 0
    for i, u in enumerate(points):
        for j in range(i + 1, len(points)):
            v = points[j]
            est = tv_columns(horizons[i], horizons[j])
            gam, bound, gse = float(gammas[pairs]), float(bounds[pairs]), float(gses[pairs])
            pairs += 1
            slack = bound + 5.0 * est.stderr - est.value
            if worst_bound is None or slack < worst_bound["slack"]:
                worst_bound = {"u": u, "v": v, "tv": est.value, "bound": bound,
                               "slack": slack}
            if slack < 0:
                violations += 1
            analytic = horizon / 8.0 * (u - v) ** 2
            gdev = abs(gam - analytic)
            gok = bool(gdev <= 3.0 * gse + 1e-12)
            if not gok:
                gamma_fail += 1
            if worst_gamma is None or gdev - 3.0 * gse > worst_gamma["excess"]:
                worst_gamma = {"u": u, "v": v, "gamma": gam, "analytic": analytic,
                               "stderr": gse, "excess": gdev - 3.0 * gse}
    passed = violations == 0 and gamma_fail == 0
    return CheckResult(4, check_hellinger.name, passed,
                       {"pairs": pairs, "bound_violations": violations,
                        "gamma_mismatches": gamma_fail,
                        "worst_bound": worst_bound, "worst_gamma": worst_gamma})


@_criterion(5, "marginal TV dominated by path-space TV at every time")
def check_marginal_domination(ctx: AcceptanceContext) -> CheckResult:
    picked = {}   # scenario -> (label, matched flow of its first family member)
    sharing = {}  # ensemble -> the scenarios whose flows live on it
    for name, scen in ctx.scenarios.items():
        label, control = _family(scen)[0]
        picked[name] = (label, ctx.fixpoint(scen, control, label).flow)
        sharing.setdefault(ctx.paths_for(scen), []).append(name)
    # the scenarios on one ensemble share each column's sort, cuts and bins
    marginals = {}  # scenario -> (reference flow, tv_marginal at each step)
    for paths, names in sharing.items():
        ref = reference_flow(paths)
        per_step = [tv_marginals([picked[name][1] for name in names], ref, k)
                    for k in range(ctx.steps + 1)]
        for i, name in enumerate(names):
            marginals[name] = (ref, [est[i] for est in per_step])
    rows = []
    passed = True
    for name, (label, flow) in picked.items():
        ref, margs = marginals[name]
        worst = None
        ok_all = True
        for k, marg in enumerate(margs):
            path = tv_pathspace(flow, ref, k)
            se = float(np.hypot(marg.stderr, path.stderr))
            slack = path.value + 5.0 * se + marg.bin_width - marg.value
            ok = bool(slack >= 0)
            ok_all = ok_all and ok
            if worst is None or slack < worst["slack"]:
                worst = {"time_index": k, "marginal": marg.value,
                         "pathspace": path.value, "bin_width": marg.bin_width,
                         "slack": slack}
        passed = passed and ok_all
        rows.append({"scenario": name, "control": label, "ok": ok_all, "worst": worst})
    return CheckResult(5, check_marginal_domination.name, passed, {"rows": rows})


@_criterion(6, "linear-quadratic optimum: feedback, value, certificate")
def check_lq_optimum(ctx: AcceptanceContext) -> CheckResult:
    scen = ctx.scenarios["linear-quadratic"]
    paths = ctx.paths_for(scen)
    report = policy_iteration(scen, paths, basis=ctx.basis, tol=ctx.tol)
    res = scen.actions.resolution

    # Pointwise check: the synthesized action may differ from the analytic
    # -1 only where the regressed z's own prediction noise at that state is
    # enough to push the argmin across grid cells (du*/dz = -1 here).
    dev_max = 0.0
    excess_max = -np.inf
    feedback_ok = True
    for k in sorted({0, ctx.steps // 2, ctx.steps - 1, ctx.steps}):
        acts = report.control.actions(paths, k)
        dev = np.abs(acts + 1.0)
        allow = 3.0 * report.solution.z_stderr(paths, k) + res + 1e-12
        dev_max = max(dev_max, float(np.max(dev)))
        excess_max = max(excess_max, float(np.max(dev - allow)))
        feedback_ok = feedback_ok and bool(np.all(dev <= allow))

    target = scen.initial - scen.horizon / 2.0
    value_dev = abs(report.y0 - target)
    value_ok = bool(value_dev <= 3.0 * report.y0_stderr + res)

    analytic = constant_control(-1.0, scen.actions, label="analytic-optimum")
    pay = evaluate_payoff(scen, analytic, paths, tol=ctx.tol)
    eps = pay.value - report.y0
    eps_se = float(np.hypot(pay.stderr, report.y0_stderr))
    eps_ok = bool(abs(eps) <= 3.0 * eps_se + res)

    passed = feedback_ok and value_ok and eps_ok and report.converged
    return CheckResult(6, check_lq_optimum.name, passed, {
        "feedback_max_deviation": dev_max, "grid_resolution": res,
        "feedback_max_excess": excess_max, "feedback_ok": feedback_ok,
        "y0": report.y0, "y0_stderr": report.y0_stderr, "target": target,
        "value_ok": value_ok,
        "eps_hat": eps, "eps_stderr": eps_se, "eps_ok": eps_ok,
        "converged": report.converged,
        "outer_iterations": report.outer_iterations,
    })


@_criterion(7, "comparison Y*_0 <= Y^u_0 over sampled feedback controls")
def check_comparison(ctx: AcceptanceContext) -> CheckResult:
    rows = [_comparison_row(ctx, sname)
            for sname in ("linear-quadratic", "mean-field-mean-reversion")]
    return CheckResult(7, check_comparison.name, all(row["ok"] for row in rows),
                       {"rows": rows})


def _comparison_row(ctx: AcceptanceContext, sname: str) -> dict:
    """Criterion 7 on one scenario: its 20 sampled controls' backward values
    against the lower-envelope value Y*_0."""
    scen = ctx.scenarios[sname]
    paths = ctx.paths_for(scen)
    rng = np.random.default_rng(ctx.seed + 701)
    sampled = []
    for _ in range(20):
        a = float(rng.uniform(-1.0, 1.0))
        b = float(rng.uniform(-0.5, 0.5))
        c = float(rng.uniform(-0.3, 0.3))
        sampled.append(parametric_control(a, b, c, scen.actions))
    # a backward solve reads a law only through its statistic series, so each
    # sampled flow is dropped as soon as its series are read
    sampled_series = [stat_series(scen, fixpoint_measure_flow(scen, control, paths,
                                                              tol=ctx.tol).flow)
                      for control in sampled]
    sols = solve_linear_family(scen, paths, sampled, sampled_series, ctx.basis)

    # Y* is the lower-envelope backward value: each candidate enters the
    # driver and terminal minima under its own matched law.  The cached
    # grid constants widen the family beyond the compared controls.
    extras = _family(scen)
    candidates = sampled + [c for _, c in extras]
    series = sampled_series + [stat_series(scen, ctx.fixpoint(scen, c, label).flow)
                               for label, c in extras]
    star = envelope_bsde(scen, paths, candidates, series, ctx.basis)

    worst = None
    ok_all = True
    for control, sol in zip(sampled, sols):
        slack = sol.y0 - star.y0
        tol3 = 3.0 * float(np.hypot(sol.y0_stderr, star.y0_stderr))
        ok = bool(slack >= -tol3)
        ok_all = ok_all and ok
        if worst is None or slack < worst["slack"]:
            worst = {"control": control.label, "y_u0": sol.y0,
                     "slack": slack, "tol": tol3}
    return {"scenario": sname, "y_star": star.y0,
            "y_star_stderr": star.y0_stderr, "controls": 20,
            "envelope_candidates": len(candidates),
            "ok": ok_all, "worst": worst}


@_criterion(8, "variance payoff equals weighted variance and stays flat")
def check_variance(ctx: AcceptanceContext) -> CheckResult:
    scen = ctx.scenarios["variance"]
    paths = ctx.paths_for(scen)
    n = ctx.steps
    horizon = scen.horizon
    phi = scen.statistic_map["mean"]
    rows = []
    passed = True
    for label, control in _family(scen):
        fix = ctx.fixpoint(scen, control, label)
        pay = evaluate_payoff(scen, control, paths, fixpoint=fix)
        w = fix.flow.weights[:, n]
        vals = phi.evaluate(paths.state(n))
        a2 = float(np.mean(w * vals * vals))
        b = float(np.mean(w * vals))
        wbar = float(np.mean(w))
        direct = a2 - b * b
        # identity gap J - direct = b^2 (1 - wbar); delta-method stderr
        infl_gap = -b * b * (w - wbar) + 2.0 * b * (1.0 - wbar) * (w * vals - b)
        gap = pay.value - direct
        gap_se = mean_stderr(infl_gap)[1]
        gap_ok = bool(abs(gap) <= 3.0 * gap_se + 1e-12)
        # J - horizon with the full linearization of a2 - b^2 wbar
        infl_j = (w * vals * vals - a2) - 2.0 * b * wbar * (w * vals - b) \
            - b * b * (w - wbar)
        j_se = mean_stderr(infl_j)[1]
        flat_ok = bool(abs(pay.value - horizon) <= 3.0 * j_se + 1e-12)
        ok = gap_ok and flat_ok
        passed = passed and ok
        rows.append({"control": label, "payoff": pay.value, "direct": direct,
                     "gap": gap, "gap_stderr": gap_se, "gap_ok": gap_ok,
                     "flat_dev": pay.value - horizon, "flat_stderr": j_se,
                     "flat_ok": flat_ok})
    return CheckResult(8, check_variance.name, passed, {"rows": rows})


@_criterion(9, "game value, saddle slacks, and non-Isaacs abort")
def check_game(ctx: AcceptanceContext) -> CheckResult:
    details: dict = {}
    scen = ctx.scenarios["separated-game"]
    paths = ctx.paths_for(scen)
    report = solve_game(scen, paths, basis=ctx.basis, tol=ctx.tol)
    gap_zero = bool(report.isaacs.max_gap == 0.0)
    res_u = scen.actions.resolution
    res_v = scen.actions_v.resolution
    grid_term = scen.horizon * (res_u ** 2 + res_v ** 2) / 8.0
    value_dev = abs(report.value - scen.initial)
    value_ok = bool(value_dev <= 3.0 * report.value_stderr + grid_term)
    checks = verify_saddle(scen, paths, report)
    details["separated"] = {
        "isaacs_max_gap": report.isaacs.max_gap, "gap_zero": gap_zero,
        "value": report.value, "value_stderr": report.value_stderr,
        "grid_term": grid_term, "value_ok": value_ok,
        "saddle_slacks_ok": checks.passed,
        "u_deviations": len(checks.u_rows), "v_deviations": len(checks.v_rows),
        "converged": report.converged,
    }

    bil = ctx.scenarios["bilinear-game"]
    gap_report = isaacs_gap(bil)
    bil_gap_ok = bool(gap_report.max_gap == 2.0)
    from . import cli  # runtime import; the CLI layer imports this module
    with tempfile.TemporaryDirectory() as tmp:
        code = cli.main(["game", "--scenario", "bilinear-game", "--seed",
                         str(ctx.seed), "--particles", "200", "--steps", "10",
                         "--out", tmp])
    abort_ok = bool(code == 1)
    details["bilinear"] = {"max_gap": gap_report.max_gap, "gap_ok": bil_gap_ok,
                           "exit_code": code, "abort_ok": abort_ok}
    passed = (gap_zero and value_ok and checks.passed and report.converged
              and bil_gap_ok and abort_ok)
    return CheckResult(9, check_game.name, passed, details)


@_criterion(10, "deterministic reports: identical bytes for identical config")
def check_determinism(ctx: AcceptanceContext) -> CheckResult:
    from .report import canonical_json
    indices = (1, 2, 3, 5, 8)
    particles = min(ctx.particles, 1000)
    steps = min(ctx.steps, 25)
    docs = []
    for _ in range(2):
        sub = run_battery(seed=ctx.seed, particles=particles, steps=steps,
                          tol=ctx.tol, basis=ctx.basis, indices=indices)
        docs.append(canonical_json({"criteria": [c.to_dict() for c in sub]}).encode())
    identical = bool(docs[0] == docs[1])
    return CheckResult(10, check_determinism.name, identical,
                       {"indices": list(indices), "particles": particles,
                        "steps": steps, "bytes": len(docs[0]),
                        "identical": identical})


# ---------------------------------------------------------------------------
# battery driver


def run_battery(seed: int, particles: int, steps: int,
                tol: float = 1e-3, basis: BasisSpec | None = None,
                indices=None) -> list[CheckResult]:
    """Run the acceptance criteria in order, one CheckResult each, on one
    AcceptanceContext; indices selects a subset (default all)."""
    ctx = AcceptanceContext(seed=seed, particles=particles, steps=steps, tol=tol, basis=basis)
    if indices is None:
        indices = sorted(_CRITERIA)
    return [_CRITERIA[i](ctx) for i in indices]
