"""Whole-path forward pricing against the step-by-step recursion.

Densities, measure fixed points, payoffs and Hellinger integrands are
computed a block of particles at a time over all grid times.
The reference here is the plain recursion, one grid time per iteration, with
every action recomputed from its formula (the feedbacks by an uncached
minimization).  The block computation adds in the recursion's order, so every
comparison is exact, except the Hellinger integral: hellinger_pairs reads
it from a Gram product, which agrees to 1e-13 relative.  Each case runs with
the default block size and with blocks of a few particles, whose last block
is ragged.
"""

import numpy as np
import pytest

import mfcontrol.core as core_mod
from mfcontrol import (
    BasisSpec,
    BsdeFeedbackControl,
    Control,
    DriftEvaluator,
    MeasureFlow,
    PairFeedbackControl,
    SingularDiffusionError,
    builtin_config,
    constant_control,
    density_process,
    envelopes,
    evaluate_payoff,
    fixpoint_measure_flow,
    get_builtin,
    hellinger_bound,
    minimized_hamiltonian,
    parametric_control,
    parse_scenario,
    reference_flow,
    simulate_for_scenario,
    table_control,
    terminal_values,
    tv_pathspace,
)
from mfcontrol.girsanov import _players, control_actions
from reference import coefficient_solution, constant_drift

STEPS = 12
PARTICLES = 601
TINY_BLOCKS = 3 * (STEPS + 1)   # three particles per block over all grid times


def bounded_config(sigma_kind: str):
    """Mean-field drift clipped by bound_scale, a state-dependent sigma and a
    running cost that reads a state term and a statistic."""
    cfg = builtin_config("mean-field-mean-reversion")
    cfg["name"] = f"bounded-{sigma_kind}"
    cfg["drift"]["bound_scale"] = 0.7
    if sigma_kind == "affine_state":
        cfg["diffusion"] = {"kind": "affine_state", "base": 1.0, "slope": 0.2}
    else:
        cfg["diffusion"] = {"kind": "sup_modulated", "base": 0.8, "slope": 0.3}
    cfg["running_cost"] = {"quad": 1.0, "lin": 0.2, "stat": ["mean", 0.3],
                           "state": {"kind": "tanh", "coeff": 0.5, "scale": 1.5}}
    return parse_scenario(cfg)


SCENARIOS = {
    "linear-quadratic": lambda: get_builtin("linear-quadratic"),
    "mean-field": lambda: get_builtin("mean-field-mean-reversion"),
    "bounded-affine": lambda: bounded_config("affine_state"),
    "bounded-sup": lambda: bounded_config("sup_modulated"),
    "separated-game": lambda: get_builtin("separated-game"),
}


@pytest.fixture(params=["default-blocks", "tiny-blocks"])
def blocks(request, monkeypatch):
    if request.param == "tiny-blocks":
        monkeypatch.setattr(core_mod, "BLOCK_ENTRIES", TINY_BLOCKS)
    return request.param


@pytest.fixture(scope="module", params=list(SCENARIOS))
def setting(request):
    scenario = SCENARIOS[request.param]()
    paths = simulate_for_scenario(scenario, particles=PARTICLES, steps=STEPS, seed=31)
    twin = simulate_for_scenario(scenario, particles=PARTICLES, steps=STEPS, seed=32)
    return scenario, paths, twin


# ---------------------------------------------------------------------------
# reference: one grid time per iteration, actions from their formulas


def formula_actions(control: Control, paths, k):
    m = paths.particles
    if control.kind == "constant":
        return np.full(m, control.value)
    x0 = paths.values[:, k]
    if control.kind == "parametric":
        a, b, c = control.coeffs
        raw = a + b * x0 + c * paths.running_sup[:, k]
    else:
        vals = np.asarray(control.table_values, dtype=float)
        row = vals[min(k, vals.shape[0] - 1)]
        raw = row[np.searchsorted(control.table_edges, x0, side="right")]
    if control.box_lo is not None:
        raw = np.clip(raw, control.box_lo, control.box_hi)
    return raw


def uncached_feedback(control: BsdeFeedbackControl, paths, k):
    z = control.solution.z_at(paths, k)
    _, acts = minimized_hamiltonian(control.scenario, paths.grid.times[k], paths.state(k),
                                    paths.sup(k), control.stats_at(k), z)
    return acts


def uncached_pair(pair: PairFeedbackControl, paths, k):
    z = pair.solution.z_at(paths, k)
    env = envelopes(pair.scenario, paths.grid.times[k], paths.state(k), paths.sup(k),
                    pair.stats_at(k), z)
    return (pair.scenario.actions.array()[env.upper_u_index],
            pair.scenario.actions_v.array()[env.lower_v_index])


def solution(basis, seed):
    rng = np.random.default_rng(seed)
    return coefficient_solution(basis, rng.normal(scale=1.5, size=(STEPS, basis.width())))


def controls_for(scenario):
    """(label, control, reference) cases; reference(paths, k) returns the
    (particles,) action arrays of each player, each recomputed in full."""
    stats = {"mean": np.linspace(0.0, 0.3, STEPS + 1)}
    if scenario.kind == "game":
        gu, gv = scenario.actions, scenario.actions_v
        cu = constant_control(-0.4, gu)
        cv = constant_control(0.6, gv)
        pu = parametric_control(0.1, -0.8, 0.4, gu)
        tv = table_control([-0.5, 0.0, 0.5], [[-1.0, -0.2, 0.2, 1.0], [0.5, 0.0, -0.5, 0.3]], gv)
        pair = PairFeedbackControl(scenario, solution(BasisSpec(), 5), stats)
        _, pair_v = pair
        return [
            ("constants", (cu, cv),
             lambda p, k: (formula_actions(cu, p, k), formula_actions(cv, p, k))),
            ("parametric-table", (pu, tv),
             lambda p, k: (formula_actions(pu, p, k), formula_actions(tv, p, k))),
            ("pair-feedback", pair, lambda p, k: uncached_pair(pair, p, k)),
            ("u-deviation", (cu, pair_v),
             lambda p, k: (formula_actions(cu, p, k), uncached_pair(pair, p, k)[1])),
        ]
    grid = scenario.actions
    const = constant_control(0.4, grid)
    param = parametric_control(0.2, -0.9, 0.5, grid)
    table = table_control([-0.5, 0.0, 0.5],
                          [[-1.0, -0.3, 0.3, 1.0], [0.8, 0.1, -0.1, -0.8], [0.0, 0.5, 0.5, 0.0]],
                          grid)
    feedback = BsdeFeedbackControl(scenario, solution(BasisSpec(), 4), stats)
    return [
        ("constant", const, lambda p, k: (formula_actions(const, p, k),)),
        ("parametric", param, lambda p, k: (formula_actions(param, p, k),)),
        ("table", table, lambda p, k: (formula_actions(table, p, k),)),
        ("bsde-feedback", feedback, lambda p, k: (uncached_feedback(feedback, p, k),)),
    ]


def reference_drift(scenario, flow, reference):
    paths = flow.paths
    series = {name: flow.statistic_series(name) for name in scenario.drift.stat_names()}

    def drift_at(k):
        row = {name: s[k] for name, s in series.items()}
        acts = reference(paths, k)
        return scenario.drift.evaluate(paths.values[:, k], row, *acts)

    return drift_at


def reference_log_weights(paths, drift_at, sigma):
    dw = paths.increments
    m, n = dw.shape
    dt = paths.grid.dt
    log_w = np.zeros((m, n + 1))
    for k in range(n):
        f = drift_at(k)
        inv = 1.0 / sigma.scalar_values(paths.grid.times[k], paths.values[:, k], paths.sup(k))
        theta = inv * f
        if not np.all(np.isfinite(theta)):
            raise FloatingPointError(f"non-finite drift-to-noise ratio at t_index {k}")
        incr = theta * dw[:, k] - 0.5 * dt * (theta * theta)
        log_w[:, k + 1] = log_w[:, k] + incr
    return log_w


def reference_fixpoint(scenario, paths, reference, tol=1e-3, max_iter=50):
    stats = scenario.statistic_map
    flow = reference_flow(paths, stats)
    distances = []
    for _ in range(max_iter):
        log_w = reference_log_weights(paths, reference_drift(scenario, flow, reference),
                                      scenario.sigma)
        new_flow = MeasureFlow(paths, np.exp(log_w), stats)
        distances.append(tv_pathspace(flow, new_flow, paths.grid.steps).value)
        flow = new_flow
        if distances[-1] < tol:
            return flow, distances
    raise AssertionError("reference fixed point did not converge")


def reference_payoff(scenario, flow, reference):
    paths = flow.paths
    n = paths.grid.steps
    names = tuple(dict.fromkeys((*scenario.running_cost.stat_names(),
                                 *scenario.terminal_cost.stat_names())))
    series = {name: flow.statistic_series(name) for name in names}
    h_mat = np.empty((paths.particles, n + 1))
    for k in range(n + 1):
        row = {name: series[name][k] for name in names}
        acts = reference(paths, k)
        h_mat[:, k] = scenario.running_cost.evaluate(paths.values[:, k], row, *acts)
    running = np.trapezoid(flow.weights * h_mat, dx=paths.grid.dt, axis=1)
    return running + flow.weights[:, n] * terminal_values(scenario, paths, series)


# ---------------------------------------------------------------------------
# exact agreement


def test_density_matches_step_recursion(setting, blocks):
    scenario, paths, _ = setting
    # a reweighted flow, so the drift's statistic series vary along time
    start = fixpoint_measure_flow(scenario, controls_for(scenario)[0][1], paths).flow
    for label, control, reference in controls_for(scenario):
        weights = density_process(DriftEvaluator(scenario, start, control))
        expected = reference_log_weights(paths, reference_drift(scenario, start, reference),
                                         scenario.sigma)
        np.testing.assert_array_equal(weights, np.exp(expected), err_msg=label)


def test_fixpoint_and_payoff_match_step_recursion(setting, blocks):
    scenario, paths, _ = setting
    for label, control, reference in controls_for(scenario):
        res = evaluate_payoff(scenario, control, paths)
        flow, distances = reference_fixpoint(scenario, paths, reference)
        np.testing.assert_array_equal(res.flow.weights, flow.weights, err_msg=label)
        assert list(res.diagnostics.distances) == distances, label
        np.testing.assert_array_equal(res.per_particle,
                                      reference_payoff(scenario, flow, reference),
                                      err_msg=label)


def test_hellinger_integrand_matches_step_recursion(setting, blocks):
    scenario, paths, _ = setting
    flow = fixpoint_measure_flow(scenario, controls_for(scenario)[0][1], paths).flow
    (_, ca, ra), (_, cb, rb) = controls_for(scenario)[1:3]
    gamma = hellinger_bound(flow, DriftEvaluator(scenario, flow, ca),
                            DriftEvaluator(scenario, flow, cb))
    fa, fb = reference_drift(scenario, flow, ra), reference_drift(scenario, flow, rb)
    n = paths.grid.steps
    integrand = np.empty((paths.particles, n + 1))
    for k in range(n + 1):
        inv = 1.0 / scenario.sigma.scalar_values(paths.grid.times[k], paths.values[:, k],
                                                 paths.sup(k))
        integrand[:, k] = ((fa(k) - fb(k)) * inv) ** 2
    weighted = flow.weights[:, n] * np.trapezoid(integrand, dx=paths.grid.dt, axis=1) / 8.0
    # the Gram form sums the integrand in another order than the trapezoid
    assert gamma[0] == pytest.approx(max(float(np.mean(weighted)), 0.0), rel=1e-13, abs=0.0)
    assert gamma[2] == pytest.approx(float(np.std(weighted) / np.sqrt(paths.particles)),
                                     rel=1e-13, abs=1e-15)


# ---------------------------------------------------------------------------
# ensembles and returned arrays


def action_blocks(control, paths):
    return control_actions(control, paths, slice(None), slice(0, paths.grid.steps + 1))


def reference_blocks(reference, paths):
    steps = [reference(paths, k) for k in range(paths.grid.steps + 1)]
    return tuple(np.stack(side, axis=1) for side in zip(*steps))


def test_ensembles_a_b_a_never_serve_stale_arrays(setting, blocks):
    scenario, a, b = setting
    for label, control, reference in controls_for(scenario):
        expected = {id(p): (reference_blocks(reference, p),
                            reference_log_weights(
                                p, reference_drift(scenario, reference_flow(p, scenario.statistic_map),
                                                   reference), scenario.sigma))
                    for p in (a, b)}
        for paths in (a, b, a):
            acts, log_w = expected[id(paths)]
            for got, want in zip(action_blocks(control, paths), acts):
                np.testing.assert_array_equal(got, want, err_msg=label)
            flow = reference_flow(paths, scenario.statistic_map)
            weights = density_process(DriftEvaluator(scenario, flow, control))
            np.testing.assert_array_equal(weights, np.exp(log_w), err_msg=label)


def test_writing_into_returned_actions_changes_nothing(setting):
    scenario, paths, _ = setting
    n = paths.grid.steps
    for label, control, reference in controls_for(scenario):
        expected = reference_blocks(reference, paths)
        for arr in action_blocks(control, paths):
            arr[...] = 1e9
        for got, want in zip(action_blocks(control, paths), expected):
            np.testing.assert_array_equal(got, want, err_msg=label)
        for k in (0, n // 2, n):
            if hasattr(control, "actions_pair"):
                one_step = control.actions_pair(paths, k)
            else:
                one_step = tuple(c.actions(paths, k) for c in _players(control))
            for arr in one_step:
                arr[...] = -1e9
            for got, want in zip(action_blocks(control, paths), expected):
                np.testing.assert_array_equal(got, want, err_msg=label)


# ---------------------------------------------------------------------------
# failures name the first bad step


def bad_drift(paths, points, scenario=None):
    """Zero drift, on a held base, with an infinite value at (particle, step)
    points."""
    base = np.zeros(paths.values.shape)
    for i, j in points:
        base[i, j] = np.inf
    return constant_drift(paths, 0.0, scenario, base)


def test_infinite_drift_names_the_first_bad_step(paths4k, blocks):
    # the later step sits in an earlier block of particles
    drift = bad_drift(paths4k, [(2, 9), (paths4k.particles - 1, 5)])
    with pytest.raises(FloatingPointError, match=r"at t_index 5$"):
        density_process(drift)


def singular_at(paths, particle, k):
    """The linear-quadratic scenario with an affine sigma that vanishes
    exactly at one (particle, step) point."""
    cfg = builtin_config("linear-quadratic")
    cfg["diffusion"] = {"kind": "affine_state", "base": -float(paths.values[particle, k]),
                        "slope": 1.0}
    return parse_scenario(cfg)


def test_singular_affine_sigma_raises(paths4k, blocks):
    k = 7
    scenario = singular_at(paths4k, paths4k.particles - 3, k)
    with pytest.raises(SingularDiffusionError,
                       match=rf"at t={paths4k.grid.times[k]:g} for 1 particle\(s\)"):
        density_process(constant_drift(paths4k, 0.3, scenario))


def test_earlier_infinite_drift_wins_over_later_singular_sigma(paths4k, blocks):
    scenario = singular_at(paths4k, 0, 8)
    drift = bad_drift(paths4k, [(paths4k.particles - 1, 3)], scenario)
    with pytest.raises(FloatingPointError, match=r"at t_index 3$"):
        density_process(drift)
