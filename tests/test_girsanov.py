"""Density processes and the measure fixed point.

For a constant drift u with unit sigma the discrete Doleans sum telescopes
exactly: log L_T = u W_T - u^2 T / 2, with W_T the summed increments, so the
log of the weights can be compared against a hand computation to 1e-12.  The
martingale property E[L_t] = 1 and the reweighted mean E^u[x_T] = xi + uT
are then Monte Carlo facts with explicit standard errors.

Fixed-point iteration counts are structural: a drift that never reads the
flow moves the weights once (one productive update, then a sub-tolerance
verification pass), and a zero drift never moves them at all.  The
verification pass of a drift whose statistic series repeat is recorded, not
run; tests/reference.py's picard_every_application runs it, and the two
agree bit for bit.
"""

import tracemalloc

import numpy as np
import pytest

import mfcontrol.girsanov as girsanov_mod
from mfcontrol import (
    Control,
    DriftEvaluator,
    FixpointConvergenceError,
    MeasureFlow,
    builtin_config,
    constant_control,
    contraction_report,
    density_process,
    evaluate_payoff,
    fixpoint_measure_flow,
    get_builtin,
    mean_stderr,
    parametric_control,
    parse_scenario,
    simulate_for_scenario,
    weighted_statistic,
)
from mfcontrol.core import particle_blocks
from mfcontrol.girsanov import drift_base
from reference import constant_drift, picard_every_application


# ---------------------------------------------------------------------------
# density process


def test_zero_drift_gives_unit_weights(paths1k):
    weights = density_process(constant_drift(paths1k, 0.0))
    np.testing.assert_array_equal(weights, np.ones_like(weights))
    assert not weights.flags.writeable


def test_constant_drift_log_weight_closed_form(paths4k):
    # log L_T = u W_T - u^2 T / 2 exactly: the quadratic term is
    # -u^2/2 * dt summed over N steps and the linear term telescopes
    u = 0.7
    weights = density_process(constant_drift(paths4k, u))
    w_t = np.cumsum(paths4k.driver.increments, axis=1)
    times = paths4k.grid.times[1:]
    expected = u * w_t - 0.5 * u * u * times
    np.testing.assert_allclose(np.log(weights[:, 1:]), expected,
                               rtol=0, atol=1e-12)
    np.testing.assert_array_equal(weights[:, 0], np.ones(paths4k.particles))


def test_density_is_a_positive_martingale(paths4k):
    weights = density_process(constant_drift(paths4k, 1.0))
    assert np.all(weights > 0)
    mean, se = MeasureFlow(paths4k, weights).normalization()
    assert mean.shape == (paths4k.grid.steps + 1,)
    assert mean[0] == 1.0
    for k in range(paths4k.grid.steps + 1):
        assert abs(mean[k] - 1.0) <= 4.0 * se[k] + 1e-12, k


def test_density_moments_stable_across_seeds(lq):
    vals = []
    for seed in (3, 4):
        paths = simulate_for_scenario(lq, particles=10_000, steps=20, seed=seed)
        weights = density_process(constant_drift(paths, 1.0))
        vals.append(np.mean(weights[:, -1] ** 2))
    # E[L_T^2] = exp(u^2 T); two seeds agree within 20%
    assert abs(vals[0] - vals[1]) <= 0.2 * max(vals)
    assert vals[0] == pytest.approx(np.exp(1.0), rel=0.2)


def test_reweighted_mean_shifts_by_drift(paths4k):
    u = 0.5
    weights = density_process(constant_drift(paths4k, u))
    x_t = paths4k.values[:, -1]
    est, se = mean_stderr(weights[:, -1] * x_t)
    assert abs(est - u * paths4k.grid.horizon) <= 3.0 * se


def test_non_finite_drift_ratio_aborts(paths1k):
    bad = np.zeros(paths1k.values.shape)
    bad[0] = np.inf
    with pytest.raises(FloatingPointError):
        density_process(constant_drift(paths1k, 0.0, base=bad))


def test_collapsed_reweighting_aborts(paths1k):
    # theta^2 dt / 2 is about 1e306: every log weight is finite and every
    # horizon weight underflows to 0
    with pytest.raises(FloatingPointError, match="every horizon weight underflowed"):
        density_process(constant_drift(paths1k, 1e154))
    assert density_process(constant_drift(paths1k, 30.0))[:, -1].any()


# ---------------------------------------------------------------------------
# fixed point


def test_measure_independent_drift_converges_in_one_iteration(lq, paths4k):
    control = constant_control([1.0], lq.actions)
    result = fixpoint_measure_flow(lq, control, paths4k)
    diag = result.diagnostics
    assert diag.converged
    assert diag.iterations == 1
    assert diag.applications == 2
    assert diag.final_distance < diag.tol
    # the converged weights are the plain constant-drift reweighting
    direct = density_process(constant_drift(paths4k, 1.0))
    np.testing.assert_allclose(result.flow.weights, direct, rtol=1e-12)


def test_zero_drift_converges_in_zero_iterations(zero_drift, paths4k):
    control = constant_control([1.0], zero_drift.actions)
    result = fixpoint_measure_flow(zero_drift, control, paths4k)
    assert result.diagnostics.iterations == 0
    assert result.diagnostics.applications == 1
    np.testing.assert_array_equal(result.flow.weights,
                                  np.ones_like(result.flow.weights))


def test_mean_field_fixed_point_mean_ode(mean_field, paths4k):
    # at the fixed point the coupling -0.5 m + 0.5 m cancels, so the
    # controlled mean solves dm/dt = u from m_0 = 0
    u = 1.0
    control = constant_control([u], mean_field.actions)
    result = fixpoint_measure_flow(mean_field, control, paths4k)
    assert result.diagnostics.converged
    assert result.diagnostics.iterations >= 1
    series = result.flow.statistic_series("mean")
    times = paths4k.grid.times
    for k in (0, paths4k.grid.steps // 2, paths4k.grid.steps):
        est, se = weighted_statistic(result.flow, k, "mean")
        assert abs(est - u * times[k]) <= 3.0 * se + 1e-12, k
    assert series.shape == times.shape


def test_fixed_point_is_self_consistent(mean_field, paths4k):
    control = constant_control([0.5], mean_field.actions)
    result = fixpoint_measure_flow(mean_field, control, paths4k)
    # one more application of the Picard map must not move the weights
    drift_at = DriftEvaluator(mean_field, result.flow, control)
    weights = density_process(drift_at)
    moved = np.mean(np.abs(weights[:, -1] - result.flow.weights[:, -1]))
    assert moved < result.diagnostics.tol


def test_fixed_point_holds_one_weight_matrix(mean_field):
    # a reweighted law is its weights: the result keeps the flow's
    # (particles, steps + 1) matrix and no second copy in log space
    paths = simulate_for_scenario(mean_field, particles=2000, steps=50, seed=11)
    control = constant_control([0.5], mean_field.actions)
    fixpoint_measure_flow(mean_field, control, paths)
    tracemalloc.start()
    try:
        result = fixpoint_measure_flow(mean_field, control, paths)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    matrix = paths.particles * (paths.grid.steps + 1) * 8
    assert result.diagnostics.iterations >= 1
    assert held < 1.5 * matrix, held / matrix


def test_mean_field_payoff_peaks_near_two_weight_matrices(mean_field):
    # the fixed point holds the statistic-free drift and the newest weights,
    # never two flows at once, and the statistic series form no product the
    # size of the weights
    paths = simulate_for_scenario(mean_field, particles=10_000, steps=50, seed=11)
    control = parametric_control(0.2, -0.3, 0.1, mean_field.actions)
    evaluate_payoff(mean_field, control, paths)
    tracemalloc.start()
    try:
        payoff = evaluate_payoff(mean_field, control, paths)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    matrix = paths.particles * (paths.grid.steps + 1) * 8
    assert payoff.diagnostics.iterations >= 2
    assert peak <= 2.3 * matrix, peak / matrix


def test_unattainable_tolerance_raises_with_diagnostics(mean_field, paths1k, monkeypatch):
    control = constant_control([1.0], mean_field.actions)
    monkeypatch.setattr(girsanov_mod, "_PICARD_MAX_ITER", 3)
    with pytest.raises(FixpointConvergenceError) as err:
        fixpoint_measure_flow(mean_field, control, paths1k, tol=1e-15)
    diag = err.value.diagnostics
    assert diag.applications == 3
    assert not diag.converged
    assert len(diag.distances) == len(diag.stderrs) == 3


def test_fixpoint_rejects_bad_parameters(lq, paths1k):
    control = constant_control([1.0], lq.actions)
    with pytest.raises(ValueError):
        fixpoint_measure_flow(lq, control, paths1k, tol=0.0)


def test_fixpoint_determinism(mean_field):
    runs = []
    for _ in range(2):
        paths = simulate_for_scenario(mean_field, particles=1000, steps=10, seed=9)
        control = constant_control([1.0], mean_field.actions)
        result = fixpoint_measure_flow(mean_field, control, paths)
        runs.append(result.flow.weights)
    np.testing.assert_array_equal(runs[0], runs[1])


def density_calls(monkeypatch):
    calls = []
    original = girsanov_mod.density_process

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(girsanov_mod, "density_process", counted)
    return calls


def assert_same_fixpoint(result, reference):
    got, want = result.diagnostics, reference.diagnostics
    # tobytes tells 0.0 from -0.0
    assert np.array(got.distances).tobytes() == np.array(want.distances).tobytes()
    assert np.array(got.stderrs).tobytes() == np.array(want.stderrs).tobytes()
    assert got.to_dict() == want.to_dict()
    assert result.flow.weights.tobytes() == reference.flow.weights.tobytes()


def test_repeated_input_skips_the_verification_application(lq, paths4k, monkeypatch):
    control = constant_control(0.5, lq.actions)
    reference = picard_every_application(lq, control, paths4k)
    calls = density_calls(monkeypatch)
    result = fixpoint_measure_flow(lq, control, paths4k)
    assert len(calls) == 1
    assert reference.diagnostics.applications == 2
    assert result.diagnostics.distances[-1] == 0.0
    assert_same_fixpoint(result, reference)


@pytest.mark.parametrize("name", ["zero-drift", "linear-quadratic", "variance",
                                  "separated-game", "mean-field-mean-reversion"])
def test_fixpoint_equals_the_every_application_loop(name, paths1k, monkeypatch):
    scenario = get_builtin(name)
    controls = tuple(constant_control(1.0, grid) for grid in scenario.grids)
    control = controls if scenario.kind == "game" else controls[0]
    reference = picard_every_application(scenario, control, paths1k)
    calls = density_calls(monkeypatch)
    result = fixpoint_measure_flow(scenario, control, paths1k)
    # the diagnostics carry criterion 3's iteration counts
    assert_same_fixpoint(result, reference)
    # a measure-dependent drift applies the map as often as before, any
    # other drift once
    want = reference.diagnostics.applications if scenario.drift.stat_names() else 1
    assert len(calls) == want


def test_one_allowed_application_still_fails_with_its_distance(lq, paths1k, monkeypatch):
    control = constant_control(0.5, lq.actions)
    calls = density_calls(monkeypatch)
    monkeypatch.setattr(girsanov_mod, "_PICARD_MAX_ITER", 1)
    with pytest.raises(FixpointConvergenceError) as err:
        fixpoint_measure_flow(lq, control, paths1k)
    diag = err.value.diagnostics
    assert len(calls) == 1
    assert len(diag.distances) == len(diag.stderrs) == 1
    assert diag.distances[0] >= diag.tol
    assert not diag.converged


# ---------------------------------------------------------------------------
# the drift split: the statistic-free part once per fixed point


def drift_scenario(name):
    """Drifts that exercise every term of DriftSpec: statistic coefficients
    zero and nonzero, two statistics, bound_scale and a game's control_v."""
    if name == "game":
        cfg = builtin_config("separated-game")
        cfg["drift"] = {"state": -0.3, "stats": {"mean": 0.4}, "control_u": 1.0,
                        "control_v": 0.7, "const": -0.1}
        return parse_scenario(cfg)
    cfg = builtin_config("mean-field-mean-reversion")
    cfg["statistics"]["second"] = {"kind": "square"}
    cfg["drift"] = {"state": -0.5, "stats": {"mean": 0.5}, "control": 1.0, "const": 0.2}
    if name == "zero-coefficient":
        cfg["drift"]["stats"] = {"mean": 0.0}
    elif name == "two-statistics":
        cfg["drift"]["stats"] = {"mean": 0.5, "second": -0.3}
    elif name == "bound-scale":
        cfg["drift"]["bound_scale"] = 0.7
    return parse_scenario(cfg)


DRIFT_CASES = ["zero-coefficient", "nonzero-coefficient", "two-statistics", "bound-scale",
               "game"]


def drift_control(scenario):
    if scenario.kind == "game":
        gu, gv = scenario.grids
        return (parametric_control(0.2, -0.3, 0.1, gu), constant_control(-0.5, gv))
    return parametric_control(0.2, -0.3, 0.1, scenario.actions)


@pytest.mark.parametrize("name", DRIFT_CASES)
def test_drift_is_its_base_plus_the_statistic_terms(name):
    drift = drift_scenario(name).drift
    rng = np.random.default_rng(8)
    x0, u, v = rng.normal(size=(3, 40, 7))
    v = v if name == "game" else None
    row = {stat: rng.normal(size=7) for stat in drift.stat_names()}
    # the formula before the split, in its order of operations
    want = drift.state * x0 + drift.control * u
    if v is not None:
        want = want + drift.control_v * v
    want = want + drift.const
    for stat, coeff in drift.stats:
        if coeff != 0.0:
            want = want + coeff * row[stat]
    if drift.bound_scale is not None:
        want = drift.bound_scale * np.tanh(want / drift.bound_scale)
    split = drift.with_stats(drift.base(x0, u, v), row)
    assert drift.evaluate(x0, row, u, v).tobytes() == split.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", DRIFT_CASES)
def test_evaluator_on_a_held_base_equals_one_without(name):
    scenario = drift_scenario(name)
    paths = simulate_for_scenario(scenario, particles=300, steps=12, seed=3)
    control = drift_control(scenario)
    flow = fixpoint_measure_flow(scenario, control, paths).flow
    held = DriftEvaluator(scenario, flow, control, drift_base(scenario, control, paths))
    fresh = DriftEvaluator(scenario, flow, control)
    for rows in (slice(0, 300), slice(7, 31)):
        for steps in (slice(0, 13), slice(4, 5)):
            assert held.over(rows, steps).tobytes() == fresh.over(rows, steps).tobytes()
    assert density_process(held).tobytes() == density_process(fresh).tobytes()


def test_fixed_point_reads_actions_once_per_block(mean_field, monkeypatch):
    paths = simulate_for_scenario(mean_field, particles=2000, steps=20, seed=4)
    control = parametric_control(0.2, -0.3, 0.1, mean_field.actions)
    reads = []
    original = Control.actions_over

    def counted(self, paths, rows, steps):
        reads.append((rows, steps))
        return original(self, paths, rows, steps)

    monkeypatch.setattr(Control, "actions_over", counted)
    result = fixpoint_measure_flow(mean_field, control, paths)
    blocks = particle_blocks(paths.particles, paths.grid.steps + 1)
    assert result.diagnostics.applications >= 3
    assert len(blocks) >= 2
    assert reads == [(rows, slice(0, paths.grid.steps + 1)) for rows in blocks]


# ---------------------------------------------------------------------------
# contraction diagnostics


def test_contraction_report_single_productive_row(lq, paths4k):
    control = constant_control([1.0], lq.actions)
    diag = fixpoint_measure_flow(lq, control, paths4k).diagnostics
    report = contraction_report(diag)
    assert len(report.rows) == 1
    it, dist, se, ratio = report.rows[0]
    assert it == 1
    assert dist >= diag.tol
    assert ratio is None  # single retained row, no successive ratio
    assert report.fit_rate is None
    assert report.flagged == ()


def test_contraction_report_needs_two_applications():
    from mfcontrol import FixpointDiagnostics

    diag = FixpointDiagnostics(distances=(0.5,), stderrs=(0.01,), tol=1e-3,
                               converged=False)
    with pytest.raises(ValueError):
        contraction_report(diag)


def test_contraction_ratios_below_one_for_mean_field(mean_field, paths4k):
    # the Picard map is a contraction here; observed ratios stay below one
    # once distances are clear of their Monte Carlo noise
    control = constant_control([1.0], mean_field.actions)
    diag = fixpoint_measure_flow(mean_field, control, paths4k,
                                 tol=1e-4).diagnostics
    report = contraction_report(diag)
    assert report.flagged == ()
    assert len(report.rows) >= 2
    if report.fit_rate is not None:
        assert report.fit_rate < 1.0


def test_contraction_consistent_across_seeds(mean_field):
    rates = []
    for seed in (17, 18):
        paths = simulate_for_scenario(mean_field, particles=4000, steps=20,
                                      seed=seed)
        control = constant_control([1.0], mean_field.actions)
        diag = fixpoint_measure_flow(mean_field, control, paths,
                                     tol=1e-4).diagnostics
        report = contraction_report(diag)
        if report.fit_rate is not None:
            rates.append(report.fit_rate)
    if len(rates) == 2:
        assert abs(rates[0] - rates[1]) <= 0.3
