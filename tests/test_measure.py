"""Measure flows and distances.

Closed-form oracle used throughout: under the reference law x_T ~ N(xi, T),
and a constant drift u reweights it to N(xi + uT, T).  In the factor-2
convention the total variation between two Gaussians with common variance
T and means uT apart is

    TV = 2 erf(|u| sqrt(T) / (2 sqrt(2))),

and because the constant-drift density L_T = exp(u W_T - u^2 T / 2) is a
function of W_T alone (the discrete Doleans sum telescopes to exactly that),
the path-space TV coincides with the terminal-marginal TV, so one number
checks both estimators.  The Hellinger exponent for two constant drifts u, v
with sigma = 1 is Gamma = (T / 8) (u - v)^2, deterministic along every path.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfcontrol import (
    BrownianEnsemble,
    DiffusionSpec,
    EnsembleMismatchError,
    MeasureFlow,
    StatisticSpec,
    DriftEvaluator,
    builtin_config,
    constant_control,
    density_process,
    fixpoint_measure_flow,
    get_builtin,
    hellinger_bound,
    hellinger_pairs,
    make_time_grid,
    mean_stderr,
    parametric_control,
    parse_scenario,
    reference_flow,
    simulate_for_scenario,
    simulate_reference,
    tv_marginal,
    tv_pathspace,
    weighted_statistic,
)
from mfcontrol.core import particle_blocks
from reference import constant_drift, hellinger_pairwise

STATS = {"mean": StatisticSpec("identity")}


def gaussian_tv(u: float, horizon: float) -> float:
    return 2.0 * math.erf(abs(u) * math.sqrt(horizon) / (2.0 * math.sqrt(2.0)))


def two_particle_ensemble():
    # two one-step paths: 0 -> 0 and 0 -> 2
    grid = make_time_grid(1.0, 1)
    inc = np.array([[0.0], [2.0]])
    brownian = BrownianEnsemble(grid=grid, increments=inc)
    sigma = DiffusionSpec(kind="constant", base=1.0)
    return simulate_reference(brownian, sigma, 0.0)


def drifted_flow(paths, u: float):
    """Constant-drift reweighting of the reference ensemble."""
    return MeasureFlow(paths, density_process(constant_drift(paths, u)), STATS)


# ---------------------------------------------------------------------------
# flows and statistics


def test_weighted_statistic_by_hand():
    paths = two_particle_ensemble()
    weights = np.array([[1.0, 0.5], [1.0, 1.5]])
    flow = MeasureFlow(paths, weights, STATS)
    est, se = weighted_statistic(flow, 1, "mean")
    assert est == 1.5
    assert se == pytest.approx(np.std([0.0, 3.0]) / np.sqrt(2))


def test_mean_stderr_by_hand():
    # the sample mean and the population sd over sqrt(count)
    assert mean_stderr(np.array([1.0, 3.0])) == (2.0, 1.0 / np.sqrt(2.0))
    est, se = mean_stderr(np.array([1.0, 2.0, 3.0, 4.0]))
    assert est == 2.5
    assert se == pytest.approx(np.sqrt(1.25) / 2.0, rel=1e-15)


def test_statistic_series_matches_pointwise(paths4k):
    flow = reference_flow(paths4k, STATS)
    series = flow.statistic_series("mean")
    assert series.shape == (paths4k.grid.steps + 1,)
    for k in (0, 7, paths4k.grid.steps):
        est, _ = weighted_statistic(flow, k, "mean")
        assert series[k] == pytest.approx(est)
    assert series[0] == pytest.approx(0.0)


def test_unregistered_statistic_raises(paths4k):
    flow = reference_flow(paths4k, STATS)
    with pytest.raises(KeyError):
        weighted_statistic(flow, 0, "skew")
    with pytest.raises(KeyError):
        flow.statistic_series("skew")


KINDS = {"identity": StatisticSpec("identity"), "square": StatisticSpec("square"),
         "tanh": StatisticSpec("tanh", scale=0.7),
         "indicator_bin": StatisticSpec("indicator_bin", lo=-0.5, hi=0.5)}


@pytest.mark.parametrize("particles", [1, 7, 643, 10_000])
def test_blocked_statistic_series_keeps_the_mean_bits(particles):
    # 50 steps take 642 particles a block, so 643 and 10^4 end on a ragged block
    paths = simulate_for_scenario(get_builtin("linear-quadratic"), particles=particles,
                                  steps=50, seed=13)
    blocks = particle_blocks(particles, 51)
    assert particles < 643 or blocks[-1].stop - blocks[-1].start < blocks[0].stop
    states = paths.values.reshape(-1, 1)
    drifted = np.random.default_rng(3).lognormal(sigma=2.0, size=(particles, 51))
    for flow in (MeasureFlow(paths, drifted, KINDS), reference_flow(paths, KINDS)):
        for name, spec in KINDS.items():
            psi = spec.evaluate(states).reshape(particles, -1)
            want = np.mean(flow.weights * psi, axis=0)
            assert flow.statistic_series(name).tobytes() == want.tobytes(), name


def test_reference_flow_is_one_read_only_number(paths4k):
    flow = reference_flow(paths4k, STATS)
    assert flow.weights.shape == (paths4k.particles, paths4k.grid.steps + 1)
    assert flow.weights.strides == (0, 0)
    assert not flow.weights.flags.writeable
    assert np.all(flow.weights == 1.0)


def test_measure_flow_rejects_bad_weights(paths4k):
    n = paths4k.grid.steps
    with pytest.raises(ValueError):
        MeasureFlow(paths4k, np.ones((paths4k.particles, n)), STATS)
    bad = np.ones((paths4k.particles, n + 1))
    bad[0, 0] = -0.1
    with pytest.raises(ValueError):
        MeasureFlow(paths4k, bad, STATS)
    for value in (np.inf, -np.inf, np.nan):
        bad[0, 0] = value
        with pytest.raises(ValueError, match="finite and nonnegative"):
            MeasureFlow(paths4k, bad, STATS)


# ---------------------------------------------------------------------------
# path-space total variation


def test_tv_pathspace_identical_flows_is_zero(paths4k):
    flow = reference_flow(paths4k, STATS)
    est = tv_pathspace(flow, flow, paths4k.grid.steps)
    assert est.value == 0.0
    assert est.stderr == 0.0


def test_tv_pathspace_by_hand():
    paths = two_particle_ensemble()
    a = MeasureFlow(paths, np.array([[1.0, 0.5], [1.0, 1.5]]))
    b = MeasureFlow(paths, np.array([[1.0, 1.5], [1.0, 0.5]]))
    est = tv_pathspace(a, b, 1)
    assert est.value == 1.0
    assert est.kind == "pathspace"


def test_tv_pathspace_demands_common_ensemble(paths4k, paths1k):
    a = reference_flow(paths4k)
    b = reference_flow(paths1k)
    with pytest.raises(EnsembleMismatchError):
        tv_pathspace(a, b, 0)


def test_tv_pathspace_matches_gaussian_oracle(paths4k, lq):
    ref = reference_flow(paths4k, STATS)
    for u in (0.5, 1.0, 2.0):
        flow = drifted_flow(paths4k, u)
        est = tv_pathspace(ref, flow, paths4k.grid.steps)
        oracle = gaussian_tv(u, lq.horizon)
        assert abs(est.value - oracle) <= 3.0 * est.stderr, (u, est.value, oracle)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_tv_pathspace_is_a_metric(seed):
    paths = two_particle_ensemble()
    rng = np.random.default_rng(seed)
    flows = [MeasureFlow(paths, rng.lognormal(size=(2, 2))) for _ in range(3)]
    a, b, c = flows
    ab = tv_pathspace(a, b, 1).value
    ba = tv_pathspace(b, a, 1).value
    ac = tv_pathspace(a, c, 1).value
    cb = tv_pathspace(c, b, 1).value
    assert 0.0 <= ab <= 2.0
    assert ab == ba
    assert ab <= ac + cb + 1e-12


# ---------------------------------------------------------------------------
# marginal total variation


def test_tv_marginal_identical_flows_is_zero(paths4k):
    flow = reference_flow(paths4k, STATS)
    est = tv_marginal(flow, flow, paths4k.grid.steps)
    assert est.value == 0.0
    assert est.bin_width is not None


def test_tv_marginal_disjoint_supports(lq):
    near = simulate_for_scenario(lq, particles=500, steps=4, seed=21)
    cfg = builtin_config("linear-quadratic")
    cfg["initial"] = 100.0
    far_scenario = parse_scenario(cfg)
    far = simulate_for_scenario(far_scenario, particles=500, steps=4, seed=22)
    est = tv_marginal(reference_flow(near), reference_flow(far), 4)
    assert est.value == pytest.approx(2.0, abs=1e-12)


def test_tv_marginal_matches_gaussian_oracle(paths4k, lq):
    ref = reference_flow(paths4k, STATS)
    flow = drifted_flow(paths4k, 1.0)
    est = tv_marginal(ref, flow, paths4k.grid.steps)
    oracle = gaussian_tv(1.0, lq.horizon)
    assert abs(est.value - oracle) <= 3.0 * est.stderr + est.bin_width


def test_tv_marginal_dominated_by_pathspace(paths4k):
    # coarsening by bins can only lower TV; on a common ensemble this holds
    # pathwise, not merely in expectation
    ref = reference_flow(paths4k, STATS)
    flow = drifted_flow(paths4k, 1.0)
    for k in (1, paths4k.grid.steps // 2, paths4k.grid.steps):
        marg = tv_marginal(ref, flow, k)
        path = tv_pathspace(ref, flow, k)
        assert marg.value <= path.value + 1e-12


# ---------------------------------------------------------------------------
# Hellinger bound


def test_hellinger_equal_drifts_vanish(paths4k):
    flow = reference_flow(paths4k, STATS)
    drift = constant_drift(paths4k, 0.0)
    gam, bound, se = hellinger_bound(flow, drift, drift)
    assert gam == 0.0 and bound == 0.0 and se == 0.0


def test_hellinger_constant_drifts_reference_weights(paths4k):
    # with weights one the weighted trapezoid of a deterministic integrand is
    # exact: Gamma = T (u - v)^2 / 8
    flow = reference_flow(paths4k, STATS)
    u, v = 1.0, -0.5
    fa, fb = constant_drift(paths4k, u), constant_drift(paths4k, v)
    gam, bound, se = hellinger_bound(flow, fa, fb)
    analytic = paths4k.grid.horizon / 8.0 * (u - v) ** 2
    assert gam == pytest.approx(analytic, rel=1e-12)
    assert bound == pytest.approx(8.0 * math.sqrt(analytic), rel=1e-12)
    assert se == pytest.approx(0.0, abs=1e-12)


def test_hellinger_constant_drifts_controlled_weights(paths4k):
    # under the controlled flow's weights the same deterministic Gamma is
    # recovered up to the Monte Carlo error of E[L_T] = 1
    u, v = 1.0, 0.0
    flow = drifted_flow(paths4k, u)
    fa, fb = constant_drift(paths4k, u), constant_drift(paths4k, v)
    gam, bound, se = hellinger_bound(flow, fa, fb)
    analytic = paths4k.grid.horizon / 8.0 * (u - v) ** 2
    assert abs(gam - analytic) <= 3.0 * se + 1e-12


def test_hellinger_dominates_tv(paths4k):
    ref = reference_flow(paths4k, STATS)
    u = 0.5
    flow = drifted_flow(paths4k, u)
    tv = tv_pathspace(ref, flow, paths4k.grid.steps)
    fa, fb = constant_drift(paths4k, 0.0), constant_drift(paths4k, u)
    _, bound, _ = hellinger_bound(ref, fa, fb)
    assert tv.value <= bound + 5.0 * tv.stderr


@pytest.mark.parametrize("side", ["drift_a", "drift_b"])
def test_hellinger_demands_drifts_on_the_flow_ensemble(paths4k, lq, side):
    # a drift evaluator reads its own ensemble's paths, which flow_a's weights
    # do not belong to, so it is refused even when the two shapes agree
    other = simulate_for_scenario(lq, particles=4000, steps=20, seed=12)
    flow = reference_flow(paths4k, STATS)
    right, wrong = constant_drift(paths4k, 0.5), constant_drift(other, 0.5)
    drifts = (wrong, right) if side == "drift_a" else (right, wrong)
    with pytest.raises(EnsembleMismatchError, match="flow_a's ensemble"):
        hellinger_bound(flow, *drifts)


def affine_sigma_mean_field():
    cfg = builtin_config("mean-field-mean-reversion")
    cfg["diffusion"] = {"kind": "affine_state", "base": 1.0, "slope": 0.2}
    return parse_scenario(cfg)


# (scenario, controls) whose drifts hellinger_pairs reads at once: constants;
# affine rules whose drift reads the flow's mean; the same under a sigma that
# moves with the state
HELLINGER_FAMILIES = {
    "linear-quadratic": lambda: (get_builtin("linear-quadratic"),
                                 [constant_control(u) for u in (-1.0, -0.9, 0.0, 0.35, 1.0)]),
    "mean-field": lambda: (get_builtin("mean-field-mean-reversion"),
                           [parametric_control(a, b, c) for a, b, c in
                            ((0.3, -0.5, 0.1), (-0.4, 0.2, 0.0), (0.0, 0.0, 0.0),
                             (0.8, -0.1, -0.2))]),
    "affine-sigma": lambda: (affine_sigma_mean_field(),
                             [parametric_control(a, b, c) for a, b, c in
                              ((0.3, -0.5, 0.1), (-0.4, 0.2, 0.0), (0.6, 0.3, -0.1))]),
}


@pytest.mark.parametrize("family", list(HELLINGER_FAMILIES))
def test_hellinger_pairs_agree_with_pairwise_reference(family):
    # the Gram form sums in another order than each pair's own trapezoid:
    # gamma and the bound agree to 1e-13 relative, the stderr to 1e-13
    # relative or 1e-15 absolute, and equal drifts give exactly 0
    scenario, controls = HELLINGER_FAMILIES[family]()
    paths = simulate_for_scenario(scenario, particles=1500, steps=20, seed=41)
    flows = [fixpoint_measure_flow(scenario, c, paths).flow for c in controls]
    drifts = [DriftEvaluator(scenario, f, c) for f, c in zip(flows, controls)]
    gamma, bound, stderr = hellinger_pairs(drifts, np.array([f.weights[:, -1] for f in flows]))
    pairs = list(itertools.combinations(range(len(drifts)), 2))
    assert len(gamma) == len(bound) == len(stderr) == len(pairs)
    for (a, b), *family_got in zip(pairs, gamma, bound, stderr):
        want = hellinger_pairwise(flows[a], drifts[a], drifts[b])
        for got in (family_got, hellinger_bound(flows[a], drifts[a], drifts[b])):
            assert got[0] == pytest.approx(want[0], rel=1e-13, abs=0.0)
            assert got[1] == pytest.approx(want[1], rel=1e-13, abs=0.0)
            assert got[2] == pytest.approx(want[2], rel=1e-13, abs=1e-15)
    for flow, drift, control in zip(flows, drifts, controls):
        twin = DriftEvaluator(scenario, flow, control)
        assert hellinger_bound(flow, drift, twin) == (0.0, 0.0, 0.0)


def test_hellinger_pairs_demand_one_ensemble(paths4k, lq):
    other = simulate_for_scenario(lq, particles=4000, steps=20, seed=12)
    drifts = [constant_drift(paths4k, 0.5), constant_drift(other, 0.5)]
    with pytest.raises(EnsembleMismatchError, match="one ensemble"):
        hellinger_pairs(drifts, np.ones((2, 4000)))
