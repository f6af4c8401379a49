"""The forward pass's working memory.

density_process, MeasureFlow.statistic_series and evaluate_payoff form each
block of particles in scratch arrays made once per call; tests/reference.py
keeps the same formulas with every block's temporaries fresh, and the two
agree bit for bit on every sigma kind and on a bound_scale drift, over a
last block shorter than the others.  A fixed point takes its drift-base
buffer from a free list kept per ensemble and gives it back when it returns,
so a family's members reuse one buffer per fixed point in flight.
"""

import gc
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

import mfcontrol.core as core_mod
import mfcontrol.girsanov as girsanov_mod
from mfcontrol import (
    DriftEvaluator,
    FixpointConvergenceError,
    MeasureFlow,
    builtin_config,
    constant_control,
    density_process,
    evaluate_payoff,
    fixpoint_measure_flow,
    parametric_control,
    parse_scenario,
    simulate_for_scenario,
)
from mfcontrol.core import member_map, particle_blocks
from mfcontrol.girsanov import drift_base
from reference import fresh_density, fresh_payoff, fresh_statistic_series

KERNEL_CASES = ["constant-sigma", "affine-state-sigma", "sup-modulated-sigma",
                "bound-scale-drift"]
# 13 grid times give blocks of 2520 particles, so 3000 end in a shorter block
PARTICLES, STEPS = 3000, 12


def kernel_scenario(case):
    """The mean-field scenario with a second statistic in its drift and its
    running cost, under the sigma or drift of the case."""
    cfg = builtin_config("mean-field-mean-reversion")
    cfg["statistics"]["second"] = {"kind": "square"}
    cfg["drift"]["stats"] = {"mean": 0.5, "second": -0.2}
    cfg["running_cost"]["stat"] = ["second", 0.3]
    if case == "affine-state-sigma":
        cfg["diffusion"] = {"kind": "affine_state", "base": 1.0, "slope": 0.1}
    elif case == "sup-modulated-sigma":
        cfg["diffusion"] = {"kind": "sup_modulated", "base": 0.8, "slope": 0.3}
    elif case == "bound-scale-drift":
        cfg["drift"]["bound_scale"] = 0.6
    return parse_scenario(cfg)


@pytest.mark.parametrize("case", KERNEL_CASES)
def test_forward_kernels_keep_the_fresh_formulas_bits(case):
    scenario = kernel_scenario(case)
    paths = simulate_for_scenario(scenario, particles=PARTICLES, steps=STEPS, seed=5)
    assert len({r.stop - r.start for r in particle_blocks(PARTICLES, STEPS + 1)}) == 2
    control = parametric_control(0.2, -0.3, 0.1, scenario.actions)
    fix = fixpoint_measure_flow(scenario, control, paths)
    flow = fix.flow
    base = drift_base(scenario, control, paths, np.empty(paths.values.shape))
    held = DriftEvaluator(scenario, flow, control, base)
    for drift in (held, DriftEvaluator(scenario, flow, control)):
        assert density_process(drift).tobytes() == fresh_density(drift).tobytes()
    for name in scenario.statistic_map:
        fresh = MeasureFlow(paths, flow.weights, scenario.statistic_map)
        assert fresh.statistic_series(name).tobytes() == \
            fresh_statistic_series(flow, name).tobytes()
    payoff = evaluate_payoff(scenario, control, paths, fixpoint=fix)
    assert payoff.per_particle.tobytes() == \
        fresh_payoff(scenario, control, paths, flow).tobytes()


@pytest.mark.parametrize("case", KERNEL_CASES)
def test_the_first_non_finite_step_still_raises(case):
    scenario = kernel_scenario(case)
    paths = simulate_for_scenario(scenario, particles=PARTICLES, steps=STEPS, seed=5)
    bad = np.zeros(paths.values.shape)
    bad[2900, 7] = np.nan    # the last block, at the first bad step
    bad[10, 9] = np.inf      # the first block, later (bound_scale clips it)
    drift = DriftEvaluator(scenario, MeasureFlow(paths, np.ones(bad.shape),
                                                 scenario.statistic_map),
                           constant_control(0.0), bad)
    with pytest.raises(FloatingPointError,
                       match=r"^non-finite drift-to-noise ratio at t_index 7$"):
        density_process(drift)


# ---------------------------------------------------------------------------
# the drift-base free list


def free_buffers(paths):
    return list(girsanov_mod._BASE_BUFFERS.get(paths, ()))


def test_a_second_fixed_point_reuses_the_drift_base(mean_field):
    paths = simulate_for_scenario(mean_field, particles=4000, steps=20, seed=9)
    matrix = paths.values.nbytes
    controls = [parametric_control(0.2, -0.4, 0.1, mean_field.actions),
                parametric_control(-0.3, 0.2, 0.0, mean_field.actions)]
    rises = []
    tracemalloc.start()
    try:
        for control in controls:
            gc.collect()
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            fixpoint_measure_flow(mean_field, control, paths)
            rises.append(tracemalloc.get_traced_memory()[1] - start)
    finally:
        tracemalloc.stop()
    assert len(free_buffers(paths)) == 1
    assert rises[0] - rises[1] == pytest.approx(matrix, rel=0.05)


def test_two_workers_leave_at_most_two_buffers(mean_field, monkeypatch):
    monkeypatch.setattr(core_mod, "available_cores", lambda: 2)
    paths = simulate_for_scenario(mean_field, particles=2000, steps=16, seed=2)
    controls = [parametric_control(a, -0.3, 0.1, mean_field.actions)
                for a in np.linspace(-0.5, 0.5, 8)]
    values = member_map(lambda c: evaluate_payoff(mean_field, c, paths).value, controls)
    assert values == [evaluate_payoff(mean_field, c, paths).value for c in controls]
    assert 1 <= len(free_buffers(paths)) <= 2


def test_more_workers_than_cores_never_share_a_buffer(mean_field, monkeypatch):
    # two fixed points writing one buffer at once would price with each
    # other's drift base; a short switch interval interleaves the takes
    monkeypatch.setattr(core_mod, "available_cores", lambda: 4)
    monkeypatch.setattr(core_mod, "MEMBER_WORKERS", 4)
    paths = simulate_for_scenario(mean_field, particles=600, steps=8, seed=6)
    controls = [parametric_control(a, 0.2, -0.1, mean_field.actions)
                for a in np.linspace(-0.8, 0.8, 24)]
    serial = [evaluate_payoff(mean_field, c, paths).value for c in controls]
    girsanov_mod._BASE_BUFFERS.pop(paths)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        values = member_map(lambda c: evaluate_payoff(mean_field, c, paths).value, controls)
    finally:
        sys.setswitchinterval(interval)
    assert values == serial
    buffers = free_buffers(paths)
    assert 1 <= len(buffers) <= 4
    assert len({id(b) for b in buffers}) == len(buffers)


def test_the_free_list_dies_with_its_ensemble(mean_field):
    paths = simulate_for_scenario(mean_field, particles=1000, steps=10, seed=3)
    result = fixpoint_measure_flow(mean_field, constant_control(0.5), paths)
    (buffer,) = free_buffers(paths)
    assert not np.shares_memory(buffer, result.flow.weights)
    dead = weakref.ref(buffer)
    del buffer, paths, result
    gc.collect()
    assert dead() is None


def raised_buffer(err):
    """The drift-base buffer of the fixed point whose traceback err holds."""
    tb = err.value.__traceback__
    while tb is not None:
        if tb.tb_frame.f_code is fixpoint_measure_flow.__code__:
            return tb.tb_frame.f_locals["buffer"]
        tb = tb.tb_next
    raise AssertionError("no fixed point frame in the traceback")


@pytest.mark.parametrize("failure", ["convergence", "floating-point"])
def test_a_raising_fixed_point_keeps_its_buffer_off_the_list(lq, mean_field, failure,
                                                            monkeypatch):
    paths = simulate_for_scenario(lq, particles=1000, steps=10, seed=4)
    fixpoint_measure_flow(lq, constant_control(0.5), paths)
    (pooled,) = free_buffers(paths)
    if failure == "convergence":
        monkeypatch.setattr(girsanov_mod, "_PICARD_MAX_ITER", 1)
        scenario, control, error = mean_field, constant_control(0.5), FixpointConvergenceError
    else:
        # theta^2 dt / 2 is about 1e306: every horizon weight underflows
        scenario, control, error = lq, constant_control(1e154), FloatingPointError
    with pytest.raises(error) as err:
        fixpoint_measure_flow(scenario, control, paths)
    monkeypatch.undo()
    # the raising fixed point took the pooled buffer, and its traceback
    # still holds the drift base written into it
    assert raised_buffer(err) is pooled
    assert free_buffers(paths) == []
    fixpoint_measure_flow(lq, constant_control(-0.5), paths)
    (fresh,) = free_buffers(paths)
    assert fresh is not pooled
