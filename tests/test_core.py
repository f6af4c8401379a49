"""Reference ensemble: grids, increments, Euler paths, path functionals.

Oracles used here are all closed-form facts about the driftless dynamics
x_{k+1} = x_k + sigma dW_k: with unit constant sigma the path is the
initial state plus a cumulative sum of the increments (exact in floating
point, the scheme performs the identical additions), the terminal state is
N(xi, T), and the running supremum of a hand-built path is computed by
inspection.  An ensemble is built from its increments alone, so a block of
rows is the ensemble of those rows' increments, and its paths and density
weights are the parent's rows bit for bit.
"""

import dataclasses
import math

import numpy as np
import pytest

from mfcontrol import (
    DiffusionSpec,
    DriftEvaluator,
    PathEnsemble,
    SingularDiffusionError,
    TimeGrid,
    builtin_config,
    density_process,
    ensemble_moments,
    parametric_control,
    parse_scenario,
    reference_flow,
    sample_brownian,
    simulate_for_scenario,
)


def test_time_grid_arithmetic():
    grid = TimeGrid(1.0, 4)
    assert grid.dt == 0.25
    np.testing.assert_allclose(grid.times, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert grid.times.shape == (5,)

    single = TimeGrid(0.5, 1)
    assert single.dt == 0.5
    np.testing.assert_allclose(single.times, [0.0, 0.5])


def test_time_grid_times_are_formed_once_and_read_only():
    grid = TimeGrid(1.0, 50)
    times = grid.times
    assert times.tobytes() == np.linspace(0.0, 1.0, 51).tobytes()
    assert grid.times is times
    with pytest.raises(ValueError):
        times[0] = 1.0
    # the held times are no field: equal grids stay equal and hash alike
    assert grid == TimeGrid(1.0, 50) and hash(grid) == hash(TimeGrid(1.0, 50))


def test_time_grid_rejects_degenerate_inputs():
    # a NaN horizon gave all-NaN times and an infinite one dt = inf
    for horizon in (0.0, -1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="^horizon must be positive and finite$"):
            TimeGrid(horizon, 10)
    with pytest.raises(ValueError):
        TimeGrid(1.0, 0)


def test_brownian_shapes_and_determinism():
    grid = TimeGrid(1.0, 8)
    a = sample_brownian(grid, 64, seed=123)
    b = sample_brownian(grid, 64, seed=123)
    c = sample_brownian(grid, 64, seed=124)
    assert a.shape == (64, 8)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_brownian_rejects_empty_ensembles():
    grid = TimeGrid(1.0, 2)
    with pytest.raises(ValueError):
        sample_brownian(grid, 0, seed=0)


def test_brownian_moments():
    # pooled mean of M*N iid N(0, dt) draws has sd sqrt(dt/(M*N)); the
    # sample variance of 10^4 draws per step sits within 5% of dt with
    # ~3.5 sigma to spare.
    grid = TimeGrid(1.0, 10)
    dw = sample_brownian(grid, 10_000, seed=42)
    dt = grid.dt
    assert abs(dw.mean()) <= 4.0 * np.sqrt(dt / dw.size)
    var = dw.reshape(-1).var()
    assert abs(var - dt) <= 0.05 * dt


def test_identity_diffusion_paths_are_cumulative_sums():
    grid = TimeGrid(1.0, 12)
    dw = sample_brownian(grid, 50, seed=7)
    sigma = DiffusionSpec(kind="constant", base=1.0)
    # from a zero initial state the Euler recursion is the same left fold as
    # np.cumsum, so the paths match bit for bit
    paths = PathEnsemble(grid, dw, sigma, 0.0)
    np.testing.assert_array_equal(paths.values[:, 1:], np.cumsum(dw, axis=1))
    # a nonzero initial state only shifts the fold, up to rounding
    shifted = PathEnsemble(grid, dw, sigma, 0.5)
    np.testing.assert_allclose(shifted.values[:, 1:], np.cumsum(dw, axis=1) + 0.5,
                               rtol=0, atol=1e-12)
    np.testing.assert_array_equal(shifted.values[:, 0], np.full(50, 0.5))


def test_zero_noise_path_is_constant():
    sigma = DiffusionSpec(kind="constant", base=1.0)
    paths = PathEnsemble(TimeGrid(1.0, 5), np.zeros((3, 5)), sigma, 2.0)
    np.testing.assert_array_equal(paths.values, np.full((3, 6), 2.0))
    np.testing.assert_array_equal(paths.running_sup, np.full((3, 6), 2.0))


def test_terminal_variance_matches_horizon(lq):
    # x_T ~ N(0, T) under the reference law; sample variance of 10^4
    # particles is within 5% of T with large margin.
    paths = simulate_for_scenario(lq, particles=10_000, steps=20, seed=3)
    var = paths.values[:, -1].var()
    assert abs(var - lq.horizon) <= 0.05 * lq.horizon


def test_an_ensemble_holds_its_grid_and_increments_read_only():
    grid = TimeGrid(1.0, 4)
    dw = sample_brownian(grid, 8, seed=0)
    sigma = DiffusionSpec(kind="constant", base=1.0)
    paths = PathEnsemble(grid, dw, sigma, 0.5)
    assert paths.grid is grid
    assert paths.increments.base is dw and paths.increments.tobytes() == dw.tobytes()
    assert paths.values.shape == paths.running_sup.shape == (8, grid.steps + 1)
    # the reference law the paths were simulated under is kept
    assert paths.sigma is sigma and paths.initial == 0.5
    # the arrays cannot be written, nor the attributes reassigned, so the
    # paths stay those of the increments, the sigma and the initial state
    for name in ("increments", "values", "running_sup"):
        with pytest.raises(ValueError):
            getattr(paths, name)[0, 0] = 1.0
    for name, other in (("increments", np.zeros((8, 4))), ("values", np.zeros((8, 5))),
                        ("running_sup", np.zeros((8, 5))), ("grid", TimeGrid(2.0, 4)),
                        ("sigma", DiffusionSpec(base=2.0)), ("initial", 1.0)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(paths, name, other)
    assert dw.flags.writeable   # the caller's own array is left as it was


@pytest.mark.parametrize("shape", [(8,), (2, 8, 4), (8, 3), (8, 5)])
def test_increments_off_the_grid_are_rejected(shape):
    with pytest.raises(ValueError, match=r"expected \(particles, 4\) on the grid"):
        PathEnsemble(TimeGrid(1.0, 4), np.zeros(shape), DiffusionSpec(), 0.0)


def test_a_singular_sigma_raises_at_construction():
    # 0 -> -1 under sigma = 1 + x, which is zero there
    affine = DiffusionSpec(kind="affine_state", base=1.0, slope=1.0)
    with pytest.raises(SingularDiffusionError,
                       match=r"^sigma is singular at t=0\.5 for 1 particle\(s\)$"):
        PathEnsemble(TimeGrid(1.0, 2), np.array([[-1.0, 0.5], [0.5, 0.5]]), affine, 0.0)
    with pytest.raises(SingularDiffusionError,
                       match=r"^sigma is singular at t=0 for 2 particle\(s\)$"):
        PathEnsemble(TimeGrid(1.0, 2), np.ones((2, 2)), DiffusionSpec(base=0.0), 0.0)


SIGMAS = {
    "constant": {"kind": "constant", "base": 1.0},
    "affine_state": {"kind": "affine_state", "base": 1.0, "slope": 0.1},
    "sup_modulated": {"kind": "sup_modulated", "base": 0.8, "slope": 0.3},
}
# 13 grid times give blocks of 2520 particles, so each row set below cuts
# across the parent's particle blocks
ROWS = {
    "contiguous": slice(700, 2900),
    "strided": slice(1, None, 3),
    "fancy": np.random.default_rng(3).permutation(3000)[:1700],
}


@pytest.mark.parametrize("rows", ROWS)
@pytest.mark.parametrize("sigma", SIGMAS)
def test_a_row_block_is_the_parents_rows_bit_for_bit(sigma, rows):
    cfg = builtin_config("linear-quadratic")
    cfg["diffusion"] = SIGMAS[sigma]
    scenario = parse_scenario(cfg)
    paths = simulate_for_scenario(scenario, particles=3000, steps=12, seed=7)
    r = ROWS[rows]
    block = PathEnsemble(paths.grid, paths.increments[r], paths.sigma, paths.initial)
    assert block.values.tobytes() == paths.values[r].tobytes()
    assert block.running_sup.tobytes() == paths.running_sup[r].tobytes()
    control = parametric_control(0.3, -0.4, 0.1, scenario.actions)

    def weights(ensemble):
        return density_process(DriftEvaluator(scenario, reference_flow(ensemble), control))

    assert weights(block).tobytes() == weights(paths)[r].tobytes()


def test_running_sup_by_inspection():
    # hand-built path 0 -> 3 -> -5 has running sup (0, 3, 5)
    inc = np.array([[3.0, -8.0]])
    paths = PathEnsemble(TimeGrid(1.0, 2), inc, DiffusionSpec(kind="constant", base=1.0), 0.0)
    np.testing.assert_array_equal(paths.values[0], [0.0, 3.0, -5.0])
    np.testing.assert_array_equal(paths.running_sup[0], [0.0, 3.0, 5.0])


def test_state_and_sup_accessors(paths4k):
    k = 7
    np.testing.assert_array_equal(paths4k.state(k), paths4k.values[:, k])
    np.testing.assert_array_equal(paths4k.sup(k), paths4k.running_sup[:, k])
    assert paths4k.particles == 4000


def test_moments_stable_across_seeds(lq):
    # E|x_T|^p is seed-independent up to Monte Carlo noise; 20% relative
    # agreement at 10^4 particles leaves several sigma of slack even for
    # the fourth moment.
    moments = []
    for seed in (1, 2):
        paths = simulate_for_scenario(lq, particles=10_000, steps=10, seed=seed)
        moments.append(ensemble_moments(paths))
    for p in (1, 2, 4):
        a, b = moments[0][p], moments[1][p]
        assert abs(a - b) <= 0.2 * max(a, b)


def test_simulate_for_scenario_wires_geometry(lq):
    paths = simulate_for_scenario(lq, particles=32, steps=6, seed=1)
    assert paths.grid.horizon == lq.horizon
    assert paths.grid.steps == 6
    assert paths.values.shape == (32, 7)
    assert np.all(paths.values[:, 0] == lq.initial)


def test_every_public_name_resolves_on_the_package():
    # a name deleted from the package must leave __all__ with it
    import mfcontrol

    assert len(set(mfcontrol.__all__)) == len(mfcontrol.__all__)
    missing = [name for name in mfcontrol.__all__ if not hasattr(mfcontrol, name)]
    assert missing == []
