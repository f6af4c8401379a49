"""Reference ensemble: grids, increments, Euler paths, path functionals.

Oracles used here are all closed-form facts about the driftless dynamics
x_{k+1} = x_k + sigma dW_k: with unit constant sigma the path is the
initial state plus a cumulative sum of the increments (exact in floating
point, the scheme performs the identical additions), the terminal state is
N(xi, T), and the running supremum of a hand-built path is computed by
inspection.
"""

import numpy as np
import pytest

from mfcontrol import (
    BrownianEnsemble,
    DiffusionSpec,
    ensemble_moments,
    make_time_grid,
    sample_brownian,
    simulate_for_scenario,
    simulate_reference,
)


def test_time_grid_arithmetic():
    grid = make_time_grid(1.0, 4)
    assert grid.dt == 0.25
    np.testing.assert_allclose(grid.times, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert grid.times.shape == (5,)

    single = make_time_grid(0.5, 1)
    assert single.dt == 0.5
    np.testing.assert_allclose(single.times, [0.0, 0.5])


def test_time_grid_times_are_formed_once_and_read_only():
    grid = make_time_grid(1.0, 50)
    times = grid.times
    assert times.tobytes() == np.linspace(0.0, 1.0, 51).tobytes()
    assert grid.times is times
    with pytest.raises(ValueError):
        times[0] = 1.0
    # the held times are no field: equal grids stay equal and hash alike
    assert grid == make_time_grid(1.0, 50) and hash(grid) == hash(make_time_grid(1.0, 50))


def test_time_grid_rejects_degenerate_inputs():
    with pytest.raises(ValueError):
        make_time_grid(0.0, 10)
    with pytest.raises(ValueError):
        make_time_grid(-1.0, 10)
    with pytest.raises(ValueError):
        make_time_grid(1.0, 0)


def test_brownian_shapes_and_determinism():
    grid = make_time_grid(1.0, 8)
    a = sample_brownian(grid, 64, seed=123)
    b = sample_brownian(grid, 64, seed=123)
    c = sample_brownian(grid, 64, seed=124)
    assert a.increments.shape == (64, 8)
    np.testing.assert_array_equal(a.increments, b.increments)
    assert not np.array_equal(a.increments, c.increments)


def test_brownian_rejects_empty_ensembles():
    grid = make_time_grid(1.0, 2)
    with pytest.raises(ValueError):
        sample_brownian(grid, 0, seed=0)


def test_brownian_moments():
    # pooled mean of M*N iid N(0, dt) draws has sd sqrt(dt/(M*N)); the
    # sample variance of 10^4 draws per step sits within 5% of dt with
    # ~3.5 sigma to spare.
    grid = make_time_grid(1.0, 10)
    dw = sample_brownian(grid, 10_000, seed=42).increments
    dt = grid.dt
    assert abs(dw.mean()) <= 4.0 * np.sqrt(dt / dw.size)
    var = dw.reshape(-1).var()
    assert abs(var - dt) <= 0.05 * dt


def test_identity_diffusion_paths_are_cumulative_sums():
    grid = make_time_grid(1.0, 12)
    brownian = sample_brownian(grid, 50, seed=7)
    sigma = DiffusionSpec(kind="constant", base=1.0)
    # from a zero initial state the Euler recursion is the same left fold as
    # np.cumsum, so the paths match bit for bit
    paths = simulate_reference(brownian, sigma, 0.0)
    np.testing.assert_array_equal(paths.values[:, 1:],
                                  np.cumsum(brownian.increments, axis=1))
    # a nonzero initial state only shifts the fold, up to rounding
    shifted = simulate_reference(brownian, sigma, 0.5)
    np.testing.assert_allclose(
        shifted.values[:, 1:], np.cumsum(brownian.increments, axis=1) + 0.5,
        rtol=0, atol=1e-12)
    np.testing.assert_array_equal(shifted.values[:, 0], np.full(50, 0.5))


def test_zero_noise_path_is_constant():
    grid = make_time_grid(1.0, 5)
    zero = BrownianEnsemble(grid=grid, increments=np.zeros((3, 5)))
    sigma = DiffusionSpec(kind="constant", base=1.0)
    paths = simulate_reference(zero, sigma, 2.0)
    np.testing.assert_array_equal(paths.values, np.full((3, 6), 2.0))
    np.testing.assert_array_equal(paths.running_sup, np.full((3, 6), 2.0))


def test_terminal_variance_matches_horizon(lq):
    # x_T ~ N(0, T) under the reference law; sample variance of 10^4
    # particles is within 5% of T with large margin.
    paths = simulate_for_scenario(lq, particles=10_000, steps=20, seed=3)
    var = paths.values[:, -1].var()
    assert abs(var - lq.horizon) <= 0.05 * lq.horizon


def test_an_ensemble_grid_is_its_driver_grid():
    grid = make_time_grid(1.0, 4)
    brownian = sample_brownian(grid, 8, seed=0)
    paths = simulate_reference(brownian, DiffusionSpec(kind="constant", base=1.0), 0.0)
    assert paths.driver is brownian and paths.grid is brownian.grid
    assert paths.values.shape == (8, grid.steps + 1)


def test_running_sup_by_inspection():
    # hand-built path 0 -> 3 -> -5 has running sup (0, 3, 5)
    grid = make_time_grid(1.0, 2)
    inc = np.array([[3.0, -8.0]])
    brownian = BrownianEnsemble(grid=grid, increments=inc)
    sigma = DiffusionSpec(kind="constant", base=1.0)
    paths = simulate_reference(brownian, sigma, 0.0)
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
