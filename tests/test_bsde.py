"""Backward equation via least-squares regression.

Closed forms used as oracles:

  * driver 0, terminal c            -> Y identically c, Z identically 0
  * driver 0, terminal x_T          -> Y_k = x_k, Z = 1 (martingale), so
    each step's projection of Y_{k+1} leaves the increment, rms sqrt(dt)
  * conditional second moment       E[x_T^2 | x_t] = x_t^2 + (T - t),
    inside the degree-2 monomial span but not the degree-1 span, which
    makes it a basis-quality ladder
  * linear-quadratic control u      J(u) = xi + uT + u^2 T / 2, so the
    payoff equation's Y_0 must reproduce it at the matched flow
  * minimized Hamiltonian           min_u (zu + u^2/2) = -z^2/2, attained
    at u = -z, giving Y*_0 = xi - T/2 on this problem

The equation is linear in (terminal, running cost), so doubling both must
double the whole solution up to rounding; and solve_linear_bsde is just
solve_driver_bsde with the linear driver (tests/reference.py), so the two
must agree bit for bit.  A solution keeps no paths: intermediate Y is seen
through the per-step residuals y_residuals, and Z through z_at.
A family solve shares each step's projection among its members, so each
member agrees with its solo solve to rounding, and the one-member family is
the solo solve.
"""

import dataclasses
import gc
import tracemalloc
import weakref

import numpy as np
import pytest

import mfcontrol.bsde as bsde_mod
from mfcontrol import (
    BasisSpec,
    constant_control,
    envelope_bsde,
    fixpoint_measure_flow,
    get_builtin,
    hamiltonian,
    minimized_hamiltonian,
    parametric_control,
    reference_flow,
    regress_conditional,
    simulate_for_scenario,
    solve_driver_bsde,
    solve_linear_family,
    stat_series,
    table_control,
    terminal_values,
)
from mfcontrol.bsde import features_at
from reference import linear_driver


def zero_driver(k, z):
    return np.zeros(z.shape[0])


# ---------------------------------------------------------------------------
# basis and regression


def test_basis_width_arithmetic():
    # monomials in (x, sup) of total degree <= 2: 1, x, s, x^2, xs, s^2
    assert BasisSpec(degree=2).width() == 6
    assert BasisSpec(degree=1).width() == 3
    assert BasisSpec(degree=0).width() == 1


def test_basis_spec_validation():
    with pytest.raises(ValueError):
        BasisSpec(degree=-1)


def test_build_features_shape_and_content(paths1k):
    spec = BasisSpec(degree=2)
    feats = features_at(paths1k, 3, spec)
    assert feats.shape == (paths1k.particles, 6)
    x = paths1k.state(3)
    s = paths1k.sup(3)
    np.testing.assert_array_equal(feats[:, 0], np.ones(paths1k.particles))
    # the x column and the x^2 column appear among the monomials
    cols = [feats[:, j] for j in range(6)]
    assert any(np.array_equal(c, x) for c in cols)
    assert any(np.allclose(c, x * x) for c in cols)
    assert any(np.array_equal(c, s) for c in cols)


def test_regression_recovers_functions_in_span():
    rng = np.random.default_rng(1)
    x = rng.normal(size=400)
    feats = np.column_stack([np.ones(400), x, x * x])
    target = 2.0 - x + 3.0 * x * x
    coef, fitted, rms = regress_conditional(target, feats)
    np.testing.assert_allclose(coef, [2.0, -1.0, 3.0], atol=1e-10)
    np.testing.assert_allclose(fitted, target, atol=1e-10)
    assert rms < 1e-10

    const, fitted, rms = regress_conditional(np.full(400, 7.0), feats)
    np.testing.assert_allclose(fitted, 7.0, atol=1e-12)


def test_conditional_moment_ladder(paths4k):
    # E[x_T^2 | x_t] = x_t^2 + (T - t): exactly representable at degree 2,
    # not at degree 1, so the error against the analytic conditional
    # expectation must drop when the degree increases
    k = paths4k.grid.steps // 2
    t = paths4k.grid.times[k]
    horizon = paths4k.grid.horizon
    target = paths4k.values[:, -1] ** 2
    analytic = paths4k.values[:, k] ** 2 + (horizon - t)
    errs = {}
    for degree in (1, 2, 3):
        feats = features_at(paths4k, k, BasisSpec(degree=degree))
        _, fitted, _ = regress_conditional(target, feats)
        errs[degree] = float(np.sqrt(np.mean((fitted - analytic) ** 2)))
    assert errs[2] < errs[1]
    assert errs[3] < errs[1]
    assert errs[2] < 0.1  # estimation error only


# ---------------------------------------------------------------------------
# driver solves


def test_constant_terminal_constant_solution(paths4k):
    c = 3.25
    terminal = np.full(paths4k.particles, c)
    sol = solve_driver_bsde(paths4k, terminal, zero_driver)
    np.testing.assert_allclose(sol.y_residuals, 0.0, atol=1e-8)
    for k in range(paths4k.grid.steps + 1):
        np.testing.assert_allclose(sol.z_at(paths4k, k), 0.0, atol=1e-8)
    assert sol.y0 == pytest.approx(c, abs=1e-8)
    assert sol.y0_stderr == pytest.approx(0.0, abs=1e-6)


def test_martingale_case_y_tracks_state(paths4k):
    # driver 0, g = x_T: Y_k = E[x_T | F_k] = x_k and Z = 1, so projecting
    # Y_{k+1} = x_{k+1} on F_k leaves the increment dW_k, rms sqrt(dt)
    terminal = paths4k.values[:, -1]
    sol = solve_driver_bsde(paths4k, terminal, zero_driver)
    np.testing.assert_allclose(sol.y_residuals, np.sqrt(paths4k.grid.dt), rtol=0.1)
    for k in range(paths4k.grid.steps + 1):
        assert abs(np.mean(sol.z_at(paths4k, k)) - 1.0) <= 0.05, k
    # y0 carries basis-projection drift beyond the martingale-representation
    # stderr (~0.015 at this scale); allow for it explicitly
    assert abs(sol.y0 - 0.0) <= 3.0 * sol.y0_stderr + 0.05


def test_driver_shape_validation(paths1k):
    with pytest.raises(ValueError):
        solve_driver_bsde(paths1k, np.zeros((paths1k.particles, 1)), zero_driver)
    with pytest.raises(ValueError):
        solve_driver_bsde(paths1k, np.zeros(7), zero_driver)


def test_non_finite_driver_aborts(paths1k):
    def bad(k, z):
        out = np.zeros(z.shape[0])
        out[0] = np.nan
        return out

    with pytest.raises(FloatingPointError):
        solve_driver_bsde(paths1k, np.zeros(paths1k.particles), bad)


# ---------------------------------------------------------------------------
# payoff equation


def test_lq_payoff_equation_closed_form(lq, paths4k):
    for u in (-1.0, 0.0, 1.0):
        control = constant_control([u], lq.actions)
        fix = fixpoint_measure_flow(lq, control, paths4k)
        sol = solve_linear_family(lq, paths4k, [control], [stat_series(lq, fix.flow)])[0]
        analytic = u * lq.horizon + 0.5 * u * u * lq.horizon
        # the additive term covers basis-projection drift, which the
        # martingale-representation stderr does not see
        assert abs(sol.y0 - analytic) <= 3.0 * sol.y0_stderr + 0.05, u


def test_solution_is_linear_in_costs(lq, paths4k):
    from mfcontrol import builtin_config, parse_scenario

    control = constant_control([1.0], lq.actions)
    series = stat_series(lq, fixpoint_measure_flow(lq, control, paths4k).flow)
    base = solve_linear_family(lq, paths4k, [control], [series])[0]

    doc = builtin_config("linear-quadratic")
    doc["running_cost"]["quad"] = 2.0
    doc["terminal_cost"]["coeff"] = 2.0
    doubled_scenario = parse_scenario(doc)
    doubled = solve_linear_family(doubled_scenario, paths4k, [control], [series])[0]
    assert doubled.y0 == pytest.approx(2.0 * base.y0, rel=1e-9)
    np.testing.assert_allclose(doubled.y_residuals, 2.0 * base.y_residuals, rtol=1e-9)
    for k in range(paths4k.grid.steps + 1):
        np.testing.assert_allclose(doubled.z_at(paths4k, k), 2.0 * base.z_at(paths4k, k),
                                   rtol=0, atol=1e-9)


def test_minimized_driver_reaches_optimal_value(lq, paths4k):
    # min_u (zu + u^2/2) over the action grid, pointwise in z
    flow = reference_flow(paths4k, lq.statistic_map)
    stats = {name: flow.statistic_series(name) for name in flow.statistics}
    times = paths4k.grid.times

    def driver(k, z):
        row = {name: stats[name][k] for name in stats}
        values, _ = minimized_hamiltonian(lq, times[k], paths4k.state(k),
                                          paths4k.sup(k), row, z)
        return values

    terminal = terminal_values(lq, paths4k, stats)
    sol = solve_driver_bsde(paths4k, terminal, driver)
    analytic = -0.5 * lq.horizon  # xi - T/2 with xi = 0
    assert abs(sol.y0 - analytic) <= 3.0 * sol.y0_stderr + 0.05


def test_y0_stderr_scales_with_particles(lq):
    ses = {}
    for m in (1000, 4000):
        paths = simulate_for_scenario(lq, particles=m, steps=16, seed=13)
        control = constant_control([1.0], lq.actions)
        series = stat_series(lq, fixpoint_measure_flow(lq, control, paths).flow)
        ses[m] = solve_linear_family(lq, paths, [control], [series])[0].y0_stderr
    assert ses[1000] > 0 and ses[4000] > 0
    # more particles help twice: 1/sqrt(M) averaging and a tighter Z control
    # variate, so the stderr must drop by at least the averaging factor
    assert ses[4000] < ses[1000] / 1.3


def test_z_stderr_pointwise_shape(paths4k):
    terminal = paths4k.values[:, -1]
    sol = solve_driver_bsde(paths4k, terminal, zero_driver)
    se = sol.z_stderr(paths4k, paths4k.grid.steps // 2)
    assert se.shape == (paths4k.particles,)
    assert np.all(se >= 0)
    # prediction noise is larger at the edge of the design than at its center
    k = paths4k.grid.steps // 2
    x = paths4k.values[:, k]
    edge = int(np.argmax(np.abs(x)))
    assert se[edge] >= np.median(se)


# ---------------------------------------------------------------------------
# the per-ensemble factor


def lstsq_backward(paths, terminal, driver_at, basis):
    """The backward solve with two ridge-augmented lstsq per step, and each
    step's (F'F + ridge I)^{-1} from the SVD of the augmented design (the
    factorization lstsq itself uses).  Returns the residuals of Y's
    projections, z on the ensemble, y0, y0_stderr, the inverse Gram matrices
    and the residual scales of z."""
    dw = paths.driver.increments
    m, n = dw.shape
    dt = paths.grid.dt
    q = basis.width()
    y = np.empty((m, n + 1))
    z = np.empty((m, n))
    resid, gram_inv, rms = np.empty(n), [None] * n, [None] * n
    y[:, n] = terminal
    value_paths = y[:, n].copy()
    for k in range(n - 1, -1, -1):
        feats = features_at(paths, k, basis)
        aug = np.vstack([feats, np.sqrt(bsde_mod._RIDGE) * np.eye(q)])

        def solve(v):
            return np.linalg.lstsq(aug, np.vstack([v, np.zeros((q, v.shape[1]))]),
                                   rcond=None)[0]

        fitted = (feats @ solve(y[:, k + 1, None]))[:, 0]
        resid[k] = np.sqrt(np.mean((y[:, k + 1] - fitted) ** 2))
        rhs = (y[:, k + 1] - fitted) * dw[:, k] / dt
        zk = (feats @ solve(rhs[:, None]))[:, 0]
        _, sv, vt = np.linalg.svd(aug, full_matrices=False)
        gram_inv[k] = (vt.T / sv ** 2) @ vt
        rms[k] = np.sqrt(np.mean((rhs - zk) ** 2))
        z[:, k] = zk
        h = driver_at(k, zk)
        y[:, k] = fitted + h * dt
        value_paths += h * dt - zk * dw[:, k]
    return (resid, z, float(np.mean(y[:, 0])), float(np.std(value_paths) / np.sqrt(m)),
            gram_inv, rms)


def assert_relative(actual, reference, rel):
    actual, reference = np.asarray(actual), np.asarray(reference)
    scale = max(1.0, float(np.max(np.abs(reference))))
    assert float(np.max(np.abs(actual - reference))) <= rel * scale


@pytest.mark.parametrize("basis", [BasisSpec(), BasisSpec(degree=3)])
@pytest.mark.parametrize("particles", [2000, 10_000])
@pytest.mark.parametrize("name", ["linear-quadratic", "mean-field-mean-reversion"])
def test_factored_solve_matches_lstsq_reference(name, particles, basis):
    from mfcontrol import get_builtin, parametric_control

    scen = get_builtin(name)
    paths = simulate_for_scenario(scen, particles=particles, steps=20, seed=2)
    control = parametric_control(0.3, -0.4, 0.2, scen.actions)
    series = stat_series(scen, fixpoint_measure_flow(scen, control, paths).flow)
    sol = solve_linear_family(scen, paths, [control], [series], basis)[0]
    resid, z, y0, y0_se, gram_inv, rms = lstsq_backward(
        paths, terminal_values(scen, paths, series), linear_driver(scen, paths, series, control),
        sol.basis)

    assert_relative(sol.y_residuals, resid, 1e-12)
    assert abs(sol.y0 - y0) <= 1e-12 * max(1.0, abs(y0))
    assert abs(sol.y0_stderr - y0_se) <= 1e-12 * y0_se
    n = paths.grid.steps
    for k in range(n):
        # coefficients along the design's null directions are set by the
        # ridge alone, so they are compared through their predictions
        assert_relative(sol.z_at(paths, k), z[:, k], 1e-12)
    for t_index in range(n + 1):
        k = min(t_index, n - 1)
        feats = features_at(paths, t_index, sol.basis)
        ref = np.sqrt(np.einsum("mq,qr,mr->m", feats, gram_inv[k], feats)) * rms[k]
        # at t_1 the running sup gives sup^2 = x^2 exactly: G weights that null
        # direction by 1/ridge = 1e8, and any two factorizations of the design
        # (the SVD here, QR, an explicit inverse) agree only to about 1e-8
        assert_relative(sol.z_stderr(paths, t_index), ref, 1e-6 if t_index == 1 else 1e-12)


def solve_uncached(monkeypatch, paths, basis):
    """The solve with an empty factor holder: every factor is a miss."""
    monkeypatch.setattr(bsde_mod, "_GRAM_FACTORS", weakref.WeakKeyDictionary())
    sol = solve_driver_bsde(paths, paths.values[:, -1] ** 2, zero_driver, basis=basis)
    monkeypatch.undo()
    return sol


def assert_same_solution(a, b):
    for field in ("z_coefficients", "z_resid_rms", "y_residuals"):
        np.testing.assert_array_equal(getattr(a, field), getattr(b, field))
    assert a.y0 == b.y0 and a.y0_stderr == b.y0_stderr
    for fa, fb in zip(a.z_gram_factors, b.z_gram_factors, strict=True):
        np.testing.assert_array_equal(fa, fb)


def test_cached_factors_give_the_uncached_bits(lq, monkeypatch):
    a = simulate_for_scenario(lq, particles=600, steps=6, seed=31)
    b = simulate_for_scenario(lq, particles=600, steps=6, seed=32)
    twin = dataclasses.replace(a)
    wide, narrow = BasisSpec(), BasisSpec(degree=1)
    ref = {(id(p), basis): solve_uncached(monkeypatch, p, basis)
           for p in (a, b, twin) for basis in (wide, narrow)}
    # the two ensembles and the two bases must give different solutions
    assert ref[id(a), wide].y0 != ref[id(b), wide].y0
    assert ref[id(a), wide].y0 != ref[id(a), narrow].y0
    for paths, basis in [(a, wide), (b, wide), (a, wide), (twin, wide), (a, wide),
                         (a, narrow), (a, wide), (a, narrow), (b, narrow)]:
        sol = solve_driver_bsde(paths, paths.values[:, -1] ** 2, zero_driver, basis=basis)
        assert_same_solution(sol, ref[id(paths), basis])


def test_factor_holder_keeps_no_particle_axis_nor_a_dead_ensemble(lq):
    paths = simulate_for_scenario(lq, particles=500, steps=5, seed=33)
    basis = BasisSpec()
    sol = solve_driver_bsde(paths, paths.values[:, -1], zero_driver, basis=basis)
    q = basis.width()
    held = list(bsde_mod._GRAM_FACTORS[paths].values())
    assert len(held) == paths.grid.steps
    for factor in held:
        assert factor.shape == (q, q)
        assert not factor.flags.writeable
    # the solution shares the held factors instead of copying them
    assert all(any(f is h for h in held) for f in sol.z_gram_factors)
    alive = weakref.ref(paths)
    factors = [weakref.ref(f) for f in held]
    del paths, sol, held, factor
    gc.collect()
    assert alive() is None
    # the dead ensemble's entry went with it, and no factor outlives it
    assert all(f() is None for f in factors)


def test_ensembles_compare_and_hash_by_identity(lq):
    paths = simulate_for_scenario(lq, particles=50, steps=3, seed=34)
    twin = dataclasses.replace(paths)
    assert twin != paths and twin.values is paths.values
    assert hash(paths) == hash(paths)
    assert len({paths, twin, paths}) == 2


def test_each_ensemble_keeps_its_factors_across_switches(lq, monkeypatch):
    # solves on A, B, A factor each ensemble's steps once: the holder keeps
    # every live ensemble, not only the last one seen
    a = simulate_for_scenario(lq, particles=300, steps=6, seed=35)
    b = simulate_for_scenario(lq, particles=300, steps=6, seed=36)
    calls = []
    factor = bsde_mod._gram_factor
    monkeypatch.setattr(bsde_mod, "_gram_factor",
                        lambda *args: calls.append(1) or factor(*args))
    for paths in (a, b, a):
        solve_driver_bsde(paths, paths.values[:, -1], zero_driver, basis=BasisSpec())
    assert len(calls) == 2 * a.grid.steps


# ---------------------------------------------------------------------------
# families: K payoff equations in one backward sweep


def family_case(name):
    """A scenario and a family of its controls: constant, parametric and table
    controls, or (u, v) pairs of them for the game."""
    scen = get_builtin(name)
    table = ([-0.5, 0.0, 0.5], [[-1.0, -0.5, 0.5, 1.0], [1.0, 0.5, -0.5, -1.0]])
    if scen.kind == "game":
        gu, gv = scen.grids
        return scen, [(constant_control(0.5, gu), constant_control(-0.5, gv)),
                      (parametric_control(0.2, -0.3, 0.1, gu), table_control(*table, gv))]
    grid = scen.actions
    return scen, [constant_control(-1.0, grid), parametric_control(0.3, -0.4, 0.2, grid),
                  table_control(*table, grid)]


@pytest.fixture(scope="module", params=["linear-quadratic", "mean-field-mean-reversion",
                                        "separated-game"])
def family(request):
    scen, controls = family_case(request.param)
    paths = simulate_for_scenario(scen, particles=2000, steps=20, seed=3)
    series = [stat_series(scen, fixpoint_measure_flow(scen, c, paths).flow) for c in controls]
    return scen, paths, controls, series


def test_family_members_match_their_solo_solves(family):
    scen, paths, controls, laws = family
    members = solve_linear_family(scen, paths, controls, laws)
    assert len(members) == len(controls)
    for control, series, member in zip(controls, laws, members):
        solo = solve_linear_family(scen, paths, [control], [series])[0]
        assert abs(member.y0 - solo.y0) <= 1e-12 * max(1.0, abs(solo.y0))
        assert abs(member.y0_stderr - solo.y0_stderr) <= 1e-12 * max(1.0, solo.y0_stderr)
        assert_relative(member.y_residuals, solo.y_residuals, 1e-12)
        # compared through z_at: at t_1, sup^2 = x^2 is a null direction of
        # the design that only the ridge sets, and there the coefficients
        # differ by about 1e-7
        for k in range(paths.grid.steps + 1):
            assert_relative(member.z_at(paths, k), solo.z_at(paths, k), 1e-12)


def test_one_member_family_gives_the_solo_bits(family):
    scen, paths, controls, laws = family
    for control, series in zip(controls, laws):
        [member] = solve_linear_family(scen, paths, [control], [series])
        solo = solve_driver_bsde(paths, terminal_values(scen, paths, series),
                                 linear_driver(scen, paths, series, control))
        assert_same_solution(member, solo)


def test_members_keep_their_own_statistic_rows(mean_field):
    # one control under two matched flows whose mean series differ: member i
    # must read flow i in its drift, running cost and terminal law
    paths = simulate_for_scenario(mean_field, particles=2000, steps=20, seed=3)
    control = constant_control(0.0, mean_field.actions)
    laws = [stat_series(mean_field, fixpoint_measure_flow(
        mean_field, constant_control(u, mean_field.actions), paths).flow) for u in (-1.0, 1.0)]
    solos = [solve_linear_family(mean_field, paths, [control], [series])[0] for series in laws]
    assert abs(solos[0].y0 - solos[1].y0) > 0.1
    for member, solo in zip(solve_linear_family(mean_field, paths, [control, control], laws),
                            solos):
        assert abs(member.y0 - solo.y0) <= 1e-12 * max(1.0, abs(solo.y0))
        assert_relative(member.y_residuals, solo.y_residuals, 1e-12)
        for k in range(paths.grid.steps + 1):
            assert_relative(member.z_at(paths, k), solo.z_at(paths, k), 1e-12)


def test_family_solve_holds_no_particle_paths(lq):
    # a solution is its coefficients: after a 20-member sweep at 2000 x 50
    # nothing with a particle axis stays alive, and the sweep itself holds
    # only a few step-sized columns at a time (a stored Y and Z path per
    # member would be 31 MB here)
    paths = simulate_for_scenario(lq, particles=2000, steps=50, seed=37)
    rng = np.random.default_rng(38)
    controls = [parametric_control(rng.uniform(-1.0, 1.0), rng.uniform(-0.5, 0.5),
                                   rng.uniform(-0.3, 0.3), lq.actions) for _ in range(20)]
    laws = [stat_series(lq, fixpoint_measure_flow(lq, c, paths).flow) for c in controls]
    solve_linear_family(lq, paths, controls[:1], laws[:1])  # the factors are held from here on
    tracemalloc.start()
    try:
        sols = solve_linear_family(lq, paths, controls, laws)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(sols) == 20
    assert held < 1 << 20, held
    assert peak < 8 << 20, peak


def test_family_arguments_are_checked(lq, paths1k):
    control = constant_control(0.0, lq.actions)
    series = stat_series(lq, reference_flow(paths1k, lq.statistic_map))
    with pytest.raises(ValueError):
        solve_linear_family(lq, paths1k, [], [])
    with pytest.raises(ValueError):
        solve_linear_family(lq, paths1k, [control, control], [series])


@pytest.mark.parametrize("solve", [solve_linear_family, envelope_bsde])
def test_family_series_are_checked(mean_field, paths1k, solve):
    # a member's law is its series of every statistic the scenario references,
    # one value per grid time; the error names the member and the statistic
    controls = [constant_control(u, mean_field.actions) for u in (-0.5, 0.5)]
    series = stat_series(mean_field, reference_flow(paths1k, mean_field.statistic_map))
    assert set(series) == {"mean"}
    solve(mean_field, paths1k, controls, [series, series])
    with pytest.raises(ValueError, match="member 1's series lacks statistic 'mean'"):
        solve(mean_field, paths1k, controls, [series, {}])
    short = {"mean": series["mean"][:-1]}
    with pytest.raises(ValueError, match=r"member 0's series of statistic 'mean' has shape "
                                         r"\(16,\), not \(steps \+ 1,\) = \(17,\)"):
        solve(mean_field, paths1k, controls, [short, series])
    stacked = {"mean": np.stack([series["mean"]] * 2)}
    with pytest.raises(ValueError, match="member 1's series of statistic 'mean'"):
        solve(mean_field, paths1k, controls, [series, stacked])


def test_envelope_is_the_candidate_minimum_bit_for_bit(mean_field):
    paths = simulate_for_scenario(mean_field, particles=2000, steps=20, seed=3)
    grid = mean_field.actions
    controls = [constant_control(-1.0, grid), constant_control(-0.5, grid),
                parametric_control(-0.8, 0.6, 0.0, grid), parametric_control(-0.8, -0.6, 0.0, grid),
                parametric_control(-1.0, 0.0, 0.4, grid), table_control([0.0], [[-0.6, -1.0]], grid)]
    flows = [fixpoint_measure_flow(mean_field, c, paths).flow for c in controls]
    env = envelope_bsde(mean_field, paths, controls, [stat_series(mean_field, f) for f in flows])

    # the envelope's driver as a loop over candidates, one H call each
    series = [{name: f.statistic_series(name) for name in f.statistics} for f in flows]
    times = paths.grid.times
    strict_wins = np.zeros(len(controls), dtype=int)

    def driver(k, z):
        hams = []
        for control, stats in zip(controls, series):
            row = {name: s[k] for name, s in stats.items()}
            hams.append(hamiltonian(mean_field, times[k], paths.state(k), paths.sup(k), row, z,
                                    control.actions(paths, k)))
        values = hams[0]
        for h in hams[1:]:
            values = np.minimum(values, h)
        ordered = np.sort(hams, axis=0)
        strict = ordered[1] > ordered[0]
        strict_wins[:] += np.bincount(np.argmin(hams, axis=0)[strict], minlength=len(controls))
        return values

    terminal = np.min([terminal_values(mean_field, paths, s) for s in series], axis=0)
    assert_same_solution(env, solve_driver_bsde(paths, terminal, driver))
    # every candidate is the strict minimum somewhere, so each one is checked
    assert np.all(strict_wins > 0)
