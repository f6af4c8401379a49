"""Readers that take what a family's members share once give the members' bits.

A family's actions are read once per step per control kind, a Hellinger pair
reads the drifts' held bases, criterion 4 forms each constant's drift once per
block of particles, a synthesized feedback holds one grid-row matrix per
grid, tv_marginals sorts a common ensemble's states once for all its
flows, and the battery simulates one ensemble for every built-in and drops
its matched flows after their last reader.
Each test pins
one of these readers, bit for bit, against the per-member (or np.histogram)
computation it replaces, or pins what it reads and holds.
"""

import dataclasses
import gc
import tracemalloc
import weakref

import numpy as np
import pytest

import mfcontrol.girsanov as girsanov_mod
import mfcontrol.measure as measure_mod
import mfcontrol.verify as verify_mod
from mfcontrol import (
    AcceptanceContext,
    ActionGrid,
    BasisSpec,
    BsdeFeedbackControl,
    DiffusionSpec,
    DriftEvaluator,
    DriftSpec,
    EnsembleMismatchError,
    MeasureFlow,
    PairFeedbackControl,
    constant_control,
    fixpoint_measure_flow,
    hamiltonian,
    hellinger_bound,
    parametric_control,
    simulate_for_scenario,
    stat_series,
    table_control,
    tv_marginal,
    tv_marginals,
)
from mfcontrol.bsde import _family_hamiltonian
from mfcontrol.girsanov import _family_actions, control_actions, drift_base
from mfcontrol.measure import _TV_BINS, _cut_sums
from reference import coefficient_solution

STEPS = 8


def _solution(basis, seed):
    rng = np.random.default_rng(seed)
    return coefficient_solution(basis, rng.normal(scale=1.5, size=(STEPS, basis.width())))


def _flows(scenario, paths, count, seed):
    """count distinct flows on the ensemble, so each member reads its own
    statistic rows."""
    rng = np.random.default_rng(seed)
    return [MeasureFlow(paths, np.exp(rng.normal(scale=0.3, size=paths.values.shape)),
                        scenario.statistic_map) for _ in range(count)]


@pytest.fixture(scope="module")
def single(mean_field):
    """A mean-field control family of every kind, with boxed and unboxed
    affine rules that clip."""
    paths = simulate_for_scenario(mean_field, particles=400, steps=STEPS, seed=31)
    grid = mean_field.actions
    stats = {"mean": np.linspace(0.0, 0.4, STEPS + 1)}
    feedback = BsdeFeedbackControl(mean_field, _solution(BasisSpec(), 32), stats)
    family = [constant_control(-0.5, grid), parametric_control(0.3, -2.0, 0.5, grid),
              table_control((-0.5, 0.5), [[-1.0, 0.0, 1.0], [0.5, -0.5, 0.2]], grid),
              feedback, parametric_control(-0.1, 1.5, -0.4), constant_control(0.7, grid),
              parametric_control(0.2, 0.0, -3.0, grid)]
    return mean_field, paths, family


@pytest.fixture(scope="module")
def boxed(single):
    """Affine rules that share one box, among constants."""
    scenario, paths, family = single
    grid = scenario.actions
    return scenario, paths, [parametric_control(0.3, -2.0, 0.5, grid), family[0],
                             parametric_control(-0.6, 1.5, 0.0, grid),
                             parametric_control(0.2, 0.0, -3.0, grid)]


@pytest.fixture(scope="module")
def game(separated_game):
    """Game pairs: constants, a pair feedback, one of its sides against a
    constant, and an affine rule against a constant."""
    paths = simulate_for_scenario(separated_game, particles=400, steps=STEPS, seed=33)
    gu, gv = separated_game.actions, separated_game.actions_v
    pair = PairFeedbackControl(separated_game, _solution(BasisSpec(), 34),
                               {"mean": np.zeros(STEPS + 1)})
    pair_u, pair_v = pair
    family = [(constant_control(0.5, gu), constant_control(-0.5, gv)), pair,
              (constant_control(-1.0, gu), pair_v),
              (parametric_control(0.1, -1.0, 0.3, gu), constant_control(0.25, gv)),
              (pair_u, constant_control(1.0, gv))]
    return separated_game, paths, family


@pytest.fixture(params=["single", "boxed", "game"])
def family(request):
    return request.getfixturevalue(request.param)


def _member_reads(controls, paths, k):
    """Each side's per-member control_actions at step k, stacked (K, M)."""
    reads = [control_actions(c, paths, slice(None), slice(k, k + 1)) for c in controls]
    return [np.stack([r[i][:, 0] for r in reads]) for i in range(len(reads[0]))]


def test_family_actions_equal_stacked_member_reads(family):
    scenario, paths, controls = family
    for k in range(STEPS + 1):
        read = _family_actions(controls, paths, k)
        expected = _member_reads(controls, paths, k)
        assert len(read) == len(expected) == len(scenario.grids)
        for side, want in zip(read, expected):
            assert side.shape == want.shape
            assert side.tobytes() == want.tobytes()


def test_constant_sides_are_read_as_one_column(single, game):
    scenario, paths, controls = single
    constants = [c for c in controls if c.kind == "constant"]
    (column,) = _family_actions(constants, paths, 3)
    assert column.shape == (len(constants), 1)
    want = _member_reads(constants, paths, 3)[0]
    assert np.broadcast_to(column, want.shape).tobytes() == want.tobytes()

    _, paths, pairs = game
    u, v = _family_actions(pairs, paths, 3)
    assert u.shape == v.shape == (len(pairs), paths.particles)
    (u,) = _family_actions([pairs[0][0], pairs[2][0]], paths, 3)
    assert u.shape == (2, 1)


def test_boxes_differing_in_the_sign_of_zero_clip_apart(lq):
    # -0.0 == 0.0, but a clip at either bound returns that bound's sign
    paths = simulate_for_scenario(lq, particles=300, steps=4, seed=43)
    family = [parametric_control(-5.0, 0.1, 0.0, ActionGrid(points=(-0.0, 1.0))),
              parametric_control(-5.0, 0.1, 0.0, ActionGrid(points=(0.0, 1.0)))]
    (read,) = _family_actions(family, paths, 2)
    (want,) = _member_reads(family, paths, 2)
    assert np.signbit(want[0]).all() and not np.signbit(want[1]).any()
    assert read.tobytes() == want.tobytes()


def test_family_hamiltonian_equals_member_hamiltonians(family):
    scenario, paths, controls = family
    laws = [stat_series(scenario, flow)
            for flow in _flows(scenario, paths, len(controls), seed=35)]
    hamiltonian_at = _family_hamiltonian(scenario, paths, controls, laws)
    rng = np.random.default_rng(36)
    for k in range(STEPS):
        z = rng.normal(size=paths.particles)
        zs = rng.normal(size=(len(controls), paths.particles))
        shared, own = hamiltonian_at(k, z), hamiltonian_at(k, zs)
        for i, (control, series) in enumerate(zip(controls, laws)):
            row = {name: float(s[k]) for name, s in series.items()}
            acts = [a[:, 0] for a in control_actions(control, paths, slice(None),
                                                     slice(k, k + 1))]
            args = (scenario, paths.grid.times[k], paths.state(k), paths.sup(k), row)
            assert shared[i].tobytes() == hamiltonian(*args, z, *acts).tobytes()
            assert own[i].tobytes() == hamiltonian(*args, zs[i], *acts).tobytes()


def test_hellinger_with_held_bases_equals_fresh(mean_field):
    paths = simulate_for_scenario(mean_field, particles=600, steps=STEPS, seed=37)
    ca = parametric_control(0.2, -0.4, 0.1, mean_field.actions)
    cb = constant_control(-0.3, mean_field.actions)
    fa = fixpoint_measure_flow(mean_field, ca, paths).flow
    fb = fixpoint_measure_flow(mean_field, cb, paths).flow
    fresh = hellinger_bound(fa, DriftEvaluator(mean_field, fa, ca),
                            DriftEvaluator(mean_field, fb, cb))
    held = hellinger_bound(
        fa, DriftEvaluator(mean_field, fa, ca,
                           drift_base(mean_field, ca, paths, np.empty(paths.values.shape))),
        DriftEvaluator(mean_field, fb, cb,
                       drift_base(mean_field, cb, paths, np.empty(paths.values.shape))))
    assert held == fresh


def test_hellinger_check_forms_each_base_once(monkeypatch):
    # criterion 4 holds no drift base: each constant's DriftSpec.base is
    # formed once per block of particles in its one density application and
    # once per block in the Gram pass, whose blocks every constant shares
    ctx = AcceptanceContext(seed=7, particles=300, steps=10)
    held = []        # drift_base calls
    applying = []    # the density applications under way
    applied = []     # rows of the DriftSpec.base calls inside one
    reads = {}       # drift -> the row blocks it is read on outside one
    outside = []     # DriftSpec.base calls outside every density application

    def no_base(*args, **kwargs):
        held.append(1)

    def density(drift):
        applying.append(1)
        try:
            return girsanov_mod.density_process(drift)
        finally:
            applying.pop()

    over = DriftEvaluator.over

    def read(self, rows, steps, out):
        if not applying:
            reads.setdefault(self, []).append((rows.start, rows.stop))
        return over(self, rows, steps, out)

    base = DriftSpec.base

    def counted_base(self, x, *args, **kwargs):
        (applied if applying else outside).append(len(x))
        return base(self, x, *args, **kwargs)

    monkeypatch.setattr(girsanov_mod, "drift_base", no_base)
    monkeypatch.setattr(verify_mod, "density_process", density)
    monkeypatch.setattr(DriftEvaluator, "over", read)
    monkeypatch.setattr(DriftSpec, "base", counted_base)
    result = verify_mod.check_hellinger(ctx)
    points = ctx.scenarios["linear-quadratic"].actions.points
    assert len(points) == 21
    assert result.details["pairs"] == 210
    assert held == [] and ctx._fix == {}
    assert sum(applied) == len(points) * 300
    assert len(reads) == len(points)
    blocks = next(iter(reads.values()))
    assert all(seen == blocks for seen in reads.values())
    cuts = [0, *(stop for _, stop in blocks)]
    assert blocks == list(zip(cuts[:-1], cuts[1:])) and cuts[-1] == 300
    assert sorted(outside) == sorted([stop - start for start, stop in blocks] * len(points))


def test_hellinger_check_holds_no_flow():
    # criterion 4 keeps each constant's horizon column and drift, not its flow
    # or a drift base: at 2000 x 50 its allocation peak, the ensemble's
    # simulation included, was 38.6 MB while it held them and is 8.0 MB now
    ctx = AcceptanceContext(seed=7, particles=2000, steps=50)
    tracemalloc.start()
    try:
        result = verify_mod.check_hellinger(ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.details["pairs"] == 210 and result.details["bound_violations"] == 0
    assert ctx._fix == {}
    assert peak < 12e6


def test_comparison_check_holds_no_flow(monkeypatch):
    # criterion 7 keeps only its sampled controls' statistic series: each
    # sampled flow is gone before the family solve and the envelope run, and
    # only the grid constants' flows enter ctx's cache.  At 2000 x 50 its
    # allocation peak, after the ensemble's simulation, was 27.7 MB while it
    # held the 20 sampled flows and is 11.4 MB now
    ctx = AcceptanceContext(seed=7, particles=2000, steps=50)
    sampled = []   # weak references to the sampled controls' flows
    alive = []     # sampled flows alive at each backward solve

    def fixpoint(scenario, control, paths, tol):
        result = fixpoint_measure_flow(scenario, control, paths, tol=tol)
        if control.kind == "parametric":
            sampled.append(weakref.ref(result.flow))
        return result

    def counted(solve):
        def run(*args, **kwargs):
            gc.collect()
            alive.append(sum(ref() is not None for ref in sampled))
            return solve(*args, **kwargs)
        return run

    monkeypatch.setattr(verify_mod, "fixpoint_measure_flow", fixpoint)
    monkeypatch.setattr(verify_mod, "solve_linear_family",
                        counted(verify_mod.solve_linear_family))
    monkeypatch.setattr(verify_mod, "envelope_bsde", counted(verify_mod.envelope_bsde))
    ctx.paths
    tracemalloc.start()
    try:
        result = verify_mod.check_comparison(ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.passed
    assert len(sampled) == 40 and alive == [0, 0, 0, 0]
    gc.collect()
    assert all(ref() is None for ref in sampled)
    extras = {(name, label) for name in ("linear-quadratic", "mean-field-mean-reversion")
              for label, _ in verify_mod._family(ctx.scenarios[name])}
    assert len(extras) == 10 and set(ctx._fix) == extras
    assert peak < 16e6


def test_battery_drops_the_matched_flows_after_their_last_reader(monkeypatch):
    # criterion 2 fills the context's cache with 28 matched flows; no later
    # criterion reads them, so criterion 10's reruns start without them.  At
    # 2000 x 50 its allocation peak was 33.2 MB while the battery held them
    # and is 10.3 MB now
    seen = {}
    determinism = verify_mod._CRITERIA[10]

    def traced(ctx):
        seen["held"] = len(ctx._fix)
        tracemalloc.reset_peak()
        result = determinism(ctx)
        seen["peak"] = tracemalloc.get_traced_memory()[1]
        return result

    monkeypatch.setitem(verify_mod._CRITERIA, 10, traced)
    tracemalloc.start()
    try:
        results = verify_mod.run_battery(seed=7, particles=2000, steps=50, indices=(2, 10))
    finally:
        tracemalloc.stop()
    assert [r.passed for r in results] == [True, True]
    assert seen["held"] == 0
    assert seen["peak"] < 16e6


def test_the_flow_readers_are_the_criteria_that_read_the_cache(monkeypatch):
    # run_battery drops the cache after the last criterion tagged reads_flows,
    # so the tags must name every criterion that asks the battery's context
    # for a flow (criterion 10's reruns ask their own contexts)
    running = []   # (index, ctx) of the criteria under way, outermost first
    readers = set()
    fixpoint = AcceptanceContext.fixpoint

    def recorded(self, *args):
        if self is running[0][1]:
            readers.add(running[-1][0])
        return fixpoint(self, *args)

    def tracked(index, fn):
        def run(ctx):
            running.append((index, ctx))
            try:
                return fn(ctx)
            finally:
                running.pop()
        return run

    monkeypatch.setattr(AcceptanceContext, "fixpoint", recorded)
    for index, fn in list(verify_mod._CRITERIA.items()):
        monkeypatch.setitem(verify_mod._CRITERIA, index, tracked(index, fn))
    verify_mod.run_battery(seed=7, particles=300, steps=10)
    assert readers == verify_mod._FLOW_READERS == {1, 2, 3, 5, 7, 8}


@pytest.mark.parametrize("rows,steps", [(slice(None), slice(None)), (slice(5, 130), slice(2, 7)),
                                        (slice(390, 400), slice(8, 9)),
                                        (slice(0, 1), slice(0, 3))])
def test_held_rows_block_reads_equal_step_gathers(single, game, rows, steps):
    _, paths, controls = single
    feedback = next(c for c in controls if isinstance(c, BsdeFeedbackControl))
    _, game_paths, pairs = game
    pair = next(c for c in pairs if isinstance(c, PairFeedbackControl))
    # a pair is a game control: exactly two players, built once, and no
    # actions_over of its own
    assert not hasattr(pair, "actions_over")
    players = list(pair)
    assert len(players) == 2 and all(hasattr(p, "actions_over") for p in players)
    assert [p.label for p in players] == [f"{pair.label}|u", f"{pair.label}|v"]
    assert all(a is b for a, b in zip(pair, players))
    ks = range(STEPS + 1)[steps]

    def fresh(control):
        # a fresh feedback holds nothing: each read fills its own steps
        if isinstance(control, BsdeFeedbackControl):
            return BsdeFeedbackControl(control.scenario, control.solution, control.stat_series)
        return PairFeedbackControl(control.scenario, control.solution, control.stat_series)

    def block_read(form, ens):
        return control_actions(form, ens, rows, steps)

    def family_read(form, ens):
        per_step = [_family_actions([form], ens, k) for k in ks]
        return [np.stack([read[i][0] for read in per_step], axis=1)[rows]
                for i in range(len(per_step[0]))]

    for control, ens in ((feedback, paths), (pair, game_paths)):
        want = [grid.array()[np.stack([control._step_rows(ens, k)[i][rows] for k in ks],
                                      axis=1)]
                for i, grid in enumerate(control.scenario.grids)]
        filled = fresh(control)
        control_actions(filled, ens, slice(None), slice(None))
        assert all(held.filled.all() for held in filled._rows.values())
        forms = [lambda: fresh(control), lambda: filled]
        if control is pair:
            # tuple(pair) and a fresh pair's players read what the pair reads
            forms += [lambda: tuple(fresh(control)), lambda: tuple(filled)]
        for form in forms:
            for read in (block_read, family_read):
                got = read(form(), ens)
                assert len(got) == len(want)
                for g, w in zip(got, want):
                    assert g.shape == w.shape
                    assert g.tobytes() == w.tobytes()


def _histogram_tv(a, b, t_index):
    """tv_marginal as np.histogram computes it, the reference of its bits."""
    xa = a.paths.values[:, t_index]
    xb = b.paths.values[:, t_index]
    lo = min(xa.min(), xb.min())
    hi = max(xa.max(), xb.max())
    if hi <= lo:
        lo, hi = lo - 0.5, lo + 0.5
    edges = np.linspace(lo, hi, _TV_BINS + 1)
    wa, wb = a.weights[:, t_index], b.weights[:, t_index]
    pa = np.histogram(xa, bins=edges, weights=wa)[0] / a.paths.particles
    pb = np.histogram(xb, bins=edges, weights=wb)[0] / b.paths.particles
    signs = np.sign(pa - pb)
    ia = np.clip(np.searchsorted(edges, xa, side="right") - 1, 0, _TV_BINS - 1)
    ib = np.clip(np.searchsorted(edges, xb, side="right") - 1, 0, _TV_BINS - 1)
    stderr = float(np.sqrt(np.var(signs[ia] * wa) / a.paths.particles
                           + np.var(signs[ib] * wb) / b.paths.particles))
    return min(float(np.sum(np.abs(pa - pb))), 2.0), stderr, float(edges[1] - edges[0])


# 70000 rows cross np.histogram's 65536-row sorting block
@pytest.mark.parametrize("particles", [2000, 10_000, 70_000])
def test_cut_sums_are_np_histogram(lq, particles):
    paths = simulate_for_scenario(lq, particles=particles, steps=2, seed=38)
    rng = np.random.default_rng(39)
    wa, wb = (np.exp(rng.normal(scale=0.5, size=particles)) for _ in range(2))
    for x in (paths.values[:, 2], np.round(paths.values[:, 1], 1)):   # the second ties
        edges = np.linspace(x.min(), x.max(), _TV_BINS + 1)
        ca, cb = _cut_sums(x, (wa, wb), edges)
        (solo,) = _cut_sums(x, (wb,), edges)
        assert solo.tobytes() == cb.tobytes()
        for cut, w in ((ca, wa), (cb, wb)):
            want = np.histogram(x, bins=edges, weights=w)[0]
            assert np.diff(cut).tobytes() == want.tobytes()


@pytest.mark.parametrize("particles", [2000, 10_000, 70_000])
def test_tv_marginal_is_np_histogram_tv(lq, particles):
    paths = simulate_for_scenario(lq, particles=particles, steps=2, seed=40)
    other = simulate_for_scenario(lq, particles=particles // 2 + 7, steps=2, seed=41)
    rng = np.random.default_rng(42)
    fa, fb = (MeasureFlow(paths, np.exp(rng.normal(scale=0.4, size=paths.values.shape)))
              for _ in range(2))
    fc = MeasureFlow(other, np.exp(rng.normal(scale=0.4, size=other.values.shape)))
    for a, b in ((fa, fb), (fb, fa), (fa, fc), (fc, fb)):
        for k in range(3):   # t_index 0 is one repeated state
            est = tv_marginal(a, b, k)
            assert (est.value, est.stderr, est.bin_width) == _histogram_tv(a, b, k)


@pytest.mark.parametrize("particles", [2000, 70_000])
def test_tv_marginals_are_member_tv_marginals(lq, particles):
    paths = simulate_for_scenario(lq, particles=particles, steps=2, seed=44)
    other = simulate_for_scenario(lq, particles=particles // 2 + 7, steps=2, seed=45)
    rng = np.random.default_rng(46)
    flows = [MeasureFlow(paths, np.exp(rng.normal(scale=0.4, size=paths.values.shape)))
             for _ in range(4)]
    elsewhere = MeasureFlow(other, np.exp(rng.normal(scale=0.4, size=other.values.shape)))
    for against in (flows[1], elsewhere):
        for k in range(3):
            family = tv_marginals(flows, against, k)
            assert len(family) == len(flows)
            for flow, est in zip(flows, family):
                assert (est.value, est.stderr, est.bin_width) == _histogram_tv(flow, against, k)
                assert est == tv_marginal(flow, against, k)
    with pytest.raises(EnsembleMismatchError, match="one ensemble"):
        tv_marginals([flows[0], elsewhere], flows[1], 2)


def test_marginal_domination_cuts_each_column_once(monkeypatch):
    # every built-in rides one ensemble, so criterion 5 sorts and cuts each
    # grid column once, for the six scenarios' weights and the reference's
    ctx = AcceptanceContext(seed=7, particles=300, steps=10)
    widths = []
    cut_sums = measure_mod._cut_sums

    def counted(x, weights, edges):
        widths.append(len(weights))
        return cut_sums(x, weights, edges)

    monkeypatch.setattr(measure_mod, "_cut_sums", counted)
    result = verify_mod.check_marginal_domination(ctx)
    assert len(ctx.scenarios) == len(result.details["rows"]) == 6
    assert widths == [7] * 11


def test_battery_simulates_one_ensemble_for_every_builtin(monkeypatch):
    ctx = AcceptanceContext(seed=7, particles=300, steps=10)
    simulated = []

    def counted(*args):
        simulated.append(args)
        return simulate_for_scenario(*args)

    monkeypatch.setattr(verify_mod, "simulate_for_scenario", counted)
    assert ctx.paths is ctx.paths
    assert len(simulated) == 1
    assert ctx.paths.grid.steps == 10 and ctx.paths.particles == 300


def test_battery_refuses_a_builtin_off_the_shared_ensemble(monkeypatch):
    # the ensemble is the first built-in's; a built-in of another reference
    # law is refused when it is first priced on it, before any fixed point
    ctx = AcceptanceContext(seed=7, particles=300, steps=10)
    variance = ctx.scenarios["variance"]
    monkeypatch.setitem(ctx.scenarios, "variance",
                        dataclasses.replace(variance, sigma=DiffusionSpec(base=2.0)))
    with pytest.raises(EnsembleMismatchError, match="^scenario 'variance' "):
        verify_mod.check_variance(ctx)
    assert ctx.paths.sigma == DiffusionSpec(base=1.0)
    assert ctx._fix == {}
