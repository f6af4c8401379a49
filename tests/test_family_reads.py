"""Readers that take what a family's members share once give the members' bits.

A family's actions are read once per step per control kind, a Hellinger pair
reads the drifts' held bases, a synthesized feedback holds one grid-row
matrix per grid, and tv_marginal sorts a common ensemble's states once.  Each
test pins one of these readers, bit for bit, against the per-member (or
np.histogram) computation it replaces.
"""

import numpy as np
import pytest

import mfcontrol.girsanov as girsanov_mod
import mfcontrol.verify as verify_mod
from mfcontrol import (
    AcceptanceContext,
    ActionGrid,
    BasisSpec,
    BsdeFeedbackControl,
    DriftEvaluator,
    DriftSpec,
    MeasureFlow,
    PairFeedbackControl,
    constant_control,
    fixpoint_measure_flow,
    hamiltonian,
    hellinger_bound,
    parametric_control,
    simulate_for_scenario,
    table_control,
    tv_marginal,
)
from mfcontrol.bsde import _family_hamiltonian, _stat_series
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
    feedback = BsdeFeedbackControl(mean_field, grid, _solution(BasisSpec(), 32), stats)
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
    gu, gv = separated_game.actions_u, separated_game.actions_v
    pair = PairFeedbackControl(separated_game, _solution(BasisSpec(), 34),
                               {"mean": np.zeros(STEPS + 1)})
    family = [(constant_control(0.5, gu), constant_control(-0.5, gv)), pair,
              (constant_control(-1.0, gu), pair.v_control),
              (parametric_control(0.1, -1.0, 0.3, gu), constant_control(0.25, gv)),
              (pair.u_control, constant_control(1.0, gv))]
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
    flows = _flows(scenario, paths, len(controls), seed=35)
    hamiltonian_at = _family_hamiltonian(scenario, paths, controls, flows)
    rng = np.random.default_rng(36)
    for k in range(STEPS):
        z = rng.normal(size=paths.particles)
        zs = rng.normal(size=(len(controls), paths.particles))
        shared, own = hamiltonian_at(k, z), hamiltonian_at(k, zs)
        for i, (control, flow) in enumerate(zip(controls, flows)):
            row = {name: float(s[k]) for name, s in _stat_series(scenario, flow).items()}
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
        fa, DriftEvaluator(mean_field, fa, ca, drift_base(mean_field, ca, paths)),
        DriftEvaluator(mean_field, fb, cb, drift_base(mean_field, cb, paths)))
    assert held == fresh


def test_hellinger_check_forms_each_base_once(monkeypatch):
    ctx = AcceptanceContext(seed=7, particles=300, steps=10)
    inside = []      # the drift_base calls under way
    checked = []     # verify's own drift_base calls
    outside = []     # DriftSpec.base calls made outside every drift_base

    def tracked(original, record=None):
        def wrapper(*args, **kwargs):
            if record is not None:
                record.append(1)
            inside.append(1)
            try:
                return original(*args, **kwargs)
            finally:
                inside.pop()
        return wrapper

    base = DriftSpec.base

    def counted_base(self, *args, **kwargs):
        if not inside:
            outside.append(1)
        return base(self, *args, **kwargs)

    monkeypatch.setattr(girsanov_mod, "drift_base", tracked(girsanov_mod.drift_base))
    monkeypatch.setattr(verify_mod, "drift_base", tracked(verify_mod.drift_base, checked))
    monkeypatch.setattr(DriftSpec, "base", counted_base)
    result = verify_mod.check_hellinger(ctx)
    points = ctx.scenarios["linear-quadratic"].actions.points
    assert len(points) == 21
    assert result.details["pairs"] == 210
    assert len(checked) == len(points)
    assert outside == []


@pytest.mark.parametrize("rows,steps", [(slice(None), slice(None)), (slice(5, 130), slice(2, 7)),
                                        (slice(390, 400), slice(8, 9)),
                                        (slice(0, 1), slice(0, 3))])
def test_held_rows_block_reads_equal_step_gathers(single, game, rows, steps):
    _, paths, controls = single
    feedback = next(c for c in controls if isinstance(c, BsdeFeedbackControl))
    _, game_paths, pairs = game
    pair = next(c for c in pairs if isinstance(c, PairFeedbackControl))
    for control, ens in ((feedback, paths), (pair, game_paths)):
        # a fresh feedback holds nothing: the block read fills its own steps
        fresh = (BsdeFeedbackControl(control.scenario, control.grid, control.solution,
                                     control.stat_series)
                 if control is feedback else
                 PairFeedbackControl(control.scenario, control.solution, control.stat_series))
        ks = range(STEPS + 1)[steps]
        want = [grid.array()[np.stack([control._step_rows(ens, k)[i][rows] for k in ks],
                                      axis=1)]
                for i, grid in enumerate(control._grids)]
        for held in (fresh, control):
            if isinstance(held, BsdeFeedbackControl):
                got = [held.actions_over(ens, rows, steps)]
            else:
                got = list(held.actions_pair_over(ens, rows, steps))
                sides = [held.u_control.actions_over(ens, rows, steps),
                         held.v_control.actions_over(ens, rows, steps)]
                for side, w in zip(sides, want):
                    assert side.tobytes() == w.tobytes()
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
    pa = np.histogram(xa, bins=edges, weights=wa)[0] / a.particles
    pb = np.histogram(xb, bins=edges, weights=wb)[0] / b.particles
    signs = np.sign(pa - pb)
    ia = np.clip(np.searchsorted(edges, xa, side="right") - 1, 0, _TV_BINS - 1)
    ib = np.clip(np.searchsorted(edges, xb, side="right") - 1, 0, _TV_BINS - 1)
    stderr = float(np.sqrt(np.var(signs[ia] * wa) / a.particles
                           + np.var(signs[ib] * wb) / b.particles))
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
