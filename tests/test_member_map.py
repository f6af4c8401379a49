"""member_map prices a family's members concurrently with the plain loop's bits.

The worker count is forced through the core probe (available_cores), with
the MEMBER_WORKERS cap lifted, so one host runs the 1-, 2- and 4-worker paths.  Each test pins one promise of the
helper against the plain loop: member order and bits, the error the loop
would raise, the threads it leaves behind, the caller's errstate, and a
synthesized feedback shared by members on different workers.
"""

import threading
import time

import numpy as np
import pytest

import mfcontrol.core as core_mod
from mfcontrol import (
    constant_control,
    evaluate_payoff,
    member_map,
    parametric_control,
    simulate_for_scenario,
    solve_game,
    table_control,
)

WORKERS = [1, 2, 4]


def force_workers(monkeypatch, count):
    monkeypatch.setattr(core_mod, "available_cores", lambda: count)
    monkeypatch.setattr(core_mod, "MEMBER_WORKERS", max(WORKERS))


@pytest.fixture(params=WORKERS, ids=lambda n: f"workers{n}")
def workers(request, monkeypatch):
    force_workers(monkeypatch, request.param)
    return request.param


def _counted_starts(monkeypatch) -> list:
    """The threads started from here on."""
    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Counted)
    return started


def _bits(res) -> tuple:
    """Every number a priced member reports, as bytes."""
    diag = res.diagnostics
    return (np.float64(res.value).tobytes(), np.float64(res.stderr).tobytes(),
            res.per_particle.tobytes(), np.array(diag.distances).tobytes(),
            np.array(diag.stderrs).tobytes(), diag.tol, diag.converged)


def test_members_come_back_in_order_with_the_loops_bits(workers, mean_field,
                                                        separated_game, paths1k):
    grid = mean_field.actions
    single = [
        constant_control(0.4, grid),
        parametric_control(0.3, -0.4, 0.1, grid),
        table_control([-0.5, 0.0, 0.5], [[-1.0, -0.2, 0.2, 1.0], [0.5, 0.0, -0.5, 0.3]], grid),
        constant_control(-0.7, grid),
        parametric_control(-0.2, 0.5, -0.1, grid),
    ]
    gu, gv = separated_game.grids
    pairs = [(constant_control(0.5, gu), constant_control(-0.5, gv)),
             (parametric_control(0.1, -0.3, 0.0, gu), constant_control(0.2, gv)),
             (constant_control(-1.0, gu), parametric_control(0.0, 0.4, 0.1, gv))]
    for scenario, members in ((mean_field, single), (separated_game, pairs)):
        serial = [evaluate_payoff(scenario, m, paths1k) for m in members]
        mapped = member_map(lambda m: evaluate_payoff(scenario, m, paths1k), members)
        assert [_bits(r) for r in mapped] == [_bits(r) for r in serial]


def test_one_thread_per_extra_worker(workers, monkeypatch):
    started = _counted_starts(monkeypatch)
    callers = member_map(lambda m: threading.get_ident(), range(3))
    assert len(started) == min(workers, 3) - 1
    if workers == 1:
        assert callers == [threading.get_ident()] * 3


def test_a_wide_host_runs_at_most_the_capped_workers(monkeypatch):
    # only two-worker runs were measured, so more cores start no more threads
    monkeypatch.setattr(core_mod, "available_cores", lambda: 8)
    started = _counted_starts(monkeypatch)
    assert member_map(lambda m: m + 1, range(6)) == [1, 2, 3, 4, 5, 6]
    assert len(started) == core_mod.MEMBER_WORKERS - 1 == 1


def test_the_first_failing_member_raises_its_own_error(workers):
    # member 4 fails first in time; member 2 fails later but first in member
    # order, which is the error the plain loop raises
    failed_4 = threading.Event()
    started = []

    def fn(i):
        started.append(i)
        if i == 2:
            if workers > 1:
                assert failed_4.wait(timeout=30)
            raise ValueError("member 2")
        if i == 4:
            failed_4.set()
            raise KeyError("member 4")
        return i

    baseline = threading.active_count()
    with pytest.raises(ValueError, match="member 2"):
        member_map(fn, range(6))
    assert threading.active_count() == baseline
    assert {0, 1, 2} <= set(started)
    if workers == 1:
        assert started == [0, 1, 2]


def test_no_thread_outlives_the_call(workers):
    baseline = threading.active_count()

    def fn(i):
        time.sleep(0.01)
        return i * i

    assert member_map(fn, range(7)) == [i * i for i in range(7)]
    assert threading.active_count() == baseline
    assert member_map(fn, []) == []


def test_the_callers_errstate_holds_in_every_worker(workers):
    def fn(x):
        return np.array([x]) * 10.0

    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            member_map(fn, [1.0, 2.0, 1e308, 3.0])
    with np.errstate(over="ignore"):
        assert np.isinf(member_map(fn, [1.0, 1e308])[1]).all()


@pytest.mark.parametrize("count", [1, 4])
def test_a_shared_feedback_fills_its_rows_once_per_ensemble(monkeypatch, separated_game,
                                                           count):
    # (const, v) deviations read one synthesized v side; on an ensemble the
    # synthesis never saw, its held rows start empty and members on different
    # workers fill them lazily.  Each run reads a fresh copy of that ensemble,
    # so every run starts from empty rows
    scen = separated_game
    paths = simulate_for_scenario(scen, particles=400, steps=10, seed=3)
    report = solve_game(scen, paths)
    _, v = report.pair
    fills = []
    step_rows = type(report.pair)._step_rows

    def counted(self, ens, t_index):
        fills.append(t_index)
        return step_rows(self, ens, t_index)

    monkeypatch.setattr(type(report.pair), "_step_rows", counted)
    pairs = [(constant_control(p, scen.actions), v) for p in scen.actions.points]

    def fresh():
        return simulate_for_scenario(scen, particles=400, steps=10, seed=4)

    other = fresh()
    serial = [evaluate_payoff(scen, m, other) for m in pairs]
    force_workers(monkeypatch, count)
    del fills[:]
    other = fresh()
    mapped = member_map(lambda m: evaluate_payoff(scen, m, other), pairs)
    assert [_bits(r) for r in mapped] == [_bits(r) for r in serial]
    assert sorted(fills) == list(range(11))
