"""Reference ensemble simulation.

Everything downstream works on one driftless reference ensemble

    x[i, k+1] = x[i, k] + sigma(t_k, path_i up to k) dW[i, k],   x[i, 0] = xi,

simulated once per (scenario, particles, steps, seed).  Controlled laws are
obtained later by reweighting this ensemble, never by resimulating, so a
single stored Brownian increment array serves every control and both game
players.  All randomness flows through one seeded generator; reductions are
plain numpy sums over fixed axis order, which keeps runs bit-reproducible for
a given numpy version.
"""

from __future__ import annotations

import contextvars
import itertools
import os
import threading
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .scenario import DiffusionSpec, Scenario


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0 = t_0 < ... < t_N = horizon."""

    horizon: float
    steps: int

    def __post_init__(self):
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if self.steps < 1:
            raise ValueError("need at least one step")

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    @cached_property
    def times(self) -> np.ndarray:
        """The read-only grid times, formed once per grid."""
        times = np.linspace(0.0, self.horizon, self.steps + 1)
        times.flags.writeable = False
        return times


def make_time_grid(horizon: float, steps: int) -> TimeGrid:
    return TimeGrid(horizon=float(horizon), steps=int(steps))


@dataclass(frozen=True)
class BrownianEnsemble:
    """Increments dW on the grid, with shape (particles, steps)."""

    grid: TimeGrid
    increments: np.ndarray


def sample_brownian(grid: TimeGrid, particles: int, seed: int) -> BrownianEnsemble:
    """Draw iid N(0, dt) increments from a PCG64 stream."""
    if particles < 1:
        raise ValueError("particles must be positive")
    rng = np.random.default_rng(seed)
    dw = rng.standard_normal((particles, grid.steps)) * np.sqrt(grid.dt)
    return BrownianEnsemble(grid=grid, increments=dw)


@dataclass(frozen=True, eq=False)
class PathEnsemble:
    """Simulated reference paths.

    The state is a real number: values has shape (particles, steps + 1), and
    running_sup[i, k] is the running supremum of |x_i| up to t_k, the one path
    functional the coefficient registries may read besides the current state.

    An ensemble compares and hashes by identity, so results that depend only
    on it are held in weakref.WeakKeyDictionary holders keyed by it: an equal
    but distinct ensemble is another key, and a dead one drops its entries.
    """

    values: np.ndarray
    running_sup: np.ndarray
    driver: BrownianEnsemble

    @property
    def grid(self) -> TimeGrid:
        """The grid of the increments the paths were simulated from."""
        return self.driver.grid

    @property
    def particles(self) -> int:
        return self.values.shape[0]

    def state(self, t_index: int) -> np.ndarray:
        return self.values[:, t_index]

    def sup(self, t_index: int) -> np.ndarray:
        return self.running_sup[:, t_index]


def simulate_reference(brownian: BrownianEnsemble, sigma: DiffusionSpec,
                       initial: float) -> PathEnsemble:
    """Euler scheme for the driftless reference dynamics from the initial
    state, on the increments' grid.

    sigma is evaluated at the left endpoint of each interval.  A singular
    sigma value at any evaluation point aborts (SingularDiffusionError); the
    density process later needs sigma^{-1} along every path.
    """
    m, n = brownian.increments.shape
    xi = float(initial)
    x = np.empty((m, n + 1))
    sup = np.empty((m, n + 1))
    x[:, 0] = xi
    sup[:, 0] = abs(xi)
    times = brownian.grid.times
    for k in range(n):
        step = sigma.apply(times[k], x[:, k], sup[:, k], brownian.increments[:, k])
        x[:, k + 1] = x[:, k] + step
        sup[:, k + 1] = np.maximum(sup[:, k], np.abs(x[:, k + 1]))
    return PathEnsemble(values=x, running_sup=sup, driver=brownian)


def simulate_for_scenario(scenario: Scenario, particles: int,
                          steps: int, seed: int) -> PathEnsemble:
    """Grid + increments + reference paths in one call, horizon and initial
    state taken from the scenario."""
    grid = make_time_grid(scenario.horizon, steps)
    brownian = sample_brownian(grid, particles, seed)
    return simulate_reference(brownian, scenario.sigma, scenario.initial)


# Whole-path passes walk the ensemble in blocks of particles, each block over
# all the steps it needs and about this many (particle, step) entries: a
# block's rows are contiguous in memory, its temporaries stay in cache, and no
# whole-ensemble intermediate is ever held.
BLOCK_ENTRIES = 1 << 15


def particle_blocks(particles: int, steps: int) -> list[slice]:
    """Row slices that cover the particles in order, sized for blocks that
    span the given number of steps."""
    width = max(1, BLOCK_ENTRIES // max(steps, 1))
    return [slice(i, min(i + width, particles)) for i in range(0, particles, width)]


def available_cores() -> int:
    """The cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # no affinity call on this platform
        return os.cpu_count() or 1


# member_map runs at most this many workers.  Each member in flight holds its
# own flow, weights and block temporaries, and each extra thread its own malloc
# arena, so the cap bounds the memory of a family's pricing as well as its
# threads.  Wall time and peak RSS were measured with two workers only.
MEMBER_WORKERS = 2


def member_map(fn, members) -> list:
    """[fn(m) for m in members], with the members run concurrently.

    The members of a family share only read-only arrays (the ensemble, its
    increments and running sup), so each member's work is independent of
    the others'.  min(available_cores(), MEMBER_WORKERS, len(members))
    workers take the members in order, the calling thread among them; one
    worker starts no thread.  Each member runs in a copy of the caller's
    context, so numpy's errstate (a context variable) holds in every worker.
    Results come back in member order.  If members fail, the first failing
    one in member order re-raises its own exception, as the plain loop
    would, and the members after it not yet started are skipped; every
    worker has stopped before this returns.  fn should return only what the
    caller keeps, so a member's intermediates die inside its worker.
    """
    members = list(members)
    workers = min(available_cores(), MEMBER_WORKERS, len(members))
    caller = contextvars.copy_context()
    results = [None] * len(members)
    errors: dict[int, BaseException] = {}
    order = itertools.count()   # next() on it is atomic: each index is taken once
    lock = threading.Lock()
    stop = len(members)         # no member at or past stop is started

    def work():
        nonlocal stop
        # members are taken in order, so every member before a failing one
        # has been taken already and may still fail first in member order
        while (i := next(order)) < stop:
            try:
                results[i] = caller.copy().run(fn, members[i])
            except BaseException as exc:
                with lock:
                    errors[i] = exc
                    stop = min(stop, i)

    threads = [threading.Thread(target=work) for _ in range(workers - 1)]
    for thread in threads:
        thread.start()
    try:
        work()
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[min(errors)]
    return results


# The orders p of ensemble_moments.
_MOMENT_ORDERS = (1, 2, 4)


def ensemble_moments(paths: PathEnsemble) -> dict[int, float]:
    """Empirical E[|x_T|^p] at the horizon, p in _MOMENT_ORDERS: a stability check."""
    norms = np.abs(paths.values[:, -1])
    return {p: float(np.mean(norms ** p)) for p in _MOMENT_ORDERS}
