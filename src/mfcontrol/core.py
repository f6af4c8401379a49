"""Reference ensemble simulation.

Everything downstream works on one driftless reference ensemble

    x[i, k+1] = x[i, k] + sigma(t_k, path_i up to k) dW[i, k],   x[i, 0] = xi,

simulated once per (scenario, particles, steps, seed).  Controlled laws are
obtained later by reweighting this ensemble, never by resimulating, so a
single stored Brownian increment array serves every control and both game
players.  The ensemble is a function of that array: PathEnsemble is built
from the grid, the increments, sigma and the initial state and simulates
its own paths, so no ensemble pairs paths with increments they were not
simulated from; it keeps the sigma and initial state it was simulated
under, for reweighting and check_scenario.  All randomness flows through
one seeded generator; reductions are plain numpy sums over fixed axis
order, which keeps runs bit-reproducible for a given numpy version.
"""

from __future__ import annotations

import contextvars
import itertools
import math
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
        if not 0 < self.horizon < math.inf:   # NaN fails too
            raise ValueError("horizon must be positive and finite")
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


class EnsembleMismatchError(ValueError):
    """Things priced together do not share one ensemble or its reference law."""


def sample_brownian(grid: TimeGrid, particles: int, seed: int) -> np.ndarray:
    """Iid N(0, dt) increments from a PCG64 stream, shaped (particles, steps)."""
    if particles < 1:
        raise ValueError("particles must be positive")
    rng = np.random.default_rng(seed)
    return rng.standard_normal((particles, grid.steps)) * np.sqrt(grid.dt)


@dataclass(frozen=True, eq=False)
class PathEnsemble:
    """Reference paths simulated from their increments.

    The constructor runs the Euler scheme for the driftless reference
    dynamics from the initial state, with sigma evaluated at the left
    endpoint of each interval.  A singular sigma value at any evaluation
    point aborts (SingularDiffusionError); the density process later needs
    sigma^{-1} at these same points.  The state is a real number: the
    read-only values have shape (particles, steps + 1), and running_sup[i, k]
    is the running supremum of |x_i| up to t_k, the one path functional the
    coefficient registries may read besides the current state.  The
    increments are held as a read-only view, so the paths stay those of the
    increments and of the sigma and initial state kept beside them.  A block
    of rows R is PathEnsemble(paths.grid, paths.increments[R], paths.sigma,
    paths.initial), whose paths are the parent's rows R bit for bit.

    An ensemble compares and hashes by identity, so results that depend only
    on it are held in weakref.WeakKeyDictionary holders keyed by it: an equal
    but distinct ensemble is another key, and a dead one drops its entries.
    """

    grid: TimeGrid
    increments: np.ndarray
    sigma: DiffusionSpec
    initial: float

    def __post_init__(self):
        dw = self.increments.view()
        if dw.ndim != 2 or dw.shape[1] != self.grid.steps:
            raise ValueError(f"increments shaped {dw.shape}, expected (particles, "
                             f"{self.grid.steps}) on the grid")
        m, n = dw.shape
        xi = float(self.initial)
        x = np.empty((m, n + 1))
        sup = np.empty((m, n + 1))
        x[:, 0] = xi
        sup[:, 0] = abs(xi)
        times = self.grid.times
        for k in range(n):
            step = self.sigma.apply(times[k], x[:, k], sup[:, k], dw[:, k])
            x[:, k + 1] = x[:, k] + step
            sup[:, k + 1] = np.maximum(sup[:, k], np.abs(x[:, k + 1]))
        for name, held in (("increments", dw), ("values", x), ("running_sup", sup)):
            held.flags.writeable = False
            object.__setattr__(self, name, held)

    @property
    def particles(self) -> int:
        return self.values.shape[0]

    def state(self, t_index: int) -> np.ndarray:
        return self.values[:, t_index]

    def sup(self, t_index: int) -> np.ndarray:
        return self.running_sup[:, t_index]

    def check_scenario(self, scenario: Scenario):
        """Raise EnsembleMismatchError naming the scenario unless its (initial,
        horizon, sigma) are those the paths were simulated under; sigmas
        compare by the values they compute (DiffusionSpec.form)."""
        law = (self.initial, self.grid.horizon, self.sigma.form)
        if (own := (scenario.initial, scenario.horizon, scenario.sigma.form)) != law:
            raise EnsembleMismatchError(f"scenario {scenario.name!r} has (initial, horizon, "
                                        f"sigma) {own}, not the ensemble's {law}")


def simulate_for_scenario(scenario: Scenario, particles: int,
                          steps: int, seed: int) -> PathEnsemble:
    """Grid + increments + reference paths in one call, horizon and initial
    state taken from the scenario."""
    grid = TimeGrid(scenario.horizon, steps)
    return PathEnsemble(grid, sample_brownian(grid, particles, seed),
                        scenario.sigma, scenario.initial)


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
# own flow, weights and block scratch, each worker's fixed points keep one
# pooled drift base per ensemble alive (girsanov's free list), and each extra
# thread has its own malloc arena, so the cap bounds the memory of a family's
# pricing as well as its threads.  Wall time and peak RSS were measured with
# two workers only.
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
