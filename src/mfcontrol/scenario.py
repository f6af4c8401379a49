"""Declarative model registry.

A scenario bundles everything that defines a controlled mean-field problem:
diffusion coefficient, drift family, running and terminal costs, the
statistics through which the law enters the coefficients, and the admissible
action grid(s).  All of it is data.  Coefficients are picked from small closed
registries instead of accepting user callables, so a scenario can be parsed
from a config document, validated, serialized back out, and hashed into a
reproducible report.

Registered functional forms (d = 1 unless stated otherwise):

    diffusion   constant s0 (any d, optionally a full matrix),
                affine_state  s0 + s1 * x,
                sup_modulated s0 + s1 * sup_{r<=t} |x_r|
    drift       A * x + sum_j B_j * m_j(t) + C * u [+ Cv * v] + c0,
                optional tanh clip
    run cost    0.5 * q * u^2 [+ 0.5 * qv * v^2 + b * u * v] + l * u [+ lv * v]
                + const + state term + stat term
    terminal    linear | tanh | variance  (variance: phi(x)^2 - mean(phi)^2)
    statistic   identity | square | tanh | indicator_bin

A game carries a second action grid for its maximizer v, which alone reads
the bracketed terms: a control problem is the game without a maximizer.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from typing import Any

import numpy as np

CERTIFIED = "certified"
NOT_CERTIFIED = "not-certified"
VIOLATED = "violated"

_STAT_KINDS = ("identity", "square", "tanh", "indicator_bin")
_SIGMA_KINDS = ("constant", "affine_state", "sup_modulated")
_TERMINAL_KINDS = ("linear", "tanh", "variance")


class ConfigError(ValueError):
    """Malformed or inconsistent scenario configuration."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


class UnknownScenarioError(ConfigError):
    pass


class ValidationBlockedError(RuntimeError):
    """A violated assumption blocks the requested computation."""


# ---------------------------------------------------------------------------
# statistics


@dataclass(frozen=True)
class StatisticSpec:
    """Scalar statistic psi(x) of the current state (coordinate 0)."""

    kind: str
    scale: float = 1.0
    lo: float = 0.0
    hi: float = 1.0

    def __post_init__(self):
        if self.kind not in _STAT_KINDS:
            raise ConfigError("statistics", f"unknown statistic kind {self.kind!r}")
        if self.kind == "tanh" and self.scale <= 0:
            raise ConfigError("statistics", "tanh scale must be positive")
        if self.kind == "indicator_bin" and not self.lo < self.hi:
            raise ConfigError("statistics", "indicator_bin needs lo < hi")

    @property
    def bounded(self) -> bool:
        return self.kind in ("tanh", "indicator_bin")

    def evaluate(self, state: np.ndarray) -> np.ndarray:
        """state (M, d) -> (M,) values of psi."""
        x = np.asarray(state)[..., 0]
        if self.kind == "identity":
            return x
        if self.kind == "square":
            return x * x
        if self.kind == "tanh":
            return np.tanh(x / self.scale)
        return ((x >= self.lo) & (x < self.hi)).astype(float)


# ---------------------------------------------------------------------------
# diffusion


class SingularDiffusionError(RuntimeError):
    """sigma evaluated to a (near-)singular value along some path."""


_SIGMA_FLOOR = 1e-12


@dataclass(frozen=True)
class DiffusionSpec:
    """Diffusion coefficient sigma(t, path).  Scalar registry for d = 1;
    the constant kind also accepts a full d x d matrix.

    alpha records the growth exponent claimed for |sigma^{-1}|; it is echoed
    in validation reports and never used numerically.
    """

    kind: str = "constant"
    base: float = 1.0
    slope: float = 0.0
    matrix: tuple[tuple[float, ...], ...] | None = None
    alpha: float = 0.0

    def __post_init__(self):
        if self.kind not in _SIGMA_KINDS:
            raise ConfigError("diffusion.kind", f"unknown diffusion kind {self.kind!r}")
        if self.matrix is not None and self.kind != "constant":
            raise ConfigError("diffusion.matrix", "matrix form requires kind constant")

    def matrix_array(self) -> np.ndarray | None:
        if self.matrix is None:
            return None
        return np.asarray(self.matrix, dtype=float)

    @property
    def bounded(self) -> bool:
        return self.kind == "constant" or self.slope == 0.0

    def invertibility(self) -> tuple[str, str]:
        """(status, reason) for the invertibility of sigma."""
        if self.kind == "constant":
            m = self.matrix_array()
            if m is not None:
                if abs(float(np.linalg.det(m))) < _SIGMA_FLOOR:
                    return VIOLATED, "constant matrix is singular"
                return CERTIFIED, "constant invertible matrix"
            if abs(self.base) < _SIGMA_FLOOR:
                return VIOLATED, "constant sigma is zero"
            return CERTIFIED, "constant nonzero scalar"
        if self.kind == "sup_modulated":
            if self.base > 0 and self.slope >= 0:
                return CERTIFIED, "sigma >= base > 0 for all paths"
            return NOT_CERTIFIED, "sup-modulated sigma can reach zero"
        # affine_state can cross zero whenever slope != 0
        if self.slope == 0.0:
            if abs(self.base) < _SIGMA_FLOOR:
                return VIOLATED, "constant sigma is zero"
            return CERTIFIED, "degenerate affine is a nonzero constant"
        return NOT_CERTIFIED, "affine sigma has a zero crossing; guarded at runtime"

    def scalar_values(self, t: float, x0: np.ndarray, sup: np.ndarray) -> np.ndarray:
        """Pointwise sigma values for d = 1 kinds, broadcast over particles."""
        if self.kind == "constant":
            return np.broadcast_to(np.asarray(self.base, dtype=float), np.shape(x0)).copy()
        if self.kind == "affine_state":
            vals = self.base + self.slope * x0
        else:
            vals = self.base + self.slope * sup
        return np.asarray(vals, dtype=float)

    def _guard(self, vals: np.ndarray, t):
        """Raise on a (near-)zero sigma value.  t is one grid time or, for a
        block of steps, the times along the last axis of vals; the message
        names the first singular time and its particle count."""
        bad = np.abs(vals) < _SIGMA_FLOOR
        if np.any(bad):
            if np.ndim(t):
                bad = bad.reshape(-1, np.size(t))
                first = int(np.argmax(np.any(bad, axis=0)))
                t, bad = np.ravel(t)[first], bad[:, first]
            raise SingularDiffusionError(
                f"sigma is singular at t={t:g} for {int(np.count_nonzero(bad))} particle(s)"
            )

    def apply(self, t: float, state: np.ndarray, sup: np.ndarray, vec: np.ndarray) -> np.ndarray:
        """sigma(t, path) @ vec, vec shaped (M, d)."""
        m = self.matrix_array()
        if m is not None:
            if abs(float(np.linalg.det(m))) < _SIGMA_FLOOR:
                raise SingularDiffusionError("constant sigma matrix is singular")
            return vec @ m.T
        if state.shape[-1] == 1:
            vals = self.scalar_values(t, state[..., 0], sup)
            self._guard(vals, t)
            return vals[..., None] * vec
        # constant scalar times identity in d > 1
        self._guard(np.asarray([self.base]), t)
        return self.base * vec

    def inv_apply(self, t, state: np.ndarray, sup: np.ndarray, vec: np.ndarray) -> np.ndarray:
        """sigma^{-1}(t, path) @ vec.

        One grid time with state (M, d), sup (M,), vec (M, d), or a block of
        steps: t (B,), state (M, B, d), sup (M, B), vec (M, B, d)."""
        m = self.matrix_array()
        if m is not None:
            if abs(float(np.linalg.det(m))) < _SIGMA_FLOOR:
                raise SingularDiffusionError("constant sigma matrix is singular")
            flat = vec.reshape(-1, vec.shape[-1])
            return np.linalg.solve(m, flat.T).T.reshape(vec.shape)
        if state.shape[-1] == 1:
            if self.kind == "constant":
                if abs(self.base) < _SIGMA_FLOOR:
                    self._guard(self.scalar_values(t, state[..., 0], sup), t)
                return (1.0 / self.base) * vec
            vals = self.scalar_values(t, state[..., 0], sup)
            self._guard(vals, t)
            return (1.0 / vals)[..., None] * vec
        self._guard(np.asarray([self.base]), np.ravel(t)[0])
        return vec / self.base

    def inv_quadform(self, t, state: np.ndarray, sup: np.ndarray, vec: np.ndarray) -> np.ndarray:
        """vec^T (sigma sigma^T)^{-1} vec per particle, for the Hellinger
        integrand; one grid time or a block of steps, as in inv_apply."""
        m = self.matrix_array()
        if m is not None:
            a = m @ m.T
            flat = vec.reshape(-1, vec.shape[-1])
            sol = np.linalg.solve(a, flat.T).T
            return np.einsum("ij,ij->i", flat, sol).reshape(vec.shape[:-1])
        if state.shape[-1] == 1:
            return self.inv_apply(t, state, sup, vec)[..., 0] ** 2
        self._guard(np.asarray([self.base]), np.ravel(t)[0])
        return np.sum(vec * vec, axis=-1) / self.base**2


# ---------------------------------------------------------------------------
# drift


@dataclass(frozen=True)
class DriftSpec:
    """Controlled drift f(t, x, mu, u, v) = A x + sum B_j m_j + C u + Cv v + c0.

    stats maps statistic names to coefficients B_j; m_j(t) is the flow's value
    of that statistic.  A control problem has no maximizer v, so control_v is
    read only when a v is passed.  bound_scale, when set, clips the affine
    form through scale * tanh(raw / scale), preserving Lipschitz constants
    while making f bounded.
    """

    state: float = 0.0
    stats: tuple[tuple[str, float], ...] = ()
    control: float = 0.0
    control_v: float = 0.0
    const: float = 0.0
    bound_scale: float | None = None

    def __post_init__(self):
        if self.bound_scale is not None and self.bound_scale <= 0:
            raise ConfigError("drift.bound_scale", "bound scale must be positive")

    def stat_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.stats)

    @property
    def trivially_zero(self) -> bool:
        return (
            self.state == 0.0
            and self.control == 0.0
            and self.control_v == 0.0
            and self.const == 0.0
            and all(c == 0.0 for _, c in self.stats)
        )

    def evaluate(self, x0, stats_row, u, v=None):
        """Scalar drift (coordinate 0), broadcasting over any leading shape."""
        out = self.state * x0 + self.control * u
        if v is not None:
            out = out + self.control_v * v
        out = out + self.const
        for name, coeff in self.stats:
            if coeff != 0.0:
                out = out + coeff * stats_row[name]
        if self.bound_scale is not None:
            out = self.bound_scale * np.tanh(out / self.bound_scale)
        return out


# ---------------------------------------------------------------------------
# costs


@dataclass(frozen=True)
class StateTermSpec:
    """Bounded-or-flagged state contribution to a cost: coeff * phi(x0)."""

    kind: str = "none"  # none | identity | tanh
    coeff: float = 0.0
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in ("none", "identity", "tanh"):
            raise ConfigError("cost.state.kind", f"unknown state term kind {self.kind!r}")
        if self.kind == "tanh" and self.scale <= 0:
            raise ConfigError("cost.state.scale", "tanh scale must be positive")

    @property
    def bounded(self) -> bool:
        return self.kind != "identity" or self.coeff == 0.0

    def evaluate(self, x0):
        if self.kind == "none" or self.coeff == 0.0:
            return 0.0
        if self.kind == "identity":
            return self.coeff * x0
        return self.coeff * np.tanh(x0 / self.scale)


@dataclass(frozen=True)
class CostSpec:
    """Running cost h(t, x, mu, u, v) = 0.5 q u^2 + 0.5 qv v^2 + b u v + l u
    + lv v + state + stat + const; the v terms are read only when a v is
    passed."""

    quad: float = 0.0
    lin: float = 0.0
    const: float = 0.0
    state_term: StateTermSpec = StateTermSpec()
    stat: tuple[str, float] | None = None
    quad_v: float = 0.0
    bilinear: float = 0.0
    lin_v: float = 0.0

    def stat_names(self) -> tuple[str, ...]:
        return (self.stat[0],) if self.stat is not None else ()

    def evaluate(self, x0, stats_row, u, v=None):
        out = 0.5 * self.quad * u * u
        if v is not None:
            out = out + 0.5 * self.quad_v * v * v + self.bilinear * u * v
        out = out + self.lin * u
        if v is not None:
            out = out + self.lin_v * v
        out = out + self.const + self.state_term.evaluate(x0)
        if self.stat is not None and self.stat[1] != 0.0:
            out = out + self.stat[1] * stats_row[self.stat[0]]
        out = np.asarray(out, dtype=float)
        if out.ndim == 0:
            # all coefficients vanished; keep per-particle shape for reductions
            out = np.broadcast_to(out, np.broadcast_shapes(
                *(np.shape(a) for a in (x0, u, v) if a is not None)))
        return out


@dataclass(frozen=True)
class TerminalSpec:
    """Terminal cost g(x, mu_T).

    variance kind: g = phi(x)^2 - mean_mu(phi)^2 with phi a registered
    statistic, so that E^u[g] is the variance of phi(x_T) under the controlled
    law.
    """

    kind: str = "linear"
    coeff: float = 1.0
    const: float = 0.0
    scale: float = 1.0
    stat: str = ""

    def __post_init__(self):
        if self.kind not in _TERMINAL_KINDS:
            raise ConfigError("terminal_cost.kind", f"unknown terminal kind {self.kind!r}")
        if self.kind == "tanh" and self.scale <= 0:
            raise ConfigError("terminal_cost.scale", "tanh scale must be positive")
        if self.kind == "variance" and not self.stat:
            raise ConfigError("terminal_cost.stat", "variance terminal needs a statistic name")

    def stat_names(self) -> tuple[str, ...]:
        return (self.stat,) if self.kind == "variance" else ()

    def bounded(self, statistics: dict[str, StatisticSpec]) -> bool:
        if self.kind == "tanh":
            return True
        if self.kind == "linear":
            return self.coeff == 0.0
        return statistics[self.stat].bounded

    def evaluate(self, state: np.ndarray, stats_row: dict[str, float],
                 statistics: dict[str, StatisticSpec]) -> np.ndarray:
        x0 = np.asarray(state)[..., 0]
        if self.kind == "linear":
            return self.coeff * x0 + self.const
        if self.kind == "tanh":
            return self.coeff * np.tanh(x0 / self.scale) + self.const
        phi = statistics[self.stat].evaluate(state)
        return phi * phi - stats_row[self.stat] ** 2


# ---------------------------------------------------------------------------
# actions


@dataclass(frozen=True)
class ActionGrid:
    """Finite admissible action set, kept sorted so argmin ties resolve to the
    lexicographically smallest action."""

    points: tuple[tuple[float, ...], ...]
    lo: float | None = None
    hi: float | None = None
    count: int | None = None

    def __post_init__(self):
        if len(self.points) == 0:
            raise ConfigError("actions", "action grid is empty")
        dims = {len(p) for p in self.points}
        if len(dims) != 1 or 0 in dims:
            raise ConfigError("actions", "action points need one common dimension >= 1")
        if tuple(sorted(self.points)) != self.points:
            raise ConfigError("actions", "action points must be lexicographically sorted")

    @classmethod
    def box(cls, lo: float, hi: float, count: int) -> "ActionGrid":
        if count < 1 or hi < lo:
            raise ConfigError("actions", "box grid needs count >= 1 and hi >= lo")
        if count == 1:
            pts = (((lo + hi) / 2.0),)
            return cls(points=((pts[0],),), lo=lo, hi=hi, count=1)
        vals = np.linspace(lo, hi, count)
        return cls(points=tuple((float(v),) for v in vals), lo=lo, hi=hi, count=count)

    @classmethod
    def explicit(cls, pts) -> "ActionGrid":
        points = tuple(sorted(tuple(float(c) for c in np.atleast_1d(p)) for p in pts))
        return cls(points=points)

    @property
    def dim(self) -> int:
        return len(self.points[0])

    @property
    def size(self) -> int:
        return len(self.points)

    def array(self) -> np.ndarray:
        return np.asarray(self.points, dtype=float)

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        arr = self.array()
        return arr.min(axis=0), arr.max(axis=0)

    @property
    def resolution(self) -> float:
        """Largest gap between consecutive grid values (coordinate-wise max)."""
        arr = self.array()
        gaps = []
        for j in range(arr.shape[1]):
            vals = np.unique(arr[:, j])
            gaps.append(0.0 if len(vals) < 2 else float(np.max(np.diff(vals))))
        return max(gaps)


# ---------------------------------------------------------------------------
# scenarios


class _ScenarioViews:
    """Views shared by the single-controller and the two-player scenario."""

    @property
    def initial_array(self) -> np.ndarray:
        return np.asarray(self.initial, dtype=float)

    @property
    def statistic_map(self) -> dict[str, StatisticSpec]:
        return dict(self.statistics)

    def referenced_statistics(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys((*self.drift.stat_names(), *self.running_cost.stat_names(),
                                    *self.terminal_cost.stat_names())))


@dataclass(frozen=True)
class Scenario(_ScenarioViews):
    """Immutable single-controller problem description."""

    name: str
    dim: int
    initial: tuple[float, ...]
    horizon: float
    sigma: DiffusionSpec
    drift: DriftSpec
    running_cost: CostSpec
    terminal_cost: TerminalSpec
    statistics: tuple[tuple[str, StatisticSpec], ...]
    actions: ActionGrid

    kind = "control"

    @property
    def grids(self) -> tuple[ActionGrid]:
        return (self.actions,)


@dataclass(frozen=True)
class GameScenario(_ScenarioViews):
    """Immutable zero-sum two-player problem description.  Player u minimizes
    the payoff, player v maximizes."""

    name: str
    dim: int
    initial: tuple[float, ...]
    horizon: float
    sigma: DiffusionSpec
    drift: DriftSpec
    running_cost: CostSpec
    terminal_cost: TerminalSpec
    statistics: tuple[tuple[str, StatisticSpec], ...]
    actions_u: ActionGrid
    actions_v: ActionGrid

    kind = "game"

    @property
    def grids(self) -> tuple[ActionGrid, ActionGrid]:
        return (self.actions_u, self.actions_v)


# ---------------------------------------------------------------------------
# parsing


def _require(doc: dict, key: str, path: str):
    if key not in doc:
        raise ConfigError(f"{path}.{key}" if path else key, "missing required field")
    return doc[key]


def _as_float(value, path: str) -> float:
    # not <= also rejects NaN, and the int comparison is exact (no overflow)
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not abs(value) <= sys.float_info.max:
        raise ConfigError(path, f"expected a finite number, got {value!r}")
    return float(value)


_TYPE_NAMES = {dict: "a mapping", list: "a list", str: "a string"}


def _expect(value, kind: type, path: str):
    if not isinstance(value, kind):
        raise ConfigError(path, f"expected {_TYPE_NAMES[kind]}, got {value!r}")
    return value


def _parse_statistics(doc, path) -> tuple[tuple[str, StatisticSpec], ...]:
    if not isinstance(doc, dict):
        raise ConfigError(path, "statistics must be a mapping of name -> spec")
    out = []
    for name, spec in doc.items():
        if not isinstance(spec, dict) or "kind" not in spec:
            raise ConfigError(f"{path}.{name}", "statistic spec needs a kind")
        kind = spec["kind"]
        if kind not in _STAT_KINDS:
            raise ConfigError(f"{path}.{name}.kind", f"unknown statistic kind {kind!r}")
        out.append((name, StatisticSpec(
            kind=kind,
            scale=_as_float(spec.get("scale", 1.0), f"{path}.{name}.scale"),
            lo=_as_float(spec.get("lo", 0.0), f"{path}.{name}.lo"),
            hi=_as_float(spec.get("hi", 1.0), f"{path}.{name}.hi"),
        )))
    return tuple(out)


def _parse_stat_coeffs(doc, path, registered) -> tuple[tuple[str, float], ...]:
    if doc is None:
        return ()
    if not isinstance(doc, dict):
        raise ConfigError(path, "stat coefficients must be a mapping name -> number")
    out = []
    for name, coeff in doc.items():
        if name not in registered:
            raise ConfigError(f"{path}.{name}", f"statistic {name!r} is not registered")
        out.append((name, _as_float(coeff, f"{path}.{name}")))
    return tuple(out)


def _parse_state_term(doc, path) -> StateTermSpec:
    if doc is None:
        return StateTermSpec()
    doc = _expect(doc, dict, path)
    return StateTermSpec(
        kind=doc.get("kind", "none"),
        coeff=_as_float(doc.get("coeff", 0.0), f"{path}.coeff"),
        scale=_as_float(doc.get("scale", 1.0), f"{path}.scale"),
    )


def _parse_actions(doc, path) -> ActionGrid:
    doc = _expect(doc, dict, path)
    if "points" in doc:
        points = _expect(doc["points"], list, f"{path}.points")
        return ActionGrid.explicit(
            [[_as_float(c, f"{path}.points[{i}]") for c in (p if isinstance(p, list) else [p])]
             for i, p in enumerate(points)])
    lo = _as_float(_require(doc, "lo", path), f"{path}.lo")
    hi = _as_float(_require(doc, "hi", path), f"{path}.hi")
    count = _require(doc, "count", path)
    if not isinstance(count, int) or isinstance(count, bool):
        raise ConfigError(f"{path}.count", "count must be an integer")
    return ActionGrid.box(lo, hi, count)


def _parse_terminal(doc, path, registered) -> TerminalSpec:
    doc = _expect(doc, dict, path)
    kind = doc.get("kind", "linear")
    spec = TerminalSpec(
        kind=kind,
        coeff=_as_float(doc.get("coeff", 1.0), f"{path}.coeff"),
        const=_as_float(doc.get("const", 0.0), f"{path}.const"),
        scale=_as_float(doc.get("scale", 1.0), f"{path}.scale"),
        stat=_expect(doc.get("stat", ""), str, f"{path}.stat"),
    )
    if spec.kind == "variance" and spec.stat not in registered:
        raise ConfigError(f"{path}.stat", f"statistic {spec.stat!r} is not registered")
    return spec


# The keys each scenario kind accepts in its drift and running_cost mappings.
# A game spells its u-side coefficients with a _u suffix; the registry field
# drops it.
_DRIFT_KEYS = {
    "control": ("state", "stats", "control", "const", "bound_scale"),
    "game": ("state", "stats", "control_u", "control_v", "const", "bound_scale"),
}
_COST_KEYS = {
    "control": ("quad", "lin", "const", "state", "stat"),
    "game": ("quad_u", "quad_v", "bilinear", "lin_u", "lin_v", "const", "state", "stat"),
}
_DRIFT_PARSED = ("stats", "bound_scale")   # every other drift key is a number
_COST_PARSED = ("state", "stat")           # every other cost key is a number
_GRID_KEYS = {"control": ("actions",), "game": ("actions_u", "actions_v")}


def _keyed(doc, path: str, keys: tuple[str, ...], kind: str) -> dict:
    doc = _expect(doc, dict, path)
    for key in doc:
        if key not in keys:
            raise ConfigError(f"{path}.{key}", f"unknown key for a {kind} scenario; "
                                               f"expected one of {', '.join(keys)}")
    return doc


def _coefficients(doc: dict, path: str, keys: tuple[str, ...], parsed: tuple[str, ...]) -> dict:
    """Registry field -> number for the numeric keys of a drift or cost mapping."""
    return {key.removesuffix("_u"): _as_float(doc.get(key, 0.0), f"{path}.{key}")
            for key in keys if key not in parsed}


def parse_scenario(text: str | dict) -> Scenario | GameScenario:
    """Parse a config document (JSON text or an already-decoded mapping).

    Raises ConfigError with a dotted path into the document on the first
    offending field.
    """
    if isinstance(text, str):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError("<document>", f"invalid JSON: {exc}") from exc
    else:
        doc = text
    if not isinstance(doc, dict):
        raise ConfigError("<document>", "top level must be a mapping")

    kind = doc.get("kind", "control")
    if kind not in ("control", "game"):
        raise ConfigError("kind", f"unknown scenario kind {kind!r}")

    dim = doc.get("dimension", 1)
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ConfigError("dimension", "dimension must be a positive integer")

    initial = _require(doc, "initial", "")
    if isinstance(initial, (int, float)) and not isinstance(initial, bool):
        initial = [initial]
    if not isinstance(initial, list) or len(initial) != dim:
        raise ConfigError("initial", f"initial state must list {dim} coordinate(s)")
    initial_t = tuple(_as_float(v, "initial") for v in initial)

    horizon = _as_float(_require(doc, "horizon", ""), "horizon")
    if horizon <= 0:
        raise ConfigError("horizon", "horizon must be positive")

    sdoc = _expect(doc.get("diffusion", {"kind": "constant", "base": 1.0}), dict, "diffusion")
    sigma = DiffusionSpec(
        kind=sdoc.get("kind", "constant"),
        base=_as_float(sdoc.get("base", 1.0), "diffusion.base"),
        slope=_as_float(sdoc.get("slope", 0.0), "diffusion.slope"),
        matrix=tuple(tuple(_as_float(v, "diffusion.matrix") for v in _expect(row, list, "diffusion.matrix"))
                     for row in _expect(sdoc["matrix"], list, "diffusion.matrix")) if sdoc.get("matrix") is not None else None,
        alpha=_as_float(sdoc.get("alpha", 0.0), "diffusion.alpha"),
    )
    if sigma.kind != "constant" and dim != 1:
        raise ConfigError("diffusion.kind", "state-dependent sigma requires dimension 1")
    if sigma.matrix is not None and (len(sigma.matrix) != dim or any(len(r) != dim for r in sigma.matrix)):
        raise ConfigError("diffusion.matrix", f"matrix must be {dim} x {dim}")

    statistics = _parse_statistics(doc.get("statistics", {}), "statistics")
    registered = {name for name, _ in statistics}

    ddoc = _keyed(doc.get("drift", {}), "drift", _DRIFT_KEYS[kind], kind)
    bound_scale = ddoc.get("bound_scale")
    if bound_scale is not None:
        bound_scale = _as_float(bound_scale, "drift.bound_scale")

    name = _expect(doc.get("name", "custom"), str, "name")
    hdoc = _keyed(doc.get("running_cost", {}), "running_cost", _COST_KEYS[kind], kind)

    drift = DriftSpec(
        **_coefficients(ddoc, "drift", _DRIFT_KEYS[kind], _DRIFT_PARSED),
        stats=_parse_stat_coeffs(ddoc.get("stats"), "drift.stats", registered),
        bound_scale=bound_scale,
    )
    stat = hdoc.get("stat")
    if stat is not None:
        if not isinstance(stat, list) or len(stat) != 2:
            raise ConfigError("running_cost.stat", "expected [name, coeff]")
        if stat[0] not in registered:
            raise ConfigError("running_cost.stat", f"statistic {stat[0]!r} is not registered")
        stat = (stat[0], _as_float(stat[1], "running_cost.stat"))
    running = CostSpec(
        **_coefficients(hdoc, "running_cost", _COST_KEYS[kind], _COST_PARSED),
        state_term=_parse_state_term(hdoc.get("state"), "running_cost.state"),
        stat=stat,
    )
    terminal = _parse_terminal(doc.get("terminal_cost", {"kind": "linear"}),
                               "terminal_cost", registered)
    grids = {key: _parse_actions(_require(doc, key, ""), key) for key in _GRID_KEYS[kind]}
    if dim > 1 and not drift.trivially_zero:
        raise ConfigError("drift", "nonzero drift registry requires dimension 1")
    cls = Scenario if kind == "control" else GameScenario
    return cls(name=name, dim=dim, initial=initial_t, horizon=horizon, sigma=sigma,
               drift=drift, running_cost=running, terminal_cost=terminal,
               statistics=statistics, **grids)


def serialize_scenario(s: Scenario | GameScenario) -> dict:
    """Inverse of parse_scenario, up to field defaults."""
    doc: dict[str, Any] = {
        "kind": s.kind,
        "name": s.name,
        "dimension": s.dim,
        "initial": list(s.initial),
        "horizon": s.horizon,
        "diffusion": {
            "kind": s.sigma.kind,
            "base": s.sigma.base,
            "slope": s.sigma.slope,
            "alpha": s.sigma.alpha,
        },
        "statistics": {
            name: {"kind": spec.kind, "scale": spec.scale, "lo": spec.lo, "hi": spec.hi}
            for name, spec in s.statistics
        },
    }
    if s.sigma.matrix is not None:
        doc["diffusion"]["matrix"] = [list(row) for row in s.sigma.matrix]

    term = {"kind": s.terminal_cost.kind, "coeff": s.terminal_cost.coeff,
            "const": s.terminal_cost.const, "scale": s.terminal_cost.scale}
    if s.terminal_cost.kind == "variance":
        term["stat"] = s.terminal_cost.stat
    doc["terminal_cost"] = term

    doc["drift"] = {key: getattr(s.drift, key.removesuffix("_u")) for key in _DRIFT_KEYS[s.kind]}
    doc["drift"]["stats"] = dict(s.drift.stats)
    cost = s.running_cost
    doc["running_cost"] = {key: getattr(cost, key.removesuffix("_u"))
                           for key in _COST_KEYS[s.kind] if key not in _COST_PARSED}
    if cost.state_term.kind != "none":
        doc["running_cost"]["state"] = {"kind": cost.state_term.kind,
                                        "coeff": cost.state_term.coeff,
                                        "scale": cost.state_term.scale}
    if cost.stat is not None:
        doc["running_cost"]["stat"] = [cost.stat[0], cost.stat[1]]

    for key, grid in zip(_GRID_KEYS[s.kind], s.grids):
        doc[key] = ({"lo": grid.lo, "hi": grid.hi, "count": grid.count} if grid.lo is not None
                    else {"points": [list(p) for p in grid.points]})
    return doc


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class AssumptionStatus:
    code: str
    title: str
    status: str
    reason: str


@dataclass(frozen=True)
class ValidationReport:
    scenario: str
    kind: str
    alpha: float
    entries: tuple[AssumptionStatus, ...]

    def status_of(self, code: str) -> AssumptionStatus:
        for e in self.entries:
            if e.code == code:
                return e
        raise KeyError(code)

    @property
    def violated(self) -> tuple[AssumptionStatus, ...]:
        return tuple(e for e in self.entries if e.status == VIOLATED)

    @property
    def blocked(self) -> bool:
        return len(self.violated) > 0

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "kind": self.kind,
            "alpha": self.alpha,
            "entries": [
                {"code": e.code, "title": e.title, "status": e.status, "reason": e.reason}
                for e in self.entries
            ],
            "blocked": self.blocked,
        }


def validate_scenario(s: Scenario | GameScenario) -> ValidationReport:
    """Static certification of the standing assumptions.

    Statuses are certified / not-certified / violated.  Only violated entries
    block optimization (a not-certified entry means the registry cannot prove
    the property, e.g. an unbounded statistic in the drift coupling).
    """
    entries: list[AssumptionStatus] = []
    stats = s.statistic_map
    inv_status, inv_reason = s.sigma.invertibility()

    entries.append(AssumptionStatus(
        "A1", "coefficients progressively measurable", CERTIFIED,
        "registry functions read (t, x_t, running sup) only"))
    lip = CERTIFIED if s.sigma.kind == "constant" or math.isfinite(s.sigma.slope) else NOT_CERTIFIED
    entries.append(AssumptionStatus(
        "A2a", "sigma functional Lipschitz", lip,
        "constant or affine registry kinds have explicit Lipschitz constants"))
    entries.append(AssumptionStatus("A2b", "sigma invertible", inv_status, inv_reason))
    entries.append(AssumptionStatus(
        "A2c", "sigma linear growth", CERTIFIED,
        "all registry kinds grow at most linearly in the running sup"))

    drift_stats = s.drift.stat_names()
    unbounded = tuple(n for n in drift_stats if not stats[n].bounded)
    entries.append(AssumptionStatus(
        "A3", "drift jointly measurable", CERTIFIED,
        "affine registry in (x, m, actions) with optional tanh clip"))
    entries.append(AssumptionStatus(
        "A4", "drift Lipschitz in the measure", CERTIFIED if not unbounded else NOT_CERTIFIED,
        "all coupling statistics bounded" if not unbounded
        else f"unbounded coupling statistic(s): {', '.join(unbounded)}"))
    entries.append(AssumptionStatus(
        "A5", "drift linear growth", CERTIFIED,
        "affine form; tanh clip only tightens the bound"))
    entries.append(AssumptionStatus(
        "A6", "sigma and its inverse bounded",
        CERTIFIED if (s.sigma.bounded and inv_status == CERTIFIED) else NOT_CERTIFIED,
        "constant invertible sigma" if (s.sigma.bounded and inv_status == CERTIFIED)
        else "state-dependent or non-certified sigma"))

    prefix = "C" if s.kind == "game" else "B"
    entries.append(AssumptionStatus(
        f"{prefix}1", "action sets compact metric", CERTIFIED,
        "finite grids with the Euclidean metric"))
    cost_stats = (*s.running_cost.stat_names(), *s.terminal_cost.stat_names())
    cost_unbounded = tuple(n for n in cost_stats if not stats[n].bounded)
    entries.append(AssumptionStatus(
        f"{prefix}2", "costs Lipschitz in the measure",
        CERTIFIED if not cost_unbounded else NOT_CERTIFIED,
        "cost statistics bounded" if not cost_unbounded
        else f"unbounded cost statistic(s): {', '.join(cost_unbounded)}"))
    entries.append(AssumptionStatus(
        f"{prefix}3", "costs measurable and continuous in actions", CERTIFIED,
        "polynomial registry forms"))

    h_bounded = s.running_cost.state_term.bounded
    g_bounded = s.terminal_cost.bounded(stats)
    if h_bounded and g_bounded:
        b4 = (CERTIFIED, "state terms bounded; action terms bounded on compact grids")
    else:
        parts = []
        if not h_bounded:
            parts.append("running cost has an unbounded state term")
        if not g_bounded:
            parts.append("terminal cost is unbounded in the state")
        b4 = (NOT_CERTIFIED, "; ".join(parts))
    entries.append(AssumptionStatus(f"{prefix}4", "costs uniformly bounded", b4[0], b4[1]))

    return ValidationReport(scenario=s.name, kind=s.kind, alpha=s.sigma.alpha,
                            entries=tuple(entries))


def assert_runnable(report: ValidationReport, override: bool = False):
    """Raise unless no assumption is violated (or the caller overrides)."""
    if report.blocked and not override:
        codes = ", ".join(f"{e.code} ({e.reason})" for e in report.violated)
        raise ValidationBlockedError(
            f"scenario {report.scenario!r} has violated assumptions: {codes}")


# ---------------------------------------------------------------------------
# built-ins


_BUILTINS: dict[str, dict] = {
    "zero-drift": {
        "kind": "control",
        "name": "zero-drift",
        "dimension": 1,
        "initial": [0.0],
        "horizon": 1.0,
        "diffusion": {"kind": "constant", "base": 1.0},
        "statistics": {"mean": {"kind": "identity"}},
        "drift": {},
        "running_cost": {},
        "terminal_cost": {"kind": "linear", "coeff": 1.0},
        "actions": {"lo": -1.0, "hi": 1.0, "count": 21},
    },
    "linear-quadratic": {
        "kind": "control",
        "name": "linear-quadratic",
        "dimension": 1,
        "initial": [0.0],
        "horizon": 1.0,
        "diffusion": {"kind": "constant", "base": 1.0},
        "statistics": {"mean": {"kind": "identity"}},
        "drift": {"control": 1.0},
        "running_cost": {"quad": 1.0},
        "terminal_cost": {"kind": "linear", "coeff": 1.0},
        "actions": {"lo": -1.0, "hi": 1.0, "count": 21},
    },
    "mean-field-mean-reversion": {
        "kind": "control",
        "name": "mean-field-mean-reversion",
        "dimension": 1,
        "initial": [0.0],
        "horizon": 1.0,
        "diffusion": {"kind": "constant", "base": 1.0},
        "statistics": {"mean": {"kind": "identity"}},
        "drift": {"state": -0.5, "stats": {"mean": 0.5}, "control": 1.0},
        "running_cost": {"quad": 1.0},
        "terminal_cost": {"kind": "linear", "coeff": 1.0},
        "actions": {"lo": -1.0, "hi": 1.0, "count": 21},
    },
    "variance": {
        "kind": "control",
        "name": "variance",
        "dimension": 1,
        "initial": [0.0],
        "horizon": 1.0,
        "diffusion": {"kind": "constant", "base": 1.0},
        "statistics": {"mean": {"kind": "identity"}},
        "drift": {"control": 1.0},
        "running_cost": {},
        "terminal_cost": {"kind": "variance", "stat": "mean"},
        "actions": {"lo": -1.0, "hi": 1.0, "count": 21},
    },
    "separated-game": {
        "kind": "game",
        "name": "separated-game",
        "dimension": 1,
        "initial": [0.0],
        "horizon": 1.0,
        "diffusion": {"kind": "constant", "base": 1.0},
        "statistics": {"mean": {"kind": "identity"}},
        "drift": {"control_u": 1.0, "control_v": 1.0},
        "running_cost": {"quad_u": 1.0, "quad_v": -1.0},
        "terminal_cost": {"kind": "linear", "coeff": 1.0},
        "actions_u": {"lo": -1.0, "hi": 1.0, "count": 11},
        "actions_v": {"lo": -1.0, "hi": 1.0, "count": 11},
    },
    "bilinear-game": {
        "kind": "game",
        "name": "bilinear-game",
        "dimension": 1,
        "initial": [0.0],
        "horizon": 1.0,
        "diffusion": {"kind": "constant", "base": 1.0},
        "statistics": {"mean": {"kind": "identity"}},
        "drift": {},
        "running_cost": {"bilinear": 1.0},
        "terminal_cost": {"kind": "linear", "coeff": 1.0},
        "actions_u": {"points": [[-1.0], [1.0]]},
        "actions_v": {"points": [[-1.0], [1.0]]},
    },
}


def builtin_scenarios() -> tuple[str, ...]:
    return tuple(_BUILTINS)


def builtin_config(name: str) -> dict:
    if name not in _BUILTINS:
        raise UnknownScenarioError(
            "scenario", f"unknown built-in {name!r}; available: {', '.join(_BUILTINS)}")
    return json.loads(json.dumps(_BUILTINS[name]))


def get_builtin(name: str, initial: float | None = None,
                horizon: float | None = None) -> Scenario | GameScenario:
    cfg = builtin_config(name)
    if initial is not None:
        cfg["initial"] = [float(initial)] * cfg["dimension"]
    if horizon is not None:
        cfg["horizon"] = float(horizon)
    return parse_scenario(cfg)
