"""Declarative model registry.

A scenario bundles everything that defines a controlled mean-field problem:
diffusion coefficient, drift family, running and terminal costs, the
statistics through which the law enters the coefficients, and the admissible
action grid(s).  All of it is data.  Coefficients are picked from small closed
registries instead of accepting user callables, so a scenario can be parsed
from a config document and validated.  Nothing hashes a document: a report
echoes only the CLI settings, the --config path and the scenario name.

The state x is a real number.  Registered functional forms:

    diffusion   constant s0,
                affine_state  s0 + s1 * x,
                sup_modulated s0 + s1 * sup_{r<=t} |x_r|
    drift       A * x + sum_j B_j * m_j(t) + C * u [+ Cv * v] + c0,
                optional tanh clip
    run cost    0.5 * q * u^2 [+ 0.5 * qv * v^2 + b * u * v] + l * u [+ lv * v]
                + const + state term + stat term
    terminal    linear | tanh | variance  (variance: phi(x)^2 - mean(phi)^2)
    statistic   identity | square | tanh | indicator_bin

A game carries a second action grid, actions_v, for its maximizer v, which
alone reads the bracketed terms: a control problem is the game without a
maximizer, one Scenario whose actions_v is None.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass

import numpy as np

CERTIFIED = "certified"
NOT_CERTIFIED = "not-certified"
VIOLATED = "violated"

_STAT_KINDS = ("identity", "square", "tanh", "indicator_bin")
_SIGMA_KINDS = ("constant", "affine_state", "sup_modulated")
_TERMINAL_KINDS = ("linear", "tanh", "variance")
_STATE_KINDS = ("none", "identity", "tanh")


class ConfigError(ValueError):
    """Malformed or inconsistent scenario configuration."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")


class UnknownScenarioError(ConfigError):
    pass


class ValidationBlockedError(RuntimeError):
    """A violated assumption blocks the requested computation."""


# ---------------------------------------------------------------------------
# statistics


@dataclass(frozen=True)
class StatisticSpec:
    """Scalar statistic psi(x) of the current state."""

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
        """states of any shape -> values of psi, elementwise."""
        x = np.asarray(state)
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
    """Diffusion coefficient sigma(t, path), a real number per path.

    alpha records the growth exponent claimed for |sigma^{-1}|; it is echoed
    in validation reports and never used numerically.
    """

    kind: str = "constant"
    base: float = 1.0
    slope: float = 0.0
    alpha: float = 0.0

    def __post_init__(self):
        if self.kind not in _SIGMA_KINDS:
            raise ConfigError("diffusion.kind", f"unknown diffusion kind {self.kind!r}")

    @property
    def bounded(self) -> bool:
        return self.kind == "constant" or self.slope == 0.0

    def invertibility(self) -> tuple[str, str]:
        """(status, reason) for the invertibility of sigma."""
        if self.kind == "constant":
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

    def scalar_values(self, t: float, state: np.ndarray, sup: np.ndarray) -> np.ndarray:
        """Pointwise sigma values, broadcast over particles."""
        if self.kind == "constant":
            return np.broadcast_to(np.asarray(self.base, dtype=float), np.shape(state)).copy()
        if self.kind == "affine_state":
            vals = self.base + self.slope * state
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
        """sigma(t, path) vec at one grid time, state, sup and vec shaped (M,)."""
        vals = self.scalar_values(t, state, sup)
        self._guard(vals, t)
        return vals * vec

    def inv_apply(self, t, state: np.ndarray, sup: np.ndarray, vec: np.ndarray,
                  out: np.ndarray | None) -> np.ndarray:
        """sigma^{-1}(t, path) vec, written into out when it is an array of
        the result's shape (and not vec), else into a fresh one.

        One grid time with state, sup and vec shaped (M,), or a block of
        steps: t (B,), state, sup and vec (M, B), or state and sup (M, 1, B)
        against the vecs (M, K, B) of K drifts."""
        if self.kind == "constant":
            if abs(self.base) < _SIGMA_FLOOR:
                self._guard(self.scalar_values(t, state, sup), t)
            return np.multiply(1.0 / self.base, vec, out=out)
        vals = self.scalar_values(t, state, sup)
        self._guard(vals, t)
        return np.multiply(np.divide(1.0, vals, out=vals), vec, out=out)


# ---------------------------------------------------------------------------
# drift


@dataclass(frozen=True)
class DriftSpec:
    """Controlled drift f(t, x, mu, u, v) = A x + sum B_j m_j + C u + Cv v + c0.

    stats maps statistic names to coefficients B_j; m_j(t) is the flow's value
    of that statistic.  A control problem has no maximizer v, so control_v is
    read only when a v is passed.  bound_scale, when set, clips the affine
    form through scale * tanh(raw / scale), preserving Lipschitz constants
    while making f bounded.  evaluate is with_stats(base(...)), and only
    with_stats reads the flow.
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

    def evaluate(self, x, stats_row, u, v=None):
        """The drift, elementwise over broadcasting states and actions."""
        return self.with_stats(self.base(x, u, v), stats_row, None)

    def base(self, x, u, v=None):
        """The terms that read no statistic: A x + C u + Cv v + c0."""
        out = self.state * x + self.control * u
        if v is not None:
            out = out + self.control_v * v
        return out + self.const

    def with_stats(self, base, stats_row, out):
        """base plus the statistic terms in order, then the bound_scale clip.
        Each step is written into out when it is an array of the result's
        shape, else into a fresh one; with no term to add and no clip, base
        itself."""
        for name, coeff in self.stats:
            if coeff != 0.0:
                base = np.add(base, coeff * stats_row[name], out=out)
        if self.bound_scale is not None:
            clipped = np.tanh(np.divide(base, self.bound_scale, out=out), out=out)
            base = np.multiply(self.bound_scale, clipped, out=out)
        return base


# ---------------------------------------------------------------------------
# costs


@dataclass(frozen=True)
class StateTermSpec:
    """Bounded-or-flagged state contribution to a cost: coeff * phi(x)."""

    kind: str = "none"  # none | identity | tanh
    coeff: float = 0.0
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in _STATE_KINDS:
            raise ConfigError("running_cost.state.kind", f"unknown state term kind {self.kind!r}")
        if self.kind == "tanh" and self.scale <= 0:
            raise ConfigError("running_cost.state.scale", "tanh scale must be positive")

    @property
    def bounded(self) -> bool:
        return self.kind != "identity" or self.coeff == 0.0

    def evaluate(self, x):
        if self.kind == "none" or self.coeff == 0.0:
            return 0.0
        if self.kind == "identity":
            return self.coeff * x
        return self.coeff * np.tanh(x / self.scale)


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

    def evaluate(self, x, stats_row, u, v=None):
        out = 0.5 * self.quad * u * u
        if v is not None:
            out = out + 0.5 * self.quad_v * v * v + self.bilinear * u * v
        out = out + self.lin * u
        if v is not None:
            out = out + self.lin_v * v
        out = out + self.const + self.state_term.evaluate(x)
        if self.stat is not None and self.stat[1] != 0.0:
            out = out + self.stat[1] * stats_row[self.stat[0]]
        out = np.asarray(out, dtype=float)
        if out.ndim == 0:
            # all coefficients vanished; keep per-particle shape for reductions
            out = np.broadcast_to(out, np.broadcast_shapes(
                *(np.shape(a) for a in (x, u, v) if a is not None)))
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
        x = np.asarray(state)
        if self.kind == "linear":
            return self.coeff * x + self.const
        if self.kind == "tanh":
            return self.coeff * np.tanh(x / self.scale) + self.const
        phi = statistics[self.stat].evaluate(state)
        return phi * phi - stats_row[self.stat] ** 2


# ---------------------------------------------------------------------------
# actions


@dataclass(frozen=True)
class ActionGrid:
    """Finite admissible action set of real actions, kept sorted so argmin
    ties resolve to the smallest action."""

    points: tuple[float, ...]

    def __post_init__(self):
        if len(self.points) == 0:
            raise ConfigError("actions", "action grid is empty")
        # not >= also rejects NaN
        if np.ndim(self.points) != 1 or not np.all(np.diff(self.points) >= 0):
            raise ConfigError("actions", "action points must be sorted numbers")

    @classmethod
    def box(cls, lo: float, hi: float, count: int) -> "ActionGrid":
        if count < 1 or hi < lo:
            raise ConfigError("actions", "box grid needs count >= 1 and hi >= lo")
        if count == 1:
            return cls(points=((lo + hi) / 2.0,))
        vals = np.linspace(lo, hi, count)
        return cls(points=tuple(float(v) for v in vals))

    @classmethod
    def explicit(cls, pts) -> "ActionGrid":
        return cls(points=tuple(sorted(float(p) for p in pts)))

    @property
    def size(self) -> int:
        return len(self.points)

    def array(self) -> np.ndarray:
        return np.asarray(self.points, dtype=float)

    @property
    def resolution(self) -> float:
        """Largest gap between consecutive grid values."""
        vals = np.unique(self.array())
        return 0.0 if len(vals) < 2 else float(np.max(np.diff(vals)))


# ---------------------------------------------------------------------------
# scenarios


@dataclass(frozen=True, kw_only=True)
class Scenario:
    """Immutable problem description.  Player u minimizes the payoff over
    actions; a zero-sum game adds a maximizer v over actions_v, which is
    None for a control problem."""

    name: str = "custom"
    initial: float
    horizon: float
    sigma: DiffusionSpec = DiffusionSpec()
    drift: DriftSpec = DriftSpec()
    running_cost: CostSpec = CostSpec()
    terminal_cost: TerminalSpec = TerminalSpec()
    statistics: tuple[tuple[str, StatisticSpec], ...] = ()
    actions: ActionGrid
    actions_v: ActionGrid | None = None

    @property
    def kind(self) -> str:
        return "control" if self.actions_v is None else "game"

    @property
    def grids(self) -> tuple[ActionGrid, ...]:
        return (self.actions,) if self.actions_v is None else (self.actions, self.actions_v)

    @property
    def statistic_map(self) -> dict[str, StatisticSpec]:
        return dict(self.statistics)

    def referenced_statistics(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys((*self.drift.stat_names(), *self.running_cost.stat_names(),
                                    *self.terminal_cost.stat_names())))

    @property
    def separable(self) -> bool:
        """H(u, v) = A(u) + B(v) + C: no u v cost term and an affine (unclipped)
        drift, so min over u and max over v commute (the Isaacs condition
        holds by structure)."""
        return self.running_cost.bilinear == 0.0 and self.drift.bound_scale is None


# ---------------------------------------------------------------------------
# parsing
#
# Every mapping of a config document is read through one key table,
# {document key: (registry field, reader)}.  A reader takes (value, dotted
# path) and returns the field's value or raises ConfigError at that path.
# Only the keys a document sets are passed on, so every default is the
# registry dataclass's own; a key outside its table is an error.


def _at(path: str, key) -> str:
    return f"{path}.{key}" if path else str(key)


def _fields(doc, path: str, table: dict) -> dict:
    """Registry field -> read value for each key the mapping doc sets."""
    out = {}
    for key, value in _expect(doc, dict, path).items():
        if key not in table:
            raise ConfigError(_at(path, key), f"unknown key; expected one of {', '.join(table)}")
        field, read = table[key]
        out[field] = read(value, _at(path, key))
    return out


def _require(fields: dict, path: str, keys: tuple[str, ...]):
    for key in keys:
        if key not in fields:
            raise ConfigError(_at(path, key), "missing required field")


def _as_float(value, path: str) -> float:
    # not <= also rejects NaN, and the int comparison is exact (no overflow)
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not abs(value) <= sys.float_info.max:
        raise ConfigError(path, f"expected a finite number, got {value!r}")
    return float(value)


def _positive_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ConfigError(path, f"expected a positive integer, got {value!r}")
    return value


_TYPE_NAMES = {dict: "a mapping", list: "a list", str: "a string"}


def _expect(value, kind: type, path: str):
    if not isinstance(value, kind):
        raise ConfigError(path or "<document>", f"expected {_TYPE_NAMES[kind]}, got {value!r}")
    return value


def _string(value, path: str) -> str:
    return _expect(value, str, path)


def _number(what: str):
    """Reader of a real number, written as a number or a list of one number."""
    def read(value, path: str) -> float:
        numbers = value if isinstance(value, list) else [value]
        if len(numbers) != 1:
            raise ConfigError(path, f"{what} is one number, not {len(numbers)}")
        return _as_float(numbers[0], path)
    return read


def _dimension(value, path: str) -> int:
    if _positive_int(value, path) != 1:
        raise ConfigError(path, f"the state is one number: dimension must be 1, got {value!r}")
    return value


def _points(value, path: str) -> list[float]:
    """Actions, each a number or a list of one number: an action is real."""
    read = _number("an action")
    return [read(doc, f"{path}[{i}]") for i, doc in enumerate(_expect(value, list, path))]


def _stat_weights(value, path: str) -> tuple[tuple[str, float], ...]:
    return tuple((name, _as_float(w, _at(path, name)))
                 for name, w in _expect(value, dict, path).items())


def _stat_term(value, path: str) -> tuple[str, float]:
    if not isinstance(value, list) or len(value) != 2:
        raise ConfigError(path, "expected [name, coeff]")
    return _string(value[0], path), _as_float(value[1], path)


def _one_of(kinds: tuple[str, ...], what: str):
    """Reader of a registry kind."""
    def read(value, path: str) -> str:
        if value not in kinds:
            raise ConfigError(path, f"unknown {what} kind {value!r}")
        return value
    return read


def _optional(read):
    """Reader that takes null for a field whose default is None."""
    return lambda value, path: None if value is None else read(value, path)


def _spec(cls, table: dict):
    """Reader of a mapping into the registry class cls."""
    return lambda value, path: cls(**_fields(value, path, table))


def _numeric(*keys: str) -> dict:
    # a game spells its u-side coefficients with a _u suffix; the field drops it
    return {key: (key.removesuffix("_u"), _as_float) for key in keys}


def _statistics(value, path: str) -> tuple[tuple[str, StatisticSpec], ...]:
    out = []
    for name, doc in _expect(value, dict, path).items():
        fields = _fields(doc, _at(path, name), _STATISTIC_KEYS)
        _require(fields, _at(path, name), ("kind",))
        try:
            out.append((name, StatisticSpec(**fields)))
        except ConfigError as exc:   # its own checks say "statistics", not which one
            raise ConfigError(_at(path, name), exc.message) from None
    return tuple(out)


def _action_grid(value, path: str) -> ActionGrid:
    """Explicit points, or count points evenly spaced on [lo, hi]."""
    fields = _fields(value, path, _ACTION_KEYS)
    explicit = "points" in fields
    if explicit and len(fields) > 1:
        raise ConfigError(path, "a grid sets either points or lo, hi and count, not both")
    if not explicit:
        _require(fields, path, ("lo", "hi", "count"))
    try:
        return ActionGrid.explicit(fields["points"]) if explicit else ActionGrid.box(**fields)
    except ConfigError as exc:   # its own checks say "actions", not which grid
        raise ConfigError(path, exc.message) from None


_STATISTIC_KEYS = {"kind": ("kind", _one_of(_STAT_KINDS, "statistic")),
                   **_numeric("scale", "lo", "hi")}
_DIFFUSION_KEYS = {"kind": ("kind", _string),
                   **_numeric("base", "slope", "alpha")}
_DRIFT_KEYS = {kind: {**_numeric("state"), "stats": ("stats", _stat_weights),
                      **_numeric(*controls, "const"),
                      "bound_scale": ("bound_scale", _optional(_as_float))}
               for kind, controls in (("control", ("control",)),
                                      ("game", ("control_u", "control_v")))}
_STATE_KEYS = {"kind": ("kind", _string),
               **_numeric("coeff", "scale")}
_COST_KEYS = {kind: {**_numeric(*actions, "const"),
                     "state": ("state_term", _spec(StateTermSpec, _STATE_KEYS)),
                     "stat": ("stat", _optional(_stat_term))}
              for kind, actions in (("control", ("quad", "lin")),
                                    ("game", ("quad_u", "quad_v", "bilinear", "lin_u", "lin_v")))}
_TERMINAL_KEYS = {"kind": ("kind", _string),
                  **_numeric("coeff", "const", "scale"), "stat": ("stat", _string)}
_ACTION_KEYS = {"points": ("points", _points), **_numeric("lo", "hi"),
                "count": ("count", _positive_int)}
_GRIDS = {"control": ("actions",), "game": ("actions_u", "actions_v")}
_SCENARIO_KIND = _one_of(tuple(_GRIDS), "scenario")
# parse_scenario checks the kind before it picks the table, so its entry only passes it on
_SCENARIO_KEYS = {kind: {"kind": ("kind", _string), "name": ("name", _string),
                         "dimension": ("dimension", _dimension),
                         "initial": ("initial", _number("the initial state")),
                         "horizon": ("horizon", _as_float),
                         "diffusion": ("sigma", _spec(DiffusionSpec, _DIFFUSION_KEYS)),
                         "statistics": ("statistics", _statistics),
                         "drift": ("drift", _spec(DriftSpec, _DRIFT_KEYS[kind])),
                         "running_cost": ("running_cost", _spec(CostSpec, _COST_KEYS[kind])),
                         "terminal_cost": ("terminal_cost", _spec(TerminalSpec, _TERMINAL_KEYS)),
                         **{key: (key.removesuffix("_u"), _action_grid) for key in grids}}
                  for kind, grids in _GRIDS.items()}


def parse_scenario(text: str | dict) -> Scenario:
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
    kind = _SCENARIO_KIND(_expect(doc, dict, "").get("kind", "control"), "kind")
    # checked first: a document of dimension d lists d initial coordinates
    _dimension(doc.get("dimension", 1), "dimension")
    fields = _fields(doc, "", _SCENARIO_KEYS[kind])
    # read off the scenario's grids and a checked constant, not fields
    fields.pop("kind", None)
    fields.pop("dimension", None)
    # by document key: a game's actions_u fills the field actions
    _require(doc, "", ("initial", "horizon", *_GRIDS[kind]))
    s = Scenario(**fields)

    if s.horizon <= 0:
        raise ConfigError("horizon", "horizon must be positive")
    for path, spec in (("drift.stats.{}", s.drift), ("running_cost.stat", s.running_cost),
                       ("terminal_cost.stat", s.terminal_cost)):
        for name in spec.stat_names():
            if name not in s.statistic_map:
                raise ConfigError(path.format(name), f"statistic {name!r} is not registered")
    return s


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


def validate_scenario(s: Scenario) -> ValidationReport:
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
        "initial": 0.0,
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
        "initial": 0.0,
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
        "initial": 0.0,
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
        "initial": 0.0,
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
        "initial": 0.0,
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
        "initial": 0.0,
        "horizon": 1.0,
        "diffusion": {"kind": "constant", "base": 1.0},
        "statistics": {"mean": {"kind": "identity"}},
        "drift": {},
        "running_cost": {"bilinear": 1.0},
        "terminal_cost": {"kind": "linear", "coeff": 1.0},
        "actions_u": {"points": [-1.0, 1.0]},
        "actions_v": {"points": [-1.0, 1.0]},
    },
}


def builtin_scenarios() -> tuple[str, ...]:
    return tuple(_BUILTINS)


def builtin_config(name: str) -> dict:
    if name not in _BUILTINS:
        raise UnknownScenarioError(
            "scenario", f"unknown built-in {name!r}; available: {', '.join(_BUILTINS)}")
    return json.loads(json.dumps(_BUILTINS[name]))


def get_builtin(name: str) -> Scenario:
    return parse_scenario(builtin_config(name))
