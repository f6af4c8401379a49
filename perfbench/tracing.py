"""Spans around mfcontrol's layer boundaries, recorded from outside the library.

``Tracer.install()`` replaces each target function with a wrapper in every
``mfcontrol.*`` module that holds it by name (``from .x import f`` makes a
second binding that must be replaced too), wraps the action methods of the
three control classes and ``MeasureFlow.statistic_series``, and wraps the
battery's registered criteria.  Each call becomes a span (name, start, end,
parent) kept in memory; ``uninstall()`` restores the originals.

A span's self time is its duration minus the time its child spans cover.
Spans nest strictly (one thread), so the sum of every span's self time equals
the total duration of the root spans.  Criterion 10 reruns criteria 1, 2, 3, 5
and 8 at a smaller scale; those nested spans count under their own names.

Counts kept beside the spans: Picard iterations and applications (from each
fixpoint's diagnostics), policy-iteration outer iterations, priced saddle
deviations, and the distinct (control, ensemble, t_index) keys that action
calls ask for.  Frozen dataclass controls are keyed by value, the feedback
classes by identity.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import sys
import time
import weakref

# span name -> functions ("module:attribute" or "module:Class.method")
TARGETS = {
    "core.simulate": ["core:simulate_for_scenario"],
    "scenario.parse_validate": ["scenario:parse_scenario", "scenario:validate_scenario"],
    "girsanov.density": ["girsanov:density_process"],
    "girsanov.fixpoint": ["girsanov:fixpoint_measure_flow"],
    "measure.tv": ["measure:tv_pathspace", "measure:tv_marginal"],
    "measure.hellinger": ["measure:hellinger_bound"],
    "measure.statistic": ["measure:MeasureFlow.statistic_series",
                          "measure:weighted_statistic"],
    "bsde.backward": ["bsde:_backward"],
    "bsde.features": ["bsde:features_at"],
    "bsde.regress": ["bsde:regress_conditional"],
    "control.actions": ["control:Control.actions", "control:BsdeFeedbackControl.actions",
                        "game:PairFeedbackControl.actions_pair"],
    "control.hamiltonian_min": ["control:minimized_hamiltonian"],
    "control.payoff": ["control:evaluate_payoff"],
    "control.policy_iteration": ["control:policy_iteration"],
    "control.envelope_bsde": ["control:envelope_bsde"],
    "game.envelopes": ["game:envelopes"],
    "game.solve": ["game:solve_game"],
    "game.verify_saddle": ["game:verify_saddle"],
    "game.isaacs": ["game:isaacs_gap"],
    "report.write": ["report:write_json", "report:write_csv"],
    "cli.main": ["cli:main"],
}
CRITERIA = range(1, 11)
SPAN_NAMES = [*TARGETS, *(f"verify.criterion{i}" for i in CRITERIA)]

# spans whose call count is reported as a per-layer metric
COUNTED = ("core.simulate", "girsanov.density", "girsanov.fixpoint", "measure.tv",
           "bsde.backward", "bsde.features", "bsde.regress", "control.actions",
           "control.hamiltonian_min", "control.payoff", "game.envelopes")


def count_metric_names() -> list[str]:
    """Per-layer metrics that must repeat exactly at a fixed seed."""
    return [*(f"{name}_calls" for name in COUNTED), "girsanov.picard_useful_ratio",
            "control.actions_repeat_ratio", "control.outer_iterations",
            "game.deviations_priced"]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index]
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        self.picard_iterations = 0
        self.picard_applications = 0
        self.outer_iterations = 0
        self.deviations_priced = 0
        self._action_keys: set = set()
        self._keep: dict[int, object] = {}
        self._ensembles: dict[int, tuple] = {}   # id -> (weakref, serial)
        self._serials = itertools.count()

    # -- recording --------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _after_fixpoint(self, args, result):
        self.picard_iterations += result.diagnostics.iterations
        self.picard_applications += result.diagnostics.applications

    def _after_policy(self, args, result):
        self.outer_iterations += result.outer_iterations

    def _after_saddle(self, args, result):
        self.deviations_priced += len(result.u_rows) + len(result.v_rows)

    def _ensemble_serial(self, paths) -> int:
        entry = self._ensembles.get(id(paths))
        if entry is None or entry[0]() is not paths:
            entry = (weakref.ref(paths), next(self._serials))
            self._ensembles[id(paths)] = entry
        return entry[1]

    def _after_actions(self, args, result):
        control, paths, t_index = args[:3]
        if dataclasses.is_dataclass(control):
            key = control                       # frozen: equal rules are one control
        else:
            key = id(control)
            self._keep[key] = control           # keeps the id from being reused
        self._action_keys.add((type(control).__name__, key,
                               self._ensemble_serial(paths), int(t_index)))

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap every target.  A target the program no longer has is listed in
        ``missing`` (its layer then reads zero) instead of stopping the run."""
        mods = {n: m for n, m in sys.modules.items()
                if n == "mfcontrol" or n.startswith("mfcontrol.")}
        after = {"girsanov.fixpoint": self._after_fixpoint,
                 "control.policy_iteration": self._after_policy,
                 "game.verify_saddle": self._after_saddle,
                 "control.actions": self._after_actions}
        for name, targets in TARGETS.items():
            for target in targets:
                mod_name, path = target.split(":")
                *classes, attr = path.split(".")
                owner = mods.get(f"mfcontrol.{mod_name}")
                for cls_name in classes:
                    owner = getattr(owner, cls_name, None)
                original = getattr(owner, attr, None)
                if not callable(original):
                    self.missing.append(target)
                    continue
                wrapper = self._wrap(name, original, after.get(name))
                if classes:
                    self._set(owner, attr, wrapper)
                    continue
                for mod in mods.values():
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, key, wrapper)
        registry = getattr(mods.get("mfcontrol.verify"), "_CRITERIA", {})
        for index in CRITERIA:
            if index not in registry:
                self.missing.append(f"verify:_CRITERIA[{index}]")
                continue
            self._set_item(registry, index,
                           self._wrap(f"verify.criterion{index}", registry[index]))
        return self

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _set_item(self, mapping, key, value):
        self._restore.append((mapping, key, mapping[key]))
        mapping[key] = value

    def uninstall(self):
        for owner, key, value in reversed(self._restore):
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)
        self._restore.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- summaries --------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = dict.fromkeys(SPAN_NAMES, 0.0)
        for (name, start, end, _), covered in zip(self.spans, child):
            out[name] += (end - start) - covered
        return out

    def calls(self) -> dict[str, int]:
        out = dict.fromkeys(SPAN_NAMES, 0)
        for span in self.spans:
            out[span[0]] += 1
        return out

    def root_seconds(self) -> float:
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer self times and counts, keyed by metric name."""
        out = {f"{name}_s": value for name, value in self.self_times().items()}
        calls = self.calls()
        for name in COUNTED:
            out[f"{name}_calls"] = calls[name]
        out["girsanov.picard_useful_ratio"] = (
            self.picard_iterations / self.picard_applications
            if self.picard_applications else 0.0)
        out["control.actions_repeat_ratio"] = (
            calls["control.actions"] / len(self._action_keys) if self._action_keys else 0.0)
        out["control.outer_iterations"] = self.outer_iterations
        out["game.deviations_priced"] = self.deviations_priced
        return out

    def dump(self) -> dict:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        return {"names": names,
                "spans": [[index[n], round(s - t0, 9), round(e - t0, 9), p]
                          for n, s, e, p in self.spans]}
