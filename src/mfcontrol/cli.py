"""Command-line pipeline driver.

Subcommands: simulate, fixpoint, evaluate, optimize, game, verify,
list-scenarios.  Every run is seeded explicitly (no wall-clock seeding) and
emits a canonical JSON report, either to stdout or, with --out, to
<dir>/report.json next to CSV tables.  Reports are byte-identical for
identical (config, seed, version); wall time goes to stderr only.

Exit codes: 0 success, 1 check, convergence or computation failure (a
non-finite number in the report included), 2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .bsde import BasisSpec
from .control import evaluate_payoff, parse_control, policy_iteration
from .core import ensemble_moments, member_map, simulate_for_scenario
from .game import IsaacsError, solve_game, verify_saddle
from .girsanov import FixpointConvergenceError, contraction_report, fixpoint_measure_flow
from .report import canonical_json, stderr_note, write_csv, write_json
from .scenario import (ConfigError, SingularDiffusionError, ValidationBlockedError,
                       assert_runnable, builtin_config, builtin_scenarios,
                       parse_scenario, validate_scenario)
from .verify import run_battery


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="mfcontrol",
        description="Weak-solution mean-field control via one reference "
                    "ensemble and Girsanov reweighting.")
    top.add_argument("--version", action="version",
                     version=f"mfcontrol {__version__}")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, scenario_required: bool = True):
        g = p.add_mutually_exclusive_group(required=scenario_required)
        g.add_argument("--scenario", help="built-in scenario name")
        g.add_argument("--config", help="path to a scenario config file (JSON)")
        p.add_argument("--seed", type=int, required=True,
                       help="RNG seed (required; runs are never wall-clock seeded)")
        p.add_argument("--particles", type=int, default=10_000,
                       help="ensemble size M (default 10000, minimum 100)")
        p.add_argument("--steps", type=int, default=50,
                       help="time steps N (default 50)")
        p.add_argument("--tol", type=float, default=1e-3,
                       help="fixed-point and synthesis tolerance (default 1e-3)")
        p.add_argument("--basis-degree", type=int, default=2,
                       help="regression basis polynomial degree (default 2)")
        p.add_argument("--override-validation", action="store_true",
                       help="run even if a standing assumption is violated")
        p.add_argument("--out", help="output directory for report.json and CSV tables")

    p = sub.add_parser("simulate", help="simulate the reference ensemble")
    common(p)

    p = sub.add_parser("fixpoint", help="measure fixed point for one control")
    common(p)
    p.add_argument("--control", action="append",
                   help="control spec like constant:0.5 or parametric:a,b,c "
                        "(give twice for a game: u then v)")

    p = sub.add_parser("evaluate", help="reweighted payoffs of given controls")
    common(p)
    p.add_argument("--control", action="append",
                   help="control spec (repeatable; games take u,v pairs)")
    p.add_argument("--controls-file",
                   help="JSON file with a list of control specs "
                        "(games: objects with u and v entries)")

    p = sub.add_parser("optimize", help="policy iteration with certificate")
    common(p)

    p = sub.add_parser("game", help="saddle synthesis with Isaacs pre-check")
    common(p)

    p = sub.add_parser("verify",
                       help="acceptance battery over every built-in scenario")
    common(p, scenario_required=False)

    sub.add_parser("list-scenarios", help="list built-in scenarios")
    return top


# ---------------------------------------------------------------------------
# helpers


def _check_run_config(args) -> None:
    if args.seed < 0:
        raise ConfigError("seed", "seed must be >= 0")
    if args.particles < 100:
        raise ConfigError("particles", "at least 100 particles required")
    if args.steps < 1:
        raise ConfigError("steps", "at least one time step required")
    if not 0 < args.tol < math.inf:   # NaN fails too
        raise ConfigError("tol", "tolerance must be positive and finite")
    if args.basis_degree < 1:
        raise ConfigError("basis-degree", "basis degree must be >= 1")
    if args.out:
        out = Path(args.out)
        existing = next(p for p in (out, *out.parents) if p.exists())
        if not existing.is_dir():
            raise ConfigError("out", f"{existing} exists and is not a directory")


def _read_file(path: str, key: str) -> str:
    """The UTF-8 text of the file option key names, else a ConfigError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(key, f"cannot read {path} ({exc.strerror})") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(key, f"{path} is not UTF-8 text") from exc


def _load_scenario(args):
    if args.config:
        scen = parse_scenario(_read_file(args.config, "config"))
    else:
        scen = parse_scenario(builtin_config(args.scenario))
    return scen


def _config_echo(args) -> dict:
    echo = {
        "scenario": getattr(args, "scenario", None),
        "config_path": getattr(args, "config", None),
        "seed": args.seed,
        "particles": args.particles,
        "steps": args.steps,
        "tol": args.tol,
        "basis_degree": args.basis_degree,
        "override_validation": args.override_validation,
    }
    if getattr(args, "control", None):
        echo["controls"] = list(args.control)
    if getattr(args, "controls_file", None):
        echo["controls_file"] = args.controls_file
    return echo


def _parse_controls(scen, specs: list, path: str = "control") -> list:
    """Decode control specs; for games, consecutive entries pair up as (u, v).
    A malformed spec is a ConfigError at path."""
    players = len(scen.grids)
    if len(specs) % players != 0:
        raise ConfigError(path, "games take controls in u,v pairs")
    try:
        parsed = [parse_control(s, scen.grids[i % players]) for i, s in enumerate(specs)]
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc
    if players == 1:
        return parsed
    return [tuple(parsed[i:i + players]) for i in range(0, len(parsed), players)]


def _file_controls(scen, doc) -> list:
    """Decode a controls file: a list of specs, or for games of objects with
    u and v entries.  Errors name the entry as controls-file[i]."""
    if not isinstance(doc, list):
        raise ConfigError("controls-file", "expected a JSON list of control specs")
    out = []
    for i, entry in enumerate(doc):
        path = f"controls-file[{i}]"
        if scen.kind == "game":
            if not isinstance(entry, dict) or not {"u", "v"} <= entry.keys():
                raise ConfigError(path, "a game entry is an object with u and v entries")
            entry = [entry["u"], entry["v"]]
        else:
            entry = [entry]
        out.extend(_parse_controls(scen, entry, path))
    return out


def _pair_label(entry) -> str:
    if isinstance(entry, tuple):
        return f"({entry[0].label}, {entry[1].label})"
    return entry.label


# ---------------------------------------------------------------------------
# handlers: each returns (exit code, results dict, {csv name: (header, rows)})


def _run_simulate(args, scen):
    paths = simulate_for_scenario(scen, args.particles, args.steps, args.seed)
    x = paths.values
    times = paths.grid.times
    rows = [(float(times[k]), float(np.mean(x[:, k])), float(np.std(x[:, k])),
             float(np.mean(paths.running_sup[:, k])))
            for k in range(args.steps + 1)]
    results = {
        "dt": paths.grid.dt,
        "horizon_moments": {str(p): v for p, v in ensemble_moments(paths).items()},
        "terminal_mean": rows[-1][1],
        "terminal_std": rows[-1][2],
    }
    tables = {"ensemble.csv": (["time", "mean_x0", "std_x0", "mean_running_sup"], rows)}
    return 0, results, tables


def _run_fixpoint(args, scen):
    specs = args.control or []
    want = len(scen.grids)
    if len(specs) != want:
        raise ConfigError("control", f"fixpoint needs exactly {want} --control "
                                     f"spec(s) for this scenario")
    control = _parse_controls(scen, specs)[0]
    paths = simulate_for_scenario(scen, args.particles, args.steps, args.seed)
    try:
        fix = fixpoint_measure_flow(scen, control, paths, tol=args.tol)
    except FixpointConvergenceError as exc:
        stderr_note(f"fixed point did not converge: {exc}")
        return 1, {"diagnostics": exc.diagnostics.to_dict(), "converged": False}, {}
    diag = fix.diagnostics
    n = args.steps
    norm, norm_se = map(float, fix.flow.normalization(n))
    results = {
        "converged": True,
        "diagnostics": diag.to_dict(),
        "normalization_horizon": {"mean": norm, "stderr": norm_se},
        "statistics_horizon": {name: float(fix.flow.statistic_series(name)[n])
                               for name in scen.statistic_map},
    }
    if diag.applications >= 2:
        results["contraction"] = contraction_report(diag).to_dict()
    trace_rows = [(i + 1, d, s) for i, (d, s) in
                  enumerate(zip(diag.distances, diag.stderrs))]
    stat_names = sorted(scen.statistic_map)
    stat_rows = [(float(paths.grid.times[k]),
                  *(float(fix.flow.statistic_series(nm)[k]) for nm in stat_names))
                 for k in range(n + 1)]
    tables = {
        "trace.csv": (["application", "distance", "stderr"], trace_rows),
        "statistics.csv": (["time", *stat_names], stat_rows),
    }
    return 0, results, tables


def _run_evaluate(args, scen):
    controls = _parse_controls(scen, list(args.control or []))
    if args.controls_file:
        controls += _file_controls(scen, json.loads(_read_file(args.controls_file,
                                                               "controls-file")))
    if not controls:
        raise ConfigError("control", "evaluate needs --control or --controls-file")
    paths = simulate_for_scenario(scen, args.particles, args.steps, args.seed)

    def price(entry) -> dict:
        # the row's scalars only: each member's flow dies with this call
        res = evaluate_payoff(scen, entry, paths, tol=args.tol)
        norm, norm_se = map(float, res.flow.normalization(args.steps))
        return {
            "label": _pair_label(entry),
            "payoff": res.value, "stderr": res.stderr,
            "fixpoint_iterations": res.diagnostics.iterations,
            "normalization_horizon": norm,
            "normalization_stderr": norm_se,
        }

    rows = member_map(price, controls)
    results = {"controls": rows}
    table_rows = [(r["label"], r["payoff"], r["stderr"],
                   r["fixpoint_iterations"]) for r in rows]
    tables = {"controls.csv": (["label", "payoff", "stderr", "fixpoint_iterations"],
                               table_rows)}
    return 0, results, tables


def _run_optimize(args, scen):
    if scen.kind == "game":
        raise ConfigError("scenario", "optimize takes a single-controller "
                                      "scenario; use the game command")
    paths = simulate_for_scenario(scen, args.particles, args.steps, args.seed)
    report = policy_iteration(scen, paths, basis=BasisSpec(degree=args.basis_degree),
                              tol=args.tol)
    results = report.to_dict()
    trace_rows = [(i, d, s) for i, d, s in report.trace]
    tables = {"trace.csv": (["iteration", "distance", "stderr"], trace_rows)}
    if report.flagged_negative:
        stderr_note("warning: certificate gap is negative beyond noise; "
                    "the backward value is not a lower bound here")
    return (0 if report.converged else 1), results, tables


def _run_game(args, scen):
    if scen.kind != "game":
        raise ConfigError("scenario", "game needs a two-player scenario")
    paths = simulate_for_scenario(scen, args.particles, args.steps, args.seed)
    try:
        report = solve_game(scen, paths, basis=BasisSpec(degree=args.basis_degree),
                            tol=args.tol)
    except IsaacsError as exc:
        stderr_note(f"aborted: {exc}")
        return 1, {"aborted": True, "isaacs": exc.report.to_dict()}, {}
    checks = verify_saddle(scen, paths, report)
    results = {
        "aborted": False,
        "saddle": report.to_dict(),
        "isaacs": report.isaacs.to_dict(),
        "deviations": checks.to_dict(),
    }
    dev_rows = [("u", r["label"], r["payoff"], r["stderr"], r["slack"], r["ok"])
                for r in checks.u_rows]
    dev_rows += [("v", r["label"], r["payoff"], r["stderr"], r["slack"], r["ok"])
                 for r in checks.v_rows]
    tables = {"deviations.csv": (["side", "label", "payoff", "stderr", "slack", "ok"],
                                 dev_rows)}
    code = 0 if (report.converged and checks.passed) else 1
    return code, results, tables


def _run_verify(args):
    # stdout must stay a single JSON document; echo the lines to stderr
    criteria = run_battery(seed=args.seed, particles=args.particles, steps=args.steps,
                           tol=args.tol, basis=BasisSpec(degree=args.basis_degree))
    for c in criteria:
        stderr_note(c.line())
    all_passed = all(c.passed for c in criteria)
    results = {"criteria": [c.to_dict() for c in criteria],
               "all_passed": all_passed,
               "passed_count": sum(1 for c in criteria if c.passed)}
    rows = [(c.index, c.name, c.passed) for c in criteria]
    tables = {"criteria.csv": (["index", "name", "passed"], rows)}
    return (0 if all_passed else 1), results, tables


def _run_list() -> int:
    for name in builtin_scenarios():
        scen = parse_scenario(builtin_config(name))
        print(f"{name:28s} {scen.kind:8s} horizon {scen.horizon:g}")
    return 0


# ---------------------------------------------------------------------------
# entry


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (None, 0) else int(exc.code)

    if args.command == "list-scenarios":
        return _run_list()

    start = time.perf_counter()
    try:
        _check_run_config(args)
        # argparse requires a scenario for every command except verify, whose
        # battery always spans the built-ins; a scenario there is only echoed
        scen = None
        validation = None
        if args.scenario or args.config:
            scen = _load_scenario(args)
            validation = validate_scenario(scen)
            assert_runnable(validation, override=args.override_validation)

        if args.command == "simulate":
            code, results, tables = _run_simulate(args, scen)
        elif args.command == "fixpoint":
            code, results, tables = _run_fixpoint(args, scen)
        elif args.command == "evaluate":
            code, results, tables = _run_evaluate(args, scen)
        elif args.command == "optimize":
            code, results, tables = _run_optimize(args, scen)
        elif args.command == "game":
            code, results, tables = _run_game(args, scen)
        else:  # verify: argparse restricts the choices
            code, results, tables = _run_verify(args)
    except (ConfigError, ValidationBlockedError) as exc:
        stderr_note(f"configuration error: {exc}")
        return 2
    except json.JSONDecodeError as exc:
        stderr_note(f"configuration error: invalid JSON ({exc})")
        return 2
    except (FloatingPointError, np.linalg.LinAlgError, SingularDiffusionError,
            FixpointConvergenceError, MemoryError) as exc:
        stderr_note(f"computation failed: {exc}")
        return 1

    doc = {
        "command": args.command,
        "config": _config_echo(args),
        "validation": validation.to_dict() if validation is not None else None,
        "results": results,
        "version": f"mfcontrol {__version__}",
        "wall_time_seconds": None,
    }
    try:
        if args.out:
            outdir = Path(args.out)
            outdir.mkdir(parents=True, exist_ok=True)
            write_json(doc, outdir / "report.json")
        else:
            sys.stdout.write(canonical_json(doc))
    except ValueError as exc:   # the report holds a non-finite number
        stderr_note(f"computation failed: {exc}")
        return 1
    if args.out:
        for fname, (header, rows) in tables.items():
            write_csv(outdir / fname, header, rows)
        stderr_note(f"report written to {outdir / 'report.json'}")
    stderr_note(f"wall time: {time.perf_counter() - start:.2f}s")
    return code


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
