"""Benchmark worker, started by run.py in a fresh interpreter.

    worker.py setup --workload W --seed N --particles M --steps K
        import mfcontrol, parse + validate the workload's first scenario and
        simulate its reference ensemble; print the elapsed seconds as JSON.

    worker.py run --workload W --seed N --particles M --steps K
                  --seconds S --trace 0|1 --workdir DIR --result FILE [--spans FILE]
        run untraced passes over the workload's operations until S seconds
        have gone (at least one), then with --trace 1 two traced passes and
        write the last one's spans to --spans; check every operation and
        write the summary to FILE.

mfcontrol is imported from PYTHONPATH, which run.py points at the checkout's
src directory.  Every operation is one ``mfcontrol.cli.main(argv)`` call.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import FIRST_SCENARIO, build_workload, check_operation  # noqa: E402


def setup_probe(args) -> None:
    start = time.perf_counter()
    from mfcontrol import (builtin_config, parse_scenario, simulate_for_scenario,
                           validate_scenario)
    scenario = parse_scenario(builtin_config(FIRST_SCENARIO[args.workload]))
    validate_scenario(scenario)
    simulate_for_scenario(scenario, args.particles, args.steps, args.seed)
    print(json.dumps({"setup_s": time.perf_counter() - start}))


def _blas_info() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError, AttributeError):
        blas = {"name": None, "version": None}
    return {"numpy": np.__version__, "blas": blas}


def run(args) -> None:
    import mfcontrol.cli as cli
    from tracing import Tracer, count_metric_names

    # Paths given to the CLI are relative to the work directory, because the
    # report echoes --controls-file: the same run must give the same bytes in
    # any work directory.
    os.chdir(args.workdir)
    workdir = Path()
    ops = build_workload(args.workload, args.seed,
                         {"particles": args.particles, "steps": args.steps})
    for op in ops:
        for fname, doc in op.inputs.items():
            path = workdir / "inputs" / fname
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(doc))
            op.argv += ["--controls-file", str(path)]

    def one_pass(tag: str):
        """Run every operation, then check them; checks stay out of the wall time."""
        argvs = [[*op.argv, "--out", str(workdir / tag / op.name)] for op in ops]
        start = time.perf_counter()
        codes = [cli.main(argv) for argv in argvs]  # looked up per call: tracer-aware
        wall = time.perf_counter() - start
        outcomes = [check_operation(op, code, workdir / tag / op.name)
                    for op, code in zip(ops, codes)]
        shutil.rmtree(workdir / tag, ignore_errors=True)
        return wall, outcomes

    walls, passes = [], []
    began = time.perf_counter()
    while not walls or time.perf_counter() - began < args.seconds:
        wall, outcomes = one_pass(f"pass{len(walls)}")
        walls.append(wall)
        passes.append(outcomes)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    traced_walls, layer_runs, tracer = [], [], None
    if args.trace:
        for i in range(2):
            tracer = Tracer()
            with tracer:
                wall, outcomes = one_pass(f"traced{i}")
            traced_walls.append(wall)
            passes.append(outcomes)
            layers = tracer.layer_metrics()
            layers["unattributed_s"] = wall - tracer.root_seconds()
            layer_runs.append(layers)
        if args.spans:
            Path(args.spans).write_text(json.dumps(tracer.dump()))

    flat = [o for outcomes in passes for o in outcomes]
    digests = [{op.name: o.digests for op, o in zip(ops, outcomes)} for outcomes in passes]
    summary = {
        "walls": walls,
        "traced_walls": traced_walls,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(flat),
        "failed": sum(1 for o in flat if not o.ok),
        "failures": sorted({f"{op.name}: {r}" for outcomes in passes
                            for op, o in zip(ops, outcomes) for r in o.reasons}),
        "accuracy_sigma": max((z for o in passes[0] for z in o.z_scores), default=0.0),
        "battery_failed": sorted({i for o in passes[0] for i in o.battery_failed}),
        "digests": digests[0],
        "digests_match": all(d == digests[0] for d in digests),
        "operations": [{"name": op.name, "argv": op.argv} for op in ops],
        **_blas_info(),
    }
    if layer_runs:
        counts = count_metric_names()
        summary["counts_repeat"] = all(
            layer_runs[0][k] == run_[k] for run_ in layer_runs for k in counts)
        summary["untraced_targets"] = tracer.missing
        summary["layers"] = {
            k: (layer_runs[0][k] if k in counts
                else statistics.median(run_[k] for run_ in layer_runs))
            for k in layer_runs[0]}
    Path(args.result).write_text(json.dumps(summary))


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--particles", type=int, required=True)
    parser.add_argument("--steps", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir")
    parser.add_argument("--result")
    parser.add_argument("--spans")
    args = parser.parse_args()
    if args.mode == "setup":
        setup_probe(args)
    else:
        run(args)


if __name__ == "__main__":
    main()
