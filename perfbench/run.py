"""mfcontrol benchmark: one workload, one seed, one run.

Run from the repository root:

    python3 perfbench/run.py --workload family-pricing --seed 7 --seconds 20 --trace 0

Workloads (see workloads.py for the operations and their checks):

  family-pricing  evaluate the 21 linear-quadratic grid constants, then 48
                  seeded affine feedbacks on mean-field-mean-reversion:
                  forward pricing only (girsanov, measure, payoff).
  synthesis       optimize linear-quadratic and mean-field-mean-reversion:
                  backward solves and Hamiltonian minimization.
  acceptance      verify, the ten-criterion battery: the only workload that
                  runs the game module and the TV/Hellinger estimators.
                  The battery's own verdict, whose 3-sigma gates fail at
                  some seeds, is reported as checks.battery_failed_criteria;
                  the benchmark checks the report itself.

Each run starts fresh interpreters: five set-up probes (import, parse and
validate the first scenario, simulate its ensemble) and one worker that calls
``mfcontrol.cli.main`` for every operation.  The worker repeats whole passes
until --seconds have gone; ``wall_s`` is the median pass.  With --trace 1 it
then makes two traced passes and the run reports per-layer self times and
counts instead of the end-to-end metrics.

Output: a metric table on stderr, one detail record on stdout (environment,
report digests, failures), and as the last stdout line
{"correct", "attempted", "failed", "metrics"}.  Exits 2 without a result when
the current directory holds no mfcontrol sources, 1 when a run cannot finish.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import WORKLOADS, default_scale, working_set_bytes  # noqa: E402

BLAS_THREADS = 1          # steadier than 2 on a 2-core box; must not exceed nproc
SETUP_PROBES = 5
RUN_DEADLINE_S = 170.0    # a run must end within 180 s
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT_DIR = ".perfbench_out"


def metric_unit(name: str) -> str:
    if name == "peak_rss_mb":
        return "MB"
    if name == "checks.accuracy_sigma":
        return "sigma"
    if name == "checks.failed_frac":
        return "fraction"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def environment(scale: dict) -> dict:
    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip()
                                 for f in ("level", "type", "size"))
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"l{level}_cache"] = size

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "l2_cache": caches.get("l2_cache"),
        "l3_cache": caches.get("l3_cache"),
        "python": platform.python_version(),
        "blas_threads": BLAS_THREADS,
        "scale": scale,
        "working_set_bytes_computed": working_set_bytes(scale),
    }


def _child(cmd: list[str], env: dict, deadline: float) -> str:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise TimeoutError("run deadline passed before the worker started")
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, timeout=remaining,
                          check=True, text=True)
    return proc.stdout


def bench(root: Path, workload: str, seed: int, seconds: float, trace: bool,
          scale: dict | None = None) -> tuple[dict, dict]:
    """One run: set-up probes, then the worker.  Returns (result, detail)."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    scale = scale or default_scale(workload)
    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=out_dir))
    try:
        (workdir / "tmp").mkdir()
        env = dict(os.environ)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = str(BLAS_THREADS)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
        env["TMPDIR"] = str(workdir / "tmp")  # the battery makes a temporary directory

        base = [sys.executable, str(WORKER)]
        common = ["--workload", workload, "--seed", str(seed),
                  "--particles", str(scale["particles"]), "--steps", str(scale["steps"])]
        setups = [json.loads(_child([*base, "setup", *common], env, deadline))["setup_s"]
                  for _ in range(SETUP_PROBES)]
        result_file = workdir / "result.json"
        spans_file = out_dir / f"spans-{workload}-seed{seed}.json"
        _child([*base, "run", *common, "--seconds", str(seconds),
                "--trace", str(int(trace)), "--workdir", str(workdir),
                "--result", str(result_file), "--spans", str(spans_file)],
               env, deadline)
        summary = json.loads(result_file.read_text())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    wall = statistics.median(summary["walls"])
    failed_frac = summary["failed"] / summary["attempted"]
    correct = (summary["failed"] == 0 and summary["digests_match"]
               and summary.get("counts_repeat", True))
    if trace:
        layers = dict(summary["layers"])
        unattributed = layers.pop("unattributed_s")
        layers["trace.overhead_s"] = statistics.median(summary["traced_walls"]) - wall
        layers["checks.accuracy_sigma"] = summary["accuracy_sigma"]
        layers["checks.failed_frac"] = failed_frac
        layers["checks.battery_failed_criteria"] = len(summary["battery_failed"])
        values = layers
    else:
        unattributed = None
        values = {"wall_s": wall, "setup_s": statistics.median(setups),
                  "peak_rss_mb": summary["peak_rss_mb"]}
    result = {"correct": bool(correct), "attempted": summary["attempted"],
              "failed": summary["failed"],
              "metrics": {k: {"value": v, "unit": metric_unit(k)} for k, v in values.items()}}
    detail = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": {**environment(scale), "numpy": summary["numpy"],
                        "blas": summary["blas"]},
        "operations": summary["operations"],
        "walls_s": summary["walls"], "traced_walls_s": summary["traced_walls"],
        "setup_probes_s": setups,
        "failed_frac": failed_frac, "accuracy_sigma": summary["accuracy_sigma"],
        "battery_failed_criteria": summary["battery_failed"],
        "failures": summary["failures"],
        "digests": summary["digests"], "digests_match": summary["digests_match"],
        "counts_repeat": summary.get("counts_repeat"),
        "unattributed_s": unattributed,
        "untraced_targets": summary.get("untraced_targets", []),
    }
    return result, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "mfcontrol" / "cli.py").is_file():
        print("perfbench: no src/mfcontrol here; run from the repository root",
              file=sys.stderr)
        return 2
    try:
        result, detail = bench(root, args.workload, args.seed, args.seconds,
                               bool(args.trace))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, TimeoutError,
            OSError, ValueError, KeyError) as exc:
        print(f"perfbench: run failed: {exc}", file=sys.stderr)
        return 1

    for name, metric in result["metrics"].items():
        print(f"{name:36s} {metric['value']:>16.6g} {metric['unit']}", file=sys.stderr)
    print(f"{'failed_frac':36s} {detail['failed_frac']:>16.6g} fraction", file=sys.stderr)
    print(f"{'accuracy_sigma':36s} {detail['accuracy_sigma']:>16.6g} sigma", file=sys.stderr)
    if detail["battery_failed_criteria"]:
        print(f"battery verdict (not a failed operation): criteria "
              f"{detail['battery_failed_criteria']} failed", file=sys.stderr)
    for failure in detail["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    for target in detail["untraced_targets"]:
        print(f"not traced (absent from the program): {target}", file=sys.stderr)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
