"""Self-test of the benchmark at tiny scale (200 particles, 10 steps).

Run from the repository root:

    python3 perfbench/selftest.py

It checks that

* every metric BENCHMARK.json names is emitted with its unit, on every
  workload, with --trace 0 and with --trace 1;
* a missing, unreadable or tampered report counts as a failed operation, and
  so does an exit code its report does not imply;
* the traced passes write byte-identical reports to the untraced ones, in the
  same process and across processes (the span wrappers are pure);
* the count metrics repeat exactly across two separate traced runs.

At this scale some operations fail their statistical checks; that is expected
and not what is tested here.  Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import OUT_DIR, bench  # noqa: E402
from tracing import count_metric_names  # noqa: E402
from workloads import WORKLOADS, build_workload, check_operation  # noqa: E402

TINY = {"particles": 200, "steps": 10}


def _expect(cond: bool, message: str, problems: list[str]) -> None:
    print(f"{'ok  ' if cond else 'FAIL'} {message}")
    if not cond:
        problems.append(message)


def _declared(spec: dict, key: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in spec[key]}


def check_metrics(root: Path, problems: list[str]) -> None:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    end_to_end, per_layer = _declared(spec, "end_to_end"), _declared(spec, "per_layer")
    counts = count_metric_names()
    for workload in WORKLOADS:
        plain, plain_detail = bench(root, workload, 7, 0, False, TINY)
        traced, traced_detail = bench(root, workload, 7, 0, True, TINY)
        again, _ = bench(root, workload, 7, 0, True, TINY)
        for result, declared, label in ((plain, end_to_end, "--trace 0"),
                                        (traced, per_layer, "--trace 1")):
            emitted = {k: m["unit"] for k, m in result["metrics"].items()}
            _expect(emitted == declared,
                    f"{workload} {label}: metrics and units match BENCHMARK.json", problems)
            _expect(result["attempted"] >= 1 and isinstance(result["failed"], int),
                    f"{workload} {label}: attempted and failed are counts", problems)
        _expect(traced_detail["digests_match"]
                and traced_detail["digests"] == plain_detail["digests"]
                and all(plain_detail["digests"].values()),
                f"{workload}: traced and untraced reports have equal digests", problems)
        _expect(all(traced["metrics"][k] == again["metrics"][k] for k in counts),
                f"{workload}: count metrics repeat across traced runs", problems)


def check_tampering(root: Path, problems: list[str]) -> None:
    sys.path.insert(0, str(root / "src"))
    import mfcontrol.cli as cli

    base = root / OUT_DIR
    base.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=base))
    try:
        op = build_workload("family-pricing", 7, TINY)[0]
        (fname, doc), = op.inputs.items()
        (work / fname).write_text(json.dumps(doc))
        out = work / "out"
        code = cli.main([*op.argv, "--controls-file", str(work / fname), "--out", str(out)])
        _expect(check_operation(op, code, out).ok, "untouched report passes", problems)
        _expect(not check_operation(op, 1, out).ok, "unexpected exit code fails", problems)

        report_path = out / "report.json"
        report = json.loads(report_path.read_text())
        row = report["results"]["controls"][3]
        row["payoff"] += 10.0 * row["stderr"] + 1e-6
        report_path.write_text(json.dumps(report))
        _expect(not check_operation(op, code, out).ok, "tampered payoff fails", problems)

        report_path.write_text("{ not json")
        _expect(not check_operation(op, code, out).ok, "unreadable report fails", problems)

        report_path.unlink()
        _expect(not check_operation(op, code, out).ok, "missing report fails", problems)
        _expect(not check_operation(op, 0, work / "never-written").ok,
                "exit 0 without any output fails", problems)

        # At this scale the battery's report may already fail a statistical
        # check, so each tampering must add a reason of its own.
        op = build_workload("acceptance", 7, TINY)[0]
        out = work / "verify"
        code = cli.main([*op.argv, "--out", str(out)])
        base = check_operation(op, code, out).reasons

        def adds_reason(code_seen: int) -> bool:
            return len(check_operation(op, code_seen, out).reasons) > len(base)

        _expect(adds_reason(1 - code),
                "battery exit code that contradicts its report fails", problems)
        report_path = out / "report.json"
        report = json.loads(report_path.read_text())
        criteria = report["results"]["criteria"]
        criteria[9]["details"]["identical"] = False
        report_path.write_text(json.dumps(report))
        _expect(adds_reason(code), "battery report with non-identical reruns fails", problems)
        criteria[9]["details"]["identical"] = True
        criteria[8]["details"]["bilinear"]["exit_code"] = 0
        report_path.write_text(json.dumps(report))
        _expect(adds_reason(code), "battery report without the non-Isaacs abort fails",
                problems)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    root = Path.cwd()
    if not (root / "src" / "mfcontrol" / "cli.py").is_file():
        print("selftest: run from the repository root", file=sys.stderr)
        return 2
    problems: list[str] = []
    check_tampering(root, problems)
    check_metrics(root, problems)
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
