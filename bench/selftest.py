#!/usr/bin/env python3
"""Fast self-test of the benchmark at tiny problem sizes (about half a minute).

Runs every workload, untraced and traced, on tiny instances and checks that
each run emits exactly the metrics BENCHMARK.json names, each with its unit,
that the correctness gates pass, that the traced and untraced ``log.csv``
files agree, and that the report records the environment, the resolved
targets and the fingerprint.  Also checks that the benchmark refuses to run,
without printing a result, in a directory holding only BENCHMARK.json and the
benchmark's own files.

    python3 bench/selftest.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check_workload(name: str, trace: bool, spec: dict, problems: list) -> None:
    out = run.run_workload(name, seed=7, seconds=0.2, trace=trace, tiny=True)
    result, report = out["result"], out["report"]
    where = f"{name} trace={int(trace)}"
    if set(result) != RESULT_KEYS:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{where}: gates failed: {report['failures']}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    if got != wanted:
        problems.append(f"{where}: metrics/units differ from BENCHMARK.json: "
                        f"missing {sorted(set(wanted) - set(got))}, "
                        f"extra {sorted(set(got) - set(wanted))}, "
                        f"unit mismatch {[k for k in got if k in wanted and got[k] != wanted[k]]}")
    for k, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            problems.append(f"{where}: {k} = {m['value']!r}")
        elif not trace and m["value"] <= 0:
            problems.append(f"{where}: end-to-end metric {k} is {m['value']}")
    env = report["environment"]
    for key in ("threads", "nproc", "cpu", "python", "numpy", "scipy", "blas"):
        if key not in env:
            problems.append(f"{where}: environment lacks {key}")
    if not report["target"]["discrepancy_eta"] or len(report["fingerprint"]) != 64:
        problems.append(f"{where}: report lacks the resolved targets or the fingerprint")
    if trace and report["missing_sites"]:
        problems.append(f"{where}: trace sites not found: {report['missing_sites']}")
    print(f"ok  {where}: {result['attempted']} solves, {len(got)} metrics")


def check_refuses_without_program(problems: list) -> None:
    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for f in run.BENCH_DIR.glob("*.py"):
        shutil.copy(f, bare / "bench")
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "quadratic-l1",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=120)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        problems.append("benchmark ran without the program's sources")
    else:
        print(f"ok  refuses to run without src/ (exit {proc.returncode})")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []
    for name in run.WORKLOADS:
        for trace in (False, True):
            check_workload(name, trace, spec, problems)
    check_refuses_without_program(problems)
    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
