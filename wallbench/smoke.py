"""Toy-size self-test of the benchmark; exits non-zero on any problem.

Runs every workload named in ``BENCHMARK.json`` at ``--size toy`` with
the main seed and one held-out seed, untraced and traced, and checks
that each run passes its correctness and span checks and reports every
metric ``BENCHMARK.json`` names, with its unit.  It then runs the
benchmark from a directory holding only ``BENCHMARK.json`` and the
benchmark's own files, where it must fail without printing a result.

    python3 wallbench/smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MAIN_SEED = 1
HELD_OUT_SEED = 97


def run(cwd: Path, workload: str, seed: int, trace: int
        ) -> subprocess.CompletedProcess:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    command = spec["command"] + [
        "--workload", workload, "--seed", str(seed), "--seconds", "0.5",
        "--trace", str(trace), "--size", "toy"]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=180)


def check_run(spec: dict, workload: str, seed: int, trace: int) -> list:
    label = f"{workload} seed={seed} trace={trace}"
    proc = run(ROOT, workload, seed, trace)
    if proc.returncode != 0:
        return [f"{label}: exit {proc.returncode}\n{proc.stdout}"
                f"{proc.stderr}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{label}: result keys {sorted(result)}")
    if result["correct"] is not True or result["attempted"] < 1:
        problems.append(f"{label}: correct={result['correct']} "
                        f"attempted={result['attempted']}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result["metrics"]
    if sorted(metrics) != sorted(m["name"] for m in wanted):
        problems.append(f"{label}: metric names differ from BENCHMARK.json")
    for metric in wanted:
        got = metrics.get(metric["name"])
        if got is None or got.get("unit") != metric["unit"] \
                or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{label}: {metric['name']} reported as {got}")
    return problems


def check_isolated(spec: dict) -> list:
    """Without the program beside it, the benchmark must fail quietly."""
    isolated = ROOT / ".wallbench_work" / "isolated"
    shutil.rmtree(isolated, ignore_errors=True)
    isolated.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", isolated)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, isolated / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(isolated, spec["workloads"][0]["name"], MAIN_SEED, 0)
    finally:
        shutil.rmtree(isolated, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"isolated run: exit {proc.returncode}, "
                f"stdout {proc.stdout!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in (MAIN_SEED, HELD_OUT_SEED):
            for trace in (0, 1):
                found = check_run(spec, workload, seed, trace)
                print(f"{'FAIL' if found else 'ok  '} {workload} "
                      f"seed={seed} trace={trace}", flush=True)
                problems += found
    problems += check_isolated(spec)
    for problem in problems:
        print(problem)
    print("smoke: " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
