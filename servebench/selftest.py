"""Tiny-scale self-test of the served-decrypt benchmark.

Run from the root of a checkout::

    python3 servebench/selftest.py

Runs every workload in ``BENCHMARK.json`` once per trace mode for a
couple of seconds.  It checks that each run exits 0, reports
``correct: true``, prints exactly the metric names and units that
``BENCHMARK.json`` lists, with finite values, and compared at least one
returned plaintext.  It also checks that a directory holding only
``BENCHMARK.json`` and the benchmark's own files makes the benchmark exit
non-zero without a result.
"""

from __future__ import annotations

import json
import math
import pathlib
import shutil
import subprocess
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SECONDS = "2"


def run(root: pathlib.Path, spec: dict, workload: str, trace: int) -> subprocess.CompletedProcess:
    command = [*spec["command"], "--workload", workload, "--seed", "1", "--seconds", SECONDS, "--trace", str(trace)]
    command[0] = sys.executable
    return subprocess.run(command, cwd=root, capture_output=True, text=True, timeout=300)


def check_result(spec: dict, workload: str, trace: int, proc: subprocess.CompletedProcess) -> list[str]:
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stdout[-1500:]}\n{proc.stderr[-1500:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append(f"{where}: correct is {result.get('correct')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"{where}: attempted {result.get('attempted')}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: entry.get("unit") for name, entry in result["metrics"].items()}
    if got != wanted:
        problems.append(f"{where}: metrics/units {got} != {wanted}")
    for name, entry in result["metrics"].items():
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {name} = {value!r}")
    checked = [line for line in lines if line.startswith("plaintexts checked ")]
    if not checked or int(checked[0].split()[-1]) < 1:
        problems.append(f"{where}: no returned plaintext was checked")
    return problems


def check_bare_directory(spec: dict) -> list[str]:
    """The benchmark must refuse to run without the program's sources."""
    bare = ROOT / ".servebench_tmp" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, spec, spec["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    problems = []
    if proc.returncode == 0:
        problems.append("bare directory: the benchmark exited 0")
    if '"correct"' in proc.stdout:
        problems.append("bare directory: the benchmark printed a result")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = check_bare_directory(spec)
    for workload in spec["workloads"]:
        for trace in (0, 1):
            proc = run(ROOT, spec, workload["name"], trace)
            found = check_result(spec, workload["name"], trace, proc)
            print(f"{workload['name']} --trace {trace}: {'ok' if not found else 'FAILED'}", flush=True)
            problems += found
    for problem in problems:
        print(problem)
    print("selftest " + ("passed" if not problems else f"failed ({len(problems)} problems)"))
    return 0 if not problems else 1


if __name__ == "__main__":
    raise SystemExit(main())
