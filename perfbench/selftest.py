"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

For every workload it runs the benchmark untraced and traced on tiny
inputs and checks that every metric named in BENCHMARK.json is printed
with its unit, that the traced run's self times add up to its task wall
times within the benchmark's own bound, and that the tracing overhead is
printed.  It also checks that a directory holding only the benchmark
(no source tree) makes it fail without printing a result.  Exits 0 when
every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import OUT  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "0.3", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def _check_result(done, expected: dict) -> list:
    problems = []
    if done.returncode != 0:
        return [f"exit code {done.returncode}: {done.stderr.strip()[-300:]}"]
    result = json.loads(done.stdout.splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not result.get("correct") or result.get("attempted", 0) < 1:
        problems.append(f"correct={result.get('correct')} attempted={result.get('attempted')}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        problems.append(f"metrics differ: missing {sorted(set(expected) - set(metrics))}, "
                        f"extra {sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        entry = metrics.get(name, {})
        if entry.get("unit") != unit or not isinstance(entry.get("value"), (int, float)):
            problems.append(f"{name}: {entry} (expected unit {unit})")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        print("FAIL: BENCHMARK.json workloads differ from perfbench/workloads.py")
        return 1
    failures = 0
    for workload in WORKLOADS:
        for trace, expected in ((0, end_to_end), (1, per_layer)):
            done = _run(ROOT, workload, trace)
            problems = _check_result(done, expected)
            if trace == 1 and not problems:
                if "tracing overhead" not in done.stdout:
                    problems.append("tracing overhead not printed")
                saved = json.loads((OUT / f"{workload}-seed7-trace1.json").read_text())
                if not saved["self_sum_excess"] <= 1.0:
                    problems.append(f"self times miss wall time by "
                                    f"{saved['self_sum_excess']:.3g} times the allowed gap")
            failures += bool(problems)
            print(f"{'FAIL' if problems else 'ok  '} {workload} trace={trace}"
                  + "".join(f"\n     {p}" for p in problems))

    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(bare, "desk-op", 0)
    printed = any(line.startswith("{") for line in done.stdout.splitlines())
    bare_ok = done.returncode != 0 and not printed
    failures += not bare_ok
    print(f"{'ok  ' if bare_ok else 'FAIL'} without a source tree: exit {done.returncode}"
          f"{', printed a result' if printed else ''}")
    shutil.rmtree(bare)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
