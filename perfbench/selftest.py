"""The benchmark's own test.

    python3 perfbench/selftest.py

Checks, at the current code:
  1. with the recorded expectations every output is accepted, and the only
     non-ok item is the ladder's documented degree-0 refusal;
  2. a corrupted expected value (a ladder table entry, a fixtures report)
     turns exactly that item into a failure, raising error_rate;
  3. every count and ratio of the traced run repeats exactly across two
     traced runs with the same seed;
  4. compare.py refuses logs whose environment stamps differ;
  5. run.py fails without printing a result in a directory that holds only
     BENCHMARK.json and perfbench/.
Exits 0 when all hold, 1 otherwise.  Takes about two minutes.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

PROBLEMS = []


def expect(condition: bool, message: str):
    print(("ok    " if condition else "FAIL  ") + message)
    if not condition:
        PROBLEMS.append(message)


def one_pass(name: str, expected: dict) -> workloads.Pass:
    p = workloads.Pass()
    workloads.build(name, 3, ROOT, expected).run_pass(p)
    return p


def check_expectations():
    expected = workloads.load_expected()
    ladder, fixtures = one_pass("ladder", expected), one_pass("fixtures", expected)
    expect(not ladder.failures and not fixtures.failures, "recorded expectations accept every output")
    expect(ladder.refused == 1 and fixtures.refused == 0, "the only refusal is the ladder's degree-0 item")

    corrupted = copy.deepcopy(expected)
    corrupted["ladder"]["c2_variant0"]["degrees"][4]["cohomology"] += 1
    key = workloads.command_key(("star", "fixtures/e1_rbf.json"))
    corrupted["fixtures"][key]["report"] = corrupted["fixtures"][key]["report"].replace('"ok"', '"okay"')
    bad_ladder, bad_fixtures = one_pass("ladder", corrupted), one_pass("fixtures", corrupted)
    expect(
        [f.split(":")[0] for f in bad_ladder.failures] == ["ladder.c2_variant0"],
        "a corrupted ladder table entry fails exactly that item",
    )
    expect(
        [f.split(":")[0] for f in bad_fixtures.failures] == ["fixtures.star"],
        "a corrupted fixtures report fails exactly that command",
    )


def run_bench(cwd: Path, *args) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=200
    )


def check_trace_counts_repeat():
    results = []
    for _ in range(2):
        proc = run_bench(ROOT, "--workload", "fixtures", "--seed", "5", "--seconds", "1", "--trace", "1")
        expect(proc.returncode == 0, "traced run exits 0")
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    first, second = (r["metrics"] for r in results)
    expect(set(first) == declared, "the traced run reports exactly the per-layer metrics declared")
    counts = [n for n, m in first.items() if m["unit"] != "s"]
    differing = [n for n in counts if first[n]["value"] != second[n]["value"]]
    expect(not differing, f"{len(counts)} counts and ratios repeat exactly across two traced runs {differing}")
    expect(all(r["correct"] and r["failed"] == 0 for r in results), "traced runs check every output")


def check_stamp_refusal(scratch: Path):
    result = '{"correct": true, "attempted": 1, "failed": 0, "metrics": {"wall_s": {"value": 1.0, "unit": "s"}}}'
    for name, backend in (("a.log", "fractions"), ("b.log", "gmpy2")):
        (scratch / name).write_text(
            "bihomega benchmark: workload ladder, seed 1, 1 s\n"
            f'env {{"backend": "{backend}", "nproc": 2, "python": "3.11.7"}}\n{result}\n'
        )
    proc = subprocess.run(
        [sys.executable, str(HERE / "compare.py"), "--base", str(scratch / "a.log"), "--head", str(scratch / "b.log")],
        capture_output=True,
        text=True,
    )
    expect(proc.returncode == 2 and "refused" in proc.stderr, "compare.py refuses results of another backend")


def check_fails_without_program(scratch: Path):
    bare = scratch / "bare"
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = run_bench(bare, "--workload", "ladder", "--seed", "1", "--seconds", "1", "--trace", "0")
    printed_result = any(line.startswith("{") for line in proc.stdout.splitlines())
    expect(proc.returncode != 0 and not printed_result, "run.py fails without a result when the program is absent")


def main() -> int:
    check_expectations()
    check_trace_counts_repeat()
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-selftest-") as tmp:
        check_stamp_refusal(Path(tmp))
        check_fails_without_program(Path(tmp))
    print(f"{len(PROBLEMS)} problems")
    return 1 if PROBLEMS else 0


if __name__ == "__main__":
    sys.exit(main())
