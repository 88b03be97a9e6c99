"""The bihomega benchmark: one command, every metric, every output checked.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 15 --trace 0

Run from the repository root.  Every sample runs in a fresh single-threaded
Python process (``worker.py``) that imports bihomega from ``src/``; nothing
is installed or built.

With ``--trace 0`` it measures the named workload: ``SETUP_SAMPLES``
processes that only set up, then one that sets up and runs passes of the
workload for ``--seconds``.  It prints the end-to-end metrics:

  wall_s       seconds of one pass of the workload's fixed work at a fixed
               reference CPU speed: each pass's item latencies are scaled
               by the speed a probe loop (worker.speed_probe, no bihomega
               code) measured between its items, and wall_s sums each
               item's median scaled latency over the run's passes (at
               least three).  Other tenants of a shared machine slow the
               CPU by up to half for minutes at a time; the scaling takes
               that out, and the unscaled seconds are printed beside it
  setup_s      median seconds from process start to inputs ready (imports,
               fixture parsing, structure building, validation), scaled to
               the reference speed by the probe run just after; it is
               dominated by the ~0.15 s of imports
  peak_rss_mb  peak resident memory of the measuring process
  item_p50_ms, item_p90_ms
               latency of one item (cohomology table, identity check or CLI
               command), printed with the sample count when at least ten
               samples lie beyond the percentile
  error_rate   (refused + failed items) / attempted items

With ``--trace 1`` it makes the single traced run: all four workloads, each
with one untraced and one traced pass from the same seed, and prints the
per-layer metrics of each, named ``<workload>.<module>.<function>.<metric>``.

Each result is stamped with the scalar backend, Python version and nproc
(the ``env`` line); ``compare.py`` refuses to compare results whose stamps
differ.  The last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A refusal documented as the
expected outcome (the ladder's degree-0 item) counts in ``error_rate``
but not as failed.  Any other exception or any output that differs from
the expected output is a failure and makes ``correct`` false.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ladder", "combined", "brackets", "fixtures")
SETUP_SAMPLES = 6  # set-up-only processes; the measuring process adds one more
DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def spawn(args: list, deadline: float) -> dict:
    """Run one worker process to completion and return its JSON result."""
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(ROOT / "src"))
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time limit reached before every sample ran")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args} did not finish in time") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {args} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(lines[-1])


def percentile(samples: list, q: float):
    """Nearest-rank percentile, or None when fewer than ten samples lie beyond it."""
    n = len(samples)
    rank = math.ceil(q * n)
    if n - rank < 10:
        return None
    return sorted(samples)[rank - 1]


def measure(args, deadline: float) -> tuple[dict, dict, list]:
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setups, raw_setups = [], []
    for i in range(SETUP_SAMPLES + 1):
        started = time.monotonic()
        if i < SETUP_SAMPLES:
            out = spawn(["setup", *common], deadline)
        else:
            out = spawn(["run", *common, "--seconds", str(args.seconds)], deadline)
        raw_setups.append(out["ready"] - started)
        setups.append(raw_setups[-1] * out["speed"])

    passes, speeds = out["passes"], out["speeds"]
    latencies = [t for p in passes for t in p]
    attempted, failed = len(latencies), len(out["failures"])
    scaled = [[t * speed for t in p] for p, speed in zip(passes, speeds)]
    metrics = {
        "wall_s": {"value": sum(statistics.median(item) for item in zip(*scaled)), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": out["peak_rss_kb"] / 1024, "unit": "MB"},
    }
    raw = sum(statistics.median(item) for item in zip(*passes))
    lines = [
        f"wall_s       {metrics['wall_s']['value']:.6f} s   at reference speed, {len(passes)} passes"
        f" (unscaled {raw:.6f} s, CPU speed {min(speeds):.2f}-{max(speeds):.2f} of reference)",
        f"setup_s      {metrics['setup_s']['value']:.6f} s   at reference speed, median of {len(setups)}"
        f" processes (unscaled {statistics.median(raw_setups):.6f} s)",
        f"peak_rss_mb  {metrics['peak_rss_mb']['value']:.3f} MB",
    ]
    for name, q in (("item_p50_ms", 0.5), ("item_p90_ms", 0.9)):
        value = percentile(latencies, q)
        if value is None:
            lines.append(f"{name:12} not reported: {attempted} items leave fewer than 10 beyond it")
        else:
            lines.append(f"{name:12} {value * 1000:.3f} ms   of {attempted} items")
    errors = out["refused"] + failed
    lines.append(
        f"error_rate   {errors / attempted:.6f}   {errors} of {attempted} items "
        f"({out['refused']} refused as documented, {failed} failed)"
    )
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, out["env"], lines + out["failures"]


def trace(args, deadline: float) -> tuple[dict, dict, list]:
    out = spawn(["trace", "--seed", str(args.seed)], deadline)
    failed = len(out["failures"])
    result = {
        "correct": failed == 0,
        "attempted": out["attempted"],
        "failed": failed,
        "metrics": out["metrics"],
    }
    lines = [f"{name:60} {m['value']:.6g} {m['unit']}" for name, m in out["metrics"].items()]
    errors = out["refused"] + failed
    lines.append(
        f"error_rate   {errors / out['attempted']:.6f}   {errors} of {out['attempted']} items "
        f"({out['refused']} refused as documented, {failed} failed)"
    )
    return result, out["env"], lines + out["notes"] + out["failures"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="bihomega benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "bihomega").is_dir() or not (ROOT / "fixtures").is_dir():
        print(f"error: {ROOT} holds no bihomega source tree (src/bihomega, fixtures/)", file=sys.stderr)
        return 2
    try:
        result, env, lines = (trace if args.trace else measure)(args, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    mode = "traced run of all workloads" if args.trace else f"workload {args.workload}"
    print(f"bihomega benchmark: {mode}, seed {args.seed}, {args.seconds:g} s")
    print("env " + json.dumps(env, sort_keys=True))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
