"""Alternate benchmark runs of two checkouts and compare their end-to-end metrics.

    python3 tools/ab_pairs.py --parent PARENT_DIR --change . --workload fixtures \\
        [--workload ladder ...] --seed 7 --seconds 15 --pairs 10 [--json ab.json]

PARENT_DIR and the change are two checkouts of the repository, for example
the parent commit unpacked by ``git archive`` and the working tree.  Each
pair runs ``perfbench/run.py`` once in each checkout, the parent first in
odd pairs and the change first in even ones, one run at a time; the
workloads named by ``--workload`` run one after another, ``--pairs`` pairs
each.  For each workload and each end-to-end metric that the change's
``BENCHMARK.json`` declares, it prints both sides' median and quartiles
(inclusive), the parent's interquartile range and the number of pairs the
change wins (ties count for neither), one block per workload, so that a
claimed gain and the check that no other workload got worse come from one
invocation.  A gain holds when the change wins at least nine tenths of the
pairs and the medians differ by more than the parent's interquartile range.
Each metric with a relative ``bound`` in ``BENCHMARK.json`` also gets a
verdict: ``worse`` when the change's median is worse than the parent's by
more than the bound, ``unresolved`` when the parent's interquartile range is
wider than the bound (the runs spread too widely to tell), and otherwise
``gain`` or ``no gain``; it is printed at the end of the metric's line.
``--json`` writes, per workload, every run, with the ``env`` stamp the
benchmark printed, and the summary, beside each side's bytecode state.  A
run whose outputs were wrong (``correct`` false) is printed and ends the
comparison with exit code 1.

Both sides run with ``PYTHONDONTWRITEBYTECODE=1``, so no run writes bytecode
that a later run could load.  A checkout that holds ``src/bihomega/__pycache__``
skips compiling the package in every process, which lowers ``setup_s`` and
``peak_rss_mb`` for reasons unrelated to the code; when exactly one of the two
holds it, the comparison is refused with exit code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run in ``checkout``: its metric values, plus
    ``correct``, the ``env`` stamp and the unscaled ``wall_s`` and pass count it prints."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        cmd + ["--seconds", str(seconds)], cwd=checkout, env=env, capture_output=True, text=True, check=False
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    run = {name: m["value"] for name, m in result["metrics"].items()}
    run["correct"] = result["correct"]
    run["env"] = json.loads(next(line for line in lines if line.startswith("env "))[len("env "):])
    wall = next((line for line in lines if line.startswith("wall_s ")), "")
    match = re.search(r"(\d+) passes \(unscaled ([\d.]+) s", wall)
    if match:
        run["passes"], run["wall_s_unscaled"] = int(match.group(1)), float(match.group(2))
    return run


def has_bytecode(checkout: Path) -> bool:
    """Whether ``checkout`` holds compiled bytecode of the package."""
    return (checkout / "src" / "bihomega" / "__pycache__").is_dir()


def quartiles(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"q1": q1, "median": median, "q3": q3}


def summarize(parent: list, change: list, better: dict, bounds: dict | None = None) -> dict:
    """Per metric (``better``: name -> "lower" or "higher"), both sides'
    quartiles, the change's wins over paired runs, whether it is a gain and
    a verdict.  With a relative bound (``bounds``: name -> bound, e.g. 0.25)
    the verdict is "worse" when the change's median is worse than the
    parent's by more than bound * parent median, else "unresolved" when the
    parent's interquartile range is wider than that, else "gain" or "no
    gain"; a metric without a bound gets only the last two."""
    out = {}
    for name, direction in better.items():
        p, c = [r[name] for r in parent], [r[name] for r in change]
        sign = 1 if direction == "lower" else -1
        wins = sum(1 for a, b in zip(p, c) if sign * (a - b) > 0)
        ps, cs = quartiles(p), quartiles(c)
        iqr = ps["q3"] - ps["q1"]
        gap = sign * (ps["median"] - cs["median"])
        out[name] = {
            "parent": ps,
            "change": cs,
            "parent_iqr": iqr,
            "relative_change": (cs["median"] - ps["median"]) / ps["median"] if ps["median"] else None,
            "change_wins": wins,
            "pairs": len(p),
            "gain": wins * 10 >= 9 * len(p) and gap > iqr,
        }
        bound = (bounds or {}).get(name)
        allowed = None if bound is None else bound * abs(ps["median"])
        if allowed is not None and -gap > allowed:
            out[name]["verdict"] = "worse"
        elif allowed is not None and iqr > allowed:
            out[name]["verdict"] = "unresolved"
        else:
            out[name]["verdict"] = "gain" if out[name]["gain"] else "no gain"
    return out


def run_pairs(args, workload: str, better: dict) -> dict | None:
    """``args.pairs`` alternating pairs on one workload: both sides' runs, or
    None when a run reported wrong outputs."""
    runs = {"parent": [], "change": []}
    for pair in range(1, args.pairs + 1):
        order = ("parent", "change") if pair % 2 else ("change", "parent")
        for side in order:
            run = run_once(getattr(args, side), workload, args.seed, args.seconds)
            run["pair"] = pair
            runs[side].append(run)
            values = " ".join(f"{k}={run[k]:.6g}" for k in better)
            print(f"{workload} pair {pair} {side:6} {values}", flush=True)
            if not run["correct"]:
                print(f"{workload} pair {pair}: the {side} run reported wrong outputs", file=sys.stderr)
                return None
    return runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, default=Path("."))
    parser.add_argument("--workload", action="append", required=True, help="repeat for several workloads")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--json", type=Path)
    args = parser.parse_args(argv)
    bytecode = {side: has_bytecode(getattr(args, side)) for side in ("parent", "change")}
    if bytecode["parent"] != bytecode["change"]:
        side = "parent" if bytecode["parent"] else "change"
        print(
            f"error: only the {side} checkout {getattr(args, side)} holds src/bihomega/__pycache__;"
            " remove it so that both sides compile the package alike",
            file=sys.stderr,
        )
        return 2
    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"] if "bound" in m}
    results = {}
    for workload in args.workload:
        runs = run_pairs(args, workload, better)
        if runs is None:
            return 1
        results[workload] = {"runs": runs, "summary": summarize(runs["parent"], runs["change"], better, bounds)}
    for workload, result in results.items():
        print(f"== {workload}")
        for name, s in result["summary"].items():
            p, c = s["parent"], s["change"]
            print(
                f"{name:12} parent {p['median']:.6g} [{p['q1']:.6g}, {p['q3']:.6g}]"
                f"  change {c['median']:.6g} [{c['q1']:.6g}, {c['q3']:.6g}]"
                f"  change wins {s['change_wins']}/{s['pairs']}  parent IQR {s['parent_iqr']:.3g}"
                f"  {s['verdict']}"
            )
    if args.json:
        method = {
            "workloads": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "pairs": args.pairs,
            "bytecode": bytecode,
        }
        args.json.write_text(json.dumps({"method": method, "workloads": results}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
