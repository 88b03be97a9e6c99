"""Compare saved benchmark outputs of two commits, metric by metric.

    python3 perfbench/run.py --workload brackets --seed 1 --seconds 15 --trace 0 > base1.log
    ...
    python3 perfbench/compare.py --base base1.log base2.log --head head1.log head2.log

Each log is the standard output of one ``run.py`` call.  The comparison is
refused (exit 2) when the logs' environment stamps (scalar backend, Python
version, nproc) or their workloads differ, because such numbers are not
comparable.  Otherwise it prints, per metric, the median of each side and
the head's change as a share of the base median; an end-to-end metric that
got worse by more than its bound in ``BENCHMARK.json`` is marked REGRESSION
and makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def read_log(path: str) -> dict:
    lines = Path(path).read_text(encoding="utf-8").strip().splitlines()
    header = next((ln for ln in lines if ln.startswith("bihomega benchmark: ")), None)
    env = next((ln for ln in lines if ln.startswith("env ")), None)
    if header is None or env is None or not lines[-1].startswith("{"):
        raise ValueError(f"{path} is not the output of perfbench/run.py")
    return {
        "path": path,
        "mode": header[len("bihomega benchmark: ") :].split(", seed")[0],
        "env": json.loads(env[len("env ") :]),
        "result": json.loads(lines[-1]),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="compare benchmark logs of two commits")
    parser.add_argument("--base", nargs="+", required=True, help="logs of the parent commit")
    parser.add_argument("--head", nargs="+", required=True, help="logs of the changed commit")
    args = parser.parse_args(argv)
    base = [read_log(p) for p in args.base]
    head = [read_log(p) for p in args.head]
    first = base[0]
    for log in base + head:
        for key in ("env", "mode"):
            if log[key] != first[key]:
                print(
                    f"refused: {log['path']} has {key} {log[key]} but {first['path']} has {first[key]}",
                    file=sys.stderr,
                )
                return 2
    bounds = {m["name"]: m for m in json.loads(BENCHMARK.read_text(encoding="utf-8"))["end_to_end"]}
    print(f"{first['mode']}  env {json.dumps(first['env'], sort_keys=True)}")
    print(f"base: {len(base)} logs, head: {len(head)} logs")
    regressions = 0
    for side, logs in (("base", base), ("head", head)):
        bad = [log["path"] for log in logs if not log["result"]["correct"]]
        if bad:
            print(f"{side} logs with incorrect outputs: {', '.join(bad)}")
            regressions += 1
    names = [n for n in first["result"]["metrics"] if all(n in log["result"]["metrics"] for log in base + head)]
    for name in names:
        b = statistics.median(log["result"]["metrics"][name]["value"] for log in base)
        h = statistics.median(log["result"]["metrics"][name]["value"] for log in head)
        unit = first["result"]["metrics"][name]["unit"]
        change = (h - b) / b if b else float("nan")
        verdict = ""
        spec = bounds.get(name)
        if spec is not None:
            worse = change if spec["better"] == "lower" else -change
            verdict = "REGRESSION" if worse > spec["bound"] else f"within bound {spec['bound']}"
            regressions += verdict == "REGRESSION"
        print(f"{name:60} {b:12.6g} -> {h:12.6g} {unit:6} {change:+8.2%}  {verdict}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
