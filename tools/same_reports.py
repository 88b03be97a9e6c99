#!/usr/bin/env python3
"""Compare the ``--no-timing`` reports of two checkouts, command by command.

    python3 tools/same_reports.py PARENT CHANGE

PARENT and CHANGE are two checkouts of the repository, for example the
parent commit unpacked by ``git archive`` and the working tree.  In one
subprocess per checkout, run with ``PYTHONDONTWRITEBYTECODE=1`` on that
checkout's own ``src`` and ``fixtures``, it collects the report and exit
code of each command of:

* the benchmark's command mix (``COMMANDS`` of ``perfbench/workloads.py``,
  read, never changed);
* ``cohomology`` for each of the three complexes to degree 4 on every
  fixture;
* ``validate`` on every fixture.

It prints each command whose report or exit code differs between the two,
or that only one side ran, and exits 1 when there is any, 0 otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

COMPLEXES = ("alg", "rbf", "rbfa")
MAX_DEGREE = "4"


def commands(checkout: Path) -> list:
    """The argument lists to run in ``checkout``, each once, in a fixed order."""
    sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]
    from workloads import COMMANDS

    fixtures = sorted(f"fixtures/{p.name}" for p in (checkout / "fixtures").glob("*.json"))
    argvs = [list(argv) for argv in COMMANDS]
    argvs += [["cohomology", f, "--complex", c, "--max-degree", MAX_DEGREE] for f in fixtures for c in COMPLEXES]
    argvs += [["validate", f] for f in fixtures]
    return list({" ".join(argv): argv for argv in argvs}.values())


def collect_here(checkout: Path) -> dict:
    """{command line: [report, exit code]} of every command, run in this process."""
    os.chdir(checkout)
    argvs = commands(checkout)
    from bihomega import cli

    out = {}
    for argv in argvs:
        report, code = cli.run_command(["--no-timing", *argv])
        out[" ".join(argv)] = [cli.render_report(report), code]
    return out


def collect(checkout: Path) -> dict:
    """:func:`collect_here` in a fresh subprocess on ``checkout``."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--collect", str(checkout.resolve())],
        env=env, capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--collect"]:
        json.dump(collect_here(Path(argv[1])), sys.stdout)
        return 0
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    parent, change = (collect(Path(side)) for side in argv)
    differing = [cmd for cmd in sorted(parent.keys() | change.keys()) if parent.get(cmd) != change.get(cmd)]
    for cmd in differing:
        print(f"differs: {cmd}")
    print(f"{len(differing)} of {len(parent.keys() | change.keys())} commands differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
