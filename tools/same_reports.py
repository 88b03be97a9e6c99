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
* ``validate`` on every fixture;
* ``compare-ext`` on every ordered pair of fixtures with an ``extension``
  block, each with itself included;
* ``extract-cocycle`` on every single-entry +1 perturbation of the
  ``extension`` block of ``fixtures/e1_rbf_extension.json``, each written to
  a temporary directory and keyed by its leaf path, for example
  ``extract-cocycle fixtures/e1_rbf_extension.json +1 extension.sect.0.2.0``.
  Most are refused, so the battery pins each extension law's refusal.

It prints each command whose report or exit code differs between the two,
or that only one side ran, and exits 1 when there is any, 0 otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

COMPLEXES = ("alg", "rbf", "rbfa")
MAX_DEGREE = "4"
EXTENSION_FIXTURE = "fixtures/e1_rbf_extension.json"


def commands(checkout: Path) -> list:
    """The argument lists to run in ``checkout``, each once, in a fixed order."""
    sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]
    from workloads import COMMANDS

    fixtures = sorted(f"fixtures/{p.name}" for p in (checkout / "fixtures").glob("*.json"))
    argvs = [list(argv) for argv in COMMANDS]
    argvs += [["cohomology", f, "--complex", c, "--max-degree", MAX_DEGREE] for f in fixtures for c in COMPLEXES]
    argvs += [["validate", f] for f in fixtures]
    extensions = [f for f in fixtures if "extension" in json.loads((checkout / f).read_text(encoding="utf-8"))]
    argvs += [["compare-ext", f, g] for f in extensions for g in extensions]
    return list({" ".join(argv): argv for argv in argvs}.values())


def perturbations(data: dict, roots):
    """(leaf path, copy of ``data``) for each rational leaf under each root
    path of ``roots`` (a list of key tuples into ``data``), that leaf raised
    by 1, in root order and then in file order; a label joins the path's
    keys with dots."""

    def leaves(node, path):
        if isinstance(node, str):
            yield path
        elif isinstance(node, (dict, list)):
            for key, child in node.items() if isinstance(node, dict) else enumerate(node):
                yield from leaves(child, (*path, key))

    def at(node, path):
        for key in path:
            node = node[key]
        return node

    for root in roots:
        for path in leaves(at(data, root), tuple(root)):
            copy = json.loads(json.dumps(data))
            parent = at(copy, path[:-1])
            parent[path[-1]] = str(Fraction(parent[path[-1]]) + 1)
            yield ".".join(map(str, path)), copy


def collect_here(checkout: Path) -> dict:
    """{command line: [report, exit code]} of every command, run in this process."""
    os.chdir(checkout)
    argvs = commands(checkout)
    from bihomega import cli

    def run(argv):
        report, code = cli.run_command(["--no-timing", *argv])
        return [cli.render_report(report), code]

    out = {" ".join(argv): run(argv) for argv in argvs}
    data = json.loads(Path(EXTENSION_FIXTURE).read_text(encoding="utf-8"))
    with tempfile.TemporaryDirectory() as tmp:
        perturbed = Path(tmp) / "perturbed.json"
        for leaf, copy in perturbations(data, [("extension",)]):
            perturbed.write_text(json.dumps(copy), encoding="utf-8")
            out[f"extract-cocycle {EXTENSION_FIXTURE} +1 {leaf}"] = run(["extract-cocycle", str(perturbed)])
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
