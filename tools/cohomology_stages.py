#!/usr/bin/env python3
"""Per-degree stage seconds of the cohomology pipeline, as JSON.

Run from the repository root:  python tools/cohomology_stages.py [--repeats N]

For the regular bimodules of c2 variant 0 (degrees 0-4) and the e1
semidirect product (degrees 0-5), each repeat starts from a fresh bimodule
and times, degree by degree, the stages ``cochain.cohomology_dims`` runs:

* ``basis``  -- ``equivariant_basis`` of C^k;
* ``op``     -- compiling ``delta_op`` at k and applying it to the C^k basis;
* ``verify`` -- the membership test of every raw image in C^{k+1}, which
  includes building the degree-(k+1) constraint rows (the basis of C^{k+1}
  then reuses them, so ``basis`` is only the kernel for k >= 1);
* ``rank``   -- one forward elimination on the raw images.

Each figure is the median over the repeats, in unscaled seconds.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from bihomega import samples
from bihomega.bimodule import regular_bimodule
from bihomega.cochain import _in_subspace, delta_op, equivariant_basis
from bihomega.linalg import sparse_rank
from bihomega.rationals import RAT_BACKEND

CASES = (("c2_variant0", lambda: samples.build_c2_example(0), 4), ("semidirect", samples.build_e1_semidirect, 5))
STAGES = ("basis", "op", "verify", "rank")


def one_pass(a, max_degree: int) -> list:
    b = regular_bimodule(a)
    clock = time.perf_counter
    rows = []
    for k in range(max_degree + 1):
        t0 = clock()
        basis = equivariant_basis(b, k)
        t1 = clock()
        op = delta_op(b, k)
        images = [op.image(basis.cochain_sparse(j)) for j in range(basis.dim())]
        t2 = clock()
        inside = all(_in_subspace(b, k + 1, img) for img in images)
        t3 = clock()
        r = sparse_rank(images)
        t4 = clock()
        rows.append({"degree": k, "dim": basis.dim(), "rank": r, "inside": inside,
                     "basis": t1 - t0, "op": t2 - t1, "verify": t3 - t2, "rank_s": t4 - t3})
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    out = {"env": {"backend": RAT_BACKEND, "python": platform.python_version()}, "cases": {}}
    for name, build, max_degree in CASES:
        a = build()
        runs = [one_pass(a, max_degree) for _ in range(max(1, args.repeats))]
        table = []
        for k in range(max_degree + 1):
            first = runs[0][k]
            row = {"degree": k, "dim": first["dim"], "rank": first["rank"], "inside": first["inside"]}
            for stage, key in zip(STAGES, ("basis", "op", "verify", "rank_s")):
                row[f"{stage}_s"] = round(statistics.median(run[k][key] for run in runs), 6)
            table.append(row)
        out["cases"][name] = table
    print(json.dumps(out, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
