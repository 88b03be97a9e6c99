#!/usr/bin/env python3
"""Per-degree stage seconds of the cohomology pipeline, as JSON.

Run from the repository root:  python tools/cohomology_stages.py [--repeats N]

For the regular bimodules of c2 variant 0 (degrees 0-4) and the e1
semidirect product (degrees 0-5), each repeat starts from a fresh bimodule
and times, degree by degree, the stages ``cochain.cohomology_dims`` runs:

* ``basis``  -- ``equivariant_basis`` of C^k;
* ``compile`` -- compiling ``delta_op`` at k;
* ``apply``  -- applying it to the C^k basis (raw images as sparse dicts);
* ``verify`` -- the membership test of every raw image in C^{k+1}, which
  includes building the degree-(k+1) constraint rows (the basis of C^{k+1}
  then reuses them, so ``basis`` is only the kernel for k >= 1);
* ``rank``   -- one forward elimination on the raw images.

For the combined complex of ``samples.c2_rbf_context()`` (degrees 0-5),
each repeat starts from a fresh context, runs the two single complexes as
``rbf.rbfa_cohomology_dims`` does first (``single_s``, once per repeat), and
then times per degree the stages of the combined table:

* ``phi_op`` -- compiling the comparison map on C^k;
* ``images`` -- building the sparse combined images of degree k, with the
  membership test of each degree-0 image in C^1 (+) C^0 (``inside``; the
  tables check no other degree);
* ``rank``   -- one forward elimination on those images.

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
from bihomega.cochain import _in_subspace, cohomology_dims, delta_op, equivariant_basis
from bihomega.linalg import sparse_rank
from bihomega.rationals import RAT_BACKEND
from bihomega.rbf import RbfContext, _combined_images, _in_combined_target, phi_op

CASES = (("c2_variant0", lambda: samples.build_c2_example(0), 4), ("semidirect", samples.build_e1_semidirect, 5))
STAGES = ("basis", "compile", "apply", "verify", "rank")
COMBINED_STAGES = ("phi_op", "images", "rank")
COMBINED_MAX_DEGREE = 5


def one_pass(a, max_degree: int) -> list:
    b = regular_bimodule(a)
    clock = time.perf_counter
    rows = []
    for k in range(max_degree + 1):
        t0 = clock()
        basis = equivariant_basis(b, k)
        t1 = clock()
        op = delta_op(b, k)
        t2 = clock()
        images = [op.image(basis.cochain_sparse(j)) for j in range(basis.dim())]
        t3 = clock()
        inside = all(_in_subspace(b, k + 1, img) for img in images)
        t4 = clock()
        r = sparse_rank(images)
        t5 = clock()
        rows.append({"degree": k, "dim": basis.dim(), "rank": r, "inside": inside, "basis": t1 - t0,
                     "compile": t2 - t1, "apply": t3 - t2, "verify": t4 - t3, "rank_s": t5 - t4})
    return rows


def combined_pass(a, rb, max_degree: int) -> tuple:
    ctx = RbfContext(a, rb, regular_bimodule(a, rb))
    clock = time.perf_counter
    t0 = clock()
    cohomology_dims(ctx.bimodule, max_degree)
    cohomology_dims(ctx.star_bimodule(), max_degree)
    single = clock() - t0
    rows = []
    for k in range(max_degree + 1):
        t0 = clock()
        phi_op(ctx, k)
        t1 = clock()
        images = _combined_images(ctx, k)
        inside = all(_in_combined_target(ctx, 0, img) for img in images) if k == 0 else None
        t2 = clock()
        r = sparse_rank(images)
        t3 = clock()
        rows.append({"degree": k, "dim": len(images), "rank": r, "inside": inside,
                     "phi_op": t1 - t0, "images": t2 - t1, "rank_s": t3 - t2})
    return single, rows


def median_table(runs: list, max_degree: int, stages: tuple, keys: tuple) -> list:
    table = []
    for k in range(max_degree + 1):
        first = runs[0][k]
        row = {"degree": k, "dim": first["dim"], "rank": first["rank"], "inside": first["inside"]}
        for stage, key in zip(stages, keys):
            row[f"{stage}_s"] = round(statistics.median(run[k][key] for run in runs), 6)
        table.append(row)
    return table


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    out = {"env": {"backend": RAT_BACKEND, "python": platform.python_version()}, "cases": {}}
    for name, build, max_degree in CASES:
        a = build()
        runs = [one_pass(a, max_degree) for _ in range(max(1, args.repeats))]
        out["cases"][name] = median_table(runs, max_degree, STAGES, ("basis", "compile", "apply", "verify", "rank_s"))
    ctx = samples.c2_rbf_context()
    passes = [combined_pass(ctx.algebra, ctx.rb, COMBINED_MAX_DEGREE) for _ in range(max(1, args.repeats))]
    out["cases"]["c2_rbf_combined"] = {
        "single_s": round(statistics.median(single for single, _ in passes), 6),
        "degrees": median_table([rows for _, rows in passes], COMBINED_MAX_DEGREE, COMBINED_STAGES,
                                ("phi_op", "images", "rank_s")),
    }
    print(json.dumps(out, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
