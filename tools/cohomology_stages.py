#!/usr/bin/env python3
"""Per-degree stage seconds of the cohomology pipeline, as JSON.

Run from the repository root:  python tools/cohomology_stages.py [--repeats N]

For the regular bimodules of c2 variant 0 (degrees 0-4) and the e1
semidirect product (degrees 0-5), each repeat starts from a fresh bimodule
and times, degree by degree, the stages ``cochain.cohomology_dims`` runs:

* ``basis``    -- ``equivariant_basis`` of C^k;
* ``plan``     -- the pair keys of δ_k (``blocks.pair_keys``, timed inside
  ``delta_op``);
* ``blocks``   -- the rest of ``delta_op``: compiling one block per distinct
  pair key (at k = 0, its own formula);
* ``products`` -- each block of ``delta_op`` times the kernel of each
  source twist signature, once per (pair key, source signature): the time
  inside ``cochain._block_product`` during one
  ``_basis_images(b, k)`` call, k = 0 included
  (δ_0's blocks, one per output tuple);
* ``rows``     -- building the degree-(k+1) constraint systems (rows,
  column index and end columns, once per twist signature, the time inside
  ``cochain._constraint_system``) that the verdicts below read; the basis
  of C^{k+1} then reuses them, so ``basis`` is mostly the kernel for
  k >= 1; at k = 0, those that the membership test of the images in C^1
  reads;
* ``verify``   -- the rest of the membership verdict of each product in its
  output block, once per (output signature, pair key, source signature),
  with the product's projection off the end columns of that block's
  constraint rows taken in the same pass (the time inside
  ``cochain._violations`` during that call, less ``rows``); at k = 0, where
  the call neither verifies nor projects (δ_0 images may leave C^1), the
  rest of the membership test of every image in C^1 (``cochain._project``),
  read as ``inside``;
* ``assemble`` -- the rest of that call: placing the products, projected
  for k >= 1 and raw at k = 0, into basis images (the tables stream them
  into the rank; here they are kept to time the rank alone);
* ``rank``     -- one forward elimination on those images, the rank the
  tables take.

Beside the seconds, each degree row of these two cases carries seven exact
counts that read the same on every run: ``constraint_rows``, the
equivariance rows of C^k (one system per twist signature);
``kernel_eliminations``, the row eliminations (``linalg._cross_eliminate``
calls) that solving them for the basis of C^k takes; ``middle_parts``, the
distinct sums of middle face terms of δ_k compiled (``blocks._middle_part``
calls; 0 at k = 0); ``slot_steps``, the steps of their slot recursion
(``blocks._slot_step`` calls); ``projected_nonzeros``, the nonzero entries
of the images the rank takes; and ``echelon_nonzeros``, the nonzero entries
of the integer echelon that the rank leaves.  The eliminations are counted
during the ``basis`` stage and the middle parts and slot steps during the
stages of δ_k, which adds one call per count to their seconds.  A seventh,
``block_entries``, is the number of entries the blocks of δ_k store
(``cochain.BlockOp``): each part and each action term counted once, however
many pair keys share it (at k = 0, δ_0's own blocks).

For the combined complex of ``samples.c2_rbf_context()`` (degrees 0-5),
each repeat starts from a fresh context and runs the engine of
``rbf.rbfa_cohomology_dims``: first the degree-0 checks of the context and
star bimodules, the star one validated (``checks_s``, once per repeat),
then per degree k its one elimination, timed in stages:

* ``phi_op`` -- compiling the comparison map on C^k;
* ``phase1`` -- building the images (0, -∂e) of the C^{k-1} basis,
  verified in C^k and projected off its end columns for k >= 2, and
  eliminating them;
* ``phase2`` -- building the images (δe, -φe) of the C^k basis, δe
  verified and projected for k >= 1 and φe for k >= 2, and resuming the
  elimination;

beside its three pivot counts: ``rank_partial`` (phase 1, rank ∂_{k-1}),
``rank_delta`` (the pivots in the C^{k+1} columns, rank δ_k) and ``rank``
(all of them, rank d_k); ``inside`` says, at k = 0 only, whether every δ_0
image lies in C^1.  Last, ``top_s`` is the one more elimination, of the
∂ images of C^5, projected, that the operator table's top rank takes.

For the rbfa tables of ``fixtures/c2_rbf.json`` (degrees 0-3), each repeat
parses the file and validates its context, then times per degree:

* ``phi`` -- compiling the comparison map on C^k (``rbf.phi_op``), beside
  the exact count ``phi_blocks`` of the Horner blocks it built
  (``rbf._phi_block`` calls: one per class of R at each slot and T at the
  product; at k = 0 the one identity block, built on the empty tuple).

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

from bihomega import blocks, cochain, linalg, rbf, samples
from bihomega.bimodule import regular_bimodule
from bihomega.cochain import (
    _basis_images,
    _constraint_system,
    _degree0_checks,
    _project,
    _raw_size,
    _signatures,
    delta_op,
    equivariant_basis,
)
from bihomega.rationals import RAT_BACKEND
from bihomega.rbf import RbfContext, _algebra_images, _operator_images, combined_dim, phi_op
from bihomega.serialization import parse_workbench

CASES = (
    ("c2_variant0", lambda: samples.build_c2_example(0), 4),
    ("semidirect", samples.build_e1_semidirect, 5),
)
STAGES = ("basis", "plan", "blocks", "products", "rows", "verify", "assemble", "rank")
COMBINED_STAGES = ("phi_op", "phase1", "phase2")
COMBINED_MAX_DEGREE = 5
RBFA_FIXTURE, RBFA_MAX_DEGREE = ROOT / "fixtures" / "c2_rbf.json", 3
COUNTS = ("degree", "dim", "rank", "rank_delta", "rank_partial", "inside", "constraint_rows",
          "kernel_eliminations", "middle_parts", "slot_steps", "block_entries", "projected_nonzeros",
          "echelon_nonzeros", "phi_blocks")


def degree_k(b, k: int, clock) -> tuple:
    """(seconds per stage, images, inside) of degree k, from one real
    ``_basis_images`` call, as the tables make it: for k >= 1 an image that
    leaves C^{k+1} is refused there; the k = 0 images are read unverified,
    since δ_0 images may leave C^1, and ``inside`` tests each of them."""
    t0 = clock()
    op, plan_s = seconds_in(cochain, "pair_keys", lambda: delta_op(b, k), clock)
    t1 = clock()
    ((images, rows_s), verify_s), products_s = seconds_in(cochain, "_block_product", lambda: seconds_in(
        cochain, "_violations", lambda: seconds_in(cochain, "_constraint_system", lambda: list(
            _basis_images(b, k)), clock), clock), clock)
    t2 = clock()
    inside, test_rows_s = seconds_in(cochain, "_constraint_system",
                                     lambda: k > 0 or all(_project(b, 1, image) is not None for image in images),
                                     clock)
    t3 = clock()
    return {"plan": plan_s, "blocks": t1 - t0 - plan_s, "products": products_s, "rows": rows_s + test_rows_s,
            "verify": verify_s - rows_s + t3 - t2 - test_rows_s,
            "assemble": t2 - t1 - products_s - verify_s}, images, inside


def counting_calls(module, name: str, build) -> tuple:
    """(build(), the number of calls to ``module.name`` it made)."""
    calls = 0
    original = getattr(module, name)

    def counting(*args):
        nonlocal calls
        calls += 1
        return original(*args)

    setattr(module, name, counting)
    try:
        return build(), calls
    finally:
        setattr(module, name, original)


def seconds_in(module, name: str, build, clock) -> tuple:
    """(build(), the seconds its calls to ``module.name`` took)."""
    seconds = 0.0
    original = getattr(module, name)

    def timing(*args):
        nonlocal seconds
        t0 = clock()
        try:
            return original(*args)
        finally:
            seconds += clock() - t0

    setattr(module, name, timing)
    try:
        return build(), seconds
    finally:
        setattr(module, name, original)


def counting_eliminations(build) -> tuple:
    """(build(), the number of ``linalg._cross_eliminate`` calls it made)."""
    return counting_calls(linalg, "_cross_eliminate", build)


def block_entries(op) -> int:
    """Entries stored by the blocks of ``op``, each part and action term once."""
    stored = {}
    for part, actions in op.blocks:
        stored[id(part)] = sum(map(len, part))
        for action in actions:
            stored[id(action)] = sum(map(len, action[1]))
    return sum(stored.values())


def constraint_row_count(b, k: int) -> int:
    """Equivariance rows of C^k, counted once per twist signature (cached)."""
    firsts = {sig: t for t, sig in enumerate(_signatures(b, k))}
    return sum(len(_constraint_system(b, k, t)[0]) for t in firsts.values())


def one_pass(a, max_degree: int) -> list:
    b = regular_bimodule(a)
    clock = time.perf_counter
    rows = []
    for k in range(max_degree + 1):
        t0 = clock()
        basis, eliminations = counting_eliminations(lambda: equivariant_basis(b, k))
        t1 = clock()
        ((stages, images, inside), slot_steps), middle_parts = counting_calls(
            blocks, "_middle_part", lambda: counting_calls(blocks, "_slot_step", lambda: degree_k(b, k, clock)))
        t2 = clock()
        echelon = linalg._integer_echelon(images)  # what sparse_rank counts the pivots of
        t3 = clock()
        rows.append({"degree": k, "dim": basis.dim(), "rank": len(echelon), "inside": inside,
                     "constraint_rows": constraint_row_count(b, k), "kernel_eliminations": eliminations,
                     "middle_parts": middle_parts, "slot_steps": slot_steps,
                     "block_entries": block_entries(delta_op(b, k)), "projected_nonzeros": sum(map(len, images)),
                     "echelon_nonzeros": sum(map(len, echelon.values())),
                     "basis": t1 - t0, **stages, "rank_s": t3 - t2})
    return rows


def combined_pass(a, rb, max_degree: int) -> tuple:
    """({"checks": s, "top": s}, one row per degree) of the engine's stages."""
    ctx = RbfContext(a, rb, regular_bimodule(a, rb))
    b, clock = ctx.bimodule, time.perf_counter
    t0 = clock()
    _degree0_checks(b, max_degree, check=False)
    _degree0_checks(ctx.star_bimodule(), max_degree)
    fixed = {"checks": clock() - t0}
    rows = []
    for k in range(max_degree + 1):
        t0 = clock()
        phi_op(ctx, k)
        t1 = clock()
        pivots = linalg._integer_echelon(_operator_images(ctx, k))
        rank_partial = len(pivots)
        t2 = clock()
        linalg._integer_echelon(_algebra_images(ctx, k), pivots)
        t3 = clock()
        shift = _raw_size(b, k + 1)  # where the C^k columns start
        inside = all(_project(b, 1, img) is not None for img in _basis_images(b, 0)) if k == 0 else None
        rows.append({"degree": k, "dim": combined_dim(ctx, k), "rank": len(pivots),
                     "rank_delta": sum(c < shift for c in pivots), "rank_partial": rank_partial,
                     "inside": inside, "phi_op": t1 - t0, "phase1": t2 - t1, "phase2": t3 - t2})
    t0 = clock()
    linalg.sparse_rank(_basis_images(ctx.star_bimodule(), max_degree))
    fixed["top"] = clock() - t0
    return fixed, rows


def rbfa_pass(path: Path, max_degree: int) -> list:
    """Per degree of the context in ``path``: the seconds compiling φ takes
    and the number of blocks it builds."""
    wf = parse_workbench(path.read_text(encoding="utf-8"))
    ctx = RbfContext.validated(wf.algebra, wf.rota_baxter, wf.bimodule)
    clock = time.perf_counter
    rows = []
    for k in range(max_degree + 1):
        t0 = clock()
        _, phi_blocks = counting_calls(rbf, "_phi_block", lambda: phi_op(ctx, k))
        rows.append({"degree": k, "phi_blocks": phi_blocks, "phi": clock() - t0})
    return rows


def median_table(runs: list, max_degree: int, stages: tuple, keys: tuple) -> list:
    table = []
    for k in range(max_degree + 1):
        first = runs[0][k]
        row = {key: first[key] for key in COUNTS if key in first}
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
        out["cases"][name] = median_table(runs, max_degree, STAGES, STAGES[:-1] + ("rank_s",))
    ctx = samples.c2_rbf_context()
    passes = [combined_pass(ctx.algebra, ctx.rb, COMBINED_MAX_DEGREE) for _ in range(max(1, args.repeats))]
    out["cases"]["c2_rbf_combined"] = {
        **{f"{key}_s": round(statistics.median(fixed[key] for fixed, _ in passes), 6)
           for key in ("checks", "top")},
        "degrees": median_table([rows for _, rows in passes], COMBINED_MAX_DEGREE, COMBINED_STAGES,
                                COMBINED_STAGES),
    }
    runs = [rbfa_pass(RBFA_FIXTURE, RBFA_MAX_DEGREE) for _ in range(max(1, args.repeats))]
    out["cases"]["c2_rbf_rbfa"] = median_table(runs, RBFA_MAX_DEGREE, ("phi",), ("phi",))
    print(json.dumps(out, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
