#!/usr/bin/env python3
"""Regenerate every fixture under fixtures/ deterministically.

Run from the repository root:  python tools/gen_fixtures.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from bihomega import samples
from bihomega.algebra import (
    RotaBaxterFamily,
    check_rota_baxter,
    is_homomorphism,
    star_product,
    validate_algebra,
    yau_twist,
    zero_rb,
)
from bihomega.bimodule import (
    BimoduleAlgebraData,
    OmegaBimodule,
    induced_module_star,
    regular_bimodule,
    validate_bimodule,
    validate_bimodule_algebra,
    validate_rbf_bimodule,
)
from bihomega.cochain import Cochain, cohomology_dims, delta_matrix, equivariant_basis
from bihomega.deformation import DeformationJet, NijenhuisFamily, check_nijenhuis, rigidity_report
from bihomega.errors import WorkbenchError
from bihomega.extension import CocyclePair, build_extension
from bihomega.linalg import Mat
from bihomega.monoid import cyclic_monoid, trivial_monoid
from bihomega.rationals import Rat, format_rational
from bihomega.rbf import CombinedCochain, combined_kernel, d_combined, rbfa_cohomology_dims
from bihomega.search import DEFAULT_CAP, _require_enumerable, first_nonscalar, iter_map_families
from bihomega.serialization import WorkbenchFile, parse_workbench, serialize_workbench, workbench_to_json
from same_reports import perturbations

FIXTURES = ROOT / "fixtures"


def search_nijenhuis(a, bound: int, cap: int = DEFAULT_CAP) -> list:
    """All Nijenhuis families within the bound, in the scan order of
    ``search.iter_map_families``; the bound and cap are checked first."""
    _require_enumerable(a, bound, cap)
    hits = []
    for maps in iter_map_families(a, bound):
        nf = NijenhuisFamily(maps)
        if check_nijenhuis(a, nf) is None:
            hits.append(nf)
    return hits


def write(name: str, text: str):
    path = FIXTURES / name
    path.write_text(text, encoding="utf-8")
    print("wrote", path.relative_to(ROOT))


def write_json(name: str, obj):
    write(name, json.dumps(obj, sort_keys=True, indent=2) + "\n")


def main():
    FIXTURES.mkdir(exist_ok=True)
    om = trivial_monoid()

    e0 = samples.build_e0()
    write("e0.json", serialize_workbench(WorkbenchFile(om, algebra=e0)))

    zero1 = samples.build_zero1()
    write("zero1.json", serialize_workbench(WorkbenchFile(om, algebra=zero1)))

    e1 = samples.build_e1()
    write("e1.json", serialize_workbench(WorkbenchFile(om, algebra=e1)))

    e1_broken = samples.build_e1_broken()
    write("e1_broken.json", serialize_workbench(WorkbenchFile(om, algebra=e1_broken)))

    bim = samples.build_e1_bimodule()
    write(
        "e1_bimodule.json",
        serialize_workbench(WorkbenchFile(om, algebra=bim.base, bimodule=bim)),
    )

    sd = samples.build_e1_semidirect()
    write("e1_semidirect.json", serialize_workbench(WorkbenchFile(om, algebra=sd)))

    c2 = samples.build_c2_example(0)
    write("c2.json", serialize_workbench(WorkbenchFile(c2.omega, algebra=c2)))

    ctx = samples.e1_rbf_context()
    write(
        "e1_rbf.json",
        serialize_workbench(
            WorkbenchFile(om, algebra=ctx.algebra, rota_baxter=ctx.rb, bimodule=ctx.bimodule)
        ),
    )

    ctx_c2 = samples.c2_rbf_context()
    write(
        "c2_rbf.json",
        serialize_workbench(
            WorkbenchFile(
                ctx_c2.algebra.omega,
                algebra=ctx_c2.algebra,
                rota_baxter=ctx_c2.rb,
                bimodule=ctx_c2.bimodule,
            )
        ),
    )

    ctx_e0 = samples.e0_rbf_context()
    write(
        "e0_rbf.json",
        serialize_workbench(
            WorkbenchFile(om, algebra=ctx_e0.algebra, rota_baxter=ctx_e0.rb, bimodule=ctx_e0.bimodule)
        ),
    )

    ctx_z = samples.zero1_rbf_context()
    write(
        "zero1_rbf.json",
        serialize_workbench(
            WorkbenchFile(om, algebra=ctx_z.algebra, rota_baxter=ctx_z.rb, bimodule=ctx_z.bimodule)
        ),
    )

    # frozen oracle values -------------------------------------------------
    reg_e1 = regular_bimodule(e1)
    basis1 = equivariant_basis(reg_e1, 1)
    write_json("e1_c1.json", {"dim_c1": basis1.dim()})

    rep = cohomology_dims(reg_e1, 2)
    write_json("e1_cohomology.json", rep.to_json())

    dm1_e0 = delta_matrix(regular_bimodule(e0), 1)
    write_json(
        "e0_delta1.json",
        {"matrix": [[format_rational(dm1_e0.at(i, j)) for j in range(dm1_e0.cols)] for i in range(dm1_e0.rows)]},
    )

    reports = rbfa_cohomology_dims(ctx_e0, 2)
    write_json("e0_rbfa.json", {name: r.to_json() for name, r in reports.items()})

    reports_z = rbfa_cohomology_dims(ctx_z, 2)
    write_json("zero1_rbfa.json", {name: r.to_json() for name, r in reports_z.items()})

    reports_e1 = rbfa_cohomology_dims(ctx, 2)
    write_json("e1_rbfa.json", {name: r.to_json() for name, r in reports_e1.items()})

    reports_c2 = rbfa_cohomology_dims(ctx_c2, 2)
    write_json("c2_rbfa.json", {name: r.to_json() for name, r in reports_c2.items()})

    write_json(
        "rigidity.json",
        {
            "e0_rbf": rigidity_report(ctx_e0).to_json(),
            "zero1_rbf": rigidity_report(ctx_z).to_json(),
            "e1_rbf": rigidity_report(ctx).to_json(),
        },
    )

    # delta_matrix(1) of the E1 regular complex, in basis coordinates
    dm1_e1 = delta_matrix(reg_e1, 1)
    write_json(
        "e1_delta1.json",
        {"matrix": [[format_rational(dm1_e1.at(i, j)) for j in range(dm1_e1.cols)] for i in range(dm1_e1.rows)]},
    )

    # Nijenhuis fixture: first non-scalar hit of the bounded search on E1
    nij = first_nonscalar(search_nijenhuis(e1, 1))
    write(
        "e1_nijenhuis.json",
        serialize_workbench(WorkbenchFile(om, algebra=e1, nijenhuis=nij.maps)),
    )

    # cocycle pair and jet fixtures on the searched context
    kers = combined_kernel(ctx, 2)
    pair = CocyclePair(kers[0].alg, kers[0].rbf)
    write(
        "e1_rbf_pair.json",
        serialize_workbench(
            WorkbenchFile(
                om, algebra=ctx.algebra, rota_baxter=ctx.rb, bimodule=ctx.bimodule,
                cocycle_pair=pair,
            )
        ),
    )
    jet = DeformationJet(1, [kers[0].alg], [kers[0].rbf])
    write(
        "e1_rbf_jet.json",
        serialize_workbench(
            WorkbenchFile(om, algebra=ctx.algebra, rota_baxter=ctx.rb, bimodule=ctx.bimodule, jet=jet)
        ),
    )

    build = build_extension(ctx, pair)
    write(
        "e1_rbf_extension.json",
        serialize_workbench(
            WorkbenchFile(
                om, algebra=ctx.algebra, rota_baxter=ctx.rb, bimodule=ctx.bimodule,
                extension=build.presentation,
            )
        ),
    )
    # a cohomologous twin: shift by the differential of a degree-1 cochain
    eta = equivariant_basis(ctx.bimodule, 1).cochain(0)
    shift = d_combined(ctx, CombinedCochain(eta, Cochain.zero(0, om.size, 2, 2)), check=False)
    pair2 = CocyclePair(pair.psi.add(shift.alg), pair.chi.add(shift.rbf))
    build2 = build_extension(ctx, pair2)
    write(
        "e1_rbf_extension2.json",
        serialize_workbench(
            WorkbenchFile(
                om, algebra=ctx.algebra, rota_baxter=ctx.rb, bimodule=ctx.bimodule,
                extension=build2.presentation,
            )
        ),
    )

    # twist input for the CLI: diagonal algebra with a swap automorphism
    diag2 = samples.build_diag(2)
    swap = Mat.from_rows([[0, 1], [1, 0]])
    write(
        "diag2_twist.json",
        serialize_workbench(
            WorkbenchFile(
                om, algebra=diag2, rota_baxter=zero_rb(diag2),
                twist_p={0: swap}, twist_q={0: swap},
            )
        ),
    )

    write_json("witnesses.json", witness_table())


# -- golden witness battery -------------------------------------------------
#
# Every validator returns the first failing identity in a fixed scan order.
# The battery perturbs one entry of a valid input by +1 at a time and records
# the exact witness (equation, indices, both sides) of each validator, plus a
# digest of the derived star algebra and star bimodule.  A change to any
# scan, its order or its arithmetic changes the table.

PERTURBED_ROOTS = (
    ("algebra", "product"), ("algebra", "p"), ("algebra", "q"),
    ("rota_baxter", "r"),
    ("bimodule", "left"), ("bimodule", "right"), ("bimodule", "p"), ("bimodule", "q"), ("bimodule", "t"),
    ("nijenhuis", "n"),
)


def _battery_doc(a, rb, b, nij_maps) -> dict:
    wf = WorkbenchFile(a.omega, algebra=a, rota_baxter=rb, bimodule=b, nijenhuis=nij_maps)
    return workbench_to_json(wf)


def _nijenhuis_maps(a) -> dict:
    """First non-scalar Nijenhuis family of the bounded search, else the identity."""
    nij = first_nonscalar(search_nijenhuis(a, 1))
    return nij.maps if nij is not None else {x: Mat.identity(a.dim) for x in a.omega.elements()}


def _searched_doc(a) -> dict:
    """Regular bimodule of ``a`` with the first non-scalar searched families."""
    rb = samples.searched_rb(a)
    return _battery_doc(a, rb, regular_bimodule(a, rb), _nijenhuis_maps(a))


def _outcome(call):
    try:
        witness = call()
    except WorkbenchError as exc:
        return {"refused": type(exc).__name__}
    return None if witness is None else witness.to_json()


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _witness_row(doc: dict, bullet: BimoduleAlgebraData) -> dict:
    wf = parse_workbench(json.dumps(doc))
    a, rb, b = wf.algebra, wf.rota_baxter, wf.bimodule
    star = star_product(a, rb, check=False)
    star_b = induced_module_star(b, rb, check=False)
    return {
        "validate_algebra": _outcome(lambda: validate_algebra(a)),
        "check_rota_baxter": _outcome(lambda: check_rota_baxter(a, rb)),
        "is_homomorphism": _outcome(lambda: is_homomorphism(rb.maps, star, a)),
        "validate_bimodule": _outcome(lambda: validate_bimodule(b)),
        "validate_bimodule_algebra": _outcome(lambda: validate_bimodule_algebra(b, bullet)),
        "validate_rbf_bimodule": _outcome(lambda: validate_rbf_bimodule(b, rb)),
        "check_nijenhuis": _outcome(lambda: check_nijenhuis(a, NijenhuisFamily(wf.nijenhuis))),
        "star_product": _digest(workbench_to_json(WorkbenchFile(a.omega, algebra=star))),
        "induced_module_star": _digest(
            workbench_to_json(WorkbenchFile(a.omega, algebra=star, bimodule=star_b))
        ),
    }


def _tensor(dims, entries) -> list:
    """A zero tensor of shape ``dims`` with ``entries`` {(i, j, k): value} set."""
    d1, d2, d3 = dims
    t = [[[Rat(0)] * d3 for _ in range(d2)] for _ in range(d1)]
    for (i, j, k), v in entries.items():
        t[i][j][k] = Rat(v)
    return t


def _hand_cases() -> dict:
    """Inputs whose first failure lies deep in a scan order.

    Perturbing a valid input entry by entry never makes these identities
    fail first: with identity or scalar structure maps the equivariance of
    the right action and of T holds for every tensor, and a perturbed action
    breaks an earlier identity first.  Each case is (document, bullet).
    """
    e0, zero1 = samples.build_e0(), samples.build_zero1()
    zero_rb_e0 = zero_rb(e0)
    ident = {0: Mat.identity(1)}
    cases = {}

    # right action not p-equivariant, left action zero: p_M = diag(1, 2)
    b = OmegaBimodule(
        zero1, 2, {(0, 0): _tensor((1, 2, 2), {})}, {(0, 0): _tensor((2, 1, 2), {(0, 0, 1): 1})},
        {0: Mat.from_rows([[1, 0], [0, 2]])}, {0: Mat.identity(2)}, {0: Mat.zeros(2, 2)},
    )
    cases["right-module-p"] = (_battery_doc(zero1, zero_rb(zero1), b, ident), _tensor((2, 2, 2), {}))

    # left and right actions of e0 by non-commuting idempotents
    b = OmegaBimodule(
        e0, 2, {(0, 0): _tensor((1, 2, 2), {(0, 0, 0): 1})},
        {(0, 0): _tensor((2, 1, 2), {(0, 0, 0): 1, (1, 0, 0): 1})},
        {0: Mat.identity(2)}, {0: Mat.identity(2)}, {0: Mat.zeros(2, 2)},
    )
    cases["bimodule-mixed"] = (_battery_doc(e0, zero_rb_e0, b, ident), _tensor((2, 2, 2), {}))

    # e1 * e1 = e0 on M, one action projecting onto e0, the other zero
    b = OmegaBimodule(
        e0, 2, {(0, 0): _tensor((1, 2, 2), {(0, 0, 0): 1})}, {(0, 0): _tensor((2, 1, 2), {})},
        {0: Mat.identity(2)}, {0: Mat.identity(2)}, {0: Mat.zeros(2, 2)},
    )
    cases["bimodule-algebra-left"] = (
        _battery_doc(e0, zero_rb_e0, b, ident), _tensor((2, 2, 2), {(1, 1, 0): 1})
    )
    b = OmegaBimodule(
        e0, 2, {(0, 0): _tensor((1, 2, 2), {})}, {(0, 0): _tensor((2, 1, 2), {(0, 0, 0): 1})},
        {0: Mat.identity(2)}, {0: Mat.identity(2)}, {0: Mat.zeros(2, 2)},
    )
    cases["bimodule-algebra-right"] = (
        _battery_doc(e0, zero_rb_e0, b, ident), _tensor((2, 2, 2), {(1, 1, 0): 1})
    )

    # weight-1 family R = -1 on e0, right action identity, T = 1
    rb = RotaBaxterFamily(Rat(1), {0: Mat.scalar(1, -1)})
    b = OmegaBimodule(
        e0, 1, {(0, 0): _tensor((1, 1, 1), {})}, {(0, 0): _tensor((1, 1, 1), {(0, 0, 0): 1})},
        dict(ident), dict(ident), dict(ident),
    )
    cases["rbf-bimodule-right"] = (_battery_doc(e0, rb, b, ident), _tensor((1, 1, 1), {}))

    # swap-twisted diagonal algebra, T a projection that does not commute with p
    diag2 = samples.build_diag(2)
    swap = Mat.from_rows([[0, 1], [1, 0]])
    twisted, rb = yau_twist(diag2, zero_rb(diag2), {0: swap}, {0: swap})
    b = regular_bimodule(twisted, rb)
    b.tmap = {0: Mat.from_rows([[1, 0], [0, 0]])}
    cases["t-p-commute"] = (
        _battery_doc(twisted, rb, b, {0: Mat.identity(2)}), _tensor((2, 2, 2), {})
    )
    return {name: (doc, BimoduleAlgebraData({(0, 0): bullet})) for name, (doc, bullet) in cases.items()}


def witness_table() -> dict:
    """Witnesses of the seven validators on the perturbation battery."""
    om2 = cyclic_monoid(2)
    docs = {}
    for name, ctx in (
        ("e0", samples.e0_rbf_context()),
        ("e1", samples.e1_rbf_context()),
        ("zero1", samples.zero1_rbf_context()),
        ("c2", samples.c2_rbf_context()),
    ):
        docs[name] = _battery_doc(ctx.algebra, ctx.rb, ctx.bimodule, _nijenhuis_maps(ctx.algebra))
    docs["diag2_c2"] = _searched_doc(samples.build_diag(2, om2))
    docs["tpoly3"] = _searched_doc(samples.build_truncated_poly(3))
    table = {}
    for name, doc in docs.items():
        # the product itself is a bimodule-algebra structure on the regular bimodule
        bullet = BimoduleAlgebraData(parse_workbench(json.dumps(doc)).algebra.product)
        table[name] = _witness_row(doc, bullet)
        for label, perturbed in perturbations(doc, PERTURBED_ROOTS):
            table[f"{name} +1 {label}"] = _witness_row(perturbed, bullet)
    for name, (doc, bullet) in _hand_cases().items():
        table[f"hand {name}"] = _witness_row(doc, bullet)
    return table


if __name__ == "__main__":
    main()
