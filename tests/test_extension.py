import json
import random

import pytest
from conftest import fixture_text
from generators import _conjugate, _transport, random_valid_context
from oracles import section_shift

from bihomega.algebra import RotaBaxterFamily, check_rota_baxter, validate_algebra
from bihomega.bimodule import rbf_semidirect, validate_rbf_bimodule
from bihomega.cochain import Cochain, equivariant_basis, random_equivariant
from bihomega.errors import InternalCheckError, MalformedInputError
from bihomega.extension import (
    CocyclePair,
    build_extension,
    compare_extensions,
    extract_cocycle,
    validate_extension,
)
from bihomega.linalg import Mat
from bihomega.rationals import Rat
from bihomega.rbf import CombinedCochain, combined_kernel, d_combined, rbfa_cohomology_dims, solve_combined
from bihomega.serialization import WorkbenchFile, parse_workbench, workbench_to_json


def zero_pair(ctx):
    om, d, m = ctx.dims()
    return CocyclePair(
        Cochain.zero(2, om.size, d, m), Cochain.zero(1, om.size, d, m)
    )


def eta_shifted_pair(ctx, pair, eta1):
    shift = d_combined(
        ctx, CombinedCochain(eta1, Cochain.zero(0, ctx.algebra.omega.size, ctx.algebra.dim, ctx.bimodule.dim_m)),
        check=False,
    )
    return CocyclePair(pair.psi.add(shift.alg), pair.chi.add(shift.rbf))


def test_zero_pair_is_semidirect(e1_ctx):
    build = build_extension(e1_ctx, zero_pair(e1_ctx))
    assert build.valid() and build.is_cocycle
    sd, sd_rb = rbf_semidirect(e1_ctx.bimodule, e1_ctx.rb)
    assert build.presentation.total.product == sd.product
    assert build.presentation.total_rb.maps == sd_rb.maps
    assert build.presentation.total_rb.weight == sd_rb.weight


def test_build_leaves_context_and_semidirect_unchanged(c2_ctx):
    """The cocycle pair is written into a fresh semidirect product in place."""
    ctx = c2_ctx
    nonzero = [x for x in combined_kernel(ctx, 2) if not (x.alg.is_zero() and x.rbf.is_zero())]
    pair = CocyclePair(nonzero[0].alg, nonzero[0].rbf)

    def snapshot(sd=None):
        sd, sd_rb = sd or rbf_semidirect(ctx.bimodule, ctx.rb, check=False)
        om = ctx.algebra.omega
        return (
            workbench_to_json(WorkbenchFile(om, algebra=ctx.algebra, rota_baxter=ctx.rb, bimodule=ctx.bimodule)),
            workbench_to_json(WorkbenchFile(om, algebra=sd, rota_baxter=sd_rb)),
        )

    semidirect = rbf_semidirect(ctx.bimodule, ctx.rb, check=False)
    before = snapshot(semidirect)
    build = build_extension(ctx, pair)
    assert build.valid() and build.is_cocycle
    assert build.presentation.total.product != semidirect[0].product
    assert snapshot(semidirect) == before
    assert snapshot() == before


def test_semidirect_extracts_zero_pair(e1_ctx):
    build = build_extension(e1_ctx, zero_pair(e1_ctx))
    pair, bim = extract_cocycle(build.presentation)
    assert pair.psi.is_zero() and pair.chi.is_zero()


def test_every_kernel_element_builds_valid_extension(e1_ctx, c2_ctx):
    for ctx in (e1_ctx, c2_ctx):
        for x in combined_kernel(ctx, 2):
            build = build_extension(ctx, CocyclePair(x.alg, x.rbf))
            assert build.valid() and build.is_cocycle
            assert validate_algebra(build.presentation.total) is None
            assert check_rota_baxter(build.presentation.total, build.presentation.total_rb) is None


def test_nonkernel_pairs_fail_and_equivalence_holds(e1_ctx):
    rng = random.Random(71)
    failures = 0
    for _ in range(12):
        pair = CocyclePair(
            random_equivariant(e1_ctx.bimodule, 2, rng),
            random_equivariant(e1_ctx.bimodule, 1, rng),
        )
        build = build_extension(e1_ctx, pair)
        assert build.valid() == build.is_cocycle
        if not build.valid():
            failures += 1
    assert failures > 0


def test_perturbed_chi_breaks_operator_side(e1_ctx):
    kers = combined_kernel(e1_ctx, 2)
    pair = CocyclePair(kers[0].alg, kers[0].rbf)
    bumped = None
    basis1 = equivariant_basis(e1_ctx.bimodule, 1)
    for j in range(basis1.dim()):
        candidate = CocyclePair(pair.psi, pair.chi.add(basis1.cochain(j)))
        build = build_extension(e1_ctx, candidate)
        if not build.is_cocycle:
            bumped = build
            break
    assert bumped is not None
    assert bumped.algebra_witness is None  # the product side is untouched
    assert bumped.rb_witness is not None  # the operator identity fails


def test_extract_of_build_is_identity_on_kernel(e1_ctx):
    for x in combined_kernel(e1_ctx, 2):
        pair = CocyclePair(x.alg, x.rbf)
        build = build_extension(e1_ctx, pair)
        back, bim = extract_cocycle(build.presentation)
        assert back == pair
        assert validate_rbf_bimodule(bim, e1_ctx.rb) is None


def test_induced_bimodule_matches_context(e1_ctx):
    build = build_extension(e1_ctx, zero_pair(e1_ctx))
    _, bim = extract_cocycle(build.presentation)
    assert bim.left == e1_ctx.bimodule.left
    assert bim.right == e1_ctx.bimodule.right


def test_section_shift_gives_same_actions_and_shifted_class(e1_ctx):
    rng = random.Random(73)
    kers = combined_kernel(e1_ctx, 2)
    build = build_extension(e1_ctx, CocyclePair(kers[0].alg, kers[0].rbf))
    eta = random_equivariant(e1_ctx.bimodule, 1, rng)
    shifted = section_shift(build.presentation, eta)
    pair1, bim1 = extract_cocycle(build.presentation)
    pair2, bim2 = extract_cocycle(build.presentation, section=shifted)
    assert bim1.left == bim2.left and bim1.right == bim2.right
    diff = pair2.combined().sub(pair1.combined())
    assert solve_combined(e1_ctx, 1, diff) is not None


def test_compare_same_extension_identity_iso(e1_ctx):
    kers = combined_kernel(e1_ctx, 2)
    build = build_extension(e1_ctx, CocyclePair(kers[0].alg, kers[0].rbf))
    report = compare_extensions(build.presentation, build.presentation)
    assert report.cohomologous
    n = build.presentation.total.dim
    assert all(m == Mat.identity(n) for m in report.iso.values())


def test_compare_cohomologous_constructs_verified_iso(e1_ctx):
    rng = random.Random(79)
    kers = combined_kernel(e1_ctx, 2)
    pair = CocyclePair(kers[0].alg, kers[0].rbf)
    build1 = build_extension(e1_ctx, pair)
    eta1 = random_equivariant(e1_ctx.bimodule, 1, rng)
    pair2 = eta_shifted_pair(e1_ctx, pair, eta1)
    build2 = build_extension(e1_ctx, pair2)
    assert build2.is_cocycle
    report = compare_extensions(build1.presentation, build2.presentation)
    assert report.cohomologous and report.iso is not None
    # iso laws were verified internally; spot-check the shape
    n = build1.presentation.total.dim
    assert all(m.rows == n and m.cols == n for m in report.iso.values())


def test_compare_detects_independent_class(e1_ctx):
    kers = combined_kernel(e1_ctx, 2)
    base = CocyclePair(kers[0].alg, kers[0].rbf)
    build1 = build_extension(e1_ctx, base)
    independent = None
    for x in kers:
        pair = CocyclePair(x.alg, x.rbf)
        if solve_combined(e1_ctx, 1, pair.combined().sub(base.combined())) is None:
            independent = pair
            break
    assert independent is not None  # this context has nonzero second cohomology
    build2 = build_extension(e1_ctx, independent)
    report = compare_extensions(build1.presentation, build2.presentation)
    assert not report.cohomologous and report.iso is None


def _sheared(pres, s):
    """The presentation moved to a new total basis, x -> S x (``s`` = (S,
    S^-1)): total and total family conjugated, incl and sect multiplied by S
    on the left, proj and retr by S^-1 on the right."""
    return _rebuild(
        pres, total=_transport(pres.total, s),
        total_rb=RotaBaxterFamily(pres.total_rb.weight, _conjugate(pres.total_rb.maps, s)),
        incl={x: s[0].mul(m) for x, m in pres.incl.items()}, sect={x: s[0].mul(m) for x, m in pres.sect.items()},
        proj={x: m.mul(s[1]) for x, m in pres.proj.items()}, retr={x: m.mul(s[1]) for x, m in pres.retr.items()},
    )


def test_compare_accepts_presentations_in_another_total_basis(e1_ctx):
    """Shearing a kernel-pair extension of e1 by S = I + E_{0,2} keeps a
    valid presentation of the same extension, so it compares cohomologous,
    both ways, with the extension itself, with an η-shifted one and with
    itself; the isomorphism sect2 proj1 + incl2 (retr1 + η proj1) is S, S^-1
    or the identity on the unsheared pair."""
    kers = combined_kernel(e1_ctx, 2)
    pres = build_extension(e1_ctx, CocyclePair(kers[0].alg, kers[0].rbf)).presentation
    n = pres.total.dim
    shear = Mat.identity(n)
    shear.entries[2] = Rat(1)
    inverse = Mat.identity(n)
    inverse.entries[2] = Rat(-1)
    sheared = _sheared(pres, (shear, inverse))
    validate_extension(sheared)
    assert compare_extensions(sheared, sheared).cohomologous and compare_extensions(pres, pres).cohomologous
    assert all(m == shear for m in compare_extensions(pres, sheared).iso.values())
    assert all(m == inverse for m in compare_extensions(sheared, pres).iso.values())
    eta1 = random_equivariant(e1_ctx.bimodule, 1, random.Random(83))
    shifted = build_extension(e1_ctx, eta_shifted_pair(e1_ctx, CocyclePair(kers[0].alg, kers[0].rbf), eta1))
    for first, second in ((sheared, shifted.presentation), (shifted.presentation, sheared)):
        report = compare_extensions(first, second)
        assert report.cohomologous and report.iso is not None


def test_compare_iso_on_the_shipped_extension_fixtures_is_identity_plus_eta():
    """On the four ordered pairs of the two shipped extension fixtures (both
    in standard coordinates) the isomorphism is the identity plus η in the
    lower-left block, the map the standard partial identities give."""
    fixtures = [parse_workbench(fixture_text(name)).extension for name in ("e1_rbf_extension.json", "e1_rbf_extension2.json")]
    for p1 in fixtures:
        for p2 in fixtures:
            report = compare_extensions(p1, p2)
            assert report.cohomologous
            d, n = p1.base.dim, p1.total.dim
            for x, m in report.iso.items():
                assert all(m.at(i, j) == (i == j) for i in range(n) for j in range(n) if not (i >= d > j))


def test_compare_rejects_mismatched_contexts(e1_ctx, c2_ctx):
    b1 = build_extension(e1_ctx, zero_pair(e1_ctx))
    b2 = build_extension(c2_ctx, zero_pair(c2_ctx))
    with pytest.raises(MalformedInputError):
        compare_extensions(b1.presentation, b2.presentation)


def _rebuild(pres, **overrides):
    fields = dict(
        base=pres.base, rb=pres.rb, dim_m=pres.dim_m, pmap_m=pres.pmap_m,
        qmap_m=pres.qmap_m, tmap_m=pres.tmap_m, total=pres.total,
        total_rb=pres.total_rb, incl=pres.incl, proj=pres.proj,
        sect=pres.sect, retr=pres.retr,
    )
    fields.update(overrides)
    return type(pres)(**fields)


def _bumped(family: dict, x, r: int, c: int) -> dict:
    """A copy of a map family with entry (r, c) of the map at x raised by 1."""
    m = family[x]
    entries = list(m.entries)
    entries[r * m.cols + c] += 1
    return {**family, x: Mat(m.rows, m.cols, entries)}


def test_validate_extension_names_each_broken_law(e1_ctx):
    from bihomega.algebra import OmegaAlgebra

    build = build_extension(e1_ctx, zero_pair(e1_ctx))
    pres = build.presentation
    n, dm = pres.total.dim, pres.dim_m
    zero_retr = dict(pres.retr)
    zero_retr[0] = Mat.zeros(dm, n)
    with pytest.raises(MalformedInputError, match="retraction-inclusion"):
        validate_extension(_rebuild(pres, retr=zero_retr))
    bad_sect = dict(pres.sect)
    bad_sect[0] = Mat.zeros(n, pres.base.dim)
    with pytest.raises(MalformedInputError, match="projection-section"):
        validate_extension(_rebuild(pres, sect=bad_sect))
    bad_t = dict(pres.total_rb.maps)
    bad_t[0] = Mat.identity(n)
    with pytest.raises(MalformedInputError, match="operator square"):
        validate_extension(_rebuild(pres, total_rb=RotaBaxterFamily(pres.total_rb.weight, bad_t)))
    # a nonzero product inside the kernel block violates abelianness
    product = {
        key: [[list(col) for col in plane] for plane in t]
        for key, t in pres.total.product.items()
    }
    d = pres.base.dim
    product[(0, 0)][d][d][d] = Rat(1)
    bad_total = OmegaAlgebra(
        pres.total.omega, n, product, dict(pres.total.pmap), dict(pres.total.qmap)
    )
    with pytest.raises(MalformedInputError, match="abelian kernel"):
        validate_extension(_rebuild(pres, total=bad_total))
    # Inputs that break two or more laws (the later ones named in the
    # comments): the refusal names the earliest in the scan order, which is
    # projection-section, retraction-inclusion, retraction-section,
    # splitting, inclusion p/q, projection p/q, section p/q, inclusion and
    # projection operator squares at each index, then projection
    # multiplicativity and the abelian kernel, interleaved per monoid pair.
    total = pres.total

    def with_total(pmap=total.pmap, qmap=total.qmap, product=total.product):
        return _rebuild(pres, total=OmegaAlgebra(total.omega, total.dim, product, pmap, qmap))

    leaky = {key: [[list(col) for col in plane] for plane in t] for key, t in total.product.items()}
    leaky[(0, 0)][d][d][0] += 1
    cases = [
        # splitting, section q-intertwining
        (_rebuild(pres, sect=_bumped(pres.sect, 0, 0, 0)), "projection-section identity at index 0"),
        # splitting
        (_rebuild(pres, retr=_bumped(pres.retr, 0, 0, 2)), "retraction-inclusion identity at index 0"),
        # splitting, section q-intertwining
        (_rebuild(pres, sect=_bumped(pres.sect, 0, 2, 0)), "retraction-section vanishing at index 0"),
        # inclusion q-intertwining, inclusion operator square
        (_rebuild(pres, incl=_bumped(pres.incl, 0, 0, 0)), "splitting resolution of the identity at index 0"),
        # projection p-intertwining
        (with_total(pmap=_bumped(total.pmap, 0, 0, 2)), "inclusion p-intertwining at index 0"),
        # projection q-intertwining
        (with_total(qmap=_bumped(total.qmap, 0, 0, 2)), "inclusion q-intertwining at index 0"),
        # section p-intertwining
        (with_total(pmap=_bumped(total.pmap, 0, 0, 0)), "projection p-intertwining at index 0"),
        # section q-intertwining
        (with_total(qmap=_bumped(total.qmap, 0, 0, 0)), "projection q-intertwining at index 0"),
        # projection operator square
        (_rebuild(pres, total_rb=RotaBaxterFamily(pres.total_rb.weight, _bumped(pres.total_rb.maps, 0, 0, 2))),
         "inclusion operator square at index 0"),
        # abelian kernel, at the same monoid pair
        (with_total(product=leaky), f"projection multiplicativity at index (0, 0, {d}, {d})"),
    ]
    for bad, law in cases:
        with pytest.raises(MalformedInputError) as info:
            validate_extension(bad)
        assert str(info.value) == f"extension law violated: {law}"


def test_extract_cocycle_refuses_a_section_that_breaks_a_section_law():
    """A supplied section is checked against exactly the three section laws
    (projection-section identity, section p- and q-intertwining) and its
    shape.  On a seeded context whose total p is not the identity, each
    law, read here by hand, is broken alone by one section, and each of
    those, and sections of the wrong shape or missing an index, is refused.
    A section shifted by incl E for a p- and q-equivariant E keeps the three
    laws but not retraction-section vanishing, which a section need not
    meet, and is accepted."""
    from bihomega.errors import PreconditionError

    ctx = random_valid_context(random.Random(18))
    pres = build_extension(ctx, zero_pair(ctx)).presentation
    d, dm, elements = pres.base.dim, pres.dim_m, list(ctx.algebra.omega.elements())

    def shifted(x, r, c):
        e = Mat.zeros(dm, d)
        e.entries[r * d + c] = Rat(1)
        return {**pres.sect, x: pres.sect[x].add(pres.incl[x].mul(e))}

    def laws(sect):
        return tuple(
            all(law(x, sect[x]) for x in elements)
            for law in (
                lambda x, s: pres.proj[x].mul(s) == Mat.identity(d),
                lambda x, s: pres.total.pmap[x].mul(s) == s.mul(pres.base.pmap[x]),
                lambda x, s: pres.total.qmap[x].mul(s) == s.mul(pres.base.qmap[x]),
            )
        )

    kept = shifted(0, 0, 0)
    assert laws(kept) == (True, True, True) and not all(pres.retr[x].mul(kept[x]).is_zero() for x in elements)
    extract_cocycle(pres, section=kept)
    broken = [
        ({x: s.scale(2) for x, s in pres.sect.items()}, (False, True, True)),
        (shifted(0, 0, 1), (True, False, True)),
        (shifted(1, 0, 1), (True, True, False)),
    ]
    for sect, expected in broken:
        assert laws(sect) == expected
    wrong_shape = {**pres.sect, 1: Mat.zeros(pres.total.dim, d + 1)}
    missing = {0: pres.sect[0]}
    for sect in [s for s, _ in broken] + [wrong_shape, missing]:
        with pytest.raises(PreconditionError) as info:
            extract_cocycle(pres, section=sect)
        assert str(info.value) == "supplied section violates the section laws"


def test_extract_cocycle_refuses_a_corrupted_base_family(e1_ctx, c2_ctx):
    """extract_cocycle does not check the base family on its own, since the
    total family and the projection imply it: one corrupted entry of the
    base family is still refused, by the projection operator square, and a
    base family of another weight is refused before any check."""
    from bihomega.algebra import RotaBaxterFamily

    for ctx in (e1_ctx, c2_ctx):
        pres = build_extension(ctx, zero_pair(ctx)).presentation
        x = ctx.algebra.omega.size - 1
        maps = dict(pres.rb.maps)
        entries = list(maps[x].entries)
        entries[0] += 1
        maps[x] = Mat(maps[x].rows, maps[x].cols, entries)
        with pytest.raises(MalformedInputError, match=f"projection operator square at index {x}"):
            extract_cocycle(_rebuild(pres, rb=RotaBaxterFamily(pres.rb.weight, maps)))
        for weight in (pres.rb.weight + 1, Rat(1, 2)):
            with pytest.raises(MalformedInputError, match="different weights"):
                extract_cocycle(_rebuild(pres, rb=RotaBaxterFamily(weight, pres.rb.maps)))
        assert extract_cocycle(pres)[0] == zero_pair(ctx)


def test_extract_cocycle_names_each_leak_into_the_base(e1_ctx, monkeypatch):
    """With the presentation laws unchecked, a total whose structure leaks
    into A is refused by the step that reads it, with its exact message:
    s(a) m, m s(a), s(a) s(b) and T s(a) each given an A component."""
    from bihomega import extension
    from bihomega.algebra import OmegaAlgebra, RotaBaxterFamily

    monkeypatch.setattr(extension, "validate_extension", lambda e: None)
    pres = build_extension(e1_ctx, zero_pair(e1_ctx)).presentation
    d, n = pres.base.dim, pres.total.dim

    def leak_product(i, j):
        product = {key: [[list(col) for col in plane] for plane in t] for key, t in pres.total.product.items()}
        product[(0, 0)][i][j][0] += 1
        total = OmegaAlgebra(pres.total.omega, n, product, dict(pres.total.pmap), dict(pres.total.qmap))
        return _rebuild(pres, total=total)

    maps = dict(pres.total_rb.maps)
    maps[0] = maps[0].add(Mat.from_rows([[int(r == c == 0) for c in range(n)] for r in range(n)]))
    cases = [
        (leak_product(0, d), "left action left the kernel"),
        (leak_product(d, 0), "right action left the kernel"),
        (leak_product(0, 0), "product defect left the kernel"),
        (_rebuild(pres, total_rb=RotaBaxterFamily(pres.total_rb.weight, maps)), "operator defect left the kernel"),
    ]
    for bad, message in cases:
        with pytest.raises(InternalCheckError) as info:
            extract_cocycle(bad)
        assert str(info.value) == message
    assert extract_cocycle(pres)[0] == zero_pair(e1_ctx)


def test_split_family_contexts_round_trip_their_extensions():
    """20 seeded contexts of generators.random_valid_context of kind
    "split" (R_w = -weight * pi_1 for a splitting of A into two subalgebras
    that every structure map keeps, moved to a random basis): each family is
    neither scalar nor zero, some algebras multiply, the three tables to degree 2 are not all equal,
    and a table is refused only where the degree-0 defect (ROADMAP item 1)
    can show, a structure map at the unit not being the identity.  On each
    context a seeded combination of the combined 2-cocycles builds a valid
    extension whose extracted pair is the pair it started from, and
    compare_extensions finds the extension cohomologous to itself through
    the identity."""
    rng = random.Random(4041)
    tables, refused, multiplied = set(), 0, 0
    for _ in range(20):
        ctx = random_valid_context(rng, "split")
        a, r = ctx.algebra, next(iter(ctx.rb.maps.values()))
        multiplied += any(v for mu in a.product.values() for plane in mu for row in plane for v in row)
        assert all(f == r for f in ctx.rb.maps.values())
        assert r != Mat.zeros(a.dim, a.dim) and r != Mat.scalar(a.dim, -ctx.rb.weight)
        try:
            tables.add(json.dumps({k: v.to_json() for k, v in rbfa_cohomology_dims(ctx, 2).items()}))
        except InternalCheckError:
            unit = a.omega.unit
            assert not all(f[unit].is_identity() for f in (a.pmap, a.qmap))
            refused += 1
        kers = combined_kernel(ctx, 2)
        x = CombinedCochain(Cochain.zero(2, a.omega.size, a.dim, a.dim), Cochain.zero(1, a.omega.size, a.dim, a.dim))
        for k in kers:
            c = Rat(rng.choice((-1, 1, 2)))
            x = CombinedCochain(x.alg.add(k.alg.scale(c)), x.rbf.add(k.rbf.scale(c)))
        pair = CocyclePair(x.alg, x.rbf)
        build = build_extension(ctx, pair)
        assert build.valid() and build.is_cocycle
        back, bim = extract_cocycle(build.presentation)
        assert back == pair and validate_rbf_bimodule(bim, ctx.rb) is None
        report = compare_extensions(build.presentation, build.presentation)
        assert report.cohomologous
        assert all(m == Mat.identity(build.presentation.total.dim) for m in report.iso.values())
    assert len(tables) > 1 and refused < 20 and multiplied > 0
