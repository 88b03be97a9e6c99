import json
import random
from itertools import combinations, product

import pytest

from conftest import FIXTURES, fixture_text
from generators import random_valid_context
from oracles import (
    block_columns_oracle,
    chain_map_witness_oracle,
    combined_raw_matrix_oracle,
    delta_direct_oracle,
    end_columns,
    evaluate_oracle,
    kernel_oracle,
    partial_expanded_oracle,
    phi_subset_oracle,
    solve_oracle,
)

from bihomega import cochain, rbf, samples
from bihomega.algebra import OmegaAlgebra, RotaBaxterFamily, Witness, check_rota_baxter, zero_rb
from bihomega.bimodule import OmegaBimodule, regular_bimodule, zero_bimodule
from bihomega.cochain import (
    BlockOp,
    Cochain,
    apply_delta,
    cohomology_dims,
    dd_zero_witness,
    delta_op,
    equivariant_basis,
    is_equivariant,
    random_equivariant,
)
from bihomega.errors import InternalCheckError, MalformedInputError, PreconditionError
from bihomega.gerstenhaber import mu_cochain
from bihomega.linalg import Mat
from bihomega.rationals import ONE, ZERO, Rat
from bihomega.serialization import parse_workbench
from bihomega.rbf import (
    CombinedCochain,
    RbfContext,
    chain_map_check,
    _combined_images,
    combined_dim,
    combined_from_coords,
    combined_kernel,
    d_combined,
    partial,
    phi,
    rbfa_cohomology_dims,
    solve_combined,
)


def test_partial_zero(e1_ctx):
    z = Cochain.zero(1, 1, 2, 2)
    assert partial(e1_ctx, z, check=False).is_zero()


def test_partial_weight_one_trivial_family_reduces_to_composition(e1):
    rb = zero_rb(e1, ONE)
    ctx = RbfContext.validated(e1, rb, regular_bimodule(e1, rb))
    rng = random.Random(13)
    f = random_equivariant(ctx.bimodule, 1, rng)
    image = partial(ctx, f, check=False)
    a = e1
    for args in product(range(2), repeat=2):
        prod_vec = a.mul_basis((0, 0), args[0], args[1])
        expect = [-v for v in evaluate_oracle(f, (0,), [prod_vec])]
        assert image.value((0, 0), args) == expect


def _partial_routes_agree(ctx, f):
    """partial equals the expanded sum and the term-by-term star coboundary."""
    image = partial(ctx, f, check=False)
    assert image == partial_expanded_oracle(ctx, f)
    assert image == delta_direct_oracle(ctx.star_bimodule(), f)


def test_partial_dual_route_on_every_basis_cochain(e1_ctx, c2_ctx, e0_ctx):
    for ctx in (e1_ctx, c2_ctx, e0_ctx):
        m = ctx.bimodule.dim_m
        om, d, _ = ctx.dims()
        for j in range(m):
            f = Cochain.zero(0, om.size, d, m)
            f.coords[j] = ONE
            _partial_routes_agree(ctx, f)
        for n in (1, 2):
            basis = ctx.basis(n)
            for j in range(basis.dim()):
                _partial_routes_agree(ctx, basis.cochain(j))


def test_compiled_coboundaries_match_oracles_on_raw_rational_cochains(e1_ctx, c2_ctx):
    """apply_delta and partial against the term-by-term and expanded-sum
    oracles on non-equivariant cochains with entries in (1/3)Z."""
    rng = random.Random(47)
    for ctx in (e1_ctx, c2_ctx):
        om, d, m = ctx.dims()
        for n in (0, 1, 2, 3):
            size = om.size**n * d**n * m
            for _ in range(2):
                f = Cochain(n, om.size, d, m, [Rat(rng.randint(-4, 4), 3) for _ in range(size)])
                assert apply_delta(ctx.bimodule, f, check=False) == delta_direct_oracle(ctx.bimodule, f)
                _partial_routes_agree(ctx, f)


def test_partial_check_refuses_non_equivariant_cochain(e1_ctx):
    f = Cochain.zero(1, 1, 2, 2)
    f.coords[2] = ONE  # not q-compatible (see test_apply_delta_requires_equivariance)
    assert not is_equivariant(e1_ctx.star_bimodule(), f)
    with pytest.raises(PreconditionError):
        partial(e1_ctx, f)
    with pytest.raises(PreconditionError):
        d_combined(e1_ctx, CombinedCochain(Cochain.zero(2, 1, 2, 2), f))


def test_phi_and_partial_refuse_cochains_of_another_shape(e1_ctx, c2_ctx):
    """phi refuses what partial refuses: another monoid, dimension, output
    dimension, coordinate count or a negative degree."""
    om, d, m = c2_ctx.dims()
    good = c2_ctx.basis(2).cochain(0)
    wrong = [
        e1_ctx.basis(2).cochain(0),  # the trivial monoid: 8 coordinates, not 32
        Cochain.zero(2, om.size + 1, d, m),
        Cochain.zero(2, om.size, d + 1, m),
        Cochain.zero(2, om.size, d, m + 1),
        Cochain(2, om.size, d, m, good.coords[:-1]),
        Cochain(-1, om.size, d, m, [ZERO]),
    ]
    for f in wrong:
        for route in (phi, partial):
            with pytest.raises(MalformedInputError, match="does not match the bimodule"):
                route(c2_ctx, f)
    assert len(phi(c2_ctx, good).coords) == len(good.coords)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda ctx: delta_op(ctx.bimodule, -1), "negative degree"),
        (lambda ctx: rbf.phi_op(ctx, -1), "negative degree"),
        (lambda ctx: chain_map_check(ctx, -1), "max_degree must be >= 0, got -1"),
    ],
    ids=["delta_op", "phi_op", "chain_map_check"],
)
def test_operators_refuse_a_negative_degree(c2_ctx, call, message):
    """A negative degree is a malformed request for the compiled operators
    and the chain-map check, not a type error or a silent pass."""
    with pytest.raises(MalformedInputError, match=message):
        call(c2_ctx)


def test_phi_degree_low_cases(e1_ctx):
    m = e1_ctx.bimodule.dim_m
    f = Cochain.zero(0, 1, 2, m)
    f.coords[0] = Rat(5)
    assert phi(e1_ctx, f).coords == f.coords
    rng = random.Random(17)
    g = random_equivariant(e1_ctx.bimodule, 1, rng)
    image = phi(e1_ctx, g)
    for j in range(2):
        expect = evaluate_oracle(g, (0,), [e1_ctx.rb.maps[0].col(j)])
        sub = e1_ctx.bimodule.tmap[0].matvec(g.value((0,), (j,)))
        assert image.value((0,), (j,)) == [a - b for a, b in zip(expect, sub)]


def test_phi_all_r_when_tmap_zero_weight_zero(e1):
    rb = samples.searched_rb(e1)
    rb0 = RotaBaxterFamily(ZERO, {0: rb.maps[0]})
    # weight-0 with that family is not a valid operator family;
    # build an unvalidated context only to exercise the formula
    bim = zero_bimodule(e1, 2, tmap={0: Mat.zeros(2, 2)})
    ctx = RbfContext(e1, rb0, bim)
    rng = random.Random(19)
    f = random_equivariant(bim, 2, rng)
    image = phi(ctx, f)
    for args in product(range(2), repeat=2):
        expect = evaluate_oracle(f, (0, 0), [rb0.maps[0].col(args[0]), rb0.maps[0].col(args[1])])
        assert image.value((0, 0), args) == expect


@pytest.mark.parametrize("field", ["product", "pmap", "qmap", "dim", "omega"])
def test_context_refuses_bimodule_over_another_base(e1_ctx, field):
    a = e1_ctx.algebra
    other = OmegaAlgebra(a.omega, a.dim, a.product, a.pmap, a.qmap)
    if field == "product":
        other.product = {(0, 0): [[[v + 1 for v in col] for col in plane] for plane in a.product[(0, 0)]]}
    elif field == "dim":
        other.dim = a.dim + 1
    elif field == "omega":
        other.omega = samples.build_c2_example(0).omega
    else:
        setattr(other, field, {0: Mat.scalar(2, 3)})
    with pytest.raises(MalformedInputError, match="bimodule base differs"):
        RbfContext(other, e1_ctx.rb, e1_ctx.bimodule)
    fresh = OmegaAlgebra(a.omega, a.dim, a.product, a.pmap, a.qmap)
    assert RbfContext(fresh, e1_ctx.rb, e1_ctx.bimodule).algebra.dim == a.dim


def test_validated_checks_the_family_on_a_distinct_base(e1_ctx):
    """The family is checked once per algebra object: on a bimodule over
    another algebra (diag(2), a valid one on which the e1 family fails),
    validated refuses the family before it compares the bases."""
    bim = regular_bimodule(samples.build_diag(2), e1_ctx.rb)
    with pytest.raises(PreconditionError, match="Rota-Baxter family invalid: rota-baxter fails"):
        RbfContext.validated(e1_ctx.algebra, e1_ctx.rb, bim)


def test_phi_zero_family_zero_tmap(e1):
    rb = zero_rb(e1)
    bim = zero_bimodule(e1, 1, tmap={0: Mat.zeros(1, 1)})
    ctx = RbfContext(e1, rb, bim)
    rng = random.Random(23)
    for n in (1, 2):
        f = random_equivariant(bim, n, rng)
        assert phi(ctx, f).is_zero()


def test_phi_degree_two_matches_subset_oracle(e1_ctx, c2_ctx):
    rng = random.Random(29)
    for ctx in (e1_ctx, c2_ctx):
        for _ in range(3):
            f = random_equivariant(ctx.bimodule, 2, rng)
            assert phi(ctx, f) == phi_subset_oracle(ctx, f)


def test_phi_degree_three_matches_subset_oracle(e1_ctx):
    """General-degree comparison map against a literal subset enumeration."""
    ctx = e1_ctx
    rng = random.Random(33)
    f = random_equivariant(ctx.bimodule, 3, rng)
    image = phi(ctx, f)
    expected = phi_subset_oracle(ctx, f)
    for alpha in ctx.algebra.omega.tuples(3):
        for args in product(range(ctx.algebra.dim), repeat=3):
            assert image.value(alpha, args) == expected.value(alpha, args)


def test_phi_matches_subset_oracle_on_basis_cochains(e1_ctx, c2_ctx):
    """Every basis cochain and its coboundary on e1 at degrees 1-3 and on c2
    (two monoid elements, weight -1) at degrees 1-3; at degree 4 on c2,
    seeded dense equivariant cochains and coboundaries of degree-3 ones."""
    for ctx in (e1_ctx, c2_ctx):
        for n in (1, 2, 3):
            basis = ctx.basis(n)
            for j in range(basis.dim()):
                f = basis.cochain(j)
                assert phi(ctx, f) == phi_subset_oracle(ctx, f), (n, j)
                if n < 3:
                    df = apply_delta(ctx.bimodule, f, check=False)
                    assert phi(ctx, df) == phi_subset_oracle(ctx, df), (n, j)
    rng = random.Random(39)
    for _ in range(2):
        f = random_equivariant(c2_ctx.bimodule, 4, rng)
        df = apply_delta(c2_ctx.bimodule, random_equivariant(c2_ctx.bimodule, 3, rng), check=False)
        for g in (f, df):
            assert not g.is_zero()
            assert phi(c2_ctx, g) == phi_subset_oracle(c2_ctx, g)


def test_phi_matches_subset_oracle_weight_zero_nonzero_tmap(e1):
    """Unvalidated weight-0 context whose tmap is not zero: of the proper
    subsets only those of size n - 1 (the w^0 terms) survive."""
    rb = samples.searched_rb(e1)
    rb0 = RotaBaxterFamily(ZERO, {0: rb.maps[0]})
    bim = zero_bimodule(e1, 2, tmap={0: Mat.from_rows([[1, 2], [0, -1]])})
    ctx = RbfContext(e1, rb0, bim)
    rng = random.Random(41)
    for n in (1, 2, 3):
        f = Cochain(n, 1, 2, 2, [Rat(rng.randint(-3, 3)) for _ in range(2**n * 2)])
        image = phi(ctx, f)
        assert image == phi_subset_oracle(ctx, f)
        assert not image.is_zero()


def test_phi_matches_subset_oracle_on_raw_rational_cochains(e1_ctx, c2_ctx):
    """Non-equivariant cochains with non-integral entries."""
    rng = random.Random(43)
    for ctx in (e1_ctx, c2_ctx):
        om, d, m = ctx.dims()
        for n in (1, 2, 3):
            size = om.size**n * d**n * m
            f = Cochain(n, om.size, d, m, [Rat(rng.randint(-4, 4), 3) for _ in range(size)])
            assert phi(ctx, f) == phi_subset_oracle(ctx, f)


def _c2_phi_context(r_differ: bool, t_differ: bool) -> RbfContext:
    """Unvalidated context on the c2 algebra, weight 1/2, with a zero
    bimodule of dimension 3: R_0 != R_1 when ``r_differ`` and T_0 != T_1 when
    ``t_differ``, otherwise equal entries in distinct objects."""
    a = samples.build_c2_example(0)
    r_rows, t_rows = [[1, 2], [0, -1]], [[1, 0, 2], [0, -1, 1], [1, 1, 0]]
    r1 = [[0, 1], [3, 1]] if r_differ else r_rows
    t1 = [[0, 1, 0], [2, 0, -1], [0, 0, 1]] if t_differ else t_rows
    rb = RotaBaxterFamily(Rat(1, 2), {0: Mat.from_rows(r_rows), 1: Mat.from_rows(r1)})
    tmap = {0: Mat.from_rows(t_rows), 1: Mat.from_rows(t1)}
    return RbfContext(a, rb, zero_bimodule(a, 3, tmap=tmap))


def _trusted(ctx: RbfContext) -> RbfContext:
    """``ctx`` with the record that RbfContext.validated leaves, so that the
    tables and the chain-map check run on it without checking its family:
    for tests of their linear algebra on contexts that are not Rota-Baxter,
    which they refuse otherwise."""
    ctx._cache["validated"] = True
    return ctx


def _phi_classes(ctx: RbfContext, n: int) -> int:
    """Distinct (R entries at each slot, T entries at the product) over the degree-n tuples."""
    om, r, t = ctx.algebra.omega, ctx.rb.maps, ctx.bimodule.tmap
    return len({
        (tuple(tuple(r[x].entries) for x in alpha), tuple(t[om.product_of(alpha)].entries))
        for alpha in om.tuples(n)
    })


def test_phi_matches_subset_oracle_with_several_classes():
    """φ on the c2 monoid where the tuples of a degree fall into several
    classes: R_0 != R_1 (every tuple its own class), T_0 != T_1 only (one
    class per product), or both; raw cochains with entries in (1/3)Z."""
    rng = random.Random(47)
    for r_differ, t_differ in ((True, True), (False, True), (True, False)):
        ctx = _c2_phi_context(r_differ, t_differ)
        om, d, m = ctx.dims()
        for n in range(1, 5):
            size = om.size**n * d**n * m
            f = Cochain(n, om.size, d, m, [Rat(rng.randint(-4, 4), 3) for _ in range(size)])
            image = phi(ctx, f)
            assert image == phi_subset_oracle(ctx, f), (r_differ, t_differ, n)
            assert not image.is_zero()


def test_phi_op_builds_one_block_per_class(monkeypatch, c2_ctx):
    """One Horner block per class of (R at each slot, T at the product):
    1 per degree on c2_rbf (R_0 = R_1, T = R), where the 2^n tuples share it.
    The operator stores exactly those blocks, each tuple reading its class's
    block on the diagonal, and degree 0 is one identity block."""
    built, original = [], rbf._phi_block

    def counting(ctx, alpha):
        built.append(alpha)
        return original(ctx, alpha)

    monkeypatch.setattr(rbf, "_phi_block", counting)
    cases = (
        (RbfContext(c2_ctx.algebra, c2_ctx.rb, c2_ctx.bimodule), lambda n: 1),  # fresh cache
        (_c2_phi_context(False, True), lambda n: 2),
        (_c2_phi_context(True, False), lambda n: 2**n),
        (_c2_phi_context(True, True), lambda n: 2**n),
    )
    for ctx, expected in cases:
        for n in range(1, 5):
            built.clear()
            op = rbf.phi_op(ctx, n)
            assert len(built) == len(op.blocks) == _phi_classes(ctx, n) == expected(n), n
            assert [[t for t, _ in faces] for faces in op.faces] == [[t] for t in range(len(op.faces))]
            assert rbf.phi_op(ctx, n) is op  # cached
            assert len(built) == expected(n)
        m = ctx.bimodule.dim_m
        op = rbf.phi_op(ctx, 0)
        assert len(op.blocks) == 1 and block_columns_oracle(op, 0) == [{l: ONE} for l in range(m)]


def test_phi_op_degree_zero_is_one_identity_block_built_on_the_empty_tuple(monkeypatch, e0_ctx, e1_ctx, zero1_ctx):
    """φ_0 comes from the Horner builder like every degree: its one tuple,
    the empty one, builds one block, the identity on M, which its one face
    reads, on e0, e1, zero1, c2 and seeded random contexts (fresh caches)."""
    built, original = [], rbf._phi_block

    def counting(ctx, alpha):
        built.append(alpha)
        return original(ctx, alpha)

    monkeypatch.setattr(rbf, "_phi_block", counting)
    rng = random.Random(3607)
    contexts = [samples.c2_rbf_context(), *(random_valid_context(rng) for _ in range(8))]
    contexts += [RbfContext(c.algebra, c.rb, c.bimodule) for c in (e0_ctx, e1_ctx, zero1_ctx)]
    for ctx in contexts:
        built.clear()
        op, m = rbf.phi_op(ctx, 0), ctx.bimodule.dim_m
        assert built == [()]
        assert op.faces == [[(0, 0)]] and op.blocks == [([[(l, ONE)] for l in range(m)], ())]
        assert (op.nrows, op.ncols, op.id_width) == (m, m, 1)


def test_image_matches_apply_dense_on_degree_zero_and_phi(e0_ctx, e1_ctx, c2_ctx, zero1_ctx):
    """BlockOp applies its blocks by two loops, the sparse image (one
    _block_product per face) and apply_dense; on δ_0 of each context's
    bimodule and star bimodule and on phi_op at degrees 0-3, seeded random
    sparse vectors (entries in -3..3 over 1..3, zeros among them) read the
    same image both ways, on the named contexts and on seeded random draws.
    The wide-draw oracle test compares the two for δ_n, n >= 1."""
    rng = random.Random(4409)
    contexts = [e0_ctx, e1_ctx, c2_ctx, zero1_ctx, *(random_valid_context(rng) for _ in range(6))]
    for ctx in contexts:
        ops = [delta_op(ctx.bimodule, 0), delta_op(ctx.star_bimodule(), 0), *(rbf.phi_op(ctx, n) for n in range(4))]
        for op in ops:
            for _ in range(4):
                vec = {i: Rat(rng.randint(-3, 3), rng.randint(1, 3)) for i in rng.sample(range(op.ncols), min(op.ncols, 3))}
                dense = [ZERO] * op.ncols
                for i, v in vec.items():
                    dense[i] = v
                assert op.image(vec) == {i: x for i, x in enumerate(op.apply_dense(dense)) if x}


def test_d_combined_zero_and_square(e1_ctx):
    z = CombinedCochain(Cochain.zero(2, 1, 2, 2), Cochain.zero(1, 1, 2, 2))
    assert d_combined(e1_ctx, z, check=False).is_zero()
    rng = random.Random(31)
    for n in (1, 2, 3):
        x = CombinedCochain(
            random_equivariant(e1_ctx.bimodule, n, rng),
            random_equivariant(e1_ctx.bimodule, n - 1, rng),
        )
        dx = d_combined(e1_ctx, x, check=False)
        assert d_combined(e1_ctx, dx, check=False).is_zero()
    m0 = CombinedCochain(Cochain(0, 1, 2, 2, [ONE, Rat(2)]), None)
    d0 = d_combined(e1_ctx, m0, check=False)
    assert d0.rbf == m0.alg.scale(-1)
    assert d_combined(e1_ctx, d0, check=False).is_zero()


def test_jet_order_zero_instances_are_the_base_axioms(e1_ctx, e1):
    """The order-0 convolution identities coincide with the defining laws."""
    from bihomega.cochain import cochain_from_maps
    from bihomega.deformation import _jet_assoc_order, _jet_operator_order
    from bihomega.gerstenhaber import mu_cochain

    mu_all = [mu_cochain(e1_ctx.algebra)]
    r_all = [cochain_from_maps(e1_ctx.algebra.omega, e1_ctx.rb.maps, 2, 2)]
    assert _jet_assoc_order(e1_ctx.algebra, mu_all, 0)
    assert _jet_operator_order(e1_ctx, mu_all, r_all, 0)
    broken = samples.build_e1_broken()
    assert not _jet_assoc_order(broken, [mu_cochain(broken)], 0)
    # note: the identity family happens to satisfy the weight -1 identity
    # (it is the scalar -weight case), so use a genuinely violating family
    bad_r = cochain_from_maps(e1.omega, {0: Mat.from_rows([[0, 0], [1, 0]])}, 2, 2)
    assert not _jet_operator_order(e1_ctx, mu_all, [bad_r], 0)


def test_degree_one_pair_matches_componentwise_oracle(e1_ctx):
    rng = random.Random(37)
    f = random_equivariant(e1_ctx.bimodule, 1, rng)
    g = Cochain(0, 1, 2, 2, [Rat(rng.randint(-2, 2)) for _ in range(2)])
    image = d_combined(e1_ctx, CombinedCochain(f, g), check=False)
    assert image.alg == apply_delta(e1_ctx.bimodule, f, check=False)
    expected_rbf = partial(e1_ctx, g, check=False).add(phi(e1_ctx, f)).scale(-1)
    assert image.rbf == expected_rbf


def test_consistency_of_combined_dims(e1_ctx, c2_ctx):
    for ctx in (e1_ctx, c2_ctx):
        for n in (1, 2, 3):
            assert combined_dim(ctx, n) == ctx.basis(n).dim() + ctx.basis(n - 1).dim()
        assert combined_dim(ctx, 0) == ctx.bimodule.dim_m


def test_rbfa_dims_e0_matches_frozen(e0_ctx):
    reports = rbfa_cohomology_dims(e0_ctx, 2)
    frozen = json.loads(fixture_text("e0_rbfa.json"))
    assert {name: r.to_json() for name, r in reports.items()} == frozen


def test_rbfa_dims_zero1_matches_frozen(zero1_ctx):
    reports = rbfa_cohomology_dims(zero1_ctx, 2)
    frozen = json.loads(fixture_text("zero1_rbfa.json"))
    assert {name: r.to_json() for name, r in reports.items()} == frozen


def test_rbfa_dims_searched_contexts_match_frozen(e1_ctx, c2_ctx):
    for ctx, name in ((e1_ctx, "e1_rbfa.json"), (c2_ctx, "c2_rbfa.json")):
        reports = rbfa_cohomology_dims(ctx, 2)
        frozen = json.loads(fixture_text(name))
        assert {key: r.to_json() for key, r in reports.items()} == frozen
        # these carriers exhibit the degree-0 defect; the report says so
        assert frozen["alg"]["degree0_intersected"]


@pytest.mark.parametrize("build", [samples.c2_rbf_context, samples.e1_rbf_context])
def test_combined_degree0_check_refuses_a_non_chain_map(build, monkeypatch):
    """On a context whose degree-0 images leave C^1, a comparison map that
    is not a chain map at degree 0 (∂_0 y != φ_1 δ_0 y) is refused before
    any combined rank.  No corrupted context reaches that check: the star
    bimodule is built from the same R and T as φ, so ∂_0 = φ_1 δ_0 holds
    identically, and a corrupted R or T fails the star bimodule's
    validation first.  So ``rbf.phi_op`` is patched to return φ_1 + id,
    which differs from φ_1 on every nonzero δ_0 y (on these contexts φ_1
    kills them)."""
    ctx = build()
    assert cohomology_dims(ctx.bimodule, 1).degree0_intersected
    original = rbf.phi_op

    def shifted(c, n):
        op = original(c, n)
        if n != 1:
            return op
        assert op.id_width == 1  # whole local columns, as the extra block's
        ident = ([[(col, 1)] for col in range(op.in_width)], ())  # one extra identity block on every tuple
        faces = [f + [(s, len(op.blocks))] for s, f in enumerate(op.faces)]
        return BlockOp(op.nrows, op.ncols, op.in_width, op.out_width, 1, faces, op.blocks + [ident])

    eliminations, echelon = [], rbf._integer_echelon

    def spy(rows, pivots=None):
        eliminations.append(pivots)
        return echelon(rows, pivots)

    monkeypatch.setattr(rbf, "phi_op", shifted)
    monkeypatch.setattr(rbf, "_integer_echelon", spy)
    with pytest.raises(InternalCheckError, match="combined degree-0 coboundaries are not 2-cocycles"):
        rbfa_cohomology_dims(ctx, 1)
    assert eliminations == []  # the engine never ran
    monkeypatch.setattr(rbf, "phi_op", original)
    rbfa_cohomology_dims(ctx, 1)
    # the spy does see the engine: two phases per degree, the second resuming
    assert [pivots is None for pivots in eliminations] == [True, False, True, False]


def _named_contexts() -> list:
    """(name, a function making a fresh context) for every fixture with a
    Rota-Baxter family and a bimodule with a tmap, the four sample contexts
    and the several-φ-class contexts of
    :func:`test_phi_matches_subset_oracle_with_several_classes`, whose
    families are not Rota-Baxter, marked trusted (:func:`_trusted`)."""
    named = []
    for path in sorted(FIXTURES.glob("*.json")):
        text = path.read_text(encoding="utf-8")
        if '"schema"' not in text:
            continue
        wf = parse_workbench(text)
        if wf.rota_baxter is not None and wf.bimodule is not None and wf.bimodule.tmap is not None:
            named.append((path.name, lambda wf=wf: RbfContext.validated(wf.algebra, wf.rota_baxter,
                                                                        wf.bimodule)))
    named += [(f"{name}_sample", getattr(samples, f"{name}_rbf_context"))
              for name in ("e0", "e1", "zero1", "c2")]
    named += [(f"phi_classes_{r}_{t}", lambda r=r, t=t: _trusted(_c2_phi_context(r, t)))
              for r, t in ((True, True), (False, True), (True, False))]
    return named


def _outcome(compute):
    """compute(), or the refusal it raised as "Type: message"."""
    try:
        return compute()
    except InternalCheckError as exc:
        return f"{type(exc).__name__}: {exc}"


def test_cone_engine_tables_equal_the_single_tables():
    """At max degree 0-4 on every named context, the algebra and operator
    reports of the one-elimination engine equal ``cohomology_dims`` on the
    context and star bimodules of a fresh context, ``degree0_intersected``
    included; a refusal is one of theirs (the star bimodule of a context
    with R_0 != R_1 sends a ∂_1 image out of C^2).  The combined report is
    never flagged at max degree 0."""
    refused = set()
    for name, build in _named_contexts():
        for n in range(5):
            reports = _outcome(lambda: rbfa_cohomology_dims(build(), n))
            fresh = build()
            alg = _outcome(lambda: cohomology_dims(fresh.bimodule, n))
            star = _outcome(lambda: cohomology_dims(fresh.star_bimodule(), n))
            if isinstance(reports, str):
                assert reports in (alg, star), (name, n)
                refused.add(name)
                continue
            assert reports["alg"] == alg, (name, n)
            assert reports["rbf"] == star, (name, n)
            if n == 0:
                assert not reports["rbfa"].degree0_intersected, name
    assert refused == {"phi_classes_True_True", "phi_classes_True_False"}


def _rank_column(report) -> list:
    """Rank of the differential leaving each degree: cochains - cocycles."""
    return [row.dim_cochains - row.dim_cocycles for row in report.rows]


def test_phi_star_ranks_lie_between_zero_and_both_cohomologies():
    """r_n = rank d_n - rank δ_n - rank ∂_{n-1} (rank ∂_{-1} = 0), read off
    the three public reports, is the rank of the map φ induces from H^n_alg
    to H^n_rbf: 0 <= r_n <= min(h^n_alg, h^n_rbf) to degree 3 on every named
    context with tables."""
    named, tested = _named_contexts(), 0
    for name, build in named:
        reports = _outcome(lambda: rbfa_cohomology_dims(build(), 3))
        if isinstance(reports, str):
            continue  # refused, as test_cone_engine_tables_equal_the_single_tables pins
        tested += 1
        alg, star, cone = (_rank_column(reports[k]) for k in ("alg", "rbf", "rbfa"))
        h_alg, h_rbf = reports["alg"].dims(), reports["rbf"].dims()
        for n in range(4):
            r = cone[n] - alg[n] - (star[n - 1] if n else 0)
            assert 0 <= r <= min(h_alg[n], h_rbf[n]), (name, n, r)
    assert tested == len(named) - 2


def test_rbfa_dims_dim_m_zero(e1):
    rb = samples.searched_rb(e1)
    bim = zero_bimodule(e1, 0, tmap={0: Mat.zeros(0, 0)})
    ctx = RbfContext.validated(e1, rb, bim)
    reports = rbfa_cohomology_dims(ctx, 2)
    for rep in reports.values():
        assert rep.dims() == [0, 0, 0]


def test_chain_map_on_contexts(e1_ctx, c2_ctx, e0_ctx, zero1_ctx):
    for ctx in (e1_ctx, c2_ctx, e0_ctx, zero1_ctx):
        assert chain_map_check(ctx, 3) is None


def test_chain_map_trivial_family_cases(e1):
    rb = zero_rb(e1, ONE)
    ctx = RbfContext.validated(e1, rb, regular_bimodule(e1, rb))
    assert chain_map_check(ctx, 3) is None


def test_wrong_comparison_map_detected(e1_ctx):
    """Dropping the no-insertion correction term must break the square."""
    ctx = e1_ctx
    a, b = ctx.algebra, ctx.bimodule
    om = a.omega
    d, m = a.dim, b.dim_m
    w = ctx.rb.weight

    def phi_wrong(f):
        n = f.degree
        out = Cochain.zero(n, om.size, d, m)
        rmaps = ctx.rb.maps
        for alpha in om.tuples(n):
            t_all = b.tmap[om.product_of(alpha)]
            for args in product(range(d), repeat=n):
                acc = evaluate_oracle(f, alpha, [rmaps[alpha[s]].col(args[s]) for s in range(n)])
                for size in range(1, n):  # k = 0 term dropped on purpose
                    coeff = w ** (n - 1 - size) if n - 1 - size else ONE
                    for subset in combinations(range(n), size):
                        vecs = [
                            rmaps[alpha[s]].col(args[s]) if s in subset else a.basis_vector(args[s])
                            for s in range(n)
                        ]
                        term = t_all.matvec(evaluate_oracle(f, alpha, vecs))
                        for k in range(m):
                            acc[k] -= coeff * term[k]
                base = out.block_base(alpha) + sum(
                    x * d ** (n - 1 - i) for i, x in enumerate(args)
                ) * m
                for k in range(m):
                    out.coords[base + k] = acc[k]
        return out

    sb = ctx.star_bimodule()
    mismatch = False
    n = 1
    basis = ctx.basis(n)
    alg_op = delta_op(b, n)
    star_op = delta_op(sb, n)
    for j in range(basis.dim()):
        f = basis.cochain(j)
        lhs = star_op.apply_dense(phi_wrong(f).coords)
        delta_f = Cochain(n + 1, om.size, d, m, alg_op.apply_dense(f.coords))
        rhs = phi_wrong(delta_f)
        if lhs != rhs.coords:
            mismatch = True
    assert mismatch


def test_combined_kernel_split_characterization(e1_ctx):
    """(f, h) in ker d^2 iff delta f = 0 and the operator part matches."""
    ctx = e1_ctx
    for x in combined_kernel(ctx, 2):
        df = apply_delta(ctx.bimodule, x.alg, check=False)
        assert df.is_zero()
        lhs = partial(ctx, x.rbf, check=False)
        rhs = phi(ctx, x.alg).scale(-1)
        assert lhs == rhs
    # and conversely: any pair passing both tests lies in the kernel
    mat = combined_raw_matrix_oracle(ctx, 2)
    assert len(kernel_oracle(mat)) == len(combined_kernel(ctx, 2))


def _image_form(ctx, n, column) -> dict:
    """A raw column of d^n (the C^{n+1} rows, then the C^n rows) as a sparse
    dict in the form of the tables' images: a part of degree k >= 2 without
    the end columns of C^k, a part of degree 0 or 1 raw."""
    b = ctx.bimodule
    shift = cochain._raw_size(b, n + 1)
    ends = end_columns(b, n + 1) if n >= 1 else set()
    ends |= {shift + i for i in end_columns(b, n)} if n >= 2 else set()
    return {i: v for i, v in enumerate(column) if v and i not in ends}


def _oracle_image(ctx, n, coords):
    """d^n of a combined cochain from the oracles alone: (delta f, -partial g - phi f)."""
    x = combined_from_coords(ctx, n, coords)
    alg = delta_direct_oracle(ctx.bimodule, x.alg).coords
    rbf = phi_subset_oracle(ctx, x.alg)
    if x.rbf is not None:
        rbf = rbf.add(delta_direct_oracle(ctx.star_bimodule(), x.rbf))
    return alg + [-v for v in rbf.coords]


def _dim_m_zero_context(e1):
    bim = zero_bimodule(e1, 0, tmap={0: Mat.zeros(0, 0)})
    return RbfContext.validated(e1, samples.searched_rb(e1), bim)


def test_combined_images_match_oracle_matrix(e0_ctx, e1_ctx, zero1_ctx, c2_ctx, e1):
    """The sparse images are the columns of the dense oracle matrix at
    degrees 0-4, each part of degree k >= 2 without the end columns of C^k.
    On c2 at degree 4 (320 columns, about 30 s of oracle work) the check
    takes seeded single columns and random combinations."""
    for ctx in (e0_ctx, e1_ctx, zero1_ctx, c2_ctx, _dim_m_zero_context(e1)):
        for n in range(4 if ctx is c2_ctx else 5):
            images = _combined_images(ctx, n)
            mat = combined_raw_matrix_oracle(ctx, n)
            assert len(images) == mat.cols == combined_dim(ctx, n), n
            assert [_image_form(ctx, n, mat.col(j)) for j in range(mat.cols)] == images, n
    images = _combined_images(c2_ctx, 4)
    width = len(images)
    assert width == combined_dim(c2_ctx, 4) == 256 + 64
    rng = random.Random(57)
    for j in (0, rng.randrange(256), 255, rng.randrange(256, width), width - 1):
        unit = [ZERO] * width
        unit[j] = ONE
        assert _image_form(c2_ctx, 4, _oracle_image(c2_ctx, 4, unit)) == images[j], j
    for _ in range(2):
        coords = [Rat(rng.randint(-3, 3)) for _ in range(width)]
        total = {}
        for c, image in zip(coords, images):
            for i, v in image.items():
                total[i] = total.get(i, 0) + c * v
        assert _image_form(c2_ctx, 4, _oracle_image(c2_ctx, 4, coords)) == {i: v for i, v in total.items() if v}


def test_combined_kernel_and_solve_match_oracle_matrix(e0_ctx, e1_ctx, zero1_ctx, c2_ctx):
    """combined_kernel and solve_combined against kernel_oracle and
    solve_oracle on the oracle matrix: solvable targets (images of seeded
    sources) and raw (1/3)Z targets."""
    rng = random.Random(61)
    unsolvable = 0
    for ctx in (e0_ctx, e1_ctx, zero1_ctx, c2_ctx):
        om, d, m = ctx.dims()
        for n in (0, 1, 2):
            mat = combined_raw_matrix_oracle(ctx, n)
            kb = kernel_oracle(mat)
            assert combined_kernel(ctx, n) == [combined_from_coords(ctx, n, vec) for vec in kb]
            cut = (om.size * d) ** (n + 1) * m
            targets = [mat.matvec([Rat(rng.randint(-2, 2)) for _ in range(mat.cols)]) for _ in range(2)]
            targets.append([Rat(rng.randint(-3, 3), 3) for _ in range(mat.rows)])
            for vec in targets:
                target = CombinedCochain(
                    Cochain(n + 1, om.size, d, m, vec[:cut]), Cochain(n, om.size, d, m, vec[cut:])
                )
                x = solve_oracle(mat, vec)
                assert x is None or mat.matvec(x) == vec
                expected = None if x is None else combined_from_coords(ctx, n, x)
                assert solve_combined(ctx, n, target) == expected, (n, vec)
                unsolvable += x is None
    assert unsolvable


def _outside(b, k):
    """The first raw index of degree k whose unit vector is not in C^k, or None."""
    size, shape = cochain._raw_size(b, k), (b.base.omega.size, b.base.dim, b.dim_m)
    units = (Cochain(k, *shape, [ONE if i == r else ZERO for i in range(size)]) for r in range(size))
    return next((r for r, unit in enumerate(units) if not is_equivariant(b, unit)), None)


def test_combined_kernel_and_solve_read_targets_in_the_form_of_the_images():
    """combined_kernel and solve_combined against kernel_oracle and
    solve_oracle on the raw oracle matrix at n = 0-2, on the c2 context and
    seeded contexts of random_valid_context, regular and "zero-module" (a
    zero bimodule with T != R).  Targets: images of seeded sources, solved;
    each with a unit vector outside C^k added to a part of degree k >= 2,
    which is read as None and has no preimage; and, among the images, some
    whose degree-1 part leaves C^1 (as δ_0's images do on the c2 context),
    read raw and solved as the oracle solves them."""
    rng = random.Random(4243)
    contexts = [samples.c2_rbf_context(), *(random_valid_context(rng) for _ in range(3))]
    contexts += [random_valid_context(rng, "zero-module") for _ in range(6)]
    outside_parts = raw_degree1 = 0
    for ctx in contexts:
        b = ctx.bimodule
        om, d, m = ctx.dims()
        for n in (0, 1, 2):
            mat = combined_raw_matrix_oracle(ctx, n)
            assert combined_kernel(ctx, n) == [combined_from_coords(ctx, n, vec) for vec in kernel_oracle(mat)]
            cut = cochain._raw_size(b, n + 1)
            for _ in range(2):
                vec = mat.matvec([Rat(rng.randint(-2, 2)) for _ in range(mat.cols)])
                targets = [vec]
                for k, first in ((n + 1, 0), (n, cut)):  # each part: its degree and its first row
                    r = _outside(b, k) if k >= 2 else None
                    if r is not None:
                        targets.append([v + (i == first + r) for i, v in enumerate(vec)])
                for target in targets:
                    parts = Cochain(n + 1, om.size, d, m, target[:cut]), Cochain(n, om.size, d, m, target[cut:])
                    x = solve_oracle(mat, target)
                    assert (x is None) == (target is not vec)
                    got = solve_combined(ctx, n, CombinedCochain(*parts))
                    assert got == (None if x is None else combined_from_coords(ctx, n, x)), (n, target)
                    outside_parts += x is None
                    raw_degree1 += x is not None and any(
                        part.degree == 1 and not is_equivariant(b, part) for part in parts)
    assert outside_parts and raw_degree1


def test_a_phi_image_outside_c2_is_refused_by_the_tables():
    """The φ parts of the combined images are read as the δ parts are: for
    degree n >= 2 verified in C^n and projected.  On the c2 context, the
    first tuple s of degree 2 with a kernel gets its own copy of φ_2's block,
    with an entry at a local row outside C^2 added in the column of the free
    column of its first kernel vector: that basis element's φ image leaves
    C^2, and rbfa_cohomology_dims refuses the tables, naming it and the
    degree, where a raw φ part would be ranked silently."""
    ctx = samples.c2_rbf_context()
    b, op, basis = ctx.bimodule, rbf.phi_op(ctx, 2), ctx.basis(2)
    rbfa_cohomology_dims(ctx, 2)  # the intact context is ranked
    s = next(s for s, vectors in enumerate(basis.vectors) if vectors)
    column, outside = max(basis.vectors[s][0]), _outside(b, 2) - s * op.out_width
    assert 0 <= outside < op.out_width
    [(t, k)] = op.faces[s]
    part, actions = op.blocks[k]
    op.blocks.append(([[*col, (outside, ONE)] if c == column else col for c, col in enumerate(part)], actions))
    op.faces[s] = [(t, len(op.blocks) - 1)]
    with pytest.raises(InternalCheckError, match=f"image of degree-2 basis element {basis.offsets[s]} left the "
                                                 "equivariant subspace: vector is not in the degree-2 equivariant"):
        rbfa_cohomology_dims(ctx, 2)


def test_malformed_combined_targets_and_coordinates_are_refused(e1_ctx):
    """A target of d^n needs n >= 0, an operator part of degree n and parts
    of the context's shape, and degree-0 coordinates need dim M entries:
    each is refused with d_combined's wording, not an AttributeError, a
    length mismatch of the right-hand side, a preimage of a cochain of
    another shape or a malformed cochain."""
    ctx = e1_ctx
    om, d, m = ctx.dims()
    zero = {k: Cochain.zero(k, om.size, d, m) for k in range(3)}
    malformed = [(0, CombinedCochain(zero[1], None)), (-1, CombinedCochain(zero[0], None)),
                 (1, CombinedCochain(zero[2], zero[0])), (1, CombinedCochain(zero[2], zero[2]))]
    for n, target in malformed:
        with pytest.raises(MalformedInputError, match="operator part must have degree one less"):
            solve_combined(ctx, n, target)
    other = CombinedCochain(Cochain.zero(1, om.size, 1, d * m), Cochain.zero(0, om.size, 1, m))
    assert len(other.alg.coords) == len(zero[1].coords)
    with pytest.raises(MalformedInputError, match="cochain does not match the bimodule"):
        solve_combined(ctx, 0, other)
    for length in (m - 1, m + 1):
        with pytest.raises(MalformedInputError, match="combined coordinate length mismatch"):
            combined_from_coords(ctx, 0, [ONE] * length)
    x = combined_from_coords(ctx, 0, [Rat(k + 1) for k in range(m)])
    assert solve_combined(ctx, 0, d_combined(ctx, x)) == x


def _dense_chain_map_witness(ctx, max_degree):
    """First mismatch of partial o phi and phi o delta, from the oracles on dense vectors."""
    for n in range(max_degree + 1):
        basis = ctx.basis(n)
        for j in range(basis.dim()):
            f = basis.cochain(j)
            lhs = partial_expanded_oracle(ctx, phi_subset_oracle(ctx, f)).coords
            rhs = phi_subset_oracle(ctx, delta_direct_oracle(ctx.bimodule, f)).coords
            for idx, (u, v) in enumerate(zip(lhs, rhs)):
                if u != v:
                    return Witness("chain-map", (n,), (j, idx), (u,), (v,))
    return None


def test_chain_map_witness_matches_dense_comparison(e1_ctx, c2_ctx):
    """An unvalidated context with one tmap entry altered breaks the square:
    the check refuses it, since T no longer meets the weighted action
    identities, and once trusted the witness (degree, basis cochain, first
    raw index, both values) is the one a dense comparison finds first."""
    for ctx, x, entry in ((e1_ctx, 0, 2), (c2_ctx, 1, 1)):
        b = ctx.bimodule
        t = b.tmap[x]
        entries = list(t.entries)
        entries[entry] += 1
        tmap = dict(b.tmap)
        tmap[x] = Mat(t.rows, t.cols, entries)
        fresh = OmegaBimodule(b.base, b.dim_m, b.left, b.right, b.pmap, b.qmap, tmap)
        broken = RbfContext(ctx.algebra, ctx.rb, fresh)
        with pytest.raises(PreconditionError, match="bimodule invalid for the family"):
            chain_map_check(broken, 2)
        broken = _trusted(broken)
        witness = chain_map_check(broken, 2)
        assert witness is not None
        assert witness == _dense_chain_map_witness(broken, 2)


def test_chain_map_witness_matches_the_per_cochain_oracle(e1_ctx, c2_ctx):
    """With one tmap entry altered, as in the dense comparison above, the
    witness to degree 3 is also the one of chain_map_witness_oracle."""
    for ctx, x, entry in ((e1_ctx, 0, 2), (c2_ctx, 1, 1), (c2_ctx, 0, 3)):
        b = ctx.bimodule
        tmap = dict(b.tmap)
        tmap[x] = Mat(b.tmap[x].rows, b.tmap[x].cols, [v + (k == entry) for k, v in enumerate(b.tmap[x].entries)])
        fresh = OmegaBimodule(b.base, b.dim_m, b.left, b.right, b.pmap, b.qmap, tmap)
        broken = _trusted(RbfContext(ctx.algebra, ctx.rb, fresh))
        witness = chain_map_check(broken, 3)
        assert witness is not None and witness == chain_map_witness_oracle(broken, 3)


@pytest.fixture(scope="module")
def several_phi_ctx():
    """Draw 15 of random_valid_context(random.Random(2029)): a searched
    family with R_0 != R_1, so φ_2 has 4 blocks, and φ_2 nonzero on C^2 (on
    the c2 context φ vanishes on C^n for n >= 1, so a fault in ∂ does not
    show there)."""
    rng = random.Random(2029)
    return [random_valid_context(rng) for _ in range(15)][-1]


@pytest.fixture(scope="module")
def constant_t_ctx():
    """c2 variant 0 with its searched family R (weight λ = -1) on the
    regular bimodule with T = -λ·id instead of R: the weighted action
    identities hold for any family of weight λ != 0, so the context
    validates, and T != R, so φ does not vanish on C^n for n >= 1 as it
    does on the c2 context."""
    a = samples.build_c2_example(0)
    rb = samples.searched_rb(a)
    tmap = {x: Mat.scalar(a.dim, -rb.weight) for x in a.omega.elements()}
    bimodule = OmegaBimodule(a, a.dim, dict(a.product), dict(a.product), dict(a.pmap), dict(a.qmap), tmap)
    ctx = RbfContext.validated(a, rb, bimodule)
    assert all(tmap[x] != rb.maps[x] for x in a.omega.elements())
    return ctx


@pytest.fixture(scope="module")
def zero_module_ctx():
    """c2 variant 0 with its searched family on a zero bimodule of dimension
    2 with T = [[2, 1], [0, 3]] at every element: P = Q = id, which T
    commutes with, and zero actions, which meet the weighted action
    identities for any T, so the context validates; T != R."""
    a = samples.build_c2_example(0)
    t = Mat(2, 2, [Rat(2), Rat(1), ZERO, Rat(3)])
    return RbfContext.validated(a, samples.searched_rb(a), zero_bimodule(a, 2, tmap={x: t for x in a.omega.elements()}))


@pytest.mark.parametrize("context, which, degree", [
    ("c2", "delta", 2), ("c2", "phi_n", 1), ("c2", "phi_next", 2), ("draw", "star_delta", 2), ("draw", "delta", 2),
    ("constant_t", "star_delta", 2), ("constant_t", "delta", 2), ("constant_t", "phi_n", 1),
    ("constant_t", "phi_next", 2), ("zero_module", "star_delta", 2), ("zero_module", "delta", 2),
    ("zero_module", "phi_n", 1), ("zero_module", "phi_next", 2),
])
def test_chain_map_check_finds_faults_planted_in_shared_blocks(
    several_phi_ctx, constant_t_ctx, zero_module_ctx, context, which, degree
):
    """Each block of an operator of the degree-2 square (∂_2, δ_2, φ_2 or
    φ_3) that several source tuples read gets an extra entry in every column
    of its part, in place in the operator's block list, one block at a time:
    the check, which compares each class of faces once, then names the
    witness of chain_map_witness_oracle, which composes the images of every
    basis cochain, at ``degree`` (φ_2 is also φ_{n+1} at degree 1).  The
    contexts: the c2 context, a draw whose φ_2 has several blocks, the c2
    algebra and family with T = -λ·id (:func:`constant_t_ctx`) and on a
    zero bimodule (:func:`zero_module_ctx`)."""
    ctx = {"c2": samples.c2_rbf_context, "draw": lambda: several_phi_ctx,
           "constant_t": lambda: constant_t_ctx, "zero_module": lambda: zero_module_ctx}[context]()
    op = {
        "star_delta": lambda: delta_op(ctx.star_bimodule(), 2), "delta": lambda: delta_op(ctx.bimodule, 2),
        "phi_n": lambda: rbf.phi_op(ctx, 2), "phi_next": lambda: rbf.phi_op(ctx, 3),
    }[which]()
    assert chain_map_check(ctx, 3) is None
    readers: dict = {}
    for s, faces in enumerate(op.faces):
        for _, k in faces:
            readers.setdefault(k, set()).add(s)
    shared = [k for k, sources in sorted(readers.items()) if len(sources) > 1]
    assert shared
    for k in shared:
        part, actions = original = op.blocks[k]
        op.blocks[k] = ([[*col, (0, ONE)] for col in part], actions)
        try:
            witness = chain_map_check(ctx, 3)
            assert witness is not None and witness.omega_indices == (degree,)
            assert witness == chain_map_witness_oracle(ctx, 3)
        finally:
            op.blocks[k] = original


def test_chain_map_check_finds_a_fault_in_the_phi_block_of_one_tuple():
    """On the c2 context every tuple of a degree reads one φ block.  Giving
    one tuple of degree n = 1, 2 or 3 its own copy of that block, with an
    extra entry in every column, breaks the square at degree n - 1 or n
    for that tuple only, so classes that differ only in their φ block no
    longer agree: the witness is chain_map_witness_oracle's each time."""
    ctx = samples.c2_rbf_context()
    found = []
    for n in (1, 2, 3):
        op = rbf.phi_op(ctx, n)
        for s, [(t, k)] in enumerate(list(op.faces)):
            part, actions = op.blocks[k]
            op.blocks.append(([[*col, (0, ONE)] for col in part], actions))
            op.faces[s] = [(t, len(op.blocks) - 1)]
            try:
                witness = chain_map_check(ctx, 3)
                assert witness == chain_map_witness_oracle(ctx, 3), (n, s)
                found.append(witness is not None)
            finally:
                op.faces[s] = [(t, k)]
                op.blocks.pop()
    assert found == [True] * 14


def test_chain_map_check_compares_once_per_class(monkeypatch):
    """On c2 the faces of δ_n (source tuple, output tuple) number 2, 7, 19
    and 47 at degrees 0-3, and fall into 2, 7, 13 and 18 classes (δ key, ∂
    key, φ block at the source, φ block at the output, source signature):
    the check multiplies a block of ∂_n once per class, and a second call
    takes the same products again, since nothing is kept between calls."""
    ctx = samples.c2_rbf_context()
    star = ctx.star_bimodule()
    calls, original = [], rbf._block_product

    def counting(block, id_width, vectors):
        calls.append(block)
        return original(block, id_width, vectors)

    monkeypatch.setattr(rbf, "_block_product", counting)
    for _ in range(2):
        calls.clear()
        assert chain_map_check(ctx, 3) is None
        classes = [sum(any(block is own for own in delta_op(star, n).blocks) for block in calls) for n in range(4)]
        assert classes == [2, 7, 13, 18]
    assert [sum(map(len, delta_op(ctx.bimodule, n).faces)) for n in range(4)] == [2, 7, 19, 47]


# -- one equivariance system per context ------------------------------------


def _fresh(ctx):
    """The context's algebra and family over a new regular bimodule, with empty caches."""
    return RbfContext(ctx.algebra, ctx.rb, regular_bimodule(ctx.algebra, ctx.rb))


def _context_results(ctx, rng):
    """The three tables to degree 3, the chain map check, the combined kernels
    and solves of the combined coboundaries of random cochains."""
    tables = {name: rep.to_json() for name, rep in rbfa_cohomology_dims(ctx, 3).items()}
    kernels = [combined_kernel(ctx, n) for n in range(4)]
    solves = []
    for n in (1, 2):
        x = combined_from_coords(ctx, n, [Rat(rng.randint(-2, 2)) for _ in range(combined_dim(ctx, n))])
        solves.append(solve_combined(ctx, n, d_combined(ctx, x, check=False)))
    return tables, chain_map_check(ctx, 3), kernels, solves


def test_star_bimodule_reads_the_context_bimodules_equivariance_data(e0_ctx, e1_ctx, zero1_ctx, c2_ctx):
    for ctx in (e0_ctx, e1_ctx, zero1_ctx, c2_ctx):
        b, sb = ctx.bimodule, ctx.star_bimodule()
        assert cochain._equivariance(sb) is cochain._equivariance(b) is b._cache
        for n in range(4):
            assert equivariant_basis(sb, n) is equivariant_basis(b, n) is ctx.basis(n)
        for n in range(1, 4):
            for t in range(b.base.omega.size**n):
                assert cochain._constraint_system(sb, n, t) is cochain._constraint_system(b, n, t)


def test_context_basis_does_not_build_the_star_bimodule(e1_ctx):
    ctx = _fresh(e1_ctx)
    ctx.basis(2)
    assert "star_bimodule" not in ctx._cache


def test_each_twist_signature_is_built_once_per_context(monkeypatch, c2_ctx):
    """The tables, chain map check and kernels of both bimodules of a
    context build each constraint system once; a star bimodule that did
    not share would build each of them a second time."""
    original = cochain._constraint_system

    def count(sharing):
        built = []

        def counting(bb, n, t):
            sig = cochain._signatures(bb, n)[t]
            if ("constraints", sig) not in cochain._equivariance(bb):
                built.append(sig)
            return original(bb, n, t)

        with monkeypatch.context() as m:
            m.setattr(cochain, "_constraint_system", counting)
            if not sharing:
                m.setattr(rbf, "_share_equivariance", lambda source, target: None)
            ctx = _fresh(c2_ctx)
            rbfa_cohomology_dims(ctx, 3)
            assert chain_map_check(ctx, 3) is None
            combined_kernel(ctx, 2)
        return built

    shared, alone = count(True), count(False)
    assert shared and len(shared) == len(set(shared))
    assert sorted(alone) == sorted(shared * 2)


def test_sharing_leaves_tables_chain_map_kernels_and_solves_unchanged(
    monkeypatch, e0_ctx, e1_ctx, zero1_ctx, c2_ctx
):
    for ctx in (e0_ctx, e1_ctx, zero1_ctx, c2_ctx):
        with monkeypatch.context() as m:
            m.setattr(rbf, "_share_equivariance", lambda source, target: None)
            alone = _fresh(ctx)
            want = _context_results(alone, random.Random(5))
            assert alone.star_bimodule()._cache.get(("equivariant_basis", 1)) is not alone.basis(1)
        shared = _fresh(ctx)
        assert _context_results(shared, random.Random(5)) == want
        assert cochain._equivariance(shared.star_bimodule()) is shared.bimodule._cache


def test_star_bimodule_with_other_structure_maps_is_refused(monkeypatch, e1_ctx, c2_ctx):
    real = rbf.induced_module_star

    def skewed(b, rb, check=True):
        sb = real(b, rb, check=check)
        sb.qmap = {x: m.scale(2) for x, m in sb.qmap.items()}
        return sb

    monkeypatch.setattr(rbf, "induced_module_star", skewed)
    ctx = _fresh(e1_ctx)
    with pytest.raises(InternalCheckError, match="different structure maps"):
        ctx.star_bimodule()
    assert "star_bimodule" not in ctx._cache
    b = regular_bimodule(c2_ctx.algebra)
    reordered = OmegaBimodule(b.base, b.dim_m, b.left, b.right, dict(reversed(b.pmap.items())), b.qmap)
    assert reordered.pmap == b.pmap
    with pytest.raises(InternalCheckError, match="different structure maps"):
        cochain._share_equivariance(b, reordered)
    same = OmegaBimodule(b.base, b.dim_m, b.left, b.right, dict(b.pmap), dict(b.qmap))
    cochain._share_equivariance(b, same)
    assert cochain._equivariance(same) is b._cache


def _combined_square_vanishes(ctx, n) -> bool:
    """Whether d_{n+1} d_n vanishes on the combined basis of degree n, both
    applied by d_combined on raw coordinates, unchecked (a degree-0 image
    may leave C^1)."""
    width = combined_dim(ctx, n)
    for j in range(width):
        x = combined_from_coords(ctx, n, [ONE if k == j else ZERO for k in range(width)])
        if not d_combined(ctx, d_combined(ctx, x, check=False), check=False).is_zero():
            return False
    return True


def test_random_valid_contexts_keep_the_chain_map_and_the_combined_square():
    """24 seeded contexts of generators.random_valid_context (scalar, zero
    and searched Rota-Baxter families, the regular bimodule with T = R), all
    built by RbfContext.validated: on each, chain_map_check(ctx, 3) is None
    and the combined d∘d vanishes on degrees 2 and 3.  On degrees 0 and 1 it
    vanishes exactly where δ1∘δ0 does on the context bimodule and on the
    star bimodule: the degree-0 differential's defect (ROADMAP item 1)
    shows on 2 contexts, at degree 0, each with a structure map at the unit
    that is not the identity.  9 contexts have more than one φ class at
    degree 2 (a searched family with R_0 != R_1)."""
    rng = random.Random(2029)
    contexts = [random_valid_context(rng) for _ in range(24)]
    fails, several_classes = [], 0
    for k, ctx in enumerate(contexts):
        assert chain_map_check(ctx, 3) is None
        for n, b in enumerate((ctx.bimodule, ctx.star_bimodule(), None, None)):
            sound = b is None or dd_zero_witness(b, [0]) is None
            assert _combined_square_vanishes(ctx, n) == sound
            if not sound:
                unit = ctx.algebra.omega.unit
                assert not all(f[unit].is_identity() for f in (ctx.algebra.pmap, ctx.algebra.qmap))
                fails.append((k, n))
        if len(rbf.phi_op(ctx, 2).blocks) > 1:
            several_classes += 1
            assert chain_map_witness_oracle(ctx, 3) is None
    assert len(fails) == len({k for k, _ in fails}) == 2 and {n for _, n in fails} == {0}
    assert several_classes == 9


def test_zero_module_contexts_keep_the_chain_map_and_the_combined_square():
    """12 seeded contexts of random_valid_context of kind "zero-module" (a
    zero bimodule of dimension 1 or 2, T integer upper triangular and not R,
    so neither φ nor the star bimodule is the regular one's): on each,
    chain_map_check(ctx, 3) is None, as chain_map_witness_oracle finds, and
    the combined d∘d vanishes on degrees 0-3 (zero actions make δ_0 and ∂_0
    zero, so the degree-0 defect cannot show)."""
    rng = random.Random(2029)
    for ctx in [random_valid_context(rng, "zero-module") for _ in range(12)]:
        actions = [*ctx.bimodule.left.values(), *ctx.bimodule.right.values()]
        assert ctx.bimodule.dim_m in (1, 2) and not any(v for t in actions for plane in t for row in plane for v in row)
        assert all(ctx.bimodule.tmap[x] != ctx.rb.maps[x] for x in ctx.algebra.omega.elements())
        assert chain_map_check(ctx, 3) is None and chain_map_witness_oracle(ctx, 3) is None
        assert all(_combined_square_vanishes(ctx, n) for n in range(4))


def test_tables_refuse_an_unvalidated_context_whose_family_is_not_rota_baxter(monkeypatch, c2_ctx):
    """A plain RbfContext(...) skips validation, so the tables, the
    chain-map check and the combined kernel and solve run check_rota_baxter
    and the weighted action scan themselves: on _c2_phi_context(False, True)
    and the other two several-φ-class contexts, whose families are not
    Rota-Baxter, all four refuse with PreconditionError naming the witness.  A
    plain context of a valid family gets the tables of the validated one,
    and a context that RbfContext.validated built runs neither scan again."""
    for r_differ, t_differ in ((False, True), (True, False), (True, True)):
        bad = _c2_phi_context(r_differ, t_differ)
        witness = check_rota_baxter(bad.algebra, bad.rb)
        assert witness is not None
        message = f"Rota-Baxter family invalid: {witness.describe()}"
        with pytest.raises(PreconditionError) as refused:
            rbfa_cohomology_dims(bad, 2)
        assert str(refused.value) == message
        zero = combined_from_coords(bad, 2, [ZERO] * combined_dim(bad, 2))
        for call in (lambda: chain_map_check(bad, 1), lambda: combined_kernel(bad, 2),
                     lambda: solve_combined(bad, 1, zero)):
            with pytest.raises(PreconditionError) as refused:
                call()
            assert str(refused.value) == message
    plain = RbfContext(c2_ctx.algebra, c2_ctx.rb, c2_ctx.bimodule)
    want = {k: r.to_json() for k, r in rbfa_cohomology_dims(samples.c2_rbf_context(), 2).items()}
    assert {k: r.to_json() for k, r in rbfa_cohomology_dims(plain, 2).items()} == want
    assert chain_map_check(plain, 2) is None
    validated, calls = samples.c2_rbf_context(), []
    for name in ("check_rota_baxter", "_rbf_action_scan"):
        monkeypatch.setattr(rbf, name, lambda *args, name=name: calls.append(name))
    assert {k: r.to_json() for k, r in rbfa_cohomology_dims(validated, 2).items()} == want
    assert chain_map_check(validated, 2) is None and calls == []
    rbfa_cohomology_dims(RbfContext(c2_ctx.algebra, c2_ctx.rb, c2_ctx.bimodule), 2)
    assert calls == ["check_rota_baxter", "_rbf_action_scan"]
