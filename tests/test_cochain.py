import json
import random
from fractions import Fraction
from itertools import product
from math import lcm

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from conftest import fixture_text
from generators import random_valid_pair, random_wide_pair
from oracles import (
    block_columns_oracle,
    circ_full_oracle,
    circ_i_oracle,
    constraint_rows_oracle,
    delta_direct_oracle,
    end_columns,
    equivariant_basis_oracle,
    evaluate_oracle,
    gauss_jordan_oracle,
    identity_cochain,
    is_equivariant_oracle,
    kernel_oracle,
    solve_oracle,
)

from bihomega import blocks, cochain, rbf, samples
from bihomega.algebra import OmegaAlgebra, tensor_zeros, zero_algebra
from bihomega.bimodule import OmegaBimodule, regular_bimodule, validate_bimodule, zero_bimodule
from bihomega.cochain import (
    Cochain,
    apply_delta,
    cochain_from_maps,
    cochain_from_tensors,
    cohomology_dims,
    dd_zero_witness,
    delta_matrix,
    delta_op,
    equivariant_basis,
    is_coboundary,
    is_cocycle,
    is_equivariant,
    maps_from_cochain,
    random_equivariant,
)
from bihomega.errors import InternalCheckError, MalformedInputError, PreconditionError
from bihomega.gerstenhaber import mu_cochain
from bihomega.linalg import Mat, rank, sparse_kernel, sparse_rank, sparse_rows
from bihomega.monoid import boolean_monoid, cyclic_monoid, trivial_monoid
from bihomega.rationals import ONE, ZERO, Rat


def _frees(basis) -> list:
    """The free columns of each block: every kernel vector's largest key."""
    return [[max(v) for v in vecs] for vecs in basis.vectors]


def dense_constraint_matrix(b, n):
    """Dense-kernel oracle: assemble the full equivariance system explicitly."""
    a = b.base
    om = a.omega
    d, m = a.dim, b.dim_m
    raw = (om.size**n) * (d**n) * m
    rows = []
    tuples = list(om.tuples(n))

    def coord(t_idx, args, k):
        return (t_idx * (d**n) + sum(x * d ** (n - 1 - i) for i, x in enumerate(args))) * m + k

    for t_idx, om_tuple in enumerate(tuples):
        prod_idx = om.product_of(om_tuple)
        for mmaps, amaps in ((b.pmap, a.pmap), (b.qmap, a.qmap)):
            big = mmaps[prod_idx]
            for args in product(range(d), repeat=n):
                for k in range(m):
                    row = [ZERO] * raw
                    for l in range(m):
                        row[coord(t_idx, args, l)] += big.at(k, l)
                    for args_in in product(range(d), repeat=n):
                        coeff = ONE
                        for t in range(n):
                            coeff *= amaps[om_tuple[t]].at(args_in[t], args[t])
                        if coeff:
                            row[coord(t_idx, args_in, k)] -= coeff
                    rows.append(row)
    return Mat.from_rows(rows) if rows else Mat.zeros(0, raw)


def test_cochain_arithmetic_on_fractions():
    """add, sub, scale and is_zero on rational coordinates, mixed with ints."""
    half, third = Rat(1, 2), Rat(-1, 3)
    f = Cochain(1, 1, 2, 1, [half, third])
    g = Cochain(1, 1, 2, 1, [Rat(3, 2), 2])
    assert f.scale(2).coords == [1, Rat(-2, 3)]
    assert f.scale(-1).coords == [Rat(-1, 2), Rat(1, 3)]
    assert f.scale(Rat(3, 2)).coords == [Rat(3, 4), Rat(-1, 2)]
    same = f.scale(1)
    assert same == f and same.coords is not f.coords
    same.coords[0] = 0
    assert f.coords == [half, third]
    assert f.add(g).coords == [2, Rat(5, 3)]
    assert f.sub(g).coords == [-1, Rat(-7, 3)]
    assert g.sub(f).add(f) == g
    assert f.sub(f).is_zero() and f.scale(0).is_zero()
    assert Cochain(1, 1, 2, 1, [0, Fraction(0)]).is_zero()
    assert not f.is_zero() and not Cochain(1, 1, 2, 1, [0, Rat(1, 7)]).is_zero()
    with pytest.raises(MalformedInputError):
        f.add(Cochain(1, 1, 1, 2, [0, 0]))


def test_identity_maps_full_space():
    a = zero_algebra(trivial_monoid(), 2)
    b = regular_bimodule(a)
    for n in range(0, 3):
        basis = equivariant_basis(b, n)
        assert basis.dim() == basis.raw_dim


def test_degree_zero_dimension_convention(e1_regular):
    assert equivariant_basis(e1_regular, 0).dim() == e1_regular.dim_m


def test_e1_degree_one_dimension_matches_dense_oracle_and_fixture(e1_regular):
    constraint = dense_constraint_matrix(e1_regular, 1)
    oracle_dim = len(kernel_oracle(constraint))
    basis = equivariant_basis(e1_regular, 1)
    assert basis.dim() == oracle_dim
    frozen = json.loads(fixture_text("e1_c1.json"))
    assert basis.dim() == frozen["dim_c1"]
    # every basis column satisfies the dense constraint system exactly
    for j in range(basis.dim()):
        vec = basis.cochain(j).coords
        assert all(v == 0 for v in constraint.matvec(vec))


def test_equivariant_bases_match_dense_oracle_on_fixtures(e1_regular, e1_ctx, c2_ctx):
    # includes a carrier with a non-identity pmap family (alternating variant)
    variant1 = regular_bimodule(samples.build_c2_example(1))
    for b in (e1_regular, c2_ctx.bimodule, variant1):
        for n in (1, 2):
            constraint = dense_constraint_matrix(b, n)
            basis = equivariant_basis(b, n)
            assert basis.dim() == len(kernel_oracle(constraint))
            for j in range(basis.dim()):
                assert all(v == 0 for v in constraint.matvec(basis.cochain(j).coords))


def test_basis_free_columns_read_off_coordinates(e1_regular, c2_ctx):
    """Basis vector i of a block is 1 at free column i and 0 at every other
    free column of that block, so coords_of can read coordinates there."""
    for b in (e1_regular, c2_ctx.bimodule, regular_bimodule(samples.build_c2_example(1))):
        for n in (1, 2, 3):
            basis = equivariant_basis(b, n)
            for vectors, frees in zip(basis.vectors, _frees(basis)):
                assert frees == sorted(set(frees))
                for i, vec in enumerate(vectors):
                    assert [vec.get(c, 0) for c in frees] == [int(k == i) for k in range(len(frees))]


def test_basis_matrix_and_coordinates_round_trip(e1_regular):
    rng = random.Random(101)
    for n in (1, 2):
        basis = equivariant_basis(e1_regular, n)
        rows = sparse_rows([basis.cochain_sparse(j) for j in range(basis.dim())], basis.raw_dim)
        assert len(rows) == basis.raw_dim and all(0 <= j < basis.dim() for row in rows for j in row)
        for j in range(basis.dim()):
            assert [row.get(j, 0) for row in rows] == basis.cochain(j).coords
        f = random_equivariant(e1_regular, n, rng)
        coords = basis.coords_of(f.coords)
        assert basis.combine(coords) == f
    # a vector outside the subspace is rejected, not projected
    outside = Cochain.zero(1, 1, 2, 2)
    outside.coords[2] = ONE
    with pytest.raises(InternalCheckError):
        equivariant_basis(e1_regular, 1).coords_of(outside.coords)


def test_coords_of_refuses_a_raw_vector_of_another_length_or_key(e1_regular):
    """A raw vector that is not one of C^n's raw length (e1's C^1 has 4 raw
    coordinates) is refused as malformed, not read partially or failing on
    an index: a list of length 6 or 3, a dict with a key past the end or
    below 0.  A dict inside the range still reads like the dense list."""
    basis = equivariant_basis(e1_regular, 1)
    f = basis.cochain(0)
    assert basis.raw_dim == 4 and basis.coords_of(f.coords) == [1, 0]
    assert basis.coords_of({i: v for i, v in enumerate(f.coords) if v}) == [1, 0]
    for raw in (f.coords + [ZERO, ZERO], f.coords[:3]):
        with pytest.raises(MalformedInputError, match=f"length {len(raw)}, not 4"):
            basis.coords_of(raw)
    for key in (4, 7, -1):
        with pytest.raises(MalformedInputError, match="key outside 0..3"):
            basis.coords_of({0: ONE, key: ONE})


def test_apply_delta_zero_and_identity(e1, e1_regular):
    z = Cochain.zero(1, 1, 2, 2)
    assert apply_delta(e1_regular, z).is_zero()
    ident = cochain_from_maps(trivial_monoid(), {0: Mat.identity(2)}, 2, 2)
    assert apply_delta(e1_regular, ident) == mu_cochain(e1)


def test_apply_delta_requires_equivariance(e1_regular):
    f = Cochain.zero(1, 1, 2, 2)
    f.coords[2] = ONE  # entry (2,1) of the matrix: not q-compatible
    assert not is_equivariant(e1_regular, f)
    with pytest.raises(PreconditionError):
        apply_delta(e1_regular, f)


def test_apply_delta_matches_direct_oracle_and_compiled(e1_regular, c2_ctx):
    rng = random.Random(31)
    for b in (e1_regular, c2_ctx.bimodule):
        for n in (0, 1, 2):
            basis = equivariant_basis(b, n)
            op = delta_op(b, n)
            for j in range(min(basis.dim(), 4)):
                f = basis.cochain(j)
                image = apply_delta(b, f, check=False)
                assert image == delta_direct_oracle(b, f)
                assert image.coords == op.apply_dense(f.coords)
            f = random_equivariant(b, n, rng)
            assert apply_delta(b, f, check=False) == delta_direct_oracle(b, f)


def test_delta_matrix_zero_algebra_all_zero():
    a = zero_algebra(trivial_monoid(), 1)
    b = regular_bimodule(a)
    for n in range(0, 3):
        assert delta_matrix(b, n).is_zero()


def test_delta_matrix_e0_degree_one_is_one(e0):
    # derived by the rank oracle: the coboundary of the identity map is the
    # product itself, so the 1x1 matrix is [1] (not [0])
    dm = delta_matrix(regular_bimodule(e0), 1)
    assert dm == Mat.from_rows([[1]])
    frozen = json.loads(fixture_text("e0_delta1.json"))
    assert frozen["matrix"] == [["1"]]


def test_delta_matrix_e1_matches_frozen(e1_regular):
    from bihomega.rationals import format_rational

    dm = delta_matrix(e1_regular, 1)
    frozen = json.loads(fixture_text("e1_delta1.json"))
    got = [[format_rational(dm.at(i, j)) for j in range(dm.cols)] for i in range(dm.rows)]
    assert got == frozen["matrix"]


def test_delta_matrix_degree_zero_defect_raises(e1_regular):
    with pytest.raises(InternalCheckError):
        delta_matrix(e1_regular, 0)


def test_cohomology_e0_ladder(e0):
    rep = cohomology_dims(regular_bimodule(e0), 3)
    assert rep.dims() == [1, 0, 0, 0]
    assert not rep.degree0_intersected


def test_cohomology_zero_algebra_ladder(zero1):
    rep = cohomology_dims(regular_bimodule(zero1), 3)
    assert rep.dims() == [1, 1, 1, 1]
    assert [r.dim_cochains for r in rep.rows] == [1, 1, 1, 1]


def test_cohomology_e1_matches_frozen(e1_regular):
    rep = cohomology_dims(e1_regular, 2)
    frozen = json.loads(fixture_text("e1_cohomology.json"))
    assert rep.to_json() == frozen
    assert rep.degree0_intersected  # the documented degree-0 subtlety


def test_dd_zero_on_fixative_structures(e1_regular, e1_ctx, c2_ctx):
    sd = samples.build_e1_semidirect()
    cases = [e1_regular, regular_bimodule(sd), c2_ctx.bimodule]
    for b in cases:
        assert dd_zero_witness(b, range(0, 3)) is None


def test_delta_linearity(e1_regular):
    rng = random.Random(41)
    for n in (1, 2):
        f = random_equivariant(e1_regular, n, rng)
        g = random_equivariant(e1_regular, n, rng)
        lam = Rat(rng.randint(-3, 3))
        left = apply_delta(e1_regular, f.add(g.scale(lam)), check=False)
        right = apply_delta(e1_regular, f, check=False).add(
            apply_delta(e1_regular, g, check=False).scale(lam)
        )
        assert left == right


def test_degree_two_kernel_satisfies_pointwise_identities(e1, e1_regular):
    """Cross-check basis machinery against the displayed 2-cocycle identities."""
    dm2 = delta_matrix(e1_regular, 2)
    basis2 = equivariant_basis(e1_regular, 2)
    a = e1
    om = a.omega
    found = 0
    for vec in kernel_oracle(dm2):
        h = basis2.combine(vec)
        found += 1
        for x, y, z in product(range(om.size), repeat=3):
            yz, xy = om.mul(y, z), om.mul(x, y)
            for i, j, k in product(range(a.dim), repeat=3):
                t1 = e1_regular.act_left(
                    (x, yz), a.pmap[x].col(i), h.value((y, z), (j, k))
                )
                t2 = evaluate_oracle(h, (xy, z), [a.mul_basis((x, y), i, j), a.qmap[z].col(k)])
                t3 = evaluate_oracle(h, (x, yz), [a.pmap[x].col(i), a.mul_basis((y, z), j, k)])
                t4 = e1_regular.act_right(
                    (xy, z), h.value((x, y), (i, j)), a.qmap[z].col(k)
                )
                total = [t1[s] - t2[s] + t3[s] - t4[s] for s in range(a.dim)]
                assert all(v == 0 for v in total)
    assert found > 0


def test_is_cocycle_and_is_coboundary(e1_regular):
    rng = random.Random(55)
    z = Cochain.zero(2, 1, 2, 2)
    assert is_cocycle(e1_regular, z)
    pre = is_coboundary(e1_regular, z)
    assert pre is not None and pre.is_zero()
    g = random_equivariant(e1_regular, 1, rng)
    f = apply_delta(e1_regular, g, check=False)
    pre = is_coboundary(e1_regular, f)
    assert pre is not None
    assert apply_delta(e1_regular, pre, check=False) == f
    # degree-1 targets are solved against all of C^0
    h = apply_delta(e1_regular, Cochain(0, 1, 2, 2, [ONE, ZERO]), check=False)
    if is_equivariant(e1_regular, h):
        pre = is_coboundary(e1_regular, h)
        assert pre is not None


def test_is_coboundary_matches_the_dense_solve_oracle_on_named_inputs():
    """At degrees 1-3, is_coboundary (one sparse solve on the raw images of
    the C^{n-1} basis) returns, on seeded coboundaries and random members of
    C^n, the solve_oracle solution of the dense delta_matrix system in
    equivariant coordinates mapped through combine, or None when it has
    none.  Where degree-0 images leave C^1, delta_matrix(b, 0) is refused:
    there the degree-1 answer is checked against solve_oracle on the raw
    matrix of the term-by-term δ_0, and δ(preimage) = f."""
    cases = [regular_bimodule(a) for a in (samples.build_e0(), samples.build_e1(), samples.build_zero1())]
    cases += [regular_bimodule(samples.build_c2_example(v)) for v in (0, 1, 2)]
    cases += [regular_bimodule(samples.build_e1_semidirect()), samples.build_e1_bimodule(),
              samples.c2_rbf_context().star_bimodule()]
    rng = random.Random(1741)
    found, missed, leaving = 0, 0, 0
    for b in cases:
        shape = (b.base.omega.size, b.base.dim, b.dim_m)
        for n in (1, 2, 3):
            src = equivariant_basis(b, n - 1)
            if n == 1:  # unit vectors of M and the y with δ_0 y in C^1
                sources = [src.cochain(l) for l in range(src.dim())]
                sources += [Cochain(0, *shape, [y.get(k, 0) for k in range(b.dim_m)])
                            for y in cochain.degree0_preimages(b)]
            else:
                sources = [random_equivariant(b, n - 1, rng) for _ in range(3)]
            targets = [apply_delta(b, g, check=False) for g in sources]
            targets = [f for f in targets if is_equivariant(b, f)]
            targets += [random_equivariant(b, n, rng) for _ in range(3)]
            try:
                dense = delta_matrix(b, n - 1)
            except InternalCheckError:
                assert n == 1
                leaving += 1
                raw = Mat.from_cols([delta_direct_oracle(b, src.cochain(l)).coords for l in range(src.dim())])
                dense = None
            for f in targets:
                pre = is_coboundary(b, f)
                if dense is not None:
                    want = solve_oracle(dense, equivariant_basis(b, n).coords_of(f.coords))
                    assert pre == (None if want is None else src.combine(want)), (n, f.coords)
                else:
                    want = solve_oracle(raw, f.coords)
                    assert pre == (None if want is None else Cochain(0, *shape, want)), f.coords
                    assert pre is None or apply_delta(b, pre) == f
                found, missed = found + (pre is not None), missed + (pre is None)
    assert leaving >= 2 and found > 50 and missed > 50, (leaving, found, missed)


def test_random_pairs_dd_zero():
    rng = random.Random(77)
    for _ in range(8):
        a, b = random_valid_pair(rng)
        assert dd_zero_witness(b, range(0, 3)) is None


def test_dim_m_zero_everywhere_trivial(e1):
    b = zero_bimodule(e1, 0)
    for n in range(0, 3):
        assert equivariant_basis(b, n).dim() == 0
    rep = cohomology_dims(b, 2)
    assert rep.dims() == [0, 0, 0]


def test_degree_zero_soundness_predicate(e0, e1_regular):
    from oracles import degree0_sound

    assert degree0_sound(regular_bimodule(e0))
    assert degree0_sound(e1_regular)  # defect present but defined part killed


def test_degree_zero_composite_can_fail_on_valid_input():
    """The displayed degree-0 differential is not always part of the complex.

    On the alternating-parameter two-element-group example, the coboundary
    of a module element is a genuine 1-cochain that is NOT a 1-cocycle.
    The dimension report refuses to quotient by non-cocycles.
    """
    from oracles import degree0_sound

    a = samples.build_c2_example(2)
    b = regular_bimodule(a)
    assert not degree0_sound(b)
    op0 = delta_op(b, 0)
    op1 = delta_op(b, 1)
    basis1 = equivariant_basis(b, 1)
    witnessed = False
    for l in range(b.dim_m):
        img = op0.apply_dense([ONE if k == l else ZERO for k in range(b.dim_m)])
        try:
            basis1.coords_of(img)
        except InternalCheckError:
            continue
        if any(op1.apply_dense(img)):
            # confirm with the independent direct evaluator
            f1 = Cochain(1, a.omega.size, a.dim, b.dim_m, img)
            assert is_equivariant(b, f1)
            assert not apply_delta(b, f1).is_zero()
            witnessed = True
    assert witnessed
    assert dd_zero_witness(b, range(0, 3))[0] == 0
    with pytest.raises(InternalCheckError):
        cohomology_dims(b, 2)


def test_is_equivariant_matches_slotwise_oracle(e1_regular, c2_ctx):
    """Constraint rows agree with the slotwise evaluation on basis cochains,
    on their perturbations and on raw cochains with entries in (1/3)Z."""
    rng = random.Random(67)
    verdicts = set()
    for b in (e1_regular, c2_ctx.bimodule):
        for n in range(4):
            basis = equivariant_basis(b, n)
            for j in range(basis.dim()):
                f = basis.cochain(j)
                assert is_equivariant(b, f) and is_equivariant_oracle(b, f)
                f.coords[rng.randrange(len(f.coords))] += Rat(rng.choice((-1, 1)), 3)
                verdict = is_equivariant(b, f)
                assert verdict == is_equivariant_oracle(b, f), (n, j)
                verdicts.add(verdict)
            for _ in range(3):
                raw = Cochain.zero(n, b.base.omega.size, b.base.dim, b.dim_m)
                raw.coords = [Rat(rng.randint(-3, 3), 3) for _ in raw.coords]
                verdict = is_equivariant(b, raw)
                assert verdict == is_equivariant_oracle(b, raw), n
                verdicts.add(verdict)
    assert verdicts == {True, False}


def test_project_drops_the_end_columns_of_members_and_refuses_the_rest(e1_regular, c2_ctx):
    """cochain._project at degrees 0-2 of e1's and the c2 context's
    bimodules: the zero vector projects to {} (so a membership test reads
    ``is not None``); a random member of C^n projects to its entries off
    the end columns of C^n (at degree 0, which has none, to itself); a
    member plus a unit vector that the slotwise oracle finds outside C^n
    projects to None."""
    rng = random.Random(71)
    refused = 0
    for b in (e1_regular, c2_ctx.bimodule):
        om, d, m = b.base.omega.size, b.base.dim, b.dim_m
        for n in range(3):
            assert cochain._project(b, n, {}) == {}
            f = random_equivariant(b, n, rng)
            vec, ends = {i: v for i, v in enumerate(f.coords) if v}, end_columns(b, n)
            assert vec and bool(ends) == (n > 0)
            assert cochain._project(b, n, vec) == {i: v for i, v in vec.items() if i not in ends}
            for r in range(len(f.coords)):
                unit = Cochain(n, om, d, m, [ONE if i == r else ZERO for i in range(len(f.coords))])
                if not is_equivariant_oracle(b, unit):
                    assert cochain._project(b, n, {**vec, r: vec.get(r, ZERO) + 1}) is None, (n, r)
                    refused += 1
    assert refused


LADDER_TABLES = {
    # (cochains, cocycles, coboundaries, cohomology) per degree
    "c2_variant0": [(2, 0, 0, 0), (4, 1, 1, 0), (16, 7, 3, 4), (64, 25, 9, 16), (256, 103, 39, 64)],
    "semidirect": [
        (3, 1, 0, 1),
        (5, 2, 1, 1),
        (13, 7, 3, 4),
        (35, 19, 6, 13),
        (97, 56, 16, 40),
        (275, 162, 41, 121),
    ],
}


def test_ladder_tables_pinned_without_a_basis_past_max_degree():
    cases = (
        ("c2_variant0", samples.build_c2_example(0)),
        ("semidirect", samples.build_e1_semidirect()),
    )
    for name, a in cases:
        want = LADDER_TABLES[name]
        b = regular_bimodule(a)
        rep = cohomology_dims(b, len(want) - 1)
        got = [(r.dim_cochains, r.dim_cocycles, r.dim_coboundaries, r.dim_cohomology) for r in rep.rows]
        assert got == want, name
        assert rep.degree0_intersected  # both take the degree-0 intersection
        assert ("equivariant_basis", len(want) - 1) in b._cache
        assert ("equivariant_basis", len(want)) not in b._cache, name


def test_cohomology_dims_still_verifies_coboundary_images():
    """A shared block of δ_2 corrupted so that some images leave C^3 is
    refused, and the message names the degree and the lowest basis element
    whose image leaves, found here by scanning the basis through delta_op,
    which holds the same corrupted block.  The block is factored, so the
    corruption is one argument-level entry of its part: column (argument,
    index l of M) of one source argument gains a one at row ``row + l``,
    where ``row`` is the argument row of ``outside``, and every other column
    is unchanged."""
    a = samples.build_c2_example(0)
    b = regular_bimodule(a)
    n, m = 2, b.dim_m
    basis = equivariant_basis(b, n)
    op = delta_op(b, n)
    owners: dict = {}  # pair key -> source tuples, in order
    for s, faces in enumerate(op.faces):
        for _, key in faces:
            owners.setdefault(key, []).append(s)
    # a key shared by several pairs whose first source is not tuple 0
    key, sources = next((k, v) for k, v in owners.items() if len(v) > 1 and v[0] > 0)
    width = a.dim ** (n + 1) * b.dim_m
    t = a.omega.tuples(n + 1).index(list(blocks.pair_keys(b, n)[1].values())[key])

    def unit(r):
        f = Cochain.zero(n + 1, a.omega.size, a.dim, b.dim_m)
        f.coords[t * width + r] = ONE
        return f

    outside = next(r for r in range(width) if not is_equivariant(b, unit(r)))
    column = max(basis.vectors[sources[0]][0])  # nonzero in one kernel vector of the source only
    intact = block_columns_oracle(op, key)
    part, actions = op.blocks[key]
    part = list(part)  # the part may be shared with other keys, which stay intact
    arg = column // m
    row = outside - outside % m
    part[arg] = part[arg] + [(row, 1)]
    op.blocks[key] = (part, actions)
    corrupted = block_columns_oracle(op, key)
    changed = [c for c in range(len(intact)) if corrupted[c] != intact[c]]
    assert changed == [arg * m + l for l in range(m)] and column in changed
    for l in range(m):
        want = dict(intact[arg * m + l])
        want[row + l] = want.get(row + l, 0) + 1
        assert corrupted[arg * m + l] == {r: v for r, v in want.items() if v}
    leaving = [j for j in range(basis.dim())
               if not is_equivariant(b, Cochain(n + 1, a.omega.size, a.dim, b.dim_m,
                                                op.apply_dense(basis.cochain(j).coords)))]
    assert len(leaving) > 1 and leaving[0] > 0
    with pytest.raises(InternalCheckError, match=f"degree-2 basis element {leaving[0]} left the equivariant"):
        cohomology_dims(b, 3)


def test_degree0_domain_spans_the_intersection(e1_regular):
    """_degree0_domain: on inputs whose degree-0 images leave C^1 the ys
    are flagged, their images span im(δ_0) ∩ C^1 (rank dim U + dim V -
    dim(U + V), dense) and lie in C^1, and rank(ys) is the dense count
    dim{y : δ_0 y in C^1} = dim M + dim C^1 - rank[C^1 basis | δ_0]; on e0
    every image lies in C^1 and the ys are the unit vectors of M."""
    cases = [e1_regular] + [regular_bimodule(samples.build_c2_example(v)) for v in (0, 1, 2)]
    e0 = regular_bimodule(samples.build_e0())
    for b in cases + [e0]:
        shape = (b.base.omega.size, b.base.dim, b.dim_m)
        op0 = delta_op(b, 0)
        images = [op0.apply_dense([ONE if k == l else ZERO for k in range(b.dim_m)]) for l in range(b.dim_m)]
        ys, intersected = cochain._degree0_domain(b)
        assert intersected == (not all(is_equivariant(b, Cochain(1, *shape, g)) for g in images))
        assert intersected == (b is not e0)
        if not intersected:
            assert ys == [{l: ONE} for l in range(b.dim_m)]
        basis1 = equivariant_basis(b, 1)
        c1 = [basis1.cochain(j).coords for j in range(basis1.dim())]
        gens = [op0.apply_dense([y.get(k, 0) for k in range(b.dim_m)]) for y in ys]
        want = rank(Mat.from_cols(images)) + len(c1) - rank(Mat.from_cols(images + c1))
        assert (rank(Mat.from_cols(gens)) if gens else 0) == want
        for g in gens:
            assert is_equivariant(b, Cochain(1, *shape, g))
        assert sparse_rank(ys) == b.dim_m + len(c1) - rank(Mat.from_cols(c1 + images))


def test_evaluation_on_a_dimension_zero_algebra_is_empty():
    """Degrees 1 and 2 over the zero space: evaluation and the insertion
    oracles give the empty vector instead of dividing by the dimension."""
    a0 = zero_algebra(trivial_monoid(), 0)
    g = Cochain.zero(1, 1, 0, 0)
    for n in (1, 2):
        f = Cochain.zero(n, 1, 0, 0)
        assert evaluate_oracle(f, (0,) * n, [[]] * n) == []
        assert evaluate_oracle(Cochain.zero(n, 1, 0, 2), (0,) * n, [[]] * n) == [ZERO, ZERO]
        for i in range(1, n + 1):
            assert circ_i_oracle(a0, f, g, i) == f
        assert circ_full_oracle(a0, f, [g] * n) == f


class _Formal(dict):
    """A formal linear combination {raw index j: coefficient} of raw basis
    cochains.  The oracle is linear in its cochain, so on the cochain whose
    coordinate j is the symbol {j: 1} it returns, at output coordinate i,
    row i of its operator: every column of the oracle in one call."""

    def __add__(self, other):
        if not isinstance(other, _Formal):
            if other:
                raise TypeError("a formal combination plus a nonzero scalar")
            return self
        out = _Formal(self)
        for j, v in other.items():
            w = out.get(j, 0) + v
            if w:
                out[j] = w
            else:
                del out[j]
        return out

    __radd__ = __add__

    def __mul__(self, c):  # combinations are never changed in place, so c = 1 may return self
        if c == 1:
            return self
        return _Formal({j: c * v for j, v in self.items()}) if c else _Formal()

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other


def _delta_columns(b, n) -> list:
    """Every column of delta_op at degree n, as {row: coeff} dicts: the
    image of each raw unit vector."""
    op = delta_op(b, n)
    return [op.image({c: ONE}) for c in range(op.ncols)]


def _oracle_columns(b, n) -> list:
    """Every column of delta_direct_oracle at degree n, as {row: coeff}
    dicts, from one formal call, which evaluates the generic cochain once
    per distinct (merged tuple, argument vectors) of its middle terms
    (formal combinations are never changed in place, so they may be shared)."""
    om, d, m = b.base.omega, b.base.dim, b.dim_m
    ncols = om.size**n * d**n * m
    generic = Cochain(n, om.size, d, m, [_Formal({j: 1}) for j in range(ncols)])
    memo: dict = {}

    def evaluate(f, om_tuple, vectors):
        key = (om_tuple, *map(tuple, vectors))
        hit = memo.get(key)
        if hit is None:
            hit = memo[key] = evaluate_oracle(f, om_tuple, vectors)
        return hit

    columns = [{} for _ in range(ncols)]
    for i, entry in enumerate(delta_direct_oracle(b, generic, evaluate).coords):
        assert isinstance(entry, _Formal) or entry == 0
        for j, v in (entry.items() if entry else ()):
            columns[j][i] = v
    return columns


_SMALL = [0, 0, 0, 1, -1, 2, 3]
_NON_UNIT = [2, -1, Rat(1, 3)]
_THIRDS = [0, 1, -1, 2, Rat(1, 3), Rat(-2, 3)]


@st.composite
def _twisted_carriers(draw):
    """Unvalidated carriers over a two-element monoid whose twists are
    neither identities nor diagonal: column 0 of every twist has two
    nonzeros and a non-unit diagonal entry, and p differs from q.  Shapes
    (d, m) with d*m <= 4 keep the formal oracle calls cheap."""
    omega = draw(st.sampled_from([cyclic_monoid(2), boolean_monoid()]))
    d, m = draw(st.sampled_from([(2, 2), (2, 1), (2, 2), (3, 1)]))

    def flat(size, scalars=_SMALL):
        return draw(st.lists(st.sampled_from(scalars), min_size=size, max_size=size))

    def tensor(d1, d2, d3):
        v = flat(d1 * d2 * d3)
        return [[v[(i * d2 + j) * d3 : (i * d2 + j + 1) * d3] for j in range(d2)] for i in range(d1)]

    def twist(k):
        if k == 1:
            return Mat(1, 1, [draw(st.sampled_from(_NON_UNIT))])
        entries = flat(k * k)
        entries[0] = draw(st.sampled_from(_NON_UNIT))
        entries[k] = draw(st.sampled_from(_NON_UNIT + [1]))
        return Mat(k, k, entries)

    pairs = [(x, y) for x in omega.elements() for y in omega.elements()]
    pmap = {x: twist(d) for x in omega.elements()}
    qmap = {x: twist(d) for x in omega.elements()}
    assume(pmap != qmap)
    a = OmegaAlgebra(omega, d, {key: tensor(d, d, d) for key in pairs}, pmap, qmap)
    left = {key: tensor(d, m, m) for key in pairs}
    right = {key: tensor(m, d, m) for key in pairs}
    if m == d:  # the algebra's own twists, so C^1 holds the identity family
        b = OmegaBimodule(a, m, left, right, pmap, qmap)
    else:
        b = OmegaBimodule(a, m, left, right, *[{x: twist(m) for x in omega.elements()} for _ in "pq"])
    raw = [flat(omega.size**n * d**n * m, scalars=_THIRDS) for n in (1, 2, 3)]
    return b, raw


@settings(
    derandomize=True,
    max_examples=30,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(_twisted_carriers())
def test_delta_op_and_equivariance_match_oracles_on_twisted_carriers(case):
    """Every column of delta_op against delta_direct_oracle on its raw basis
    cochain (all columns in one formal oracle call) at degrees 0-2, and at
    degree 3 for d = 2, m = 1 (larger degree-3 oracles take 0.1-0.5 s each);
    is_equivariant against is_equivariant_oracle on the identity family when
    M carries the algebra's twists, on raw 1/3-integral cochains of degrees
    1-3, and at degrees 1-3 on an element of C^n and on that element
    perturbed."""
    b, raw = case
    om, d, m = b.base.omega, b.base.dim, b.dim_m
    for n in range(4 if (d, m) == (2, 1) else 3):
        assert _delta_columns(b, n) == _oracle_columns(b, n)
    if m == d:
        assert is_equivariant(b, identity_cochain(b.base)) and is_equivariant_oracle(b, identity_cochain(b.base))
    for n, coords in enumerate(raw, start=1):
        f = Cochain(n, om.size, d, m, coords)
        assert is_equivariant(b, f) == is_equivariant_oracle(b, f)
        basis = equivariant_basis(b, n)
        g = basis.combine([Rat(1 + j % 3, 3) for j in range(basis.dim())])
        assert is_equivariant(b, g) and is_equivariant_oracle(b, g)
        g.coords[-1] += Rat(1, 3)
        assert is_equivariant(b, g) == is_equivariant_oracle(b, g)


_POOL_DIAGONAL = [1, -1, 2, Rat(1, 2)]


@st.composite
def _pooled_carriers(draw):
    """Carriers whose twists come from a pool of two (p, q) pairs for A and
    two for M, so that twist signatures repeat across monoid tuples.  The
    second pair of each pool differs from the first in one entry of p and one
    of q.  The pattern fixes what varies across the monoid:

    * ``q_only`` -- A and M keep p = identity everywhere; their q differs
      between the unit and the other elements;
    * ``module_only`` -- A keeps one (p, q) everywhere; M's pair differs
      between the unit and the other elements, so tuples with equal algebra
      twists meet different module twists at their products;
    * ``pooled`` -- each element draws A's pair and M's pair from the pools.

    A ``valid`` carrier has zero product and actions and diagonal twists, a
    valid pair for ``cohomology_dims``; the others have random tensors and
    non-diagonal twists.  Shapes over the three-element monoid stay at
    d * m = 2 to keep the oracles cheap.  Also returns raw 1/3-integral
    cochains of degrees 1-3 and one coordinate per degree to perturb."""
    omega = draw(st.sampled_from([cyclic_monoid(2), boolean_monoid(), cyclic_monoid(3)]))
    shapes = [(2, 1), (1, 2)] if omega.size == 3 else [(2, 1), (2, 2), (1, 2), (3, 1)]
    d, m = draw(st.sampled_from(shapes))
    valid = draw(st.booleans())
    pattern = draw(st.sampled_from(["q_only", "module_only", "pooled"]))

    def flat(size, scalars=_SMALL):
        return draw(st.lists(st.sampled_from(scalars), min_size=size, max_size=size))

    def tensor(d1, d2, d3):
        if valid:
            return [[[ZERO] * d3 for _ in range(d2)] for _ in range(d1)]
        v = flat(d1 * d2 * d3)
        return [[v[(i * d2 + j) * d3 : (i * d2 + j + 1) * d3] for j in range(d2)] for i in range(d1)]

    def twist(k):
        if valid:
            diagonal = flat(k, _POOL_DIAGONAL)
            return Mat(k, k, [diagonal[i] if i == j else ZERO for i in range(k) for j in range(k)])
        entries = flat(k * k)
        entries[0] = draw(st.sampled_from(_NON_UNIT))
        return Mat(k, k, entries)

    def variant(mat):  # the same map but for entry (0, 0)
        scalars = _POOL_DIAGONAL if valid else _NON_UNIT
        entries = list(mat.entries)
        entries[0] = draw(st.sampled_from([v for v in scalars if v != entries[0]]))
        return Mat(mat.rows, mat.cols, entries)

    def pool(k):
        p, q = twist(k), twist(k)
        return [(p, q), (variant(p), variant(q))]

    alg_pool, mod_pool = pool(d), pool(m)
    elements = omega.elements()
    if pattern == "q_only":  # p = identity leaves the kernel to q alone
        alg = {x: (Mat.identity(d), alg_pool[x != omega.unit][1]) for x in elements}
        mod = {x: (Mat.identity(m), mod_pool[x != omega.unit][1]) for x in elements}
    elif pattern == "module_only":
        alg = {x: alg_pool[0] for x in elements}
        mod = {x: mod_pool[x != omega.unit] for x in elements}
    else:
        alg = {x: alg_pool[draw(st.integers(0, 1))] for x in elements}
        mod = {x: mod_pool[draw(st.integers(0, 1))] for x in elements}
    pairs = [(x, y) for x in elements for y in elements]
    product = {key: tensor(d, d, d) for key in pairs}
    a = OmegaAlgebra(omega, d, product, {x: alg[x][0] for x in elements}, {x: alg[x][1] for x in elements})
    left = {key: tensor(d, m, m) for key in pairs}
    right = {key: tensor(m, d, m) for key in pairs}
    b = OmegaBimodule(a, m, left, right, {x: mod[x][0] for x in elements}, {x: mod[x][1] for x in elements})
    sizes = [omega.size**n * d**n * m for n in (1, 2, 3)]
    raw = [flat(size, scalars=_THIRDS) for size in sizes]
    pokes = [draw(st.integers(0, size - 1)) for size in sizes]
    return b, raw, pokes, valid


def _dims_from_oracles(b, max_degree):
    """(cochains, cocycles, rank of δ) per degree, from the per-tuple oracle
    basis, the term-by-term coboundary and dense Gauss-Jordan ranks."""
    om, d, m = b.base.omega, b.base.dim, b.dim_m
    out = []
    for k in range(max_degree + 1):
        size = om.size**k * d**k * m
        if k == 0:
            cochains = [Cochain(0, om.size, d, m, [ONE if i == j else ZERO for i in range(m)]) for j in range(m)]
        else:
            cochains = []
            for t, vectors in enumerate(equivariant_basis_oracle(b, k)[0]):
                for vec in vectors:
                    f = Cochain.zero(k, om.size, d, m)
                    for c, v in vec.items():
                        f.coords[t * d**k * m + c] = v
                    cochains.append(f)
        images = [delta_direct_oracle(b, f).coords for f in cochains]
        r = len(gauss_jordan_oracle(images, size * om.size * d)[1]) if images else 0
        out.append((len(cochains), len(cochains) - r, r))
    return out


def _assert_table_matches_oracles(b, max_degree):
    rep = cohomology_dims(b, max_degree)
    want = _dims_from_oracles(b, max_degree)
    assert [(r.dim_cochains, r.dim_cocycles) for r in rep.rows] == [w[:2] for w in want]
    first = 1 if not rep.degree0_intersected else 2
    assert [r.dim_coboundaries for r in rep.rows[first:]] == [w[2] for w in want[first - 1 : -1]]


@settings(
    derandomize=True,
    max_examples=30,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(_pooled_carriers())
def test_twist_signatures_match_per_tuple_oracles_on_pooled_carriers(case):
    """Kernels and constraint rows shared per twist signature agree with the
    per-tuple oracles: at degrees 1-3 (1-2 when d * m > 2) the basis
    (vectors and free columns of every tuple) equals equivariant_basis_oracle, and is_equivariant equals
    is_equivariant_oracle on a raw cochain from cold caches, on an element of
    C^n and on that element perturbed at one drawn coordinate; on valid
    carriers, the cohomology table to degree 2 matches the oracle ranks."""
    b, raw, pokes, valid = case
    om, d, m = b.base.omega, b.base.dim, b.dim_m
    top = 3 if d * m <= 2 else 2  # dense rational oracles on 16-27 columns per tuple take seconds
    for n, (coords, poke) in enumerate(zip(raw[:top], pokes), start=1):
        f = Cochain(n, om.size, d, m, coords)
        assert is_equivariant(b, f) == is_equivariant_oracle(b, f)
        basis = equivariant_basis(b, n)
        assert (basis.vectors, _frees(basis)) == equivariant_basis_oracle(b, n)
        g = basis.combine([Rat(1 + j % 3, 3) for j in range(basis.dim())])
        assert is_equivariant(b, g) and is_equivariant_oracle(b, g)
        g.coords[poke] += Rat(1, 3)
        assert is_equivariant(b, g) == is_equivariant_oracle(b, g)
    if valid:
        assert validate_bimodule(b) is None
        _assert_table_matches_oracles(b, 2)


def test_twist_signatures_on_named_inputs():
    """c2 variant 0 and the c2 Rota-Baxter context carry one (p, q) at both
    monoid elements; c2 variant 1 shares q but not p, variant 2 shares p
    but not q.  Their bases, and those of e1, the e1 semidirect product and
    seeded random valid pairs (with the identity map pairs skipped and the
    rows sorted by last column), match the per-tuple oracle to degree 3, and
    the tables of the valid, unrefused ones match the oracle ranks to
    degree 2."""
    ctx = samples.c2_rbf_context()
    shared = [regular_bimodule(samples.build_c2_example(0)), ctx.bimodule, ctx.star_bimodule()]
    one_shared = [regular_bimodule(samples.build_c2_example(v)) for v in (1, 2)]
    rng = random.Random(4243)
    others = [regular_bimodule(samples.build_e1()), regular_bimodule(samples.build_e1_semidirect())]
    others += [random_valid_pair(rng, max_dim_m=1)[1] for _ in range(6)]
    for b in shared + one_shared + others:
        for n in (1, 2, 3):
            basis = equivariant_basis(b, n)
            assert (basis.vectors, _frees(basis)) == equivariant_basis_oracle(b, n)
    for b in shared:
        _assert_table_matches_oracles(b, 2)


def test_constraint_rows_built_once_per_twist_signature(monkeypatch):
    """The 16 degree-4 tuples of c2 variant 0 share one twist signature: the
    basis and the membership test build one constraint system between them,
    and every tuple reuses one kernel."""
    b = regular_bimodule(samples.build_c2_example(0))
    built = []
    original = cochain._constraint_system

    def counting(bb, n, t):
        if ("constraints", cochain._signatures(bb, n)[t]) not in bb._cache:
            built.append((n, t))
        return original(bb, n, t)

    monkeypatch.setattr(cochain, "_constraint_system", counting)
    basis = equivariant_basis(b, 4)
    assert len(basis.vectors) == 16 and all(v is basis.vectors[0] for v in basis.vectors)
    f = random_equivariant(b, 4, random.Random(11))
    bad = Cochain(4, f.omega_size, f.dim_in, f.dim_out, list(f.coords))
    bad.coords[-1] += Rat(1, 3)
    assert is_equivariant(b, f) and not is_equivariant(b, bad)
    assert len(built) == 1


def _has_zero_row(b) -> bool:
    """Does some structure map of M have a zero row?"""
    return any(not any(mat.row(k)) for maps in (b.pmap, b.qmap) for mat in maps.values()
               for k in range(mat.rows))


def _oracle_system(b, om_tuple) -> list:
    """The rows a tuple's constraint system keeps, from constraint_rows_oracle:
    its nonzero rows in its order (map pair, argument tuple, output index k),
    less each row at a zero row k of M's map at the product that repeats an
    earlier row of the same map pair at k, stably sorted by largest column,
    descending."""
    a, m = b.base, b.dim_m
    width, prod = a.dim ** len(om_tuple) * m, a.omega.product_of(om_tuple)
    kept, seen = [], set()
    for i, row in enumerate(constraint_rows_oracle(b, om_tuple)):
        pair, k = i // width, i % m
        r = {c: v for c, v in enumerate(row) if v}
        key = (pair, k, frozenset(r.items()))
        if r and not (key in seen and not any((b.pmap, b.qmap)[pair][prod].row(k))):
            kept.append(r)
        seen.add(key)
    return sorted(kept, key=max, reverse=True)


def _assert_constraint_systems_match_oracle(b, n) -> tuple:
    """Each degree-n tuple's (rows, columns, ends): the rows are
    :func:`_oracle_system`'s, in its order, with the oracle's distinct
    nonzero rows as their set; the columns are exactly their transpose
    (each column's (row, coeff) pairs in row order); the ends are their
    largest columns.  Returns (rows built, rows the oracle builds, whether
    every tuple's rows are pairwise distinct)."""
    built = oracle_built = 0
    distinct = True
    for t, om_tuple in enumerate(b.base.omega.tuples(n)):
        rows, columns, ends = cochain._constraint_system(b, n, t)
        full = [r for row in constraint_rows_oracle(b, om_tuple) if (r := {c: v for c, v in enumerate(row) if v})]
        assert rows == _oracle_system(b, om_tuple), (n, om_tuple)
        assert {frozenset(r.items()) for r in rows} == {frozenset(r.items()) for r in full}
        distinct &= len({frozenset(r.items()) for r in rows}) == len(rows)
        transpose: dict = {}
        for i, row in enumerate(rows):
            for c, v in row.items():
                transpose.setdefault(c, []).append((i, v))
        assert columns == transpose, (n, om_tuple)
        assert ends == {max(r) for r in rows} == {max(r) for r in full}, (n, om_tuple)
        built, oracle_built = built + len(rows), oracle_built + len(full)
    return built, oracle_built, distinct


def _system_degrees(b) -> range:
    """Degrees 1-3, or 1-2 when a degree-3 block has more than 54 columns."""
    return range(1, 4 if b.base.dim**3 * b.dim_m <= 54 else 3)


def test_zero_row_constraints_are_built_once_and_keep_the_row_space():
    """At a zero row k of M's map at the product, the constraint row of an
    argument is minus its slot column at k, so arguments with equal columns
    share one row, built once.  On c2 variants 0-2, the e1 semidirect
    product, e1 and eight seeded random valid pairs (at least two of which
    have a zero row in a module map, which the draw is checked to contain)
    at :func:`_system_degrees`, every tuple's system matches the oracle
    (:func:`_assert_constraint_systems_match_oracle`); on the named inputs
    its rows are the oracle's distinct nonzero rows in order, while one
    draw repeats a q row of its p rows at a live output index, which is
    kept.  On the named inputs and the draws with a zero row, fewer rows are
    built in all than the oracle builds; the basis equals
    equivariant_basis_oracle; is_equivariant equals is_equivariant_oracle
    on every basis element and on seeded raw vectors, before and after a
    member is perturbed."""
    named = [regular_bimodule(samples.build_c2_example(v)) for v in (0, 1, 2)]
    named += [regular_bimodule(samples.build_e1_semidirect()), regular_bimodule(samples.build_e1())]
    rng = random.Random(3301)
    drawn = [random_valid_pair(rng)[1] for _ in range(8)]
    singular = [b for b in drawn if _has_zero_row(b)]
    assert all(map(_has_zero_row, named)) and len(singular) >= 2
    built = oracle_built = 0
    verdicts = set()
    for b in named + singular:
        om, d, m = b.base.omega, b.base.dim, b.dim_m
        for n in _system_degrees(b):
            rows, full, distinct = _assert_constraint_systems_match_oracle(b, n)
            assert distinct or b not in named, n
            built, oracle_built = built + rows, oracle_built + full
            basis = equivariant_basis(b, n)
            assert (basis.vectors, _frees(basis)) == equivariant_basis_oracle(b, n)
            for j in range(basis.dim()):
                f = basis.cochain(j)
                assert is_equivariant(b, f) and is_equivariant_oracle(b, f), (n, j)
            g = basis.combine([Rat(rng.randint(-2, 2)) for _ in range(basis.dim())])
            raws = [Cochain(n, om.size, d, m, [Rat(rng.randint(-1, 1)) for _ in g.coords]) for _ in range(3)]
            g.coords[rng.randrange(len(g.coords))] += ONE
            for f in raws + [g]:
                verdict = is_equivariant(b, f)
                assert verdict == is_equivariant_oracle(b, f), n
                verdicts.add(verdict)
    assert built < oracle_built and verdicts == {True, False}
    repeats = [b for b in drawn if not all(_assert_constraint_systems_match_oracle(b, n)[2] for n in _system_degrees(b))]
    assert len(repeats) == 1


@settings(derandomize=True, max_examples=15, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 2**32 - 1))
def test_dd_zero_from_degree_one_on_random_pairs(seed):
    """δ_{n+1} ∘ δ_n = 0 on C^n for n = 1, 2, 3 on a seeded random valid pair."""
    a, b = random_valid_pair(random.Random(seed))
    assert dd_zero_witness(b, (1, 2, 3)) is None


def test_is_equivariant_refuses_a_cochain_of_another_shape(e1_regular):
    """A cochain whose dimensions or length do not fit C^n(A, M) is refused,
    as apply_delta refuses it, instead of being judged on the rows that happen
    to line up (False, False, and an IndexError on the last one)."""
    for f in (
        Cochain(1, 1, 3, 3, [1] * 9),
        Cochain(1, 1, 4, 2, [1] + [0] * 7),
        Cochain(1, 1, 4, 2, [0] * 7 + [1]),
    ):
        with pytest.raises(MalformedInputError, match="does not match"):
            is_equivariant(e1_regular, f)


def _assert_basis_images_match_delta_op(b, n) -> list:
    """The basis images of the tables equal delta_op on every basis cochain
    of C^n: raw and unverified at n = 0, and for n >= 1 those images without
    the end columns of C^{n+1}, which is also what cochain._project makes of
    them.  For n >= 1 they are refused exactly when some image leaves
    C^{n+1} (is_equivariant on the dense image), naming the lowest one.
    Returns the basis elements whose images leave."""
    om, d, m = b.base.omega, b.base.dim, b.dim_m
    basis, op = equivariant_basis(b, n), delta_op(b, n)
    want = [op.image(basis.cochain_sparse(j)) for j in range(basis.dim())]
    leaving = [j for j in range(basis.dim())
               if not is_equivariant(b, Cochain(n + 1, om.size, d, m, op.apply_dense(basis.cochain(j).coords)))]
    if n == 0:
        assert list(cochain._basis_images(b, n)) == want
    elif leaving:
        with pytest.raises(InternalCheckError, match=f"degree-{n} basis element {leaving[0]} left"):
            list(cochain._basis_images(b, n))
    else:
        ends = end_columns(b, n + 1)
        projected = [{i: v for i, v in image.items() if i not in ends} for image in want]
        assert list(cochain._basis_images(b, n)) == projected
        assert [cochain._project(b, n + 1, image) for image in want] == projected
    return leaving


def _degree_zero_cases() -> list:
    """Regular bimodules of c2 variants 0-2, e0, e1, zero1 and the e1
    semidirect product, the e1 bimodule and the c2 star bimodule."""
    cases = [regular_bimodule(samples.build_c2_example(v)) for v in range(3)]
    cases += [regular_bimodule(build()) for build in (
        samples.build_e0, samples.build_e1, samples.build_zero1, samples.build_e1_semidirect)]
    return cases + [samples.build_e1_bimodule(), samples.c2_rbf_context().star_bimodule()]


def test_degree_zero_has_one_twist_signature_and_no_constraint_rows():
    """C^0 has one tuple, the empty one, whose product is the unit: its
    twist signature is M's pmap and qmap classes at the unit, and its
    constraint system has no rows (C^0 = M), also where M's maps at the
    unit are not the identity (the c2 variants, e1, the semidirect product
    and the star bimodule)."""
    twisted = 0
    for b in _degree_zero_cases():
        unit, classes = b.base.omega.unit, blocks.structure_classes(b)
        assert cochain._signatures(b, 0) == [(classes[5][unit], classes[6][unit])]
        assert cochain._constraint_system(b, 0, 0) == ([], {}, set())
        twisted += not (b.pmap[unit].is_identity() and b.qmap[unit].is_identity())
    assert twisted == 6


def test_degree_zero_basis_is_m_on_wide_draws():
    """On wide draws, whose maps are not the identity at the unit, the basis
    of C^0 is the unit vectors of M, and every degree-0 cochain, with
    integer or rational coordinates, is equivariant: nothing constrains C^0."""
    rng = random.Random(4141)
    for _ in range(12):
        a, b = random_wide_pair(rng)
        om, unit, m = a.omega, a.omega.unit, b.dim_m
        assert not (b.pmap[unit].is_identity() and b.qmap[unit].is_identity())
        basis = equivariant_basis(b, 0)
        assert basis.vectors == [[{k: ONE} for k in range(m)]] and basis.offsets == [0, m]
        for _ in range(3):
            f = Cochain(0, om.size, a.dim, m, [Rat(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(m)])
            assert is_equivariant(b, f) and basis.coords_of(f.coords) == f.coords


def test_degree_zero_basis_images_are_raw_and_refused_where_they_leave_c1():
    """The degree-0 images of the tables are block products of δ_0's blocks
    and equal delta_op's on the basis of C^0 = M, raw and unverified, also
    where one leaves C^1; delta_matrix(b, 0) refuses it, naming the lowest
    basis element whose image leaves.  On the e1 semidirect product and the
    c2 context's bimodule, element 1 leaves."""
    for b in (regular_bimodule(samples.build_e1_semidirect()), samples.c2_rbf_context().bimodule):
        assert _assert_basis_images_match_delta_op(b, 0) == [1]
        with pytest.raises(InternalCheckError, match="degree-0 basis element 1 left the equivariant subspace"):
            delta_matrix(b, 0)


def _assert_verdicts_match_is_equivariant(b, n) -> dict:
    """Each membership verdict of δ_n, shared per (output signature, pair
    key, source signature) in one verdict dict, as in one call of
    ``cochain._basis_images``, equals is_equivariant on the product placed
    at that face's own output block, face by face.  Returns that dict."""
    om, d, m = b.base.omega, b.base.dim, b.dim_m
    basis, op = equivariant_basis(b, n), delta_op(b, n)
    verdicts: dict = {}
    width = d ** (n + 1) * m
    for s, faces in enumerate(op.faces):
        vectors = basis.vectors[s]
        if not vectors:
            continue
        sig = cochain._signatures(b, n)[s]
        for t, key in faces:
            columns = block_columns_oracle(op, key)
            products = []
            for vec in vectors:
                out: dict = {}
                for c, x in vec.items():
                    for r, v in columns[c].items():
                        out[r] = out.get(r, 0) + v * x
                products.append({r: v for r, v in out.items() if v})
            assert cochain._block_product(op.blocks[key], op.id_width, vectors) == products
            want = set()
            for k, product in enumerate(products):
                f = Cochain.zero(n + 1, om.size, d, m)
                for r, v in product.items():
                    f.coords[t * width + r] = v
                if not is_equivariant(b, f):
                    want.add(k)
            assert cochain._violations(b, verdicts, n + 1, t, key, sig, products)[0] == want, (n, s, t)
    return verdicts


def _sign_carrier():
    """An unvalidated carrier over Z/3 with d = m = 1: product, actions and
    A's twists all 1, and M's twists 1, 1, -1 at 0, 1, 2.  Face terms with
    equal pair keys and source signatures land in output blocks whose
    products 1 and 2 give different constraints."""
    omega = cyclic_monoid(3)
    one = [[[ONE]]]
    pairs = [(x, y) for x in omega.elements() for y in omega.elements()]
    ident = {x: Mat.identity(1) for x in omega.elements()}
    a = OmegaAlgebra(omega, 1, {key: one for key in pairs}, ident, dict(ident))
    signs = {x: Mat(1, 1, [-ONE if x == 2 else ONE]) for x in omega.elements()}
    return OmegaBimodule(a, 1, {key: one for key in pairs}, {key: one for key in pairs}, signs, dict(signs))


def test_membership_verdicts_are_per_output_signature():
    """On the sign carrier some (pair key, source signature) meets output
    blocks of different signatures with different verdicts; every verdict
    matches is_equivariant, and the images are refused at the lowest basis
    element that leaves C^{n+1}."""
    b, kept = _sign_carrier(), {}
    for n in (1, 2, 3):
        kept[n] = _assert_verdicts_match_is_equivariant(b, n)
        _assert_basis_images_match_delta_op(b, n)
        assert _delta_columns(b, n) == _oracle_columns(b, n)
    verdicts: dict = {}
    for (_, key, sig), (bad, _) in kept[2].items():
        verdicts.setdefault((key, sig), set()).add(frozenset(bad))
    assert any(len(v) > 1 for v in verdicts.values())


@settings(
    derandomize=True,
    max_examples=30,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(_pooled_carriers())
def test_coboundary_blocks_match_oracles_on_pooled_carriers(case):
    """δ assembled from blocks shared by pair key equals delta_direct_oracle
    column by column at degrees 1-3 (1-2 when d * m > 2), on carriers whose
    structure data repeat across monoid elements; the basis images of the
    tables equal delta_op on every basis cochain, and their membership
    verdicts match is_equivariant image by image."""
    b = case[0]
    for n in range(1, 4 if b.base.dim * b.dim_m <= 2 else 3):
        assert _delta_columns(b, n) == _oracle_columns(b, n)
        _assert_basis_images_match_delta_op(b, n)


@settings(
    derandomize=True,
    max_examples=30,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(_pooled_carriers())
def test_projection_off_end_columns_keeps_rank_on_pooled_carriers(case):
    """Dropping the end columns of C^n (the largest column of each of its
    constraint rows) is injective on C^n: at degrees 1-3 every block of the
    basis keeps full rank without them.  So where the images of δ_n lie in
    C^{n+1}, the projected images the tables rank have the rank of the raw
    ones, delta_op's on each basis cochain; where one leaves, the tables and
    delta_matrix refuse it alike."""
    b = case[0]
    for n in (1, 2, 3):
        basis, ends = equivariant_basis(b, n), end_columns(b, n)
        for t, vectors in enumerate(basis.vectors):
            base = t * basis.block_size
            assert sparse_rank([{c: v for c, v in vec.items() if base + c not in ends} for vec in vectors]) == len(
                vectors
            ), (n, t)
    for n in (1, 2):
        try:
            delta_matrix(b, n)
        except InternalCheckError as exc:
            with pytest.raises(InternalCheckError, match=str(exc)):
                list(cochain._basis_images(b, n))
            continue
        basis, op = equivariant_basis(b, n), delta_op(b, n)
        raw = [op.image(basis.cochain_sparse(j)) for j in range(basis.dim())]
        assert sparse_rank(cochain._basis_images(b, n)) == sparse_rank(raw), n


def test_projected_table_ranks_match_the_delta_matrix_route(e0, zero1):
    """The tables rank projected images; delta_matrix takes basis
    coordinates of the raw ones.  Both give rank δ_k at every degree k >= 1
    on c2 variant 0 (to degree 4), the e1 semidirect product (to 5), e1,
    e0, zero1, both bimodules of the c2 Rota-Baxter context and the first
    15 seeded random valid pairs with a nonzero module (to 3), and the
    tables' cocycles and coboundaries
    follow from those ranks; a pair refused at degree 0 is compared degree
    by degree."""
    ctx = samples.c2_rbf_context()
    cases = [(regular_bimodule(samples.build_c2_example(0)), 4), (regular_bimodule(samples.build_e1_semidirect()), 5)]
    cases += [(regular_bimodule(a), 3) for a in (samples.build_e1(), e0, zero1)]
    cases += [(ctx.bimodule, 3), (ctx.star_bimodule(), 3)]
    rng = random.Random(6151)
    pairs = [b for b in (random_valid_pair(rng)[1] for _ in range(40)) if b.dim_m][:15]
    cases += [(b, 3) for b in pairs]
    refused = 0
    for b, top in cases:
        try:
            rows = cohomology_dims(b, top).rows
        except InternalCheckError as exc:
            assert "degree-0" in str(exc)
            refused, rows = refused + 1, None
        ranks = [rank(delta_matrix(b, k)) for k in range(1, top + 1)]
        assert [sparse_rank(cochain._basis_images(b, k)) for k in range(1, top + 1)] == ranks
        if rows is not None:
            assert [r.dim_cochains - r.dim_cocycles for r in rows[1:]] == ranks
            assert [r.dim_coboundaries for r in rows[2:]] == ranks[:-1]
    assert len(pairs) == 15 and 0 < refused < 7


def test_coboundary_blocks_match_oracles_on_named_inputs():
    """c2 variants 0-2, the e1 semidirect product and the star bimodule of
    the c2 Rota-Baxter context: delta_op equals delta_direct_oracle column by
    column to degree 2, and the basis images equal delta_op at degrees 0-4."""
    cases = [regular_bimodule(samples.build_c2_example(v)) for v in range(3)]
    cases += [regular_bimodule(samples.build_e1_semidirect()), samples.c2_rbf_context().star_bimodule()]
    for b in cases:
        for n in (1, 2):
            assert _delta_columns(b, n) == _oracle_columns(b, n)
        for n in range(5):
            _assert_basis_images_match_delta_op(b, n)


def test_delta_op_matches_the_direct_oracle_on_wide_draws():
    """delta_op(b, n).apply_dense and .image equal delta_direct_oracle for
    n = 1-4, on every basis cochain of C^n and on three seeded raw vectors
    (24 random coordinates each) per degree, and the basis images of the
    tables (cochain._basis_images) equal it on the basis, projected, over
    40 wide draws (invertible, non-diagonal structure maps with p != q, not
    the identity at the unit; regular, zero and induced bimodules), zero
    bimodules of dimension 0 over two of their algebras, the named inputs
    (dim M = 1 on e0, zero1 and the e1 bimodule) and the star bimodule of
    the c2 Rota-Baxter context.  A wrong P prefix or Q suffix in a compiled
    block shows on the wide draws whose maps differ element by element, and
    not by a scalar.  The oracle's matrix is read from one formal call per
    degree (_oracle_columns), and each vector's oracle image is summed
    from its columns sparsely, in integers."""
    rng = random.Random(2929)
    cases = [random_wide_pair(rng)[1] for _ in range(40)]
    cases += [zero_bimodule(b.base, 0) for b in cases[:2]]
    cases += [regular_bimodule(a) for a in (samples.build_e0(), samples.build_zero1(), samples.build_e1())]
    cases += [regular_bimodule(samples.build_c2_example(v)) for v in range(3)]
    cases += [regular_bimodule(samples.build_e1_semidirect()), samples.build_e1_bimodule()]
    cases.append(samples.c2_rbf_context().star_bimodule())
    assert {0, 1} <= {b.dim_m for b in cases}
    for b in cases:
        for n in range(1, 5):
            op, columns, basis = delta_op(b, n), _oracle_columns(b, n), equivariant_basis(b, n)
            vectors = [basis.cochain_sparse(j) for j in range(basis.dim())]
            vectors += [{c: rng.choice((-2, -1, 1, 3)) for c in rng.sample(range(op.ncols), min(op.ncols, 24))}
                        for _ in range(3)]
            images = []
            for vec in vectors:
                # the oracle's image, summed sparsely in integers: vec scaled by the lcm of its denominators
                scale, sums, coords = lcm(*(x.denominator for x in vec.values())), {}, [ZERO] * op.ncols
                for c, x in vec.items():
                    coords[c] = x
                    x = int(x * scale)
                    for i, v in columns[c].items():
                        sums[i] = sums.get(i, 0) + v * x
                images.append({i: Rat(v, scale) for i, v in sums.items() if v})
                want = [ZERO] * op.nrows
                for i, v in images[-1].items():
                    want[i] = v
                assert op.apply_dense(coords) == want
                assert op.image(vec) == images[-1]
            ends = end_columns(b, n + 1)
            assert list(cochain._basis_images(b, n)) == [
                {i: v for i, v in image.items() if i not in ends} for image in images[: basis.dim()]]


def test_factored_blocks_share_one_part_per_tuple_of_middle_terms():
    """delta_op keeps each block of δ_n factored, (part, action terms),
    never expanded: pair keys with equal middle terms hold one part object
    and keys with different ones different objects, every part has d^n
    columns (one per source argument), and a block holds one action term
    per first or last face term of its key, one object per distinct term.
    On c2 variant 0 at degree 4 the 24 keys hold 13 parts: the 12 middle
    sums and the empty part of the 5 keys without a middle term."""
    rng = random.Random(3030)
    cases = [regular_bimodule(samples.build_c2_example(v)) for v in range(3)]
    cases += [regular_bimodule(samples.build_e1_semidirect()), samples.c2_rbf_context().star_bimodule()]
    cases += [random_wide_pair(rng)[1] for _ in range(6)]
    for b in cases:
        d = b.base.dim
        for n in range(1, 5):
            op, (_, reps) = delta_op(b, n), blocks.pair_keys(b, n)
            assert len(op.blocks) == len(reps) and op.id_width == b.dim_m
            parts, actions_of = {}, {}
            for key, (part, actions) in zip(reps, op.blocks):
                assert parts.setdefault(tuple(t for t in key if 0 < t[0] <= n), part) is part
                assert len(part) == d**n
                ends = [t for t in key if not 0 < t[0] <= n]
                assert len(actions) == len(ends)
                for term, action in zip(ends, actions):
                    assert actions_of.setdefault(term, action) is action
            assert len({id(part) for part in parts.values()}) == len(parts)
            assert len({id(action) for action in actions_of.values()}) == len(actions_of)
            if b is cases[0] and n == 4:
                assert len(reps) == 24 and len(parts) == 13 and sum(not middle for middle in parts) == 1


def test_coboundary_blocks_compiled_once_per_pair_key(monkeypatch):
    """On c2 variant 0 at degree 4, δ has 111 pairs (output tuple, source
    tuple) but 24 distinct pair keys, holding 60 face terms; 5 keys hold no
    middle term and the other 19 hold 12 distinct tuples of middle terms.
    The tables and delta_op together compile one block per key, in one
    pass, and sum each distinct tuple of middle terms once, in 27 slot
    steps shared between the tuples."""
    from cohomology_stages import counting_calls

    b = regular_bimodule(samples.build_c2_example(0))
    compiled, middles = [], []
    original, original_middle = blocks.compile_blocks, blocks._middle_part

    def counting(bb, n, reps):
        if n == 4:
            compiled.append(len(reps))
        return original(bb, n, reps)

    def counting_middle(middle, n, *args):
        if n == 4:
            middles.append(middle)
        return original_middle(middle, n, *args)

    monkeypatch.setattr(cochain, "compile_blocks", counting)
    monkeypatch.setattr(blocks, "_middle_part", counting_middle)
    cohomology_dims(b, 4)
    delta_op(b, 4)
    faces, reps = blocks.pair_keys(b, 4)
    numbers = [key for pairs in faces for _, key in pairs]
    assert len(numbers) == 111
    assert len(set(numbers)) == len(reps) == 24
    assert compiled == [24]
    assert sum(map(len, reps)) == 60
    parts = [tuple(term for term in key if 0 < term[0] <= 4) for key in reps]
    assert parts.count(()) == 5
    assert len(middles) == len(set(middles)) == len(set(parts) - {()}) == 12
    _, steps = counting_calls(blocks, "_slot_step", lambda: delta_op(regular_bimodule(b.base), 4))
    assert steps == 27


def test_block_products_taken_once_per_pair_key_and_source_signature(monkeypatch):
    """On c2 variant 0 (one twist signature per degree) the tables multiply
    a block of delta_op by a source kernel once per pair key: 7, 13, 18 and
    24 products at degrees 1-4, where degree 4 has 111 faces, and 2 at
    degree 0, one per block of δ_0.  Products and verdicts live for one
    call, so a second table takes the same 64 products again, and no public
    call leaves a per-degree result (block products, verdicts, a δ matrix)
    in either bimodule's cache.

    BlockOp.image takes no block product: each call of it makes one
    apply_dense call, and those made by the degree-0 checks are pinned
    apart.  Degree 0: the domain test reads δ_0 of M's 2 unit vectors (2),
    finds an image outside C^1 and solves for the preimages, reading those
    2 images again (2), and the checks read δ_0 of the one preimage (1): 5,
    of which a second table, on the cached domain, makes only the checks'
    1.  Degree 1: δ_1 of that image, 1."""
    b = regular_bimodule(samples.build_c2_example(0))
    tables, images, dense, inside = [], [], [], []
    original, original_image, original_dense = cochain._block_product, cochain.BlockOp.image, cochain.BlockOp.apply_dense

    def counting(block, id_width, vectors):
        (images if inside else tables).append(block)
        return original(block, id_width, vectors)

    def image(op, vec):
        inside.append(op)
        try:
            return original_image(op, vec)
        finally:
            inside.pop()

    def apply_dense(op, vec):
        if inside:
            dense.append(op)
        return original_dense(op, vec)

    def per_degree(calls):
        return [sum(any(block is own for own in delta_op(b, n).blocks) for block in calls) for n in range(5)]

    def per_op(calls):
        return [sum(op is delta_op(b, n) for op in calls) for n in range(5)]

    monkeypatch.setattr(cochain, "_block_product", counting)
    monkeypatch.setattr(cochain.BlockOp, "image", image)
    monkeypatch.setattr(cochain.BlockOp, "apply_dense", apply_dense)
    cohomology_dims(b, 4)
    assert per_degree(tables) == [2, 7, 13, 18, 24] and len(tables) == 64
    assert images == []
    assert per_op(dense) == [5, 1, 0, 0, 0] and len(dense) == 6
    assert [len(faces) for faces in delta_op(b, 0).faces + delta_op(b, 1).faces] == [2, 4, 3]
    assert sum(map(len, delta_op(b, 4).faces)) == 111
    first = tables[:]
    tables.clear()
    dense.clear()
    cohomology_dims(b, 4)
    assert len(tables) == 64 and all(again is block for again, block in zip(tables, first))
    assert images == []
    assert per_op(dense) == [1, 1, 0, 0, 0] and len(dense) == 2

    def per_degree_results(*bimodules):
        kinds = ("block_products", "verdicts", "delta_matrix")
        return [key for c in bimodules for key in c._cache if isinstance(key, tuple) and key[0] in kinds]

    assert per_degree_results(b) == []
    ctx = samples.c2_rbf_context()
    c, star = ctx.bimodule, ctx.star_bimodule()
    f = apply_delta(c, random_equivariant(c, 2, random.Random(5)))
    zero = rbf.combined_from_coords(ctx, 2, [ZERO] * rbf.combined_dim(ctx, 2))
    public = (
        lambda: cohomology_dims(c, 3), lambda: cohomology_dims(star, 3), lambda: rbf.rbfa_cohomology_dims(ctx, 3),
        lambda: rbf.chain_map_check(ctx, 3) is None, lambda: rbf.combined_kernel(ctx, 2),
        lambda: rbf.solve_combined(ctx, 1, zero) is not None, lambda: is_coboundary(c, f) is not None,
        lambda: delta_matrix(c, 2), lambda: delta_matrix(star, 1),
    )
    for k, call in enumerate(public):
        assert call(), k
        assert per_degree_results(c, star) == [], k


def test_table_images_read_the_delta_op_blocks():
    """For n >= 1 delta_op holds one block per pair key of blocks.pair_keys,
    and the basis images of the tables multiply that very block list: with
    every block of delta_op doubled in place before the first image (its
    part and its action terms, so that each column, written out by
    block_columns_oracle, doubles), the images equal twice those of the
    intact operator.  Degree 0 holds one
    block per output tuple, reached from the one source block."""
    cases = [regular_bimodule(samples.build_c2_example(0)), regular_bimodule(samples.build_e1_semidirect())]
    cases.append(samples.c2_rbf_context().star_bimodule())
    for b in cases:
        size = b.base.omega.size
        op = delta_op(b, 0)
        assert op.faces == [[(x, x) for x in range(size)]] and len(op.blocks) == size
        for n in range(1, 5):
            faces, reps = blocks.pair_keys(b, n)
            op = delta_op(b, n)
            assert op.faces == faces and len(op.blocks) == len(reps)
            basis = equivariant_basis(b, n)
            intact = [op.image(basis.cochain_sparse(j)) for j in range(basis.dim())]
            columns = [block_columns_oracle(op, k) for k in range(len(op.blocks))]
            op.blocks[:] = [([[(r, 2 * v) for r, v in col] for col in part],
                             tuple([(stride, [[(r, 2 * v) for r, v in e] for e in entries])
                                    for stride, entries in actions]))
                            for part, actions in op.blocks]
            assert [block_columns_oracle(op, k) for k in range(len(op.blocks))] == [
                [{r: 2 * v for r, v in col.items()} for col in block] for block in columns]
            ends = end_columns(b, n + 1)
            doubled = [{i: 2 * v for i, v in image.items() if i not in ends} for image in intact]
            assert any(intact) and list(cochain._basis_images(b, n)) == doubled


def test_cochain_sparse_matches_per_tuple_expansion():
    """Basis element j of the c2 degree-3 basis, located by bisection on the
    offsets, equals the j-th vector of a walk over the tuples' blocks, as it
    does on a basis with empty blocks (at the start, between and at the
    end); indices outside the basis are refused."""
    c2_basis = equivariant_basis(regular_bimodule(samples.build_c2_example(0)), 3)
    vectors = [[], [{0: ONE}], [], [], [{0: ONE}, {1: Rat(2)}], []]
    gappy = cochain.EquivariantBasis(1, 6, 1, 2, 2, vectors, [0, 0, 1, 1, 1, 3, 3])
    for basis in (c2_basis, gappy):
        walk = [{t * basis.block_size + c: v for c, v in vec.items()}
                for t, vectors in enumerate(basis.vectors) for vec in vectors]
        assert len(walk) == basis.dim()
        assert [basis.cochain_sparse(j) for j in range(basis.dim())] == walk
        for j in (-1, basis.dim()):
            with pytest.raises(MalformedInputError, match="out of range"):
                basis.cochain_sparse(j)
    assert c2_basis.dim() == 64 and gappy.cochain_sparse(2) == {9: Rat(2)}


def _slot_carrier():
    """A zero algebra over Z/2 with d = 2 and a zero bimodule with m = 1.
    M's maps and A's q are the identity everywhere; A's p is the identity
    at 0 and diag(1, -1) at 1.  So on a block with an entry 1, M's p at the
    product is the identity but A's p at that entry is not."""
    omega = cyclic_monoid(2)
    flip = Mat(2, 2, [ONE, ZERO, ZERO, -ONE])
    a = zero_algebra(omega, 2, {0: Mat.identity(2), 1: flip}, {x: Mat.identity(2) for x in (0, 1)})
    return zero_bimodule(a, 1, {x: Mat.identity(1) for x in (0, 1)}, {x: Mat.identity(1) for x in (0, 1)})


def test_constraint_rows_kept_when_only_an_algebra_map_moves():
    """On the slot carrier only the blocks whose entries are all the unit
    read f = f and build no rows; every other block keeps the rows of p.
    The basis equals the per-tuple oracle to degree 3, and is_equivariant
    equals is_equivariant_oracle on a member of C^n perturbed at each
    coordinate in turn (both verdicts occur)."""
    b = _slot_carrier()
    assert validate_bimodule(b) is None
    om, d, m = b.base.omega, b.base.dim, b.dim_m
    verdicts = set()
    for n in (1, 2, 3):
        for t, om_tuple in enumerate(om.tuples(n)):
            assert (cochain._constraint_system(b, n, t)[0] == []) == (set(om_tuple) == {0}), om_tuple
        basis = equivariant_basis(b, n)
        assert (basis.vectors, _frees(basis)) == equivariant_basis_oracle(b, n)
        f = basis.combine([Rat(1 + j % 3, 3) for j in range(basis.dim())])
        assert is_equivariant(b, f) and is_equivariant_oracle(b, f)
        for i in range(len(f.coords)):
            g = Cochain(n, om.size, d, m, list(f.coords))
            g.coords[i] += ONE
            verdict = is_equivariant(b, g)
            assert verdict == is_equivariant_oracle(b, g), (n, i)
            verdicts.add(verdict)
    assert verdicts == {True, False}


def test_kernel_of_shuffled_constraint_rows_is_the_cached_basis():
    """The RREF is unique, so the order of the rows changes only the work:
    the kernel of each twist signature's rows, in a seeded shuffled order,
    equals the cached basis block, to degree 3 on c2 variants 0-2, e1, the
    e1 semidirect product and both bimodules of the c2 Rota-Baxter context."""
    ctx = samples.c2_rbf_context()
    cases = [regular_bimodule(samples.build_c2_example(v)) for v in range(3)]
    cases += [regular_bimodule(samples.build_e1()), regular_bimodule(samples.build_e1_semidirect())]
    rng = random.Random(2029)
    for b in cases + [ctx.bimodule, ctx.star_bimodule()]:
        for n in (1, 2, 3):
            basis = equivariant_basis(b, n)
            seen = set()
            for t, sig in enumerate(cochain._signatures(b, n)):
                if sig in seen:
                    continue
                seen.add(sig)
                rows = list(cochain._constraint_system(b, n, t)[0])
                rng.shuffle(rows)
                assert sparse_kernel(rows, basis.block_size) == basis.vectors[t], (n, t)


def test_kernel_eliminations_stay_under_a_fifth_of_build_order():
    """Work guard, exact and free of timing noise: with every map pair's
    rows in the order they are built (p rows, then q rows, argument tuples
    in lex order) the kernels of the semidirect product's C^6 and of c2
    variant 1's C^5 took 15499 and 16864 row eliminations; sorted by last
    column they must take under a fifth of that."""
    from cohomology_stages import counting_eliminations

    for a, n, build_order in ((samples.build_e1_semidirect(), 6, 15499), (samples.build_c2_example(1), 5, 16864)):
        b = regular_bimodule(a)
        _, calls = counting_eliminations(lambda: equivariant_basis(b, n))
        assert 0 < calls <= build_order // 5, (n, calls)


def test_stage_tool_reports_exact_work_counts():
    """tools/cohomology_stages.py reports per degree the constraint rows of
    C^k, the row eliminations of its kernel, the middle parts of δ_k summed
    and the steps of their slot recursion (one part of k steps on a
    one-element monoid), the entries the factored blocks of δ_k store
    (each part and action term once), the nonzeros of the projected images
    the rank takes (raw at degree 0) and of the echelon it leaves: exact
    counts, equal on every run, so the work of the equivariance, coboundary
    and elimination layers is checked without timing noise.  Each degree
    also carries the seconds of every stage, building the degree-(k+1)
    constraint systems (``rows``) apart from the verdicts (``verify``)."""
    from cohomology_stages import STAGES, one_pass

    a = samples.build_e1_semidirect()
    runs = [one_pass(a, 4) for _ in range(2)]
    for run in runs:
        assert all(set(STAGES[:-1]) | {"rank_s"} <= set(row) for row in run)
        assert [row["constraint_rows"] for row in run] == [0, 6, 18, 54, 162]
        assert [row["kernel_eliminations"] for row in run] == [0, 2, 8, 32, 116]
        assert [row["middle_parts"] for row in run] == [0, 1, 1, 1, 1]
        assert [row["slot_steps"] for row in run] == [0, 1, 2, 3, 4]
        assert [row["block_entries"] for row in run] == [4, 24, 40, 112, 352]
        assert [row["projected_nonzeros"] for row in run] == [4, 11, 43, 144, 503]
        assert [row["echelon_nonzeros"] for row in run] == [4, 7, 19, 72, 234]
        assert [row["dim"] for row in run] == [r[0] for r in LADDER_TABLES["semidirect"][:5]]
    # several keys share parts and action terms on c2 variant 0
    assert [row["block_entries"] for row in one_pass(samples.build_c2_example(0), 4)] == [8, 24, 56, 152, 456]


def test_stage_tool_combined_pass_pins_dims_ranks_and_degree0_membership():
    """tools/cohomology_stages.py's combined pass on the c2 context to
    degree 2: the combined dimensions and ranks, and ``inside`` at degree 0
    (read off the δ_0 part of each image; the c2 degree-0 images leave
    C^1), None above."""
    from cohomology_stages import combined_pass

    ctx = samples.c2_rbf_context()
    _, rows = combined_pass(ctx.algebra, ctx.rb, 2)
    assert [(row["dim"], row["rank"], row["inside"]) for row in rows] == [(2, 2, False), (6, 4, None), (20, 13, None)]


def test_converters_flatten_the_layout_and_round_trip():
    """cochain_from_tensors lays tensors out as Cochain.value reads them,
    cochain_from_maps lays maps out column by column, and maps_from_cochain
    inverts it: on monoids of sizes 1 and 2, with dim A = 0 and dim M = 0
    among the shapes (dim A = 2 and dim M = 0 on the trivial monoid is the
    shape of test_rbf's _dim_m_zero_context)."""
    rng = random.Random(41)
    for om in (trivial_monoid(), cyclic_monoid(2), boolean_monoid()):
        for d, m in ((2, 2), (2, 3), (3, 1), (0, 2), (2, 0), (0, 0)):
            pairs = [(x, y) for x in om.elements() for y in om.elements()]
            tensors = {key: [[[Rat(rng.randint(-3, 3)) for _ in range(m)] for _ in range(d)] for _ in range(d)]
                       for key in pairs}
            f = cochain_from_tensors(om, d, m, tensors)
            assert len(f.coords) == (om.size * d) ** 2 * m
            assert all(f.value(key, (i, j)) == tensors[key][i][j] for key in pairs for i in range(d) for j in range(d))
            maps = {x: Mat(m, d, [Rat(rng.randint(-3, 3)) for _ in range(m * d)]) for x in om.elements()}
            g = cochain_from_maps(om, maps, d, m)
            assert len(g.coords) == om.size * d * m
            assert all(g.value((x,), (j,)) == maps[x].col(j) for x in om.elements() for j in range(d))
            assert maps_from_cochain(g, om) == maps


def test_converters_refuse_families_and_tensors_of_the_wrong_shape():
    """A map family missing an index or holding a map of the wrong shape, and
    tensors missing a pair or ragged at any level, are refused as malformed
    input instead of being read partially or failing on an index."""
    om = cyclic_monoid(2)
    maps = {x: Mat.zeros(2, 3) for x in om.elements()}
    assert cochain_from_maps(om, maps, 3, 2).is_zero()
    for bad in ({0: maps[0]}, {**maps, 1: Mat.zeros(3, 2)}, {**maps, 1: Mat.zeros(2, 2)}, {**maps, 1: Mat.zeros(2, 4)}):
        with pytest.raises(MalformedInputError, match="is not 2x3"):
            cochain_from_maps(om, bad, 3, 2)
    pairs = [(x, y) for x in om.elements() for y in om.elements()]
    assert cochain_from_tensors(om, 3, 2, {key: tensor_zeros(3, 3, 2) for key in pairs}).is_zero()

    def ragged(key, reshape):
        tensors = {k: tensor_zeros(3, 3, 2) for k in pairs}
        tensors[key] = reshape(tensors[key])
        return tensors

    bads = [
        {key: tensor_zeros(3, 3, 2) for key in pairs[:-1]},
        ragged((0, 1), lambda t: t[:2]),
        ragged((1, 0), lambda t: [t[0], t[1][:2], t[2]]),
        ragged((1, 1), lambda t: [t[0], t[1], [t[2][0], [ZERO] * 3, t[2][2]]]),
        ragged((0, 0), lambda t: [t[0], t[1], t[2] + [[ZERO] * 2]]),
    ]
    for bad in bads:
        with pytest.raises(MalformedInputError, match="tensors are not 3x3x2 at every monoid pair"):
            cochain_from_tensors(om, 3, 2, bad)
