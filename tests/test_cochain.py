import json
import random
from itertools import product

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from conftest import fixture_text
from generators import random_valid_pair
from oracles import (
    circ_full_oracle,
    circ_i_oracle,
    delta_direct_oracle,
    equivariant_basis_oracle,
    evaluate_oracle,
    gauss_jordan_oracle,
    identity_cochain,
    is_equivariant_oracle,
    kernel_oracle,
    solve_oracle,
)

from bihomega import blocks, cochain, samples
from bihomega.algebra import OmegaAlgebra, zero_algebra
from bihomega.bimodule import OmegaBimodule, regular_bimodule, validate_bimodule, zero_bimodule
from bihomega.cochain import (
    Cochain,
    apply_delta,
    cochain_from_maps,
    cohomology_dims,
    dd_zero_witness,
    delta_matrix,
    delta_op,
    equivariant_basis,
    is_coboundary,
    is_cocycle,
    is_equivariant,
    random_equivariant,
)
from bihomega.errors import InternalCheckError, MalformedInputError, PreconditionError
from bihomega.gerstenhaber import mu_cochain
from bihomega.linalg import Mat, rank, sparse_kernel, sparse_rank, sparse_rows
from bihomega.monoid import boolean_monoid, cyclic_monoid, trivial_monoid
from bihomega.rationals import ONE, ZERO, Rat


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
            for vectors, frees in zip(basis.vectors, basis.frees):
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
    from bihomega.cochain import degree0_sound

    assert degree0_sound(regular_bimodule(e0))
    assert degree0_sound(e1_regular)  # defect present but defined part killed


def test_degree_zero_composite_can_fail_on_valid_input():
    """The displayed degree-0 differential is not always part of the complex.

    On the alternating-parameter two-element-group example, the coboundary
    of a module element is a genuine 1-cochain that is NOT a 1-cocycle.
    The dimension report refuses to quotient by non-cocycles.
    """
    from bihomega.cochain import degree0_sound

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
    which is assembled from the same corrupted block."""
    a = samples.build_c2_example(0)
    b = regular_bimodule(a)
    n = 2
    basis = equivariant_basis(b, n)
    plan = blocks.coboundary_plan(b, n)
    owners: dict = {}  # pair key -> source tuples, in order
    for s, faces in enumerate(plan.faces):
        for _, key in faces:
            owners.setdefault(key, []).append(s)
    # a key shared by several pairs whose first source is not tuple 0
    key, sources = next((k, v) for k, v in owners.items() if len(v) > 1 and v[0] > 0)
    width = a.dim ** (n + 1) * b.dim_m
    t = a.omega.tuples(n + 1).index(list(plan.reps.values())[key])

    def unit(r):
        f = Cochain.zero(n + 1, a.omega.size, a.dim, b.dim_m)
        f.coords[t * width + r] = ONE
        return f

    outside = next(r for r in range(width) if not is_equivariant(b, unit(r)))
    column = basis.frees[sources[0]][0]  # nonzero in one kernel vector of the source only
    block = plan.block(b, key)
    entries = dict(block[column])
    entries[outside] = entries.get(outside, 0) + 1
    block[column] = list(entries.items())
    op = delta_op(b, n)
    leaving = [j for j in range(basis.dim())
               if not is_equivariant(b, Cochain(n + 1, a.omega.size, a.dim, b.dim_m,
                                                op.apply_dense(basis.cochain(j).coords)))]
    assert len(leaving) > 1 and leaving[0] > 0
    with pytest.raises(InternalCheckError, match=f"degree-2 basis element {leaving[0]} left the equivariant"):
        cohomology_dims(b, 3)


def test_image_intersection_generators_span_the_intersection(e1_regular):
    """Independent generators of im(δ_0) ∩ C^1, counted against
    dim U + dim V - dim(U + V) with dense ranks."""
    cases = [e1_regular] + [regular_bimodule(samples.build_c2_example(v)) for v in (0, 1, 2)]
    for b in cases:
        shape = (b.base.omega.size, b.base.dim, b.dim_m)
        op0 = delta_op(b, 0)
        images = [op0.apply_dense([ONE if k == l else ZERO for k in range(b.dim_m)]) for l in range(b.dim_m)]
        assert not all(is_equivariant(b, Cochain(1, *shape, g)) for g in images)
        basis1 = equivariant_basis(b, 1)
        c1 = [basis1.cochain(j).coords for j in range(basis1.dim())]
        gens = [[g.get(i, 0) for i in range(op0.nrows)] for g in cochain._image_intersection_generators(b)]
        want = rank(Mat.from_cols(images)) + len(c1) - rank(Mat.from_cols(images + c1))
        assert len(gens) == want
        if gens:
            assert rank(Mat.from_cols(gens)) == len(gens)
        for g in gens:
            assert is_equivariant(b, Cochain(1, *shape, g))
            assert rank(Mat.from_cols(images + [g])) == rank(Mat.from_cols(images))


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

    def __mul__(self, c):
        return _Formal({j: c * v for j, v in self.items()}) if c else _Formal()

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other


def _oracle_columns(b, n) -> list:
    """Every column of delta_direct_oracle at degree n, as {row: coeff}
    dicts, from one formal call."""
    om, d, m = b.base.omega, b.base.dim, b.dim_m
    ncols = om.size**n * d**n * m
    generic = Cochain(n, om.size, d, m, [_Formal({j: 1}) for j in range(ncols)])
    columns = [{} for _ in range(ncols)]
    for i, entry in enumerate(delta_direct_oracle(b, generic).coords):
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
        assert [dict(col) for col in delta_op(b, n).cols] == _oracle_columns(b, n)
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
        assert (basis.vectors, basis.frees) == equivariant_basis_oracle(b, n)
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
            assert (basis.vectors, basis.frees) == equivariant_basis_oracle(b, n)
    for b in shared:
        _assert_table_matches_oracles(b, 2)


def test_constraint_rows_built_once_per_twist_signature(monkeypatch):
    """The 16 degree-4 tuples of c2 variant 0 share one twist signature: the
    basis and the membership test build one constraint system between them,
    and every tuple reuses one kernel."""
    b = regular_bimodule(samples.build_c2_example(0))
    built = []
    original = cochain._constraint_rows

    def counting(bb, om_tuple):
        if ("constraint_rows", cochain._twist_signature(bb, om_tuple)) not in bb._cache:
            built.append(om_tuple)
        return original(bb, om_tuple)

    monkeypatch.setattr(cochain, "_constraint_rows", counting)
    basis = equivariant_basis(b, 4)
    assert len(basis.vectors) == 16 and all(v is basis.vectors[0] for v in basis.vectors)
    f = random_equivariant(b, 4, random.Random(11))
    bad = Cochain(4, f.omega_size, f.dim_in, f.dim_out, list(f.coords))
    bad.coords[-1] += Rat(1, 3)
    assert is_equivariant(b, f) and not is_equivariant(b, bad)
    assert len(built) == 1


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


def _end_columns(b, n) -> set:
    """Raw indices of the largest column of every degree-n constraint row."""
    width = b.base.dim**n * b.dim_m
    return {t * width + max(row) for t, om_tuple in enumerate(b.base.omega.tuples(n))
            for row in cochain._constraint_rows(b, om_tuple)}


def _assert_basis_images_match_delta_op(b, n):
    """The basis images of the tables equal delta_op on every basis cochain
    of C^n, and projected, those images without the end columns of C^{n+1}.
    Verified or projected, they are refused exactly when some image leaves
    C^{n+1} (is_equivariant on the dense image), naming the lowest one."""
    om, d, m = b.base.omega, b.base.dim, b.dim_m
    basis, op = equivariant_basis(b, n), delta_op(b, n)
    want = [op.image(basis.cochain_sparse(j)) for j in range(basis.dim())]
    assert list(cochain._basis_images(b, n, verify=False)) == want
    leaving = [j for j in range(basis.dim())
               if not is_equivariant(b, Cochain(n + 1, om.size, d, m, op.apply_dense(basis.cochain(j).coords)))]
    for project in (False, True):
        if leaving:
            with pytest.raises(InternalCheckError, match=f"degree-{n} basis element {leaving[0]} left"):
                list(cochain._basis_images(b, n, project=project))
        elif project:
            ends = _end_columns(b, n + 1)
            projected = [{i: v for i, v in image.items() if i not in ends} for image in want]
            assert list(cochain._basis_images(b, n, project=True)) == projected
        else:
            assert list(cochain._basis_images(b, n)) == want


def _assert_verdicts_match_is_equivariant(b, n):
    """Each membership verdict of the degree-n plan, shared per (output
    signature, pair key, source signature), equals is_equivariant on the
    product placed at that face's own output block, face by face."""
    om, d, m = b.base.omega, b.base.dim, b.dim_m
    basis, plan = equivariant_basis(b, n), blocks.coboundary_plan(b, n)
    width = d ** (n + 1) * m
    for s, faces in enumerate(plan.faces):
        vectors = basis.vectors[s]
        if not vectors:
            continue
        sig = cochain._twist_signature(b, om.tuples(n)[s])
        for t, key in faces:
            products = plan.product(b, key, sig, vectors)
            want = set()
            for k, product in enumerate(products):
                f = Cochain.zero(n + 1, om.size, d, m)
                for r, v in product.items():
                    f.coords[t * width + r] = v
                if not is_equivariant(b, f):
                    want.add(k)
            assert cochain._violations(b, plan, om.tuples(n + 1)[t], key, sig, products)[0] == want, (n, s, t)


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
    b = _sign_carrier()
    for n in (1, 2, 3):
        _assert_verdicts_match_is_equivariant(b, n)
        _assert_basis_images_match_delta_op(b, n)
        assert [dict(col) for col in delta_op(b, n).cols] == _oracle_columns(b, n)
    verdicts: dict = {}
    for (_, key, sig), (bad, _) in blocks.coboundary_plan(b, 2).failures.items():
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
        assert [dict(col) for col in delta_op(b, n).cols] == _oracle_columns(b, n)
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
    ones; where one leaves, both routes refuse it alike."""
    b = case[0]
    for n in (1, 2, 3):
        basis, ends = equivariant_basis(b, n), _end_columns(b, n)
        for t, vectors in enumerate(basis.vectors):
            base = t * basis.block_size
            assert sparse_rank([{c: v for c, v in vec.items() if base + c not in ends} for vec in vectors]) == len(
                vectors
            ), (n, t)
    for n in (1, 2):
        try:
            raw = list(cochain._basis_images(b, n))
        except InternalCheckError as exc:
            with pytest.raises(InternalCheckError, match=str(exc)):
                list(cochain._basis_images(b, n, project=True))
            continue
        assert sparse_rank(cochain._basis_images(b, n, project=True)) == sparse_rank(raw), n


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
        assert [sparse_rank(cochain._basis_images(b, k, project=True)) for k in range(1, top + 1)] == ranks
        if rows is not None:
            assert [r.dim_cochains - r.dim_cocycles for r in rows[1:]] == ranks
            assert [r.dim_coboundaries for r in rows[2:]] == ranks[:-1]
    assert len(pairs) == 15 and 0 < refused < 7


def test_coboundary_blocks_match_oracles_on_named_inputs():
    """c2 variants 0-2, the e1 semidirect product and the star bimodule of
    the c2 Rota-Baxter context: delta_op equals delta_direct_oracle column by
    column to degree 2, and the basis images equal delta_op to degree 4."""
    cases = [regular_bimodule(samples.build_c2_example(v)) for v in range(3)]
    cases += [regular_bimodule(samples.build_e1_semidirect()), samples.c2_rbf_context().star_bimodule()]
    for b in cases:
        for n in (1, 2):
            assert [dict(col) for col in delta_op(b, n).cols] == _oracle_columns(b, n)
        for n in range(1, 5):
            _assert_basis_images_match_delta_op(b, n)


def test_coboundary_blocks_compiled_once_per_pair_key(monkeypatch):
    """On c2 variant 0 at degree 4, δ has 111 pairs (output tuple, source
    tuple) but 24 distinct pair keys, and 12 distinct face terms stand
    behind those keys; the tables and delta_op together compile one block
    per key, in one pass, and each face term once."""
    b = regular_bimodule(samples.build_c2_example(0))
    compiled, terms = [], []
    original, original_term = blocks.compile_blocks, blocks._face_term

    def counting(bb, n, reps):
        if n == 4:
            compiled.append(len(reps))
        return original(bb, n, reps)

    def counting_term(cols, bb, n, term, beta, rows):
        if n == 4:
            terms.append(term)
        return original_term(cols, bb, n, term, beta, rows)

    monkeypatch.setattr(blocks, "compile_blocks", counting)
    monkeypatch.setattr(blocks, "_face_term", counting_term)
    cohomology_dims(b, 4)
    delta_op(b, 4)
    plan = blocks.coboundary_plan(b, 4)
    numbers = [key for faces in plan.faces for _, key in faces]
    assert len(numbers) == 111
    assert len(set(numbers)) == len(plan.reps) == 24
    assert compiled == [24]
    assert sum(map(len, plan.reps)) == 60
    assert len(terms) == len(set(terms)) == len({term for key in plan.reps for term in key}) == 12


def test_cochain_sparse_matches_per_tuple_expansion():
    """Basis element j of the c2 degree-3 basis, located by bisection on the
    offsets, equals the j-th vector of a walk over the tuples' blocks, as it
    does on a basis with empty blocks (at the start, between and at the
    end); indices outside the basis are refused."""
    c2_basis = equivariant_basis(regular_bimodule(samples.build_c2_example(0)), 3)
    vectors = [[], [{0: ONE}], [], [], [{0: ONE}, {1: Rat(2)}], []]
    gappy = cochain.EquivariantBasis(1, 6, 1, 2, 2, vectors, [[], [0], [], [], [0, 1], []], [0, 0, 1, 1, 1, 3, 3])
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
        for om_tuple in om.tuples(n):
            assert (cochain._constraint_rows(b, om_tuple) == []) == (set(om_tuple) == {0}), om_tuple
        basis = equivariant_basis(b, n)
        assert (basis.vectors, basis.frees) == equivariant_basis_oracle(b, n)
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
            for t, om_tuple in enumerate(b.base.omega.tuples(n)):
                sig = cochain._twist_signature(b, om_tuple)
                if sig in seen:
                    continue
                seen.add(sig)
                rows = list(cochain._constraint_rows(b, om_tuple))
                rng.shuffle(rows)
                assert sparse_kernel(rows, basis.block_size) == basis.vectors[t], (n, om_tuple)


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
    C^k, the row eliminations of its kernel, the face terms of δ_k compiled
    (k + 2 on a one-element monoid), the nonzeros of the projected images
    the rank takes (raw at degree 0) and of the echelon it leaves: exact
    counts, equal on every run, so the work of the equivariance, coboundary
    and elimination layers is checked without timing noise."""
    from cohomology_stages import one_pass

    a = samples.build_e1_semidirect()
    runs = [one_pass(a, 4) for _ in range(2)]
    for run in runs:
        assert [row["constraint_rows"] for row in run] == [0, 7, 23, 73, 227]
        assert [row["kernel_eliminations"] for row in run] == [0, 3, 13, 51, 181]
        assert [row["face_terms"] for row in run] == [0, 3, 4, 5, 6]
        assert [row["projected_nonzeros"] for row in run] == [4, 11, 43, 144, 503]
        assert [row["echelon_nonzeros"] for row in run] == [4, 7, 19, 72, 234]
        assert [row["dim"] for row in run] == [r[0] for r in LADDER_TABLES["semidirect"][:5]]
