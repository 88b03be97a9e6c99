import random
from itertools import product

import pytest
from generators import random_valid_algebra
from oracles import algebra_equal

from bihomega import samples
from bihomega.algebra import (
    ExampleParams,
    OmegaAlgebra,
    RotaBaxterFamily,
    build_example_algebra,
    check_rota_baxter,
    is_homomorphism,
    star_product,
    validate_algebra,
    validate_example_params,
    yau_twist,
    zero_algebra,
    zero_rb,
)
from bihomega.errors import InternalCheckError, MalformedInputError, PreconditionError
from bihomega.linalg import Mat
from bihomega.monoid import cyclic_monoid, trivial_monoid
from bihomega.rationals import ONE, ZERO, Rat
from bihomega.search import first_nonscalar, search_rbf


def direct_example_tensors(omega, params):
    """Independent transcription of the displayed example formulas."""
    prod = {}
    for x in omega.elements():
        for y in omega.elements():
            cv = params.c[(x, y)]
            # (k1 e1 + k2 e2)(k3 e1 + k4 e2) = k1(k3+k4)c e1 + k2(k3+k4)c e2
            t = [[[ZERO, ZERO] for _ in range(2)] for _ in range(2)]
            for i in range(2):
                for j in range(2):
                    t[i][j][i] = cv
            prod[(x, y)] = t
    return prod


def scan_associativity(a):
    """Exhaustive-scan oracle used to locate the first failing triple."""
    om = a.omega
    d = a.dim
    for x, y, z in product(range(om.size), repeat=3):
        yz, xy = om.mul(y, z), om.mul(x, y)
        for i, j, k in product(range(d), repeat=3):
            lhs = a.mul_vec((x, yz), a.pmap[x].col(i), a.mul_basis((y, z), j, k))
            rhs = a.mul_vec((xy, z), a.mul_basis((x, y), i, j), a.qmap[z].col(k))
            if lhs != rhs:
                return (x, y, z), (i, j, k)
    return None


def test_e1_matches_displayed_formulas_and_validates(e1):
    om = trivial_monoid()
    params = samples.unit_params(om)
    assert e1.product == direct_example_tensors(om, params)
    assert e1.pmap[0] == Mat.identity(2)
    assert e1.qmap[0] == Mat.from_rows([[1, 1], [0, 0]])
    assert validate_algebra(e1) is None


def test_zero_product_any_monoid_ok():
    for om in (trivial_monoid(), cyclic_monoid(2)):
        a = zero_algebra(om, 3)
        assert validate_algebra(a) is None


def test_broken_e1_witness_location_matches_scan_oracle():
    broken = samples.build_e1_broken()
    expected = scan_associativity(broken)
    assert expected is not None
    witness = validate_algebra(broken)
    assert witness is not None
    assert witness.equation == "bihom-associativity"
    assert (witness.omega_indices, witness.basis_indices) == expected


def test_malformed_inputs_rejected(e1):
    bad = OmegaAlgebra(e1.omega, 2, {}, dict(e1.pmap), dict(e1.qmap))
    with pytest.raises(MalformedInputError):
        validate_algebra(bad)
    bad2 = OmegaAlgebra(e1.omega, 2, dict(e1.product), {0: Mat.identity(3)}, dict(e1.qmap))
    with pytest.raises(MalformedInputError):
        validate_algebra(bad2)


def test_rb_zero_family_any_weight(e1):
    for w in (Rat(0), Rat(2), Rat(-1)):
        assert check_rota_baxter(e1, zero_rb(e1, w)) is None


def test_rb_negative_weight_identity(e1):
    for w in (Rat(1), Rat(-3), Rat(1, 2)):
        rb = RotaBaxterFamily(w, {0: Mat.scalar(2, -w)})
        assert check_rota_baxter(e1, rb) is None


def test_search_finds_nonscalar_at_weight_minus_one(e1):
    hits = search_rbf(e1, 1, Rat(-1))
    hit = first_nonscalar(hits)
    assert hit is not None
    assert check_rota_baxter(e1, hit) is None


def test_search_weight_zero_only_scalar_zero(e1):
    # derived fact: on this algebra the weight-0 identity forces R^2 = 0,
    # which together with the q-commutation has only the zero solution
    hits = search_rbf(e1, 1, Rat(0))
    assert len(hits) == 1
    assert all(m.is_zero() for m in hits[0].maps.values())


def test_star_product_special_cases(e1):
    lam = Rat(3)
    star = star_product(e1, zero_rb(e1, lam))
    for key, t in star.product.items():
        for i in range(2):
            for j in range(2):
                assert t[i][j] == [lam * v for v in e1.product[key][i][j]]
    rb = RotaBaxterFamily(lam, {0: Mat.scalar(2, -lam)})
    star2 = star_product(e1, rb)
    for key, t in star2.product.items():
        for i in range(2):
            for j in range(2):
                assert t[i][j] == [-lam * v for v in e1.product[key][i][j]]


def test_star_of_searched_family_validates(e1_ctx):
    star = e1_ctx.star_bimodule().base
    assert validate_algebra(star) is None


def test_star_unchanged_for_weight_one_zero_family(e1):
    star = star_product(e1, zero_rb(e1, ONE))
    assert algebra_equal(star, e1)


def test_homomorphism_identity_and_star_projection(e1, e1_ctx):
    ident = {0: Mat.identity(2)}
    assert is_homomorphism(ident, e1, e1) is None
    # zero family out of the weight-0 derived product: both sides vanish
    star0 = star_product(e1, zero_rb(e1, ZERO))
    zero_maps = {0: Mat.zeros(2, 2)}
    assert is_homomorphism(zero_maps, star0, e1) is None
    # searched family from its derived product back to the original algebra
    assert is_homomorphism(e1_ctx.rb.maps, e1_ctx.star_bimodule().base, e1) is None


def test_yau_twist_identity_maps_is_noop():
    a = samples.build_diag(2)
    twisted, rb = yau_twist(a, zero_rb(a), {0: Mat.identity(2)}, {0: Mat.identity(2)})
    assert algebra_equal(twisted, a)


def test_yau_twist_by_automorphisms_validates():
    a = samples.build_diag(2)
    swap = Mat.from_rows([[0, 1], [1, 0]])
    twisted, rb = yau_twist(a, zero_rb(a), {0: swap}, {0: swap})
    assert validate_algebra(twisted) is None
    assert check_rota_baxter(twisted, rb) is None
    kx = samples.build_truncated_poly(2)
    scale = Mat.from_rows([[1, 0], [0, 2]])  # x -> 2x, an automorphism
    twisted2, _ = yau_twist(kx, zero_rb(kx), {0: scale}, {0: scale.power(2)})
    assert validate_algebra(twisted2) is None


def test_yau_twist_rejects_singular_maps():
    a = samples.build_diag(2)
    singular = Mat.from_rows([[1, 0], [0, 0]])
    with pytest.raises(PreconditionError):
        yau_twist(a, zero_rb(a), {0: singular}, {0: Mat.identity(2)})


def test_yau_twist_by_nonmultiplicative_scalars_fails_validation(e0):
    """Scalar twisting maps on a unital algebra are not endomorphisms, so
    the construction goes through but the result fails its own axioms
    (recorded correction of a claimed example; caller-validates contract)."""
    twisted, rb = yau_twist(
        e0,
        RotaBaxterFamily(ONE, {0: Mat.scalar(1, -1)}),
        {0: Mat.scalar(1, 3)},
        {0: Mat.scalar(1, Rat(1, 2))},
    )
    witness = validate_algebra(twisted)
    assert witness is not None
    one_dim = OmegaAlgebra(
        trivial_monoid(), 1, {(0, 0): [[[ONE]]]}, {0: Mat.identity(1)}, {0: Mat.identity(1)}
    )
    twisted2, _ = yau_twist(one_dim, zero_rb(one_dim), {0: Mat.scalar(1, 2)}, {0: Mat.scalar(1, 2)})
    assert twisted2.product[(0, 0)][0][0][0] == Rat(4)
    assert validate_algebra(twisted2) is not None  # multiplicativity fails


def test_yau_twist_requires_untwisted_input(e1):
    # e1 has a non-identity structure map
    with pytest.raises(PreconditionError):
        yau_twist(e1, zero_rb(e1), {0: Mat.identity(2)}, {0: Mat.identity(2)})


def test_example_algebra_families_validate():
    om = trivial_monoid()
    a = build_example_algebra(om, samples.unit_params(om))
    assert validate_algebra(a) is None
    om2, params = samples.c2_params(0)
    assert validate_algebra(build_example_algebra(om2, params)) is None
    # constant scaling c = 2 on the trivial monoid: 4 = 4 in the constraint
    params2 = ExampleParams({(0, 0): Rat(2)}, {0: ONE}, {0: ONE})
    assert validate_example_params(om, params2) is None
    assert validate_algebra(build_example_algebra(om, params2)) is None


def test_example_algebra_rejects_bad_params():
    om = cyclic_monoid(2)
    c = {(x, y): ONE for x in range(2) for y in range(2)}
    bad = ExampleParams(c, {0: ONE, 1: Rat(2)}, {0: ONE, 1: ONE})
    with pytest.raises(PreconditionError, match="rmap"):
        build_example_algebra(om, bad)


def test_c2_param_variants_validate():
    for variant in (0, 1, 2):
        a = samples.build_c2_example(variant)
        assert validate_algebra(a) is None


def test_c2_variants_are_distinct_and_others_refused():
    """The three c2 variants differ pairwise; any other number is refused
    instead of silently building variant 2."""
    params = [samples.c2_params(v)[1] for v in (0, 1, 2)]
    assert len({repr((p.c, p.rmap, p.lmap)) for p in params}) == 3
    for variant in (-1, 3, 99):
        with pytest.raises(MalformedInputError, match="c2 variant must be 0, 1 or 2"):
            samples.build_c2_example(variant)


def test_random_twisted_algebras_validate():
    rng = random.Random(99)
    for _ in range(15):
        a = random_valid_algebra(rng)
        assert validate_algebra(a) is None


def test_map_family_shape_messages(e1, e1_ctx):
    """Each check of a map family names the map and the shape it needs, also
    when the family misses an element."""
    from bihomega.bimodule import OmegaBimodule, validate_bimodule
    from bihomega.deformation import NijenhuisFamily, check_nijenhuis, deformed_mu

    wrong, ident = {0: Mat.identity(3)}, {0: Mat.identity(2)}
    diag = samples.build_diag(2)
    b = e1_ctx.bimodule
    bad_t = OmegaBimodule(b.base, b.dim_m, b.left, b.right, b.pmap, b.qmap, wrong)
    cases = [
        (lambda: validate_algebra(OmegaAlgebra(e1.omega, 2, e1.product, wrong, e1.qmap)), "pmap[0] is not 2x2"),
        (lambda: validate_algebra(OmegaAlgebra(e1.omega, 2, e1.product, e1.pmap, {})), "qmap[0] is not 2x2"),
        (lambda: check_rota_baxter(e1, RotaBaxterFamily(ZERO, {})), "Rota-Baxter map[0] is not 2x2"),
        (lambda: is_homomorphism(wrong, e1, e1), "map[0] is not 2x2"),
        (lambda: yau_twist(diag, zero_rb(diag), ident, wrong), "twist qmap[0] is not 2x2"),
        (lambda: validate_bimodule(bad_t), "bimodule tmap[0] is not 2x2"),
        (lambda: check_nijenhuis(e1, NijenhuisFamily({})), "Nijenhuis map[0] is not 2x2"),
        (lambda: deformed_mu(e1, wrong), "Nijenhuis map[0] is not 2x2"),
    ]
    for call, message in cases:
        with pytest.raises(MalformedInputError) as info:
            call()
        assert str(info.value) == message


# -- the sample search stops at its first non-scalar hit -----------------------


def test_searched_rb_is_the_first_nonscalar_family_of_the_full_search(e1):
    c2 = samples.build_c2_example(0)
    for a in (e1, c2):
        for w in (Rat(-1), Rat(0), Rat(1)):
            want = first_nonscalar(search_rbf(a, 1, w))
            if want is None:
                with pytest.raises(InternalCheckError, match=f"no non-scalar family found at weight {w}"):
                    samples.searched_rb(a, w)
            else:
                got = samples.searched_rb(a, w)
                assert (got.weight, got.maps) == (want.weight, want.maps)
    assert first_nonscalar(search_rbf(e1, 1, Rat(0))) is None  # the refusal above was reached


def test_searched_rb_refuses_past_the_cap_as_the_full_search_does():
    c2 = samples.build_c2_example(0)
    with pytest.raises(PreconditionError) as full:
        search_rbf(c2, 2, Rat(-1))
    with pytest.raises(PreconditionError) as first:
        samples.searched_rb(c2, Rat(-1), bound=2)
    assert str(first.value) == str(full.value) == "enumeration size 390625 exceeds cap 200000; use a smaller bound"


def test_searched_rb_stops_at_the_hit(monkeypatch, e1):
    from bihomega import search

    checked = []
    original = search.check_rota_baxter
    monkeypatch.setattr(search, "check_rota_baxter", lambda a, rb: checked.append(rb) or original(a, rb))
    for a, want, total in ((e1, 33, 81), (samples.build_c2_example(0), 2625, 6561)):
        checked.clear()
        hit = samples.searched_rb(a, Rat(-1))
        assert len(checked) == want and checked[-1] is hit
        checked.clear()
        search_rbf(a, 1, Rat(-1))
        assert len(checked) == total
