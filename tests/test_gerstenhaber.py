import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bihomega import samples
from bihomega.algebra import OmegaAlgebra, tensor_zeros, validate_algebra, zero_algebra
from bihomega.bimodule import regular_bimodule
from bihomega.cochain import Cochain, apply_delta, equivariant_basis, random_equivariant
from bihomega.errors import MalformedInputError, PreconditionError
from bihomega.gerstenhaber import (
    algebra_with_product,
    bracket,
    circ_i,
    insertion_sum,
    mc_residual,
    mu_cochain,
)
from bihomega.linalg import Mat
from bihomega.monoid import boolean_monoid, cyclic_monoid, trivial_monoid
from bihomega.rationals import ONE, Rat
from generators import random_valid_algebra
from oracles import (
    bracket_oracle,
    circ_full_oracle,
    circ_i_oracle,
    delta_via_bracket,
    evaluate_oracle,
    identity_cochain,
    is_equivariant_oracle,
)


def mu_circ1_mu_oracle(a):
    """Direct transcription: value mu(mu(x, y), qmap(z)) at each cell."""
    om = a.omega
    d = a.dim
    out = Cochain.zero(3, om.size, d, d)
    for alpha in om.tuples(3):
        x, y, z = alpha
        merged = (om.mul(x, y), z)
        for args in product(range(d), repeat=3):
            inner = a.mul_basis((x, y), args[0], args[1])
            val = a.mul_vec(merged, inner, a.qmap[z].col(args[2]))
            base = out.block_base(alpha) + (args[0] * d * d + args[1] * d + args[2]) * d
            for k in range(d):
                out.coords[base + k] = val[k]
    return out


def test_identity_insertion(e1, e1_regular):
    rng = random.Random(3)
    idc = identity_cochain(e1)
    for n in (1, 2, 3):
        f = random_equivariant(e1_regular, n, rng)
        for i in range(1, n + 1):
            assert circ_i(e1, f, idc, i, check=False) == f


def test_zero_insertion(e1, e1_regular):
    z = Cochain.zero(2, 1, 2, 2)
    g = random_equivariant(e1_regular, 2, random.Random(4))
    assert circ_i(e1, z, g, 1, check=False).is_zero()


def test_mu_circ1_mu_matches_direct_oracle(e1):
    mu = mu_cochain(e1)
    assert circ_i(e1, mu, mu, 1, check=False) == mu_circ1_mu_oracle(e1)


def test_circ_slot_out_of_range(e1):
    mu = mu_cochain(e1)
    with pytest.raises(MalformedInputError):
        circ_i(e1, mu, mu, 3)


def test_circ_full_collapses(e1, e1_regular):
    rng = random.Random(5)
    idc = identity_cochain(e1)
    mu = mu_cochain(e1)
    for n in (1, 2, 3):
        f = random_equivariant(e1_regular, n, rng)
        assert circ_full_oracle(e1, f, [idc] * n) == f
    g = random_equivariant(e1_regular, 2, rng)
    f1 = random_equivariant(e1_regular, 1, rng)
    assert circ_full_oracle(e1, f1, [g]) == circ_i(e1, f1, g, 1, check=False)
    assert circ_full_oracle(e1, mu, [mu, idc]) == circ_i(e1, mu, mu, 1, check=False)


def circ_full_cell_oracle(a, f, gs, alpha, args):
    """Literal transcription: block values post-composed with map powers at
    the merged block index, then fed to f at the tuple of block products."""
    d = a.dim
    arities = [g.degree for g in gs]
    starts = []
    pos = 0
    for ar in arities:
        starts.append(pos)
        pos += ar
    n = f.degree
    vectors = []
    merged = []
    for l in range(n):
        block = alpha[starts[l] : starts[l] + arities[l]]
        prod = a.omega.product_of(block)
        merged.append(prod)
        v = gs[l].value(block, args[starts[l] : starts[l] + arities[l]])
        q_exp = sum(arities[t] - 1 for t in range(l))
        p_exp = sum(arities[t] - 1 for t in range(l + 1, n))
        v = a.q_power(prod, q_exp).matvec(v)
        v = a.p_power(prod, p_exp).matvec(v)
        vectors.append(v)
    return evaluate_oracle(f, tuple(merged), vectors)


def test_circ_full_mixed_arities_matches_cell_oracle(c2_ctx):
    from itertools import product as iproduct

    a = c2_ctx.algebra
    reg = c2_ctx.bimodule
    rng = random.Random(12)
    f = random_equivariant(reg, 2, rng)
    g = random_equivariant(reg, 2, rng)
    h = random_equivariant(reg, 3, rng)
    out = circ_full_oracle(a, f, [g, h])
    assert out.degree == 5
    for alpha in a.omega.tuples(5):
        for args in iproduct(range(a.dim), repeat=5):
            expected = circ_full_cell_oracle(a, f, [g, h], alpha, args)
            assert out.value(alpha, args) == expected


def test_bracket_of_product_with_itself(e1):
    mu = mu_cochain(e1)
    expected = circ_i(e1, mu, mu, 1, check=False).sub(circ_i(e1, mu, mu, 2, check=False)).scale(2)
    assert bracket(e1, mu, mu, check=False) == expected


def test_bracket_with_zero(e1, e1_regular):
    f = random_equivariant(e1_regular, 2, random.Random(6))
    z = Cochain.zero(3, 1, 2, 2)
    assert bracket(e1, f, z, check=False).is_zero()


def test_bracket_product_with_arity_three_expansion(e1, e1_regular):
    """Corrected five-term expansion (the four-term variant quoted in the
    build notes breaks graded skew-symmetry and is rejected)."""
    mu = mu_cochain(e1)
    f = random_equivariant(e1_regular, 3, random.Random(7))
    expected = (
        circ_i(e1, mu, f, 1, check=False)
        .add(circ_i(e1, mu, f, 2, check=False))
        .sub(circ_i(e1, f, mu, 1, check=False))
        .add(circ_i(e1, f, mu, 2, check=False))
        .sub(circ_i(e1, f, mu, 3, check=False))
    )
    assert bracket(e1, mu, f, check=False) == expected


def test_graded_skew_and_jacobi(e1, e1_regular, c2_ctx):
    rng = random.Random(8)
    cases = [(e1, e1_regular), (c2_ctx.algebra, c2_ctx.bimodule)]
    for a, reg in cases:
        for _ in range(6):
            nf, ng, nh = (rng.randint(1, 3) for _ in range(3))
            f = random_equivariant(reg, nf, rng)
            g = random_equivariant(reg, ng, rng)
            h = random_equivariant(reg, nh, rng)
            df, dg, dh = nf - 1, ng - 1, nh - 1
            sign = -ONE if (df * dg) % 2 == 0 else ONE
            assert bracket(a, f, g, check=False) == bracket(a, g, f, check=False).scale(sign)
            t1 = bracket(a, f, bracket(a, g, h, check=False), check=False).scale(
                Rat(-1) ** ((df * dh) % 2)
            )
            t2 = bracket(a, g, bracket(a, h, f, check=False), check=False).scale(
                Rat(-1) ** ((dg * df) % 2)
            )
            t3 = bracket(a, h, bracket(a, f, g, check=False), check=False).scale(
                Rat(-1) ** ((dh * dg) % 2)
            )
            assert t1.add(t2).add(t3).is_zero()


def test_mc_residual_of_valid_products(e1, zero1):
    assert mc_residual(e1, mu_cochain(e1), check=False).is_zero()
    assert mc_residual(zero1, mu_cochain(zero1), check=False).is_zero()


def test_mc_residual_perturbed_product_fails_both_ways(e1):
    mu = mu_cochain(e1)
    basis2 = equivariant_basis(regular_bimodule(e1), 2)
    saw_break = False
    for j in range(basis2.dim()):
        perturbed = mu.add(basis2.cochain(j))
        residual = mc_residual(e1, perturbed, check=False)
        valid = validate_algebra(algebra_with_product(e1, perturbed)) is None
        assert residual.is_zero() == valid
        saw_break = saw_break or not valid
    assert saw_break


def test_mc_equivalence_random(e1, e1_regular):
    rng = random.Random(9)
    agree = 0
    for _ in range(40):
        f = random_equivariant(e1_regular, 2, rng)
        residual_zero = mc_residual(e1, f, check=False).is_zero()
        valid = validate_algebra(algebra_with_product(e1, f)) is None
        assert residual_zero == valid
        agree += 1
    assert agree == 40


def test_delta_via_bracket_equals_apply_delta(e1, e1_regular, c2_ctx):
    for a, reg in ((e1, e1_regular), (c2_ctx.algebra, c2_ctx.bimodule)):
        for n in (1, 2, 3):
            basis = equivariant_basis(reg, n)
            for j in range(basis.dim()):
                f = basis.cochain(j)
                assert delta_via_bracket(a, f, check=False) == apply_delta(reg, f, check=False)


def test_delta_via_bracket_collapse_cases(e1, e1_regular):
    z = Cochain.zero(1, 1, 2, 2)
    assert delta_via_bracket(e1, z, check=False).is_zero()
    ident = identity_cochain(e1)
    assert delta_via_bracket(e1, ident, check=False) == mu_cochain(e1)


def test_cochains_of_another_shape_are_refused(e1, c2_ctx):
    rng = random.Random(14)
    c2 = c2_ctx.algebra
    semi = samples.build_e1_semidirect()
    f_c2 = random_equivariant(c2_ctx.bimodule, 2, rng)
    g_e1 = random_equivariant(regular_bimodule(e1), 1, rng)
    f_e1 = random_equivariant(regular_bimodule(e1), 2, rng)
    wide_out = Cochain.zero(2, 1, 2, 3)
    short = Cochain(2, 1, 2, 2, f_e1.coords[:-1])
    cases = [
        (e1, f_c2, g_e1),  # omega_size
        (c2, g_e1, f_c2),
        (semi, f_e1, g_e1),  # dim_in and dim_out
        (e1, wide_out, g_e1),  # dim_out
        (e1, f_e1, short),  # coordinate count
    ]
    for a, f, g in cases:
        for check in (False, True):
            with pytest.raises(MalformedInputError):
                circ_i(a, f, g, 1, check=check)
            with pytest.raises(MalformedInputError):
                bracket(a, f, g, check=check)
    with pytest.raises(MalformedInputError):
        mc_residual(e1, f_c2, check=False)
    with pytest.raises(MalformedInputError):
        delta_via_bracket(semi, f_e1, check=False)


def _assert_matches_oracle(a, f, g):
    for i in range(1, f.degree + 1):
        assert circ_i(a, f, g, i, check=False) == circ_i_oracle(a, f, g, i)
    assert bracket(a, f, g, check=False) == bracket_oracle(a, f, g)


def test_compiled_insertion_matches_oracle_on_equivariant_cochains(e1, c2_ctx):
    rng = random.Random(71)
    carriers = [e1, c2_ctx.algebra, samples.build_e1_semidirect()]
    pairs = [(n, m) for n in range(1, 5) for m in range(1, 5) if n + m <= 6]
    for a in carriers:
        reg = regular_bimodule(a)
        for n, m in pairs:
            _assert_matches_oracle(a, random_equivariant(reg, n, rng), random_equivariant(reg, m, rng))


def _mixed_twist_algebra():
    """Unvalidated carrier whose twist powers have a column with two
    nonzeros and a non-unit diagonal, beside a monomial and a permutation."""
    mat = Mat.from_rows
    third = Rat(1, 3)
    pmap = {0: mat([[1, 1], [1, 2]]), 1: mat([[-1, 0], [0, 3]])}
    qmap = {0: mat([[0, 1], [1, 0]]), 1: mat([[2, third], [0, 1]])}
    product = {(x, y): tensor_zeros(2, 2, 2) for x in range(2) for y in range(2)}
    return OmegaAlgebra(cyclic_monoid(2), 2, product, pmap, qmap)


def test_compiled_insertion_matches_oracle_on_raw_cochains_and_dense_twists():
    a = _mixed_twist_algebra()
    assert any(
        sum(1 for r in range(2) if a.p_power(0, k).at(r, c)) >= 2 for k in (1, 2) for c in range(2)
    )
    rng = random.Random(72)

    def raw(n):
        f = Cochain.zero(n, 2, 2, 2)
        f.coords = [Rat(rng.randint(-3, 3), 3) for _ in f.coords]
        return f

    for n, m in [(1, 1), (1, 3), (2, 2), (3, 1), (2, 3), (3, 2), (4, 1)]:
        _assert_matches_oracle(a, raw(n), raw(m))
    # dimension 0: no coordinates
    a0 = zero_algebra(trivial_monoid(), 0)
    f0, g0 = Cochain.zero(2, 1, 0, 0), Cochain.zero(1, 1, 0, 0)
    assert circ_i(a0, f0, g0, 2, check=False) == bracket(a0, f0, g0) == f0
    assert circ_i_oracle(a0, f0, g0, 2) == bracket_oracle(a0, f0, g0) == f0


_SCALARS = [0, 1, -1, 2, Rat(1, 3), Rat(-2, 3)]


def _raw_carrier(draw, omega, d):
    """An unvalidated carrier with zero product and arbitrary twist matrices."""
    scalar = st.sampled_from(_SCALARS)

    def matrix():
        return Mat(d, d, draw(st.lists(scalar, min_size=d * d, max_size=d * d)))

    pmap = {x: matrix() for x in omega.elements()}
    qmap = {x: matrix() for x in omega.elements()}
    product = {(x, y): tensor_zeros(d, d, d) for x in omega.elements() for y in omega.elements()}
    return OmegaAlgebra(omega, d, product, pmap, qmap)


def _raw_cochain(draw, a, k):
    size = (a.omega.size * a.dim) ** k * a.dim
    coords = draw(st.lists(st.sampled_from(_SCALARS), min_size=size, max_size=size))
    return Cochain(k, a.omega.size, a.dim, a.dim, coords)


_MONOIDS = [trivial_monoid(), cyclic_monoid(2), boolean_monoid()]


@st.composite
def _algebra_and_cochains(draw):
    omega = draw(st.sampled_from(_MONOIDS))
    d = draw(st.integers(1, 3 if omega.size == 1 else 2))
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    a = _raw_carrier(draw, omega, d)
    return a, _raw_cochain(draw, a, n), _raw_cochain(draw, a, m)


@st.composite
def _algebra_and_cochain(draw):
    """One raw cochain of arity 1-4; at arity 4 the carrier is one size smaller."""
    omega = draw(st.sampled_from(_MONOIDS))
    n = draw(st.integers(1, 4))
    d = draw(st.integers(1, (3 if omega.size == 1 else 2) - (n == 4)))
    a = _raw_carrier(draw, omega, d)
    return a, _raw_cochain(draw, a, n)


_SETTINGS = settings(
    derandomize=True,
    max_examples=30,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@_SETTINGS
@given(_algebra_and_cochains())
def test_insertion_properties_on_random_carriers(case):
    """Compiled == oracle and graded skew-symmetry, on raw cochains over
    unvalidated carriers with arbitrary twist matrices."""
    a, f, g = case
    _assert_matches_oracle(a, f, g)
    sign = -(-1) ** ((f.degree - 1) * (g.degree - 1))
    assert bracket(a, f, g, check=False) == bracket(a, g, f, check=False).scale(sign)


def test_checked_brackets_build_the_constraint_rows_once(monkeypatch):
    """The equivariance check keeps one regular bimodule per algebra, so a
    second checked bracket rebuilds no constraint rows; a non-equivariant
    cochain is still refused."""
    from bihomega import cochain

    a = samples.build_c2_example(0)
    rng = random.Random(81)
    f, g = random_equivariant(regular_bimodule(a), 3, rng), random_equivariant(regular_bimodule(a), 3, rng)
    bad = Cochain(f.degree, f.omega_size, f.dim_in, f.dim_out, list(f.coords))
    bad.coords[0] += Rat(1, 3)
    assert not is_equivariant_oracle(regular_bimodule(a), bad)
    built = []
    original = cochain._constraint_system

    def counting(b, n, t):
        if ("constraints", cochain._signatures(b, n)[t]) not in cochain._equivariance(b):
            built.append((n, t))
        return original(b, n, t)

    monkeypatch.setattr(cochain, "_constraint_system", counting)
    first = bracket(a, f, g)
    assert built and first == bracket(a, f, g, check=False)
    count = len(built)
    assert bracket(a, f, g) == first
    assert len(built) == count
    with pytest.raises(PreconditionError):
        bracket(a, bad, g)
    with pytest.raises(PreconditionError):
        circ_i(a, g, bad, 1)


def _copy(f):
    return Cochain(f.degree, f.omega_size, f.dim_in, f.dim_out, list(f.coords))


@_SETTINGS
@given(_algebra_and_cochain())
def test_self_bracket_matches_oracle_on_random_carriers(case):
    """[f, f] by the sign identity (twice the alternating sum at even arity,
    zero at odd arity) equals the oracle and the bracket with a distinct copy."""
    a, f = case
    assert bracket(a, f, f, check=False) == bracket(a, f, _copy(f), check=False) == bracket_oracle(a, f, f)


def test_self_bracket_matches_oracle_on_dense_twists():
    """Against the oracle at arities 1-3, and at arity 4 (integer
    coordinates) against the general route of a distinct copy, since the
    oracle takes seconds there."""
    a = _mixed_twist_algebra()
    rng = random.Random(73)
    for n in (1, 2, 3, 4):
        f = Cochain(n, 2, 2, 2, [Rat(rng.randint(-3, 3), 3 if n < 4 else 1) for _ in range(4**n * 2)])
        general = bracket(a, f, _copy(f), check=False)
        expected = general if n == 4 else bracket_oracle(a, f, f)
        assert bracket(a, f, f, check=False) == general == expected
        assert expected.is_zero() == (n % 2 == 1), n


def test_self_bracket_still_refuses_first(e1, c2_ctx):
    """A non-equivariant or misshapen f is refused by [f, f] at even and odd
    arity, although the odd-arity terms are never computed."""
    a, reg = c2_ctx.algebra, c2_ctx.bimodule
    rng = random.Random(82)
    for n in (1, 2, 3):
        bad = _copy(random_equivariant(reg, n, rng))
        bad.coords[1] += Rat(1, 3)
        assert not is_equivariant_oracle(reg, bad)
        assert bracket(a, bad, bad, check=False) == bracket_oracle(a, bad, bad)
        with pytest.raises(PreconditionError):
            bracket(a, bad, bad)
        with pytest.raises(MalformedInputError):
            bracket(e1, bad, bad, check=False)
        if n == 2:
            with pytest.raises(PreconditionError):
                mc_residual(a, bad)


def test_insertion_sum_matches_the_sum_of_oracle_terms(c2_ctx):
    """Coefficients 1/3 and -2, a zero coefficient, a cochain inserted into
    itself and one g under two coefficients, against circ_i_oracle."""
    for a in (c2_ctx.algebra, _mixed_twist_algebra()):
        rng = random.Random(74)

        def raw(n):
            return Cochain(n, 2, 2, 2, [Rat(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(4**n * 2)])

        f, g, h = raw(2), raw(2), raw(1)
        terms = [(Rat(1, 3), f, g, 1), (-2, f, g, 2), (-2, g, f, 1), (0, g, g, 2), (Rat(1, 3), f, f, 2)]
        terms += [(Rat(1, 3), circ_i(a, f, h, 1, check=False), g, 2)]
        expected = Cochain.zero(3, 2, 2, 2)
        for c, x, y, i in terms:
            expected = expected.add(circ_i_oracle(a, x, y, i).scale(c))
        assert insertion_sum(a, 3, terms) == expected
        assert insertion_sum(a, 3, terms[:1]) == circ_i_oracle(a, f, g, 1).scale(Rat(1, 3))
        assert insertion_sum(a, 3, []) == Cochain.zero(3, 2, 2, 2)
        for wrong in ([(ONE, f, h, 1)], [(ONE, f, g, 3)], [(ONE, h, Cochain.zero(0, 2, 2, 2), 1)]):
            with pytest.raises(MalformedInputError):
                insertion_sum(a, 3, terms + wrong)


def test_each_cochain_is_checked_for_equivariance_once(monkeypatch):
    """A checked [f, f] (so mc_residual) tests f once, not once per term."""
    from bihomega import gerstenhaber

    a = samples.build_c2_example(0)
    reg = regular_bimodule(a)
    rng = random.Random(83)
    f, g = random_equivariant(reg, 2, rng), random_equivariant(reg, 3, rng)
    seen = []
    original = gerstenhaber.is_equivariant
    monkeypatch.setattr(gerstenhaber, "is_equivariant", lambda b, x: seen.append(id(x)) or original(b, x))
    assert mc_residual(a, f) == bracket_oracle(a, f, f)
    assert seen == [id(f)]
    seen.clear()
    assert bracket(a, f, g) == bracket_oracle(a, f, g)
    assert sorted(seen) == sorted([id(f), id(g)])
    seen.clear()
    circ_i(a, g, g, 2)
    assert seen == [id(g)]


def test_graded_lie_laws_and_mc_equivalence_on_random_valid_algebras():
    """On ten seeded valid carriers: graded skew-symmetry and Jacobi on
    equivariant cochains, and mc_residual = 0 exactly when the candidate
    product validates (the product itself, a perturbation and random ones)."""
    nonzero = invalid = 0
    for seed in range(10):
        rng = random.Random(1800 + seed)
        a = random_valid_algebra(rng)
        reg = regular_bimodule(a)
        for nf, ng, nh in ((1, 2, 2), (2, 2, 3), (1, 1, 3)):
            f, g, h = (random_equivariant(reg, k, rng) for k in (nf, ng, nh))
            df, dg, dh = nf - 1, ng - 1, nh - 1
            fg = bracket(a, f, g)
            nonzero += not fg.is_zero()
            assert fg == bracket(a, g, f).scale(-((-1) ** (df * dg)))
            t1 = bracket(a, f, bracket(a, g, h)).scale((-1) ** (df * dh))
            t2 = bracket(a, g, bracket(a, h, f)).scale((-1) ** (dg * df))
            t3 = bracket(a, h, bracket(a, f, g)).scale((-1) ** (dh * dg))
            assert t1.add(t2).add(t3).is_zero(), seed
        mu = mu_cochain(a)
        candidates = [mu, mu.scale(-2)] + [random_equivariant(reg, 2, rng) for _ in range(3)]
        candidates += [mu.add(c) for c in candidates[2:]]
        for candidate in candidates:
            residual_zero = mc_residual(a, candidate).is_zero()
            valid = validate_algebra(algebra_with_product(a, candidate)) is None
            assert residual_zero == valid, seed
            invalid += not valid
        assert mc_residual(a, mu).is_zero() and validate_algebra(a) is None
    assert nonzero and invalid


def _fraction_cochain(rng, n, size, d):
    """Raw cochain whose coordinates are all nonzero Fractions."""
    coords = [Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.randint(2, 4)) for _ in range((size * d) ** n * d)]
    return Cochain(n, size, d, d, coords)


def test_blocks_hit_by_several_terms_are_summed_in_one_pass(c2_ctx, monkeypatch):
    """Four terms of one arity pattern, Fraction coefficients and dense
    Fraction coordinates: every output block gets four kernel results, summed
    by the compiled adder of 4, and the sum is that of the oracle terms."""
    from bihomega import gerstenhaber

    a, rng = c2_ctx.algebra, random.Random(75)
    f1, f2, g1, g2 = (_fraction_cochain(rng, 2, 2, 2) for _ in range(4))
    terms = [(Fraction(1, 3), f1, g1, 1), (Fraction(-5, 2), f2, g1, 1)]
    terms += [(Fraction(2, 7), f1, g2, 2), (-1, f2, g2, 2)]
    adders, real = [], gerstenhaber._adder
    monkeypatch.setattr(gerstenhaber, "_adder", lambda k: adders.append(k) or real(k))
    expected = Cochain.zero(3, 2, 2, 2)
    for c, f, g, i in terms:
        expected = expected.add(circ_i_oracle(a, f, g, i).scale(c))
    assert insertion_sum(a, 3, terms) == expected
    assert adders == [4] * 2**3  # one adder call per output tuple block
    adders.clear()
    assert insertion_sum(a, 3, terms[:1]) == circ_i_oracle(a, f1, g1, 1).scale(Fraction(1, 3))
    assert adders == []  # a block with one result is assigned as is


def test_zero_coefficients_and_zero_blocks_of_g_leave_their_blocks_zero(c2_ctx):
    a, rng = c2_ctx.algebra, random.Random(76)
    f, g = _fraction_cochain(rng, 2, 2, 2), _fraction_cochain(rng, 1, 2, 2)
    zero_g = Cochain.zero(1, 2, 2, 2)
    assert insertion_sum(a, 2, [(0, f, g, 1), (Fraction(1, 2), f, zero_g, 2)]).is_zero()
    half_g = Cochain(1, 2, 2, 2, g.coords[:4] + [0] * 4)  # zero at monoid element 1
    out = insertion_sum(a, 2, [(Fraction(2, 3), f, half_g, 1), (0, f, g, 2), (3, f, zero_g, 1)])
    assert out == circ_i_oracle(a, f, half_g, 1).scale(Fraction(2, 3))
    for x in range(2):  # slot 1 holds g's output at element 1: those blocks stay zero
        base = out.block_base((1, x))
        assert out.coords[base : base + 8] == [0] * 8
    assert not out.is_zero()


def test_dimension_one_carriers_gather_through_tuple(e0, zero1):
    """At d = 1 every block has one entry, where itemgetter would return a
    scalar; the gather is tuple, with twist coefficients on a twisted carrier."""
    from bihomega import gerstenhaber

    mat = Mat.from_rows
    twisted = OmegaAlgebra(
        cyclic_monoid(2), 1, {(x, y): tensor_zeros(1, 1, 1) for x in range(2) for y in range(2)},
        {0: mat([[1]]), 1: mat([[-1]])}, {0: mat([[1]]), 1: mat([[Rat(2, 3)]])},
    )
    rng = random.Random(77)
    for a in (e0, zero1, twisted):
        size = a.omega.size
        for n, m in [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (2, 3)]:
            f, g = _fraction_cochain(rng, n, size, 1), _fraction_cochain(rng, m, size, 1)
            for i in range(1, n + 1):
                assert circ_i(a, f, g, i, check=False) == circ_i_oracle(a, f, g, i)
                plan = gerstenhaber._insertion_plan(a, n, m, i)
                assert {gather for entry in plan for gather, _ in entry[1]} == {tuple}
            assert bracket(a, f, g, check=False) == bracket_oracle(a, f, g)
    assert any(coeffs for entry in gerstenhaber._insertion_plan(twisted, 2, 2, 1) for _, coeffs in entry[1])


def test_checked_insertions_build_the_checking_bimodule_once(monkeypatch):
    """The regular bimodule that checks equivariance is built on the first
    checked call on an algebra and read from its cache after that: two
    checked circ_i calls on one algebra build it once."""
    from bihomega import gerstenhaber

    calls = []

    def counting(a, *args):
        calls.append(a)
        return regular_bimodule(a, *args)

    monkeypatch.setattr(gerstenhaber, "regular_bimodule", counting)
    a = samples.build_e1()
    mu = mu_cochain(a)
    assert circ_i(a, mu, mu, 1) == circ_i(a, mu, mu, 1, check=False)
    circ_i(a, mu, mu, 2)
    assert calls == [a]
