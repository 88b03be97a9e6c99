import random

import pytest
from gen_fixtures import search_nijenhuis
from oracles import TPoly, trivial_deformation_check, truncated_algebra_check, truncated_rb_check

from bihomega import samples
from bihomega.algebra import tensor_zeros, validate_algebra
from bihomega.bimodule import regular_bimodule
from bihomega.cochain import Cochain, cochain_from_maps, cochain_from_tensors, random_equivariant
from bihomega.deformation import (
    DeformationJet,
    NijenhuisFamily,
    check_jet,
    check_linear_deformation,
    check_nijenhuis,
    deformed_mu,
    deformed_product,
    equivalence_shift,
    psi_n,
    rigidity_report,
)
from bihomega.errors import MalformedInputError, PreconditionError
from bihomega.gerstenhaber import mu_cochain
from bihomega.linalg import Mat
from bihomega.rationals import ONE, Rat
from bihomega.rbf import CombinedCochain, RbfContext, combined_kernel, d_combined
from bihomega.search import first_nonscalar


def test_tpoly_arithmetic():
    p = TPoly(2, [Rat(1), Rat(2), Rat(0)])
    q = TPoly(2, [Rat(0), Rat(1), Rat(3)])
    assert (p * q).coeffs == [Rat(0), Rat(1), Rat(5)]  # truncation at order 2
    assert (p + q).coeffs == [Rat(1), Rat(3), Rat(3)]
    assert (2 * p).coeffs == [Rat(2), Rat(4), Rat(0)]
    assert bool(TPoly(2)) is False


def test_linear_deformation_zero_and_self(e1):
    z = Cochain.zero(2, 1, 2, 2)
    assert check_linear_deformation(e1, z).all_ok()
    mu = mu_cochain(e1)
    rep = check_linear_deformation(e1, mu)
    assert rep.all_ok()
    assert truncated_algebra_check(e1, [mu], 2)


def test_linear_deformation_random_flags_match_truncated_oracle(e1, e1_regular):
    rng = random.Random(43)
    saw_noncocycle = False
    for _ in range(12):
        f = random_equivariant(e1_regular, 2, rng)
        rep = check_linear_deformation(e1, f)
        # first-order truncation needs equivariance + cocycle only
        order1 = truncated_algebra_check(e1, [f], 1)
        assert order1 == (rep.equivariant and rep.cocycle)
        # full order-2 truncation needs all three flags
        order2 = truncated_algebra_check(e1, [f], 2)
        assert order2 == rep.all_ok()
        saw_noncocycle = saw_noncocycle or not rep.cocycle
    assert saw_noncocycle


def test_nijenhuis_identity_and_zero(e1):
    for maps in ({0: Mat.identity(2)}, {0: Mat.zeros(2, 2)}):
        assert check_nijenhuis(e1, NijenhuisFamily(maps)) is None


def test_nijenhuis_identity_deforms_to_same_product(e1):
    deformed, hom = deformed_product(e1, NijenhuisFamily({0: Mat.identity(2)}))
    assert deformed.product == e1.product
    assert hom is None


def test_nijenhuis_zero_deforms_to_zero_product(e1):
    deformed, hom = deformed_product(e1, NijenhuisFamily({0: Mat.zeros(2, 2)}))
    assert all(
        all(all(v == 0 for v in col) for col in plane)
        for t in deformed.product.values()
        for plane in t
    )
    assert validate_algebra(deformed) is None
    assert hom is None


def test_deformed_product_refuses_a_family_of_the_wrong_shape():
    """Unchecked, a family missing a monoid element used to raise KeyError."""
    a = samples.build_c2_example(0)
    for maps in ({}, {0: Mat.identity(2)}, {0: Mat.identity(3), 1: Mat.identity(3)}):
        with pytest.raises(MalformedInputError, match="is not 2x2"):
            deformed_product(a, NijenhuisFamily(maps), check=False)


def test_enumerated_nijenhuis_battery(e1):
    hits = search_nijenhuis(e1, 1)
    nf = first_nonscalar(hits)
    assert nf is not None
    assert check_nijenhuis(e1, nf) is None
    deformed, hom = deformed_product(e1, nf)
    assert validate_algebra(deformed) is None
    assert hom is None
    psi, rep = psi_n(e1, nf.maps)
    assert psi.is_zero() and rep.psi_zero and rep.nijenhuis_ok
    td = trivial_deformation_check(e1, nf)
    assert all(td.values())


def test_psi_reports_on_non_nijenhuis_families():
    rng = random.Random(47)
    k2 = samples.build_diag(2)
    kx2 = samples.build_truncated_poly(2)
    non_nij = 0
    for a in (k2, kx2):
        for _ in range(25):
            maps = {0: Mat.from_rows([[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)])}
            psi, rep = psi_n(a, maps)  # p = q = id: commutation is automatic
            assert rep.psi_zero == rep.nijenhuis_ok
            assert rep.deformed_valid == rep.psi_cocycle
            if not rep.nijenhuis_ok:
                non_nij += 1
    assert non_nij > 0


def test_psi_requires_structure_commutation(e1):
    bad = {0: Mat.from_rows([[0, 0], [1, 0]])}  # does not commute with qmap
    with pytest.raises(PreconditionError):
        psi_n(e1, bad)


def test_jet_zero_any_order(e1_ctx):
    z2 = Cochain.zero(2, 1, 2, 2)
    z1 = Cochain.zero(1, 1, 2, 2)
    jet = DeformationJet(3, [z2] * 3, [z1] * 3)
    assert check_jet(e1_ctx, jet).all_ok()


def test_jet_from_differential_image(e1_ctx):
    rng = random.Random(53)
    for _ in range(4):
        eta = random_equivariant(e1_ctx.bimodule, 1, rng)
        shift = equivalence_shift(e1_ctx, eta)
        assert d_combined(e1_ctx, shift, check=False).is_zero()
        jet = DeformationJet(1, [shift.alg], [shift.rbf])
        assert check_jet(e1_ctx, jet).all_ok()


def test_jet_kernel_elements_pass_nonkernel_fail(e1_ctx):
    kers = combined_kernel(e1_ctx, 2)
    for x in kers:
        jet = DeformationJet(1, [x.alg], [x.rbf])
        assert check_jet(e1_ctx, jet).all_ok()
    rng = random.Random(59)
    failures = 0
    for _ in range(10):
        x = CombinedCochain(
            random_equivariant(e1_ctx.bimodule, 2, rng),
            random_equivariant(e1_ctx.bimodule, 1, rng),
        )
        if d_combined(e1_ctx, x, check=False).is_zero():
            continue
        jet = DeformationJet(1, [x.alg], [x.rbf])
        assert not check_jet(e1_ctx, jet).all_ok()
        failures += 1
    assert failures > 0


def test_jet_truncated_polynomial_route(e1_ctx):
    kers = combined_kernel(e1_ctx, 2)
    x = kers[0]
    ok_assoc = truncated_algebra_check(e1_ctx.algebra, [x.alg], 1)
    ok_rb = truncated_rb_check(e1_ctx.algebra, e1_ctx.rb, [x.alg], [x.rbf], 1)
    assert ok_assoc and ok_rb


def test_equivalence_shift_cases(e1_ctx):
    z = Cochain.zero(1, 1, 2, 2)
    shift = equivalence_shift(e1_ctx, z)
    assert shift.is_zero()
    from oracles import identity_cochain

    ident = identity_cochain(e1_ctx.algebra)
    shift = equivalence_shift(e1_ctx, ident)
    assert shift.alg == mu_cochain(e1_ctx.algebra)
    # for the regular bimodule with tmap = R the degree-1 comparison image
    # of the identity family vanishes
    assert shift.rbf.is_zero()
    assert d_combined(e1_ctx, shift, check=False).is_zero()
    rng = random.Random(61)
    psi1 = random_equivariant(e1_ctx.bimodule, 1, rng)
    assert d_combined(e1_ctx, equivalence_shift(e1_ctx, psi1), check=False).is_zero()


def test_rigidity_reports(e0_ctx, zero1_ctx, e1_ctx, e1):
    import json

    from conftest import fixture_text

    frozen = json.loads(fixture_text("rigidity.json"))
    assert rigidity_report(e0_ctx).to_json() == frozen["e0_rbf"]
    assert rigidity_report(zero1_ctx).to_json() == frozen["zero1_rbf"]
    assert rigidity_report(e1_ctx).to_json() == frozen["e1_rbf"]
    # dimension-zero degenerate algebra: rigid by emptiness
    from bihomega.algebra import zero_algebra, zero_rb
    from bihomega.bimodule import regular_bimodule
    from bihomega.monoid import trivial_monoid

    a0 = zero_algebra(trivial_monoid(), 0)
    rb0 = zero_rb(a0, ONE)
    ctx0 = RbfContext.validated(a0, rb0, regular_bimodule(a0, rb0))
    rep = rigidity_report(ctx0)
    assert rep.h2_dim == 0 and rep.rigid


def test_linear_deformation_order_checks_via_theorem(e1):
    """Any Nijenhuis direction gives an algebra modulo t^2."""
    hits = search_nijenhuis(e1, 1)
    nf = first_nonscalar(hits)
    assert truncated_algebra_check(e1, [deformed_mu(e1, nf.maps)], 2)


def test_searches_refuse_a_negative_bound(e1):
    """(2 * bound + 1)^cells is 1 for bound = -1 and an even number of
    cells, so the size cap alone let the empty search answer "none found"."""
    from bihomega.search import search_rbf

    for bound in (-1, -2):
        with pytest.raises(MalformedInputError, match="non-negative"):
            search_rbf(e1, bound, 0)
        with pytest.raises(MalformedInputError, match="non-negative"):
            search_nijenhuis(e1, bound)


def test_jet_refuses_components_of_the_wrong_degree_or_shape():
    """An order-2 operator component of degree 2, an order-2 product
    component of degree 3 or 1, and components of different shapes are
    refused when the jet is built, before any insertion runs."""
    z2, z1 = Cochain.zero(2, 1, 2, 2), Cochain.zero(1, 1, 2, 2)
    bad = [
        ([z2, z2], [z1, Cochain.zero(2, 1, 2, 2)]),
        ([z2, Cochain.zero(3, 1, 2, 2)], [z1, z1]),
        ([z2, Cochain.zero(1, 1, 2, 2)], [z1, z1]),
        ([z2, Cochain.zero(2, 2, 2, 2)], [z1, z1]),
        ([z2, z2], [z1, Cochain.zero(1, 1, 3, 3)]),
    ]
    for mu_orders, r_orders in bad:
        with pytest.raises(MalformedInputError):
            DeformationJet(2, mu_orders, r_orders)


def _conjugated_jet(a, rb, nmat, order):
    """Orders 1..order of the conjugate of (mu, R) by phi_t = id + t N.

    mu_t(u, v) = phi_t^-1 mu(phi_t u, phi_t v) and R_t = phi_t^-1 R phi_t,
    with phi_t^-1 = sum_k (-t N)^k; written out with matrices, not insertions.
    N commutes with the structure maps, so the conjugate is again an algebra
    with a Rota-Baxter family of the same weight, to every order.
    """
    om, d = a.omega, a.dim
    neg = [nmat.scale(-1).power(k) for k in range(order + 1)]
    nb = [Mat.identity(d), nmat]
    mu_orders, r_orders = [], []
    for k in range(1, order + 1):
        split = [(k - b - c, b, c) for b in (0, 1) for c in (0, 1) if b + c <= k]
        tensors = {}
        for key in a.product:
            t = tensor_zeros(d, d, d)
            for i in range(d):
                for j in range(d):
                    for s, b, c in split:
                        v = neg[s].matvec(a.mul_vec(key, nb[b].col(i), nb[c].col(j)))
                        t[i][j] = [u + w for u, w in zip(t[i][j], v)]
            tensors[key] = t
        mu_orders.append(cochain_from_tensors(om, d, d, tensors))
        maps = {x: neg[k].mul(r).add(neg[k - 1].mul(r).mul(nmat)) for x, r in rb.maps.items()}
        r_orders.append(cochain_from_maps(om, maps, d, d))
    return mu_orders, r_orders


def _order_flags(ctx, mu_orders, r_orders):
    rep = check_jet(ctx, DeformationJet(len(mu_orders), mu_orders, r_orders))
    return [o.associativity and o.operator_identity for o in rep.orders]


def test_conjugated_jets_pass_every_order_and_perturbations_fail():
    """Conjugating by id + t N gives jets that pass check_jet at orders 1-3
    and the truncated-polynomial oracles; on the identity-twisted carriers
    every component is nonzero.  A perturbed order-k component fails order k."""
    rng = random.Random(71)
    order = 3
    cases = []
    for a in (samples.build_truncated_poly(2), samples.build_diag(2)):
        for weight in (Rat(-1), Rat(1)):
            rb = samples.searched_rb(a, weight)
            for _ in range(2):
                nmat = Mat.from_rows([[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)])
                cases.append((a, rb, nmat))
    c2 = samples.c2_rbf_context()
    q = c2.algebra.qmap[0]
    for coef_i, coef_q in ((1, 2), (-1, 1)):
        cases.append((c2.algebra, c2.rb, Mat.identity(2).scale(coef_i).add(q.scale(coef_q))))
    for a, rb, nmat in cases:
        ctx = RbfContext.validated(a, rb, regular_bimodule(a, rb))
        mu_orders, r_orders = _conjugated_jet(a, rb, nmat, order)
        if a is not c2.algebra:  # on c2, N commutes with R and only mu_1 is nonzero
            assert not any(f.is_zero() for f in mu_orders + r_orders)
        assert _order_flags(ctx, mu_orders, r_orders) == [True] * order
        assert truncated_algebra_check(a, mu_orders, order)
        assert truncated_rb_check(a, rb, mu_orders, r_orders, order)
        for k in range(order):
            for comps in (mu_orders, r_orders):
                bumped = list(comps)
                f = comps[k]
                coords = [v + rng.randint(-2, 2) for v in f.coords]
                bumped[k] = Cochain(f.degree, f.omega_size, f.dim_in, f.dim_out, coords)
                pair = (bumped, r_orders) if comps is mu_orders else (mu_orders, bumped)
                flags = _order_flags(ctx, *pair)
                assert flags[:k] == [True] * k and not flags[k]
