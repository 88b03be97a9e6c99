import random

import pytest
from oracles import TPoly, trivial_deformation_check, truncated_algebra_check, truncated_rb_check

from bihomega import samples
from bihomega.algebra import validate_algebra
from bihomega.bimodule import regular_bimodule
from bihomega.cochain import Cochain, random_equivariant
from bihomega.deformation import (
    DeformationJet,
    NijenhuisFamily,
    check_jet,
    check_linear_deformation,
    check_nijenhuis,
    deformed_product,
    equivalence_shift,
    psi_n,
    rigidity_report,
)
from bihomega.errors import PreconditionError
from bihomega.gerstenhaber import mu_cochain
from bihomega.linalg import Mat
from bihomega.rationals import ONE, Rat
from bihomega.rbf import CombinedCochain, RbfContext, combined_kernel, d_combined
from bihomega.search import first_nonscalar, search_nijenhuis


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
    from bihomega.deformation import deformed_product_tensor

    mun = deformed_product_tensor(e1, nf.maps)
    mu1 = Cochain.zero(2, 1, 2, 2)
    for key in e1.product:
        base = mu1.block_base(key)
        for i in range(2):
            for j in range(2):
                off = base + (i * 2 + j) * 2
                for k in range(2):
                    mu1.coords[off + k] = mun[key][i][j][k]
    assert truncated_algebra_check(e1, [mu1], 2)


def test_searches_refuse_a_negative_bound(e1):
    """(2 * bound + 1)^cells is 1 for bound = -1 and an even number of
    cells, so the size cap alone let the empty search answer "none found"."""
    from bihomega.errors import MalformedInputError
    from bihomega.search import search_rbf

    for bound in (-1, -2):
        with pytest.raises(MalformedInputError, match="non-negative"):
            search_rbf(e1, bound, 0)
        with pytest.raises(MalformedInputError, match="non-negative"):
            search_nijenhuis(e1, bound)
