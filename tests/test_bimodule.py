import random

import pytest
from oracles import bimodule_equal

from bihomega import samples
from bihomega.algebra import validate_algebra, zero_rb
from bihomega.bimodule import (
    BimoduleAlgebraData,
    OmegaBimodule,
    induced_module_star,
    rbf_semidirect,
    regular_bimodule,
    semidirect_product,
    validate_bimodule,
    validate_bimodule_algebra,
    validate_rbf_bimodule,
    zero_bimodule,
)
from bihomega.errors import PreconditionError
from bihomega.linalg import Mat
from bihomega.monoid import trivial_monoid
from bihomega.rationals import ONE, ZERO, Rat


def copy_actions(b):
    left = {k: [[list(col) for col in plane] for plane in t] for k, t in b.left.items()}
    right = {k: [[list(col) for col in plane] for plane in t] for k, t in b.right.items()}
    return left, right


def direct_module_tensors(omega, params):
    """Transcription of the displayed one-dimensional module formulas."""
    left, right = {}, {}
    for x in omega.elements():
        for y in omega.elements():
            cv = params.c[(x, y)]
            left[(x, y)] = [[[cv]], [[cv]]]
            right[(x, y)] = [[[cv], [cv]]]
    return left, right


def test_regular_bimodule_of_e1_ok(e1_regular):
    assert validate_bimodule(e1_regular) is None


def test_module_example_matches_formulas_and_validates(e1):
    om = trivial_monoid()
    params = samples.unit_params(om)
    bim = samples.module_bimodule(e1, params)
    left, right = direct_module_tensors(om, params)
    assert bim.left == left and bim.right == right
    assert validate_bimodule(bim) is None


def test_left_action_zeroed_right_kept_is_still_valid(e1, e1_regular):
    # every identity mentioning the left action carries it on both sides,
    # so zeroing it cannot break anything (the quoted counterexample in the
    # build notes was wrong; the scan oracle agrees)
    left, right = copy_actions(e1_regular)
    for key in left:
        left[key] = [[[ZERO, ZERO] for _ in range(2)] for _ in range(2)]
    b = OmegaBimodule(e1, 2, left, right, dict(e1_regular.pmap), dict(e1_regular.qmap))
    assert validate_bimodule(b) is None


def test_perturbed_action_witness(e1, e1_regular):
    left, right = copy_actions(e1_regular)
    left[(0, 0)][0][0][0] += ONE
    b = OmegaBimodule(e1, 2, left, right, dict(e1_regular.pmap), dict(e1_regular.qmap))
    witness = validate_bimodule(b)
    assert witness is not None


def test_semidirect_of_zero_regular_is_zero():
    a = samples.build_zero1()
    sd = semidirect_product(regular_bimodule(a))
    assert sd.dim == 2
    assert all(all(all(v == 0 for v in col) for col in plane) for t in sd.product.values() for plane in t)
    assert validate_algebra(sd) is None


def test_semidirect_e1_module_validates(e1):
    sd = samples.build_e1_semidirect()
    assert validate_algebra(sd) is None


def test_semidirect_iff_bimodule_valid(e1, e1_regular):
    left, right = copy_actions(e1_regular)
    left[(0, 0)][1][0][1] += Rat(2)
    broken = OmegaBimodule(e1, 2, left, right, dict(e1_regular.pmap), dict(e1_regular.qmap))
    assert validate_bimodule(broken) is not None
    from bihomega.bimodule import _semidirect_algebra

    total = _semidirect_algebra(broken, bullet=None)
    assert validate_algebra(total) is not None
    with pytest.raises(PreconditionError):
        semidirect_product(broken)


def test_bimodule_algebra_zero_bullet_reduces(e1, e1_regular):
    d = e1.dim
    bullet = {k: [[[ZERO] * d for _ in range(d)] for _ in range(d)] for k in e1.product}
    assert validate_bimodule_algebra(e1_regular, BimoduleAlgebraData(bullet)) is None


def test_bimodule_algebra_regular_with_product_bullet(e1, e1_regular):
    extra = BimoduleAlgebraData({k: t for k, t in e1.product.items()})
    assert validate_bimodule_algebra(e1_regular, extra) is None


def test_bimodule_algebra_perturbed_routes_agree(e1, e1_regular):
    bullet = {k: [[list(col) for col in plane] for plane in t] for k, t in e1.product.items()}
    bullet[(0, 0)][1][1][0] += ONE
    witness = validate_bimodule_algebra(e1_regular, BimoduleAlgebraData(bullet))
    # agreement of the two routes is asserted inside; reaching here with a
    # witness means both failed
    assert witness is not None


def test_rbf_bimodule_trivial_cases(e1):
    b = zero_bimodule(e1, 1, tmap={0: Mat.zeros(1, 1)})
    assert validate_rbf_bimodule(b, zero_rb(e1)) is None


def test_regular_rbf_bimodule_whenever_family_checks(e1_ctx):
    assert validate_rbf_bimodule(e1_ctx.bimodule, e1_ctx.rb) is None


def test_rbf_bimodule_requires_tmap(e1, e1_regular):
    with pytest.raises(PreconditionError):
        validate_rbf_bimodule(e1_regular, zero_rb(e1))


def test_rbf_semidirect_iff(e1_ctx):
    total, total_rb = rbf_semidirect(e1_ctx.bimodule, e1_ctx.rb)
    assert validate_algebra(total) is None
    from bihomega.algebra import check_rota_baxter

    assert check_rota_baxter(total, total_rb) is None
    # break the tmap: combined check fails and so does the bimodule check
    bad_t = {0: Mat.from_rows([[1, 1], [1, 1]])}
    b = e1_ctx.bimodule
    broken = OmegaBimodule(b.base, b.dim_m, b.left, b.right, b.pmap, b.qmap, bad_t)
    assert validate_bimodule(broken) is None  # plain bimodule laws unaffected
    bad_witness = None
    try:
        bad_witness = validate_rbf_bimodule(broken, e1_ctx.rb)
    except PreconditionError:
        pytest.fail("precondition should hold; only the weighted identities fail")
    assert bad_witness is not None
    total2, total2_rb = rbf_semidirect(broken, e1_ctx.rb)
    assert check_rota_baxter(total2, total2_rb) is not None


def test_induced_module_star_validates(e1_ctx):
    star = e1_ctx.star_algebra()
    induced = e1_ctx.star_bimodule()
    assert validate_bimodule(induced) is None
    assert induced.base.product == star.product


def test_induced_module_star_zero_family(e1):
    rb = zero_rb(e1, ONE)
    b = regular_bimodule(e1, rb)  # tmap = 0 family
    induced = induced_module_star(b, rb)
    # with R = 0 and T = 0 both derived actions are identically zero
    assert all(
        all(all(v == 0 for v in col) for col in plane) for t in induced.left.values() for plane in t
    )
    assert validate_bimodule(induced) is None


def test_induced_module_dim_zero(e1):
    rb = zero_rb(e1)
    b = zero_bimodule(e1, 0, tmap={0: Mat.zeros(0, 0)})
    assert validate_rbf_bimodule(b, rb) is None
    induced = induced_module_star(b, rb)
    assert induced.dim_m == 0
    assert validate_bimodule(induced) is None


def test_induced_module_on_random_rbf_instances(e1_ctx, c2_ctx, e0_ctx):
    for ctx in (e1_ctx, c2_ctx, e0_ctx):
        induced = induced_module_star(ctx.bimodule, ctx.rb)
        assert validate_bimodule(induced) is None
    # zero-action coefficient spaces with random diagonal operator families
    rng = random.Random(83)
    for ctx in (e1_ctx, c2_ctx):
        a = ctx.algebra
        dm = 2
        for _ in range(5):
            tmap = {}
            for x in a.omega.elements():
                t = Mat.zeros(dm, dm)
                for i in range(dm):
                    t.entries[i * dm + i] = Rat(rng.randint(-2, 2))
                tmap[x] = t
            b = zero_bimodule(a, dm, tmap=tmap)
            assert validate_rbf_bimodule(b, ctx.rb) is None
            induced = induced_module_star(b, ctx.rb)
            assert validate_bimodule(induced) is None


def test_bimodule_equal_helper(e1_regular):
    assert bimodule_equal(e1_regular, e1_regular)
