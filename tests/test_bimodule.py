import json
import random
from collections import Counter

import pytest
from conftest import FIXTURES, fixture_path, fixture_text
from generators import random_valid_algebra, random_valid_pair
from oracles import bimodule_equal, rbf_action_scan_oracle, validate_bimodule_oracle

from bihomega import samples
from bihomega.algebra import OmegaAlgebra, RotaBaxterFamily, star_product, validate_algebra, zero_rb
from bihomega.bimodule import (
    BimoduleAlgebraData,
    OmegaBimodule,
    _rbf_action_scan,
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
from bihomega.serialization import parse_workbench


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
    star = star_product(e1_ctx.algebra, e1_ctx.rb)
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


# -- scans that coincide run once ---------------------------------------------


def _copied(b, tmap=None):
    """A bimodule with fresh copies of b's actions and maps (equal, not identical)."""
    def mats(fam):
        return None if fam is None else {k: Mat(m.rows, m.cols, list(m.entries)) for k, m in fam.items()}

    left, right = copy_actions(b)
    return OmegaBimodule(b.base, b.dim_m, left, right, mats(b.pmap), mats(b.qmap), mats(tmap or b.tmap))


def _perturbed(rng, b, field):
    """A copy of b with one entry of ``field`` (left, right, pmap, qmap or tmap) raised by one."""
    out = _copied(b)
    fam = getattr(out, field)
    key = rng.choice(sorted(fam))
    if field in ("left", "right"):
        t = fam[key]
        i = rng.randrange(len(t))
        j = rng.randrange(len(t[i]))
        t[i][j][rng.randrange(len(t[i][j]))] += ONE
    else:
        fam[key].entries[rng.randrange(len(fam[key].entries))] += ONE
    return out


def _assert_scans_match_oracles(b, rb=None):
    assert validate_bimodule(b) == validate_bimodule_oracle(b)
    if rb is not None and b.tmap is not None:
        assert _rbf_action_scan(b, rb) == rbf_action_scan_oracle(b, rb)


def _fixture_bimodules():
    """(name, bimodule, family or None) of every fixture with a bimodule block."""
    out = []
    for path in sorted(FIXTURES.glob("*.json")):
        if "schema" not in json.loads(path.read_text(encoding="utf-8")):
            continue
        wf = parse_workbench(path.read_text(encoding="utf-8"))
        if wf.bimodule is not None:
            out.append((path.name, wf.bimodule, wf.rota_baxter))
    return out


def test_deduplicated_scans_match_the_full_chains_on_every_fixture_bimodule():
    cases = _fixture_bimodules()
    assert len(cases) == 9
    regular = 0
    for name, b, rb in cases:
        _assert_scans_match_oracles(b, rb)
        _assert_scans_match_oracles(_copied(b), rb)
        regular += b.left == b.right == b.base.product and rb is not None and b.tmap == rb.maps
    assert regular == 8  # M = A with T = R: the repeated scans are skipped


def test_deduplicated_scans_match_the_full_chains_on_random_bimodules():
    for seed in range(12):
        rng = random.Random(seed)
        a, b = random_valid_pair(rng)
        t = {x: Mat.zeros(b.dim_m, b.dim_m) for x in a.omega.elements()}
        _assert_scans_match_oracles(_copied(b, tmap=t), zero_rb(a, Rat(rng.choice((-1, 0, 1)))))


def test_deduplicated_scans_match_the_full_chains_on_perturbed_regular_bimodules():
    """Regular bimodules of seeded random algebras with T = R (R zero or
    -weight times the identity, both Rota-Baxter on any algebra), then every
    single-entry perturbation kind of their actions and maps, and of the
    algebra's own product (shared by both actions, so the left scans fail)."""
    checked = 0
    for seed in range(10):
        rng = random.Random(100 + seed)
        a = random_valid_algebra(rng)
        w = Rat(rng.choice((-1, 1, 2)))
        constant = RotaBaxterFamily(w, {x: Mat.scalar(a.dim, -w) for x in a.omega.elements()})
        rb = rng.choice((zero_rb(a, w), constant))
        b = regular_bimodule(a, rb)
        assert validate_bimodule(b) is None and _rbf_action_scan(b, rb) is None
        _assert_scans_match_oracles(b, rb)
        for field in ("left", "right", "pmap", "qmap", "tmap"):
            for _ in range(3):
                _assert_scans_match_oracles(_perturbed(rng, b, field), rb)
                checked += 1
        product = {k: [[list(col) for col in plane] for plane in t] for k, t in a.product.items()}
        key = rng.choice(sorted(product))
        product[key][rng.randrange(a.dim)][rng.randrange(a.dim)][rng.randrange(a.dim)] += ONE
        broken = OmegaAlgebra(a.omega, a.dim, product, a.pmap, a.qmap)
        _assert_scans_match_oracles(regular_bimodule(broken, rb), rb)
    assert checked == 150


def test_validate_runs_one_scan_per_kind_on_a_regular_bimodule(monkeypatch):
    """On e1_rbf.json (M = A, T = R) a bimodule check runs one twisted
    associativity scan, one intertwining scan and one weighted scan; the
    full chains run three, two and two."""
    import oracles

    from bihomega import bimodule, cli

    counts = Counter()
    for module in (bimodule, oracles):
        for name in ("_assoc_scan", "_intertwining_scan", "_weighted_scan"):
            original = getattr(module, name)
            tag = (module.__name__.split(".")[-1], name)
            monkeypatch.setattr(module, name, lambda *a, _f=original, _t=tag: counts.update([_t]) or _f(*a))
    report, code = cli.run_command(["--no-timing", "validate", fixture_path("e1_rbf.json")])
    assert code == 0 and report["checks"]["bimodule"] == report["checks"]["rbf_bimodule"] == "ok"
    assert counts == {("bimodule", "_assoc_scan"): 1, ("bimodule", "_intertwining_scan"): 1,
                      ("bimodule", "_weighted_scan"): 1}
    counts.clear()
    wf = parse_workbench(fixture_text("e1_rbf.json"))
    assert validate_bimodule_oracle(wf.bimodule) is None
    assert rbf_action_scan_oracle(wf.bimodule, wf.rota_baxter) is None
    assert counts == {("oracles", "_assoc_scan"): 3, ("oracles", "_intertwining_scan"): 2,
                      ("oracles", "_weighted_scan"): 2}


def test_validation_stages_share_the_scans_that_passed(monkeypatch):
    """``validate`` and ``RbfContext.validated`` on the rbf fixtures (M = A,
    T = R): the bimodule's left intertwining and associativity scans and its
    T-commute and weighted scans repeat the algebra's and the family's, so
    each kind runs once; run stage by stage, each kind runs twice."""
    from contextlib import nullcontext

    from bihomega import algebra, bimodule, cli, rbf

    counts = Counter()
    for name in ("_assoc_scan", "_intertwining_scan", "_weighted_scan", "_commute_scan"):
        counting = (lambda f, tag: lambda *a: counts.update([tag]) or f(*a))(getattr(algebra, name), name)
        for module in (algebra, bimodule):  # one wrapper object, so the chains still see equal scans
            monkeypatch.setattr(module, name, counting)

    def runs(name: str) -> tuple:
        counts.clear()
        assert cli.run_command(["--no-timing", "validate", fixture_path(name)])[1] == 0
        by_command = dict(counts)
        counts.clear()
        wf = parse_workbench(fixture_text(name))
        rbf.RbfContext.validated(wf.algebra, wf.rota_baxter, wf.bimodule)
        return by_command, dict(counts)

    names = ("e0_rbf.json", "e1_rbf.json", "zero1_rbf.json", "c2_rbf.json")
    kinds = ("_assoc_scan", "_intertwining_scan", "_weighted_scan", "_commute_scan")
    for name in names:
        assert runs(name) == (dict.fromkeys(kinds, 1),) * 2, name
    for module in (cli, rbf):
        monkeypatch.setattr(module, "_one_validation", nullcontext)
    for name in names:
        assert runs(name) == (dict.fromkeys(kinds, 2),) * 2, name


def test_cohomology_alg_validates_once(monkeypatch):
    """``cohomology --complex alg`` validates the algebra and then, in the
    table, its regular bimodule, as one validation: on e1.json and c2.json
    each intertwining and associativity scan runs once, as in ``validate``."""
    from bihomega import algebra, bimodule, cli

    counts = Counter()
    for name in ("_assoc_scan", "_intertwining_scan"):
        counting = (lambda f, tag: lambda *a: counts.update([tag]) or f(*a))(getattr(algebra, name), name)
        for module in (algebra, bimodule):  # one wrapper object, so the chains still see equal scans
            monkeypatch.setattr(module, name, counting)
    for name in ("e1.json", "c2.json"):
        for command in (["validate"], ["cohomology", "--complex", "alg", "--max-degree", "2"]):
            counts.clear()
            assert cli.run_command(["--no-timing", *command, fixture_path(name)])[1] == 0
            assert counts == {"_assoc_scan": 1, "_intertwining_scan": 1}, (name, command)


def _validation_outcomes(wf, path: str) -> tuple:
    """The ``validate`` report and exit code of ``path``, and what
    ``RbfContext.validated`` raises on its blocks (None when it accepts or
    a block is missing)."""
    from bihomega.cli import run_command
    from bihomega.errors import WorkbenchError
    from bihomega.rbf import RbfContext

    refusal = None
    try:
        if None not in (wf.algebra, wf.rota_baxter, wf.bimodule):
            RbfContext.validated(wf.algebra, wf.rota_baxter, wf.bimodule)
    except WorkbenchError as exc:
        refusal = (type(exc).__name__, str(exc))
    return run_command(["--no-timing", "validate", path]), refusal


def test_shared_validation_reports_match_stage_by_stage(monkeypatch, tmp_path):
    """Every fixture, and each rbf fixture with one entry of its actions, its
    module maps, T or R raised by one: ``validate``'s checks, witness and
    exit code and ``RbfContext.validated``'s message are those of the stages
    run one by one, without sharing scans."""
    from contextlib import nullcontext

    from bihomega import cli, rbf
    from bihomega.serialization import WorkbenchFile, serialize_workbench

    cases = [(parse_workbench(path.read_text(encoding="utf-8")), str(path))
             for path in sorted(FIXTURES.glob("*.json"))
             if "schema" in json.loads(path.read_text(encoding="utf-8"))]
    rng = random.Random(61)
    for name, b, rb in _fixture_bimodules():
        if rb is None or b.tmap is None:
            continue
        wf = parse_workbench(fixture_text(name))
        variants = [(rb, _perturbed(rng, b, field)) for field in ("left", "right", "pmap", "qmap", "tmap")]
        maps = {x: Mat(m.rows, m.cols, list(m.entries)) for x, m in rb.maps.items()}
        maps[0].entries[rng.randrange(len(maps[0].entries))] += ONE
        variants.append((RotaBaxterFamily(rb.weight, maps), b))
        for i, (family, bim) in enumerate(variants):
            path = tmp_path / f"{i}_{name}"
            variant = WorkbenchFile(wf.monoid, wf.monoid_names, wf.algebra, family, bim)
            path.write_text(serialize_workbench(variant), encoding="utf-8")
            cases.append((parse_workbench(path.read_text(encoding="utf-8")), str(path)))
    shared = [_validation_outcomes(wf, path) for wf, path in cases]
    for module in (cli, rbf):
        monkeypatch.setattr(module, "_one_validation", nullcontext)
    alone = [_validation_outcomes(wf, path) for wf, path in cases]
    assert shared == alone
    failed = Counter(next(k for k, v in report["checks"].items() if v == "witness")
                     for (report, code), _ in shared if code == 1)
    assert set(failed) == {"algebra", "rota_baxter", "bimodule", "rbf_bimodule"}
    assert sum(failed.values()) >= 40 and sum(refusal is not None for _, refusal in shared) >= 40
