"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

All equalities are exact rational identities (zero tolerance).  Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import json
import random
import subprocess
import sys
import time
from contextlib import contextmanager

from conftest import FIXTURES, ROOT, fixture_path
from generators import random_valid_algebra, random_valid_pair
from oracles import (
    delta_direct_oracle,
    partial_expanded_oracle,
    trivial_deformation_check,
    truncated_algebra_check,
)

from bihomega import samples
from bihomega.algebra import validate_algebra
from bihomega.bimodule import regular_bimodule, validate_bimodule
from bihomega.cli import render_report, run_command
from bihomega.cochain import (
    Cochain,
    apply_delta,
    cohomology_dims,
    dd_zero_witness,
    delta_op,
    equivariant_basis,
    random_equivariant,
)
from bihomega.deformation import (
    DeformationJet,
    NijenhuisFamily,
    check_jet,
    check_nijenhuis,
    deformed_product,
    equivalence_shift,
    psi_n,
)
from bihomega.errors import InternalCheckError
from bihomega.extension import CocyclePair, build_extension, compare_extensions, extract_cocycle
from bihomega.gerstenhaber import algebra_with_product, bracket, delta_via_bracket, mc_residual, mu_cochain
from bihomega.linalg import Mat
from bihomega.rationals import ONE, Rat
from bihomega.rbf import (
    CombinedCochain,
    chain_map_check,
    combined_kernel,
    d_combined,
    partial,
    solve_combined,
)
from bihomega.search import first_nonscalar, search_nijenhuis


@contextmanager
def criterion(number: int, label: str, budget: float | None = None):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {number:02d}] FAIL - {label}")
        raise
    elapsed = time.perf_counter() - started
    if budget is not None:
        assert elapsed < budget, f"runtime {elapsed:.1f}s exceeded budget {budget}s"
    print(f"[criterion {number:02d}] PASS - {label} ({elapsed:.2f}s)")


def dd_zero_raw(b, source_degrees):
    """delta(delta(f)) = 0 on every basis cochain, degree by degree.

    For source degree 0 the composite is checked on the part of the image
    that lies inside the complex: when some degree-0 image leaves the
    equivariant subspace, the intersection generators are certified as
    1-cocycles (cohomology_dims raises otherwise); degrees >= 1 are raw
    coordinate checks.
    """
    for n in source_degrees:
        if n >= 1:
            witness = dd_zero_witness(b, [n])
            assert witness is None, witness
            continue
        basis, basis1 = equivariant_basis(b, 0), equivariant_basis(b, 1)
        op_0, op_1 = delta_op(b, 0), delta_op(b, 1)
        clean = True
        for j in range(basis.dim()):
            image = op_0.apply_dense(basis.cochain(j).coords)
            try:
                basis1.coords_of(image)
            except InternalCheckError:
                clean = False
                break
            assert not any(op_1.apply_dense(image)), (n, j)
        if not clean:
            cohomology_dims(b, 1)  # asserts the defined part is killed


def dd_zero_matrices(b, max_source: int):
    """Matrix products of consecutive coboundary matrices vanish.

    When the degree-0 image leaves the equivariant subspace, degree 0 is
    covered through its defined part instead (cohomology_dims certifies the
    intersection generators as 1-cocycles), and products start at degree 1.
    """
    from bihomega.cochain import delta_matrix

    mats = {}
    start = 0
    try:
        mats[0] = delta_matrix(b, 0)
    except InternalCheckError:
        cohomology_dims(b, 1)
        start = 1
    for n in range(start if start else 1, max_source + 2):
        mats[n] = delta_matrix(b, n)
    for n in range(start, max_source + 1):
        assert mats[n + 1].mul(mats[n]).is_zero(), n


def test_criterion_01_dd_zero():
    with criterion(1, "coboundary squares to zero (fixtures + 50 random pairs)", 60.0):
        named = [
            regular_bimodule(samples.build_e0()),
            regular_bimodule(samples.build_e1()),
            regular_bimodule(samples.build_e1_semidirect()),
        ]
        for b in named:
            assert validate_bimodule(b) is None
            dd_zero_raw(b, range(0, 4))
            dd_zero_matrices(b, 2)
        rng = random.Random(20240817)
        drawn = 0
        while drawn < 50:
            a, b = random_valid_pair(rng)
            assert a.dim <= 3 and b.dim_m <= 2 and a.omega.size <= 2
            from bihomega.cochain import degree0_sound

            if not degree0_sound(b):
                # valid pairs exist whose displayed degree-0 differential is
                # not part of the complex (documented); the battery draws
                # from the sound sub-family
                continue
            dd_zero_raw(b, range(0, 3))
            drawn += 1


def test_criterion_02_graded_lie_laws():
    with criterion(2, "graded skew-symmetry and Jacobi on 100 random triples", 120.0):
        rng = random.Random(424242)
        for trial in range(100):
            a = random_valid_algebra(rng, max_dim=2)
            reg = regular_bimodule(a)
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


def test_criterion_03_maurer_cartan_equivalence():
    with criterion(3, "bracket square vanishes iff the product validates (200 candidates)"):
        rng = random.Random(31337)
        carriers = [samples.build_e1(), samples.build_c2_example(0)]
        count = 0
        for trial in range(194):
            a = carriers[trial % 2]
            reg = regular_bimodule(a)
            f = random_equivariant(reg, 2, rng)
            residual_zero = mc_residual(a, f, check=False).is_zero()
            valid = validate_algebra(algebra_with_product(a, f)) is None
            assert residual_zero == valid
            count += 1
        # known-valid candidates exercise the forward direction
        for a in carriers:
            for c in (Rat(0), ONE, Rat(-2)):
                f = mu_cochain(a).scale(c)
                assert mc_residual(a, f, check=False).is_zero()
                assert validate_algebra(algebra_with_product(a, f)) is None
                count += 1
        assert count == 200


def test_criterion_04_bracket_form_coboundary():
    with criterion(4, "bracket-form coboundary equals the direct sum, degrees 1..3"):
        algebras = [
            samples.build_e0(),
            samples.build_zero1(),
            samples.build_e1(),
            samples.build_e1_semidirect(),
            samples.build_c2_example(0),
        ]
        for a in algebras:
            reg = regular_bimodule(a)
            for n in (1, 2, 3):
                basis = equivariant_basis(reg, n)
                for j in range(basis.dim()):
                    f = basis.cochain(j)
                    image = apply_delta(reg, f, check=False)
                    assert delta_via_bracket(a, f, check=False) == image
                    assert image == delta_direct_oracle(reg, f)


def _rbf_contexts():
    return {
        "e1": samples.e1_rbf_context(),
        "c2": samples.c2_rbf_context(),
        "e0": samples.e0_rbf_context(),
        "zero1": samples.zero1_rbf_context(),
    }


def test_criterion_05_chain_map_and_dual_route():
    with criterion(5, "comparison square commutes (0..3) and the differential routes agree"):
        for name, ctx in _rbf_contexts().items():
            assert chain_map_check(ctx, 3) is None, name
            om, d, m = ctx.dims()
            star = ctx.star_bimodule()
            cochains = []
            for j in range(m):
                f = Cochain.zero(0, om.size, d, m)
                f.coords[j] = ONE
                cochains.append(f)
            for n in (1, 2, 3):
                basis = ctx.basis(n)
                cochains.extend(basis.cochain(j) for j in range(basis.dim()))
            for f in cochains:
                image = partial(ctx, f, check=False)
                assert image == partial_expanded_oracle(ctx, f), (name, f.degree)
                assert image == delta_direct_oracle(star, f), (name, f.degree)


def test_criterion_06_star_and_induced_structures():
    with criterion(6, "derived algebra, projection homomorphism, induced bimodule"):
        for name, ctx in _rbf_contexts().items():
            star = ctx.star_algebra()
            assert validate_algebra(star) is None, name
            from bihomega.algebra import is_homomorphism

            assert is_homomorphism(ctx.rb.maps, star, ctx.algebra) is None, name
            induced = ctx.star_bimodule()
            assert validate_bimodule(induced) is None, name
            assert induced.base.product == star.product


def test_criterion_07_nijenhuis_battery():
    with criterion(7, "Nijenhuis families: named cases plus 50 random non-members"):
        e1 = samples.build_e1()
        enumerated = first_nonscalar(search_nijenhuis(e1, 1))
        assert enumerated is not None
        families = [
            NijenhuisFamily({0: Mat.zeros(2, 2)}),
            NijenhuisFamily({0: Mat.identity(2)}),
            enumerated,
        ]
        for nf in families:
            assert check_nijenhuis(e1, nf) is None
            deformed, hom_witness = deformed_product(e1, nf, check=False)
            assert validate_algebra(deformed) is None
            assert hom_witness is None
            psi, rep = psi_n(e1, nf.maps)
            assert psi.is_zero() and rep.psi_zero
            td = trivial_deformation_check(e1, nf)
            assert all(td.values()), td
            # first-order deformed product stays an algebra modulo t^2
            from bihomega.deformation import deformed_mu

            assert truncated_algebra_check(e1, [deformed_mu(e1, nf.maps)], 2)
        rng = random.Random(90210)
        carriers = [samples.build_diag(2), samples.build_truncated_poly(2)]
        non_members = 0
        while non_members < 50:
            a = carriers[non_members % 2]
            maps = {0: Mat.from_rows([[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)])}
            if check_nijenhuis(a, NijenhuisFamily(maps)) is None:
                continue
            _, rep = psi_n(a, maps)
            assert rep.deformed_valid == rep.psi_cocycle
            assert not rep.psi_zero
            non_members += 1


def test_criterion_08_hochschild_sanity():
    with criterion(8, "degree ladder of the unit and zero algebras vs the external oracle"):
        rep_e0 = cohomology_dims(regular_bimodule(samples.build_e0()), 3)
        assert rep_e0.dims() == [1, 0, 0, 0]
        rep_zero = cohomology_dims(regular_bimodule(samples.build_zero1()), 3)
        assert rep_zero.dims() == [1, 1, 1, 1]
        script = ROOT / "tools" / "oracle" / "hochschild_dims.py"
        proc = subprocess.run(
            [sys.executable, str(script)], capture_output=True, text=True, check=True
        )
        oracle = json.loads(proc.stdout)
        ours_e0 = [
            [r.dim_cochains, r.dim_cocycles, r.dim_coboundaries, r.dim_cohomology]
            for r in rep_e0.rows
        ]
        ours_zero = [
            [r.dim_cochains, r.dim_cocycles, r.dim_coboundaries, r.dim_cohomology]
            for r in rep_zero.rows
        ]
        assert oracle["e0"]["dims"] == ours_e0
        assert oracle["zero1"]["dims"] == ours_zero


def test_criterion_09_extension_cocycle_correspondence():
    with criterion(9, "extensions validate iff pairs are cocycles; classes decide isomorphism"):
        ctx = samples.e1_rbf_context()
        kers = combined_kernel(ctx, 2)
        assert kers
        for x in kers:
            pair = CocyclePair(x.alg, x.rbf)
            build = build_extension(ctx, pair)
            assert build.valid() and build.is_cocycle
            back, bim = extract_cocycle(build.presentation)
            assert back == pair
        rng = random.Random(5150)
        rejected = 0
        while rejected < 20:
            pair = CocyclePair(
                random_equivariant(ctx.bimodule, 2, rng),
                random_equivariant(ctx.bimodule, 1, rng),
            )
            if d_combined(ctx, pair.combined(), check=False).is_zero():
                continue
            build = build_extension(ctx, pair)
            assert not build.valid() and not build.is_cocycle
            rejected += 1
        # cohomologous pairs produce a fully verified isomorphism
        base_pair = CocyclePair(kers[0].alg, kers[0].rbf)
        build1 = build_extension(ctx, base_pair)
        eta = random_equivariant(ctx.bimodule, 1, rng)
        shift = d_combined(
            ctx, CombinedCochain(eta, Cochain.zero(0, 1, 2, 2)), check=False
        )
        pair2 = CocyclePair(base_pair.psi.add(shift.alg), base_pair.chi.add(shift.rbf))
        build2 = build_extension(ctx, pair2)
        report = compare_extensions(build1.presentation, build2.presentation)
        assert report.cohomologous and report.iso is not None
        # an independent class is recognized as such
        independent = None
        for x in kers:
            pair = CocyclePair(x.alg, x.rbf)
            if solve_combined(ctx, 1, pair.combined().sub(base_pair.combined())) is None:
                independent = pair
                break
        assert independent is not None
        build3 = build_extension(ctx, independent)
        report = compare_extensions(build1.presentation, build3.presentation)
        assert not report.cohomologous and report.iso is None


def test_criterion_10_order_one_deformation():
    with criterion(10, "order-1 jets: kernel passes, images pass, shifts land in the kernel"):
        ctx = samples.e1_rbf_context()
        for x in combined_kernel(ctx, 2):
            jet = DeformationJet(1, [x.alg], [x.rbf])
            assert check_jet(ctx, jet).all_ok()
        rng = random.Random(8675309)
        for _ in range(10):
            eta = random_equivariant(ctx.bimodule, 1, rng)
            shift = equivalence_shift(ctx, eta)
            jet = DeformationJet(1, [shift.alg], [shift.rbf])
            assert check_jet(ctx, jet).all_ok()
            assert d_combined(ctx, shift, check=False).is_zero()


def test_criterion_11_determinism_and_round_trip():
    with criterion(11, "byte-stable files and seed-reproducible reports"):
        for path in sorted(FIXTURES.glob("*.json")):
            text = path.read_text(encoding="utf-8")
            if '"schema"' not in text:
                continue
            from bihomega.serialization import parse_workbench, serialize_workbench

            assert serialize_workbench(parse_workbench(text)) == text, path.name
        commands = [
            ["--no-timing", "cohomology", fixture_path("e1_rbf.json"), "--complex", "rbfa"],
            ["--no-timing", "validate", fixture_path("e1_rbf.json")],
            ["--no-timing", "selftest", "--seed", "99", "--samples", "10"],
            ["--no-timing", "search-rbf", fixture_path("e1.json"), "--bound", "1", "--weight", "-1"],
        ]
        for argv in commands:
            first = render_report(run_command(list(argv))[0])
            second = render_report(run_command(list(argv))[0])
            assert first == second, argv
