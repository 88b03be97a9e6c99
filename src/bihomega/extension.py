"""Abelian extensions: building from 2-cocycles, extracting them back,
and deciding cohomology classes.

An extension presentation is a split short exact sequence in matrix form:
inclusion and retraction for the kernel M, projection and section for the
quotient A, all commuting with the structure maps and the operator
families, with M multiplying trivially inside the total algebra.  Each law
is spelled once, on the scans of :mod:`bihomega.algebra`: the column scan
reads the twelve of :func:`_laws` at each index (a supplied section, the
three section laws among them), and one intertwining scan the projection's
multiplicativity and the abelian kernel, incl[ab] 0 = incl[a] e_l incl[b] e_l2.

Building from a pair (psi, chi): the total starts as the semidirect product
:func:`bihomega.bimodule.rbf_semidirect`; psi is written into the module
component of the product on pairs of base vectors and chi into the
lower-left block of the operator family, which becomes (R, chi + T).  The
inclusion, projection, section and retraction are partial identities.  The
total is a valid Rota-Baxter family algebra exactly when the pair is a
combined 2-cocycle; both sides of that equivalence are computed and compared
on every build, the validity side by the twisted-associativity and weighted
scans of :mod:`bihomega.algebra` on A (+) M.

Extracting reads everything through the section s and one step,
:func:`_module_part`: check that a vector of the total projects to 0, then
retract it into M.  The actions are the module parts of s(a) m and m s(a);
psi(a, b) is that of s(a) s(b) - s(ab) and chi(a) that of T s(a) - s(R a),
flattened into cochains by ``cochain_from_tensors`` and ``cochain_from_maps``.
"""

from __future__ import annotations

from .algebra import (
    OmegaAlgebra,
    RotaBaxterFamily,
    Witness,
    _column_witness,
    _first,
    _intertwining_scan,
    _refuse_witness,
    check_rota_baxter,
    is_homomorphism,
    tensor_zeros,
    validate_algebra,
)
from .bimodule import OmegaBimodule, _rbf_action_scan, _require_bimodule, rbf_semidirect
from .cochain import Cochain, apply_delta, cochain_from_maps, cochain_from_tensors, is_equivariant, maps_from_cochain
from .errors import InternalCheckError, MalformedInputError, PreconditionError
from .linalg import Mat
from .rationals import ONE
from .rbf import CombinedCochain, RbfContext, d_combined, solve_combined


class CocyclePair:
    """Degree-2 algebra cochain plus degree-1 operator cochain, both with
    coefficients in the module."""

    __slots__ = ("psi", "chi")

    def __init__(self, psi: Cochain, chi: Cochain):
        self.psi = psi
        self.chi = chi

    def combined(self) -> CombinedCochain:
        return CombinedCochain(self.psi, self.chi)

    def __eq__(self, other):
        return isinstance(other, CocyclePair) and self.psi == other.psi and self.chi == other.chi


class ExtensionPresentation:
    """Base, module maps and total, with the maps of the split sequence per
    monoid element w: ``incl[w]`` dimE x dimM, ``proj[w]`` dimA x dimE,
    ``sect[w]`` dimE x dimA and ``retr[w]`` dimM x dimE."""

    __slots__ = (
        "base", "rb", "dim_m", "pmap_m", "qmap_m", "tmap_m", "total", "total_rb", "incl", "proj", "sect", "retr"
    )

    def __init__(
        self, base: OmegaAlgebra, rb: RotaBaxterFamily, dim_m: int, pmap_m: dict, qmap_m: dict, tmap_m: dict,
        total: OmegaAlgebra, total_rb: RotaBaxterFamily, incl: dict, proj: dict, sect: dict, retr: dict,
    ):
        self.base = base
        self.rb = rb
        self.dim_m = dim_m
        self.pmap_m = pmap_m
        self.qmap_m = qmap_m
        self.tmap_m = tmap_m
        self.total = total
        self.total_rb = total_rb
        self.incl = incl
        self.proj = proj
        self.sect = sect
        self.retr = retr


class ExtensionBuild:
    __slots__ = ("presentation", "algebra_witness", "rb_witness", "is_cocycle")

    def __init__(
        self, presentation: ExtensionPresentation, algebra_witness: Witness | None, rb_witness: Witness | None,
        is_cocycle: bool,
    ):
        self.presentation = presentation
        self.algebra_witness = algebra_witness
        self.rb_witness = rb_witness
        self.is_cocycle = is_cocycle

    def valid(self) -> bool:
        return self.algebra_witness is None and self.rb_witness is None


def build_extension(ctx: RbfContext, pair: CocyclePair) -> ExtensionBuild:
    """Total structure on A (+) M from a (not necessarily cocycle) pair.

    Asserts the classifying equivalence: the total validates as a
    Rota-Baxter family algebra iff the pair is a combined 2-cocycle
    (componentwise: product associativity iff the algebra part is a cocycle,
    operator identity iff the operator part matches the comparison map).
    """
    a = ctx.algebra
    b = ctx.bimodule
    om = a.omega
    d, dm = a.dim, b.dim_m
    psi, chi = pair.psi, pair.chi
    if psi.degree != 2 or chi.degree != 1 or psi.dim_out != dm or chi.dim_out != dm:
        raise MalformedInputError("pair has wrong degrees or coefficient dims")
    if not is_equivariant(b, psi) or not is_equivariant(b, chi):
        raise PreconditionError("pair components must be equivariant")
    n = d + dm
    total, total_rb = rbf_semidirect(b, ctx.rb, check=False)
    for key, t in total.product.items():
        for i in range(d):
            for j in range(d):
                t[i][j][d:] = psi.value(key, (i, j))
    for x, chi_x in maps_from_cochain(chi, om).items():
        for l in range(dm):
            total_rb.maps[x].entries[(d + l) * n : (d + l) * n + d] = chi_x.row(l)
    incl = {x: _partial_identity(n, dm, d) for x in om.elements()}
    proj = {x: _partial_identity(d, n, 0) for x in om.elements()}
    sect = {x: _partial_identity(n, d, 0) for x in om.elements()}
    retr = {x: _partial_identity(dm, n, -d) for x in om.elements()}
    pres = ExtensionPresentation(
        a, ctx.rb, dm, dict(b.pmap), dict(b.qmap), dict(b.tmap), total, total_rb,
        incl, proj, sect, retr,
    )
    algebra_witness = validate_algebra(total)
    rb_witness = check_rota_baxter(total, total_rb)
    image = d_combined(ctx, pair.combined(), check=False)
    alg_zero = image.alg.is_zero()
    rb_zero = image.rbf.is_zero()
    if (algebra_witness is None) != alg_zero:
        raise InternalCheckError("product validity disagrees with the algebra cocycle test")
    if (rb_witness is None) != rb_zero:
        raise InternalCheckError("operator validity disagrees with the comparison cocycle test")
    return ExtensionBuild(pres, algebra_witness, rb_witness, alg_zero and rb_zero)


def _partial_identity(rows: int, cols: int, shift: int) -> Mat:
    """Ones at (r, r - shift) where that column exists: with d = dim A and
    n = d + dim M, the inclusion of M is (n, dim M, d), the projection onto A
    (d, n, 0), the section (n, d, 0) and the retraction (dim M, n, -d)."""
    out = Mat.zeros(rows, cols)
    for r in range(rows):
        if 0 <= r - shift < cols:
            out.entries[r * cols + r - shift] = ONE
    return out


def _laws(e: ExtensionPresentation, x, sect: dict):
    """The twelve laws at monoid element x as (name, lhs, rhs), in scan order, each formed when reached."""
    d, dm, n = e.base.dim, e.dim_m, e.total.dim
    incl, proj, retr, s, tp, tq = e.incl[x], e.proj[x], e.retr[x], sect[x], e.total.pmap[x], e.total.qmap[x]
    yield "projection-section identity", proj.mul(s), Mat.identity(d)
    yield "retraction-inclusion identity", retr.mul(incl), Mat.identity(dm)
    yield "retraction-section vanishing", retr.mul(s), Mat.zeros(dm, d)
    yield "splitting resolution of the identity", incl.mul(retr).add(s.mul(proj)), Mat.identity(n)
    yield "inclusion p-intertwining", tp.mul(incl), incl.mul(e.pmap_m[x])
    yield "inclusion q-intertwining", tq.mul(incl), incl.mul(e.qmap_m[x])
    yield "projection p-intertwining", proj.mul(tp), e.base.pmap[x].mul(proj)
    yield "projection q-intertwining", proj.mul(tq), e.base.qmap[x].mul(proj)
    yield "section p-intertwining", tp.mul(s), s.mul(e.base.pmap[x])
    yield "section q-intertwining", tq.mul(s), s.mul(e.base.qmap[x])
    yield "inclusion operator square", e.total_rb.maps[x].mul(incl), incl.mul(e.tmap_m[x])
    yield "projection operator square", proj.mul(e.total_rb.maps[x]), e.rb.maps[x].mul(proj)


def validate_extension(e: ExtensionPresentation):
    """Raise MalformedInputError naming the first violated presentation law."""
    om = e.base.omega
    d, dm, n = e.base.dim, e.dim_m, e.total.dim
    if n != d + dm:
        raise MalformedInputError("total dimension is not base + module")
    if e.total_rb.weight != e.rb.weight:
        raise MalformedInputError("total and base operator families have different weights")
    for x in om.elements():
        witness = _first(_column_witness(name, (x,), lhs, rhs) for name, lhs, rhs in _laws(e, x, e.sect))
        if witness is not None:
            raise MalformedInputError(f"extension law violated: {witness.equation} at index {x}")
    zero = {key: tensor_zeros(dm, dm, dm) for key in e.total.product}
    witness = _intertwining_scan(("projection multiplicativity", "abelian kernel"), om, (
        (e.proj, e.total.product, e.base.product, e.proj, e.proj),
        (e.incl, zero, e.total.product, e.incl, e.incl),
    ))
    if witness is not None:
        at = witness.omega_indices + witness.basis_indices
        raise MalformedInputError(f"extension law violated: {witness.equation} at index {at}")
    witness = validate_algebra(e.total)
    if witness is not None:
        raise MalformedInputError(f"total algebra invalid: {witness.describe()}")
    witness = check_rota_baxter(e.total, e.total_rb)
    if witness is not None:
        raise MalformedInputError(f"total operator family invalid: {witness.describe()}")


def _section_ok(e: ExtensionPresentation, sect: dict) -> bool:
    elements = e.base.omega.elements()
    if any(sect.get(x) is None or (sect[x].rows, sect[x].cols) != (e.total.dim, e.base.dim) for x in elements):
        return False
    laws = ("projection-section identity", "section p-intertwining", "section q-intertwining")
    return all(lhs == rhs for x in elements for name, lhs, rhs in _laws(e, x, sect) if name in laws)


def _module_part(e: ExtensionPresentation, w, u: list, what: str) -> list:
    """``retr[w] u``, after checking that ``proj[w] u`` is 0."""
    if any(e.proj[w].matvec(u)):
        raise InternalCheckError(f"{what} left the kernel")
    return e.retr[w].matvec(u)


def extract_cocycle(
    e: ExtensionPresentation, section: dict | None = None
) -> tuple[CocyclePair, OmegaBimodule]:
    """Induced bimodule and classifying pair read off through a section.

    The returned pair is certified to be a combined 2-cocycle for the
    induced context; failure of any theory-promised step raises
    InternalCheckError.  The base family is implied by what
    :func:`validate_extension` checks of the total family and the projection.
    """
    validate_extension(e)
    sect = e.sect if section is None else section
    if section is not None and not _section_ok(e, section):
        raise PreconditionError("supplied section violates the section laws")
    a = e.base
    om = a.omega
    d, dm = a.dim, e.dim_m
    elements = om.elements()
    lift = {x: [sect[x].col(i) for i in range(d)] for x in elements}
    kern = {x: [e.incl[x].col(l) for l in range(dm)] for x in elements}
    left, right = {}, {}
    for x in elements:
        for y in elements:
            key, xy = (x, y), om.mul(x, y)
            left[key] = [[_module_part(e, xy, e.total.mul_vec(key, s, k), "left action") for k in kern[y]]
                         for s in lift[x]]
            right[key] = [[_module_part(e, xy, e.total.mul_vec(key, k, s), "right action") for s in lift[y]]
                          for k in kern[x]]
    bim = OmegaBimodule(a, dm, left, right, dict(e.pmap_m), dict(e.qmap_m), dict(e.tmap_m))
    _require_bimodule(bim)
    _refuse_witness(_rbf_action_scan(bim, e.rb), "induced bimodule failed validation", InternalCheckError)

    def defect(w, u: list, v: list, what: str) -> list:
        """The module part of u - sect[w] v: how far the section is from carrying v to u."""
        return _module_part(e, w, [p - q for p, q in zip(u, sect[w].matvec(v))], what)

    tensors = {}
    for x in elements:
        for y in elements:
            key, xy = (x, y), om.mul(x, y)
            tensors[key] = [
                [defect(xy, e.total.mul_vec(key, si, sj), a.mul_basis(key, i, j), "product defect")
                 for j, sj in enumerate(lift[y])]
                for i, si in enumerate(lift[x])
            ]
    maps = {
        x: Mat.from_cols([defect(x, e.total_rb.maps[x].matvec(s), e.rb.maps[x].col(j), "operator defect")
                          for j, s in enumerate(lift[x])], dm)
        for x in elements
    }
    pair = CocyclePair(cochain_from_tensors(om, d, dm, tensors), cochain_from_maps(om, maps, d, dm))
    ctx = RbfContext(a, e.rb, bim)
    if not d_combined(ctx, pair.combined(), check=True).is_zero():
        raise InternalCheckError("extracted pair is not a combined 2-cocycle")
    return pair, bim


class CompareReport:
    """``iso[w]`` is a Mat on the total space when one was constructed, else ``iso`` is None."""

    __slots__ = ("cohomologous", "iso")

    def __init__(self, cohomologous: bool, iso: dict | None):
        self.cohomologous = cohomologous
        self.iso = iso


def compare_extensions(e1: ExtensionPresentation, e2: ExtensionPresentation) -> CompareReport:
    """Decide whether two presentations carry the same cohomology class.

    When the difference of the extracted pairs is a combined coboundary, the
    solving certificate eta is turned into an isomorphism of the totals
    fixing M and A, sect2 proj1 + incl2 (retr1 + eta proj1) at each index
    (in any total bases), and every isomorphism law is verified before
    reporting success.
    """
    if e1.base.product != e2.base.product or e1.base.pmap != e2.base.pmap or e1.base.qmap != e2.base.qmap:
        raise MalformedInputError("extensions live over different base algebras")
    if e1.rb.maps != e2.rb.maps or e1.rb.weight != e2.rb.weight:
        raise MalformedInputError("extensions carry different operator families")
    if e1.dim_m != e2.dim_m or e1.pmap_m != e2.pmap_m or e1.qmap_m != e2.qmap_m or e1.tmap_m != e2.tmap_m:
        raise MalformedInputError("extensions have different module data")
    pair1, b1 = extract_cocycle(e1)
    pair2, b2 = extract_cocycle(e2)
    if b1.left != b2.left or b1.right != b2.right:
        raise MalformedInputError("extensions induce different bimodule actions")
    ctx = RbfContext(e1.base, e1.rb, b1)
    ctx._cache["validated"] = True  # extract_cocycle checked the family (via the total's) and b1's actions
    diff = pair1.combined().sub(pair2.combined())
    sol = solve_combined(ctx, 1, diff)
    if sol is None:
        return CompareReport(False, None)
    eta = sol.alg.add(apply_delta(b1, sol.rbf, check=False))
    iso = {
        x: e2.sect[x].mul(e1.proj[x]).add(e2.incl[x].mul(e1.retr[x].add(eta_x.mul(e1.proj[x]))))
        for x, eta_x in maps_from_cochain(eta, e1.base.omega).items()
    }
    _verify_iso(e1, e2, iso)
    return CompareReport(True, iso)


def _verify_iso(e1: ExtensionPresentation, e2: ExtensionPresentation, iso: dict):
    witness = is_homomorphism(iso, e1.total, e2.total)
    _refuse_witness(witness, "constructed map is not a homomorphism", InternalCheckError)
    om = e1.base.omega
    for x in om.elements():
        if iso[x].mul(e1.total_rb.maps[x]) != e2.total_rb.maps[x].mul(iso[x]):
            raise InternalCheckError("constructed map does not intertwine the operator families")
        if iso[x].mul(e1.incl[x]) != e2.incl[x]:
            raise InternalCheckError("constructed map does not fix the kernel inclusion")
        if e2.proj[x].mul(iso[x]) != e1.proj[x]:
            raise InternalCheckError("constructed map does not cover the projection")
    return None
