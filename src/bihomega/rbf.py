"""The operator-side complex, the comparison map, and the combined complex.

Context: an algebra with a Rota-Baxter family and a Rota-Baxter family
bimodule over it.  Three complexes live here:

* the algebra complex (coboundary from :mod:`bihomega.cochain`);
* the operator complex: the same cochain spaces, with differential equal to
  the coboundary taken over the derived (star) algebra and its induced
  bimodule.  :func:`partial` is exactly that: the compiled coboundary of the
  star bimodule.  The expanded sum in the original structures is kept only
  as a test oracle (``tests/oracles.py``);
* the combined complex mixing a degree-n algebra cochain with a degree-(n-1)
  operator cochain,  d(f, g) = (delta f, -partial g - phi f), and
  d(m) = (delta m, -m) at degree 0.

:func:`phi` is the comparison map.  By definition it evaluates a cochain on
all-R-twisted arguments and subtracts, for every proper subset S of the
slots, weight^(n - 1 - |S|) times the bimodule operator T at the tuple
product applied after inserting R at exactly the slots in S.  Like the
coboundary it is compiled once per (context, degree) into a cached sparse
matrix, :func:`phi_op`, whose columns come from the subset sum in Horner
form (R and R + weight I once per slot, as sparse tensor products); the
literal subset enumeration is kept as the oracle in ``tests/oracles.py``.

The combined complex runs on sparse images.  For each degree the images of
the combined basis under d are cached as sparse dicts over the raw target
coordinates (source in equivariant bases), which stays well-defined even
when a degree-0 image leaves the equivariant subspace.  Their delta and
partial parts are assembled from the block products that the single
tables of the two bimodules cached, so no coboundary is applied twice.
Cohomology tables take one forward elimination on them per degree, and
kernels and solves transpose them into sparse rows; no dense matrix is
built.  Membership of images is still checked where the theory promises it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebra import OmegaAlgebra, RotaBaxterFamily, Witness, check_rota_baxter, star_product, validate_algebra
from .bimodule import OmegaBimodule, _rbf_action_scan, _require_bimodule, induced_module_star
from .cochain import (
    Cochain,
    CohomologyReport,
    DegreeRow,
    EquivariantBasis,
    SparseOp,
    _basis_images,
    _in_subspace,
    _raw_size,
    _require_shape,
    apply_delta,
    cohomology_dims,
    degree0_preimages,
    delta_op,
    equivariant_basis,
)
from .errors import InternalCheckError, MalformedInputError, PreconditionError
from .linalg import Mat, _supports, sparse_kernel, sparse_rank, sparse_rows, sparse_solve
from .rationals import ONE, ZERO


@dataclass(eq=False)
class RbfContext:
    """Validated bundle (algebra, Rota-Baxter family, bimodule with tmap)."""

    algebra: OmegaAlgebra
    rb: RotaBaxterFamily
    bimodule: OmegaBimodule
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.bimodule.tmap is None:
            raise PreconditionError("context bimodule needs a tmap family")
        base, a = self.bimodule.base, self.algebra
        if base is not a and (base.omega, base.dim, base.product, base.pmap, base.qmap) != (
            a.omega, a.dim, a.product, a.pmap, a.qmap
        ):
            raise MalformedInputError("bimodule base differs from the context algebra")

    @classmethod
    def validated(cls, algebra, rb, bimodule) -> "RbfContext":
        witness = validate_algebra(algebra)
        if witness is not None:
            raise PreconditionError(f"algebra invalid: {witness.describe()}")
        witness = check_rota_baxter(algebra, rb)
        if witness is not None:
            raise PreconditionError(f"Rota-Baxter family invalid: {witness.describe()}")
        _require_bimodule(bimodule)
        if bimodule.base is not algebra:  # a distinct base object gets its own check of the family
            witness = check_rota_baxter(bimodule.base, rb)
            if witness is not None:
                raise PreconditionError(f"Rota-Baxter family invalid: {witness.describe()}")
        witness = _rbf_action_scan(bimodule, rb)
        if witness is not None:
            raise PreconditionError(f"bimodule invalid for the family: {witness.describe()}")
        return cls(algebra, rb, bimodule)

    def star_algebra(self) -> OmegaAlgebra:
        hit = self._cache.get("star_algebra")
        if hit is None:
            hit = star_product(self.algebra, self.rb, check=False)
            self._cache["star_algebra"] = hit
        return hit

    def star_bimodule(self) -> OmegaBimodule:
        hit = self._cache.get("star_bimodule")
        if hit is None:
            hit = induced_module_star(self.bimodule, self.rb, check=False)
            self._cache["star_bimodule"] = hit
        return hit

    def basis(self, n: int) -> EquivariantBasis:
        """Shared equivariant basis; both complexes use identical constraints."""
        bas = equivariant_basis(self.bimodule, n)
        self.star_bimodule()._cache.setdefault(("equivariant_basis", n), bas)
        return bas

    def dims(self):
        a, b = self.algebra, self.bimodule
        return a.omega, a.dim, b.dim_m


def partial(ctx: RbfContext, f: Cochain, check: bool = True) -> Cochain:
    """Operator-complex differential: the coboundary over the star algebra
    with the induced bimodule (same errors as :func:`apply_delta`)."""
    return apply_delta(ctx.star_bimodule(), f, check=check)


def phi_op(ctx: RbfContext, n: int) -> SparseOp:
    """The comparison map compiled on raw degree-n coordinates (cached).

    Degree 0 is the identity.  For n >= 1 the map is blockwise, and the
    column of the raw basis cochain (alpha, j_1..j_n, l) is the subset sum
    of :func:`phi` in Horner form, as sparse tensor products over the
    slots: from A = 1 and P = 0, slot by slot,

        P <- P (x) row_{j_s}(R_{alpha_s} + weight I)  +  A (x) e_{j_s},
        A <- A (x) row_{j_s}(R_{alpha_s}),

    so A ends as the all-R term and P as the weighted sum over proper
    subsets, and the column is A (x) e_l - P (x) T_{prod alpha} e_l.
    Columns that share a prefix j_1..j_s share its (A, P); no division.
    """
    hit = ctx._cache.get(("phi_op", n))
    if hit is not None:
        return hit
    om, d, m = ctx.dims()
    size = _raw_size(ctx.bimodule, n)
    if n == 0:
        colmaps = [{l: ONE} for l in range(m)]
    else:
        shifted = Mat.scalar(d, ctx.rb.weight)
        rows_r = {x: _supports(r) for x, r in ctx.rb.maps.items()}
        rows_rw = {x: _supports(r.add(shifted)) for x, r in ctx.rb.maps.items()}
        colmaps = []
        for t, alpha in enumerate(om.tuples(n)):
            prefixes = [({0: ONE}, {})]
            for x in alpha:
                prefixes = [
                    _horner_step(lifted, corr, rows_r[x][j], rows_rw[x][j], j, d)
                    for lifted, corr in prefixes
                    for j in range(d)
                ]
            t_cols = _supports(ctx.bimodule.tmap[om.product_of(alpha)], by_col=True)
            base = t * d**n
            for lifted, corr in prefixes:
                for l in range(m):
                    col = {(base + i) * m + l: c for i, c in lifted.items()}
                    for i, c in corr.items():
                        for k, v in t_cols[l]:
                            row = (base + i) * m + k
                            col[row] = col.get(row, 0) - c * v
                    colmaps.append(col)
    op = SparseOp.from_dicts(size, size, colmaps)
    ctx._cache[("phi_op", n)] = op
    return op


def _horner_step(lifted: dict, corr: dict, r_row: list, rw_row: list, j: int, d: int) -> tuple:
    """One slot of the :func:`phi_op` recurrence on sparse tensors:
    (A (x) r_row,  P (x) rw_row + A (x) e_j)."""
    new_corr = {i * d + k: c * v for i, c in corr.items() for k, v in rw_row}
    for i, c in lifted.items():
        new = new_corr.get(i * d + j, 0) + c
        if new:
            new_corr[i * d + j] = new
        else:
            new_corr.pop(i * d + j, None)
    return {i * d + k: c * v for i, c in lifted.items() for k, v in r_row}, new_corr


def phi(ctx: RbfContext, f: Cochain) -> Cochain:
    """Comparison map from the algebra complex to the operator complex.

    Degree 0: identity.  Degree n >= 1, on each monoid tuple alpha:

        phi(f)_alpha = f_alpha o (R x ... x R)
                       - sum over proper subsets S of the n slots of
                         weight^(n - 1 - |S|) T_{prod alpha} o f_alpha o X_S,

    where X_S applies R_{alpha_s} at the slots s in S and the identity
    elsewhere (degree 1: f o R - T o f).  Applied through the compiled
    :func:`phi_op`; a cochain of another shape is refused as in :func:`partial`.
    """
    _require_shape(ctx.bimodule, f)
    coords = phi_op(ctx, f.degree).apply_dense(f.coords)
    return Cochain(f.degree, f.omega_size, f.dim_in, f.dim_out, coords)


@dataclass(eq=False)
class CombinedCochain:
    """Element of the combined complex: algebra part plus operator part.

    Degree n >= 1 pairs a degree-n algebra cochain with a degree-(n-1)
    operator cochain; degree 0 is a bare coefficient vector (rbf None).
    """

    alg: Cochain
    rbf: Cochain | None

    @property
    def degree(self) -> int:
        return self.alg.degree

    def add(self, other: "CombinedCochain") -> "CombinedCochain":
        if (self.rbf is None) != (other.rbf is None):
            raise MalformedInputError("combined cochain shape mismatch")
        return CombinedCochain(
            self.alg.add(other.alg), None if self.rbf is None else self.rbf.add(other.rbf)
        )

    def sub(self, other: "CombinedCochain") -> "CombinedCochain":
        if (self.rbf is None) != (other.rbf is None):
            raise MalformedInputError("combined cochain shape mismatch")
        return CombinedCochain(
            self.alg.sub(other.alg), None if self.rbf is None else self.rbf.sub(other.rbf)
        )

    def scale(self, factor) -> "CombinedCochain":
        return CombinedCochain(
            self.alg.scale(factor), None if self.rbf is None else self.rbf.scale(factor)
        )

    def is_zero(self) -> bool:
        return self.alg.is_zero() and (self.rbf is None or self.rbf.is_zero())

    def __eq__(self, other):
        return (
            isinstance(other, CombinedCochain)
            and self.alg == other.alg
            and self.rbf == other.rbf
        )


def d_combined(ctx: RbfContext, x: CombinedCochain, check: bool = True) -> CombinedCochain:
    """Differential of the combined complex."""
    b = ctx.bimodule
    n = x.degree
    if n == 0:
        if x.rbf is not None:
            raise MalformedInputError("degree-0 combined cochain has no operator part")
        return CombinedCochain(apply_delta(b, x.alg, check=check), x.alg.scale(-ONE))
    if x.rbf is None or x.rbf.degree != n - 1:
        raise MalformedInputError("operator part must have degree one less")
    alg_out = apply_delta(b, x.alg, check=check)
    rbf_out = partial(ctx, x.rbf, check=check).add(phi(ctx, x.alg)).scale(-ONE)
    return CombinedCochain(alg_out, rbf_out)


def combined_dim(ctx: RbfContext, n: int) -> int:
    if n == 0:
        return ctx.bimodule.dim_m
    return ctx.basis(n).dim() + ctx.basis(n - 1).dim()


def combined_from_coords(ctx: RbfContext, n: int, coords) -> CombinedCochain:
    """Element with the given coordinates in the (alg block, rbf block) basis."""
    if len(coords) != combined_dim(ctx, n):
        raise MalformedInputError("combined coordinate length mismatch")
    if n == 0:
        om, d, m = ctx.dims()
        return CombinedCochain(Cochain(0, om.size, d, m, list(coords)), None)
    b_alg = ctx.basis(n)
    b_rbf = ctx.basis(n - 1)
    return CombinedCochain(
        b_alg.combine(coords[: b_alg.dim()]), b_rbf.combine(coords[b_alg.dim() :])
    )


def _combined_images(ctx: RbfContext, n: int) -> list:
    """Raw images of the combined basis at degree n, as sparse dicts (cached).

    Target coordinates: the raw C^{n+1}, then the raw C^n shifted by its
    length.  Sources: (delta e, -phi e) for each basis cochain e of C^n
    (C^0 = M), then (0, -partial e) for each basis cochain e of C^{n-1}.
    The delta and partial parts are the unverified basis images of the
    algebra and star bimodules (:func:`bihomega.cochain._basis_images`), so
    the block products their tables cached are reused, not recomputed.
    """
    hit = ctx._cache.get(("combined_images", n))
    if hit is not None:
        return hit
    to_rbf = phi_op(ctx, n)
    shift = _raw_size(ctx.bimodule, n + 1)
    basis = ctx.basis(n)
    images = []
    for j, image in enumerate(_basis_images(ctx.bimodule, n, verify=False)):
        image.update((shift + i, -v) for i, v in to_rbf.image(basis.cochain_sparse(j)).items())
        images.append(image)
    if n >= 1:
        ctx.basis(n - 1)  # the star bimodule shares the algebra bimodule's basis
        for image in _basis_images(ctx.star_bimodule(), n - 1, verify=False):
            images.append({shift + i: -v for i, v in image.items()})
    ctx._cache[("combined_images", n)] = images
    return images


def _combined_rows(ctx: RbfContext, n: int) -> list:
    """The degree-n combined differential as sparse rows, one per raw target
    coordinate, over the combined basis coordinates."""
    b = ctx.bimodule
    return sparse_rows(_combined_images(ctx, n), _raw_size(b, n + 1) + _raw_size(b, n))


def _in_combined_target(ctx: RbfContext, n: int, image: dict) -> bool:
    """Does a raw combined image lie in C^{n+1}_alg (+) C^n_rbf?"""
    b = ctx.bimodule
    shift = _raw_size(b, n + 1)
    alg = {i: v for i, v in image.items() if i < shift}
    rbf = {i - shift: v for i, v in image.items() if i >= shift}
    return _in_subspace(b, n + 1, alg) and _in_subspace(b, n, rbf)


def rbfa_cohomology_dims(ctx: RbfContext, max_degree: int) -> dict:
    """Reports for all three complexes, degrees 0..max_degree.

    Each combined rank is one forward elimination on that degree's cached
    sparse images.  Combined degree-0 coboundaries: when the degree-0 image leaves the
    product of equivariant spaces, the coboundary dimension is that of the
    exact intersection (the algebra part constrains it; the operator part is
    unconstrained), and the report is flagged.  A negative ``max_degree``
    is refused by the first :func:`cohomology_dims` call, which skips the
    context's bimodule, validated with the context, but not the star one.
    """
    alg_report = cohomology_dims(ctx.bimodule, max_degree, check=False)
    rbf_report = cohomology_dims(ctx.star_bimodule(), max_degree)
    m = ctx.bimodule.dim_m
    images = {k: _combined_images(ctx, k) for k in range(max_degree + 1)}
    dims_c = {k: combined_dim(ctx, k) for k in range(max_degree + 1)}
    ranks = {k: sparse_rank(images[k]) for k in range(max_degree + 1)}
    degree0_intersected = False
    b1_dim = None
    if max_degree >= 1:
        if all(_in_combined_target(ctx, 0, image) for image in images[0]):
            b1_dim = ranks[0]
            om, d, _ = ctx.dims()
            for l in range(m):
                unit_vec = Cochain.zero(0, om.size, d, m)
                unit_vec.coords[l] = ONE
                image = d_combined(ctx, CombinedCochain(unit_vec, None), check=False)
                if not d_combined(ctx, image, check=False).is_zero():
                    raise InternalCheckError(
                        "combined degree-0 coboundaries are not 2-cocycles; "
                        "the complex is inconsistent on this input"
                    )
        else:
            degree0_intersected = True
            b1_dim = _combined_degree0_intersection(ctx)
    rows = []
    for k in range(max_degree + 1):
        z = dims_c[k] - ranks[k]
        if k == 0:
            bdim = 0
        elif k == 1:
            bdim = b1_dim
        else:
            bdim = ranks[k - 1]
        rows.append(DegreeRow(k, dims_c[k], z, bdim, z - bdim))
    combined_report = CohomologyReport(rows, degree0_intersected)
    return {"alg": alg_report, "rbf": rbf_report, "rbfa": combined_report}


def _combined_degree0_intersection(ctx: RbfContext) -> int:
    """dim( im(d^0) ∩ (C^1_alg (+) C^0_rbf) ); the map m -> (delta m, -m) is
    injective, so this is the dimension of {c in M : delta0(c) in C^1}."""
    b = ctx.bimodule
    c_vectors = degree0_preimages(b)
    # runtime assertion: generators of the defined part are killed by d^1
    op0, op1 = delta_op(b, 0), delta_op(b, 1)
    for c in c_vectors:
        if op1.image(op0.image(c)):
            raise InternalCheckError(
                "combined degree-0 coboundary generator is not killed at degree 1"
            )
    return sparse_rank(c_vectors)


def chain_map_check(ctx: RbfContext, max_degree: int) -> Witness | None:
    """partial^n o phi^n = phi^{n+1} o delta^n on every basis cochain.

    Both compositions are compared as sparse raw images (equality as linear
    maps on C^n), degree by degree from 0 to max_degree; delta^n e is the
    basis image of :func:`bihomega.cochain._basis_images`, from the block
    products the tables share.  The witness names the degree, the basis
    cochain, the first raw index where they differ and both values there
    (zero where an image has no entry).
    """
    sb = ctx.star_bimodule()
    for n in range(max_degree + 1):
        basis = ctx.basis(n)
        star_op = delta_op(sb, n)
        phi_n, phi_next = phi_op(ctx, n), phi_op(ctx, n + 1)
        for j, image in enumerate(_basis_images(ctx.bimodule, n, verify=False)):
            lhs = star_op.image(phi_n.image(basis.cochain_sparse(j)))
            rhs = phi_next.image(image)
            if lhs != rhs:
                idx = min(i for i in lhs.keys() | rhs.keys() if lhs.get(i, ZERO) != rhs.get(i, ZERO))
                return Witness("chain-map", (n,), (j, idx), (lhs.get(idx, ZERO),), (rhs.get(idx, ZERO),))
    return None


def combined_kernel(ctx: RbfContext, n: int) -> list:
    """Basis of ker(d^n) as CombinedCochains (deterministic kernel order)."""
    width = combined_dim(ctx, n)
    out = []
    for vec in sparse_kernel(_combined_rows(ctx, n), width):
        coords = [ZERO] * width
        for j, v in vec.items():
            coords[j] = v
        out.append(combined_from_coords(ctx, n, coords))
    return out


def solve_combined(ctx: RbfContext, n: int, target: CombinedCochain):
    """Coordinates x with d^n(x) = target, free coordinates zero, or None."""
    if target.degree != n + 1:
        raise MalformedInputError("target degree mismatch")
    if n < 0 or target.rbf is None or target.rbf.degree != n:
        raise MalformedInputError("operator part must have degree one less")
    for part in (target.alg, target.rbf):
        _require_shape(ctx.bimodule, part)
    rhs = list(target.alg.coords) + list(target.rbf.coords)
    x = sparse_solve(_combined_rows(ctx, n), rhs, combined_dim(ctx, n))
    if x is None:
        return None
    return combined_from_coords(ctx, n, x)
