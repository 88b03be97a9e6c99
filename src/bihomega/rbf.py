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
product applied after inserting R at exactly the slots in S.  It computes
that subset sum in Horner form, applying R and R + weight I once per slot
(2n slot products per monoid tuple instead of 2^n full evaluations); the
literal subset enumeration is kept as the oracle in ``tests/oracles.py``.

Ranks and kernels of the combined differential are computed against raw
target coordinates (source in equivariant bases), which stays well-defined
even when a degree-0 image leaves the equivariant subspace; membership of
images is still checked where the theory promises it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebra import OmegaAlgebra, RotaBaxterFamily, Witness, check_rota_baxter, star_product, validate_algebra
from .bimodule import OmegaBimodule, induced_module_star, validate_rbf_bimodule
from .cochain import (
    Cochain,
    CohomologyReport,
    DegreeRow,
    EquivariantBasis,
    apply_delta,
    cohomology_dims,
    degree0_preimages,
    delta_op,
    equivariant_basis,
    is_equivariant,
)
from .errors import InternalCheckError, MalformedInputError, PreconditionError
from .linalg import Mat, kernel_basis, rank, solve, sparse_rank
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
        if self.bimodule.base is not self.algebra:
            # allow structurally identical bases
            if self.bimodule.base.product != self.algebra.product:
                raise MalformedInputError("bimodule base differs from the context algebra")

    @classmethod
    def validated(cls, algebra, rb, bimodule) -> "RbfContext":
        witness = validate_algebra(algebra)
        if witness is not None:
            raise PreconditionError(f"algebra invalid: {witness.describe()}")
        witness = check_rota_baxter(algebra, rb)
        if witness is not None:
            raise PreconditionError(f"Rota-Baxter family invalid: {witness.describe()}")
        witness = validate_rbf_bimodule(bimodule, rb)
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


def phi(ctx: RbfContext, f: Cochain) -> Cochain:
    """Comparison map from the algebra complex to the operator complex.

    Degree 0: identity.  Degree n >= 1, on each monoid tuple alpha:

        phi(f)_alpha = f_alpha o (R x ... x R)
                       - sum over proper subsets S of the n slots of
                         weight^(n - 1 - |S|) T_{prod alpha} o f_alpha o X_S,

    where X_S applies R_{alpha_s} at the slots s in S and the identity
    elsewhere (degree 1: f o R - T o f).  The subset sum is computed in
    Horner form, one slot at a time: from A_0 = f_alpha and P_0 = 0,

        P_{s+1} = (R_{alpha_s} + weight I) at slot s of P_s  +  A_s,
        A_{s+1} = R_{alpha_s} at slot s of A_s,

    so A_n is the all-R term and P_n the weighted sum over proper subsets,
    and phi(f)_alpha = A_n - T_{prod alpha} P_n.  That is 2n slot products
    per tuple instead of 2^n multilinear evaluations, and no division.
    """
    a = ctx.algebra
    b = ctx.bimodule
    om = a.omega
    d, m = a.dim, b.dim_m
    w = ctx.rb.weight
    n = f.degree
    if n == 0:
        return Cochain(0, om.size, d, m, list(f.coords))
    out = Cochain.zero(n, om.size, d, m)
    shifted = Mat.scalar(d, w)
    r_cols = {x: _slot_columns(r) for x, r in ctx.rb.maps.items()}
    rw_cols = {x: _slot_columns(r.add(shifted)) for x, r in ctx.rb.maps.items()}
    width = d**n * m
    strides = [d ** (n - 1 - s) * m for s in range(n)]
    for alpha in om.tuples(n):
        base = out.block_base(alpha)
        lifted = f.coords[base : base + width]
        if not any(lifted):
            continue  # phi is linear blockwise: a zero block maps to zero
        corrections = [ZERO] * width
        for s, x in enumerate(alpha):
            corrections = _slot_product(corrections, rw_cols[x], strides[s])
            corrections = [u + v for u, v in zip(corrections, lifted)]
            lifted = _slot_product(lifted, r_cols[x], strides[s])
        t_all = b.tmap[om.product_of(alpha)]
        for off in range(0, width, m):
            term = t_all.matvec(corrections[off : off + m])
            for k in range(m):
                out.coords[base + off + k] = lifted[off + k] - term[k]
    return out


def _slot_columns(mat: Mat) -> list:
    """Per column i of a square matrix, its nonzero entries as (j, mat[j][i])."""
    return [[(j, c) for j, c in enumerate(mat.col(i)) if c] for i in range(mat.cols)]


def _slot_product(block: list, cols: list, stride: int) -> list:
    """Apply a matrix at one argument slot of a flat block.

    The slot's index steps by ``stride``; the new entry at slot index i is
    sum_j mat[j][i] times the old entry at slot index j, i.e. the block
    evaluated with the basis vector e_i replaced by mat e_i in that slot.
    """
    out = []
    for outer in range(0, len(block), stride * len(cols)):
        for col in cols:
            acc = [ZERO] * stride
            for j, c in col:
                src = outer + j * stride
                segment = block[src : src + stride]
                acc = [u + c * v if v else u for u, v in zip(acc, segment)]
            out.extend(acc)
    return out


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
    if n == 0:
        om, d, m = ctx.dims()
        return CombinedCochain(Cochain(0, om.size, d, m, list(coords)), None)
    b_alg = ctx.basis(n)
    b_rbf = ctx.basis(n - 1)
    if len(coords) != b_alg.dim() + b_rbf.dim():
        raise MalformedInputError("combined coordinate length mismatch")
    return CombinedCochain(
        b_alg.combine(coords[: b_alg.dim()]), b_rbf.combine(coords[b_alg.dim() :])
    )


def combined_raw_matrix(ctx: RbfContext, n: int) -> Mat:
    """Matrix of the combined differential: source in basis coordinates,
    target in raw coordinates (alg raw block stacked over operator raw block).

    Always well-defined; used for ranks, kernels, and solving.  Cached.
    """
    hit = ctx._cache.get(("combined_raw_matrix", n))
    if hit is not None:
        return hit
    om, d, m = ctx.dims()
    b = ctx.bimodule
    sb = ctx.star_bimodule()
    s = om.size
    alg_rows = (s ** (n + 1)) * (d ** (n + 1)) * m
    rbf_rows = (s**n) * (d**n) * m
    cols = []
    if n == 0:
        op0 = delta_op(b, 0)
        for l in range(m):
            img = op0.apply_sparse({l: ONE})
            tail = [ZERO] * m
            tail[l] = -ONE
            cols.append(img + tail)
    else:
        b_alg = ctx.basis(n)
        b_rbf = ctx.basis(n - 1)
        alg_op = delta_op(b, n)
        for j in range(b_alg.dim()):
            f = b_alg.cochain(j)
            img = alg_op.apply_sparse(b_alg.cochain_sparse(j))
            ph = phi(ctx, f)
            cols.append(img + [-v for v in ph.coords])
        rbf_op = delta_op(sb, n - 1)
        for j in range(b_rbf.dim()):
            img = rbf_op.apply_sparse(b_rbf.cochain_sparse(j))
            cols.append([ZERO] * alg_rows + [-v for v in img])
    result = (
        Mat.from_cols(cols, nrows=alg_rows + rbf_rows)
        if cols
        else Mat.zeros(alg_rows + rbf_rows, 0)
    )
    ctx._cache[("combined_raw_matrix", n)] = result
    return result


def _combined_target_membership(ctx: RbfContext, n: int, raw: list) -> bool:
    """Does a raw image vector lie in C^{n+1}_alg (+) C^n_rbf?"""
    om, d, m = ctx.dims()
    alg_rows = (om.size ** (n + 1)) * (d ** (n + 1)) * m
    b = ctx.bimodule
    return is_equivariant(b, Cochain(n + 1, om.size, d, m, raw[:alg_rows])) and is_equivariant(
        b, Cochain(n, om.size, d, m, raw[alg_rows:])
    )


def rbfa_cohomology_dims(ctx: RbfContext, max_degree: int) -> dict:
    """Reports for all three complexes, degrees 0..max_degree.

    Combined degree-0 coboundaries: when the degree-0 image leaves the
    product of equivariant spaces, the coboundary dimension is that of the
    exact intersection (the algebra part constrains it; the operator part is
    unconstrained), and the report is flagged.  A negative ``max_degree``
    is refused by the first :func:`cohomology_dims` call.
    """
    alg_report = cohomology_dims(ctx.bimodule, max_degree)
    rbf_report = cohomology_dims(ctx.star_bimodule(), max_degree)
    m = ctx.bimodule.dim_m
    mats = {k: combined_raw_matrix(ctx, k) for k in range(max_degree + 1)}
    dims_c = {k: combined_dim(ctx, k) for k in range(max_degree + 1)}
    ranks = {k: rank(mats[k]) for k in range(max_degree + 1)}
    degree0_intersected = False
    b1_dim = None
    if max_degree >= 1:
        clean = all(
            _combined_target_membership(ctx, 0, mats[0].col(j)) for j in range(mats[0].cols)
        )
        if clean:
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

    Both compositions are compared as raw coordinate vectors (equality as
    linear maps on C^n), degree by degree from 0 to max_degree.
    """
    b = ctx.bimodule
    sb = ctx.star_bimodule()
    om, d, m = ctx.dims()
    for n in range(max_degree + 1):
        if n == 0:
            width = m
        else:
            width = ctx.basis(n).dim()
        alg_op = delta_op(b, n)
        star_op = delta_op(sb, n)
        for j in range(width):
            if n == 0:
                f = Cochain.zero(0, om.size, d, m)
                f.coords[j] = ONE
            else:
                f = ctx.basis(n).cochain(j)
            lhs_coords = star_op.apply_dense(phi(ctx, f).coords)
            delta_f = Cochain(
                n + 1, om.size, d, m, alg_op.apply_dense(f.coords)
            )
            rhs = phi(ctx, delta_f)
            if lhs_coords != rhs.coords:
                for idx, (u, v) in enumerate(zip(lhs_coords, rhs.coords)):
                    if u != v:
                        return Witness(
                            "chain-map", (n,), (j, idx), (u,), (v,)
                        )
    return None


def combined_kernel(ctx: RbfContext, n: int) -> list:
    """Basis of ker(d^n) as CombinedCochains (deterministic kernel order)."""
    mat = combined_raw_matrix(ctx, n)
    kb = kernel_basis(mat)
    out = []
    for j in range(kb.cols):
        out.append(combined_from_coords(ctx, n, kb.col(j)))
    return out


def solve_combined(ctx: RbfContext, n: int, target: CombinedCochain):
    """Coordinates x with d^n(x) = target, free coordinates zero, or None."""
    mat = combined_raw_matrix(ctx, n)
    if target.degree != n + 1:
        raise MalformedInputError("target degree mismatch")
    vec = list(target.alg.coords) + list(target.rbf.coords)
    x = solve(mat, vec)
    if x is None:
        return None
    return combined_from_coords(ctx, n, x)
