"""The operator-side complex, the comparison map, and the combined complex.

Context: an algebra with a Rota-Baxter family and a Rota-Baxter family
bimodule over it.  Three complexes live here:

* the algebra complex (coboundary from :mod:`bihomega.cochain`);
* the operator complex: the same cochain spaces, with differential equal to
  the coboundary taken over the derived (star) algebra and its induced
  bimodule.  :func:`partial` is exactly that: the compiled coboundary of the
  star bimodule.  It has the bimodule's structure maps, so it reads the
  bimodule's bases and constraint systems instead of building its own
  (:meth:`RbfContext.star_bimodule`).  The expanded sum in the original
  structures is kept only as a test oracle (``tests/oracles.py``);
* the combined complex mixing a degree-n algebra cochain with a degree-(n-1)
  operator cochain,  d(f, g) = (delta f, -partial g - phi f), and
  d(m) = (delta m, -m) at degree 0.

:func:`phi` is the comparison map.  By definition it evaluates a cochain on
all-R-twisted arguments and subtracts, for every proper subset S of the
slots, weight^(n - 1 - |S|) times the bimodule operator T at the tuple
product applied after inserting R at exactly the slots in S.  Like the
coboundary it is compiled once per (context, degree) into a cached
block-diagonal ``cochain.BlockOp``, :func:`phi_op`, whose columns come from
the subset sum in Horner form, one block per class of (R at each slot, T at
the product); the literal subset enumeration is kept as the oracle in
``tests/oracles.py``.

The combined complex is the mapping cone of φ (Weibel 1994, §1.5), so one
fraction-free elimination per degree n ranks all three tables
(:func:`_cone_ranks`): fed the images (0, -∂e) of the C^{n-1} basis it
counts rank ∂_{n-1}, then fed (δe, -φe) for the C^n basis, rank δ_n and
rank d_n.  Every part streams from ``cochain._images``, which alone
decides how a vector of each degree is read (the δ and ∂ parts through
``cochain._basis_images``), and no image is kept; the combined kernels
and solves read the same stream, their targets read alike
(``cochain._read``), and :func:`chain_map_check` compares ∂φ = φδ on block
products of its own.
"""

from __future__ import annotations

from .algebra import (
    OmegaAlgebra, RotaBaxterFamily, Witness, _one_validation, _refuse_witness, check_rota_baxter, validate_algebra,
)
from .bimodule import OmegaBimodule, _rbf_action_scan, _require_bimodule, induced_module_star
from .blocks import intern
from .cochain import (
    BlockOp,
    Cochain,
    EquivariantBasis,
    _basis_images,
    _block_product,
    _images,
    _degree0_domain,
    _degree0_checks,
    _raw_size,
    _read,
    _report,
    _require_shape,
    _share_equivariance,
    _signatures,
    apply_delta,
    delta_op,
    equivariant_basis,
)
from .errors import InternalCheckError, MalformedInputError, PreconditionError
from .linalg import Mat, _integer_echelon, _supports, sparse_kernel, sparse_rank, sparse_rows, sparse_solve
from .rationals import ONE, ZERO


class RbfContext:
    """Bundle (algebra, Rota-Baxter family, bimodule with tmap).  Only
    :meth:`validated` validates it, recording so in ``_cache``; the plain
    constructor checks the tmap and the base alone, and the tables, checks,
    kernels and solves check the family of a context without the record
    (:func:`_require_family`).  Its star bimodule, over the star algebra,
    shares the bimodule's bases and constraint systems."""

    __slots__ = ("algebra", "rb", "bimodule", "_cache")

    def __init__(self, algebra: OmegaAlgebra, rb: RotaBaxterFamily, bimodule: OmegaBimodule):
        self.algebra = algebra
        self.rb = rb
        self.bimodule = bimodule
        self._cache = {}
        if bimodule.tmap is None:
            raise PreconditionError("context bimodule needs a tmap family")
        base, a = bimodule.base, algebra
        if base is not a and (base.omega, base.dim, base.product, base.pmap, base.qmap) != (
            a.omega, a.dim, a.product, a.pmap, a.qmap
        ):
            raise MalformedInputError("bimodule base differs from the context algebra")

    @classmethod
    def validated(cls, algebra, rb, bimodule) -> "RbfContext":
        with _one_validation():  # a stage skips the scans that an earlier one passed
            _refuse_witness(validate_algebra(algebra), "algebra invalid")
            _refuse_witness(check_rota_baxter(algebra, rb), "Rota-Baxter family invalid")
            _require_bimodule(bimodule)
            if bimodule.base is not algebra:  # a distinct base object gets its own check of the family
                _refuse_witness(check_rota_baxter(bimodule.base, rb), "Rota-Baxter family invalid")
            _refuse_witness(_rbf_action_scan(bimodule, rb), "bimodule invalid for the family")
        (ctx := cls(algebra, rb, bimodule))._cache["validated"] = True
        return ctx

    def star_bimodule(self) -> OmegaBimodule:
        hit = self._cache.get("star_bimodule")
        if hit is None:
            hit = induced_module_star(self.bimodule, self.rb, check=False)
            _share_equivariance(self.bimodule, hit)
            self._cache["star_bimodule"] = hit
        return hit

    def basis(self, n: int) -> EquivariantBasis:
        """The equivariant basis of C^n, which the star bimodule shares."""
        return equivariant_basis(self.bimodule, n)

    def dims(self):
        a, b = self.algebra, self.bimodule
        return a.omega, a.dim, b.dim_m


def _require_family(ctx: RbfContext):
    """Refuse an unvalidated context whose family fails the Rota-Baxter or action scans."""
    if "validated" not in ctx._cache:
        _refuse_witness(check_rota_baxter(ctx.algebra, ctx.rb), "Rota-Baxter family invalid")
        _refuse_witness(_rbf_action_scan(ctx.bimodule, ctx.rb), "bimodule invalid for the family")


def partial(ctx: RbfContext, f: Cochain, check: bool = True) -> Cochain:
    """Operator-complex differential: the coboundary over the star algebra
    with the induced bimodule (same errors as :func:`apply_delta`)."""
    return apply_delta(ctx.star_bimodule(), f, check=check)


def phi_op(ctx: RbfContext, n: int) -> BlockOp:
    """The comparison map compiled on raw degree-n coordinates (cached).

    Block diagonal: the block of a monoid tuple alpha reads only
    R_{alpha_1}, ..., R_{alpha_n} and T_{prod alpha}: one block is built per
    class of those maps (exact entries, :func:`bihomega.blocks.intern`) by
    :func:`_phi_block`, and every tuple of the class reads it in place.
    Degree 0 is one identity block, built on the empty tuple.
    """
    hit = ctx._cache.get(("phi_op", n))
    if hit is not None:
        return hit
    if n < 0:
        raise MalformedInputError("negative degree")
    om, d, m = ctx.dims()
    r_cls, t_cls, numbers, faces, blocks = intern(ctx.rb.maps), intern(ctx.bimodule.tmap), {}, [], []
    for t, alpha in enumerate(om.tuples(n)):
        key = (tuple([r_cls[x] for x in alpha]), t_cls[om.product_of(alpha)])
        if key not in numbers:
            numbers[key] = len(blocks)
            blocks.append((_phi_block(ctx, alpha), ()))
        faces.append([(t, numbers[key])])
    size = _raw_size(ctx.bimodule, n)
    op = ctx._cache[("phi_op", n)] = BlockOp(size, size, d**n * m, d**n * m, 1, faces, blocks)
    return op


def _phi_block(ctx: RbfContext, alpha: tuple) -> list:
    """The block of :func:`phi_op` at tuple alpha, as local columns [(local
    row, coeff)]: column (j_1..j_n, l) is the subset sum of :func:`phi` in
    Horner form, from A = 1 and P = 0, slot by slot,

        P <- P (x) row_{j_s}(R_{alpha_s} + weight I)  +  A (x) e_{j_s},
        A <- A (x) row_{j_s}(R_{alpha_s}),

    so A ends as the all-R term and P as the weighted sum over proper
    subsets, and the column is A (x) e_l - P (x) T_{prod alpha} e_l.
    Columns that share a prefix j_1..j_s share its (A, P); no division.
    """
    om, d, m = ctx.dims()
    shifted, prefixes = Mat.scalar(d, ctx.rb.weight), [({0: ONE}, {})]
    for x in alpha:
        r_rows, rw_rows = _supports(ctx.rb.maps[x]), _supports(ctx.rb.maps[x].add(shifted))
        prefixes = [_horner_step(a, p, r_rows[j], rw_rows[j], j, d) for a, p in prefixes for j in range(d)]
    t_cols = _supports(ctx.bimodule.tmap[om.product_of(alpha)], by_col=True)
    block = []
    for lifted, corr in prefixes:
        for l in range(m):
            col = {i * m + l: c for i, c in lifted.items()}
            for i, c in corr.items():
                for k, v in t_cols[l]:
                    col[i * m + k] = col.get(i * m + k, 0) - c * v
            block.append([(r, v) for r, v in col.items() if v])
    return block


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


class CombinedCochain:
    """Element of the combined complex: algebra part plus operator part.

    Degree n >= 1 pairs a degree-n algebra cochain with a degree-(n-1)
    operator cochain; degree 0 is a bare coefficient vector (rbf None).
    """

    __slots__ = ("alg", "rbf")

    def __init__(self, alg: Cochain, rbf: Cochain | None):
        self.alg = alg
        self.rbf = rbf

    @property
    def degree(self) -> int:
        return self.alg.degree

    def _parts(self, op, other: "CombinedCochain") -> "CombinedCochain":
        """``op`` (``Cochain.add`` or ``Cochain.sub``) on both parts."""
        if (self.rbf is None) != (other.rbf is None):
            raise MalformedInputError("combined cochain shape mismatch")
        return CombinedCochain(op(self.alg, other.alg), None if self.rbf is None else op(self.rbf, other.rbf))

    def add(self, other: "CombinedCochain") -> "CombinedCochain":
        return self._parts(Cochain.add, other)

    def sub(self, other: "CombinedCochain") -> "CombinedCochain":
        return self._parts(Cochain.sub, other)

    def scale(self, factor) -> "CombinedCochain":
        return CombinedCochain(self.alg.scale(factor), None if self.rbf is None else self.rbf.scale(factor))

    def is_zero(self) -> bool:
        return self.alg.is_zero() and (self.rbf is None or self.rbf.is_zero())

    def __eq__(self, other):
        return isinstance(other, CombinedCochain) and (self.alg, self.rbf) == (other.alg, other.rbf)


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
    return ctx.basis(n).dim() + (ctx.basis(n - 1).dim() if n >= 1 else 0)


def combined_from_coords(ctx: RbfContext, n: int, coords) -> CombinedCochain:
    """Element with the given coordinates in the (alg block, rbf block) basis."""
    if len(coords) != combined_dim(ctx, n):
        raise MalformedInputError("combined coordinate length mismatch")
    b_alg = ctx.basis(n)
    alg, rest = b_alg.combine(coords[: b_alg.dim()]), coords[b_alg.dim() :]
    return CombinedCochain(alg, ctx.basis(n - 1).combine(rest) if n >= 1 else None)


def _algebra_images(ctx: RbfContext, n: int):
    """The images (δe, -φe) of the C^n basis (C^0 = M) under d, as fresh
    sparse dicts over C^{n+1}, then C^n shifted by the raw length of C^{n+1};
    each part in the form ``cochain._images`` gives its degree."""
    b, shift = ctx.bimodule, _raw_size(ctx.bimodule, n + 1)
    for image, lifted in zip(_basis_images(b, n), _images(b, n, phi_op(ctx, n), n)):
        image.update((shift + r, -v) for r, v in lifted.items())
        yield image


def _operator_images(ctx: RbfContext, n: int):
    """The images (0, -∂e) of the C^{n-1} basis (none at n = 0), in the
    coordinates and the form of :func:`_algebra_images`."""
    if n >= 1:
        shift = _raw_size(ctx.bimodule, n + 1)
        for image in _basis_images(ctx.star_bimodule(), n - 1):
            yield {shift + i: -v for i, v in image.items()}


def _combined_images(ctx: RbfContext, n: int) -> list:
    """The images of the combined basis at degree n, in basis order."""
    return [*_algebra_images(ctx, n), *_operator_images(ctx, n)]


def _cone_ranks(ctx: RbfContext, n: int) -> tuple:
    """(rank ∂_{n-1}, rank δ_n, rank d_n) from one elimination: phase 1 ranks
    :func:`_operator_images`, phase 2 resumes with :func:`_algebra_images`.
    Pivot columns are those of the unique RREF; phase-1 rows are zero on the
    C^{n+1} columns, which come first, and the image form is injective on
    C^{n+1}, so the pivots there count rank δ_n."""
    pivots = _integer_echelon(_operator_images(ctx, n))
    partial_rank = len(pivots)
    _integer_echelon(_algebra_images(ctx, n), pivots)
    shift = _raw_size(ctx.bimodule, n + 1)
    return partial_rank, sum(c < shift for c in pivots), len(pivots)


def rbfa_cohomology_dims(ctx: RbfContext, max_degree: int) -> dict:
    """Reports for all three complexes, degrees 0..max_degree.

    One elimination per degree n, :func:`_cone_ranks`, gives rank ∂_{n-1},
    rank δ_n and rank d_n, and one on the ∂ images of C^max_degree the
    operator table's top rank.  First come ``cochain._degree0_checks`` on
    both bimodules (validating the star one) and, for max_degree >= 1, the
    combined check: degree-0 coboundaries are d(y) = (δ_0 y, -y) for the ys
    of ``cochain._degree0_domain``, so b^1 = rank(ys), the report is flagged
    when the algebra table's is, and ∂_0 y = φ_1 δ_0 y must hold.
    """
    _require_family(ctx)
    b, sb = ctx.bimodule, ctx.star_bimodule()
    alg_b1, alg_intersected = _degree0_checks(b, max_degree, check=False)
    rbf_b1, rbf_intersected = _degree0_checks(sb, max_degree)
    intersected, b1_dim = False, None
    if max_degree >= 1:
        ys, intersected = _degree0_domain(b)
        op0, star0, phi1 = delta_op(b, 0), delta_op(sb, 0), phi_op(ctx, 1)
        if any(star0.image(y) != phi1.image(op0.image(y)) for y in ys):
            raise InternalCheckError(
                "combined degree-0 coboundaries are not 2-cocycles; "
                "the complex is inconsistent on this input"
            )
        b1_dim = sparse_rank(ys)
    partial_ranks, delta_ranks, ranks = zip(*(_cone_ranks(ctx, n) for n in range(max_degree + 1)))
    top = sparse_rank(_basis_images(sb, max_degree))
    dims = [ctx.basis(k).dim() for k in range(max_degree + 1)]
    return {
        "alg": _report(dims, delta_ranks, alg_b1, alg_intersected),
        "rbf": _report(dims, partial_ranks[1:] + (top,), rbf_b1, rbf_intersected),
        "rbfa": _report([combined_dim(ctx, k) for k in range(max_degree + 1)], ranks, b1_dim, intersected),
    }


def chain_map_check(ctx: RbfContext, max_degree: int) -> Witness | None:
    """partial^n o phi^n = phi^{n+1} o delta^n on C^n, for n = 0..max_degree.

    For a source tuple s with kernel vectors K and each face (output tuple t,
    δ key k, ∂ key k'; δ_n and ∂_n list the same outputs in the same order),
    ∂_{k'}(φ_s K) is compared with φ_t(δ_k K) on block products, once per class
    (k, k', φ block at s, φ block at t, source signature), for this call only.
    The witness: the degree, the lowest differing basis cochain, its lowest
    differing raw index and both values there (zero where a side has none).
    """
    if max_degree < 0:
        raise MalformedInputError(f"max_degree must be >= 0, got {max_degree}")
    _require_family(ctx)
    for n in range(max_degree + 1):
        op, star, to_rbf, compared = delta_op(ctx.bimodule, n), delta_op(ctx.star_bimodule(), n), phi_op(ctx, n + 1), {}
        phi_n, sigs, lifted_of = phi_op(ctx, n), _signatures(ctx.bimodule, n), {}
        for s, (((_, f),), vectors) in enumerate(zip(phi_n.faces, ctx.basis(n).vectors)):
            if not vectors:
                continue
            phi_key = (f, sigs[s])  # φ_s K is formed once per (φ block, source signature)
            lifted = lifted_of.get(phi_key)
            if lifted is None:
                lifted = lifted_of[phi_key] = _block_product(phi_n.blocks[f], 1, vectors)
            hits = []  # (vector, raw index, lhs, rhs) of each difference
            for (t, k), (_, k_star) in zip(op.faces[s], star.faces[s]):
                key = (k, k_star, to_rbf.faces[t][0][1], *phi_key)
                if key not in compared:
                    lhs = _block_product(star.blocks[k_star], star.id_width, lifted)
                    rhs = _block_product(to_rbf.blocks[key[2]], 1, _block_product(op.blocks[k], op.id_width, vectors))
                    compared[key] = [(i, *min((r, u.get(r, ZERO), v.get(r, ZERO)) for r in u.keys() | v.keys()
                                              if u.get(r, ZERO) != v.get(r, ZERO)))
                                     for i, (u, v) in enumerate(zip(lhs, rhs)) if u != v]
                hits += [(i, t * op.out_width + r, u, v) for i, r, u, v in compared[key]]
            if hits:
                i, idx, u, v = min(hits)
                return Witness("chain-map", (n,), (ctx.basis(n).offsets[s] + i, idx), (u,), (v,))
    return None


def combined_kernel(ctx: RbfContext, n: int) -> list:
    """Basis of ker(d^n) as CombinedCochains (deterministic kernel order),
    from :func:`_combined_images`: the form of each part is injective on the
    space its images lie in, so the kernel is that of d^n."""
    _require_family(ctx)
    b, width = ctx.bimodule, combined_dim(ctx, n)
    rows = sparse_rows(_combined_images(ctx, n), _raw_size(b, n + 1) + _raw_size(b, n))
    return [combined_from_coords(ctx, n, [vec.get(j, ZERO) for j in range(width)])
            for vec in sparse_kernel(rows, width)]


def solve_combined(ctx: RbfContext, n: int, target: CombinedCochain):
    """Coordinates x with d^n(x) = target, free coordinates zero, or None.

    Solves :func:`_combined_images` against the target's parts read in the
    same form (``cochain._read``); a part that reading finds outside its
    cochain space has no preimage, as every image there lies in it.
    """
    if target.degree != n + 1:
        raise MalformedInputError("target degree mismatch")
    if n < 0 or target.rbf is None or target.rbf.degree != n:
        raise MalformedInputError("operator part must have degree one less")
    for part in (target.alg, target.rbf):
        _require_shape(ctx.bimodule, part)
    _require_family(ctx)
    alg, rbf = _read(ctx.bimodule, target.alg), _read(ctx.bimodule, target.rbf)
    if alg is None or rbf is None:
        return None
    x = sparse_solve(sparse_rows(_combined_images(ctx, n), len(alg) + len(rbf)), alg + rbf, combined_dim(ctx, n))
    return None if x is None else combined_from_coords(ctx, n, x)
