"""Cochain spaces, their equivariant bases, and the coboundary operator.

A degree-n cochain with coefficients in a bimodule M over an algebra A is a
family of multilinear maps A^(x n) -> M, one per n-tuple of monoid indices,
subject to two equivariance constraints (the bimodule structure map at the
tuple's product composed with the map equals the map precomposed with the
algebra structure maps slotwise, once for pmap and once for qmap).

Coordinates are global and lexicographic: (monoid tuple, argument
multi-index, output index), flattened as

    ((tuple_rank * d^n) + arg_rank) * dim_m + output_index.

Degree 0 is the n = 0 case throughout and carries no constraint: C^0 = M.

The equivariance constraints of each monoid-tuple block are sparse rows.
They depend only on the twists at the tuple's product and entries, so they
are cached per twist signature (:func:`_twist_signature`, read from one
table per degree, :func:`_signatures`): tuples whose structure maps agree
share one constraint system (:func:`_constraint_system`: the rows, their
column index and their end columns, one record) and one kernel.  That
kernel is the basis of C^n (:func:`equivariant_basis`), whose coordinates
are read at each vector's largest key, its free column by the kernel
convention of ``linalg``.  Applying the rows, through their column index,
to a raw vector tests its membership and drops its end columns in one pass
(:func:`_project`, None off C^n), behind :func:`is_equivariant` and every
check that an image lies in C^k.  A bimodule with the same structure maps
may share all of it (:func:`_share_equivariance`).
A system is built at the cost of its entries: each row is created once,
from M's map at the product, and the slot product's entries are merged
into it in place; one sort orders the rows, and one more pass indexes
them by column.  A map pair that is the identity at the product and at
every entry builds no rows (its constraint reads f = f).  At a zero row k
of M's map at the product, the row of argument a is minus column a of the
slot product, placed at output index k, so arguments with equal columns
share one row: it is built once per distinct column, and the rows it
would repeat are never built (the row space, and so the kernel, every
membership verdict and the end columns, is unchanged).  The rows are kept
sorted by their largest column, descending (stably), so that the kernel's
elimination, which pivots at the smallest column, meets the rows that
reach the free columns first; the RREF is unique, so the order changes
the work, never the basis.

The coboundary has one implementation for n >= 1: the blocks of
:mod:`bihomega.blocks`, one per *pair key* (the structure classes of the
face terms that send a source tuple block to an output tuple block, so
that equal keys have equal blocks), each kept factored: its middle terms
summed at the argument level, tensor id_M, plus its action terms.
:func:`delta_op` is a :class:`BlockOp`, the one holder of δ_n's faces and
those blocks, read in place, once per (bimodule, degree); :func:`apply_delta`,
the tables and every operator caller go through it; δ_0 keeps its own
formula.  Two loops apply a block: :meth:`BlockOp.apply_dense` on dense
cochains, and :func:`_block_product` on sparse vectors, read by the tables
and once per face by :meth:`BlockOp.image`.  The blocks and the constraint rows are sparse Kronecker products
of structure maps (``linalg._kron``); term-by-term transcriptions of the
sum live only in the test oracles (``tests/oracles.py``).

Cohomology tables never assemble an operator: one call of :func:`_images`
forms each block of a :class:`BlockOp` into degree k (δ_n through
:func:`_basis_images`, and φ_n) times the kernel of a source twist
signature once per (block, source signature), kept for that call only: a
bimodule's cache holds compiled structure, never a per-degree result.  It
is the one place that decides how a vector of C^k is read: for k >= 2 each
product is verified against the constraint columns of its output block,
once per (output signature, block, source signature), and its *end
columns* (the largest column of each constraint row) are dropped; each
output block of a basis image is one such product, so every image is
verified.  Dropping them is injective on C^k: a member vanishing off the
end columns meets, at its smallest nonzero end column, a row ending there
with one nonzero term.  For k <= 1 images are raw (see below).  So every
rank, kernel and solve of the three complexes reads one form: a rank
streams a degree's images into one fraction-free integer elimination,
building no matrix of δ_k and no basis of C^{max_degree+1}, and a preimage
is one ``sparse_solve`` of them, transposed into rows, against a target
read alike (:func:`_read`).  The chain-map check forms
:func:`_block_product` products of its own, and :func:`delta_matrix`
reads the raw :meth:`BlockOp.image` of each basis cochain.

Degree-0 caveat: when the unit-index structure maps of M are not the
identity, images of the degree-0 differential can fall outside the
equivariant subspace.  ``delta_matrix(b, 0)`` then raises
InternalCheckError (never forcing the image into C^1), and images into
degree k <= 1 stay raw, the one degree guard of :func:`_images`, until
δ_0 is sound.  The tables take degree 0 from one place,
:func:`_degree0_domain`: vectors spanning {y in M : δ_0 y in C^1}, the
unit vectors of M when every image lies in C^1 and otherwise
:func:`degree0_preimages`, which flags the report.  B^1 is the rank of
their images, each of which must be a 1-cocycle; on some valid inputs one
is not, and the table is refused.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import islice, repeat
from operator import add, mul, sub
from typing import NamedTuple

from .algebra import _refuse_witness, ensure_family
from .bimodule import OmegaBimodule, validate_bimodule
from .errors import InternalCheckError, MalformedInputError, PreconditionError
from .blocks import compile_blocks, pair_keys, structure_classes
from .linalg import Mat, _kron, _supports, sparse_kernel, sparse_rank, sparse_rows, sparse_solve
from .monoid import Monoid
from .rationals import ONE, ZERO, Rat


def _tuple_rank(t, size: int) -> int:
    r = 0
    for x in t:
        r = r * size + x
    return r


class Cochain:
    """Dense coordinate vector of one cochain; see module docstring for layout."""

    __slots__ = ("degree", "omega_size", "dim_in", "dim_out", "coords")

    def __init__(self, degree: int, omega_size: int, dim_in: int, dim_out: int, coords: list):
        self.degree = degree
        self.omega_size = omega_size
        self.dim_in = dim_in
        self.dim_out = dim_out
        self.coords = coords

    @classmethod
    def zero(cls, degree: int, omega_size: int, dim_in: int, dim_out: int) -> "Cochain":
        size = omega_size**degree * dim_in**degree * dim_out
        return cls(degree, omega_size, dim_in, dim_out, [ZERO] * size)

    def block_base(self, om_tuple) -> int:
        n, d = self.degree, self.dim_in
        return _tuple_rank(om_tuple, self.omega_size) * d**n * self.dim_out

    def value(self, om_tuple, args) -> list:
        """Value on basis arguments, as a coefficient vector in M."""
        base = self.block_base(om_tuple) + _tuple_rank(args, self.dim_in) * self.dim_out
        return self.coords[base : base + self.dim_out]

    def add(self, other: "Cochain") -> "Cochain":
        self._compatible(other)
        return self._like(list(map(add, self.coords, other.coords)))

    def sub(self, other: "Cochain") -> "Cochain":
        self._compatible(other)
        return self._like(list(map(sub, self.coords, other.coords)))

    def scale(self, factor) -> "Cochain":
        f = Rat(factor)
        return self._like(list(self.coords) if f == ONE else list(map(mul, repeat(f), self.coords)))

    def is_zero(self) -> bool:
        return not any(self.coords)

    def _shape(self) -> tuple:
        return self.degree, self.omega_size, self.dim_in, self.dim_out

    def _like(self, coords: list) -> "Cochain":
        return Cochain(*self._shape(), coords)

    def _compatible(self, other: "Cochain"):
        if self._shape() != other._shape():
            raise MalformedInputError("cochain shape mismatch")

    def __eq__(self, other):
        return isinstance(other, Cochain) and self._shape() == other._shape() and self.coords == other.coords


def cochain_from_tensors(omega: Monoid, dim_in: int, dim_out: int, tensors) -> Cochain:
    """Degree-2 helper: the tensors[(a, b)][i][j][k], read in (a, b, i, j, k) order, are the coordinates."""
    blocks = [tensors.get((x, y)) for x in omega.elements() for y in omega.elements()]
    if any(t is None or [[len(v) for v in ti] for ti in t] != [[dim_out] * dim_in] * dim_in for t in blocks):
        raise MalformedInputError(f"tensors are not {dim_in}x{dim_in}x{dim_out} at every monoid pair")
    return Cochain(2, omega.size, dim_in, dim_out, [v for t in blocks for ti in t for tij in ti for v in tij])


def cochain_from_maps(omega: Monoid, maps: dict, dim_in: int, dim_out: int) -> Cochain:
    """Degree-1 helper: the maps[a], dim_out x dim_in Mats read column by column, are the coordinates."""
    ensure_family(maps, omega, dim_out, dim_in, "cochain map")
    coords = [v for x in omega.elements() for j in range(dim_in) for v in maps[x].col(j)]
    return Cochain(1, omega.size, dim_in, dim_out, coords)


def maps_from_cochain(f: Cochain, omega: Monoid) -> dict:
    """Inverse of :func:`cochain_from_maps` for degree-1 cochains."""
    if f.degree != 1:
        raise MalformedInputError("expected a degree-1 cochain")
    coords = iter(f.coords)
    return {x: Mat.from_cols([list(islice(coords, f.dim_out)) for _ in range(f.dim_in)], f.dim_out)
            for x in omega.elements()}


# -- equivariance --------------------------------------------------------


def is_equivariant(b: OmegaBimodule, f: Cochain) -> bool:
    """Do both structure-map constraints hold on every block of ``f``?"""
    _require_shape(b, f)
    return _project(b, f.degree, {i: v for i, v in enumerate(f.coords) if v}) is not None


def _project(b: OmegaBimodule, n: int, vec: dict) -> dict | None:
    """The raw degree-n vector (sparse dict) without the end columns of C^n,
    or None when it does not lie in C^n.

    Applies the constraint rows of every monoid-tuple block the vector
    touches, column by column over the vector's entries; exact.  The zero
    vector projects to {}, so a membership test reads ``is not None``.
    """
    size, blocks, ends_of = b.base.dim**n * b.dim_m, {}, {}
    for idx, v in vec.items():
        blocks.setdefault(idx // size, {})[idx % size] = v
    for t, local in blocks.items():
        _, by_col, ends_of[t] = _constraint_system(b, n, t)
        if _violates(by_col, local):
            return None
    return {idx: v for idx, v in vec.items() if idx % size not in ends_of[idx // size]}


def _violates(by_col: dict, local: dict, ends=(), kept: dict | None = None) -> bool:
    """Does a block-local sparse vector fail a constraint row of ``by_col``?
    Its entries off the columns ``ends`` are copied into ``kept``, if given."""
    residual: dict = {}
    for c, x in local.items():
        for i, v in by_col.get(c, ()):
            residual[i] = residual.get(i, 0) + v * x
        if kept is not None and c not in ends:
            kept[c] = x
    return any(residual.values())


def _twist_signature(b: OmegaBimodule, om_tuple) -> tuple:
    """What the equivariance constraints of a tuple block depend on.

    The classes (:func:`bihomega.blocks.structure_classes`) of M's pmap and
    qmap at the tuple's product (the unit for the empty tuple), then of A's
    pmap and qmap at each entry.  Tuples with equal signatures have the same
    block-local constraint rows and the same kernel.
    """
    p_cls, q_cls, _, _, _, mp_cls, mq_cls = structure_classes(b)
    prod = b.base.omega.product_of(om_tuple)
    sig = [mp_cls[prod], mq_cls[prod]]
    for x in om_tuple:
        sig += (p_cls[x], q_cls[x])
    return tuple(sig)


def _signatures(b: OmegaBimodule, n: int) -> list:
    """The :func:`_twist_signature` of each degree-n tuple, by tuple number (cached)."""
    cache = _equivariance(b)
    hit = cache.get(("signatures", n))
    if hit is None:
        hit = cache[("signatures", n)] = [_twist_signature(b, t) for t in b.base.omega.tuples(n)]
    return hit


def _equivariance(b: OmegaBimodule) -> dict:
    """The cache that holds b's equivariance data: its own, or the one
    :func:`_share_equivariance` gave it."""
    return b._cache.get("equivariance", b._cache)


def _share_equivariance(source: OmegaBimodule, target: OmegaBimodule):
    """Let ``target`` read and extend ``source``'s equivariance data: bases and
    twist signatures per degree, constraint systems per twist signature.  It
    depends only on the monoid, the dimensions and the structure maps of A
    and M in their key order (which numbers the signatures);
    InternalCheckError refuses any difference."""
    def key(b):
        a = b.base
        return a.omega, a.dim, b.dim_m, [list(f.items()) for f in (a.pmap, a.qmap, b.pmap, b.qmap)]

    if key(source) != key(target):
        raise InternalCheckError("bimodules with different structure maps cannot share equivariance data")
    target._cache["equivariance"] = _equivariance(source)


class EquivariantBasis:
    """Deterministic basis of C^n, block per monoid tuple.

    ``vectors[t]`` holds sparse block-local basis columns (dicts) for tuple
    number t, ``offsets[t]`` the global index of its first basis element.
    Coordinates of a member cochain are read off at the free columns, each
    vector's largest key by the kernel convention, and verified exactly
    against the reconstruction.
    """

    __slots__ = ("degree", "omega_size", "dim_in", "dim_out", "block_size", "vectors", "offsets")

    def __init__(
        self, degree: int, omega_size: int, dim_in: int, dim_out: int, block_size: int,
        vectors: list, offsets: list,
    ):
        self.degree = degree
        self.omega_size = omega_size
        self.dim_in = dim_in
        self.dim_out = dim_out
        self.block_size = block_size
        self.vectors = vectors
        self.offsets = offsets

    @property
    def raw_dim(self) -> int:
        return self.omega_size**self.degree * self.block_size

    def dim(self) -> int:
        return self.offsets[-1] if self.offsets else 0

    def cochain_sparse(self, j: int) -> dict:
        """Global raw coordinates of basis element j, as a sparse dict."""
        if not 0 <= j < self.dim():
            raise MalformedInputError(f"basis index {j} out of range")
        t = bisect_right(self.offsets, j) - 1  # the last block that starts at or before j
        base = t * self.block_size
        return {base + c: v for c, v in self.vectors[t][j - self.offsets[t]].items()}

    def cochain(self, j: int) -> Cochain:
        f = Cochain.zero(self.degree, self.omega_size, self.dim_in, self.dim_out)
        for idx, v in self.cochain_sparse(j).items():
            f.coords[idx] = v
        return f

    def coords_of(self, raw) -> list:
        """Coordinates of a raw vector (dense list or sparse dict) in this basis,
        read at the free columns and verified by exact reconstruction
        (:meth:`combine`): InternalCheckError off the span, MalformedInputError
        for a length other than raw_dim or a key outside 0..raw_dim - 1."""
        dense = raw
        if isinstance(raw, dict):
            if not all(0 <= idx < self.raw_dim for idx in raw):
                raise MalformedInputError(f"raw vector has a key outside 0..{self.raw_dim - 1}")
            dense = [ZERO] * self.raw_dim
            for idx, v in raw.items():
                dense[idx] = v
        elif len(raw) != self.raw_dim:
            raise MalformedInputError(f"raw vector has length {len(raw)}, not {self.raw_dim}")
        coords = [dense[t * self.block_size + max(vec)] for t, vectors in enumerate(self.vectors) for vec in vectors]
        if self.combine(coords).coords != dense:
            raise InternalCheckError(f"vector is not in the degree-{self.degree} equivariant subspace")
        return coords

    def combine(self, coords) -> Cochain:
        """Linear combination of basis elements with the given coordinates."""
        f = Cochain.zero(self.degree, self.omega_size, self.dim_in, self.dim_out)
        j = 0
        for t, vectors in enumerate(self.vectors):
            base = t * self.block_size
            for vec in vectors:
                c = coords[j]
                j += 1
                if c:
                    for col, v in vec.items():
                        f.coords[base + col] += c * v
        return f


def equivariant_basis(b: OmegaBimodule, n: int) -> EquivariantBasis:
    """Kernel of the stacked equivariance constraints, blockwise per tuple."""
    if n < 0:
        raise MalformedInputError("negative degree")
    cache, cache_key = _equivariance(b), ("equivariant_basis", n)
    hit = cache.get(cache_key)
    if hit is not None:
        return hit
    a = b.base
    om = a.omega
    d, m = a.dim, b.dim_m
    block = d**n * m
    vectors, offsets = [], [0]
    kernels: dict = {}  # one kernel per twist signature, shared by its tuples
    for t, sig in enumerate(_signatures(b, n)):
        if sig not in kernels:
            kernels[sig] = sparse_kernel(_constraint_system(b, n, t)[0], block)
        vectors.append(kernels[sig])
        offsets.append(offsets[-1] + len(vectors[-1]))
    result = EquivariantBasis(n, om.size, d, m, block, vectors, offsets)
    cache[cache_key] = result
    return result


def _constraint_system(b: OmegaBimodule, n: int, t: int) -> tuple:
    """(rows, columns, ends) of the equivariance constraints of degree-n tuple
    number t: sparse rows of (module map) o f - f o (slotwise maps) for pmap
    and qmap, the same rows indexed by column, {col: [(row, coeff)]}, and the
    set of their largest columns.

    Block-local columns; cached per twist signature (:func:`_signatures`),
    since the basis, the membership test :func:`_project` and the
    verdicts of :func:`_violations` read them and tuples with equal
    signatures share them.  One pass builds the rows, each row once per
    (argument tuple, output index): the slot-map part of an argument tuple,
    in lex order, is the Kronecker product of the slot maps' columns at the
    arguments, merged in place into the module map's row.  Identity map
    pairs build no rows; at a zero row of the module map, whose rows are
    minus a slot column, each distinct column builds its row once (see the
    module docstring).  The rows are sorted by largest column, descending
    (see the module docstring); a second pass indexes them by column.
    """
    sig = _signatures(b, n)[t]
    cache, cache_key = _equivariance(b), ("constraints", sig)
    hit = cache.get(cache_key)
    if hit is not None:
        return hit
    a = b.base
    m = b.dim_m
    om_tuple = a.omega.tuples(n)[t]
    prod = a.omega.product_of(om_tuple)
    rows = []
    for mmaps, amaps in ((b.pmap, a.pmap), (b.qmap, a.qmap)) if n else ():  # C^0 = M: no constraint
        big = mmaps[prod]
        if big.is_identity() and all(amaps[x].is_identity() for x in om_tuple):
            continue
        big_rows = _supports(big)
        live = [k for k in range(m) if big_rows[k]]  # a zero row k reads -(slot column) at k
        tables, seen = [(a.dim, _supports(amaps[x], by_col=True)) for x in om_tuple], set()
        for arg_rank, slot_part in enumerate(_kron(tables)):
            column, base = tuple(slot_part), arg_rank * m
            for k in live if column in seen else range(m):
                row = {base + l: v for l, v in big_rows[k]}
                for i_rank, coeff in slot_part:
                    col = i_rank * m + k
                    new = row.get(col, 0) - coeff
                    if new:
                        row[col] = new
                    else:
                        del row[col]
                if row:
                    rows.append(row)
            seen.add(column)
    ends = list(map(max, rows))
    rows = [rows[i] for i in sorted(range(len(rows)), key=ends.__getitem__, reverse=True)]
    columns: dict = {}
    for i, row in enumerate(rows):
        for c, v in row.items():
            entries = columns.get(c)
            if entries is None:
                columns[c] = [(i, v)]
            else:
                entries.append((i, v))
    hit = cache[cache_key] = rows, columns, set(ends)
    return hit


# -- the coboundary -------------------------------------------------------


class BlockOp:
    """Linear map on raw cochain coordinates made of shared blocks.

    The columns of source block s are s * in_width + c, the rows of output
    block t are t * out_width + r.  ``faces[s]`` lists the pairs (output
    block t, block number k) through which source block s reaches t.  Block
    k is (part, actions): local column c = a * id_width + l has the entries
    (r + l, coeff) for (r, coeff) in part[a] and (r + a * stride, coeff) for
    (r, coeff) in entries[l] of each action term (stride, entries); δ_0 and
    φ have id_width 1 and no action terms.  Shared parts are read in place.
    """

    __slots__ = ("nrows", "ncols", "in_width", "out_width", "id_width", "faces", "blocks")

    def __init__(self, nrows: int, ncols: int, in_width: int, out_width: int, id_width: int, faces, blocks):
        self.nrows, self.ncols, self.in_width, self.out_width = nrows, ncols, in_width, out_width
        self.id_width, self.faces, self.blocks = id_width, faces, blocks

    def apply_dense(self, vec) -> list:
        w, m, out = self.in_width, self.id_width, [ZERO] * self.nrows
        for idx, v in enumerate(vec):
            if v:
                s, c = divmod(idx, w)
                a, l = divmod(c, m)
                for t, k in self.faces[s]:
                    (part, actions), row0 = self.blocks[k], t * self.out_width
                    at = row0 + l
                    for r, x in part[a]:
                        out[at + r] += x * v
                    for stride, entries in actions:
                        at = row0 + a * stride
                        for r, x in entries[l]:
                            out[at + r] += x * v
        return out

    def image(self, vec: dict) -> dict:
        """Image of a sparse vector as a sparse dict (no zero entries): the
        vector grouped by source block, one :func:`_block_product` per face."""
        w, by_source, out = self.in_width, {}, {}
        for idx, v in vec.items():
            s, c = divmod(idx, w)
            by_source.setdefault(s, {})[c] = v
        for s, local in by_source.items():
            for t, k in self.faces[s]:
                row0 = t * self.out_width
                for r, x in _block_product(self.blocks[k], self.id_width, [local])[0].items():
                    out[row0 + r] = out.get(row0 + r, 0) + x
        return {row: x for row, x in out.items() if x}


def _raw_size(b: OmegaBimodule, n: int) -> int:
    """Number of raw coordinates of a degree-n cochain."""
    a = b.base
    return a.omega.size**n * a.dim**n * b.dim_m


def delta_op(b: OmegaBimodule, n: int) -> BlockOp:
    """Compiled coboundary on raw coordinates, degree n -> n+1 (cached).

    For n >= 1 the operator is the one holder of δ_n's faces and pair-key
    blocks (:func:`bihomega.blocks.pair_keys` and
    :func:`bihomega.blocks.compile_blocks`); degree 0 has one block per
    output tuple.
    """
    cache_key = ("delta_op", n)
    hit = b._cache.get(cache_key)
    if hit is not None:
        return hit
    if n < 0:
        raise MalformedInputError("negative degree")
    a = b.base
    d, m = a.dim, b.dim_m
    if n == 0:
        # (a |> m at (x, unit)) - (m <| a at (unit, x)), one block per output tuple x
        unit, rows = a.omega.unit, [(j, k) for j in range(d) for k in range(m)]
        faces, blocks = [[(x, x) for x in a.omega.elements()]], []
        for x in a.omega.elements():
            lt, rt = b.left[(x, unit)], b.right[(unit, x)]
            blocks.append(([[(j * m + k, c) for j, k in rows if (c := ZERO + lt[j][l][k] - rt[l][j][k])]
                            for l in range(m)], ()))
    else:
        faces, reps = pair_keys(b, n)
        blocks = compile_blocks(b, n, reps)
    op = BlockOp(_raw_size(b, n + 1), _raw_size(b, n), d**n * m, d ** (n + 1) * m, m if n else 1, faces, blocks)
    b._cache[cache_key] = op
    return op


def _require_shape(b: OmegaBimodule, f: Cochain):
    """Refuse a cochain whose degree, shape or length does not fit C^n(A, M)."""
    a = b.base
    n = f.degree
    if (
        n < 0
        or (f.omega_size, f.dim_in, f.dim_out) != (a.omega.size, a.dim, b.dim_m)
        or len(f.coords) != _raw_size(b, n)
    ):
        raise MalformedInputError("cochain does not match the bimodule")


def apply_delta(b: OmegaBimodule, f: Cochain, check: bool = True) -> Cochain:
    """Coboundary of an equivariant cochain, through the compiled :func:`delta_op`."""
    _require_shape(b, f)
    if check and not is_equivariant(b, f):
        raise PreconditionError("cochain is not equivariant")
    n = f.degree
    return Cochain(n + 1, f.omega_size, f.dim_in, f.dim_out, delta_op(b, n).apply_dense(f.coords))


def _basis_images(b: OmegaBimodule, n: int):
    """Images of the C^n basis under δ_n, in the form of :func:`_images`."""
    return _images(b, n, delta_op(b, n), n + 1)


def _images(b: OmegaBimodule, n: int, op: BlockOp, k: int):
    """Images of the C^n basis under ``op``, a :class:`BlockOp` into raw
    degree-k coordinates, in basis order, as fresh sparse dicts: on each
    output block, the product of the face's block with the kernel vector
    (:func:`_block_product`).  For k >= 2 every product is verified in C^k
    and projected off its end columns (:func:`_violations`), and
    InternalCheckError names the lowest basis element whose image leaves
    C^k; for k <= 1 the images are raw (see the module docstring).
    """
    basis, products_of, verdicts = equivariant_basis(b, n), {}, {}
    for s, (faces, sig) in enumerate(zip(op.faces, _signatures(b, n))):
        vectors = basis.vectors[s]
        if not vectors:
            continue
        parts, bad = [], set()
        for t, key in faces:
            products = products_of.get((key, sig))
            if products is None:
                products = products_of[(key, sig)] = _block_product(op.blocks[key], op.id_width, vectors)
            if k >= 2:
                failing, products = _violations(b, verdicts, k, t, key, sig, products)
                bad |= failing
            parts.append((t * op.out_width, products))
        for j in range(len(vectors)):
            if j in bad:
                raise _left_subspace(n, basis.offsets[s] + j, k)
            yield {row0 + r: v for row0, products in parts for r, v in products[j].items()}


def _read(b: OmegaBimodule, f: Cochain) -> list | None:
    """The coordinates of ``f`` in the form :func:`_images` gives images of
    its degree k: for k >= 2 zero at the end columns of C^k (None when ``f``
    is not in C^k), for k <= 1 raw."""
    if f.degree < 2:
        return f.coords
    kept = _project(b, f.degree, {i: v for i, v in enumerate(f.coords) if v})
    return None if kept is None else [kept.get(i, ZERO) for i in range(len(f.coords))]


def _block_product(block: tuple, id_width: int, vectors: list) -> list:
    """A block of a :class:`BlockOp` applied to the kernel ``vectors`` of a
    source twist signature: one local sparse dict per vector."""
    (part, actions), products = block, []
    for vec in vectors:
        out: dict = {}
        get = out.get
        for c, x in vec.items():
            a, l = divmod(c, id_width)
            for r, v in part[a]:
                out[r + l] = get(r + l, 0) + v * x
            for stride, entries in actions:
                at = a * stride
                for r, v in entries[l]:
                    out[at + r] = get(at + r, 0) + v * x
        products.append({r: v for r, v in out.items() if v})
    return products


def _violations(b: OmegaBimodule, verdicts: dict, n: int, t: int, key: int, sig, products: list) -> tuple:
    """(Indices of ``products`` (block number ``key``, source signature
    ``sig``) that violate the constraints of degree-n output block t, the
    products without the end columns of those constraints), kept in
    ``verdicts`` per (output signature, key, source signature).  Zero
    products satisfy every constraint, so when all are zero none is built."""
    if not any(products):
        return frozenset(), products
    out_sig = _signatures(b, n)[t]
    hit = verdicts.get((out_sig, key, sig))
    if hit is None:
        _, by_col, ends = _constraint_system(b, n, t)
        projected = [{} for _ in products]
        bad = frozenset(k for k, vec in enumerate(products) if _violates(by_col, vec, ends, projected[k]))
        hit = verdicts[(out_sig, key, sig)] = bad, projected
    return hit


def _left_subspace(n: int, j: int, k: int) -> InternalCheckError:
    return InternalCheckError(f"image of degree-{n} basis element {j} left the equivariant subspace: "
                              f"vector is not in the degree-{k} equivariant subspace")


def delta_matrix(b: OmegaBimodule, n: int) -> Mat:
    """Coboundary in equivariant-basis coordinates, C^n -> C^{n+1}, built
    afresh from the raw image of each basis cochain under :func:`delta_op`.

    No table, solve or command reads it: ``tools/gen_fixtures.py`` writes
    it into the ``*_delta1.json`` fixtures, and
    ``perfbench/record_expected.py`` ranks it as a dense reference for its
    pins.  InternalCheckError names the lowest basis element whose image
    leaves C^{n+1} (possible at n = 0; see the module docstring).
    """
    src, dst, op = equivariant_basis(b, n), equivariant_basis(b, n + 1), delta_op(b, n)
    cols = []
    for j in range(src.dim()):
        try:
            cols.append(dst.coords_of(op.image(src.cochain_sparse(j))))
        except InternalCheckError:
            raise _left_subspace(n, j, n + 1) from None
    return Mat.from_cols(cols, nrows=dst.dim()) if cols else Mat.zeros(dst.dim(), 0)


class DegreeRow(NamedTuple):
    degree: int
    dim_cochains: int
    dim_cocycles: int
    dim_coboundaries: int
    dim_cohomology: int

    def to_json(self) -> dict:
        return dict(zip(("degree", "cochains", "cocycles", "coboundaries", "cohomology"), self))


class CohomologyReport(NamedTuple):
    rows: list
    degree0_intersected: bool = False

    def dims(self) -> list:
        return [r.dim_cohomology for r in self.rows]

    def to_json(self) -> dict:
        return {
            "degrees": [r.to_json() for r in self.rows],
            "degree0_intersected": self.degree0_intersected,
        }


def degree0_preimages(b: OmegaBimodule) -> list:
    """Sparse vectors y in C^0 = M spanning {y : δ_0 y in C^1}.

    Read off the kernel of [basis of C^1 | -images of δ_0] (pairs (x, y)
    with B x = W y), keeping the nonzero y parts; the y parts of a kernel
    basis span the y parts of the kernel, ker δ_0 included.
    """
    op = delta_op(b, 0)
    basis1 = equivariant_basis(b, 1)
    width_b = basis1.dim()
    cols = [basis1.cochain_sparse(j) for j in range(width_b)]
    cols += [{idx: -v for idx, v in op.image({l: ONE}).items()} for l in range(b.dim_m)]
    pairs = sparse_kernel([r for r in sparse_rows(cols, op.nrows) if r], width_b + b.dim_m)
    preimages = []
    for vec in pairs:
        y = {c - width_b: v for c, v in vec.items() if c >= width_b}
        if y:
            preimages.append(y)
    return preimages


def _degree0_domain(b: OmegaBimodule) -> tuple:
    """(ys, intersected): sparse vectors spanning {y in M : δ_0 y in C^1} (cached).

    The unit vectors of M when every δ_0 image lies in C^1, otherwise
    :func:`degree0_preimages` and ``intersected`` True.  The one degree-0
    decision of the algebra, operator and combined tables (see the module
    docstring).
    """
    hit = b._cache.get("degree0_domain")
    if hit is None:
        op = delta_op(b, 0)
        units = [{l: ONE} for l in range(b.dim_m)]
        if all(_project(b, 1, op.image(y)) is not None for y in units):
            hit = units, False
        else:
            hit = degree0_preimages(b), True
        b._cache["degree0_domain"] = hit
    return hit


def cohomology_dims(b: OmegaBimodule, max_degree: int) -> CohomologyReport:
    """Cocycle/coboundary/cohomology dimensions for degrees 0..max_degree.

    rank(δ_k) is taken once per degree on the images of the C^k basis,
    streamed from :func:`_basis_images`: raw at k = 0, verified in C^{k+1}
    and projected off its end columns for k >= 1 (:func:`_images`).  B^1
    and the degree-0 checks come first, from :func:`_degree0_checks`.

    Raises InternalCheckError when a check fails (possible for valid
    inputs; see the module docstring), rather than report a quotient by a
    space outside the cocycles; MalformedInputError for a negative
    ``max_degree`` and PreconditionError for an invalid bimodule.
    """
    b1_dim, intersected = _degree0_checks(b, max_degree)
    ranks = [sparse_rank(_basis_images(b, k)) for k in range(max_degree + 1)]
    return _report([equivariant_basis(b, k).dim() for k in range(max_degree + 1)], ranks, b1_dim, intersected)


def _degree0_checks(b: OmegaBimodule, max_degree: int, check: bool = True) -> tuple:
    """(dim B^1 = rank of the images δ_0 y over :func:`_degree0_domain`,
    intersected), after the checks each table of b makes before any rank:
    ``max_degree`` >= 0, b valid (unless ``check`` is False), each δ_0 y a
    1-cocycle in C^1."""
    if max_degree < 0:
        raise MalformedInputError(f"max_degree must be >= 0, got {max_degree}")
    _refuse_witness(validate_bimodule(b) if check else None, "bimodule invalid")
    ys, intersected = _degree0_domain(b)
    op0, op1 = delta_op(b, 0), delta_op(b, 1)
    images = [op0.image(y) for y in ys]
    for g in images:
        if _project(b, 1, g) is None:
            raise InternalCheckError("vector is not in the degree-1 equivariant subspace")
        if op1.image(g):
            raise InternalCheckError(
                "degree-0 coboundary generator is not a 1-cocycle; "
                "the complex is inconsistent on this input"
            )
    return sparse_rank(images), intersected


def _report(dims: list, ranks, b1_dim: int | None, intersected: bool) -> CohomologyReport:
    """The table from the cochain dimensions, the rank of the differential on
    each degree and dim B^1; a coboundary space larger than Z^k is refused."""
    rows = []
    for k, (dim, rank_k) in enumerate(zip(dims, ranks)):
        z = dim - rank_k
        bdim = 0 if k == 0 else b1_dim if k == 1 else ranks[k - 1]
        if bdim > z:
            raise InternalCheckError(f"degree-{k} coboundary space is larger than the cocycle space")
        rows.append(DegreeRow(k, dim, z, bdim, z - bdim))
    return CohomologyReport(rows, intersected)


def dd_zero_witness(b: OmegaBimodule, degrees) -> tuple | None:
    """The first (n, j), over the given degrees n in order, such that
    δ_{n+1} δ_n is not zero on basis cochain j of C^n; None when there is
    none.  Raw coordinates, so a degree-0 image outside C^1 still counts."""
    for n in degrees:
        basis = equivariant_basis(b, n)
        op_n, op_next = delta_op(b, n), delta_op(b, n + 1)
        for j in range(basis.dim()):
            if op_next.image(op_n.image(basis.cochain_sparse(j))):
                return n, j
    return None


def is_cocycle(b: OmegaBimodule, f: Cochain) -> bool:
    return apply_delta(b, f).is_zero()


def is_coboundary(b: OmegaBimodule, f: Cochain) -> Cochain | None:
    """A preimage with free coordinates zero, or None: the images of the
    C^{n-1} basis (:func:`_basis_images`) solved against ``f`` read in their
    form (:func:`_read`), as ``rbf.solve_combined`` solves; the form is
    injective where both lie, so the solutions are those of
    :func:`delta_matrix`.  Degree-0 images need not lie in C^1, but a
    preimage of an equivariant target is still meaningful.
    """
    if not is_equivariant(b, f):
        raise PreconditionError("cochain is not equivariant")
    n = f.degree
    if n == 0:
        return None
    images = list(_basis_images(b, n - 1))
    x = sparse_solve(sparse_rows(images, len(f.coords)), _read(b, f), len(images))
    return None if x is None else equivariant_basis(b, n - 1).combine(x)


def random_equivariant(b: OmegaBimodule, n: int, rng, lo: int = -2, hi: int = 2) -> Cochain:
    """Random element of C^n: basis coordinates drawn uniformly from [lo, hi]."""
    basis = equivariant_basis(b, n)
    coords = [Rat(rng.randint(lo, hi)) for _ in range(basis.dim())]
    return basis.combine(coords)
