"""Cochain spaces, their equivariant bases, and the coboundary operator.

A degree-n cochain with coefficients in a bimodule M over an algebra A is a
family of multilinear maps A^(x n) -> M, one per n-tuple of monoid indices,
subject to two equivariance constraints (the bimodule structure map at the
tuple's product composed with the map equals the map precomposed with the
algebra structure maps slotwise, once for pmap and once for qmap).

Coordinates are global and lexicographic: (monoid tuple, argument
multi-index, output index), flattened as

    ((tuple_rank * d^n) + arg_rank) * dim_m + output_index.

Degree 0 carries no constraint: C^0 = M.

The equivariance constraints of each monoid-tuple block are sparse rows
(:func:`_constraint_rows`).  They depend only on the twists at the tuple's
product and entries, so they are cached per twist signature
(:func:`_twist_signature`): tuples whose structure maps agree share one set
of rows and one kernel.  That kernel is the basis of C^n
(:func:`equivariant_basis`), and applying the rows to a raw vector is the
one membership test (:func:`_in_subspace`), behind :func:`is_equivariant`
and every check that a coboundary image lies in C^{n+1}.  A map pair that
is the identity at the product and at every entry builds no rows (its
constraint reads f = f), and the rows are kept sorted by their largest
column, descending, so that the kernel's elimination, which pivots at the
smallest column, meets the rows that reach the free columns first; the
RREF is unique, so the order changes the work, never the basis.

The coboundary has one implementation for n >= 1: the blocks of
:mod:`bihomega.blocks`, one per *pair key* (the structure classes of the
face terms that send a source tuple block to an output tuple block, so
that equal keys have equal blocks).  :func:`delta_op` places each pair's
block at its offsets, once per (bimodule, degree), and :func:`apply_delta`
and every operator caller go through it; degree 0 keeps its own formula.
The blocks and the constraint rows are built as sparse Kronecker products
of rows and columns of the structure maps (``linalg._kron``), visiting only
nonzeros.  Independent term-by-term transcriptions of the sum live only in
the test oracles (``tests/oracles.py``).

Cohomology tables never assemble δ for n >= 1: :func:`_basis_images`
forms each block times the kernel of a source twist signature once per
(pair key, source signature), and verifies that product against the
constraint columns of the output block once per (output signature, pair
key, source signature).  An image lies in C^{n+1} exactly when each of its
output blocks meets that block's constraints, and each output block of a
basis image is one such product, so every image is still verified.  The
same pass drops the *end columns* of the output block (the largest column
of each constraint row) from each product.  That is injective on C^{k+1}:
a member vanishing off the end columns meets, at its smallest nonzero end
column, a row ending there with one nonzero term.  So the projected images,
streamed into one fraction-free integer rank per degree k >= 1 (degree 0
ranks raw images), give the rank of δ_k, and no matrix of δ_k and no basis
or kernel of C^{max_degree+1} is built.  :func:`delta_matrix` (via
``coords_of``), :func:`is_coboundary` and the combined complex keep the raw
products: a preimage is one ``sparse_solve`` of the raw images, transposed
into rows by ``linalg.sparse_rows``, against the raw target.

Degree-0 caveat: when the unit-index structure maps of M are not the
identity, images of the degree-0 differential can fall outside the
equivariant subspace.  ``delta_matrix(b, 0)`` then raises
InternalCheckError (never forcing the image into C^1), and
``cohomology_dims`` falls back to the exact intersection of the image with
C^1, flagging the report.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from .bimodule import OmegaBimodule, validate_bimodule
from .errors import InternalCheckError, MalformedInputError, PreconditionError
from .blocks import coboundary_plan
from .linalg import Mat, _kron, _supports, reduce_into, sparse_kernel, sparse_rank, sparse_rows, sparse_solve
from .monoid import Monoid
from .rationals import ONE, ZERO, Rat


def _tuple_rank(t, size: int) -> int:
    r = 0
    for x in t:
        r = r * size + x
    return r


@dataclass(eq=False)
class Cochain:
    """Dense coordinate vector of one cochain; see module docstring for layout."""

    degree: int
    omega_size: int
    dim_in: int
    dim_out: int
    coords: list

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
        return Cochain(
            self.degree,
            self.omega_size,
            self.dim_in,
            self.dim_out,
            [a + b for a, b in zip(self.coords, other.coords)],
        )

    def sub(self, other: "Cochain") -> "Cochain":
        self._compatible(other)
        return Cochain(
            self.degree,
            self.omega_size,
            self.dim_in,
            self.dim_out,
            [a - b for a, b in zip(self.coords, other.coords)],
        )

    def scale(self, factor) -> "Cochain":
        f = Rat(factor)
        return Cochain(
            self.degree, self.omega_size, self.dim_in, self.dim_out, [f * a for a in self.coords]
        )

    def is_zero(self) -> bool:
        return all(not x for x in self.coords)

    def _compatible(self, other: "Cochain"):
        if (
            self.degree != other.degree
            or self.omega_size != other.omega_size
            or self.dim_in != other.dim_in
            or self.dim_out != other.dim_out
        ):
            raise MalformedInputError("cochain shape mismatch")

    def __eq__(self, other):
        return (
            isinstance(other, Cochain)
            and self.degree == other.degree
            and self.omega_size == other.omega_size
            and self.dim_in == other.dim_in
            and self.dim_out == other.dim_out
            and self.coords == other.coords
        )


def cochain_from_tensors(omega: Monoid, degree: int, dim_in: int, dim_out: int, tensors) -> Cochain:
    """Degree-2 helper: tensors[(a, b)][i][j][k] -> cochain coordinates."""
    if degree != 2:
        raise MalformedInputError("cochain_from_tensors is a degree-2 helper")
    f = Cochain.zero(2, omega.size, dim_in, dim_out)
    for x in omega.elements():
        for y in omega.elements():
            t = tensors[(x, y)]
            base = f.block_base((x, y))
            for i in range(dim_in):
                for j in range(dim_in):
                    off = base + (i * dim_in + j) * dim_out
                    for k in range(dim_out):
                        f.coords[off + k] = t[i][j][k]
    return f


def cochain_from_maps(omega: Monoid, maps: dict, dim_in: int, dim_out: int) -> Cochain:
    """Degree-1 helper: maps[a] a dim_out x dim_in Mat."""
    f = Cochain.zero(1, omega.size, dim_in, dim_out)
    for x in omega.elements():
        mat = maps[x]
        base = f.block_base((x,))
        for j in range(dim_in):
            for k in range(dim_out):
                f.coords[base + j * dim_out + k] = mat.at(k, j)
    return f


def maps_from_cochain(f: Cochain, omega: Monoid) -> dict:
    """Inverse of :func:`cochain_from_maps` for degree-1 cochains."""
    if f.degree != 1:
        raise MalformedInputError("expected a degree-1 cochain")
    out = {}
    for x in omega.elements():
        m = Mat.zeros(f.dim_out, f.dim_in)
        for j in range(f.dim_in):
            v = f.value((x,), (j,))
            for k in range(f.dim_out):
                m.entries[k * f.dim_in + j] = v[k]
        out[x] = m
    return out


# -- equivariance --------------------------------------------------------


def is_equivariant(b: OmegaBimodule, f: Cochain) -> bool:
    """Do both structure-map constraints hold on every block of ``f``?"""
    _require_shape(b, f)
    return _in_subspace(b, f.degree, {i: v for i, v in enumerate(f.coords) if v})


def _in_subspace(b: OmegaBimodule, n: int, vec: dict) -> bool:
    """Does the raw degree-n vector (sparse dict) lie in C^n?

    Applies the constraint rows of every monoid-tuple block the vector
    touches, column by column over the vector's entries; exact, never a
    projection.
    """
    if n == 0:
        return True
    size = b.base.dim**n * b.dim_m
    blocks: dict = {}
    for idx, v in vec.items():
        blocks.setdefault(idx // size, {})[idx % size] = v
    # the columns of each tuple are resolved once per degree, not per vector
    table = b._cache.get(("block_columns", n))
    if table is None:
        table = b._cache[("block_columns", n)] = [None] * b.base.omega.size**n
    for t, local in blocks.items():
        by_col = table[t]
        if by_col is None:
            by_col = table[t] = _constraint_columns(b, b.base.omega.tuples(n)[t])
        if _violates(by_col, local):
            return False
    return True


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


def _constraint_columns(b: OmegaBimodule, om_tuple) -> dict:
    """The tuple's :func:`_constraint_rows` indexed by column: {col: [(row, coeff)]}.

    Cached per twist signature, like the rows.
    """
    cache_key = ("constraint_columns", _twist_signature(b, om_tuple))
    hit = b._cache.get(cache_key)
    if hit is None:
        hit = {}
        for i, row in enumerate(_constraint_rows(b, om_tuple)):
            for c, v in row.items():
                hit.setdefault(c, []).append((i, v))
        b._cache[cache_key] = hit
    return hit


def _twist_signature(b: OmegaBimodule, om_tuple) -> tuple:
    """What the equivariance constraints of a tuple block depend on.

    The class of M's (pmap, qmap) at the tuple's product, then the class of
    A's (pmap, qmap) at each entry.  Tuples with equal signatures have the
    same block-local constraint rows and the same kernel.
    """
    module_class, algebra_class = _twist_classes(b)
    return (module_class[b.base.omega.product_of(om_tuple)],) + tuple(algebra_class[x] for x in om_tuple)


def _twist_classes(b: OmegaBimodule) -> tuple:
    """Per monoid element, class ids of M's and of A's (pmap, qmap) pairs.

    Two elements share a class when both maps agree entry for entry (cached).
    """
    hit = b._cache.get("twist_classes")
    if hit is None:
        def classes(pmap: dict, qmap: dict) -> list:
            ids: dict = {}
            return [ids.setdefault((tuple(pmap[x].entries), tuple(qmap[x].entries)), len(ids))
                    for x in b.base.omega.elements()]

        hit = b._cache["twist_classes"] = (classes(b.pmap, b.qmap), classes(b.base.pmap, b.base.qmap))
    return hit


@dataclass(eq=False)
class EquivariantBasis:
    """Deterministic basis of C^n, block per monoid tuple.

    ``vectors[t]`` holds sparse block-local basis columns for tuple number t,
    ``frees[t]`` the free columns the kernel convention assigned them to.
    Coordinates of a member cochain are read off at the free columns and
    verified exactly against the reconstruction.
    """

    degree: int
    omega_size: int
    dim_in: int
    dim_out: int
    block_size: int
    vectors: list  # per tuple: list of sparse dicts (block-local)
    frees: list  # per tuple: list of free column indices
    offsets: list  # per tuple: global basis index offset

    @property
    def raw_dim(self) -> int:
        return self.omega_size**self.degree * self.block_size

    def dim(self) -> int:
        return self.offsets[-1] if self.offsets else 0

    def _block_count(self) -> int:
        return self.omega_size**self.degree

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
        """Coordinates of a raw vector (dense list or sparse dict) in this basis.

        Raises InternalCheckError when the vector is not in the span; the
        verification is exact reconstruction, never a projection.
        """
        dense = raw
        if isinstance(raw, dict):
            dense = [ZERO] * self.raw_dim
            for idx, v in raw.items():
                dense[idx] = v
        coords = []
        for t in range(self._block_count()):
            base = t * self.block_size
            block = dense[base : base + self.block_size]
            local_coords = [block[c] for c in self.frees[t]]
            recon = [ZERO] * self.block_size
            for coeff, vec in zip(local_coords, self.vectors[t]):
                if coeff:
                    for c, v in vec.items():
                        recon[c] += coeff * v
            if recon != block:
                raise InternalCheckError(
                    f"vector is not in the degree-{self.degree} equivariant subspace"
                )
            coords.extend(local_coords)
        return coords

    def combine(self, coords) -> Cochain:
        """Linear combination of basis elements with the given coordinates."""
        f = Cochain.zero(self.degree, self.omega_size, self.dim_in, self.dim_out)
        j = 0
        for t in range(self._block_count()):
            base = t * self.block_size
            for vec in self.vectors[t]:
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
    cache_key = ("equivariant_basis", n)
    hit = b._cache.get(cache_key)
    if hit is not None:
        return hit
    a = b.base
    om = a.omega
    d, m = a.dim, b.dim_m
    block = d**n * m
    vectors, frees, offsets = [], [], [0]
    if n == 0:
        vectors.append([{k: ONE} for k in range(m)])
        frees.append(list(range(m)))
        offsets.append(m)
    else:
        kernels: dict = {}  # one kernel per twist signature, shared by its tuples
        for om_tuple in om.tuples(n):
            sig = _twist_signature(b, om_tuple)
            if sig not in kernels:
                # one vector per free column, and that column is the vector's
                # largest key: an RREF row has nonzeros only right of its pivot
                basis = sparse_kernel(_constraint_rows(b, om_tuple), block)
                kernels[sig] = basis, [max(vec) for vec in basis]
            basis, free = kernels[sig]
            vectors.append(basis)
            frees.append(free)
            offsets.append(offsets[-1] + len(basis))
    result = EquivariantBasis(n, om.size, d, m, block, vectors, frees, offsets)
    b._cache[cache_key] = result
    return result


def _constraint_rows(b: OmegaBimodule, om_tuple) -> list:
    """Sparse rows of (module map) o f - f o (slotwise maps) for pmap and qmap.

    Block-local columns of the tuple's block; cached per twist signature
    (:func:`_twist_signature`), since both the basis and the membership test
    :func:`_in_subspace` apply them and tuples with equal signatures share
    them.  Per argument tuple, in lex order, the slot-map part is the
    Kronecker product of the slot maps' columns at the arguments.  Identity
    map pairs build no rows, and the rows are sorted by largest column,
    descending (see the module docstring), caching those end columns.
    """
    sig = _twist_signature(b, om_tuple)
    cache_key = ("constraint_rows", sig)
    hit = b._cache.get(cache_key)
    if hit is not None:
        return hit
    a = b.base
    m = b.dim_m
    prod = a.omega.product_of(om_tuple)
    rows = []
    for mmaps, amaps in ((b.pmap, a.pmap), (b.qmap, a.qmap)):
        big = mmaps[prod]
        if big.is_identity() and all(amaps[x].is_identity() for x in om_tuple):
            continue
        big_rows = _supports(big)
        tables = [(a.dim, _supports(amaps[x], by_col=True)) for x in om_tuple]
        for arg_rank, slot_part in enumerate(_kron(tables)):
            row_of = [{arg_rank * m + l: v for l, v in big_rows[k]} for k in range(m)]
            for i_rank, coeff in slot_part:
                for k, row in enumerate(row_of):
                    col = i_rank * m + k
                    new = row.get(col, ZERO) - coeff
                    if new:
                        row[col] = new
                    else:
                        row.pop(col, None)
            rows.extend(r for r in row_of if r)
    ends = b._cache[("end_columns", sig)] = set()  # filled by the sort key: one max per row
    rows.sort(key=lambda row: ends.add(end := max(row)) or end, reverse=True)
    b._cache[cache_key] = rows
    return rows


# -- the coboundary -------------------------------------------------------


class SparseOp:
    """Sparse linear map on raw cochain coordinates, stored column-wise.

    ``cols[c]`` lists the (row, nonzero coefficient) pairs of column c.
    """

    __slots__ = ("nrows", "ncols", "cols")

    def __init__(self, nrows: int, ncols: int, cols: list):
        self.nrows = nrows
        self.ncols = ncols
        self.cols = cols

    @classmethod
    def from_dicts(cls, nrows: int, ncols: int, colmaps: list) -> "SparseOp":
        """From one {row: coeff} dict per column; zero coefficients are dropped."""
        return cls(nrows, ncols, [[(row, v) for row, v in cm.items() if v] for cm in colmaps])

    def apply_dense(self, vec) -> list:
        out = [ZERO] * self.nrows
        for col, v in enumerate(vec):
            if v:
                for row, c in self.cols[col]:
                    out[row] += c * v
        return out

    def image(self, vec: dict) -> dict:
        """Image of a sparse vector as a sparse dict (no zero entries)."""
        out: dict = {}
        for col, v in vec.items():
            for row, c in self.cols[col]:
                out[row] = out.get(row, 0) + c * v
        return {row: x for row, x in out.items() if x}


def _raw_size(b: OmegaBimodule, n: int) -> int:
    """Number of raw coordinates of a degree-n cochain."""
    a = b.base
    return a.omega.size**n * a.dim**n * b.dim_m


def delta_op(b: OmegaBimodule, n: int) -> SparseOp:
    """Compiled coboundary on raw coordinates, degree n -> n+1 (cached).

    For n >= 1 each pair (output tuple, source tuple) of
    :func:`bihomega.blocks.coboundary_plan` places its pair key's shared
    block at the pair's offsets.
    """
    cache_key = ("delta_op", n)
    hit = b._cache.get(cache_key)
    if hit is not None:
        return hit
    a = b.base
    d, m = a.dim, b.dim_m
    ncols, nrows = _raw_size(b, n), _raw_size(b, n + 1)
    if n == 0:
        # (a |> m at (x, unit)) - (m <| a at (unit, x))
        unit = a.omega.unit
        colmaps = [dict() for _ in range(ncols)]
        for x in a.omega.elements():
            lt = b.left[(x, unit)]
            rt = b.right[(unit, x)]
            for j in range(d):
                for k in range(m):
                    row = (x * d + j) * m + k
                    for l in range(m):
                        cm = colmaps[l]
                        cm[row] = cm.get(row, ZERO) + lt[j][l][k] - rt[l][j][k]
        op = SparseOp.from_dicts(nrows, ncols, colmaps)
    else:
        plan = coboundary_plan(b, n)
        in_width, out_width = d**n * m, d ** (n + 1) * m
        cols = [[] for _ in range(ncols)]
        for s, faces in enumerate(plan.faces):
            col0 = s * in_width
            for t, key in faces:
                row0 = t * out_width
                for c, entries in enumerate(plan.block(b, key), start=col0):
                    if entries:
                        cols[c] += [(row0 + r, v) for r, v in entries] if row0 else entries
        op = SparseOp(nrows, ncols, cols)
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


def _basis_images(b: OmegaBimodule, n: int, verify: bool = True, project: bool = False):
    """Images of the C^n basis under δ, in basis order, as fresh sparse dicts.

    Degree 0 applies :func:`delta_op`.  For n >= 1 the image of basis element
    (source tuple s, kernel vector k) is, on each output block of s, the
    product of that pair's block with vector k
    (:class:`bihomega.blocks.CoboundaryPlan`); δ is never assembled.  With
    ``verify`` every image is checked against the degree-(n+1) constraints,
    block by block, before it is yielded (each output block of an image is
    one product, so its verdict is shared, :func:`_violations`), and
    InternalCheckError names the lowest basis element whose image leaves
    C^{n+1} (possible at n = 0; see the module docstring).  ``project``
    verifies and drops the end columns of C^{n+1} (n >= 1), keeping the rank.
    """
    basis = equivariant_basis(b, n)
    if n == 0:
        op = delta_op(b, 0)
        for j in range(basis.dim()):
            image = op.image(basis.cochain_sparse(j))
            if verify and not _in_subspace(b, 1, image):
                raise _left_subspace(n, j)
            yield image
        return
    plan = coboundary_plan(b, n)
    om = b.base.omega
    sources, outputs = om.tuples(n), om.tuples(n + 1)
    out_width = b.base.dim ** (n + 1) * b.dim_m
    for s, faces in enumerate(plan.faces):
        vectors = basis.vectors[s]
        if not vectors:
            continue
        sig = _twist_signature(b, sources[s])
        parts, bad = [], set()
        for t, key in faces:
            products = plan.product(b, key, sig, vectors)
            if verify or project:
                failing, projected = _violations(b, plan, outputs[t], key, sig, products)
                bad |= failing
                products = projected if project else products
            parts.append((t * out_width, products))
        for k in range(len(vectors)):
            if k in bad:
                raise _left_subspace(n, basis.offsets[s] + k)
            image: dict = {}
            for row0, products in parts:
                for r, v in products[k].items():
                    image[row0 + r] = v
            yield image


def _violations(b: OmegaBimodule, plan, beta, key: int, sig, products: list) -> tuple:
    """(Indices of ``products`` (pair key number ``key``, source signature
    ``sig``) that violate the constraints of output block ``beta``, the
    products without the end columns of those constraints), kept in
    ``plan.failures`` per (output signature, key, source signature).  Zero
    products satisfy every constraint, so when all are zero none is built."""
    if not any(products):
        return frozenset(), products
    out_sig = _twist_signature(b, beta)
    hit = plan.failures.get((out_sig, key, sig))
    if hit is None:
        by_col = _constraint_columns(b, beta)
        ends = b._cache[("end_columns", out_sig)]
        projected = [{} for _ in products]
        bad = frozenset(k for k, vec in enumerate(products) if _violates(by_col, vec, ends, projected[k]))
        hit = plan.failures[(out_sig, key, sig)] = bad, projected
    return hit


def _left_subspace(n: int, j: int) -> InternalCheckError:
    return InternalCheckError(
        f"coboundary image of degree-{n} basis element {j} left the "
        f"equivariant subspace: vector is not in the degree-{n + 1} "
        f"equivariant subspace"
    )


def delta_matrix(b: OmegaBimodule, n: int) -> Mat:
    """Coboundary in equivariant-basis coordinates, C^n -> C^{n+1}.

    No table, solve or command reads it: ``tools/gen_fixtures.py`` writes
    it into the ``*_delta1.json`` fixtures, and
    ``perfbench/record_expected.py`` ranks it as a dense reference for its
    pins.  Raises InternalCheckError if any image leaves the equivariant
    subspace (possible at n = 0 when unit-index structure maps are not the
    identity).
    """
    cache_key = ("delta_matrix", n)
    hit = b._cache.get(cache_key)
    if hit is not None:
        return hit
    dst = equivariant_basis(b, n + 1)
    cols = [dst.coords_of(image) for image in _basis_images(b, n)]
    result = Mat.from_cols(cols, nrows=dst.dim()) if cols else Mat.zeros(dst.dim(), 0)
    b._cache[cache_key] = result
    return result


@dataclass
class DegreeRow:
    degree: int
    dim_cochains: int
    dim_cocycles: int
    dim_coboundaries: int
    dim_cohomology: int

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "cochains": self.dim_cochains,
            "cocycles": self.dim_cocycles,
            "coboundaries": self.dim_coboundaries,
            "cohomology": self.dim_cohomology,
        }


@dataclass
class CohomologyReport:
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
    """Sparse vectors y in C^0 = M whose coboundaries δ_0 y lie in C^1.

    Read off the kernel of [basis of C^1 | -images of δ_0] (pairs (x, y)
    with B x = W y), keeping the nonzero y parts; together with ker δ_0
    they span {y : δ_0 y in C^1}.
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


def _image_intersection_generators(b: OmegaBimodule) -> list:
    """Independent raw generators of im(delta_0) ∩ C^1, as sparse dicts.

    Used when the degree-0 differential leaves the equivariant subspace; a
    generator is kept when it opens a new pivot.
    """
    op = delta_op(b, 0)
    pivots: dict = {}
    return [g for g in (op.image(y) for y in degree0_preimages(b)) if reduce_into(pivots, g)]


def cohomology_dims(b: OmegaBimodule, max_degree: int, check: bool = True) -> CohomologyReport:
    """Cocycle/coboundary/cohomology dimensions for degrees 0..max_degree.

    rank(δ_k on C^k) is taken once per degree on the images of the C^k
    basis, streamed from :func:`_basis_images`, each verified to satisfy the
    degree-(k+1) constraints and, for k >= 1, projected off their end
    columns (see the module docstring).

    Raises InternalCheckError when degree-0 coboundaries are not 1-cocycles
    (possible for valid inputs; see the module docstring): reporting a
    quotient by a space that is not inside the cocycles would be wrong.
    Raises MalformedInputError for a negative ``max_degree``; ``check``
    False skips validating a bimodule the caller has validated.
    """
    if max_degree < 0:
        raise MalformedInputError(f"max_degree must be >= 0, got {max_degree}")
    witness = validate_bimodule(b) if check else None
    if witness is not None:
        raise PreconditionError(f"bimodule invalid: {witness.describe()}")
    dims_c = [equivariant_basis(b, k).dim() for k in range(max_degree + 1)]
    images0 = [delta_op(b, 0).image({l: ONE}) for l in range(b.dim_m)]  # C^0 = M
    b1_dim = None
    if not all(_in_subspace(b, 1, img) for img in images0):
        gens = _image_intersection_generators(b)
        b1_dim = len(gens)
        for g in gens:
            if not _in_subspace(b, 1, g):
                raise InternalCheckError("vector is not in the degree-1 equivariant subspace")
            if delta_op(b, 1).image(g):
                raise InternalCheckError(
                    "degree-0 coboundary generator is not a 1-cocycle; "
                    "the complex is inconsistent on this input"
                )
    ranks = [sparse_rank(images0)]
    ranks += [sparse_rank(_basis_images(b, k, project=True)) for k in range(1, max_degree + 1)]
    if b1_dim is None and max_degree >= 1 and any(delta_op(b, 1).image(g) for g in images0):
        raise InternalCheckError(
            "degree-0 coboundaries are not 1-cocycles; "
            "the complex is inconsistent on this input"
        )
    rows = []
    for k in range(max_degree + 1):
        z = dims_c[k] - ranks[k]
        if k == 0:
            bdim = 0
        elif b1_dim is not None and k == 1:
            bdim = b1_dim
        else:
            bdim = ranks[k - 1]
        if bdim > z:
            raise InternalCheckError(
                f"degree-{k} coboundary space is larger than the cocycle space"
            )
        rows.append(DegreeRow(k, dims_c[k], z, bdim, z - bdim))
    return CohomologyReport(rows, b1_dim is not None)


def degree0_sound(b: OmegaBimodule) -> bool:
    """Does the degree-0 differential compose to zero into the complex?

    True when every degree-0 coboundary that lies in C^1 (all of them, or
    the exact intersection when some image leaves the subspace) is killed
    by the next differential.  Valid inputs exist for which this fails; see
    the module docstring.
    """
    op0 = delta_op(b, 0)
    op1 = delta_op(b, 1)
    images = [op0.image({l: ONE}) for l in range(b.dim_m)]
    if not all(_in_subspace(b, 1, img) for img in images):
        images = _image_intersection_generators(b)
    return not any(op1.image(img) for img in images)


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
    if not is_equivariant(b, f):
        raise PreconditionError("cochain is not equivariant")
    op = delta_op(b, f.degree)
    return not any(op.apply_dense(f.coords))


def is_coboundary(b: OmegaBimodule, f: Cochain) -> Cochain | None:
    """A preimage with free coordinates zero, or None.

    Solves the raw images of the C^{n-1} basis (:func:`_basis_images`)
    against the raw coordinates of ``f``, as ``rbf.solve_combined`` does;
    coordinates in the C^n basis are injective on C^n, so the solutions are
    those of :func:`delta_matrix`.  The images are verified to lie in C^n
    for n - 1 >= 1; degree-0 images need not lie in C^1, but a preimage of
    an equivariant target is still meaningful.
    """
    if not is_equivariant(b, f):
        raise PreconditionError("cochain is not equivariant")
    n = f.degree
    if n == 0:
        return None
    images = list(_basis_images(b, n - 1, verify=n >= 2))
    x = sparse_solve(sparse_rows(images, len(f.coords)), f.coords, len(images))
    return None if x is None else equivariant_basis(b, n - 1).combine(x)


def random_equivariant(b: OmegaBimodule, n: int, rng, lo: int = -2, hi: int = 2) -> Cochain:
    """Random element of C^n: basis coordinates drawn uniformly from [lo, hi]."""
    basis = equivariant_basis(b, n)
    coords = [Rat(rng.randint(lo, hi)) for _ in range(basis.dim())]
    return basis.combine(coords)
