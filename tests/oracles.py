"""Independent routes kept only to check production code.

Each oracle transcribes a definition literally, with none of the compiled
or factored evaluation that production uses:

* :func:`evaluate_oracle` -- multilinear evaluation of a cochain on general
  coordinate vectors, one argument at a time (production evaluates nothing
  pointwise: it composes cochains with ``gerstenhaber.circ_i``);
* :func:`delta_direct_oracle` -- the coboundary as the alternating sum,
  term by term (production: the compiled ``cochain.delta_op``);
* :func:`partial_expanded_oracle` -- the operator-complex differential as
  the expanded sum in the original structures (production: ``rbf.partial``,
  the compiled coboundary of the star bimodule);
* :func:`phi_subset_oracle` -- the comparison map by enumerating subsets of
  slots (production: the compiled ``rbf.phi_op``);
* :func:`combined_raw_matrix_oracle` -- the dense matrix of the combined
  differential, built from the two oracles above (production: the cached
  sparse images in ``rbf``);
* :func:`is_equivariant_oracle` -- both structure-map constraints evaluated
  slot by slot through :func:`evaluate_oracle` (production:
  ``cochain.is_equivariant``, the cached constraint rows);
* :func:`equivariant_basis_oracle` -- the basis of C^n, tuple by tuple:
  each block's constraint rows written out densely from the definition and
  solved by :func:`gauss_jordan_oracle`, with nothing shared between tuples
  (production: ``cochain.equivariant_basis``, one cached kernel per twist
  signature);
* :func:`gauss_jordan_oracle` -- dense Gauss-Jordan elimination on lists of
  ``Fraction`` (production: the sparse row-by-row elimination in
  ``linalg``), and read off it, :func:`kernel_oracle` (free coordinate 1)
  and :func:`solve_oracle` (free coordinates 0) for a dense ``Mat``
  (production: ``linalg.sparse_kernel`` and ``linalg.sparse_solve``);
* :func:`sparse_rref_oracle` -- the sparse RREF with rational row updates,
  pivots normalized to 1 as rows arrive (production: the fraction-free
  ``linalg.sparse_rref``);
* :func:`circ_i_oracle` -- the insertion of g into slot i of f as a
  slot-by-slot contraction of the dense block of f at the merged tuple
  (production: the compiled insertion plan in ``gerstenhaber.circ_i``);
* :func:`bracket_oracle` -- the graded commutator of the oracle insertion
  sums, one signed ``Cochain`` sum per term (production:
  ``gerstenhaber.bracket``);
* :func:`circ_full_oracle` -- the simultaneous composition f(g_1, ..., g_n)
  by the same slot-by-slot contraction;
* :func:`identity_cochain` -- the constant identity family, the unit of
  insertion;
* :func:`truncated_algebra_check`, :func:`truncated_rb_check` and
  :func:`trivial_deformation_check` -- deformation identities expanded in
  :class:`TPoly`, polynomials in the formal parameter truncated at a fixed
  order (production: the signed ``circ_i`` sums of ``deformation``, one
  per order of the jet equation and one each for mu^N and its defect).

Structural helpers that only tests need close the module:
:func:`commutes` multiplies two matrices both ways, :func:`algebra_equal` and
:func:`bimodule_equal` compare structures field by field, and :func:`section_shift` moves the section of an extension
presentation by an equivariant degree-1 cochain.
"""

from fractions import Fraction
from itertools import combinations, product

from bihomega.cochain import Cochain, _tuple_rank, maps_from_cochain
from bihomega.deformation import deformed_mu
from bihomega.errors import MalformedInputError, PreconditionError
from bihomega.gerstenhaber import algebra_with_product
from bihomega.linalg import Mat, _axpy, reduce_into
from bihomega.rationals import ONE, ZERO, Rat


def evaluate_oracle(f, om_tuple, vectors):
    """Multilinear evaluation of ``f`` at ``om_tuple`` on general coordinate
    vectors, contracting the stored block one argument at a time."""
    if len(vectors) != f.degree:
        raise MalformedInputError("wrong number of arguments")
    if f.degree == 0:
        return list(f.coords)
    d = f.dim_in
    if not d:  # a multilinear map on the zero space
        return [ZERO] * f.dim_out
    width = d ** (f.degree - 1) * f.dim_out
    base = f.block_base(om_tuple)
    block = f.coords[base : base + width * d]
    for v in vectors:
        new = [ZERO] * width
        for i, vi in enumerate(v):
            if vi:
                off = i * width
                for t in range(width):
                    new[t] += vi * block[off + t]
        block = new
        width //= d
    return block


def delta_direct_oracle(b, f):
    """Term-by-term transcription of the alternating sum, any bimodule."""
    a = b.base
    om = a.omega
    n = f.degree
    d, m = a.dim, b.dim_m
    out = Cochain.zero(n + 1, om.size, d, m)
    if n == 0:
        unit = om.unit
        for x in om.elements():
            for j in range(d):
                val = b.act_left((x, unit), a.basis_vector(j), list(f.coords))
                sub = b.act_right((unit, x), list(f.coords), a.basis_vector(j))
                base = out.block_base((x,)) + j * m
                for k in range(m):
                    out.coords[base + k] = val[k] - sub[k]
        return out
    for beta in om.tuples(n + 1):
        for args in product(range(d), repeat=n + 1):
            acc = b.act_left(
                (beta[0], om.product_of(beta[1:])),
                a.p_power(beta[0], n - 1).col(args[0]),
                f.value(beta[1:], args[1:]),
            )
            for i in range(1, n + 1):
                sign = ONE if i % 2 == 0 else -ONE
                merged = beta[: i - 1] + (om.mul(beta[i - 1], beta[i]),) + beta[i + 1 :]
                vectors = [a.pmap[beta[t]].col(args[t]) for t in range(i - 1)]
                vectors.append(a.mul_basis((beta[i - 1], beta[i]), args[i - 1], args[i]))
                vectors.extend(a.qmap[beta[t]].col(args[t]) for t in range(i + 1, n + 1))
                term = evaluate_oracle(f, merged, vectors)
                for k in range(m):
                    acc[k] += sign * term[k]
            sign = ONE if (n + 1) % 2 == 0 else -ONE
            term = b.act_right(
                (om.product_of(beta[:-1]), beta[-1]),
                f.value(beta[:-1], args[:-1]),
                a.q_power(beta[-1], n - 1).col(args[-1]),
            )
            for k in range(m):
                acc[k] += sign * term[k]
            base = out.block_base(beta) + sum(
                x * d ** (n - i) for i, x in enumerate(args, start=0)
            ) * m
            for k in range(m):
                out.coords[base + k] = acc[k]
    return out


def partial_expanded_oracle(ctx, f):
    """Operator-complex differential as the expanded sum in the original
    structures: every star product a *_R b = R(a) b + a R(b) + weight ab and
    every induced action T-twisted, written out term by term.  Independent
    of the star bimodule that production ``partial`` compiles.
    """
    a = ctx.algebra
    b = ctx.bimodule
    om = a.omega
    d, m = a.dim, b.dim_m
    w = ctx.rb.weight
    rmaps, tmaps = ctx.rb.maps, b.tmap
    n = f.degree
    out = Cochain.zero(n + 1, om.size, d, m)
    if n == 0:
        unit = om.unit
        mv = list(f.coords)
        for x in om.elements():
            rx, tx = rmaps[x], tmaps[x]
            for j in range(d):
                ej = a.basis_vector(j)
                acc = b.act_left((x, unit), rx.col(j), mv)
                for k, v in enumerate(tx.matvec(b.act_left((x, unit), ej, mv))):
                    acc[k] -= v
                for k, v in enumerate(b.act_right((unit, x), mv, rx.col(j))):
                    acc[k] -= v
                for k, v in enumerate(tx.matvec(b.act_right((unit, x), mv, ej))):
                    acc[k] += v
                base = out.block_base((x,)) + j * m
                for k in range(m):
                    out.coords[base + k] = acc[k]
        return out
    for beta in om.tuples(n + 1):
        tail, head = beta[1:], beta[:-1]
        prod_tail, prod_head = om.product_of(tail), om.product_of(head)
        t_all = tmaps[om.product_of(beta)]
        p_pow = a.p_power(beta[0], n - 1)
        q_pow = a.q_power(beta[-1], n - 1)
        r_first, r_last = rmaps[beta[0]], rmaps[beta[-1]]
        base_tuple = out.block_base(beta)
        for args in product(range(d), repeat=n + 1):
            pa1 = p_pow.col(args[0])
            tail_val = f.value(tail, args[1:])
            acc = b.act_left((beta[0], prod_tail), r_first.matvec(pa1), tail_val)
            for k, v in enumerate(t_all.matvec(b.act_left((beta[0], prod_tail), pa1, tail_val))):
                acc[k] -= v
            for i in range(1, n + 1):
                sign = ONE if i % 2 == 0 else -ONE
                merged = beta[: i - 1] + (om.mul(beta[i - 1], beta[i]),) + beta[i + 1 :]
                key = (beta[i - 1], beta[i])
                ei = a.basis_vector(args[i - 1])
                ej = a.basis_vector(args[i])
                star_arg = a.mul_vec(key, ei, rmaps[beta[i]].col(args[i]))
                for k, v in enumerate(a.mul_vec(key, rmaps[beta[i - 1]].col(args[i - 1]), ej)):
                    star_arg[k] += v
                if w:
                    for k, v in enumerate(a.mul_basis(key, args[i - 1], args[i])):
                        star_arg[k] += w * v
                vectors = []
                for t in range(i - 1):
                    vectors.append(a.pmap[beta[t]].col(args[t]))
                vectors.append(star_arg)
                for t in range(i + 1, n + 1):
                    vectors.append(a.qmap[beta[t]].col(args[t]))
                term = evaluate_oracle(f, merged, vectors)
                for k in range(m):
                    if term[k]:
                        acc[k] += sign * term[k]
            sign_last = ONE if (n + 1) % 2 == 0 else -ONE
            head_val = f.value(head, args[:-1])
            qan = q_pow.col(args[-1])
            term = b.act_right((prod_head, beta[-1]), head_val, r_last.matvec(qan))
            term2 = t_all.matvec(b.act_right((prod_head, beta[-1]), head_val, qan))
            for k in range(m):
                acc[k] += sign_last * (term[k] - term2[k])
            base = base_tuple + _tuple_rank(args, d) * m
            for k in range(m):
                out.coords[base + k] = acc[k]
    return out


def phi_subset_oracle(ctx, f):
    """Literal subset enumeration of the comparison map, any degree.

    On each tuple and basis argument multi-index: f on all-R-twisted
    arguments minus, for every proper subset of slots, weight^(n - 1 - |S|)
    times T at the tuple product applied to f with R inserted at exactly
    those slots.  One full multilinear evaluation per subset; independent of
    the compiled Horner recurrence in production ``phi_op``.
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
    rmaps, tmaps = ctx.rb.maps, b.tmap
    for alpha in om.tuples(n):
        t_all = tmaps[om.product_of(alpha)]
        base_tuple = out.block_base(alpha)
        r_cols = [rmaps[alpha[s]] for s in range(n)]
        for args in product(range(d), repeat=n):
            acc = evaluate_oracle(f, alpha, [r_cols[s].col(args[s]) for s in range(n)])
            for size in range(n):
                coeff = w ** (n - 1 - size) if n - 1 - size else ONE
                if not coeff:
                    continue
                for subset in combinations(range(n), size):
                    vectors = []
                    for s in range(n):
                        if s in subset:
                            vectors.append(r_cols[s].col(args[s]))
                        else:
                            vectors.append(a.basis_vector(args[s]))
                    term = t_all.matvec(evaluate_oracle(f, alpha, vectors))
                    for k in range(m):
                        if term[k]:
                            acc[k] -= coeff * term[k]
            base = base_tuple + sum(x * d ** (n - 1 - i) for i, x in enumerate(args)) * m
            for k in range(m):
                out.coords[base + k] = acc[k]
    return out


def combined_raw_matrix_oracle(ctx, n):
    """Dense matrix of the degree-n combined differential, column by column.

    Source: the basis of C^n (C^0 = M), then the basis of C^{n-1}; target:
    raw C^{n+1} coordinates stacked over raw C^n coordinates.  Column
    (delta f, -phi f) for f in the first block and (0, -partial g) for g in
    the second, with delta and partial from :func:`delta_direct_oracle` and
    phi from :func:`phi_subset_oracle`; independent of the compiled sparse
    images in production ``rbf``.
    """
    b, sb = ctx.bimodule, ctx.star_bimodule()
    om, d, m = ctx.dims()
    alg_rows = (om.size * d) ** (n + 1) * m
    rbf_rows = (om.size * d) ** n * m
    cols = []
    basis = ctx.basis(n)
    for j in range(basis.dim()):
        f = basis.cochain(j)
        cols.append(delta_direct_oracle(b, f).coords + [-v for v in phi_subset_oracle(ctx, f).coords])
    if n >= 1:
        basis = ctx.basis(n - 1)
        for j in range(basis.dim()):
            image = delta_direct_oracle(sb, basis.cochain(j))
            cols.append([ZERO] * alg_rows + [-v for v in image.coords])
    return Mat.from_cols(cols) if cols else Mat.zeros(alg_rows + rbf_rows, 0)


def is_equivariant_oracle(b, f):
    """Direct slotwise check of both structure-map constraints."""
    a = b.base
    om = a.omega
    n = f.degree
    if n == 0:
        return True
    d = a.dim
    for om_tuple in om.tuples(n):
        prod = om.product_of(om_tuple)
        pm, qm = b.pmap[prod], b.qmap[prod]
        for args in product(range(d), repeat=n):
            val = f.value(om_tuple, args)
            lhs = pm.matvec(val)
            rhs = evaluate_oracle(f, om_tuple, [a.pmap[om_tuple[t]].col(args[t]) for t in range(n)])
            if lhs != rhs:
                return False
            lhs = qm.matvec(val)
            rhs = evaluate_oracle(f, om_tuple, [a.qmap[om_tuple[t]].col(args[t]) for t in range(n)])
            if lhs != rhs:
                return False
    return True


def equivariant_basis_oracle(b, n):
    """Per-tuple kernels of the degree-n equivariance constraints, n >= 1.

    Returns ``(vectors, frees)`` indexed by tuple rank, in the layout of
    ``cochain.EquivariantBasis``: one sparse block-local vector per free
    column, in increasing order, with free coordinate 1.  Every tuple's rows
    are built from scratch: for each argument tuple and output index k,
    (M's map at the product applied to the value) minus (the value on the
    slotwise images of the arguments), once for p and once for q.
    """
    a = b.base
    d, m = a.dim, b.dim_m
    width = d**n * m
    vectors, frees = [], []
    for om_tuple in a.omega.tuples(n):
        prod = a.omega.product_of(om_tuple)
        rows = []
        for mmaps, amaps in ((b.pmap, a.pmap), (b.qmap, a.qmap)):
            for args in product(range(d), repeat=n):
                for k in range(m):
                    row = [ZERO] * width
                    for l in range(m):
                        row[_tuple_rank(args, d) * m + l] += mmaps[prod].at(k, l)
                    for args_in in product(range(d), repeat=n):
                        coeff = ONE
                        for t in range(n):
                            coeff *= amaps[om_tuple[t]].at(args_in[t], args[t])
                        row[_tuple_rank(args_in, d) * m + k] -= coeff
                    rows.append(row)
        reduced, pivots = gauss_jordan_oracle(rows, width)
        free_cols = [c for c in range(width) if c not in pivots]
        basis = []
        for free in free_cols:
            vec = {free: ONE}
            for row, pc in zip(reduced, pivots):
                if row[free]:
                    vec[pc] = -row[free]
            basis.append(vec)
        vectors.append(basis)
        frees.append(free_cols)
    return vectors, frees


def gauss_jordan_oracle(matrix, ncols):
    """Literal dense Gauss-Jordan elimination: (nonzero RREF rows, pivot columns).

    Column by column: take the first remaining row with a nonzero in the
    column, swap it up, divide it by its pivot, and clear the column in every
    other row.  Entries are ``Fraction``s throughout.
    """
    rows = [[Fraction(x) for x in r] for r in matrix]
    pivots = []
    top = 0
    for c in range(ncols):
        pick = next((i for i in range(top, len(rows)) if rows[i][c] != 0), None)
        if pick is None:
            continue
        rows[top], rows[pick] = rows[pick], rows[top]
        p = rows[top][c]
        rows[top] = [x / p for x in rows[top]]
        for i in range(len(rows)):
            if i != top and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[top])]
        pivots.append(c)
        top += 1
    return rows[:top], pivots


def kernel_oracle(mat):
    """Null-space basis of a dense ``Mat`` read off :func:`gauss_jordan_oracle`:
    one dense vector per free column, in increasing order, free coordinate 1."""
    reduced, pivots = gauss_jordan_oracle([mat.row(i) for i in range(mat.rows)], mat.cols)
    basis = []
    for free in (c for c in range(mat.cols) if c not in pivots):
        vec = [Fraction(0)] * mat.cols
        vec[free] = Fraction(1)
        for pc, row in zip(pivots, reduced):
            vec[pc] = -row[free]
        basis.append(vec)
    return basis


def solve_oracle(mat, rhs):
    """The solution of ``mat x = rhs`` whose free coordinates are 0, read off
    :func:`gauss_jordan_oracle` on the augmented matrix, or None."""
    if len(rhs) != mat.rows:
        raise MalformedInputError("right-hand side length mismatch")
    reduced, pivots = gauss_jordan_oracle([mat.row(i) + [v] for i, v in enumerate(rhs)], mat.cols + 1)
    if mat.cols in pivots:
        return None
    x = [Fraction(0)] * mat.cols
    for pc, row in zip(pivots, reduced):
        x[pc] = row[mat.cols]
    return x


def sparse_rref_oracle(rows, ncols):
    """The rational sparse RREF: each row eliminated into a {pivot_col: row}
    echelon with pivots normalized to 1 (``linalg.reduce_into``), then
    back-substituted in decreasing pivot order by rational row updates."""
    pivots = {}
    for r in rows:
        reduce_into(pivots, r)
    for col in sorted(pivots, reverse=True):
        row = pivots[col]
        for c in [c for c in row if c != col and c in pivots]:
            _axpy(row, -row[c], pivots[c])
    return [(c, pivots[c]) for c in sorted(pivots)]


def identity_cochain(a):
    """The constant identity family as a degree-1 cochain."""
    f = Cochain.zero(1, a.omega.size, a.dim, a.dim)
    for x in a.omega.elements():
        base = f.block_base((x,))
        for j in range(a.dim):
            f.coords[base + j * a.dim + j] = ONE
    return f


def _contract_slot(block, pre, d_old, w_new, post, rows):
    """Replace one tensor slot by composing with a matrix.

    ``block`` is flat with shape (pre, d_old, post); ``rows[r][c]`` is the
    matrix entry sending new index c through old index r.  Returns the flat
    (pre, w_new, post) tensor of  sum_r block[p, r, q] * rows[r][c].
    """
    out = [ZERO] * (pre * w_new * post)
    for p in range(pre):
        in_base = p * d_old * post
        out_base = p * w_new * post
        for r in range(d_old):
            row = rows[r]
            src = in_base + r * post
            for c in range(w_new):
                coeff = row[c]
                if not coeff:
                    continue
                dst = out_base + c * post
                if coeff == ONE:
                    for q in range(post):
                        v = block[src + q]
                        if v:
                            out[dst + q] += v
                else:
                    for q in range(post):
                        v = block[src + q]
                        if v:
                            out[dst + q] += coeff * v
    return out


def _mat_rows(mat):
    return [[mat.at(r, c) for c in range(mat.cols)] for r in range(mat.rows)]


def circ_i_oracle(a, f, g, i):
    """Insert g into slot i of f by contracting the block of f slot by slot.

    For each output index tuple, the stored block of f at the merged tuple
    is contracted left to right, with the twisting-map power matrices on the
    outer slots and the block of g on the inserted slot (which widens that
    slot from d to d^arity(g) argument columns).
    """
    n, m = f.degree, g.degree
    om = a.omega
    d = a.dim
    out_deg = n + m - 1
    out = Cochain.zero(out_deg, om.size, d, d)
    if not d:  # no coordinates to contract
        return out
    dm_block = d**m
    f_block_len = (d**n) * d
    for alpha in om.tuples(out_deg):
        block_tuple = alpha[i - 1 : i + m - 1]
        merged = alpha[: i - 1] + (om.product_of(block_tuple),) + alpha[i + m - 1 :]
        f_base = f.block_base(merged)
        block = f.coords[f_base : f_base + f_block_len]
        g_base = g.block_base(block_tuple)
        # slot widths after each contraction; slots processed left to right
        post = (d ** (n - 1)) * d
        pre = 1
        for s in range(n):
            if s == i - 1:
                rows = [
                    [g.coords[g_base + c * d + r] for c in range(dm_block)] for r in range(d)
                ]
                width = dm_block
            else:
                mat = a.p_power(alpha[s], m - 1) if s < i - 1 else a.q_power(
                    alpha[s + m - 1], m - 1
                )
                rows = _mat_rows(mat)
                width = d
            block = _contract_slot(block, pre, d, width, post, rows)
            pre *= width
            post //= d
        base_tuple = out.block_base(alpha)
        out.coords[base_tuple : base_tuple + len(block)] = block
    return out


def bracket_oracle(a, f, g):
    """[f, g] = sum_i (-1)^{(m-1)(i-1)} f oc_i g
    - (-1)^{(n-1)(m-1)} sum_i (-1)^{(n-1)(i-1)} g oc_i f, through circ_i_oracle."""
    n, m = f.degree, g.degree
    out = Cochain.zero(n + m - 1, a.omega.size, a.dim, a.dim)
    for i in range(1, n + 1):
        out = out.add(circ_i_oracle(a, f, g, i).scale((-1) ** ((m - 1) * (i - 1))))
    outer = (-1) ** ((n - 1) * (m - 1))
    for i in range(1, m + 1):
        out = out.sub(circ_i_oracle(a, g, f, i).scale(outer * (-1) ** ((n - 1) * (i - 1))))
    return out


def circ_full_oracle(a, f, gs):
    """Simultaneous composition: slot l of f receives gs[l] on its own block.

    Block l's value is post-composed with pmap^(sum of later graded degrees)
    and qmap^(sum of earlier graded degrees) at the block's merged index;
    f is evaluated at the tuple of merged block indices.
    """
    gs = list(gs)
    n = f.degree
    assert len(gs) == n and n >= 1 and all(g.degree >= 1 for g in gs)
    om = a.omega
    d = a.dim
    arities = [g.degree for g in gs]
    out_deg = sum(arities)
    starts = []
    pos = 0
    for ar in arities:
        starts.append(pos)
        pos += ar
    p_exp = [sum(arities[t] - 1 for t in range(l + 1, n)) for l in range(n)]
    q_exp = [sum(arities[t] - 1 for t in range(l)) for l in range(n)]
    out = Cochain.zero(out_deg, om.size, d, d)
    if not d:  # no coordinates to contract
        return out
    f_block_len = (d**n) * d
    for alpha in om.tuples(out_deg):
        blocks = [alpha[starts[l] : starts[l] + arities[l]] for l in range(n)]
        prods = [om.product_of(bl) for bl in blocks]
        merged = tuple(prods)
        f_base = f.block_base(merged)
        block = f.coords[f_base : f_base + f_block_len]
        pre = 1
        post = (d ** (n - 1)) * d
        for l in range(n):
            p_mat = a.p_power(prods[l], p_exp[l])
            q_mat = a.q_power(prods[l], q_exp[l])
            g_base = gs[l].block_base(blocks[l])
            width = d ** arities[l]
            cols = []
            for c in range(width):
                v = gs[l].coords[g_base + c * d : g_base + (c + 1) * d]
                cols.append(p_mat.matvec(q_mat.matvec(v)))
            rows = [[cols[c][r] for c in range(width)] for r in range(d)]
            block = _contract_slot(block, pre, d, width, post, rows)
            pre *= width
            post //= d
        base_tuple = out.block_base(alpha)
        out.coords[base_tuple : base_tuple + len(block)] = block
    return out


class TPoly:
    """Polynomial in one formal variable truncated at a fixed order.

    Coefficients are exact rationals; ``order`` is the highest retained
    power.  Arithmetic mixes freely with plain rationals and ints.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs=None):
        self.order = order
        if coeffs is None:
            self.coeffs = [ZERO] * (order + 1)
        else:
            coeffs = list(coeffs)
            if len(coeffs) != order + 1:
                raise MalformedInputError("coefficient list does not match order")
            self.coeffs = coeffs

    @classmethod
    def constant(cls, order: int, value) -> "TPoly":
        p = cls(order)
        p.coeffs[0] = Rat(value)
        return p

    def _coerce(self, other) -> "TPoly":
        if isinstance(other, TPoly):
            if other.order != self.order:
                raise MalformedInputError("mixed truncation orders")
            return other
        return TPoly.constant(self.order, other)

    def __add__(self, other):
        o = self._coerce(other)
        return TPoly(self.order, [a + b for a, b in zip(self.coeffs, o.coeffs)])

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return TPoly(self.order, [a - b for a, b in zip(self.coeffs, o.coeffs)])

    def __rsub__(self, other):
        return self._coerce(other).__sub__(self)

    def __mul__(self, other):
        o = self._coerce(other)
        out = [ZERO] * (self.order + 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j in range(self.order + 1 - i):
                b = o.coeffs[j]
                if b:
                    out[i + j] += a * b
        return TPoly(self.order, out)

    __rmul__ = __mul__

    def __neg__(self):
        return TPoly(self.order, [-a for a in self.coeffs])

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, TPoly):
            return self.order == other.order and self.coeffs == other.coeffs
        return self == self._coerce(other)

    def __repr__(self):
        return f"TPoly({self.coeffs})"



def _tp_mats(mats, order):
    return {
        x: [[TPoly.constant(order, m.at(i, j)) for j in range(m.cols)] for i in range(m.rows)]
        for x, m in mats.items()
    }


def _tp_matvec(rows, vec):
    if not vec:
        return []
    zero = TPoly(vec[0].order)
    return [sum((rows[i][j] * vec[j] for j in range(len(vec))), zero) for i in range(len(rows))]


def _tp_bilinear(tensor, x_vec, y_vec, dim_out):
    order = x_vec[0].order
    out = [TPoly(order) for _ in range(dim_out)]
    for i, xi in enumerate(x_vec):
        if not xi:
            continue
        for j, yj in enumerate(y_vec):
            if not yj:
                continue
            coeff = xi * yj
            for k in range(dim_out):
                c = tensor[i][j][k]
                if c:
                    out[k] = out[k] + coeff * c
    return out


def _tp_product_tensor(a, mu_orders, order):
    """Polynomial structure constants mu + t mu1 + ... as TPoly tensors."""
    d = a.dim
    out = {}
    for key in a.product:
        t = [[[TPoly(order) for _ in range(d)] for _ in range(d)] for _ in range(d)]
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    coeffs = [a.product[key][i][j][k]]
                    for comp in mu_orders:
                        coeffs.append(comp.value(key, (i, j))[k])
                    coeffs += [ZERO] * (order + 1 - len(coeffs))
                    t[i][j][k] = TPoly(order, coeffs[: order + 1])
        out[key] = t
    return out


def truncated_algebra_check(a, mu_orders, order):
    """Multiplicativity and associativity of the polynomial product, exactly,
    modulo t^(order+1).  The independent route for deformation statements."""
    om = a.omega
    d = a.dim
    tensor = _tp_product_tensor(a, mu_orders, order)
    pmap = _tp_mats(a.pmap, order)
    qmap = _tp_mats(a.qmap, order)
    for x in om.elements():
        for y in om.elements():
            key = (x, y)
            xy = om.mul(x, y)
            for i in range(d):
                for j in range(d):
                    prod = [tensor[key][i][j][k] for k in range(d)]
                    for maps in (pmap, qmap):
                        lhs = _tp_matvec(maps[xy], prod)
                        rhs = _tp_bilinear(
                            tensor[key], _tp_col(maps[x], i, order), _tp_col(maps[y], j, order), d
                        )
                        if lhs != rhs:
                            return False
    for x in om.elements():
        for y in om.elements():
            for z in om.elements():
                yz, xy = om.mul(y, z), om.mul(x, y)
                for i in range(d):
                    pi = _tp_col(pmap[x], i, order)
                    for j in range(d):
                        for k in range(d):
                            inner = [tensor[(y, z)][j][k][t] for t in range(d)]
                            lhs = _tp_bilinear(tensor[(x, yz)], pi, inner, d)
                            inner2 = [tensor[(x, y)][i][j][t] for t in range(d)]
                            rhs = _tp_bilinear(
                                tensor[(xy, z)], inner2, _tp_col(qmap[z], k, order), d
                            )
                            if lhs != rhs:
                                return False
    return True


def _tp_col(rows, j, order):
    return [rows[i][j] for i in range(len(rows))]


def truncated_rb_check(a, rb, mu_orders, r_orders, order):
    """Weighted operator identity for polynomial product and operator family."""
    om = a.omega
    d = a.dim
    tensor = _tp_product_tensor(a, mu_orders, order)
    rmaps = {}
    for x in om.elements():
        rows = [[None] * d for _ in range(d)]
        for i in range(d):
            for j in range(d):
                coeffs = [rb.maps[x].at(i, j)]
                for comp in r_orders:
                    coeffs.append(comp.value((x,), (j,))[i])
                coeffs += [ZERO] * (order + 1 - len(coeffs))
                rows[i][j] = TPoly(order, coeffs[: order + 1])
        rmaps[x] = rows
    w = TPoly.constant(order, rb.weight)

    def basis_tp(i):
        v = [TPoly(order) for _ in range(d)]
        v[i] = TPoly.constant(order, ONE)
        return v

    for x in om.elements():
        for y in om.elements():
            key = (x, y)
            rxy = rmaps[om.mul(x, y)]
            for i in range(d):
                rxi = _tp_col(rmaps[x], i, order)
                for j in range(d):
                    ryj = _tp_col(rmaps[y], j, order)
                    lhs = _tp_bilinear(tensor[key], rxi, ryj, d)
                    inner = _tp_bilinear(tensor[key], rxi, basis_tp(j), d)
                    t2 = _tp_bilinear(tensor[key], basis_tp(i), ryj, d)
                    t3 = _tp_bilinear(tensor[key], basis_tp(i), basis_tp(j), d)
                    for k in range(d):
                        inner[k] = inner[k] + t2[k] + w * t3[k]
                    rhs = _tp_matvec(rxy, inner)
                    if lhs != rhs:
                        return False
    return True


def trivial_deformation_check(a, nf):
    """The three triviality identities for mu1 = deformed product, with
    intertwiner id + t N, each checked directly and via the polynomial route."""
    om = a.omega
    d = a.dim
    maps = nf.maps
    tri3 = all(
        commutes(maps[x], a.pmap[x]) and commutes(maps[x], a.qmap[x]) for x in om.elements()
    )
    mu1 = deformed_mu(a, maps)
    mun = algebra_with_product(a, mu1).product
    tri4 = True  # mu1 is defined as exactly that combination; verify anyway
    for key in a.product:
        x, y = key
        nx, ny, nxy = maps[x], maps[y], maps[om.mul(x, y)]
        for i in range(d):
            for j in range(d):
                expect = a.mul_vec(key, nx.col(i), a.basis_vector(j))
                for k, v in enumerate(a.mul_vec(key, a.basis_vector(i), ny.col(j))):
                    expect[k] += v
                for k, v in enumerate(nxy.matvec(a.mul_basis(key, i, j))):
                    expect[k] -= v
                if expect != mun[key][i][j]:
                    tri4 = False
    tri5 = True
    for key in a.product:
        x, y = key
        nxy = maps[om.mul(x, y)]
        for i in range(d):
            for j in range(d):
                lhs = nxy.matvec(mun[key][i][j])
                rhs = a.mul_vec(key, maps[x].col(i), maps[y].col(j))
                if lhs != rhs:
                    tri5 = False
    # polynomial route: (id + tN) intertwines mu + t mu1 with mu, mod t^3
    order = 2
    tensor = _tp_product_tensor(a, [mu1], order)
    plain = _tp_product_tensor(a, [], order)
    twist = {}
    for x in om.elements():
        rows = [
            [
                TPoly(order, [maps[x].at(i, j) if t == 1 else (ONE if (t == 0 and i == j) else ZERO) for t in range(order + 1)])
                for j in range(d)
            ]
            for i in range(d)
        ]
        twist[x] = rows
    intertwines = True
    for x in om.elements():
        for y in om.elements():
            key = (x, y)
            txy = twist[om.mul(x, y)]
            for i in range(d):
                for j in range(d):
                    lhs = _tp_matvec(txy, [tensor[key][i][j][k] for k in range(d)])
                    rhs = _tp_bilinear(
                        plain[key], _tp_col(twist[x], i, order), _tp_col(twist[y], j, order), d
                    )
                    if lhs != rhs:
                        intertwines = False
    return {
        "structure_commute": tri3,
        "direction_matches_family": tri4,
        "family_absorbs_square": tri5,
        "polynomial_intertwiner": intertwines,
    }


# -- structural helpers for tests ----------------------------------------


def commutes(a, b):
    return a.mul(b) == b.mul(a)


def algebra_equal(a, b):
    """Equal monoid, dimension, product and structure maps."""
    return (
        a.omega == b.omega
        and a.dim == b.dim
        and a.product == b.product
        and a.pmap == b.pmap
        and a.qmap == b.qmap
    )


def bimodule_equal(b1, b2):
    """Equal module dimension, actions, structure maps and operator family."""
    return (
        b1.dim_m == b2.dim_m
        and b1.left == b2.left
        and b1.right == b2.right
        and b1.pmap == b2.pmap
        and b1.qmap == b2.qmap
        and b1.tmap == b2.tmap
    )


def section_shift(e, eta):
    """New section s + incl o eta from an equivariant degree-1 cochain."""
    if eta.degree != 1 or eta.dim_in != e.base.dim or eta.dim_out != e.dim_m:
        raise MalformedInputError("shift must be a degree-1 cochain into the module")
    om = e.base.omega
    mats = maps_from_cochain(eta, om)
    for x in om.elements():
        if e.pmap_m[x].mul(mats[x]) != mats[x].mul(e.base.pmap[x]):
            raise PreconditionError("shift cochain is not p-equivariant")
        if e.qmap_m[x].mul(mats[x]) != mats[x].mul(e.base.qmap[x]):
            raise PreconditionError("shift cochain is not q-equivariant")
    out = {}
    for x in om.elements():
        out[x] = e.sect[x].add(e.incl[x].mul(mats[x]))
    return out
