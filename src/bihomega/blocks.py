"""Blocks of the coboundary δ_n (n >= 1), shared by pair key.

The coboundary of a degree-n cochain is an alternating sum of n + 2 face
terms.  The term that maps the block of a source tuple alpha to the block of
an output tuple beta reads structure data at beta only: p^{n-1} and the left
action at its head, q^{n-1} and the right action at its tail, or p, mu and q
around the merged slot (the BiHom conventions of Graziani, Makhlouf, Menini
and Panaite, SIGMA 11 (2015), 086).  Those data are interned by exact
entries (:func:`structure_classes`), and the *pair key* of (beta, alpha) is
the ordered tuple of the keys of the face terms that send alpha to beta.
Equal pair keys have equal blocks, so :func:`pair_keys` numbers the keys
of a degree and :func:`compile_blocks` compiles one block per key.  Keys
share face terms (on c2 at degree 4, 24 keys hold 60 terms, 12 of them
distinct), so each distinct term is compiled once per degree, as sparse
Kronecker products of the rows of the structure maps that visit only
nonzeros, and each key's block is summed from its terms.  Both are pure
functions: ``cochain.delta_op`` is the one holder of δ_n's faces and
blocks, and the basis images of the cohomology tables
(``cochain._basis_images``) multiply its blocks, so δ_n is compiled once,
by one route.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain

from .bimodule import OmegaBimodule
from .linalg import _kron, _supports
from .rationals import ONE, ZERO


def structure_classes(b: OmegaBimodule) -> tuple:
    """Class ids of the structure data the face terms of δ read (cached).

    A's pmap and qmap per monoid element, then A's product and M's left and
    right actions per pair of elements, then M's pmap and qmap per element
    (read by the equivariance constraints, ``cochain._twist_signature``);
    two keys share a class when their data agree entry for entry.
    """
    hit = b._cache.get("structure_classes")
    if hit is None:
        a = b.base

        def tensor(t) -> tuple:
            return tuple(map(tuple, chain.from_iterable(t)))

        hit = b._cache["structure_classes"] = (
            intern(a.pmap),
            intern(a.qmap),
            intern(a.product, tensor),
            intern(b.left, tensor),
            intern(b.right, tensor),
            intern(b.pmap),
            intern(b.qmap),
        )
    return hit


def intern(family: dict, flat=lambda mat: tuple(mat.entries)) -> dict:
    """Class ids of a family's values, by default matrices: two keys share an
    id when ``flat`` of their values agree (entry for entry)."""
    ids: dict = {}
    return {key: ids.setdefault(flat(v), len(ids)) for key, v in family.items()}


def pair_keys(b: OmegaBimodule, n: int) -> tuple:
    """(faces, reps): the pair keys of δ_n, n >= 1.

    Face term i sends the block of a source tuple to the block of output
    tuple beta: term 0 to the tail beta[1:], term n+1 to the head beta[:-1],
    middle term i to beta with slots i-1 and i merged.  A term's key is i and
    the classes (:func:`structure_classes`) of what it reads at beta:
    p^{n-1} at beta_0 and the left action at (beta_0, prod beta[1:]); q^{n-1}
    at beta_n and the right action at (prod beta[:-1], beta_n); or p before
    slot i-1, mu at slots i-1 and i, and q after slot i.

    ``faces[s]`` lists the pairs (output tuple number, pair key number) of
    source tuple number s, and ``reps`` maps each pair key, in the order of
    its number, to an output tuple where it occurs (what
    :func:`compile_blocks` reads); caches are keyed by the numbers, not by
    the nested key tuples.
    """
    om = b.base.omega
    p_cls, q_cls, mu_cls, left_cls, right_cls, _, _ = structure_classes(b)
    in_rank = {t: i for i, t in enumerate(om.tuples(n))}
    numbers: dict = {}
    faces: list = [[] for _ in in_rank]
    reps: dict = {}
    for t, beta in enumerate(om.tuples(n + 1)):
        head, tail = beta[:-1], beta[1:]
        ps, qs = tuple([p_cls[x] for x in beta]), tuple([q_cls[x] for x in beta])
        terms = {in_rank[tail]: [(0, ps[0], left_cls[(beta[0], om.product_of(tail))])]}
        for i in range(1, n + 1):
            merged = beta[: i - 1] + (om.mul(beta[i - 1], beta[i]),) + beta[i + 1 :]
            key = (i, ps[: i - 1], mu_cls[(beta[i - 1], beta[i])], qs[i + 1 :])
            terms.setdefault(in_rank[merged], []).append(key)
        last = (n + 1, qs[-1], right_cls[(om.product_of(head), beta[-1])])
        terms.setdefault(in_rank[head], []).append(last)
        for s, keys in terms.items():
            key = tuple(keys)
            if key not in reps:
                reps[key] = beta
                numbers[key] = len(numbers)
            faces[s].append((t, numbers[key]))
    return faces, reps


def compile_blocks(b: OmegaBimodule, n: int, reps: dict) -> list:
    """The block of each pair key of ``reps`` ({pair key: an output tuple
    beta where it occurs}), in order: the sum of the key's face terms from
    one source block to output block beta, as local columns [(local row,
    coeff)], zeros dropped.

    Each distinct face term of the degree is compiled once, by
    :func:`_face_term`: a term that one key holds (every term, on a
    one-element monoid) straight into that key's accumulator, a term that
    several keys hold into its own, which each of them then adds into
    theirs.  The sparse rows of the structure maps are read once.
    """
    a = b.base
    d = a.dim
    width = d**n * b.dim_m
    pairs = [(j, jj) for j in range(d) for jj in range(d)]
    rows = (
        {x: _supports(a.pmap[x]) for x in a.omega.elements()},
        {x: _supports(a.qmap[x]) for x in a.omega.elements()},
        {  # per merged argument r: [(j * d + jj, mu[j][jj][r])]
            key: [[(j * d + jj, mu[j][jj][r]) for j, jj in pairs if mu[j][jj][r]] for r in range(d)]
            for key, mu in a.product.items()
        },
    )
    uses = Counter(chain.from_iterable(reps))
    shared: dict = {}
    blocks = []
    for key, beta in reps.items():
        cols = [{} for _ in range(width)]
        for term in key:
            if uses[term] == 1:
                _face_term(cols, b, n, term, beta, rows)
                continue
            hit = shared.get(term)
            if hit is None:
                hit = shared[term] = _face_term([{} for _ in range(width)], b, n, term, beta, rows)
            for acc, col in zip(cols, hit):
                for r, v in col.items():
                    acc[r] = acc.get(r, ZERO) + v
        blocks.append([[(r, v) for r, v in cm.items() if v] for cm in cols])
    return blocks


def _face_term(cols: list, b: OmegaBimodule, n: int, term: tuple, beta: tuple, rows: tuple) -> list:
    """Add face term ``term`` (key ``(i, ...)``) of δ_n, signed, from one
    source block to output block ``beta`` into the local columns ``cols``
    ({local row: coeff} each), and return them.

    The first and last terms are one m x m action matrix per outer argument,
    repeated at d^n offsets.  Middle term i is P_{beta_0} (x) ... (x)
    mu_{beta_{i-1},beta_i} (x) Q_{beta_{i+1}} (x) ... (x) I_m, built from the
    sparse ``rows`` (p, q and mu per monoid key) by ``linalg._kron``.
    """
    a = b.base
    om = a.omega
    d, m = a.dim, b.dim_m
    dn = d**n
    i = term[0]
    sign = ONE if i % 2 == 0 else -ONE
    slots = [(l, k) for l in range(m) for k in range(m)]

    def repeat(act, row_start: int, row_stride: int):
        # act = [(l, k, coeff)] at each of the dn offsets of the other arguments
        for r in range(dn):
            row0, col0 = row_start + r * row_stride, r * m
            for l, k, v in act:
                cm = cols[col0 + l]
                cm[row0 + k] = cm.get(row0 + k, ZERO) + v

    if i == 0:
        # p^{n-1}(a_1) acting on the value at the tail
        lt = b.left[(beta[0], om.product_of(beta[1:]))]
        p_pow = a.p_power(beta[0], n - 1)
        for j in range(d):
            u = p_pow.col(j)
            act = [(l, k, c) for l, k in slots
                   if (c := sum(ui * lt[s][l][k] for s, ui in enumerate(u)))]
            repeat(act, j * dn * m, m)
    elif i == n + 1:
        # the value at the head acted on by q^{n-1}(a_{n+1})
        rt = b.right[(om.product_of(beta[:-1]), beta[-1])]
        q_pow = a.q_power(beta[-1], n - 1)
        for j in range(d):
            v = q_pow.col(j)
            act = [(l, k, sign * c) for l, k in slots
                   if (c := sum(vi * rt[l][s][k] for s, vi in enumerate(v)))]
            repeat(act, j * m, d * m)
    else:
        # slot i of the output is merged through the product
        p_rows, q_rows, mu_rows = rows
        tables = [(d, p_rows[x]) for x in beta[: i - 1]]
        tables.append((d * d, mu_rows[(beta[i - 1], beta[i])]))
        tables += [(d, q_rows[x]) for x in beta[i + 1 :]]
        for r_rank, terms in enumerate(_kron(tables)):
            terms = [(r * m, sign * c) for r, c in terms]
            col0 = r_rank * m
            for k in range(m):
                cm = cols[col0 + k]
                for row0, c in terms:
                    cm[row0 + k] = cm.get(row0 + k, ZERO) + c
    return cols
