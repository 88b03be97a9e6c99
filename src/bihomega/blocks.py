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
of a degree and :func:`compile_blocks` compiles one block per key.  The
middle terms of a key, P (x) ... (x) mu (x) Q (x) ... (x) id_M, are summed
at the argument level, without id_M, by one slot recursion that shares
its P prefixes and Q suffixes, and keys with equal middle terms share that
sum (on c2 variant 0 at degree 4, 24 keys hold 12 distinct middle sums,
built in 27 slot steps).  The same slot step (:func:`_slot_step`) builds
the Horner sum of the comparison map's blocks (``rbf._phi_block``).  A
block stays factored, never expanded by id_M: that sum and the key's 0-2
action terms (1,192 stored entries on the e1 semidirect product at degree
5, against 5,020 expanded).  Only nonzeros are visited.  Both are pure
functions: ``cochain.delta_op`` is the one holder of δ_n's faces and
blocks, and it and the basis images of the tables
(``cochain._basis_images``) read the factors in place, so δ_n is compiled
once, by one route.
"""

from __future__ import annotations

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
    beta where it occurs}), in order, as (part, actions) (``cochain.BlockOp``):
    part is the key's middle sum (:func:`_middle_part`) with rows scaled by
    dim M, shared by keys with equal middle terms, and actions its first and
    last terms (:func:`_outer_term`), once per distinct term."""
    a = b.base
    d, m = a.dim, b.dim_m
    p_cls, q_cls, mu_cls, _, _, _, _ = structure_classes(b)
    rows = (  # sparse rows of p, q and mu per class id; mu's per merged argument r
        {c: _supports(a.pmap[x]) for x, c in p_cls.items()},
        {c: _supports(a.qmap[x]) for x, c in q_cls.items()},
        {c: [[(j * d + jj, mu[j][jj][r]) for j in range(d) for jj in range(d) if mu[j][jj][r]] for r in range(d)]
         for key, c in mu_cls.items() for mu in (a.product[key],)},
    )
    middles, steps, outers, blocks = {(): [[]] * d**n}, {}, {}, []  # no middle term: zero columns
    for key, beta in reps.items():
        middle = tuple([term for term in key if 0 < term[0] <= n])
        if middle not in middles:
            middles[middle] = [[(r * m, v) for r, v in col] for col in _middle_part(middle, n, d, rows, steps)]
        actions = [outers.get(t) or outers.setdefault(t, _outer_term(b, n, t[0], beta)) for t in key if t not in middle]
        blocks.append((middles[middle], actions))
    return blocks


def _middle_part(middle: tuple, n: int, d: int, rows: tuple, steps: dict) -> list:
    """The sum of the middle face terms ``middle`` of δ_n (keys (i, p classes
    before slot i-1, mu class, q classes after slot i), i increasing) at the
    argument level: per source argument, [(output argument, coeff)].

    It is S_n of one slot recursion, from S = 0 before the first term:
    S_i = S_{i-1} (x) Q_{beta_i}, plus (-1)^i P_{beta_0} (x) ... (x)
    P_{beta_{i-2}} (x) mu_{beta_{i-1},beta_i} when term i is in ``middle``.
    Each S_i (:func:`_slot_step`) is kept in ``steps`` by S_{i-1} and the
    classes that step reads, so the middle sums of a degree share their
    common prefixes, and a Q suffix costs one product per step.
    """
    p_rows, q_rows, mu_rows = rows
    terms = {term[0]: term for term in middle}
    first, qs = middle[0][0], middle[0][3]
    node = part = None
    for i in range(first, n + 1):
        q = None if part is None else qs[i - first - 1]
        term = terms.get(i)
        hit = steps.get(step := (node, q, term and term[1:3]))
        if hit is None:
            pre = mu = None
            if term is not None:
                pre = _kron([(d, p_rows[c]) for c in term[1]])
                mu = [[(r, v if i % 2 == 0 else -v) for r, v in col] for col in mu_rows[term[2]]]
            hit = steps[step] = len(steps), _slot_step(part, None if q is None else q_rows[q], pre, mu, d, d * d)
        node, part = hit
    return part


def _slot_step(part, q, pre, mu, d: int, width: int) -> list:
    """S_i of :func:`_middle_part` from S_{i-1} = ``part`` (None: zero), the
    sparse rows ``q`` of Q_{beta_i} and, when term i is summed, P_{beta_0}
    (x) ... (x) P_{beta_{i-2}} = ``pre`` and the signed rows ``mu`` of mu:
    column (c, j) is part_c (x) q_j + pre_c (x) mu_j, where the rows of mu
    span ``width`` (d * d; :func:`bihomega.rbf._phi_block` steps with d unit
    rows)."""
    if mu is None:
        return _kron([(d, q)], part)
    if part is None:
        return _kron([(width, mu)], pre)
    out = []
    for col, pcol in zip(part, pre):
        for qj, mj in zip(q, mu):
            acc = {r * d + s: v * w for r, v in col for s, w in qj}
            for r, v in pcol:
                for s, w in mj:
                    s += r * width
                    acc[s] = acc.get(s, ZERO) + v * w
            out.append([(r, v) for r, v in acc.items() if v])
    return out


def _outer_term(b: OmegaBimodule, n: int, i: int, beta: tuple) -> tuple:
    """Face term i = 0 or n + 1 of δ_n to output block ``beta``, as (stride,
    per source index l of M the entries [(row offset, coeff)]): from the
    source column of argument c and index l it reaches row offset + c *
    stride.  Term 0 is p^{n-1}(a_1) acting on the value at the tail, term
    n + 1 the value at the head acted on by q^{n-1}(a_{n+1}), signed.
    """
    a = b.base
    om, d, m = a.omega, a.dim, b.dim_m
    if i == 0:  # acts[s][l][k]: basis argument s sends index l of M to index k
        mat, sign, stride, lead = a.p_power(beta[0], n - 1), ONE, m, d**n * m
        acts = b.left[(beta[0], om.product_of(beta[1:]))]
    else:
        rt = b.right[(om.product_of(beta[:-1]), beta[-1])]
        mat, sign, stride, lead = a.q_power(beta[-1], n - 1), ONE if i % 2 == 0 else -ONE, d * m, m
        acts = [[rt[l][s] for l in range(m)] for s in range(d)]
    out = [[] for _ in range(m)]
    for j in range(d):
        u = [(us, acts[s]) for s, us in enumerate(mat.col(j)) if us]
        for l, entries in enumerate(out):
            entries += [(j * lead + k, sign * c) for k in range(m) if (c := sum([us * act[l][k] for us, act in u]))]
    return stride, out
