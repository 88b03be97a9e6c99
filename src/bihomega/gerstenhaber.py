"""Insertion compositions and the graded Lie bracket on cochains.

All operations act on cochains over the regular bimodule (coefficients in
the algebra itself).  The graded degree of an n-cochain is n - 1.

``circ_i(f, g, i)`` inserts g into slot i of f (1-based): arguments before
the slot are twisted by the (arity(g) - 1)-th power of pmap at their own
index, arguments after by the same power of qmap, and the slot's monoid
indices merge through the monoid product.  The bracket is the graded
commutator of the induced pre-Lie sums; a product family is exactly a
bracket-square-zero (Maurer-Cartan) degree-2 element, and the graded
commutator with the product family reproduces the coboundary up to sign
(the test oracle ``delta_via_bracket`` in ``tests/oracles.py``).

Every sum of insertions sum_k c_k (f_k oc_ik g_k) is one call of
:func:`insertion_sum`: ``circ_i`` is its one-term case, ``bracket`` and
``mc_residual`` pass their signed terms, and ``deformation`` writes its jet
equations, the Nijenhuis deformed product and its defect as term lists.
For each (n, m, i) the algebra caches one plan (:func:`_insertion_plan`):
one entry per block of f, i.e. per merged tuple pre + (x,) + post, holding
the inner tuples beta with product x and the twist of the outer slots as
index gathers (one layer per monomial twist).  The gathers also transpose
the block into (pre-index, position, slot value) order, so one zip splits
it into d-tuples; g is scaled by its coefficient and split into d-tuples
once per call.  Each gather layer is one ``operator.itemgetter`` call.
One call of the compiled :func:`_kernel` per output block pre + beta + post
sums over r the outer products of g's r-th output column with the block's
values at slot value r.  Each output block is written once: its kernel
results are collected across all terms, and a block with one result takes
it as is, while k >= 2 results are summed in one pass by an adder compiled
once per k (:func:`_adder`).  For g = f the bracket's two sums
share their terms, so [f, f] = 2 sum_i (-1)^(i-1) f oc_i f at even arity
and 0 at odd arity (:func:`bracket`), which halves ``mc_residual``.

The slot-by-slot contraction this replaces is the test oracle
``circ_i_oracle`` in ``tests/oracles.py``.
"""

from __future__ import annotations

from functools import lru_cache
from operator import add, itemgetter, mul

from .algebra import OmegaAlgebra
from .bimodule import regular_bimodule
from .cochain import Cochain, _tuple_rank, cochain_from_tensors, is_equivariant
from .errors import MalformedInputError, PreconditionError
from .rationals import ONE, ZERO


def mu_cochain(a: OmegaAlgebra) -> Cochain:
    """The product family as a degree-2 cochain."""
    return cochain_from_tensors(a.omega, a.dim, a.dim, a.product)


def _require_cochains(a: OmegaAlgebra, check: bool, *cochains):
    """Refuse cochains not on the carrier, then, when ``check``, non-equivariant ones."""
    size, d = a.omega.size, a.dim
    for f in cochains:
        shape = (f.omega_size, f.dim_in, f.dim_out, len(f.coords))
        if shape != (size, d, d, (size * d) ** f.degree * d):
            raise MalformedInputError("cochain does not match the algebra")
    if check:  # one regular bimodule per algebra, built on the first check, so its constraint rows are built once
        b = a._cache.get("checking_bimodule")
        if b is None:
            b = a._cache["checking_bimodule"] = regular_bimodule(a)
        if not all(is_equivariant(b, f) for f in {id(f): f for f in cochains}.values()):
            raise PreconditionError("cochain is not equivariant")


def _twist(mats, d: int, order: list):
    """The Kronecker product of ``mats`` (None: identity) as index gathers.

    Layer ``(gather, coeffs)`` sends entry order[t] of the twisted block (one
    index per factor, lexicographic) to coeffs[t] * block[idx[t]], where
    ``gather(block)`` is the tuple of the block[idx[t]] and ``coeffs`` is
    None when all are 1; the twist is the sum of its layers.  A factor adds
    as many layers as its fullest column has nonzeros.  A one-entry block
    (d = 1) gathers through ``tuple``: ``itemgetter`` of one index returns
    the entry, not a tuple.
    """
    layers = [([0], [ONE])]
    for mat in mats:
        if mat is None:
            split = [[(r, ONE) for r in range(d)]]
        else:
            cols = [[(r, mat.at(r, c)) for r in range(d) if mat.at(r, c)] for c in range(d)]
            depth = max([1] + [len(col) for col in cols])
            split = [[col[k] if k < len(col) else (0, ZERO) for col in cols] for k in range(depth)]
        layers = [
            ([j * d + r for j in idx for r, _ in part], [cj * c for cj in cf for _, c in part])
            for idx, cf in layers
            for part in split
        ]
    layers = [([idx[t] for t in order], [cf[t] for t in order]) for idx, cf in layers]
    return [
        (itemgetter(*idx) if len(idx) > 1 else tuple, None if all(c == ONE for c in cf) else cf)
        for idx, cf in layers
    ]


def _insertion_plan(a: OmegaAlgebra, n: int, m: int, i: int) -> list:
    """Compiled f oc_i g for arities (n, m), cached in the algebra.

    Entries ``(f_base, twist, out_base, fiber)``, one per merged tuple
    pre + (x,) + post: ``twist`` is :func:`_twist` of pmap^(m-1) at pre, the
    inserted slot, qmap^(m-1) at post and the output index (shared between
    equal matrices) in (pre-index, position after slot i, slot value) order;
    ``fiber`` lists the ranks b of the inner tuples beta with product x, and
    block b of g fills output block pre + beta + post at ``out_base`` +
    b * size^(n-i) * d^(n+m).
    """
    key = ("circ_i", n, m, i)
    plan = a._cache.get(key)
    if plan is not None:
        return plan
    om, d = a.omega, a.dim
    size, tails, width = om.size, om.size ** (n - i), d ** (n - i + 1)
    order = [(p * d + r) * width + w for p in range(d ** (i - 1)) for w in range(width) for r in range(d)]
    fiber = {x: [] for x in om.elements()}
    for beta in om.tuples(m):
        fiber[om.product_of(beta)].append(_tuple_rank(beta, size))
    plan, twists = [], {}
    for pre_rank, pre in enumerate(om.tuples(i - 1)):
        for post_rank, post in enumerate(om.tuples(n - i)):
            mats = [a.p_power(x, m - 1) for x in pre] + [None]
            mats += [a.q_power(x, m - 1) for x in post] + [None]
            twist_key = tuple(None if mat is None else tuple(mat.entries) for mat in mats)
            if twist_key not in twists:
                twists[twist_key] = _twist(mats, d, order)
            out_base = (pre_rank * size**m * tails + post_rank) * d ** (n + m)
            for x in om.elements():
                if fiber[x]:
                    merged = (pre_rank * size + x) * tails + post_rank
                    plan.append((merged * d ** (n + 1), twists[twist_key], out_base, fiber[x]))
    a._cache[key] = plan
    return plan


@lru_cache(maxsize=None)
def _kernel(d: int):
    """``kernel(gb, pres)``: one output block of an insertion, compiled once per d.

    Lists sum_r c[r] * v[r] over the pre-indices, the d-tuples c of the g
    block ``gb`` (output index r), then the d-tuples v of the pre-index
    (slot value r): g's r-th output column times f's r-th row, unrolled.
    """
    cs = ", ".join(f"c{r}" for r in range(d))
    vs = ", ".join(f"v{r}" for r in range(d))
    terms = " + ".join(f"c{r} * v{r}" for r in range(d))
    return eval(f"lambda gb, pres: [{terms} for rt in pres for {cs}, in gb for {vs}, in rt]")


@lru_cache(maxsize=None)
def _adder(k: int):
    """``adder(l0, ..., l(k-1))``: the entrywise sum of k lists, compiled once per k."""
    ls = ", ".join(f"l{j}" for j in range(k))
    xs = ", ".join(f"x{j}" for j in range(k))
    terms = " + ".join(f"x{j}" for j in range(k))
    return eval(f"lambda {ls}: [{terms} for {xs} in zip({ls})]")


def insertion_sum(a: OmegaAlgebra, degree: int, terms, check: bool = False) -> Cochain:
    """The sum of c * (f oc_i g) over ``terms`` (c, f, g, i) of arity ``degree``.

    Every term is refused or accepted, each distinct cochain checked once,
    before any is computed; terms with c = 0 are not computed.
    """
    for _, f, g, i in terms:
        n, m = f.degree, g.degree
        if n < 1 or m < 1:
            raise MalformedInputError("insertion needs arities >= 1")
        if not 1 <= i <= n:
            raise MalformedInputError(f"slot {i} out of range 1..{n}")
        if n + m - 1 != degree:
            raise MalformedInputError(f"insertion of arity {n + m - 1} in a sum of arity {degree}")
    _require_cochains(a, check, *(h for _, f, g, _ in terms for h in (f, g)))
    size, d = a.omega.size, a.dim
    out = Cochain.zero(degree, size, d, d)
    if not d:  # no coordinates, and no kernel to compile
        return out
    kernel, g_split, parts = _kernel(d), {}, {}
    for c, f, g, i in terms:
        if not c:
            continue
        n, m, fc, key = f.degree, g.degree, f.coords, (id(g), c)
        if key not in g_split:  # blocks of c * g as d-tuples, None when zero
            gc = g.coords if c == ONE else [c * v for v in g.coords]
            blocks = zip(*[iter(zip(*[iter(gc)] * d))] * d**m)
            g_split[key] = [block if any(map(any, block)) else None for block in blocks]
        g_blocks, f_len, width = g_split[key], d ** (n + 1), d ** (n - i + 1)
        stride = size ** (n - i) * d ** (n + m)
        for f_base, twist, out_base, fiber in _insertion_plan(a, n, m, i):
            block = fc[f_base : f_base + f_len]
            if not any(block):
                continue
            twisted = None
            for gather, coeffs in twist:
                vals = gather(block)
                if coeffs is not None:
                    vals = list(map(mul, coeffs, vals))
                twisted = vals if twisted is None else list(map(add, twisted, vals))
            # per pre-index, the d slot values of each position as one tuple
            pres = list(zip(*[iter(zip(*[iter(twisted)] * d))] * width))
            for b in fiber:
                if g_blocks[b] is not None:
                    parts.setdefault(out_base + b * stride, []).append(kernel(g_blocks[b], pres))
    oc, out_len = out.coords, d ** (degree + 1)
    for start, results in parts.items():
        oc[start : start + out_len] = results[0] if len(results) == 1 else _adder(len(results))(*results)
    return out


def circ_i(a: OmegaAlgebra, f: Cochain, g: Cochain, i: int, check: bool = True) -> Cochain:
    """Insert g into slot i of f; result has arity f.degree + g.degree - 1."""
    return insertion_sum(a, f.degree + g.degree - 1, [(ONE, f, g, i)], check)


def bracket(a: OmegaAlgebra, f: Cochain, g: Cochain, check: bool = True) -> Cochain:
    """Graded commutator of the insertion sums.

    [f, g] = sum_{i=1}^{n} (-1)^{(m-1)(i-1)} f oc_i g
             - (-1)^{(n-1)(m-1)} sum_{i=1}^{m} (-1)^{(n-1)(i-1)} g oc_i f,
    with n = arity(f), m = arity(g).  For g = f both sums run over the
    terms f oc_i f, and (-1)^{(n-1)(n-1)} = (-1)^{n-1}, so
    [f, f] = (1 - (-1)^{n-1}) sum_i (-1)^{(n-1)(i-1)} f oc_i f: twice
    sum_i (-1)^{i-1} f oc_i f at even n and zero at odd n, where its terms
    are still refused or accepted but not computed.
    """
    n, m = f.degree, g.degree
    if n < 1 or m < 1:
        raise MalformedInputError("bracket needs arities >= 1")
    if f is g:
        terms = [((1 - (-1) ** (n - 1)) * (-1) ** ((n - 1) * (i - 1)), f, f, i) for i in range(1, n + 1)]
    else:
        terms = [((-1) ** ((m - 1) * (i - 1)), f, g, i) for i in range(1, n + 1)]
        terms += [(-((-1) ** ((n - 1) * (m + i - 2))), g, f, i) for i in range(1, m + 1)]
    return insertion_sum(a, n + m - 1, terms, check)


def mc_residual(a: OmegaAlgebra, candidate: Cochain, check: bool = True) -> Cochain:
    """Bracket square of a degree-2 candidate product family.

    Zero exactly when the candidate, together with the carrier's structure
    maps, satisfies the twisted associativity law (equivariance of the
    candidate supplies multiplicativity).
    """
    if candidate.degree != 2:
        raise MalformedInputError("expected a degree-2 cochain")
    return bracket(a, candidate, candidate, check=check)


def algebra_with_product(a: OmegaAlgebra, candidate: Cochain) -> OmegaAlgebra:
    """Same carrier and structure maps, product replaced by the candidate."""
    d = a.dim
    shape = (candidate.degree, candidate.omega_size, candidate.dim_in, candidate.dim_out)
    if shape != (2, a.omega.size, d, d):
        raise MalformedInputError("candidate must be a degree-2 cochain on the carrier")
    pairs = [(x, y) for x in a.omega.elements() for y in a.omega.elements()]
    product = {xy: [[candidate.value(xy, (i, j)) for j in range(d)] for i in range(d)] for xy in pairs}
    return OmegaAlgebra(a.omega, d, product, dict(a.pmap), dict(a.qmap))
