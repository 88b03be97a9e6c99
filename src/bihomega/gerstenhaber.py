"""Insertion compositions and the graded Lie bracket on cochains.

All operations act on cochains over the regular bimodule (coefficients in
the algebra itself).  The graded degree of an n-cochain is n - 1.

``circ_i(f, g, i)`` inserts g into slot i of f (1-based): arguments before
the slot are twisted by the (arity(g) - 1)-th power of pmap at their own
index, arguments after by the same power of qmap, and the slot's monoid
indices merge through the monoid product.  The bracket is the graded
commutator of the induced pre-Lie sums; a product family is exactly a
bracket-square-zero (Maurer-Cartan) degree-2 element, and the graded
commutator with the product family reproduces the coboundary up to sign.

Insertion is compiled.  For each (n, m, i) the algebra caches a plan in
its own ``_cache`` (:func:`_insertion_plan`): one entry per block of f,
i.e. per merged tuple pre + (x,) + post, holding the twist of its outer
slots as index gathers (None for the identity, one layer per monomial
twist) and the inner tuples beta with product x.  ``circ_i`` twists each
block of f once, before g widens its slot, and writes each output block
pre + beta + post as the sum over r of outer products of g's r-th output
column with the block's rows at slot value r (:func:`_kernel`).  Cochains
of another shape are refused before a plan is looked up.  ``bracket``
accumulates its signed ``circ_i`` terms into one coordinate list, and
``deformation`` writes its jet equations, the Nijenhuis deformed product
and its defect as signed ``circ_i`` sums.  The slot-by-slot contraction this replaces is the test oracle
``circ_i_oracle`` in ``tests/oracles.py``.
"""

from __future__ import annotations

from functools import lru_cache
from operator import add, mul, neg, sub

from .algebra import OmegaAlgebra
from .bimodule import regular_bimodule
from .cochain import Cochain, _tuple_rank, cochain_from_tensors, is_equivariant
from .errors import MalformedInputError, PreconditionError
from .rationals import ONE, ZERO


def mu_cochain(a: OmegaAlgebra) -> Cochain:
    """The product family as a degree-2 cochain."""
    return cochain_from_tensors(a.omega, 2, a.dim, a.dim, a.product)


def _require_cochains(a: OmegaAlgebra, check: bool, *cochains):
    """Refuse cochains not on the carrier, then, when ``check``, non-equivariant ones."""
    size, d = a.omega.size, a.dim
    for f in cochains:
        shape = (f.omega_size, f.dim_in, f.dim_out, len(f.coords))
        if shape != (size, d, d, (size * d) ** f.degree * d):
            raise MalformedInputError("cochain does not match the algebra")
    if check:  # one regular bimodule per algebra, so its constraint rows are built once
        b = a._cache.setdefault("checking_bimodule", regular_bimodule(a))
        if not all(is_equivariant(b, f) for f in cochains):
            raise PreconditionError("cochain is not equivariant")


def _twist(mats, d: int):
    """The Kronecker product of ``mats`` (None: identity) as index gathers.

    Layer ``(idx, coeffs)`` sends position t (one index per factor,
    lexicographic) to coeffs[t] * block[idx[t]], ``coeffs`` None when all
    are 1; the twist is the sum of its layers.  A factor contributes as many
    layers as its fullest column has nonzeros, so a monomial twist is one
    layer.  Returns None for the identity.
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
    layers = [(idx, None if all(c == ONE for c in cf) else cf) for idx, cf in layers]
    (idx, coeffs), *rest = layers
    return None if not rest and coeffs is None and idx == list(range(len(idx))) else layers


def _insertion_plan(a: OmegaAlgebra, n: int, m: int, i: int) -> list:
    """Compiled f oc_i g for arities (n, m), cached in the algebra.

    Entries ``(f_base, twist, out_base, fiber)``, one per merged tuple
    pre + (x,) + post: ``twist`` is :func:`_twist` of pmap^(m-1) at pre,
    the inserted slot, qmap^(m-1) at post and the output index (shared
    between equal matrices); ``fiber`` lists the ranks b of the inner tuples
    beta with product x, and block b of g fills output block
    pre + beta + post at ``out_base`` + b * size^(n-i) * d^(n+m).
    """
    key = ("circ_i", n, m, i)
    plan = a._cache.get(key)
    if plan is not None:
        return plan
    om, d = a.omega, a.dim
    size, tails = om.size, om.size ** (n - i)
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
                twists[twist_key] = _twist(mats, d)
            out_base = (pre_rank * size**m * tails + post_rank) * d ** (n + m)
            for x in om.elements():
                if fiber[x]:
                    merged = (pre_rank * size + x) * tails + post_rank
                    plan.append((merged * d ** (n + 1), twists[twist_key], out_base, fiber[x]))
    a._cache[key] = plan
    return plan


@lru_cache(maxsize=None)
def _kernel(d: int):
    """``kernel(gb, rt)``: one pre-index of an output block, compiled once per d.

    Lists sum_r gb[c * d + r] * rt[t][r] over c, then t, where ``gb`` is a
    flat block of g (output index innermost) and ``rt[t]`` the d values of
    the twisted f block at slot value r: the sum over r of the outer
    products of g's r-th output column with f's r-th row, unrolled in r.
    """
    cs = ", ".join(f"c{r}" for r in range(d))
    vs = ", ".join(f"v{r}" for r in range(d))
    terms = " + ".join(f"c{r} * v{r}" for r in range(d))
    return eval(f"lambda gb, rt: [{terms} for {cs}, in zip(*[iter(gb)] * {d}) for {vs}, in rt]")


def circ_i(a: OmegaAlgebra, f: Cochain, g: Cochain, i: int, check: bool = True) -> Cochain:
    """Insert g into slot i of f; result has arity f.degree + g.degree - 1.

    Runs the cached :func:`_insertion_plan`: each block of f is twisted
    once, split per pre-index into d rows (slot value r), and multiplied
    with each inner block of g by :func:`_kernel`.
    """
    n, m = f.degree, g.degree
    if n < 1 or m < 1:
        raise MalformedInputError("insertion needs arities >= 1")
    if not 1 <= i <= n:
        raise MalformedInputError(f"slot {i} out of range 1..{n}")
    _require_cochains(a, check, f, g)
    d = a.dim
    out = Cochain.zero(n + m - 1, a.omega.size, d, d)
    if not d:  # no coordinates, and no kernel to compile
        return out
    f_len, g_len = d ** (n + 1), d ** (m + 1)
    width = d ** (n - i + 1)  # one row: the slots after i and the output index
    stride = a.omega.size ** (n - i) * d ** (n + m)  # output offset per fiber rank
    zero_rows, kernel = [ZERO] * (d**m * width), _kernel(d)
    fc, gc, oc = f.coords, g.coords, out.coords
    for f_base, twist, out_base, fiber in _insertion_plan(a, n, m, i):
        block = fc[f_base : f_base + f_len]
        if not any(block):
            continue
        if twist is not None:
            twisted = None
            for idx, coeffs in twist:
                vals = list(map(block.__getitem__, idx))
                if coeffs is not None:
                    vals = list(map(mul, coeffs, vals))
                twisted = vals if twisted is None else list(map(add, twisted, vals))
            block = twisted
        pres = []  # per pre-index: its d rows, transposed to a d-tuple per position
        for k in range(0, f_len, d * width):
            rows = [block[k + r * width : k + (r + 1) * width] for r in range(d)]
            pres.append(list(zip(*rows)) if any(map(any, rows)) else None)
        for b in fiber:
            gb = gc[b * g_len : (b + 1) * g_len]
            if any(gb):
                new = []
                for rt in pres:
                    new += zero_rows if rt is None else kernel(gb, rt)
                start = out_base + b * stride
                oc[start : start + len(new)] = new
    return out


def bracket(a: OmegaAlgebra, f: Cochain, g: Cochain, check: bool = True) -> Cochain:
    """Graded commutator of the insertion sums.

    [f, g] = sum_{i=1}^{n} (-1)^{(m-1)(i-1)} f oc_i g
             - (-1)^{(n-1)(m-1)} sum_{i=1}^{m} (-1)^{(n-1)(i-1)} g oc_i f,
    with n = arity(f), m = arity(g).
    """
    n, m = f.degree, g.degree
    if n < 1 or m < 1:
        raise MalformedInputError("bracket needs arities >= 1")
    _require_cochains(a, check, f, g)
    terms = [(f, g, i, (m - 1) * (i - 1)) for i in range(1, n + 1)]
    terms += [(g, f, i, (n - 1) * (m - 1) + (n - 1) * (i - 1) + 1) for i in range(1, m + 1)]
    acc = None
    for x, y, i, parity in terms:
        coords = circ_i(a, x, y, i, check=False).coords
        if acc is None:
            acc = list(map(neg, coords)) if parity % 2 else coords
        else:
            acc = list(map(sub if parity % 2 else add, acc, coords))
    return Cochain(n + m - 1, a.omega.size, a.dim, a.dim, acc)


def mc_residual(a: OmegaAlgebra, candidate: Cochain, check: bool = True) -> Cochain:
    """Bracket square of a degree-2 candidate product family.

    Zero exactly when the candidate, together with the carrier's structure
    maps, satisfies the twisted associativity law (equivariance of the
    candidate supplies multiplicativity).
    """
    if candidate.degree != 2:
        raise MalformedInputError("expected a degree-2 cochain")
    return bracket(a, candidate, candidate, check=check)


def delta_via_bracket(a: OmegaAlgebra, f: Cochain, check: bool = True) -> Cochain:
    """(-1)^(arity-1) [product, f]; coincides with the coboundary."""
    if f.degree < 1:
        raise MalformedInputError("bracket route needs arity >= 1")
    mu = mu_cochain(a)
    out = bracket(a, mu, f, check=check)
    if (f.degree - 1) % 2:
        out = out.scale(-ONE)
    return out


def algebra_with_product(a: OmegaAlgebra, candidate: Cochain) -> OmegaAlgebra:
    """Same carrier and structure maps, product replaced by the candidate."""
    d = a.dim
    shape = (candidate.degree, candidate.omega_size, candidate.dim_in, candidate.dim_out)
    if shape != (2, a.omega.size, d, d):
        raise MalformedInputError("candidate must be a degree-2 cochain on the carrier")
    pairs = [(x, y) for x in a.omega.elements() for y in a.omega.elements()]
    product = {xy: [[candidate.value(xy, (i, j)) for j in range(d)] for i in range(d)] for xy in pairs}
    return OmegaAlgebra(a.omega, d, product, dict(a.pmap), dict(a.qmap))
