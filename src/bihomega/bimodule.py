"""Bimodules over BiHom-Omega-associative algebras.

Coefficient spaces for all three cohomology theories.  A bimodule carries
left/right action tensors and its own structure-map families:

* ``left[(a, b)][i][l][k]``: eps_k coefficient of  e_i |>_{a,b} eps_l
* ``right[(a, b)][l][j][k]``: eps_k coefficient of  eps_l <|_{a,b} e_j

Seven compatibility identities tie the actions to the algebra (structure-map
equivariance of each action, one twisted associativity per action, and one
mixed identity).  An optional operator family ``tmap`` makes the bimodule a
Rota-Baxter family bimodule when the two weighted action identities hold.

Each identity is one of the scans of :mod:`bihomega.algebra`, with the
actions in place of the product: equivariance is an intertwining scan (p and
q interleaved inside each monoid pair), the associativity, mixed and
bimodule-algebra identities are twisted-associativity scans, the weighted
action identities are weighted scans with (S, U, V) = (R, T, T) on the left
action and (T, R, T) on the right, and the commutation of T with the module
maps is a column scan.  Witnesses keep the scan order stated in each
validator.
"""

from __future__ import annotations

from typing import NamedTuple

from .algebra import (
    OmegaAlgebra,
    RotaBaxterFamily,
    Witness,
    _assoc_scan,
    _chain,
    _column_witness,
    _commute_scan,
    _first,
    _star_entry,
    _intertwining_scan,
    _refuse_witness,
    _weighted_scan,
    bilinear,
    check_rota_baxter,
    ensure_family,
    star_product,
    tensor_zeros,
    validate_algebra,
)
from .errors import InternalCheckError, MalformedInputError, PreconditionError
from .linalg import Mat
from .rationals import ZERO


class OmegaBimodule:
    """Action tensors ``left[(a, b)]`` (d x dim_m x dim_m) and ``right[(a, b)]`` (dim_m x d x dim_m);
    ``pmap[a]``, ``qmap[a]`` and the optional ``tmap[a]`` are dim_m x dim_m Mats."""

    __slots__ = ("base", "dim_m", "left", "right", "pmap", "qmap", "tmap", "_cache")

    def __init__(
        self, base: OmegaAlgebra, dim_m: int, left: dict, right: dict,
        pmap: dict, qmap: dict, tmap: dict | None = None,
    ):
        self.base = base
        self.dim_m = dim_m
        self.left = left
        self.right = right
        self.pmap = pmap
        self.qmap = qmap
        self.tmap = tmap
        self._cache = {}

    def act_left(self, key, x_vec, m_vec) -> list:
        return bilinear(self.left[key], x_vec, m_vec, self.dim_m)

    def act_right(self, key, m_vec, x_vec) -> list:
        return bilinear(self.right[key], m_vec, x_vec, self.dim_m)



def ensure_bimodule_shapes(b: OmegaBimodule):
    a = b.base
    size = a.omega.size
    d, dm = a.dim, b.dim_m
    for x in range(size):
        for y in range(size):
            key = (x, y)
            if key not in b.left or key not in b.right:
                raise MalformedInputError(f"action missing key {key}")
            lt = b.left[key]
            if len(lt) != d or any(len(r) != dm or any(len(c) != dm for c in r) for r in lt):
                raise MalformedInputError(f"left action tensor {key} has wrong shape")
            rt = b.right[key]
            if len(rt) != dm or any(len(r) != d or any(len(c) != dm for c in r) for r in rt):
                raise MalformedInputError(f"right action tensor {key} has wrong shape")
    for name, maps in (("pmap", b.pmap), ("qmap", b.qmap), ("tmap", b.tmap)):
        if maps is not None:
            ensure_family(maps, a.omega, dm, dm, f"bimodule {name}")


def validate_bimodule(b: OmegaBimodule) -> Witness | None:
    """Check the seven action identities (plus structure-map commutation).

    Scan order: module pq-commutation, then the identities in the order
    left-p/left-q (interleaved inside each monoid pair), left-assoc,
    right-p/right-q, right-assoc, mixed; inside each, lexicographic over
    monoid then basis indices.  A scan that coincides with an earlier one
    that passed runs once (:func:`bihomega.algebra._chain`): on a regular
    bimodule the right pair repeats the left pair, and the right and mixed
    associativity scans repeat the left one.
    """
    ensure_bimodule_shapes(b)
    a = b.base
    om, d, dm = a.omega, a.dim, b.dim_m
    ap, aq, mp, mq, mu, lt, rt = a.pmap, a.qmap, b.pmap, b.qmap, a.product, b.left, b.right
    left_pq = ((mp, lt, lt, ap, mp), (mq, lt, lt, aq, mq))  # (g, B, B', f, h) of each intertwining
    right_pq = ((mp, rt, rt, mp, ap), (mq, rt, rt, mq, aq))
    return _first(
        _column_witness("module-pq-commute", (x, y), mp[x].mul(mq[y]), mq[y].mul(mp[x]))
        for x in om.elements()
        for y in om.elements()
    ) or _chain(
        (_intertwining_scan, ("left-module-p", "left-module-q"), (om, left_pq)),
        (_assoc_scan, "left-module-assoc", (om, (d, d, dm, dm), lt, lt, lt, mu, ap, mq)),
        (_intertwining_scan, ("right-module-p", "right-module-q"), (om, right_pq)),
        (_assoc_scan, "right-module-assoc", (om, (dm, d, d, dm), rt, mu, rt, rt, mp, aq)),
        (_assoc_scan, "bimodule-mixed", (om, (d, dm, d, dm), lt, rt, rt, lt, ap, aq)),
    )


def regular_bimodule(a: OmegaAlgebra, rb: RotaBaxterFamily | None = None) -> OmegaBimodule:
    """The algebra acting on itself; with rb, its maps become the tmap."""
    tmap = dict(rb.maps) if rb is not None else None
    return OmegaBimodule(a, a.dim, dict(a.product), dict(a.product), dict(a.pmap), dict(a.qmap), tmap)


def zero_bimodule(
    a: OmegaAlgebra,
    dim_m: int,
    pmap: dict | None = None,
    qmap: dict | None = None,
    tmap: dict | None = None,
) -> OmegaBimodule:
    left, right = {}, {}
    for x in a.omega.elements():
        for y in a.omega.elements():
            left[(x, y)] = tensor_zeros(a.dim, dim_m, dim_m)
            right[(x, y)] = tensor_zeros(dim_m, a.dim, dim_m)
    if pmap is None:
        pmap = {x: Mat.identity(dim_m) for x in a.omega.elements()}
    if qmap is None:
        qmap = {x: Mat.identity(dim_m) for x in a.omega.elements()}
    return OmegaBimodule(a, dim_m, left, right, pmap, qmap, tmap)


def semidirect_product(b: OmegaBimodule, check: bool = True) -> OmegaAlgebra:
    """Algebra on A (+) M: (x,m)(y,n) = (xy, x|>n + m<|y), block structure maps."""
    if check:
        _refuse_witness(validate_bimodule(b), "bimodule invalid")
    return _semidirect_algebra(b, bullet=None)


def _semidirect_algebra(b: OmegaBimodule, bullet: dict | None) -> OmegaAlgebra:
    a = b.base
    d, dm = a.dim, b.dim_m
    n = d + dm
    product = {}
    for key, mu in a.product.items():
        t = tensor_zeros(n, n, n)
        lt, rt = b.left[key], b.right[key]
        for i in range(d):
            for j in range(d):
                t[i][j][:d] = mu[i][j]
            for l in range(dm):
                t[i][d + l][d:] = lt[i][l]
        for l in range(dm):
            for j in range(d):
                t[d + l][j][d:] = rt[l][j]
            if bullet is not None:
                for l2 in range(dm):
                    t[d + l][d + l2][d:] = bullet[key][l][l2]
        product[key] = t
    pmap = {x: _block_diag(a.pmap[x], b.pmap[x]) for x in a.omega.elements()}
    qmap = {x: _block_diag(a.qmap[x], b.qmap[x]) for x in a.omega.elements()}
    return OmegaAlgebra(a.omega, n, product, pmap, qmap)


def _block_diag(top: Mat, bottom: Mat) -> Mat:
    n = top.rows + bottom.rows
    out = Mat.zeros(n, n)
    for i in range(top.rows):
        out.entries[i * n : i * n + top.cols] = top.row(i)
    for i in range(bottom.rows):
        start = (top.rows + i) * n + top.cols
        out.entries[start : start + bottom.cols] = bottom.row(i)
    return out


class BimoduleAlgebraData(NamedTuple):
    bullet: dict  # (a, b) -> dim_m x dim_m x dim_m tensor


def validate_bimodule_algebra(b: OmegaBimodule, extra: BimoduleAlgebraData) -> Witness | None:
    """Is (M, bullet) an algebra interacting correctly with the actions?

    Two routes are computed: the component identities (M an algebra itself
    plus three action/bullet compatibilities, on top of the bimodule axioms)
    and the direct validation of A (+) M with the bullet folded into the
    product.  Both must agree on success; the first component witness is
    returned otherwise.
    """
    _refuse_witness(validate_algebra(b.base), "base algebra invalid")
    a = b.base
    om, d, dm = a.omega, a.dim, b.dim_m
    ap, aq, mp, mq, lt, rt, bt = a.pmap, a.qmap, b.pmap, b.qmap, b.left, b.right, extra.bullet
    witness = (
        validate_bimodule(b)
        or validate_algebra(OmegaAlgebra(om, dm, dict(bt), dict(mp), dict(mq)))
        or _assoc_scan("bimodule-algebra-left", om, (d, dm, dm, dm), lt, bt, bt, lt, ap, mq)
        or _assoc_scan("bimodule-algebra-right", om, (dm, dm, d, dm), bt, rt, rt, bt, mp, aq)
        or _assoc_scan("bimodule-algebra-mixed", om, (dm, d, dm, dm), bt, lt, bt, rt, mp, mq)
    )
    total = _semidirect_algebra(b, bullet=extra.bullet)
    total_witness = validate_algebra(total)
    if (witness is None) != (total_witness is None):
        raise InternalCheckError(
            "component identities and direct sum validation disagree: "
            f"components={'ok' if witness is None else witness.describe()}, "
            f"total={'ok' if total_witness is None else total_witness.describe()}"
        )
    return witness


def validate_rbf_bimodule(b: OmegaBimodule, rb: RotaBaxterFamily) -> Witness | None:
    """Check the weighted action identities for the tmap family.

    Preconditions, refused in this order with PreconditionError: a tmap
    family and a valid bimodule (:func:`_require_bimodule`), then a valid
    Rota-Baxter family.  :func:`_rbf_action_scan` is the check itself, for
    callers that have established the preconditions already.
    """
    _require_bimodule(b)
    _refuse_witness(check_rota_baxter(b.base, rb), "Rota-Baxter family invalid")
    return _rbf_action_scan(b, rb)


def _require_bimodule(b: OmegaBimodule):
    """Refuse, with PreconditionError, a bimodule without a tmap family or
    one that fails :func:`validate_bimodule`."""
    if b.tmap is None:
        raise PreconditionError("bimodule has no tmap family")
    _refuse_witness(validate_bimodule(b), "bimodule invalid")


def _rbf_action_scan(b: OmegaBimodule, rb: RotaBaxterFamily) -> Witness | None:
    """The weighted action identities of a valid bimodule with a tmap family
    over a valid family: commutation of T with the module maps, then the
    left and right weighted scans.  The right scan is skipped when it
    coincides with the left one, which passed (:func:`bihomega.algebra._chain`),
    as on the regular bimodule with T = R."""
    om, t, r, w, dm = b.base.omega, b.tmap, rb.maps, rb.weight, b.dim_m
    return _chain(
        (_commute_scan, ("t-p-commute", "t-q-commute"), (om, t, (b.pmap, b.qmap))),
        (_weighted_scan, "rbf-bimodule-left", (om, b.left, r, t, t, w, dm)),
        (_weighted_scan, "rbf-bimodule-right", (om, b.right, t, r, t, w, dm)),
    )


def rbf_semidirect(
    b: OmegaBimodule, rb: RotaBaxterFamily, check: bool = True
) -> tuple[OmegaAlgebra, RotaBaxterFamily]:
    """Semidirect product with the block-diagonal operator family (R, T)."""
    if b.tmap is None:
        raise PreconditionError("bimodule has no tmap family")
    total = semidirect_product(b, check=check)
    maps = {x: _block_diag(rb.maps[x], b.tmap[x]) for x in b.base.omega.elements()}
    return total, RotaBaxterFamily(rb.weight, maps)


def induced_module_star(b: OmegaBimodule, rb: RotaBaxterFamily, check: bool = True) -> OmegaBimodule:
    """The derived bimodule over the star algebra.

    x |>' m = R(x) |> m - T(x |> m);  m <|' x = m <| R(x) - T(m <| x);
    same structure maps, base = star algebra.  Each entry contracts an
    action tensor with a column of R, as the weight-0 star sum of
    ``algebra._star_entry``, and subtracts T at the key's product applied
    to the action tensor's own entry.
    """
    if check:
        _refuse_witness(validate_rbf_bimodule(b, rb), "not a Rota-Baxter family bimodule")
    a = b.base
    d, dm = a.dim, b.dim_m
    star = star_product(a, rb, check=False)
    zeros = [ZERO] * dm

    def derived(t, sxi: list, uyj: list, i: int, j: int, txy: Mat) -> list:
        return [u - v for u, v in zip(_star_entry(t, sxi, uyj, i, j, ZERO, dm), txy.matvec(t[i][j]))]

    left, right = {}, {}
    for (x, y), lt in b.left.items():
        rt, txy, rx, ry = b.right[(x, y)], b.tmap[a.omega.mul(x, y)], rb.maps[x], rb.maps[y]
        left[(x, y)] = [[derived(lt, rx.col(i), zeros, i, l, txy) for l in range(dm)] for i in range(d)]
        right[(x, y)] = [[derived(rt, zeros, ry.col(j), l, j, txy) for j in range(d)] for l in range(dm)]
    return OmegaBimodule(star, dm, left, right, dict(b.pmap), dict(b.qmap), None)
