"""Bimodules over BiHom-Omega-associative algebras.

Coefficient spaces for all three cohomology theories.  A bimodule carries
left/right action tensors and its own structure-map families:

* ``left[(a, b)][i][l][k]``: eps_k coefficient of  e_i |>_{a,b} eps_l
* ``right[(a, b)][l][j][k]``: eps_k coefficient of  eps_l <|_{a,b} e_j

Seven compatibility identities tie the actions to the algebra (structure-map
equivariance of each action, one twisted associativity per action, and one
mixed identity).  An optional operator family ``tmap`` makes the bimodule a
Rota-Baxter family bimodule when the two weighted action identities hold.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebra import (
    OmegaAlgebra,
    RotaBaxterFamily,
    Witness,
    bilinear,
    check_rota_baxter,
    star_product,
    tensor_zeros,
    validate_algebra,
)
from .errors import InternalCheckError, MalformedInputError, PreconditionError
from .linalg import Mat
from .rationals import ONE, ZERO


@dataclass(eq=False)
class OmegaBimodule:
    base: OmegaAlgebra
    dim_m: int
    left: dict  # (a, b) -> d x dim_m x dim_m tensor
    right: dict  # (a, b) -> dim_m x d x dim_m tensor
    pmap: dict  # a -> dim_m x dim_m Mat
    qmap: dict  # a -> dim_m x dim_m Mat
    tmap: dict | None = None  # a -> dim_m x dim_m Mat
    _cache: dict = field(default_factory=dict, repr=False)

    def act_left(self, key, x_vec, m_vec) -> list:
        return bilinear(self.left[key], x_vec, m_vec, self.dim_m)

    def act_right(self, key, m_vec, x_vec) -> list:
        return bilinear(self.right[key], m_vec, x_vec, self.dim_m)

    def act_left_basis(self, key, i: int, l: int) -> list:
        return self.left[key][i][l]

    def act_right_basis(self, key, l: int, j: int) -> list:
        return self.right[key][l][j]

    def m_basis_vector(self, l: int) -> list:
        v = [ZERO] * self.dim_m
        v[l] = ONE
        return v


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
    for name, maps in (("pmap", b.pmap), ("qmap", b.qmap)):
        for x in range(size):
            m = maps.get(x)
            if m is None or m.rows != dm or m.cols != dm:
                raise MalformedInputError(f"bimodule {name}[{x}] is not {dm}x{dm}")
    if b.tmap is not None:
        for x in range(size):
            m = b.tmap.get(x)
            if m is None or m.rows != dm or m.cols != dm:
                raise MalformedInputError(f"bimodule tmap[{x}] is not {dm}x{dm}")


def validate_bimodule(b: OmegaBimodule) -> Witness | None:
    """Check the seven action identities (plus structure-map commutation).

    Scan order: module pq-commutation, then the identities in the order
    left-1, left-2, left-assoc, right-1, right-2, right-assoc, mixed; inside
    each, lexicographic over monoid then basis indices.
    """
    ensure_bimodule_shapes(b)
    a = b.base
    om = a.omega
    d, dm = a.dim, b.dim_m
    for x in om.elements():
        for y in om.elements():
            lhs = b.pmap[x].mul(b.qmap[y])
            rhs = b.qmap[y].mul(b.pmap[x])
            if lhs != rhs:
                for j in range(dm):
                    lc, rc = lhs.col(j), rhs.col(j)
                    if lc != rc:
                        return Witness("module-pq-commute", (x, y), (j,), tuple(lc), tuple(rc))
    for x in om.elements():
        for y in om.elements():
            key = (x, y)
            xy = om.mul(x, y)
            for name, amaps, mmaps in (
                ("left-module-p", a.pmap, b.pmap),
                ("left-module-q", a.qmap, b.qmap),
            ):
                for i in range(d):
                    for l in range(dm):
                        lhs = mmaps[xy].matvec(b.act_left_basis(key, i, l))
                        rhs = b.act_left(key, amaps[x].col(i), mmaps[y].col(l))
                        if lhs != rhs:
                            return Witness(name, (x, y), (i, l), tuple(lhs), tuple(rhs))
    for x in om.elements():
        for y in om.elements():
            for z in om.elements():
                yz, xy = om.mul(y, z), om.mul(x, y)
                for i in range(d):
                    pi = a.pmap[x].col(i)
                    for j in range(d):
                        for l in range(dm):
                            lhs = b.act_left((x, yz), pi, b.act_left_basis((y, z), j, l))
                            rhs = b.act_left(
                                (xy, z), a.mul_basis((x, y), i, j), b.qmap[z].col(l)
                            )
                            if lhs != rhs:
                                return Witness(
                                    "left-module-assoc", (x, y, z), (i, j, l), tuple(lhs), tuple(rhs)
                                )
    for x in om.elements():
        for y in om.elements():
            key = (x, y)
            xy = om.mul(x, y)
            for name, amaps, mmaps in (
                ("right-module-p", a.pmap, b.pmap),
                ("right-module-q", a.qmap, b.qmap),
            ):
                for l in range(dm):
                    for j in range(d):
                        lhs = mmaps[xy].matvec(b.act_right_basis(key, l, j))
                        rhs = b.act_right(key, mmaps[x].col(l), amaps[y].col(j))
                        if lhs != rhs:
                            return Witness(name, (x, y), (l, j), tuple(lhs), tuple(rhs))
    for x in om.elements():
        for y in om.elements():
            for z in om.elements():
                yz, xy = om.mul(y, z), om.mul(x, y)
                for l in range(dm):
                    pl = b.pmap[x].col(l)
                    for i in range(d):
                        for j in range(d):
                            lhs = b.act_right((x, yz), pl, a.mul_basis((y, z), i, j))
                            rhs = b.act_right(
                                (xy, z), b.act_right_basis((x, y), l, i), a.qmap[z].col(j)
                            )
                            if lhs != rhs:
                                return Witness(
                                    "right-module-assoc",
                                    (x, y, z),
                                    (l, i, j),
                                    tuple(lhs),
                                    tuple(rhs),
                                )
    for x in om.elements():
        for y in om.elements():
            for z in om.elements():
                yz, xy = om.mul(y, z), om.mul(x, y)
                for i in range(d):
                    pi = a.pmap[x].col(i)
                    for l in range(dm):
                        for j in range(d):
                            lhs = b.act_left((x, yz), pi, b.act_right_basis((y, z), l, j))
                            rhs = b.act_right(
                                (xy, z), b.act_left_basis((x, y), i, l), a.qmap[z].col(j)
                            )
                            if lhs != rhs:
                                return Witness(
                                    "bimodule-mixed", (x, y, z), (i, l, j), tuple(lhs), tuple(rhs)
                                )
    return None


def regular_bimodule(a: OmegaAlgebra, rb: RotaBaxterFamily | None = None) -> OmegaBimodule:
    """The algebra acting on itself; with rb, its maps become the tmap."""
    left = {key: t for key, t in a.product.items()}
    right = {key: t for key, t in a.product.items()}
    tmap = dict(rb.maps) if rb is not None else None
    return OmegaBimodule(a, a.dim, left, right, dict(a.pmap), dict(a.qmap), tmap)


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
        witness = validate_bimodule(b)
        if witness is not None:
            raise PreconditionError(f"bimodule invalid: {witness.describe()}")
    return _semidirect_algebra(b, bullet=None)


def _semidirect_algebra(b: OmegaBimodule, bullet: dict | None) -> OmegaAlgebra:
    a = b.base
    d, dm = a.dim, b.dim_m
    n = d + dm
    product = {}
    for key in a.product:
        t = tensor_zeros(n, n, n)
        mu = a.product[key]
        lt, rt = b.left[key], b.right[key]
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    t[i][j][k] = mu[i][j][k]
        for i in range(d):
            for l in range(dm):
                for k in range(dm):
                    t[i][d + l][d + k] = lt[i][l][k]
        for l in range(dm):
            for j in range(d):
                for k in range(dm):
                    t[d + l][j][d + k] = rt[l][j][k]
        if bullet is not None:
            bt = bullet[key]
            for l in range(dm):
                for l2 in range(dm):
                    for k in range(dm):
                        t[d + l][d + l2][d + k] = bt[l][l2][k]
        product[key] = t
    pmap = {x: _block_diag(a.pmap[x], b.pmap[x]) for x in a.omega.elements()}
    qmap = {x: _block_diag(a.qmap[x], b.qmap[x]) for x in a.omega.elements()}
    return OmegaAlgebra(a.omega, n, product, pmap, qmap)


def _block_diag(top: Mat, bottom: Mat) -> Mat:
    n = top.rows + bottom.rows
    out = Mat.zeros(n, n)
    for i in range(top.rows):
        for j in range(top.cols):
            out.entries[i * n + j] = top.at(i, j)
    for i in range(bottom.rows):
        for j in range(bottom.cols):
            out.entries[(top.rows + i) * n + (top.cols + j)] = bottom.at(i, j)
    return out


@dataclass(frozen=True)
class BimoduleAlgebraData:
    bullet: dict  # (a, b) -> dim_m x dim_m x dim_m tensor


def validate_bimodule_algebra(b: OmegaBimodule, extra: BimoduleAlgebraData) -> Witness | None:
    """Is (M, bullet) an algebra interacting correctly with the actions?

    Two routes are computed: the component identities (M an algebra itself
    plus three action/bullet compatibilities, on top of the bimodule axioms)
    and the direct validation of A (+) M with the bullet folded into the
    product.  Both must agree on success; the first component witness is
    returned otherwise.
    """
    base_witness = validate_algebra(b.base)
    if base_witness is not None:
        raise PreconditionError(f"base algebra invalid: {base_witness.describe()}")
    a = b.base
    om = a.omega
    d, dm = a.dim, b.dim_m

    def bullet_apply(key, u, v):
        return bilinear(extra.bullet[key], u, v, dm)

    def scan_left_bullet():
        for x in om.elements():
            for y in om.elements():
                for z in om.elements():
                    yz, xy = om.mul(y, z), om.mul(x, y)
                    for i in range(d):
                        pi = a.pmap[x].col(i)
                        for l in range(dm):
                            for l2 in range(dm):
                                lhs = b.act_left((x, yz), pi, extra.bullet[(y, z)][l][l2])
                                rhs = bullet_apply(
                                    (xy, z), b.act_left_basis((x, y), i, l), b.qmap[z].col(l2)
                                )
                                if lhs != rhs:
                                    return Witness(
                                        "bimodule-algebra-left",
                                        (x, y, z),
                                        (i, l, l2),
                                        tuple(lhs),
                                        tuple(rhs),
                                    )
        return None

    def scan_right_bullet():
        for x in om.elements():
            for y in om.elements():
                for z in om.elements():
                    yz, xy = om.mul(y, z), om.mul(x, y)
                    for l in range(dm):
                        pl = b.pmap[x].col(l)
                        for l2 in range(dm):
                            for j in range(d):
                                lhs = bullet_apply((x, yz), pl, b.act_right_basis((y, z), l2, j))
                                rhs = b.act_right(
                                    (xy, z), extra.bullet[(x, y)][l][l2], a.qmap[z].col(j)
                                )
                                if lhs != rhs:
                                    return Witness(
                                        "bimodule-algebra-right",
                                        (x, y, z),
                                        (l, l2, j),
                                        tuple(lhs),
                                        tuple(rhs),
                                    )
        return None

    def scan_mixed_bullet():
        for x in om.elements():
            for y in om.elements():
                for z in om.elements():
                    yz, xy = om.mul(y, z), om.mul(x, y)
                    for l in range(dm):
                        pl = b.pmap[x].col(l)
                        for j in range(d):
                            for l2 in range(dm):
                                lhs = bullet_apply((x, yz), pl, b.act_left_basis((y, z), j, l2))
                                rhs = bullet_apply(
                                    (xy, z), b.act_right_basis((x, y), l, j), b.qmap[z].col(l2)
                                )
                                if lhs != rhs:
                                    return Witness(
                                        "bimodule-algebra-mixed",
                                        (x, y, z),
                                        (l, j, l2),
                                        tuple(lhs),
                                        tuple(rhs),
                                    )
        return None

    witness = validate_bimodule(b)
    if witness is None:
        m_algebra = OmegaAlgebra(om, dm, dict(extra.bullet), dict(b.pmap), dict(b.qmap))
        witness = validate_algebra(m_algebra)
    if witness is None:
        witness = scan_left_bullet()
    if witness is None:
        witness = scan_right_bullet()
    if witness is None:
        witness = scan_mixed_bullet()

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
    """Check the weighted action identities for the tmap family."""
    if b.tmap is None:
        raise PreconditionError("bimodule has no tmap family")
    witness = validate_bimodule(b)
    if witness is not None:
        raise PreconditionError(f"bimodule invalid: {witness.describe()}")
    witness = check_rota_baxter(b.base, rb)
    if witness is not None:
        raise PreconditionError(f"Rota-Baxter family invalid: {witness.describe()}")
    a = b.base
    om = a.omega
    d, dm = a.dim, b.dim_m
    w = rb.weight
    for x in om.elements():
        t = b.tmap[x]
        for name, m in (("t-p-commute", b.pmap[x]), ("t-q-commute", b.qmap[x])):
            lhs_m = m.mul(t)
            rhs_m = t.mul(m)
            if lhs_m != rhs_m:
                for j in range(dm):
                    lc, rc = lhs_m.col(j), rhs_m.col(j)
                    if lc != rc:
                        return Witness(name, (x,), (j,), tuple(lc), tuple(rc))
    for x in om.elements():
        for y in om.elements():
            key = (x, y)
            txy = b.tmap[om.mul(x, y)]
            rx, ty = rb.maps[x], b.tmap[y]
            for i in range(d):
                rxi = rx.col(i)
                ei = a.basis_vector(i)
                for l in range(dm):
                    tl = ty.col(l)
                    el = b.m_basis_vector(l)
                    lhs = b.act_left(key, rxi, tl)
                    inner = b.act_left(key, ei, tl)
                    for k, v in enumerate(b.act_left(key, rxi, el)):
                        inner[k] += v
                    if w:
                        for k, v in enumerate(b.act_left_basis(key, i, l)):
                            inner[k] += w * v
                    rhs = txy.matvec(inner)
                    if lhs != rhs:
                        return Witness("rbf-bimodule-left", (x, y), (i, l), tuple(lhs), tuple(rhs))
    for x in om.elements():
        for y in om.elements():
            key = (x, y)
            txy = b.tmap[om.mul(x, y)]
            tx, ry = b.tmap[x], rb.maps[y]
            for l in range(dm):
                txl = tx.col(l)
                el = b.m_basis_vector(l)
                for j in range(d):
                    ryj = ry.col(j)
                    ej = a.basis_vector(j)
                    lhs = b.act_right(key, txl, ryj)
                    inner = b.act_right(key, el, ryj)
                    for k, v in enumerate(b.act_right(key, txl, ej)):
                        inner[k] += v
                    if w:
                        for k, v in enumerate(b.act_right_basis(key, l, j)):
                            inner[k] += w * v
                    rhs = txy.matvec(inner)
                    if lhs != rhs:
                        return Witness("rbf-bimodule-right", (x, y), (l, j), tuple(lhs), tuple(rhs))
    return None


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
    same structure maps, base = star algebra.
    """
    if check:
        witness = validate_rbf_bimodule(b, rb)
        if witness is not None:
            raise PreconditionError(f"not a Rota-Baxter family bimodule: {witness.describe()}")
    a = b.base
    om = a.omega
    d, dm = a.dim, b.dim_m
    star = star_product(a, rb, check=False)
    left, right = {}, {}
    for key in b.left:
        x, y = key
        txy = b.tmap[om.mul(x, y)]
        rx, ry = rb.maps[x], rb.maps[y]
        lt = tensor_zeros(d, dm, dm)
        for i in range(d):
            rxi = rx.col(i)
            for l in range(dm):
                acc = b.act_left(key, rxi, b.m_basis_vector(l))
                sub = txy.matvec(b.act_left_basis(key, i, l))
                lt[i][l] = [u - v for u, v in zip(acc, sub)]
        left[key] = lt
        rt = tensor_zeros(dm, d, dm)
        for l in range(dm):
            el = b.m_basis_vector(l)
            for j in range(d):
                acc = b.act_right(key, el, ry.col(j))
                sub = txy.matvec(b.act_right_basis(key, l, j))
                rt[l][j] = [u - v for u, v in zip(acc, sub)]
        right[key] = rt
    return OmegaBimodule(star, dm, left, right, dict(b.pmap), dict(b.qmap), None)
