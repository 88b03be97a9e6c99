"""BiHom-Omega-associative algebras and Rota-Baxter families on them.

An algebra is a finite-dimensional rational vector space with a family of
products indexed by pairs from a finite monoid, plus two families of
structure maps (here ``pmap`` and ``qmap``) twisting the associativity law:

    pmap[ab] (x *_{a,b} y) = pmap[a](x) *_{a,b} pmap[b](y)   (and qmap alike)
    pmap[a](x) *_{a,bc} (y *_{b,c} z) = (x *_{a,b} y) *_{ab,c} qmap[c](z)

Structure constants: ``product[(a, b)][i][j][k]`` is the e_k coefficient of
e_i *_{a,b} e_j.  All maps act on column vectors.

A Rota-Baxter family of weight w is a family R of operators commuting with
the structure maps at equal indices and satisfying

    R[a](x) *_{a,b} R[b](y)
        = R[ab]( R[a](x) *_{a,b} y  +  x *_{a,b} R[b](y)  +  w * x *_{a,b} y ).

Validators return None for success or the first failing :class:`Witness` in
lexicographic scan order (monoid indices before basis indices), so failures
are reproducible.  Every identity of the algebras, bimodules and operator
families is an instance of one of four scans, shared with
:mod:`bihomega.bimodule` and :mod:`bihomega.deformation`:

* column: two matrices compared column by column (commutation of the
  structure maps with each other and with an operator family);
* intertwining: g[ab] B(e_i, e_j) = B'(f[a] e_i, h[b] e_j) (multiplicativity,
  equivariance of the actions, homomorphisms);
* twisted associativity: B1(p[a] e_i, B2(e_j, e_k)) = B3(B4(e_i, e_j), q[c] e_k)
  with the products at (a, bc), (b, c), (ab, c) and (a, b);
* weighted: B(S[a] x, U[b] y) = V[ab](x * y), where
  x * y = B(S[a] x, y) + B(x, U[b] y) + w B(x, y) is the star sum that
  :func:`star_product` builds, so "R is Rota-Baxter" reads R(x)R(y) = R(x * y).

A validator chains its scans in a fixed order and returns the first
witness.  The equation name, indices and both sides of each witness are part
of the contract; ``fixtures/witnesses.json`` pins them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import MalformedInputError, PreconditionError
from .linalg import Mat, rank
from .monoid import Monoid, ensure_monoid
from .rationals import ONE, ZERO, Rat, format_rational


@dataclass(frozen=True)
class Witness:
    """First counterexample found by a validator: lhs != rhs at these indices."""

    equation: str
    omega_indices: tuple
    basis_indices: tuple
    lhs: tuple
    rhs: tuple

    def describe(self) -> str:
        lhs = "(" + ", ".join(format_rational(x) for x in self.lhs) + ")"
        rhs = "(" + ", ".join(format_rational(x) for x in self.rhs) + ")"
        return (
            f"{self.equation} fails at monoid indices {self.omega_indices}, "
            f"basis indices {self.basis_indices}: {lhs} != {rhs}"
        )

    def to_json(self) -> dict:
        return {
            "equation": self.equation,
            "omega": list(self.omega_indices),
            "basis": list(self.basis_indices),
            "lhs": [format_rational(x) for x in self.lhs],
            "rhs": [format_rational(x) for x in self.rhs],
        }


def bilinear(tensor, x, y, dim_out: int) -> list:
    """Apply a tensor[i][j][k] to coordinate vectors x, y."""
    out = [ZERO] * dim_out
    for i, xi in enumerate(x):
        if not xi:
            continue
        ti = tensor[i]
        for j, yj in enumerate(y):
            if not yj:
                continue
            coeff = xi * yj
            row = ti[j]
            for k in range(dim_out):
                if row[k]:
                    out[k] += coeff * row[k]
    return out


# -- the four scans (see the module docstring) -------------------------------


def _first(witnesses) -> Witness | None:
    """The first witness a lazily scanned sequence yields, or None."""
    return next((w for w in witnesses if w is not None), None)


def _column_witness(name: str, idx: tuple, lhs: Mat, rhs: Mat) -> Witness | None:
    """The first column where two matrices differ, at monoid indices idx."""
    if lhs != rhs:
        for j in range(lhs.cols):
            lc, rc = lhs.col(j), rhs.col(j)
            if lc != rc:
                return Witness(name, idx, (j,), tuple(lc), tuple(rc))
    return None


def _commute_scan(om: Monoid, t: dict, checks) -> Witness | None:
    """m[a] t[a] = t[a] m[a] for each (name, m) in checks, over a."""
    return _first(
        _column_witness(name, (x,), m[x].mul(t[x]), t[x].mul(m[x]))
        for x in om.elements()
        for name, m in checks
    )


def _intertwining_scan(om: Monoid, checks) -> Witness | None:
    """g[ab] B(e_i, e_j) = B'(f[a] e_i, h[b] e_j).

    ``checks`` lists (name, g, B, B', f, h); the checks are interleaved
    inside each (a, b), and each scans (i, j) lexicographically.
    """
    for x in om.elements():
        for y in om.elements():
            key, xy = (x, y), om.mul(x, y)
            for name, g, tensor, tensor_out, f, h in checks:
                gxy, fx, hy, t, t_out = g[xy], f[x], h[y], tensor[key], tensor_out[key]
                for i in range(len(t)):
                    fi = fx.col(i)
                    for j in range(len(t[i])):
                        lhs = gxy.matvec(t[i][j])
                        rhs = bilinear(t_out, fi, hy.col(j), gxy.rows)
                        if lhs != rhs:
                            return Witness(name, key, (i, j), tuple(lhs), tuple(rhs))
    return None


def _assoc_scan(name: str, om: Monoid, dims: tuple, lo, li, ro, ri, p: dict, q: dict) -> Witness | None:
    """Twisted associativity lo(p[a] e_i, li(e_j, e_k)) = ro(ri(e_i, e_j), q[c] e_k).

    The products are at (a, bc), (b, c), (ab, c) and (a, b); ``dims`` gives
    the ranges of i, j, k and the output dimension.  Scan order (a, b, c,
    i, j, k), lexicographic.
    """
    n1, n2, n3, n_out = dims
    for x in om.elements():
        for y in om.elements():
            xy, rin = om.mul(x, y), ri[(x, y)]
            for z in om.elements():
                yz = om.mul(y, z)
                lout, lin, rout, px, qz = lo[(x, yz)], li[(y, z)], ro[(xy, z)], p[x], q[z]
                for i in range(n1):
                    pi = px.col(i)
                    for j in range(n2):
                        for k in range(n3):
                            lhs = bilinear(lout, pi, lin[j][k], n_out)
                            rhs = bilinear(rout, rin[i][j], qz.col(k), n_out)
                            if lhs != rhs:
                                return Witness(name, (x, y, z), (i, j, k), tuple(lhs), tuple(rhs))
    return None


def _star_entry(t, sxi, uyj, i: int, j: int, weight, n: int) -> list:
    """B(s e_i, e_j) + B(e_i, u e_j) + weight B(e_i, e_j) for s e_i = sxi, u e_j = uyj."""
    out = [weight * v for v in t[i][j]] if weight else [ZERO] * n
    terms = [(c, t[k][j]) for k, c in enumerate(sxi)] + [(c, t[i][k]) for k, c in enumerate(uyj)]
    for c, row in terms:
        if c:
            for k in range(n):
                if row[k]:
                    out[k] += c * row[k]
    return out


def _weighted_scan(
    name: str, om: Monoid, tensors: dict, s: dict, u: dict, v: dict, weight, n: int
) -> Witness | None:
    """The weighted Rota-Baxter shape B(s[a] x, u[b] y) = v[ab](x *_{a,b} y).

    x * y = B(s[a] x, y) + B(x, u[b] y) + weight B(x, y) is the star sum of
    :func:`_star_entry`.  Scan order (a, b, i, j), lexicographic.
    """
    for x in om.elements():
        for y in om.elements():
            key, t, vxy, sx, uy = (x, y), tensors[(x, y)], v[om.mul(x, y)], s[x], u[y]
            for i in range(len(t)):
                sxi = sx.col(i)
                for j in range(len(t[i])):
                    uyj = uy.col(j)
                    lhs = bilinear(t, sxi, uyj, n)
                    rhs = vxy.matvec(_star_entry(t, sxi, uyj, i, j, weight, n))
                    if lhs != rhs:
                        return Witness(name, key, (i, j), tuple(lhs), tuple(rhs))
    return None


@dataclass(eq=False)
class OmegaAlgebra:
    omega: Monoid
    dim: int
    product: dict  # (a, b) -> d x d x d structure tensor
    pmap: dict  # a -> d x d Mat
    qmap: dict  # a -> d x d Mat
    _cache: dict = field(default_factory=dict, repr=False)

    def mul_basis(self, key, i: int, j: int) -> list:
        return self.product[key][i][j]

    def mul_vec(self, key, x, y) -> list:
        return bilinear(self.product[key], x, y, self.dim)

    def p_power(self, w: int, k: int) -> Mat:
        return _cached_power(self._cache, "p", self.pmap, w, k)

    def q_power(self, w: int, k: int) -> Mat:
        return _cached_power(self._cache, "q", self.qmap, w, k)

    def basis_vector(self, i: int) -> list:
        v = [ZERO] * self.dim
        v[i] = ONE
        return v


def _cached_power(cache: dict, tag: str, maps: dict, w: int, k: int) -> Mat:
    key = (tag, w, k)
    hit = cache.get(key)
    if hit is None:
        hit = maps[w].power(k)
        cache[key] = hit
    return hit


@dataclass(eq=False)
class RotaBaxterFamily:
    weight: Rat
    maps: dict  # a -> d x d Mat


def tensor_zeros(d1: int, d2: int, d3: int) -> list:
    return [[[ZERO] * d3 for _ in range(d2)] for _ in range(d1)]


def ensure_algebra_shapes(a: OmegaAlgebra):
    ensure_monoid(a.omega)
    size = a.omega.size
    for x in range(size):
        for y in range(size):
            if (x, y) not in a.product:
                raise MalformedInputError(f"product missing key ({x}, {y})")
            t = a.product[(x, y)]
            if len(t) != a.dim or any(
                len(ti) != a.dim or any(len(tij) != a.dim for tij in ti) for ti in t
            ):
                raise MalformedInputError(f"product tensor ({x}, {y}) has wrong shape")
    for name, maps in (("pmap", a.pmap), ("qmap", a.qmap)):
        for x in range(size):
            m = maps.get(x)
            if m is None:
                raise MalformedInputError(f"{name} missing index {x}")
            if m.rows != a.dim or m.cols != a.dim:
                raise MalformedInputError(f"{name}[{x}] is not {a.dim}x{a.dim}")


def validate_algebra(a: OmegaAlgebra) -> Witness | None:
    """Check the two defining identities plus structure-map commutation.

    Scan order: pq-commutation over (a, b); multiplicativity over
    (a, b, i, j); twisted associativity over (a, b, c, i, j, k).
    """
    ensure_algebra_shapes(a)
    om, p, q, mu = a.omega, a.pmap, a.qmap, a.product
    return (
        _first(
            _column_witness("pq-commute", (x, y), p[x].mul(q[y]), q[y].mul(p[x]))
            for x in om.elements()
            for y in om.elements()
        )
        or _intertwining_scan(
            om, (("multiplicativity-p", p, mu, mu, p, p), ("multiplicativity-q", q, mu, mu, q, q))
        )
        or _assoc_scan("bihom-associativity", om, (a.dim,) * 4, mu, mu, mu, mu, p, q)
    )


def ensure_rb_shapes(a: OmegaAlgebra, rb: RotaBaxterFamily):
    for x in a.omega.elements():
        m = rb.maps.get(x)
        if m is None:
            raise MalformedInputError(f"Rota-Baxter family missing index {x}")
        if m.rows != a.dim or m.cols != a.dim:
            raise MalformedInputError(f"Rota-Baxter map [{x}] is not {a.dim}x{a.dim}")


def check_rota_baxter(a: OmegaAlgebra, rb: RotaBaxterFamily) -> Witness | None:
    """Structure-map commutation at equal indices, then R(x)R(y) = R(x * y)
    with * the star product of :func:`star_product`."""
    ensure_rb_shapes(a, rb)
    r = rb.maps
    return (
        _commute_scan(a.omega, r, (("rb-p-commute", a.pmap), ("rb-q-commute", a.qmap)))
        or _weighted_scan("rota-baxter", a.omega, a.product, r, r, r, rb.weight, a.dim)
    )


def star_product(a: OmegaAlgebra, rb: RotaBaxterFamily, check: bool = True) -> OmegaAlgebra:
    """Derived product x*R(y) + R(x)*y + w*x*y on the same carrier and maps."""
    if check:
        witness = validate_algebra(a)
        if witness is not None:
            raise PreconditionError(f"algebra invalid: {witness.describe()}")
        witness = check_rota_baxter(a, rb)
        if witness is not None:
            raise PreconditionError(f"Rota-Baxter family invalid: {witness.describe()}")
    d, w = a.dim, rb.weight
    star = {}
    for (x, y), t in a.product.items():
        rx, ry = rb.maps[x], rb.maps[y]
        star[(x, y)] = [
            [_star_entry(t, rx.col(i), ry.col(j), i, j, w, d) for j in range(d)] for i in range(d)
        ]
    return OmegaAlgebra(a.omega, d, star, dict(a.pmap), dict(a.qmap))


def is_homomorphism(f: dict, src: OmegaAlgebra, dst: OmegaAlgebra) -> Witness | None:
    """Check a map family f[a]: src -> dst against both structures.

    Conditions: dst.pmap[a] f[a] = f[a] src.pmap[a] (and qmap alike), and
    f[ab](x *_{a,b} y) = f[a](x) *'_{a,b} f[b](y) on basis pairs.
    """
    if src.omega != dst.omega:
        raise MalformedInputError("source and target index monoids differ")
    om = src.omega
    for x in om.elements():
        m = f.get(x)
        if m is None:
            raise MalformedInputError(f"map family missing index {x}")
        if m.rows != dst.dim or m.cols != src.dim:
            raise MalformedInputError(f"map[{x}] is not {dst.dim}x{src.dim}")
    return _first(
        _column_witness(name, (x,), dmap[x].mul(f[x]), f[x].mul(smap[x]))
        for x in om.elements()
        for name, smap, dmap in (("hom-p", src.pmap, dst.pmap), ("hom-q", src.qmap, dst.qmap))
    ) or _intertwining_scan(om, (("hom-multiplicative", f, src.product, dst.product, f, f),))


def yau_twist(
    a: OmegaAlgebra, rb: RotaBaxterFamily, pmap: dict, qmap: dict
) -> tuple[OmegaAlgebra, RotaBaxterFamily]:
    """Twist an untwisted (identity structure maps) algebra by new map families.

    New product: x *_{a,b} y := pmap[a](x) . qmap[b](y).  The Rota-Baxter
    family is carried over unchanged.  Preconditions checked here:
    the input has identity structure maps and validates together with rb;
    the twisting maps are invertible; pmap[a] qmap[b] = qmap[b] pmap[a] for
    all a, b; and rb.maps[w] pmap[w] = pmap[w] rb.maps[w], likewise for
    qmap.  The caller validates the returned pair (the construction does not
    guarantee it for arbitrary twisting maps).
    """
    om = a.omega
    for x in om.elements():
        if not a.pmap[x].is_identity() or not a.qmap[x].is_identity():
            raise PreconditionError("input algebra must have identity structure maps")
    witness = validate_algebra(a)
    if witness is not None:
        raise PreconditionError(f"input algebra invalid: {witness.describe()}")
    witness = check_rota_baxter(a, rb)
    if witness is not None:
        raise PreconditionError(f"input Rota-Baxter family invalid: {witness.describe()}")
    for name, maps in (("pmap", pmap), ("qmap", qmap)):
        for x in om.elements():
            m = maps.get(x)
            if m is None:
                raise MalformedInputError(f"twist {name} missing index {x}")
            if m.rows != a.dim or m.cols != a.dim:
                raise MalformedInputError(f"twist {name}[{x}] has wrong shape")
            if rank(m) != a.dim:
                raise PreconditionError(f"twist {name}[{x}] is not invertible")
    for x in om.elements():
        for y in om.elements():
            if pmap[x].mul(qmap[y]) != qmap[y].mul(pmap[x]):
                raise PreconditionError(f"twist maps do not commute at indices ({x}, {y})")
    for x in om.elements():
        r = rb.maps[x]
        if r.mul(pmap[x]) != pmap[x].mul(r) or r.mul(qmap[x]) != qmap[x].mul(r):
            raise PreconditionError(f"Rota-Baxter map [{x}] does not commute with twist maps")
    d = a.dim
    twisted = {}
    for key in a.product:
        x, y = key
        px, qy = pmap[x], qmap[y]
        t = tensor_zeros(d, d, d)
        for i in range(d):
            pxi = px.col(i)
            for j in range(d):
                t[i][j] = a.mul_vec(key, pxi, qy.col(j))
        twisted[key] = t
    out = OmegaAlgebra(om, d, twisted, dict(pmap), dict(qmap))
    return out, RotaBaxterFamily(rb.weight, dict(rb.maps))


@dataclass(frozen=True)
class ExampleParams:
    """Parameters of the built-in two-dimensional example family.

    ``c`` maps monoid pairs to scalars, ``rmap``/``lmap`` map elements to
    scalars.  Constraints (checked): rmap and lmap are multiplicative, and
    c(a,b) lmap(c) c(ab,c) = c(a,bc) rmap(a) c(b,c).
    """

    c: dict
    rmap: dict
    lmap: dict


def validate_example_params(omega: Monoid, params: ExampleParams) -> str | None:
    """None when the compatibility equations hold, else a description."""
    for x in omega.elements():
        for y in omega.elements():
            xy = omega.mul(x, y)
            if params.rmap[xy] != params.rmap[x] * params.rmap[y]:
                return f"rmap not multiplicative at ({x}, {y})"
            if params.lmap[xy] != params.lmap[x] * params.lmap[y]:
                return f"lmap not multiplicative at ({x}, {y})"
    for x in omega.elements():
        for y in omega.elements():
            for z in omega.elements():
                xy = omega.mul(x, y)
                yz = omega.mul(y, z)
                lhs = params.c[(x, y)] * params.lmap[z] * params.c[(xy, z)]
                rhs = params.c[(x, yz)] * params.rmap[x] * params.c[(y, z)]
                if lhs != rhs:
                    return f"scaling compatibility fails at ({x}, {y}, {z})"
    return None


def build_example_algebra(omega: Monoid, params: ExampleParams) -> OmegaAlgebra:
    """Two-dimensional example: e1*e1 = c e1, e1*e2 = c e1, e2*e1 = c e2,
    e2*e2 = c e2; pmap[a] = rmap(a) id; qmap[a] = lmap(a) [[1,1],[0,0]]."""
    ensure_monoid(omega)
    problem = validate_example_params(omega, params)
    if problem is not None:
        raise PreconditionError(f"example parameters invalid: {problem}")
    product = {}
    for x in omega.elements():
        for y in omega.elements():
            cv = params.c[(x, y)]
            t = tensor_zeros(2, 2, 2)
            t[0][0][0] = cv
            t[0][1][0] = cv
            t[1][0][1] = cv
            t[1][1][1] = cv
            product[(x, y)] = t
    pmap = {x: Mat.scalar(2, params.rmap[x]) for x in omega.elements()}
    qmap = {
        x: Mat.from_rows([[params.lmap[x], params.lmap[x]], [ZERO, ZERO]])
        for x in omega.elements()
    }
    return OmegaAlgebra(omega, 2, product, pmap, qmap)


def zero_algebra(omega: Monoid, dim: int, pmap: dict | None = None, qmap: dict | None = None) -> OmegaAlgebra:
    product = {}
    for x in omega.elements():
        for y in omega.elements():
            product[(x, y)] = tensor_zeros(dim, dim, dim)
    if pmap is None:
        pmap = {x: Mat.identity(dim) for x in omega.elements()}
    if qmap is None:
        qmap = {x: Mat.identity(dim) for x in omega.elements()}
    return OmegaAlgebra(omega, dim, product, pmap, qmap)


def zero_rb(a: OmegaAlgebra, weight=ZERO) -> RotaBaxterFamily:
    return RotaBaxterFamily(Rat(weight), {x: Mat.zeros(a.dim, a.dim) for x in a.omega.elements()})
