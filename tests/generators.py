"""Seeded random generation of valid structures, for tests.

Every generator returns a structure that validates: it re-draws until its
candidate passes, deterministically for a fixed seed, and raises
InternalCheckError when 40 draws do not converge.  Random algebras come
from constructions that are valid by design: zero products with commuting
diagonal structure maps, the two-dimensional scaled example family, twists
of associative cores (diagonal algebras, truncated polynomial algebras) by
automorphism families, and semidirect products.

:func:`random_wide_pair` widens those draws, with integer entries: its
algebra's structure maps are invertible and not diagonal, p differs from q,
they are not both the identity at the unit, and they may differ element by
element (:func:`random_twisted_algebra`, moved to a random basis by
:func:`_transport`, which keeps validity); its bimodule is the regular
one, a zero one with invertible non-diagonal maps, or the bimodule induced
by a Rota-Baxter family found by search.
:func:`random_valid_context` draws Rota-Baxter family contexts, among them the
splitting family R = -weight * pi_1 of a splitting of A into two subalgebras
that every structure map keeps.
"""

from itertools import combinations

from bihomega.algebra import (
    ExampleParams,
    OmegaAlgebra,
    RotaBaxterFamily,
    bilinear,
    build_example_algebra,
    tensor_zeros,
    validate_algebra,
    yau_twist,
    zero_algebra,
    zero_rb,
)
from bihomega.bimodule import (
    OmegaBimodule,
    induced_module_star,
    regular_bimodule,
    semidirect_product,
    validate_bimodule,
    zero_bimodule,
)
from bihomega.errors import InternalCheckError
from bihomega.linalg import Mat
from bihomega.monoid import Monoid, boolean_monoid, cyclic_monoid, trivial_monoid
from bihomega.rationals import ONE, Rat
from bihomega.rbf import RbfContext
from bihomega.samples import (
    build_diag,
    build_e1,
    build_truncated_poly,
    c2_params,
    module_bimodule,
    searched_rb,
    unit_params,
)


_MONOIDS = (trivial_monoid(), cyclic_monoid(2), boolean_monoid())
_SCALARS = (Rat(1), Rat(2), Rat(-1), Rat(1, 2), Rat(3))
_WEIGHTS = (Rat(1), Rat(-1), Rat(1, 2), Rat(2))
_INT_UNITS = (Rat(1), Rat(2), Rat(-1), Rat(3))


def _random_diag_family(rng, omega: Monoid, dim: int, invertible: bool = False, scalars: tuple = _SCALARS) -> dict:
    out = {}
    for x in omega.elements():
        entries = []
        for _ in range(dim):
            v = rng.choice(scalars) if invertible else Rat(rng.randint(-2, 2))
            entries.append(v)
        m = Mat.zeros(dim, dim)
        for i, v in enumerate(entries):
            m.entries[i * dim + i] = v
        out[x] = m
    return out


def _cocycle_scale(rng, omega: Monoid) -> dict:
    t = rng.choice(_SCALARS)
    s = rng.choice(_SCALARS)
    return {
        (x, y): s * (t ** (x * y) if x * y else ONE)
        for x in omega.elements()
        for y in omega.elements()
    }


def _scale_product(a: OmegaAlgebra, c: dict) -> OmegaAlgebra:
    product = {}
    for key, t in a.product.items():
        cv = c[key]
        product[key] = [[[cv * v for v in row] for row in plane] for plane in t]
    return OmegaAlgebra(a.omega, a.dim, product, dict(a.pmap), dict(a.qmap))


def _random_core(rng, omega: Monoid, dim: int) -> OmegaAlgebra:
    kind = rng.choice(("diag", "poly"))
    core = build_diag(dim, omega) if kind == "diag" else build_truncated_poly(dim, omega)
    # constant automorphism family: permutation cycle for the diagonal
    # algebra, scaling x -> u x for the truncated polynomial algebra
    if kind == "diag":
        perm = list(range(dim))
        rng.shuffle(perm)
        phi = Mat.zeros(dim, dim)
        for j, i in enumerate(perm):
            phi.entries[i * dim + j] = ONE
    else:
        u = rng.choice((Rat(2), Rat(-1), Rat(1, 2), Rat(3)))
        phi = Mat.zeros(dim, dim)
        acc = ONE
        for i in range(dim):
            phi.entries[i * dim + i] = acc
            acc *= u
    jp, jq = rng.randint(0, 2), rng.randint(0, 2)
    pmap = {x: phi.power(jp) for x in omega.elements()}
    qmap = {x: phi.power(jq) for x in omega.elements()}
    twisted, _ = yau_twist(core, zero_rb(core), pmap, qmap)
    scaled = _scale_product(twisted, _cocycle_scale(rng, omega))
    return scaled


def random_valid_algebra(rng, max_dim: int = 3) -> OmegaAlgebra:
    """A validated random algebra with dim <= max_dim, monoid size <= 2."""
    for _ in range(40):
        omega = rng.choice(_MONOIDS)
        kind = rng.choice(("zero", "example", "twist", "semidirect"))
        try:
            if kind == "zero":
                dim = rng.randint(1, max_dim)
                a = zero_algebra(
                    omega,
                    dim,
                    _random_diag_family(rng, omega, dim),
                    _random_diag_family(rng, omega, dim),
                )
            elif kind == "example":
                if omega.size == 1:
                    c = {(0, 0): rng.choice(_SCALARS)}
                    params = ExampleParams(c, {0: ONE}, {0: ONE})
                    a = build_example_algebra(omega, params)
                else:
                    om2, params = c2_params(rng.randint(0, 2), rng.choice(_SCALARS))
                    a = build_example_algebra(om2, params)
            elif kind == "twist":
                dim = rng.randint(1, max_dim)
                a = _random_core(rng, omega, dim)
            else:
                if omega.size == 1:
                    base = build_e1()
                    bim = module_bimodule(base, unit_params(omega))
                else:
                    om2, params = c2_params(rng.randint(0, 2), rng.choice(_SCALARS))
                    base = build_example_algebra(om2, params)
                    bim = module_bimodule(base, params)
                if validate_bimodule(bim) is not None:
                    continue
                a = semidirect_product(bim, check=False)
        except Exception:
            continue
        if a.dim <= max_dim and validate_algebra(a) is None:
            return a
    raise InternalCheckError("random algebra generation failed to converge")


def random_valid_bimodule(rng, a: OmegaAlgebra, max_dim_m: int = 2) -> OmegaBimodule:
    """A validated random bimodule over the given algebra."""
    for _ in range(40):
        choices = ["zero"]
        if a.dim <= max_dim_m:
            choices.append("regular")
        kind = rng.choice(choices)
        if kind == "regular":
            b = regular_bimodule(a)
        else:
            dim_m = rng.randint(0, max_dim_m)
            b = zero_bimodule(
                a,
                dim_m,
                _random_diag_family(rng, a.omega, dim_m),
                _random_diag_family(rng, a.omega, dim_m),
            )
        if validate_bimodule(b) is None:
            return b
    raise InternalCheckError("random bimodule generation failed to converge")


def random_valid_pair(rng, max_dim: int = 3, max_dim_m: int = 2):
    a = random_valid_algebra(rng, max_dim)
    b = random_valid_bimodule(rng, a, max_dim_m)
    return a, b


def _shears(rng, dim: int) -> tuple:
    """(S, S^-1) for a random invertible integer matrix S, a product of
    ``dim`` shears I + c E_ij (i != j); the identity when dim < 2."""
    s, inv = Mat.identity(dim), Mat.identity(dim)
    for _ in range(dim if dim > 1 else 0):
        i, j = rng.sample(range(dim), 2)
        c = rng.choice((1, -1, 2))
        e, e_inv = Mat.identity(dim), Mat.identity(dim)
        e.entries[i * dim + j], e_inv.entries[i * dim + j] = Rat(c), Rat(-c)
        s, inv = s.mul(e), e_inv.mul(inv)
    return s, inv


def _conjugate(maps: dict, s: tuple) -> dict:
    """S f S^-1 for every map f of the family, ``s`` = (S, S^-1)."""
    return {x: s[0].mul(f).mul(s[1]) for x, f in maps.items()}


def _transport(a: OmegaAlgebra, s: tuple) -> OmegaAlgebra:
    """The algebra moved to a new basis, x -> S x (``s`` = (S, S^-1)): the
    products and structure maps are conjugated, so the result is isomorphic
    to ``a`` and validates exactly when it does."""
    sm, si = s
    cols = [si.col(i) for i in range(a.dim)]
    product = {
        key: [[sm.matvec(bilinear(mu, x, y, a.dim)) for y in cols] for x in cols] for key, mu in a.product.items()
    }
    return OmegaAlgebra(a.omega, a.dim, product, _conjugate(a.pmap, s), _conjugate(a.qmap, s))


def _off_diagonal(maps) -> bool:
    """Whether some matrix of ``maps`` has a nonzero entry off its diagonal."""
    return any(f.at(i, j) for f in maps for i in range(f.rows) for j in range(f.cols) if i != j)


def _after_one(f: Mat) -> Mat:
    """The block-diagonal matrix 1 (+) f."""
    n = f.rows + 1
    out = Mat.zeros(n, n)
    out.entries[0] = ONE
    for i in range(f.rows):
        out.entries[(i + 1) * n + 1 : (i + 2) * n] = f.entries[i * f.cols : (i + 1) * f.cols]
    return out


def random_twisted_algebra(rng) -> OmegaAlgebra:
    """A validated two-dimensional algebra with integer entries, monoid size
    <= 2, whose structure maps are invertible and not all diagonal, with
    p != q and not both the identity at the unit.  The diagonal algebra k^2
    or k[x]/(x^2) is twisted by two distinct nonzero powers of an
    automorphism (the swap, or x -> u x), or k e_0 sits beside a zero
    algebra whose invertible maps vary element by element; over the cyclic
    monoid its products and maps are then scaled by the parameters of
    ``samples.c2_params`` (so p and q may differ element by element),
    elsewhere its products by a 2-cocycle; last it is moved to a random
    basis."""
    for _ in range(40):
        omega, kind = rng.choice(_MONOIDS), rng.choice(("diag", "poly", "sum"))
        elements = omega.elements()
        if kind == "sum":  # k e_0 (e_0 e_0 = e_0) beside a zero algebra whose maps vary element by element
            p, q = (_random_diag_family(rng, omega, 1, invertible=True, scalars=_INT_UNITS) for _ in range(2))
            e0 = tensor_zeros(2, 2, 2)
            e0[0][0][0] = ONE
            a = OmegaAlgebra(omega, 2, {(x, y): e0 for x in elements for y in elements},
                             {x: _after_one(p[x]) for x in elements}, {x: _after_one(q[x]) for x in elements})
        else:
            core = (build_diag if kind == "diag" else build_truncated_poly)(2, omega)
            u = rng.choice((Rat(2), Rat(-1), Rat(3)))
            phi = Mat.from_rows([[0, 1], [1, 0]] if kind == "diag" else [[1, 0], [0, u]])
            jp, jq = rng.sample((1, 2, 3), 2)
            a, _ = yau_twist(core, zero_rb(core), {x: phi.power(jp) for x in elements}, {x: phi.power(jq) for x in elements})
        if omega.table == _MONOIDS[1].table:
            c, r, l = c2_params(rng.randint(0, 2), rng.choice((Rat(2), Rat(-1), Rat(3))))[1]
        else:
            s, t = rng.choice((ONE, Rat(2), Rat(-1))), rng.choice((ONE, Rat(2), Rat(-1)))
            c, r, l = {(x, y): s * t ** (x * y) for x in elements for y in elements}, None, None
        a = _scale_product(a, c)
        if r is not None:
            a = OmegaAlgebra(omega, 2, a.product, {x: f.scale(r[x]) for x, f in a.pmap.items()},
                             {x: f.scale(l[x]) for x, f in a.qmap.items()})
        a = _transport(a, _shears(rng, 2))
        unit = omega.unit
        if (
            _off_diagonal(list(a.pmap.values()) + list(a.qmap.values()))
            and a.pmap != a.qmap
            and not (a.pmap[unit].is_identity() and a.qmap[unit].is_identity())
            and validate_algebra(a) is None
        ):
            return a
    raise InternalCheckError("twisted algebra generation failed to converge")


def random_wide_pair(rng):
    """(algebra, validated bimodule) over :func:`random_twisted_algebra`:
    the regular bimodule, a zero bimodule of dimension 1 or 2 whose maps are
    invertible and not diagonal, or the bimodule induced over the star
    algebra by a non-scalar Rota-Baxter family (``samples.searched_rb``;
    then the algebra is that star algebra, whose maps are the twisted
    algebra's)."""
    for _ in range(40):
        a = random_twisted_algebra(rng)
        kind = rng.choice(("regular", "zero", "induced"))
        if kind == "regular":
            b = regular_bimodule(a)
        elif kind == "zero":
            m = rng.randint(1, 2)
            t = _shears(rng, m)
            p, q = (_conjugate(_random_diag_family(rng, a.omega, m, invertible=True, scalars=_INT_UNITS), t)
                    for _ in range(2))
            b = zero_bimodule(a, m, p, q)
        else:
            try:
                rb = searched_rb(a, rng.choice((Rat(1), Rat(-1), Rat(2))))
            except InternalCheckError:  # no non-scalar family within bound 1
                continue
            b = induced_module_star(regular_bimodule(a, rb), rb)
        if validate_bimodule(b) is None:
            return b.base, b
    raise InternalCheckError("wide pair generation failed to converge")


def random_valid_context(rng, kind: str | None = None) -> RbfContext:
    """A validated Rota-Baxter family context on an algebra of dimension at
    most 2, with the regular bimodule and T = R.  The family, at a weight
    in {1, -1, 1/2, 2}, is of ``kind``: "scalar" R = -weight * id or "zero"
    R = 0 (Rota-Baxter of that weight on any algebra), "searched", the
    first non-scalar family of that weight that ``samples.searched_rb``
    finds, or "split", R_w = -weight * pi_1 for every w, where pi_1 projects
    A = A_1 (+) A_2 onto A_1 along A_2 (:func:`_split_family`).  A kind
    of None draws "scalar", "zero" or, for half the draws, "searched".
    The kind "zero-module" draws the family as None does, over a zero
    bimodule instead (:func:`_zero_module`).  The algebra is drawn again
    while the search or the splitting finds none."""
    weight = rng.choice(_WEIGHTS)
    zero_module = kind == "zero-module"
    if kind in (None, "zero-module"):
        kind = rng.choice(("scalar", "zero", "searched", "searched"))
    for _ in range(40):
        a = random_valid_algebra(rng, 2)
        if kind == "split":
            split = _split_family(rng, a, weight)
            if split is None:
                continue
            a, rb = split
        elif kind != "searched":
            rb = RotaBaxterFamily(weight, {x: Mat.scalar(a.dim, -weight if kind == "scalar" else 0) for x in a.omega.elements()})
        else:
            try:
                rb = searched_rb(a, weight)
            except InternalCheckError:  # no non-scalar family within bound 1
                continue
        return RbfContext.validated(a, rb, _zero_module(rng, a, rb) if zero_module else regular_bimodule(a, rb))
    raise InternalCheckError("random context generation failed to converge")


def _zero_module(rng, a: OmegaAlgebra, rb: RotaBaxterFamily) -> OmegaBimodule:
    """A zero bimodule over ``a`` of dimension 1 or 2, with P = Q = id and
    T_w, drawn per element, an integer upper triangular matrix that is not
    R_w and, where dim M = 2, not a scalar.  With zero actions the weighted
    action identities hold for any T, which commutes with P and Q, so the
    context validates; T differs from R."""
    m = rng.randint(1, 2)
    tmap = {}
    for x in a.omega.elements():
        t = rb.maps[x]
        while t == rb.maps[x] or (m == 2 and not t.at(0, 1) and t.at(0, 0) == t.at(1, 1)):
            t = Mat(m, m, [Rat(rng.randint(-2, 3)) if i <= j else Rat(0) for i in range(m) for j in range(m)])
        tmap[x] = t
    return zero_bimodule(a, m, tmap=tmap)


def _split_family(rng, a: OmegaAlgebra, weight) -> tuple | None:
    """(the algebra moved to a random basis, R_w = -weight * pi_1 for every
    w) for a random splitting A = A_1 (+) A_2, both nonzero, into spans of
    basis vectors that are subalgebras under every product and stable under
    every p_w and q_w; None when ``a`` has no such splitting.  Then R is
    Rota-Baxter of that weight: writing x = x_1 + x_2, R(x)R(y) =
    weight^2 x_1 y_1 = R(R(x) y + x R(y) + weight x y), as x_2 y_2 lies in
    A_2, and pi_1 commutes with every p_w and q_w."""
    d, maps = a.dim, list(a.pmap.values()) + list(a.qmap.values())

    def closed(part: set) -> bool:
        inside = [(i, j) for i in part for j in part]
        return all(not mu[i][j][k] for mu in a.product.values() for i, j in inside for k in range(d) if k not in part) \
            and all(not f.at(i, j) for f in maps for j in part for i in range(d) if i not in part)

    splits = [set(s) for size in range(1, d) for s in combinations(range(d), size)
              if closed(set(s)) and closed(set(range(d)) - set(s))]
    if not splits:
        return None
    first = rng.choice(splits)
    pi = Mat.zeros(d, d)
    for i in first:
        pi.entries[i * d + i] = -weight
    s = _shears(rng, d)
    return _transport(a, s), RotaBaxterFamily(weight, _conjugate({x: pi for x in a.omega.elements()}, s))
